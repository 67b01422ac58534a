//! Jump threading and peephole cleanup.
//!
//! The linear-scan allocator lowers every virtual instruction through
//! scratch registers (`dst = a op b` becomes `r0 = a; r0 op= b;
//! dst = r0`), so the emitted stream is rich in copy chains the verifier
//! charges a step each for. This pass coalesces those shapes, removes
//! no-op ALU identities, threads branches whose target is an
//! unconditional jump, and drops jumps to the next instruction.

use crate::bytecode::{AluOp, BytecodeProgram, DebugTable, Insn};
use crate::flow::jump_target;
use crate::opt::analysis::liveness;
use crate::opt::edit::Editor;

pub(crate) fn run(
    prog: &BytecodeProgram,
    debug: &DebugTable,
) -> (BytecodeProgram, DebugTable, u64) {
    let mut ed = Editor::new(prog, debug);
    let code = &prog.code;
    let n = code.len();
    let live = liveness(code);

    let mut leader = vec![false; n];
    for (pc, insn) in code.iter().enumerate() {
        if let Some(t) = jump_target(pc, insn) {
            if t < n {
                leader[t] = true;
            }
        }
    }

    // Jump threading: a branch whose target is an unconditional jump goes
    // straight to the final destination (bounded to guard against cycles).
    for pc in 0..n {
        let Some(mut t) = jump_target(pc, &code[pc]) else {
            continue;
        };
        let mut hops = 0;
        while hops < 8 && t < n {
            let Insn::Ja { .. } = code[t] else { break };
            let Some(next) = jump_target(t, &code[t]) else {
                break;
            };
            if next == t {
                break;
            }
            t = next;
            hops += 1;
        }
        if hops > 0 && Some(t) != jump_target(pc, &code[pc]) {
            ed.retarget(pc, t);
        }
    }

    // All fusion patterns below match on the *original* instructions, so a
    // position that one rewrite already changed must not serve as a
    // constituent of a later pattern (the original text would be stale).
    let mut modified = vec![false; n];

    let mut pc = 0;
    while pc < n {
        let insn = code[pc];
        // Branches to the next instruction are no-ops either way.
        if let Some(t) = jump_target(pc, &insn) {
            if t == pc + 1 && ed.target(pc) == Some(t) {
                ed.delete(pc);
                modified[pc] = true;
                pc += 1;
                continue;
            }
        }
        match insn {
            Insn::Mov { dst, src } if dst == src => {
                ed.delete(pc);
                modified[pc] = true;
            }
            Insn::AluImm { op, dst, imm } => match (op, imm) {
                (AluOp::Add | AluOp::Sub | AluOp::Or | AluOp::Xor, 0)
                | (AluOp::Mul | AluOp::Div, 1) => {
                    ed.delete(pc);
                    modified[pc] = true;
                }
                (AluOp::Mul | AluOp::And, 0) | (AluOp::Rem, 1) => {
                    ed.set(pc, Insn::MovImm { dst, imm: 0 });
                    modified[pc] = true;
                }
                _ => {}
            },
            // `A = <producer>; D = A` with A dead after: produce into D.
            Insn::Mov { dst: d, src: a } if pc > 0 => {
                let prev = pc - 1;
                if !ed.is_deleted(prev)
                    && !modified[prev]
                    && !modified[pc]
                    && !leader[pc]
                    && !live.live_out[pc].has_reg(a)
                    && d != a
                {
                    match code[prev] {
                        Insn::MovImm { dst, imm } if dst == a => {
                            ed.delete(prev);
                            ed.set(pc, Insn::MovImm { dst: d, imm });
                            modified[prev] = true;
                            modified[pc] = true;
                        }
                        Insn::Mov { dst, src } if dst == a && src != a && src != d => {
                            ed.delete(prev);
                            ed.set(pc, Insn::Mov { dst: d, src });
                            modified[prev] = true;
                            modified[pc] = true;
                        }
                        Insn::Ld { dst, slot } if dst == a => {
                            ed.delete(prev);
                            ed.set(pc, Insn::Ld { dst: d, slot });
                            modified[prev] = true;
                            modified[pc] = true;
                        }
                        _ => {}
                    }
                }
            }
            // `A = B; St slot, A` with A dead after: store B directly.
            Insn::St { slot, src: a } if pc > 0 => {
                let prev = pc - 1;
                if !ed.is_deleted(prev)
                    && !modified[prev]
                    && !modified[pc]
                    && !leader[pc]
                    && !live.live_out[pc].has_reg(a)
                {
                    if let Insn::Mov { dst, src } = code[prev] {
                        if dst == a && src != a {
                            ed.delete(prev);
                            ed.set(pc, Insn::St { slot, src });
                            modified[prev] = true;
                            modified[pc] = true;
                        }
                    }
                }
            }
            _ => {}
        }
        pc += 1;
    }

    // Three-instruction ALU coalescing: `A = B; A op= x; D = A` with A
    // dead after becomes `D = B; D op= x`.
    let mut i = 0;
    while i + 2 < n {
        let (p0, p1, p2) = (i, i + 1, i + 2);
        if ed.is_deleted(p0)
            || ed.is_deleted(p1)
            || ed.is_deleted(p2)
            || modified[p0]
            || modified[p1]
            || modified[p2]
            || leader[p1]
            || leader[p2]
        {
            i += 1;
            continue;
        }
        let Insn::Mov { dst: a0, src: b } = code[p0] else {
            i += 1;
            continue;
        };
        let Insn::Mov { dst: d, src: a2 } = code[p2] else {
            i += 1;
            continue;
        };
        if a0 != a2 || a0 == b || d == a0 || live.live_out[p2].has_reg(a0) {
            i += 1;
            continue;
        }
        match code[p1] {
            Insn::AluImm { op, dst, imm } if dst == a0 => {
                ed.set(p0, Insn::Mov { dst: d, src: b });
                ed.set(p1, Insn::AluImm { op, dst: d, imm });
                ed.delete(p2);
                modified[p0] = true;
                modified[p1] = true;
                modified[p2] = true;
                i += 3;
            }
            Insn::Alu { op, dst, src } if dst == a0 && src != a0 && src != d && d != b => {
                ed.set(p0, Insn::Mov { dst: d, src: b });
                ed.set(p1, Insn::Alu { op, dst: d, src });
                ed.delete(p2);
                modified[p0] = true;
                modified[p1] = true;
                modified[p2] = true;
                i += 3;
            }
            Insn::Neg { dst } if dst == a0 => {
                ed.set(p0, Insn::Mov { dst: d, src: b });
                ed.set(p1, Insn::Neg { dst: d });
                ed.delete(p2);
                modified[p0] = true;
                modified[p1] = true;
                modified[p2] = true;
                i += 3;
            }
            _ => {
                i += 1;
            }
        }
    }

    let changes = ed.changes();
    if changes == 0 {
        return (prog.clone(), debug.clone(), 0);
    }
    let (p, d) = ed.finish();
    (p, d, changes)
}
