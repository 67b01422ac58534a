//! Jump threading and peephole cleanup.
//!
//! Threads branches whose target is an unconditional jump, drops jumps to
//! the next instruction and self-moves, and removes no-op ALU identities
//! (what constant folding and the other passes leave behind).

use crate::bytecode::{AluOp, BytecodeProgram, DebugTable, Insn};
use crate::flow::jump_target;
use crate::opt::edit::Editor;

pub(crate) fn run(
    prog: &BytecodeProgram,
    debug: &DebugTable,
) -> (BytecodeProgram, DebugTable, u64) {
    let mut ed = Editor::new(prog, debug);
    let code = &prog.code;
    let n = code.len();

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

    for (pc, &insn) in code.iter().enumerate() {
        // Branches to the next instruction are no-ops either way.
        if jump_target(pc, &insn).is_some_and(|t| t == pc + 1 && ed.target(pc) == Some(t)) {
            ed.delete(pc);
            continue;
        }
        match insn {
            Insn::Mov { dst, src } if dst == src => ed.delete(pc),
            Insn::AluImm { op, dst, imm } => match (op, imm) {
                (AluOp::Add | AluOp::Sub | AluOp::Or | AluOp::Xor, 0)
                | (AluOp::Mul | AluOp::Div, 1) => ed.delete(pc),
                (AluOp::Mul | AluOp::And, 0) | (AluOp::Rem, 1) => {
                    ed.set(pc, Insn::MovImm { dst, imm: 0 })
                }
                _ => {}
            },
            _ => {}
        }
    }

    let changes = ed.changes();
    if changes == 0 {
        return (prog.clone(), debug.clone(), 0);
    }
    let (p, d) = ed.finish();
    (p, d, changes)
}
