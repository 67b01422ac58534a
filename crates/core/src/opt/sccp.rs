//! Sparse conditional constant propagation + constant-guard elimination.
//!
//! Consumes the forward interval facts ([`super::analysis::facts`]) the
//! same way the admission verifier does, but to *rewrite* instead of
//! reject: ALU ops whose operands are proven exact fold to `MovImm`,
//! register operands proven constant fold into immediates, and guards the
//! interval domain proves always/never taken become unconditional jumps
//! or disappear. Dead fallthrough/branch code left behind is swept by the
//! dead-code pass.

use crate::bytecode::{BytecodeProgram, DebugTable, Insn};
use crate::flow::slot_loc;
use crate::opt::analysis::facts;
use crate::opt::edit::Editor;
use crate::verify::domain::{eval_cond, Interval, Tri};

pub(crate) fn run(
    prog: &BytecodeProgram,
    debug: &DebugTable,
) -> (BytecodeProgram, DebugTable, u64) {
    let Some(f) = facts(&prog.code, prog.stack_slots) else {
        return (prog.clone(), debug.clone(), 0);
    };
    let mut ed = Editor::new(prog, debug);

    for pc in 0..prog.code.len() {
        let Some(state) = f.before(pc) else { continue };
        let exact = |r: u8| state[usize::from(r)].as_exact();
        match prog.code[pc] {
            Insn::Mov { dst, src } => {
                if let Some(v) = exact(src) {
                    ed.set(pc, Insn::MovImm { dst, imm: v });
                }
            }
            Insn::Alu { op, dst, src } => match (exact(dst), exact(src)) {
                (Some(a), Some(b)) => ed.set(
                    pc,
                    Insn::MovImm {
                        dst,
                        imm: op.eval(a, b),
                    },
                ),
                (None, Some(b)) => ed.set(pc, Insn::AluImm { op, dst, imm: b }),
                _ => {}
            },
            Insn::AluImm { op, dst, imm } => {
                if let Some(a) = exact(dst) {
                    ed.set(
                        pc,
                        Insn::MovImm {
                            dst,
                            imm: op.eval(a, imm),
                        },
                    );
                }
            }
            Insn::Neg { dst } => {
                if let Some(a) = exact(dst) {
                    ed.set(
                        pc,
                        Insn::MovImm {
                            dst,
                            imm: a.wrapping_neg(),
                        },
                    );
                }
            }
            Insn::Ld { dst, slot } => {
                if let Some(v) = state.get(slot_loc(slot)).and_then(|iv| iv.as_exact()) {
                    ed.set(pc, Insn::MovImm { dst, imm: v });
                }
            }
            Insn::Jmp { cond, lhs, rhs, .. } => {
                let a = state[usize::from(lhs)];
                let b = state[usize::from(rhs)];
                fold_guard(&mut ed, pc, eval_cond(cond, a, b));
            }
            Insn::JmpImm { cond, lhs, imm, .. } => {
                let a = state[usize::from(lhs)];
                fold_guard(&mut ed, pc, eval_cond(cond, a, Interval::exact(imm)));
            }
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

/// Rewrites the guard at `pc` when its outcome is proven.
fn fold_guard(ed: &mut Editor, pc: usize, tri: Tri) {
    match tri {
        Tri::True => {
            let target = ed.target(pc).expect("conditional branch has a target");
            if target == pc + 1 {
                ed.delete(pc);
            } else {
                ed.set_branch(pc, Insn::Ja { off: 0 }, target);
            }
        }
        Tri::False => ed.delete(pc),
        Tri::Unknown => {}
    }
}
