//! Loop-invariant hoisting out of counted FOREACH loops.
//!
//! The codegen re-materializes every constant operand of a filter or
//! MIN/MAX predicate *inside* the loop body — either as a `MovImm` into
//! an allocatable register or, under spill pressure, as a
//! `MovImm r8, c; St slot, r8` pair per iteration through a scratch
//! register. This pass hoists those
//! into a preheader inserted in front of the loop head, guarded by
//! dominance and liveness conditions so the hoisted definition is
//! observationally identical on every path (including the zero-trip
//! path). The loop body interval itself is left shape-intact so the
//! dataflow verifier's counted-loop recognition — and hence the certified
//! step bound — still applies to the optimized image. Whether a hoist
//! pays off under the step-bound model is the pipeline's call: it drops,
//! without a rollback, a hoist that raises the bound.

use crate::bytecode::{is_allocatable, BytecodeProgram, DebugTable, Insn};
use crate::flow::{jump_target, loops, reads, successors, writes};
use crate::opt::analysis::{dominators, liveness, reachable};
use crate::opt::edit::{Editor, NewInsn};

pub(crate) fn run(
    prog: &BytecodeProgram,
    debug: &DebugTable,
) -> (BytecodeProgram, DebugTable, u64) {
    let mut ed = Editor::new(prog, debug);
    let code = &prog.code;
    let n = code.len();
    let reach = reachable(code);
    let live = liveness(code);
    let dom = dominators(code);
    // Hoist innermost-first so a definition is only hoisted once per run.
    let mut hoisted = vec![false; n];
    let mut order: Vec<_> = loops(code).into_iter().filter(|l| reach[l.back]).collect();
    order.sort_by_key(|l| l.back - l.head);

    for lp in &order {
        if lp.head == 0 || lp.back >= n {
            continue;
        }
        // Exit targets: successors of body instructions outside the body.
        let mut exits: Vec<usize> = Vec::new();
        for (pc, &reachable_pc) in reach.iter().enumerate().take(lp.back + 1).skip(lp.head) {
            if !reachable_pc {
                continue;
            }
            for s in successors(code, pc) {
                if (s < lp.head || s > lp.back) && !exits.contains(&s) {
                    exits.push(s);
                }
            }
        }
        let body = lp.head..=lp.back;
        let reg_clear = |r: u8, def: &[usize]| -> bool {
            // `r` has no definition in the body besides `def`, is dead at
            // the loop head and every exit, and (for the defined register)
            // every body read is dominated by the definition.
            if live.live_in[lp.head].has_reg(r) {
                return false;
            }
            if exits.iter().any(|e| *e < n && live.live_in[*e].has_reg(r)) {
                return false;
            }
            for pc in body.clone() {
                if def.contains(&pc) || !reach[pc] {
                    continue;
                }
                if writes(&code[pc]).has_reg(r) {
                    return false;
                }
            }
            true
        };

        let mut items: Vec<NewInsn> = Vec::new();
        for pc in lp.head..=lp.back {
            if !reach[pc] || hoisted[pc] {
                continue;
            }
            match code[pc] {
                // MovImm into an allocatable home register.
                Insn::MovImm { dst, imm: _ } if is_allocatable(dst) => {
                    if !reg_clear(dst, &[pc]) {
                        continue;
                    }
                    let uses_dominated = body.clone().all(|u| {
                        !reach[u]
                            || u == pc
                            || !reads(&code[u]).has_reg(dst)
                            || dom.dominates(pc, u)
                    });
                    if !uses_dominated || !dom.dominates(pc, lp.back) {
                        continue;
                    }
                    hoisted[pc] = true;
                    ed.delete(pc);
                    items.push(NewInsn {
                        insn: code[pc],
                        span: debug.pos(pc),
                    });
                }
                // Spilled constant: MovImm scratch + St slot pair.
                Insn::MovImm { dst, imm: _ } => {
                    let st = pc + 1;
                    if st > lp.back || hoisted[st] {
                        continue;
                    }
                    let Insn::St { slot, src } = code[st] else {
                        continue;
                    };
                    if src != dst || usize::from(slot) >= 64 {
                        continue;
                    }
                    // The scratch value must feed only the store, and the
                    // preheader's clobber of the scratch register must be
                    // unobservable at loop entry. Other in-body writes to
                    // the scratch register are fine — they have their own
                    // local uses.
                    if live.live_out[st].has_reg(dst) || live.live_in[lp.head].has_reg(dst) {
                        continue;
                    }
                    // `st` must be the fallthrough of `pc` (no leader between).
                    if jump_target(pc, &code[pc]).is_some()
                        || code
                            .iter()
                            .enumerate()
                            .any(|(b, i)| jump_target(b, i) == Some(st) && reach[b])
                    {
                        continue;
                    }
                    // Slot conditions mirror the register ones.
                    if live.live_in[lp.head].has_slot(slot)
                        || exits
                            .iter()
                            .any(|e| *e < n && live.live_in[*e].has_slot(slot))
                    {
                        continue;
                    }
                    let slot_clear = body
                        .clone()
                        .all(|u| u == st || !reach[u] || !writes(&code[u]).has_slot(slot));
                    let loads_dominated = body.clone().all(|u| {
                        !reach[u] || !reads(&code[u]).has_slot(slot) || dom.dominates(st, u)
                    });
                    if !slot_clear || !loads_dominated || !dom.dominates(st, lp.back) {
                        continue;
                    }
                    hoisted[pc] = true;
                    hoisted[st] = true;
                    ed.delete(pc);
                    ed.delete(st);
                    items.push(NewInsn {
                        insn: code[pc],
                        span: debug.pos(pc),
                    });
                    items.push(NewInsn {
                        insn: code[st],
                        span: debug.pos(st),
                    });
                }
                _ => {}
            }
        }
        if !items.is_empty() {
            ed.insert_before(lp.head, items, Some((lp.head, lp.back)));
        }
    }

    let changes = ed.changes();
    if changes == 0 {
        return (prog.clone(), debug.clone(), 0);
    }
    let (p, d) = ed.finish();
    (p, d, changes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{AluOp, Cond};
    use crate::error::Pos;

    fn prog(code: Vec<Insn>) -> (BytecodeProgram, DebugTable) {
        let spans = (0..code.len())
            .map(|i| Pos {
                line: i as u32 + 1,
                col: 1,
            })
            .collect();
        (
            BytecodeProgram {
                code,
                stack_slots: 0,
            },
            DebugTable { spans },
        )
    }

    /// Bottom-test loop: every body instruction sits on the model's
    /// longest path, so hoisting the invariant `MovImm` lowers the bound
    /// and the profitability gate keeps the rewrite.
    #[test]
    fn hoists_invariant_out_of_bottom_test_loop() {
        let (p, d) = prog(vec![
            Insn::MovImm { dst: 6, imm: 0 },
            Insn::MovImm { dst: 9, imm: 3 },
            // loop head (pc 2): invariant definition, re-executed per trip
            Insn::MovImm { dst: 7, imm: 7 },
            Insn::AluImm {
                op: AluOp::Add,
                dst: 6,
                imm: 1,
            },
            Insn::Jmp {
                cond: Cond::Lt,
                lhs: 6,
                rhs: 9,
                off: -3,
            }, // back edge -> pc 2
            Insn::Exit,
        ]);
        let (np, _, rewrites) = run(&p, &d);
        assert!(rewrites > 0, "invariant MovImm should hoist");
        // The invariant lands in a preheader; the back edge now targets
        // the increment, skipping it.
        assert_eq!(np.code[2], Insn::MovImm { dst: 7, imm: 7 });
        assert!(matches!(np.code[3], Insn::AluImm { .. }));
        assert_eq!(
            jump_target(4, &np.code[4]),
            Some(3),
            "back edge must re-enter at the loop body, not the preheader"
        );
    }

    /// A definition of a register live into the loop head must stay put.
    #[test]
    fn does_not_hoist_when_register_is_live_at_head() {
        let (p, d) = prog(vec![
            Insn::MovImm { dst: 7, imm: 1 },
            Insn::MovImm { dst: 6, imm: 0 },
            // loop head (pc 2): r7 is read before being redefined, so the
            // body definition is NOT loop-invariant in effect.
            Insn::Alu {
                op: AluOp::Add,
                dst: 6,
                src: 7,
            },
            Insn::MovImm { dst: 7, imm: 7 },
            Insn::AluImm {
                op: AluOp::Add,
                dst: 6,
                imm: 1,
            },
            Insn::JmpImm {
                cond: Cond::Lt,
                lhs: 6,
                imm: 9,
                off: -4,
            }, // back edge -> pc 2
            Insn::Exit,
        ]);
        let (np, _, rewrites) = run(&p, &d);
        assert_eq!(rewrites, 0, "r7 is live at the head; no hoist");
        assert_eq!(np.code, p.code);
    }
}
