//! Position-stable bytecode editing.
//!
//! Every pass rewrites the instruction stream through an [`Editor`]:
//! branch offsets are decoded to absolute targets up front, edits are
//! expressed as in-place replacements, deletions, and block insertions,
//! and [`Editor::finish`] re-linearizes the program — recomputing every
//! relative offset and keeping the [`DebugTable`] span side table aligned
//! so diagnostics on the optimized image still point at real source.

use crate::bytecode::{BytecodeProgram, DebugTable, Insn};
use crate::error::Pos;
use crate::flow::jump_target;

/// An instruction queued for insertion before some existing pc.
pub(crate) struct NewInsn {
    /// The instruction (branch offsets ignored; none of the passes insert
    /// branches today).
    pub insn: Insn,
    /// Source span carried into the debug table.
    pub span: Pos,
}

struct Insertion {
    at: usize,
    items: Vec<NewInsn>,
    /// Branch sources inside `[interior.0, interior.1]` that target `at`
    /// keep targeting the original instruction (loop back edges); all
    /// other branches to `at` are redirected to the inserted block.
    interior: Option<(usize, usize)>,
}

/// A batch editor over one bytecode image.
pub(crate) struct Editor {
    code: Vec<Insn>,
    spans: Vec<Pos>,
    /// Absolute jump target per pc (`Some` for `Ja`/`Jmp`/`JmpImm`).
    targets: Vec<Option<usize>>,
    keep: Vec<bool>,
    insertions: Vec<Insertion>,
    stack_slots: u16,
    changes: u64,
}

impl Editor {
    pub(crate) fn new(prog: &BytecodeProgram, debug: &DebugTable) -> Editor {
        let n = prog.code.len();
        let mut spans = debug.spans.clone();
        spans.resize(n, Pos { line: 0, col: 0 });
        let targets = prog
            .code
            .iter()
            .enumerate()
            .map(|(pc, insn)| jump_target(pc, insn))
            .collect();
        Editor {
            code: prog.code.clone(),
            spans,
            targets,
            keep: vec![true; n],
            insertions: Vec::new(),
            stack_slots: prog.stack_slots,
            changes: 0,
        }
    }

    pub(crate) fn target(&self, pc: usize) -> Option<usize> {
        self.targets[pc]
    }

    pub(crate) fn changes(&self) -> u64 {
        self.changes
    }

    /// Replaces the instruction at `pc` with a non-branching instruction.
    pub(crate) fn set(&mut self, pc: usize, insn: Insn) {
        debug_assert!(jump_target(pc, &insn).is_none() || matches!(insn, Insn::Ja { .. }));
        self.code[pc] = insn;
        self.targets[pc] = None;
        self.changes += 1;
    }

    /// Replaces the instruction at `pc` with a branch to absolute `target`.
    pub(crate) fn set_branch(&mut self, pc: usize, insn: Insn, target: usize) {
        self.code[pc] = insn;
        self.targets[pc] = Some(target);
        self.changes += 1;
    }

    /// Retargets the existing branch at `pc`.
    pub(crate) fn retarget(&mut self, pc: usize, target: usize) {
        debug_assert!(self.targets[pc].is_some());
        self.targets[pc] = Some(target);
        self.changes += 1;
    }

    /// Marks `pc` for deletion; branches into it land on the next kept
    /// instruction, so only semantic no-ops may be deleted.
    pub(crate) fn delete(&mut self, pc: usize) {
        if self.keep[pc] {
            self.keep[pc] = false;
            self.changes += 1;
        }
    }

    /// Queues `items` for insertion immediately before `at`. Branches from
    /// sources within `interior` that target `at` keep pointing at the
    /// original instruction (the loop-back-edge case); every other entry
    /// into `at` flows through the inserted block first.
    pub(crate) fn insert_before(
        &mut self,
        at: usize,
        items: Vec<NewInsn>,
        interior: Option<(usize, usize)>,
    ) {
        self.changes += items.len() as u64;
        self.insertions.push(Insertion {
            at,
            items,
            interior,
        });
    }

    /// Re-linearizes into a fresh program + debug table.
    pub(crate) fn finish(self) -> (BytecodeProgram, DebugTable) {
        let n = self.code.len();
        let mut new_code: Vec<Insn> = Vec::with_capacity(n);
        let mut new_spans: Vec<Pos> = Vec::with_capacity(n);
        // (source old pc or usize::MAX for inserted, absolute old target)
        let mut pending: Vec<(usize, Option<usize>)> = Vec::with_capacity(n);
        let mut newpos = vec![usize::MAX; n + 1];
        let mut insert_start = vec![usize::MAX; n + 1];

        for pc in 0..n {
            for ins in self.insertions.iter().filter(|i| i.at == pc) {
                if insert_start[pc] == usize::MAX {
                    insert_start[pc] = new_code.len();
                }
                for item in &ins.items {
                    new_code.push(item.insn);
                    new_spans.push(item.span);
                    pending.push((usize::MAX, None));
                }
            }
            if self.keep[pc] {
                newpos[pc] = new_code.len();
                new_code.push(self.code[pc]);
                new_spans.push(self.spans[pc]);
                pending.push((pc, self.targets[pc]));
            }
        }
        newpos[n] = new_code.len();

        // Landing pad per old pc: its own new position, or the next kept
        // instruction's (deleted instructions are semantic no-ops).
        let mut land = vec![new_code.len(); n + 1];
        for pc in (0..n).rev() {
            land[pc] = if self.keep[pc] {
                newpos[pc]
            } else {
                land[pc + 1]
            };
        }

        for (new_pc, (old_pc, target)) in pending.iter().enumerate() {
            let Some(t) = *target else { continue };
            let redirected = self
                .insertions
                .iter()
                .find(|i| i.at == t && insert_start[t] != usize::MAX)
                .is_some_and(|i| match i.interior {
                    Some((lo, hi)) => *old_pc == usize::MAX || *old_pc < lo || *old_pc > hi,
                    None => true,
                });
            let new_t = if redirected { insert_start[t] } else { land[t] };
            let off = i32::try_from(new_t as i64 - new_pc as i64 - 1)
                .expect("optimized jump offset fits i32");
            match &mut new_code[new_pc] {
                Insn::Ja { off: o } => *o = off,
                Insn::Jmp { off: o, .. } => *o = off,
                Insn::JmpImm { off: o, .. } => *o = off,
                other => unreachable!("target recorded for non-branch {other:?}"),
            }
        }

        (
            BytecodeProgram {
                code: new_code,
                stack_slots: self.stack_slots,
            },
            DebugTable { spans: new_spans },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::Cond;

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

    #[test]
    fn delete_remaps_branches_to_next_kept() {
        let (p, d) = prog(vec![
            Insn::JmpImm {
                cond: Cond::Eq,
                lhs: 6,
                imm: 0,
                off: 2,
            }, // -> pc 3
            Insn::MovImm { dst: 6, imm: 1 },
            Insn::MovImm { dst: 7, imm: 2 },
            Insn::MovImm { dst: 8, imm: 3 },
            Insn::Exit,
        ]);
        let mut ed = Editor::new(&p, &d);
        ed.delete(3); // branch target becomes the Exit
        ed.delete(1);
        let (np, nd) = ed.finish();
        assert_eq!(np.code.len(), 3);
        assert_eq!(
            np.code[0],
            Insn::JmpImm {
                cond: Cond::Eq,
                lhs: 6,
                imm: 0,
                off: 1,
            }
        );
        assert_eq!(np.code[2], Insn::Exit);
        // Spans follow the surviving instructions.
        assert_eq!(nd.spans[1], Pos { line: 3, col: 1 });
    }

    #[test]
    fn insert_before_respects_interior_back_edges() {
        let (p, d) = prog(vec![
            Insn::MovImm { dst: 6, imm: 0 },
            // loop head (pc 1): exit test
            Insn::JmpImm {
                cond: Cond::Ge,
                lhs: 6,
                imm: 2,
                off: 2,
            }, // -> pc 4
            Insn::AluImm {
                op: crate::bytecode::AluOp::Add,
                dst: 6,
                imm: 1,
            },
            Insn::Ja { off: -3 }, // back edge -> pc 1
            Insn::Exit,
        ]);
        let mut ed = Editor::new(&p, &d);
        ed.insert_before(
            1,
            vec![NewInsn {
                insn: Insn::MovImm { dst: 7, imm: 9 },
                span: Pos { line: 9, col: 9 },
            }],
            Some((1, 3)),
        );
        let (np, _) = ed.finish();
        assert_eq!(np.code[1], Insn::MovImm { dst: 7, imm: 9 });
        // Back edge still targets the original head (now pc 2), skipping
        // the preheader.
        assert_eq!(np.code[4], Insn::Ja { off: -3 });
        // Exit test offset now reaches Exit at pc 5.
        assert_eq!(jump_target(2, &np.code[2]), Some(5));
    }
}
