//! The bytecode flow kernel: the one place the crate decodes control flow
//! and register/slot effects out of an [`Insn`] stream, and the one
//! forward worklist solver every bytecode dataflow analysis runs on.
//!
//! The dataflow verifier ([`crate::verify::vm`]) and the optimizer's
//! analyses ([`crate::opt`]) are instances of [`Domain`]: each supplies a
//! lattice (entry state, per-instruction transfer, join with widening)
//! and [`solve`] owns iteration order, the widening trigger, and the
//! convergence guard.

use std::collections::VecDeque;

use crate::bytecode::Insn;

/// Joins at one program point beyond which a [`Domain`] is asked to widen.
pub(crate) const WIDEN_AFTER: u32 = 8;

/// Absolute target of the (conditional or not) jump `insn` at `pc`, using
/// the eBPF convention that offsets are relative to the next instruction.
pub(crate) fn jump_target(pc: usize, insn: &Insn) -> Option<usize> {
    let off = match insn {
        Insn::Ja { off } | Insn::Jmp { off, .. } | Insn::JmpImm { off, .. } => *off,
        _ => return None,
    };
    usize::try_from(pc as i64 + 1 + i64::from(off)).ok()
}

/// CFG successors of `pc` (fallthrough first, then branch target).
pub(crate) fn successors(code: &[Insn], pc: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(2);
    match &code[pc] {
        Insn::Exit => {}
        insn @ Insn::Ja { .. } => out.extend(jump_target(pc, insn)),
        insn @ (Insn::Jmp { .. } | Insn::JmpImm { .. }) => {
            out.push(pc + 1);
            out.extend(jump_target(pc, insn).filter(|t| *t != pc + 1));
        }
        _ => out.push(pc + 1),
    }
    out.retain(|t| *t < code.len());
    out
}

/// A set of machine registers plus stack slots (slots fit one `u64`
/// because [`crate::bytecode::MAX_STACK_SLOTS`] is 64).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct LiveSet {
    pub regs: u16,
    pub slots: u64,
}

impl LiveSet {
    pub fn has_reg(self, r: u8) -> bool {
        self.regs & (1 << r) != 0
    }

    pub fn has_slot(self, s: u16) -> bool {
        self.slots & (1 << s) != 0
    }

    pub fn union(self, other: LiveSet) -> LiveSet {
        LiveSet {
            regs: self.regs | other.regs,
            slots: self.slots | other.slots,
        }
    }
}

/// Registers `insn` reads, in operand order (helper calls read their
/// argument registers `r1..`).
pub(crate) fn read_regs(insn: &Insn) -> impl Iterator<Item = u8> {
    let (operands, args) = match insn {
        Insn::MovImm { .. } | Insn::Ja { .. } | Insn::Ld { .. } | Insn::Exit => ([None, None], 0),
        Insn::Mov { src, .. } | Insn::St { src, .. } => ([Some(*src), None], 0),
        Insn::Alu { dst, src, .. } => ([Some(*dst), Some(*src)], 0),
        Insn::AluImm { dst, .. } | Insn::Neg { dst } => ([Some(*dst), None], 0),
        Insn::Jmp { lhs, rhs, .. } => ([Some(*lhs), Some(*rhs)], 0),
        Insn::JmpImm { lhs, .. } => ([Some(*lhs), None], 0),
        Insn::Call { helper } => ([None, None], helper.arg_count() as u8),
    };
    operands.into_iter().flatten().chain(1..=args)
}

/// Registers/slots read by `insn`.
pub(crate) fn reads(insn: &Insn) -> LiveSet {
    let mut s = LiveSet::default();
    for r in read_regs(insn) {
        s.regs |= 1 << r;
    }
    if let Insn::Ld { slot, .. } = insn {
        s.slots = 1 << slot;
    }
    s
}

/// Registers/slots written by `insn` (helper calls clobber `r0`..`r5`).
pub(crate) fn writes(insn: &Insn) -> LiveSet {
    let mut s = LiveSet::default();
    match insn {
        Insn::MovImm { dst, .. }
        | Insn::Mov { dst, .. }
        | Insn::Alu { dst, .. }
        | Insn::AluImm { dst, .. }
        | Insn::Neg { dst }
        | Insn::Ld { dst, .. } => s.regs = 1 << dst,
        Insn::Call { .. } => s.regs = 0b11_1111,
        Insn::St { slot, .. } => s.slots = 1 << slot,
        Insn::Ja { .. } | Insn::Jmp { .. } | Insn::JmpImm { .. } | Insn::Exit => {}
    }
    s
}

/// Basic-block leaders: entry, every branch target, and the instruction
/// after every branch or exit.
pub(crate) fn leaders(code: &[Insn]) -> Vec<bool> {
    let n = code.len();
    let mut leader = vec![false; n];
    if n > 0 {
        leader[0] = true;
    }
    for (pc, insn) in code.iter().enumerate() {
        let target = jump_target(pc, insn);
        if let Some(t) = target.filter(|t| *t < n) {
            leader[t] = true;
        }
        if (target.is_some() || matches!(insn, Insn::Exit)) && pc + 1 < n {
            leader[pc + 1] = true;
        }
    }
    leader
}

/// A loop discovered from a back edge: `head..=back` inclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Loop {
    pub head: usize,
    pub back: usize,
}

/// All loops, one per back edge (a branch whose target does not lie
/// forward), in back-edge order. Matches the codegen's loop shapes, where
/// the body is the contiguous interval `[head, back]`. Reachability is
/// the caller's concern.
pub(crate) fn loops(code: &[Insn]) -> Vec<Loop> {
    code.iter()
        .enumerate()
        .filter_map(|(pc, insn)| {
            let head = jump_target(pc, insn).filter(|t| *t <= pc)?;
            Some(Loop { head, back: pc })
        })
        .collect()
}

/// Pointwise `at[i] = merge(at[i], incoming[i])`; true when any element
/// changed. The join step of every register/slot-file lattice.
pub(crate) fn merge_into<T: Copy + PartialEq>(
    at: &mut [T],
    incoming: &[T],
    merge: impl Fn(T, T) -> T,
) -> bool {
    let mut changed = false;
    for (a, b) in at.iter_mut().zip(incoming) {
        let merged = merge(*a, *b);
        changed |= merged != *a;
        *a = merged;
    }
    changed
}

/// One forward dataflow problem over an instruction stream.
pub(crate) trait Domain {
    /// Abstract state *before* one instruction.
    type State;

    /// State before pc 0.
    fn entry(&self) -> Self::State;

    /// Abstract successors of `pc` executed under `state`: each feasible
    /// edge with the state flowing along it. May record findings.
    fn transfer(&mut self, pc: usize, state: &Self::State) -> Vec<(usize, Self::State)>;

    /// Joins `incoming` into `at` (widening when `widen`); true when `at`
    /// changed.
    fn join(&self, at: &mut Self::State, incoming: &Self::State, widen: bool) -> bool;
}

/// Result of [`solve`].
pub(crate) struct Solution<S> {
    /// State before each pc; `None` = no feasible path reaches it.
    pub before: Vec<Option<S>>,
    /// The pc being processed when the convergence guard tripped; the
    /// states are then a partial, unsound under-approximation.
    pub diverged_at: Option<usize>,
}

/// Solves `domain` over an `n`-instruction stream to a fixpoint.
///
/// Iteration order is first-in first-out from pc 0: a successor is
/// (re)queued whenever its state is created or changed by a join. Every
/// join into an already-visited pc counts towards that pc's
/// [`WIDEN_AFTER`] budget, whether or not it changed the state. The walk
/// gives up after `(n + 1) * 1024` steps — far above any real fixpoint of
/// a monotone domain with widening, so tripping it means a broken domain.
pub(crate) fn solve<D: Domain>(domain: &mut D, n: usize) -> Solution<D::State> {
    let mut solution = Solution {
        before: (0..n).map(|_| None).collect(),
        diverged_at: None,
    };
    if n == 0 {
        return solution;
    }
    let before = &mut solution.before;
    before[0] = Some(domain.entry());
    let mut joins = vec![0u32; n];
    let mut work = VecDeque::from([0usize]);
    let mut budget = (n + 1).saturating_mul(1024);
    while let Some(pc) = work.pop_front() {
        if budget == 0 {
            solution.diverged_at = Some(pc);
            break;
        }
        budget -= 1;
        let state = before[pc].as_ref().expect("queued pcs have a state");
        for (succ, incoming) in domain.transfer(pc, state) {
            match before.get_mut(succ) {
                // Out of range: structural verification rules this out.
                None => {}
                Some(slot @ None) => {
                    *slot = Some(incoming);
                    work.push_back(succ);
                }
                Some(Some(at)) => {
                    joins[succ] += 1;
                    if domain.join(at, &incoming, joins[succ] > WIDEN_AFTER) {
                        work.push_back(succ);
                    }
                }
            }
        }
    }
    solution
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{AluOp, Cond};

    /// Toy domain: the possible values of the one register as an
    /// inclusive range, every conditional branch taken both ways. `flip`
    /// replaces the join by one that oscillates forever.
    struct Toy<'a> {
        code: &'a [Insn],
        flip: bool,
    }

    impl Domain for Toy<'_> {
        type State = (i64, i64);

        fn entry(&self) -> (i64, i64) {
            (0, 0)
        }

        fn transfer(&mut self, pc: usize, state: &(i64, i64)) -> Vec<(usize, (i64, i64))> {
            let next = match self.code[pc] {
                Insn::MovImm { imm, .. } => (imm, imm),
                Insn::AluImm { imm, .. } => (state.0 + imm, state.1.saturating_add(imm)),
                _ => *state,
            };
            successors(self.code, pc)
                .into_iter()
                .map(|s| (s, next))
                .collect()
        }

        fn join(&self, at: &mut (i64, i64), incoming: &(i64, i64), widen: bool) -> bool {
            let old = *at;
            if self.flip {
                // Not a join at all: the state never stabilises.
                at.0 = if at.0 == 0 { 1 } else { 0 };
                return true;
            }
            *at = (at.0.min(incoming.0), at.1.max(incoming.1));
            if widen && at.1 > old.1 {
                at.1 = i64::MAX;
            }
            *at != old
        }
    }

    fn branch(off: i32) -> Insn {
        Insn::JmpImm {
            cond: Cond::Eq,
            lhs: 6,
            imm: 0,
            off,
        }
    }

    fn bump(imm: i64) -> Insn {
        Insn::AluImm {
            op: AluOp::Add,
            dst: 6,
            imm,
        }
    }

    #[test]
    fn diamond_joins_both_arms_at_the_merge() {
        let code = [
            branch(2),                       // 0 -> 1 | 3
            Insn::MovImm { dst: 6, imm: 5 }, // 1
            Insn::Ja { off: 1 },             // 2 -> 4
            Insn::MovImm { dst: 6, imm: 9 }, // 3
            Insn::Exit,                      // 4
        ];
        let s = solve(
            &mut Toy {
                code: &code,
                flip: false,
            },
            code.len(),
        );
        assert_eq!(s.diverged_at, None);
        assert_eq!(s.before[1], Some((0, 0)));
        assert_eq!(s.before[3], Some((0, 0)));
        assert_eq!(s.before[4], Some((5, 9)));
    }

    #[test]
    fn loop_stabilises_only_after_widening() {
        // r6 += 1 forever: without widening the upper bound would climb
        // one step per visit until the guard; with it, the head state
        // jumps to +inf on join WIDEN_AFTER + 1 and the walk ends.
        let code = [bump(1), branch(-2), Insn::Exit];
        let s = solve(
            &mut Toy {
                code: &code,
                flip: false,
            },
            code.len(),
        );
        assert_eq!(s.diverged_at, None);
        assert_eq!(s.before[0], Some((0, i64::MAX)));
        assert_eq!(s.before[2], Some((1, i64::MAX)));
    }

    #[test]
    fn widening_starts_after_widen_after_joins() {
        // Same loop, but count how many distinct upper bounds the head
        // saw: 0 at entry, then one per plain join, then +inf.
        struct Counting<'a>(Toy<'a>, Vec<i64>);
        impl Domain for Counting<'_> {
            type State = (i64, i64);
            fn entry(&self) -> (i64, i64) {
                self.0.entry()
            }
            fn transfer(&mut self, pc: usize, st: &(i64, i64)) -> Vec<(usize, (i64, i64))> {
                if pc == 0 {
                    self.1.push(st.1);
                }
                self.0.transfer(pc, st)
            }
            fn join(&self, at: &mut (i64, i64), inc: &(i64, i64), widen: bool) -> bool {
                self.0.join(at, inc, widen)
            }
        }
        let code = [bump(1), branch(-2), Insn::Exit];
        let mut d = Counting(
            Toy {
                code: &code,
                flip: false,
            },
            Vec::new(),
        );
        solve(&mut d, code.len());
        let mut expected: Vec<i64> = (0..=i64::from(WIDEN_AFTER)).collect();
        expected.push(i64::MAX);
        assert_eq!(d.1, expected);
    }

    #[test]
    fn unreachable_pcs_stay_none() {
        let code = [
            Insn::Ja { off: 1 },
            Insn::MovImm { dst: 6, imm: 7 }, // skipped
            Insn::Exit,
        ];
        let s = solve(
            &mut Toy {
                code: &code,
                flip: false,
            },
            code.len(),
        );
        assert_eq!(s.before[1], None);
        assert!(s.before[2].is_some());
        assert!(solve(
            &mut Toy {
                code: &[],
                flip: false
            },
            0
        )
        .before
        .is_empty());
    }

    #[test]
    fn non_monotone_domain_ends_at_the_guard() {
        let code = [bump(1), branch(-2), Insn::Exit];
        let s = solve(
            &mut Toy {
                code: &code,
                flip: true,
            },
            code.len(),
        );
        assert!(s.diverged_at.is_some(), "guard must trip, not hang");
    }

    #[test]
    fn control_flow_decoding() {
        let code = [
            branch(1),            // 0 -> 1 | 2
            Insn::Exit,           // 1
            bump(1),              // 2
            Insn::Ja { off: -2 }, // 3 -> 2
            Insn::Exit,           // 4
        ];
        assert_eq!(jump_target(0, &code[0]), Some(2));
        assert_eq!(jump_target(2, &code[2]), None);
        assert_eq!(jump_target(0, &Insn::Ja { off: -5 }), None);
        assert_eq!(successors(&code, 0), [1, 2]);
        assert_eq!(successors(&code, 1), [] as [usize; 0]);
        assert_eq!(successors(&code, 3), [2]);
        assert_eq!(leaders(&code), [true, true, true, false, true]);
        assert_eq!(loops(&code), [Loop { head: 2, back: 3 }]);
    }

    #[test]
    fn read_write_sets() {
        let alu = Insn::Alu {
            op: AluOp::Add,
            dst: 7,
            src: 6,
        };
        assert_eq!(read_regs(&alu).collect::<Vec<_>>(), [7, 6]);
        assert_eq!(reads(&alu).regs, 0b1100_0000);
        assert_eq!(writes(&alu).regs, 0b1000_0000);
        let call = Insn::Call {
            helper: crate::bytecode::Helper::Push,
        };
        assert_eq!(read_regs(&call).collect::<Vec<_>>(), [1, 2]);
        assert!((0..=5).all(|r| writes(&call).has_reg(r)));
        assert!(reads(&Insn::Ld { dst: 6, slot: 3 }).has_slot(3));
        assert!(writes(&Insn::St { slot: 3, src: 6 }).has_slot(3));
    }
}
