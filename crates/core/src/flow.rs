//! The bytecode flow kernel: the one place the crate decodes control flow
//! and register/slot effects out of an [`Insn`] stream, and the one
//! forward worklist solver every bytecode dataflow analysis runs on.
//!
//! The dataflow verifier ([`crate::verify::vm`]) and the optimizer's
//! analyses ([`crate::opt`]) are instances of [`Domain`]: each supplies a
//! lattice over a fixed number of locations (entry row, per-instruction
//! transfer, per-location join with widening) and [`solve`] owns the
//! states, iteration order, the widening trigger, and the convergence
//! guard.
//!
//! # Sparse joins
//!
//! [`solve`] keeps one flat arena of `n × width` values, a row per pc. An
//! instruction writes at most one location, so
//! [`Domain::transfer`] emits each feasible edge as its target plus the
//! locations it writes. The first edge into a pc copies the source row
//! and applies the writes. A later edge joins only the locations it
//! writes and those of the source row that changed since that edge last
//! flowed (a dirty bitset per pc and outgoing edge, as wide as the row).
//!
//! That is exact — the rows, requeues and widening decisions of a solver
//! that joins every location on every edge — because every domain's join
//! is idempotent (`join(a, a, w) == a`, so a copied row covers its
//! source) and leaves unchanged a value that already covers the incoming
//! one, where `join(a, x, w)` covers `x` and keeps covering it through
//! any later joins and widenings. A location the edge does not write and
//! the source has not changed holds a value the target already covers,
//! so its join could change nothing. Marking too much dirty is harmless
//! for the same reason, which is how a pc jumping to itself is handled.
//! The `AbsVal` join (its laws are a `verify::vm` test), the interval
//! hull with widening, the must-set intersection and the unit lattice of
//! reachability all qualify.
//!
//! # Order and widening
//!
//! The worklist pops the lowest queued pc first. Codegen lays every loop
//! out as the contiguous interval `[head, back]`, so an inner loop
//! settles before the code after it runs, and that code is walked once
//! per settled state instead of once per trip. Only a join along a back
//! edge (a target at or before its source) widens, and only from the
//! second join into that pc on: a loop head takes one plain join, which
//! keeps what one trip proves, and then jumps to its limit. A forward
//! join never widens. Every cycle of a control-flow graph contains a back
//! edge, so the widening heads cut every ascending chain and the walk
//! ends; [`solve`]'s guard is left for a broken domain.
//! `tests::forward_joins_never_widen` and
//! `tests::back_edge_joins_widen_from_the_second_join` pin the rule.
//!
//! It replaced a first-in first-out walk that widened at any pc after
//! eight joins, so every loop body was walked about nine times. Over the
//! 18 shipped programs' 9 789 instructions the verifier's fixpoint makes
//! 25 051 visits where that walk made 63 211. Admission, every
//! diagnostic, the bytecode bound and the image of the shipped programs
//! and of 10 000 generated ones stayed byte-identical; the states the
//! listing prints moved, nearly all of them tighter (`targetRtt` pc 7
//! reads `r8=[0,+inf] r9=[0,65536]` where it read `r8=i64
//! r9=[-inf,65536]`).

use crate::bytecode::{Insn, Operand, NUM_MACH_REGS};

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
pub(crate) fn successors(code: &[Insn], pc: usize) -> impl Iterator<Item = usize> {
    let (fallthrough, jump) = match &code[pc] {
        Insn::Exit => (None, None),
        insn @ Insn::Ja { .. } => (None, jump_target(pc, insn)),
        insn @ (Insn::Jmp { .. } | Insn::JmpImm { .. }) => {
            (Some(pc + 1), jump_target(pc, insn).filter(|t| *t != pc + 1))
        }
        _ => (Some(pc + 1), None),
    };
    let n = code.len();
    fallthrough.into_iter().chain(jump).filter(move |t| *t < n)
}

/// Location of stack slot `slot` in a register/slot-file row: the
/// registers come first, at their own numbers.
pub(crate) fn slot_loc(slot: u16) -> usize {
    NUM_MACH_REGS + usize::from(slot)
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

/// Registers `insn` reads, in operand order (a helper call reads the
/// register operands among its arguments).
pub(crate) fn read_regs(insn: &Insn) -> impl Iterator<Item = u8> {
    let operands = match *insn {
        Insn::MovImm { .. } | Insn::Ja { .. } | Insn::Ld { .. } | Insn::Exit => [None, None],
        Insn::Mov { src, .. } | Insn::St { src, .. } => [Some(src), None],
        Insn::Alu { dst, src, .. } => [Some(dst), Some(src)],
        Insn::AluImm { dst, .. } | Insn::Neg { dst } => [Some(dst), None],
        Insn::Jmp { lhs, rhs, .. } => [Some(lhs), Some(rhs)],
        Insn::JmpImm { lhs, .. } => [Some(lhs), None],
        Insn::Call { helper, a, b, .. } => {
            let mut args = helper.args(a, b).map(Operand::reg);
            [args.next().flatten(), args.next().flatten()]
        }
    };
    operands.into_iter().flatten()
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

/// Registers/slots written by `insn` (a helper call writes its `dst`,
/// a void one nothing).
pub(crate) fn writes(insn: &Insn) -> LiveSet {
    let mut s = LiveSet::default();
    match insn {
        Insn::MovImm { dst, .. }
        | Insn::Mov { dst, .. }
        | Insn::Alu { dst, .. }
        | Insn::AluImm { dst, .. }
        | Insn::Neg { dst }
        | Insn::Ld { dst, .. } => s.regs = 1 << dst,
        Insn::Call { helper, dst, .. } if helper.has_result() => s.regs = 1 << dst,
        Insn::St { slot, .. } => s.slots = 1 << slot,
        Insn::Call { .. }
        | Insn::Ja { .. }
        | Insn::Jmp { .. }
        | Insn::JmpImm { .. }
        | Insn::Exit => {}
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

/// One forward dataflow problem over an instruction stream, as a lattice
/// over [`Domain::width`] locations per program point.
pub(crate) trait Domain {
    /// Abstract value of one location. The default is what rows hold
    /// before their pc is reached; the solver never shows it.
    type Val: Copy + PartialEq + Default;

    /// Locations per program point.
    fn width(&self) -> usize;

    /// Fills in the row before pc 0.
    fn entry(&self, row: &mut [Self::Val]);

    /// Emits into `out` each feasible edge out of `pc`, executed under the
    /// row `before`, with the locations the edge writes. An edge goes to
    /// `pc + 1` or to the one other target `pc` has. May record findings.
    fn transfer(&mut self, pc: usize, before: &[Self::Val], out: &mut Edges<Self::Val>);

    /// The value of a location holding `old` once `new` flows into it
    /// (widening when `widen`). Must meet the conditions in the module
    /// docs.
    fn join(&self, old: Self::Val, new: Self::Val, widen: bool) -> Self::Val;
}

/// The feasible edges out of one instruction, as [`Domain::transfer`]
/// emits them: a target each, plus the locations the edge writes.
#[derive(Default)]
pub(crate) struct Edges<V> {
    /// Per edge: its target and the range of its writes in `writes`.
    edges: Vec<(usize, usize, usize)>,
    writes: Vec<(usize, V)>,
}

impl<V: Copy> Edges<V> {
    /// Adds the edge to `target` along which each `(location, value)` of
    /// `writes` replaces that location of the source row (the last write
    /// to a location wins).
    pub fn push(&mut self, target: usize, writes: impl IntoIterator<Item = (usize, V)>) {
        let start = self.writes.len();
        for (loc, v) in writes {
            match self.writes[start..].iter_mut().find(|(l, _)| *l == loc) {
                Some(w) => w.1 = v,
                None => self.writes.push((loc, v)),
            }
        }
        self.edges.push((target, start, self.writes.len()));
    }

    pub fn clear(&mut self) {
        self.edges.clear();
        self.writes.clear();
    }

    /// Each edge's target and writes, in the order they were pushed.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[(usize, V)])> + '_ {
        self.edges
            .iter()
            .map(|&(t, start, end)| (t, &self.writes[start..end]))
    }
}

/// Result of [`solve`].
#[derive(Default)]
pub(crate) struct Solution<V> {
    width: usize,
    /// Row `pc` is `rows[pc * width..(pc + 1) * width]`.
    rows: Vec<V>,
    reached: Vec<bool>,
    /// The pc being processed when the convergence guard tripped; the
    /// rows are then a partial, unsound under-approximation.
    pub diverged_at: Option<usize>,
}

impl<V> Solution<V> {
    /// The row before `pc`; `None` = no feasible path reaches it.
    pub fn before(&self, pc: usize) -> Option<&[V]> {
        let start = pc * self.width;
        self.reached[pc].then(|| &self.rows[start..start + self.width])
    }
}

/// The pcs waiting for a visit, as a bitset popped lowest pc first.
struct Worklist {
    words: Vec<u64>,
    /// No word below this one has a bit set.
    low: usize,
}

impl Worklist {
    fn new(n: usize) -> Self {
        Worklist {
            words: vec![0; n.div_ceil(64)],
            low: 0,
        }
    }

    /// Queues `pc`; a pc already queued is visited once.
    fn push(&mut self, pc: usize) {
        self.words[pc / 64] |= 1 << (pc % 64);
        self.low = self.low.min(pc / 64);
    }

    fn pop(&mut self) -> Option<usize> {
        while let Some(word) = self.words.get_mut(self.low) {
            if *word != 0 {
                let bit = word.trailing_zeros() as usize;
                *word &= *word - 1;
                return Some(self.low * 64 + bit);
            }
            self.low += 1;
        }
        None
    }
}

/// Whether the join along the edge `pc -> target` that is the `joins`-th
/// into `target` widens: only a back edge does, from the second join on.
fn widens(pc: usize, target: usize, joins: u32) -> bool {
    target <= pc && joins >= 2
}

/// Solves `domain` over an `n`-instruction stream to a fixpoint.
///
/// The worklist visits the lowest queued pc first, from pc 0: a successor
/// is queued whenever its row is created or changed by a join. Only joins
/// along back edges widen (see [`widens`]; every join into an
/// already-visited pc counts, whether or not it changed the row). The walk
/// gives up after `(n + 1) * 1024` visits — far above any real fixpoint of
/// a monotone domain with widening, so tripping it means a broken domain.
/// Joins are sparse (see the module docs).
pub(crate) fn solve<D: Domain>(domain: &mut D, n: usize) -> Solution<D::Val> {
    let width = domain.width();
    let mut sol = Solution {
        width,
        rows: vec![D::Val::default(); n * width],
        reached: vec![false; n],
        diverged_at: None,
    };
    if n == 0 {
        return sol;
    }
    domain.entry(&mut sol.rows[..width]);
    sol.reached[0] = true;

    // Per pc and outgoing edge (0: to pc + 1, 1: to the other target),
    // the locations of row pc that changed since the edge last flowed.
    // An edge that never flowed has all of them (and bits past the row).
    let words = width.div_ceil(64);
    let mut dirty = vec![u64::MAX; 2 * n * words];
    let written = |writes: &[(usize, D::Val)], word: usize| {
        writes
            .iter()
            .filter(|(loc, _)| loc / 64 == word)
            .fold(0u64, |bits, (loc, _)| bits | 1 << (loc % 64))
    };

    let mut joins = vec![0u32; n];
    let mut work = Worklist::new(n);
    work.push(0);
    let mut budget = (n + 1).saturating_mul(1024);
    let mut edges = Edges::default();
    // The source row as the edges read it, when one of them joins into it.
    let mut saved = Vec::new();
    while let Some(pc) = work.pop() {
        if budget == 0 {
            sol.diverged_at = Some(pc);
            break;
        }
        budget -= 1;
        let src = pc * width;
        edges.clear();
        domain.transfer(pc, &sol.rows[src..src + width], &mut edges);
        let self_loop = edges.iter().any(|(target, _)| target == pc);
        if self_loop {
            saved.clear();
            saved.extend_from_slice(&sol.rows[src..src + width]);
        }
        for (target, writes) in edges.iter() {
            // Out of range: structural verification rules this out.
            if target >= n {
                continue;
            }
            let edge = (2 * pc + usize::from(target != pc + 1)) * words;
            let dst = target * width;
            if !sol.reached[target] {
                sol.reached[target] = true;
                if self_loop {
                    sol.rows[dst..dst + width].copy_from_slice(&saved);
                } else {
                    sol.rows.copy_within(src..src + width, dst);
                }
                for &(loc, v) in writes {
                    sol.rows[dst + loc] = v;
                }
                for (word, bits) in dirty[edge..edge + words].iter_mut().enumerate() {
                    *bits &= written(writes, word);
                }
                work.push(target);
                continue;
            }
            joins[target] += 1;
            let widen = widens(pc, target, joins[target]);
            let mut changed = false;
            // Joins `new` into `loc` of the target row; a change dirties
            // `loc` on both of the target's edges.
            let mut join = |rows: &mut [D::Val], dirty: &mut [u64], loc: usize, new| {
                let at = &mut rows[dst + loc];
                let joined = domain.join(*at, new, widen);
                if joined != *at {
                    *at = joined;
                    changed = true;
                    for e in [2 * target, 2 * target + 1] {
                        dirty[e * words + loc / 64] |= 1 << (loc % 64);
                    }
                }
            };
            for &(loc, new) in writes {
                join(&mut sol.rows, &mut dirty, loc, new);
            }
            for word in 0..words {
                // A written location stays dirty: the target now covers
                // the written value, not the source's.
                let keep = written(writes, word);
                let mut stale = dirty[edge + word] & !keep;
                dirty[edge + word] &= keep;
                while stale != 0 {
                    let loc = word * 64 + stale.trailing_zeros() as usize;
                    stale &= stale - 1;
                    if loc < width {
                        let new = if self_loop {
                            saved[loc]
                        } else {
                            sol.rows[src + loc]
                        };
                        join(&mut sol.rows, &mut dirty, loc, new);
                    }
                }
            }
            if changed {
                work.push(target);
            }
        }
        if self_loop {
            // Row pc may have changed after an edge flowed the saved copy
            // and cleaned its bits: mark everything (too much is harmless).
            dirty[2 * pc * words..(2 * pc + 2) * words].fill(u64::MAX);
        }
    }
    sol
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{AluOp, Cond, Helper};

    /// Toy domain: the possible values of `r6`..`r8` (locations 0..3) as
    /// inclusive ranges. `MovImm`, `AluImm` (add), `Mov`, `Neg` and a
    /// helper call (its `dst` becomes `[0, 10]`) move them. `JmpImm` with
    /// `Lt` drops an infeasible edge and, like the verifier refining only
    /// scalars, refines its register only while it is bounded, so an
    /// edge can stop writing a location. `Jmp`'s taken edge adds `rhs`
    /// into `lhs` while `rhs` is bounded: no bytecode domain changes state
    /// along a jump, but the kernel must stay exact when one does, jumps
    /// to itself included, and when an edge stops writing a location
    /// because another one changed.
    /// Other jumps take both edges. `flip` replaces the join by one that
    /// oscillates forever.
    struct Toy<'a> {
        code: &'a [Insn],
        flip: bool,
    }

    type Range = (i64, i64);

    fn loc(r: u8) -> usize {
        usize::from(r - 6)
    }

    impl Domain for Toy<'_> {
        type Val = Range;

        fn width(&self) -> usize {
            3
        }

        fn entry(&self, row: &mut [Range]) {
            row.fill((0, 0));
        }

        fn transfer(&mut self, pc: usize, st: &[Range], out: &mut Edges<Range>) {
            let next = pc + 1;
            match self.code[pc] {
                Insn::MovImm { dst, imm } => out.push(next, [(loc(dst), (imm, imm))]),
                Insn::AluImm { dst, imm, .. } => {
                    let (lo, hi) = st[loc(dst)];
                    out.push(
                        next,
                        [(loc(dst), (lo.saturating_add(imm), hi.saturating_add(imm)))],
                    );
                }
                Insn::Mov { dst, src } => out.push(next, [(loc(dst), st[loc(src)])]),
                Insn::Neg { dst } => {
                    let (lo, hi) = st[loc(dst)];
                    out.push(
                        next,
                        [(loc(dst), (hi.saturating_neg(), lo.saturating_neg()))],
                    );
                }
                Insn::Call { dst, .. } => out.push(next, [(loc(dst), (0, 10))]),
                insn @ Insn::JmpImm {
                    cond: Cond::Lt,
                    lhs,
                    imm,
                    ..
                } => {
                    let (lo, hi) = st[loc(lhs)];
                    let target = jump_target(pc, &insn).expect("a branch");
                    for (to, refined) in
                        [(target, (lo, hi.min(imm - 1))), (next, (lo.max(imm), hi))]
                    {
                        let bounded = lo > i64::MIN && hi < i64::MAX;
                        if refined.0 <= refined.1 {
                            out.push(to, bounded.then_some((loc(lhs), refined)));
                        }
                    }
                }
                insn @ Insn::Jmp { lhs, rhs, .. } => {
                    let ((lo, hi), (a, b)) = (st[loc(lhs)], st[loc(rhs)]);
                    let sum = (lo.saturating_add(a), hi.saturating_add(b));
                    let bounded = a > i64::MIN && b < i64::MAX;
                    let target = jump_target(pc, &insn).expect("a branch");
                    out.push(target, bounded.then_some((loc(lhs), sum)));
                    out.push(next, []);
                }
                _ => {
                    for to in successors(self.code, pc) {
                        out.push(to, []);
                    }
                }
            }
        }

        fn join(&self, old: Range, new: Range, widen: bool) -> Range {
            if self.flip {
                // Not a join at all: the row never stabilises.
                return (if old.0 == 0 { 1 } else { 0 }, old.1);
            }
            let joined = (old.0.min(new.0), old.1.max(new.1));
            if !widen {
                return joined;
            }
            (
                if joined.0 < old.0 { i64::MIN } else { old.0 },
                if joined.1 > old.1 { i64::MAX } else { old.1 },
            )
        }
    }

    fn toy(code: &[Insn]) -> Solution<Range> {
        solve(&mut Toy { code, flip: false }, code.len())
    }

    /// `r6` in the row before `pc`.
    fn r6(s: &Solution<Range>, pc: usize) -> Option<Range> {
        s.before(pc).map(|row| row[0])
    }

    /// Rows as the dense reference keeps them: a whole state per pc.
    type Dense<V> = Vec<Option<Vec<V>>>;

    /// The dense solver the sparse kernel replaced, kept as the reference
    /// it must agree with: a whole state per pc, every location joined on
    /// every edge, in the kernel's order and under its widening rule.
    fn dense<D: Domain>(domain: &mut D, n: usize) -> (Dense<D::Val>, Option<usize>) {
        let mut before: Dense<D::Val> = vec![None; n];
        if n == 0 {
            return (before, None);
        }
        let mut entry = vec![D::Val::default(); domain.width()];
        domain.entry(&mut entry);
        before[0] = Some(entry);
        let mut joins = vec![0u32; n];
        let mut work = Worklist::new(n);
        work.push(0);
        let mut budget = (n + 1).saturating_mul(1024);
        let mut edges = Edges::default();
        while let Some(pc) = work.pop() {
            if budget == 0 {
                return (before, Some(pc));
            }
            budget -= 1;
            let state = before[pc].clone().expect("queued pcs have a state");
            edges.clear();
            domain.transfer(pc, &state, &mut edges);
            for (succ, writes) in edges.iter() {
                let mut new = state.clone();
                for &(loc, v) in writes {
                    new[loc] = v;
                }
                match before.get_mut(succ) {
                    None => {}
                    Some(slot @ None) => {
                        *slot = Some(new);
                        work.push(succ);
                    }
                    Some(Some(at)) => {
                        joins[succ] += 1;
                        let widen = widens(pc, succ, joins[succ]);
                        let mut changed = false;
                        for (a, b) in at.iter_mut().zip(new) {
                            let joined = domain.join(*a, b, widen);
                            changed |= joined != *a;
                            *a = joined;
                        }
                        if changed {
                            work.push(succ);
                        }
                    }
                }
            }
        }
        (before, None)
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
        let s = toy(&code);
        assert_eq!(s.diverged_at, None);
        assert_eq!(r6(&s, 1), Some((0, 0)));
        assert_eq!(r6(&s, 3), Some((0, 0)));
        assert_eq!(r6(&s, 4), Some((5, 9)));
    }

    #[test]
    fn loop_stabilises_only_after_widening() {
        // r6 += 1 forever: without widening the upper bound would climb
        // one step per visit until the guard; with it, the head row
        // jumps to +inf on its second back-edge join and the walk ends.
        let code = [bump(1), branch(-2), Insn::Exit];
        let s = toy(&code);
        assert_eq!(s.diverged_at, None);
        assert_eq!(r6(&s, 0), Some((0, i64::MAX)));
        assert_eq!(r6(&s, 2), Some((1, i64::MAX)));
    }

    #[test]
    fn back_edge_joins_widen_from_the_second_join() {
        // Same loop, but record the upper bound the head runs under on
        // each visit: 0 at entry, 1 after the first back-edge join (a
        // plain one), then +inf after the second (a widening one).
        struct Counting<'a>(Toy<'a>, Vec<i64>);
        impl Domain for Counting<'_> {
            type Val = Range;
            fn width(&self) -> usize {
                self.0.width()
            }
            fn entry(&self, row: &mut [Range]) {
                self.0.entry(row)
            }
            fn transfer(&mut self, pc: usize, st: &[Range], out: &mut Edges<Range>) {
                if pc == 0 {
                    self.1.push(st[0].1);
                }
                self.0.transfer(pc, st, out)
            }
            fn join(&self, old: Range, new: Range, widen: bool) -> Range {
                self.0.join(old, new, widen)
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
        assert_eq!(d.1, [0, 1, i64::MAX]);
    }

    #[test]
    fn forward_joins_never_widen() {
        // Three arms set r6 to 1, 2 and 3 and meet at pc 7, which the
        // third arm reaches on the merge's second join. A widening join
        // there would read [1, +inf]; a forward join is always plain.
        let code = [
            branch(3),                       // 0 -> 1 | 4
            branch(4),                       // 1 -> 2 | 6
            Insn::MovImm { dst: 6, imm: 1 }, // 2
            Insn::Ja { off: 3 },             // 3 -> 7
            Insn::MovImm { dst: 6, imm: 2 }, // 4
            Insn::Ja { off: 1 },             // 5 -> 7
            Insn::MovImm { dst: 6, imm: 3 }, // 6
            Insn::Exit,                      // 7
        ];
        let s = toy(&code);
        assert_eq!(s.diverged_at, None);
        assert_eq!(r6(&s, 7), Some((1, 3)));
    }

    #[test]
    fn unreachable_pcs_stay_none() {
        let code = [
            Insn::Ja { off: 1 },
            Insn::MovImm { dst: 6, imm: 7 }, // skipped
            Insn::Exit,
        ];
        let s = toy(&code);
        assert_eq!(s.before(1), None);
        assert!(s.before(2).is_some());
        assert_eq!(toy(&[]).diverged_at, None);
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

    /// splitmix64: the stream generator below needs no more than that.
    fn draw(state: &mut u64, below: u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % below
    }

    /// A random well-formed stream: every jump lands inside it and the
    /// last instruction is an exit. Two seeds in five plant a jump to
    /// itself: a refining `JmpImm` or a state-changing `Jmp`.
    fn stream(seed: u64) -> Vec<Insn> {
        let mut rng = seed;
        let n = 2 + draw(&mut rng, 30) as usize;
        let mut code: Vec<Insn> = (0..n - 1)
            .map(|pc| {
                let reg = 6 + draw(&mut rng, 3) as u8;
                let off = draw(&mut rng, n as u64) as i32 - pc as i32 - 1;
                let imm = draw(&mut rng, 12) as i64 - 4;
                match draw(&mut rng, 20) {
                    0..=2 => Insn::MovImm { dst: reg, imm },
                    3..=6 => Insn::AluImm {
                        op: AluOp::Add,
                        dst: reg,
                        imm,
                    },
                    7 | 8 => Insn::Mov {
                        dst: reg,
                        src: 6 + draw(&mut rng, 3) as u8,
                    },
                    9 => Insn::Neg { dst: reg },
                    10 => Insn::Call {
                        helper: Helper::SubflowCount,
                        dst: reg,
                        a: Operand::Imm(0),
                        b: Operand::Imm(0),
                    },
                    11..=14 => Insn::JmpImm {
                        cond: Cond::Lt,
                        lhs: reg,
                        imm,
                        off,
                    },
                    15 => branch(off),
                    16 => Insn::Jmp {
                        cond: Cond::Eq,
                        lhs: reg,
                        rhs: 6 + draw(&mut rng, 3) as u8,
                        off,
                    },
                    17 | 18 => Insn::Ja { off },
                    _ => Insn::Exit,
                }
            })
            .collect();
        code.push(Insn::Exit);
        let pc = draw(&mut rng, n as u64 - 1) as usize;
        match seed % 5 {
            0 => {
                code[pc] = Insn::JmpImm {
                    cond: Cond::Lt,
                    lhs: 6,
                    imm: 3,
                    off: -1,
                }
            }
            1 => {
                code[pc] = Insn::Jmp {
                    cond: Cond::Eq,
                    lhs: 6,
                    rhs: 7,
                    off: -1,
                }
            }
            _ => {}
        }
        code
    }

    #[test]
    fn sparse_kernel_agrees_with_the_dense_reference() {
        let (mut self_jumps, mut unreachable, mut nested, mut diamonds) = (0, 0, 0, 0);
        for seed in 0..1000 {
            let code = stream(seed);
            let n = code.len();
            let s = toy(&code);
            let (rows, diverged_at) = dense(
                &mut Toy {
                    code: &code,
                    flip: false,
                },
                n,
            );
            let sparse: Dense<Range> = (0..n)
                .map(|pc| s.before(pc).map(<[Range]>::to_vec))
                .collect();
            assert_eq!(sparse, rows, "seed {seed}: {code:?}");
            assert_eq!(s.diverged_at, diverged_at, "seed {seed}");

            let ls = loops(&code);
            self_jumps += usize::from(ls.iter().any(|l| l.head == l.back));
            unreachable += usize::from(rows.iter().any(Option::is_none));
            nested += usize::from(ls.iter().any(|a| {
                ls.iter()
                    .any(|b| a != b && a.head <= b.head && b.back <= a.back)
            }));
            diamonds += usize::from(code.iter().enumerate().any(|(pc, insn)| {
                matches!(insn, Insn::JmpImm { .. })
                    && jump_target(pc, insn).is_some_and(|t| t > pc + 1)
            }));
        }
        // The streams exercise every shape the claim is about.
        for (shape, count) in [
            ("jump to self", self_jumps),
            ("unreachable pc", unreachable),
            ("nested loops", nested),
            ("diamond", diamonds),
        ] {
            assert!(count >= 50, "only {count} streams with a {shape}");
        }
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
        let succ = |pc| successors(&code, pc).collect::<Vec<_>>();
        assert_eq!(jump_target(0, &code[0]), Some(2));
        assert_eq!(jump_target(2, &code[2]), None);
        assert_eq!(jump_target(0, &Insn::Ja { off: -5 }), None);
        assert_eq!(succ(0), [1, 2]);
        assert_eq!(succ(1), [] as [usize; 0]);
        assert_eq!(succ(3), [2]);
        assert_eq!(leaders(&code), [true, true, true, false, true]);
        assert_eq!(loops(&code), [Loop { head: 2, back: 3 }]);
    }

    #[test]
    fn edges_keep_the_last_write_to_a_location() {
        let mut edges = Edges::default();
        edges.push(1, [(0, 'a'), (2, 'b'), (0, 'c')]);
        edges.push(4, []);
        edges.push(2, [(0, 'd')]);
        let got: Vec<_> = edges.iter().collect();
        assert_eq!(
            got,
            [
                (1, &[(0, 'c'), (2, 'b')][..]),
                (4, &[][..]),
                (2, &[(0, 'd')][..])
            ]
        );
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
        let push = Insn::Call {
            helper: Helper::Push,
            dst: 0,
            a: Operand::Reg(7),
            b: Operand::Reg(3),
        };
        assert_eq!(read_regs(&push).collect::<Vec<_>>(), [7, 3]);
        assert_eq!(
            writes(&push),
            LiveSet::default(),
            "a void call writes nothing"
        );
        let prop = Insn::Call {
            helper: Helper::SubflowProp,
            dst: 2,
            a: Operand::Reg(6),
            b: Operand::Imm(4),
        };
        assert_eq!(read_regs(&prop).collect::<Vec<_>>(), [6]);
        assert_eq!(writes(&prop).regs, 0b100, "a call writes its dst only");
        assert!(reads(&Insn::Ld { dst: 6, slot: 3 }).has_slot(3));
        assert!(writes(&Insn::St { slot: 3, src: 6 }).has_slot(3));
    }
}
