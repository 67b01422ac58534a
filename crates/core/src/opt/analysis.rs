//! Shared dataflow analyses for the bytecode optimizer: reachability,
//! register/slot liveness, dominators, and a conservative forward
//! interval analysis that feeds sparse conditional constant propagation.
//! The forward analyses are lattices solved by the crate's one flow
//! kernel ([`crate::flow`]); the interval rules are the verifier's
//! ([`crate::verify::domain`]).
//!
//! All analyses are sound with respect to the *runtime* semantics of
//! [`crate::vm`], not just the verifier's model: the initial register
//! file is treated as unknown (even though the VM zeroes it): the
//! verifier marks it unreadable, and a rewrite that leaned on this VM's
//! zeroing would produce an image the verifier rejects.

use crate::bytecode::{Cond, Helper, Insn};
use crate::flow::{self, reads, slot_loc, successors, writes, Domain, Edges, LiveSet, Solution};
use crate::verify::domain::{alu, assume, negate, Interval};

/// Syntactic reachability: the flow problem with no locations at all.
struct Cfg<'a>(&'a [Insn]);

impl Domain for Cfg<'_> {
    type Val = ();

    fn width(&self) -> usize {
        0
    }

    fn entry(&self, _: &mut [()]) {}

    fn transfer(&mut self, pc: usize, _: &[()], out: &mut Edges<()>) {
        for s in successors(self.0, pc) {
            out.push(s, []);
        }
    }

    fn join(&self, _: (), _: (), _: bool) {}
}

/// Pcs reachable from entry.
pub(crate) fn reachable(code: &[Insn]) -> Vec<bool> {
    let solution = flow::solve(&mut Cfg(code), code.len());
    (0..code.len())
        .map(|pc| solution.before(pc).is_some())
        .collect()
}

/// Backward register/slot liveness. `live_in[pc]` / `live_out[pc]` hold
/// the registers and slots whose current value may still be read.
pub(crate) struct Liveness {
    pub live_in: Vec<LiveSet>,
    pub live_out: Vec<LiveSet>,
}

pub(crate) fn liveness(code: &[Insn]) -> Liveness {
    let n = code.len();
    let mut live_in = vec![LiveSet::default(); n];
    let mut live_out = vec![LiveSet::default(); n];
    let mut changed = true;
    while changed {
        changed = false;
        for pc in (0..n).rev() {
            let mut out = LiveSet::default();
            for succ in successors(code, pc) {
                out = out.union(live_in[succ]);
            }
            let w = writes(&code[pc]);
            let inn = reads(&code[pc]).union(LiveSet {
                regs: out.regs & !w.regs,
                slots: out.slots & !w.slots,
            });
            if out != live_out[pc] || inn != live_in[pc] {
                live_out[pc] = out;
                live_in[pc] = inn;
                changed = true;
            }
        }
    }
    Liveness { live_in, live_out }
}

/// Dominator sets as per-pc bitsets. `dominates(d, u)` is true when every
/// path from entry to `u` passes through `d`.
pub(crate) struct Dominators {
    sets: Vec<Vec<u64>>,
}

impl Dominators {
    pub fn dominates(&self, d: usize, u: usize) -> bool {
        self.sets[u][d / 64] & (1 << (d % 64)) != 0
    }
}

pub(crate) fn dominators(code: &[Insn]) -> Dominators {
    let n = code.len();
    let words = n.div_ceil(64);
    let reach = reachable(code);
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (pc, &reachable_pc) in reach.iter().enumerate() {
        if reachable_pc {
            for s in successors(code, pc) {
                preds[s].push(pc);
            }
        }
    }
    let full = vec![u64::MAX; words];
    let mut sets: Vec<Vec<u64>> = vec![full; n];
    sets[0] = vec![0; words];
    sets[0][0] = 1;
    let mut changed = true;
    while changed {
        changed = false;
        for pc in 1..n {
            if !reach[pc] {
                continue;
            }
            let mut acc = vec![u64::MAX; words];
            for p in &preds[pc] {
                for (a, b) in acc.iter_mut().zip(&sets[*p]) {
                    *a &= b;
                }
            }
            acc[pc / 64] |= 1 << (pc % 64);
            if acc != sets[pc] {
                sets[pc] = acc;
                changed = true;
            }
        }
    }
    Dominators { sets }
}

/// The optimizer's lattice: one interval per register and stack slot,
/// laid out as `flow::slot_loc` says.
struct FactFlow<'a> {
    code: &'a [Insn],
    stack_slots: u16,
}

impl Domain for FactFlow<'_> {
    type Val = Interval;

    fn width(&self) -> usize {
        slot_loc(self.stack_slots)
    }

    fn entry(&self, row: &mut [Interval]) {
        // Initial registers are unknown (see module docs); the read-only
        // frame pointer r10 is exactly 0 for the whole execution.
        row.fill(Interval::TOP);
        row[10] = Interval::exact(0);
    }

    fn transfer(&mut self, pc: usize, s: &[Interval], out: &mut Edges<Interval>) {
        let insn = &self.code[pc];
        let reg = |r: u8| s[usize::from(r)];
        let (dst, v) = match *insn {
            Insn::Exit => return,
            Insn::Ja { .. } => {
                if let Some(t) = flow::jump_target(pc, insn) {
                    out.push(t, []);
                }
                return;
            }
            Insn::Jmp { cond, lhs, rhs, .. } => {
                return self.branch(pc, s, cond, lhs, reg(rhs), Some(rhs), out)
            }
            Insn::JmpImm { cond, lhs, imm, .. } => {
                return self.branch(pc, s, cond, lhs, Interval::exact(imm), None, out)
            }
            Insn::MovImm { dst, imm } => (dst, Interval::exact(imm)),
            Insn::Mov { dst, src } => (dst, reg(src)),
            Insn::Alu { op, dst, src } => (dst, alu(op, reg(dst), reg(src))),
            Insn::AluImm { op, dst, imm } => (dst, alu(op, reg(dst), Interval::exact(imm))),
            Insn::Neg { dst } => (dst, reg(dst).neg()),
            Insn::Call { helper, dst, .. } => {
                let ret = match helper {
                    Helper::SentOn | Helper::HasWindowFor => Interval::BOOL,
                    _ => Interval::TOP,
                };
                out.push(
                    pc + 1,
                    helper.has_result().then_some((usize::from(dst), ret)),
                );
                return;
            }
            Insn::Ld { dst, slot } => {
                (dst, s.get(slot_loc(slot)).copied().unwrap_or(Interval::TOP))
            }
            Insn::St { slot, src } => {
                let loc = slot_loc(slot);
                out.push(pc + 1, (loc < s.len()).then_some((loc, reg(src))));
                return;
            }
        };
        out.push(pc + 1, [(usize::from(dst), v)]);
    }

    fn join(&self, old: Interval, new: Interval, widen: bool) -> Interval {
        let joined = old.join(new);
        if widen {
            old.widen(joined)
        } else {
            joined
        }
    }
}

impl FactFlow<'_> {
    /// The feasible edges of `if lhs cond rhs` at `pc`, operands refined
    /// on each (`rhs_reg` is the register `rhs` came from, if any).
    #[allow(clippy::too_many_arguments)]
    fn branch(
        &self,
        pc: usize,
        state: &[Interval],
        cond: Cond,
        lhs: u8,
        rhs: Interval,
        rhs_reg: Option<u8>,
        out: &mut Edges<Interval>,
    ) {
        let a = state[usize::from(lhs)];
        let taken = flow::jump_target(pc, &self.code[pc]).zip(assume(cond, a, rhs));
        let fallthrough = assume(negate(cond), a, rhs).map(|refined| (pc + 1, refined));
        for (to, (ra, rb)) in taken.into_iter().chain(fallthrough) {
            let rhs_w = rhs_reg.map(|r| (usize::from(r), rb));
            out.push(to, std::iter::once((usize::from(lhs), ra)).chain(rhs_w));
        }
    }
}

/// Result of the forward interval analysis: the abstract state *before*
/// each pc (`None` = unreachable), registers then stack slots.
pub(crate) type Facts = Solution<Interval>;

/// Runs the forward interval analysis over `code`; `None` when it did not
/// converge (callers must then rewrite nothing).
pub(crate) fn facts(code: &[Insn], stack_slots: u16) -> Option<Facts> {
    let solution = flow::solve(&mut FactFlow { code, stack_slots }, code.len());
    solution.diverged_at.is_none().then_some(solution)
}

/// Index of an effectful helper in [`EffectProfile::must`] order
/// (`PUSH`, `POP`, `DROP`); `None` for pure helpers.
pub(crate) fn effect_helper_index(h: Helper) -> Option<usize> {
    match h {
        Helper::Push => Some(0),
        Helper::Pop => Some(1),
        Helper::DropPkt => Some(2),
        _ => None,
    }
}

/// Display name for [`EffectProfile::must`] index `i`.
pub(crate) fn effect_helper_name(i: usize) -> &'static str {
    ["PUSH", "POP", "DROP"][i]
}

/// Must-execute profile of the effectful helper calls: which `PUSH` /
/// `POP` / `DROP` sites run on *every* feasible path from entry to exit.
///
/// Feasibility uses the same forward interval facts that drive SCCP, so
/// a legitimate constant-guard fold leaves the profile unchanged (the
/// proven edge was already the only feasible one), while an *unproven*
/// guard deleted in front of an effect site turns that site from
/// conditional into must-execute. The property-certificate gate in
/// [`super::check_candidate`](crate::opt) rejects exactly that shift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EffectProfile {
    /// Per helper (`PUSH`, `POP`, `DROP`): count of must-execute call
    /// sites and the pc of the first one.
    pub must: [(u32, Option<usize>); 3],
}

/// Forward must-analysis over the feasible CFG: the state before `pc` is
/// the bitset of effect sites executed on *every* feasible path reaching
/// it; the join is set intersection.
struct MustSites<'a> {
    feasible: FactFlow<'a>,
    facts: &'a Facts,
    /// Bit index of the effectful call at each pc, if it is one.
    bit_of: Vec<Option<usize>>,
    words: usize,
    /// Reused buffer for `feasible`'s edges.
    edges: Edges<Interval>,
}

impl Domain for MustSites<'_> {
    /// One word of the site bitset.
    type Val = u64;

    fn width(&self) -> usize {
        self.words
    }

    fn entry(&self, row: &mut [u64]) {
        row.fill(0);
    }

    fn transfer(&mut self, pc: usize, state: &[u64], out: &mut Edges<u64>) {
        let Some(fact) = self.facts.before(pc) else {
            return;
        };
        let site = self.bit_of[pc].map(|bit| (bit / 64, state[bit / 64] | 1 << (bit % 64)));
        // Feasible successors under the interval facts at `pc`.
        self.edges.clear();
        self.feasible.transfer(pc, fact, &mut self.edges);
        for (to, _) in self.edges.iter() {
            out.push(to, site);
        }
    }

    fn join(&self, old: u64, new: u64, _widen: bool) -> u64 {
        old & new
    }
}

/// The must-execute profile of `code`; `None` when an underlying analysis
/// did not converge.
pub(crate) fn effect_profile(code: &[Insn], stack_slots: u16) -> Option<EffectProfile> {
    let n = code.len();
    let f = facts(code, stack_slots)?;
    // Effectful call sites in pc order; each gets one bit.
    let effect_of = |pc: usize| match &code[pc] {
        Insn::Call { helper, .. } => effect_helper_index(*helper),
        _ => None,
    };
    let sites: Vec<usize> = (0..n).filter(|&pc| effect_of(pc).is_some()).collect();
    let mut bit_of = vec![None; n];
    for (bit, &pc) in sites.iter().enumerate() {
        bit_of[pc] = Some(bit);
    }
    let solution = flow::solve(
        &mut MustSites {
            feasible: FactFlow { code, stack_slots },
            facts: &f,
            bit_of,
            words: sites.len().div_ceil(64).max(1),
            edges: Edges::default(),
        },
        n,
    );
    if solution.diverged_at.is_some() {
        return None;
    }

    // Sites on every path = intersection over all reached exits.
    let at_exit = (0..n)
        .filter(|&pc| matches!(code[pc], Insn::Exit))
        .filter_map(|pc| solution.before(pc).map(<[u64]>::to_vec))
        .reduce(|acc, set| acc.iter().zip(&set).map(|(a, b)| a & b).collect());
    let mut profile = EffectProfile {
        must: [(0, None); 3],
    };
    for (bit, &pc) in sites.iter().enumerate() {
        let on_every_path = at_exit
            .as_ref()
            .is_some_and(|set| set[bit / 64] & (1 << (bit % 64)) != 0);
        if let (true, Some(i)) = (on_every_path, effect_of(pc)) {
            profile.must[i].0 += 1;
            profile.must[i].1.get_or_insert(pc);
        }
    }
    Some(profile)
}
