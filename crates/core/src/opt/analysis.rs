//! Shared dataflow analyses for the bytecode optimizer: reachability,
//! register/slot liveness, dominators, and a conservative forward
//! interval analysis that feeds sparse conditional constant propagation.
//! The forward analyses are lattices solved by the crate's one flow
//! kernel ([`crate::flow`]); the interval rules are the verifier's
//! ([`crate::verify::domain`]).
//!
//! All analyses are sound with respect to the *runtime* semantics of
//! [`crate::vm`], not just the verifier's model: registers `r1`..`r5`
//! after a helper call and the initial register file are treated as
//! unknown (even though the VM zeroes them): the eBPF calling convention
//! the bytecode mirrors leaves caller-saved registers undefined after a
//! call, the verifier marks them unreadable, and a rewrite that leaned on
//! this VM's zeroing would produce an image the verifier rejects.

use crate::bytecode::{Cond, Helper, Insn, NUM_MACH_REGS};
use crate::flow::{self, reads, successors, writes, Domain, LiveSet};
use crate::verify::domain::{alu, assume, negate, Interval};

/// Syntactic reachability: the flow problem with no state at all.
struct Cfg<'a>(&'a [Insn]);

impl Domain for Cfg<'_> {
    type State = ();

    fn entry(&self) {}

    fn transfer(&mut self, pc: usize, _: &()) -> Vec<(usize, ())> {
        successors(self.0, pc)
            .into_iter()
            .map(|s| (s, ()))
            .collect()
    }

    fn join(&self, _: &mut (), _: &(), _: bool) -> bool {
        false
    }
}

/// Pcs reachable from entry.
pub(crate) fn reachable(code: &[Insn]) -> Vec<bool> {
    let solution = flow::solve(&mut Cfg(code), code.len());
    solution.before.iter().map(Option::is_some).collect()
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

/// Abstract machine state before one instruction.
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct FactState {
    pub regs: [Interval; NUM_MACH_REGS],
    pub slots: Vec<Interval>,
}

/// The optimizer's lattice: one interval per register and stack slot.
struct FactFlow<'a> {
    code: &'a [Insn],
    stack_slots: u16,
}

impl Domain for FactFlow<'_> {
    type State = FactState;

    fn entry(&self) -> FactState {
        // Initial registers are unknown (see module docs); the read-only
        // frame pointer r10 is exactly 0 for the whole execution.
        let mut init = FactState {
            regs: [Interval::TOP; NUM_MACH_REGS],
            slots: vec![Interval::TOP; usize::from(self.stack_slots)],
        };
        init.regs[10] = Interval::exact(0);
        init
    }

    fn transfer(&mut self, pc: usize, state: &FactState) -> Vec<(usize, FactState)> {
        let insn = &self.code[pc];
        let mut s = state.clone();
        match *insn {
            Insn::Exit => return Vec::new(),
            Insn::Ja { .. } => {
                return flow::jump_target(pc, insn)
                    .map(|t| vec![(t, s)])
                    .unwrap_or_default()
            }
            Insn::Jmp { cond, lhs, rhs, .. } => {
                return self.branch(pc, state, cond, lhs, s.regs[usize::from(rhs)], Some(rhs))
            }
            Insn::JmpImm { cond, lhs, imm, .. } => {
                return self.branch(pc, state, cond, lhs, Interval::exact(imm), None)
            }
            Insn::MovImm { dst, imm } => s.regs[usize::from(dst)] = Interval::exact(imm),
            Insn::Mov { dst, src } => s.regs[usize::from(dst)] = s.regs[usize::from(src)],
            Insn::Alu { op, dst, src } => {
                let d = usize::from(dst);
                s.regs[d] = alu(op, s.regs[d], s.regs[usize::from(src)]);
            }
            Insn::AluImm { op, dst, imm } => {
                let d = usize::from(dst);
                s.regs[d] = alu(op, s.regs[d], Interval::exact(imm));
            }
            Insn::Neg { dst } => {
                let d = usize::from(dst);
                s.regs[d] = s.regs[d].neg();
            }
            Insn::Call { helper } => {
                s.regs[0] = match helper {
                    Helper::SentOn | Helper::HasWindowFor => Interval::BOOL,
                    _ => Interval::TOP,
                };
                // The VM zeroes r1..r5, but the calling convention only
                // says they are clobbered: model them as unknown.
                for r in 1..=5 {
                    s.regs[r] = Interval::TOP;
                }
            }
            Insn::Ld { dst, slot } => {
                s.regs[usize::from(dst)] = s
                    .slots
                    .get(usize::from(slot))
                    .copied()
                    .unwrap_or(Interval::TOP);
            }
            Insn::St { slot, src } => {
                let v = s.regs[usize::from(src)];
                if let Some(slot) = s.slots.get_mut(usize::from(slot)) {
                    *slot = v;
                }
            }
        }
        vec![(pc + 1, s)]
    }

    fn join(&self, at: &mut FactState, incoming: &FactState, widen: bool) -> bool {
        let merge = |old: Interval, new: Interval| {
            let joined = old.join(new);
            if widen {
                old.widen(joined)
            } else {
                joined
            }
        };
        // Both halves must run: no short-circuit.
        flow::merge_into(&mut at.regs, &incoming.regs, merge)
            | flow::merge_into(&mut at.slots, &incoming.slots, merge)
    }
}

impl FactFlow<'_> {
    /// The feasible edges of `if lhs cond rhs` at `pc`, operands refined
    /// on each (`rhs_reg` is the register `rhs` came from, if any).
    fn branch(
        &self,
        pc: usize,
        state: &FactState,
        cond: Cond,
        lhs: u8,
        rhs: Interval,
        rhs_reg: Option<u8>,
    ) -> Vec<(usize, FactState)> {
        let a = state.regs[usize::from(lhs)];
        let taken = flow::jump_target(pc, &self.code[pc]).zip(assume(cond, a, rhs));
        let fallthrough = assume(negate(cond), a, rhs).map(|refined| (pc + 1, refined));
        taken
            .into_iter()
            .chain(fallthrough)
            .map(|(to, (ra, rb))| {
                let mut s = state.clone();
                s.regs[usize::from(lhs)] = ra;
                if let Some(r) = rhs_reg {
                    s.regs[usize::from(r)] = rb;
                }
                (to, s)
            })
            .collect()
    }
}

/// Result of the forward interval analysis: the abstract state *before*
/// each pc (`None` = unreachable).
pub(crate) struct Facts {
    pub before: Vec<Option<FactState>>,
}

/// Runs the forward interval analysis over `code`; `None` when it did not
/// converge (callers must then rewrite nothing).
pub(crate) fn facts(code: &[Insn], stack_slots: u16) -> Option<Facts> {
    let solution = flow::solve(&mut FactFlow { code, stack_slots }, code.len());
    solution.diverged_at.is_none().then_some(Facts {
        before: solution.before,
    })
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
}

impl Domain for MustSites<'_> {
    type State = Vec<u64>;

    fn entry(&self) -> Vec<u64> {
        vec![0; self.words]
    }

    fn transfer(&mut self, pc: usize, state: &Vec<u64>) -> Vec<(usize, Vec<u64>)> {
        let Some(fact) = &self.facts.before[pc] else {
            return Vec::new();
        };
        let mut out = state.clone();
        if let Some(bit) = self.bit_of[pc] {
            out[bit / 64] |= 1 << (bit % 64);
        }
        // Feasible successors under the interval facts at `pc`.
        self.feasible
            .transfer(pc, fact)
            .into_iter()
            .map(|(to, _)| (to, out.clone()))
            .collect()
    }

    fn join(&self, at: &mut Vec<u64>, incoming: &Vec<u64>, _widen: bool) -> bool {
        flow::merge_into(at, incoming, |a, b| a & b)
    }
}

/// The must-execute profile of `code`; `None` when an underlying analysis
/// did not converge.
pub(crate) fn effect_profile(code: &[Insn], stack_slots: u16) -> Option<EffectProfile> {
    let n = code.len();
    let f = facts(code, stack_slots)?;
    // Effectful call sites in pc order; each gets one bit.
    let effect_of = |pc: usize| match &code[pc] {
        Insn::Call { helper } => effect_helper_index(*helper),
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
        },
        n,
    );
    if solution.diverged_at.is_some() {
        return None;
    }

    // Sites on every path = intersection over all reached exits.
    let at_exit = (0..n)
        .filter(|&pc| matches!(code[pc], Insn::Exit))
        .filter_map(|pc| solution.before[pc].clone())
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
