//! The scheduler-property verifier: semantic certificates on top of the
//! machine-level admission pipeline.
//!
//! Machine-level admission (termination, handle safety, step bounds) says
//! nothing about whether a scheduler is *behaviorally* sane: a program
//! that never services subflow 2, duplicates every segment onto all
//! paths, or refuses to send despite an open window passes every check in
//! `super::dataflow`. This module derives, per program, a
//! [`PropertyCertificate`] over four semantic properties, and beside it a
//! fifth fact, the [`Quiescence`] guard:
//!
//! 1. **Work-conservation** — under the assumption that the send queue is
//!    non-empty and at least one *available* subflow exists (not
//!    TSQ-throttled, not lossy, and with congestion-window room above its
//!    in-flight bytes; a `FILTER` carrying these conjuncts is matched by
//!    syntax, so its view is non-empty), every
//!    execution path reaches a `PUSH` whose operands are provably
//!    non-`NULL`. Proofs are sound (and dynamically validated by the
//!    conformance sweep and the simulator's oracle, which sample the same
//!    availability predicate, [`subflow_available`], pre-round);
//!    refutations carry a best-effort witness path and may be abstractly
//!    feasible but concretely dead.
//! 2. **Per-subflow starvation** — the set of subflow identities that can
//!    ever be the target of a `PUSH`, derived from guard satisfiability
//!    of `FILTER` predicates over the [`IdSet`] domain. When some id
//!    below the admission cap is structurally excluded, the property is
//!    refuted with the push sites as witness. The allowed set is an
//!    over-approximation of every runtime push target, which is exactly
//!    the invariant the runtime oracle checks.
//! 3. **Redundancy bound** — a closed-form polynomial in `n_subflows`
//!    bounding how many times one packet can be pushed during a single
//!    upcall, mirroring the per-loop multiplicities of the certified
//!    step-bound machinery in `super::cost`. Push sites are grouped by
//!    the base queue their packet was drawn from (packets in distinct
//!    queues cannot alias), and loop multiplicity is charged only for
//!    packet sources that can yield the same packet twice (`TOP`, `MIN`,
//!    `MAX`, `GET`, or a variable bound outside the loop) — an inline
//!    `POP` yields a fresh packet per evaluation.
//! 4. **Reinjection safety** — every `POP` from the reinjection queue is
//!    dominated by an emptiness guard already tracked by the queue
//!    domain. The view emptiness at each `POP` site is read off the
//!    admission analyzer's collecting pass (`super::dataflow`), the same
//!    classification behind its `pop-empty` / `pop-maybe-empty` lints.
//!    The per-program flag [`PropertyCertificate::pops_fully_guarded`]
//!    additionally records whether *every* pop (any queue) is guarded,
//!    which arms the `null_pops == 0` dynamic check.
//! 5. **Quiescence guard** — a disjunction of up to three atoms (`Q` and
//!    `RQ` empty; `Q`, `RQ` and `QU` empty; no subflow available) under
//!    which no effect is reachable: no `SET`, no `DROP` of a possibly
//!    non-`NULL` packet, no `PUSH` whose operands may both be
//!    non-`NULL`. Each atom is certified by one forward pass of the
//!    abstract interpreter from the initial state refined by the atom,
//!    a may-reachability question: the pass over-approximates every
//!    execution that starts where the atom holds, so an effect it never
//!    reaches is reached by none of them, and such a round leaves the
//!    connection as it found it (a packet popped but neither pushed nor
//!    dropped stays queued). The simulator skips such rounds
//!    ([`Quiescence::holds`]), and the conformance tier runs them anyway
//!    to check they decide nothing. The guard lives on the compiled
//!    program, not in the certificate, so a forged certificate cannot
//!    widen what is skipped.
//!
//! Property findings never feed the admission verdict: a refuted property
//! is a warning-severity lint surfaced through `progmp-lint --properties`,
//! not a rejection. The conformance sweep (`conformance-fuzz
//! --tier program`) cross-validates every *proved* certificate against
//! the runtime oracle on all three backends, with
//! [`PropWeakening`]-sabotaged analyses as the mutation control group.

use crate::ast::{BinOp, UnOp};
use crate::env::{QueueKind, SchedulerEnv, SubflowId, SubflowProp};
use crate::error::Pos;
use crate::hir::{ExprId, HExpr, HProgram, HStmt, StmtId};
use crate::types::Type;

use super::dataflow::{self, AbsState, Analyzer, PopSite};
use super::diag::{json_string, Diagnostic, Lint, Severity};
use super::domain::{Emptiness, IdSet, Nullability};
use super::VerifyConfig;

/// Outcome of one property analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropStatus {
    /// The property holds on every execution under the verifier's
    /// environment assumptions; dynamically validated by the soundness
    /// sweep.
    Proved,
    /// A witness (path or site set) shows the property does not hold.
    Refuted,
    /// The analysis could not decide (imprecision or path-budget
    /// exhaustion) — never treated as a proof.
    Unknown,
}

impl PropStatus {
    /// Lower-case display name.
    pub fn name(self) -> &'static str {
        match self {
            PropStatus::Proved => "proved",
            PropStatus::Refuted => "refuted",
            PropStatus::Unknown => "unknown",
        }
    }
}

/// One step of a refutation witness, anchored to a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessStep {
    /// Source position of the branch decision or offending site.
    pub pos: Pos,
    /// What the step assumes or exhibits.
    pub desc: String,
}

/// One property's verdict: status, explanation, and (for refutations)
/// the witness path or site list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropOutcome {
    /// Proved / refuted / unknown.
    pub status: PropStatus,
    /// One-line human-readable explanation.
    pub detail: String,
    /// Spanned witness steps (refutations only; empty otherwise).
    pub witness: Vec<WitnessStep>,
}

impl PropOutcome {
    fn proved(detail: impl Into<String>) -> PropOutcome {
        PropOutcome {
            status: PropStatus::Proved,
            detail: detail.into(),
            witness: Vec::new(),
        }
    }

    fn refuted(detail: impl Into<String>, witness: Vec<WitnessStep>) -> PropOutcome {
        PropOutcome {
            status: PropStatus::Refuted,
            detail: detail.into(),
            witness,
        }
    }

    fn unknown(detail: impl Into<String>) -> PropOutcome {
        PropOutcome {
            status: PropStatus::Unknown,
            detail: detail.into(),
            witness: Vec::new(),
        }
    }
}

/// A degree-≤2 polynomial `c + n·N + n2·N²` in `N = n_subflows`, with
/// saturating coefficients. Degree-3 products (triply-nested subflow
/// loops) saturate the quadratic coefficient, which stays a sound upper
/// bound because every evaluation also saturates at `u64::MAX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Poly {
    /// Constant coefficient.
    pub c: u64,
    /// Linear (`n_subflows`) coefficient.
    pub n: u64,
    /// Quadratic (`n_subflows^2`) coefficient.
    pub n2: u64,
}

impl Poly {
    /// The zero polynomial.
    pub const ZERO: Poly = Poly { c: 0, n: 0, n2: 0 };
    /// The constant 1.
    pub const ONE: Poly = Poly { c: 1, n: 0, n2: 0 };
    /// The identity `n_subflows`.
    pub const N: Poly = Poly { c: 0, n: 1, n2: 0 };

    /// A constant polynomial.
    pub fn constant(c: u64) -> Poly {
        Poly { c, n: 0, n2: 0 }
    }

    /// Coefficient-wise saturating sum.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Poly) -> Poly {
        Poly {
            c: self.c.saturating_add(rhs.c),
            n: self.n.saturating_add(rhs.n),
            n2: self.n2.saturating_add(rhs.n2),
        }
    }

    /// Saturating product; any degree-3 term saturates `n2` (sound:
    /// evaluation saturates too).
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Poly) -> Poly {
        let mut out = Poly::ZERO;
        out.c = self.c.saturating_mul(rhs.c);
        out.n = (self.c.saturating_mul(rhs.n)).saturating_add(self.n.saturating_mul(rhs.c));
        out.n2 = (self.c.saturating_mul(rhs.n2))
            .saturating_add(self.n.saturating_mul(rhs.n))
            .saturating_add(self.n2.saturating_mul(rhs.c));
        let cubic = (self.n != 0 && rhs.n2 != 0)
            || (self.n2 != 0 && rhs.n != 0)
            || (self.n2 != 0 && rhs.n2 != 0);
        if cubic {
            out.n2 = u64::MAX;
        }
        out
    }

    /// Coefficient-wise max (a sound upper bound for the pointwise max).
    pub fn join(self, rhs: Poly) -> Poly {
        Poly {
            c: self.c.max(rhs.c),
            n: self.n.max(rhs.n),
            n2: self.n2.max(rhs.n2),
        }
    }

    /// Saturating evaluation at `n` subflows.
    pub fn eval(self, n: u64) -> u64 {
        let lin = self.n.saturating_mul(n);
        let quad = self.n2.saturating_mul(n).saturating_mul(n);
        self.c.saturating_add(lin).saturating_add(quad)
    }

    /// Coefficient-wise `self <= rhs` (implies pointwise for all n ≥ 0).
    fn le_everywhere(self, rhs: Poly) -> bool {
        self.c <= rhs.c && self.n <= rhs.n && self.n2 <= rhs.n2
    }

    /// Pointwise `self(n) <= rhs(n)` for all n ≥ 1. Writing the
    /// difference as `Δ2(n²−n) + (Δ2+Δ1)(n−1) + (Δ2+Δ1+Δ0)` shows the
    /// three prefix-sum conditions are sufficient.
    fn le_for_positive_n(self, rhs: Poly) -> bool {
        rhs.n2 >= self.n2
            && rhs.n2.saturating_add(rhs.n) >= self.n2.saturating_add(self.n)
            && rhs.n2.saturating_add(rhs.n).saturating_add(rhs.c)
                >= self.n2.saturating_add(self.n).saturating_add(self.c)
    }

    /// Symbolic rendering, e.g. `"1"`, `"n_subflows"`, `"2*n_subflows + 1"`.
    pub fn render(self) -> String {
        let mut parts = Vec::new();
        match self.n2 {
            0 => {}
            1 => parts.push("n_subflows^2".to_string()),
            k => parts.push(format!("{k}*n_subflows^2")),
        }
        match self.n {
            0 => {}
            1 => parts.push("n_subflows".to_string()),
            k => parts.push(format!("{k}*n_subflows")),
        }
        if self.c != 0 || parts.is_empty() {
            parts.push(self.c.to_string());
        }
        parts.join(" + ")
    }
}

/// One component of the duplication bound: a polynomial plus whether
/// every contributing push site sits inside a subflow loop (in which
/// case the component only applies for `n_subflows >= 1`, letting it be
/// dominated by a linear component).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DupTerm {
    /// The per-packet push-count bound of this component.
    pub poly: Poly,
    /// True when every contributing site is inside a `FOREACH` over a
    /// subflow view (no pushes happen at `n_subflows == 0`).
    pub loop_gated: bool,
}

/// The certified per-packet duplication bound: the pointwise max of its
/// components (one per base queue family that survived domination
/// pruning).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DupBound {
    /// Surviving components; empty means the program never pushes.
    pub terms: Vec<DupTerm>,
}

impl DupBound {
    /// Evaluates the bound at `n` subflows (0 when the program never
    /// pushes).
    pub fn eval(&self, n: u64) -> u64 {
        self.terms.iter().map(|t| t.poly.eval(n)).max().unwrap_or(0)
    }

    /// Symbolic rendering: `"0"`, a single polynomial, or
    /// `"max(a, b)"` when the components are incomparable.
    pub fn render(&self) -> String {
        match self.terms.len() {
            0 => "0".to_string(),
            1 => self.terms[0].poly.render(),
            _ => {
                let mut parts: Vec<String> = self.terms.iter().map(|t| t.poly.render()).collect();
                parts.sort();
                format!("max({})", parts.join(", "))
            }
        }
    }

    /// Drops every component dominated by another: coefficient-wise for
    /// unconditional components, for-all-`n ≥ 1` for loop-gated ones
    /// (a gated component contributes nothing at `n = 0`).
    fn simplify(mut terms: Vec<DupTerm>) -> DupBound {
        terms.retain(|t| t.poly != Poly::ZERO);
        let mut keep: Vec<DupTerm> = Vec::new();
        for t in terms {
            let dominated = keep.iter().any(|k| dominates(*k, t));
            if dominated {
                continue;
            }
            keep.retain(|k| !dominates(t, *k));
            keep.push(t);
        }
        return DupBound { terms: keep };

        fn dominates(big: DupTerm, small: DupTerm) -> bool {
            if small.poly.le_everywhere(big.poly) {
                return true;
            }
            small.loop_gated && small.poly.le_for_positive_n(big.poly)
        }
    }
}

/// The per-program semantic certificate stamped into
/// [`crate::program::SchedulerProgram`] and consumed by the runtime
/// oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyCertificate {
    /// Work-conservation verdict.
    pub work_conservation: PropOutcome,
    /// Per-subflow starvation verdict.
    pub starvation: PropOutcome,
    /// Redundancy-bound verdict (always proved; the bound is the claim).
    pub redundancy: PropOutcome,
    /// Reinjection-safety verdict.
    pub reinjection: PropOutcome,
    /// The certified per-packet duplication bound.
    pub dup_bound: DupBound,
    /// `dup_bound` evaluated at the admission subflow cap — the concrete
    /// number the dynamic check enforces when the environment honors the
    /// cap.
    pub dup_cap: u64,
    /// Over-approximation of every subflow id a `PUSH` can target.
    pub allowed_ids: IdSet,
    /// True when every `POP` site (any queue) is provably guarded by an
    /// emptiness check; arms the `null_pops == 0` dynamic check.
    pub pops_fully_guarded: bool,
}

impl PropertyCertificate {
    /// The four outcomes with their lint classes, in catalogue order.
    pub fn outcomes(&self) -> [(Lint, &PropOutcome); 4] {
        [
            (Lint::WorkConservation, &self.work_conservation),
            (Lint::SubflowStarvation, &self.starvation),
            (Lint::RedundancyBound, &self.redundancy),
            (Lint::ReinjectionSafety, &self.reinjection),
        ]
    }

    /// True when no property is refuted.
    pub fn clean(&self) -> bool {
        self.outcomes()
            .iter()
            .all(|(_, o)| o.status != PropStatus::Refuted)
    }

    /// The certificate as spanned diagnostics: refutations are warnings
    /// (they never block admission), proofs and unknowns are
    /// informational. Witness steps are folded into the message.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        self.outcomes()
            .iter()
            .map(|(lint, o)| {
                let severity = match o.status {
                    PropStatus::Refuted => Severity::Warning,
                    _ => Severity::Info,
                };
                let pos = o
                    .witness
                    .first()
                    .map(|w| w.pos)
                    .unwrap_or(Pos { line: 1, col: 1 });
                Diagnostic {
                    lint: *lint,
                    severity,
                    pos,
                    message: format!("{}: {}", o.status.name(), o.detail),
                }
            })
            .collect()
    }

    /// Multi-line human-readable certificate.
    pub fn render_human(&self, name: &str) -> String {
        let mut out = format!("{name}: property certificate\n");
        for (lint, o) in self.outcomes() {
            out.push_str(&format!(
                "  {}: {} — {}\n",
                lint.name(),
                o.status.name().to_uppercase(),
                o.detail
            ));
            for w in &o.witness {
                out.push_str(&format!("    witness at {}: {}\n", w.pos, w.desc));
            }
        }
        out.push_str(&format!(
            "  dup-bound: {} (<= {} at the {}-subflow admission cap)\n",
            self.dup_bound.render(),
            self.dup_cap,
            VerifyConfig::default().max_subflows,
        ));
        out.push_str(&format!("  allowed-ids: {}\n", self.allowed_ids.render()));
        out.push_str(&format!(
            "  pops-fully-guarded: {}\n",
            if self.pops_fully_guarded { "yes" } else { "no" }
        ));
        out
    }

    /// The certificate as one JSON object (hand-rolled; no serde).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (lint, o)) in self.outcomes().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"status\":\"{}\",\"detail\":",
                lint.name().replace('-', "_"),
                o.status.name()
            ));
            json_string(&mut out, &o.detail);
            out.push_str(",\"witness\":[");
            for (j, w) in o.witness.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"line\":{},\"col\":{},\"desc\":",
                    w.pos.line, w.pos.col
                ));
                json_string(&mut out, &w.desc);
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str(",\"dup_bound\":");
        json_string(&mut out, &self.dup_bound.render());
        out.push_str(&format!(",\"dup_cap\":{}", self.dup_cap));
        out.push_str(",\"allowed_ids\":");
        json_string(&mut out, &self.allowed_ids.render());
        out.push_str(&format!(
            ",\"pops_fully_guarded\":{}}}",
            self.pops_fully_guarded
        ));
        out
    }
}

/// Deliberate analysis weakenings for the property-soundness mutation
/// sweep: each makes exactly one analysis unsound in a way the runtime
/// oracle must catch. Never used outside the conformance harness.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropWeakening {
    /// Work-conservation: treat every `FOREACH` body as executing at
    /// least once, even when the list may be empty.
    AssumeLoopsRun,
    /// Work-conservation: count a `PUSH` with possibly-`NULL` operands
    /// as a definite push.
    IgnoreNullableOperands,
    /// Redundancy: charge no loop multiplicity — every site contributes
    /// 1 regardless of enclosing `FOREACH` nesting.
    IgnoreLoopMultiplicity,
    /// Starvation: treat transient-property predicates (`RTT`, `CWND`,
    /// …) as if they constrained the stable `ID`, wrongly narrowing the
    /// allowed set.
    TreatTransientAsId,
    /// Reinjection: report every `POP` site as emptiness-guarded.
    AssumePopsGuarded,
}

#[doc(hidden)]
impl PropWeakening {
    /// All weakenings, for the mutation sweep.
    pub const ALL: [PropWeakening; 5] = [
        PropWeakening::AssumeLoopsRun,
        PropWeakening::IgnoreNullableOperands,
        PropWeakening::IgnoreLoopMultiplicity,
        PropWeakening::TreatTransientAsId,
        PropWeakening::AssumePopsGuarded,
    ];

    /// Stable name for harness output.
    pub fn name(self) -> &'static str {
        match self {
            PropWeakening::AssumeLoopsRun => "assume-loops-run",
            PropWeakening::IgnoreNullableOperands => "ignore-nullable-operands",
            PropWeakening::IgnoreLoopMultiplicity => "ignore-loop-multiplicity",
            PropWeakening::TreatTransientAsId => "treat-transient-as-id",
            PropWeakening::AssumePopsGuarded => "assume-pops-guarded",
        }
    }
}

/// Whether `subflow` is *available* in `env`, in the sense the
/// work-conservation proof assumes: `!TSQ_THROTTLED AND !LOSSY AND
/// CWND > SKBS_IN_FLIGHT + QUEUED`, the sum wrapping as the DSL's `ADD`
/// does. Everything that checks a run against a work-conservation
/// certificate, or blames a scheduler for not sending, must sample this
/// and no other reading of "available".
pub fn subflow_available(env: &dyn SchedulerEnv, subflow: SubflowId) -> bool {
    let prop = |p| env.subflow_prop(subflow, p);
    prop(SubflowProp::TsqThrottled) == 0
        && prop(SubflowProp::Lossy) == 0
        && prop(SubflowProp::Cwnd)
            > prop(SubflowProp::SkbsInFlight).wrapping_add(prop(SubflowProp::Queued))
}

/// Derives the property certificate for `prog`, with an optional
/// weakening. Runs the admission analyzer for the `POP` sites itself;
/// the compile pipeline hands the ones its admission pass found to
/// `certify` instead. The third argument is ignored; it stays only for
/// the benchmark's stage tracer until ROADMAP 7(a) removes it.
#[doc(hidden)]
pub fn verify_properties_with(
    prog: &HProgram,
    weaken: Option<PropWeakening>,
    _relational: bool,
) -> PropertyCertificate {
    let (_, pops) = dataflow::run(prog);
    certify(prog, pops, weaken)
}

/// The property certificate of `prog`, whose `POP` sites the admission
/// analyzer classified as `pops`.
pub(crate) fn certify(
    prog: &HProgram,
    pops: Vec<PopSite>,
    weaken: Option<PropWeakening>,
) -> PropertyCertificate {
    let config = VerifyConfig::default();
    let work_conservation = analyze_work_conservation(prog, weaken);
    let (starvation, allowed_ids) = analyze_starvation(prog, weaken);
    let (redundancy, dup_bound) = analyze_redundancy(prog, weaken, &config);
    let (reinjection, pops_fully_guarded) = analyze_reinjection(prog, pops, weaken);
    let dup_cap = dup_bound.eval(config.max_subflows);
    PropertyCertificate {
        work_conservation,
        starvation,
        redundancy,
        reinjection,
        dup_bound,
        dup_cap,
        allowed_ids,
        pops_fully_guarded,
    }
}

// ---------------------------------------------------------------------
// The quiescence guard.
// ---------------------------------------------------------------------

/// A fact about a connection under which a round of one program provably
/// decides nothing: no `SET`, no `DROP` of a possibly non-`NULL` packet,
/// no `PUSH` whose operands may both be non-`NULL` is reachable. A
/// disjunction of up to three atoms, each certified by one pass of the
/// abstract interpreter when the program is compiled;
/// [`Quiescence::NEVER`] when none is. The simulator does not run a round
/// whose program's guard [holds](Quiescence::holds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Quiescence(u8);

impl Quiescence {
    /// No atom: every round runs.
    pub const NEVER: Quiescence = Quiescence(0);
    /// `Q` and `RQ` are empty.
    pub const EMPTY_Q_RQ: Quiescence = Quiescence(1);
    /// `Q`, `RQ` and `QU` are empty.
    pub const EMPTY_ALL: Quiescence = Quiescence(2);
    /// No subflow is [available](subflow_available).
    pub const NO_WINDOW: Quiescence = Quiescence(4);
    /// The three atoms, in menu order.
    pub const ATOMS: [Quiescence; 3] = [
        Quiescence::EMPTY_Q_RQ,
        Quiescence::EMPTY_ALL,
        Quiescence::NO_WINDOW,
    ];

    /// The guard that holds when `self` or `other` does.
    pub fn or(self, other: Quiescence) -> Quiescence {
        Quiescence(self.0 | other.0)
    }

    /// The atoms of this guard, each as a one-atom guard.
    pub fn atoms(self) -> impl Iterator<Item = Quiescence> {
        Quiescence::ATOMS
            .into_iter()
            .filter(move |atom| self.0 & atom.0 != 0)
    }

    /// Whether the guard holds on `env` before a round starts. Nothing
    /// has been popped yet, so the queue atoms test raw emptiness. The
    /// one evaluation of a guard: the simulator and the conformance
    /// tier both call it.
    pub fn holds(&self, env: &dyn SchedulerEnv) -> bool {
        let empty = |queue| env.queue(queue).is_empty();
        let queues = Quiescence::EMPTY_Q_RQ.0 | Quiescence::EMPTY_ALL.0;
        (self.0 & queues != 0
            && empty(QueueKind::SendQueue)
            && empty(QueueKind::Reinject)
            && (self.0 & Quiescence::EMPTY_Q_RQ.0 != 0 || empty(QueueKind::Unacked)))
            || (self.0 & Quiescence::NO_WINDOW.0 != 0
                && !env.subflows().iter().any(|&s| subflow_available(env, s)))
    }

    /// The guard as `progmp-lint --inspect` prints it, e.g.
    /// `Q,RQ empty | no subflow available`, or `never`.
    pub fn render(self) -> String {
        let names: Vec<&str> = self
            .atoms()
            .map(|atom| match atom {
                Quiescence::EMPTY_Q_RQ => "Q,RQ empty",
                Quiescence::EMPTY_ALL => "Q,RQ,QU empty",
                _ => "no subflow available",
            })
            .collect();
        if names.is_empty() {
            "never".to_string()
        } else {
            names.join(" | ")
        }
    }
}

/// Derives the quiescence guard of `prog`: each atom for which one
/// forward pass of the abstract interpreter, started from the initial
/// state refined by the atom, reaches no effect. `EMPTY_ALL` is tried
/// only when `EMPTY_Q_RQ`, which it implies, is not certified.
pub(crate) fn certify_quiescence(prog: &HProgram) -> Quiescence {
    let quiet = |atom: Quiescence| {
        let mut st = AbsState::initial(prog);
        let mut az = Analyzer::quiet(prog);
        az.quiescence = true;
        az.assume_no_window = atom == Quiescence::NO_WINDOW;
        let emptied: &[QueueKind] = match atom {
            Quiescence::EMPTY_Q_RQ => &[QueueKind::SendQueue, QueueKind::Reinject],
            Quiescence::EMPTY_ALL => &QueueKind::ALL,
            _ => &[],
        };
        for &queue in emptied {
            st.queues[dataflow::queue_index(queue)] = Emptiness::Empty;
        }
        az.exec_block(&mut st, &prog.body);
        !az.effect_reached
    };
    let mut guard = Quiescence::NEVER;
    if quiet(Quiescence::EMPTY_Q_RQ) {
        guard = guard.or(Quiescence::EMPTY_Q_RQ);
    } else if quiet(Quiescence::EMPTY_ALL) {
        guard = guard.or(Quiescence::EMPTY_ALL);
    }
    if quiet(Quiescence::NO_WINDOW) {
        guard = guard.or(Quiescence::NO_WINDOW);
    }
    guard
}

// ---------------------------------------------------------------------
// Property (a): work-conservation.
// ---------------------------------------------------------------------

/// Path budget for the branch-enumeration DFS; beyond it the analysis
/// answers `Unknown`.
const MAX_WC_PATHS: usize = 4096;

struct WcAnalysis<'a> {
    prog: &'a HProgram,
    az: Analyzer<'a>,
    weaken: Option<PropWeakening>,
    paths: usize,
    overflowed: bool,
    /// First feasible path that ends without any push at all.
    refutation: Option<Vec<WitnessStep>>,
    /// Some path ends with only possibly-no-op pushes.
    saw_undecided: bool,
    /// At least one path completed (satisfied or not).
    saw_path: bool,
}

fn analyze_work_conservation(prog: &HProgram, weaken: Option<PropWeakening>) -> PropOutcome {
    // Assumption environment: send queue non-empty, >= 1 *available*
    // subflow (not TSQ-throttled, not lossy, and with congestion-window
    // room). The availability witness is
    // consulted by the analyzer when it classifies view emptiness.
    let mut st = AbsState::initial(prog);
    st.queues[dataflow::queue_index(QueueKind::SendQueue)] = Emptiness::NonEmpty;
    st.subflow_count = st
        .subflow_count
        .meet(super::domain::Interval::new(1, i64::MAX))
        .expect("initial subflow range contains [1, MAX]");
    let mut az = Analyzer::quiet(prog);
    az.assume_avail = true;
    let mut wc = WcAnalysis {
        prog,
        az,
        weaken,
        paths: 0,
        overflowed: false,
        refutation: None,
        saw_undecided: false,
        saw_path: false,
    };
    wc.walk(st, vec![(prog.body.clone(), 0)], Some(Vec::new()), false);
    if let Some(witness) = wc.refutation {
        return PropOutcome::refuted(
            "a feasible path reaches the end of the upcall without any PUSH \
             even though the send queue is non-empty and an available subflow \
             exists",
            witness,
        );
    }
    if wc.overflowed {
        return PropOutcome::unknown(format!(
            "path enumeration exceeded the {MAX_WC_PATHS}-path budget"
        ));
    }
    if wc.saw_undecided {
        return PropOutcome::unknown(
            "some paths only reach PUSHes whose operands may be NULL (the push \
             could be a no-op)",
        );
    }
    if wc.saw_path {
        PropOutcome::proved(
            "every feasible path issues a PUSH with non-NULL operands whenever \
             the send queue is non-empty and an available subflow exists",
        )
    } else {
        // Every branch combination was infeasible; vacuously conservative.
        PropOutcome::unknown("no feasible path under the assumption environment")
    }
}

impl<'a> WcAnalysis<'a> {
    fn done(&self) -> bool {
        self.refutation.is_some() || self.overflowed
    }

    /// Explores one path suffix and returns whether every feasible path
    /// through it reaches a definite push. `frames` is the stack of
    /// (block, next index) continuations, innermost last. The top level
    /// carries a witness `trail`: it explores every branch and records a
    /// path that ends without a definite push, as the refutation when it
    /// met no possibly-no-op push (`pushed_maybe`) and as undecided
    /// otherwise. A nested walk, over one `FOREACH` iteration, has no
    /// trail and stops at the first such path.
    fn walk(
        &mut self,
        mut st: AbsState,
        mut frames: Vec<(Vec<StmtId>, usize)>,
        mut trail: Option<Vec<WitnessStep>>,
        mut pushed_maybe: bool,
    ) -> bool {
        let top = trail.is_some();
        if self.done() {
            return false;
        }
        loop {
            // Past the budget a nested walk stops at once; the top level
            // finishes the statements of the path it is on.
            if self.overflowed && !top {
                return false;
            }
            let Some((body, ix)) = frames.last_mut() else {
                return self.end_path(trail, pushed_maybe, None);
            };
            if *ix >= body.len() {
                frames.pop();
                continue;
            }
            let sid = body[*ix];
            *ix += 1;
            match self.prog.stmt(sid).clone() {
                HStmt::VarDecl { .. } | HStmt::SetReg { .. } | HStmt::Drop { .. } => {
                    self.az.exec_stmt(&mut st, sid);
                }
                HStmt::Return => return self.end_path(trail, pushed_maybe, Some(sid)),
                HStmt::Push { target, packet } => {
                    let t = self.az.eval_quiet(&mut st, target).nullability();
                    let p = self.az.eval_quiet(&mut st, packet).nullability();
                    if t == Nullability::Null || p == Nullability::Null {
                        continue;
                    }
                    if self.weaken == Some(PropWeakening::IgnoreNullableOperands)
                        || (t == Nullability::NonNull && p == Nullability::NonNull)
                    {
                        self.saw_path |= top;
                        return true; // Path satisfied; prune.
                    }
                    pushed_maybe = true;
                }
                HStmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let mut all = true;
                    for (truth, branch) in [(true, then_body), (false, else_body)] {
                        if self.done() {
                            return false;
                        }
                        self.paths += 1;
                        if self.paths > MAX_WC_PATHS {
                            self.overflowed = true;
                            return false;
                        }
                        let mut branch_st = st.clone();
                        self.az.refine(&mut branch_st, cond, truth);
                        if !branch_st.reachable {
                            continue;
                        }
                        let branch_trail = trail.clone().map(|mut trail| {
                            trail.push(WitnessStep {
                                pos: self.prog.expr_pos(cond),
                                desc: format!(
                                    "condition assumed {}",
                                    if truth { "true" } else { "false" }
                                ),
                            });
                            trail
                        });
                        let mut branch_frames = frames.clone();
                        branch_frames.push((branch, 0));
                        all &= self.walk(branch_st, branch_frames, branch_trail, pushed_maybe);
                        if !all && !top {
                            return false;
                        }
                    }
                    return all;
                }
                HStmt::Foreach { slot, list, body } => {
                    let runs = self.az.view_emptiness(&st, list) == Emptiness::NonEmpty
                        || self.weaken == Some(PropWeakening::AssumeLoopsRun);
                    if runs {
                        let mut iter_st = st.clone();
                        dataflow::bind_loop_slot(&mut iter_st, slot);
                        if self.walk(iter_st, vec![(body.clone(), 0)], None, false) {
                            self.saw_path |= top;
                            return true; // >=1 iteration, every iteration pushes.
                        }
                    }
                    if let Some(trail) = &mut trail {
                        pushed_maybe |= block_contains_push(self.prog, &body);
                        trail.push(WitnessStep {
                            pos: self.prog.stmt_pos(sid),
                            desc: "loop body assumed not to issue a guaranteed PUSH".into(),
                        });
                    }
                    // Post-loop join state (covers 0..n iterations).
                    self.az.exec_stmt(&mut st, sid);
                }
            }
        }
    }

    /// A path ended without a definite push: at the top level, recorded
    /// as undecided or as the refutation. Returns false, the path's verdict.
    fn end_path(
        &mut self,
        trail: Option<Vec<WitnessStep>>,
        pushed_maybe: bool,
        at: Option<StmtId>,
    ) -> bool {
        let Some(mut trail) = trail else {
            return false;
        };
        self.saw_path = true;
        if pushed_maybe {
            self.saw_undecided = true;
            return false;
        }
        if self.refutation.is_none() {
            let pos = at
                .map(|sid| self.prog.stmt_pos(sid))
                .unwrap_or(Pos { line: 1, col: 1 });
            trail.push(WitnessStep {
                pos,
                desc: "execution ends without any PUSH".into(),
            });
            self.refutation = Some(trail);
        }
        false
    }
}

/// Whether any statement in `body` (recursively) is a `PUSH`.
fn block_contains_push(prog: &HProgram, body: &[StmtId]) -> bool {
    prog.stmts_in(body)
        .any(|sid| matches!(prog.stmt(sid), HStmt::Push { .. }))
}

// ---------------------------------------------------------------------
// Property (b): per-subflow starvation.
// ---------------------------------------------------------------------

struct StarvationAnalysis<'a> {
    prog: &'a HProgram,
    weaken: Option<PropWeakening>,
    /// Per-slot id-set for subflow and subflow-list variables.
    slot_ids: Vec<IdSet>,
    /// `(site position, target id-set)` for every push site.
    sites: Vec<(Pos, IdSet)>,
}

fn analyze_starvation(prog: &HProgram, weaken: Option<PropWeakening>) -> (PropOutcome, IdSet) {
    let mut sa = StarvationAnalysis {
        prog,
        weaken,
        slot_ids: vec![IdSet::any(); prog.n_slots],
        sites: Vec::new(),
    };
    sa.walk(&prog.body);
    let allowed = sa
        .sites
        .iter()
        .fold(IdSet::none(), |acc, (_, s)| acc.union(s));
    let cap = VerifyConfig::default().max_subflows as i64;
    if sa.sites.is_empty() {
        let outcome = PropOutcome::refuted(
            "the program contains no PUSH statement: every subflow starves",
            vec![WitnessStep {
                pos: Pos { line: 1, col: 1 },
                desc: "no PUSH site exists".into(),
            }],
        );
        return (outcome, allowed);
    }
    if let Some(id) = allowed.excluded_below(cap) {
        let witness = sa
            .sites
            .iter()
            .map(|(pos, s)| WitnessStep {
                pos: *pos,
                desc: format!("PUSH target is restricted to ids {}", s.render()),
            })
            .collect();
        let outcome = PropOutcome::refuted(
            format!(
                "subflow id {id} can never be the target of any PUSH \
                 (allowed ids: {})",
                allowed.render()
            ),
            witness,
        );
        return (outcome, allowed);
    }
    let outcome = PropOutcome::proved(format!(
        "no subflow id below the admission cap is structurally excluded \
         from PUSH targets (allowed ids: {})",
        allowed.render()
    ));
    (outcome, allowed)
}

impl<'a> StarvationAnalysis<'a> {
    fn walk(&mut self, body: &[StmtId]) {
        for &sid in body {
            match self.prog.stmt(sid).clone() {
                HStmt::VarDecl { slot, init } => {
                    let ty = self.prog.slot_ty[slot.0 as usize];
                    if matches!(ty, Type::Subflow | Type::SubflowList) {
                        let ids = self.view_ids(init);
                        self.slot_ids[slot.0 as usize] = ids;
                    }
                }
                HStmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    self.walk(&then_body);
                    self.walk(&else_body);
                }
                HStmt::Foreach { slot, list, body } => {
                    if self.prog.slot_ty[slot.0 as usize] == Type::Subflow {
                        let ids = self.view_ids(list);
                        self.slot_ids[slot.0 as usize] = ids;
                    }
                    self.walk(&body);
                }
                HStmt::Push { target, .. } => {
                    let ids = self.target_ids(target);
                    self.sites.push((self.prog.expr_pos(target), ids));
                }
                _ => {}
            }
        }
    }

    /// Id-set of a push-target expression.
    fn target_ids(&self, e: ExprId) -> IdSet {
        match self.prog.expr(e) {
            HExpr::NullSubflow => IdSet::none(),
            HExpr::ReadVar(slot) => self.slot_ids[slot.0 as usize].clone(),
            // Any element of the view may be the min/max/indexed one.
            HExpr::ListMinMax { list, .. } => self.view_ids(*list),
            HExpr::ListGet { list, .. } => self.view_ids(*list),
            _ => IdSet::any(),
        }
    }

    /// Id-set of a subflow-list view expression (which ids may be
    /// members).
    fn view_ids(&self, e: ExprId) -> IdSet {
        match self.prog.expr(e) {
            HExpr::Subflows => IdSet::any(),
            HExpr::ListFilter { list, var, pred } => {
                let base = self.view_ids(*list);
                base.intersect(&self.may_ids(*pred, *var))
            }
            HExpr::ReadVar(slot) => self.slot_ids[slot.0 as usize].clone(),
            HExpr::ListMinMax { list, .. } => self.view_ids(*list),
            HExpr::ListGet { list, .. } => self.view_ids(*list),
            _ => IdSet::any(),
        }
    }

    /// Ids for which some subflow *may* satisfy `pred` (over-approx).
    fn may_ids(&self, pred: ExprId, var: crate::hir::VarSlot) -> IdSet {
        match self.prog.expr(pred).clone() {
            HExpr::Binary {
                op: BinOp::And,
                lhs,
                rhs,
                ..
            } => self.may_ids(lhs, var).intersect(&self.may_ids(rhs, var)),
            HExpr::Binary {
                op: BinOp::Or,
                lhs,
                rhs,
                ..
            } => self.may_ids(lhs, var).union(&self.may_ids(rhs, var)),
            HExpr::Unary {
                op: UnOp::Not,
                expr,
            } => self.must_ids(expr, var).complement(),
            _ => self.id_atom(pred, var).unwrap_or_else(IdSet::any),
        }
    }

    /// Ids for which *every* subflow with that id satisfies `pred`
    /// (under-approx).
    fn must_ids(&self, pred: ExprId, var: crate::hir::VarSlot) -> IdSet {
        match self.prog.expr(pred).clone() {
            HExpr::Binary {
                op: BinOp::And,
                lhs,
                rhs,
                ..
            } => self.must_ids(lhs, var).intersect(&self.must_ids(rhs, var)),
            HExpr::Binary {
                op: BinOp::Or,
                lhs,
                rhs,
                ..
            } => self.must_ids(lhs, var).union(&self.must_ids(rhs, var)),
            HExpr::Unary {
                op: UnOp::Not,
                expr,
            } => self.may_ids(expr, var).complement(),
            // An ID-against-constant atom is exact: may == must.
            _ => self.id_atom(pred, var).unwrap_or_else(IdSet::none),
        }
    }

    /// Solves an atomic comparison `var.ID <op> const` (either operand
    /// order) to the exact satisfying id-set; `None` when the atom does
    /// not constrain the id (transient property, non-constant operand).
    fn id_atom(&self, pred: ExprId, var: crate::hir::VarSlot) -> Option<IdSet> {
        let HExpr::Binary { op, lhs, rhs, .. } = self.prog.expr(pred).clone() else {
            return None;
        };
        let (prop_side, const_side, flipped) =
            if self.const_of(rhs).is_some() && self.id_prop_of(lhs, var) {
                (lhs, rhs, false)
            } else if self.const_of(lhs).is_some() && self.id_prop_of(rhs, var) {
                (rhs, lhs, true)
            } else {
                return None;
            };
        let _ = prop_side;
        let k = self.const_of(const_side)?;
        // Normalize to `ID <op> k`.
        let op = if flipped {
            match op {
                BinOp::Lt => BinOp::Gt,
                BinOp::Le => BinOp::Ge,
                BinOp::Gt => BinOp::Lt,
                BinOp::Ge => BinOp::Le,
                other => other,
            }
        } else {
            op
        };
        let set = match op {
            BinOp::Eq => IdSet::singleton(k),
            BinOp::Ne => IdSet::singleton(k).complement(),
            BinOp::Lt => {
                if k == i64::MIN {
                    IdSet::none()
                } else {
                    IdSet::range(i64::MIN, k - 1)
                }
            }
            BinOp::Le => IdSet::range(i64::MIN, k),
            BinOp::Gt => {
                if k == i64::MAX {
                    IdSet::none()
                } else {
                    IdSet::range(k + 1, i64::MAX)
                }
            }
            BinOp::Ge => IdSet::range(k, i64::MAX),
            _ => return None,
        };
        Some(set)
    }

    /// Whether `e` reads `var.ID` (or, under the sabotage weakening, any
    /// subflow property of `var`).
    fn id_prop_of(&self, e: ExprId, var: crate::hir::VarSlot) -> bool {
        let HExpr::SubflowProp { sbf, prop } = self.prog.expr(e) else {
            return false;
        };
        let reads_var = matches!(self.prog.expr(*sbf), HExpr::ReadVar(s) if *s == var);
        if !reads_var {
            return false;
        }
        *prop == SubflowProp::Id || self.weaken == Some(PropWeakening::TreatTransientAsId)
    }

    /// Constant integer value of `e`, if syntactically evident.
    fn const_of(&self, e: ExprId) -> Option<i64> {
        match self.prog.expr(e) {
            HExpr::Int(v) => Some(*v),
            HExpr::Bool(b) => Some(i64::from(*b)),
            HExpr::Unary {
                op: UnOp::Neg,
                expr,
            } => match self.prog.expr(*expr) {
                HExpr::Int(v) => Some(v.wrapping_neg()),
                _ => None,
            },
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Property (c): redundancy bound.
// ---------------------------------------------------------------------

/// Base-queue families packets can be drawn from. Packets in distinct
/// queues never alias within one execution, so per-packet push counts
/// are summed per family and the bound is the max across families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QFam {
    Send,
    Unacked,
    Reinject,
    /// Unresolvable source: folded into every family (may alias any).
    Other,
}

impl QFam {
    fn index(self) -> usize {
        match self {
            QFam::Send => 0,
            QFam::Unacked => 1,
            QFam::Reinject => 2,
            QFam::Other => 3,
        }
    }

    fn of(kind: QueueKind) -> QFam {
        match kind {
            QueueKind::SendQueue => QFam::Send,
            QueueKind::Unacked => QFam::Unacked,
            QueueKind::Reinject => QFam::Reinject,
        }
    }
}

/// Per-family accumulated push-count bounds along one path prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct QBounds {
    terms: [DupTerm; 4],
}

impl QBounds {
    fn zero() -> QBounds {
        QBounds {
            terms: [DupTerm {
                poly: Poly::ZERO,
                loop_gated: true, // vacuously: no site yet
            }; 4],
        }
    }

    fn add(&mut self, fam: QFam, poly: Poly, in_subflow_loop: bool) {
        let t = &mut self.terms[fam.index()];
        t.poly = t.poly.add(poly);
        t.loop_gated &= in_subflow_loop;
    }

    /// Branch join: coefficient-wise max per family (sound for the
    /// pointwise max since later additions distribute monotonically).
    fn join(self, other: QBounds) -> QBounds {
        let mut out = QBounds::zero();
        for i in 0..4 {
            out.terms[i] = DupTerm {
                poly: self.terms[i].poly.join(other.terms[i].poly),
                loop_gated: self.terms[i].loop_gated && other.terms[i].loop_gated,
            };
        }
        out
    }

    /// Sequential composition: per-family sums.
    fn seq(self, other: QBounds) -> QBounds {
        let mut out = QBounds::zero();
        for i in 0..4 {
            out.terms[i] = DupTerm {
                poly: self.terms[i].poly.add(other.terms[i].poly),
                loop_gated: self.terms[i].loop_gated && other.terms[i].loop_gated,
            };
        }
        out
    }
}

/// Where a packet-valued slot's contents came from, for multiplicity
/// accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PacketSrc {
    fam: QFam,
    /// True for `TOP`/`MIN`/`MAX`/`GET` sources: re-evaluation can yield
    /// the *same* packet, so the site is charged its full loop
    /// multiplicity. False for `POP` sources, which yield a fresh packet
    /// per evaluation.
    repeatable: bool,
    /// Loop-nesting depth at which the value was created (pops only):
    /// multiplicity is the product of loop factors entered *after* this
    /// depth.
    depth: usize,
}

struct DupAnalysis<'a> {
    prog: &'a HProgram,
    weaken: Option<PropWeakening>,
    config: &'a VerifyConfig,
    /// Enclosing loop factors, outermost first; `bool` marks a loop over
    /// a subflow-derived view (gates its sites on `n_subflows >= 1`).
    factors: Vec<(Poly, bool)>,
    slot_src: Vec<Option<PacketSrc>>,
    /// Bounds of fully-returned paths (max'd at the end).
    finished: Vec<QBounds>,
}

/// Outcome of walking one block: the fall-through accumulation (when at
/// least one path falls through).
type FallThrough = Option<QBounds>;

fn analyze_redundancy(
    prog: &HProgram,
    weaken: Option<PropWeakening>,
    config: &VerifyConfig,
) -> (PropOutcome, DupBound) {
    let mut da = DupAnalysis {
        prog,
        weaken,
        config,
        factors: Vec::new(),
        slot_src: vec![None; prog.n_slots],
        finished: Vec::new(),
    };
    let fall = da.walk_block(&prog.body, QBounds::zero());
    let mut joined = fall.unwrap_or_else(QBounds::zero);
    for f in da.finished {
        joined = joined.join(f);
    }
    // Fold the unresolvable family into every concrete one (it may alias
    // any of them), then prune dominated components.
    let other = joined.terms[QFam::Other.index()];
    let mut terms = Vec::new();
    for fam in [QFam::Send, QFam::Unacked, QFam::Reinject] {
        let t = joined.terms[fam.index()];
        terms.push(DupTerm {
            poly: t.poly.add(other.poly),
            loop_gated: t.loop_gated && (other.poly == Poly::ZERO || other.loop_gated),
        });
    }
    let bound = DupBound::simplify(terms);
    let outcome = PropOutcome::proved(format!(
        "one packet is pushed at most {} time(s) per upcall",
        bound.render()
    ));
    (outcome, bound)
}

impl<'a> DupAnalysis<'a> {
    /// Walks `body`, threading the path accumulation `acc`; returns the
    /// fall-through bounds, recording returned paths in `self.finished`.
    fn walk_block(&mut self, body: &[StmtId], mut acc: QBounds) -> FallThrough {
        for &sid in body {
            match self.prog.stmt(sid).clone() {
                HStmt::VarDecl { slot, init } => {
                    if self.prog.slot_ty[slot.0 as usize] == Type::Packet {
                        self.slot_src[slot.0 as usize] = Some(self.packet_src(init));
                    }
                }
                HStmt::SetReg { .. } | HStmt::Drop { .. } => {}
                HStmt::Return => {
                    self.finished.push(acc);
                    return None;
                }
                HStmt::Push { packet, .. } => {
                    let src = self.packet_src(packet);
                    let in_loop = self.factors.iter().any(|(_, subflow)| *subflow);
                    acc.add(src.fam, self.multiplicity(src), in_loop);
                }
                HStmt::If {
                    cond: _,
                    then_body,
                    else_body,
                } => {
                    let then_fall = self.walk_block(&then_body, acc);
                    let else_fall = self.walk_block(&else_body, acc);
                    acc = match (then_fall, else_fall) {
                        (Some(a), Some(b)) => a.join(b),
                        (Some(a), None) => a,
                        (None, Some(b)) => b,
                        (None, None) => return None,
                    };
                }
                HStmt::Foreach { slot, list, body } => {
                    let subflow_loop = self.prog.ty(list) == Type::SubflowList;
                    let factor = if self.weaken == Some(PropWeakening::IgnoreLoopMultiplicity) {
                        Poly::ONE
                    } else if subflow_loop {
                        Poly::N
                    } else {
                        // Loops over packet views are bounded by the
                        // admission queue cap, not by n_subflows.
                        Poly::constant(self.config.max_queue_len)
                    };
                    if self.prog.slot_ty[slot.0 as usize] == Type::Packet {
                        // Loop variable over a packet queue: the element
                        // is fresh per iteration, like a pop.
                        self.slot_src[slot.0 as usize] = Some(PacketSrc {
                            fam: view_fam(self.prog, list),
                            repeatable: false,
                            depth: self.factors.len() + 1,
                        });
                    }
                    self.factors.push((factor, subflow_loop));
                    // Site multiplicities inside the body already include
                    // the loop factor, so the body contribution is added
                    // once (0 iterations contribute nothing).
                    let body_fall = self.walk_block(&body, QBounds::zero());
                    self.factors.pop();
                    if let Some(b) = body_fall {
                        acc = acc.seq(b);
                    }
                }
            }
        }
        Some(acc)
    }

    /// Per-packet multiplicity of a push site for a packet from `src`:
    /// the product of loop factors entered after the value's creation
    /// point (repeatable sources are charged every enclosing factor).
    fn multiplicity(&self, src: PacketSrc) -> Poly {
        let from = if src.repeatable { 0 } else { src.depth };
        self.factors[from.min(self.factors.len())..]
            .iter()
            .fold(Poly::ONE, |p, (f, _)| p.mul(*f))
    }

    /// Classifies the packet expression at a push or var-decl site.
    fn packet_src(&self, e: ExprId) -> PacketSrc {
        match self.prog.expr(e) {
            HExpr::QueuePop(view) => PacketSrc {
                fam: view_fam(self.prog, *view),
                repeatable: false,
                depth: self.factors.len(),
            },
            HExpr::QueueTop(view) | HExpr::QueueMinMax { queue: view, .. } => PacketSrc {
                fam: view_fam(self.prog, *view),
                repeatable: true,
                depth: 0,
            },
            HExpr::ReadVar(slot) => self.slot_src[slot.0 as usize].unwrap_or(PacketSrc {
                fam: QFam::Other,
                repeatable: true,
                depth: 0,
            }),
            HExpr::NullPacket => PacketSrc {
                // A NULL push is a no-op; zero contribution would be
                // tighter but Other/repeatable stays sound and simple.
                fam: QFam::Other,
                repeatable: true,
                depth: 0,
            },
            _ => PacketSrc {
                fam: QFam::Other,
                repeatable: true,
                depth: 0,
            },
        }
    }
}

/// The family of the base queue of packet view `view`.
fn view_fam(prog: &HProgram, view: ExprId) -> QFam {
    prog.view_chain(view)
        .and_then(|chain| chain.base.queue())
        .map_or(QFam::Other, QFam::of)
}

// ---------------------------------------------------------------------
// Property (d): reinjection safety.
// ---------------------------------------------------------------------

/// Reinjection safety and `pops_fully_guarded`, read off the `POP` sites
/// the collecting pass of the admission analyzer classified.
fn analyze_reinjection(
    prog: &HProgram,
    mut sites: Vec<PopSite>,
    weaken: Option<PropWeakening>,
) -> (PropOutcome, bool) {
    if weaken == Some(PropWeakening::AssumePopsGuarded) {
        for s in &mut sites {
            s.emptiness = Emptiness::NonEmpty;
        }
    }
    let fully_guarded = sites.iter().all(|s| s.emptiness == Emptiness::NonEmpty);
    // RQ safety considers pops whose base queue is (or may be) RQ.
    let rq: Vec<&PopSite> = sites
        .iter()
        .filter(|s| matches!(view_fam(prog, s.view), QFam::Reinject | QFam::Other))
        .collect();
    let outcome = if rq.is_empty() {
        PropOutcome::proved("the program never pops the reinjection queue")
    } else if let Some(bad) = rq.iter().find(|s| s.emptiness == Emptiness::Empty) {
        PropOutcome::refuted(
            "a reinjection-queue POP executes on a provably-empty view",
            vec![WitnessStep {
                pos: prog.expr_pos(bad.at),
                desc: "POP from a provably-empty reinjection view".into(),
            }],
        )
    } else if rq.iter().all(|s| s.emptiness == Emptiness::NonEmpty) {
        PropOutcome::proved(format!(
            "all {} reinjection-queue POP site(s) are dominated by a \
             non-emptiness guard",
            rq.len()
        ))
    } else {
        PropOutcome::unknown(
            "some reinjection-queue POP may execute on an empty view \
             (no dominating emptiness guard)",
        )
    };
    (outcome, fully_guarded)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cert(source: &str) -> PropertyCertificate {
        cert_weakened(source, None)
    }

    /// The certificate of the HIR `compile` certifies (optimized), with
    /// `weaken` injected.
    fn cert_weakened(source: &str, weaken: Option<PropWeakening>) -> PropertyCertificate {
        let ast = crate::parser::parse(source).expect("parses");
        let mut hir = crate::sema::lower(&ast).expect("lowers");
        crate::optimizer::optimize(&mut hir);
        verify_properties_with(&hir, weaken, true)
    }

    const MIN_RTT: &str =
        "IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) { SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP()); }";

    const STARVER: &str = "VAR fast = SUBFLOWS.FILTER(sbf => sbf.ID == 0).MIN(sbf => sbf.RTT);
         IF (fast != NULL AND !Q.EMPTY) { fast.PUSH(Q.POP()); }";

    const REDUNDANT: &str = "FOREACH (VAR sbf IN SUBFLOWS) { sbf.PUSH(Q.TOP); }
         IF (!Q.EMPTY) { DROP(Q.POP()); }";

    #[test]
    fn guarded_min_rtt_proves_everything() {
        let c = cert(MIN_RTT);
        assert_eq!(c.work_conservation.status, PropStatus::Proved, "{c:?}");
        assert_eq!(c.starvation.status, PropStatus::Proved);
        assert!(c.allowed_ids.is_any());
        assert_eq!(c.dup_bound.render(), "1");
        assert_eq!(c.reinjection.status, PropStatus::Proved);
        assert!(c.pops_fully_guarded);
        assert!(c.clean());
    }

    #[test]
    fn starver_is_refuted_with_spanned_witness() {
        let c = cert(STARVER);
        assert_eq!(c.starvation.status, PropStatus::Refuted);
        assert!(!c.starvation.witness.is_empty());
        assert!(c.starvation.witness[0].pos.line >= 1);
        assert_eq!(c.allowed_ids.render(), "{0}");
        assert!(
            c.starvation.detail.contains("subflow id 1"),
            "{}",
            c.starvation.detail
        );
        // The MaybeNull filter also breaks work-conservation certainty.
        assert_ne!(c.work_conservation.status, PropStatus::Proved);
        assert!(!c.clean());
    }

    #[test]
    fn no_push_program_refutes_both_liveness_properties() {
        let c = cert("SET(R1, R1 + 1);");
        assert_eq!(c.work_conservation.status, PropStatus::Refuted);
        assert!(!c.work_conservation.witness.is_empty());
        assert_eq!(c.starvation.status, PropStatus::Refuted);
        assert_eq!(c.dup_bound.render(), "0");
        assert!(c.allowed_ids.is_empty());
    }

    #[test]
    fn redundant_broadcast_has_linear_dup_bound() {
        let c = cert(REDUNDANT);
        assert_eq!(c.dup_bound.render(), "n_subflows");
        assert_eq!(c.dup_cap, VerifyConfig::default().max_subflows);
        assert_eq!(c.redundancy.status, PropStatus::Proved);
        // The unguarded DROP-side POP is guarded here; the TOP is not a pop.
        assert!(c.pops_fully_guarded);
    }

    #[test]
    fn inline_pop_in_loop_is_not_charged_loop_multiplicity() {
        // Each iteration pops a fresh packet: per-packet dup stays 1, and
        // the loop-gated constant is dominated by nothing bigger.
        let c = cert("FOREACH (VAR sbf IN SUBFLOWS) { sbf.PUSH(Q.POP()); }");
        assert_eq!(c.dup_bound.render(), "1");
    }

    #[test]
    fn loop_invariant_packet_is_charged_loop_multiplicity() {
        let c = cert(
            "VAR skb = Q.POP();
             FOREACH (VAR sbf IN SUBFLOWS) { sbf.PUSH(skb); }",
        );
        assert_eq!(c.dup_bound.render(), "n_subflows");
    }

    #[test]
    fn rq_pop_guarded_by_top_null_check_is_proved() {
        let c = cert(
            "VAR rqSkb = RQ.TOP;
             IF (rqSkb != NULL AND !SUBFLOWS.EMPTY) {
                 SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(RQ.POP());
                 RETURN;
             }",
        );
        assert_eq!(
            c.reinjection.status,
            PropStatus::Proved,
            "{:?}",
            c.reinjection
        );
        assert!(c.pops_fully_guarded);
    }

    #[test]
    fn unguarded_rq_pop_is_not_proved() {
        let c = cert("VAR p = RQ.POP(); IF (p != NULL) { SUBFLOWS.GET(0).PUSH(p); }");
        assert_eq!(c.reinjection.status, PropStatus::Unknown);
        assert!(!c.pops_fully_guarded);
    }

    #[test]
    fn weakenings_flip_the_expected_verdicts() {
        // assume-loops-run: a loop over a possibly-empty filtered list is
        // treated as executing, wrongly proving work-conservation.
        let filtered_loop = "FOREACH (VAR sbf IN SUBFLOWS.FILTER(s => s.RTT < 0)) {
                 sbf.PUSH(Q.TOP);
             }";
        assert_ne!(
            cert(filtered_loop).work_conservation.status,
            PropStatus::Proved
        );
        assert_eq!(
            cert_weakened(filtered_loop, Some(PropWeakening::AssumeLoopsRun))
                .work_conservation
                .status,
            PropStatus::Proved
        );

        // ignore-nullable-operands: a maybe-NULL push counts as definite.
        let maybe_null_push = "VAR s = SUBFLOWS.FILTER(x => x.ID == 0).MIN(x => x.RTT);
             s.PUSH(Q.TOP);";
        assert_eq!(
            cert(maybe_null_push).work_conservation.status,
            PropStatus::Unknown
        );
        assert_eq!(
            cert_weakened(maybe_null_push, Some(PropWeakening::IgnoreNullableOperands))
                .work_conservation
                .status,
            PropStatus::Proved
        );

        // ignore-loop-multiplicity: the broadcast claims dup 1.
        assert_eq!(
            cert_weakened(REDUNDANT, Some(PropWeakening::IgnoreLoopMultiplicity))
                .dup_bound
                .render(),
            "1"
        );

        // treat-transient-as-id: an RTT filter wrongly narrows the
        // allowed-id set and refutes starvation-freedom.
        let rtt_filter = "VAR s = SUBFLOWS.FILTER(x => x.RTT == 5).MIN(x => x.RTT);
             IF (s != NULL AND !Q.EMPTY) { s.PUSH(Q.POP()); }";
        assert_eq!(cert(rtt_filter).starvation.status, PropStatus::Proved);
        let weakened = cert_weakened(rtt_filter, Some(PropWeakening::TreatTransientAsId));
        assert_eq!(weakened.starvation.status, PropStatus::Refuted);
        assert_eq!(weakened.allowed_ids.render(), "{5}");

        // assume-pops-guarded: an unguarded pop is reported guarded.
        let unguarded = "VAR p = Q.POP(); IF (p != NULL) { SUBFLOWS.GET(0).PUSH(p); }";
        assert!(!cert(unguarded).pops_fully_guarded);
        assert!(
            cert_weakened(unguarded, Some(PropWeakening::AssumePopsGuarded)).pops_fully_guarded
        );
    }

    #[test]
    fn poly_algebra_saturates_and_renders() {
        assert_eq!(Poly::N.mul(Poly::N).render(), "n_subflows^2");
        assert_eq!(
            Poly::N.mul(Poly::N).mul(Poly::N).n2,
            u64::MAX,
            "cubic saturates"
        );
        let p = Poly { c: 1, n: 2, n2: 0 };
        assert_eq!(p.render(), "2*n_subflows + 1");
        assert_eq!(p.eval(10), 21);
        assert_eq!(Poly::constant(u64::MAX).add(Poly::ONE).c, u64::MAX);
    }

    #[test]
    fn dup_bound_domination_respects_loop_gating() {
        // A loop-gated constant 1 is dominated by n_subflows (for n >= 1
        // the linear term wins; at n = 0 the gated site cannot execute).
        let gated_one = DupTerm {
            poly: Poly::ONE,
            loop_gated: true,
        };
        let linear = DupTerm {
            poly: Poly::N,
            loop_gated: true,
        };
        let b = DupBound::simplify(vec![gated_one, linear]);
        assert_eq!(b.render(), "n_subflows");
        // An ungated constant is NOT dominated: at n = 1 it may exceed...
        let ungated_two = DupTerm {
            poly: Poly { c: 2, n: 0, n2: 0 },
            loop_gated: false,
        };
        let b = DupBound::simplify(vec![ungated_two, linear]);
        assert_eq!(b.render(), "max(2, n_subflows)");
        assert_eq!(b.eval(1), 2);
        assert_eq!(b.eval(5), 5);
    }

    #[test]
    fn availability_is_the_filter_the_paper_schedulers_write() {
        // The concrete predicate and the DSL conjunction the proof
        // pattern-matches must agree on every subflow, including the
        // wrapping sum.
        const AVAIL_COUNT: &str = "SET(R1, SUBFLOWS.FILTER(sbf => !sbf.TSQ_THROTTLED
            AND !sbf.LOSSY AND sbf.CWND > sbf.SKBS_IN_FLIGHT + sbf.QUEUED).COUNT);";
        use crate::env::RegId;
        use SubflowProp::{Cwnd, Lossy, Queued, SkbsInFlight, TsqThrottled};
        let mut env = crate::testenv::MockEnv::new();
        let cases: [&[(SubflowProp, i64)]; 6] = [
            &[(Cwnd, 10), (SkbsInFlight, 4), (Queued, 5)],
            &[(Cwnd, 10), (SkbsInFlight, 5), (Queued, 5)],
            &[(Cwnd, 10), (TsqThrottled, 1)],
            &[(Cwnd, 10), (Lossy, 1)],
            &[(Cwnd, 0)],
            &[(Cwnd, 10), (SkbsInFlight, i64::MAX), (Queued, 1)],
        ];
        for (id, props) in cases.iter().enumerate() {
            env.add_subflow(id as u32);
            for &(prop, value) in *props {
                env.set_subflow_prop(id as u32, prop, value);
            }
        }
        let available: Vec<bool> = (0..cases.len() as u32)
            .map(|id| subflow_available(&env, SubflowId(id)))
            .collect();
        assert_eq!(available, [true, false, false, false, false, true]);
        let prog = crate::program::compile(AVAIL_COUNT).unwrap();
        prog.instantiate(crate::program::Backend::Interpreter)
            .execute(&mut env)
            .unwrap();
        let counted = available.iter().filter(|a| **a).count() as i64;
        assert_eq!(env.register(RegId::R1), counted);
    }

    fn guard(source: &str) -> Quiescence {
        crate::program::compile(source).unwrap().quiescence()
    }

    #[test]
    fn quiescence_atoms_are_certified_by_reachability() {
        // An emptiness guard in front of every effect: both queue atoms
        // make it unreachable, so only the weaker one is kept.
        assert_eq!(guard(MIN_RTT), Quiescence::EMPTY_Q_RQ);
        // A write reachable on every path certifies nothing.
        assert_eq!(guard("SET(R1, 1);"), Quiescence::NEVER);
        // QU feeds a push, so only the atom that empties it holds.
        let catch_up = "FOREACH (VAR sbf IN SUBFLOWS) {
                VAR skb = QU.FILTER(s => !s.SENT_ON(sbf)).TOP;
                IF (skb != NULL) { sbf.PUSH(skb); }
            }";
        assert_eq!(guard(catch_up), Quiescence::EMPTY_ALL);
        // A drop whose operand may be non-NULL is an effect; one that
        // pops a provably empty queue is not.
        assert_eq!(guard("DROP(QU.POP());"), Quiescence::EMPTY_ALL);
        assert_eq!(guard("DROP(Q.POP());"), Quiescence::EMPTY_Q_RQ);
    }

    #[test]
    fn no_window_needs_all_three_conjuncts_anywhere_in_the_chain() {
        // Split over two filters, in another order, beside other
        // conjuncts, and through a variable: still empty when no subflow
        // is available, including the loop over it.
        let split = "VAR open = SUBFLOWS.FILTER(s => s.SKBS_IN_FLIGHT + s.QUEUED < s.CWND
                AND s.COST == 0);
            VAR ok = open.FILTER(s => !s.LOSSY AND s.RTT < 100 AND !s.TSQ_THROTTLED);
            FOREACH (VAR sbf IN ok) { sbf.PUSH(QU.TOP); }
            VAR best = ok.MIN(s => s.RTT);
            IF (best != NULL) { SET(R2, 1); best.PUSH(Q.POP()); }";
        assert_eq!(guard(split), Quiescence::NO_WINDOW);
        // Without `!LOSSY` a lossy subflow with window may still be
        // chosen; only emptying `QU` silences the push.
        let partial = "VAR s = SUBFLOWS.FILTER(s => !s.TSQ_THROTTLED
                AND s.CWND > s.SKBS_IN_FLIGHT + s.QUEUED).MIN(s => s.RTT);
            IF (s != NULL) { s.PUSH(QU.TOP); }";
        assert_eq!(guard(partial), Quiescence::EMPTY_ALL);
        // A conjunct under OR does not count.
        let or = "VAR s = SUBFLOWS.FILTER(s => !s.TSQ_THROTTLED AND !s.LOSSY
                AND (s.CWND > s.SKBS_IN_FLIGHT + s.QUEUED OR s.RTT < 5)).MIN(s => s.RTT);
            IF (s != NULL) { s.PUSH(QU.TOP); }";
        assert_eq!(guard(or), Quiescence::EMPTY_ALL);
    }

    #[test]
    fn a_guard_holds_on_raw_emptiness_or_no_available_subflow() {
        use crate::testenv::MockEnv;
        use SubflowProp::{Cwnd, SkbsInFlight};
        let all = Quiescence::ATOMS
            .into_iter()
            .fold(Quiescence::NEVER, Quiescence::or);
        let mut env = MockEnv::new();
        env.add_subflow(0);
        env.set_subflow_prop(0, Cwnd, 10);
        assert!(Quiescence::EMPTY_Q_RQ.holds(&env) && Quiescence::EMPTY_ALL.holds(&env));
        assert!(!Quiescence::NO_WINDOW.holds(&env) && !Quiescence::NEVER.holds(&env));
        env.push_packet(QueueKind::Unacked, 1, 0, 1400);
        assert!(Quiescence::EMPTY_Q_RQ.holds(&env) && !Quiescence::EMPTY_ALL.holds(&env));
        env.push_packet(QueueKind::SendQueue, 2, 0, 1400);
        assert!(!all.holds(&env));
        env.set_subflow_prop(0, SkbsInFlight, 10);
        assert!(Quiescence::NO_WINDOW.holds(&env) && all.holds(&env));
        assert_eq!(Quiescence::NEVER.render(), "never");
        assert_eq!(
            all.render(),
            "Q,RQ empty | Q,RQ,QU empty | no subflow available"
        );
    }

    #[test]
    fn certificate_renders_human_and_json() {
        let c = cert(MIN_RTT);
        let human = c.render_human("minRtt");
        assert!(human.contains("minRtt: property certificate"));
        assert!(human.contains("work-conservation: PROVED"));
        assert!(human.contains("dup-bound: 1"));
        let json = c.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"work_conservation\":{\"status\":\"proved\""));
        assert!(json.contains("\"pops_fully_guarded\":true"));
        // Refutations carry their witness in JSON too.
        let s = cert(STARVER);
        assert!(s.render_json().contains("\"witness\":[{\"line\":"));
        // And as warning-severity spanned diagnostics.
        let diags = s.diagnostics();
        assert!(diags
            .iter()
            .any(|d| d.lint == Lint::SubflowStarvation && d.severity == Severity::Warning));
    }
}
