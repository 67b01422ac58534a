//! Chaos-mode differential conformance: seeded fault plans against the
//! full simulator, diffed across all three execution backends.
//!
//! Where [`crate::differ`] exercises one scheduler execution on a mock
//! environment, chaos mode drives whole simulated transfers — paths,
//! congestion control, the receiver, and a generated
//! [`mptcp_sim::FaultPlan`] (blackouts, burst loss, jitter, rwnd stalls,
//! subflow churn) — with the runtime invariant oracle watching every
//! event. A case fails when
//!
//! * any backend's final trace digest differs from the others (the
//!   digest is behaviour only: per-backend cost counters such as
//!   `scheduler_steps` legitimately differ and are not in it), or
//! * the invariant oracle reports a violation on any backend, or
//! * the run fails to complete inside the generous simulated horizon.
//!
//! Failing cases are shrunk with the same greedy-fixpoint discipline as
//! [`crate::shrink`]: drop fault clauses, shorten the flow, simplify the
//! path mix — keeping whatever still fails, until nothing smaller does.
//! Everything replays from the case seed alone.

use crate::rng::Draw;
use crate::tier::{Probe, Report};
use mptcp_sim::time::{from_millis, SimTime, SECONDS};
use mptcp_sim::{
    ChaosRng, ConnectionConfig, FaultPlan, PathConfig, SchedulerSpec, Sim, SubflowConfig,
};
use progmp_core::env::RegId;
use progmp_core::Backend;

/// Domain separation for the case generator, so chaos seed `n` shares
/// nothing with program-generator seed `n`.
const CHAOS_SALT: u64 = 0x51AB_0C4A_0551_AB0C;

/// Simulated-time budget per run; transfers that miss it count as a
/// liveness failure for the case.
const HORIZON: SimTime = 300 * SECONDS;

/// One generated chaos case: everything needed to replay a simulated
/// transfer bit-identically, derived purely from [`ChaosCase::seed`].
#[derive(Debug, Clone)]
pub struct ChaosCase {
    /// The generating seed (also the simulator seed).
    pub seed: u64,
    /// One of the paper's schedulers, [`progmp_schedulers::PAPER`]: each
    /// must behave identically on every backend under every fault plan.
    pub scheduler: &'static str,
    /// Per-path round-trip times (milliseconds).
    pub rtts_ms: Vec<u64>,
    /// Baseline random loss applied to every path.
    pub loss: f64,
    /// Path rate in bytes/second.
    pub rate: u64,
    /// Application bytes to transfer (backlogged bulk source).
    pub flow_bytes: u64,
    /// The fault schedule.
    pub plan: FaultPlan,
    /// Initial `R1` value (application intent for `tap`/`targetRtt`).
    pub r1: Option<i64>,
}

impl ChaosCase {
    /// Derives a case from `seed`. Pure: equal seeds give equal cases.
    pub fn generate(seed: u64) -> ChaosCase {
        let mut rng = ChaosRng::new(seed ^ CHAOS_SALT);
        let scheduler = *rng.pick(&progmp_schedulers::PAPER);
        let n_paths = 2 + rng.below(2); // 2..=3
        let rtts_ms: Vec<u64> = (0..n_paths).map(|_| 5 + rng.below(75)).collect();
        let loss = rng.below(20) as f64 / 1000.0; // 0..2%
        let rate = [250_000u64, 1_250_000, 5_000_000][rng.below(3) as usize];
        let flow_bytes = 20_000 + rng.below(180_000);
        let plan = FaultPlan::generate(rng.next_u64(), n_paths as u32, 2 * SECONDS);
        let r1 = match scheduler {
            // Target bandwidth (bytes/s) for tap; tolerable RTT (µs) for
            // targetRtt — both must be non-degenerate to exercise the
            // interesting branches.
            "tap" => Some(1_000_000),
            "targetRtt" => Some(40_000 + rng.below(80_000) as i64),
            _ => None,
        };
        ChaosCase {
            seed,
            scheduler,
            rtts_ms,
            loss,
            rate,
            flow_bytes,
            plan,
            r1,
        }
    }

    /// One-line replayable description.
    pub fn describe(&self) -> String {
        format!(
            "seed={} scheduler={} paths={:?}ms loss={:.3} rate={} flow={} r1={:?} plan=[{}]",
            self.seed,
            self.scheduler,
            self.rtts_ms,
            self.loss,
            self.rate,
            self.flow_bytes,
            self.r1,
            self.plan.render().lines().collect::<Vec<_>>().join("; "),
        )
    }
}

/// Result of running one case on one backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendRun {
    /// Backend-independent trace digest (see [`run_backend`]).
    pub digest: String,
    /// Rendered invariant-oracle violations (empty on a clean run).
    pub violations: Vec<String>,
    /// Whether the transfer fully completed inside the horizon.
    pub completed: bool,
    /// An incomplete transfer whose leftover data is stranded in the
    /// reinjection queue under a scheduler that provably never pops
    /// `RQ`: an expected stall (no reinjection logic), not a failure.
    pub stall_expected: bool,
}

/// Runs `case` on `backend`. With `inject_bug` the receiver's hidden
/// double-delivery defect is enabled (the mutation check's target).
pub fn run_backend(case: &ChaosCase, backend: Backend, inject_bug: bool) -> BackendRun {
    let source = progmp_schedulers::source(case.scheduler).expect("known scheduler");
    let mut sim = Sim::new(case.seed);
    sim.enable_oracle(format!("chaos seed {}", case.seed), false);
    let subflows = case
        .rtts_ms
        .iter()
        .map(|ms| {
            SubflowConfig::new(
                PathConfig::symmetric(from_millis(*ms), case.rate).with_loss(case.loss),
            )
        })
        .collect();
    let cfg = ConnectionConfig::new(subflows, SchedulerSpec::dsl_on(source, backend));
    let conn = sim.add_connection(cfg).expect("paper schedulers compile");
    if inject_bug {
        sim.connections[conn].receiver.inject_double_delivery_bug();
    }
    if let Some(v) = case.r1 {
        sim.set_register_at(conn, 0, RegId::R1, v);
    }
    sim.add_bulk_source(conn, case.flow_bytes, 0);
    sim.apply_fault_plan(conn, &case.plan);
    sim.run_to_completion(HORIZON);

    let c = &sim.connections[conn];
    // `snapshot_text` is behaviour only: per-backend cost counters
    // measure *how* a backend executed, not *what* it did.
    let mut digest = c.stats.snapshot_text();
    digest.push_str(&format!(
        "reinjections {}\ndelivered_total {}\nall_acked {}\n",
        c.stats.reinjections,
        c.receiver.delivered_total,
        c.all_acked(),
    ));
    let rq_stranded = {
        use progmp_core::env::{QueueKind, SchedulerEnv};
        c.queue(QueueKind::SendQueue).is_empty() && !c.queue(QueueKind::Reinject).is_empty()
    };
    BackendRun {
        digest,
        violations: sim
            .oracle_violations()
            .iter()
            .map(|v| v.to_string())
            .collect(),
        completed: c.all_acked(),
        stall_expected: !c.all_acked() && rq_stranded && !c.pops_rq(),
    }
}

/// Failure modes of one case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosFailure {
    /// Two backends produced different digests.
    Divergence {
        /// Name of the first disagreeing backend.
        backend: &'static str,
        /// First differing digest line: `(reference, disagreeing)`.
        first_diff: (String, String),
    },
    /// The invariant oracle flagged at least one violation.
    Violation(Vec<String>),
    /// The transfer missed the simulated-time horizon on some backend.
    Stalled,
}

impl std::fmt::Display for ChaosFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosFailure::Divergence {
                backend,
                first_diff,
            } => write!(
                f,
                "backend {backend} diverges: {:?} != {:?}",
                first_diff.0, first_diff.1
            ),
            ChaosFailure::Violation(v) => write!(f, "invariant violations: {}", v.join(" | ")),
            ChaosFailure::Stalled => write!(f, "transfer did not complete within the horizon"),
        }
    }
}

/// Runs `case` on every backend (optionally with the injected receiver
/// bug) and classifies the outcome. `None` means the case is clean.
pub fn check_case(case: &ChaosCase, inject_bug: bool) -> Option<ChaosFailure> {
    let runs: Vec<BackendRun> = Backend::ALL
        .iter()
        .map(|b| run_backend(case, *b, inject_bug))
        .collect();
    for run in &runs {
        if !run.violations.is_empty() {
            return Some(ChaosFailure::Violation(run.violations.clone()));
        }
    }
    let reference = &runs[0];
    for (backend, run) in Backend::ALL.iter().zip(&runs).skip(1) {
        if run.digest != reference.digest {
            let first_diff = reference
                .digest
                .lines()
                .zip(run.digest.lines())
                .find(|(a, b)| a != b)
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .unwrap_or_else(|| ("<length mismatch>".into(), "<length mismatch>".into()));
            return Some(ChaosFailure::Divergence {
                backend: backend.name(),
                first_diff,
            });
        }
    }
    if runs.iter().any(|r| !r.completed && !r.stall_expected) {
        return Some(ChaosFailure::Stalled);
    }
    None
}

/// Greedy fixpoint shrink of a failing case, mirroring [`crate::shrink`]:
/// each accepted reduction strictly shrinks the case, so termination is
/// guaranteed. `still_fails` re-runs the candidate and reports whether
/// the failure persists.
pub fn shrink_case(
    mut case: ChaosCase,
    still_fails: &mut dyn FnMut(&ChaosCase) -> bool,
) -> ChaosCase {
    loop {
        let mut reduced = false;

        // Drop any single fault clause.
        let mut i = 0;
        while i < case.plan.clauses.len() {
            let mut cand = case.clone();
            cand.plan.clauses.remove(i);
            if still_fails(&cand) {
                case = cand;
                reduced = true;
            } else {
                i += 1;
            }
        }

        // Drop the last path, when no clause references it.
        if case.rtts_ms.len() > 1 {
            let last = case.rtts_ms.len() as u32 - 1;
            if case.plan.max_subflow().is_none_or(|m| m < last) {
                let mut cand = case.clone();
                cand.rtts_ms.pop();
                if still_fails(&cand) {
                    case = cand;
                    reduced = true;
                }
            }
        }

        // Halve the flow (floor at one segment).
        if case.flow_bytes > 1_400 {
            let mut cand = case.clone();
            cand.flow_bytes = (cand.flow_bytes / 2).max(1_400);
            if still_fails(&cand) {
                case = cand;
                reduced = true;
            }
        }

        // Remove the baseline loss, then the register intent.
        if case.loss > 0.0 {
            let mut cand = case.clone();
            cand.loss = 0.0;
            if still_fails(&cand) {
                case = cand;
                reduced = true;
            }
        }
        if case.r1.is_some() {
            let mut cand = case.clone();
            cand.r1 = None;
            if still_fails(&cand) {
                case = cand;
                reduced = true;
            }
        }

        if !reduced {
            return case;
        }
    }
}

/// Generates the case for `seed` and checks it on every backend; a
/// failing case is shrunk, and the finding carries the shrunk case with
/// the failure it still shows.
pub fn check_seed(seed: u64, out: &mut Report) {
    let case = ChaosCase::generate(seed);
    if let Some(failure) = check_case(&case, false) {
        let shrunk = shrink_case(case, &mut |cand| check_case(cand, false).is_some());
        let failure_now = check_case(&shrunk, false).unwrap_or(failure);
        out.finding(
            seed,
            "shrunk fault plan on interpreter, aot and vm",
            failure_now.to_string(),
            shrunk.describe(),
        );
    }
}

/// Case seed of the harness-validation probe below.
const PROBE_SEED: u64 = 1;

/// The harness-validation probe: with the receiver's hidden
/// double-delivery defect enabled, a redundant-scheduler case must be
/// flagged by the conservation oracle, and the shrunk repro (the probe's
/// detail) must still catch it.
pub fn probes() -> Vec<Probe> {
    let mut case = ChaosCase::generate(PROBE_SEED);
    // Duplicate arrivals are what trip the defect; the redundant
    // scheduler guarantees them regardless of the drawn fault plan.
    case.scheduler = "redundant";
    case.r1 = None;
    let caught = |cand: &ChaosCase| {
        matches!(
            check_case(cand, true),
            Some(ChaosFailure::Violation(v))
                if v.iter().any(|m| m.contains("conservation-delivery"))
        )
    };
    let flagged = caught(&case);
    let detail = if flagged {
        let shrunk = shrink_case(case, &mut |cand| caught(cand));
        format!("shrunk repro: {}", shrunk.describe())
    } else {
        "escaped the conservation oracle".to_string()
    };
    vec![Probe {
        label: "injected double-delivery defect".to_string(),
        caught: flagged,
        detail,
    }]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_generation_is_pure() {
        for seed in 0..32 {
            let a = ChaosCase::generate(seed);
            let b = ChaosCase::generate(seed);
            assert_eq!(a.describe(), b.describe());
            assert!(!a.plan.clauses.is_empty());
            assert!((2..=3).contains(&a.rtts_ms.len()));
        }
    }

    #[test]
    fn shrinker_reaches_a_fixpoint_and_preserves_failure() {
        // Predicate: plan still contains a clause touching subflow 0.
        // Not a real failure, but exercises every reduction arm
        // deterministically.
        let case = ChaosCase::generate(7);
        let mut pred =
            |c: &ChaosCase| c.plan.max_subflow() == Some(0) || !c.plan.clauses.is_empty();
        let shrunk = shrink_case(case, &mut pred);
        assert!(pred(&shrunk), "shrinking never loses the property");
        assert!(shrunk.flow_bytes >= 1_400);
    }
}
