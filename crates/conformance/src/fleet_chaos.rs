//! Fleet-chaos containment conformance: seeded fleets with deliberately
//! faulting schedulers, swept across worker counts.
//!
//! Where [`crate::chaos`] diffs one connection across execution
//! backends, fleet-chaos mode diffs one *fleet* across partitions. Each
//! seed builds a fleet in which most connections run deliberately broken
//! schedulers — step-budget bombs, starvers, certificate saboteurs,
//! trapping native code — under the containment supervisor, and runs it
//! at 1, 2, and 8 workers. A case fails when
//!
//! * the fleet digest or the incident log differs between any
//!   two worker counts (containment decisions leaked partition state), or
//! * any connection fails to acknowledge all of its data (a fault
//!   escaped containment and permanently stalled the transfer), or
//! * no quarantine happened at all (the deliberately broken schedulers
//!   were not detected), or
//! * the first incident's replay string fails to reproduce the same
//!   fault class at the same simulated time in a fresh single-connection
//!   simulation.
//!
//! Zero panics is implicit: every batch runs with the oracle armed, and
//! a panic anywhere fails the whole sweep process. Everything replays
//! from the case seed alone.

use crate::tier::Report;
use mptcp_sim::fleet::conn_seeds;
use mptcp_sim::time::{SimTime, SECONDS};
use mptcp_sim::{
    run_fleet, ChaosRng, ConnScenario, ConnectionConfig, ContainmentConfig, FleetConfig,
    FleetReport, NativeTrapping, OracleMode, PathConfig, SchedulerSpec, Sim, SubflowConfig,
    Workload,
};
use progmp_core::{Backend, SchedulerProgram};
use std::sync::LazyLock;

/// Domain separation for per-connection shape draws, so fleet-chaos
/// conn seed `n` shares nothing with the chaos case generator.
const FLEET_CHAOS_SALT: u64 = 0xF1EE_7CA0_5F1E_E7CA;

/// The worker counts every case runs at; digests and incident logs must
/// be bit-identical across all of them.
pub const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Simulated-time budget per fleet; generous enough that every
/// quarantine/backoff/re-admission cycle resolves and the fallback
/// drains each transfer.
const HORIZON: SimTime = 120 * SECONDS;

/// A scheduler whose certificate honestly proves work-conservation —
/// the step-budget bomb pairs it with an absurdly small budget, and the
/// certificate saboteur steals its certificate.
const PROVED_WC_DSL: &str =
    "IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) { SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP()); }";

/// Never pushes (`R1` defaults to 0): wearing the proved-WC certificate
/// above, it fakes a verifier soundness gap the oracle must catch.
const REGISTER_GATED_DSL: &str =
    "IF (R1 > 0 AND !Q.EMPTY) { SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP()); }";

/// The certificate saboteur's program: the register-gated scheduler
/// wearing the proved-WC certificate as its own, forged once per process.
static CERT_SABOTEUR: LazyLock<SchedulerProgram> = LazyLock::new(|| {
    let compile = |source| progmp_core::compile(source).expect("saboteur sources compile");
    let proved = compile(PROVED_WC_DSL).property_certificate().clone();
    compile(REGISTER_GATED_DSL).with_property_certificate(proved)
});

/// The five scheduler classes a fleet cycles through by global index.
/// Classes 1–4 are deliberate faults, one per supervisor fault class.
const CLASS_NAMES: [&str; 5] = [
    "healthy-minrtt",
    "step-budget-bomb",
    "starver",
    "cert-saboteur",
    "native-trapper",
];

/// Connections per fleet: every scheduler class appears at least once.
pub const CONNS: usize = 8;

/// One generated fleet-chaos case, derived purely from its seed.
#[derive(Debug, Clone, Copy)]
pub struct FleetCase {
    /// The generating seed (also the fleet seed).
    pub seed: u64,
}

impl FleetCase {
    /// One-line replayable description.
    pub fn describe(&self) -> String {
        format!(
            "seed={} conns={CONNS} workers={WORKER_COUNTS:?} classes={CLASS_NAMES:?}",
            self.seed
        )
    }

    /// Builds the scenario of connection `global`: scheduler class by
    /// `global % 5`, path/flow shape from the connection seed. Pure, so
    /// the incident-replay path can rebuild any single connection.
    pub fn scenario(&self, global: usize, conn_seed: u64) -> ConnScenario {
        let mut rng = ChaosRng::new(conn_seed ^ FLEET_CHAOS_SALT);
        let rtt_a = mptcp_sim::time::from_millis(5 + rng.below(40));
        let rtt_b = mptcp_sim::time::from_millis(20 + rng.below(60));
        let loss = rng.below(10) as f64 / 1000.0; // 0..0.9%
        let flow_bytes = 15_000 + rng.below(16) * 1400;
        let trap_after = 1 + rng.below(4);
        let paths = vec![
            SubflowConfig::new(PathConfig::symmetric(rtt_a, 1_250_000).with_loss(loss)),
            SubflowConfig::new(PathConfig::symmetric(rtt_b, 1_250_000)),
        ];
        let mut cfg = match global % 5 {
            0 => {
                ConnectionConfig::new(paths, SchedulerSpec::dsl(progmp_schedulers::MIN_RTT_SIMPLE))
            }
            1 => ConnectionConfig::new(paths, SchedulerSpec::dsl(PROVED_WC_DSL)),
            2 => ConnectionConfig::new(paths, SchedulerSpec::dsl("RETURN;")),
            3 => ConnectionConfig::new(paths, SchedulerSpec::program(&CERT_SABOTEUR, Backend::Vm)),
            _ => ConnectionConfig::new(
                paths,
                SchedulerSpec::Native(Box::new(NativeTrapping::new(trap_after))),
            ),
        };
        if global % 5 == 1 {
            cfg.step_budget = Some(3); // far below the certified bound: every run aborts
        }
        ConnScenario::new(
            cfg,
            Workload::Bulk {
                bytes: flow_bytes,
                prop: 0,
            },
        )
    }

    /// Runs the fleet at `workers` with collection-mode oracle and
    /// default containment — the exact configuration every worker count
    /// must agree under.
    pub fn run(&self, workers: usize) -> FleetReport {
        let cfg = FleetConfig::new(CONNS, self.seed)
            .with_workers(workers)
            .with_horizon(HORIZON)
            .with_oracle(OracleMode::Collect)
            .with_containment(ContainmentConfig);
        run_fleet(&cfg, |global, conn_seed| self.scenario(global, conn_seed))
    }
}

/// Failure modes of one fleet-chaos case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetFailure {
    /// Fleet digests differ between worker counts.
    DigestMismatch {
        /// The worker count whose digest disagrees with 1 worker.
        workers: usize,
    },
    /// Incident logs differ between worker counts.
    IncidentMismatch {
        /// The worker count whose log disagrees with 1 worker.
        workers: usize,
        /// First differing line: `(reference, disagreeing)`.
        first_diff: (String, String),
    },
    /// A connection never acknowledged all data: a fault escaped
    /// containment and permanently stalled the transfer.
    Stalled {
        /// Global index of the stalled connection.
        conn: usize,
    },
    /// The deliberately broken schedulers produced no quarantine at all.
    NoContainment,
    /// An incident's replay string failed to reproduce the fault.
    ReplayFailed {
        /// The replay string that did not reproduce.
        replay: String,
    },
}

impl std::fmt::Display for FleetFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetFailure::DigestMismatch { workers } => {
                write!(f, "fleet digest at {workers} workers differs from 1 worker")
            }
            FleetFailure::IncidentMismatch {
                workers,
                first_diff,
            } => write!(
                f,
                "incidents at {workers} workers diverge: {:?} != {:?}",
                first_diff.0, first_diff.1
            ),
            FleetFailure::Stalled { conn } => {
                write!(f, "conn {conn} permanently stalled despite containment")
            }
            FleetFailure::NoContainment => {
                write!(f, "no quarantine despite deliberately faulting schedulers")
            }
            FleetFailure::ReplayFailed { replay } => {
                write!(f, "incident replay did not reproduce: {replay:?}")
            }
        }
    }
}

/// Rebuilds the single connection named by `replay` (an
/// [`mptcp_sim::IncidentReport::replay`] string, `k=v` tokens) inside a
/// fresh contained simulation and reports whether the same fault class
/// recurs at the same simulated time. Containment decisions are pure
/// functions of `(fleet seed, global index)`, so extracting one
/// connection from the fleet must not change its incident stream.
pub fn replay_reproduces(case: &FleetCase, replay: &str) -> bool {
    let mut seed = None;
    let mut conn = None;
    let mut class = None;
    let mut at = None;
    for tok in replay.split_whitespace() {
        let Some((k, v)) = tok.split_once('=') else {
            return false;
        };
        match k {
            "seed" => seed = v.parse::<u64>().ok(),
            "conn" => conn = v.parse::<u64>().ok(),
            "class" => class = Some(v.to_string()),
            "at" => at = v.parse::<u64>().ok(),
            _ => return false,
        }
    }
    let (Some(seed), Some(conn), Some(class), Some(at)) = (seed, conn, class, at) else {
        return false;
    };
    let global = conn as usize;
    let seeds = conn_seeds(seed, CONNS);
    let Some(&conn_seed) = seeds.get(global) else {
        return false;
    };
    let sc = case.scenario(global, conn_seed);
    let mut sim = Sim::new(seed);
    sim.enable_containment(ContainmentConfig);
    sim.enable_oracle(format!("fleet-chaos replay seed={seed} conn={conn}"), false);
    sim.add_scenario(sc, conn)
        .expect("replayed scheduler compiles");
    sim.run_to_completion(HORIZON);
    sim.incidents()
        .iter()
        .any(|i| i.conn == conn && i.at == at && i.class.name() == class)
}

/// Classifies the runs of `case` at each of [`WORKER_COUNTS`]. `None`
/// means the case is clean: identical digests and incident logs
/// everywhere, every transfer drained, at least one quarantine, and a
/// reproducing replay string.
fn classify(case: &FleetCase, runs: &[FleetReport]) -> Option<FleetFailure> {
    let render =
        |r: &FleetReport| -> Vec<String> { r.incidents.iter().map(|i| i.to_string()).collect() };
    let reference = &runs[0];
    let ref_incidents = render(reference);
    for (&workers, run) in WORKER_COUNTS.iter().zip(runs).skip(1) {
        if run.digest() != reference.digest() {
            return Some(FleetFailure::DigestMismatch { workers });
        }
        let incidents = render(run);
        if incidents != ref_incidents {
            let first_diff = ref_incidents
                .iter()
                .zip(&incidents)
                .find(|(a, b)| a != b)
                .map(|(a, b)| (a.clone(), b.clone()))
                .unwrap_or_else(|| ("<length mismatch>".into(), "<length mismatch>".into()));
            return Some(FleetFailure::IncidentMismatch {
                workers,
                first_diff,
            });
        }
    }
    for c in &reference.per_conn {
        if !c.all_acked {
            return Some(FleetFailure::Stalled { conn: c.conn });
        }
    }
    if reference.quarantines() == 0 {
        return Some(FleetFailure::NoContainment);
    }
    if let Some(incident) = reference.incidents.first() {
        if !replay_reproduces(case, &incident.replay) {
            return Some(FleetFailure::ReplayFailed {
                replay: incident.replay.clone(),
            });
        }
    }
    None
}

/// Runs the fleet for `seed` at every worker count, counts the reference
/// run's quarantine transitions and incidents, and records how the case
/// fails, if it does.
pub fn check_seed(seed: u64, out: &mut Report) {
    let case = FleetCase { seed };
    let runs: Vec<FleetReport> = WORKER_COUNTS.iter().map(|&w| case.run(w)).collect();
    out.count("quarantines", runs[0].quarantines() as u64);
    out.count("incidents", runs[0].incidents.len() as u64);
    if let Some(failure) = classify(&case, &runs) {
        out.finding(
            seed,
            "fleet runs compared across worker counts",
            failure.to_string(),
            case.describe(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_replay_strings_do_not_reproduce() {
        let case = FleetCase { seed: 1 };
        assert!(!replay_reproduces(&case, "not a replay string"));
        assert!(!replay_reproduces(&case, "seed=1 conn=999 class=x at=0"));
    }
}
