//! Determinism-under-parallelism tier: the batched fleet runtime must
//! produce bit-identical per-connection results no matter how many
//! worker threads share out the batches.
//!
//! The same 100-connection fleet — all seven paper schedulers, chaotic
//! path mixes, per-connection fault plans — runs at 1, 2, and 8
//! workers. Every connection's [`ConnStats::snapshot_text`] digest must
//! match byte-for-byte across the three runs, as must the derived
//! counters. This is the contract that makes the scale-benchmark tier
//! trustworthy: worker count is a pure performance knob, never a
//! behavioral one. Batching itself is held to one `Sim` per connection
//! at fleet sizes around the batch bounds.
//!
//! [`ConnStats::snapshot_text`]: mptcp_sim::stats::ConnStats::snapshot_text

use mptcp_sim::fleet::{
    conn_seeds, fnv1a64, run_fleet, ConnScenario, FleetConfig, FleetReport, OracleMode, Workload,
};
use mptcp_sim::oracle::VIOLATION_CAP;
use mptcp_sim::time::{from_millis, SECONDS};
use mptcp_sim::{
    ConnectionConfig, ContainmentConfig, FaultPlan, PathConfig, SchedulerSpec, Sim, SubflowConfig,
};
use progmp_core::env::RegId;

const FLEET_SIZE: usize = 100;
const FLEET_SEED: u64 = 0xF1EE7u64;
/// Connections per batch `Sim`: the private constant `BATCH` of
/// `mptcp_sim::fleet`, which the batch-boundary tests are written
/// against.
const BATCH: usize = 16;

/// Builds connection `global`'s scenario from its frozen per-connection
/// seed: scheduler round-robins through all seven paper programs, the
/// path mix / flow size / fault plan all derive from the seed alone.
fn scenario(global: usize, seed: u64) -> ConnScenario {
    let scheduler = progmp_schedulers::PAPER[global % progmp_schedulers::PAPER.len()];
    let source = progmp_schedulers::source(scheduler).expect("known scheduler");
    let n_paths = 2 + (seed % 2) as usize;
    let subflows = (0..n_paths)
        .map(|p| {
            let rtt_ms = 5 + (seed >> (8 * p)) % 75;
            let loss = ((seed >> 16) % 15) as f64 / 1000.0;
            SubflowConfig::new(
                PathConfig::symmetric(from_millis(rtt_ms), 1_250_000).with_loss(loss),
            )
        })
        .collect();
    let cfg = ConnectionConfig::new(subflows, SchedulerSpec::dsl(source));
    let mut sc = ConnScenario::new(
        cfg,
        Workload::Bulk {
            bytes: 20_000 + seed % 40_000,
            prop: 0,
        },
    );
    match scheduler {
        "tap" => sc.registers.push((0, RegId::R1, 1_000_000)),
        "targetRtt" => sc
            .registers
            .push((0, RegId::R1, 40_000 + (seed % 80_000) as i64)),
        _ => {}
    }
    sc.fault_plan = Some(FaultPlan::generate(
        seed ^ 0xC4A0_5C4A,
        n_paths as u32,
        2 * SECONDS,
    ));
    sc
}

fn run_with(workers: usize) -> FleetReport {
    let cfg = FleetConfig::new(FLEET_SIZE, FLEET_SEED)
        .with_workers(workers)
        .with_horizon(300 * SECONDS)
        .with_oracle(OracleMode::Collect);
    run_fleet(&cfg, scenario)
}

/// What a report says happened, as printed: incidents, then violations.
fn rendered(report: &FleetReport) -> Vec<String> {
    let incidents = report.incidents.iter().map(|i| i.to_string());
    let violations = report.violations.iter().map(|v| v.to_string());
    incidents.chain(violations).collect()
}

#[test]
fn fleet_is_bit_identical_at_1_2_and_8_workers() {
    let base = run_with(1);
    assert_eq!(base.workers, 1);
    assert_eq!(base.per_conn.len(), FLEET_SIZE);
    assert!(
        base.violations.is_empty(),
        "oracle violations at 1 worker: {:?}",
        base.violations
    );

    for workers in [2usize, 8] {
        let run = run_with(workers);
        assert_eq!(run.workers, workers);
        assert_eq!(run.per_conn.len(), FLEET_SIZE);
        assert!(
            run.violations.is_empty(),
            "oracle violations at {workers} workers: {:?}",
            run.violations
        );
        assert_eq!(
            base.events_processed, run.events_processed,
            "total event count drifted at {workers} workers"
        );
        for (a, b) in base.per_conn.iter().zip(&run.per_conn) {
            assert_eq!(a.conn, b.conn);
            assert_eq!(
                a.digest, b.digest,
                "snapshot digest of conn {} differs between 1 and {workers} workers",
                a.conn
            );
            assert_eq!(a.delivered_bytes, b.delivered_bytes, "conn {}", a.conn);
            assert_eq!(a.tx_packets, b.tx_packets, "conn {}", a.conn);
            assert_eq!(
                a.scheduler_executions, b.scheduler_executions,
                "conn {}",
                a.conn
            );
            assert_eq!(a.scheduler_steps, b.scheduler_steps, "conn {}", a.conn);
            assert_eq!(a.all_acked, b.all_acked, "conn {}", a.conn);
        }
        assert_eq!(base.digest(), run.digest());
    }
}

#[test]
fn fleet_digest_tracks_the_seed() {
    let small = |seed| {
        let cfg = FleetConfig::new(10, seed)
            .with_workers(2)
            .with_horizon(120 * SECONDS);
        run_fleet(&cfg, scenario).digest()
    };
    assert_eq!(small(1), small(1), "replays are stable");
    assert_ne!(small(1), small(2), "the seed actually feeds the fleet");
}

/// The same fleet with every fifth connection starving its transfer,
/// under containment: what the report lists — incidents and violations,
/// unfiltered, in the order reported — is the same at every worker count.
#[test]
fn a_contained_fleet_reports_the_same_incidents_at_1_2_and_8_workers() {
    let faulty = |global: usize, seed: u64| {
        let mut sc = scenario(global, seed);
        if global % 5 == 3 {
            sc.config.scheduler = SchedulerSpec::dsl("RETURN;");
        }
        sc
    };
    let run = |workers| {
        let cfg = FleetConfig::new(40, FLEET_SEED)
            .with_workers(workers)
            .with_horizon(300 * SECONDS)
            .with_oracle(OracleMode::Collect)
            .with_containment(ContainmentConfig::default());
        run_fleet(&cfg, faulty)
    };
    let base = run(1);
    assert!(base.quarantines() >= 8, "every starver is quarantined");
    for workers in [2usize, 8] {
        let other = run(workers);
        assert_eq!(base.digest(), other.digest(), "{workers} workers");
        assert_eq!(rendered(&base), rendered(&other), "{workers} workers");
    }
}

/// Two connections wear a forged work-conservation certificate yet
/// never push, and no supervisor contains them, so each overflows its
/// oracle buffer. They sit in different batches, so what the report
/// keeps of their violations is the same at every worker count.
#[test]
fn capped_violations_are_the_same_at_1_2_and_8_workers() {
    const PROVED: &str =
        "IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) { SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP()); }";
    const GATED: &str = "IF (R1 > 0 AND !Q.EMPTY) { SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP()); }";
    const SABOTEURS: [usize; 2] = [3, BATCH + 5];
    let stolen = progmp_core::compile(PROVED)
        .unwrap()
        .property_certificate()
        .clone();
    let saboteur = progmp_core::compile(GATED)
        .unwrap()
        .with_property_certificate(stolen);
    let sabotaged = |global: usize, seed: u64| {
        if !SABOTEURS.contains(&global) {
            return scenario(global, seed);
        }
        let paths = vec![SubflowConfig::new(PathConfig::symmetric(
            from_millis(20),
            1_250_000,
        ))];
        let spec = SchedulerSpec::program(&saboteur, progmp_core::Backend::Vm);
        // Every 10 ms chunk runs the scheduler, which pushes nothing.
        let cbr = Workload::Cbr {
            start: 0,
            end: 5 * SECONDS,
            rate: 100_000,
            chunk: from_millis(10),
            prop: 0,
        };
        ConnScenario::new(ConnectionConfig::new(paths, spec), cbr)
    };
    let run = |workers| {
        let cfg = FleetConfig::new(2 * BATCH, FLEET_SEED)
            .with_workers(workers)
            .with_horizon(60 * SECONDS)
            .with_oracle(OracleMode::Collect);
        run_fleet(&cfg, sabotaged)
    };
    let base = run(1);
    for conn in SABOTEURS {
        let kept = base.violations.iter().filter(|v| v.conn == conn).count();
        assert_eq!(kept, VIOLATION_CAP, "conn {conn} fills a buffer of its own");
    }
    assert_eq!(
        base.violations.len(),
        2 * VIOLATION_CAP,
        "only the saboteurs"
    );
    for workers in [2usize, 8] {
        assert_eq!(
            rendered(&base),
            rendered(&run(workers)),
            "{workers} workers"
        );
    }
}

/// Connection `global` simulated alone, in a `Sim` of its own, as
/// `run_fleet` installs it: `(digest, tx_packets, scheduler_steps)`.
fn alone(global: usize, seed: u64) -> (u64, u64, u64) {
    let mut sim = Sim::new(FLEET_SEED);
    sim.add_scenario(scenario(global, seed), global as u64)
        .expect("scheduler compiles");
    sim.run_to_completion(300 * SECONDS);
    let stats = &sim.connections[0].stats;
    (
        fnv1a64(stats.snapshot_text().as_bytes()),
        stats.tx_packets,
        stats.scheduler_steps,
    )
}

/// Connections in one batch share a `Sim` but nothing else: at fleet
/// sizes around the batch bounds, every connection reports what it
/// reports alone, none is missing and none is counted twice.
#[test]
fn batching_is_invisible_to_each_connection() {
    for n in [0, 1, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH + 3] {
        let reference: Vec<_> = conn_seeds(FLEET_SEED, n)
            .into_iter()
            .enumerate()
            .map(|(global, seed)| alone(global, seed))
            .collect();
        for workers in [1usize, 3] {
            let cfg = FleetConfig::new(n, FLEET_SEED)
                .with_workers(workers)
                .with_horizon(300 * SECONDS);
            let run = run_fleet(&cfg, scenario);
            let conns: Vec<usize> = run.per_conn.iter().map(|c| c.conn).collect();
            assert_eq!(
                conns,
                (0..n).collect::<Vec<_>>(),
                "{n} conns, {workers} workers"
            );
            let got: Vec<_> = run
                .per_conn
                .iter()
                .map(|c| (c.digest, c.tx_packets, c.scheduler_steps))
                .collect();
            assert_eq!(got, reference, "{n} conns, {workers} workers");
        }
    }
}
