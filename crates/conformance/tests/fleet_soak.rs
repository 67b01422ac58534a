//! Oracle-armed fleet soak: a large fleet of chaotic connections —
//! random fault plans, all seven paper schedulers, mixed path
//! qualities — runs to its horizon with the runtime invariant oracle
//! armed in collect mode on every batch. The pass condition is zero
//! violations: no sequence-space regression, no queue-accounting drift,
//! no liveness stall, on any connection, under any generated fault mix.
//!
//! The bounded 128-connection version runs in the normal workspace
//! sweep; the full 1k-connection soak is `#[ignore]`d here and driven
//! explicitly (release-built) by `ci.sh` and the scale-benchmark tier.

use mptcp_sim::fleet::{run_fleet, ConnScenario, FleetConfig, OracleMode, Workload};
use mptcp_sim::time::{from_millis, SECONDS};
use mptcp_sim::{ConnectionConfig, FaultPlan, PathConfig, SchedulerSpec, SubflowConfig};
use progmp_core::env::RegId;

/// Chaotic scenario for connection `global`: everything derives from
/// the frozen per-connection seed.
fn chaos_scenario(global: usize, seed: u64) -> ConnScenario {
    let paper = progmp_schedulers::PAPER;
    let scheduler = paper[(seed % paper.len() as u64) as usize];
    let source = progmp_schedulers::source(scheduler).expect("known scheduler");
    let n_paths = 2 + (seed >> 3) % 2;
    let subflows = (0..n_paths)
        .map(|p| {
            let rtt_ms = 5 + (seed >> (7 * p + 5)) % 75;
            let loss = ((seed >> 24) % 20) as f64 / 1000.0;
            let rate = [250_000u64, 1_250_000, 5_000_000][((seed >> 11) % 3) as usize];
            SubflowConfig::new(PathConfig::symmetric(from_millis(rtt_ms), rate).with_loss(loss))
        })
        .collect();
    let cfg = ConnectionConfig::new(subflows, SchedulerSpec::dsl(source));
    let mut sc = ConnScenario::new(
        cfg,
        Workload::Bulk {
            bytes: 20_000 + seed % 60_000,
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
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ global as u64,
        n_paths as u32,
        2 * SECONDS,
    ));
    sc
}

fn soak(connections: usize, seed: u64) {
    let cfg = FleetConfig::new(connections, seed)
        .with_horizon(300 * SECONDS)
        .with_oracle(OracleMode::Collect);
    let report = run_fleet(&cfg, chaos_scenario);
    assert_eq!(report.per_conn.len(), connections);
    assert!(
        report.violations.is_empty(),
        "{} invariant violations in a {connections}-connection soak (seed {seed}): first: {}",
        report.violations.len(),
        report.violations[0],
    );
    // Chaos can legitimately strand flows (schedulers with no
    // reinjection logic under a blackout), but the bulk of the fleet
    // must complete — a collapse here means the runtime, not the
    // schedulers, broke.
    assert!(
        report.completion_rate() > 0.5,
        "only {:.0}% of the fleet completed",
        report.completion_rate() * 100.0
    );
}

/// Bounded soak for the default `cargo test` sweep.
#[test]
fn fleet_soak_128_connections_zero_violations() {
    soak(128, 0x50AC_0001);
}

/// The full 1k-connection soak: release-built, driven by `ci.sh`.
/// `cargo test -p conformance --release --test fleet_soak -- --ignored`
#[test]
#[ignore = "large soak; run release-built via ci.sh"]
fn fleet_soak_1000_connections_zero_violations() {
    soak(1000, 0x50AC_1000);
}
