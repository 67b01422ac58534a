//! Golden snapshot tests: the seven core paper schedulers on a fixed
//! two-path topology must reproduce their checked-in per-connection
//! statistics timeline exactly.
//!
//! The simulator is deterministic for a fixed seed and configuration, so
//! any diff here is a real behavior change — scheduler semantics, packet
//! pacing, loss recovery, or stats accounting. Regenerate intentionally
//! changed snapshots with:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test -p progmp-conformance --test golden_snapshots
//! ```

use mptcp_sim::time::{from_millis, SECONDS};
use mptcp_sim::{ConnectionConfig, PathConfig, SchedulerSpec, Sim, SubflowConfig};
use progmp_conformance::snapshot::assert_snapshot;
use progmp_schedulers::{source, PAPER};

/// Fixed scenario: a fast 10 ms / 10 Mbit/s path and a slow 40 ms path,
/// one 50 kB bulk transfer, timelines on, simulation seed 1.
fn run_scenario(scheduler_source: &str) -> String {
    let mut sim = Sim::new(1);
    let conn = sim
        .add_connection(
            ConnectionConfig::new(
                vec![
                    SubflowConfig::new(PathConfig::symmetric(from_millis(10), 1_250_000)),
                    SubflowConfig::new(PathConfig::symmetric(from_millis(40), 1_250_000)),
                ],
                SchedulerSpec::dsl(scheduler_source),
            )
            .with_timelines(),
        )
        .expect("scheduler compiles");
    sim.app_send_at(conn, 0, 50_000, 0);
    sim.run_to_completion(10 * SECONDS);
    sim.connections[conn].stats.snapshot_text()
}

#[test]
fn paper_schedulers_match_golden_timelines() {
    for name in PAPER {
        let text = run_scenario(source(name).unwrap());
        assert_snapshot(name, &text);
    }
}

#[test]
fn scenario_is_deterministic() {
    let src = source("minRttSimple").unwrap();
    assert_eq!(run_scenario(src), run_scenario(src));
}
