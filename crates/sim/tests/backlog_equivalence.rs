//! Transport behaviour with a deep backlog in `Q`, pinned to what the
//! `retain`-scanning transport produced (the parent commit of the
//! change that made `Q`'s front removal and the path's departure
//! accounting positional). Each of the seven paper schedulers sends one
//! 1 MB `SendAt` — about 715 segments queued at once — over two paths,
//! clean, with 2 % loss, and with a subflow torn down and re-established
//! mid-transfer; event counts and every connection's
//! [`ConnStats::snapshot_text`] digest must not move, on one worker and
//! on two.
//!
//! [`ConnStats::snapshot_text`]: mptcp_sim::stats::ConnStats::snapshot_text

use mptcp_sim::faults::{FaultClause, FaultPlan};
use mptcp_sim::fleet::{run_fleet, ConnScenario, FleetConfig, OracleMode, Workload};
use mptcp_sim::time::{from_millis, SECONDS};
use mptcp_sim::{ConnectionConfig, PathConfig, SchedulerSpec, SubflowConfig};
use progmp_core::env::RegId;
use progmp_schedulers::PAPER;

const SEED: u64 = 0xBAC_106;
const BACKLOG_BYTES: u64 = 1_000_000;

#[derive(Clone, Copy)]
enum Variant {
    Clean,
    Lossy,
    Churn,
}

fn scenario(global: usize, variant: Variant) -> ConnScenario {
    let scheduler = PAPER[global];
    let source = progmp_schedulers::source(scheduler).expect("known scheduler");
    let loss = match variant {
        Variant::Lossy => 0.02,
        Variant::Clean | Variant::Churn => 0.0,
    };
    let subflows = [10, 40]
        .iter()
        .map(|ms| {
            SubflowConfig::new(PathConfig::symmetric(from_millis(*ms), 1_250_000).with_loss(loss))
        })
        .collect();
    let mut sc = ConnScenario::new(
        ConnectionConfig::new(subflows, SchedulerSpec::dsl(source)),
        Workload::SendAt(vec![(0, BACKLOG_BYTES, 0)]),
    );
    match scheduler {
        "tap" => sc.registers.push((0, RegId::R1, 1_000_000)),
        "targetRtt" => sc.registers.push((0, RegId::R1, 60_000)),
        _ => {}
    }
    if let Variant::Churn = variant {
        sc.fault_plan = Some(FaultPlan {
            clauses: vec![FaultClause::Churn {
                sbf: 0,
                down_at: from_millis(150),
                up_at: from_millis(450),
            }],
        });
    }
    sc
}

/// Runs the seven-connection fleet on 1 and 2 workers with the oracle
/// collecting, and holds events, the number of connections that drained
/// their backlog, and per-connection digests to the recorded values.
fn check(variant: Variant, events: u64, completed: usize, digests: [u64; 7]) {
    for workers in [1, 2] {
        let fleet = FleetConfig::new(PAPER.len(), SEED)
            .with_workers(workers)
            .with_horizon(120 * SECONDS)
            .with_oracle(OracleMode::Collect);
        let run = run_fleet(&fleet, |global, _| scenario(global, variant));
        assert!(
            run.violations.is_empty(),
            "oracle violations on {workers} worker(s): {:?}",
            run.violations
        );
        let got: Vec<u64> = run.per_conn.iter().map(|c| c.digest).collect();
        let done = run.per_conn.iter().filter(|c| c.all_acked).count();
        assert_eq!(
            (run.events_processed, done, got.as_slice()),
            (events, completed, digests.as_slice()),
            "{workers} worker(s): got events {} completed {done} digests {got:#018x?}",
            run.events_processed
        );
    }
}

#[test]
fn one_megabyte_backlog_on_clean_paths() {
    check(
        Variant::Clean,
        28_659,
        7,
        [
            0x9642835d8c20fcb0,
            0x3af170e5f0573e6b,
            0x9c9f1d4183e1f01d,
            0x4928654ca9eae682,
            0x57e650fb8d1b7343,
            0x3af170e5f0573e6b,
            0x3af170e5f0573e6b,
        ],
    );
}

#[test]
fn one_megabyte_backlog_with_two_percent_loss() {
    // `minRttSimple` never reads `RQ`, so it cannot recover a lost
    // segment and does not finish; the other six do.
    check(
        Variant::Lossy,
        27_883,
        6,
        [
            0x90a233c55000f0ff,
            0xf3e5fb4629e60211,
            0x93b7e1da316ec673,
            0xa187586a95f61e4d,
            0x92b2a8b2c2d58fd5,
            0x6f527ccfbbd48958,
            0x087150daf90b9f9c,
        ],
    );
}

#[test]
fn one_megabyte_backlog_with_subflow_down_and_up_mid_transfer() {
    check(
        Variant::Churn,
        26_368,
        7,
        [
            0x9642835d8c20fcb0,
            0x432d2427c06f25a5,
            0x125e4573b09eb5e5,
            0x3ef930a7eed75801,
            0x76e792f98e752397,
            0x432d2427c06f25a5,
            0x432d2427c06f25a5,
        ],
    );
}
