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
            0xe74a053392a1bc4a,
            0x47000d56813a941d,
            0x29955b144fe17fff,
            0x9f9256606475fc0b,
            0x9fa454738dc910fc,
            0x80f2aace0c7440b6,
            0xfcb46602ddad2547,
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
            0x3429e737cf60d86d,
            0xefb720736ea1229a,
            0xfae50941af09e85f,
            0xb07752f9bba3fe60,
            0x128f16b588404e83,
            0xc37fd0f03df1bce9,
            0x470e661e48bafce6,
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
            0xe400c9592d8e607d,
            0x335c0f523a92de14,
            0xd85b148ccd03f191,
            0x0156b6ad4e6bbf14,
            0xc51687f66cfaa832,
            0x6a7f266c84c87ca3,
            0x5d007f6cf13bb99d,
        ],
    );
}
