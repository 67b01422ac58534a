use super::{num, text, Outcome, Shape, Table};
use crate::{bulk_goodput, goodput_of, one_connection, path};
use mptcp_sim::time::SECONDS;
use mptcp_sim::{SchedulerSpec, SubflowConfig};
use progmp_schedulers as sched;

const RATE: u64 = 1_250_000;
const BULK_BYTES: u64 = 8_000_000;

fn subflows() -> Vec<SubflowConfig> {
    vec![path(20, RATE), path(30, RATE)]
}

/// Bursty flow: 100 KB bursts every 500 ms; returns delivered goodput
/// relative to offered load completion.
fn bursty_goodput(scheduler: &'static str, seed: u64) -> f64 {
    let (mut sim, conn) = one_connection(seed, subflows(), SchedulerSpec::dsl(scheduler));
    let bursts = 20u64;
    for i in 0..bursts {
        sim.app_send_at(conn, i * 500 * 1_000_000, 100_000, 0);
    }
    sim.run_to_completion(60 * SECONDS);
    goodput_of(&sim.connections[conn].stats, bursts * 100_000)
}

pub fn run() -> Outcome {
    let sp_bulk = bulk_goodput(
        SchedulerSpec::dsl(sched::DEFAULT_MIN_RTT),
        vec![path(20, RATE)],
        BULK_BYTES,
        5,
    );
    let mut table = Table::new(
        format!(
            "throughput normalized to single-path TCP ({:.2} MB/s backlogged); \
             2 subflows at 10 Mbit/s each; backlogged (iPerf) and bursty flows",
            sp_bulk / 1e6
        ),
        &["scheduler", "iPerf (MB/s)", "normalized", "bursty (MB/s)"],
    );
    let normalized = [
        ("default", sched::DEFAULT_MIN_RTT),
        ("redundant", sched::REDUNDANT),
        ("oppRedundant", sched::OPPORTUNISTIC_REDUNDANT),
        ("redundantIfNoQ", sched::REDUNDANT_IF_NO_Q),
    ]
    .map(|(name, src)| {
        let bulk = bulk_goodput(SchedulerSpec::dsl(src), subflows(), BULK_BYTES, 5);
        table.row(vec![
            text(name),
            num(bulk / 1e6, 2),
            num(bulk / sp_bulk, 2).unit("x"),
            num(bursty_goodput(src, 5) / 1e6, 2),
        ]);
        bulk / sp_bulk
    });

    let [default, redundant, opp, if_no_q] = normalized;
    Outcome {
        tables: vec![table],
        shapes: vec![
            Shape::sim(
                "default aggregates both paths",
                "the default scheduler aggregates both paths, ~2x single path (checked: > 1.6x)",
                format!("{default:.2}x"),
                default > 1.6,
            ),
            Shape::sim(
                "full redundancy trades throughput for latency",
                "the existing redundant scheduler pays full redundancy, ~1x (checked: < 1.35x)",
                format!("{redundant:.2}x"),
                redundant < 1.35,
            ),
            Shape::sim(
                "new schedulers recover nearly maximum throughput for backlogged flows",
                "OpportunisticRedundant and RedundantIfNoQ reach nearly the maximum achievable \
                 throughput for backlogged transfers (checked: both > 1.5x)",
                format!("oppRed {opp:.2}x, redIfNoQ {if_no_q:.2}x"),
                opp > 1.5 && if_no_q > 1.5,
            ),
        ],
    }
}
