use super::{int, num, text, Outcome, Shape, Table};
use crate::path;
use mptcp_sim::fleet::fnv1a64;
use mptcp_sim::time::SECONDS;
use mptcp_sim::{ConnectionConfig, SchedulerSpec, Sim};
use std::time::Instant;

const SEED: u64 = 379_422;
const CONNECTIONS: usize = 4;
const REPEATS: usize = 5;

/// `(MB per connection, events, digest over the four connections'
/// stats snapshots)` as recorded on the commit before `Q` and the
/// departure FIFO became positional. The digests were re-recorded once
/// when certified quiescence stopped running rounds that decide nothing:
/// the snapshots hash `scheduler_executions` and `scheduler_steps`, and
/// with those two lines left out every size hashes the same before and
/// after that change.
const RECORDED: [(u64, u64, u64); 5] = [
    (1, 14_304, 0x0a0a_df77_6c8d_0b4d),
    (2, 28_584, 0x90e9_7f2b_6ef0_0719),
    (4, 57_164, 0xc551_65c9_8845_aeb5),
    (8, 114_304, 0xb118_e17a_28af_49a1),
    (16, 228_584, 0xe5a9_2191_9fc3_379d),
];

/// One run: wall seconds, events, digest.
fn run_backlog(mb: u64) -> (f64, u64, u64) {
    let mut sim = Sim::new(SEED);
    for _ in 0..CONNECTIONS {
        let cfg = ConnectionConfig::new(
            vec![path(10, 1_250_000), path(40, 1_250_000)],
            SchedulerSpec::dsl(progmp_schedulers::DEFAULT_MIN_RTT),
        );
        let conn = sim
            .add_connection(cfg)
            .expect("the default scheduler compiles");
        sim.app_send_at(conn, 0, mb * 1_000_000, 0);
    }
    let t0 = Instant::now();
    sim.run_to_completion(3_600 * SECONDS);
    let wall = t0.elapsed().as_secs_f64();
    assert!(sim.connections.iter().all(|c| c.all_acked()));
    let text: String = sim
        .connections
        .iter()
        .map(|c| c.stats.snapshot_text())
        .collect();
    (wall, sim.events_processed, fnv1a64(text.as_bytes()))
}

pub fn run() -> Outcome {
    let mut table = Table::new(
        format!(
            "engine ns per event vs backlog: {CONNECTIONS} x `default`, \
             one SendAt each, best of {REPEATS}"
        ),
        &["MB", "events", "ns/event", "digest"],
    );
    let mut ns_per_event = Vec::new();
    let mut moved = Vec::new();
    for (mb, events_then, digest_then) in RECORDED {
        let runs: Vec<_> = (0..REPEATS).map(|_| run_backlog(mb)).collect();
        let (_, events, digest) = runs[0];
        let best = runs.iter().map(|r| r.0).fold(f64::MAX, f64::min);
        let ns = best * 1e9 / events as f64;
        table.row(vec![
            int(mb),
            int(events),
            num(ns, 0),
            text(format!("{digest:016x}")),
        ]);
        if (events, digest) != (events_then, digest_then) {
            moved.push(format!("{mb} MB: {events} events, {digest:016x}"));
        }
        ns_per_event.push(ns);
    }
    let spread = ns_per_event.iter().fold(0.0f64, |a, b| a.max(*b))
        / ns_per_event.iter().fold(f64::MAX, |a, b| a.min(*b));
    Outcome {
        tables: vec![table],
        shapes: vec![
            Shape::sim(
                "events and digest of every size equal the recorded ones",
                "not in the paper (the five (events, digest) pairs recorded before PR 16)",
                if moved.is_empty() {
                    "all five sizes equal".to_string()
                } else {
                    moved.join("; ")
                },
                moved.is_empty(),
            ),
            Shape::timed(
                "ns per event within 1.3x across sizes",
                "not in the paper (PR 16: 1.03x, was 3.5x)",
                format!("{spread:.2}x"),
                spread <= 1.3,
            ),
        ],
    }
}
