//! Engine cost per event against the backlog in `Q`: four connections
//! of the `default` scheduler over two clean paths, one `SendAt` of
//! 1 / 2 / 4 / 8 / 16 MB each (≈715 to ≈11 400 segments queued at once).
//! The work per event — ack processing, removing the pushed packet from
//! `Q`, the paths' departure accounting — must not grow with the bytes
//! still unsent, and the simulated outcome of each size is pinned to
//! the digest it had when every one of those steps scanned its queue.

use mptcp_sim::fleet::fnv1a64;
use mptcp_sim::time::{from_millis, SECONDS};
use mptcp_sim::{ConnectionConfig, PathConfig, SchedulerSpec, Sim, SubflowConfig};
use progmp_bench::report::{smoke, Json, Report};
use std::time::Instant;

const SEED: u64 = 379_422;
const CONNECTIONS: usize = 4;

/// `(MB per connection, events, digest over the four connections'
/// stats snapshots)` as recorded on the commit before `Q` and the
/// departure FIFO became positional.
const RECORDED: [(u64, u64, u64); 5] = [
    (1, 14_304, 0x86a4_c993_6429_4325),
    (2, 28_584, 0x5fdd_d30a_bdff_0945),
    (4, 57_164, 0x4a37_ab90_3243_11c1),
    (8, 114_304, 0x485b_1546_ff26_5da5),
    (16, 228_584, 0x7e6e_9021_ff65_e7fd),
];

/// One run: wall seconds, events, digest.
fn run(mb: u64) -> (f64, u64, u64) {
    let source = progmp_schedulers::sources::DEFAULT_MIN_RTT;
    let mut sim = Sim::new(SEED);
    for _ in 0..CONNECTIONS {
        let subflows = [10, 40]
            .iter()
            .map(|ms| SubflowConfig::new(PathConfig::symmetric(from_millis(*ms), 1_250_000)))
            .collect();
        let conn = sim
            .add_connection(ConnectionConfig::new(subflows, SchedulerSpec::dsl(source)))
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

fn main() {
    let (sizes, repeats) = if smoke() {
        (&RECORDED[..2], 1)
    } else {
        (&RECORDED[..], 5)
    };
    println!(
        "=== engine ns per event vs backlog: {CONNECTIONS} x `default`, one SendAt each, best of {repeats} ===\n"
    );
    println!("{:>6} {:>9} {:>10}  digest", "MB", "events", "ns/event");
    let mut report = Report::new("exp_backlog_sweep");
    report.meta("seed", SEED).meta("connections", CONNECTIONS);
    let mut ns_per_event = Vec::new();
    let mut unchanged = true;
    for &(mb, events_then, digest_then) in sizes {
        let runs: Vec<_> = (0..repeats).map(|_| run(mb)).collect();
        let (_, events, digest) = runs[0];
        let best = runs.iter().map(|r| r.0).fold(f64::MAX, f64::min);
        let ns = best * 1e9 / events as f64;
        println!("{mb:>6} {events:>9} {ns:>10.0}  {digest:016x}");
        unchanged &= (events, digest) == (events_then, digest_then);
        ns_per_event.push(ns);
        report.row(vec![
            ("backlog_mb", Json::from(mb)),
            ("events", Json::from(events)),
            ("ns_per_event", Json::from(ns)),
            ("digest", Json::from(format!("{digest:016x}"))),
        ]);
    }
    let spread = ns_per_event.iter().fold(0.0f64, |a, b| a.max(*b))
        / ns_per_event.iter().fold(f64::MAX, |a, b| a.min(*b));
    println!("\nshape checks:");
    println!(
        "  [{}] events and digest of every size equal the recorded ones",
        ok(unchanged)
    );
    println!(
        "  [{}] ns per event within 1.3x across sizes (measured {spread:.2}x)",
        ok(spread <= 1.3)
    );
    report.write_if_requested().expect("write report");
}

fn ok(b: bool) -> &'static str {
    if b {
        "ok"
    } else {
        "??"
    }
}
