//! Quickstart: write a scheduler in the ProgMP specification language,
//! compile it through the full pipeline (parse → type check → optimize →
//! bytecode → verify), bind it to a simulated two-path MPTCP connection,
//! and watch it schedule.
//!
//! Run with: `cargo run --example quickstart`

use progmp::prelude::*;

fn main() {
    // A scheduler in the specification language (paper Fig. 3, extended
    // with window checks): push on the lowest-RTT subflow that still has
    // congestion-window space.
    let spec = "
        VAR avail = SUBFLOWS.FILTER(sbf => !sbf.TSQ_THROTTLED AND !sbf.LOSSY
            AND sbf.CWND > sbf.SKBS_IN_FLIGHT + sbf.QUEUED);
        IF (!Q.EMPTY) {
            VAR s = avail.MIN(sbf => sbf.RTT);
            IF (s != NULL) { s.PUSH(Q.POP()); }
        }";

    // 1. Load the scheduler through the application API.
    let mut api = ProgMp::new();
    api.load_scheduler("myMinRtt", spec)
        .expect("scheduler compiles");
    println!(
        "loaded scheduler `myMinRtt` ({} bytes resident)",
        api.loaded_bytes()
    );

    // Peek at what the eBPF-flavoured cross-compiler produced. The
    // loaded program is a cheap handle: every connection bound to it
    // below shares this one compilation.
    let program = api.program("myMinRtt").expect("just loaded");
    let dis = program.disassemble();
    println!(
        "\nbytecode ({} instructions), first lines:",
        dis.lines().count()
    );
    for line in dis.lines().take(8) {
        println!("  {line}");
    }

    // 2. Build a WiFi + LTE connection in the simulator.
    let mut sim = Sim::new(42);
    let conn = sim
        .add_connection(ConnectionConfig::new(
            vec![
                SubflowConfig::new(PathConfig::symmetric(from_millis(10), 2_500_000)), // WiFi
                SubflowConfig::new(PathConfig::symmetric(from_millis(40), 2_500_000)), // LTE
            ],
            SchedulerSpec::program(program, Backend::Vm),
        ))
        .unwrap();

    // 3. Send 1 MB and run.
    sim.app_send_at(conn, 0, 1_000_000, 0);
    sim.run_to_completion(30 * SECONDS);

    // 4. Inspect the outcome.
    let c = &sim.connections[conn];
    println!("\ntransfer finished at t = {:.3} s", sim.now as f64 / 1e9);
    println!(
        "  delivered:  {} bytes (all acked: {})",
        c.stats.delivered_bytes,
        c.all_acked()
    );
    println!("  tx packets: {}", c.stats.tx_packets);
    for (i, s) in c.stats.subflows.iter().enumerate() {
        println!(
            "  subflow {i} ({}): {:>6} packets, {:>9} bytes",
            if i == 0 { "WiFi, 10 ms" } else { "LTE, 40 ms" },
            s.tx_packets,
            s.tx_bytes,
        );
    }
    let stats = api.scheduler_stats(&sim, conn).unwrap();
    println!(
        "  scheduler: {} executions, {} steps total, {} drops, {} errors, backend = vm",
        stats.executions, stats.steps, stats.drops, stats.errors
    );

    assert!(c.all_acked(), "quickstart transfer must complete");
}
