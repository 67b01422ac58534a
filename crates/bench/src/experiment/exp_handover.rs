use super::{num, text, Outcome, Shape, Table};
use crate::{max_delivery_stall, one_connection, path};
use mptcp_sim::time::{from_millis, SimTime, MILLIS, SECONDS};
use mptcp_sim::{PathConfig, PathProfileEntry, SchedulerSpec, SubflowConfig};
use progmp_core::env::RegId;
use progmp_schedulers as sched;

const HANDOVER_AT: SimTime = 2 * SECONDS;

fn run_handover(scheduler: &'static str, signal_handover: bool, seed: u64) -> (SimTime, bool) {
    // WiFi: good until the handover, then fully lossy (connection break).
    let wifi =
        PathConfig::symmetric(from_millis(15), 1_250_000).with_profile_entry(PathProfileEntry {
            at: HANDOVER_AT,
            rate: None,
            loss: Some(1.0),
            fwd_delay: None,
        });
    // Cellular subflow comes up shortly before the break (proactive
    // establishment, as in the paper's sensor-assisted handover).
    let lte = path(45, 1_250_000).starting_at(HANDOVER_AT - 100 * MILLIS);
    let (mut sim, conn) = one_connection(
        seed,
        vec![SubflowConfig::new(wifi), lte],
        SchedulerSpec::dsl(scheduler),
    );
    // A steady 500 KB/s stream across the handover.
    sim.add_cbr_source(conn, 0, 4 * SECONDS, 500_000, from_millis(20), 0);
    if signal_handover {
        sim.set_register_at(conn, HANDOVER_AT - 100 * MILLIS, RegId::R3, 1);
        sim.set_register_at(conn, HANDOVER_AT + SECONDS, RegId::R3, 0);
    }
    // The path manager eventually declares WiFi dead.
    sim.subflow_down_at(conn, 0, HANDOVER_AT + 800 * MILLIS);
    sim.run_to_completion(20 * SECONDS);

    let c = &sim.connections[conn];
    (
        max_delivery_stall(&c.stats, HANDOVER_AT, HANDOVER_AT),
        c.all_acked(),
    )
}

pub fn run() -> Outcome {
    let mut table = Table::new(
        "handover-aware scheduling (WiFi breaks at t = 2 s), worst of 10 seeds",
        &["scheduler", "max stall (ms)", "completed"],
    );
    let [default, aware] = [
        ("default", sched::DEFAULT_MIN_RTT, false),
        ("handoverAware (R3=1)", sched::HANDOVER_AWARE, true),
    ]
    .map(|(name, src, signal)| {
        let mut worst: SimTime = 0;
        let mut all_done = true;
        for seed in 40..50 {
            let (gap, done) = run_handover(src, signal, seed);
            worst = worst.max(gap);
            all_done &= done;
        }
        table.row(vec![
            text(name),
            num(worst as f64 / 1e6, 1),
            text(if all_done { "yes" } else { "no" }),
        ]);
        worst
    });
    Outcome {
        tables: vec![table],
        shapes: vec![Shape::sim(
            "aggressive retransmission on the new subflow shortens the handover stall",
            "sketched, not measured (checked: handover-aware worst stall < the default's)",
            format!(
                "{:.0} ms vs {:.0} ms",
                aware as f64 / 1e6,
                default as f64 / 1e6
            ),
            aware < default,
        )],
    }
}
