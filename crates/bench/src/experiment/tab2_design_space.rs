use super::{int, text, Outcome, Shape, Table};
use crate::path;
use mptcp_sim::time::SECONDS;
use mptcp_sim::{ConnectionConfig, SchedulerSpec, Sim};
use progmp_core::env::RegId;
use progmp_schedulers as sched;

/// (Table 2 category, goal, scheduler name).
const CATALOGUE: &[(&str, &str, &str)] = &[
    ("Probing", "timely RTT/capacity estimates", "probing"),
    (
        "Redundancy",
        "minimize latency: existing full redundancy",
        "redundant",
    ),
    (
        "Redundancy",
        "prefer fresh packets at first scheduling",
        "opportunisticRedundant",
    ),
    (
        "Redundancy",
        "redundancy only when no fresh data",
        "redundantIfNoQ",
    ),
    ("Handover", "smooth WiFi/LTE handover", "handoverAware"),
    (
        "Heterogeneous",
        "compensate scheduling at flow end",
        "compensating",
    ),
    (
        "Heterogeneous",
        "selective compensation (ratio > 2)",
        "selectiveCompensation",
    ),
    ("Preference", "ensure throughput (TAP)", "tap"),
    ("Preference", "ensure RTT target", "targetRtt"),
    (
        "Preference",
        "ensure chunk deadline (MP-DASH)",
        "targetDeadline",
    ),
    (
        "Higher protocols",
        "HTTP/2 content-aware strategies",
        "http2Aware",
    ),
    ("Baselines", "Linux default minRTT", "default"),
    (
        "Baselines",
        "round robin (301 LOC in kernel C)",
        "roundRobin",
    ),
    ("Baselines", "textbook minRTT (Fig. 3)", "minRttSimple"),
    (
        "Baselines",
        "opportunistic retransmission",
        "opportunisticRtx",
    ),
    (
        "Probing",
        "target RTT with probing composition",
        "targetRttProbing",
    ),
    (
        "Redundancy",
        "fast coupled retransmission [7,27]",
        "fastCoupledRtx",
    ),
    (
        "Cross-concern",
        "relax cwnd for the flow tail (paper 6)",
        "cwndRelax",
    ),
];

/// Whether the scheduler called `name` carries a 50 KB transfer to
/// completion in the simulator.
fn delivers(name: &str) -> bool {
    let mut sim = Sim::new(5);
    let cfg = ConnectionConfig::new(
        vec![path(10, 1_250_000), path(40, 1_250_000).with_cost(1)],
        SchedulerSpec::dsl(sched::source(name).expect("bundled scheduler")),
    );
    let Ok(conn) = sim.add_connection(cfg) else {
        return false;
    };
    // Generic intents so every scheduler has what it needs.
    sim.set_register_at(conn, 0, RegId::R1, 4_000_000);
    sim.set_register_at(conn, 1, RegId::R3, 1);
    sim.app_send_at(conn, 0, 50_000, 2);
    sim.set_register_at(conn, 2, RegId::R2, 1);
    sim.run_to_completion(30 * SECONDS);
    sim.connections[conn].all_acked()
}

pub fn run() -> Outcome {
    let mut table = Table::new(
        "the executable scheduler design-space catalogue",
        &[
            "category",
            "goal / approach",
            "scheduler",
            "LOC",
            "regs",
            "queues",
            "runs",
        ],
    );
    let mut delivered = 0;
    for (cat, goal, name) in CATALOGUE {
        let program = sched::load(name).expect("bundled schedulers compile");
        let loc = program
            .source()
            .lines()
            .filter(|l| !l.trim().is_empty())
            .count();
        // Static audit (the multi-tenancy admission view).
        let audit = program.analyze();
        let regs: Vec<String> = audit
            .registers_read
            .union(&audit.registers_written)
            .map(|r| r.to_string())
            .collect();
        let queues: Vec<&str> = audit.queues_read.iter().copied().collect();
        let ok = delivers(name);
        delivered += usize::from(ok);
        table.row(vec![
            text(*cat),
            text(*goal),
            text(*name),
            int(loc as u64),
            text(if regs.is_empty() {
                "-".to_string()
            } else {
                format!("R{}", regs.join(","))
            }),
            text(queues.join(",")),
            text(if ok { "ok" } else { "FAIL" }),
        ]);
    }
    Outcome {
        tables: vec![table],
        shapes: vec![Shape::sim(
        "every design-space entry is specified, compiled, verified, and delivers data end-to-end",
        "every catalogue entry is expressible; the in-kernel round robin alone is 301 lines of C \
         (the ProgMP versions are 3-43 lines)",
        format!("{delivered}/{} deliver", CATALOGUE.len()),
        delivered == CATALOGUE.len(),
    )],
    }
}
