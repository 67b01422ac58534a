use super::{int, text, Outcome, Shape, Table};
use crate::{one_connection, path};
use mptcp_sim::time::{from_millis, SimTime, MILLIS, SECONDS};
use mptcp_sim::{PathConfig, PathProfileEntry, SchedulerSpec, SubflowConfig};
use progmp_core::env::RegId;
use progmp_schedulers as sched;

const CHUNKS: u64 = 12;
const CHUNK_BYTES: u64 = 800_000; // 0.8 MB every 2 s = 3.2 Mbit/s video
const CHUNK_PERIOD: SimTime = 2 * SECONDS;

/// WiFi nominally 0.5 MB/s but dipping to 0.15 MB/s for one second of
/// every four (rate fluctuation).
fn wifi() -> PathConfig {
    let mut w = PathConfig::symmetric(from_millis(20), 500_000);
    for k in 0..7u64 {
        for (at, rate) in [(4 * k + 2, 120_000), (4 * k + 3, 500_000)] {
            w = w.with_profile_entry(PathProfileEntry {
                at: at * SECONDS,
                rate: Some(rate),
                loss: None,
                fwd_delay: None,
            });
        }
    }
    w
}

struct Run {
    deadline_hits: u64,
    lte_bytes: u64,
}

/// `wifi_only`: drop the LTE subflow entirely (the "avoid metered"
/// strawman). The application updates R1 (remaining ms) and R2 (remaining
/// chunk bytes) at every chunk start — the MP-DASH control loop.
fn run_chunks(scheduler: &'static str, signal: bool, wifi_only: bool) -> Run {
    let mut subflows = vec![SubflowConfig::new(wifi())];
    if !wifi_only {
        subflows.push(path(60, 1_250_000).with_cost(1));
    }
    let (mut sim, conn) = one_connection(21, subflows, SchedulerSpec::dsl(scheduler));
    for i in 0..CHUNKS {
        let start = i * CHUNK_PERIOD;
        sim.app_send_at(conn, start, CHUNK_BYTES, 0);
        if signal {
            // Deadline: the next chunk boundary. Refresh the remaining
            // budget a few times within the chunk.
            for (k, frac) in [(0u64, 1.0f64), (1, 0.5), (2, 0.25)] {
                let at = start + k * 500 * MILLIS;
                let remaining_ms = (CHUNK_PERIOD / MILLIS).saturating_sub(k * 500) as i64;
                sim.set_register_at(conn, at, RegId::R1, remaining_ms);
                sim.set_register_at(conn, at, RegId::R2, (CHUNK_BYTES as f64 * frac) as i64);
            }
        }
    }
    sim.run_to_completion(120 * SECONDS);
    let stats = &sim.connections[conn].stats;
    let met = |i: &u64| {
        let delivered = stats.delivery_time_of((i + 1) * CHUNK_BYTES);
        delivered.is_some_and(|t| t <= (i + 1) * CHUNK_PERIOD)
    };
    Run {
        deadline_hits: (0..CHUNKS).filter(met).count() as u64,
        lte_bytes: stats.subflows.get(1).map(|s| s.tx_bytes).unwrap_or(0),
    }
}

pub fn run() -> Outcome {
    let mut table = Table::new(
        format!(
            "MP-DASH scenario: {CHUNKS} chunks of {} KB every {} s; \
             WiFi 0.5 MB/s dipping to 0.15 MB/s; LTE metered",
            CHUNK_BYTES / 1000,
            CHUNK_PERIOD / SECONDS
        ),
        &["policy", "deadlines met", "LTE KB"],
    );
    let [wifi_only, default, deadline] = [
        ("WiFi only", sched::DEFAULT_MIN_RTT, false, true),
        ("default (both paths)", sched::DEFAULT_MIN_RTT, false, false),
        (
            "targetDeadline (R1/R2)",
            sched::TARGET_DEADLINE,
            true,
            false,
        ),
    ]
    .map(|(name, src, signal, wifi_only)| {
        let r = run_chunks(src, signal, wifi_only);
        table.row(vec![
            text(name),
            text(format!("{}/{CHUNKS}", r.deadline_hits)),
            int(r.lte_bytes / 1000),
        ]);
        r
    });
    Outcome {
        tables: vec![table],
        shapes: vec![
            Shape::sim(
                "WiFi alone misses deadlines",
                "sketched, not measured (checked: fewer than all deadlines met)",
                format!("{}/{CHUNKS}", wifi_only.deadline_hits),
                wifi_only.deadline_hits < CHUNKS,
            ),
            Shape::sim(
                "the deadline-aware scheduler meets (nearly) all deadlines",
                "sketched, not measured (checked: at most one deadline missed)",
                format!("{}/{CHUNKS}", deadline.deadline_hits),
                deadline.deadline_hits >= CHUNKS - 1,
            ),
            Shape::sim(
                "while using much less metered LTE than the default scheduler",
                "non-preferred subflow only when the deadline is at risk \
                 (checked: < the default's LTE bytes)",
                format!(
                    "{} KB vs {} KB",
                    deadline.lte_bytes / 1000,
                    default.lte_bytes / 1000
                ),
                deadline.lte_bytes < default.lte_bytes,
            ),
        ],
    }
}
