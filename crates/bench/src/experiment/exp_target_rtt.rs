use super::{int, num, text, Outcome, Shape, Table};
use crate::{mean, one_connection, path, percentile};
use mptcp_sim::time::{from_millis, SimTime, MILLIS, SECONDS};
use mptcp_sim::{PathConfig, PathProfileEntry, SchedulerSpec, SubflowConfig};
use progmp_core::env::RegId;
use progmp_schedulers as sched;

const REQUESTS: u64 = 150;
const REQ_INTERVAL: SimTime = 100 * MILLIS;
const REQ_BYTES: u64 = 3 * 1400;

/// WiFi with periodic RTT spikes (congested episodes); LTE steady 20 ms
/// but metered. A pure min-RTT scheduler would live on LTE permanently.
fn wifi_with_spikes() -> PathConfig {
    let mut wifi = PathConfig::symmetric(from_millis(30), 1_250_000);
    // Every 8 s: a 2 s episode at 150 ms RTT (75 ms one-way).
    for k in 0..3u64 {
        for (at, one_way_ms) in [(8 * k + 2, 75), (8 * k + 4, 15)] {
            wifi = wifi.with_profile_entry(PathProfileEntry {
                at: at * SECONDS,
                rate: None,
                loss: None,
                fwd_delay: Some(from_millis(one_way_ms)),
            });
        }
    }
    wifi
}

/// Request latencies (ms) and the bytes sent over LTE.
fn run_requests(scheduler: &'static str, target_rtt_us: Option<i64>) -> (Vec<f64>, u64) {
    let subflows = vec![
        SubflowConfig::new(wifi_with_spikes()),
        path(20, 1_250_000).with_cost(1),
    ];
    let (mut sim, conn) = one_connection(11, subflows, SchedulerSpec::dsl(scheduler));
    if let Some(t) = target_rtt_us {
        sim.set_register_at(conn, 0, RegId::R1, t);
    }
    for i in 0..REQUESTS {
        sim.app_send_at(conn, i * REQ_INTERVAL, REQ_BYTES, 0);
    }
    sim.run_to_completion(60 * SECONDS);
    let stats = &sim.connections[conn].stats;
    // Response latency of request i: delivery of its last byte minus send time.
    let latencies = (0..REQUESTS).filter_map(|i| {
        let delivered = stats.delivery_time_of((i + 1) * REQ_BYTES)?;
        Some(delivered.saturating_sub(i * REQ_INTERVAL) as f64 / 1e6)
    });
    (latencies.collect(), stats.subflows[1].tx_bytes)
}

pub fn run() -> Outcome {
    let mut table = Table::new(
        format!(
            "request/response under WiFi RTT spikes: {REQUESTS} requests of {REQ_BYTES} B every \
             {} ms; WiFi 30 ms spiking to 150 ms 2s-in-8s; LTE 20 ms, metered",
            REQ_INTERVAL / MILLIS
        ),
        &["scheduler", "mean (ms)", "p95 (ms)", "LTE bytes"],
    );
    let [(wifi_p95, _), (_, default_lte), (target_p95, target_lte)] = [
        // TAP with a zero throughput target never escalates off the
        // preferred subflow: the "stay off metered LTE" strawman.
        ("WiFi-preferred only", sched::TAP, Some(0)),
        ("default", sched::DEFAULT_MIN_RTT, None),
        (
            "targetRtt+probing (50 ms)",
            sched::TARGET_RTT_PROBING,
            Some(50_000),
        ),
    ]
    .map(|(name, src, target)| {
        let (mut lat, lte) = run_requests(src, target);
        let (mean, p95) = (mean(&lat), percentile(&mut lat, 0.95));
        table.row(vec![text(name), num(mean, 1), num(p95, 1), int(lte)]);
        (p95, lte)
    });
    Outcome {
        tables: vec![table],
        shapes: vec![
            Shape::sim(
                "staying on preferred WiFi suffers the RTT spikes",
                "around 15% of WiFi samples show a higher RTT than LTE (checked: p95 > 60 ms)",
                format!("p95 {wifi_p95:.0} ms"),
                wifi_p95 > 60.0,
            ),
            Shape::sim(
                "the target-RTT scheduler cuts that tail latency",
                "sketched, not measured (checked: p95 < 0.8x WiFi-only's)",
                format!("p95 {target_p95:.0} ms vs {wifi_p95:.0} ms"),
                target_p95 < wifi_p95 * 0.8,
            ),
            Shape::sim(
                "while using no more metered LTE than the default scheduler",
                "non-preferred subflow only when the target is violated \
                 (checked: <= the default's LTE bytes)",
                format!("{target_lte} B vs {default_lte} B"),
                target_lte <= default_lte,
            ),
        ],
    }
}
