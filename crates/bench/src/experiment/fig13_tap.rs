use super::{int, num, text, Outcome, Shape, Table};
use crate::{one_connection, path, tx_bytes_between};
use mptcp_sim::time::{from_millis, SimTime, SECONDS};
use mptcp_sim::{PathConfig, PathProfileEntry, SchedulerSpec, SubflowConfig};
use progmp_core::env::RegId;
use progmp_schedulers as sched;

const WIFI_RATE: u64 = 3_000_000;
const LTE_RATE: u64 = 2_500_000;
const END_S: u64 = 12;

struct Run {
    goodput: f64,
    lte_share: f64,
    p1_lte_kb: u64,
    p2_lte_kb: u64,
    stream_done: Option<SimTime>,
}

fn wifi_with_fluctuations() -> PathConfig {
    let mut wifi = PathConfig::symmetric(from_millis(10), WIFI_RATE);
    for (i, rate) in [2_400_000u64, 3_000_000, 2_600_000, 3_200_000, 2_500_000]
        .iter()
        .enumerate()
    {
        wifi = wifi.with_profile_entry(PathProfileEntry {
            at: (2 * (i as u64 + 1)) * SECONDS,
            rate: Some(*rate),
            loss: None,
            fwd_delay: None,
        });
    }
    wifi
}

fn run_stream(scheduler: &'static str, lte_backup: bool, signal_target: bool) -> Run {
    // LTE is always flagged non-preferred for the preference-aware
    // schedulers (COST = 1); kernel backup mode is a separate switch.
    let mut lte = path(40, LTE_RATE).with_cost(1);
    if lte_backup {
        lte = lte.backup();
    }
    let (mut sim, conn) = one_connection(
        1234,
        vec![SubflowConfig::new(wifi_with_fluctuations()), lte],
        SchedulerSpec::dsl(scheduler),
    );
    if signal_target {
        sim.set_register_at(conn, 0, RegId::R1, 1_000_000);
        sim.set_register_at(conn, 6 * SECONDS, RegId::R1, 4_000_000);
    }
    sim.add_cbr_source(conn, 0, 6 * SECONDS, 1_000_000, from_millis(20), 0);
    sim.add_cbr_source(
        conn,
        6 * SECONDS,
        END_S * SECONDS,
        4_000_000,
        from_millis(20),
        0,
    );
    sim.run_to_completion((END_S + 10) * SECONDS);
    let stats = &sim.connections[conn].stats;
    let total = 6_000_000 + 4_000_000 * (END_S - 6);
    Run {
        goodput: stats.delivered_bytes as f64 / (END_S as f64),
        lte_share: stats.subflows[1].tx_bytes as f64 / stats.tx_bytes.max(1) as f64,
        p1_lte_kb: tx_bytes_between(stats, 1, 0, 6 * SECONDS) / 1000,
        p2_lte_kb: tx_bytes_between(stats, 1, 6 * SECONDS, END_S * SECONDS) / 1000,
        stream_done: stats.delivery_time_of(total),
    }
}

pub fn run() -> Outcome {
    let mut table = Table::new(
        "stream 1 MB/s (0-6s) then 4 MB/s (6-12s); WiFi preferred ~3 MB/s, LTE metered",
        &[
            "scheduler",
            "goodput",
            "LTE share",
            "LTE@1MB/s",
            "LTE@4MB/s",
            "stream done",
        ],
    );
    let rows = [
        ("default", run_stream(sched::DEFAULT_MIN_RTT, false, false)),
        (
            "backup mode",
            run_stream(sched::DEFAULT_MIN_RTT, true, false),
        ),
        ("TAP", run_stream(sched::TAP, false, true)),
    ];
    for (name, r) in &rows {
        table.row(vec![
            text(*name),
            num(r.goodput / 1e6, 2).unit(" MB/s"),
            num(r.lte_share * 100.0, 1).unit("%"),
            int(r.p1_lte_kb).unit(" KB"),
            int(r.p2_lte_kb).unit(" KB"),
            match r.stream_done {
                Some(t) => num(t as f64 / 1e9, 1).unit(" s"),
                None => text("never"),
            },
        ]);
    }

    let (default, backup, tap) = (&rows[0].1, &rows[1].1, &rows[2].1);
    let done_ms = |r: &Run| match r.stream_done {
        Some(t) => format!("{} ms", t / 1_000_000),
        None => "never".to_string(),
    };
    Outcome {
        tables: vec![table],
        shapes: vec![
            Shape::sim(
                "default wastes metered LTE during the sustainable 1 MB/s phase",
                "the default uses LTE although WiFi sustains the stream (checked: > 500 KB)",
                format!("{} KB", default.p1_lte_kb),
                default.p1_lte_kb > 500,
            ),
            Shape::sim(
                "TAP keeps LTE usage minimal in the 1 MB/s phase",
                "compared with the default scheduler, TAP reduces the non-preferred LTE usage to a \
                 minimum (checked: < 1/4 of the default's)",
                format!("{} KB", tap.p1_lte_kb),
                tap.p1_lte_kb < default.p1_lte_kb / 4,
            ),
            Shape::sim(
                "TAP still uses LTE for the leftover in the 4 MB/s phase",
                "LTE carries only the fraction WiFi cannot (checked: > 0)",
                format!("{} KB", tap.p2_lte_kb),
                tap.p2_lte_kb > 0,
            ),
            Shape::sim(
                "backup mode cannot sustain the stream in time",
                "the existing backup mode cannot sustain 4 MB/s \
                 (checked: done > 1 s after the default)",
                format!("default {} vs backup {}", done_ms(default), done_ms(backup)),
                match (default.stream_done, backup.stream_done) {
                    (Some(d), Some(b)) => b > d + SECONDS,
                    (Some(_), None) => true,
                    _ => false,
                },
            ),
            Shape::sim(
                "TAP sustains the overall stream throughput",
                "while sustaining the required stream throughput \
                 (checked: goodput > 90% of the default's)",
                format!(
                    "{:.2} vs default {:.2} MB/s",
                    tap.goodput / 1e6,
                    default.goodput / 1e6
                ),
                tap.goodput > default.goodput * 0.9,
            ),
        ],
    }
}
