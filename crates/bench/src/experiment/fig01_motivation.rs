use super::{num, text, Outcome, Shape, Table};
use crate::{one_connection, path, tx_bytes_between};
use mptcp_sim::time::{from_millis, MILLIS, SECONDS};
use mptcp_sim::SchedulerSpec;
use progmp_schedulers::DEFAULT_MIN_RTT;

const WIFI_RATE: u64 = 3_000_000; // ~24 Mbit/s: sustains 1 MB/s easily, not 4 MB/s
const LTE_RATE: u64 = 2_500_000;
const END_S: u64 = 12;

struct Run {
    phase1_lte_share: f64,
    phase2_goodput: f64,
    total_lte_share: f64,
}

fn run_stream(lte_backup: bool) -> Run {
    let mut lte = path(40, LTE_RATE);
    if lte_backup {
        lte = lte.backup();
    }
    let (mut sim, conn) = one_connection(
        77,
        vec![path(10, WIFI_RATE), lte],
        SchedulerSpec::dsl(DEFAULT_MIN_RTT),
    );
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
    let p1_wifi = tx_bytes_between(stats, 0, 0, 6 * SECONDS);
    let p1_lte = tx_bytes_between(stats, 1, 0, 6 * SECONDS);
    // Goodput of the 4 MB/s phase: bytes delivered between 6 s and 12 s.
    let delivered_at = |t: u64| -> u64 {
        stats
            .delivery_timeline
            .iter()
            .take_while(|(ts, _)| *ts <= t)
            .last()
            .map(|(_, b)| *b)
            .unwrap_or(0)
    };
    let phase2_goodput = (delivered_at(END_S * SECONDS + 500 * MILLIS)
        .saturating_sub(delivered_at(6 * SECONDS))) as f64
        / 6.5;
    Run {
        phase1_lte_share: p1_lte as f64 / (p1_wifi + p1_lte).max(1) as f64,
        phase2_goodput,
        total_lte_share: stats.subflows[1].tx_bytes as f64 / stats.tx_bytes.max(1) as f64,
    }
}

pub fn run() -> Outcome {
    let mut table = Table::new(
        "interactive stream over WiFi(10ms)+LTE(40ms), default MinRTT: \
         1 MB/s for 0-6 s (sustainable on WiFi), 4 MB/s for 6-12 s",
        &[
            "configuration",
            "LTE share @1MB/s",
            "goodput @4MB/s",
            "LTE share all",
        ],
    );
    let (normal, backup) = (run_stream(false), run_stream(true));
    for (name, r) in [
        ("MinRTT, LTE normal", &normal),
        ("MinRTT, LTE backup mode", &backup),
    ] {
        table.row(vec![
            text(name),
            num(r.phase1_lte_share * 100.0, 1).unit("%"),
            num(r.phase2_goodput / 1e6, 2).unit(" MB/s"),
            num(r.total_lte_share * 100.0, 1).unit("%"),
        ]);
    }
    Outcome {
        tables: vec![table],
        shapes: vec![
            Shape::sim(
                "MinRTT puts substantial traffic on LTE during the 1 MB/s phase",
                "MinRTT places ~30% of the traffic on the high-RTT LTE subflow even while the \
                 stream is sustainable on WiFi alone (checked: > 10%)",
                format!("{:.1}%", normal.phase1_lte_share * 100.0),
                normal.phase1_lte_share > 0.10,
            ),
            Shape::sim(
                "backup mode starves LTE ...",
                "backup mode practically deactivates the subflow (checked: < 10% share)",
                format!("{:.1}% share", backup.total_lte_share * 100.0),
                backup.total_lte_share < 0.10,
            ),
            Shape::sim(
                "... and therefore cannot sustain the 4 MB/s phase",
                "backup mode cannot sustain the 4 MB/s phase (checked: < 3.6 MB/s)",
                format!("{:.2} MB/s", backup.phase2_goodput / 1e6),
                backup.phase2_goodput < 3_600_000.0,
            ),
        ],
    }
}
