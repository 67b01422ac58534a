use super::{num, text, Outcome, Shape, Table};
use crate::FlowExperiment;
use mptcp_sim::time::from_millis;
use mptcp_sim::{PathConfig, ReceiverMode, SubflowConfig};
use progmp_schedulers as sched;

/// p95 FCT of 30-packet flows over two paths losing `loss` of their
/// packets; `signal` raises the end-of-flow register.
fn p95_fct(scheduler: &'static str, mode: ReceiverMode, loss: f64, signal: bool) -> f64 {
    let lossy = |rtt_ms| {
        SubflowConfig::new(PathConfig::symmetric(from_millis(rtt_ms), 1_250_000).with_loss(loss))
    };
    FlowExperiment::new(scheduler, 30 * 1400, vec![lossy(20), lossy(35)])
        .with_receiver_mode(mode)
        .with_r2_signal(signal.then_some(1))
        .with_runs(60)
        .with_seed(1300)
        .run()
        .p95_fct_ms
}

pub fn run() -> Outcome {
    let mut table = Table::new(
        "improved vs legacy receiver (p95 FCT, ms; 60 runs)",
        &["scheduler", "loss", "legacy", "improved", "gain"],
    );
    let cases: [(&str, &'static str, f64, bool); 4] = [
        ("default", sched::DEFAULT_MIN_RTT, 0.0, false),
        ("default", sched::DEFAULT_MIN_RTT, 0.05, false),
        ("compensating (flow end)", sched::COMPENSATING, 0.05, true),
        ("compensating (flow end)", sched::COMPENSATING, 0.10, true),
    ];
    let mut worst_regression: f64 = f64::MIN;
    let mut best_gain: f64 = 0.0;
    let mut established_gain: f64 = 0.0;
    for (name, src, loss, signal) in cases {
        let lp = p95_fct(src, ReceiverMode::Legacy, loss, signal);
        let ip = p95_fct(src, ReceiverMode::Improved, loss, signal);
        table.row(vec![
            text(name),
            num(loss * 100.0, 0).unit("%"),
            num(lp, 1),
            num(ip, 1),
            num((1.0 - ip / lp) * 100.0, 1).unit("%"),
        ]);
        worst_regression = worst_regression.max(ip - lp);
        if name.starts_with("compensating") {
            best_gain = best_gain.max(lp - ip);
        } else {
            established_gain = established_gain.max(lp - ip);
        }
    }
    Outcome {
        tables: vec![table],
        shapes: vec![
            Shape::sim(
                "the improved receiver never regresses",
                "an optimization of the receiver (checked: worst p95 delta <= 1 ms)",
                format!("worst delta {worst_regression:+.1} ms"),
                worst_regression <= 1.0,
            ),
            Shape::sim(
                "it matters for sophisticated schedulers under loss...",
                "particularly important for sophisticated schedulers (checked: gain > 1 ms at p95)",
                format!("gain {best_gain:.1} ms at p95"),
                best_gain > 1.0,
            ),
            Shape::sim(
                "...and is rarely required for the established ones",
                "rarely required for the established ones \
                 (checked: default gain < compensating gain)",
                format!("default gain {established_gain:.1} ms"),
                established_gain < best_gain,
            ),
        ],
    }
}
