use super::{int, num, Outcome, Shape, Table};
use crate::{path, FlowExperiment};
use progmp_schedulers as sched;

/// Mean FCT over a long-RTT path: window-limited flows pay a full RTT
/// for every window's worth of packets beyond the initial window.
/// `tail` is the flow tail length the application signals through `R2`.
fn mean_fct(scheduler: &'static str, flow_pkts: u64, tail: Option<i64>) -> f64 {
    FlowExperiment::new(scheduler, flow_pkts * 1400, vec![path(80, 5_000_000)])
        .with_r2_signal(tail)
        .with_runs(10)
        .with_seed(3100)
        .run()
        .mean_fct_ms
}

pub fn run() -> Outcome {
    let mut table = Table::new(
        "relaxing the cwnd constraint for the flow tail; single 80 ms path; \
         IW10 makes 11..14-packet flows pay an extra RTT",
        &["flow (pkts)", "default (ms)", "cwndRelax (ms)", "saved"],
    );
    let mut saved_at_tail = 0.0;
    for pkts in [8u64, 11, 13, 20, 40] {
        let d = mean_fct(sched::DEFAULT_MIN_RTT, pkts, None);
        // Application signals the flow tail length (last 4 packets).
        let r = mean_fct(sched::CWND_RELAX, pkts, Some(4));
        table.row(vec![
            int(pkts),
            num(d, 1),
            num(r, 1),
            num((1.0 - r / d) * 100.0, 1).unit("%"),
        ]);
        if pkts == 13 {
            saved_at_tail = d - r;
        }
    }
    Outcome {
        tables: vec![table],
        shapes: vec![Shape::sim(
            "relaxing the window for the tail saves roughly one RTT for flows just past a \
             window boundary",
            "relax the cwnd for the last packets \"to save an RTT\" \
             (checked: > 40 ms of the 80 ms RTT at 13 pkts)",
            format!("{saved_at_tail:.0} ms at 13 pkts"),
            saved_at_tail > 40.0,
        )],
    }
}
