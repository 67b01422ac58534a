use super::{int, num, Outcome, Shape, Table};
use crate::{path, FlowExperiment};
use progmp_schedulers as sched;

const BASE_RTT_MS: u64 = 15;
const FLOW_BYTES: u64 = 12 * 1400;
const RATE: u64 = 1_250_000;

pub fn run() -> Outcome {
    let mut table = Table::new(
        "FCT and overhead vs RTT ratio (12-packet flows, end-of-flow signal, 20 runs)",
        &[
            "ratio",
            "default",
            "ovh",
            "compensate",
            "ovh",
            "selective",
            "ovh",
        ],
    );
    let ratios = [1u64, 2, 3, 4, 6, 8];
    let batches = ratios.map(|ratio| {
        let [d, c, s] = [
            sched::DEFAULT_MIN_RTT,
            sched::COMPENSATING,
            sched::SELECTIVE_COMPENSATION,
        ]
        .map(|src| {
            let subflows = vec![path(BASE_RTT_MS, RATE), path(BASE_RTT_MS * ratio, RATE)];
            FlowExperiment::new(src, FLOW_BYTES, subflows)
                .with_r2_signal(Some(1))
                .with_runs(20)
                .with_seed(9000 + ratio)
                .run()
        });
        table.row(vec![
            int(ratio),
            num(d.mean_fct_ms, 1).unit(" ms"),
            num(d.mean_overhead, 2).unit("x"),
            num(c.mean_fct_ms, 1).unit(" ms"),
            num(c.mean_overhead, 2).unit("x"),
            num(s.mean_fct_ms, 1).unit(" ms"),
            num(s.mean_overhead, 2).unit("x"),
        ]);
        (d.mean_fct_ms, c.mean_fct_ms, s.mean_overhead)
    });

    let (def, comp, sel_ovh) = (
        batches.map(|b| b.0),
        batches.map(|b| b.1),
        batches.map(|b| b.2),
    );
    let last = ratios.len() - 1;
    Outcome {
        tables: vec![table],
        shapes: vec![
            Shape::sim(
                "default FCT rapidly increases with the RTT ratio",
                "the default scheduler's FCT grows steeply with the RTT ratio \
                 (checked: > 2x from ratio 1 to 8)",
                format!("{:.1} -> {:.1} ms", def[0], def[last]),
                def[last] > def[0] * 2.0,
            ),
            Shape::sim(
                "Compensating retains the FCT under skew",
                "the flow-end-aware Compensating scheduler retains the FCT at the cost of overhead \
                 (checked: < 2x from ratio 1 to 8)",
                format!("{:.1} -> {:.1} ms", comp[0], comp[last]),
                comp[last] < comp[0] * 2.0,
            ),
            Shape::sim(
                "Selective Compensation is overhead-free at ratio <= 2 and compensates above",
                "Selective Compensation only pays the overhead when the ratio exceeds 2 \
                 (checked: < 1.2x at 1 and 2, > 1.4x at 8)",
                format!("{:.2}x and {:.2}x", sel_ovh[0], sel_ovh[last]),
                sel_ovh[0] < 1.2 && sel_ovh[1] < 1.2 && sel_ovh[last] > 1.4,
            ),
        ],
    }
}
