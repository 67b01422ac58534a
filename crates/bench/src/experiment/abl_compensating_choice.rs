use super::{int, num, Outcome, Shape, Table};
use crate::{path, FlowExperiment};

fn compensating_with(selector: &str) -> String {
    format!(
        "
    VAR avail = SUBFLOWS.FILTER(sbf => !sbf.TSQ_THROTTLED AND !sbf.LOSSY
        AND sbf.CWND > sbf.SKBS_IN_FLIGHT + sbf.QUEUED);
    IF (!Q.EMPTY) {{
        VAR s = avail.MIN(sbf => sbf.RTT);
        IF (s != NULL) {{ s.PUSH(Q.POP()); }}
        RETURN;
    }}
    IF (R2 == 1) {{
        FOREACH (VAR sbf IN SUBFLOWS) {{
            VAR skb = QU.FILTER(p => !p.SENT_ON(sbf)){selector};
            IF (skb != NULL) {{ sbf.PUSH(skb); }}
        }}
    }}"
    )
}

fn mean_fct(selector: &str, ratio: u64) -> f64 {
    let subflows = vec![path(15, 1_250_000), path(15 * ratio, 1_250_000)];
    FlowExperiment::new(&compensating_with(selector), 12 * 1400, subflows)
        .with_r2_signal(Some(1))
        .with_runs(15)
        .with_seed(2200)
        .run()
        .mean_fct_ms
}

pub fn run() -> Outcome {
    let mut table = Table::new(
        "which packet does compensation retransmit? mean FCT of 12-packet flows, 15 runs",
        &["ratio", "TOP", "MIN(SEQ)", "MAX(SEQ)"],
    );
    let mut max_spread: f64 = 0.0;
    for ratio in [2u64, 4, 8] {
        let fcts = [".TOP", ".MIN(k => k.SEQ)", ".MAX(k => k.SEQ)"].map(|v| mean_fct(v, ratio));
        let cells = fcts.map(|ms| num(ms, 1).unit(" ms"));
        table.row([int(ratio)].into_iter().chain(cells));
        let hi = fcts.iter().cloned().fold(f64::MIN, f64::max);
        let lo = fcts.iter().cloned().fold(f64::MAX, f64::min);
        max_spread = max_spread.max((hi - lo) / lo);
    }
    Outcome {
        tables: vec![table],
        shapes: vec![Shape::sim(
            "the retransmitted-packet choice has only minor FCT impact",
            "\"A variation of the choice of the retransmitted packet using TOP instead of FIRST \
             showed only minor impact on the FCT.\" (checked: max spread < 15%)",
            format!("max spread {:.1}%", max_spread * 100.0),
            max_spread < 0.15,
        )],
    }
}
