use super::{int, num, text, Outcome, Shape, Table};
use crate::{max_delivery_stall, path};
use mptcp_sim::time::{from_millis, SimTime, MILLIS, SECONDS};
use mptcp_sim::{ConnectionConfig, FaultClause, FaultPlan, SchedulerSpec, Sim};
use progmp_schedulers as sched;

const BLACKOUT_FROM: SimTime = 2 * SECONDS;
const BLACKOUT_UNTIL: SimTime = 3 * SECONDS + 200 * MILLIS;

struct Run {
    max_stall: SimTime,
    completed: bool,
    reinjections: u64,
    digest: String,
}

fn run_blackout(scheduler: &'static str, seed: u64) -> Run {
    let mut sim = Sim::new(seed);
    sim.enable_oracle(format!("exp_chaos_handover seed {seed}"), true);
    let cfg = ConnectionConfig::new(
        // The primary (WiFi-like) subflow the blackout will hit, and the
        // surviving (LTE-like) subflow.
        vec![path(15, 1_250_000), path(45, 1_250_000)],
        SchedulerSpec::dsl(scheduler),
    )
    .with_timelines();
    let conn = sim.add_connection(cfg).expect("scheduler compiles");
    // A steady 500 KB/s stream across the blackout window.
    sim.add_cbr_source(conn, 0, 5 * SECONDS, 500_000, from_millis(20), 0);
    sim.apply_fault_plan(
        conn,
        &FaultPlan {
            clauses: vec![FaultClause::Blackout {
                sbf: 0,
                from: BLACKOUT_FROM,
                until: BLACKOUT_UNTIL,
            }],
        },
    );
    sim.run_to_completion(120 * SECONDS);

    let c = &sim.connections[conn];
    Run {
        max_stall: max_delivery_stall(&c.stats, BLACKOUT_FROM, BLACKOUT_UNTIL),
        completed: c.all_acked(),
        reinjections: c.stats.reinjections,
        digest: c.stats.snapshot_text(),
    }
}

pub fn run() -> Outcome {
    let mut table = Table::new(
        "scheduled blackout of the primary subflow (t = 2.0–3.2 s), oracle armed, 10 seeds",
        &["scheduler", "max stall (ms)", "reinjections", "completed"],
    );
    // Worst stall, total reinjections and whether every seed completed.
    let [default, redundant, _] = [
        ("default", sched::DEFAULT_MIN_RTT),
        ("redundant", sched::REDUNDANT),
        ("minRttSimple", sched::MIN_RTT_SIMPLE),
    ]
    .map(|(name, src)| {
        let (mut worst, mut reinjections, mut done): (SimTime, u64, bool) = (0, 0, true);
        for seed in 70..80 {
            let out = run_blackout(src, seed);
            worst = worst.max(out.max_stall);
            reinjections += out.reinjections;
            done &= out.completed;
        }
        table.row(vec![
            text(name),
            num(worst as f64 / 1e6, 1),
            int(reinjections),
            text(if done { "yes" } else { "no" }),
        ]);
        (worst, reinjections, done)
    });

    let replays = [0, 1].map(|_| run_blackout(sched::DEFAULT_MIN_RTT, 70).digest);
    Outcome {
        tables: vec![table],
        shapes: vec![
            Shape::sim(
                "redundancy masks the blackout",
                "not in the paper (checked: redundant's worst stall < the default's)",
                format!(
                    "redundant stalls {:.0} ms < default {:.0} ms",
                    redundant.0 as f64 / 1e6,
                    default.0 as f64 / 1e6
                ),
                redundant.0 < default.0,
            ),
            Shape::sim(
                "the default scheduler recovers through the reinjection queue and completes",
                "not in the paper (checked: reinjections > 0 and every transfer completes)",
                format!("{} reinjections, completed: {}", default.1, default.2),
                default.2 && default.1 > 0,
            ),
            Shape::sim(
                "chaos runs replay bit-identically from the seed",
                "not in the paper (checked: two runs of seed 70, equal stats snapshots)",
                format!("snapshots equal: {}", replays[0] == replays[1]),
                replays[0] == replays[1],
            ),
        ],
    }
}
