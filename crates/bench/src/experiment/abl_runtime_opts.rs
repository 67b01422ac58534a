use super::{int, num, text, Outcome, Shape, Table};
use crate::{goodput_of, mock_env, ns_per_upcall, path};
use mptcp_sim::time::SECONDS;
use mptcp_sim::{ConnectionConfig, SchedulerSpec, Sim};
use progmp_core::{compile_with_options, Backend, CompileOptions};
use progmp_schedulers as sched;

/// A scheduler with foldable structure in its *hot path*: the threshold
/// arithmetic inside the filter predicate re-evaluates per scanned
/// subflow unless the optimizer folds it to a constant. (Dead branches
/// also fold away, but they were never executed, so the predicate is
/// where folding pays.)
const FOLDABLE: &str = "
    VAR mode = 2 * 3 - 5;
    IF (mode == 1 AND TRUE) {
        VAR avail = SUBFLOWS.FILTER(sbf => !sbf.TSQ_THROTTLED AND !sbf.LOSSY
            AND sbf.CWND > sbf.SKBS_IN_FLIGHT + sbf.QUEUED
            AND sbf.RTT < ((((((1000 * 1000 + 500000) * 2 - 500000) / 5) * 4
                + 80000 - 80000) * 3 + 21) / 3) * 2 + ((7 * 11 + 23) * 100 - 10000));
        IF (!Q.EMPTY) {
            VAR s = avail.MIN(sbf => sbf.RTT);
            IF (s != NULL) { s.PUSH(Q.POP()); }
        }
    } ELSE {
        FOREACH (VAR x IN SUBFLOWS.FILTER(x => x.RTT > 1000000000)) {
            SET(R6, R6 + 1);
        }
    }";

/// Goodput (bytes/s) of a 2 MB transfer with scheduler rounds per
/// trigger capped at `max_rounds`.
fn goodput(max_rounds: u32) -> f64 {
    let mut sim = Sim::new(9);
    let mut cfg = ConnectionConfig::new(
        vec![path(10, 1_250_000), path(20, 1_250_000)],
        SchedulerSpec::dsl(sched::DEFAULT_MIN_RTT),
    )
    .with_timelines();
    cfg.max_sched_rounds = max_rounds;
    let conn = sim.add_connection(cfg).expect("scheduler compiles");
    sim.app_send_at(conn, 0, 2_000_000, 0);
    sim.run_to_completion(120 * SECONDS);
    goodput_of(&sim.connections[conn].stats, 2_000_000)
}

pub fn run() -> Outcome {
    // 1. HIR optimizer.
    let env = mock_env(2, 16);
    let mut folding = Table::new(
        "HIR optimizer: per-execution cost of a fold-heavy scheduler (VM backend)",
        &["HIR optimizer", "ns per execution", "rewrites"],
    );
    let [opt_ns, unopt_ns] = [true, false].map(|optimize| {
        let options = CompileOptions {
            optimize,
            ..CompileOptions::default()
        };
        let program = compile_with_options(None, FOLDABLE, options).expect("FOLDABLE compiles");
        let mut inst = program.instantiate(Backend::Vm);
        let ns = ns_per_upcall(&env, 30_000, |ctx| {
            inst.execute_raw(ctx).expect("FOLDABLE executes");
        });
        folding.row(vec![
            text(if optimize { "on" } else { "off" }),
            num(ns, 0),
            int(program.optimizer_rewrites() as u64),
        ]);
        ns
    });

    // 2. Compressed executions (scheduler rounds per trigger).
    let mut compressed = Table::new(
        "compressed executions: goodput of a 2 MB transfer",
        &["rounds per trigger", "goodput"],
    );
    let [gp1, gp256] = [1, 256].map(|rounds| {
        let gp = goodput(rounds);
        compressed.row(vec![int(u64::from(rounds)), num(gp / 1e6, 2).unit(" MB/s")]);
        gp
    });

    Outcome {
        tables: vec![folding, compressed],
        shapes: vec![
            Shape::timed(
                "constant folding + dead-branch elimination speed up execution",
                "named as a runtime optimization, not measured (checked: optimized < unoptimized)",
                format!(
                    "{opt_ns:.0} vs {unopt_ns:.0} ns, {:.0}% of unoptimized",
                    opt_ns / unopt_ns * 100.0
                ),
                opt_ns < unopt_ns,
            ),
            Shape::sim(
                "compressed executions keep the pipe full",
                "named as a runtime optimization, not measured (checked: 256 rounds >= 1 round)",
                format!("{:.2} vs {:.2} MB/s", gp256 / 1e6, gp1 / 1e6),
                gp256 >= gp1,
            ),
        ],
    }
}
