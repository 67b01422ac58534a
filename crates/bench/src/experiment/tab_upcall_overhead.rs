use super::{int, num, text, Outcome, Shape, Table};
use crate::{mock_env, ns_per_upcall, path};
use mptcp_sim::time::SECONDS;
use mptcp_sim::{ConnectionConfig, ContainmentConfig, SchedulerSpec, Sim};
use progmp_core::exec::ExecCtx;
use progmp_core::{compile, Backend};
use progmp_schedulers::DEFAULT_MIN_RTT;
use std::sync::mpsc;
use std::time::Instant;

const ITERS: u32 = 10_000;

/// Runs one healthy 5 MB bulk transfer, optionally under the containment
/// supervisor, and returns `(wall ns per scheduler execution, executions)`.
fn contained_clean_run(contained: bool) -> (f64, u64) {
    let mut sim = Sim::new(7);
    if contained {
        sim.enable_containment(ContainmentConfig);
    }
    let cfg = ConnectionConfig::new(
        vec![path(10, 5_000_000), path(40, 5_000_000)],
        SchedulerSpec::dsl(DEFAULT_MIN_RTT),
    );
    let conn = sim.add_connection(cfg).expect("scheduler compiles");
    sim.add_bulk_source(conn, 5_000_000, 0);
    let t0 = Instant::now();
    sim.run_to_completion(600 * SECONDS);
    let wall = t0.elapsed();
    assert!(sim.connections[conn].all_acked(), "clean run completes");
    assert!(
        sim.incidents().is_empty(),
        "a healthy scheduler must produce no incidents"
    );
    let execs = sim.connections[conn].stats.scheduler_executions;
    (wall.as_nanos() as f64 / execs.max(1) as f64, execs)
}

pub fn run() -> Outcome {
    let program = compile(DEFAULT_MIN_RTT).expect("default compiles");
    let env = mock_env(2, 8);

    // In-process execution (the in-kernel model).
    let mut inst = program.instantiate(Backend::Vm);
    let in_process_ns = ns_per_upcall(&env, ITERS, |ctx| {
        inst.execute_raw(ctx).expect("default executes");
    });

    // Up-call model: every scheduling decision round-trips to a worker
    // thread (request + response over channels), as a netlink-based
    // userspace scheduler would.
    let (req_tx, req_rx) = mpsc::channel::<()>();
    let (resp_tx, resp_rx) = mpsc::channel::<()>();
    let upcall_ns = std::thread::scope(|scope| {
        let (program, env) = (&program, &env);
        scope.spawn(move || {
            let mut inst = program.instantiate(Backend::Vm);
            while req_rx.recv().is_ok() {
                let mut ctx = ExecCtx::new(env, 1_000_000);
                inst.execute_raw(&mut ctx).expect("default executes");
                resp_tx.send(()).expect("main thread alive");
            }
        });
        let ns = ns_per_upcall(env, ITERS, |_| {
            req_tx.send(()).expect("worker alive");
            resp_rx.recv().expect("worker answers");
        });
        drop(req_tx);
        ns
    });

    let mut calling = Table::new("calling-model comparison", &["model", "per decision"]);
    for (model, ns) in [
        ("in-process (in-kernel analogue)", in_process_ns),
        ("thread round-trip (up-call)", upcall_ns),
    ] {
        calling.row(vec![text(model), num(ns / 1000.0, 2).unit(" µs")]);
    }

    // Clean-path cost of the containment supervisor: same healthy
    // transfer, supervisor off vs on, best of five to shed scheduler noise.
    let best = |contained: bool| {
        let runs = (0..5).map(|_| contained_clean_run(contained));
        runs.min_by(|a, b| a.0.total_cmp(&b.0)).expect("five runs")
    };
    let (plain_ns, plain_execs) = best(false);
    let (contained_ns, contained_execs) = best(true);
    let overhead_pct = 100.0 * (contained_ns - plain_ns) / plain_ns;
    let mut containment = Table::new(
        "containment supervisor: clean-path overhead",
        &["configuration", "per decision", "decisions"],
    );
    for (name, ns, execs) in [
        ("supervisor off", plain_ns, plain_execs),
        ("supervisor on (no faults)", contained_ns, contained_execs),
    ] {
        containment.row(vec![text(name), num(ns, 0).unit(" ns"), int(execs)]);
    }

    Outcome {
        tables: vec![calling, containment],
        shapes: vec![
            Shape::timed(
                "the up-call model is many times more expensive — the reason the runtime lives in \
                 the kernel",
                "a userspace up-call costs ~2.4 µs per scheduling decision, in-kernel execution \
                 ~0.2 µs: an order of magnitude (checked: > 3x)",
                format!(
                    "{:.2} vs {:.2} µs, {:.1}x",
                    upcall_ns / 1000.0,
                    in_process_ns / 1000.0,
                    upcall_ns / in_process_ns
                ),
                upcall_ns > 3.0 * in_process_ns,
            )
            .deviation(
                "the factor follows the host's thread wake-up latency (3x to 13x on shared \
                 2-CPU containers, against the paper's 12x): a Rust channel round trip is not a \
                 netlink syscall pair, and our in-process execution is slower than a hot kernel \
                 path; the architectural conclusion is unchanged",
            ),
            Shape::timed(
                "clean-path containment overhead",
                "not in the paper (target: < 5% wall overhead per decision)",
                format!("{overhead_pct:+.1}%"),
                overhead_pct < 5.0,
            ),
        ],
    }
}
