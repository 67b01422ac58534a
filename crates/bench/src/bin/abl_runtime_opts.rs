//! Ablation (§4.1 "Runtime Optimizations"): what each runtime
//! optimization buys, measured as per-execution cost on the VM backend.
//!
//! * HIR optimizer (constant folding / dead branches) on vs off;
//! * compressed executions: scheduler rounds per trigger capped at 1 vs
//!   unbounded, measured as simulation goodput (a trigger that can only
//!   place one packet wastes wall-clock between triggers).

use mptcp_sim::time::{from_millis, SECONDS};
use mptcp_sim::{ConnectionConfig, PathConfig, SchedulerSpec, Sim, SubflowConfig};
use progmp_core::env::{QueueKind, SubflowProp};
use progmp_core::exec::ExecCtx;
use progmp_core::testenv::MockEnv;
use progmp_core::{compile_with_options, Backend, CompileOptions};
use progmp_schedulers as sched;
use std::time::Instant;

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

fn bench_env() -> MockEnv {
    let mut env = MockEnv::new();
    for i in 0..2 {
        env.add_subflow(i);
        env.set_subflow_prop(i, SubflowProp::Rtt, 10_000 + i64::from(i) * 5_000);
        env.set_subflow_prop(i, SubflowProp::Cwnd, 100);
    }
    for p in 0..16u64 {
        env.push_packet(QueueKind::SendQueue, 100 + p, 1400 * p as i64, 1400);
    }
    env
}

fn measure(inst: &mut progmp_core::SchedulerInstance, env: &MockEnv, iters: u32) -> f64 {
    for _ in 0..2000 {
        let mut ctx = ExecCtx::new(env, 1_000_000);
        inst.execute_raw(&mut ctx).unwrap();
    }
    // Min over several repetitions suppresses scheduling noise.
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..iters {
            let mut ctx = ExecCtx::new(env, 1_000_000);
            inst.execute_raw(&mut ctx).unwrap();
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    best
}

fn main() {
    let iters = if progmp_bench::report::smoke() {
        2_000
    } else {
        30_000
    };
    let env = bench_env();
    println!("=== Ablation §4.1: runtime optimizations (VM backend) ===\n");

    // 1. HIR optimizer.
    let opt = compile_with_options(
        None,
        FOLDABLE,
        CompileOptions {
            optimize: true,
            ..CompileOptions::default()
        },
    )
    .unwrap();
    let unopt = compile_with_options(
        None,
        FOLDABLE,
        CompileOptions {
            optimize: false,
            ..CompileOptions::default()
        },
    )
    .unwrap();
    let mut opt_inst = opt.instantiate(Backend::Vm);
    let mut unopt_inst = unopt.instantiate(Backend::Vm);
    let opt_ns = measure(&mut opt_inst, &env, iters);
    let unopt_ns = measure(&mut unopt_inst, &env, iters);
    println!(
        "optimizer:     {:>8.0} ns optimized ({} rewrites) vs {:>8.0} ns unoptimized",
        opt_ns,
        opt.optimizer_rewrites(),
        unopt_ns
    );

    // 2. Compressed executions (scheduler rounds per trigger).
    let goodput = |max_rounds: u32| -> f64 {
        let mut sim = Sim::new(9);
        let mut cfg = ConnectionConfig::new(
            vec![
                SubflowConfig::new(PathConfig::symmetric(from_millis(10), 1_250_000)),
                SubflowConfig::new(PathConfig::symmetric(from_millis(20), 1_250_000)),
            ],
            SchedulerSpec::dsl(sched::DEFAULT_MIN_RTT),
        )
        .with_timelines();
        cfg.max_sched_rounds = max_rounds;
        let conn = sim.add_connection(cfg).unwrap();
        sim.app_send_at(conn, 0, 2_000_000, 0);
        sim.run_to_completion(120 * SECONDS);
        let c = &sim.connections[conn];
        match c.stats.delivery_time_of(2_000_000) {
            Some(t) => 2_000_000.0 / (t as f64 / 1e9),
            None => 0.0,
        }
    };
    let gp1 = goodput(1);
    let gp256 = goodput(256);
    println!(
        "compressed exec: {:>6.2} MB/s with 1 round/trigger vs {:.2} MB/s with 256",
        gp1 / 1e6,
        gp256 / 1e6
    );

    println!("\npaper shape checks:");
    println!(
        "  [{}] constant folding + dead-branch elimination speed up execution ({:.0}% of unoptimized)",
        ok(opt_ns < unopt_ns),
        opt_ns / unopt_ns * 100.0
    );
    println!(
        "  [{}] compressed executions keep the pipe full ({:.2} vs {:.2} MB/s)",
        ok(gp256 >= gp1),
        gp256 / 1e6,
        gp1 / 1e6
    );
}

fn ok(b: bool) -> &'static str {
    if b {
        "ok"
    } else {
        "??"
    }
}
