//! Golden optimizer snapshots for the bundled paper schedulers.
//!
//! Each of the seven headline schedulers compiles through the verified
//! bytecode optimizer *clean* — every kept rewrite re-verified, no
//! fail-open rollbacks — and the pass statistics, instruction counts,
//! and step bounds (HIR-certified and bytecode-model, before and after)
//! are pinned as `optimized_<name>.snap` so any change to a pass's
//! effectiveness or the verifier's precision shows up as a reviewable
//! diff. The bytecode-model bound must never increase; the certified
//! bound is a property of the HIR and is unchanged by construction.
//! The payoff is pinned beside them: the instructions one upcall retires
//! on the VM before and after optimization, which must never grow.
//! Regenerate with `UPDATE_SNAPSHOTS=1 cargo test -p progmp-conformance
//! --test optimizer_snapshots`.

use progmp_conformance::snapshot::assert_snapshot;
use progmp_core::env::{QueueKind, RegId, SubflowProp};
use progmp_core::exec::ExecCtx;
use progmp_core::testenv::MockEnv;
use progmp_core::{Backend, CompileOptions, SchedulerProgram};
use progmp_schedulers::{source, PAPER};

/// The decision point every scheduler's upcall is counted at: two
/// subflows (10 and 15 ms RTT, window open) and eight 1400-byte packets
/// in `Q`, with `R1` set for `tap` and `targetRtt` the way the scale
/// scenarios set it.
fn decision_point(name: &str) -> MockEnv {
    let mut env = MockEnv::new();
    for i in 0..2 {
        env.add_subflow(i);
        env.set_subflow_prop(i, SubflowProp::Rtt, 10_000 + i64::from(i) * 5_000);
        env.set_subflow_prop(i, SubflowProp::Cwnd, 100);
    }
    for p in 0..8 {
        env.push_packet(QueueKind::SendQueue, 100 + p, 1400 * p as i64, 1400);
    }
    match name {
        "tap" => env.set_register(RegId::R1, 1_000_000),
        "targetRtt" => env.set_register(RegId::R1, 40_000),
        _ => {}
    }
    env
}

/// Instructions one upcall of `program` retires on the VM, which charges
/// one step per instruction.
fn upcall_insns(program: &SchedulerProgram, env: &MockEnv) -> u64 {
    let mut ctx = ExecCtx::new(env, 1_000_000);
    program
        .instantiate(Backend::Vm)
        .execute_raw(&mut ctx)
        .unwrap_or_else(|e| panic!("{:?} executes: {e}", program.name()));
    ctx.finish().2.steps
}

#[test]
fn bundled_schedulers_optimize_clean_with_pinned_stats() {
    for name in PAPER {
        let compile = |optimize_bytecode| {
            progmp_core::compile_with_options(
                Some(name),
                source(name).unwrap(),
                CompileOptions {
                    optimize_bytecode,
                    ..CompileOptions::default()
                },
            )
            .unwrap_or_else(|e| panic!("bundled scheduler {name} must compile: {e}"))
        };
        let program = compile(true);
        let report = program
            .opt_report()
            .unwrap_or_else(|| panic!("{name}: optimized compile records an OptReport"));
        assert!(
            report.diagnostics.is_empty() && report.passes.iter().all(|p| !p.rolled_back),
            "bundled scheduler {name} must optimize without rollbacks:\n{}",
            report.render_human()
        );
        assert!(
            report.bound_after <= report.bound_before,
            "{name}: model step bound must never increase ({} -> {})",
            report.bound_before,
            report.bound_after
        );
        let env = decision_point(name);
        let (before, after) = (
            upcall_insns(&compile(false), &env),
            upcall_insns(&program, &env),
        );
        assert!(
            after <= before,
            "{name}: upcall got slower {before} -> {after} insns"
        );
        let mut out = format!("{name}: optimized clean\n");
        out.push_str(&format!(
            "certified step bound: {} (unchanged by bytecode optimization)\n",
            program.certified_step_bound()
        ));
        out.push_str(&report.render_human());
        out.push_str(&format!(
            "upcall at the 2-subflow, 8-packet decision point: {before} -> {after} instructions\n"
        ));
        assert_snapshot(&format!("optimized_{name}"), &out);
    }
}

/// The committed `optimized_*.snap` set is exactly the seven paper
/// schedulers — a golden left behind after a scheduler rename would
/// otherwise silently stop being checked.
#[test]
fn optimizer_goldens_cover_exactly_the_paper_schedulers() {
    progmp_conformance::snapshot::assert_family_covers("optimized_", &PAPER);
}
