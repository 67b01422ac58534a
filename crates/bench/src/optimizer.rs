//! Before/after measurement of the verified bytecode optimizer
//! ([`progmp_core::opt`]) over the seven paper schedulers.
//!
//! Two benches share these numbers: the `tab_upcall_overhead`
//! experiment reports the per-upcall executed-instruction reduction next
//! to the §4.1 calling-model comparison, and `scale_fleet` pins them into the
//! `BENCH_scale.json` meta so the performance-trajectory baseline
//! records which image generation it was measured against.
//!
//! The VM charges exactly one step per retired instruction, so
//! [`progmp_core::exec::ExecStats::steps`] from a VM execution *is* the
//! per-upcall dynamic instruction count — the measurement is
//! deterministic, not a timing.

use crate::report::Json;
use progmp_core::env::RegId;
use progmp_core::exec::ExecCtx;
use progmp_core::testenv::MockEnv;
use progmp_core::{Backend, CompileOptions};
use progmp_schedulers::PAPER;

/// Optimizer before/after numbers for one bundled scheduler.
#[derive(Debug, Clone)]
pub struct OptMeasurement {
    /// Bundled scheduler name.
    pub scheduler: &'static str,
    /// Instructions retired by one upcall on the unoptimized image.
    pub upcall_insns_before: u64,
    /// Instructions retired by one upcall on the optimized image.
    pub upcall_insns_after: u64,
    /// Static image size before optimization.
    pub image_insns_before: usize,
    /// Static image size after optimization.
    pub image_insns_after: usize,
    /// Bytecode-model step bound before optimization.
    pub model_bound_before: u64,
    /// Bytecode-model step bound after optimization (never larger).
    pub model_bound_after: u64,
    /// HIR-certified step bound (unchanged by bytecode optimization).
    pub certified_bound: u64,
}

/// The same two-subflow, eight-packet decision point every scheduler is
/// measured on; `tap`/`targetRtt` get their tuning register set the way
/// the scale scenarios set it.
fn bench_env(scheduler: &str) -> MockEnv {
    let mut env = crate::mock_env(2, 8);
    match scheduler {
        "tap" => env.set_register(RegId::R1, 1_000_000),
        "targetRtt" => env.set_register(RegId::R1, 40_000),
        _ => {}
    }
    env
}

fn executed_insns(program: &progmp_core::SchedulerProgram, scheduler: &str) -> u64 {
    let env = bench_env(scheduler);
    let mut inst = program.instantiate(Backend::Vm);
    let mut ctx = ExecCtx::new(&env, 1_000_000);
    inst.execute_raw(&mut ctx)
        .unwrap_or_else(|e| panic!("bundled scheduler {scheduler} executes: {e}"));
    let (_, _, stats) = ctx.finish();
    stats.steps
}

/// Compiles `scheduler` with and without the bytecode optimizer and runs
/// one upcall of each image on the shared decision point.
pub fn measure(scheduler: &'static str) -> OptMeasurement {
    let source = progmp_schedulers::source(scheduler).expect("bundled scheduler");
    let compile = |optimize: bool| {
        progmp_core::compile_with_options(
            Some(scheduler),
            source,
            CompileOptions {
                optimize_bytecode: optimize,
                ..CompileOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("bundled scheduler {scheduler} compiles: {e}"))
    };
    let unopt = compile(false);
    let opt = compile(true);
    let report = opt
        .opt_report()
        .expect("optimized compile records an OptReport");
    OptMeasurement {
        scheduler,
        upcall_insns_before: executed_insns(&unopt, scheduler),
        upcall_insns_after: executed_insns(&opt, scheduler),
        image_insns_before: report.insns_before,
        image_insns_after: report.insns_after,
        model_bound_before: report.bound_before,
        model_bound_after: report.bound_after,
        certified_bound: opt.certified_step_bound(),
    }
}

/// [`measure`] over all seven paper schedulers.
pub fn measure_all() -> Vec<OptMeasurement> {
    PAPER.iter().map(|s| measure(s)).collect()
}

/// Renders measurements as the `optimizer` meta object shared by the
/// bench reports: one entry per scheduler, keyed by name.
pub fn meta_json(measurements: &[OptMeasurement]) -> Json {
    Json::Obj(
        measurements
            .iter()
            .map(|m| {
                (
                    m.scheduler.to_string(),
                    Json::Obj(vec![
                        (
                            "upcall_insns_before".to_string(),
                            Json::from(m.upcall_insns_before),
                        ),
                        (
                            "upcall_insns_after".to_string(),
                            Json::from(m.upcall_insns_after),
                        ),
                        (
                            "image_insns_before".to_string(),
                            Json::from(m.image_insns_before),
                        ),
                        (
                            "image_insns_after".to_string(),
                            Json::from(m.image_insns_after),
                        ),
                        (
                            "model_bound_before".to_string(),
                            Json::from(m.model_bound_before),
                        ),
                        (
                            "model_bound_after".to_string(),
                            Json::from(m.model_bound_after),
                        ),
                        ("certified_bound".to_string(), Json::from(m.certified_bound)),
                    ]),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline payoff the optimizer tier promises: a majority of
    /// the paper schedulers retire fewer instructions per upcall, and the
    /// model bound never grows for any of them.
    #[test]
    fn optimizer_reduces_upcall_insns_for_most_paper_schedulers() {
        let measurements = measure_all();
        assert_eq!(measurements.len(), PAPER.len());
        let mut reduced = 0;
        for m in &measurements {
            assert!(
                m.model_bound_after <= m.model_bound_before,
                "{}: model bound grew {} -> {}",
                m.scheduler,
                m.model_bound_before,
                m.model_bound_after
            );
            assert!(
                m.upcall_insns_after <= m.upcall_insns_before,
                "{}: upcall got slower {} -> {} insns",
                m.scheduler,
                m.upcall_insns_before,
                m.upcall_insns_after
            );
            if m.upcall_insns_after < m.upcall_insns_before {
                reduced += 1;
            }
        }
        assert!(
            reduced >= 5,
            "expected >= 5/7 schedulers to reduce, got {reduced}"
        );
    }
}
