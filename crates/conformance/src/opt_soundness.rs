//! Differential optimizer-soundness tier for the verified bytecode
//! optimizer ([`progmp_core::opt`]).
//!
//! For every generated program, the VM running the *optimized* image
//! must be bit-identical to the VM running the unoptimized image — same
//! result in each of the differential's rounds, same effect trace, same
//! environment fingerprint — on the same random environment, and the
//! optimized image's
//! bytecode-model step bound must never exceed the unoptimized one.
//! Fail-open rollbacks (a sound rewrite the verifier's loop recognition
//! cannot re-certify on a pathological generated program) are counted,
//! not failed: they are the validation doing its job.
//!
//! That per-pass validation catches a seeded optimizer bug is shown
//! where the passes live: the unit tests of `progmp_core::opt` swap one
//! unsound pass per pass class into the pipeline and require the
//! rollback, with a spanned `misoptimization` diagnostic.

use crate::differ::BackendOutcome;
use crate::gen::Generator;
use crate::tier::Report;
use progmp_core::verify::Lint;
use progmp_core::{Backend, CompileOptions, SchedulerProgram};

fn compile_pair(source: &str) -> Result<(SchedulerProgram, SchedulerProgram), String> {
    let unopt =
        crate::compile_observed(source).map_err(|e| format!("unoptimized compile failed: {e}"))?;
    let opt = progmp_core::compile_with_options(
        None,
        source,
        CompileOptions {
            enforce_admission: false,
            optimize_bytecode: true,
            ..CompileOptions::default()
        },
    )
    .map_err(|e| format!("optimized compile failed: {e}"))?;
    Ok((unopt, opt))
}

/// Checks one seed: compiles the generated program with and without the
/// bytecode optimizer, runs both images on the VM over the same random
/// environment, and compares every observable. Counts the `rewrites
/// kept`, whether a pass was `rolled back` fail-open (counted, not
/// failed — the validation rejecting an unverifiable rewrite) and
/// whether the seed came out `clean` (no finding, no rollback). Panics
/// if the generated program fails to compile at all (generator bug).
pub fn check_seed(seed: u64, out: &mut Report) {
    let mut generator = Generator::new(seed);
    let candidate = generator.program();
    let spec = generator.env_spec();
    let source = candidate.to_string();
    let (unopt, opt) = compile_pair(&source).unwrap_or_else(|e| {
        panic!("seed {seed}: generated program failed to compile: {e}\n{source}")
    });
    let findings_before = out.findings.len();

    let report = opt
        .opt_report()
        .expect("optimized compile records an OptReport");
    if report.bound_after > report.bound_before {
        out.finding(
            seed,
            "step-bound monotonicity",
            format!(
                "model bound grew {} -> {}",
                report.bound_before, report.bound_after
            ),
            &source,
        );
    }
    // Fail-open rollbacks must still carry a spanned diagnostic — a
    // silent rollback would be unauditable.
    let rolled_back = report.passes.iter().any(|p| p.rolled_back);
    if rolled_back
        && !report
            .diagnostics
            .iter()
            .any(|d| d.lint == Lint::Misoptimization && d.pos.line > 0)
    {
        out.finding(
            seed,
            "rollback without a spanned misoptimization diagnostic",
            format!("{:?}", report.passes),
            &source,
        );
    }

    let run_vm =
        |p: &SchedulerProgram| BackendOutcome::run(p, Backend::Vm, &spec, p.certified_step_bound());
    let (before, after) = (run_vm(&unopt), run_vm(&opt));
    if !after.agrees_with(&before) {
        let (before, after) = (before.render(), after.render());
        let detail = format!("--- unoptimized ---\n{before}--- optimized ---\n{after}");
        out.finding(
            seed,
            "optimized vs unoptimized VM execution",
            detail,
            &source,
        );
    }
    out.count("rewrites kept", report.total_rewrites());
    out.count("rolled back", rolled_back as u64);
    let clean = !rolled_back && out.findings.len() == findings_before;
    out.count("clean", clean as u64);
}
