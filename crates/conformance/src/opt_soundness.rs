//! Differential optimizer-soundness tier for the verified bytecode
//! optimizer ([`progmp_core::opt`]).
//!
//! For every generated program, the VM running the *optimized* image
//! must be bit-identical to the VM running the unoptimized image — same
//! execution result, same effect trace, same environment fingerprint —
//! on the same random environment, and the optimized image's
//! bytecode-model step bound must never exceed the unoptimized one.
//! Fail-open rollbacks (a sound rewrite the verifier's loop recognition
//! cannot re-certify on a pathological generated program) are counted,
//! not failed: they are the validation doing its job.
//!
//! That per-pass validation catches a seeded optimizer bug is shown
//! where the passes live: the unit tests of `progmp_core::opt` swap one
//! unsound pass per pass class into the pipeline and require the
//! rollback, with a spanned `misoptimization` diagnostic.

use crate::gen::Generator;
use crate::tier::Report;
use progmp_core::env::RecordingEnv;
use progmp_core::verify::Lint;
use progmp_core::{Backend, CompileOptions, SchedulerProgram};

fn compile_pair(source: &str) -> Result<(SchedulerProgram, SchedulerProgram), String> {
    let compile = |optimize: bool| {
        progmp_core::compile_with_options(
            None,
            source,
            CompileOptions {
                enforce_admission: false,
                optimize_bytecode: optimize,
                ..CompileOptions::default()
            },
        )
    };
    let unopt = compile(false).map_err(|e| format!("unoptimized compile failed: {e}"))?;
    let opt = compile(true).map_err(|e| format!("optimized compile failed: {e}"))?;
    Ok((unopt, opt))
}

/// Runs one program on the VM backend, returning the observable outcome.
fn run_vm(
    program: &SchedulerProgram,
    spec: &crate::gen::EnvSpec,
) -> (Result<(), progmp_core::ExecError>, String, String) {
    let mut env = RecordingEnv::new(spec.build());
    let mut instance = program.instantiate(Backend::Vm);
    let result = instance.execute(&mut env).map(|_| ());
    (result, env.trace.render(), env.inner.state_fingerprint())
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

    let (r0, t0, f0) = run_vm(&unopt, &spec);
    let (r1, t1, f1) = run_vm(&opt, &spec);
    if r0 != r1 || t0 != t1 || f0 != f1 {
        let mut detail = String::new();
        if r0 != r1 {
            detail.push_str(&format!("result: {r0:?} vs {r1:?}\n"));
        }
        if t0 != t1 {
            detail.push_str(&format!(
                "trace:\n--- unoptimized ---\n{t0}--- optimized ---\n{t1}"
            ));
        }
        if f0 != f1 {
            detail.push_str(&format!(
                "fingerprint:\n--- unoptimized ---\n{f0}--- optimized ---\n{f1}"
            ));
        }
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
