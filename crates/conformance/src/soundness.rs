//! Verifier-soundness tier: admitted programs never fail at runtime.
//!
//! The admission verifier ([`progmp_core::verify`]) claims that any
//! program it admits (a) runs to completion under its certified step
//! bound and (b) never hits a runtime error — the only ones possible
//! being `StepBudgetExhausted` and `MalformedBytecode`, both of which
//! the verifier's cost proof and the bytecode verifier are supposed to
//! exclude. This module checks that claim empirically: for each seed it
//! generates a random well-typed program, compiles it in observe mode,
//! and — when the verifier admits it — executes it several times on
//! every backend under the certified bound. Any execution error, or a
//! step count above the certified bound, is a *soundness violation*.
//!
//! Rejections are not failures (the verifier is allowed to be
//! conservative), but the tier counts them so precision regressions are
//! visible in CI logs.

use crate::gen::Generator;
use crate::tier::Report;
use progmp_core::Backend;

/// Executions run per backend for each admitted program, to exercise
/// register persistence and repeated queue consumption.
const RUNS_PER_BACKEND: u32 = 3;

/// Generates the program and environment for `seed` and checks the
/// soundness contract: counts the program as `admitted` or `rejected`,
/// and records a finding when an admitted program's execution
/// misbehaves. Panics on generator bugs (programs that fail to compile)
/// since those invalidate the harness itself.
pub fn check_seed(seed: u64, out: &mut Report) {
    let mut generator = Generator::new(seed);
    let candidate = generator.program();
    let spec = generator.env_spec();
    let source = candidate.to_string();
    let program = crate::compile_observed(&source).unwrap_or_else(|e| {
        panic!("seed {seed}: generated program failed to compile: {e}\n{source}")
    });
    if !program.verdict().admitted() {
        out.count("rejected", 1);
        return;
    }
    out.count("admitted", 1);
    let bound = program.certified_step_bound();
    for backend in Backend::ALL {
        // Instances inherit the certified bound as their step budget.
        let mut instance = program.instantiate(backend);
        let mut env = spec.build();
        for round in 0..RUNS_PER_BACKEND {
            let detail = match instance.execute(&mut env) {
                Ok(stats) if stats.steps > bound => format!(
                    "execution {round} took {} steps, above the certified bound",
                    stats.steps
                ),
                Ok(_) => continue,
                Err(e) => format!("execution {round} failed: {e}"),
            };
            let context = format!("backend {}, certified step bound {bound}", backend.name());
            out.finding(seed, context, detail, source);
            return;
        }
    }
}
