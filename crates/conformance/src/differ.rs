//! Differential execution of one program across all backends.
//!
//! A program diverges when any backend disagrees with the interpreter
//! (the reference) on any of:
//!
//! * the execution result (`Ok` vs which [`ExecError`]),
//! * the recorded [`EffectTrace`] (registers written, packets pushed or
//!   dropped, in order),
//! * the final environment fingerprint (queue contents, transmissions,
//!   packet state).
//!
//! Step counts and other performance statistics legitimately differ per
//! backend and are deliberately *not* compared.

use crate::gen::{EnvSpec, Generator};
use crate::shrink::shrink;
use crate::tier::Report;
use progmp_core::ast::Program;
use progmp_core::env::{EffectTrace, RecordingEnv};
use progmp_core::{Backend, CompileError, ExecError};

/// What one backend did with the program.
#[derive(Debug, Clone)]
pub struct BackendOutcome {
    /// The backend that ran.
    pub backend: Backend,
    /// Execution result, with backend-specific statistics erased.
    pub result: Result<(), ExecError>,
    /// Every effect the execution applied.
    pub trace: EffectTrace,
    /// Final environment state fingerprint.
    pub fingerprint: String,
}

/// A reproducible cross-backend disagreement.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Seed that produced the case, when known.
    pub seed: Option<u64>,
    /// Program source (canonical printer output).
    pub source: String,
    /// The environment the program ran on.
    pub env: EnvSpec,
    /// Per-backend outcomes, in [`Backend::ALL`] order.
    pub outcomes: Vec<BackendOutcome>,
}

impl Divergence {
    /// Full repro report: seed, program, environment, and each backend's
    /// observable outcome.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str("=== cross-backend divergence ===\n");
        if let Some(seed) = self.seed {
            out.push_str(&format!("seed: {seed}\n"));
        }
        out.push_str("--- program ---\n");
        out.push_str(&self.source);
        out.push_str("--- environment ---\n");
        out.push_str(&self.env.render());
        for o in &self.outcomes {
            out.push_str(&format!("--- backend {} ---\n", o.backend.name()));
            match &o.result {
                Ok(()) => out.push_str("result: ok\n"),
                Err(e) => out.push_str(&format!("result: error: {e}\n")),
            }
            out.push_str(&o.trace.render());
            out.push_str(&o.fingerprint);
        }
        out
    }
}

/// Runs `source` on a copy of `spec`'s environment under every backend.
///
/// Returns `Ok(None)` when all backends agree, `Ok(Some(divergence))`
/// otherwise, and `Err` if the program does not compile (a generator bug
/// when the source came from [`Generator`]).
///
/// Compiles in observe mode ([`crate::compile_observed`]): the
/// differential contract covers every well-typed program, including
/// ones the admission gate would reject.
pub fn run_differential(source: &str, spec: &EnvSpec) -> Result<Option<Divergence>, CompileError> {
    let program = crate::compile_observed(source)?;
    let mut outcomes = Vec::with_capacity(Backend::ALL.len());
    for backend in Backend::ALL {
        let mut env = RecordingEnv::new(spec.build());
        let mut instance = program.instantiate(backend);
        let result = instance.execute(&mut env).map(|_| ());
        outcomes.push(BackendOutcome {
            backend,
            result,
            trace: env.trace,
            fingerprint: env.inner.state_fingerprint(),
        });
    }
    let reference = &outcomes[0];
    let agrees = outcomes[1..].iter().all(|o| {
        o.result == reference.result
            && o.trace == reference.trace
            && o.fingerprint == reference.fingerprint
    });
    if agrees {
        Ok(None)
    } else {
        Ok(Some(Divergence {
            seed: None,
            source: source.to_string(),
            env: spec.clone(),
            outcomes,
        }))
    }
}

/// Generates the program and environment for `seed` and runs the
/// differential check; a divergence is shrunk to a minimal repro, which
/// the finding carries as a full [`Divergence::report`]. Panics on
/// generator bugs (programs that fail to compile) since those invalidate
/// the harness itself.
pub fn check_seed(seed: u64, out: &mut Report) {
    let mut generator = Generator::new(seed);
    let program = generator.program();
    let spec = generator.env_spec();
    let source = program.to_string();
    let diverges = |p: &Program, s: &EnvSpec| run_differential(&p.to_string(), s);
    let divergence = match diverges(&program, &spec) {
        Ok(None) => return,
        Ok(Some(d)) => d,
        Err(e) => panic!("seed {seed}: generated program failed to compile: {e}\n{source}"),
    };
    let (program, spec) = shrink(program, spec, &mut |p, s| {
        matches!(diverges(p, s), Ok(Some(_)))
    });
    // Shrinking keeps the predicate true at every step, so the shrunk
    // case diverges; the original report is the fallback if it does not.
    let mut minimal = diverges(&program, &spec)
        .ok()
        .flatten()
        .unwrap_or(divergence);
    minimal.seed = Some(seed);
    out.finding(
        seed,
        "shrunk case on interpreter, aot and vm",
        "backends disagree on the result, the effect trace or the final environment",
        minimal.report(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundled_min_rtt_agrees_across_backends() {
        let src =
            "IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) { SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP()); }";
        let mut generator = Generator::new(1234);
        let spec = generator.env_spec();
        assert!(run_differential(src, &spec).unwrap().is_none());
    }

    #[test]
    fn report_contains_all_sections() {
        // Force a fake divergence to exercise the report path.
        let mut generator = Generator::new(5);
        let spec = generator.env_spec();
        let src = "RETURN;";
        let program = progmp_core::compile(src).unwrap();
        let mut outcomes = Vec::new();
        for backend in Backend::ALL {
            let mut env = RecordingEnv::new(spec.build());
            let mut instance = program.instantiate(backend);
            let result = instance.execute(&mut env).map(|_| ());
            outcomes.push(BackendOutcome {
                backend,
                result,
                trace: env.trace,
                fingerprint: env.inner.state_fingerprint(),
            });
        }
        let d = Divergence {
            seed: Some(5),
            source: src.to_string(),
            env: spec,
            outcomes,
        };
        let report = d.report();
        assert!(report.contains("seed: 5"));
        assert!(report.contains("RETURN;"));
        assert!(report.contains("backend interpreter"));
        assert!(report.contains("backend aot"));
        assert!(report.contains("backend vm"));
    }
}
