//! Differential execution of one program across all backends.
//!
//! Each backend runs three consecutive rounds on its own copy of one
//! environment, so register persistence and repeated queue consumption
//! are exercised. A program diverges when any backend disagrees with the
//! interpreter (the reference) on any of:
//!
//! * a round's result (`Ok` vs which [`ExecError`]),
//! * the recorded [`EffectTrace`] (registers written, packets pushed or
//!   dropped, in order),
//! * the final environment fingerprint (queue contents, transmissions,
//!   packet state).
//!
//! Step counts and other performance statistics legitimately differ per
//! backend and are deliberately *not* compared.
//!
//! [`EffectTrace`]: progmp_core::env::EffectTrace

use crate::gen::EnvSpec;
use mptcp_sim::oracle::PropObservation;
use progmp_core::env::{RecordingEnv, SchedulerEnv};
use progmp_core::exec::{ExecCtx, ExecStats};
use progmp_core::testenv::MockEnv;
use progmp_core::{Backend, CompileError, ExecError, Quiescence, SchedulerProgram};

/// Rounds each backend runs per case: enough for a register one round
/// writes to be read by the next, and for a queue to be consumed twice.
pub(crate) const ROUNDS: usize = 3;

/// What one backend did with the program over its three rounds.
#[derive(Debug)]
pub struct BackendOutcome {
    /// The backend that ran.
    pub backend: Backend,
    /// Each round's statistics and property observation, or its error.
    pub(crate) rounds: Vec<Result<(ExecStats, PropObservation), ExecError>>,
    /// The quiescence atoms that held before each round.
    pub(crate) quiet: Vec<Quiescence>,
    /// The environment after the last round, with the trace of every
    /// effect applied to it.
    pub(crate) env: RecordingEnv<MockEnv>,
}

impl BackendOutcome {
    /// Runs `program` on `backend` for [`ROUNDS`] rounds against a fresh
    /// copy of `spec`'s environment, each round under `budget` steps. A
    /// round's effects are applied only when it returned `Ok`.
    pub(crate) fn run(
        program: &SchedulerProgram,
        backend: Backend,
        spec: &EnvSpec,
        budget: u64,
    ) -> BackendOutcome {
        let mut env = RecordingEnv::new(spec.build());
        let mut instance = program.instantiate(backend);
        let mut rounds = Vec::with_capacity(ROUNDS);
        let mut quiet = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            // Sampled pre-round, exactly as the simulator engine samples it.
            let mut obs = PropObservation::default();
            obs.before(&env);
            quiet.push(held_atoms(&env));
            let mut ctx = ExecCtx::new(&env, budget);
            rounds.push(match instance.execute_raw(&mut ctx) {
                Ok(()) => {
                    let (regs, actions, stats) = ctx.finish();
                    env.apply(&regs, &actions);
                    obs.after(&actions, &stats);
                    Ok((stats, obs))
                }
                Err(e) => Err(e),
            });
        }
        BackendOutcome {
            backend,
            rounds,
            quiet,
            env,
        }
    }

    /// Whether `other` is observably the same run: equal round results
    /// (statistics erased), effect trace and final fingerprint.
    pub(crate) fn agrees_with(&self, other: &BackendOutcome) -> bool {
        let same_result = |(a, b): (&Result<_, _>, &Result<_, _>)| {
            a.as_ref().map(|_| ()) == b.as_ref().map(|_| ())
        };
        self.rounds.iter().zip(&other.rounds).all(same_result)
            && self.env.trace == other.env.trace
            && self.env.inner.state_fingerprint() == other.env.inner.state_fingerprint()
    }

    /// Each round's result, the effect trace and the final environment,
    /// one per line, for repro reports.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        for (i, round) in self.rounds.iter().enumerate() {
            match round {
                Ok(_) => out.push_str(&format!("round {i}: ok\n")),
                Err(e) => out.push_str(&format!("round {i}: error: {e}\n")),
            }
        }
        out.push_str(&self.env.trace.render());
        out.push_str(&self.env.inner.state_fingerprint());
        out
    }
}

/// The quiescence atoms that hold on `env`, as one guard.
pub(crate) fn held_atoms(env: &dyn SchedulerEnv) -> Quiescence {
    let held = Quiescence::ATOMS.into_iter().filter(|atom| atom.holds(env));
    held.fold(Quiescence::NEVER, Quiescence::or)
}

/// Runs `program` under every backend, in [`Backend::ALL`] order, each
/// under the program's certified step bound.
pub(crate) fn run_backends(program: &SchedulerProgram, spec: &EnvSpec) -> Vec<BackendOutcome> {
    let bound = program.certified_step_bound();
    Backend::ALL
        .iter()
        .map(|&backend| BackendOutcome::run(program, backend, spec, bound))
        .collect()
}

/// A reproducible cross-backend disagreement.
#[derive(Debug)]
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
    /// The divergence among `outcomes` of `source` on `spec`, if the
    /// backends disagree.
    pub(crate) fn among(
        source: &str,
        spec: &EnvSpec,
        outcomes: Vec<BackendOutcome>,
    ) -> Option<Self> {
        let agree = outcomes[1..].iter().all(|o| o.agrees_with(&outcomes[0]));
        (!agree).then(|| Divergence {
            seed: None,
            source: source.to_string(),
            env: spec.clone(),
            outcomes,
        })
    }

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
            out.push_str(&o.render());
        }
        out
    }
}

/// Compiles `source` and runs it on a copy of `spec`'s environment under
/// every backend.
///
/// Returns `Ok(None)` when all backends agree, `Ok(Some(divergence))`
/// otherwise, and `Err` if the program does not compile (a generator bug
/// when the source came from [`crate::gen::Generator`]).
///
/// Compiles in observe mode ([`crate::compile_observed`]): the
/// differential contract covers every well-typed program, including
/// ones the admission gate would reject.
pub fn run_differential(source: &str, spec: &EnvSpec) -> Result<Option<Divergence>, CompileError> {
    let program = crate::compile_observed(source)?;
    Ok(Divergence::among(
        source,
        spec,
        run_backends(&program, spec),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Generator;

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
        let d = Divergence {
            seed: Some(5),
            source: src.to_string(),
            env: spec.clone(),
            outcomes: run_backends(&program, &spec),
        };
        let report = d.report();
        assert!(report.contains("seed: 5"));
        assert!(report.contains("RETURN;"));
        assert!(report.contains("round 2: ok"));
        assert!(report.contains("backend interpreter"));
        assert!(report.contains("backend aot"));
        assert!(report.contains("backend vm"));
    }
}
