//! Inputs of the two micro workloads: the compile corpus (every shipped
//! scheduler plus three programs that must be rejected at a known stage)
//! and the three `MockEnv` fixtures an upcall runs against.

use mptcp_sim::ChaosRng;
use progmp_core::env::{QueueKind, RegId, SubflowProp};
use progmp_core::error::Stage;
use progmp_core::exec::{ExecCtx, ExecStats};
use progmp_core::testenv::MockEnv;
use progmp_core::{Backend, CompileError, ExecError, SchedulerInstance, SchedulerProgram};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The known answer for one corpus program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Admit,
    Reject(Stage),
}

pub struct CorpusEntry {
    pub name: &'static str,
    pub source: &'static str,
    pub expect: Expect,
}

const REJECTS: [(&str, &str, Stage); 3] = [
    (
        "reject_parse",
        include_str!("../corpus/reject_parse.progmp"),
        Stage::Parse,
    ),
    (
        "reject_sema",
        include_str!("../corpus/reject_sema.progmp"),
        Stage::Sema,
    ),
    (
        "reject_verify",
        include_str!("../corpus/reject_verify.progmp"),
        Stage::Verify,
    ),
];

/// The shipped schedulers (all must be admitted), then the reject corpus.
pub fn corpus() -> Vec<CorpusEntry> {
    let admitted = progmp_schedulers::sources::ALL
        .iter()
        .map(|&(name, source)| CorpusEntry {
            name,
            source,
            expect: Expect::Admit,
        });
    let rejected = REJECTS.iter().map(|&(name, source, stage)| CorpusEntry {
        name,
        source,
        expect: Expect::Reject(stage),
    });
    admitted.chain(rejected).collect()
}

/// A seeded permutation of `0..n` (Fisher–Yates over the simulator's
/// frozen xorshift stream).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = ChaosRng::new(seed ^ 0x0BE7_C4A1_5EED_0001);
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

pub type Compiled = Result<SchedulerProgram, CompileError>;

/// Compiles every corpus program once, in `order`, through the public
/// `progmp_core::compile`; returns the round's wall time and the results
/// indexed like `corpus`.
pub fn compile_round(corpus: &[CorpusEntry], order: &[usize]) -> (Duration, Vec<Compiled>) {
    let mut out: Vec<Option<Compiled>> = (0..corpus.len()).map(|_| None).collect();
    let t0 = Instant::now();
    for &i in order {
        out[i] = Some(progmp_core::compile(black_box(corpus[i].source)));
    }
    let wall = t0.elapsed();
    let out = out
        .into_iter()
        .map(|r| r.expect("order is a permutation of the corpus"))
        .collect();
    (wall, out)
}

/// Whether a compile result is the corpus entry's known answer.
pub fn verdict_matches(entry: &CorpusEntry, got: &Compiled) -> bool {
    match (entry.expect, got) {
        (Expect::Admit, Ok(_)) => true,
        (Expect::Reject(stage), Err(e)) => e.stage == stage,
        _ => false,
    }
}

pub const FIXTURES: [&str; 3] = ["send_ready", "cwnd_limited", "idle"];

/// The three scheduler environments. Two of three push nothing because in
/// the fleets about two of three upcalls push nothing.
pub fn fixtures(seed: u64) -> Vec<(&'static str, MockEnv)> {
    FIXTURES
        .iter()
        .map(|&name| {
            let mut env = MockEnv::new();
            for i in 0..2u32 {
                env.add_subflow(i);
                let rtt = if i == 0 {
                    5_000 + (seed % 40) as i64 * 1_000
                } else {
                    20_000 + ((seed >> 8) % 60) as i64 * 1_000
                };
                env.set_subflow_prop(i, SubflowProp::Rtt, rtt);
                let cwnd = if name == "cwnd_limited" { 0 } else { 100 };
                env.set_subflow_prop(i, SubflowProp::Cwnd, cwnd);
            }
            env.set_register(RegId::R1, 1_000_000);
            if name != "idle" {
                for p in 0..16u64 {
                    env.push_packet(QueueKind::SendQueue, 100 + p, 1400 * p as i64, 1400);
                }
            }
            (name, env)
        })
        .collect()
}

/// One scheduler upcall the way the simulator's meta socket makes it:
/// fresh context, `execute_raw`, effects read but not applied.
#[inline]
pub fn upcall(
    inst: &mut SchedulerInstance,
    env: &MockEnv,
    budget: u64,
) -> Result<usize, ExecError> {
    let mut ctx = ExecCtx::new(env, budget);
    inst.execute_raw(&mut ctx)?;
    Ok(ctx.action_count())
}

/// Like [`upcall`], also returning the execution's statistics.
pub fn upcall_stats(
    inst: &mut SchedulerInstance,
    env: &MockEnv,
    budget: u64,
) -> Result<(usize, ExecStats), ExecError> {
    let mut ctx = ExecCtx::new(env, budget);
    inst.execute_raw(&mut ctx)?;
    let (_, actions, stats) = ctx.finish();
    Ok((actions.len(), stats))
}

/// A shipped scheduler by name, compiled.
pub type Programs = Vec<(&'static str, SchedulerProgram)>;

/// Every shipped scheduler compiled through `compile`.
pub fn programs(compile: impl Fn(&'static str) -> Compiled) -> Programs {
    let compiled = |&(name, source): &(&'static str, &'static str)| {
        let program = compile(source).unwrap_or_else(|e| panic!("{name} does not compile: {e}"));
        (name, program)
    };
    progmp_schedulers::sources::ALL
        .iter()
        .map(compiled)
        .collect()
}

/// One instance of each program on `backend`, with the step budget its
/// admission certificate grants.
pub fn instances(
    programs: &Programs,
    backend: Backend,
) -> Vec<(&'static str, u64, SchedulerInstance)> {
    let instance = |(name, program): &(&'static str, SchedulerProgram)| {
        let budget = program.certified_step_bound();
        (*name, budget, program.instantiate(backend))
    };
    programs.iter().map(instance).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled(21, 379_422);
        assert_eq!(a, shuffled(21, 379_422));
        assert_ne!(a, shuffled(21, 379_423));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..21).collect::<Vec<_>>());
    }

    #[test]
    fn corpus_has_its_known_answers() {
        let corpus = corpus();
        assert_eq!(corpus.len(), 21);
        let order: Vec<usize> = (0..corpus.len()).collect();
        let (_, results) = compile_round(&corpus, &order);
        for (entry, got) in corpus.iter().zip(&results) {
            assert!(
                verdict_matches(entry, got),
                "{}: {:?}",
                entry.name,
                got.as_ref().err()
            );
        }
    }

    #[test]
    fn fixtures_follow_the_seed() {
        let rtt = |seed| {
            use progmp_core::env::{SchedulerEnv, SubflowId};
            fixtures(seed)[0]
                .1
                .subflow_prop(SubflowId(0), SubflowProp::Rtt)
        };
        assert_eq!(rtt(7), rtt(7));
        assert_ne!(rtt(7), rtt(8));
    }
}
