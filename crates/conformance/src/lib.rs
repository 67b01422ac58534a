//! Conformance harness: four seeded fuzz tiers behind one contract.
//!
//! The ProgMP pipeline ships three execution backends (tree-walking
//! interpreter, AOT closure compiler, bytecode VM) that must be
//! observationally identical, and static verifiers plus optimizers whose
//! claims must hold at run time. A *tier* is a per-seed check over one
//! generated case, written against the vocabulary in [`tier`] — one
//! [`tier::Finding`], one [`tier::Report`], one [`tier::Probe`] for the
//! injected defects that show the tier bites — and listed in
//! [`tier::TIERS`]. [`tier::run`] is the only sweep loop; it shards a
//! seed range over threads and reports the same thing for any thread
//! count. `program` asks every per-program claim of one compile and
//! one set of executions of a program from [`gen::Generator`] (the
//! executions are [`differ`]'s, the probes [`vm_soundness`]'s and
//! [`prop_soundness`]'s); [`opt_soundness`], [`chaos`] and
//! [`fleet_chaos`] each check a bytecode-optimized image, a fault plan
//! or a fleet; [`shrink`] reduces a failing case to a minimal printable
//! repro.
//!
//! Everything is deterministic from the seed: `conformance-fuzz --tier T
//! --start S --seeds N` explores seeds `[S, S+N)` of tier `T`, and every
//! finding ends with the command that replays it. See `TESTING.md` at
//! the repository root for the workflow, including the mutation check
//! that validates the harness can actually catch backend bugs.

#![warn(missing_docs)]

pub mod chaos;
pub mod differ;
pub mod fleet_chaos;
pub mod gen;
pub mod opt_soundness;
mod program;
pub mod prop_soundness;
pub mod rng;
pub mod shrink;
pub mod snapshot;
pub mod tier;
pub mod vm_soundness;

/// Compiles `source` in observe mode: the admission verifier still runs
/// and records its [`progmp_core::Verdict`], but error-severity findings
/// do not reject the program.
///
/// The conformance harness needs this because generated programs
/// legitimately trip admission lints (literal zero divisors, popped
/// packets that are never pushed) while remaining well-typed — and the
/// differential contract must hold for those too. The `program` tier
/// then checks the other direction: programs the verifier *does* admit
/// never raise the runtime errors it excluded.
pub fn compile_observed(
    source: &str,
) -> Result<progmp_core::SchedulerProgram, progmp_core::CompileError> {
    progmp_core::compile_with_options(
        None,
        source,
        progmp_core::CompileOptions {
            enforce_admission: false,
            ..progmp_core::CompileOptions::default()
        },
    )
}
