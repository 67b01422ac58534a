//! The `program` tier: one generated case, one compile, every claim.
//!
//! Each seed yields a program from [`Generator`] and an environment. The
//! program is compiled once, in observe mode, and every backend runs the
//! same [`ROUNDS`] rounds on its own copy of the environment
//! ([`differ::run_backends`]). Every question is asked of those
//! executions:
//!
//! * **differential** — the AOT closures and the VM agree with the
//!   interpreter on every round's result, the effect trace and the final
//!   environment (the paper's "agnostic with respect to the execution
//!   alternatives", §4.1 fn. 3); a divergence is shrunk to a minimal
//!   repro ([`crate::shrink`]) with the same rounds;
//! * **admission soundness** — every round of a program the verifier
//!   admits is `Ok` under its certified step bound (rejections are not
//!   failures, but `admitted` / `rejected` keep precision visible);
//! * **translation validation** — the bytecode image our own compiler
//!   emitted validates against the HIR certificate (`clean images`);
//! * **scheduler properties** — no round breaks a claim the property
//!   certificate proved, judged by the simulator oracle's own
//!   [`check_properties`];
//! * **HIR optimizer** — a compile with `optimize: false` reads the same
//!   on the VM (one over a backend resource limit is counted, not failed);
//! * **no vanished packet** — every packet in `Q` before the first round
//!   is afterwards still queued, transmitted or dropped;
//! * **tiny budget** — under a 7-step budget every backend stops with a
//!   result, never a panic.
//!
//! The probe set shows the static checks bite: the codegen mutations of
//! [`vm_soundness::probes`] and the certificate weakenings of
//! [`prop_soundness::probes`].

use crate::differ::{self, BackendOutcome, Divergence, ROUNDS};
use crate::gen::{EnvSpec, Generator};
use crate::shrink::shrink;
use crate::tier::{Probe, Report};
use crate::{prop_soundness, vm_soundness};
use mptcp_sim::oracle::check_properties;
use progmp_core::ast::Program;
use progmp_core::env::{PacketRef, QueueKind};
use progmp_core::error::Stage;
use progmp_core::{Backend, CompileOptions, PropStatus};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Checks every claim on the case of `seed`. Panics if the generated
/// program does not compile (a generator bug, which invalidates the
/// harness itself).
pub fn check_seed(seed: u64, out: &mut Report) {
    let mut generator = Generator::new(seed);
    let candidate = generator.program();
    let spec = generator.env_spec();
    let source = candidate.to_string();
    let program = crate::compile_observed(&source).unwrap_or_else(|e| {
        panic!("seed {seed}: generated program failed to compile: {e}\n{source}")
    });

    let admitted = program.verdict().admitted();
    out.count(if admitted { "admitted" } else { "rejected" }, 1);
    let image = program.bytecode_verdict();
    out.count("clean images", image.admitted() as u64);
    if !image.admitted() {
        let context = "translation validation of the generated image";
        out.finding(seed, context, image.render_human("generated"), &source);
    }
    let cert = program.property_certificate();
    let proved = cert.work_conservation.status == PropStatus::Proved;
    out.count("wc-proved", proved as u64);
    out.count("with refutations", !cert.clean() as u64);

    let outcomes = differ::run_backends(&program, &spec);
    let first_failed = outcomes.iter().filter(|o| o.rounds[0].is_err()).count();
    out.count("exec errors", first_failed as u64);
    // The rounds run under the certified bound, so an admitted program's
    // rounds are sound when none fails.
    let failure = outcomes
        .iter()
        .flat_map(|o| {
            o.rounds
                .iter()
                .enumerate()
                .map(move |(i, r)| (o.backend, i, r))
        })
        .find_map(|(backend, i, round)| Some((backend, i, round.as_ref().err()?)));
    if let (true, Some((backend, i, e))) = (admitted, failure) {
        let bound = program.certified_step_bound();
        let context = format!("backend {}, certified step bound {bound}", backend.name());
        out.finding(seed, context, format!("round {i} failed: {e}"), &source);
    }
    for o in &outcomes {
        for (i, round) in o.rounds.iter().enumerate() {
            let Ok((_, obs)) = round else { continue };
            for v in check_properties(0, 0, cert, obs) {
                let context = format!(
                    "backend {}, round {i}, invariant {}",
                    o.backend.name(),
                    v.invariant
                );
                out.finding(seed, context, v.detail, &source);
            }
        }
        let env = &o.env.inner;
        let [q, qu] = [QueueKind::SendQueue, QueueKind::Unacked].map(|k| env.queue_contents(k));
        for p in spec
            .packets
            .iter()
            .filter(|p| p.queue == QueueKind::SendQueue)
        {
            let p = PacketRef(p.id);
            let sent = env.transmissions.iter().any(|&(_, t)| t == p);
            if !(q.contains(&p) || qu.contains(&p) || sent || env.dropped.contains(&p)) {
                let context = format!("backend {}, packet {p} of Q", o.backend.name());
                let detail =
                    format!("after {ROUNDS} rounds it is neither queued, sent nor dropped");
                out.finding(seed, context, detail, &source);
            }
        }
    }

    let unoptimized = progmp_core::compile_with_options(
        None,
        &source,
        CompileOptions {
            optimize: false,
            enforce_admission: false,
            ..CompileOptions::default()
        },
    );
    match unoptimized {
        Ok(raw) => {
            let raw_vm = BackendOutcome::run(&raw, Backend::Vm, &spec, raw.certified_step_bound());
            // `Backend::ALL` ends with the VM.
            let vm = &outcomes[outcomes.len() - 1];
            if !raw_vm.agrees_with(vm) {
                let (raw_vm, vm) = (raw_vm.render(), vm.render());
                let detail =
                    format!("--- unoptimized HIR ---\n{raw_vm}--- optimized HIR ---\n{vm}");
                out.finding(seed, "HIR optimizer, on the vm", detail, &source);
            }
        }
        Err(e) if e.stage == Stage::Codegen => out.count("unoptimized over limits", 1),
        Err(e) => out.finding(seed, "unoptimized compile", e.to_string(), &source),
    }

    for backend in Backend::ALL {
        let tiny = catch_unwind(AssertUnwindSafe(|| {
            BackendOutcome::run(&program, backend, &spec, 7)
        }));
        if tiny.is_err() {
            let context = format!("backend {}, step budget 7", backend.name());
            out.finding(seed, context, "the execution panicked", &source);
        }
    }

    if let Some(divergence) = Divergence::among(&source, &spec, outcomes) {
        let diverges = |p: &Program, s: &EnvSpec| differ::run_differential(&p.to_string(), s);
        let (shrunk, shrunk_spec) = shrink(candidate, spec, &mut |p, s| {
            matches!(diverges(p, s), Ok(Some(_)))
        });
        // Shrinking keeps the predicate true at every step, so the shrunk
        // case diverges; the original report is the fallback if it does not.
        let mut minimal = diverges(&shrunk, &shrunk_spec)
            .ok()
            .flatten()
            .unwrap_or(divergence);
        minimal.seed = Some(seed);
        let context = "shrunk case on interpreter, aot and vm";
        let detail =
            "backends disagree on a round's result, the effect trace or the final environment";
        out.finding(seed, context, detail, minimal.report());
    }
}

/// The static pipeline's probes: seeded codegen mutations translation
/// validation must reject, and certificate weakenings the property
/// oracle must catch.
pub fn probes() -> Vec<Probe> {
    let mut probes = vm_soundness::probes();
    probes.extend(prop_soundness::probes());
    probes
}
