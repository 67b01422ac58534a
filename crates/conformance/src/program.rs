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
//! * **bytecode optimizer** — the image [`progmp_core::opt`] keeps reads
//!   the same on the VM, its model step bound never grows, and a
//!   fail-open rollback (counted, not failed) carries a spanned
//!   `misoptimization` diagnostic; that the per-pass validation catches
//!   an unsound pass is shown by that module's unit tests, which swap one
//!   into the pipeline;
//! * **no vanished packet** — every packet in `Q` before the first round
//!   is afterwards still queued, transmitted or dropped;
//! * **tiny budget** — under a 7-step budget every backend stops with a
//!   result, never a panic;
//! * **at the caps** — the generator's environments are small, so every
//!   backend of an admitted program also runs one round on [`at_caps`],
//!   48 subflows and 128 packets in `Q`: each stays under its budget,
//!   the VM under the bytecode model its image was validated with. The
//!   summary prints the largest steps ÷ budget per backend and the
//!   largest bytecode model ÷ certified bound, the model's ratio to the
//!   HIR model over the one constant between them;
//! * **quiescence** — every round that started where the program's
//!   certified [`Quiescence`] guard held (the rounds the simulator does
//!   not run) decided nothing on every backend: no push, drop or register
//!   write, and no error. Each admitted program also runs one round on
//!   [`idle`], where every atom holds; the summary counts the rounds
//!   checked under each atom.
//!
//! The probe set shows the static checks bite: the codegen mutations of
//! [`vm_soundness::probes`], the certificate weakenings of
//! [`prop_soundness::probes`], and a forged guard that claims every atom
//! for every program, which the quiescence check must catch within the
//! tier's CI seed count.

use crate::differ::{self, BackendOutcome, Divergence, ROUNDS};
use crate::gen::{EnvSpec, Generator};
use crate::shrink::shrink;
use crate::tier::{Probe, Report};
use crate::{prop_soundness, vm_soundness};
use mptcp_sim::oracle::check_properties;
use progmp_core::ast::Program;
use progmp_core::env::{PacketProp, PacketRef, QueueKind, RegId, SubflowProp};
use progmp_core::error::Stage;
use progmp_core::exec::{ExecCtx, ExecStats};
use progmp_core::testenv::MockEnv;
use progmp_core::verify::Lint;
use progmp_core::{Backend, CompileOptions, ExecError, PropStatus, Quiescence, SchedulerProgram};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::LazyLock;

/// The fixed environment of the at-the-caps round: 48 subflows of mixed
/// RTT, window and flags, 128 packets in `Q` and 32 in `QU` and `RQ`
/// (each sent on one subflow), and every register set. A generated
/// program nests up to four scans over the subflows, which at the
/// verifier's cap of 64 take seconds per seed: 48 keeps the round
/// within half the tier's wall time.
fn at_caps() -> &'static MockEnv {
    static ENV: LazyLock<MockEnv> = LazyLock::new(|| {
        let mut env = MockEnv::new();
        let subflows = 48;
        for i in 0..subflows {
            env.add_subflow(i);
            let props = [
                (SubflowProp::Rtt, 10_000 + i64::from(i % 7) * 3_000),
                (SubflowProp::Cwnd, 20),
                (SubflowProp::SkbsInFlight, i64::from(i % 24)),
                (SubflowProp::IsBackup, i64::from(i % 8 == 0)),
                (SubflowProp::Lossy, i64::from(i % 16 == 5)),
            ];
            for (prop, value) in props {
                env.set_subflow_prop(i, prop, value);
            }
            env.set_has_window(i, i % 4 != 3);
        }
        let mut id = 0;
        for (queue, packets) in QueueKind::ALL.into_iter().zip([128, 32, 32]) {
            for k in 0..packets {
                id += 1;
                env.push_packet(queue, id, k as i64 * 1400, 1 + (k as i64 * 97) % 1460);
                env.set_packet_prop(id, PacketProp::UserProp, (k % 7) as i64);
                if queue != QueueKind::SendQueue {
                    env.mark_sent_on(id, (k % u64::from(subflows)) as u32);
                }
            }
        }
        for (i, reg) in (1..=8).filter_map(RegId::new).enumerate() {
            env.set_register(reg, [1, 50, 1_000_000, -1, 7, 100, 0, 3][i]);
        }
        env
    });
    &ENV
}

/// The fixed environment of the idle round: four subflows whose
/// congestion windows are full (one also TSQ-throttled, one lossy),
/// every queue empty, and every register set. All three quiescence atoms
/// hold on it.
fn idle() -> &'static MockEnv {
    static ENV: LazyLock<MockEnv> = LazyLock::new(|| {
        let mut env = MockEnv::new();
        for i in 0..4 {
            env.add_subflow(i);
            let props = [
                (SubflowProp::Rtt, 10_000 + i64::from(i) * 15_000),
                (SubflowProp::Cwnd, 10),
                (SubflowProp::SkbsInFlight, 10 - i64::from(i % 2)),
                (SubflowProp::Queued, i64::from(i % 2)),
                (SubflowProp::TsqThrottled, i64::from(i == 2)),
                (SubflowProp::Lossy, i64::from(i == 3)),
                (SubflowProp::IsBackup, i64::from(i == 1)),
            ];
            for (prop, value) in props {
                env.set_subflow_prop(i, prop, value);
            }
        }
        for (i, reg) in (1..=8).filter_map(RegId::new).enumerate() {
            env.set_register(reg, [1, 50, 1_000_000, -1, 7, 100, 0, 3][i]);
        }
        env
    });
    &ENV
}

/// The counter of rounds checked under each atom of
/// [`Quiescence::ATOMS`], in that order.
const QUIET_COUNTERS: [&str; 3] = [
    "quiet rounds Q,RQ empty",
    "quiet rounds Q,RQ,QU empty",
    "quiet rounds no window",
];

/// Checks the claim of `guard` on `program`: every round of `outcomes`
/// that started where an atom of `guard` held, and, for an admitted
/// program, one round per backend on [`idle`], decided nothing. Returns
/// the rounds checked under each atom and the first broken claim as a
/// finding's context and detail.
fn quiet_rounds(
    program: &SchedulerProgram,
    guard: Quiescence,
    outcomes: &[BackendOutcome],
) -> ([u64; 3], Option<(String, String)>) {
    let mut checked = [0; 3];
    let mut broken = None;
    let mut check = |held: Quiescence, result: Result<ExecStats, &ExecError>, context| {
        let atoms = held
            .atoms()
            .filter(|&atom| guard.atoms().any(|g| g == atom));
        let mut claimed = false;
        for atom in atoms {
            checked[Quiescence::ATOMS.iter().position(|&a| a == atom).unwrap()] += 1;
            claimed = true;
        }
        if !claimed {
            return;
        }
        let detail = match result {
            Err(e) => format!("the round failed: {e}"),
            Ok(s) if s.pushes + s.drops + s.reg_writes > 0 => format!(
                "{} push(es), {} drop(s), {} register write(s)",
                s.pushes, s.drops, s.reg_writes
            ),
            Ok(_) => return,
        };
        let guard = guard.render();
        broken.get_or_insert_with(|| (context, format!("quiescent when {guard}, yet {detail}")));
    };
    for o in outcomes {
        for (i, (round, &held)) in o.rounds.iter().zip(&o.quiet).enumerate() {
            let context = format!("backend {}, round {i}, quiescence", o.backend.name());
            check(held, round.as_ref().map(|(stats, _)| *stats), context);
        }
    }
    if program.verdict().admitted() && guard.holds(idle()) {
        for backend in Backend::ALL {
            let mut ctx = ExecCtx::new(idle(), program.certified_step_bound());
            let result = program.instantiate(backend).execute_raw(&mut ctx);
            let stats = ctx.finish().2;
            let context = format!("backend {}, idle round, quiescence", backend.name());
            check(
                differ::held_atoms(idle()),
                result.as_ref().map(|()| stats),
                context,
            );
        }
    }
    (checked, broken)
}

/// Runs one round of the admitted `program` on every backend in
/// [`at_caps`], recording steps ÷ budget per backend and bytecode model
/// ÷ certified bound.
fn check_at_caps(seed: u64, program: &SchedulerProgram, source: &str, out: &mut Report) {
    let budget = program.certified_step_bound();
    let model = program.bytecode_verdict().step_bound.unwrap_or(u64::MAX);
    out.at_least("bytecode model/certified", model, budget);
    for backend in Backend::ALL {
        let mut instance = program.instantiate(backend);
        let mut ctx = ExecCtx::new(at_caps(), budget);
        let context = format!("backend {}, at the caps", backend.name());
        if let Err(e) = instance.execute_raw(&mut ctx) {
            let detail = format!("certified step bound {budget}: {e}");
            out.finding(seed, context, detail, source);
            continue;
        }
        let steps = ctx.finish().2.steps;
        out.at_least(&format!("{} steps/budget", backend.name()), steps, budget);
        if backend == Backend::Vm && steps > model {
            let detail = format!("{steps} steps, over the bytecode model {model}");
            out.finding(seed, context, detail, source);
        }
    }
}

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
    if admitted {
        check_at_caps(seed, &program, &source, out);
    }
    let (checked, broken) = quiet_rounds(&program, program.quiescence(), &outcomes);
    for (name, n) in QUIET_COUNTERS.into_iter().zip(checked) {
        out.count(name, n);
    }
    if let Some((context, detail)) = broken {
        out.finding(seed, context, detail, &source);
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

    // `Backend::ALL` ends with the VM.
    let vm = &outcomes[outcomes.len() - 1];
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
    check_bytecode_optimizer(seed, &source, &spec, vm, out);

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

/// Asks the bytecode-optimizer claim of `source`, whose unoptimized image
/// ran on the VM as `vm`. Counts the `rewrites kept`, whether a pass was
/// `rolled back`, and whether the image came out `optimized clean` (no
/// rollback, no finding of this claim).
fn check_bytecode_optimizer(
    seed: u64,
    source: &str,
    spec: &EnvSpec,
    vm: &BackendOutcome,
    out: &mut Report,
) {
    let options = CompileOptions {
        enforce_admission: false,
        optimize_bytecode: true,
        ..CompileOptions::default()
    };
    let opt = match progmp_core::compile_with_options(None, source, options) {
        Ok(opt) => opt,
        Err(e) => return out.finding(seed, "bytecode-optimized compile", e.to_string(), source),
    };
    let findings_before = out.findings.len();
    let report = opt
        .opt_report()
        .expect("optimized compile records an OptReport");
    if report.bound_after > report.bound_before {
        let detail = format!(
            "model bound grew {} -> {}",
            report.bound_before, report.bound_after
        );
        out.finding(seed, "bytecode optimizer, step bound", detail, source);
    }
    // A fail-open rollback must still say why, at a source span: a
    // silent one would be unauditable.
    let rolled_back = report.passes.iter().any(|p| p.rolled_back);
    let spanned = report
        .diagnostics
        .iter()
        .any(|d| d.lint == Lint::Misoptimization && d.pos.line > 0);
    if rolled_back && !spanned {
        let context = "rollback without a spanned misoptimization diagnostic";
        out.finding(seed, context, format!("{:?}", report.passes), source);
    }
    let opt_vm = BackendOutcome::run(&opt, Backend::Vm, spec, opt.certified_step_bound());
    if !opt_vm.agrees_with(vm) {
        let (vm, opt_vm) = (vm.render(), opt_vm.render());
        let detail = format!("--- unoptimized image ---\n{vm}--- optimized image ---\n{opt_vm}");
        out.finding(seed, "bytecode optimizer, on the vm", detail, source);
    }
    out.count("rewrites kept", report.total_rewrites());
    out.count("rolled back", rolled_back as u64);
    let clean = !rolled_back && out.findings.len() == findings_before;
    out.count("optimized clean", clean as u64);
}

/// The static pipeline's probes: seeded codegen mutations translation
/// validation must reject, certificate weakenings the property oracle
/// must catch, and a forged quiescence guard.
pub fn probes() -> Vec<Probe> {
    let mut probes = vm_soundness::probes();
    probes.extend(prop_soundness::probes());
    probes.push(forged_guard_probe());
    probes
}

/// A guard that claims every atom for every program: the quiescence
/// check must catch it on one of the tier's CI seeds.
fn forged_guard_probe() -> Probe {
    let label = "forged quiescence guard (every atom, every program)".to_string();
    let forged = Quiescence::ATOMS
        .into_iter()
        .fold(Quiescence::NEVER, Quiescence::or);
    let seeds = crate::tier::find("program").map_or(0, |tier| tier.default_seeds);
    for seed in 0..seeds {
        let mut generator = Generator::new(seed);
        let source = generator.program().to_string();
        let spec = generator.env_spec();
        let program = crate::compile_observed(&source)
            .unwrap_or_else(|e| panic!("seed {seed}: generated program failed to compile: {e}"));
        let outcomes = differ::run_backends(&program, &spec);
        if let (_, Some((context, detail))) = quiet_rounds(&program, forged, &outcomes) {
            return Probe {
                label,
                caught: true,
                detail: format!("seed {seed}, {context}: {detail}"),
            };
        }
    }
    Probe {
        label,
        caught: false,
        detail: format!("no round broke the forged guard in {seeds} seeds"),
    }
}
