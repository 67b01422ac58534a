//! The public compilation and execution facade.
//!
//! [`compile`] turns scheduler source text into a [`SchedulerProgram`]
//! (parse → type check → optimize → admission verify → generate bytecode
//! → bytecode verify); the admission step runs the abstract-interpretation
//! verifier of [`crate::verify`] ahead of every backend and certifies the
//! per-program step bound instances run under;
//! [`SchedulerProgram::instantiate`] creates a per-connection
//! [`SchedulerInstance`] bound to one of the three execution backends.
//! A [`SchedulerProgram`] is an immutable, reference-counted handle:
//! cloning it and instantiating from it copy nothing, matching the
//! paper's model where one loaded scheduler is reused by many
//! connections (§4.3, "Number of Schedulers"). Everything compiled —
//! HIR, the validated bytecode image, the AOT closure graph — lives on
//! the program; an instance owns none of it.

use crate::aot;
use crate::bytecode::{BytecodeProgram, DebugTable};
use crate::codegen;
use crate::env::SchedulerEnv;
use crate::error::{CompileError, ExecError, Stage};
use crate::exec::{ExecCtx, ExecStats};
use crate::hir::HProgram;
use crate::interp;
use crate::optimizer;
use crate::parser;
use crate::regalloc;
use crate::sema;
use crate::vm::{self, VerifiedImage};
use std::sync::{Arc, OnceLock};

/// The execution backend for a scheduler instance (paper §4.1 Fig. 6:
/// interpreter, ahead-of-time compiler, eBPF JIT).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Tree-walking interpreter over the typed HIR (baseline).
    Interpreter,
    /// Ahead-of-time compilation to a closure graph (the "generated C"
    /// analogue).
    Aot,
    /// The eBPF-flavoured bytecode VM with verifier and linear-scan
    /// register allocation.
    #[default]
    Vm,
}

impl Backend {
    /// All backends.
    pub const ALL: [Backend; 3] = [Backend::Interpreter, Backend::Aot, Backend::Vm];

    /// Human-readable backend name.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Interpreter => "interpreter",
            Backend::Aot => "aot",
            Backend::Vm => "vm",
        }
    }
}

/// A compiled, verified scheduler specification: a cheap handle to the
/// immutable compilation result. `Clone` is a reference-count bump, so
/// one loaded program is shared by every instance created from it.
#[derive(Debug, Clone)]
pub struct SchedulerProgram {
    inner: Arc<Compiled>,
}

/// What one run of the compile pipeline produced.
#[derive(Debug)]
struct Compiled {
    name: Option<String>,
    source: String,
    hir: HProgram,
    bytecode: VerifiedImage,
    debug: DebugTable,
    optimizer_rewrites: usize,
    opt_report: Option<crate::opt::OptReport>,
    verdict: crate::verify::Verdict,
    vm_verdict: crate::verify::vm::BytecodeVerdict,
    props: crate::verify::props::PropertyCertificate,
    quiescence: crate::verify::props::Quiescence,
    /// The AOT closure graph, built from `hir` by the first
    /// `instantiate(Backend::Aot)` and run by every AOT instance.
    aot: OnceLock<aot::CompiledProgram>,
}

// One program — the simulator's `&'static` fallback is the standing
// case — is instantiated from and executed by every fleet shard's thread.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SchedulerProgram>();
    assert_send_sync::<SchedulerInstance>();
};

/// Compiles scheduler source text.
///
/// Runs the full pipeline: lex, parse, semantic analysis (typing, single
/// assignment, side-effect isolation), HIR optimization, bytecode
/// generation, register allocation, and verification.
///
/// # Errors
///
/// Returns the first [`CompileError`] encountered at any stage.
pub fn compile(source: &str) -> Result<SchedulerProgram, CompileError> {
    compile_named(None, source)
}

/// Like [`compile`], attaching a scheduler name for diagnostics and the
/// program registry of higher layers.
pub fn compile_named(name: Option<&str>, source: &str) -> Result<SchedulerProgram, CompileError> {
    compile_with_options(name, source, CompileOptions::default())
}

/// Compilation knobs, primarily for the runtime-optimization ablation
/// experiments: every knob defaults to the production setting.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// Run the HIR optimizer (constant folding, dead-branch elimination).
    pub optimize: bool,
    /// Reject programs the static admission verifier finds an
    /// error-severity diagnostic in (see [`crate::verify`]). Disabling
    /// this "observe mode" still runs the verifier and records its
    /// [`crate::verify::Verdict`] on the program, but admits everything —
    /// used by the fuzzing harnesses to measure verifier precision.
    pub enforce_admission: bool,
    /// Run the verified bytecode optimizer (see [`crate::opt`]) between
    /// codegen and the final bytecode verification. Off by default: the
    /// unoptimized image is the reference the conformance differ runs
    /// against. A pass that fails validation is rolled back and reported
    /// as a `misoptimization` warning on the [`crate::opt::OptReport`].
    pub optimize_bytecode: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            optimize: true,
            enforce_admission: true,
            optimize_bytecode: false,
        }
    }
}

/// Like [`compile_named`] with explicit [`CompileOptions`].
pub fn compile_with_options(
    name: Option<&str>,
    source: &str,
    options: CompileOptions,
) -> Result<SchedulerProgram, CompileError> {
    let ast = parser::parse(source)?;
    let mut hir = sema::lower(&ast)?;
    let optimizer_rewrites = if options.optimize {
        optimizer::optimize(&mut hir)
    } else {
        0
    };
    // Static admission: the abstract-interpretation verifier runs on the
    // exact HIR the backends execute. Its verdict is always recorded;
    // enforcement turns error-severity findings into compile errors.
    let verify_cfg = crate::verify::VerifyConfig::default();
    let (verdict, pops) = crate::verify::admit(&hir, &verify_cfg);
    if options.enforce_admission {
        reject_on_error(Stage::Verify, &verdict.diagnostics)?;
    }
    // Semantic property certificate (work-conservation, starvation,
    // redundancy bound, reinjection safety) over the same HIR, from the
    // `POP` sites the admission pass classified. Findings never gate
    // admission: they are recorded on the program for the lint CLI and
    // armed as dynamic invariants by the simulator's oracle.
    let props = crate::verify::props::certify(&hir, pops, None);
    // The quiescence guard sits beside the certificate, not in it: a
    // forged certificate must not change which rounds are skipped.
    let quiescence = crate::verify::props::certify_quiescence(&hir);
    let vcode = codegen::generate(&hir)?;
    let (bytecode, debug) = regalloc::allocate_with_debug(&vcode)?;
    let image = vm::verify_with_debug(&bytecode, Some(&debug))?;
    // Translation validation: an independent abstract interpretation over
    // the generated bytecode, cross-checked against the HIR admission
    // certificate (step bound + the static audit its verdict holds, so a
    // compile audits the HIR once). Any error here means the
    // compiler produced code that disagrees with what was certified.
    // Every image is validated exactly once. With the optional verified
    // bytecode optimizer that is its job: it validates the generated
    // image, then each pass's output before it replaces the image (see
    // [`crate::opt`]; on any disagreement the pass is rolled back), and
    // hands back the verdict of the image it kept.
    let (bytecode, debug, opt_report, vm_verdict) = if options.optimize_bytecode {
        let (b, d, r, v) = crate::opt::optimize_bytecode(
            &image,
            &debug,
            &verdict.analysis,
            verdict.certified_step_bound,
            &verify_cfg,
            Some(&props),
        );
        (vm::verify_with_debug(&b, Some(&d))?, d, Some(r), v)
    } else {
        // `true`: the structure was checked just above.
        let v = crate::verify::vm::validate(
            &image,
            &debug,
            &verdict.analysis,
            verdict.certified_step_bound,
            &verify_cfg,
            true,
        );
        (image, debug, None, v)
    };
    if options.enforce_admission {
        reject_on_error(Stage::VmVerify, &vm_verdict.diagnostics)?;
    }
    Ok(SchedulerProgram {
        inner: Arc::new(Compiled {
            name: name.map(str::to_owned),
            source: source.to_owned(),
            hir,
            bytecode,
            debug,
            optimizer_rewrites,
            opt_report,
            verdict,
            vm_verdict,
            props,
            quiescence,
            aot: OnceLock::new(),
        }),
    })
}

/// The compile error for the first error-severity finding of a verifier
/// running at `stage`, if it has one.
fn reject_on_error(
    stage: Stage,
    diagnostics: &[crate::verify::Diagnostic],
) -> Result<(), CompileError> {
    match diagnostics
        .iter()
        .find(|d| d.severity == crate::verify::Severity::Error)
    {
        Some(first) => Err(CompileError {
            stage,
            pos: first.pos,
            message: format!("[{}] {}", first.lint, first.message),
        }),
        None => Ok(()),
    }
}

impl SchedulerProgram {
    /// The scheduler's registered name, if any.
    pub fn name(&self) -> Option<&str> {
        self.inner.name.as_deref()
    }

    /// The original source text.
    pub fn source(&self) -> &str {
        &self.inner.source
    }

    /// Whether `self` and `other` are handles to the same compilation
    /// result (not merely equal programs).
    pub fn ptr_eq(&self, other: &SchedulerProgram) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Number of rewrites the HIR optimizer applied.
    pub fn optimizer_rewrites(&self) -> usize {
        self.inner.optimizer_rewrites
    }

    /// What the verified bytecode optimizer did, when it ran
    /// ([`CompileOptions::optimize_bytecode`]); `None` otherwise.
    pub fn opt_report(&self) -> Option<&crate::opt::OptReport> {
        self.inner.opt_report.as_ref()
    }

    /// The admission verifier's verdict for this program (always computed,
    /// even in observe mode).
    pub fn verdict(&self) -> &crate::verify::Verdict {
        &self.inner.verdict
    }

    /// The certified worst-case step bound: new instances use this as
    /// their per-execution budget instead of a blanket default.
    pub fn certified_step_bound(&self) -> u64 {
        self.inner.verdict.certified_step_bound
    }

    /// The certified quiescence guard: a round that starts where it
    /// [holds](crate::verify::props::Quiescence::holds) provably decides
    /// nothing, provided it runs under at least
    /// [`Self::certified_step_bound`]. See [`crate::verify::props`].
    pub fn quiescence(&self) -> crate::verify::props::Quiescence {
        self.inner.quiescence
    }

    /// The semantic property certificate (work-conservation, starvation,
    /// redundancy bound, reinjection safety); always computed, never
    /// gates admission. See [`crate::verify::props`].
    pub fn property_certificate(&self) -> &crate::verify::props::PropertyCertificate {
        &self.inner.props
    }

    /// A new handle to a copy of this program wearing `props` as its own
    /// certificate: a verifier soundness gap, forged for containment tests.
    #[doc(hidden)]
    pub fn with_property_certificate(&self, props: crate::PropertyCertificate) -> Self {
        let inner = Arc::new(Compiled {
            name: self.inner.name.clone(),
            source: self.inner.source.clone(),
            hir: self.inner.hir.clone(),
            bytecode: self.inner.bytecode.clone(),
            debug: self.inner.debug.clone(),
            optimizer_rewrites: self.inner.optimizer_rewrites,
            opt_report: self.inner.opt_report.clone(),
            verdict: self.inner.verdict.clone(),
            vm_verdict: self.inner.vm_verdict.clone(),
            props,
            quiescence: self.inner.quiescence,
            aot: OnceLock::new(),
        });
        SchedulerProgram { inner }
    }

    /// Bytecode disassembly (the proc-style debug listing of §4.1).
    pub fn disassemble(&self) -> String {
        self.inner.bytecode.disassemble()
    }

    /// The generated bytecode image the VM backend executes, verified
    /// once here and run unchecked from then on.
    pub fn bytecode(&self) -> &VerifiedImage {
        &self.inner.bytecode
    }

    /// The instruction → source-span debug side table emitted by codegen.
    pub fn debug_table(&self) -> &DebugTable {
        &self.inner.debug
    }

    /// The bytecode verifier's verdict for the generated image (always
    /// computed, even in observe mode; see [`crate::verify::vm`]).
    pub fn bytecode_verdict(&self) -> &crate::verify::vm::BytecodeVerdict {
        &self.inner.vm_verdict
    }

    /// Human-readable bytecode verification report: the verdict plus the
    /// annotated listing (spans + abstract register states), as surfaced
    /// by `progmp-lint --bytecode`. The listing is rendered here, on
    /// demand, by re-running the bytecode analysis: compiling keeps only
    /// the verdict.
    pub fn bytecode_report(&self) -> String {
        let name = self.name().unwrap_or("<program>");
        let listing = crate::verify::vm::annotated_listing(
            &self.inner.bytecode,
            Some(&self.inner.debug),
            &crate::verify::VerifyConfig::default(),
        );
        format!("{}{listing}", self.inner.vm_verdict.render_human(name))
    }

    /// Re-runs translation validation of an alternate bytecode `image`
    /// against this program's HIR admission certificate, under the caps
    /// the program was compiled with. Used by the conformance harness to
    /// prove that seeded codegen/regalloc miscompiles are caught
    /// statically; the image must be span-aligned with this program's
    /// debug table (in-place mutations only).
    pub fn validate_bytecode(&self, image: &BytecodeProgram) -> crate::verify::vm::BytecodeVerdict {
        crate::verify::vm::validate(
            image,
            &self.inner.debug,
            &self.inner.verdict.analysis,
            self.inner.verdict.certified_step_bound,
            &crate::verify::VerifyConfig::default(),
            false,
        )
    }

    /// Static audit of everything the scheduler touches (properties,
    /// queues, registers, effects) — the multi-tenancy admission check;
    /// see [`crate::analysis`]. Computed once, by the admission verifier.
    pub fn analyze(&self) -> &crate::analysis::Analysis {
        &self.inner.verdict.analysis
    }

    /// Whether the program can pop the reinjection queue `RQ`. A program
    /// that cannot (the paper's Fig. 3 minimal example) can never recover
    /// a reinjected segment, which a liveness check must not hold against
    /// it.
    pub fn pops_reinjection_queue(&self) -> bool {
        self.analyze().queues_popped.contains("RQ")
    }

    /// Approximate resident size of the loaded program in bytes
    /// (for the §4.3 memory-overhead table): source, HIR and bytecode
    /// image, not the AOT closure graph built on first AOT use.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Compiled>()
            + self.inner.source.len()
            + self.inner.hir.size_bytes()
            + self.inner.bytecode.size_bytes()
    }

    /// Creates a per-connection instance running on `backend`. The
    /// instance shares this program; nothing is copied. The first AOT
    /// instantiation builds the program's closure graph, so no upcall
    /// pays for it.
    pub fn instantiate(&self, backend: Backend) -> SchedulerInstance {
        if backend == Backend::Aot {
            self.aot_graph();
        }
        SchedulerInstance {
            program: self.clone(),
            backend,
            // The per-program certified bound replaces the blanket default
            // budget: tight enough to stop runaways early, provably above
            // any legal execution of *this* program.
            budget: self.certified_step_bound(),
        }
    }

    /// The one AOT closure graph of this program.
    fn aot_graph(&self) -> &aot::CompiledProgram {
        self.inner
            .aot
            .get_or_init(|| aot::compile(&self.inner.hir).expect("verified programs AOT-compile"))
    }
}

/// A per-connection scheduler instance: a handle to the shared program,
/// the backend it runs on and its step budget. It owns nothing compiled,
/// so it costs `size_of::<SchedulerInstance>()` on every backend, before
/// and after it runs (the paper's §4.3 per-instantiation figure).
/// Execution counters belong to whoever drives it ([`ExecStats`] per
/// execution; the simulator's per-connection statistics).
pub struct SchedulerInstance {
    program: SchedulerProgram,
    backend: Backend,
    budget: u64,
}

impl std::fmt::Debug for SchedulerInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedulerInstance")
            .field("name", &self.program.name())
            .field("backend", &self.backend.name())
            .field("budget", &self.budget)
            .finish()
    }
}

impl SchedulerInstance {
    /// The backend this instance runs on.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The shared program.
    pub fn program(&self) -> &SchedulerProgram {
        &self.program
    }

    /// Per-instance memory cost in bytes, excluding the shared program
    /// (the paper reports 328 B per instantiation on top of the loaded
    /// scheduler).
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }

    /// Executes the scheduler once against `env`, applying buffered
    /// effects afterwards.
    ///
    /// # Errors
    ///
    /// [`ExecError::StepBudgetExhausted`] if the execution exceeds the
    /// step budget; effects of the partial execution are *not* applied.
    pub fn execute(&mut self, env: &mut dyn SchedulerEnv) -> Result<ExecStats, ExecError> {
        let mut ctx = ExecCtx::new(env, self.budget);
        self.execute_raw(&mut ctx)?;
        let (regs, actions, stats) = ctx.finish();
        env.apply(&regs, &actions);
        Ok(stats)
    }

    /// Runs one execution against an externally managed [`ExecCtx`]
    /// without applying effects — the embedding transport (e.g. the
    /// simulator's meta socket) owns context creation, effect application,
    /// and statistics. The VM runs the program's one bytecode image, the
    /// image translation validation admitted; `SUBFLOWS.COUNT` is a
    /// helper call on it, so a changed subflow count needs no new code.
    pub fn execute_raw(&mut self, ctx: &mut ExecCtx<'_>) -> Result<(), ExecError> {
        match self.backend {
            Backend::Interpreter => interp::execute(&self.program.inner.hir, ctx),
            Backend::Aot => self.program.aot_graph().execute(ctx),
            Backend::Vm => vm::execute(self.program.bytecode(), ctx),
        }
    }

    /// Runs one VM execution recording per-instruction hit counts and
    /// returns the disassembly annotated with them — the paper's
    /// proc-based profiling trace (§4.1). Only meaningful on the VM
    /// backend; other backends return `None`.
    pub fn profile_execution(&mut self, env: &mut dyn SchedulerEnv) -> Option<String> {
        if self.backend != Backend::Vm {
            return None;
        }
        let mut counts = Vec::new();
        let mut ctx = ExecCtx::new(env, self.budget);
        vm::execute_profiled(self.program.bytecode(), &mut ctx, &mut counts).ok()?;
        let (regs, actions, _) = ctx.finish();
        env.apply(&regs, &actions);
        let mut out = String::new();
        for (i, line) in self.program.disassemble().lines().enumerate() {
            let hits = counts.get(i).copied().unwrap_or(0);
            out.push_str(&format!("{hits:>8}  {line}\n"));
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{QueueKind, RegId, SchedulerEnv, SubflowProp};
    use crate::testenv::MockEnv;

    const MIN_RTT: &str =
        "IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) { SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP()); }";

    fn env_with_packets(n: u64) -> MockEnv {
        let mut env = MockEnv::new();
        env.add_subflow(0);
        env.set_subflow_prop(0, SubflowProp::Rtt, 10_000);
        env.add_subflow(1);
        env.set_subflow_prop(1, SubflowProp::Rtt, 40_000);
        for i in 0..n {
            env.push_packet(QueueKind::SendQueue, 100 + i, i as i64, 1400);
        }
        env
    }

    #[test]
    fn all_backends_agree_on_min_rtt() {
        let prog = compile(MIN_RTT).unwrap();
        for backend in Backend::ALL {
            let mut env = env_with_packets(1);
            let mut inst = prog.instantiate(backend);
            inst.execute(&mut env).unwrap();
            assert_eq!(env.transmissions.len(), 1, "backend {}", backend.name());
            assert_eq!(env.transmissions[0].0 .0, 0, "backend {}", backend.name());
        }
    }

    #[test]
    fn every_backend_observes_the_live_subflow_count() {
        let prog = compile("SET(R1, SUBFLOWS.COUNT);").unwrap();
        for backend in Backend::ALL {
            let mut inst = prog.instantiate(backend);
            let mut env = MockEnv::new();
            env.add_subflow(0);
            inst.execute(&mut env).unwrap();
            assert_eq!(env.register(RegId::R1), 1, "{}", backend.name());
            env.add_subflow(1);
            inst.execute(&mut env).unwrap();
            assert_eq!(env.register(RegId::R1), 2, "{}", backend.name());
            env.remove_subflow(0);
            inst.execute(&mut env).unwrap();
            assert_eq!(env.register(RegId::R1), 1, "{}", backend.name());
        }
    }

    #[test]
    fn an_instance_owns_nothing_compiled() {
        let handle = std::mem::size_of::<SchedulerInstance>();
        let prog = compile(MIN_RTT).unwrap();
        for backend in Backend::ALL {
            let mut inst = prog.instantiate(backend);
            assert_eq!(inst.size_bytes(), handle, "{} fresh", backend.name());
            let mut env = env_with_packets(10);
            for _ in 0..10 {
                inst.execute(&mut env).unwrap();
            }
            assert_eq!(inst.size_bytes(), handle, "{} after 10", backend.name());
            env.remove_subflow(1);
            inst.execute(&mut env).unwrap();
            assert_eq!(inst.size_bytes(), handle, "{} after churn", backend.name());
        }
        let (a, b) = (
            prog.instantiate(Backend::Aot),
            prog.instantiate(Backend::Aot),
        );
        assert!(
            std::ptr::eq(a.program.aot_graph(), b.program.aot_graph()),
            "two AOT instances of one program execute one closure graph"
        );
    }

    #[test]
    fn instances_share_the_program_without_copying_it() {
        let prog = compile(MIN_RTT).unwrap();
        let mut a = prog.instantiate(Backend::Vm);
        let mut b = prog.clone().instantiate(Backend::Interpreter);
        assert!(a.program().ptr_eq(&prog) && b.program().ptr_eq(&prog));
        assert!(
            !prog.ptr_eq(&compile(MIN_RTT).unwrap()),
            "a second compile is a second program"
        );
        let mut env = env_with_packets(2);
        a.execute(&mut env).unwrap();
        b.execute(&mut env).unwrap();
        assert_eq!(env.transmissions.len(), 2);
    }

    #[test]
    fn reinjection_queue_capability_is_a_static_fact() {
        assert!(!compile(MIN_RTT).unwrap().pops_reinjection_queue());
        let rq = compile("IF (!RQ.EMPTY) { SUBFLOWS.MIN(s => s.RTT).PUSH(RQ.POP()); }").unwrap();
        assert!(rq.pops_reinjection_queue());
        assert!(
            rq.clone().pops_reinjection_queue(),
            "shared by every handle"
        );
    }

    #[test]
    fn size_accounting_is_nonzero() {
        let prog = compile(MIN_RTT).unwrap();
        assert!(prog.size_bytes() > 500);
        let inst = prog.instantiate(Backend::Vm);
        assert!(inst.size_bytes() > 0);
    }

    #[test]
    fn compile_error_surfaces_from_any_stage() {
        assert!(compile("VAR x = @;").is_err()); // lex
        assert!(compile("VAR x = ;").is_err()); // parse
        assert!(compile("VAR x = y;").is_err()); // sema
    }

    #[test]
    fn profiling_trace_annotates_hit_counts() {
        let prog = compile(MIN_RTT).unwrap();
        let mut inst = prog.instantiate(Backend::Vm);
        let mut env = env_with_packets(1);
        let trace = inst
            .profile_execution(&mut env)
            .expect("vm backend profiles");
        // The first instruction executed exactly once; the listing carries
        // one count column per instruction.
        let first = trace.lines().next().unwrap();
        assert!(first.trim_start().starts_with('1'), "{first}");
        assert_eq!(trace.lines().count(), prog.disassemble().lines().count());
        // Loop bodies (the subflow scan) ran more than once.
        let max_hits: u64 = trace
            .lines()
            .filter_map(|l| l.split_whitespace().next()?.parse().ok())
            .max()
            .unwrap();
        assert!(max_hits >= 2, "scan loop executed per subflow: {max_hits}");
        // Profiled execution applied its effects like a normal one.
        assert_eq!(env.transmissions.len(), 1);
    }

    #[test]
    fn profiling_unavailable_off_vm() {
        let prog = compile(MIN_RTT).unwrap();
        let mut inst = prog.instantiate(Backend::Interpreter);
        let mut env = env_with_packets(1);
        assert!(inst.profile_execution(&mut env).is_none());
    }

    #[test]
    fn unoptimized_compile_skips_rewrites() {
        let src = "SET(R1, 2 + 3);";
        let opt = compile(src).unwrap();
        let raw = compile_with_options(
            None,
            src,
            CompileOptions {
                optimize: false,
                ..CompileOptions::default()
            },
        )
        .unwrap();
        assert!(opt.optimizer_rewrites() > 0);
        assert_eq!(raw.optimizer_rewrites(), 0);
        // Semantics identical either way.
        for prog in [&opt, &raw] {
            let mut env = MockEnv::new();
            prog.instantiate(Backend::Vm).execute(&mut env).unwrap();
            assert_eq!(env.register(RegId::R1), 5);
        }
    }

    #[test]
    fn admission_gate_rejects_error_diagnostics() {
        // A popped packet that is never pushed or dropped is an
        // error-severity finding: the compile fails at the verify stage.
        let err = compile("VAR p = Q.POP(); SET(R1, R1 + 1);").unwrap_err();
        assert_eq!(err.stage, crate::error::Stage::Verify);
        assert!(err.message.contains("pop-without-push"), "{}", err.message);
    }

    #[test]
    fn observe_mode_admits_and_records_verdict() {
        let prog = compile_with_options(
            None,
            "VAR p = Q.POP(); SET(R1, R1 + 1);",
            CompileOptions {
                enforce_admission: false,
                ..CompileOptions::default()
            },
        )
        .unwrap();
        assert!(!prog.verdict().admitted());
        assert!(prog.certified_step_bound() > 0);
    }

    #[test]
    fn instances_run_under_the_certified_bound() {
        let prog = compile(MIN_RTT).unwrap();
        assert!(prog.verdict().admitted());
        let bound = prog.certified_step_bound();
        // The bound must actually admit real executions.
        let mut inst = prog.instantiate(Backend::Vm);
        let mut env = env_with_packets(2);
        let stats = inst.execute(&mut env).unwrap();
        assert!(stats.steps <= bound, "{} > {bound}", stats.steps);
    }

    #[test]
    fn named_compile_keeps_name() {
        let prog = compile_named(Some("minRtt"), MIN_RTT).unwrap();
        assert_eq!(prog.name(), Some("minRtt"));
        assert!(prog.disassemble().contains("call"));
    }
}
