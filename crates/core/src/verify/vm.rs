//! eBPF-style dataflow verifier over compiled bytecode, with translation
//! validation against the HIR admission certificate.
//!
//! The HIR verifier ([`crate::verify`]) certifies programs *before*
//! codegen; nothing so far checked the artifact the VM actually executes.
//! This module closes that gap the way the kernel eBPF verifier does:
//! an independent worklist-based abstract interpretation over the
//! [`BytecodeProgram`] itself, tracking per-register and per-slot
//! abstract values (uninitialized / scalar interval / null-tagged
//! subflow- and packet-handle kinds), enforcing the typed helper-call
//! signatures (each operand's kind, in place, and the result kind),
//! flagging unreachable instructions, and deriving a closed-form
//! bytecode-level step bound from recognized loop shapes.
//!
//! [`validate_translation`] then cross-checks the bytecode-level result
//! against the HIR certificate: the bytecode bound must not exceed the
//! certified HIR bound, and the helper calls the bytecode performs must
//! match the HIR's static audit ([`crate::analysis`]) — same
//! property/queue/register codes, same `PUSH`/`DROP`/`POP` site counts,
//! same feature set. Any disagreement is a [`Lint::Miscompile`]
//! diagnostic: the two verifiers form a translation-validation pair, so
//! a codegen or register-allocator bug that changes observable behaviour
//! is caught at load time instead of at runtime.
//!
//! # Bound model
//!
//! The bytecode bound counts the instructions the VM executes, one step
//! each. Every loop is charged the trip count its exit test admits,
//! except a walk that breaks out on the first live element it fetches
//! (an unfiltered `EMPTY` / `TOP` / `POP`, or `SUBFLOWS.EMPTY`): it runs
//! one trip over the subflows, and over a queue at most 1 + *R*, since it
//! steps over every packet this execution removed before it; *R* is the
//! model's own weighted count of `Pop` / `DropPkt` calls. The bound is
//! the longest path through the CFG with its back edges dropped (so `IF`
//! branches contribute their maximum, matching the HIR model), each
//! instruction weighted by the trip counts of its enclosing loops; a
//! path reaching a back edge continues at the loop's exits, so the body
//! counts. `super::cost` charges the same constructs the same way, in
//! HIR units scaled to VM instructions, which is why one certified bound
//! covers the image with no separate slack.

use std::collections::BTreeSet;

use super::diag::{Diagnostic, Lint, Severity};
use super::domain::{alu, assume, negate, Interval, Nullability, Tri};
use super::VerifyConfig;
use crate::analysis::{self, Analysis};
use crate::bytecode::{is_allocatable, AluOp, MAX_STACK_SLOTS};
use crate::bytecode::{BytecodeProgram, Cond, DebugTable, Helper, Insn, Operand, NUM_MACH_REGS};
use crate::env::{PacketProp, QueueKind, SubflowProp};
use crate::error::Pos;
use crate::exec::NULL_HANDLE;
use crate::flow::{
    self, jump_target, read_regs, slot_loc, writes, Domain, Edges, LiveSet, Loop, Solution,
};
use crate::hir::HProgram;

/// The registers and slots that hold a tracked value after `insn`,
/// given those that held it before: a write drops a location, a copy of
/// a holder adds one.
fn copies(held: LiveSet, insn: Insn) -> LiveSet {
    let written = writes(&insn);
    let mut out = LiveSet {
        regs: held.regs & !written.regs,
        slots: held.slots & !written.slots,
    };
    match insn {
        Insn::Mov { dst, src } if held.has_reg(src) => out.regs |= 1 << dst,
        Insn::Ld { dst, slot } if held.has_slot(slot) => out.regs |= 1 << dst,
        Insn::St { slot, src } if held.has_reg(src) => out.slots |= 1 << slot,
        _ => {}
    }
    out
}

/// The bytecode verifier's result: diagnostics and the model step bound
/// (when every reachable loop was proved bounded). The annotated listing
/// `progmp-lint --bytecode` prints is rendered on demand by
/// [`annotated_listing`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BytecodeVerdict {
    /// All findings, sorted by pc then lint.
    pub diagnostics: Vec<Diagnostic>,
    /// Bytecode-level model step bound; `None` when the verifier could
    /// not establish termination of some reachable loop.
    pub step_bound: Option<u64>,
}

impl BytecodeVerdict {
    /// True iff no diagnostic has [`Severity::Error`].
    pub fn admitted(&self) -> bool {
        !self
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Number of diagnostics at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Multi-line human-readable report (header + findings).
    pub fn render_human(&self, name: &str) -> String {
        let mut out = String::new();
        let bound = match self.step_bound {
            Some(b) => b.to_string(),
            None => "unbounded".to_string(),
        };
        out.push_str(&format!(
            "{name}: bytecode {} (model step bound: {bound})\n",
            if self.admitted() {
                "ADMITTED"
            } else {
                "REJECTED"
            },
        ));
        for d in &self.diagnostics {
            out.push_str(&format!("  {d}\n"));
        }
        if self.diagnostics.is_empty() {
            out.push_str("  no findings\n");
        }
        out
    }
}

/// Runs the bytecode verifier alone (no HIR cross-check): structural
/// checks, abstract interpretation, helper-signature enforcement,
/// unreachable-code detection, and loop-bound inference.
///
/// Used directly for hand-built images; the compile pipeline goes
/// through [`validate_translation`] instead.
pub fn verify_bytecode(
    prog: &BytecodeProgram,
    debug: Option<&DebugTable>,
    cfg: &VerifyConfig,
) -> BytecodeVerdict {
    run(prog, debug, cfg, false).into_verdict()
}

/// The disassembly of `prog` annotated with source spans and the abstract
/// register state each instruction executes under (`unreachable` where no
/// feasible path arrives). Re-runs the analysis [`verify_bytecode`] runs;
/// an image that fails structural verification has no states to show and
/// renders as its plain disassembly.
pub fn annotated_listing(
    prog: &BytecodeProgram,
    debug: Option<&DebugTable>,
    cfg: &VerifyConfig,
) -> String {
    let analyzer = run(prog, debug, cfg, false);
    if analyzer.structural_error.is_some() {
        return prog.disassemble();
    }
    analyzer.annotate()
}

/// Runs [`verify_bytecode`] and cross-checks the result against the HIR
/// admission certificate (`hir` + its `certified_bound`): the
/// translation-validation half of the pair. Every disagreement — a
/// bytecode-level error on generated code, a helper call outside the
/// HIR's static audit, or a step bound exceeding the certificate — is a
/// [`Lint::Miscompile`] error anchored to the source span of the
/// offending instruction.
pub fn validate_translation(
    prog: &BytecodeProgram,
    debug: &DebugTable,
    hir: &HProgram,
    certified_bound: u64,
    cfg: &VerifyConfig,
) -> BytecodeVerdict {
    let audit = analysis::analyze(hir);
    validate(prog, debug, &audit, certified_bound, cfg, false)
}

/// [`validate_translation`] against `audit`, the HIR's static audit the
/// admission verdict already holds, checking the image's structure only
/// unless `structure_checked`: the compile pipeline runs
/// [`crate::vm::verify_with_debug`] on its image itself, once.
pub(crate) fn validate(
    prog: &BytecodeProgram,
    debug: &DebugTable,
    audit: &Analysis,
    certified_bound: u64,
    cfg: &VerifyConfig,
    structure_checked: bool,
) -> BytecodeVerdict {
    let analyzer = run(prog, Some(debug), cfg, structure_checked);
    let audit_diags = audit_helpers(&analyzer, prog, debug, audit);
    // A bound over the certificate is anchored at the loop charged the
    // most trips: the likeliest to be miscompiled.
    let heaviest = analyzer.loops.iter().rev().max_by_key(|l| l.trip);
    let heaviest = analyzer.pos_at(heaviest.map_or(0, |l| l.span.head));
    let mut verdict = analyzer.into_verdict();

    // Any error-severity bytecode finding on code that came out of our
    // own compiler is by definition a compiler bug: pair it with a
    // miscompile diagnostic at the same span.
    let echoes: Vec<Diagnostic> = verdict
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error && d.lint != Lint::Miscompile)
        .map(|d| Diagnostic {
            lint: Lint::Miscompile,
            severity: Severity::Error,
            pos: d.pos,
            message: format!(
                "translation validation: generated bytecode failed verification: [{}] {}",
                d.lint, d.message
            ),
        })
        .collect();
    verdict.diagnostics.extend(echoes);
    verdict.diagnostics.extend(audit_diags);

    if let Some(bc_bound) = verdict.step_bound {
        if bc_bound > certified_bound {
            verdict.diagnostics.push(Diagnostic {
                lint: Lint::Miscompile,
                severity: Severity::Error,
                pos: heaviest,
                message: format!(
                    "translation validation: bytecode step bound {bc_bound} exceeds the \
                     certified HIR bound {certified_bound}: the compiled loop structure \
                     disagrees with the certificate"
                ),
            });
        }
    }
    verdict
        .diagnostics
        .sort_by_key(|d| (d.pos.line, d.pos.col, d.lint));
    verdict
}

/// Which handle family an abstract reference belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HandleKind {
    Subflow,
    Packet,
}

/// Abstract value of one register or stack slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum AbsVal {
    /// Never written on some path reaching here.
    #[default]
    Uninit,
    /// An integer in the interval.
    Scalar(Interval),
    /// Exactly `NULL_HANDLE`: the polymorphic NULL literal, usable as a
    /// (null) handle of either kind or as the scalar `-1`.
    Null,
    /// A subflow/packet handle with the given nullability.
    Handle(HandleKind, Nullability),
    /// A handle on one path and a scalar or a handle of the other kind on
    /// another: kind confusion. Every use that needs a kind is an error.
    Mixed,
}

impl AbsVal {
    /// Least upper bound. `Uninit` is absorbing: a location written on
    /// only one incoming path must not be read after the merge. Below it,
    /// `Mixed` absorbs every other value.
    fn join(self, other: AbsVal) -> AbsVal {
        use AbsVal::{Handle, Mixed, Null, Scalar, Uninit};
        match (self, other) {
            (Uninit, _) | (_, Uninit) => Uninit,
            (Mixed, _) | (_, Mixed) => Mixed,
            (Null, Null) => Null,
            (Null, Handle(k, n)) | (Handle(k, n), Null) => Handle(k, n.join(Nullability::Null)),
            (Null, Scalar(iv)) | (Scalar(iv), Null) => {
                Scalar(iv.join(Interval::exact(NULL_HANDLE)))
            }
            (Handle(k1, n1), Handle(k2, n2)) if k1 == k2 => Handle(k1, n1.join(n2)),
            (Handle(..), Handle(..)) | (Handle(..), Scalar(_)) | (Scalar(_), Handle(..)) => Mixed,
            (Scalar(a), Scalar(b)) => Scalar(a.join(b)),
        }
    }

    /// Join with widening on the scalar payload (called where the flow
    /// kernel widens: along a back edge, from a pc's second join on).
    fn widen_join(self, other: AbsVal) -> AbsVal {
        match (self, self.join(other)) {
            (AbsVal::Scalar(old), AbsVal::Scalar(joined)) => AbsVal::Scalar(old.widen(joined)),
            (_, joined) => joined,
        }
    }

    fn render(self) -> String {
        let endpoint = |v: i64| -> String {
            if v == i64::MIN {
                "-inf".to_string()
            } else if v == i64::MAX {
                "+inf".to_string()
            } else {
                v.to_string()
            }
        };
        match self {
            AbsVal::Uninit => "uninit".to_string(),
            AbsVal::Scalar(iv) if iv == Interval::TOP => "i64".to_string(),
            AbsVal::Scalar(iv) => match iv.as_exact() {
                Some(v) => v.to_string(),
                None => format!("[{},{}]", endpoint(iv.lo), endpoint(iv.hi)),
            },
            AbsVal::Null => "null".to_string(),
            AbsVal::Mixed => "mixed".to_string(),
            AbsVal::Handle(k, n) => {
                let base = match k {
                    HandleKind::Subflow => "sbf",
                    HandleKind::Packet => "pkt",
                };
                match n {
                    Nullability::NonNull => base.to_string(),
                    Nullability::MaybeNull => format!("{base}?"),
                    Nullability::Null => format!("{base}(null)"),
                }
            }
        }
    }
}

/// Argument kind of one helper parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArgKind {
    Scalar,
    Sbf,
    Pkt,
}

/// Typed helper signatures: the kinds of operands `a`, `b`.
fn helper_sig(h: Helper) -> &'static [ArgKind] {
    use ArgKind::{Pkt, Sbf, Scalar};
    match h {
        Helper::SubflowCount => &[],
        Helper::GetReg => &[Scalar],
        Helper::SetReg => &[Scalar, Scalar],
        Helper::SubflowAt => &[Scalar],
        Helper::SubflowProp => &[Sbf, Scalar],
        Helper::QueueLen => &[Scalar],
        Helper::QueueGet => &[Scalar, Scalar],
        Helper::PacketProp => &[Pkt, Scalar],
        Helper::SentOn => &[Pkt, Sbf],
        Helper::HasWindowFor => &[Sbf, Pkt],
        Helper::Pop => &[Pkt],
        Helper::Push => &[Sbf, Pkt],
        Helper::DropPkt => &[Pkt],
    }
}

/// Abstract result of a helper, under the verifier's environment caps;
/// `None` for a void helper, which writes nothing.
fn helper_ret(h: Helper, cfg: &VerifyConfig) -> Option<AbsVal> {
    let cap = |c: u64| i64::try_from(c).unwrap_or(i64::MAX);
    Some(match h {
        Helper::SubflowCount => AbsVal::Scalar(Interval::new(0, cap(cfg.max_subflows))),
        Helper::QueueLen => AbsVal::Scalar(Interval::new(0, cap(cfg.max_queue_len))),
        Helper::SubflowAt => AbsVal::Handle(HandleKind::Subflow, Nullability::MaybeNull),
        Helper::QueueGet => AbsVal::Handle(HandleKind::Packet, Nullability::MaybeNull),
        Helper::SentOn | Helper::HasWindowFor => AbsVal::Scalar(Interval::BOOL),
        Helper::GetReg | Helper::SubflowProp | Helper::PacketProp => AbsVal::Scalar(Interval::TOP),
        Helper::SetReg | Helper::Pop | Helper::Push | Helper::DropPkt => return None,
    })
}

/// One recognized natural loop with its model trip count (see module
/// docs); `None` = unbounded.
#[derive(Debug, Clone)]
struct LoopInfo {
    span: Loop,
    trip: Option<u64>,
}

/// Internal analysis output shared by both public entry points.
struct Analyzer<'a> {
    prog: &'a BytecodeProgram,
    debug: Option<&'a DebugTable>,
    cfg: &'a VerifyConfig,
    /// The abstract machine state before each pc: registers at their
    /// numbers, then the stack slots (`flow::slot_loc`).
    states: Solution<AbsVal>,
    /// Findings, keyed for dedup (the kind checks run once per pc, on the
    /// final rows, so they do not depend on the kernel's visit order).
    findings: BTreeSet<(usize, Lint, String)>,
    loops: Vec<LoopInfo>,
    step_bound: Option<u64>,
    /// Set when the structural pre-check already failed.
    structural_error: Option<(Pos, String)>,
}

/// Analyzes `prog`, checking its structure first unless `structure_checked`.
fn run<'a>(
    prog: &'a BytecodeProgram,
    debug: Option<&'a DebugTable>,
    cfg: &'a VerifyConfig,
    structure_checked: bool,
) -> Analyzer<'a> {
    let mut a = Analyzer {
        prog,
        debug,
        cfg,
        states: Solution::default(),
        findings: BTreeSet::new(),
        loops: Vec::new(),
        step_bound: None,
        structural_error: None,
    };
    // Structural verification first: the abstract interpreter relies on
    // in-bounds branch targets, register/slot ranges, and a trailing
    // exit. A failure here on generated code is itself a miscompile.
    let structure = if structure_checked {
        Ok(())
    } else {
        crate::vm::check_structure(prog, debug)
    };
    if let Err(e) = structure {
        a.structural_error = Some((e.pos, e.message));
        return a;
    }
    a.fixpoint();
    a.analyze_loops();
    a.report_unreachable();
    a.compute_bound();
    a
}

impl<'a> Analyzer<'a> {
    fn pos_at(&self, pc: usize) -> Pos {
        self.debug
            .map(|d| d.pos(pc))
            .unwrap_or(Pos { line: 0, col: 0 })
    }

    fn severity_of(lint: Lint) -> Severity {
        match lint {
            Lint::UnreachableCode => Severity::Warning,
            _ => Severity::Error,
        }
    }

    fn report(&mut self, pc: usize, lint: Lint, message: String) {
        self.findings.insert((pc, lint, message));
    }

    // ---- abstract interpretation -------------------------------------

    fn fixpoint(&mut self) {
        let n = self.prog.code.len();
        self.states = flow::solve(self, n);
        if let Some(pc) = self.states.diverged_at {
            // A runaway here is a verifier bug, never a property of the
            // image: fail closed.
            self.report(
                pc,
                Lint::Miscompile,
                "abstract interpretation did not converge".to_string(),
            );
        }
        let states = std::mem::take(&mut self.states);
        for pc in 0..n {
            if let Some(row) = states.before(pc) {
                self.check(pc, row);
            }
        }
        self.states = states;
    }

    /// Reports what the instruction at `pc` does wrong under the row
    /// `st`: a read of an uninitialized register or slot, arithmetic or
    /// an ordered comparison on a handle, a helper argument of the wrong
    /// kind.
    fn check(&mut self, pc: usize, st: &[AbsVal]) {
        let insn = self.prog.code[pc];
        for r in read_regs(&insn) {
            if st[usize::from(r)] == AbsVal::Uninit {
                let message = format!("read of uninitialized register r{r}");
                self.report(pc, Lint::UninitRead, message);
            }
        }
        match insn {
            Insn::Alu { dst, src, .. } => {
                self.check_arith(pc, read(st, dst));
                self.check_arith(pc, read(st, src));
            }
            Insn::AluImm { dst, .. } | Insn::Neg { dst } => self.check_arith(pc, read(st, dst)),
            Insn::Jmp { cond, lhs, rhs, .. } => {
                self.check_compare(pc, cond, st, lhs, read(st, rhs))
            }
            Insn::JmpImm { cond, lhs, imm, .. } => {
                self.check_compare(pc, cond, st, lhs, imm_val(imm));
            }
            Insn::Call { helper, a, b, .. } => self.check_call(pc, st, helper, [a, b]),
            Insn::Ld { slot, .. } if ld(st, slot) == AbsVal::Uninit => {
                let message = format!("read of uninitialized stack slot {slot}");
                self.report(pc, Lint::UninitRead, message);
            }
            _ => {}
        }
    }

    /// Flags an arithmetic operand that may be a handle.
    fn check_arith(&mut self, pc: usize, v: AbsVal) {
        if let Some(kind) = handle_kind(v) {
            self.report(pc, Lint::HandleArith, format!("arithmetic on {kind}"));
        }
    }

    /// Flags an ordered comparison with a side that may be a handle.
    fn check_compare(&mut self, pc: usize, cond: Cond, st: &[AbsVal], lhs: u8, rhs: AbsVal) {
        let ordered = matches!(cond, Cond::Lt | Cond::Le | Cond::Gt | Cond::Ge);
        if ordered && (handle_kind(read(st, lhs)).is_some() || handle_kind(rhs).is_some()) {
            let message = format!("ordered comparison ({cond:?}) on a handle");
            self.report(pc, Lint::HandleArith, message);
        }
    }

    /// Checks one helper call's operands against its typed signature.
    fn check_call(&mut self, pc: usize, st: &[AbsVal], helper: Helper, args: [Operand; 2]) {
        for (kind, arg) in helper_sig(helper).iter().zip(args) {
            let got = match (kind, operand(st, arg)) {
                // NULL is a legal (graceful no-op) handle argument.
                (_, AbsVal::Null)
                | (ArgKind::Scalar, AbsVal::Scalar(_))
                | (ArgKind::Sbf, AbsVal::Handle(HandleKind::Subflow, _))
                | (ArgKind::Pkt, AbsVal::Handle(HandleKind::Packet, _)) => continue,
                (_, AbsVal::Scalar(_)) => "a scalar",
                (_, v) => handle_kind(v).unwrap_or_default(),
            };
            let expected = match kind {
                ArgKind::Scalar => "a scalar",
                ArgKind::Sbf => "a subflow handle",
                ArgKind::Pkt => "a packet handle",
            };
            let message = format!("call {helper:?}: argument {arg} expects {expected}, got {got}");
            self.report(pc, Lint::HelperSignature, message);
        }
    }
}

/// `v` as the transfer reads it: an uninitialized value (a finding of
/// [`Analyzer::check`]) reads as any scalar.
fn defined(v: AbsVal) -> AbsVal {
    match v {
        AbsVal::Uninit => AbsVal::Scalar(Interval::TOP),
        v => v,
    }
}

/// The value of register `r` as the transfer reads it.
fn read(st: &[AbsVal], r: u8) -> AbsVal {
    defined(st[usize::from(r)])
}

/// The value of a helper-call operand as the transfer reads it.
fn operand(st: &[AbsVal], op: Operand) -> AbsVal {
    match op {
        Operand::Reg(r) => read(st, r),
        Operand::Imm(imm) => imm_val(i64::from(imm)),
    }
}

/// The value of stack slot `slot` in `st`.
fn ld(st: &[AbsVal], slot: u16) -> AbsVal {
    st.get(slot_loc(slot)).copied().unwrap_or(AbsVal::Uninit)
}

/// What a value that may be a handle is, for a finding's message;
/// `None` for a scalar, the NULL literal or an uninitialized value.
fn handle_kind(v: AbsVal) -> Option<&'static str> {
    match v {
        AbsVal::Handle(HandleKind::Subflow, _) => Some("a subflow handle"),
        AbsVal::Handle(HandleKind::Packet, _) => Some("a packet handle"),
        AbsVal::Mixed => Some("a value that is a handle on some paths"),
        _ => None,
    }
}

/// The interval arithmetic sees in `v`: a value that may be a handle (a
/// finding of [`Analyzer::check`]) is any scalar.
fn as_scalar(v: AbsVal) -> Interval {
    match v {
        AbsVal::Scalar(iv) => iv,
        AbsVal::Null => Interval::exact(NULL_HANDLE),
        _ => Interval::TOP,
    }
}

/// The abstract value `imm` loads: `NULL_HANDLE` is the NULL literal.
fn imm_val(imm: i64) -> AbsVal {
    if imm == NULL_HANDLE {
        AbsVal::Null
    } else {
        AbsVal::Scalar(Interval::exact(imm))
    }
}

/// The verifier's lattice, solved by the crate's flow kernel.
impl Domain for Analyzer<'_> {
    type Val = AbsVal;

    fn width(&self) -> usize {
        slot_loc(self.prog.stack_slots.min(MAX_STACK_SLOTS as u16))
    }

    fn entry(&self, row: &mut [AbsVal]) {
        row.fill(AbsVal::Uninit);
        // r10 is the (read-only) frame pointer; model it as the concrete
        // zero the VM initializes registers to.
        row[10] = AbsVal::Scalar(Interval::exact(0));
    }

    fn transfer(&mut self, pc: usize, st: &[AbsVal], out: &mut Edges<AbsVal>) {
        let insn = self.prog.code[pc];
        let next = pc + 1;
        let write = |dst: u8, v: AbsVal| [(usize::from(dst), v)];
        match insn {
            Insn::MovImm { dst, imm } => out.push(next, write(dst, imm_val(imm))),
            Insn::Mov { dst, src } => out.push(next, write(dst, read(st, src))),
            Insn::Alu { op, dst, src } => {
                let (a, b) = (as_scalar(read(st, dst)), as_scalar(read(st, src)));
                out.push(next, write(dst, AbsVal::Scalar(alu(op, a, b))));
            }
            Insn::AluImm { op, dst, imm } => {
                let a = as_scalar(read(st, dst));
                out.push(
                    next,
                    write(dst, AbsVal::Scalar(alu(op, a, Interval::exact(imm)))),
                );
            }
            Insn::Neg { dst } => out.push(
                next,
                write(dst, AbsVal::Scalar(as_scalar(read(st, dst)).neg())),
            ),
            Insn::Ja { .. } => out.push(jump_target(pc, &insn).unwrap_or(next), []),
            Insn::Jmp { cond, lhs, rhs, .. } => {
                let t = jump_target(pc, &insn).unwrap_or(next);
                branch(pc, st, cond, lhs, read(st, rhs), Some(rhs), t, out);
            }
            Insn::JmpImm { cond, lhs, imm, .. } => {
                let t = jump_target(pc, &insn).unwrap_or(next);
                branch(pc, st, cond, lhs, imm_val(imm), None, t, out);
            }
            Insn::Call { helper, dst, .. } => {
                let ret = helper_ret(helper, self.cfg).map(|v| (usize::from(dst), v));
                out.push(next, ret);
            }
            Insn::Ld { dst, slot } => out.push(next, write(dst, defined(ld(st, slot)))),
            Insn::St { slot, src } => {
                let loc = slot_loc(slot);
                out.push(next, (loc < st.len()).then_some((loc, read(st, src))));
            }
            Insn::Exit => {}
        }
    }

    fn join(&self, old: AbsVal, new: AbsVal, widen: bool) -> AbsVal {
        if widen {
            old.widen_join(new)
        } else {
            old.join(new)
        }
    }
}

/// Conditional-branch transfer with path-sensitive refinement.
#[allow(clippy::too_many_arguments)]
fn branch(
    pc: usize,
    st: &[AbsVal],
    cond: Cond,
    lhs: u8,
    rhs_val: AbsVal,
    rhs_reg: Option<u8>,
    target: usize,
    out: &mut Edges<AbsVal>,
) {
    let lhs_val = read(st, lhs);
    // Handle-vs-NULL equality refines nullability; every other
    // comparison with a side that may be a handle is opaque (an ordered
    // one is a finding of `Analyzer::check`).
    if handle_kind(lhs_val).is_some() || handle_kind(rhs_val).is_some() {
        if matches!(cond, Cond::Lt | Cond::Le | Cond::Gt | Cond::Ge) {
            // Both edges feasible, no refinement.
            out.push(target, []);
            out.push(pc + 1, []);
            return;
        }
        return branch_handle_eq(pc, cond, lhs, lhs_val, rhs_val, rhs_reg, target, out);
    }

    // Pure scalar comparison: an edge is feasible exactly when its
    // assumption refines to something.
    let (a, b) = (as_scalar(lhs_val), as_scalar(rhs_val));
    let taken = assume(cond, a, b).map(|refined| (target, refined));
    let fallthrough = assume(negate(cond), a, b).map(|refined| (pc + 1, refined));
    for (to, (ra, rb)) in taken.into_iter().chain(fallthrough) {
        // Only refine locations that were scalars to begin with;
        // NULL stays the polymorphic literal.
        let lhs_w =
            matches!(lhs_val, AbsVal::Scalar(_)).then_some((usize::from(lhs), AbsVal::Scalar(ra)));
        let rhs_w = match (rhs_reg, rhs_val) {
            (Some(r), AbsVal::Scalar(_)) => Some((usize::from(r), AbsVal::Scalar(rb))),
            _ => None,
        };
        out.push(to, lhs_w.into_iter().chain(rhs_w));
    }
}

/// Eq/Ne branch where at least one side may be a handle.
#[allow(clippy::too_many_arguments)]
fn branch_handle_eq(
    pc: usize,
    cond: Cond,
    lhs: u8,
    lhs_val: AbsVal,
    rhs_val: AbsVal,
    rhs_reg: Option<u8>,
    target: usize,
    out: &mut Edges<AbsVal>,
) {
    // Is one side the NULL literal (or the exact -1 scalar)?
    let is_null_lit = |v: AbsVal| match v {
        AbsVal::Null => true,
        AbsVal::Scalar(iv) => iv.as_exact() == Some(NULL_HANDLE),
        _ => false,
    };
    // (handle register, its kind+nullability) when testing vs NULL.
    let vs_null = if let (AbsVal::Handle(k, n), true) = (lhs_val, is_null_lit(rhs_val)) {
        Some((lhs, k, n))
    } else if let (true, Some(r), AbsVal::Handle(k, n)) = (is_null_lit(lhs_val), rhs_reg, rhs_val) {
        Some((r, k, n))
    } else {
        None
    };
    let eq_tri = match (lhs_val, rhs_val) {
        (AbsVal::Handle(_, Nullability::Null), v) | (v, AbsVal::Handle(_, Nullability::Null))
            if is_null_lit(v) =>
        {
            Tri::True
        }
        (AbsVal::Handle(_, Nullability::NonNull), v)
        | (v, AbsVal::Handle(_, Nullability::NonNull))
            if is_null_lit(v) =>
        {
            Tri::False
        }
        _ => Tri::Unknown,
    };
    let tri = if cond == Cond::Eq {
        eq_tri
    } else {
        eq_tri.not()
    };
    let refine = |null_side: bool| {
        vs_null.map(|(r, k, _)| {
            let n = if null_side {
                Nullability::Null
            } else {
                Nullability::NonNull
            };
            (usize::from(r), AbsVal::Handle(k, n))
        })
    };
    if tri != Tri::False {
        out.push(target, refine(cond == Cond::Eq));
    }
    if tri != Tri::True {
        out.push(pc + 1, refine(cond == Cond::Ne));
    }
}

impl Analyzer<'_> {
    // ---- loop-bound inference ----------------------------------------

    fn analyze_loops(&mut self) {
        if self.structural_error.is_some() {
            return;
        }
        let loops = flow::loops(&self.prog.code);
        // Proper nesting: intervals must be disjoint or nested.
        for (i, &Loop { head: h1, back: b1 }) in loops.iter().enumerate() {
            for &Loop { head: h2, back: b2 } in &loops[i + 1..] {
                let disjoint = b1 < h2 || b2 < h1;
                let nested = (h1 <= h2 && b2 <= b1) || (h2 <= h1 && b1 <= b2);
                if !disjoint && !nested {
                    self.report(
                        h1.max(h2),
                        Lint::UnboundedLoop,
                        format!(
                            "irreducible loop structure: intervals [{h1},{b1}] and \
                             [{h2},{b2}] overlap without nesting"
                        ),
                    );
                }
            }
        }
        let leaders = flow::leaders(&self.prog.code);
        for &span in &loops {
            let trip = self.loop_trip(span, &leaders);
            self.loops.push(LoopInfo { span, trip });
        }
        // A walk's body calls nothing but its fetch, so R does not depend
        // on the trips charged to walks.
        let removals = (self.prog.code.iter().zip(self.weights()))
            .filter(|(i, _)| {
                matches!(
                    i,
                    Insn::Call {
                        helper: Helper::Pop | Helper::DropPkt,
                        ..
                    }
                )
            })
            .fold(0u64, |acc, (_, w)| acc.saturating_add(w));
        for i in 0..self.loops.len() {
            if let Some(skips) = self.first_live_walk(self.loops[i].span) {
                let walk = removals.saturating_mul(u64::from(skips)).saturating_add(1);
                self.loops[i].trip = self.loops[i].trip.map(|t| t.min(walk));
            }
        }
    }

    /// Whether the loop `[head, back]` breaks out on the first live
    /// element it fetches: its exit test, the fetch, at most one skip of
    /// a removed packet that tests the value fetched (`Some(true)`, a
    /// queue walk), then an unconditional jump out of the loop. Any other
    /// branch or call makes it a scan.
    fn first_live_walk(&self, Loop { head, back }: Loop) -> Option<bool> {
        let code = &self.prog.code;
        let leaves = |pc: usize| jump_target(pc, &code[pc]).is_some_and(|t| t < head || t > back);
        // The registers and slots holding the fetched element.
        let (mut tested, mut element, mut skips) = (false, None::<LiveSet>, false);
        for (pc, &insn) in code.iter().enumerate().take(back + 1).skip(head) {
            match insn {
                Insn::Jmp { .. } | Insn::JmpImm { .. } if !tested && leaves(pc) => tested = true,
                Insn::Call {
                    helper: Helper::QueueGet | Helper::SubflowAt,
                    dst,
                    ..
                } if tested && element.is_none() => {
                    element = Some(LiveSet {
                        regs: 1 << dst,
                        slots: 0,
                    });
                    continue;
                }
                Insn::JmpImm {
                    lhs,
                    cond: Cond::Eq,
                    imm: NULL_HANDLE,
                    ..
                } if element.is_some_and(|e| e.has_reg(lhs)) && !skips && !leaves(pc) => {
                    skips = true
                }
                Insn::Ja { .. } => return (element.is_some() && leaves(pc)).then_some(skips),
                Insn::Jmp { .. } | Insn::JmpImm { .. } | Insn::Call { .. } | Insn::Exit => {
                    return None
                }
                _ => {}
            }
            element = element.map(|held| copies(held, insn));
        }
        None
    }

    /// Model trip count for the loop `[head, back]`; `None` = unbounded
    /// (a diagnostic has been emitted).
    fn loop_trip(&mut self, Loop { head, back }: Loop, leaders: &[bool]) -> Option<u64> {
        // A loop the abstract interpretation proved unreachable never
        // runs: skip the obligations no state can discharge.
        if self.states.before(head).is_none() {
            return Some(0);
        }

        // Find the exit test: the first conditional jump in the interval
        // whose taken edge leaves it.
        let code = &self.prog.code;
        let exit_test = (head..=back).find(|&p| {
            matches!(code[p], Insn::Jmp { .. } | Insn::JmpImm { .. })
                && jump_target(p, &code[p]).is_some_and(|t| t < head || t > back)
        });

        let unbounded = |me: &mut Self, msg: String| {
            me.report(head, Lint::UnboundedLoop, msg);
            None
        };

        // Top-test shape: `if idx >= n goto out` must execute on every
        // iteration, so nothing between head and the test may branch or
        // be branched into. With no exit inside the interval, accept the
        // bottom-test shape where the back edge itself is
        // `if idx < n goto head`.
        if let Some(p) = exit_test {
            if (head..p).any(|q| jump_target(q, &code[q]).is_some())
                || (head + 1..=p).any(|q| leaders[q])
            {
                let msg = "loop exit test is not executed on every iteration";
                return unbounded(self, msg.to_string());
            }
        }
        let top = exit_test.is_some();
        let test_pc = exit_test.unwrap_or(back);
        let (cond, idx_reg, n_src, imm) = match code[test_pc] {
            Insn::Jmp { cond, lhs, rhs, .. } => (cond, lhs, Some(rhs), 0),
            Insn::JmpImm { cond, lhs, imm, .. } => (cond, lhs, None, imm),
            _ => return unbounded(self, "loop has no recognizable exit test".to_string()),
        };
        let (upper, inclusive) = if top {
            (Cond::Ge, Cond::Gt)
        } else {
            (Cond::Lt, Cond::Le)
        };
        if cond != upper && cond != inclusive {
            let msg = if top {
                "loop exit test is not an upper-bound comparison"
            } else {
                "loop has no recognizable exit test"
            };
            return unbounded(self, msg.to_string());
        }
        let n_hi = match n_src.map(|r| self.states.before(test_pc).map(|s| s[usize::from(r)])) {
            None => imm,
            Some(Some(AbsVal::Scalar(iv))) => iv.hi,
            Some(Some(AbsVal::Null)) if top => NULL_HANDLE,
            Some(_) => {
                let rhs = n_src.unwrap_or_default();
                return unbounded(
                    self,
                    format!("loop bound register r{rhs} has no scalar value"),
                );
            }
        };
        // A bottom test counts up from the induction variable's lower
        // bound at the head.
        let lo = if top {
            0
        } else {
            self.loop_var_lo(head, idx_reg)
        };
        let span = n_hi.saturating_sub(lo).max(0) as u64;
        let raw_trip = span.saturating_add(u64::from(cond == inclusive));

        // Resolve the induction variable's home location: an allocatable
        // register directly, or the spill slot a scratch register was
        // loaded from just before the test.
        let Some(idx_loc) = self.resolve_loc(head, test_pc, idx_reg) else {
            // A back edge no state reaches is never taken, so the body
            // runs at most once. Constant propagation leaves exactly this
            // when it folds such a loop's induction variable to its entry
            // value. A loop whose variable does resolve keeps its counted
            // trips, so a mutated exit test still overruns the bound.
            if self.states.before(back).is_none() {
                return Some(1);
            }
            let msg = format!("cannot resolve loop induction variable r{idx_reg}");
            return unbounded(self, msg);
        };
        let n_loc = n_src.and_then(|r| self.resolve_loc(head, test_pc, r));

        // The bound must be loop-invariant.
        if let Some(nl) = n_loc {
            if (head..=back).any(|q| q != test_pc && self.writes_loc(q, nl)) {
                return unbounded(self, "loop bound is modified inside the loop".to_string());
            }
        }

        // Monotonicity: every write to the induction variable inside the
        // interval is a positive-constant increment (or an identity
        // rewrite), and the block performing the back edge increments it.
        if !self.check_monotone(head, back, idx_loc, leaders) {
            return None; // diagnostic emitted inside
        }

        Some(raw_trip)
    }

    /// Lower bound of the value at `reg`'s home location in the head
    /// state (for bottom-test trip counting).
    fn loop_var_lo(&self, head: usize, reg: u8) -> i64 {
        match self.states.before(head).map(|s| s[usize::from(reg)]) {
            Some(AbsVal::Scalar(iv)) => iv.lo,
            _ => 0,
        }
    }

    /// Home location of `reg` as observed at `test_pc`: allocatable
    /// registers are their own home; scratch registers trace back to the
    /// `Ld` that filled them within the head block.
    fn resolve_loc(&self, head: usize, test_pc: usize, reg: u8) -> Option<Loc> {
        if is_allocatable(reg) {
            return Some(Loc::Reg(reg));
        }
        for q in (head..test_pc).rev() {
            match self.prog.code[q] {
                Insn::Ld { dst, slot } if dst == reg => return Some(Loc::Slot(slot)),
                insn if writes(&insn).has_reg(reg) => return None,
                _ => {}
            }
        }
        None
    }

    /// Whether the instruction at `pc` writes `loc`.
    fn writes_loc(&self, pc: usize, loc: Loc) -> bool {
        let written = writes(&self.prog.code[pc]);
        match loc {
            Loc::Slot(s) => written.has_slot(s),
            Loc::Reg(r) => written.has_reg(r),
        }
    }

    /// Verifies that the induction variable only ever increases inside
    /// `[head, back]` and that the back-edge block increments it.
    fn check_monotone(&mut self, head: usize, back: usize, idx: Loc, leaders: &[bool]) -> bool {
        let block_starts: Vec<usize> = (head..=back).filter(|&l| leaders[l]).collect();
        let mut back_block_increments = false;
        for (bi, &start) in block_starts.iter().enumerate() {
            let end = block_starts
                .get(bi + 1)
                .map(|&n| n - 1)
                .unwrap_or(back)
                .min(back);
            let mut sym = BlockSyms::new(idx);
            let mut incremented = false;
            for pc in start..=end {
                match sym.step(self.prog.code[pc], idx) {
                    StepClass::Ok => {}
                    StepClass::Increment => incremented = true,
                    StepClass::NonMonotone => {
                        self.report(
                            head,
                            Lint::UnboundedLoop,
                            format!(
                                "loop induction variable is modified non-monotonically at pc {pc}"
                            ),
                        );
                        return false;
                    }
                }
            }
            if end == back && incremented {
                back_block_increments = true;
            }
        }
        if !back_block_increments {
            self.report(
                head,
                Lint::UnboundedLoop,
                "back edge can be taken without incrementing the induction variable".to_string(),
            );
            return false;
        }
        true
    }

    // ---- unreachable code + bound ------------------------------------

    fn report_unreachable(&mut self) {
        if self.structural_error.is_some() {
            return;
        }
        let n = self.prog.code.len();
        let mut pc = 0;
        while pc < n {
            if self.states.before(pc).is_some() {
                pc += 1;
                continue;
            }
            let start = pc;
            while pc < n && self.states.before(pc).is_none() {
                pc += 1;
            }
            let end = pc - 1;
            if self.suppress_unreachable(start, end) {
                continue;
            }
            self.report(
                start,
                Lint::UnreachableCode,
                if start == end {
                    format!("instruction {start} can never execute")
                } else {
                    format!("instructions {start}..{end} can never execute")
                },
            );
        }
    }

    /// Structurally expected unreachable runs that carry no information:
    /// bare exits, and the continue block of loops whose every body path
    /// breaks out early (codegen keeps the increment for shape
    /// uniformity).
    fn suppress_unreachable(&self, start: usize, end: usize) -> bool {
        let run = &self.prog.code[start..=end];
        if run.iter().all(|i| matches!(i, Insn::Exit)) {
            return true;
        }
        let ends_in_back_ja = matches!(run.last(), Some(Insn::Ja { off }) if *off < 0)
            && jump_target(end, &self.prog.code[end]).is_some_and(|t| t <= end);
        ends_in_back_ja
            && run[..run.len() - 1].iter().all(|i| {
                matches!(
                    i,
                    Insn::Ld { .. }
                        | Insn::Mov { .. }
                        | Insn::St { .. }
                        | Insn::AluImm { op: AluOp::Add, .. }
                )
            })
    }

    /// Each instruction's model execution count: the product of
    /// `trip + 1` over its enclosing loops.
    fn weights(&self) -> Vec<u64> {
        let mut weight = vec![1u64; self.prog.code.len()];
        for l in &self.loops {
            let mult = l.trip.unwrap_or(0).saturating_add(1);
            for w in &mut weight[l.span.head..=l.span.back] {
                *w = w.saturating_mul(mult);
            }
        }
        weight
    }

    /// Longest path through the back-edge-free CFG, each instruction
    /// weighted by the trip counts of its enclosing loops.
    fn compute_bound(&mut self) {
        let code = &self.prog.code;
        let n = code.len();
        if self.structural_error.is_some() || n == 0 {
            return;
        }
        if self.loops.iter().any(|l| l.trip.is_none()) {
            return; // unbounded; diagnostics already emitted
        }
        let weight = self.weights();
        // The path through a loop's body goes on at the loop's exits:
        // (back edge, exit) pairs, ordered by back edge.
        let mut exits: Vec<(usize, usize)> = (self.loops.iter())
            .flat_map(|l| {
                let Loop { head, back } = l.span;
                let out = move |q: usize| jump_target(q, &code[q]).filter(|&t| t > back);
                (head..=back).filter_map(move |q| out(q).map(|t| (back, t)))
            })
            .collect();
        exits.sort_unstable();
        let mut dist: Vec<Option<u64>> = vec![None; n];
        dist[0] = Some(weight[0]);
        let mut best = 0u64;
        for pc in 0..n {
            let Some(d) = dist[pc] else { continue };
            let insn = code[pc];
            if matches!(insn, Insn::Exit) {
                best = best.max(d);
                continue;
            }
            let mut relax = |succ: usize| {
                if succ > pc && succ < n {
                    let nd = d.saturating_add(weight[succ]);
                    if dist[succ].is_none_or(|old| nd > old) {
                        dist[succ] = Some(nd);
                    }
                }
            };
            if !matches!(insn, Insn::Ja { .. }) {
                relax(pc + 1);
            }
            if let Some(t) = jump_target(pc, &insn) {
                relax(t);
            }
            let from = exits.partition_point(|&(b, _)| b < pc);
            for &(_, t) in exits[from..].iter().take_while(|&&(b, _)| b == pc) {
                relax(t);
            }
        }
        self.step_bound = Some(best);
    }

    // ---- rendering ----------------------------------------------------

    fn annotate(&self) -> String {
        let mut out = String::new();
        for (pc, insn) in self.prog.code.iter().enumerate() {
            let text = format!("{pc:4}: {insn}");
            let mut notes = Vec::new();
            if self.debug.is_some() {
                let p = self.pos_at(pc);
                notes.push(format!("{}:{}", p.line, p.col));
            }
            match self.states.before(pc) {
                None => notes.push("unreachable".to_string()),
                Some(st) => {
                    for r in read_regs(insn) {
                        notes.push(format!("r{r}={}", st[usize::from(r)].render()));
                    }
                    if let Insn::Ld { slot, .. } = insn {
                        let v = st.get(slot_loc(*slot)).copied().unwrap_or(AbsVal::Uninit);
                        notes.push(format!("s{slot}={}", v.render()));
                    }
                }
            }
            if notes.is_empty() {
                out.push_str(&format!("{text}\n"));
            } else {
                out.push_str(&format!("{text:<40} ; {}\n", notes.join(" ")));
            }
        }
        out
    }

    fn into_verdict(self) -> BytecodeVerdict {
        if let Some((pos, msg)) = &self.structural_error {
            return BytecodeVerdict {
                diagnostics: vec![Diagnostic {
                    lint: Lint::Miscompile,
                    severity: Severity::Error,
                    pos: *pos,
                    message: format!("structural bytecode verification failed: {msg}"),
                }],
                step_bound: None,
            };
        }
        let mut diagnostics: Vec<Diagnostic> = self
            .findings
            .iter()
            .map(|(pc, lint, message)| Diagnostic {
                lint: *lint,
                severity: Self::severity_of(*lint),
                pos: self.pos_at(*pc),
                message: format!("pc {pc}: {message}"),
            })
            .collect();
        diagnostics.sort_by(|a, b| {
            (a.pos.line, a.pos.col, a.lint, &a.message)
                .cmp(&(b.pos.line, b.pos.col, b.lint, &b.message))
        });
        BytecodeVerdict {
            diagnostics,
            step_bound: self.step_bound,
        }
    }
}

/// Home location of a loop variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    Reg(u8),
    Slot(u16),
}

/// Per-block symbolic values for the monotonicity check: which registers
/// currently hold `idx + c` for the tracked induction location.
struct BlockSyms {
    /// `Some(c)` = register holds the induction value plus `c`.
    regs: [Option<i64>; NUM_MACH_REGS],
}

/// Classification of one instruction by the symbolic scan.
enum StepClass {
    Ok,
    Increment,
    NonMonotone,
}

impl BlockSyms {
    fn new(idx: Loc) -> BlockSyms {
        let mut regs = [None; NUM_MACH_REGS];
        if let Loc::Reg(r) = idx {
            regs[usize::from(r)] = Some(0);
        }
        BlockSyms { regs }
    }

    /// After the induction location was advanced, every symbolic copy is
    /// stale; rebase the given register (if any) to the fresh value.
    fn rebase(&mut self, keep: Option<u8>) {
        self.regs = [None; NUM_MACH_REGS];
        if let Some(r) = keep {
            self.regs[usize::from(r)] = Some(0);
        }
    }

    /// Classify a write of symbolic value `sym` into the induction
    /// location itself.
    fn classify_idx_write(sym: Option<i64>) -> StepClass {
        match sym {
            Some(c) if c > 0 => StepClass::Increment,
            Some(0) => StepClass::Ok,
            _ => StepClass::NonMonotone,
        }
    }

    fn step(&mut self, insn: Insn, idx: Loc) -> StepClass {
        let idx_reg = match idx {
            Loc::Reg(r) => Some(r),
            Loc::Slot(_) => None,
        };
        match insn {
            Insn::Ld { dst, slot } => {
                self.regs[usize::from(dst)] = match idx {
                    Loc::Slot(s) if s == slot => Some(0),
                    Loc::Reg(r) if r == dst => return StepClass::NonMonotone,
                    _ => None,
                };
                StepClass::Ok
            }
            Insn::MovImm { dst, .. } => {
                if idx_reg == Some(dst) {
                    return StepClass::NonMonotone;
                }
                self.regs[usize::from(dst)] = None;
                StepClass::Ok
            }
            Insn::Mov { dst, src } => {
                let s = self.regs[usize::from(src)];
                if idx_reg == Some(dst) {
                    let class = Self::classify_idx_write(s);
                    match class {
                        StepClass::Increment => self.rebase(Some(dst)),
                        StepClass::Ok => self.regs[usize::from(dst)] = Some(0),
                        StepClass::NonMonotone => {}
                    }
                    return class;
                }
                self.regs[usize::from(dst)] = s;
                StepClass::Ok
            }
            Insn::AluImm { op, dst, imm } => {
                let new = match (op, self.regs[usize::from(dst)]) {
                    (AluOp::Add, Some(c)) => c.checked_add(imm),
                    _ => None,
                };
                if idx_reg == Some(dst) {
                    let class = Self::classify_idx_write(new);
                    match class {
                        StepClass::Increment => self.rebase(Some(dst)),
                        StepClass::Ok => self.regs[usize::from(dst)] = Some(0),
                        StepClass::NonMonotone => {}
                    }
                    return class;
                }
                self.regs[usize::from(dst)] = new;
                StepClass::Ok
            }
            Insn::Alu { dst, .. } | Insn::Neg { dst } => {
                if idx_reg == Some(dst) {
                    return StepClass::NonMonotone;
                }
                self.regs[usize::from(dst)] = None;
                StepClass::Ok
            }
            Insn::Call { helper, dst, .. } if helper.has_result() => {
                if idx_reg == Some(dst) {
                    return StepClass::NonMonotone;
                }
                self.regs[usize::from(dst)] = None;
                StepClass::Ok
            }
            Insn::St { slot, src } => {
                if let Loc::Slot(s) = idx {
                    if s == slot {
                        let class = Self::classify_idx_write(self.regs[usize::from(src)]);
                        if !matches!(class, StepClass::NonMonotone) {
                            // Every register copy now refers to the old
                            // value; drop them all.
                            self.rebase(None);
                        }
                        return class;
                    }
                }
                StepClass::Ok
            }
            Insn::Call { .. }
            | Insn::Ja { .. }
            | Insn::Jmp { .. }
            | Insn::JmpImm { .. }
            | Insn::Exit => StepClass::Ok,
        }
    }
}

// ---- HIR cross-check (helper audit) ----------------------------------

/// Compares the helper calls the bytecode performs against the HIR's
/// static audit `hir_audit`. Each enum code is the immediate operand of
/// its call ([`crate::vm::verify`] rejects any other), so every site is
/// checked, reachable or not.
fn audit_helpers(
    analyzer: &Analyzer<'_>,
    prog: &BytecodeProgram,
    debug: &DebugTable,
    hir_audit: &Analysis,
) -> Vec<Diagnostic> {
    if analyzer.structural_error.is_some() {
        return Vec::new();
    }
    let mut diags = Vec::new();
    let mut miscompile = |pc: usize, message: String| {
        diags.push(Diagnostic {
            lint: Lint::Miscompile,
            severity: Severity::Error,
            pos: debug.pos(pc),
            message: format!("pc {pc}: translation validation: {message}"),
        });
    };

    let mut push_calls = 0usize;
    let mut drop_calls = 0usize;
    let mut pop_calls = 0usize;
    let mut first_site = [None::<usize>; 3]; // push, drop, pop
    let mut uses_sent_on = false;
    let mut uses_window = false;

    for (pc, insn) in prog.code.iter().enumerate() {
        let Insn::Call { helper, a, b, .. } = *insn else {
            continue;
        };
        match helper {
            Helper::Push => {
                push_calls += 1;
                first_site[0].get_or_insert(pc);
            }
            Helper::DropPkt => {
                drop_calls += 1;
                first_site[1].get_or_insert(pc);
            }
            Helper::Pop => {
                pop_calls += 1;
                first_site[2].get_or_insert(pc);
            }
            Helper::SentOn => uses_sent_on = true,
            Helper::HasWindowFor => uses_window = true,
            _ => {}
        }
        let Some(Operand::Imm(code)) = helper.code_operand().map(|i| [a, b][i]) else {
            continue;
        };
        let code = i64::from(code);
        match helper {
            Helper::GetReg => {
                let reg = code.checked_add(1).and_then(|c| u8::try_from(c).ok());
                if !reg.is_some_and(|r| hir_audit.registers_read.contains(&r)) {
                    miscompile(
                        pc,
                        format!("GetReg code {code} is outside the audited register-read set"),
                    );
                }
            }
            Helper::SetReg => {
                let reg = code.checked_add(1).and_then(|c| u8::try_from(c).ok());
                if !reg.is_some_and(|r| hir_audit.registers_written.contains(&r)) {
                    miscompile(
                        pc,
                        format!("SetReg code {code} is outside the audited register-write set"),
                    );
                }
            }
            Helper::QueueLen | Helper::QueueGet => {
                let name = QueueKind::from_code(code).map(QueueKind::name);
                if !name.is_some_and(|n| hir_audit.queues_read.contains(n)) {
                    miscompile(
                        pc,
                        format!("queue code {code} is outside the audited queue set"),
                    );
                }
            }
            Helper::SubflowProp => {
                let name = SubflowProp::from_code(code).map(SubflowProp::name);
                if !name.is_some_and(|n| hir_audit.subflow_props.contains(n)) {
                    miscompile(
                        pc,
                        format!("subflow property code {code} is outside the audited property set"),
                    );
                }
            }
            Helper::PacketProp => {
                let name = PacketProp::from_code(code).map(PacketProp::name);
                if !name.is_some_and(|n| hir_audit.packet_props.contains(n)) {
                    miscompile(
                        pc,
                        format!("packet property code {code} is outside the audited property set"),
                    );
                }
            }
            _ => {}
        }
    }

    let counts = [
        ("Push", push_calls, hir_audit.push_sites, first_site[0]),
        ("DropPkt", drop_calls, hir_audit.drop_sites, first_site[1]),
        ("Pop", pop_calls, hir_audit.pop_sites, first_site[2]),
    ];
    for (name, got, want, site) in counts {
        if got != want {
            miscompile(
                site.unwrap_or(0),
                format!("bytecode performs {got} {name} call(s) but the HIR certificate audits {want} site(s)"),
            );
        }
    }
    // Presence checks are one-directional: the bytecode must not call a
    // capability the audit never granted. The converse (audited but not
    // compiled) is legal — predicates of unused lazy views are audited
    // by the HIR walk but never materialized by codegen.
    if uses_sent_on && !hir_audit.uses_sent_on {
        miscompile(
            0,
            "bytecode calls SENT_ON but the HIR certificate never audits it".to_string(),
        );
    }
    if uses_window && !hir_audit.uses_window_check {
        miscompile(
            0,
            "bytecode calls HAS_WINDOW_FOR but the HIR certificate never audits it".to_string(),
        );
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{AluOp, Cond};
    use crate::optimizer;
    use crate::parser;
    use crate::regalloc;
    use crate::sema;

    fn call(helper: Helper, dst: u8, a: Operand) -> Insn {
        let b = Operand::Imm(0);
        Insn::Call { helper, dst, a, b }
    }

    fn compile_parts(src: &str) -> (HProgram, BytecodeProgram, DebugTable, u64) {
        let ast = parser::parse(src).expect("parse");
        let mut hir = sema::lower(&ast).expect("sema");
        optimizer::optimize(&mut hir);
        let verdict = super::super::verify(&hir);
        let vcode = crate::codegen::generate(&hir).expect("codegen");
        let (prog, debug) = regalloc::allocate_with_debug(&vcode).expect("regalloc");
        (hir, prog, debug, verdict.certified_step_bound)
    }

    fn validated(src: &str) -> BytecodeVerdict {
        let (hir, prog, debug, bound) = compile_parts(src);
        validate_translation(&prog, &debug, &hir, bound, &VerifyConfig::default())
    }

    fn listing(src: &str) -> String {
        let (_, prog, debug, _) = compile_parts(src);
        annotated_listing(&prog, Some(&debug), &VerifyConfig::default())
    }

    const MIN_RTT: &str =
        "IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) { SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP()); }";

    #[test]
    fn min_rtt_bytecode_validates_against_certificate() {
        let v = validated(MIN_RTT);
        assert!(v.admitted(), "diags: {:?}", v.diagnostics);
        let bound = v.step_bound.expect("all loops bounded");
        assert!(bound > 0);
        let (_, _, _, hir_bound) = compile_parts(MIN_RTT);
        assert!(bound <= hir_bound, "{bound} vs {hir_bound}");
        assert!(listing(MIN_RTT).contains("call"));
    }

    #[test]
    fn generated_schedulers_carry_spans_in_annotation() {
        let v = validated("SET(R1, SUBFLOWS.COUNT);");
        assert!(v.admitted(), "diags: {:?}", v.diagnostics);
        // Every line carries a `line:col` annotation from the side table.
        let listing = listing("SET(R1, SUBFLOWS.COUNT);");
        assert!(listing.lines().all(|l| l.contains("; 1:")), "{listing}");
    }

    #[test]
    fn uninitialized_register_read_is_rejected() {
        let prog = BytecodeProgram {
            code: vec![Insn::Mov { dst: 6, src: 7 }, Insn::Exit],
            stack_slots: 0,
        };
        let v = verify_bytecode(&prog, None, &VerifyConfig::default());
        assert!(!v.admitted());
        assert!(v
            .diagnostics
            .iter()
            .any(|d| d.lint == Lint::UninitRead && d.message.contains("r7")));
    }

    #[test]
    fn uninitialized_slot_read_is_rejected() {
        let prog = BytecodeProgram {
            code: vec![Insn::Ld { dst: 6, slot: 0 }, Insn::Exit],
            stack_slots: 1,
        };
        let v = verify_bytecode(&prog, None, &VerifyConfig::default());
        assert!(!v.admitted());
        assert!(v
            .diagnostics
            .iter()
            .any(|d| d.lint == Lint::UninitRead && d.message.contains("slot 0")));
    }

    #[test]
    fn conditionally_initialized_register_is_rejected_at_the_merge() {
        // r6 is written only on the fall-through path; the read after the
        // merge must be flagged (Uninit is absorbing under join). The
        // branch condition is a helper result, so both edges are feasible.
        let prog = BytecodeProgram {
            code: vec![
                call(Helper::GetReg, 7, Operand::Imm(0)),
                Insn::JmpImm {
                    cond: Cond::Eq,
                    lhs: 7,
                    imm: 1,
                    off: 1,
                },
                Insn::MovImm { dst: 6, imm: 5 },
                Insn::Mov { dst: 8, src: 6 },
                Insn::Exit,
            ],
            stack_slots: 0,
        };
        let v = verify_bytecode(&prog, None, &VerifyConfig::default());
        assert!(!v.admitted());
        assert!(
            v.diagnostics
                .iter()
                .any(|d| d.lint == Lint::UninitRead && d.message.contains("pc 3")),
            "{:?}",
            v.diagnostics
        );
    }

    #[test]
    fn an_uninitialized_call_operand_is_flagged() {
        // The operand is read in place: a register no path wrote is an
        // error at the call itself.
        let prog = BytecodeProgram {
            code: vec![call(Helper::SubflowAt, 6, Operand::Reg(1)), Insn::Exit],
            stack_slots: 0,
        };
        let v = verify_bytecode(&prog, None, &VerifyConfig::default());
        assert!(!v.admitted());
        assert!(v.diagnostics.iter().any(|d| d.lint == Lint::UninitRead
            && d.message.contains("pc 0")
            && d.message.contains("r1")));
    }

    #[test]
    fn helper_signature_violations_are_rejected() {
        // Push expects (subflow, packet); a scalar subflow argument and a
        // subflow-typed packet argument are both violations.
        let prog = BytecodeProgram {
            code: vec![
                call(Helper::SubflowAt, 2, Operand::Imm(0)), // r2 = subflow handle
                Insn::Call {
                    helper: Helper::Push,
                    dst: 0,
                    a: Operand::Imm(7),
                    b: Operand::Reg(2),
                },
                Insn::Exit,
            ],
            stack_slots: 0,
        };
        let v = verify_bytecode(&prog, None, &VerifyConfig::default());
        assert!(!v.admitted());
        let sigs: Vec<_> = v
            .diagnostics
            .iter()
            .filter(|d| d.lint == Lint::HelperSignature)
            .collect();
        assert_eq!(sigs.len(), 2, "{sigs:?}");
    }

    #[test]
    fn handle_arithmetic_is_rejected() {
        let prog = BytecodeProgram {
            code: vec![
                call(Helper::SubflowAt, 6, Operand::Imm(0)),
                Insn::AluImm {
                    op: AluOp::Add,
                    dst: 6,
                    imm: 1,
                },
                Insn::Exit,
            ],
            stack_slots: 0,
        };
        let v = verify_bytecode(&prog, None, &VerifyConfig::default());
        assert!(!v.admitted());
        assert!(v.diagnostics.iter().any(|d| d.lint == Lint::HandleArith));
    }

    #[test]
    fn unreachable_code_is_warned_not_rejected() {
        let prog = BytecodeProgram {
            code: vec![
                Insn::MovImm { dst: 6, imm: 1 },
                Insn::Ja { off: 1 },
                Insn::MovImm { dst: 6, imm: 2 }, // skipped forever
                Insn::Exit,
            ],
            stack_slots: 0,
        };
        let v = verify_bytecode(&prog, None, &VerifyConfig::default());
        assert!(v.admitted(), "warnings do not block: {:?}", v.diagnostics);
        assert!(v
            .diagnostics
            .iter()
            .any(|d| d.lint == Lint::UnreachableCode && d.severity == Severity::Warning));
    }

    #[test]
    fn counted_loop_is_bounded_and_admitted() {
        // for r6 in 0..10 { two helper calls } — bottom-test shape. The
        // two calls make this a "scan" loop, charged per trip.
        let prog = BytecodeProgram {
            code: vec![
                Insn::MovImm { dst: 6, imm: 0 },
                call(Helper::SubflowCount, 7, Operand::Imm(0)),
                call(Helper::SubflowCount, 7, Operand::Imm(0)),
                Insn::AluImm {
                    op: AluOp::Add,
                    dst: 6,
                    imm: 1,
                },
                Insn::JmpImm {
                    cond: Cond::Lt,
                    lhs: 6,
                    imm: 10,
                    off: -4,
                },
                Insn::Exit,
            ],
            stack_slots: 0,
        };
        let v = verify_bytecode(&prog, None, &VerifyConfig::default());
        assert!(v.admitted(), "diags: {:?}", v.diagnostics);
        let bound = v.step_bound.expect("bounded");
        assert!(bound >= 10, "loop body charged per trip: {bound}");
    }

    #[test]
    fn pure_counted_loop_is_charged_every_trip() {
        // A call-free loop is no first-element walk: the bound charges
        // all 1 000 trips it runs.
        let prog = BytecodeProgram {
            code: vec![
                Insn::MovImm { dst: 6, imm: 0 },
                Insn::AluImm {
                    op: AluOp::Add,
                    dst: 6,
                    imm: 1,
                },
                Insn::JmpImm {
                    cond: Cond::Lt,
                    lhs: 6,
                    imm: 1000,
                    off: -2,
                },
                Insn::Exit,
            ],
            stack_slots: 0,
        };
        let v = verify_bytecode(&prog, None, &VerifyConfig::default());
        assert!(v.admitted(), "diags: {:?}", v.diagnostics);
        let bound = v.step_bound.expect("bounded");
        let env = crate::testenv::MockEnv::new();
        let mut ctx = crate::exec::ExecCtx::new(&env, u64::MAX);
        let image = crate::vm::verify(&prog).expect("structurally sound");
        crate::vm::execute(&image, &mut ctx).expect("runs");
        let steps = ctx.finish().2.steps;
        assert!(bound >= steps, "bound {bound} < {steps} steps executed");
    }

    #[test]
    fn loop_without_increment_is_unbounded() {
        let prog = BytecodeProgram {
            code: vec![
                Insn::MovImm { dst: 6, imm: 0 },
                Insn::MovImm { dst: 7, imm: 0 },
                Insn::JmpImm {
                    cond: Cond::Lt,
                    lhs: 6,
                    imm: 10,
                    off: -2,
                },
                Insn::Exit,
            ],
            stack_slots: 0,
        };
        let v = verify_bytecode(&prog, None, &VerifyConfig::default());
        assert!(!v.admitted());
        assert!(v.diagnostics.iter().any(|d| d.lint == Lint::UnboundedLoop));
        assert_eq!(v.step_bound, None);
    }

    #[test]
    fn decrementing_induction_variable_is_unbounded() {
        let prog = BytecodeProgram {
            code: vec![
                Insn::MovImm { dst: 6, imm: 0 },
                Insn::AluImm {
                    op: AluOp::Add,
                    dst: 6,
                    imm: -1,
                },
                Insn::JmpImm {
                    cond: Cond::Lt,
                    lhs: 6,
                    imm: 10,
                    off: -2,
                },
                Insn::Exit,
            ],
            stack_slots: 0,
        };
        let v = verify_bytecode(&prog, None, &VerifyConfig::default());
        assert!(!v.admitted());
        assert!(v.diagnostics.iter().any(|d| d.lint == Lint::UnboundedLoop));
    }

    #[test]
    fn all_generated_loop_shapes_validate() {
        for src in [
            "SET(R1, SUBFLOWS.COUNT);",
            "SET(R1, Q.COUNT);",
            "IF (!Q.EMPTY) { SET(R1, 1); }",
            "SET(R1, SUBFLOWS.FILTER(s => s.RTT > 0).COUNT);",
            "SET(R1, SUBFLOWS.SUM(s => s.CWND));",
            "FOREACH (VAR s IN SUBFLOWS) { SET(R1, R1 + 1); }",
            "VAR s = SUBFLOWS.GET(0); IF (s != NULL) { SET(R1, s.RTT); }",
            "VAR best = SUBFLOWS.MIN(s => s.RTT); IF (best != NULL) { SET(R1, best.RTT); }",
            "VAR t = Q.TOP; IF (t != NULL) { SET(R1, t.SIZE); }",
            "FOREACH (VAR s IN SUBFLOWS.FILTER(x => x.CWND > 0)) { SET(R2, R2 + s.RTT); }",
        ] {
            let v = validated(src);
            assert!(v.admitted(), "{src}: {:?}", v.diagnostics);
            assert!(v.step_bound.is_some(), "{src}: loops not bounded");
        }
    }

    #[test]
    fn mutated_helper_code_is_a_miscompile() {
        // Swap the subflow-property read for a packet-property read: the
        // call site now violates both the typed signature (subflow handle
        // in a packet slot) and the certificate's property audit.
        let (hir, mut prog, debug, bound) = compile_parts(MIN_RTT);
        let mut mutated = false;
        for insn in &mut prog.code {
            if let Insn::Call {
                helper: helper @ Helper::SubflowProp,
                ..
            } = insn
            {
                *helper = Helper::PacketProp;
                mutated = true;
                break;
            }
        }
        assert!(mutated, "min-rtt reads a subflow property");
        let v = validate_translation(&prog, &debug, &hir, bound, &VerifyConfig::default());
        assert!(!v.admitted());
        assert!(
            v.diagnostics
                .iter()
                .any(|d| d.lint == Lint::Miscompile && d.message.contains("property")),
            "{:?}",
            v.diagnostics
        );
    }

    #[test]
    fn mutated_loop_increment_is_a_miscompile_with_span() {
        // Turn a loop increment into a no-op: the loop no longer
        // terminates, which translation validation must catch, anchored
        // to a real source span.
        let (hir, prog, debug, bound) = compile_parts(MIN_RTT);
        let mut found = false;
        for pc in 0..prog.code.len() {
            let mut mutated = prog.clone();
            if let Insn::AluImm {
                op: AluOp::Add,
                imm: imm @ 1,
                ..
            } = &mut mutated.code[pc]
            {
                *imm = 0;
            } else {
                continue;
            }
            let v = validate_translation(&mutated, &debug, &hir, bound, &VerifyConfig::default());
            if !v.admitted() {
                let mis = v
                    .diagnostics
                    .iter()
                    .find(|d| d.lint == Lint::Miscompile)
                    .expect("rejection is paired with a miscompile diagnostic");
                assert!(
                    mis.pos.line > 0,
                    "miscompile carries a source span: {mis:?}"
                );
                found = true;
            }
        }
        assert!(found, "at least one increment nop is caught");
    }

    #[test]
    fn a_walk_skipping_on_another_register_is_a_miscompile() {
        // Re-point the POP walk's NULL skip at the loop index: the walk no
        // longer tests the packet it fetched, so it is charged as a scan,
        // whose trips overrun the certificate.
        let (hir, prog, debug, bound) = compile_parts(MIN_RTT);
        let code = &prog.code;
        let pop = (code.iter())
            .position(|i| {
                matches!(
                    i,
                    Insn::Call {
                        helper: Helper::Pop,
                        ..
                    }
                )
            })
            .expect("a pop");
        let is_skip = |i: &Insn| {
            matches!(
                i,
                Insn::JmpImm {
                    imm: NULL_HANDLE,
                    ..
                }
            )
        };
        let skip = (0..pop)
            .rev()
            .find(|&pc| is_skip(&code[pc]))
            .expect("a skip");
        let index = (0..skip).rev().find_map(|pc| match code[pc] {
            Insn::Jmp { lhs, .. } => Some(lhs),
            _ => None,
        });
        let mut mutated = prog.clone();
        if let Insn::JmpImm { lhs, .. } = &mut mutated.code[skip] {
            *lhs = index.expect("the walk's exit test");
        }
        let v = validate_translation(&mutated, &debug, &hir, bound, &VerifyConfig::default());
        let mis = (v.diagnostics.iter())
            .find(|d| d.lint == Lint::Miscompile && d.message.contains("step bound"))
            .unwrap_or_else(|| panic!("{:?}", v.diagnostics));
        assert!(
            mis.pos.line > 0,
            "miscompile carries a source span: {mis:?}"
        );
    }

    #[test]
    fn extra_pop_call_is_a_miscompile() {
        let (hir, prog, debug, bound) = compile_parts("SET(R1, SUBFLOWS.COUNT);");
        let mut mutated = prog.clone();
        // Replace the trailing exit's predecessor chain: inject a Pop on
        // a fresh packet-producing call sequence at the end by rewriting
        // the final Exit into Call Pop is invalid (arity); instead swap a
        // SubflowCount call for Pop-like DropPkt to disturb counts.
        for insn in &mut mutated.code {
            if let Insn::Call {
                helper: helper @ Helper::SubflowCount,
                ..
            } = insn
            {
                *helper = Helper::DropPkt;
                break;
            }
        }
        let v = validate_translation(&mutated, &debug, &hir, bound, &VerifyConfig::default());
        assert!(!v.admitted());
        assert!(
            v.diagnostics
                .iter()
                .any(|d| d.lint == Lint::Miscompile && d.message.contains("DropPkt")),
            "{:?}",
            v.diagnostics
        );
    }

    #[test]
    fn structural_failure_surfaces_as_miscompile() {
        let prog = BytecodeProgram {
            code: vec![Insn::Ja { off: 99 }, Insn::Exit],
            stack_slots: 0,
        };
        let v = verify_bytecode(&prog, None, &VerifyConfig::default());
        assert!(!v.admitted());
        assert!(v
            .diagnostics
            .iter()
            .any(|d| d.lint == Lint::Miscompile && d.message.contains("structural")));
        assert_eq!(v.step_bound, None);
        // No abstract states to annotate: the listing is the plain
        // disassembly.
        assert_eq!(
            annotated_listing(&prog, None, &VerifyConfig::default()),
            prog.disassemble()
        );
    }

    #[test]
    fn listing_is_rendered_on_demand_and_repeatable() {
        let (_, prog, debug, _) = compile_parts(MIN_RTT);
        let cfg = VerifyConfig::default();
        let first = annotated_listing(&prog, Some(&debug), &cfg);
        assert_eq!(first, annotated_listing(&prog, Some(&debug), &cfg));
        assert_eq!(first.lines().count(), prog.code.len());
        // Without a side table the spans go, the states stay.
        let bare = annotated_listing(&prog, None, &cfg);
        assert!(!bare.contains("; 1:") && bare.contains("r1="), "{bare}");
    }

    #[test]
    fn abs_val_join_meets_the_sparse_kernel_conditions() {
        // `flow`'s module docs: the solver skips a location whose value
        // already covers the incoming one, which is exact only if a join
        // covers what it joined, keeps covering it through later joins
        // and widenings, and is idempotent.
        let prog = BytecodeProgram {
            code: vec![Insn::Exit],
            stack_slots: 0,
        };
        let cfg = VerifyConfig::default();
        let lattice = run(&prog, None, &cfg, false);
        let join = |a, b, w| Domain::join(&lattice, a, b, w);
        let s = |lo, hi| AbsVal::Scalar(Interval::new(lo, hi));
        let h = |k, n| AbsVal::Handle(k, n);
        let samples = [
            AbsVal::Uninit,
            AbsVal::Mixed,
            AbsVal::Null,
            s(0, 0),
            s(-1, 5),
            s(3, 9),
            s(i64::MIN, 0),
            s(i64::MIN, i64::MAX),
            h(HandleKind::Subflow, Nullability::NonNull),
            h(HandleKind::Subflow, Nullability::Null),
            h(HandleKind::Subflow, Nullability::MaybeNull),
            h(HandleKind::Packet, Nullability::NonNull),
            h(HandleKind::Packet, Nullability::MaybeNull),
        ];
        for a in samples {
            for w in [false, true] {
                assert_eq!(join(a, a, w), a, "idempotent: {a:?}");
            }
            for x in samples {
                for (w1, w2, w3) in [
                    (false, false, false),
                    (true, true, true),
                    (false, true, false),
                    (true, false, true),
                ] {
                    let covering = join(a, x, w1);
                    assert_eq!(join(covering, x, w2), covering, "{a:?} then {x:?}");
                    for y in samples {
                        let later = join(covering, y, w2);
                        assert_eq!(join(later, x, w3), later, "{a:?}, {x:?}, {y:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn null_refinement_tracks_handle_nullability() {
        // `VAR s = SUBFLOWS.GET(0); IF (s != NULL) { s.PUSH(Q.POP()); }`
        // The push target is NonNull on the guarded path: no signature
        // issues, admitted.
        let src = "VAR s = SUBFLOWS.GET(0);
             IF (s != NULL AND !Q.EMPTY) { s.PUSH(Q.POP()); }";
        let v = validated(src);
        assert!(v.admitted(), "diags: {:?}", v.diagnostics);
        let listing = listing(src);
        assert!(listing.contains("sbf"), "{listing}");
    }

    /// A diamond that leaves a subflow handle in r7 on one arm and the
    /// scalar 5 on the other, then adds 1 to r7. `handle_first` puts the
    /// handle arm at the lower pcs.
    fn mixed_diamond(handle_first: bool) -> BytecodeProgram {
        let handle = Insn::Mov { dst: 7, src: 6 };
        let scalar = Insn::MovImm { dst: 7, imm: 5 };
        let (lower, upper) = if handle_first {
            (handle, scalar)
        } else {
            (scalar, handle)
        };
        BytecodeProgram {
            code: vec![
                call(Helper::SubflowAt, 6, Operand::Imm(0)),
                call(Helper::GetReg, 0, Operand::Imm(0)),
                Insn::JmpImm {
                    cond: Cond::Eq,
                    lhs: 0,
                    imm: 0,
                    off: 2,
                }, // 2 -> 3 | 5
                lower,               // 3
                Insn::Ja { off: 1 }, // 4 -> 6
                upper,               // 5
                Insn::AluImm {
                    op: AluOp::Add,
                    dst: 7,
                    imm: 1,
                }, // 6
                Insn::Exit,
            ],
            stack_slots: 0,
        }
    }

    #[test]
    fn arithmetic_on_a_handle_from_either_arm_is_rejected() {
        for handle_first in [true, false] {
            let prog = mixed_diamond(handle_first);
            let v = verify_bytecode(&prog, None, &VerifyConfig::default());
            assert!(
                v.diagnostics
                    .iter()
                    .any(|d| d.lint == Lint::HandleArith && d.message.starts_with("pc 6:")),
                "handle arm first: {handle_first}: {:?}",
                v.diagnostics
            );
            let listing = annotated_listing(&prog, None, &VerifyConfig::default());
            assert!(listing.contains("r7=mixed"), "{listing}");
        }
    }

    /// The analyzer with its kind checks run on every state the kernel
    /// visits, not only on the final rows.
    struct EveryVisit<'a>(Analyzer<'a>);

    impl Domain for EveryVisit<'_> {
        type Val = AbsVal;

        fn width(&self) -> usize {
            self.0.width()
        }

        fn entry(&self, row: &mut [AbsVal]) {
            self.0.entry(row)
        }

        fn transfer(&mut self, pc: usize, st: &[AbsVal], out: &mut Edges<AbsVal>) {
            self.0.check(pc, st);
            self.0.transfer(pc, st, out)
        }

        fn join(&self, old: AbsVal, new: AbsVal, widen: bool) -> AbsVal {
            self.0.join(old, new, widen)
        }
    }

    /// The shipped images, then `mutants` seeded in-place mutants of
    /// them, each with one register operand or destination redirected.
    fn shipped_and_mutants(mutants: u64) -> Vec<BytecodeProgram> {
        let mut images: Vec<BytecodeProgram> = (progmp_schedulers::sources::ALL.iter())
            .map(|(name, src)| {
                let p = crate::compile_named(Some(name), src).expect(name);
                BytecodeProgram::clone(p.bytecode())
            })
            .collect();
        let shipped = images.len();
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = |below: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % below as u64) as usize
        };
        for seed in 0..mutants {
            let mut image = images[seed as usize % shipped].clone();
            let r = draw(10) as u8;
            let pc = draw(image.code.len());
            match &mut image.code[pc] {
                Insn::Mov { src: x, .. }
                | Insn::Alu { src: x, .. }
                | Insn::St { src: x, .. }
                | Insn::Jmp { rhs: x, .. }
                | Insn::JmpImm { lhs: x, .. }
                | Insn::MovImm { dst: x, .. }
                | Insn::Ld { dst: x, .. }
                | Insn::AluImm { dst: x, .. }
                | Insn::Neg { dst: x }
                | Insn::Call { dst: x, .. } => *x = r,
                Insn::Ja { .. } | Insn::Exit => {}
            }
            images.push(image);
        }
        images
    }

    #[test]
    fn findings_are_a_function_of_the_final_rows() {
        let cfg = VerifyConfig::default();
        let kind_lints = [Lint::UninitRead, Lint::HandleArith, Lint::HelperSignature];
        let mut with_findings = 0;
        for image in shipped_and_mutants(200) {
            let analyzed = run(&image, None, &cfg, false);
            let Some(rows) = analyzed
                .structural_error
                .is_none()
                .then_some(&analyzed.states)
            else {
                continue;
            };
            // The rows are a fixpoint: every feasible edge out of a row
            // lands on a row that already covers it.
            let mut fresh = run(&image, None, &cfg, false);
            fresh.findings.clear();
            let mut edges = Edges::default();
            for pc in 0..image.code.len() {
                let Some(row) = rows.before(pc) else { continue };
                edges.clear();
                fresh.transfer(pc, row, &mut edges);
                for (target, writes) in edges.iter() {
                    let mut new = row.to_vec();
                    for &(loc, v) in writes {
                        new[loc] = v;
                    }
                    let at = rows.before(target).expect("an edge reaches its target");
                    assert!(
                        at.iter().zip(&new).all(|(a, x)| a.join(*x) == *a),
                        "pc {pc}"
                    );
                }
                // A fresh pass over the final rows.
                fresh.check(pc, row);
            }
            let reported: BTreeSet<_> = (analyzed.findings.iter())
                .filter(|(_, lint, _)| kind_lints.contains(lint))
                .cloned()
                .collect();
            assert_eq!(reported, fresh.findings, "{}", image.disassemble());
            with_findings += usize::from(!reported.is_empty());

            // No state the kernel visits on the way flags a pc the final
            // rows leave clean.
            let mut every = EveryVisit(run(&image, None, &cfg, false));
            every.0.findings.clear();
            flow::solve(&mut every, image.code.len());
            for (pc, _, message) in &every.0.findings {
                assert!(
                    reported.iter().any(|(at, _, _)| at == pc),
                    "pc {pc}: {message}"
                );
            }
        }
        assert!(
            with_findings >= 50,
            "only {with_findings} images with findings"
        );
    }
}
