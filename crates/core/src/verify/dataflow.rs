//! The forward abstract interpreter over the HIR.
//!
//! One abstract state per program point tracks an interval per register
//! and integer slot, a [`Nullability`] per reference slot, an
//! [`Emptiness`] per builtin queue and per aggregate-typed slot view, and
//! an interval for the subflow count. `IF` conditions refine the
//! branch-local states (null checks, emptiness guards, integer
//! comparisons — including through `NOT`/`AND`/`OR` and across
//! variable-held queue views); `FOREACH` bodies run to a join/widen
//! fixpoint. Diagnostics are collected in a single final pass over the
//! stable states so fixpoint iteration never duplicates findings.
//!
//! Soundness conventions: any `POP`/`DROP` downgrades every `NonEmpty`
//! fact to `Unknown` and clears reference origins (a removal may empty
//! any view); `Empty` facts persist because executions never add packets
//! to views; `RETURN` makes the state unreachable so joins ignore
//! returned branches.

use crate::ast::{BinOp, UnOp};
use crate::env::{QueueKind, SubflowProp, NUM_REGISTERS};
use crate::hir::{ExprId, HExpr, HProgram, HStmt, StmtId, VarSlot, ViewBase};
use crate::types::Type;

use super::diag::{Diagnostic, Lint, Severity};
use super::domain::{Emptiness, Interval, Nullability, Tri};

/// Where a reference value was drawn from, for guard back-propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Origin {
    /// The aggregate expression the reference came out of.
    agg: ExprId,
    /// True when `NULL`-ness is equivalent to view emptiness
    /// (`TOP`/`MIN`/`MAX`); false when only non-`NULL` implies non-empty
    /// (`GET`, whose `NULL` can also mean out-of-range).
    iff_empty: bool,
}

/// Abstract value of one expression.
#[derive(Debug, Clone, Copy)]
pub(super) enum AbsVal {
    Int(Interval),
    Ref {
        null: Nullability,
        origin: Option<Origin>,
    },
    Agg,
}

impl AbsVal {
    pub(super) fn interval(self) -> Interval {
        match self {
            AbsVal::Int(iv) => iv,
            _ => Interval::TOP,
        }
    }

    pub(super) fn nullability(self) -> Nullability {
        match self {
            AbsVal::Ref { null, .. } => null,
            _ => Nullability::MaybeNull,
        }
    }

    fn origin(self) -> Option<Origin> {
        match self {
            AbsVal::Ref { origin, .. } => origin,
            _ => None,
        }
    }
}

/// Per-slot abstract facts; which fields are meaningful depends on the
/// slot's static type.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct SlotAbs {
    /// Int/bool slots: value range (bools as `[0, 1]`).
    int: Interval,
    /// Reference slots: nullability.
    null: Nullability,
    /// Reference slots: provenance for guard back-propagation.
    origin: Option<Origin>,
    /// Aggregate slots: tracked emptiness of the view.
    empty: Emptiness,
}

impl Default for SlotAbs {
    fn default() -> Self {
        SlotAbs {
            int: Interval::TOP,
            null: Nullability::MaybeNull,
            origin: None,
            empty: Emptiness::Unknown,
        }
    }
}

impl SlotAbs {
    fn join(&self, other: &SlotAbs) -> SlotAbs {
        SlotAbs {
            int: self.int.join(other.int),
            null: self.null.join(other.null),
            origin: if self.origin == other.origin {
                self.origin
            } else {
                None
            },
            empty: self.empty.join(other.empty),
        }
    }
}

/// The abstract machine state at one program point.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct AbsState {
    /// False once every path to this point has returned.
    pub(super) reachable: bool,
    pub(super) regs: [Interval; NUM_REGISTERS],
    pub(super) slots: Vec<SlotAbs>,
    pub(super) queues: [Emptiness; 3],
    /// Range of `SUBFLOWS.COUNT` (constant during one execution).
    pub(super) subflow_count: Interval,
}

impl AbsState {
    pub(super) fn initial(prog: &HProgram) -> AbsState {
        AbsState {
            reachable: true,
            regs: [Interval::TOP; NUM_REGISTERS],
            slots: vec![SlotAbs::default(); prog.n_slots],
            queues: [Emptiness::Unknown; 3],
            subflow_count: Interval::new(0, i64::MAX),
        }
    }

    pub(super) fn join(&self, other: &AbsState) -> AbsState {
        if !self.reachable {
            return other.clone();
        }
        if !other.reachable {
            return self.clone();
        }
        let mut regs = [Interval::TOP; NUM_REGISTERS];
        for (i, r) in regs.iter_mut().enumerate() {
            *r = self.regs[i].join(other.regs[i]);
        }
        AbsState {
            reachable: true,
            regs,
            slots: self
                .slots
                .iter()
                .zip(&other.slots)
                .map(|(a, b)| a.join(b))
                .collect(),
            queues: [
                self.queues[0].join(other.queues[0]),
                self.queues[1].join(other.queues[1]),
                self.queues[2].join(other.queues[2]),
            ],
            subflow_count: self.subflow_count.join(other.subflow_count),
        }
    }

    /// Widens `next` relative to `self` (applied after a few fixpoint
    /// iterations so interval growth terminates).
    fn widen(&self, next: &AbsState) -> AbsState {
        if !self.reachable || !next.reachable {
            return next.clone();
        }
        let mut out = next.clone();
        for i in 0..NUM_REGISTERS {
            out.regs[i] = self.regs[i].widen(next.regs[i]);
        }
        for (o, (a, b)) in out.slots.iter_mut().zip(self.slots.iter().zip(&next.slots)) {
            o.int = a.int.widen(b.int);
        }
        out.subflow_count = self.subflow_count.widen(next.subflow_count);
        out
    }

    /// A `POP` or `DROP` happened: any view may have lost its last packet.
    /// `Empty` persists (views never gain packets); `NonEmpty` facts and
    /// reference origins are no longer trustworthy. Subflow facts survive
    /// (the subflow set is constant during an execution).
    pub(super) fn invalidate_removal(&mut self, prog: &HProgram) {
        for q in &mut self.queues {
            if *q == Emptiness::NonEmpty {
                *q = Emptiness::Unknown;
            }
        }
        for (i, s) in self.slots.iter_mut().enumerate() {
            if prog.slot_ty[i] == Type::PacketQueue && s.empty == Emptiness::NonEmpty {
                s.empty = Emptiness::Unknown;
            }
            s.origin = None;
        }
    }
}

/// The availability conjuncts of [`crate::verify::props::subflow_available`],
/// one bit each: `!TSQ_THROTTLED`, `!LOSSY`, `CWND > SKBS_IN_FLIGHT +
/// QUEUED`.
const AVAIL_TSQ: u8 = 1;
const AVAIL_LOSSY: u8 = 2;
const AVAIL_CWND: u8 = 4;
const AVAIL_ALL: u8 = AVAIL_TSQ | AVAIL_LOSSY | AVAIL_CWND;

/// Plain joins of one `FOREACH` body before its state is widened (the HIR
/// interpreter's own threshold; the bytecode kernel widens along back
/// edges instead, see `crate::flow`).
const FOREACH_WIDEN_AFTER: usize = 4;
const MAX_LOOP_ITERS: usize = 1000;

/// One `POP` the collecting pass reached: the `QueuePop` expression, the
/// view it pops and that view's emptiness there.
#[derive(Debug, Clone, Copy)]
pub(super) struct PopSite {
    pub(super) at: ExprId,
    pub(super) view: ExprId,
    pub(super) emptiness: Emptiness,
}

/// Runs the abstract interpreter once: the diagnostics it collected and
/// the `POP` sites it classified, in evaluation order.
pub(super) fn run(prog: &HProgram) -> (Vec<Diagnostic>, Vec<PopSite>) {
    let mut a = Analyzer::quiet(prog);
    a.collect = true;
    let mut st = AbsState::initial(prog);
    a.exec_block(&mut st, &prog.body);
    (a.diags, a.pops)
}

pub(super) struct Analyzer<'a> {
    prog: &'a HProgram,
    /// The lints of the collecting pass (see `collect`).
    diags: Vec<Diagnostic>,
    /// Every `POP` of the collecting pass with its view's emptiness: the
    /// one classification behind both the `pop-empty` / `pop-maybe-empty`
    /// lints and the reinjection-safety certificate.
    pops: Vec<PopSite>,
    /// Whether lints and `POP` sites are recorded: off in a `FOREACH`
    /// fixpoint's iterations, in refinements and in `quiet` analyzers,
    /// so each site is recorded once, against its stable state.
    collect: bool,
    /// Assume at least one *available* subflow exists (`!TSQ_THROTTLED`,
    /// `!LOSSY`, and congestion-window room): the work-conservation
    /// precondition witness, set by `super::props`.
    pub(super) assume_avail: bool,
    /// Assume no subflow is *available*: a `SUBFLOWS` view whose filter
    /// chain carries all three availability conjuncts is empty (the
    /// `NO_WINDOW` quiescence atom, set by `super::props`).
    pub(super) assume_no_window: bool,
    /// A quiescence pass: a `FOREACH` over a provably empty view runs no
    /// iteration, and reaching an effect (a `SET`, a `DROP` of a
    /// possibly non-`NULL` packet, a `PUSH` whose operands may both be
    /// non-`NULL`) sets `effect_reached` and ends the pass.
    pub(super) quiescence: bool,
    /// Set once a quiescence pass reaches an effect.
    pub(super) effect_reached: bool,
}

impl<'a> Analyzer<'a> {
    /// A muted analyzer for the property verifier (`super::props`): it
    /// reuses the transfer functions and guard refinement but records
    /// no diagnostic and no `POP` site ([`run`] is the collecting pass).
    pub(super) fn quiet(prog: &'a HProgram) -> Analyzer<'a> {
        Analyzer {
            prog,
            diags: Vec::new(),
            pops: Vec::new(),
            collect: false,
            assume_avail: false,
            assume_no_window: false,
            quiescence: false,
            effect_reached: false,
        }
    }

    fn emit(&mut self, lint: Lint, severity: Severity, at: ExprId, message: String) {
        if self.collect {
            self.diags.push(Diagnostic {
                lint,
                severity,
                pos: self.prog.expr_pos(at),
                message,
            });
        }
    }

    fn emit_stmt(&mut self, lint: Lint, severity: Severity, at: StmtId, message: String) {
        if self.collect {
            self.diags.push(Diagnostic {
                lint,
                severity,
                pos: self.prog.stmt_pos(at),
                message,
            });
        }
    }

    pub(super) fn exec_block(&mut self, st: &mut AbsState, body: &[StmtId]) {
        for &sid in body {
            if !st.reachable || self.effect_reached {
                return;
            }
            self.exec_stmt(st, sid);
        }
    }

    /// Records, in a quiescence pass, that an effect is reachable.
    fn effect(&mut self) {
        self.effect_reached |= self.quiescence;
    }

    pub(super) fn exec_stmt(&mut self, st: &mut AbsState, sid: StmtId) {
        match self.prog.stmt(sid).clone() {
            HStmt::VarDecl { slot, init } => {
                let v = self.eval(st, init);
                let ty = self.prog.slot_ty[slot.0 as usize];
                match v {
                    AbsVal::Int(iv) => st.slots[slot.0 as usize].int = iv,
                    AbsVal::Ref { null, origin } => {
                        let s = &mut st.slots[slot.0 as usize];
                        s.null = null;
                        s.origin = origin;
                    }
                    AbsVal::Agg => {}
                }
                if ty.is_aggregate() {
                    st.slots[slot.0 as usize].empty = self.view_emptiness(st, init);
                }
            }
            HStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let _ = self.eval(st, cond); // collect condition lints once
                let mut then_st = st.clone();
                self.refine(&mut then_st, cond, true);
                if !then_st.reachable && !then_body.is_empty() {
                    self.emit_stmt(
                        Lint::DeadBranch,
                        Severity::Warning,
                        sid,
                        "then-branch can never execute: the condition is provably false".into(),
                    );
                }
                self.exec_block(&mut then_st, &then_body);
                let mut else_st = st.clone();
                self.refine(&mut else_st, cond, false);
                if !else_st.reachable && !else_body.is_empty() {
                    self.emit_stmt(
                        Lint::DeadBranch,
                        Severity::Warning,
                        sid,
                        "else-branch can never execute: the condition is provably true".into(),
                    );
                }
                self.exec_block(&mut else_st, &else_body);
                *st = then_st.join(&else_st);
            }
            HStmt::Foreach { slot, list, body } => {
                let _ = self.eval(st, list);
                if self.quiescence && self.view_emptiness(st, list) == Emptiness::Empty {
                    return;
                }
                // Fixpoint over 0..n iterations, lints muted.
                let was_collecting = self.collect;
                self.collect = false;
                let mut cur = st.clone();
                for i in 0..MAX_LOOP_ITERS {
                    let mut s = cur.clone();
                    s.slots[slot.0 as usize] = SlotAbs {
                        null: Nullability::NonNull,
                        ..SlotAbs::default()
                    };
                    self.exec_block(&mut s, &body);
                    let joined = cur.join(&s);
                    let next = if i >= FOREACH_WIDEN_AFTER {
                        cur.widen(&joined)
                    } else {
                        joined
                    };
                    if next == cur {
                        break;
                    }
                    cur = next;
                }
                self.collect = was_collecting;
                // One collecting pass over the stable pre-state.
                let mut s = cur.clone();
                s.slots[slot.0 as usize] = SlotAbs {
                    null: Nullability::NonNull,
                    ..SlotAbs::default()
                };
                self.exec_block(&mut s, &body);
                *st = cur.join(&s);
            }
            HStmt::SetReg { reg, value } => {
                st.regs[reg.index()] = self.eval(st, value).interval();
                self.effect();
            }
            HStmt::Push { target, packet } => {
                let t = self.eval(st, target);
                match t.nullability() {
                    Nullability::Null => self.emit(
                        Lint::PushNull,
                        Severity::Error,
                        target,
                        "PUSH target subflow is provably NULL: the statement can never \
                         schedule anything"
                            .into(),
                    ),
                    Nullability::MaybeNull => self.emit(
                        Lint::PushMaybeNull,
                        Severity::Info,
                        target,
                        "PUSH target subflow may be NULL (the push becomes a no-op)".into(),
                    ),
                    Nullability::NonNull => {}
                }
                let p = self.eval(st, packet);
                match p.nullability() {
                    Nullability::Null => self.emit(
                        Lint::PushNull,
                        Severity::Error,
                        packet,
                        "pushed packet is provably NULL: the statement can never schedule \
                         anything"
                            .into(),
                    ),
                    Nullability::MaybeNull => self.emit(
                        Lint::PushMaybeNull,
                        Severity::Info,
                        packet,
                        "pushed packet may be NULL (the push becomes a no-op)".into(),
                    ),
                    Nullability::NonNull => {}
                }
                if t.nullability() != Nullability::Null && p.nullability() != Nullability::Null {
                    self.effect();
                }
            }
            HStmt::Drop { packet } => {
                let p = self.eval(st, packet);
                if p.nullability() != Nullability::Null {
                    st.invalidate_removal(self.prog);
                    self.effect();
                }
            }
            HStmt::Return => st.reachable = false,
        }
    }

    /// Evaluates `id` abstractly, collecting lints and applying `POP`
    /// side effects to `st`.
    fn eval(&mut self, st: &mut AbsState, id: ExprId) -> AbsVal {
        match self.prog.expr(id).clone() {
            HExpr::Int(v) => AbsVal::Int(Interval::exact(v)),
            HExpr::Bool(b) => AbsVal::Int(Interval::exact(i64::from(b))),
            HExpr::NullPacket | HExpr::NullSubflow => AbsVal::Ref {
                null: Nullability::Null,
                origin: None,
            },
            HExpr::ReadReg(r) => AbsVal::Int(st.regs[r.index()]),
            HExpr::ReadVar(slot) => {
                let s = &st.slots[slot.0 as usize];
                match self.prog.slot_ty[slot.0 as usize] {
                    Type::Int | Type::Bool => AbsVal::Int(s.int),
                    Type::Packet | Type::Subflow => AbsVal::Ref {
                        null: s.null,
                        origin: s.origin,
                    },
                    Type::SubflowList | Type::PacketQueue => AbsVal::Agg,
                }
            }
            HExpr::Subflows | HExpr::Queue(_) => AbsVal::Agg,
            HExpr::SubflowProp { sbf, prop } => {
                let v = self.eval(st, sbf);
                self.lint_null_access(sbf, v.nullability(), &format!("property {}", prop.name()));
                if prop.is_bool() {
                    AbsVal::Int(Interval::BOOL)
                } else {
                    AbsVal::Int(Interval::TOP)
                }
            }
            HExpr::PacketProp { pkt, prop } => {
                let v = self.eval(st, pkt);
                self.lint_null_access(pkt, v.nullability(), &format!("property {}", prop.name()));
                AbsVal::Int(Interval::TOP)
            }
            HExpr::SentOn { pkt, sbf } => {
                let p = self.eval(st, pkt);
                self.lint_null_access(pkt, p.nullability(), "SENT_ON");
                let s = self.eval(st, sbf);
                self.lint_null_access(sbf, s.nullability(), "SENT_ON");
                AbsVal::Int(Interval::BOOL)
            }
            HExpr::HasWindowFor { sbf, pkt } => {
                let s = self.eval(st, sbf);
                self.lint_null_access(sbf, s.nullability(), "HAS_WINDOW_FOR");
                let p = self.eval(st, pkt);
                self.lint_null_access(pkt, p.nullability(), "HAS_WINDOW_FOR");
                AbsVal::Int(Interval::BOOL)
            }
            HExpr::ListFilter { list, var, pred }
            | HExpr::QueueFilter {
                queue: list,
                var,
                pred,
            } => {
                let _ = self.eval(st, list);
                self.eval_lambda(st, var, pred);
                AbsVal::Agg
            }
            HExpr::ListMinMax { list, var, key, .. } => {
                let _ = self.eval(st, list);
                self.eval_lambda(st, var, key);
                self.ref_from_view(st, id, list, true)
            }
            HExpr::QueueMinMax {
                queue, var, key, ..
            } => {
                let _ = self.eval(st, queue);
                self.eval_lambda(st, var, key);
                self.ref_from_view(st, id, queue, true)
            }
            HExpr::ListSum { list, var, key }
            | HExpr::QueueSum {
                queue: list,
                var,
                key,
            } => {
                let _ = self.eval(st, list);
                self.eval_lambda(st, var, key);
                AbsVal::Int(Interval::TOP)
            }
            HExpr::ListCount(e) | HExpr::QueueCount(e) => {
                let _ = self.eval(st, e);
                AbsVal::Int(self.count_interval(st, e))
            }
            HExpr::ListEmpty(e) | HExpr::QueueEmpty(e) => {
                let _ = self.eval(st, e);
                let tri = match self.view_emptiness(st, e) {
                    Emptiness::Empty => Tri::True,
                    Emptiness::NonEmpty => Tri::False,
                    Emptiness::Unknown => Tri::Unknown,
                };
                AbsVal::Int(tri.interval())
            }
            HExpr::ListGet { list, index } => {
                let _ = self.eval(st, list);
                let _ = self.eval(st, index);
                let null = match self.view_emptiness(st, list) {
                    Emptiness::Empty => Nullability::Null,
                    // A non-empty list still yields NULL out of range.
                    _ => Nullability::MaybeNull,
                };
                AbsVal::Ref {
                    null,
                    origin: Some(Origin {
                        agg: list,
                        iff_empty: false,
                    }),
                }
            }
            HExpr::QueueTop(e) => {
                let _ = self.eval(st, e);
                self.ref_from_view(st, id, e, true)
            }
            HExpr::QueuePop(e) => {
                let _ = self.eval(st, e);
                let emptiness = self.view_emptiness(st, e);
                if self.collect {
                    self.pops.push(PopSite {
                        at: id,
                        view: e,
                        emptiness,
                    });
                }
                match emptiness {
                    Emptiness::Empty => self.emit(
                        Lint::PopEmpty,
                        Severity::Error,
                        id,
                        "POP from a provably-empty queue view always yields NULL".into(),
                    ),
                    Emptiness::Unknown => self.emit(
                        Lint::PopMaybeEmpty,
                        Severity::Info,
                        id,
                        "POP from a possibly-empty queue view (yields NULL when empty)".into(),
                    ),
                    Emptiness::NonEmpty => {}
                }
                let null = match emptiness {
                    Emptiness::Empty => Nullability::Null,
                    Emptiness::NonEmpty => Nullability::NonNull,
                    Emptiness::Unknown => Nullability::MaybeNull,
                };
                st.invalidate_removal(self.prog);
                // No origin: after the removal the view may be empty even
                // though the popped packet was non-NULL.
                AbsVal::Ref { null, origin: None }
            }
            HExpr::Unary { op, expr } => {
                let v = self.eval(st, expr).interval();
                match op {
                    UnOp::Not => AbsVal::Int(Tri::from_interval(v).not().interval()),
                    UnOp::Neg => AbsVal::Int(v.neg()),
                }
            }
            HExpr::Binary {
                op,
                lhs,
                rhs,
                operand_ty,
            } => self.eval_binary(st, op, lhs, rhs, operand_ty),
        }
    }

    /// Binds a lambda slot to a non-`NULL` element and evaluates its body
    /// once (for lint collection inside predicates and keys).
    fn eval_lambda(&mut self, st: &mut AbsState, var: VarSlot, body: ExprId) {
        st.slots[var.0 as usize] = SlotAbs {
            null: Nullability::NonNull,
            ..SlotAbs::default()
        };
        let _ = self.eval(st, body);
    }

    /// The reference produced by drawing an element out of view `view`
    /// (`TOP`/`MIN`/`MAX`): `NULL` iff the view is empty.
    fn ref_from_view(
        &mut self,
        st: &AbsState,
        _at: ExprId,
        view: ExprId,
        iff_empty: bool,
    ) -> AbsVal {
        let null = match self.view_emptiness(st, view) {
            Emptiness::Empty => Nullability::Null,
            Emptiness::NonEmpty => Nullability::NonNull,
            Emptiness::Unknown => Nullability::MaybeNull,
        };
        AbsVal::Ref {
            null,
            origin: Some(Origin {
                agg: view,
                iff_empty,
            }),
        }
    }

    fn lint_null_access(&mut self, at: ExprId, null: Nullability, what: &str) {
        match null {
            Nullability::Null => self.emit(
                Lint::NullPropAccess,
                Severity::Warning,
                at,
                format!("{what} is read from a provably-NULL reference (always yields 0/false)"),
            ),
            Nullability::MaybeNull => self.emit(
                Lint::NullPropAccess,
                Severity::Info,
                at,
                format!("{what} is read from a possibly-NULL reference (NULL reads yield 0)"),
            ),
            Nullability::NonNull => {}
        }
    }

    fn eval_binary(
        &mut self,
        st: &mut AbsState,
        op: BinOp,
        lhs: ExprId,
        rhs: ExprId,
        operand_ty: Type,
    ) -> AbsVal {
        let l = self.eval(st, lhs);
        let r = self.eval(st, rhs);
        if op.is_arith() {
            let (a, b) = (l.interval(), r.interval());
            if matches!(op, BinOp::Div | BinOp::Rem) {
                let what = if op == BinOp::Div {
                    "division"
                } else {
                    "modulo"
                };
                if b == Interval::exact(0) {
                    self.emit(
                        Lint::DivByZero,
                        Severity::Error,
                        rhs,
                        format!("{what} by a provably-zero divisor (always yields 0)"),
                    );
                } else if b.contains(0) {
                    self.emit(
                        Lint::DivMaybeZero,
                        Severity::Info,
                        rhs,
                        format!("{what} divisor may be zero (yields 0 in that case)"),
                    );
                }
            }
            let out = match op {
                BinOp::Add => a.add(b),
                BinOp::Sub => a.sub(b),
                BinOp::Mul => a.mul(b),
                BinOp::Div => a.div(b),
                BinOp::Rem => a.rem(b),
                _ => unreachable!("arith ops covered"),
            };
            return AbsVal::Int(out);
        }
        if op.is_logic() {
            let (a, b) = (
                Tri::from_interval(l.interval()),
                Tri::from_interval(r.interval()),
            );
            let out = match (op, a, b) {
                (BinOp::And, Tri::False, _) | (BinOp::And, _, Tri::False) => Tri::False,
                (BinOp::And, Tri::True, Tri::True) => Tri::True,
                (BinOp::Or, Tri::True, _) | (BinOp::Or, _, Tri::True) => Tri::True,
                (BinOp::Or, Tri::False, Tri::False) => Tri::False,
                _ => Tri::Unknown,
            };
            return AbsVal::Int(out.interval());
        }
        // Comparison.
        if operand_ty.is_nullable() {
            let tri = match (l.nullability(), r.nullability()) {
                (Nullability::Null, Nullability::Null) => Tri::True,
                (Nullability::Null, Nullability::NonNull)
                | (Nullability::NonNull, Nullability::Null) => Tri::False,
                _ => Tri::Unknown,
            };
            let tri = if op == BinOp::Ne { tri.not() } else { tri };
            return AbsVal::Int(tri.interval());
        }
        let (a, b) = (l.interval(), r.interval());
        let tri = match op {
            BinOp::Eq => a.eq_ab(b),
            BinOp::Ne => a.eq_ab(b).not(),
            BinOp::Lt => a.lt(b),
            BinOp::Le => a.le(b),
            BinOp::Gt => b.lt(a),
            BinOp::Ge => b.le(a),
            _ => unreachable!("comparison ops covered"),
        };
        AbsVal::Int(tri.interval())
    }

    /// Evaluates without collecting lints (used inside refinements so the
    /// same source construct is not reported twice).
    pub(super) fn eval_quiet(&mut self, st: &mut AbsState, id: ExprId) -> AbsVal {
        let was = self.collect;
        self.collect = false;
        let v = self.eval(st, id);
        self.collect = was;
        v
    }

    /// Emptiness of a queue- or list-view expression, combining tracked
    /// per-queue and per-slot facts through `FILTER` chains and aggregate
    /// variable reads.
    pub(super) fn view_emptiness(&self, st: &AbsState, e: ExprId) -> Emptiness {
        if self.assume_avail && self.avail_view(e) {
            // The availability witness is a member of every view filtered
            // only by conjuncts each available subflow satisfies.
            return Emptiness::NonEmpty;
        }
        if self.assume_no_window && self.unavail_view(e) {
            // Every member of this view would be available.
            return Emptiness::Empty;
        }
        match self.prog.expr(e) {
            HExpr::Queue(k) => st.queues[queue_index(*k)],
            HExpr::Subflows => {
                if st.subflow_count.hi == 0 {
                    Emptiness::Empty
                } else if st.subflow_count.lo >= 1 {
                    Emptiness::NonEmpty
                } else {
                    Emptiness::Unknown
                }
            }
            HExpr::QueueFilter { queue, .. } => match self.view_emptiness(st, *queue) {
                Emptiness::Empty => Emptiness::Empty,
                _ => Emptiness::Unknown,
            },
            HExpr::ListFilter { list, .. } => match self.view_emptiness(st, *list) {
                Emptiness::Empty => Emptiness::Empty,
                _ => Emptiness::Unknown,
            },
            HExpr::ReadVar(slot) => {
                let tracked = st.slots[slot.0 as usize].empty;
                let from_chain = self.prog.aggregate_init[slot.0 as usize]
                    .map(|init| self.view_emptiness(st, init))
                    .unwrap_or(Emptiness::Unknown);
                match (tracked, from_chain) {
                    (Emptiness::Empty, _) | (_, Emptiness::Empty) => Emptiness::Empty,
                    (Emptiness::NonEmpty, _) | (_, Emptiness::NonEmpty) => Emptiness::NonEmpty,
                    _ => Emptiness::Unknown,
                }
            }
            _ => Emptiness::Unknown,
        }
    }

    /// Range of `COUNT` over a view expression.
    fn count_interval(&self, st: &AbsState, e: ExprId) -> Interval {
        let base = match self.prog.expr(e) {
            HExpr::Subflows => st.subflow_count,
            HExpr::Queue(_) => Interval::new(0, i64::MAX),
            HExpr::ListFilter { list, .. } => {
                let inner = self.count_interval(st, *list);
                Interval::new(0, inner.hi)
            }
            HExpr::QueueFilter { queue, .. } => {
                let inner = self.count_interval(st, *queue);
                Interval::new(0, inner.hi)
            }
            HExpr::ReadVar(slot) => self.prog.aggregate_init[slot.0 as usize]
                .map(|init| self.count_interval(st, init))
                .unwrap_or(Interval::new(0, i64::MAX)),
            _ => Interval::new(0, i64::MAX),
        };
        // Tracked emptiness sharpens the bounds.
        match self.view_emptiness(st, e) {
            Emptiness::Empty => Interval::exact(0),
            Emptiness::NonEmpty => base.meet(Interval::new(1, i64::MAX)).unwrap_or(base),
            Emptiness::Unknown => base,
        }
    }

    /// Marks the view `e` (and whatever its non-emptiness implies) as
    /// non-empty.
    fn refine_view_nonempty(&mut self, st: &mut AbsState, e: ExprId) {
        match self.prog.expr(e).clone() {
            HExpr::Queue(k) => st.queues[queue_index(k)] = Emptiness::NonEmpty,
            HExpr::Subflows => match st.subflow_count.meet(Interval::new(1, i64::MAX)) {
                Some(iv) => st.subflow_count = iv,
                None => st.reachable = false,
            },
            // A non-empty filtered view implies a non-empty base.
            HExpr::QueueFilter { queue, .. } => self.refine_view_nonempty(st, queue),
            HExpr::ListFilter { list, .. } => self.refine_view_nonempty(st, list),
            HExpr::ReadVar(slot) => {
                if st.slots[slot.0 as usize].empty == Emptiness::Empty {
                    st.reachable = false;
                    return;
                }
                st.slots[slot.0 as usize].empty = Emptiness::NonEmpty;
                if let Some(init) = self.prog.aggregate_init[slot.0 as usize] {
                    self.refine_view_nonempty(st, init);
                }
            }
            _ => {}
        }
    }

    /// Marks the view `e` as empty. Does not propagate through filters
    /// (an empty filtered view says nothing about its base).
    fn refine_view_empty(&mut self, st: &mut AbsState, e: ExprId) {
        if self.assume_avail && self.avail_view(e) {
            // Contradiction with the availability witness.
            st.reachable = false;
            return;
        }
        match self.prog.expr(e).clone() {
            HExpr::Queue(k) => {
                if st.queues[queue_index(k)] == Emptiness::NonEmpty {
                    st.reachable = false;
                    return;
                }
                st.queues[queue_index(k)] = Emptiness::Empty;
            }
            HExpr::Subflows => match st.subflow_count.meet(Interval::exact(0)) {
                Some(iv) => st.subflow_count = iv,
                None => st.reachable = false,
            },
            HExpr::ReadVar(slot) => {
                if st.slots[slot.0 as usize].empty == Emptiness::NonEmpty {
                    st.reachable = false;
                    return;
                }
                st.slots[slot.0 as usize].empty = Emptiness::Empty;
                // The init chain is only refined when it has no filter: an
                // empty filtered view says nothing about the base.
                if let Some(init) = self.prog.aggregate_init[slot.0 as usize] {
                    if matches!(
                        self.prog.expr(init),
                        HExpr::Queue(_) | HExpr::Subflows | HExpr::ReadVar(_)
                    ) {
                        self.refine_view_empty(st, init);
                    }
                }
            }
            _ => {}
        }
    }

    /// Assumes the boolean expression `id` evaluates to `truth`, tightening
    /// `st` (or marking it unreachable on contradiction).
    pub(super) fn refine(&mut self, st: &mut AbsState, id: ExprId, truth: bool) {
        if !st.reachable {
            return;
        }
        // Contradiction with the abstract evaluation?
        match Tri::from_interval(self.eval_quiet(st, id).interval()) {
            Tri::True if !truth => {
                st.reachable = false;
                return;
            }
            Tri::False if truth => {
                st.reachable = false;
                return;
            }
            _ => {}
        }
        match self.prog.expr(id).clone() {
            HExpr::Unary {
                op: UnOp::Not,
                expr,
            } => self.refine(st, expr, !truth),
            HExpr::QueueEmpty(e) | HExpr::ListEmpty(e) => {
                if truth {
                    self.refine_view_empty(st, e);
                } else {
                    self.refine_view_nonempty(st, e);
                }
            }
            HExpr::ReadVar(slot) if self.prog.slot_ty[slot.0 as usize] == Type::Bool => {
                let want = Interval::exact(i64::from(truth));
                match st.slots[slot.0 as usize].int.meet(want) {
                    Some(iv) => st.slots[slot.0 as usize].int = iv,
                    None => st.reachable = false,
                }
            }
            HExpr::Binary {
                op,
                lhs,
                rhs,
                operand_ty,
            } => self.refine_binary(st, op, lhs, rhs, operand_ty, truth),
            _ => {}
        }
    }

    fn refine_binary(
        &mut self,
        st: &mut AbsState,
        op: BinOp,
        lhs: ExprId,
        rhs: ExprId,
        operand_ty: Type,
        truth: bool,
    ) {
        match op {
            BinOp::And => {
                if truth {
                    self.refine(st, lhs, true);
                    self.refine(st, rhs, true);
                } else {
                    // `!(a AND b)` pins a side only when the other is true.
                    if Tri::from_interval(self.eval_quiet(st, lhs).interval()) == Tri::True {
                        self.refine(st, rhs, false);
                    } else if Tri::from_interval(self.eval_quiet(st, rhs).interval()) == Tri::True {
                        self.refine(st, lhs, false);
                    }
                }
            }
            BinOp::Or => {
                if !truth {
                    self.refine(st, lhs, false);
                    self.refine(st, rhs, false);
                } else {
                    if Tri::from_interval(self.eval_quiet(st, lhs).interval()) == Tri::False {
                        self.refine(st, rhs, true);
                    } else if Tri::from_interval(self.eval_quiet(st, rhs).interval()) == Tri::False
                    {
                        self.refine(st, lhs, true);
                    }
                }
            }
            BinOp::Eq | BinOp::Ne if operand_ty.is_nullable() => {
                let lhs_is_null =
                    matches!(self.prog.expr(lhs), HExpr::NullPacket | HExpr::NullSubflow);
                let rhs_is_null =
                    matches!(self.prog.expr(rhs), HExpr::NullPacket | HExpr::NullSubflow);
                let other = match (lhs_is_null, rhs_is_null) {
                    (true, false) => rhs,
                    (false, true) => lhs,
                    _ => return,
                };
                let want_null = (op == BinOp::Eq) == truth;
                self.refine_ref_nullness(st, other, want_null);
            }
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
                if operand_ty == Type::Int =>
            {
                let a = self.eval_quiet(st, lhs).interval();
                let b = self.eval_quiet(st, rhs).interval();
                // Normalize to one of <, <=, ==, != that holds.
                let (op, flip) = match (op, truth) {
                    (BinOp::Lt, true) | (BinOp::Ge, false) => (BinOp::Lt, false),
                    (BinOp::Le, true) | (BinOp::Gt, false) => (BinOp::Le, false),
                    (BinOp::Gt, true) | (BinOp::Le, false) => (BinOp::Lt, true),
                    (BinOp::Ge, true) | (BinOp::Lt, false) => (BinOp::Le, true),
                    (BinOp::Eq, true) | (BinOp::Ne, false) => (BinOp::Eq, false),
                    (BinOp::Ne, true) | (BinOp::Eq, false) => (BinOp::Ne, false),
                    _ => return,
                };
                let (a, b) = if flip { (b, a) } else { (a, b) };
                let refined = match op {
                    BinOp::Lt => a.assume_lt(b),
                    BinOp::Le => a.assume_le(b),
                    BinOp::Eq => a.assume_eq(b),
                    BinOp::Ne => a.assume_ne(b),
                    _ => unreachable!("normalized above"),
                };
                let Some((ra, rb)) = refined else {
                    st.reachable = false;
                    return;
                };
                let (ra, rb) = if flip { (rb, ra) } else { (ra, rb) };
                self.write_back_interval(st, lhs, ra);
                self.write_back_interval(st, rhs, rb);
            }
            _ => {}
        }
    }

    /// Stores a refined interval back into the place `e` denotes, when it
    /// denotes one (register, int slot, or a view count).
    fn write_back_interval(&mut self, st: &mut AbsState, e: ExprId, iv: Interval) {
        match self.prog.expr(e).clone() {
            HExpr::ReadReg(r) => st.regs[r.index()] = iv,
            HExpr::ReadVar(slot)
                if matches!(self.prog.slot_ty[slot.0 as usize], Type::Int | Type::Bool) =>
            {
                st.slots[slot.0 as usize].int = iv;
            }
            HExpr::ListCount(view) | HExpr::QueueCount(view) => {
                if matches!(self.prog.expr(view), HExpr::Subflows) {
                    match st.subflow_count.meet(iv) {
                        Some(m) => st.subflow_count = m,
                        None => {
                            st.reachable = false;
                            return;
                        }
                    }
                }
                if iv.lo >= 1 {
                    self.refine_view_nonempty(st, view);
                } else if iv.hi <= 0 {
                    self.refine_view_empty(st, view);
                }
            }
            _ => {}
        }
    }

    /// True when `e` denotes a view the work-conservation availability
    /// witness guarantees non-empty: `SUBFLOWS` filtered only by
    /// conjuncts every *available* subflow satisfies.
    fn avail_view(&self, e: ExprId) -> bool {
        self.prog.view_chain(e).is_some_and(|chain| {
            chain.base == ViewBase::Subflows
                && chain
                    .filters
                    .iter()
                    .all(|&(var, pred)| self.avail_conjuncts(var, pred))
        })
    }

    /// The converse of [`Self::avail_view`]: true when `e` is a
    /// `SUBFLOWS` view whose filter chain carries all three availability
    /// conjuncts (in any order, alongside any others), so that every
    /// member is an available subflow.
    fn unavail_view(&self, e: ExprId) -> bool {
        self.prog.view_chain(e).is_some_and(|chain| {
            chain.base == ViewBase::Subflows
                && chain
                    .filters
                    .iter()
                    .fold(0, |found, &(var, pred)| found | self.avail_mask(var, pred))
                    == AVAIL_ALL
        })
    }

    /// True when every conjunct of the filter predicate `e` (over lambda
    /// variable `var`) is satisfied by an available subflow:
    /// `!TSQ_THROTTLED`, `!LOSSY`, or `CWND > SKBS_IN_FLIGHT + QUEUED`.
    fn avail_conjuncts(&self, var: VarSlot, e: ExprId) -> bool {
        match self.prog.expr(e) {
            HExpr::Binary {
                op: BinOp::And,
                lhs,
                rhs,
                ..
            } => self.avail_conjuncts(var, *lhs) && self.avail_conjuncts(var, *rhs),
            _ => self.avail_conjunct(var, e) != 0,
        }
    }

    /// The availability conjuncts among the top-level conjuncts of the
    /// filter predicate `e` over lambda variable `var`, as a bit set.
    fn avail_mask(&self, var: VarSlot, e: ExprId) -> u8 {
        match self.prog.expr(e) {
            HExpr::Binary {
                op: BinOp::And,
                lhs,
                rhs,
                ..
            } => self.avail_mask(var, *lhs) | self.avail_mask(var, *rhs),
            _ => self.avail_conjunct(var, e),
        }
    }

    /// Which availability conjunct the non-`AND` predicate `e` over
    /// lambda variable `var` is, as one bit; 0 for none.
    fn avail_conjunct(&self, var: VarSlot, e: ExprId) -> u8 {
        match self.prog.expr(e) {
            HExpr::Unary {
                op: UnOp::Not,
                expr,
            } => match self.prog.expr(*expr) {
                HExpr::SubflowProp {
                    sbf,
                    prop: SubflowProp::TsqThrottled,
                } if self.is_lambda_var(*sbf, var) => AVAIL_TSQ,
                HExpr::SubflowProp {
                    sbf,
                    prop: SubflowProp::Lossy,
                } if self.is_lambda_var(*sbf, var) => AVAIL_LOSSY,
                _ => 0,
            },
            HExpr::Binary {
                op: BinOp::Gt,
                lhs,
                rhs,
                ..
            } if self.is_cwnd(var, *lhs) && self.is_inflight_sum(var, *rhs) => AVAIL_CWND,
            HExpr::Binary {
                op: BinOp::Lt,
                lhs,
                rhs,
                ..
            } if self.is_inflight_sum(var, *lhs) && self.is_cwnd(var, *rhs) => AVAIL_CWND,
            _ => 0,
        }
    }

    fn is_lambda_var(&self, e: ExprId, var: VarSlot) -> bool {
        matches!(self.prog.expr(e), HExpr::ReadVar(s) if s.0 == var.0)
    }

    fn is_cwnd(&self, var: VarSlot, e: ExprId) -> bool {
        matches!(
            self.prog.expr(e),
            HExpr::SubflowProp { sbf, prop: SubflowProp::Cwnd } if self.is_lambda_var(*sbf, var)
        )
    }

    /// `sbf.SKBS_IN_FLIGHT + sbf.QUEUED` in either operand order.
    fn is_inflight_sum(&self, var: VarSlot, e: ExprId) -> bool {
        let HExpr::Binary {
            op: BinOp::Add,
            lhs,
            rhs,
            ..
        } = self.prog.expr(e)
        else {
            return false;
        };
        let part = |e: ExprId| match self.prog.expr(e) {
            HExpr::SubflowProp { sbf, prop }
                if matches!(prop, SubflowProp::SkbsInFlight | SubflowProp::Queued)
                    && self.is_lambda_var(*sbf, var) =>
            {
                Some(*prop)
            }
            _ => None,
        };
        matches!((part(*lhs), part(*rhs)), (Some(x), Some(y)) if x != y)
    }

    /// Assumes a reference expression is (non-)`NULL`, refining the slot it
    /// reads and the view it was drawn from.
    fn refine_ref_nullness(&mut self, st: &mut AbsState, e: ExprId, want_null: bool) {
        let v = self.eval_quiet(st, e);
        match (want_null, v.nullability()) {
            (true, Nullability::NonNull) | (false, Nullability::Null) => {
                st.reachable = false;
                return;
            }
            _ => {}
        }
        if let HExpr::ReadVar(slot) = self.prog.expr(e) {
            if self.prog.slot_ty[slot.0 as usize].is_nullable() {
                st.slots[slot.0 as usize].null = if want_null {
                    Nullability::Null
                } else {
                    Nullability::NonNull
                };
            }
        }
        if let Some(origin) = v.origin() {
            if want_null {
                // TOP/MIN/MAX yield NULL iff their view is empty; views
                // never regain packets, so the fact persists.
                if origin.iff_empty {
                    self.refine_view_empty(st, origin.agg);
                }
            } else {
                self.refine_view_nonempty(st, origin.agg);
            }
        }
    }
}

/// Binds `slot` the way `FOREACH` binds its loop variable: a fresh
/// non-`NULL` element with no other facts (for `super::props`).
pub(super) fn bind_loop_slot(st: &mut AbsState, slot: VarSlot) {
    st.slots[slot.0 as usize] = SlotAbs {
        null: Nullability::NonNull,
        ..SlotAbs::default()
    };
}

pub(super) fn queue_index(k: QueueKind) -> usize {
    match k {
        QueueKind::SendQueue => 0,
        QueueKind::Unacked => 1,
        QueueKind::Reinject => 2,
    }
}
