//! Cross-compiler from HIR to virtual-register code.
//!
//! This is the analogue of the paper's in-kernel cross-compiler from the
//! scheduler intermediate representation to eBPF assembly (§4.1, "eBPF
//! Compilation"). Declarative primitives are *fused*: `FILTER` chains
//! compile to inlined predicate tests inside a single scan loop, so
//! aggregate values (subflow lists, queue views) never materialize at
//! runtime — this is the "combines scheduler primitives, such as FILTER,
//! reducing the number of loops and function calls" optimization.
//!
//! Aggregate-typed variables are re-expanded at each use site from their
//! recorded initializer ([`crate::hir::HProgram::aggregate_init`]);
//! predicates are pure, so re-evaluation is semantically transparent.
//!
//! The output uses unlimited virtual registers; [`crate::regalloc`] maps
//! them onto the machine registers `r0`..`r7` plus spill slots.

use crate::ast::{BinOp, UnOp};
use crate::bytecode::{AluOp, Cond, Helper};
use crate::error::{CompileError, Pos, Stage};
use crate::exec::NULL_HANDLE;
use crate::hir::{ExprId, HExpr, HProgram, HStmt, StmtId, VarSlot, ViewBase, ViewChain};

/// A virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VReg(pub u32);

/// A branch-target label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(pub u32);

/// Virtual-register instruction (three-address form).
#[derive(Debug, Clone, PartialEq)]
pub enum VInsn {
    /// Branch-target marker; emits no machine code.
    Label(Label),
    /// `dst = imm`
    MovImm {
        /// Destination.
        dst: VReg,
        /// Immediate.
        imm: i64,
    },
    /// `dst = src`
    Mov {
        /// Destination.
        dst: VReg,
        /// Source.
        src: VReg,
    },
    /// `dst = a op b`
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        dst: VReg,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
    },
    /// `dst = a op imm`
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination.
        dst: VReg,
        /// Left operand.
        a: VReg,
        /// Immediate right operand.
        imm: i64,
    },
    /// `dst = -src`
    Neg {
        /// Destination.
        dst: VReg,
        /// Source.
        src: VReg,
    },
    /// Unconditional jump.
    Ja(Label),
    /// Conditional jump comparing two virtual registers.
    Jcc {
        /// Condition.
        cond: Cond,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
        /// Branch target when the condition holds.
        target: Label,
    },
    /// Conditional jump comparing a virtual register with an immediate.
    JccImm {
        /// Condition.
        cond: Cond,
        /// Left operand.
        a: VReg,
        /// Immediate right operand.
        imm: i64,
        /// Branch target when the condition holds.
        target: Label,
    },
    /// Helper call.
    Call {
        /// The helper.
        helper: Helper,
        /// Operand virtual registers: at most two, the helper's `a`
        /// and `b`.
        args: Vec<VReg>,
        /// Destination of the result, when used.
        ret: Option<VReg>,
    },
    /// Terminate execution.
    Exit,
}

/// Virtual-register code plus the instruction → source-span side table.
///
/// `spans[i]` is the source position of the HIR construct that produced
/// `insns[i]`; [`crate::regalloc`] threads the spans through lowering so
/// every machine instruction in the final [`crate::bytecode::DebugTable`]
/// maps back to scheduler source.
#[derive(Debug, Clone, PartialEq)]
pub struct VCode {
    /// The virtual-register instruction stream.
    pub insns: Vec<VInsn>,
    /// Source position per instruction, parallel to `insns`.
    pub spans: Vec<Pos>,
}

impl VCode {
    /// Wraps a hand-built instruction list with `0:0` spans (tests and
    /// synthetic programs that have no source).
    pub fn from_insns(insns: Vec<VInsn>) -> Self {
        let spans = vec![Pos { line: 0, col: 0 }; insns.len()];
        VCode { insns, spans }
    }
}

/// Generates virtual-register code for a lowered program.
pub fn generate(prog: &HProgram) -> Result<VCode, CompileError> {
    let mut cg = Cg {
        prog,
        out: Vec::new(),
        spans: Vec::new(),
        cur_pos: Pos::new(0, 0),
        next_vreg: 0,
        next_label: 0,
        slot_vreg: vec![None; prog.n_slots],
    };
    for &sid in &prog.body {
        cg.gen_stmt(sid)?;
    }
    cg.emit(VInsn::Exit);
    Ok(VCode {
        insns: cg.out,
        spans: cg.spans,
    })
}

/// Resolves `view` to the base and fused predicates a backend's loop
/// scans. Sema never lowers a view without a chain, so `None` is an
/// internal error: a lost initializer when `view` is typed as a view,
/// `not_a` otherwise.
pub(crate) fn resolve_view(
    prog: &HProgram,
    view: ExprId,
    not_a: &str,
) -> Result<ViewChain, CompileError> {
    prog.view_chain(view).ok_or_else(|| {
        let message = if prog.ty(view).is_aggregate() {
            "aggregate variable without initializer"
        } else {
            not_a
        };
        CompileError::new(Stage::Codegen, Pos::new(0, 0), message.to_string())
    })
}

struct Cg<'p> {
    prog: &'p HProgram,
    out: Vec<VInsn>,
    /// Source span per emitted instruction, parallel to `out`.
    spans: Vec<Pos>,
    /// Position of the construct currently being lowered; stamped onto
    /// every instruction [`Cg::emit`] produces.
    cur_pos: Pos,
    next_vreg: u32,
    next_label: u32,
    slot_vreg: Vec<Option<VReg>>,
}

impl<'p> Cg<'p> {
    fn vreg(&mut self) -> VReg {
        let v = VReg(self.next_vreg);
        self.next_vreg += 1;
        v
    }

    fn label(&mut self) -> Label {
        let l = Label(self.next_label);
        self.next_label += 1;
        l
    }

    fn emit(&mut self, i: VInsn) {
        self.out.push(i);
        self.spans.push(self.cur_pos);
    }

    fn place(&mut self, l: Label) {
        self.emit(VInsn::Label(l));
    }

    /// The vreg a read of `s` sees: the one its innermost binding site
    /// gave it.
    fn slot(&mut self, s: VarSlot) -> VReg {
        if let Some(v) = self.slot_vreg[s.0 as usize] {
            v
        } else {
            self.bind(s)
        }
    }

    /// A fresh vreg for a binding of `s` (a `VAR`, or a `FOREACH` or
    /// lambda variable at one loop that binds it): a lambda fused into
    /// several loops gets one short-lived vreg per loop rather than one
    /// that spans them all.
    fn bind(&mut self, s: VarSlot) -> VReg {
        let v = self.vreg();
        self.slot_vreg[s.0 as usize] = Some(v);
        v
    }

    fn imm(&mut self, value: i64) -> VReg {
        let v = self.vreg();
        self.emit(VInsn::MovImm { dst: v, imm: value });
        v
    }

    fn internal_err(&self, msg: &str) -> CompileError {
        CompileError::new(Stage::Codegen, Pos::new(0, 0), msg.to_string())
    }

    // ----- loop generation -----

    /// Emits a loop over the decomposed subflow list. `body` receives the
    /// current subflow handle and the loop's break label.
    fn gen_list_loop<F>(&mut self, list: ExprId, mut body: F) -> Result<(), CompileError>
    where
        F: FnMut(&mut Self, VReg, Label) -> Result<(), CompileError>,
    {
        const NOT_A_LIST: &str = "expression is not a subflow list";
        let chain = resolve_view(self.prog, list, NOT_A_LIST)?;
        if chain.base != ViewBase::Subflows {
            return Err(self.internal_err(NOT_A_LIST));
        }

        let idx = self.vreg();
        let n = self.vreg();
        self.emit(VInsn::MovImm { dst: idx, imm: 0 });
        self.emit(VInsn::Call {
            helper: Helper::SubflowCount,
            args: vec![],
            ret: Some(n),
        });
        let head = self.label();
        let cont = self.label();
        let end = self.label();
        self.place(head);
        self.emit(VInsn::Jcc {
            cond: Cond::Ge,
            a: idx,
            b: n,
            target: end,
        });
        let sbf = self.vreg();
        self.emit(VInsn::Call {
            helper: Helper::SubflowAt,
            args: vec![idx],
            ret: Some(sbf),
        });
        for &(slot, pred) in &chain.filters {
            let bound = self.bind(slot);
            self.emit(VInsn::Mov {
                dst: bound,
                src: sbf,
            });
            let p = self.gen_expr(pred)?;
            self.emit(VInsn::JccImm {
                cond: Cond::Eq,
                a: p,
                imm: 0,
                target: cont,
            });
        }
        body(self, sbf, end)?;
        self.place(cont);
        self.emit(VInsn::AluImm {
            op: AluOp::Add,
            dst: idx,
            a: idx,
            imm: 1,
        });
        self.emit(VInsn::Ja(head));
        self.place(end);
        Ok(())
    }

    /// Emits a loop over the visible, matching packets of a queue view.
    fn gen_queue_loop<F>(&mut self, queue: ExprId, mut body: F) -> Result<(), CompileError>
    where
        F: FnMut(&mut Self, VReg, Label) -> Result<(), CompileError>,
    {
        const NOT_A_QUEUE: &str = "expression is not a packet queue";
        let chain = resolve_view(self.prog, queue, NOT_A_QUEUE)?;
        let kind = chain
            .base
            .queue()
            .ok_or_else(|| self.internal_err(NOT_A_QUEUE))?;

        let idx = self.vreg();
        let n = self.vreg();
        let kind_reg = self.imm(kind.code());
        self.emit(VInsn::MovImm { dst: idx, imm: 0 });
        self.emit(VInsn::Call {
            helper: Helper::QueueLen,
            args: vec![kind_reg],
            ret: Some(n),
        });
        let head = self.label();
        let cont = self.label();
        let end = self.label();
        self.place(head);
        self.emit(VInsn::Jcc {
            cond: Cond::Ge,
            a: idx,
            b: n,
            target: end,
        });
        let pkt = self.vreg();
        self.emit(VInsn::Call {
            helper: Helper::QueueGet,
            args: vec![kind_reg, idx],
            ret: Some(pkt),
        });
        // Skip packets removed earlier in this execution.
        self.emit(VInsn::JccImm {
            cond: Cond::Eq,
            a: pkt,
            imm: NULL_HANDLE,
            target: cont,
        });
        for &(slot, pred) in &chain.filters {
            let bound = self.bind(slot);
            self.emit(VInsn::Mov {
                dst: bound,
                src: pkt,
            });
            let p = self.gen_expr(pred)?;
            self.emit(VInsn::JccImm {
                cond: Cond::Eq,
                a: p,
                imm: 0,
                target: cont,
            });
        }
        body(self, pkt, end)?;
        self.place(cont);
        self.emit(VInsn::AluImm {
            op: AluOp::Add,
            dst: idx,
            a: idx,
            imm: 1,
        });
        self.emit(VInsn::Ja(head));
        self.place(end);
        Ok(())
    }

    /// Emits the generic min/max selection loop shared by lists and queues.
    #[allow(clippy::too_many_arguments)]
    fn gen_minmax_body(
        &mut self,
        var: VarSlot,
        key: ExprId,
        is_max: bool,
        elem: VReg,
        best: VReg,
        bestk: VReg,
        first: VReg,
    ) -> Result<(), CompileError> {
        let bound = self.bind(var);
        self.emit(VInsn::Mov {
            dst: bound,
            src: elem,
        });
        let k = self.gen_expr(key)?;
        let take = self.label();
        let skip = self.label();
        self.emit(VInsn::JccImm {
            cond: Cond::Eq,
            a: first,
            imm: 1,
            target: take,
        });
        self.emit(VInsn::Jcc {
            cond: if is_max { Cond::Gt } else { Cond::Lt },
            a: k,
            b: bestk,
            target: take,
        });
        self.emit(VInsn::Ja(skip));
        self.place(take);
        self.emit(VInsn::Mov {
            dst: best,
            src: elem,
        });
        self.emit(VInsn::Mov { dst: bestk, src: k });
        self.emit(VInsn::MovImm { dst: first, imm: 0 });
        self.place(skip);
        Ok(())
    }

    // ----- statements -----

    fn gen_block(&mut self, body: &[StmtId]) -> Result<(), CompileError> {
        for &sid in body {
            self.gen_stmt(sid)?;
        }
        Ok(())
    }

    fn gen_stmt(&mut self, sid: StmtId) -> Result<(), CompileError> {
        self.cur_pos = self.prog.stmt_pos(sid);
        match self.prog.stmt(sid).clone() {
            HStmt::VarDecl { slot, init } => {
                if self.prog.slot_ty[slot.0 as usize].is_aggregate() {
                    // Fused at use sites; no code.
                    return Ok(());
                }
                let v = self.gen_expr(init)?;
                let dst = self.bind(slot);
                self.emit(VInsn::Mov { dst, src: v });
                Ok(())
            }
            HStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.gen_expr(cond)?;
                let l_else = self.label();
                let l_end = self.label();
                self.emit(VInsn::JccImm {
                    cond: Cond::Eq,
                    a: c,
                    imm: 0,
                    target: l_else,
                });
                self.gen_block(&then_body)?;
                self.emit(VInsn::Ja(l_end));
                self.place(l_else);
                self.gen_block(&else_body)?;
                self.place(l_end);
                Ok(())
            }
            HStmt::Foreach { slot, list, body } => self.gen_list_loop(list, |cg, sbf, _end| {
                let bound = cg.bind(slot);
                cg.emit(VInsn::Mov {
                    dst: bound,
                    src: sbf,
                });
                cg.gen_block(&body)
            }),
            HStmt::SetReg { reg, value } => {
                let v = self.gen_expr(value)?;
                let r = self.imm(reg.index() as i64);
                self.emit(VInsn::Call {
                    helper: Helper::SetReg,
                    args: vec![r, v],
                    ret: None,
                });
                Ok(())
            }
            HStmt::Push { target, packet } => {
                let t = self.gen_expr(target)?;
                let p = self.gen_expr(packet)?;
                self.emit(VInsn::Call {
                    helper: Helper::Push,
                    args: vec![t, p],
                    ret: None,
                });
                Ok(())
            }
            HStmt::Drop { packet } => {
                let p = self.gen_expr(packet)?;
                self.emit(VInsn::Call {
                    helper: Helper::DropPkt,
                    args: vec![p],
                    ret: None,
                });
                Ok(())
            }
            HStmt::Return => {
                self.emit(VInsn::Exit);
                Ok(())
            }
        }
    }

    // ----- expressions -----

    fn gen_expr(&mut self, eid: ExprId) -> Result<VReg, CompileError> {
        self.cur_pos = self.prog.expr_pos(eid);
        match self.prog.expr(eid).clone() {
            HExpr::Int(v) => Ok(self.imm(v)),
            HExpr::Bool(b) => Ok(self.imm(i64::from(b))),
            HExpr::NullPacket | HExpr::NullSubflow => Ok(self.imm(NULL_HANDLE)),
            HExpr::ReadReg(r) => {
                let idx = self.imm(r.index() as i64);
                let ret = self.vreg();
                self.emit(VInsn::Call {
                    helper: Helper::GetReg,
                    args: vec![idx],
                    ret: Some(ret),
                });
                Ok(ret)
            }
            HExpr::ReadVar(slot) => {
                debug_assert!(
                    !self.prog.slot_ty[slot.0 as usize].is_aggregate(),
                    "aggregate reads are fused at use sites"
                );
                Ok(self.slot(slot))
            }
            HExpr::Subflows
            | HExpr::Queue(_)
            | HExpr::ListFilter { .. }
            | HExpr::QueueFilter { .. } => {
                Err(self.internal_err("aggregate expression evaluated as scalar"))
            }
            HExpr::SubflowProp { sbf, prop } => {
                let s = self.gen_expr(sbf)?;
                let p = self.imm(prop.code());
                let ret = self.vreg();
                self.emit(VInsn::Call {
                    helper: Helper::SubflowProp,
                    args: vec![s, p],
                    ret: Some(ret),
                });
                Ok(ret)
            }
            HExpr::PacketProp { pkt, prop } => {
                let s = self.gen_expr(pkt)?;
                let p = self.imm(prop.code());
                let ret = self.vreg();
                self.emit(VInsn::Call {
                    helper: Helper::PacketProp,
                    args: vec![s, p],
                    ret: Some(ret),
                });
                Ok(ret)
            }
            HExpr::SentOn { pkt, sbf } => {
                let p = self.gen_expr(pkt)?;
                let s = self.gen_expr(sbf)?;
                let ret = self.vreg();
                self.emit(VInsn::Call {
                    helper: Helper::SentOn,
                    args: vec![p, s],
                    ret: Some(ret),
                });
                Ok(ret)
            }
            HExpr::HasWindowFor { sbf, pkt } => {
                let s = self.gen_expr(sbf)?;
                let p = self.gen_expr(pkt)?;
                let ret = self.vreg();
                self.emit(VInsn::Call {
                    helper: Helper::HasWindowFor,
                    args: vec![s, p],
                    ret: Some(ret),
                });
                Ok(ret)
            }
            HExpr::ListMinMax {
                list,
                var,
                key,
                is_max,
            } => {
                let best = self.vreg();
                let bestk = self.vreg();
                let first = self.vreg();
                self.emit(VInsn::MovImm {
                    dst: best,
                    imm: NULL_HANDLE,
                });
                self.emit(VInsn::MovImm { dst: bestk, imm: 0 });
                self.emit(VInsn::MovImm { dst: first, imm: 1 });
                self.gen_list_loop(list, |cg, sbf, _| {
                    cg.gen_minmax_body(var, key, is_max, sbf, best, bestk, first)
                })?;
                Ok(best)
            }
            HExpr::QueueMinMax {
                queue,
                var,
                key,
                is_max,
            } => {
                let best = self.vreg();
                let bestk = self.vreg();
                let first = self.vreg();
                self.emit(VInsn::MovImm {
                    dst: best,
                    imm: NULL_HANDLE,
                });
                self.emit(VInsn::MovImm { dst: bestk, imm: 0 });
                self.emit(VInsn::MovImm { dst: first, imm: 1 });
                self.gen_queue_loop(queue, |cg, pkt, _| {
                    cg.gen_minmax_body(var, key, is_max, pkt, best, bestk, first)
                })?;
                Ok(best)
            }
            HExpr::ListSum { list, var, key } => {
                let total = self.vreg();
                self.emit(VInsn::MovImm { dst: total, imm: 0 });
                self.gen_list_loop(list, |cg, sbf, _| {
                    let bound = cg.bind(var);
                    cg.emit(VInsn::Mov {
                        dst: bound,
                        src: sbf,
                    });
                    let k = cg.gen_expr(key)?;
                    cg.emit(VInsn::Alu {
                        op: AluOp::Add,
                        dst: total,
                        a: total,
                        b: k,
                    });
                    Ok(())
                })?;
                Ok(total)
            }
            HExpr::QueueSum { queue, var, key } => {
                let total = self.vreg();
                self.emit(VInsn::MovImm { dst: total, imm: 0 });
                self.gen_queue_loop(queue, |cg, pkt, _| {
                    let bound = cg.bind(var);
                    cg.emit(VInsn::Mov {
                        dst: bound,
                        src: pkt,
                    });
                    let k = cg.gen_expr(key)?;
                    cg.emit(VInsn::Alu {
                        op: AluOp::Add,
                        dst: total,
                        a: total,
                        b: k,
                    });
                    Ok(())
                })?;
                Ok(total)
            }
            HExpr::ListCount(list) => {
                let count = self.vreg();
                self.emit(VInsn::MovImm { dst: count, imm: 0 });
                self.gen_list_loop(list, |cg, _sbf, _| {
                    cg.emit(VInsn::AluImm {
                        op: AluOp::Add,
                        dst: count,
                        a: count,
                        imm: 1,
                    });
                    Ok(())
                })?;
                Ok(count)
            }
            HExpr::QueueCount(queue) => {
                let count = self.vreg();
                self.emit(VInsn::MovImm { dst: count, imm: 0 });
                self.gen_queue_loop(queue, |cg, _pkt, _| {
                    cg.emit(VInsn::AluImm {
                        op: AluOp::Add,
                        dst: count,
                        a: count,
                        imm: 1,
                    });
                    Ok(())
                })?;
                Ok(count)
            }
            HExpr::ListEmpty(list) => {
                let empty = self.vreg();
                self.emit(VInsn::MovImm { dst: empty, imm: 1 });
                self.gen_list_loop(list, |cg, _sbf, end| {
                    cg.emit(VInsn::MovImm { dst: empty, imm: 0 });
                    cg.emit(VInsn::Ja(end));
                    Ok(())
                })?;
                Ok(empty)
            }
            HExpr::QueueEmpty(queue) => {
                let empty = self.vreg();
                self.emit(VInsn::MovImm { dst: empty, imm: 1 });
                self.gen_queue_loop(queue, |cg, _pkt, end| {
                    cg.emit(VInsn::MovImm { dst: empty, imm: 0 });
                    cg.emit(VInsn::Ja(end));
                    Ok(())
                })?;
                Ok(empty)
            }
            HExpr::ListGet { list, index } => {
                let target = self.gen_expr(index)?;
                let result = self.vreg();
                let cnt = self.vreg();
                self.emit(VInsn::MovImm {
                    dst: result,
                    imm: NULL_HANDLE,
                });
                self.emit(VInsn::MovImm { dst: cnt, imm: 0 });
                self.gen_list_loop(list, |cg, sbf, end| {
                    let next = cg.label();
                    cg.emit(VInsn::Jcc {
                        cond: Cond::Ne,
                        a: cnt,
                        b: target,
                        target: next,
                    });
                    cg.emit(VInsn::Mov {
                        dst: result,
                        src: sbf,
                    });
                    cg.emit(VInsn::Ja(end));
                    cg.place(next);
                    cg.emit(VInsn::AluImm {
                        op: AluOp::Add,
                        dst: cnt,
                        a: cnt,
                        imm: 1,
                    });
                    Ok(())
                })?;
                Ok(result)
            }
            HExpr::QueueTop(queue) => {
                let result = self.vreg();
                self.emit(VInsn::MovImm {
                    dst: result,
                    imm: NULL_HANDLE,
                });
                self.gen_queue_loop(queue, |cg, pkt, end| {
                    cg.emit(VInsn::Mov {
                        dst: result,
                        src: pkt,
                    });
                    cg.emit(VInsn::Ja(end));
                    Ok(())
                })?;
                Ok(result)
            }
            HExpr::QueuePop(queue) => {
                let result = self.vreg();
                self.emit(VInsn::MovImm {
                    dst: result,
                    imm: NULL_HANDLE,
                });
                self.gen_queue_loop(queue, |cg, pkt, end| {
                    cg.emit(VInsn::Mov {
                        dst: result,
                        src: pkt,
                    });
                    cg.emit(VInsn::Ja(end));
                    Ok(())
                })?;
                self.emit(VInsn::Call {
                    helper: Helper::Pop,
                    args: vec![result],
                    ret: None,
                });
                Ok(result)
            }
            HExpr::Unary { op, expr } => {
                let v = self.gen_expr(expr)?;
                let dst = self.vreg();
                match op {
                    UnOp::Not => self.emit(VInsn::AluImm {
                        op: AluOp::Xor,
                        dst,
                        a: v,
                        imm: 1,
                    }),
                    UnOp::Neg => self.emit(VInsn::Neg { dst, src: v }),
                }
                Ok(dst)
            }
            HExpr::Binary { op, lhs, rhs, .. } => {
                let a = self.gen_expr(lhs)?;
                let b = self.gen_expr(rhs)?;
                let dst = self.vreg();
                let alu = match op {
                    BinOp::Add => Some(AluOp::Add),
                    BinOp::Sub => Some(AluOp::Sub),
                    BinOp::Mul => Some(AluOp::Mul),
                    BinOp::Div => Some(AluOp::Div),
                    BinOp::Rem => Some(AluOp::Rem),
                    BinOp::And => Some(AluOp::And),
                    BinOp::Or => Some(AluOp::Or),
                    _ => None,
                };
                if let Some(alu) = alu {
                    self.emit(VInsn::Alu { op: alu, dst, a, b });
                    return Ok(dst);
                }
                let cond = match op {
                    BinOp::Eq => Cond::Eq,
                    BinOp::Ne => Cond::Ne,
                    BinOp::Lt => Cond::Lt,
                    BinOp::Le => Cond::Le,
                    BinOp::Gt => Cond::Gt,
                    BinOp::Ge => Cond::Ge,
                    _ => unreachable!("arith/logic handled above"),
                };
                let l_true = self.label();
                self.emit(VInsn::MovImm { dst, imm: 1 });
                self.emit(VInsn::Jcc {
                    cond,
                    a,
                    b,
                    target: l_true,
                });
                self.emit(VInsn::MovImm { dst, imm: 0 });
                self.place(l_true);
                Ok(dst)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::sema::lower;

    fn gen(src: &str) -> Vec<VInsn> {
        generate(&lower(&parse(src).unwrap()).unwrap())
            .unwrap()
            .insns
    }

    #[test]
    fn spans_are_parallel_to_insns_and_nonzero() {
        let vcode =
            generate(&lower(&parse("SET(R1, 2);\nSET(R2, SUBFLOWS.COUNT);").unwrap()).unwrap())
                .unwrap();
        assert_eq!(vcode.insns.len(), vcode.spans.len());
        // Everything except the synthetic trailing Exit carries a real
        // source position; the second statement's code points at line 2.
        assert!(vcode.spans[..vcode.spans.len() - 1]
            .iter()
            .all(|p| p.line >= 1));
        assert!(vcode.spans.iter().any(|p| p.line == 2));
    }

    #[test]
    fn generates_code_for_min_rtt() {
        let code = gen(
            "IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) { SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP()); }",
        );
        assert!(matches!(code.last(), Some(VInsn::Exit)));
        // Push helper must appear exactly once.
        let pushes = code
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    VInsn::Call {
                        helper: Helper::Push,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(pushes, 1);
    }

    #[test]
    fn filter_chains_are_fused_into_one_loop() {
        // Two chained filters over SUBFLOWS consumed by COUNT: a single
        // SubflowCount call drives a single loop.
        let code = gen("SET(R1, SUBFLOWS.FILTER(s => s.RTT > 1).FILTER(t => t.CWND > 1).COUNT);");
        let loops = code
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    VInsn::Call {
                        helper: Helper::SubflowCount,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(loops, 1, "fused filters share one scan loop");
    }

    #[test]
    fn aggregate_vars_are_inlined_per_use() {
        // `sbfs` used twice -> the subflow scan is expanded twice.
        let code = gen("VAR sbfs = SUBFLOWS.FILTER(s => s.RTT > 0);
             SET(R1, sbfs.COUNT);
             SET(R2, sbfs.COUNT);");
        let loops = code
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    VInsn::Call {
                        helper: Helper::SubflowCount,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(loops, 2);
    }

    /// HIR that sema would never produce reaches the internal-error paths
    /// as a `Codegen` error, not a panic.
    #[test]
    fn malformed_views_are_codegen_errors() {
        let good = lower(
            &parse(
                "VAR l = SUBFLOWS.FILTER(s => s.RTT > 0);
                 VAR q = Q.FILTER(p => p.SIZE > 0);
                 SET(R1, l.COUNT + q.COUNT);",
            )
            .unwrap(),
        )
        .unwrap();
        assert!(generate(&good).is_ok());
        let message = |edit: &dyn Fn(&mut HProgram)| {
            let mut hir = good.clone();
            edit(&mut hir);
            let err = generate(&hir).unwrap_err();
            assert_eq!(err.stage, Stage::Codegen);
            err.message
        };
        assert_eq!(
            message(&|hir| hir.aggregate_init.fill(None)),
            "aggregate variable without initializer"
        );
        // A queue loop over the subflow list, and the other way round.
        let swap = |hir: &mut HProgram, list_to_queue: bool| {
            for e in &mut hir.exprs {
                match *e {
                    HExpr::ListCount(v) if list_to_queue => *e = HExpr::QueueCount(v),
                    HExpr::QueueCount(v) if !list_to_queue => *e = HExpr::ListCount(v),
                    _ => {}
                }
            }
        };
        assert_eq!(
            message(&|hir| swap(hir, true)),
            "expression is not a packet queue"
        );
        assert_eq!(
            message(&|hir| swap(hir, false)),
            "expression is not a subflow list"
        );
        // A scalar where the view should be.
        let int = good
            .exprs
            .iter()
            .position(|e| matches!(e, HExpr::Int(_)))
            .unwrap();
        let scalar_view = |hir: &mut HProgram| {
            for e in &mut hir.exprs {
                if let HExpr::ListCount(v) = e {
                    *v = ExprId(int as u32);
                }
            }
        };
        assert_eq!(message(&scalar_view), "expression is not a subflow list");
    }

    #[test]
    fn return_emits_exit() {
        let code = gen("RETURN; SET(R1, 1);");
        let exits = code.iter().filter(|i| matches!(i, VInsn::Exit)).count();
        assert_eq!(exits, 2, "explicit RETURN plus trailing Exit");
    }

    #[test]
    fn pop_calls_pop_helper() {
        let code = gen("DROP(Q.POP());");
        assert!(code.iter().any(|i| matches!(
            i,
            VInsn::Call {
                helper: Helper::Pop,
                ..
            }
        )));
        assert!(code.iter().any(|i| matches!(
            i,
            VInsn::Call {
                helper: Helper::DropPkt,
                ..
            }
        )));
    }
}
