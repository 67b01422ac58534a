//! The baseline tree-walking interpreter (execution environment #1 of
//! paper §4.1).
//!
//! Queue `FILTER` chains are evaluated with *late materialization*: a
//! queue value is a view (queue kind + predicate chain) and elements are
//! only tested when `TOP`/`POP`/`COUNT`/`MIN`/... consume the view.
//! Subflow lists are small and materialize eagerly.

use crate::ast::{BinOp, UnOp};
use crate::env::QueueKind;
use crate::error::ExecError;
use crate::exec::{ExecCtx, NULL_HANDLE};
use crate::hir::{ExprId, HExpr, HProgram, HStmt, StmtId, VarSlot};

/// A lazily-filtered queue view.
#[derive(Debug, Clone, Default)]
struct QueueView {
    kind: Option<QueueKind>,
    /// Predicate chain applied in order: (lambda slot, predicate expr).
    filters: Vec<(VarSlot, ExprId)>,
}

/// A runtime value of the interpreter.
#[derive(Debug, Clone)]
enum Value {
    Int(i64),
    Bool(bool),
    /// Packet handle or [`NULL_HANDLE`].
    Packet(i64),
    /// Subflow handle or [`NULL_HANDLE`].
    Subflow(i64),
    SubflowList(Vec<i64>),
    Queue(QueueView),
}

impl Value {
    fn as_int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            _ => 0,
        }
    }

    fn as_bool(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            _ => false,
        }
    }

    fn as_handle(&self) -> i64 {
        match self {
            Value::Packet(h) | Value::Subflow(h) => *h,
            _ => NULL_HANDLE,
        }
    }
}

enum Flow {
    Continue,
    Return,
}

/// Executes `prog` once against `ctx` using the tree-walking interpreter.
pub fn execute(prog: &HProgram, ctx: &mut ExecCtx<'_>) -> Result<(), ExecError> {
    let mut interp = Interp {
        prog,
        frame: vec![Value::Int(0); prog.n_slots],
    };
    for &sid in &prog.body {
        if let Flow::Return = interp.exec_stmt(sid, ctx)? {
            break;
        }
    }
    Ok(())
}

struct Interp<'p> {
    prog: &'p HProgram,
    frame: Vec<Value>,
}

impl<'p> Interp<'p> {
    fn exec_block(&mut self, body: &[StmtId], ctx: &mut ExecCtx<'_>) -> Result<Flow, ExecError> {
        for &sid in body {
            if let Flow::Return = self.exec_stmt(sid, ctx)? {
                return Ok(Flow::Return);
            }
        }
        Ok(Flow::Continue)
    }

    fn exec_stmt(&mut self, sid: StmtId, ctx: &mut ExecCtx<'_>) -> Result<Flow, ExecError> {
        ctx.step(1)?;
        // Clone is cheap: statements hold only ids and small vecs of ids.
        let stmt = self.prog.stmt(sid).clone();
        match stmt {
            HStmt::VarDecl { slot, init } => {
                let v = self.eval(init, ctx)?;
                self.frame[slot.0 as usize] = v;
                Ok(Flow::Continue)
            }
            HStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                if self.eval(cond, ctx)?.as_bool() {
                    self.exec_block(&then_body, ctx)
                } else {
                    self.exec_block(&else_body, ctx)
                }
            }
            HStmt::Foreach { slot, list, body } => {
                // Snapshot the list at loop entry; subflow properties are
                // immutable per execution, so this matches lazy semantics.
                let elems = match self.eval(list, ctx)? {
                    Value::SubflowList(v) => v,
                    _ => Vec::new(),
                };
                for e in elems {
                    ctx.step(1)?;
                    self.frame[slot.0 as usize] = Value::Subflow(e);
                    if let Flow::Return = self.exec_block(&body, ctx)? {
                        return Ok(Flow::Return);
                    }
                }
                Ok(Flow::Continue)
            }
            HStmt::SetReg { reg, value } => {
                let v = self.eval(value, ctx)?.as_int();
                ctx.set_reg(reg, v);
                Ok(Flow::Continue)
            }
            HStmt::Push { target, packet } => {
                let t = self.eval(target, ctx)?.as_handle();
                let p = self.eval(packet, ctx)?.as_handle();
                ctx.push(t, p);
                Ok(Flow::Continue)
            }
            HStmt::Drop { packet } => {
                let p = self.eval(packet, ctx)?.as_handle();
                ctx.drop_packet(p);
                Ok(Flow::Continue)
            }
            HStmt::Return => Ok(Flow::Return),
        }
    }

    /// Tests the predicate chain of a queue view against `pkt`.
    fn matches(
        &mut self,
        view: &QueueView,
        pkt: i64,
        ctx: &mut ExecCtx<'_>,
    ) -> Result<bool, ExecError> {
        for &(slot, pred) in &view.filters {
            self.frame[slot.0 as usize] = Value::Packet(pkt);
            if !self.eval(pred, ctx)?.as_bool() {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Iterates the visible packets of a queue view, calling `f` for each
    /// matching packet; stops early when `f` returns `false`.
    fn scan_queue<F>(
        &mut self,
        view: &QueueView,
        ctx: &mut ExecCtx<'_>,
        mut f: F,
    ) -> Result<(), ExecError>
    where
        F: FnMut(&mut ExecCtx<'_>, i64) -> bool,
    {
        let Some(kind) = view.kind else {
            return Ok(());
        };
        let len = ctx.queue_raw_len(kind);
        for i in 0..len {
            ctx.step(1)?;
            let pkt = ctx.queue_get(kind, i);
            if pkt == NULL_HANDLE {
                continue;
            }
            if self.matches(view, pkt, ctx)? && !f(ctx, pkt) {
                break;
            }
        }
        Ok(())
    }

    fn eval(&mut self, eid: ExprId, ctx: &mut ExecCtx<'_>) -> Result<Value, ExecError> {
        ctx.step(1)?;
        // Clone the node descriptor (ids only) to release the borrow.
        let node = self.prog.expr(eid).clone();
        Ok(match node {
            HExpr::Int(v) => Value::Int(v),
            HExpr::Bool(b) => Value::Bool(b),
            HExpr::NullPacket => Value::Packet(NULL_HANDLE),
            HExpr::NullSubflow => Value::Subflow(NULL_HANDLE),
            HExpr::ReadReg(r) => Value::Int(ctx.get_reg(r)),
            HExpr::ReadVar(slot) => self.frame[slot.0 as usize].clone(),
            HExpr::Subflows => {
                let n = ctx.subflow_count();
                Value::SubflowList((0..n).map(|i| ctx.subflow_at(i)).collect())
            }
            HExpr::Queue(kind) => Value::Queue(QueueView {
                kind: Some(kind),
                filters: Vec::new(),
            }),
            HExpr::SubflowProp { sbf, prop } => {
                let s = self.eval(sbf, ctx)?.as_handle();
                let v = ctx.subflow_prop(s, prop);
                if prop.is_bool() {
                    Value::Bool(v != 0)
                } else {
                    Value::Int(v)
                }
            }
            HExpr::PacketProp { pkt, prop } => {
                let p = self.eval(pkt, ctx)?.as_handle();
                Value::Int(ctx.packet_prop(p, prop))
            }
            HExpr::SentOn { pkt, sbf } => {
                let p = self.eval(pkt, ctx)?.as_handle();
                let s = self.eval(sbf, ctx)?.as_handle();
                Value::Bool(ctx.sent_on(p, s) != 0)
            }
            HExpr::HasWindowFor { sbf, pkt } => {
                let s = self.eval(sbf, ctx)?.as_handle();
                let p = self.eval(pkt, ctx)?.as_handle();
                Value::Bool(ctx.has_window_for(s, p) != 0)
            }
            HExpr::ListFilter { list, var, pred } => {
                let elems = match self.eval(list, ctx)? {
                    Value::SubflowList(v) => v,
                    _ => Vec::new(),
                };
                let mut out = Vec::with_capacity(elems.len());
                for e in elems {
                    ctx.step(1)?;
                    self.frame[var.0 as usize] = Value::Subflow(e);
                    if self.eval(pred, ctx)?.as_bool() {
                        out.push(e);
                    }
                }
                Value::SubflowList(out)
            }
            HExpr::QueueFilter { queue, var, pred } => {
                let mut view = match self.eval(queue, ctx)? {
                    Value::Queue(v) => v,
                    _ => QueueView::default(),
                };
                view.filters.push((var, pred));
                Value::Queue(view)
            }
            HExpr::ListMinMax {
                list,
                var,
                key,
                is_max,
            } => {
                let elems = match self.eval(list, ctx)? {
                    Value::SubflowList(v) => v,
                    _ => Vec::new(),
                };
                let mut best: Option<(i64, i64)> = None;
                for e in elems {
                    ctx.step(1)?;
                    self.frame[var.0 as usize] = Value::Subflow(e);
                    let k = self.eval(key, ctx)?.as_int();
                    let better = match best {
                        None => true,
                        Some((bk, _)) => {
                            if is_max {
                                k > bk
                            } else {
                                k < bk
                            }
                        }
                    };
                    if better {
                        best = Some((k, e));
                    }
                }
                Value::Subflow(best.map(|(_, e)| e).unwrap_or(NULL_HANDLE))
            }
            HExpr::QueueMinMax {
                queue,
                var,
                key,
                is_max,
            } => {
                let view = match self.eval(queue, ctx)? {
                    Value::Queue(v) => v,
                    _ => QueueView::default(),
                };
                let mut matching = Vec::new();
                self.scan_queue(&view, ctx, |_, pkt| {
                    matching.push(pkt);
                    true
                })?;
                let mut best: Option<(i64, i64)> = None;
                for pkt in matching {
                    ctx.step(1)?;
                    self.frame[var.0 as usize] = Value::Packet(pkt);
                    let k = self.eval(key, ctx)?.as_int();
                    let better = match best {
                        None => true,
                        Some((bk, _)) => {
                            if is_max {
                                k > bk
                            } else {
                                k < bk
                            }
                        }
                    };
                    if better {
                        best = Some((k, pkt));
                    }
                }
                Value::Packet(best.map(|(_, p)| p).unwrap_or(NULL_HANDLE))
            }
            HExpr::ListSum { list, var, key } => {
                let elems = match self.eval(list, ctx)? {
                    Value::SubflowList(v) => v,
                    _ => Vec::new(),
                };
                let mut total: i64 = 0;
                for e in elems {
                    ctx.step(1)?;
                    self.frame[var.0 as usize] = Value::Subflow(e);
                    total = total.wrapping_add(self.eval(key, ctx)?.as_int());
                }
                Value::Int(total)
            }
            HExpr::QueueSum { queue, var, key } => {
                let view = match self.eval(queue, ctx)? {
                    Value::Queue(v) => v,
                    _ => QueueView::default(),
                };
                let mut matching = Vec::new();
                self.scan_queue(&view, ctx, |_, pkt| {
                    matching.push(pkt);
                    true
                })?;
                let mut total: i64 = 0;
                for pkt in matching {
                    ctx.step(1)?;
                    self.frame[var.0 as usize] = Value::Packet(pkt);
                    total = total.wrapping_add(self.eval(key, ctx)?.as_int());
                }
                Value::Int(total)
            }
            HExpr::ListCount(list) => {
                let elems = match self.eval(list, ctx)? {
                    Value::SubflowList(v) => v,
                    _ => Vec::new(),
                };
                Value::Int(elems.len() as i64)
            }
            HExpr::QueueCount(queue) => {
                let view = match self.eval(queue, ctx)? {
                    Value::Queue(v) => v,
                    _ => QueueView::default(),
                };
                let mut n = 0i64;
                self.scan_queue(&view, ctx, |_, _| {
                    n += 1;
                    true
                })?;
                Value::Int(n)
            }
            HExpr::ListEmpty(list) => {
                let elems = match self.eval(list, ctx)? {
                    Value::SubflowList(v) => v,
                    _ => Vec::new(),
                };
                Value::Bool(elems.is_empty())
            }
            HExpr::QueueEmpty(queue) => {
                let view = match self.eval(queue, ctx)? {
                    Value::Queue(v) => v,
                    _ => QueueView::default(),
                };
                let mut any = false;
                self.scan_queue(&view, ctx, |_, _| {
                    any = true;
                    false
                })?;
                Value::Bool(!any)
            }
            HExpr::ListGet { list, index } => {
                let elems = match self.eval(list, ctx)? {
                    Value::SubflowList(v) => v,
                    _ => Vec::new(),
                };
                let i = self.eval(index, ctx)?.as_int();
                let h = if i >= 0 {
                    elems.get(i as usize).copied().unwrap_or(NULL_HANDLE)
                } else {
                    NULL_HANDLE
                };
                Value::Subflow(h)
            }
            HExpr::QueueTop(queue) => {
                let view = match self.eval(queue, ctx)? {
                    Value::Queue(v) => v,
                    _ => QueueView::default(),
                };
                let mut top = NULL_HANDLE;
                self.scan_queue(&view, ctx, |_, pkt| {
                    top = pkt;
                    false
                })?;
                Value::Packet(top)
            }
            HExpr::QueuePop(queue) => {
                let view = match self.eval(queue, ctx)? {
                    Value::Queue(v) => v,
                    _ => QueueView::default(),
                };
                let mut top = NULL_HANDLE;
                self.scan_queue(&view, ctx, |_, pkt| {
                    top = pkt;
                    false
                })?;
                ctx.pop(top);
                Value::Packet(top)
            }
            HExpr::Unary { op, expr } => {
                let v = self.eval(expr, ctx)?;
                match op {
                    UnOp::Not => Value::Bool(!v.as_bool()),
                    UnOp::Neg => Value::Int(v.as_int().wrapping_neg()),
                }
            }
            HExpr::Binary {
                op,
                lhs,
                rhs,
                operand_ty,
            } => {
                // AND/OR short-circuit (predicates are pure, so this is
                // purely an efficiency matter and unobservable).
                if op == BinOp::And {
                    let l = self.eval(lhs, ctx)?.as_bool();
                    return Ok(Value::Bool(l && self.eval(rhs, ctx)?.as_bool()));
                }
                if op == BinOp::Or {
                    let l = self.eval(lhs, ctx)?.as_bool();
                    return Ok(Value::Bool(l || self.eval(rhs, ctx)?.as_bool()));
                }
                let l = self.eval(lhs, ctx)?;
                let r = self.eval(rhs, ctx)?;
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                        Value::Int(op.eval_int(l.as_int(), r.as_int()).unwrap_or_default())
                    }
                    BinOp::Eq | BinOp::Ne => {
                        let equal = if operand_ty.is_nullable() {
                            l.as_handle() == r.as_handle()
                        } else {
                            match (&l, &r) {
                                (Value::Bool(a), Value::Bool(b)) => a == b,
                                _ => l.as_int() == r.as_int(),
                            }
                        };
                        Value::Bool(if op == BinOp::Eq { equal } else { !equal })
                    }
                    BinOp::Lt => Value::Bool(l.as_int() < r.as_int()),
                    BinOp::Le => Value::Bool(l.as_int() <= r.as_int()),
                    BinOp::Gt => Value::Bool(l.as_int() > r.as_int()),
                    BinOp::Ge => Value::Bool(l.as_int() >= r.as_int()),
                    // Short-circuited above; surface a structured trap
                    // instead of panicking if control ever reaches here.
                    BinOp::And | BinOp::Or => {
                        return Err(ExecError::Trap {
                            origin: "interp",
                            detail: "short-circuit operator reached strict evaluation".into(),
                        })
                    }
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{QueueKind, RegId, SchedulerEnv, SubflowProp};
    use crate::exec::ExecCtx;
    use crate::parser::parse;
    use crate::sema::lower;
    use crate::testenv::MockEnv;

    fn run(src: &str, env: &mut MockEnv) -> crate::exec::ExecStats {
        let prog = lower(&parse(src).unwrap()).unwrap();
        let mut ctx = ExecCtx::new(env, 100_000);
        execute(&prog, &mut ctx).unwrap();
        let (regs, actions, stats) = ctx.finish();
        env.apply(&regs, &actions);
        stats
    }

    fn two_subflow_env() -> MockEnv {
        let mut env = MockEnv::new();
        env.add_subflow(0);
        env.set_subflow_prop(0, SubflowProp::Rtt, 10_000);
        env.set_subflow_prop(0, SubflowProp::Cwnd, 10);
        env.add_subflow(1);
        env.set_subflow_prop(1, SubflowProp::Rtt, 40_000);
        env.set_subflow_prop(1, SubflowProp::Cwnd, 10);
        env
    }

    #[test]
    fn min_rtt_scheduler_picks_lowest_rtt() {
        let mut env = two_subflow_env();
        env.push_packet(QueueKind::SendQueue, 100, 0, 1400);
        run(
            "IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) { SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP()); }",
            &mut env,
        );
        assert_eq!(env.transmissions.len(), 1);
        assert_eq!(env.transmissions[0].0 .0, 0, "lower-RTT subflow chosen");
    }

    #[test]
    fn redundant_scheduler_pushes_on_all_subflows() {
        let mut env = two_subflow_env();
        env.push_packet(QueueKind::SendQueue, 100, 0, 1400);
        run(
            "IF (!Q.EMPTY) { VAR skb = Q.POP(); FOREACH(VAR sbf IN SUBFLOWS) { sbf.PUSH(skb); } }",
            &mut env,
        );
        assert_eq!(env.transmissions.len(), 2);
    }

    #[test]
    fn round_robin_advances_register() {
        let mut env = two_subflow_env();
        env.push_packet(QueueKind::SendQueue, 100, 0, 1400);
        env.push_packet(QueueKind::SendQueue, 101, 1, 1400);
        let src = "
            VAR sbfs = SUBFLOWS.FILTER(sbf => !sbf.TSQ_THROTTLED AND !sbf.LOSSY);
            IF (R1 >= sbfs.COUNT) { SET(R1, 0); }
            IF (!Q.EMPTY) {
                VAR sbf = sbfs.GET(R1);
                IF (sbf.CWND > sbf.SKBS_IN_FLIGHT + sbf.QUEUED) { sbf.PUSH(Q.POP()); }
                SET(R1, R1 + 1); }";
        run(src, &mut env);
        assert_eq!(env.transmissions.last().unwrap().0 .0, 0);
        run(src, &mut env);
        assert_eq!(env.transmissions.last().unwrap().0 .0, 1);
        // Register wrapped state persists.
        assert_eq!(env.register(RegId::R1), 2);
    }

    #[test]
    fn filtered_pop_removes_from_middle() {
        let mut env = two_subflow_env();
        env.push_packet(QueueKind::SendQueue, 100, 0, 100);
        env.push_packet(QueueKind::SendQueue, 101, 1, 2000);
        env.push_packet(QueueKind::SendQueue, 102, 2, 100);
        // Pop the first packet larger than 1000 bytes: the middle one.
        run(
            "SUBFLOWS.GET(0).PUSH(Q.FILTER(p => p.SIZE > 1000).POP());",
            &mut env,
        );
        assert_eq!(env.transmissions[0].1 .0, 101);
        let remaining: Vec<u64> = env
            .queue_contents(QueueKind::SendQueue)
            .iter()
            .map(|p| p.0)
            .collect();
        assert_eq!(remaining, vec![100, 102]);
    }

    #[test]
    fn pop_without_push_keeps_packet_in_queue() {
        let mut env = two_subflow_env();
        env.push_packet(QueueKind::SendQueue, 100, 0, 100);
        run("VAR skb = Q.POP();", &mut env);
        assert_eq!(
            env.queue_contents(QueueKind::SendQueue).len(),
            1,
            "popped-but-unpushed packet is retained (no loss by design)"
        );
    }

    #[test]
    fn push_to_null_subflow_is_noop_and_packet_retained() {
        let mut env = MockEnv::new(); // no subflows at all
        env.push_packet(QueueKind::SendQueue, 100, 0, 100);
        run("SUBFLOWS.MIN(s => s.RTT).PUSH(Q.POP());", &mut env);
        assert!(env.transmissions.is_empty());
        assert_eq!(env.queue_contents(QueueKind::SendQueue).len(), 1);
    }

    #[test]
    fn drop_discards_packet() {
        let mut env = two_subflow_env();
        env.push_packet(QueueKind::SendQueue, 100, 0, 100);
        run("DROP(Q.POP());", &mut env);
        assert!(env.queue_contents(QueueKind::SendQueue).is_empty());
        assert_eq!(env.dropped.len(), 1);
    }

    #[test]
    fn sequential_pops_return_distinct_packets() {
        let mut env = two_subflow_env();
        env.push_packet(QueueKind::SendQueue, 100, 0, 100);
        env.push_packet(QueueKind::SendQueue, 101, 1, 100);
        run(
            "SUBFLOWS.GET(0).PUSH(Q.POP()); SUBFLOWS.GET(1).PUSH(Q.POP());",
            &mut env,
        );
        assert_eq!(env.transmissions[0].1 .0, 100);
        assert_eq!(env.transmissions[1].1 .0, 101);
    }

    #[test]
    fn top_does_not_remove() {
        let mut env = two_subflow_env();
        env.push_packet(QueueKind::SendQueue, 100, 0, 100);
        run(
            "SUBFLOWS.GET(0).PUSH(Q.TOP); SUBFLOWS.GET(1).PUSH(Q.TOP);",
            &mut env,
        );
        // Same packet transmitted twice (redundant push via TOP).
        assert_eq!(env.transmissions.len(), 2);
        assert_eq!(env.transmissions[0].1, env.transmissions[1].1);
    }

    #[test]
    fn empty_list_min_yields_null_and_graceful_push() {
        let mut env = MockEnv::new();
        env.push_packet(QueueKind::SendQueue, 100, 0, 100);
        // FILTER everything away; MIN of empty is NULL; PUSH is a no-op.
        run(
            "SUBFLOWS.FILTER(s => s.RTT < 0).MIN(s => s.RTT).PUSH(Q.POP());",
            &mut env,
        );
        assert!(env.transmissions.is_empty());
    }

    #[test]
    fn get_out_of_range_yields_null() {
        let mut env = two_subflow_env();
        env.push_packet(QueueKind::SendQueue, 100, 0, 100);
        run("SUBFLOWS.GET(7).PUSH(Q.POP());", &mut env);
        assert!(env.transmissions.is_empty());
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let mut env = MockEnv::new();
        run("SET(R1, 10 / 0); SET(R2, 10 % 0);", &mut env);
        assert_eq!(env.register(RegId::R1), 0);
        assert_eq!(env.register(RegId::R2), 0);
    }

    #[test]
    fn arithmetic_and_comparison() {
        let mut env = MockEnv::new();
        run(
            "SET(R1, (2 + 3) * 4 - 10 / 2); IF (R1 == 15) { SET(R2, 1); } ELSE { SET(R2, 2); }",
            &mut env,
        );
        assert_eq!(env.register(RegId::R1), 15);
        assert_eq!(env.register(RegId::R2), 1);
    }

    #[test]
    fn return_stops_execution() {
        let mut env = MockEnv::new();
        run("SET(R1, 1); RETURN; SET(R1, 2);", &mut env);
        assert_eq!(env.register(RegId::R1), 1);
    }

    #[test]
    fn return_stops_inside_foreach() {
        let mut env = two_subflow_env();
        run(
            "FOREACH(VAR s IN SUBFLOWS) { SET(R1, R1 + 1); RETURN; }",
            &mut env,
        );
        assert_eq!(env.register(RegId::R1), 1);
    }

    #[test]
    fn sent_on_filter_excludes_sent_packets() {
        let mut env = two_subflow_env();
        env.push_packet(QueueKind::Unacked, 100, 0, 100);
        env.push_packet(QueueKind::Unacked, 101, 1, 100);
        env.mark_sent_on(100, 0);
        run(
            "VAR sbf = SUBFLOWS.GET(0);
             VAR skb = QU.FILTER(s => !s.SENT_ON(sbf)).TOP;
             IF (skb != NULL) { sbf.PUSH(skb); }",
            &mut env,
        );
        assert_eq!(env.transmissions.len(), 1);
        assert_eq!(env.transmissions[0].1 .0, 101);
    }

    #[test]
    fn queue_min_finds_oldest_seq() {
        let mut env = two_subflow_env();
        env.push_packet(QueueKind::Unacked, 102, 5, 100);
        env.push_packet(QueueKind::Unacked, 100, 1, 100);
        env.push_packet(QueueKind::Unacked, 101, 3, 100);
        run("SUBFLOWS.GET(0).PUSH(QU.MIN(p => p.SEQ));", &mut env);
        assert_eq!(env.transmissions[0].1 .0, 100);
    }

    #[test]
    fn sum_over_subflows() {
        let mut env = two_subflow_env();
        env.set_subflow_prop(0, SubflowProp::Bw, 1000);
        env.set_subflow_prop(1, SubflowProp::Bw, 500);
        run("SET(R1, SUBFLOWS.SUM(s => s.BW));", &mut env);
        assert_eq!(env.register(RegId::R1), 1500);
    }

    #[test]
    fn chained_filters_apply_conjunctively() {
        let mut env = two_subflow_env();
        env.push_packet(QueueKind::SendQueue, 100, 0, 500);
        env.push_packet(QueueKind::SendQueue, 101, 1, 1500);
        env.push_packet(QueueKind::SendQueue, 102, 2, 2500);
        run(
            "SET(R1, Q.FILTER(p => p.SIZE > 1000).FILTER(p => p.SIZE < 2000).COUNT);",
            &mut env,
        );
        assert_eq!(env.register(RegId::R1), 1);
    }

    #[test]
    fn step_budget_enforced() {
        let mut env = MockEnv::new();
        for i in 0..100 {
            env.push_packet(QueueKind::SendQueue, i, i as i64, 100);
        }
        let prog = lower(&parse("SET(R1, Q.COUNT + Q.COUNT + Q.COUNT);").unwrap()).unwrap();
        let mut ctx = ExecCtx::new(&env, 50);
        assert!(matches!(
            execute(&prog, &mut ctx),
            Err(ExecError::StepBudgetExhausted { .. })
        ));
    }

    #[test]
    fn has_window_for_gates_push() {
        let mut env = two_subflow_env();
        env.push_packet(QueueKind::SendQueue, 100, 0, 100);
        env.set_has_window(0, false);
        run(
            "VAR sbf = SUBFLOWS.GET(0);
             IF (sbf.HAS_WINDOW_FOR(Q.TOP)) { sbf.PUSH(Q.POP()); } ELSE { SET(R3, 99); }",
            &mut env,
        );
        assert!(env.transmissions.is_empty());
        assert_eq!(env.register(RegId::R3), 99);
    }

    #[test]
    fn backup_semantics_filter() {
        let mut env = two_subflow_env();
        env.set_subflow_prop(1, SubflowProp::IsBackup, 1);
        env.push_packet(QueueKind::SendQueue, 100, 0, 100);
        run(
            "VAR nonBackup = SUBFLOWS.FILTER(sbf => !sbf.IS_BACKUP);
             IF (!nonBackup.EMPTY) { nonBackup.MIN(s => s.RTT).PUSH(Q.POP()); }
             ELSE { SUBFLOWS.MIN(s => s.RTT).PUSH(Q.POP()); }",
            &mut env,
        );
        assert_eq!(env.transmissions[0].0 .0, 0);
    }
}
