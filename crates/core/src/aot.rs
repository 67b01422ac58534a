//! Ahead-of-time compilation to a closure graph (execution environment #2
//! of paper §4.1).
//!
//! The paper's AOT backend generates and compiles C functions so that no
//! parser or interpreter runs in the kernel at schedule time. The Rust
//! analogue compiles the HIR once into a tree of boxed closures: all
//! dispatch decisions (which node kind, which property, which queue) are
//! resolved at compile time and execution is a direct call graph.
//!
//! Values use the same `i64` encoding as the bytecode VM (booleans 0/1,
//! handles, [`NULL_HANDLE`]). Aggregates are fused exactly like the
//! bytecode backend: `FILTER` chains become predicate closures applied
//! during a single scan.

use crate::ast::{BinOp, UnOp};
use crate::env::QueueKind;
use crate::error::{CompileError, ExecError, Pos, Stage};
use crate::exec::{ExecCtx, NULL_HANDLE};
use crate::hir::{ExprId, HExpr, HProgram, HStmt, StmtId, VarSlot};
use std::sync::Arc;

type Frame = Vec<i64>;
// `Send + Sync`: one graph is shared by every AOT instance of a program,
// across fleet shards. Closures capture ids and constants only.
type CExpr = Arc<dyn Fn(&mut ExecCtx<'_>, &mut Frame) -> Result<i64, ExecError> + Send + Sync>;
type CStmt = Arc<dyn Fn(&mut ExecCtx<'_>, &mut Frame) -> Result<Flow, ExecError> + Send + Sync>;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Flow {
    Cont,
    Ret,
}

/// An AOT-compiled scheduler program.
pub struct CompiledProgram {
    body: Vec<CStmt>,
    n_slots: usize,
}

impl std::fmt::Debug for CompiledProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledProgram")
            .field("statements", &self.body.len())
            .field("n_slots", &self.n_slots)
            .finish()
    }
}

impl CompiledProgram {
    /// Executes the compiled program once against `ctx`.
    pub fn execute(&self, ctx: &mut ExecCtx<'_>) -> Result<(), ExecError> {
        let mut frame = vec![0i64; self.n_slots];
        for stmt in &self.body {
            if stmt(ctx, &mut frame)? == Flow::Ret {
                break;
            }
        }
        Ok(())
    }
}

/// Compiles lowered HIR into a closure graph.
pub fn compile(prog: &HProgram) -> Result<CompiledProgram, CompileError> {
    let c = Compiler { prog };
    let body = c.compile_block(&prog.body)?;
    Ok(CompiledProgram {
        body,
        n_slots: prog.n_slots,
    })
}

/// A compile-time-decomposed scan source: subflow set or packet queue,
/// plus the fused predicate chain.
struct Scan {
    queue: Option<QueueKind>,
    filters: Vec<(usize, CExpr)>,
}

impl Scan {
    /// Collects up to `limit` matching element handles.
    fn collect(
        &self,
        ctx: &mut ExecCtx<'_>,
        frame: &mut Frame,
        limit: usize,
    ) -> Result<Vec<i64>, ExecError> {
        let mut out = Vec::new();
        let n = match self.queue {
            Some(q) => ctx.queue_raw_len(q),
            None => ctx.subflow_count(),
        };
        'outer: for i in 0..n {
            ctx.step(1)?;
            let h = match self.queue {
                Some(q) => ctx.queue_get(q, i),
                None => ctx.subflow_at(i),
            };
            if h == NULL_HANDLE {
                continue;
            }
            for (slot, pred) in &self.filters {
                frame[*slot] = h;
                if pred(ctx, frame)? == 0 {
                    continue 'outer;
                }
            }
            out.push(h);
            if out.len() >= limit {
                break;
            }
        }
        Ok(out)
    }
}

struct Compiler<'p> {
    prog: &'p HProgram,
}

impl<'p> Compiler<'p> {
    fn internal_err(&self, msg: &str) -> CompileError {
        CompileError::new(Stage::Codegen, Pos::new(0, 0), msg.to_string())
    }

    fn compile_block(&self, body: &[StmtId]) -> Result<Vec<CStmt>, CompileError> {
        body.iter().map(|&s| self.compile_stmt(s)).collect()
    }

    fn compile_stmt(&self, sid: StmtId) -> Result<CStmt, CompileError> {
        Ok(match self.prog.stmt(sid).clone() {
            HStmt::VarDecl { slot, init } => {
                if self.prog.slot_ty[slot.0 as usize].is_aggregate() {
                    // Fused at use sites.
                    Arc::new(|_, _| Ok(Flow::Cont))
                } else {
                    let e = self.compile_expr(init)?;
                    let s = slot.0 as usize;
                    Arc::new(move |ctx, frame| {
                        ctx.step(1)?;
                        frame[s] = e(ctx, frame)?;
                        Ok(Flow::Cont)
                    })
                }
            }
            HStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.compile_expr(cond)?;
                let tb = self.compile_block(&then_body)?;
                let eb = self.compile_block(&else_body)?;
                Arc::new(move |ctx, frame| {
                    ctx.step(1)?;
                    let branch = if c(ctx, frame)? != 0 { &tb } else { &eb };
                    for s in branch {
                        if s(ctx, frame)? == Flow::Ret {
                            return Ok(Flow::Ret);
                        }
                    }
                    Ok(Flow::Cont)
                })
            }
            HStmt::Foreach { slot, list, body } => {
                let scan = self.compile_scan(list)?;
                let b = self.compile_block(&body)?;
                let s = slot.0 as usize;
                Arc::new(move |ctx, frame| {
                    ctx.step(1)?;
                    let elems = scan.collect(ctx, frame, usize::MAX)?;
                    for e in elems {
                        frame[s] = e;
                        for st in &b {
                            if st(ctx, frame)? == Flow::Ret {
                                return Ok(Flow::Ret);
                            }
                        }
                    }
                    Ok(Flow::Cont)
                })
            }
            HStmt::SetReg { reg, value } => {
                let v = self.compile_expr(value)?;
                Arc::new(move |ctx, frame| {
                    ctx.step(1)?;
                    let x = v(ctx, frame)?;
                    ctx.set_reg(reg, x);
                    Ok(Flow::Cont)
                })
            }
            HStmt::Push { target, packet } => {
                let t = self.compile_expr(target)?;
                let p = self.compile_expr(packet)?;
                Arc::new(move |ctx, frame| {
                    ctx.step(1)?;
                    let sbf = t(ctx, frame)?;
                    let pkt = p(ctx, frame)?;
                    ctx.push(sbf, pkt);
                    Ok(Flow::Cont)
                })
            }
            HStmt::Drop { packet } => {
                let p = self.compile_expr(packet)?;
                Arc::new(move |ctx, frame| {
                    ctx.step(1)?;
                    let pkt = p(ctx, frame)?;
                    ctx.drop_packet(pkt);
                    Ok(Flow::Cont)
                })
            }
            HStmt::Return => Arc::new(|_, _| Ok(Flow::Ret)),
        })
    }

    /// Decomposes an aggregate expression into a [`Scan`] at compile time.
    fn compile_scan(&self, e: ExprId) -> Result<Scan, CompileError> {
        let chain = crate::codegen::resolve_view(self.prog, e, "expression is not an aggregate")?;
        let filters = chain
            .filters
            .iter()
            .map(|&(var, pred)| Ok((var.0 as usize, self.compile_expr(pred)?)))
            .collect::<Result<_, CompileError>>()?;
        Ok(Scan {
            queue: chain.base.queue(),
            filters,
        })
    }

    fn compile_minmax(
        &self,
        source: ExprId,
        var: VarSlot,
        key: ExprId,
        is_max: bool,
    ) -> Result<CExpr, CompileError> {
        let scan = self.compile_scan(source)?;
        let k = self.compile_expr(key)?;
        let s = var.0 as usize;
        Ok(Arc::new(move |ctx, frame| {
            let elems = scan.collect(ctx, frame, usize::MAX)?;
            let mut best = NULL_HANDLE;
            let mut bestk = 0i64;
            let mut first = true;
            for e in elems {
                ctx.step(1)?;
                frame[s] = e;
                let kv = k(ctx, frame)?;
                let better = first || if is_max { kv > bestk } else { kv < bestk };
                if better {
                    best = e;
                    bestk = kv;
                    first = false;
                }
            }
            Ok(best)
        }))
    }

    fn compile_expr(&self, eid: ExprId) -> Result<CExpr, CompileError> {
        Ok(match self.prog.expr(eid).clone() {
            HExpr::Int(v) => Arc::new(move |ctx, _| {
                ctx.step(1)?;
                Ok(v)
            }),
            HExpr::Bool(b) => {
                let v = i64::from(b);
                Arc::new(move |ctx, _| {
                    ctx.step(1)?;
                    Ok(v)
                })
            }
            HExpr::NullPacket | HExpr::NullSubflow => Arc::new(|ctx, _| {
                ctx.step(1)?;
                Ok(NULL_HANDLE)
            }),
            HExpr::ReadReg(r) => Arc::new(move |ctx, _| {
                ctx.step(1)?;
                Ok(ctx.get_reg(r))
            }),
            HExpr::ReadVar(slot) => {
                if self.prog.slot_ty[slot.0 as usize].is_aggregate() {
                    return Err(self.internal_err("aggregate reads are fused at use sites"));
                }
                let s = slot.0 as usize;
                Arc::new(move |ctx, frame| {
                    ctx.step(1)?;
                    Ok(frame[s])
                })
            }
            HExpr::Subflows
            | HExpr::Queue(_)
            | HExpr::ListFilter { .. }
            | HExpr::QueueFilter { .. } => {
                return Err(self.internal_err("aggregate expression evaluated as scalar"))
            }
            HExpr::SubflowProp { sbf, prop } => {
                let s = self.compile_expr(sbf)?;
                Arc::new(move |ctx, frame| {
                    ctx.step(1)?;
                    let h = s(ctx, frame)?;
                    Ok(ctx.subflow_prop(h, prop))
                })
            }
            HExpr::PacketProp { pkt, prop } => {
                let p = self.compile_expr(pkt)?;
                Arc::new(move |ctx, frame| {
                    ctx.step(1)?;
                    let h = p(ctx, frame)?;
                    Ok(ctx.packet_prop(h, prop))
                })
            }
            HExpr::SentOn { pkt, sbf } => {
                let p = self.compile_expr(pkt)?;
                let s = self.compile_expr(sbf)?;
                Arc::new(move |ctx, frame| {
                    ctx.step(1)?;
                    let ph = p(ctx, frame)?;
                    let sh = s(ctx, frame)?;
                    Ok(ctx.sent_on(ph, sh))
                })
            }
            HExpr::HasWindowFor { sbf, pkt } => {
                let s = self.compile_expr(sbf)?;
                let p = self.compile_expr(pkt)?;
                Arc::new(move |ctx, frame| {
                    ctx.step(1)?;
                    let sh = s(ctx, frame)?;
                    let ph = p(ctx, frame)?;
                    Ok(ctx.has_window_for(sh, ph))
                })
            }
            HExpr::ListMinMax {
                list,
                var,
                key,
                is_max,
            } => self.compile_minmax(list, var, key, is_max)?,
            HExpr::QueueMinMax {
                queue,
                var,
                key,
                is_max,
            } => self.compile_minmax(queue, var, key, is_max)?,
            HExpr::ListSum { list, var, key }
            | HExpr::QueueSum {
                queue: list,
                var,
                key,
            } => {
                let scan = self.compile_scan(list)?;
                let k = self.compile_expr(key)?;
                let s = var.0 as usize;
                Arc::new(move |ctx, frame| {
                    let elems = scan.collect(ctx, frame, usize::MAX)?;
                    let mut total = 0i64;
                    for e in elems {
                        ctx.step(1)?;
                        frame[s] = e;
                        total = total.wrapping_add(k(ctx, frame)?);
                    }
                    Ok(total)
                })
            }
            HExpr::ListCount(src) | HExpr::QueueCount(src) => {
                let scan = self.compile_scan(src)?;
                Arc::new(move |ctx, frame| Ok(scan.collect(ctx, frame, usize::MAX)?.len() as i64))
            }
            HExpr::ListEmpty(src) | HExpr::QueueEmpty(src) => {
                let scan = self.compile_scan(src)?;
                Arc::new(move |ctx, frame| Ok(i64::from(scan.collect(ctx, frame, 1)?.is_empty())))
            }
            HExpr::ListGet { list, index } => {
                let scan = self.compile_scan(list)?;
                let idx = self.compile_expr(index)?;
                Arc::new(move |ctx, frame| {
                    ctx.step(1)?;
                    let i = idx(ctx, frame)?;
                    if i < 0 {
                        return Ok(NULL_HANDLE);
                    }
                    let elems = scan.collect(ctx, frame, (i as usize).saturating_add(1))?;
                    Ok(elems.get(i as usize).copied().unwrap_or(NULL_HANDLE))
                })
            }
            HExpr::QueueTop(src) => {
                let scan = self.compile_scan(src)?;
                Arc::new(move |ctx, frame| {
                    let elems = scan.collect(ctx, frame, 1)?;
                    Ok(elems.first().copied().unwrap_or(NULL_HANDLE))
                })
            }
            HExpr::QueuePop(src) => {
                let scan = self.compile_scan(src)?;
                Arc::new(move |ctx, frame| {
                    let elems = scan.collect(ctx, frame, 1)?;
                    let top = elems.first().copied().unwrap_or(NULL_HANDLE);
                    ctx.pop(top);
                    Ok(top)
                })
            }
            HExpr::Unary { op, expr } => {
                let e = self.compile_expr(expr)?;
                match op {
                    UnOp::Not => Arc::new(move |ctx, frame| {
                        ctx.step(1)?;
                        Ok(i64::from(e(ctx, frame)? == 0))
                    }),
                    UnOp::Neg => Arc::new(move |ctx, frame| {
                        ctx.step(1)?;
                        Ok(e(ctx, frame)?.wrapping_neg())
                    }),
                }
            }
            HExpr::Binary { op, lhs, rhs, .. } => {
                let l = self.compile_expr(lhs)?;
                let r = self.compile_expr(rhs)?;
                macro_rules! bin {
                    (|$a:ident, $b:ident| $body:expr) => {
                        Arc::new(move |ctx: &mut ExecCtx<'_>, frame: &mut Frame| {
                            ctx.step(1)?;
                            let $a = l(ctx, frame)?;
                            let $b = r(ctx, frame)?;
                            Ok($body)
                        }) as CExpr
                    };
                }
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                        bin!(|a, b| op.eval_int(a, b).unwrap_or_default())
                    }
                    BinOp::Eq => bin!(|a, b| i64::from(a == b)),
                    BinOp::Ne => bin!(|a, b| i64::from(a != b)),
                    BinOp::Lt => bin!(|a, b| i64::from(a < b)),
                    BinOp::Le => bin!(|a, b| i64::from(a <= b)),
                    BinOp::Gt => bin!(|a, b| i64::from(a > b)),
                    BinOp::Ge => bin!(|a, b| i64::from(a >= b)),
                    BinOp::And => Arc::new(move |ctx, frame| {
                        ctx.step(1)?;
                        Ok(if l(ctx, frame)? == 0 {
                            0
                        } else {
                            i64::from(r(ctx, frame)? != 0)
                        })
                    }),
                    BinOp::Or => Arc::new(move |ctx, frame| {
                        ctx.step(1)?;
                        Ok(if l(ctx, frame)? != 0 {
                            1
                        } else {
                            i64::from(r(ctx, frame)? != 0)
                        })
                    }),
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{QueueKind, RegId, SchedulerEnv, SubflowProp};
    use crate::parser::parse;
    use crate::sema::lower;
    use crate::testenv::MockEnv;

    fn run_aot(src: &str, env: &mut MockEnv) {
        let hir = lower(&parse(src).unwrap()).unwrap();
        let prog = compile(&hir).unwrap();
        let mut ctx = ExecCtx::new(env, 1_000_000);
        prog.execute(&mut ctx).unwrap();
        let (regs, actions, _) = ctx.finish();
        env.apply(&regs, &actions);
    }

    /// HIR that sema would never produce reaches the internal-error paths
    /// as a `Codegen` error, not a panic.
    #[test]
    fn malformed_views_are_codegen_errors() {
        let good =
            lower(&parse("VAR l = SUBFLOWS.FILTER(s => s.RTT > 0); SET(R1, l.COUNT);").unwrap())
                .unwrap();
        assert!(compile(&good).is_ok());
        let message = |hir: &HProgram| {
            let Err(err) = compile(hir) else {
                panic!("malformed HIR compiled");
            };
            assert_eq!(err.stage, Stage::Codegen);
            err.message
        };
        let mut hir = good.clone();
        hir.aggregate_init.fill(None);
        assert_eq!(message(&hir), "aggregate variable without initializer");
        let mut hir = good.clone();
        let int = hir.exprs.iter().position(|e| matches!(e, HExpr::Int(_)));
        for e in &mut hir.exprs {
            if let HExpr::ListCount(v) = e {
                *v = ExprId(int.unwrap() as u32);
            }
        }
        assert_eq!(message(&hir), "expression is not an aggregate");
    }

    #[test]
    fn aot_runs_min_rtt() {
        let mut env = MockEnv::new();
        env.add_subflow(0);
        env.set_subflow_prop(0, SubflowProp::Rtt, 10_000);
        env.add_subflow(1);
        env.set_subflow_prop(1, SubflowProp::Rtt, 40_000);
        env.push_packet(QueueKind::SendQueue, 100, 0, 1400);
        run_aot(
            "IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) { SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP()); }",
            &mut env,
        );
        assert_eq!(env.transmissions.len(), 1);
        assert_eq!(env.transmissions[0].0 .0, 0);
    }

    #[test]
    fn aot_foreach_and_registers() {
        let mut env = MockEnv::new();
        env.add_subflow(0);
        env.add_subflow(1);
        env.add_subflow(2);
        run_aot(
            "FOREACH(VAR s IN SUBFLOWS) { SET(R1, R1 + s.ID + 1); }",
            &mut env,
        );
        assert_eq!(env.register(RegId::R1), 1 + 2 + 3);
    }

    #[test]
    fn aot_filtered_queue_pop() {
        let mut env = MockEnv::new();
        env.add_subflow(0);
        env.push_packet(QueueKind::SendQueue, 100, 0, 100);
        env.push_packet(QueueKind::SendQueue, 101, 1, 2000);
        run_aot(
            "SUBFLOWS.GET(0).PUSH(Q.FILTER(p => p.SIZE > 1000).POP());",
            &mut env,
        );
        assert_eq!(env.transmissions[0].1 .0, 101);
    }

    #[test]
    fn aot_division_by_zero() {
        let mut env = MockEnv::new();
        run_aot("SET(R1, 7 / 0);", &mut env);
        assert_eq!(env.register(RegId::R1), 0);
    }
}
