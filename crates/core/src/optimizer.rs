//! HIR-level optimizations (paper §4.1, "Runtime Optimizations").
//!
//! Enabled by the declarative, side-effect-free core of the programming
//! model ("all optimizations are enabled by the abstractions of the
//! programming model"):
//!
//! * **constant folding** of integer and boolean operations;
//! * **dead-branch elimination** for `IF` with a constant condition;
//! * **double-negation elimination**.
//!
//! The two other optimizations the paper names live elsewhere: *late
//! materialization* of `FILTER` is inherent in all three backends
//! (predicates run during a single scan), and *compressed executions* are
//! the simulator's (`mptcp_sim::Sim::run_scheduler`, measured by the
//! `abl_runtime_opts` experiment): it re-runs the whole program until a
//! round pushes nothing, and skips a round that starts where the
//! program's certified [`crate::verify::props::Quiescence`] guard holds. *Constant subflow number* is not
//! reproduced: `SUBFLOWS.COUNT` is one helper call on the image every
//! connection shares (see [`crate::vm`]).
//!
//! The optimizer rewrites expressions in place (the arena keeps dead
//! nodes; they are simply unreferenced) and rebuilds statement bodies.

use crate::ast::{BinOp, UnOp};
use crate::hir::{ExprId, HExpr, HProgram, HStmt, StmtId};
use crate::types::Type;

/// Optimizes `prog`, returning the number of rewrites applied.
pub fn optimize(prog: &mut HProgram) -> usize {
    let mut rewrites = 0;
    // Fold expressions bottom-up until no sweep changes anything. Every
    // rewrite strictly shrinks the referenced expression tree or replaces
    // a node with a literal, so the fixpoint is reached without an
    // arbitrary iteration cap.
    loop {
        let before = rewrites;
        for i in 0..prog.exprs.len() {
            rewrites += fold_expr(prog, ExprId(i as u32));
        }
        if rewrites == before {
            break;
        }
    }
    let body = std::mem::take(&mut prog.body);
    prog.body = prune_block(prog, body, &mut rewrites);
    rewrites
}

fn const_int(prog: &HProgram, e: ExprId) -> Option<i64> {
    match prog.expr(e) {
        HExpr::Int(v) => Some(*v),
        _ => None,
    }
}

fn const_bool(prog: &HProgram, e: ExprId) -> Option<bool> {
    match prog.expr(e) {
        HExpr::Bool(b) => Some(*b),
        _ => None,
    }
}

/// True when evaluating `e` cannot change observable state. Only
/// `Q.POP()` is effectful at expression level (it consumes a packet from
/// the queue view); everything else in the declarative core is a pure
/// read.
fn effect_free(prog: &HProgram, e: ExprId) -> bool {
    !prog
        .subexprs(e)
        .any(|sub| matches!(prog.expr(sub), HExpr::QueuePop(_)))
}

/// Structural equality of two expression trees (conservative: aggregate
/// operators compare as unequal unless they are the same node).
fn same_expr(prog: &HProgram, a: ExprId, b: ExprId) -> bool {
    if a == b {
        return true;
    }
    match (prog.expr(a), prog.expr(b)) {
        (HExpr::Int(x), HExpr::Int(y)) => x == y,
        (HExpr::Bool(x), HExpr::Bool(y)) => x == y,
        (HExpr::ReadReg(x), HExpr::ReadReg(y)) => x == y,
        (HExpr::ReadVar(x), HExpr::ReadVar(y)) => x == y,
        (HExpr::SubflowProp { sbf: s1, prop: p1 }, HExpr::SubflowProp { sbf: s2, prop: p2 }) => {
            p1 == p2 && same_expr(prog, *s1, *s2)
        }
        (HExpr::PacketProp { pkt: k1, prop: p1 }, HExpr::PacketProp { pkt: k2, prop: p2 }) => {
            p1 == p2 && same_expr(prog, *k1, *k2)
        }
        (HExpr::Unary { op: o1, expr: e1 }, HExpr::Unary { op: o2, expr: e2 }) => {
            o1 == o2 && same_expr(prog, *e1, *e2)
        }
        (
            HExpr::Binary {
                op: o1,
                lhs: l1,
                rhs: r1,
                ..
            },
            HExpr::Binary {
                op: o2,
                lhs: l2,
                rhs: r2,
                ..
            },
        ) => o1 == o2 && same_expr(prog, *l1, *l2) && same_expr(prog, *r1, *r2),
        _ => false,
    }
}

fn fold_expr(prog: &mut HProgram, id: ExprId) -> usize {
    let node = prog.expr(id).clone();
    let replacement = match node {
        HExpr::Binary {
            op,
            lhs,
            rhs,
            operand_ty,
        } => match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                match (const_int(prog, lhs), const_int(prog, rhs)) {
                    (Some(a), Some(b)) => op.eval_int(a, b).map(HExpr::Int),
                    // Identity: x + 0, x - 0, x * 1, x / 1.
                    (None, Some(0)) if matches!(op, BinOp::Add | BinOp::Sub) => {
                        Some(prog.expr(lhs).clone())
                    }
                    (None, Some(1)) if matches!(op, BinOp::Mul | BinOp::Div) => {
                        Some(prog.expr(lhs).clone())
                    }
                    (Some(0), None) if op == BinOp::Add => Some(prog.expr(rhs).clone()),
                    (Some(1), None) if op == BinOp::Mul => Some(prog.expr(rhs).clone()),
                    // Annihilator: x * 0 == 0 * x == 0, provided the
                    // discarded operand has no effect (it could be a
                    // `Q.POP()` property read).
                    (None, Some(0)) if op == BinOp::Mul && effect_free(prog, lhs) => {
                        Some(HExpr::Int(0))
                    }
                    (Some(0), None) if op == BinOp::Mul && effect_free(prog, rhs) => {
                        Some(HExpr::Int(0))
                    }
                    _ => None,
                }
            }
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                match (const_int(prog, lhs), const_int(prog, rhs)) {
                    (Some(a), Some(b)) => Some(HExpr::Bool(match op {
                        BinOp::Eq => a == b,
                        BinOp::Ne => a != b,
                        BinOp::Lt => a < b,
                        BinOp::Le => a <= b,
                        BinOp::Gt => a > b,
                        BinOp::Ge => a >= b,
                        _ => unreachable!(),
                    })),
                    _ => match (const_bool(prog, lhs), const_bool(prog, rhs)) {
                        (Some(a), Some(b)) if op == BinOp::Eq => Some(HExpr::Bool(a == b)),
                        (Some(a), Some(b)) if op == BinOp::Ne => Some(HExpr::Bool(a != b)),
                        // Identical pure integer operands compare equal:
                        // x == x, x <= x, x >= x hold; x != x, x < x,
                        // x > x never do.
                        _ if operand_ty == Type::Int
                            && same_expr(prog, lhs, rhs)
                            && effect_free(prog, lhs) =>
                        {
                            Some(HExpr::Bool(matches!(op, BinOp::Eq | BinOp::Le | BinOp::Ge)))
                        }
                        _ => None,
                    },
                }
            }
            BinOp::And => match (const_bool(prog, lhs), const_bool(prog, rhs)) {
                (Some(false), _) | (_, Some(false)) => Some(HExpr::Bool(false)),
                (Some(true), Some(true)) => Some(HExpr::Bool(true)),
                (Some(true), None) => Some(prog.expr(rhs).clone()),
                (None, Some(true)) => Some(prog.expr(lhs).clone()),
                _ => None,
            },
            BinOp::Or => match (const_bool(prog, lhs), const_bool(prog, rhs)) {
                (Some(true), _) | (_, Some(true)) => Some(HExpr::Bool(true)),
                (Some(false), Some(false)) => Some(HExpr::Bool(false)),
                (Some(false), None) => Some(prog.expr(rhs).clone()),
                (None, Some(false)) => Some(prog.expr(lhs).clone()),
                _ => None,
            },
        },
        HExpr::Unary { op, expr } => match op {
            UnOp::Not => match prog.expr(expr).clone() {
                HExpr::Bool(b) => Some(HExpr::Bool(!b)),
                // !!x => x
                HExpr::Unary {
                    op: UnOp::Not,
                    expr: inner,
                } => Some(prog.expr(inner).clone()),
                _ => None,
            },
            UnOp::Neg => const_int(prog, expr).map(|v| HExpr::Int(v.wrapping_neg())),
        },
        _ => None,
    };
    match replacement {
        Some(new_node) if new_node != *prog.expr(id) => {
            prog.exprs[id.0 as usize] = new_node;
            1
        }
        _ => 0,
    }
}

/// Removes statements after an unconditional `RETURN` and flattens `IF`s
/// with constant conditions.
fn prune_block(prog: &mut HProgram, body: Vec<StmtId>, rewrites: &mut usize) -> Vec<StmtId> {
    let mut out = Vec::with_capacity(body.len());
    for sid in body {
        let stmt = prog.stmt(sid).clone();
        match stmt {
            HStmt::If {
                cond,
                then_body,
                else_body,
            } => match const_bool(prog, cond) {
                Some(true) => {
                    *rewrites += 1;
                    let inlined = prune_block(prog, then_body, rewrites);
                    out.extend(inlined);
                    continue;
                }
                Some(false) => {
                    *rewrites += 1;
                    let inlined = prune_block(prog, else_body, rewrites);
                    out.extend(inlined);
                    continue;
                }
                None => {
                    let tb = prune_block(prog, then_body, rewrites);
                    let eb = prune_block(prog, else_body, rewrites);
                    prog.stmts[sid.0 as usize] = HStmt::If {
                        cond,
                        then_body: tb,
                        else_body: eb,
                    };
                    out.push(sid);
                }
            },
            HStmt::Foreach { slot, list, body } => {
                let b = prune_block(prog, body, rewrites);
                prog.stmts[sid.0 as usize] = HStmt::Foreach {
                    slot,
                    list,
                    body: b,
                };
                out.push(sid);
            }
            HStmt::Return => {
                out.push(sid);
                // Everything after an unconditional return is dead.
                break;
            }
            _ => out.push(sid),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{RegId, SchedulerEnv};
    use crate::exec::ExecCtx;
    use crate::interp;
    use crate::parser::parse;
    use crate::sema::lower;
    use crate::testenv::MockEnv;

    fn optimized(src: &str) -> HProgram {
        let mut p = lower(&parse(src).unwrap()).unwrap();
        optimize(&mut p);
        p
    }

    fn run(prog: &HProgram, env: &mut MockEnv) {
        let mut ctx = ExecCtx::new(env, 100_000);
        interp::execute(prog, &mut ctx).unwrap();
        let (regs, actions, _) = ctx.finish();
        env.apply(&regs, &actions);
    }

    #[test]
    fn folds_constant_arithmetic() {
        let p = optimized("SET(R1, 2 + 3 * 4);");
        let HStmt::SetReg { value, .. } = p.stmt(p.body[0]) else {
            panic!()
        };
        assert_eq!(p.expr(*value), &HExpr::Int(14));
    }

    #[test]
    fn folds_division_by_zero_to_zero() {
        let p = optimized("SET(R1, 9 / 0);");
        let HStmt::SetReg { value, .. } = p.stmt(p.body[0]) else {
            panic!()
        };
        assert_eq!(p.expr(*value), &HExpr::Int(0));
    }

    #[test]
    fn prunes_constant_true_branch() {
        let p = optimized("IF (TRUE) { SET(R1, 1); } ELSE { SET(R1, 2); }");
        assert_eq!(p.body.len(), 1);
        assert!(matches!(p.stmt(p.body[0]), HStmt::SetReg { .. }));
        let mut env = MockEnv::new();
        run(&p, &mut env);
        assert_eq!(env.register(RegId::R1), 1);
    }

    #[test]
    fn prunes_constant_false_branch() {
        let p = optimized("IF (1 > 2) { SET(R1, 1); } ELSE { SET(R1, 2); }");
        let mut env = MockEnv::new();
        run(&p, &mut env);
        assert_eq!(env.register(RegId::R1), 2);
    }

    #[test]
    fn removes_dead_code_after_return() {
        let p = optimized("SET(R1, 1); RETURN; SET(R1, 2); SET(R1, 3);");
        assert_eq!(p.body.len(), 2);
    }

    #[test]
    fn double_negation_eliminated() {
        let p = optimized("IF (!!(R1 > 0)) { SET(R2, 1); }");
        // The condition should now be the bare comparison.
        let HStmt::If { cond, .. } = p.stmt(p.body[0]) else {
            panic!()
        };
        assert!(matches!(p.expr(*cond), HExpr::Binary { op: BinOp::Gt, .. }));
    }

    #[test]
    fn short_circuit_and_with_false() {
        let p = optimized("IF (FALSE AND Q.EMPTY) { SET(R1, 1); } ELSE { SET(R1, 2); }");
        // Condition folds to FALSE, IF flattens to else branch.
        assert_eq!(p.body.len(), 1);
        let mut env = MockEnv::new();
        run(&p, &mut env);
        assert_eq!(env.register(RegId::R1), 2);
    }

    #[test]
    fn identity_operations_removed() {
        let p = optimized("SET(R1, R2 + 0); SET(R3, R2 * 1);");
        for &sid in &p.body {
            let HStmt::SetReg { value, .. } = p.stmt(sid) else {
                panic!()
            };
            assert!(matches!(p.expr(*value), HExpr::ReadReg(_)));
        }
    }

    #[test]
    fn multiplication_by_zero_annihilates() {
        // Both operand orders, with a pure non-constant operand.
        let p = optimized("SET(R1, R2 * 0); SET(R3, 0 * (R2 + R4));");
        for &sid in &p.body {
            let HStmt::SetReg { value, .. } = p.stmt(sid) else {
                panic!()
            };
            assert_eq!(p.expr(*value), &HExpr::Int(0));
        }
    }

    #[test]
    fn multiplication_by_zero_keeps_effectful_operand() {
        // Sema already confines POP() to VAR initializers and PUSH
        // arguments, so the annihilator's purity guard is defense in
        // depth — check the classifier directly.
        let src = "VAR pk = Q.POP(); SET(R1, pk.SIZE * 0);";
        let p = lower(&parse(src).unwrap()).unwrap();
        let HStmt::VarDecl { init, .. } = p.stmt(p.body[0]) else {
            panic!()
        };
        assert!(!effect_free(&p, *init), "Q.POP() is effectful");
        // Reading the popped packet through the var is pure, so the
        // annihilator still applies to `pk.SIZE * 0`.
        let p = optimized(src);
        let HStmt::SetReg { value, .. } = p.stmt(p.body[1]) else {
            panic!()
        };
        assert_eq!(p.expr(*value), &HExpr::Int(0));
    }

    #[test]
    fn identical_operand_comparisons_fold() {
        let p = optimized(
            "IF (R1 == R1) { SET(R2, 1); } ELSE { SET(R2, 2); }
             IF (R1 + R3 < R1 + R3) { SET(R4, 1); } ELSE { SET(R4, 2); }",
        );
        // Both IFs flatten: x == x is true, x < x is false.
        assert_eq!(p.body.len(), 2);
        let mut env = MockEnv::new();
        run(&p, &mut env);
        assert_eq!(env.register(RegId::R2), 1);
        assert_eq!(env.register(RegId::R4), 2);
    }

    #[test]
    fn identical_effectful_operands_do_not_fold() {
        // Each Q.POP() consumes a different packet; == must evaluate.
        let src = "VAR a = Q.POP(); VAR b = Q.POP();
                   IF (a.SIZE == b.SIZE) { SET(R1, 1); } ELSE { SET(R1, 2); }";
        let p = optimized(src);
        let HStmt::If { .. } = p.stmt(p.body[2]) else {
            panic!("IF must survive — operands are reads of distinct pops")
        };
    }

    #[test]
    fn fixpoint_folds_deep_chains() {
        // Needs several sweeps: each sweep folds one layer bottom-up.
        let expr = (0..20).fold("1".to_string(), |acc, _| format!("({acc} + 1)"));
        let p = optimized(&format!("SET(R1, {expr});"));
        let HStmt::SetReg { value, .. } = p.stmt(p.body[0]) else {
            panic!()
        };
        assert_eq!(p.expr(*value), &HExpr::Int(21));
    }

    #[test]
    fn optimization_preserves_semantics_on_mixed_program() {
        let src = "
            VAR x = 3 * 7;
            IF (x > 20 AND TRUE) { SET(R1, x + 0); } ELSE { SET(R1, 0 - 1); }
            IF (2 < 1) { SET(R2, 9); }";
        let unopt = lower(&parse(src).unwrap()).unwrap();
        let opt = optimized(src);
        let mut env1 = MockEnv::new();
        let mut env2 = MockEnv::new();
        run(&unopt, &mut env1);
        run(&opt, &mut env2);
        assert_eq!(env1.register(RegId::R1), env2.register(RegId::R1));
        assert_eq!(env1.register(RegId::R2), env2.register(RegId::R2));
        assert_eq!(env1.register(RegId::R1), 21);
    }
}
