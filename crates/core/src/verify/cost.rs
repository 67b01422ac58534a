//! Closed-form worst-case step-cost certification.
//!
//! Computes an upper bound on the number of steps one execution can take
//! on *any* backend, assuming the environment stays within the
//! configured cardinality caps ([`VerifyConfig::max_subflows`] subflows,
//! [`VerifyConfig::max_queue_len`] packets per queue view). The model
//! charges one unit per statement and expression node, one for the exit,
//! and `elements × per-element work` for every loop a backend runs: a
//! `FOREACH`, any `MIN`/`MAX`/`SUM`/`GET`/`COUNT`, anything through a
//! filter, and an unfiltered queue `EMPTY`/`TOP`/`POP`, which walks to
//! the first live packet past at most the ones removed earlier in the
//! execution. Aggregate variables are resolved through their initializer
//! chains, and every consumption site re-charges the full re-expansion,
//! exactly how the compiled backends execute fused aggregates. The total
//! times [`K`] is the certified bound: `super::vm` charges the bytecode
//! the same way, and translation validation holds its model to it.

use crate::hir::{Children, ExprId, HExpr, HProgram, HStmt, StmtId, ViewBase};
use crate::types::Type;

use super::VerifyConfig;

/// VM instructions per HIR cost unit, the one constant between the two
/// models. The largest ratio of the bytecode model to the HIR model is
/// 5.69 over the 18 shipped programs, 7.82 over the `program` tier's
/// 1 000 seeds and 7.98 over 20 000 (optimized and unoptimized HIR,
/// admitted or not, unsaturated bounds): `K` is 3.0 times the largest.
/// The interpreter and AOT take at most 2 steps per unit.
const K: u64 = 24;

/// The certified worst-case step bound for `prog` under `cfg`'s caps.
pub(super) fn certified_step_bound(prog: &HProgram, cfg: &VerifyConfig) -> u64 {
    let pops = removals(prog, &prog.body, cfg.max_subflows);
    let c = Coster { prog, cfg, pops };
    // One unit for the exit every execution ends in.
    c.block_cost(&prog.body).saturating_add(1).saturating_mul(K)
}

/// Weighted count of the `POP` / `DROP` sites in `body`: an upper bound
/// on the packets one execution removes from the queue views. A `POP`
/// anywhere in a statement's operands counts (keys and predicates are
/// pure, so none runs per element of a scan).
fn removals(prog: &HProgram, body: &[StmtId], subflows: u64) -> u64 {
    body.iter().fold(0u64, |acc, &s| {
        let [first, second] = prog.blocks(s).map(|b| removals(prog, b, subflows));
        let nested = match prog.stmt(s) {
            HStmt::Foreach { .. } => subflows.saturating_mul(first),
            HStmt::Drop { .. } => 1,
            _ => first.saturating_add(second),
        };
        let exprs = prog.stmt_operands(s).iter().flat_map(|e| prog.subexprs(e));
        let pops = exprs.filter(|&e| matches!(prog.expr(e), HExpr::QueuePop(_)));
        acc.saturating_add(nested)
            .saturating_add(pops.count() as u64)
    })
}

/// Worst-case shape of one aggregate view chain.
struct ViewShape {
    /// Cap on the number of elements a scan of the view visits.
    elems: u64,
    /// Per-element cost of evaluating the accumulated filter predicates.
    pred_cost: u64,
    /// True when the chain contains at least one `FILTER`.
    filtered: bool,
}

struct Coster<'a> {
    prog: &'a HProgram,
    cfg: &'a VerifyConfig,
    /// [`removals`] of the whole program.
    pops: u64,
}

impl<'a> Coster<'a> {
    fn block_cost(&self, body: &[StmtId]) -> u64 {
        body.iter()
            .fold(0u64, |acc, &s| acc.saturating_add(self.stmt_cost(s)))
    }

    /// One unit for the statement, its operands, and its nested blocks:
    /// the costlier branch of an `IF` (never pruned, even when the
    /// dataflow pass proves a branch dead: the bound must hold for the
    /// program as compiled), the body of a `FOREACH` once per element.
    fn stmt_cost(&self, sid: StmtId) -> u64 {
        let [first, second] = self.prog.blocks(sid);
        let nested = match self.prog.stmt(sid) {
            // The interpreter filters a subflow list where it is declared.
            HStmt::VarDecl { init, .. }
                if matches!(self.prog.expr(*init), HExpr::ListFilter { .. }) =>
            {
                self.scan_cost(*init, None, u64::MAX)
            }
            HStmt::Foreach { list, .. } => {
                let view = self.view_shape(*list);
                let per_elem = view
                    .pred_cost
                    .saturating_add(1)
                    .saturating_add(self.block_cost(first));
                view.elems.saturating_mul(per_elem)
            }
            _ => self.block_cost(first).max(self.block_cost(second)),
        };
        self.node_cost(self.prog.stmt_operands(sid))
            .saturating_add(nested)
    }

    /// One unit for a node plus the cost of its operands.
    fn node_cost(&self, operands: Children) -> u64 {
        operands
            .iter()
            .fold(1u64, |acc, e| acc.saturating_add(self.expr_cost(e)))
    }

    /// Cost of evaluating the expression at its appearance site. Scans are
    /// charged at the consuming node.
    fn expr_cost(&self, id: ExprId) -> u64 {
        match *self.prog.expr(id) {
            // An unfiltered EMPTY stops at the first subflow, and one over
            // a queue at the first packet past at most the removed ones.
            HExpr::ListEmpty(view) if !self.view_shape(view).filtered => {
                self.node_cost(self.prog.children(id))
            }
            HExpr::QueueEmpty(view) | HExpr::QueueTop(view) | HExpr::QueuePop(view)
                if !self.view_shape(view).filtered =>
            {
                self.scan_cost(view, None, self.pops.saturating_add(1))
            }
            // COUNT, and anything through a filter, scans the view.
            HExpr::ListCount(view)
            | HExpr::QueueCount(view)
            | HExpr::ListEmpty(view)
            | HExpr::QueueEmpty(view)
            | HExpr::QueueTop(view)
            | HExpr::QueuePop(view) => self.scan_cost(view, None, u64::MAX),
            // GET is charged as a scan even unfiltered (index walk).
            HExpr::ListGet { list, index } => self
                .scan_cost(list, None, u64::MAX)
                .saturating_add(self.expr_cost(index)),
            // A FILTER node by itself builds a lazy view; the predicate is
            // charged once here (loosely) and per element at consumers.
            HExpr::ListFilter { .. } | HExpr::QueueFilter { .. } => {
                self.node_cost(self.prog.children(id))
            }
            _ => match self.prog.children(id) {
                // MIN / MAX / SUM.
                Children::Scan { source, body, .. } => self.scan_cost(source, Some(body), u64::MAX),
                operands => self.node_cost(operands),
            },
        }
    }

    /// Cost of one scan over at most `limit` elements of the view `e`,
    /// optionally evaluating a per-element `key` expression.
    fn scan_cost(&self, e: ExprId, key: Option<ExprId>, limit: u64) -> u64 {
        let view = self.view_shape(e);
        let key_cost = key.map_or(0, |k| self.expr_cost(k));
        let per_elem = view.pred_cost.saturating_add(key_cost).saturating_add(1);
        1u64.saturating_add(self.expr_cost(e))
            .saturating_add(view.elems.min(limit).saturating_mul(per_elem))
    }

    /// Resolves the worst-case shape of a view chain, following aggregate
    /// variables to their initializers.
    fn view_shape(&self, e: ExprId) -> ViewShape {
        let (is_queue, filters) = match self.prog.view_chain(e) {
            Some(chain) => (chain.base != ViewBase::Subflows, chain.filters),
            // Not a resolvable view: cap it by its static type.
            None => (self.prog.ty(e) == Type::PacketQueue, Vec::new()),
        };
        ViewShape {
            elems: if is_queue {
                self.cfg.max_queue_len
            } else {
                self.cfg.max_subflows
            },
            pred_cost: filters.iter().fold(0u64, |acc, &(_, pred)| {
                acc.saturating_add(self.expr_cost(pred))
            }),
            filtered: !filters.is_empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::removals;
    use crate::{parser, sema};

    fn removals_of(src: &str) -> u64 {
        let hir = sema::lower(&parser::parse(src).expect("parse")).expect("sema");
        removals(&hir, &hir.body, 64)
    }

    #[test]
    fn a_pop_anywhere_in_an_operand_is_a_removal() {
        // The bytecode counts every `Pop` call, not only those whose
        // packet a statement takes whole.
        assert_eq!(removals_of("VAR n = Q.POP().SIZE;"), 1);
        assert_eq!(
            removals_of("DROP(Q.POP()); VAR n = Q.POP().SIZE + Q.POP().SIZE;"),
            4
        );
        let per_subflow = "FOREACH (VAR s IN SUBFLOWS) { VAR n = Q.POP().SIZE; }";
        assert_eq!(removals_of(per_subflow), 64);
    }
}
