//! Closed-form worst-case step-cost certification.
//!
//! Computes an upper bound on the number of accounting steps one
//! execution can take on *any* backend, assuming the environment stays
//! within the configured cardinality caps ([`VerifyConfig::max_subflows`]
//! subflows, [`VerifyConfig::max_queue_len`] packets per queue view). The
//! model charges one abstract unit per statement and expression node and
//! a full scan (`elements × per-element work`) for every aggregate
//! consumption: filtered `COUNT`/`EMPTY`/`TOP`/`POP`, any
//! `MIN`/`MAX`/`SUM`/`GET`, and `FOREACH` iteration. Aggregate variables
//! are resolved through their initializer chains, and every consumption
//! site re-charges the full re-expansion — exactly how the compiled
//! backends execute fused aggregates. The result is multiplied by
//! [`VerifyConfig::cost_safety_factor`] to absorb differences between the
//! three backends' step-accounting granularities; the conformance
//! soundness sweep checks the certified bound empirically.

use crate::hir::{Children, ExprId, HExpr, HProgram, HStmt, StmtId, ViewBase};
use crate::types::Type;

use super::VerifyConfig;

/// Minimum certified bound, so trivial programs keep headroom for
/// per-execution bookkeeping steps.
const MIN_BOUND: u64 = 1024;

/// The certified worst-case step bound for `prog` under `cfg`'s caps.
pub(super) fn certified_step_bound(prog: &HProgram, cfg: &VerifyConfig) -> u64 {
    let c = Coster { prog, cfg };
    let total = c.block_cost(&prog.body);
    total.saturating_mul(cfg.cost_safety_factor).max(MIN_BOUND)
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
            // O(1) on an unfiltered view; a full scan through filters.
            HExpr::ListCount(view)
            | HExpr::QueueCount(view)
            | HExpr::ListEmpty(view)
            | HExpr::QueueEmpty(view)
            | HExpr::QueueTop(view)
            | HExpr::QueuePop(view)
                if self.view_shape(view).filtered =>
            {
                self.scan_cost(view, None)
            }
            // GET is charged as a scan even unfiltered (index walk).
            HExpr::ListGet { list, index } => self
                .scan_cost(list, None)
                .saturating_add(self.expr_cost(index)),
            // A FILTER node by itself builds a lazy view; the predicate is
            // charged once here (loosely) and per element at consumers.
            HExpr::ListFilter { .. } | HExpr::QueueFilter { .. } => {
                self.node_cost(self.prog.children(id))
            }
            _ => match self.prog.children(id) {
                // MIN / MAX / SUM.
                Children::Scan { source, body, .. } => self.scan_cost(source, Some(body)),
                operands => self.node_cost(operands),
            },
        }
    }

    /// Cost of one full scan over the view `e`, optionally evaluating a
    /// per-element `key` expression.
    fn scan_cost(&self, e: ExprId, key: Option<ExprId>) -> u64 {
        let view = self.view_shape(e);
        let key_cost = key.map_or(0, |k| self.expr_cost(k));
        let per_elem = view.pred_cost.saturating_add(key_cost).saturating_add(1);
        1u64.saturating_add(self.expr_cost(e))
            .saturating_add(view.elems.saturating_mul(per_elem))
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
