//! Typed, arena-allocated intermediate representation.
//!
//! [`crate::sema`] lowers the untyped AST into this HIR after resolving
//! names, properties, and types. All three execution backends (the
//! interpreter, the AOT closure compiler, and the eBPF-flavoured bytecode
//! compiler) consume the HIR.
//!
//! Nodes reference children by arena index ([`ExprId`], [`StmtId`]) so the
//! IR is trivially cloneable and cheap to traverse without pointer chasing.

use crate::ast::{BinOp, UnOp};
use crate::env::{PacketProp, QueueKind, RegId, SubflowProp};
use crate::error::Pos;
use crate::types::Type;

/// Index of an expression node in [`HProgram::exprs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExprId(pub u32);

/// Index of a statement node in [`HProgram::stmts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StmtId(pub u32);

/// Index of a variable slot in the execution frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarSlot(pub u32);

/// A typed expression node.
#[derive(Debug, Clone, PartialEq)]
pub enum HExpr {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// `NULL` of packet type.
    NullPacket,
    /// `NULL` of subflow type.
    NullSubflow,
    /// Read a scheduler register.
    ReadReg(RegId),
    /// Read a variable slot.
    ReadVar(VarSlot),
    /// The builtin subflow set.
    Subflows,
    /// A builtin queue.
    Queue(QueueKind),
    /// Subflow property access.
    SubflowProp {
        /// Subflow operand.
        sbf: ExprId,
        /// Resolved property.
        prop: SubflowProp,
    },
    /// Packet property access.
    PacketProp {
        /// Packet operand.
        pkt: ExprId,
        /// Resolved property.
        prop: PacketProp,
    },
    /// `pkt.SENT_ON(sbf)`.
    SentOn {
        /// Packet operand.
        pkt: ExprId,
        /// Subflow operand.
        sbf: ExprId,
    },
    /// `sbf.HAS_WINDOW_FOR(pkt)`.
    HasWindowFor {
        /// Subflow operand.
        sbf: ExprId,
        /// Packet operand.
        pkt: ExprId,
    },
    /// `FILTER` over a subflow list.
    ListFilter {
        /// The list operand.
        list: ExprId,
        /// Lambda binding slot.
        var: VarSlot,
        /// Boolean predicate.
        pred: ExprId,
    },
    /// `FILTER` over a packet queue (evaluated lazily / fused).
    QueueFilter {
        /// The queue operand.
        queue: ExprId,
        /// Lambda binding slot.
        var: VarSlot,
        /// Boolean predicate.
        pred: ExprId,
    },
    /// `MIN`/`MAX` over a subflow list; `NULL` when empty.
    ListMinMax {
        /// The list operand.
        list: ExprId,
        /// Lambda binding slot.
        var: VarSlot,
        /// Integer key.
        key: ExprId,
        /// True for `MAX`.
        is_max: bool,
    },
    /// `MIN`/`MAX` over a packet queue; `NULL` when empty.
    QueueMinMax {
        /// The queue operand.
        queue: ExprId,
        /// Lambda binding slot.
        var: VarSlot,
        /// Integer key.
        key: ExprId,
        /// True for `MAX`.
        is_max: bool,
    },
    /// `SUM` over a subflow list.
    ListSum {
        /// The list operand.
        list: ExprId,
        /// Lambda binding slot.
        var: VarSlot,
        /// Integer key.
        key: ExprId,
    },
    /// `SUM` over a packet queue.
    QueueSum {
        /// The queue operand.
        queue: ExprId,
        /// Lambda binding slot.
        var: VarSlot,
        /// Integer key.
        key: ExprId,
    },
    /// `COUNT` of a subflow list.
    ListCount(ExprId),
    /// `COUNT` of a packet queue.
    QueueCount(ExprId),
    /// `EMPTY` of a subflow list.
    ListEmpty(ExprId),
    /// `EMPTY` of a packet queue.
    QueueEmpty(ExprId),
    /// `GET(i)` on a subflow list; `NULL` out of range.
    ListGet {
        /// The list operand.
        list: ExprId,
        /// Zero-based index.
        index: ExprId,
    },
    /// `TOP` of a packet queue; `NULL` when empty. Does not remove.
    QueueTop(ExprId),
    /// `POP()` of a packet queue; `NULL` when empty. Removes the packet
    /// from the queue view for the remainder of the execution.
    QueuePop(ExprId),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: ExprId,
    },
    /// Binary operation. `operand_ty` records the (common) operand type,
    /// which matters for `==`/`!=` on nullable reference types.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: ExprId,
        /// Right operand.
        rhs: ExprId,
        /// Common operand type.
        operand_ty: Type,
    },
}

/// A typed statement node.
#[derive(Debug, Clone, PartialEq)]
pub enum HStmt {
    /// Variable declaration into `slot`.
    VarDecl {
        /// Destination slot.
        slot: VarSlot,
        /// Initializer.
        init: ExprId,
    },
    /// Conditional.
    If {
        /// Boolean condition.
        cond: ExprId,
        /// Then-branch statements.
        then_body: Vec<StmtId>,
        /// Else-branch statements.
        else_body: Vec<StmtId>,
    },
    /// Iteration over a subflow list, binding `slot` per element.
    Foreach {
        /// Loop variable slot.
        slot: VarSlot,
        /// Subflow list to iterate.
        list: ExprId,
        /// Loop body.
        body: Vec<StmtId>,
    },
    /// Register write.
    SetReg {
        /// Destination register.
        reg: RegId,
        /// Integer value.
        value: ExprId,
    },
    /// Schedule a packet on a subflow. A `NULL` subflow or packet makes
    /// this a no-op (graceful failure by design).
    Push {
        /// Subflow operand.
        target: ExprId,
        /// Packet operand.
        packet: ExprId,
    },
    /// Discard a packet from the schedulable queues. `NULL` is a no-op.
    Drop {
        /// Packet operand.
        packet: ExprId,
    },
    /// End the execution.
    Return,
}

/// The operands of one node, in evaluation order: what
/// [`HProgram::children`] and [`HProgram::stmt_operands`] return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Children {
    /// No operands (a literal, a register or variable read, a builtin
    /// view, `RETURN`).
    Leaf,
    /// One operand.
    One(ExprId),
    /// Two operands.
    Two(ExprId, ExprId),
    /// `source.FILTER/MIN/MAX/SUM(var => body)`: `body` is evaluated once
    /// per element of `source`, with the element bound to `var`.
    Scan {
        /// The scanned view.
        source: ExprId,
        /// Lambda binding slot.
        var: VarSlot,
        /// Predicate or key.
        body: ExprId,
    },
}

impl Children {
    /// The operand ids; the lambda body of a scan comes after its source.
    pub fn iter(self) -> impl DoubleEndedIterator<Item = ExprId> {
        let (a, b) = match self {
            Children::Leaf => (None, None),
            Children::One(a) => (Some(a), None),
            Children::Two(a, b)
            | Children::Scan {
                source: a, body: b, ..
            } => (Some(a), Some(b)),
        };
        a.into_iter().chain(b)
    }
}

/// What a view chain bottoms out in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewBase {
    /// The builtin subflow set.
    Subflows,
    /// A builtin packet queue.
    Queue(QueueKind),
}

impl ViewBase {
    /// The queue, for a packet view.
    pub fn queue(self) -> Option<QueueKind> {
        match self {
            ViewBase::Subflows => None,
            ViewBase::Queue(kind) => Some(kind),
        }
    }
}

/// A view as every consumer scans it (DESIGN.md §3): a base plus the
/// predicates of all `FILTER`s stacked on it, aggregate variables resolved
/// through their initializers. See [`HProgram::view_chain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewChain {
    /// `SUBFLOWS`, `Q`, `QU` or `RQ`.
    pub base: ViewBase,
    /// `(lambda slot, predicate)` per `FILTER`, innermost first.
    pub filters: Vec<(VarSlot, ExprId)>,
}

/// A complete lowered program.
#[derive(Debug, Clone, PartialEq)]
pub struct HProgram {
    /// Expression arena.
    pub exprs: Vec<HExpr>,
    /// Type of each expression, parallel to `exprs`.
    pub expr_ty: Vec<Type>,
    /// Source position of each expression, parallel to `exprs`. The
    /// optimizer rewrites nodes in place (never appends), so these stay
    /// aligned across the whole pipeline and back diagnostics in
    /// [`crate::verify`].
    pub expr_pos: Vec<Pos>,
    /// Statement arena.
    pub stmts: Vec<HStmt>,
    /// Source position of each statement, parallel to `stmts`.
    pub stmt_pos: Vec<Pos>,
    /// Top-level statement list.
    pub body: Vec<StmtId>,
    /// Number of variable slots in the execution frame (including lambda
    /// and loop bindings).
    pub n_slots: usize,
    /// Type of each variable slot.
    pub slot_ty: Vec<Type>,
    /// For slots of aggregate type, the initializer expression. Compiled
    /// backends re-expand these at each use site (aggregates are fused
    /// into loops and never materialize); see DESIGN.md §3.
    pub aggregate_init: Vec<Option<ExprId>>,
}

impl HProgram {
    /// The expression node for `id`.
    pub fn expr(&self, id: ExprId) -> &HExpr {
        &self.exprs[id.0 as usize]
    }

    /// The type of expression `id`.
    pub fn ty(&self, id: ExprId) -> Type {
        self.expr_ty[id.0 as usize]
    }

    /// The statement node for `id`.
    pub fn stmt(&self, id: StmtId) -> &HStmt {
        &self.stmts[id.0 as usize]
    }

    /// The source position of expression `id`.
    pub fn expr_pos(&self, id: ExprId) -> Pos {
        self.expr_pos[id.0 as usize]
    }

    /// The source position of statement `id`.
    pub fn stmt_pos(&self, id: StmtId) -> Pos {
        self.stmt_pos[id.0 as usize]
    }

    /// The operands of expression `id`. This is the one place that spells
    /// out every [`HExpr`] variant just to reach its operands.
    pub fn children(&self, id: ExprId) -> Children {
        use HExpr::*;
        match *self.expr(id) {
            Int(_) | Bool(_) | NullPacket | NullSubflow | ReadReg(_) | ReadVar(_) | Subflows
            | Queue(_) => Children::Leaf,
            SubflowProp { sbf: a, .. }
            | PacketProp { pkt: a, .. }
            | ListCount(a)
            | QueueCount(a)
            | ListEmpty(a)
            | QueueEmpty(a)
            | QueueTop(a)
            | QueuePop(a)
            | Unary { expr: a, .. } => Children::One(a),
            SentOn { pkt: a, sbf: b }
            | HasWindowFor { sbf: a, pkt: b }
            | ListGet { list: a, index: b }
            | Binary { lhs: a, rhs: b, .. } => Children::Two(a, b),
            ListFilter {
                list: source,
                var,
                pred: body,
            }
            | QueueFilter {
                queue: source,
                var,
                pred: body,
            }
            | ListMinMax {
                list: source,
                var,
                key: body,
                ..
            }
            | QueueMinMax {
                queue: source,
                var,
                key: body,
                ..
            }
            | ListSum {
                list: source,
                var,
                key: body,
            }
            | QueueSum {
                queue: source,
                var,
                key: body,
            } => Children::Scan { source, var, body },
        }
    }

    /// `root` and every expression nested in it, pre-order.
    pub fn subexprs(&self, root: ExprId) -> impl Iterator<Item = ExprId> + '_ {
        let mut stack = vec![root];
        std::iter::from_fn(move || {
            let id = stack.pop()?;
            stack.extend(self.children(id).iter().rev());
            Some(id)
        })
    }

    /// The expressions statement `id` itself evaluates (not those of its
    /// nested blocks).
    pub fn stmt_operands(&self, id: StmtId) -> Children {
        match *self.stmt(id) {
            HStmt::VarDecl { init: e, .. }
            | HStmt::If { cond: e, .. }
            | HStmt::Foreach { list: e, .. }
            | HStmt::SetReg { value: e, .. }
            | HStmt::Drop { packet: e } => Children::One(e),
            HStmt::Push { target, packet } => Children::Two(target, packet),
            HStmt::Return => Children::Leaf,
        }
    }

    /// The statement blocks nested in `id`: both branches of an `IF`, the
    /// body of a `FOREACH`, nothing otherwise.
    pub fn blocks(&self, id: StmtId) -> [&[StmtId]; 2] {
        match self.stmt(id) {
            HStmt::If {
                then_body,
                else_body,
                ..
            } => [then_body, else_body],
            HStmt::Foreach { body, .. } => [body, &[]],
            _ => [&[], &[]],
        }
    }

    /// Every statement of `body` and of the blocks nested in it, pre-order
    /// (which is source order).
    pub fn stmts_in<'a>(&'a self, body: &'a [StmtId]) -> impl Iterator<Item = StmtId> + 'a {
        let mut stack = vec![body.iter()];
        std::iter::from_fn(move || loop {
            let Some(&sid) = stack.last_mut()?.next() else {
                stack.pop();
                continue;
            };
            let [first, second] = self.blocks(sid);
            stack.push(second.iter());
            stack.push(first.iter());
            return Some(sid);
        })
    }

    /// Resolves the view expression `view` to its base and filter
    /// predicates; `None` when `view` is not a view (or an aggregate
    /// variable on the way has no initializer). The only reader of
    /// [`HProgram::aggregate_init`] outside the abstract interpreter.
    pub fn view_chain(&self, view: ExprId) -> Option<ViewChain> {
        let mut filters = Vec::new();
        let mut e = view;
        let base = loop {
            match *self.expr(e) {
                HExpr::Subflows => break ViewBase::Subflows,
                HExpr::Queue(kind) => break ViewBase::Queue(kind),
                HExpr::ListFilter {
                    list: source,
                    var,
                    pred,
                }
                | HExpr::QueueFilter {
                    queue: source,
                    var,
                    pred,
                } => {
                    filters.push((var, pred));
                    e = source;
                }
                HExpr::ReadVar(slot) => e = self.aggregate_init[slot.0 as usize]?,
                _ => return None,
            }
        };
        filters.reverse();
        Some(ViewChain { base, filters })
    }

    /// Approximate in-memory size of the lowered program in bytes, for
    /// the paper's §4.3 memory-overhead accounting.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.exprs.len() * std::mem::size_of::<HExpr>()
            + self.expr_ty.len() * std::mem::size_of::<Type>()
            + self.expr_pos.len() * std::mem::size_of::<Pos>()
            + self.stmts.capacity() * std::mem::size_of::<HStmt>()
            + self.stmt_pos.len() * std::mem::size_of::<Pos>()
            + self.body.len() * std::mem::size_of::<StmtId>()
            + self.slot_ty.len() * std::mem::size_of::<Type>()
            + self.aggregate_init.len() * std::mem::size_of::<Option<ExprId>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::sema::lower;

    fn hir(src: &str) -> HProgram {
        lower(&parse(src).unwrap()).unwrap()
    }

    /// The packet operand of the first `DROP` in `prog`.
    fn dropped(prog: &HProgram) -> ExprId {
        prog.stmts_in(&prog.body)
            .find_map(|sid| match *prog.stmt(sid) {
                HStmt::Drop { packet } => Some(packet),
                _ => None,
            })
            .expect("a DROP")
    }

    #[test]
    fn chain_resolves_through_aggregate_variables() {
        let prog = hir("VAR a = RQ.FILTER(p => p.SIZE > 100);
             VAR b = a.FILTER(q => q.PROP == 1);
             DROP(b.POP());");
        let HExpr::QueuePop(view) = *prog.expr(dropped(&prog)) else {
            panic!("DROP operand is the POP");
        };
        assert!(matches!(prog.expr(view), HExpr::ReadVar(_)));
        let chain = prog.view_chain(view).expect("`b` is a view");
        assert_eq!(chain.base, ViewBase::Queue(QueueKind::Reinject));
        // Inner filter first: the SIZE test of `a`, then the PROP test of `b`.
        let props: Vec<PacketProp> = chain
            .filters
            .iter()
            .map(|&(var, pred)| {
                let HExpr::Binary { lhs, .. } = *prog.expr(pred) else {
                    panic!("predicate is a comparison");
                };
                let HExpr::PacketProp { pkt, prop } = *prog.expr(lhs) else {
                    panic!("comparison reads a packet property");
                };
                assert_eq!(*prog.expr(pkt), HExpr::ReadVar(var), "lambda slot");
                prop
            })
            .collect();
        assert_eq!(props, [PacketProp::Size, PacketProp::UserProp]);
        // A bare base is a chain with no filters.
        let base = prog
            .exprs
            .iter()
            .position(|e| matches!(e, HExpr::Queue(_)))
            .map(|i| ExprId(i as u32))
            .expect("RQ");
        assert_eq!(
            prog.view_chain(base),
            Some(ViewChain {
                base: ViewBase::Queue(QueueKind::Reinject),
                filters: Vec::new()
            })
        );
    }

    #[test]
    fn chain_of_a_non_view_is_none() {
        let mut prog = hir("VAR s = SUBFLOWS.FILTER(x => x.RTT > 0);
             VAR n = s.COUNT + 1;
             DROP(Q.POP());");
        let pop = dropped(&prog);
        assert_eq!(prog.view_chain(pop), None, "a POP is a packet");
        for sid in prog.stmts_in(&prog.body).collect::<Vec<_>>() {
            let HStmt::VarDecl { slot, init } = *prog.stmt(sid) else {
                continue;
            };
            let is_view = prog.slot_ty[slot.0 as usize].is_aggregate();
            assert_eq!(prog.view_chain(init).is_some(), is_view);
        }
        // An aggregate variable that lost its initializer resolves to nothing.
        let HExpr::ListCount(view) = *prog
            .exprs
            .iter()
            .find(|e| matches!(e, HExpr::ListCount(_)))
            .unwrap()
        else {
            unreachable!()
        };
        assert!(prog.view_chain(view).is_some());
        prog.aggregate_init.fill(None);
        assert_eq!(prog.view_chain(view), None);
    }

    #[test]
    fn children_tell_a_lambda_body_from_its_source() {
        let prog = hir("SET(R1, SUBFLOWS.FILTER(s => s.RTT > R2).SUM(t => t.CWND));");
        let HStmt::SetReg { value, .. } = *prog.stmt(prog.body[0]) else {
            panic!("SET");
        };
        let Children::Scan { source, var, body } = prog.children(value) else {
            panic!("SUM is a scan");
        };
        assert!(matches!(prog.expr(source), HExpr::ListFilter { .. }));
        assert!(
            matches!(*prog.expr(body), HExpr::SubflowProp { sbf, .. } if *prog.expr(sbf) == HExpr::ReadVar(var))
        );
        assert_eq!(
            prog.children(value).iter().collect::<Vec<_>>(),
            [source, body]
        );
        assert_eq!(prog.children(body).iter().count(), 1);
        // Pre-order: the node, then its source subtree, then the body.
        let order: Vec<ExprId> = prog.subexprs(value).collect();
        assert_eq!(order[0], value);
        assert_eq!(order[1], source);
        // SUM, FILTER, SUBFLOWS, `>`, RTT, s, R2, CWND, t.
        assert_eq!(order.len(), 9);
        assert_eq!(order[8], prog.children(body).iter().next().unwrap());
    }

    #[test]
    fn stmts_in_is_source_order_over_nested_blocks() {
        let prog = hir("SET(R1, 1);
             IF (R1 > 0) { SET(R2, 2); FOREACH (VAR s IN SUBFLOWS) { SET(R3, 3); } }
             ELSE { SET(R4, 4); }
             SET(R5, 5);");
        let written: Vec<usize> = prog
            .stmts_in(&prog.body)
            .filter_map(|sid| match prog.stmt(sid) {
                HStmt::SetReg { reg, .. } => Some(reg.index() + 1),
                _ => None,
            })
            .collect();
        assert_eq!(written, [1, 2, 3, 4, 5]);
        assert_eq!(prog.stmts_in(&prog.body).count(), 7);
        let lines: Vec<u32> = prog
            .stmts_in(&prog.body)
            .map(|sid| prog.stmt_pos(sid).line)
            .collect();
        assert!(lines.windows(2).all(|w| w[0] <= w[1]), "{lines:?}");
    }
}
