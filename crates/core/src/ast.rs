//! Untyped abstract syntax tree produced by the parser.
//!
//! The AST is deliberately close to the surface syntax; name/property
//! resolution, typing, and the semantic restrictions of the programming
//! model are performed by [`crate::sema`], which lowers the AST to the
//! typed [`crate::hir`] used by all three execution backends.

use crate::env::{QueueKind, RegId};
use crate::error::Pos;

/// A parsed scheduler program: a sequence of statements.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Top-level statements, in source order.
    pub body: Vec<Stmt>,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Source position of the statement's first token.
    pub pos: Pos,
    /// The statement's payload.
    pub kind: StmtKind,
}

/// Statement kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `VAR name = expr;` — single-assignment variable declaration.
    VarDecl {
        /// Variable name.
        name: String,
        /// Initializer expression.
        init: Expr,
    },
    /// `IF (cond) { then } ELSE { else }`.
    If {
        /// Condition (must be boolean).
        cond: Expr,
        /// Statements of the then-branch.
        then_body: Vec<Stmt>,
        /// Statements of the else-branch (empty when absent).
        else_body: Vec<Stmt>,
    },
    /// `FOREACH (VAR v IN list) { body }` — iterate a subflow list.
    Foreach {
        /// Loop variable name (bound to each subflow in turn).
        var: String,
        /// The subflow list to iterate.
        list: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `SET(Rn, expr);` — write a scheduler register.
    SetReg {
        /// Target register.
        reg: RegId,
        /// New value (integer expression).
        value: Expr,
    },
    /// `target.PUSH(packet);` — schedule `packet` on subflow `target`.
    Push {
        /// Subflow expression.
        target: Expr,
        /// Packet expression.
        packet: Expr,
    },
    /// `DROP(packet);` — discard a packet from the schedulable queues.
    Drop {
        /// Packet expression.
        packet: Expr,
    },
    /// `RETURN;` — end this scheduler execution.
    Return,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// Source position of the expression's first token.
    pub pos: Pos,
    /// The expression's payload.
    pub kind: ExprKind,
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    Int(i64),
    /// Boolean literal (`TRUE` / `FALSE`).
    Bool(bool),
    /// `NULL` — the absent packet or subflow.
    Null,
    /// A scheduler register `R1` .. `R8`.
    Reg(RegId),
    /// A variable reference.
    Var(String),
    /// The builtin set of all subflows, `SUBFLOWS`.
    Subflows,
    /// One of the builtin queues `Q`, `QU`, `RQ`.
    Queue(QueueKind),
    /// Property access `obj.NAME` (resolved during sema; includes
    /// pseudo-properties such as `EMPTY`, `COUNT`, and `TOP`).
    Prop {
        /// Receiver expression.
        obj: Box<Expr>,
        /// Property name as written.
        name: String,
    },
    /// `obj.FILTER(v => pred)` on a subflow list or queue.
    Filter {
        /// Receiver expression.
        obj: Box<Expr>,
        /// Lambda parameter name.
        var: String,
        /// Boolean predicate over the lambda parameter.
        pred: Box<Expr>,
    },
    /// `obj.MIN(v => key)` / `obj.MAX(v => key)` — element with the
    /// minimal/maximal integer key; `NULL` for an empty receiver.
    MinMax {
        /// Receiver expression.
        obj: Box<Expr>,
        /// Lambda parameter name.
        var: String,
        /// Integer key over the lambda parameter.
        key: Box<Expr>,
        /// True for `MAX`, false for `MIN`.
        is_max: bool,
    },
    /// `obj.SUM(v => key)` — sum of the integer key over all elements.
    Sum {
        /// Receiver expression.
        obj: Box<Expr>,
        /// Lambda parameter name.
        var: String,
        /// Integer key over the lambda parameter.
        key: Box<Expr>,
    },
    /// `list.GET(index)` — element at `index`, `NULL` if out of range.
    Get {
        /// Receiver (subflow list).
        obj: Box<Expr>,
        /// Zero-based index.
        index: Box<Expr>,
    },
    /// `queue.POP()` — remove and return the first (matching) packet.
    Pop {
        /// Receiver (queue, possibly filtered).
        obj: Box<Expr>,
    },
    /// `packet.SENT_ON(subflow)`.
    SentOn {
        /// Packet expression.
        pkt: Box<Expr>,
        /// Subflow expression.
        sbf: Box<Expr>,
    },
    /// `subflow.HAS_WINDOW_FOR(packet)`.
    HasWindowFor {
        /// Subflow expression.
        sbf: Box<Expr>,
        /// Packet expression.
        pkt: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Boolean negation (`!` / `NOT`).
    Not,
    /// Integer negation (`-`).
    Neg,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (division by zero yields 0, as in eBPF)
    Div,
    /// `%` (modulo by zero yields 0)
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND` (no short-circuit side effects exist: predicates are pure)
    And,
    /// `OR`
    Or,
}

impl BinOp {
    /// True for `==`/`!=`/`<`/`<=`/`>`/`>=`.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// True for `+`/`-`/`*`/`/`/`%`.
    pub fn is_arith(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem
        )
    }

    /// True for `AND`/`OR`.
    pub fn is_logic(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    /// The language's integer arithmetic, as the interpreter, the AOT
    /// backend and the constant folder all evaluate it: `+`, `-` and `*`
    /// wrap, and `x / 0 == x % 0 == 0` (as in eBPF). `None` for the
    /// comparison and logic operators, whose result is not an integer.
    #[inline]
    pub fn eval_int(self, a: i64, b: i64) -> Option<i64> {
        Some(match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div if b == 0 => 0,
            BinOp::Div => a.wrapping_div(b),
            BinOp::Rem if b == 0 => 0,
            BinOp::Rem => a.wrapping_rem(b),
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_classification_is_partition() {
        let all = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Rem,
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::And,
            BinOp::Or,
        ];
        for op in all {
            let n = usize::from(op.is_comparison())
                + usize::from(op.is_arith())
                + usize::from(op.is_logic());
            assert_eq!(n, 1, "{op:?} must be in exactly one class");
        }
    }
}
