//! Seeded generator of well-typed ProgMP programs and randomized
//! environments.
//!
//! Programs are built directly as [`progmp_core::ast`] trees, by
//! construction satisfying every rule `sema` enforces:
//!
//! * globally unique variable names (no redeclaration or shadowing, in
//!   blocks or lambdas);
//! * static typing of every operator, property, aggregate fold, and
//!   builtin;
//! * `POP()` only in effect positions (`VAR` initializers, `PUSH` packet
//!   arguments, `DROP` arguments), never in conditions, lambda bodies,
//!   `GET` indices, or `SET` values;
//! * `NULL` only where a packet/subflow type is inferable, never
//!   `NULL == NULL` or `VAR x = NULL`;
//! * integer literals are non-negative (negation is an explicit unary
//!   node), so the printed program re-parses to the identical tree.
//!
//! A generated program is rendered through the canonical printer and
//! compiled from source, so every case also exercises the lexer, parser,
//! and printer round-trip, not just the backend pipeline.

use crate::rng::Draw;
use mptcp_sim::ChaosRng;
use progmp_core::ast::{BinOp, Expr, ExprKind, Program, Stmt, StmtKind, UnOp};
use progmp_core::env::{PacketProp, QueueKind, RegId, SubflowProp, NUM_REGISTERS};
use progmp_core::error::Pos;
use progmp_core::testenv::MockEnv;
use progmp_core::Type;

fn pos() -> Pos {
    Pos { line: 1, col: 1 }
}

fn expr(kind: ExprKind) -> Expr {
    Expr { pos: pos(), kind }
}

fn stmt(kind: StmtKind) -> Stmt {
    Stmt { pos: pos(), kind }
}

/// Maximum statements per block: programs stay small and dense.
const MAX_BLOCK_LEN: usize = 5;
/// Maximum expression depth.
const MAX_EXPR_DEPTH: u32 = 4;
/// Maximum statement nesting depth (IF/FOREACH).
const MAX_STMT_DEPTH: u32 = 3;

/// The program/environment generator. One instance per seed.
pub struct Generator {
    rng: ChaosRng,
    next_name: u32,
    /// Lexical scope stack: each frame holds `(name, type)` bindings.
    scopes: Vec<Vec<(String, Type)>>,
}

const INT_SUBFLOW_PROPS: [SubflowProp; 13] = [
    SubflowProp::Id,
    SubflowProp::Rtt,
    SubflowProp::RttVar,
    SubflowProp::Cwnd,
    SubflowProp::Ssthresh,
    SubflowProp::SkbsInFlight,
    SubflowProp::Queued,
    SubflowProp::LostSkbs,
    SubflowProp::Mss,
    SubflowProp::Bw,
    SubflowProp::RwndFree,
    SubflowProp::LastActAge,
    SubflowProp::Cost,
];

const BOOL_SUBFLOW_PROPS: [SubflowProp; 3] = [
    SubflowProp::IsBackup,
    SubflowProp::TsqThrottled,
    SubflowProp::Lossy,
];

impl Generator {
    /// Creates a generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Generator {
            rng: ChaosRng::new(seed),
            next_name: 0,
            scopes: vec![Vec::new()],
        }
    }

    /// Generates one well-typed, compilable program.
    ///
    /// Typing is guaranteed by construction, but backend *resource*
    /// limits (the VM's spill-slot budget) can still reject a deeply
    /// nested candidate; those are retried by drawing further from the
    /// seed's RNG stream, so the result stays a pure function of the
    /// seed. A lex/parse/sema rejection is a generator bug and panics.
    pub fn program(&mut self) -> Program {
        for _ in 0..64 {
            self.next_name = 0;
            self.scopes = vec![Vec::new()];
            let len = 1 + self.rng.below(MAX_BLOCK_LEN as u64) as usize;
            let candidate = Program {
                body: self.block(len, 0),
            };
            match crate::compile_observed(&candidate.to_string()) {
                Ok(_) => return candidate,
                Err(e) if e.stage == progmp_core::error::Stage::Codegen => continue,
                Err(e) => panic!("generator produced an ill-typed program: {e}\n{candidate}"),
            }
        }
        panic!("generator could not produce a compilable program in 64 attempts")
    }

    /// Generates a randomized environment for differential execution.
    pub fn env_spec(&mut self) -> EnvSpec {
        let mut spec = EnvSpec::default();
        let n_subflows = self.rng.below(4) as u32; // 0..=3, including none
        for i in 0..n_subflows {
            let mut props = Vec::new();
            for p in INT_SUBFLOW_PROPS {
                if self.rng.chance(60) {
                    props.push((p, self.rng.range_i64(0, 100_000)));
                }
            }
            for p in BOOL_SUBFLOW_PROPS {
                if self.rng.chance(30) {
                    props.push((p, 1));
                }
            }
            spec.subflows.push(SubflowSpec {
                id: i,
                props,
                has_window: self.rng.chance(80),
            });
        }
        let n_packets = self.rng.below(7);
        for i in 0..n_packets {
            let queue = *self.rng.pick(&QueueKind::ALL);
            let mut props = Vec::new();
            if self.rng.chance(40) {
                props.push((PacketProp::UserProp, self.rng.range_i64(0, 7)));
            }
            if self.rng.chance(30) {
                props.push((PacketProp::Age, self.rng.range_i64(0, 1_000_000)));
            }
            let mut sent_on = Vec::new();
            if queue != QueueKind::SendQueue && n_subflows > 0 && self.rng.chance(60) {
                sent_on.push(self.rng.below(u64::from(n_subflows)) as u32);
            }
            spec.packets.push(PacketSpec {
                id: i + 1,
                queue,
                seq: i as i64 * 1400,
                size: self.rng.range_i64(1, 1460),
                props,
                sent_on,
            });
        }
        for r in 0..NUM_REGISTERS {
            if self.rng.chance(40) {
                spec.registers[r] = self.rng.range_i64(-10, 100);
            }
        }
        spec
    }

    // ---- scope management -------------------------------------------------

    fn fresh(&mut self, ty: Type) -> String {
        let name = format!("v{}", self.next_name);
        self.next_name += 1;
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .push((name.clone(), ty));
        name
    }

    fn vars_of(&self, ty: Type) -> Vec<String> {
        self.scopes
            .iter()
            .flatten()
            .filter(|(_, t)| *t == ty)
            .map(|(n, _)| n.clone())
            .collect()
    }

    // ---- statements -------------------------------------------------------

    fn block(&mut self, len: usize, depth: u32) -> Vec<Stmt> {
        self.scopes.push(Vec::new());
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.statement(depth));
        }
        self.scopes.pop();
        out
    }

    fn statement(&mut self, depth: u32) -> Stmt {
        let nested_ok = depth < MAX_STMT_DEPTH;
        loop {
            let roll = self.rng.below(100);
            let kind = match roll {
                0..=24 => self.var_decl(),
                25..=44 if nested_ok => self.if_stmt(depth),
                45..=54 if nested_ok => self.foreach(depth),
                55..=69 => self.set_reg(),
                70..=87 => self.push(),
                88..=95 => StmtKind::Drop {
                    packet: self.packet_expr(MAX_EXPR_DEPTH, true),
                },
                96..=97 => StmtKind::Return,
                _ => continue, // re-roll when nesting is capped
            };
            return stmt(kind);
        }
    }

    fn var_decl(&mut self) -> StmtKind {
        let d = MAX_EXPR_DEPTH;
        let roll = self.rng.below(100);
        // POP() is allowed here (effect position), so packet declarations
        // get extra weight: they are the idiomatic ProgMP shape
        // (`VAR skb = Q.POP();`).
        let (init, ty) = match roll {
            0..=29 => (self.packet_expr(d, true), Type::Packet),
            30..=49 => (self.int_expr(d, false), Type::Int),
            50..=64 => (self.bool_expr(d), Type::Bool),
            65..=79 => (self.subflow_expr(d), Type::Subflow),
            80..=89 => (self.list_expr(d), Type::SubflowList),
            _ => (self.queue_expr(d), Type::PacketQueue),
        };
        let name = self.fresh(ty);
        StmtKind::VarDecl { name, init }
    }

    fn if_stmt(&mut self, depth: u32) -> StmtKind {
        let cond = self.bool_expr(MAX_EXPR_DEPTH);
        let then_len = 1 + self.rng.below(MAX_BLOCK_LEN as u64 / 2 + 1) as usize;
        let then_body = self.block(then_len, depth + 1);
        let else_body = if self.rng.chance(40) {
            let else_len = 1 + self.rng.below(MAX_BLOCK_LEN as u64 / 2 + 1) as usize;
            self.block(else_len, depth + 1)
        } else {
            Vec::new()
        };
        StmtKind::If {
            cond,
            then_body,
            else_body,
        }
    }

    fn foreach(&mut self, depth: u32) -> StmtKind {
        let list = self.list_expr(MAX_EXPR_DEPTH);
        // The binder lives in the body scope; sema opens one scope for the
        // binder itself, then blocks inside open their own.
        self.scopes.push(Vec::new());
        let var = self.fresh(Type::Subflow);
        let len = 1 + self.rng.below(2) as usize;
        let body = self.block(len, depth + 1);
        self.scopes.pop();
        StmtKind::Foreach { var, list, body }
    }

    fn set_reg(&mut self) -> StmtKind {
        let reg = RegId::new(1 + self.rng.below(NUM_REGISTERS as u64) as u8)
            .expect("register index in range");
        StmtKind::SetReg {
            reg,
            value: self.int_expr(MAX_EXPR_DEPTH, false),
        }
    }

    fn push(&mut self) -> StmtKind {
        let target = self.subflow_expr(MAX_EXPR_DEPTH);
        let packet = if self.rng.chance(5) {
            expr(ExprKind::Null)
        } else {
            self.packet_expr(MAX_EXPR_DEPTH, true)
        };
        StmtKind::Push { target, packet }
    }

    // ---- expressions ------------------------------------------------------

    /// Integer expression. `in_lambda` suppresses nothing type-wise but is
    /// kept for symmetry; purity is enforced by never emitting POP here.
    fn int_expr(&mut self, depth: u32, in_lambda: bool) -> Expr {
        let vars = self.vars_of(Type::Int);
        if depth == 0 {
            return match self.rng.below(if vars.is_empty() { 2 } else { 3 }) {
                0 => expr(ExprKind::Int(self.int_literal())),
                1 => expr(ExprKind::Reg(self.reg())),
                _ => expr(ExprKind::Var(self.rng.pick(&vars).clone())),
            };
        }
        let _ = in_lambda;
        match self.rng.below(100) {
            0..=14 => expr(ExprKind::Int(self.int_literal())),
            15..=24 => expr(ExprKind::Reg(self.reg())),
            25..=34 if !vars.is_empty() => expr(ExprKind::Var(self.rng.pick(&vars).clone())),
            35..=54 => expr(ExprKind::Binary {
                op: *self
                    .rng
                    .pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Rem]),
                lhs: Box::new(self.int_expr(depth - 1, in_lambda)),
                rhs: Box::new(self.int_expr(depth - 1, in_lambda)),
            }),
            55..=59 => expr(ExprKind::Unary {
                op: UnOp::Neg,
                expr: Box::new(self.int_expr(depth - 1, in_lambda)),
            }),
            60..=74 => expr(ExprKind::Prop {
                obj: Box::new(self.subflow_expr(depth - 1)),
                name: self.rng.pick(&INT_SUBFLOW_PROPS).name().to_string(),
            }),
            75..=84 => expr(ExprKind::Prop {
                obj: Box::new(self.packet_expr(depth - 1, false)),
                name: self.rng.pick(&PacketProp::ALL).name().to_string(),
            }),
            85..=89 => expr(ExprKind::Prop {
                obj: Box::new(self.list_expr(depth - 1)),
                name: "COUNT".to_string(),
            }),
            90..=93 => expr(ExprKind::Prop {
                obj: Box::new(self.queue_expr(depth - 1)),
                name: "COUNT".to_string(),
            }),
            94..=96 => self.sum_expr(depth, true),
            97..=99 => self.sum_expr(depth, false),
            _ => expr(ExprKind::Int(self.int_literal())),
        }
    }

    fn sum_expr(&mut self, depth: u32, over_list: bool) -> Expr {
        if over_list {
            let obj = Box::new(self.list_expr(depth - 1));
            self.scopes.push(Vec::new());
            let var = self.fresh(Type::Subflow);
            let key = Box::new(self.int_expr(depth - 1, true));
            self.scopes.pop();
            expr(ExprKind::Sum { obj, var, key })
        } else {
            let obj = Box::new(self.queue_expr(depth - 1));
            self.scopes.push(Vec::new());
            let var = self.fresh(Type::Packet);
            let key = Box::new(self.int_expr(depth - 1, true));
            self.scopes.pop();
            expr(ExprKind::Sum { obj, var, key })
        }
    }

    /// Non-negative literal with a bias toward boundary values; negativity
    /// is expressed by an explicit unary minus so printing round-trips.
    fn int_literal(&mut self) -> i64 {
        match self.rng.below(10) {
            0 => 0,
            1 => 1,
            2 => 2,
            3 => 1400,
            4 => 100_000,
            _ => self.rng.range_i64(0, 50),
        }
    }

    fn reg(&mut self) -> RegId {
        RegId::new(1 + self.rng.below(NUM_REGISTERS as u64) as u8).expect("in range")
    }

    fn bool_expr(&mut self, depth: u32) -> Expr {
        let vars = self.vars_of(Type::Bool);
        if depth == 0 {
            if !vars.is_empty() && self.rng.chance(40) {
                return expr(ExprKind::Var(self.rng.pick(&vars).clone()));
            }
            return expr(ExprKind::Bool(self.rng.chance(50)));
        }
        match self.rng.below(100) {
            0..=7 => expr(ExprKind::Bool(self.rng.chance(50))),
            8..=13 if !vars.is_empty() => expr(ExprKind::Var(self.rng.pick(&vars).clone())),
            14..=35 => expr(ExprKind::Binary {
                op: *self.rng.pick(&[
                    BinOp::Eq,
                    BinOp::Ne,
                    BinOp::Lt,
                    BinOp::Le,
                    BinOp::Gt,
                    BinOp::Ge,
                ]),
                lhs: Box::new(self.int_expr(depth - 1, false)),
                rhs: Box::new(self.int_expr(depth - 1, false)),
            }),
            36..=49 => expr(ExprKind::Binary {
                op: *self.rng.pick(&[BinOp::And, BinOp::Or]),
                lhs: Box::new(self.bool_expr(depth - 1)),
                rhs: Box::new(self.bool_expr(depth - 1)),
            }),
            50..=56 => expr(ExprKind::Unary {
                op: UnOp::Not,
                expr: Box::new(self.bool_expr(depth - 1)),
            }),
            57..=64 => expr(ExprKind::Prop {
                obj: Box::new(self.queue_expr(depth - 1)),
                name: "EMPTY".to_string(),
            }),
            65..=70 => expr(ExprKind::Prop {
                obj: Box::new(self.list_expr(depth - 1)),
                name: "EMPTY".to_string(),
            }),
            71..=77 => expr(ExprKind::Prop {
                obj: Box::new(self.subflow_expr(depth - 1)),
                name: self.rng.pick(&BOOL_SUBFLOW_PROPS).name().to_string(),
            }),
            78..=84 => self.null_comparison(depth),
            85..=90 => expr(ExprKind::SentOn {
                pkt: Box::new(self.packet_expr(depth - 1, false)),
                sbf: Box::new(self.subflow_expr(depth - 1)),
            }),
            91..=96 => expr(ExprKind::HasWindowFor {
                sbf: Box::new(self.subflow_expr(depth - 1)),
                pkt: Box::new(self.packet_expr(depth - 1, false)),
            }),
            _ => expr(ExprKind::Binary {
                op: *self.rng.pick(&[BinOp::Eq, BinOp::Ne]),
                lhs: Box::new(self.packet_expr(depth - 1, false)),
                rhs: Box::new(self.packet_expr(depth - 1, false)),
            }),
        }
    }

    /// `nullable == NULL` / `NULL != nullable` with the typed side pure.
    fn null_comparison(&mut self, depth: u32) -> Expr {
        let typed = if self.rng.chance(50) {
            self.packet_expr(depth - 1, false)
        } else {
            self.subflow_expr(depth - 1)
        };
        let null = expr(ExprKind::Null);
        let (lhs, rhs) = if self.rng.chance(50) {
            (typed, null)
        } else {
            (null, typed)
        };
        expr(ExprKind::Binary {
            op: *self.rng.pick(&[BinOp::Eq, BinOp::Ne]),
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        })
    }

    /// Packet expression. `effect` permits `POP()` (VAR init / PUSH / DROP
    /// argument positions only).
    fn packet_expr(&mut self, depth: u32, effect: bool) -> Expr {
        let vars = self.vars_of(Type::Packet);
        if depth == 0 || (self.rng.chance(25) && !vars.is_empty()) {
            if !vars.is_empty() {
                return expr(ExprKind::Var(self.rng.pick(&vars).clone()));
            }
            // No packet vars in scope: fall back to a queue head.
            return expr(ExprKind::Prop {
                obj: Box::new(self.queue_leaf()),
                name: "TOP".to_string(),
            });
        }
        let roll = self.rng.below(100);
        if effect && roll < 45 {
            return expr(ExprKind::Pop {
                obj: Box::new(self.queue_expr(depth - 1)),
            });
        }
        match roll {
            45..=74 => expr(ExprKind::Prop {
                obj: Box::new(self.queue_expr(depth - 1)),
                name: "TOP".to_string(),
            }),
            _ => {
                let obj = Box::new(self.queue_expr(depth - 1));
                self.scopes.push(Vec::new());
                let var = self.fresh(Type::Packet);
                let key = Box::new(self.int_expr(depth - 1, true));
                self.scopes.pop();
                expr(ExprKind::MinMax {
                    obj,
                    var,
                    key,
                    is_max: self.rng.chance(50),
                })
            }
        }
    }

    fn subflow_expr(&mut self, depth: u32) -> Expr {
        let vars = self.vars_of(Type::Subflow);
        if depth == 0 || (self.rng.chance(30) && !vars.is_empty()) {
            if !vars.is_empty() {
                return expr(ExprKind::Var(self.rng.pick(&vars).clone()));
            }
            return expr(ExprKind::Get {
                obj: Box::new(expr(ExprKind::Subflows)),
                index: Box::new(expr(ExprKind::Int(self.rng.range_i64(0, 3)))),
            });
        }
        match self.rng.below(100) {
            0..=44 => expr(ExprKind::Get {
                obj: Box::new(self.list_expr(depth - 1)),
                index: Box::new(self.int_expr(depth - 1, false)),
            }),
            _ => {
                let obj = Box::new(self.list_expr(depth - 1));
                self.scopes.push(Vec::new());
                let var = self.fresh(Type::Subflow);
                let key = Box::new(self.int_expr(depth - 1, true));
                self.scopes.pop();
                expr(ExprKind::MinMax {
                    obj,
                    var,
                    key,
                    is_max: self.rng.chance(50),
                })
            }
        }
    }

    fn list_expr(&mut self, depth: u32) -> Expr {
        let vars = self.vars_of(Type::SubflowList);
        if depth == 0 {
            if !vars.is_empty() && self.rng.chance(40) {
                return expr(ExprKind::Var(self.rng.pick(&vars).clone()));
            }
            return expr(ExprKind::Subflows);
        }
        match self.rng.below(100) {
            0..=54 => expr(ExprKind::Subflows),
            55..=64 if !vars.is_empty() => expr(ExprKind::Var(self.rng.pick(&vars).clone())),
            _ => {
                let obj = Box::new(self.list_expr(depth - 1));
                self.scopes.push(Vec::new());
                let var = self.fresh(Type::Subflow);
                let pred = Box::new(self.bool_expr(depth - 1));
                self.scopes.pop();
                expr(ExprKind::Filter { obj, var, pred })
            }
        }
    }

    fn queue_leaf(&mut self) -> Expr {
        expr(ExprKind::Queue(*self.rng.pick(&QueueKind::ALL)))
    }

    fn queue_expr(&mut self, depth: u32) -> Expr {
        let vars = self.vars_of(Type::PacketQueue);
        if depth == 0 {
            if !vars.is_empty() && self.rng.chance(40) {
                return expr(ExprKind::Var(self.rng.pick(&vars).clone()));
            }
            return self.queue_leaf();
        }
        match self.rng.below(100) {
            0..=59 => self.queue_leaf(),
            60..=69 if !vars.is_empty() => expr(ExprKind::Var(self.rng.pick(&vars).clone())),
            _ => {
                let obj = Box::new(self.queue_expr(depth - 1));
                self.scopes.push(Vec::new());
                let var = self.fresh(Type::Packet);
                let pred = Box::new(self.bool_expr(depth - 1));
                self.scopes.pop();
                expr(ExprKind::Filter { obj, var, pred })
            }
        }
    }
}

// ---- environment specification -------------------------------------------

/// One subflow of an [`EnvSpec`].
#[derive(Debug, Clone)]
pub struct SubflowSpec {
    /// Identifier.
    pub id: u32,
    /// Non-default properties.
    pub props: Vec<(SubflowProp, i64)>,
    /// Whether `HAS_WINDOW_FOR` reports true.
    pub has_window: bool,
}

/// One packet of an [`EnvSpec`].
#[derive(Debug, Clone)]
pub struct PacketSpec {
    /// Handle.
    pub id: u64,
    /// The queue the packet sits in.
    pub queue: QueueKind,
    /// Data sequence number.
    pub seq: i64,
    /// Payload size.
    pub size: i64,
    /// Extra properties.
    pub props: Vec<(PacketProp, i64)>,
    /// Subflows the packet was already transmitted on.
    pub sent_on: Vec<u32>,
}

/// A declarative, shrinkable description of a [`MockEnv`] starting state.
///
/// The shrinker operates on specs (drop a packet, drop a subflow, zero a
/// register) and rebuilds the concrete environment per attempt, so the
/// minimized repro is printable as plain data.
#[derive(Debug, Clone, Default)]
pub struct EnvSpec {
    /// Subflows, in establishment order.
    pub subflows: Vec<SubflowSpec>,
    /// Packets, in queue-arrival order.
    pub packets: Vec<PacketSpec>,
    /// Initial scheduler registers.
    pub registers: [i64; NUM_REGISTERS],
}

impl EnvSpec {
    /// Materializes the described [`MockEnv`].
    pub fn build(&self) -> MockEnv {
        let mut env = MockEnv::new();
        for s in &self.subflows {
            env.add_subflow(s.id);
            for (p, v) in &s.props {
                env.set_subflow_prop(s.id, *p, *v);
            }
            env.set_has_window(s.id, s.has_window);
        }
        for p in &self.packets {
            env.push_packet(p.queue, p.id, p.seq, p.size);
            for (prop, v) in &p.props {
                env.set_packet_prop(p.id, *prop, *v);
            }
            for s in &p.sent_on {
                env.mark_sent_on(p.id, *s);
            }
        }
        for (i, v) in self.registers.iter().enumerate() {
            if *v != 0 {
                env.set_register(RegId::new(i as u8 + 1).expect("in range"), *v);
            }
        }
        env
    }

    /// Human-readable description for divergence reports.
    pub fn render(&self) -> String {
        self.build().state_fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use progmp_core::printer::print_program;

    #[test]
    fn generated_programs_compile() {
        for seed in 0..200 {
            let mut generator = Generator::new(seed);
            let program = generator.program();
            let src = print_program(&program);
            crate::compile_observed(&src).unwrap_or_else(|e| {
                panic!("seed {seed}: generated program must compile: {e}\n{src}")
            });
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let mk = |seed| {
            let mut generator = Generator::new(seed);
            (
                print_program(&generator.program()),
                generator.env_spec().render(),
            )
        };
        assert_eq!(mk(42), mk(42));
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn printed_program_reparses_identically() {
        for seed in 0..100 {
            let mut generator = Generator::new(seed);
            let program = generator.program();
            let printed = print_program(&program);
            let reparsed = progmp_core::parser::parse(&printed).unwrap_or_else(|e| {
                panic!("seed {seed}: printed program must parse: {e}\n{printed}")
            });
            assert_eq!(
                print_program(&reparsed),
                printed,
                "seed {seed}: printing must be idempotent"
            );
        }
    }

    #[test]
    fn env_spec_builds_consistently() {
        let mut generator = Generator::new(9);
        let spec = generator.env_spec();
        assert_eq!(
            spec.build().state_fingerprint(),
            spec.build().state_fingerprint()
        );
    }
}
