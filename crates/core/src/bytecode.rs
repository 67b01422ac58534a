//! The eBPF-flavoured bytecode ISA (execution environment #3, paper §4.1).
//!
//! The paper cross-compiles the scheduler IR *inside the kernel* to eBPF
//! assembly and lets the kernel JIT produce native code. We reproduce the
//! architecture with a safe register VM. Its register conventions:
//!
//! * eleven 64-bit registers `r0`–`r10`;
//! * `r0`–`r9` are general purpose: the register allocator hands out all
//!   of them but the two spill [`SCRATCH`] registers `r8` / `r9`
//!   ([`is_allocatable`]);
//! * `r10` is the (read-only) frame pointer; spill slots live in a
//!   bounded stack;
//! * two-address ALU ops, compare-and-jump branches, and helper calls
//!   into the scheduling runtime ([`crate::exec::ExecCtx`]).
//!
//! A helper call is one three-address instruction, `dst = helper(a, b)`:
//! each operand is a register or a small immediate, and the call writes
//! `dst` only, or nothing for a void helper. This departs from eBPF's
//! convention (arguments in `r1`–`r5`, result in `r0`, `r1`–`r5`
//! clobbered). That convention is free for a JIT, whose argument
//! registers are the machine's; an interpreter would dispatch and charge
//! every argument and result move as an instruction of its own, and the
//! clobber set would keep values out of half the register file.
//!
//! Division or modulo by zero yields zero, as in eBPF.

use crate::env::{PacketProp, QueueKind, SubflowProp};
use crate::error::Pos;
use std::fmt;

/// Number of machine registers (`r0` .. `r10`).
pub const NUM_MACH_REGS: usize = 11;

/// The registers the allocator keeps back for spill code: a spilled
/// operand is loaded into one of them, and a result bound for a stack
/// slot is computed in the first.
pub const SCRATCH: [u8; 2] = [8, 9];

/// Whether the register allocator hands `r` out: `r0`–`r9` less
/// [`SCRATCH`]. A value allocated to one of these keeps its home there
/// for its whole lifetime, helper calls included.
pub fn is_allocatable(r: u8) -> bool {
    r < 10 && !SCRATCH.contains(&r)
}

/// Maximum stack slots (each 8 bytes). The eBPF stack is 512 bytes; we
/// keep the same budget: 64 slots.
pub const MAX_STACK_SLOTS: usize = 64;

/// Arithmetic-logic operations (two-address: `dst = dst op src`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Division; by zero yields 0.
    Div,
    /// Remainder; by zero yields 0.
    Rem,
    /// Bitwise and (used for boolean `AND`).
    And,
    /// Bitwise or (used for boolean `OR`).
    Or,
    /// Bitwise xor (used for boolean `NOT` via `^ 1`).
    Xor,
}

impl AluOp {
    /// Evaluates the operation, as the VM executes it and the bytecode
    /// optimizer folds it: `Add`, `Sub` and `Mul` wrap, and division or
    /// remainder by zero yields 0.
    #[inline]
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div if b == 0 => 0,
            AluOp::Div => a.wrapping_div(b),
            AluOp::Rem if b == 0 => 0,
            AluOp::Rem => a.wrapping_rem(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
        }
    }
}

/// Branch conditions (signed comparisons).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cond {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<` (signed)
    Lt,
    /// `<=` (signed)
    Le,
    /// `>` (signed)
    Gt,
    /// `>=` (signed)
    Ge,
}

impl Cond {
    /// Evaluates the condition on two signed values.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Le => a <= b,
            Cond::Gt => a > b,
            Cond::Ge => a >= b,
        }
    }
}

/// Runtime helper functions callable from bytecode, as
/// `dst = helper(a, b)` ([`Insn::Call`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Helper {
    /// `dst = registers[a]`
    GetReg,
    /// `set registers[a] = b`
    SetReg,
    /// `dst = number of subflows`
    SubflowCount,
    /// `dst = handle of subflow at index a, or NULL_HANDLE`
    SubflowAt,
    /// `dst = property b of subflow a`
    SubflowProp,
    /// `dst = raw length of queue a`
    QueueLen,
    /// `dst = packet at index b of queue a (NULL_HANDLE if removed/oob)`
    QueueGet,
    /// `dst = property b of packet a`
    PacketProp,
    /// `dst = packet a sent on subflow b`
    SentOn,
    /// `dst = subflow a has window for packet b`
    HasWindowFor,
    /// `pop packet a from its queue view`
    Pop,
    /// `push packet b on subflow a`
    Push,
    /// `drop packet a`
    DropPkt,
}

impl Helper {
    /// Number of operands the helper reads (`a`, then `b`).
    pub fn arg_count(self) -> usize {
        match self {
            Helper::SubflowCount => 0,
            Helper::GetReg
            | Helper::SubflowAt
            | Helper::QueueLen
            | Helper::Pop
            | Helper::DropPkt => 1,
            Helper::SetReg
            | Helper::SubflowProp
            | Helper::QueueGet
            | Helper::PacketProp
            | Helper::SentOn
            | Helper::HasWindowFor
            | Helper::Push => 2,
        }
    }

    /// Whether the helper writes a value to its `dst`. Every helper that
    /// does is pure; the void ones are the effects.
    pub fn has_result(self) -> bool {
        !matches!(
            self,
            Helper::SetReg | Helper::Pop | Helper::Push | Helper::DropPkt
        )
    }

    /// Which operand (0 = `a`, 1 = `b`) carries an enum code: a register,
    /// queue or property id, which must be an immediate
    /// ([`crate::vm::verify`] checks it).
    pub fn code_operand(self) -> Option<usize> {
        match self {
            Helper::GetReg | Helper::SetReg | Helper::QueueLen | Helper::QueueGet => Some(0),
            Helper::SubflowProp | Helper::PacketProp => Some(1),
            _ => None,
        }
    }

    /// The operands a call `dst = self(a, b)` reads.
    pub fn args(self, a: Operand, b: Operand) -> impl Iterator<Item = Operand> {
        [a, b].into_iter().take(self.arg_count())
    }
}

/// A helper-call operand: a register, or an immediate small enough to
/// keep [`Insn`] at 16 bytes. A wider constant goes through a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// The value of a register.
    Reg(u8),
    /// A constant.
    Imm(i16),
}

impl Operand {
    /// The register read, if any.
    pub fn reg(self) -> Option<u8> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "r{r}"),
            Operand::Imm(imm) => write!(f, "{imm}"),
        }
    }
}

/// One bytecode instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insn {
    /// `dst = imm`
    MovImm {
        /// Destination register.
        dst: u8,
        /// Immediate value.
        imm: i64,
    },
    /// `dst = src`
    Mov {
        /// Destination register.
        dst: u8,
        /// Source register.
        src: u8,
    },
    /// `dst = dst op src`
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination (and left operand) register.
        dst: u8,
        /// Right operand register.
        src: u8,
    },
    /// `dst = dst op imm`
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination (and left operand) register.
        dst: u8,
        /// Immediate right operand.
        imm: i64,
    },
    /// `dst = -dst`
    Neg {
        /// Destination register.
        dst: u8,
    },
    /// Unconditional relative jump. `off` is relative to the *next*
    /// instruction (eBPF convention); `off = 0` is a no-op.
    Ja {
        /// Relative offset.
        off: i32,
    },
    /// Conditional relative jump comparing two registers.
    Jmp {
        /// Condition.
        cond: Cond,
        /// Left operand register.
        lhs: u8,
        /// Right operand register.
        rhs: u8,
        /// Relative offset (taken branch).
        off: i32,
    },
    /// Conditional relative jump comparing a register with an immediate.
    JmpImm {
        /// Condition.
        cond: Cond,
        /// Left operand register.
        lhs: u8,
        /// Immediate right operand.
        imm: i64,
        /// Relative offset (taken branch).
        off: i32,
    },
    /// `dst = helper(a, b)`: reads the first [`Helper::arg_count`]
    /// operands and writes `dst` only, or nothing for a void helper.
    Call {
        /// The helper to invoke.
        helper: Helper,
        /// Destination register of the result (unused when void).
        dst: u8,
        /// First operand.
        a: Operand,
        /// Second operand.
        b: Operand,
    },
    /// `dst = stack[slot]`
    Ld {
        /// Destination register.
        dst: u8,
        /// Stack slot index.
        slot: u16,
    },
    /// `stack[slot] = src`
    St {
        /// Stack slot index.
        slot: u16,
        /// Source register.
        src: u8,
    },
    /// Terminate execution.
    Exit,
}

const _: () = assert!(std::mem::size_of::<Insn>() == 16);

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Insn::MovImm { dst, imm } => write!(f, "r{dst} = {imm}"),
            Insn::Mov { dst, src } => write!(f, "r{dst} = r{src}"),
            Insn::Alu { op, dst, src } => write!(f, "r{dst} {op:?}= r{src}"),
            Insn::AluImm { op, dst, imm } => write!(f, "r{dst} {op:?}= {imm}"),
            Insn::Neg { dst } => write!(f, "r{dst} = -r{dst}"),
            Insn::Ja { off } => write!(f, "ja {off:+}"),
            Insn::Jmp {
                cond,
                lhs,
                rhs,
                off,
            } => write!(f, "if r{lhs} {cond:?} r{rhs} ja {off:+}"),
            Insn::JmpImm {
                cond,
                lhs,
                imm,
                off,
            } => write!(f, "if r{lhs} {cond:?} {imm} ja {off:+}"),
            Insn::Call { helper, dst, a, b } => {
                if helper.has_result() {
                    write!(f, "r{dst} = ")?;
                }
                write!(f, "call {helper:?}(")?;
                for (i, arg) in helper.args(*a, *b).enumerate() {
                    write!(f, "{}{arg}", if i > 0 { ", " } else { "" })?;
                }
                write!(f, ")")
            }
            Insn::Ld { dst, slot } => write!(f, "r{dst} = stack[{slot}]"),
            Insn::St { slot, src } => write!(f, "stack[{slot}] = r{src}"),
            Insn::Exit => write!(f, "exit"),
        }
    }
}

/// Encodings of enum operands used in helper calls.
impl SubflowProp {
    /// Stable integer code for bytecode helper calls.
    pub fn code(self) -> i64 {
        SubflowProp::ALL
            .iter()
            .position(|p| *p == self)
            .expect("property present in ALL") as i64
    }

    /// Decodes [`SubflowProp::code`].
    pub fn from_code(code: i64) -> Option<SubflowProp> {
        usize::try_from(code)
            .ok()
            .and_then(|i| SubflowProp::ALL.get(i).copied())
    }
}

/// Encodings of enum operands used in helper calls.
impl PacketProp {
    /// Stable integer code for bytecode helper calls.
    pub fn code(self) -> i64 {
        PacketProp::ALL
            .iter()
            .position(|p| *p == self)
            .expect("property present in ALL") as i64
    }

    /// Decodes [`PacketProp::code`].
    pub fn from_code(code: i64) -> Option<PacketProp> {
        usize::try_from(code)
            .ok()
            .and_then(|i| PacketProp::ALL.get(i).copied())
    }
}

/// Encodings of enum operands used in helper calls.
impl QueueKind {
    /// Stable integer code for bytecode helper calls.
    pub fn code(self) -> i64 {
        QueueKind::ALL
            .iter()
            .position(|q| *q == self)
            .expect("queue present in ALL") as i64
    }

    /// Decodes [`QueueKind::code`].
    pub fn from_code(code: i64) -> Option<QueueKind> {
        usize::try_from(code)
            .ok()
            .and_then(|i| QueueKind::ALL.get(i).copied())
    }
}

/// Instruction → source-span side table.
///
/// Parallel to [`BytecodeProgram::code`]: `spans[pc]` is the source
/// position of the construct that instruction `pc` was compiled from.
/// Kept out of [`BytecodeProgram`] itself so the executable image stays a
/// pure ISA artifact (and existing hand-built programs keep working); the
/// bytecode verifier uses this table to attach real positions to
/// diagnostics, like BTF line info attached to an eBPF object.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DebugTable {
    /// Source position per instruction, indexed by pc.
    pub spans: Vec<Pos>,
}

impl DebugTable {
    /// The source span for `pc`, or `0:0` when the table has no entry
    /// (hand-built programs, out-of-range pc).
    pub fn pos(&self, pc: usize) -> Pos {
        self.spans
            .get(pc)
            .copied()
            .unwrap_or(Pos { line: 0, col: 0 })
    }
}

/// A verified bytecode program together with its stack requirement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BytecodeProgram {
    /// The instruction stream; always ends with [`Insn::Exit`].
    pub code: Vec<Insn>,
    /// Number of stack slots used by spills.
    pub stack_slots: u16,
}

impl BytecodeProgram {
    /// Approximate in-memory size in bytes (for §4.3 accounting).
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.code.len() * std::mem::size_of::<Insn>()
    }

    /// Renders a human-readable disassembly (the proc-style debugging
    /// interface of paper §4.1 exposes the same listing).
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        for (i, insn) in self.code.iter().enumerate() {
            out.push_str(&format!("{i:4}: {insn}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helper_arity() {
        assert_eq!(Helper::SubflowCount.arg_count(), 0);
        assert_eq!(Helper::Push.arg_count(), 2);
        assert!(Helper::QueueGet.has_result());
        assert!(!Helper::Push.has_result());
    }

    #[test]
    fn cond_eval() {
        assert!(Cond::Lt.eval(-1, 0), "comparisons are signed");
        assert!(Cond::Ge.eval(3, 3));
        assert!(!Cond::Gt.eval(3, 3));
        assert!(Cond::Ne.eval(1, 2));
    }

    #[test]
    fn prop_codes_round_trip() {
        for p in SubflowProp::ALL {
            assert_eq!(SubflowProp::from_code(p.code()), Some(p));
        }
        for p in PacketProp::ALL {
            assert_eq!(PacketProp::from_code(p.code()), Some(p));
        }
        for q in QueueKind::ALL {
            assert_eq!(QueueKind::from_code(q.code()), Some(q));
        }
        assert_eq!(SubflowProp::from_code(-1), None);
        assert_eq!(QueueKind::from_code(99), None);
    }

    #[test]
    fn disassembly_is_stable() {
        let prog = BytecodeProgram {
            code: vec![
                Insn::MovImm { dst: 6, imm: 3 },
                Insn::JmpImm {
                    cond: Cond::Lt,
                    lhs: 6,
                    imm: 10,
                    off: 1,
                },
                Insn::Exit,
                Insn::Call {
                    helper: Helper::SubflowCount,
                    dst: 7,
                    a: Operand::Imm(0),
                    b: Operand::Imm(0),
                },
                Insn::Call {
                    helper: Helper::Push,
                    dst: 0,
                    a: Operand::Reg(7),
                    b: Operand::Imm(-1),
                },
                Insn::Exit,
            ],
            stack_slots: 0,
        };
        let dis = prog.disassemble();
        assert!(dis.contains("r6 = 3"));
        assert!(dis.contains("r7 = call SubflowCount()"), "{dis}");
        assert!(dis.contains(": call Push(r7, -1)"), "{dis}");
    }
}
