//! Local value numbering: pure-helper common-subexpression elimination,
//! copy propagation, and redundant load/store elimination within basic
//! blocks.
//!
//! Purity follows the runtime effect model of [`crate::exec::ExecCtx`]:
//! `SubflowCount`/`SubflowAt`/`SubflowProp`/`PacketProp`/`SentOn`/
//! `HasWindowFor`/`QueueLen` read immutable snapshot state and are always
//! reusable; `QueueGet` is reusable until a `Pop`/`DropPkt` changes the
//! visible queue view, and `GetReg` until a `SetReg`. Effectful helpers
//! (`Pop`, `Push`, `DropPkt`, `SetReg`) are never touched — the
//! translation validator audits their exact call-site counts against the
//! HIR certificate.

use crate::bytecode::{AluOp, BytecodeProgram, DebugTable, Helper, Insn, Operand, NUM_MACH_REGS};
use crate::opt::edit::Editor;
use std::collections::HashMap;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ExprKey {
    Const(i64),
    Alu(AluOp, u32, u32),
    Neg(u32),
    /// Pure helper call; the final field is the invalidation era for
    /// helpers whose result depends on mutable execution state.
    Helper(Helper, Vec<u32>, u32),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    Reg(u8),
    Slot(u16),
}

struct Lvn {
    next: u32,
    reg_vn: [u32; NUM_MACH_REGS],
    slot_vn: HashMap<u16, u32>,
    exprs: HashMap<ExprKey, u32>,
    holders: HashMap<u32, Vec<Loc>>,
    queue_era: u32,
    reg_era: u32,
}

impl Lvn {
    fn new() -> Lvn {
        let mut lvn = Lvn {
            next: 0,
            reg_vn: [0; NUM_MACH_REGS],
            slot_vn: HashMap::new(),
            exprs: HashMap::new(),
            holders: HashMap::new(),
            queue_era: 0,
            reg_era: 0,
        };
        for r in 0..NUM_MACH_REGS {
            let vn = lvn.fresh();
            lvn.reg_vn[r] = vn;
            lvn.holders.entry(vn).or_default().push(Loc::Reg(r as u8));
        }
        lvn
    }

    fn fresh(&mut self) -> u32 {
        self.next += 1;
        self.next
    }

    fn reg(&self, r: u8) -> u32 {
        self.reg_vn[usize::from(r)]
    }

    fn slot(&mut self, s: u16) -> u32 {
        if let Some(vn) = self.slot_vn.get(&s) {
            return *vn;
        }
        let vn = self.fresh();
        self.slot_vn.insert(s, vn);
        self.holders.entry(vn).or_default().push(Loc::Slot(s));
        vn
    }

    /// Records that `loc` now holds `vn`, dropping its previous binding.
    fn bind(&mut self, loc: Loc, vn: u32) {
        let old = match loc {
            Loc::Reg(r) => std::mem::replace(&mut self.reg_vn[usize::from(r)], vn),
            Loc::Slot(s) => self.slot_vn.insert(s, vn).unwrap_or(0),
        };
        if let Some(hs) = self.holders.get_mut(&old) {
            hs.retain(|h| *h != loc);
        }
        self.holders.entry(vn).or_default().push(loc);
    }

    /// A register (preferred) or slot currently holding `vn`, excluding
    /// `exclude`. The frame pointer r10 is never offered.
    fn holder(&self, vn: u32, exclude: Loc) -> Option<Loc> {
        let hs = self.holders.get(&vn)?;
        hs.iter()
            .filter(|h| **h != exclude)
            .filter(|h| **h != Loc::Reg(10))
            .min_by_key(|h| match h {
                Loc::Reg(r) => (0, u16::from(*r)),
                Loc::Slot(s) => (1, *s),
            })
            .copied()
    }

    /// Looks up (or records) the value number of `key`.
    fn number(&mut self, key: ExprKey) -> (u32, bool) {
        if let Some(vn) = self.exprs.get(&key) {
            return (*vn, true);
        }
        let vn = self.fresh();
        self.exprs.insert(key, vn);
        (vn, false)
    }
}

fn pure_key(lvn: &mut Lvn, helper: Helper, a: Operand, b: Operand) -> Option<ExprKey> {
    let era = match helper {
        Helper::SubflowCount
        | Helper::SubflowAt
        | Helper::SubflowProp
        | Helper::PacketProp
        | Helper::SentOn
        | Helper::HasWindowFor
        | Helper::QueueLen => 0,
        Helper::QueueGet => lvn.queue_era,
        Helper::GetReg => lvn.reg_era,
        Helper::Pop | Helper::Push | Helper::DropPkt | Helper::SetReg => return None,
    };
    let args = helper
        .args(a, b)
        .map(|arg| match arg {
            Operand::Reg(r) => lvn.reg(r),
            Operand::Imm(imm) => lvn.number(ExprKey::Const(i64::from(imm))).0,
        })
        .collect();
    Some(ExprKey::Helper(helper, args, era))
}

/// Emits `dst = <holder of vn>` as a replacement instruction.
fn mov_from(dst: u8, loc: Loc) -> Insn {
    match loc {
        Loc::Reg(src) => Insn::Mov { dst, src },
        Loc::Slot(slot) => Insn::Ld { dst, slot },
    }
}

pub(crate) fn run(
    prog: &BytecodeProgram,
    debug: &DebugTable,
) -> (BytecodeProgram, DebugTable, u64) {
    let mut ed = Editor::new(prog, debug);
    let leader = crate::flow::leaders(&prog.code);

    let mut lvn = Lvn::new();
    for (pc, &is_leader) in leader.iter().enumerate() {
        if is_leader {
            lvn = Lvn::new();
        }
        match prog.code[pc] {
            Insn::MovImm { dst, imm } => {
                let (vn, _) = lvn.number(ExprKey::Const(imm));
                if lvn.reg(dst) == vn {
                    ed.delete(pc);
                } else {
                    lvn.bind(Loc::Reg(dst), vn);
                }
            }
            Insn::Mov { dst, src } => {
                let vn = lvn.reg(src);
                if dst == src || lvn.reg(dst) == vn {
                    ed.delete(pc);
                } else {
                    lvn.bind(Loc::Reg(dst), vn);
                }
            }
            Insn::Alu { op, dst, src } => {
                let (mut a, mut b) = (lvn.reg(dst), lvn.reg(src));
                if matches!(
                    op,
                    AluOp::Add | AluOp::Mul | AluOp::And | AluOp::Or | AluOp::Xor
                ) && b < a
                {
                    std::mem::swap(&mut a, &mut b);
                }
                let (vn, known) = lvn.number(ExprKey::Alu(op, a, b));
                if known {
                    if let Some(h) = lvn.holder(vn, Loc::Reg(dst)) {
                        if lvn.reg(dst) == vn {
                            ed.delete(pc);
                        } else {
                            ed.set(pc, mov_from(dst, h));
                        }
                        lvn.bind(Loc::Reg(dst), vn);
                        continue;
                    }
                }
                lvn.bind(Loc::Reg(dst), vn);
            }
            Insn::AluImm { op, dst, imm } => {
                let a = lvn.reg(dst);
                let (b, _) = lvn.number(ExprKey::Const(imm));
                let (vn, known) = lvn.number(ExprKey::Alu(op, a, b));
                if known {
                    if let Some(h) = lvn.holder(vn, Loc::Reg(dst)) {
                        if lvn.reg(dst) == vn {
                            ed.delete(pc);
                        } else {
                            ed.set(pc, mov_from(dst, h));
                        }
                        lvn.bind(Loc::Reg(dst), vn);
                        continue;
                    }
                }
                lvn.bind(Loc::Reg(dst), vn);
            }
            Insn::Neg { dst } => {
                let (vn, known) = lvn.number(ExprKey::Neg(lvn.reg(dst)));
                if known {
                    if let Some(h) = lvn.holder(vn, Loc::Reg(dst)) {
                        ed.set(pc, mov_from(dst, h));
                    }
                }
                lvn.bind(Loc::Reg(dst), vn);
            }
            Insn::Call { helper, dst, a, b } => match pure_key(&mut lvn, helper, a, b) {
                Some(key) => {
                    let (vn, known) = lvn.number(key);
                    if known {
                        if let Some(h) = lvn.holder(vn, Loc::Reg(dst)) {
                            if lvn.reg(dst) == vn {
                                ed.delete(pc);
                            } else {
                                ed.set(pc, mov_from(dst, h));
                            }
                        }
                    }
                    lvn.bind(Loc::Reg(dst), vn);
                }
                // An effect writes no register.
                None => match helper {
                    Helper::Pop | Helper::DropPkt => lvn.queue_era += 1,
                    Helper::SetReg => lvn.reg_era += 1,
                    _ => {}
                },
            },
            Insn::Ld { dst, slot } => {
                let vn = lvn.slot(slot);
                if lvn.reg(dst) == vn {
                    ed.delete(pc);
                } else if let Some(Loc::Reg(src)) = lvn.holder(vn, Loc::Slot(slot)) {
                    if src != dst {
                        ed.set(pc, Insn::Mov { dst, src });
                    }
                    lvn.bind(Loc::Reg(dst), vn);
                } else {
                    lvn.bind(Loc::Reg(dst), vn);
                }
            }
            Insn::St { slot, src } => {
                let vn = lvn.reg(src);
                if lvn.slot(slot) == vn {
                    ed.delete(pc);
                } else {
                    lvn.bind(Loc::Slot(slot), vn);
                }
            }
            Insn::Ja { .. } | Insn::Jmp { .. } | Insn::JmpImm { .. } | Insn::Exit => {}
        }
    }

    let changes = ed.changes();
    if changes == 0 {
        return (prog.clone(), debug.clone(), 0);
    }
    let (p, d) = ed.finish();
    (p, d, changes)
}
