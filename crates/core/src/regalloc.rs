//! Register allocation and lowering from virtual-register code to the
//! machine ISA.
//!
//! The paper's in-kernel cross-compiler uses "an extended version of the
//! linear scan register allocation, specifically, the Second-Chance
//! Binpacking algorithm [Traub et al., PLDI '98]". We implement linear
//! scan over live intervals with the two properties that matter from that
//! algorithm family:
//!
//! * **binpacking into lifetime holes** — when an interval expires its
//!   register immediately becomes available to later intervals, so a
//!   register serves many disjoint intervals;
//! * **furthest-next-end spilling** — under pressure the interval whose
//!   lifetime ends furthest away is evicted to a stack slot (its *second
//!   chance* to live in memory), minimizing the number of spilled
//!   accesses on the hot path.
//!
//! We do not split live ranges mid-interval (full second-chance
//! binpacking would); a spilled interval stays slot-allocated for its
//! whole lifetime and is accessed through the scratch registers `r3`/`r4`
//! around each use. This is a documented simplification — allocation
//! results remain deterministic and verifiable.
//!
//! Liveness across loops: intervals of virtual registers that are live
//! anywhere inside a loop body are extended to the loop's back-edge, so a
//! value defined before a loop and used within it survives the whole loop.

use crate::bytecode::{
    BytecodeProgram, DebugTable, Insn, FIRST_ALLOCATABLE, MAX_STACK_SLOTS, NUM_ALLOCATABLE,
};
use crate::codegen::{Label, VCode, VInsn, VReg};
use crate::error::{CompileError, Pos, Stage};

/// Where a virtual register lives after allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loc {
    /// A machine register (`r6`..`r9`).
    Reg(u8),
    /// A stack slot.
    Slot(u16),
}

/// Allocates registers for `code` and lowers it to verified-ready machine
/// instructions. Convenience wrapper over [`allocate_with_debug`] for
/// hand-built instruction lists with no source spans.
pub fn allocate(code: &[VInsn]) -> Result<BytecodeProgram, CompileError> {
    allocate_with_debug(&VCode::from_insns(code.to_vec())).map(|(prog, _)| prog)
}

/// Allocates registers for `vcode` and lowers it to verified-ready
/// machine instructions, threading each virtual instruction's source span
/// onto every machine instruction it expands to. The returned
/// [`DebugTable`] is parallel to the program's instruction stream.
pub fn allocate_with_debug(vcode: &VCode) -> Result<(BytecodeProgram, DebugTable), CompileError> {
    let intervals = live_intervals(&vcode.insns);
    let assignment = linear_scan(&intervals)?;
    lower(vcode, &assignment)
}

/// A live interval `[start, end]` over `VInsn` indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Interval {
    vreg: VReg,
    start: usize,
    end: usize,
}

fn for_each_use<F: FnMut(VReg)>(insn: &VInsn, mut f: F) {
    match insn {
        VInsn::Mov { src, .. } => f(*src),
        VInsn::Alu { a, b, .. } => {
            f(*a);
            f(*b);
        }
        VInsn::AluImm { a, .. } => f(*a),
        VInsn::Neg { src, .. } => f(*src),
        VInsn::Jcc { a, b, .. } => {
            f(*a);
            f(*b);
        }
        VInsn::JccImm { a, .. } => f(*a),
        VInsn::Call { args, .. } => {
            for a in args {
                f(*a);
            }
        }
        _ => {}
    }
}

/// Sets `at[id] = value`, growing `at` as needed: vreg and label ids are
/// dense from 0, so tables indexed by them stay small.
fn set<T: Clone>(at: &mut Vec<Option<T>>, id: u32, value: T) {
    let id = id as usize;
    if id >= at.len() {
        at.resize(id + 1, None);
    }
    at[id] = Some(value);
}

fn def_of(insn: &VInsn) -> Option<VReg> {
    match insn {
        VInsn::MovImm { dst, .. }
        | VInsn::Mov { dst, .. }
        | VInsn::Alu { dst, .. }
        | VInsn::AluImm { dst, .. }
        | VInsn::Neg { dst, .. } => Some(*dst),
        VInsn::Call { ret, .. } => *ret,
        _ => None,
    }
}

/// Computes live intervals, extending them across backward branches
/// (loop bodies) to a fixpoint.
fn live_intervals(code: &[VInsn]) -> Vec<Interval> {
    // Per vreg id, the first and last index touching it.
    let mut ranges: Vec<Option<(usize, usize)>> = Vec::new();
    let touch = |v: VReg, i: usize, ranges: &mut Vec<Option<(usize, usize)>>| {
        let (start, end) = ranges
            .get(v.0 as usize)
            .copied()
            .flatten()
            .unwrap_or((i, i));
        set(ranges, v.0, (start.min(i), end.max(i)));
    };
    for (i, insn) in code.iter().enumerate() {
        if let Some(d) = def_of(insn) {
            touch(d, i, &mut ranges);
        }
        for_each_use(insn, |u| touch(u, i, &mut ranges));
    }

    // Label positions for back-edge detection.
    let mut label_pos: Vec<Option<usize>> = Vec::new();
    for (i, insn) in code.iter().enumerate() {
        if let VInsn::Label(l) = insn {
            set(&mut label_pos, l.0, i);
        }
    }
    let mut back_edges: Vec<(usize, usize)> = Vec::new(); // (target, branch)
    for (i, insn) in code.iter().enumerate() {
        let target = match insn {
            VInsn::Ja(l) => Some(*l),
            VInsn::Jcc { target, .. } | VInsn::JccImm { target, .. } => Some(*target),
            _ => None,
        };
        if let Some(Some(t)) = target.and_then(|l| label_pos.get(l.0 as usize)) {
            if *t < i {
                back_edges.push((*t, i));
            }
        }
    }

    // Fixpoint extension: a vreg live anywhere in [t, b] lives to b.
    let mut changed = true;
    let mut guard = 0;
    while changed && guard < 64 {
        changed = false;
        guard += 1;
        for &(t, b) in &back_edges {
            for r in ranges.iter_mut().flatten() {
                if r.0 <= b && r.1 >= t && r.1 < b {
                    r.1 = b;
                    changed = true;
                }
            }
        }
    }

    let mut out: Vec<Interval> = (0u32..)
        .zip(ranges)
        .filter_map(|(id, r)| {
            r.map(|(start, end)| Interval {
                vreg: VReg(id),
                start,
                end,
            })
        })
        .collect();
    out.sort_by_key(|iv| (iv.start, iv.end, iv.vreg.0));
    out
}

/// The registers linear scan starts with, handed out from the back
/// (`r6` first).
fn free_registers() -> Vec<u8> {
    (0..NUM_ALLOCATABLE as u8)
        .map(|i| FIRST_ALLOCATABLE + i)
        .rev()
        .collect()
}

/// Linear scan with hole reuse and furthest-end spilling. The result is
/// indexed by vreg id.
fn linear_scan(intervals: &[Interval]) -> Result<Vec<Option<Loc>>, CompileError> {
    let mut assignment: Vec<Option<Loc>> = Vec::new();
    // Active intervals currently holding a register, kept sorted by end.
    let mut active: Vec<(Interval, u8)> = Vec::new();
    let mut free = free_registers();
    // Spill slots are shared between spilled intervals with disjoint
    // lifetimes (the binpacking applies to stack slots too): slot_ends[s]
    // is the end of the last interval assigned to slot s.
    let mut slot_ends: Vec<usize> = Vec::new();
    let alloc_slot = |slot_ends: &mut Vec<usize>, iv: &Interval| -> Result<u16, CompileError> {
        for (s, end) in slot_ends.iter_mut().enumerate() {
            if *end < iv.start {
                *end = iv.end;
                return Ok(s as u16);
            }
        }
        if slot_ends.len() >= MAX_STACK_SLOTS {
            return Err(CompileError::new(
                Stage::Codegen,
                Pos::new(0, 0),
                format!("scheduler needs more than {MAX_STACK_SLOTS} spill slots"),
            ));
        }
        slot_ends.push(iv.end);
        Ok((slot_ends.len() - 1) as u16)
    };

    for iv in intervals {
        // Expire intervals that ended before this one starts: their
        // registers return to the pool (lifetime holes are reused).
        let mut i = 0;
        while i < active.len() {
            if active[i].0.end < iv.start {
                free.push(active[i].1);
                active.remove(i);
            } else {
                i += 1;
            }
        }

        if let Some(reg) = free.pop() {
            set(&mut assignment, iv.vreg.0, Loc::Reg(reg));
            active.push((*iv, reg));
            active.sort_by_key(|(a, _)| a.end);
            continue;
        }

        // Pressure: spill the interval (current or active) ending furthest.
        let victim_idx = active
            .iter()
            .enumerate()
            .max_by_key(|(_, (a, _))| a.end)
            .map(|(i, _)| i);
        match victim_idx {
            Some(vi) if active[vi].0.end > iv.end => {
                let (victim, reg) = active.remove(vi);
                let slot = Loc::Slot(alloc_slot(&mut slot_ends, &victim)?);
                set(&mut assignment, victim.vreg.0, slot);
                set(&mut assignment, iv.vreg.0, Loc::Reg(reg));
                active.push((*iv, reg));
                active.sort_by_key(|(a, _)| a.end);
            }
            _ => {
                set(
                    &mut assignment,
                    iv.vreg.0,
                    Loc::Slot(alloc_slot(&mut slot_ends, iv)?),
                );
            }
        }
    }
    Ok(assignment)
}

/// Lowers virtual instructions to machine instructions using the
/// allocation map, resolving labels to relative offsets. Every machine
/// instruction inherits the source span of the virtual instruction it was
/// expanded from.
fn lower(
    vcode: &VCode,
    assignment: &[Option<Loc>],
) -> Result<(BytecodeProgram, DebugTable), CompileError> {
    let code = &vcode.insns;
    let loc = |v: VReg| -> Loc {
        assignment[v.0 as usize].expect("every touched vreg has an assignment")
    };
    let mut out: Vec<Insn> = Vec::with_capacity(code.len() * 2);
    let mut spans: Vec<Pos> = Vec::with_capacity(code.len() * 2);
    let mut label_at: Vec<Option<usize>> = Vec::new();
    // (index in `out` of the jump, label) to patch after emission.
    let mut fixups: Vec<(usize, Label)> = Vec::new();
    let mut max_slot: u16 = 0;
    for l in assignment.iter().flatten() {
        if let Loc::Slot(s) = l {
            max_slot = max_slot.max(s + 1);
        }
    }

    // Reads `v` into a register, using `scratch` when slot-allocated.
    fn read(out: &mut Vec<Insn>, l: Loc, scratch: u8) -> u8 {
        match l {
            Loc::Reg(r) => r,
            Loc::Slot(s) => {
                out.push(Insn::Ld {
                    dst: scratch,
                    slot: s,
                });
                scratch
            }
        }
    }
    // Writes the value currently in `src_reg` to `l`.
    fn write(out: &mut Vec<Insn>, l: Loc, src_reg: u8) {
        match l {
            Loc::Reg(r) => {
                if r != src_reg {
                    out.push(Insn::Mov {
                        dst: r,
                        src: src_reg,
                    });
                }
            }
            Loc::Slot(s) => out.push(Insn::St {
                slot: s,
                src: src_reg,
            }),
        }
    }

    for (vi, insn) in code.iter().enumerate() {
        let span = vcode
            .spans
            .get(vi)
            .copied()
            .unwrap_or(Pos { line: 0, col: 0 });
        match insn {
            VInsn::Label(l) => {
                set(&mut label_at, l.0, out.len());
            }
            VInsn::MovImm { dst, imm } => match loc(*dst) {
                Loc::Reg(r) => out.push(Insn::MovImm { dst: r, imm: *imm }),
                Loc::Slot(s) => {
                    out.push(Insn::MovImm { dst: 0, imm: *imm });
                    out.push(Insn::St { slot: s, src: 0 });
                }
            },
            VInsn::Mov { dst, src } => {
                let a = read(&mut out, loc(*src), 3);
                write(&mut out, loc(*dst), a);
            }
            VInsn::Alu { op, dst, a, b } => {
                let ra = read(&mut out, loc(*a), 3);
                let rb = read(&mut out, loc(*b), 4);
                out.push(Insn::Mov { dst: 0, src: ra });
                out.push(Insn::Alu {
                    op: *op,
                    dst: 0,
                    src: rb,
                });
                write(&mut out, loc(*dst), 0);
            }
            VInsn::AluImm { op, dst, a, imm } => {
                let ra = read(&mut out, loc(*a), 3);
                out.push(Insn::Mov { dst: 0, src: ra });
                out.push(Insn::AluImm {
                    op: *op,
                    dst: 0,
                    imm: *imm,
                });
                write(&mut out, loc(*dst), 0);
            }
            VInsn::Neg { dst, src } => {
                let ra = read(&mut out, loc(*src), 3);
                out.push(Insn::Mov { dst: 0, src: ra });
                out.push(Insn::Neg { dst: 0 });
                write(&mut out, loc(*dst), 0);
            }
            VInsn::Ja(l) => {
                fixups.push((out.len(), *l));
                out.push(Insn::Ja { off: 0 });
            }
            VInsn::Jcc { cond, a, b, target } => {
                let ra = read(&mut out, loc(*a), 3);
                let rb = read(&mut out, loc(*b), 4);
                fixups.push((out.len(), *target));
                out.push(Insn::Jmp {
                    cond: *cond,
                    lhs: ra,
                    rhs: rb,
                    off: 0,
                });
            }
            VInsn::JccImm {
                cond,
                a,
                imm,
                target,
            } => {
                let ra = read(&mut out, loc(*a), 3);
                fixups.push((out.len(), *target));
                out.push(Insn::JmpImm {
                    cond: *cond,
                    lhs: ra,
                    imm: *imm,
                    off: 0,
                });
            }
            VInsn::Call { helper, args, ret } => {
                debug_assert!(args.len() <= 5, "at most five helper arguments");
                for (i, a) in args.iter().enumerate() {
                    let target_reg = (i + 1) as u8;
                    match loc(*a) {
                        Loc::Reg(r) => out.push(Insn::Mov {
                            dst: target_reg,
                            src: r,
                        }),
                        Loc::Slot(s) => out.push(Insn::Ld {
                            dst: target_reg,
                            slot: s,
                        }),
                    }
                }
                out.push(Insn::Call { helper: *helper });
                if let Some(r) = ret {
                    write(&mut out, loc(*r), 0);
                }
            }
            VInsn::Exit => out.push(Insn::Exit),
        }
        // Stamp every machine instruction this VInsn expanded to.
        spans.resize(out.len(), span);
    }
    if !matches!(out.last(), Some(Insn::Exit)) {
        out.push(Insn::Exit);
        spans.resize(
            out.len(),
            spans.last().copied().unwrap_or(Pos { line: 0, col: 0 }),
        );
    }

    for (at, label) in fixups {
        let Some(&Some(target)) = label_at.get(label.0 as usize) else {
            return Err(CompileError::new(
                Stage::Codegen,
                Pos::new(0, 0),
                "branch to undefined label",
            ));
        };
        let off = target as i64 - (at as i64 + 1);
        let off = i32::try_from(off).map_err(|_| {
            CompileError::new(Stage::Codegen, Pos::new(0, 0), "branch offset overflow")
        })?;
        match &mut out[at] {
            Insn::Ja { off: o } | Insn::Jmp { off: o, .. } | Insn::JmpImm { off: o, .. } => {
                *o = off;
            }
            _ => unreachable!("fixup indexes a jump"),
        }
    }

    Ok((
        BytecodeProgram {
            code: out,
            stack_slots: max_slot,
        },
        DebugTable { spans },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{AluOp, Cond};

    #[test]
    fn small_program_fits_in_registers() {
        // Three short-lived vregs: all should land in registers, no spills.
        let code = vec![
            VInsn::MovImm {
                dst: VReg(0),
                imm: 1,
            },
            VInsn::MovImm {
                dst: VReg(1),
                imm: 2,
            },
            VInsn::Alu {
                op: AluOp::Add,
                dst: VReg(2),
                a: VReg(0),
                b: VReg(1),
            },
            VInsn::Exit,
        ];
        let prog = allocate(&code).unwrap();
        assert_eq!(prog.stack_slots, 0);
        assert!(matches!(prog.code.last(), Some(Insn::Exit)));
    }

    #[test]
    fn register_holes_are_reused() {
        // Six sequential, disjoint intervals: they can all share one or
        // few registers; no spills needed even with 4 allocatable regs.
        let mut code = Vec::new();
        for i in 0..6u32 {
            code.push(VInsn::MovImm {
                dst: VReg(i),
                imm: i64::from(i),
            });
            code.push(VInsn::AluImm {
                op: AluOp::Add,
                dst: VReg(i),
                a: VReg(i),
                imm: 1,
            });
        }
        code.push(VInsn::Exit);
        let prog = allocate(&code).unwrap();
        assert_eq!(prog.stack_slots, 0, "disjoint intervals binpack into holes");
    }

    #[test]
    fn pressure_spills_furthest_interval() {
        // vreg 0 is live across everything (furthest end) and should be
        // the spill victim once pressure exceeds 4 registers.
        let mut code = Vec::new();
        for i in 0..6u32 {
            code.push(VInsn::MovImm {
                dst: VReg(i),
                imm: i64::from(i),
            });
        }
        // All six are simultaneously live here.
        for i in 1..6u32 {
            code.push(VInsn::Alu {
                op: AluOp::Add,
                dst: VReg(0),
                a: VReg(0),
                b: VReg(i),
            });
        }
        code.push(VInsn::Exit);
        let prog = allocate(&code).unwrap();
        assert!(prog.stack_slots >= 1, "something must spill");
        assert!(prog.stack_slots <= 2, "only the excess spills");
    }

    #[test]
    fn loop_extends_liveness() {
        // A counter defined before a loop and incremented inside it must
        // stay allocated across the back edge.
        let l = Label(0);
        let code = vec![
            VInsn::MovImm {
                dst: VReg(0),
                imm: 0,
            },
            VInsn::Label(l),
            VInsn::AluImm {
                op: AluOp::Add,
                dst: VReg(0),
                a: VReg(0),
                imm: 1,
            },
            VInsn::JccImm {
                cond: Cond::Lt,
                a: VReg(0),
                imm: 10,
                target: l,
            },
            VInsn::Exit,
        ];
        let prog = allocate(&code).unwrap();
        // Execute mentally: the lowered code must reference a consistent
        // location for vreg 0. Just validate structure here.
        assert!(prog.code.len() >= 4);
    }

    #[test]
    fn undefined_label_is_error() {
        let code = vec![VInsn::Ja(Label(42)), VInsn::Exit];
        assert!(allocate(&code).is_err());
    }

    #[test]
    fn branch_offsets_resolve() {
        let l = Label(0);
        let code = vec![
            VInsn::MovImm {
                dst: VReg(0),
                imm: 0,
            },
            VInsn::Ja(l),
            VInsn::MovImm {
                dst: VReg(0),
                imm: 99,
            },
            VInsn::Label(l),
            VInsn::Exit,
        ];
        let prog = allocate(&code).unwrap();
        // Find the Ja and check it skips the MovImm 99.
        let ja_idx = prog
            .code
            .iter()
            .position(|i| matches!(i, Insn::Ja { .. }))
            .unwrap();
        if let Insn::Ja { off } = prog.code[ja_idx] {
            let target = (ja_idx as i64 + 1 + i64::from(off)) as usize;
            assert!(matches!(prog.code[target], Insn::Exit));
        }
    }

    #[test]
    fn free_list_is_exactly_the_allocatable_registers() {
        // The verifier resolves a loop variable's home through
        // `is_allocatable`: a register linear scan hands out that it
        // rejects would turn every loop counted in it "unbounded".
        let mut free = free_registers();
        free.sort_unstable();
        let allocatable: Vec<u8> = (0..crate::bytecode::NUM_MACH_REGS as u8)
            .filter(|&r| crate::bytecode::is_allocatable(r))
            .collect();
        assert_eq!(free, allocatable);
    }

    #[test]
    fn heavy_pressure_spills_excess_live_values() {
        // Twelve values all live at once against four allocatable
        // registers: at least eight must move to stack slots, and the
        // lowered program must still pass the verifier.
        const LIVE: u32 = 12;
        let mut code = Vec::new();
        for i in 0..LIVE {
            code.push(VInsn::MovImm {
                dst: VReg(i),
                imm: i64::from(i) + 1,
            });
        }
        // Consume every value in one chain, keeping all simultaneously
        // live from definition to here.
        for i in 1..LIVE {
            code.push(VInsn::Alu {
                op: AluOp::Add,
                dst: VReg(0),
                a: VReg(0),
                b: VReg(i),
            });
        }
        code.push(VInsn::Exit);
        let prog = allocate(&code).unwrap();
        assert!(
            usize::from(prog.stack_slots) >= LIVE as usize - NUM_ALLOCATABLE,
            "expected >= {} spill slots, got {}",
            LIVE as usize - NUM_ALLOCATABLE,
            prog.stack_slots
        );
        assert!(usize::from(prog.stack_slots) <= LIVE as usize);
        crate::vm::verify(&prog).expect("spilled program must verify");
        // Spilled operands are accessed through loads/stores.
        assert!(prog.code.iter().any(|i| matches!(i, Insn::Ld { .. })));
        assert!(prog.code.iter().any(|i| matches!(i, Insn::St { .. })));
    }

    #[test]
    fn spill_pressure_inside_loop_keeps_values_alive() {
        // Values defined before a loop, with pressure inside the loop
        // body, must survive the back edge whether spilled or not.
        const LIVE: u32 = 8;
        let l = Label(0);
        let mut code = Vec::new();
        for i in 0..LIVE {
            code.push(VInsn::MovImm {
                dst: VReg(i),
                imm: 1,
            });
        }
        // Loop counter.
        code.push(VInsn::MovImm {
            dst: VReg(LIVE),
            imm: 0,
        });
        code.push(VInsn::Label(l));
        for i in 0..LIVE {
            code.push(VInsn::Alu {
                op: AluOp::Add,
                dst: VReg(LIVE),
                a: VReg(LIVE),
                b: VReg(i),
            });
        }
        code.push(VInsn::JccImm {
            cond: Cond::Lt,
            a: VReg(LIVE),
            imm: 100,
            target: l,
        });
        code.push(VInsn::Exit);
        let prog = allocate(&code).unwrap();
        assert!(prog.stack_slots >= 1, "pressure must spill");
        crate::vm::verify(&prog).expect("looping spilled program must verify");
    }

    #[test]
    fn exceeding_stack_slot_budget_is_rejected() {
        // More simultaneously live values than registers + stack slots:
        // allocation must fail with the spill-slot budget error, not
        // overflow or mis-allocate.
        let live = (MAX_STACK_SLOTS + NUM_ALLOCATABLE + 1) as u32;
        let mut code = Vec::new();
        for i in 0..live {
            code.push(VInsn::MovImm {
                dst: VReg(i),
                imm: 1,
            });
        }
        for i in 1..live {
            code.push(VInsn::Alu {
                op: AluOp::Add,
                dst: VReg(0),
                a: VReg(0),
                b: VReg(i),
            });
        }
        code.push(VInsn::Exit);
        let err = allocate(&code).unwrap_err();
        assert_eq!(err.stage, Stage::Codegen);
        assert!(err.message.contains("spill slots"), "{}", err.message);
    }
}
