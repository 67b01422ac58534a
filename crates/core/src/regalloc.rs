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
//! * **spilling** — under pressure an interval is evicted to a stack
//!   slot (its *second chance* to live in memory), the one that frees a
//!   register for longest (see *Spill choice*).
//!
//! We do not split live ranges mid-interval (full second-chance
//! binpacking would); a spilled interval stays slot-allocated for its
//! whole lifetime and is accessed through the scratch registers `r8`/`r9`
//! around each use, or loaded straight into the register that consumes
//! it. This is a documented simplification — allocation results remain
//! deterministic and verifiable.
//!
//! **Liveness.** A backward dataflow pass over the virtual instructions
//! and their control-flow edges computes which vregs are live into and
//! out of each instruction. An interval is the hull of the points where
//! its vreg is defined or live, on two positions per instruction (uses at
//! `2i`, the definition at `2i + 1`), so a value whose last use is the
//! instruction defining another can hand its register over. A value
//! crosses a loop's back edge only if it is live into the loop's head: a
//! temporary of the body ends inside the body.
//!
//! **Rematerialisation.** A vreg whose only definition is a `MovImm` gets
//! no register and no slot: each use emits the constant as the immediate
//! of an `AluImm`, a `JmpImm` or a helper-call operand, or else into the
//! register that consumes it.
//!
//! **Copies.** A `Mov` whose destination and source each have one
//! definition, with the destination dead where the source is defined,
//! is dropped and the destination renamed to the source. Codegen gives
//! every binding of a lambda or `FOREACH` variable its own vreg, so the
//! binding `Mov` of each loop is one such copy. Otherwise an interval
//! that starts at a `Mov` or ALU definition prefers its source's
//! register, which computes `x += y` in place.
//!
//! **Spill choice.** Under pressure the interval that ends furthest,
//! among the active ones and the one starting, is evicted: the register
//! it frees serves every later interval up to that end. Weighting uses
//! by loop depth instead picks differently in four of the 18 shipped
//! images, and saves none of them an instruction or a fleet step.
//!
//! **The allocatable set** is `r0`–`r7` ([`is_allocatable`]). A helper
//! call reads its operands where they live and writes its result
//! straight to the result's register, and clobbers nothing else, so a
//! value keeps its register across calls and there is no argument or
//! result move. The two registers left, [`SCRATCH`] `r8` / `r9`, carry
//! spilled operands and results bound for a slot.

use crate::bytecode::{
    is_allocatable, AluOp, BytecodeProgram, DebugTable, Insn, Operand, MAX_STACK_SLOTS,
    NUM_MACH_REGS, SCRATCH,
};
use crate::codegen::{Label, VCode, VInsn, VReg};
use crate::error::{CompileError, Pos, Stage};

/// Where a virtual register lives after allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loc {
    /// A machine register (`r0`..`r7`).
    Reg(u8),
    /// A stack slot.
    Slot(u16),
    /// Nowhere: the vreg's one definition is this constant, emitted at
    /// each use.
    Imm(i64),
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
    let mut code = vcode.insns.clone();
    let cfg = Cfg::new(&code);
    let mut live = Liveness::new(&code, &cfg);
    coalesce_copies(&mut code, &cfg, &mut live);
    let constants = constants(&code);
    let intervals = live_intervals(&code, &cfg, &live, &constants);
    let assignment = linear_scan(&code, &intervals, &constants)?;
    lower(&code, &vcode.spans, &assignment)
}

/// A live interval `[start, end]` over positions (`2i` for the uses of
/// `VInsn` `i`, `2i + 1` for its definition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Interval {
    vreg: VReg,
    start: usize,
    end: usize,
}

fn for_each_use<F: FnMut(VReg)>(insn: &VInsn, mut f: F) {
    match insn {
        VInsn::Mov { dst, src } if dst != src => f(*src),
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

/// The vreg `insn` defines; a self-move (what a coalesced copy becomes)
/// defines nothing.
fn def_of(insn: &VInsn) -> Option<VReg> {
    match insn {
        VInsn::Mov { dst, src } if dst == src => None,
        VInsn::MovImm { dst, .. }
        | VInsn::Mov { dst, .. }
        | VInsn::Alu { dst, .. }
        | VInsn::AluImm { dst, .. }
        | VInsn::Neg { dst, .. } => Some(*dst),
        VInsn::Call { ret, .. } => *ret,
        _ => None,
    }
}

/// Per vreg id, the constant of its one definition when that definition
/// is a `MovImm` (rematerialised at every use instead of allocated).
fn constants(code: &[VInsn]) -> Vec<Option<i64>> {
    // Per vreg: `Some(Some(imm))` while every definition seen is one
    // `MovImm`, `Some(None)` once it has another.
    let mut defs: Vec<Option<Option<i64>>> = Vec::new();
    for insn in code {
        let Some(d) = def_of(insn) else { continue };
        let seen = defs.get(d.0 as usize).copied().flatten();
        let imm = match (seen, insn) {
            (None, VInsn::MovImm { imm, .. }) => Some(*imm),
            _ => None,
        };
        set(&mut defs, d.0, imm);
    }
    defs.into_iter().map(Option::flatten).collect()
}

/// Whether vreg `v` is rematerialised rather than allocated.
fn is_constant(constants: &[Option<i64>], v: VReg) -> bool {
    constants.get(v.0 as usize).copied().flatten().is_some()
}

/// The control-flow graph of a virtual-instruction stream: each
/// instruction's successors, and how many vreg ids it uses.
struct Cfg {
    succ: Vec<[Option<usize>; 2]>,
    n_vregs: usize,
}

impl Cfg {
    fn new(code: &[VInsn]) -> Cfg {
        let mut label_pos: Vec<Option<usize>> = Vec::new();
        let mut n_vregs = 0usize;
        for (i, insn) in code.iter().enumerate() {
            if let VInsn::Label(l) = insn {
                set(&mut label_pos, l.0, i);
            }
            let mut see = |v: VReg| n_vregs = n_vregs.max(v.0 as usize + 1);
            def_of(insn).into_iter().for_each(&mut see);
            for_each_use(insn, &mut see);
        }
        let at = |l: &Label| label_pos.get(l.0 as usize).copied().flatten();
        let succ = (code.iter().enumerate())
            .map(|(i, insn)| {
                match insn {
                    VInsn::Ja(l) => [at(l), None],
                    VInsn::Jcc { target, .. } | VInsn::JccImm { target, .. } => {
                        [Some(i + 1), at(target)]
                    }
                    VInsn::Exit => [None, None],
                    _ => [Some(i + 1), None],
                }
                .map(|s| s.filter(|&s| s < code.len()))
            })
            .collect();
        Cfg { succ, n_vregs }
    }

    fn successors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.succ[i].into_iter().flatten()
    }
}

/// The vregs live into each instruction, one row of bits per
/// instruction: `live_in[i] = uses(i) ∪ (live_out(i) − def(i))`.
struct Liveness {
    words: usize,
    bits: Vec<u64>,
    /// The vreg each bit stands for: itself, or the source a copy was
    /// merged into after the rows were solved.
    alias: Vec<u32>,
}

impl Liveness {
    /// Solves the equations to a fixpoint, visiting the instructions in
    /// reverse order.
    fn new(code: &[VInsn], cfg: &Cfg) -> Liveness {
        let words = cfg.n_vregs.div_ceil(64).max(1);
        let bit = |v: VReg| (v.0 as usize / 64, 1u64 << (v.0 % 64));
        // Per instruction, the bits it uses and the one it defines.
        let mut uses = vec![0u64; code.len() * words];
        let mut kill = vec![(0usize, 0u64); code.len()];
        for (i, insn) in code.iter().enumerate() {
            for_each_use(insn, |u| {
                let (w, b) = bit(u);
                uses[i * words + w] |= b;
            });
            if let Some(d) = def_of(insn) {
                kill[i] = bit(d);
            }
        }
        let mut bits = vec![0u64; code.len() * words];
        let mut changed = true;
        while changed {
            changed = false;
            for i in (0..code.len()).rev() {
                let [a, b] = cfg.succ[i];
                for w in 0..words {
                    let out =
                        a.map_or(0, |s| bits[s * words + w]) | b.map_or(0, |s| bits[s * words + w]);
                    let out = if kill[i].0 == w {
                        out & !kill[i].1
                    } else {
                        out
                    };
                    let new = out | uses[i * words + w];
                    if new != bits[i * words + w] {
                        bits[i * words + w] = new;
                        changed = true;
                    }
                }
            }
        }
        let alias = (0..cfg.n_vregs as u32).collect();
        Liveness { words, bits, alias }
    }

    fn row(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words..(i + 1) * self.words]
    }

    fn contains(&self, i: usize, v: VReg) -> bool {
        self.row(i)[v.0 as usize / 64] & (1 << (v.0 % 64)) != 0
    }

    /// Calls `f` with (the alias of) every vreg id in `row` not yet in
    /// `seen`, and adds them to `seen`.
    fn for_each_new(&self, row: &[u64], seen: &mut [u64], mut f: impl FnMut(u32)) {
        for (w, (&bits, seen)) in row.iter().zip(seen.iter_mut()).enumerate() {
            let mut fresh = bits & !*seen;
            *seen |= bits;
            while fresh != 0 {
                f(self.alias[w * 64 + fresh.trailing_zeros() as usize]);
                fresh &= fresh - 1;
            }
        }
    }
}

/// Every vreg operand of `insn`, mutably.
fn for_each_vreg(insn: &mut VInsn, mut f: impl FnMut(&mut VReg)) {
    match insn {
        VInsn::MovImm { dst, .. } => f(dst),
        VInsn::Mov { dst, src } | VInsn::Neg { dst, src } => {
            f(dst);
            f(src);
        }
        VInsn::Alu { dst, a, b, .. } => {
            f(dst);
            f(a);
            f(b);
        }
        VInsn::AluImm { dst, a, .. } => {
            f(dst);
            f(a);
        }
        VInsn::Jcc { a, b, .. } => {
            f(a);
            f(b);
        }
        VInsn::JccImm { a, .. } => f(a),
        VInsn::Call { args, ret, .. } => {
            args.iter_mut().for_each(&mut f);
            ret.iter_mut().for_each(f);
        }
        VInsn::Label(_) | VInsn::Ja(_) | VInsn::Exit => {}
    }
}

/// Merges the destination of a `Mov` into its source when each has that
/// one definition and the destination is dead where the source is
/// defined: no path then leads from a newer value of the source to a read
/// of the copy, so the two hold the same value wherever the copy is read.
/// The `Mov` becomes a self-move, which lowers to nothing, and the copy
/// stops competing for a register. A source may absorb several copies,
/// but a copy is never itself a source, so each decision holds on the
/// code it was made on; `live` reads a merged copy's bits as its source's
/// (live wherever either was, a slight over-approximation at the `Mov`).
fn coalesce_copies(code: &mut [VInsn], cfg: &Cfg, live: &mut Liveness) {
    let n_vregs = cfg.n_vregs;
    let mut def_at: Vec<Option<usize>> = vec![None; n_vregs];
    let mut defs = vec![0u32; n_vregs];
    for (i, insn) in code.iter().enumerate() {
        if let Some(d) = def_of(insn) {
            defs[d.0 as usize] += 1;
            def_at[d.0 as usize] = Some(i);
        }
    }
    let (mut is_copy, mut is_source) = (vec![false; n_vregs], vec![false; n_vregs]);
    let mut rename: Vec<u32> = (0..n_vregs as u32).collect();
    for insn in code.iter() {
        let VInsn::Mov { dst, src } = *insn else {
            continue;
        };
        let (d, s) = (dst.0 as usize, src.0 as usize);
        if d == s || is_source[d] || is_copy[s] || defs[d] != 1 || defs[s] != 1 {
            continue;
        }
        let Some(at) = def_at[s] else { continue };
        let live_there =
            live.contains(at, dst) || cfg.successors(at).any(|next| live.contains(next, dst));
        if !live_there {
            is_copy[d] = true;
            is_source[s] = true;
            rename[d] = src.0;
            live.alias[d] = src.0;
        }
    }
    for insn in code.iter_mut() {
        for_each_vreg(insn, |v| v.0 = rename[v.0 as usize]);
    }
}

/// Computes each allocated vreg's live interval, the hull of the points
/// where it is defined or live. Rematerialised constants get none.
fn live_intervals(
    code: &[VInsn],
    cfg: &Cfg,
    live: &Liveness,
    constants: &[Option<i64>],
) -> Vec<Interval> {
    let mut ranges: Vec<Option<(usize, usize)>> = vec![None; cfg.n_vregs];
    let mut touch = |v: u32, pos: usize| {
        let r = ranges[v as usize].get_or_insert((pos, pos));
        *r = (r.0.min(pos), r.1.max(pos));
    };
    for (i, insn) in code.iter().enumerate() {
        for_each_use(insn, |u| touch(u.0, 2 * i));
        if let Some(d) = def_of(insn) {
            touch(d.0, 2 * i + 1);
        }
    }
    // Live points widen the hull: the first instruction a vreg is live
    // into (a later live-out point follows a live-in or a definition),
    // and the last one it is live out of or into, each found by one scan
    // that only looks at bits it has not seen yet.
    let mut seen = vec![0u64; live.words];
    for i in 0..code.len() {
        live.for_each_new(live.row(i), &mut seen, |v| touch(v, 2 * i));
    }
    seen.fill(0);
    let mut out_row = vec![0u64; live.words];
    for i in (0..code.len()).rev() {
        out_row.fill(0);
        for s in cfg.successors(i) {
            for (a, b) in out_row.iter_mut().zip(live.row(s)) {
                *a |= b;
            }
        }
        live.for_each_new(&out_row, &mut seen, |v| touch(v, 2 * i + 1));
        live.for_each_new(live.row(i), &mut seen, |v| touch(v, 2 * i));
    }

    let mut out: Vec<Interval> = (0u32..)
        .zip(ranges)
        .filter(|&(id, _)| !is_constant(constants, VReg(id)))
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
/// (`r0` first).
fn free_registers() -> Vec<u8> {
    (0..NUM_MACH_REGS as u8)
        .rev()
        .filter(|&r| is_allocatable(r))
        .collect()
}

/// The register an interval starting at position `start` would like: the
/// one its defining instruction reads its (left) operand from, so a `Mov`
/// whose source dies there disappears and an ALU result is computed in
/// place.
fn hint(code: &[VInsn], assignment: &[Option<Loc>], start: usize) -> Option<u8> {
    if start.is_multiple_of(2) {
        return None;
    }
    let src = match code.get(start / 2)? {
        VInsn::Mov { src, .. } => src,
        VInsn::Alu { a, .. } | VInsn::AluImm { a, .. } => a,
        VInsn::Neg { src, .. } => src,
        _ => return None,
    };
    match assignment.get(src.0 as usize).copied().flatten() {
        Some(Loc::Reg(r)) => Some(r),
        _ => None,
    }
}

/// Linear scan with hole reuse, operand hints and furthest-end
/// spilling. The result is indexed by vreg id.
fn linear_scan(
    code: &[VInsn],
    intervals: &[Interval],
    constants: &[Option<i64>],
) -> Result<Vec<Option<Loc>>, CompileError> {
    let mut assignment: Vec<Option<Loc>> = (0u32..)
        .zip(constants)
        .map(|(_, c)| c.map(Loc::Imm))
        .collect();
    // Active intervals currently holding a register.
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
        active.retain(|(a, reg)| {
            let live = a.end >= iv.start;
            if !live {
                free.push(*reg);
            }
            live
        });

        if !free.is_empty() {
            let at = hint(code, &assignment, iv.start)
                .and_then(|h| free.iter().position(|&r| r == h))
                .unwrap_or(free.len() - 1);
            let reg = free.remove(at);
            set(&mut assignment, iv.vreg.0, Loc::Reg(reg));
            active.push((*iv, reg));
            continue;
        }

        // Pressure: spill whichever of the active intervals and this one
        // ends furthest, which frees a register for the longest stretch
        // (on a tie, the one that took its register first).
        let victim = (0..active.len())
            .min_by_key(|&i| std::cmp::Reverse(active[i].0.end))
            .filter(|&i| active[i].0.end > iv.end);
        match victim {
            Some(vi) => {
                let (victim, reg) = active.remove(vi);
                let slot = Loc::Slot(alloc_slot(&mut slot_ends, &victim)?);
                set(&mut assignment, victim.vreg.0, slot);
                set(&mut assignment, iv.vreg.0, Loc::Reg(reg));
                active.push((*iv, reg));
            }
            None => {
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

/// Whether `a op b == b op a`.
fn commutes(op: AluOp) -> bool {
    matches!(
        op,
        AluOp::Add | AluOp::Mul | AluOp::And | AluOp::Or | AluOp::Xor
    )
}

/// Emits `dst = value of l` (nothing when `l` is `dst` itself).
fn place(out: &mut Vec<Insn>, dst: u8, l: Loc) {
    match l {
        Loc::Reg(r) if r == dst => {}
        Loc::Reg(src) => out.push(Insn::Mov { dst, src }),
        Loc::Slot(slot) => out.push(Insn::Ld { dst, slot }),
        Loc::Imm(imm) => out.push(Insn::MovImm { dst, imm }),
    }
}

/// Reads `l` as a helper-call operand: in place, as an immediate when it
/// fits one, else through `scratch`.
fn operand(out: &mut Vec<Insn>, l: Loc, scratch: u8) -> Operand {
    match l {
        Loc::Reg(r) => Operand::Reg(r),
        Loc::Imm(imm) if i16::try_from(imm).is_ok() => Operand::Imm(imm as i16),
        _ => Operand::Reg(read(out, l, scratch)),
    }
}

/// Reads `l` into a register, using `scratch` unless it is one.
fn read(out: &mut Vec<Insn>, l: Loc, scratch: u8) -> u8 {
    match l {
        Loc::Reg(r) => r,
        _ => {
            place(out, scratch, l);
            scratch
        }
    }
}

/// Writes the value in `src` to `l`.
fn write(out: &mut Vec<Insn>, l: Loc, src: u8) {
    match l {
        Loc::Reg(r) => place(out, r, Loc::Reg(src)),
        Loc::Slot(slot) => out.push(Insn::St { slot, src }),
        Loc::Imm(_) => unreachable!("a rematerialised vreg has only its MovImm definition"),
    }
}

/// Emits `t op= b` for a right operand at `b`, loading a spilled one
/// through the second scratch register.
fn apply(out: &mut Vec<Insn>, op: AluOp, t: u8, b: Loc) {
    match b {
        Loc::Imm(imm) => out.push(Insn::AluImm { op, dst: t, imm }),
        _ => {
            let src = read(out, b, SCRATCH[1]);
            out.push(Insn::Alu { op, dst: t, src });
        }
    }
}

/// Lowers virtual instructions to machine instructions using the
/// allocation map, resolving labels to relative offsets. Every machine
/// instruction inherits the source span of the virtual instruction it was
/// expanded from. A jump to a label that follows it with only labels in
/// between emits nothing.
fn lower(
    code: &[VInsn],
    vspans: &[Pos],
    assignment: &[Option<Loc>],
) -> Result<(BytecodeProgram, DebugTable), CompileError> {
    let loc = |v: VReg| -> Loc {
        assignment[v.0 as usize].expect("every touched vreg has an assignment")
    };
    let [s0, s1] = SCRATCH;
    let mut out: Vec<Insn> = Vec::with_capacity(code.len());
    let mut spans: Vec<Pos> = Vec::with_capacity(code.len());
    let mut label_at: Vec<Option<usize>> = Vec::new();
    // (index in `out` of the jump, label) to patch after emission.
    let mut fixups: Vec<(usize, Label)> = Vec::new();
    let mut max_slot: u16 = 0;
    for l in assignment.iter().flatten() {
        if let Loc::Slot(s) = l {
            max_slot = max_slot.max(s + 1);
        }
    }

    for (vi, insn) in code.iter().enumerate() {
        let span = vspans.get(vi).copied().unwrap_or(Pos { line: 0, col: 0 });
        match insn {
            VInsn::Label(l) => {
                set(&mut label_at, l.0, out.len());
            }
            VInsn::MovImm { dst, imm } => match loc(*dst) {
                Loc::Imm(_) => {}
                Loc::Reg(r) => place(&mut out, r, Loc::Imm(*imm)),
                slot => {
                    place(&mut out, s0, Loc::Imm(*imm));
                    write(&mut out, slot, s0);
                }
            },
            VInsn::Mov { dst, src } if dst == src => {}
            VInsn::Mov { dst, src } => match (loc(*dst), loc(*src)) {
                (Loc::Reg(rd), s) => place(&mut out, rd, s),
                (Loc::Slot(d), Loc::Slot(s)) if d == s => {}
                (d, s) => {
                    let r = read(&mut out, s, s0);
                    write(&mut out, d, r);
                }
            },
            VInsn::Alu { op, dst, a, b } => {
                let (d, la, lb) = (loc(*dst), loc(*a), loc(*b));
                match d {
                    // `rd` is the right operand only: swap a commuting
                    // operation, else (below) compute in scratch.
                    Loc::Reg(rd) if lb == d && la != d && commutes(*op) => {
                        apply(&mut out, *op, rd, la);
                    }
                    Loc::Reg(rd) if lb != d || la == d => {
                        place(&mut out, rd, la);
                        apply(&mut out, *op, rd, lb);
                    }
                    _ => {
                        place(&mut out, s0, la);
                        apply(&mut out, *op, s0, lb);
                        write(&mut out, d, s0);
                    }
                }
            }
            VInsn::AluImm { op, dst, a, imm } => {
                let d = loc(*dst);
                let t = match d {
                    Loc::Reg(rd) => rd,
                    _ => s0,
                };
                place(&mut out, t, loc(*a));
                out.push(Insn::AluImm {
                    op: *op,
                    dst: t,
                    imm: *imm,
                });
                write(&mut out, d, t);
            }
            VInsn::Neg { dst, src } => {
                let d = loc(*dst);
                let t = match d {
                    Loc::Reg(rd) => rd,
                    _ => s0,
                };
                place(&mut out, t, loc(*src));
                out.push(Insn::Neg { dst: t });
                write(&mut out, d, t);
            }
            VInsn::Ja(l) => {
                let falls_through = (code[vi + 1..].iter())
                    .map_while(|next| match next {
                        VInsn::Label(m) => Some(m),
                        _ => None,
                    })
                    .any(|m| m == l);
                if !falls_through {
                    fixups.push((out.len(), *l));
                    out.push(Insn::Ja { off: 0 });
                }
            }
            VInsn::Jcc { cond, a, b, target } => {
                let ra = read(&mut out, loc(*a), s0);
                let jump = match loc(*b) {
                    Loc::Imm(imm) => Insn::JmpImm {
                        cond: *cond,
                        lhs: ra,
                        imm,
                        off: 0,
                    },
                    lb => Insn::Jmp {
                        cond: *cond,
                        lhs: ra,
                        rhs: read(&mut out, lb, s1),
                        off: 0,
                    },
                };
                fixups.push((out.len(), *target));
                out.push(jump);
            }
            VInsn::JccImm {
                cond,
                a,
                imm,
                target,
            } => {
                let ra = read(&mut out, loc(*a), s0);
                fixups.push((out.len(), *target));
                out.push(Insn::JmpImm {
                    cond: *cond,
                    lhs: ra,
                    imm: *imm,
                    off: 0,
                });
            }
            VInsn::Call { helper, args, ret } => {
                debug_assert!(args.len() <= 2, "at most two helper operands");
                let mut arg = |i: usize| match args.get(i) {
                    Some(v) => operand(&mut out, loc(*v), SCRATCH[i]),
                    None => Operand::Imm(0),
                };
                let (a, b) = (arg(0), arg(1));
                let ret = ret.map(loc);
                let dst = match ret {
                    Some(Loc::Reg(r)) => r,
                    _ => s0,
                };
                out.push(Insn::Call {
                    helper: *helper,
                    dst,
                    a,
                    b,
                });
                if let Some(slot @ Loc::Slot(_)) = ret {
                    write(&mut out, slot, s0);
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

    // The debug table lives as long as the program: it holds no slack.
    spans.shrink_to_fit();
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
    use crate::bytecode::{AluOp, Cond, Helper};

    /// How many registers linear scan hands out.
    fn allocatable() -> usize {
        free_registers().len()
    }

    /// `dst = SUBFLOWS.COUNT`: a value only known at run time, which the
    /// allocator must keep in a register or a slot.
    fn runtime_value(dst: u32) -> VInsn {
        VInsn::Call {
            helper: Helper::SubflowCount,
            args: vec![],
            ret: Some(VReg(dst)),
        }
    }

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
    fn pressure_spills_only_the_excess() {
        // Two values more than there are registers, live at once: one or
        // two of them go to the stack, no more.
        let live = allocatable() as u32 + 2;
        let mut code: Vec<VInsn> = (0..live).map(runtime_value).collect();
        // All of them are simultaneously live here.
        for i in 1..live {
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

    /// A counted loop over `SUBFLOWS`: `n` and `idx` are defined before
    /// the head, `t` is a temporary of the body.
    fn loop_with_temporary() -> Vec<VInsn> {
        let (n, idx, t) = (VReg(0), VReg(1), VReg(2));
        let (head, end) = (Label(0), Label(1));
        vec![
            runtime_value(0),
            VInsn::MovImm { dst: idx, imm: 0 },
            VInsn::AluImm {
                op: AluOp::Add,
                dst: idx,
                a: idx,
                imm: 0,
            },
            VInsn::Label(head),
            VInsn::Jcc {
                cond: Cond::Ge,
                a: idx,
                b: n,
                target: end,
            },
            VInsn::Call {
                helper: Helper::SubflowAt,
                args: vec![idx],
                ret: Some(t),
            },
            VInsn::Call {
                helper: Helper::HasWindowFor,
                args: vec![t, idx],
                ret: None,
            },
            VInsn::AluImm {
                op: AluOp::Add,
                dst: idx,
                a: idx,
                imm: 1,
            },
            VInsn::Ja(head),
            VInsn::Label(end),
            VInsn::Exit,
        ]
    }

    fn intervals_of(code: &[VInsn]) -> Vec<Interval> {
        let cfg = Cfg::new(code);
        live_intervals(code, &cfg, &Liveness::new(code, &cfg), &constants(code))
    }

    fn interval_of(intervals: &[Interval], v: u32) -> Interval {
        *intervals.iter().find(|iv| iv.vreg == VReg(v)).unwrap()
    }

    #[test]
    fn a_loop_local_temporary_ends_inside_the_loop() {
        let code = loop_with_temporary();
        let intervals = intervals_of(&code);
        let back_edge = 2 * code.iter().position(|i| matches!(i, VInsn::Ja(_))).unwrap();
        let t = interval_of(&intervals, 2);
        // Defined by the SubflowAt call (VInsn 5), last read by the
        // HasWindowFor call (VInsn 6): not stretched to the back edge.
        assert_eq!((t.start, t.end), (2 * 5 + 1, 2 * 6));
        assert!(t.end < back_edge);
    }

    #[test]
    fn a_value_live_into_a_loop_head_survives_the_back_edge() {
        let code = loop_with_temporary();
        let intervals = intervals_of(&code);
        let back_edge = code.iter().position(|i| matches!(i, VInsn::Ja(_))).unwrap();
        for v in [0, 1] {
            let iv = interval_of(&intervals, v);
            assert!(iv.end > 2 * back_edge, "vreg {v} dies at {}", iv.end);
        }
        // The three never share a register.
        let prog = allocate(&code).unwrap();
        assert_eq!(prog.stack_slots, 0);
        crate::vm::verify(&prog).unwrap();
    }

    #[test]
    fn a_constant_occupies_no_register_and_no_slot() {
        // Ten constants live across one another: none is allocated, each
        // use is an immediate operand, and one too wide for an immediate
        // goes through a scratch register.
        let mut code: Vec<VInsn> = (0..10u32)
            .map(|i| VInsn::MovImm {
                dst: VReg(i),
                imm: i64::from(i) + 40,
            })
            .collect();
        code.push(VInsn::MovImm {
            dst: VReg(10),
            imm: 1 << 20,
        });
        for i in 0..10u32 {
            code.push(VInsn::Call {
                helper: Helper::SetReg,
                args: vec![VReg(i), VReg(10 - i % 2 * 10)],
                ret: None,
            });
        }
        code.push(VInsn::Exit);
        assert!(intervals_of(&code).is_empty());
        let prog = allocate(&code).unwrap();
        assert_eq!(prog.stack_slots, 0);
        assert_eq!(
            prog.code[..3],
            [
                Insn::MovImm {
                    dst: SCRATCH[1],
                    imm: 1 << 20
                },
                Insn::Call {
                    helper: Helper::SetReg,
                    dst: SCRATCH[0],
                    a: Operand::Imm(40),
                    b: Operand::Reg(SCRATCH[1]),
                },
                Insn::Call {
                    helper: Helper::SetReg,
                    dst: SCRATCH[0],
                    a: Operand::Imm(41),
                    b: Operand::Imm(40),
                },
            ],
            "{}",
            prog.disassemble()
        );
        assert_eq!(prog.code.len(), 5 * 3 + 1);
    }

    #[test]
    fn a_value_live_across_a_call_keeps_its_register() {
        // `x` is defined before a call, read by it and read after it: it
        // stays in its register throughout, with no spill and no move,
        // and the call writes its result straight to a register of its
        // own.
        let (x, y) = (VReg(0), VReg(1));
        let code = vec![
            runtime_value(0),
            VInsn::Call {
                helper: Helper::SubflowAt,
                args: vec![x],
                ret: Some(y),
            },
            VInsn::Call {
                helper: Helper::HasWindowFor,
                args: vec![y, x],
                ret: Some(y),
            },
            VInsn::Alu {
                op: AluOp::Add,
                dst: y,
                a: y,
                b: x,
            },
            VInsn::Call {
                helper: Helper::Push,
                args: vec![x, y],
                ret: None,
            },
            VInsn::Exit,
        ];
        let prog = allocate(&code).unwrap();
        assert_eq!(prog.stack_slots, 0);
        assert_eq!(prog.code.len(), code.len(), "{}", prog.disassemble());
        assert!(
            !prog
                .code
                .iter()
                .any(|i| matches!(i, Insn::Mov { .. } | Insn::Ld { .. } | Insn::St { .. })),
            "{}",
            prog.disassemble()
        );
        let Insn::Call { dst: rx, .. } = prog.code[0] else {
            panic!("{}", prog.disassemble());
        };
        let Insn::Call { dst: ry, a, .. } = prog.code[1] else {
            panic!("{}", prog.disassemble());
        };
        assert_eq!(a, Operand::Reg(rx));
        assert_ne!(rx, ry);
        let Insn::Call { a, .. } = prog.code[4] else {
            panic!("{}", prog.disassemble());
        };
        assert_eq!(a, Operand::Reg(rx), "x survives two calls in place");
    }

    #[test]
    fn incrementing_a_register_is_one_instruction() {
        // `x = x + 1` with `x` in a register lowers to `rX Add= 1`, with
        // no round trip through a scratch register.
        let x = VReg(0);
        let code = vec![
            runtime_value(0),
            VInsn::AluImm {
                op: AluOp::Add,
                dst: x,
                a: x,
                imm: 1,
            },
            VInsn::Call {
                helper: Helper::GetReg,
                args: vec![x],
                ret: None,
            },
            VInsn::Exit,
        ];
        let prog = allocate(&code).unwrap();
        let increments: Vec<&Insn> = prog
            .code
            .iter()
            .filter(|i| matches!(i, Insn::AluImm { .. }))
            .collect();
        assert_eq!(
            increments,
            [&Insn::AluImm {
                op: AluOp::Add,
                dst: 0,
                imm: 1
            }]
        );
        assert_eq!(prog.code.len(), 4, "{}", prog.disassemble());
    }

    #[test]
    fn undefined_label_is_error() {
        let code = vec![VInsn::Ja(Label(42)), VInsn::Exit];
        assert!(allocate(&code).is_err());
    }

    #[test]
    fn a_jump_to_the_next_instruction_emits_nothing() {
        // `Ja(l)` followed only by labels up to `l` would lower to
        // `ja +0`: nothing is emitted, and the label resolves to the
        // instruction after.
        let (l, m) = (Label(0), Label(1));
        let code = vec![
            runtime_value(0),
            VInsn::JccImm {
                cond: Cond::Eq,
                a: VReg(0),
                imm: 0,
                target: l,
            },
            VInsn::Ja(m),
            VInsn::Label(l),
            VInsn::Label(m),
            VInsn::Exit,
        ];
        let prog = allocate(&code).unwrap();
        assert!(
            !prog.code.iter().any(|i| matches!(i, Insn::Ja { .. })),
            "{}",
            prog.disassemble()
        );
        assert_eq!(prog.code.len(), 3);
        crate::vm::verify(&prog).unwrap();
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
        // Twelve values all live at once against eight allocatable
        // registers: at least four must move to stack slots, and the
        // lowered program must still pass the verifier.
        const LIVE: u32 = 12;
        let mut code: Vec<VInsn> = (0..LIVE).map(runtime_value).collect();
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
            usize::from(prog.stack_slots) >= LIVE as usize - allocatable(),
            "expected >= {} spill slots, got {}",
            LIVE as usize - allocatable(),
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
        let mut code: Vec<VInsn> = (0..LIVE).map(runtime_value).collect();
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
        let live = (MAX_STACK_SLOTS + allocatable() + 1) as u32;
        let mut code: Vec<VInsn> = (0..live).map(runtime_value).collect();
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
