//! Verifier and executor for the eBPF-flavoured bytecode.
//!
//! Mirrors the kernel eBPF infrastructure's contract: programs are
//! statically verified once when loaded (register bounds, branch targets,
//! stack bounds, guaranteed termination through the runtime step budget)
//! and then executed without further checks beyond the step counter.
//!
//! The contract is a type: [`verify`] is the only constructor of a
//! [`VerifiedImage`], and [`execute`] runs nothing else. So the run loop
//! trusts what verification established — every register is below
//! `r11`, every slot below the image's slot count, every jump lands
//! inside the image, and the image ends in `Exit` — and checks none of it
//! again. Registers and the frame are fixed-size arrays on the Rust
//! stack, indexed through a mask, so no bounds check and no `unsafe` is
//! needed; one step is still charged per instruction.
//!
//! The paper's *constant subflow number* optimization (§4.1) is not
//! reproduced as code patching: `SUBFLOWS.COUNT` stays the `SubflowCount`
//! helper call of the one image every connection shares, so the only
//! image that executes is the image that was validated.

use crate::bytecode::{BytecodeProgram, DebugTable, Helper, Insn, MAX_STACK_SLOTS, NUM_MACH_REGS};
use crate::env::{PacketProp, QueueKind, RegId, SubflowProp};
use crate::error::{CompileError, ExecError, Pos, Stage};
use crate::exec::{ExecCtx, NULL_HANDLE};
use std::ops::Deref;

/// A bytecode program that passed [`verify`], the only way to build one:
/// the one type [`execute`] runs. It reads as the [`BytecodeProgram`] it
/// wraps and cannot be changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifiedImage(BytecodeProgram);

impl Deref for VerifiedImage {
    type Target = BytecodeProgram;

    fn deref(&self) -> &BytecodeProgram {
        &self.0
    }
}

impl PartialEq<BytecodeProgram> for VerifiedImage {
    fn eq(&self, other: &BytecodeProgram) -> bool {
        self.0 == *other
    }
}

/// Statically verifies a bytecode program (structural checks only; the
/// dataflow verifier lives in [`crate::verify::vm`]) and returns the
/// image the VM may run.
///
/// Rejects out-of-range registers, writes to the frame pointer `r10`,
/// branches outside the instruction stream, stack accesses beyond the
/// declared slot count, and a missing terminal `Exit`.
pub fn verify(prog: &BytecodeProgram) -> Result<VerifiedImage, CompileError> {
    verify_with_debug(prog, None)
}

/// Like [`verify`], but routes rejection positions through the
/// instruction → source-span side table, so structural failures point at
/// the scheduler source construct whose code is malformed.
pub fn verify_with_debug(
    prog: &BytecodeProgram,
    debug: Option<&DebugTable>,
) -> Result<VerifiedImage, CompileError> {
    check_structure(prog, debug)?;
    Ok(VerifiedImage(prog.clone()))
}

/// The checks of [`verify_with_debug`], without building the image.
pub(crate) fn check_structure(
    prog: &BytecodeProgram,
    debug: Option<&DebugTable>,
) -> Result<(), CompileError> {
    let pos_at = |pc: usize| debug.map(|d| d.pos(pc)).unwrap_or(Pos::new(0, 0));
    let err_at = |pc: usize, msg: String| CompileError::new(Stage::VmVerify, pos_at(pc), msg);
    let n = prog.code.len();
    if n == 0 {
        return Err(err_at(0, "empty program".into()));
    }
    if !matches!(prog.code[n - 1], Insn::Exit) {
        return Err(err_at(n - 1, "program does not end with exit".into()));
    }
    if usize::from(prog.stack_slots) > MAX_STACK_SLOTS {
        return Err(err_at(
            0,
            format!(
                "stack requirement {} exceeds {MAX_STACK_SLOTS} slots",
                prog.stack_slots
            ),
        ));
    }
    for (i, insn) in prog.code.iter().enumerate() {
        let err = |msg: String| err_at(i, format!("pc {i}: {msg}"));
        let check_reg = |r: u8, writable: bool| -> Result<(), CompileError> {
            if usize::from(r) >= NUM_MACH_REGS {
                return Err(err(format!("register r{r} out of range")));
            }
            if writable && r == 10 {
                return Err(err("r10 (frame pointer) is read-only".into()));
            }
            Ok(())
        };
        let check_slot = |s: u16| -> Result<(), CompileError> {
            if s >= prog.stack_slots {
                return Err(err(format!(
                    "stack slot {s} outside declared range {}",
                    prog.stack_slots
                )));
            }
            Ok(())
        };
        let check_jump = |off: i32| -> Result<(), CompileError> {
            let target = i as i64 + 1 + i64::from(off);
            if target < 0 || target >= n as i64 {
                return Err(err("branch jumps outside program".into()));
            }
            Ok(())
        };
        match insn {
            Insn::MovImm { dst, .. } | Insn::Neg { dst } => check_reg(*dst, true)?,
            Insn::Mov { dst, src } => {
                check_reg(*dst, true)?;
                check_reg(*src, false)?;
            }
            Insn::Alu { dst, src, .. } => {
                check_reg(*dst, true)?;
                check_reg(*src, false)?;
            }
            Insn::AluImm { dst, .. } => check_reg(*dst, true)?,
            Insn::Ja { off } => check_jump(*off)?,
            Insn::Jmp { lhs, rhs, off, .. } => {
                check_reg(*lhs, false)?;
                check_reg(*rhs, false)?;
                check_jump(*off)?;
            }
            Insn::JmpImm { lhs, off, .. } => {
                check_reg(*lhs, false)?;
                check_jump(*off)?;
            }
            Insn::Call { .. } => {}
            Insn::Ld { dst, slot } => {
                check_reg(*dst, true)?;
                check_slot(*slot)?;
            }
            Insn::St { slot, src } => {
                check_reg(*src, false)?;
                check_slot(*slot)?;
            }
            Insn::Exit => {}
        }
    }
    Ok(())
}

/// Executes a verified image against `ctx`, recording per-instruction
/// hit counts into `counts` (resized to the code length). This powers the
/// proc-style "performance profiling traces based on the control flow
/// representation" of paper §4.1.
pub fn execute_profiled(
    image: &VerifiedImage,
    ctx: &mut ExecCtx<'_>,
    counts: &mut Vec<u64>,
) -> Result<(), ExecError> {
    counts.resize(image.code.len(), 0);
    run(image, ctx, counts.as_mut_slice())
}

/// Executes a verified image against `ctx`. One step is charged per
/// instruction; queue/subflow scans charge through their helper calls.
pub fn execute(image: &VerifiedImage, ctx: &mut ExecCtx<'_>) -> Result<(), ExecError> {
    run(image, ctx, &mut NoProfile)
}

/// What the run loop records per executed instruction.
trait Profile {
    fn hit(&mut self, pc: usize);
}

/// Records nothing: the plain [`execute`].
struct NoProfile;

impl Profile for NoProfile {
    #[inline(always)]
    fn hit(&mut self, _pc: usize) {}
}

/// Counts hits per pc: [`execute_profiled`].
impl Profile for [u64] {
    #[inline(always)]
    fn hit(&mut self, pc: usize) {
        self[pc] += 1;
    }
}

/// Register-file size: the [`NUM_MACH_REGS`] registers rounded up to a
/// power of two, so a register index is masked rather than checked.
const REG_FILE: usize = NUM_MACH_REGS.next_power_of_two();

const _: () = assert!(MAX_STACK_SLOTS.is_power_of_two());

#[inline(always)]
fn r(reg: u8) -> usize {
    usize::from(reg) & (REG_FILE - 1)
}

#[inline(always)]
fn slot(s: u16) -> usize {
    usize::from(s) & (MAX_STACK_SLOTS - 1)
}

/// The run loop. `image` passed [`verify`], so every register is below
/// [`NUM_MACH_REGS`], every slot below its slot count and every jump
/// inside it; the masks only keep the indexing free of bounds checks.
fn run<P: Profile + ?Sized>(
    image: &VerifiedImage,
    ctx: &mut ExecCtx<'_>,
    profile: &mut P,
) -> Result<(), ExecError> {
    let mut regs = [0i64; REG_FILE];
    let mut stack = [0i64; MAX_STACK_SLOTS];
    let code = image.code.as_slice();
    let mut pc: usize = 0;
    loop {
        ctx.step(1)?;
        profile.hit(pc);
        let insn = code[pc];
        pc += 1;
        match insn {
            Insn::MovImm { dst, imm } => regs[r(dst)] = imm,
            Insn::Mov { dst, src } => regs[r(dst)] = regs[r(src)],
            Insn::Alu { op, dst, src } => regs[r(dst)] = op.eval(regs[r(dst)], regs[r(src)]),
            Insn::AluImm { op, dst, imm } => regs[r(dst)] = op.eval(regs[r(dst)], imm),
            Insn::Neg { dst } => regs[r(dst)] = regs[r(dst)].wrapping_neg(),
            Insn::Ja { off } => pc = jump(pc, off),
            Insn::Jmp {
                cond,
                lhs,
                rhs,
                off,
            } => {
                if cond.eval(regs[r(lhs)], regs[r(rhs)]) {
                    pc = jump(pc, off);
                }
            }
            Insn::JmpImm {
                cond,
                lhs,
                imm,
                off,
            } => {
                if cond.eval(regs[r(lhs)], imm) {
                    pc = jump(pc, off);
                }
            }
            Insn::Call { helper } => {
                regs[0] = call_helper(ctx, helper, regs[1], regs[2]);
                // Helper calls clobber the argument registers, as in eBPF.
                regs[1..6].fill(0);
            }
            Insn::Ld { dst, slot: s } => regs[r(dst)] = stack[slot(s)],
            Insn::St { slot: s, src } => stack[slot(s)] = regs[r(src)],
            Insn::Exit => return Ok(()),
        }
    }
}

#[inline]
fn jump(pc: usize, off: i32) -> usize {
    (pc as i64 + i64::from(off)) as usize
}

#[inline]
fn call_helper(ctx: &mut ExecCtx<'_>, helper: Helper, r1: i64, r2: i64) -> i64 {
    match helper {
        Helper::GetReg => reg_id(r1).map(|r| ctx.get_reg(r)).unwrap_or(0),
        Helper::SetReg => {
            if let Some(r) = reg_id(r1) {
                ctx.set_reg(r, r2);
            }
            0
        }
        Helper::SubflowCount => ctx.subflow_count(),
        Helper::SubflowAt => ctx.subflow_at(r1),
        Helper::SubflowProp => SubflowProp::from_code(r2)
            .map(|p| ctx.subflow_prop(r1, p))
            .unwrap_or(0),
        Helper::QueueLen => QueueKind::from_code(r1)
            .map(|q| ctx.queue_raw_len(q))
            .unwrap_or(0),
        Helper::QueueGet => QueueKind::from_code(r1)
            .map(|q| ctx.queue_get(q, r2))
            .unwrap_or(NULL_HANDLE),
        Helper::PacketProp => PacketProp::from_code(r2)
            .map(|p| ctx.packet_prop(r1, p))
            .unwrap_or(0),
        Helper::SentOn => ctx.sent_on(r1, r2),
        Helper::HasWindowFor => ctx.has_window_for(r1, r2),
        Helper::Pop => {
            ctx.pop(r1);
            0
        }
        Helper::Push => {
            ctx.push(r1, r2);
            0
        }
        Helper::DropPkt => {
            ctx.drop_packet(r1);
            0
        }
    }
}

#[inline]
fn reg_id(index: i64) -> Option<RegId> {
    u8::try_from(index)
        .ok()
        .and_then(|i| RegId::new(i.checked_add(1)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::generate;
    use crate::env::SchedulerEnv;
    use crate::parser::parse;
    use crate::regalloc::allocate;
    use crate::sema::lower;
    use crate::testenv::MockEnv;

    fn compile_vm(src: &str) -> VerifiedImage {
        let hir = lower(&parse(src).unwrap()).unwrap();
        let vcode = generate(&hir).unwrap();
        let prog = allocate(&vcode.insns).unwrap();
        verify(&prog).expect("generated code verifies")
    }

    fn run_vm(src: &str, env: &mut MockEnv) {
        let prog = compile_vm(src);
        let mut ctx = ExecCtx::new(env, 1_000_000);
        execute(&prog, &mut ctx).unwrap();
        let (regs, actions, _) = ctx.finish();
        env.apply(&regs, &actions);
    }

    #[test]
    fn vm_runs_min_rtt() {
        use crate::env::{QueueKind, SubflowProp};
        let mut env = MockEnv::new();
        env.add_subflow(0);
        env.set_subflow_prop(0, SubflowProp::Rtt, 10_000);
        env.add_subflow(1);
        env.set_subflow_prop(1, SubflowProp::Rtt, 40_000);
        env.push_packet(QueueKind::SendQueue, 100, 0, 1400);
        run_vm(
            "IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) { SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP()); }",
            &mut env,
        );
        assert_eq!(env.transmissions.len(), 1);
        assert_eq!(env.transmissions[0].0 .0, 0);
    }

    #[test]
    fn vm_arithmetic_matches_semantics() {
        use crate::env::RegId;
        let mut env = MockEnv::new();
        run_vm(
            "SET(R1, (7 * 3 - 1) / 4); SET(R2, 10 % 3); SET(R3, 5 / 0);",
            &mut env,
        );
        assert_eq!(env.register(RegId::R1), 5);
        assert_eq!(env.register(RegId::R2), 1);
        assert_eq!(env.register(RegId::R3), 0);
    }

    #[test]
    fn verifier_rejects_bad_jump() {
        let prog = BytecodeProgram {
            code: vec![Insn::Ja { off: 5 }, Insn::Exit],
            stack_slots: 0,
        };
        assert!(verify(&prog).is_err());
    }

    #[test]
    fn verifier_rejects_missing_exit() {
        let prog = BytecodeProgram {
            code: vec![Insn::MovImm { dst: 0, imm: 1 }],
            stack_slots: 0,
        };
        assert!(verify(&prog).is_err());
    }

    #[test]
    fn verifier_rejects_bad_register() {
        let prog = BytecodeProgram {
            code: vec![Insn::MovImm { dst: 11, imm: 1 }, Insn::Exit],
            stack_slots: 0,
        };
        assert!(verify(&prog).is_err());
    }

    #[test]
    fn verifier_rejects_frame_pointer_write() {
        let prog = BytecodeProgram {
            code: vec![Insn::MovImm { dst: 10, imm: 1 }, Insn::Exit],
            stack_slots: 0,
        };
        assert!(verify(&prog).is_err());
    }

    #[test]
    fn verifier_rejects_stack_overflow() {
        let prog = BytecodeProgram {
            code: vec![Insn::St { slot: 3, src: 0 }, Insn::Exit],
            stack_slots: 2,
        };
        assert!(verify(&prog).is_err());
    }

    #[test]
    fn verifier_reports_vm_verify_stage_and_debug_spans() {
        // Structural rejections report the dedicated stage, and when a
        // debug side table is available the position of the faulty pc.
        let prog = BytecodeProgram {
            code: vec![
                Insn::MovImm { dst: 0, imm: 1 },
                Insn::Ja { off: 5 },
                Insn::Exit,
            ],
            stack_slots: 0,
        };
        let err = verify(&prog).unwrap_err();
        assert_eq!(err.stage, Stage::VmVerify);
        assert!(err.message.contains("pc 1"), "{}", err.message);
        assert_eq!(err.pos, Pos::new(0, 0), "no table -> placeholder span");

        let debug = DebugTable {
            spans: vec![Pos::new(1, 1), Pos::new(2, 5), Pos::new(2, 5)],
        };
        let err = verify_with_debug(&prog, Some(&debug)).unwrap_err();
        assert_eq!(err.pos, Pos::new(2, 5), "span of the faulty instruction");
    }

    #[test]
    fn an_image_that_fails_verification_cannot_be_executed() {
        // `execute` runs only a `VerifiedImage`, and `verify` is its one
        // constructor: an image with an out-of-range register, slot or
        // jump never reaches the unchecked run loop.
        let bad = [
            (Insn::MovImm { dst: 12, imm: 1 }, 0),
            (Insn::Ld { dst: 6, slot: 2 }, 2),
            (Insn::Ja { off: 7 }, 0),
        ];
        for (insn, stack_slots) in bad {
            let prog = BytecodeProgram {
                code: vec![insn, Insn::Exit],
                stack_slots,
            };
            assert!(verify(&prog).is_err(), "{insn} must not verify");
        }
        let good = BytecodeProgram {
            code: vec![Insn::Ld { dst: 6, slot: 1 }, Insn::Exit],
            stack_slots: 2,
        };
        let image = verify(&good).expect("in range");
        assert_eq!(image, good, "the image is the program it verified");
        let env = MockEnv::new();
        let mut ctx = ExecCtx::new(&env, 1000);
        execute(&image, &mut ctx).unwrap();
        assert_eq!(ctx.finish().2.steps, 2, "one step per instruction");
    }

    #[test]
    fn step_budget_terminates_runaway_loop() {
        // Hand-written infinite loop: the budget must stop it.
        let prog = BytecodeProgram {
            code: vec![Insn::Ja { off: -1 }, Insn::Exit],
            stack_slots: 0,
        };
        let image = verify(&prog).unwrap();
        let env = MockEnv::new();
        let mut ctx = ExecCtx::new(&env, 1000);
        assert!(matches!(
            execute(&image, &mut ctx),
            Err(ExecError::StepBudgetExhausted { .. })
        ));
    }

    #[test]
    fn helper_call_clobbers_arg_registers() {
        // r1..r5 are zeroed by calls; ensure lowered code never relies on
        // them surviving. This is a structural test over generated code:
        // after every Call, the next read of r1..r5 must be a write-first.
        let prog = compile_vm("VAR a = SUBFLOWS.COUNT; VAR b = SUBFLOWS.COUNT; SET(R1, a + b);");
        // Execute for effect: two subflows -> R1 = 4.
        let mut env = MockEnv::new();
        env.add_subflow(0);
        env.add_subflow(1);
        let mut ctx = ExecCtx::new(&env, 10_000);
        execute(&prog, &mut ctx).unwrap();
        let (regs, actions, _) = ctx.finish();
        env.apply(&regs, &actions);
        assert_eq!(env.register(crate::env::RegId::R1), 4);
    }
}
