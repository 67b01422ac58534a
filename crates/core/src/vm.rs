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
//! needed.
//!
//! **Steps are charged per block.** One step is one executed instruction,
//! but the loop does not count them one by one. [`verify`] records, per
//! pc, the length of the straight run from there up to and including
//! the next jump or `Exit`; the loop charges that length whenever it
//! enters a run: at pc 0 and after every jump, taken or not. The ledger
//! is the per-instruction count exactly: every instruction of a run
//! executes once the run is entered, because nothing inside it but a
//! jump or `Exit` leaves it and no helper call can fail. So a run's
//! charge overruns the budget iff one of its instructions would have,
//! and on success the sums are equal.
//!
//! The paper's *constant subflow number* optimization (§4.1) is not
//! reproduced as code patching: `SUBFLOWS.COUNT` stays the `SubflowCount`
//! helper call of the one image every connection shares, so the only
//! image that executes is the image that was validated.

use crate::bytecode::{
    BytecodeProgram, DebugTable, Helper, Insn, Operand, MAX_STACK_SLOTS, NUM_MACH_REGS,
};
use crate::env::{PacketProp, QueueKind, RegId, SubflowProp};
use crate::error::{CompileError, ExecError, Pos, Stage};
use crate::exec::{ExecCtx, NULL_HANDLE};
use crate::flow::jump_target;
use std::ops::Deref;

/// A bytecode program that passed [`verify`], the only way to build one:
/// the one type [`execute`] runs. It reads as the [`BytecodeProgram`] it
/// wraps and cannot be changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifiedImage {
    program: BytecodeProgram,
    /// Per pc, the steps charged on entering it: the instructions from
    /// there up to and including the next jump or `Exit`.
    runs: Vec<u32>,
}

impl Deref for VerifiedImage {
    type Target = BytecodeProgram;

    fn deref(&self) -> &BytecodeProgram {
        &self.program
    }
}

impl PartialEq<BytecodeProgram> for VerifiedImage {
    fn eq(&self, other: &BytecodeProgram) -> bool {
        self.program == *other
    }
}

/// [`VerifiedImage::runs`] of a verified stream.
fn run_lengths(code: &[Insn]) -> Vec<u32> {
    let mut runs = vec![1u32; code.len()];
    for pc in (0..code.len().saturating_sub(1)).rev() {
        if jump_target(pc, &code[pc]).is_none() && code[pc] != Insn::Exit {
            runs[pc] += runs[pc + 1];
        }
    }
    runs
}

/// Statically verifies a bytecode program (structural checks only; the
/// dataflow verifier lives in [`crate::verify::vm`]) and returns the
/// image the VM may run.
///
/// Rejects out-of-range registers, writes to the frame pointer `r10`,
/// branches outside the instruction stream, stack accesses beyond the
/// declared slot count, a helper's enum-code operand that is not an
/// immediate, and a missing terminal `Exit`.
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
    Ok(VerifiedImage {
        program: prog.clone(),
        runs: run_lengths(&prog.code),
    })
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
            Insn::Call { helper, dst, a, b } => {
                if helper.has_result() {
                    check_reg(*dst, true)?;
                }
                for arg in helper.args(*a, *b) {
                    arg.reg().map_or(Ok(()), |r| check_reg(r, false))?;
                }
                if helper
                    .code_operand()
                    .is_some_and(|i| [a, b][i].reg().is_some())
                {
                    let msg = format!("call {helper:?}: its code operand must be an immediate");
                    return Err(err(msg));
                }
            }
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
/// instruction executed, a block at a time (see the module docs).
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
    let runs = image.runs.as_slice();
    let mut pc: usize = 0;
    ctx.step(u64::from(runs[pc]))?;
    loop {
        profile.hit(pc);
        let insn = code[pc];
        pc += 1;
        match insn {
            Insn::MovImm { dst, imm } => regs[r(dst)] = imm,
            Insn::Mov { dst, src } => regs[r(dst)] = regs[r(src)],
            Insn::Alu { op, dst, src } => regs[r(dst)] = op.eval(regs[r(dst)], regs[r(src)]),
            Insn::AluImm { op, dst, imm } => regs[r(dst)] = op.eval(regs[r(dst)], imm),
            Insn::Neg { dst } => regs[r(dst)] = regs[r(dst)].wrapping_neg(),
            Insn::Ja { off } => {
                pc = jump(pc, off);
                ctx.step(u64::from(runs[pc]))?;
            }
            Insn::Jmp {
                cond,
                lhs,
                rhs,
                off,
            } => {
                if cond.eval(regs[r(lhs)], regs[r(rhs)]) {
                    pc = jump(pc, off);
                }
                ctx.step(u64::from(runs[pc]))?;
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
                ctx.step(u64::from(runs[pc]))?;
            }
            Insn::Call { helper, dst, a, b } => {
                let (a, b) = (operand(&regs, a), operand(&regs, b));
                if let Some(v) = call_helper(ctx, helper, a, b) {
                    regs[r(dst)] = v;
                }
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

#[inline(always)]
fn operand(regs: &[i64; REG_FILE], op: Operand) -> i64 {
    match op {
        Operand::Reg(reg) => regs[r(reg)],
        Operand::Imm(imm) => i64::from(imm),
    }
}

/// Calls `helper` on the operand values `a` and `b`: its result, or
/// `None` for a void helper. Cannot fail.
#[inline]
fn call_helper(ctx: &mut ExecCtx<'_>, helper: Helper, a: i64, b: i64) -> Option<i64> {
    Some(match helper {
        Helper::GetReg => reg_id(a).map(|r| ctx.get_reg(r)).unwrap_or(0),
        Helper::SetReg => {
            if let Some(r) = reg_id(a) {
                ctx.set_reg(r, b);
            }
            return None;
        }
        Helper::SubflowCount => ctx.subflow_count(),
        Helper::SubflowAt => ctx.subflow_at(a),
        Helper::SubflowProp => SubflowProp::from_code(b)
            .map(|p| ctx.subflow_prop(a, p))
            .unwrap_or(0),
        Helper::QueueLen => QueueKind::from_code(a)
            .map(|q| ctx.queue_raw_len(q))
            .unwrap_or(0),
        Helper::QueueGet => QueueKind::from_code(a)
            .map(|q| ctx.queue_get(q, b))
            .unwrap_or(NULL_HANDLE),
        Helper::PacketProp => PacketProp::from_code(b)
            .map(|p| ctx.packet_prop(a, p))
            .unwrap_or(0),
        Helper::SentOn => ctx.sent_on(a, b),
        Helper::HasWindowFor => ctx.has_window_for(a, b),
        Helper::Pop => {
            ctx.pop(a);
            return None;
        }
        Helper::Push => {
            ctx.push(a, b);
            return None;
        }
        Helper::DropPkt => {
            ctx.drop_packet(a);
            return None;
        }
    })
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
    use crate::bytecode::Cond;
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
        let code_operand = Insn::Call {
            helper: Helper::SubflowProp,
            dst: 6,
            a: Operand::Imm(0),
            b: Operand::Reg(7),
        };
        let prog = BytecodeProgram {
            code: vec![code_operand, Insn::Exit],
            stack_slots: 0,
        };
        let err = verify(&prog).unwrap_err();
        assert!(err.message.contains("code operand"), "{}", err.message);
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
    fn a_call_writes_only_its_destination() {
        // Every register r0..r9 holds 100 + r; a valued call writes r5
        // and a void one writes nothing. Each other register is then
        // checked against its value, and only if all survived does the
        // image set R1.
        let set_r1 = Insn::Call {
            helper: Helper::SetReg,
            dst: 3,
            a: Operand::Imm(0),
            b: Operand::Imm(1),
        };
        let mut code: Vec<Insn> = (0..10u8)
            .map(|dst| Insn::MovImm {
                dst,
                imm: 100 + i64::from(dst),
            })
            .collect();
        code.push(Insn::Call {
            helper: Helper::SubflowCount,
            dst: 5,
            a: Operand::Reg(1),
            b: Operand::Reg(2),
        });
        code.push(Insn::Call {
            helper: Helper::SetReg,
            dst: 6,
            a: Operand::Imm(1),
            b: Operand::Reg(5),
        });
        let survivors: Vec<u8> = (0..10).filter(|&r| r != 5).collect();
        for (i, &lhs) in survivors.iter().enumerate() {
            let to_exit = (survivors.len() - i) as i32;
            code.push(Insn::JmpImm {
                cond: Cond::Ne,
                lhs,
                imm: 100 + i64::from(lhs),
                off: to_exit,
            });
        }
        code.extend([set_r1, Insn::Exit]);
        let image = verify(&BytecodeProgram {
            code,
            stack_slots: 0,
        })
        .unwrap();
        let mut env = MockEnv::new();
        env.add_subflow(0);
        env.add_subflow(1);
        let mut ctx = ExecCtx::new(&env, 1_000);
        execute(&image, &mut ctx).unwrap();
        let (regs, actions, _) = ctx.finish();
        env.apply(&regs, &actions);
        assert_eq!(env.register(crate::env::RegId::R2), 2, "r5 holds the count");
        assert_eq!(
            env.register(crate::env::RegId::R1),
            1,
            "every other register survived"
        );
    }

    /// The three `MockEnv` upcall fixtures: two subflows, and 16 queued
    /// packets with open windows, with closed windows, or none queued.
    fn upcall_fixtures() -> Vec<MockEnv> {
        use crate::env::{QueueKind, RegId, SubflowProp};
        ["send_ready", "cwnd_limited", "idle"]
            .into_iter()
            .map(|name| {
                let mut env = MockEnv::new();
                for i in 0..2u32 {
                    env.add_subflow(i);
                    env.set_subflow_prop(i, SubflowProp::Rtt, [12_000, 41_000][i as usize]);
                    let cwnd = if name == "cwnd_limited" { 0 } else { 100 };
                    env.set_subflow_prop(i, SubflowProp::Cwnd, cwnd);
                }
                env.set_register(RegId::R1, 1_000_000);
                if name != "idle" {
                    for p in 0..16u64 {
                        env.push_packet(QueueKind::SendQueue, 100 + p, 1400 * p as i64, 1400);
                    }
                }
                env
            })
            .collect()
    }

    #[test]
    fn block_charging_is_exact() {
        // On every shipped program and upcall fixture, the steps charged
        // a block at a time are the instructions executed; a budget of
        // exactly that many succeeds and one step less fails.
        let mut runs = 0;
        for (name, src) in progmp_schedulers::sources::ALL {
            let program = crate::compile_named(Some(name), src).expect(name);
            let image = program.bytecode();
            for env in upcall_fixtures() {
                let mut counts = Vec::new();
                let mut ctx = ExecCtx::new(&env, u64::MAX);
                execute_profiled(image, &mut ctx, &mut counts).expect(name);
                let executed: u64 = counts.iter().sum();
                assert_eq!(ctx.finish().2.steps, executed, "{name}");

                let mut ctx = ExecCtx::new(&env, executed);
                execute(image, &mut ctx).expect(name);
                assert_eq!(ctx.finish().2.steps, executed, "{name}");
                let mut ctx = ExecCtx::new(&env, executed - 1);
                assert_eq!(
                    execute(image, &mut ctx),
                    Err(ExecError::StepBudgetExhausted {
                        budget: executed - 1
                    }),
                    "{name}"
                );
                runs += 1;
            }
        }
        assert_eq!(runs, 18 * 3);
    }

    #[test]
    fn runs_end_at_each_jump_and_exit() {
        let code = [
            Insn::MovImm { dst: 6, imm: 0 },
            Insn::JmpImm {
                cond: Cond::Eq,
                lhs: 6,
                imm: 0,
                off: 1,
            },
            Insn::MovImm { dst: 7, imm: 0 },
            Insn::MovImm { dst: 8, imm: 0 },
            Insn::Ja { off: -5 },
            Insn::Exit,
        ];
        assert_eq!(run_lengths(&code), [2, 1, 3, 2, 1, 1]);
    }
}
