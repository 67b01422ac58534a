//! Bytecode verifier rejection tests and runtime-fault behavior.
//!
//! The verifier is the safety boundary of the VM backend (the analogue
//! of the kernel eBPF verifier): hand-built malformed programs must be
//! rejected statically, and the one fault that can only manifest at
//! runtime (the step budget) must surface as the documented `ExecError`.
//! A malformed image cannot reach the VM at all: `execute` runs only the
//! `VerifiedImage` that `verify` returns.

use progmp_core::bytecode::{AluOp, BytecodeProgram, Cond, Insn, MAX_STACK_SLOTS, NUM_MACH_REGS};
use progmp_core::env::NUM_REGISTERS;
use progmp_core::testenv::MockEnv;
use progmp_core::vm::{execute, verify};
use progmp_core::{Backend, ExecCtx, ExecError};

fn prog(code: Vec<Insn>, stack_slots: u16) -> BytecodeProgram {
    BytecodeProgram { code, stack_slots }
}

#[test]
fn empty_program_is_rejected() {
    assert!(verify(&prog(vec![], 0)).is_err());
}

#[test]
fn missing_terminal_exit_is_rejected() {
    let p = prog(vec![Insn::MovImm { dst: 0, imm: 1 }], 0);
    let err = verify(&p).unwrap_err();
    assert!(
        err.message.to_lowercase().contains("exit"),
        "{}",
        err.message
    );
}

#[test]
fn out_of_bounds_forward_jump_is_rejected() {
    // Ja +5 from the first of two instructions lands past the program.
    let p = prog(vec![Insn::Ja { off: 5 }, Insn::Exit], 0);
    assert!(verify(&p).is_err());
}

#[test]
fn out_of_bounds_backward_jump_is_rejected() {
    let p = prog(vec![Insn::Ja { off: -3 }, Insn::Exit], 0);
    assert!(verify(&p).is_err());
}

#[test]
fn conditional_jump_target_is_checked() {
    let p = prog(
        vec![
            Insn::JmpImm {
                cond: Cond::Eq,
                lhs: 0,
                imm: 0,
                off: 7,
            },
            Insn::Exit,
        ],
        0,
    );
    assert!(verify(&p).is_err());
}

#[test]
fn register_out_of_range_is_rejected() {
    let p = prog(
        vec![
            Insn::MovImm {
                dst: NUM_MACH_REGS as u8,
                imm: 0,
            },
            Insn::Exit,
        ],
        0,
    );
    assert!(verify(&p).is_err());
}

#[test]
fn write_to_frame_pointer_is_rejected() {
    // r10 is the read-only frame pointer.
    let p = prog(
        vec![
            Insn::Alu {
                op: AluOp::Add,
                dst: 10,
                src: 0,
            },
            Insn::Exit,
        ],
        0,
    );
    assert!(verify(&p).is_err());
}

#[test]
fn stack_slot_budget_is_enforced() {
    let p = prog(vec![Insn::Exit], (MAX_STACK_SLOTS + 1) as u16);
    assert!(verify(&p).is_err());
}

#[test]
fn slot_access_beyond_declared_frame_is_rejected() {
    let p = prog(
        vec![Insn::St { slot: 2, src: 0 }, Insn::Exit],
        2, // slots 0 and 1 only
    );
    assert!(verify(&p).is_err());
    // In-bounds access with the same frame verifies.
    let ok = prog(
        vec![
            Insn::St { slot: 1, src: 0 },
            Insn::Ld { dst: 0, slot: 1 },
            Insn::Exit,
        ],
        2,
    );
    verify(&ok).expect("in-bounds slot access must verify");
}

#[test]
fn self_loop_verifies_but_exhausts_step_budget() {
    // `Ja -1` jumps to itself: structurally valid (the target is in
    // range), so the verifier accepts it; termination is enforced by the
    // runtime step budget instead — exactly the eBPF split of concerns.
    let p = prog(vec![Insn::Ja { off: -1 }, Insn::Exit], 0);
    let image = verify(&p).expect("self-loop is structurally valid");
    let env = MockEnv::new();
    let mut ctx = ExecCtx::new(&env, 1000);
    let err = execute(&image, &mut ctx).unwrap_err();
    assert_eq!(err, ExecError::StepBudgetExhausted { budget: 1000 });
}

#[test]
fn out_of_range_slot_is_rejected_before_it_can_run() {
    // The slot the image would read lies past its declared frame: the
    // verifier refuses it, so no `VerifiedImage` — the only thing
    // `execute` accepts — exists for it.
    let p = prog(vec![Insn::Ld { dst: 0, slot: 63 }, Insn::Exit], 1);
    let err = verify(&p).unwrap_err();
    assert!(err.message.contains("stack slot 63"), "{}", err.message);
}

#[test]
fn spilled_register_pressure_computes_correctly_end_to_end() {
    // Twelve live values forced through the allocator's spill path: the
    // VM must agree with the interpreter and with the arithmetic.
    let mut src = String::new();
    for i in 0..12 {
        src.push_str(&format!("VAR a{i} = R1 + {i};\n"));
    }
    src.push_str("SET(R2, a0");
    for i in 1..12 {
        src.push_str(&format!(" + a{i}"));
    }
    src.push_str(");\n");
    let program = progmp_core::compile(&src).expect("pressure program compiles");
    let mut results = Vec::new();
    for backend in Backend::ALL {
        let mut env = MockEnv::new();
        env.set_register(progmp_core::env::RegId::R1, 5);
        let mut instance = program.instantiate(backend);
        instance.execute(&mut env).expect("executes");
        let mut regs = [0i64; NUM_REGISTERS];
        for (i, r) in regs.iter_mut().enumerate() {
            use progmp_core::env::SchedulerEnv;
            *r = env.register(
                progmp_core::env::RegId::new(i as u8 + 1).expect("register index in range"),
            );
        }
        results.push(regs);
    }
    // 12 * 5 + (0 + 1 + ... + 11) = 60 + 66 = 126.
    assert_eq!(results[0][1], 126);
    assert!(results.iter().all(|r| *r == results[0]), "{results:?}");
}
