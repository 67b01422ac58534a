//! Integration corpus for the dataflow bytecode verifier.
//!
//! The module tests in `verify::vm` cover the abstract domain and
//! translation validation from the inside; this corpus drives the same
//! machinery through the crate's public surface the way embedders do:
//! hand-built [`BytecodeProgram`]s straight into [`verify_bytecode`],
//! hand-built virtual-register programs through the register allocator
//! (spill/reload def-use), and full source programs through the
//! `vm-verify` admission stage of [`progmp_core::compile`].

use progmp_core::bytecode::Operand::{self, Imm, Reg};
use progmp_core::bytecode::{AluOp, BytecodeProgram, Cond, Helper, Insn};
use progmp_core::codegen::{VCode, VInsn, VReg};
use progmp_core::exec::NULL_HANDLE;
use progmp_core::regalloc;
use progmp_core::verify::vm::{annotated_listing, verify_bytecode};
use progmp_core::verify::{Lint, Severity, VerifyConfig};

fn prog(code: Vec<Insn>) -> BytecodeProgram {
    BytecodeProgram {
        code,
        stack_slots: 0,
    }
}

fn check(p: &BytecodeProgram) -> progmp_core::verify::vm::BytecodeVerdict {
    verify_bytecode(p, None, &VerifyConfig::default())
}

fn call(helper: Helper, dst: u8, a: Operand, b: Operand) -> Insn {
    Insn::Call { helper, dst, a, b }
}

// --- uninitialized reads -------------------------------------------------

#[test]
fn read_before_any_write_is_rejected() {
    let v = check(&prog(vec![
        Insn::AluImm {
            op: AluOp::Add,
            dst: 6,
            imm: 1,
        },
        Insn::Exit,
    ]));
    assert!(!v.admitted());
    assert!(
        v.diagnostics
            .iter()
            .any(|d| d.lint == Lint::UninitRead && d.severity == Severity::Error),
        "{:?}",
        v.diagnostics
    );
}

#[test]
fn store_of_uninitialized_register_is_rejected() {
    let p = BytecodeProgram {
        code: vec![Insn::St { slot: 0, src: 8 }, Insn::Exit],
        stack_slots: 1,
    };
    let v = check(&p);
    assert!(!v.admitted());
    assert!(v
        .diagnostics
        .iter()
        .any(|d| d.lint == Lint::UninitRead && d.message.contains("r8")));
}

#[test]
fn a_void_call_writes_no_register() {
    // DropPkt has no result: the `dst` field it carries is never written,
    // so reading that register afterwards reads nothing.
    let v = check(&prog(vec![
        call(Helper::DropPkt, 6, Imm(-1), Imm(0)),
        Insn::Mov { dst: 7, src: 6 },
        Insn::Exit,
    ]));
    assert!(!v.admitted());
    assert!(v
        .diagnostics
        .iter()
        .any(|d| d.lint == Lint::UninitRead && d.message.contains("r6")));
}

#[test]
fn both_branch_arms_writing_satisfies_the_merge() {
    // The classic comparison lowering: 1 on one arm, 0 on the other. The
    // merge point sees an initialized value on every path.
    let v = check(&prog(vec![
        call(Helper::GetReg, 0, Imm(0), Imm(0)),
        Insn::JmpImm {
            cond: Cond::Eq,
            lhs: 0,
            imm: 0,
            off: 2,
        },
        Insn::MovImm { dst: 6, imm: 1 },
        Insn::Ja { off: 1 },
        Insn::MovImm { dst: 6, imm: 0 },
        Insn::Mov { dst: 7, src: 6 },
        Insn::Exit,
    ]));
    assert!(v.admitted(), "{:?}", v.diagnostics);
}

// --- dead code -----------------------------------------------------------

#[test]
fn instruction_after_unconditional_jump_is_reported_unreachable() {
    let v = check(&prog(vec![
        Insn::Ja { off: 1 },
        Insn::MovImm { dst: 6, imm: 9 },
        Insn::Exit,
    ]));
    // Dead code is a warning, not a rejection: the paper pipeline's
    // optimizer may leave benign unreachable tails.
    assert!(v.admitted(), "{:?}", v.diagnostics);
    let dead: Vec<_> = v
        .diagnostics
        .iter()
        .filter(|d| d.lint == Lint::UnreachableCode)
        .collect();
    assert!(!dead.is_empty(), "{:?}", v.diagnostics);
    assert!(dead.iter().all(|d| d.severity == Severity::Warning));
}

#[test]
fn branch_on_known_constant_makes_one_arm_unreachable() {
    // r6 = 7 is a known scalar, so `r6 == 7` always branches: the
    // fall-through arm is dead and the verifier's constant propagation
    // must see that.
    let v = check(&prog(vec![
        Insn::MovImm { dst: 6, imm: 7 },
        Insn::JmpImm {
            cond: Cond::Eq,
            lhs: 6,
            imm: 7,
            off: 1,
        },
        Insn::MovImm { dst: 7, imm: 1 },
        Insn::Exit,
    ]));
    assert!(v.admitted(), "{:?}", v.diagnostics);
    assert!(
        v.diagnostics
            .iter()
            .any(|d| d.lint == Lint::UnreachableCode && d.message.contains("pc 2")),
        "{:?}",
        v.diagnostics
    );
}

#[test]
fn annotated_listing_marks_unreachable_instructions() {
    let p = prog(vec![
        Insn::Ja { off: 1 },
        Insn::MovImm { dst: 6, imm: 9 },
        Insn::Exit,
    ]);
    let listing = annotated_listing(&p, None, &VerifyConfig::default());
    assert!(listing.contains("unreachable"), "{listing}");
}

// --- helper-signature violations ----------------------------------------

#[test]
fn scalar_passed_where_subflow_handle_expected_is_rejected() {
    // SubflowProp wants (subflow handle, prop code); 42 is a plain scalar.
    let v = check(&prog(vec![
        Insn::MovImm { dst: 1, imm: 42 },
        call(Helper::SubflowProp, 0, Reg(1), Imm(0)),
        Insn::Exit,
    ]));
    assert!(!v.admitted());
    assert!(
        v.diagnostics
            .iter()
            .any(|d| d.lint == Lint::HelperSignature && d.message.contains("subflow")),
        "{:?}",
        v.diagnostics
    );
}

#[test]
fn packet_handle_passed_to_subflow_helper_is_kind_confusion() {
    // QueueGet returns a packet handle; feeding it to SubflowProp as the
    // subflow argument is exactly the confusion the typed signatures
    // exist to catch.
    let v = check(&prog(vec![
        Insn::MovImm { dst: 2, imm: 0 },              // index
        call(Helper::QueueGet, 1, Imm(0), Reg(2)),    // packet handle → r1
        call(Helper::SubflowProp, 0, Reg(1), Imm(0)), // ... as the subflow
        Insn::Exit,
    ]));
    assert!(!v.admitted());
    assert!(
        v.diagnostics
            .iter()
            .any(|d| d.lint == Lint::HelperSignature),
        "{:?}",
        v.diagnostics
    );
}

#[test]
fn subflow_handle_passed_where_scalar_expected_is_rejected() {
    // SubflowAt's index argument is a scalar; a handle there means an
    // address is being used as arithmetic — a miscompile signature.
    let v = check(&prog(vec![
        call(Helper::SubflowAt, 1, Imm(0), Imm(0)),
        call(Helper::SubflowAt, 0, Reg(1), Imm(0)), // subflow handle as an index
        Insn::Exit,
    ]));
    assert!(!v.admitted());
    assert!(
        v.diagnostics
            .iter()
            .any(|d| d.lint == Lint::HelperSignature && d.message.contains("scalar")),
        "{:?}",
        v.diagnostics
    );
}

#[test]
fn null_handle_is_a_legal_helper_argument() {
    // NULL is a valid member of every handle type at the call boundary
    // (helpers perform their own null checks at runtime), so passing the
    // NULL_HANDLE sentinel must not trip the signature check.
    let v = check(&prog(vec![
        Insn::MovImm {
            dst: 1,
            imm: NULL_HANDLE,
        },
        call(Helper::DropPkt, 0, Reg(1), Imm(0)),
        Insn::Exit,
    ]));
    assert!(v.admitted(), "{:?}", v.diagnostics);
}

#[test]
fn arithmetic_on_a_handle_is_rejected() {
    let v = check(&prog(vec![
        call(Helper::SubflowAt, 6, Imm(0), Imm(0)),
        Insn::AluImm {
            op: AluOp::Add,
            dst: 6,
            imm: 4,
        },
        Insn::Exit,
    ]));
    assert!(!v.admitted());
    assert!(
        v.diagnostics.iter().any(|d| d.lint == Lint::HandleArith),
        "{:?}",
        v.diagnostics
    );
}

// --- regalloc spill/reload def-use --------------------------------------

/// Builds a VInsn program with `live` simultaneously-live scalar values
/// (forcing spills beyond the eight allocatable registers), then sums
/// them. Each value is a helper result, not a constant the allocator
/// would rematerialise instead of spilling. Returns the allocated machine
/// program and its debug table.
fn spill_pressure(live: u32) -> (BytecodeProgram, progmp_core::bytecode::DebugTable) {
    let mut insns = Vec::new();
    for i in 0..live {
        insns.push(VInsn::Call {
            helper: Helper::SubflowCount,
            args: vec![],
            ret: Some(VReg(i)),
        });
    }
    let acc = VReg(live);
    insns.push(VInsn::MovImm { dst: acc, imm: 0 });
    for i in 0..live {
        insns.push(VInsn::Alu {
            op: AluOp::Add,
            dst: acc,
            a: acc,
            b: VReg(i),
        });
    }
    insns.push(VInsn::Call {
        helper: Helper::SetReg,
        args: vec![VReg(live + 1), acc],
        ret: None,
    });
    // The first SetReg argument (register code) must be defined too.
    insns.insert(
        0,
        VInsn::MovImm {
            dst: VReg(live + 1),
            imm: 0,
        },
    );
    insns.push(VInsn::Exit);
    regalloc::allocate_with_debug(&VCode::from_insns(insns)).expect("allocates")
}

#[test]
fn spilled_values_verify_with_fully_defined_slots() {
    // Twelve live values cannot fit in r0..r7: the allocator must spill,
    // and every spill slot must be written before the reload that the
    // verifier observes. A def-use break here (reload before store) is
    // precisely the allocator bug class the verifier exists to catch.
    let (machine, debug) = spill_pressure(12);
    assert!(
        machine.stack_slots > 0,
        "pressure program must actually spill"
    );
    let v = verify_bytecode(&machine, Some(&debug), &VerifyConfig::default());
    assert!(v.admitted(), "{:?}", v.diagnostics);
    assert_eq!(v.count(Severity::Error), 0);
    assert!(v.step_bound.is_some());
}

#[test]
fn spill_reload_def_use_break_is_caught() {
    // Take the correct spilled program and delete one spill *store*: the
    // paired reload now reads an uninitialized slot and the verifier must
    // reject. This simulates a lost-store allocator bug without needing
    // to construct the broken allocation by hand.
    let (machine, debug) = spill_pressure(12);
    let store_pc = machine
        .code
        .iter()
        .position(|i| matches!(i, Insn::St { .. }))
        .expect("spilled program contains a store");
    let mut broken = machine.clone();
    // Replace the store with a no-op, keeping indices (and the debug
    // table) aligned.
    broken.code[store_pc] = Insn::Ja { off: 0 };
    let v = verify_bytecode(&broken, Some(&debug), &VerifyConfig::default());
    assert!(!v.admitted(), "lost spill store must be rejected");
    assert!(
        v.diagnostics
            .iter()
            .any(|d| d.lint == Lint::UninitRead && d.message.contains("slot")),
        "{:?}",
        v.diagnostics
    );
}

#[test]
fn spilled_loop_induction_variable_still_bounds() {
    // A counted loop whose induction variable gets spilled: the bound
    // analysis must see through the Ld/St traffic and still produce a
    // finite step bound.
    let n = VReg(0);
    let idx = VReg(1);
    // Enough extra live values to evict the induction variable.
    let pressure: Vec<VReg> = (2..12).map(VReg).collect();
    let head = progmp_core::codegen::Label(0);
    let end = progmp_core::codegen::Label(1);
    let mut insns = vec![VInsn::Call {
        helper: Helper::SubflowCount,
        args: vec![],
        ret: Some(n),
    }];
    for (k, &p) in pressure.iter().enumerate() {
        insns.push(VInsn::MovImm {
            dst: p,
            imm: k as i64,
        });
    }
    insns.push(VInsn::MovImm { dst: idx, imm: 0 });
    insns.push(VInsn::Label(head));
    insns.push(VInsn::Jcc {
        cond: Cond::Ge,
        a: idx,
        b: n,
        target: end,
    });
    // Keep the pressure values live across the loop body.
    for &p in &pressure {
        insns.push(VInsn::Alu {
            op: AluOp::Add,
            dst: p,
            a: p,
            b: idx,
        });
    }
    insns.push(VInsn::AluImm {
        op: AluOp::Add,
        dst: idx,
        a: idx,
        imm: 1,
    });
    insns.push(VInsn::Ja(head));
    insns.push(VInsn::Label(end));
    insns.push(VInsn::Exit);
    let (machine, debug) =
        regalloc::allocate_with_debug(&VCode::from_insns(insns)).expect("allocates");
    let cfg = VerifyConfig::default();
    let v = verify_bytecode(&machine, Some(&debug), &cfg);
    let listing = annotated_listing(&machine, Some(&debug), &cfg);
    assert!(v.admitted(), "{:?}\n{listing}", v.diagnostics);
    assert!(v.step_bound.is_some(), "loop must bound:\n{listing}");
}

// --- the admission stage end-to-end --------------------------------------

#[test]
fn compiled_programs_expose_an_admitted_bytecode_verdict() {
    let program = progmp_core::compile(
        "IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) {
             SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP()); }",
    )
    .expect("compiles through the vm-verify stage");
    let verdict = program.bytecode_verdict();
    assert!(verdict.admitted());
    assert!(verdict.step_bound.is_some());
    let report = program.bytecode_report();
    assert!(report.contains("ADMITTED"), "{report}");
    // Every reachable line carries a source span from the debug table.
    assert!(report.contains("; 1:"), "{report}");
    // The listing is rendered per call, from the same image and caps.
    assert_eq!(report, program.bytecode_report());
    assert!(report.ends_with(&annotated_listing(
        program.bytecode(),
        Some(program.debug_table()),
        &VerifyConfig::default()
    )));
}

#[test]
fn validate_bytecode_rejects_a_foreign_image() {
    // Validating a different scheduler's image against this program's
    // HIR certificate must fail: the helper audit cannot match.
    let min_rtt = progmp_core::compile(
        "IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) {
             SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP()); }",
    )
    .expect("compiles");
    let set_reg = progmp_core::compile("SET(R3, 7);").expect("compiles");
    assert!(min_rtt.validate_bytecode(min_rtt.bytecode()).admitted());
    let v = min_rtt.validate_bytecode(set_reg.bytecode());
    assert!(!v.admitted(), "foreign image must not validate");
    assert!(
        v.diagnostics
            .iter()
            .any(|d| d.lint == Lint::Miscompile && d.severity == Severity::Error),
        "{:?}",
        v.diagnostics
    );
}
