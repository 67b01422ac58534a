//! Seeded codegen-mutation probes for translation validation
//! ([`progmp_core::verify::vm`]).
//!
//! * **Soundness / precision** is the `clean images` check of the
//!   `program` tier ([`crate::tier::TIERS`]): for every generated
//!   program, the bytecode our own compiler emits must validate cleanly
//!   against the HIR admission certificate — any error-severity finding
//!   (including a `miscompile`) on correct codegen is a false positive
//!   that would reject working schedulers at load time. That image is
//!   the only one the VM backend executes.
//! * **Sensitivity** ([`probes`]): seeded in-place mutations of
//!   the compiled image (broken loop increments, swapped helpers,
//!   corrupted branch targets, clobbered null-handle initializations, a
//!   first-element walk that lost its break) simulate real
//!   codegen/register-allocator bugs; translation
//!   validation must reject every one with a `miscompile` diagnostic
//!   carrying a real source span. A harness that can't catch seeded
//!   bugs proves nothing about the absence of unseeded ones.

use crate::tier::Probe;
use progmp_core::bytecode::{AluOp, BytecodeProgram, Helper, Insn};
use progmp_core::exec::NULL_HANDLE;
use progmp_core::verify::{Lint, Severity};

/// In-place mutations simulating codegen/regalloc bugs. Replacements
/// keep instruction indices stable so the debug side table stays
/// aligned — exactly the situation after a miscompiled instruction.
fn mutations(code: &[Insn]) -> Vec<(usize, Insn, String)> {
    let mut out = Vec::new();
    let mut nop_done = false;
    let mut helper_done = false;
    let mut target_done = false;
    let mut null_done = false;
    for (pc, insn) in code.iter().enumerate() {
        match *insn {
            // (a) Loop increment becomes a no-op: the loop never
            // terminates. The bound/termination analysis must notice.
            Insn::AluImm {
                op: AluOp::Add,
                dst,
                imm: 1,
            } if !nop_done => {
                nop_done = true;
                out.push((
                    pc,
                    Insn::AluImm {
                        op: AluOp::Add,
                        dst,
                        imm: 0,
                    },
                    format!("pc {pc}: loop increment r{dst} += 1 rewritten to += 0"),
                ));
            }
            // (b) Helper swap: a subflow-property read becomes a
            // packet-property read. Signature + audit must notice.
            Insn::Call {
                helper: Helper::SubflowProp,
                dst,
                a,
                b,
            } if !helper_done => {
                helper_done = true;
                out.push((
                    pc,
                    Insn::Call {
                        helper: Helper::PacketProp,
                        dst,
                        a,
                        b,
                    },
                    format!("pc {pc}: call SubflowProp swapped for PacketProp"),
                ));
            }
            // (c) Branch target corrupted out of range: structural
            // verification must fail, surfaced as a miscompile.
            Insn::Jmp { cond, lhs, rhs, .. } if !target_done => {
                target_done = true;
                out.push((
                    pc,
                    Insn::Jmp {
                        cond,
                        lhs,
                        rhs,
                        off: i32::MAX / 2,
                    },
                    format!("pc {pc}: branch offset corrupted out of range"),
                ));
            }
            // (d) A null-handle initialization clobbered with a bogus
            // scalar: downstream handle uses become kind-confused.
            Insn::MovImm { dst, imm } if imm == NULL_HANDLE && !null_done => {
                null_done = true;
                out.push((
                    pc,
                    Insn::MovImm { dst, imm: 12_345 },
                    format!("pc {pc}: NULL-handle initialization r{dst} clobbered with 12345"),
                ));
            }
            _ => {}
        }
    }
    out
}

/// (e) The break out of the walk that feeds the first `Pop` rewritten to
/// `ja +0`: the walk runs on and pops the last packet instead of the
/// first. Only the bound sees it, since the walk becomes a full scan.
fn walk_break(code: &[Insn]) -> Option<(usize, Insn, String)> {
    let pops = |i: &Insn| {
        matches!(
            i,
            Insn::Call {
                helper: Helper::Pop,
                ..
            }
        )
    };
    let pop = code.iter().position(pops)?;
    let pc = (0..pop)
        .rev()
        .find(|&pc| matches!(code[pc], Insn::Ja { off } if off > 0))?;
    let description = format!("pc {pc}: the POP walk's break rewritten to ja +0");
    Some((pc, Insn::Ja { off: 0 }, description))
}

/// Compiles the named bundled schedulers, applies each seeded mutation
/// in place, and records whether translation validation against the
/// *original* program's HIR certificate rejects it with a `miscompile`
/// diagnostic that carries a real source span.
pub fn probes() -> Vec<Probe> {
    // minRttSimple exercises the list-minmax scan; redundant exercises
    // multi-push foreach loops — together they cover the first four
    // mutation classes. The walk break is probed once, on minRttSimple.
    const TARGETS: [&str; 2] = ["minRttSimple", "redundant"];
    let mut probes = Vec::new();
    for name in TARGETS {
        let source = progmp_schedulers::source(name).expect("bundled scheduler");
        let program =
            crate::compile_observed(source).unwrap_or_else(|e| panic!("{name} compiles: {e}"));
        let code = &program.bytecode().code;
        let walk = (name == TARGETS[0]).then(|| walk_break(code)).flatten();
        for (pc, replacement, description) in mutations(code).into_iter().chain(walk) {
            let mut image = BytecodeProgram::clone(program.bytecode());
            image.code[pc] = replacement;
            let verdict = program.validate_bytecode(&image);
            let miscompile = verdict
                .diagnostics
                .iter()
                .find(|d| d.lint == Lint::Miscompile && d.severity == Severity::Error);
            probes.push(Probe::diagnosed(
                format!("{name}: {description}"),
                !verdict.admitted(),
                miscompile,
            ));
        }
    }
    probes
}
