//! Dead-code and dead-store elimination.
//!
//! Two deletion sources, iterated to a local fixpoint: instructions the
//! CFG proves unreachable, and definitions (register writes, stack
//! stores, pure helper calls) whose result liveness proves is never read.
//! Effectful helper calls (`Pop`/`Push`/`DropPkt`/`SetReg`) are never
//! deleted — even unreachable ones — because the translation validator
//! audits their exact call-site counts against the HIR admission
//! certificate, and `Exit` instructions are kept so every fallthrough
//! chain still terminates.

use crate::bytecode::{BytecodeProgram, DebugTable, Helper, Insn};
use crate::opt::analysis::{liveness, reachable};
use crate::opt::edit::Editor;

/// True when deleting this instruction can never change observable
/// behaviour regardless of context.
fn deletable_unreachable(insn: &Insn) -> bool {
    !matches!(
        insn,
        Insn::Exit
            | Insn::Call {
                helper: Helper::Pop | Helper::Push | Helper::DropPkt | Helper::SetReg,
                ..
            }
    )
}

fn round(prog: &BytecodeProgram, debug: &DebugTable) -> (BytecodeProgram, DebugTable, u64) {
    let code = &prog.code;
    let n = code.len();
    let mut ed = Editor::new(prog, debug);
    let reach = reachable(code);
    let live = liveness(code);

    for pc in 0..n {
        if !reach[pc] {
            if deletable_unreachable(&code[pc]) {
                ed.delete(pc);
            }
            continue;
        }
        let out = live.live_out[pc];
        match code[pc] {
            Insn::MovImm { dst, .. }
            | Insn::Mov { dst, .. }
            | Insn::Alu { dst, .. }
            | Insn::AluImm { dst, .. }
            | Insn::Neg { dst }
            | Insn::Ld { dst, .. }
                // Division traps are not a concern: the VM defines x/0 and
                // x%0 as 0, so every ALU op is side-effect free.
                if !out.has_reg(dst) =>
            {
                ed.delete(pc);
            }
            Insn::St { slot, .. } if !out.has_slot(slot) => {
                ed.delete(pc);
            }
            // Every helper with a result is pure: the call is dead when
            // its result is.
            Insn::Call { helper, dst, .. } if helper.has_result() && !out.has_reg(dst) => {
                ed.delete(pc);
            }
            _ => {}
        }
    }

    let changes = ed.changes();
    if changes == 0 {
        return (prog.clone(), debug.clone(), 0);
    }
    let (p, d) = ed.finish();
    (p, d, changes)
}

pub(crate) fn run(
    prog: &BytecodeProgram,
    debug: &DebugTable,
) -> (BytecodeProgram, DebugTable, u64) {
    let mut cur = prog.clone();
    let mut dbg = debug.clone();
    let mut total = 0u64;
    for _ in 0..16 {
        let (p, d, c) = round(&cur, &dbg);
        if c == 0 {
            break;
        }
        total += c;
        cur = p;
        dbg = d;
    }
    (cur, dbg, total)
}
