//! Syntactic lint pass (no abstract state needed).
//!
//! Covers the catalogue entries that fall out of reachability and
//! def-use structure rather than value ranges: registers written but
//! never read, `POP` results that are never scheduled or dropped, and
//! scan nesting over the admission threshold (delegated to
//! [`crate::analysis`], the single source of truth for scan depth).

use crate::analysis::{self, Analysis};
use crate::error::Pos;
use crate::hir::{ExprId, HExpr, HProgram, HStmt};

use super::diag::{Diagnostic, Lint, Severity};
use super::VerifyConfig;

/// Runs the syntactic lints over `prog`; also hands back the static audit
/// they are read off, so the verdict can keep it.
pub(super) fn run(prog: &HProgram, cfg: &VerifyConfig) -> (Vec<Diagnostic>, Analysis) {
    let mut diags = Vec::new();
    let (audit, too_deep) = analysis::analyze_with_limit(prog, cfg.max_scan_depth);

    for &reg in audit.registers_written.difference(&audit.registers_read) {
        diags.push(Diagnostic {
            lint: Lint::RegisterNeverRead,
            severity: Severity::Info,
            pos: first_set_reg_pos(prog, reg).unwrap_or(Pos { line: 1, col: 1 }),
            message: format!(
                "register R{reg} is written but never read by the scheduler (it stays \
                 visible to the application through the register interface)"
            ),
        });
    }

    if let Some(pos) = too_deep {
        diags.push(Diagnostic {
            lint: Lint::ScanDepth,
            severity: Severity::Error,
            pos,
            message: format!(
                "scan nesting depth {} exceeds the admission threshold {}",
                audit.max_scan_depth, cfg.max_scan_depth
            ),
        });
    }

    pop_without_push(prog, &mut diags);
    (diags, audit)
}

/// Source position of the first `SET` writing 1-based register `reg`.
fn first_set_reg_pos(prog: &HProgram, reg: u8) -> Option<Pos> {
    prog.stmts_in(&prog.body)
        .find(|&sid| matches!(prog.stmt(sid), HStmt::SetReg { reg: r, .. } if r.index() + 1 == reg as usize))
        .map(|sid| prog.stmt_pos(sid))
}

/// Flags `POP()` results that are neither `PUSH`ed nor `DROP`ped: the
/// packet is hidden from every later queue view for the rest of the
/// execution without being scheduled, which is almost always a logic bug.
///
/// A pop counts as consumed when it is directly the packet operand of a
/// `PUSH`/`DROP`, or when it initializes a variable that is read
/// somewhere in the program.
fn pop_without_push(prog: &HProgram, diags: &mut Vec<Diagnostic>) {
    let is_pop = |e: ExprId| matches!(prog.expr(e), HExpr::QueuePop(_));
    // Every reachable `POP`, the ones that are directly a `PUSH`/`DROP`
    // packet operand, the ones that initialize a variable slot, and the
    // slots read anywhere in the program.
    let mut pops = Vec::new();
    let mut consumed = Vec::new();
    let mut decl_of = Vec::new();
    let mut slot_read = vec![false; prog.n_slots];
    let mut todo = Vec::new();
    for sid in prog.stmts_in(&prog.body) {
        match *prog.stmt(sid) {
            HStmt::VarDecl { slot, init } if is_pop(init) => decl_of.push((init, slot)),
            HStmt::Push { packet, .. } | HStmt::Drop { packet } if is_pop(packet) => {
                consumed.push(packet);
            }
            _ => {}
        }
        todo.extend(prog.stmt_operands(sid).iter());
        while let Some(e) = todo.pop() {
            match *prog.expr(e) {
                HExpr::ReadVar(slot) => slot_read[slot.0 as usize] = true,
                HExpr::QueuePop(_) => pops.push(e),
                _ => {}
            }
            todo.extend(prog.children(e).iter());
        }
    }
    for pop in pops {
        let consumed_via_var = decl_of
            .iter()
            .any(|&(init, slot)| init == pop && slot_read[slot.0 as usize]);
        if !consumed.contains(&pop) && !consumed_via_var {
            diags.push(Diagnostic {
                lint: Lint::PopWithoutPush,
                severity: Severity::Error,
                pos: prog.expr_pos(pop),
                message: "popped packet is never pushed or dropped: it disappears from \
                          every queue view without being scheduled"
                    .into(),
            });
        }
    }
}
