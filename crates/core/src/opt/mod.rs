//! Verified bytecode optimizer: dataflow-driven rewrites with per-pass
//! translation validation.
//!
//! Four pass classes run over the emitted bytecode image, consuming the
//! same abstract facts the admission verifier computes: sparse
//! conditional constant propagation with constant-guard elimination
//! (`sccp`), local value numbering with pure-helper CSE (`cse`),
//! loop-invariant hoisting out of counted FOREACH loops (`licm`),
//! jump-threading/peephole cleanup (`peephole`), and dead-code/
//! dead-store elimination (`dce`).
//!
//! Every pass is *verified*: after each rewrite batch one
//! translation-validation run analyses the candidate image — the
//! dataflow verifier's findings, the cross-check against the HIR
//! admission certificate, and the model step bound, which is required
//! never to increase, all come from that single verdict. Any
//! disagreement rolls the pass back to the last good image and surfaces
//! a spanned `misoptimization` warning (fail-open). This module's unit
//! tests swap one deliberately unsound pass per pass class
//! into the pipeline's table to prove the validation actually fires.

pub(crate) mod analysis;
pub(crate) mod cse;
pub(crate) mod dce;
pub(crate) mod edit;
pub(crate) mod licm;
pub(crate) mod peephole;
pub(crate) mod sccp;

use crate::analysis::Analysis;
use crate::bytecode::{BytecodeProgram, DebugTable};
use crate::error::Pos;
use crate::verify::props::{PropStatus, PropertyCertificate};
use crate::verify::vm::{validate, BytecodeVerdict};
use crate::verify::{Diagnostic, Lint, Severity, VerifyConfig};

/// Per-pass rewrite accounting, aggregated across pipeline rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassStats {
    /// Pass name (`sccp`, `cse`, `licm`, `peephole`, `dce`).
    pub name: &'static str,
    /// Rewrites that survived validation and were kept.
    pub rewrites: u64,
    /// True when at least one batch from this pass failed validation and
    /// was rolled back.
    pub rolled_back: bool,
}

/// What the optimizer did to one program.
#[derive(Debug, Clone, Default)]
pub struct OptReport {
    /// Accounting per pass, in pipeline order.
    pub passes: Vec<PassStats>,
    /// Pipeline rounds executed.
    pub rounds: u32,
    /// Instruction count of the input image.
    pub insns_before: usize,
    /// Instruction count of the optimized image.
    pub insns_after: usize,
    /// Bytecode-model step bound of the input image.
    pub bound_before: u64,
    /// Bytecode-model step bound of the optimized image (never larger).
    pub bound_after: u64,
    /// `misoptimization` warnings for rolled-back passes (empty on a
    /// clean run).
    pub diagnostics: Vec<Diagnostic>,
}

impl OptReport {
    /// Total kept rewrites across all passes.
    pub fn total_rewrites(&self) -> u64 {
        self.passes.iter().map(|p| p.rewrites).sum()
    }

    /// Multi-line human-readable summary.
    pub fn render_human(&self) -> String {
        let mut out = format!(
            "optimizer: {} rewrites in {} rounds, {} -> {} insns, step bound {} -> {}\n",
            self.total_rewrites(),
            self.rounds,
            self.insns_before,
            self.insns_after,
            self.bound_before,
            self.bound_after,
        );
        for p in &self.passes {
            out.push_str(&format!(
                "  {:<8} {:>4} rewrites{}\n",
                p.name,
                p.rewrites,
                if p.rolled_back { "  [rolled back]" } else { "" }
            ));
        }
        for d in &self.diagnostics {
            out.push_str(&format!("  {d}\n"));
        }
        out
    }

    /// Single-object JSON report (hand-rolled; the crate has no serde).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"rewrites\":{},\"rounds\":{},\"insns_before\":{},\"insns_after\":{},\
             \"bound_before\":{},\"bound_after\":{},\"passes\":[",
            self.total_rewrites(),
            self.rounds,
            self.insns_before,
            self.insns_after,
            self.bound_before,
            self.bound_after,
        ));
        for (i, p) in self.passes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"rewrites\":{},\"rolled_back\":{}}}",
                p.name, p.rewrites, p.rolled_back
            ));
        }
        out.push_str("],\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"lint\":\"{}\",\"severity\":\"{}\",\"line\":{},\"col\":{},\"message\":",
                d.lint, d.severity, d.pos.line, d.pos.col
            ));
            crate::verify::diag::json_string(&mut out, &d.message);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

type PassFn = fn(&BytecodeProgram, &DebugTable) -> (BytecodeProgram, DebugTable, u64);

/// The pipeline's passes by report name, in the order a round runs them.
type PassTable = [(&'static str, PassFn); 5];

const PASSES: PassTable = [
    ("sccp", sccp::run),
    ("cse", cse::run),
    ("licm", licm::run),
    ("peephole", peephole::run),
    ("dce", dce::run),
];

/// Upper bound on pipeline rounds; each round runs every pass once and
/// the pipeline stops early when a round keeps no rewrite.
const MAX_ROUNDS: u32 = 4;

/// True when `cert` carries claims worth gating on: at least one PROVED
/// scheduler property, or the guarded-POP proof that arms the oracle's
/// `null_pops == 0` dynamic check. Those claims were derived from the
/// HIR's *guard structure* around effectful calls, so the gate below
/// rejects any rewrite that changes which effect sites are
/// unconditional.
fn cert_armed(cert: &PropertyCertificate) -> bool {
    cert.pops_fully_guarded
        || cert
            .outcomes()
            .iter()
            .any(|(_, o)| o.status == PropStatus::Proved)
}

/// Human name of the certificate claim the gate protects for the effect
/// helper at [`analysis::EffectProfile`] index `i`.
fn gated_claim(cert: &PropertyCertificate, i: usize) -> String {
    if i > 0 && cert.pops_fully_guarded {
        return "pops-fully-guarded (null_pops == 0)".to_string();
    }
    cert.outcomes()
        .iter()
        .find(|(_, o)| o.status == PropStatus::Proved)
        .map(|(lint, _)| lint.to_string())
        .unwrap_or_else(|| "pops-fully-guarded (null_pops == 0)".to_string())
}

/// A candidate image that passed every check, with what the next
/// candidate is compared against.
struct Kept {
    /// The candidate's translation-validation verdict.
    verdict: BytecodeVerdict,
    /// Its bytecode-model step bound.
    bound: u64,
    /// Its effect profile, when the property-certificate gate is armed.
    profile: Option<analysis::EffectProfile>,
}

/// Why a candidate image was not kept.
enum Rejection {
    /// A check failed: the span and reason of the first failure.
    Failed(Pos, String),
    /// The verifier has no complaint, but the model step bound grew to
    /// this value.
    BoundGrew(u64),
}

/// Validates a candidate image against the previous one from the single
/// verdict of one [`validate`] run (structural checks, dataflow
/// verification, bound inference and the HIR cross-check are all in
/// it), then the property-certificate gate. The verifier's own
/// findings outrank the bound comparison, which outranks the
/// cross-check's.
fn check_candidate(
    cand: &BytecodeProgram,
    cand_debug: &DebugTable,
    audit: &Analysis,
    certified_bound: u64,
    cfg: &VerifyConfig,
    prev_bound: u64,
    gate: Option<(&PropertyCertificate, &analysis::EffectProfile)>,
) -> Result<Kept, Rejection> {
    let verdict = validate(cand, cand_debug, audit, certified_bound, cfg, false);
    let mut errors = verdict
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error);
    if let Some(d) = errors.clone().find(|d| d.lint != Lint::Miscompile) {
        return Err(Rejection::Failed(
            d.pos,
            format!("re-verification failed: [{}] {}", d.lint, d.message),
        ));
    }
    if let Some(bound) = verdict.step_bound.filter(|b| *b > prev_bound) {
        return Err(Rejection::BoundGrew(bound));
    }
    if let Some(d) = errors.next() {
        return Err(Rejection::Failed(
            d.pos,
            format!("translation validation failed: [{}] {}", d.lint, d.message),
        ));
    }
    let Some(bound) = verdict.step_bound else {
        return Err(Rejection::Failed(
            Pos::new(0, 0),
            "re-verification lost the step bound (loop no longer provably terminates)".to_string(),
        ));
    };
    // Property-certificate gate: the certificate's PROVED claims were
    // derived from the HIR's guard structure around effectful calls, so
    // a pass must not change which PUSH/POP/DROP sites execute
    // unconditionally. Feasibility uses the same interval facts SCCP
    // folds with, so a *proven* constant-guard fold leaves the profile
    // unchanged; only an unproven unguarding trips the gate.
    let mut profile = None;
    if let Some((cert, prev)) = gate {
        let Some(new) = analysis::effect_profile(&cand.code, cand.stack_slots) else {
            return Err(Rejection::Failed(
                Pos::new(0, 0),
                "property-certificate gate: effect analysis did not converge".to_string(),
            ));
        };
        for i in 0..3 {
            if new.must[i].0 > prev.must[i].0 {
                let pos = new.must[i]
                    .1
                    .map(|pc| cand_debug.pos(pc))
                    .unwrap_or(Pos::new(0, 0));
                return Err(Rejection::Failed(
                    pos,
                    format!(
                        "property-certificate gate: pass makes a {} site unconditional \
                         ({} -> {} must-execute), weakening the certified {} claim",
                        analysis::effect_helper_name(i),
                        prev.must[i].0,
                        new.must[i].0,
                        gated_claim(cert, i),
                    ),
                ));
            }
        }
        profile = Some(new);
    }
    Ok(Kept {
        verdict,
        bound,
        profile,
    })
}

/// Runs the verified optimizing pipeline over `prog`.
///
/// Returns the image it kept, that image's debug table, the report, and
/// the kept image's translation-validation verdict — every image is
/// analysed exactly once (the input, then each candidate), so the caller
/// has nothing left to validate. An input the validator does not admit
/// with a finite bound (observe-mode compiles of rejected programs) is
/// returned unchanged with an empty report and its own verdict. Each
/// pass's output is validated against the HIR admission certificate
/// (its static `audit`, `certified_bound`); a failing pass is rolled
/// back and recorded as a [`Lint::Misoptimization`] warning.
///
/// When `props` carries a [`PropertyCertificate`] with PROVED claims,
/// per-pass validation additionally enforces the property gate: no pass
/// may change which effectful helper sites execute unconditionally
/// (`check_candidate`).
pub fn optimize_bytecode(
    prog: &BytecodeProgram,
    debug: &DebugTable,
    audit: &Analysis,
    certified_bound: u64,
    cfg: &VerifyConfig,
    props: Option<&PropertyCertificate>,
) -> (BytecodeProgram, DebugTable, OptReport, BytecodeVerdict) {
    run_pipeline(&PASSES, prog, debug, audit, certified_bound, cfg, props)
}

/// [`optimize_bytecode`] over an explicit pass table.
fn run_pipeline(
    passes: &PassTable,
    prog: &BytecodeProgram,
    debug: &DebugTable,
    audit: &Analysis,
    certified_bound: u64,
    cfg: &VerifyConfig,
    props: Option<&PropertyCertificate>,
) -> (BytecodeProgram, DebugTable, OptReport, BytecodeVerdict) {
    let mut report = OptReport {
        passes: passes
            .iter()
            .map(|(name, _)| PassStats {
                name,
                rewrites: 0,
                rolled_back: false,
            })
            .collect(),
        insns_before: prog.code.len(),
        insns_after: prog.code.len(),
        ..OptReport::default()
    };

    // Optimize only images the validator already admits with a finite
    // bound: anything else (observe-mode compiles of rejected programs)
    // passes through untouched.
    let mut verdict = validate(prog, debug, audit, certified_bound, cfg, false);
    let Some(mut bound) = verdict.step_bound.filter(|_| verdict.admitted()) else {
        return (prog.clone(), debug.clone(), report, verdict);
    };
    // Arm the property gate only for certificates with PROVED claims.
    let gate = props.filter(|c| cert_armed(c));
    let mut profile = None;
    if gate.is_some() {
        profile = analysis::effect_profile(&prog.code, prog.stack_slots);
        if profile.is_none() {
            // No baseline to gate against: rewrite nothing.
            return (prog.clone(), debug.clone(), report, verdict);
        }
    }
    report.bound_before = bound;
    report.bound_after = bound;

    let mut cur = prog.clone();
    let mut dbg = debug.clone();
    // A rolled-back pass is disabled for the rest of the pipeline: passes
    // are deterministic, so re-running one against the same image would
    // reproduce the same rejected candidate (and duplicate diagnostics).
    let mut disabled = [false; PASSES.len()];

    while report.rounds < MAX_ROUNDS {
        report.rounds += 1;
        let mut kept_this_round = 0u64;
        for (i, (name, pass)) in passes.iter().enumerate() {
            if disabled[i] {
                continue;
            }
            let (cand, cand_dbg, rewrites) = pass(&cur, &dbg);
            if rewrites == 0 {
                continue;
            }
            let (pos, why) = match check_candidate(
                &cand,
                &cand_dbg,
                audit,
                certified_bound,
                cfg,
                bound,
                gate.zip(profile.as_ref()),
            ) {
                Ok(kept) => {
                    cur = cand;
                    dbg = cand_dbg;
                    verdict = kept.verdict;
                    bound = kept.bound;
                    profile = kept.profile;
                    report.passes[i].rewrites += rewrites;
                    kept_this_round += rewrites;
                    continue;
                }
                Err(Rejection::BoundGrew(grown)) => (
                    Pos::new(0, 0),
                    format!("step bound increased: {bound} -> {grown}"),
                ),
                Err(Rejection::Failed(pos, why)) => (pos, why),
            };
            report.passes[i].rolled_back = true;
            disabled[i] = true;
            report.diagnostics.push(Diagnostic {
                lint: Lint::Misoptimization,
                severity: Severity::Warning,
                pos,
                message: format!("{name} pass rolled back: {why}"),
            });
        }
        if kept_this_round == 0 {
            break;
        }
    }

    report.insns_after = cur.code.len();
    report.bound_after = bound;
    (cur, dbg, report, verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::bytecode::{AluOp, Helper, Insn};
    use crate::flow::{jump_target, loops};
    use crate::verify::domain::{eval_cond, Interval, Tri};
    use crate::verify::vm::validate_translation;
    use analysis::{facts, reachable};
    use edit::{Editor, NewInsn};

    /// The image, certificate and HIR `compile` would hand the pipeline:
    /// the HIR is the optimized one.
    fn compile_parts(
        src: &str,
    ) -> (
        BytecodeProgram,
        DebugTable,
        crate::hir::HProgram,
        u64,
        PropertyCertificate,
    ) {
        let ast = crate::parser::parse(src).unwrap();
        let mut hir = crate::sema::lower(&ast).unwrap();
        crate::optimizer::optimize(&mut hir);
        let verdict = crate::verify::verify(&hir);
        assert!(verdict.admitted(), "{src}");
        let props = crate::verify::props::verify_properties_with(&hir, None, true);
        let vcode = crate::codegen::generate(&hir).unwrap();
        let (bytecode, debug) = crate::regalloc::allocate_with_debug(&vcode).unwrap();
        (bytecode, debug, hir, verdict.certified_step_bound, props)
    }

    /// An unsound pass: the one edit `find_site` makes to the image.
    fn one_edit(
        prog: &BytecodeProgram,
        debug: &DebugTable,
        find_site: impl FnOnce(&mut Editor),
    ) -> (BytecodeProgram, DebugTable, u64) {
        let mut ed = Editor::new(prog, debug);
        find_site(&mut ed);
        let changes = ed.changes();
        let (p, d) = ed.finish();
        (p, d, changes)
    }

    /// SCCP claims the first conditional guard inside a loop body is
    /// never taken and deletes it, leaving the loop without its exit
    /// test.
    fn drop_live_guard(
        prog: &BytecodeProgram,
        debug: &DebugTable,
    ) -> (BytecodeProgram, DebugTable, u64) {
        let code = &prog.code;
        let reach = reachable(code);
        one_edit(prog, debug, |ed| {
            let guard = (0..code.len()).find_map(|back| {
                let head = jump_target(back, &code[back]).filter(|t| *t <= back)?;
                (head..=back).find(|&pc| {
                    reach[pc] && matches!(code[pc], Insn::Jmp { .. } | Insn::JmpImm { .. })
                })
            });
            if let Some(pc) = guard {
                ed.delete(pc);
            }
        })
    }

    /// SCCP claims the first *undecided* forward guard whose guarded
    /// region contains an effectful PUSH/POP/DROP call is constant and
    /// deletes it, making the effect unconditional. Every call site
    /// survives and the bound never grows, so only the
    /// property-certificate gate can catch this.
    fn unguard_effect(
        prog: &BytecodeProgram,
        debug: &DebugTable,
    ) -> (BytecodeProgram, DebugTable, u64) {
        let code = &prog.code;
        let reach = reachable(code);
        let f = facts(code, prog.stack_slots).expect("facts converge");
        let undecided = |pc: usize| {
            let Some(state) = f.before(pc) else {
                return false;
            };
            let reg = |r: u8| state[usize::from(r)];
            match code[pc] {
                Insn::Jmp { cond, lhs, rhs, .. } => {
                    eval_cond(cond, reg(lhs), reg(rhs)) == Tri::Unknown
                }
                Insn::JmpImm { cond, lhs, imm, .. } => {
                    eval_cond(cond, reg(lhs), Interval::exact(imm)) == Tri::Unknown
                }
                _ => false,
            }
        };
        let guards_effect = |pc: usize| {
            let target = jump_target(pc, &code[pc]).filter(|t| *t > pc);
            target.is_some_and(|t| {
                code[pc + 1..t.min(code.len())].iter().any(|insn| {
                    matches!(
                        insn,
                        Insn::Call {
                            helper: Helper::Push | Helper::Pop | Helper::DropPkt,
                            ..
                        }
                    )
                })
            })
        };
        one_edit(prog, debug, |ed| {
            if let Some(pc) =
                (0..code.len()).find(|&pc| reach[pc] && undecided(pc) && guards_effect(pc))
            {
                ed.delete(pc);
            }
        })
    }

    /// CSE replaces the effectful `POP` call like a repeat of a pure
    /// computation, reusing a register no path has written.
    fn impure_cse(
        prog: &BytecodeProgram,
        debug: &DebugTable,
    ) -> (BytecodeProgram, DebugTable, u64) {
        let [s0, s1] = crate::bytecode::SCRATCH;
        one_edit(prog, debug, |ed| {
            let pop = |insn: &Insn| {
                matches!(
                    insn,
                    Insn::Call {
                        helper: Helper::Pop,
                        ..
                    }
                )
            };
            if let Some(pc) = prog.code.iter().position(pop) {
                ed.set(pc, Insn::Mov { dst: s0, src: s1 });
            }
        })
    }

    /// LICM hoists the loop-variant induction update — the `idx += 1`
    /// (or, for a counter computed elsewhere, the `Mov idx, scratch`)
    /// feeding the back edge — to the preheader, so the counter never
    /// advances inside the loop.
    fn loop_variant_hoist(
        prog: &BytecodeProgram,
        debug: &DebugTable,
    ) -> (BytecodeProgram, DebugTable, u64) {
        let code = &prog.code;
        let reach = reachable(code);
        one_edit(prog, debug, |ed| {
            for lp in loops(code).into_iter().filter(|l| reach[l.back]) {
                if lp.back == 0 || lp.back >= code.len() || lp.back - 1 <= lp.head {
                    continue;
                }
                let pc = lp.back - 1;
                if let Insn::AluImm { .. } | Insn::Mov { .. } = code[pc] {
                    ed.delete(pc);
                    let update = NewInsn {
                        insn: code[pc],
                        span: debug.pos(pc),
                    };
                    ed.insert_before(lp.head, vec![update], Some((lp.head, lp.back)));
                    return;
                }
            }
        })
    }

    /// Peephole slides the first back edge one instruction forward, past
    /// the loop's exit test.
    fn bad_jump_thread(
        prog: &BytecodeProgram,
        debug: &DebugTable,
    ) -> (BytecodeProgram, DebugTable, u64) {
        one_edit(prog, debug, |ed| {
            let back_edge = prog.code.iter().enumerate().find_map(|(pc, insn)| {
                let t = jump_target(pc, insn).filter(|t| *t <= pc)?;
                matches!(insn, Insn::Ja { .. }).then_some((pc, t))
            });
            if let Some((pc, t)) = back_edge {
                ed.retarget(pc, t + 1);
            }
        })
    }

    /// DCE treats the first loop's counter increment as dead and deletes
    /// it, so the induction variable never advances.
    fn delete_live_increment(
        prog: &BytecodeProgram,
        debug: &DebugTable,
    ) -> (BytecodeProgram, DebugTable, u64) {
        let code = &prog.code;
        let reach = reachable(code);
        one_edit(prog, debug, |ed| {
            let increment = loops(code)
                .into_iter()
                .filter(|l| reach[l.back])
                .find_map(|lp| {
                    (lp.head..=lp.back.min(code.len() - 1))
                        .find(|&pc| matches!(code[pc], Insn::AluImm { op: AluOp::Add, .. }))
                });
            if let Some(pc) = increment {
                ed.delete(pc);
            }
        })
    }

    /// One deliberately unsound stand-in per pass class (two for SCCP):
    /// its name, the pass it replaces in the table, and the check of
    /// `check_candidate` that must reject its candidate. One verdict
    /// feeds every check, so the order they are consulted in decides
    /// which one speaks; this pins it per class.
    const SABOTAGES: [(&str, &str, PassFn, &str); 6] = [
        (
            "sccp-drop-live-guard",
            "sccp",
            drop_live_guard,
            "re-verification failed: [unbounded-loop]",
        ),
        (
            "dce-delete-live-increment",
            "dce",
            delete_live_increment,
            "re-verification failed: [unbounded-loop]",
        ),
        (
            "cse-impure-pop",
            "cse",
            impure_cse,
            "re-verification failed: [uninit-read]",
        ),
        (
            "licm-loop-variant-hoist",
            "licm",
            loop_variant_hoist,
            "re-verification failed: [unbounded-loop]",
        ),
        (
            "peephole-bad-jump-thread",
            "peephole",
            bad_jump_thread,
            "re-verification failed: [unbounded-loop]",
        ),
        (
            "sccp-unguard-effect",
            "sccp",
            unguard_effect,
            "property-certificate gate:",
        ),
    ];

    /// [`PASSES`] with `stand_in` in place of the pass called `pass`.
    fn sabotaged(pass: &str, stand_in: PassFn) -> PassTable {
        assert!(PASSES.iter().any(|(name, _)| *name == pass), "{pass}");
        PASSES.map(|(name, run)| (name, if name == pass { stand_in } else { run }))
    }

    const MIN_RTT: &str =
        "IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) { SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP()); }";

    #[test]
    fn clean_run_shrinks_and_never_raises_bound() {
        let (prog, debug, hir, cert, props) = compile_parts(MIN_RTT);
        let cfg = VerifyConfig::default();
        let (opt, opt_dbg, report, kept) =
            optimize_bytecode(&prog, &debug, &analyze(&hir), cert, &cfg, Some(&props));
        assert!(report.total_rewrites() > 0, "{}", report.render_human());
        assert!(
            opt.code.len() < prog.code.len(),
            "{}",
            report.render_human()
        );
        assert!(report.bound_after <= report.bound_before);
        assert!(report.diagnostics.is_empty(), "{}", report.render_human());
        assert_eq!(opt_dbg.spans.len(), opt.code.len());
        // The returned verdict is the kept image's own: an independent
        // validation of the optimized image agrees and admits it.
        let tv = validate_translation(&opt, &opt_dbg, &hir, cert, &cfg);
        assert!(tv.admitted());
        assert_eq!(kept, tv);
        assert_eq!(kept.step_bound, Some(report.bound_after));
    }

    #[test]
    fn a_walk_whose_back_edge_sccp_proves_dead_still_bounds() {
        // The filter's predicate folds to TRUE, so `GET(0)` breaks out on
        // the first subflow and its walk never takes the back edge. SCCP
        // folds the walk index reloaded at the head to `r3 = 0`; the
        // verifier, seeing no state reach the back edge, charges the body
        // once instead of failing to resolve the induction variable.
        let src = "SET(R1, SUBFLOWS.FILTER(v0 => SUBFLOWS.FILTER(v1 => FALSE).EMPTY).GET(0).RTT);";
        let (prog, debug, hir, cert, props) = compile_parts(src);
        let cfg = VerifyConfig::default();
        let (folded, folded_dbg, rewrites) = sccp::run(&prog, &debug);
        assert!(rewrites > 0);
        let v = validate_translation(&folded, &folded_dbg, &hir, cert, &cfg);
        assert!(v.admitted(), "{:?}", v.diagnostics);
        let (_, _, report, _) =
            optimize_bytecode(&prog, &debug, &analyze(&hir), cert, &cfg, Some(&props));
        assert!(report.diagnostics.is_empty(), "{}", report.render_human());
    }

    #[test]
    fn every_sabotage_is_caught_and_rolled_back() {
        let (prog, debug, hir, cert, props) = compile_parts(MIN_RTT);
        let cfg = VerifyConfig::default();
        for (name, pass, stand_in, _) in SABOTAGES {
            let (opt, opt_dbg, report, kept) = run_pipeline(
                &sabotaged(pass, stand_in),
                &prog,
                &debug,
                &analyze(&hir),
                cert,
                &cfg,
                Some(&props),
            );
            let hit = report
                .diagnostics
                .iter()
                .any(|d| d.lint == Lint::Misoptimization && d.severity == Severity::Warning);
            assert!(hit, "{name}: sabotage survived validation");
            for stats in &report.passes {
                assert_eq!(stats.rolled_back, stats.name == pass, "{name}: {stats:?}");
            }
            // Fail-open: the surviving image is still valid, and the
            // verdict handed back is that image's, not the rejected
            // candidate's.
            let tv = validate_translation(&opt, &opt_dbg, &hir, cert, &cfg);
            assert!(tv.admitted(), "{name}");
            assert_eq!(kept, tv, "{name}");
        }
    }

    #[test]
    fn each_sabotage_is_rejected_by_its_pinned_check() {
        let (prog, debug, hir, cert, props) = compile_parts(MIN_RTT);
        let cfg = VerifyConfig::default();
        for (name, pass, stand_in, check) in SABOTAGES {
            let table = sabotaged(pass, stand_in);
            let (_, _, report, _) = run_pipeline(
                &table,
                &prog,
                &debug,
                &analyze(&hir),
                cert,
                &cfg,
                Some(&props),
            );
            let [diag] = &report.diagnostics[..] else {
                panic!("{name}: {:?}", report.diagnostics);
            };
            let prefix = format!("{pass} pass rolled back: {check}");
            assert!(diag.message.starts_with(&prefix), "{name}: {diag}");
            assert!(diag.pos.line > 0, "{name}: {diag}");
        }
    }

    fn image(code: Vec<crate::bytecode::Insn>) -> (BytecodeProgram, DebugTable) {
        let spans = vec![Pos::new(1, 1); code.len()];
        let prog = BytecodeProgram {
            code,
            stack_slots: 0,
        };
        (prog, DebugTable { spans })
    }

    #[test]
    fn check_precedence_bound_then_cross_check() {
        use crate::bytecode::{Helper, Insn, Operand};
        // HIR: one register write, nothing else.
        let ast = crate::parser::parse("SET(R1, 1);").unwrap();
        let hir = crate::sema::lower(&ast).unwrap();
        let cfg = VerifyConfig::default();
        let set_reg = |code| Insn::Call {
            helper: Helper::SetReg,
            dst: 0,
            a: Operand::Imm(code),
            b: Operand::Reg(2),
        };
        let set_r1 = vec![Insn::MovImm { dst: 2, imm: 1 }, set_reg(0), Insn::Exit];
        let reject = |code: Vec<Insn>, prev_bound: u64| {
            let (p, d) = image(code);
            match check_candidate(&p, &d, &analyze(&hir), 1_000, &cfg, prev_bound, None) {
                Ok(kept) => panic!("kept with bound {}", kept.bound),
                Err(Rejection::BoundGrew(b)) => format!("step bound {b}"),
                Err(Rejection::Failed(pos, why)) => {
                    assert!(pos.line > 0, "{why}");
                    why
                }
            }
        };
        // Faithful image, but longer than its predecessor.
        assert_eq!(reject(set_r1.clone(), 2), "step bound 3");
        // Writes R2, which the certificate never audits: only the
        // cross-check can object.
        let mut wrong_reg = set_r1.clone();
        wrong_reg[1] = set_reg(1);
        let why = reject(wrong_reg.clone(), 3);
        assert!(
            why.starts_with("translation validation failed: [miscompile]"),
            "{why}"
        );
        // Both at once: the bound comparison speaks first.
        assert_eq!(reject(wrong_reg, 2), "step bound 3");
        // A verifier finding outranks both.
        let mut uninit = set_r1;
        uninit[0] = Insn::Mov { dst: 2, src: 7 };
        let why = reject(uninit, 2);
        assert!(
            why.starts_with("re-verification failed: [uninit-read]"),
            "{why}"
        );
    }

    #[test]
    fn unguard_sabotage_is_caught_by_the_property_gate_only() {
        // The unguarding rewrite keeps every call site, never grows the
        // bound, and re-verifies cleanly (NULL is a graceful no-op handle
        // argument) — so the rollback must come from the certificate
        // gate, and must vanish when no certificate is supplied.
        let (prog, debug, hir, cert, props) = compile_parts(MIN_RTT);
        let cfg = VerifyConfig::default();
        let table = sabotaged("sccp", unguard_effect);
        let (_, _, report, _) = run_pipeline(
            &table,
            &prog,
            &debug,
            &analyze(&hir),
            cert,
            &cfg,
            Some(&props),
        );
        let diag = report
            .diagnostics
            .iter()
            .find(|d| d.lint == Lint::Misoptimization)
            .expect("unguarding rolled back");
        assert!(
            diag.message.contains("property-certificate gate"),
            "{}",
            diag.message
        );
        assert!(diag.pos.line > 0, "gate diagnostics carry a source span");

        // Without the certificate the unsound image sails through every
        // legacy check — the gap this gate closes.
        let (_, _, ungated, _) =
            run_pipeline(&table, &prog, &debug, &analyze(&hir), cert, &cfg, None);
        assert!(
            !ungated
                .diagnostics
                .iter()
                .any(|d| d.lint == Lint::Misoptimization),
            "{:?}",
            ungated.diagnostics
        );
    }
}
