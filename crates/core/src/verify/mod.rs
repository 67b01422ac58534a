//! Static admission verifier for scheduler programs.
//!
//! Inspired by the eBPF verifier's admit-or-reject discipline, this
//! module runs a forward abstract interpretation over the optimized HIR
//! (interval × nullability × queue-emptiness domain) plus a syntactic
//! lint pass, and certifies a closed-form worst-case step bound. The
//! [`Verdict`] it produces gates compilation: programs with any
//! [`Severity::Error`] diagnostic are rejected before reaching a
//! backend, and admitted programs run under their certified per-program
//! step bound instead of the blanket default budget.
//!
//! The pipeline is `parse → sema → optimize → verify → codegen`; the
//! verifier sees exactly the HIR the backends execute, so its proofs
//! transfer. Soundness is fuzz-checked by the conformance crate: over
//! hundreds of generated programs, admitted ones must never raise a
//! runtime error class the verifier claims to exclude, and must finish
//! within the certified bound on all three backends.

mod cost;
mod dataflow;
pub(crate) mod diag;
pub(crate) mod domain;
mod lints;
pub mod props;
pub mod vm;

pub use diag::{Diagnostic, Lint, Severity, Verdict};
pub use domain::IdSet;
pub use props::{subflow_available, PropStatus, PropertyCertificate, Quiescence};

use crate::hir::HProgram;

/// Environment cardinality caps and thresholds the verifier assumes.
///
/// The certified step bound, one number every backend runs under, is
/// only valid while the runtime environment honours these caps; it has
/// no tunable margin (`cost.rs` scales the HIR model by one constant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyConfig {
    /// Maximum number of subflows one connection may have.
    pub max_subflows: u64,
    /// Maximum number of packets visible in one queue view.
    pub max_queue_len: u64,
    /// Maximum admitted scan nesting depth (deeper programs are rejected).
    pub max_scan_depth: usize,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            max_subflows: 64,
            max_queue_len: 65_536,
            max_scan_depth: 8,
        }
    }
}

/// Verifies `prog` under the default [`VerifyConfig`].
pub fn verify(prog: &HProgram) -> Verdict {
    verify_with_config(prog, &VerifyConfig::default())
}

/// Verifies `prog` under explicit caps, returning the full [`Verdict`].
pub fn verify_with_config(prog: &HProgram, cfg: &VerifyConfig) -> Verdict {
    admit(prog, cfg).0
}

/// [`verify_with_config`], also handing back the `POP` sites its
/// collecting pass classified, so the compile pipeline derives the
/// property certificate from them ([`props::certify`]) instead of
/// running the analyzer a second time.
pub(crate) fn admit(prog: &HProgram, cfg: &VerifyConfig) -> (Verdict, Vec<dataflow::PopSite>) {
    let (mut diagnostics, pops) = dataflow::run(prog);
    let (lint_diagnostics, analysis) = lints::run(prog, cfg);
    diagnostics.extend(lint_diagnostics);
    let certified_step_bound = cost::certified_step_bound(prog, cfg);
    // A saturated bound certifies nothing, yet it would become the
    // budget; a program already over the depth threshold has its error.
    if certified_step_bound == u64::MAX && analysis.max_scan_depth <= cfg.max_scan_depth {
        diagnostics.push(Diagnostic {
            lint: Lint::ScanDepth,
            severity: Severity::Error,
            // Only statements cost steps, so a saturated body has one.
            pos: prog.stmt_pos(prog.body[0]),
            message: format!(
                "the certified step bound saturates at {} steps: the nested scans over \
                 the subflow and queue caps admit no finite budget",
                u64::MAX
            ),
        });
    }
    diagnostics.sort_by(|a, b| {
        (a.pos.line, a.pos.col, a.lint, &a.message)
            .cmp(&(b.pos.line, b.pos.col, b.lint, &b.message))
    });
    diagnostics.dedup();
    let verdict = Verdict {
        diagnostics,
        certified_step_bound,
        analysis,
    };
    (verdict, pops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer;
    use crate::parser;
    use crate::sema;

    fn verdict_of(src: &str) -> Verdict {
        let ast = parser::parse(src).expect("parse");
        let mut hir = sema::lower(&ast).expect("sema");
        optimizer::optimize(&mut hir);
        verify(&hir)
    }

    fn has(v: &Verdict, lint: Lint, severity: Severity) -> bool {
        v.diagnostics
            .iter()
            .any(|d| d.lint == lint && d.severity == severity)
    }

    #[test]
    fn min_rtt_guarded_is_clean() {
        let v = verdict_of(
            "IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) {
                 SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP());
             }",
        );
        assert!(v.admitted(), "diags: {:?}", v.diagnostics);
        assert_eq!(v.count(Severity::Warning), 0);
        assert_eq!(v.count(Severity::Info), 0, "diags: {:?}", v.diagnostics);
        assert!(v.certified_step_bound > 0);
    }

    #[test]
    fn unguarded_pop_and_push_are_flagged_info() {
        let v = verdict_of("SUBFLOWS.GET(0).PUSH(Q.POP());");
        assert!(v.admitted());
        assert!(has(&v, Lint::PopMaybeEmpty, Severity::Info));
        assert!(has(&v, Lint::PushMaybeNull, Severity::Info));
    }

    #[test]
    fn provable_null_push_is_rejected() {
        let v = verdict_of(
            "VAR s = SUBFLOWS.GET(0);
             IF (s == NULL) {
                 s.PUSH(Q.POP());
             }",
        );
        assert!(!v.admitted());
        assert!(has(&v, Lint::PushNull, Severity::Error));
    }

    #[test]
    fn pop_from_provably_empty_queue_is_rejected() {
        let v = verdict_of(
            "IF (Q.EMPTY) {
                 SUBFLOWS.GET(0).PUSH(Q.POP());
             }",
        );
        assert!(!v.admitted());
        assert!(has(&v, Lint::PopEmpty, Severity::Error));
    }

    #[test]
    fn division_by_provably_zero_register_is_rejected() {
        // Written through a register so the optimizer cannot fold it away:
        // only the abstract interpreter can prove the divisor is zero.
        let v = verdict_of("SET(R1, 0); SET(R2, 10 / R1);");
        assert!(!v.admitted());
        assert!(has(&v, Lint::DivByZero, Severity::Error));
    }

    #[test]
    fn division_by_guarded_nonzero_is_clean() {
        let v = verdict_of(
            "IF (SUBFLOWS.COUNT > 0) {
                 SET(R1, 100 / SUBFLOWS.COUNT);
             }",
        );
        assert!(v.admitted());
        assert!(!has(&v, Lint::DivMaybeZero, Severity::Info));
        assert!(!has(&v, Lint::DivByZero, Severity::Error));
    }

    #[test]
    fn division_by_possibly_zero_count_is_info() {
        let v = verdict_of("SET(R1, 100 / SUBFLOWS.COUNT);");
        assert!(v.admitted());
        assert!(has(&v, Lint::DivMaybeZero, Severity::Info));
    }

    #[test]
    fn dead_branch_from_infeasible_range_is_warned() {
        let v = verdict_of(
            "VAR n = SUBFLOWS.COUNT;
             IF (n < 0) {
                 SET(R1, 1);
             }",
        );
        assert!(v.admitted());
        assert!(has(&v, Lint::DeadBranch, Severity::Warning));
    }

    #[test]
    fn contradictory_nested_guard_is_dead() {
        let v = verdict_of(
            "IF (R1 > 10) {
                 IF (R1 < 5) {
                     SET(R2, R1);
                 }
             }",
        );
        assert!(has(&v, Lint::DeadBranch, Severity::Warning));
    }

    #[test]
    fn register_written_never_read_is_info() {
        let v = verdict_of("SET(R3, SUBFLOWS.COUNT);");
        assert!(v.admitted());
        assert!(has(&v, Lint::RegisterNeverRead, Severity::Info));
        let v = verdict_of("SET(R3, SUBFLOWS.COUNT); SET(R4, R3 + 1); SET(R5, R4);");
        assert!(!v
            .diagnostics
            .iter()
            .any(|d| d.lint == Lint::RegisterNeverRead && d.message.contains("R3")));
    }

    #[test]
    fn pop_without_push_is_rejected() {
        let v = verdict_of("VAR p = Q.POP(); SET(R1, 1);");
        assert!(!v.admitted());
        assert!(has(&v, Lint::PopWithoutPush, Severity::Error));
        // Consumed via a variable read: fine.
        let v = verdict_of("VAR p = Q.POP(); IF (p != NULL) { DROP(p); }");
        assert!(v.admitted(), "diags: {:?}", v.diagnostics);
    }

    #[test]
    fn null_check_refines_top_origin_queue() {
        // `t != NULL` proves Q non-empty, so the POP is clean.
        let v = verdict_of(
            "VAR t = Q.TOP;
             IF (t != NULL) {
                 SUBFLOWS.MIN(s => s.RTT).PUSH(Q.POP());
             }",
        );
        assert!(v.admitted(), "diags: {:?}", v.diagnostics);
        assert!(!has(&v, Lint::PopMaybeEmpty, Severity::Info));
        // But SUBFLOWS was never guarded, so MIN may be NULL.
        assert!(has(&v, Lint::PushMaybeNull, Severity::Info));
    }

    #[test]
    fn stale_top_origin_does_not_survive_a_pop() {
        // The guard on `t` is evaluated after an intervening POP removed a
        // packet, so Q may be empty again: the second POP must be flagged.
        let v = verdict_of(
            "VAR t = Q.TOP;
             VAR p = Q.POP();
             IF (t != NULL AND p != NULL) {
                 DROP(p);
                 SUBFLOWS.GET(0).PUSH(Q.POP());
             }",
        );
        assert!(has(&v, Lint::PopMaybeEmpty, Severity::Info));
    }

    #[test]
    fn filtered_view_guard_refines_base_queue() {
        let v = verdict_of(
            "VAR urgent = Q.FILTER(p => p.PROP == 1);
             IF (!urgent.EMPTY AND !SUBFLOWS.EMPTY) {
                 SUBFLOWS.GET(0).PUSH(urgent.POP());
             }",
        );
        assert!(v.admitted(), "diags: {:?}", v.diagnostics);
        assert!(!has(&v, Lint::PopMaybeEmpty, Severity::Info));
    }

    #[test]
    fn scan_depth_over_threshold_is_rejected() {
        // Chained filters share one fused scan; only *nesting* inside a
        // predicate deepens the scan depth.
        let v = verdict_of(&nested_filter_src(9));
        assert!(!v.admitted(), "diags: {:?}", v.diagnostics);
        assert!(has(&v, Lint::ScanDepth, Severity::Error));
        assert!(verdict_of(&nested_filter_src(3)).admitted());
        // Anchored at the first scan past the threshold (the ninth FILTER,
        // on the second line here), not at the top of the program.
        let src = format!("SET(R2, 0);\n{}", nested_filter_src(9));
        let ninth = src.lines().nth(1).unwrap().find("FILTER(v9").unwrap();
        let v = verdict_of(&src);
        let d = v.diagnostics.iter().find(|d| d.lint == Lint::ScanDepth);
        let pos = d.expect("scan-depth").pos;
        assert_eq!((pos.line, pos.col as usize), (2, ninth + 1));
    }

    #[test]
    fn saturated_step_bound_is_rejected() {
        let nested = |depth: usize| {
            let mut src = "SET(R1, Q.COUNT);".to_string();
            for level in 0..depth {
                src = format!("FOREACH (VAR s{level} IN SUBFLOWS) {{ {src} }}");
            }
            verdict_of(&src)
        };
        let v = nested(8);
        assert_eq!(v.certified_step_bound, u64::MAX);
        assert!(!v.admitted(), "diags: {:?}", v.diagnostics);
        assert!(has(&v, Lint::ScanDepth, Severity::Error));
        let v = nested(7);
        assert!(v.admitted(), "diags: {:?}", v.diagnostics);
        assert!(v.certified_step_bound > 6_000_000_000_000_000_000);
        assert!(v.certified_step_bound < u64::MAX);
    }

    /// `SET(R1, F.COUNT)` where `F` nests `depth` filters inside each
    /// other's predicates.
    fn nested_filter_src(depth: usize) -> String {
        fn view(level: usize, depth: usize) -> String {
            if level > depth {
                return "SUBFLOWS".into();
            }
            format!(
                "SUBFLOWS.FILTER(v{level} => {}.COUNT > 0)",
                view(level + 1, depth)
            )
        }
        format!("SET(R1, {}.COUNT);", view(1, depth))
    }

    #[test]
    fn foreach_body_reaches_fixpoint_without_duplicate_diags() {
        let v = verdict_of(
            "FOREACH (VAR sbf IN SUBFLOWS) {
                 SET(R1, R1 + 1);
                 IF (sbf.HAS_WINDOW_FOR(Q.TOP) AND !Q.EMPTY) {
                     sbf.PUSH(Q.POP());
                 }
             }",
        );
        assert!(v.admitted(), "diags: {:?}", v.diagnostics);
        let pop_infos = v
            .diagnostics
            .iter()
            .filter(|d| d.lint == Lint::PopMaybeEmpty)
            .count();
        assert_eq!(pop_infos, 0, "diags: {:?}", v.diagnostics);
    }

    #[test]
    fn certified_bound_scales_with_scan_nesting() {
        let flat = verdict_of("SET(R1, SUBFLOWS.COUNT);").certified_step_bound;
        let scan =
            verdict_of("SET(R1, SUBFLOWS.FILTER(s => s.RTT < 50).COUNT);").certified_step_bound;
        let nested = verdict_of(
            "FOREACH (VAR s IN SUBFLOWS) { SET(R1, R1 + Q.FILTER(p => p.SIZE > 0).COUNT); }",
        )
        .certified_step_bound;
        assert!(flat < scan, "{flat} vs {scan}");
        assert!(scan < nested, "{scan} vs {nested}");
    }

    #[test]
    fn first_element_walks_cost_constant_and_count_scans() {
        let bound = |src: &str| verdict_of(src).certified_step_bound;
        let walk = bound("IF (!Q.EMPTY) { SET(R1, 1); }");
        // A filtered EMPTY and an unfiltered COUNT scan the whole queue.
        let filtered = bound("IF (!Q.FILTER(p => p.SIZE > 0).EMPTY) { SET(R1, 1); }");
        let count = bound("SET(R1, Q.COUNT);");
        assert!(filtered > walk.saturating_mul(100), "{walk} vs {filtered}");
        assert!(count > walk.saturating_mul(100), "{walk} vs {count}");
        // Each packet popped before a walk is one more element it may
        // step over.
        let pop = "SUBFLOWS.GET(0).PUSH(Q.POP());";
        let once = bound(&format!("{pop} IF (!Q.EMPTY) {{ SET(R1, 1); }}"));
        let per_subflow = bound(&format!(
            "FOREACH (VAR s IN SUBFLOWS) {{ {pop} }} IF (!Q.EMPTY) {{ SET(R1, 1); }}"
        ));
        assert!(
            per_subflow > once.saturating_mul(10),
            "{once} vs {per_subflow}"
        );
    }

    #[test]
    fn diagnostics_are_sorted_and_deduped() {
        let v = verdict_of(
            "SET(R1, 1 / 0);
             SET(R2, 2 / 0);",
        );
        let mut sorted = v.diagnostics.clone();
        sorted.sort_by_key(|d| (d.pos.line, d.pos.col));
        assert_eq!(v.diagnostics, sorted);
        let mut deduped = v.diagnostics.clone();
        deduped.dedup();
        assert_eq!(v.diagnostics, deduped);
    }

    #[test]
    fn return_branches_are_ignored_in_joins() {
        // On the fall-through path Q is proven non-empty by the guard.
        let v = verdict_of(
            "IF (Q.EMPTY OR SUBFLOWS.EMPTY) {
                 RETURN;
             }
             SUBFLOWS.MIN(s => s.RTT).PUSH(Q.POP());",
        );
        assert!(v.admitted(), "diags: {:?}", v.diagnostics);
        assert_eq!(v.count(Severity::Info), 0, "diags: {:?}", v.diagnostics);
    }
}
