//! Golden optimizer snapshots for the bundled paper schedulers.
//!
//! Each of the seven headline schedulers compiles through the verified
//! bytecode optimizer *clean* — every kept rewrite re-verified, no
//! fail-open rollbacks — and the pass statistics, instruction counts,
//! and step bounds (HIR-certified and bytecode-model, before and after)
//! are pinned as `optimized_<name>.snap` so any change to a pass's
//! effectiveness or the verifier's precision shows up as a reviewable
//! diff. The bytecode-model bound must never increase; the certified
//! bound is a property of the HIR and is unchanged by construction.
//! Regenerate with `UPDATE_SNAPSHOTS=1 cargo test -p progmp-conformance
//! --test optimizer_snapshots`.

use progmp_conformance::snapshot::assert_snapshot;
use progmp_core::CompileOptions;
use progmp_schedulers::{source, PAPER};

#[test]
fn bundled_schedulers_optimize_clean_with_pinned_stats() {
    for name in PAPER {
        let program = progmp_core::compile_with_options(
            Some(name),
            source(name).unwrap(),
            CompileOptions {
                optimize_bytecode: true,
                ..CompileOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("bundled scheduler {name} must compile optimized: {e}"));
        let report = program
            .opt_report()
            .unwrap_or_else(|| panic!("{name}: optimized compile records an OptReport"));
        assert!(
            report.diagnostics.is_empty() && report.passes.iter().all(|p| !p.rolled_back),
            "bundled scheduler {name} must optimize without rollbacks:\n{}",
            report.render_human()
        );
        assert!(
            report.bound_after <= report.bound_before,
            "{name}: model step bound must never increase ({} -> {})",
            report.bound_before,
            report.bound_after
        );
        let mut out = format!("{name}: optimized clean\n");
        out.push_str(&format!(
            "certified step bound: {} (unchanged by bytecode optimization)\n",
            program.certified_step_bound()
        ));
        out.push_str(&report.render_human());
        assert_snapshot(&format!("optimized_{name}"), &out);
    }
}

/// The committed `optimized_*.snap` set is exactly the seven paper
/// schedulers — a golden left behind after a scheduler rename would
/// otherwise silently stop being checked.
#[test]
fn optimizer_goldens_cover_exactly_the_paper_schedulers() {
    progmp_conformance::snapshot::assert_family_covers("optimized_", &PAPER);
}
