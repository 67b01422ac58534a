//! Golden lint snapshots for the bundled paper schedulers.
//!
//! Each of the seven headline schedulers from the paper must pass the
//! admission verifier *clean* — admitted, with a finite certified step
//! bound — and the full human-readable verdict (including the bound) is
//! pinned as a snapshot so any change to the verifier's precision or
//! cost model shows up as a reviewable diff. Regenerate with
//! `UPDATE_SNAPSHOTS=1 cargo test -p progmp-conformance --test
//! lint_snapshots`.

use progmp_conformance::{compile_observed, snapshot::assert_snapshot};
use progmp_schedulers::{source, PAPER};

#[test]
fn bundled_schedulers_verify_clean_with_pinned_bounds() {
    for name in PAPER {
        let program = compile_observed(source(name).unwrap())
            .unwrap_or_else(|e| panic!("bundled scheduler {name} must compile: {e}"));
        let verdict = program.verdict();
        assert!(
            verdict.admitted(),
            "bundled scheduler {name} must be admitted:\n{}",
            verdict.render_human(name)
        );
        let bound = verdict.certified_step_bound;
        assert!(
            bound > 0 && bound < u64::MAX,
            "bundled scheduler {name} must have a finite certified bound, got {bound}"
        );
        assert_snapshot(&format!("lint_{name}"), &verdict.render_human(name));
    }
}

/// Stale-golden guard: the committed `lint_*.snap` set is exactly the
/// seven paper schedulers.
#[test]
fn lint_goldens_cover_exactly_the_paper_schedulers() {
    progmp_conformance::snapshot::assert_family_covers("lint_", &PAPER);
}

/// Every bundled scheduler — not just the seven snapshot targets — must
/// pass the enforcing admission gate, since the registry compiles them
/// with default options.
#[test]
fn all_bundled_schedulers_pass_the_admission_gate() {
    for (name, src) in progmp_schedulers::sources::ALL {
        progmp_core::compile_named(Some(name), src)
            .unwrap_or_else(|e| panic!("bundled scheduler {name} rejected by admission gate: {e}"));
    }
}
