//! Golden property-certificate snapshots for the bundled paper
//! schedulers plus the pathological `starver` example.
//!
//! Each of the seven headline schedulers' semantic property certificates
//! (work-conservation, per-subflow starvation, redundancy bound,
//! reinjection safety — see `progmp_core::verify::props`) is pinned as
//! `props_<name>.snap` so any change to the analysis's precision shows
//! up as a reviewable diff. The bundled `starver.progmp` negative
//! example pins the refutation path: its certificate must refute
//! subflow-starvation with a spanned witness. Regenerate with
//! `UPDATE_SNAPSHOTS=1 cargo test -p progmp-conformance --test
//! props_snapshots`.

use progmp_conformance::{compile_observed, snapshot::assert_snapshot};
use progmp_core::PropStatus;
use progmp_schedulers::{source, PAPER};

fn starver_source() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/schedulers/starver.progmp");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn bundled_schedulers_have_pinned_property_certificates() {
    for name in PAPER {
        let program = compile_observed(source(name).unwrap())
            .unwrap_or_else(|e| panic!("bundled scheduler {name} must compile: {e}"));
        let cert = program.property_certificate();
        assert_snapshot(&format!("props_{name}"), &cert.render_human(name));
    }
}

/// The headline claims the paper's schedulers are chosen to illustrate:
/// the guarded min-RTT scheduler is provably work-conserving with no
/// duplication, and the redundant scheduler's duplication factor is
/// exactly the subflow count.
#[test]
fn headline_certificates_match_the_paper_semantics() {
    let min_rtt = compile_observed(source("minRttSimple").unwrap()).expect("compiles");
    let cert = min_rtt.property_certificate();
    assert_eq!(
        cert.work_conservation.status,
        PropStatus::Proved,
        "minRttSimple proves work-conservation: {}",
        cert.render_human("minRttSimple")
    );
    assert_eq!(cert.dup_bound.render(), "1");
    assert_eq!(cert.dup_cap, 1);
    assert!(cert.pops_fully_guarded);

    let redundant = compile_observed(source("redundant").unwrap()).expect("compiles");
    let cert = redundant.property_certificate();
    assert_eq!(
        cert.dup_bound.render(),
        "n_subflows",
        "redundant's duplication factor is the subflow count: {}",
        cert.render_human("redundant")
    );
    assert_eq!(cert.dup_cap, 64, "the bound evaluated at the admission cap");
}

/// The pathological example refutes with an actionable, spanned witness.
#[test]
fn starver_is_refuted_with_a_spanned_witness() {
    let program = compile_observed(&starver_source()).expect("starver compiles (it is admitted)");
    let cert = program.property_certificate();
    assert_eq!(
        cert.starvation.status,
        PropStatus::Refuted,
        "{}",
        cert.render_human("starver")
    );
    assert!(
        !cert.starvation.witness.is_empty(),
        "the refutation carries a witness"
    );
    let step = &cert.starvation.witness[0];
    assert!(
        step.pos.line > 0 && step.pos.col > 0,
        "the witness is spanned: {:?}",
        step
    );
    assert_eq!(cert.allowed_ids.render(), "{0}");
    assert_snapshot("props_starver", &cert.render_human("starver"));
}

/// Stale-golden guard: the committed `props_*.snap` set is exactly the
/// seven paper schedulers plus the bundled `starver` example.
#[test]
fn props_goldens_cover_exactly_the_snapshot_set() {
    let mut expected = PAPER.to_vec();
    expected.push("starver");
    progmp_conformance::snapshot::assert_family_covers("props_", &expected);
}
