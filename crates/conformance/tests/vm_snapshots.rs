//! Golden bytecode-verification snapshots: the seven core paper
//! schedulers' annotated disassembly and verdict, as produced by the
//! dataflow bytecode verifier, must match the checked-in text exactly.
//!
//! These snapshots pin three things at once: the codegen/regalloc output
//! (instruction stream), the debug side table (source spans on every
//! line), and the verifier's abstract interpretation (the register-state
//! annotations and model step bound). Any diff is a deliberate compiler
//! or verifier change — review it as such and regenerate with:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test -p progmp-conformance --test vm_snapshots
//! ```

use progmp_conformance::snapshot::assert_snapshot;
use progmp_schedulers::{source, PAPER};

#[test]
fn paper_schedulers_match_golden_bytecode_verdicts() {
    for name in PAPER {
        let program = progmp_core::compile_named(Some(name), source(name).unwrap())
            .unwrap_or_else(|e| panic!("{name} compiles: {e}"));
        assert_snapshot(&format!("bytecode_{name}"), &program.bytecode_report());
    }
}

/// Stale-golden guard: the committed `bytecode_*.snap` set is exactly
/// the seven paper schedulers.
#[test]
fn bytecode_goldens_cover_exactly_the_paper_schedulers() {
    progmp_conformance::snapshot::assert_family_covers("bytecode_", &PAPER);
}

#[test]
fn bytecode_report_is_deterministic() {
    let src = source("redundant").unwrap();
    let a = progmp_core::compile_named(Some("redundant"), src).expect("compiles");
    let b = progmp_core::compile_named(Some("redundant"), src).expect("compiles");
    assert_eq!(a.bytecode_report(), b.bytecode_report());
}
