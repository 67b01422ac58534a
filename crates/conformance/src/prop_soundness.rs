//! Analysis-weakening sensitivity probes for the scheduler-property
//! verifier ([`progmp_core::verify::props`]).
//!
//! * **Soundness** is a check of the `program` tier
//!   ([`crate::tier::TIERS`]): for every generated program, derive the
//!   property certificate and run the program on all three backends over
//!   the same random environment.
//!   Every claim the verifier *proved* must hold in every observed
//!   round — a proved-work-conserving program must push when the
//!   precondition held, no `PUSH` may target an id outside the
//!   certificate's allowed set, no packet may be pushed more often than
//!   the closed-form duplication bound evaluated at the actual subflow
//!   count, and a proved-guarded program must never observe a `NULL`
//!   pop. The dynamic checks are the *simulator oracle's own*
//!   ([`mptcp_sim::oracle::check_properties`]), so the sweep
//!   cross-validates the static analysis against the same code path the
//!   chaos tier arms.
//! * **Sensitivity** ([`probes`]): each
//!   [`progmp_core::verify::props::PropWeakening`] hook
//!   deliberately weakens one analysis step (loops assumed to iterate,
//!   nullable push operands ignored, loop multiplicity dropped,
//!   transient properties treated as identities, pops assumed guarded).
//!   For every weakening there is a crafted scheduler + environment
//!   where the weakened certificate makes a false claim — and the
//!   dynamic check must catch it. An oracle that can't catch seeded
//!   analysis bugs proves nothing about the absence of unseeded ones.

use crate::differ::BackendOutcome;
use crate::gen::{EnvSpec, SubflowSpec};
use crate::tier::Probe;
use mptcp_sim::oracle::check_properties;
use progmp_core::env::{QueueKind, SubflowProp};
use progmp_core::verify::props::{verify_properties_with, PropWeakening};
use progmp_core::{Backend, PropertyCertificate};

/// A crafted scheduler + environment that exposes one weakening: the
/// weakened analysis makes a claim the execution falsifies.
fn weakening_case(weakening: PropWeakening) -> (&'static str, EnvSpec) {
    // The default environment: one established subflow (id 0, RTT 10,
    // open congestion window so it counts as *available* under the
    // work-conservation precondition), one packet in the send queue.
    let mut spec = EnvSpec {
        subflows: vec![SubflowSpec {
            id: 0,
            props: vec![(SubflowProp::Rtt, 10), (SubflowProp::Cwnd, 10)],
            has_window: true,
        }],
        ..EnvSpec::default()
    };
    spec.packets.push(crate::gen::PacketSpec {
        id: 1,
        queue: QueueKind::SendQueue,
        seq: 0,
        size: 1400,
        props: vec![],
        sent_on: vec![],
    });
    match weakening {
        // The filtered loop never iterates (no subflow has RTT < 0), so
        // nothing is pushed; assuming loops run falsely proves
        // work-conservation.
        PropWeakening::AssumeLoopsRun => (
            "FOREACH (VAR sbf IN SUBFLOWS.FILTER(s => s.RTT < 0)) { sbf.PUSH(Q.TOP); }",
            spec,
        ),
        // The filter is empty at runtime, the MIN is NULL, and the PUSH
        // no-ops; ignoring nullable operands falsely proves
        // work-conservation.
        PropWeakening::IgnoreNullableOperands => (
            "VAR f = SUBFLOWS.FILTER(s => s.RTT < 0).MIN(s => s.RTT);\nf.PUSH(Q.POP());",
            spec,
        ),
        // Two subflows make the broadcast push the same packet twice;
        // dropping loop multiplicity falsely certifies a bound of 1.
        PropWeakening::IgnoreLoopMultiplicity => {
            spec.subflows.push(SubflowSpec {
                id: 1,
                props: vec![(SubflowProp::Rtt, 20), (SubflowProp::Cwnd, 10)],
                has_window: true,
            });
            ("FOREACH (VAR sbf IN SUBFLOWS) { sbf.PUSH(Q.TOP); }", spec)
        }
        // The filter selects by RTT, a transient property; treating it
        // as an identity falsely restricts the allowed-id set to {0},
        // while the execution pushes on subflow 1 (the one whose RTT is
        // actually 0).
        PropWeakening::TreatTransientAsId => {
            spec.subflows.push(SubflowSpec {
                id: 1,
                props: vec![(SubflowProp::Rtt, 0), (SubflowProp::Cwnd, 10)],
                has_window: true,
            });
            (
                "VAR f = SUBFLOWS.FILTER(s => s.RTT == 0).MIN(s => s.ID);\n\
                 IF (f != NULL AND !Q.EMPTY) { f.PUSH(Q.POP()); }",
                spec,
            )
        }
        // The reinjection queue is empty, so the unguarded POP observes
        // NULL; assuming pops guarded falsely certifies
        // `pops_fully_guarded`.
        PropWeakening::AssumePopsGuarded => (
            "VAR p = RQ.POP();\nIF (p != NULL AND !SUBFLOWS.EMPTY) { SUBFLOWS.MIN(s => s.RTT).PUSH(p); }",
            spec,
        ),
    }
}

/// Compiles each crafted scheduler, derives its certificate once more
/// with the [`PropWeakening`] injected, runs the program against the
/// crafted environment on every backend, and records whether the
/// weakened certificate's false claim is caught dynamically while the
/// program's own certificate stays silent (the weakening, not the
/// checker, is what broke).
pub fn probes() -> Vec<Probe> {
    let mut probes = Vec::new();
    for weakening in PropWeakening::ALL {
        let (source, spec) = weakening_case(weakening);
        let program = crate::compile_observed(source)
            .unwrap_or_else(|e| panic!("weakening case {}: compile failed: {e}", weakening.name()));
        // The HIR `compile` certified: the weakened analysis reads the
        // same one.
        let ast = progmp_core::parser::parse(source).expect("compiled above");
        let mut hir = progmp_core::sema::lower(&ast).expect("compiled above");
        progmp_core::optimizer::optimize(&mut hir);
        let weakened = verify_properties_with(&hir, Some(weakening), true);
        let clean = program.property_certificate();
        // What the oracle says about `cert` on the first round against
        // the crafted environment.
        let flagged = |cert: &PropertyCertificate, backend: Backend| {
            let bound = program.certified_step_bound();
            let outcome = BackendOutcome::run(&program, backend, &spec, bound);
            let Ok((_, obs)) = &outcome.rounds[0] else {
                panic!("weakening case {} must execute", weakening.name())
            };
            check_properties(0, 0, cert, obs)
        };
        // The same execution under the honest certificate must be
        // violation-free on every backend, pinning the blame on the
        // weakening.
        let sound_baseline = Backend::ALL
            .iter()
            .all(|&backend| flagged(clean, backend).is_empty());
        let mut caught = true;
        let mut detail = String::new();
        for backend in Backend::ALL {
            match flagged(&weakened, backend).first() {
                Some(v) if detail.is_empty() => {
                    detail = format!("{}: {}", v.invariant, v.detail);
                }
                Some(_) => {}
                None => caught = false,
            }
        }
        if !caught {
            detail.push_str(" (no dynamic violation on some backend)");
        }
        if !sound_baseline {
            detail.push_str(" (the honest certificate is violated on the same execution)");
        }
        probes.push(Probe {
            label: weakening.name().to_string(),
            caught: caught && sound_baseline,
            detail,
        });
    }
    probes
}
