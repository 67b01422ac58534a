//! Property-soundness sweep and analysis-weakening sensitivity check.
//!
//! Two complementary directions for the scheduler-property verifier
//! ([`progmp_core::verify::props`]):
//!
//! * **Soundness** ([`sweep`]): for every generated program, derive the
//!   property certificate and run the program on all three backends over
//!   the same random environment. Every claim the verifier *proved* must
//!   hold in the observed execution — a proved-work-conserving program
//!   must push when the precondition held, no `PUSH` may target an id
//!   outside the certificate's allowed set, no packet may be pushed more
//!   often than the closed-form duplication bound evaluated at the
//!   actual subflow count, and a proved-guarded program must never
//!   observe a `NULL` pop. The dynamic checks are the *simulator
//!   oracle's own* ([`mptcp_sim::oracle::InvariantOracle::check_properties`]),
//!   so the sweep cross-validates the static analysis against the same
//!   code path the chaos tier arms.
//! * **Sensitivity** ([`mutation_check`]): each
//!   [`progmp_core::verify::props::PropWeakening`] hook
//!   deliberately weakens one analysis step (loops assumed to iterate,
//!   nullable push operands ignored, loop multiplicity dropped,
//!   transient properties treated as identities, pops assumed guarded).
//!   For every weakening there is a crafted scheduler + environment
//!   where the weakened certificate makes a false claim — and the
//!   dynamic check must catch it. An oracle that can't catch seeded
//!   analysis bugs proves nothing about the absence of unseeded ones.

use crate::gen::{EnvSpec, Generator, SubflowSpec};
use mptcp_sim::oracle::{InvariantOracle, PropObservation};
use progmp_core::env::{QueueKind, SubflowProp};
use progmp_core::exec::ExecCtx;
use progmp_core::testenv::MockEnv;
use progmp_core::verify::props::PropWeakening;
use progmp_core::{Backend, CompileOptions, PropertyCertificate, SchedulerProgram};

/// One property-soundness violation: a statically proved claim failed
/// dynamically.
#[derive(Debug, Clone)]
pub struct PropViolation {
    /// Seed that produced the program (u64::MAX for crafted cases).
    pub seed: u64,
    /// Backend the violating execution ran on.
    pub backend: Backend,
    /// Program source.
    pub source: String,
    /// Which property invariant failed (oracle catalogue name).
    pub invariant: &'static str,
    /// Offending values.
    pub detail: String,
}

impl std::fmt::Display for PropViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "property-soundness violation at seed {} on {:?}",
            self.seed, self.backend
        )?;
        writeln!(f, "invariant: {}", self.invariant)?;
        writeln!(f, "detail: {}", self.detail)?;
        writeln!(f, "program:\n{}", self.source)
    }
}

/// Aggregate results of a property-soundness sweep.
#[derive(Debug, Clone, Default)]
pub struct PropSweepReport {
    /// Seeds checked.
    pub checked: u64,
    /// Programs whose certificate proved work-conservation.
    pub wc_proved: u64,
    /// Programs with at least one refuted property.
    pub refuted: u64,
    /// Executions skipped because a backend reported a runtime error
    /// (counted, not failed — admission soundness is `--soundness`'s
    /// job).
    pub exec_errors: u64,
    /// Violations found (must be empty for a passing sweep).
    pub violations: Vec<PropViolation>,
}

impl PropSweepReport {
    /// One-line human summary for CI logs.
    pub fn summary(&self) -> String {
        format!(
            "prop-soundness sweep: {} seeds x 3 backends, {} wc-proved, {} with refutations, {} exec errors, {} violations",
            self.checked,
            self.wc_proved,
            self.refuted,
            self.exec_errors,
            self.violations.len()
        )
    }
}

/// Runs `program` once on `backend` against a fresh copy of `env`,
/// returning the oracle observation (or `None` on a runtime error).
fn observe(program: &SchedulerProgram, backend: Backend, env: &MockEnv) -> Option<PropObservation> {
    // Sampled pre-round, exactly as the simulator engine samples it.
    let pre = PropObservation::before(env);
    let mut ctx = ExecCtx::new(env, program.certified_step_bound());
    let mut instance = program.instantiate(backend);
    instance.execute_raw(&mut ctx).ok()?;
    let (_regs, actions, stats) = ctx.finish();
    Some(pre.after(&actions, &stats))
}

/// Checks one observed execution against `cert` through the simulator
/// oracle, returning any violations tagged with `seed`/`backend`.
fn check_observation(
    seed: u64,
    backend: Backend,
    source: &str,
    cert: &PropertyCertificate,
    obs: &PropObservation,
) -> Vec<PropViolation> {
    let mut oracle = InvariantOracle::new(format!("prop-soundness seed {seed}"), false);
    oracle.check_properties(0, 0, cert, obs);
    oracle
        .violations
        .iter()
        .map(|v| PropViolation {
            seed,
            backend,
            source: source.to_string(),
            invariant: v.invariant,
            detail: v.detail.clone(),
        })
        .collect()
}

/// Checks one seed: generates a program and a random environment,
/// derives the property certificate, and validates it against the
/// observed execution on every backend. Returns `(wc proved?, any
/// refutation?, exec errors, violations)`.
///
/// `relational` selects the octagon domain. With it on, the certificate
/// is also derived with the projection-only fallback and every verdict
/// must move monotonically toward PROVED (the octagon may sharpen a
/// verdict, never lose one).
pub fn check_seed(seed: u64, relational: bool) -> (bool, bool, u64, Vec<PropViolation>) {
    let mut generator = Generator::new(seed);
    let candidate = generator.program();
    let spec = generator.env_spec();
    let source = candidate.to_string();
    let compile = |rel: bool| {
        progmp_core::compile_with_options(
            None,
            &source,
            CompileOptions {
                enforce_admission: false,
                relational_domain: rel,
                ..CompileOptions::default()
            },
        )
        .unwrap_or_else(|e| {
            panic!("seed {seed}: generated program failed to compile: {e}\n{source}")
        })
    };
    let program = compile(relational);
    let cert = program.property_certificate().clone();
    let wc_proved = cert.work_conservation.status == progmp_core::PropStatus::Proved;
    let refuted = !cert.clean();
    let mut exec_errors = 0;
    let mut violations = Vec::new();
    if relational {
        let fallback = compile(false);
        let cert_off = fallback.property_certificate();
        for ((lint, on), (_, off)) in cert.outcomes().iter().zip(cert_off.outcomes().iter()) {
            if off.status == progmp_core::PropStatus::Proved
                && on.status != progmp_core::PropStatus::Proved
            {
                violations.push(PropViolation {
                    seed,
                    backend: Backend::ALL[0],
                    source: source.clone(),
                    invariant: "octagon-monotonicity",
                    detail: format!(
                        "{}: proved by the projection-only analysis but {} with the \
                         octagon enabled",
                        lint.name(),
                        on.status.name()
                    ),
                });
            }
        }
    }
    for backend in Backend::ALL {
        let env = spec.build();
        match observe(&program, backend, &env) {
            Some(obs) => {
                violations.extend(check_observation(seed, backend, &source, &cert, &obs));
            }
            None => exec_errors += 1,
        }
    }
    (wc_proved, refuted, exec_errors, violations)
}

/// Runs [`check_seed`] over seeds `[start, start + count)`.
pub fn sweep(start: u64, count: u64, relational: bool) -> PropSweepReport {
    let mut report = PropSweepReport::default();
    for seed in start..start + count {
        report.checked += 1;
        let (wc, refuted, exec_errors, violations) = check_seed(seed, relational);
        if wc {
            report.wc_proved += 1;
        }
        if refuted {
            report.refuted += 1;
        }
        report.exec_errors += exec_errors;
        report.violations.extend(violations);
    }
    report
}

/// One injected analysis weakening and whether the dynamic check caught
/// the false claim it introduces.
#[derive(Debug, Clone)]
pub struct WeakeningOutcome {
    /// Stable weakening name (`assume-loops-run`, ...).
    pub weakening: &'static str,
    /// Whether the weakened certificate's false claim was violated
    /// dynamically on every backend.
    pub caught: bool,
    /// Whether the *unweakened* certificate stayed silent on the same
    /// execution (the weakening, not the checker, is what broke).
    pub sound_baseline: bool,
    /// First violation detail (empty when not caught).
    pub detail: String,
}

/// Result of the full analysis-weakening sensitivity check.
#[derive(Debug, Clone, Default)]
pub struct WeakeningReport {
    /// Every injected weakening.
    pub outcomes: Vec<WeakeningOutcome>,
}

impl WeakeningReport {
    /// True iff every weakening's false claim was caught dynamically and
    /// every unweakened baseline stayed clean.
    pub fn all_caught(&self) -> bool {
        !self.outcomes.is_empty() && self.outcomes.iter().all(|o| o.caught && o.sound_baseline)
    }

    /// One-line human summary for CI logs.
    pub fn summary(&self) -> String {
        let caught = self.outcomes.iter().filter(|o| o.caught).count();
        format!(
            "prop-weakening check: {}/{} injected analysis weakenings caught dynamically",
            caught,
            self.outcomes.len()
        )
    }
}

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
        // The contradictory relational guard pair (R1 < R2 then
        // R1 >= R2) makes the no-push RETURN path infeasible only while
        // the octagon tracks the R1/R2 relation: dropping relations must
        // lose the work-conservation proof (checked statically in
        // `mutation_check`), while the concrete run (registers default
        // to 0, taking the ELSE push) keeps the clean baseline silent.
        PropWeakening::OctagonDropRelations => (
            "IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) {\n\
             IF (R1 < R2) {\n\
             IF (R1 >= R2) { RETURN; }\n\
             SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP());\n\
             } ELSE {\n\
             SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP());\n\
             }\n\
             }",
            spec,
        ),
    }
}

/// Compiles each crafted scheduler once with its [`PropWeakening`]
/// injected and once clean, runs both against the crafted environment on
/// every backend, and records whether the weakened certificate's false
/// claim is caught dynamically while the unweakened certificate stays
/// silent.
pub fn mutation_check() -> WeakeningReport {
    let mut report = WeakeningReport::default();
    for weakening in PropWeakening::ALL {
        let (source, spec) = weakening_case(weakening);
        let compile = |weaken: Option<PropWeakening>| {
            progmp_core::compile_with_options(
                None,
                source,
                CompileOptions {
                    enforce_admission: false,
                    prop_weakening: weaken,
                    ..CompileOptions::default()
                },
            )
            .unwrap_or_else(|e| panic!("weakening case {}: compile failed: {e}", weakening.name()))
        };
        let weakened = compile(Some(weakening));
        let clean = compile(None);
        if weakening == PropWeakening::OctagonDropRelations {
            // Not an unsoundness injection: the weakening only discards
            // precision, so the catch is *losing a PROVED* — the clean
            // certificate proves work-conservation via the relational
            // guard contradiction, the weakened one must not. The clean
            // certificate must still stay dynamically silent on every
            // backend, pinning the proof's soundness.
            let clean_wc = clean.property_certificate().work_conservation.status;
            let weak_wc = weakened.property_certificate().work_conservation.status;
            let caught = clean_wc == progmp_core::PropStatus::Proved
                && weak_wc != progmp_core::PropStatus::Proved;
            let mut baseline_clean = true;
            for backend in Backend::ALL {
                let env = spec.build();
                let obs = observe(&clean, backend, &env)
                    .unwrap_or_else(|| panic!("weakening case {} must execute", weakening.name()));
                if !check_observation(
                    u64::MAX,
                    backend,
                    source,
                    clean.property_certificate(),
                    &obs,
                )
                .is_empty()
                {
                    baseline_clean = false;
                }
            }
            report.outcomes.push(WeakeningOutcome {
                weakening: weakening.name(),
                caught,
                sound_baseline: baseline_clean,
                detail: if caught {
                    format!(
                        "work-conservation {} -> {} when the relational domain is dropped",
                        clean_wc.name(),
                        weak_wc.name()
                    )
                } else {
                    String::new()
                },
            });
            continue;
        }
        let mut caught_everywhere = true;
        let mut baseline_clean = true;
        let mut detail = String::new();
        for backend in Backend::ALL {
            let env = spec.build();
            let obs = observe(&weakened, backend, &env)
                .unwrap_or_else(|| panic!("weakening case {} must execute", weakening.name()));
            let violations = check_observation(
                u64::MAX,
                backend,
                source,
                weakened.property_certificate(),
                &obs,
            );
            match violations.first() {
                Some(v) if detail.is_empty() => {
                    detail = format!("{}: {}", v.invariant, v.detail);
                }
                Some(_) => {}
                None => caught_everywhere = false,
            }
            // The same execution under the honest certificate must be
            // violation-free, pinning the blame on the weakening.
            let env = spec.build();
            let obs = observe(&clean, backend, &env)
                .unwrap_or_else(|| panic!("weakening case {} must execute", weakening.name()));
            if !check_observation(
                u64::MAX,
                backend,
                source,
                clean.property_certificate(),
                &obs,
            )
            .is_empty()
            {
                baseline_clean = false;
            }
        }
        report.outcomes.push(WeakeningOutcome {
            weakening: weakening.name(),
            caught: caught_everywhere,
            sound_baseline: baseline_clean,
            detail,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_prop_sweep_is_clean() {
        let report = sweep(0, 64, true);
        assert_eq!(report.checked, 64);
        assert!(
            report.violations.is_empty(),
            "{}",
            report
                .violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn projection_only_prop_sweep_is_clean() {
        // With the octagon force-disabled the weaker certificates must
        // still be dynamically sound.
        let report = sweep(0, 32, false);
        assert_eq!(report.checked, 32);
        assert!(
            report.violations.is_empty(),
            "{}",
            report
                .violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn every_weakening_is_caught_dynamically() {
        let report = mutation_check();
        assert_eq!(report.outcomes.len(), PropWeakening::ALL.len());
        assert!(
            report.all_caught(),
            "every injected analysis weakening caught, with a clean baseline:\n{}",
            report
                .outcomes
                .iter()
                .map(|o| format!(
                    "  caught={} baseline-clean={} {} — {}",
                    o.caught, o.sound_baseline, o.weakening, o.detail
                ))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
