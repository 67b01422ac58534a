//! Containment-tier regression suite (TESTING.md): the supervisor must
//! convert every scheduler fault class into quarantine + fallback +
//! deterministic backoff re-admission, with zero panics and zero
//! permanently stalled connections, and every incident must be
//! reproducible from its replay string alone.

use mptcp_sim::time::{from_millis, SECONDS};
use mptcp_sim::{
    ConnectionConfig, ContainAction, ContainState, ContainmentConfig, FaultClass, FaultClause,
    FaultPlan, NativeTrapping, PathConfig, SchedulerSpec, Sim, SubflowConfig,
};
use progmp_core::Backend;

/// A scheduler whose certificate proves work-conservation.
const PROVED_WC_DSL: &str =
    "IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) { SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP()); }";

/// Never pushes (R1 defaults to 0), and its honest certificate knows it.
const REGISTER_GATED_DSL: &str =
    "IF (R1 > 0 AND !Q.EMPTY) { SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP()); }";

fn two_paths() -> Vec<SubflowConfig> {
    vec![
        SubflowConfig::new(PathConfig::symmetric(from_millis(10), 1_250_000)),
        SubflowConfig::new(PathConfig::symmetric(from_millis(40), 1_250_000)),
    ]
}

/// Builds a contained, oracle-panicking sim: any *uncontained* violation
/// aborts the test, which is exactly the "zero panics" guarantee the
/// supervisor makes.
fn contained_sim(seed: u64, cfg: ConnectionConfig) -> Sim {
    let mut sim = Sim::new(seed);
    sim.enable_containment(ContainmentConfig::default());
    sim.enable_oracle(format!("seed {seed}"), true);
    sim.add_connection(cfg).unwrap();
    sim
}

#[test]
fn step_budget_bomb_completes_via_fallback_and_pins() {
    let mut cfg = ConnectionConfig::new(two_paths(), SchedulerSpec::dsl(PROVED_WC_DSL));
    cfg.step_budget = Some(3); // certified bound is far larger; 3 aborts every run
    let mut sim = contained_sim(7, cfg);
    sim.app_send_at(0, 0, 200_000, 0);
    sim.run_to_completion(60 * SECONDS);

    assert!(
        sim.connections[0].all_acked(),
        "the fallback must drain the transfer the bombed scheduler cannot"
    );
    assert_eq!(
        sim.connections[0].contain_state(),
        ContainState::Pinned,
        "persistent fault pins"
    );
    let first = &sim.incidents()[0];
    assert_eq!(first.action, ContainAction::Quarantined);
    assert_eq!(first.class, FaultClass::StepBudget { budget: 3 });
    assert!(first.backoff > 0);
    assert!(
        sim.incidents()
            .iter()
            .any(|i| i.action == ContainAction::Pinned),
        "three strikes trip the per-connection breaker: {:?}",
        sim.incidents()
    );
    // One exec abort per strike — not one per trigger: the fallback,
    // not the broken program, handles all intermediate triggers.
    assert_eq!(sim.connections[0].stats.scheduler_errors, 3);
    assert!(
        sim.oracle_violations().is_empty(),
        "contained, not reported"
    );
}

#[test]
fn starver_is_contained_by_the_stall_watchdog() {
    let cfg = ConnectionConfig::new(two_paths(), SchedulerSpec::dsl("RETURN;"));
    let mut sim = contained_sim(11, cfg);
    sim.app_send_at(0, 0, 150_000, 0);
    sim.run_to_completion(60 * SECONDS);

    assert!(
        sim.connections[0].all_acked(),
        "no permanently stalled connection under containment"
    );
    let stall = sim
        .incidents()
        .iter()
        .find(|i| i.class == FaultClass::ProgressStall)
        .expect("the watchdog must classify a starver as a progress stall");
    assert_eq!(stall.action, ContainAction::Quarantined);
    // The watchdog ticks on the connection's own clock: first check one
    // period after the data arrived.
    assert_eq!(stall.at, ContainmentConfig::default().stall_check_interval);
}

#[test]
fn backend_trap_is_contained_with_its_origin() {
    let cfg = ConnectionConfig::new(
        two_paths(),
        SchedulerSpec::Native(Box::new(NativeTrapping::new(2))),
    );
    let mut sim = contained_sim(13, cfg);
    sim.app_send_at(0, 0, 150_000, 0);
    sim.run_to_completion(60 * SECONDS);

    assert!(sim.connections[0].all_acked());
    assert!(
        sim.incidents().iter().any(|i| matches!(
            &i.class,
            FaultClass::BackendTrap {
                origin: "native-trapping",
                ..
            }
        )),
        "{:?}",
        sim.incidents()
    );
}

#[test]
fn transient_fault_survives_probationary_readmission() {
    let cfg = ConnectionConfig::new(
        two_paths(),
        SchedulerSpec::Native(Box::new(NativeTrapping::one_shot(2))),
    );
    let mut sim = contained_sim(17, cfg);
    sim.app_send_at(0, 0, 500_000, 0);
    sim.run_to_completion(60 * SECONDS);

    assert!(sim.connections[0].all_acked());
    assert_eq!(
        sim.connections[0].contain_state(),
        ContainState::Probation,
        "one transient trap must not pin: the original scheduler is back"
    );
    let actions: Vec<ContainAction> = sim.incidents().iter().map(|i| i.action).collect();
    assert_eq!(
        actions,
        vec![ContainAction::Quarantined, ContainAction::Readmitted],
        "exactly one quarantine/readmit cycle: {:?}",
        sim.incidents()
    );
}

#[test]
fn certificate_violation_is_quarantined_not_panicked() {
    // A never-pushing program wearing a stolen proved-WC certificate: a
    // faked verifier soundness gap. The oracle is in panicking mode, so
    // without containment routing this test would abort.
    let cfg = ConnectionConfig::new(two_paths(), forged(REGISTER_GATED_DSL, PROVED_WC_DSL));
    let mut sim = contained_sim(19, cfg);
    sim.app_send_at(0, 0, 150_000, 0);
    sim.run_to_completion(60 * SECONDS);

    assert!(sim.connections[0].all_acked());
    let first = &sim.incidents()[0];
    assert_eq!(
        first.class,
        FaultClass::OracleViolation {
            invariant: "property-work-conservation"
        },
        "{:?}",
        sim.incidents()
    );
    assert_eq!(first.at, 0, "caught on the very first execution");
    assert!(
        !sim.oracle_violations().is_empty(),
        "the violation stays on record even though it was contained"
    );
}

#[test]
fn incident_replay_string_reproduces_the_fault() {
    let build = || {
        let mut cfg = ConnectionConfig::new(two_paths(), SchedulerSpec::dsl(PROVED_WC_DSL));
        cfg.step_budget = Some(3);
        cfg
    };
    let mut sim = contained_sim(23, build());
    sim.app_send_at(0, 0, 200_000, 0);
    sim.run_to_completion(60 * SECONDS);
    let incident = sim.incidents()[0].clone();

    // Parse the integer-only replay string back into a scenario...
    let mut seed = None;
    let mut conn = None;
    let mut class = None;
    let mut at = None;
    for tok in incident.replay.split_whitespace() {
        let (k, v) = tok.split_once('=').expect("k=v tokens");
        match k {
            "seed" => seed = Some(v.parse::<u64>().unwrap()),
            "conn" => conn = Some(v.parse::<u64>().unwrap()),
            "class" => class = Some(v.to_string()),
            "at" => at = Some(v.parse::<u64>().unwrap()),
            other => panic!("unknown replay key {other}"),
        }
    }
    // ...and re-run it: the same fault recurs at the same simulated time.
    let mut replay = contained_sim(seed.unwrap(), build());
    replay.app_send_at(0, 0, 200_000, 0);
    replay.run_to_completion(60 * SECONDS);
    let class = class.unwrap();
    assert!(
        replay
            .incidents()
            .iter()
            .any(|i| i.conn == conn.unwrap() && i.at == at.unwrap() && i.class.name() == class),
        "replay must reproduce the incident: {:?}",
        replay.incidents()
    );

    // Full determinism: the entire incident log is bit-identical.
    let a: Vec<String> = sim.incidents().iter().map(|i| i.to_string()).collect();
    let b: Vec<String> = replay.incidents().iter().map(|i| i.to_string()).collect();
    assert_eq!(a, b);
}

#[test]
fn without_containment_faults_surface_the_old_way() {
    let mut cfg = ConnectionConfig::new(two_paths(), SchedulerSpec::dsl(PROVED_WC_DSL));
    cfg.step_budget = Some(3);
    let mut sim = Sim::new(29);
    sim.enable_oracle("seed 29", false); // collect, not panic
    sim.add_connection(cfg).unwrap();
    sim.app_send_at(0, 0, 200_000, 0);
    sim.run_to_completion(10 * SECONDS);

    assert!(sim.supervisor().is_none());
    assert_eq!(sim.connections[0].contain_state(), ContainState::Healthy);
    assert!(sim.incidents().is_empty());
    assert!(
        !sim.connections[0].all_acked(),
        "no fallback: the bombed scheduler strands the transfer"
    );
    assert!(
        sim.oracle_violations()
            .iter()
            .any(|v| v.invariant == "step-bound"),
        "without containment the oracle reports instead: {:?}",
        sim.oracle_violations()
    );
    assert!(sim.connections[0].stats.scheduler_errors > 0);
}

// ---- A mid-run scheduler swap under containment -------------------------

/// `PROVED_WC_DSL` under a step budget of 3, which aborts every run.
fn bombed_connection() -> ConnectionConfig {
    let mut cfg = ConnectionConfig::new(two_paths(), SchedulerSpec::dsl(PROVED_WC_DSL));
    cfg.step_budget = Some(3);
    cfg
}

#[test]
fn a_swap_under_quarantine_takes_effect_at_readmission_and_stays_supervised() {
    let mut sim = contained_sim(31, bombed_connection());
    sim.app_send_at(0, 0, 2_000_000, 0);
    sim.run_until(from_millis(1));
    let quarantine = sim.incidents()[0].clone();
    assert_eq!(quarantine.action, ContainAction::Quarantined);

    // The replacement schedules for a while, then traps forever.
    let replacement = SchedulerSpec::Native(Box::new(NativeTrapping::new(20)));
    sim.set_scheduler(0, replacement).unwrap();
    let state = |sim: &Sim| sim.connections[0].contain_state();
    assert_eq!(state(&sim), ContainState::Quarantined);

    sim.run_until(quarantine.at + quarantine.backoff);
    assert_eq!(state(&sim), ContainState::Probation);
    assert!(
        sim.connections[0].program().is_none(),
        "re-admission restores the native replacement, not the bomb program it replaced"
    );
    assert_eq!(
        sim.connections[0].step_budget(),
        Some(progmp_core::DEFAULT_STEP_BUDGET),
        "with the replacement's own budget, not the bomb's"
    );
    assert_eq!(
        sim.connections[0].stats.scheduler_errors, 1,
        "the fallback ran the quarantine: only the bomb's one abort so far"
    );

    sim.run_to_completion(60 * SECONDS);
    assert!(sim.connections[0].all_acked());
    let trap = sim
        .incidents()
        .iter()
        .find(|i| matches!(i.class, FaultClass::BackendTrap { .. }))
        .expect("the replacement's trap is an incident");
    assert_eq!(
        (trap.action, trap.strikes),
        (ContainAction::Quarantined, 2),
        "a fault of the replacement is a strike against the connection"
    );
    assert!(
        sim.incidents()
            .iter()
            .all(|i| i.action != ContainAction::FallbackFault),
        "{:?}",
        sim.incidents()
    );
}

#[test]
fn a_swap_on_a_pinned_connection_never_runs() {
    let mut sim = contained_sim(37, bombed_connection());
    sim.app_send_at(0, 0, 200_000, 0);
    sim.run_to_completion(60 * SECONDS);
    let state = |sim: &Sim| sim.connections[0].contain_state();
    assert_eq!(state(&sim), ContainState::Pinned);
    let incidents = sim.incidents().len();
    assert_eq!(sim.connections[0].stats.scheduler_errors, 3);

    // Traps on every call: one run would be an error and an incident.
    let trapper = SchedulerSpec::Native(Box::new(NativeTrapping::new(0)));
    sim.set_scheduler(0, trapper).unwrap();
    sim.app_send_at(0, sim.now, 200_000, 0);
    sim.run_to_completion(120 * SECONDS);
    assert!(
        sim.connections[0].all_acked(),
        "the fallback keeps the connection"
    );
    assert_eq!(state(&sim), ContainState::Pinned);
    assert_eq!(sim.connections[0].stats.scheduler_errors, 3);
    assert_eq!(sim.incidents().len(), incidents, "{:?}", sim.incidents());
}

// ---- One route for a scheduler fault -----------------------------------
//
// The oracle has no containment mode to poke, so what used to be checked
// by setting its flag is checked by driving the engine: the same three
// offenders with and without a supervisor, the two arming orders, and a
// transport defect that no supervisor may swallow.

const STEP_BOUND_1: &str = "1 scheduler execution(s) aborted on the certified step budget";
const STEP_BOUND_2: &str = "2 scheduler execution(s) aborted on the certified step budget";
const NOT_WORK_CONSERVING: &str = "proved work-conserving, yet an execution with a non-empty \
     send queue and an available subflow pushed nothing";
const STRANDED: &str =
    "event queue drained with 40000 of 40000 bytes unacked, 2 live subflow(s), no DROPs";
const OFF_LIMITS: &str =
    "PUSH targeted subflow id 0, outside the statically derived allowed set {1}";

fn certificate_of(source: &str) -> progmp_core::PropertyCertificate {
    progmp_core::compile(source)
        .unwrap()
        .property_certificate()
        .clone()
}

/// `source`, compiled and wearing the certificate of `proves` as its
/// own: a forged verifier soundness gap.
fn forged(source: &str, proves: &str) -> SchedulerSpec {
    let program = progmp_core::compile(source).unwrap();
    SchedulerSpec::program(
        &program.with_property_certificate(certificate_of(proves)),
        Backend::Vm,
    )
}

/// A scheduler that aborts every execution, one that breaks a stolen
/// certificate without ever pushing, one that breaks a stolen certificate
/// with every push it makes, and one that does nothing at all.
fn offender(which: &str) -> ConnectionConfig {
    let scheduler = match which {
        "bomb" => return bombed_connection(),
        "saboteur" => forged(REGISTER_GATED_DSL, PROVED_WC_DSL),
        "pushing saboteur" => forged(
            PROVED_WC_DSL,
            "VAR slow = SUBFLOWS.FILTER(sbf => sbf.ID == 1).MIN(sbf => sbf.RTT);\n\
             IF (slow != NULL AND !Q.EMPTY) { slow.PUSH(Q.POP()); }",
        ),
        "starver" => SchedulerSpec::dsl("RETURN;"),
        other => panic!("no offender {other}"),
    };
    ConnectionConfig::new(two_paths(), scheduler)
}

/// Two sends, 5 ms apart, and a jitter window after them: two events
/// that run the scheduler and two that do not.
fn two_sends_then_jitter(sim: &mut Sim) {
    sim.app_send_at(0, 0, 20_000, 0);
    sim.app_send_at(0, from_millis(5), 20_000, 0);
    let jitter = FaultClause::DelayJitter {
        sbf: 0,
        from: from_millis(7),
        until: from_millis(9),
        amplitude: from_millis(1),
    };
    sim.apply_fault_plan(
        0,
        &FaultPlan {
            clauses: vec![jitter],
        },
    );
    sim.run_to_completion(60 * SECONDS);
}

fn violations(sim: &Sim) -> Vec<(&'static str, u64, String)> {
    sim.oracle_violations()
        .iter()
        .map(|v| (v.invariant, v.at, v.detail.clone()))
        .collect()
}

#[test]
fn uncontained_offenders_are_reported_as_before() {
    let run = |which: &str, armed: bool| {
        let mut sim = Sim::new(29);
        if armed {
            sim.enable_oracle("seed 29", false);
        }
        sim.add_connection(offender(which)).unwrap();
        two_sends_then_jitter(&mut sim);
        assert!(sim.incidents().is_empty());
        sim
    };
    let report = |which: &str| {
        let sim = run(which, true);
        (violations(&sim), sim.connections[0].all_acked())
    };
    let at_5ms = from_millis(5);
    let quiescent = from_millis(9);
    // One `step-bound` per aborted execution, at the event that ran it,
    // none for the events that ran nothing; then the stranded data.
    let bomb = vec![
        ("step-bound", 0, STEP_BOUND_1.to_string()),
        ("step-bound", at_5ms, STEP_BOUND_2.to_string()),
        ("eventual-progress", quiescent, STRANDED.to_string()),
    ];
    assert_eq!(report("bomb"), (bomb, false));
    let saboteur = vec![
        (
            "property-work-conservation",
            0,
            NOT_WORK_CONSERVING.to_string(),
        ),
        (
            "property-work-conservation",
            at_5ms,
            NOT_WORK_CONSERVING.to_string(),
        ),
        ("eventual-progress", quiescent, STRANDED.to_string()),
    ];
    assert_eq!(report("saboteur"), (saboteur, false));
    let starver = vec![("eventual-progress", quiescent, STRANDED.to_string())];
    assert_eq!(report("starver"), (starver, false));
    // An oracle alone only observes: the offender keeps its turn, round
    // after round, exactly as in an unarmed run — one report per push,
    // fifteen rounds per send, and the transfer completes.
    let (pushing, all_acked) = report("pushing saboteur");
    let mut expected = vec![("property-starvation", 0, OFF_LIMITS.to_string()); 15];
    expected.extend(vec![
        ("property-starvation", at_5ms, OFF_LIMITS.to_string());
        15
    ]);
    assert_eq!(pushing, expected);
    assert!(all_acked);
    assert_eq!(
        run("pushing saboteur", true).connections[0]
            .stats
            .snapshot_text(),
        run("pushing saboteur", false).connections[0]
            .stats
            .snapshot_text()
    );
}

#[test]
fn contained_offenders_cost_one_incident_per_fault_and_stay_on_record() {
    let contained = |which: &str| {
        let mut sim = contained_sim(29, offender(which)); // panic-mode oracle
        two_sends_then_jitter(&mut sim);
        assert!(
            sim.connections[0].all_acked(),
            "{which}: the fallback drains"
        );
        sim
    };
    let faults = |sim: &Sim| -> Vec<(ContainAction, u64)> {
        let strikes = [ContainAction::Quarantined, ContainAction::Pinned];
        sim.incidents()
            .iter()
            .filter(|i| strikes.contains(&i.action))
            .map(|i| (i.action, i.at))
            .collect()
    };

    // The engine's own sight of the abort is the only one: three aborted
    // executions, three strikes, and no `step-bound` on top of them.
    let bomb = contained("bomb");
    assert_eq!(bomb.connections[0].stats.scheduler_errors, 3);
    assert_eq!(faults(&bomb).len(), 3);
    assert_eq!(faults(&bomb)[0], (ContainAction::Quarantined, 0));
    assert_eq!(faults(&bomb)[2].0, ContainAction::Pinned);
    assert_eq!(violations(&bomb), vec![]);

    // A breach of the certificate: quarantined at the first round that
    // shows it, kept on record, charged once. The offender is back on
    // probation well after both sends, so nothing else happens.
    for (which, invariant, detail) in [
        (
            "saboteur",
            "property-work-conservation",
            NOT_WORK_CONSERVING,
        ),
        ("pushing saboteur", "property-starvation", OFF_LIMITS),
    ] {
        let sim = contained(which);
        assert_eq!(faults(&sim), vec![(ContainAction::Quarantined, 0)]);
        assert_eq!(
            sim.incidents()[0].class,
            FaultClass::OracleViolation { invariant }
        );
        assert_eq!(violations(&sim), vec![(invariant, 0, detail.to_string())]);
    }

    // Stranded data the watchdog never saw (it was queued behind the
    // engine's back, so nothing armed it) surfaces when the event queue
    // drains, and takes the same route.
    let mut sim = contained_sim(29, offender("starver"));
    sim.connections[0].enqueue_data(40_000, 0, 0);
    sim.run_to_completion(60 * SECONDS);
    assert!(sim.connections[0].all_acked());
    assert_eq!(faults(&sim), vec![(ContainAction::Quarantined, 0)]);
    assert_eq!(
        sim.incidents()[0].class,
        FaultClass::OracleViolation {
            invariant: "eventual-progress"
        }
    );
    assert_eq!(
        violations(&sim),
        vec![("eventual-progress", 0, STRANDED.to_string())]
    );
}

#[test]
fn arming_order_does_not_matter() {
    let run = |which: &str, oracle_first: bool| {
        let mut sim = Sim::new(29);
        if oracle_first {
            sim.enable_oracle("seed 29", true);
        }
        sim.enable_containment(ContainmentConfig::default());
        if !oracle_first {
            sim.enable_oracle("seed 29", true);
        }
        sim.add_connection(offender(which)).unwrap();
        two_sends_then_jitter(&mut sim);
        let incidents: Vec<String> = sim.incidents().iter().map(|i| i.to_string()).collect();
        assert!(!incidents.is_empty(), "{which}");
        (incidents, violations(&sim))
    };
    for which in ["bomb", "saboteur", "pushing saboteur", "starver"] {
        assert_eq!(run(which, true), run(which, false), "{which}");
    }
}

#[test]
#[should_panic(expected = "conservation-delivery")]
fn a_transport_defect_is_not_a_scheduler_fault() {
    // No fallback scheduler can repair the engine, so a supervisor must
    // not swallow what the transport checks find.
    const REDUNDANT_DSL: &str = "IF (!Q.EMPTY) { VAR skb = Q.POP(); \
         FOREACH(VAR sbf IN SUBFLOWS) { sbf.PUSH(skb); } }";
    let cfg = ConnectionConfig::new(two_paths(), SchedulerSpec::dsl(REDUNDANT_DSL));
    let mut sim = contained_sim(31, cfg);
    sim.connections[0].receiver.inject_double_delivery_bug();
    sim.app_send_at(0, 0, 14_000, 0);
    sim.run_to_completion(10 * SECONDS);
}

#[test]
#[should_panic(expected = "conservation-delivery")]
fn quarantined_neighbours_do_not_silence_a_transport_defect() {
    // Four connections, two of them quarantined before the defect shows:
    // however many neighbours have faulted, the oracle still aborts on
    // what the transport checks find.
    const REDUNDANT_DSL: &str = "IF (!Q.EMPTY) { VAR skb = Q.POP(); \
         FOREACH(VAR sbf IN SUBFLOWS) { sbf.PUSH(skb); } }";
    let mut sim = contained_sim(31, offender("bomb"));
    sim.add_connection(offender("bomb")).unwrap();
    for _ in 0..2 {
        let cfg = ConnectionConfig::new(two_paths(), SchedulerSpec::dsl(REDUNDANT_DSL));
        sim.add_connection(cfg).unwrap();
    }
    sim.app_send_at(0, 0, 14_000, 0);
    sim.app_send_at(1, 0, 14_000, 0);
    sim.run_until(from_millis(1));
    let quarantined = [0, 1].map(|c| sim.connections[c].contain_state());
    assert_eq!(quarantined, [ContainState::Quarantined; 2]);

    sim.connections[3].receiver.inject_double_delivery_bug();
    sim.app_send_at(3, sim.now, 14_000, 0);
    sim.run_to_completion(10 * SECONDS);
}
