//! The program lifecycle: each distinct source compiles once per process,
//! every connection naming it — in any [`Sim`], on any thread — shares
//! that program, and what must stay per connection (a budget override,
//! the parked scheduler of a quarantine) does. The certificate the
//! oracle arms is always the running program's own.
//!
//! Every test here shares one process-wide table, so none counts its
//! entries: sharing is asserted by pointer-equal programs.

use mptcp_sim::time::{from_millis, SECONDS};
use mptcp_sim::{
    fallback_program, ConnectionConfig, ContainAction, ContainState, ContainmentConfig, PathConfig,
    SchedulerSpec, Sim, SubflowConfig,
};
use progmp_core::env::RegId;
use progmp_core::{Backend, PropertyCertificate, SchedulerProgram};
use std::sync::Barrier;

const MIN_RTT: &str =
    "IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) { SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP()); }";

/// Never pushes until the application sets R1.
const REGISTER_GATED: &str =
    "IF (R1 > 0 AND !Q.EMPTY) { SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP()); }";

const REDUNDANT: &str =
    "IF (!Q.EMPTY) { VAR skb = Q.POP(); FOREACH (VAR sbf IN SUBFLOWS) { sbf.PUSH(skb); } }";

fn paths(n: usize) -> Vec<SubflowConfig> {
    (0..n as u64)
        .map(|i| SubflowConfig::new(PathConfig::symmetric(from_millis(10 + 30 * i), 1_250_000)))
        .collect()
}

fn program(sim: &Sim, conn: usize) -> &SchedulerProgram {
    sim.connections[conn]
        .program()
        .unwrap_or_else(|| panic!("connection {conn} runs a native scheduler"))
}

/// Asserts that `conn` runs `expected`, and so that the certificate the
/// oracle arms is `expected`'s own — not an equal copy.
fn runs(sim: &Sim, conn: usize, expected: &SchedulerProgram) {
    let running = program(sim, conn);
    assert!(running.ptr_eq(expected), "connection {conn}");
    let cert = running.property_certificate();
    assert!(std::ptr::eq(cert, expected.property_certificate()));
}

fn certificate_of(source: &str) -> PropertyCertificate {
    progmp_core::compile(source)
        .unwrap()
        .property_certificate()
        .clone()
}

/// `source`, compiled outside the table and wearing the certificate of
/// `MIN_RTT`, which proves work-conservation, as its own.
fn forged(source: &str) -> SchedulerProgram {
    let program = progmp_core::compile(source).unwrap();
    program.with_property_certificate(certificate_of(MIN_RTT))
}

/// The first seven bundled sources: the paper's schedulers.
fn seven_sources() -> impl Iterator<Item = &'static str> + Clone {
    progmp_schedulers::sources::ALL[..7].iter().map(|&(_, s)| s)
}

#[test]
fn seventy_connections_of_seven_schedulers_share_seven_programs() {
    let mut sim = Sim::new(3);
    for (i, source) in seven_sources().cycle().take(70).enumerate() {
        let backend = Backend::ALL[i % 3];
        let cfg = ConnectionConfig::new(paths(2), SchedulerSpec::dsl_on(source, backend));
        let conn = sim.add_connection(cfg).unwrap();
        sim.set_register_at(conn, 0, RegId::R1, 1_000_000);
        sim.app_send_at(conn, 0, 20_000, 0);
    }
    for i in 7..70 {
        assert!(
            program(&sim, i).ptr_eq(program(&sim, i % 7)),
            "connection {i} shares the program of connection {}",
            i % 7
        );
        assert!(!program(&sim, i).ptr_eq(program(&sim, (i + 1) % 7)));
    }
    sim.run_to_completion(120 * SECONDS);
    for c in &sim.connections {
        assert!(c.all_acked(), "connection {} on a shared program", c.id);
        assert!(c.stats.scheduler_executions > 0);
    }
}

#[test]
fn two_simulators_on_two_threads_share_one_program_per_source() {
    // Both threads start binding at once, so on a cold table they race to
    // compile the same first source.
    let start = Barrier::new(2);
    let bind_all = || {
        start.wait();
        let mut sim = Sim::new(3);
        for source in seven_sources() {
            let cfg = ConnectionConfig::new(paths(2), SchedulerSpec::dsl(source));
            sim.add_connection(cfg).unwrap();
        }
        (0..7).map(|c| program(&sim, c).clone()).collect::<Vec<_>>()
    };
    let (a, b) = std::thread::scope(|s| {
        let (a, b) = (s.spawn(bind_all), s.spawn(bind_all));
        (a.join().unwrap(), b.join().unwrap())
    });
    for (i, (a, b)) in a.iter().zip(&b).enumerate() {
        assert!(a.ptr_eq(b), "source {i} compiled once for both simulators");
    }
}

#[test]
fn sources_differing_by_one_byte_are_two_programs() {
    let bind = |sim: &mut Sim, source: String| {
        let cfg = ConnectionConfig::new(paths(1), SchedulerSpec::dsl(source));
        sim.add_connection(cfg).unwrap()
    };
    let (mut sim, mut again) = (Sim::new(3), Sim::new(4));
    for source in [MIN_RTT.to_string(), format!("{MIN_RTT} ")] {
        bind(&mut sim, source.clone());
        bind(&mut again, source);
    }
    assert!(!program(&sim, 0).ptr_eq(program(&sim, 1)));
    for conn in [0, 1] {
        assert!(program(&sim, conn).ptr_eq(program(&again, conn)));
    }
}

#[test]
fn a_rejected_source_is_reported_every_time_and_never_loaded() {
    let mut sim = Sim::new(3);
    sim.add_connection(ConnectionConfig::new(paths(1), SchedulerSpec::dsl(MIN_RTT)))
        .unwrap();
    for _ in 0..3 {
        let bad = ConnectionConfig::new(paths(1), SchedulerSpec::dsl("VAR x = ;"));
        assert!(sim.add_connection(bad).is_err());
        assert_eq!(sim.connections.len(), 1);
    }
    let good = ConnectionConfig::new(paths(1), SchedulerSpec::dsl(MIN_RTT));
    sim.add_connection(good).unwrap();
    assert!(program(&sim, 1).ptr_eq(program(&sim, 0)));
}

#[test]
fn a_precompiled_program_binds_without_entering_the_table() {
    let loaded = progmp_core::compile(MIN_RTT).unwrap();
    let mut sim = Sim::new(3);
    for backend in Backend::ALL {
        let spec = SchedulerSpec::program(&loaded, backend);
        let conn = sim
            .add_connection(ConnectionConfig::new(paths(2), spec))
            .unwrap();
        sim.app_send_at(conn, 0, 20_000, 0);
        assert!(program(&sim, conn).ptr_eq(&loaded));
    }
    let from_source = ConnectionConfig::new(paths(2), SchedulerSpec::dsl(MIN_RTT));
    let conn = sim.add_connection(from_source).unwrap();
    assert!(
        !program(&sim, conn).ptr_eq(&loaded),
        "the same source through the table is the table's own program"
    );
    sim.run_to_completion(30 * SECONDS);
    assert!(sim.connections.iter().all(|c| c.all_acked()));
}

#[test]
fn a_budget_override_stays_per_connection() {
    let mut sim = Sim::new(3);
    let plain = ConnectionConfig::new(paths(1), SchedulerSpec::dsl(REGISTER_GATED));
    let mut tight = ConnectionConfig::new(paths(1), SchedulerSpec::dsl(REGISTER_GATED));
    tight.step_budget = Some(77);
    for cfg in [plain, tight] {
        sim.add_connection(cfg).unwrap();
    }
    let shared = program(&sim, 0);
    runs(&sim, 1, shared);
    let budgets: Vec<_> = (0..2).map(|c| sim.connections[c].step_budget()).collect();
    assert_eq!(budgets, [Some(shared.certified_step_bound()), Some(77)]);
}

/// The forgery hook copies a program and replaces its certificate, and
/// nothing else: the source program, and the table's entry for its
/// source text, stay honest.
#[test]
fn a_forged_certificate_is_a_program_of_its_own() {
    let mut sim = Sim::new(3);
    let spec = || SchedulerSpec::dsl(REGISTER_GATED);
    sim.add_connection(ConnectionConfig::new(paths(1), spec()))
        .unwrap();
    let honest = program(&sim, 0).clone();
    let stolen = certificate_of(MIN_RTT);
    assert_ne!(honest.property_certificate(), &stolen);

    let forged = honest.with_property_certificate(stolen.clone());
    assert!(!forged.ptr_eq(&honest));
    assert_eq!(forged.bytecode(), honest.bytecode());
    assert_eq!(forged.certified_step_bound(), honest.certified_step_bound());
    assert_eq!(forged.property_certificate(), &stolen);
    assert_eq!(
        honest.property_certificate(),
        &certificate_of(REGISTER_GATED),
        "the source's own certificate is untouched"
    );

    let bound = SchedulerSpec::program(&forged, Backend::Vm);
    for scheduler in [bound, spec()] {
        sim.add_connection(ConnectionConfig::new(paths(1), scheduler))
            .unwrap();
    }
    runs(&sim, 1, &forged);
    runs(&sim, 2, &honest);
}

#[test]
fn a_budget_equal_to_the_blanket_default_is_honoured() {
    let mut cfg = ConnectionConfig::new(paths(1), SchedulerSpec::dsl(MIN_RTT));
    cfg.step_budget = Some(progmp_core::DEFAULT_STEP_BUDGET);
    let mut sim = Sim::new(3);
    sim.add_connection(cfg).unwrap();
    assert_ne!(program(&sim, 0).certified_step_bound(), 1_000_000);
    assert_eq!(sim.connections[0].step_budget(), Some(1_000_000));
}

/// `Q.COUNT` scans the whole send queue, so a 1 MB send is hundreds of
/// packets to count on every execution: the certified bound charges the
/// scan, and the connection runs under it without a single error.
#[test]
fn a_count_gated_scheduler_delivers_a_full_send_queue() {
    const COUNT_GATED: &str = "IF (Q.COUNT > 0 AND !SUBFLOWS.EMPTY) {
                                   SUBFLOWS.MIN(s => s.RTT).PUSH(Q.POP());
                               }";
    let mut sim = Sim::new(3);
    let spec = SchedulerSpec::dsl_on(COUNT_GATED, Backend::Vm);
    let conn = sim
        .add_connection(ConnectionConfig::new(paths(2), spec))
        .unwrap();
    sim.app_send_at(conn, 0, 1_000_000, 0);
    sim.run_to_completion(60 * SECONDS);
    let c = &sim.connections[conn];
    assert_eq!(c.stats.scheduler_errors, 0);
    assert_eq!(c.stats.delivered_bytes, 1_000_000);
    assert!(c.all_acked());
}

#[test]
fn connections_sharing_a_program_each_see_their_own_subflows() {
    let mut sim = Sim::new(3);
    for n in [1, 2] {
        let conn = sim
            .add_connection(ConnectionConfig::new(
                paths(n),
                SchedulerSpec::dsl(REDUNDANT),
            ))
            .unwrap();
        sim.app_send_at(conn, 0, 14_000, 0);
    }
    assert!(program(&sim, 0).ptr_eq(program(&sim, 1)));
    sim.run_to_completion(10 * SECONDS);
    for (conn, copies) in [(0, 1.0), (1, 2.0)] {
        let c = &sim.connections[conn];
        assert!(c.all_acked());
        assert!(
            (c.stats.overhead_ratio() - copies).abs() < 0.05,
            "connection {conn} sends every packet on each of its own subflows: {}",
            c.stats.overhead_ratio()
        );
    }
}

#[test]
fn readmission_restores_exactly_what_quarantine_parked() {
    // A stolen proved-work-conservation certificate makes the gated
    // program fault on its first execution; by re-admission the
    // application has opened the gate, so the original stays.
    let original = forged(REGISTER_GATED);
    let mut cfg = ConnectionConfig::new(paths(2), SchedulerSpec::program(&original, Backend::Vm));
    cfg.step_budget = Some(5_000);
    let mut sim = Sim::new(19);
    sim.enable_containment(ContainmentConfig::default());
    sim.enable_oracle("seed 19", true);
    sim.add_connection(cfg).unwrap();
    runs(&sim, 0, &original);
    assert!(!sim.connections[0].pops_rq());

    sim.app_send_at(0, 0, 50_000, 0);
    sim.set_register_at(0, from_millis(100), RegId::R1, 1);
    sim.app_send_at(0, SECONDS, 50_000, 0);

    sim.run_until(from_millis(150));
    assert_eq!(
        sim.connections[0].contain_state(),
        ContainState::Quarantined
    );
    runs(&sim, 0, &fallback_program());
    assert_eq!(
        sim.connections[0].step_budget(),
        Some(fallback_program().certified_step_bound())
    );
    assert!(sim.connections[0].pops_rq());

    // Re-admission falls between the two sends.
    sim.run_until(SECONDS - 1);
    assert_eq!(sim.connections[0].contain_state(), ContainState::Probation);
    let before_second_send = sim.connections[0].stats.scheduler_executions;

    sim.run_to_completion(60 * SECONDS);
    assert!(sim.connections[0].all_acked());
    assert_eq!(sim.connections[0].contain_state(), ContainState::Probation);
    let actions: Vec<ContainAction> = sim.incidents().iter().map(|i| i.action).collect();
    assert_eq!(
        actions,
        [ContainAction::Quarantined, ContainAction::Readmitted]
    );
    runs(&sim, 0, &original);
    assert_eq!(sim.connections[0].step_budget(), Some(5_000));
    assert!(!sim.connections[0].pops_rq());
    assert!(
        sim.connections[0].stats.scheduler_executions > before_second_send,
        "the parked scheduler came back and ran the second send"
    );
}
