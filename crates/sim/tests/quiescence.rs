//! Skipping the rounds a program's quiescence guard certifies changes
//! nothing the network sees.
//!
//! For each of the 18 shipped programs *P* the reference is *P′*:
//! `IF (R6 == -1) { SET(R6, -1); }` followed by *P*. It goes first
//! because several programs `RETURN` early, which would make a statement
//! after them unreachable when `Q` is empty. No shipped program writes
//! `R6`, which starts at 0, so the `SET` never runs; but it is reachable
//! whatever the queues and windows hold, so *P′* certifies no atom and
//! the simulator runs every one of its rounds.
//! Both run the same transfer in three scenarios, and everything
//! [`ConnStats::snapshot_text`] records must agree; it holds behaviour
//! only, so the execution and step counters that *P*'s skipped rounds
//! move are not in it.
//!
//! [`ConnStats::snapshot_text`]: mptcp_sim::stats::ConnStats::snapshot_text

use mptcp_sim::time::{from_millis, SECONDS};
use mptcp_sim::{
    ConnectionConfig, ContainmentConfig, FaultPlan, PathConfig, SchedulerSpec, Sim, SubflowConfig,
};
use progmp_core::env::RegId;
use progmp_core::Quiescence;

const SEED: u64 = 0x0071E7;
const HORIZON: u64 = 120 * SECONDS;
const BYTES: u64 = 1_000_000;

/// The reference program: a reachable, never-taken `SET`, then `source`.
fn reference(source: &str) -> String {
    format!("IF (R6 == -1) {{ SET(R6, -1); }}\n{source}")
}

#[derive(Clone, Copy, Debug)]
enum Scenario {
    /// Two clean paths.
    Clean,
    /// 1 % and 2 % loss, a generated fault plan, containment.
    Lossy,
    /// Two clean paths with the oracle collecting violations.
    Oracle,
}

/// What one run left behind: the stats snapshot without its effort
/// lines, the execution counter, the oracle's violations and the
/// supervisor's incidents.
struct Outcome {
    behaviour: String,
    executions: u64,
    violations: Vec<String>,
    incidents: Vec<String>,
}

fn run(name: &str, source: &str, scenario: Scenario) -> Outcome {
    let loss = |p: f64| match scenario {
        Scenario::Lossy => p,
        Scenario::Clean | Scenario::Oracle => 0.0,
    };
    let subflows = [(10, 0.01), (40, 0.02)]
        .iter()
        .map(|&(ms, p)| {
            SubflowConfig::new(PathConfig::symmetric(from_millis(ms), 1_250_000).with_loss(loss(p)))
        })
        .collect();
    let cfg = ConnectionConfig::new(subflows, SchedulerSpec::dsl(source));
    let mut sim = Sim::new(SEED);
    let conn = sim.add_connection(cfg).expect("shipped schedulers compile");
    match scenario {
        Scenario::Clean => {}
        Scenario::Lossy => {
            sim.enable_containment(ContainmentConfig);
            sim.apply_fault_plan(conn, &FaultPlan::generate(SEED, 2, 10 * SECONDS));
        }
        Scenario::Oracle => sim.enable_oracle(format!("{name} {scenario:?}"), false),
    }
    match name {
        "tap" => sim.set_register_at(conn, 0, RegId::R1, 1_000_000),
        "targetRtt" | "targetRttProbing" => sim.set_register_at(conn, 0, RegId::R1, 60_000),
        _ => {}
    }
    sim.add_bulk_source(conn, BYTES, 0);
    sim.run_to_completion(HORIZON);
    let stats = &sim.connections[conn].stats;
    let behaviour = stats.snapshot_text();
    Outcome {
        behaviour,
        executions: stats.scheduler_executions,
        violations: sim
            .oracle_violations()
            .iter()
            .map(|v| v.to_string())
            .collect(),
        incidents: sim.incidents().iter().map(|i| i.to_string()).collect(),
    }
}

#[test]
fn the_reference_programs_certify_no_atom() {
    for (name, source) in progmp_schedulers::sources::ALL {
        let p = progmp_core::compile(source).unwrap();
        assert!(
            !p.analyze().registers_written.contains(&6),
            "{name} writes R6, so it cannot serve as its own reference"
        );
        let reference = progmp_core::compile(&reference(source)).unwrap();
        assert_eq!(reference.quiescence(), Quiescence::NEVER, "{name}");
    }
}

#[test]
fn the_paper_schedulers_certify_the_expected_guards() {
    let expected = [
        ("minRttSimple", "Q,RQ empty"),
        ("default", "Q,RQ empty | no subflow available"),
        ("roundRobin", "never"),
        ("redundant", "Q,RQ,QU empty"),
        (
            "opportunisticRedundant",
            "Q,RQ empty | no subflow available",
        ),
        ("tap", "Q,RQ empty | no subflow available"),
        ("targetRtt", "Q,RQ empty | no subflow available"),
    ];
    for (name, guard) in expected {
        let p = progmp_core::compile(progmp_schedulers::source(name).unwrap()).unwrap();
        assert_eq!(p.quiescence().render(), guard, "{name}");
    }
}

/// One scenario over all 18 programs: the same behaviour, no more
/// executions than the reference, and strictly fewer for every paper
/// program with a guard.
fn check(scenario: Scenario) {
    for (name, source) in progmp_schedulers::sources::ALL {
        let guarded = progmp_core::compile(source).unwrap().quiescence() != Quiescence::NEVER;
        let p = run(name, source, scenario);
        let r = run(name, &reference(source), scenario);
        assert_eq!(p.behaviour, r.behaviour, "{name}, {scenario:?}");
        assert_eq!(p.violations, r.violations, "{name}, {scenario:?}");
        assert_eq!(p.incidents, r.incidents, "{name}, {scenario:?}");
        assert!(p.executions <= r.executions, "{name}, {scenario:?}");
        if guarded && progmp_schedulers::PAPER.contains(name) {
            assert!(
                p.executions < r.executions,
                "{name}, {scenario:?}: {} executions, the reference {}",
                p.executions,
                r.executions
            );
        }
    }
}

#[test]
fn skipping_changes_nothing_on_clean_paths() {
    check(Scenario::Clean);
}

#[test]
fn skipping_changes_nothing_under_loss_faults_and_containment() {
    check(Scenario::Lossy);
}

#[test]
fn skipping_changes_nothing_the_oracle_sees() {
    check(Scenario::Oracle);
}

#[test]
fn a_budget_below_the_bound_still_faults_on_every_trigger() {
    // Register writes on an idle connection trigger rounds where every
    // guarded program's guard holds. Under seven steps each of those
    // rounds faults, so a skip would show up as fewer errors than the
    // reference, which skips nothing.
    let errors = |source: &str| {
        let subflows = [10, 40]
            .iter()
            .map(|&ms| SubflowConfig::new(PathConfig::symmetric(from_millis(ms), 1_250_000)))
            .collect();
        let mut cfg = ConnectionConfig::new(subflows, SchedulerSpec::dsl(source));
        cfg.step_budget = Some(7);
        let mut sim = Sim::new(SEED);
        let conn = sim.add_connection(cfg).unwrap();
        for k in 1..=5 {
            sim.set_register_at(conn, from_millis(k), RegId::new(7).unwrap(), k as i64);
        }
        sim.run_to_completion(HORIZON);
        sim.connections[conn].stats.scheduler_errors
    };
    for name in progmp_schedulers::PAPER {
        let source = progmp_schedulers::source(name).unwrap();
        let got = errors(source);
        assert!(got >= 5, "{name}: {got} errors");
        assert_eq!(got, errors(&reference(source)), "{name}");
    }
}
