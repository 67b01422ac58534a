//! End-to-end tests for the deterministic fault-injection layer and the
//! runtime invariant oracle: per-path RNG stream isolation, fault-plan
//! determinism, and the oracle's ability to catch a real conservation
//! bug.

use mptcp_sim::time::{from_millis, SECONDS};
use mptcp_sim::{
    ConnectionConfig, FaultClause, FaultPlan, PathConfig, SchedulerSpec, Sim, SubflowConfig,
};

fn lossy_cfg(rtts_ms: &[u64], loss: f64, scheduler: &str) -> ConnectionConfig {
    ConnectionConfig::new(
        rtts_ms
            .iter()
            .map(|ms| {
                SubflowConfig::new(
                    PathConfig::symmetric(from_millis(*ms), 1_250_000).with_loss(loss),
                )
            })
            .collect(),
        SchedulerSpec::dsl(progmp_schedulers::source(scheduler).unwrap()),
    )
}

fn conn0_fingerprint(sim: &Sim) -> (String, u64, u64) {
    let c = &sim.connections[0];
    (
        c.stats.snapshot_text(),
        c.stats.reinjections,
        c.receiver.delivered_total,
    )
}

/// Satellite regression test for the RNG audit: loss/jitter draws come
/// from per-path streams keyed by `(sim seed, conn, sbf)`, so adding a
/// second (lossy, chattering) connection to the simulation must not
/// perturb the first connection's draws in any way. Before the audit a
/// single engine-level RNG made every connection's losses depend on the
/// global event interleaving.
#[test]
fn per_path_streams_isolate_connections_from_each_other() {
    let solo = {
        let mut sim = Sim::new(42);
        let conn = sim
            .add_connection(lossy_cfg(&[10, 40], 0.04, "default"))
            .unwrap();
        sim.app_send_at(conn, 0, 200_000, 0);
        sim.run_to_completion(300 * SECONDS);
        conn0_fingerprint(&sim)
    };
    let shared = {
        let mut sim = Sim::new(42);
        let conn = sim
            .add_connection(lossy_cfg(&[10, 40], 0.04, "default"))
            .unwrap();
        // A second connection whose own draws interleave with conn 0's
        // events throughout the run.
        let other = sim
            .add_connection(lossy_cfg(&[7, 23, 55], 0.08, "roundRobin"))
            .unwrap();
        sim.app_send_at(conn, 0, 200_000, 0);
        sim.add_bulk_source(other, 400_000, 0);
        sim.run_to_completion(300 * SECONDS);
        conn0_fingerprint(&sim)
    };
    assert_eq!(
        solo, shared,
        "conn 0 must be bit-identical with or without a neighbour"
    );
}

/// Fault clauses install themselves via scheduled events; because every
/// draw comes from the affected path's own stream, the order the clauses
/// are inserted into the plan (and hence into the event heap) is
/// immaterial to the resulting trace.
#[test]
fn permuted_fault_clause_insertion_order_is_immaterial() {
    let clauses = vec![
        FaultClause::Blackout {
            sbf: 0,
            from: from_millis(40),
            until: from_millis(400),
        },
        FaultClause::BurstLoss {
            sbf: 1,
            from: from_millis(10),
            until: from_millis(900),
            p_enter_bad: 40_000,
            p_exit_bad: 300_000,
            loss_bad: 600_000,
        },
        FaultClause::DelayJitter {
            sbf: 1,
            from: from_millis(0),
            until: from_millis(1_500),
            amplitude: from_millis(6),
        },
    ];
    let run = |order: Vec<FaultClause>| {
        let mut sim = Sim::new(9);
        sim.enable_oracle("chaos-permute", true);
        let conn = sim
            .add_connection(lossy_cfg(&[10, 40], 0.01, "default"))
            .unwrap();
        sim.add_bulk_source(conn, 300_000, 0);
        sim.apply_fault_plan(conn, &FaultPlan { clauses: order });
        sim.run_to_completion(300 * SECONDS);
        assert!(sim.oracle_violations().is_empty());
        conn0_fingerprint(&sim)
    };
    let forward = run(clauses.clone());
    let reversed = run(clauses.into_iter().rev().collect());
    assert_eq!(forward, reversed);
}

/// Generated fault plans are a pure function of the seed, and replaying
/// the same seed gives a bit-identical simulation — the replay workflow
/// the oracle's panic message points at.
#[test]
fn generated_plans_replay_bit_identically() {
    for seed in 0..8u64 {
        let plan = FaultPlan::generate(seed, 2, 2 * SECONDS);
        assert_eq!(
            plan.render(),
            FaultPlan::generate(seed, 2, 2 * SECONDS).render()
        );
        assert!(!plan.clauses.is_empty());
        let run = || {
            let mut sim = Sim::new(seed);
            sim.enable_oracle(format!("chaos-replay-{seed}"), true);
            let conn = sim
                .add_connection(lossy_cfg(&[10, 40], 0.02, "default"))
                .unwrap();
            sim.add_bulk_source(conn, 150_000, 0);
            sim.apply_fault_plan(conn, &plan);
            sim.run_to_completion(300 * SECONDS);
            assert!(
                sim.oracle_violations().is_empty(),
                "seed {seed}: {:?}",
                sim.oracle_violations()
            );
            conn0_fingerprint(&sim)
        };
        assert_eq!(run(), run(), "seed {seed} must replay identically");
    }
}

/// The oracle's reason to exist: a deliberately injected conservation
/// bug (duplicate segments re-counted as delivered) must be caught. The
/// redundant scheduler guarantees duplicate arrivals, so the bug fires
/// deterministically.
#[test]
fn oracle_catches_injected_double_delivery() {
    let mut sim = Sim::new(3);
    sim.enable_oracle("chaos-mutation", false);
    let conn = sim
        .add_connection(lossy_cfg(&[10, 40], 0.0, "redundant"))
        .unwrap();
    sim.connections[conn].receiver.inject_double_delivery_bug();
    sim.app_send_at(conn, 0, 50_000, 0);
    sim.run_to_completion(60 * SECONDS);
    let violations = sim.oracle_violations();
    assert!(
        violations
            .iter()
            .any(|v| v.invariant == "conservation-delivery"),
        "expected a conservation-delivery violation, got {violations:?}"
    );
}

/// The same defect on connection 5 of 8, every connection under its own
/// generated fault plan: the check that follows each event looks only at
/// the connection that event touched, and must still pin the violation
/// on the right one.
#[test]
fn oracle_catches_injected_double_delivery_among_neighbours() {
    const DEFECTIVE: usize = 5;
    let mut sim = Sim::new(3);
    sim.enable_oracle("chaos-mutation-fleet", false);
    for i in 0..8 {
        let scheduler = if i == DEFECTIVE {
            "redundant"
        } else {
            "default"
        };
        let conn = sim
            .add_connection(lossy_cfg(&[10, 40], 0.01, scheduler))
            .unwrap();
        sim.add_bulk_source(conn, 50_000, 0);
        sim.apply_fault_plan(conn, &FaultPlan::generate(i as u64, 2, 2 * SECONDS));
    }
    sim.connections[DEFECTIVE]
        .receiver
        .inject_double_delivery_bug();
    sim.run_to_completion(300 * SECONDS);
    let violations = sim.oracle_violations();
    assert!(
        violations
            .iter()
            .any(|v| v.invariant == "conservation-delivery" && v.conn == DEFECTIVE),
        "expected conservation-delivery on conn {DEFECTIVE}, got {violations:?}"
    );
    assert!(
        violations.iter().all(|v| v.conn == DEFECTIVE),
        "the clean neighbours stay clean: {violations:?}"
    );
}

/// Without the bug, the identical redundant scenario is clean — the
/// oracle does not cry wolf on legitimate duplicate suppression.
#[test]
fn oracle_is_silent_on_legitimate_redundant_duplicates() {
    let mut sim = Sim::new(3);
    sim.enable_oracle("chaos-clean", true);
    let conn = sim
        .add_connection(lossy_cfg(&[10, 40], 0.0, "redundant"))
        .unwrap();
    sim.app_send_at(conn, 0, 50_000, 0);
    sim.run_to_completion(60 * SECONDS);
    assert!(sim.oracle_violations().is_empty());
}
