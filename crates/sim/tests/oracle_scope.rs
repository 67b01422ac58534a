//! What the invariant oracle checks when: the connection an event
//! touched after that event, every connection whenever a run call
//! stops. Pins the cost (a count of checks, not a timing), that nothing
//! a caller does between run calls escapes, and that a violating
//! connection's reports do not depend on its neighbours.

use mptcp_sim::time::{from_millis, SimTime, SECONDS};
use mptcp_sim::{ConnectionConfig, PathConfig, SchedulerSpec, Sim, SubflowConfig};

fn cfg(scheduler: &str) -> ConnectionConfig {
    let source = progmp_schedulers::source(scheduler).expect("known scheduler");
    ConnectionConfig::new(
        [10, 40]
            .iter()
            .map(|ms| SubflowConfig::new(PathConfig::symmetric(from_millis(*ms), 1_250_000)))
            .collect(),
        SchedulerSpec::dsl(source),
    )
}

/// One check per event plus one per connection each time a run call
/// stops: the per-event cost does not grow with the connection count.
#[test]
fn checks_are_one_per_event_plus_one_sweep_per_run_call() {
    const N: u64 = 8;
    let mut sim = Sim::new(11);
    sim.enable_oracle("oracle-scope-count", true);
    for i in 0..N {
        let conn = sim.add_connection(cfg("default")).unwrap();
        sim.add_bulk_source(conn, 40_000 + i * 1_400, 0);
    }
    sim.run_until(from_millis(30));
    sim.run_until(from_millis(90));
    sim.run_to_completion(60 * SECONDS);
    assert!(sim.connections.iter().all(|c| c.all_acked()));
    assert!(sim.events_processed > 100 * N, "a real run, not a stub");
    let events = sim.events_processed;
    let checks = sim.oracle_mut().expect("armed").checks_run();
    assert_eq!(checks, events + N * 3);
}

/// State corrupted through the public `sim.connections` between two run
/// calls is reported by the sweep at the end of the next call, even
/// though no event names that connection any more.
#[test]
fn stop_time_sweep_reports_out_of_band_corruption() {
    let mut sim = Sim::new(5);
    sim.enable_oracle("oracle-scope-oob", false);
    let done = sim.add_connection(cfg("default")).unwrap();
    let busy = sim.add_connection(cfg("default")).unwrap();
    sim.app_send_at(done, 0, 14_000, 0);
    sim.add_cbr_source(busy, 0, 50 * SECONDS, 20_000, from_millis(100), 0);
    let (first_stop, second_stop): (SimTime, SimTime) = (30 * SECONDS, 40 * SECONDS);
    sim.run_until(first_stop);
    assert!(sim.connections[done].all_acked());
    assert!(sim.oracle_violations().is_empty());

    sim.connections[done].receiver.delivered_total += 1;
    let before = sim.events_processed;
    sim.run_until(second_stop);
    assert!(
        sim.events_processed > before,
        "the neighbour kept the event loop busy"
    );
    let violations = sim.oracle_violations();
    assert!(
        violations
            .iter()
            .any(|v| v.invariant == "conservation-delivery"),
        "{violations:?}"
    );
    for v in violations {
        assert_eq!(v.conn, done, "{v}");
        assert_eq!(
            v.at, second_stop,
            "found by the sweep, not by an event: {v}"
        );
    }

    // With nothing left in the queue at all, the sweep is the only check.
    sim.run_to_completion(120 * SECONDS);
    let reported = sim.oracle_violations().len();
    sim.run_until(200 * SECONDS);
    assert!(sim.oracle_violations().len() > reported);
}

/// A defective connection yields the same reports alone and beside seven
/// clean neighbours sharing its simulator (and so at any worker count).
#[test]
fn reports_do_not_depend_on_neighbours() {
    let run = |neighbours: usize| {
        let mut sim = Sim::new(3);
        sim.enable_oracle("oracle-scope-neighbours", false);
        let bad = sim.add_connection(cfg("redundant")).unwrap();
        sim.connections[bad].receiver.inject_double_delivery_bug();
        sim.app_send_at(bad, 0, 50_000, 0);
        for _ in 0..neighbours {
            let conn = sim.add_connection(cfg("default")).unwrap();
            sim.add_bulk_source(conn, 80_000, 0);
        }
        sim.run_until(60 * SECONDS);
        let oracle = sim.oracle_mut().expect("armed");
        let total = oracle.violations.len() as u64 + oracle.dropped_violations;
        let reports: Vec<(&'static str, SimTime, String)> = oracle
            .violations
            .iter()
            .map(|v| {
                assert_eq!(v.conn, bad, "{v}");
                (v.invariant, v.at, v.detail.clone())
            })
            .collect();
        (total, reports)
    };
    let alone = run(0);
    assert!(alone.0 > 0, "the defect fires");
    assert_eq!(alone, run(7));
}
