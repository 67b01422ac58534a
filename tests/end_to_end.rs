//! Cross-crate integration tests: the application API, the compiled
//! scheduler programs, the MPTCP simulator, and the HTTP/2 page model
//! working together end to end.

use progmp::prelude::*;

fn two_path_cfg(scheduler: SchedulerSpec) -> ConnectionConfig {
    ConnectionConfig::new(
        vec![
            SubflowConfig::new(PathConfig::symmetric(from_millis(10), 1_250_000)),
            SubflowConfig::new(PathConfig::symmetric(from_millis(40), 1_250_000)).with_cost(1),
        ],
        scheduler,
    )
    .with_timelines()
}

#[test]
fn application_defined_scheduler_end_to_end() {
    // An application-defined scheduler written from scratch: strict
    // primary/secondary failover on a latency threshold.
    let custom = "
        VAR rqSkb = RQ.TOP;
        VAR avail = SUBFLOWS.FILTER(sbf => !sbf.TSQ_THROTTLED AND !sbf.LOSSY
            AND sbf.CWND > sbf.SKBS_IN_FLIGHT + sbf.QUEUED);
        IF (rqSkb != NULL) {
            VAR r = avail.MIN(sbf => sbf.RTT);
            IF (r != NULL) { r.PUSH(RQ.POP()); RETURN; }
        }
        IF (!Q.EMPTY) {
            VAR primary = avail.FILTER(sbf => sbf.RTT < 25000).MIN(sbf => sbf.RTT);
            IF (primary != NULL) { primary.PUSH(Q.POP()); RETURN; }
            /* wait for the primary unless no sub-25ms subflow exists */
            IF (SUBFLOWS.FILTER(sbf => sbf.RTT < 25000).EMPTY) {
                VAR secondary = avail.MIN(sbf => sbf.RTT);
                IF (secondary != NULL) { secondary.PUSH(Q.POP()); }
            }
        }";

    let mut api = ProgMp::new();
    api.load_scheduler("failover", custom).expect("compiles");
    let mut sim = Sim::new(3);
    let conn = sim
        .add_connection(two_path_cfg(SchedulerSpec::dsl(custom)))
        .unwrap();
    api.set_scheduler(&mut sim, conn, "failover", Backend::Vm)
        .unwrap();
    sim.app_send_at(conn, 0, 300_000, 0);
    sim.run_to_completion(30 * SECONDS);
    let c = &sim.connections[conn];
    assert!(c.all_acked());
    assert_eq!(
        c.stats.subflows[1].tx_packets, 0,
        "strict failover never touches the secondary while the primary lives"
    );
    let stats = api.scheduler_stats(&sim, conn).unwrap();
    assert!(stats.executions > 100 && stats.steps > stats.executions);
    assert_eq!((stats.drops, stats.errors), (0, 0));
}

#[test]
fn all_backends_produce_identical_simulations() {
    // Full-stack determinism: the same seed and scheduler on all three
    // backends yields bit-identical simulation outcomes.
    let mut outcomes = Vec::new();
    for backend in Backend::ALL {
        let mut sim = Sim::new(99);
        let conn = sim
            .add_connection(two_path_cfg(SchedulerSpec::dsl_on(
                schedulers::DEFAULT_MIN_RTT,
                backend,
            )))
            .unwrap();
        sim.app_send_at(conn, 0, 200_000, 0);
        sim.run_to_completion(30 * SECONDS);
        let c = &sim.connections[conn];
        outcomes.push((
            c.stats.tx_packets,
            c.stats.subflows[0].tx_packets,
            c.stats.subflows[1].tx_packets,
            c.stats.delivered_bytes,
            sim.events_processed,
        ));
    }
    assert_eq!(outcomes[0], outcomes[1], "interpreter vs aot");
    assert_eq!(outcomes[0], outcomes[2], "interpreter vs vm");
}

#[test]
fn per_connection_scheduler_choice() {
    // Two concurrent connections with different schedulers over the same
    // simulator — the multi-tenancy isolation story of the paper.
    let mut sim = Sim::new(5);
    let bulk = sim
        .add_connection(two_path_cfg(SchedulerSpec::dsl(
            schedulers::DEFAULT_MIN_RTT,
        )))
        .unwrap();
    let latency = sim
        .add_connection(two_path_cfg(SchedulerSpec::dsl(schedulers::REDUNDANT)))
        .unwrap();
    sim.app_send_at(bulk, 0, 150_000, 0);
    sim.app_send_at(latency, 0, 15_000, 0);
    sim.run_to_completion(30 * SECONDS);
    assert!(sim.connections[bulk].all_acked());
    assert!(sim.connections[latency].all_acked());
    assert!(
        sim.connections[latency].stats.overhead_ratio() > 1.5,
        "redundant connection duplicated its traffic"
    );
    assert!(
        sim.connections[bulk].stats.overhead_ratio() < 1.1,
        "default connection stayed single-copy"
    );
}

#[test]
fn register_signalling_changes_behavior_mid_stream() {
    // The §3.2 story: no scheduler switching, just registers.
    let mut sim = Sim::new(8);
    let conn = sim
        .add_connection(two_path_cfg(SchedulerSpec::dsl(schedulers::COMPENSATING)))
        .unwrap();
    sim.app_send_at(conn, 0, 20 * 1400, 0);
    // Signal flow end shortly after enqueueing: the scheduler switches
    // into compensation mode without being replaced.
    sim.set_register_at(conn, from_millis(1), RegId::R2, 1);
    sim.run_to_completion(30 * SECONDS);
    let c = &sim.connections[conn];
    assert!(c.all_acked());
    assert!(
        c.stats.overhead_ratio() > 1.2,
        "compensation duplicated tail packets: {}",
        c.stats.overhead_ratio()
    );
}

#[test]
fn http2_page_load_through_facade() {
    let page = Page::amazon_like();
    let result = run_page_load(
        &page,
        &WifiLteProfile::default(),
        schedulers::HTTP2_AWARE,
        ServerMode::Aware,
        17,
    )
    .unwrap();
    assert!(result.dependency_resolved < SECONDS);
    assert!(result.initial_page_time >= result.dependency_resolved);
    assert!(result.wifi_bytes > result.lte_bytes);
}

#[test]
fn packet_properties_flow_from_api_to_scheduler() {
    // Per-packet intents: property-1 packets must go out on the fast
    // subflow only (http2Aware head-data rule).
    let api = ProgMp::new();
    let mut sim = Sim::new(2);
    let conn = sim
        .add_connection(two_path_cfg(SchedulerSpec::dsl(schedulers::HTTP2_AWARE)))
        .unwrap();
    api.send_with_property(&mut sim, conn, 0, 10 * 1400, 1)
        .unwrap();
    sim.run_to_completion(10 * SECONDS);
    let c = &sim.connections[conn];
    assert!(c.all_acked());
    assert_eq!(
        c.stats.subflows[1].tx_packets, 0,
        "head data never touches the 4x-RTT subflow"
    );
}

#[test]
fn subflow_churn_mid_transfer_is_safe() {
    // Teardown + re-establishment while data is flowing: the "stale
    // subflow reference" scenario that crashes naive kernel schedulers.
    let mut sim = Sim::new(21);
    let conn = sim
        .add_connection(two_path_cfg(SchedulerSpec::dsl(
            schedulers::DEFAULT_MIN_RTT,
        )))
        .unwrap();
    sim.add_bulk_source(conn, 400_000, 0);
    for k in 0..4 {
        sim.subflow_down_at(conn, 0, (2 * k + 1) * 200 * MILLIS);
        sim.subflow_up_at(conn, 0, (2 * k + 2) * 200 * MILLIS);
    }
    sim.run_to_completion(60 * SECONDS);
    let c = &sim.connections[conn];
    assert!(c.all_acked(), "transfer survives repeated subflow churn");
    assert_eq!(c.stats.delivered_bytes, 400_000);
}

#[test]
fn step_budget_violation_is_contained() {
    // A pathological scheduler with a huge scan over a huge queue and a
    // tiny budget: the error is contained, the connection survives, and
    // the transfer still completes thanks to later executions.
    let mut sim = Sim::new(4);
    let mut cfg = two_path_cfg(SchedulerSpec::dsl(schedulers::DEFAULT_MIN_RTT));
    cfg.step_budget = Some(10_000);
    let conn = sim.add_connection(cfg).unwrap();
    sim.app_send_at(conn, 0, 100_000, 0);
    sim.run_to_completion(30 * SECONDS);
    assert!(sim.connections[conn].all_acked());
}

#[test]
fn automated_handover_via_path_manager() {
    use progmp::mptcp_sim::{PathManager, PathManagerPolicy, PathProfileEntry};
    // WiFi degrades at t=1s (loss ramps up); the path manager detects the
    // loss burst, establishes the standby LTE subflow, and signals R3 so
    // the handover-aware scheduler compensates — no manual orchestration.
    let mut sim = Sim::new(33);
    let wifi =
        PathConfig::symmetric(from_millis(15), 1_250_000).with_profile_entry(PathProfileEntry {
            at: SECONDS,
            rate: None,
            loss: Some(0.5),
            fwd_delay: None,
        });
    let cfg = ConnectionConfig::new(
        vec![
            SubflowConfig::new(wifi),
            // Standby subflow: configured but not established at start.
            SubflowConfig::new(PathConfig::symmetric(from_millis(45), 1_250_000))
                .starting_at(u64::MAX), // never auto-established
        ],
        SchedulerSpec::dsl(schedulers::HANDOVER_AWARE),
    )
    .with_timelines();
    let conn = sim.add_connection(cfg).unwrap();
    sim.attach_path_manager(
        conn,
        PathManager::new(
            PathManagerPolicy::Handover {
                primary: 0,
                standby: 1,
                rtt_threshold: from_millis(500),
                loss_delta_threshold: 2,
                recovery_ticks: 3,
            },
            50 * MILLIS,
        ),
    );
    sim.add_cbr_source(conn, 0, 3 * SECONDS, 300_000, from_millis(20), 0);
    sim.run_to_completion(60 * SECONDS);
    let c = &sim.connections[conn];
    assert!(c.all_acked(), "stream survives the automated handover");
    assert!(
        c.stats.subflows[1].tx_packets > 0,
        "the path manager established and used the standby subflow"
    );
    assert!(
        c.subflows[1].established,
        "standby remains established after the handover"
    );
}

#[test]
fn fifty_connection_multi_tenancy_stress() {
    // The multi-tenancy claim at scale: 50 concurrent connections with a
    // mix of schedulers and backends in one simulation, all isolated.
    let mut sim = Sim::new(77);
    let names = progmp_schedulers::names();
    let mut conns = Vec::new();
    for i in 0..50usize {
        let name = names[i % names.len()];
        let source = progmp_schedulers::source(name).unwrap();
        let backend = Backend::ALL[i % 3];
        let conn = sim
            .add_connection(
                ConnectionConfig::new(
                    vec![
                        SubflowConfig::new(PathConfig::symmetric(
                            from_millis(10 + (i as u64 % 5) * 7),
                            1_250_000,
                        )),
                        SubflowConfig::new(PathConfig::symmetric(
                            from_millis(30 + (i as u64 % 3) * 11),
                            1_250_000,
                        ))
                        .with_cost(1),
                    ],
                    SchedulerSpec::dsl_on(source, backend),
                )
                .with_timelines(),
            )
            .unwrap();
        // Generic intents so preference/deadline schedulers have inputs.
        sim.set_register_at(conn, 0, RegId::R1, 4_000_000);
        sim.app_send_at(conn, (i as u64) * MILLIS, 30_000, 2);
        sim.set_register_at(conn, (i as u64) * MILLIS + 1, RegId::R2, 1);
        conns.push(conn);
    }
    sim.run_to_completion(120 * SECONDS);
    for conn in conns {
        assert!(
            sim.connections[conn].all_acked(),
            "connection {conn} ({:?}) did not finish",
            sim.connections[conn].stats.delivered_bytes
        );
    }
}

#[test]
fn every_scheduler_on_every_backend_delivers() {
    // The full cross product: 18 schedulers x 3 backends, each driving a
    // small two-path transfer end to end with intents signaled.
    for (name, source) in progmp_schedulers::sources::ALL {
        for backend in Backend::ALL {
            let mut sim = Sim::new(1);
            let conn = sim
                .add_connection(two_path_cfg(SchedulerSpec::dsl_on(*source, backend)))
                .unwrap();
            sim.set_register_at(conn, 0, RegId::R1, 4_000_000);
            sim.app_send_at(conn, 0, 20_000, 2);
            sim.set_register_at(conn, 1, RegId::R2, 1);
            sim.set_register_at(conn, 2, RegId::R3, 1);
            sim.run_to_completion(60 * SECONDS);
            assert!(
                sim.connections[conn].all_acked(),
                "{name} on {} failed to deliver",
                backend.name()
            );
        }
    }
}
