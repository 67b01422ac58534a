//! Property tests for the simulator's end-to-end invariants: whatever the
//! paths, losses, and scheduler do, the transport must deliver exactly
//! the enqueued byte stream, in order, without inventing or losing data.

use mptcp_sim::time::{from_millis, SECONDS};
use mptcp_sim::{
    CcAlgo, ConnectionConfig, PathConfig, ReceiverMode, SchedulerSpec, Sim, SubflowConfig,
};
use proptest::prelude::*;

const SCHEDULERS: [&str; 5] = [
    "default",
    "roundRobin",
    "redundant",
    "redundantIfNoQ",
    "opportunisticRedundant",
];

#[derive(Debug, Clone)]
struct Scenario {
    seed: u64,
    scheduler: &'static str,
    rtts_ms: Vec<u64>,
    loss: f64,
    rate: u64,
    flow_bytes: u64,
    coupled: bool,
    legacy_receiver: bool,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        any::<u64>(),
        0..SCHEDULERS.len(),
        proptest::collection::vec(5u64..80, 1..4),
        0.0f64..0.08,
        prop_oneof![Just(250_000u64), Just(1_250_000), Just(5_000_000)],
        1_400u64..200_000,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(seed, sched, rtts_ms, loss, rate, flow_bytes, coupled, legacy_receiver)| Scenario {
                seed,
                scheduler: SCHEDULERS[sched],
                rtts_ms,
                loss,
                rate,
                flow_bytes,
                coupled,
                legacy_receiver,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exactly the enqueued bytes are delivered, in order, for any path
    /// mix, loss rate, congestion control, receiver mode, and scheduler.
    #[test]
    fn transfers_are_exact_and_complete(sc in scenario()) {
        let mut sim = Sim::new(sc.seed);
        let subflows = sc
            .rtts_ms
            .iter()
            .map(|ms| {
                SubflowConfig::new(
                    PathConfig::symmetric(from_millis(*ms), sc.rate).with_loss(sc.loss),
                )
            })
            .collect();
        let source = progmp_schedulers::source(sc.scheduler).unwrap();
        let mut cfg = ConnectionConfig::new(subflows, SchedulerSpec::dsl(source));
        if sc.coupled {
            cfg = cfg.with_cc(CcAlgo::Lia);
        }
        if sc.legacy_receiver {
            cfg = cfg.with_receiver_mode(ReceiverMode::Legacy);
        }
        let conn = sim.add_connection(cfg).expect("compiles");
        sim.app_send_at(conn, 0, sc.flow_bytes, 0);
        sim.run_to_completion(600 * SECONDS);

        let c = &sim.connections[conn];
        // Deliver exactly once, completely, in order.
        prop_assert!(
            c.all_acked(),
            "{:?}: transfer did not complete (delivered {} of {})",
            sc, c.stats.delivered_bytes, sc.flow_bytes
        );
        prop_assert_eq!(c.stats.delivered_bytes, sc.flow_bytes, "{:?}", sc.clone());
        prop_assert_eq!(c.receiver.delivered_total, sc.flow_bytes, "{:?}", sc.clone());
        // Conservation: unique payload never exceeds total transmitted,
        // and everything enqueued was transmitted at least once.
        prop_assert!(c.stats.unique_tx_bytes <= c.stats.tx_bytes);
        prop_assert!(c.stats.unique_tx_bytes >= sc.flow_bytes);
        prop_assert_eq!(c.stats.enqueued_bytes, sc.flow_bytes, "{:?}", sc.clone());
    }

    /// Congestion windows stay within sane bounds under any loss pattern.
    #[test]
    fn cwnd_bounds_hold(seed in any::<u64>(), loss in 0.0f64..0.15) {
        let mut sim = Sim::new(seed);
        let cfg = ConnectionConfig::new(
            vec![SubflowConfig::new(
                PathConfig::symmetric(from_millis(20), 1_250_000).with_loss(loss),
            )],
            SchedulerSpec::dsl(progmp_schedulers::source("default").unwrap()),
        );
        let conn = sim.add_connection(cfg).unwrap();
        sim.app_send_at(conn, 0, 100_000, 0);
        sim.run_to_completion(120 * SECONDS);
        let c = &sim.connections[conn];
        prop_assert!(c.subflows[0].cc.cwnd >= 1, "cwnd never below 1");
        // With a ~20 KB BDP and cwnd validation, the window cannot run away.
        prop_assert!(c.subflows[0].cc.cwnd < 10_000, "cwnd runaway: {}", c.subflows[0].cc.cwnd);
    }

    /// Determinism: identical scenarios are bit-identical.
    #[test]
    fn simulation_is_deterministic(seed in any::<u64>()) {
        let run = || {
            let mut sim = Sim::new(seed);
            let cfg = ConnectionConfig::new(
                vec![
                    SubflowConfig::new(PathConfig::symmetric(from_millis(10), 1_250_000).with_loss(0.03)),
                    SubflowConfig::new(PathConfig::symmetric(from_millis(35), 1_250_000).with_loss(0.03)),
                ],
                SchedulerSpec::dsl(progmp_schedulers::source("default").unwrap()),
            );
            let conn = sim.add_connection(cfg).unwrap();
            sim.app_send_at(conn, 0, 60_000, 0);
            sim.run_to_completion(60 * SECONDS);
            let c = &sim.connections[conn];
            (
                c.stats.tx_packets,
                c.stats.subflows[0].wire_losses,
                c.stats.subflows[1].wire_losses,
                sim.events_processed,
            )
        };
        prop_assert_eq!(run(), run());
    }
}
