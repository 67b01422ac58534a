//! One pinned run through every kind of engine event, with the invariant
//! oracle armed and containment on.
//!
//! A single connection gets a bulk source, an app send, a CBR stream,
//! register writes, explicit triggers, a path-profile entry, a fault plan
//! with all five clause kinds, explicit subflow teardowns and
//! re-establishments, a handover path manager, loss enough for
//! retransmission timeouts and tail-loss probes, and a scheduler that
//! traps once (quarantined, then re-admitted). The event count, the
//! stats digest (timelines included) and the incident log are pinned:
//! a change to how events are queued, dispatched or logged that moves
//! any push, or runs the scheduler at another point, moves them.

use mptcp_sim::fleet::fnv1a64;
use mptcp_sim::time::{from_millis, SECONDS};
use mptcp_sim::{
    ConnectionConfig, ContainmentConfig, FaultClause, FaultPlan, NativeTrapping, PathConfig,
    PathManager, PathManagerPolicy, PathProfileEntry, SchedulerSpec, Sim, SubflowConfig,
};
use progmp_core::env::{RegId, Trigger};

#[test]
fn a_run_through_every_event_kind_is_pinned() {
    let mut sim = Sim::new(26);
    sim.enable_oracle("seed 26 every event kind", true);
    sim.enable_containment(ContainmentConfig);
    let profile = PathProfileEntry {
        at: from_millis(700),
        rate: Some(2_500_000),
        loss: None,
        fwd_delay: None,
    };
    let primary = PathConfig::symmetric(from_millis(10), 1_250_000)
        .with_loss(0.02)
        .with_profile_entry(profile);
    let standby = PathConfig::symmetric(from_millis(40), 1_250_000);
    let cfg = ConnectionConfig::new(
        vec![
            SubflowConfig::new(primary),
            SubflowConfig::new(standby).starting_at(3 * SECONDS),
        ],
        SchedulerSpec::Native(Box::new(NativeTrapping::one_shot(40))),
    )
    .with_timelines();
    let conn = sim.add_connection(cfg).unwrap();

    // Application data: a backlog, one send, a CBR stream.
    sim.add_bulk_source(conn, 1_500_000, 0);
    sim.app_send_at(conn, from_millis(300), 20_000, 1);
    sim.add_cbr_source(
        conn,
        from_millis(500),
        from_millis(900),
        200_000,
        from_millis(50),
        2,
    );
    // Register writes and explicit scheduler triggers.
    sim.set_register_at(conn, from_millis(400), RegId::R1, 7);
    sim.set_register_at(conn, from_millis(1_000), RegId::R2, 3);
    sim.trigger_at(conn, from_millis(350), Trigger::Timer);
    sim.trigger_at(conn, from_millis(1_100), Trigger::Timer);
    // The primary torn down and re-established outside any fault plan.
    sim.subflow_down_at(conn, 0, from_millis(250));
    sim.subflow_up_at(conn, 0, from_millis(280));
    let plan = FaultPlan {
        clauses: vec![
            FaultClause::Blackout {
                sbf: 0,
                from: from_millis(600),
                until: from_millis(1_200),
            },
            FaultClause::BurstLoss {
                sbf: 1,
                from: from_millis(800),
                until: from_millis(1_500),
                p_enter_bad: 200_000,
                p_exit_bad: 300_000,
                loss_bad: 800_000,
            },
            FaultClause::DelayJitter {
                sbf: 1,
                from: from_millis(700),
                until: from_millis(1_400),
                amplitude: from_millis(5),
            },
            FaultClause::RwndStall {
                from: from_millis(400),
                until: from_millis(450),
            },
            FaultClause::Churn {
                sbf: 1,
                down_at: from_millis(1_600),
                up_at: from_millis(1_800),
            },
        ],
    };
    sim.apply_fault_plan(conn, &plan);
    // Brings the standby up long before its configured start.
    let handover = PathManagerPolicy::Handover {
        primary: 0,
        standby: 1,
        rtt_threshold: from_millis(60),
        loss_delta_threshold: 3,
        recovery_ticks: 3,
    };
    sim.attach_path_manager(conn, PathManager::new(handover, from_millis(100)));

    sim.run_to_completion(10 * SECONDS);

    let c = &sim.connections[conn];
    assert!(c.all_acked());
    assert!(sim.oracle_violations().is_empty());
    let timeouts: u64 = c.stats.subflows.iter().map(|s| s.timeouts).sum();
    assert!(timeouts > 0, "a retransmission timeout fired");
    assert_eq!(sim.events_processed, 8218);
    let digest = fnv1a64(c.stats.snapshot_text().as_bytes());
    assert_eq!(digest, 0xeca3_74be_ed7d_a732);
    let incidents: Vec<String> = sim.incidents().iter().map(|i| i.to_string()).collect();
    assert_eq!(
        incidents,
        [
            "conn 0 quarantined at t=17920000 (strike 1): trap in native-trapping: \
             deliberate trap on call 41 [seed=26 conn=0 class=backend-trap at=17920000]",
            "conn 0 readmitted at t=268797937 (strike 1): trap in native-trapping: \
             deliberate trap on call 41 [seed=26 conn=0 class=backend-trap at=268797937]",
        ]
    );
}
