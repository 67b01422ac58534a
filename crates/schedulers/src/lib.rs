//! # progmp-schedulers
//!
//! Every scheduler from the Middleware '17 ProgMP paper, expressed in the
//! scheduler specification language (see [`sources`]), plus helpers to
//! compile them and a registry for experiments.
//!
//! The crate demonstrates the paper's central claim: schedulers that take
//! hundreds of lines of fragile kernel C (the in-tree round robin alone
//! is 301 LOC) are 10–30 line declarative programs here, safe by
//! construction.
//!
//! ```
//! use mptcp_sim::time::{from_millis, SECONDS};
//! use mptcp_sim::{ConnectionConfig, PathConfig, SchedulerSpec, Sim, SubflowConfig};
//!
//! // Run the paper's TAP scheduler on a two-path connection.
//! let mut sim = Sim::new(7);
//! let conn = sim.add_connection(ConnectionConfig::new(
//!     vec![
//!         SubflowConfig::new(PathConfig::symmetric(from_millis(10), 2_000_000)),
//!         SubflowConfig::new(PathConfig::symmetric(from_millis(40), 2_000_000)).with_cost(1),
//!     ],
//!     SchedulerSpec::dsl(progmp_schedulers::TAP),
//! )).unwrap();
//! sim.set_register_at(conn, 0, progmp_core::env::RegId::R1, 1_000_000);
//! sim.app_send_at(conn, 0, 50_000, 0);
//! sim.run_to_completion(10 * SECONDS);
//! assert!(sim.connections[conn].all_acked());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod sources;

use progmp_core::{compile_named, Backend, CompileError, SchedulerInstance, SchedulerProgram};

pub use sources::*;

/// The seven schedulers of the paper's evaluation, in the order the
/// golden snapshots, the chaos tiers and the scale fleets assign them.
pub const PAPER: [&str; 7] = [
    "minRttSimple",
    "default",
    "roundRobin",
    "redundant",
    "opportunisticRedundant",
    "tap",
    "targetRtt",
];

/// The source text of the bundled scheduler called `name`.
pub fn source(name: &str) -> Option<&'static str> {
    sources::ALL
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, s)| *s)
}

/// Compiles the named scheduler from the registry.
///
/// # Errors
///
/// Returns the compile error of the scheduler source (never expected for
/// the bundled sources — covered by tests) or an unknown-name error.
pub fn load(name: &str) -> Result<SchedulerProgram, CompileError> {
    let source = source(name).ok_or_else(|| CompileError {
        stage: progmp_core::error::Stage::Sema,
        pos: progmp_core::error::Pos { line: 0, col: 0 },
        message: format!("unknown scheduler `{name}`"),
    })?;
    compile_named(Some(name), source)
}

/// Compiles and instantiates the named scheduler on `backend`.
pub fn instantiate(name: &str, backend: Backend) -> Result<SchedulerInstance, CompileError> {
    Ok(load(name)?.instantiate(backend))
}

/// Names of all bundled schedulers.
pub fn names() -> Vec<&'static str> {
    sources::ALL.iter().map(|(n, _)| *n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use progmp_core::env::{PacketProp, QueueKind, RegId, SubflowProp};
    use progmp_core::testenv::MockEnv;

    /// Every bundled scheduler compiles and verifies on every backend.
    #[test]
    fn all_schedulers_compile_on_all_backends() {
        for (name, _) in sources::ALL {
            let prog = load(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            for backend in Backend::ALL {
                let _ = prog.instantiate(backend);
            }
        }
    }

    #[test]
    fn unknown_scheduler_is_error() {
        assert!(load("doesNotExist").is_err());
    }

    fn wifi_lte_env() -> MockEnv {
        let mut env = MockEnv::new();
        env.add_subflow(0); // WiFi: fast, preferred
        env.set_subflow_prop(0, SubflowProp::Rtt, 10_000);
        env.set_subflow_prop(0, SubflowProp::Cwnd, 10);
        env.set_subflow_prop(0, SubflowProp::Mss, 1400);
        env.set_subflow_prop(0, SubflowProp::Bw, 2_000_000);
        env.add_subflow(1); // LTE: slow, non-preferred (COST > 0)
        env.set_subflow_prop(1, SubflowProp::Rtt, 40_000);
        env.set_subflow_prop(1, SubflowProp::Cwnd, 10);
        env.set_subflow_prop(1, SubflowProp::Cost, 1);
        env.set_subflow_prop(1, SubflowProp::Mss, 1400);
        env.set_subflow_prop(1, SubflowProp::Bw, 1_000_000);
        env
    }

    fn run(name: &str, env: &mut MockEnv) {
        let mut inst = instantiate(name, Backend::Vm).unwrap();
        inst.execute(env).unwrap();
    }

    fn run_rounds(name: &str, env: &mut MockEnv, rounds: usize) {
        let mut inst = instantiate(name, Backend::Vm).unwrap();
        for _ in 0..rounds {
            inst.execute(env).unwrap();
        }
    }

    #[test]
    fn default_prefers_min_rtt_and_skips_backup() {
        let mut env = wifi_lte_env();
        env.push_packet(QueueKind::SendQueue, 1, 0, 1400);
        run("default", &mut env);
        assert_eq!(env.transmissions.len(), 1);
        assert_eq!(env.transmissions[0].0 .0, 0);
    }

    #[test]
    fn default_falls_back_to_backup_when_alone() {
        let mut env = wifi_lte_env();
        env.remove_subflow(0);
        env.push_packet(QueueKind::SendQueue, 1, 0, 1400);
        run("default", &mut env);
        assert_eq!(env.transmissions[0].0 .0, 1, "backup used when only option");
    }

    #[test]
    fn default_reinjects_first_on_unsent_subflow() {
        let mut env = wifi_lte_env();
        env.push_packet(QueueKind::SendQueue, 1, 10, 1400);
        env.push_packet(QueueKind::Reinject, 2, 0, 1400);
        env.push_packet(QueueKind::Unacked, 2, 0, 1400);
        env.mark_sent_on(2, 0);
        run("default", &mut env);
        assert_eq!(env.transmissions[0].1 .0, 2, "reinjection first");
        assert_eq!(
            env.transmissions[0].0 .0, 1,
            "on the subflow that has not sent it"
        );
    }

    #[test]
    fn round_robin_cycles_and_skips_throttled() {
        let mut env = wifi_lte_env();
        for i in 0..4 {
            env.push_packet(QueueKind::SendQueue, 10 + i, i as i64, 1400);
        }
        run_rounds("roundRobin", &mut env, 2);
        assert_eq!(env.transmissions[0].0 .0, 0);
        assert_eq!(env.transmissions[1].0 .0, 1);
        // Throttle subflow 1: it must be skipped from the rotation.
        env.set_subflow_prop(1, SubflowProp::TsqThrottled, 1);
        run_rounds("roundRobin", &mut env, 2);
        assert!(env.transmissions[2..].iter().all(|t| t.0 .0 == 0));
    }

    #[test]
    fn redundant_catches_up_in_flight_packets() {
        let mut env = wifi_lte_env();
        // One packet already in flight on subflow 0 only.
        env.push_packet(QueueKind::Unacked, 5, 0, 1400);
        env.mark_sent_on(5, 0);
        env.push_packet(QueueKind::SendQueue, 6, 1, 1400);
        run("redundant", &mut env);
        // Subflow 0 has sent everything in QU -> takes fresh packet 6;
        // subflow 1 catches up on packet 5.
        let on0: Vec<u64> = env
            .transmissions
            .iter()
            .filter(|t| t.0 .0 == 0)
            .map(|t| t.1 .0)
            .collect();
        let on1: Vec<u64> = env
            .transmissions
            .iter()
            .filter(|t| t.0 .0 == 1)
            .map(|t| t.1 .0)
            .collect();
        assert_eq!(on0, vec![6]);
        assert_eq!(on1, vec![5]);
    }

    #[test]
    fn opportunistic_redundant_sends_on_all_free_subflows_once() {
        let mut env = wifi_lte_env();
        env.push_packet(QueueKind::SendQueue, 1, 0, 1400);
        run("opportunisticRedundant", &mut env);
        assert_eq!(env.transmissions.len(), 2, "both subflows get a copy");
        assert!(env.queue_contents(QueueKind::SendQueue).is_empty());
        // Exhaust one window: only the other sends.
        env.push_packet(QueueKind::SendQueue, 2, 1, 1400);
        env.set_subflow_prop(0, SubflowProp::SkbsInFlight, 10);
        run("opportunisticRedundant", &mut env);
        let last: Vec<_> = env.transmissions[2..].iter().map(|t| t.0 .0).collect();
        assert_eq!(last, vec![1], "no second chance for the blocked subflow");
    }

    #[test]
    fn redundant_if_no_q_prioritizes_fresh_data() {
        let mut env = wifi_lte_env();
        env.push_packet(QueueKind::Unacked, 5, 0, 1400);
        env.mark_sent_on(5, 0);
        env.push_packet(QueueKind::SendQueue, 6, 1, 1400);
        run("redundantIfNoQ", &mut env);
        assert_eq!(
            env.transmissions.len(),
            1,
            "fresh data only while Q non-empty"
        );
        assert_eq!(env.transmissions[0].1 .0, 6);
        // Q now empty: the next execution deploys redundancy from QU.
        run("redundantIfNoQ", &mut env);
        assert!(env.transmissions[1..]
            .iter()
            .any(|t| t.1 .0 == 5 && t.0 .0 == 1));
    }

    #[test]
    fn compensating_retransmits_in_flight_at_flow_end() {
        let mut env = wifi_lte_env();
        // Two packets in flight, one per subflow; flow end signaled.
        env.push_packet(QueueKind::Unacked, 5, 0, 1400);
        env.mark_sent_on(5, 0);
        env.push_packet(QueueKind::Unacked, 6, 1, 1400);
        env.mark_sent_on(6, 1);
        env.set_register(RegId::R2, 1);
        run_rounds("compensating", &mut env, 2);
        // Packet 5 compensated on subflow 1, packet 6 on subflow 0.
        assert!(env.transmissions.contains(&(
            progmp_core::env::SubflowId(1),
            progmp_core::env::PacketRef(5)
        )));
        assert!(env.transmissions.contains(&(
            progmp_core::env::SubflowId(0),
            progmp_core::env::PacketRef(6)
        )));
    }

    #[test]
    fn compensating_is_inert_without_signal() {
        let mut env = wifi_lte_env();
        env.push_packet(QueueKind::Unacked, 5, 0, 1400);
        env.mark_sent_on(5, 0);
        run("compensating", &mut env);
        assert!(env.transmissions.is_empty());
    }

    #[test]
    fn selective_compensation_requires_rtt_ratio() {
        // RTT ratio 40/10 = 4 > 2: compensates.
        let mut env = wifi_lte_env();
        env.push_packet(QueueKind::Unacked, 5, 0, 1400);
        env.mark_sent_on(5, 0);
        env.set_register(RegId::R2, 1);
        run("selectiveCompensation", &mut env);
        assert_eq!(env.transmissions.len(), 1);

        // RTT ratio 12/10 < 2: does not compensate.
        let mut env2 = wifi_lte_env();
        env2.set_subflow_prop(1, SubflowProp::Rtt, 12_000);
        env2.push_packet(QueueKind::Unacked, 5, 0, 1400);
        env2.mark_sent_on(5, 0);
        env2.set_register(RegId::R2, 1);
        run("selectiveCompensation", &mut env2);
        assert!(env2.transmissions.is_empty());
    }

    #[test]
    fn tap_uses_preferred_when_available() {
        let mut env = wifi_lte_env();
        env.set_register(RegId::R1, 4_000_000);
        env.push_packet(QueueKind::SendQueue, 1, 0, 1400);
        run("tap", &mut env);
        assert_eq!(env.transmissions[0].0 .0, 0);
    }

    #[test]
    fn tap_spills_to_lte_only_when_target_exceeds_wifi() {
        // WiFi blocked (window full), WiFi BW 2 MB/s < target 4 MB/s:
        // LTE may carry the leftover.
        let mut env = wifi_lte_env();
        env.set_register(RegId::R1, 4_000_000);
        env.set_subflow_prop(0, SubflowProp::SkbsInFlight, 10);
        env.set_subflow_prop(1, SubflowProp::Bw, 0);
        env.push_packet(QueueKind::SendQueue, 1, 0, 1400);
        run("tap", &mut env);
        assert_eq!(env.transmissions.len(), 1);
        assert_eq!(env.transmissions[0].0 .0, 1, "leftover goes to LTE");
    }

    #[test]
    fn tap_never_uses_lte_when_wifi_suffices() {
        // WiFi blocked momentarily but its BW (2 MB/s) covers the 1 MB/s
        // target: the packet must wait rather than spill to LTE.
        let mut env = wifi_lte_env();
        env.set_register(RegId::R1, 1_000_000);
        env.set_subflow_prop(0, SubflowProp::SkbsInFlight, 10);
        env.push_packet(QueueKind::SendQueue, 1, 0, 1400);
        run("tap", &mut env);
        assert!(env.transmissions.is_empty(), "preference preserved");
        assert_eq!(env.queue_contents(QueueKind::SendQueue).len(), 1);
    }

    #[test]
    fn tap_leftover_fraction_caps_lte() {
        // LTE already carries (R1 - prefBw) worth of traffic: no more.
        let mut env = wifi_lte_env();
        env.set_register(RegId::R1, 2_500_000);
        env.set_subflow_prop(0, SubflowProp::SkbsInFlight, 10);
        // WiFi expected capacity is ~1.4 MB/s, so the leftover is ~1.1 MB/s;
        // LTE already delivers more than that.
        env.set_subflow_prop(1, SubflowProp::Bw, 1_200_000);
        env.push_packet(QueueKind::SendQueue, 1, 0, 1400);
        run("tap", &mut env);
        assert!(env.transmissions.is_empty(), "LTE already above leftover");
    }

    #[test]
    fn target_rtt_escalates_to_backup() {
        let mut env = wifi_lte_env();
        // LTE is actually faster here (the [13] scenario: 15% of samples
        // have higher WiFi RTT).
        env.set_subflow_prop(0, SubflowProp::Rtt, 80_000);
        env.set_subflow_prop(1, SubflowProp::Rtt, 40_000);
        env.set_register(RegId::R1, 50_000); // tolerate 50 ms
        env.push_packet(QueueKind::SendQueue, 1, 0, 1400);
        run("targetRtt", &mut env);
        assert_eq!(
            env.transmissions[0].0 .0, 1,
            "backup retains the RTT target"
        );
    }

    #[test]
    fn target_rtt_stays_on_preferred_within_target() {
        let mut env = wifi_lte_env();
        env.set_register(RegId::R1, 50_000);
        env.push_packet(QueueKind::SendQueue, 1, 0, 1400);
        run("targetRtt", &mut env);
        assert_eq!(env.transmissions[0].0 .0, 0);
    }

    #[test]
    fn target_deadline_uses_backup_under_pressure() {
        let mut env = wifi_lte_env();
        env.set_subflow_prop(0, SubflowProp::SkbsInFlight, 10); // WiFi full
        env.set_register(RegId::R1, 100); // 100 ms left
        env.set_register(RegId::R2, 1_000_000); // 1 MB left -> needs 10 MB/s
        env.push_packet(QueueKind::SendQueue, 1, 0, 1400);
        run("targetDeadline", &mut env);
        assert_eq!(env.transmissions[0].0 .0, 1);
        // Relaxed deadline: stays off the backup.
        let mut env2 = wifi_lte_env();
        env2.set_subflow_prop(0, SubflowProp::SkbsInFlight, 10);
        env2.set_register(RegId::R1, 10_000); // 10 s left
        env2.set_register(RegId::R2, 1_000_000); // needs only 100 KB/s
        env2.push_packet(QueueKind::SendQueue, 1, 0, 1400);
        run("targetDeadline", &mut env2);
        assert!(env2.transmissions.is_empty());
    }

    #[test]
    fn handover_retransmits_old_subflow_traffic() {
        let mut env = wifi_lte_env();
        env.push_packet(QueueKind::Unacked, 5, 0, 1400);
        env.mark_sent_on(5, 0); // in flight on the breaking WiFi link
        env.set_register(RegId::R3, 1);
        run("handoverAware", &mut env);
        assert_eq!(
            env.transmissions[0].0 .0, 1,
            "retransmitted on the new subflow"
        );
        assert_eq!(env.transmissions[0].1 .0, 5);
    }

    #[test]
    fn probing_refreshes_idle_subflow() {
        let mut env = wifi_lte_env();
        env.set_subflow_prop(1, SubflowProp::LastActAge, 200_000);
        env.push_packet(QueueKind::Unacked, 5, 0, 1400);
        run("probing", &mut env);
        assert!(
            env.transmissions.iter().any(|t| t.0 .0 == 1 && t.1 .0 == 5),
            "idle subflow probed with in-flight packet"
        );
    }

    #[test]
    fn http2_head_data_avoids_slow_subflow() {
        let mut env = wifi_lte_env();
        env.push_packet(QueueKind::SendQueue, 1, 0, 1400);
        env.set_packet_prop(1, PacketProp::UserProp, 1);
        // Block WiFi: head data must NOT fall over to the 4x-RTT LTE.
        env.set_subflow_prop(0, SubflowProp::SkbsInFlight, 10);
        run("http2Aware", &mut env);
        assert!(env.transmissions.is_empty(), "waits for the fast subflow");
    }

    #[test]
    fn http2_post_initial_content_respects_preference() {
        let mut env = wifi_lte_env();
        env.push_packet(QueueKind::SendQueue, 1, 0, 1400);
        env.set_packet_prop(1, PacketProp::UserProp, 3);
        env.set_subflow_prop(0, SubflowProp::SkbsInFlight, 10);
        run("http2Aware", &mut env);
        assert!(env.transmissions.is_empty(), "never spills to metered LTE");
        env.set_subflow_prop(0, SubflowProp::SkbsInFlight, 0);
        run("http2Aware", &mut env);
        assert_eq!(env.transmissions[0].0 .0, 0);
    }

    #[test]
    fn http2_initial_view_uses_default_strategy() {
        let mut env = wifi_lte_env();
        env.push_packet(QueueKind::SendQueue, 1, 0, 1400);
        env.set_packet_prop(1, PacketProp::UserProp, 2);
        env.set_subflow_prop(0, SubflowProp::SkbsInFlight, 10);
        run("http2Aware", &mut env);
        assert_eq!(env.transmissions[0].0 .0, 1, "falls over like minRTT");
    }

    #[test]
    fn opportunistic_rtx_retransmits_when_window_blocked() {
        let mut env = wifi_lte_env();
        env.push_packet(QueueKind::SendQueue, 1, 100, 1400);
        env.push_packet(QueueKind::Unacked, 5, 0, 1400);
        env.mark_sent_on(5, 1);
        env.set_has_window(0, false); // receive window blocked
        run("opportunisticRtx", &mut env);
        assert_eq!(
            env.transmissions[0],
            (
                progmp_core::env::SubflowId(0),
                progmp_core::env::PacketRef(5)
            ),
            "penalized retransmission on the fast subflow"
        );
    }

    #[test]
    fn fast_coupled_rtx_recovers_on_cleanest_path() {
        let mut env = wifi_lte_env();
        env.set_subflow_prop(0, SubflowProp::LostSkbs, 5); // lossy WiFi
        env.set_subflow_prop(1, SubflowProp::LostSkbs, 0);
        // Packet 5 in flight on the lossy subflow; loss suspected.
        env.push_packet(QueueKind::Unacked, 5, 0, 1400);
        env.mark_sent_on(5, 0);
        env.push_packet(QueueKind::Reinject, 5, 0, 1400);
        run("fastCoupledRtx", &mut env);
        assert_eq!(
            env.transmissions[0],
            (
                progmp_core::env::SubflowId(1),
                progmp_core::env::PacketRef(5)
            ),
            "oldest unacked of the lossiest subflow retransmitted on the cleanest"
        );
        assert!(
            env.queue_contents(QueueKind::Reinject).is_empty(),
            "reinjection entry consumed"
        );
    }

    #[test]
    fn fast_coupled_rtx_defaults_to_min_rtt_without_loss() {
        let mut env = wifi_lte_env();
        env.push_packet(QueueKind::SendQueue, 1, 0, 1400);
        run("fastCoupledRtx", &mut env);
        assert_eq!(env.transmissions[0].0 .0, 0);
    }

    #[test]
    fn cwnd_relax_ignores_window_for_flow_tail() {
        let mut env = wifi_lte_env();
        // Both windows exhausted; two packets left, tail signaled.
        env.set_subflow_prop(0, SubflowProp::SkbsInFlight, 10);
        env.set_subflow_prop(1, SubflowProp::SkbsInFlight, 10);
        env.push_packet(QueueKind::SendQueue, 1, 0, 1400);
        env.set_register(RegId::R2, 2);
        run("cwndRelax", &mut env);
        assert_eq!(
            env.transmissions.len(),
            1,
            "tail packet sent despite full cwnd"
        );
        assert_eq!(env.transmissions[0].0 .0, 0, "on the min-RTT subflow");
    }

    #[test]
    fn cwnd_relax_respects_window_mid_flow() {
        let mut env = wifi_lte_env();
        env.set_subflow_prop(0, SubflowProp::SkbsInFlight, 10);
        env.set_subflow_prop(1, SubflowProp::SkbsInFlight, 10);
        for i in 0..5u64 {
            env.push_packet(QueueKind::SendQueue, 1 + i, 1400 * i as i64, 1400);
        }
        env.set_register(RegId::R2, 2); // 5 queued > 2 remaining-signal
        run("cwndRelax", &mut env);
        assert!(env.transmissions.is_empty(), "mid-flow respects the window");
    }

    /// Backend-equivalence: every scheduler produces identical
    /// transmissions/registers on interpreter, AOT, and VM.
    #[test]
    fn backends_agree_for_every_scheduler() {
        for (name, _) in sources::ALL {
            let mut outcomes = Vec::new();
            for backend in Backend::ALL {
                let mut env = wifi_lte_env();
                env.set_register(RegId::R1, 4_000_000);
                env.set_register(RegId::R2, 1);
                env.set_register(RegId::R3, 1);
                for i in 0..3u64 {
                    env.push_packet(QueueKind::SendQueue, 10 + i, 1400 * i as i64, 1400);
                }
                env.push_packet(QueueKind::Unacked, 5, 0, 1400);
                env.mark_sent_on(5, 0);
                env.push_packet(QueueKind::Reinject, 5, 0, 1400);
                let mut inst = instantiate(name, backend).unwrap();
                for _ in 0..3 {
                    inst.execute(&mut env).unwrap();
                }
                outcomes.push((
                    backend.name(),
                    env.transmissions.clone(),
                    env.dropped.clone(),
                ));
            }
            assert_eq!(
                outcomes[0].1, outcomes[1].1,
                "{name}: interp vs aot transmissions"
            );
            assert_eq!(
                outcomes[0].1, outcomes[2].1,
                "{name}: interp vs vm transmissions"
            );
            assert_eq!(outcomes[0].2, outcomes[1].2, "{name}: interp vs aot drops");
            assert_eq!(outcomes[0].2, outcomes[2].2, "{name}: interp vs vm drops");
        }
    }
}

#[cfg(test)]
mod audit_tests {
    use super::*;

    /// Every bundled scheduler passes a multi-tenancy audit: it can
    /// transmit, only the redundancy family discards packets (by design,
    /// after pushing copies), the register interface matches the
    /// documented conventions, and scan depth stays shallow (cheap
    /// executions).
    #[test]
    fn bundled_schedulers_pass_static_audit() {
        for (name, _) in sources::ALL {
            let program = load(name).unwrap();
            let audit = program.analyze();
            assert!(audit.can_transmit(), "{name} must be able to push");
            if audit.can_discard() {
                assert!(
                    matches!(*name, "opportunisticRedundant" | "fastCoupledRtx"),
                    "{name} unexpectedly discards packets"
                );
            }
            assert!(
                audit.max_scan_depth <= 3,
                "{name} nests scans too deeply: {}",
                audit.max_scan_depth
            );
            // Schedulers touching R1 are exactly the intent-driven family.
            let reads_r1 = audit.registers_read.contains(&1);
            let intent_family = matches!(
                *name,
                "tap" | "targetRtt" | "targetDeadline" | "targetRttProbing"
            );
            assert_eq!(reads_r1, intent_family, "{name}: R1 interface mismatch");
        }
    }

    /// Walking `HProgram::children` from `body` reaches every `POP` and
    /// `PUSH` site the audit counts, in all 18 bundled programs.
    #[test]
    fn hir_traversal_reaches_every_audited_site() {
        use progmp_core::hir::{HExpr, HStmt};
        assert_eq!(sources::ALL.len(), 18);
        for (name, source) in sources::ALL {
            let mut hir =
                progmp_core::sema::lower(&progmp_core::parser::parse(source).unwrap()).unwrap();
            progmp_core::optimizer::optimize(&mut hir);
            let audit = progmp_core::analysis::analyze(&hir);
            let mut pushes = 0;
            let mut pops = 0;
            for sid in hir.stmts_in(&hir.body) {
                pushes += usize::from(matches!(hir.stmt(sid), HStmt::Push { .. }));
                let mut todo: Vec<_> = hir.stmt_operands(sid).iter().collect();
                while let Some(e) = todo.pop() {
                    pops += usize::from(matches!(hir.expr(e), HExpr::QueuePop(_)));
                    todo.extend(hir.children(e).iter());
                }
            }
            // The source text is the independent count (no bundled
            // program mentions either in a comment or loses one to folding).
            assert_eq!(pushes, source.matches(".PUSH(").count(), "{name}");
            assert_eq!(pops, source.matches(".POP()").count(), "{name}");
            assert_eq!(pushes, audit.push_sites, "{name}: PUSH sites");
            assert_eq!(pops, audit.pop_sites, "{name}: POP sites");
            assert_eq!(&audit, load(name).unwrap().analyze(), "{name}");
        }
    }

    #[test]
    fn audit_distinguishes_redundancy_designs() {
        let redundant = load("redundant").unwrap();
        assert!(
            redundant.analyze().uses_sent_on,
            "redundancy is SENT_ON-driven"
        );
        let rr = load("roundRobin").unwrap();
        let rr = rr.analyze();
        assert!(!rr.uses_sent_on);
        assert!(rr.registers_read.contains(&4), "RR keeps its index in R4");
        assert!(rr.registers_written.contains(&4));
    }
}
