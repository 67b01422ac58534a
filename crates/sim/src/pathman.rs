//! The path manager — building block (ii) of the MPTCP implementation
//! (paper §2.1): decides on the creation and removal of subflows, with
//! "relaxed time constraints" compared to the scheduler (it runs on a
//! periodic tick, not per packet).
//!
//! Two policies are provided:
//!
//! * [`PathManagerPolicy::Static`] — subflows exactly as configured (the
//!   default when no manager is attached);
//! * [`PathManagerPolicy::Handover`] — the §5.2 scenario automated: when
//!   the primary subflow degrades (RTT above a threshold or its loss
//!   counter rising), the backup subflow is established and the handover
//!   register `R3` is signaled so a handover-aware scheduler starts
//!   compensating; once the primary recovers, the signal is cleared.

use crate::subflow::Subflow;
use crate::time::SimTime;
use progmp_core::env::RegId;

/// Decision policy of a path manager.
#[derive(Debug, Clone)]
pub enum PathManagerPolicy {
    /// Keep the configured subflows; never intervene.
    Static,
    /// Establish `standby` and signal `R3 = 1` when `primary` degrades.
    Handover {
        /// Index of the monitored primary subflow.
        primary: u32,
        /// Index of the standby subflow to establish on degradation.
        standby: u32,
        /// Smoothed-RTT threshold (ns) above which the primary counts as
        /// degraded.
        rtt_threshold: SimTime,
        /// Additional lost packets per tick above which the primary
        /// counts as degraded.
        loss_delta_threshold: u64,
        /// Consecutive healthy ticks required before the handover signal
        /// is cleared again.
        recovery_ticks: u32,
    },
}

/// An action the connection applies on behalf of its path manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PmAction {
    /// Establish subflow `idx`.
    SubflowUp(u32),
    /// Tear subflow `idx` down.
    SubflowDown(u32),
    /// Write a scheduler register (handover signalling).
    SetRegister(RegId, i64),
}

/// Per-connection path-manager state.
#[derive(Debug, Clone)]
pub struct PathManager {
    /// The decision policy.
    pub policy: PathManagerPolicy,
    /// Evaluation interval.
    pub interval: SimTime,
    last_lost: u64,
    healthy_streak: u32,
    handover_active: bool,
}

impl PathManager {
    /// Creates a manager evaluating `policy` every `interval`.
    pub fn new(policy: PathManagerPolicy, interval: SimTime) -> Self {
        PathManager {
            policy,
            interval,
            last_lost: 0,
            healthy_streak: 0,
            handover_active: false,
        }
    }

    /// Whether the manager currently signals an active handover.
    pub fn handover_active(&self) -> bool {
        self.handover_active
    }

    /// Evaluates the policy against the connection's subflows as they
    /// stand and returns the actions to apply.
    pub fn tick(&mut self, subflows: &[Subflow]) -> Vec<PmAction> {
        match self.policy {
            PathManagerPolicy::Static => Vec::new(),
            PathManagerPolicy::Handover {
                primary,
                standby,
                rtt_threshold,
                loss_delta_threshold,
                recovery_ticks,
            } => {
                let mut actions = Vec::new();
                let Some(p) = subflows.get(primary as usize) else {
                    return actions;
                };
                let lost = p.lost_skbs;
                let loss_delta = lost.saturating_sub(self.last_lost);
                self.last_lost = lost;
                let degraded = p.established
                    && (p.rtt.srtt() > rtt_threshold || loss_delta >= loss_delta_threshold);
                let standby_up = subflows
                    .get(standby as usize)
                    .map(|s| s.established)
                    .unwrap_or(false);

                if degraded {
                    self.healthy_streak = 0;
                    if !standby_up {
                        actions.push(PmAction::SubflowUp(standby));
                    }
                    if !self.handover_active {
                        self.handover_active = true;
                        actions.push(PmAction::SetRegister(RegId::R3, 1));
                    }
                } else if self.handover_active {
                    self.healthy_streak += 1;
                    if self.healthy_streak >= recovery_ticks {
                        self.handover_active = false;
                        self.healthy_streak = 0;
                        actions.push(PmAction::SetRegister(RegId::R3, 0));
                    }
                }
                actions
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::CcAlgo;
    use crate::config::SchedulerSpec;
    use crate::connection::{Connection, Installed};
    use crate::native::NativeMinRtt;
    use crate::path::{Path, PathConfig};
    use crate::receiver::{Receiver, ReceiverMode};
    use crate::subflow::Subflow;
    use crate::time::{from_millis, MILLIS};
    use progmp_core::env::SubflowId;

    fn conn() -> Connection {
        let mut subflows = vec![
            Subflow::new(
                SubflowId(0),
                Path::new(&PathConfig::symmetric(from_millis(15), 1_250_000)),
                1400,
            ),
            Subflow::new(
                SubflowId(1),
                Path::new(&PathConfig::symmetric(from_millis(45), 1_250_000)),
                1400,
            ),
        ];
        subflows[0].rtt.sample(from_millis(15));
        subflows[1].established = false;
        let mut c = Connection::new(
            0,
            subflows,
            Receiver::new(ReceiverMode::Improved, 2, 1 << 20),
            Installed::resolve(SchedulerSpec::Native(Box::new(NativeMinRtt)), None).unwrap(),
            CcAlgo::Reno,
            1400,
            1 << 20,
        );
        c.refresh_active();
        c
    }

    fn handover_pm() -> PathManager {
        PathManager::new(
            PathManagerPolicy::Handover {
                primary: 0,
                standby: 1,
                rtt_threshold: from_millis(100),
                loss_delta_threshold: 3,
                recovery_ticks: 2,
            },
            100 * MILLIS,
        )
    }

    #[test]
    fn static_policy_never_acts() {
        let mut pm = PathManager::new(PathManagerPolicy::Static, 100 * MILLIS);
        assert!(pm.tick(&conn().subflows).is_empty());
    }

    #[test]
    fn healthy_primary_no_action() {
        let mut pm = handover_pm();
        assert!(pm.tick(&conn().subflows).is_empty());
        assert!(!pm.handover_active());
    }

    #[test]
    fn rtt_degradation_triggers_handover() {
        let mut pm = handover_pm();
        let mut c = conn();
        for _ in 0..20 {
            c.subflows[0].rtt.sample(from_millis(200));
        }
        let actions = pm.tick(&c.subflows);
        assert!(actions.contains(&PmAction::SubflowUp(1)));
        assert!(actions.contains(&PmAction::SetRegister(RegId::R3, 1)));
        assert!(pm.handover_active());
    }

    #[test]
    fn loss_burst_triggers_handover() {
        let mut pm = handover_pm();
        let mut c = conn();
        c.subflows[0].lost_skbs = 10;
        let actions = pm.tick(&c.subflows);
        assert!(actions.contains(&PmAction::SetRegister(RegId::R3, 1)));
        // Loss delta resets: the next tick without new losses is healthy.
        let actions = pm.tick(&c.subflows);
        assert!(actions.is_empty(), "recovery streak building: {actions:?}");
    }

    #[test]
    fn recovery_clears_signal_after_streak() {
        let mut pm = handover_pm();
        let mut c = conn();
        c.subflows[0].lost_skbs = 10;
        pm.tick(&c.subflows); // handover
        c.subflows[1].established = true;
        assert!(pm.tick(&c.subflows).is_empty(), "first healthy tick");
        let actions = pm.tick(&c.subflows);
        assert_eq!(actions, vec![PmAction::SetRegister(RegId::R3, 0)]);
        assert!(!pm.handover_active());
    }

    #[test]
    fn standby_not_duplicated() {
        let mut pm = handover_pm();
        let mut c = conn();
        c.subflows[0].lost_skbs = 10;
        pm.tick(&c.subflows);
        c.subflows[1].established = true;
        c.subflows[0].lost_skbs = 20;
        let actions = pm.tick(&c.subflows);
        assert!(
            !actions.contains(&PmAction::SubflowUp(1)),
            "standby already up: {actions:?}"
        );
    }
}
