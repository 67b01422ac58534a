//! Congestion control: per-subflow NewReno-style loss-based control and
//! the coupled MPTCP *Linked Increases Algorithm* (LIA, RFC 6356).
//!
//! The scheduler programming model reads `CWND`/`SSTHRESH` from this
//! block; as the paper notes (§2.1), for throughput-saturated connections
//! the congestion control effectively *schedules* the traffic because the
//! scheduler is blocked by exhausted windows.

/// Which congestion-control algorithm a connection uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CcAlgo {
    /// Independent NewReno per subflow.
    #[default]
    Reno,
    /// Coupled LIA (RFC 6356): the increase term is coupled across
    /// subflows for bottleneck fairness; decrease is per-subflow.
    Lia,
}

/// Congestion-control phase of one subflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CcPhase {
    /// Exponential growth until `ssthresh`.
    #[default]
    SlowStart,
    /// Additive increase.
    CongestionAvoidance,
    /// Fast-recovery after triple-dupack; window halved.
    Recovery,
    /// After an RTO; window collapsed to 1.
    Loss,
}

/// Per-subflow congestion-control state (window units are packets).
#[derive(Debug, Clone)]
pub struct CcState {
    /// Current congestion window in packets.
    pub cwnd: u64,
    /// Slow-start threshold in packets.
    pub ssthresh: u64,
    /// Current phase.
    pub phase: CcPhase,
    /// Fractional-increase accumulator for congestion avoidance.
    acked_accum: u64,
    /// Subflow-level sequence number that ends the current recovery.
    pub recovery_point: u64,
}

/// Initial congestion window (IW10, RFC 6928).
pub const INITIAL_CWND: u64 = 10;

impl Default for CcState {
    fn default() -> Self {
        CcState {
            cwnd: INITIAL_CWND,
            ssthresh: u64::MAX / 2,
            phase: CcPhase::SlowStart,
            acked_accum: 0,
            recovery_point: 0,
        }
    }
}

impl CcState {
    /// Processes `acked` newly acknowledged packets.
    ///
    /// `lia_factor_x1024` is the coupled-increase numerator described in
    /// [`lia_alpha_x1024`]; pass `1024` for uncoupled Reno behaviour.
    pub fn on_ack(&mut self, acked: u64, lia_factor_x1024: u64) {
        match self.phase {
            CcPhase::SlowStart => {
                self.cwnd += acked;
                if self.cwnd >= self.ssthresh {
                    self.cwnd = self.cwnd.min(self.ssthresh.max(INITIAL_CWND));
                    self.phase = CcPhase::CongestionAvoidance;
                }
            }
            CcPhase::CongestionAvoidance | CcPhase::Recovery | CcPhase::Loss => {
                // Additive increase: cwnd += acked/cwnd (scaled by LIA factor).
                self.acked_accum += acked * lia_factor_x1024;
                let need = self.cwnd.max(1) * 1024;
                while self.acked_accum >= need {
                    self.acked_accum -= need;
                    self.cwnd += 1;
                }
            }
        }
    }

    /// Enters fast recovery after a triple duplicate acknowledgement.
    /// `highest_sent` is the subflow-level sequence that must be acked to
    /// leave recovery. Returns false if already recovering this window.
    pub fn on_fast_retransmit(&mut self, acked_seq: u64, highest_sent: u64) -> bool {
        if matches!(self.phase, CcPhase::Recovery | CcPhase::Loss)
            && acked_seq < self.recovery_point
        {
            return false;
        }
        self.ssthresh = (self.cwnd / 2).max(2);
        self.cwnd = self.ssthresh;
        self.phase = CcPhase::Recovery;
        self.recovery_point = highest_sent;
        true
    }

    /// Collapses the window after a retransmission timeout.
    pub fn on_timeout(&mut self, highest_sent: u64) {
        self.ssthresh = (self.cwnd / 2).max(2);
        self.cwnd = 1;
        self.phase = CcPhase::Loss;
        self.recovery_point = highest_sent;
        self.acked_accum = 0;
    }

    /// Called when the cumulative subflow ack passes the recovery point.
    pub fn maybe_exit_recovery(&mut self, acked_seq: u64) {
        if matches!(self.phase, CcPhase::Recovery | CcPhase::Loss)
            && acked_seq >= self.recovery_point
        {
            self.phase = if self.cwnd >= self.ssthresh {
                CcPhase::CongestionAvoidance
            } else {
                CcPhase::SlowStart
            };
        }
    }

    /// Whether the subflow is in a loss state (the `LOSSY` property).
    pub fn lossy(&self) -> bool {
        matches!(self.phase, CcPhase::Recovery | CcPhase::Loss)
    }
}

/// Computes the LIA coupling factor for one subflow, scaled by 1024.
///
/// RFC 6356: each subflow increases by `min(alpha/cwnd_total, 1/cwnd_i)`
/// per ack, where `alpha = cwnd_total * max_i(cwnd_i/rtt_i^2) /
/// (sum_i(cwnd_i/rtt_i))^2`. We return the resulting per-subflow
/// multiplier relative to the uncoupled `1/cwnd_i` increase, scaled by
/// 1024: `factor = min(alpha * cwnd_i / cwnd_total, 1)`.
///
/// `flows` yields `(cwnd, srtt_ns)` for every subflow, `cwnd_i` is the
/// window of the subflow being updated. One pass, no buffer: this runs
/// on every window-limited ack of a LIA connection.
pub fn lia_alpha_x1024(flows: impl Iterator<Item = (u64, u64)>, cwnd_i: u64) -> u64 {
    let (mut n, mut cwnd_total, mut max_term, mut sum_term) = (0usize, 0.0f64, 0.0f64, 0.0f64);
    for (c, r) in flows {
        let c = c as f64;
        let r = r.max(1) as f64 / 1e9;
        n += 1;
        cwnd_total += c;
        max_term = max_term.max(c / (r * r));
        sum_term += c / r;
    }
    if n <= 1 || cwnd_total <= 0.0 || sum_term <= 0.0 {
        return 1024;
    }
    let alpha = cwnd_total * max_term / (sum_term * sum_term);
    let factor = (alpha * cwnd_i as f64 / cwnd_total).clamp(0.0, 1.0);
    (factor * 1024.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut cc = CcState::default();
        assert_eq!(cc.cwnd, 10);
        cc.on_ack(10, 1024);
        assert_eq!(cc.cwnd, 20, "one packet of growth per acked packet");
        assert_eq!(cc.phase, CcPhase::SlowStart);
    }

    #[test]
    fn congestion_avoidance_grows_one_per_window() {
        let mut cc = CcState {
            cwnd: 10,
            ssthresh: 10,
            phase: CcPhase::CongestionAvoidance,
            ..Default::default()
        };
        cc.on_ack(10, 1024);
        assert_eq!(cc.cwnd, 11, "one extra packet per full window acked");
    }

    #[test]
    fn fast_retransmit_halves_window() {
        let mut cc = CcState {
            cwnd: 20,
            ..Default::default()
        };
        assert!(cc.on_fast_retransmit(5, 30));
        assert_eq!(cc.cwnd, 10);
        assert_eq!(cc.phase, CcPhase::Recovery);
        assert!(cc.lossy());
        // A second trigger inside the same recovery window is ignored.
        assert!(!cc.on_fast_retransmit(6, 35));
        assert_eq!(cc.cwnd, 10);
    }

    #[test]
    fn timeout_collapses_to_one() {
        let mut cc = CcState {
            cwnd: 32,
            ..Default::default()
        };
        cc.on_timeout(40);
        assert_eq!(cc.cwnd, 1);
        assert_eq!(cc.ssthresh, 16);
        assert!(cc.lossy());
    }

    #[test]
    fn recovery_exits_at_recovery_point() {
        let mut cc = CcState {
            cwnd: 20,
            ..Default::default()
        };
        cc.on_fast_retransmit(5, 30);
        cc.maybe_exit_recovery(29);
        assert!(cc.lossy(), "not yet past recovery point");
        cc.maybe_exit_recovery(30);
        assert!(!cc.lossy());
    }

    #[test]
    fn lia_factor_single_flow_is_uncoupled() {
        assert_eq!(lia_alpha_x1024([(10, 10_000_000)].into_iter(), 10), 1024);
    }

    #[test]
    fn lia_factor_is_capped_at_uncoupled() {
        let flows = [(10, 10_000_000), (10, 10_000_000)];
        for (cwnd, _) in flows {
            assert!(lia_alpha_x1024(flows.into_iter(), cwnd) <= 1024);
        }
    }

    #[test]
    fn lia_slows_symmetric_flows() {
        // Two identical subflows: alpha = 2c * (c/r^2) / (2c/r)^2 = 1/2,
        // factor = alpha * c / 2c = 1/4 of uncoupled.
        let flows = [(16, 20_000_000), (16, 20_000_000)];
        let f = lia_alpha_x1024(flows.into_iter(), 16);
        assert!((200..=312).contains(&f), "factor={f} expected ~256");
    }
}
