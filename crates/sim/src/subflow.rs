//! Sender-side subflow state: one TCP subflow of an MPTCP connection.

use crate::cc::CcState;
use crate::engine::{ConnId, EventKind, Events};
use crate::path::Path;
use crate::rtt::RttEstimator;
use crate::time::{SimTime, MILLIS, SECONDS};
use progmp_core::env::{PacketRef, SubflowId};
use std::collections::VecDeque;

/// Record of one transmission awaiting subflow-level acknowledgement.
#[derive(Debug, Clone)]
pub struct TxRec {
    /// Subflow-level sequence number (transmission index).
    pub sbf_seq: u64,
    /// The meta segment transmitted.
    pub pkt: PacketRef,
    /// Payload size (bytes).
    pub size: u32,
    /// Transmission time.
    pub sent_at: SimTime,
    /// Whether this was a retransmission (excluded from RTT sampling).
    pub is_rtx: bool,
}

/// Sender-side state of one subflow.
#[derive(Debug)]
pub struct Subflow {
    /// Stable identifier within the connection.
    pub id: SubflowId,
    /// The network path this subflow runs over.
    pub path: Path,
    /// Congestion-control state.
    pub cc: CcState,
    /// RTT estimator.
    pub rtt: RttEstimator,
    /// Backup flag set by the path manager (the `IS_BACKUP` property).
    pub is_backup: bool,
    /// Application-assigned cost/preference weight (the `COST` property).
    pub cost: i64,
    /// Whether the subflow is currently established.
    pub established: bool,
    /// Next subflow-level sequence number to assign.
    pub next_seq: u64,
    /// Cumulative subflow-level ack received.
    pub acked_seq: u64,
    /// Consecutive duplicate acks observed.
    pub dupacks: u32,
    /// Unacknowledged transmissions, oldest first.
    pub sent: VecDeque<TxRec>,
    /// Total packets declared lost on this subflow (`LOST_SKBS`).
    pub lost_skbs: u64,
    /// Last time this subflow transmitted or received (`LAST_ACT_AGE`).
    pub last_activity: SimTime,
    /// Token invalidating stale RTO timer events.
    pub rto_token: u64,
    /// Whether an RTO timer is currently armed.
    pub rto_armed: bool,
    /// Token invalidating stale tail-loss-probe events.
    pub tlp_token: u64,
    /// Whether a tail-loss probe is currently armed.
    pub tlp_armed: bool,
    /// TCP-small-queue limit: max packets in the egress queue before the
    /// subflow reports `TSQ_THROTTLED`.
    pub tsq_limit: usize,
    /// Maximum segment size (bytes).
    pub mss: u32,
    // --- delivery-rate estimation (the `BW` property) ---
    bw_bytes: u64,
    bw_window_start: SimTime,
    bw_est: u64,
}

impl Subflow {
    /// Creates an established subflow over `path`.
    pub fn new(id: SubflowId, path: Path, mss: u32) -> Self {
        Subflow {
            id,
            path,
            cc: CcState::default(),
            rtt: RttEstimator::default(),
            is_backup: false,
            cost: 0,
            established: true,
            next_seq: 0,
            acked_seq: 0,
            dupacks: 0,
            sent: VecDeque::new(),
            lost_skbs: 0,
            last_activity: 0,
            rto_token: 0,
            rto_armed: false,
            tlp_token: 0,
            tlp_armed: false,
            tsq_limit: 2,
            mss,
            bw_bytes: 0,
            bw_window_start: 0,
            bw_est: 0,
        }
    }

    /// Packets in flight at the subflow level (`SKBS_IN_FLIGHT`).
    pub fn in_flight(&self) -> usize {
        self.sent.len()
    }

    /// Tail-loss-probe timeout (RFC 8985-style): `2 * SRTT + 10 ms`,
    /// clamped to at least 30 ms — much shorter than the RTO, so tail
    /// losses of short flows are recovered quickly.
    pub fn pto(&self) -> SimTime {
        (2 * self.rtt.srtt() + 10 * MILLIS).max(30 * MILLIS)
    }

    /// (Re-)arms the retransmission timer: schedules this subflow's `Rto`
    /// event of connection `conn` under a fresh token. A timer fires only
    /// while its token is still the subflow's current one, so (re-)arming
    /// invalidates every earlier one.
    pub(crate) fn arm_rto(&mut self, queue: &mut Events, conn: ConnId, now: SimTime) {
        self.rto_armed = true;
        self.rto_token += 1;
        let (sbf, token) = (self.id.0, self.rto_token);
        queue.push(now + self.rtt.rto(), (conn, EventKind::Rto { sbf, token }));
    }

    /// Whether the retransmission timer carrying `token` is the armed one.
    pub fn rto_due(&self, token: u64) -> bool {
        self.rto_armed && self.rto_token == token
    }

    /// (Re-)arms the tail-loss probe for `at`, under a fresh token like
    /// [`Subflow::arm_rto`].
    pub(crate) fn arm_tlp(&mut self, queue: &mut Events, conn: ConnId, at: SimTime) {
        self.tlp_armed = true;
        self.tlp_token += 1;
        let (sbf, token) = (self.id.0, self.tlp_token);
        queue.push(at, (conn, EventKind::Tlp { sbf, token }));
    }

    /// An acknowledgement arrived: pushes the probe deadline out, so the
    /// probe only fires after a quiet period with data still in flight.
    pub(crate) fn rearm_tlp(&mut self, queue: &mut Events, conn: ConnId, now: SimTime) {
        if self.in_flight() > 0 {
            self.arm_tlp(queue, conn, now + self.pto());
        } else {
            self.tlp_token += 1;
            self.tlp_armed = false;
        }
    }

    /// The probe timer carrying `token` fired. Unless it is stale or
    /// nothing is in flight, returns the oldest unacked segment — the
    /// probe — as `(packet, subflow seq)`; the caller sends it and then
    /// arms the next probe at the full RTO pace.
    pub fn fire_tlp(&mut self, token: u64) -> Option<(PacketRef, u64)> {
        let Some(front) = self.sent.front() else {
            self.tlp_armed = false;
            return None;
        };
        if !self.tlp_armed || self.tlp_token != token {
            return None;
        }
        Some((front.pkt, front.sbf_seq))
    }

    /// Whether the TCP-small-queue condition throttles this subflow.
    pub fn tsq_throttled(&self, now: SimTime) -> bool {
        self.path.queued_at(now) >= self.tsq_limit
    }

    /// Records acknowledged bytes for delivery-rate estimation and
    /// returns the refreshed estimate when the window rolls over.
    pub fn record_delivered(&mut self, now: SimTime, bytes: u64) {
        self.bw_bytes += bytes;
        let window = self.rtt.srtt().max(50 * MILLIS);
        let elapsed = now.saturating_sub(self.bw_window_start);
        if elapsed >= window {
            let rate = self.bw_bytes.saturating_mul(SECONDS) / elapsed.max(1);
            self.bw_est = if self.bw_est == 0 {
                rate
            } else {
                (3 * self.bw_est + rate) / 4
            };
            self.bw_bytes = 0;
            self.bw_window_start = now;
        }
    }

    /// Current delivery-rate estimate in bytes/second (the `BW` property).
    pub fn bw_estimate(&self) -> u64 {
        self.bw_est
    }

    /// Finds and removes the transmission records acknowledged by a new
    /// cumulative `ack`. Returns (acked packet count, acked byte count,
    /// RTT sample from the newest first-transmission if valid).
    pub fn take_acked(&mut self, ack: u64, now: SimTime) -> (u64, u64, Option<SimTime>) {
        let mut pkts = 0u64;
        let mut bytes = 0u64;
        let mut sample = None;
        while let Some(front) = self.sent.front() {
            if front.sbf_seq >= ack {
                break;
            }
            let rec = self.sent.pop_front().expect("checked non-empty");
            pkts += 1;
            bytes += u64::from(rec.size);
            if !rec.is_rtx {
                sample = Some(now.saturating_sub(rec.sent_at));
            }
        }
        (pkts, bytes, sample)
    }

    /// Drains all in-flight transmissions (RTO recovery).
    pub fn drain_in_flight(&mut self) -> Vec<TxRec> {
        self.sent.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PathConfig;
    use crate::time::from_millis;

    fn subflow() -> Subflow {
        Subflow::new(
            SubflowId(0),
            Path::new(&PathConfig::symmetric(from_millis(10), 1_250_000)),
            1400,
        )
    }

    fn tx(sbf_seq: u64, sent_at: SimTime) -> TxRec {
        TxRec {
            sbf_seq,
            pkt: PacketRef(sbf_seq),
            size: 1400,
            sent_at,
            is_rtx: false,
        }
    }

    #[test]
    fn take_acked_pops_in_order() {
        let mut s = subflow();
        for i in 0..5 {
            s.sent.push_back(tx(i, 0));
        }
        let (pkts, bytes, sample) = s.take_acked(3, from_millis(12));
        assert_eq!(pkts, 3);
        assert_eq!(bytes, 3 * 1400);
        assert_eq!(sample, Some(from_millis(12)));
        assert_eq!(s.in_flight(), 2);
    }

    #[test]
    fn retransmissions_do_not_sample_rtt() {
        let mut s = subflow();
        s.sent.push_back(TxRec {
            is_rtx: true,
            ..tx(0, 0)
        });
        let (_, _, sample) = s.take_acked(1, from_millis(30));
        assert_eq!(sample, None, "Karn's algorithm");
    }

    #[test]
    fn bw_estimate_converges() {
        let mut s = subflow();
        for _ in 0..20 {
            s.rtt.sample(from_millis(10));
        }
        let mut now = 0;
        for _ in 0..100 {
            now += from_millis(10);
            // 12500 bytes per 10 ms = 1.25 MB/s
            s.record_delivered(now, 12_500);
        }
        let bw = s.bw_estimate();
        assert!(
            (1_000_000..1_500_000).contains(&bw),
            "bw={bw} expected ~1.25 MB/s"
        );
    }

    #[test]
    fn tsq_throttles_when_queue_builds() {
        let mut s = subflow();
        assert!(!s.tsq_throttled(0));
        s.path.transmit_forced(0, 1400, false);
        s.path.transmit_forced(0, 1400, false);
        s.path.transmit_forced(0, 1400, false);
        assert!(s.tsq_throttled(0));
        assert!(!s.tsq_throttled(from_millis(100)), "queue drains over time");
    }

    #[test]
    fn drain_in_flight_empties() {
        let mut s = subflow();
        for i in 0..4 {
            s.sent.push_back(tx(i, 0));
        }
        let drained = s.drain_in_flight();
        assert_eq!(drained.len(), 4);
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn cumulative_ack_over_mixed_rtx_samples_only_unambiguous_record() {
        // Karn's rule under retransmission ambiguity: a cumulative ack
        // covering both a retransmitted record and a fresh one must take
        // its RTT sample exclusively from the fresh transmission.
        let mut s = subflow();
        s.sent.push_back(TxRec {
            is_rtx: true,
            ..tx(0, 0)
        });
        s.sent.push_back(tx(1, from_millis(50)));
        let (pkts, _, sample) = s.take_acked(2, from_millis(80));
        assert_eq!(pkts, 2);
        assert_eq!(
            sample,
            Some(from_millis(30)),
            "sample comes from the unambiguous record only"
        );
    }

    #[test]
    fn ack_of_only_ambiguous_records_yields_no_sample() {
        let mut s = subflow();
        for i in 0..3 {
            s.sent.push_back(TxRec {
                is_rtx: true,
                ..tx(i, from_millis(10 * i))
            });
        }
        let (pkts, bytes, sample) = s.take_acked(3, from_millis(200));
        assert_eq!((pkts, bytes), (3, 3 * 1400));
        assert_eq!(sample, None, "every covered record is ambiguous");
    }

    #[test]
    fn spurious_rto_retransmits_but_keeps_rtt_estimate_clean() {
        // End-to-end Karn check at the connection level: an RTO fires
        // spuriously (the original packet was merely delayed), the
        // segment is retransmitted, and then the ORIGINAL ack arrives.
        // The ambiguous RTT must not be sampled, so the pre-RTO estimate
        // survives; the data still completes.
        use crate::cc::CcAlgo;
        use crate::config::SchedulerSpec;
        use crate::connection::{Connection, Installed};
        use crate::receiver::{Receiver, ReceiverMode};
        use progmp_core::env::SchedulerEnv;

        let subflows = vec![Subflow::new(
            SubflowId(0),
            Path::new(&PathConfig::symmetric(from_millis(20), 1_250_000)),
            1400,
        )];
        let receiver = Receiver::new(ReceiverMode::Improved, 1, 1 << 20);
        let mut c = Connection::new(
            0,
            subflows,
            receiver,
            Installed::resolve(
                SchedulerSpec::Native(Box::new(crate::native::NativeMinRtt)),
                None,
            )
            .unwrap(),
            CcAlgo::Reno,
            1400,
            1 << 20,
        );
        c.subflows[0].rtt.sample(from_millis(20));
        let srtt_before = c.subflows[0].rtt.srtt();
        let pkts = crate::connection::tests::enqueue(&mut c, 1400, 0);
        c.record_tx(0, pkts[0], 1400, 0, None);

        // Spurious timeout at 1 s: the segment is retransmitted on the
        // subflow and queued for reinjection.
        let mut queue = Events::new();
        c.subflows[0].arm_rto(&mut queue, 0, 0);
        c.now = from_millis(1000);
        assert!(c.on_rto(&mut queue, 0, c.subflows[0].rto_token));
        assert_eq!(
            c.queue(progmp_core::env::QueueKind::Reinject),
            &[pkts[0]],
            "segment entered RQ"
        );
        assert!(c.subflows[0].sent[0].is_rtx, "record marked ambiguous");
        assert_eq!(c.stats.subflows[0].timeouts, 1);
        assert_eq!(c.stats.subflows[0].retransmissions, 1);

        // The original ack finally lands.
        c.now = from_millis(1100);
        c.on_ack(&mut queue, 0, 1, 1400, 1 << 20);
        assert_eq!(
            c.subflows[0].rtt.srtt(),
            srtt_before,
            "no RTT sample from the ambiguous retransmission (Karn)"
        );
        assert!(c.all_acked());
        assert!(
            c.queue(progmp_core::env::QueueKind::Reinject).is_empty(),
            "meta ack cleared the reinjection queue"
        );
    }
}
