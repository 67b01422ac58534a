//! Per-connection measurement collection: counters, timelines, and the
//! derived metrics the paper's figures report (throughput, flow
//! completion time, per-subflow usage, transmission overhead).

use crate::time::{as_secs_f64, SimTime};

/// Counters for one subflow.
#[derive(Debug, Clone, Default)]
pub struct SubflowStats {
    /// Packets transmitted (including retransmissions and redundant copies).
    pub tx_packets: u64,
    /// Bytes transmitted.
    pub tx_bytes: u64,
    /// Retransmitted packets.
    pub retransmissions: u64,
    /// Packets dropped by random loss on the wire.
    pub wire_losses: u64,
    /// Packets tail-dropped at the egress queue.
    pub queue_drops: u64,
    /// Fast-retransmit episodes.
    pub fast_retransmits: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
}

/// Counters and timelines for one connection.
#[derive(Debug, Clone, Default)]
pub struct ConnStats {
    /// Per-subflow counters.
    pub subflows: Vec<SubflowStats>,
    /// Total packets transmitted.
    pub tx_packets: u64,
    /// Total bytes transmitted (counting every copy).
    pub tx_bytes: u64,
    /// Bytes of *distinct* segments transmitted at least once.
    pub unique_tx_bytes: u64,
    /// Bytes enqueued by the application.
    pub enqueued_bytes: u64,
    /// Bytes delivered in order to the receiving application.
    pub delivered_bytes: u64,
    /// Segments added to the reinjection queue `RQ` (loss suspicion,
    /// subflow teardown, tail-loss probes). Explicit reinjection is the
    /// one sanctioned way a byte reaches the receiver twice, so the
    /// invariant oracle reads this counter when judging duplicates.
    /// Deliberately absent from [`ConnStats::snapshot_text`]: the golden
    /// snapshot format predates it and stays frozen.
    pub reinjections: u64,
    /// Packets discarded by scheduler `DROP` actions.
    pub scheduler_drops: u64,
    /// Completed scheduler executions.
    pub scheduler_executions: u64,
    /// Scheduler executions aborted with a runtime error (step budget).
    pub scheduler_errors: u64,
    /// Total scheduler steps (the programming-model cost metric).
    pub scheduler_steps: u64,
    /// Wall-clock nanoseconds spent inside scheduler executions (host
    /// time, for the Fig. 9 overhead measurements).
    pub scheduler_host_ns: u64,
    /// Delivery timeline: (time, cumulative delivered bytes). Recorded
    /// when timelines are enabled.
    pub delivery_timeline: Vec<(SimTime, u64)>,
    /// Transmission timeline: (time, subflow index, bytes). Recorded when
    /// timelines are enabled.
    pub tx_timeline: Vec<(SimTime, u32, u32)>,
}

impl ConnStats {
    /// Creates stats for `n` subflows.
    pub fn new(n: usize) -> Self {
        ConnStats {
            subflows: vec![SubflowStats::default(); n],
            ..Default::default()
        }
    }

    /// Transmission overhead: total transmitted bytes relative to the
    /// distinct payload transmitted (1.0 = no redundancy).
    pub fn overhead_ratio(&self) -> f64 {
        if self.unique_tx_bytes == 0 {
            return 1.0;
        }
        self.tx_bytes as f64 / self.unique_tx_bytes as f64
    }

    /// Mean delivered goodput over `[0, until]` in bytes/second.
    pub fn goodput(&self, until: SimTime) -> f64 {
        if until == 0 {
            return 0.0;
        }
        self.delivered_bytes as f64 / as_secs_f64(until)
    }

    /// Time at which cumulative delivery first reached `bytes`, if it did.
    pub fn delivery_time_of(&self, bytes: u64) -> Option<SimTime> {
        self.delivery_timeline
            .iter()
            .find(|(_, b)| *b >= bytes)
            .map(|(t, _)| *t)
    }

    /// Delivered-byte rate over a sliding window, sampled at `step`
    /// intervals: returns (time, bytes/second) pairs. Requires timelines.
    pub fn goodput_series(
        &self,
        window: SimTime,
        step: SimTime,
        until: SimTime,
    ) -> Vec<(SimTime, f64)> {
        let mut out = Vec::new();
        if step == 0 {
            return out;
        }
        let mut t = step;
        while t <= until {
            let start = t.saturating_sub(window);
            let at = |x: SimTime| -> u64 {
                match self
                    .delivery_timeline
                    .binary_search_by_key(&x, |(ts, _)| *ts)
                {
                    Ok(mut i) => {
                        // Take the last sample at time x.
                        while i + 1 < self.delivery_timeline.len()
                            && self.delivery_timeline[i + 1].0 == x
                        {
                            i += 1;
                        }
                        self.delivery_timeline[i].1
                    }
                    Err(0) => 0,
                    Err(i) => self.delivery_timeline[i - 1].1,
                }
            };
            let delta = at(t).saturating_sub(at(start));
            out.push((t, delta as f64 / as_secs_f64(t - start)));
            t += step;
        }
        out
    }

    /// Deterministic, integer-only serialization of the connection's
    /// behaviour — what it transmitted, delivered, dropped and failed,
    /// per subflow and over time — for golden snapshot tests and the
    /// fleet digest.
    ///
    /// Effort is left out: `scheduler_executions`, `scheduler_steps` and
    /// `scheduler_host_ns` measure how the scheduler reached its
    /// decisions, not what it decided, so a change that only makes a
    /// round cheaper or skips a round that decides nothing leaves this
    /// text alone. Fleets report effort exactly beside the digest
    /// ([`crate::fleet::FleetReport::steps`]).
    ///
    /// Contains only exactly-representable quantities (no derived
    /// floating-point metrics), so the output is bit-stable across runs
    /// and platforms for a fixed scenario and seed. Timelines are included
    /// in full when recorded; their absence serializes as empty sections,
    /// keeping snapshots comparable either way.
    pub fn snapshot_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "tx_packets {}\ntx_bytes {}\nunique_tx_bytes {}\nenqueued_bytes {}\ndelivered_bytes {}\n",
            self.tx_packets, self.tx_bytes, self.unique_tx_bytes, self.enqueued_bytes,
            self.delivered_bytes
        ));
        out.push_str(&format!(
            "scheduler_drops {}\nscheduler_errors {}\n",
            self.scheduler_drops, self.scheduler_errors
        ));
        for (i, s) in self.subflows.iter().enumerate() {
            out.push_str(&format!(
                "subflow {i} tx_packets {} tx_bytes {} retransmissions {} wire_losses {} \
                 queue_drops {} fast_retransmits {} timeouts {}\n",
                s.tx_packets,
                s.tx_bytes,
                s.retransmissions,
                s.wire_losses,
                s.queue_drops,
                s.fast_retransmits,
                s.timeouts
            ));
        }
        out.push_str(&format!(
            "delivery_timeline {}\n",
            self.delivery_timeline.len()
        ));
        for (t, b) in &self.delivery_timeline {
            out.push_str(&format!("  {t} {b}\n"));
        }
        out.push_str(&format!("tx_timeline {}\n", self.tx_timeline.len()));
        for (t, s, b) in &self.tx_timeline {
            out.push_str(&format!("  {t} {s} {b}\n"));
        }
        out
    }

    /// Bytes transmitted per subflow over a window ending at each step
    /// (per-subflow usage series, Fig. 1/13). Requires timelines.
    pub fn subflow_tx_series(
        &self,
        sbf: u32,
        window: SimTime,
        step: SimTime,
        until: SimTime,
    ) -> Vec<(SimTime, f64)> {
        let mut out = Vec::new();
        if step == 0 {
            return out;
        }
        let mut t = step;
        while t <= until {
            let start = t.saturating_sub(window);
            let bytes: u64 = self
                .tx_timeline
                .iter()
                .filter(|(ts, s, _)| *s == sbf && *ts > start && *ts <= t)
                .map(|(_, _, b)| u64::from(*b))
                .sum();
            out.push((t, bytes as f64 / as_secs_f64(t - start)));
            t += step;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{from_millis, SECONDS};

    #[test]
    fn overhead_ratio() {
        let s = ConnStats {
            tx_bytes: 2000,
            unique_tx_bytes: 1000,
            ..Default::default()
        };
        assert!((s.overhead_ratio() - 2.0).abs() < 1e-9);
        assert!((ConnStats::default().overhead_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn goodput_series_windows() {
        let s = ConnStats {
            delivery_timeline: vec![
                (from_millis(100), 1000),
                (from_millis(200), 2000),
                (from_millis(900), 3000),
            ],
            ..Default::default()
        };
        let series = s.goodput_series(from_millis(500), from_millis(500), SECONDS);
        assert_eq!(series.len(), 2);
        // First window [0, 500ms]: 2000 bytes -> 4000 B/s.
        assert!((series[0].1 - 4000.0).abs() < 1.0);
        // Second window (500ms, 1000ms]: 1000 bytes -> 2000 B/s.
        assert!((series[1].1 - 2000.0).abs() < 1.0);
    }

    #[test]
    fn delivery_time_of_finds_first_crossing() {
        let s = ConnStats {
            delivery_timeline: vec![(10, 100), (20, 300), (30, 500)],
            ..Default::default()
        };
        assert_eq!(s.delivery_time_of(100), Some(10));
        assert_eq!(s.delivery_time_of(250), Some(20));
        assert_eq!(s.delivery_time_of(501), None);
    }

    #[test]
    fn snapshot_text_is_deterministic_and_complete() {
        let mut s = ConnStats::new(2);
        s.tx_packets = 10;
        s.tx_bytes = 14_000;
        s.delivered_bytes = 12_600;
        s.subflows[1].retransmissions = 3;
        s.delivery_timeline = vec![(from_millis(10), 1400), (from_millis(20), 2800)];
        s.tx_timeline = vec![(from_millis(5), 0, 1400)];
        let a = s.snapshot_text();
        let b = s.snapshot_text();
        assert_eq!(a, b);
        assert!(a.contains("tx_packets 10"));
        assert!(a.contains("subflow 1 "));
        assert!(a.contains("retransmissions 3"));
        assert!(a.contains("delivery_timeline 2"));
        assert!(a.contains("tx_timeline 1"));
        // Effort is not behaviour.
        s.scheduler_executions = 7;
        s.scheduler_steps = 700;
        assert_eq!(s.snapshot_text(), a);
        // No floating point anywhere in the serialization.
        assert!(!a.contains('.'), "snapshot must be integer-only: {a}");
    }

    #[test]
    fn subflow_tx_series_filters_by_subflow() {
        let s = ConnStats {
            tx_timeline: vec![
                (from_millis(10), 0, 1000),
                (from_millis(20), 1, 500),
                (from_millis(30), 0, 1000),
            ],
            ..Default::default()
        };
        let s0 = s.subflow_tx_series(0, from_millis(100), from_millis(100), from_millis(100));
        assert!((s0[0].1 - 20_000.0).abs() < 1.0); // 2000 B / 0.1 s
        let s1 = s.subflow_tx_series(1, from_millis(100), from_millis(100), from_millis(100));
        assert!((s1[0].1 - 5_000.0).abs() < 1.0);
    }
}
