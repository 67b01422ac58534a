//! Network path model: rate, propagation delay, random loss, and a
//! bounded FIFO egress queue per direction.
//!
//! This is the substitute for the paper's Mininet links and real WiFi/LTE
//! interfaces: the evaluation scenarios only depend on per-path delay,
//! capacity, loss and their dynamics, all of which are modelled here.
//! Rates and delays may change over time through [`PathProfileEntry`] entries
//! (WiFi throughput fluctuation, handover degradation).

use crate::faults::{ChaosRng, LossModel};
use crate::time::{serialize_time, SimTime};
use std::collections::VecDeque;

/// Static configuration of one path (one subflow's network substrate).
#[derive(Debug, Clone)]
pub struct PathConfig {
    /// One-way propagation delay, data direction (ns).
    pub fwd_delay: SimTime,
    /// One-way propagation delay, acknowledgement direction (ns).
    pub rev_delay: SimTime,
    /// Link rate in bytes/second (data direction).
    pub rate: u64,
    /// Independent random loss probability per packet (0.0..1.0).
    pub loss: f64,
    /// Egress queue capacity in packets; packets beyond it are tail-dropped.
    pub queue_cap: usize,
    /// Scheduled changes to rate/loss over time.
    pub profile: Vec<PathProfileEntry>,
}

/// A scheduled change of path characteristics.
#[derive(Debug, Clone, Copy)]
pub struct PathProfileEntry {
    /// When the change takes effect.
    pub at: SimTime,
    /// New rate (bytes/second); `None` keeps the current rate.
    pub rate: Option<u64>,
    /// New loss probability; `None` keeps the current loss.
    pub loss: Option<f64>,
    /// New forward one-way delay; `None` keeps the current delay.
    pub fwd_delay: Option<SimTime>,
}

impl PathConfig {
    /// A symmetric path described by RTT (split evenly) and rate.
    pub fn symmetric(rtt: SimTime, rate: u64) -> Self {
        PathConfig {
            fwd_delay: rtt / 2,
            rev_delay: rtt / 2,
            rate,
            loss: 0.0,
            queue_cap: 1000,
            profile: Vec::new(),
        }
    }

    /// Sets the random loss probability.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Sets the egress queue capacity (packets).
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap;
        self
    }

    /// Appends a profile entry.
    pub fn with_profile_entry(mut self, entry: PathProfileEntry) -> Self {
        self.profile.push(entry);
        self
    }
}

/// One change to a [`Path`], as an engine event carries it.
#[derive(Debug, Clone)]
pub(crate) enum PathEdit {
    /// A profile entry's new rate, loss and delay. Boxed: pushed once per
    /// entry at set-up, and 56 bytes inline would widen every event the
    /// calendar holds.
    Profile(Box<PathProfileEntry>),
    /// Installs (or, with `None`, removes) a fault-injected loss process
    /// overriding the baseline Bernoulli loss.
    Loss(Option<LossModel>),
    /// Installs (or removes) fault-injected per-packet delay jitter with
    /// the given amplitude.
    Jitter(Option<SimTime>),
}

/// Runtime state of one path.
#[derive(Debug, Clone)]
pub struct Path {
    /// Current configuration values.
    pub fwd_delay: SimTime,
    /// Ack-direction delay.
    pub rev_delay: SimTime,
    /// Current rate (bytes/second).
    pub rate: u64,
    /// Current loss probability.
    pub loss: f64,
    /// Queue capacity in packets.
    pub queue_cap: usize,
    /// Time the link becomes free to serialize the next packet.
    next_free: SimTime,
    /// Departure times of packets currently in the egress queue (still
    /// queued or being serialized), oldest first. Never descending —
    /// each is `max(next_free, now)` plus a serialization time — so the
    /// departed ones are always a prefix. Pruned lazily.
    departures: VecDeque<SimTime>,
    /// Per-path random stream for loss and jitter draws. Paths never
    /// share a stream, so one path's loss trace is independent of how
    /// other paths' events interleave (chaos-trace reproducibility).
    rng: ChaosRng,
    /// Fault-injected loss process overriding the baseline [`Path::loss`]
    /// while active (blackouts, Gilbert–Elliott bursts).
    fault_loss: Option<LossModel>,
    /// Fault-injected per-packet extra one-way delay, drawn uniformly
    /// from `[0, amplitude)` while active.
    jitter: Option<SimTime>,
}

/// Outcome of handing a packet to the path at the sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOutcome {
    /// Packet will arrive at the receiver at the given time.
    Arrives {
        /// Arrival time at the receiver.
        at: SimTime,
        /// Departure time from the sender's egress queue.
        departs: SimTime,
    },
    /// Packet was dropped (random loss); it departs but never arrives.
    LostOnWire {
        /// Departure time from the sender's egress queue.
        departs: SimTime,
    },
    /// Packet was tail-dropped at the full egress queue.
    QueueDrop,
}

impl Path {
    /// Creates runtime path state from a configuration.
    pub fn new(cfg: &PathConfig) -> Self {
        Path {
            fwd_delay: cfg.fwd_delay,
            rev_delay: cfg.rev_delay,
            rate: cfg.rate,
            loss: cfg.loss,
            queue_cap: cfg.queue_cap,
            next_free: 0,
            departures: VecDeque::new(),
            rng: ChaosRng::new(0),
            fault_loss: None,
            jitter: None,
        }
    }

    /// Replaces the path's random stream. The engine calls this when a
    /// connection is added, deriving the stream from `(simulation seed,
    /// connection id, subflow index)` so every path draws from its own
    /// reproducible sequence.
    pub fn reseed(&mut self, rng: ChaosRng) {
        self.rng = rng;
    }

    /// Applies one change to the path.
    pub(crate) fn apply(&mut self, edit: PathEdit) {
        match edit {
            PathEdit::Profile(entry) => {
                if let Some(r) = entry.rate {
                    self.rate = r;
                }
                if let Some(l) = entry.loss {
                    self.loss = l;
                }
                if let Some(d) = entry.fwd_delay {
                    self.fwd_delay = d;
                }
            }
            PathEdit::Loss(model) => self.fault_loss = model,
            PathEdit::Jitter(amplitude) => self.jitter = amplitude,
        }
    }

    /// Removes departed packets from the egress accounting.
    fn prune(&mut self, now: SimTime) {
        while self.departures.front().is_some_and(|&d| d <= now) {
            self.departures.pop_front();
        }
    }

    /// Number of packets queued (or in serialization) at `now` — the
    /// `QUEUED` scheduler property and the basis of TSQ throttling.
    pub fn queued(&mut self, now: SimTime) -> usize {
        self.prune(now);
        self.departures.len()
    }

    /// Like [`Path::queued`] but without mutating (for property reads
    /// during scheduler executions, which must not change state).
    pub fn queued_at(&self, now: SimTime) -> usize {
        self.departures.len() - self.departures.partition_point(|&d| d <= now)
    }

    /// Attempts to transmit a packet of `size` bytes at `now`, drawing
    /// the loss decision (and jitter, when a fault clause is active) from
    /// this path's own random stream.
    pub fn transmit(&mut self, now: SimTime, size: u32) -> TxOutcome {
        let lost = match &mut self.fault_loss {
            Some(model) => model.draw(&mut self.rng),
            None => {
                let mut base = LossModel::bernoulli(self.loss);
                base.draw(&mut self.rng)
            }
        };
        self.transmit_forced(now, size, lost)
    }

    /// Like [`Path::transmit`] but with an externally forced loss
    /// decision — no random draw. Used by unit tests that need exact
    /// outcomes; the engine always uses [`Path::transmit`].
    pub fn transmit_forced(&mut self, now: SimTime, size: u32, lost: bool) -> TxOutcome {
        self.prune(now);
        if self.departures.len() >= self.queue_cap {
            return TxOutcome::QueueDrop;
        }
        let start = self.next_free.max(now);
        let departs = start + serialize_time(u64::from(size), self.rate);
        self.next_free = departs;
        // Strictly later than the last whenever serialization takes
        // time; a zero-rate ("instantaneous") path can repeat it.
        debug_assert!(
            self.departures.back().is_none_or(|&last| last <= departs),
            "departure FIFO must stay sorted: prune and queued_at search it"
        );
        self.departures.push_back(departs);
        if lost {
            TxOutcome::LostOnWire { departs }
        } else {
            let extra = match self.jitter {
                Some(amp) if amp > 0 => self.rng.below(amp),
                _ => 0,
            };
            TxOutcome::Arrives {
                at: departs + self.fwd_delay + extra,
                departs,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{from_millis, MILLIS};

    /// A profile edit taking effect at `at`, keeping the delay.
    fn profile(at: SimTime, rate: Option<u64>, loss: Option<f64>) -> PathEdit {
        let entry = PathProfileEntry {
            at,
            rate,
            loss,
            fwd_delay: None,
        };
        PathEdit::Profile(Box::new(entry))
    }

    fn path_10ms_10mbps() -> Path {
        // 10 Mbit/s = 1,250,000 B/s
        Path::new(&PathConfig::symmetric(from_millis(10), 1_250_000))
    }

    #[test]
    fn first_packet_arrives_after_serialization_plus_delay() {
        let mut p = path_10ms_10mbps();
        let out = p.transmit_forced(0, 1250, false);
        // 1250 B at 1.25 MB/s = 1 ms serialization + 5 ms one-way delay.
        assert_eq!(
            out,
            TxOutcome::Arrives {
                at: 6 * MILLIS,
                departs: MILLIS
            }
        );
    }

    #[test]
    fn serialization_queues_back_to_back_packets() {
        let mut p = path_10ms_10mbps();
        let TxOutcome::Arrives { at: a1, .. } = p.transmit_forced(0, 1250, false) else {
            panic!()
        };
        let TxOutcome::Arrives { at: a2, .. } = p.transmit_forced(0, 1250, false) else {
            panic!()
        };
        assert_eq!(a2 - a1, MILLIS, "second packet waits for the first");
    }

    #[test]
    fn queued_counts_pending_packets() {
        let mut p = path_10ms_10mbps();
        for _ in 0..5 {
            p.transmit_forced(0, 1250, false);
        }
        assert_eq!(p.queued(0), 5);
        // After 3.5 ms, three packets have departed.
        assert_eq!(p.queued(3 * MILLIS + MILLIS / 2), 2);
        assert_eq!(p.queued(10 * MILLIS), 0);
    }

    #[test]
    fn queue_cap_tail_drops() {
        let mut p = Path::new(&PathConfig::symmetric(from_millis(10), 1_250_000).with_queue_cap(3));
        for _ in 0..3 {
            assert!(!matches!(
                p.transmit_forced(0, 1250, false),
                TxOutcome::QueueDrop
            ));
        }
        assert_eq!(p.transmit_forced(0, 1250, false), TxOutcome::QueueDrop);
    }

    #[test]
    fn lost_packet_departs_but_never_arrives() {
        let mut p = path_10ms_10mbps();
        let out = p.transmit_forced(0, 1250, true);
        assert_eq!(out, TxOutcome::LostOnWire { departs: MILLIS });
        // It still occupied the link.
        let TxOutcome::Arrives { at, .. } = p.transmit_forced(0, 1250, false) else {
            panic!()
        };
        assert_eq!(at, 7 * MILLIS);
    }

    #[test]
    fn profile_changes_rate() {
        let mut p = path_10ms_10mbps();
        p.apply(profile(0, Some(2_500_000), None));
        let TxOutcome::Arrives { departs, .. } = p.transmit_forced(0, 1250, false) else {
            panic!()
        };
        assert_eq!(departs, MILLIS / 2, "doubled rate halves serialization");
    }

    #[test]
    fn rate_step_mid_flight_only_affects_later_serialization() {
        // Two packets queued at the old rate, then the profile halves the
        // rate: the queued packets keep their departure times (they are
        // already committed to the egress queue), while a packet handed
        // over after the step serializes at the new rate.
        let mut p = path_10ms_10mbps();
        let TxOutcome::Arrives { departs: d1, .. } = p.transmit_forced(0, 1250, false) else {
            panic!()
        };
        let TxOutcome::Arrives { departs: d2, .. } = p.transmit_forced(0, 1250, false) else {
            panic!()
        };
        assert_eq!((d1, d2), (MILLIS, 2 * MILLIS));
        p.apply(profile(MILLIS / 2, Some(625_000), None));
        assert_eq!(p.queued(MILLIS / 2), 2, "committed packets unaffected");
        let TxOutcome::Arrives { departs: d3, .. } = p.transmit_forced(MILLIS / 2, 1250, false)
        else {
            panic!()
        };
        // Starts when the link frees at 2 ms; 1250 B at 625 kB/s = 2 ms.
        assert_eq!(d3, 4 * MILLIS, "post-step packet serializes at new rate");
    }

    #[test]
    fn loss_step_mid_flight_switches_drawn_outcomes() {
        let mut p = path_10ms_10mbps();
        p.reseed(ChaosRng::new(7));
        // Baseline loss is 0.0: internal draws never lose (and consume no
        // randomness, so the stream is untouched for the lossy phase).
        for _ in 0..20 {
            assert!(matches!(p.transmit(0, 1250), TxOutcome::Arrives { .. }));
        }
        p.apply(profile(25 * MILLIS, None, Some(1.0)));
        for _ in 0..20 {
            assert!(matches!(
                p.transmit(25 * MILLIS, 1250),
                TxOutcome::LostOnWire { .. }
            ));
        }
    }

    #[test]
    fn tail_drop_boundary_at_exactly_full_queue() {
        // queue_cap = 2. Fill it; the first packet departs at exactly
        // 1 ms. One nanosecond before that instant the queue is still
        // full (tail drop); at exactly the departure instant the slot is
        // free again (departures are pruned with `d > now`).
        let mut p = Path::new(&PathConfig::symmetric(from_millis(10), 1_250_000).with_queue_cap(2));
        assert!(!matches!(
            p.transmit_forced(0, 1250, false),
            TxOutcome::QueueDrop
        ));
        assert!(!matches!(
            p.transmit_forced(0, 1250, false),
            TxOutcome::QueueDrop
        ));
        assert_eq!(
            p.transmit_forced(MILLIS - 1, 1250, false),
            TxOutcome::QueueDrop,
            "one ns before first departure the queue is still full"
        );
        assert!(
            matches!(
                p.transmit_forced(MILLIS, 1250, false),
                TxOutcome::Arrives { .. }
            ),
            "at the departure instant exactly one slot frees"
        );
    }

    #[test]
    fn jitter_draws_from_path_stream_and_only_delays_arrival() {
        let mut p = path_10ms_10mbps();
        p.reseed(ChaosRng::new(5));
        p.apply(PathEdit::Jitter(Some(4 * MILLIS)));
        let mut extras = Vec::new();
        for i in 0..32u64 {
            let now = i * 10 * MILLIS;
            let TxOutcome::Arrives { at, departs } = p.transmit(now, 1250) else {
                panic!()
            };
            assert_eq!(departs, now + MILLIS, "jitter never affects departure");
            let extra = at - departs - 5 * MILLIS;
            assert!(extra < 4 * MILLIS, "jitter bounded by amplitude");
            extras.push(extra);
        }
        assert!(
            extras.iter().any(|&e| e > 0),
            "jitter actually perturbs arrivals"
        );
        p.apply(PathEdit::Jitter(None));
        let TxOutcome::Arrives { at, departs } = p.transmit(320 * 10 * MILLIS, 1250) else {
            panic!()
        };
        assert_eq!(at - departs, 5 * MILLIS, "cleared jitter restores baseline");
    }

    /// Sends a packet every 0.4 ms for 80 rounds — faster than the link
    /// drains, so the egress queue builds — calling `mid_run` before
    /// round 30, and after every send holds `queued_at` and then the
    /// pruning `queued` to a plain count over every departure time the
    /// path ever reported.
    fn queue_counts_match_a_full_recount(mid_run: impl Fn(&mut Path)) {
        let mut p = path_10ms_10mbps();
        p.reseed(ChaosRng::new(3));
        let mut reported: Vec<SimTime> = Vec::new();
        let recount = |reported: &[SimTime], now| reported.iter().filter(|&&d| d > now).count();
        for round in 0..80u64 {
            if round == 30 {
                mid_run(&mut p);
            }
            let now = round * 400_000;
            match p.transmit(now, 500 + (round % 7) as u32 * 150) {
                TxOutcome::Arrives { departs, .. } | TxOutcome::LostOnWire { departs } => {
                    reported.push(departs)
                }
                TxOutcome::QueueDrop => panic!("queue_cap is far above this backlog"),
            }
            // Probe between sends and far enough ahead to empty the queue.
            for probe in [now, now + 150_000, now + 40 * MILLIS] {
                assert_eq!(p.queued_at(probe), recount(&reported, probe), "t={probe}");
            }
            assert_eq!(p.queued(now), recount(&reported, now), "pruned at t={now}");
            assert_eq!(
                p.queued_at(now + 150_000),
                recount(&reported, now + 150_000)
            );
        }
        assert!(
            reported.windows(2).all(|w| w[0] < w[1]),
            "departures ascend strictly on a path with a finite rate"
        );
    }

    #[test]
    fn queue_counts_survive_a_mid_run_rate_change() {
        for rate in [312_500, 5_000_000] {
            queue_counts_match_a_full_recount(|p| p.apply(profile(12 * MILLIS, Some(rate), None)));
        }
    }

    #[test]
    fn queue_counts_survive_an_active_jitter_clause() {
        queue_counts_match_a_full_recount(|p| p.apply(PathEdit::Jitter(Some(4 * MILLIS))));
    }

    #[test]
    fn fault_loss_overrides_baseline_and_restores() {
        let mut p = Path::new(&PathConfig::symmetric(from_millis(10), 1_250_000).with_loss(0.0));
        p.reseed(ChaosRng::new(9));
        p.apply(PathEdit::Loss(Some(LossModel::blackout())));
        for i in 0..10u64 {
            assert!(matches!(
                p.transmit(i * MILLIS * 10, 1250),
                TxOutcome::LostOnWire { .. }
            ));
        }
        p.apply(PathEdit::Loss(None));
        assert!(matches!(
            p.transmit(200 * MILLIS, 1250),
            TxOutcome::Arrives { .. }
        ));
    }
}
