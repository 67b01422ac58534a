//! Runtime invariant oracle: checks conservation-of-data, acknowledgement
//! monotonicity, reorder-queue accounting, and eventual progress.
//!
//! The oracle only observes. It never learns whether a containment
//! supervisor is attached and routes nothing: [`InvariantOracle::check`]
//! reports what the transport machinery got wrong, while
//! [`check_properties`] and [`check_quiescent`] — the two checks a
//! *scheduler* can fail — are plain functions that return what they
//! found. The engine decides what happens to those (`Sim::scheduler_fault`):
//! contained and kept on record under a supervisor, reported otherwise.
//!
//! ## When the checks run
//!
//! After every simulated event, on the one connection that event names:
//! an event mutates no other connection, so the others' verdicts cannot
//! have changed and the cost per event does not grow with the number of
//! connections sharing the simulator. Every connection is checked
//! whenever a run call (`Sim::run_until`, `Sim::run_to_completion`)
//! stops, which covers whatever the caller changed between calls through
//! the public `Sim::connections`, and once more for eventual progress
//! when the event queue drains. Every finished scheduler round that runs
//! under a property certificate is shown to [`check_properties`]. A
//! violating connection's reports are therefore a function of its own
//! event history and of where the caller stopped the run, not of how
//! many neighbours it has.
//!
//! ## What a check costs
//!
//! The per-event check does not grow with the number of connections,
//! but it does grow with the checked connection's backlog. It walks `Q`,
//! `QU` and `RQ` once each (a segment lookup per packet), marking each
//! segment's queues in a [`QueueStamps`] table the oracle owns, so
//! duplicates and `Q ∩ RQ` fall out of the same walks in O(|Q| + |QU| +
//! |RQ|), and it recounts the receiver's reorder queue (`ooo_recount`,
//! O(entries)). Once the table and the replay log have grown, a check
//! allocates nothing. Measured on a 2-CPU container shared with other
//! workloads, 14 connections (two per paper scheduler) in one `Sim`,
//! best of three: wall with the oracle on is 1.22× the wall with it off
//! at 20 KB per connection, 2.45× at 2 MB and 1.41× at 20 MB (1.26×,
//! 3.26× and 2.61× when each walk sorted a fresh copy of its queue and
//! `Q ∩ RQ` was a scan of `RQ` per packet of `Q`). At the benchmark
//! fleets' backlogs the check is smaller: 10–14 ms of a 26–39 ms traced
//! `fleet_checked` run. [`check_properties`] costs O(pushes²) per
//! finished round (each push target is counted by a linear scan) and
//! allocates nothing unless it finds a violation. A round the engine
//! skips because its program's quiescence guard holds is shown to
//! nobody; it could not have violated a certificate.
//!
//! The oracle exists for the chaos tier (TESTING.md): fault plans drive
//! the simulator through blackouts, burst loss, jitter, window stalls and
//! churn, and the oracle asserts that the transport machinery never
//! corrupts data in the process. In panicking mode a violation aborts
//! with the replay label (seed) and the tail of the event log, so a
//! failing chaos run reproduces from its report alone; in collecting
//! mode violations accumulate for the conformance harness to diff and
//! shrink.
//!
//! ## Invariant catalogue
//!
//! * **conservation-delivery** — bytes delivered to the application
//!   exactly equal the in-order prefix (`delivered_total == expected`):
//!   no byte is delivered twice (duplicates from explicit reinjection are
//!   detected and discarded at the receiver), none is skipped.
//! * **conservation-stats** — the engine's delivery counter agrees with
//!   the receiver's ground truth.
//! * **conservation-bound** — the receiver never delivers bytes the
//!   application never enqueued.
//! * **ack-monotone** — the meta cumulative ack, the receiver's expected
//!   pointer, and every subflow cumulative ack only move forward.
//! * **ack-bound** — the sender's cumulative ack never runs ahead of
//!   what the receiver delivered, and subflow acks never pass the
//!   subflow's send counter.
//! * **reorder-accounting** — the incremental out-of-order byte counter
//!   equals a from-scratch recount of the reorder queues, and occupancy
//!   stays within the receive buffer (bounded reorder-queue occupancy).
//! * **queue-structure** — `Q`/`QU`/`RQ` hold only known, unacked,
//!   non-duplicate segments, and `Q` ascends in `seq`
//!   ([`Connection::queue_invariants`]).
//! * **step-bound** — no scheduler execution aborted on its certified
//!   step budget (admitted programs carry a verified worst-case bound;
//!   exceeding it would starve the connection). Nothing here checks it:
//!   the engine sees the abort itself and reports it under this name
//!   when no supervisor contains it.
//! * **property-work-conservation** — a program whose certificate
//!   *proves* work-conservation must emit at least one effective `PUSH`
//!   whenever it runs with a non-empty send queue and an established
//!   subflow ([`check_properties`]).
//! * **property-starvation** — every `PUSH` target id stays inside the
//!   certificate's statically derived allowed-id set.
//! * **property-redundancy-bound** — no packet is pushed more often in
//!   one execution than the certificate's closed-form duplication bound
//!   evaluated at the actual subflow count.
//! * **property-reinjection** — a program whose `POP` sites are all
//!   proved guarded never observes a `NULL` pop at runtime.
//! * **eventual-progress** — checked at quiescence: if the event queue
//!   drains while unacknowledged data remains, a live (established)
//!   subflow exists, and the scheduler never dropped a packet, the
//!   machinery lost data forever — a liveness violation. Exception:
//!   data stranded *only* in the reinjection queue under a scheduler
//!   whose static analysis shows it never pops `RQ` is an expected
//!   stall (the program simply has no reinjection logic), not a bug.

use crate::connection::Connection;
use crate::engine::{ConnId, EventKind};
use crate::time::SimTime;
use progmp_core::env::{Action, PacketRef, QueueKind, SchedulerEnv};
use progmp_core::verify::props::PropStatus;
use progmp_core::{subflow_available, ExecStats, PropertyCertificate};
use std::collections::VecDeque;

/// How many trailing events the oracle keeps for violation reports.
const EVENT_LOG_CAP: usize = 48;

/// Cap on stored violations in collecting mode. A pathological scheduler
/// in a long fleet run can violate on every event; unbounded storage
/// would turn one bad connection into an OOM for the whole harness. The
/// buffer keeps the *latest* violations (the oldest are dropped and
/// counted in [`InvariantOracle::dropped_violations`]) because the most
/// recent ones carry the state closest to the final report.
pub const VIOLATION_CAP: usize = 256;

/// One detected invariant violation.
#[derive(Debug, Clone)]
pub struct OracleViolation {
    /// Simulation time of the violating event.
    pub at: SimTime,
    /// Connection the violation occurred on, by its global identity
    /// (the fleet index; equals the local id in a standalone
    /// [`crate::Sim`]) — the same name an
    /// [`crate::IncidentReport`] gives it.
    pub conn: usize,
    /// Which invariant failed (catalogue name).
    pub invariant: &'static str,
    /// Human-readable detail with the offending values.
    pub detail: String,
}

impl std::fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invariant `{}` violated on conn {} at t={}: {}",
            self.invariant, self.conn, self.at, self.detail
        )
    }
}

/// What one scheduler execution actually did, as far as the property
/// certificate's dynamic checks are concerned. The engine collects one
/// observation around every `execute_once` round
/// ([`PropObservation::before`] the run, [`PropObservation::after`] it)
/// and hands it to [`check_properties`].
#[derive(Debug, Clone, Default)]
pub struct PropObservation {
    /// Send queue was non-empty *before* the execution.
    pub pre_q_nonempty: bool,
    /// At least one established subflow existed *before* the execution.
    pub pre_subflows_nonempty: bool,
    /// At least one *available* subflow existed *before* the execution:
    /// not TSQ-throttled, not lossy, and with congestion-window room
    /// (`CWND > SKBS_IN_FLIGHT + QUEUED`, evaluated with the DSL's
    /// wrapping arithmetic). Mirrors the work-conservation analysis'
    /// availability precondition.
    pub pre_avail_subflow: bool,
    /// Effective pushes (both operands non-`NULL`) the execution emitted.
    pub pushes: u64,
    /// Pops that observed `NULL` (an empty queue view).
    pub null_pops: u64,
    /// `(subflow id, packet)` of every emitted `Push` action.
    pub push_targets: Vec<(u32, PacketRef)>,
    /// Established subflows visible to the execution.
    pub n_subflows: u64,
}

impl PropObservation {
    /// Samples the pre-state of one execution from `env` before the
    /// scheduler runs (it mutates the views) and clears what the last
    /// round recorded; [`PropObservation::after`] fills in the rest.
    pub fn before(&mut self, env: &dyn SchedulerEnv) {
        let subflows = env.subflows();
        self.pre_q_nonempty = !env.queue(QueueKind::SendQueue).is_empty();
        self.pre_subflows_nonempty = !subflows.is_empty();
        self.pre_avail_subflow = subflows.iter().any(|&s| subflow_available(env, s));
        self.n_subflows = subflows.len() as u64;
        self.pushes = 0;
        self.null_pops = 0;
        self.push_targets.clear();
    }

    /// Completes the observation with what the execution did: the
    /// `actions` it emitted and its `stats`. Reuses the push-target
    /// buffer, so a watched round allocates nothing once it has grown.
    pub fn after(&mut self, actions: &[Action], stats: &ExecStats) {
        self.pushes = u64::from(stats.pushes);
        self.null_pops = u64::from(stats.null_pops);
        self.push_targets.clear();
        self.push_targets
            .extend(actions.iter().filter_map(|a| match a {
                Action::Push { subflow, packet } => Some((subflow.0, *packet)),
                _ => None,
            }));
    }
}

/// Per-connection high-water marks for monotonicity checks, indexed by
/// the connection's local id. Kept here rather than on the connection: a
/// checker's marks do not belong inside the object it checks.
#[derive(Debug, Default, Clone)]
struct Marks {
    data_acked: u64,
    expected: u64,
    sbf_acked: Vec<u64>,
}

/// Which of `Q`, `QU` and `RQ` hold each segment, as far as the current
/// [`Connection::queue_invariants`] walk has seen: one bit per queue per
/// segment handle, valid only under the walk's generation, so a walk
/// starts by bumping the generation instead of clearing the table. The
/// oracle keeps one for all the connections it checks; it grows to the
/// most segments one connection has made and is then reused.
#[derive(Debug, Default)]
pub struct QueueStamps {
    generation: u32,
    /// `(generation, queue bits)`, indexed by `PacketRef.0`.
    seen: Vec<(u32, u8)>,
}

impl QueueStamps {
    /// Starts a walk over a connection with `segments` segments.
    pub(crate) fn start(&mut self, segments: usize) {
        if self.seen.len() <= segments {
            self.seen.resize(segments + 1, (0, 0));
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.seen.fill((0, 0));
            self.generation = 1;
        }
    }

    /// Records `pkt` in `queue`; `false` if this walk already had.
    /// `pkt` must resolve to a segment.
    pub(crate) fn mark(&mut self, pkt: PacketRef, queue: QueueKind) -> bool {
        let bit = 1 << queue as u8;
        let slot = &mut self.seen[pkt.0 as usize];
        if slot.0 != self.generation {
            *slot = (self.generation, 0);
        }
        let fresh = slot.1 & bit == 0;
        slot.1 |= bit;
        fresh
    }

    /// Whether this walk has recorded `pkt` in `queue`.
    pub(crate) fn holds(&self, pkt: PacketRef, queue: QueueKind) -> bool {
        let (generation, bits) = self.seen[pkt.0 as usize];
        generation == self.generation && bits & (1 << queue as u8) != 0
    }
}

/// The oracle itself; owned by the engine and consulted after each event.
#[derive(Debug)]
pub struct InvariantOracle {
    /// Replay label baked into panic messages (typically `seed N ...`).
    label: String,
    /// Panic on the first violation (true) or collect (false).
    panic_on_violation: bool,
    /// Whether the engine feeds the per-event replay log. On by default;
    /// an entry is a copy of the event, rendered only when read.
    pub log_events: bool,
    /// Violations found so far (collecting mode), capped at
    /// [`VIOLATION_CAP`]; see [`InvariantOracle::dropped_violations`].
    pub violations: Vec<OracleViolation>,
    /// Violations evicted from the bounded buffer once it filled up.
    pub dropped_violations: u64,
    log: VecDeque<(SimTime, ConnId, EventKind)>,
    marks: Vec<Marks>,
    stamps: QueueStamps,
    checks: u64,
}

impl InvariantOracle {
    /// Creates an oracle. `label` should identify the replay (seed,
    /// scenario); `panic_on_violation` selects abort-vs-collect.
    pub fn new(label: impl Into<String>, panic_on_violation: bool) -> Self {
        InvariantOracle {
            label: label.into(),
            panic_on_violation,
            log_events: true,
            violations: Vec::new(),
            dropped_violations: 0,
            log: VecDeque::with_capacity(EVENT_LOG_CAP),
            marks: Vec::new(),
            stamps: QueueStamps::default(),
            checks: 0,
        }
    }

    /// Appends one event to the bounded replay log (a no-op with
    /// [`InvariantOracle::log_events`] off).
    pub(crate) fn log_event(&mut self, time: SimTime, conn: ConnId, kind: &EventKind) {
        if !self.log_events {
            return;
        }
        if self.log.len() == EVENT_LOG_CAP {
            self.log.pop_front();
        }
        self.log.push_back((time, conn, kind.clone()));
    }

    /// The trailing event log, oldest first, one rendered line per event.
    pub fn event_log(&self) -> impl Iterator<Item = String> + '_ {
        self.log
            .iter()
            .map(|(time, conn, kind)| format!("t={time} conn={conn} {kind:?}"))
    }

    /// How many times [`InvariantOracle::check`] has run: one per event
    /// plus one per connection each time a run call stops.
    pub fn checks_run(&self) -> u64 {
        self.checks
    }

    /// Reports a violation: aborts with the replay label and the event
    /// log in panicking mode, keeps it on record otherwise.
    pub(crate) fn report(&mut self, v: OracleViolation) {
        if self.panic_on_violation {
            let mut msg = format!(
                "[invariant oracle] {v}\nreplay: {}\nevent log (oldest first):\n",
                self.label
            );
            for line in self.event_log() {
                msg.push_str("  ");
                msg.push_str(&line);
                msg.push('\n');
            }
            panic!("{msg}");
        }
        self.store(v);
    }

    /// Appends to the bounded violation buffer, evicting the oldest entry
    /// (and counting it) once [`VIOLATION_CAP`] is reached. Never aborts:
    /// the engine keeps a scheduler fault its supervisor contained on
    /// record this way.
    pub(crate) fn store(&mut self, v: OracleViolation) {
        if self.violations.len() == VIOLATION_CAP {
            self.violations.remove(0);
            self.dropped_violations += 1;
        }
        self.violations.push(v);
    }

    /// Checks every per-event invariant on `conn` at time `now`: the
    /// transport machinery's own. No fallback scheduler can repair an
    /// engine bug, so these are reported whether or not a supervisor is
    /// attached.
    pub fn check(&mut self, now: SimTime, conn: &Connection) {
        self.checks += 1;
        if self.marks.len() <= conn.id {
            self.marks.resize(conn.id + 1, Marks::default());
        }
        let marks = &mut self.marks[conn.id];
        marks.sbf_acked.resize(conn.subflows.len(), 0);

        let mut bad: Vec<(&'static str, String)> = Vec::new();
        let delivered = conn.receiver.delivered_total;
        let expected = conn.receiver.expected();

        if delivered != expected {
            bad.push((
                "conservation-delivery",
                format!("delivered_total {delivered} != expected {expected} (a byte was delivered twice or skipped)"),
            ));
        }
        if conn.stats.delivered_bytes != delivered {
            bad.push((
                "conservation-stats",
                format!(
                    "stats.delivered_bytes {} != receiver.delivered_total {delivered}",
                    conn.stats.delivered_bytes
                ),
            ));
        }
        if expected > conn.enqueued_bytes() {
            bad.push((
                "conservation-bound",
                format!(
                    "receiver expected {expected} > enqueued {} (bytes invented)",
                    conn.enqueued_bytes()
                ),
            ));
        }
        if conn.data_acked < marks.data_acked {
            bad.push((
                "ack-monotone",
                format!(
                    "meta data_acked moved backwards: {} -> {}",
                    marks.data_acked, conn.data_acked
                ),
            ));
        }
        if expected < marks.expected {
            bad.push((
                "ack-monotone",
                format!(
                    "receiver expected moved backwards: {} -> {expected}",
                    marks.expected
                ),
            ));
        }
        if conn.data_acked > expected {
            bad.push((
                "ack-bound",
                format!(
                    "data_acked {} > receiver expected {expected}",
                    conn.data_acked
                ),
            ));
        }
        for (i, sbf) in conn.subflows.iter().enumerate() {
            if sbf.acked_seq < marks.sbf_acked[i] {
                bad.push((
                    "ack-monotone",
                    format!(
                        "subflow {i} acked_seq moved backwards: {} -> {}",
                        marks.sbf_acked[i], sbf.acked_seq
                    ),
                ));
            }
            if sbf.acked_seq > sbf.next_seq {
                bad.push((
                    "ack-bound",
                    format!(
                        "subflow {i} acked_seq {} > next_seq {} (acked the unsent)",
                        sbf.acked_seq, sbf.next_seq
                    ),
                ));
            }
        }
        let ooo = conn.receiver.ooo_bytes();
        let recount = conn.receiver.ooo_recount();
        if ooo != recount {
            bad.push((
                "reorder-accounting",
                format!("incremental ooo_bytes {ooo} != recount {recount}"),
            ));
        }
        if ooo > conn.receiver.buf_cap() {
            bad.push((
                "reorder-accounting",
                format!(
                    "reorder occupancy {ooo} exceeds receive buffer {}",
                    conn.receiver.buf_cap()
                ),
            ));
        }
        if let Err(detail) = conn.queue_invariants(&mut self.stamps) {
            bad.push(("queue-structure", detail));
        }
        marks.data_acked = conn.data_acked;
        marks.expected = expected;
        for (i, sbf) in conn.subflows.iter().enumerate() {
            marks.sbf_acked[i] = sbf.acked_seq;
        }

        for (invariant, detail) in bad {
            self.report(OracleViolation {
                at: now,
                conn: conn.identity as usize,
                invariant,
                detail,
            });
        }
    }
}

/// Checks one scheduler execution against the statically derived
/// property certificate and returns what it violated: every dynamic check
/// enforces a claim the verifier *proved* (or a bound it certified), so
/// any violation here is an analysis soundness bug, not a scheduler bug.
pub fn check_properties(
    now: SimTime,
    conn: usize,
    cert: &PropertyCertificate,
    obs: &PropObservation,
) -> Vec<OracleViolation> {
    let mut found = Vec::new();
    let mut flag = |invariant, detail| {
        found.push(OracleViolation {
            at: now,
            conn,
            invariant,
            detail,
        })
    };
    if cert.work_conservation.status == PropStatus::Proved
        && obs.pre_q_nonempty
        && obs.pre_subflows_nonempty
        && obs.pre_avail_subflow
        && obs.pushes == 0
    {
        flag(
            "property-work-conservation",
            "proved work-conserving, yet an execution with a non-empty send queue \
             and an available subflow pushed nothing"
                .to_string(),
        );
    }
    for &(sbf, _) in &obs.push_targets {
        if !cert.allowed_ids.contains(i64::from(sbf)) {
            flag(
                "property-starvation",
                format!(
                    "PUSH targeted subflow id {sbf}, outside the statically derived \
                     allowed set {}",
                    cert.allowed_ids.render()
                ),
            );
        }
    }
    if !obs.push_targets.is_empty() {
        let cap = cert.dup_bound.eval(obs.n_subflows);
        let targets = &obs.push_targets;
        for (i, &(_, pkt)) in targets.iter().enumerate() {
            // Each packet once, at its first push.
            if targets[..i].iter().any(|&(_, p)| p == pkt) {
                continue;
            }
            let c = targets[i..].iter().filter(|&&(_, p)| p == pkt).count() as u64;
            if c > cap {
                flag(
                    "property-redundancy-bound",
                    format!(
                        "packet {} was pushed {c} times in one execution; the \
                         certificate bounds it by {} = {cap} at n={}",
                        pkt.0,
                        cert.dup_bound.render(),
                        obs.n_subflows
                    ),
                );
            }
        }
    }
    if cert.pops_fully_guarded && obs.null_pops > 0 {
        flag(
            "property-reinjection",
            format!(
                "{} POP(s) observed an empty queue view although every POP site \
                 was proved guarded",
                obs.null_pops
            ),
        );
    }
    found
}

/// Liveness check for when the event queue drains: with unacked data, at
/// least one live subflow, and no scheduler-sanctioned drops, the
/// simulation must not be quiescent. Returns the `eventual-progress`
/// violation if it is.
pub fn check_quiescent(now: SimTime, conn: &Connection) -> Option<OracleViolation> {
    let live = conn.subflows.iter().any(|s| s.established);
    if conn.all_acked() || !live || conn.stats.scheduler_drops != 0 {
        return None;
    }
    // Data stranded exclusively in the reinjection queue is reachable
    // only through `RQ.POP()`; a scheduler that provably never pops RQ
    // (Fig. 3's minimal example) stalls there by design, not by an
    // engine bug.
    let rq_only_strand =
        conn.queue(QueueKind::SendQueue).is_empty() && !conn.queue(QueueKind::Reinject).is_empty();
    if rq_only_strand && !conn.pops_rq() {
        return None;
    }
    Some(OracleViolation {
        at: now,
        conn: conn.identity as usize,
        invariant: "eventual-progress",
        detail: format!(
            "event queue drained with {} of {} bytes unacked, {} live subflow(s), no DROPs",
            conn.enqueued_bytes() - conn.data_acked,
            conn.enqueued_bytes(),
            conn.subflows.iter().filter(|s| s.established).count()
        ),
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cc::CcAlgo;
    use crate::config::SchedulerSpec;
    use crate::connection::Installed;
    use crate::path::{Path, PathConfig};
    use crate::receiver::{Receiver, ReceiverMode};
    use crate::subflow::Subflow;
    use crate::time::from_millis;
    use progmp_core::env::SubflowId;

    /// One subflow, a native min-RTT scheduler, nothing enqueued.
    pub(crate) fn conn() -> Connection {
        let subflows = vec![Subflow::new(
            SubflowId(0),
            Path::new(&PathConfig::symmetric(from_millis(10), 1_250_000)),
            1400,
        )];
        let receiver = Receiver::new(ReceiverMode::Improved, 1, 1 << 20);
        Connection::new(
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
        )
    }

    #[test]
    fn clean_connection_passes_all_checks() {
        let mut oracle = InvariantOracle::new("unit", true);
        let c = conn();
        oracle.check(0, &c);
    }

    #[test]
    fn double_delivery_is_caught() {
        let mut oracle = InvariantOracle::new("unit", false);
        let mut c = conn();
        c.enqueue_data(1400, 0, 0);
        c.receiver.inject_double_delivery_bug();
        let p = progmp_core::env::PacketRef(1);
        c.receiver.on_arrival(0, 0, 0, p, 1400);
        c.stats.delivered_bytes = c.receiver.delivered_total;
        oracle.check(1, &c);
        assert!(oracle.violations.is_empty(), "first copy is legitimate");
        c.receiver.on_arrival(0, 1, 0, p, 1400);
        c.stats.delivered_bytes = c.receiver.delivered_total;
        oracle.check(2, &c);
        assert!(
            oracle
                .violations
                .iter()
                .any(|v| v.invariant == "conservation-delivery"),
            "duplicate delivery must violate conservation: {:?}",
            oracle.violations
        );
    }

    #[test]
    fn backwards_ack_is_caught() {
        let mut oracle = InvariantOracle::new("unit", false);
        let mut c = conn();
        c.enqueue_data(2800, 0, 0);
        c.receiver
            .on_arrival(0, 0, 0, progmp_core::env::PacketRef(1), 1400);
        c.stats.delivered_bytes = 1400;
        c.meta_ack(1400);
        oracle.check(0, &c);
        assert!(oracle.violations.is_empty());
        c.data_acked = 0; // corrupt: cumulative ack regresses
        oracle.check(1, &c);
        assert!(oracle
            .violations
            .iter()
            .any(|v| v.invariant == "ack-monotone"));
    }

    #[test]
    fn quiescent_stall_is_caught_and_drop_exempts() {
        let mut c = conn();
        c.enqueue_data(1400, 0, 0);
        c.subflows[0].established = true;
        let found = check_quiescent(5, &c).map(|v| (v.invariant, v.at, v.conn));
        assert_eq!(
            found,
            Some(("eventual-progress", 5, 0)),
            "stranded data with a live subflow is a liveness violation"
        );
        // An explicit scheduler DROP makes the loss sanctioned.
        c.stats.scheduler_drops = 1;
        assert!(check_quiescent(6, &c).is_none());
    }

    #[test]
    fn rq_only_strand_is_exempt_for_non_reinjecting_schedulers() {
        use progmp_core::env::{Action, SchedulerEnv, NUM_REGISTERS};
        let mut c = conn();
        let pkts = crate::connection::tests::enqueue(&mut c, 1400, 0);
        // Move the segment Q -> QU (a scheduler PUSH), then into RQ
        // (suspected lost) — the post-fault state of a non-reinjecting
        // scheduler.
        c.apply(
            &[0i64; NUM_REGISTERS],
            &[Action::Push {
                subflow: SubflowId(0),
                packet: pkts[0],
            }],
        );
        c.reinject(pkts[0]);
        // Fig. 3's scheduler never reads RQ.
        let fig3 = progmp_core::compile(
            "IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) { SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP()); }",
        )
        .unwrap();
        let fig3 = SchedulerSpec::program(&fig3, progmp_core::Backend::Vm);
        let fig3 = Installed::resolve(fig3, None).unwrap();
        let native = c.installed.replace(fig3).unwrap();
        let found = check_quiescent(5, &c);
        assert!(
            found.is_none(),
            "a scheduler with no RQ logic cannot be blamed for an RQ strand: {found:?}"
        );
        // The same strand under an RQ-capable scheduler is a violation.
        c.installed = Some(native);
        let found = check_quiescent(6, &c).expect("stranded");
        assert_eq!(found.invariant, "eventual-progress");
    }

    #[test]
    fn property_checks_enforce_the_certificate() {
        // A certificate proving everything: wc proved, all ids allowed,
        // dup bound 1, pops fully guarded.
        let cert = progmp_core::compile(
            "IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) { SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP()); }",
        )
        .unwrap()
        .property_certificate()
        .clone();
        assert_eq!(
            cert.work_conservation.status,
            progmp_core::PropStatus::Proved
        );
        // A conforming observation passes.
        let ok = PropObservation {
            pre_q_nonempty: true,
            pre_subflows_nonempty: true,
            pre_avail_subflow: true,
            pushes: 1,
            null_pops: 0,
            push_targets: vec![(0, PacketRef(7))],
            n_subflows: 2,
        };
        let mut found = check_properties(1, 0, &cert, &ok);
        assert!(found.is_empty(), "{found:?}");
        // No push despite the precondition: work-conservation violated.
        let silent = PropObservation {
            pushes: 0,
            push_targets: vec![],
            ..ok.clone()
        };
        found.extend(check_properties(2, 0, &cert, &silent));
        // The same packet pushed twice busts the dup bound of 1.
        let dup = PropObservation {
            pushes: 2,
            push_targets: vec![(0, PacketRef(7)), (1, PacketRef(7))],
            ..ok.clone()
        };
        found.extend(check_properties(3, 0, &cert, &dup));
        // A NULL pop under a fully-guarded certificate.
        let nullpop = PropObservation {
            null_pops: 1,
            ..ok.clone()
        };
        found.extend(check_properties(4, 0, &cert, &nullpop));
        let names: Vec<(&str, SimTime)> = found.iter().map(|v| (v.invariant, v.at)).collect();
        assert_eq!(
            names,
            vec![
                ("property-work-conservation", 2),
                ("property-redundancy-bound", 3),
                ("property-reinjection", 4)
            ],
            "{found:?}"
        );

        // A starver certificate restricts the allowed target ids.
        let starver = progmp_core::compile(
            "VAR fast = SUBFLOWS.FILTER(sbf => sbf.ID == 0).MIN(sbf => sbf.RTT);\n\
             IF (fast != NULL AND !Q.EMPTY) { fast.PUSH(Q.POP()); }",
        )
        .unwrap()
        .property_certificate()
        .clone();
        let stray = PropObservation {
            push_targets: vec![(3, PacketRef(9))],
            ..ok
        };
        let found = check_properties(5, 0, &starver, &stray);
        assert!(
            found.iter().any(|v| v.invariant == "property-starvation"),
            "{found:?}"
        );
    }

    #[test]
    fn violation_buffer_is_bounded_and_counts_drops() {
        let mut oracle = InvariantOracle::new("unit", false);
        for i in 0..(VIOLATION_CAP as u64 + 10) {
            oracle.store(OracleViolation {
                at: i,
                conn: 0,
                invariant: "step-bound",
                detail: String::new(),
            });
        }
        assert_eq!(oracle.violations.len(), VIOLATION_CAP);
        assert_eq!(oracle.dropped_violations, 10);
        // Keep-latest: the survivors are the most recent ones.
        assert_eq!(oracle.violations[0].at, 10);
        assert_eq!(
            oracle.violations.last().unwrap().at,
            VIOLATION_CAP as u64 + 9
        );
    }

    #[test]
    fn replay_log_keeps_the_last_events_and_renders_them_when_read() {
        let mut oracle = InvariantOracle::new("unit", false);
        let last = EVENT_LOG_CAP as u64 + 4;
        for t in 0..=last {
            oracle.log_event(t, 3, &EventKind::Readmit);
        }
        let log: Vec<String> = oracle.event_log().collect();
        assert_eq!(log.len(), EVENT_LOG_CAP);
        assert_eq!(log[0], "t=5 conn=3 Readmit");
        assert_eq!(log[EVENT_LOG_CAP - 1], format!("t={last} conn=3 Readmit"));

        oracle.log_events = false;
        oracle.log_event(last + 1, 3, &EventKind::Readmit);
        assert_eq!(oracle.event_log().last(), log.last().cloned());
    }

    #[test]
    #[should_panic(expected = "conservation-delivery")]
    fn panicking_mode_aborts_with_replay_label() {
        let mut oracle = InvariantOracle::new("seed 42", true);
        let mut c = conn();
        c.receiver.inject_double_delivery_bug();
        let p = progmp_core::env::PacketRef(1);
        c.enqueue_data(1400, 0, 0);
        c.receiver.on_arrival(0, 0, 0, p, 1400);
        c.receiver.on_arrival(0, 1, 0, p, 1400);
        c.stats.delivered_bytes = c.receiver.delivered_total;
        oracle.check(0, &c);
    }
}
