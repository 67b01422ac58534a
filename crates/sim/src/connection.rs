//! The MPTCP meta socket: sending queues, subflow bookkeeping, acknowledge
//! processing, loss recovery, and the [`SchedulerEnv`] implementation the
//! scheduler programming model executes against.
//!
//! A connection handles every transport event that names it — data, an
//! arrival, an ack, a timer, a subflow or path change, a bulk-source poll,
//! a path-manager action — and every transmission a scheduler round asks
//! for. Each handler reads the connection's clock ([`Connection::now`]),
//! pushes the events that follow under the connection's own id, and
//! returns whether the scheduler should run; running it is the engine's
//! job, since a round needs the oracle and the supervisor.

use crate::app::BulkState;
use crate::cc::{lia_alpha_x1024, CcAlgo};
use crate::config::{load, SchedulerSpec};
use crate::engine::{EventKind, Events};
use crate::oracle::QueueStamps;
use crate::packet::SegmentSlab;
use crate::path::{PathEdit, TxOutcome};
use crate::pathman::{PathManager, PmAction};
use crate::receiver::Receiver;
use crate::stats::ConnStats;
use crate::subflow::{Subflow, TxRec};
use crate::supervisor::{ConnContain, ContainState, STALL_CHECK_INTERVAL};
use crate::time::SimTime;
use progmp_core::env::{
    Action, PacketProp, PacketRef, QueueKind, RegId, SchedulerEnv, SubflowId, SubflowProp, Trigger,
    NUM_REGISTERS,
};
use progmp_core::exec::ExecCtx;
use progmp_core::{
    subflow_available, CompileError, ExecError, PropertyCertificate, Quiescence, SchedulerInstance,
    SchedulerProgram,
};

/// The scheduler bound to a connection: a compiled ProgMP program or a
/// native Rust scheduler.
pub(crate) enum SchedulerHandle {
    /// DSL program instance.
    Dsl(SchedulerInstance),
    /// Native Rust scheduler.
    Native(Box<dyn crate::native::NativeScheduler>),
}

impl SchedulerHandle {
    /// Runs one scheduler execution against `ctx`.
    pub(crate) fn execute_once(&mut self, ctx: &mut ExecCtx<'_>) -> Result<(), ExecError> {
        match self {
            // The instance-level execute() applies effects itself; here we
            // need the raw execution because the connection applies
            // effects. Route through the backend-agnostic raw API.
            SchedulerHandle::Dsl(inst) => inst.execute_raw(ctx),
            SchedulerHandle::Native(n) => n.schedule(ctx),
        }
    }
}

/// A scheduler as installed on a connection: the instance and the step
/// budget it runs under; the property certificate the oracle arms and the
/// `RQ` capability are its program's. Every install path (connection
/// creation, [`crate::Sim::set_scheduler`], quarantine) builds one with
/// [`Installed::resolve`]; re-admission restores the one quarantine parked.
pub(crate) struct Installed {
    /// The scheduler instance.
    pub(crate) handle: SchedulerHandle,
    /// Per-execution step budget.
    pub(crate) step_budget: u64,
}

impl Installed {
    /// Binds `spec`, looking a source up in the process-wide table.
    /// Without `step_budget` a DSL instance runs under its program's
    /// certified step bound; native schedulers are opaque, so they get
    /// the blanket budget.
    pub(crate) fn resolve(
        spec: SchedulerSpec,
        step_budget: Option<u64>,
    ) -> Result<Installed, CompileError> {
        let handle = match spec {
            SchedulerSpec::Dsl { source, backend } => {
                SchedulerHandle::Dsl(load(&source)?.instantiate(backend))
            }
            SchedulerSpec::Program { program, backend } => {
                SchedulerHandle::Dsl(program.instantiate(backend))
            }
            SchedulerSpec::Native(n) => SchedulerHandle::Native(n),
        };
        let step_budget = step_budget.unwrap_or_else(|| match &handle {
            SchedulerHandle::Dsl(inst) => inst.program().certified_step_bound(),
            SchedulerHandle::Native(_) => progmp_core::DEFAULT_STEP_BUDGET,
        });
        Ok(Installed {
            handle,
            step_budget,
        })
    }

    /// The guard under which a round of this scheduler provably decides
    /// nothing: its program's certified [`Quiescence`], provided the
    /// budget is at least the certified step bound (a round under a
    /// smaller budget may fault, and a fault is a decision). A native
    /// scheduler is opaque, so its guard never holds.
    pub(crate) fn quiescence(&self) -> Quiescence {
        match &self.handle {
            SchedulerHandle::Dsl(inst)
                if self.step_budget >= inst.program().certified_step_bound() =>
            {
                inst.program().quiescence()
            }
            _ => Quiescence::NEVER,
        }
    }

    /// The program the instance runs; `None` for a native scheduler.
    pub(crate) fn program(&self) -> Option<&SchedulerProgram> {
        match &self.handle {
            SchedulerHandle::Dsl(inst) => Some(inst.program()),
            SchedulerHandle::Native(_) => None,
        }
    }

    /// The property certificate the oracle checks every execution
    /// against: always the running program's own; native schedulers have
    /// none.
    pub(crate) fn cert(&self) -> Option<&PropertyCertificate> {
        self.program().map(SchedulerProgram::property_certificate)
    }
}

/// The sending queue `Q`. [`Connection::enqueue_data`] is its only
/// writer and appends in `seq` order, so `Q` is ascending in `seq`; the
/// scheduler mostly takes its front. Stored as a `Vec` plus the index of
/// the first live entry: the scheduler's view stays one slice, taking
/// the front is a counter bump, and the dead prefix is compacted away
/// once it outweighs the live part (amortised O(1) per removal).
#[derive(Debug, Default)]
struct SendQueue {
    buf: Vec<PacketRef>,
    head: usize,
}

impl SendQueue {
    fn as_slice(&self) -> &[PacketRef] {
        &self.buf[self.head..]
    }

    fn push(&mut self, pkt: PacketRef) {
        self.buf.push(pkt);
    }

    /// Removes the first `n` entries.
    fn drop_front(&mut self, n: usize) {
        self.head += n;
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        } else if self.head >= 32 && self.head * 2 >= self.buf.len() {
            self.buf.drain(..self.head);
            self.head = 0;
        }
    }

    /// Removes the entry at `i` of [`SendQueue::as_slice`], keeping the
    /// order of the rest.
    fn remove(&mut self, i: usize) {
        if i == 0 {
            self.drop_front(1);
        } else {
            self.buf.remove(self.head + i);
        }
    }
}

/// Sender-side state of one MPTCP connection.
pub struct Connection {
    /// Connection index within the simulation.
    pub id: usize,
    /// Global identity for fleet-sharded runs (defaults to `id`): keys
    /// the connection's deterministic random streams, including the
    /// containment supervisor's backoff jitter, so containment behaviour
    /// is invariant under fleet partitioning.
    pub identity: u64,
    /// All subflows, established or not; `SubflowId(i)` indexes this.
    pub subflows: Vec<Subflow>,
    /// Cache of established subflow ids, in establishment order.
    active: Vec<SubflowId>,
    /// All segments ever created, in the connection's segment arena.
    pub segments: SegmentSlab,
    q: SendQueue,
    qu: Vec<PacketRef>,
    rq: Vec<PacketRef>,
    registers: [i64; NUM_REGISTERS],
    /// The installed scheduler (taken while executing).
    pub(crate) installed: Option<Installed>,
    /// The containment record, when a supervisor is attached: where the
    /// connection stands, and what is parked while the fallback runs.
    /// Boxed, so an uncontained connection pays one pointer.
    pub(crate) contain: Option<Box<ConnContain>>,
    /// Receiver-side state.
    pub receiver: Receiver,
    /// Congestion-control algorithm.
    pub cc_algo: CcAlgo,
    /// Maximum segment size.
    pub mss: u32,
    /// Simulation time as seen by property reads: the time of the event
    /// being handled, written by the engine before it dispatches.
    pub now: SimTime,
    next_data_seq: u64,
    /// Meta-level cumulative acknowledged bytes.
    pub data_acked: u64,
    /// Last advertised receive window (bytes).
    pub adv_rwnd: u64,
    /// Measurement state.
    pub stats: ConnStats,
    /// Compressed-execution round limit per trigger.
    pub max_sched_rounds: u32,
    /// Whether timelines are recorded.
    pub record_timelines: bool,
    /// Default packet property for newly enqueued data (set through the
    /// extended API).
    pub default_prop: u32,
    /// Backlogged bulk sources feeding `Q`, indexed by `Refill::source`.
    pub(crate) sources: Vec<BulkState>,
    /// Attached path managers, indexed by `PmTick::manager`.
    pub(crate) managers: Vec<PathManager>,
}

impl Connection {
    /// Creates a connection; the engine populates subflows and receiver.
    pub(crate) fn new(
        id: usize,
        subflows: Vec<Subflow>,
        receiver: Receiver,
        scheduler: Installed,
        cc_algo: CcAlgo,
        mss: u32,
        recv_buf: u64,
    ) -> Self {
        let n = subflows.len();
        let active = subflows
            .iter()
            .filter(|s| s.established)
            .map(|s| s.id)
            .collect();
        Connection {
            id,
            identity: id as u64,
            subflows,
            active,
            segments: SegmentSlab::new(),
            q: SendQueue::default(),
            qu: Vec::new(),
            rq: Vec::new(),
            registers: [0; NUM_REGISTERS],
            installed: Some(scheduler),
            contain: None,
            receiver,
            cc_algo,
            mss,
            now: 0,
            next_data_seq: 0,
            data_acked: 0,
            adv_rwnd: recv_buf,
            stats: ConnStats::new(n),
            max_sched_rounds: 256,
            record_timelines: false,
            default_prop: 0,
            sources: Vec::new(),
            managers: Vec::new(),
        }
    }

    /// Installs `scheduler` — instance (and with it the certificate) and
    /// step budget in one move — unless the fallback holds the connection
    /// (quarantined or pinned): then `scheduler` replaces what is
    /// *parked*, what re-admission will restore, never what is running.
    pub(crate) fn set_scheduler(&mut self, scheduler: Installed) {
        match self.contain.as_mut().and_then(|c| c.parked.as_mut()) {
            Some((parked, _)) => *parked = scheduler,
            None => self.installed = Some(scheduler),
        }
    }

    /// Where the connection sits in the containment state machine;
    /// `Healthy` without containment.
    pub fn contain_state(&self) -> ContainState {
        self.contain
            .as_ref()
            .map_or(ContainState::Healthy, |c| c.state)
    }

    /// The program the connection runs, whose property certificate the
    /// oracle arms: `None` for a native scheduler and while a round
    /// executes.
    pub fn program(&self) -> Option<&SchedulerProgram> {
        self.installed.as_ref()?.program()
    }

    /// The step budget the running scheduler executes under; `None` while
    /// a round executes.
    pub fn step_budget(&self) -> Option<u64> {
        self.installed.as_ref().map(|s| s.step_budget)
    }

    /// Whether the running scheduler can pop the reinjection queue.
    /// Programs that provably never read `RQ` — like the paper's Fig. 3
    /// minimal example — cannot recover reinjected segments, so the
    /// liveness oracle must not hold them to that standard; native
    /// schedulers are assumed fully capable (the strict standard).
    pub fn pops_rq(&self) -> bool {
        self.program()
            .is_none_or(SchedulerProgram::pops_reinjection_queue)
    }

    /// Refreshes the established-subflow cache after a path change.
    pub fn refresh_active(&mut self) {
        self.active = self
            .subflows
            .iter()
            .filter(|s| s.established)
            .map(|s| s.id)
            .collect();
    }

    /// Bytes currently waiting in the sending queue `Q`.
    pub fn q_bytes(&self) -> u64 {
        self.q
            .as_slice()
            .iter()
            .filter_map(|p| self.segments.get(*p))
            .map(|s| u64::from(s.size))
            .sum()
    }

    /// Whether every byte enqueued so far has been acknowledged.
    pub fn all_acked(&self) -> bool {
        self.data_acked >= self.next_data_seq
    }

    /// Total bytes enqueued so far.
    pub fn enqueued_bytes(&self) -> u64 {
        self.next_data_seq
    }

    /// Segment lookup (read-only).
    pub fn segment(&self, pkt: PacketRef) -> Option<&crate::packet::Segment> {
        self.segments.get(pkt)
    }

    /// Splits `bytes` of application data into MSS segments with property
    /// `prop` and appends them to `Q`.
    pub fn enqueue_data(&mut self, bytes: u64, prop: u32, now: SimTime) {
        let mut remaining = bytes;
        while remaining > 0 {
            let size = remaining.min(u64::from(self.mss)) as u32;
            let id = self.segments.alloc(self.next_data_seq, size, prop, now);
            self.next_data_seq += u64::from(size);
            self.q.push(id);
            remaining -= u64::from(size);
        }
        self.stats.enqueued_bytes += bytes;
    }

    /// New application data: into `Q`, and the stall watchdog armed when
    /// containment is on (idempotent while armed). Returns whether the
    /// scheduler should run: always.
    pub(crate) fn on_data(&mut self, queue: &mut Events, bytes: u64, prop: u32) -> bool {
        self.enqueue_data(bytes, prop, self.now);
        if let Some(record) = self.contain.as_mut() {
            if record.arm_watchdog(self.data_acked) {
                let at = self.now + STALL_CHECK_INTERVAL;
                queue.push(at, (self.id, EventKind::StallCheck));
            }
        }
        true
    }

    /// Bulk source `source` polls: while `Q` holds less than its low
    /// watermark, it tops `Q` up to twice that as new data. Returns
    /// whether the scheduler should run: when data was added. The poll is
    /// re-armed after that run ([`Connection::rearm_refill`]).
    pub(crate) fn on_refill(&mut self, queue: &mut Events, source: usize) -> bool {
        if self.sources[source].remaining == 0 {
            return false;
        }
        let q_bytes = self.q_bytes();
        let s = &mut self.sources[source];
        let add = if q_bytes < s.low_watermark {
            (s.low_watermark * 2 - q_bytes).min(s.remaining)
        } else {
            0
        };
        s.remaining -= add;
        let prop = s.prop;
        if add == 0 {
            return false;
        }
        self.on_data(queue, add, prop)
    }

    /// Polls bulk source `source` again one interval from now, unless it
    /// has handed over everything.
    pub(crate) fn rearm_refill(&self, queue: &mut Events, source: usize) {
        let s = &self.sources[source];
        if s.remaining > 0 {
            let refill = (self.id, EventKind::Refill { source });
            queue.push(self.now + s.interval, refill);
        }
    }

    /// Removes all segments fully covered by the meta cumulative ack from
    /// every queue ("acknowledged packets are automatically removed from
    /// *all* queues", paper §3.1). `Q` is ascending in `seq`, so what the
    /// ack covers there is a prefix — empty unless data was acknowledged
    /// that no scheduler ever pushed — and the backlog behind it is never
    /// walked; `QU` and `RQ` are bounded by the windows, not the backlog.
    pub fn meta_ack(&mut self, data_ack: u64) {
        if data_ack <= self.data_acked {
            return;
        }
        self.data_acked = data_ack;
        let segs = &self.segments;
        let covered = |p: &PacketRef| segs.get(*p).is_none_or(|s| s.end_seq() <= data_ack);
        let acked = self.q.as_slice().iter().take_while(|p| covered(p)).count();
        self.q.drop_front(acked);
        self.qu.retain(|p| !covered(p));
        self.rq.retain(|p| !covered(p));
    }

    /// Takes `pkt` out of `Q` and `RQ`; returns whether it was in either.
    /// The scheduler nearly always pushes `Q`'s front; anything else in
    /// `Q` is found by binary search on `seq`.
    fn unqueue(&mut self, pkt: PacketRef) -> bool {
        let q = self.q.as_slice();
        let in_q = if q.first() == Some(&pkt) {
            Some(0)
        } else {
            self.segments.get(pkt).and_then(|seg| {
                let i =
                    q.partition_point(|p| self.segments.get(*p).is_some_and(|s| s.seq < seg.seq));
                (q.get(i) == Some(&pkt)).then_some(i)
            })
        };
        if let Some(i) = in_q {
            self.q.remove(i);
        }
        let in_rq = self.rq.iter().position(|p| *p == pkt);
        if let Some(i) = in_rq {
            self.rq.remove(i);
        }
        in_q.is_some() || in_rq.is_some()
    }

    /// A segment reaches the receiver over subflow `sbf`: the receiver
    /// takes it in, and its acknowledgement is scheduled one reverse-path
    /// delay later. Returns whether the scheduler should run: never.
    pub(crate) fn on_arrival(
        &mut self,
        queue: &mut Events,
        sbf: u32,
        sbf_seq: u64,
        data_seq: u64,
        pkt: PacketRef,
        size: u32,
    ) -> bool {
        let res = self
            .receiver
            .on_arrival(sbf as usize, sbf_seq, data_seq, pkt, size);
        if res.delivered_bytes > 0 {
            self.stats.delivered_bytes += res.delivered_bytes;
            if self.record_timelines {
                let delivered = (self.now, self.receiver.delivered_total);
                self.stats.delivery_timeline.push(delivered);
            }
        }
        let ack = EventKind::Ack {
            sbf,
            sbf_ack: res.sbf_ack,
            data_ack: res.data_ack,
            rwnd: self.receiver.rwnd(),
        };
        let at = self.now + self.subflows[sbf as usize].path.rev_delay;
        queue.push(at, (self.id, ack));
        false
    }

    /// An acknowledgement arrives on subflow `sbf`: the meta and subflow
    /// acks advance, or a third duplicate fast-retransmits the oldest
    /// segment (which also enters `RQ`); the retransmission timer is
    /// re-armed or disarmed, then the tail-loss probe. Returns whether the
    /// scheduler should run: always.
    pub(crate) fn on_ack(
        &mut self,
        queue: &mut Events,
        sbf: u32,
        sbf_ack: u64,
        data_ack: u64,
        rwnd: u64,
    ) -> bool {
        let (sbf_idx, now, conn) = (sbf as usize, self.now, self.id);
        self.adv_rwnd = rwnd;
        self.meta_ack(data_ack);

        let advances = sbf_ack > self.subflows[sbf_idx].acked_seq;
        // Congestion-window validation (RFC 2861): only grow the
        // window when the flow was actually using it; an app-limited
        // subflow must not inflate cwnd without bound.
        let was_cwnd_limited = {
            let s = &self.subflows[sbf_idx];
            s.in_flight() as u64 >= s.cc.cwnd
        };
        // LIA couples over the windows and RTTs as they stand before
        // this ack's RTT sample.
        let factor = match self.cc_algo {
            CcAlgo::Lia if advances && was_cwnd_limited => lia_alpha_x1024(
                self.subflows
                    .iter()
                    .filter(|s| s.established)
                    .map(|s| (s.cc.cwnd, s.rtt.srtt())),
                self.subflows[sbf_idx].cc.cwnd,
            ),
            _ => 1024,
        };

        let s = &mut self.subflows[sbf_idx];
        s.last_activity = now;

        if advances {
            let (pkts, bytes, sample) = s.take_acked(sbf_ack, now);
            s.acked_seq = sbf_ack;
            s.dupacks = 0;
            if let Some(rtt) = sample {
                s.rtt.sample(rtt);
            }
            s.record_delivered(now, bytes);
            if was_cwnd_limited {
                s.cc.on_ack(pkts, factor);
            }
            s.cc.maybe_exit_recovery(sbf_ack);
            if s.in_flight() > 0 {
                s.arm_rto(queue, conn, now);
            } else {
                s.rto_token += 1;
                s.rto_armed = false;
            }
        } else if s.in_flight() > 0 {
            s.dupacks += 1;
            if s.dupacks >= 3 {
                s.dupacks = 0;
                // Fast retransmit: the subflow retransmits its oldest
                // unacked segment on itself (TCP semantics) and the meta
                // level adds the segment to the reinjection queue for the
                // scheduler to recover across subflows.
                if let Some(front) = s.sent.front() {
                    let (pkt, seq) = (front.pkt, front.sbf_seq);
                    s.lost_skbs += 1;
                    s.cc.on_fast_retransmit(sbf_ack, s.next_seq);
                    self.stats.subflows[sbf_idx].fast_retransmits += 1;
                    self.reinject(pkt);
                    self.transmit(queue, sbf_idx, pkt, Some(seq));
                }
            }
        }
        self.subflows[sbf_idx].rearm_tlp(queue, conn, now);
        true
    }

    /// The retransmission timer carrying `token` fires on subflow `sbf`.
    /// Unless it is stale or nothing is in flight (then it disarms and
    /// nothing else happens), every in-flight segment becomes
    /// loss-suspected (entering `RQ`), the window collapses, the oldest
    /// segment is retransmitted on the subflow, and the timer is re-armed
    /// with the backed-off RTO. Returns whether the scheduler should run.
    pub(crate) fn on_rto(&mut self, queue: &mut Events, sbf: u32, token: u64) -> bool {
        let sbf_idx = sbf as usize;
        let s = &mut self.subflows[sbf_idx];
        if !s.rto_due(token) {
            return false;
        }
        let Some(front) = s.sent.front() else {
            s.rto_armed = false;
            return false;
        };
        let (pkt, seq) = (front.pkt, front.sbf_seq);
        s.cc.on_timeout(s.next_seq);
        s.rtt.backoff();
        self.stats.subflows[sbf_idx].timeouts += 1;
        let in_flight = s.in_flight();
        s.lost_skbs += in_flight as u64;
        for i in 0..in_flight {
            let lost = self.subflows[sbf_idx].sent[i].pkt;
            self.reinject(lost);
        }
        self.transmit(queue, sbf_idx, pkt, Some(seq));
        // Armed after the retransmission, whose own arming it leaves
        // alone: the timer was armed when it fired.
        self.subflows[sbf_idx].arm_rto(queue, self.id, self.now);
        true
    }

    /// The tail-loss probe carrying `token` fires on subflow `sbf`: unless
    /// it is stale, the oldest unacked segment is retransmitted and
    /// flagged loss-suspected at the meta level, and the next probe is
    /// armed at the full RTO pace. Returns whether the scheduler should
    /// run: when the probe put something into `RQ`.
    pub(crate) fn on_tlp(&mut self, queue: &mut Events, sbf: u32, token: u64) -> bool {
        let sbf_idx = sbf as usize;
        let Some((pkt, seq)) = self.subflows[sbf_idx].fire_tlp(token) else {
            return false;
        };
        let reinjected = self.reinject(pkt);
        self.transmit(queue, sbf_idx, pkt, Some(seq));
        let s = &mut self.subflows[sbf_idx];
        s.arm_tlp(queue, self.id, self.now + s.rtt.rto());
        reinjected
    }

    /// Adds a segment to the reinjection queue if it is still
    /// unacknowledged and not already queued. Returns true if added.
    pub fn reinject(&mut self, pkt: PacketRef) -> bool {
        let Some(seg) = self.segments.get(pkt) else {
            return false;
        };
        if seg.end_seq() <= self.data_acked {
            return false;
        }
        if self.rq.contains(&pkt) {
            return false;
        }
        self.rq.push(pkt);
        self.stats.reinjections += 1;
        true
    }

    /// Structural queue invariants, checked by the chaos oracle after
    /// every event on this connection: the queues hold only known, unacknowledged segments,
    /// without duplicates, a segment is never simultaneously
    /// schedulable (`Q`/`RQ`) twice, and `Q` ascends in `seq` (what
    /// [`Connection::meta_ack`] and the removal of a pushed packet rely
    /// on). Returns the first violation found. One walk per queue, with
    /// `stamps` recording which queues each segment was seen in.
    pub fn queue_invariants(&self, stamps: &mut QueueStamps) -> Result<(), String> {
        stamps.start(self.segments.len());
        for kind in QueueKind::ALL {
            let (name, queue) = (kind.name(), self.queue(kind));
            let mut q_floor = None;
            let mut duplicate = false;
            for pkt in queue {
                let Some(seg) = self.segments.get(*pkt) else {
                    return Err(format!("{name} holds unknown segment {pkt:?}"));
                };
                if kind == QueueKind::SendQueue {
                    if q_floor.is_some_and(|floor| seg.seq <= floor) {
                        return Err(format!(
                            "Q is not ascending in seq at {pkt:?} (seq {})",
                            seg.seq
                        ));
                    }
                    q_floor = Some(seg.seq);
                }
                if seg.end_seq() <= self.data_acked {
                    return Err(format!(
                        "{name} holds fully acked segment {pkt:?} (end_seq {} <= data_acked {})",
                        seg.end_seq(),
                        self.data_acked
                    ));
                }
                duplicate |= !stamps.mark(*pkt, kind);
            }
            if duplicate {
                return Err(format!("{name} contains a duplicate packet handle"));
            }
        }
        if let Some(pkt) = self
            .q
            .as_slice()
            .iter()
            .find(|p| stamps.holds(**p, QueueKind::Reinject))
        {
            return Err(format!("segment {pkt:?} in both Q and RQ"));
        }
        Ok(())
    }

    /// Marks a subflow established/closed. In-flight segments of a closing
    /// subflow become loss-suspected. Returns `false`, having done
    /// nothing, when the connection has no subflow `sbf_idx`.
    pub fn set_subflow_established(&mut self, sbf_idx: usize, up: bool) -> bool {
        let Some(sbf) = self.subflows.get_mut(sbf_idx) else {
            return false;
        };
        sbf.established = up;
        if !up {
            let drained = sbf.drain_in_flight();
            let n = drained.len() as u64;
            self.subflows[sbf_idx].lost_skbs += n;
            for rec in drained {
                self.reinject(rec.pkt);
            }
        }
        self.refresh_active();
        true
    }

    /// A change to the path under subflow `sbf`: a profile entry, or a
    /// fault window opening or closing. Like every event that names a
    /// subflow the connection does not have, one for an unknown index is
    /// ignored. Returns whether the scheduler should run: never.
    pub(crate) fn change_path(&mut self, sbf: u32, edit: PathEdit) -> bool {
        if let Some(s) = self.subflows.get_mut(sbf as usize) {
            s.path.apply(edit);
        }
        false
    }

    /// The receiving application pauses (or resumes) its reads, as far
    /// as the *sender* sees it: the advertised window collapses to zero
    /// at once (the zero-window advertisement) and reopens with a window
    /// update when the stall clears. Returns whether the scheduler should
    /// run: on the reopening, so it gets a chance to resume.
    pub(crate) fn on_rwnd_stall(&mut self, stalled: bool) -> bool {
        self.receiver.set_stalled(stalled);
        self.adv_rwnd = self.receiver.rwnd();
        !stalled
    }

    /// Applies one path-manager action. Returns whether the scheduler
    /// should run: at once after a subflow that came up or went down; not
    /// after a register write, since the tick runs it once after all of
    /// them.
    pub(crate) fn apply_pm_action(&mut self, action: PmAction) -> bool {
        match action {
            PmAction::SubflowUp(i) => self.set_subflow_established(i as usize, true),
            PmAction::SubflowDown(i) => self.set_subflow_established(i as usize, false),
            PmAction::SetRegister(reg, value) => {
                self.set_register_direct(reg, value);
                false
            }
        }
    }

    /// Ticks path manager `manager` again one interval from now.
    pub(crate) fn rearm_pm(&self, queue: &mut Events, manager: usize) {
        let at = self.now + self.managers[manager].interval;
        queue.push(at, (self.id, EventKind::PmTick { manager }));
    }

    /// One stall-watchdog tick under containment. `None` without a
    /// containment record, or once every byte is acknowledged: the
    /// watchdog retires until new data arms it again. Otherwise whether
    /// the connection stalled — a full period passed with schedulable
    /// work, an available subflow, an open receive window, and zero
    /// forward progress — and when the next check is due. All inputs are
    /// this connection's own state, and the checks fall at multiples of
    /// the period from its own first data, so the verdict is the same
    /// however a fleet is sharded.
    pub(crate) fn watchdog_tick(&mut self) -> Option<(bool, SimTime)> {
        let all_acked = self.all_acked();
        let record = self.contain.as_mut()?;
        if all_acked {
            record.disarm_watchdog();
            return None;
        }
        let progressed = record.watchdog_progressed(self.data_acked);
        let (state, next) = (record.state, self.now + STALL_CHECK_INTERVAL);
        let live = self.subflows.iter().any(|s| s.established);
        // Schedulable work: data reachable through Q or RQ (the fallback
        // pops RQ even when the original program does not).
        let work = !self.q.as_slice().is_empty() || !self.rq.is_empty();
        // An execution right now could actually push: the
        // work-conservation availability precondition. Without this, a
        // path blackout or an exhausted congestion window would be blamed
        // on the scheduler.
        let env: &dyn SchedulerEnv = self;
        let avail = env.subflows().iter().any(|&s| subflow_available(env, s));
        let stalled = !progressed
            && live
            && work
            && avail
            && self.adv_rwnd > 0
            && self.stats.scheduler_drops == 0
            && matches!(state, ContainState::Healthy | ContainState::Probation);
        Some((stalled, next))
    }

    /// Applies the effects of one completed execution, appending the
    /// transmissions it requests to `tx`; the engine passes one list it
    /// reuses for every connection.
    pub fn apply_actions(
        &mut self,
        registers: &[i64; NUM_REGISTERS],
        actions: &[Action],
        tx: &mut Vec<(SubflowId, PacketRef)>,
    ) {
        self.registers = *registers;
        for action in actions {
            match *action {
                Action::Push { subflow, packet } => {
                    let idx = subflow.0 as usize;
                    if self.subflows.get(idx).is_none_or(|s| !s.established) {
                        continue; // vanished subflow: packet stays schedulable
                    }
                    if !self.segments.contains(packet) {
                        continue;
                    }
                    if self.unqueue(packet) && !self.qu.contains(&packet) {
                        self.qu.push(packet);
                    }
                    if let Some(seg) = self.segments.get_mut(packet) {
                        seg.record_tx(subflow);
                        if seg.sent_count == 1 {
                            self.stats.unique_tx_bytes += u64::from(seg.size);
                        }
                    }
                    tx.push((subflow, packet));
                }
                Action::Drop { packet } => {
                    self.unqueue(packet);
                    self.stats.scheduler_drops += 1;
                }
            }
        }
    }

    /// Puts `pkt` on the wire of subflow `sbf_idx` and schedules what
    /// follows, in this order: its arrival (the path decides its fate;
    /// loss and jitter draws come from the path's own stream), the
    /// retransmission timer and the tail-loss probe when they were idle,
    /// and a scheduler trigger at its departure from the egress queue —
    /// the Linux TSQ tasklet's role: a TSQ-throttled subflow becomes
    /// schedulable again then. `reuse_seq` marks a TCP-level
    /// retransmission of an existing subflow sequence number. Does
    /// nothing when the segment is unknown or the subflow is down.
    pub(crate) fn transmit(
        &mut self,
        queue: &mut Events,
        sbf_idx: usize,
        pkt: PacketRef,
        reuse_seq: Option<u64>,
    ) {
        let Some(seg) = self.segments.get(pkt) else {
            return;
        };
        let (size, data_seq, now, conn) = (seg.size, seg.seq, self.now, self.id);
        if !self.subflows[sbf_idx].established {
            return;
        }
        let outcome = self.subflows[sbf_idx].path.transmit(now, size);
        let sbf_seq = self.record_tx(sbf_idx, pkt, size, now, reuse_seq);
        self.stats.tx_packets += 1;
        self.stats.tx_bytes += u64::from(size);
        let ss = &mut self.stats.subflows[sbf_idx];
        ss.tx_packets += 1;
        ss.tx_bytes += u64::from(size);
        if reuse_seq.is_some() {
            ss.retransmissions += 1;
        }
        let sbf = sbf_idx as u32;
        let departs = match outcome {
            TxOutcome::Arrives { at, departs } => {
                let arrival = EventKind::Arrival {
                    sbf,
                    sbf_seq,
                    data_seq,
                    pkt,
                    size,
                };
                queue.push(at, (conn, arrival));
                Some(departs)
            }
            TxOutcome::LostOnWire { departs } => {
                ss.wire_losses += 1;
                Some(departs)
            }
            TxOutcome::QueueDrop => {
                ss.queue_drops += 1;
                None
            }
        };
        if self.record_timelines {
            self.stats.tx_timeline.push((now, sbf, size));
        }
        let s = &mut self.subflows[sbf_idx];
        s.last_activity = now;
        if !s.rto_armed {
            s.arm_rto(queue, conn, now);
        }
        if !s.tlp_armed {
            s.arm_tlp(queue, conn, now + s.pto());
        }
        if let Some(departs) = departs.filter(|&departs| departs > now) {
            let trigger = Trigger::Timer;
            queue.push(departs, (conn, EventKind::Trigger { trigger }));
        }
    }

    /// Records a transmission in the subflow's in-flight list; returns the
    /// assigned subflow sequence number. `reuse_seq` keeps the existing
    /// record for TCP-level retransmissions.
    pub fn record_tx(
        &mut self,
        sbf_idx: usize,
        pkt: PacketRef,
        size: u32,
        now: SimTime,
        reuse_seq: Option<u64>,
    ) -> u64 {
        let sbf = &mut self.subflows[sbf_idx];
        match reuse_seq {
            Some(seq) => {
                if let Some(rec) = sbf.sent.iter_mut().find(|r| r.sbf_seq == seq) {
                    rec.is_rtx = true;
                    rec.sent_at = now;
                }
                seq
            }
            None => {
                let seq = sbf.next_seq;
                sbf.next_seq += 1;
                sbf.sent.push_back(TxRec {
                    sbf_seq: seq,
                    pkt,
                    size,
                    sent_at: now,
                    is_rtx: false,
                });
                seq
            }
        }
    }

    /// Direct register write (the extended API's `setRegister`).
    pub fn set_register_direct(&mut self, reg: RegId, value: i64) {
        self.registers[reg.index()] = value;
    }

    /// Direct register read.
    pub fn register_direct(&self, reg: RegId) -> i64 {
        self.registers[reg.index()]
    }
}

impl SchedulerEnv for Connection {
    fn subflows(&self) -> &[SubflowId] {
        &self.active
    }

    fn subflow_prop(&self, subflow: SubflowId, prop: SubflowProp) -> i64 {
        let Some(sbf) = self.subflows.get(subflow.0 as usize) else {
            return 0;
        };
        if !sbf.established {
            return 0;
        }
        match prop {
            SubflowProp::Id => i64::from(subflow.0),
            SubflowProp::Rtt => (sbf.rtt.srtt() / 1000) as i64, // µs
            SubflowProp::RttVar => (sbf.rtt.rttvar() / 1000) as i64,
            SubflowProp::Cwnd => sbf.cc.cwnd as i64,
            SubflowProp::Ssthresh => sbf.cc.ssthresh.min(i64::MAX as u64) as i64,
            SubflowProp::SkbsInFlight => sbf.in_flight() as i64,
            SubflowProp::Queued => sbf.path.queued_at(self.now) as i64,
            SubflowProp::LostSkbs => sbf.lost_skbs as i64,
            SubflowProp::IsBackup => i64::from(sbf.is_backup),
            SubflowProp::TsqThrottled => i64::from(sbf.tsq_throttled(self.now)),
            SubflowProp::Lossy => i64::from(sbf.cc.lossy()),
            SubflowProp::Mss => i64::from(sbf.mss),
            SubflowProp::Bw => sbf.bw_estimate().min(i64::MAX as u64) as i64,
            SubflowProp::RwndFree => self.adv_rwnd.min(i64::MAX as u64) as i64,
            SubflowProp::LastActAge => (self.now.saturating_sub(sbf.last_activity) / 1000) as i64,
            SubflowProp::Cost => sbf.cost,
        }
    }

    fn queue(&self, queue: QueueKind) -> &[PacketRef] {
        match queue {
            QueueKind::SendQueue => self.q.as_slice(),
            QueueKind::Unacked => &self.qu,
            QueueKind::Reinject => &self.rq,
        }
    }

    fn packet_prop(&self, packet: PacketRef, prop: PacketProp) -> i64 {
        let Some(seg) = self.segments.get(packet) else {
            return 0;
        };
        match prop {
            PacketProp::Seq => seg.seq.min(i64::MAX as u64) as i64,
            PacketProp::Size => i64::from(seg.size),
            PacketProp::UserProp => i64::from(seg.prop),
            PacketProp::SentCount => i64::from(seg.sent_count),
            PacketProp::Age => (self.now.saturating_sub(seg.enqueued_at) / 1000) as i64,
        }
    }

    fn sent_on(&self, packet: PacketRef, subflow: SubflowId) -> bool {
        self.segments
            .get(packet)
            .map(|s| s.sent_on(subflow))
            .unwrap_or(false)
    }

    fn has_window_for(&self, _subflow: SubflowId, packet: PacketRef) -> bool {
        let Some(seg) = self.segments.get(packet) else {
            return false;
        };
        seg.end_seq() <= self.data_acked + self.adv_rwnd
    }

    fn register(&self, reg: RegId) -> i64 {
        self.registers[reg.index()]
    }

    fn registers(&self) -> [i64; NUM_REGISTERS] {
        self.registers
    }

    /// The queue and register effects only: nothing is transmitted. The
    /// engine goes through [`Connection::apply_actions`] to learn what to
    /// put on the wire.
    fn apply(&mut self, registers: &[i64; NUM_REGISTERS], actions: &[Action]) {
        self.apply_actions(registers, actions, &mut Vec::new());
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::path::{Path, PathConfig};
    use crate::receiver::ReceiverMode;
    use crate::time::from_millis;

    fn make_conn() -> Connection {
        let subflows = vec![
            Subflow::new(
                SubflowId(0),
                Path::new(&PathConfig::symmetric(from_millis(10), 1_250_000)),
                1400,
            ),
            Subflow::new(
                SubflowId(1),
                Path::new(&PathConfig::symmetric(from_millis(40), 1_250_000)),
                1400,
            ),
        ];
        let receiver = Receiver::new(ReceiverMode::Improved, 2, 1 << 20);
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

    /// Enqueues `bytes` with property `prop` at time 0 and returns the
    /// new segments: the tail of `Q` they were appended to.
    pub(crate) fn enqueue(c: &mut Connection, bytes: u64, prop: u32) -> Vec<PacketRef> {
        let before = c.queue(QueueKind::SendQueue).len();
        c.enqueue_data(bytes, prop, 0);
        c.queue(QueueKind::SendQueue)[before..].to_vec()
    }

    #[test]
    fn enqueue_segments_data() {
        let mut c = make_conn();
        let pkts = enqueue(&mut c, 3000, 7);
        assert_eq!(pkts.len(), 3, "3000 B at 1400 MSS -> 1400+1400+200");
        assert_eq!(c.q_bytes(), 3000);
        let seg = c.segment(pkts[2]).unwrap();
        assert_eq!(seg.size, 200);
        assert_eq!(seg.seq, 2800);
        assert_eq!(seg.prop, 7);
    }

    #[test]
    fn meta_ack_removes_from_all_queues() {
        let mut c = make_conn();
        let pkts = enqueue(&mut c, 2800, 0);
        // Simulate one pushed, one reinjection-queued.
        c.qu.push(pkts[0]);
        c.q.remove(0);
        c.rq.push(pkts[0]);
        c.meta_ack(1400);
        assert!(c.qu.is_empty());
        assert!(c.rq.is_empty());
        assert_eq!(c.queue(QueueKind::SendQueue).len(), 1);
        assert!(!c.all_acked());
        c.meta_ack(2800);
        assert!(c.all_acked());
    }

    /// The events left on `queue`, in the order they would fire.
    fn drain(queue: &mut Events) -> Vec<EventKind> {
        std::iter::from_fn(|| queue.pop())
            .map(|(_, (_, kind))| kind)
            .collect()
    }

    #[test]
    fn triple_dupack_triggers_fast_retransmit_and_reinjection() {
        let mut c = make_conn();
        let pkts = enqueue(&mut c, 4200, 0);
        for &p in &pkts {
            c.qu.push(p);
            c.record_tx(0, p, 1400, 0, None);
        }
        c.q = SendQueue::default();
        c.now = from_millis(15);
        let mut queue = Events::new();
        for _ in 0..2 {
            assert!(
                c.on_ack(&mut queue, 0, 0, 0, 1 << 20),
                "an ack runs the scheduler"
            );
            assert!(matches!(drain(&mut queue)[..], [EventKind::Tlp { .. }]));
        }
        assert!(c.queue(QueueKind::Reinject).is_empty());
        assert!(c.on_ack(&mut queue, 0, 0, 0, 1 << 20));
        assert_eq!(c.queue(QueueKind::Reinject), &[pkts[0]], "third dupack");
        assert!(c.subflows[0].cc.lossy());
        assert_eq!(c.stats.subflows[0].fast_retransmits, 1);
        assert_eq!(c.stats.subflows[0].retransmissions, 1);
        // The retransmission under its old subflow seq leaves the egress
        // queue, arrives, and arms the idle retransmission timer; the ack
        // pushes the probe out.
        assert!(matches!(
            drain(&mut queue)[..],
            [
                EventKind::Trigger { .. },
                EventKind::Arrival {
                    sbf: 0,
                    sbf_seq: 0,
                    data_seq: 0,
                    ..
                },
                EventKind::Tlp { sbf: 0, .. },
                EventKind::Rto { sbf: 0, .. },
            ]
        ));
    }

    #[test]
    fn ack_advances_and_samples_rtt() {
        let mut c = make_conn();
        let pkts = enqueue(&mut c, 1400, 0);
        c.record_tx(0, pkts[0], 1400, 0, None);
        c.now = from_millis(12);
        let mut queue = Events::new();
        assert!(c.on_ack(&mut queue, 0, 1, 1400, 1 << 20));
        assert!(!c.subflows[0].rto_armed && !c.subflows[0].tlp_armed);
        assert!(queue.is_empty(), "nothing in flight, nothing to time");
        assert_eq!(c.subflows[0].rtt.srtt(), from_millis(12));
        assert_eq!(c.subflows[0].in_flight(), 0);
        assert!(c.all_acked());
    }

    #[test]
    fn rto_reinjects_all_in_flight() {
        let mut c = make_conn();
        let pkts = enqueue(&mut c, 4200, 0);
        for &p in &pkts {
            c.qu.push(p);
            c.record_tx(0, p, 1400, 0, None);
        }
        c.q = SendQueue::default();
        let mut queue = Events::new();
        c.subflows[0].arm_rto(&mut queue, 0, 0);
        let Some((_, (_, EventKind::Rto { token, .. }))) = queue.pop() else {
            panic!("arming schedules the timer");
        };
        c.now = from_millis(300);
        assert!(
            c.on_rto(&mut queue, 0, token),
            "a timeout runs the scheduler"
        );
        assert_eq!(c.queue(QueueKind::Reinject).len(), 3);
        assert_eq!(c.subflows[0].cc.cwnd, 1);
        assert_eq!(c.stats.subflows[0].timeouts, 1);
        assert_eq!(c.stats.subflows[0].retransmissions, 1);
        let events = drain(&mut queue);
        assert!(matches!(
            events[..],
            [
                EventKind::Trigger { .. },
                EventKind::Arrival { sbf_seq: 0, .. },
                EventKind::Tlp { .. },
                EventKind::Rto { .. },
            ]
        ));
        let EventKind::Rto { token: rearmed, .. } = events[3] else {
            unreachable!()
        };
        assert_eq!(rearmed, token + 1, "re-armed under a fresh token");
        assert!(
            !c.on_rto(&mut queue, 0, token),
            "the stale timer does nothing"
        );
        assert!(queue.is_empty());
        assert_eq!(c.stats.subflows[0].timeouts, 1);
    }

    #[test]
    fn subflow_teardown_reinjects_in_flight() {
        let mut c = make_conn();
        let pkts = enqueue(&mut c, 2800, 0);
        for &p in &pkts {
            c.qu.push(p);
            c.record_tx(1, p, 1400, 0, None);
        }
        c.set_subflow_established(1, false);
        assert_eq!(c.subflows()[..], [SubflowId(0)]);
        assert_eq!(c.queue(QueueKind::Reinject).len(), 2);
    }

    #[test]
    fn env_properties_reflect_state() {
        let mut c = make_conn();
        c.subflows[0].rtt.sample(from_millis(10));
        c.subflows[1].is_backup = true;
        c.subflows[1].cost = 3;
        assert_eq!(c.subflow_prop(SubflowId(0), SubflowProp::Rtt), 10_000);
        assert_eq!(c.subflow_prop(SubflowId(0), SubflowProp::Cwnd), 10);
        assert_eq!(c.subflow_prop(SubflowId(1), SubflowProp::IsBackup), 1);
        assert_eq!(c.subflow_prop(SubflowId(1), SubflowProp::Cost), 3);
        assert_eq!(
            c.subflow_prop(SubflowId(9), SubflowProp::Rtt),
            0,
            "unknown subflow reads 0"
        );
    }

    #[test]
    fn has_window_for_respects_advertised_window() {
        let mut c = make_conn();
        c.adv_rwnd = 2000;
        let pkts = enqueue(&mut c, 4200, 0);
        assert!(c.has_window_for(SubflowId(0), pkts[0]));
        assert!(
            !c.has_window_for(SubflowId(0), pkts[2]),
            "beyond window edge"
        );
    }

    /// The queue bookkeeping as it was before `Q` became positional:
    /// every removal is a `retain` over the whole queue. Kept only as
    /// the reference the differential test below compares against.
    #[derive(Default)]
    struct RetainQueues {
        send: Vec<PacketRef>,
        unacked: Vec<PacketRef>,
        reinject: Vec<PacketRef>,
        data_acked: u64,
    }

    impl RetainQueues {
        fn meta_ack(&mut self, segs: &SegmentSlab, data_ack: u64) {
            if data_ack <= self.data_acked {
                return;
            }
            self.data_acked = data_ack;
            let covered = |p: &PacketRef| segs.get(*p).is_none_or(|s| s.end_seq() <= data_ack);
            self.send.retain(|p| !covered(p));
            self.unacked.retain(|p| !covered(p));
            self.reinject.retain(|p| !covered(p));
        }

        fn reinject(&mut self, segs: &SegmentSlab, pkt: PacketRef) {
            let live = segs.get(pkt).is_some_and(|s| s.end_seq() > self.data_acked);
            if live && !self.reinject.contains(&pkt) {
                self.reinject.push(pkt);
            }
        }

        fn apply(&mut self, c: &Connection, actions: &[Action]) {
            for action in actions {
                match *action {
                    Action::Push { subflow, packet } => {
                        let up = c
                            .subflows
                            .get(subflow.0 as usize)
                            .is_some_and(|s| s.established);
                        if !up || !c.segments.contains(packet) {
                            continue;
                        }
                        let before = self.send.len() + self.reinject.len();
                        self.send.retain(|p| *p != packet);
                        self.reinject.retain(|p| *p != packet);
                        let was_queued = before != self.send.len() + self.reinject.len();
                        if was_queued && !self.unacked.contains(&packet) {
                            self.unacked.push(packet);
                        }
                    }
                    Action::Drop { packet } => {
                        self.send.retain(|p| *p != packet);
                        self.reinject.retain(|p| *p != packet);
                    }
                }
            }
        }
    }

    /// Random enqueue / push (front of `Q`, middle of `Q`, from `RQ`,
    /// already sent, unknown, to a closed subflow) / drop / reinject /
    /// cumulative-ack sequences through the connection and through the
    /// `retain`-based reference: `Q`, `QU` and `RQ` agree after every
    /// step, and the queue invariants (including `Q` ascending) hold.
    #[test]
    fn positional_queues_match_the_retain_reference() {
        for seed in 0..40u64 {
            let mut rng = crate::faults::ChaosRng::new(0xD1FF ^ seed);
            let mut c = make_conn();
            // A third subflow that is down: pushes to it must not queue.
            c.subflows.push(Subflow::new(
                SubflowId(2),
                Path::new(&PathConfig::symmetric(from_millis(20), 1_250_000)),
                1400,
            ));
            c.set_subflow_established(2, false);
            let mut reference = RetainQueues::default();
            let pick = |rng: &mut crate::faults::ChaosRng, queue: &[PacketRef], front: bool| {
                if queue.is_empty() {
                    PacketRef(9_999_999) // resolves to no segment
                } else if front {
                    queue[0]
                } else {
                    queue[rng.below(queue.len() as u64) as usize]
                }
            };
            for step in 0..600 {
                let regs = [0i64; NUM_REGISTERS];
                match rng.below(10) {
                    0 | 1 => {
                        // Long enough, now and then, for the dead prefix
                        // of `Q` to be compacted away.
                        let bytes = 1 + rng.below(if step % 7 == 0 { 120_000 } else { 9_000 });
                        reference.send.extend(enqueue(&mut c, bytes, 0));
                    }
                    2..=6 => {
                        let actions: Vec<Action> = (0..1 + rng.below(3))
                            .map(|_| {
                                let packet = match rng.below(8) {
                                    0..=3 => pick(&mut rng, c.queue(QueueKind::SendQueue), true),
                                    4 => pick(&mut rng, c.queue(QueueKind::SendQueue), false),
                                    5 => pick(&mut rng, c.queue(QueueKind::Reinject), false),
                                    6 => pick(&mut rng, c.queue(QueueKind::Unacked), false),
                                    _ => PacketRef(rng.below(c.segments.len() as u64 + 3)),
                                };
                                if rng.below(6) == 0 {
                                    Action::Drop { packet }
                                } else {
                                    let subflow = SubflowId(rng.below(4) as u32);
                                    Action::Push { subflow, packet }
                                }
                            })
                            .collect();
                        reference.apply(&c, &actions);
                        c.apply(&regs, &actions);
                    }
                    7 => {
                        let pkt = pick(&mut rng, c.queue(QueueKind::Unacked), false);
                        reference.reinject(&c.segments, pkt);
                        c.reinject(pkt);
                    }
                    _ => {
                        // Up to a segment boundary or into a segment,
                        // sometimes beyond what was ever pushed.
                        let data_ack = (c.data_acked + rng.below(6 * 1400)).min(c.enqueued_bytes());
                        reference.meta_ack(&c.segments, data_ack);
                        c.meta_ack(data_ack);
                    }
                }
                for (kind, want) in [
                    (QueueKind::SendQueue, &reference.send),
                    (QueueKind::Unacked, &reference.unacked),
                    (QueueKind::Reinject, &reference.reinject),
                ] {
                    assert_eq!(
                        c.queue(kind),
                        want.as_slice(),
                        "seed {seed} step {step}: {kind}"
                    );
                }
                c.queue_invariants(&mut QueueStamps::default())
                    .unwrap_or_else(|e| panic!("seed {seed} step {step}: {e}"));
            }
        }
    }

    /// A connection with three 1400-byte segments in `Q`
    /// (`PacketRef(1..=3)`), broken by `breach`; returns the first
    /// `queue-structure` violation it reports.
    fn queue_breach(breach: impl FnOnce(&mut Connection)) -> String {
        let mut c = make_conn();
        c.enqueue_data(4200, 0, 0);
        let mut stamps = QueueStamps::default();
        assert_eq!(c.queue_invariants(&mut stamps), Ok(()));
        breach(&mut c);
        c.queue_invariants(&mut stamps).unwrap_err()
    }

    #[test]
    fn queue_invariants_name_each_breach() {
        type Breach = fn(&mut Connection);
        let cases: [(&str, Breach, &str); 7] = [
            (
                "unknown segment",
                |c| c.rq.push(PacketRef(99)),
                "RQ holds unknown segment PacketRef(99)",
            ),
            (
                "Q not ascending",
                |c| c.q.buf.swap(0, 1),
                "Q is not ascending in seq at PacketRef(1) (seq 0)",
            ),
            (
                "fully acked entry",
                |c| c.data_acked = 1400,
                "Q holds fully acked segment PacketRef(1) (end_seq 1400 <= data_acked 1400)",
            ),
            (
                "duplicate in QU",
                |c| c.qu.extend([PacketRef(2), PacketRef(1), PacketRef(2)]),
                "QU contains a duplicate packet handle",
            ),
            (
                "duplicate in RQ",
                |c| {
                    c.q.drop_front(3);
                    c.rq.extend([PacketRef(3), PacketRef(1), PacketRef(3)]);
                },
                "RQ contains a duplicate packet handle",
            ),
            (
                "segment in both Q and RQ",
                |c| c.rq.extend([PacketRef(3), PacketRef(2)]),
                "segment PacketRef(2) in both Q and RQ",
            ),
            (
                // The walk reports an unknown segment before the
                // duplicate that precedes it in the same queue.
                "duplicate, then unknown segment",
                |c| c.qu.extend([PacketRef(1), PacketRef(1), PacketRef(0)]),
                "QU holds unknown segment PacketRef(0)",
            ),
        ];
        for (what, breach, want) in cases {
            assert_eq!(queue_breach(breach), want, "{what}");
        }
    }

    #[test]
    fn push_action_to_closed_subflow_keeps_packet() {
        let mut c = make_conn();
        let pkts = enqueue(&mut c, 1400, 0);
        c.set_subflow_established(1, false);
        let regs = [0i64; NUM_REGISTERS];
        let mut tx = Vec::new();
        c.apply_actions(
            &regs,
            &[Action::Push {
                subflow: SubflowId(1),
                packet: pkts[0],
            }],
            &mut tx,
        );
        assert_eq!(c.queue(QueueKind::SendQueue).len(), 1);
        assert!(tx.is_empty());
    }
}
