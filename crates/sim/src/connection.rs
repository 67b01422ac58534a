//! The MPTCP meta socket: sending queues, subflow bookkeeping, acknowledge
//! processing, loss recovery, and the [`SchedulerEnv`] implementation the
//! scheduler programming model executes against.

use crate::cc::{lia_alpha_x1024, CcAlgo};
use crate::packet::SegmentSlab;
use crate::path::TxOutcome;
use crate::receiver::Receiver;
use crate::stats::ConnStats;
use crate::subflow::{Subflow, Timer, TxRec};
use crate::supervisor::{ConnContain, ContainState};
use crate::time::SimTime;
use progmp_core::env::{
    Action, PacketProp, PacketRef, QueueKind, RegId, SchedulerEnv, SubflowId, SubflowProp,
    NUM_REGISTERS,
};
use progmp_core::exec::ExecCtx;
use progmp_core::{ExecError, PropertyCertificate, SchedulerInstance};

/// The scheduler bound to a connection: a compiled ProgMP program or a
/// native Rust scheduler.
pub enum SchedulerHandle {
    /// DSL program instance.
    Dsl(SchedulerInstance),
    /// Native Rust scheduler.
    Native(Box<dyn crate::native::NativeScheduler>),
}

impl SchedulerHandle {
    /// Runs one scheduler execution against `ctx`.
    pub fn execute_once(&mut self, ctx: &mut ExecCtx<'_>) -> Result<(), ExecError> {
        match self {
            // The instance-level execute() applies effects itself; here we
            // need the raw execution because the connection applies
            // effects. Route through the backend-agnostic raw API.
            SchedulerHandle::Dsl(inst) => inst.execute_raw(ctx),
            SchedulerHandle::Native(n) => n.schedule(ctx),
        }
    }
}

/// A scheduler as installed on a connection: the instance together with
/// what must always describe *that* instance — the property certificate
/// the oracle arms, whether the liveness check may expect it to drain
/// `RQ`, and the step budget it runs under. Every install path
/// (connection creation, quarantine and re-admission,
/// [`crate::Sim::set_scheduler`]) builds one with [`Installed::new`] and
/// swaps it in whole.
pub struct Installed {
    /// The scheduler instance.
    pub handle: SchedulerHandle,
    /// Stands in for the program's own certificate when set (the
    /// [`crate::ConnectionConfig::cert_override`] testing hook). Boxed:
    /// the engine moves the whole `Installed` out and back around every
    /// execution, and a certificate is large and almost never there.
    pub cert_override: Option<Box<PropertyCertificate>>,
    /// Per-execution step budget.
    pub step_budget: u64,
}

impl Installed {
    /// A DSL instance runs under its program's certified step bound;
    /// native schedulers are opaque, so they get the blanket budget.
    pub fn new(handle: SchedulerHandle) -> Self {
        let step_budget = match &handle {
            SchedulerHandle::Dsl(inst) => inst.program().certified_step_bound(),
            SchedulerHandle::Native(_) => progmp_core::DEFAULT_STEP_BUDGET,
        };
        Installed {
            handle,
            cert_override: None,
            step_budget,
        }
    }

    /// The property certificate the oracle checks every execution
    /// against: the override when set, else the (shared) program's own;
    /// native schedulers have none.
    pub fn cert(&self) -> Option<&PropertyCertificate> {
        match (&self.cert_override, &self.handle) {
            (Some(cert), _) => Some(cert.as_ref()),
            (None, SchedulerHandle::Dsl(inst)) => Some(inst.program().property_certificate()),
            (None, SchedulerHandle::Native(_)) => None,
        }
    }

    /// Whether the scheduler can pop the reinjection queue. Programs that
    /// provably never read `RQ` — like the paper's Fig. 3 minimal
    /// example — cannot recover reinjected segments, so the liveness
    /// oracle must not hold them to that standard; native schedulers are
    /// assumed fully capable (the strict standard).
    pub fn pops_rq(&self) -> bool {
        match &self.handle {
            SchedulerHandle::Dsl(inst) => inst.program().pops_reinjection_queue(),
            SchedulerHandle::Native(_) => true,
        }
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

/// What an acknowledgement or a timeout did, so the engine can schedule
/// follow-ups.
#[derive(Debug, Default)]
pub struct AckOutcome {
    /// The retransmission timer, when it was re-armed.
    pub rearm_rto: Option<Timer>,
    /// The timer was disarmed (nothing in flight).
    pub disarm_rto: bool,
    /// Packets the subflow must auto-retransmit on itself (fast
    /// retransmit), as (packet, existing subflow seq).
    pub auto_retransmit: Vec<(PacketRef, u64)>,
    /// Whether a loss was suspected (packets entered `RQ`).
    pub loss_suspected: bool,
}

/// What one transmission leaves for the engine to schedule.
#[derive(Debug)]
pub struct Transmitted {
    /// The segment reaches the receiver, as `(at, subflow seq, data seq,
    /// size)`; `None` when it was lost on the wire or tail-dropped.
    pub arrival: Option<(SimTime, u64, u64, u32)>,
    /// When the packet leaves the egress queue; `None` when tail-dropped.
    pub departs: Option<SimTime>,
    /// The retransmission timer, when this transmission armed it.
    pub rto: Option<Timer>,
    /// The tail-loss probe, when this transmission armed it.
    pub tlp: Option<Timer>,
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
}

impl Connection {
    /// Creates a connection; the engine populates subflows and receiver.
    pub fn new(
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
        }
    }

    /// Installs `scheduler` — instance, certificate and step budget in
    /// one move — unless the fallback holds the connection (quarantined
    /// or pinned): then `scheduler` replaces what is *parked*, what
    /// re-admission will restore, never what is running.
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

    /// The installed scheduler (`None` only while it executes).
    pub fn installed(&self) -> Option<&Installed> {
        self.installed.as_ref()
    }

    /// Whether the installed scheduler can pop the reinjection queue
    /// (see [`Installed::pops_rq`]).
    pub fn pops_rq(&self) -> bool {
        self.installed.as_ref().is_none_or(Installed::pops_rq)
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
    /// `prop` and appends them to `Q`. Returns the created handles.
    pub fn enqueue_data(&mut self, bytes: u64, prop: u32, now: SimTime) -> Vec<PacketRef> {
        let mut out = Vec::new();
        let mut remaining = bytes;
        while remaining > 0 {
            let size = remaining.min(u64::from(self.mss)) as u32;
            let id = self.segments.alloc(self.next_data_seq, size, prop, now);
            self.next_data_seq += u64::from(size);
            self.q.push(id);
            out.push(id);
            remaining -= u64::from(size);
        }
        self.stats.enqueued_bytes += bytes;
        out
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

    /// Processes an acknowledgement arriving on subflow `sbf_idx`.
    #[allow(clippy::too_many_arguments)]
    pub fn handle_ack(
        &mut self,
        sbf_idx: usize,
        sbf_ack: u64,
        data_ack: u64,
        rwnd: u64,
        now: SimTime,
    ) -> AckOutcome {
        let mut out = AckOutcome::default();
        self.adv_rwnd = rwnd;
        self.meta_ack(data_ack);

        let advances = sbf_ack > self.subflows[sbf_idx].acked_seq;
        // Congestion-window validation (RFC 2861): only grow the
        // window when the flow was actually using it; an app-limited
        // subflow must not inflate cwnd without bound.
        let was_cwnd_limited = {
            let sbf = &self.subflows[sbf_idx];
            sbf.in_flight() as u64 >= sbf.cc.cwnd
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

        let sbf = &mut self.subflows[sbf_idx];
        sbf.last_activity = now;

        if advances {
            let (pkts, bytes, sample) = sbf.take_acked(sbf_ack, now);
            sbf.acked_seq = sbf_ack;
            sbf.dupacks = 0;
            if let Some(rtt) = sample {
                sbf.rtt.sample(rtt);
            }
            sbf.record_delivered(now, bytes);
            if was_cwnd_limited {
                sbf.cc.on_ack(pkts, factor);
            }
            sbf.cc.maybe_exit_recovery(sbf_ack);
            if sbf.in_flight() > 0 {
                out.rearm_rto = Some(sbf.arm_rto(now));
            } else {
                sbf.rto_token += 1;
                sbf.rto_armed = false;
                out.disarm_rto = true;
            }
        } else if sbf.in_flight() > 0 {
            sbf.dupacks += 1;
            if sbf.dupacks >= 3 {
                sbf.dupacks = 0;
                // Fast retransmit: the subflow retransmits its oldest
                // unacked segment on itself (TCP semantics) and the meta
                // level adds the segment to the reinjection queue for the
                // scheduler to recover across subflows.
                if let Some(front) = sbf.sent.front() {
                    let (pkt, seq) = (front.pkt, front.sbf_seq);
                    sbf.lost_skbs += 1;
                    sbf.cc.on_fast_retransmit(sbf_ack, sbf.next_seq);
                    self.stats.subflows[sbf_idx].fast_retransmits += 1;
                    out.auto_retransmit.push((pkt, seq));
                    out.loss_suspected = self.reinject(pkt);
                }
            }
        }
        out
    }

    /// Handles a retransmission-timeout on `sbf_idx`: every in-flight
    /// segment becomes loss-suspected (entering `RQ`), the window
    /// collapses, the oldest segment is retransmitted on the subflow, and
    /// the timer is re-armed with the backed-off RTO.
    pub fn handle_rto(&mut self, sbf_idx: usize, now: SimTime) -> AckOutcome {
        let mut out = AckOutcome::default();
        let sbf = &mut self.subflows[sbf_idx];
        if sbf.in_flight() == 0 {
            sbf.rto_armed = false;
            out.disarm_rto = true;
            return out;
        }
        sbf.cc.on_timeout(sbf.next_seq);
        sbf.rtt.backoff();
        out.rearm_rto = Some(sbf.arm_rto(now));
        self.stats.subflows[sbf_idx].timeouts += 1;
        let in_flight: Vec<(PacketRef, u64)> =
            sbf.sent.iter().map(|r| (r.pkt, r.sbf_seq)).collect();
        sbf.lost_skbs += in_flight.len() as u64;
        if let Some(&(pkt, seq)) = in_flight.first() {
            out.auto_retransmit.push((pkt, seq));
        }
        for &(pkt, _) in &in_flight {
            out.loss_suspected |= self.reinject(pkt);
        }
        out
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
    /// on). Returns the first violation found.
    pub fn queue_invariants(&self) -> Result<(), String> {
        for kind in QueueKind::ALL {
            let (name, queue) = (kind.name(), self.queue(kind));
            let mut q_floor = None;
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
            }
            let mut seen = queue.iter().collect::<Vec<_>>();
            seen.sort_unstable();
            seen.dedup();
            if seen.len() != queue.len() {
                return Err(format!("{name} contains a duplicate packet handle"));
            }
        }
        if let Some(pkt) = self.q.as_slice().iter().find(|p| self.rq.contains(p)) {
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

    /// Puts `pkt` on the wire of subflow `sbf_idx`: the path decides its
    /// fate (loss and jitter draws come from the path's own stream), the
    /// subflow records it in flight and arms the timers that were idle.
    /// `reuse_seq` marks a TCP-level retransmission of an existing
    /// subflow sequence number. `None` when the segment is unknown or the
    /// subflow is down.
    pub fn transmit(
        &mut self,
        sbf_idx: usize,
        pkt: PacketRef,
        now: SimTime,
        reuse_seq: Option<u64>,
    ) -> Option<Transmitted> {
        let seg = self.segments.get(pkt)?;
        let (size, data_seq) = (seg.size, seg.seq);
        if !self.subflows[sbf_idx].established {
            return None;
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
        let (arrival, departs) = match outcome {
            TxOutcome::Arrives { at, departs } => {
                (Some((at, sbf_seq, data_seq, size)), Some(departs))
            }
            TxOutcome::LostOnWire { departs } => {
                ss.wire_losses += 1;
                (None, Some(departs))
            }
            TxOutcome::QueueDrop => {
                ss.queue_drops += 1;
                (None, None)
            }
        };
        if self.record_timelines {
            self.stats.tx_timeline.push((now, sbf_idx as u32, size));
        }
        let s = &mut self.subflows[sbf_idx];
        s.last_activity = now;
        Some(Transmitted {
            arrival,
            departs,
            rto: (!s.rto_armed).then(|| s.arm_rto(now)),
            tlp: (!s.tlp_armed).then(|| s.arm_tlp(now + s.pto())),
        })
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
mod tests {
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
            Installed::new(SchedulerHandle::Native(Box::new(
                crate::native::NativeMinRtt,
            ))),
            CcAlgo::Reno,
            1400,
            1 << 20,
        )
    }

    #[test]
    fn enqueue_segments_data() {
        let mut c = make_conn();
        let pkts = c.enqueue_data(3000, 7, 0);
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
        let pkts = c.enqueue_data(2800, 0, 0);
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

    #[test]
    fn triple_dupack_triggers_fast_retransmit_and_reinjection() {
        let mut c = make_conn();
        let pkts = c.enqueue_data(4200, 0, 0);
        for (i, &p) in pkts.iter().enumerate() {
            c.qu.push(p);
            c.record_tx(0, p, 1400, 0, None);
            let _ = i;
        }
        c.q = SendQueue::default();
        let mut loss = false;
        for _ in 0..3 {
            let out = c.handle_ack(0, 0, 0, 1 << 20, from_millis(15));
            loss |= out.loss_suspected;
            if loss {
                assert_eq!(out.auto_retransmit.len(), 1);
                assert_eq!(out.auto_retransmit[0].0, pkts[0]);
            }
        }
        assert!(loss, "third dupack suspects loss");
        assert_eq!(c.queue(QueueKind::Reinject), &[pkts[0]]);
        assert!(c.subflows[0].cc.lossy());
    }

    #[test]
    fn ack_advances_and_samples_rtt() {
        let mut c = make_conn();
        let pkts = c.enqueue_data(1400, 0, 0);
        c.record_tx(0, pkts[0], 1400, 0, None);
        let out = c.handle_ack(0, 1, 1400, 1 << 20, from_millis(12));
        assert!(out.disarm_rto);
        assert_eq!(c.subflows[0].rtt.srtt(), from_millis(12));
        assert_eq!(c.subflows[0].in_flight(), 0);
        assert!(c.all_acked());
    }

    #[test]
    fn rto_reinjects_all_in_flight() {
        let mut c = make_conn();
        let pkts = c.enqueue_data(4200, 0, 0);
        for &p in &pkts {
            c.qu.push(p);
            c.record_tx(0, p, 1400, 0, None);
        }
        c.q = SendQueue::default();
        let out = c.handle_rto(0, from_millis(300));
        assert!(out.loss_suspected);
        assert_eq!(c.queue(QueueKind::Reinject).len(), 3);
        assert_eq!(c.subflows[0].cc.cwnd, 1);
        assert_eq!(out.auto_retransmit.len(), 1);
    }

    #[test]
    fn subflow_teardown_reinjects_in_flight() {
        let mut c = make_conn();
        let pkts = c.enqueue_data(2800, 0, 0);
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
        let pkts = c.enqueue_data(4200, 0, 0);
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
                        reference.send.extend(c.enqueue_data(bytes, 0, 0));
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
                c.queue_invariants()
                    .unwrap_or_else(|e| panic!("seed {seed} step {step}: {e}"));
            }
        }
    }

    #[test]
    fn queue_invariants_report_a_q_that_does_not_ascend() {
        let mut c = make_conn();
        c.enqueue_data(4200, 0, 0);
        assert_eq!(c.queue_invariants(), Ok(()));
        c.q.buf.swap(0, 1);
        let err = c.queue_invariants().unwrap_err();
        assert!(err.contains("not ascending"), "{err}");
    }

    #[test]
    fn push_action_to_closed_subflow_keeps_packet() {
        let mut c = make_conn();
        let pkts = c.enqueue_data(1400, 0, 0);
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
