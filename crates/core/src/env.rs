//! The scheduling environment model (paper §3.1).
//!
//! A scheduler program executes against an implementation of
//! [`SchedulerEnv`]: a snapshot view of one MPTCP connection consisting of
//! the sending queue `Q`, the unacknowledged-in-flight queue `QU`, the
//! reinjection queue `RQ`, the set of subflows with their transport state,
//! and the connection's scheduler registers.
//!
//! Side effects produced by a scheduler execution ([`Action`]s) are
//! buffered by the runtime ([`crate::exec::ExecCtx`]) and applied to the
//! environment *after* the execution completes, mirroring the paper's
//! `action_queue` design: "subflow and packet properties are immutable
//! during a single scheduler execution".

use std::fmt;

/// Identifier of one MPTCP subflow within a connection.
///
/// Subflow identifiers are stable for the lifetime of the subflow; the
/// programming model never stores them across executions (registers hold
/// plain integers only), which is how the paper rules out stale subflow
/// references by design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubflowId(pub u32);

impl fmt::Display for SubflowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sbf#{}", self.0)
    }
}

/// Opaque handle to a packet (an `sk_buff` in the kernel implementation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketRef(pub u64);

impl fmt::Display for PacketRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "skb#{}", self.0)
    }
}

/// The three packet queues of the environment model (paper Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueKind {
    /// `Q` — the sending queue, filled by the application.
    SendQueue,
    /// `QU` — unacknowledged packets in flight.
    Unacked,
    /// `RQ` — the reinjection queue of packets with suspected loss.
    Reinject,
}

impl QueueKind {
    /// All queue kinds, in declaration order.
    pub const ALL: [QueueKind; 3] = [
        QueueKind::SendQueue,
        QueueKind::Unacked,
        QueueKind::Reinject,
    ];

    /// The surface-language name of the queue (`Q`, `QU`, `RQ`).
    pub fn name(self) -> &'static str {
        match self {
            QueueKind::SendQueue => "Q",
            QueueKind::Unacked => "QU",
            QueueKind::Reinject => "RQ",
        }
    }
}

impl fmt::Display for QueueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Number of scheduler registers per connection (`R1` .. `R8`).
pub const NUM_REGISTERS: usize = 8;

/// One of the per-connection scheduler registers `R1` .. `R8`.
///
/// Registers are the only state a scheduler retains between executions and
/// the channel through which applications signal scheduling intents
/// (paper §3.2: "Setting Registers").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegId(u8);

impl RegId {
    /// Creates the register with 1-based index `n` (`R1` is `new(1)`).
    ///
    /// Returns `None` if `n` is zero or larger than [`NUM_REGISTERS`].
    pub fn new(n: u8) -> Option<RegId> {
        if n >= 1 && (n as usize) <= NUM_REGISTERS {
            Some(RegId(n - 1))
        } else {
            None
        }
    }

    /// Zero-based index of the register.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Register `R1`, conventionally used for the primary application intent.
    pub const R1: RegId = RegId(0);
    /// Register `R2`.
    pub const R2: RegId = RegId(1);
    /// Register `R3`.
    pub const R3: RegId = RegId(2);
    /// Register `R4`.
    pub const R4: RegId = RegId(3);
    /// Register `R5`.
    pub const R5: RegId = RegId(4);
    /// Register `R6`.
    pub const R6: RegId = RegId(5);
}

impl fmt::Display for RegId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0 + 1)
    }
}

/// Integer- or boolean-valued subflow properties exposed to schedulers.
///
/// Times are in microseconds, sizes in bytes, windows in packets, rates in
/// bytes per second. Boolean properties report `0`/`1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubflowProp {
    /// Stable numeric identifier of the subflow.
    Id,
    /// Smoothed round-trip time estimate (µs).
    Rtt,
    /// Round-trip time mean deviation (µs), the `RTT_VAR` of the paper.
    RttVar,
    /// Congestion window (packets), maintained by the congestion control.
    Cwnd,
    /// Slow-start threshold (packets).
    Ssthresh,
    /// Packets sent but not yet acknowledged on this subflow.
    SkbsInFlight,
    /// Packets accepted by the subflow send buffer but not yet on the wire.
    Queued,
    /// Total packets this subflow has declared lost.
    LostSkbs,
    /// Boolean: subflow is flagged as backup by the path manager.
    IsBackup,
    /// Boolean: subflow is throttled by the TCP-small-queue condition.
    TsqThrottled,
    /// Boolean: subflow is in loss recovery.
    Lossy,
    /// Maximum segment size (bytes).
    Mss,
    /// Delivery-rate estimate (bytes/second), `BW` in the surface language.
    Bw,
    /// Free receive-window space advertised by the peer (bytes).
    RwndFree,
    /// Microseconds since this subflow last carried a packet
    /// (`LAST_ACT_AGE`), useful for probing idle subflows.
    LastActAge,
    /// User-assigned subflow cost/preference weight (`COST`), set through
    /// the extended API; lower is preferred. Defaults to 0.
    Cost,
}

impl SubflowProp {
    /// The property's surface-language name.
    pub fn name(self) -> &'static str {
        match self {
            SubflowProp::Id => "ID",
            SubflowProp::Rtt => "RTT",
            SubflowProp::RttVar => "RTT_VAR",
            SubflowProp::Cwnd => "CWND",
            SubflowProp::Ssthresh => "SSTHRESH",
            SubflowProp::SkbsInFlight => "SKBS_IN_FLIGHT",
            SubflowProp::Queued => "QUEUED",
            SubflowProp::LostSkbs => "LOST_SKBS",
            SubflowProp::IsBackup => "IS_BACKUP",
            SubflowProp::TsqThrottled => "TSQ_THROTTLED",
            SubflowProp::Lossy => "LOSSY",
            SubflowProp::Mss => "MSS",
            SubflowProp::Bw => "BW",
            SubflowProp::RwndFree => "RWND_FREE",
            SubflowProp::LastActAge => "LAST_ACT_AGE",
            SubflowProp::Cost => "COST",
        }
    }

    /// Whether the property is boolean-typed in the surface language.
    pub fn is_bool(self) -> bool {
        matches!(
            self,
            SubflowProp::IsBackup | SubflowProp::TsqThrottled | SubflowProp::Lossy
        )
    }

    /// Resolves a surface-language property name.
    pub fn from_name(name: &str) -> Option<SubflowProp> {
        Some(match name {
            "ID" => SubflowProp::Id,
            "RTT" | "RTT_AVG" => SubflowProp::Rtt,
            "RTT_VAR" => SubflowProp::RttVar,
            "CWND" => SubflowProp::Cwnd,
            "SSTHRESH" => SubflowProp::Ssthresh,
            "SKBS_IN_FLIGHT" => SubflowProp::SkbsInFlight,
            "QUEUED" => SubflowProp::Queued,
            "LOST_SKBS" => SubflowProp::LostSkbs,
            "IS_BACKUP" => SubflowProp::IsBackup,
            "TSQ_THROTTLED" => SubflowProp::TsqThrottled,
            "LOSSY" => SubflowProp::Lossy,
            "MSS" => SubflowProp::Mss,
            "BW" => SubflowProp::Bw,
            "RWND_FREE" => SubflowProp::RwndFree,
            "LAST_ACT_AGE" => SubflowProp::LastActAge,
            "COST" => SubflowProp::Cost,
            _ => return None,
        })
    }

    /// All subflow properties.
    pub const ALL: [SubflowProp; 16] = [
        SubflowProp::Id,
        SubflowProp::Rtt,
        SubflowProp::RttVar,
        SubflowProp::Cwnd,
        SubflowProp::Ssthresh,
        SubflowProp::SkbsInFlight,
        SubflowProp::Queued,
        SubflowProp::LostSkbs,
        SubflowProp::IsBackup,
        SubflowProp::TsqThrottled,
        SubflowProp::Lossy,
        SubflowProp::Mss,
        SubflowProp::Bw,
        SubflowProp::RwndFree,
        SubflowProp::LastActAge,
        SubflowProp::Cost,
    ];
}

/// Integer-valued packet properties exposed to schedulers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketProp {
    /// Data-level (meta) sequence number of the packet's first byte.
    Seq,
    /// Payload size in bytes.
    Size,
    /// User-assigned 32-bit property set through the extended API
    /// (paper §3.2 "Packet Properties"), e.g. an HTTP/2 content class.
    UserProp,
    /// How many times the packet has been transmitted (on any subflow).
    SentCount,
    /// Microseconds since the packet first entered the sending queue.
    Age,
}

impl PacketProp {
    /// The property's surface-language name.
    pub fn name(self) -> &'static str {
        match self {
            PacketProp::Seq => "SEQ",
            PacketProp::Size => "SIZE",
            PacketProp::UserProp => "PROP",
            PacketProp::SentCount => "SENT_COUNT",
            PacketProp::Age => "AGE",
        }
    }

    /// Resolves a surface-language property name.
    pub fn from_name(name: &str) -> Option<PacketProp> {
        Some(match name {
            "SEQ" => PacketProp::Seq,
            "SIZE" | "LENGTH" => PacketProp::Size,
            "PROP" => PacketProp::UserProp,
            "SENT_COUNT" => PacketProp::SentCount,
            "AGE" => PacketProp::Age,
            _ => return None,
        })
    }

    /// All packet properties.
    pub const ALL: [PacketProp; 5] = [
        PacketProp::Seq,
        PacketProp::Size,
        PacketProp::UserProp,
        PacketProp::SentCount,
        PacketProp::Age,
    ];
}

/// A buffered side effect emitted by a scheduler execution.
///
/// Actions are applied to the environment in emission order once the
/// execution finishes. A packet that was popped from a queue but never
/// pushed or dropped produces no action at all and therefore — by
/// construction — remains in its queue: the runtime makes losing packets
/// impossible, as required by paper §3.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Transmit `packet` on `subflow`. If the packet is still in `Q` or
    /// `RQ` the environment moves it to `QU`; repeated pushes of the same
    /// packet on different subflows transmit redundant copies.
    Push {
        /// Target subflow.
        subflow: SubflowId,
        /// Packet to transmit.
        packet: PacketRef,
    },
    /// Remove `packet` from `Q`/`RQ` without transmitting it.
    Drop {
        /// Packet to discard from the schedulable queues.
        packet: PacketRef,
    },
}

/// The complete observable effect of one scheduler execution: the final
/// register file and the ordered action list handed to
/// [`SchedulerEnv::apply`].
///
/// Two executions with equal effect traces are indistinguishable to the
/// environment — this is the comparison unit of the cross-backend
/// differential conformance harness (`progmp-conformance`), which demands
/// bit-identical traces from all three backends.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EffectTrace {
    /// Register file as applied (one entry per completed execution).
    pub registers: Vec<[i64; NUM_REGISTERS]>,
    /// Every action applied, in emission order, tagged with the index of
    /// the execution that emitted it.
    pub actions: Vec<(u32, Action)>,
}

impl EffectTrace {
    /// Number of completed executions recorded.
    pub fn executions(&self) -> usize {
        self.registers.len()
    }

    /// Canonical line-per-effect rendering, stable across runs, for
    /// golden files and divergence reports.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, regs) in self.registers.iter().enumerate() {
            out.push_str(&format!("exec {i} regs ["));
            for (j, r) in regs.iter().enumerate() {
                if j > 0 {
                    out.push(' ');
                }
                out.push_str(&r.to_string());
            }
            out.push_str("]\n");
            for (exec, action) in self.actions.iter().filter(|(e, _)| *e as usize == i) {
                let _ = exec;
                match action {
                    Action::Push { subflow, packet } => {
                        out.push_str(&format!("  push {subflow} {packet}\n"));
                    }
                    Action::Drop { packet } => {
                        out.push_str(&format!("  drop {packet}\n"));
                    }
                }
            }
        }
        out
    }
}

/// A [`SchedulerEnv`] wrapper that records every applied effect into an
/// [`EffectTrace`] before forwarding it to the wrapped environment.
///
/// Reads delegate unchanged, so wrapping is semantically invisible to the
/// scheduler. Used by the conformance harness to capture the exact effect
/// stream of each backend; usable with any environment, including the
/// simulator's meta socket.
#[derive(Debug)]
pub struct RecordingEnv<E> {
    /// The wrapped environment.
    pub inner: E,
    /// Effects recorded so far.
    pub trace: EffectTrace,
}

impl<E: SchedulerEnv> RecordingEnv<E> {
    /// Wraps `inner` with an empty trace.
    pub fn new(inner: E) -> Self {
        RecordingEnv {
            inner,
            trace: EffectTrace::default(),
        }
    }
}

impl<E: SchedulerEnv> SchedulerEnv for RecordingEnv<E> {
    fn subflows(&self) -> &[SubflowId] {
        self.inner.subflows()
    }

    fn subflow_prop(&self, subflow: SubflowId, prop: SubflowProp) -> i64 {
        self.inner.subflow_prop(subflow, prop)
    }

    fn queue(&self, queue: QueueKind) -> &[PacketRef] {
        self.inner.queue(queue)
    }

    fn packet_prop(&self, packet: PacketRef, prop: PacketProp) -> i64 {
        self.inner.packet_prop(packet, prop)
    }

    fn sent_on(&self, packet: PacketRef, subflow: SubflowId) -> bool {
        self.inner.sent_on(packet, subflow)
    }

    fn has_window_for(&self, subflow: SubflowId, packet: PacketRef) -> bool {
        self.inner.has_window_for(subflow, packet)
    }

    fn register(&self, reg: RegId) -> i64 {
        self.inner.register(reg)
    }

    fn registers(&self) -> [i64; NUM_REGISTERS] {
        self.inner.registers()
    }

    fn apply(&mut self, registers: &[i64; NUM_REGISTERS], actions: &[Action]) {
        let exec = self.trace.registers.len() as u32;
        self.trace.registers.push(*registers);
        self.trace
            .actions
            .extend(actions.iter().map(|a| (exec, *a)));
        self.inner.apply(registers, actions);
    }
}

/// Why the runtime invoked the scheduler (paper Fig. 4 calling model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trigger {
    /// New data arrived in the sending queue `Q`.
    NewData,
    /// An acknowledgement was received on some subflow.
    AckReceived,
    /// A packet was added to the reinjection queue `RQ`.
    LossSuspected,
    /// A subflow was established or closed.
    SubflowChange,
    /// An application changed a register through the extended API.
    RegisterChanged,
    /// A retransmission or probe timer fired.
    Timer,
    /// Receive window opened after being full.
    WindowOpened,
}

impl Trigger {
    /// All trigger kinds.
    pub const ALL: [Trigger; 7] = [
        Trigger::NewData,
        Trigger::AckReceived,
        Trigger::LossSuspected,
        Trigger::SubflowChange,
        Trigger::RegisterChanged,
        Trigger::Timer,
        Trigger::WindowOpened,
    ];
}

/// A snapshot view of one MPTCP connection against which scheduler
/// programs execute, plus the effect-application entry point.
///
/// Implementations: the discrete-event simulator's meta socket
/// (`mptcp-sim`), and [`crate::testenv::MockEnv`] for tests and benches.
///
/// During one scheduler execution the runtime only calls the read methods;
/// implementations should return stable values for the duration of the
/// execution (properties are immutable per execution by the model's
/// semantics). Effects are delivered in one batch through
/// [`SchedulerEnv::apply`].
pub trait SchedulerEnv {
    /// The currently established subflows, in establishment order.
    fn subflows(&self) -> &[SubflowId];

    /// Reads an integer/boolean property of `subflow`.
    ///
    /// Must return 0 for unknown subflows rather than panic (a subflow can
    /// disappear between snapshot and property read in exotic
    /// implementations; the model requires graceful degradation).
    fn subflow_prop(&self, subflow: SubflowId, prop: SubflowProp) -> i64;

    /// The packets currently in `queue`, in queue order.
    fn queue(&self, queue: QueueKind) -> &[PacketRef];

    /// Reads an integer property of `packet`.
    fn packet_prop(&self, packet: PacketRef, prop: PacketProp) -> i64;

    /// Whether `packet` has (ever) been transmitted on `subflow`.
    fn sent_on(&self, packet: PacketRef, subflow: SubflowId) -> bool;

    /// Whether the connection-level receive window can accommodate
    /// `packet` if sent on `subflow` now.
    fn has_window_for(&self, subflow: SubflowId, packet: PacketRef) -> bool;

    /// Current value of register `reg`.
    fn register(&self, reg: RegId) -> i64;

    /// The whole register file, `R1` first — what an execution starts
    /// from. Environments that store the file as one array override
    /// this with a copy.
    fn registers(&self) -> [i64; NUM_REGISTERS] {
        std::array::from_fn(|i| {
            self.register(RegId::new((i + 1) as u8).expect("register index in range"))
        })
    }

    /// Applies the buffered effects of one completed scheduler execution:
    /// the final register file and the ordered action list.
    fn apply(&mut self, registers: &[i64; NUM_REGISTERS], actions: &[Action]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_id_bounds() {
        assert_eq!(RegId::new(0), None);
        assert_eq!(RegId::new(1), Some(RegId::R1));
        assert_eq!(RegId::new(8).unwrap().index(), 7);
        assert_eq!(RegId::new(9), None);
        assert_eq!(RegId::R3.to_string(), "R3");
    }

    #[test]
    fn subflow_prop_name_round_trip() {
        for p in SubflowProp::ALL {
            assert_eq!(SubflowProp::from_name(p.name()), Some(p));
        }
        assert_eq!(SubflowProp::from_name("NOPE"), None);
        // RTT_AVG is an alias for the smoothed RTT.
        assert_eq!(SubflowProp::from_name("RTT_AVG"), Some(SubflowProp::Rtt));
    }

    #[test]
    fn packet_prop_name_round_trip() {
        for p in PacketProp::ALL {
            assert_eq!(PacketProp::from_name(p.name()), Some(p));
        }
        assert_eq!(PacketProp::from_name("LENGTH"), Some(PacketProp::Size));
    }

    #[test]
    fn bool_props_flagged() {
        assert!(SubflowProp::IsBackup.is_bool());
        assert!(SubflowProp::TsqThrottled.is_bool());
        assert!(SubflowProp::Lossy.is_bool());
        assert!(!SubflowProp::Rtt.is_bool());
    }

    #[test]
    fn queue_names() {
        assert_eq!(QueueKind::SendQueue.name(), "Q");
        assert_eq!(QueueKind::Unacked.name(), "QU");
        assert_eq!(QueueKind::Reinject.name(), "RQ");
    }

    #[test]
    fn recording_env_captures_effects_and_delegates() {
        use crate::testenv::MockEnv;

        let mut env = MockEnv::new();
        env.add_subflow(0);
        env.push_packet(QueueKind::SendQueue, 7, 0, 100);
        let mut rec = RecordingEnv::new(env);

        let mut regs = [0i64; NUM_REGISTERS];
        regs[0] = 42;
        rec.apply(
            &regs,
            &[Action::Push {
                subflow: SubflowId(0),
                packet: PacketRef(7),
            }],
        );
        rec.apply(
            &regs,
            &[Action::Drop {
                packet: PacketRef(7),
            }],
        );

        assert_eq!(rec.trace.executions(), 2);
        assert_eq!(rec.trace.actions.len(), 2);
        assert_eq!(rec.trace.actions[0].0, 0);
        assert_eq!(rec.trace.actions[1].0, 1);
        // The wrapped env observed the same effects.
        assert_eq!(rec.inner.transmissions.len(), 1);
        assert_eq!(rec.inner.register(RegId::R1), 42);
        let rendered = rec.trace.render();
        assert!(rendered.contains("push sbf#0 skb#7"), "{rendered}");
        assert!(rendered.contains("drop skb#7"), "{rendered}");
    }

    #[test]
    fn equal_traces_compare_equal() {
        let mk = || {
            let mut t = EffectTrace::default();
            t.registers.push([1; NUM_REGISTERS]);
            t.actions.push((
                0,
                Action::Push {
                    subflow: SubflowId(1),
                    packet: PacketRef(2),
                },
            ));
            t
        };
        assert_eq!(mk(), mk());
        assert_eq!(mk().render(), mk().render());
    }
}
