//! A self-contained in-memory [`SchedulerEnv`] for tests, examples, and
//! micro-benchmarks.
//!
//! `MockEnv` models the environment semantics the real transport
//! implements: acknowledged packets vanish from all queues, pushed packets
//! move from `Q`/`RQ` to `QU`, and transmissions are recorded per subflow.
//! It performs no actual networking — `mptcp-sim` provides the full
//! event-driven substrate.

use crate::env::{
    Action, PacketProp, PacketRef, QueueKind, RegId, SchedulerEnv, SubflowId, SubflowProp,
    NUM_REGISTERS,
};
use std::collections::HashMap;

/// Mutable per-subflow state of the mock environment.
#[derive(Debug, Clone)]
pub struct MockSubflow {
    /// Identifier.
    pub id: SubflowId,
    /// Property table; unset properties read as 0.
    pub props: HashMap<SubflowProp, i64>,
    /// Whether `HAS_WINDOW_FOR` reports true (per-subflow toggle).
    pub has_window: bool,
}

/// Mutable per-packet state of the mock environment.
#[derive(Debug, Clone)]
pub struct MockPacket {
    /// Handle.
    pub id: PacketRef,
    /// Property table; unset properties read as 0.
    pub props: HashMap<PacketProp, i64>,
    /// Subflows this packet has been transmitted on.
    pub sent_on: Vec<SubflowId>,
}

/// In-memory scheduler environment with explicit state setters.
#[derive(Debug, Clone, Default)]
pub struct MockEnv {
    subflow_order: Vec<SubflowId>,
    subflows: HashMap<SubflowId, MockSubflow>,
    packets: HashMap<PacketRef, MockPacket>,
    queues: HashMap<QueueKind, Vec<PacketRef>>,
    registers: [i64; NUM_REGISTERS],
    /// Log of every `Push` applied, in order: (subflow, packet).
    pub transmissions: Vec<(SubflowId, PacketRef)>,
    /// Log of every `Drop` applied, in order.
    pub dropped: Vec<PacketRef>,
}

impl MockEnv {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a subflow with all properties zero and window available.
    pub fn add_subflow(&mut self, id: u32) -> &mut MockSubflow {
        let sid = SubflowId(id);
        self.subflow_order.push(sid);
        self.subflows.entry(sid).or_insert(MockSubflow {
            id: sid,
            props: HashMap::new(),
            has_window: true,
        });
        let sbf = self.subflows.get_mut(&sid).expect("just inserted");
        sbf.props.insert(SubflowProp::Id, i64::from(id));
        sbf
    }

    /// Removes a subflow (simulates sudden disappearance).
    pub fn remove_subflow(&mut self, id: u32) {
        let sid = SubflowId(id);
        self.subflow_order.retain(|s| *s != sid);
        self.subflows.remove(&sid);
    }

    /// Sets one property of an existing subflow.
    pub fn set_subflow_prop(&mut self, id: u32, prop: SubflowProp, value: i64) {
        if let Some(s) = self.subflows.get_mut(&SubflowId(id)) {
            s.props.insert(prop, value);
        }
    }

    /// Appends a packet with the given data sequence number and size to
    /// the back of `queue`, creating the packet record if new.
    pub fn push_packet(&mut self, queue: QueueKind, id: u64, seq: i64, size: i64) -> PacketRef {
        let pid = PacketRef(id);
        self.packets.entry(pid).or_insert_with(|| {
            let mut props = HashMap::new();
            props.insert(PacketProp::Seq, seq);
            props.insert(PacketProp::Size, size);
            MockPacket {
                id: pid,
                props,
                sent_on: Vec::new(),
            }
        });
        self.queues.entry(queue).or_default().push(pid);
        pid
    }

    /// Sets one property of an existing packet.
    pub fn set_packet_prop(&mut self, id: u64, prop: PacketProp, value: i64) {
        if let Some(p) = self.packets.get_mut(&PacketRef(id)) {
            p.props.insert(prop, value);
        }
    }

    /// Marks a packet as already transmitted on a subflow.
    pub fn mark_sent_on(&mut self, pkt: u64, sbf: u32) {
        if let Some(p) = self.packets.get_mut(&PacketRef(pkt)) {
            let sid = SubflowId(sbf);
            if !p.sent_on.contains(&sid) {
                p.sent_on.push(sid);
            }
        }
    }

    /// Sets whether `HAS_WINDOW_FOR` reports true for `sbf`.
    pub fn set_has_window(&mut self, sbf: u32, value: bool) {
        if let Some(s) = self.subflows.get_mut(&SubflowId(sbf)) {
            s.has_window = value;
        }
    }

    /// Writes a register directly (as the application API would).
    pub fn set_register(&mut self, reg: RegId, value: i64) {
        self.registers[reg.index()] = value;
    }

    /// Simulates a cumulative acknowledgement: removes the packet from
    /// every queue ("acknowledged packets are automatically removed from
    /// *all* queues", paper §3.1).
    pub fn acknowledge(&mut self, pkt: u64) {
        let pid = PacketRef(pkt);
        for q in self.queues.values_mut() {
            q.retain(|p| *p != pid);
        }
    }

    /// The queue contents (test inspection helper).
    pub fn queue_contents(&self, queue: QueueKind) -> &[PacketRef] {
        self.queues.get(&queue).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Canonical multi-line dump of the complete observable state:
    /// subflows with their set properties, packets with properties and
    /// transmission history, queue contents, registers, and the applied
    /// transmission/drop logs.
    ///
    /// The rendering is deterministic (hash maps are emitted in a fixed
    /// order), so two environments are observably identical iff their
    /// fingerprints are string-equal. This is the comparison anchor of the
    /// cross-backend differential harness and doubles as the repro
    /// description a divergence report prints.
    pub fn state_fingerprint(&self) -> String {
        let mut out = String::new();
        out.push_str("registers [");
        for (i, r) in self.registers.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(&r.to_string());
        }
        out.push_str("]\n");
        for sid in &self.subflow_order {
            let s = &self.subflows[sid];
            out.push_str(&format!("subflow {} window={}", sid.0, s.has_window));
            for prop in SubflowProp::ALL {
                if let Some(v) = s.props.get(&prop) {
                    out.push_str(&format!(" {}={v}", prop.name()));
                }
            }
            out.push('\n');
        }
        let mut pkt_ids: Vec<PacketRef> = self.packets.keys().copied().collect();
        pkt_ids.sort();
        for pid in pkt_ids {
            let p = &self.packets[&pid];
            out.push_str(&format!("packet {}", pid.0));
            for prop in PacketProp::ALL {
                if let Some(v) = p.props.get(&prop) {
                    out.push_str(&format!(" {}={v}", prop.name()));
                }
            }
            if !p.sent_on.is_empty() {
                out.push_str(" sent_on=[");
                for (i, s) in p.sent_on.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    out.push_str(&s.0.to_string());
                }
                out.push(']');
            }
            out.push('\n');
        }
        for kind in QueueKind::ALL {
            out.push_str(&format!("{} [", kind.name()));
            for (i, p) in self.queue_contents(kind).iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                out.push_str(&p.0.to_string());
            }
            out.push_str("]\n");
        }
        out.push_str("transmissions [");
        for (i, (s, p)) in self.transmissions.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(&format!("{}:{}", s.0, p.0));
        }
        out.push_str("]\n");
        out.push_str("dropped [");
        for (i, p) in self.dropped.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(&p.0.to_string());
        }
        out.push_str("]\n");
        out
    }
}

impl SchedulerEnv for MockEnv {
    fn subflows(&self) -> &[SubflowId] {
        &self.subflow_order
    }

    fn subflow_prop(&self, subflow: SubflowId, prop: SubflowProp) -> i64 {
        self.subflows
            .get(&subflow)
            .and_then(|s| s.props.get(&prop).copied())
            .unwrap_or(0)
    }

    fn queue(&self, queue: QueueKind) -> &[PacketRef] {
        self.queues.get(&queue).map(Vec::as_slice).unwrap_or(&[])
    }

    fn packet_prop(&self, packet: PacketRef, prop: PacketProp) -> i64 {
        self.packets
            .get(&packet)
            .and_then(|p| p.props.get(&prop).copied())
            .unwrap_or(0)
    }

    fn sent_on(&self, packet: PacketRef, subflow: SubflowId) -> bool {
        self.packets
            .get(&packet)
            .map(|p| p.sent_on.contains(&subflow))
            .unwrap_or(false)
    }

    fn has_window_for(&self, subflow: SubflowId, _packet: PacketRef) -> bool {
        self.subflows
            .get(&subflow)
            .map(|s| s.has_window)
            .unwrap_or(false)
    }

    fn register(&self, reg: RegId) -> i64 {
        self.registers[reg.index()]
    }

    fn registers(&self) -> [i64; NUM_REGISTERS] {
        self.registers
    }

    fn apply(&mut self, registers: &[i64; NUM_REGISTERS], actions: &[Action]) {
        self.registers = *registers;
        for action in actions {
            match *action {
                Action::Push { subflow, packet } => {
                    // Ignore pushes to subflows that vanished between the
                    // snapshot and application: the packet simply stays
                    // schedulable (no packet loss by design).
                    if !self.subflows.contains_key(&subflow) {
                        continue;
                    }
                    // Move the packet out of Q/RQ into QU on first push.
                    let mut was_queued = false;
                    for kind in [QueueKind::SendQueue, QueueKind::Reinject] {
                        if let Some(q) = self.queues.get_mut(&kind) {
                            let before = q.len();
                            q.retain(|p| *p != packet);
                            was_queued |= q.len() != before;
                        }
                    }
                    let qu = self.queues.entry(QueueKind::Unacked).or_default();
                    if was_queued && !qu.contains(&packet) {
                        qu.push(packet);
                    }
                    if let Some(p) = self.packets.get_mut(&packet) {
                        if !p.sent_on.contains(&subflow) {
                            p.sent_on.push(subflow);
                        }
                        *p.props.entry(PacketProp::SentCount).or_insert(0) += 1;
                    }
                    self.transmissions.push((subflow, packet));
                }
                Action::Drop { packet } => {
                    for kind in [QueueKind::SendQueue, QueueKind::Reinject] {
                        if let Some(q) = self.queues.get_mut(&kind) {
                            q.retain(|p| *p != packet);
                        }
                    }
                    self.dropped.push(packet);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_action_moves_packet_to_qu() {
        let mut env = MockEnv::new();
        env.add_subflow(0);
        env.push_packet(QueueKind::SendQueue, 1, 0, 100);
        let regs = [0i64; NUM_REGISTERS];
        env.apply(
            &regs,
            &[Action::Push {
                subflow: SubflowId(0),
                packet: PacketRef(1),
            }],
        );
        assert!(env.queue_contents(QueueKind::SendQueue).is_empty());
        assert_eq!(env.queue_contents(QueueKind::Unacked), &[PacketRef(1)]);
        assert!(env.sent_on(PacketRef(1), SubflowId(0)));
        assert_eq!(env.transmissions.len(), 1);
    }

    #[test]
    fn push_to_vanished_subflow_keeps_packet() {
        let mut env = MockEnv::new();
        env.push_packet(QueueKind::SendQueue, 1, 0, 100);
        let regs = [0i64; NUM_REGISTERS];
        env.apply(
            &regs,
            &[Action::Push {
                subflow: SubflowId(9),
                packet: PacketRef(1),
            }],
        );
        assert_eq!(env.queue_contents(QueueKind::SendQueue), &[PacketRef(1)]);
        assert!(env.transmissions.is_empty());
    }

    #[test]
    fn redundant_push_counts_each_transmission() {
        let mut env = MockEnv::new();
        env.add_subflow(0);
        env.add_subflow(1);
        env.push_packet(QueueKind::SendQueue, 1, 0, 100);
        let regs = [0i64; NUM_REGISTERS];
        env.apply(
            &regs,
            &[
                Action::Push {
                    subflow: SubflowId(0),
                    packet: PacketRef(1),
                },
                Action::Push {
                    subflow: SubflowId(1),
                    packet: PacketRef(1),
                },
            ],
        );
        assert_eq!(env.transmissions.len(), 2);
        assert_eq!(
            env.packet_prop(PacketRef(1), PacketProp::SentCount),
            2,
            "SENT_COUNT counts transmissions"
        );
        assert_eq!(env.queue_contents(QueueKind::Unacked).len(), 1);
    }

    #[test]
    fn ack_removes_from_all_queues() {
        let mut env = MockEnv::new();
        env.push_packet(QueueKind::Unacked, 1, 0, 100);
        env.push_packet(QueueKind::Reinject, 1, 0, 100);
        env.acknowledge(1);
        assert!(env.queue_contents(QueueKind::Unacked).is_empty());
        assert!(env.queue_contents(QueueKind::Reinject).is_empty());
    }

    #[test]
    fn fingerprint_distinguishes_observable_state() {
        let mut a = MockEnv::new();
        a.add_subflow(0);
        a.push_packet(QueueKind::SendQueue, 1, 0, 100);
        let mut b = a.clone();
        assert_eq!(a.state_fingerprint(), b.state_fingerprint());
        b.set_register(RegId::R1, 5);
        assert_ne!(a.state_fingerprint(), b.state_fingerprint());
        let mut c = a.clone();
        c.mark_sent_on(1, 0);
        assert_ne!(a.state_fingerprint(), c.state_fingerprint());
    }

    #[test]
    fn drop_action_removes_from_q_and_rq_only() {
        let mut env = MockEnv::new();
        env.push_packet(QueueKind::SendQueue, 1, 0, 100);
        env.push_packet(QueueKind::Unacked, 2, 1, 100);
        let regs = [0i64; NUM_REGISTERS];
        env.apply(
            &regs,
            &[Action::Drop {
                packet: PacketRef(1),
            }],
        );
        env.apply(
            &regs,
            &[Action::Drop {
                packet: PacketRef(2),
            }],
        );
        assert!(env.queue_contents(QueueKind::SendQueue).is_empty());
        // QU entries are only removed by acknowledgement.
        assert_eq!(env.queue_contents(QueueKind::Unacked), &[PacketRef(2)]);
    }
}
