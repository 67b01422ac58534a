//! The engine's event queue: a hierarchical timing wheel (calendar
//! queue) with microsecond-native ticks.
//!
//! The discrete-event hot path is dominated by timer churn: every
//! transmission schedules an arrival, an RTO and a TLP, and most of
//! those are cancelled or superseded within an RTT. A binary heap pays
//! `O(log n)` per operation and keeps no locality; the timing wheel
//! pays amortized `O(1)` for both insert and pop by bucketing events
//! into per-microsecond slots across `LEVELS` hierarchical levels
//! (the Varghese–Lauck scheme, as in kernel timer wheels), with
//! per-level occupancy bitmaps so finding the next non-empty slot is a
//! couple of trailing-zero scans rather than a walk.
//!
//! **Ordering is bit-compatible with the binary heap it replaced**: pop
//! order is the strict total order `(time, seq)` where `seq` is the
//! insertion sequence number — ties in simulated time resolve in
//! insertion order. `crates/sim/tests/event_queue.rs` pins this with a
//! side-by-side property test against a reference `BinaryHeap`; golden
//! snapshots across the repo depend on it.
//!
//! **One node arena, intrusive slot lists.** As in the Linux timer
//! wheel, a slot is the head of a list threaded through the queued
//! events themselves. Every queued event is a `Node` in one `Vec`; a
//! slot holds the index of its first node, each node the index of the
//! next, and freed nodes form a free list through the same link. The
//! payload is written once, by `push`, and moved out once, by `pop`: a
//! cascade from an outer level relinks 4-byte indices and copies no
//! event; the due list and the overflow heap hold keys and indices. The
//! arena grows to the largest number of events pending at once and is
//! then reused, so a warmed-up queue allocates nothing.
//!
//! **No per-slot buffers.** The wheel this replaced kept a `Vec` per
//! slot and emptied a slot with `mem::take`, so every refill re-grew a
//! buffer: 0.76 heap allocations per event on the benchmark's
//! `fleet_bulk`, 0.96 on `fleet_lossy`. Keeping those buffers instead
//! costs memory in proportion to the slot count, not the pending count:
//! recycling level 0's raised `fleet_bulk` peak RSS by ≈2 MB, and
//! recycling every level's raised it from 11.0 to 14.5 MB. The arena
//! costs one node per pending event and nothing per slot.
//!
//! **Measured, not guessed** (2-CPU container shared with other
//! workloads, 2026-10-20). With this type's body swapped for a
//! `BinaryHeap` keyed by `(time, seq)` — same API, same order, so the
//! benchmark's `fleet_bulk` still read 918 665 events and digest
//! `4114d64ce38c0397` — `benchmark/run.sh --workload fleet_bulk
//! --seconds 3 --trace 0` read a wall of 0.349–0.374 s with the heap
//! against 0.292–0.339 s with the wheel (four alternating pairs): the
//! heap is ≈19 % slower end to end. Peak RSS read 8.96–9.21 MB against
//! 9.19–9.50 MB. Against the per-slot-buffer wheel it replaces, the
//! arena took `fleet_bulk` from 0.75 to 0.010 allocations per event
//! (one `run_fleet`, compile cache warm), its peak RSS from 11.0 to
//! 9.4 MB and the benchmark's `sim.calendar.hold_ns` (a hold model over
//! 10 000 pending events) from 74–128 to 34–54 ns.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Nanoseconds per wheel tick (1 µs). Events within the same tick are
/// kept together and ordered by their full `(time, seq)` key.
pub const TICK_NS: u64 = 1_000;

/// Bits per wheel level: 256 slots each.
const SLOT_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Hierarchy depth. Four 256-slot levels cover 2^32 µs ≈ 71.6 simulated
/// minutes of lookahead past the current tick; anything farther goes to
/// the overflow heap (rare: multi-hour timers only).
const LEVELS: usize = 4;
/// Occupancy bitmap words per level.
const WORDS: usize = SLOTS / 64;
/// The end of a node list.
const NIL: u32 = u32::MAX;

/// One arena slot: a queued event with its total-order key `(time,
/// seq)` and the link to the next node of its wheel slot (or of the free
/// list, once freed).
struct Node<T> {
    key: (SimTime, u64),
    next: u32,
    /// `None` once `pop` has moved the payload out.
    item: Option<T>,
}

/// A deterministic calendar queue over payloads `T`.
///
/// `push` assigns each event a monotonically increasing sequence
/// number; `pop` returns events in strict `(time, seq)` order — exactly
/// the order a `BinaryHeap<Reverse<(time, seq)>>` would produce.
pub struct CalendarQueue<T> {
    /// Every queued event, plus the freed nodes awaiting reuse.
    nodes: Vec<Node<T>>,
    /// Head of the free list through `Node::next`.
    free: u32,
    /// `heads[l][s]`: first node of the events whose tick lands in slot
    /// `s` of level `l`.
    heads: [[u32; SLOTS]; LEVELS],
    /// Per-level slot-occupancy bitmaps.
    occ: [[u64; WORDS]; LEVELS],
    /// Current tick (µs). Everything still queued in the wheel is
    /// strictly after this tick; everything at or before it is in `due`.
    cur: u64,
    /// Nodes whose tick is `<= cur` with their keys, sorted
    /// *descending* so the global minimum pops from the back in O(1).
    due: Vec<((SimTime, u64), u32)>,
    /// Nodes beyond the wheel horizon, by key.
    overflow: BinaryHeap<Reverse<((SimTime, u64), u32)>>,
    next_seq: u64,
    len: usize,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// Creates an empty queue positioned at tick 0.
    pub fn new() -> Self {
        CalendarQueue {
            nodes: Vec::new(),
            free: NIL,
            heads: [[NIL; SLOTS]; LEVELS],
            occ: [[0; WORDS]; LEVELS],
            cur: 0,
            due: Vec::new(),
            overflow: BinaryHeap::new(),
            next_seq: 0,
            len: 0,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueues `item` at `time`, assigning the next sequence number.
    pub fn push(&mut self, time: SimTime, item: T) {
        let node = Node {
            key: (time, self.next_seq),
            next: NIL,
            item: Some(item),
        };
        self.next_seq += 1;
        self.len += 1;
        let idx = match self.free {
            NIL => {
                assert!(self.nodes.len() < NIL as usize, "2^32 - 1 events pending");
                self.nodes.push(node);
                self.nodes.len() as u32 - 1
            }
            idx => {
                self.free = std::mem::replace(&mut self.nodes[idx as usize], node).next;
                idx
            }
        };
        self.insert(idx);
    }

    /// Time of the next event without removing it. Internally advances
    /// the wheel cursor up to that event (structure-only motion; the
    /// event order is unaffected).
    pub fn next_time(&mut self) -> Option<SimTime> {
        self.front().map(|(key, _)| key.0)
    }

    /// Removes and returns the earliest event (by `(time, seq)`).
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let (_, idx) = self.front()?;
        self.due.pop();
        self.len -= 1;
        let node = &mut self.nodes[idx as usize];
        node.next = std::mem::replace(&mut self.free, idx);
        Some((
            node.key.0,
            node.item.take().expect("a queued node holds its item"),
        ))
    }

    /// The earliest node, once the cursor has moved up to it.
    fn front(&mut self) -> Option<((SimTime, u64), u32)> {
        if self.len == 0 {
            return None;
        }
        while self.due.is_empty() {
            self.advance();
        }
        self.due.last().copied()
    }

    /// Files node `idx` by its tick: into `due`, a wheel slot's list, or
    /// the overflow heap.
    fn insert(&mut self, idx: u32) {
        let key = self.nodes[idx as usize].key;
        let tick = key.0 / TICK_NS;
        if tick <= self.cur {
            // Due now (or scheduled into the past): merge into the
            // sorted-descending due list.
            let pos = self
                .due
                .binary_search_by(|(k, _)| key.cmp(k))
                .unwrap_or_else(|i| i);
            self.due.insert(pos, (key, idx));
            return;
        }
        let xor = tick ^ self.cur;
        for l in 0..LEVELS {
            if xor >> (SLOT_BITS * (l as u32 + 1)) == 0 {
                let slot = ((tick >> (SLOT_BITS * l as u32)) & (SLOTS as u64 - 1)) as usize;
                self.nodes[idx as usize].next = self.heads[l][slot];
                self.heads[l][slot] = idx;
                self.occ[l][slot / 64] |= 1 << (slot % 64);
                return;
            }
        }
        self.overflow.push(Reverse((key, idx)));
    }

    /// First occupied slot of `level` strictly after `from`, if any.
    fn next_slot(&self, level: usize, from: usize) -> Option<usize> {
        let start = from + 1;
        (start / 64..WORDS).find_map(|word| {
            let mut bits = self.occ[level][word];
            if word == start / 64 {
                bits &= !0 << (start % 64);
            }
            (bits != 0).then(|| word * 64 + bits.trailing_zeros() as usize)
        })
    }

    /// Moves the cursor one step, to the next occupied slot of the
    /// shallowest level that has one ahead of it, and relinks that
    /// slot's nodes one level down or into `due`: an occupied level-0
    /// slot *is* the next tick. With the wheel empty, jumps to the
    /// overflow heap's minimum and pulls every node that now fits the
    /// wheel horizon back in. Requires `len > 0`.
    fn advance(&mut self) {
        let next = (0..LEVELS).find_map(|l| {
            let shift = SLOT_BITS * l as u32;
            let from = ((self.cur >> shift) & (SLOTS as u64 - 1)) as usize;
            self.next_slot(l, from).map(|s| (l, shift, s))
        });
        if let Some((l, shift, s)) = next {
            self.cur = (self.cur & !((1u64 << (shift + SLOT_BITS)) - 1)) | ((s as u64) << shift);
            self.occ[l][s / 64] &= !(1 << (s % 64));
            let mut idx = std::mem::replace(&mut self.heads[l][s], NIL);
            if l == 0 {
                // Every node of the slot is due at the new tick: collect
                // them and order the full keys once.
                while idx != NIL {
                    let node = &self.nodes[idx as usize];
                    self.due.push((node.key, idx));
                    idx = node.next;
                }
                self.due.sort_unstable_by(|a, b| b.cmp(a));
                return;
            }
            while idx != NIL {
                let next = self.nodes[idx as usize].next;
                self.insert(idx);
                idx = next;
            }
            return;
        }
        let Some(&Reverse(((time, _), _))) = self.overflow.peek() else {
            unreachable!("advance() called on an empty queue");
        };
        self.cur = time / TICK_NS;
        let horizon = self.cur >> (SLOT_BITS * LEVELS as u32);
        while let Some(&Reverse(((time, _), idx))) = self.overflow.peek() {
            if (time / TICK_NS) >> (SLOT_BITS * LEVELS as u32) != horizon {
                break;
            }
            self.overflow.pop();
            self.insert(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(5_000, "b");
        q.push(1_000, "a");
        q.push(5_000, "c"); // same tick and time as "b": insertion order
        q.push(0, "zero");
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((0, "zero")));
        assert_eq!(q.pop(), Some((1_000, "a")));
        assert_eq!(q.pop(), Some((5_000, "b")));
        assert_eq!(q.pop(), Some((5_000, "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn sub_tick_times_stay_ordered() {
        // 1500 ns and 1999 ns share the 1 µs tick but must pop by time.
        let mut q = CalendarQueue::new();
        q.push(1_999, 1);
        q.push(1_500, 2);
        q.push(1_500, 3);
        assert_eq!(q.pop(), Some((1_500, 2)));
        assert_eq!(q.pop(), Some((1_500, 3)));
        assert_eq!(q.pop(), Some((1_999, 1)));
    }

    #[test]
    fn crosses_level_boundaries() {
        let mut q = CalendarQueue::new();
        // One event per level plus an overflow-range event.
        let times = [
            200 * TICK_NS,               // L0
            70_000 * TICK_NS,            // L1
            10_000_000 * TICK_NS,        // L2
            3_000_000_000 * TICK_NS,     // L3
            8_000_000_000_000 * TICK_NS, // overflow (> 2^32 ticks)
            8_000_000_000_001 * TICK_NS, // overflow, later
        ];
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        for (i, &t) in times.iter().enumerate() {
            assert_eq!(q.pop(), Some((t, i)), "event {i}");
        }
        assert!(q.is_empty());
    }

    #[test]
    fn insert_while_draining_current_tick() {
        let mut q = CalendarQueue::new();
        q.push(1_000, 0);
        assert_eq!(q.pop(), Some((1_000, 0)));
        // Cursor is now at tick 1; same-tick and past inserts are due
        // immediately, ordered by (time, seq).
        q.push(1_500, 1);
        q.push(1_200, 2);
        q.push(500, 3); // into the past: pops first (smallest time)
        assert_eq!(q.pop(), Some((500, 3)));
        assert_eq!(q.pop(), Some((1_200, 2)));
        assert_eq!(q.pop(), Some((1_500, 1)));
    }

    #[test]
    fn next_time_is_non_destructive() {
        let mut q = CalendarQueue::new();
        q.push(123_456_789, "x");
        assert_eq!(q.next_time(), Some(123_456_789));
        assert_eq!(q.next_time(), Some(123_456_789));
        assert_eq!(q.pop(), Some((123_456_789, "x")));
        assert_eq!(q.next_time(), None);
    }
}
