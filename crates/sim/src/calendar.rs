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
//! **Measured, not guessed.** With this type's body swapped for a
//! `BinaryHeap` keyed by `(time, seq)` — same API, same order, so the
//! benchmark's `fleet_bulk` still read 918 665 events and digest
//! `523b6e9fffea18c7` — `benchmark/run.sh --workload fleet_bulk
//! --seconds 3 --trace 0` read a wall of 0.726–0.760 s with the heap
//! against 0.619–0.633 s with the wheel (three alternating runs each,
//! 2-CPU container): the heap is ≈18 % slower end to end. It is smaller:
//! peak RSS read 24.2–24.3 MB against 27.5–27.6 MB.

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

/// One queued event with its total-order key.
#[derive(Debug)]
struct Entry<T> {
    time: SimTime,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// Overflow-heap wrapper ordering entries by `(time, seq)` only.
struct ByKey<T>(Entry<T>);

impl<T> PartialEq for ByKey<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl<T> Eq for ByKey<T> {}
impl<T> PartialOrd for ByKey<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for ByKey<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.key().cmp(&other.0.key())
    }
}

/// A deterministic calendar queue over payloads `T`.
///
/// `push` assigns each event a monotonically increasing sequence
/// number; `pop` returns events in strict `(time, seq)` order — exactly
/// the order a `BinaryHeap<Reverse<(time, seq)>>` would produce.
pub struct CalendarQueue<T> {
    /// `levels[l][s]`: events whose tick lands in slot `s` of level `l`.
    levels: Vec<Vec<Vec<Entry<T>>>>,
    /// Per-level slot-occupancy bitmaps.
    occ: [[u64; WORDS]; LEVELS],
    /// Current tick (µs). Everything still queued in the wheel is
    /// strictly after this tick; everything at or before it is in `due`.
    cur: u64,
    /// Events whose tick is `<= cur`, sorted *descending* by
    /// `(time, seq)` so the global minimum pops from the back in O(1).
    due: Vec<Entry<T>>,
    /// Events beyond the wheel horizon, ordered by `(time, seq)`.
    overflow: BinaryHeap<Reverse<ByKey<T>>>,
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
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
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
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.insert(Entry { time, seq, item });
    }

    /// Time of the next event without removing it. Internally advances
    /// the wheel cursor up to that event (structure-only motion; the
    /// event order is unaffected).
    pub fn next_time(&mut self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        while self.due.is_empty() {
            self.advance();
        }
        self.due.last().map(|e| e.time)
    }

    /// Removes and returns the earliest event (by `(time, seq)`).
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        if self.len == 0 {
            return None;
        }
        while self.due.is_empty() {
            self.advance();
        }
        let e = self.due.pop().expect("due non-empty");
        self.len -= 1;
        Some((e.time, e.item))
    }

    fn insert(&mut self, e: Entry<T>) {
        let tick = e.time / TICK_NS;
        if tick <= self.cur {
            // Due now (or scheduled into the past): merge into the
            // sorted-descending due list.
            let key = e.key();
            let pos = self
                .due
                .binary_search_by(|p| key.cmp(&p.key()))
                .unwrap_or_else(|i| i);
            self.due.insert(pos, e);
            return;
        }
        let xor = tick ^ self.cur;
        for l in 0..LEVELS {
            if xor >> (SLOT_BITS * (l as u32 + 1)) == 0 {
                let slot = ((tick >> (SLOT_BITS * l as u32)) & (SLOTS as u64 - 1)) as usize;
                self.levels[l][slot].push(e);
                self.occ[l][slot / 64] |= 1 << (slot % 64);
                return;
            }
        }
        self.overflow.push(Reverse(ByKey(e)));
    }

    /// First occupied slot of `level` strictly after `from`, if any.
    fn next_slot(&self, level: usize, from: usize) -> Option<usize> {
        let start = from + 1;
        if start >= SLOTS {
            return None;
        }
        let mut word = start / 64;
        let mut bits = self.occ[level][word] & !((1u64 << (start % 64)) - 1);
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word == WORDS {
                return None;
            }
            bits = self.occ[level][word];
        }
    }

    /// Moves the cursor to the next occupied tick and migrates that
    /// tick's events into `due`. Requires `due` empty and `len > 0`;
    /// each call strictly advances `cur` or fills `due`.
    fn advance(&mut self) {
        loop {
            // Innermost level first: an occupied L0 slot ahead of the
            // cursor *is* the next tick.
            let cur_slot0 = (self.cur & (SLOTS as u64 - 1)) as usize;
            if let Some(s) = self.next_slot(0, cur_slot0) {
                let tick = (self.cur & !(SLOTS as u64 - 1)) | s as u64;
                self.cur = tick;
                let mut batch = std::mem::take(&mut self.levels[0][s]);
                self.occ[0][s / 64] &= !(1 << (s % 64));
                // All entries share the tick; order the full keys.
                batch.sort_unstable_by_key(|e| Reverse(e.key()));
                self.due = batch;
                return;
            }
            // Cascade: find the next occupied slot of the shallowest
            // non-empty outer level, jump the cursor to its base tick,
            // and re-insert its events one level down (or into `due`).
            let mut cascaded = false;
            for l in 1..LEVELS {
                let cur_slot = ((self.cur >> (SLOT_BITS * l as u32)) & (SLOTS as u64 - 1)) as usize;
                if let Some(s) = self.next_slot(l, cur_slot) {
                    let shift = SLOT_BITS * l as u32;
                    let base =
                        (self.cur & !((1u64 << (shift + SLOT_BITS)) - 1)) | ((s as u64) << shift);
                    self.cur = base;
                    let batch = std::mem::take(&mut self.levels[l][s]);
                    self.occ[l][s / 64] &= !(1 << (s % 64));
                    for e in batch {
                        self.insert(e);
                    }
                    cascaded = true;
                    break;
                }
            }
            if cascaded {
                if !self.due.is_empty() {
                    return;
                }
                continue;
            }
            // Wheel exhausted: everything left lives in the overflow
            // heap. Jump to its minimum and pull every entry that now
            // fits the wheel horizon back in.
            let Some(Reverse(ByKey(min))) = self.overflow.pop() else {
                unreachable!("advance() called on an empty queue");
            };
            self.cur = min.time / TICK_NS;
            let horizon = self.cur >> (SLOT_BITS * LEVELS as u32);
            self.insert(min);
            while let Some(Reverse(ByKey(e))) = self.overflow.peek() {
                if (e.time / TICK_NS) >> (SLOT_BITS * LEVELS as u32) != horizon {
                    break;
                }
                let Reverse(ByKey(e)) = self.overflow.pop().expect("peeked");
                self.insert(e);
            }
            if !self.due.is_empty() {
                return;
            }
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
