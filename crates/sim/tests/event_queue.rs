//! Event-queue equivalence tier: the hierarchical timing wheel
//! ([`CalendarQueue`]) must pop in *exactly* the order of the
//! `BinaryHeap<Reverse<(time, seq)>>` it replaced — the engine's golden
//! snapshots and the fleet determinism guarantee both ride on this.
//!
//! The property test drives both structures through the same randomized
//! schedule of pushes and pops. Time generation is deliberately biased
//! toward the adversarial cases: exact same-tick ties, sub-microsecond
//! distinct times inside one tick, cross-level jumps, and events beyond
//! the 2^32-µs wheel horizon (the overflow heap). A hold-model schedule
//! keeps a steady population pending, so every pop frees an arena node
//! that the next push reuses.

use mptcp_sim::CalendarQueue;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One step of a schedule.
#[derive(Debug, Clone)]
enum Op {
    /// Push an event at this absolute time (ns).
    Push(u64),
    /// Pop up to this many events.
    Pop(u8),
}

/// Event times biased toward tie and boundary cases.
fn event_time() -> impl Strategy<Value = u64> {
    prop_oneof![
        // Exact-tick ties: many events landing on the same µs tick.
        4 => (0u64..32).prop_map(|t| t * 1_000),
        // Sub-tick times: distinct ns inside a shared tick.
        4 => 0u64..50_000,
        // Cross-level: spread over all four wheel levels.
        2 => 0u64..10_000_000_000_000,
        // Past the 2^32-µs wheel horizon: the overflow heap.
        1 => 4_400_000_000_000_000u64..4_500_000_000_000_000,
    ]
}

fn schedule() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            3 => event_time().prop_map(Op::Push),
            1 => (1u8..6).prop_map(Op::Pop),
        ],
        1..200,
    )
}

/// How far past the event it replaces a hold-model push lands (ns):
/// the same instant, the same tick, or the reach of each wheel level, or
/// past the 2^32-µs horizon.
fn hold_delay() -> impl Strategy<Value = u64> {
    prop_oneof![
        1 => Just(0u64),
        2 => 0u64..1_000,
        4 => 1_000u64..256_000,
        3 => 256_000u64..65_536_000,
        2 => 65_536_000u64..16_777_216_000,
        1 => 16_777_216_000u64..4_294_967_296_000,
        1 => 4_294_967_296_000u64..9_000_000_000_000,
    ]
}

proptest! {
    /// The hold model: fill the queue with `pending` events, then, step
    /// after step, pop the earliest one to four and push a replacement
    /// for each `delay` after it. The population stays constant, so every
    /// push after the fill lands in a node a pop freed, at every wheel
    /// level and in the overflow heap; the payload is the sequence
    /// number, so a node reused before it is popped, or popped with
    /// another's payload, shows as a mismatch against the reference heap.
    #[test]
    fn hold_model_reuses_nodes_in_order(
        fill in proptest::collection::vec(0u64..5_000_000, 1..300),
        steps in proptest::collection::vec(
            proptest::collection::vec(hold_delay(), 1..5),
            1..500,
        ),
    ) {
        let mut wheel = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut next_seq = 0u64;
        for t in fill {
            wheel.push(t, next_seq);
            heap.push(Reverse((t, next_seq)));
            next_seq += 1;
        }
        let mut popped = Vec::new();
        for delays in steps {
            popped.clear();
            for _ in &delays {
                let Some(Reverse((t, s))) = heap.pop() else { break };
                prop_assert_eq!(wheel.next_time(), Some(t));
                prop_assert_eq!(wheel.pop(), Some((t, s)));
                popped.push(t);
            }
            for (t, delay) in popped.iter().zip(&delays) {
                wheel.push(t + delay, next_seq);
                heap.push(Reverse((t + delay, next_seq)));
                next_seq += 1;
            }
            prop_assert_eq!(wheel.len(), heap.len());
        }
        while let Some(Reverse(k)) = heap.pop() {
            prop_assert_eq!(wheel.pop(), Some(k));
        }
        prop_assert!(wheel.is_empty());
    }

    /// For every randomized schedule, the wheel and a reference binary
    /// heap ordered by `(time, seq)` pop identical sequences.
    #[test]
    fn wheel_matches_reference_heap(ops in schedule()) {
        let mut wheel = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut next_seq = 0u64;
        for op in ops {
            match op {
                Op::Push(t) => {
                    wheel.push(t, next_seq);
                    heap.push(Reverse((t, next_seq)));
                    next_seq += 1;
                }
                Op::Pop(n) => {
                    for _ in 0..n {
                        let expect = heap.pop().map(|Reverse((t, s))| (t, s));
                        prop_assert_eq!(wheel.pop(), expect);
                        if expect.is_none() {
                            break;
                        }
                    }
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
        }
        // Drain: the tails must agree too.
        while let Some(Reverse((t, s))) = heap.pop() {
            prop_assert_eq!(wheel.pop(), Some((t, s)));
        }
        prop_assert_eq!(wheel.pop(), None);
        prop_assert!(wheel.is_empty());
    }

    /// Pushes that land at or before the wheel's already-advanced cursor
    /// (possible when the engine schedules a zero-delay follow-up) still
    /// pop in global `(time, seq)` order.
    #[test]
    fn past_inserts_stay_ordered(
        first in 1_000u64..1_000_000,
        later in proptest::collection::vec(0u64..2_000_000, 1..40),
    ) {
        let mut wheel = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        wheel.push(first, 0);
        heap.push(Reverse((first, 0)));
        // Advance the cursor to `first`'s tick...
        prop_assert_eq!(wheel.pop(), heap.pop().map(|Reverse(k)| k));
        // ...then insert times on both sides of it.
        for (i, t) in later.iter().enumerate() {
            let seq = i as u64 + 1;
            wheel.push(*t, seq);
            heap.push(Reverse((*t, seq)));
        }
        while let Some(Reverse(k)) = heap.pop() {
            prop_assert_eq!(wheel.pop(), Some(k));
        }
        prop_assert!(wheel.is_empty());
    }
}

/// The tie-break rule, pinned as a plain regression test: events with
/// identical simulated times pop in insertion order, regardless of
/// which structure (due list, wheel slot, overflow heap) they traverse.
#[test]
fn same_time_ties_resolve_in_insertion_order() {
    let mut q = CalendarQueue::new();
    for tag in 0..8 {
        q.push(5_000, ("five-us", tag));
    }
    for tag in 0..8 {
        // Same tick via the overflow heap as well.
        q.push(4_400_000_000_005_000, ("overflow", tag));
    }
    for tag in 0..8 {
        assert_eq!(q.pop(), Some((5_000, ("five-us", tag))));
    }
    for tag in 0..8 {
        assert_eq!(q.pop(), Some((4_400_000_000_005_000, ("overflow", tag))));
    }
    assert_eq!(q.pop(), None);
}

/// `next_time` agrees with the reference heap's peek across a mixed
/// schedule, and never disturbs pop order.
#[test]
fn next_time_matches_peek() {
    let times = [
        7_300u64,
        7_300,
        1_000,
        999,
        4_400_000_000_000_123,
        250 * 1_000,
        70_000 * 1_000,
        10_000_000 * 1_000,
    ];
    let mut wheel = CalendarQueue::new();
    let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    for (seq, &t) in times.iter().enumerate() {
        wheel.push(t, seq as u64);
        heap.push(Reverse((t, seq as u64)));
    }
    while let Some(Reverse((t, s))) = heap.pop() {
        assert_eq!(wheel.next_time(), Some(t));
        assert_eq!(wheel.pop(), Some((t, s)));
    }
    assert_eq!(wheel.next_time(), None);
}
