//! Allocation budget: once a [`Sim`] is set up, running it allocates
//! (almost) nothing per event, with or without the invariant oracle.
//!
//! A counting global allocator tallies the heap allocations (and
//! reallocations) the test thread makes while `run_to_completion`
//! drives one `Sim` over a bulk scenario and a lossy one. The budget,
//! 0.05 per event, leaves room for what grows to a high-water mark and
//! then stays (the event arena, the send and retransmission queues, the
//! receiver's reorder buffer) and for the rare report an incident
//! writes; a structure that re-grows a buffer per event or per check
//! reads 0.5 or more.

use mptcp_sim::fleet::{ConnScenario, Workload};
use mptcp_sim::time::{from_millis, SECONDS};
use mptcp_sim::{
    ConnectionConfig, ContainmentConfig, FaultPlan, PathConfig, SchedulerSpec, Sim, SubflowConfig,
};
use progmp_core::env::RegId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations of the thread that makes them, so the test
/// harness's own threads do not leak into a reading.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only a const-initialised thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Heap allocations per event the test thread allows once set-up is done.
const BUDGET: f64 = 0.05;

/// The seven paper schedulers, cycled through a scenario's connections.
const SCHEDULERS: [&str; 7] = [
    "minRttSimple",
    "default",
    "roundRobin",
    "redundant",
    "opportunisticRedundant",
    "tap",
    "targetRtt",
];

/// Connection `i` of a scenario: two paths with RTTs that vary by `i`,
/// `loss` on both, four 1 MB sends or one 1 MB backlog.
fn scenario(i: usize, loss: f64, four_sends: bool) -> ConnScenario {
    let name = SCHEDULERS[i % SCHEDULERS.len()];
    let source = progmp_schedulers::sources::ALL
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, s)| *s)
        .expect("a shipped scheduler");
    let rtt = |base: u64, step: u64| from_millis(base + step * i as u64);
    let subflows = vec![
        SubflowConfig::new(PathConfig::symmetric(rtt(5, 6), 1_250_000).with_loss(loss)),
        SubflowConfig::new(PathConfig::symmetric(rtt(20, 9), 1_250_000).with_loss(loss)),
    ];
    let cfg = ConnectionConfig::new(subflows, SchedulerSpec::dsl(source));
    let workload = if four_sends {
        Workload::SendAt((0..4).map(|k| (k * 5 * SECONDS, 1_000_000, 0)).collect())
    } else {
        Workload::Bulk {
            bytes: 1_000_000,
            prop: 0,
        }
    };
    let mut sc = ConnScenario::new(cfg, workload);
    match name {
        "tap" => sc.registers.push((0, RegId::R1, 1_000_000)),
        "targetRtt" => sc.registers.push((0, RegId::R1, 60_000)),
        _ => {}
    }
    sc
}

/// Sets up one `Sim` over seven connections (bulk) or fourteen (lossy),
/// runs it to completion and returns `(events, allocations during the
/// run)`.
fn run(lossy: bool, oracle: bool) -> (u64, u64) {
    let mut sim = Sim::new(7);
    if lossy {
        sim.enable_containment(ContainmentConfig);
    }
    if oracle {
        sim.enable_oracle("alloc budget", false);
    }
    let conns = if lossy { 14 } else { 7 };
    for i in 0..conns {
        let mut sc = scenario(i, if lossy { 0.015 } else { 0.0 }, !lossy);
        if lossy {
            sc.fault_plan = Some(FaultPlan::generate(100 + i as u64, 2, 20 * SECONDS));
        }
        sim.add_scenario(sc, i as u64)
            .expect("a shipped scheduler compiles");
    }
    let before = allocs();
    sim.run_to_completion(600 * SECONDS);
    let during = allocs() - before;
    assert!(sim.oracle_violations().is_empty(), "a clean run");
    (sim.events_processed, during)
}

#[test]
fn a_running_sim_allocates_almost_nothing_per_event() {
    for (lossy, oracle) in [(false, false), (true, false), (false, true), (true, true)] {
        let (events, during) = run(lossy, oracle);
        let per_event = during as f64 / events as f64;
        let what = format!(
            "{} scenario, oracle {}",
            if lossy { "lossy" } else { "bulk" },
            if oracle { "armed" } else { "off" }
        );
        eprintln!("{what}: {events} events, {during} allocations, {per_event:.4} per event");
        assert!(events > 50_000, "{what}: only {events} events");
        assert!(
            per_event <= BUDGET,
            "{what}: {during} allocations over {events} events = {per_event:.3} per event, \
             budget {BUDGET}"
        );
    }
}
