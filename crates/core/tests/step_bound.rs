//! The certified step bound holds where it can fail: at the verifier's
//! caps.
//!
//! Every program here is admitted, then run once on each backend in
//! environments as large as the caps the bound is certified for allow:
//! 64 subflows (`VerifyConfig::max_subflows`) and thousands of packets
//! per queue. No execution may take more steps than
//! `certified_step_bound()`, the budget every backend runs under, and no
//! VM execution more than the bytecode model the image was validated
//! with.

use progmp_core::env::{PacketProp, QueueKind, RegId, SubflowProp};
use progmp_core::exec::ExecCtx;
use progmp_core::testenv::MockEnv;
use progmp_core::{compile, Backend};

/// Subflows in every environment: the verifier's cap.
const SUBFLOWS: u32 = 64;

/// An environment with [`SUBFLOWS`] subflows and `[q, qu, rq]` packets
/// in `Q`, `QU` and `RQ`. Open subflows have window for every packet;
/// window-limited ones have as many packets in flight as their `CWND`.
/// Every retransmittable packet was sent on one subflow, and `R1` / `R2`
/// hold large intents (bandwidth, remaining flow).
fn env(window_limited: bool, [q, qu, rq]: [u64; 3]) -> MockEnv {
    let mut env = MockEnv::new();
    for i in 0..SUBFLOWS {
        env.add_subflow(i);
        let rtt = 10_000 + i64::from(i) * 500;
        env.set_subflow_prop(i, SubflowProp::Rtt, rtt);
        env.set_subflow_prop(i, SubflowProp::Cwnd, 20);
        let in_flight = if window_limited { 20 } else { 2 };
        env.set_subflow_prop(i, SubflowProp::SkbsInFlight, in_flight);
        env.set_subflow_prop(i, SubflowProp::Mss, 1400);
        env.set_subflow_prop(i, SubflowProp::Bw, 1_000_000);
        env.set_subflow_prop(i, SubflowProp::Cost, i64::from(i % 2));
        env.set_has_window(i, !window_limited);
    }
    let queues = [
        (QueueKind::SendQueue, q),
        (QueueKind::Unacked, qu),
        (QueueKind::Reinject, rq),
    ];
    let mut id = 0;
    for (queue, n) in queues {
        for k in 0..n {
            id += 1;
            env.push_packet(queue, id, k as i64 * 1400, 1400);
            env.set_packet_prop(id, PacketProp::UserProp, (k % 4) as i64);
            if queue != QueueKind::SendQueue {
                env.mark_sent_on(id, (k % u64::from(SUBFLOWS)) as u32);
            }
        }
    }
    env.set_register(RegId::R1, 1_000_000);
    env.set_register(RegId::R2, 1_000_000);
    env
}

/// The environments every program runs in.
fn envs() -> Vec<(&'static str, MockEnv)> {
    vec![
        ("open, 2 000 per queue", env(false, [2_000; 3])),
        (
            "window-limited, 3 000 / 3 000 / 300",
            env(true, [3_000, 3_000, 300]),
        ),
    ]
}

/// Runs `source` once per environment and backend, asserting both
/// bounds; returns the most steps any execution took.
fn check(name: &str, source: &str) -> u64 {
    let program = compile(source).unwrap_or_else(|e| panic!("{name} is admitted: {e}"));
    let bound = program.certified_step_bound();
    let model = program.bytecode_verdict().step_bound.expect("bounded");
    let mut most = 0;
    for (label, env) in envs() {
        for backend in Backend::ALL {
            let mut instance = program.instantiate(backend);
            let mut ctx = ExecCtx::new(&env, u64::MAX);
            instance.execute_raw(&mut ctx).expect("runs");
            let steps = ctx.finish().2.steps;
            let at = format!("{name} on the {} backend, {label}", backend.name());
            assert!(steps <= bound, "{at}: {steps} steps > certified {bound}");
            if backend == Backend::Vm {
                assert!(
                    steps <= model,
                    "{at}: {steps} steps > bytecode model {model}"
                );
            }
            most = most.max(steps);
        }
    }
    most
}

#[test]
fn an_unfiltered_count_is_a_scan() {
    assert!(check("count", "SET(R1, Q.COUNT);") > 2_000);
    let gated = "IF (Q.COUNT > 0 AND !SUBFLOWS.EMPTY) {
                     SUBFLOWS.MIN(s => s.RTT).PUSH(Q.POP());
                 }";
    check("count-gated minRtt", gated);
}

#[test]
fn a_walk_steps_over_the_packets_popped_before_it() {
    let source = "FOREACH (VAR s IN SUBFLOWS) {
                      IF (!Q.EMPTY) { s.PUSH(Q.POP()); }
                  }";
    check("pop per subflow", source);
}

#[test]
fn nested_loop_bodies_are_charged() {
    let source = "FOREACH (VAR s IN SUBFLOWS) {
                      FOREACH (VAR t IN SUBFLOWS) {
                          IF (t.RTT < s.RTT) { SET(R1, R1 + 1); }
                      }
                  }";
    assert!(check("nested foreach", source) > 4_096);
}

#[test]
fn every_shipped_program_stays_under_its_bounds() {
    for (name, source) in progmp_schedulers::ALL {
        check(name, source);
    }
}
