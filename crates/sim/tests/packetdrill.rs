//! Packetdrill-style scripted receiver tests.
//!
//! Paper §4.2: "We appreciated the use of packetdrill, a tool that uses
//! crafted input packet traces for testing the Linux network stack, to
//! extensively test the receiver side packet handling for incoming packet
//! combinations." This module implements a miniature packetdrill: crafted
//! arrival traces with inline assertions, driven against both receiver
//! modes.
//!
//! Script grammar (one directive per line, `#` comments):
//!
//! ```text
//! mode improved|legacy
//! subflows <n>
//! buf <bytes>
//! arrive sbf=<i> sseq=<n> dseq=<bytes> size=<bytes>
//! expect delivered=<bytes>
//! expect data_ack=<bytes>
//! expect sbf_ack sbf=<i> =<n>
//! expect rwnd=<bytes>
//! ```

use mptcp_sim::receiver::{Receiver, ReceiverMode};
use progmp_core::env::PacketRef;

struct Driver {
    rx: Receiver,
    next_pkt: u64,
    line_no: usize,
}

fn kv(token: &str, key: &str) -> Option<u64> {
    token.strip_prefix(key)?.strip_prefix('=')?.parse().ok()
}

/// Runs a script, panicking with the line number on any failed
/// expectation.
fn run_script(script: &str) {
    let mut mode = ReceiverMode::Improved;
    let mut subflows = 2usize;
    let mut buf = 1u64 << 20;
    let mut driver: Option<Driver> = None;

    for (i, raw) in script.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let cmd = tokens.next().expect("non-empty line");
        match cmd {
            "mode" => {
                mode = match tokens.next() {
                    Some("improved") => ReceiverMode::Improved,
                    Some("legacy") => ReceiverMode::Legacy,
                    other => panic!("line {}: bad mode {other:?}", i + 1),
                };
            }
            "subflows" => {
                subflows = tokens.next().and_then(|t| t.parse().ok()).expect("count");
            }
            "buf" => {
                buf = tokens.next().and_then(|t| t.parse().ok()).expect("bytes");
            }
            "arrive" => {
                let d = driver.get_or_insert_with(|| Driver {
                    rx: Receiver::new(mode, subflows, buf),
                    next_pkt: 1,
                    line_no: 0,
                });
                d.line_no = i + 1;
                let (mut sbf, mut sseq, mut dseq, mut size) = (None, None, None, None);
                for t in tokens {
                    if let Some(v) = kv(t, "sbf") {
                        sbf = Some(v as usize);
                    } else if let Some(v) = kv(t, "sseq") {
                        sseq = Some(v);
                    } else if let Some(v) = kv(t, "dseq") {
                        dseq = Some(v);
                    } else if let Some(v) = kv(t, "size") {
                        size = Some(v as u32);
                    } else {
                        panic!("line {}: bad token {t}", i + 1);
                    }
                }
                let pkt = PacketRef(d.next_pkt);
                d.next_pkt += 1;
                d.rx.on_arrival(
                    sbf.expect("sbf"),
                    sseq.expect("sseq"),
                    dseq.expect("dseq"),
                    pkt,
                    size.expect("size"),
                );
            }
            "expect" => {
                let d = driver.as_ref().expect("arrive before expect");
                let rest: Vec<&str> = tokens.collect();
                match rest.as_slice() {
                    [t] if t.starts_with("delivered=") => {
                        let want = kv(t, "delivered").expect("bytes");
                        assert_eq!(
                            d.rx.delivered_total,
                            want,
                            "line {}: delivered_total",
                            i + 1
                        );
                    }
                    [t] if t.starts_with("data_ack=") => {
                        let want = kv(t, "data_ack").expect("bytes");
                        assert_eq!(d.rx.expected(), want, "line {}: data_ack", i + 1);
                    }
                    [t] if t.starts_with("rwnd=") => {
                        let want = kv(t, "rwnd").expect("bytes");
                        assert_eq!(d.rx.rwnd(), want, "line {}: rwnd", i + 1);
                    }
                    ["sbf_ack", s, v] => {
                        let sbf = kv(s, "sbf").expect("sbf") as usize;
                        let want: u64 = v.strip_prefix('=').expect("=n").parse().expect("n");
                        assert_eq!(d.rx.sbf_ack(sbf), want, "line {}: sbf_ack", i + 1);
                    }
                    other => panic!("line {}: bad expectation {other:?}", i + 1),
                }
            }
            other => panic!("line {}: unknown directive {other}", i + 1),
        }
    }
}

#[test]
fn drill_in_order_single_subflow() {
    run_script(
        "
        mode improved
        subflows 1
        arrive sbf=0 sseq=0 dseq=0    size=1000
        expect delivered=1000
        arrive sbf=0 sseq=1 dseq=1000 size=1000
        expect delivered=2000
        expect data_ack=2000
        expect sbf_ack sbf=0 =2
        ",
    );
}

#[test]
fn drill_cross_subflow_reordering() {
    run_script(
        "
        mode improved
        subflows 2
        # Second kilobyte arrives first, on the other subflow.
        arrive sbf=1 sseq=0 dseq=1000 size=1000
        expect delivered=0
        expect rwnd=1047576          # 1 MiB minus the buffered kilobyte
        arrive sbf=0 sseq=0 dseq=0 size=1000
        expect delivered=2000
        expect rwnd=1048576
        ",
    );
}

#[test]
fn drill_paper_blocking_pattern_improved() {
    // The §4.2 pattern: subflow 0's first transmission (dseq 1000) is
    // lost; its second (dseq 0) arrives subflow-out-of-order but is
    // meta-in-order. The improved receiver delivers immediately.
    run_script(
        "
        mode improved
        subflows 1
        arrive sbf=0 sseq=1 dseq=0 size=1000
        expect delivered=1000
        expect sbf_ack sbf=0 =0      # the subflow-level hole remains
        arrive sbf=0 sseq=0 dseq=1000 size=1000   # retransmission
        expect delivered=2000
        expect sbf_ack sbf=0 =2
        ",
    );
}

#[test]
fn drill_paper_blocking_pattern_legacy() {
    // Same trace on the legacy receiver: delivery is blocked until the
    // subflow-level hole fills.
    run_script(
        "
        mode legacy
        subflows 1
        arrive sbf=0 sseq=1 dseq=0 size=1000
        expect delivered=0           # held in the subflow OOO queue
        arrive sbf=0 sseq=0 dseq=1000 size=1000
        expect delivered=2000
        ",
    );
}

#[test]
fn drill_redundant_copies_are_idempotent() {
    run_script(
        "
        mode improved
        subflows 2
        arrive sbf=0 sseq=0 dseq=0 size=1000
        arrive sbf=1 sseq=0 dseq=0 size=1000   # redundant copy
        expect delivered=1000
        arrive sbf=1 sseq=1 dseq=1000 size=1000
        arrive sbf=0 sseq=1 dseq=1000 size=1000 # redundant copy, reversed
        expect delivered=2000
        expect sbf_ack sbf=0 =2
        expect sbf_ack sbf=1 =2
        ",
    );
}

#[test]
fn drill_interleaved_losses_both_subflows() {
    run_script(
        "
        mode improved
        subflows 2
        # Striped transfer, one loss per subflow, recovered at the end.
        arrive sbf=0 sseq=0 dseq=0    size=1000
        arrive sbf=1 sseq=0 dseq=1000 size=1000
        # sbf=0 sseq=1 (dseq 2000) lost; sbf=1 sseq=1 (dseq 3000) lost
        arrive sbf=0 sseq=2 dseq=4000 size=1000
        arrive sbf=1 sseq=2 dseq=5000 size=1000
        expect delivered=2000
        expect sbf_ack sbf=0 =1
        arrive sbf=0 sseq=1 dseq=2000 size=1000   # retransmission
        expect delivered=3000
        expect sbf_ack sbf=0 =3
        arrive sbf=1 sseq=1 dseq=3000 size=1000   # retransmission
        expect delivered=6000
        expect sbf_ack sbf=1 =3
        ",
    );
}

#[test]
fn drill_legacy_holds_chain_until_gap_fills() {
    run_script(
        "
        mode legacy
        subflows 2
        arrive sbf=0 sseq=0 dseq=0    size=1000
        expect delivered=1000
        # Three in-data-order packets on sbf 1 whose first copy is lost.
        arrive sbf=1 sseq=1 dseq=2000 size=1000
        arrive sbf=1 sseq=2 dseq=3000 size=1000
        expect delivered=1000
        expect sbf_ack sbf=1 =0
        arrive sbf=1 sseq=0 dseq=1000 size=1000
        expect delivered=4000
        expect sbf_ack sbf=1 =3
        ",
    );
}

// ---------------------------------------------------------------------------
// Scripted fault scenarios: packetdrill-style crafted *network* traces
// (scheduler + engine level), complementing the receiver scripts above.
// ---------------------------------------------------------------------------

mod blackout {
    use mptcp_sim::time::{from_millis, SECONDS};
    use mptcp_sim::{
        ConnectionConfig, FaultClause, FaultPlan, PathConfig, SchedulerSpec, Sim, SubflowConfig,
    };

    const FLOW: u64 = 500_000;

    fn two_path_sim(seed: u64, source: &str) -> (Sim, usize) {
        let mut sim = Sim::new(seed);
        sim.enable_oracle("packetdrill-blackout", true);
        let cfg = ConnectionConfig::new(
            vec![
                // Subflow 0 is the best (lowest-RTT) subflow.
                SubflowConfig::new(PathConfig::symmetric(from_millis(10), 1_250_000)),
                SubflowConfig::new(PathConfig::symmetric(from_millis(40), 1_250_000)),
            ],
            SchedulerSpec::dsl(source),
        );
        let conn = sim.add_connection(cfg).expect("compiles");
        // A backlogged bulk source (not a one-shot enqueue) so pushes —
        // and therefore the per-path loss draws — spread over the
        // transfer instead of clustering at t=0.
        sim.add_bulk_source(conn, FLOW, 0);
        (sim, conn)
    }

    /// Full blackout of the best subflow for the remainder of the run:
    /// the redundant scheduler sends every packet on every subflow, so
    /// delivery must still complete over the surviving slow subflow.
    #[test]
    fn redundant_survives_permanent_blackout_of_best_subflow() {
        let (mut sim, conn) = two_path_sim(7, progmp_schedulers::source("redundant").unwrap());
        sim.apply_fault_plan(
            conn,
            &FaultPlan {
                clauses: vec![FaultClause::Blackout {
                    sbf: 0,
                    from: from_millis(120),
                    until: 600 * SECONDS,
                }],
            },
        );
        sim.run_to_completion(600 * SECONDS);

        let c = &sim.connections[conn];
        assert!(
            c.all_acked(),
            "redundant must deliver despite the blackout: {} of {FLOW}",
            c.stats.delivered_bytes
        );
        assert_eq!(c.stats.delivered_bytes, FLOW);
        assert!(
            c.stats.subflows[0].wire_losses > 0,
            "the blackout actually ate traffic on the best subflow"
        );
        assert!(sim.oracle_violations().is_empty());
    }

    /// Transient full blackout of the only subflow minRttSimple uses:
    /// in-flight segments are lost, RTOs fire, segments enter the
    /// reinjection queue, and once the path heals the transfer recovers
    /// and completes exactly.
    #[test]
    fn min_rtt_reinjects_and_recovers_from_blackout() {
        let source = include_str!("../../../examples/schedulers/min_rtt.progmp");
        let (mut sim, conn) = two_path_sim(11, source);
        // minRttSimple has no congestion-window gate, so even the bulk
        // source's pushes cluster in the transfer's first milliseconds;
        // the window starts at 2 ms to cover them.
        sim.apply_fault_plan(
            conn,
            &FaultPlan {
                clauses: vec![FaultClause::Blackout {
                    sbf: 0,
                    from: from_millis(2),
                    until: from_millis(2_000),
                }],
            },
        );
        sim.run_to_completion(600 * SECONDS);

        let c = &sim.connections[conn];
        assert!(
            c.all_acked(),
            "min_rtt must recover after the blackout clears: {} of {FLOW}",
            c.stats.delivered_bytes
        );
        assert_eq!(c.stats.delivered_bytes, FLOW);
        assert_eq!(c.receiver.delivered_total, FLOW);
        assert!(
            c.stats.subflows[0].timeouts >= 1,
            "the blackout must force at least one RTO"
        );
        assert!(
            c.stats.reinjections > 0,
            "lost segments must pass through the reinjection queue"
        );
        assert!(sim.oracle_violations().is_empty());
    }
}

#[test]
fn drill_old_duplicates_do_not_regress_state() {
    run_script(
        "
        mode improved
        subflows 1
        arrive sbf=0 sseq=0 dseq=0    size=1000
        arrive sbf=0 sseq=1 dseq=1000 size=1000
        expect delivered=2000
        arrive sbf=0 sseq=0 dseq=0    size=1000   # stale duplicate
        expect delivered=2000
        expect data_ack=2000
        expect sbf_ack sbf=0 =2
        ",
    );
}
