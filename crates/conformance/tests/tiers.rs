//! Every tier in `TIERS`, swept through the one driver: no findings on
//! a clean tree, every probe set caught, and the precision floors each
//! tier has always been held to.
//!
//! Each row runs a bounded count that keeps a debug build quick;
//! `conformance-fuzz` (1 000 `program` seeds in CI) explores further.

use progmp_conformance::tier::{run, TIERS};

#[test]
fn every_tier_is_silent_and_every_probe_set_bites() {
    assert_eq!(TIERS.len(), 3);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    for tier in &TIERS {
        let seeds = match tier.name {
            "program" => 128,
            "chaos" => 6,
            "fleet-chaos" => 2,
            other => panic!("tier {other} has no row in this test"),
        };
        let report = run(tier, 0..seeds, threads);
        println!("{report}");
        assert_eq!(report.checked, seeds, "{report}");
        assert!(report.passed(), "{report}");
        let probes = report.probes.as_deref().unwrap_or_default();
        match tier.name {
            "program" => {
                // Precision floor: the verifier must admit a healthy
                // majority of generated programs, otherwise the gate is
                // uselessly conservative.
                assert!(report.counter("admitted") * 2 > seeds, "{report}");
                assert_eq!(report.counter("clean images"), seeds, "{report}");
                // The bytecode optimizer must keep rewrites, or its claim
                // checks nothing. Its own sensitivity check is
                // `progmp_core::opt`'s unit tests.
                assert!(report.counter("rewrites kept") > 0, "{report}");
                // Every quiescence atom is certified by some program and
                // checked on some round, the idle round at least.
                for atom in [
                    "quiet rounds Q,RQ empty",
                    "quiet rounds Q,RQ,QU empty",
                    "quiet rounds no window",
                ] {
                    assert!(report.counter(atom) > 0, "{report}");
                }
                // Four codegen mutation classes on each of two
                // schedulers, a walk that lost its break, five
                // certificate weakenings and a forged quiescence guard.
                assert_eq!(probes.len(), 15, "{report}");
            }
            "chaos" => {
                assert_eq!(probes.len(), 1, "{report}");
                assert!(probes[0].detail.contains("scheduler=redundant"), "{report}");
            }
            "fleet-chaos" => {
                let quarantines = report.counter("quarantines");
                assert!(quarantines > 0, "the faulting classes must be quarantined");
                assert!(report.counter("incidents") >= quarantines);
            }
            _ => assert!(report.probes.is_none(), "{report}"),
        }
    }
}
