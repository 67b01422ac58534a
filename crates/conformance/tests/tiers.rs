//! Every tier in `TIERS`, swept through the one driver: no findings on
//! a clean tree, every probe set caught, and the precision floors each
//! tier has always been held to.
//!
//! The differential and soundness rows are the crate's large `cargo
//! test` sweeps (600 and 500 seeds); the rest run the bounded counts
//! that keep a debug build quick. `conformance-fuzz` explores further.

use progmp_conformance::tier::{run, TIERS};

#[test]
fn every_tier_is_silent_and_every_probe_set_bites() {
    assert_eq!(TIERS.len(), 7);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    for tier in &TIERS {
        let seeds = match tier.name {
            "differential" => 600,
            "soundness" => 500,
            "vm-soundness" | "opt-soundness" => 32,
            "prop-soundness" => 64,
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
            // Precision floor: the verifier must admit a healthy
            // majority of generated programs, otherwise the gate is
            // uselessly conservative.
            "soundness" => assert!(report.counter("admitted") * 2 > seeds, "{report}"),
            "vm-soundness" => {
                assert_eq!(report.counter("images"), seeds, "{report}");
                // Four mutation classes on each of two schedulers.
                assert_eq!(probes.len(), 8, "{report}");
            }
            // Its sensitivity check is `progmp_core::opt`'s unit tests.
            "opt-soundness" => {
                assert!(report.counter("rewrites kept") > 0, "{report}");
                assert!(report.probes.is_none(), "{report}");
            }
            "prop-soundness" => assert_eq!(probes.len(), 6, "{report}"),
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
