//! Integration tests for the `conformance-fuzz` binary's argument
//! contract: a usage error exits 2 and names the valid tiers; a tier
//! named twice runs once.

use progmp_conformance::tier::TIERS;
use std::process::{Command, Output};

fn fuzz(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_conformance-fuzz"))
        .args(args)
        .output()
        .expect("failed to spawn conformance-fuzz")
}

#[test]
fn seed_range_overflow_is_a_usage_error() {
    let out = fuzz(&[
        "--tier",
        "program",
        "--start",
        "18446744073709551615",
        "--seeds",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run or report success");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("overflow"), "{stderr}");
}

#[test]
fn unknown_tier_is_a_usage_error_listing_the_valid_names() {
    // A typo, a tier that went with the interval-only verifier mode, and
    // the four per-program tiers `program` replaced.
    let unknowns = [
        "soundnes",
        "soundness-interval",
        "differential",
        "soundness",
        "vm-soundness",
        "prop-soundness",
    ];
    for unknown in unknowns {
        let out = fuzz(&["--tier", unknown]);
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8(out.stderr).unwrap();
        let complaint = format!("unknown tier {unknown:?}");
        assert!(stderr.contains(&complaint), "{stderr}");
        for tier in &TIERS {
            assert!(
                stderr.contains(tier.name),
                "{} missing: {stderr}",
                tier.name
            );
        }
    }
    // The flags the tiers replaced are gone, not aliased.
    for gone in [&["--soundness"][..], &["--fleet", "8"], &["--no-octagon"]] {
        assert_eq!(fuzz(gone).status.code(), Some(2), "{gone:?}");
    }
}

#[test]
fn a_tier_named_twice_runs_once_and_reports_what_it_checked() {
    let out = fuzz(&[
        "--tier",
        "program",
        "--tier",
        "program",
        "--start",
        "18446744073709551613",
        "--seeds",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(0), "{:?}", out.stderr);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.matches("program: seeds").count(), 1, "{stdout}");
    assert!(
        stdout.contains("seeds [18446744073709551613, 18446744073709551615), 2 checked"),
        "{stdout}"
    );
}
