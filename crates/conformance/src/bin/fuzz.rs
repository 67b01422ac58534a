//! Seed-sweeping fuzzer over the tiers in [`progmp_conformance::tier`].
//!
//! ```text
//! conformance-fuzz [--tier NAME]... [--start S] [--seeds N]
//! ```
//!
//! Runs each named tier (every tier when none is named) over seeds
//! `[S, S+N)` — `N` defaults to the tier's CI count — on as many threads
//! as the machine offers, then the tier's probe set. Exits 0 when no
//! tier raised a finding or missed a probe, 1 otherwise, 2 on a usage
//! error. What each tier checks is documented on its module.

use progmp_conformance::tier::{self, Tier, TIERS};
use std::time::Instant;

fn usage(problem: &str) -> ! {
    eprintln!("conformance-fuzz: {problem}");
    eprintln!("usage: conformance-fuzz [--tier NAME]... [--start S] [--seeds N]");
    eprintln!("tiers (seeds swept when --seeds is not given; what a finding means):");
    for t in &TIERS {
        eprintln!("  {:<24} {:>5}  {}", t.name, t.default_seeds, t.about);
    }
    std::process::exit(2);
}

fn main() {
    let mut tiers: Vec<&'static Tier> = Vec::new();
    let (mut start, mut seeds) = (0u64, None::<u64>);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"));
        };
        let number = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("{flag} {value}: not a seed count")))
        };
        match flag.as_str() {
            "--tier" => match tier::find(&value) {
                Some(t) if tiers.iter().any(|seen| seen.name == t.name) => {}
                Some(t) => tiers.push(t),
                None => usage(&format!("unknown tier {value:?}")),
            },
            "--start" => start = number(),
            "--seeds" => seeds = Some(number()),
            _ => usage(&format!("unknown option {flag}")),
        }
    }
    if tiers.is_empty() {
        tiers.extend(&TIERS);
    }
    // Every range is fixed before any tier runs, so a range that does
    // not fit in the seed space is refused, not wrapped or clipped.
    let plan: Vec<_> = tiers
        .into_iter()
        .map(|t| {
            let count = seeds.unwrap_or(t.default_seeds);
            match start.checked_add(count) {
                Some(end) => (t, start..end),
                None => usage(&format!("seeds [{start}, {start} + {count}) overflow u64")),
            }
        })
        .collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut failed = false;
    for (t, range) in plan {
        let began = Instant::now();
        let report = tier::run(t, range, threads);
        println!("{report}");
        println!(
            "  {:.3} s wall on {threads} thread(s)",
            began.elapsed().as_secs_f64()
        );
        failed |= !report.passed();
    }
    std::process::exit(failed as i32);
}
