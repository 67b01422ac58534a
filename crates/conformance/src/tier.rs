//! The tier contract and the seed-sharded sweep driver.
//!
//! Every fuzz tier in this crate is one row of [`TIERS`]: a per-seed
//! check that writes counter increments and [`Finding`]s into a
//! [`Report`], and optionally a probe set — deliberately injected
//! defects the tier must catch, so a silent sweep means something.
//! [`run`] is the only sweep loop: it hands the seeds of a range to
//! worker threads, sums the counters and orders the findings by seed,
//! so the report is the same for every thread count. What a tier
//! checks, and why, is documented on its module.

use crate::{chaos, fleet_chaos, program};
use progmp_core::Diagnostic;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// One fuzz tier: what `conformance-fuzz --tier NAME` runs.
pub struct Tier {
    /// Name on the command line and in every replay line.
    pub name: &'static str,
    /// Seeds swept when `--seeds` is not given (the CI count).
    pub default_seeds: u64,
    /// What a finding in this tier means, for the usage text.
    pub about: &'static str,
    /// The counters the check increments, in report order.
    pub counters: &'static [&'static str],
    /// The ratios the check reports the largest of, in report order.
    pub(crate) maxima: &'static [&'static str],
    /// Checks one seed, recording counters and findings in the report.
    /// Panics on a generator bug (a generated program that does not
    /// compile), since that invalidates the harness itself.
    pub check: fn(u64, &mut Report),
    /// The tier's sensitivity check, run once per sweep: every probe
    /// must come back caught, and the set must not be empty.
    pub probes: Option<fn() -> Vec<Probe>>,
}

/// The three tiers CI runs, each with the seed count CI uses.
pub static TIERS: [Tier; 3] = [
    Tier {
        name: "program",
        default_seeds: 1000,
        about: "backends disagree on a generated program, or it breaks a claim its compile made",
        counters: &[
            "admitted",
            "rejected",
            "clean images",
            "wc-proved",
            "with refutations",
            "exec errors",
            "unoptimized over limits",
            "optimized clean",
            "rewrites kept",
            "rolled back",
            "quiet rounds Q,RQ empty",
            "quiet rounds Q,RQ,QU empty",
            "quiet rounds no window",
        ],
        maxima: &[
            "interpreter steps/budget",
            "aot steps/budget",
            "vm steps/budget",
            "bytecode model/certified",
        ],
        check: program::check_seed,
        probes: Some(program::probes),
    },
    Tier {
        name: "chaos",
        default_seeds: 200,
        about: "a transfer under a fault plan diverges across backends, trips the oracle or stalls",
        counters: &[],
        maxima: &[],
        check: chaos::check_seed,
        probes: Some(chaos::probes),
    },
    Tier {
        name: "fleet-chaos",
        default_seeds: 100,
        about: "a fleet of 8 faulting schedulers differs across 1/2/8 workers, stalls or escapes containment",
        counters: &["quarantines", "incidents"],
        maxima: &[],
        check: fleet_chaos::check_seed,
        probes: None,
    },
];

/// The tier called `name`, if there is one.
pub fn find(name: &str) -> Option<&'static Tier> {
    TIERS.iter().find(|t| t.name == name)
}

/// One failed check, whichever tier raised it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Tier that raised it.
    pub tier: &'static str,
    /// Seed that produced the case.
    pub seed: u64,
    /// Where it surfaced: backend, pipeline stage or invariant.
    pub context: String,
    /// What went wrong.
    pub detail: String,
    /// The failing input: program source, or the shrunk case.
    pub repro: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} finding at seed {}", self.tier, self.seed)?;
        writeln!(f, "context: {}", self.context)?;
        writeln!(f, "detail: {}", self.detail)?;
        writeln!(f, "repro:\n{}", self.repro.trim_end())?;
        write!(
            f,
            "replay: conformance-fuzz --tier {} --start {} --seeds 1",
            self.tier, self.seed
        )
    }
}

/// One deliberately injected defect and whether the tier caught it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Probe {
    /// What was injected, and where.
    pub label: String,
    /// Whether the tier's own check flagged it, with everything the tier
    /// demands of a catch (a source span, a silent honest baseline).
    pub caught: bool,
    /// The catching diagnostic, or why the catch does not count.
    pub detail: String,
}

impl Probe {
    /// A probe the static pipeline must answer with a diagnostic: it is
    /// caught when the image was `rejected` (refused, or the pass rolled
    /// back) *and* the `diagnostic` saying so carries a real source span.
    pub fn diagnosed(label: String, rejected: bool, diagnostic: Option<&Diagnostic>) -> Probe {
        let spanned = diagnostic.is_some_and(|d| d.pos.line > 0);
        Probe {
            label,
            caught: rejected && spanned,
            detail: match diagnostic {
                Some(d) if spanned => d.to_string(),
                Some(d) => format!("{d} (no source span)"),
                None => "no diagnostic".to_string(),
            },
        }
    }
}

/// What a sweep found. Workers fill one each; [`run`] merges them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Tier that ran.
    pub tier: &'static str,
    /// The seed range asked for.
    pub seeds: Range<u64>,
    /// Seeds actually checked.
    pub checked: u64,
    /// The tier's counters, summed over the checked seeds.
    pub counters: Vec<(&'static str, u64)>,
    /// The tier's maxima over the checked seeds, in millionths.
    pub(crate) maxima: Vec<(&'static str, u64)>,
    /// Every failed check, in seed order.
    pub findings: Vec<Finding>,
    /// The probe outcomes; `None` for a tier without a probe set.
    pub probes: Option<Vec<Probe>>,
}

impl Report {
    fn new(tier: &Tier, seeds: Range<u64>) -> Report {
        Report {
            tier: tier.name,
            seeds,
            checked: 0,
            counters: tier.counters.iter().map(|&name| (name, 0)).collect(),
            maxima: tier.maxima.iter().map(|&name| (name, 0)).collect(),
            findings: Vec::new(),
            probes: None,
        }
    }

    fn slot(&self, name: &str) -> usize {
        let slot = self.counters.iter().position(|(c, _)| *c == name);
        slot.unwrap_or_else(|| panic!("tier {} declares no counter {name:?}", self.tier))
    }

    /// Adds `n` to the counter called `name`.
    ///
    /// # Panics
    /// If the tier does not declare `name` in [`Tier::counters`].
    pub fn count(&mut self, name: &str, n: u64) {
        let slot = self.slot(name);
        self.counters[slot].1 += n;
    }

    /// Raises the maximum called `name` to `numerator / denominator`
    /// if that is larger (a zero denominator counts as one).
    ///
    /// # Panics
    /// If the tier does not declare `name` in [`Tier::maxima`].
    pub(crate) fn at_least(&mut self, name: &str, numerator: u64, denominator: u64) {
        let millionths = u128::from(numerator) * 1_000_000 / u128::from(denominator.max(1));
        let slot = self.maxima.iter().position(|(m, _)| *m == name);
        let slot =
            slot.unwrap_or_else(|| panic!("tier {} declares no maximum {name:?}", self.tier));
        let max = &mut self.maxima[slot].1;
        *max = (*max).max(u64::try_from(millionths).unwrap_or(u64::MAX));
    }

    /// The summed value of the counter called `name`.
    ///
    /// # Panics
    /// If the tier does not declare `name` in [`Tier::counters`].
    pub fn counter(&self, name: &str) -> u64 {
        self.counters[self.slot(name)].1
    }

    /// Records a failed check at `seed`.
    pub fn finding(
        &mut self,
        seed: u64,
        context: impl Into<String>,
        detail: impl Into<String>,
        repro: impl Into<String>,
    ) {
        self.findings.push(Finding {
            tier: self.tier,
            seed,
            context: context.into(),
            detail: detail.into(),
            repro: repro.into(),
        });
    }

    /// True iff the tier's probe set (if it has one) is non-empty and
    /// every probe in it was caught.
    pub fn all_caught(&self) -> bool {
        self.probes
            .as_ref()
            .is_none_or(|probes| !probes.is_empty() && probes.iter().all(|p| p.caught))
    }

    /// True iff the sweep raised no finding and missed no probe.
    pub fn passed(&self) -> bool {
        self.findings.is_empty() && self.all_caught()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: seeds [{}, {}), {} checked",
            self.tier, self.seeds.start, self.seeds.end, self.checked
        )?;
        for (name, value) in &self.counters {
            write!(f, ", {value} {name}")?;
        }
        write!(f, ", {} findings", self.findings.len())?;
        for (i, (name, millionths)) in self.maxima.iter().enumerate() {
            let lead = if i == 0 { "\n  largest" } else { "," };
            write!(f, "{lead} {name} {:.3}", *millionths as f64 / 1e6)?;
        }
        if let Some(probes) = &self.probes {
            let caught = probes.iter().filter(|p| p.caught).count();
            write!(f, "\n  probes: {caught}/{} caught", probes.len())?;
            for p in probes {
                let mark = if p.caught { "caught" } else { "MISSED" };
                write!(f, "\n  [{mark}] {} — {}", p.label, p.detail)?;
            }
        }
        for finding in &self.findings {
            write!(f, "\n{finding}")?;
        }
        Ok(())
    }
}

/// Sweeps `tier` over `seeds` on up to `threads` workers, then runs its
/// probe set. Workers take the next unchecked seed from a shared cursor,
/// so an expensive seed does not hold up a whole shard; the report does
/// not depend on which worker checked which seed.
pub fn run(tier: &Tier, seeds: Range<u64>, threads: usize) -> Report {
    let count = seeds.end.saturating_sub(seeds.start);
    let workers = (threads as u64).clamp(1, count.max(1)) as usize;
    // Offsets into the range, not seeds: `end + workers` may not fit.
    let cursor = AtomicU64::new(0);
    let mut report = Report::new(tier, seeds.clone());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut part = Report::new(tier, seeds.clone());
                    loop {
                        // Publishes nothing but the claim on an offset.
                        let offset = cursor.fetch_add(1, Ordering::Relaxed);
                        if offset >= count {
                            return part;
                        }
                        (tier.check)(seeds.start + offset, &mut part);
                        part.checked += 1;
                    }
                })
            })
            .collect();
        for handle in handles {
            let part = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            report.checked += part.checked;
            for (total, (_, n)) in report.counters.iter_mut().zip(part.counters) {
                total.1 += n;
            }
            for (max, (_, n)) in report.maxima.iter_mut().zip(part.maxima) {
                max.1 = max.1.max(n);
            }
            report.findings.extend(part.findings);
        }
    });
    // Stable: one worker checks a seed whole, so its findings keep the
    // order the check raised them in.
    report.findings.sort_by_key(|f| f.seed);
    report.probes = tier.probes.map(|probes| probes());
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts unevenly (`seed % 7` per seed) and plants one finding at
    /// every seed divisible by 5, two at seed 10.
    fn stub_check(seed: u64, out: &mut Report) {
        out.count("weight", seed % 7);
        out.count("odd", seed % 2);
        if seed.is_multiple_of(5) {
            out.finding(seed, "stub", format!("planted at {seed}"), "first");
        }
        if seed == 10 {
            out.finding(seed, "stub", "planted at 10 again", "second");
        }
    }

    static STUB: Tier = Tier {
        name: "stub",
        default_seeds: 1,
        about: "driver test",
        counters: &["weight", "odd"],
        maxima: &[],
        check: stub_check,
        probes: None,
    };

    #[test]
    fn report_is_the_same_for_every_thread_count() {
        let one = run(&STUB, 3..40, 1);
        assert_eq!(one.checked, 37);
        assert_eq!(one.counter("weight"), (3..40).map(|s| s % 7).sum::<u64>());
        assert_eq!(one.counter("odd"), 19);
        let seeds: Vec<u64> = one.findings.iter().map(|f| f.seed).collect();
        assert_eq!(seeds, [5, 10, 10, 15, 20, 25, 30, 35]);
        assert_eq!(one.findings[1].repro, "first");
        assert_eq!(one.findings[2].repro, "second");
        assert!(!one.passed());
        for threads in [2, 5] {
            assert_eq!(run(&STUB, 3..40, threads), one, "{threads} threads");
        }
    }

    #[test]
    fn empty_and_short_ranges_check_what_they_say() {
        let empty = run(&STUB, 7..7, 5);
        assert_eq!(empty.checked, 0);
        assert!(empty.passed());
        assert!(empty.to_string().contains("seeds [7, 7), 0 checked"));
        // Fewer seeds than threads, at the very top of the seed space.
        let top = run(&STUB, u64::MAX - 2..u64::MAX, 5);
        assert_eq!(top.checked, 2);
        assert_eq!(top, run(&STUB, u64::MAX - 2..u64::MAX, 1));
    }

    #[test]
    fn a_finding_ends_with_its_replay_line() {
        let report = run(&STUB, 5..6, 1);
        let text = report.to_string();
        assert!(
            text.ends_with("replay: conformance-fuzz --tier stub --start 5 --seeds 1"),
            "{text}"
        );
    }

    #[test]
    fn a_probe_set_must_be_non_empty_and_all_caught() {
        let mut report = Report::new(&STUB, 0..0);
        assert!(report.all_caught(), "no probe set declared");
        report.probes = Some(Vec::new());
        assert!(!report.all_caught(), "a declared set that ran nothing");
        let probe = |caught| Probe {
            label: "defect".into(),
            caught,
            detail: String::new(),
        };
        report.probes = Some(vec![probe(true), probe(false)]);
        assert!(!report.passed());
        report.probes = Some(vec![probe(true)]);
        assert!(report.passed());
    }

    #[test]
    fn tier_names_are_unique() {
        for (i, tier) in TIERS.iter().enumerate() {
            assert!(std::ptr::eq(find(tier.name).unwrap(), &TIERS[i]));
        }
    }
}
