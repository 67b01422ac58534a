//! Sample summaries: every reported timing is a median, printed with
//! its sample count, extremes and quartiles.

/// Linear-interpolated percentile `p` (0–100) of `sorted`, the
/// "inclusive" method: `p = 0` is the minimum, `p = 100` the maximum.
///
/// # Panics
///
/// Panics on an empty slice: a metric with no samples is a bug in the
/// benchmark, never a value to report.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Order statistics of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub p95: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            min: sorted[0],
            q1: percentile_sorted(&sorted, 25.0),
            median: percentile_sorted(&sorted, 50.0),
            q3: percentile_sorted(&sorted, 75.0),
            p95: percentile_sorted(&sorted, 95.0),
            max: sorted[sorted.len() - 1],
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        assert_eq!(percentile_sorted(&s, 50.0), 2.5);
        assert_eq!(percentile_sorted(&s, 100.0), 4.0);
        assert!((percentile_sorted(&s, 25.0) - 1.75).abs() < 1e-12);
        assert_eq!(percentile_sorted(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn summary_sorts_its_input() {
        let s = Summary::of(&[5.0, 1.0, 3.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (3, 1.0, 3.0, 5.0));
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_sample_is_a_bug() {
        percentile_sorted(&[], 50.0);
    }
}
