//! Sample folds: percentiles of one run's timings, and the
//! median/quartile summary of a metric across repeats.

/// Percentiles the benchmark may quote, lowest first, each with the
/// share of samples beyond it in parts per ten thousand (whole numbers,
/// so the ten-sample rule is not at the mercy of rounding).
const LADDER: [(f64, usize); 5] = [
    (50.0, 5_000),
    (90.0, 1_000),
    (99.0, 100),
    (99.9, 10),
    (99.99, 1),
];

/// The highest percentile of [`LADDER`] that still leaves at least ten
/// of `n` samples beyond it; `None` below 20 samples, where not even a
/// median has ten on each side.
pub fn supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .find(|(_, beyond)| n * beyond / 10_000 >= 10)
        .map(|(p, _)| *p)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (sorted.len() as f64 * p / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `p`, or the highest supported percentile when `p` has fewer than ten
/// samples beyond it (short smoke runs) — the caller prints which one
/// it got.
pub fn percentile_or_supported(sorted: &[u64], p: f64) -> (f64, u64) {
    let p = match supported_percentile(sorted.len()) {
        Some(max) => p.min(max),
        None => 50.0,
    };
    (p, percentile(sorted, p))
}

/// One metric folded across repeats.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fold {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Fold {
    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median and quartiles by the "exclusive" method Python's
/// `statistics.quantiles(values, n=4)` uses, so the numbers printed
/// here are the ones the acceptance rule computes. One sample is its
/// own quartiles.
pub fn fold(values: &[f64]) -> Fold {
    assert!(!values.is_empty(), "fold of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
    let n = v.len();
    // Python's rule, verbatim: rank j = q(n+1)/4 clamped to 1..n-1, and
    // the remainder extrapolates when the clamp moved j.
    let at = |q: usize| {
        if n == 1 {
            return v[0];
        }
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Fold {
        median: at(2),
        q1: at(1),
        q3: at(3),
        n,
    }
}

pub fn median_u64(values: &mut [u64]) -> u64 {
    values.sort_unstable();
    percentile(values, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(99), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(999), Some(90.0));
        assert_eq!(supported_percentile(1_000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
        assert_eq!(supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0), 500);
        assert_eq!(percentile(&v, 99.0), 990);
        assert_eq!(percentile(&v, 100.0), 1000);
        assert_eq!(percentile(&[7], 99.0), 7);
        // p99 asked of 200 samples falls back to the supported p90.
        let short: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile_or_supported(&short, 99.0), (90.0, 180));
        assert_eq!(percentile_or_supported(&v, 99.0), (99.0, 990));
    }

    #[test]
    fn fold_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let f = fold(&ten);
        assert_eq!((f.q1, f.median, f.q3, f.n), (2.75, 5.5, 8.25, 10));
        assert!((f.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let f = fold(&[3.0, 1.0, 2.0]);
        assert_eq!((f.q1, f.median, f.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let f = fold(&[1.0, 2.0]);
        assert_eq!((f.q1, f.median, f.q3), (0.75, 1.5, 2.25));
        let f = fold(&[4.0]);
        assert_eq!((f.q1, f.median, f.q3, f.n), (4.0, 4.0, 4.0, 1));
    }
}
