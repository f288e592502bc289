//! Order statistics used by every metric: medians, the tail rule, and the
//! quartile spread the calibrate/compare tools judge repeatability with.

/// Median of `v` (mean of the two middle values for an even count). `v` is
/// sorted in place. Returns NaN for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    median_sorted(v)
}

/// Median of an already sorted slice.
pub fn median_sorted(v: &[f64]) -> f64 {
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`pct` in 0..=100) of a sorted, non-empty slice.
pub fn percentile_sorted(v: &[f64], pct: f64) -> f64 {
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to be reportable.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail of a sorted sample: p99 while at least [`TAIL_MIN_BEYOND`]
/// samples lie beyond it, else the highest percentile of the ladder that
/// qualifies. `None` when not even the median has ten samples beyond it.
pub fn tail_sorted(v: &[f64]) -> Option<(f64, f64)> {
    TAIL_LADDER.iter().find_map(|&pct| {
        let beyond = v.len() - ((pct / 100.0) * v.len() as f64).ceil() as usize;
        (beyond >= TAIL_MIN_BEYOND).then(|| (pct, percentile_sorted(v, pct)))
    })
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) gives them. Needs at least two values.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two values");
    let at = |k: usize| {
        // Position k*(n+1)/4 on the 1-based sorted sample, clamped to it.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median — the repeatability
/// figure the benchmark's bounds are compared with.
pub fn iqr_share(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    let mut s = v.to_vec();
    (q3 - q1) / median(&mut s).abs()
}

/// A batch-timed series: one wall-clock duration per fixed-size batch of ops.
#[derive(Clone, Debug, Default)]
pub struct Series {
    /// Operations in every batch.
    pub ops_per_batch: u64,
    /// Wall-clock nanoseconds of each batch.
    pub batch_ns: Vec<u64>,
}

impl Series {
    /// Empty series of `ops_per_batch`-sized batches.
    pub fn new(ops_per_batch: u64) -> Series {
        Series {
            ops_per_batch,
            batch_ns: Vec::with_capacity(4096),
        }
    }

    /// Per-batch mean ns/op, sorted ascending.
    pub fn sorted_ns_per_op(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .batch_ns
            .iter()
            .map(|&b| b as f64 / self.ops_per_batch as f64)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median of the per-batch mean ns/op — the latency statistic.
    pub fn median_ns_per_op(&self) -> f64 {
        median_sorted(&self.sorted_ns_per_op())
    }

    /// `batch_ops / median batch time` in ops per second — the rate statistic.
    pub fn ops_per_s(&self) -> f64 {
        1e9 / self.median_ns_per_op()
    }

    /// Total operations timed.
    pub fn ops(&self) -> u64 {
        self.ops_per_batch * self.batch_ns.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let of = |n: usize| tail_sorted(&(0..n).map(|i| i as f64).collect::<Vec<_>>());
        // p99 exactly when 1 % of the sample is ten values.
        assert_eq!(of(1000).unwrap().0, 99.0);
        assert_eq!(of(999).unwrap().0, 95.0);
        assert_eq!(of(200).unwrap().0, 95.0);
        assert_eq!(of(199).unwrap().0, 90.0);
        assert_eq!(of(100).unwrap().0, 90.0);
        assert_eq!(of(40).unwrap().0, 75.0);
        assert_eq!(of(20).unwrap().0, 50.0);
        assert!(of(19).is_none());
        // The reported value is the percentile itself.
        assert_eq!(of(1000).unwrap().1, 989.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 30, 50, 90], n=4) == [15.0, 30.0, 70.0]
        assert_eq!(quartiles(&[50.0, 10.0, 90.0, 20.0, 30.0]), (15.0, 70.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(iqr_share(&v), 1.0);
    }

    #[test]
    fn series_statistics() {
        let s = Series {
            ops_per_batch: 100,
            batch_ns: (1..=20).rev().map(|i| i * 10_000).collect(),
        };
        // Median of 20 batch means (100, 200, … 2000 ns/op).
        assert_eq!(s.median_ns_per_op(), 1050.0);
        assert_eq!(s.ops_per_s(), 1e9 / 1050.0);
        assert_eq!(s.ops(), 2000);
    }
}
