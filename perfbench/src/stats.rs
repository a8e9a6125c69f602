//! Metric maths shared by the workloads: medians, geometric means,
//! nearest-rank percentiles with a tail rule, fairness shares, and a
//! fine-grained latency histogram. Geometric means come from
//! [`lbench::stats::geomean`].

use lbench::stats::geomean;

/// A tail percentile is reported only when at least this many samples
/// lie strictly beyond its nearest rank; otherwise the figure would be
/// decided by a handful of outliers.
pub const TAIL_BEYOND: usize = 10;

/// Median of `v` (mean of the two middle values for an even count).
/// Panics on an empty slice or a NaN.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n`
/// samples: `⌈p/100 · n⌉`, clamped to `1..=n`.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    assert!(p > 0.0 && p <= 100.0, "percentile out of range: {p}");
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted slice, or `None` when
/// fewer than [`TAIL_BEYOND`] samples lie beyond the rank.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = nearest_rank(sorted.len(), p);
    (sorted.len() - rank >= TAIL_BEYOND).then(|| sorted[rank - 1])
}

/// Smallest per-thread op count divided by the mean: 1 for a perfectly
/// fair run, towards 0 when a thread starves.
pub fn min_share(per_thread: &[u64]) -> f64 {
    assert!(!per_thread.is_empty(), "min_share of no threads");
    let mean = per_thread.iter().sum::<u64>() as f64 / per_thread.len() as f64;
    assert!(mean > 0.0, "min_share of an idle run");
    *per_thread.iter().min().expect("non-empty") as f64 / mean
}

/// Roster geomean of per-op costs divided by the reference RMW cost
/// measured in the same round: host drift that slows every atomic
/// alike cancels out.
pub fn acq_rel_rmw(kind_ns: &[f64], rmw_ns: f64) -> f64 {
    assert!(rmw_ns > 0.0, "RMW reference must be positive");
    geomean(kind_ns).expect("positive per-kind costs") / rmw_ns
}

/// Latency histogram with 1 ns buckets up to [`LatHist::FINE_NS`] and
/// exact overflow samples beyond, so its nearest-rank percentiles equal
/// those of the raw sample set.
#[derive(Clone)]
pub struct LatHist {
    fine: Vec<u64>,
    over: Vec<u64>,
    count: u64,
}

impl Default for LatHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LatHist {
    /// Upper end of the 1 ns-resolution range.
    pub const FINE_NS: u64 = 1 << 14;

    /// An empty histogram.
    pub fn new() -> Self {
        LatHist {
            fine: vec![0; Self::FINE_NS as usize],
            over: Vec::new(),
            count: 0,
        }
    }

    /// Adds one sample.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        if ns < Self::FINE_NS {
            self.fine[ns as usize] += 1;
        } else {
            self.over.push(ns);
        }
        self.count += 1;
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &LatHist) {
        for (a, b) in self.fine.iter_mut().zip(&other.fine) {
            *a += b;
        }
        self.over.extend_from_slice(&other.over);
        self.count += other.count;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank percentile under the same tail rule as
    /// [`percentile`].
    pub fn percentile(&self, p: f64) -> Option<u64> {
        let n = self.count as usize;
        if n == 0 {
            return None;
        }
        let rank = nearest_rank(n, p);
        if n - rank < TAIL_BEYOND {
            return None;
        }
        let mut seen = 0usize;
        for (ns, &c) in self.fine.iter().enumerate() {
            seen += c as usize;
            if seen >= rank {
                return Some(ns as u64);
            }
        }
        let mut over = self.over.clone();
        over.sort_unstable();
        Some(over[rank - seen - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]).unwrap() - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0, 4.0]).unwrap() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_rejects_zero() {
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
    }

    #[test]
    fn nearest_rank_definition() {
        assert_eq!(nearest_rank(100, 50.0), 50);
        assert_eq!(nearest_rank(100, 99.0), 99);
        assert_eq!(nearest_rank(101, 50.0), 51);
        assert_eq!(nearest_rank(1000, 99.0), 990);
        assert_eq!(nearest_rank(3, 1.0), 1);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        // rank 990 leaves exactly 10 beyond: reported.
        assert_eq!(percentile(&v, 99.0), Some(990));
        assert_eq!(percentile(&v, 50.0), Some(500));
        // 999 samples: rank 990 leaves 9 beyond: withheld.
        assert_eq!(percentile(&v[..999], 99.0), None);
        assert_eq!(percentile(&v[..999], 50.0), Some(500));
        // Too few samples for even a median.
        assert_eq!(percentile(&v[..15], 50.0), None);
        assert_eq!(percentile::<u64>(&[], 50.0), None);
    }

    #[test]
    fn histogram_matches_sorted_samples() {
        let mut h = LatHist::new();
        let mut raw = Vec::new();
        let mut x = 12345u64;
        for _ in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let ns = (x >> 33) % 40_000; // spans the fine and overflow ranges
            h.record(ns);
            raw.push(ns);
        }
        raw.sort_unstable();
        for p in [1.0, 25.0, 50.0, 90.0, 99.0, 99.5] {
            assert_eq!(h.percentile(p), percentile(&raw, p), "p{p}");
        }
        assert_eq!(h.percentile(99.9), None);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = LatHist::new();
        let mut b = LatHist::new();
        for i in 0..100 {
            a.record(i);
            b.record(100_000 + i);
        }
        a.merge(&b);
        assert_eq!(a.count(), 200);
        assert_eq!(a.percentile(50.0), Some(99));
        assert_eq!(a.percentile(90.0), Some(100_079));
    }

    #[test]
    fn min_share_is_min_over_mean() {
        assert_eq!(min_share(&[100, 100]), 1.0);
        assert!((min_share(&[50, 150]) - 0.5).abs() < 1e-12);
        assert_eq!(min_share(&[7]), 1.0);
    }

    #[test]
    fn acq_rel_rmw_cancels_common_drift() {
        let base = acq_rel_rmw(&[14.0, 64.0, 1100.0], 7.0);
        // Every cost, the reference included, 15% slower: same ratio.
        let drifted = acq_rel_rmw(&[14.0 * 1.15, 64.0 * 1.15, 1100.0 * 1.15], 7.0 * 1.15);
        assert!((base - drifted).abs() < 1e-9);
        let expect = (14.0f64 * 64.0 * 1100.0).powf(1.0 / 3.0) / 7.0;
        assert!((base - expect).abs() < 1e-9);
    }
}
