//! Streaming statistics.
//!
//! Instrumentation stays enabled in benchmark runs, so everything here is
//! O(1) per sample with small constants: Welford mean/variance and a
//! two-level histogram (log2 bucket + linear sub-bucket) that gives
//! ~6% relative quantile error over the full `u64` range using 4 KiB.

/// Welford streaming mean / variance / min / max.
#[derive(Debug, Clone)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Running {
    fn default() -> Self {
        Self::new()
    }
}

impl Running {
    pub fn new() -> Self {
        Running {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (n-1 denominator).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merge another accumulator into this one (Chan et al. parallel
    /// combination) — used when joining per-thread sweep results.
    pub fn merge(&mut self, other: &Running) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

const LINEAR_BITS: u32 = 3; // 8 sub-buckets per power of two
const SUB: usize = 1 << LINEAR_BITS;
const GROUPS: usize = 64;

/// Log-linear histogram of `u64` samples (HdrHistogram-style).
///
/// Bucket `g, s` covers values with the top bit in position `g` and the
/// next `LINEAR_BITS` bits equal to `s`, giving bounded relative error
/// on quantile queries (≤ `2^-LINEAR_BITS` ≈ 12.5% width, ~6% midpoint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; GROUPS * SUB],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    #[inline]
    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let g = 63 - v.leading_zeros();
        let s = ((v >> (g - LINEAR_BITS)) & (SUB as u64 - 1)) as usize;
        (g as usize - LINEAR_BITS as usize + 1) * SUB + s
    }

    /// Lower edge of the bucket with the given flat index.
    fn bucket_low(idx: usize) -> u64 {
        let g = idx / SUB;
        let s = (idx % SUB) as u64;
        if g == 0 {
            s
        } else {
            let base_shift = g as u32 + LINEAR_BITS - 1;
            (1u64 << base_shift) + (s << (base_shift - LINEAR_BITS))
        }
    }

    /// Midpoint of the bucket with the given flat index. Group 0 buckets
    /// hold a single exact value; wider buckets report their centre,
    /// halving the worst-case quantile error versus the lower edge.
    /// Computed from the bucket width directly so the top group (whose
    /// *upper* edge would overflow `u64`) stays in range.
    fn bucket_mid(idx: usize) -> u64 {
        let g = idx / SUB;
        if g == 0 {
            return Self::bucket_low(idx);
        }
        let base_shift = g as u32 + LINEAR_BITS - 1;
        let half_width = 1u64 << base_shift >> (LINEAR_BITS + 1);
        Self::bucket_low(idx) + half_width
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate quantile `q` in `[0, 1]`. Returns the midpoint of the
    /// bucket containing the q-th sample, clamped to `[min, max]` (so
    /// q=0/1 stay exact). Buckets are `2^-LINEAR_BITS` relative width,
    /// giving a worst-case error of half that: ≤ 1/16 ≈ 6% of the true
    /// order statistic.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min();
        }
        if q >= 1.0 {
            return self.max();
        }
        let target = (q * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_mid(i).max(self.min).min(self.max);
            }
        }
        self.max
    }

    /// Upper edge (inclusive) of the bucket with the given flat index:
    /// the largest value the bucket can hold.
    fn bucket_high(idx: usize) -> u64 {
        if idx + 1 < GROUPS * SUB {
            Self::bucket_low(idx + 1) - 1
        } else {
            u64::MAX
        }
    }

    /// Number of recorded samples **guaranteed** to be ≤ `v`: the sum of
    /// every bucket whose entire range lies at or below `v`. Bucketed,
    /// so it undercounts by at most one bucket's population (≤ 12.5%
    /// relative width) when `v` falls inside a bucket; it is monotone in
    /// `v` and `count_le(u64::MAX) == count()`, which is exactly what a
    /// cumulative (Prometheus-style) bucket export needs.
    pub fn count_le(&self, v: u64) -> u64 {
        let mut n = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 && Self::bucket_high(i) <= v {
                n += c;
            }
        }
        n
    }

    /// Sum of all recorded samples (exact, not bucketed).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Merge another histogram (same shape by construction).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Relative error |measured − reference| / reference, in percent.
/// Returns 0 when the reference is 0 and measured is 0 too; returns
/// `f64::INFINITY` when only the reference is 0.
pub fn rel_err_pct(measured: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        if measured == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (measured - reference).abs() / reference.abs() * 100.0
    }
}

/// Geometric mean of positive values; 0 if empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|&x| x.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_mean_var() {
        let mut r = Running::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            r.push(x);
        }
        assert!((r.mean() - 5.0).abs() < 1e-12);
        // sample variance of this classic set is 32/7
        assert!((r.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(r.min(), 2.0);
        assert_eq!(r.max(), 9.0);
        assert_eq!(r.count(), 8);
    }

    #[test]
    fn running_empty_is_zeroes() {
        let r = Running::new();
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.variance(), 0.0);
        assert_eq!(r.min(), 0.0);
        assert_eq!(r.max(), 0.0);
    }

    #[test]
    fn running_merge_equals_sequential() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| (i as f64 * 0.37).sin() * 10.0 + 5.0)
            .collect();
        let mut all = Running::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = Running::new();
        let mut b = Running::new();
        for &x in &xs[..400] {
            a.push(x);
        }
        for &x in &xs[400..] {
            b.push(x);
        }
        a.merge(&b);
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.count(), all.count());
    }

    #[test]
    fn histogram_small_values_exact() {
        let mut h = Histogram::new();
        for v in 0..8u64 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 7);
        assert_eq!(h.count(), 8);
        assert!((h.mean() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles_bounded_error() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, expect) in [(0.5, 5_000.0), (0.95, 9_500.0), (0.99, 9_900.0)] {
            let got = h.quantile(q) as f64;
            let err = (got - expect).abs() / expect;
            assert!(err < 0.15, "q={q}: got {got}, expect {expect}, err {err}");
        }
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 10_000);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..500u64 {
            a.record(v);
        }
        for v in 500..1000u64 {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 1000);
        assert_eq!(a.min(), 0);
        assert_eq!(a.max(), 999);
        let mid = a.p50() as f64;
        assert!((mid - 500.0).abs() / 500.0 < 0.15, "p50={mid}");
    }

    #[test]
    fn histogram_huge_values_dont_panic() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.count(), 2);
        assert!(h.quantile(0.5) > 1 << 62);
    }

    #[test]
    fn bucket_index_monotone_on_boundaries() {
        // Indices must be non-decreasing in value, or quantiles break.
        let mut last = 0;
        let mut v = 0u64;
        while v < u64::MAX / 2 {
            let idx = Histogram::index(v);
            assert!(idx >= last, "index not monotone at v={v}");
            last = idx;
            v = v + v / 16 + 1;
        }
    }

    #[test]
    fn count_le_is_monotone_cumulative_and_complete() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        // Monotone over increasing thresholds, complete at the top.
        let mut last = 0;
        for exp in 0..12u32 {
            let v = 10u64.pow(exp);
            let n = h.count_le(v);
            assert!(n >= last, "count_le not monotone at {v}");
            // Never overcounts: every counted sample really is ≤ v.
            assert!(n <= v.min(10_000), "count_le({v}) = {n} overcounts");
            last = n;
        }
        assert_eq!(h.count_le(u64::MAX), h.count());
        assert_eq!(h.count_le(0), 0);
        // Small values are exact (group-0 buckets hold single values).
        assert_eq!(h.count_le(5), 5);
        // Undercount is bounded by one bucket (12.5% relative width).
        let n = h.count_le(8_000);
        assert!(n as f64 >= 8_000.0 * 0.85, "count_le(8000) = {n}");
    }

    #[test]
    fn histogram_sum_is_exact() {
        let mut h = Histogram::new();
        for v in [1u64, 10, 100, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.sum(), 111u128 + u64::MAX as u128);
    }

    #[test]
    fn empty_histogram_sums_and_cumulates_to_zero() {
        let h = Histogram::new();
        assert_eq!(h.sum(), 0);
        assert_eq!(h.count(), 0);
        for v in [0u64, 1, 1 << 20, u64::MAX] {
            assert_eq!(h.count_le(v), 0, "count_le({v}) on empty histogram");
        }
    }

    #[test]
    fn single_bucket_histogram_is_exact() {
        // All mass in one bucket: sum, count and the cumulative count
        // on either side of the value must all be exact, including the
        // v-1 / v boundary (group-0 buckets hold single values).
        let mut h = Histogram::new();
        for _ in 0..7 {
            h.record(5);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 35);
        assert_eq!(h.count_le(4), 0);
        assert_eq!(h.count_le(5), 7);
        assert_eq!(h.count_le(u64::MAX), 7);
    }

    #[test]
    fn rel_err_pct_cases() {
        assert!((rel_err_pct(110.0, 100.0) - 10.0).abs() < 1e-9);
        assert_eq!(rel_err_pct(0.0, 0.0), 0.0);
        assert!(rel_err_pct(1.0, 0.0).is_infinite());
        assert!((rel_err_pct(90.0, 100.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_cases() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[4.0, 9.0]) - 6.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }
}
