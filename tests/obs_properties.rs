//! Property test for the observability layer's numeric guarantee:
//! histogram quantiles stay within their documented error bound over the
//! full `u64` range.

use proptest::prelude::*;
use sctm::engine::stats::Histogram;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Quantiles are within ~6% of the true order statistic for any
    /// sample set drawn from the **full** `u64` range: the log-linear
    /// buckets have width ≤ value/8, and `quantile` returns the bucket
    /// midpoint clamped to `[min, max]`, so the error is ≤ value/16
    /// (+1 for integer rounding).
    #[test]
    fn histogram_quantile_error_bounded(samples in prop::collection::vec(any::<u64>(), 1..400)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for &q in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99] {
            // Same rank convention as Histogram::quantile.
            let target = ((q * sorted.len() as f64).ceil() as usize).max(1);
            let truth = sorted[target - 1];
            let got = h.quantile(q);
            prop_assert!(
                got.abs_diff(truth) <= truth / 16 + 1,
                "q={q}: got {got}, true order statistic {truth} (n={})",
                sorted.len()
            );
        }
        prop_assert_eq!(h.quantile(0.0), sorted[0]);
        prop_assert_eq!(h.quantile(1.0), *sorted.last().unwrap());
    }
}
