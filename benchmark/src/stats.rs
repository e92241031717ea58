//! Order statistics for timing samples.

/// Percentiles the benchmark is willing to report, lowest first.
pub const PERCENTILES: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Linear-interpolated percentile (`p` in 0..=100) of unsorted samples;
/// 0 for an empty slice.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return 0.0;
    }
    let pos = p / 100.0 * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(v, n=4)` (the "exclusive" method), so that the
/// spread this benchmark prints is the spread its gate computes.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let m = s.len();
    if m < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Quartile distance as a share of the median; 0 when undefined.
pub fn iqr_frac(v: &[f64]) -> f64 {
    let med = median(v);
    if v.len() < 2 || med == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(v);
    (q3 - q1) / med
}

/// The highest percentile of [`PERCENTILES`] that still has at least
/// ten samples beyond it, or `None` below twenty samples (where not
/// even the median has ten on each side). 20–39 samples support the
/// median only, 40 the 75th, 100 the 90th, 200 the 95th.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    // Whole per-mille arithmetic: 100 × (1 − 0.9) is not 10 in floats.
    PERCENTILES
        .iter()
        .copied()
        .rfind(|p| samples * (1000 - (p * 10.0).round() as usize) / 1000 >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&v), 5.5);
    }
}
