//! Property-based tests of the simulation kernel primitives.

use proptest::prelude::*;
use sctm_engine::event::EventQueue;
use sctm_engine::rng::StreamRng;
use sctm_engine::stats::{geomean, Histogram, Running};
use sctm_engine::time::{Freq, SimTime};

proptest! {
    /// The event queue is a total order: pops are sorted by (time, seq)
    /// regardless of insertion order.
    #[test]
    fn event_queue_total_order(times in prop::collection::vec(0u64..1_000_000, 1..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_ps(t), i);
        }
        let mut last = (SimTime::ZERO, 0u64);
        let mut count = 0;
        while let Some(e) = q.pop() {
            prop_assert!((e.at, e.seq) >= last, "order violated");
            last = (e.at, e.seq);
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// Histogram quantiles are sandwiched by min/max and monotone in q.
    #[test]
    fn histogram_quantiles_monotone(samples in prop::collection::vec(0u64..1_000_000_000, 2..500)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        let vals: Vec<u64> = qs.iter().map(|&q| h.quantile(q)).collect();
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1], "quantiles not monotone: {:?}", vals);
        }
        let lo = *samples.iter().min().unwrap();
        let hi = *samples.iter().max().unwrap();
        prop_assert_eq!(vals[0], lo);
        prop_assert_eq!(*vals.last().unwrap(), hi);
    }

    /// Histogram mean is exact (tracked outside the buckets).
    #[test]
    fn histogram_mean_exact(samples in prop::collection::vec(0u64..1_000_000, 1..300)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let expect = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        prop_assert!((h.mean() - expect).abs() < 1e-6);
    }

    /// Welford merge is equivalent to sequential accumulation.
    #[test]
    fn running_merge_associative(
        xs in prop::collection::vec(-1e6f64..1e6, 1..200),
        split in 0usize..200,
    ) {
        let split = split.min(xs.len());
        let mut whole = Running::new();
        for &x in &xs {
            whole.push(x);
        }
        let (l, r) = xs.split_at(split);
        let mut a = Running::new();
        let mut b = Running::new();
        for &x in l { a.push(x); }
        for &x in r { b.push(x); }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-6);
        prop_assert!((a.variance() - whole.variance()).abs() / whole.variance().max(1.0) < 1e-6);
    }

    /// Stream derivation is a pure function of (master seed, name, idx).
    #[test]
    fn rng_streams_reproducible(seed in any::<u64>(), idx in any::<u64>()) {
        let r1 = StreamRng::new(seed);
        let r2 = StreamRng::new(seed);
        let mut a = r1.stream("x", idx);
        let mut b = r2.stream("x", idx);
        for _ in 0..16 {
            prop_assert_eq!(a.below(1_000_000), b.below(1_000_000));
        }
    }

    /// `below(n)` is always `< n`.
    #[test]
    fn rng_below_in_range(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut r = StreamRng::new(seed);
        for _ in 0..64 {
            prop_assert!(r.below(bound) < bound);
        }
    }

    /// Clock-domain conversion roundtrip: `n` cycles span `n` periods,
    /// and dividing that span by the period gives `n` back.
    #[test]
    fn freq_roundtrip(ghz in prop_oneof![Just(1u64), Just(2), Just(4), Just(5)], n in 0u64..1_000_000) {
        let f = Freq::from_ghz(ghz);
        let t = f.cycles(n);
        prop_assert_eq!(t, f.period().scaled(n));
        prop_assert_eq!(t.as_ps() / f.period().as_ps(), n);
    }

    /// Geomean lies within [min, max] of its inputs.
    #[test]
    fn geomean_bounded(xs in prop::collection::vec(0.001f64..1e6, 1..50)) {
        let g = geomean(&xs);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(g >= lo * 0.999 && g <= hi * 1.001, "geomean {g} outside [{lo}, {hi}]");
    }
}
