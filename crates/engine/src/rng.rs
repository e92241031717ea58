//! Deterministic, stream-split randomness.
//!
//! Every stochastic decision in the workspace (traffic injection, address
//! randomisation, adaptive-routing tiebreaks, ...) draws from a
//! [`StreamRng`]. A run is configured with one master `u64` seed; each
//! component derives its own *named stream* with [`StreamRng::stream`],
//! so adding a new consumer of randomness in one component cannot perturb
//! the sequence seen by any other — the property that keeps A/B
//! comparisons between simulator modes honest.
//!
//! The generator is xoshiro256++ (public-domain constants), seeded
//! through SplitMix64. We carry our own 40-line implementation with no
//! external dependency: the stream derivation is part of the simulator's
//! determinism contract and must never shift under a crate version bump.

use crate::hash::fnv1a;

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ PRNG with named-stream derivation.
#[derive(Debug, Clone)]
pub struct StreamRng {
    s: [u64; 4],
    master_seed: u64,
}

impl StreamRng {
    /// Root generator for a run.
    pub fn new(master_seed: u64) -> Self {
        Self::seeded(master_seed, master_seed)
    }

    fn seeded(state_seed: u64, master_seed: u64) -> Self {
        let mut sm = state_seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        StreamRng { s, master_seed }
    }

    /// Derive an independent generator for `(name, index)`.
    ///
    /// Derivation depends only on the master seed and the identifiers —
    /// not on how many values the parent has produced — so components can
    /// be created in any order.
    pub fn stream(&self, name: &str, index: u64) -> StreamRng {
        let h = fnv1a(name.as_bytes()) ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        StreamRng::seeded(self.master_seed ^ h, self.master_seed)
    }

    /// The master seed this generator tree was built from.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    #[inline]
    fn next(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`. 53-bit precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` via Lemire's method (no modulo bias).
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        let mut x = self.next();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Geometric inter-arrival gap for a Bernoulli-per-cycle process of
    /// rate `p` (expected value `1/p`). Returns at least 1.
    #[inline]
    pub fn geometric(&mut self, p: f64) -> u64 {
        if p >= 1.0 {
            return 1;
        }
        if p <= 0.0 {
            return u64::MAX;
        }
        let u = self.f64().max(f64::MIN_POSITIVE);
        let g = (u.ln() / (1.0 - p).ln()).ceil();
        (g as u64).max(1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Pick a uniformly random element.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "pick from empty slice");
        &xs[self.below(xs.len() as u64) as usize]
    }

    /// Next raw 64-bit output of the generator.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = StreamRng::new(7);
        let mut b = StreamRng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StreamRng::new(7);
        let mut b = StreamRng::new(8);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn streams_are_independent_of_parent_consumption() {
        let mut root1 = StreamRng::new(99);
        let root2 = StreamRng::new(99);
        // Consume from root1 before deriving.
        for _ in 0..17 {
            root1.next_u64();
        }
        let mut s1 = root1.stream("injector", 3);
        let mut s2 = root2.stream("injector", 3);
        for _ in 0..100 {
            assert_eq!(s1.next_u64(), s2.next_u64());
        }
    }

    #[test]
    fn named_streams_differ() {
        let root = StreamRng::new(1);
        let mut a = root.stream("alpha", 0);
        let mut b = root.stream("beta", 0);
        let mut c = root.stream("alpha", 1);
        let va: Vec<_> = (0..32).map(|_| a.next_u64()).collect();
        let vb: Vec<_> = (0..32).map(|_| b.next_u64()).collect();
        let vc: Vec<_> = (0..32).map(|_| c.next_u64()).collect();
        assert_ne!(va, vb);
        assert_ne!(va, vc);
        assert_ne!(vb, vc);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = StreamRng::new(2);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_half() {
        let mut r = StreamRng::new(3);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut r = StreamRng::new(4);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "counts={counts:?}");
        }
    }

    #[test]
    fn geometric_mean_matches_rate() {
        let mut r = StreamRng::new(5);
        let p = 0.1;
        let n = 50_000;
        let sum: u64 = (0..n).map(|_| r.geometric(p)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 10.0).abs() < 0.5, "mean={mean}");
    }

    #[test]
    fn geometric_edge_rates() {
        let mut r = StreamRng::new(6);
        assert_eq!(r.geometric(1.0), 1);
        assert_eq!(r.geometric(1.5), 1);
        assert_eq!(r.geometric(0.0), u64::MAX);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = StreamRng::new(8);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input in order"
        );
    }

    #[test]
    fn chance_extremes() {
        let mut r = StreamRng::new(10);
        assert!(!(0..1000).any(|_| r.chance(0.0)));
        assert!((0..1000).all(|_| r.chance(1.1)));
    }
}
