//! Set-associative tag store with true-LRU replacement.
//!
//! Used for both private L1s and the shared L2 slices. Only tags and
//! per-line metadata are modelled — the simulator never materialises
//! data bytes, because no experiment depends on values, only on timing
//! and coherence traffic.

/// A cache line address: byte address with the offset bits stripped.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LineAddr(pub u64);

/// Cache line size in bytes, fixed across the hierarchy.
pub const LINE_BYTES: u64 = 64;

impl LineAddr {
    #[inline]
    pub fn of_byte(addr: u64) -> LineAddr {
        LineAddr(addr / LINE_BYTES)
    }
}

/// Geometry of one cache.
#[derive(Clone, Copy, Debug)]
pub struct CacheGeometry {
    pub sets: usize,
    pub ways: usize,
}

impl CacheGeometry {
    /// Build from a total capacity in bytes and associativity.
    pub fn from_capacity(bytes: usize, ways: usize) -> Self {
        assert!(ways >= 1);
        let lines = bytes / LINE_BYTES as usize;
        assert!(lines >= ways, "capacity below one set");
        let sets = lines / ways;
        assert!(
            sets.is_power_of_two(),
            "set count {sets} not a power of two"
        );
        CacheGeometry { sets, ways }
    }

    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * LINE_BYTES as usize
    }
}

/// Tag word of an empty way. No line reaches it: a line is a byte
/// address over 64, so it stays below 2⁵⁸.
const EMPTY: u64 = u64::MAX;

/// The one metadata bit of a tag word: modified in an L1, dirty in an
/// L2 slice.
const META: u64 = 1 << 63;

/// Result of a fill that displaced a victim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Victim {
    pub line: LineAddr,
    pub meta: bool,
}

/// A line [`Cache::access`] found resident: its metadata bit, read and
/// written in place.
#[derive(Debug)]
pub struct Resident<'a>(&'a mut u64);

impl Resident<'_> {
    pub fn meta(&self) -> bool {
        *self.0 & META != 0
    }

    pub fn set_meta(&mut self, meta: bool) {
        *self.0 = (*self.0 & !META) | ((meta as u64) << 63);
    }
}

/// Set-associative tag array with one metadata bit a line, in 9 bytes a
/// way: a tag word and a recency rank.
#[derive(Debug)]
pub struct Cache {
    geo: CacheGeometry,
    /// One word a way, set after set: the line in the low bits and the
    /// metadata bit on top, or [`EMPTY`]. An 8-way set is one 64-byte
    /// cache line of tags.
    tags: Vec<u64>,
    /// Each way's recency rank within its set, 0 = touched last. A set's
    /// ranks are always a permutation of `0..ways`, empty ways included,
    /// so when a set is full its least recent line ranks `ways - 1`.
    ranks: Vec<u8>,
    hits: u64,
    misses: u64,
}

impl Cache {
    pub fn new(geo: CacheGeometry) -> Self {
        assert!(
            (1..=256).contains(&geo.ways),
            "{} ways do not rank in a byte",
            geo.ways
        );
        let mut ranks = vec![0; geo.sets * geo.ways];
        for set in ranks.chunks_exact_mut(geo.ways) {
            for (r, x) in set.iter_mut().enumerate() {
                *x = r as u8;
            }
        }
        Cache {
            geo,
            tags: vec![EMPTY; geo.sets * geo.ways],
            ranks,
            hits: 0,
            misses: 0,
        }
    }

    /// First way of `line`'s set.
    #[inline]
    fn set_start(&self, line: LineAddr) -> usize {
        ((line.0 as usize) & (self.geo.sets - 1)) * self.geo.ways
    }

    /// The way holding `line`, if it is resident.
    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        debug_assert!(line.0 < 1 << 58, "{line:?} would match an empty way");
        let s = self.set_start(line);
        self.tags[s..s + self.geo.ways]
            .iter()
            .position(|&t| t & !META == line.0)
            .map(|i| s + i)
    }

    /// Make way `w` of the set starting at `s` the most recent: every
    /// way ranked before it moves back one.
    #[inline]
    fn touch(&mut self, s: usize, w: usize) {
        let r = self.ranks[w];
        for x in &mut self.ranks[s..s + self.geo.ways] {
            *x += (*x < r) as u8;
        }
        self.ranks[w] = 0;
    }

    /// Probe without touching recency or hit/miss counters. Returns the
    /// metadata bit on a hit.
    pub fn peek(&self, line: LineAddr) -> Option<bool> {
        self.find(line).map(|w| self.tags[w] & META != 0)
    }

    /// Look up `line`, updating recency and counters.
    pub fn access(&mut self, line: LineAddr) -> Option<Resident<'_>> {
        match self.find(line) {
            Some(w) => {
                self.touch(self.set_start(line), w);
                self.hits += 1;
                Some(Resident(&mut self.tags[w]))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert `line` with `meta` into the set's first empty way, or
    /// else in place of its least recent line, which it returns. `line`
    /// must not be present.
    pub fn fill(&mut self, line: LineAddr, meta: bool) -> Option<Victim> {
        assert!(line.0 < 1 << 58, "{line:?} is no line of a byte address");
        debug_assert!(self.peek(line).is_none(), "fill of resident line");
        let s = self.set_start(line);
        let set = s..s + self.geo.ways;
        let (w, victim) = match self.tags[set.clone()].iter().position(|&t| t == EMPTY) {
            Some(i) => (s + i, None),
            None => {
                let last = (self.geo.ways - 1) as u8;
                let w = s + self.ranks[set]
                    .iter()
                    .position(|&r| r == last)
                    .expect("a set's ranks are a permutation of its ways");
                let old = self.tags[w];
                let victim = Victim {
                    line: LineAddr(old & !META),
                    meta: old & META != 0,
                };
                (w, Some(victim))
            }
        };
        self.tags[w] = line.0 | ((meta as u64) << 63);
        self.touch(s, w);
        victim
    }

    /// Remove `line` if present, returning its metadata bit. The way
    /// keeps its rank: only a fill moves it.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        self.find(line).map(|w| {
            let old = std::mem::replace(&mut self.tags[w], EMPTY);
            old & META != 0
        })
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of valid lines (for occupancy checks in tests).
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }

    /// Visit every resident line and its metadata bit (used by
    /// coherence-invariant checks).
    pub fn for_each_line(&self, mut f: impl FnMut(LineAddr, bool)) {
        for &t in &self.tags {
            if t != EMPTY {
                f(LineAddr(t & !META), t & META != 0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets × 2 ways
        Cache::new(CacheGeometry { sets: 4, ways: 2 })
    }

    #[test]
    fn geometry_from_capacity() {
        let g = CacheGeometry::from_capacity(32 * 1024, 4);
        assert_eq!(g.sets, 128);
        assert_eq!(g.ways, 4);
        assert_eq!(g.capacity_bytes(), 32 * 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn geometry_rejects_odd_sets() {
        CacheGeometry::from_capacity(3 * 1024, 4);
    }

    #[test]
    #[should_panic(expected = "do not rank in a byte")]
    fn ways_past_a_byte_are_refused() {
        Cache::new(CacheGeometry { sets: 1, ways: 257 });
    }

    #[test]
    #[should_panic(expected = "no line of a byte address")]
    fn a_line_past_2_pow_58_is_refused() {
        small().fill(LineAddr(1 << 58), false);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        let l = LineAddr(0x40);
        assert!(c.access(l).is_none());
        assert!(c.fill(l, true).is_none());
        assert_eq!(c.access(l).map(|w| w.meta()), Some(true));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Lines 0, 4, 8 map to set 0 (4 sets).
        let (a, b, x) = (LineAddr(0), LineAddr(4), LineAddr(8));
        c.fill(a, false);
        c.fill(b, true);
        c.access(a); // a is now MRU
        let v = c.fill(x, false).expect("set full, someone must go");
        assert_eq!(v.line, b, "LRU line was b");
        assert!(v.meta);
        assert!(c.peek(a).is_some());
        assert!(c.peek(b).is_none());
    }

    #[test]
    fn invalidate_frees_way() {
        let mut c = small();
        c.fill(LineAddr(0), true);
        c.fill(LineAddr(4), false);
        assert_eq!(c.invalidate(LineAddr(0)), Some(true));
        assert_eq!(c.invalidate(LineAddr(0)), None);
        // Now a fill must use the freed way, not evict.
        assert!(c.fill(LineAddr(8), false).is_none());
    }

    #[test]
    fn sets_are_independent() {
        let mut c = small();
        // 3 lines in different sets never evict each other.
        for i in 0..4u64 {
            c.fill(LineAddr(i), false);
        }
        assert_eq!(c.occupancy(), 4);
        for i in 0..4u64 {
            assert!(c.peek(LineAddr(i)).is_some());
        }
    }

    #[test]
    fn peek_does_not_disturb_lru() {
        let mut c = small();
        let (a, b, x) = (LineAddr(0), LineAddr(4), LineAddr(8));
        c.fill(a, false);
        c.fill(b, false);
        c.peek(a); // must NOT refresh a
                   // LRU order is still a then b.
        let v = c.fill(x, false).unwrap();
        assert_eq!(v.line, a);
    }

    #[test]
    fn metadata_is_mutable_through_access() {
        let mut c = small();
        c.fill(LineAddr(0), false);
        c.access(LineAddr(0)).unwrap().set_meta(true);
        assert_eq!(c.peek(LineAddr(0)), Some(true));
        c.access(LineAddr(0)).unwrap().set_meta(false);
        assert_eq!(c.peek(LineAddr(0)), Some(false));
    }

    #[test]
    fn line_addr_of_byte() {
        assert_eq!(LineAddr::of_byte(0), LineAddr(0));
        assert_eq!(LineAddr::of_byte(63), LineAddr(0));
        assert_eq!(LineAddr::of_byte(64), LineAddr(1));
        assert_eq!(LineAddr::of_byte(6400), LineAddr(100));
        assert!(LineAddr::of_byte(u64::MAX).0 < 1 << 58);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = Cache::new(CacheGeometry { sets: 8, ways: 2 });
        for i in 0..1000u64 {
            let line = LineAddr(i * 7 % 97);
            if c.access(line).is_none() {
                c.fill(line, false);
            }
            assert!(
                c.occupancy() <= 16,
                "occupancy {} > capacity",
                c.occupancy()
            );
        }
    }

    #[test]
    fn working_set_within_ways_never_misses_after_warmup() {
        // Two lines per set, 2 ways: a working set of exactly the
        // associativity must stay resident forever.
        let mut c = Cache::new(CacheGeometry { sets: 4, ways: 2 });
        let ws = [LineAddr(0), LineAddr(4)]; // same set, 2 ways
        for l in ws {
            c.fill(l, false);
        }
        let misses_before = c.misses();
        for _ in 0..100 {
            for l in ws {
                assert!(c.access(l).is_some());
            }
        }
        assert_eq!(c.misses(), misses_before);
    }

    /// The tag array this one replaced, kept as the oracle: 24 bytes a
    /// way, recency by a global access clock, the victim the first
    /// invalid way by position, else the way with the oldest tick.
    struct ClockCache {
        geo: CacheGeometry,
        ways: Vec<ClockWay>,
        tick: u64,
        hits: u64,
        misses: u64,
    }

    #[derive(Clone, Copy)]
    struct ClockWay {
        tag: u64,
        lru: u64,
        meta: bool,
        valid: bool,
    }

    impl ClockCache {
        fn new(geo: CacheGeometry) -> Self {
            let empty = ClockWay {
                tag: 0,
                lru: 0,
                meta: false,
                valid: false,
            };
            ClockCache {
                geo,
                ways: vec![empty; geo.sets * geo.ways],
                tick: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn set_range(&self, line: LineAddr) -> std::ops::Range<usize> {
            let s = (line.0 as usize & (self.geo.sets - 1)) * self.geo.ways;
            s..s + self.geo.ways
        }

        fn find(&self, line: LineAddr) -> Option<usize> {
            let range = self.set_range(line);
            let set = &self.ways[range.clone()];
            let i = set.iter().position(|w| w.valid && w.tag == line.0)?;
            Some(range.start + i)
        }

        fn peek(&self, line: LineAddr) -> Option<bool> {
            self.find(line).map(|i| self.ways[i].meta)
        }

        fn access(&mut self, line: LineAddr) -> Option<&mut ClockWay> {
            self.tick += 1;
            let Some(i) = self.find(line) else {
                self.misses += 1;
                return None;
            };
            self.hits += 1;
            self.ways[i].lru = self.tick;
            Some(&mut self.ways[i])
        }

        fn fill(&mut self, line: LineAddr, meta: bool) -> Option<Victim> {
            self.tick += 1;
            let new = ClockWay {
                tag: line.0,
                lru: self.tick,
                meta,
                valid: true,
            };
            let range = self.set_range(line);
            let set = &mut self.ways[range];
            if let Some(w) = set.iter_mut().find(|w| !w.valid) {
                *w = new;
                return None;
            }
            let w = set.iter_mut().min_by_key(|w| w.lru).unwrap();
            let victim = Victim {
                line: LineAddr(w.tag),
                meta: w.meta,
            };
            *w = new;
            Some(victim)
        }

        fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
            let i = self.find(line)?;
            let w = &mut self.ways[i];
            w.valid = false;
            Some(w.meta)
        }

        fn resident(&self) -> Vec<(u64, bool)> {
            let mut v: Vec<_> = (self.ways.iter())
                .filter(|w| w.valid)
                .map(|w| (w.tag, w.meta))
                .collect();
            v.sort_unstable();
            v
        }
    }

    fn resident(c: &Cache) -> Vec<(u64, bool)> {
        let mut v = Vec::new();
        c.for_each_line(|l, m| v.push((l.0, m)));
        v.sort_unstable();
        v
    }

    /// Random access / fill / invalidate / metadata writes on both
    /// arrays, compared step by step: every hit and its metadata, every
    /// victim, every invalidation, and the whole resident set.
    #[test]
    fn rank_lru_matches_the_tick_clock_step_for_step() {
        for ways in [1usize, 2, 4, 8, 16] {
            let geo = CacheGeometry { sets: 4, ways };
            let (mut c, mut o) = (Cache::new(geo), ClockCache::new(geo));
            // Three lines a way compete for each set; the high bit keeps
            // the meta bit's neighbour in play.
            let pool = (3 * 4 * ways) as u64;
            let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ ways as u64;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let (mut hits, mut victims) = (0u32, 0u32);
            for step in 0..20_000 {
                let r = next();
                let line = LineAddr(((r >> 8) % pool) | (((r >> 40) & 1) << 57));
                let meta = (r >> 50) & 1 != 0;
                match r % 8 {
                    0 => assert_eq!(c.invalidate(line), o.invalidate(line), "step {step}"),
                    1 => {
                        let got = c.access(line).map(|mut w| {
                            w.set_meta(meta);
                            w.meta()
                        });
                        let want = o.access(line).map(|w| {
                            w.meta = meta;
                            w.meta
                        });
                        assert_eq!(got, want, "step {step}");
                    }
                    _ => {
                        let got = c.access(line).map(|w| w.meta());
                        let want = o.access(line).map(|w| w.meta);
                        assert_eq!(got, want, "step {step}");
                        if got.is_some() {
                            hits += 1;
                        } else {
                            let v = c.fill(line, meta);
                            assert_eq!(v, o.fill(line, meta), "step {step}");
                            victims += v.is_some() as u32;
                        }
                    }
                }
                assert_eq!(c.peek(line), o.peek(line), "step {step}");
                assert_eq!(resident(&c), o.resident(), "{ways} ways, step {step}");
            }
            assert_eq!((c.hits(), c.misses()), (o.hits, o.misses));
            assert!(
                hits > 1000 && victims > 1000,
                "{ways} ways: {hits} hits, {victims} victims"
            );
        }
    }
}
