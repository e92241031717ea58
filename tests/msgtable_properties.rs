//! Property tests for the message table (`sctm_engine::MsgTable`), the
//! open-addressed table that replaced `HashMap<u64, _>` on every network
//! model's per-event path: random operation sequences must behave
//! exactly like the hash map they displaced, and the table must stay
//! the size of what is live, however large the ids grow.
//!
//! A counting global allocator measures the table's heap per thread:
//! the property tests run on several threads at once, and each reads
//! only its own counter.

use proptest::prelude::*;
use sctm::engine::MsgTable;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

struct PerThread;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grew(by: usize) {
    LIVE.with(|l| {
        l.set(l.get() + by);
        PEAK.with(|p| p.set(p.get().max(l.get())));
    });
}

fn shrank(by: usize) {
    LIVE.with(|l| l.set(l.get().saturating_sub(by)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are statistics only, and a
// `const`-initialised thread-local of a `Cell` never allocates.
unsafe impl GlobalAlloc for PerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are `System::alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this layout.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get
        // right.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: PerThread = PerThread;

/// Peak bytes this thread allocated above its level at entry while `f`
/// ran.
fn thread_peak_of(f: impl FnOnce()) -> usize {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    f();
    PEAK.with(Cell::get) - base
}

/// A message id the way a capture numbers them, `seq × 64 + src`, at
/// most `2³² − 2`, the largest id a table holds.
fn capture_id(seq: u64, src: u64) -> u64 {
    (seq * 64 + src).min(u64::from(u32::MAX) - 1)
}

/// A `MsgTable` of `u64`s through 10⁶ insert/remove pairs with at most
/// `live` ids live at once, ids climbing from `first` by `step`: peak
/// heap bytes.
fn footprint(live: u64, first: u64, step: u64) -> usize {
    thread_peak_of(|| {
        let mut table: MsgTable<u64> = MsgTable::new();
        for k in 0..1_000_000u64 {
            let id = first + k * step;
            assert_eq!(table.insert(id, k), None);
            if k >= live - 1 {
                let old = first + (k + 1 - live) * step;
                assert_eq!(table.remove(old), Some(k + 1 - live));
            }
        }
        assert_eq!(table.len(), live as usize - 1);
    })
}

/// The table holds what is live, not what has been: 10⁶ ids through it
/// with at most 64 live keep it at 256 cells of 20 bytes (7.5 KiB while
/// it doubles to them). A table indexed by id grows to 4 bytes × the
/// largest id, 4 MB here.
#[test]
fn a_million_ids_through_a_window_of_64_stay_small() {
    for (first, step) in [(0, 1), (5, 64), (u64::from(u32::MAX) - 64_000_001, 64)] {
        let bytes = footprint(64, first, step);
        assert!(
            bytes <= 16 << 10,
            "ids from {first} by {step}: the table grew to {bytes} B"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Drive a `MsgTable` and a `HashMap` reference model through the
    /// same operation sequence: every return value, every membership
    /// query, and the final contents must agree. Ids are drawn from a
    /// small range so inserts, removes, and misses all collide often.
    #[test]
    fn matches_hashmap_reference(
        ops in prop::collection::vec((0u8..4, 0u64..48, any::<u32>()), 1..400)
    ) {
        let mut table: MsgTable<u32> = MsgTable::new();
        let mut map: HashMap<u64, u32> = HashMap::new();
        for (kind, id, val) in ops {
            match kind {
                0 => prop_assert_eq!(table.insert(id, val), map.insert(id, val)),
                1 => prop_assert_eq!(table.remove(id), map.remove(&id)),
                2 => prop_assert_eq!(table.get(id), map.get(&id)),
                _ => prop_assert_eq!(table.contains(id), map.contains_key(&id)),
            }
            prop_assert_eq!(table.len(), map.len());
            prop_assert_eq!(table.is_empty(), map.is_empty());
        }
        // Final contents, via the id-ordered iterator.
        let mut want: Vec<(u64, u32)> = map.into_iter().collect();
        want.sort_unstable();
        let got: Vec<(u64, u32)> = table.iter().map(|(id, &v)| (id, v)).collect();
        prop_assert_eq!(got, want);
    }

    /// The same, over ids shaped like a capture's: `seq × 64 + src`, one
    /// source sending three messages in four, so live ids share their
    /// low six bits, from a base anywhere in the id range up to
    /// `2³² − 2`.
    #[test]
    fn capture_shaped_ids_match_hashmap_reference(
        base in prop_oneof![Just(0u64), 0u64..1 << 26, Just((1u64 << 26) - 40)],
        ops in prop::collection::vec((0u8..4, (0u64..40, 0u64..256), any::<u32>()), 1..600)
    ) {
        let mut table: MsgTable<u32> = MsgTable::new();
        let mut map: HashMap<u64, u32> = HashMap::new();
        for (kind, (seq, src), val) in ops {
            let src = if src < 192 { 17 } else { src % 64 };
            let id = capture_id(base + seq, src);
            match kind {
                0 | 1 => prop_assert_eq!(table.insert(id, val), map.insert(id, val)),
                2 => prop_assert_eq!(table.remove(id), map.remove(&id)),
                _ => prop_assert_eq!(table.get(id), map.get(&id)),
            }
            prop_assert_eq!(table.len(), map.len());
        }
        for (&id, v) in &map {
            prop_assert_eq!(table.get(id), Some(v));
        }
        let mut want: Vec<(u64, u32)> = map.into_iter().collect();
        want.sort_unstable();
        let got: Vec<(u64, u32)> = table.iter().map(|(id, &v)| (id, v)).collect();
        prop_assert_eq!(got, want);
    }

    /// `get_mut` writes must land exactly where `get` reads.
    #[test]
    fn get_mut_is_consistent(
        ids in prop::collection::vec(0u64..32, 1..100),
        bump in any::<u32>()
    ) {
        let mut table: MsgTable<u32> = MsgTable::new();
        let mut map: HashMap<u64, u32> = HashMap::new();
        for id in ids {
            match table.get_mut(id) {
                Some(v) => {
                    *v = v.wrapping_add(bump);
                    let m = map.get_mut(&id).unwrap();
                    *m = m.wrapping_add(bump);
                }
                None => {
                    table.insert(id, bump);
                    map.insert(id, bump);
                }
            }
            prop_assert_eq!(table.get(id), map.get(&id));
        }
    }

    /// A sliding window of in-flight ids (the network-model usage
    /// pattern: ids only grow, old entries retire) keeps `len` bounded
    /// by the window and leaves exactly the trailing window live.
    #[test]
    fn sliding_window_of_inflight_ids(window in 1u64..16, total in 16u64..256) {
        let mut table: MsgTable<u64> = MsgTable::new();
        let mut peak = 0;
        for id in 0..total {
            table.insert(id, id * 3);
            peak = peak.max(table.len());
            if id >= window {
                table.remove(id - window);
            }
        }
        prop_assert_eq!(peak, window as usize + 1);
        let live: Vec<u64> = table.iter().map(|(id, _)| id).collect();
        let want: Vec<u64> = (total - window..total).collect();
        prop_assert_eq!(live, want);
    }
}
