//! The content-addressed capture cache.
//!
//! A CMP capture depends only on the workload side of the experiment —
//! kernel, system size, ops per core, seed. It does **not** depend on
//! the target network (captures run on the analytic model), and a
//! capture runs one way, on the worker that missed: nothing about the
//! host or the pool size reaches it (`tests/golden_capture.rs` pins the
//! bytes). The capture is therefore content-addressable: fifty network
//! configs swept over one workload share a single capture and differ
//! only in their replays.
//!
//! The cache is a single-flight LRU with a byte budget:
//!
//! - **Single-flight**: concurrent requests for the same key block on a
//!   `Condvar` while the first one captures, so a cold sweep performs
//!   exactly one capture per distinct workload — never N racing ones.
//! - **One resident form**: an entry is the `Arc<TraceLog>` its
//!   producer built. A hit is a recency bump and an `Arc::clone` under
//!   the lock, so every requester of a key replays the *same* log — and
//!   the gate plan the log memoises on its first `replay=1` request
//!   ([`TraceLog::gate_plan`]) serves all the later ones. sctf is the
//!   disk form only (DESIGN.md §14.5).
//! - **LRU byte budget**: an entry is charged its resident bytes — the
//!   log's rows, columns and orders plus its gate plan, whose size is a
//!   function of the row count and is therefore charged at insert,
//!   built or not — so the budget bounds true resident memory and
//!   `bytes` never moves on a hit. Entries are evicted
//!   least-recently-used first when the budget is exceeded; the entry
//!   just inserted is never evicted by its own insertion — a trace
//!   larger than the whole budget (any trace, under a budget of 0)
//!   still serves its requester and any concurrent requester of the
//!   same key, then goes first.

use sctm_core::trace::{GatePlan, TraceLog};
use sctm_engine::hash::fnv1a;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// Stable identity of one capture: every field that can change the
/// captured trace, nothing that cannot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CaptureKey(pub u64);

impl CaptureKey {
    /// FNV-1a over the canonical `kernel|side|ops|seed` string. The
    /// label keeps the hash stable across enum reorderings.
    pub fn new(kernel: &str, side: usize, ops: usize, seed: u64) -> Self {
        CaptureKey(fnv1a(format!("{kernel}|{side}|{ops}|{seed}").as_bytes()))
    }
}

/// Counter snapshot for the `stats` verb and the run manifests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Callers that blocked on another request's in-flight capture
    /// (counted once per blocked caller, however many wakeups its
    /// `Condvar` wait takes).
    pub single_flight_waits: u64,
    pub entries: u64,
    pub bytes: u64,
}

enum Slot {
    /// A capture for this key is in flight on some thread.
    Pending,
    Ready {
        log: Arc<TraceLog>,
        /// What the entry was charged at insert ([`entry_bytes`]).
        bytes: usize,
        last_used: u64,
    },
}

#[derive(Default)]
struct Inner {
    slots: HashMap<CaptureKey, Slot>,
    /// Logical clock for LRU recency (bumped on insert and hit).
    clock: u64,
    bytes: usize,
    stats: CacheStats,
}

/// See the module docs.
pub struct CaptureCache {
    inner: Mutex<Inner>,
    ready: Condvar,
    byte_budget: usize,
}

/// Removes an in-flight `Pending` slot if the producing closure
/// panics, so waiters retry instead of blocking forever.
struct PendingGuard<'a> {
    cache: &'a CaptureCache,
    key: CaptureKey,
    armed: bool,
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut inner = lock(&self.cache.inner);
            inner.slots.remove(&self.key);
            self.cache.ready.notify_all();
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// What keeping `log` resident for replay costs: the log and its gate
/// plan, whether or not the plan has been built yet.
fn entry_bytes(log: &TraceLog) -> usize {
    log.resident_bytes() + GatePlan::bytes_for(log.len())
}

impl CaptureCache {
    pub fn new(byte_budget: usize) -> Self {
        CaptureCache {
            inner: Mutex::new(Inner::default()),
            ready: Condvar::new(),
            byte_budget,
        }
    }

    pub fn byte_budget(&self) -> usize {
        self.byte_budget
    }

    pub fn stats(&self) -> CacheStats {
        let inner = lock(&self.inner);
        CacheStats {
            entries: inner
                .slots
                .values()
                .filter(|s| matches!(s, Slot::Ready { .. }))
                .count() as u64,
            bytes: inner.bytes as u64,
            ..inner.stats
        }
    }

    /// The resident log of a `Ready` `key`, counted as a hit and made
    /// the most recently used entry.
    fn hit(inner: &mut Inner, key: CaptureKey) -> Option<Arc<TraceLog>> {
        inner.clock += 1;
        let now = inner.clock;
        let Some(Slot::Ready { log, last_used, .. }) = inner.slots.get_mut(&key) else {
            return None;
        };
        *last_used = now;
        let log = Arc::clone(log);
        inner.stats.hits += 1;
        Some(log)
    }

    /// Non-blocking probe: the cached trace if `key` is `Ready`, else
    /// `None` (absent *or* in flight — the caller cannot tell, and must
    /// go through [`Self::get_or_capture`] to join the
    /// single-flight). A `Some` counts a hit and refreshes LRU recency,
    /// exactly like a hit inside `get_or_capture`.
    pub fn try_get(&self, key: CaptureKey) -> Option<Arc<TraceLog>> {
        Self::hit(&mut lock(&self.inner), key)
    }

    /// Return the cached capture for `key`, or run `produce` to create
    /// it. Exactly one caller produces per key; concurrent callers for
    /// the same key block until the trace is ready. The bool is `true`
    /// on a cache hit. If `produce` panics, the `Pending` slot is
    /// released and every waiter is woken: one of them becomes the new
    /// producer. The key is never poisoned.
    pub fn get_or_capture<F>(&self, key: CaptureKey, produce: F) -> (Arc<TraceLog>, bool)
    where
        F: FnOnce() -> TraceLog,
    {
        let mut inner = lock(&self.inner);
        let mut waited = false;
        loop {
            if let Some(log) = Self::hit(&mut inner, key) {
                return (log, true);
            }
            if !inner.slots.contains_key(&key) {
                break;
            }
            // In flight on another thread.
            if !waited {
                waited = true;
                inner.stats.single_flight_waits += 1;
            }
            inner = self.ready.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
        inner.stats.misses += 1;
        inner.slots.insert(key, Slot::Pending);
        drop(inner);

        let mut guard = PendingGuard {
            cache: self,
            key,
            armed: true,
        };
        let log = Arc::new(produce());
        guard.armed = false;
        let bytes = entry_bytes(&log);

        let mut inner = lock(&self.inner);
        inner.clock += 1;
        let now = inner.clock;
        inner.slots.insert(
            key,
            Slot::Ready {
                log: Arc::clone(&log),
                bytes,
                last_used: now,
            },
        );
        inner.bytes += bytes;
        self.evict_to_budget(&mut inner, key);
        drop(inner);
        self.ready.notify_all();
        (log, false)
    }

    /// Evict least-recently-used `Ready` entries until the byte budget
    /// holds, sparing `just_inserted` so an oversized trace still
    /// serves the request that produced it.
    fn evict_to_budget(&self, inner: &mut Inner, just_inserted: CaptureKey) {
        while inner.bytes > self.byte_budget {
            let victim = inner
                .slots
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready { last_used, .. } if *k != just_inserted => Some((*k, *last_used)),
                    _ => None,
                })
                .min_by_key(|&(_, used)| used)
                .map(|(k, _)| k);
            let Some(victim) = victim else { break };
            if let Some(Slot::Ready { bytes, .. }) = inner.slots.remove(&victim) {
                inner.bytes -= bytes;
                inner.stats.evictions += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sctm_core::trace::TraceLog;
    use sctm_core::workloads::Kernel;
    use sctm_core::{Experiment, NetworkKind, SystemConfig};

    fn capture(ops: usize) -> TraceLog {
        Experiment::new(SystemConfig::new(2, NetworkKind::Omesh), Kernel::Fft)
            .with_ops(ops)
            .capture()
    }

    #[test]
    fn keys_separate_every_field_and_ignore_nothing_else() {
        let base = CaptureKey::new("fft", 4, 600, 1);
        assert_eq!(base, CaptureKey::new("fft", 4, 600, 1));
        for other in [
            CaptureKey::new("lu", 4, 600, 1),
            CaptureKey::new("fft", 8, 600, 1),
            CaptureKey::new("fft", 4, 601, 1),
            CaptureKey::new("fft", 4, 600, 2),
        ] {
            assert_ne!(base, other);
        }
    }

    #[test]
    fn second_lookup_hits_and_returns_the_same_trace() {
        let cache = CaptureCache::new(usize::MAX);
        let key = CaptureKey::new("fft", 2, 120, 1);
        let (cold, hit_cold) = cache.get_or_capture(key, || capture(120));
        let (warm, hit_warm) = cache.get_or_capture(key, || panic!("must not re-capture"));
        assert!(!hit_cold);
        assert!(hit_warm);
        assert_eq!(cold, warm);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.bytes > 0);
    }

    /// One resident form: the producer and every later requester hold
    /// the same allocation, and the entry was charged at insert for
    /// everything it will ever hold — a hit moves no bytes, and neither
    /// does the first gated pass, whose plan the log memoises.
    #[test]
    fn a_hit_is_the_producers_own_log_and_moves_no_bytes() {
        let cache = CaptureCache::new(usize::MAX);
        let key = CaptureKey::new("fft", 2, 120, 1);
        let (produced, _) = cache.get_or_capture(key, || capture(120));
        let at_insert = cache.stats().bytes;
        let first = cache.try_get(key).expect("resident");
        let second = cache.try_get(key).expect("resident");
        assert!(Arc::ptr_eq(&produced, &first) && Arc::ptr_eq(&first, &second));
        assert_eq!(cache.stats().bytes, at_insert);

        let mut net = SystemConfig::make_network_kind(2, NetworkKind::Omesh);
        sctm_core::trace::replay_sctm_pass(&first, net.as_mut());
        assert_eq!(cache.stats().bytes, at_insert);
        // The charge is the true footprint, plan included.
        let held = first.resident_bytes() + first.gate_plan().resident_bytes();
        assert_eq!(at_insert, held as u64);
    }

    #[test]
    fn lru_eviction_honours_the_byte_budget() {
        let sz = entry_bytes(&capture(120));
        // Room for two resident traces of this size, not three.
        let cache = CaptureCache::new(2 * sz + sz / 2);
        for seed in 0..3u64 {
            let key = CaptureKey::new("fft", 2, 120, seed);
            cache.get_or_capture(key, || capture(120));
        }
        let s = cache.stats();
        assert_eq!(s.misses, 3);
        assert_eq!((s.evictions, s.entries, s.bytes), (1, 2, 2 * sz as u64));
        // The oldest key was the victim; re-fetching it misses...
        let (_, hit) = cache.get_or_capture(CaptureKey::new("fft", 2, 120, 0), || capture(120));
        assert!(!hit);
        // ...while the most recent is still resident.
        let (_, hit) = cache.get_or_capture(CaptureKey::new("fft", 2, 120, 2), || {
            panic!("recent entry was evicted")
        });
        assert!(hit);
    }

    /// A budget nothing fits in — `--cache-mb 0` included — degrades
    /// to single-flight only: the entry just inserted stays until the
    /// next insertion needs the room, so concurrent requests for one
    /// key still share one capture, and every distinct key is a miss.
    #[test]
    fn oversized_entry_still_serves_its_requester() {
        for budget in [0, 1] {
            let cache = CaptureCache::new(budget);
            let one = entry_bytes(&capture(120)) as u64;
            let captures = std::sync::atomic::AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        let key = CaptureKey::new("fft", 2, 120, 1);
                        let (log, _) = cache.get_or_capture(key, || {
                            captures.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                            capture(120)
                        });
                        assert!(!log.is_empty());
                    });
                }
            });
            assert_eq!(captures.load(std::sync::atomic::Ordering::SeqCst), 1);
            let s = cache.stats();
            assert_eq!((s.misses, s.hits, s.entries, s.bytes), (1, 3, 1, one));
            // It is evicted as soon as another insertion needs the room.
            for seed in 2..5 {
                let (_, hit) =
                    cache.get_or_capture(CaptureKey::new("fft", 2, 120, seed), || capture(120));
                assert!(!hit);
                let s = cache.stats();
                assert_eq!((s.entries, s.bytes), (1, one), "budget {budget}");
            }
            assert_eq!(cache.stats().evictions, 3);
        }
    }

    #[test]
    fn concurrent_same_key_requests_capture_exactly_once() {
        let cache = std::sync::Arc::new(CaptureCache::new(usize::MAX));
        let key = CaptureKey::new("fft", 2, 150, 1);
        let captures = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let cache = std::sync::Arc::clone(&cache);
                let captures = std::sync::Arc::clone(&captures);
                s.spawn(move || {
                    cache.get_or_capture(key, || {
                        captures.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        capture(150)
                    });
                });
            }
        });
        assert_eq!(captures.load(std::sync::atomic::Ordering::SeqCst), 1);
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 7);
        // Each of the 7 blocked callers counts one single-flight wait,
        // at most — late arrivals that found the slot Ready count none.
        assert!(s.single_flight_waits <= 7, "{s:?}");
    }

    #[test]
    fn try_get_probes_without_blocking_or_capturing() {
        let cache = CaptureCache::new(usize::MAX);
        let key = CaptureKey::new("fft", 2, 120, 3);
        // Absent: no hit, no miss, no production.
        assert!(cache.try_get(key).is_none());
        assert_eq!(cache.stats(), CacheStats::default());
        // Ready: counts a hit and bumps recency, like get_or_capture.
        cache.get_or_capture(key, || capture(120));
        assert!(cache.try_get(key).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn a_panicking_capture_releases_waiters() {
        let cache = std::sync::Arc::new(CaptureCache::new(usize::MAX));
        let key = CaptureKey::new("fft", 2, 150, 9);
        let panicked = std::thread::scope(|s| {
            let c = std::sync::Arc::clone(&cache);
            let h = s.spawn(move || c.get_or_capture(key, || panic!("capture died")));
            h.join().is_err()
        });
        assert!(panicked);
        // The key is free again: the next request produces normally.
        let (_, hit) = cache.get_or_capture(key, || capture(150));
        assert!(!hit);
    }
}
