//! The content-addressed capture cache.
//!
//! A CMP capture depends only on the workload side of the experiment —
//! kernel, system size, ops per core, seed. It does **not** depend on
//! the target network (captures run on the analytic model) and it does
//! not depend on `SCTM_THREADS` (the parallel capture path is
//! byte-identical at any thread count, see `tests/parallel_capture.rs`).
//! The capture is therefore content-addressable: fifty network configs
//! swept over one workload share a single capture and differ only in
//! their replays.
//!
//! The cache is a single-flight LRU with a byte budget:
//!
//! - **Single-flight**: concurrent requests for the same key block on a
//!   `Condvar` while the first one captures, so a cold sweep performs
//!   exactly one capture per distinct workload — never N racing ones.
//! - **LRU byte budget**: entries hold the *sctf container itself*
//!   (the binary columnar form, about two thirds the size of the
//!   parsed log — DESIGN.md §14.5) and are charged exactly those
//!   bytes, so the budget measures true resident memory. A hit
//!   decodes the container — microseconds-to-milliseconds work, orders
//!   of magnitude cheaper than the capture it replaces. Entries are
//!   evicted least-recently-used first when the budget is exceeded;
//!   the entry just inserted is never evicted by its own insertion — a
//!   trace larger than the whole budget still serves its requester,
//!   then goes first.

use sctm_core::trace::sctf;
use sctm_core::trace::TraceLog;
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
        let text = format!("{kernel}|{side}|{ops}|{seed}");
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in text.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        CaptureKey(h)
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
        /// The capture as its sctf container — the compact resident
        /// form. Decoded per hit; see the module docs for the tradeoff.
        sctf: Arc<Vec<u8>>,
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

    /// Decode a resident container back into a log. Infallible by
    /// construction: every slot was encoded by this process, so a
    /// decode failure means memory corruption, not input.
    fn thaw(sctf: &[u8]) -> Arc<TraceLog> {
        Arc::new(sctf::from_sctf_bytes(sctf).expect("cache slot holds a valid sctf container"))
    }

    /// Non-blocking probe: the cached trace if `key` is `Ready`, else
    /// `None` (absent *or* in flight — the caller cannot tell, and must
    /// go through [`Self::try_get_or_capture`] to join the
    /// single-flight). A `Some` counts a hit and refreshes LRU recency,
    /// exactly like a hit inside `get_or_capture`, so a probe that
    /// short-circuits the capture stage leaves the same counter trail.
    pub fn try_get(&self, key: CaptureKey) -> Option<Arc<TraceLog>> {
        let sctf = {
            let mut inner = lock(&self.inner);
            inner.clock += 1;
            let now = inner.clock;
            match inner.slots.get_mut(&key) {
                Some(Slot::Ready { sctf, last_used }) => {
                    let sctf = Arc::clone(sctf);
                    *last_used = now;
                    inner.stats.hits += 1;
                    sctf
                }
                _ => return None,
            }
        };
        // Decode outside the lock: a hit never serializes other
        // lookups behind its own thaw.
        Some(Self::thaw(&sctf))
    }

    /// Return the cached capture for `key`, or run `produce` to create
    /// it. Exactly one caller produces per key; concurrent callers for
    /// the same key block until the trace is ready. The bool is `true`
    /// on a cache hit.
    pub fn get_or_capture<F>(&self, key: CaptureKey, produce: F) -> (Arc<TraceLog>, bool)
    where
        F: FnOnce() -> TraceLog,
    {
        match self.try_get_or_capture(key, || Ok::<_, std::convert::Infallible>(produce())) {
            Ok(out) => out,
            Err(e) => match e {},
        }
    }

    /// [`Self::get_or_capture`] with a fallible producer.
    ///
    /// On `Err` the `Pending` slot is released (same drop-guard that
    /// covers panics) and every waiter is woken: one of them becomes
    /// the new producer and retries. The error never poisons the key —
    /// covered in `tests/protocol_fuzz.rs`.
    pub fn try_get_or_capture<F, E>(
        &self,
        key: CaptureKey,
        produce: F,
    ) -> Result<(Arc<TraceLog>, bool), E>
    where
        F: FnOnce() -> Result<TraceLog, E>,
    {
        let mut inner = lock(&self.inner);
        let mut waited = false;
        loop {
            inner.clock += 1;
            let now = inner.clock;
            match inner.slots.get_mut(&key) {
                Some(Slot::Ready { sctf, last_used }) => {
                    let sctf = Arc::clone(sctf);
                    *last_used = now;
                    inner.stats.hits += 1;
                    drop(inner);
                    return Ok((Self::thaw(&sctf), true));
                }
                Some(Slot::Pending) => {
                    if !waited {
                        waited = true;
                        inner.stats.single_flight_waits += 1;
                    }
                    inner = self.ready.wait(inner).unwrap_or_else(|e| e.into_inner());
                }
                None => break,
            }
        }
        inner.stats.misses += 1;
        inner.slots.insert(key, Slot::Pending);
        drop(inner);

        let mut guard = PendingGuard {
            cache: self,
            key,
            armed: true,
        };
        // `?` leaves the guard armed: its drop removes the Pending slot
        // and wakes the waiters, same as the panic path.
        let log = Arc::new(produce()?);
        guard.armed = false;
        // Freeze the capture into its compact resident form; the
        // producer's own caller gets the already-parsed log for free.
        let frozen = Arc::new(sctf::to_sctf_bytes(&log));
        let bytes = frozen.len();

        let mut inner = lock(&self.inner);
        inner.clock += 1;
        let now = inner.clock;
        inner.slots.insert(
            key,
            Slot::Ready {
                sctf: frozen,
                last_used: now,
            },
        );
        inner.bytes += bytes;
        self.evict_to_budget(&mut inner, key);
        drop(inner);
        self.ready.notify_all();
        Ok((log, false))
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
            if let Some(Slot::Ready { sctf, .. }) = inner.slots.remove(&victim) {
                inner.bytes -= sctf.len();
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
        assert_eq!(cold.to_csv_string(), warm.to_csv_string());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.bytes > 0);
    }

    #[test]
    fn lru_eviction_honours_the_byte_budget() {
        let one = capture(120);
        let sz = sctf::encoded_size(&one);
        // Room for two traces of this size, not three.
        let cache = CaptureCache::new(2 * sz + sz / 2);
        for seed in 0..3u64 {
            let key = CaptureKey::new("fft", 2, 120, seed);
            cache.get_or_capture(key, || capture(120));
        }
        let s = cache.stats();
        assert_eq!(s.misses, 3);
        assert!(s.evictions >= 1, "{s:?}");
        assert!(s.bytes <= cache.byte_budget() as u64, "{s:?}");
        // The oldest key was the victim; re-fetching it misses...
        let (_, hit) = cache.get_or_capture(CaptureKey::new("fft", 2, 120, 0), || capture(120));
        assert!(!hit);
        // ...while the most recent is still resident.
        let (_, hit) = cache.get_or_capture(CaptureKey::new("fft", 2, 120, 2), || {
            panic!("recent entry was evicted")
        });
        assert!(hit);
    }

    #[test]
    fn oversized_entry_still_serves_its_requester() {
        let cache = CaptureCache::new(1); // nothing fits
        let key = CaptureKey::new("fft", 2, 120, 1);
        let (log, hit) = cache.get_or_capture(key, || capture(120));
        assert!(!hit);
        assert!(!log.is_empty());
        // It is evicted as soon as another insertion needs the room.
        cache.get_or_capture(CaptureKey::new("fft", 2, 120, 2), || capture(120));
        assert!(cache.stats().evictions >= 1);
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
    fn failed_producer_frees_the_pending_slot() {
        let cache = CaptureCache::new(usize::MAX);
        let key = CaptureKey::new("fft", 2, 150, 5);
        let err = cache
            .try_get_or_capture(key, || Err::<TraceLog, &str>("peer hung up"))
            .unwrap_err();
        assert_eq!(err, "peer hung up");
        // The error did not poison the key: a fallback producer runs.
        let (_, hit) = cache.get_or_capture(key, || capture(150));
        assert!(!hit);
        let s = cache.stats();
        // Both attempts found no Ready entry, so both count as misses.
        assert_eq!(s.misses, 2);
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn failed_producer_wakes_waiters_who_then_produce() {
        let cache = std::sync::Arc::new(CaptureCache::new(usize::MAX));
        let key = CaptureKey::new("fft", 2, 150, 7);
        let (entered_tx, entered_rx) = std::sync::mpsc::channel::<()>();
        let (fail_tx, fail_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            let c = std::sync::Arc::clone(&cache);
            s.spawn(move || {
                let _ = c.try_get_or_capture(key, || {
                    entered_tx.send(()).unwrap();
                    fail_rx.recv().unwrap();
                    Err::<TraceLog, &str>("forward failed")
                });
            });
            entered_rx.recv().unwrap(); // producer holds the Pending slot
            let c = std::sync::Arc::clone(&cache);
            let waiter = s.spawn(move || c.get_or_capture(key, || capture(150)));
            // Give the waiter time to block on the condvar, then fail
            // the first producer; the waiter must take over and finish.
            std::thread::sleep(std::time::Duration::from_millis(20));
            fail_tx.send(()).unwrap();
            let (log, hit) = waiter.join().unwrap();
            assert!(!hit);
            assert!(!log.is_empty());
        });
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.misses, 2, "{s:?}");
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
