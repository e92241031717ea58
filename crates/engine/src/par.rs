//! Deterministic parallel sweep executor.
//!
//! Replaces the old thread-per-job harness: a fixed pool of scoped
//! workers pulls job indices off a shared atomic counter, runs each
//! closure exactly once, and writes its result into a slot keyed by the
//! job's input position. Because every job builds its own simulators and
//! seeds its own [`crate::rng::StreamRng`] streams, and because results
//! are collected strictly in index order, the output is **bit-identical
//! to serial execution** regardless of thread count or OS scheduling —
//! parallelism only changes *when* a job runs, never *what* it computes
//! or *where* its result lands.
//!
//! `SCTM_NUM_THREADS` sizes the pool (so sweeps can be pinned for
//! reproducible timing experiments; unset, it uses every available
//! core). It does not reach inside a simulation: one capture runs on
//! the thread that asked for it. (`sctmd` sizes its own request workers
//! from `SCTM_THREADS`; that pool lives in `sctm-srv`.) Pools are scoped
//! per call: nested `par_map` calls cannot deadlock, they just briefly
//! oversubscribe.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker-thread count for [`par_map`]: `SCTM_NUM_THREADS` if set to a
/// positive integer, else the number of available cores.
pub fn num_threads() -> usize {
    std::env::var("SCTM_NUM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Run `jobs` on a scoped worker pool and return their results in input
/// order. Bit-identical to [`serial_map`] (see module docs). Panics in a
/// job propagate once the pool has been joined.
pub fn par_map<T: Send, F: FnOnce() -> T + Send>(jobs: Vec<F>) -> Vec<T> {
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = num_threads().min(n);
    if workers <= 1 {
        return serial_map(jobs);
    }

    let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = jobs[i]
                    .lock()
                    .expect("job slot poisoned")
                    .take()
                    .expect("job taken twice");
                let result = job();
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("experiment worker panicked")
        })
        .collect()
}

/// Serial reference executor with the same contract as [`par_map`]; used
/// by the determinism test and as the 1-thread fast path.
pub fn serial_map<T, F: FnOnce() -> T>(jobs: Vec<F>) -> Vec<T> {
    jobs.into_iter().map(|j| j()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_input_order() {
        let jobs: Vec<_> = (0..64u64).map(|i| move || i * i).collect();
        let got = par_map(jobs);
        let want: Vec<u64> = (0..64).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<fn() -> u32> = Vec::new();
        assert!(par_map(empty).is_empty());
        assert_eq!(par_map(vec![|| 41 + 1]), vec![42]);
    }

    #[test]
    fn nested_calls_complete() {
        let jobs: Vec<_> = (0..4u64)
            .map(|i| move || par_map((0..8u64).map(|j| move || i * 100 + j).collect::<Vec<_>>()))
            .collect();
        let got = par_map(jobs);
        for (i, inner) in got.iter().enumerate() {
            let want: Vec<u64> = (0..8).map(|j| i as u64 * 100 + j).collect();
            assert_eq!(inner, &want);
        }
    }

    #[test]
    fn matches_serial_reference() {
        let mk = || {
            (0..32u64)
                .map(|i| move || i.wrapping_mul(0x9E37_79B9))
                .collect::<Vec<_>>()
        };
        assert_eq!(par_map(mk()), serial_map(mk()));
    }
}
