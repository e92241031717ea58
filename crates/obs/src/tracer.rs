//! Host-time span recorder.
//!
//! A span is a wall-clock interval on a host thread (a capture, one
//! replay iteration, a correction pass, a sweep job), recorded via the
//! RAII [`SpanGuard`] returned by [`span`]. Spans are keyed by a static
//! category + name so recording never allocates or formats per field.
//! A traced run records a handful of spans per phase, so every thread
//! appends to one process-wide list under one uncontended lock. The
//! list is bounded (the oldest span goes when it is full), and [`drain`]
//! takes all of it and releases its memory: spans from threads that
//! have since exited (`par_map` workers, the loop's pass threads) drain
//! like any other, and nothing stays resident between drains.

use crate::{enabled, lock_unpoisoned};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans kept between drains; past it the oldest is dropped.
const SPAN_CAP: usize = 1 << 18;

/// One recorded span: a wall-clock interval on a host thread, relative
/// to the process trace epoch (first instrumentation use).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub cat: &'static str,
    pub name: &'static str,
    /// Small per-process thread ordinal (not the OS tid).
    pub thread: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Every span recorded since the last [`drain`], from every thread.
static SPANS: Mutex<VecDeque<TraceEvent>> = Mutex::new(VecDeque::new());
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    /// This thread's small trace ordinal, allocated on its first span.
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn push_bounded(list: &mut VecDeque<TraceEvent>, ev: TraceEvent, cap: usize) {
    if list.len() == cap {
        list.pop_front();
    }
    list.push_back(ev);
}

/// RAII guard for a host-time span: records on drop. A no-op (and
/// carries no state) when tracing was disabled at construction.
#[must_use = "a span measures until the guard drops"]
pub struct SpanGuard {
    live: Option<(&'static str, &'static str, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((cat, name, start)) = self.live.take() {
            let ev = TraceEvent {
                cat,
                name,
                thread: THREAD.with(|t| *t),
                start_ns: start.saturating_duration_since(epoch()).as_nanos() as u64,
                dur_ns: start.elapsed().as_nanos() as u64,
            };
            push_bounded(&mut lock_unpoisoned(&SPANS), ev, SPAN_CAP);
        }
    }
}

/// Open a host-time span. When tracing is disabled this is one relaxed
/// atomic load and the returned guard does nothing on drop.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { live: None };
    }
    epoch(); // pin the epoch no later than the first span start
    SpanGuard {
        live: Some((cat, name, Instant::now())),
    }
}

/// Take every span recorded since the last drain, in a deterministic
/// order (start time, then thread), and release the list's memory.
pub fn drain() -> Vec<TraceEvent> {
    let mut out = Vec::from(std::mem::take(&mut *lock_unpoisoned(&SPANS)));
    out.sort_by_key(|e| (e.start_ns, e.thread, e.cat, e.name));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_enabled;

    /// Tests outside the serialising lock may be recording concurrently,
    /// so each test asserts on its own category only.
    fn of_cat(evs: &[TraceEvent], cat: &str) -> Vec<TraceEvent> {
        evs.iter().copied().filter(|e| e.cat == cat).collect()
    }

    #[test]
    fn disabled_records_nothing_enabled_records() {
        let _serial = lock_unpoisoned(&crate::GLOBAL_STATE_TESTS);
        set_enabled(false);
        drop(span("t", "off"));
        assert!(of_cat(&drain(), "t").is_empty());

        set_enabled(true);
        drop(span("t", "on"));
        set_enabled(false);
        let mine = of_cat(&drain(), "t");
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].name, "on");
        assert!(
            drain().iter().all(|e| e.cat != "t"),
            "drain left spans behind"
        );
    }

    #[test]
    fn worker_thread_events_survive_join() {
        let _serial = lock_unpoisoned(&crate::GLOBAL_STATE_TESTS);
        set_enabled(true);
        std::thread::spawn(|| drop(span("tj", "worker")))
            .join()
            .unwrap();
        drop(span("tj", "main"));
        set_enabled(false);
        let mine = of_cat(&drain(), "tj");
        let thread_of = |name| mine.iter().find(|e| e.name == name).map(|e| e.thread);
        let (worker, main) = (thread_of("worker"), thread_of("main"));
        assert!(worker.is_some() && main.is_some(), "lost a span: {mine:?}");
        assert_ne!(worker, main, "two threads share one trace track");
    }

    #[test]
    fn drain_survives_a_panicking_traced_thread() {
        let _serial = lock_unpoisoned(&crate::GLOBAL_STATE_TESTS);
        set_enabled(true);
        // A worker records a span, then panics *while holding the span
        // list's lock*: the worst case, poisoning the very mutex every
        // later span and drain must take.
        std::thread::spawn(|| {
            drop(span("tpanic", "recorded"));
            let _guard = lock_unpoisoned(&SPANS);
            panic!("traced worker dies holding the span list");
        })
        .join()
        .unwrap_err();
        // Recording from a healthy thread still works...
        drop(span("tpanic", "after"));
        set_enabled(false);
        // ...and drain neither panics nor loses the dead thread's span.
        let mine = of_cat(&drain(), "tpanic");
        assert!(mine.iter().any(|e| e.name == "recorded"));
        assert!(mine.iter().any(|e| e.name == "after"));
    }

    #[test]
    fn span_list_drops_oldest_at_the_cap() {
        let mut list = VecDeque::new();
        for i in 0..5u64 {
            let ev = TraceEvent {
                cat: "t",
                name: "x",
                thread: 0,
                start_ns: i,
                dur_ns: 1,
            };
            push_bounded(&mut list, ev, 2);
        }
        assert_eq!(list.len(), 2);
        assert_eq!(list.front().map(|e| e.start_ns), Some(3));
    }
}
