//! Span/event recorder.
//!
//! Two clocks, two shapes:
//! * **host-time spans** — wall-clock intervals on real threads (a
//!   capture, one replay iteration, a correction pass, a sweep job),
//!   recorded via the RAII [`SpanGuard`] returned by [`span`];
//! * **sim-time instants** — picosecond-stamped events on simulated
//!   nodes (inject / deliver / arbitrate), recorded via [`sim_event`].
//!
//! Both are keyed by a static category + name so recording never
//! allocates or formats. Each thread appends to its own bounded ring
//! buffer (oldest events overwritten on overflow); buffers register
//! themselves in a global list at first use and survive thread exit, so
//! [`drain`] sees everything recorded since the last drain, including
//! events from `par_map` workers that have already joined.

use crate::{enabled, lock_unpoisoned};
use sctm_engine::time::SimTime;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Ring capacity per thread, in events; ~48 B/event puts it around
/// 12 MiB/thread.
const RING_CAP: usize = 1 << 18;

/// One recorded event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A wall-clock interval on a host thread, relative to the process
    /// trace epoch (first instrumentation use).
    HostSpan {
        cat: &'static str,
        name: &'static str,
        /// Small per-process thread ordinal (not the OS tid).
        thread: u32,
        start_ns: u64,
        dur_ns: u64,
    },
    /// An instantaneous simulation-time event at a network node.
    SimInstant {
        cat: &'static str,
        name: &'static str,
        node: u32,
        at_ps: u64,
    },
}

/// Per-thread bounded buffer. Spans and instants live in separate
/// deques (each capped at `cap`): spans are the low-volume skeleton of
/// a trace (phases, iterations, sweep jobs) and must never be evicted
/// by the orders-of-magnitude-larger stream of per-message sim
/// instants a long run produces.
struct Ring {
    spans: VecDeque<TraceEvent>,
    instants: VecDeque<TraceEvent>,
    cap: usize,
    dropped: u64,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            spans: VecDeque::new(),
            instants: VecDeque::new(),
            cap,
            dropped: 0,
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        let q = match ev {
            TraceEvent::HostSpan { .. } => &mut self.spans,
            TraceEvent::SimInstant { .. } => &mut self.instants,
        };
        if q.len() == self.cap {
            q.pop_front();
            self.dropped += 1;
        }
        q.push_back(ev);
    }
}

/// All ring buffers ever created, strong refs so joined worker threads
/// keep their events until the next [`drain`].
static RINGS: Mutex<Vec<Arc<Mutex<Ring>>>> = Mutex::new(Vec::new());
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static BUF: (Arc<Mutex<Ring>>, u32) = {
        let ring = Arc::new(Mutex::new(Ring::new(RING_CAP)));
        lock_unpoisoned(&RINGS).push(ring.clone());
        (ring, NEXT_THREAD.fetch_add(1, Ordering::Relaxed))
    };
}

#[inline]
fn record(ev: TraceEvent) {
    BUF.with(|(ring, _)| lock_unpoisoned(ring).push(ev));
}

/// This thread's small trace ordinal (allocates one on first use).
fn thread_ordinal() -> u32 {
    BUF.with(|(_, t)| *t)
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
            let e = epoch();
            let start_ns = start.saturating_duration_since(e).as_nanos() as u64;
            let dur_ns = start.elapsed().as_nanos() as u64;
            record(TraceEvent::HostSpan {
                cat,
                name,
                thread: thread_ordinal(),
                start_ns,
                dur_ns,
            });
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

/// Record an instantaneous sim-time event at `node`. When tracing is
/// disabled this is one relaxed atomic load and a branch — cheap enough
/// for per-message hot paths in the network models.
#[inline]
pub fn sim_event(cat: &'static str, name: &'static str, node: u32, at: SimTime) {
    if !enabled() {
        return;
    }
    record(TraceEvent::SimInstant {
        cat,
        name,
        node,
        at_ps: at.as_ps(),
    });
}

/// Take every buffered event out of every thread's ring, in a
/// deterministic order (time-major within each shape). Dropped-event
/// counts reset alongside.
pub fn drain() -> Vec<TraceEvent> {
    let rings = lock_unpoisoned(&RINGS);
    let mut out = Vec::new();
    for ring in rings.iter() {
        let mut r = lock_unpoisoned(ring);
        out.extend(r.spans.drain(..));
        out.extend(r.instants.drain(..));
        r.dropped = 0;
    }
    out.sort_by(|a, b| sort_key(a).cmp(&sort_key(b)));
    out
}

type Key<'a> = (u8, u64, u64, &'a str, &'a str);

fn sort_key(ev: &TraceEvent) -> Key<'_> {
    match *ev {
        TraceEvent::HostSpan {
            cat,
            name,
            thread,
            start_ns,
            ..
        } => (0, start_ns, thread as u64, cat, name),
        TraceEvent::SimInstant {
            cat,
            name,
            node,
            at_ps,
        } => (1, at_ps, node as u64, cat, name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_enabled;

    #[test]
    fn disabled_records_nothing_enabled_records() {
        let _serial = lock_unpoisoned(&crate::GLOBAL_STATE_TESTS);
        set_enabled(false);
        drop(span("t", "off"));
        sim_event("t", "off", 0, SimTime::from_ps(1));
        // Tests outside the lock may be recording concurrently, so
        // assert on *our* distinctive events only.
        let mine = |evs: &[TraceEvent]| {
            evs.iter()
                .filter(|e| match e {
                    TraceEvent::HostSpan { cat, .. } | TraceEvent::SimInstant { cat, .. } => {
                        *cat == "t"
                    }
                })
                .count()
        };
        assert_eq!(mine(&drain()), 0);

        set_enabled(true);
        {
            let _s = span("t", "on");
            sim_event("t", "on", 3, SimTime::from_ns(2));
        }
        set_enabled(false);
        let evs = drain();
        assert_eq!(mine(&evs), 2);
        assert!(evs.iter().any(|e| matches!(
            e,
            TraceEvent::SimInstant {
                cat: "t",
                name: "on",
                node: 3,
                at_ps: 2_000
            }
        )));
    }

    #[test]
    fn worker_thread_events_survive_join() {
        let _serial = lock_unpoisoned(&crate::GLOBAL_STATE_TESTS);
        set_enabled(true);
        std::thread::spawn(|| {
            sim_event("tj", "worker", 7, SimTime::from_ps(42));
        })
        .join()
        .unwrap();
        set_enabled(false);
        let evs = drain();
        assert!(evs.iter().any(|e| matches!(
            e,
            TraceEvent::SimInstant {
                cat: "tj",
                node: 7,
                at_ps: 42,
                ..
            }
        )));
    }

    #[test]
    fn drain_survives_a_panicking_traced_thread() {
        let _serial = lock_unpoisoned(&crate::GLOBAL_STATE_TESTS);
        set_enabled(true);
        // A worker records an event, then panics *while holding its
        // ring lock* — the worst case, poisoning the very mutex drain
        // must later take.
        std::thread::spawn(|| {
            sim_event("tpanic", "recorded", 9, SimTime::from_ps(99));
            BUF.with(|(ring, _)| {
                let _guard = ring.lock().unwrap();
                panic!("traced worker dies mid-record");
            });
        })
        .join()
        .unwrap_err();
        // Recording from a healthy thread still works...
        sim_event("tpanic", "after", 1, SimTime::from_ps(100));
        set_enabled(false);
        // ...and drain neither panics nor loses the dead thread's event.
        let evs = drain();
        assert!(evs.iter().any(|e| matches!(
            e,
            TraceEvent::SimInstant {
                cat: "tpanic",
                name: "recorded",
                node: 9,
                ..
            }
        )));
        assert!(evs.iter().any(|e| matches!(
            e,
            TraceEvent::SimInstant {
                cat: "tpanic",
                name: "after",
                ..
            }
        )));
    }

    #[test]
    fn ring_drops_oldest_on_overflow() {
        let mut r = Ring::new(2);
        for i in 0..5u64 {
            r.push(TraceEvent::SimInstant {
                cat: "t",
                name: "x",
                node: 0,
                at_ps: i,
            });
        }
        assert_eq!(r.dropped, 3);
        assert_eq!(r.instants.len(), 2);
        assert!(matches!(
            r.instants.front(),
            Some(TraceEvent::SimInstant { at_ps: 3, .. })
        ));
    }

    #[test]
    fn instant_overflow_never_evicts_spans() {
        let mut r = Ring::new(4);
        r.push(TraceEvent::HostSpan {
            cat: "t",
            name: "phase",
            thread: 0,
            start_ns: 0,
            dur_ns: 1,
        });
        for i in 0..100u64 {
            r.push(TraceEvent::SimInstant {
                cat: "t",
                name: "x",
                node: 0,
                at_ps: i,
            });
        }
        assert_eq!(r.spans.len(), 1, "span evicted by instant overflow");
        assert_eq!(r.instants.len(), 4);
        assert_eq!(r.dropped, 96);
    }
}
