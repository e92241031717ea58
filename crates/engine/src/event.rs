//! Deterministic pending-event set.
//!
//! [`EventQueue`] delivers events in `(timestamp, insertion sequence)`
//! order. The sequence tiebreak is what makes whole-simulation
//! determinism possible: a bare priority structure is not stable, so two
//! events scheduled for the same picosecond could pop in either order
//! depending on internal shape, and any RNG draw or stats update
//! downstream of that order would diverge between runs.
//!
//! The pending set is one binary heap keyed by a packed `u128`,
//! `at_ps << 64 | seq`: the `(at, seq)` order in a single integer
//! compare. The replay and capture schedules this queue serves hold a
//! handful of pending events (15 on average at 64 cores, 9 at 16 —
//! DESIGN.md §7), where a heap's `log n` is three or four compares and
//! any bucketed structure pays for its buckets instead. The unit tests
//! in this module drive it against a plain `BinaryHeap` model of the
//! `(at, seq)` contract.
//!
//! A handled event costs one sift, not two. The network models pop an
//! event and, in its handler, schedule the next one (omesh's hop chain
//! does nothing else), so [`EventQueue::pop`] copies the top out and
//! leaves it in place, marked taken: the next [`EventQueue::schedule`]
//! overwrites it and sifts down once, where a real pop and a push would
//! each sift. Every other call removes the taken top first, and
//! [`EventQueue::peek_time`] reads past it, to the smaller of its two
//! children. This is one heap and a flag, not a second structure: it
//! is neither the front slot beside the heap nor the key-only heap
//! with a payload slab that EXPERIMENTS.md §P27 measured and rejected.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event of payload type `E` scheduled at a point in simulated time.
#[derive(Debug, Clone)]
pub struct QueuedEvent<E> {
    pub at: SimTime,
    pub seq: u64,
    pub payload: E,
}

/// A pending event: its payload behind the packed `(at, seq)` key the
/// heap orders by, reversed so the max-heap pops the earliest first.
#[derive(Debug, Clone)]
struct Pending<E> {
    key: u128,
    payload: E,
}

impl<E> PartialEq for Pending<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Pending<E> {}

impl<E> Ord for Pending<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}
impl<E> PartialOrd for Pending<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[inline]
fn pack(at: SimTime, seq: u64) -> u128 {
    (at.as_ps() as u128) << 64 | seq as u128
}

#[inline]
fn key_time(key: u128) -> SimTime {
    SimTime::from_ps((key >> 64) as u64)
}

/// Min-queue of timestamped events with FIFO tiebreak.
///
/// Also tracks the current simulation time (`now`), which advances
/// monotonically as events are popped. Scheduling into the past is a
/// model bug and panics in debug builds; in release it is clamped to
/// `now` (the least-wrong recovery, and cheaper than a branch miss on a
/// cold error path).
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Pending<E>>,
    /// The heap's top has been popped and waits to be overwritten by
    /// the next `schedule`, or removed by any other call.
    taken: bool,
    next_seq: u64,
    now: SimTime,
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Copy> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            taken: false,
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulation time: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len() - usize::from(self.taken)
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedule `payload` at absolute time `at`.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: at={at:?} now={:?}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let ev = Pending {
            key: pack(at, seq),
            payload,
        };
        if self.taken {
            self.taken = false;
            // Overwrite the taken top; the guard sifts it down on drop.
            *self.heap.peek_mut().expect("a taken top is in the heap") = ev;
        } else {
            self.heap.push(ev);
        }
    }

    /// Timestamp of the next event without popping it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        let key = if self.taken {
            // The taken top's children hold the earliest of the rest.
            let rest = self.heap.as_slice().iter().skip(1).take(2);
            rest.map(|e| e.key).min()
        } else {
            self.heap.peek().map(|e| e.key)
        };
        key.map(key_time)
    }

    /// Remove the taken top, if there is one.
    #[inline]
    fn drop_taken(&mut self) {
        if self.taken {
            self.taken = false;
            self.heap.pop();
        }
    }

    /// Pop the earliest event, advancing `now` to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<QueuedEvent<E>> {
        self.drop_taken();
        let &Pending { key, payload } = self.heap.peek()?;
        self.taken = true;
        let at = key_time(key);
        debug_assert!(at >= self.now, "event queue time went backwards");
        self.now = at;
        Some(QueuedEvent {
            at,
            seq: key as u64,
            payload,
        })
    }

    /// Pop the earliest event only if it is due at or before `deadline`.
    /// Used for epoch-bounded simulation (the online correction loop).
    #[inline]
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<QueuedEvent<E>> {
        if self.peek_time()? <= deadline {
            self.pop()
        } else {
            None
        }
    }

    /// Advance `now` directly (e.g. to a barrier or epoch boundary with
    /// no event exactly on it). Never moves time backwards.
    pub fn advance_to(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }

    /// Drop all pending events and reset the clock. Sequence numbers are
    /// *not* reset, so replaying after a drain still has unique seqs.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.taken = false;
        self.now = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StreamRng;
    use std::cmp::Reverse;

    /// The `(at, seq)` contract as a plain heap. Events are scheduled
    /// into a fresh queue with `payload == seq`, so the pair is all the
    /// model has to carry.
    #[derive(Default)]
    struct Model {
        heap: BinaryHeap<Reverse<(SimTime, u64)>>,
        next_seq: u64,
        now: SimTime,
    }

    /// A queue and its model driven through the same calls; every call
    /// that returns something asserts the two agree.
    #[derive(Default)]
    struct Pair {
        q: EventQueue<u64>,
        m: Model,
    }

    impl Pair {
        fn schedule(&mut self, at: SimTime) {
            self.q.schedule(at, self.m.next_seq);
            self.m.heap.push(Reverse((at, self.m.next_seq)));
            self.m.next_seq += 1;
            self.check();
        }

        fn clear(&mut self) {
            self.q.clear();
            self.m.heap.clear();
            self.m.now = SimTime::ZERO;
            self.check();
        }

        fn pop_before(&mut self, deadline: SimTime) -> bool {
            let want = match self.m.heap.peek() {
                Some(&Reverse((at, seq))) if at <= deadline => {
                    self.m.heap.pop();
                    self.m.now = at;
                    Some((at, seq, seq))
                }
                _ => None,
            };
            let got = self
                .q
                .pop_before(deadline)
                .map(|e| (e.at, e.seq, e.payload));
            assert_eq!(got, want);
            self.check();
            got.is_some()
        }

        fn pop(&mut self) -> bool {
            self.pop_before(SimTime::MAX)
        }

        fn advance_to(&mut self, t: SimTime) {
            self.q.advance_to(t);
            self.m.now = self.m.now.max(t);
            self.check();
        }

        fn check(&self) {
            assert_eq!(self.q.now(), self.m.now);
            assert_eq!(self.q.len(), self.m.heap.len());
            let next = self.m.heap.peek().map(|&Reverse((at, _))| at);
            assert_eq!(self.q.peek_time(), next);
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ps(30), "c");
        q.schedule(SimTime::from_ps(10), "a");
        q.schedule(SimTime::from_ps(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_ps(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ps(42), 0);
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_ps(42));
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ps(10), 1);
        q.schedule(SimTime::from_ps(20), 2);
        assert_eq!(
            q.pop_before(SimTime::from_ps(15)).map(|e| e.payload),
            Some(1)
        );
        assert!(q.pop_before(SimTime::from_ps(15)).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn advance_to_is_monotone() {
        let mut q = EventQueue::<()>::new();
        q.advance_to(SimTime::from_ps(100));
        assert_eq!(q.now(), SimTime::from_ps(100));
        q.advance_to(SimTime::from_ps(50));
        assert_eq!(q.now(), SimTime::from_ps(100));
    }

    #[test]
    fn clear_resets_clock_but_not_seq() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ps(10), 1);
        q.pop();
        q.clear();
        assert_eq!(q.now(), SimTime::ZERO);
        assert!(q.is_empty());
        q.schedule(SimTime::from_ps(1), 2);
        let e = q.pop().unwrap();
        assert!(e.seq >= 1, "sequence numbers must stay unique across clear");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ps(10), ());
        q.pop();
        q.schedule(SimTime::from_ps(5), ());
    }

    /// A monotone schedule far past `now` — every message of a trace
    /// queued up front — once rebuilt the calendar wheel this queue
    /// replaced every few dozen pushes (100 000 schedules took over a
    /// minute). 200 000 of them must still drain in the model's
    /// `(at, seq)` order.
    #[test]
    fn monotone_far_future_schedule_drains_in_model_order() {
        const N: u64 = 200_000;
        let mut p = Pair::default();
        for i in 0..N {
            p.schedule(SimTime::from_ps(1_000_000 + i * 3_700));
        }
        while p.pop() {}
        assert_eq!(p.m.next_seq, N);
        assert!(p.q.is_empty());
    }

    /// The packed key must order exactly like the `(at, seq)` tuple it
    /// replaces where packing could go wrong: `at` at zero, one
    /// picosecond apart and at `SimTime::MAX`, and `seq` crossing 2³²
    /// (a 32-bit truncation anywhere would reorder there).
    #[test]
    fn packed_key_orders_like_the_tuple_at_the_extremes() {
        let times = [0, 1, 2, u64::MAX - 1, u64::MAX].map(SimTime::from_ps);
        let seqs = [0, 1, (1 << 32) - 1, 1 << 32, (1 << 32) + 1, u64::MAX];
        let pairs: Vec<(SimTime, u64)> = times
            .iter()
            .flat_map(|&at| seqs.iter().map(move |&seq| (at, seq)))
            .collect();
        for &(a, sa) in &pairs {
            assert_eq!(key_time(pack(a, sa)), a);
            assert_eq!(pack(a, sa) as u64, sa);
            for &(b, sb) in &pairs {
                assert_eq!(pack(a, sa).cmp(&pack(b, sb)), (a, sa).cmp(&(b, sb)));
            }
        }
        // Through the queue: sequence numbers straddling 2³², scheduled
        // in reverse time order, drain in the model's order.
        let mut p = Pair::default();
        p.q.next_seq = (1 << 32) - 3;
        p.m.next_seq = p.q.next_seq;
        for &at in times.iter().rev() {
            p.schedule(at);
            p.schedule(at);
        }
        while p.pop() {}
        assert_eq!(p.q.now(), SimTime::MAX);
    }

    /// Each way a popped top can leave the heap: replaced by one
    /// schedule at the popped time (at or before every pending key),
    /// replaced by the first of two, removed by a second pop, passed
    /// over by reads and a bounded pop, and dropped by `clear`.
    #[test]
    fn a_popped_top_is_replaced_or_removed_as_the_model_says() {
        let fill = |p: &mut Pair| {
            for t in [70, 10, 50, 30, 90, 20, 80, 40, 60] {
                p.schedule(SimTime::from_ps(p.m.now.as_ps() + t * 10));
            }
        };
        for schedules in 0..3u64 {
            let mut p = Pair::default();
            fill(&mut p);
            while p.pop() {
                // The first lands at or before every pending key, the
                // second among them; 40 events in all.
                let now = p.m.now.as_ps();
                for k in 0..schedules {
                    if p.m.next_seq < 40 {
                        p.schedule(SimTime::from_ps(now + k * 250));
                    }
                }
            }
        }
        let mut p = Pair::default();
        fill(&mut p);
        assert!(p.pop());
        // Nothing scheduled: reads see past the taken top.
        assert!(!p.pop_before(SimTime::from_ps(150)));
        assert!(p.pop_before(SimTime::from_ps(200)));
        assert!(p.pop() && p.pop());
        p.clear();
        assert!(!p.pop());
        fill(&mut p);
        while p.pop() {}
        // Down to one event, then none, with the taken top in place.
        p.schedule(SimTime::from_ps(p.m.now.as_ps() + 5));
        assert!(p.pop());
        assert!(!p.pop_before(SimTime::MAX));
        assert!(p.q.is_empty());
    }

    /// Drive the queue and the heap model through an identical
    /// randomized schedule of interleaved pushes, pops, bounded pops and
    /// clock advances and require identical pop sequences — `(at, seq)`
    /// and payload of every event. Heavy bursts of same-timestamp
    /// events exercise the FIFO tiebreak (the key's low word);
    /// occasional far-future times spread the key's high word; tight
    /// loops around `now` exercise the clock.
    #[test]
    fn queue_matches_heap_model_under_random_bursts() {
        for round in 0..20u64 {
            let mut rng = StreamRng::new(0xE7E_u64 ^ round);
            let mut p = Pair::default();
            for _ in 0..400 {
                let now = p.m.now.as_ps();
                match rng.next_u64() % 9 {
                    // Burst of same-timestamp events.
                    0 => {
                        let at = SimTime::from_ps(now + rng.next_u64() % 5_000);
                        for _ in 0..(1 + rng.next_u64() % 12) {
                            p.schedule(at);
                        }
                    }
                    // Far-future event (overflow path).
                    1 => p.schedule(SimTime::from_ps(
                        now + 1_000_000 + rng.next_u64() % 1_000_000,
                    )),
                    // Near-term event.
                    2 => p.schedule(SimTime::from_ps(now + rng.next_u64() % 200)),
                    // Pop a few.
                    3 => {
                        for _ in 0..(1 + rng.next_u64() % 6) {
                            p.pop();
                        }
                    }
                    // Pop what is due within an epoch, then step the
                    // clock to its boundary (the online loop's shape).
                    4 => {
                        let deadline = SimTime::from_ps(now + rng.next_u64() % 3_000);
                        while p.pop_before(deadline) {}
                        p.advance_to(deadline);
                    }
                    // A handler's shape: pop, then schedule 0, 1 or 2
                    // events, the first at the popped time — before
                    // every pending key unless one ties it.
                    5 => {
                        if p.pop() {
                            let now = p.m.now.as_ps();
                            for k in 0..rng.next_u64() % 3 {
                                p.schedule(SimTime::from_ps(now + k * (rng.next_u64() % 300)));
                            }
                        }
                    }
                    // Reads and a bounded pop straight after a pop that
                    // scheduled nothing (`check` reads `len` and
                    // `peek_time`).
                    6 => {
                        p.pop();
                        p.pop_before(SimTime::from_ps(now + rng.next_u64() % 3_000));
                    }
                    // Clear with a popped top still in the heap, now
                    // and then.
                    7 if rng.next_u64().is_multiple_of(8) => {
                        p.pop();
                        p.clear();
                    }
                    // Advance to a time at or before `now`: a no-op.
                    _ => p.advance_to(SimTime::from_ps(now - now.min(rng.next_u64() % 500))),
                }
                p.check();
            }
            while p.pop() {}
        }
    }
}
