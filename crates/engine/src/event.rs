//! Deterministic pending-event set.
//!
//! [`EventQueue`] delivers events in `(timestamp, insertion sequence)`
//! order. The sequence tiebreak is what makes whole-simulation
//! determinism possible: a bare priority structure is not stable, so two
//! events scheduled for the same picosecond could pop in either order
//! depending on internal shape, and any RNG draw or stats update
//! downstream of that order would diverge between runs.
//!
//! The pending set is a calendar queue (time wheel): O(1) amortised
//! push/pop on the dense, near-monotone schedules discrete-event
//! network models produce. Buckets self-resize (count and width) as the
//! schedule density changes, and events beyond the wheel horizon spill
//! to an overflow heap, so pathological schedules degrade to heap
//! behaviour instead of breaking. The unit tests in this module drive
//! it against a plain `BinaryHeap` model of the `(at, seq)` contract.

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

impl<E> PartialEq for QueuedEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for QueuedEvent<E> {}

// Reverse ordering: BinaryHeap is a max-heap, we want earliest first.
impl<E> Ord for QueuedEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for QueuedEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The calendar-queue wheel: `buckets.len()` (a power of two) buckets of
/// `1 << shift` picoseconds each, covering absolute bucket numbers
/// `[cursor_ab, cursor_ab + buckets.len())`. Because only that window
/// maps into the wheel, each bucket holds events of exactly one absolute
/// bucket — no epoch/year filtering is needed on pop. Events beyond the
/// horizon wait in `overflow` (a plain heap) and migrate in as the
/// cursor advances.
#[derive(Debug, Clone)]
struct Wheel<E> {
    buckets: Vec<Vec<QueuedEvent<E>>>,
    /// One bit per bucket: set iff the bucket is non-empty. Lets the
    /// min rebuild skip runs of empty buckets a word at a time instead
    /// of probing each `Vec` — on replay-shaped schedules the next
    /// event is typically several empty buckets ahead, and this scan
    /// runs once per pop.
    occ: Vec<u64>,
    /// log2 of the bucket width in picoseconds.
    shift: u32,
    /// Absolute bucket number (`at >> shift`) of the wheel cursor. Only
    /// advanced by `pop` (to the popped event's bucket), so it never
    /// outruns `now` and late `schedule` calls always land in-window.
    cursor_ab: u64,
    /// Events currently stored in the wheel (not counting overflow).
    count: usize,
    overflow: BinaryHeap<QueuedEvent<E>>,
    /// Eagerly-maintained minimum of the *wheel* events (not overflow):
    /// (at, seq, absolute bucket, index in bucket). Invariant: `Some`
    /// exactly when `count > 0`, kept correct by every mutation — so
    /// peeking is a read-only O(1) lookup.
    cached_min: Option<(SimTime, u64, u64, usize)>,
    /// Population at the last resize and pushes seen since. A resize
    /// costs O(population), so one is allowed only after at least that
    /// many pushes: amortised O(1) per push whatever the schedule. The
    /// crowding tests alone are not geometric once the bucket count is
    /// clamped or the schedule keeps outrunning the horizon — a
    /// monotone far-future schedule then rebuilt the wheel every few
    /// dozen pushes.
    resized_len: usize,
    since_resize: usize,
    #[cfg(test)]
    resizes: usize,
}

const WHEEL_MIN_BUCKETS: usize = 16;
const WHEEL_MAX_BUCKETS: usize = 1 << 16;

impl<E> Wheel<E> {
    fn new() -> Self {
        Wheel {
            buckets: (0..WHEEL_MIN_BUCKETS).map(|_| Vec::new()).collect(),
            occ: vec![0; WHEEL_MIN_BUCKETS.div_ceil(64)],
            // 1024 ps buckets to start with; resize adapts.
            shift: 10,
            cursor_ab: 0,
            count: 0,
            overflow: BinaryHeap::new(),
            cached_min: None,
            resized_len: 0,
            since_resize: 0,
            #[cfg(test)]
            resizes: 0,
        }
    }

    #[inline]
    fn mask(&self) -> u64 {
        (self.buckets.len() - 1) as u64
    }

    #[inline]
    fn occ_set(&mut self, idx: usize) {
        self.occ[idx >> 6] |= 1u64 << (idx & 63);
    }

    #[inline]
    fn occ_clear(&mut self, idx: usize) {
        self.occ[idx >> 6] &= !(1u64 << (idx & 63));
    }

    /// First non-empty bucket index at or after `start` in ring order
    /// (wrapping once past the end). `None` iff every bucket is empty.
    fn occ_next(&self, start: usize) -> Option<usize> {
        let nb = self.buckets.len();
        let words = self.occ.len();
        let (w0, b0) = (start >> 6, start & 63);
        // Tail of the starting word, then whole words to the end.
        let first = self.occ[w0] & (!0u64 << b0);
        if first != 0 {
            return Some((w0 << 6) + first.trailing_zeros() as usize);
        }
        for w in w0 + 1..words {
            if self.occ[w] != 0 {
                return Some((w << 6) + self.occ[w].trailing_zeros() as usize);
            }
        }
        // Wrap: words before the start, then the head of the start word.
        for w in 0..w0 {
            if self.occ[w] != 0 {
                let i = (w << 6) + self.occ[w].trailing_zeros() as usize;
                if i < nb {
                    return Some(i);
                }
            }
        }
        let head = self.occ[w0] & !(!0u64 << b0);
        if head != 0 {
            return Some((w0 << 6) + head.trailing_zeros() as usize);
        }
        None
    }

    #[inline]
    fn horizon_ab(&self) -> u64 {
        self.cursor_ab + self.buckets.len() as u64
    }

    fn len(&self) -> usize {
        self.count + self.overflow.len()
    }

    fn push(&mut self, ev: QueuedEvent<E>, now: SimTime) {
        let crowded = self.count > self.buckets.len() * 2
            || (self.overflow.len() > 64 && self.overflow.len() > self.count);
        if crowded && self.since_resize >= self.resized_len {
            self.resize(now);
        }
        self.since_resize += 1;
        let ab = ev.at.as_ps() >> self.shift;
        debug_assert!(ab >= self.cursor_ab, "wheel push into the past");
        if ab >= self.horizon_ab() {
            self.overflow.push(ev);
            return;
        }
        // Keep the eager minimum current.
        match self.cached_min {
            Some((cat, cseq, _, _)) if (ev.at, ev.seq) < (cat, cseq) => {
                let idx = self.buckets[(ab & self.mask()) as usize].len();
                self.cached_min = Some((ev.at, ev.seq, ab, idx));
            }
            None => {
                debug_assert_eq!(self.count, 0);
                self.cached_min = Some((ev.at, ev.seq, ab, 0));
            }
            _ => {}
        }
        {
            let m = self.mask();
            let i = (ab & m) as usize;
            self.buckets[i].push(ev);
            self.occ_set(i);
        }
        self.count += 1;
    }

    /// The minimum pending event, read-only. The wheel min (eagerly
    /// maintained) always beats the overflow min when both exist: every
    /// overflow event sits in a bucket at or past the horizon, strictly
    /// later than any wheel bucket.
    fn peek(&self) -> Option<SimTime> {
        match self.cached_min {
            Some((at, _, _, _)) => Some(at),
            None => self.overflow.peek().map(|e| e.at),
        }
    }

    /// Recompute `cached_min` by scanning buckets from the cursor.
    /// O(buckets) worst case, but the scan starts at the cursor (the
    /// last popped bucket) so on dense schedules it terminates within a
    /// bucket or two.
    fn rebuild_min(&mut self) {
        self.cached_min = None;
        if self.count == 0 {
            return;
        }
        let mask = self.mask();
        let start = (self.cursor_ab & mask) as usize;
        let i = self
            .occ_next(start)
            .expect("wheel count positive but no bucket occupied");
        // Ring index back to the absolute bucket inside the window.
        let nb = self.buckets.len();
        let ab = if i >= start {
            self.cursor_ab + (i - start) as u64
        } else {
            self.cursor_ab + (nb - start + i) as u64
        };
        let b = &self.buckets[i];
        let (mut idx, mut best) = (0usize, (b[0].at, b[0].seq));
        for (i, e) in b.iter().enumerate().skip(1) {
            if (e.at, e.seq) < best {
                best = (e.at, e.seq);
                idx = i;
            }
        }
        self.cached_min = Some((best.0, best.1, ab, idx));
    }

    fn pop(&mut self) -> Option<QueuedEvent<E>> {
        match self.cached_min.take() {
            None => {
                // Wheel empty: serve straight from the overflow heap,
                // then advance the cursor to the served bucket and pull
                // newly in-horizon events forward.
                let ev = self.overflow.pop()?;
                self.cursor_ab = ev.at.as_ps() >> self.shift;
                self.migrate_due();
                self.rebuild_min();
                Some(ev)
            }
            Some((_, _, ab, idx)) => {
                let mask = self.mask();
                let i = (ab & mask) as usize;
                let ev = self.buckets[i].swap_remove(idx);
                if self.buckets[i].is_empty() {
                    self.occ_clear(i);
                }
                self.count -= 1;
                // Overflow events become due only when the horizon
                // (cursor + window) advances; a pop within the cursor
                // bucket cannot uncover any.
                if ab != self.cursor_ab {
                    self.cursor_ab = ab;
                    self.migrate_due();
                }
                self.rebuild_min();
                Some(ev)
            }
        }
    }

    /// Pull overflow events that the advancing horizon now covers.
    fn migrate_due(&mut self) {
        let mask = self.mask();
        while let Some(e) = self.overflow.peek() {
            let ab = e.at.as_ps() >> self.shift;
            if ab >= self.horizon_ab() {
                break;
            }
            let ev = self.overflow.pop().expect("peeked");
            let i = (ab & mask) as usize;
            self.buckets[i].push(ev);
            self.occ_set(i);
            self.count += 1;
        }
    }

    /// Rebuild the wheel around the current schedule: bucket count from
    /// the population, bucket width from the mean event spacing. The
    /// cursor is re-anchored at `now` (not the earliest pending event)
    /// because future pushes may still land anywhere at or after `now`.
    fn resize(&mut self, now: SimTime) {
        let mut all: Vec<QueuedEvent<E>> = Vec::with_capacity(self.len());
        for b in &mut self.buckets {
            all.append(b);
        }
        all.extend(std::mem::take(&mut self.overflow).into_vec());
        self.count = 0;
        self.cached_min = None;
        self.resized_len = all.len();
        self.since_resize = 0;
        #[cfg(test)]
        {
            self.resizes += 1;
        }
        let n = all.len().max(1);
        let hi = all.iter().map(|e| e.at).max().unwrap_or(now).max(now);
        let span = hi.as_ps().saturating_sub(now.as_ps()).max(1);
        // Aim for ~1 event per bucket across the observed span.
        let width = (span / n as u64).max(1);
        self.shift = 63 - width.leading_zeros();
        let want = (n * 2)
            .next_power_of_two()
            .clamp(WHEEL_MIN_BUCKETS, WHEEL_MAX_BUCKETS);
        self.buckets = (0..want).map(|_| Vec::new()).collect();
        self.occ = vec![0; want.div_ceil(64)];
        self.cursor_ab = now.as_ps() >> self.shift;
        for ev in all {
            let ab = ev.at.as_ps() >> self.shift;
            if ab >= self.horizon_ab() {
                self.overflow.push(ev);
            } else {
                {
                    let m = self.mask();
                    let i = (ab & m) as usize;
                    self.buckets[i].push(ev);
                    self.occ_set(i);
                }
                self.count += 1;
            }
        }
        self.rebuild_min();
    }

    fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.occ.iter_mut().for_each(|w| *w = 0);
        self.overflow.clear();
        self.count = 0;
        self.cursor_ab = 0;
        self.cached_min = None;
        self.resized_len = 0;
    }
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
    wheel: Wheel<E>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            wheel: Wheel::new(),
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
        self.wheel.len()
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
        self.wheel.push(QueuedEvent { at, seq, payload }, self.now);
    }

    /// Schedule `payload` at `now + delay`.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimTime, payload: E) {
        let at = self.now + delay;
        self.schedule(at, payload);
    }

    /// Timestamp of the next event without popping it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.wheel.peek()
    }

    /// Pop the earliest event, advancing `now` to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<QueuedEvent<E>> {
        let ev = self.wheel.pop()?;
        debug_assert!(ev.at >= self.now, "event queue time went backwards");
        self.now = ev.at;
        Some(ev)
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
        self.wheel.clear();
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

    /// A wheel and its model driven through the same calls; every call
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
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ps(10), 1);
        q.pop();
        q.schedule_in(SimTime::from_ps(5), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_ps(15)));
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

    /// A monotone schedule far past the horizon — every message of a
    /// trace queued up front — used to rebuild the wheel every few
    /// dozen pushes (100 000 schedules took over a minute). Resizes
    /// must be geometric in the population, and the drain must still
    /// come out in the model's `(at, seq)` order.
    #[test]
    fn monotone_far_future_schedule_resizes_geometrically() {
        const N: u64 = 200_000;
        let mut p = Pair::default();
        for i in 0..N {
            p.schedule(SimTime::from_ps(1_000_000 + i * 3_700));
        }
        let resizes = p.q.wheel.resizes;
        assert!(resizes <= 20, "{resizes} resizes for {N} pushes");
        while p.pop() {}
        assert_eq!(p.m.next_seq, N);
    }

    /// Drive the wheel and the heap model through an identical
    /// randomized schedule of interleaved pushes, pops, bounded pops and
    /// clock advances and require identical pop sequences — `(at, seq)`
    /// and payload of every event. Heavy bursts of same-timestamp
    /// events exercise the FIFO tiebreak; occasional far-future times
    /// exercise the overflow heap; tight loops around `now` exercise
    /// cursor advancement.
    #[test]
    fn wheel_matches_heap_model_under_random_bursts() {
        for round in 0..20u64 {
            let mut rng = StreamRng::new(0xE7E_u64 ^ round);
            let mut p = Pair::default();
            for _ in 0..400 {
                let now = p.m.now.as_ps();
                match rng.next_u64() % 6 {
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
                    // Advance to a time at or before `now`: a no-op.
                    _ => p.advance_to(SimTime::from_ps(now - now.min(rng.next_u64() % 500))),
                }
                p.check();
            }
            while p.pop() {}
        }
    }
}
