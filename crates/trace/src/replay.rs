//! Trace replay engines.
//!
//! Three engines, using strictly increasing amounts of trace knowledge:
//!
//! 1. [`replay_fixed`] — the **classic trace model** (the strawman the
//!    paper improves on): inject every message at its capture
//!    timestamp. The timing feedback loop is lost: if the target
//!    network is slower or faster than the capture network, dependent
//!    messages are injected at the wrong times and error compounds.
//! 2. [`replay_sctm_pass`] — the **paper's self-correction trace
//!    model**: knowledge is each source's departures in time order plus
//!    the arrival-gating pairing computable from a plain network trace
//!    ([`TraceLog::arrival_gates`]). Injections are derived from the
//!    replay's *own* delivery times (the timeline corrects itself
//!    forward in time) under one readiness rule: a seed waits on
//!    nothing, a gated departure on its gate, a gate-less one on its
//!    source predecessor. The outer loop in `sctm-core` additionally
//!    corrects the capture model and re-captures until the estimate
//!    stabilises.
//! 3. [`replay_oracle`] — full-causality single-pass replay using the
//!    exact dependency DAG (which our capture can see because it lives
//!    inside the simulator). This is the accuracy ceiling of any
//!    trace-driven method and quantifies how much the gating heuristic
//!    costs.
//!
//! All three read a log's rows in the one order it has: id `i` is the
//! `i`-th departure by `(t_inject, id)` ([`crate::log`]). Classic
//! replay injects in id order, and the gate plan pairs departures with
//! arrivals walking ids, over a whole log and over a streamed capture
//! alike.
//!
//! The gated pass is split along what it reads. Everything derived from
//! the rows alone — the arrival-gate pairing, the capture-anchored
//! deltas, the per-source successor chain, the gate→dependants
//! adjacency, the initial readiness flags — is one immutable
//! [`GatePlan`]; what a pass mutates (`PassState`: readiness flags,
//! replay times, the injection heap, the drain buffer) is all a pass
//! resets. Who owns the plan follows how the rows arrive:
//!
//! - [`replay_sctm_pass`] reads the plan the log memoises
//!   ([`TraceLog::gate_plan`]): K replays of one capture — K requests
//!   over one cached log in `sctmd` — prepare once.
//! - [`replay_sctm_stream`] grows the plan in a borrowed
//!   [`ReplayScratch`] as a capture still running hands its rows over:
//!   the loop replays each capture while the simulator produces it,
//!   behind a horizon that keeps the result the whole-log pass's to the
//!   bit, and folds what it reads of the result as the pass delivers
//!   ([`crate::fold`]): no log is assembled, and a message's replay
//!   times live only while it is in flight.

use crate::fold::Corrections;
use crate::log::{CaptureBatch, CaptureFeed, TraceLog, TraceRecord, NONE};
use crate::pages::{Frontier, Pages, PAGE};
use sctm_engine::msgtable::MsgTable;
use sctm_engine::net::{Delivery, Message, MsgClass, MsgId, NetworkModel, NodeId};
use sctm_engine::stats::Running;
use sctm_engine::time::SimTime;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::fmt::Debug;
use std::mem::size_of;
use std::ops::{Index, IndexMut};

/// Outcome of one replay pass.
#[derive(Clone, Debug)]
pub struct ReplayResult {
    /// Injection time per message (dense id order).
    pub inject: Vec<SimTime>,
    /// Delivery time per message.
    pub deliver: Vec<SimTime>,
    /// Execution-time estimate: last delivery plus the capture run's
    /// local tail (compute after the final message).
    pub est_exec_time: SimTime,
}

impl ReplayResult {
    fn from_times(log: &TraceLog, inject: Vec<SimTime>, deliver: Vec<SimTime>) -> Self {
        let last = deliver.iter().copied().max().unwrap_or(SimTime::ZERO);
        let est_exec_time = estimate(log.capture_exec_time, log.last_delivery(), last);
        ReplayResult {
            inject,
            deliver,
            est_exec_time,
        }
    }

    /// Mean message latency in nanoseconds for one class (or all).
    pub fn mean_latency_ns(&self, log: &TraceLog, class: Option<MsgClass>) -> f64 {
        mean_latency_ns(self.replayed(log), class)
    }

    /// Every message of `log` with its replay injection and delivery,
    /// in id order.
    pub(crate) fn replayed<'a>(
        &'a self,
        log: &'a TraceLog,
    ) -> impl Iterator<Item = (Message, SimTime, SimTime)> + 'a {
        (log.records.iter().zip(&self.inject).zip(&self.deliver)).map(|((r, &i), &d)| (r.msg, i, d))
    }
}

/// The execution-time estimate of a replay that delivered last at
/// `last`, over a capture that ran `exec_time` and delivered last at
/// `last_delivery`: the replay's last delivery plus the capture's local
/// tail.
fn estimate(exec_time: SimTime, last_delivery: SimTime, last: SimTime) -> SimTime {
    last + exec_time.saturating_since(last_delivery)
}

/// Mean latency in nanoseconds of the `replayed` messages of one class
/// (or all), in id order.
fn mean_latency_ns(
    replayed: impl Iterator<Item = (Message, SimTime, SimTime)>,
    class: Option<MsgClass>,
) -> f64 {
    let mut acc = Running::new();
    for (msg, inject, deliver) in replayed {
        if class.is_none() || class == Some(msg.class) {
            acc.push(deliver.saturating_since(inject).as_ns_f64());
        }
    }
    acc.mean()
}

/// Rows of ascending `u32` ids behind one offset array — the flat
/// replacement for a `Vec<Vec<u32>>` whose inner vectors dominated
/// per-pass allocation.
#[derive(Clone, Debug, Default)]
struct Csr {
    off: Vec<u32>,
    adj: Vec<u32>,
}

impl Csr {
    /// Rebuild as the inversion of `edges`: item `i < items` lands in
    /// every row `edges(i)` names. `cursor` is scratch.
    fn invert<I: Iterator<Item = u32>>(
        &mut self,
        rows: usize,
        items: usize,
        cursor: &mut Vec<u32>,
        mut edges: impl FnMut(usize) -> I,
    ) {
        cursor.clear();
        cursor.resize(rows, 0);
        for i in 0..items {
            for e in edges(i) {
                cursor[e as usize] += 1;
            }
        }
        self.off.clear();
        self.off.reserve(rows + 1);
        self.off.push(0);
        let mut end = 0u32;
        self.off.extend(cursor.iter().map(|&count| {
            end += count;
            end
        }));
        self.adj.clear();
        self.adj.resize(end as usize, 0);
        // `cursor` becomes the per-row fill position. Visiting items in
        // id order keeps each row ascending.
        cursor.fill(0);
        for i in 0..items {
            for e in edges(i) {
                let e = e as usize;
                self.adj[(self.off[e] + cursor[e]) as usize] = i as u32;
                cursor[e] += 1;
            }
        }
    }

    #[inline]
    fn row(&self, r: usize) -> &[u32] {
        &self.adj[self.off[r] as usize..self.off[r + 1] as usize]
    }
}

// Readiness flags of one message in a gated pass. A seed waits on
// nothing, a gated departure waits on its gate alone, and a gate-less
// one on its per-source predecessor.
/// The gate has delivered, or there is none.
const GATE_DONE: u8 = 1;
/// Its injection time is known and queued (or already injected).
const SCHEDULED: u8 = 2;
/// Its capture delivery is known to a streamed pass.
const ARRIVED: u8 = 4;
/// It has delivered in the replay: its [`PassState::deliver`] is set.
const DELIVERED: u8 = 8;

/// The heads of [`GatePlan`]'s lists that are not a gate's: the seeds
/// (no gate, no predecessor) and the gate-less departures that follow
/// a predecessor. Gate `g`'s list head is `heads[LISTS + g]`.
const SEEDS: usize = 0;
const CHAINED: usize = 1;
const LISTS: usize = 2;

/// A pass's heap key: `(time, id)` packed into one integer, so the
/// heap compares one `u128` instead of a tuple, in the same order.
#[inline]
fn key(t: SimTime, i: u32) -> u128 {
    (u128::from(t.as_ps()) << 32) | u128::from(i)
}

#[inline]
fn key_time(k: u128) -> SimTime {
    SimTime::from_ps((k >> 32) as u64)
}

#[inline]
fn key_id(k: u128) -> usize {
    k as u32 as usize
}

/// One per-message column of a gated pass, indexed by message id.
pub(crate) trait Col<T>:
    Index<usize, Output = T> + IndexMut<usize> + Clone + Debug + Default
{
    fn len(&self) -> usize;
    fn clear(&mut self);
    /// Grow to `n` items; the new ones are `fill`.
    fn grow(&mut self, n: usize, fill: T);
    /// Whether item `i` has retired with its page ([`Pages::retire_to`]).
    fn retired(&self, i: usize) -> bool;
    /// Retire the first `pages` pages ([`Pages::retire_to`]).
    fn retire_to(&mut self, pages: usize);
}

impl<T: Copy + Debug> Col<T> for Vec<T> {
    fn len(&self) -> usize {
        Vec::len(self)
    }
    fn clear(&mut self) {
        Vec::clear(self);
    }
    fn grow(&mut self, n: usize, fill: T) {
        self.resize(n, fill);
    }
    #[inline]
    fn retired(&self, _: usize) -> bool {
        false
    }
    /// A flat column holds a whole log, and retires nothing.
    fn retire_to(&mut self, _: usize) {}
}

impl<T: Copy + Debug> Col<T> for Pages<T> {
    fn len(&self) -> usize {
        Pages::len(self)
    }
    fn clear(&mut self) {
        Pages::clear(self);
    }
    fn grow(&mut self, n: usize, fill: T) {
        self.resize(n, fill);
    }
    #[inline]
    fn retired(&self, i: usize) -> bool {
        Pages::retired(self, i)
    }
    fn retire_to(&mut self, pages: usize) {
        Pages::retire_to(self, pages);
    }
}

/// Where a gated pass keeps its per-message columns. A pass over a whole
/// log knows its length and keeps them flat ([`Flat`]); a pass fed by a
/// capture that is still running grows them a batch at a time, a page
/// at a time ([`Paged`]), so that it never copies or outgrows what it
/// holds. The pass ([`run_gated`]) is one function over either.
pub(crate) trait Store: Clone + Debug + Default {
    type Col<T: Copy + Debug>: Col<T>;
}

#[derive(Clone, Debug, Default)]
pub(crate) struct Flat;

impl Store for Flat {
    type Col<T: Copy + Debug> = Vec<T>;
}

#[derive(Clone, Debug, Default)]
pub(crate) struct Paged;

impl Store for Paged {
    type Col<T: Copy + Debug> = Pages<T>;
}

/// Everything a gated pass derives from the rows of a log and nothing
/// else: read-only while passes run, so any number of them — on any
/// number of threads — can share one.
///
/// A plan grows a row at a time, in id order (`GateBuilder`):
/// a whole log feeds it every row at once, a streamed capture feeds it
/// rows as the simulator finalises them. Its size is a function of the
/// row count alone ([`GatePlan::bytes_for`]), which is what lets the
/// capture cache in `sctm-srv` charge an entry for its plan before
/// anything builds it.
#[derive(Clone, Debug, Default)]
pub struct GatePlan(Plan<Flat>);

/// The columns of a [`GatePlan`], in either [`Store`].
#[derive(Clone, Debug, Default)]
struct Plan<S: Store> {
    /// Capture-anchored local think time per message: from the gating
    /// delivery (or the previous departure, for gate-less messages) to
    /// this departure, measured on the capture timeline.
    delta: S::Col<SimTime>,
    /// Each message's successor in its source node's time-sorted
    /// departure sequence ([`NONE`]-terminated).
    next_in_order: S::Col<u32>,
    /// Heads of singly linked lists through `next`: the seeds, the
    /// chained gate-less departures, then one list per gate `g` — the
    /// departures `g`'s delivery unblocks. Every message is in exactly
    /// one list, so a row is linked in where it is settled, and no
    /// earlier row moves.
    heads: S::Col<u32>,
    /// The next message in the same list ([`NONE`]-terminated).
    next: S::Col<u32>,
    /// Each message's readiness flags as a pass starts: a whole plan's
    /// only. A streamed pass admits each row with its flags as it takes
    /// it, and reads them nowhere else.
    init: S::Col<u8>,
}

/// One departure as [`GateBuilder`] settles it: what the plan stores
/// of it, plus the two ids a pass that admits it late has to look at.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PlanRow {
    /// Arrival gate ([`NONE`] = ungated).
    gate: u32,
    /// Predecessor in its source's departure order ([`NONE`] = first).
    src_prev: u32,
    delta: SimTime,
    flags: u8,
}

impl PlanRow {
    /// The arrival gate, if any.
    pub(crate) fn gate(&self) -> Option<u32> {
        (self.gate != NONE).then_some(self.gate)
    }
}

/// The arrival-gate pairing as one merge of arrivals and departures in
/// `(time, arrivals-before-departures, id)` order, fed a message at a
/// time: [`GateBuilder::arrive`] each arrival, then
/// [`GateBuilder::depart`] each departure once every arrival at or
/// before its instant has been fed. Whoever feeds it — a whole log, or
/// a capture as it runs — gets the same rows.
#[derive(Debug, Default)]
pub(crate) struct GateBuilder {
    /// Latest arrival per node so far, and its delivery instant.
    last_arrival: Vec<(u32, SimTime)>,
    /// Latest departure per source so far, and its injection instant.
    src_last: Vec<(u32, SimTime)>,
}

impl GateBuilder {
    fn node(v: &mut Vec<(u32, SimTime)>, x: usize) -> &mut (u32, SimTime) {
        if x >= v.len() {
            v.resize(x + 1, (NONE, SimTime::ZERO));
        }
        &mut v[x]
    }

    /// Message `id` arrives at node `dst` at `at`.
    pub(crate) fn arrive(&mut self, id: u32, dst: usize, at: SimTime) {
        *Self::node(&mut self.last_arrival, dst) = (id, at);
    }

    /// Message `i` (row `r`) departs: pair it with the latest arrival
    /// at its source and chain it after the source's last departure.
    pub(crate) fn depart(&mut self, i: u32, r: &TraceRecord) -> PlanRow {
        let src = r.msg.src.idx();
        let (gate, gate_at) = *Self::node(&mut self.last_arrival, src);
        let (prev, prev_at) =
            std::mem::replace(Self::node(&mut self.src_last, src), (i, r.t_inject));
        let (anchor, flags) = match (gate, prev) {
            // A seed waits on nothing.
            (NONE, NONE) => (SimTime::ZERO, GATE_DONE | SCHEDULED),
            // A gate-less departure waits on its per-source predecessor.
            (NONE, _) => (prev_at, GATE_DONE),
            // A gated departure waits on its gate alone, not on its
            // predecessor: a node's departures may legitimately reorder
            // when the target network's latency profile differs from
            // capture (e.g. a hybrid optical design where control and
            // data planes diverge), and forcing capture order inflates
            // the timeline measurably (A1).
            _ => (gate_at, 0),
        };
        PlanRow {
            gate,
            src_prev: prev,
            delta: r.t_inject.saturating_since(anchor),
            flags,
        }
    }

    /// Feed the builder all of `log`, calling `row` with each departure
    /// and its settled row, in id order (which is departure order).
    pub(crate) fn feed_whole(&mut self, log: &TraceLog, mut row: impl FnMut(usize, PlanRow)) {
        let recs = &log.records[..];
        for v in [&mut self.last_arrival, &mut self.src_last] {
            v.clear();
            v.resize(log.nodes(), (NONE, SimTime::ZERO));
        }
        let mut arrivals = log.arrival_order().iter().peekable();
        for (i, r) in recs.iter().enumerate() {
            // An arrival at the departure's instant is seen by it.
            while let Some(&a) = arrivals.next_if(|&&a| recs[a as usize].t_deliver <= r.t_inject) {
                let ar = &recs[a as usize];
                self.arrive(a, ar.msg.dst.idx(), ar.t_deliver);
            }
            row(i, self.depart(i as u32, r));
        }
    }
}

impl<S: Store> Plan<S> {
    fn clear(&mut self) {
        self.delta.clear();
        self.next_in_order.clear();
        self.next.clear();
        self.init.clear();
        self.heads.clear();
        self.heads.grow(LISTS, NONE);
    }

    /// Make room for messages up to `n`, not yet linked; `init` is
    /// left as it is.
    fn grow(&mut self, n: usize) {
        self.delta.grow(n, SimTime::ZERO);
        self.next_in_order.grow(n, NONE);
        self.next.grow(n, NONE);
        self.heads.grow(LISTS + n, NONE);
    }

    /// Enter message `i`'s row: its delta, its place in its gate's (or
    /// a gate-less) list, and its predecessor's successor link.
    ///
    /// A streamed plan retires its pages behind the pass (DESIGN.md §7,
    /// "What the loop holds when"): a list head or predecessor that has
    /// retired is a gate that has delivered or a predecessor that has
    /// injected, which no pass walks from again, so the link is not
    /// made. (Page 0 of `heads` also holds the seed and gate-less list
    /// heads, which only a whole-log pass reads.)
    fn link(&mut self, i: usize, row: &PlanRow) {
        self.delta[i] = row.delta;
        let list = match row.gate {
            NONE if row.flags & SCHEDULED != 0 => SEEDS,
            NONE => CHAINED,
            g => LISTS + g as usize,
        };
        if !self.heads.retired(list) {
            self.next[i] = std::mem::replace(&mut self.heads[list], i as u32);
        }
        let p = row.src_prev as usize;
        if row.src_prev != NONE && !self.next_in_order.retired(p) {
            self.next_in_order[p] = i as u32;
        }
    }

    fn len(&self) -> usize {
        self.delta.len()
    }
}

impl Plan<Paged> {
    /// Retire the first `pages` pages of ids: `heads` is offset by
    /// [`LISTS`], so its page `q` holds the heads of gates on id pages
    /// `q − 1` and `q`, both retired with id page `q`.
    fn retire_to(&mut self, pages: usize) {
        self.delta.retire_to(pages);
        self.next_in_order.retire_to(pages);
        self.next.retire_to(pages);
        self.heads.retire_to(pages);
    }
}

impl GatePlan {
    /// The plan of `log` as [`replay_sctm_pass`] runs it, in vectors of
    /// exactly the size they need: the builder fed the whole log.
    pub(crate) fn of(log: &TraceLog) -> GatePlan {
        let mut plan = Plan::<Flat>::default();
        plan.clear();
        plan.grow(log.len());
        plan.init = vec![0; log.len()];
        GateBuilder::default().feed_whole(log, |i, row| {
            plan.link(i, &row);
            plan.init[i] = row.flags;
        });
        GatePlan(plan)
    }

    /// Heap bytes of the plan of a log with `rows` messages.
    pub fn bytes_for(rows: usize) -> usize {
        let (delta, init) = (rows * size_of::<SimTime>(), rows);
        // Successor column, list links (every message is in one list)
        // and the list heads: one per gate plus the two gate-less ones.
        let ids = (rows + rows + rows + LISTS) * size_of::<u32>();
        delta + init + ids
    }

    /// Heap bytes this plan holds.
    pub fn resident_bytes(&self) -> usize {
        let p = &self.0;
        p.delta.capacity() * size_of::<SimTime>()
            + size_of::<u32>()
                * (p.next_in_order.capacity() + p.heads.capacity() + p.next.capacity())
            + p.init.capacity()
    }
}

/// What a gated pass mutates, and all it has to reset.
#[derive(Debug, Default)]
struct PassState<S: Store> {
    /// Readiness flags per message, a copy of [`Plan::init`] moved
    /// forward by the pass.
    flags: S::Col<u8>,
    /// Pending injections whose time is already known, keyed by
    /// [`key`].
    heap: BinaryHeap<Reverse<u128>>,
    /// Delivery drain buffer.
    buf: Vec<Delivery>,
    /// Replay injection time per message ([`SimTime::MAX`] until it is
    /// injected). An open pass grows it as it injects, not as it takes
    /// rows, and retires its pages behind its fold front.
    inject: S::Col<SimTime>,
    /// Replay delivery time per message, read only once it has
    /// delivered ([`DELIVERED`]); grown and retired with `inject`.
    deliver: S::Col<SimTime>,
    delivered: usize,
    /// The pass injects nothing and processes no network event at or
    /// after this instant: every message it has not been given yet
    /// replays at or after it. [`SimTime::MAX`] once it has them all.
    horizon: SimTime,
    /// Fed by a capture still running: keep what the horizon is made of.
    open: bool,
    /// The capture's watermark at the last batch.
    watermark: SimTime,
    /// Per node, the latest arrival and the latest departure the pass
    /// has been given: its horizon anchors.
    last_arrival: Vec<Anchor>,
    last_departure: Vec<Anchor>,
    /// Messages delivered in the replay before their capture delivery
    /// was known, with their replay delivery: they may gate a row still
    /// to come, and an arrival taken later anchors its node at it.
    early: MsgTable<SimTime>,
    /// The same messages keyed by [`key`] on their replay delivery,
    /// earliest first; an entry whose id has left `early` is stale.
    early_order: BinaryHeap<Reverse<u128>>,
    /// The latest capture delivery, which the estimate needs and the
    /// rows no longer carry.
    last_delivery: SimTime,
    /// An open pass's messages that have arrived in the capture and
    /// delivered in the replay, by page: the rows', the plan's and
    /// `flags`' pages retire behind its front.
    done: Frontier,
    /// An open pass takes a batch short of its horizon only while it
    /// holds fewer rows than this past the done front
    /// ([`LEAD_ROWS_PER_NODE`] a node).
    lead: usize,
    /// An open pass's fold front: every message below it has delivered
    /// in the replay and been folded, in id order. The time pages retire
    /// behind it.
    folded: usize,
    /// The latest replay delivery folded.
    latest: SimTime,
}

/// A node's horizon anchor: its latest given arrival or departure
/// ([`NONE`] = none yet), that message's instant on the capture timeline,
/// and its replay delivery or injection ([`SimTime::MAX`] = not yet).
///
/// The anchor keeps its replay time so that nothing the pass reads of a
/// message it has been given can be on a retired time page: a row given
/// late is scheduled from its gate's delivery, or its predecessor's
/// injection, and either is its source's anchor or a row or arrival of
/// its own batch (DESIGN.md §7, "What the loop holds when").
#[derive(Clone, Copy, Debug)]
struct Anchor {
    id: u32,
    capture: SimTime,
    replay: SimTime,
}

impl Anchor {
    const NONE: Anchor = Anchor {
        id: NONE,
        capture: SimTime::ZERO,
        replay: SimTime::MAX,
    };
}

impl PassState<Flat> {
    /// Start a pass over a whole plan: nothing is still to come.
    fn start(&mut self, plan: &Plan<Flat>) {
        let n = plan.len();
        self.flags.clone_from(&plan.init);
        self.reset_times(n);
        self.horizon = SimTime::MAX;
        self.open = false;
        let mut i = plan.heads[SEEDS];
        while i != NONE {
            self.heap.push(Reverse(key(plan.delta[i as usize], i)));
            i = plan.next[i as usize];
        }
    }

    /// The pass's times, taken out of its columns.
    fn times(&mut self) -> (Vec<SimTime>, Vec<SimTime>) {
        (
            std::mem::take(&mut self.inject),
            std::mem::take(&mut self.deliver),
        )
    }
}

impl<S: Store> PassState<S> {
    fn reset_times(&mut self, n: usize) {
        self.inject.clear();
        self.inject.grow(n, SimTime::MAX);
        self.deliver.clear();
        self.deliver.grow(n, SimTime::ZERO);
        self.delivered = 0;
        self.heap.clear();
    }
}

impl PassState<Paged> {
    /// Start a pass that a running capture feeds, over `nodes` nodes.
    fn start_open(&mut self, nodes: usize) {
        self.flags.clear();
        self.reset_times(0);
        self.horizon = SimTime::ZERO;
        self.open = true;
        self.watermark = SimTime::ZERO;
        for v in [&mut self.last_arrival, &mut self.last_departure] {
            v.clear();
            v.resize(nodes, Anchor::NONE);
        }
        self.early = MsgTable::new();
        self.early_order.clear();
        self.last_delivery = SimTime::ZERO;
        self.done.clear();
        self.lead = LEAD_ROWS_PER_NODE * nodes;
        self.folded = 0;
        self.latest = SimTime::ZERO;
    }

    /// Whether the pass, given `rows` rows, may take a batch before it
    /// has reached its horizon: it holds fewer than its lead past the
    /// done front.
    fn may_take(&self, rows: usize) -> bool {
        rows - self.done.front() * PAGE < self.lead
    }

    /// Take one batch of a running capture: its rows join `plan`, and
    /// `rows` as what the pass reads of them ([`MsgRow`]), each admitted
    /// where a whole-log pass would have it by now; its arrivals mark
    /// their rows [`ARRIVED`]; and the horizon moves to what the batch
    /// makes safe.
    fn take(&mut self, batch: &CaptureBatch, rows: &mut Pages<MsgRow>, plan: &mut Plan<Paged>) {
        // Pages of messages done with go back before new ones are taken.
        // A message done has delivered, so the fold has passed it.
        let front = self.done.front();
        debug_assert!(self.folded >= front * PAGE, "a row retires unfolded");
        plan.retire_to(front);
        self.flags.retire_to(front);
        rows.retire_to(front);
        let lo = rows.len();
        let n = lo + batch.rows.len();
        plan.grow(n);
        self.flags.grow(n, 0);
        for ((i, r), row) in (lo..n).zip(&batch.rows).zip(&batch.plan) {
            // A row's id is its index, so the row need not keep it.
            assert_eq!(r.msg.id.0, i as u64, "a row out of canonical order");
            let src = r.msg.src.idx();
            rows.push(MsgRow::of(&r.msg));
            plan.link(i, row);
            self.admit(i, src, row);
            self.last_departure[src] = Anchor {
                id: i as u32,
                capture: r.t_inject,
                replay: SimTime::MAX,
            };
        }
        for &(at, id) in &batch.arrivals {
            let f = &mut self.flags[id as usize];
            assert!(*f & ARRIVED == 0, "message delivered twice");
            *f |= ARRIVED;
            if *f & DELIVERED != 0 {
                self.done.done(id as usize);
            }
            self.last_delivery = self.last_delivery.max(at);
            // One delivered already did so early, and `early` alone
            // still has its time.
            let replay = self.early.remove(u64::from(id)).unwrap_or(SimTime::MAX);
            self.last_arrival[usize::from(rows[id as usize].dst)] = Anchor {
                id,
                capture: at,
                replay,
            };
        }
        self.watermark = batch.watermark;
        self.horizon = self.bound();
    }

    /// Message `i`, from `src`, joins a pass that may already have run
    /// past what would have scheduled it: queue it at the time a
    /// whole-log pass would have — a seed at its capture time, a gated
    /// row once its gate has delivered, a gate-less one once its
    /// predecessor has injected.
    ///
    /// The predecessor is `src`'s latest given departure, so its anchor
    /// holds its injection.
    fn admit(&mut self, i: usize, src: usize, row: &PlanRow) {
        let mut f = row.flags;
        let at = if f & SCHEDULED != 0 {
            Some(row.delta)
        } else if row.gate != NONE {
            let g = self.gate_delivery(row.gate, src);
            (g != SimTime::MAX).then(|| {
                f |= GATE_DONE | SCHEDULED;
                g + row.delta
            })
        } else {
            let prev = self.last_departure[src];
            debug_assert_eq!(
                prev.id, row.src_prev,
                "a predecessor that is not the anchor"
            );
            (prev.replay != SimTime::MAX).then(|| {
                f |= SCHEDULED;
                prev.replay + row.delta
            })
        };
        self.flags[i] = f;
        if let Some(at) = at {
            // The horizon's promise: the pass has taken no step at or
            // after it, and no row it had not been given replays before
            // it.
            debug_assert!(
                at >= self.horizon,
                "a row given late replays before the horizon"
            );
            self.heap.push(Reverse(key(at, i as u32)));
        }
    }

    /// The replay delivery of gate `g` of a row from `src` being taken
    /// ([`SimTime::MAX`] = not yet). The gate is `src`'s latest arrival
    /// as of the last batch, its anchor, or an arrival of this batch, not
    /// yet taken: one that has delivered did so early. So its time is in
    /// the anchor or in `early`, never on a time page that may have
    /// retired; every other read is of its pages, and panics if they have.
    fn gate_delivery(&self, g: u32, src: usize) -> SimTime {
        let anchor = self.last_arrival[src];
        if anchor.id == g {
            return anchor.replay;
        }
        if let Some(&at) = self.early.get(u64::from(g)) {
            return at;
        }
        let g = g as usize;
        debug_assert!(
            self.flags[g] & ARRIVED == 0,
            "a gate that is neither its source's anchor nor in its row's batch"
        );
        if self.flags[g] & DELIVERED != 0 {
            self.deliver[g]
        } else {
            SimTime::MAX
        }
    }

    /// The horizon the rows given so far allow (DESIGN.md §7, "The loop
    /// captures and replays at once"): per node, [`after_anchor`] its
    /// latest given arrival, else its latest given departure — each
    /// bounding only once it has happened in the replay — else the
    /// watermark; and the replay delivery of every message delivered in
    /// the replay before its capture delivery was known.
    fn bound(&mut self) -> SimTime {
        let w = self.watermark;
        let mut h = SimTime::MAX;
        for (a, d) in self.last_arrival.iter().zip(&self.last_departure) {
            h = h.min(match (a.id, d.id) {
                (NONE, NONE) => w,
                (NONE, _) => after_anchor(d.replay, d.capture, w),
                _ => after_anchor(a.replay, a.capture, w),
            });
        }
        while let Some(&Reverse(k)) = self.early_order.peek() {
            if self.early.contains(key_id(k) as u64) {
                h = h.min(key_time(k));
                break;
            }
            self.early_order.pop();
        }
        h
    }

    /// The capture has ended and every row is in: nothing bounds the
    /// pass any more.
    fn close(&mut self) {
        self.open = false;
        self.horizon = SimTime::MAX;
        self.early_order.clear();
    }
}

/// The earliest a row still to come from a node can replay, given the
/// node's latest given arrival or departure — its anchor — happened at
/// `capture` on the capture timeline and at `replay` in this pass
/// ([`SimTime::MAX`] = not yet). The row's delta is measured from the
/// anchor on the capture timeline, and the row departs there at or after
/// the watermark `w`.
#[inline]
fn after_anchor(replay: SimTime, capture: SimTime, w: SimTime) -> SimTime {
    SimTime::from_ps(
        replay
            .as_ps()
            .saturating_add(w.saturating_since(capture).as_ps()),
    )
}

/// The pages a streamed pass ([`replay_sctm_stream`]) grows its plan,
/// its state and its rows in.
///
/// A row is what the pass reads of a message once it has taken it:
/// source, destination, class and payload bytes, in 8 bytes. Its id is
/// its index, and the capture's timestamps stay with the plan (deltas)
/// and the pass state (horizon anchors), so a row keeps neither.
///
/// Every column holds a window of pages, not the run: the rows, the
/// plan and the flags retire once their messages have arrived in the
/// capture and delivered in the replay, the replay times once they have
/// been folded (DESIGN.md §7, "What the loop holds when").
///
/// The self-correction loop in `sctm-core` streams a fresh same-sized
/// capture once per iteration, so it borrows one of these for the whole
/// run: everything is reset in place, so after the first pass nothing
/// of a trace's size is allocated. One instance can serve captures of
/// different sizes (capacity only ever grows).
#[derive(Debug, Default)]
pub struct ReplayScratch {
    plan: Plan<Paged>,
    pass: PassState<Paged>,
    rows: Pages<MsgRow>,
}

impl ReplayScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pages of replay times the passes run in this scratch have held
    /// at once, against pages of plan: the window of messages a pass
    /// holds between taking a row and being done with it. Only tests
    /// read these.
    #[doc(hidden)]
    pub fn pages_held(&self) -> (usize, usize) {
        (self.pass.inject.owned(), self.plan.delta.owned())
    }

    /// Whether message `i`'s page of the plan has retired.
    #[cfg(test)]
    pub(crate) fn retired(&self, i: usize) -> bool {
        self.plan.delta.retired(i)
    }

    /// Whether message `i`'s page of replay times has retired.
    #[cfg(test)]
    pub(crate) fn times_retired(&self, i: usize) -> bool {
        self.pass.inject.retired(i) && self.pass.deliver.retired(i)
    }
}

/// Classic trace-driven replay: capture timestamps, verbatim.
pub fn replay_fixed(log: &TraceLog, net: &mut dyn NetworkModel) -> ReplayResult {
    replay_fixed_budgeted(log, net, u64::MAX).expect("an unbounded budget never runs out")
}

/// [`replay_fixed`] with a hard budget on network advancement steps
/// (distinct event timestamps processed during the drain).
///
/// Classic replay is open-loop: injection times are the capture's, so a
/// detailed target past its saturation point receives traffic faster
/// than it can drain it and the replay timeline expands — in the worst
/// case by orders of magnitude, each simulated instant costing real
/// work. The budget turns that pathology into a typed result: healthy
/// replays process a small constant number of timestamps per message,
/// so a budget of, say, `200 × log.len()` never fires on a network
/// operating below saturation while still bounding a collapsed one.
///
/// `Err(spent)` reports the budget consumed before giving up; the run
/// is deterministic, so the same inputs always trip at the same step.
pub fn replay_fixed_budgeted(
    log: &TraceLog,
    net: &mut dyn NetworkModel,
    budget: u64,
) -> Result<ReplayResult, u64> {
    let n = log.len();
    let inject: Vec<SimTime> = log.records.iter().map(|r| r.t_inject).collect();
    // Ids are departure order, so `inject`'s clamping never fires.
    for r in log.records.iter() {
        net.inject(r.t_inject, r.msg);
    }
    let mut deliver = vec![SimTime::ZERO; n];
    let mut got = 0usize;
    let mut spent = 0u64;
    let mut buf = Vec::new();
    while got < n {
        let Some(t) = net.next_time() else {
            panic!(
                "replay lost messages: network quiescent with {} undelivered",
                n - got
            );
        };
        if spent >= budget {
            return Err(spent);
        }
        spent += 1;
        net.advance_until(t, &mut buf);
        for d in buf.drain(..) {
            deliver[d.msg.id.0 as usize] = d.delivered_at;
            got += 1;
        }
    }
    Ok(ReplayResult::from_times(log, inject, deliver))
}

/// Full-causality event-driven replay (accuracy ceiling).
///
/// Message *m* is injected `delta(m)` after the last of its dependencies
/// delivers in the *replay* timeline, where `delta` is the capture-time
/// local processing delay. Dependency-free messages keep their capture
/// times (their timing is network-independent by construction).
pub fn replay_oracle(log: &TraceLog, net: &mut dyn NetworkModel) -> ReplayResult {
    let n = log.len();
    // Delivery→children adjacency: the dependency lists, inverted.
    let mut children = Csr::default();
    children.invert(n, n, &mut Vec::new(), |i| log.deps(i).iter().copied());
    // delta and dependency counts from the capture timeline
    let mut delta = vec![SimTime::ZERO; n];
    let mut remaining = vec![0u32; n];
    for (i, r) in log.records.iter().enumerate() {
        let deps = log.deps(i);
        match deps
            .iter()
            .map(|&d| log.records[d as usize].t_deliver)
            .max()
        {
            None => delta[i] = r.t_inject,
            Some(enable) => {
                delta[i] = r.t_inject.saturating_since(enable);
                remaining[i] = deps.len() as u32;
            }
        }
    }
    let mut inject = vec![SimTime::MAX; n];
    // Max dependency delivery so far, per message.
    let mut ready_at = vec![SimTime::ZERO; n];
    // Pending injections we already know the time of, not yet injected.
    let mut heap: BinaryHeap<Reverse<u128>> = (0..n)
        .filter(|&i| log.deps(i).is_empty())
        .map(|i| Reverse(key(delta[i], i as u32)))
        .collect();
    let mut deliver = vec![SimTime::ZERO; n];
    let mut delivered = 0usize;
    let mut buf = Vec::new();
    while delivered < n {
        // Inject every pending message that is due at or before the
        // network's next internal event (its network effects may precede
        // that event); with an idle network, inject the earliest one to
        // re-arm it.
        while let Some(&Reverse(k)) = heap.peek() {
            let t = key_time(k);
            match net.next_time() {
                Some(h) if t > h => break,
                _ => {
                    heap.pop();
                    inject[key_id(k)] = t;
                    net.inject(t, log.records[key_id(k)].msg);
                }
            }
        }
        // Advance in whole-timestamp batches until something delivers or
        // the earliest pending injection comes due; `advance_batches`
        // keeps the exact per-batch semantics of the old caller-side
        // loop while crossing the trait boundary once per stop instead
        // of twice per event round.
        let stop = heap.peek().map(|&Reverse(k)| key_time(k));
        buf.clear();
        let nt = net.advance_batches(stop, &mut buf);
        if buf.is_empty() && nt.is_none() && heap.is_empty() {
            panic!("replay deadlocked: messages undelivered but nothing pending");
        }
        for d in buf.drain(..) {
            let id = d.msg.id.0 as usize;
            deliver[id] = d.delivered_at;
            delivered += 1;
            for &c in children.row(id) {
                let c = c as usize;
                ready_at[c] = ready_at[c].max(d.delivered_at);
                remaining[c] -= 1;
                if remaining[c] == 0 {
                    log.records[..].prefetch(c);
                    heap.push(Reverse(key(ready_at[c] + delta[c], c as u32)));
                }
            }
        }
    }
    ReplayResult::from_times(log, inject, deliver)
}

/// Start pulling the cache line that holds `at` into L1
/// ([`Msgs::prefetch`]). The one `unsafe` the workspace accepts.
#[inline]
#[allow(unsafe_code)]
fn prefetch<T>(at: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint: it never faults, even on an invalid
    // address, and has no architectural effect — and `at` is a live
    // reference besides.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((at as *const T).cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = at;
}

/// The self-correcting replay pass — how the SCTM injects a trace into
/// a target network.
///
/// Event-driven: every departure is injected `delta` after its gating
/// arrival delivers **in the replay timeline** — or, with no gate,
/// `delta` after its source's previous departure injects — so the
/// timeline corrects itself forward in time as the pass runs instead of
/// replaying stale capture timestamps. A gated departure waits on its
/// gate alone, so a node's departures reorder when the target network
/// reorders their gates. `delta` and the gating pairing come from the
/// capture timeline ([`TraceLog::arrival_gates`]).
///
/// One pass is self-consistent (injections are derived from this pass's
/// own deliveries); residual error against execution-driven simulation
/// comes from mis-paired gates, which the *outer* self-correction loop
/// in `sctm-core` attacks by correcting the capture model itself and
/// re-capturing.
pub fn replay_sctm_pass(log: &TraceLog, net: &mut dyn NetworkModel) -> ReplayResult {
    whole_pass(log, net, log.gate_plan(), &mut PassState::default())
}

/// The gated pass fed a whole log: its plan complete, its horizon
/// unbounded.
fn whole_pass(
    log: &TraceLog,
    net: &mut dyn NetworkModel,
    plan: &GatePlan,
    pass: &mut PassState<Flat>,
) -> ReplayResult {
    let plan = &plan.0;
    debug_assert_eq!(plan.len(), log.len(), "plan built for another log");
    pass.start(plan);
    let done = run_gated(&log.records[..], net, plan, pass, || false, None);
    debug_assert!(done, "an unbounded pass stops only when done");
    let (inject, deliver) = pass.times();
    ReplayResult::from_times(log, inject, deliver)
}

/// The gated pass over a capture that is still running on another
/// thread: [`replay_sctm_pass`] of the log a [`crate::Capture`] of the
/// same run would finish with, run as the capture behind `feed` hands
/// its rows over.
///
/// The pass runs up to the horizon the rows given so far allow
/// (DESIGN.md §7, "The loop captures and replays at once"): no message
/// it has not been given can replay before that instant, so the pass
/// makes the same network calls in the same order as the whole-log
/// pass, and its result is the same to the bit. While it holds fewer
/// than a fixed number of rows a node past its done front, it takes
/// every batch waiting in the feed between delivery rounds; at its
/// horizon it waits for one, and takes it however many it holds. `None`
/// when the capture side hung up before its last batch — it panicked;
/// the caller learns why from its own thread.
///
/// The result is handed over as the pass makes it: `fold` is called
/// once per message — with the message, its replay injection and its
/// replay delivery — in ascending id order, as the front of
/// contiguously delivered ids moves forward. A message's times are kept
/// only until it is folded, so what the caller reads of the pass it
/// accumulates ([`crate::fold::ReplayFold`]); what comes back is the
/// pass's size and estimate.
pub fn replay_sctm_stream(
    feed: CaptureFeed,
    net: &mut dyn NetworkModel,
    scratch: &mut ReplayScratch,
    mut fold: impl FnMut(Message, SimTime, SimTime),
) -> Option<StreamedPass> {
    let fold: &mut dyn FnMut(Message, SimTime, SimTime) = &mut fold;
    let ReplayScratch { plan, pass, rows } = scratch;
    rows.clear();
    plan.clear();
    pass.start_open(net.num_nodes());
    loop {
        let mut waiting = None;
        let poll = || {
            waiting = feed.try_recv();
            waiting.is_some()
        };
        run_gated(rows, net, plan, pass, poll, Some(&mut *fold));
        // Take the batch the pass found waiting or, at the horizon, wait
        // for one; then, within the lead, every other one already
        // waiting: the pass runs as far as all of them allow.
        let mut next = Some(match waiting {
            Some(batch) => batch,
            None => feed.recv()?,
        });
        while let Some(batch) = next {
            pass.take(&batch, rows, plan);
            if let Some(exec_time) = batch.end {
                pass.close();
                let done = run_gated(rows, net, plan, pass, || false, Some(&mut *fold));
                debug_assert!(done, "an unbounded pass stops only when done");
                debug_assert_eq!(pass.folded, rows.len(), "a message left unfolded");
                return Some(StreamedPass {
                    messages: rows.len(),
                    capture_exec_time: exec_time,
                    est_exec_time: estimate(exec_time, pass.last_delivery, pass.latest),
                });
            }
            next = if pass.may_take(rows.len()) {
                feed.try_recv()
            } else {
                None
            };
        }
    }
}

/// What a finished streamed pass hands back once it has folded every
/// message ([`replay_sctm_stream`]): how many it replayed, the capture
/// run's execution time and the replay's estimate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamedPass {
    messages: usize,
    capture_exec_time: SimTime,
    est_exec_time: SimTime,
}

impl StreamedPass {
    /// Messages replayed.
    pub fn len(&self) -> usize {
        self.messages
    }

    pub fn is_empty(&self) -> bool {
        self.messages == 0
    }

    /// The capture run's execution time ([`TraceLog::capture_exec_time`]).
    pub fn capture_exec_time(&self) -> SimTime {
        self.capture_exec_time
    }

    /// [`ReplayResult::est_exec_time`].
    pub fn est_exec_time(&self) -> SimTime {
        self.est_exec_time
    }
}

/// What a streamed pass keeps of a row: its message less the id, which
/// is the row's index. The class rides in the top bit of `bytes`
/// ([`DATA_BIT`]).
#[derive(Clone, Copy, Debug)]
struct MsgRow {
    src: u16,
    dst: u16,
    bytes: u32,
}

const _: () = assert!(size_of::<MsgRow>() == 8);

/// Set in [`MsgRow::bytes`] for a [`MsgClass::Data`] message.
const DATA_BIT: u32 = 1 << 31;

impl MsgRow {
    /// `msg` as a row. A node id or a byte count the row cannot hold
    /// panics: it would otherwise come back as another message.
    fn of(msg: &Message) -> MsgRow {
        let node = |n: NodeId| u16::try_from(n.0).expect("node id exceeds u16");
        assert!(
            msg.bytes < DATA_BIT,
            "{} bytes exceed a row's {}",
            msg.bytes,
            DATA_BIT - 1
        );
        let class = match msg.class {
            MsgClass::Control => 0,
            MsgClass::Data => DATA_BIT,
        };
        MsgRow {
            src: node(msg.src),
            dst: node(msg.dst),
            bytes: msg.bytes | class,
        }
    }

    /// The message of row `i`.
    #[inline]
    fn message(self, i: usize) -> Message {
        Message {
            id: MsgId(i as u64),
            src: NodeId(u32::from(self.src)),
            dst: NodeId(u32::from(self.dst)),
            class: if self.bytes & DATA_BIT != 0 {
                MsgClass::Data
            } else {
                MsgClass::Control
            },
            bytes: self.bytes & !DATA_BIT,
        }
    }
}

/// What a gated pass reads of a row: the message it injects.
trait Msgs {
    /// The message of row `i`.
    fn msg(&self, i: usize) -> Message;

    /// Start pulling row `i` into L1 ahead of its injection. A pass pops
    /// rows in replay order, thousands of rows from the one it touched
    /// last, so the row's load at injection missed every cache level
    /// (10.5 % of the flagship loop); a row is scheduled one heap
    /// residence before it is injected, which is time enough for the
    /// line to arrive.
    fn prefetch(&self, i: usize);
}

impl Msgs for [TraceRecord] {
    #[inline]
    fn msg(&self, i: usize) -> Message {
        self[i].msg
    }

    #[inline]
    fn prefetch(&self, i: usize) {
        prefetch(&self[i].msg);
    }
}

impl Msgs for Pages<MsgRow> {
    #[inline]
    fn msg(&self, i: usize) -> Message {
        self[i].message(i)
    }

    #[inline]
    fn prefetch(&self, i: usize) {
        prefetch(&self[i]);
    }
}

/// How many delivery rounds an open pass runs between two looks at its
/// feed. A look at an empty channel costs ≈14 ns, and the flagship pass
/// runs ≈350 000 rounds per iteration; every 64th round costs a
/// sixty-fourth of that, and still takes a batch within ≈50 µs of
/// pass time — well inside the ≈0.6 ms of capture the channel holds
/// (EXPERIMENTS.md §P40).
const POLL_ROUNDS: u32 = 64;

/// Rows a node an open pass may hold past its done front and still take
/// a batch short of its horizon. Past that it runs to its horizon first,
/// and the capture waits on its feed: a batch taken later than it could
/// have been is one taken at the horizon, so no result moves (DESIGN.md
/// §7, "What the loop holds when"). At 64 nodes that is 16 pages of
/// rows, where the flagship pass took up to 35 of its 68 pages ahead. It
/// scales with the nodes because the horizon is a minimum over them: at
/// 512 a node the 256-node loop ran slower (EXPERIMENTS.md §P49).
const LEAD_ROWS_PER_NODE: usize = 1024;

/// The gated event-driven pass over `plan` and its messages `msgs`,
/// run until every message in the plan has delivered (`true`), or
/// (`false`) until the next step would reach the pass's horizon or, in
/// an open pass within its lead ([`PassState::may_take`]), until
/// `waiting` says its capture has handed more rows over.
///
/// A step is an injection — the earliest queued one, taken when it is
/// due at or before the network's next event — or the network's next
/// event batch. Steps come in time order, and a step at or after the
/// horizon is never taken: one a row still to come might precede. An
/// open pass within its lead asks `waiting` every [`POLL_ROUNDS`]
/// delivery rounds, so that its caller takes rows while the pass is
/// still short of its horizon rather than once it is stuck there; past
/// its lead it runs to its horizon. A whole-log pass passes `|| false`,
/// and the check compiles away.
///
/// With a `fold`, each delivery round ends by folding every message
/// from the fold front on that has delivered, in id order, and retiring
/// the time pages the front has passed ([`replay_sctm_stream`]).
fn run_gated<S: Store, M: Msgs + ?Sized>(
    msgs: &M,
    net: &mut dyn NetworkModel,
    plan: &Plan<S>,
    pass: &mut PassState<S>,
    mut waiting: impl FnMut() -> bool,
    mut fold: Option<&mut dyn FnMut(Message, SimTime, SimTime)>,
) -> bool {
    let n = plan.len();
    let PassState {
        flags,
        heap,
        buf,
        inject,
        deliver,
        delivered,
        horizon,
        open,
        watermark,
        last_arrival,
        last_departure,
        early,
        early_order,
        done,
        lead,
        folded,
        latest,
        ..
    } = pass;
    let mut rounds = 0u32;
    while *delivered < n {
        while let Some(mut top) = heap.peek_mut() {
            let Reverse(k) = *top;
            let t = key_time(k);
            if t >= *horizon || net.next_time().is_some_and(|h| t > h) {
                break;
            }
            let i = key_id(k);
            if i >= inject.len() {
                // An open pass grows its times as it injects.
                inject.grow(i + 1, SimTime::MAX);
                deliver.grow(i + 1, SimTime::ZERO);
            }
            inject[i] = t;
            let msg = msgs.msg(i);
            net.inject(t, msg);
            // A row still to come may follow this one at its source,
            // from `t` on.
            if *open {
                let src = msg.src.idx();
                let d = &mut last_departure[src];
                if d.id == i as u32 {
                    d.replay = t;
                    if last_arrival[src].id == NONE {
                        *horizon = (*horizon).min(after_anchor(t, d.capture, *watermark));
                    }
                }
            }
            // Unblock the per-source successor if it waits on this
            // injection (it is gate-less and unscheduled): it takes the
            // injected row's place at the top, and the heap sifts once.
            let nx = plan.next_in_order[i];
            if nx != NONE && flags[nx as usize] & (GATE_DONE | SCHEDULED) == GATE_DONE {
                let nx = nx as usize;
                flags[nx] |= SCHEDULED;
                msgs.prefetch(nx);
                *top = Reverse(key(t + plan.delta[nx], nx as u32));
            } else {
                PeekMut::pop(top);
            }
        }
        // See `replay_oracle`: batch-advance to the next delivery or
        // pending-injection time with one trait crossing — never to the
        // horizon.
        let top = heap.peek().map(|&Reverse(k)| key_time(k));
        let stop = top.map_or(*horizon, |t| t.min(*horizon));
        buf.clear();
        let nt = net.advance_batches((stop != SimTime::MAX).then_some(stop), buf);
        if buf.is_empty() && top.is_none_or(|t| t >= *horizon) && nt.is_none_or(|t| t >= *horizon) {
            assert!(
                *horizon != SimTime::MAX,
                "gated replay deadlocked: undelivered messages but nothing pending"
            );
            return false;
        }
        for d in buf.drain(..) {
            let id = d.msg.id.0 as usize;
            let at = d.delivered_at;
            debug_assert!(at < stop, "a network event at or past the horizon");
            deliver[id] = at;
            flags[id] |= DELIVERED;
            *delivered += 1;
            // A row still to come may be gated by this delivery, from
            // `at` on: the latest arrival its destination has been
            // given, or one whose capture delivery is not known yet.
            if *open {
                if flags[id] & ARRIVED == 0 {
                    early.insert(id as u64, at);
                    early_order.push(Reverse(key(at, id as u32)));
                    *horizon = (*horizon).min(at);
                } else {
                    let a = &mut last_arrival[d.msg.dst.idx()];
                    if a.id == id as u32 {
                        a.replay = at;
                        *horizon = (*horizon).min(after_anchor(at, a.capture, *watermark));
                    }
                    done.done(id);
                }
            }
            // Its dependants wait on nothing else.
            let mut g = plan.heads[LISTS + id];
            while g != NONE {
                let gi = g as usize;
                flags[gi] |= GATE_DONE | SCHEDULED;
                msgs.prefetch(gi);
                heap.push(Reverse(key(at + plan.delta[gi], g)));
                g = plan.next[gi];
            }
        }
        if let Some(fold) = fold.as_deref_mut() {
            let from = *folded / PAGE;
            while *folded < n && flags[*folded] & DELIVERED != 0 {
                let i = *folded;
                *latest = (*latest).max(deliver[i]);
                fold(msgs.msg(i), inject[i], deliver[i]);
                *folded += 1;
            }
            if *folded / PAGE > from {
                inject.retire_to(*folded / PAGE);
                deliver.retire_to(*folded / PAGE);
            }
        }
        rounds = rounds.wrapping_add(1);
        if *open
            && rounds.is_multiple_of(POLL_ROUNDS)
            && n - done.front() * PAGE < *lead // `PassState::may_take`
            && waiting()
        {
            return false;
        }
    }
    true
}

/// Per-(src, dst, class) multiplicative correction factors derived from
/// one replay: observed replay latency divided by the capture model's
/// predicted base latency (`base_latency` is supplied by the caller —
/// typically [`sctm_engine::net::AnalyticNetwork::base_latency`]).
/// Control and data flows are corrected separately — hybrid optical
/// designs route them through entirely different planes, so one shared
/// factor would poison whichever class is in the minority.
///
/// These are what the outer self-correction loop feeds back into the
/// capture model before re-capturing.
///
/// The messages are summed in id order, a flow at a time, in the one
/// accumulator the loop folds its passes into (`fold::Corrections`), and
/// come out in (src, dst, Control-before-Data) order.
pub fn pair_corrections(
    log: &TraceLog,
    result: &ReplayResult,
    mut base_latency: impl FnMut(&Message) -> SimTime,
) -> Vec<((u32, u32, MsgClass), f64, u64)> {
    let mut acc = Corrections::default();
    for (msg, inject, deliver) in result.replayed(log) {
        acc.push(&msg, deliver.saturating_since(inject), base_latency(&msg));
    }
    acc.factors()
}

/// Estimate per-destination ejection serialisation from one replay, in
/// picoseconds per byte.
///
/// Mean-latency pair corrections cannot express a *single-reader*
/// bottleneck (an MWSR home channel serialises every writer; latency
/// depends on load, not on the pair). The fastest sustained spacing of
/// consecutive deliveries at a node reveals its service rate: we take
/// the 25th percentile of per-byte delivery gaps and report it only
/// when it shows genuine back-to-back operation (below
/// `SATURATION_THRESHOLD_PS_PER_BYTE`), so uncongested destinations are
/// left unserialised.
pub fn dst_service_estimates(log: &TraceLog, result: &ReplayResult) -> Vec<(u32, u64)> {
    const MIN_SAMPLES: usize = 48;
    const SATURATION_THRESHOLD_PS_PER_BYTE: f64 = 60.0;
    // Flat sort-then-group (by destination, then delivery time; the
    // byte count breaks simultaneous-delivery ties deterministically)
    // instead of a map of per-destination vectors.
    let mut rows: Vec<(u32, SimTime, u32)> = log
        .records
        .iter()
        .enumerate()
        .map(|(i, r)| (r.msg.dst.0, result.deliver[i], r.msg.bytes.max(1)))
        .collect();
    rows.sort_unstable();
    let mut out = Vec::new();
    let mut gaps_per_byte: Vec<f64> = Vec::new();
    let mut k = 0;
    while k < rows.len() {
        let dst = rows[k].0;
        let start = k;
        while k < rows.len() && rows[k].0 == dst {
            k += 1;
        }
        let dl = &rows[start..k];
        if dl.len() < MIN_SAMPLES {
            continue;
        }
        gaps_per_byte.clear();
        for w in dl.windows(2) {
            let gap = w[1].1.saturating_since(w[0].1).as_ps();
            // Simultaneous deliveries carry no rate signal.
            if gap != 0 {
                gaps_per_byte.push(gap as f64 / w[1].2 as f64);
            }
        }
        if gaps_per_byte.len() < MIN_SAMPLES / 2 {
            continue;
        }
        gaps_per_byte.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        let p25 = gaps_per_byte[gaps_per_byte.len() / 4];
        if p25 > 0.0 && p25 <= SATURATION_THRESHOLD_PS_PER_BYTE {
            out.push((dst, p25.round() as u64));
        }
    }
    // Groups emerge in ascending destination order already.
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::Capture;
    use sctm_cmp::{CmpConfig, CmpSim};
    use sctm_engine::net::AnalyticNetwork;
    use sctm_workloads::{build, Kernel, WorkloadParams};

    fn analytic(nodes: usize, per_hop_ns: u64) -> Box<dyn NetworkModel> {
        Box::new(AnalyticNetwork::new(
            nodes,
            SimTime::from_ns(8),
            SimTime::from_ns(per_hop_ns),
            10,
        ))
    }

    /// Capture an fft trace on a fast analytic network.
    fn capture_fft(cores: usize) -> TraceLog {
        let side = (cores as f64).sqrt() as usize;
        let w = build(Kernel::Fft, WorkloadParams::new(cores, 300, 7));
        let cfg = CmpConfig::tiled(side);
        let mut sim = CmpSim::new(cfg, analytic(cores, 2), Box::new(w));
        let mut cap = Capture::new();
        let res = sim.run(&mut cap);
        cap.finish("analytic", res.exec_time)
    }

    #[test]
    fn captured_log_is_wellformed() {
        let log = capture_fft(16);
        assert!(log.len() > 100, "only {} messages", log.len());
        assert_eq!(log.validate(), Ok(()));
    }

    #[test]
    fn fixed_replay_on_capture_network_reproduces_capture() {
        let log = capture_fft(16);
        let mut net = analytic(16, 2);
        let r = replay_fixed(&log, net.as_mut());
        // Same network, same injection times → identical deliveries
        // (the analytic network is contention-free).
        for (i, rec) in log.records.iter().enumerate() {
            assert_eq!(r.deliver[i], rec.t_deliver, "msg {i} diverged");
        }
        assert_eq!(r.est_exec_time, log.capture_exec_time);
    }

    #[test]
    fn oracle_replay_on_capture_network_reproduces_capture() {
        let log = capture_fft(16);
        let mut net = analytic(16, 2);
        let r = replay_oracle(&log, net.as_mut());
        for (i, rec) in log.records.iter().enumerate() {
            assert_eq!(
                r.deliver[i], rec.t_deliver,
                "msg {i} ({:?}) diverged: {:?} vs {:?}",
                rec.msg, r.deliver[i], rec.t_deliver
            );
        }
    }

    #[test]
    fn sctm_pass_on_capture_network_reproduces_capture() {
        // On the network the trace was captured on, the gated pass must
        // reconstruct the capture timeline exactly (gates and deltas are
        // self-consistent there).
        let log = capture_fft(16);
        let mut net = analytic(16, 2);
        let got = replay_sctm_pass(&log, net.as_mut());
        for (i, rec) in log.records.iter().enumerate() {
            assert_eq!(
                got.deliver[i], rec.t_deliver,
                "msg {i} ({:?}) diverged",
                rec.msg
            );
        }
    }

    #[test]
    fn oracle_tracks_slower_target_network() {
        // Replaying on a 3x slower network must stretch the timeline;
        // the oracle estimate should match an actual execution-driven
        // run on that network closely.
        let log = capture_fft(16);
        let mut net = analytic(16, 6);
        let r = replay_oracle(&log, net.as_mut());

        // Reference: execution-driven on the slow network.
        let w = build(Kernel::Fft, WorkloadParams::new(16, 300, 7));
        let mut sim = CmpSim::new(CmpConfig::tiled(4), analytic(16, 6), Box::new(w));
        let reference = sim.run(&mut sctm_cmp::NullHook);

        let err = (r.est_exec_time.as_ps() as f64 - reference.exec_time.as_ps() as f64).abs()
            / reference.exec_time.as_ps() as f64;
        assert!(
            err < 0.02,
            "oracle exec-time error {:.1}% (est {}, ref {})",
            err * 100.0,
            r.est_exec_time,
            reference.exec_time
        );
    }

    #[test]
    fn sctm_pass_beats_classic_on_slower_target() {
        let log = capture_fft(16);
        // Target: 3x slower per-hop latency than capture.
        let w = build(Kernel::Fft, WorkloadParams::new(16, 300, 7));
        let mut sim = CmpSim::new(CmpConfig::tiled(4), analytic(16, 6), Box::new(w));
        let reference = sim.run(&mut sctm_cmp::NullHook).exec_time.as_ps() as f64;

        let mut net = analytic(16, 6);
        let classic = replay_fixed(&log, net.as_mut()).est_exec_time.as_ps() as f64;
        let mut net = analytic(16, 6);
        let sctm = replay_sctm_pass(&log, net.as_mut()).est_exec_time.as_ps() as f64;

        let err_classic = (classic - reference).abs() / reference;
        let err_sctm = (sctm - reference).abs() / reference;
        assert!(
            err_sctm < err_classic,
            "self-correction ({:.1}%) did not beat classic ({:.1}%)",
            err_sctm * 100.0,
            err_classic * 100.0
        );
        assert!(
            err_sctm < 0.10,
            "self-correction error too large: {:.1}%",
            err_sctm * 100.0
        );
    }

    #[test]
    fn pair_corrections_detect_slowdown() {
        let log = capture_fft(16);
        // Replay on a 3x-per-hop target and derive corrections against
        // the capture model's base latency.
        let capture_model = sctm_engine::net::AnalyticNetwork::new(
            16,
            SimTime::from_ns(8),
            SimTime::from_ns(2),
            10,
        );
        let mut net = analytic(16, 6);
        let r = replay_sctm_pass(&log, net.as_mut());
        let corr = pair_corrections(&log, &r, |m| capture_model.base_latency(m));
        assert!(!corr.is_empty());
        let mean: f64 = corr.iter().map(|(_, f, _)| f).sum::<f64>() / corr.len() as f64;
        assert!(
            mean > 1.2,
            "slower target should push correction factors above 1: mean={mean:.2}"
        );
        // All factors positive and finite.
        assert!(corr.iter().all(|(_, f, _)| f.is_finite() && *f > 0.0));
        // Output is sorted by (src, dst, Control-before-Data) with
        // unique keys — the contract the correction installer relies on.
        let keys: Vec<_> = corr
            .iter()
            .map(|&((s, d, c), _, _)| (s, d, c == MsgClass::Data))
            .collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "corrections unsorted");
    }

    fn message(id: u64, src: u32, dst: u32, class: MsgClass, bytes: u32) -> Message {
        Message {
            id: MsgId(id),
            src: NodeId(src),
            dst: NodeId(dst),
            class,
            bytes,
        }
    }

    /// A streamed pass's row gives back the message it was made of at
    /// the extremes it must hold: the first and last node of the largest
    /// system, both classes, the largest payload the packing leaves.
    #[test]
    fn a_row_round_trips_a_message_at_its_extremes() {
        assert_eq!(size_of::<MsgRow>(), 8);
        let last = sctm_cmp::protocol::MAX_CORES as u32 - 1;
        let mut id = 0;
        for (src, dst) in [(0, 0), (0, last), (last, 0), (last, last)] {
            for class in [MsgClass::Control, MsgClass::Data] {
                for bytes in [0, 8, 72, DATA_BIT - 1] {
                    let msg = message(id, src, dst, class, bytes);
                    assert_eq!(MsgRow::of(&msg).message(id as usize), msg);
                    id += 1;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "node id exceeds u16")]
    fn a_row_rejects_a_node_it_cannot_hold() {
        MsgRow::of(&message(0, 0, 1 << 16, MsgClass::Control, 8));
    }

    #[test]
    #[should_panic(expected = "exceed a row")]
    fn a_row_rejects_a_payload_it_cannot_hold() {
        MsgRow::of(&message(0, 0, 1, MsgClass::Control, DATA_BIT));
    }

    #[test]
    fn replay_injects_every_message_exactly_once() {
        let log = capture_fft(16);
        let mut net = analytic(16, 3);
        let r = replay_oracle(&log, net.as_mut());
        assert_eq!(r.inject.len(), log.len());
        assert!(r.inject.iter().all(|t| *t != SimTime::MAX));
        assert!(r.deliver.iter().zip(&r.inject).all(|(d, i)| d >= i));
    }
}
