//! Trace log format and capture.
//!
//! A [`TraceLog`] is everything the trace model knows about one
//! execution-driven run: per message — endpoints, size/class, capture
//! injection & delivery times, *full* causal dependencies (which the
//! capture instrumentation can see because it lives inside the
//! full-system simulator).
//!
//! The replay engines deliberately use different *subsets* of this
//! knowledge (see `replay.rs`): the classic trace model uses only
//! timestamps; the paper's self-correction model uses timestamps + the
//! per-source order they imply + the arrival-gating heuristic; the
//! oracle replay uses the full dependency DAG. Capturing everything
//! once and down-sampling knowledge per engine is what makes the
//! accuracy comparison (experiment E3) apples-to-apples.
//!
//! A log has one row order: row `i` is the `i`-th departure by
//! `(t_inject, id)`, so a message's id is its place among departures.
//! A capture numbers its rows that way as it runs ([`Capture`],
//! [`StreamCapture`]), sctf keeps the numbering, and every replay engine
//! walks ids as departures. A log out of that order is invalid input:
//! [`TraceLog::validate`] and the sctf decoder reject it.

use crate::pages::{Frontier, Pages};
use crate::replay::{GateBuilder, GatePlan, PlanRow};
use sctm_cmp::protocol::{InjectRecord, TraceHook};
use sctm_engine::net::{Message, MsgId};
use sctm_engine::time::SimTime;
use sctm_engine::MsgTable;
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, OnceLock};

/// "No message" in every `u32` id column of this crate: a record's
/// arrival gate, a chain end.
pub const NONE: u32 = u32::MAX;

/// One message in the trace: what a replay pass reads of it, and no
/// more. Everything else the capture knows about a message lives in
/// the columns of its [`TraceLog`] (its dependency list), so that a
/// pass visiting records in *replay* order — scattered tens of
/// thousands of records from capture order at fft-64 scale — misses the
/// cache on 40 bytes, not 96.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    pub msg: Message,
    /// Capture-time injection instant.
    pub t_inject: SimTime,
    /// Capture-time delivery instant.
    pub t_deliver: SimTime,
}

const _: () = assert!(std::mem::size_of::<TraceRecord>() == 40);

/// The rows of a [`TraceLog`], readable as a slice. There is no way to
/// change a row from outside this module: the log's columns and its
/// arrival order are derived from the rows when the log is built.
#[derive(Clone, Debug)]
pub struct Rows(Vec<TraceRecord>);

impl std::ops::Deref for Rows {
    type Target = [TraceRecord];
    #[inline]
    fn deref(&self) -> &[TraceRecord] {
        &self.0
    }
}

/// The rows and the dependency lists beside them, as a constructor
/// takes them.
#[derive(Debug)]
pub(crate) struct Columns {
    pub records: Vec<TraceRecord>,
    /// `dep_ids[dep_off[i]..dep_off[i + 1]]` are record `i`'s
    /// dependencies; `n + 1` entries.
    pub dep_off: Vec<u32>,
    pub dep_ids: Vec<u32>,
}

impl Columns {
    /// No rows yet, with room for `rows` of them and `edges`
    /// dependencies.
    pub fn with_capacity(rows: usize, edges: usize) -> Self {
        let mut dep_off = Vec::with_capacity(rows + 1);
        dep_off.push(0);
        Columns {
            records: Vec::with_capacity(rows),
            dep_off,
            dep_ids: Vec::with_capacity(edges),
        }
    }
}

/// A complete captured trace.
///
/// Rows in dense id order (`MsgId(i)` ↔ `records[i]`) plus the
/// dependency lists, which only the oracle replay reads. Id order is
/// departure order: row `i` is the `i`-th departure by `(t_inject, id)`,
/// which is how a capture numbers its rows, and a log out of that order
/// is invalid ([`TraceLog::validate`]). The one other order over the
/// rows is the **arrival order** (ids by `(t_deliver, id)`), which every gated pass
/// walks to pair departures with arrivals; it is derived once when the
/// log is built. What the gated replay pass derives from the rows
/// ([`GatePlan`]) is memoised beside them on first use, for the same
/// reason the arrival order can be: rows never change once the log is
/// built, so none of it can go stale.
#[derive(Clone, Debug)]
pub struct TraceLog {
    /// Indexed by dense message id (`MsgId(i)` ↔ `records[i]`).
    pub records: Rows,
    /// Label of the network the capture ran on.
    pub capture_net: &'static str,
    /// Execution time of the capture run (set by the caller).
    pub capture_exec_time: SimTime,
    dep_off: Vec<u32>,
    dep_ids: Vec<u32>,
    /// Ids sorted by `(t_deliver, id)`.
    arrival: Vec<u32>,
    /// One past the largest node id any record names.
    nodes: usize,
    /// See [`TraceLog::gate_plan`]. Clones of the log share it.
    plan: OnceLock<Arc<GatePlan>>,
}

impl Default for TraceLog {
    fn default() -> Self {
        TraceLog::from_columns(Columns::with_capacity(0, 0), "", SimTime::ZERO, None)
    }
}

impl TraceLog {
    /// Build a log from hand-written rows: each record with its
    /// dependencies (original order). Row `i` must carry `MsgId(i)`;
    /// that, the row order and the causality rules are
    /// [`TraceLog::validate`]'s to check, so tests can build a broken log
    /// and watch it be rejected.
    #[cfg(test)]
    pub(crate) fn from_rows(
        capture_net: &'static str,
        capture_exec_time: SimTime,
        rows: impl IntoIterator<Item = (TraceRecord, Vec<MsgId>)>,
    ) -> TraceLog {
        let mut cols = Columns::with_capacity(0, 0);
        for (rec, deps) in rows {
            cols.records.push(rec);
            cols.dep_ids.extend(deps.iter().map(|&d| col_id(d)));
            cols.dep_off.push(cols.dep_ids.len() as u32);
        }
        TraceLog::from_columns(cols, capture_net, capture_exec_time, None)
    }

    /// The one place a log is assembled. `arrival` is the arrival order
    /// when the caller already has it (the capture hook saw deliveries
    /// happen); otherwise it is derived here, once.
    pub(crate) fn from_columns(
        cols: Columns,
        capture_net: &'static str,
        capture_exec_time: SimTime,
        arrival: Option<Vec<u32>>,
    ) -> TraceLog {
        let Columns {
            records,
            dep_off,
            dep_ids,
        } = cols;
        let n = records.len();
        assert!(n < NONE as usize, "trace too large for u32 ids");
        assert!(
            dep_off.len() == n + 1,
            "trace columns do not cover the rows"
        );
        assert!(
            dep_off[0] == 0 && dep_off[n] as usize == dep_ids.len(),
            "dependency offsets do not cover the arena"
        );
        let nodes = (records.iter())
            .map(|r| r.msg.src.idx().max(r.msg.dst.idx()) + 1)
            .max()
            .unwrap_or(0);
        let arrival = arrival.unwrap_or_else(|| arrival_order(&records));
        TraceLog {
            records: Rows(records),
            capture_net,
            capture_exec_time,
            dep_off,
            dep_ids,
            arrival,
            nodes,
            plan: OnceLock::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    #[inline]
    pub fn rec(&self, id: MsgId) -> &TraceRecord {
        &self.records[id.0 as usize]
    }

    /// Deliveries whose completion enabled record `i`'s injection, in
    /// the order the capture saw them.
    #[inline]
    pub fn deps(&self, i: usize) -> &[u32] {
        &self.dep_ids[self.dep_off[i] as usize..self.dep_off[i + 1] as usize]
    }

    /// Every dependency list at once: `(offsets, ids)`, record `i`'s
    /// list being `ids[offsets[i]..offsets[i + 1]]`.
    pub fn dep_csr(&self) -> (&[u32], &[u32]) {
        (&self.dep_off, &self.dep_ids)
    }

    /// Ids sorted by `(t_deliver, id)`.
    pub fn arrival_order(&self) -> &[u32] {
        &self.arrival
    }

    /// One past the largest node id any record names.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The gated pass's plan for this log, built by the first caller
    /// and read by every later one — K replays of one capture prepare
    /// once. Racing first callers block on the one that builds it.
    pub fn gate_plan(&self) -> &GatePlan {
        self.plan.get_or_init(|| Arc::new(GatePlan::of(self)))
    }

    /// Heap-resident size of this log: rows, dependency lists and the
    /// arrival order. This is what holding the parsed form in memory
    /// costs — the baseline the sctf container's residency is measured
    /// against.
    /// The memoised plan is not in it; a holder that replays the log
    /// adds [`GatePlan::bytes_for`] of its length.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.records.0.capacity() * size_of::<TraceRecord>()
            + size_of::<u32>()
                * (self.dep_off.capacity() + self.dep_ids.capacity() + self.arrival.capacity())
    }

    /// Latest capture delivery instant (used to translate replay
    /// deliveries into an execution-time estimate).
    pub fn last_delivery(&self) -> SimTime {
        self.arrival
            .last()
            .map_or(SimTime::ZERO, |&i| self.records[i as usize].t_deliver)
    }

    /// Sanity-check structural invariants; returns a human-readable
    /// error instead of panicking so property tests can assert on it.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.records.len();
        if self.dep_off.len() != n + 1 {
            return Err("columns do not cover the rows".into());
        }
        if self.dep_off[0] != 0 || self.dep_off[n] as usize != self.dep_ids.len() {
            return Err("dependency offsets do not cover the arena".into());
        }
        if self.dep_off.windows(2).any(|w| w[0] > w[1]) {
            return Err("dependency offsets not monotone".into());
        }
        // n distinct in-range ids in strictly ascending key order are
        // exactly the sorted permutation.
        let arrival = &self.arrival;
        let at = |i: u32| (self.records[i as usize].t_deliver, i);
        if arrival.len() != n
            || arrival.iter().any(|&i| i as usize >= n)
            || arrival.windows(2).any(|w| at(w[0]) >= at(w[1]))
        {
            return Err("arrival order is not the ids sorted by (t_deliver, id)".into());
        }
        for (i, r) in self.records.iter().enumerate() {
            if r.msg.id.0 as usize != i {
                return Err(format!("record {i} has id {:?}", r.msg.id));
            }
            if i > 0 && r.t_inject < self.records[i - 1].t_inject {
                return Err(format!("msg {i} injected before msg {}", i - 1));
            }
            if r.msg.src.idx() >= self.nodes || r.msg.dst.idx() >= self.nodes {
                return Err(format!("msg {i} names a node past the node bound"));
            }
            if r.t_deliver < r.t_inject {
                return Err(format!("msg {i} delivered before injection"));
            }
            for &d in self.deps(i) {
                if d as usize >= n {
                    return Err(format!("msg {i} depends on unknown {d}"));
                }
                let dep = &self.records[d as usize];
                if dep.t_deliver > r.t_inject {
                    return Err(format!(
                        "msg {i} injected at {:?} before its dep {d} delivered at {:?}",
                        r.t_inject, dep.t_deliver
                    ));
                }
            }
        }
        Ok(())
    }

    /// For each message, the id of the *most recent delivery to its
    /// source node* at or before its injection — the arrival-gating
    /// relation the self-correction model pairs departures with. `None`
    /// when the node had received nothing yet.
    ///
    /// This is exactly the knowledge a network-level trace gives you
    /// without protocol instrumentation: you can see what arrived at a
    /// node before it transmitted, but not *which* arrival caused what.
    pub fn arrival_gates(&self) -> Vec<Option<MsgId>> {
        let mut gates = vec![None; self.len()];
        GateBuilder::default().feed_whole(self, |i, row| {
            gates[i] = row.gate().map(|g| MsgId(g as u64));
        });
        gates
    }
}

/// Two logs are the same trace when their rows, dependency lists,
/// capture labels and arrival order agree. The memoised [`GatePlan`] is
/// derived from those and is not compared.
impl PartialEq for TraceLog {
    fn eq(&self, other: &Self) -> bool {
        *self.records == *other.records
            && self.capture_net == other.capture_net
            && self.capture_exec_time == other.capture_exec_time
            && self.dep_csr() == other.dep_csr()
            && self.arrival == other.arrival
    }
}

impl Eq for TraceLog {}

/// Row indices sorted by `(t_deliver, index)`. Sorts the keys
/// themselves rather than indices through the rows: an index sort pays
/// a cache miss per comparison at fft-64 scale.
fn arrival_order(records: &[TraceRecord]) -> Vec<u32> {
    let mut keyed: Vec<(SimTime, u32)> = records
        .iter()
        .enumerate()
        .map(|(i, r)| (r.t_deliver, i as u32))
        .collect();
    // (time, index) is unique per record → unstable sort is exact.
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// A message id as the `u32` the id columns hold.
fn col_id(id: MsgId) -> u32 {
    let v = u32::try_from(id.0).expect("message id exceeds the u32 id space");
    assert_ne!(v, NONE, "message id collides with the NONE sentinel");
    v
}

/// Sort distinct keys that are close to sorted already, which is how a
/// sequential capture hands them over. Its injections are *not* in time
/// order — a core fast-forwards a quantum and sends ahead of the event
/// that issued it, so a third of all rows sit before an earlier one —
/// but no row is far from its place (at fft-64 the worst is 288 rows
/// out, the mean under 10), and its deliveries are in time order up to
/// runs of equal instants. Insertion does that in one pass with a few
/// moves per key. Anything else — a hook fed by hand out of time
/// order, where a key can be half the log from its place —
/// runs out of allowance after at most `MAX_SHIFT` moves of one key
/// or `MEAN_SHIFT` per key overall and takes the full sort instead,
/// to the same answer: the keys are distinct, so there is only one.
/// The fallback is what makes the insertion pass safe on any input.
fn sort_nearly_sorted<K: Ord + Copy>(keys: &mut [K]) {
    const MAX_SHIFT: usize = 4096;
    const MEAN_SHIFT: usize = 32;
    let mut allowance = keys.len() * MEAN_SHIFT;
    for i in 1..keys.len() {
        let k = keys[i];
        let mut j = i;
        while j > 0 && keys[j - 1] > k && i - j < MAX_SHIFT {
            keys[j] = keys[j - 1];
            j -= 1;
        }
        keys[j] = k;
        let shifted = i - j;
        if shifted == MAX_SHIFT || shifted > allowance {
            keys.sort_unstable();
            return;
        }
        allowance -= shifted;
    }
}

/// How many rows a capture lets pile up past its last flush before it
/// finalises the ones the simulator can no longer precede. Small
/// enough that a streamed pass is never far behind the capture, large
/// enough that a flush's sort and hand-over cost nothing per row.
const FLUSH_ROWS: usize = 512;

/// Batches a [`StreamCapture`] may have handed over that its pass has
/// not taken yet; past that the simulator waits. The pass looks for
/// waiting batches between its delivery rounds, not only at its
/// horizon, and takes all of them, so a capture that runs ahead has its
/// rows moved into the pass's own pages within tens of microseconds
/// and rarely finds the channel full. The bound keeps rows from piling
/// up in the channel in batch form, beside the pass's copy of the log,
/// while the pass has not looked.
const FEED_BATCHES: usize = 4;

/// Capture hook: plugs into `CmpSim::run` and builds a [`TraceLog`].
///
/// The log's canonical form — rows sorted by `(t_inject, capture id)`,
/// densely renumbered, dependencies remapped, arrivals in `(t_deliver,
/// id)` order — is built as the simulator runs, not after. The
/// simulator reports its event time ([`TraceHook::on_time`]); a row
/// injected before it can no longer be preceded by one the simulator
/// has still to send, nor an arrival before it by one still to come, so
/// each flush sorts only what piled up since the last one and appends
/// it to the log under construction. A hook fed without event times —
/// by hand, in any order — flushes once, in [`Capture::finish`], to
/// the same answer: the canonical form depends only on the ids and
/// timestamps the simulator assigned, not on the order the hook saw
/// them in.
///
/// A capture needs no guess at its size. The rows and the arrival order
/// grow as vectors, which the log takes over as they are — a grown
/// vector is moved, not copied, once it is large — and `finish` trims
/// them to size. The other columns grow a page at a time (`Pages`), and
/// `finish` copies them out once the simulator is gone. Inside a
/// [`StreamCapture`] none of them grows: its pass reads none, and the
/// capture keeps only what is in flight.
#[derive(Debug)]
pub struct Capture {
    /// Injections not yet final, in capture-time ids and the order the
    /// hook saw them; every row's `t_deliver` is [`UNDELIVERED`].
    pending: Columns,
    /// Deliveries not yet final: `(instant, capture id)`.
    delivers: Vec<(SimTime, u32)>,
    /// The rows the last flush finalised, in canonical order.
    fresh: Vec<TraceRecord>,
    /// The rows of every flush before it (a [`StreamCapture`] hands
    /// `fresh` over instead).
    rows: Vec<TraceRecord>,
    /// The dependency lists of every final row in canonical ids, kept
    /// only under [`Ids::All`].
    dep_off: Pages<u32>,
    dep_ids: Pages<u32>,
    /// Canonical ids given out so far.
    given: usize,
    /// The last flush's final arrivals, `(t_deliver, canonical id)` in
    /// arrival order; how many arrivals have been final in all; and the
    /// arrival order of those joined to their rows (a [`StreamCapture`]
    /// hands `arrived` over instead).
    arrived: Vec<(SimTime, u32)>,
    arrivals: usize,
    arrival: Vec<u32>,
    /// How capture ids become canonical ids, and whether the columns
    /// above are kept.
    ids: Ids,
    /// A flush's sort keys `(t_inject, capture id, pending row)`.
    keys: Vec<(SimTime, u32, u32)>,
    /// Pending rows that trigger the next flush, and the rows past
    /// what a flush leaves pending that trigger the one after
    /// ([`FLUSH_ROWS`]; a test flushes at every event time).
    flush_at: usize,
    flush_rows: usize,
    /// The simulator's last event time: no injection comes before it.
    watermark: SimTime,
}

/// Placeholder `t_deliver` of a row whose delivery has not been joined
/// yet.
pub(crate) const UNDELIVERED: SimTime = SimTime::from_ps(u64::MAX);

/// What a capture panics with when a row names an id it never captured.
const UNCAPTURED: &str = "trace references an uncaptured message";

/// How a capture turns capture ids into canonical ids, and checks the
/// ids its rows name.
#[derive(Debug)]
enum Ids {
    /// A capture that keeps the log: every capture id's canonical id
    /// ([`NONE`] = not final yet), as its dependency lists may name any
    /// earlier message. Capture ids are sparse but bounded (`seq ×
    /// sources + src`), so a direct table turns every lookup into one
    /// probe.
    All(Pages<u32>),
    /// A [`StreamCapture`]'s, which keeps no column that names a
    /// message: only a delivery needs its row's canonical id, so only
    /// the rows final and not yet delivered map to one.
    InFlight {
        /// Capture id → canonical id of each final row not yet
        /// delivered.
        live: MsgTable<u32>,
        /// One bit per capture id, set once its row is final: what the
        /// checks on dependencies read.
        seen: Vec<u64>,
    },
}

/// Bit `i` of `bits`.
fn bit(bits: &[u64], i: u32) -> bool {
    bits.get(i as usize / 64)
        .is_some_and(|w| w >> (i % 64) & 1 == 1)
}

impl Ids {
    /// Whether final rows keep their dependency lists (a streamed pass
    /// reads none).
    fn columns(&self) -> bool {
        matches!(self, Ids::All(_))
    }

    /// The row of capture id `old` is final, as canonical id `new`.
    fn finalise(&mut self, old: u32, new: u32) {
        match self {
            Ids::All(renum) => {
                if old as usize >= renum.len() {
                    renum.resize(old as usize + 1, NONE);
                }
                renum[old as usize] = new;
            }
            Ids::InFlight { live, seen } => {
                live.insert(u64::from(old), new);
                let w = old as usize / 64;
                if w >= seen.len() {
                    seen.resize(w + 1, 0);
                }
                seen[w] |= 1 << (old % 64);
            }
        }
    }

    /// The canonical id of capture id `old` as a final row's dependency
    /// names it ([`NONE`] where no column keeps it).
    fn dep(&self, old: u32) -> u32 {
        match self {
            Ids::All(renum) => {
                let new = renum.get(old as usize).unwrap_or(NONE);
                assert_ne!(new, NONE, "{UNCAPTURED}");
                new
            }
            Ids::InFlight { seen, .. } => {
                assert!(bit(seen, old), "{UNCAPTURED}");
                NONE
            }
        }
    }

    /// The canonical id of capture id `old`, delivered: it is no longer
    /// in flight.
    fn deliver(&mut self, old: u32) -> u32 {
        match self {
            Ids::All(_) => self.dep(old),
            Ids::InFlight { live, seen } => live.remove(u64::from(old)).unwrap_or_else(|| {
                assert!(!bit(seen, old), "message delivered twice");
                panic!("{UNCAPTURED}")
            }),
        }
    }
}

impl Default for Capture {
    fn default() -> Self {
        let mut dep_off = Pages::default();
        dep_off.push(0);
        Capture {
            pending: Columns::with_capacity(0, 0),
            delivers: Vec::new(),
            fresh: Vec::new(),
            rows: Vec::new(),
            dep_off,
            dep_ids: Pages::default(),
            given: 0,
            arrived: Vec::new(),
            arrivals: 0,
            arrival: Vec::new(),
            ids: Ids::All(Pages::default()),
            keys: Vec::new(),
            flush_at: FLUSH_ROWS,
            flush_rows: FLUSH_ROWS,
            watermark: SimTime::ZERO,
        }
    }
}

impl Capture {
    pub fn new() -> Self {
        Self::default()
    }

    /// Finalise every pending row injected before `w` and every pending
    /// delivery before `w`: none still to come can sort before them.
    fn flush(&mut self, w: SimTime) {
        let Capture {
            pending,
            delivers,
            fresh,
            dep_off,
            dep_ids,
            given,
            arrived,
            arrivals,
            ids,
            keys,
            ..
        } = self;
        fresh.clear();
        arrived.clear();
        keys.clear();
        keys.extend(
            (pending.records.iter().enumerate())
                .filter(|(_, r)| r.t_inject < w)
                .map(|(k, r)| (r.t_inject, r.msg.id.0 as u32, k as u32)),
        );
        sort_nearly_sorted(keys);
        let now = &keys[..];
        // Ids first: a dependency may name a row of the same flush that
        // sorts after its dependant (only a hand-fed hook does that).
        for (j, k) in now.iter().enumerate() {
            ids.finalise(k.1, (*given + j) as u32);
        }
        for (j, k) in now.iter().enumerate() {
            let k = k.2 as usize;
            let mut r = pending.records[k];
            r.msg.id = MsgId((*given + j) as u64);
            fresh.push(r);
            let deps =
                &pending.dep_ids[pending.dep_off[k] as usize..pending.dep_off[k + 1] as usize];
            if ids.columns() {
                for &d in deps {
                    dep_ids.push(ids.dep(d));
                }
                dep_off.push(dep_ids.len() as u32);
            } else {
                deps.iter().for_each(|&d| _ = ids.dep(d));
            }
        }
        *given += now.len();
        // What stays pending closes up in place, in hook order: every
        // row and dependency moves towards the front, never past one
        // not yet read.
        let (mut kept, mut dep_end) = (0, 0);
        for k in 0..pending.records.len() {
            let (lo, hi) = (pending.dep_off[k] as usize, pending.dep_off[k + 1] as usize);
            if pending.records[k].t_inject < w {
                continue;
            }
            pending.records[kept] = pending.records[k];
            pending.dep_ids.copy_within(lo..hi, dep_end);
            dep_end += hi - lo;
            kept += 1;
            pending.dep_off[kept] = dep_end as u32;
        }
        pending.records.truncate(kept);
        pending.dep_ids.truncate(dep_end);
        pending.dep_off.truncate(kept + 1);
        // Deliveries come in time order up to runs of equal instants,
        // which the simulator reports in capture-id order.
        arrived.extend(
            (delivers.iter())
                .filter(|d| d.0 < w)
                .map(|&(at, id)| (at, ids.deliver(id))),
        );
        delivers.retain(|d| d.0 >= w);
        sort_nearly_sorted(arrived);
        *arrivals += arrived.len();
    }

    /// Keep the last flush's rows and write its arrivals into them.
    fn join(&mut self) {
        self.rows.extend_from_slice(&self.fresh);
        for &(at, id) in &self.arrived {
            let slot = &mut self.rows[id as usize].t_deliver;
            assert_eq!(*slot, UNDELIVERED, "message delivered twice");
            *slot = at;
            self.arrival.push(id);
        }
    }

    /// The stream's tail: finalise everything and check every row was
    /// delivered once.
    fn end(&mut self) {
        self.flush(SimTime::MAX);
        assert_eq!(
            self.given, self.arrivals,
            "capture ended with undelivered (or doubly-delivered) messages"
        );
    }

    /// Finish capture: finalise what is still pending, join deliveries
    /// to their rows and hand the log its arrival order. `net_label` and
    /// `exec_time` come from the run. The log holds no slack: what it is
    /// charged for ([`TraceLog::resident_bytes`]) is what it holds.
    pub fn finish(mut self, net_label: &'static str, exec_time: SimTime) -> TraceLog {
        self.end();
        self.join();
        self.rows.shrink_to_fit();
        self.arrival.shrink_to_fit();
        let cols = Columns {
            records: self.rows,
            dep_off: self.dep_off.into_vec(),
            dep_ids: self.dep_ids.into_vec(),
        };
        TraceLog::from_columns(cols, net_label, exec_time, Some(self.arrival))
    }

    fn flush_due(&mut self, now: SimTime) -> bool {
        debug_assert!(now >= self.watermark, "event time went backwards");
        self.watermark = now;
        if self.pending.records.len() < self.flush_at {
            return false;
        }
        self.flush(now);
        self.flush_at = self.pending.records.len() + self.flush_rows;
        true
    }
}

impl TraceHook for Capture {
    fn on_inject(&mut self, rec: InjectRecord<'_>) {
        debug_assert!(rec.at >= self.watermark, "injection before the event time");
        // Ids are `u32` in every column, its flush's sort key included.
        col_id(rec.msg.id);
        let raw = &mut self.pending;
        raw.records.push(TraceRecord {
            msg: rec.msg,
            t_inject: rec.at,
            t_deliver: UNDELIVERED,
        });
        raw.dep_ids.extend(rec.deps.iter().map(|&d| col_id(d)));
        raw.dep_off.push(raw.dep_ids.len() as u32);
    }

    fn on_deliver(&mut self, id: MsgId, at: SimTime) {
        self.delivers.push((at, col_id(id)));
    }

    fn on_time(&mut self, now: SimTime) {
        if self.flush_due(now) {
            self.join();
        }
    }
}

/// One flush of a [`StreamCapture`], as the pass on the other end of
/// its [`CaptureFeed`] takes it.
#[derive(Debug)]
pub(crate) struct CaptureBatch {
    /// The next canonical rows, `t_deliver` unset.
    pub rows: Vec<TraceRecord>,
    /// The next arrivals in arrival order, `(t_deliver, canonical id)`.
    pub arrivals: Vec<(SimTime, u32)>,
    /// The gate plan's row for each of `rows`.
    pub plan: Vec<PlanRow>,
    /// Every row injected, and every arrival delivered, before this
    /// instant is in this batch or an earlier one.
    pub watermark: SimTime,
    /// On the capture's last batch, the run's execution time.
    pub end: Option<SimTime>,
}

/// The receiving end of a [`StreamCapture`]: what
/// [`crate::replay::replay_sctm_stream`] consumes.
#[derive(Debug)]
pub struct CaptureFeed {
    rx: Receiver<CaptureBatch>,
}

impl CaptureFeed {
    /// The next batch, or `None` once the capture side has hung up
    /// before its last batch.
    pub(crate) fn recv(&self) -> Option<CaptureBatch> {
        self.rx.recv().ok()
    }

    /// The next batch if one is waiting.
    pub(crate) fn try_recv(&self) -> Option<CaptureBatch> {
        self.rx.try_recv().ok()
    }
}

/// A [`Capture`] that hands its rows over as it builds them: every
/// flush sends its rows, its arrivals and the gate plan's rows for them
/// to the [`CaptureFeed`] end, so a gated pass on another thread can
/// replay the capture while the simulator is still producing it. The
/// rows leave, and no log is assembled: what the capture keeps is sized
/// by what is in flight (an id map of the rows not yet delivered and a
/// window of destinations), plus one bit per capture id. It checks what
/// a [`Capture`] checks — every dependency names a captured message,
/// and every row is delivered once.
pub struct StreamCapture {
    cap: Capture,
    tx: SyncSender<CaptureBatch>,
    builder: GateBuilder,
    /// Destination of every row handed over and not yet arrived, by
    /// canonical id: all the plan needs of an arrival whose row has
    /// left. A page retires once every row on it has arrived.
    dst: Pages<u16>,
    arrived: Frontier,
    /// Final arrivals no departure handed over has passed yet.
    carry: VecDeque<(SimTime, u32)>,
}

impl StreamCapture {
    /// A capture and the feed its pass reads.
    pub fn new() -> (StreamCapture, CaptureFeed) {
        let (tx, rx) = std::sync::mpsc::sync_channel(FEED_BATCHES);
        let cap = StreamCapture {
            cap: Capture {
                ids: Ids::InFlight {
                    live: MsgTable::new(),
                    seen: Vec::new(),
                },
                ..Capture::new()
            },
            tx,
            builder: GateBuilder::default(),
            dst: Pages::default(),
            arrived: Frontier::default(),
            carry: VecDeque::new(),
        };
        (cap, CaptureFeed { rx })
    }

    /// Flush once `rows` more rows are pending, from the next event time
    /// on; a flush takes every row injected before that instant, so it
    /// never splits one. Only tests use this, to show the result does
    /// not depend on how the feed is cut.
    #[doc(hidden)]
    pub fn set_flush_rows(&mut self, rows: usize) {
        let cap = &mut self.cap;
        cap.flush_rows = rows.max(1);
        cap.flush_at = cap.pending.records.len() + cap.flush_rows;
    }

    /// Hand over what the last flush finalised, with watermark `w`;
    /// `exec_time` is the run's, on the last flush.
    fn send(&mut self, w: SimTime, exec_time: Option<SimTime>) {
        let rows = std::mem::take(&mut self.cap.fresh);
        let arrivals = std::mem::take(&mut self.cap.arrived);
        self.dst.retire_to(self.arrived.front());
        for r in &rows {
            self.dst
                .push(u16::try_from(r.msg.dst.0).expect("node id exceeds u16"));
        }
        self.carry.extend(&arrivals);
        let StreamCapture {
            builder,
            dst,
            arrived,
            carry,
            ..
        } = self;
        let plan: Vec<PlanRow> = rows
            .iter()
            .map(|r| {
                while let Some(&(at, a)) = carry.front() {
                    if at > r.t_inject {
                        break;
                    }
                    builder.arrive(a, dst[a as usize] as usize, at);
                    arrived.done(a as usize);
                    carry.pop_front();
                }
                builder.depart(r.msg.id.0 as u32, r)
            })
            .collect();
        // A send fails only once the pass has given up; the capture then
        // finishes for nothing, which costs time, not correctness.
        let _ = self.tx.send(CaptureBatch {
            rows,
            arrivals,
            plan,
            watermark: w,
            end: exec_time,
        });
    }

    /// End the capture: check it, and hand over the rest with the
    /// run's `exec_time`.
    pub fn finish(mut self, exec_time: SimTime) {
        self.cap.end();
        self.send(SimTime::MAX, Some(exec_time));
    }
}

impl TraceHook for StreamCapture {
    fn on_inject(&mut self, rec: InjectRecord<'_>) {
        self.cap.on_inject(rec);
    }

    fn on_deliver(&mut self, id: MsgId, at: SimTime) {
        self.cap.on_deliver(id, at);
    }

    fn on_time(&mut self, now: SimTime) {
        if self.cap.flush_due(now) {
            self.send(now, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sctm_engine::net::{MsgClass, NodeId};

    type Row = (TraceRecord, Vec<MsgId>);

    fn mk_rec(id: u64, src: u32, dst: u32, inj: u64, del: u64, deps: Vec<u64>) -> Row {
        let rec = TraceRecord {
            msg: Message {
                id: MsgId(id),
                src: NodeId(src),
                dst: NodeId(dst),
                class: MsgClass::Control,
                bytes: 8,
            },
            t_inject: SimTime::from_ps(inj),
            t_deliver: SimTime::from_ps(del),
        };
        (rec, deps.into_iter().map(MsgId).collect())
    }

    fn log_of(exec: u64, rows: Vec<Row>) -> TraceLog {
        TraceLog::from_rows("test", SimTime::from_ps(exec), rows)
    }

    fn tiny_rows() -> Vec<Row> {
        // 0: n0→n1 at 0..100; 1: n1→n0 at 150..250 (dep 0); 2: n0→n1 at
        // 300..400 (dep 1).
        vec![
            mk_rec(0, 0, 1, 0, 100, vec![]),
            mk_rec(1, 1, 0, 150, 250, vec![0]),
            mk_rec(2, 0, 1, 300, 400, vec![1]),
        ]
    }

    fn tiny_log() -> TraceLog {
        log_of(500, tiny_rows())
    }

    #[test]
    fn validate_accepts_wellformed() {
        assert_eq!(tiny_log().validate(), Ok(()));
        assert_eq!(TraceLog::default().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_causality_violation() {
        let mut rows = tiny_rows();
        rows[2].0.t_inject = SimTime::from_ps(200); // before dep 1 delivers at 250
        assert!(log_of(500, rows).validate().is_err());
    }

    #[test]
    fn validate_rejects_delivery_before_injection() {
        let mut rows = tiny_rows();
        rows[0].0.t_deliver = SimTime::from_ps(0);
        rows[0].0.t_inject = SimTime::from_ps(10);
        assert!(log_of(500, rows).validate().is_err());
    }

    #[test]
    fn validate_rejects_unknown_cross_references() {
        let mut rows = tiny_rows();
        rows[1].1 = vec![MsgId(7)];
        assert!(log_of(500, rows).validate().is_err());
    }

    /// No constructor can produce these, so break a built log in place:
    /// the derived orders and the dependency arena are part of what
    /// `validate` vouches for.
    #[test]
    fn validate_rejects_broken_orders_and_offsets() {
        let broken = |f: fn(&mut TraceLog)| {
            let mut log = tiny_log();
            f(&mut log);
            log.validate()
        };
        assert!(broken(|l| l.arrival.swap(0, 2)).is_err(), "unsorted");
        assert!(broken(|l| l.arrival[1] = 0).is_err(), "not a permutation");
        assert!(broken(|l| l.arrival[1] = 9).is_err(), "out of range");
        assert!(broken(|l| l.arrival.truncate(2)).is_err(), "short");
        assert!(broken(|l| l.dep_off[1] = 2).is_err(), "not monotone");
        assert!(broken(|l| l.dep_off[3] = 1).is_err(), "not covering");
        assert!(broken(|l| l.dep_off.truncate(3)).is_err(), "short column");
        assert!(broken(|l| l.nodes = 1).is_err(), "node bound");
    }

    /// Row `i` is the `i`-th departure: a log whose ids do not follow
    /// injection time is not a trace any replay engine reads, however
    /// causal its rows are one by one.
    #[test]
    fn validate_rejects_rows_out_of_departure_order() {
        let log = log_of(
            600,
            vec![
                mk_rec(0, 0, 1, 500, 600, vec![]),
                mk_rec(1, 0, 1, 100, 200, vec![]),
                mk_rec(2, 1, 0, 50, 80, vec![]),
            ],
        );
        assert_eq!(log.validate(), Err("msg 1 injected before msg 0".into()));
        // Equal instants are in order: ties go by id.
        let tied = log_of(
            600,
            vec![
                mk_rec(0, 0, 1, 100, 600, vec![]),
                mk_rec(1, 1, 0, 100, 200, vec![]),
            ],
        );
        assert_eq!(tied.validate(), Ok(()));
    }

    #[test]
    fn arrival_gates_pair_departures_with_latest_arrival() {
        let log = tiny_log();
        let gates = log.arrival_gates();
        assert_eq!(gates[0], None, "first departure had no arrivals");
        assert_eq!(gates[1], Some(MsgId(0)), "n1's reply gated by msg 0");
        assert_eq!(gates[2], Some(MsgId(1)), "n0's next gated by msg 1");
    }

    #[test]
    fn arrival_gates_tie_arrival_first() {
        // Arrival and departure at the same instant: departure sees it.
        let log = log_of(
            200,
            vec![
                mk_rec(0, 0, 1, 0, 100, vec![]),
                mk_rec(1, 1, 0, 100, 200, vec![0]),
            ],
        );
        assert_eq!(log.arrival_gates()[1], Some(MsgId(0)));
    }

    fn msg(id: u64, src: u32, dst: u32, class: MsgClass) -> Message {
        Message {
            id: MsgId(id),
            src: NodeId(src),
            dst: NodeId(dst),
            class,
            bytes: 8,
        }
    }

    fn inj(m: Message, at: u64, deps: &[MsgId]) -> InjectRecord<'_> {
        InjectRecord {
            msg: m,
            at: SimTime::from_ps(at),
            deps,
        }
    }

    #[test]
    fn capture_hook_roundtrip() {
        let mut cap = Capture::new();
        cap.on_inject(inj(msg(0, 0, 1, MsgClass::Data), 10, &[]));
        cap.on_deliver(MsgId(0), SimTime::from_ps(90));
        let log = cap.finish("emesh", SimTime::from_ps(100));
        assert_eq!(log.len(), 1);
        assert_eq!(log.rec(MsgId(0)).t_deliver, SimTime::from_ps(90));
        assert_eq!(log.capture_net, "emesh");
        assert_eq!(log.validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "delivered twice")]
    fn capture_rejects_a_double_delivery() {
        let mut cap = Capture::new();
        cap.on_inject(inj(msg(0, 0, 1, MsgClass::Control), 10, &[]));
        cap.on_inject(inj(msg(1, 1, 0, MsgClass::Control), 20, &[]));
        cap.on_deliver(MsgId(0), SimTime::from_ps(90));
        cap.on_deliver(MsgId(0), SimTime::from_ps(95));
        cap.finish("test", SimTime::from_ps(100));
    }

    /// What a capture's integrity checks catch, fed by hand.
    #[derive(Clone, Copy)]
    enum Fault {
        /// A dependency names an id never injected.
        UncapturedDep,
        /// A row never delivers.
        Undelivered,
    }

    fn feed_fault(hook: &mut dyn TraceHook, fault: Fault) {
        let c = MsgClass::Control;
        let deps = match fault {
            Fault::UncapturedDep => &[MsgId(7)][..],
            Fault::Undelivered => &[],
        };
        hook.on_inject(inj(msg(0, 0, 1, c), 10, &[]));
        hook.on_inject(inj(msg(2, 0, 1, c), 20, deps));
        hook.on_deliver(MsgId(0), SimTime::from_ps(50));
        if !matches!(fault, Fault::Undelivered) {
            hook.on_deliver(MsgId(2), SimTime::from_ps(60));
        }
    }

    fn capture_with(fault: Fault) {
        let mut cap = Capture::new();
        feed_fault(&mut cap, fault);
        cap.finish("test", SimTime::from_ps(100));
    }

    /// A streamed capture checks what a [`Capture`] does, with no pass
    /// on the other end of its feed.
    fn stream_capture_with(fault: Fault) {
        let (mut cap, feed) = StreamCapture::new();
        drop(feed);
        feed_fault(&mut cap, fault);
        cap.finish(SimTime::from_ps(100));
    }

    #[test]
    #[should_panic(expected = "trace references an uncaptured message")]
    fn capture_rejects_an_uncaptured_dependency() {
        capture_with(Fault::UncapturedDep);
    }

    #[test]
    #[should_panic(expected = "capture ended with undelivered")]
    fn capture_rejects_an_undelivered_row() {
        capture_with(Fault::Undelivered);
    }

    #[test]
    #[should_panic(expected = "trace references an uncaptured message")]
    fn stream_capture_rejects_an_uncaptured_dependency() {
        stream_capture_with(Fault::UncapturedDep);
    }

    #[test]
    #[should_panic(expected = "capture ended with undelivered")]
    fn stream_capture_rejects_an_undelivered_row() {
        stream_capture_with(Fault::Undelivered);
    }

    #[test]
    fn capture_canonicalizes_sparse_interleaved_ids() {
        // Sparse interleaved ids (seq·n + src, n = 2), fed out of time
        // order: node 0's two injections, then node 1's, and the
        // deliveries grouped by destination rather than by instant.
        let c = MsgClass::Control;
        let mut cap = Capture::new();
        cap.on_inject(inj(msg(0, 0, 1, c), 10, &[]));
        cap.on_inject(inj(msg(2, 0, 1, c), 300, &[MsgId(1)]));
        cap.on_deliver(MsgId(1), SimTime::from_ps(250));
        cap.on_inject(inj(msg(1, 1, 0, c), 150, &[MsgId(0)]));
        cap.on_deliver(MsgId(0), SimTime::from_ps(100));
        cap.on_deliver(MsgId(2), SimTime::from_ps(400));
        let log = cap.finish("test", SimTime::from_ps(500));
        assert_eq!(log.validate(), Ok(()));
        assert_eq!(log.len(), 3);
        // Canonical (t_inject, id) order here maps old ids 0,1,2 → 0,1,2.
        assert_eq!(log.rec(MsgId(1)).msg.src, NodeId(1));
        assert_eq!(log.rec(MsgId(1)).t_deliver, SimTime::from_ps(250));
        assert_eq!(log.deps(1), &[0]);
        assert_eq!(log.deps(2), &[1]);
        assert_eq!(log.arrival_order(), &[0, 1, 2]);
    }

    /// Deliveries the hook sees at one instant arrive in capture-id
    /// order, which is not canonical-id order: the tie-run sort has to
    /// put them right, and an out-of-time-order hook sequence has to
    /// come to the same answer.
    #[test]
    fn finish_orders_arrivals_by_time_then_canonical_id() {
        let c = MsgClass::Control;
        let build = |deliveries: [(u64, u64); 3]| {
            let mut cap = Capture::new();
            // Capture ids 5, 3, 4 inject at 10, 10, 20 → canonical 1, 0, 2.
            cap.on_inject(inj(msg(5, 1, 0, c), 10, &[]));
            cap.on_inject(inj(msg(3, 0, 1, c), 10, &[]));
            cap.on_inject(inj(msg(4, 0, 1, c), 20, &[]));
            for (id, at) in deliveries {
                cap.on_deliver(MsgId(id), SimTime::from_ps(at));
            }
            cap.finish("test", SimTime::from_ps(100))
        };
        let in_time_order = build([(4, 50), (5, 60), (3, 60)]);
        assert_eq!(in_time_order.arrival_order(), &[2, 0, 1]);
        assert_eq!(in_time_order.validate(), Ok(()));
        let shuffled = build([(3, 60), (4, 50), (5, 60)]);
        assert_eq!(shuffled.arrival_order(), &[2, 0, 1]);
    }

    /// The three shapes `finish` hands the sort: a sequential capture's
    /// send-ahead injections (a descent every third key, nothing far
    /// from its place, equal instants broken by id), and the two that
    /// take the fallback: two time ranges back to back (one key moves
    /// past the per-key limit) and a shuffle (many keys move a little
    /// past the mean).
    fn sort_shapes() -> [(&'static str, Vec<(SimTime, u32)>); 3] {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut rnd = move |below: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % below
        };
        // Key k is issued at event time 10·(k/3) — so three share every
        // instant, in descending id order — and every third one is sent
        // up to 20 instants ahead of the event that issued it.
        let send_ahead: Vec<(SimTime, u32)> = (0..6000u64)
            .map(|k| {
                let ahead = if k % 3 == 0 { 10 * rnd(20) } else { 0 };
                (SimTime::from_ps(10 * (k / 3) + ahead), (6000 - k) as u32)
            })
            .collect();
        let descents = send_ahead.windows(2).filter(|w| w[1] < w[0]).count();
        assert!(descents > send_ahead.len() / 4, "{descents} descents");
        let two_ranges = (0..2 * 5000u64)
            .map(|k| (SimTime::from_ps(7 * (k % 5000)), k as u32))
            .collect();
        let shuffled = (0..6000u64)
            .map(|k| (SimTime::from_ps(k + rnd(400)), k as u32))
            .collect();
        [
            ("send-ahead", send_ahead),
            ("two-ranges", two_ranges),
            ("shuffled", shuffled),
        ]
    }

    /// Each shape against the plain sort.
    #[test]
    fn nearly_sorted_insertion_matches_the_plain_sort() {
        for (shape, keys) in sort_shapes() {
            let mut want = keys.clone();
            want.sort_unstable();
            let mut got = keys;
            sort_nearly_sorted(&mut got);
            assert_eq!(got, want, "{shape}");
        }
        sort_nearly_sorted::<(SimTime, u32)>(&mut []);
    }

    /// One `on_inject` call: message, instant, dependencies.
    type Injected = (Message, SimTime, Vec<MsgId>);

    /// Every call one capture hook saw, in order, so the same capture
    /// can be fed to more than one hook.
    #[derive(Default)]
    struct Calls {
        injects: Vec<Injected>,
        delivers: Vec<(MsgId, SimTime)>,
        /// `(event time, injections so far, deliveries so far)` at each
        /// `on_time`.
        times: Vec<(SimTime, usize, usize)>,
    }

    impl TraceHook for Calls {
        fn on_inject(&mut self, rec: InjectRecord<'_>) {
            self.injects.push((rec.msg, rec.at, rec.deps.to_vec()));
        }
        fn on_deliver(&mut self, id: MsgId, at: SimTime) {
            self.delivers.push((id, at));
        }
        fn on_time(&mut self, now: SimTime) {
            let at = (now, self.injects.len(), self.delivers.len());
            self.times.push(at);
        }
    }

    impl Calls {
        /// Feed `hook` these calls: with the event times the simulator
        /// gave, or — `times` false — all injections and then all
        /// deliveries, the way a hand-fed hook sees them.
        fn feed(&self, hook: &mut dyn TraceHook, times: bool) {
            let (mut i, mut d) = (0, 0);
            let marks = if times { &self.times[..] } else { &[] };
            for &(now, to_i, to_d) in marks
                .iter()
                .chain([&(SimTime::MAX, usize::MAX, usize::MAX)])
            {
                // Within one event time injections and deliveries
                // interleave; the watermark is all a flush reads, so
                // their relative order there does not matter.
                for (m, at, deps) in &self.injects[i..to_i.min(self.injects.len())] {
                    hook.on_inject(InjectRecord {
                        msg: *m,
                        at: *at,
                        deps,
                    });
                }
                for &(id, at) in &self.delivers[d..to_d.min(self.delivers.len())] {
                    hook.on_deliver(id, at);
                }
                (i, d) = (to_i.min(self.injects.len()), to_d.min(self.delivers.len()));
                if now != SimTime::MAX {
                    hook.on_time(now);
                }
            }
        }
    }

    /// The canonical log by the plain sort: gather every row and column
    /// entry into canonical order, renumbering on the way. The
    /// reference the incremental canonicaliser is compared against.
    fn finish_by_gather(calls: &Calls, net_label: &'static str, exec_time: SimTime) -> TraceLog {
        let n = calls.injects.len();
        assert_eq!(n, calls.delivers.len());
        let mut keys: Vec<(SimTime, u64, usize)> = (calls.injects.iter().enumerate())
            .map(|(i, r)| (r.1, r.0.id.0, i))
            .collect();
        keys.sort_unstable();
        let renum: std::collections::HashMap<u64, u32> = (keys.iter().enumerate())
            .map(|(new, k)| (k.1, new as u32))
            .collect();
        let mut cols = Columns::with_capacity(0, 0);
        for (new, &(_, _, i)) in keys.iter().enumerate() {
            let (mut m, at, deps) = calls.injects[i].clone();
            m.id = MsgId(new as u64);
            cols.records.push(TraceRecord {
                msg: m,
                t_inject: at,
                t_deliver: UNDELIVERED,
            });
            cols.dep_ids.extend(deps.iter().map(|d| renum[&d.0]));
            cols.dep_off.push(cols.dep_ids.len() as u32);
        }
        let mut delivers: Vec<(SimTime, u32)> = (calls.delivers.iter())
            .map(|&(id, at)| (at, renum[&id.0]))
            .collect();
        for &(at, id) in &delivers {
            cols.records[id as usize].t_deliver = at;
        }
        delivers.sort_unstable();
        let arrival = delivers.iter().map(|d| d.1).collect();
        TraceLog::from_columns(cols, net_label, exec_time, Some(arrival))
    }

    /// The calls of a hand-fed capture that saw `keys` — `(t_inject,
    /// capture id)` — in slice order. Row k carries k % 3 dependencies
    /// and every row's endpoints and dependencies differ from its
    /// neighbours', so a row that lands in the wrong slot, or beside
    /// another row's dependency list, shows.
    fn calls_of(keys: &[(SimTime, u32)]) -> Calls {
        let mut calls = Calls::default();
        for (k, &(at, id)) in keys.iter().enumerate() {
            let deps: Vec<MsgId> = (1..=k % 3)
                .filter_map(|back| k.checked_sub(7 * back))
                .map(|j| MsgId(keys[j].1 as u64))
                .collect();
            calls.on_inject(InjectRecord {
                msg: msg(id as u64, id % 16, k as u32 % 16, MsgClass::Control),
                at,
                deps: &deps,
            });
        }
        // Deliveries in hook order too, a varying while after injection.
        for (k, &(at, id)) in keys.iter().enumerate() {
            let after = SimTime::from_ps(1 + (k as u64 * 37) % 90);
            calls.on_deliver(MsgId(id as u64), at + after);
        }
        calls
    }

    fn assert_same_log(got: &TraceLog, want: &TraceLog, what: &str) {
        assert!(got == want, "{what}: not the same trace");
        assert_eq!(got.nodes, want.nodes, "{what}: node bound");
    }

    /// A hand-fed hook (one flush, at `finish`) against the gather,
    /// column for column, over the three sort shapes, a rotation, a
    /// reversed block beside fixed points and the identity.
    #[test]
    fn one_flush_finish_matches_the_gather() {
        let at = |t: u64, id: u64| (SimTime::from_ps(t), id as u32);
        let n = 1000u64;
        let rotation = (0..n).map(|k| at((k + 300) % n, k)).collect();
        let reversed_block = (0..n)
            .map(|k| at(if (200..700).contains(&k) { 899 - k } else { k }, k))
            .collect();
        let identity = (0..n).map(|k| at(k, k)).collect();
        let shapes = sort_shapes().into_iter().chain([
            ("rotation", rotation),
            ("reversed-block", reversed_block),
            ("identity", identity),
        ]);
        for (shape, keys) in shapes {
            let exec = SimTime::from_ps(1 << 40);
            let calls = calls_of(&keys);
            let mut cap = Capture::new();
            calls.feed(&mut cap, false);
            assert_same_log(
                &cap.finish("test", exec),
                &finish_by_gather(&calls, "test", exec),
                shape,
            );
        }
    }

    /// A real capture flushes as the simulator's event time moves: the
    /// log must not depend on how often. Every event time, the default
    /// batch, and one flush at the end, against the gather.
    #[test]
    fn flush_granularity_is_invisible() {
        use sctm_cmp::{CmpConfig, CmpSim};
        use sctm_engine::net::AnalyticNetwork;
        use sctm_workloads::{build, Kernel, WorkloadParams};
        let w = build(Kernel::Fft, WorkloadParams::new(16, 300, 7));
        let net = AnalyticNetwork::new(16, SimTime::from_ns(8), SimTime::from_ns(2), 10);
        let mut calls = Calls::default();
        let exec = CmpSim::new(CmpConfig::tiled(4), Box::new(net), Box::new(w))
            .run(&mut calls)
            .exec_time;
        assert!(calls.injects.len() > 4 * FLUSH_ROWS, "too short to flush");
        let want = finish_by_gather(&calls, "analytic", exec);
        for (what, flush_rows, times) in [
            ("every event time", 1, true),
            ("default batch", FLUSH_ROWS, true),
            ("one flush", FLUSH_ROWS, false),
        ] {
            let mut cap = Capture::new();
            (cap.flush_at, cap.flush_rows) = (flush_rows, flush_rows);
            calls.feed(&mut cap, times);
            let got = cap.finish("analytic", exec);
            assert_eq!(got.validate(), Ok(()), "{what}");
            assert_same_log(&got, &want, what);
        }
    }

    /// The log that comes out of `finish` is charged (`resident_bytes`,
    /// which the capture cache budgets by) for what it holds, not for
    /// what its columns grew to.
    #[test]
    fn a_finished_capture_holds_no_slack() {
        let [(_, keys), ..] = sort_shapes();
        let mut cap = Capture::new();
        calls_of(&keys).feed(&mut cap, false);
        let log = cap.finish("test", SimTime::from_ps(1 << 40));
        let n = log.len();
        let exact = n * std::mem::size_of::<TraceRecord>() + 4 * ((n + 1) + log.dep_ids.len() + n);
        assert_eq!(log.resident_bytes(), exact);
    }

    /// Simulator events, `(instant, event)` in simulator order.
    #[derive(Clone, Copy)]
    enum Ev {
        Inject(Message),
        Deliver(u64),
    }

    /// Nodes 0 and 1 ping-pong from the start, 40 messages; `more` adds
    /// its own.
    fn ping_pong(more: &[(u64, Ev)]) -> Vec<(u64, Ev)> {
        ping_pong_of(40, more)
    }

    /// [`ping_pong`] of `n` messages.
    fn ping_pong_of(n: u64, more: &[(u64, Ev)]) -> Vec<(u64, Ev)> {
        let c = MsgClass::Control;
        let mut events = Vec::new();
        for k in 0..n {
            events.push((
                100 * k,
                Ev::Inject(msg(k, (k % 2) as u32, 1 - (k % 2) as u32, c)),
            ));
            events.push((100 * k + 60, Ev::Deliver(k)));
        }
        events.extend_from_slice(more);
        events.sort_by_key(|e| e.0);
        events
    }

    /// Capture `events` whole and streamed a flush per event time, and
    /// replay both on an analytic network 100 times slower than the
    /// capture's: the streamed pass runs far ahead of the capture, so
    /// only the horizon keeps it from passing a row still to come. The
    /// streamed pass's scratch comes back, its plan as the pass left it.
    fn assert_streamed_pass_matches_whole(events: &[(u64, Ev)]) -> crate::replay::ReplayScratch {
        use crate::replay::{replay_sctm_pass, replay_sctm_stream, ReplayScratch};
        use sctm_engine::net::AnalyticNetwork;
        let feed_all = |hook: &mut dyn TraceHook| {
            let mut now = None;
            for &(at, ev) in events {
                if now != Some(at) {
                    now = Some(at);
                    hook.on_time(SimTime::from_ps(at));
                }
                match ev {
                    Ev::Inject(m) => hook.on_inject(inj(m, at, &[])),
                    Ev::Deliver(id) => hook.on_deliver(MsgId(id), SimTime::from_ps(at)),
                }
            }
        };
        let exec = SimTime::from_ps(events.last().map_or(0, |e| e.0).max(4000) + 1000);
        let net = || AnalyticNetwork::new(4, SimTime::from_ns(8), SimTime::from_ns(2), 10);
        let mut cap = Capture::new();
        feed_all(&mut cap);
        let log = cap.finish("test", exec);
        let whole = replay_sctm_pass(&log, &mut net());
        let (mut cap, feed) = StreamCapture::new();
        cap.set_flush_rows(1);
        let mut scratch = ReplayScratch::new();
        let mut target = net();
        let mut folded = Vec::new();
        let streamed = std::thread::scope(|s| {
            let pass = s.spawn(|| {
                replay_sctm_stream(feed, &mut target, &mut scratch, |m, i, d| {
                    folded.push((m, i, d))
                })
            });
            feed_all(&mut cap);
            cap.finish(exec);
            pass.join().unwrap().expect("finished")
        });
        // Every message once, in id order, with the whole pass's times.
        let ids: Vec<u64> = folded.iter().map(|r| r.0.id.0).collect();
        assert_eq!(ids, (0..log.len() as u64).collect::<Vec<_>>());
        assert!(folded
            .iter()
            .zip(log.records.iter())
            .all(|(r, w)| r.0 == w.msg));
        let (inject, deliver): (Vec<_>, Vec<_>) = folded.iter().map(|r| (r.1, r.2)).unzip();
        assert_eq!(inject, whole.inject);
        assert_eq!(deliver, whole.deliver);
        assert_eq!(streamed.len(), log.len());
        assert_eq!(streamed.est_exec_time(), whole.est_exec_time);
        scratch
    }

    /// A streamed pass retires the pages of its plan behind it, and a
    /// row given after its gate's page, or its source predecessor's,
    /// has retired replays as the whole-log pass has it. Node 2 hears
    /// from node 3 at the start, node 3 sends nothing else, and both
    /// send again after three pages of ping-pong: node 2 gated by that
    /// first arrival, node 3 after its first departure. Until then node
    /// 2's first arrival is its horizon anchor. The capture runs at a
    /// thousandth of [`ping_pong`]'s pace, slower than the replay, so
    /// the pass keeps up with it and its pages retire as it goes.
    #[test]
    fn a_row_whose_gate_has_retired_replays_as_the_whole_pass_has_it() {
        use crate::pages::PAGE;
        let c = MsgClass::Control;
        let n = 3 * PAGE as u64;
        let end = 100 * n;
        let events = ping_pong_of(
            n,
            &[
                (0, Ev::Inject(msg(n, 3, 2, c))),
                (60, Ev::Deliver(n)),
                (end, Ev::Inject(msg(n + 1, 2, 0, c))),
                (end, Ev::Inject(msg(n + 2, 3, 1, c))),
                (end + 60, Ev::Deliver(n + 1)),
                (end + 60, Ev::Deliver(n + 2)),
            ],
        );
        let slow: Vec<(u64, Ev)> = events.into_iter().map(|(t, e)| (1000 * t, e)).collect();
        let scratch = assert_streamed_pass_matches_whole(&slow);
        assert!(
            scratch.retired(2 * PAGE - 1),
            "the pass kept its first two pages"
        );
    }

    /// A streamed pass retires its replay times behind its fold front,
    /// which runs ahead of the plan's front when a message delivers in
    /// the replay before the capture delivers it, and a row given after
    /// its gate's and its predecessor's time pages have retired replays
    /// as the whole-log pass has it. Node 3 sends X to node 2 as page 0
    /// closes; the capture holds X in flight until nodes 0 and 1 have
    /// ping-ponged three pages, while the replay, twice as fast, delivers
    /// page 0 and X long before. Then node 2 sends, gated by X's arrival
    /// in the same batch, and node 3 sends again after X: the one time
    /// the pass can read of X is the one it kept, in `early` for the
    /// gate and in node 3's anchor for the predecessor.
    #[test]
    fn a_row_whose_gate_and_predecessor_times_have_retired_replays_as_the_whole_pass_has_it() {
        use crate::pages::PAGE;
        let c = MsgClass::Control;
        let n = 3 * PAGE as u64;
        let end = 100 * n;
        let events = ping_pong_of(
            n,
            &[
                (100 * (PAGE as u64 - 2) + 50, Ev::Inject(msg(n, 3, 2, c))),
                (end, Ev::Deliver(n)),
                (end, Ev::Inject(msg(n + 1, 2, 0, c))),
                (end, Ev::Inject(msg(n + 2, 3, 1, c))),
                (end + 60, Ev::Deliver(n + 1)),
                (end + 60, Ev::Deliver(n + 2)),
            ],
        );
        let slow: Vec<(u64, Ev)> = events.into_iter().map(|(t, e)| (1000 * t, e)).collect();
        let scratch = assert_streamed_pass_matches_whole(&slow);
        // X is the last id of page 0.
        assert!(scratch.times_retired(PAGE - 1), "the pass kept X's times");
    }

    /// Until a node has sent or received anything, only the watermark
    /// bounds how far a streamed pass may run: the node's first row can
    /// be a seed at any instant from there on. Node 2 first sends at
    /// 2.5 ns, long after the replay has run past that instant on nodes
    /// 0 and 1's account.
    #[test]
    fn a_silent_node_holds_a_streamed_pass_at_the_watermark() {
        let c = MsgClass::Control;
        assert_streamed_pass_matches_whole(&ping_pong(&[
            (2500, Ev::Inject(msg(40, 2, 0, c))),
            (2560, Ev::Deliver(40)),
        ]));
    }

    /// A node that has sent but received nothing holds a streamed pass
    /// at its latest departure's replay injection, moved on by the
    /// watermark: its next row follows that departure by its capture
    /// gap. Nodes 2 and 3 send at 0 and again at 2.5 ns, with nothing
    /// else from them in between to bound the pass.
    #[test]
    fn a_node_that_has_only_sent_holds_a_streamed_pass_at_its_departure() {
        let c = MsgClass::Control;
        assert_streamed_pass_matches_whole(&ping_pong(&[
            (0, Ev::Inject(msg(40, 2, 0, c))),
            (0, Ev::Inject(msg(41, 3, 1, c))),
            (60, Ev::Deliver(40)),
            (60, Ev::Deliver(41)),
            (2500, Ev::Inject(msg(42, 2, 0, c))),
            (2500, Ev::Inject(msg(43, 3, 1, c))),
            (2560, Ev::Deliver(42)),
            (2560, Ev::Deliver(43)),
        ]));
    }

    #[test]
    fn last_delivery() {
        assert_eq!(tiny_log().last_delivery(), SimTime::from_ps(400));
        assert_eq!(TraceLog::default().last_delivery(), SimTime::ZERO);
    }
}
