//! Trace log format and capture.
//!
//! A [`TraceLog`] is everything the trace model knows about one
//! execution-driven run: per message — endpoints, size/class, capture
//! injection & delivery times, *full* causal dependencies (which the
//! capture instrumentation can see because it lives inside the
//! full-system simulator), and per-endpoint program order.
//!
//! The replay engines deliberately use different *subsets* of this
//! knowledge (see `replay.rs`): the classic trace model uses only
//! timestamps; the paper's self-correction model uses timestamps +
//! per-endpoint order + the arrival-gating heuristic; the oracle replay
//! uses the full dependency DAG. Capturing everything once and
//! down-sampling knowledge per engine is what makes the accuracy
//! comparison (experiment E3) apples-to-apples.

use crate::replay::GatePlan;
use sctm_cmp::protocol::{InjectRecord, TraceHook};
use sctm_engine::net::{Message, MsgId};
use sctm_engine::time::SimTime;
use std::sync::{Arc, OnceLock};

/// "No message" in every `u32` id column of this crate: a record's
/// previous same-source message, its arrival gate, a chain end.
pub const NONE: u32 = u32::MAX;

/// One message in the trace: what a replay pass reads of it, and no
/// more. Everything else the capture knows about a message lives in
/// the columns of its [`TraceLog`] (dependency lists, per-endpoint
/// decision order, protocol kind), so that a pass visiting records in
/// *replay* order — scattered tens of thousands of records from capture
/// order at fft-64 scale — misses the cache on 40 bytes, not 96.
#[derive(Clone, Copy, Debug)]
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

/// The rows and the per-record facts beside them, as a constructor
/// takes them.
#[derive(Debug)]
pub(crate) struct Columns {
    pub records: Vec<TraceRecord>,
    /// `dep_ids[dep_off[i]..dep_off[i + 1]]` are record `i`'s
    /// dependencies; `n + 1` entries.
    pub dep_off: Vec<u32>,
    pub dep_ids: Vec<u32>,
    /// Previous message decided by the same source ([`NONE`] = first).
    pub prev: Vec<u32>,
    /// Protocol kind tag (see [`crate::sctf::kind_label`]).
    pub kind: Vec<u8>,
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
            prev: Vec::with_capacity(rows),
            kind: Vec::with_capacity(rows),
        }
    }
}

/// A complete captured trace.
///
/// Rows in dense id order (`MsgId(i)` ↔ `records[i]`) plus flat
/// columns for what replay does not read. Two orders over the rows are
/// part of the log, derived once when it is built and true for its
/// whole life: the **arrival order** (ids by `(t_deliver, id)`), which
/// every gated pass walks to pair departures with arrivals, and the
/// **departure order** (ids by `(t_inject, id)`), which for a captured
/// log is the id order itself. What the gated replay pass derives from
/// the rows ([`GatePlan`]) is memoised beside them on first use, for the
/// same reason the orders can be: rows never change once the log is
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
    prev: Vec<u32>,
    kind: Vec<u8>,
    /// Ids sorted by `(t_deliver, id)`.
    arrival: Vec<u32>,
    /// Ids sorted by `(t_inject, id)`; empty when that is `0..n`, as
    /// it is for every log out of [`Capture::finish`].
    departure: Vec<u32>,
    /// One past the largest node id any record names.
    nodes: usize,
    /// See [`TraceLog::gate_plan`]. Clones of the log share it.
    plan: OnceLock<Arc<GatePlan>>,
}

impl Default for TraceLog {
    fn default() -> Self {
        TraceLog::from_rows("", SimTime::ZERO, [])
    }
}

impl TraceLog {
    /// Build a log from hand-written rows: each record with its
    /// dependencies (original order) and the previous message its
    /// source decided, if any. Row `i` must carry `MsgId(i)`; that and
    /// the causality rules are [`TraceLog::validate`]'s to check, so
    /// tests can build a broken log and watch it be rejected. Protocol
    /// kind is `other` throughout.
    pub fn from_rows(
        capture_net: &'static str,
        capture_exec_time: SimTime,
        rows: impl IntoIterator<Item = (TraceRecord, Vec<MsgId>, Option<MsgId>)>,
    ) -> TraceLog {
        let mut cols = Columns::with_capacity(0, 0);
        for (rec, deps, prev) in rows {
            cols.records.push(rec);
            cols.dep_ids.extend(deps.iter().map(|&d| col_id(d)));
            cols.dep_off.push(cols.dep_ids.len() as u32);
            cols.prev.push(prev.map_or(NONE, col_id));
            cols.kind.push(crate::sctf::KIND_OTHER);
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
            prev,
            kind,
        } = cols;
        let n = records.len();
        assert!(n < NONE as usize, "trace too large for u32 ids");
        assert!(
            dep_off.len() == n + 1 && prev.len() == n && kind.len() == n,
            "trace columns do not cover the rows"
        );
        assert!(
            dep_off[0] == 0 && dep_off[n] as usize == dep_ids.len(),
            "dependency offsets do not cover the arena"
        );
        let mut nodes = 0usize;
        let mut canonical = true;
        let mut last = SimTime::ZERO;
        for r in &records {
            nodes = nodes.max(r.msg.src.idx() + 1).max(r.msg.dst.idx() + 1);
            canonical &= last <= r.t_inject;
            last = r.t_inject;
        }
        let arrival = arrival.unwrap_or_else(|| ids_by_time(&records, |r| r.t_deliver));
        let departure = if canonical {
            Vec::new()
        } else {
            ids_by_time(&records, |r| r.t_inject)
        };
        TraceLog {
            records: Rows(records),
            capture_net,
            capture_exec_time,
            dep_off,
            dep_ids,
            prev,
            kind,
            arrival,
            departure,
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

    /// Previous message *decided* by record `i`'s source node. This is
    /// decision order, not timestamp order — a node can commit to a
    /// far-future send (a memory response) before deciding a nearer
    /// one — so replay engines use the time-sorted per-source chains
    /// instead.
    #[inline]
    pub fn prev_same_src(&self, i: usize) -> Option<MsgId> {
        match self.prev[i] {
            NONE => None,
            p => Some(MsgId(p as u64)),
        }
    }

    /// The [`TraceLog::prev_same_src`] column ([`NONE`] = none).
    pub fn prev_column(&self) -> &[u32] {
        &self.prev
    }

    /// Protocol kind label of record `i` (diagnostics only).
    #[inline]
    pub fn kind(&self, i: usize) -> &'static str {
        crate::sctf::kind_label(self.kind[i])
    }

    /// The kind-tag column behind [`TraceLog::kind`].
    pub fn kind_tags(&self) -> &[u8] {
        &self.kind
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

    /// Heap-resident size of this log: rows, columns and the two
    /// orders. This is what holding the parsed form in memory costs —
    /// the baseline the sctf container's residency is measured against.
    /// The memoised plan is not in it; a holder that replays the log
    /// adds [`GatePlan::bytes_for`] of its length.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.records.0.capacity() * size_of::<TraceRecord>()
            + size_of::<u32>()
                * (self.dep_off.capacity()
                    + self.dep_ids.capacity()
                    + self.prev.capacity()
                    + self.arrival.capacity()
                    + self.departure.capacity())
            + self.kind.capacity()
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
        if self.dep_off.len() != n + 1 || self.prev.len() != n || self.kind.len() != n {
            return Err("columns do not cover the rows".into());
        }
        if self.dep_off[0] != 0 || self.dep_off[n] as usize != self.dep_ids.len() {
            return Err("dependency offsets do not cover the arena".into());
        }
        if self.dep_off.windows(2).any(|w| w[0] > w[1]) {
            return Err("dependency offsets not monotone".into());
        }
        let sorted_permutation = |order: &[u32], time: fn(&TraceRecord) -> SimTime| {
            // n distinct in-range ids in strictly ascending key order
            // are exactly the sorted permutation.
            order.len() == n
                && order.iter().all(|&i| (i as usize) < n)
                && order.windows(2).all(|w| {
                    (time(&self.records[w[0] as usize]), w[0])
                        < (time(&self.records[w[1] as usize]), w[1])
                })
        };
        if !sorted_permutation(&self.arrival, |r| r.t_deliver) {
            return Err("arrival order is not the ids sorted by (t_deliver, id)".into());
        }
        let in_id_order = self
            .records
            .windows(2)
            .all(|w| w[0].t_inject <= w[1].t_inject);
        if in_id_order != self.departure.is_empty()
            || !(in_id_order || sorted_permutation(&self.departure, |r| r.t_inject))
        {
            return Err("departure order is not the ids sorted by (t_inject, id)".into());
        }
        for (i, r) in self.records.iter().enumerate() {
            if r.msg.id.0 as usize != i {
                return Err(format!("record {i} has id {:?}", r.msg.id));
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
            if let Some(p) = self.prev_same_src(i) {
                if p.0 as usize >= n {
                    return Err(format!("msg {i} prev_same_src is unknown {p:?}"));
                }
                if self.rec(p).msg.src != r.msg.src {
                    return Err(format!("msg {i} prev_same_src from a different node"));
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
        let mut gates = Vec::new();
        self.arrival_gates_into(&mut gates, &mut Vec::new());
        gates
            .into_iter()
            .map(|g| (g != NONE).then_some(MsgId(g as u64)))
            .collect()
    }

    /// [`TraceLog::arrival_gates`] as a `u32` column ([`NONE`] =
    /// ungated) written into caller-owned buffers, so a replay loop can
    /// recompute the gating every pass without allocating.
    /// `last_arrival` is pure scratch; both buffers are cleared and
    /// resized here.
    ///
    /// The conceptual event order is `(time, arrivals-before-departures,
    /// id)`: one merge of the log's arrival order with its departure
    /// order, both of which the log already carries.
    pub fn arrival_gates_into(&self, gates: &mut Vec<u32>, last_arrival: &mut Vec<u32>) {
        let recs = &self.records[..];
        last_arrival.clear();
        last_arrival.resize(self.nodes, NONE);
        gates.clear();
        gates.resize(recs.len(), NONE);
        let mut pending = self.arrival.iter().peekable();
        let mut gate = |di: usize| {
            let r = &recs[di];
            // An arrival at the departure's instant is seen by it.
            while let Some(&a) = pending.next_if(|&&a| recs[a as usize].t_deliver <= r.t_inject) {
                last_arrival[recs[a as usize].msg.dst.idx()] = a;
            }
            gates[di] = last_arrival[r.msg.src.idx()];
        };
        self.for_each_departure(&mut gate);
    }

    /// Visit every record index in `(t_inject, id)` order.
    pub(crate) fn for_each_departure(&self, f: &mut impl FnMut(usize)) {
        if self.departure.is_empty() {
            (0..self.records.len()).for_each(f);
        } else {
            self.departure.iter().for_each(|&i| f(i as usize));
        }
    }

    /// Message ids grouped by source node, in injection order.
    pub fn per_source_order(&self) -> Vec<Vec<MsgId>> {
        let mut order: Vec<Vec<MsgId>> = vec![Vec::new(); self.nodes];
        self.for_each_departure(&mut |i| {
            order[self.records[i].msg.src.idx()].push(MsgId(i as u64));
        });
        order
    }
}

/// Row indices sorted by `(time, index)`. Sorts the keys themselves
/// rather than indices through the rows: an index sort pays a cache
/// miss per comparison at fft-64 scale.
fn ids_by_time(records: &[TraceRecord], time: impl Fn(&TraceRecord) -> SimTime) -> Vec<u32> {
    let mut keyed: Vec<(SimTime, u32)> = records
        .iter()
        .enumerate()
        .map(|(i, r)| (time(r), i as u32))
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

/// Capture hook: plugs into `CmpSim::run` and builds a [`TraceLog`].
///
/// The hook records raw injections and deliveries exactly as it sees
/// them, already in the shape the log keeps — 40-byte rows, one
/// dependency arena, flat columns — so a capture makes no allocation
/// per message. [`Capture::finish`] canonicalizes afterwards: records
/// sorted by `(t_inject, capture id)`, densely renumbered, deps/prev
/// remapped. The canonical form depends only on the ids and timestamps
/// the simulator assigned, not on the order the hook saw the rows in.
#[derive(Debug)]
pub struct Capture {
    /// What the hook has seen injected, in the order it saw it and in
    /// capture-time ids; every row's `t_deliver` is still
    /// [`UNDELIVERED`].
    raw: Columns,
    /// Raw `(delivery instant, capture message id)` pairs in the order
    /// this hook observed the deliveries.
    delivers: Vec<(SimTime, u32)>,
    /// Largest capture-time id seen, so `finish` can size its
    /// direct-index table without rescanning every row.
    max_id: u32,
}

/// Placeholder `t_deliver` of a row whose delivery `finish` has not
/// joined yet.
const UNDELIVERED: SimTime = SimTime::from_ps(u64::MAX);

impl Default for Capture {
    fn default() -> Self {
        Capture::with_capacity(0)
    }
}

impl Capture {
    pub fn new() -> Self {
        Self::default()
    }

    /// A capture with its buffers pre-sized for roughly `msgs`
    /// messages. Captures at fft-64 scale retain ~15MB, and growing
    /// there by doubling re-copies the lot — callers that can estimate
    /// the message count (from the workload size, or from the previous
    /// self-correction iteration's trace) should.
    pub fn with_capacity(msgs: usize) -> Self {
        Capture {
            // Coherence traffic carries between one and two
            // dependencies per message.
            raw: Columns::with_capacity(msgs, msgs * 2),
            delivers: Vec::with_capacity(msgs),
            max_id: 0,
        }
    }

    /// Finish capture: sort into the canonical `(t_inject, capture id)`
    /// order, renumber densely, remap all cross-references, join
    /// injections with deliveries, and hand the log its arrival order.
    /// `net_label` and `exec_time` come from the run.
    ///
    /// The hook's buffers become the log's: rows and the fixed-size
    /// columns are permuted where they lie and only the dependency arena
    /// is written a second time, so finishing never holds two copies of
    /// a trace (DESIGN.md §7).
    pub fn finish(self, net_label: &'static str, exec_time: SimTime) -> TraceLog {
        let Capture {
            raw:
                Columns {
                    records: mut rows,
                    dep_off: raw_off,
                    dep_ids: raw_ids,
                    mut prev,
                    mut kind,
                },
            mut delivers,
            max_id,
        } = self;
        let n = rows.len();
        assert_eq!(
            n,
            delivers.len(),
            "capture ended with undelivered (or doubly-delivered) messages"
        );
        assert!(
            n < NONE as usize && raw_ids.len() < NONE as usize,
            "trace too large to renumber"
        );
        // Map capture-time ids (unique but sparse — the simulator
        // interleaves them per source, `seq × sources + src`) to
        // canonical dense ids. Sparsity is bounded — the largest id is
        // below `sources × (max per-source count + 1)` — so a direct
        // index table is affordable and turns every dep/deliver lookup
        // into one O(1) probe instead of a cache-hostile binary search
        // (which dominated capture wall time at ~300k messages).
        let mut renum_tbl = vec![NONE; max_id as usize + 1];
        // Which raw row lands in each canonical slot: the permutation
        // everything below moves by.
        let mut idx: Vec<u32> = Vec::with_capacity(n);
        {
            // Canonical order is (t_inject, capture id). Sort the keys
            // themselves, each carrying its row — an index sort through
            // the rows pays a cache miss per comparison at fft-64
            // scale. The 16-byte keys are gone before anything else is
            // allocated.
            let mut keys: Vec<(SimTime, u32, u32)> = rows
                .iter()
                .enumerate()
                .map(|(i, r)| (r.t_inject, r.msg.id.0 as u32, i as u32))
                .collect();
            sort_nearly_sorted(&mut keys);
            for (new, &(_, id, i)) in keys.iter().enumerate() {
                renum_tbl[id as usize] = new as u32;
                idx.push(i);
            }
        }
        let renum = |old: u32| -> u32 {
            let new = renum_tbl.get(old as usize).copied().unwrap_or(NONE);
            assert_ne!(new, NONE, "trace references an uncaptured message");
            new
        };
        // The dependency lists are variable-length, so they cannot move
        // within their own arena: a second arena is written in canonical
        // order, renumbered on the way, and the raw one is freed.
        let mut dep_off = Vec::with_capacity(n + 1);
        let mut dep_ids = Vec::with_capacity(raw_ids.len());
        dep_off.push(0);
        for &i in &idx {
            let i = i as usize;
            let deps = &raw_ids[raw_off[i] as usize..raw_off[i + 1] as usize];
            dep_ids.extend(deps.iter().map(|&d| renum(d)));
            dep_off.push(dep_ids.len() as u32);
        }
        drop((raw_off, raw_ids));
        // Everything fixed-size moves in place: each cycle of the
        // permutation `idx[new] = old` is walked once, so every row is
        // written once and no second set of columns ever exists.
        // `idx[slot] == slot` marks a slot that holds its final row.
        for start in 0..n {
            if idx[start] as usize == start {
                continue;
            }
            let held = (rows[start], prev[start], kind[start]);
            let mut cur = start;
            loop {
                let from = idx[cur] as usize;
                idx[cur] = cur as u32;
                if from == start {
                    (rows[cur], prev[cur], kind[cur]) = held;
                    break;
                }
                (rows[cur], prev[cur], kind[cur]) = (rows[from], prev[from], kind[from]);
                cur = from;
            }
        }
        for (new, (r, p)) in rows.iter_mut().zip(prev.iter_mut()).enumerate() {
            r.msg.id = MsgId(new as u64);
            if *p != NONE {
                *p = renum(*p);
            }
        }
        // Join deliveries, renumbering them in place. n deliveries each
        // landing on a row still undelivered leave none without one.
        for d in delivers.iter_mut() {
            d.1 = renum(d.1);
            let slot = &mut rows[d.1 as usize].t_deliver;
            assert_eq!(*slot, UNDELIVERED, "message delivered twice");
            *slot = d.0;
        }
        // The hook saw the deliveries happen, so the arrival order is
        // theirs — up to ties, which it saw in capture-id order.
        sort_nearly_sorted(&mut delivers);
        let arrival = delivers.iter().map(|d| d.1).collect();
        // The hook sized its buffers from an estimate; the log keeps
        // what it uses.
        rows.shrink_to_fit();
        prev.shrink_to_fit();
        kind.shrink_to_fit();
        let cols = Columns {
            records: rows,
            dep_off,
            dep_ids,
            prev,
            kind,
        };
        TraceLog::from_columns(cols, net_label, exec_time, Some(arrival))
    }
}

impl TraceHook for Capture {
    fn on_inject(&mut self, rec: InjectRecord<'_>) {
        let id = col_id(rec.msg.id);
        self.max_id = self.max_id.max(id);
        let raw = &mut self.raw;
        raw.records.push(TraceRecord {
            msg: rec.msg,
            t_inject: rec.at,
            t_deliver: UNDELIVERED,
        });
        raw.dep_ids.extend(rec.deps.iter().map(|&d| col_id(d)));
        raw.dep_off.push(raw.dep_ids.len() as u32);
        raw.prev.push(rec.prev_same_src.map_or(NONE, col_id));
        raw.kind.push(crate::sctf::kind_tag(rec.kind));
    }

    fn on_deliver(&mut self, id: MsgId, at: SimTime) {
        self.delivers.push((at, col_id(id)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sctm_engine::net::{MsgClass, NodeId};

    type Row = (TraceRecord, Vec<MsgId>, Option<MsgId>);

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
        (rec, deps.into_iter().map(MsgId).collect(), None)
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
        let mut rows = tiny_rows();
        rows[1].2 = Some(MsgId(7));
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
        assert!(
            broken(|l| l.departure = vec![0, 1, 2]).is_err(),
            "redundant"
        );
        assert!(broken(|l| l.dep_off[1] = 2).is_err(), "not monotone");
        assert!(broken(|l| l.dep_off[3] = 1).is_err(), "not covering");
        assert!(broken(|l| l.prev.truncate(2)).is_err(), "short column");
        assert!(broken(|l| l.nodes = 1).is_err(), "node bound");
        // A log out of id order must carry its departure order.
        let mut log = log_of(
            600,
            vec![
                mk_rec(0, 0, 1, 500, 600, vec![]),
                mk_rec(1, 0, 1, 100, 200, vec![]),
            ],
        );
        assert_eq!(log.validate(), Ok(()));
        assert_eq!(log.departure, vec![1, 0]);
        log.departure.clear();
        assert!(log.validate().is_err());
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

    #[test]
    fn per_source_order_sorted_by_injection() {
        let log = log_of(
            600,
            vec![
                mk_rec(0, 0, 1, 500, 600, vec![]),
                mk_rec(1, 0, 1, 100, 200, vec![]),
                mk_rec(2, 1, 0, 50, 80, vec![]),
            ],
        );
        let order = log.per_source_order();
        assert_eq!(order[0], vec![MsgId(1), MsgId(0)]);
        assert_eq!(order[1], vec![MsgId(2)]);
        // Out of id order, so the gating walks the stored departure
        // order: msg 1 leaves n0 at 100 having seen msg 2 arrive at 80.
        assert_eq!(log.arrival_order(), &[2, 1, 0]);
        assert_eq!(
            log.arrival_gates(),
            vec![Some(MsgId(2)), Some(MsgId(2)), None]
        );
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

    fn inj(m: Message, at: u64, deps: &[MsgId], prev: Option<u64>) -> InjectRecord<'_> {
        InjectRecord {
            msg: m,
            at: SimTime::from_ps(at),
            deps,
            prev_same_src: prev.map(MsgId),
            kind: "GetS",
        }
    }

    #[test]
    fn capture_hook_roundtrip() {
        let mut cap = Capture::new();
        cap.on_inject(inj(msg(0, 0, 1, MsgClass::Data), 10, &[], None));
        cap.on_deliver(MsgId(0), SimTime::from_ps(90));
        let log = cap.finish("emesh", SimTime::from_ps(100));
        assert_eq!(log.len(), 1);
        assert_eq!(log.rec(MsgId(0)).t_deliver, SimTime::from_ps(90));
        assert_eq!(log.capture_net, "emesh");
        assert_eq!(log.kind(0), "GetS");
        assert_eq!(log.validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "delivered twice")]
    fn capture_rejects_a_double_delivery() {
        let mut cap = Capture::new();
        cap.on_inject(inj(msg(0, 0, 1, MsgClass::Control), 10, &[], None));
        cap.on_inject(inj(msg(1, 1, 0, MsgClass::Control), 20, &[], None));
        cap.on_deliver(MsgId(0), SimTime::from_ps(90));
        cap.on_deliver(MsgId(0), SimTime::from_ps(95));
        cap.finish("test", SimTime::from_ps(100));
    }

    #[test]
    fn capture_canonicalizes_sparse_interleaved_ids() {
        // Sparse interleaved ids (seq·n + src, n = 2), fed out of time
        // order: node 0's two injections, then node 1's, and the
        // deliveries grouped by destination rather than by instant.
        let c = MsgClass::Control;
        let mut cap = Capture::new();
        cap.on_inject(inj(msg(0, 0, 1, c), 10, &[], None));
        cap.on_inject(inj(msg(2, 0, 1, c), 300, &[MsgId(1)], Some(0)));
        cap.on_deliver(MsgId(1), SimTime::from_ps(250));
        cap.on_inject(inj(msg(1, 1, 0, c), 150, &[MsgId(0)], None));
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
        assert_eq!(log.prev_same_src(2), Some(MsgId(0)));
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
            cap.on_inject(inj(msg(5, 1, 0, c), 10, &[], None));
            cap.on_inject(inj(msg(3, 0, 1, c), 10, &[], None));
            cap.on_inject(inj(msg(4, 0, 1, c), 20, &[], None));
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

    /// What `Capture::finish` did before it permuted in place: gather
    /// every row and column entry into a second set of columns,
    /// renumbering on the way. Kept as the reference the in-place
    /// permutation is compared against.
    fn finish_by_gather(cap: Capture, net_label: &'static str, exec_time: SimTime) -> TraceLog {
        let Capture {
            raw:
                Columns {
                    records: rows,
                    dep_off,
                    dep_ids,
                    prev,
                    kind,
                },
            mut delivers,
            max_id,
        } = cap;
        let n = rows.len();
        assert_eq!(n, delivers.len());
        let mut keys: Vec<(SimTime, u32, u32)> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| (r.t_inject, r.msg.id.0 as u32, i as u32))
            .collect();
        keys.sort_unstable();
        let mut renum_tbl = vec![NONE; max_id as usize + 1];
        for (new, &(_, id, _)) in keys.iter().enumerate() {
            renum_tbl[id as usize] = new as u32;
        }
        let renum = |old: u32| renum_tbl[old as usize];
        let mut cols = Columns::with_capacity(n, dep_ids.len());
        for (new, &(_, _, i)) in keys.iter().enumerate() {
            let i = i as usize;
            let mut r = rows[i];
            r.msg.id = MsgId(new as u64);
            cols.records.push(r);
            let deps = &dep_ids[dep_off[i] as usize..dep_off[i + 1] as usize];
            cols.dep_ids.extend(deps.iter().map(|&d| renum(d)));
            cols.dep_off.push(cols.dep_ids.len() as u32);
            cols.prev.push(match prev[i] {
                NONE => NONE,
                p => renum(p),
            });
            cols.kind.push(kind[i]);
        }
        for d in delivers.iter_mut() {
            d.1 = renum(d.1);
            cols.records[d.1 as usize].t_deliver = d.0;
        }
        delivers.sort_unstable();
        let arrival = delivers.iter().map(|d| d.1).collect();
        TraceLog::from_columns(cols, net_label, exec_time, Some(arrival))
    }

    /// A capture whose hook saw `keys` — `(t_inject, capture id)` — in
    /// slice order, with `room` rows pre-sized. Row k carries k % 3
    /// dependencies and every column value differs from row to row, so
    /// a row that lands in the wrong slot, or beside another row's
    /// column entry, shows.
    fn capture_of(keys: &[(SimTime, u32)], room: usize) -> Capture {
        const KINDS: [&str; 3] = ["GetS", "Data", "Inv"];
        let mut cap = Capture::with_capacity(room);
        for (k, &(at, id)) in keys.iter().enumerate() {
            let deps: Vec<MsgId> = (1..=k % 3)
                .filter_map(|back| k.checked_sub(7 * back))
                .map(|j| MsgId(keys[j].1 as u64))
                .collect();
            cap.on_inject(InjectRecord {
                msg: msg(id as u64, id % 16, k as u32 % 16, MsgClass::Control),
                at,
                deps: &deps,
                prev_same_src: k.checked_sub(1).map(|j| MsgId(keys[j].1 as u64)),
                kind: KINDS[k % 3],
            });
        }
        // Deliveries in hook order too, a varying while after injection.
        for (k, &(at, id)) in keys.iter().enumerate() {
            let after = SimTime::from_ps(1 + (k as u64 * 37) % 90);
            cap.on_deliver(MsgId(id as u64), at + after);
        }
        cap
    }

    fn row_fields(log: &TraceLog) -> Vec<(u64, u32, u32, u32, SimTime, SimTime)> {
        let row = |r: &TraceRecord| {
            let m = r.msg;
            (m.id.0, m.src.0, m.dst.0, m.bytes, r.t_inject, r.t_deliver)
        };
        log.records.iter().map(row).collect()
    }

    /// The in-place permutation against the gather it replaced, column
    /// for column, over permutations with cycles of every kind: the
    /// three sort shapes, one n-cycle family (a rotation), 2-cycles
    /// beside fixed points (a reversed block) and fixed points only
    /// (the identity).
    #[test]
    fn in_place_finish_matches_the_gather() {
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
            let got = capture_of(&keys, keys.len()).finish("test", exec);
            let want = finish_by_gather(capture_of(&keys, keys.len()), "test", exec);
            assert_eq!(row_fields(&got), row_fields(&want), "{shape}: rows");
            assert_eq!(got.dep_csr(), want.dep_csr(), "{shape}: dependencies");
            assert_eq!(got.prev, want.prev, "{shape}: prev");
            assert_eq!(got.kind, want.kind, "{shape}: kind");
            assert_eq!(got.arrival, want.arrival, "{shape}: arrival order");
            assert_eq!(got.departure, want.departure, "{shape}: departure order");
            assert_eq!(got.nodes, want.nodes, "{shape}: node bound");
        }
    }

    /// The hook sizes its buffers from an estimate; the log that comes
    /// out of `finish` is charged (`resident_bytes`, which the capture
    /// cache budgets by) for what it holds, not for the estimate.
    #[test]
    fn a_finished_capture_holds_no_slack() {
        let [(_, keys), ..] = sort_shapes();
        let log = capture_of(&keys, 2 * keys.len()).finish("test", SimTime::from_ps(1 << 40));
        let n = log.len();
        let exact =
            n * std::mem::size_of::<TraceRecord>() + 4 * ((n + 1) + log.dep_ids.len() + n + n) + n;
        assert!(log.departure.is_empty());
        assert_eq!(log.resident_bytes(), exact);
    }

    #[test]
    fn last_delivery() {
        assert_eq!(tiny_log().last_delivery(), SimTime::from_ps(400));
        assert_eq!(TraceLog::default().last_delivery(), SimTime::ZERO);
    }
}
