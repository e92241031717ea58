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
//!    model**: knowledge is per-endpoint program order plus the
//!    arrival-gating pairing computable from a plain network trace
//!    ([`TraceLog::arrival_gates`]). Injections are derived from the
//!    replay's *own* delivery times (the timeline corrects itself
//!    forward in time); the outer loop in `sctm-core` additionally
//!    corrects the capture model and re-captures until the estimate
//!    stabilises.
//! 3. [`replay_oracle`] — full-causality single-pass replay using the
//!    exact dependency DAG (which our capture can see because it lives
//!    inside the simulator). This is the accuracy ceiling of any
//!    trace-driven method and quantifies how much the gating heuristic
//!    costs.
//!
//! The two engines a caller runs repeatedly take a borrowed
//! [`ReplayScratch`] arena instead of allocating their working set
//! ([`replay_sctm_pass_with`], [`replay_fixed_budgeted`]): the outer
//! self-correction loop replays a same-sized trace once per iteration,
//! so one arena paid for up front serves every pass. The one-shot entry
//! points build a scratch of their own.

use crate::log::{TraceLog, NONE};
use sctm_engine::net::{Delivery, MsgClass, NetworkModel};
use sctm_engine::stats::Running;
use sctm_engine::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
        let tail = log.capture_exec_time.saturating_since(log.last_delivery());
        let last = deliver.iter().copied().max().unwrap_or(SimTime::ZERO);
        ReplayResult {
            inject,
            deliver,
            est_exec_time: last + tail,
        }
    }

    /// Mean message latency in nanoseconds for one class (or all).
    pub fn mean_latency_ns(&self, log: &TraceLog, class: Option<MsgClass>) -> f64 {
        let mut acc = Running::new();
        for (i, r) in log.records.iter().enumerate() {
            if class.is_none() || class == Some(r.msg.class) {
                acc.push(self.deliver[i].saturating_since(self.inject[i]).as_ns_f64());
            }
        }
        acc.mean()
    }
}

/// Reusable working set for the replay engines.
///
/// Every buffer a pass needs — deltas, readiness flags, the CSR
/// dependency adjacency, the pending-injection heap, the delivery drain
/// buffer, the arrival-gating scratch — lives here and is recycled
/// between passes, so a loop that replays the same trace repeatedly
/// (the self-correction loop in `sctm-core`, the convergence sweep in
/// `sctm-bench`) allocates once instead of once per iteration. The
/// cached injection `order` additionally lets [`replay_fixed_budgeted`]
/// skip its sort entirely on every pass over the same trace after the
/// first.
///
/// A scratch is not tied to one trace: buffers are resized on entry to
/// each pass, so one instance can serve logs of different sizes
/// (capacity only ever grows).
#[derive(Debug, Default)]
pub struct ReplayScratch {
    /// Cached injection order for `inject_all` (a permutation of
    /// `0..n`, validated before reuse).
    order: Vec<u32>,
    /// Capture-anchored local think time per message.
    delta: Vec<SimTime>,
    /// Oracle: max dependency delivery seen so far, per message.
    ready_at: Vec<SimTime>,
    /// Oracle: undelivered dependency count, per message.
    remaining: Vec<u32>,
    // CSR adjacency: `adj[adj_off[i]..adj_off[i + 1]]` are the messages
    // unblocked by `i`'s delivery (dependency children for the oracle,
    // gated departures for the gated pass). Replaces a `Vec<Vec<u32>>`
    // whose n inner vectors dominated per-pass allocation.
    adj_cnt: Vec<u32>,
    adj_off: Vec<u32>,
    adj: Vec<u32>,
    /// Most recent message per source node during the chain build.
    src_last: Vec<u32>,
    /// Per-source predecessor / successor chains ([`NONE`]-terminated).
    prev_in_order: Vec<u32>,
    next_in_order: Vec<u32>,
    // Gated-pass readiness state.
    gate_done: Vec<bool>,
    gate_time: Vec<SimTime>,
    prev_done: Vec<bool>,
    prev_time: Vec<SimTime>,
    scheduled: Vec<bool>,
    /// Pending injections whose time is already known.
    heap: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// Delivery drain buffer.
    buf: Vec<Delivery>,
    /// Arrival gate per message ([`NONE`] = ungated), and the scratch
    /// of [`TraceLog::arrival_gates_into`].
    gates: Vec<u32>,
    last_arrival: Vec<u32>,
}

impl ReplayScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Build the CSR adjacency from per-record edge lists: `edges(i)`
    /// yields the records whose delivery `i`'s entries unblock.
    fn build_csr<I: Iterator<Item = u32>>(&mut self, n: usize, mut edges: impl FnMut(usize) -> I) {
        self.adj_cnt.clear();
        self.adj_cnt.resize(n, 0);
        for i in 0..n {
            for e in edges(i) {
                self.adj_cnt[e as usize] += 1;
            }
        }
        self.adj_off.clear();
        self.adj_off.resize(n + 1, 0);
        for i in 0..n {
            self.adj_off[i + 1] = self.adj_off[i] + self.adj_cnt[i];
        }
        self.adj.clear();
        self.adj.resize(self.adj_off[n] as usize, 0);
        // Reuse adj_cnt as the per-row fill cursor. Iterating records in
        // id order keeps each row ascending.
        self.adj_cnt.fill(0);
        for i in 0..n {
            for e in edges(i) {
                let e = e as usize;
                self.adj[(self.adj_off[e] + self.adj_cnt[e]) as usize] = i as u32;
                self.adj_cnt[e] += 1;
            }
        }
    }

    /// Fill `prev_in_order`/`next_in_order`: each message's neighbour in
    /// its source node's time-sorted departure sequence (the chain
    /// `TraceLog::per_source_order` returns as nested vectors, built
    /// here without the per-node allocations).
    fn build_source_chains(&mut self, log: &TraceLog) {
        let n = log.len();
        self.src_last.clear();
        self.src_last.resize(log.nodes(), NONE);
        self.prev_in_order.clear();
        self.prev_in_order.resize(n, NONE);
        self.next_in_order.clear();
        self.next_in_order.resize(n, NONE);
        log.for_each_departure(&mut |i| {
            let s = log.records[i].msg.src.idx();
            let p = self.src_last[s];
            if p != NONE {
                self.prev_in_order[i] = p;
                self.next_in_order[p as usize] = i as u32;
            }
            self.src_last[s] = i as u32;
        });
    }
}

/// Inject all messages into `net` at the given times, in time order (so
/// `inject`'s internal clamping never fires). The canonical order under
/// the total key `(inject[i], i)` is unique, so the cached order is
/// reusable iff it is a strictly ascending permutation under that key —
/// an O(n) check that hits every fixed-replay iteration after the first
/// (same trace, same times).
fn inject_all(
    log: &TraceLog,
    net: &mut dyn NetworkModel,
    inject: &[SimTime],
    scratch: &mut ReplayScratch,
) {
    let n = log.len();
    let cached = scratch.order.len() == n
        && scratch.order.iter().all(|&i| (i as usize) < n)
        && scratch
            .order
            .windows(2)
            .all(|w| (inject[w[0] as usize], w[0]) < (inject[w[1] as usize], w[1]));
    if !cached {
        scratch.order.clear();
        scratch.order.extend(0..n as u32);
        // Unique total key → unstable sort is order-equivalent.
        scratch
            .order
            .sort_unstable_by_key(|&i| (inject[i as usize], i));
    }
    for &i in &scratch.order {
        net.inject(inject[i as usize], log.records[i as usize].msg);
    }
}

/// Run all messages through `net` at the given injection times.
fn simulate(
    log: &TraceLog,
    net: &mut dyn NetworkModel,
    inject: &[SimTime],
    scratch: &mut ReplayScratch,
) -> Vec<SimTime> {
    assert_eq!(inject.len(), log.len());
    let n = log.len();
    inject_all(log, net, inject, scratch);
    let mut deliver = vec![SimTime::ZERO; n];
    scratch.buf.clear();
    scratch.buf.reserve(n);
    net.drain(&mut scratch.buf);
    assert_eq!(scratch.buf.len(), n, "replay lost messages");
    for d in scratch.buf.drain(..) {
        deliver[d.msg.id.0 as usize] = d.delivered_at;
    }
    deliver
}

/// Classic trace-driven replay: capture timestamps, verbatim.
pub fn replay_fixed(log: &TraceLog, net: &mut dyn NetworkModel) -> ReplayResult {
    let inject: Vec<SimTime> = log.records.iter().map(|r| r.t_inject).collect();
    let deliver = simulate(log, net, &inject, &mut ReplayScratch::new());
    ReplayResult::from_times(log, inject, deliver)
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
    scratch: &mut ReplayScratch,
    budget: u64,
) -> Result<ReplayResult, u64> {
    let n = log.len();
    let inject: Vec<SimTime> = log.records.iter().map(|r| r.t_inject).collect();
    inject_all(log, net, &inject, scratch);
    let mut deliver = vec![SimTime::ZERO; n];
    let mut got = 0usize;
    let mut spent = 0u64;
    let mut buf = std::mem::take(&mut scratch.buf);
    while got < n {
        let Some(t) = net.next_time() else {
            panic!(
                "replay lost messages: network quiescent with {} undelivered",
                n - got
            );
        };
        if spent >= budget {
            scratch.buf = buf;
            return Err(spent);
        }
        spent += 1;
        buf.clear();
        net.advance_until(t, &mut buf);
        for d in buf.drain(..) {
            deliver[d.msg.id.0 as usize] = d.delivered_at;
            got += 1;
        }
    }
    scratch.buf = buf;
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
    let scratch = &mut ReplayScratch::new();
    // Delivery→children adjacency: the dependency lists, inverted.
    scratch.build_csr(n, |i| log.deps(i).iter().copied());
    // delta and dependency counts from the capture timeline
    scratch.delta.clear();
    scratch.delta.resize(n, SimTime::ZERO);
    scratch.remaining.clear();
    scratch.remaining.resize(n, 0);
    for (i, r) in log.records.iter().enumerate() {
        let deps = log.deps(i);
        match deps
            .iter()
            .map(|&d| log.records[d as usize].t_deliver)
            .max()
        {
            None => scratch.delta[i] = r.t_inject,
            Some(enable) => {
                scratch.delta[i] = r.t_inject.saturating_since(enable);
                scratch.remaining[i] = deps.len() as u32;
            }
        }
    }
    let mut inject = vec![SimTime::MAX; n];
    scratch.ready_at.clear();
    scratch.ready_at.resize(n, SimTime::ZERO); // max dep delivery so far
                                               // Pending injections we already know the time of, not yet injected.
    scratch.heap.clear();
    for i in 0..n {
        if log.deps(i).is_empty() {
            scratch.heap.push(Reverse((scratch.delta[i], i as u32)));
        }
    }
    let mut deliver = vec![SimTime::ZERO; n];
    let mut delivered = 0usize;
    let mut buf = Vec::new();
    while delivered < n {
        // Inject every pending message that is due at or before the
        // network's next internal event (its network effects may precede
        // that event); with an idle network, inject the earliest one to
        // re-arm it.
        while let Some(&Reverse((t, i))) = scratch.heap.peek() {
            match net.next_time() {
                Some(h) if t > h => break,
                _ => {
                    scratch.heap.pop();
                    inject[i as usize] = t;
                    net.inject(t, log.records[i as usize].msg);
                }
            }
        }
        // Advance in whole-timestamp batches until something delivers or
        // the earliest pending injection comes due; `advance_batches`
        // keeps the exact per-batch semantics of the old caller-side
        // loop while crossing the trait boundary once per stop instead
        // of twice per event round.
        let stop = scratch.heap.peek().map(|&Reverse((t, _))| t);
        buf.clear();
        let nt = net.advance_batches(stop, &mut buf);
        if buf.is_empty() && nt.is_none() && scratch.heap.is_empty() {
            panic!("replay deadlocked: messages undelivered but nothing pending");
        }
        for d in buf.drain(..) {
            let id = d.msg.id.0 as usize;
            deliver[id] = d.delivered_at;
            delivered += 1;
            for e in scratch.adj_off[id]..scratch.adj_off[id + 1] {
                let c = scratch.adj[e as usize] as usize;
                scratch.ready_at[c] = scratch.ready_at[c].max(d.delivered_at);
                scratch.remaining[c] -= 1;
                if scratch.remaining[c] == 0 {
                    scratch
                        .heap
                        .push(Reverse((scratch.ready_at[c] + scratch.delta[c], c as u32)));
                }
            }
        }
    }
    ReplayResult::from_times(log, inject, deliver)
}

/// The self-correcting replay pass — how the SCTM injects a trace into
/// a target network.
///
/// Event-driven: every departure is injected `delta` after its gating
/// arrival delivers **in the replay timeline** (per-source capture order
/// enforced), so the timeline corrects itself forward in time as the
/// pass runs instead of replaying stale capture timestamps. `delta` and
/// the gating pairing come from the capture timeline
/// ([`TraceLog::arrival_gates`]).
///
/// One pass is self-consistent (injections are derived from this pass's
/// own deliveries); residual error against execution-driven simulation
/// comes from mis-paired gates, which the *outer* self-correction loop
/// in `sctm-core` attacks by correcting the capture model itself and
/// re-capturing.
pub fn replay_sctm_pass(log: &TraceLog, net: &mut dyn NetworkModel) -> ReplayResult {
    replay_sctm_pass_with(log, net, &mut ReplayScratch::new())
}

/// [`replay_sctm_pass`] borrowing a reusable [`ReplayScratch`].
pub fn replay_sctm_pass_with(
    log: &TraceLog,
    net: &mut dyn NetworkModel,
    scratch: &mut ReplayScratch,
) -> ReplayResult {
    gated_pass_with(log, net, false, scratch)
}

/// Ablation variant of [`replay_sctm_pass`] that *enforces per-source
/// capture order* on gated departures. Physically plausible-sounding,
/// but measurably worse: when the target's latency profile reorders a
/// node's traffic (hybrid control/data planes, token arbitration), the
/// ordering constraint inflates the timeline. Kept for the ablation
/// bench (A1).
pub fn replay_sctm_pass_ordered(log: &TraceLog, net: &mut dyn NetworkModel) -> ReplayResult {
    gated_pass_with(log, net, true, &mut ReplayScratch::new())
}

/// Build the complete gated-pass working set for `log` into `scratch`:
/// arrival gates, per-source chains, capture-anchored deltas, the
/// gate→dependants CSR, the readiness arrays, and the seeded injection
/// heap. After this returns, `scratch` holds exactly the initial state
/// of a gated pass.
fn prepare_gated(log: &TraceLog, enforce_source_order: bool, scratch: &mut ReplayScratch) {
    let n = log.len();
    // Arrival gating, into the scratch buffers (temporarily moved out so
    // the rest of the scratch stays borrowable).
    let mut gates = std::mem::take(&mut scratch.gates);
    log.arrival_gates_into(&mut gates, &mut scratch.last_arrival);

    // Per-source predecessor/successor chains and capture injection gaps.
    scratch.build_source_chains(log);
    // Capture-anchored deltas: local time between the gating delivery
    // (or the previous departure, for gate-less messages) and this
    // departure, measured on the capture timeline.
    scratch.delta.clear();
    scratch.delta.resize(n, SimTime::ZERO);
    for (i, r) in log.records.iter().enumerate() {
        let anchor = match gates[i] {
            NONE => match scratch.prev_in_order[i] {
                NONE => SimTime::ZERO,
                p => log.records[p as usize].t_inject,
            },
            g => log.records[g as usize].t_deliver,
        };
        scratch.delta[i] = r.t_inject.saturating_since(anchor);
    }

    // Readiness: a message needs its gate delivered (if any) and its
    // per-source predecessor injected (if any).
    scratch.gate_done.clear();
    scratch.gate_done.resize(n, false);
    scratch.gate_time.clear();
    scratch.gate_time.resize(n, SimTime::ZERO);
    scratch.prev_done.clear();
    scratch.prev_done.resize(n, false);
    scratch.prev_time.clear();
    scratch.prev_time.resize(n, SimTime::ZERO);
    // Reverse index: gate -> dependants.
    scratch.build_csr(n, |i| Some(gates[i]).filter(|&g| g != NONE).into_iter());
    for (i, &g) in gates.iter().enumerate() {
        if g == NONE {
            scratch.gate_done[i] = true;
        }
    }
    for i in 0..n {
        // Gated messages do not wait on their per-source predecessor:
        // a node's departures may legitimately reorder when the target
        // network's latency profile differs from capture (e.g. a hybrid
        // optical design where control and data planes diverge), and
        // forcing capture order inflates the timeline measurably.
        if scratch.prev_in_order[i] == NONE || (!enforce_source_order && !scratch.gate_done[i]) {
            scratch.prev_done[i] = true;
        }
    }

    scratch.scheduled.clear();
    scratch.scheduled.resize(n, false);
    scratch.heap.clear();

    // Seed: messages with no gate and no predecessor, in id order.
    for i in 0..n {
        if scratch.gate_done[i] && scratch.prev_done[i] {
            scratch.scheduled[i] = true;
            scratch.heap.push(Reverse((scratch.delta[i], i as u32)));
        }
    }
    scratch.gates = gates;
}

/// The gated event-driven pass; gates are recomputed into (and the
/// working set borrowed from) `scratch`.
fn gated_pass_with(
    log: &TraceLog,
    net: &mut dyn NetworkModel,
    enforce_source_order: bool,
    scratch: &mut ReplayScratch,
) -> ReplayResult {
    let n = log.len();
    prepare_gated(log, enforce_source_order, scratch);
    let mut inject = vec![SimTime::MAX; n];
    let mut deliver = vec![SimTime::ZERO; n];
    let mut delivered = 0usize;
    let mut buf = std::mem::take(&mut scratch.buf);
    while delivered < n {
        while let Some(&Reverse((t, i))) = scratch.heap.peek() {
            match net.next_time() {
                Some(h) if t > h => break,
                _ => {
                    scratch.heap.pop();
                    let i = i as usize;
                    inject[i] = t;
                    net.inject(t, log.records[i].msg);
                    // Unblock the per-source successor (only gate-less
                    // successors wait on their predecessor).
                    let nx = scratch.next_in_order[i];
                    if nx != NONE {
                        let nx = nx as usize;
                        scratch.prev_done[nx] = true;
                        scratch.prev_time[nx] = t;
                        if scratch.gate_done[nx] && !scratch.scheduled[nx] {
                            let base = if scratch.gates[nx] != NONE {
                                scratch.gate_time[nx]
                            } else {
                                scratch.prev_time[nx]
                            };
                            let t = (base + scratch.delta[nx]).max(scratch.prev_time[nx]);
                            scratch.scheduled[nx] = true;
                            scratch.heap.push(Reverse((t, nx as u32)));
                        }
                    }
                }
            }
        }
        // See `replay_oracle`: batch-advance to the next delivery
        // or pending-injection time with one trait crossing.
        let stop = scratch.heap.peek().map(|&Reverse((t, _))| t);
        buf.clear();
        let nt = net.advance_batches(stop, &mut buf);
        if buf.is_empty() && nt.is_none() && scratch.heap.is_empty() {
            panic!("gated replay deadlocked: undelivered messages but nothing pending");
        }
        for d in buf.drain(..) {
            let id = d.msg.id.0 as usize;
            deliver[id] = d.delivered_at;
            delivered += 1;
            for e in scratch.adj_off[id]..scratch.adj_off[id + 1] {
                let g = scratch.adj[e as usize] as usize;
                scratch.gate_done[g] = true;
                scratch.gate_time[g] = d.delivered_at;
                if scratch.prev_done[g] && !scratch.scheduled[g] {
                    let t = (scratch.gate_time[g] + scratch.delta[g]).max(scratch.prev_time[g]);
                    scratch.scheduled[g] = true;
                    scratch.heap.push(Reverse((t, g as u32)));
                }
            }
        }
    }
    scratch.buf = buf;
    ReplayResult::from_times(log, inject, deliver)
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
/// Aggregation is a direct-index accumulator table rather than a sort
/// or hash map: the key space is only `nodes² × 2` cells (192KB at 64
/// cores — it lives in L2), so one pass over the records in id order
/// does all the grouping. Each cell accumulates in record order,
/// exactly the order the earlier sort-then-group formulation visited
/// (its sort key ended in the record index), so the floating-point sums
/// — and therefore the factors — are bit-identical to it.
pub fn pair_corrections(
    log: &TraceLog,
    result: &ReplayResult,
    mut base_latency: impl FnMut(&sctm_engine::net::Message) -> SimTime,
) -> Vec<((u32, u32, MsgClass), f64, u64)> {
    let nodes = log.nodes();
    // (replay latency sum, base-model latency sum, message count) per
    // (src, dst, class) cell.
    let mut acc: Vec<(f64, f64, u64)> = vec![(0.0, 0.0, 0); nodes * nodes * 2];
    for (i, r) in log.records.iter().enumerate() {
        let c = matches!(r.msg.class, MsgClass::Data) as usize;
        let cell = &mut acc[(r.msg.src.idx() * nodes + r.msg.dst.idx()) * 2 + c];
        cell.0 += result.deliver[i].saturating_since(result.inject[i]).as_ps() as f64;
        cell.1 += base_latency(&r.msg).as_ps() as f64;
        cell.2 += 1;
    }
    // Emit in (src, dst, Control-before-Data) order.
    let mut out: Vec<((u32, u32, MsgClass), f64, u64)> = Vec::new();
    for (k, &(lat, base, count)) in acc.iter().enumerate() {
        if base > 0.0 {
            let class = if k % 2 == 0 {
                MsgClass::Control
            } else {
                MsgClass::Data
            };
            let pair = k / 2;
            out.push((
                ((pair / nodes) as u32, (pair % nodes) as u32, class),
                lat / base,
                count,
            ));
        }
    }
    out
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
                r.deliver[i],
                rec.t_deliver,
                "msg {i} ({}) diverged: {:?} vs {:?}",
                log.kind(i),
                r.deliver[i],
                rec.t_deliver
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
                got.deliver[i],
                rec.t_deliver,
                "msg {i} ({}) diverged",
                log.kind(i)
            );
        }
    }

    /// A shared scratch must be invisible in the results: run each
    /// engine that borrows one twice through one arena (dirty on the
    /// second pass) and against its fresh-allocation entry point.
    #[test]
    fn scratch_reuse_is_bit_identical() {
        let log = capture_fft(16);
        let mut scratch = ReplayScratch::new();
        type Engine = (
            &'static str,
            fn(&TraceLog, &mut dyn NetworkModel) -> ReplayResult,
            fn(&TraceLog, &mut dyn NetworkModel, &mut ReplayScratch) -> ReplayResult,
        );
        let engines: [Engine; 2] = [
            ("fixed", replay_fixed, |log, net, scratch| {
                replay_fixed_budgeted(log, net, scratch, u64::MAX).expect("unbounded budget")
            }),
            ("sctm", replay_sctm_pass, replay_sctm_pass_with),
        ];
        for (name, fresh, with) in engines {
            let mut net = analytic(16, 6);
            let a = fresh(&log, net.as_mut());
            for round in 0..2 {
                let mut net = analytic(16, 6);
                let b = with(&log, net.as_mut(), &mut scratch);
                assert_eq!(a.inject, b.inject, "{name} inject diverged (round {round})");
                assert_eq!(
                    a.deliver, b.deliver,
                    "{name} deliver diverged (round {round})"
                );
                assert_eq!(a.est_exec_time, b.est_exec_time, "{name} est diverged");
            }
        }
    }

    /// One arena must also serve logs of different sizes back to back.
    #[test]
    fn scratch_survives_log_size_changes() {
        let big = capture_fft(16);
        let small = capture_fft(4);
        let mut scratch = ReplayScratch::new();
        for (log, cores) in [(&big, 16), (&small, 4), (&big, 16)] {
            let mut net = analytic(cores, 2);
            let r = replay_sctm_pass_with(log, net.as_mut(), &mut scratch);
            for (i, rec) in log.records.iter().enumerate() {
                assert_eq!(
                    r.deliver[i],
                    rec.t_deliver,
                    "msg {i} diverged ({} msgs)",
                    log.len()
                );
            }
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
