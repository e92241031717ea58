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
//! The gated pass is split along what it reads. Everything derived from
//! the rows alone — the arrival-gate pairing, the capture-anchored
//! deltas, the per-source successor chain, the gate→dependants
//! adjacency, the initial readiness flags — is one immutable
//! [`GatePlan`]; what a pass mutates (`PassState`: readiness flags,
//! gate/predecessor times, the injection heap, the drain buffer) is all
//! a pass resets. Who owns the plan follows who replays the log how
//! often:
//!
//! - [`replay_sctm_pass`] reads the plan the log memoises
//!   ([`TraceLog::gate_plan`]): K replays of one capture — K `replay=1`
//!   requests over one cached log in `sctmd` — prepare once.
//! - [`replay_sctm_pass_with`] rebuilds the plan into a borrowed
//!   [`ReplayScratch`] arena: the self-correction loop in `sctm-core`
//!   replays every log exactly once and re-captures, so a per-log plan
//!   there would be allocated, used once and dropped; one arena paid for
//!   up front serves every iteration instead.

use crate::log::{TraceLog, TraceRecord, NONE};
use sctm_engine::net::{Delivery, MsgClass, NetworkModel};
use sctm_engine::stats::Running;
use sctm_engine::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem::size_of;

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

// Readiness flags of one message in a gated pass.
/// Has an arrival gate (never changes during a pass).
const GATED: u8 = 1;
/// The gate has delivered, or there is none.
const GATE_DONE: u8 = 2;
/// The per-source predecessor has been injected, or does not bind.
const PREV_DONE: u8 = 4;
/// Its injection time is known and queued (or already injected).
const SCHEDULED: u8 = 8;

/// Everything a gated pass derives from the rows of a log and nothing
/// else: read-only while passes run, so any number of them — on any
/// number of threads — can share one.
///
/// Its size is a function of the row count alone
/// ([`GatePlan::bytes_for`]), which is what lets the capture cache in
/// `sctm-srv` charge an entry for its plan before anything builds it.
#[derive(Clone, Debug, Default)]
pub struct GatePlan {
    /// Capture-anchored local think time per message: from the gating
    /// delivery (or the previous departure, for gate-less messages) to
    /// this departure, measured on the capture timeline.
    delta: Vec<SimTime>,
    /// Each message's successor in its source node's time-sorted
    /// departure sequence ([`NONE`]-terminated).
    next_in_order: Vec<u32>,
    /// Row `g < n`: the departures `g`'s delivery unblocks. Row `n`:
    /// the ungated departures, the seeds among them flagged
    /// [`SCHEDULED`] in `init`. Every message is in exactly one row.
    gated_by: Csr,
    /// Each message's readiness flags as a pass starts.
    init: Vec<u8>,
}

/// What [`GatePlan::build`] needs besides its output; kept so a loop
/// that rebuilds plans does not reallocate it.
#[derive(Debug, Default)]
struct PlanScratch {
    /// Arrival gate per message ([`NONE`] = ungated), and the scratch
    /// of [`TraceLog::arrival_gates_into`].
    gates: Vec<u32>,
    last_arrival: Vec<u32>,
    /// Most recent departure per source node during the chain walk.
    src_last: Vec<u32>,
    cursor: Vec<u32>,
}

impl GatePlan {
    /// The plan of `log` as [`replay_sctm_pass`] runs it, in vectors of
    /// exactly the size they need.
    pub(crate) fn of(log: &TraceLog) -> GatePlan {
        let mut plan = GatePlan::default();
        plan.build(log, false, &mut PlanScratch::default());
        plan
    }

    /// Rebuild this plan for `log`, recycling its buffers. The one
    /// place a plan is made.
    fn build(&mut self, log: &TraceLog, enforce_source_order: bool, tmp: &mut PlanScratch) {
        let n = log.len();
        let PlanScratch {
            gates,
            last_arrival,
            src_last,
            cursor,
        } = tmp;
        log.arrival_gates_into(gates, last_arrival);
        src_last.clear();
        src_last.resize(log.nodes(), NONE);
        self.delta.clear();
        self.delta.resize(n, SimTime::ZERO);
        self.next_in_order.clear();
        self.next_in_order.resize(n, NONE);
        self.init.clear();
        self.init.resize(n, 0);
        // One walk in departure order links the per-source chains and,
        // knowing each message's gate and predecessor, settles its
        // delta and what it starts a pass waiting on.
        log.for_each_departure(&mut |i| {
            let r = &log.records[i];
            let prev = std::mem::replace(&mut src_last[r.msg.src.idx()], i as u32);
            if prev != NONE {
                self.next_in_order[prev as usize] = i as u32;
            }
            let gate = gates[i];
            let anchor = match (gate, prev) {
                (NONE, NONE) => SimTime::ZERO,
                (NONE, p) => log.records[p as usize].t_inject,
                (g, _) => log.records[g as usize].t_deliver,
            };
            self.delta[i] = r.t_inject.saturating_since(anchor);
            let mut flags = if gate == NONE { GATE_DONE } else { GATED };
            // Gated messages do not wait on their per-source
            // predecessor: a node's departures may legitimately reorder
            // when the target network's latency profile differs from
            // capture (e.g. a hybrid optical design where control and
            // data planes diverge), and forcing capture order inflates
            // the timeline measurably.
            if prev == NONE || (!enforce_source_order && gate != NONE) {
                flags |= PREV_DONE;
            }
            // Seed: no gate and no predecessor to wait for.
            if flags == GATE_DONE | PREV_DONE {
                flags |= SCHEDULED;
            }
            self.init[i] = flags;
        });
        let ungated = n as u32;
        self.gated_by.invert(n + 1, n, cursor, |i| {
            std::iter::once(if gates[i] == NONE { ungated } else { gates[i] })
        });
    }

    /// Heap bytes of the plan of a log with `rows` messages.
    pub fn bytes_for(rows: usize) -> usize {
        let (delta, init) = (rows * size_of::<SimTime>(), rows);
        // Successor column, adjacency (every message is in one row)
        // and its `rows + 1` rows' offsets.
        let ids = (rows + rows + rows + 2) * size_of::<u32>();
        delta + init + ids
    }

    /// Heap bytes this plan holds.
    pub fn resident_bytes(&self) -> usize {
        self.delta.capacity() * size_of::<SimTime>()
            + size_of::<u32>()
                * (self.next_in_order.capacity()
                    + self.gated_by.off.capacity()
                    + self.gated_by.adj.capacity())
            + self.init.capacity()
    }
}

/// What a gated pass mutates, and all it has to reset.
#[derive(Debug, Default)]
struct PassState {
    /// Readiness flags per message, a copy of [`GatePlan::init`] moved
    /// forward by the pass.
    flags: Vec<u8>,
    /// Delivery time of each message's gate, once delivered.
    gate_time: Vec<SimTime>,
    /// Injection time of each message's predecessor, once injected.
    prev_time: Vec<SimTime>,
    /// Pending injections whose time is already known.
    heap: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// Delivery drain buffer.
    buf: Vec<Delivery>,
}

impl PassState {
    fn reset(&mut self, plan: &GatePlan) {
        let n = plan.init.len();
        self.flags.clone_from(&plan.init);
        self.gate_time.clear();
        self.gate_time.resize(n, SimTime::ZERO);
        self.prev_time.clear();
        self.prev_time.resize(n, SimTime::ZERO);
        self.heap.clear();
        for &i in plan.gated_by.row(n) {
            if plan.init[i as usize] & SCHEDULED != 0 {
                self.heap.push(Reverse((plan.delta[i as usize], i)));
            }
        }
    }
}

/// Reusable working set for the engines a caller runs in a loop.
///
/// The self-correction loop in `sctm-core` replays a fresh same-sized
/// trace once per iteration, so it borrows one of these for the whole
/// run ([`replay_sctm_pass_with`]): the plan is rebuilt in place and the
/// pass state reset, so after the first pass only the result is
/// allocated.
///
/// A scratch is not tied to one trace: buffers are resized on entry to
/// each pass, so one instance can serve logs of different sizes
/// (capacity only ever grows).
#[derive(Debug, Default)]
pub struct ReplayScratch {
    /// The arena plan: rebuilt for whichever log is replayed next.
    plan: GatePlan,
    plan_scratch: PlanScratch,
    pass: PassState,
}

impl ReplayScratch {
    pub fn new() -> Self {
        Self::default()
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
    // In `(t_inject, id)` order, so `inject`'s clamping never fires.
    log.for_each_departure(&mut |i| net.inject(inject[i], log.records[i].msg));
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
    let mut heap: BinaryHeap<Reverse<(SimTime, u32)>> = (0..n)
        .filter(|&i| log.deps(i).is_empty())
        .map(|i| Reverse((delta[i], i as u32)))
        .collect();
    let mut deliver = vec![SimTime::ZERO; n];
    let mut delivered = 0usize;
    let mut buf = Vec::new();
    while delivered < n {
        // Inject every pending message that is due at or before the
        // network's next internal event (its network effects may precede
        // that event); with an idle network, inject the earliest one to
        // re-arm it.
        while let Some(&Reverse((t, i))) = heap.peek() {
            match net.next_time() {
                Some(h) if t > h => break,
                _ => {
                    heap.pop();
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
        let stop = heap.peek().map(|&Reverse((t, _))| t);
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
                    prefetch_row(&log.records[c]);
                    heap.push(Reverse((ready_at[c] + delta[c], c as u32)));
                }
            }
        }
    }
    ReplayResult::from_times(log, inject, deliver)
}

/// Start pulling `row` into L1 ahead of its injection. A pass pops rows
/// in replay order, thousands of rows from the one it touched last, so
/// the `msg` load at injection missed every cache level (10.5 % of the
/// flagship loop); a row is scheduled one heap residence before it is
/// injected, which is time enough for the line to arrive.
#[inline]
fn prefetch_row(row: &TraceRecord) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint: it never faults, even on an invalid
    // address, and has no architectural effect — and `row` is a live
    // reference besides.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((row as *const TraceRecord).cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
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
    run_gated(log, net, log.gate_plan(), &mut PassState::default())
}

/// [`replay_sctm_pass`] for a caller that replays each log once and
/// many logs in a row: the plan is rebuilt into the borrowed
/// [`ReplayScratch`] instead of being memoised on the log.
pub fn replay_sctm_pass_with(
    log: &TraceLog,
    net: &mut dyn NetworkModel,
    scratch: &mut ReplayScratch,
) -> ReplayResult {
    scratch.plan.build(log, false, &mut scratch.plan_scratch);
    run_gated(log, net, &scratch.plan, &mut scratch.pass)
}

/// Ablation variant of [`replay_sctm_pass`] that *enforces per-source
/// capture order* on gated departures. Physically plausible-sounding,
/// but measurably worse: when the target's latency profile reorders a
/// node's traffic (hybrid control/data planes, token arbitration), the
/// ordering constraint inflates the timeline. Kept for the ablation
/// bench (A1).
pub fn replay_sctm_pass_ordered(log: &TraceLog, net: &mut dyn NetworkModel) -> ReplayResult {
    let mut plan = GatePlan::default();
    plan.build(log, true, &mut PlanScratch::default());
    run_gated(log, net, &plan, &mut PassState::default())
}

/// The gated event-driven pass over `plan`, which must be `log`'s.
fn run_gated(
    log: &TraceLog,
    net: &mut dyn NetworkModel,
    plan: &GatePlan,
    pass: &mut PassState,
) -> ReplayResult {
    let n = log.len();
    debug_assert_eq!(plan.init.len(), n, "plan built for another log");
    pass.reset(plan);
    let PassState {
        flags,
        gate_time,
        prev_time,
        heap,
        buf,
    } = pass;
    let mut inject = vec![SimTime::MAX; n];
    let mut deliver = vec![SimTime::ZERO; n];
    let mut delivered = 0usize;
    while delivered < n {
        while let Some(&Reverse((t, i))) = heap.peek() {
            match net.next_time() {
                Some(h) if t > h => break,
                _ => {
                    heap.pop();
                    let i = i as usize;
                    inject[i] = t;
                    net.inject(t, log.records[i].msg);
                    // Unblock the per-source successor (only gate-less
                    // successors wait on their predecessor).
                    let nx = plan.next_in_order[i];
                    if nx != NONE {
                        let nx = nx as usize;
                        flags[nx] |= PREV_DONE;
                        prev_time[nx] = t;
                        if flags[nx] & (GATE_DONE | SCHEDULED) == GATE_DONE {
                            let base = if flags[nx] & GATED != 0 {
                                gate_time[nx]
                            } else {
                                t
                            };
                            flags[nx] |= SCHEDULED;
                            prefetch_row(&log.records[nx]);
                            heap.push(Reverse(((base + plan.delta[nx]).max(t), nx as u32)));
                        }
                    }
                }
            }
        }
        // See `replay_oracle`: batch-advance to the next delivery
        // or pending-injection time with one trait crossing.
        let stop = heap.peek().map(|&Reverse((t, _))| t);
        buf.clear();
        let nt = net.advance_batches(stop, buf);
        if buf.is_empty() && nt.is_none() && heap.is_empty() {
            panic!("gated replay deadlocked: undelivered messages but nothing pending");
        }
        for d in buf.drain(..) {
            let id = d.msg.id.0 as usize;
            deliver[id] = d.delivered_at;
            delivered += 1;
            for &g in plan.gated_by.row(id) {
                let g = g as usize;
                flags[g] |= GATE_DONE;
                gate_time[g] = d.delivered_at;
                if flags[g] & (PREV_DONE | SCHEDULED) == PREV_DONE {
                    let t = (d.delivered_at + plan.delta[g]).max(prev_time[g]);
                    flags[g] |= SCHEDULED;
                    prefetch_row(&log.records[g]);
                    heap.push(Reverse((t, g as u32)));
                }
            }
        }
    }
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

    /// A shared scratch must be invisible in the results: run the gated
    /// pass twice through one arena (dirty on the second pass) and
    /// against its memoised-plan entry point.
    #[test]
    fn scratch_reuse_is_bit_identical() {
        let log = capture_fft(16);
        let mut scratch = ReplayScratch::new();
        let a = replay_sctm_pass(&log, analytic(16, 6).as_mut());
        for round in 0..2 {
            let b = replay_sctm_pass_with(&log, analytic(16, 6).as_mut(), &mut scratch);
            assert_eq!(a.inject, b.inject, "inject diverged (round {round})");
            assert_eq!(a.deliver, b.deliver, "deliver diverged (round {round})");
            assert_eq!(a.est_exec_time, b.est_exec_time, "est diverged");
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
