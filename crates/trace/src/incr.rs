//! Incremental self-correction replay: dirty-frontier resume from
//! epoch checkpoints.
//!
//! The outer self-correction loop (sctm-core `Mode::SelfCorrection`)
//! re-runs a full gated replay every iteration, even though late
//! iterations move only a handful of correction factors. This module
//! makes the replay *incremental*: each pass records full replay state
//! (network snapshot, readiness arrays, injection heap) at epoch
//! boundaries; the next pass diffs its per-message inputs against the
//! previous pass, finds the **dirty set** — messages whose capture
//! timing, gating structure, or payload moved — and resumes from the
//! latest checkpoint the dirty set cannot reach back past, splicing
//! the untouched prefix.
//!
//! The contract is **bit identity**: at every iteration count, thread
//! count and damping setting, the incremental pass must produce the
//! same [`ReplayResult`] — down to float bits of the derived means —
//! as a from-scratch [`crate::replay::replay_sctm_pass_with`]. The
//! argument is laid
//! out in DESIGN.md §11; the crucial invariants are:
//!
//! 1. A gated pass is fully determined by four per-message inputs:
//!    the message key (src, dst, class, bytes), the capture-anchored
//!    delta, the arrival gate, and the per-source predecessor. If all
//!    four are unchanged for every message, the pass is unchanged
//!    (splice). If the trace *length* changed, message ids no longer
//!    line up and we fall back to a full pass.
//! 2. Each checkpoint carries a **frontier**: the running maximum of
//!    every time the pass has observed — admitted injections, batch
//!    stops, network horizons, delivery instants. A checkpoint is
//!    valid for a dirty set iff no dirty message was injected before
//!    it and every dirty message's *reconstructed* heap entry lies
//!    strictly beyond the frontier; then the prefix of the new pass is
//!    provably identical to the recorded prefix, so restoring it is
//!    exact, not approximate.
//! 3. On resume, checkpoints kept from earlier epochs are **fixed up**
//!    in place with the same reconstruction, so they describe the new
//!    pass and stay usable for future resumes.
//!
//! Measured honestly: on workloads whose consecutive captures change
//! length (the 64-core fft flagship does — corrected factors shift
//! protocol interleaving enough to add/drop messages), every pass after
//! the first falls back to full replay and the win is bounded by the
//! recording heuristic keeping overhead near zero. The headline gains
//! come from converged tails, damping-off sweeps (iterations 2+ splice
//! entirely), and replay-only re-runs over a fixed trace.

use std::cmp::Reverse;

use sctm_engine::net::{MsgClass, NetworkModel};
use sctm_engine::time::SimTime;

use crate::log::{TraceLog, NONE};
use crate::replay::{prepare_gated, ReplayResult, ReplayScratch};

/// The per-message identity the gated pass actually consumes from a
/// record. Two traces whose keys, deltas, gates and predecessors all
/// agree produce bit-identical passes regardless of any other record
/// field (timestamps only reach the pass through the delta).
#[derive(Clone, Copy, PartialEq, Eq)]
struct MsgKey {
    src: u32,
    dst: u32,
    class: MsgClass,
    bytes: u32,
}

/// The complete pass-determining input vector of one trace.
struct Inputs {
    key: Vec<MsgKey>,
    delta: Vec<SimTime>,
    /// Arrival gate per message (`NONE` = ungated).
    gate: Vec<u32>,
    /// Per-source predecessor per message (`NONE` = first from source).
    prev: Vec<u32>,
}

impl Inputs {
    fn from_scratch(log: &TraceLog, scratch: &ReplayScratch) -> Self {
        let key = log
            .records
            .iter()
            .map(|r| MsgKey {
                src: r.msg.src.0,
                dst: r.msg.dst.0,
                class: r.msg.class,
                bytes: r.msg.bytes,
            })
            .collect();
        Inputs {
            key,
            delta: scratch.delta.clone(),
            gate: scratch.gates.clone(),
            prev: scratch.prev_in_order.clone(),
        }
    }
}

/// Full mid-pass replay state at one epoch boundary.
struct Checkpoint {
    /// Epoch index (delivered / epoch_size at recording time).
    epoch: usize,
    delivered: usize,
    /// Running max of every time the pass observed up to here; see
    /// module docs and DESIGN.md §11.2.
    frontier: SimTime,
    inject: Vec<SimTime>,
    deliver: Vec<SimTime>,
    done: Vec<bool>,
    gate_done: Vec<bool>,
    gate_time: Vec<SimTime>,
    prev_done: Vec<bool>,
    prev_time: Vec<SimTime>,
    scheduled: Vec<bool>,
    /// Pending injection heap, as raw `(time, id)` pairs. Keys are
    /// unique (the id breaks ties), so rebuilding a `BinaryHeap` from
    /// this in any order reproduces the exact pop sequence.
    heap: Vec<(SimTime, u32)>,
    net: Box<dyn NetworkModel>,
}

impl Checkpoint {
    fn approx_bytes(&self) -> u64 {
        let n = self.inject.len() as u64;
        // SimTime vectors (8B each × 4), bool vectors (1B × 4 + done),
        // heap entries (12B). The network snapshot is opaque; it is
        // deliberately not counted — the counter tracks what *this*
        // module adds on top of the model's own footprint.
        n * (8 * 4 + 5) + self.heap.len() as u64 * 12
    }
}

/// Reconstructed readiness state for one dirty message at a checkpoint.
struct Reinit {
    gate_done: bool,
    gate_time: SimTime,
    prev_done: bool,
    prev_time: SimTime,
    /// Heap entry the new pass would have pushed by now, if any.
    entry: Option<SimTime>,
}

/// How one incremental pass was executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PassKind {
    /// From-scratch gated pass (first pass, or no usable checkpoint).
    Full,
    /// Inputs identical to the previous pass: previous result and final
    /// network snapshot returned without simulating anything.
    Spliced,
    /// Restored the checkpoint at this epoch and re-simulated the tail.
    Resumed { from_epoch: usize },
}

/// Telemetry for one incremental pass; feeds the `sctm.incr.*`
/// observability counters.
#[derive(Clone, Copy, Debug)]
pub struct IncrPassStats {
    pub kind: PassKind,
    /// Messages whose pass inputs moved since the previous pass.
    pub dirty: u64,
    /// Epochs whose work was reused (restored or spliced over).
    pub epochs_restored: u64,
    /// Epochs actually re-simulated this pass.
    pub epochs_replayed: u64,
    /// Approximate bytes held by live checkpoints after this pass
    /// (excluding network snapshots; see [`Checkpoint::approx_bytes`]).
    pub checkpoint_bytes: u64,
    /// Why the pass fell back to full replay, if it did.
    pub fallback: Option<&'static str>,
    /// This pass's trace length.
    pub trace_len: u64,
    /// The previous pass's trace length (0 on the first pass). A
    /// length-mismatch fallback is exactly `trace_len != prev_len` —
    /// the churn quantity the §P6 flagship discussion is about.
    pub prev_len: u64,
}

impl IncrPassStats {
    /// The pass kind as a stable lowercase label, for decision
    /// telemetry and reports.
    pub fn kind_label(&self) -> &'static str {
        match self.kind {
            PassKind::Full => "full",
            PassKind::Spliced => "spliced",
            PassKind::Resumed { .. } => "resumed",
        }
    }

    /// The fallback cause as a canonical snake_case identifier for the
    /// decision-telemetry namespace (`sctm.conv.cause.<cause>`); the
    /// raw [`IncrPassStats::fallback`] strings are a stable wire
    /// contract of their own and stay as they are.
    pub fn cause(&self) -> Option<&'static str> {
        self.fallback.map(|f| match f {
            "first-pass" => "first_pass",
            "length-mismatch" => "length_churn",
            "no-snapshot" => "no_snapshot",
            "no-checkpoints" => "no_checkpoints",
            "frontier-too-early" => "frontier_too_early",
            _ => "unknown",
        })
    }
}

/// Working arrays of one in-flight pass.
struct PassState {
    inject: Vec<SimTime>,
    deliver: Vec<SimTime>,
    done: Vec<bool>,
    delivered: usize,
    frontier: SimTime,
}

impl PassState {
    fn fresh(n: usize) -> Self {
        PassState {
            inject: vec![SimTime::MAX; n],
            deliver: vec![SimTime::ZERO; n],
            done: vec![false; n],
            delivered: 0,
            frontier: SimTime::ZERO,
        }
    }
}

/// Incremental replay engine for the self-correction loop. One
/// instance lives across all iterations of a loop; each call to
/// [`IncrReplayer::replay`] is one pass.
pub struct IncrReplayer {
    /// Target number of checkpoints per pass (delivery-count epochs).
    epochs: usize,
    prev: Option<Inputs>,
    prev_inject: Vec<SimTime>,
    prev_deliver: Vec<SimTime>,
    ckpts: Vec<Checkpoint>,
    /// End-of-pass network snapshot, for the all-clean splice path.
    final_net: Option<Box<dyn NetworkModel>>,
    /// Scratch: dirty ids and a parallel flag vector.
    dirty: Vec<u32>,
    dirty_flag: Vec<bool>,
}

impl Default for IncrReplayer {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrReplayer {
    pub fn new() -> Self {
        IncrReplayer {
            epochs: 8,
            prev: None,
            prev_inject: Vec::new(),
            prev_deliver: Vec::new(),
            ckpts: Vec::new(),
            final_net: None,
            dirty: Vec::new(),
            dirty_flag: Vec::new(),
        }
    }

    /// Override the per-pass checkpoint count (default 8). More epochs
    /// mean finer resume granularity and more snapshot memory.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs.max(1);
        self
    }

    /// One incremental gated pass over `log`, replacing `*net` with the
    /// pass's final network state. Bit-identical to
    /// [`crate::replay::replay_sctm_pass_with`] on the same inputs.
    pub fn replay(
        &mut self,
        log: &TraceLog,
        net: &mut Box<dyn NetworkModel>,
        scratch: &mut ReplayScratch,
    ) -> (ReplayResult, IncrPassStats) {
        let n = log.len();
        let epoch_size = (n / self.epochs).max(1);
        let total_epochs = n.div_ceil(epoch_size);
        // Shared prep: gates, chains, deltas, CSR, readiness, seeds.
        // This is exactly what a from-scratch gated pass starts from.
        prepare_gated(log, false, scratch);
        let inputs = Inputs::from_scratch(log, scratch);
        let snap_ok = net.snapshot().is_some();

        let mut stats = IncrPassStats {
            kind: PassKind::Full,
            dirty: 0,
            epochs_restored: 0,
            epochs_replayed: total_epochs as u64,
            checkpoint_bytes: 0,
            fallback: None,
            trace_len: n as u64,
            prev_len: self.prev.as_ref().map_or(0, |p| p.key.len() as u64),
        };

        // Diff against the previous pass (if shapes line up). Checkpoint
        // recording is deferred until an equal-length diff has proven
        // that message ids are stable across passes: a workload whose
        // corrected captures change length every iteration (the flagship
        // 64-core fft does) would otherwise pay for epoch snapshots it
        // can never resume from.
        let mut record = false;
        match &self.prev {
            None => stats.fallback = Some("first-pass"),
            Some(p) if p.key.len() != n => {
                // Message ids no longer line up; nothing to reuse.
                stats.fallback = Some("length-mismatch");
                self.ckpts.clear();
            }
            Some(p) => {
                self.dirty.clear();
                self.dirty_flag.clear();
                self.dirty_flag.resize(n, false);
                for i in 0..n {
                    if p.key[i] != inputs.key[i]
                        || p.delta[i] != inputs.delta[i]
                        || p.gate[i] != inputs.gate[i]
                        || p.prev[i] != inputs.prev[i]
                    {
                        self.dirty.push(i as u32);
                        self.dirty_flag[i] = true;
                    }
                }
                stats.dirty = self.dirty.len() as u64;

                if self.dirty.is_empty() {
                    if let Some(fnet) = &self.final_net {
                        // Identical inputs: the previous pass *is* this
                        // pass. Hand back its result and final network.
                        *net = fnet
                            .snapshot()
                            .expect("snapshot-capable net lost the ability");
                        let result = ReplayResult::from_times(
                            log,
                            self.prev_inject.clone(),
                            self.prev_deliver.clone(),
                        );
                        stats.kind = PassKind::Spliced;
                        stats.epochs_restored = total_epochs as u64;
                        stats.epochs_replayed = 0;
                        stats.checkpoint_bytes =
                            self.ckpts.iter().map(Checkpoint::approx_bytes).sum();
                        return (result, stats);
                    }
                    stats.fallback = Some("no-snapshot");
                } else if snap_ok {
                    // Equal-length dirty pass: ids are stable, so epoch
                    // snapshots taken now can serve the next iteration.
                    record = true;
                    // Latest checkpoint the dirty set cannot reach back
                    // past. Validity is monotone (a set valid at a late
                    // checkpoint is valid at every earlier one), so the
                    // first hit scanning from the back is the best.
                    let hit = self.ckpts.iter().enumerate().rev().find_map(|(i, ck)| {
                        plan_for(ck, &self.dirty, &inputs).map(|plan| (i, plan))
                    });
                    match hit {
                        None => {
                            stats.fallback = Some(if self.ckpts.is_empty() {
                                "no-checkpoints"
                            } else {
                                "frontier-too-early"
                            })
                        }
                        Some((i, _)) => {
                            return self.resume(log, net, scratch, inputs, i, epoch_size, stats);
                        }
                    }
                } else {
                    stats.fallback = Some("no-snapshot");
                }
            }
        }

        // Full pass.
        self.ckpts.clear();
        let mut state = PassState::fresh(n);
        self.run_gated(log, net.as_mut(), scratch, &mut state, record, epoch_size);
        let result = self.finish(log, net.as_ref(), state);
        self.prev = Some(inputs);
        stats.checkpoint_bytes = self.ckpts.iter().map(Checkpoint::approx_bytes).sum();
        (result, stats)
    }

    /// Restore checkpoint `idx`, fix up the kept prefix, and re-simulate
    /// the tail.
    #[allow(clippy::too_many_arguments)]
    fn resume(
        &mut self,
        log: &TraceLog,
        net: &mut Box<dyn NetworkModel>,
        scratch: &mut ReplayScratch,
        inputs: Inputs,
        idx: usize,
        epoch_size: usize,
        mut stats: IncrPassStats,
    ) -> (ReplayResult, IncrPassStats) {
        let n = log.len();
        let total_epochs = n.div_ceil(epoch_size);
        self.ckpts.truncate(idx + 1);
        // Every kept checkpoint still holds the *previous* pass's values
        // at dirty indices; rewrite them so the prefix describes the new
        // pass and stays valid for future resumes. Validity is monotone,
        // so earlier plans should always exist; a checkpoint whose plan
        // fails anyway is dropped defensively rather than kept stale.
        let mut fixed: Vec<Checkpoint> = Vec::with_capacity(self.ckpts.len());
        for mut ck in self.ckpts.drain(..) {
            let Some(plan) = plan_for(&ck, &self.dirty, &inputs) else {
                debug_assert!(false, "checkpoint validity must be monotone");
                continue;
            };
            ck.heap.retain(|&(_, i)| !self.dirty_flag[i as usize]);
            for &(c, ref r) in &plan {
                ck.gate_done[c] = r.gate_done;
                ck.gate_time[c] = r.gate_time;
                ck.prev_done[c] = r.prev_done;
                ck.prev_time[c] = r.prev_time;
                ck.scheduled[c] = r.entry.is_some();
                if let Some(t) = r.entry {
                    ck.heap.push((t, c as u32));
                }
            }
            fixed.push(ck);
        }
        self.ckpts = fixed;
        let ck = self.ckpts.last().expect("resume target survived fixup");

        // Restore: network snapshot, readiness arrays, heap, outputs.
        *net = ck
            .net
            .snapshot()
            .expect("snapshot-capable net lost the ability");
        scratch.gate_done.clone_from(&ck.gate_done);
        scratch.gate_time.clone_from(&ck.gate_time);
        scratch.prev_done.clone_from(&ck.prev_done);
        scratch.prev_time.clone_from(&ck.prev_time);
        scratch.scheduled.clone_from(&ck.scheduled);
        scratch.heap.clear();
        scratch.heap.extend(ck.heap.iter().map(|&e| Reverse(e)));
        let mut state = PassState {
            inject: ck.inject.clone(),
            deliver: ck.deliver.clone(),
            done: ck.done.clone(),
            delivered: ck.delivered,
            frontier: ck.frontier,
        };
        stats.kind = PassKind::Resumed {
            from_epoch: ck.epoch,
        };
        stats.epochs_restored = ck.epoch as u64;
        stats.epochs_replayed = (total_epochs - ck.epoch) as u64;

        self.run_gated(log, net.as_mut(), scratch, &mut state, true, epoch_size);
        let result = self.finish(log, net.as_ref(), state);
        self.prev = Some(inputs);
        stats.checkpoint_bytes = self.ckpts.iter().map(Checkpoint::approx_bytes).sum();
        (result, stats)
    }

    /// End-of-pass bookkeeping shared by full and resumed passes.
    fn finish(&mut self, log: &TraceLog, net: &dyn NetworkModel, state: PassState) -> ReplayResult {
        self.prev_inject = state.inject.clone();
        self.prev_deliver = state.deliver.clone();
        // One end-of-pass snapshot regardless of `record`: it is what
        // lets the next pass splice when the inputs come back identical
        // (e.g. a converged loop), and costs a single clone.
        self.final_net = net.snapshot();
        ReplayResult::from_times(log, state.inject, state.deliver)
    }

    /// The gated event loop, instrumented: identical state evolution to
    /// `replay::gated_pass_with` (same admissions, same batch stops,
    /// same delivery walk — see the bit-identity tests), plus frontier
    /// tracking and epoch checkpoint recording.
    fn run_gated(
        &mut self,
        log: &TraceLog,
        net: &mut dyn NetworkModel,
        scratch: &mut ReplayScratch,
        state: &mut PassState,
        record: bool,
        epoch_size: usize,
    ) {
        let n = log.len();
        let mut next_mark = (state.delivered / epoch_size + 1) * epoch_size;
        let mut buf = std::mem::take(&mut scratch.buf);
        while state.delivered < n {
            if record && state.delivered >= next_mark {
                let epoch = state.delivered / epoch_size;
                next_mark = (epoch + 1) * epoch_size;
                if let Some(snap) = net.snapshot() {
                    self.ckpts.push(Checkpoint {
                        epoch,
                        delivered: state.delivered,
                        frontier: state.frontier,
                        inject: state.inject.clone(),
                        deliver: state.deliver.clone(),
                        done: state.done.clone(),
                        gate_done: scratch.gate_done.clone(),
                        gate_time: scratch.gate_time.clone(),
                        prev_done: scratch.prev_done.clone(),
                        prev_time: scratch.prev_time.clone(),
                        scheduled: scratch.scheduled.clone(),
                        heap: scratch.heap.iter().map(|&Reverse(e)| e).collect(),
                        net: snap,
                    });
                }
            }
            while let Some(&Reverse((t, i))) = scratch.heap.peek() {
                match net.next_time() {
                    Some(h) if t > h => {
                        // The horizon itself bounds what the network has
                        // admitted us to see; a dirty entry at or before
                        // it could have been admitted here.
                        state.frontier = state.frontier.max(h);
                        break;
                    }
                    ht => {
                        if let Some(h) = ht {
                            state.frontier = state.frontier.max(h);
                        }
                        scratch.heap.pop();
                        let i = i as usize;
                        state.frontier = state.frontier.max(t);
                        state.inject[i] = t;
                        net.inject(t, log.records[i].msg);
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
            let stop = scratch.heap.peek().map(|&Reverse((t, _))| t);
            if let Some(s) = stop {
                state.frontier = state.frontier.max(s);
            }
            buf.clear();
            let nt = net.advance_batches(stop, &mut buf);
            if buf.is_empty() && nt.is_none() && scratch.heap.is_empty() {
                panic!("gated replay deadlocked: undelivered messages but nothing pending");
            }
            for d in buf.drain(..) {
                let id = d.msg.id.0 as usize;
                state.deliver[id] = d.delivered_at;
                state.done[id] = true;
                state.delivered += 1;
                state.frontier = state.frontier.max(d.delivered_at);
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
    }
}

/// Reconstruct the readiness state every dirty message would have at
/// checkpoint `ck` under the *new* inputs, or `None` if the checkpoint
/// is not valid for this dirty set.
///
/// Validity requires, for every dirty `c`:
///
/// * `c` was not injected before the checkpoint (otherwise the recorded
///   prefix already depends on `c`'s old inputs), and
/// * if `c` would already be sitting in the heap at the checkpoint, its
///   entry time lies strictly beyond the frontier — so it can neither
///   have been admitted in the prefix nor have changed any batch stop.
///
/// The entry formulas mirror the live loop, simplified by the pass's
/// time-monotonicity (an injection admitted before a delivery event
/// carries a time ≤ that delivery's time): for a gated message whose
/// gate delivered at `gt`, the live `.max(prev_time)` can never win,
/// so the entry is exactly `gt + delta`.
fn plan_for(ck: &Checkpoint, dirty: &[u32], inputs: &Inputs) -> Option<Vec<(usize, Reinit)>> {
    let mut plan = Vec::with_capacity(dirty.len());
    for &c in dirty {
        let c = c as usize;
        if ck.inject[c] != SimTime::MAX {
            return None;
        }
        let g = inputs.gate[c];
        let has_gate = g != NONE;
        let p = inputs.prev[c];
        let p_inj = p != NONE && ck.inject[p as usize] != SimTime::MAX;
        let tp = if p_inj {
            ck.inject[p as usize]
        } else {
            SimTime::ZERO
        };
        let (gate_done, gate_time) = if has_gate {
            let gi = g as usize;
            (
                ck.done[gi],
                if ck.done[gi] {
                    ck.deliver[gi]
                } else {
                    SimTime::ZERO
                },
            )
        } else {
            (true, SimTime::ZERO)
        };
        let entry = if has_gate {
            if gate_done {
                Some(gate_time + inputs.delta[c])
            } else {
                None
            }
        } else if p == NONE {
            Some(inputs.delta[c])
        } else if p_inj {
            Some(tp + inputs.delta[c])
        } else {
            None
        };
        if let Some(t) = entry {
            if t <= ck.frontier {
                return None;
            }
        }
        plan.push((
            c,
            Reinit {
                gate_done,
                gate_time,
                prev_done: p == NONE || has_gate || p_inj,
                prev_time: if p_inj { tp } else { SimTime::ZERO },
                entry,
            },
        ));
    }
    Some(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::TraceRecord;
    use crate::replay::replay_sctm_pass_with;
    use sctm_engine::net::{AnalyticNetwork, Message, MsgId, NodeId};
    use sctm_engine::time::PS_PER_NS;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ps(ns * PS_PER_NS)
    }

    type Row = (TraceRecord, Vec<MsgId>, Option<MsgId>);

    #[allow(clippy::too_many_arguments)]
    fn row(
        i: u64,
        src: u32,
        dst: u32,
        class: MsgClass,
        inj: u64,
        del: u64,
        deps: Vec<u64>,
        prev: Option<u64>,
    ) -> Row {
        let rec = TraceRecord {
            msg: Message {
                id: MsgId(i),
                src: NodeId(src),
                dst: NodeId(dst),
                class,
                bytes: if class == MsgClass::Data { 64 } else { 8 },
            },
            t_inject: t(inj),
            t_deliver: t(del),
        };
        (rec, deps.into_iter().map(MsgId).collect(), prev.map(MsgId))
    }

    /// A small hand-built trace: node 0 sends to 1, 1 replies, then a
    /// tail of independent messages late in the timeline.
    fn toy_rows(tail_delta_ns: u64) -> Vec<Row> {
        let c = MsgClass::Control;
        vec![
            row(0, 0, 1, c, 0, 50, vec![], None),
            row(1, 1, 0, c, 60, 110, vec![0], None),
            row(2, 0, 1, c, 120, 170, vec![1], Some(0)),
            row(3, 2, 3, c, 500, 560, vec![], None),
            row(4, 3, 2, c, 500 + tail_delta_ns, 640, vec![3], None),
        ]
    }

    fn log_of(rows: Vec<Row>) -> TraceLog {
        TraceLog::from_rows("toy", t(700), rows)
    }

    fn toy_log(tail_delta_ns: u64) -> TraceLog {
        log_of(toy_rows(tail_delta_ns))
    }

    fn fresh_net() -> Box<dyn NetworkModel> {
        Box::new(AnalyticNetwork::new(4, t(20), t(5), 2))
    }

    fn assert_same(a: &ReplayResult, b: &ReplayResult) {
        assert_eq!(a.inject, b.inject);
        assert_eq!(a.deliver, b.deliver);
        assert_eq!(a.est_exec_time, b.est_exec_time);
    }

    #[test]
    fn first_pass_matches_full_replay() {
        let log = toy_log(40);
        let mut incr = IncrReplayer::new().with_epochs(2);
        let mut net = fresh_net();
        let mut scratch = ReplayScratch::default();
        let (r, s) = incr.replay(&log, &mut net, &mut scratch);
        assert_eq!(s.kind, PassKind::Full);
        assert_eq!(s.fallback, Some("first-pass"));

        let mut net2 = fresh_net();
        let full = replay_sctm_pass_with(&log, net2.as_mut(), &mut ReplayScratch::default());
        assert_same(&r, &full);
        assert_eq!(net.stats().delivered, net2.stats().delivered);
    }

    #[test]
    fn identical_inputs_splice() {
        let log = toy_log(40);
        let mut incr = IncrReplayer::new().with_epochs(2);
        let mut net = fresh_net();
        let mut scratch = ReplayScratch::default();
        let (r1, _) = incr.replay(&log, &mut net, &mut scratch);
        let mut net2 = fresh_net();
        let (r2, s2) = incr.replay(&log, &mut net2, &mut scratch);
        assert_eq!(s2.kind, PassKind::Spliced);
        assert_eq!(s2.epochs_replayed, 0);
        assert_same(&r1, &r2);
        assert_eq!(net.stats().delivered, net2.stats().delivered);
    }

    #[test]
    fn tail_dirty_resumes_and_matches() {
        // Recording is deferred until an equal-length diff proves the
        // message ids stable, so the sequence is: first pass (no
        // checkpoints), warm-up dirty pass (full, records), dirty pass
        // (resumes).
        let base = toy_log(40);
        let warm = toy_log(45); // only message 4's delta moves
        let moved = toy_log(50);
        let mut incr = IncrReplayer::new().with_epochs(2);
        let mut scratch = ReplayScratch::default();

        let mut net = fresh_net();
        incr.replay(&base, &mut net, &mut scratch);

        let mut net1 = fresh_net();
        let (_, s1) = incr.replay(&warm, &mut net1, &mut scratch);
        assert_eq!(s1.kind, PassKind::Full);
        assert_eq!(s1.fallback, Some("no-checkpoints"));

        let mut net2 = fresh_net();
        let (r, s) = incr.replay(&moved, &mut net2, &mut scratch);
        assert_eq!(s.dirty, 1);
        assert!(
            matches!(s.kind, PassKind::Resumed { .. }),
            "expected resume, got {:?} (fallback {:?})",
            s.kind,
            s.fallback
        );

        let mut net3 = fresh_net();
        let full = replay_sctm_pass_with(&moved, net3.as_mut(), &mut ReplayScratch::default());
        assert_same(&r, &full);
        assert_eq!(net2.stats().delivered, net3.stats().delivered);
    }

    #[test]
    fn early_dirty_falls_back_to_full() {
        let mut incr = IncrReplayer::new().with_epochs(2);
        let mut scratch = ReplayScratch::default();
        let mut net = fresh_net();
        incr.replay(&toy_log(40), &mut net, &mut scratch);
        // Equal-length warm-up pass: records checkpoints.
        let mut net1 = fresh_net();
        incr.replay(&toy_log(45), &mut net1, &mut scratch);

        // Move the very first message's timing: nothing can be reused.
        let mut early = toy_rows(45);
        early[1].0.t_inject = t(70);
        let early = log_of(early);
        let mut net2 = fresh_net();
        let (r, s) = incr.replay(&early, &mut net2, &mut scratch);
        assert_eq!(s.kind, PassKind::Full);
        assert_eq!(s.fallback, Some("frontier-too-early"));

        let mut net3 = fresh_net();
        let full = replay_sctm_pass_with(&early, net3.as_mut(), &mut ReplayScratch::default());
        assert_same(&r, &full);
    }

    #[test]
    fn length_change_falls_back_and_recovers() {
        let log5 = toy_log(40);
        let mut log6 = toy_rows(40);
        log6.push(row(5, 1, 2, MsgClass::Data, 650, 700, vec![], Some(1)));
        let log6 = log_of(log6);
        let mut incr = IncrReplayer::new().with_epochs(2);
        let mut scratch = ReplayScratch::default();
        let mut net = fresh_net();
        incr.replay(&log5, &mut net, &mut scratch);

        let mut net2 = fresh_net();
        let (r, s) = incr.replay(&log6, &mut net2, &mut scratch);
        assert_eq!(s.kind, PassKind::Full);
        assert_eq!(s.fallback, Some("length-mismatch"));
        let mut net3 = fresh_net();
        let full = replay_sctm_pass_with(&log6, net3.as_mut(), &mut ReplayScratch::default());
        assert_same(&r, &full);

        // Same shape again: splice works once lengths stabilise.
        let mut net4 = fresh_net();
        let (_, s2) = incr.replay(&log6, &mut net4, &mut scratch);
        assert_eq!(s2.kind, PassKind::Spliced);
    }
}
