//! Network-model interface shared by every interconnect in the workspace.
//!
//! The CMP full-system simulator, the trace capture/replay engines and
//! the bench harness all talk to interconnects exclusively through
//! [`NetworkModel`], so the electrical baseline (`sctm-enoc`), both
//! optical architectures (`sctm-onoc`) and the analytic stand-in model
//! below are interchangeable — which is precisely the experiment the
//! paper runs (same workload, different network simulator).
//!
//! The interface is *pull-based co-simulation*: the owner injects
//! messages, asks the network when it next has internal work
//! ([`NetworkModel::next_time`]), and advances it to a chosen timestamp,
//! collecting completed [`Delivery`] records. This lets an owning event
//! loop interleave network time with core/cache time without callbacks.

use crate::ledger::Ledger;
use crate::stats::Histogram;
use crate::time::SimTime;

/// A network endpoint (one per tile/core).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Unique message identifier, assigned by the producer of the message.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MsgId(pub u64);

/// Coherence-protocol-visible message class.
///
/// The class determines size (and therefore flit count / optical burst
/// length) and is reported separately in statistics because the
/// trace-model error behaves differently for short control and long data
/// messages.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MsgClass {
    /// Requests, invalidations, acks: header only.
    Control,
    /// Cache-line-bearing replies and writebacks.
    Data,
}

impl MsgClass {
    pub fn label(self) -> &'static str {
        match self {
            MsgClass::Control => "ctrl",
            MsgClass::Data => "data",
        }
    }
}

/// One network message (a coherence transaction hop, or a synthetic
/// packet in microbenchmarks).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Message {
    pub id: MsgId,
    pub src: NodeId,
    pub dst: NodeId,
    pub class: MsgClass,
    /// Payload size in bytes (header is added by the network model).
    pub bytes: u32,
}

/// A completed message delivery.
#[derive(Clone, Copy, Debug)]
pub struct Delivery {
    pub msg: Message,
    /// When the message was injected at the source NI.
    pub injected_at: SimTime,
    /// When the last flit/bit was ejected at the destination NI.
    pub delivered_at: SimTime,
}

impl Delivery {
    #[inline]
    pub fn latency(&self) -> SimTime {
        self.delivered_at.saturating_since(self.injected_at)
    }
}

/// Aggregate network statistics, kept per message class.
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    pub injected: u64,
    pub delivered: u64,
    pub ctrl_latency_ps: Histogram,
    pub data_latency_ps: Histogram,
    /// Total payload bytes delivered (throughput numerator).
    pub bytes_delivered: u64,
}

impl NetStats {
    pub fn record_delivery(&mut self, d: &Delivery) {
        self.delivered += 1;
        self.bytes_delivered += d.msg.bytes as u64;
        let l = d.latency().as_ps();
        match d.msg.class {
            MsgClass::Control => self.ctrl_latency_ps.record(l),
            MsgClass::Data => self.data_latency_ps.record(l),
        }
    }

    /// Mean latency over both classes, in picoseconds.
    pub fn mean_latency_ps(&self) -> f64 {
        let n = self.ctrl_latency_ps.count() + self.data_latency_ps.count();
        if n == 0 {
            return 0.0;
        }
        let sum = self.ctrl_latency_ps.mean() * self.ctrl_latency_ps.count() as f64
            + self.data_latency_ps.mean() * self.data_latency_ps.count() as f64;
        sum / n as f64
    }

    /// Messages still in flight.
    pub fn in_flight(&self) -> u64 {
        self.injected - self.delivered
    }
}

/// Pull-based co-simulation interface implemented by every interconnect.
///
/// `Send` is a supertrait so a `Box<dyn NetworkModel>` — and a
/// simulator that owns one — may be handed to a worker thread (a
/// `par_map` job, an `sctmd` worker); every implementor is plain
/// owned data, so this costs nothing.
pub trait NetworkModel: Send {
    /// Number of endpoints.
    fn num_nodes(&self) -> usize;

    /// Hand a message to the source network interface at time `at`
    /// (must be ≥ the model's current time).
    fn inject(&mut self, at: SimTime, msg: Message);

    /// Earliest future instant at which the model has internal work
    /// (a pending injection, a flit to move, an arbitration slot...).
    /// `None` means the network is quiescent.
    fn next_time(&self) -> Option<SimTime>;

    /// Advance internal state up to and including time `t`, appending
    /// any completed deliveries to `out`.
    fn advance_until(&mut self, t: SimTime, out: &mut Vec<Delivery>);

    /// Run until quiescent (all injected messages delivered), appending
    /// deliveries. Returns the time of the last processed event.
    fn drain(&mut self, out: &mut Vec<Delivery>) -> SimTime {
        let mut last = SimTime::ZERO;
        while let Some(t) = self.next_time() {
            self.advance_until(t, out);
            last = t;
        }
        last
    }

    /// Advance through whole event-timestamp batches until one produces
    /// a delivery, the next event time reaches `stop` (exclusive: the
    /// batch at `stop` is *not* processed), or the model goes quiescent.
    /// Returns the model's next event time after stopping.
    ///
    /// This is the replay engines' inner loop hoisted across the trait
    /// boundary: driving a boxed model per-timestamp costs two virtual
    /// calls per event round, while here the `next_time`/`advance_until`
    /// calls devirtualize inside the (monomorphic) implementation. The
    /// default must keep exactly the semantics of the caller-side loop
    /// it replaces — same pop order on the same queue — so overriding
    /// implementations can only restate it, never reorder it.
    fn advance_batches(
        &mut self,
        stop: Option<SimTime>,
        out: &mut Vec<Delivery>,
    ) -> Option<SimTime> {
        loop {
            let t = self.next_time()?;
            if let Some(s) = stop {
                if t >= s {
                    return Some(t);
                }
            }
            let before = out.len();
            self.advance_until(t, out);
            if out.len() > before {
                return self.next_time();
            }
        }
    }

    /// Aggregate statistics since construction.
    fn stats(&self) -> &NetStats;

    /// Short architecture label for reports ("emesh", "omesh", "oxbar"...).
    fn label(&self) -> &'static str;
}

/// A contention-free analytic latency model.
///
/// Used (a) as the cheap provisional model during trace capture in
/// SCTM's first iteration, and (b) as the in-loop model that the online
/// correction variant adjusts epoch by epoch. Latency =
/// `base + per_hop × hops(src,dst) + bytes × per_byte`, all configurable,
/// plus an optional multiplicative correction factor table.
///
/// **Order.** Messages of one `(src, dst, class)` and one size are
/// delivered in injection order, ties by id: their latency is one
/// constant. With destination serialisation set, a node's deliveries
/// follow the order `inject` was called, which is injection order for
/// a caller that injects in time order.
#[derive(Clone, Debug)]
pub struct AnalyticNetwork {
    nodes: usize,
    /// Mesh coordinates of each node, so a hop count is two
    /// subtractions and not two divisions per message.
    xy: Vec<(u32, u32)>,
    base: SimTime,
    per_hop: SimTime,
    per_byte_ps: u64,
    /// Multiplicative correction per (class, src, dst), fixed-point
    /// 1/1024. Kept per message class because real interconnects treat
    /// short control and long data messages very differently (hybrid
    /// optical designs even route them through different planes).
    correction_q10: Vec<u32>,
    /// Optional per-destination serialisation: minimum spacing between
    /// consecutive deliveries at one node, in ps/byte (models finite
    /// ejection bandwidth — e.g. an MWSR home channel's single reader).
    /// Zero = infinite ejection bandwidth (the default).
    dst_service_ps_per_byte: Vec<u64>,
    /// Earliest time each destination can accept its next delivery.
    dst_free: Vec<SimTime>,
    /// `(delivery time, message id, slot in queue)` of every message in
    /// flight.
    pending: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, u64, usize)>>,
    /// The messages in flight and their injection times, by slot.
    queue: Vec<(Message, SimTime)>,
    free: Vec<usize>,
    ledger: Ledger,
    now: SimTime,
}

impl AnalyticNetwork {
    /// `nodes` must be a perfect square (mesh hop distance is used).
    pub fn new(nodes: usize, base: SimTime, per_hop: SimTime, per_byte_ps: u64) -> Self {
        let mesh_w = (nodes as f64).sqrt() as usize;
        assert_eq!(
            mesh_w * mesh_w,
            nodes,
            "AnalyticNetwork wants a square node count"
        );
        AnalyticNetwork {
            nodes,
            xy: (0..nodes)
                .map(|i| ((i % mesh_w) as u32, (i / mesh_w) as u32))
                .collect(),
            base,
            per_hop,
            per_byte_ps,
            correction_q10: vec![1024; 2 * nodes * nodes],
            dst_service_ps_per_byte: vec![0; nodes],
            dst_free: vec![SimTime::ZERO; nodes],
            pending: Default::default(),
            queue: Vec::new(),
            free: Vec::new(),
            ledger: Ledger::new(),
            now: SimTime::ZERO,
        }
    }

    fn hops(&self, a: NodeId, b: NodeId) -> u64 {
        let ((ax, ay), (bx, by)) = (self.xy[a.idx()], self.xy[b.idx()]);
        (ax.abs_diff(bx) + ay.abs_diff(by)) as u64
    }

    /// The uncorrected model latency for a message.
    pub fn model_latency(&self, msg: &Message) -> SimTime {
        let hops = self.hops(msg.src, msg.dst);
        let raw =
            self.base.as_ps() + self.per_hop.as_ps() * hops + self.per_byte_ps * msg.bytes as u64;
        let q = self.correction_q10[self.corr_idx(msg.src, msg.dst, msg.class)] as u64;
        SimTime::from_ps(raw * q / 1024)
    }

    #[inline]
    fn corr_idx(&self, src: NodeId, dst: NodeId, class: MsgClass) -> usize {
        let c = match class {
            MsgClass::Control => 0,
            MsgClass::Data => 1,
        };
        c * self.nodes * self.nodes + src.idx() * self.nodes + dst.idx()
    }

    /// The model latency with the correction factor stripped (what the
    /// uncorrected formula would predict) — the denominator the online
    /// correction loop needs when re-deriving factors.
    pub fn base_latency(&self, msg: &Message) -> SimTime {
        let hops = self.hops(msg.src, msg.dst);
        SimTime::from_ps(
            self.base.as_ps() + self.per_hop.as_ps() * hops + self.per_byte_ps * msg.bytes as u64,
        )
    }

    /// Install a multiplicative correction factor for one (src, dst,
    /// class) flow.
    pub fn set_correction(&mut self, src: NodeId, dst: NodeId, class: MsgClass, factor: f64) {
        let q = (factor.clamp(1.0 / 64.0, 64.0) * 1024.0) as u32;
        let idx = self.corr_idx(src, dst, class);
        self.correction_q10[idx] = q;
    }

    pub fn correction(&self, src: NodeId, dst: NodeId, class: MsgClass) -> f64 {
        self.correction_q10[self.corr_idx(src, dst, class)] as f64 / 1024.0
    }

    /// Model finite ejection bandwidth at `dst`: consecutive deliveries
    /// are spaced by at least `bytes × ps_per_byte`. Pass 0 to disable.
    pub fn set_dst_service(&mut self, dst: NodeId, ps_per_byte: u64) {
        self.dst_service_ps_per_byte[dst.idx()] = ps_per_byte;
    }

    pub fn dst_service(&self, dst: NodeId) -> u64 {
        self.dst_service_ps_per_byte[dst.idx()]
    }
}

impl NetworkModel for AnalyticNetwork {
    fn num_nodes(&self) -> usize {
        self.nodes
    }

    fn inject(&mut self, at: SimTime, msg: Message) {
        let at = at.max(self.now);
        let model_lat = self.model_latency(&msg);
        let mut deliver = at + model_lat;
        let service_per_byte = self.dst_service_ps_per_byte[msg.dst.idx()];
        if service_per_byte > 0 {
            // Finite ejection bandwidth: serialise behind earlier
            // deliveries at this destination (approximated in injection
            // order, which is time order for both co-simulation and
            // replay callers).
            let service = SimTime::from_ps(service_per_byte * msg.bytes.max(1) as u64);
            let start = deliver.max(self.dst_free[msg.dst.idx()]);
            deliver = start + service;
            self.dst_free[msg.dst.idx()] = deliver;
        }
        self.ledger.book_injection();
        let slot = if let Some(i) = self.free.pop() {
            self.queue[i] = (msg, at);
            i
        } else {
            self.queue.push((msg, at));
            self.queue.len() - 1
        };
        self.pending
            .push(std::cmp::Reverse((deliver, msg.id.0, slot)));
    }

    fn next_time(&self) -> Option<SimTime> {
        self.pending.peek().map(|std::cmp::Reverse((t, _, _))| *t)
    }

    fn advance_until(&mut self, t: SimTime, out: &mut Vec<Delivery>) {
        while let Some(std::cmp::Reverse((dt, _, slot))) = self.pending.peek().copied() {
            if dt > t {
                break;
            }
            self.pending.pop();
            let (msg, injected_at) = self.queue[slot];
            self.free.push(slot);
            let d = Delivery {
                msg,
                injected_at,
                delivered_at: dt,
            };
            self.ledger.book_delivery(d, out);
            self.now = dt;
        }
        if t > self.now {
            self.now = t;
        }
    }

    fn stats(&self) -> &NetStats {
        self.ledger.stats()
    }

    fn label(&self) -> &'static str {
        "analytic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(id: u64, src: u32, dst: u32, bytes: u32) -> Message {
        Message {
            id: MsgId(id),
            src: NodeId(src),
            dst: NodeId(dst),
            class: if bytes > 16 {
                MsgClass::Data
            } else {
                MsgClass::Control
            },
            bytes,
        }
    }

    fn net() -> AnalyticNetwork {
        AnalyticNetwork::new(16, SimTime::from_ps(1000), SimTime::from_ps(400), 10)
    }

    #[test]
    fn latency_formula() {
        let n = net();
        // node 0 -> node 5 in a 4x4 mesh: dx=1, dy=1 => 2 hops
        let m = msg(1, 0, 5, 8);
        assert_eq!(n.model_latency(&m).as_ps(), 1000 + 2 * 400 + 80);
    }

    #[test]
    fn delivers_in_order_of_completion() {
        let mut n = net();
        n.inject(SimTime::ZERO, msg(1, 0, 15, 64)); // 6 hops, slow
        n.inject(SimTime::ZERO, msg(2, 0, 1, 8)); // 1 hop, fast
        let mut out = Vec::new();
        n.drain(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].msg.id, MsgId(2));
        assert_eq!(out[1].msg.id, MsgId(1));
    }

    #[test]
    fn correction_scales_latency() {
        let mut n = net();
        let m = msg(1, 0, 1, 0); // 0 bytes → Control class
        let base = n.model_latency(&m).as_ps();
        n.set_correction(NodeId(0), NodeId(1), MsgClass::Control, 2.0);
        assert_eq!(n.model_latency(&m).as_ps(), base * 2);
        assert!((n.correction(NodeId(0), NodeId(1), MsgClass::Control) - 2.0).abs() < 1e-3);
        // other pairs unaffected
        let m2 = msg(2, 1, 0, 0);
        assert_eq!(n.model_latency(&m2).as_ps(), base);
    }

    #[test]
    fn corrections_are_per_class() {
        let mut n = net();
        let ctrl = msg(1, 0, 1, 0);
        let data = msg(2, 0, 1, 64);
        let base_data = n.model_latency(&data).as_ps();
        n.set_correction(NodeId(0), NodeId(1), MsgClass::Control, 3.0);
        // Data on the same pair is untouched.
        assert_eq!(n.model_latency(&data).as_ps(), base_data);
        assert!(n.model_latency(&ctrl).as_ps() > base_data / 2);
    }

    #[test]
    fn correction_is_clamped() {
        let mut n = net();
        n.set_correction(NodeId(0), NodeId(1), MsgClass::Data, 1e9);
        assert!(n.correction(NodeId(0), NodeId(1), MsgClass::Data) <= 64.0);
        n.set_correction(NodeId(0), NodeId(1), MsgClass::Data, 0.0);
        assert!(n.correction(NodeId(0), NodeId(1), MsgClass::Data) >= 1.0 / 64.0);
    }

    #[test]
    fn advance_until_respects_deadline() {
        let mut n = net();
        n.inject(SimTime::ZERO, msg(1, 0, 1, 0)); // 1400 ps
        let mut out = Vec::new();
        n.advance_until(SimTime::from_ps(1000), &mut out);
        assert!(out.is_empty());
        n.advance_until(SimTime::from_ps(2000), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].delivered_at.as_ps(), 1400);
    }

    #[test]
    fn slot_reuse_does_not_corrupt() {
        let mut n = net();
        let mut out = Vec::new();
        for round in 0..10u64 {
            for i in 0..16u64 {
                n.inject(
                    n.next_time().unwrap_or(SimTime::ZERO),
                    msg(round * 16 + i, (i % 16) as u32, ((i + 3) % 16) as u32, 8),
                );
            }
            n.drain(&mut out);
        }
        assert_eq!(out.len(), 160);
        let mut ids: Vec<_> = out.iter().map(|d| d.msg.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 160, "every message delivered exactly once");
    }

    #[test]
    fn delivery_latency_helper() {
        let d = Delivery {
            msg: msg(1, 0, 1, 8),
            injected_at: SimTime::from_ps(100),
            delivered_at: SimTime::from_ps(350),
        };
        assert_eq!(d.latency().as_ps(), 250);
    }
}
