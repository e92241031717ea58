//! The full-system CMP simulator.
//!
//! In-order cores execute workload op streams; private L1s and a
//! full-map directory with shared L2 slices turn memory operations into
//! coherence traffic; every protocol hop crosses the pluggable
//! [`NetworkModel`]. This is the "full-system" half of the paper's
//! co-simulation: swap the network for the electrical baseline, either
//! optical architecture, or the analytic model, and the *same* workload
//! executes with network timing feeding back into core progress — the
//! feedback loop trace-driven simulation loses and the self-correction
//! trace model recovers.
//!
//! ## Modelling choices (and why they are safe here)
//!
//! * **Blocking cores, one miss outstanding.** Matches the paper's era
//!   (simple in-order tiles) and makes the dependency structure of the
//!   trace crisp: every post-miss message depends on the fill that
//!   unblocked the core.
//! * **Unbounded full-map directory, finite L2 data tags.** The
//!   directory never evicts (no recall protocol); the L2 tag array
//!   filters memory traffic. Keeps the coherence invariant exact while
//!   avoiding the recall state explosion.
//! * **Bounded fast-forward.** A core executing hits/computes advances
//!   locally up to [`CmpConfig::ff_quantum_cycles`] cycles per event, so
//!   a remote invalidation can be at most one quantum late from the
//!   core's point of view. Tighten the quantum to trade speed for
//!   fidelity.
//! * **Local-slice traffic rides the network as self-sends.** Every
//!   network model delivers `src == dst` messages with a small NI
//!   latency; routing them uniformly keeps all simulation modes
//!   comparable.

use crate::cache::{Cache, CacheGeometry, LineAddr};
use crate::protocol::{DirState, InjectRecord, Op, ProtocolMsg, Sharers, TraceHook, Workload};
use sctm_engine::event::EventQueue;
use sctm_engine::hash::FxHashMap;
use sctm_engine::msgtable::MsgTable;
use sctm_engine::net::{Delivery, Message, MsgClass, MsgId, NetworkModel, NodeId};
use sctm_engine::time::{Freq, SimTime};
use std::collections::VecDeque;

/// CMP configuration.
#[derive(Clone, Debug)]
pub struct CmpConfig {
    /// Mesh side; core count is `side²`.
    pub mesh_side: usize,
    pub core_freq: Freq,
    pub l1: CacheGeometry,
    pub l2_slice: CacheGeometry,
    /// L1 hit latency, core cycles.
    pub l1_hit_cycles: u64,
    /// L1 fill (and unblock) latency, core cycles.
    pub l1_fill_cycles: u64,
    /// L2 slice data access latency, core cycles.
    pub l2_cycles: u64,
    /// Directory-only processing latency, core cycles.
    pub dir_cycles: u64,
    /// DRAM access latency.
    pub mem_latency: SimTime,
    /// Per-request memory-controller occupancy (bandwidth model).
    pub mem_service: SimTime,
    /// Number of memory controllers (evenly spread over nodes).
    pub num_mem_ctrl: usize,
    /// Payload bytes of control / data messages.
    pub ctrl_bytes: u32,
    pub data_bytes: u32,
    /// Max core cycles fast-forwarded per scheduling event.
    pub ff_quantum_cycles: u64,
}

impl CmpConfig {
    /// A sensible 2012-class tiled CMP of `side × side` cores.
    pub fn tiled(side: usize) -> Self {
        CmpConfig {
            mesh_side: side,
            core_freq: Freq::from_ghz(5),
            l1: CacheGeometry::from_capacity(32 * 1024, 4),
            l2_slice: CacheGeometry::from_capacity(256 * 1024, 8),
            l1_hit_cycles: 2,
            l1_fill_cycles: 2,
            l2_cycles: 10,
            dir_cycles: 4,
            mem_latency: SimTime::from_ns(120),
            mem_service: SimTime::from_ns(8),
            num_mem_ctrl: 4,
            ctrl_bytes: 8,
            data_bytes: 72,
            ff_quantum_cycles: 200,
        }
    }

    pub fn num_cores(&self) -> usize {
        self.mesh_side * self.mesh_side
    }

    /// Node ids hosting memory controllers, evenly spread.
    pub fn mem_ctrl_nodes(&self) -> Vec<usize> {
        let n = self.num_cores();
        let k = self.num_mem_ctrl.clamp(1, n);
        (0..k).map(|i| i * n / k).collect()
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CoreStatus {
    Ready,
    WaitFill { line: LineAddr, store: bool },
    WaitBarrier(u32),
    Halted,
}

struct CoreState {
    status: CoreStatus,
    /// Delivery that most recently unblocked this core.
    last_enabler: Option<MsgId>,
    miss_start: SimTime,
    finish: SimTime,
    ops: u64,
    loads: u64,
    stores: u64,
    /// Total time spent blocked on fills / at barriers (time breakdown).
    wait_fill: SimTime,
    wait_barrier: SimTime,
    barrier_start: SimTime,
    /// External requests (Fetch/Inv) that raced our in-flight fill for
    /// the same line; replayed once the fill lands — the transient-state
    /// buffering every real directory protocol needs.
    deferred: Vec<(MsgId, ProtocolMsg)>,
}

// Every transaction *is* a wait state; the shared prefix is the point.
#[allow(clippy::enum_variant_names)]
#[derive(Clone, Debug)]
enum TxnKind {
    WaitMem,
    WaitAcks { pending: u32 },
    WaitFetch,
    WaitWb,
}

#[derive(Clone, Debug)]
struct Txn {
    requester: u16,
    is_x: bool,
    kind: TxnKind,
    /// Deliveries accumulated so far that the final reply depends on.
    deps: Vec<MsgId>,
}

#[derive(Clone, Copy, Debug)]
struct QueuedReq {
    req_id: MsgId,
    requester: u16,
    is_x: bool,
}

#[derive(Clone, Copy, Debug)]
enum Ev {
    CoreNext(u16),
}

/// Aggregate result of a full-system run.
#[derive(Clone, Debug)]
pub struct CmpResult {
    /// Time the last core halted.
    pub exec_time: SimTime,
    pub total_ops: u64,
    pub total_loads: u64,
    pub total_stores: u64,
    pub l1_hit_rate: f64,
    pub messages_injected: u64,
    pub messages_delivered: u64,
    /// Mean L1-miss round trip in nanoseconds.
    pub avg_miss_latency_ns: f64,
    /// Mean network latency (both classes) in nanoseconds.
    pub avg_net_latency_ns: f64,
    pub network_label: &'static str,
    /// Mean fraction of core time spent blocked on fills.
    pub wait_fill_frac: f64,
    /// Mean fraction of core time spent waiting at barriers.
    pub wait_barrier_frac: f64,
}

/// The full-system simulator, generic over the interconnect.
pub struct CmpSim {
    cfg: CmpConfig,
    /// log2 of the core count, a power of two: a line's home slice is
    /// its low `core_bits` bits, its memory-controller index comes from
    /// the bits above them.
    core_bits: u32,
    net: Box<dyn NetworkModel>,
    q: EventQueue<Ev>,
    cores: Vec<CoreState>,
    /// Private L1s; a line's metadata bit is modified (M) vs shared (S).
    l1: Vec<Cache>,
    /// Shared L2 slices; a line's metadata bit is dirty.
    l2: Vec<Cache>,
    dir: FxHashMap<u64, DirState>,
    /// The sets [`DirState::Shared`] names, one per shared line.
    sharers: Sharers,
    /// Invalidation targets of the request being handled.
    inv_targets: Vec<usize>,
    busy: FxHashMap<u64, Txn>,
    queued: FxHashMap<u64, VecDeque<QueuedReq>>,
    /// Node ids hosting memory controllers ([`CmpConfig::mem_ctrl_nodes`]).
    mem_ctrl: Vec<usize>,
    mem_free: Vec<SimTime>,
    /// In-flight protocol payloads by message id.
    in_flight: MsgTable<ProtocolMsg>,
    /// Line for which a Data/UpgAck grant is currently travelling to
    /// each core. The precise "my fill is in flight" predicate for
    /// external-request deferral: a queued request or a stale-sharer
    /// state must NOT defer (that deadlocks), only a committed grant.
    granted: Vec<Option<LineAddr>>,
    /// Per-source message sequence counters. Ids are interleaved as
    /// `seq × num_cores + src`: each node numbers its own messages. The
    /// golden captures pin the id order among same-instant injections,
    /// so the scheme is part of the trace format's contract.
    next_seq: Vec<u64>,
    barrier_counts: FxHashMap<u32, (u32, Vec<MsgId>)>,
    /// Integer miss-latency accumulator: an exact sum, divided once in
    /// [`Self::result`], so the reported mean does not depend on the
    /// order fills landed in.
    miss_lat_sum_ps: u128,
    miss_lat_count: u64,
    workload: Box<dyn Workload>,
    deliveries_buf: Vec<Delivery>,
    delivered: u64,
}

impl CmpSim {
    pub fn new(cfg: CmpConfig, net: Box<dyn NetworkModel>, workload: Box<dyn Workload>) -> Self {
        let n = cfg.num_cores();
        assert_eq!(net.num_nodes(), n, "network size must match core count");
        assert_eq!(
            workload.num_cores(),
            n,
            "workload size must match core count"
        );
        assert!(n <= crate::protocol::MAX_CORES);
        assert!(
            n.is_power_of_two(),
            "core count {n} is not a power of two: lines are interleaved over cores by mask"
        );
        let mem_ctrl = cfg.mem_ctrl_nodes();
        CmpSim {
            core_bits: n.trailing_zeros(),
            l1: (0..n).map(|_| Cache::new(cfg.l1)).collect(),
            l2: (0..n).map(|_| Cache::new(cfg.l2_slice)).collect(),
            cores: (0..n)
                .map(|_| CoreState {
                    status: CoreStatus::Ready,
                    last_enabler: None,
                    miss_start: SimTime::ZERO,
                    finish: SimTime::ZERO,
                    ops: 0,
                    loads: 0,
                    stores: 0,
                    wait_fill: SimTime::ZERO,
                    wait_barrier: SimTime::ZERO,
                    barrier_start: SimTime::ZERO,
                    deferred: Vec::new(),
                })
                .collect(),
            mem_free: vec![SimTime::ZERO; mem_ctrl.len()],
            mem_ctrl,
            dir: FxHashMap::default(),
            sharers: Sharers::new(n),
            inv_targets: Vec::new(),
            busy: FxHashMap::default(),
            queued: FxHashMap::default(),
            in_flight: MsgTable::new(),
            granted: vec![None; n],
            next_seq: vec![0; n],
            barrier_counts: FxHashMap::default(),
            miss_lat_sum_ps: 0,
            miss_lat_count: 0,
            q: EventQueue::new(),
            net,
            workload,
            cfg,
            deliveries_buf: Vec::new(),
            delivered: 0,
        }
    }

    #[inline]
    fn home(&self, line: LineAddr) -> usize {
        (line.0 & ((1u64 << self.core_bits) - 1)) as usize
    }

    #[inline]
    fn mem_ctrl_of(&self, line: LineAddr) -> (usize, usize) {
        let idx = (line.0 >> self.core_bits) as usize % self.mem_ctrl.len();
        (idx, self.mem_ctrl[idx])
    }

    #[inline]
    fn cyc(&self, n: u64) -> SimTime {
        self.cfg.core_freq.cycles(n)
    }

    /// Inject a protocol message at time `at`, recording trace causality.
    fn send(
        &mut self,
        hook: &mut dyn TraceHook,
        at: SimTime,
        src: usize,
        dst: usize,
        proto: ProtocolMsg,
        deps: &[MsgId],
    ) -> MsgId {
        let n = self.cfg.num_cores() as u64;
        let seq = self.next_seq[src];
        self.next_seq[src] = seq + 1;
        let id = MsgId(seq * n + src as u64);
        let (class, bytes) = if proto.is_data() {
            (MsgClass::Data, self.cfg.data_bytes)
        } else {
            (MsgClass::Control, self.cfg.ctrl_bytes)
        };
        let msg = Message {
            id,
            src: NodeId(src as u32),
            dst: NodeId(dst as u32),
            class,
            bytes,
        };
        hook.on_inject(InjectRecord { msg, at, deps });
        // Track committed fills for the deferral predicate.
        match proto {
            ProtocolMsg::Data { line, to, .. } | ProtocolMsg::UpgAck { line, to } => {
                debug_assert!(
                    self.granted[to as usize].is_none(),
                    "double grant to core {to}"
                );
                self.granted[to as usize] = Some(line);
            }
            _ => {}
        }
        self.in_flight.insert(id.0, proto);
        self.net.inject(at, msg);
        id
    }

    /// Run the workload to completion. Returns aggregate results.
    pub fn run(&mut self, hook: &mut dyn TraceHook) -> CmpResult {
        let _span = sctm_obs::span("cmp", "run");
        for c in 0..self.cfg.num_cores() {
            self.q.schedule(SimTime::ZERO, Ev::CoreNext(c as u16));
        }
        // At equal times, core events run before network deliveries.
        let mut now = None;
        loop {
            let tq = self.q.peek_time();
            let tn = self.net.next_time();
            let core_first = match (tq, tn) {
                (None, None) => break,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(a), Some(b)) => a <= b,
            };
            let t = if core_first { tq } else { tn };
            if t != now {
                now = t;
                hook.on_time(t.expect("branch chosen from a Some"));
            }
            if core_first {
                let ev = self
                    .q
                    .pop()
                    .expect("event queue drained between peek and pop");
                debug_assert_eq!(Some(ev.at), tq);
                self.handle_event(hook, ev.at, ev.payload);
            } else {
                let b = tn.expect("branch chosen from a Some");
                self.advance_net(hook, b);
            }
        }
        self.finish_checks();
        self.validate_coherence();
        self.result()
    }

    /// End-of-run invariants. Panics with a protocol diagnostic on
    /// violation.
    fn finish_checks(&self) {
        let stuck: Vec<String> = self
            .cores
            .iter()
            .enumerate()
            .filter(|(_, c)| c.status != CoreStatus::Halted)
            .map(|(i, c)| format!("core {i}: {:?}", c.status))
            .collect();
        if !stuck.is_empty() {
            panic!(
                "run ended with cores not halted (protocol lost a wakeup):\n{}\nbusy: {:?}\nqueued: {:?}\nbarriers: {:?}",
                stuck.join("\n"),
                self.busy,
                self.queued.keys().collect::<Vec<_>>(),
                self.barrier_counts,
            );
        }
        assert!(self.in_flight.is_empty(), "messages lost in flight");
        assert!(self.busy.is_empty(), "directory transaction leaked");
        let shared = self
            .dir
            .values()
            .filter(|s| matches!(s, DirState::Shared(_)))
            .count();
        assert_eq!(self.sharers.live(), shared, "a sharer set leaked");
    }

    fn result(&self) -> CmpResult {
        let (hits, misses) = self
            .l1
            .iter()
            .fold((0u64, 0u64), |(h, m), c| (h + c.hits(), m + c.misses()));
        let s = self.net.stats();
        let exec = self
            .cores
            .iter()
            .map(|c| c.finish)
            .max()
            .unwrap_or(SimTime::ZERO);
        let frac = |f: fn(&CoreState) -> SimTime| -> f64 {
            if exec.as_ps() == 0 {
                return 0.0;
            }
            let total: u64 = self.cores.iter().map(|c| f(c).as_ps()).sum();
            total as f64 / (exec.as_ps() as f64 * self.cores.len() as f64)
        };
        CmpResult {
            wait_fill_frac: frac(|c| c.wait_fill),
            wait_barrier_frac: frac(|c| c.wait_barrier),
            exec_time: exec,
            total_ops: self.cores.iter().map(|c| c.ops).sum(),
            total_loads: self.cores.iter().map(|c| c.loads).sum(),
            total_stores: self.cores.iter().map(|c| c.stores).sum(),
            l1_hit_rate: if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
            messages_injected: s.injected,
            messages_delivered: self.delivered,
            avg_miss_latency_ns: if self.miss_lat_count == 0 {
                0.0
            } else {
                (self.miss_lat_sum_ps as f64 / self.miss_lat_count as f64) / 1000.0
            },
            avg_net_latency_ns: s.mean_latency_ps() / 1000.0,
            network_label: self.net.label(),
        }
    }

    /// Borrow the interconnect (e.g. for architecture-specific reports).
    pub fn network(&self) -> &dyn NetworkModel {
        self.net.as_ref()
    }

    /// End-of-run coherence invariant: every L1 line in M state is the
    /// unique registered owner; every S line is a registered sharer.
    fn validate_coherence(&self) {
        for (core, l1) in self.l1.iter().enumerate() {
            l1.for_each_line(|line, modified| match self.dir.get(&line.0) {
                Some(DirState::Modified(o)) => {
                    assert_eq!(
                        *o as usize, core,
                        "L1 {core} holds {line:?} but dir owner is {o}"
                    );
                    assert!(modified, "owner's copy of {line:?} lost M state");
                }
                Some(&DirState::Shared(s)) => {
                    assert!(
                        self.sharers.contains(s, core),
                        "L1 {core} holds {line:?} but is not a registered sharer"
                    );
                    assert!(!modified, "shared copy of {line:?} is dirty in L1 {core}");
                }
                other => panic!("L1 {core} holds {line:?} but dir says {other:?}"),
            });
        }
    }

    fn advance_net(&mut self, hook: &mut dyn TraceHook, t: SimTime) {
        let mut buf = std::mem::take(&mut self.deliveries_buf);
        buf.clear();
        self.net.advance_until(t, &mut buf);
        for d in buf.drain(..) {
            self.handle_delivery(hook, d);
        }
        self.deliveries_buf = buf;
    }

    fn handle_event(&mut self, hook: &mut dyn TraceHook, at: SimTime, ev: Ev) {
        match ev {
            Ev::CoreNext(c) => self.core_step(hook, at, c as usize),
        }
    }

    /// Execute ops for core `c` starting at `t`, fast-forwarding local
    /// work up to the configured quantum.
    fn core_step(&mut self, hook: &mut dyn TraceHook, at: SimTime, c: usize) {
        if self.cores[c].status == CoreStatus::Halted {
            return;
        }
        debug_assert_eq!(self.cores[c].status, CoreStatus::Ready);
        let quantum_end = at + self.cyc(self.cfg.ff_quantum_cycles);
        let mut t = at;
        loop {
            if t >= quantum_end {
                self.q.schedule(t, Ev::CoreNext(c as u16));
                return;
            }
            let op = self.workload.next_op(c);
            self.cores[c].ops += 1;
            match op {
                Op::Compute(cycles) => {
                    t += self.cyc(cycles);
                }
                Op::Load(addr) | Op::Store(addr) => {
                    let store = matches!(op, Op::Store(_));
                    if store {
                        self.cores[c].stores += 1;
                    } else {
                        self.cores[c].loads += 1;
                    }
                    let line = LineAddr::of_byte(addr);
                    t += self.cyc(self.cfg.l1_hit_cycles);
                    let hit_state = self.l1[c].access(line).map(|w| {
                        if store {
                            // store hit in M stays M; in S it must
                            // upgrade (handled below via the M bit)
                            w.meta()
                        } else {
                            true // load hit in any state is fine
                        }
                    });
                    match hit_state {
                        Some(true) => {
                            // plain hit; also set M on store hit to M
                            // (already M) — nothing more to do
                        }
                        Some(false) => {
                            // store hit on an S line: ownership upgrade.
                            self.issue_miss(hook, t, c, line, true);
                            return;
                        }
                        None => {
                            self.issue_miss(hook, t, c, line, store);
                            return;
                        }
                    }
                }
                Op::Barrier(id) => {
                    self.cores[c].status = CoreStatus::WaitBarrier(id);
                    self.cores[c].barrier_start = t;
                    let enabler = self.cores[c].last_enabler;
                    self.send(
                        hook,
                        t + self.cyc(1),
                        c,
                        0,
                        ProtocolMsg::BarArrive { id, core: c as u16 },
                        enabler.as_slice(),
                    );
                    return;
                }
                Op::Halt => {
                    self.cores[c].status = CoreStatus::Halted;
                    self.cores[c].finish = t;
                    return;
                }
            }
        }
    }

    fn issue_miss(
        &mut self,
        hook: &mut dyn TraceHook,
        t: SimTime,
        c: usize,
        line: LineAddr,
        store: bool,
    ) {
        self.cores[c].status = CoreStatus::WaitFill { line, store };
        self.cores[c].miss_start = t;
        let home = self.home(line);
        let enabler = self.cores[c].last_enabler;
        let proto = if store {
            ProtocolMsg::GetX {
                line,
                requester: c as u16,
            }
        } else {
            ProtocolMsg::GetS {
                line,
                requester: c as u16,
            }
        };
        self.send(hook, t, c, home, proto, enabler.as_slice());
    }

    fn handle_delivery(&mut self, hook: &mut dyn TraceHook, d: Delivery) {
        let id = d.msg.id;
        let at = d.delivered_at;
        self.delivered += 1;
        hook.on_deliver(id, at);
        let proto = self
            .in_flight
            .remove(id.0)
            .expect("delivery of unknown message");
        match proto {
            ProtocolMsg::GetS { line, requester } => {
                self.dir_request(hook, at, id, line, requester, false, None);
            }
            ProtocolMsg::GetX { line, requester } => {
                self.dir_request(hook, at, id, line, requester, true, None);
            }
            ProtocolMsg::Data { line, to, grant_m } => {
                self.core_fill(hook, at, id, to as usize, line, grant_m);
            }
            ProtocolMsg::UpgAck { line, to } => {
                self.core_fill(hook, at, id, to as usize, line, true);
            }
            ProtocolMsg::Fetch { line, owner } => {
                let o = owner as usize;
                if self.fill_in_flight(o, line) {
                    // Our fill has not landed yet: buffer and replay
                    // after the fill (transient-state deferral).
                    self.cores[o].deferred.push((id, proto));
                    return;
                }
                let t = at + self.cyc(self.cfg.l1_hit_cycles);
                let home = self.home(line);
                if self.l1[o].invalidate(line).is_some() {
                    self.send(hook, t, o, home, ProtocolMsg::WbData { line }, &[id]);
                } else {
                    // Already evicted: our WbData is in flight.
                    self.send(hook, t, o, home, ProtocolMsg::FetchMiss { line }, &[id]);
                }
            }
            ProtocolMsg::FetchMiss { line } => {
                // Only meaningful while the transaction still awaits the
                // fetch; a racing writeback may already have satisfied it
                // (and possibly let a next transaction start) — then this
                // is stale and the in-flight WbData it announces will be
                // consumed by whoever needs it.
                if let Some(txn) = self.busy.get_mut(&line.0) {
                    if matches!(txn.kind, TxnKind::WaitFetch) {
                        txn.kind = TxnKind::WaitWb;
                        txn.deps.push(id);
                    }
                }
            }
            ProtocolMsg::Inv { line, target } => {
                let tgt = target as usize;
                // Defer only when a committed grant of this line is in
                // flight to us. A resident S copy with an upgrade still
                // *queued* at the home (or a stale-sharer state) must be
                // invalidated and acked right away — deferring those
                // deadlocks the directory.
                if self.fill_in_flight(tgt, line) {
                    self.cores[tgt].deferred.push((id, proto));
                    return;
                }
                self.l1[tgt].invalidate(line);
                let t = at + self.cyc(self.cfg.l1_hit_cycles);
                let home = self.home(line);
                self.send(hook, t, tgt, home, ProtocolMsg::InvAck { line }, &[id]);
            }
            ProtocolMsg::InvAck { line } => {
                self.handle_inv_ack(hook, at, id, line);
            }
            ProtocolMsg::WbData { line } => {
                self.handle_wb_data(hook, at, id, line);
            }
            ProtocolMsg::MemReq { line } => {
                let (mc_idx, mc_node) = self.mem_ctrl_of(line);
                let start = at.max(self.mem_free[mc_idx]);
                self.mem_free[mc_idx] = start + self.cfg.mem_service;
                let resp_at = start + self.cfg.mem_latency;
                let home = self.home(line);
                self.send(
                    hook,
                    resp_at,
                    mc_node,
                    home,
                    ProtocolMsg::MemResp { line },
                    &[id],
                );
            }
            ProtocolMsg::MemResp { line } => {
                self.handle_mem_resp(hook, at, id, line);
            }
            ProtocolMsg::WbMem { .. } => {
                // Sink at the memory controller; bandwidth already
                // accounted by the network.
            }
            ProtocolMsg::BarArrive { id: bid, core: _ } => {
                let n = self.cfg.num_cores() as u32;
                let entry = self.barrier_counts.entry(bid).or_insert((0, Vec::new()));
                entry.0 += 1;
                entry.1.push(id);
                if entry.0 == n {
                    let (_, deps) = self
                        .barrier_counts
                        .remove(&bid)
                        .expect("barrier entry counted just above");
                    let t = at + self.cyc(self.cfg.dir_cycles);
                    for c in 0..self.cfg.num_cores() {
                        self.send(hook, t, 0, c, ProtocolMsg::BarRelease { id: bid }, &deps);
                    }
                }
            }
            ProtocolMsg::BarRelease { id: bid } => {
                let c = d.msg.dst.idx();
                debug_assert_eq!(self.cores[c].status, CoreStatus::WaitBarrier(bid));
                self.cores[c].status = CoreStatus::Ready;
                let waited = at.saturating_since(self.cores[c].barrier_start);
                self.cores[c].wait_barrier += waited;
                self.cores[c].last_enabler = Some(id);
                self.q.schedule(at + self.cyc(1), Ev::CoreNext(c as u16));
            }
        }
    }

    /// Has the home committed a fill of `line` that is still travelling
    /// to core `c`? (Queued requests and stale-sharer states return
    /// false — deferring on those would deadlock the directory.)
    fn fill_in_flight(&self, c: usize, line: LineAddr) -> bool {
        self.granted[c] == Some(line)
    }

    /// A fill / upgrade-ack reaches the requesting core.
    fn core_fill(
        &mut self,
        hook: &mut dyn TraceHook,
        at: SimTime,
        id: MsgId,
        c: usize,
        line: LineAddr,
        grant_m: bool,
    ) {
        debug_assert!(
            matches!(self.cores[c].status, CoreStatus::WaitFill { line: l, .. } if l == line),
            "fill for a line core {c} was not waiting on"
        );
        debug_assert_eq!(self.granted[c], Some(line), "fill without grant record");
        self.granted[c] = None;
        let waited = at.saturating_since(self.cores[c].miss_start);
        self.miss_lat_sum_ps += waited.as_ps() as u128;
        self.miss_lat_count += 1;
        self.cores[c].wait_fill += waited;
        let t = at + self.cyc(self.cfg.l1_fill_cycles);
        if let Some(mut w) = self.l1[c].access(line) {
            // Upgrade of a line still resident.
            w.set_meta(grant_m);
        } else if let Some(victim) = self.l1[c].fill(line, grant_m) {
            if victim.meta {
                let home = self.home(victim.line);
                self.send(
                    hook,
                    t,
                    c,
                    home,
                    ProtocolMsg::WbData { line: victim.line },
                    &[id],
                );
            }
            // Clean victims drop silently; the directory keeps them as
            // stale sharers, which is safe (spurious Inv → InvAck).
        }
        self.cores[c].status = CoreStatus::Ready;
        self.cores[c].last_enabler = Some(id);
        // Replay external requests that raced this fill. They see the
        // line resident now, so the normal paths apply.
        let deferred = std::mem::take(&mut self.cores[c].deferred);
        for (ext_id, proto) in deferred {
            match proto {
                ProtocolMsg::Fetch { line: l, .. } => {
                    debug_assert_eq!(l, line);
                    self.l1[c].invalidate(l);
                    let home = self.home(l);
                    self.send(
                        hook,
                        t,
                        c,
                        home,
                        ProtocolMsg::WbData { line: l },
                        &[ext_id, id],
                    );
                }
                ProtocolMsg::Inv { line: l, .. } => {
                    debug_assert_eq!(l, line);
                    self.l1[c].invalidate(l);
                    let home = self.home(l);
                    self.send(
                        hook,
                        t,
                        c,
                        home,
                        ProtocolMsg::InvAck { line: l },
                        &[ext_id, id],
                    );
                }
                other => unreachable!("deferred {other:?}"),
            }
        }
        self.q.schedule(t, Ev::CoreNext(c as u16));
    }

    /// Process (or queue) a GetS/GetX at its home directory.
    #[allow(clippy::too_many_arguments)]
    fn dir_request(
        &mut self,
        hook: &mut dyn TraceHook,
        at: SimTime,
        req_id: MsgId,
        line: LineAddr,
        requester: u16,
        is_x: bool,
        unblock: Option<MsgId>,
    ) {
        if self.busy.contains_key(&line.0) {
            self.queued.entry(line.0).or_default().push_back(QueuedReq {
                req_id,
                requester,
                is_x,
            });
            return;
        }
        let home = self.home(line);
        let t = at + self.cyc(self.cfg.dir_cycles);
        let r = requester as usize;
        // The request itself, then the delivery that released the line
        // when this request had to queue behind another transaction.
        let both = [req_id, unblock.unwrap_or(req_id)];
        let deps = &both[..1 + usize::from(unblock.is_some())];
        let state = *self.dir.get(&line.0).unwrap_or(&DirState::Uncached);
        match state {
            DirState::Modified(owner) if owner == requester => {
                // The registered owner re-requests: it has evicted the
                // line and its WbData is already in flight — wait for it
                // instead of fetching from ourselves.
                self.busy.insert(
                    line.0,
                    Txn {
                        requester,
                        is_x,
                        kind: TxnKind::WaitWb,
                        deps: deps.to_vec(),
                    },
                );
            }
            DirState::Modified(owner) => {
                self.busy.insert(
                    line.0,
                    Txn {
                        requester,
                        is_x,
                        kind: TxnKind::WaitFetch,
                        deps: deps.to_vec(),
                    },
                );
                self.send(
                    hook,
                    t,
                    home,
                    owner as usize,
                    ProtocolMsg::Fetch { line, owner },
                    &[req_id],
                );
            }
            DirState::Shared(set) if is_x => {
                let mut others = std::mem::take(&mut self.inv_targets);
                others.clear();
                others.extend(self.sharers.iter(set).filter(|&s| s != r));
                if others.is_empty() {
                    // Upgrade (or takeover of a stale-sharer set).
                    let proto = if self.sharers.contains(set, r) {
                        ProtocolMsg::UpgAck {
                            line,
                            to: requester,
                        }
                    } else {
                        ProtocolMsg::Data {
                            line,
                            to: requester,
                            grant_m: true,
                        }
                    };
                    // Data needs the L2; UpgAck does not.
                    if matches!(proto, ProtocolMsg::Data { .. }) {
                        self.reply_with_data(hook, t, req_id, line, requester, true, deps);
                    } else {
                        self.sharers.release(set);
                        self.dir.insert(line.0, DirState::Modified(requester));
                        self.send(hook, t, home, r, proto, deps);
                    }
                } else {
                    let pending = others.len() as u32;
                    for &s in &others {
                        self.send(
                            hook,
                            t,
                            home,
                            s,
                            ProtocolMsg::Inv {
                                line,
                                target: s as u16,
                            },
                            &[req_id],
                        );
                    }
                    self.busy.insert(
                        line.0,
                        Txn {
                            requester,
                            is_x,
                            kind: TxnKind::WaitAcks { pending },
                            deps: deps.to_vec(),
                        },
                    );
                }
                self.inv_targets = others;
            }
            DirState::Shared(_) | DirState::Uncached => {
                // Read from a shared/idle line, or write to an idle line.
                self.reply_with_data(hook, t, req_id, line, requester, is_x, deps);
            }
        }
    }

    /// Reply with line data, going to memory first on an L2 miss.
    #[allow(clippy::too_many_arguments)]
    fn reply_with_data(
        &mut self,
        hook: &mut dyn TraceHook,
        t: SimTime,
        req_id: MsgId,
        line: LineAddr,
        requester: u16,
        is_x: bool,
        deps: &[MsgId],
    ) {
        let home = self.home(line);
        let r = requester as usize;
        if self.l2[home].access(line).is_some() {
            let t = t + self.cyc(self.cfg.l2_cycles);
            self.finish_grant(line, requester, is_x);
            self.send(
                hook,
                t,
                home,
                r,
                ProtocolMsg::Data {
                    line,
                    to: requester,
                    grant_m: is_x,
                },
                deps,
            );
            self.complete_txn(hook, t, line, req_id);
        } else {
            let (_, mc_node) = self.mem_ctrl_of(line);
            self.busy.insert(
                line.0,
                Txn {
                    requester,
                    is_x,
                    kind: TxnKind::WaitMem,
                    deps: deps.to_vec(),
                },
            );
            self.send(
                hook,
                t + self.cyc(self.cfg.l2_cycles),
                home,
                mc_node,
                ProtocolMsg::MemReq { line },
                &[req_id],
            );
        }
    }

    /// Update the directory for a completed grant.
    fn finish_grant(&mut self, line: LineAddr, requester: u16, is_x: bool) {
        let state = self.dir.entry(line.0).or_insert(DirState::Uncached);
        let r = requester as usize;
        match (*state, is_x) {
            (DirState::Shared(s), false) => self.sharers.insert(s, r),
            (DirState::Shared(s), true) => {
                self.sharers.release(s);
                *state = DirState::Modified(requester);
            }
            (_, true) => *state = DirState::Modified(requester),
            (_, false) => *state = DirState::Shared(self.sharers.single(r)),
        }
    }

    /// Insert data into the L2 slice, spilling a dirty victim to memory.
    fn l2_fill(
        &mut self,
        hook: &mut dyn TraceHook,
        t: SimTime,
        line: LineAddr,
        dirty: bool,
        dep: MsgId,
    ) {
        let home = self.home(line);
        if let Some(mut w) = self.l2[home].access(line) {
            if dirty {
                w.set_meta(true);
            }
            return;
        }
        if let Some(victim) = self.l2[home].fill(line, dirty) {
            if victim.meta {
                let (_, mc_node) = self.mem_ctrl_of(victim.line);
                self.send(
                    hook,
                    t,
                    home,
                    mc_node,
                    ProtocolMsg::WbMem { line: victim.line },
                    &[dep],
                );
            }
        }
    }

    fn handle_inv_ack(&mut self, hook: &mut dyn TraceHook, at: SimTime, id: MsgId, line: LineAddr) {
        let txn = self.busy.get_mut(&line.0).expect("InvAck without txn");
        txn.deps.push(id);
        let TxnKind::WaitAcks { pending } = &mut txn.kind else {
            panic!("InvAck in {:?}", txn.kind);
        };
        *pending -= 1;
        if *pending > 0 {
            return;
        }
        let txn = self
            .busy
            .remove(&line.0)
            .expect("WaitAcks txn vanished while counting acks");
        // All sharers gone. Grant ownership — via L2 if data is needed.
        let t = at + self.cyc(self.cfg.dir_cycles);
        self.reply_with_data(hook, t, id, line, txn.requester, txn.is_x, &txn.deps);
        // reply_with_data either completed (and drained the queue) or
        // re-inserted a WaitMem txn; nothing more to do here.
    }

    fn handle_wb_data(&mut self, hook: &mut dyn TraceHook, at: SimTime, id: MsgId, line: LineAddr) {
        let t = at + self.cyc(self.cfg.dir_cycles);
        match self.busy.get(&line.0).map(|t| (t.clone(),)) {
            Some((txn,)) if matches!(txn.kind, TxnKind::WaitFetch | TxnKind::WaitWb) => {
                let mut txn = self
                    .busy
                    .remove(&line.0)
                    .expect("fetch/wb txn vanished while its writeback landed");
                txn.deps.push(id);
                self.l2_fill(hook, t, line, true, id);
                let home = self.home(line);
                self.finish_grant(line, txn.requester, txn.is_x);
                self.send(
                    hook,
                    t + self.cyc(self.cfg.l2_cycles),
                    home,
                    txn.requester as usize,
                    ProtocolMsg::Data {
                        line,
                        to: txn.requester,
                        grant_m: txn.is_x,
                    },
                    &txn.deps,
                );
                self.complete_txn(hook, t + self.cyc(self.cfg.l2_cycles), line, id);
            }
            _ => {
                // Voluntary dirty eviction.
                match self.dir.get(&line.0) {
                    Some(DirState::Modified(_)) => {
                        self.dir.insert(line.0, DirState::Uncached);
                    }
                    other => panic!("voluntary WbData for line in {other:?}"),
                }
                self.l2_fill(hook, t, line, true, id);
            }
        }
    }

    fn handle_mem_resp(
        &mut self,
        hook: &mut dyn TraceHook,
        at: SimTime,
        id: MsgId,
        line: LineAddr,
    ) {
        let t = at + self.cyc(self.cfg.l2_cycles);
        self.l2_fill(hook, t, line, false, id);
        let mut txn = self.busy.remove(&line.0).expect("MemResp without txn");
        debug_assert!(matches!(txn.kind, TxnKind::WaitMem));
        txn.deps.push(id);
        let home = self.home(line);
        self.finish_grant(line, txn.requester, txn.is_x);
        self.send(
            hook,
            t,
            home,
            txn.requester as usize,
            ProtocolMsg::Data {
                line,
                to: txn.requester,
                grant_m: txn.is_x,
            },
            &txn.deps,
        );
        self.complete_txn(hook, t, line, id);
    }

    /// After a transaction releases `line`, process the next queued
    /// request (its reply will additionally depend on `unblock`).
    fn complete_txn(
        &mut self,
        hook: &mut dyn TraceHook,
        at: SimTime,
        line: LineAddr,
        unblock: MsgId,
    ) {
        debug_assert!(!self.busy.contains_key(&line.0));
        let Some(q) = self.queued.get_mut(&line.0) else {
            return;
        };
        let Some(req) = q.pop_front() else {
            return;
        };
        if q.is_empty() {
            self.queued.remove(&line.0);
        }
        self.dir_request(
            hook,
            at,
            req.req_id,
            line,
            req.requester,
            req.is_x,
            Some(unblock),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::NullHook;
    use sctm_engine::net::AnalyticNetwork;

    /// Tiny deterministic workload: each core does strided loads/stores
    /// over a shared region plus private accesses, with barriers.
    struct MiniWorkload {
        cores: usize,
        pos: Vec<usize>,
        script_len: usize,
        shared_lines: u64,
        barriers: u32,
    }

    impl MiniWorkload {
        fn new(cores: usize, script_len: usize) -> Self {
            MiniWorkload {
                cores,
                pos: vec![0; cores],
                script_len,
                shared_lines: 64,
                barriers: 2,
            }
        }
    }

    impl Workload for MiniWorkload {
        fn num_cores(&self) -> usize {
            self.cores
        }
        fn name(&self) -> &'static str {
            "mini"
        }
        fn next_op(&mut self, core: usize) -> Op {
            let i = self.pos[core];
            self.pos[core] += 1;
            let phase = self.script_len / (self.barriers as usize + 1);
            if i >= self.script_len {
                return Op::Halt;
            }
            if phase > 0 && i % phase == phase - 1 && (i / phase) < self.barriers as usize {
                return Op::Barrier((i / phase) as u32);
            }
            match i % 4 {
                0 => Op::Compute(8),
                1 => {
                    // shared read
                    let line = (core as u64 * 7 + i as u64) % self.shared_lines;
                    Op::Load(line * 64)
                }
                2 => {
                    // private access
                    Op::Load(0x1_0000_0000 + core as u64 * 0x10000 + (i as u64 % 32) * 64)
                }
                _ => {
                    // shared write — contended ownership
                    let line = (i as u64) % self.shared_lines;
                    Op::Store(line * 64)
                }
            }
        }
    }

    fn analytic_net(nodes: usize) -> Box<dyn NetworkModel> {
        Box::new(AnalyticNetwork::new(
            nodes,
            SimTime::from_ns(10),
            SimTime::from_ns(2),
            10,
        ))
    }

    fn run_mini(side: usize, ops: usize) -> CmpResult {
        let cfg = CmpConfig::tiled(side);
        let n = cfg.num_cores();
        let mut sim = CmpSim::new(cfg, analytic_net(n), Box::new(MiniWorkload::new(n, ops)));
        sim.run(&mut NullHook)
    }

    #[test]
    fn runs_to_completion_and_validates() {
        let r = run_mini(2, 200);
        assert_eq!(r.total_ops, 4 * 201); // 200 script + final Halt each
        assert!(r.exec_time > SimTime::ZERO);
        assert!(r.messages_injected > 0);
        assert_eq!(r.messages_injected, r.messages_delivered);
    }

    #[test]
    fn sharing_generates_coherence_traffic() {
        let r = run_mini(2, 400);
        // Stores to shared lines must produce invalidations → more
        // messages than the bare miss/fill pairs.
        assert!(
            r.messages_injected as f64 > (r.total_loads + r.total_stores) as f64 * 0.1,
            "implausibly little traffic: {r:?}"
        );
        assert!(r.l1_hit_rate > 0.2, "hit rate {:.2}", r.l1_hit_rate);
        assert!(r.l1_hit_rate < 0.999);
    }

    #[test]
    fn larger_mesh_has_longer_exec_time_at_same_per_core_work() {
        // More cores contending for the same shared lines.
        let small = run_mini(2, 300);
        let large = run_mini(4, 300);
        assert!(large.messages_injected > small.messages_injected);
    }

    #[test]
    fn deterministic() {
        let a = run_mini(2, 300);
        let b = run_mini(2, 300);
        assert_eq!(a.exec_time, b.exec_time);
        assert_eq!(a.messages_injected, b.messages_injected);
        assert_eq!(a.total_ops, b.total_ops);
    }

    #[test]
    fn barriers_synchronise_cores() {
        // A workload where core 0 computes much longer than others:
        // all cores must still finish after core 0 reaches the barrier.
        struct Skewed {
            pos: Vec<usize>,
        }
        impl Workload for Skewed {
            fn num_cores(&self) -> usize {
                self.pos.len()
            }
            fn name(&self) -> &'static str {
                "skewed"
            }
            fn next_op(&mut self, core: usize) -> Op {
                let i = self.pos[core];
                self.pos[core] += 1;
                match i {
                    0 => {
                        if core == 0 {
                            Op::Compute(100_000)
                        } else {
                            Op::Compute(10)
                        }
                    }
                    1 => Op::Barrier(0),
                    _ => Op::Halt,
                }
            }
        }
        let cfg = CmpConfig::tiled(2);
        let mut sim = CmpSim::new(
            cfg.clone(),
            analytic_net(4),
            Box::new(Skewed { pos: vec![0; 4] }),
        );
        let r = sim.run(&mut NullHook);
        // Everyone waits for core 0's 100k cycles at 5 GHz = 20 µs.
        assert!(
            r.exec_time >= SimTime::from_us(20),
            "barrier did not hold: {}",
            r.exec_time
        );
    }

    #[test]
    fn time_breakdown_accounts_for_barrier_skew() {
        // One slow core (long compute), three fast ones: the fast cores
        // spend most of their time at the barrier.
        struct Skew {
            pos: Vec<usize>,
        }
        impl Workload for Skew {
            fn num_cores(&self) -> usize {
                self.pos.len()
            }
            fn name(&self) -> &'static str {
                "skew"
            }
            fn next_op(&mut self, core: usize) -> Op {
                let i = self.pos[core];
                self.pos[core] += 1;
                match i {
                    0 => Op::Compute(if core == 0 { 200_000 } else { 100 }),
                    1 => Op::Barrier(0),
                    _ => Op::Halt,
                }
            }
        }
        let cfg = CmpConfig::tiled(2);
        let mut sim = CmpSim::new(cfg, analytic_net(4), Box::new(Skew { pos: vec![0; 4] }));
        let r = sim.run(&mut NullHook);
        assert!(
            r.wait_barrier_frac > 0.5,
            "barrier skew invisible in breakdown: {:.2}",
            r.wait_barrier_frac
        );
        assert!(r.wait_fill_frac < 0.2);
        assert!(r.wait_fill_frac + r.wait_barrier_frac <= 1.01);
    }

    #[test]
    fn time_breakdown_shows_fill_wait_for_memory_bound_work() {
        let r = run_mini(2, 300);
        assert!(
            r.wait_fill_frac > 0.1,
            "memory-bound workload shows no fill wait: {:.3}",
            r.wait_fill_frac
        );
    }

    #[test]
    fn memory_latency_visible_in_miss_latency() {
        let r = run_mini(2, 200);
        // Cold misses go to memory: average miss must exceed the DRAM
        // latency alone at least for the cold fraction.
        assert!(
            r.avg_miss_latency_ns > 20.0,
            "misses too fast: {} ns",
            r.avg_miss_latency_ns
        );
    }

    #[test]
    fn private_data_stays_private() {
        // A workload touching only core-private lines must produce no
        // invalidations: message count ≈ 3 per miss (req, memreq chain,
        // fill) with no Inv/Fetch.
        struct Private {
            pos: Vec<usize>,
        }
        impl Workload for Private {
            fn num_cores(&self) -> usize {
                self.pos.len()
            }
            fn name(&self) -> &'static str {
                "private"
            }
            fn next_op(&mut self, core: usize) -> Op {
                let i = self.pos[core];
                self.pos[core] += 1;
                if i >= 64 {
                    Op::Halt
                } else {
                    Op::Store(0x100_0000 * (core as u64 + 1) + i as u64 * 64)
                }
            }
        }
        let cfg = CmpConfig::tiled(2);
        let mut sim = CmpSim::new(cfg, analytic_net(4), Box::new(Private { pos: vec![0; 4] }));
        let r = sim.run(&mut NullHook);
        // 4 cores × 64 cold store misses: GetX + MemReq + MemResp + Data
        // = 4 messages per miss (plus L1 writebacks of dirty victims).
        let per_miss = r.messages_injected as f64 / (4.0 * 64.0);
        assert!(
            (3.0..6.0).contains(&per_miss),
            "unexpected traffic per private miss: {per_miss}"
        );
    }
}
