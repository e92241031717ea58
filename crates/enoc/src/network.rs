//! Cycle-accurate wormhole virtual-channel NoC simulator.
//!
//! Classic canonical microarchitecture (Dally & Towles): per-input-port
//! virtual channels with credit-based flow control and a four-phase
//! router loop per network cycle — injection, route computation, VC
//! allocation, switch allocation + traversal. Pipeline depth and link
//! latency are modelled by stamping each forwarded flit with the first
//! cycle at which it may compete downstream (`ready_cycle`), which
//! reproduces zero-load per-hop latency `router_stages + link_cycles`
//! while keeping contention exact.
//!
//! The network is a mesh routed XY, which is deadlock-free on its own;
//! two virtual networks (control / data) prevent protocol deadlock for
//! request–reply traffic.
//!
//! **Order: none promised.** Two packets of one `(src, dst, class)`
//! flow follow the same XY path but may hold different VCs of their
//! virtual network, and VC allocation favours the lower slot, not the
//! older head. Under contention a later packet overtakes: dense random
//! traffic at 4×4 shows it (`tests/network_properties.rs` checks order
//! only on the kinds that promise it).
//!
//! The simulator skips idle time: with no flit in flight it jumps
//! straight to the next scheduled injection, so lightly loaded
//! full-system phases cost nothing.
//!
//! A busy cycle costs in proportion to the flits that can act in it,
//! not to the buffers that exist or the flits still in the pipeline.
//! Each router summarises its input VCs in request masks, one bit per
//! `port * V + vc` slot — `ready`, `want[out_port]`, `needs_va` — and
//! the simulator keeps a set of routers with a ready VC and a set of
//! NIs with queued flits; the phases walk set bits only. A VC's front
//! flit turns `ready` in the cycle its `ready_cycle` falls due: a flit
//! that becomes the front early is parked on a wake-up ring of
//! `(router, slot)` lists, one per cycle, that `step_cycle` drains
//! before the phases run. The masks are redundant state, updated where
//! a flit enters or leaves a VC (`push_flit`, `pop_flit`), where the
//! ring wakes it and where RC/VA decide, and `check_masks` re-derives
//! every one of them, and the ring, after each cycle in debug builds.
//! Visit order is part of the model: RC/VA takes slots in ascending
//! order, SA takes an output port's requesters from its round-robin
//! pointer upward, then wrapped (DESIGN.md §7). What the phases ask of
//! the topology per flit — which router is across this port, which way
//! dimension order goes from here — is read from two tables
//! `NocSim::new` builds once from [`Topology`]'s functions.

use crate::packet::{Flit, PacketizeConfig};
use crate::topology::{Port, Topology, DIRS, NUM_PORTS};
use sctm_engine::ledger::Ledger;
use sctm_engine::net::{Delivery, Message, NetStats, NetworkModel};
use sctm_engine::time::{Freq, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Electrical NoC configuration.
#[derive(Clone, Copy, Debug)]
pub struct NocConfig {
    pub topology: Topology,
    /// Virtual channels per virtual network.
    pub vcs_per_vnet: usize,
    /// Buffer depth per VC, in flits.
    pub buf_depth: usize,
    /// Router pipeline depth in cycles (head flit, uncontended).
    pub router_stages: u64,
    /// Link traversal cycles.
    pub link_cycles: u64,
    /// Network clock.
    pub freq: Freq,
    pub pkt: PacketizeConfig,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            topology: Topology::mesh(8, 8),
            vcs_per_vnet: 2,
            buf_depth: 4,
            router_stages: 2,
            link_cycles: 1,
            freq: Freq::from_ghz(2),
            pkt: PacketizeConfig::default(),
        }
    }
}

impl NocConfig {
    /// Total VCs per port (two vnets).
    #[inline]
    pub fn total_vcs(&self) -> usize {
        2 * self.vcs_per_vnet
    }
}

/// State of one input virtual channel.
#[derive(Clone, Debug, Default)]
struct InVc {
    /// The VC's buffer is a ring over its `buf_depth` slots of
    /// `Router::bufs`: `len` flits, the front one at `head`.
    head: usize,
    len: usize,
    /// Route of the packet currently occupying this VC.
    out_port: Option<Port>,
    /// Downstream VC granted to that packet (None for Local routes).
    out_vc: Option<usize>,
}

/// One bit per input-VC slot `port * V + vc` of a router.
type SlotMask = u64;

/// Largest `vcs_per_vnet` whose `NUM_PORTS * total_vcs()` slots fit a
/// [`SlotMask`].
const MAX_VCS_PER_VNET: usize = SlotMask::BITS as usize / (2 * NUM_PORTS);

/// Set bits of `m`, ascending.
fn slots(mut m: SlotMask) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (m != 0).then(|| {
            let pv = m.trailing_zeros() as usize;
            m &= m - 1;
            pv
        })
    })
}

#[derive(Clone, Debug)]
struct Router {
    /// Input VCs, indexed `port * V + vc`.
    invc: Vec<InVc>,
    /// Flit storage of all input VCs, `depth` slots each.
    bufs: Vec<Flit>,
    depth: usize,
    /// Free downstream buffer slots, indexed `out_port * V + vc`.
    credits: Vec<usize>,
    /// Whether the downstream VC is currently held by a packet.
    out_alloc: Vec<bool>,
    /// Round-robin pointer per output port for switch allocation.
    sa_rr: [usize; NUM_PORTS],
    /// Flits resident in this router's input buffers.
    occupancy: usize,
    /// Input VCs whose front flit may compete this cycle: its
    /// `ready_cycle` has come and the wake-up ring has delivered it.
    ready: SlotMask,
    /// Input VCs routed to each output port: set by RC, cleared when
    /// the packet's tail leaves.
    want: [SlotMask; NUM_PORTS],
    /// Input VCs whose front flit is a head still lacking a route, or
    /// a downstream VC on a direction route.
    needs_va: SlotMask,
}

impl Router {
    /// Front flit of input VC `pv`.
    #[inline]
    fn front(&self, pv: usize) -> Option<&Flit> {
        let ivc = &self.invc[pv];
        (ivc.len > 0).then(|| &self.bufs[pv * self.depth + ivc.head])
    }
}

/// A set of node indices, walked in ascending order.
#[derive(Clone, Debug)]
struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    fn new(nodes: usize) -> Self {
        NodeSet {
            words: vec![0; nodes.div_ceil(64)],
        }
    }

    #[inline]
    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    #[cfg(debug_assertions)]
    fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Smallest member `>= from`. The phases call this once per visit
    /// rather than iterating a copy: traversal pushes flits into
    /// neighbouring routers, and one that joins the set above the
    /// cursor is part of this cycle's walk.
    #[inline]
    fn next_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut word = *self.words.get(w)? & (!0 << (from % 64));
        while word == 0 {
            w += 1;
            word = *self.words.get(w)?;
        }
        Some(w * 64 + word.trailing_zeros() as usize)
    }
}

/// Per-node network interface: the packet source queue.
#[derive(Clone, Debug, Default)]
struct Ni {
    q: VecDeque<Flit>,
    /// VC currently carrying the packet at the front of `q`.
    cur_vc: Option<usize>,
}

/// The electrical NoC simulator.
#[derive(Clone, Debug)]
pub struct NocSim {
    cfg: NocConfig,
    routers: Vec<Router>,
    /// Routers with `ready != 0`.
    ready_set: NodeSet,
    /// Wake-up ring: `wake[c % len]` holds the `(router, slot)` VCs
    /// whose front flit turns ready in cycle `c`. Its length, a power of
    /// two above `router_stages + link_cycles`, covers the furthest a
    /// front's due cycle can lie ahead.
    wake: Vec<Vec<(u32, u32)>>,
    nis: Vec<Ni>,
    /// NIs with a non-empty source queue.
    ni_nonempty: NodeSet,
    /// Future injections not yet due, ordered by time then id.
    pending: BinaryHeap<Reverse<(SimTime, u64)>>,
    /// Every message from injection until its tail flit ejects.
    ledger: Ledger,
    cycle: u64,
    /// Flits anywhere inside routers or NI queues.
    active_flits: usize,
    /// Cycles since a flit last moved, for deadlock detection.
    stall_cycles: u64,
    /// `neigh[node * 4 + dir]`: the router across direction port `dir`
    /// ([`WALL`] where the mesh ends), as [`Topology::neighbor`] says.
    neigh: Vec<u32>,
    /// `dor[here * nodes + dst]`: the XY output port, as
    /// [`Topology::route_dor`] says.
    dor: Vec<Port>,
}

/// No router across this port: a mesh edge.
const WALL: u32 = u32::MAX;

/// A full network that has made no forward progress for this many cycles
/// is declared deadlocked (a model bug, not a workload property).
const DEADLOCK_CYCLES: u64 = 100_000;

impl NocSim {
    pub fn new(cfg: NocConfig) -> Self {
        assert!(cfg.vcs_per_vnet >= 1);
        assert!(
            cfg.vcs_per_vnet <= MAX_VCS_PER_VNET,
            "vcs_per_vnet {} exceeds the limit of {MAX_VCS_PER_VNET}: a router's \
             {NUM_PORTS} ports × 2 vnets × vcs_per_vnet input VCs must fit one \
             {}-bit request mask",
            cfg.vcs_per_vnet,
            SlotMask::BITS
        );
        assert!(cfg.buf_depth >= 1);
        let n = cfg.topology.num_nodes();
        let v = cfg.total_vcs();
        // Topology is data, built once: the phases below read these two
        // tables per flit instead of dividing node ids by the mesh
        // width.
        let topo = cfg.topology;
        let node_id = |i: usize| sctm_engine::net::NodeId(i as u32);
        let neigh: Vec<u32> = (0..n)
            .flat_map(|i| DIRS.map(|p| topo.neighbor(node_id(i), p).map_or(WALL, |nb| nb.0)))
            .collect();
        let dor = (0..n)
            .flat_map(|h| (0..n).map(move |d| (h, d)))
            .map(|(h, d)| topo.route_dor(node_id(h), node_id(d)))
            .collect();
        let routers = (0..n)
            .map(|i| {
                let mut credits = vec![0usize; NUM_PORTS * v];
                for p in DIRS {
                    if neigh[i * DIRS.len() + p.idx()] != WALL {
                        for vc in 0..v {
                            credits[p.idx() * v + vc] = cfg.buf_depth;
                        }
                    }
                }
                // Local output (ejection) has no downstream buffer limit.
                for vc in 0..v {
                    credits[Port::Local.idx() * v + vc] = usize::MAX / 2;
                }
                Router {
                    invc: vec![InVc::default(); NUM_PORTS * v],
                    bufs: vec![Flit::EMPTY_SLOT; NUM_PORTS * v * cfg.buf_depth],
                    depth: cfg.buf_depth,
                    credits,
                    out_alloc: vec![false; NUM_PORTS * v],
                    sa_rr: [0; NUM_PORTS],
                    occupancy: 0,
                    ready: 0,
                    want: [0; NUM_PORTS],
                    needs_va: 0,
                }
            })
            .collect();
        let ring = (cfg.router_stages + cfg.link_cycles + 1).next_power_of_two();
        NocSim {
            cfg,
            routers,
            ready_set: NodeSet::new(n),
            wake: vec![Vec::new(); ring as usize],
            nis: (0..n).map(|_| Ni::default()).collect(),
            ni_nonempty: NodeSet::new(n),
            pending: BinaryHeap::new(),
            ledger: Ledger::new(),
            cycle: 0,
            active_flits: 0,
            stall_cycles: 0,
            neigh,
            dor,
        }
    }

    /// The router across direction port `dir` of `node`; `wall` is what
    /// to say when there is none, which the caller knows cannot be.
    #[inline]
    fn across(&self, node: usize, dir: usize, wall: &str) -> usize {
        let nb = self.neigh[node * DIRS.len() + dir];
        assert_ne!(nb, WALL, "{wall}");
        nb as usize
    }

    /// Current network cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    #[inline]
    fn time_of(&self, cycle: u64) -> SimTime {
        self.cfg.freq.cycles(cycle)
    }

    /// First cycle whose edge is at or after `t`.
    #[inline]
    fn cycle_at(&self, t: SimTime) -> u64 {
        let p = self.cfg.freq.period().as_ps();
        t.as_ps().div_ceil(p)
    }

    /// The VC indices of virtual network `vnet`: the ones its head
    /// flits may claim, at the local input port and downstream.
    #[inline]
    fn vnet_vcs(&self, vnet: u8) -> std::ops::Range<usize> {
        let k = self.cfg.vcs_per_vnet;
        let base = vnet as usize * k;
        base..base + k
    }

    /// Move a due pending message into its source NI queue.
    fn release_pending(&mut self, until: SimTime) {
        while let Some(&Reverse((t, id))) = self.pending.peek() {
            if t > until {
                break;
            }
            self.pending.pop();
            let msg = self.ledger[id].msg;
            let flits = self.cfg.pkt.packetize(&msg);
            self.active_flits += flits.len();
            self.nis[msg.src.idx()].q.extend(flits);
            self.ni_nonempty.insert(msg.src.idx());
        }
    }

    /// The front flit of input VC `pv` of router `node` may compete
    /// from cycle `due` on: at once if that cycle has come, else when
    /// the wake-up ring reaches it.
    #[inline]
    fn wake_at(&mut self, node: usize, pv: usize, due: u64) {
        if due <= self.cycle {
            self.routers[node].ready |= 1 << pv;
            self.ready_set.insert(node);
        } else {
            let ring = self.wake.len();
            debug_assert!(due - self.cycle <= ring as u64, "wake-up beyond the ring");
            self.wake[due as usize & (ring - 1)].push((node as u32, pv as u32));
        }
    }

    /// The fronts that fall due this cycle turn ready.
    fn wake_due(&mut self) {
        let at = self.cycle as usize & (self.wake.len() - 1);
        let mut due = std::mem::take(&mut self.wake[at]);
        for &(node, pv) in &due {
            self.routers[node as usize].ready |= 1 << pv;
            self.ready_set.insert(node as usize);
        }
        due.clear();
        self.wake[at] = due;
    }

    /// A flit enters input VC `pv` of router `node`.
    #[inline]
    fn push_flit(&mut self, node: usize, pv: usize, f: Flit) {
        let r = &mut self.routers[node];
        let ivc = &mut r.invc[pv];
        assert!(ivc.len < r.depth, "input VC overflow: credits out of step");
        let front = ivc.len == 0;
        if front && f.kind.is_head() {
            r.needs_va |= 1 << pv;
        }
        let mut at = ivc.head + ivc.len;
        if at >= r.depth {
            at -= r.depth;
        }
        r.bufs[pv * r.depth + at] = f;
        ivc.len += 1;
        r.occupancy += 1;
        if front {
            self.wake_at(node, pv, f.ready_cycle);
        }
    }

    /// The front flit of input VC `pv` of router `node` leaves; a tail
    /// releases the VC's route. Returns the flit and the downstream VC
    /// its packet held.
    #[inline]
    fn pop_flit(&mut self, node: usize, pv: usize) -> (Flit, Option<usize>) {
        let r = &mut self.routers[node];
        let ivc = &mut r.invc[pv];
        assert!(ivc.len > 0, "granted an empty VC");
        let f = r.bufs[pv * r.depth + ivc.head];
        ivc.head += 1;
        if ivc.head == r.depth {
            ivc.head = 0;
        }
        ivc.len -= 1;
        let ovc = ivc.out_vc;
        if f.kind.is_tail() {
            let out = ivc.out_port.take().expect("tail left an unrouted VC");
            ivc.out_vc = None;
            r.want[out.idx()] &= !(1 << pv);
            if ivc.len > 0 {
                // The next packet's head queued up behind this tail.
                r.needs_va |= 1 << pv;
            }
        }
        r.occupancy -= 1;
        r.ready &= !(1 << pv);
        if r.ready == 0 {
            self.ready_set.remove(node);
        }
        if ivc.len > 0 {
            // This cycle has read the VC's input port already, so the
            // flit behind competes from the next cycle at the earliest.
            let next = r.bufs[pv * r.depth + ivc.head].ready_cycle;
            self.wake_at(node, pv, next.max(self.cycle + 1));
        }
        (f, ovc)
    }

    /// Phase A: each NI tries to place one flit into the router's local
    /// input port.
    fn phase_inject(&mut self) {
        let v = self.cfg.total_vcs();
        let lp = Port::Local.idx();
        let mut next = 0;
        while let Some(node) = self.ni_nonempty.next_from(next) {
            next = node + 1;
            let front = *self.nis[node].q.front().expect("empty NI in ni_nonempty");
            let router = &self.routers[node];
            let chosen = if front.kind.is_head() {
                // Head claims a fully idle local VC in its vnet.
                self.vnet_vcs(front.vnet).find(|&vc| {
                    let ivc = &router.invc[lp * v + vc];
                    ivc.len == 0 && ivc.out_port.is_none()
                })
            } else {
                // Body/tail follow the head's VC if there is space.
                self.nis[node]
                    .cur_vc
                    .filter(|&vc| router.invc[lp * v + vc].len < self.cfg.buf_depth)
            };
            if let Some(vc) = chosen {
                let ni = &mut self.nis[node];
                let mut f = ni.q.pop_front().unwrap();
                ni.cur_vc = if f.kind.is_tail() { None } else { Some(vc) };
                if ni.q.is_empty() {
                    self.ni_nonempty.remove(node);
                }
                f.ready_cycle = self.cycle + self.cfg.router_stages;
                self.push_flit(node, lp * v + vc, f);
                self.stall_cycles = 0;
            }
        }
    }

    /// Phase B: route computation + VC allocation for head flits, in
    /// ascending slot order so the lower slot gets first pick of a free
    /// output VC.
    fn phase_rc_va(&mut self) {
        let v = self.cfg.total_vcs();
        let n = self.routers.len();
        let mut next = 0;
        while let Some(node) = self.ready_set.next_from(next) {
            next = node + 1;
            let r = &self.routers[node];
            for pv in slots(r.needs_va & r.ready) {
                let r = &self.routers[node];
                let head = *r.front(pv).expect("needs_va on an empty VC");
                let out = match r.invc[pv].out_port {
                    Some(out) => out,
                    None => {
                        let out = self.dor[node * n + head.dst.idx()];
                        let r = &mut self.routers[node];
                        r.invc[pv].out_port = Some(out);
                        r.want[out.idx()] |= 1 << pv;
                        out
                    }
                };
                if out == Port::Local {
                    self.routers[node].needs_va &= !(1 << pv); // ejection needs no VC
                    continue;
                }
                // Allocate a free VC on this router's output side
                // (mirrors the downstream input VC).
                let mut range = self.vnet_vcs(head.vnet);
                let router = &mut self.routers[node];
                let grant = range.find(|&vc| !router.out_alloc[out.idx() * v + vc]);
                if let Some(vc) = grant {
                    router.out_alloc[out.idx() * v + vc] = true;
                    router.invc[pv].out_vc = Some(vc);
                    router.needs_va &= !(1 << pv);
                }
            }
        }
    }

    /// Phase C: switch allocation + traversal. At most one grant per
    /// output port and one read per input port per cycle; each output
    /// port serves its requesters round-robin from `sa_rr`.
    fn phase_sa_st(&mut self, out: &mut Vec<Delivery>) {
        let v = self.cfg.total_vcs();
        let total = NUM_PORTS * v;
        let port_slots: SlotMask = (1 << v) - 1;
        let mut next = 0;
        while let Some(node) = self.ready_set.next_from(next) {
            next = node + 1;
            // Slots of input ports not yet read this cycle.
            let mut unread: SlotMask = !0;
            for out_port in [
                Port::Local,
                Port::North,
                Port::East,
                Port::South,
                Port::West,
            ] {
                let op = out_port.idx();
                let r = &self.routers[node];
                let requests = r.want[op] & r.ready & unread;
                if requests == 0 {
                    continue;
                }
                let grantable = |&pv: &usize| {
                    out_port == Port::Local
                        || r.invc[pv]
                            .out_vc
                            .is_some_and(|ovc| r.credits[op * v + ovc] > 0)
                };
                // From the round-robin pointer upward, then wrapped.
                let below_rr: SlotMask = (1 << r.sa_rr[op]) - 1;
                let Some(pv) = slots(requests & !below_rr)
                    .chain(slots(requests & below_rr))
                    .find(grantable)
                else {
                    continue;
                };
                let in_port = pv / v;
                unread &= !(port_slots << (in_port * v));
                self.routers[node].sa_rr[op] = (pv + 1) % total;
                self.stall_cycles = 0;

                // Traversal: pop the flit and move it.
                let (mut flit, ovc) = self.pop_flit(node, pv);

                // Return a credit to whoever feeds this input VC.
                if in_port != Port::Local.idx() {
                    let up = self.across(node, in_port, "flit arrived through a dead port");
                    let up_out = Port::from_idx(in_port).opposite().idx();
                    self.routers[up].credits[up_out * v + (pv % v)] += 1;
                }

                if out_port == Port::Local {
                    // Ejection completes at the end of this cycle —
                    // which is also the earliest instant the owning
                    // co-simulation can observe it (its `next_time`
                    // horizon is the next cycle edge), so stamping the
                    // start of the cycle would deliver into the past.
                    self.active_flits -= 1;
                    if flit.kind.is_tail() {
                        let delivered_at = self.time_of(self.cycle + 1);
                        self.deliver(delivered_at, flit.pkt.0, out);
                    }
                } else {
                    let ovc = ovc.expect("direction route without VC");
                    self.routers[node].credits[op * v + ovc] -= 1;
                    if flit.kind.is_tail() {
                        self.routers[node].out_alloc[op * v + ovc] = false;
                    }
                    flit.ready_cycle = self.cycle + self.cfg.link_cycles + self.cfg.router_stages;
                    let down = self.across(node, op, "route into a wall");
                    self.push_flit(down, out_port.opposite().idx() * v + ovc, flit);
                }
            }
        }
    }

    /// The request masks, the wake-up ring, the node sets and the
    /// occupancy counts are redundant with the buffers, stamps and
    /// routes they summarise; check at the end of a cycle that every one
    /// of them says what the underlying state says.
    #[cfg(debug_assertions)]
    fn check_masks(&self) {
        let ring = self.wake.len();
        let per_router = NUM_PORTS * self.cfg.total_vcs();
        // Ring position of each VC's pending wake-up.
        let mut queued = vec![None; self.routers.len() * per_router];
        for (at, due) in self.wake.iter().enumerate() {
            for &(node, pv) in due {
                let q = &mut queued[node as usize * per_router + pv as usize];
                assert_eq!(*q, None, "two wake-ups for {node}/{pv}");
                *q = Some(at);
            }
        }
        for (node, r) in self.routers.iter().enumerate() {
            let mut held = 0;
            for (pv, ivc) in r.invc.iter().enumerate() {
                let bit = |m: SlotMask| m & (1 << pv) != 0;
                held += ivc.len;
                let pending = queued[node * per_router + pv];
                match r.front(pv) {
                    None => assert!(
                        !bit(r.ready) && pending.is_none(),
                        "ready or wake-up on empty {node}/{pv}"
                    ),
                    Some(f) if bit(r.ready) => {
                        assert!(f.ready_cycle <= self.cycle, "ready too early {node}/{pv}");
                        assert_eq!(pending, None, "ready and queued {node}/{pv}");
                    }
                    Some(f) => {
                        let due = f.ready_cycle.max(self.cycle + 1);
                        assert_eq!(pending, Some(due as usize % ring), "wake-up {node}/{pv}");
                    }
                }
                for (op, &want) in r.want.iter().enumerate() {
                    let routed = ivc.out_port.map(Port::idx) == Some(op);
                    assert_eq!(bit(want), routed, "want[{op}] {node}/{pv}");
                }
                let awaiting = r.front(pv).is_some_and(|f| f.kind.is_head())
                    && match ivc.out_port {
                        None => true,
                        Some(Port::Local) => false,
                        Some(_) => ivc.out_vc.is_none(),
                    };
                assert_eq!(bit(r.needs_va), awaiting, "needs_va {node}/{pv}");
            }
            assert_eq!(r.occupancy, held, "occupancy {node}");
            assert_eq!(
                self.ready_set.contains(node),
                r.ready != 0,
                "ready_set {node}"
            );
        }
        for (node, ni) in self.nis.iter().enumerate() {
            assert_eq!(
                self.ni_nonempty.contains(node),
                !ni.q.is_empty(),
                "ni_nonempty {node}"
            );
        }
    }

    fn step_cycle(&mut self, out: &mut Vec<Delivery>) {
        self.stall_cycles += 1;
        self.wake_due();
        self.phase_inject();
        self.phase_rc_va();
        self.phase_sa_st(out);
        #[cfg(debug_assertions)]
        self.check_masks();
        assert!(
            self.stall_cycles < DEADLOCK_CYCLES,
            "NoC deadlock: {} flits frozen for {} cycles at cycle {}",
            self.active_flits,
            DEADLOCK_CYCLES,
            self.cycle
        );
        self.cycle += 1;
    }

    /// Retire the message whose tail flit ejected. Kept out of line:
    /// inlined into the switch-traversal loop it slowed the 16-core
    /// replay pass by 2 % on a 2-vCPU x86-64 host (EXPERIMENTS.md §P26).
    #[inline(never)]
    fn deliver(&mut self, at: SimTime, id: u64, out: &mut Vec<Delivery>) {
        self.ledger.deliver(at, id, out);
    }

    fn idle(&self) -> bool {
        self.active_flits == 0
    }
}

impl NetworkModel for NocSim {
    fn num_nodes(&self) -> usize {
        self.cfg.topology.num_nodes()
    }

    fn inject(&mut self, at: SimTime, msg: Message) {
        debug_assert!(msg.dst.idx() < self.num_nodes() && msg.src.idx() < self.num_nodes());
        let at = at.max(self.time_of(self.cycle));
        self.pending.push(Reverse((at, msg.id.0)));
        self.ledger.inject(at, msg, ());
    }

    fn next_time(&self) -> Option<SimTime> {
        if !self.idle() {
            return Some(self.time_of(self.cycle + 1));
        }
        self.pending
            .peek()
            .map(|Reverse((t, _))| self.time_of(self.cycle_at(*t).max(self.cycle + 1)))
    }

    fn advance_until(&mut self, t: SimTime, out: &mut Vec<Delivery>) {
        loop {
            let now = self.time_of(self.cycle);
            self.release_pending(now);
            if self.idle() {
                // Jump to the next injection, or stop at the deadline.
                match self.pending.peek() {
                    Some(&Reverse((pt, _))) if pt <= t => {
                        self.cycle = self.cycle.max(self.cycle_at(pt));
                        self.release_pending(self.time_of(self.cycle));
                    }
                    _ => {
                        self.cycle = self.cycle.max(self.cycle_at(t));
                        return;
                    }
                }
            }
            if self.time_of(self.cycle + 1) > t {
                return;
            }
            self.step_cycle(out);
        }
    }

    fn stats(&self) -> &NetStats {
        self.ledger.stats()
    }

    fn label(&self) -> &'static str {
        "emesh"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sctm_engine::net::{MsgClass, MsgId, NodeId};

    fn cfg4() -> NocConfig {
        NocConfig {
            topology: Topology::mesh(4, 4),
            ..NocConfig::default()
        }
    }

    fn msg(id: u64, src: u32, dst: u32, class: MsgClass, bytes: u32) -> Message {
        Message {
            id: MsgId(id),
            src: NodeId(src),
            dst: NodeId(dst),
            class,
            bytes,
        }
    }

    fn drain_all(sim: &mut NocSim) -> Vec<Delivery> {
        let mut out = Vec::new();
        sim.drain(&mut out);
        out
    }

    #[test]
    fn zero_load_latency_matches_model() {
        let cfg = cfg4();
        let mut sim = NocSim::new(cfg);
        // 0 -> 3: 3 hops, control message, 1 flit.
        sim.inject(SimTime::ZERO, msg(1, 0, 3, MsgClass::Control, 8));
        let out = drain_all(&mut sim);
        let cycles = out[0].latency().as_ps() / cfg.freq.period().as_ps();
        // The source router's pipeline, a link and a pipeline per hop,
        // and the ejection cycle.
        let per_hop = cfg.router_stages + cfg.link_cycles;
        assert_eq!(cycles, cfg.router_stages + 3 * per_hop + 1);
    }

    #[test]
    fn longer_paths_take_longer() {
        let cfg = cfg4();
        let mut a = NocSim::new(cfg);
        a.inject(SimTime::ZERO, msg(1, 0, 1, MsgClass::Control, 8));
        let la = drain_all(&mut a)[0].latency();
        let mut b = NocSim::new(cfg);
        b.inject(SimTime::ZERO, msg(1, 0, 15, MsgClass::Control, 8));
        let lb = drain_all(&mut b)[0].latency();
        assert!(lb > la, "6 hops ({lb}) not slower than 1 hop ({la})");
    }

    #[test]
    fn data_packets_slower_than_control() {
        let cfg = cfg4();
        let mut a = NocSim::new(cfg);
        a.inject(SimTime::ZERO, msg(1, 0, 15, MsgClass::Control, 8));
        let la = drain_all(&mut a)[0].latency();
        let mut b = NocSim::new(cfg);
        b.inject(SimTime::ZERO, msg(1, 0, 15, MsgClass::Data, 64));
        let lb = drain_all(&mut b)[0].latency();
        assert!(
            lb > la,
            "5-flit data ({lb}) not slower than 1-flit ctrl ({la})"
        );
    }

    #[test]
    fn all_pairs_deliver_at_the_widest_mask() {
        let cfg = NocConfig {
            vcs_per_vnet: MAX_VCS_PER_VNET,
            ..cfg4()
        };
        let mut sim = NocSim::new(cfg);
        let mut id = 0;
        for s in 0..16 {
            for d in 0..16 {
                id += 1;
                sim.inject(SimTime::ZERO, msg(id, s, d, MsgClass::Data, 64));
            }
        }
        assert_eq!(drain_all(&mut sim).len(), 256);
    }

    #[test]
    #[should_panic(expected = "exceeds the limit of 6")]
    fn more_vcs_than_the_mask_holds_are_rejected() {
        NocSim::new(NocConfig {
            vcs_per_vnet: MAX_VCS_PER_VNET + 1,
            ..cfg4()
        });
    }

    #[test]
    fn advance_until_does_not_overshoot() {
        let mut sim = NocSim::new(cfg4());
        sim.inject(SimTime::ZERO, msg(1, 0, 15, MsgClass::Data, 64));
        let mut out = Vec::new();
        sim.advance_until(SimTime::from_ps(200), &mut out);
        assert!(out.is_empty(), "message cannot cross the chip in one cycle");
        // finish
        sim.drain(&mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn idle_network_skips_time_cheaply() {
        let mut sim = NocSim::new(cfg4());
        sim.inject(SimTime::from_us(100), msg(1, 0, 5, MsgClass::Control, 8));
        let mut out = Vec::new();
        sim.advance_until(SimTime::from_us(99), &mut out);
        // Should not have simulated ~200k idle cycles one by one:
        // cycle jumped straight to the deadline.
        assert!(out.is_empty());
        assert!(sim.cycle() >= 197_000, "cycle={}", sim.cycle());
        sim.drain(&mut out);
        assert_eq!(out.len(), 1);
    }
}
