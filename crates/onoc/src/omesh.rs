//! Circuit-switched photonic mesh (PhoenixSim-style).
//!
//! Data messages travel optically on a mesh of waveguides with microring
//! switches. Before light can be launched, an electrical *setup* packet
//! walks the XY route hop by hop, reserving each waveguide segment; when
//! it reaches the destination an ACK returns to the source, which then
//! transmits the whole message as one optical burst (time of flight +
//! serialisation) and finally tears the path down. Short control
//! messages are sent directly on the electrical control plane — paying
//! the optical setup overhead for an 8-byte message would be absurd, and
//! this hybrid split is what the 2012-era designs did.
//!
//! Contention is modelled at two honest points:
//! * waveguide segments are held for the full transfer, so colliding
//!   paths serialise (the dominant circuit-switching effect), and
//! * each control-plane router serves one setup/control event per
//!   service slot, so the electrical plane saturates realistically.
//!
//! Hold-and-wait on XY-ordered segments cannot deadlock: the segment
//! acquisition order follows the XY channel dependency graph, which is
//! acyclic (same argument as XY wormhole routing).
//!
//! **Order.** Messages of one `(src, dst, class)` that take the same
//! plane are delivered in injection order (equal injection times in the
//! order `inject` was called). Both planes are FIFO along one fixed XY
//! path: each control-plane router serves events in arrival order, and
//! a setup that finds a segment busy queues behind the earlier setup,
//! whose path stays held until its message is delivered. The plane is a
//! function of class, size and self-send, so a flow of one payload size
//! keeps its order; a data message at or below `ctrl_cutoff_bytes`
//! rides the electrical plane and may overtake an earlier optical one.

use crate::layout::Floorplan;
use sctm_engine::event::EventQueue;
use sctm_engine::ledger::Ledger;
use sctm_engine::net::{Delivery, Message, MsgClass, NetStats, NetworkModel, NodeId};
use sctm_engine::time::{Freq, SimTime};
use sctm_enoc::{Port, Topology};
use sctm_photonic::{ChannelPlan, DeviceKit, LinkBudget};
use std::collections::VecDeque;

/// Configuration for the circuit-switched photonic mesh.
#[derive(Clone, Copy, Debug)]
pub struct OmeshConfig {
    pub floorplan: Floorplan,
    pub kit: DeviceKit,
    pub plan: ChannelPlan,
    /// Electrical control-plane clock.
    pub ctrl_freq: Freq,
    /// Per-hop latency of setup/control packets, control cycles.
    pub setup_hop_cycles: u64,
    /// Router service occupancy per control event, control cycles.
    pub service_cycles: u64,
    /// NI latency at each end, control cycles.
    pub ni_cycles: u64,
    /// Messages at or below this payload go electrically.
    pub ctrl_cutoff_bytes: u32,
}

impl OmeshConfig {
    pub fn new(side: usize) -> Self {
        OmeshConfig {
            floorplan: Floorplan::new(side, 2.5),
            kit: DeviceKit::default(),
            plan: ChannelPlan::default(),
            ctrl_freq: Freq::from_ghz(2),
            setup_hop_cycles: 3,
            service_cycles: 1,
            ni_cycles: 2,
            ctrl_cutoff_bytes: 8,
        }
    }

    /// The loss/power budget of this instance.
    pub fn budget(&self) -> LinkBudget {
        self.floorplan.omesh_budget(self.kit, self.plan)
    }
}

/// One XY step, `step[here * nodes + dst]`, packed into a word so a
/// 64-core table is 16 KiB: the neighbour across the step (bits 12..),
/// the hop count from `here` to `dst` (bits 2..12) and the direction
/// (bits 0..2: 0=N, 1=E, 2=S, 3=W, [`Port`]'s order). The segment the
/// step reserves is `here * 4 + dir`. For `here == dst` only the hop
/// count (zero) means anything.
#[derive(Clone, Copy, Debug)]
struct Step(u32);

impl Step {
    /// The widest mesh the packing holds: 2 × 511 hops fit the 10 hop
    /// bits and 512² nodes the 20 neighbour bits. (Its table would be
    /// 256 GiB; memory gives out long before the packing does.)
    const MAX_SIDE: usize = 512;

    fn new(nb: usize, hops: usize, dir: usize) -> Self {
        debug_assert!(nb < 1 << 20 && hops < 1 << 10 && dir < 4);
        Step((nb as u32) << 12 | (hops as u32) << 2 | dir as u32)
    }

    #[inline]
    fn nb(self) -> u32 {
        self.0 >> 12
    }

    #[inline]
    fn hops(self) -> usize {
        (self.0 >> 2 & 0x3ff) as usize
    }

    /// The directed segment this step reserves out of `here`.
    #[inline]
    fn seg(self, here: u32) -> usize {
        (here << 2 | self.0 & 3) as usize
    }
}

/// Every event carries where it is and where it goes, so a hop reads
/// the route table and never the message table: only the last setup
/// hop and the deliveries do.
#[derive(Clone, Copy, Debug)]
enum Ev {
    /// Optical path setup packet arrives at a router: `(id, here, dst)`.
    Setup(u32, u32, u32),
    /// Electrical control message arrives at a router: `(id, here, dst)`.
    CtrlHop(u32, u32, u32),
    /// Optical burst fully received; tear down `src → dst` and deliver:
    /// `(id, src, dst)`.
    OptDone(u32, u32, u32),
    /// Electrical delivery.
    CtrlDone(u32),
}

/// Circuit-switched photonic mesh simulator.
#[derive(Clone, Debug)]
pub struct OmeshSim {
    cfg: OmeshConfig,
    q: EventQueue<Ev>,
    /// Per message, path reserved → delivered: ACK + time of flight +
    /// burst + the trailing NI, fixed at injection (unused on the
    /// electrical plane).
    ledger: Ledger<SimTime>,
    /// `step[here * nodes + dst]`: the XY route as data, built once from
    /// [`Topology::neighbor`] and [`Topology::route_dor`] — the same XY
    /// definition `sctm-enoc`'s `dor` table reads.
    step: Vec<Step>,
    /// `ack_tof[h]`: reservation ACK plus time of flight of an `h`-hop
    /// path (both functions of the hop count alone).
    ack_tof: Vec<SimTime>,
    /// Router service slot, one setup/control wire hop, one NI.
    svc: SimTime,
    hop: SimTime,
    ni: SimTime,
    nodes: usize,
    /// Directed segment `node*4+dir` → holder message id.
    seg_busy: Vec<Option<u32>>,
    /// Parked setups per segment: `(message id, next router, dst)`.
    seg_wait: Vec<VecDeque<(u32, u32, u32)>>,
    /// Control-plane router next-free times.
    router_free: Vec<SimTime>,
}

impl OmeshSim {
    pub fn new(cfg: OmeshConfig) -> Self {
        let side = cfg.floorplan.side;
        let n = cfg.floorplan.num_nodes();
        assert!(side <= Step::MAX_SIDE, "omesh side {side} is too wide");
        let topo = Topology::mesh(side, side);
        let node = |i: usize| NodeId(i as u32);
        let step = (0..n)
            .flat_map(|h| (0..n).map(move |d| (node(h), node(d))))
            .map(|(h, d)| {
                let hops = topo.hops(h, d);
                match topo.route_dor(h, d) {
                    Port::Local => Step::new(h.idx(), hops, 0),
                    p => {
                        let nb = topo.neighbor(h, p).expect("XY step off the mesh");
                        Step::new(nb.idx(), hops, p.idx())
                    }
                }
            })
            .collect();
        let ack_tof = (0..=2 * (side as u64 - 1))
            .map(|h| {
                let ack = cfg.ctrl_freq.cycles(cfg.setup_hop_cycles * h);
                let length_mm = h as f64 * cfg.floorplan.tile_pitch_mm;
                ack + SimTime::from_ps(cfg.kit.waveguide.tof_ps(length_mm))
            })
            .collect();
        OmeshSim {
            cfg,
            q: EventQueue::new(),
            ledger: Ledger::new(),
            step,
            ack_tof,
            svc: cfg.ctrl_freq.cycles(cfg.service_cycles),
            hop: cfg.ctrl_freq.cycles(cfg.setup_hop_cycles),
            ni: cfg.ctrl_freq.cycles(cfg.ni_cycles),
            nodes: n,
            seg_busy: vec![None; n * 4],
            seg_wait: (0..n * 4).map(|_| VecDeque::new()).collect(),
            router_free: vec![SimTime::ZERO; n],
        }
    }

    #[inline]
    fn step(&self, here: u32, dst: u32) -> Step {
        self.step[here as usize * self.nodes + dst as usize]
    }

    /// XY hop count from `src` to `dst`, read off the route table.
    #[inline]
    pub(crate) fn hops(&self, src: NodeId, dst: NodeId) -> usize {
        self.step(src.0, dst.0).hops()
    }

    /// Serve an event at router `r`: returns the service-complete time
    /// and occupies the router.
    #[inline]
    fn serve(&mut self, r: u32, at: SimTime) -> SimTime {
        let free = &mut self.router_free[r as usize];
        let done = at.max(*free) + self.svc;
        *free = done;
        done
    }

    fn handle(&mut self, at: SimTime, ev: Ev, out: &mut Vec<Delivery>) {
        match ev {
            Ev::Setup(id, here, dst) => self.handle_setup(at, id, here, dst),
            Ev::CtrlHop(id, here, dst) => self.handle_ctrl_hop(at, id, here, dst),
            Ev::OptDone(id, src, dst) => self.handle_opt_done(at, id, src, dst, out),
            Ev::CtrlDone(id) => self.deliver(at, id, out),
        }
    }

    fn deliver(&mut self, at: SimTime, id: u32, out: &mut Vec<Delivery>) {
        self.ledger.deliver(at, id as u64, out);
    }

    fn handle_setup(&mut self, at: SimTime, id: u32, here: u32, dst: u32) {
        let svc_done = self.serve(here, at);
        if here == dst {
            // Path fully reserved. ACK back to source (uncontended
            // control broadcast on the reserved path), then the optical
            // burst: time of flight + serialisation — all in the flight
            // time the ledger holds for it.
            let st = &self.ledger[id as u64];
            let (src, arrive) = (st.msg.src.0, svc_done + st.state);
            self.q.schedule(arrive, Ev::OptDone(id, src, dst));
        } else {
            let step = self.step(here, dst);
            let seg = step.seg(here);
            if self.seg_busy[seg].is_none() {
                self.seg_busy[seg] = Some(id);
                self.advance_setup(id, step.nb(), dst, svc_done);
            } else {
                self.seg_wait[seg].push_back((id, step.nb(), dst));
            }
        }
    }

    /// Move the setup across its just-reserved segment to router `next`.
    fn advance_setup(&mut self, id: u32, next: u32, dst: u32, from_time: SimTime) {
        let t = from_time + self.hop;
        self.q
            .schedule(t.max(self.q.now()), Ev::Setup(id, next, dst));
    }

    fn handle_ctrl_hop(&mut self, at: SimTime, id: u32, here: u32, dst: u32) {
        let svc_done = self.serve(here, at);
        let last = here == dst;
        if last {
            self.q.schedule(svc_done + self.ni, Ev::CtrlDone(id));
        } else {
            let next = self.step(here, dst).nb();
            self.q
                .schedule(svc_done + self.hop, Ev::CtrlHop(id, next, dst));
        }
    }

    fn handle_opt_done(
        &mut self,
        at: SimTime,
        id: u32,
        src: u32,
        dst: u32,
        out: &mut Vec<Delivery>,
    ) {
        // Tear down every segment from `src` to `dst` and hand freed
        // ones to waiters.
        let mut here = src;
        while here != dst {
            let step = self.step(here, dst);
            let seg = step.seg(here);
            debug_assert_eq!(self.seg_busy[seg], Some(id), "segment not held by owner");
            self.seg_busy[seg] = None;
            if let Some((next_id, next, next_dst)) = self.seg_wait[seg].pop_front() {
                self.seg_busy[seg] = Some(next_id);
                self.advance_setup(next_id, next, next_dst, at);
            }
            here = step.nb();
        }
        self.deliver(at, id, out);
    }
}

impl NetworkModel for OmeshSim {
    fn num_nodes(&self) -> usize {
        self.nodes
    }

    fn inject(&mut self, at: SimTime, msg: Message) {
        let at = at.max(self.q.now());
        let electrical = msg.bytes <= self.cfg.ctrl_cutoff_bytes
            || msg.class == MsgClass::Control
            || msg.src == msg.dst;
        let mut flight = SimTime::ZERO;
        if !electrical {
            flight = self.ack_tof[self.hops(msg.src, msg.dst)]
                + self.cfg.plan.burst_time(msg.bytes)
                + self.ni;
        }
        self.ledger.inject(at, msg, flight);
        // The ledger's table asserted that the id fits in 32 bits.
        let (id, src, dst) = (msg.id.0 as u32, msg.src.0, msg.dst.0);
        let start = at + self.ni;
        if electrical {
            self.q.schedule(start, Ev::CtrlHop(id, src, dst));
        } else {
            self.q.schedule(start, Ev::Setup(id, src, dst));
        }
    }

    fn next_time(&self) -> Option<SimTime> {
        self.q.peek_time()
    }

    fn advance_until(&mut self, t: SimTime, out: &mut Vec<Delivery>) {
        while let Some(ev) = self.q.pop_before(t) {
            self.handle(ev.at, ev.payload, out);
        }
        self.q.advance_to(t);
    }

    fn stats(&self) -> &NetStats {
        self.ledger.stats()
    }

    fn label(&self) -> &'static str {
        "omesh"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::drain;
    use sctm_engine::net::MsgId;

    fn sim() -> OmeshSim {
        OmeshSim::new(OmeshConfig::new(4))
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

    /// The route the tables give from `src` to `dst`: every node
    /// (both endpoints included) and the segment reserved out of each
    /// node but the last.
    fn table_path(s: &OmeshSim, src: NodeId, dst: NodeId) -> (Vec<NodeId>, Vec<usize>) {
        let (mut nodes, mut segs) = (vec![src], Vec::new());
        let mut here = src.0;
        while here != dst.0 {
            let step = s.step(here, dst.0);
            segs.push(step.seg(here));
            here = step.nb();
            nodes.push(NodeId(here));
            assert!(nodes.len() <= s.nodes, "route table loops {src}->{dst}");
        }
        (nodes, segs)
    }

    #[test]
    fn xy_path_shape() {
        let s = sim();
        let (p, _) = table_path(&s, NodeId(0), NodeId(15));
        assert_eq!(p.first(), Some(&NodeId(0)));
        assert_eq!(p.last(), Some(&NodeId(15)));
        assert_eq!(p.len(), 7); // 6 hops corner to corner in 4x4
                                // X first
        assert_eq!(p[1], NodeId(1));
    }

    /// The table walk from every source must reach every destination
    /// through exactly the literal X-then-Y hop sequence, reserving the
    /// literal `node*4 + dir` segment at each step — any disagreement
    /// silently reroutes traffic. Side 32 is `MAX_CORES`'s mesh.
    #[test]
    fn xy_node_matches_walked_route() {
        for side in [2usize, 3, 4, 5, 32] {
            let s = OmeshSim::new(OmeshConfig::new(side));
            let n = side * side;
            for src in 0..n as u32 {
                for dst in 0..n as u32 {
                    let (src, dst) = (NodeId(src), NodeId(dst));
                    let (mut walked, mut segs) = (vec![src], Vec::new());
                    let (mut x, mut y) = (src.idx() % side, src.idx() / side);
                    let (dx, dy) = (dst.idx() % side, dst.idx() / side);
                    while x != dx {
                        // East = 1, West = 3.
                        segs.push((y * side + x) * 4 + if dx > x { 1 } else { 3 });
                        x = if dx > x { x + 1 } else { x - 1 };
                        walked.push(NodeId((y * side + x) as u32));
                    }
                    while y != dy {
                        // South = 2, North = 0.
                        segs.push((y * side + x) * 4 + if dy > y { 2 } else { 0 });
                        y = if dy > y { y + 1 } else { y - 1 };
                        walked.push(NodeId((y * side + x) as u32));
                    }
                    let got = table_path(&s, src, dst);
                    assert_eq!(got, (walked, segs), "{src}->{dst} side {side}");
                    assert_eq!(s.step(src.0, dst.0).hops(), got.1.len());
                }
            }
        }
    }

    /// `ack_tof[hops]` must be the ACK (`setup_hop_cycles × hops`
    /// control cycles) plus the time of flight over the pair's Manhattan
    /// waveguide length, for every pair — the per-message formula the
    /// table replaced.
    #[test]
    fn ack_tof_table_matches_the_per_pair_formula() {
        for side in [2usize, 4, 8] {
            let cfg = OmeshConfig::new(side);
            let s = OmeshSim::new(cfg);
            for src in 0..s.nodes as u32 {
                for dst in 0..s.nodes as u32 {
                    let (a, b) = (NodeId(src), NodeId(dst));
                    let hops = s.step(src, dst).hops();
                    let ack = cfg.ctrl_freq.cycles(cfg.setup_hop_cycles * hops as u64);
                    let tof = cfg
                        .kit
                        .waveguide
                        .tof_ps(cfg.floorplan.mesh_distance_mm(a, b));
                    assert_eq!(s.ack_tof[hops], ack + SimTime::from_ps(tof), "{a}->{b}");
                }
            }
        }
    }

    /// Zero-load latency of a corner-to-corner (6-hop, 7-router)
    /// message on the electrical plane: both NIs, one service slot per
    /// router and one wire hop per link.
    fn electrical_corner_to_corner(cfg: &OmeshConfig) -> SimTime {
        let c = |n| cfg.ctrl_freq.cycles(n);
        c(2 * cfg.ni_cycles + 7 * cfg.service_cycles + 6 * cfg.setup_hop_cycles)
    }

    #[test]
    fn data_message_delivers_optically() {
        // The setup walks the electrical path, then the ACK returns and
        // the burst crosses the waveguide.
        let cfg = OmeshConfig::new(4);
        let mut s = sim();
        s.inject(SimTime::ZERO, msg(1, 0, 15, MsgClass::Data, 64));
        let out = drain(&mut s);
        assert_eq!(out.len(), 1);
        let ack = cfg.ctrl_freq.cycles(6 * cfg.setup_hop_cycles);
        let tof = cfg
            .kit
            .waveguide
            .tof_ps(cfg.floorplan.mesh_distance_mm(NodeId(0), NodeId(15)));
        let optical = electrical_corner_to_corner(&cfg)
            + ack
            + SimTime::from_ps(tof)
            + cfg.plan.burst_time(64);
        assert_eq!(out[0].latency(), optical);
    }

    #[test]
    fn control_message_goes_electrically() {
        let cfg = OmeshConfig::new(4);
        let mut s = sim();
        s.inject(SimTime::ZERO, msg(1, 0, 15, MsgClass::Control, 8));
        let out = drain(&mut s);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].latency(), electrical_corner_to_corner(&cfg));
    }

    #[test]
    fn segments_all_released_after_transfer() {
        let mut s = sim();
        for i in 0..20 {
            s.inject(
                SimTime::ZERO,
                msg(
                    i,
                    (i % 16) as u32,
                    ((i + 5) % 16) as u32,
                    MsgClass::Data,
                    64,
                ),
            );
        }
        let out = drain(&mut s);
        assert_eq!(out.len(), 20);
        assert!(
            s.seg_busy.iter().all(|b| b.is_none()),
            "leaked segment reservation"
        );
        assert!(s.seg_wait.iter().all(|w| w.is_empty()), "stranded waiter");
    }

    #[test]
    fn colliding_paths_serialise() {
        let mut a = sim();
        a.inject(SimTime::ZERO, msg(1, 0, 3, MsgClass::Data, 512));
        let solo = drain(&mut a)[0].latency();

        let mut b = sim();
        // Same row, same direction: second transfer must wait.
        b.inject(SimTime::ZERO, msg(1, 0, 3, MsgClass::Data, 512));
        b.inject(SimTime::ZERO, msg(2, 0, 3, MsgClass::Data, 512));
        let both = drain(&mut b);
        let worst = both.iter().map(|d| d.latency()).max().unwrap();
        assert!(
            worst.as_ps() > solo.as_ps() + 400,
            "no serialisation visible: solo={solo}, worst={worst}"
        );
    }

    #[test]
    fn bigger_messages_take_longer() {
        let mut a = sim();
        a.inject(SimTime::ZERO, msg(1, 0, 15, MsgClass::Data, 64));
        let small = drain(&mut a)[0].latency();
        let mut b = sim();
        b.inject(SimTime::ZERO, msg(1, 0, 15, MsgClass::Data, 4096));
        let large = drain(&mut b)[0].latency();
        assert!(large > small);
    }

    #[test]
    fn setup_dominates_short_optical_transfers() {
        // Setup out and ACK back cost 2×hops×setup_hop_cycles: a
        // near-minimal data burst pays it, and it is most of the latency.
        let mut s = sim();
        s.inject(SimTime::ZERO, msg(1, 0, 15, MsgClass::Data, 64));
        let l = drain(&mut s)[0].latency();
        let cfg = OmeshConfig::new(4);
        let round_trip = cfg.ctrl_freq.cycles(2 * 6 * cfg.setup_hop_cycles);
        assert!(
            l > round_trip && round_trip.as_ps() * 2 > l.as_ps(),
            "setup round trip {round_trip} does not dominate latency {l}"
        );
    }
}
