//! SWMR optical broadcast bus (Firefly/ATAC lineage; extension).
//!
//! The dual of the MWSR crossbar: each **source** owns a broadcast
//! waveguide that every node listens to. Writing needs no arbitration at
//! all (single writer), so injection is wait-free; the serialisation
//! moves to the *receivers*, which have one ejection port each and must
//! take incoming bursts one at a time — and to the source itself, which
//! can drive only one burst at a time onto its channel.
//!
//! Latency anatomy of one message: source NI → wait for own channel →
//! burst serialisation → time of flight along the serpentine → wait for
//! the receiver's ejection port → receiver NI.
//!
//! **Order.** Every `(src, dst)` pair, whatever the class or size, is
//! delivered in injection order (equal injection times in the order
//! `inject` was called): the source's one channel sends bursts in that
//! order, each burst of the pair has the same flight time, and the
//! receiver's one ejection port takes arrivals first come, first served.

use crate::layout::Floorplan;
use sctm_engine::event::EventQueue;
use sctm_engine::ledger::Ledger;
use sctm_engine::net::{Delivery, Message, NetStats, NetworkModel};
use sctm_engine::time::{Freq, SimTime};
use sctm_photonic::{ChannelPlan, DeviceKit, LinkBudget, OpticalPath};

/// Configuration of the broadcast bus.
#[derive(Clone, Copy, Debug)]
pub struct ObusConfig {
    pub floorplan: Floorplan,
    pub kit: DeviceKit,
    pub plan: ChannelPlan,
    pub ni_freq: Freq,
    pub ni_cycles: u64,
}

impl ObusConfig {
    pub fn new(side: usize) -> Self {
        ObusConfig {
            floorplan: Floorplan::new(side, 2.5),
            kit: DeviceKit::default(),
            plan: ChannelPlan::default(),
            ni_freq: Freq::from_ghz(2),
            ni_cycles: 2,
        }
    }

    /// Loss/power budget: per-source waveguides with a drop-filter bank
    /// at every listener (N² · λ rings), plus the defining SWMR cost —
    /// **broadcast splitting loss**: every listener taps a 1/(N−1)
    /// fraction of the light, so the detector at the end of the bus sees
    /// `10·log10(N−1)` dB less than was launched (ATAC's power wall).
    pub fn budget(&self) -> LinkBudget {
        let n = self.floorplan.num_nodes() as u64;
        // Fold the splitting loss into the worst path as an equivalent
        // extra insertion loss (the solver only sums dB).
        let split_db = 10.0 * ((n - 1) as f64).log10();
        let kit = self.kit;
        let extra_crossings = (split_db / kit.waveguide.crossing_loss_db).ceil() as u32;
        LinkBudget {
            kit,
            worst_path: OpticalPath {
                length_mm: self.floorplan.serpentine_length_mm(),
                bends: (self.floorplan.side as u32).saturating_sub(1) * 2,
                // Encode the broadcast split as equivalent crossing loss
                // (same dB; the solver does not distinguish sources).
                crossings: extra_crossings,
                // Per wavelength the light passes one drop ring per
                // listener (see `oxbar_worst_path` for the λ-count
                // pitfall).
                rings_passed: n as u32 - 2,
                rings_used: 2,
            },
            lambdas: self.plan.lambdas,
            gbps_per_lambda: self.plan.gbps_per_lambda,
            total_rings: n * n * self.plan.lambdas as u64,
            waveguides: n as u32,
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Ev {
    /// Message reaches its source NI.
    Ready(u64),
    /// Last bit left the source (channel frees; light is in flight).
    BurstEnd(u64),
    /// Burst reaches the receiver; may still wait for the eject port.
    Arrive(u64),
    /// Fully ejected at the receiver.
    Deliver(u64),
}

/// The SWMR broadcast-bus simulator.
#[derive(Clone, Debug)]
pub struct ObusSim {
    cfg: ObusConfig,
    q: EventQueue<Ev>,
    ledger: Ledger,
    /// Per-source channel: busy until.
    src_free: Vec<SimTime>,
    /// Per-receiver ejection port: busy until.
    dst_free: Vec<SimTime>,
    /// Flight from source to receiver, by [`Floorplan::serpentine_tiles`].
    tof: Vec<SimTime>,
}

impl ObusSim {
    pub fn new(cfg: ObusConfig) -> Self {
        let n = cfg.floorplan.num_nodes();
        ObusSim {
            cfg,
            q: EventQueue::new(),
            ledger: Ledger::new(),
            src_free: vec![SimTime::ZERO; n],
            dst_free: vec![SimTime::ZERO; n],
            tof: cfg.floorplan.serpentine_tof(&cfg.kit.waveguide),
        }
    }

    fn ni_delay(&self) -> SimTime {
        self.cfg.ni_freq.cycles(self.cfg.ni_cycles)
    }

    fn handle(&mut self, at: SimTime, ev: Ev, out: &mut Vec<Delivery>) {
        match ev {
            Ev::Ready(id) => {
                let msg = self.ledger[id].msg;
                if msg.src == msg.dst {
                    // Loopback: NI in, NI out — pure interface overhead.
                    self.q.schedule(at + self.ni_delay(), Ev::Deliver(id));
                    return;
                }
                // Single writer: wait only for our own channel.
                let burst = self.cfg.plan.burst_time(msg.bytes.max(1));
                let start = at.max(self.src_free[msg.src.idx()]);
                let end = start + burst;
                self.src_free[msg.src.idx()] = end;
                self.q.schedule(end, Ev::BurstEnd(id));
            }
            Ev::BurstEnd(id) => {
                let msg = self.ledger[id].msg;
                let tof = self.tof[self.cfg.floorplan.serpentine_tiles(msg.src, msg.dst)];
                self.q.schedule(at + tof, Ev::Arrive(id));
            }
            Ev::Arrive(id) => {
                let msg = self.ledger[id].msg;
                // One ejection port per node: serialise receptions.
                let eject = self.cfg.plan.burst_time(msg.bytes.max(1));
                let start = at.max(self.dst_free[msg.dst.idx()]);
                self.dst_free[msg.dst.idx()] = start + eject;
                self.q
                    .schedule(start + eject + self.ni_delay(), Ev::Deliver(id));
            }
            Ev::Deliver(id) => {
                self.ledger.deliver(at, id, out);
            }
        }
    }
}

impl NetworkModel for ObusSim {
    fn num_nodes(&self) -> usize {
        self.cfg.floorplan.num_nodes()
    }

    fn inject(&mut self, at: SimTime, msg: Message) {
        let at = at.max(self.q.now());
        self.ledger.inject(at, msg, ());
        self.q.schedule(at + self.ni_delay(), Ev::Ready(msg.id.0));
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
        "obus"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{drain, msg};

    fn sim() -> ObusSim {
        ObusSim::new(ObusConfig::new(4))
    }

    #[test]
    fn injection_is_arbitration_free() {
        // Distinct sources to distinct destinations: all proceed in
        // parallel, makespan ≈ one message time.
        let mut s = sim();
        for i in 0..8u64 {
            s.inject(SimTime::ZERO, msg(i, i as u32, (i + 8) as u32, 512));
        }
        let out = drain(&mut s);
        let makespan = out.iter().map(|d| d.delivered_at).max().unwrap();
        let burst = s.cfg.plan.burst_time(512);
        assert!(
            makespan.as_ps() < (burst.as_ps() + 5_000) * 2,
            "SWMR serialised independent sources: {makespan}"
        );
    }

    #[test]
    fn same_source_serialises() {
        let mut s = sim();
        let burst = s.cfg.plan.burst_time(512);
        for i in 0..10u64 {
            s.inject(SimTime::ZERO, msg(i, 0, (i % 15 + 1) as u32, 512));
        }
        let out = drain(&mut s);
        let makespan = out.iter().map(|d| d.delivered_at).max().unwrap();
        assert!(
            makespan >= burst.scaled(9),
            "single-writer serialisation missing: {makespan}"
        );
    }

    #[test]
    fn receiver_port_serialises_hotspot() {
        let mut s = sim();
        let burst = s.cfg.plan.burst_time(512);
        for i in 0..10u64 {
            s.inject(SimTime::ZERO, msg(i, (i + 1) as u32, 0, 512));
        }
        let out = drain(&mut s);
        let makespan = out.iter().map(|d| d.delivered_at).max().unwrap();
        assert!(
            makespan >= burst.scaled(9),
            "receiver serialisation missing: {makespan}"
        );
    }

    #[test]
    fn budget_has_swmr_ring_count_and_split_loss() {
        let cfg = ObusConfig::new(4);
        let b = cfg.budget();
        assert_eq!(b.total_rings, 16 * 16 * 64);
        // The broadcast split (10·log10(15) ≈ 11.8 dB) must dominate the
        // loss budget and push it well beyond the MWSR crossbar's.
        let oxbar = crate::oxbar::OxbarConfig::new(4).budget();
        assert!(
            b.worst_loss_db() > oxbar.worst_loss_db() + 8.0,
            "SWMR split loss missing: obus {} dB vs oxbar {} dB",
            b.worst_loss_db(),
            oxbar.worst_loss_db()
        );
        assert!(b.laser_mw() > oxbar.laser_mw() * 4.0);
    }
}
