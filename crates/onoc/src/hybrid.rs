//! Path-adaptive opto-electronic hybrid NoC (extension).
//!
//! The original authors' follow-up architecture (ISPA 2013): instead of
//! dedicating the optical plane to one traffic class, every router
//! decides *per message* whether to use the optical or the electrical
//! plane, based on the distance it has to travel (and the payload's
//! ability to amortise the optical setup cost). Short-haul and small
//! messages stay electrical; long-haul cache lines ride light.
//!
//! Implementation: composition of the two planes we already have. The
//! policy routes each injected message to exactly one plane; both planes
//! advance in lockstep through the usual [`NetworkModel`] interface.
//! This mirrors the physical design (two parallel layers joined at the
//! NIs) and keeps each plane's contention model intact.

use crate::omesh::{OmeshConfig, OmeshSim};
use sctm_engine::net::{Delivery, Message, NetStats, NetworkModel};
use sctm_engine::time::SimTime;
use sctm_enoc::{NocConfig, NocSim, Topology};

/// Plane-selection policy.
#[derive(Clone, Copy, Debug)]
pub struct HybridPolicy {
    /// Minimum Manhattan hop distance for the optical plane.
    pub min_hops: usize,
    /// Minimum payload bytes for the optical plane.
    pub min_bytes: u32,
}

impl Default for HybridPolicy {
    fn default() -> Self {
        // Setup cost ≈ 2×hops control messages; light pays off beyond a
        // few hops, and only data-sized payloads amortise it.
        HybridPolicy {
            min_hops: 3,
            min_bytes: 32,
        }
    }
}

/// Configuration of the hybrid network.
#[derive(Clone, Copy, Debug)]
pub struct HybridConfig {
    pub side: usize,
    pub policy: HybridPolicy,
    pub omesh: OmeshConfig,
    pub emesh: NocConfig,
}

impl HybridConfig {
    pub fn new(side: usize) -> Self {
        let mut omesh = OmeshConfig::new(side);
        // The optical plane carries only what the policy sends it; the
        // electrical plane below handles everything else, so disable
        // omesh's internal control-plane fallback for data.
        omesh.ctrl_cutoff_bytes = 0;
        HybridConfig {
            side,
            policy: HybridPolicy::default(),
            omesh,
            emesh: NocConfig {
                topology: Topology::mesh(side, side),
                ..NocConfig::default()
            },
        }
    }
}

/// The hybrid interconnect: an optical circuit-switched plane stacked on
/// an electrical packet-switched plane.
#[derive(Clone, Debug)]
pub struct HybridSim {
    cfg: HybridConfig,
    optical: OmeshSim,
    electrical: NocSim,
    /// Both planes' traffic in one set of statistics; each plane's own
    /// ledger counts only what the policy sent it.
    stats: NetStats,
    /// Messages routed to each plane (for reports).
    to_optical: u64,
    to_electrical: u64,
}

impl HybridSim {
    pub fn new(cfg: HybridConfig) -> Self {
        HybridSim {
            optical: OmeshSim::new(cfg.omesh),
            electrical: NocSim::new(cfg.emesh),
            cfg,
            stats: NetStats::default(),
            to_optical: 0,
            to_electrical: 0,
        }
    }

    pub fn config(&self) -> &HybridConfig {
        &self.cfg
    }

    /// Fraction of messages the policy sent optically.
    pub fn optical_fraction(&self) -> f64 {
        let total = self.to_optical + self.to_electrical;
        if total == 0 {
            0.0
        } else {
            self.to_optical as f64 / total as f64
        }
    }

    fn hops(&self, msg: &Message) -> usize {
        let s = self.cfg.side;
        let (ax, ay) = (msg.src.idx() % s, msg.src.idx() / s);
        let (bx, by) = (msg.dst.idx() % s, msg.dst.idx() / s);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    /// The path-adaptive decision.
    pub fn goes_optical(&self, msg: &Message) -> bool {
        self.hops(msg) >= self.cfg.policy.min_hops && msg.bytes >= self.cfg.policy.min_bytes
    }
}

impl NetworkModel for HybridSim {
    fn num_nodes(&self) -> usize {
        self.cfg.side * self.cfg.side
    }

    fn inject(&mut self, at: SimTime, msg: Message) {
        self.stats.injected += 1;
        if self.goes_optical(&msg) {
            self.to_optical += 1;
            self.optical.inject(at, msg);
        } else {
            self.to_electrical += 1;
            self.electrical.inject(at, msg);
        }
    }

    fn next_time(&self) -> Option<SimTime> {
        match (self.optical.next_time(), self.electrical.next_time()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn advance_until(&mut self, t: SimTime, out: &mut Vec<Delivery>) {
        let start = out.len();
        self.optical.advance_until(t, out);
        self.electrical.advance_until(t, out);
        // Record into the merged stats and keep delivery order stable by
        // time (callers may rely on chronological batches).
        out[start..].sort_by_key(|d| (d.delivered_at, d.msg.id.0));
        for d in &out[start..] {
            self.stats.record_delivery(d);
        }
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn label(&self) -> &'static str {
        "hybrid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sctm_engine::net::{MsgClass, MsgId, NodeId};

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

    fn sim() -> HybridSim {
        HybridSim::new(HybridConfig::new(4))
    }

    #[test]
    fn policy_splits_by_distance_and_size() {
        let s = sim();
        // 1 hop, small: electrical.
        assert!(!s.goes_optical(&msg(1, 0, 1, 8)));
        // 6 hops, data: optical.
        assert!(s.goes_optical(&msg(2, 0, 15, 64)));
        // 6 hops but tiny: electrical (setup never amortised).
        assert!(!s.goes_optical(&msg(3, 0, 15, 8)));
        // 1 hop data: electrical (distance below threshold).
        assert!(!s.goes_optical(&msg(4, 0, 1, 64)));
    }

    #[test]
    fn long_haul_data_beats_pure_electrical() {
        // Corner-to-corner cache line: the hybrid should ride light and
        // beat the electrical mesh under contention-free conditions at
        // large payload sizes.
        let payload = 4096u32;
        let mut h = sim();
        h.inject(SimTime::ZERO, msg(1, 0, 15, payload));
        let mut out = Vec::new();
        h.drain(&mut out);
        let hybrid_lat = out[0].latency();

        let mut e = NocSim::new(NocConfig {
            topology: Topology::mesh(4, 4),
            ..NocConfig::default()
        });
        e.inject(SimTime::ZERO, msg(1, 0, 15, payload));
        let mut out = Vec::new();
        e.drain(&mut out);
        let emesh_lat = out[0].latency();
        assert!(
            hybrid_lat < emesh_lat,
            "optical long-haul ({hybrid_lat}) not faster than electrical ({emesh_lat})"
        );
    }

    #[test]
    fn short_control_avoids_optical_setup_cost() {
        let mut h = sim();
        h.inject(SimTime::ZERO, msg(1, 0, 1, 8));
        let mut out = Vec::new();
        h.drain(&mut out);
        // One-hop electrical control: a handful of ns, far below the
        // optical setup round trip.
        assert!(
            out[0].latency() < SimTime::from_ns(20),
            "short ctrl paid a setup cost: {}",
            out[0].latency()
        );
        assert_eq!(h.to_electrical, 1);
    }

    #[test]
    fn optical_fraction_reported() {
        let mut s = sim();
        s.inject(SimTime::ZERO, msg(1, 0, 15, 64));
        s.inject(SimTime::ZERO, msg(2, 0, 1, 8));
        let mut out = Vec::new();
        s.drain(&mut out);
        assert!((s.optical_fraction() - 0.5).abs() < 1e-9);
    }
}
