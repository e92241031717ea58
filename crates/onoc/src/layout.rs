//! Physical layout shared by the optical architectures.
//!
//! Converts logical topology distances into millimetres of waveguide,
//! and builds the worst-case [`OpticalPath`] inventories that feed the
//! photonic loss/power solver (experiment E7).

use sctm_engine::net::NodeId;
use sctm_engine::time::SimTime;
use sctm_photonic::{ChannelPlan, DeviceKit, LinkBudget, OpticalPath, Waveguide};

/// Die floorplan for a tiled CMP.
#[derive(Clone, Copy, Debug)]
pub struct Floorplan {
    /// Tiles per mesh edge (mesh width == height).
    pub side: usize,
    /// Centre-to-centre tile pitch in millimetres.
    pub tile_pitch_mm: f64,
}

impl Floorplan {
    pub fn new(side: usize, tile_pitch_mm: f64) -> Self {
        assert!(side >= 2);
        assert!(tile_pitch_mm > 0.0);
        Floorplan {
            side,
            tile_pitch_mm,
        }
    }

    pub fn num_nodes(&self) -> usize {
        self.side * self.side
    }

    /// Manhattan waveguide distance between two tiles, mm.
    pub fn mesh_distance_mm(&self, a: NodeId, b: NodeId) -> f64 {
        let (ax, ay) = (a.idx() % self.side, a.idx() / self.side);
        let (bx, by) = (b.idx() % self.side, b.idx() / self.side);
        (ax.abs_diff(bx) + ay.abs_diff(by)) as f64 * self.tile_pitch_mm
    }

    /// Tiles from node position `from` to `to` along the serpentine
    /// crossbar waveguide (the waveguide snake visits every tile once;
    /// light travels one way around).
    pub(crate) fn serpentine_tiles(&self, from: NodeId, to: NodeId) -> usize {
        let n = self.num_nodes();
        (to.idx() + n - from.idx()) % n
    }

    /// Distance along the serpentine from `from` to `to`, mm.
    pub fn serpentine_distance_mm(&self, from: NodeId, to: NodeId) -> f64 {
        self.serpentine_tiles(from, to) as f64 * self.tile_pitch_mm
    }

    /// Time of flight along the serpentine over `wg`, by
    /// [`Self::serpentine_tiles`]: entry `d` is the flight over the
    /// distance [`Self::serpentine_distance_mm`] gives a pair `d` tiles
    /// apart. A model builds it once, so a message's flight is a lookup
    /// rather than a float product and `ceil`.
    pub(crate) fn serpentine_tof(&self, wg: &Waveguide) -> Vec<SimTime> {
        (0..self.num_nodes())
            .map(|d| SimTime::from_ps(wg.tof_ps(d as f64 * self.tile_pitch_mm)))
            .collect()
    }

    /// Full serpentine length, mm.
    pub fn serpentine_length_mm(&self) -> f64 {
        (self.num_nodes() - 1) as f64 * self.tile_pitch_mm
    }

    /// Worst-case optical path for the circuit-switched photonic mesh:
    /// corner-to-corner Manhattan route passing a ring switch per hop.
    pub fn omesh_worst_path(&self) -> OpticalPath {
        let hops = 2 * (self.side - 1);
        OpticalPath {
            length_mm: hops as f64 * self.tile_pitch_mm,
            // One 90° turn at the XY corner plus NI bends at both ends.
            bends: 4,
            // Mesh waveguides cross at every tile the path passes.
            crossings: hops as u32,
            // Each intermediate router parks its switching rings
            // off-resonance on the through path.
            rings_passed: (hops as u32).saturating_sub(1) * 2,
            // Source modulator bank + destination drop filter.
            rings_used: 2,
        }
    }

    /// Worst-case path for the MWSR crossbar: all the way around the
    /// serpentine, passing every other writer's modulator.
    ///
    /// Per *wavelength*: each writer parks one ring tuned to each λ on
    /// the bus, but light of wavelength k only sees the rings tuned to
    /// k — so the worst path passes `N−2` off-resonance rings, not the
    /// whole `(N−2)·λ` bank (that classic overcount explodes the loss
    /// budget by ~40 dB at 64 nodes).
    pub fn oxbar_worst_path(&self) -> OpticalPath {
        let n = self.num_nodes() as u32;
        OpticalPath {
            length_mm: self.serpentine_length_mm(),
            bends: (self.side as u32).saturating_sub(1) * 2,
            crossings: 0,
            rings_passed: n - 2,
            rings_used: 2,
        }
    }

    /// Link-budget solver for the photonic mesh.
    pub fn omesh_budget(&self, kit: DeviceKit, plan: ChannelPlan) -> LinkBudget {
        let n = self.num_nodes() as u64;
        LinkBudget {
            kit,
            worst_path: self.omesh_worst_path(),
            lambdas: plan.lambdas,
            gbps_per_lambda: plan.gbps_per_lambda,
            // Per tile: modulator bank + drop bank + 4 switch rings.
            total_rings: n * (2 * plan.lambdas as u64 + 4),
            // One powered waveguide per mesh row and column.
            waveguides: (2 * self.side) as u32,
        }
    }

    /// Link-budget solver for the MWSR crossbar.
    pub fn oxbar_budget(&self, kit: DeviceKit, plan: ChannelPlan) -> LinkBudget {
        let n = self.num_nodes() as u64;
        LinkBudget {
            kit,
            worst_path: self.oxbar_worst_path(),
            lambdas: plan.lambdas,
            gbps_per_lambda: plan.gbps_per_lambda,
            // Each of the N home channels has a modulator bank at every
            // other node plus one drop bank: N * (N-1+1) * λ rings.
            total_rings: n * n * plan.lambdas as u64,
            // One home-channel waveguide per destination.
            waveguides: n as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> Floorplan {
        Floorplan::new(8, 2.5)
    }

    #[test]
    fn mesh_distance() {
        let f = fp();
        assert_eq!(f.mesh_distance_mm(NodeId(0), NodeId(0)), 0.0);
        // 0 -> 63: corner to corner = 14 hops * 2.5mm
        assert!((f.mesh_distance_mm(NodeId(0), NodeId(63)) - 35.0).abs() < 1e-12);
        assert!((f.mesh_distance_mm(NodeId(0), NodeId(1)) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn serpentine_wraps_one_way() {
        let f = fp();
        assert!((f.serpentine_distance_mm(NodeId(0), NodeId(1)) - 2.5).abs() < 1e-12);
        // going "backwards" means almost all the way around
        assert!((f.serpentine_distance_mm(NodeId(1), NodeId(0)) - 63.0 * 2.5).abs() < 1e-12);
        assert!((f.serpentine_length_mm() - 157.5).abs() < 1e-12);
    }

    #[test]
    fn worst_paths_have_sane_loss() {
        let f = fp();
        let kit = DeviceKit::default();
        let mesh_loss = f.omesh_worst_path().insertion_loss_db(&kit);
        assert!(
            mesh_loss > 2.0 && mesh_loss < 25.0,
            "omesh loss {mesh_loss}"
        );
        let xbar_loss = f.oxbar_worst_path().insertion_loss_db(&kit);
        assert!(xbar_loss > 5.0, "oxbar loss {xbar_loss}");
        // The crossbar's full-serpentine propagation dominates: it must
        // lose more than the short Manhattan mesh path.
        assert!(xbar_loss > mesh_loss);
    }

    #[test]
    fn budgets_power_ordering() {
        let f = fp();
        let kit = DeviceKit::default();
        let plan = ChannelPlan::default();
        let omesh = f.omesh_budget(kit, plan);
        let oxbar = f.oxbar_budget(kit, plan);
        // Corona-style crossbar burns far more static power (N
        // waveguides, N² ring banks) than the circuit-switched mesh.
        assert!(oxbar.power(0.1).total_mw() > omesh.power(0.1).total_mw());
    }

    #[test]
    fn ring_counts_scale() {
        let f = Floorplan::new(4, 2.5);
        let plan = ChannelPlan {
            lambdas: 16,
            gbps_per_lambda: 10.0,
        };
        let b = f.oxbar_budget(DeviceKit::default(), plan);
        assert_eq!(b.total_rings, 16 * 16 * 16);
    }
}
