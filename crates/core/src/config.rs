//! System configuration: the simulated machine and its interconnect.

use crate::error::SctmError;
use sctm_cmp::CmpConfig;
use sctm_engine::net::{AnalyticNetwork, NetworkModel};
use sctm_engine::table::Table;
use sctm_engine::time::SimTime;
use sctm_enoc::{NocConfig, NocSim, Routing, Topology};
use sctm_onoc::{
    HybridConfig, HybridSim, ObusConfig, ObusSim, OmeshConfig, OmeshSim, OxbarConfig, OxbarSim,
};

/// Which interconnect the simulated CMP uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetworkKind {
    /// Electrical wormhole VC mesh — the paper's baseline simulator.
    Emesh,
    /// Circuit-switched photonic mesh with electrical control plane.
    Omesh,
    /// Corona-style MWSR wavelength crossbar.
    Oxbar,
    /// Path-adaptive opto-electronic hybrid (extension; the authors'
    /// 2013 follow-up architecture).
    Hybrid,
    /// SWMR optical broadcast bus (extension; Firefly/ATAC lineage).
    Obus,
    /// Contention-free analytic model (used for trace capture and as
    /// the in-loop model of the online correction variant).
    Analytic,
}

impl NetworkKind {
    /// Every interconnect, the detailed models first.
    pub const ALL: [NetworkKind; 6] = [
        NetworkKind::Emesh,
        NetworkKind::Omesh,
        NetworkKind::Oxbar,
        NetworkKind::Hybrid,
        NetworkKind::Obus,
        NetworkKind::Analytic,
    ];

    pub const DETAILED: [NetworkKind; 5] = [
        NetworkKind::Emesh,
        NetworkKind::Omesh,
        NetworkKind::Oxbar,
        NetworkKind::Hybrid,
        NetworkKind::Obus,
    ];

    pub fn label(self) -> &'static str {
        match self {
            NetworkKind::Emesh => "emesh",
            NetworkKind::Omesh => "omesh",
            NetworkKind::Oxbar => "oxbar",
            NetworkKind::Hybrid => "hybrid",
            NetworkKind::Obus => "obus",
            NetworkKind::Analytic => "analytic",
        }
    }

    /// Look an interconnect up by its [`NetworkKind::label`]. The typed
    /// front door for services and CLIs that receive network names as
    /// strings.
    pub fn from_label(label: &str) -> Result<NetworkKind, SctmError> {
        match label {
            "emesh" => Ok(NetworkKind::Emesh),
            "omesh" => Ok(NetworkKind::Omesh),
            "oxbar" => Ok(NetworkKind::Oxbar),
            "hybrid" => Ok(NetworkKind::Hybrid),
            "obus" => Ok(NetworkKind::Obus),
            "analytic" => Ok(NetworkKind::Analytic),
            other => Err(SctmError::UnknownNetwork(other.to_string())),
        }
    }
}

/// The simulated system: a tiled CMP plus one interconnect choice.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Mesh side; core count is `side²`.
    pub side: usize,
    pub cmp: CmpConfig,
    pub network: NetworkKind,
}

impl SystemConfig {
    /// Largest supported mesh side (64² = 4096 cores). Beyond this the
    /// dense per-pair correction tables and renumbering buffers stop
    /// being a sensible memory trade.
    pub const MAX_SIDE: usize = 64;

    /// The default 2012-class configuration at `side × side` cores.
    ///
    /// Panics outside the simulable envelope; long-running callers that
    /// handle untrusted sizes should use [`SystemConfig::try_new`].
    pub fn new(side: usize, network: NetworkKind) -> Self {
        Self::try_new(side, network).expect("invalid system config")
    }

    /// [`SystemConfig::new`] with the envelope checks surfaced as a
    /// typed error instead of a panic: a service can reject one bad
    /// request and keep serving the rest.
    pub fn try_new(side: usize, network: NetworkKind) -> Result<Self, SctmError> {
        if side == 0 {
            return Err(SctmError::InvalidConfig("mesh side must be >= 1".into()));
        }
        if side > Self::MAX_SIDE {
            return Err(SctmError::InvalidConfig(format!(
                "mesh side {side} exceeds the simulable envelope (max {})",
                Self::MAX_SIDE
            )));
        }
        // Every workload kernel partitions over power-of-two core
        // counts; side² is a power of two iff side is.
        if !side.is_power_of_two() {
            return Err(SctmError::InvalidConfig(format!(
                "mesh side {side} gives {} cores; kernels need a power-of-two core count",
                side * side
            )));
        }
        // One core has no interconnect: every detailed model needs a
        // mesh of at least 2x2. The analytic model simulates it.
        if side == 1 && network != NetworkKind::Analytic {
            return Err(SctmError::InvalidConfig(format!(
                "mesh side 1 has nothing for the {} model to connect; use net=analytic",
                network.label()
            )));
        }
        Ok(SystemConfig {
            side,
            cmp: CmpConfig::tiled(side),
            network,
        })
    }

    pub fn cores(&self) -> usize {
        self.side * self.side
    }

    /// Instantiate the configured interconnect.
    pub fn make_network(&self) -> Box<dyn NetworkModel> {
        Self::make_network_kind(self.side, self.network)
    }

    /// Instantiate any interconnect for this system size.
    pub fn make_network_kind(side: usize, kind: NetworkKind) -> Box<dyn NetworkModel> {
        let nodes = side * side;
        match kind {
            NetworkKind::Emesh => Box::new(NocSim::new(NocConfig {
                topology: Topology::mesh(side, side),
                routing: Routing::XY,
                ..NocConfig::default()
            })),
            NetworkKind::Omesh => Box::new(OmeshSim::new(OmeshConfig::new(side))),
            NetworkKind::Oxbar => Box::new(OxbarSim::new(OxbarConfig::new(side))),
            NetworkKind::Hybrid => Box::new(HybridSim::new(HybridConfig::new(side))),
            NetworkKind::Obus => Box::new(ObusSim::new(ObusConfig::new(side))),
            NetworkKind::Analytic => Box::new(Self::analytic(nodes)),
        }
    }

    /// The analytic capture model: roughly calibrated to the electrical
    /// mesh's zero-load behaviour (base NI+pipeline cost, per-hop router
    /// latency, serialisation per byte) with no contention.
    pub fn analytic(nodes: usize) -> AnalyticNetwork {
        AnalyticNetwork::new(nodes, SimTime::from_ns(8), SimTime::from_ps(1_500), 60)
    }

    /// Experiment E1: the paper-style configuration table.
    pub fn config_table(&self) -> Table {
        let mut t = Table::new(
            "E1 — Simulated system configuration",
            &["parameter", "value"],
        );
        let row = |t: &mut Table, k: &str, v: String| {
            t.row(&[k.to_string(), v]);
        };
        row(
            &mut t,
            "cores",
            format!("{} ({}x{} mesh)", self.cores(), self.side, self.side),
        );
        row(
            &mut t,
            "core clock",
            format!("{:.1} GHz, in-order, blocking", self.cmp.core_freq.ghz()),
        );
        row(
            &mut t,
            "L1D",
            format!(
                "{} KiB, {}-way, 64 B lines, {}-cycle hit",
                self.cmp.l1.capacity_bytes() / 1024,
                self.cmp.l1.ways,
                self.cmp.l1_hit_cycles
            ),
        );
        row(
            &mut t,
            "L2 slice",
            format!(
                "{} KiB, {}-way, {}-cycle",
                self.cmp.l2_slice.capacity_bytes() / 1024,
                self.cmp.l2_slice.ways,
                self.cmp.l2_cycles
            ),
        );
        row(
            &mut t,
            "coherence",
            "MESI-lite full-map directory, 2 vnets".to_string(),
        );
        row(
            &mut t,
            "memory",
            format!(
                "{} controllers, {} latency",
                self.cmp.num_mem_ctrl, self.cmp.mem_latency
            ),
        );
        let net_desc = match self.network {
            NetworkKind::Emesh => {
                "electrical mesh: 2-stage wormhole VC routers, XY, 2 GHz".to_string()
            }
            NetworkKind::Omesh => {
                "photonic circuit-switched mesh, 64λ × 10 Gb/s, electrical setup".to_string()
            }
            NetworkKind::Oxbar => {
                "MWSR optical crossbar, token arbitration, 64λ × 10 Gb/s".to_string()
            }
            NetworkKind::Hybrid => {
                "path-adaptive opto-electronic hybrid (distance/size policy)".to_string()
            }
            NetworkKind::Obus => "SWMR optical broadcast bus, 64λ × 10 Gb/s per source".to_string(),
            NetworkKind::Analytic => "contention-free analytic model".to_string(),
        };
        row(&mut t, "interconnect", net_desc);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn networks_instantiate_with_matching_sizes() {
        for kind in NetworkKind::ALL {
            let sys = SystemConfig::new(4, kind);
            let net = sys.make_network();
            assert_eq!(net.num_nodes(), 16, "{}", kind.label());
            assert_eq!(net.label(), kind.label());
        }
    }

    #[test]
    fn labels_roundtrip_and_unknown_is_typed() {
        for kind in NetworkKind::ALL {
            assert_eq!(NetworkKind::from_label(kind.label()), Ok(kind));
        }
        assert_eq!(
            NetworkKind::from_label("warp"),
            Err(SctmError::UnknownNetwork("warp".into()))
        );
    }

    #[test]
    fn try_new_rejects_sizes_outside_the_envelope() {
        for bad in [0, 3, 5, 6, SystemConfig::MAX_SIDE + 1, usize::MAX / 2] {
            let err = SystemConfig::try_new(bad, NetworkKind::Omesh).unwrap_err();
            assert!(
                matches!(err, SctmError::InvalidConfig(_)),
                "side {bad}: {err}"
            );
        }
        for net in NetworkKind::DETAILED {
            let err = SystemConfig::try_new(1, net).unwrap_err();
            assert!(matches!(err, SctmError::InvalidConfig(_)), "{net:?}: {err}");
        }
        assert!(SystemConfig::try_new(1, NetworkKind::Analytic).is_ok());
        assert!(SystemConfig::try_new(SystemConfig::MAX_SIDE, NetworkKind::Emesh).is_ok());
    }

    #[test]
    fn config_table_renders() {
        let sys = SystemConfig::new(8, NetworkKind::Omesh);
        let s = sys.config_table().render();
        assert!(s.contains("64 (8x8 mesh)"));
        assert!(s.contains("photonic"));
    }

    #[test]
    fn analytic_is_contention_free_and_fast() {
        use sctm_engine::net::{Message, MsgClass, MsgId, NodeId};
        let net = SystemConfig::analytic(16);
        let m = Message {
            id: MsgId(0),
            src: NodeId(0),
            dst: NodeId(15),
            class: MsgClass::Data,
            bytes: 72,
        };
        let lat = net.model_latency(&m);
        // 8 ns base + 6 hops × 1.5 ns + 72 B × 60 ps ≈ 21.3 ns
        assert!(
            lat > SimTime::from_ns(15) && lat < SimTime::from_ns(30),
            "{lat}"
        );
    }
}
