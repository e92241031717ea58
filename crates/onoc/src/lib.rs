//! # sctm-onoc — optical network-on-chip architectures
//!
//! Four optical network models built on the `sctm-photonic` device
//! layer — the two canonical 2012-era ONoC designs and two extensions —
//! all implementing the workspace-wide
//! [`sctm_engine::net::NetworkModel`] interface, with their message
//! bookkeeping in a [`sctm_engine::ledger::Ledger`], so the full-system
//! simulator and the trace replayer can swap them freely:
//!
//! * [`omesh`] — **circuit-switched photonic mesh** with an electrical
//!   control plane for path setup/teardown (PhoenixSim lineage). Long
//!   data messages ride light; short control messages stay electrical.
//! * [`oxbar`] — **wavelength-routed MWSR crossbar** with circulating
//!   optical token arbitration (Corona lineage). Everything is optical;
//!   per-destination home channels serialise writers.
//! * [`layout`] — die floorplan, waveguide geometry and the worst-case
//!   path inventories that feed the loss/power solver.
//! * [`hybrid`] — extension: the authors' 2013 follow-up architecture, a
//!   path-adaptive opto-electronic hybrid where each message picks a
//!   plane by distance and payload size.
//! * [`obus`] — extension: SWMR broadcast bus (Firefly/ATAC lineage),
//!   arbitration-free writers, serialised receivers.

pub mod hybrid;
pub mod layout;
pub mod obus;
pub mod omesh;
pub mod oxbar;

pub use hybrid::{HybridConfig, HybridPolicy, HybridSim};
pub use layout::Floorplan;
pub use obus::{ObusConfig, ObusSim};
pub use omesh::{OmeshConfig, OmeshSim};
pub use oxbar::{OxbarConfig, OxbarSim};
