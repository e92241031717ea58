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
//!
//! The models keep message timing only. Loss and laser power come from
//! each config's `budget()`, a function of the floorplan and devices;
//! no model counts the bits it carries. Each model's module doc says
//! whether it delivers a `(src, dst, class)` flow in order: omesh and
//! obus do, oxbar and the hybrid do not.

#![forbid(unsafe_code)]

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

/// Helpers the models' unit tests share.
#[cfg(test)]
mod testkit {
    use sctm_engine::net::{Delivery, Message, MsgClass, MsgId, NetworkModel, NodeId};

    /// Message `id` of `bytes` from `src` to `dst`: data above 16
    /// bytes, control otherwise.
    pub(crate) fn msg(id: u64, src: u32, dst: u32, bytes: u32) -> Message {
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

    /// Run `net` until it is idle and return what it delivered.
    pub(crate) fn drain(net: &mut impl NetworkModel) -> Vec<Delivery> {
        let mut out = Vec::new();
        net.drain(&mut out);
        out
    }
}
