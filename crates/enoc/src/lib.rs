//! # sctm-enoc — cycle-accurate electrical NoC simulator
//!
//! The **baseline NoC simulator** the paper compares against: a classic
//! wormhole virtual-channel mesh network with credit-based flow
//! control, the reference interconnect for the CMP full-system model and
//! one of the two comparators in every SCTM experiment.
//!
//! * [`topology`] — mesh geometry and XY dimension-order routing.
//! * [`packet`] — message packetisation into flits.
//! * [`network`] — the router microarchitecture and the
//!   [`sctm_engine::net::NetworkModel`] implementation.
//! * [`traffic`] — synthetic traffic patterns and the open-loop
//!   load-latency measurement harness used for network validation.

pub mod network;
pub mod packet;
pub mod topology;
pub mod traffic;

pub use network::{NocConfig, NocSim};
pub use packet::{Flit, FlitKind, PacketizeConfig};
pub use topology::{Port, Topology};
pub use traffic::{LoadLatencyPoint, Pattern, TrafficConfig, TrafficRunner};
