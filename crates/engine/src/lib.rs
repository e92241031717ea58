//! # sctm-engine — discrete-event simulation kernel
//!
//! The foundation shared by every simulator in the SCTM workspace
//! (electrical NoC, optical NoC, CMP full-system model, trace replay).
//!
//! Design goals, in order:
//!
//! 1. **Determinism.** Two runs with the same configuration and seed must
//!    produce bit-identical statistics. The event queue breaks timestamp
//!    ties by insertion sequence number, and all randomness flows through
//!    [`rng::StreamRng`] which derives independent named streams from one
//!    master seed.
//! 2. **Fixed-point time.** Simulated time is an integer count of
//!    picoseconds ([`time::SimTime`]). Floating point never touches the
//!    timeline, so accumulation error cannot desynchronise components
//!    running at different clock frequencies.
//! 3. **Cheap statistics.** [`stats`] provides streaming
//!    mean/variance and log-scaled histograms whose hot-path cost is a
//!    few integer ops, so instrumentation can stay on in benchmarks.
//!
//! The kernel is intentionally minimal: components schedule typed events
//! on an [`event::EventQueue`] and are advanced by their owning
//! simulator. There is no global scheduler object; each simulator (e.g.
//! `sctm_enoc::NocSim`) owns its queue. This keeps the kernel free of
//! `dyn` dispatch on the hot path and makes simulators trivially `Send`
//! for parallel parameter sweeps.

#![forbid(unsafe_code)]

pub mod event;
pub mod hash;
pub mod ledger;
pub mod msgtable;
pub mod net;
pub mod par;
pub mod rng;
pub mod stats;
pub mod table;
pub mod time;

pub use event::{EventQueue, QueuedEvent};
pub use ledger::Ledger;
pub use msgtable::MsgTable;
pub use net::{
    AnalyticNetwork, Delivery, Message, MsgClass, MsgId, NetStats, NetworkModel, NodeId,
};
pub use par::{num_threads, par_map, serial_map};
pub use rng::StreamRng;
pub use stats::{Histogram, Running};
pub use table::{csv_row, Table};
pub use time::{Freq, SimTime, PS_PER_NS, PS_PER_US};
