//! # sctm-cmp — full-system tiled-CMP simulator
//!
//! The "real workload" half of the paper's co-simulation: in-order cores
//! executing multi-threaded workloads over private L1s, a full-map MESI
//! directory with shared L2 slices, and memory controllers — every
//! coherence hop crossing a pluggable network model. This substitutes
//! for the commercial full-system simulator the original work built on
//! (DESIGN.md §5): the trace model only observes network messages and
//! their causal dependencies, which this substrate produces from real
//! cache and directory state machines.
//!
//! * [`cache`] — set-associative LRU tag stores.
//! * [`protocol`] — coherence message vocabulary, workload API, and the
//!   [`protocol::TraceHook`] capture interface.
//! * [`sim`] — the event-driven simulator itself.

#![forbid(unsafe_code)]

pub mod cache;
pub mod protocol;
pub mod sim;

pub use cache::{Cache, CacheGeometry, LineAddr, LINE_BYTES};
pub use protocol::{InjectRecord, NullHook, Op, ProtocolMsg, TraceHook, Workload};
pub use sim::{CmpConfig, CmpResult, CmpSim};
