//! # sctm-trace — the self-correction trace model
//!
//! The paper's primary contribution, reconstructed (see DESIGN.md §3):
//! trace-driven ONoC simulation that recovers the network→core timing
//! feedback loop execution-driven simulation has and classic
//! trace-driven simulation loses.
//!
//! * [`log`] — dependency-carrying trace format and the capture hook
//!   that plugs into the full-system simulator.
//! * [`replay`] — the three replay engines: classic fixed-timestamp
//!   ([`replay::replay_fixed`]), the self-correcting gated pass
//!   ([`replay::replay_sctm_pass`], the paper's replay mechanism; the
//!   outer capture-correction loop lives in `sctm-core`), and the
//!   full-causality oracle ([`replay::replay_oracle`]) that bounds
//!   achievable trace-driven accuracy.
//! * [`online`] — the online epoch-corrected variant: an analytic
//!   network that continuously calibrates itself against a shadow
//!   detailed model while the full-system run proceeds.
//! * [`persist`] — the unified trace store: save/load with format
//!   autodetection, CSV as the interchange codec.
//! * [`sctf`] — the binary columnar container (storage format): fixed
//!   LE header, per-field column sections, delta+varint timestamps, a
//!   replay-ready dependency CSR, and a zero-copy reader.

#[doc(hidden)]
pub mod incr;
pub mod log;
pub mod online;
mod pages;
pub mod persist;
pub mod replay;
pub mod sctf;

#[doc(hidden)]
pub use incr::{IncrPassStats, IncrReplayer, PassKind};
pub use log::{Capture, CaptureFeed, CaptureTail, StreamCapture, TraceLog, TraceRecord};
pub use online::{OnlineCorrected, ShadowFactory};
pub use persist::{TraceError, TraceFormat, TraceStore};
pub use replay::{
    pair_corrections, replay_fixed, replay_fixed_budgeted, replay_oracle, replay_sctm_pass,
    replay_sctm_pass_ordered, replay_sctm_stream, GatePlan, ReplayResult, ReplayScratch,
    StreamedPass,
};
pub use sctf::SctfReader;
