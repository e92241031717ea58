//! # sctm-trace — the self-correction trace model
//!
//! The paper's primary contribution, reconstructed (see DESIGN.md §3):
//! trace-driven ONoC simulation that recovers the network→core timing
//! feedback loop execution-driven simulation has and classic
//! trace-driven simulation loses.
//!
//! * [`log`] — dependency-carrying trace format and the capture hooks
//!   that plug into the full-system simulator: [`Capture`] builds a
//!   [`TraceLog`]; [`StreamCapture`] hands its rows to a pass as the
//!   simulator runs and builds only what that pass reads.
//! * [`replay`] — the three replay engines: classic fixed-timestamp
//!   ([`replay::replay_fixed`]), the self-correcting gated pass
//!   ([`replay::replay_sctm_pass`], the paper's replay mechanism, and
//!   [`replay::replay_sctm_stream`], the same pass over a capture still
//!   running; the outer capture-correction loop lives in `sctm-core`),
//!   and the full-causality oracle ([`replay::replay_oracle`]) that
//!   bounds achievable trace-driven accuracy.
//! * [`fold`] — what the self-correction loop reads of a replay, folded
//!   a message at a time in id order ([`ReplayFold`]): pair correction
//!   sums in a table of the flows that carried messages, and the class
//!   mean latencies.
//! * [`online`] — the online epoch-corrected variant: an analytic
//!   network that continuously calibrates itself against a shadow
//!   detailed model while the full-system run proceeds.
//! * [`persist`] — traces on disk: [`TraceLog::save`] /
//!   [`TraceLog::load`] and the typed [`TraceError`].
//! * [`sctf`] — the binary columnar container, a trace's one encoding
//!   outside memory: fixed LE header, per-field column sections,
//!   delta+varint timestamps and dependencies, and a reader that
//!   decodes it in one checked pass.

#![deny(unsafe_code)]

pub mod fold;
#[doc(hidden)]
pub mod incr;
pub mod log;
pub mod online;
mod pages;
pub mod persist;
pub mod replay;
pub mod sctf;

pub use fold::ReplayFold;
#[doc(hidden)]
pub use incr::{IncrPassStats, IncrReplayer, PassKind};
pub use log::{Capture, CaptureFeed, StreamCapture, TraceLog, TraceRecord};
pub use online::{OnlineCorrected, ShadowFactory};
pub use persist::TraceError;
pub use replay::{
    pair_corrections, replay_fixed, replay_fixed_budgeted, replay_oracle, replay_sctm_pass,
    replay_sctm_stream, GatePlan, ReplayResult, ReplayScratch, StreamedPass,
};
pub use sctf::SctfReader;
