//! # sctm-prof — causal profiling for SCTM runs
//!
//! Blame analysis on top of the observability layer ([`analyze`]):
//! aggregate per-message [`MsgLifecycle`] records (harvested from any
//! network model with lifecycle capture on) into per-class component
//! totals, and walk the captured dependency DAG to extract the sim-time
//! **critical path** — the chain of messages and dependency gaps that
//! bounds execution time — with per-component blame along it,
//! exportable as a folded-stack flamegraph.
//!
//! [`MsgLifecycle`]: sctm_engine::net::MsgLifecycle
//! [`analyze`]: analyze::analyze

pub mod analyze;

pub use analyze::{analyze, critical_path, BlameReport, ClassBlame, CriticalPath};
