//! # sctm-srv — the `sctmd` batch simulation service
//!
//! A long-running, std-only front-end for the SCTM simulator: clients
//! send newline-delimited requests (over TCP, or over stdin for CI
//! pipelines) describing simulations in the [`RunSpec`] vocabulary, and
//! get back one single-line JSON response per request, ending with a
//! run manifest in the `sctm-obs` schema.
//!
//! The piece that makes a *service* worth running over a CLI is the
//! [`CaptureCache`]: CMP captures are content-addressed by
//! (kernel, side, ops, seed) — the capture runs on the analytic model
//! and is deterministic, so the target network is *not* part of the
//! identity. A design sweep of fifty network
//! configurations over one workload therefore costs one capture plus
//! fifty replays, and the cache counters in every response prove it.
//!
//! Scheduling is a fixed pool of workers popping whole requests off one
//! bounded queue: N workers keep N requests in flight, and every
//! request answers bit-identically to a direct `Experiment::execute`.
//! The queue has explicit backpressure (`busy` + `retry_after_ms`),
//! each request has a queue deadline, a panic inside the simulator
//! costs its own request and nothing else, and shutdown drains
//! gracefully.
//!
//! ```text
//! $ printf 'run kernel=fft net=omesh ops=300 id=a\nstats\n' | sctmd --stdin
//! {"status":"ok","id":"a",...,"result":{...}}
//! {"status":"ok","stats":{...}}
//! ```
//!
//! [`RunSpec`]: sctm_core::RunSpec

#![forbid(unsafe_code)]

pub mod cache;
pub mod proto;
pub mod server;

pub use cache::{CacheStats, CaptureCache, CaptureKey};
pub use proto::{parse_request, result_json, CacheOutcome, Request, RunRequest};
pub use server::{serve_lines, serve_tcp, Reply, Server, ServerConfig};
