//! # sctm-obs — observability for the SCTM workspace
//!
//! One instrumentation layer for everything above the engine: a
//! span/event tracer, a named metrics registry, and exporters (Chrome
//! trace-event JSON for Perfetto, a machine-readable run manifest).
//!
//! The design constraint is the paper's own headline: the simulator must
//! stay fast. Tracing is therefore **off by default** and every
//! instrumentation site compiles to a single relaxed [`AtomicBool`] load
//! plus a branch when disabled (EXPERIMENTS.md §P2 measured that path
//! within 0.8% of a build without the sites). When enabled,
//! events go to per-thread ring buffers that are only merged at
//! [`drain`] time, so recording never synchronises threads against each
//! other beyond one uncontended lock.
//!
//! Nothing in this crate feeds back into simulation state: enabling or
//! disabling tracing cannot change any simulated timestamp, and the
//! sweep-determinism suite asserts exactly that.
//!
//! [`AtomicBool`]: std::sync::atomic::AtomicBool

pub mod conv;
mod export;
mod registry;
pub mod reqlog;
mod series;
pub mod svc;
mod tracer;

#[doc(hidden)]
pub use conv::reset_conv;
pub use conv::{classify_unconverged, ConvergenceVerdict};
pub use export::{
    chrome_trace_json, chrome_trace_with_series, json_escape, json_f64, Manifest, PhaseWall,
};
pub use registry::{
    global_snapshot, iterations_snapshot, publish_network, record_iteration, reset_global,
    reset_iterations, with_global, IterTelemetry, MetricValue, MetricsRegistry,
};
pub use series::{CounterSeries, SampledNetwork, SeriesStore};
pub use tracer::{drain, sim_event, span, SpanGuard, TraceEvent};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock a mutex, recovering the data if a previous holder panicked.
///
/// Every structure behind this crate's locks stays structurally valid
/// across any panic point (ring deques, metric maps, telemetry vectors
/// — all updates are single-call appends or overwrites), so poisoning
/// only means the panicking thread's last event may be missing.
/// Observability must never escalate a worker panic into a second
/// panic at drain/snapshot/export time.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Serialises the unit tests that flip [`set_enabled`] or call the
/// global [`tracer::drain`]: both are process-wide, and the test harness
/// runs this binary's tests on parallel threads.
#[cfg(test)]
pub(crate) static GLOBAL_STATE_TESTS: Mutex<()> = Mutex::new(());

/// The one global switch. Relaxed ordering is deliberate: the flag
/// gates *recording*, never correctness, so a stale read at worst loses
/// or gains a few events around the transition.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is tracing/metrics recording enabled?
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on or off (process-wide).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Enable recording if the `SCTM_OBS` environment variable is set to
/// anything other than `0`, `false` or the empty string. Returns the
/// resulting state.
pub fn init_from_env() -> bool {
    if let Ok(v) = std::env::var("SCTM_OBS") {
        let on = !matches!(v.as_str(), "" | "0" | "false" | "off");
        if on {
            set_enabled(true);
        }
    }
    enabled()
}
