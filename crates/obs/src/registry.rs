//! Named metrics: counters, gauges and latency histograms.
//!
//! The primitives are the engine's own streaming statistics
//! ([`sctm_engine::stats`]); this module gives them *names*. Two
//! registries exist at run time: the process-wide one that traced runs
//! publish into ([`with_global`]), and the one `sctmd` keeps its live
//! service telemetry in. Names sort, so every export is deterministic
//! for a given registry state.

use crate::{enabled, lock_unpoisoned};
use sctm_engine::net::NetworkModel;
use sctm_engine::stats::Histogram;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// One registered metric.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotone count; adds saturate, so recording can never panic.
    Counter(u64),
    /// Last-set level.
    Gauge(f64),
    /// Value distribution.
    Hist(Histogram),
}

/// A name → metric map. Names sort lexicographically (`BTreeMap`), so
/// iteration and export order are deterministic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    map: BTreeMap<String, MetricValue>,
}

impl MetricsRegistry {
    pub const fn new() -> Self {
        MetricsRegistry {
            map: BTreeMap::new(),
        }
    }

    pub fn counter_add(&mut self, name: impl Into<String>, k: u64) {
        match self
            .map
            .entry(name.into())
            .or_insert(MetricValue::Counter(0))
        {
            MetricValue::Counter(n) => *n = n.saturating_add(k),
            other => debug_assert!(false, "counter_add on {other:?}"),
        }
    }

    pub fn gauge_set(&mut self, name: impl Into<String>, v: f64) {
        self.map.insert(name.into(), MetricValue::Gauge(v));
    }

    pub fn hist_record(&mut self, name: impl Into<String>, v: u64) {
        match self
            .map
            .entry(name.into())
            .or_insert_with(|| MetricValue::Hist(Histogram::new()))
        {
            MetricValue::Hist(h) => h.record(v),
            other => debug_assert!(false, "hist_record on {other:?}"),
        }
    }

    /// Merge a whole histogram under `name` (publishing a model's
    /// already-accumulated latency distribution).
    pub fn hist_merge(&mut self, name: impl Into<String>, h: &Histogram) {
        match self
            .map
            .entry(name.into())
            .or_insert_with(|| MetricValue::Hist(Histogram::new()))
        {
            MetricValue::Hist(mine) => mine.merge(h),
            other => debug_assert!(false, "hist_merge on {other:?}"),
        }
    }

    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.map.get(name)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.map.iter().map(|(k, v)| (k.as_str(), v))
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

static GLOBAL: Mutex<MetricsRegistry> = Mutex::new(MetricsRegistry::new());

/// Run `f` against the process-wide registry.
pub fn with_global<R>(f: impl FnOnce(&mut MetricsRegistry) -> R) -> R {
    f(&mut lock_unpoisoned(&GLOBAL))
}

/// Copy of the process-wide registry.
pub fn global_snapshot() -> MetricsRegistry {
    lock_unpoisoned(&GLOBAL).clone()
}

/// Clear the process-wide registry.
pub fn reset_global() {
    lock_unpoisoned(&GLOBAL).map.clear();
}

/// Publish a network model's message counts and latency distributions
/// into `reg` under `net.<label>.*`.
pub fn publish_network(reg: &mut MetricsRegistry, model: &dyn NetworkModel) {
    let label = model.label();
    let s = model.stats();
    reg.counter_add(format!("net.{label}.injected"), s.injected);
    reg.counter_add(format!("net.{label}.delivered"), s.delivered);
    reg.counter_add(format!("net.{label}.bytes_delivered"), s.bytes_delivered);
    reg.hist_merge(format!("net.{label}.lat_ctrl_ps"), &s.ctrl_latency_ps);
    reg.hist_merge(format!("net.{label}.lat_data_ps"), &s.data_latency_ps);
}

/// One iteration of the self-correction loop, as telemetry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IterTelemetry {
    pub network: &'static str,
    pub workload: &'static str,
    pub iteration: u32,
    pub est_ps: u64,
    pub drift_ps: u64,
    pub corrections: u64,
    pub messages: u64,
    pub wall_ns: u64,
}

static ITERATIONS: Mutex<Vec<IterTelemetry>> = Mutex::new(Vec::new());

/// Record one self-correction iteration for the run manifest's
/// `iterations` section. No-op while recording is disabled.
pub fn record_iteration(t: IterTelemetry) {
    if enabled() {
        lock_unpoisoned(&ITERATIONS).push(t);
    }
}

/// Every iteration recorded since the last reset, in a deterministic
/// order (network, workload, iteration — not arrival order, which
/// parallel sweeps scramble).
pub fn iterations_snapshot() -> Vec<IterTelemetry> {
    let mut v = lock_unpoisoned(&ITERATIONS).clone();
    v.sort_by(|a, b| {
        (a.network, a.workload, a.iteration).cmp(&(b.network, b.workload, b.iteration))
    });
    v
}

pub fn reset_iterations() {
    lock_unpoisoned(&ITERATIONS).clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_hist_roundtrip() {
        let mut r = MetricsRegistry::new();
        r.counter_add("c", 2);
        r.counter_add("c", 3);
        r.gauge_set("g", 1.5);
        r.hist_record("h", 100);
        r.hist_record("h", 200);
        assert_eq!(r.get("c"), Some(&MetricValue::Counter(5)));
        assert_eq!(r.get("g"), Some(&MetricValue::Gauge(1.5)));
        match r.get("h") {
            Some(MetricValue::Hist(h)) => assert_eq!(h.count(), 2),
            other => panic!("bad metric {other:?}"),
        }
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn global_registry_survives_poisoning() {
        with_global(|r| r.counter_add("poison.survivor", 1));
        // Panic while holding the global lock (from another thread, so
        // this test's own unwind is clean).
        std::thread::spawn(|| {
            with_global(|_| panic!("metrics user dies mid-update"));
        })
        .join()
        .unwrap_err();
        // All global entry points must still work and see the data.
        with_global(|r| r.counter_add("poison.survivor", 1));
        let snap = global_snapshot();
        assert_eq!(snap.get("poison.survivor"), Some(&MetricValue::Counter(2)));
    }

    #[test]
    fn iteration_telemetry_is_gated() {
        let _serial = lock_unpoisoned(&crate::GLOBAL_STATE_TESTS);
        let at = |network| IterTelemetry {
            network,
            workload: "testwl",
            iteration: 1,
            est_ps: 123,
            drift_ps: 4,
            corrections: 5,
            messages: 6,
            wall_ns: 7,
        };
        crate::set_enabled(false);
        record_iteration(at("off"));
        crate::set_enabled(true);
        record_iteration(at("on"));
        crate::set_enabled(false);
        let recorded = iterations_snapshot();
        assert!(!recorded.iter().any(|t| t.network == "off"));
        assert!(recorded.contains(&at("on")));
    }
}
