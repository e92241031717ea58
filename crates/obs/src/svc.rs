//! Service-layer telemetry: the live aggregate behind `sctmd`'s
//! `stats` and `metrics` verbs.
//!
//! The daemon's per-request lifecycle (accepted → queued → cache-probe
//! → capture/replay → respond) rolls up into one [`SvcStats`]: a
//! lock-cheap aggregate of saturating counters (plain relaxed
//! atomics), max gauges, and per-phase latency [`Histogram`]s behind a
//! single uncontended mutex taken **once per request**, never per
//! message. Recording is always on — live stats are the point of a
//! service; EXPERIMENTS.md §P7 measured the cost at ≤2% on a cached
//! replay roundtrip.
//!
//! Two export shapes:
//! * [`SvcSnapshot::publish`] writes the aggregate into a
//!   [`MetricsRegistry`] under the documented `srv.*` namespace
//!   (DESIGN.md §12), from which the versioned JSON `stats` snapshot is
//!   a [`crate::Manifest`];
//! * [`prometheus_text`] renders any registry as Prometheus text
//!   exposition format 0.0.4, so standard scrapers work against the
//!   daemon's TCP port.
//!
//! Snapshots are merge-able ([`SvcSnapshot::merge`] is associative and
//! commutative, like the registry's own merge discipline) and
//! individually monotone: every counter a poller reads is a relaxed
//! load of a value that only ever increases.

use crate::registry::{MetricValue, MetricsRegistry};
use crate::{json_f64, lock_unpoisoned};
use sctm_engine::stats::Histogram;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Version of the `stats` verb's JSON snapshot. Bump on any field
/// removal or rename; additions are compatible.
pub const SVC_STATS_VERSION: u32 = 3;

/// One phase of the request lifecycle, measured in host microseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SvcPhase {
    /// Enqueue → a worker picks the request up (includes pool wait).
    Queue = 0,
    /// Capture-cache resolution, *excluding* a miss's capture time.
    CacheProbe = 1,
    /// Simulation work: capture (on a miss) plus replay/execute.
    Execute = 2,
    /// Worker hands the finished line over → it is delivered: flushed
    /// to the connection, or received by an in-process submitter.
    /// Recorded by the receiving side, from the handoff instant the
    /// reply carries.
    Respond = 3,
    /// Enqueue → worker hands the finished line over.
    Total = 4,
}

impl SvcPhase {
    pub const ALL: [SvcPhase; 5] = [
        SvcPhase::Queue,
        SvcPhase::CacheProbe,
        SvcPhase::Execute,
        SvcPhase::Respond,
        SvcPhase::Total,
    ];

    /// Registry key (DESIGN.md §12 namespace table).
    pub fn key(self) -> &'static str {
        match self {
            SvcPhase::Queue => "srv.lat.queue_us",
            SvcPhase::CacheProbe => "srv.lat.cache_probe_us",
            SvcPhase::Execute => "srv.lat.execute_us",
            SvcPhase::Respond => "srv.lat.respond_us",
            SvcPhase::Total => "srv.lat.total_us",
        }
    }
}

/// One saturating request counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SvcCounter {
    /// Requests admitted to the queue.
    Accepted = 0,
    /// Requests that ran and answered (ok or error).
    Completed = 1,
    /// Requests refused with `busy` by the bounded queue.
    Rejected = 2,
    /// Requests dropped unrun past their queue deadline.
    TimedOut = 3,
    /// Requests that ran and answered with a typed error.
    Errors = 4,
    /// Errors that were specifically `BudgetExhausted` (the §P5
    /// congestion-collapse guard tripping).
    BudgetExhausted = 5,
    /// Trace-less runs (exec-driven / online) that bypassed the cache.
    CacheBypass = 6,
    /// `stats` verb answers served.
    StatsServed = 7,
    /// `metrics` verb / HTTP scrape answers served.
    MetricsServed = 8,
}

impl SvcCounter {
    pub const ALL: [SvcCounter; 9] = [
        SvcCounter::Accepted,
        SvcCounter::Completed,
        SvcCounter::Rejected,
        SvcCounter::TimedOut,
        SvcCounter::Errors,
        SvcCounter::BudgetExhausted,
        SvcCounter::CacheBypass,
        SvcCounter::StatsServed,
        SvcCounter::MetricsServed,
    ];

    /// Registry key. `completed`/`rejected`/`timeouts` predate this
    /// module (PR 5) and keep their names; see DESIGN.md §12.
    pub fn key(self) -> &'static str {
        match self {
            SvcCounter::Accepted => "srv.accepted",
            SvcCounter::Completed => "srv.completed",
            SvcCounter::Rejected => "srv.rejected",
            SvcCounter::TimedOut => "srv.timeouts",
            SvcCounter::Errors => "srv.errors",
            SvcCounter::BudgetExhausted => "srv.budget_exhausted",
            SvcCounter::CacheBypass => "srv.cache.bypass",
            SvcCounter::StatsServed => "srv.stats_served",
            SvcCounter::MetricsServed => "srv.metrics_served",
        }
    }
}

const NC: usize = SvcCounter::ALL.len();
const NP: usize = SvcPhase::ALL.len();

/// The live service aggregate. Counters and gauges are relaxed
/// atomics; the per-phase histograms share one mutex that is locked
/// once per request (and once per snapshot).
#[derive(Default)]
pub struct SvcStats {
    counters: [AtomicU64; NC],
    in_flight: AtomicU64,
    queue_peak: AtomicU64,
    hists: Mutex<PhaseHists>,
}

#[derive(Default)]
struct PhaseHists {
    by_phase: Option<Box<[Histogram; NP]>>,
}

impl PhaseHists {
    fn get(&mut self) -> &mut [Histogram; NP] {
        // Lazy: a SvcStats that never records a latency never allocates
        // the ~20 KiB of buckets.
        self.by_phase
            .get_or_insert_with(|| Box::new(std::array::from_fn(|_| Histogram::new())))
    }
}

impl SvcStats {
    pub fn new() -> Self {
        SvcStats::default()
    }

    #[inline]
    pub fn incr(&self, c: SvcCounter) {
        self.add(c, 1);
    }

    #[inline]
    pub fn add(&self, c: SvcCounter, k: u64) {
        self.counters[c as usize].fetch_add(k, Ordering::Relaxed);
    }

    pub fn counter(&self, c: SvcCounter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// A request entered execution. Pair with [`SvcStats::exit`].
    #[inline]
    pub fn enter(&self) {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn exit(&self) {
        // Saturating: a stray exit must not wrap the gauge to 2^64.
        let _ = self
            .in_flight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
    }

    /// Record an observed queue depth; the peak is a max gauge.
    #[inline]
    pub fn note_queue_depth(&self, depth: u64) {
        self.queue_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Record one phase latency in host microseconds.
    pub fn record_us(&self, phase: SvcPhase, us: u64) {
        lock_unpoisoned(&self.hists).get()[phase as usize].record(us);
    }

    /// A point-in-time copy. Each counter is individually monotone
    /// across successive snapshots.
    pub fn snapshot(&self) -> SvcSnapshot {
        let hists = match &lock_unpoisoned(&self.hists).by_phase {
            Some(h) => (**h).clone(),
            None => std::array::from_fn(|_| Histogram::new()),
        };
        SvcSnapshot {
            counters: std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed)),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            queue_peak: self.queue_peak.load(Ordering::Relaxed),
            hists,
        }
    }
}

/// An owned copy of [`SvcStats`] at one instant.
#[derive(Clone, Debug, PartialEq)]
pub struct SvcSnapshot {
    counters: [u64; NC],
    pub in_flight: u64,
    pub queue_peak: u64,
    hists: [Histogram; NP],
}

impl Default for SvcSnapshot {
    fn default() -> Self {
        SvcSnapshot {
            counters: [0; NC],
            in_flight: 0,
            queue_peak: 0,
            hists: std::array::from_fn(|_| Histogram::new()),
        }
    }
}

impl SvcSnapshot {
    pub fn counter(&self, c: SvcCounter) -> u64 {
        self.counters[c as usize]
    }

    pub fn phase(&self, p: SvcPhase) -> &Histogram {
        &self.hists[p as usize]
    }

    /// Record a phase latency directly into the snapshot (test and
    /// aggregation construction path).
    pub fn record_us(&mut self, p: SvcPhase, us: u64) {
        self.hists[p as usize].record(us);
    }

    pub fn add(&mut self, c: SvcCounter, k: u64) {
        self.counters[c as usize] = self.counters[c as usize].saturating_add(k);
    }

    /// Merge another snapshot: counters add (saturating), gauges take
    /// the max, histograms merge bucket-wise. Exactly associative and
    /// commutative, like [`MetricsRegistry::merge`], so shard
    /// aggregation is order-free.
    pub fn merge(&mut self, other: &SvcSnapshot) {
        for i in 0..NC {
            self.counters[i] = self.counters[i].saturating_add(other.counters[i]);
        }
        self.in_flight = self.in_flight.max(other.in_flight);
        self.queue_peak = self.queue_peak.max(other.queue_peak);
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
    }

    /// Write the aggregate into `reg` under the `srv.*` namespace
    /// (DESIGN.md §12): counters, the `srv.in_flight` /
    /// `srv.queue.peak` gauges, and the per-phase latency histograms.
    pub fn publish(&self, reg: &mut MetricsRegistry) {
        for c in SvcCounter::ALL {
            reg.counter_add(c.key(), self.counter(c));
        }
        reg.gauge_set("srv.in_flight", self.in_flight as f64);
        reg.gauge_set("srv.queue.peak", self.queue_peak as f64);
        for p in SvcPhase::ALL {
            reg.hist_merge(p.key(), self.phase(p));
        }
    }
}

/// Cumulative `le` bounds for histogram exposition: decades from 1 to
/// 10^10. The registry's histograms are unit-bearing by name
/// (`*_us`, `*_ps`), so fixed decade bounds double as SLO buckets —
/// for a `*_us` latency they read as 1µs … 10⁴s.
pub const PROM_LE_BOUNDS: [u64; 11] = [
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// Map a registry key to a Prometheus metric name: `sctm_` prefix,
/// every character outside `[a-zA-Z0-9_]` becomes `_`.
pub fn prometheus_name(key: &str) -> String {
    let mut out = String::with_capacity(key.len() + 5);
    out.push_str("sctm_");
    for c in key.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        json_f64(v)
    }
}

/// Render a registry as Prometheus text exposition format 0.0.4.
///
/// Counters get a `_total` suffix and `# TYPE ... counter`; gauges
/// export verbatim; histograms export the full cumulative shape —
/// `_bucket{le="..."}` rows over [`PROM_LE_BOUNDS`] plus `+Inf`,
/// `_sum`, and `_count`. Keys arrive sorted (the registry is a
/// `BTreeMap`), so the document is deterministic for a given registry
/// state.
pub fn prometheus_text(reg: &MetricsRegistry) -> String {
    let mut out = String::new();
    for (key, value) in reg.iter() {
        let name = prometheus_name(key);
        match value {
            MetricValue::Counter(n) => {
                let _ = writeln!(out, "# HELP {name}_total SCTM counter {key}");
                let _ = writeln!(out, "# TYPE {name}_total counter");
                let _ = writeln!(out, "{name}_total {n}");
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "# HELP {name} SCTM gauge {key}");
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {}", prom_f64(*v));
            }
            MetricValue::Hist(h) => {
                let _ = writeln!(out, "# HELP {name} SCTM histogram {key}");
                let _ = writeln!(out, "# TYPE {name} histogram");
                for le in PROM_LE_BOUNDS {
                    let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {}", h.count_le(le));
                }
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
                let _ = writeln!(out, "{name}_sum {}", h.sum());
                let _ = writeln!(out, "{name}_count {}", h.count());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded_snapshot(seed: u64) -> SvcSnapshot {
        let s = SvcStats::new();
        s.add(SvcCounter::Accepted, 3 + seed);
        s.add(SvcCounter::Completed, 2 + seed);
        s.incr(SvcCounter::Rejected);
        s.enter();
        s.note_queue_depth(4 + seed);
        for i in 0..10 {
            s.record_us(SvcPhase::Total, seed * 100 + i * 7 + 1);
            s.record_us(SvcPhase::Queue, seed + i);
        }
        s.snapshot()
    }

    #[test]
    fn counters_gauges_and_phases_roundtrip() {
        let s = SvcStats::new();
        s.incr(SvcCounter::Accepted);
        s.add(SvcCounter::Accepted, 2);
        s.enter();
        s.enter();
        s.exit();
        s.note_queue_depth(9);
        s.note_queue_depth(3);
        s.record_us(SvcPhase::Execute, 1_000);
        let snap = s.snapshot();
        assert_eq!(snap.counter(SvcCounter::Accepted), 3);
        assert_eq!(snap.in_flight, 1);
        assert_eq!(snap.queue_peak, 9);
        assert_eq!(snap.phase(SvcPhase::Execute).count(), 1);
        assert_eq!(snap.phase(SvcPhase::Queue).count(), 0);
    }

    #[test]
    fn exit_without_enter_saturates_at_zero() {
        let s = SvcStats::new();
        s.exit();
        assert_eq!(s.snapshot().in_flight, 0);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let (a, b, c) = (loaded_snapshot(1), loaded_snapshot(2), loaded_snapshot(3));
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "merge not associative");
        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, ba, "merge not commutative");
    }

    #[test]
    fn publish_writes_the_documented_namespace() {
        let snap = loaded_snapshot(1);
        let mut reg = MetricsRegistry::new();
        snap.publish(&mut reg);
        assert_eq!(
            reg.get("srv.accepted"),
            Some(&MetricValue::Counter(snap.counter(SvcCounter::Accepted)))
        );
        assert_eq!(reg.get("srv.in_flight"), Some(&MetricValue::Gauge(1.0)));
        match reg.get("srv.lat.total_us") {
            Some(MetricValue::Hist(h)) => assert_eq!(h.count(), 10),
            other => panic!("bad total_us metric {other:?}"),
        }
        // Every published key is in the srv.* namespace.
        for (k, _) in reg.iter() {
            assert!(k.starts_with("srv."), "stray key {k}");
        }
    }

    #[test]
    fn prometheus_names_are_sanitised() {
        assert_eq!(prometheus_name("srv.cache.hits"), "sctm_srv_cache_hits");
        assert_eq!(
            prometheus_name("net.omesh.node003.queue_depth"),
            "sctm_net_omesh_node003_queue_depth"
        );
        assert_eq!(prometheus_name("a-b c"), "sctm_a_b_c");
    }

    #[test]
    fn prometheus_text_renders_all_three_kinds() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("srv.completed", 7);
        reg.gauge_set("srv.queue.depth", 3.0);
        for v in [5u64, 50, 5_000] {
            reg.hist_record("srv.lat.total_us", v);
        }
        let text = prometheus_text(&reg);
        assert!(text.contains("# TYPE sctm_srv_completed_total counter"));
        assert!(text.contains("sctm_srv_completed_total 7"));
        assert!(text.contains("# TYPE sctm_srv_queue_depth gauge"));
        assert!(text.contains("sctm_srv_queue_depth 3"));
        assert!(text.contains("# TYPE sctm_srv_lat_total_us histogram"));
        assert!(text.contains("sctm_srv_lat_total_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("sctm_srv_lat_total_us_count 3"));
        assert!(text.contains("sctm_srv_lat_total_us_sum 5055"));
        // Cumulative buckets are monotone non-decreasing.
        let mut last = 0u64;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("sctm_srv_lat_total_us_bucket") {
                let n: u64 = rest.rsplit(' ').next().unwrap().parse().unwrap();
                assert!(n >= last, "bucket counts regress: {line}");
                last = n;
            }
        }
        assert_eq!(last, 3);
    }

    #[test]
    fn prometheus_gauge_handles_non_finite() {
        let mut reg = MetricsRegistry::new();
        reg.gauge_set("srv.bad", f64::INFINITY);
        assert!(prometheus_text(&reg).contains("sctm_srv_bad +Inf"));
    }
}
