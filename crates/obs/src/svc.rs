//! Service-layer telemetry formats: the `stats` snapshot's version and
//! the Prometheus exposition behind `sctmd`'s `metrics` verb.
//!
//! The daemon keeps its live numbers in one [`MetricsRegistry`] under
//! the documented `srv.*` namespace (DESIGN.md §12); the versioned JSON
//! `stats` snapshot is a [`crate::Manifest`] around a copy of it, and
//! [`prometheus_text`] renders any registry as Prometheus text
//! exposition format 0.0.4, so standard scrapers work against the
//! daemon's TCP port.

use crate::json_f64;
use crate::registry::{MetricValue, MetricsRegistry};
use std::fmt::Write as _;

/// Version of the `stats` verb's JSON snapshot. Bump on any field
/// removal or rename; additions are compatible.
pub const SVC_STATS_VERSION: u32 = 5;

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

    #[test]
    fn prometheus_names_are_sanitised() {
        assert_eq!(prometheus_name("srv.cache.hits"), "sctm_srv_cache_hits");
        assert_eq!(
            prometheus_name("net.omesh.lat_data_ps"),
            "sctm_net_omesh_lat_data_ps"
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
