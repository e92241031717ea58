//! Exporters: Chrome trace-event JSON (loadable in Perfetto /
//! `chrome://tracing`) and a machine-readable run manifest.
//!
//! Both are serialised by hand — the workspace builds offline with no
//! registry access, so there is no serde. The JSON subset emitted here
//! is deliberately small: objects, arrays, strings, integers and
//! finite floats.

use crate::registry::{IterTelemetry, MetricValue, MetricsRegistry};
use crate::series::SeriesStore;
use crate::tracer::TraceEvent;
use std::fmt::Write as _;

/// Escape a string for a JSON string literal (quotes not included).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Format an `f64` as a JSON number. JSON has no NaN/Inf, so those
/// degrade to `null`; integral values print without a fraction.
pub fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_owned();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Render drained trace events as Chrome trace-event format JSON.
///
/// Layout: host-time spans become complete (`"ph":"X"`) events under
/// pid 1, one track per host thread; sim-time instants become
/// thread-scoped instant (`"ph":"i"`) events under pid 2, one track per
/// network node. Timestamps are microseconds as the format requires —
/// fractional µs keep full ns (host) and ps (sim) precision.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    chrome_trace_with_series(events, &SeriesStore::default())
}

/// [`chrome_trace_json`] plus sampled per-node gauges as Perfetto
/// counter tracks: each [`crate::CounterSeries`] becomes one
/// `"ph":"C"` track under the simulation process (pid 2), named after
/// the series, one counter event per sample point.
pub fn chrome_trace_with_series(events: &[TraceEvent], series: &SeriesStore) -> String {
    let mut threads: Vec<u32> = Vec::new();
    let mut nodes: Vec<u32> = Vec::new();
    for ev in events {
        match *ev {
            TraceEvent::HostSpan { thread, .. } => {
                if !threads.contains(&thread) {
                    threads.push(thread);
                }
            }
            TraceEvent::SimInstant { node, .. } => {
                if !nodes.contains(&node) {
                    nodes.push(node);
                }
            }
        }
    }
    threads.sort_unstable();
    nodes.sort_unstable();

    let mut rows: Vec<String> = Vec::with_capacity(events.len() + threads.len() + nodes.len() + 2);
    rows.push(
        r#"{"name":"process_name","ph":"M","pid":1,"args":{"name":"host (wall clock)"}}"#
            .to_owned(),
    );
    rows.push(
        r#"{"name":"process_name","ph":"M","pid":2,"args":{"name":"simulation (sim time)"}}"#
            .to_owned(),
    );
    for t in &threads {
        rows.push(format!(
            r#"{{"name":"thread_name","ph":"M","pid":1,"tid":{t},"args":{{"name":"thread {t}"}}}}"#
        ));
    }
    for n in &nodes {
        rows.push(format!(
            r#"{{"name":"thread_name","ph":"M","pid":2,"tid":{n},"args":{{"name":"node {n}"}}}}"#
        ));
    }
    for ev in events {
        match *ev {
            TraceEvent::HostSpan {
                cat,
                name,
                thread,
                start_ns,
                dur_ns,
            } => {
                // ns → µs with 3 decimals keeps exact ns precision.
                rows.push(format!(
                    r#"{{"name":"{}","cat":"{}","ph":"X","pid":1,"tid":{},"ts":{}.{:03},"dur":{}.{:03}}}"#,
                    json_escape(name),
                    json_escape(cat),
                    thread,
                    start_ns / 1_000,
                    start_ns % 1_000,
                    dur_ns / 1_000,
                    dur_ns % 1_000,
                ));
            }
            TraceEvent::SimInstant {
                cat,
                name,
                node,
                at_ps,
            } => {
                // ps → µs with 6 decimals keeps exact ps precision.
                rows.push(format!(
                    r#"{{"name":"{}","cat":"{}","ph":"i","s":"t","pid":2,"tid":{},"ts":{}.{:06}}}"#,
                    json_escape(name),
                    json_escape(cat),
                    node,
                    at_ps / 1_000_000,
                    at_ps % 1_000_000,
                ));
            }
        }
    }
    for s in &series.series {
        let name = json_escape(&s.name);
        for &(at_ps, v) in &s.points {
            // ps → µs with 6 decimals, like the instants above.
            rows.push(format!(
                r#"{{"name":"{}","cat":"series","ph":"C","pid":2,"ts":{}.{:06},"args":{{"value":{}}}}}"#,
                name,
                at_ps / 1_000_000,
                at_ps % 1_000_000,
                json_f64(v),
            ));
        }
    }

    let mut out = String::new();
    out.push_str("{\"traceEvents\":[\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(row);
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}\n");
    out
}

/// One timed phase of a run (an experiment, a capture, a sweep...).
#[derive(Clone, Debug)]
pub struct PhaseWall {
    pub name: String,
    pub wall_ms: f64,
}

/// A machine-readable record of one `tables` run: what was run, with
/// which knobs, how long each phase took, and every metric and
/// self-correction iteration recorded along the way.
#[derive(Clone, Debug, Default)]
pub struct Manifest {
    /// Free-form `key → value` config pairs (scale, seed, thread count).
    pub config: Vec<(String, String)>,
    pub phases: Vec<PhaseWall>,
    pub metrics: MetricsRegistry,
    pub iterations: Vec<IterTelemetry>,
    /// Sampled per-node gauge series (one store per profiled run).
    pub series: Vec<SeriesStore>,
}

impl Manifest {
    pub fn new() -> Self {
        Manifest::default()
    }

    pub fn config(&mut self, key: impl Into<String>, value: impl ToString) -> &mut Self {
        self.config.push((key.into(), value.to_string()));
        self
    }

    pub fn phase(&mut self, name: impl Into<String>, wall_ms: f64) -> &mut Self {
        self.phases.push(PhaseWall {
            name: name.into(),
            wall_ms,
        });
        self
    }

    /// Serialise to a JSON document. Histograms export as summary
    /// objects (count/mean/min/max and the 50/95/99th percentiles)
    /// rather than raw buckets.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");

        out.push_str("  \"config\": {");
        for (i, (k, v)) in self.config.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": \"{}\"", json_escape(k), json_escape(v));
        }
        out.push_str("\n  },\n");

        out.push_str("  \"phases\": [");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"name\": \"{}\", \"wall_ms\": {}}}",
                json_escape(&p.name),
                json_f64(p.wall_ms)
            );
        }
        out.push_str("\n  ],\n");

        out.push_str("  \"metrics\": {");
        let mut first = true;
        for (name, value) in self.metrics.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": ", json_escape(name));
            match value {
                MetricValue::Counter(n) => {
                    let _ = write!(out, "{{\"kind\": \"counter\", \"value\": {n}}}");
                }
                MetricValue::Gauge(v) => {
                    let _ = write!(out, "{{\"kind\": \"gauge\", \"value\": {}}}", json_f64(*v));
                }
                MetricValue::Hist(h) => {
                    let _ = write!(
                        out,
                        "{{\"kind\": \"hist\", \"count\": {}, \"mean\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                        h.count(),
                        json_f64(h.mean()),
                        h.min(),
                        h.max(),
                        h.p50(),
                        h.p95(),
                        h.p99(),
                    );
                }
            }
        }
        out.push_str("\n  },\n");

        out.push_str("  \"iterations\": [");
        for (i, t) in self.iterations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"network\": \"{}\", \"workload\": \"{}\", \"iteration\": {}, \"est_ps\": {}, \"drift_ps\": {}, \"corrections\": {}, \"messages\": {}, \"wall_ns\": {}}}",
                json_escape(t.network),
                json_escape(t.workload),
                t.iteration,
                t.est_ps,
                t.drift_ps,
                t.corrections,
                t.messages,
                t.wall_ns,
            );
        }
        out.push_str("\n  ],\n");

        out.push_str("  \"series\": [");
        let mut first = true;
        for store in &self.series {
            for s in &store.series {
                if s.points.is_empty() {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "\n    {{\"name\": \"{}\", \"node\": {}, \"interval_ps\": {}, \"points\": [",
                    json_escape(&s.name),
                    s.node,
                    store.interval_ps,
                );
                for (i, (t, v)) in s.points.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "[{}, {}]", t, json_f64(*v));
                }
                out.push_str("]}");
            }
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// [`Manifest::to_json`] collapsed onto a single line, for
    /// line-oriented protocols (`sctmd` answers one manifest per
    /// request line). Structural newlines and indentation never occur
    /// inside string literals — [`json_escape`] encodes them — so
    /// stripping them cannot corrupt the document.
    pub fn to_json_compact(&self) -> String {
        let pretty = self.to_json();
        let mut out = String::with_capacity(pretty.len());
        for line in pretty.lines() {
            out.push_str(line.trim_start());
        }
        out
    }
}

/// Minimal structural JSON check: balanced braces/brackets outside
/// string literals, escapes well-formed. Not a full parser, but it
/// catches the serialisation mistakes hand-written JSON makes.
#[cfg(test)]
fn check_json(s: &str) {
    let mut depth: Vec<char> = Vec::new();
    let mut chars = s.chars();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        if in_str {
            match c {
                '\\' => {
                    let e = chars.next().expect("dangling escape");
                    assert!(
                        matches!(e, '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' | 'u'),
                        "bad escape \\{e}"
                    );
                    if e == 'u' {
                        for _ in 0..4 {
                            let h = chars.next().expect("short \\u escape");
                            assert!(h.is_ascii_hexdigit(), "bad \\u digit {h}");
                        }
                    }
                }
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth.push(c),
            '}' => assert_eq!(depth.pop(), Some('{'), "unbalanced }}"),
            ']' => assert_eq!(depth.pop(), Some('['), "unbalanced ]"),
            _ => {}
        }
    }
    assert!(!in_str, "unterminated string");
    assert!(depth.is_empty(), "unclosed {depth:?}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_trace_renders_both_shapes() {
        let evs = vec![
            TraceEvent::HostSpan {
                cat: "bench",
                name: "e1",
                thread: 0,
                start_ns: 1_234,
                dur_ns: 5_678_901,
            },
            TraceEvent::SimInstant {
                cat: "net",
                name: "inject",
                node: 5,
                at_ps: 2_500_000,
            },
        ];
        let json = chrome_trace_json(&evs);
        check_json(&json);
        assert!(json.contains(r#""ph":"X""#));
        assert!(json.contains(r#""ts":1.234"#));
        assert!(json.contains(r#""dur":5678.901"#));
        assert!(json.contains(r#""ph":"i""#));
        assert!(json.contains(r#""ts":2.500000"#));
        assert!(json.contains(r#""name":"node 5""#));
        assert!(json.contains(r#""name":"thread 0""#));
    }

    #[test]
    fn counter_tracks_render_and_validate() {
        use crate::series::CounterSeries;
        let store = SeriesStore {
            interval_ps: 1_000,
            series: vec![
                CounterSeries {
                    name: "node003.queue_depth".into(),
                    node: 3,
                    points: vec![(1_000, 2.0), (2_000, 5.0)],
                },
                CounterSeries {
                    name: "node003.link_util".into(),
                    node: 3,
                    points: vec![(1_000, 0.25)],
                },
                CounterSeries {
                    name: "empty".into(),
                    node: 0,
                    points: vec![],
                },
            ],
        };
        let json = chrome_trace_with_series(&[], &store);
        check_json(&json);
        assert_eq!(json.matches(r#""ph":"C""#).count(), 3);
        assert!(json.contains(r#""name":"node003.queue_depth""#));
        assert!(json.contains(r#""ts":0.001000"#));
        assert!(json.contains(r#""args":{"value":0.25}"#));
    }

    #[test]
    fn counter_track_names_are_escaped() {
        use crate::series::CounterSeries;
        let store = SeriesStore {
            interval_ps: 1,
            series: vec![CounterSeries {
                name: "evil\"name\\with\njunk".into(),
                node: 0,
                points: vec![(5, 1.0)],
            }],
        };
        let json = chrome_trace_with_series(&[], &store);
        check_json(&json);
        assert!(json.contains(r#"evil\"name\\with\njunk"#));
    }

    #[test]
    fn manifest_series_section_roundtrips() {
        use crate::series::CounterSeries;
        let mut m = Manifest::new();
        m.series.push(SeriesStore {
            interval_ps: 500,
            series: vec![CounterSeries {
                name: "node000.queue_depth".into(),
                node: 0,
                points: vec![(500, 1.0), (1_000, 3.5)],
            }],
        });
        let json = m.to_json();
        check_json(&json);
        assert!(json.contains(r#""interval_ps": 500"#));
        assert!(json.contains("[500, 1],[1000, 3.5]"));
    }

    #[test]
    fn chrome_trace_empty_is_valid() {
        let json = chrome_trace_json(&[]);
        check_json(&json);
        assert!(json.contains("traceEvents"));
    }

    #[test]
    fn manifest_serialises_all_sections() {
        let mut m = Manifest::new();
        m.config("scale", "quick").config("seed", 42);
        m.phase("e1", 12.5).phase("e2", 0.125);
        m.metrics.counter_add("net.omesh.delivered", 2000);
        m.metrics.gauge_set("run.mean_lat_ctrl_ns", 1.5);
        for v in [100u64, 200, 300] {
            m.metrics.hist_record("net.omesh.lat_ctrl_ps", v);
        }
        m.iterations.push(IterTelemetry {
            network: "omesh",
            workload: "fft",
            iteration: 1,
            est_ps: 1000,
            drift_ps: 50,
            corrections: 3,
            messages: 400,
            wall_ns: 9000,
        });
        let json = m.to_json();
        check_json(&json);
        assert!(json.contains(r#""scale": "quick""#));
        assert!(json.contains(r#""name": "e1", "wall_ms": 12.5"#));
        assert!(json.contains(r#""kind": "counter", "value": 2000"#));
        assert!(json.contains(r#""kind": "hist", "count": 3"#));
        assert!(json.contains(r#""network": "omesh""#));
        assert!(json.contains(r#""drift_ps": 50"#));
    }

    #[test]
    fn compact_manifest_is_one_line_and_structurally_valid() {
        let mut m = Manifest::new();
        m.config("note", "multi\nline \"quoted\"").config("seed", 7);
        m.phase("e1", 1.25);
        m.metrics.counter_add("srv.cache.hits", 3);
        let compact = m.to_json_compact();
        check_json(&compact);
        assert!(!compact.contains('\n'), "compact manifest spans lines");
        assert!(compact.contains(r#""note": "multi\nline \"quoted\"""#));
        assert!(compact.contains(r#""srv.cache.hits""#));
    }

    #[test]
    fn escaping_handles_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(2.0), "2");
        assert_eq!(json_f64(2.5), "2.5");
    }
}
