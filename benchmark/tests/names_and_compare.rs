//! `--list`, `BENCHMARK.json` and `--compare` agree with each other.

use sctm_benchmark::compare::compare;
use sctm_benchmark::json::Json;
use sctm_benchmark::spec::{list_text, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeSet;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {v:?}"))
}

fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{key} is not a list"))
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.as_bytes()[0].is_ascii_alphanumeric()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

#[test]
fn benchmark_json_carries_the_names_of_spec() {
    let doc = benchmark_json();
    let got: Vec<(&str, &str)> = entries(&doc, "workloads")
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let want: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(got, want);

    let got: Vec<(&str, &str, &str, f64)> = entries(&doc, "end_to_end")
        .iter()
        .map(|m| {
            (
                text(m, "name"),
                text(m, "unit"),
                text(m, "better"),
                m.get("bound").and_then(Json::as_f64).expect("bound"),
            )
        })
        .collect();
    let want: Vec<(&str, &str, &str, f64)> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better, m.bound))
        .collect();
    assert_eq!(got, want);

    let got: Vec<(&str, &str, &str)> = entries(&doc, "per_layer")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    let want: Vec<(&str, &str, &str)> = PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn benchmark_json_stays_inside_the_contract() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let secs = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    for w in &WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    assert!(
        END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"),
        "set-up time is an end-to-end metric"
    );
    let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(
        END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap()
            .bound,
        largest,
        "set-up time has the largest bound"
    );
    for m in &END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    for m in &PER_LAYER {
        assert_eq!(m.bound, 0.0, "{}: per-layer metrics have no bound", m.name);
    }
}

#[test]
fn every_name_is_well_formed_and_used_once() {
    let mut seen = BTreeSet::new();
    for name in WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
    {
        assert!(is_name(name), "{name}");
        assert!(seen.insert(name), "{name} is used twice");
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(is_unit(m.unit), "{}: unit {}", m.name, m.unit);
        assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
    }
}

#[test]
fn list_flag_prints_the_names_of_spec() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_sctm-benchmark"))
        .arg("--list")
        .output()
        .expect("run --list");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout, list_text());
    let listed: Vec<&str> = stdout
        .lines()
        .map(|l| l.split('\t').nth(1).expect("kind<TAB>name"))
        .collect();
    let doc = benchmark_json();
    let in_json: Vec<&str> = ["workloads", "end_to_end", "per_layer"]
        .iter()
        .flat_map(|k| entries(&doc, k).iter().map(|e| text(e, "name")))
        .collect();
    assert_eq!(listed, in_json);
}

#[test]
fn unknown_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "no_such"][..],
        &["--frobnicate"],
        &["--trace", "2"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_sctm-benchmark"))
            .args(args)
            .output()
            .expect("run");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

/// A `result.json` with one workload whose untraced metrics are given
/// and whose traced run reports `capture_msgs`.
fn result(op_cal: f64, q: (f64, f64), setup: f64, digest: &str, capture_msgs: f64) -> Json {
    let metrics = format!(
        r#""op_cal_p50": {{"value": {op_cal}, "unit": "xcal", "q1": {}, "q3": {}, "n": 20}},
           "accuracy_pct": {{"value": 99.0, "unit": "%"}},
           "setup_s": {{"value": {setup}, "unit": "s"}},
           "peak_rss_mb": {{"value": 50.0, "unit": "MiB"}}"#,
        q.0, q.1
    );
    let exact: String = PER_LAYER
        .iter()
        .filter(|d| d.exact)
        .map(|d| {
            let v = if d.name == "cmp.capture_msgs" {
                capture_msgs
            } else {
                1.0
            };
            format!(r#""{}": {{"value": {v}, "unit": "{}"}}"#, d.name, d.unit)
        })
        .collect::<Vec<_>>()
        .join(", ");
    Json::parse(&format!(
        r#"{{"seed": 1, "seconds": 20, "workloads": {{"w": {{
            "untraced": {{"correct": true, "attempted": 20, "failed": 0, "sim_digest": "{digest}", "metrics": {{{metrics}}}}},
            "traced": {{"correct": true, "attempted": 20, "failed": 0, "sim_digest": "{digest}", "metrics": {{{exact}}}}}
        }}}}}}"#
    ))
    .expect("test document parses")
}

#[test]
fn compare_holds_each_metric_to_its_bound() {
    let bench = benchmark_json();
    let base = result(10.0, (9.8, 10.2), 1.0, "aa", 500.0);

    let (text, ok) = compare(&bench, &base, &base).unwrap();
    assert!(ok, "{text}");
    assert!(text.contains("within bounds") && !text.contains("noisy"));

    // 20% slower is inside the 25% bound, 30% is past it.
    let (_, ok) = compare(&bench, &base, &result(12.0, (11.8, 12.2), 1.0, "aa", 500.0)).unwrap();
    assert!(ok);
    let (text, ok) = compare(&bench, &base, &result(13.0, (12.8, 13.2), 1.0, "aa", 500.0)).unwrap();
    assert!(!ok && text.contains("PAST BOUND"), "{text}");
    // Faster is never a regression.
    let (_, ok) = compare(&bench, &base, &result(5.0, (4.9, 5.1), 0.5, "aa", 500.0)).unwrap();
    assert!(ok);

    // Exact counts and the digest must not move at all.
    let (text, ok) = compare(&bench, &base, &result(10.0, (9.8, 10.2), 1.0, "aa", 501.0)).unwrap();
    assert!(!ok && text.contains("EXACT COUNT MOVED"), "{text}");
    let (text, ok) = compare(&bench, &base, &result(10.0, (9.8, 10.2), 1.0, "bb", 500.0)).unwrap();
    assert!(!ok && text.contains("simulated statistics moved"), "{text}");

    // A wide quartile spread is flagged, not failed.
    let (text, ok) = compare(&bench, &base, &result(10.0, (9.0, 11.0), 1.0, "aa", 500.0)).unwrap();
    assert!(ok && text.contains("noisy"), "{text}");
}
