//! The percentile rule and the span self-time arithmetic.

use sctm_benchmark::span::{per_op_total, self_times, Recorder, Span};
use sctm_benchmark::stats::{iqr_frac, median, percentile, tail_percentile};
use std::time::Instant;

#[test]
fn highest_percentile_keeps_ten_samples_beyond_it() {
    // Below twenty samples not even the median has ten on each side.
    for n in [0, 1, 10, 19] {
        assert_eq!(tail_percentile(n), None, "n={n}");
    }
    // 20–39 samples support the median and nothing higher.
    for n in [20, 25, 30, 39] {
        assert_eq!(tail_percentile(n), Some(50.0), "n={n}");
    }
    assert_eq!(tail_percentile(40), Some(75.0));
    assert_eq!(tail_percentile(99), Some(75.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(199), Some(90.0));
    // The warm workload's 400 requests: p95 has 20 beyond, p99 only 4.
    assert_eq!(tail_percentile(200), Some(95.0));
    assert_eq!(tail_percentile(400), Some(95.0));
    assert_eq!(tail_percentile(1_000), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
}

#[test]
fn percentiles_interpolate_and_ignore_order() {
    let v = [5.0, 1.0, 4.0, 2.0, 3.0];
    assert_eq!(median(&v), 3.0);
    assert_eq!(percentile(&v, 0.0), 1.0);
    assert_eq!(percentile(&v, 100.0), 5.0);
    assert_eq!(percentile(&v, 75.0), 4.0);
    assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
    assert_eq!(percentile(&[], 50.0), 0.0);
    // statistics.quantiles([1..10], n=4) -> 2.75, 8.25; median 5.5.
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!((iqr_frac(&ten) - 1.0).abs() < 1e-12);
}

fn span(name: &'static str, op_id: u32, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name,
        op_id,
        parent,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_is_span_minus_direct_children() {
    let spans = vec![
        span("root", 0, None, 0, 100),
        span("a", 0, Some(0), 10, 30),
        span("b", 0, Some(0), 50, 90),
        // A grandchild shortens its parent, not its grandparent.
        span("b.inner", 0, Some(2), 60, 70),
        // A second op's root with no children keeps all its time.
        span("root", 1, None, 200, 260),
    ];
    assert_eq!(self_times(&spans), vec![40, 20, 30, 10, 60]);
    assert_eq!(per_op_total(&spans, "root"), vec![100.0, 60.0]);
    assert_eq!(per_op_total(&spans, "a"), vec![20.0]);
}

#[test]
fn self_time_counts_overlapping_children_once() {
    // Children that overlap (two threads under one parent) or stick out
    // of the parent must not drive self time below zero.
    let spans = vec![
        span("root", 0, None, 0, 100),
        span("x", 0, Some(0), 10, 60),
        span("y", 0, Some(0), 40, 80),
        span("z", 0, Some(0), 90, 150),
    ];
    // Covered: 10..80 and 90..100 = 80.
    assert_eq!(self_times(&spans)[0], 20);
}

#[test]
fn recorder_nests_scopes_and_closes_them() {
    let mut rec = Recorder::new(Instant::now(), 1);
    let out = rec.scope("outer", 7, |rec| {
        rec.leaf("inner", 7, || 1) + rec.leaf("inner", 7, || 2)
    });
    assert_eq!(out, 3);
    let names: Vec<_> = rec.spans.iter().map(|s| (s.name, s.parent)).collect();
    assert_eq!(
        names,
        vec![("outer", None), ("inner", Some(0)), ("inner", Some(0))]
    );
    assert!(rec
        .spans
        .iter()
        .all(|s| s.op_id == 7 && s.end_ns >= s.start_ns));
    let outer = &rec.spans[0];
    assert!(rec.spans[1..]
        .iter()
        .all(|s| s.start_ns >= outer.start_ns && s.end_ns <= outer.end_ns));
    let total: u64 = self_times(&rec.spans).iter().sum();
    assert_eq!(total, outer.dur_ns(), "self times partition the root");
}
