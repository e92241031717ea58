//! Trace-format economics (PR10): cold-load cost and resident
//! footprint of the sctf binary container versus the CSV text it
//! replaces. `trace_cold_load` times parsing a 64-core fft capture
//! from each on-disk form (and the zero-copy reader open, which is the
//! wire/cache fast path); `trace_footprint` times the encoders, whose
//! output sizes are the bytes-per-message numbers §P10 tabulates.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sctm_core::{Experiment, NetworkKind, SystemConfig};
use sctm_trace::sctf::{from_sctf_bytes, to_sctf_bytes};
use sctm_trace::{SctfReader, TraceLog};
use sctm_workloads::Kernel;

fn capture(side: usize, ops: usize) -> TraceLog {
    Experiment::new(SystemConfig::new(side, NetworkKind::Omesh), Kernel::Fft)
        .with_ops(ops)
        .capture()
}

fn bench_cold_load(c: &mut Criterion) {
    // 64 cores (side 8): the acceptance workload for the ≥5× cold-load
    // speedup.
    let log64 = capture(8, 300);
    let csv64 = log64.to_csv_string();
    let sctf64 = to_sctf_bytes(&log64);

    let mut g = c.benchmark_group("trace_cold_load");
    g.bench_with_input(
        BenchmarkId::from_parameter("csv_parse_64c"),
        &csv64,
        |b, csv| b.iter(|| black_box(TraceLog::from_csv_str(csv).expect("csv").len())),
    );
    g.bench_with_input(
        BenchmarkId::from_parameter("sctf_decode_64c"),
        &sctf64,
        |b, bytes| b.iter(|| black_box(from_sctf_bytes(bytes).expect("sctf").len())),
    );
    // Zero-copy open: header + section validation only, no row structs.
    // This is what a cache hit or a wire frame pays before replay.
    g.bench_with_input(
        BenchmarkId::from_parameter("sctf_reader_open_64c"),
        &sctf64,
        |b, bytes| b.iter(|| black_box(SctfReader::from_bytes(bytes).expect("reader").len())),
    );

    // 256 cores (side 16): the newly-opened scale — kept cheap with a
    // smaller op count so the gate stays fast.
    let log256 = capture(16, 120);
    let csv256 = log256.to_csv_string();
    let sctf256 = to_sctf_bytes(&log256);
    g.bench_with_input(
        BenchmarkId::from_parameter("csv_parse_256c"),
        &csv256,
        |b, csv| b.iter(|| black_box(TraceLog::from_csv_str(csv).expect("csv").len())),
    );
    g.bench_with_input(
        BenchmarkId::from_parameter("sctf_decode_256c"),
        &sctf256,
        |b, bytes| b.iter(|| black_box(from_sctf_bytes(bytes).expect("sctf").len())),
    );
    g.finish();

    // Encoder side: what a capture pays to freeze into the cache, and
    // what a CSV export costs for comparison.
    let mut g = c.benchmark_group("trace_footprint");
    g.bench_with_input(
        BenchmarkId::from_parameter("csv_encode_64c"),
        &log64,
        |b, log| b.iter(|| black_box(log.to_csv_string().len())),
    );
    g.bench_with_input(
        BenchmarkId::from_parameter("sctf_encode_64c"),
        &log64,
        |b, log| b.iter(|| black_box(to_sctf_bytes(log).len())),
    );
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_cold_load
}
criterion_main!(benches);
