//! Single-layer timers: each calls one layer's public functions from
//! outside and reports host time. Shared by the loop and the service
//! workloads' traced runs.

use crate::report::Report;
use crate::stats::median;
use sctm_core::{NetworkKind, SystemConfig};
use sctm_engine::rng::StreamRng;
use sctm_engine::time::SimTime;
use sctm_engine::EventQueue;
use sctm_trace::sctf::{from_sctf_bytes, to_sctf_bytes};
use sctm_trace::{SctfReader, TraceLog};
use sctm_workloads::{Kernel, WorkloadParams};
use std::hint::black_box;
use std::time::Instant;

/// Median wall of `reps` calls of `f`, in nanoseconds.
pub fn median_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// The event-queue kernel both network families sit on: 16k
/// pop-then-reschedule steps over a 256-event sliding window.
pub fn evq_ns_per_op() -> f64 {
    const STEPS: u64 = 16_384;
    let ns = median_ns(21, || {
        let mut q = EventQueue::new();
        let mut r = StreamRng::new(42);
        for i in 0..256u64 {
            q.schedule(SimTime::from_ps(i * 100), i);
        }
        let mut sum = 0u64;
        for _ in 0..STEPS {
            let e = q.pop().expect("queue primed");
            sum = sum.wrapping_add(e.payload);
            q.schedule(e.at + SimTime::from_ps(100 + r.below(5_000)), e.payload);
        }
        sum
    });
    ns / STEPS as f64
}

/// `make_network_kind`, which includes the photonic budget solve (its
/// only call site on the benchmark's paths).
pub fn net_build_ms(side: usize, kind: NetworkKind) -> f64 {
    median_ns(9, || SystemConfig::make_network_kind(side, kind)) / 1e6
}

/// Bare network cost of a pass: feed every message of `log` into a
/// fresh network at the pass's own injection times, advancing the
/// network up to each injection first, then drain — the event work of
/// the pass with none of the replay machinery around it. Nanoseconds
/// per message.
///
/// Injecting the whole list before the first advance would be barer
/// still, but with every message of the 64-core omesh trace queued at
/// once that drain does not end within minutes.
pub fn drain_ns_per_msg(log: &TraceLog, inject: &[SimTime], side: usize, kind: NetworkKind) -> f64 {
    let n = log.len();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by_key(|&i| (inject[i as usize], i));
    // The clock starts after the network is built: `net_build_ms` owns
    // that cost.
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let mut net = SystemConfig::make_network_kind(side, kind);
            let mut out = Vec::with_capacity(n);
            let t0 = Instant::now();
            for &i in &order {
                let at = inject[i as usize];
                while net
                    .advance_batches(Some(at), &mut out)
                    .is_some_and(|next| next < at)
                {}
                net.inject(at, log.records[i as usize].msg);
            }
            net.drain(&mut out);
            assert_eq!(out.len(), n, "bare drain lost messages");
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples) / n.max(1) as f64
}

pub fn workloads_build_ms(kernel: Kernel, cores: usize, ops: usize, seed: u64) -> f64 {
    median_ns(9, || {
        sctm_workloads::build(kernel, WorkloadParams::new(cores, ops, seed))
    }) / 1e6
}

/// The trace container's three costs on `log`, and its density.
pub fn sctf_layers(log: &TraceLog, report: &mut Report) {
    let bytes = to_sctf_bytes(log);
    report.set(
        "trace.sctf_encode_ms",
        median_ns(5, || to_sctf_bytes(log)) / 1e6,
    );
    report.set(
        "trace.sctf_decode_ms",
        median_ns(5, || {
            from_sctf_bytes(&bytes).expect("own container decodes")
        }) / 1e6,
    );
    report.set(
        "trace.sctf_open_ms",
        median_ns(9, || {
            SctfReader::from_bytes(&bytes).expect("own container opens")
        }) / 1e6,
    );
    report.set(
        "trace.sctf_bytes_per_msg",
        bytes.len() as f64 / log.len().max(1) as f64,
    );
}
