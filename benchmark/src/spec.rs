//! The names the benchmark reports under. `BENCHMARK.json` at the
//! repository root carries the same lists (a test holds the two
//! together); later issues cite these names and nothing else.

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; 0 for per-layer metrics, which have no bound.
    pub bound: f64,
    /// Counts that must repeat exactly between two runs of one commit
    /// with one seed (checked by `--compare`).
    pub exact: bool,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "loop_fft64_omesh",
        why: "The paper's case study: 64-core fft self-correction loop on the photonic mesh; replay machinery (trace) and capture (cmp) do most of the work.",
    },
    WorkloadDef {
        name: "loop_fft64_emesh",
        why: "Same loop on the electrical mesh, where the detailed router model (enoc) is ~97% of the wall: a trace/cmp optimisation must show ~nothing here, an enoc/engine one shows here first.",
    },
    WorkloadDef {
        name: "svc_warm_lockstep",
        why: "Latency of one request through client, sctmd, cache hit, sctf thaw, one replay pass, render and wire; one connection in lockstep over one primed capture (cache read path).",
    },
    WorkloadDef {
        name: "svc_cold_pipelined",
        why: "Same srv/trace layers the other way: unique-seed requests pipelined on two connections into a 4 MiB cache, so every request misses, captures, freezes and evicts (cache write path).",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact: true,
    }
}

/// Reported by every workload with `--trace 0`.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("op_cal_p50", "xcal", "lower", 0.25),
    e2e("accuracy_pct", "%", "higher", 0.01),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
];

/// Reported by every workload with `--trace 1`; 0 where a metric is not
/// defined on the workload (README, "Per-layer metrics").
pub const PER_LAYER: [MetricDef; 53] = [
    layer("workloads.build_ms", "ms", "lower"),
    layer("cmp.capture_ms", "ms", "lower"),
    layer("cmp.capture_ns_per_msg", "ns", "lower"),
    count("cmp.capture_msgs", "count", "lower"),
    layer("cmp.exec_cal_p50", "xcal", "lower"),
    layer("onoc.drain_ns_per_msg", "ns", "lower"),
    layer("enoc.drain_ns_per_msg", "ns", "lower"),
    layer("onoc.build_ms", "ms", "lower"),
    layer("enoc.build_ms", "ms", "lower"),
    layer("engine.evq_ns_per_op", "ns", "lower"),
    layer("trace.replay_pass_ms", "ms", "lower"),
    layer("trace.replay_ns_per_msg", "ns", "lower"),
    layer("trace.replay_overhead_frac", "frac", "lower"),
    layer("trace.pass_over_exec", "x", "lower"),
    count("trace.incr_full", "count", "lower"),
    count("trace.incr_spliced", "count", "higher"),
    count("trace.incr_resumed", "count", "higher"),
    count("trace.incr_dirty_msgs", "count", "lower"),
    layer("trace.corrections_ms", "ms", "lower"),
    count("trace.correction_pairs", "count", "lower"),
    layer("trace.sctf_encode_ms", "ms", "lower"),
    layer("trace.sctf_decode_ms", "ms", "lower"),
    layer("trace.sctf_open_ms", "ms", "lower"),
    count("trace.sctf_bytes_per_msg", "B", "lower"),
    layer("core.loop_ms", "ms", "lower"),
    count("core.iterations", "count", "lower"),
    layer("core.ledger_cover_frac", "frac", "higher"),
    layer("core.sctm_over_exec", "x", "lower"),
    count("core.exec_err_pct", "%", "lower"),
    layer("obs.on_over_off", "x", "lower"),
    layer("srv.parse_request_ns", "ns", "lower"),
    layer("srv.render_us", "us", "lower"),
    layer("srv.cache_hit_ms", "ms", "lower"),
    layer("srv.cache_insert_ms", "ms", "lower"),
    layer("srv.cache_hits", "count", "higher"),
    layer("srv.cache_misses", "count", "lower"),
    layer("srv.cache_evictions", "count", "lower"),
    layer("srv.cache_bytes", "B", "lower"),
    layer("srv.wall_ms_p50", "ms", "lower"),
    layer("client.rtt_ms_p50", "ms", "lower"),
    layer("client.rtt_ms_tail", "ms", "lower"),
    layer("client.rtt_tail_pct", "%", "higher"),
    layer("client.wire_overhead_ms", "ms", "lower"),
    layer("client.parse_response_ns", "ns", "lower"),
    layer("client.retries", "count", "lower"),
    layer("client.batch_ms_p50", "ms", "lower"),
    layer("bench.sim_msgs_per_s", "1/s", "higher"),
    layer("bench.raw_op_ms_p50", "ms", "lower"),
    layer("bench.calib_ms_p50", "ms", "lower"),
    layer("bench.trace_overhead_frac", "frac", "lower"),
    layer("bench.ops", "count", "higher"),
    layer("bench.fail_frac", "frac", "lower"),
    layer("bench.nproc", "count", "higher"),
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The `--list` text: one tab-separated line per workload and metric.
pub fn list_text() -> String {
    let mut out = String::new();
    for w in &WORKLOADS {
        out.push_str(&format!("workload\t{}\t{}\n", w.name, w.why));
    }
    for m in &END_TO_END {
        out.push_str(&format!(
            "end_to_end\t{}\t{}\t{}\t{}\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    for m in &PER_LAYER {
        out.push_str(&format!(
            "per_layer\t{}\t{}\t{}\n",
            m.name, m.unit, m.better
        ));
    }
    out
}
