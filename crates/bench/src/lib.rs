//! # sctm-bench — the paper's evaluation, regenerated
//!
//! One function per experiment (E1–E9, see DESIGN.md §4), each
//! returning a renderable [`Table`]. The `tables` binary prints them;
//! the unit tests assert their qualitative shape. Timing lives in the
//! repo benchmark (`benchmark/`, `BENCHMARK.json`), not here.
//!
//! Experiments run at two scales: [`Scale::Quick`] (CI-sized, seconds)
//! and [`Scale::Full`] (paper-sized, minutes). Shapes — who wins, by
//! what factor, where crossovers fall — must hold at both.

pub mod experiments;

pub use experiments::*;

use sctm_engine::table::Table;

/// Experiment sizing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Small systems, short scripts: seconds per experiment.
    Quick,
    /// Paper-sized: 64-core flagship, longer scripts.
    Full,
}

impl Scale {
    /// Mesh side of the flagship configuration.
    pub fn side(self) -> usize {
        match self {
            Scale::Quick => 4,
            Scale::Full => 8,
        }
    }

    /// Workload script length per core.
    pub fn ops(self) -> usize {
        match self {
            Scale::Quick => 400,
            Scale::Full => 1200,
        }
    }
}

pub use sctm_engine::par::{num_threads, serial_map};

/// Deterministic parallel sweep executor (pooled, work-queue based,
/// results in input order — see `sctm_engine::par`), shared by all
/// experiments and external drivers. Each job runs inside a
/// `sweep`/`job` tracing span so parallel sweeps appear per-job in
/// exported traces; with tracing off the wrapper costs one atomic load
/// per job.
pub fn par_map<T: Send, F: FnOnce() -> T + Send>(jobs: Vec<F>) -> Vec<T> {
    sctm_engine::par::par_map(
        jobs.into_iter()
            .map(|job| {
                move || {
                    let _span = sctm_obs::span("sweep", "job");
                    job()
                }
            })
            .collect(),
    )
}

/// Experiment ids in report order.
pub const EXPERIMENT_IDS: [&str; 12] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "a1", "p10",
];

/// Run one experiment by id.
pub fn run_experiment(id: &str, scale: Scale) -> Option<Table> {
    Some(match id {
        "e1" => e1_configuration(scale),
        "e2" => e2_case_study(scale),
        "e3" => e3_accuracy_per_application(scale),
        "e4" => e4_convergence(scale),
        "e5" => e5_simulation_time_scaling(scale),
        "e6" => e6_load_latency(scale),
        "e7" => e7_power_budget(scale),
        "e8" => e8_capture_model_sensitivity(scale),
        "e9" => e9_online_correction(scale),
        "e10" => e10_latency_distribution(scale),
        "a1" => a1_ablation(scale),
        "p10" => p10_trace_format(scale),
        _ => return None,
    })
}
