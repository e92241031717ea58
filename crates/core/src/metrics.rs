//! Run reports and accuracy metrics.
//!
//! The paper's evaluation compares *aggregate* quantities (execution
//! time, average packet latency, simulation wall time) between the
//! trace-model estimate and the execution-driven reference, because a
//! replay and a re-execution do not share per-message identity. These
//! types carry exactly those aggregates.

use sctm_engine::stats::rel_err_pct;
use sctm_engine::time::SimTime;
use sctm_obs::ConvergenceVerdict;
use std::time::Duration;

/// Aggregate outcome of one simulation run (any mode).
#[derive(Clone, Debug)]
pub struct RunReport {
    pub mode: &'static str,
    pub network: &'static str,
    pub workload: &'static str,
    /// Estimated (trace modes) or actual (execution-driven) workload
    /// execution time.
    pub exec_time: SimTime,
    pub mean_lat_ctrl_ns: f64,
    pub mean_lat_data_ns: f64,
    pub messages: u64,
    /// Host wall-clock cost of producing this result (capture included
    /// for trace modes when measured end to end).
    pub wall: Duration,
    /// Per-iteration convergence stats (self-correction mode only).
    pub iterations: Option<Vec<IterStats>>,
    /// Typed convergence verdict (self-correction mode only). Always
    /// computed — it rides on arithmetic the loop already does — so it
    /// is identical whether or not observability is recording.
    pub verdict: Option<ConvergenceVerdict>,
}

/// One iteration of the outer self-correction loop (capture on the
/// corrected analytic model → self-correcting replay on the target →
/// feed corrections back).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IterStats {
    pub iteration: usize,
    /// Execution-time estimate after this iteration's replay.
    pub est_exec_time: SimTime,
    /// |estimate − previous estimate| (convergence measure; iteration 1
    /// measures against the uncorrected capture's execution time).
    pub drift: SimTime,
    /// (src,dst) pairs whose correction factor was updated.
    pub corrections: usize,
    /// Message-weighted mean relative movement the correction factors
    /// took this iteration, measured after damping and quantisation
    /// (drives the factor-ε early exit).
    pub factor_move: f64,
    /// Messages in this iteration's trace (re-captures can change it).
    pub messages: u64,
}

/// Error of an estimate against an execution-driven reference.
#[derive(Clone, Copy, Debug)]
pub struct Accuracy {
    pub exec_time_err_pct: f64,
    pub ctrl_lat_err_pct: f64,
    pub data_lat_err_pct: f64,
    /// Estimate wall time / reference wall time (< 1 means faster).
    pub wall_ratio: f64,
}

/// Compare an estimated run against the execution-driven reference.
pub fn accuracy(estimate: &RunReport, reference: &RunReport) -> Accuracy {
    Accuracy {
        exec_time_err_pct: rel_err_pct(
            estimate.exec_time.as_ps() as f64,
            reference.exec_time.as_ps() as f64,
        ),
        ctrl_lat_err_pct: rel_err_pct(estimate.mean_lat_ctrl_ns, reference.mean_lat_ctrl_ns),
        data_lat_err_pct: rel_err_pct(estimate.mean_lat_data_ns, reference.mean_lat_data_ns),
        wall_ratio: estimate.wall.as_secs_f64() / reference.wall.as_secs_f64().max(1e-9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(exec_ns: u64, ctrl: f64, data: f64, wall_ms: u64) -> RunReport {
        RunReport {
            mode: "test",
            network: "emesh",
            workload: "fft",
            exec_time: SimTime::from_ns(exec_ns),
            mean_lat_ctrl_ns: ctrl,
            mean_lat_data_ns: data,
            messages: 100,
            wall: Duration::from_millis(wall_ms),
            iterations: None,
            verdict: None,
        }
    }

    #[test]
    fn accuracy_math() {
        let reference = report(1000, 20.0, 40.0, 100);
        let estimate = report(1100, 22.0, 30.0, 25);
        let a = accuracy(&estimate, &reference);
        assert!((a.exec_time_err_pct - 10.0).abs() < 1e-9);
        assert!((a.ctrl_lat_err_pct - 10.0).abs() < 1e-9);
        assert!((a.data_lat_err_pct - 25.0).abs() < 1e-9);
        assert!((a.wall_ratio - 0.25).abs() < 1e-9);
    }

    #[test]
    fn perfect_estimate_is_zero_error() {
        let r = report(1000, 20.0, 40.0, 100);
        let a = accuracy(&r, &r);
        assert_eq!(a.exec_time_err_pct, 0.0);
        assert_eq!(a.ctrl_lat_err_pct, 0.0);
        assert_eq!(a.data_lat_err_pct, 0.0);
    }
}
