//! How a self-correction run converged, as a typed verdict.
//!
//! The loop exits when its estimate stops moving or its correction
//! table does; a run that uses up its iterations instead is classified
//! by the **divergence detectors** ([`classify_unconverged`]), which
//! turn the drift/factor-movement history into a [`ConvergenceVerdict`]
//! — oscillation (sign-alternating factor deltas), stall (sub-epsilon
//! movement without an exit), blow-up (monotone drift growth).
//!
//! The verdict is *always* computed — it rides on arithmetic the loop
//! already does — so it never depends on whether recording is on. It
//! reaches its readers through the `RunReport`: the result manifest's
//! `"convergence"` row, and `sctmd`'s `srv.conv.*` rollup that
//! `sctmtop`'s conv row renders.

/// How (or whether) one self-correction run converged.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ConvergenceVerdict {
    /// Exited because the estimate moved < 0.5% between iterations.
    ConvergedDrift,
    /// Exited because the correction table moved less than the
    /// configured factor epsilon.
    ConvergedFactorEpsilon,
    /// Ran out of iterations with sign-alternating factor movement:
    /// each re-capture overshoots the contention the previous
    /// correction just absorbed (the classic undamped failure mode).
    Oscillating,
    /// Ran out of iterations with sub-epsilon factor movement that
    /// never tripped an exit (factor-ε exits disabled).
    Stalled,
    /// Ran out of iterations with monotonically growing drift.
    Diverging,
    /// Ran out of iterations without matching any detector.
    Exhausted,
}

impl ConvergenceVerdict {
    /// Every verdict, in a fixed order (stable metric/report schema).
    pub const ALL: [ConvergenceVerdict; 6] = [
        ConvergenceVerdict::ConvergedDrift,
        ConvergenceVerdict::ConvergedFactorEpsilon,
        ConvergenceVerdict::Oscillating,
        ConvergenceVerdict::Stalled,
        ConvergenceVerdict::Diverging,
        ConvergenceVerdict::Exhausted,
    ];

    pub fn label(self) -> &'static str {
        match self {
            ConvergenceVerdict::ConvergedDrift => "converged-drift",
            ConvergenceVerdict::ConvergedFactorEpsilon => "converged-factor-epsilon",
            ConvergenceVerdict::Oscillating => "oscillating",
            ConvergenceVerdict::Stalled => "stalled",
            ConvergenceVerdict::Diverging => "diverging",
            ConvergenceVerdict::Exhausted => "exhausted",
        }
    }

    pub fn is_converged(self) -> bool {
        matches!(
            self,
            ConvergenceVerdict::ConvergedDrift | ConvergenceVerdict::ConvergedFactorEpsilon
        )
    }
}

/// Stall threshold when the run disabled the factor-ε exit: movement
/// this small would have tripped any reasonable epsilon.
pub const DEFAULT_STALL_EPSILON: f64 = 1e-3;

/// Signed factor movement below this is treated as noise by the
/// oscillation detector, so exactly-zero iterations never alternate.
const OSCILLATION_FLOOR: f64 = 1e-9;

/// Classify a run that exhausted its iteration budget without hitting
/// an exit, from the per-iteration drift history (ps), the
/// message-weighted *signed* factor movement history, and the final
/// (unsigned) factor movement. Detector priority: a blow-up outranks
/// oscillation outranks a stall — a diverging loop usually alternates
/// too, and naming the worse failure first is what a reader acts on.
pub fn classify_unconverged(
    drift_ps: &[u64],
    signed_moves: &[f64],
    last_factor_move: f64,
    stall_epsilon: f64,
) -> ConvergenceVerdict {
    let n = drift_ps.len();
    if n >= 3 {
        let d = &drift_ps[n - 3..];
        if d[0] < d[1] && d[1] < d[2] {
            return ConvergenceVerdict::Diverging;
        }
    }
    let m = signed_moves.len();
    if m >= 3 {
        let s = &signed_moves[m - 3..];
        if s.iter().all(|v| v.abs() > OSCILLATION_FLOOR)
            && s[0].signum() != s[1].signum()
            && s[1].signum() != s[2].signum()
        {
            return ConvergenceVerdict::Oscillating;
        }
    }
    if last_factor_move < stall_epsilon.max(0.0) {
        return ConvergenceVerdict::Stalled;
    }
    ConvergenceVerdict::Exhausted
}

/// A no-op, kept only because the frozen `benchmark/` calls it between
/// its traced runs: this module holds no recorded state to reset. The
/// next benchmark change that drops the call deletes it.
#[doc(hidden)]
pub fn reset_conv() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detector_priority_diverging_beats_oscillating_beats_stall() {
        // Monotone growth wins even with alternating signs.
        assert_eq!(
            classify_unconverged(&[10, 20, 40], &[0.5, -0.5, 0.5], 0.5, 0.0),
            ConvergenceVerdict::Diverging
        );
        assert_eq!(
            classify_unconverged(&[40, 20, 40], &[0.5, -0.5, 0.5], 0.5, 0.0),
            ConvergenceVerdict::Oscillating
        );
        assert_eq!(
            classify_unconverged(&[40, 20, 10], &[0.5, 0.5, 0.5], 1e-6, DEFAULT_STALL_EPSILON),
            ConvergenceVerdict::Stalled
        );
        assert_eq!(
            classify_unconverged(&[40, 20, 10], &[0.5, 0.5, 0.5], 0.5, DEFAULT_STALL_EPSILON),
            ConvergenceVerdict::Exhausted
        );
        // Too short a history for the pattern detectors.
        assert_eq!(
            classify_unconverged(&[10, 20], &[0.5, -0.5], 0.5, 0.0),
            ConvergenceVerdict::Exhausted
        );
    }

    #[test]
    fn verdict_labels_are_unique_and_stable() {
        let labels: Vec<&str> = ConvergenceVerdict::ALL.iter().map(|v| v.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        assert!(ConvergenceVerdict::ConvergedDrift.is_converged());
        assert!(!ConvergenceVerdict::Oscillating.is_converged());
    }
}
