//! The unified run-request type.
//!
//! A [`RunSpec`] is everything one simulation run needs beyond the
//! [`crate::Experiment`] it runs on: the [`Mode`] and the
//! self-correction knobs. It is the request vocabulary shared by every
//! caller — the examples, the bench harness and the `sctmd` batch
//! service all speak `RunSpec` and get a [`RunOutcome`] back.

use crate::error::SctmError;
use crate::metrics::RunReport;
use crate::modes::Mode;

/// One simulation request, ready for [`crate::Experiment::execute`].
///
/// Knob fields are `Option`: `None` inherits the experiment's own
/// setting, `Some` overrides it for this run only — a sweep can reuse
/// one `Experiment` while varying the loop knobs per request.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSpec {
    /// How to simulate (carries the iteration cap for
    /// [`Mode::SelfCorrection`] and the epoch for [`Mode::Online`]).
    pub mode: Mode,
    /// Override of [`crate::Experiment::damping`] for this run.
    pub damping: Option<f64>,
    /// Override of [`crate::Experiment::factor_epsilon`] for this run.
    pub factor_epsilon: Option<f64>,
    /// Trace modes only: perform a *single* replay of the trace (the
    /// seeded one, or a fresh capture) instead of the full re-capture
    /// loop. For [`Mode::SelfCorrection`] this is one self-correcting
    /// gated pass; for the other trace modes a single replay is all
    /// there ever is, so the flag is implied.
    pub replay_only: bool,
    /// Classic-trace replay only: abort with
    /// [`SctmError::BudgetExhausted`] once the replay has advanced this
    /// many network batches without delivering every message. Open-loop
    /// replay on a detailed model past its saturation point can expand
    /// the timeline essentially without bound; the budget turns that
    /// pathological case into a typed error instead of a stall.
    pub replay_batch_budget: Option<u64>,
}

impl RunSpec {
    pub fn new(mode: Mode) -> Self {
        RunSpec {
            mode,
            damping: None,
            factor_epsilon: None,
            replay_only: false,
            replay_batch_budget: None,
        }
    }

    /// The execution-driven reference run.
    pub fn exec_driven() -> Self {
        Self::new(Mode::ExecutionDriven)
    }

    /// Classic trace model: capture, replay timestamps verbatim.
    pub fn classic() -> Self {
        Self::new(Mode::ClassicTrace)
    }

    /// Oracle trace model: capture, full-causality replay.
    pub fn oracle() -> Self {
        Self::new(Mode::OracleTrace)
    }

    /// The paper's full self-correction loop, capped at `max_iters`.
    pub fn self_correction(max_iters: usize) -> Self {
        Self::new(Mode::SelfCorrection { max_iters })
    }

    /// The online epoch-correction variant.
    pub fn online(epoch: sctm_engine::time::SimTime) -> Self {
        Self::new(Mode::Online { epoch })
    }

    /// Override the damping weight for this run.
    pub fn with_damping(mut self, alpha: f64) -> Self {
        self.damping = Some(alpha);
        self
    }

    /// Override the factor-table convergence threshold for this run.
    pub fn with_factor_epsilon(mut self, eps: f64) -> Self {
        self.factor_epsilon = Some(eps);
        self
    }

    /// Replay once instead of running the full self-correction loop.
    pub fn replay_only(mut self) -> Self {
        self.replay_only = true;
        self
    }

    /// Cap classic-trace replay at `batches` network batches; past the
    /// cap the run returns [`SctmError::BudgetExhausted`].
    pub fn with_replay_budget(mut self, batches: u64) -> Self {
        self.replay_batch_budget = Some(batches);
        self
    }

    /// Reject field combinations `execute` cannot honour. Called by
    /// [`crate::Experiment::execute`]; public so services can reject a
    /// request before queueing it.
    pub fn validate(&self) -> Result<(), SctmError> {
        let invalid = |m: String| Err(SctmError::InvalidSpec(m));
        match self.mode {
            Mode::SelfCorrection { max_iters: 0 } => {
                return invalid("self-correction needs max_iters >= 1".into());
            }
            Mode::Online { epoch } if epoch.as_ps() == 0 => {
                return invalid("online correction needs a non-zero epoch".into());
            }
            _ => {}
        }
        if let Some(a) = self.damping {
            if !(0.0..=1.0).contains(&a) {
                return invalid(format!("damping weight {a} outside [0, 1]"));
            }
        }
        if let Some(e) = self.factor_epsilon {
            if e.is_nan() || e < 0.0 {
                return invalid(format!("factor epsilon {e} must be >= 0"));
            }
        }
        let traceless = matches!(self.mode, Mode::ExecutionDriven | Mode::Online { .. });
        if self.replay_only && traceless {
            return invalid(format!(
                "replay_only needs a trace mode, not {}",
                self.mode.label()
            ));
        }
        match self.replay_batch_budget {
            Some(0) => {
                return invalid("replay batch budget must be >= 1".into());
            }
            Some(_) if !matches!(self.mode, Mode::ClassicTrace) => {
                return invalid(format!(
                    "replay budget applies to classic trace replay, not {}",
                    self.mode.label()
                ));
            }
            _ => {}
        }
        Ok(())
    }
}

/// Everything [`crate::Experiment::execute`] produced: the aggregate
/// report.
#[derive(Debug)]
pub struct RunOutcome {
    pub report: RunReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sctm_engine::time::SimTime;

    #[test]
    fn default_specs_validate() {
        for mode in [
            Mode::ExecutionDriven,
            Mode::ClassicTrace,
            Mode::OracleTrace,
            Mode::SelfCorrection { max_iters: 4 },
            Mode::Online {
                epoch: SimTime::from_us(5),
            },
        ] {
            assert_eq!(RunSpec::new(mode).validate(), Ok(()), "{}", mode.label());
        }
    }

    #[test]
    fn rejects_zero_iteration_cap() {
        let err = RunSpec::new(Mode::SelfCorrection { max_iters: 0 })
            .validate()
            .unwrap_err();
        assert!(matches!(err, SctmError::InvalidSpec(_)), "{err}");
    }

    #[test]
    fn rejects_zero_epoch() {
        let err = RunSpec::new(Mode::Online {
            epoch: SimTime::ZERO,
        })
        .validate()
        .unwrap_err();
        assert!(matches!(err, SctmError::InvalidSpec(_)), "{err}");
    }

    #[test]
    fn rejects_out_of_range_knobs() {
        let m = Mode::SelfCorrection { max_iters: 2 };
        for bad in [-0.1, 1.5, f64::NAN] {
            let err = RunSpec::new(m).with_damping(bad).validate().unwrap_err();
            assert!(matches!(err, SctmError::InvalidSpec(_)), "damping {bad}");
        }
        for bad in [-1.0, f64::NAN] {
            let err = RunSpec::new(m)
                .with_factor_epsilon(bad)
                .validate()
                .unwrap_err();
            assert!(matches!(err, SctmError::InvalidSpec(_)), "epsilon {bad}");
        }
    }

    #[test]
    fn rejects_misapplied_budget() {
        let err = RunSpec::classic().with_replay_budget(0).validate();
        assert!(matches!(err, Err(SctmError::InvalidSpec(_))), "{err:?}");
        assert_eq!(
            RunSpec::classic().with_replay_budget(500).validate(),
            Ok(())
        );
        let err = RunSpec::oracle().with_replay_budget(500).validate();
        assert!(matches!(err, Err(SctmError::InvalidSpec(_))), "{err:?}");
    }

    #[test]
    fn rejects_replay_only_on_traceless_modes() {
        for mode in [
            Mode::ExecutionDriven,
            Mode::Online {
                epoch: SimTime::from_us(1),
            },
        ] {
            assert!(RunSpec::new(mode).replay_only().validate().is_err());
        }
    }
}
