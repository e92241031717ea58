//! The self-correction loop's convergence contract, end to end.
//!
//! Three layers of guarantee:
//!
//! 1. **The report tells the loop's story.** One iteration row per
//!    iteration the loop ran, and a verdict: on the 64-core fft
//!    flagship, where every re-capture changes the trace length, and on
//!    a run whose correction table cannot move (damping 0), whose second
//!    capture is identical to its first and exits on zero drift.
//! 2. **Detectors fire on the arithmetic they claim to detect.** A
//!    deterministic feedback fixture (measured = target + β·(target −
//!    installed)) oscillates forever undamped and converges once
//!    damped; the verdicts must follow.
//! 3. **Telemetry never touches results.** The service result JSON —
//!    the deterministic simulated-quantity manifest — must be
//!    byte-identical with recording on and off.

use sctm::obs::{self, ConvergenceVerdict};
use sctm::prelude::*;

/// The flagship: 64-core fft, where self-correction changes the
/// message mix — and therefore the trace length — on every iteration
/// (DESIGN.md §11).
#[test]
fn flagship_recaptures_change_the_trace_length_and_report_a_verdict() {
    let exp = Experiment::new(SystemConfig::new(8, NetworkKind::Omesh), Kernel::Fft).with_ops(160);
    let report = exp
        .execute(&RunSpec::self_correction(3))
        .expect("valid spec")
        .report;
    let iters = report.iterations.as_ref().expect("loop reports iterations");
    assert!(iters.len() >= 2, "flagship exited too early");
    assert_ne!(
        iters[1].messages, iters[0].messages,
        "the corrected re-capture should change the trace length"
    );
    assert!(report.verdict.is_some(), "loop reports no verdict");
}

/// Damping 0 freezes the correction table, so the second capture is
/// message-for-message identical to the first: same length, same
/// estimate, and the loop exits on zero drift.
#[test]
fn frozen_factors_recapture_identically_and_converge_on_drift() {
    let exp = Experiment::new(SystemConfig::new(4, NetworkKind::Omesh), Kernel::Fft).with_ops(160);
    let spec = RunSpec::self_correction(3)
        .with_damping(0.0)
        .with_factor_epsilon(0.0);
    let report = exp.execute(&spec).expect("valid spec").report;
    let iters = report.iterations.as_ref().expect("loop reports iterations");
    assert_eq!(iters.len(), 2, "needs exactly one confirming capture");
    assert_eq!(iters[1].messages, iters[0].messages);
    assert_eq!(iters[1].est_exec_time, iters[0].est_exec_time);
    assert_eq!(iters[1].drift.as_ps(), 0, "identical capture drifted");
    assert_eq!(report.verdict, Some(ConvergenceVerdict::ConvergedDrift));
}

/// Deterministic feedback fixture mirroring the loop's exit and
/// verdict arithmetic. Each iteration measures
/// `measured = target + beta * (target - installed)` — the measured
/// time overshoots by however much the installed correction missed —
/// and installs `(1-alpha)*installed + alpha*measured`. Exactly the
/// drift exit (0.5% of the estimate) and history the real loop keeps.
fn fixture_verdict(alpha: f64, beta: f64, max_iters: usize) -> ConvergenceVerdict {
    let target = 1_000_000.0f64;
    let mut installed = 800_000.0f64;
    let mut prev_est = installed;
    let mut drift_hist: Vec<u64> = Vec::new();
    let mut signed_hist: Vec<f64> = Vec::new();
    let mut last_move = 0.0f64;
    for _ in 1..=max_iters {
        let measured = target + beta * (target - installed);
        let next = (1.0 - alpha) * installed + alpha * measured;
        let signed = next - installed;
        installed = next;
        let drift = (measured - prev_est).abs();
        prev_est = measured;
        drift_hist.push(drift as u64);
        signed_hist.push(signed);
        last_move = signed.abs();
        if drift * 200.0 < measured {
            return ConvergenceVerdict::ConvergedDrift;
        }
    }
    obs::classify_unconverged(&drift_hist, &signed_hist, last_move, 1.0)
}

#[test]
fn oscillation_fixture_fires_undamped_and_clears_damped() {
    // Undamped unit feedback: the installed value leaps to each
    // measurement, the error flips sign with constant magnitude, and
    // the run burns every iteration — the classic oscillation.
    assert_eq!(
        fixture_verdict(1.0, 1.0, 6),
        ConvergenceVerdict::Oscillating
    );
    // Damping 0.4 on the same plant contracts the error by 0.2 per
    // iteration: the drift exit fires within the budget.
    assert_eq!(
        fixture_verdict(0.4, 1.0, 6),
        ConvergenceVerdict::ConvergedDrift
    );
    // Feedback gain past the stability boundary grows the error
    // monotonically; blow-up outranks the sign-flip detector.
    assert_eq!(fixture_verdict(1.0, 1.5, 6), ConvergenceVerdict::Diverging);
}

/// The deterministic result manifest (what `sctmd` returns and the
/// capture cache keys on) must not change by a byte when observability
/// records.
#[test]
fn result_json_is_byte_identical_with_conv_telemetry_on_and_off() {
    let run = |obs_on: bool| {
        obs::set_enabled(obs_on);
        let exp =
            Experiment::new(SystemConfig::new(4, NetworkKind::Omesh), Kernel::Fft).with_ops(160);
        let out = exp
            .execute(&RunSpec::self_correction(3))
            .expect("valid spec");
        obs::set_enabled(false);
        obs::drain();
        sctm_srv::result_json(&out.report, &exp)
    };
    let plain = run(false);
    let instrumented = run(true);
    assert_eq!(
        plain, instrumented,
        "conv telemetry changed the result manifest"
    );
    assert!(
        plain.contains(r#""convergence""#),
        "result manifest lost its verdict row"
    );
}
