//! Simulation modes and the experiment runner.
//!
//! One [`Experiment`] = one workload on one simulated system, runnable
//! in any [`Mode`]. This is the API the examples and the bench harness
//! drive; everything below it (`sctm-cmp`, `sctm-trace`, the network
//! simulators) is reachable through the re-exports in the crate root
//! for users who need more control.

use crate::config::SystemConfig;
use crate::error::SctmError;
use crate::metrics::{IterStats, RunReport};
use crate::spec::{RunOutcome, RunSpec};
use sctm_cmp::{CmpSim, NullHook};
use sctm_engine::net::{AnalyticNetwork, Message, MsgClass, NetworkModel, NodeId};
use sctm_engine::time::SimTime;
use sctm_obs as obs;
use sctm_trace::replay::{
    replay_fixed, replay_oracle, replay_sctm_pass, replay_sctm_stream, ReplayScratch,
};
use sctm_trace::{Capture, OnlineCorrected, ReplayFold, StreamCapture, StreamedPass, TraceLog};
use sctm_workloads::{build, Kernel, WorkloadParams};
use std::borrow::Cow;
use std::time::Instant;

/// How to simulate.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Mode {
    /// Full co-simulation of CMP and the detailed network (reference).
    ExecutionDriven,
    /// Capture on the analytic model, replay timestamps verbatim on the
    /// detailed network (the strawman).
    ClassicTrace,
    /// Capture on the analytic model, self-correcting replay on the
    /// detailed network (the paper's contribution).
    SelfCorrection { max_iters: usize },
    /// Capture on the analytic model, full-causality replay (accuracy
    /// ceiling of trace-driven methods).
    OracleTrace,
    /// Execution-driven on the analytic model with epoch-based shadow
    /// correction against the detailed network (extension variant).
    Online { epoch: SimTime },
}

impl Mode {
    pub fn label(self) -> &'static str {
        match self {
            Mode::ExecutionDriven => "exec-driven",
            Mode::ClassicTrace => "classic-trace",
            Mode::SelfCorrection { .. } => "sctm",
            Mode::OracleTrace => "oracle-trace",
            Mode::Online { .. } => "online",
        }
    }
}

/// A workload bound to a simulated system.
#[derive(Clone, Debug)]
pub struct Experiment {
    pub system: SystemConfig,
    pub kernel: Kernel,
    pub ops_per_core: usize,
    pub seed: u64,
    /// Weight of the *new* correction factor in the damped warm-start
    /// update `corr ← (1−α)·corr + α·measured`. The default `1.0`
    /// (undamped) converges fastest on the shipped network models —
    /// measured factor movement collapses below 10% after a single
    /// full update and further iterations over-correct. Lower the
    /// weight on targets whose re-captures oscillate (each re-capture
    /// overshoots the contention the previous correction absorbed).
    pub damping: f64,
    /// Early-exit threshold on the correction table itself, compared
    /// against the *message-weighted mean* relative factor movement of
    /// an iteration ([`IterStats::factor_move`]): when the factors the
    /// traffic actually exercises have stopped moving, the next
    /// re-capture cannot meaningfully differ, so the loop stops
    /// without paying for a confirmation capture. Weighting by message
    /// count keeps rare flapping pairs from masking convergence. `0`
    /// disables.
    pub factor_epsilon: f64,
}

impl Experiment {
    pub fn new(system: SystemConfig, kernel: Kernel) -> Self {
        Experiment {
            system,
            kernel,
            ops_per_core: 1_500,
            seed: 1,
            damping: 1.0,
            factor_epsilon: 0.10,
        }
    }

    pub fn with_ops(mut self, ops: usize) -> Self {
        self.ops_per_core = ops;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// What is left of the deleted epoch-sharded capture (DESIGN.md §9):
    /// the frozen `benchmark/` calls this to pin the one way a capture
    /// runs. The next `[benchmark]` PR that drops those two calls
    /// deletes this method; nothing else may use it.
    #[doc(hidden)]
    pub fn with_capture_threads(self, _threads: usize) -> Self {
        self
    }

    fn workload(&self) -> Box<sctm_workloads::ScriptWorkload> {
        Box::new(build(
            self.kernel,
            WorkloadParams::new(self.system.cores(), self.ops_per_core, self.seed),
        ))
    }

    /// Capture a trace of this experiment on the analytic model.
    /// Captures are reusable across replay modes and target networks.
    pub fn capture(&self) -> TraceLog {
        self.capture_on(SystemConfig::analytic(self.system.cores()))
    }

    /// Capture on a specific (possibly correction-loaded) analytic
    /// model instance — the re-capture step of the self-correction loop.
    pub fn capture_on(&self, model: AnalyticNetwork) -> TraceLog {
        let _span = obs::span("sctm", "capture");
        let mut cap = Capture::new();
        // The simulator — cache tag arrays, directory, workload scripts
        // — is dead once the run returns; `finish` needs only the hook.
        let res =
            CmpSim::new(self.system.cmp.clone(), Box::new(model), self.workload()).run(&mut cap);
        cap.finish("analytic", res.exec_time)
    }

    /// [`Experiment::capture_on`] and the gated pass over its log on
    /// `net` at once: the pass runs on a second thread and replays the
    /// rows as this thread's capture finalises them
    /// ([`replay_sctm_stream`]; DESIGN.md §7, "The loop captures and
    /// replays at once"). It calls `fold` with each message and its
    /// replay times in id order, on the pass's thread; what it folds and
    /// returns read as capturing, then [`replay_sctm_pass`], would have.
    ///
    /// The loop folds what it reads of the pass as the pass delivers
    /// and never reads the log's other columns, so the capture builds
    /// none of them and no log is assembled. A capture that panics
    /// closes the feed, the pass gives up, and the panic goes on
    /// unwinding from here with its own payload.
    fn capture_and_replay(
        &self,
        model: AnalyticNetwork,
        net: &mut dyn NetworkModel,
        scratch: &mut ReplayScratch,
        fold: impl FnMut(Message, SimTime, SimTime) + Send,
    ) -> StreamedPass {
        std::thread::scope(|s| {
            let (mut cap, feed) = StreamCapture::new();
            let pass = s.spawn(move || {
                let _span = obs::span("sctm", "replay");
                replay_sctm_stream(feed, net, scratch, fold)
            });
            {
                let _span = obs::span("sctm", "capture");
                let res = CmpSim::new(self.system.cmp.clone(), Box::new(model), self.workload())
                    .run(&mut cap);
                cap.finish(res.exec_time);
            }
            match pass.join() {
                Ok(streamed) => streamed.expect("a finished capture sends its last batch"),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        })
    }

    /// A copy of this experiment with the spec's per-run knob overrides
    /// applied (`None` fields inherit; spec validation has already
    /// range-checked the `Some` ones).
    fn with_spec_overrides(&self, spec: &RunSpec) -> Experiment {
        let mut e = self.clone();
        if let Some(a) = spec.damping {
            e.damping = a;
        }
        if let Some(eps) = spec.factor_epsilon {
            e.factor_epsilon = eps;
        }
        e
    }

    /// Run one simulation request. This is the single entry point the
    /// examples, the bench harness and the `sctmd` batch service all
    /// use. The spec is validated up front, so a malformed request
    /// surfaces as a typed [`SctmError`] instead of a panic.
    pub fn execute(&self, spec: &RunSpec) -> Result<RunOutcome, SctmError> {
        self.execute_seeded(spec, None)
    }

    /// [`Experiment::execute`] with an optional pre-captured trace.
    ///
    /// Trace modes normally capture internally; passing `seed` replaces
    /// that capture with an existing trace of *this same experiment*
    /// (same kernel, system size, ops, seed — the caller's contract,
    /// which the `sctmd` capture cache keys on). Because an uncorrected
    /// capture is deterministic, a seeded run is byte-identical to an
    /// unseeded one; it just skips the most expensive phase. For the
    /// full self-correction loop the seed stands in for iteration 1's
    /// capture only — later iterations re-capture on the corrected
    /// model by design.
    pub fn execute_seeded(
        &self,
        spec: &RunSpec,
        seed: Option<&TraceLog>,
    ) -> Result<RunOutcome, SctmError> {
        spec.validate()?;
        let traceless = matches!(spec.mode, Mode::ExecutionDriven | Mode::Online { .. });
        if seed.is_some() && traceless {
            return Err(SctmError::InvalidSpec(format!(
                "a seed trace is meaningless for {}",
                spec.mode.label()
            )));
        }
        let exp = self.with_spec_overrides(spec);
        let wall0 = Instant::now();
        let mut report = match spec.mode {
            Mode::ExecutionDriven => exp.exec_driven_report(),
            Mode::Online { epoch } => exp.online_report(epoch),
            Mode::SelfCorrection { max_iters } if !spec.replay_only => {
                exp.self_correction_report(max_iters, seed)
            }
            mode => {
                let log = match seed {
                    Some(l) => Cow::Borrowed(l),
                    None => Cow::Owned(exp.capture()),
                };
                exp.replay_report(&log, mode)?
            }
        };
        report.wall = wall0.elapsed();
        Ok(RunOutcome { report })
    }

    /// The full self-correction loop (the paper's simulation flow):
    ///
    /// 1. capture the workload on the cheap analytic model (iteration 1
    ///    may substitute a pre-captured `seed` trace — an uncorrected
    ///    capture is deterministic, so the result is identical);
    /// 2. replay the trace through the detailed target network with the
    ///    self-correcting gated pass;
    /// 3. derive per-(src,dst) latency correction factors from the
    ///    replay and install them in the analytic model;
    /// 4. re-capture (the full-system run now sees target-like
    ///    latencies, so message timing *and interleaving* adjust) and
    ///    repeat until the execution-time estimate stabilises.
    fn self_correction_report(&self, max_iters: usize, seed: Option<&TraceLog>) -> RunReport {
        let wall0 = Instant::now();
        let side = self.system.side;
        let kind = self.system.network;
        let mut model = SystemConfig::analytic(self.system.cores());
        let mut iters = Vec::new();
        let mut prev_est = SimTime::ZERO;
        // The last iteration's message count; its estimate ends up in
        // `prev_est`, and its mean latencies in `fold`.
        let mut messages = 0u64;
        // One set of pass pages and one fold for the whole loop: every
        // iteration streams a same-shaped trace, so the buffers and the
        // correction table are paid for once.
        let mut scratch = ReplayScratch::new();
        let mut fold = ReplayFold::new();
        // The verdict inputs (drift/signed-movement history) are a
        // handful of scalar pushes, always tracked, so the verdict never
        // depends on the recording state.
        let mut drift_hist: Vec<u64> = Vec::with_capacity(max_iters);
        let mut signed_hist: Vec<f64> = Vec::with_capacity(max_iters);
        let mut last_factor_move = 0.0f64;
        let mut exit_verdict: Option<obs::ConvergenceVerdict> = None;
        // Relative convergence threshold: 0.5% of the estimate.
        for it in 1..=max_iters {
            let _iter_span = obs::span("sctm", "iteration");
            let iter_wall = Instant::now();
            let mut net = SystemConfig::make_network_kind(side, kind);
            // What the loop reads of the pass — the pair corrections and
            // the class mean latencies — is folded a message at a time in
            // id order, by one path whoever runs the pass: a message's
            // replay times are not kept once it is folded.
            fold.clear();
            // Iteration 1 runs on the uncorrected model, so a cached
            // capture of this experiment substitutes exactly — read in
            // place, never copied, through the gate plan the log
            // memoises (a second request over the same cached capture
            // reuses it), and walked into the fold once it has replayed.
            // Every other iteration captures and replays at once, and
            // folds as the pass delivers.
            let (len, capture_exec_time, est) = match seed {
                Some(s) if it == 1 => {
                    let _span = obs::span("sctm", "replay");
                    let result = replay_sctm_pass(s, net.as_mut());
                    fold.walk(s, &result, |m| model.base_latency(m));
                    (s.len(), s.capture_exec_time, result.est_exec_time)
                }
                _ => {
                    let streamed = self.capture_and_replay(
                        model.clone(),
                        net.as_mut(),
                        &mut scratch,
                        |m, inject, deliver| fold.push(&m, inject, deliver, model.base_latency(&m)),
                    );
                    (
                        streamed.len(),
                        streamed.capture_exec_time(),
                        streamed.est_exec_time(),
                    )
                }
            };
            if it == 1 {
                prev_est = capture_exec_time;
            }
            if obs::enabled() {
                obs::with_global(|reg| obs::publish_network(reg, net.as_ref()));
            }
            let drift = est.abs_diff(prev_est);
            // Damped warm-start update: the factor table carries over
            // from the previous iteration (warm start) and each new
            // measurement is blended in with weight α (an undamped loop
            // oscillates: each re-capture overshoots the contention the
            // previous correction just absorbed). `factor_move` is the
            // message-weighted mean relative change the factors actually
            // took, measured after clamping/quantisation so it reflects
            // what the next capture would really see. Weighting by each
            // pair's message count matters: rare pairs' factors flap by
            // whole multiples from iteration to iteration without moving
            // the estimate, so an unweighted max never settles.
            let corr_span = obs::span("sctm", "correct");
            let corr = fold.corrections();
            let alpha = self.damping;
            let (mut moved_weighted, mut signed_weighted, mut weight) = (0.0f64, 0.0f64, 0.0f64);
            for &((s, d, class), f, count) in &corr {
                let old = model.correction(NodeId(s), NodeId(d), class);
                model.set_correction(NodeId(s), NodeId(d), class, (1.0 - alpha) * old + alpha * f);
                let installed = model.correction(NodeId(s), NodeId(d), class);
                let moved = (installed - old).abs() / old.abs().max(1e-12);
                moved_weighted += moved * count as f64;
                signed_weighted += (installed - old) / old.abs().max(1e-12) * count as f64;
                weight += count as f64;
            }
            let factor_move = if weight > 0.0 {
                moved_weighted / weight
            } else {
                0.0
            };
            let signed_move = if weight > 0.0 {
                signed_weighted / weight
            } else {
                0.0
            };
            drop(corr_span);
            // Note: per-destination service learning
            // (`dst_service_estimates`) is deliberately NOT applied
            // here. It can model single-reader bottlenecks (MWSR home
            // channels under all-to-all load) but double-counts
            // queueing already absorbed into the pair means for
            // hot-read patterns — the A1 ablation quantifies both
            // directions. For arbitration-heavy targets the online
            // variant (`Mode::Online`) is the robust choice.
            iters.push(IterStats {
                iteration: it,
                est_exec_time: est,
                drift,
                corrections: corr.len(),
                factor_move,
                messages: len as u64,
            });
            obs::record_iteration(obs::IterTelemetry {
                network: kind.label(),
                workload: self.kernel.label(),
                iteration: it as u32,
                est_ps: est.as_ps(),
                drift_ps: drift.as_ps(),
                corrections: corr.len() as u64,
                messages: len as u64,
                wall_ns: iter_wall.elapsed().as_nanos() as u64,
            });
            drift_hist.push(drift.as_ps());
            signed_hist.push(signed_move);
            last_factor_move = factor_move;
            prev_est = est;
            messages = len as u64;
            if drift.as_ps() * 200 < est.as_ps() {
                exit_verdict = Some(obs::ConvergenceVerdict::ConvergedDrift);
                break; // < 0.5% movement of the estimate
            }
            if self.factor_epsilon > 0.0 && factor_move < self.factor_epsilon {
                // The correction table itself has stabilised: the next
                // re-capture would see (quantised) factors within ε of
                // the ones that produced this iteration, so skip the
                // confirmation capture entirely.
                exit_verdict = Some(obs::ConvergenceVerdict::ConvergedFactorEpsilon);
                break;
            }
        }
        // No exit tripped: let the detectors name the failure mode.
        // The stall threshold is the run's own factor-ε when it has
        // one (an exit would have fired first, so this only matters
        // with the ε-exit disabled, where the default applies).
        let verdict = exit_verdict.unwrap_or_else(|| {
            let stall_eps = if self.factor_epsilon > 0.0 {
                self.factor_epsilon
            } else {
                sctm_obs::conv::DEFAULT_STALL_EPSILON
            };
            obs::classify_unconverged(&drift_hist, &signed_hist, last_factor_move, stall_eps)
        });
        RunReport {
            mode: Mode::SelfCorrection { max_iters }.label(),
            network: kind.label(),
            workload: self.kernel.label(),
            exec_time: prev_est,
            mean_lat_ctrl_ns: fold.mean_latency_ns(MsgClass::Control),
            mean_lat_data_ns: fold.mean_latency_ns(MsgClass::Data),
            messages,
            wall: wall0.elapsed(),
            iterations: Some(iters),
            verdict: Some(verdict),
        }
    }

    /// Execution-driven co-simulation on the configured network.
    fn exec_driven_report(&self) -> RunReport {
        let wall0 = Instant::now();
        let mut sim = CmpSim::new(
            self.system.cmp.clone(),
            self.system.make_network(),
            self.workload(),
        );
        let res = sim.run(&mut NullHook);
        if obs::enabled() {
            obs::with_global(|reg| obs::publish_network(reg, sim.network()));
        }
        let stats = sim.network().stats();
        RunReport {
            mode: Mode::ExecutionDriven.label(),
            network: self.system.network.label(),
            workload: self.kernel.label(),
            exec_time: res.exec_time,
            mean_lat_ctrl_ns: stats.ctrl_latency_ps.mean() / 1000.0,
            mean_lat_data_ns: stats.data_latency_ps.mean() / 1000.0,
            messages: res.messages_injected,
            wall: wall0.elapsed(),
            iterations: None,
            verdict: None,
        }
    }

    /// Replay a previously captured trace in a trace mode (for
    /// [`Mode::SelfCorrection`], this is a *single* self-correcting
    /// pass on the given trace — the full loop with re-capture is
    /// the non-`replay_only` path of [`Experiment::execute`]).
    ///
    /// A classic replay that outgrows its bound
    /// ([`sctm_trace::replay_fixed`]) returns
    /// [`SctmError::BudgetExhausted`] — the congestion-collapse guard
    /// for open-loop replay of a saturated target.
    fn replay_report(&self, log: &TraceLog, mode: Mode) -> Result<RunReport, SctmError> {
        let wall0 = Instant::now();
        let side = self.system.side;
        let kind = self.system.network;
        let mut net = SystemConfig::make_network_kind(side, kind);
        let result = {
            let _span = obs::span("sctm", "replay");
            match mode {
                Mode::ClassicTrace => replay_fixed(log, net.as_mut())
                    .map_err(|batches| SctmError::BudgetExhausted { batches })?,
                Mode::OracleTrace => replay_oracle(log, net.as_mut()),
                Mode::SelfCorrection { .. } => replay_sctm_pass(log, net.as_mut()),
                _ => panic!("replay_report called with non-trace mode {mode:?}"),
            }
        };
        if obs::enabled() {
            obs::with_global(|reg| obs::publish_network(reg, net.as_ref()));
        }
        Ok(RunReport {
            mode: mode.label(),
            network: kind.label(),
            workload: self.kernel.label(),
            exec_time: result.est_exec_time,
            mean_lat_ctrl_ns: result.mean_latency_ns(log, Some(MsgClass::Control)),
            mean_lat_data_ns: result.mean_latency_ns(log, Some(MsgClass::Data)),
            messages: log.len() as u64,
            wall: wall0.elapsed(),
            iterations: None,
            verdict: None,
        })
    }

    /// Execution-driven on the online-corrected analytic model (shadow
    /// = the configured detailed network).
    fn online_report(&self, epoch: SimTime) -> RunReport {
        let wall0 = Instant::now();
        let analytic = SystemConfig::analytic(self.system.cores());
        let side = self.system.side;
        let kind = self.system.network;
        let make_shadow: sctm_trace::ShadowFactory =
            Box::new(move || SystemConfig::make_network_kind(side, kind));
        let net = Box::new(OnlineCorrected::new(analytic, make_shadow, epoch));
        let mut sim = CmpSim::new(self.system.cmp.clone(), net, self.workload());
        let res = sim.run(&mut NullHook);
        if obs::enabled() {
            obs::with_global(|reg| obs::publish_network(reg, sim.network()));
        }
        let stats = sim.network().stats();
        RunReport {
            mode: Mode::Online { epoch }.label(),
            network: self.system.network.label(),
            workload: self.kernel.label(),
            exec_time: res.exec_time,
            mean_lat_ctrl_ns: stats.ctrl_latency_ps.mean() / 1000.0,
            mean_lat_data_ns: stats.data_latency_ps.mean() / 1000.0,
            messages: res.messages_injected,
            wall: wall0.elapsed(),
            iterations: None,
            verdict: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkKind;
    use crate::metrics::accuracy;

    fn exp(kind: NetworkKind) -> Experiment {
        Experiment::new(SystemConfig::new(4, kind), Kernel::Fft).with_ops(300)
    }

    fn go(e: &Experiment, spec: &RunSpec) -> RunReport {
        e.execute(spec).unwrap().report
    }

    #[test]
    fn execution_driven_runs_on_all_networks() {
        for kind in NetworkKind::DETAILED {
            let r = go(&exp(kind), &RunSpec::exec_driven());
            assert!(r.exec_time > SimTime::ZERO, "{}", kind.label());
            assert!(r.messages > 0);
            assert_eq!(r.network, kind.label());
        }
    }

    #[test]
    fn trace_modes_run_and_sctm_beats_classic_on_omesh() {
        let e = exp(NetworkKind::Omesh);
        let reference = go(&e, &RunSpec::exec_driven());
        let log = e.capture();
        let classic = e
            .execute_seeded(&RunSpec::classic().replay_only(), Some(&log))
            .unwrap()
            .report;
        let sctm = go(&e, &RunSpec::self_correction(4));
        let acc_classic = accuracy(&classic, &reference);
        let acc_sctm = accuracy(&sctm, &reference);
        assert!(
            acc_sctm.exec_time_err_pct < acc_classic.exec_time_err_pct,
            "sctm {:.1}% !< classic {:.1}%",
            acc_sctm.exec_time_err_pct,
            acc_classic.exec_time_err_pct
        );
        assert!(
            acc_sctm.exec_time_err_pct < 10.0,
            "sctm error {:.1}%",
            acc_sctm.exec_time_err_pct
        );
        let iters = sctm.iterations.as_ref().unwrap();
        assert!(!iters.is_empty() && iters.len() <= 4);
    }

    #[test]
    fn self_correction_converges() {
        let e = exp(NetworkKind::Omesh);
        let r = go(&e, &RunSpec::self_correction(6));
        let iters = r.iterations.as_ref().unwrap();
        // Drift must shrink substantially from the first iteration.
        let first = iters.first().unwrap().drift.as_ps();
        let last = iters.last().unwrap().drift.as_ps();
        assert!(
            last < first || iters.len() == 1,
            "no convergence: first drift {first}, last {last}"
        );
    }

    #[test]
    fn factor_epsilon_early_exit_never_needs_more_iterations() {
        let e = exp(NetworkKind::Omesh);
        let strict = go(&e, &RunSpec::self_correction(6).with_factor_epsilon(0.0));
        let loose = go(&e, &RunSpec::self_correction(6).with_factor_epsilon(0.5));
        let n_strict = strict.iterations.as_ref().unwrap().len();
        let n_loose = loose.iterations.as_ref().unwrap().len();
        assert!(
            n_loose <= n_strict,
            "loose ε took {n_loose} iters, strict took {n_strict}"
        );
    }

    #[test]
    fn damping_weight_is_configurable_and_converges() {
        // A spec override must behave exactly like setting the field.
        let e = exp(NetworkKind::Omesh);
        let mut damped = e.clone();
        damped.damping = 0.7;
        let via_field = go(&damped, &RunSpec::self_correction(6));
        let via_spec = go(&e, &RunSpec::self_correction(6).with_damping(0.7));
        assert!(via_spec.exec_time > SimTime::ZERO);
        assert_eq!(via_field.exec_time, via_spec.exec_time);
        assert_eq!(
            via_field.iterations.as_ref().unwrap().len(),
            via_spec.iterations.as_ref().unwrap().len()
        );
    }

    #[test]
    fn oracle_is_at_least_as_good_as_classic() {
        let e = exp(NetworkKind::Emesh);
        let reference = go(&e, &RunSpec::exec_driven());
        let log = e.capture();
        let replay = |spec: RunSpec| e.execute_seeded(&spec, Some(&log)).unwrap().report;
        let classic = replay(RunSpec::classic().replay_only());
        let oracle = replay(RunSpec::oracle().replay_only());
        let a_c = accuracy(&classic, &reference).exec_time_err_pct;
        let a_o = accuracy(&oracle, &reference).exec_time_err_pct;
        assert!(a_o <= a_c + 1.0, "oracle {a_o:.1}% vs classic {a_c:.1}%");
    }

    #[test]
    fn online_mode_runs() {
        let r = go(
            &exp(NetworkKind::Omesh),
            &RunSpec::online(SimTime::from_us(5)),
        );
        assert!(r.exec_time > SimTime::ZERO);
        assert_eq!(r.mode, "online");
    }

    #[test]
    fn deterministic_reports() {
        let e = exp(NetworkKind::Emesh);
        let a = go(&e, &RunSpec::exec_driven());
        let b = go(&e, &RunSpec::exec_driven());
        assert_eq!(a.exec_time, b.exec_time);
        assert_eq!(a.messages, b.messages);
    }

    #[test]
    fn seeded_execute_is_identical_to_unseeded() {
        // The capture-cache contract: substituting a pre-captured trace
        // for the internal capture changes nothing but the wall time.
        let e = exp(NetworkKind::Omesh);
        let log = e.capture();
        for spec in [
            RunSpec::classic(),
            RunSpec::oracle(),
            RunSpec::self_correction(4).replay_only(),
            RunSpec::self_correction(4),
        ] {
            let cold = e.execute(&spec).unwrap().report;
            let warm = e.execute_seeded(&spec, Some(&log)).unwrap().report;
            assert_eq!(cold.exec_time, warm.exec_time, "{:?}", spec.mode);
            assert_eq!(cold.messages, warm.messages);
            assert_eq!(
                cold.mean_lat_ctrl_ns.to_bits(),
                warm.mean_lat_ctrl_ns.to_bits()
            );
            assert_eq!(
                cold.mean_lat_data_ns.to_bits(),
                warm.mean_lat_data_ns.to_bits()
            );
        }
    }

    #[test]
    fn seed_is_rejected_for_traceless_modes() {
        let e = exp(NetworkKind::Omesh);
        let log = e.capture();
        for spec in [RunSpec::exec_driven(), RunSpec::online(SimTime::from_us(5))] {
            let err = e.execute_seeded(&spec, Some(&log)).unwrap_err();
            assert!(matches!(err, SctmError::InvalidSpec(_)), "{err}");
        }
    }

    #[test]
    fn invalid_specs_surface_as_typed_errors_not_panics() {
        let e = exp(NetworkKind::Omesh);
        assert!(matches!(
            e.execute(&RunSpec::self_correction(0)),
            Err(SctmError::InvalidSpec(_))
        ));
        assert!(matches!(
            e.execute(&RunSpec::self_correction(2).with_damping(1.5)),
            Err(SctmError::InvalidSpec(_))
        ));
    }
}
