//! The two self-correction loop workloads.
//!
//! Untraced, one op is `Experiment::execute(self_correction(4))`.
//! Traced, the same loop also runs through a *mirror* assembled only
//! from public calls, each inside a span, and the mirror must reproduce
//! `execute()` exactly or the run fails: that is what makes the layer
//! ledger a ledger of the real loop and not of a look-alike.

use crate::calib::{OpClock, Samples};
use crate::layers;
use crate::report::Report;
use crate::span::{self, Recorder};
use crate::stats::median;
use crate::Args;
use sctm_core::metrics::IterStats;
use sctm_core::{accuracy, Experiment, NetworkKind, RunReport, RunSpec, SystemConfig};
use sctm_engine::net::{MsgClass, NodeId};
use sctm_engine::time::SimTime;
use sctm_trace::replay::{pair_corrections, ReplayResult, ReplayScratch};
use sctm_trace::{IncrPassStats, IncrReplayer, PassKind, TraceLog};
use sctm_workloads::Kernel;
use std::time::Instant;

const SIDE: usize = 8;
const MAX_ITERS: usize = 4;
/// `obs.on_over_off`: interleaved on/off pairs of the loop.
const OBS_PAIRS: usize = 5;

pub struct LoopCfg {
    pub net: NetworkKind,
    pub ops: usize,
    /// Whether the traced run measures `obs.on_over_off` here.
    pub obs_guard: bool,
}

struct Fixture {
    exp: Experiment,
    /// The execution-driven run the loop stands in for.
    reference: RunReport,
    /// The loop's own result; every measured op must repeat it.
    expected: RunReport,
}

fn set_up(cfg: &LoopCfg, seed: u64) -> Result<Fixture, String> {
    let exp = Experiment::new(SystemConfig::new(SIDE, cfg.net), Kernel::Fft)
        .with_ops(cfg.ops)
        .with_seed(seed)
        .with_capture_threads(1);
    let reference = exp
        .execute(&RunSpec::exec_driven())
        .map_err(|e| e.to_string())?
        .report;
    // Doubles as the warm-up op: allocator and page cache are hot
    // before the first timed one.
    let expected = run_loop(&exp)?;
    Ok(Fixture {
        exp,
        reference,
        expected,
    })
}

fn run_loop(exp: &Experiment) -> Result<RunReport, String> {
    exp.execute(&RunSpec::self_correction(MAX_ITERS))
        .map(|o| o.report)
        .map_err(|e| e.to_string())
}

/// Simulated quantities only; `wall` differs by design.
fn same_report(a: &RunReport, b: &RunReport) -> bool {
    a.exec_time == b.exec_time
        && a.messages == b.messages
        && a.mean_lat_ctrl_ns.to_bits() == b.mean_lat_ctrl_ns.to_bits()
        && a.mean_lat_data_ns.to_bits() == b.mean_lat_data_ns.to_bits()
        && a.iterations == b.iterations
        && a.verdict == b.verdict
}

fn check_op(report: &mut Report, fx: &Fixture, got: Result<RunReport, String>) {
    report.attempted += 1;
    match got {
        Ok(r) if same_report(&r, &fx.expected) => {
            report.digest(sctm_srv::result_json(&r, &fx.exp).as_bytes());
        }
        Ok(r) => report.fail(format!(
            "loop result differs between reps: exec_time {} vs {}",
            r.exec_time.as_ps(),
            fx.expected.exec_time.as_ps()
        )),
        Err(e) => report.fail(e),
    }
}

pub fn run(cfg: &LoopCfg, args: &Args) -> Result<Report, String> {
    let mut report = Report::new(1);
    let mut clock = OpClock::new();
    let fx = crate::set_up_repeatedly(
        &mut report,
        &mut clock,
        || set_up(cfg, args.seed),
        |_| Ok(()),
    )?;

    let err_pct = accuracy(&fx.expected, &fx.reference).exec_time_err_pct;
    report.set("accuracy_pct", 100.0 - err_pct);
    report.set("core.exec_err_pct", err_pct);

    if args.trace {
        traced(cfg, args, &fx, &mut clock, &mut report)?;
    } else {
        let mut ops = Samples::default();
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < args.seconds || ops.len() < 3 {
            let got = clock.time(&mut ops, || run_loop(&fx.exp));
            check_op(&mut report, &fx, got);
        }
        crate::report_ops(&mut report, &ops);
    }
    Ok(report)
}

/// What one mirrored loop produced, layer by layer.
struct Mirror {
    exec_time: SimTime,
    mean_lat_ctrl_ns: f64,
    mean_lat_data_ns: f64,
    iters: Vec<IterStats>,
    passes: Vec<IncrPassStats>,
    log: TraceLog,
    result: ReplayResult,
}

/// `Experiment::self_correction_report` (crates/core/src/modes.rs),
/// restated over public calls with a span around each layer. Observability
/// hooks are left out: they are off in the benchmark.
fn mirror_loop(exp: &Experiment, rec: &mut Recorder, op: u32) -> Mirror {
    rec.scope("core.loop", op, |rec| {
        let kind = exp.system.network;
        let mut model = SystemConfig::analytic(exp.system.cores());
        let mut scratch = ReplayScratch::new();
        let mut incr = IncrReplayer::new();
        let mut iters = Vec::new();
        let mut passes = Vec::new();
        let mut prev_est = SimTime::ZERO;
        let mut last = None;
        for it in 1..=MAX_ITERS {
            let log = rec.leaf("cmp.capture", op, || exp.capture_on(model.clone()));
            if it == 1 {
                prev_est = log.capture_exec_time;
            }
            let mut net = rec.leaf("net.build", op, || {
                SystemConfig::make_network_kind(exp.system.side, kind)
            });
            let (result, pass) = rec.leaf("trace.replay", op, || {
                incr.replay(&log, &mut net, &mut scratch)
            });
            passes.push(pass);
            let est = result.est_exec_time;
            let drift = est.abs_diff(prev_est);
            let (pairs, factor_move) = rec.leaf("trace.corrections", op, || {
                let corr = pair_corrections(&log, &result, |m| model.base_latency(m));
                let alpha = exp.damping;
                let (mut moved, mut weight) = (0.0f64, 0.0f64);
                for &((s, d, class), f, count) in &corr {
                    let (s, d) = (NodeId(s), NodeId(d));
                    let old = model.correction(s, d, class);
                    model.set_correction(s, d, class, (1.0 - alpha) * old + alpha * f);
                    let installed = model.correction(s, d, class);
                    moved += (installed - old).abs() / old.abs().max(1e-12) * count as f64;
                    weight += count as f64;
                }
                let factor_move = if weight > 0.0 { moved / weight } else { 0.0 };
                (corr.len(), factor_move)
            });
            iters.push(IterStats {
                iteration: it,
                est_exec_time: est,
                drift,
                corrections: pairs,
                factor_move,
                messages: log.len() as u64,
            });
            prev_est = est;
            last = Some((log, result));
            if drift.as_ps() * 200 < est.as_ps() {
                break;
            }
            if exp.factor_epsilon > 0.0 && factor_move < exp.factor_epsilon {
                break;
            }
        }
        let (log, result) = last.expect("MAX_ITERS >= 1");
        let (mean_lat_ctrl_ns, mean_lat_data_ns) = rec.leaf("core.report", op, || {
            (
                result.mean_latency_ns(&log, Some(MsgClass::Control)),
                result.mean_latency_ns(&log, Some(MsgClass::Data)),
            )
        });
        Mirror {
            exec_time: result.est_exec_time,
            mean_lat_ctrl_ns,
            mean_lat_data_ns,
            iters,
            passes,
            log,
            result,
        }
    })
}

fn mirror_matches(m: &Mirror, expected: &RunReport) -> bool {
    m.exec_time == expected.exec_time
        && m.log.len() as u64 == expected.messages
        && m.mean_lat_ctrl_ns.to_bits() == expected.mean_lat_ctrl_ns.to_bits()
        && m.mean_lat_data_ns.to_bits() == expected.mean_lat_data_ns.to_bits()
        && Some(&m.iters) == expected.iterations.as_ref()
}

/// Names of the spans that are layers of the loop: the children of
/// `core.loop`, and `core.free` — releasing a finished loop's trace and
/// replay result, which `execute()` does before it returns.
const LOOP_LAYERS: [&str; 6] = [
    "core.free",
    "cmp.capture",
    "net.build",
    "trace.replay",
    "trace.corrections",
    "core.report",
];

fn traced(
    cfg: &LoopCfg,
    args: &Args,
    fx: &Fixture,
    clock: &mut OpClock,
    report: &mut Report,
) -> Result<(), String> {
    let (mut plain, mut mirrored, mut exec) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut rec = Recorder::new(Instant::now(), 1);
    let mut last_mirror = None;

    // One cycle: the loop as users run it, the same loop mirrored under
    // spans, and the execution-driven run it replaces, back to back so
    // that ratios between them see the same host. The first two swap
    // places every cycle. `execute()` frees its last trace before it
    // returns; the mirror hands its trace out, so the previous one is
    // freed inside the mirror's timed region to keep the two level.
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < args.seconds || plain.len() < 2 {
        let op = plain.len() as u32;
        for mirror_turn in [!op.is_multiple_of(2), op.is_multiple_of(2)] {
            if mirror_turn {
                let m = clock.time(&mut mirrored, || {
                    rec.leaf("core.free", op, || drop(last_mirror.take()));
                    mirror_loop(&fx.exp, &mut rec, op)
                });
                report.attempted += 1;
                if !mirror_matches(&m, &fx.expected) {
                    report.fail(format!(
                        "mirror diverged from execute(): exec_time {} vs {}, {} vs {} iterations",
                        m.exec_time.as_ps(),
                        fx.expected.exec_time.as_ps(),
                        m.iters.len(),
                        fx.expected.iterations.as_ref().map_or(0, Vec::len)
                    ));
                }
                last_mirror = Some(m);
            } else {
                let got = clock.time(&mut plain, || run_loop(&fx.exp));
                check_op(report, fx, got);
            }
        }

        let r = clock.time(&mut exec, || fx.exp.execute(&RunSpec::exec_driven()));
        report.attempted += 1;
        match r {
            Ok(o) if o.report.exec_time == fx.reference.exec_time => {}
            Ok(_) => report.fail("exec-driven result differs between reps".into()),
            Err(e) => report.fail(e.to_string()),
        }
    }
    let m = last_mirror.expect("at least two cycles ran");
    let cycles = plain.len();

    // Per-op layer totals from the spans, ms.
    let layer_ms = |name: &str| -> Vec<f64> {
        span::per_op_total(&rec.spans, name)
            .iter()
            .map(|ns| ns / 1e6)
            .collect()
    };
    let capture = layer_ms("cmp.capture");
    let replay = layer_ms("trace.replay");
    let build = layer_ms("net.build");
    let captured_msgs: u64 = m.iters.iter().map(|i| i.messages).sum();
    let iterations = m.iters.len() as f64;

    report.set_median("cmp.capture_ms", &capture);
    report.set("cmp.capture_msgs", captured_msgs as f64);
    report.set(
        "cmp.capture_ns_per_msg",
        median(&capture) * 1e6 / captured_msgs.max(1) as f64,
    );
    report.set_median("cmp.exec_cal_p50", &exec.cal_x);
    report.set_median("trace.replay_pass_ms", &replay);
    let replay_ns_per_msg = median(&replay) * 1e6 / captured_msgs.max(1) as f64;
    report.set("trace.replay_ns_per_msg", replay_ns_per_msg);
    report.set_median("trace.corrections_ms", &layer_ms("trace.corrections"));
    report.set(
        "trace.correction_pairs",
        m.iters.iter().map(|i| i.corrections as f64).sum(),
    );
    for (name, want) in [
        ("trace.incr_full", PassKind::Full),
        ("trace.incr_spliced", PassKind::Spliced),
        ("trace.incr_resumed", PassKind::Resumed { from_epoch: 0 }),
    ] {
        // Same variant, whatever epoch a resumed pass started from.
        let same = |k: &PassKind| std::mem::discriminant(k) == std::mem::discriminant(&want);
        report.set(
            name,
            m.passes.iter().filter(|p| same(&p.kind)).count() as f64,
        );
    }
    report.set(
        "trace.incr_dirty_msgs",
        m.passes.iter().map(|p| p.dirty as f64).sum(),
    );
    report.set(
        "trace.pass_over_exec",
        median(&replay) / iterations / median(&exec.raw_ms),
    );

    report.set_median("core.loop_ms", &plain.raw_ms);
    report.set("core.iterations", iterations);
    let over_exec: Vec<f64> = (0..cycles)
        .map(|i| plain.raw_ms[i] / exec.raw_ms[i])
        .collect();
    report.set_median("core.sctm_over_exec", &over_exec);
    // Σ layer spans of the mirrored op ÷ wall of the plain op beside it.
    let mut layer_sum = vec![0.0f64; cycles];
    for name in LOOP_LAYERS {
        for (sum, ms) in layer_sum.iter_mut().zip(layer_ms(name)) {
            *sum += ms;
        }
    }
    let cover: Vec<f64> = (0..cycles)
        .map(|i| layer_sum[i] / plain.raw_ms[i])
        .collect();
    report.set_median("core.ledger_cover_frac", &cover);
    if median(&cover) < 0.90 {
        report.notes.push(format!(
            "core.ledger_cover_frac {:.3} < 0.90: the ledger is missing a stage",
            median(&cover)
        ));
    }

    report.set_median("bench.raw_op_ms_p50", &plain.raw_ms);
    report.set_median("bench.calib_ms_p50", &plain.calib_ms);
    report.set(
        "bench.trace_overhead_frac",
        median(&mirrored.cal_x) / median(&plain.cal_x) - 1.0,
    );
    report.set("bench.ops", cycles as f64);

    // Single layers on this op's own data.
    let drain = layers::drain_ns_per_msg(&m.log, &m.result.inject, SIDE, cfg.net);
    let (own_drain, own_build, other_build, other_kind) = match cfg.net {
        NetworkKind::Emesh => (
            "enoc.drain_ns_per_msg",
            "enoc.build_ms",
            "onoc.build_ms",
            NetworkKind::Omesh,
        ),
        _ => (
            "onoc.drain_ns_per_msg",
            "onoc.build_ms",
            "enoc.build_ms",
            NetworkKind::Emesh,
        ),
    };
    report.set(own_drain, drain);
    // One pass (they are equal-sized full passes) against its bare drain.
    let pass_ns_per_msg = median(&replay) * 1e6 / iterations / m.log.len().max(1) as f64;
    report.set("trace.replay_overhead_frac", 1.0 - drain / pass_ns_per_msg);
    report.set(own_build, median(&build) / iterations);
    report.set(other_build, layers::net_build_ms(SIDE, other_kind));
    report.set("engine.evq_ns_per_op", layers::evq_ns_per_op());
    report.set(
        "workloads.build_ms",
        layers::workloads_build_ms(Kernel::Fft, SIDE * SIDE, cfg.ops, args.seed),
    );
    layers::sctf_layers(&m.log, report);

    if cfg.obs_guard {
        let ratio = obs_on_over_off(fx, clock, report);
        report.set("obs.on_over_off", ratio);
    }

    crate::write_chrome_trace(&args.workload, &[&rec])
}

/// The loop with `sctm-obs` recording on against the same loop with it
/// off, interleaved; the PR 7/8 cost gates promise ≤ 1.02.
fn obs_on_over_off(fx: &Fixture, clock: &mut OpClock, report: &mut Report) -> f64 {
    let (mut off, mut on) = (Samples::default(), Samples::default());
    clock.resync();
    for _ in 0..OBS_PAIRS {
        let got = clock.time(&mut off, || run_loop(&fx.exp));
        check_op(report, fx, got);
        sctm_obs::set_enabled(true);
        let got = clock.time(&mut on, || run_loop(&fx.exp));
        sctm_obs::set_enabled(false);
        // Recording must not change a result; drop what it recorded.
        check_op(report, fx, got);
        sctm_obs::drain();
        sctm_obs::reset_global();
        sctm_obs::reset_iterations();
        sctm_obs::reset_conv();
    }
    median(&on.cal_x) / median(&off.cal_x)
}
