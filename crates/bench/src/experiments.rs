//! The nine reconstructed experiments (DESIGN.md §4).

use crate::{par_map, Scale};
use sctm_core::trace::TraceLog;
use sctm_core::{accuracy, Experiment, NetworkKind, RunReport, RunSpec, SystemConfig};
use sctm_engine::net::AnalyticNetwork;
use sctm_engine::table::{fnum, Table};
use sctm_engine::time::SimTime;
use sctm_enoc::{measure_load_latency, Pattern, TrafficConfig};
use sctm_onoc::{ObusConfig, OmeshConfig, OxbarConfig};
use sctm_workloads::Kernel;

fn ms(d: std::time::Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e3)
}

fn go(e: &Experiment, spec: &RunSpec) -> RunReport {
    e.execute(spec).expect("valid spec").report
}

/// Replay `log` once in the given mode; with `wall0`, fold the shared
/// capture's wall time into the report.
fn replay(
    e: &Experiment,
    log: &TraceLog,
    spec: RunSpec,
    wall0: Option<std::time::Instant>,
) -> RunReport {
    let mut r = e
        .execute_seeded(&spec.replay_only(), Some(log))
        .expect("valid spec")
        .report;
    if let Some(w) = wall0 {
        r.wall = w.elapsed();
    }
    r
}

fn flagship(scale: Scale, kind: NetworkKind) -> Experiment {
    Experiment::new(SystemConfig::new(scale.side(), kind), Kernel::Fft).with_ops(scale.ops())
}

/// E1 — simulated system configuration (paper's Table 1 analogue).
pub fn e1_configuration(scale: Scale) -> Table {
    SystemConfig::new(scale.side(), NetworkKind::Omesh).config_table()
}

/// E2 — the headline case study: a real application on the ONoC,
/// simulated execution-driven vs with the self-correction trace model,
/// against the baseline electrical NoC simulator.
pub fn e2_case_study(scale: Scale) -> Table {
    let omesh = flagship(scale, NetworkKind::Omesh);
    let emesh = flagship(scale, NetworkKind::Emesh);

    // Independent runs in parallel; trace modes share one capture.
    let mut results = par_map::<(&'static str, RunReport), _>(vec![
        {
            let e = omesh.clone();
            Box::new(move || ("exec-driven (reference)", go(&e, &RunSpec::exec_driven())))
                as Box<dyn FnOnce() -> (&'static str, RunReport) + Send>
        },
        {
            let e = omesh.clone();
            Box::new(move || {
                (
                    "self-correction trace",
                    go(&e, &RunSpec::self_correction(4)),
                )
            })
        },
        {
            let e = omesh.clone();
            Box::new(move || {
                let wall0 = std::time::Instant::now();
                let log = e.capture();
                let classic = replay(&e, &log, RunSpec::classic(), Some(wall0));
                ("classic trace", classic)
            })
        },
        {
            let e = omesh.clone();
            Box::new(move || {
                let wall0 = std::time::Instant::now();
                let log = e.capture();
                (
                    "oracle trace",
                    replay(&e, &log, RunSpec::oracle(), Some(wall0)),
                )
            })
        },
        {
            let e = emesh;
            Box::new(move || {
                (
                    "baseline NoC simulator (emesh)",
                    go(&e, &RunSpec::exec_driven()),
                )
            })
        },
    ]);
    let reference = results[0].1.clone();

    let mut t = Table::new(
        format!(
            "E2 — Case study: fft on {}-core photonic mesh (precision & simulation time)",
            scale.side() * scale.side()
        ),
        &[
            "simulator",
            "network",
            "exec time",
            "data lat (ns)",
            "exec err %",
            "wall (ms)",
            "wall vs ref",
        ],
    );
    for (name, r) in results.drain(..) {
        let a = accuracy(&r, &reference);
        let err = if r.network == reference.network {
            format!("{:.1}", a.exec_time_err_pct)
        } else {
            "n/a (different network)".into()
        };
        t.row(&[
            name.to_string(),
            r.network.to_string(),
            r.exec_time.to_string(),
            fnum(r.mean_lat_data_ns),
            err,
            ms(r.wall),
            format!("{:.2}x", a.wall_ratio),
        ]);
    }
    t
}

/// E3 — accuracy per application and optical architecture.
pub fn e3_accuracy_per_application(scale: Scale) -> Table {
    let mut jobs: Vec<Box<dyn FnOnce() -> Vec<String> + Send>> = Vec::new();
    for kernel in Kernel::ALL {
        for kind in [NetworkKind::Omesh, NetworkKind::Oxbar] {
            jobs.push(Box::new(move || {
                let e = Experiment::new(SystemConfig::new(scale.side(), kind), kernel)
                    .with_ops(scale.ops());
                let reference = go(&e, &RunSpec::exec_driven());
                let log = e.capture();
                let classic = replay(&e, &log, RunSpec::classic(), None);
                let oracle = replay(&e, &log, RunSpec::oracle(), None);
                let sctm = go(&e, &RunSpec::self_correction(4));
                let iters = sctm.iterations.as_ref().map(|v| v.len()).unwrap_or(0);
                vec![
                    kernel.label().to_string(),
                    kind.label().to_string(),
                    fnum(accuracy(&classic, &reference).exec_time_err_pct),
                    fnum(accuracy(&sctm, &reference).exec_time_err_pct),
                    fnum(accuracy(&oracle, &reference).exec_time_err_pct),
                    iters.to_string(),
                ]
            }));
        }
    }
    let rows = par_map(jobs);
    let mut t = Table::new(
        "E3 — Execution-time error vs execution-driven reference (%)",
        &[
            "application",
            "network",
            "classic trace",
            "self-correction",
            "oracle",
            "sctm iters",
        ],
    );
    for r in rows {
        t.row(&r);
    }
    t
}

/// E4 — convergence of the self-correction loop.
pub fn e4_convergence(scale: Scale) -> Table {
    let mut t = Table::new(
        "E4 — Self-correction convergence (fft)",
        &[
            "network",
            "iteration",
            "est exec time",
            "drift",
            "err vs exec-driven %",
        ],
    );
    let rows = par_map::<Vec<Vec<String>>, _>(
        [NetworkKind::Omesh, NetworkKind::Oxbar]
            .into_iter()
            .map(|kind| {
                Box::new(move || {
                    let e = flagship(scale, kind);
                    let reference = go(&e, &RunSpec::exec_driven());
                    let sctm = go(&e, &RunSpec::self_correction(6));
                    sctm.iterations
                        .as_ref()
                        .unwrap()
                        .iter()
                        .map(|it| {
                            let err = sctm_engine::stats::rel_err_pct(
                                it.est_exec_time.as_ps() as f64,
                                reference.exec_time.as_ps() as f64,
                            );
                            vec![
                                kind.label().to_string(),
                                it.iteration.to_string(),
                                it.est_exec_time.to_string(),
                                it.drift.to_string(),
                                fnum(err),
                            ]
                        })
                        .collect()
                }) as Box<dyn FnOnce() -> Vec<Vec<String>> + Send>
            })
            .collect(),
    );
    for group in rows {
        for r in group {
            t.row(&r);
        }
    }
    t
}

/// E5 — simulation wall time vs core count, per simulation mode.
pub fn e5_simulation_time_scaling(scale: Scale) -> Table {
    let sides: &[usize] = match scale {
        Scale::Quick => &[2, 4],
        Scale::Full => &[4, 8, 16],
    };
    let mut jobs: Vec<Box<dyn FnOnce() -> Vec<String> + Send>> = Vec::new();
    for &side in sides {
        for kind in [NetworkKind::Omesh, NetworkKind::Emesh] {
            jobs.push(Box::new(move || {
                let ops = scale.ops();
                let e = Experiment::new(SystemConfig::new(side, kind), Kernel::Fft).with_ops(ops);
                let exec = go(&e, &RunSpec::exec_driven());
                let sctm = go(&e, &RunSpec::self_correction(3));
                let wall0 = std::time::Instant::now();
                let log = e.capture();
                let classic = replay(&e, &log, RunSpec::classic(), Some(wall0));
                vec![
                    format!("{}", side * side),
                    kind.label().to_string(),
                    ms(exec.wall),
                    ms(sctm.wall),
                    ms(classic.wall),
                    format!("{:.2}x", sctm.wall.as_secs_f64() / exec.wall.as_secs_f64()),
                ]
            }));
        }
    }
    let rows = par_map(jobs);
    let mut t = Table::new(
        "E5 — Simulation wall time vs core count and target network (fft, ms)",
        &[
            "cores",
            "target",
            "exec-driven",
            "sctm loop",
            "classic trace",
            "sctm/exec ratio",
        ],
    );
    for r in rows {
        t.row(&r);
    }
    t
}

/// E6 — open-loop load-latency curves for all three networks.
pub fn e6_load_latency(scale: Scale) -> Table {
    let side = scale.side();
    let rates: &[f64] = match scale {
        Scale::Quick => &[0.01, 0.04],
        Scale::Full => &[0.005, 0.01, 0.02, 0.04, 0.08],
    };
    let patterns = [
        Pattern::Uniform,
        Pattern::Hotspot { node: 0, frac: 0.3 },
        Pattern::Transpose,
    ];
    let mut jobs: Vec<Box<dyn FnOnce() -> Vec<String> + Send>> = Vec::new();
    for kind in NetworkKind::DETAILED {
        for pattern in patterns {
            for &rate in rates {
                jobs.push(Box::new(move || {
                    let mut net = SystemConfig::make_network_kind(side, kind);
                    let cfg = TrafficConfig {
                        pattern,
                        msg_rate: rate,
                    };
                    let p = measure_load_latency(cfg, net.as_mut(), side);
                    vec![
                        kind.label().to_string(),
                        pattern.label().to_string(),
                        fnum(rate),
                        fnum(p.avg_latency_ns),
                        fnum(p.p99_latency_ns),
                        fnum(p.delivered_frac),
                        fnum(p.throughput),
                    ]
                }));
            }
        }
    }
    let rows = par_map(jobs);
    let mut t = Table::new(
        format!("E6 — Load-latency, {side}x{side} networks (synthetic traffic)"),
        &[
            "network",
            "pattern",
            "rate (msg/node/cyc)",
            "avg lat (ns)",
            "p99 (ns)",
            "delivered",
            "throughput",
        ],
    );
    for r in rows {
        t.row(&r);
    }
    t
}

/// E7 — optical loss budget and power breakdown (DSENT-style table).
pub fn e7_power_budget(scale: Scale) -> Table {
    let side = scale.side();
    let omesh = OmeshConfig::new(side).budget();
    let oxbar = OxbarConfig::new(side).budget();
    let util = 0.1;
    let mut t = Table::new(
        format!(
            "E7 — Optical power at {}-core scale (10% utilisation)",
            side * side
        ),
        &[
            "architecture",
            "worst loss (dB)",
            "laser (mW)",
            "trim (mW)",
            "modulate (mW)",
            "receive (mW)",
            "total (mW)",
            "pJ/bit",
            "peak Gb/s",
        ],
    );
    let obus = ObusConfig::new(side).budget();
    for (name, b) in [
        ("photonic mesh", omesh),
        ("MWSR crossbar", oxbar),
        ("SWMR broadcast bus", obus),
    ] {
        let p = b.power(util);
        t.row(&[
            name.to_string(),
            fnum(b.worst_loss_db()),
            fnum(p.laser_mw),
            fnum(p.trimming_mw),
            fnum(p.modulation_mw),
            fnum(p.receiver_mw),
            fnum(p.total_mw()),
            fnum(p.pj_per_bit(b.peak_gbps() * util)),
            fnum(b.peak_gbps()),
        ]);
    }
    t
}

/// E8 — sensitivity to the fidelity of the capture model: scale the
/// analytic model's per-hop latency away from truth and watch the
/// classic trace break while self-correction holds.
pub fn e8_capture_model_sensitivity(scale: Scale) -> Table {
    let factors: &[f64] = match scale {
        Scale::Quick => &[0.25, 1.0, 4.0],
        Scale::Full => &[0.25, 0.5, 1.0, 2.0, 4.0],
    };
    let side = scale.side();
    let e = flagship(scale, NetworkKind::Omesh);
    let reference = go(&e, &RunSpec::exec_driven());
    let mut jobs: Vec<Box<dyn FnOnce() -> Vec<String> + Send>> = Vec::new();
    for &f in factors {
        let e = e.clone();
        let reference = reference.clone();
        jobs.push(Box::new(move || {
            let nodes = side * side;
            let model = AnalyticNetwork::new(
                nodes,
                SimTime::from_ns(8),
                SimTime::from_ps((1_500.0 * f) as u64),
                (60.0 * f) as u64,
            );
            let log = e.capture_on(model);
            let classic = replay(&e, &log, RunSpec::classic(), None);
            let pass = replay(&e, &log, RunSpec::self_correction(1), None);
            vec![
                format!("{f}x"),
                fnum(accuracy(&classic, &reference).exec_time_err_pct),
                fnum(accuracy(&pass, &reference).exec_time_err_pct),
            ]
        }));
    }
    let rows = par_map(jobs);
    let mut t = Table::new(
        "E8 — Error vs capture-model fidelity (fft on photonic mesh, %)",
        &[
            "capture model speed error",
            "classic trace err %",
            "sctm single-pass err %",
        ],
    );
    for r in rows {
        t.row(&r);
    }
    t
}

/// E9 — online epoch-based correction: error and cost vs epoch length.
pub fn e9_online_correction(scale: Scale) -> Table {
    let epochs_us: &[u64] = match scale {
        Scale::Quick => &[2, 10],
        Scale::Full => &[1, 2, 5, 10, 20],
    };
    let e = flagship(scale, NetworkKind::Omesh);
    let reference = go(&e, &RunSpec::exec_driven());
    let offline = go(&e, &RunSpec::self_correction(4));
    let mut jobs: Vec<Box<dyn FnOnce() -> Vec<String> + Send>> = Vec::new();
    for &us in epochs_us {
        let e = e.clone();
        let reference = reference.clone();
        jobs.push(Box::new(move || {
            let r = go(&e, &RunSpec::online(SimTime::from_us(us)));
            vec![
                format!("online, {us} us epochs"),
                fnum(accuracy(&r, &reference).exec_time_err_pct),
                ms(r.wall),
            ]
        }));
    }
    let mut rows = par_map(jobs);
    rows.push(vec![
        "offline self-correction".into(),
        fnum(accuracy(&offline, &reference).exec_time_err_pct),
        ms(offline.wall),
    ]);
    rows.push(vec![
        "exec-driven (reference)".into(),
        "0".into(),
        ms(reference.wall),
    ]);
    let mut t = Table::new(
        "E9 — Online epoch correction vs offline SCTM (fft on photonic mesh)",
        &["mode", "exec err %", "wall (ms)"],
    );
    for r in rows {
        t.row(&r);
    }
    t
}

/// E10 — message-latency distributions per interconnect under the case
/// study workload (extension figure: the *shape* of latency, not just
/// its mean, plus where each core's time actually goes).
pub fn e10_latency_distribution(scale: Scale) -> Table {
    use sctm_cmp::{CmpConfig, CmpSim, NullHook};
    use sctm_workloads::{build, WorkloadParams};
    let side = scale.side();
    let mut jobs: Vec<Box<dyn FnOnce() -> Vec<String> + Send>> = Vec::new();
    for kind in NetworkKind::DETAILED {
        jobs.push(Box::new(move || {
            let w = build(
                Kernel::Fft,
                WorkloadParams::new(side * side, scale.ops(), 1),
            );
            let cfg = CmpConfig::tiled(side);
            let net = SystemConfig::make_network_kind(side, kind);
            let mut sim = CmpSim::new(cfg, net, Box::new(w));
            let r = sim.run(&mut NullHook);
            let s = sim.network().stats();
            vec![
                kind.label().to_string(),
                format!("{:.1}", s.ctrl_latency_ps.p50() as f64 / 1000.0),
                format!("{:.1}", s.ctrl_latency_ps.p99() as f64 / 1000.0),
                format!("{:.1}", s.data_latency_ps.p50() as f64 / 1000.0),
                format!("{:.1}", s.data_latency_ps.p99() as f64 / 1000.0),
                r.exec_time.to_string(),
                format!("{:.0}%", r.wait_fill_frac * 100.0),
                format!("{:.0}%", r.wait_barrier_frac * 100.0),
            ]
        }));
    }
    let rows = par_map(jobs);
    let mut t = Table::new(
        format!(
            "E10 — Latency distribution & core-time breakdown (fft, {} cores)",
            side * side
        ),
        &[
            "network",
            "ctrl p50 (ns)",
            "ctrl p99 (ns)",
            "data p50 (ns)",
            "data p99 (ns)",
            "exec time",
            "fill wait",
            "barrier wait",
        ],
    );
    for r in rows {
        t.row(&r);
    }
    t
}

/// Knobs of the self-correction loop exercised by the A1 ablation.
#[derive(Clone, Copy, Debug)]
pub struct LoopOptions {
    /// Correct control and data flows separately.
    pub class_aware: bool,
    /// Damp correction updates (EWMA, α = 0.5) across iterations.
    pub damped: bool,
    /// Learn per-destination ejection serialisation.
    pub learn_service: bool,
}

impl LoopOptions {
    /// The production loop's choices (as in `Mode::SelfCorrection`,
    /// whose shipped damping is α = 1.0: undamped). The harness runs a
    /// fixed 4 iterations with no early exit.
    pub const FULL: LoopOptions = LoopOptions {
        class_aware: true,
        damped: false,
        learn_service: false,
    };
}

/// Re-implementation of the self-correction loop with policy switches,
/// over the public API (the production loop lives in `sctm-core`; this
/// exists so the ablation can turn individual choices off).
pub fn sctm_loop_with(e: &Experiment, opts: LoopOptions, iters: usize) -> SimTime {
    use sctm_engine::net::{MsgClass, NodeId};
    use sctm_trace::replay::{dst_service_estimates, pair_corrections, replay_sctm_pass};
    let side = e.system.side;
    let kind = e.system.network;
    let mut model = SystemConfig::analytic(side * side);
    let mut est = SimTime::ZERO;
    for _ in 0..iters {
        let log = e.capture_on(model.clone());
        let mut net = SystemConfig::make_network_kind(side, kind);
        let result = replay_sctm_pass(&log, net.as_mut());
        est = result.est_exec_time;
        let corr = pair_corrections(&log, &result, |m| model.base_latency(m));
        if opts.class_aware {
            for &((s, d, class), f, _) in &corr {
                let old = model.correction(NodeId(s), NodeId(d), class);
                let f = if opts.damped { 0.5 * old + 0.5 * f } else { f };
                model.set_correction(NodeId(s), NodeId(d), class, f);
            }
        } else {
            // Merge the two classes into one per-pair factor.
            let mut merged: std::collections::HashMap<(u32, u32), (f64, u32)> =
                std::collections::HashMap::new();
            for &((s, d, _), f, _) in &corr {
                let e = merged.entry((s, d)).or_insert((0.0, 0));
                e.0 += f;
                e.1 += 1;
            }
            for ((s, d), (sum, n)) in merged {
                let f = sum / n as f64;
                for class in [MsgClass::Control, MsgClass::Data] {
                    let old = model.correction(NodeId(s), NodeId(d), class);
                    let f = if opts.damped { 0.5 * old + 0.5 * f } else { f };
                    model.set_correction(NodeId(s), NodeId(d), class, f);
                }
            }
        }
        if opts.learn_service {
            for &(dst, ps) in &dst_service_estimates(&log, &result) {
                let old = model.dst_service(NodeId(dst));
                model.set_dst_service(NodeId(dst), (old + ps).div_ceil(2));
            }
        }
    }
    est
}

/// A1 — ablation of the self-correction loop's design choices.
pub fn a1_ablation(scale: Scale) -> Table {
    let variants: [(&str, LoopOptions); 4] = [
        ("full model", LoopOptions::FULL),
        (
            "- class-aware corrections",
            LoopOptions {
                class_aware: false,
                ..LoopOptions::FULL
            },
        ),
        (
            "+ damping (α = 0.5)",
            LoopOptions {
                damped: true,
                ..LoopOptions::FULL
            },
        ),
        (
            "+ service learning",
            LoopOptions {
                learn_service: true,
                ..LoopOptions::FULL
            },
        ),
    ];
    let mut jobs: Vec<Box<dyn FnOnce() -> Vec<String> + Send>> = Vec::new();
    for kind in [NetworkKind::Omesh, NetworkKind::Oxbar] {
        let reference = go(&flagship(scale, kind), &RunSpec::exec_driven());
        for (name, opts) in variants {
            let reference = reference.clone();
            jobs.push(Box::new(move || {
                let e = flagship(scale, kind);
                let est = sctm_loop_with(&e, opts, 4);
                let err = sctm_engine::stats::rel_err_pct(
                    est.as_ps() as f64,
                    reference.exec_time.as_ps() as f64,
                );
                vec![kind.label().to_string(), name.to_string(), fnum(err)]
            }));
        }
    }
    let rows = par_map(jobs);
    let mut t = Table::new(
        "A1 — Ablation of self-correction design choices (fft, exec err %)",
        &["network", "variant", "exec err %"],
    );
    for r in rows {
        t.row(&r);
    }
    t
}

/// §P10 — trace-container economics as the mesh scales. One row per
/// system size: the sctf container's bytes per message, its cold-load
/// time, and its size against the parsed log's resident bytes. Each
/// row then replays the *decoded* container through the
/// full-causality oracle on the detailed mesh, so the larger
/// configurations (256 and 1024 cores at full scale) exercise the
/// whole capture → encode → decode → replay path end-to-end.
pub fn p10_trace_format(scale: Scale) -> Table {
    use sctm_trace::sctf::{from_sctf_bytes, to_sctf_bytes};
    let sides: &[usize] = match scale {
        Scale::Quick => &[4, 8],
        Scale::Full => &[8, 16, 32],
    };
    // Captures fan out; the timed loads below run serially so no row's
    // clock fights another capture for cores.
    let jobs: Vec<Box<dyn FnOnce() -> (usize, TraceLog) + Send>> = sides
        .iter()
        .map(|&side| {
            Box::new(move || {
                // Records scale with cores, so shrink the per-core
                // script as meshes grow to keep row cost bounded.
                let ops = (2400 / side).max(60);
                let log = Experiment::new(SystemConfig::new(side, NetworkKind::Omesh), Kernel::Fft)
                    .with_ops(ops)
                    .capture();
                (side, log)
            }) as Box<dyn FnOnce() -> (usize, TraceLog) + Send>
        })
        .collect();
    let captures = par_map(jobs);

    // Cold loads are one-shot by nature; best-of-3 keeps a stray
    // scheduler hiccup out of the row.
    fn best_of_3<T>(mut f: impl FnMut() -> T) -> (std::time::Duration, T) {
        let mut best = None::<std::time::Duration>;
        let mut out = None;
        for _ in 0..3 {
            let t0 = std::time::Instant::now();
            let v = f();
            let dt = t0.elapsed();
            if best.is_none_or(|b| dt < b) {
                best = Some(dt);
                out = Some(v);
            }
        }
        (best.unwrap(), out.unwrap())
    }

    let rows: Vec<Vec<String>> = captures
        .into_iter()
        .map(|(side, log)| {
            let sctf = to_sctf_bytes(&log);
            let n = log.len().max(1) as f64;

            let (sctf_load, decoded) = best_of_3(|| from_sctf_bytes(&sctf).expect("sctf decode"));
            assert_eq!(decoded.len(), log.len());

            let t0 = std::time::Instant::now();
            let mut net = SystemConfig::make_network_kind(side, NetworkKind::Omesh);
            let r = sctm_trace::replay_oracle(&decoded, net.as_mut());
            let replay = t0.elapsed();

            vec![
                format!("{}", side * side),
                format!("{}", log.len()),
                fnum(sctf.len() as f64 / n),
                ms(sctf_load),
                format!("{:.2}", sctf.len() as f64 / log.resident_bytes() as f64),
                format!("{} / {}", ms(replay), r.est_exec_time),
            ]
        })
        .collect();
    let mut t = Table::new(
        "P10 — Trace container economics: sctf binary (fft on omesh)",
        &[
            "cores",
            "records",
            "sctf B/msg",
            "sctf load (ms)",
            "resident ratio",
            "oracle replay (ms / est)",
        ],
    );
    for r in rows {
        t.row(&r);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use sctm_engine::hash::fnv1a;

    // Shape tests run everything at quick scale. They are the
    // regeneration check for every table/figure: not absolute numbers,
    // but the paper's qualitative claims.

    #[test]
    fn e1_has_core_count() {
        let t = e1_configuration(Scale::Quick);
        assert!(t.render().contains("16 (4x4 mesh)"));
    }

    #[test]
    fn e7_crossbar_burns_more_power() {
        let t = e7_power_budget(Scale::Quick);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        let get = |line: &str, idx: usize| -> f64 {
            line.split(',')
                .nth(idx)
                .unwrap_or_else(|| panic!("e7 csv row '{line}' has no column {idx}"))
                .parse()
                .unwrap_or_else(|e| panic!("e7 csv column {idx} of '{line}' is not a number: {e}"))
        };
        let mesh_total = get(lines[1], 6);
        let xbar_total = get(lines[2], 6);
        assert!(xbar_total > mesh_total, "{xbar_total} !> {mesh_total}");
    }

    #[test]
    fn e6_latency_grows_with_rate() {
        let t = e6_load_latency(Scale::Quick);
        let csv = t.to_csv();
        // For the emesh uniform rows, latency at 0.04 ≥ latency at 0.01.
        let rows: Vec<Vec<String>> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(|s| s.to_string()).collect())
            .collect();
        let lat = |net: &str, rate: f64| -> f64 {
            rows.iter()
                .find(|r| {
                    r[0] == net
                        && r[1] == "uniform"
                        && (r[2]
                            .parse::<f64>()
                            .expect("e6 csv 'rate' column is not a number")
                            - rate)
                            .abs()
                            < 1e-9
                })
                .map(|r| {
                    r[3].parse()
                        .expect("e6 csv 'latency' column is not a number")
                })
                .unwrap_or_else(|| panic!("e6 csv has no uniform row for {net} at rate {rate}"))
        };
        assert!(lat("emesh", 0.04) >= lat("emesh", 0.01));
        // Every row, every network: the FNV-1a of the whole CSV.
        let fnv = fnv1a(csv.as_bytes());
        assert_eq!(fnv, 0x0b50_8ef2_2ab5_2237, "e6 quick csv changed:\n{csv}");
    }

    /// Every A1 row at quick scale: the FNV-1a of the whole CSV, which
    /// is the table before the source-order variant was deleted with
    /// its two rows taken out.
    #[test]
    fn a1_quick_csv_is_pinned() {
        let csv = a1_ablation(Scale::Quick).to_csv();
        let fnv = fnv1a(csv.as_bytes());
        assert_eq!(fnv, 0x5e8a_ebb8_8643_38d9, "a1 quick csv changed:\n{csv}");
    }

    #[test]
    fn e8_classic_degrades_with_model_error_but_sctm_holds() {
        let t = e8_capture_model_sensitivity(Scale::Quick);
        let csv = t.to_csv();
        let rows: Vec<Vec<String>> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(|s| s.to_string()).collect())
            .collect();
        let err_at = |f: &str, col: usize, mode: &str| -> f64 {
            rows.iter()
                .find(|r| r[0] == f)
                .unwrap_or_else(|| panic!("e8 csv has no row for capture factor {f}"))[col]
                .parse()
                .unwrap_or_else(|e| panic!("e8 csv '{mode}' error at {f} is not a number: {e}"))
        };
        let classic_at = |f: &str| -> f64 { err_at(f, 1, "classic") };
        let sctm_at = |f: &str| -> f64 { err_at(f, 2, "sctm") };
        // A 4x-wrong capture model wrecks the classic trace…
        assert!(classic_at("4x") > 3.0 * classic_at("1x").max(1.0));
        // …while the self-correcting pass stays in single digits.
        assert!(sctm_at("4x") < 12.0, "sctm at 4x: {}", sctm_at("4x"));
    }
}
