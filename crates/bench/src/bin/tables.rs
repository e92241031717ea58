//! Regenerate every table/figure of the evaluation.
//!
//! ```text
//! tables                    # all experiments, quick scale
//! tables --full             # paper scale (minutes)
//! tables --exp e3 e7       # a subset
//! tables --csv              # machine-readable tables as well
//! tables --json             # run manifest JSON on stdout
//! tables --obs-dir out/     # write trace/manifest/blame/flamegraph to out/
//! tables --trace-out t.sctf  # save the flagship capture (format by extension)
//! SCTM_OBS=1 tables         # enable tracing without flags
//! ```
//!
//! With tracing enabled (any of `--json`, `--obs-dir`, `SCTM_OBS`),
//! every experiment runs under a `bench` span, sweep jobs and
//! self-correction iterations are traced, and the run ends with a
//! machine-readable manifest: config, per-phase wall times, metric
//! snapshots from every network touched, and per-iteration convergence
//! telemetry. `out/trace.json` loads directly in <https://ui.perfetto.dev>.
//!
//! `--obs-dir` additionally runs two instrumented profile passes
//! (fft on omesh and on oxbar) and writes `blame.json` — per-class
//! latency blame plus the critical path — and `critpath.folded`, a
//! folded-stack file for flamegraph tooling. The sampled per-node
//! counter series ride along as Perfetto counter tracks in
//! `trace.json` and as a `series` section in the manifest.

use sctm_bench::{num_threads, run_experiment, Scale, EXPERIMENT_IDS};
use sctm_core::{Experiment, NetworkKind, RunSpec, SystemConfig};
use sctm_obs as obs;
use sctm_prof as prof;
use sctm_workloads::Kernel;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let csv = args.iter().any(|a| a == "--csv");
    let json = args.iter().any(|a| a == "--json");
    let obs_dir: Option<std::path::PathBuf> = args
        .iter()
        .position(|a| a == "--obs-dir")
        .and_then(|i| args.get(i + 1))
        .map(|p| p.into());
    let trace_out: Option<std::path::PathBuf> = args
        .iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| args.get(i + 1))
        .map(|p| p.into());
    let wanted: Vec<String> = {
        let mut w = Vec::new();
        let mut take = false;
        for a in &args {
            if a == "--exp" {
                take = true;
            } else if a.starts_with("--") {
                take = false;
            } else if take {
                w.push(a.to_lowercase());
            }
        }
        w
    };
    obs::init_from_env();
    if json || obs_dir.is_some() {
        obs::set_enabled(true);
    }
    let scale = if full { Scale::Full } else { Scale::Quick };
    eprintln!(
        "# SCTM evaluation — scale: {scale:?} ({} cores flagship)",
        scale.side() * scale.side()
    );
    let t0 = std::time::Instant::now();
    let mut phases: Vec<(&'static str, f64)> = Vec::new();
    for id in EXPERIMENT_IDS {
        if !wanted.is_empty() && !wanted.iter().any(|w| w == id) {
            continue;
        }
        let te = std::time::Instant::now();
        let table = {
            let _span = obs::span("bench", id);
            run_experiment(id, scale).unwrap()
        };
        // With --json, stdout is reserved for the manifest (pipeable);
        // human-readable tables move to stderr.
        if json {
            eprintln!("{}", table.render());
        } else {
            println!("{}", table.render());
        }
        if csv {
            println!("# CSV {id}\n{}", table.to_csv());
        }
        phases.push((id, te.elapsed().as_secs_f64() * 1e3));
    }
    let total_ms = t0.elapsed().as_secs_f64() * 1e3;
    eprintln!("# total wall time: {:.1}s", total_ms / 1e3);

    // One flagship capture to disk; the extension picks the container
    // (`.sctf` binary or CSV text — see `sctf --help` for conversion).
    if let Some(path) = &trace_out {
        let exp = Experiment::new(
            SystemConfig::new(scale.side(), NetworkKind::Omesh),
            Kernel::Fft,
        )
        .with_ops(scale.ops());
        let log = exp.capture();
        log.save(path)
            .unwrap_or_else(|e| panic!("write --trace-out {}: {e}", path.display()));
        eprintln!("# trace: wrote {} records to {}", log.len(), path.display());
    }

    if !obs::enabled() {
        return;
    }

    // Instrumented profile passes: a self-correcting replay of fft on
    // each photonic target with lifecycle capture and per-node gauge
    // sampling on. Blame analysis and the counter tracks come from
    // these, not from the (uninstrumented) experiment runs above.
    let mut profiles = Vec::new();
    if obs_dir.is_some() {
        for kind in [NetworkKind::Omesh, NetworkKind::Oxbar] {
            let _span = obs::span("bench", "profile");
            let exp = Experiment::new(SystemConfig::new(scale.side(), kind), Kernel::Fft)
                .with_ops(scale.ops().min(400));
            let log = exp.capture();
            let spec = RunSpec::self_correction(1).replay_only().profiled();
            let profile = exp
                .execute_seeded(&spec, Some(&log))
                .expect("valid spec")
                .profile
                .expect("profiled run returns artefacts");
            let blame = prof::analyze(kind.label(), "fft", &profile.log, &profile.lifecycles);
            profiles.push((blame, profile.series));
        }
    }

    let mut manifest = obs::Manifest::new();
    manifest.config("scale", format!("{scale:?}").to_lowercase());
    manifest.config("threads", num_threads());
    manifest.config(
        "experiments",
        phases
            .iter()
            .map(|(id, _)| *id)
            .collect::<Vec<_>>()
            .join(","),
    );
    for &(id, wall_ms) in &phases {
        manifest.phase(id, wall_ms);
    }
    manifest.phase("total", total_ms);
    manifest.metrics = obs::global_snapshot();
    manifest.iterations = obs::iterations_snapshot();
    for (_, series) in &profiles {
        manifest.series.push(series.clone());
    }
    let manifest_json = manifest.to_json();
    if json {
        println!("{manifest_json}");
    }
    if let Some(dir) = &obs_dir {
        std::fs::create_dir_all(dir).expect("create --obs-dir");
        // Counter tracks from the first (omesh) profile pass; a second
        // run's node gauges would collide with the same track names.
        let empty = obs::SeriesStore::default();
        let series = profiles.first().map_or(&empty, |(_, s)| s);
        let trace = obs::chrome_trace_with_series(&obs::drain(), series);
        std::fs::write(dir.join("trace.json"), trace).expect("write trace.json");
        std::fs::write(dir.join("manifest.json"), &manifest_json).expect("write manifest.json");
        let mut blame_doc = String::from("[\n");
        let mut folded = String::new();
        for (i, (blame, _)) in profiles.iter().enumerate() {
            if i > 0 {
                blame_doc.push_str(",\n");
            }
            blame_doc.push_str(&blame.to_json());
            folded.push_str(&blame.to_folded());
        }
        blame_doc.push_str("\n]\n");
        std::fs::write(dir.join("blame.json"), blame_doc).expect("write blame.json");
        std::fs::write(dir.join("critpath.folded"), folded).expect("write critpath.folded");
        eprintln!(
            "# obs: wrote trace.json, manifest.json, blame.json, critpath.folded to {} — open trace.json at https://ui.perfetto.dev",
            dir.display()
        );
    }
}
