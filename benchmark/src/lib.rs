//! The repository's benchmark (see `README.md` beside `Cargo.toml`).
//!
//! Four workloads — two self-correction loops, two service mixes — each
//! reporting the end-to-end metrics of `BENCHMARK.json` with tracing
//! off, and the per-layer metrics with tracing on. Layers are measured
//! from outside, by timing calls into their public functions; nothing
//! in the repository's own crates is touched.

pub mod calib;
pub mod compare;
pub mod json;
pub mod layers;
pub mod loops;
pub mod report;
pub mod span;
pub mod spec;
pub mod stats;
pub mod svc;

use calib::{OpClock, Samples};
use report::Report;
use sctm_core::NetworkKind;
use span::Recorder;

/// Times a workload sets itself up in one run; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Where traced runs and `--all` leave their files, relative to the
/// checkout root the benchmark is run from.
pub const OUT_DIR: &str = "benchmark/out";

#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

pub fn write_chrome_trace(workload: &str, recorders: &[&Recorder]) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| e.to_string())?;
    let path = format!("{OUT_DIR}/trace-{workload}.json");
    std::fs::write(&path, span::chrome_trace_json(recorders)).map_err(|e| format!("{path}: {e}"))
}

/// The calibration kernel's wall on this host in its fast state;
/// `setup_s` is scaled to it.
const NOMINAL_CALIB_MS: f64 = 20.0;

/// Set a workload up [`SETUP_REPS`] times — tearing the previous
/// fixture down first, outside the clock — and record the median as
/// `setup_s`. Returns the last fixture.
///
/// Set-up is mostly simulation (reference runs), so its wall swings
/// with the host like an op's does, and back-to-back reps share
/// one host phase: the median alone spread 20–40% between runs. Each
/// rep is therefore bracketed like an op and reported in seconds at the
/// kernel's nominal speed, `wall × 20 ms ÷ bracket wall`.
pub fn set_up_repeatedly<F>(
    report: &mut Report,
    clock: &mut OpClock,
    make: impl Fn() -> Result<F, String>,
    tear_down: impl Fn(F) -> Result<(), String>,
) -> Result<F, String> {
    let mut reps = Samples::default();
    let mut fixture = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = fixture.take() {
            tear_down(old)?;
            clock.resync();
        }
        fixture = Some(clock.time(&mut reps, &make)?);
    }
    let scaled: Vec<f64> = reps
        .cal_x
        .iter()
        .map(|x| x * NOMINAL_CALIB_MS / 1e3)
        .collect();
    report.set_median("setup_s", &scaled);
    report.notes.push(format!(
        "set-up wall, unscaled: {:.3} s",
        stats::median(&reps.raw_ms) / 1e3
    ));
    Ok(fixture.expect("SETUP_REPS >= 1"))
}

/// What an untraced run reports of its window.
pub fn report_ops(report: &mut Report, ops: &Samples) {
    report.set_median("op_cal_p50", &ops.cal_x);
    report.notes.push(format!(
        "op wall, uncalibrated: p50 {:.3} ms over {} ops (calibration kernel p50 {:.3} ms)",
        stats::median(&ops.raw_ms),
        ops.len(),
        stats::median(&ops.calib_ms)
    ));
}

/// Run one workload in this process.
pub fn run_workload(args: &Args) -> Result<Report, String> {
    let mut report = match args.workload.as_str() {
        "loop_fft64_omesh" => loops::run(
            &loops::LoopCfg {
                net: NetworkKind::Omesh,
                ops: 1500,
                obs_guard: true,
            },
            args,
        ),
        "loop_fft64_emesh" => loops::run(
            &loops::LoopCfg {
                net: NetworkKind::Emesh,
                ops: 300,
                obs_guard: false,
            },
            args,
        ),
        "svc_warm_lockstep" => svc::run_warm(args),
        "svc_cold_pipelined" => svc::run_cold(args),
        other => Err(format!("unknown workload '{other}' (see --list)")),
    }?;
    report.set("peak_rss_mb", peak_rss_mb()?);
    report.set("bench.nproc", nproc() as f64);
    report.set(
        "bench.fail_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    Ok(report)
}
