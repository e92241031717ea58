//! The paper's case study (experiment E2): one real application on the
//! ONoC, simulated execution-driven and with the self-correction trace
//! model, compared against the baseline electrical NoC simulator.
//!
//! ```text
//! cargo run --release --example case_study             # 16 cores
//! cargo run --release --example case_study -- 8 1200   # 64 cores, longer run
//! SCTM_OBS=1 cargo run --release --example case_study  # + Perfetto trace
//! ```
//!
//! With `SCTM_OBS=1` the run is instrumented: every simulation phase
//! becomes a host-time span, and the example writes
//! `case_study_trace.json` (open it at <https://ui.perfetto.dev>) plus
//! `case_study_manifest.json` with metric snapshots and per-iteration
//! convergence telemetry.

use sctm::engine::table::{fnum, Table};
use sctm::obs;
use sctm::prelude::*;

fn main() {
    obs::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let side: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(4);
    let ops: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(600);
    let kernel = Kernel::Fft;

    let omesh = Experiment::new(SystemConfig::new(side, NetworkKind::Omesh), kernel).with_ops(ops);
    let emesh = Experiment::new(SystemConfig::new(side, NetworkKind::Emesh), kernel).with_ops(ops);

    let go = |e: &Experiment, spec: &RunSpec| e.execute(spec).expect("valid spec").report;
    eprintln!("running the execution-driven ONoC reference...");
    let reference = go(&omesh, &RunSpec::exec_driven());
    eprintln!("running the self-correction trace model...");
    let sctm = go(&omesh, &RunSpec::self_correction(4));
    eprintln!("running the classic trace model...");
    let classic = go(&omesh, &RunSpec::classic());
    eprintln!("running the baseline electrical NoC simulator...");
    let baseline = go(&emesh, &RunSpec::exec_driven());

    let mut t = Table::new(
        format!("Case study: {} on {} cores", kernel.label(), side * side),
        &[
            "simulator",
            "network",
            "exec time",
            "data lat (ns)",
            "exec err %",
            "wall (ms)",
        ],
    );
    for (name, r) in [
        ("execution-driven ONoC (reference)", &reference),
        ("self-correction trace model", &sctm),
        ("classic trace model", &classic),
        ("baseline NoC simulator", &baseline),
    ] {
        let err = if r.network == reference.network {
            fnum(accuracy(r, &reference).exec_time_err_pct)
        } else {
            "-".into()
        };
        t.row(&[
            name.to_string(),
            r.network.to_string(),
            r.exec_time.to_string(),
            fnum(r.mean_lat_data_ns),
            err,
            fnum(r.wall.as_secs_f64() * 1e3),
        ]);
    }
    println!("{}", t.render());

    let acc = accuracy(&sctm, &reference);
    println!(
        "headline: SCTM reproduces the execution-driven ONoC result within {:.1}% \
         at {:.2}x the wall time of the baseline electrical simulator.",
        acc.exec_time_err_pct,
        sctm.wall.as_secs_f64() / baseline.wall.as_secs_f64()
    );

    if obs::enabled() {
        let trace = obs::chrome_trace_json(&obs::drain());
        let mut manifest = obs::Manifest::new();
        manifest.config("kernel", kernel.label());
        manifest.config("cores", side * side);
        manifest.config("ops", ops);
        manifest.metrics = obs::global_snapshot();
        manifest.iterations = obs::iterations_snapshot();
        std::fs::write("case_study_trace.json", trace).expect("write trace");
        std::fs::write("case_study_manifest.json", manifest.to_json()).expect("write manifest");
        eprintln!(
            "obs: wrote case_study_trace.json (open at https://ui.perfetto.dev) \
             and case_study_manifest.json"
        );
    }
}
