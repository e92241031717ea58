//! Command line of the benchmark; `run.sh` builds and then calls this.
//!
//! ```text
//! sctm-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! sctm-benchmark [--seed N] [--seconds S]      every workload, untraced then traced
//! sctm-benchmark --list
//! sctm-benchmark --compare a.json b.json
//! ```

use sctm_benchmark::json::Json;
use sctm_benchmark::spec::{self, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use sctm_benchmark::{compare, run_workload, Args, OUT_DIR};
use std::process::{Command, ExitCode};

const DEFAULT_SECONDS: f64 = 20.0;
/// Prefix of the line a single run prints before its result line, with
/// quartiles, sample counts and the digest; the full run collects it.
const DETAIL_PREFIX: &str = "detail ";

fn defs(trace: bool) -> &'static [MetricDef] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    list: bool,
    compare: Option<(String, String)>,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        list: false,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => {
                cli.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                cli.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--list" => cli.list = true,
            "--compare" => cli.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(cli)
}

fn run_one(args: &Args) -> Result<(), String> {
    let report = run_workload(args)?;
    let defs = defs(args.trace);
    println!(
        "# {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    print!("{}", report.human(defs));
    println!(
        "fail_frac                    {} / {} ops",
        report.failed, report.attempted
    );
    println!("sim_digest                   {:016x}", report.sim_digest);
    for note in &report.notes {
        println!("note: {note}");
    }
    for e in &report.errors {
        println!("error: {e}");
    }
    println!("{DETAIL_PREFIX}{}", report.detail_json(defs));
    println!("{}", report.result_line(defs));
    Ok(())
}

/// Every workload untraced, then every workload traced, each in a child
/// process of its own so that `peak_rss_mb` is per workload.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut details = vec![[String::new(), String::new()]; WORKLOADS.len()];
    let mut all_correct = true;
    for trace in [false, true] {
        for (w, slot) in WORKLOADS.iter().zip(details.iter_mut()) {
            let out = Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            // The child's last line is for the gate; show the rest.
            let shown: Vec<&str> = stdout
                .lines()
                .filter(|l| !l.starts_with(DETAIL_PREFIX) && !l.starts_with('{'))
                .collect();
            println!("{}\n", shown.join("\n"));
            let detail = stdout
                .lines()
                .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
                .ok_or_else(|| {
                    format!(
                        "{} (trace {}) printed no result: {}",
                        w.name,
                        trace as u8,
                        String::from_utf8_lossy(&out.stderr)
                    )
                })?;
            all_correct &= detail.starts_with("{\"correct\": true");
            slot[trace as usize] = detail.to_string();
        }
    }
    let body: Vec<String> = WORKLOADS
        .iter()
        .zip(&details)
        .map(|(w, d)| {
            format!(
                "\"{}\": {{\"untraced\": {}, \"traced\": {}}}",
                w.name, d[0], d[1]
            )
        })
        .collect();
    let text = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"workloads\": {{\n{}\n}}}}\n",
        cli.seed,
        cli.seconds,
        body.join(",\n")
    );
    std::fs::create_dir_all(OUT_DIR).map_err(|e| e.to_string())?;
    let path = format!("{OUT_DIR}/result.json");
    std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
    println!("wrote {path}");
    Ok(all_correct)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&argv)?;
    if cli.list {
        print!("{}", spec::list_text());
        return Ok(true);
    }
    if let Some((a, b)) = &cli.compare {
        let (text, ok) = compare::compare(
            &read_json("BENCHMARK.json")?,
            &read_json(a)?,
            &read_json(b)?,
        )?;
        print!("{text}");
        return Ok(ok);
    }
    match &cli.workload {
        Some(w) => {
            if spec::workload(w).is_none() {
                return Err(format!("unknown workload '{w}' (see --list)"));
            }
            run_one(&Args {
                workload: w.clone(),
                seed: cli.seed,
                seconds: cli.seconds,
                trace: cli.trace,
            })?;
            // A result line was printed; whether the run was correct is
            // in it.
            Ok(true)
        }
        None => run_all(&cli),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("sctm-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
