//! The `sctmd` line protocol.
//!
//! Requests are single lines of whitespace-separated tokens: a verb
//! followed by `key=value` pairs. Responses are single-line JSON.
//!
//! ```text
//! run kernel=fft net=omesh side=4 ops=600 seed=1 mode=sctm iters=4 id=r1
//! stats
//! metrics
//! ping
//! shutdown
//! ```
//!
//! A `run` response carries bookkeeping first (status, id, wall time,
//! whether the capture cache hit) and ends with a `"result"` object —
//! the run manifest in the `sctm-obs` schema, containing **only
//! simulated quantities**. Everything host-dependent (wall clocks,
//! cache state) stays outside `"result"`, so the result object is
//! byte-identical between a cold and a warm run, between the service
//! and a direct [`Experiment::execute`], and at any worker count.

use sctm_core::workloads::MIN_OPS_PER_CORE;
use sctm_core::{
    kernel_from_label, Experiment, Mode, NetworkKind, RunReport, RunSpec, SctmError, SystemConfig,
};
use sctm_engine::time::SimTime;
use sctm_obs::{json_escape, IterTelemetry, Manifest};

/// One parsed `run` request, ready to schedule.
#[derive(Clone, Debug)]
pub struct RunRequest {
    /// Echoed verbatim in the response so clients can match lines.
    pub id: String,
    pub experiment: Experiment,
    pub spec: RunSpec,
    /// Per-request queue deadline; `None` uses the server default.
    pub timeout_ms: Option<u64>,
}

/// Any protocol line.
#[derive(Clone, Debug)]
pub enum Request {
    Run(Box<RunRequest>),
    /// Versioned JSON telemetry snapshot (`SVC_STATS_VERSION`).
    Stats,
    /// Prometheus text exposition 0.0.4; the only multi-line response,
    /// terminated by a `# EOF` line.
    Metrics,
    Ping,
    Shutdown,
}

fn invalid(msg: String) -> SctmError {
    SctmError::InvalidSpec(msg)
}

fn parse_num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, SctmError> {
    v.parse()
        .map_err(|_| invalid(format!("{key}={v} is not a valid number")))
}

/// `ops=N`, refused below the bound the workload builder asserts.
fn parse_ops(v: &str) -> Result<usize, SctmError> {
    let ops: usize = parse_num("ops", v)?;
    if ops < MIN_OPS_PER_CORE {
        return Err(invalid(format!(
            "ops={ops} is below the {MIN_OPS_PER_CORE}-op minimum"
        )));
    }
    Ok(ops)
}

/// Parse one request line. Every failure is a typed [`SctmError`] so
/// the server can answer with a structured error response instead of
/// dropping the connection.
pub fn parse_request(line: &str) -> Result<Request, SctmError> {
    let mut toks = line.split_whitespace();
    let verb = toks.next().ok_or_else(|| invalid("empty request".into()))?;
    // Control verbs take no arguments — strict, so a typo'd `run`
    // payload can't silently become a stats poll.
    let bare = |req: Request, mut toks: std::str::SplitWhitespace<'_>| match toks.next() {
        None => Ok(req),
        Some(tok) => Err(invalid(format!(
            "verb '{verb}' takes no arguments (got '{tok}')"
        ))),
    };
    match verb {
        "stats" => return bare(Request::Stats, toks),
        "metrics" => return bare(Request::Metrics, toks),
        "ping" => return bare(Request::Ping, toks),
        "shutdown" => return bare(Request::Shutdown, toks),
        "run" => {}
        other => return Err(invalid(format!("unknown verb '{other}'"))),
    }

    let mut kernel = None;
    let mut net = "omesh";
    let mut side = 4usize;
    let mut ops = 600usize;
    let mut seed = 1u64;
    let mut mode_label = "sctm";
    let mut iters = 4usize;
    let mut epoch_us = 5u64;
    let mut replay = false;
    let mut damping = None;
    let mut epsilon = None;
    let mut id = String::new();
    let mut timeout_ms = None;

    for tok in toks {
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| invalid(format!("token '{tok}' is not key=value")))?;
        match k {
            "kernel" => kernel = Some(v.to_string()),
            "net" => net = v,
            "side" => side = parse_num(k, v)?,
            "ops" => ops = parse_ops(v)?,
            "seed" => seed = parse_num(k, v)?,
            "mode" => mode_label = v,
            "iters" => iters = parse_num(k, v)?,
            "epoch_us" => epoch_us = parse_num(k, v)?,
            "replay" => replay = v == "1" || v == "true",
            "damping" => damping = Some(parse_num::<f64>(k, v)?),
            "epsilon" => epsilon = Some(parse_num::<f64>(k, v)?),
            "id" => id = v.to_string(),
            "timeout_ms" => timeout_ms = Some(parse_num(k, v)?),
            other => return Err(invalid(format!("unknown key '{other}'"))),
        }
    }
    // `net` borrows from `line`; resolve before moving on.
    let net = NetworkKind::from_label(net)?;
    let kernel = kernel.ok_or_else(|| invalid("run needs kernel=<label>".into()))?;
    let kernel = kernel_from_label(&kernel)?;

    let mode = match mode_label {
        "exec-driven" => Mode::ExecutionDriven,
        "classic-trace" => Mode::ClassicTrace,
        "oracle-trace" => Mode::OracleTrace,
        "sctm" => Mode::SelfCorrection { max_iters: iters },
        "online" => Mode::Online {
            epoch: SimTime::from_us(epoch_us),
        },
        other => return Err(invalid(format!("unknown mode '{other}'"))),
    };
    let mut spec = RunSpec::new(mode);
    spec.replay_only = replay;
    spec.damping = damping;
    spec.factor_epsilon = epsilon;
    // Reject before queueing, not after a scheduling round trip.
    spec.validate()?;

    let experiment = Experiment::new(SystemConfig::try_new(side, net)?, kernel)
        .with_ops(ops)
        .with_seed(seed);
    Ok(Request::Run(Box::new(RunRequest {
        id,
        experiment,
        spec,
        timeout_ms,
    })))
}

/// Stable machine-readable tag for each [`SctmError`] variant.
pub fn error_kind(err: &SctmError) -> &'static str {
    match err {
        SctmError::InvalidSpec(_) => "invalid-spec",
        SctmError::InvalidConfig(_) => "invalid-config",
        SctmError::UnknownKernel(_) => "unknown-kernel",
        SctmError::UnknownNetwork(_) => "unknown-network",
        SctmError::Trace(_) => "trace",
        SctmError::BudgetExhausted { .. } => "budget-exhausted",
        SctmError::Io(_) => "io",
    }
}

/// The deterministic payload of an `ok` response: the run manifest in
/// the `sctm-obs` schema, restricted to simulated quantities.
pub fn result_json(report: &RunReport, exp: &Experiment) -> String {
    let mut m = Manifest::new();
    m.config("mode", report.mode);
    m.config("network", report.network);
    m.config("workload", report.workload);
    m.config("cores", exp.system.side * exp.system.side);
    m.config("ops", exp.ops_per_core);
    m.config("seed", exp.seed);
    // The verdict is computed from simulated quantities whether or not
    // observability is recording, so this row never breaks the
    // byte-identity contract between instrumented and plain runs.
    if let Some(v) = report.verdict {
        m.config("convergence", v.label());
    }
    m.metrics
        .counter_add("run.exec_time_ps", report.exec_time.as_ps());
    m.metrics.counter_add("run.messages", report.messages);
    m.metrics
        .gauge_set("run.mean_lat_ctrl_ns", report.mean_lat_ctrl_ns);
    m.metrics
        .gauge_set("run.mean_lat_data_ns", report.mean_lat_data_ns);
    for it in report.iterations.as_deref().unwrap_or_default() {
        m.iterations.push(IterTelemetry {
            network: report.network,
            workload: report.workload,
            iteration: it.iteration as u32,
            est_ps: it.est_exec_time.as_ps(),
            drift_ps: it.drift.as_ps(),
            corrections: it.corrections as u64,
            messages: it.messages,
            // Host time is banned from the result object (see module
            // docs); zero keeps the manifest schema intact.
            wall_ns: 0,
        });
    }
    m.to_json_compact()
}

/// `"cache"` field values: how the scheduler satisfied the capture.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    Hit,
    Miss,
    /// Traceless modes (exec-driven, online) never touch the cache.
    Bypass,
}

impl CacheOutcome {
    pub fn label(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Bypass => "bypass",
        }
    }
}

/// Success line. The deterministic `result` object comes last so
/// clients (and tests) can split on `"result":` and compare the tail
/// byte-for-byte.
pub fn ok_response(id: &str, wall_ns: u128, cache: CacheOutcome, result: &str) -> String {
    format!(
        r#"{{"status":"ok","id":"{}","wall_ns":{},"cache":"{}","result":{}}}"#,
        json_escape(id),
        wall_ns,
        cache.label(),
        result
    )
}

pub fn error_response(id: &str, err: &SctmError) -> String {
    format!(
        r#"{{"status":"error","id":"{}","kind":"{}","message":"{}"}}"#,
        json_escape(id),
        error_kind(err),
        json_escape(&err.to_string())
    )
}

/// Backpressure line: the bounded queue is full; come back later.
pub fn busy_response(id: &str, retry_after_ms: u64) -> String {
    format!(
        r#"{{"status":"busy","id":"{}","retry_after_ms":{}}}"#,
        json_escape(id),
        retry_after_ms
    )
}

/// The request sat in the queue past its deadline and was dropped
/// without running.
pub fn timeout_response(id: &str, waited_ms: u128) -> String {
    format!(
        r#"{{"status":"timeout","id":"{}","waited_ms":{}}}"#,
        json_escape(id),
        waited_ms
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_req(line: &str) -> RunRequest {
        match parse_request(line).expect("parse") {
            Request::Run(r) => *r,
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_full_run_line() {
        let r = run_req(
            "run kernel=lu net=oxbar side=8 ops=900 seed=7 mode=sctm iters=3 \
             replay=1 damping=0.5 epsilon=0.05 id=r42 timeout_ms=2500",
        );
        assert_eq!(r.id, "r42");
        assert_eq!(r.experiment.system.side, 8);
        assert_eq!(r.experiment.system.network, NetworkKind::Oxbar);
        assert_eq!(r.experiment.ops_per_core, 900);
        assert_eq!(r.experiment.seed, 7);
        assert_eq!(r.spec.mode, Mode::SelfCorrection { max_iters: 3 });
        assert!(r.spec.replay_only);
        assert_eq!(r.spec.damping, Some(0.5));
        assert_eq!(r.spec.factor_epsilon, Some(0.05));
        assert_eq!(r.timeout_ms, Some(2500));
    }

    #[test]
    fn defaults_cover_everything_but_the_kernel() {
        let r = run_req("run kernel=fft");
        assert_eq!(r.experiment.system.side, 4);
        assert_eq!(r.experiment.system.network, NetworkKind::Omesh);
        assert_eq!(r.spec.mode, Mode::SelfCorrection { max_iters: 4 });
        assert!(r.timeout_ms.is_none());
    }

    #[test]
    fn control_verbs_parse() {
        assert!(matches!(parse_request("stats"), Ok(Request::Stats)));
        assert!(matches!(parse_request("metrics"), Ok(Request::Metrics)));
        assert!(matches!(parse_request(" ping "), Ok(Request::Ping)));
        assert!(matches!(parse_request("shutdown"), Ok(Request::Shutdown)));
    }

    #[test]
    fn control_verbs_reject_stray_arguments() {
        for line in ["stats now", "metrics all", "ping x=1", "shutdown -f"] {
            let err = parse_request(line).unwrap_err();
            assert!(matches!(err, SctmError::InvalidSpec(_)), "{line}: {err}");
            assert!(err.to_string().contains("takes no arguments"), "{err}");
        }
    }

    #[test]
    fn every_error_variant_is_reachable_from_a_request_line() {
        // invalid-spec: bad verb, bad token, bad number, bad mode knobs.
        for line in [
            "",
            "frobnicate",
            "run kernel=fft side",
            "run kernel=fft ops=many",
            "run kernel=fft mode=psychic",
            "run kernel=fft mode=sctm iters=0",
            "run kernel=fft mode=online epoch_us=0",
            "run kernel=fft damping=1.5",
            "run kernel=fft replay=1 profile=1",
            "run magic=on kernel=fft",
            "run",
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(matches!(err, SctmError::InvalidSpec(_)), "{line}: {err}");
            assert_eq!(error_kind(&err), "invalid-spec");
        }
        // unknown-kernel and unknown-network are their own variants.
        let err = parse_request("run kernel=doom").unwrap_err();
        assert!(matches!(err, SctmError::UnknownKernel(_)), "{err}");
        assert_eq!(error_kind(&err), "unknown-kernel");
        let err = parse_request("run kernel=fft net=warp").unwrap_err();
        assert!(matches!(err, SctmError::UnknownNetwork(_)), "{err}");
        assert_eq!(error_kind(&err), "unknown-network");
        // invalid-config: the side envelope is enforced at parse time.
        let err = parse_request("run kernel=fft side=0").unwrap_err();
        assert!(matches!(err, SctmError::InvalidConfig(_)), "{err}");
        assert_eq!(error_kind(&err), "invalid-config");
    }

    #[test]
    fn result_json_is_deterministic_and_excludes_wall_time() {
        let r = run_req("run kernel=fft side=2 ops=150 mode=classic-trace");
        let a = r.experiment.execute(&r.spec).unwrap().report;
        let b = r.experiment.execute(&r.spec).unwrap().report;
        let ja = result_json(&a, &r.experiment);
        assert_eq!(ja, result_json(&b, &r.experiment));
        assert!(!ja.contains("wall_ms"));
        assert!(ja.contains(r#""run.exec_time_ps""#));
        assert!(ja.contains(r#""workload": "fft""#));
    }

    #[test]
    fn response_lines_are_single_line_and_escaped() {
        let err = SctmError::InvalidSpec("no \"such\" thing\n".into());
        for line in [
            ok_response("a\"b", 123, CacheOutcome::Hit, "{}"),
            error_response("a\"b", &err),
            busy_response("x", 50),
            timeout_response("y", 1000),
        ] {
            assert!(!line.contains('\n'), "{line}");
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(
            ok_response("i", 1, CacheOutcome::Miss, r#"{"x":1}"#).ends_with(r#""result":{"x":1}}"#)
        );
    }
}
