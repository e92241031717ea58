//! The two service workloads: requests through `sctm-client` into an
//! in-process `sctmd` (`Server::start` + `serve_tcp` on 127.0.0.1:0).
//!
//! Both are closed loops: a connection sends its next request (or
//! batch) only after the previous one is answered. Load comes from this
//! one process, with at most `nproc` connections.

use crate::calib::{OpClock, Samples};
use crate::json::Json;
use crate::layers::{self, median_ns};
use crate::report::Report;
use crate::span::Recorder;
use crate::stats::{median, percentile, tail_percentile};
use crate::{nproc, Args};
use sctm_client::{parse_response, Client, Response};
use sctm_core::{accuracy, Experiment, NetworkKind, RunReport, RunSpec, SystemConfig};
use sctm_srv::{
    parse_request, result_json, serve_tcp, CaptureCache, CaptureKey, Server, ServerConfig,
};
use sctm_trace::replay::replay_sctm_pass;
use sctm_trace::TraceLog;
use sctm_workloads::Kernel;
use std::net::TcpListener;
use std::thread::JoinHandle;
use std::time::Instant;

const SIDE: usize = 4;
const OPS: usize = 600;
const ITERS: usize = 4;

// ---------------------------------------------------------------- requests

pub const WARM_NETS: [NetworkKind; 4] = [
    NetworkKind::Omesh,
    NetworkKind::Oxbar,
    NetworkKind::Hybrid,
    NetworkKind::Obus,
];
pub const WARM_DAMPINGS: [f64; 5] = [0.5, 0.6, 0.7, 0.8, 0.9];
pub const COLD_KERNELS: [Kernel; 4] = [Kernel::Fft, Kernel::Lu, Kernel::Canneal, Kernel::Barnes];

/// One request of the warm mix and what it asks for.
#[derive(Clone, Debug, PartialEq)]
pub struct WarmSpec {
    pub net: NetworkKind,
    pub damping: f64,
    pub line: String,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The warm workload's request mix: every network × damping over one
/// capture (fft, seed `seed`), in an order shuffled by `seed`. A pure
/// function of `seed`.
pub fn warm_specs(seed: u64) -> Vec<WarmSpec> {
    let mut specs: Vec<WarmSpec> = WARM_NETS
        .iter()
        .flat_map(|&net| WARM_DAMPINGS.iter().map(move |&damping| (net, damping)))
        .enumerate()
        .map(|(i, (net, damping))| WarmSpec {
            net,
            damping,
            line: format!(
                "run kernel=fft net={} side={SIDE} ops={OPS} seed={seed} mode=sctm iters={ITERS} damping={damping} replay=1 id=w{i}",
                net.label()
            ),
        })
        .collect();
    let mut state = seed;
    for i in (1..specs.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        specs.swap(i, j);
    }
    specs
}

/// Capture seed of the cold workload's `i`-th request: unique per
/// request, so no two share a cache entry, and disjoint between
/// `--seed` values.
pub fn cold_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(10_000_000).wrapping_add(i)
}

pub fn cold_kernel(i: u64) -> Kernel {
    COLD_KERNELS[(i % COLD_KERNELS.len() as u64) as usize]
}

/// The cold workload's `i`-th request line. A pure function of
/// (`seed`, `i`).
pub fn cold_line(seed: u64, i: u64) -> String {
    format!(
        "run kernel={} net=omesh side={SIDE} ops={OPS} seed={} mode=sctm iters={ITERS} replay=1 id=c{i}",
        cold_kernel(i).label(),
        cold_seed(seed, i)
    )
}

fn replay_spec() -> RunSpec {
    RunSpec::self_correction(ITERS).replay_only()
}

fn experiment(kernel: Kernel, net: NetworkKind, seed: u64) -> Experiment {
    Experiment::new(SystemConfig::new(SIDE, net), kernel)
        .with_ops(OPS)
        .with_seed(seed)
        .with_capture_threads(1)
}

// ------------------------------------------------------------------ daemon

struct Daemon {
    addr: String,
    thread: JoinHandle<std::io::Result<()>>,
}

fn boot(cache_bytes: usize) -> Result<Daemon, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let server = Server::start(ServerConfig {
        cache_bytes,
        workers: nproc().min(2),
        ..ServerConfig::default()
    });
    let thread = std::thread::spawn(move || serve_tcp(listener, server));
    Ok(Daemon { addr, thread })
}

/// Ask the daemon to drain, close every pooled connection (its
/// connection threads end on EOF), and wait for it.
fn stop(daemon: Daemon, client: Client) -> Result<(), String> {
    client.shutdown().map_err(|e| e.to_string())?;
    drop(client);
    daemon
        .thread
        .join()
        .map_err(|_| "daemon thread panicked".to_string())?
        .map_err(|e| e.to_string())
}

/// The tail of an `ok` line after `"result":`, without the closing
/// brace of the envelope — the bytes `result_json` produced.
fn result_tail(line: &str) -> Option<&str> {
    let (_, tail) = line.split_once("\"result\":")?;
    tail.strip_suffix('}')
}

struct CacheCounters {
    hits: f64,
    misses: f64,
    evictions: f64,
    bytes: f64,
    rejected: f64,
}

fn cache_counters(client: &Client) -> Result<CacheCounters, String> {
    let line = client.stats().map_err(|e| e.to_string())?;
    let v = Json::parse(&line)?;
    let get = |k: &str| {
        v.find_number(k)
            .ok_or_else(|| format!("stats response has no {k}"))
    };
    Ok(CacheCounters {
        hits: get("srv.cache.hits")?,
        misses: get("srv.cache.misses")?,
        evictions: get("srv.cache.evictions")?,
        bytes: get("srv.cache.bytes")?,
        rejected: get("srv.rejected")?,
    })
}

fn err_pct(estimate: &RunReport, reference: &RunReport) -> f64 {
    accuracy(estimate, reference).exec_time_err_pct
}

/// What both service workloads put in a traced report: the runner's
/// own figures, the daemon's cache counters, and the layers timed
/// directly on `fx.capture` and on one request's wire forms.
fn traced_report(
    report: &mut Report,
    fx: &Fixture,
    plain: &Samples,
    spanned: &Samples,
    counters: &CacheCounters,
    line: &str,
    response: &str,
) {
    report.set_median("bench.raw_op_ms_p50", &plain.raw_ms);
    report.set_median("bench.calib_ms_p50", &plain.calib_ms);
    report.set(
        "bench.trace_overhead_frac",
        median(&spanned.cal_x) / median(&plain.cal_x) - 1.0,
    );
    report.set("bench.ops", (plain.len() + spanned.len()) as f64);
    report.set("srv.cache_hits", counters.hits);
    report.set("srv.cache_misses", counters.misses);
    report.set("srv.cache_evictions", counters.evictions);
    report.set("srv.cache_bytes", counters.bytes);
    report.set("client.retries", counters.rejected);

    let (exp, log) = (&fx.exp, &fx.capture);
    let msgs = log.len().max(1) as f64;
    let capture_ms = median_ns(5, || exp.capture()) / 1e6;
    report.set("cmp.capture_ms", capture_ms);
    report.set("cmp.capture_msgs", log.len() as f64);
    report.set("cmp.capture_ns_per_msg", capture_ms * 1e6 / msgs);
    report.set(
        "workloads.build_ms",
        layers::workloads_build_ms(exp.kernel, SIDE * SIDE, OPS, exp.seed),
    );
    let kind = exp.system.network;
    let pass_ms = median_ns(5, || {
        let mut net = SystemConfig::make_network_kind(SIDE, kind);
        replay_sctm_pass(log, net.as_mut())
    }) / 1e6;
    report.set("trace.replay_pass_ms", pass_ms);
    report.set("trace.replay_ns_per_msg", pass_ms * 1e6 / msgs);
    report.set("onoc.build_ms", layers::net_build_ms(SIDE, kind));
    report.set(
        "enoc.build_ms",
        layers::net_build_ms(SIDE, NetworkKind::Emesh),
    );
    report.set("engine.evq_ns_per_op", layers::evq_ns_per_op());
    layers::sctf_layers(log, report);

    report.set(
        "srv.parse_request_ns",
        median_ns(2001, || parse_request(line)),
    );
    report.set(
        "srv.render_us",
        median_ns(501, || result_json(&fx.sample, exp)) / 1e3,
    );
    report.set(
        "client.parse_response_ns",
        median_ns(2001, || parse_response(response)),
    );

    // Cache read path: probe + sctf thaw of a resident entry.
    let cache = CaptureCache::new(64 << 20);
    let key = CaptureKey::new(exp.kernel.label(), SIDE, OPS, exp.seed);
    cache.get_or_capture(key, || log.clone());
    report.set(
        "srv.cache_hit_ms",
        median_ns(21, || cache.try_get(key).expect("entry is resident")) / 1e6,
    );
    // Cache write path: sctf freeze + LRU eviction, with the capture
    // already in hand. The budget holds one entry, so every insert
    // after the first evicts. The clone is what the producer closure
    // hands over; it is timed apart and taken off.
    let small = CaptureCache::new(1);
    let clone_ns = median_ns(21, || log.clone());
    let mut next = 0u64;
    let insert_ns = median_ns(21, || {
        next += 1;
        small.get_or_capture(CaptureKey(next), || log.clone())
    });
    report.set("srv.cache_insert_ms", (insert_ns - clone_ns).max(0.0) / 1e6);
}

/// A booted daemon, a connected client, and what the measured requests
/// are checked against.
struct Fixture {
    daemon: Daemon,
    client: Client,
    /// `result_json` of a direct run of the leading requests, in
    /// request order.
    expected: Vec<String>,
    /// Mean error of those direct runs against execution-driven ones.
    err_pct: f64,
    /// One request's experiment, capture and report, for the layer
    /// timers.
    exp: Experiment,
    capture: TraceLog,
    sample: RunReport,
    /// Requests sent during set-up (prime, warm-ups).
    sent: u64,
}

/// Set the workload up [`SETUP_REPS`] times, each on a fresh daemon, and
/// report what set-up fixes: its time and the accuracy of the answers.
fn set_up(
    report: &mut Report,
    clock: &mut OpClock,
    make: impl Fn() -> Result<Fixture, String>,
) -> Result<Fixture, String> {
    let fx = crate::set_up_repeatedly(report, clock, make, |old| stop(old.daemon, old.client))?;
    report.set("accuracy_pct", 100.0 - fx.err_pct);
    report.set("core.exec_err_pct", fx.err_pct);
    Ok(fx)
}

/// Report the window (`--trace 0`: the op metrics; `--trace 1`: the
/// ledger and the Chrome trace) and stop the daemon.
#[allow(clippy::too_many_arguments)]
fn finish(
    report: &mut Report,
    args: &Args,
    fx: Fixture,
    plain: &Samples,
    spanned: &Samples,
    counters: &CacheCounters,
    line: &str,
    response: &str,
    recorders: &[&Recorder],
) -> Result<(), String> {
    if args.trace {
        traced_report(report, &fx, plain, spanned, counters, line, response);
        crate::write_chrome_trace(&args.workload, recorders)?;
    } else {
        crate::report_ops(report, plain);
    }
    stop(fx.daemon, fx.client)
}

// -------------------------------------------------------------------- warm

fn warm_set_up(seed: u64) -> Result<Fixture, String> {
    let daemon = boot(ServerConfig::default().cache_bytes)?;
    let client = Client::connect(&daemon.addr).map_err(|e| e.to_string())?;
    let specs = warm_specs(seed);

    let exp = experiment(Kernel::Fft, NetworkKind::Omesh, seed);
    let capture = exp.capture();
    let references: Vec<RunReport> = WARM_NETS
        .iter()
        .map(|&net| {
            experiment(Kernel::Fft, net, seed)
                .execute(&RunSpec::exec_driven())
                .map(|o| o.report)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let mut expected = Vec::new();
    let mut errs = Vec::new();
    let mut sample = None;
    for s in &specs {
        let e = experiment(Kernel::Fft, s.net, seed);
        let r = e
            .execute_seeded(&replay_spec().with_damping(s.damping), Some(&capture))
            .map_err(|e| e.to_string())?
            .report;
        let net_idx = WARM_NETS
            .iter()
            .position(|&n| n == s.net)
            .expect("net of the mix");
        errs.push(err_pct(&r, &references[net_idx]));
        expected.push(result_json(&r, &e));
        sample.get_or_insert(r);
    }

    // Prime the one capture (the only miss), then two warm-up hits —
    // always the same three requests, whatever order the seed put the
    // mix in, so that set-up costs the same for every seed.
    let mut sent = 0;
    for id in ["id=w0", "id=w1", "id=w2"] {
        let spec = specs
            .iter()
            .find(|s| s.line.ends_with(id))
            .expect("the mix has at least three requests");
        let line = client.call(&spec.line).map_err(|e| e.to_string())?;
        let want = if sent == 0 { "miss" } else { "hit" };
        if !line.contains(&format!("\"cache\":\"{want}\"")) {
            return Err(format!(
                "set-up request {id} was not a cache {want}: {line}"
            ));
        }
        sent += 1;
    }
    Ok(Fixture {
        daemon,
        client,
        expected,
        err_pct: errs.iter().sum::<f64>() / errs.len() as f64,
        exp,
        capture,
        sample: sample.expect("the mix is not empty"),
        sent,
    })
}

pub fn run_warm(args: &Args) -> Result<Report, String> {
    let specs = warm_specs(args.seed);
    let mut report = Report::new(specs.len() as u64);
    let mut clock = OpClock::new();
    let fx = set_up(&mut report, &mut clock, || warm_set_up(args.seed))?;

    let (mut plain, mut spanned) = (Samples::default(), Samples::default());
    let mut rec = Recorder::new(Instant::now(), 1);
    let mut server_wall_ms = Vec::new();
    let mut last_response = String::new();
    let t0 = Instant::now();
    let mut i = 0usize;
    while t0.elapsed().as_secs_f64() < args.seconds || i < 4 {
        let k = i % specs.len();
        let line = &specs[k].line;
        // Traced runs put every other request under a span; the rest
        // stay bare, which is what prices the span.
        let got = if args.trace && i.is_multiple_of(2) {
            clock.time(&mut spanned, || {
                rec.leaf("client.call", i as u32, || fx.client.call(line))
            })
        } else {
            clock.time(&mut plain, || fx.client.call(line))
        };
        i += 1;
        report.attempted += 1;
        match got {
            Ok(resp) => {
                if result_tail(&resp) != Some(fx.expected[k].as_str()) {
                    report.fail(format!("response differs from a direct run: {resp}"));
                } else if !resp.contains("\"cache\":\"hit\"") {
                    report.fail(format!("measured request was not a cache hit: {resp}"));
                } else {
                    report.digest(fx.expected[k].as_bytes());
                }
                if let Some(ns) = sctm_client::wire::json_u64_field(&resp, "wall_ns") {
                    server_wall_ms.push(ns as f64 / 1e6);
                }
                last_response = resp;
            }
            Err(e) => report.fail(e.to_string()),
        }
    }

    let counters = cache_counters(&fx.client)?;
    let want_hits = fx.sent - 1 + i as u64;
    if counters.misses != 1.0 || counters.hits != want_hits as f64 {
        report.errors.push(format!(
            "warm cache counters off: {} misses (want 1), {} hits (want {want_hits})",
            counters.misses, counters.hits
        ));
    }
    if args.trace {
        let rtt: Vec<f64> = rec.spans.iter().map(|s| s.dur_ns() as f64 / 1e6).collect();
        report.set_median("client.rtt_ms_p50", &rtt);
        let tail = tail_percentile(rtt.len()).unwrap_or(50.0);
        report.set("client.rtt_ms_tail", percentile(&rtt, tail));
        report.set("client.rtt_tail_pct", tail);
        report.set_median("srv.wall_ms_p50", &server_wall_ms);
        report.set(
            "client.wire_overhead_ms",
            median(&rtt) - median(&server_wall_ms),
        );
    }
    finish(
        &mut report,
        args,
        fx,
        &plain,
        &spanned,
        &counters,
        &specs[0].line,
        &last_response,
        &[&rec],
    )?;
    Ok(report)
}

// -------------------------------------------------------------------- cold

const CONNECTIONS: u64 = 2;
const BATCHES_PER_WAVE: u64 = 2;
const BATCH: u64 = 25;
const WAVE: u64 = CONNECTIONS * BATCHES_PER_WAVE * BATCH;
/// Requests whose result is checked byte for byte against a direct run
/// computed during set-up (the first of the measured sequence).
const VERIFIED: u64 = 48;
const COLD_CACHE_BYTES: usize = 4 << 20;
/// Warm-up requests draw their capture seeds from far outside the
/// measured sequence.
const WARMUP_BASE: u64 = 9_000_000;
const WARMUP_PER_CONN: u64 = 4;

/// One recorder per connection, on one time axis.
fn recorders(epoch: Instant) -> Vec<Recorder> {
    (0..CONNECTIONS)
        .map(|c| Recorder::new(epoch, c as u32 + 1))
        .collect()
}

/// One wave: every connection sends its batches (`lines[connection]
/// [batch]`), each batch one `Client::pipeline`, the next only after
/// the last is answered. Each thread checks out its own pooled
/// connection. `span_op` puts every batch under a span of that op.
fn send_wave(
    client: &Client,
    lines: &[Vec<Vec<String>>],
    recorders: &mut [Recorder],
    span_op: Option<u32>,
) -> Vec<Result<Vec<Vec<Response>>, String>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = lines
            .iter()
            .zip(recorders.iter_mut())
            .map(|(batches, rec)| {
                s.spawn(move || {
                    batches
                        .iter()
                        .map(|batch| {
                            let send = || client.pipeline(batch).map_err(|e| e.to_string());
                            match span_op {
                                Some(op) => rec.leaf("client.pipeline", op, send),
                                None => send(),
                            }
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    })
}

fn cold_set_up(seed: u64) -> Result<Fixture, String> {
    let daemon = boot(COLD_CACHE_BYTES)?;
    let client = Client::connect(&daemon.addr).map_err(|e| e.to_string())?;
    let mut expected = Vec::new();
    let mut errs = Vec::new();
    for i in 0..VERIFIED {
        let e = experiment(cold_kernel(i), NetworkKind::Omesh, cold_seed(seed, i));
        let r = e.execute(&replay_spec()).map_err(|e| e.to_string())?.report;
        let reference = e
            .execute(&RunSpec::exec_driven())
            .map_err(|e| e.to_string())?
            .report;
        errs.push(err_pct(&r, &reference));
        expected.push(result_json(&r, &e));
    }
    let exp = experiment(cold_kernel(0), NetworkKind::Omesh, cold_seed(seed, 0));
    let capture = exp.capture();
    let sample = exp
        .execute_seeded(&replay_spec(), Some(&capture))
        .map_err(|e| e.to_string())?
        .report;

    // Warm-up wave: dials the second connection, starts the workers.
    let warm: Vec<Vec<Vec<String>>> = (0..CONNECTIONS)
        .map(|c| {
            vec![(0..WARMUP_PER_CONN)
                .map(|k| cold_line(seed, WARMUP_BASE + c * WARMUP_PER_CONN + k))
                .collect()]
        })
        .collect();
    for conn in send_wave(&client, &warm, &mut recorders(Instant::now()), None) {
        for r in conn?.iter().flatten() {
            if !matches!(r, Response::Ok { line } if line.contains("\"cache\":\"miss\"")) {
                return Err(format!("warm-up request was not a cache miss: {r:?}"));
            }
        }
    }
    Ok(Fixture {
        daemon,
        client,
        expected,
        err_pct: errs.iter().sum::<f64>() / errs.len() as f64,
        exp,
        capture,
        sample,
        sent: CONNECTIONS * WARMUP_PER_CONN,
    })
}

/// Request index of slot `k` of batch `b` on connection `c` in wave `w`.
fn cold_index(w: u64, c: u64, b: u64, k: u64) -> u64 {
    w * WAVE + c * BATCHES_PER_WAVE * BATCH + b * BATCH + k
}

pub fn run_cold(args: &Args) -> Result<Report, String> {
    let mut report = Report::new(WAVE);
    let mut clock = OpClock::new();
    let fx = set_up(&mut report, &mut clock, || cold_set_up(args.seed))?;

    let (mut plain, mut spanned) = (Samples::default(), Samples::default());
    let mut recorders = recorders(Instant::now());
    let mut sim_msgs = 0.0f64;
    let mut last_response = String::new();
    let t0 = Instant::now();
    let mut w = 0u64;
    while t0.elapsed().as_secs_f64() < args.seconds || w < 3 {
        // Traced runs put every other wave's batches under spans.
        let span_op = (args.trace && w.is_multiple_of(2)).then_some(w as u32);
        let lines: Vec<Vec<Vec<String>>> = (0..CONNECTIONS)
            .map(|c| {
                (0..BATCHES_PER_WAVE)
                    .map(|b| {
                        (0..BATCH)
                            .map(|k| cold_line(args.seed, cold_index(w, c, b, k)))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let samples = if span_op.is_some() {
            &mut spanned
        } else {
            &mut plain
        };
        let answers = clock.time(samples, || {
            send_wave(&fx.client, &lines, &mut recorders, span_op)
        });
        for (c, conn) in answers.into_iter().enumerate() {
            let conn = match conn {
                Ok(v) => v,
                Err(e) => {
                    report.attempted += BATCHES_PER_WAVE * BATCH;
                    report.fail(e);
                    continue;
                }
            };
            for (b, batch) in conn.into_iter().enumerate() {
                for (k, resp) in batch.into_iter().enumerate() {
                    report.attempted += 1;
                    let i = cold_index(w, c as u64, b as u64, k as u64);
                    let Response::Ok { line } = resp else {
                        report.fail(format!("request c{i} was not answered ok: {resp:?}"));
                        continue;
                    };
                    let Some(tail) = result_tail(&line) else {
                        report.fail(format!("request c{i} has no result: {line}"));
                        continue;
                    };
                    if !line.contains("\"cache\":\"miss\"") {
                        report.fail(format!("request c{i} was not a cache miss: {line}"));
                    } else if fx.expected.get(i as usize).is_some_and(|want| want != tail) {
                        report.fail(format!("request c{i} differs from a direct run: {line}"));
                    } else {
                        report.digest(tail.as_bytes());
                        if args.trace {
                            sim_msgs += Json::parse(tail)
                                .ok()
                                .and_then(|v| v.find_number("run.messages"))
                                .unwrap_or(0.0);
                        }
                    }
                    last_response = line;
                }
            }
        }
        w += 1;
    }

    let counters = cache_counters(&fx.client)?;
    let want_misses = fx.sent + w * WAVE;
    if counters.hits != 0.0 || counters.misses != want_misses as f64 {
        report.errors.push(format!(
            "cold cache counters off: {} hits (want 0), {} misses (want {want_misses})",
            counters.hits, counters.misses
        ));
    }
    if args.trace {
        let batch_ms: Vec<f64> = recorders
            .iter()
            .flat_map(|r| r.spans.iter().map(|s| s.dur_ns() as f64 / 1e6))
            .collect();
        report.set_median("client.batch_ms_p50", &batch_ms);
        // Calibration runs sit between waves; the rate is over the
        // waves' own wall.
        let busy_s = plain.raw_ms.iter().chain(&spanned.raw_ms).sum::<f64>() / 1e3;
        report.set("bench.sim_msgs_per_s", sim_msgs / busy_s);
    }
    let refs: Vec<&Recorder> = recorders.iter().collect();
    finish(
        &mut report,
        args,
        fx,
        &plain,
        &spanned,
        &counters,
        &cold_line(args.seed, 0),
        &last_response,
        &refs,
    )?;
    Ok(report)
}
