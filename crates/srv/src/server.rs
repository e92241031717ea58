//! The request workers and their front-ends.
//!
//! A fixed pool of `SCTM_THREADS` workers pops whole requests off one
//! bounded FIFO queue; each worker takes its request from deadline check
//! through cache lookup, capture (on a miss), replay and rendering to
//! the reply (`run_job`). A request's steps are strictly sequential, so
//! the parallelism is across requests: with N workers, N requests are in
//! flight, and a sweep saturates every worker. (The stage-per-task
//! work-stealing pool this replaces is DESIGN.md §13.1's post-mortem.)
//!
//! Determinism does not depend on the schedule: each request's result
//! manifest is computed from simulated quantities only, and the
//! [`CaptureCache`] single-flight pending slots are the only
//! cross-request synchronization — whichever request performs a capture
//! produces the same bytes. Scheduling changes *when* work runs, never
//! *what* it computes; `tests/srv_sched.rs` pins every `"result"` to
//! the bytes a direct `Experiment::execute` renders, at any worker
//! count.
//!
//! Backpressure is explicit: `submit` on a full queue fails immediately
//! with a `busy` response carrying `retry_after_ms`, never blocks the
//! caller, and never grows the queue past its cap. Shutdown is a
//! graceful drain — everything already queued still runs and answers.
//! A panic inside the simulator costs its own request an `internal`
//! error reply; the worker that caught it takes the next request.
//!
//! # Telemetry (DESIGN.md §12)
//!
//! Every request is decomposed into lifecycle phases — accepted →
//! queued → cache-probe → capture/replay → respond — timed on the host
//! clock and recorded into one [`MetricsRegistry`] behind one mutex,
//! taken once per event (a finished request records everything in one
//! critical section). The registry is always on: a copy of it feeds the
//! `stats` verb (versioned JSON snapshot) and the `metrics` verb
//! (Prometheus text exposition 0.0.4, also served to `GET /metrics`
//! over the same TCP port); the optional JSONL request log sits beside
//! it. None of it can reach a simulation: response `"result"` bytes are
//! produced before any telemetry is recorded for the request, and the
//! byte-identity suite hammers `stats` concurrently to prove it.

use crate::cache::{CaptureCache, CaptureKey};
use crate::proto::{
    self, error_kind, error_response, ok_response, parse_request, result_json, timeout_response,
    CacheOutcome, Request, RunRequest,
};
use sctm_core::Mode;
use sctm_engine::stats::Histogram;
use sctm_obs::reqlog::RequestLog;
use sctm_obs::svc::SVC_STATS_VERSION;
use sctm_obs::{
    json_line, json_str, span, ConvergenceVerdict, Manifest, MetricValue, MetricsRegistry,
};
use std::collections::VecDeque;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// Service knobs. All bounds are hard: the queue never exceeds
/// `queue_cap` and the cache evicts past `cache_bytes`.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Bounded request queue length; submissions beyond it get `busy`.
    pub queue_cap: usize,
    /// Capture cache byte budget, in resident bytes: each entry is
    /// charged its parsed log plus its gate plan. `0` keeps only the
    /// entry just inserted (single-flight still holds).
    pub cache_bytes: usize,
    /// Queue deadline for requests that do not carry `timeout_ms`.
    pub default_timeout_ms: u64,
    /// Worker count; `0` resolves to `SCTM_THREADS` if that holds a
    /// positive integer, else every available core — a *daemon* exists
    /// to saturate the host, so pinning to 1 is the explicit act.
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_cap: 64,
            cache_bytes: 256 << 20,
            default_timeout_ms: 300_000,
            workers: 0,
        }
    }
}

/// Retry hint attached to `busy` responses.
const RETRY_AFTER_MS: u64 = 50;

/// One finished request as its submitter receives it.
#[derive(Debug)]
pub struct Reply {
    /// The response line (no trailing newline).
    pub line: String,
    /// When the worker handed the line over. Whoever delivers it
    /// records `srv.lat.respond_us` as the time from here to delivery.
    pub done: Instant,
}

impl Reply {
    fn now(line: String) -> Reply {
        Reply {
            line,
            done: Instant::now(),
        }
    }

    /// What a submitter gets when its request was dropped without an
    /// answer (the simulator panicked mid-request).
    fn dropped() -> Reply {
        Reply::now(
            r#"{"status":"error","kind":"internal","message":"scheduler dropped the request"}"#
                .into(),
        )
    }
}

struct Job {
    req: RunRequest,
    /// Monotone per-daemon request number; pairs log lines with spans.
    seq: u64,
    enqueued: Instant,
    /// `None` never times out (deadline arithmetic overflowed).
    deadline: Option<Instant>,
    reply: mpsc::Sender<Reply>,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    draining: bool,
}

struct Shared {
    cfg: ServerConfig,
    cache: CaptureCache,
    queue: Mutex<QueueState>,
    /// Signalled once per queued job, and to all when a drain begins.
    work: Condvar,
    /// The live telemetry: every `srv.*` name the server records
    /// (DESIGN.md §12.4). `submit` may take this lock inside `queue`;
    /// nothing takes `queue` while holding it.
    metrics: Mutex<MetricsRegistry>,
    log: Option<Arc<RequestLog>>,
    next_seq: AtomicU64,
}

/// Every name the server records into, at zero, so the `stats` schema
/// never depends on which events have happened. The names `stats`
/// derives at call time (cache entries and bytes, queue depth, workers)
/// are added by [`Server::stats_manifest`].
fn seeded_registry() -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    for name in [
        "srv.accepted",
        "srv.completed",
        "srv.rejected",
        "srv.timeouts",
        "srv.errors",
        "srv.budget_exhausted",
        "srv.cache.hits",
        "srv.cache.misses",
        "srv.cache.evictions",
        "srv.cache.single_flight_waits",
        "srv.cache.bypass",
        "srv.stats_served",
        "srv.metrics_served",
    ] {
        m.counter_add(name, 0);
    }
    for v in ConvergenceVerdict::ALL {
        m.counter_add(format!("srv.conv.runs.{}", v.label()), 0);
    }
    m.gauge_set("srv.in_flight", 0.0);
    m.gauge_set("srv.queue.peak", 0.0);
    for name in [
        "srv.lat.queue_us",
        "srv.lat.cache_probe_us",
        "srv.lat.execute_us",
        "srv.lat.respond_us",
        "srv.lat.total_us",
        "srv.conv.iterations",
    ] {
        m.hist_merge(name, &Histogram::new());
    }
    m
}

fn gauge(m: &MetricsRegistry, name: &str) -> f64 {
    match m.get(name) {
        Some(MetricValue::Gauge(v)) => *v,
        _ => 0.0,
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn us(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

fn now_ms() -> u128 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0)
}

impl Shared {
    /// Update the live telemetry in one critical section.
    fn record(&self, f: impl FnOnce(&mut MetricsRegistry)) {
        f(&mut lock(&self.metrics));
    }

    /// Emit one structured JSONL request-log line (no-op when the
    /// daemon runs without a log). `fields` follow the fixed prefix
    /// `ts_ms`, `seq`.
    fn log_event(&self, seq: u64, fields: &[(&str, String)]) {
        let Some(log) = &self.log else { return };
        let mut all: Vec<(&str, String)> = Vec::with_capacity(fields.len() + 2);
        all.push(("ts_ms", now_ms().to_string()));
        all.push(("seq", seq.to_string()));
        all.extend(fields.iter().map(|(k, v)| (*k, v.clone())));
        log.log(&json_line(&all));
    }
}

/// A running batch-simulation service. Dropping it drains gracefully.
pub struct Server {
    shared: Arc<Shared>,
    /// The request workers; emptied (joined) by the first drain.
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Server {
    pub fn start(cfg: ServerConfig) -> Server {
        Server::start_logged(cfg, None)
    }

    /// As [`Server::start`], with an optional structured request log
    /// (one JSONL line per request; see DESIGN.md §12).
    pub fn start_logged(cfg: ServerConfig, log: Option<Arc<RequestLog>>) -> Server {
        let shared = Arc::new(Shared {
            cache: CaptureCache::new(cfg.cache_bytes),
            cfg,
            queue: Mutex::new(QueueState::default()),
            work: Condvar::new(),
            metrics: Mutex::new(seeded_registry()),
            log,
            next_seq: AtomicU64::new(1),
        });
        let workers = (0..service_threads(cfg.workers))
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sctmd-worker-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn request worker")
            })
            .collect();
        Server {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Enqueue a run. Returns the response channel, or the ready-made
    /// `busy`/`error` line when the queue is full or draining. Never
    /// blocks.
    pub fn submit(&self, req: RunRequest) -> Result<mpsc::Receiver<Reply>, String> {
        let cfg = self.shared.cfg;
        let now = Instant::now();
        let seq = self.shared.next_seq.fetch_add(1, Ordering::Relaxed);
        let timeout = req.timeout_ms.unwrap_or(cfg.default_timeout_ms);
        let deadline = now.checked_add(Duration::from_millis(timeout));
        let mut q = lock(&self.shared.queue);
        if q.draining {
            drop(q);
            let err = sctm_core::SctmError::InvalidSpec("server is shutting down".into());
            self.shared.record(|m| m.counter_add("srv.rejected", 1));
            self.shared.log_event(
                seq,
                &[
                    ("id", json_str(&req.id)),
                    ("verb", json_str("run")),
                    ("outcome", json_str("draining")),
                ],
            );
            return Err(error_response(&req.id, &err));
        }
        if q.jobs.len() >= cfg.queue_cap {
            drop(q);
            self.shared.record(|m| m.counter_add("srv.rejected", 1));
            self.shared.log_event(
                seq,
                &[
                    ("id", json_str(&req.id)),
                    ("verb", json_str("run")),
                    ("outcome", json_str("busy")),
                ],
            );
            return Err(proto::busy_response(&req.id, RETRY_AFTER_MS));
        }
        let (tx, rx) = mpsc::channel();
        q.jobs.push_back(Job {
            req,
            seq,
            enqueued: now,
            deadline,
            reply: tx,
        });
        // Counted before a worker can see the job, so `srv.completed`
        // never runs ahead of `srv.accepted`.
        let depth = q.jobs.len() as f64;
        self.shared.record(|m| {
            m.counter_add("srv.accepted", 1);
            m.gauge_set("srv.queue.peak", gauge(m, "srv.queue.peak").max(depth));
        });
        drop(q);
        self.shared.work.notify_one();
        Ok(rx)
    }

    /// Submit and wait for the response line.
    pub fn submit_blocking(&self, req: RunRequest) -> String {
        match self.submit(req) {
            Ok(rx) => {
                let reply = rx.recv().unwrap_or_else(|_| Reply::dropped());
                let respond_us = us(reply.done.elapsed());
                self.shared
                    .record(|m| m.hist_record("srv.lat.respond_us", respond_us));
                reply.line
            }
            Err(line) => line,
        }
    }

    pub fn queue_depth(&self) -> usize {
        lock(&self.shared.queue).jobs.len()
    }

    /// Service telemetry as a run manifest in the `sctm-obs` schema:
    /// the full `srv.*` namespace of DESIGN.md §12 (lifecycle counters,
    /// per-phase latency histograms, cache economics, queue state): a
    /// copy of the live registry plus the gauges derived at call time.
    pub fn stats_manifest(&self) -> Manifest {
        let mut m = Manifest::new();
        m.config("stats_version", SVC_STATS_VERSION);
        m.config("queue_cap", self.shared.cfg.queue_cap);
        m.config("cache_budget_bytes", self.shared.cfg.cache_bytes);
        // Copied before `queue_depth` takes the queue lock: the
        // registry lock is never held while the queue lock is taken.
        m.metrics = lock(&self.shared.metrics).clone();
        let (entries, bytes) = self.shared.cache.resident();
        m.metrics.gauge_set("srv.cache.entries", entries as f64);
        m.metrics.gauge_set("srv.cache.bytes", bytes as f64);
        m.metrics
            .gauge_set("srv.queue.depth", self.queue_depth() as f64);
        // Zero once drained.
        m.metrics
            .gauge_set("srv.sched.workers", lock(&self.workers).len() as f64);
        m
    }

    /// The whole service registry as Prometheus text exposition 0.0.4.
    pub fn prometheus_text(&self) -> String {
        sctm_obs::svc::prometheus_text(&self.stats_manifest().metrics)
    }

    /// Graceful drain: refuse new submissions, finish everything
    /// queued, then stop the workers. Idempotent. A worker only leaves
    /// with the queue empty, so the join is "every accepted request
    /// answered".
    pub fn drain(&self) {
        lock(&self.shared.queue).draining = true;
        self.shared.work.notify_all();
        let workers = std::mem::take(&mut *lock(&self.workers));
        for w in workers {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Answer a request whose queue deadline expired before it ran, with
/// full telemetry.
fn finish_timeout(shared: &Shared, job: Job, now: Instant) {
    let waited = now.duration_since(job.enqueued);
    shared.record(|m| {
        m.counter_add("srv.timeouts", 1);
        m.hist_record("srv.lat.queue_us", us(waited));
        m.hist_record("srv.lat.total_us", us(waited));
    });
    shared.log_event(
        job.seq,
        &[
            ("id", json_str(&job.req.id)),
            ("verb", json_str("run")),
            ("outcome", json_str("timeout")),
            ("queue_us", us(waited).to_string()),
            ("total_us", us(waited).to_string()),
        ],
    );
    let _ = job.reply.send(Reply::now(timeout_response(
        &job.req.id,
        waited.as_millis(),
    )));
}

/// Record one finished request into the registry and the request log,
/// and send its reply. Recording before the reply is the `stats`
/// read-your-writes contract.
fn finish_job(shared: &Shared, job: Job, queue_us: u64, done: JobDone) {
    let total_us = us(job.enqueued.elapsed());
    // Counters, convergence row and phase samples land in one critical
    // section before the reply: a client that polls `stats` after
    // receiving its answer sees all of its own samples (the channel
    // send/recv pair orders the unlock before the receiver's read).
    shared.record(|m| {
        m.counter_add("srv.completed", 1);
        if done.cache == CacheOutcome::Bypass {
            m.counter_add("srv.cache.bypass", 1);
        }
        if let Some(kind) = done.error_kind {
            m.counter_add("srv.errors", 1);
            if kind == "budget-exhausted" {
                m.counter_add("srv.budget_exhausted", 1);
            }
        }
        if let Some(v) = done.verdict {
            m.counter_add(format!("srv.conv.runs.{v}"), 1);
            m.hist_record("srv.conv.iterations", done.conv_iterations);
        }
        m.hist_record("srv.lat.queue_us", queue_us);
        m.hist_record("srv.lat.cache_probe_us", done.probe_us);
        m.hist_record("srv.lat.execute_us", done.execute_us);
        m.hist_record("srv.lat.total_us", total_us);
    });
    // The log line, like the samples, lands before the reply: a
    // client holding its answer can already find its line, and lines
    // of requests sent one after another stay in that order.
    if shared.log.is_some() {
        let mut fields: Vec<(&str, String)> = vec![
            ("id", json_str(&job.req.id)),
            ("verb", json_str("run")),
            (
                "outcome",
                json_str(if done.error_kind.is_some() {
                    "error"
                } else {
                    "ok"
                }),
            ),
            ("cache", json_str(done.cache.label())),
        ];
        if let Some(key) = &done.key_prefix {
            fields.push(("key", json_str(key)));
        }
        if let Some(kind) = done.error_kind {
            fields.push(("error_kind", json_str(kind)));
        }
        if let Some(v) = done.verdict {
            fields.push(("verdict", json_str(v)));
        }
        fields.push(("queue_us", queue_us.to_string()));
        fields.push(("probe_us", done.probe_us.to_string()));
        fields.push(("execute_us", done.execute_us.to_string()));
        fields.push(("total_us", total_us.to_string()));
        shared.log_event(job.seq, &fields);
    }
    // The respond phase starts here and ends where the line is
    // delivered, so whoever holds the receiver records it.
    let _ = job.reply.send(Reply::now(done.line));
}

/// What one executed request produced, response line plus the
/// telemetry its worker records into the registry and the request log.
struct JobDone {
    line: String,
    cache: CacheOutcome,
    /// First 8 hex digits of the [`CaptureKey`] (`None` on bypass) —
    /// enough to correlate log lines sharing a capture without leaking
    /// a reversible workload description.
    key_prefix: Option<String>,
    error_kind: Option<&'static str>,
    /// Cache resolution time, excluding any capture it triggered.
    probe_us: u64,
    /// Simulation work: capture (on a miss) plus replay/execute.
    execute_us: u64,
    /// Convergence verdict label (self-correction runs only).
    verdict: Option<&'static str>,
    /// Self-correction iterations the run took (0 for other modes).
    conv_iterations: u64,
}

/// Worker count for `configured` (`ServerConfig::workers`).
fn service_threads(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    std::env::var("SCTM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// One request worker: pop the oldest queued job (FIFO start order) or
/// sleep until there is one; leave when the queue is empty and a drain
/// has begun. A job may block (on the capture cache's single-flight
/// condvar); that parks this worker only, and a
/// `Pending` slot is only ever owned by a *running* job, so the wait is
/// on live progress, never on queued work — no deadlock at any worker
/// count.
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.draining {
                    return;
                }
                q = shared.work.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        // A panic inside the simulator costs its own request, never the
        // worker: the unwinding job drops its sender (the submitter gets
        // `Reply::dropped`), `InFlight` releases the gauge, the cache's
        // own guard frees the single-flight slot, and every lock here
        // and in `obs` recovers from poison. The request still gets its
        // log line.
        let (seq, id) = (job.seq, job.req.id.clone());
        let run = std::panic::AssertUnwindSafe(|| run_job(shared, job));
        if std::panic::catch_unwind(run).is_err() {
            shared.record(|m| m.counter_add("srv.errors", 1));
            shared.log_event(
                seq,
                &[
                    ("id", json_str(&id)),
                    ("verb", json_str("run")),
                    ("outcome", json_str("error")),
                    ("error_kind", json_str("internal")),
                ],
            );
        }
    }
}

/// Holds one `srv.in_flight` tick for as long as a request executes.
struct InFlight<'a>(&'a Shared);

impl<'a> InFlight<'a> {
    fn enter(shared: &'a Shared) -> Self {
        shared.record(|m| m.gauge_set("srv.in_flight", gauge(m, "srv.in_flight") + 1.0));
        InFlight(shared)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0
            .record(|m| m.gauge_set("srv.in_flight", gauge(m, "srv.in_flight") - 1.0));
    }
}

/// Take one request from deadline check to reply: cache lookup (and the
/// capture behind a miss), the simulation, rendering,
/// telemetry. The `"result"` object is computed from simulated
/// quantities only, so its bytes do not depend on which worker ran the
/// request, or when.
fn run_job(shared: &Shared, job: Job) {
    let started = Instant::now();
    if let Some(d) = job.deadline {
        if d <= started {
            finish_timeout(shared, job, started);
            return;
        }
    }
    let queue_us = us(started.duration_since(job.enqueued));
    let in_flight = InFlight::enter(shared);
    let req = &job.req;
    let e = &req.experiment;
    let traceless = matches!(req.spec.mode, Mode::ExecutionDriven | Mode::Online { .. });

    let mut cache = CacheOutcome::Bypass;
    let mut key_prefix = None;
    let mut probe_us = 0;
    let mut execute_us = 0;
    let mut seed_log = None;
    if !traceless {
        let key = CaptureKey::new(e.kernel.label(), e.system.side, e.ops_per_core, e.seed);
        key_prefix = Some(format!("{:08x}", key.0 >> 32));
        let c0 = Instant::now();
        let mut produce_time = Duration::ZERO;
        let found = {
            let _g = span("svc", "cache_probe");
            shared.cache.lookup(key, || {
                let _g = span("svc", "capture");
                let p0 = Instant::now();
                let t = e.capture();
                produce_time = p0.elapsed();
                t
            })
        };
        // Resolution (including any single-flight wait) counts as probe
        // time; the production itself is execution work.
        probe_us = us(c0.elapsed().saturating_sub(produce_time));
        execute_us = us(produce_time);
        // Counted as the lookup happened: a request that goes on to
        // panic still made its capture and its evictions.
        shared.record(|m| {
            let outcome = if found.hit {
                "srv.cache.hits"
            } else {
                "srv.cache.misses"
            };
            m.counter_add(outcome, 1);
            m.counter_add("srv.cache.evictions", found.evicted);
            if found.waited {
                m.counter_add("srv.cache.single_flight_waits", 1);
            }
        });
        cache = if found.hit {
            CacheOutcome::Hit
        } else {
            CacheOutcome::Miss
        };
        seed_log = Some(found.log);
    }

    let x0 = Instant::now();
    let outcome = {
        let _g = span("svc", "execute");
        e.execute_seeded(&req.spec, seed_log.as_deref())
    };
    execute_us += us(x0.elapsed());

    let done = match outcome {
        Ok(out) => JobDone {
            line: ok_response(
                &req.id,
                started.elapsed().as_nanos(),
                cache,
                &result_json(&out.report, e),
            ),
            cache,
            key_prefix,
            error_kind: None,
            probe_us,
            // Rendering counts as execution work.
            execute_us: us(started.elapsed()),
            verdict: out.report.verdict.map(|v| v.label()),
            conv_iterations: out.report.iterations.as_ref().map_or(0, |v| v.len() as u64),
        },
        Err(err) => JobDone {
            line: error_response(&req.id, &err),
            cache,
            key_prefix,
            error_kind: Some(error_kind(&err)),
            probe_us,
            execute_us,
            verdict: None,
            conv_iterations: 0,
        },
    };
    // Released before the reply, so `stats` after an answer reads 0.
    drop(in_flight);
    finish_job(shared, job, queue_us, done);
}

/// What a connection owes its client, queued in request order by the
/// reader half of [`serve_lines`] and turned into bytes by the writer
/// half when its turn comes.
enum Owed {
    /// Answered at parse/submit time: a typed parse error, `busy`, or
    /// the draining refusal.
    Ready(String),
    /// An accepted run; its worker sends the reply when it finishes.
    Run(mpsc::Receiver<Reply>),
    /// A control verb, evaluated by the writer half at its turn. Never
    /// `Request::Run`: the reader half submits those itself.
    Verb(Request),
    /// The request line of a one-shot HTTP GET.
    HttpGet(String),
}

/// The `stats` verb's response line: versioned envelope around the
/// telemetry manifest.
fn stats_line(server: &Server) -> String {
    format!(
        r#"{{"status":"ok","version":{},"stats":{}}}"#,
        SVC_STATS_VERSION,
        server.stats_manifest().to_json_compact()
    )
}

/// Serve newline-delimited requests from `reader`, writing one response
/// line per request to `writer` **in request order**. Returns `true`
/// when the stream asked for shutdown.
///
/// The connection is split in two. The **reader half** (the calling
/// thread) parses each line, submits `run` requests to the queue at
/// once — so consecutive `run` lines overlap on the workers — and
/// queues what the connection now owes its client. The **writer half**
/// (a scoped thread that owns `writer` behind a `BufWriter`) pops the
/// queue in order and blocks on each run's completion channel, so a
/// finished response leaves the moment its worker hands it over; it
/// flushes whenever the next owed bytes are not already available, and
/// never otherwise. Neither half waits on a timer, and a client that
/// stalls mid-line delays nothing it is already owed.
///
/// The queue between the halves is bounded (a few entries per request
/// queue slot, so `busy` refusals fit beside the accepted runs): a
/// client that keeps sending without reading what it is owed fills it,
/// the reader half stops reading, and TCP pushes back on the sender
/// instead of the daemon buffering its answers without limit.
///
/// Control verbs (`ping`, `stats`, `metrics`, `shutdown`) travel
/// through the same queue and are evaluated by the writer at their
/// turn, after it has received every earlier run's reply — so their
/// answers observe all preceding runs. The `metrics` response is the
/// one multi-line answer: Prometheus text terminated by a `# EOF` line.
///
/// A line starting with `GET ` switches the connection to one-shot
/// HTTP: `GET /metrics` and `GET /stats` answer with an `HTTP/1.0`
/// response and close, so standard Prometheus scrapers can poll the
/// same TCP port the line protocol lives on.
///
/// The reader half ends at EOF, a read error, `shutdown` or `GET`; the
/// writer then finishes everything still owed. The writer half ends on
/// a write error (the client hung up); runs still in flight complete
/// and are counted, their replies are discarded, and the reader ends at
/// its next line or the peer's EOF. A read error is returned in
/// preference to a write error.
pub fn serve_lines<R: BufRead, W: Write + Send>(
    reader: R,
    writer: &mut W,
    server: &Server,
) -> std::io::Result<bool> {
    let owed_cap = server.shared.cfg.queue_cap.saturating_mul(4).max(256);
    let (owed, owed_rx) = mpsc::sync_channel(owed_cap);
    std::thread::scope(|s| {
        let writer_half = std::thread::Builder::new()
            .name("sctmd-conn-writer".into())
            .spawn_scoped(s, move || write_owed(owed_rx, writer, server))?;
        let read = read_requests(reader, owed, server);
        let wrote = writer_half
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        read.and(wrote)
    })
}

/// Reader half of [`serve_lines`]: consumes `owed`, so the writer sees
/// the queue close when this returns.
fn read_requests<R: BufRead>(
    mut reader: R,
    owed: mpsc::SyncSender<Owed>,
    server: &Server,
) -> std::io::Result<()> {
    let mut buf = String::new();
    loop {
        buf.clear();
        if reader.read_line(&mut buf)? == 0 {
            return Ok(()); // EOF
        }
        let line = buf.trim_end_matches(['\r', '\n']);
        if line.trim().is_empty() {
            continue;
        }
        let item = if line.starts_with("GET ") {
            // One-shot HTTP scrape; drain the request headers first.
            let mut hdr = String::new();
            while reader.read_line(&mut hdr)? != 0 && !hdr.trim().is_empty() {
                hdr.clear();
            }
            Owed::HttpGet(line.to_string())
        } else {
            match parse_request(line) {
                Err(err) => Owed::Ready(error_response("", &err)),
                Ok(Request::Run(req)) => match server.submit(*req) {
                    Ok(rx) => Owed::Run(rx),
                    Err(line) => Owed::Ready(line),
                },
                Ok(verb) => Owed::Verb(verb),
            }
        };
        let last = matches!(item, Owed::Verb(Request::Shutdown) | Owed::HttpGet(_));
        // A failed send means the writer half is gone: nobody is left
        // to answer, so stop accepting work from this connection.
        if owed.send(item).is_err() || last {
            return Ok(());
        }
    }
}

/// The connection's sink as the writer half sees it: buffered, and
/// remembering which run replies are written but not yet flushed so
/// `srv.lat.respond_us` ends where the bytes actually leave.
struct Sink<'a, W: Write> {
    out: std::io::BufWriter<&'a mut W>,
    unflushed: Vec<Instant>,
    shared: &'a Shared,
}

impl<W: Write> Sink<'_, W> {
    fn line(&mut self, line: &str) -> std::io::Result<()> {
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n")
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush()?;
        if !self.unflushed.is_empty() {
            let unflushed = &mut self.unflushed;
            self.shared.record(|m| {
                for done in unflushed.drain(..) {
                    m.hist_record("srv.lat.respond_us", us(done.elapsed()));
                }
            });
        }
        Ok(())
    }

    /// The next value from `rx`, blocking for it; what is already
    /// written is flushed first unless the value is there to follow it
    /// out in the same write. `None` once the sender is gone.
    fn wait_for<T>(&mut self, rx: &mpsc::Receiver<T>) -> std::io::Result<Option<T>> {
        if let Ok(v) = rx.try_recv() {
            return Ok(Some(v));
        }
        self.flush()?;
        Ok(rx.recv().ok())
    }
}

/// Writer half of [`serve_lines`]. Returns `Ok(true)` after
/// acknowledging `shutdown`.
fn write_owed<W: Write>(
    owed: mpsc::Receiver<Owed>,
    writer: &mut W,
    server: &Server,
) -> std::io::Result<bool> {
    let shared = &*server.shared;
    let mut sink = Sink {
        // One write per response (run responses are a few KiB, `stats`
        // ~20 KiB).
        out: std::io::BufWriter::with_capacity(64 << 10, writer),
        unflushed: Vec::new(),
        shared,
    };
    while let Some(item) = sink.wait_for(&owed)? {
        // These take time to evaluate, so what is already written
        // leaves first.
        if matches!(
            item,
            Owed::Verb(Request::Stats | Request::Metrics) | Owed::HttpGet(_)
        ) {
            sink.flush()?;
        }
        match item {
            Owed::Ready(line) => sink.line(&line)?,
            Owed::Run(rx) => {
                let reply = sink.wait_for(&rx)?.unwrap_or_else(Reply::dropped);
                sink.line(&reply.line)?;
                sink.unflushed.push(reply.done);
            }
            Owed::Verb(Request::Run(_)) => unreachable!("the reader half submits runs"),
            Owed::Verb(Request::Ping) => sink.line(r#"{"status":"ok","pong":true}"#)?,
            Owed::Verb(Request::Shutdown) => {
                sink.line(r#"{"status":"ok","shutting_down":true}"#)?;
                sink.flush()?;
                return Ok(true);
            }
            Owed::Verb(Request::Stats) => {
                shared.record(|m| m.counter_add("srv.stats_served", 1));
                sink.line(&stats_line(server))?;
            }
            Owed::Verb(Request::Metrics) => {
                shared.record(|m| m.counter_add("srv.metrics_served", 1));
                sink.out.write_all(server.prometheus_text().as_bytes())?;
                sink.line("# EOF")?;
            }
            Owed::HttpGet(request_line) => {
                serve_http_get(&request_line, &mut sink.out, server)?;
                sink.flush()?;
                return Ok(false);
            }
        }
    }
    // `wait_for` flushed before it found the queue closed.
    Ok(false)
}

/// Answer one HTTP GET (`/metrics`, `/stats`). HTTP/1.0 +
/// `Connection: close` keeps this a strict one-shot: no keep-alive, no
/// chunking, nothing for a scraper to misread.
fn serve_http_get<W: Write>(
    request_line: &str,
    writer: &mut W,
    server: &Server,
) -> std::io::Result<()> {
    let path = request_line
        .strip_prefix("GET ")
        .unwrap_or("")
        .split_whitespace()
        .next()
        .unwrap_or("/");
    let (status, ctype, body) = match path {
        "/metrics" => {
            server
                .shared
                .record(|m| m.counter_add("srv.metrics_served", 1));
            (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                server.prometheus_text(),
            )
        }
        "/stats" => {
            server
                .shared
                .record(|m| m.counter_add("srv.stats_served", 1));
            (
                "200 OK",
                "application/json",
                format!("{}\n", stats_line(server)),
            )
        }
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "unknown path; try /metrics or /stats\n".to_string(),
        ),
    };
    write!(
        writer,
        "HTTP/1.0 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// Serve the line protocol over TCP until a connection sends
/// `shutdown`. One [`serve_lines`] thread pair per connection; the
/// accept loop polls so it can notice the shutdown flag. Returns after
/// the graceful drain.
///
/// The accept loop keeps a handle on every live connection. At
/// shutdown it shuts the read side of each, so a reader half blocked on
/// an idle client sees EOF instead of holding the daemon open. The
/// writer half still writes everything its connection is owed before
/// the thread ends; lines the reader half had not yet read go
/// unanswered, and their client sees the connection close.
pub fn serve_tcp(listener: std::net::TcpListener, server: Server) -> std::io::Result<()> {
    use std::sync::atomic::AtomicBool;
    listener.set_nonblocking(true)?;
    let server = Arc::new(server);
    let stop = Arc::new(AtomicBool::new(false));
    let mut conns: Vec<(std::thread::JoinHandle<()>, std::net::TcpStream)> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Reap connections that have ended, or every one-shot
                // scrape would grow `conns` for the daemon's lifetime.
                conns.retain(|(c, _)| !c.is_finished());
                let Ok(handle) = stream.try_clone() else {
                    continue;
                };
                let server = Arc::clone(&server);
                let stop = Arc::clone(&stop);
                let conn = std::thread::spawn(move || {
                    stream.set_nonblocking(false).ok();
                    // Responses are written whole and flushed once;
                    // Nagle would only hold them for the client's ACK.
                    stream.set_nodelay(true).ok();
                    let Ok(read_half) = stream.try_clone() else {
                        return;
                    };
                    let mut write_half = stream;
                    let reader = std::io::BufReader::new(read_half);
                    if let Ok(true) = serve_lines(reader, &mut write_half, &server) {
                        stop.store(true, Ordering::SeqCst);
                    }
                });
                conns.push((conn, handle));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(e),
        }
    }
    for (_, handle) in &conns {
        let _ = handle.shutdown(std::net::Shutdown::Read);
    }
    for (c, _) in conns {
        let _ = c.join();
    }
    server.drain();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_threads_is_positive_and_honours_the_config() {
        assert!(service_threads(0) >= 1);
        assert_eq!(service_threads(3), 3);
    }
}
