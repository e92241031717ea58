//! `sctmtop` — a live one-screen monitor for a running `sctmd`.
//!
//! ```text
//! sctmtop 127.0.0.1:4710                  # refresh every second
//! sctmtop 127.0.0.1:4710 --interval-ms 250
//! sctmtop 127.0.0.1:4710 --once           # one frame, no screen clear
//! sctmtop 127.0.0.1:4710 --frames 10      # exit after 10 frames
//! sctmtop 127.0.0.1:4710 --json           # one raw stats line, for scripts
//! ```
//!
//! Polls the daemon's `stats` verb over one persistent TCP connection
//! and renders throughput (rates come from successive snapshots — the
//! protocol itself only carries monotone counters), cache economics,
//! queue/backpressure state, and per-phase latency quantiles. Made for
//! watching a §P5-style saturation sweep approach its cliff.

#![forbid(unsafe_code)]

use sctm_obs::ConvergenceVerdict;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!("usage: sctmtop ADDR [--interval-ms N] [--frames N] [--once] [--json]");
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("sctmtop: {msg}");
    std::process::exit(1);
}

/// Pull `"<field>": <number>` out of the flat JSON object that follows
/// `"<name>"` in `doc`. The manifest renders metric objects flat
/// (`{"kind": "counter", "value": 3}`), so brace matching is a plain
/// scan to the first `}`.
fn metric_num(doc: &str, name: &str, field: &str) -> Option<f64> {
    let nkey = format!("\"{name}\"");
    let rest = &doc[doc.find(&nkey)? + nkey.len()..];
    let obj_start = rest.find('{')?;
    let obj_end = rest[obj_start..].find('}')? + obj_start;
    let obj = &rest[obj_start..=obj_end];
    let fkey = format!("\"{field}\":");
    let tail = obj[obj.find(&fkey)? + fkey.len()..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

fn counter(doc: &str, name: &str) -> u64 {
    metric_num(doc, name, "value").unwrap_or(0.0) as u64
}

#[derive(Clone, Copy, Default)]
struct Frame {
    at: Option<Instant>,
    accepted: u64,
    completed: u64,
    errors: u64,
    rejected: u64,
    timeouts: u64,
    hits: u64,
    misses: u64,
}

fn rate(prev: u64, cur: u64, dt: f64) -> f64 {
    if dt <= 0.0 {
        return 0.0;
    }
    cur.saturating_sub(prev) as f64 / dt
}

fn mib(bytes: f64) -> f64 {
    bytes / (1024.0 * 1024.0)
}

fn quantiles(doc: &str, name: &str) -> String {
    let q = |f: &str| {
        metric_num(doc, name, f)
            .map(|v| format!("{v:.0}"))
            .unwrap_or_else(|| "-".into())
    };
    format!(
        "p50 {:>8}  p95 {:>8}  p99 {:>8}",
        q("p50"),
        q("p95"),
        q("p99")
    )
}

fn render(doc: &str, prev: &Frame, addr: &str, frame_no: u64, clear: bool) -> Frame {
    let now = Instant::now();
    let cur = Frame {
        at: Some(now),
        accepted: counter(doc, "srv.accepted"),
        completed: counter(doc, "srv.completed"),
        errors: counter(doc, "srv.errors"),
        rejected: counter(doc, "srv.rejected"),
        timeouts: counter(doc, "srv.timeouts"),
        hits: counter(doc, "srv.cache.hits"),
        misses: counter(doc, "srv.cache.misses"),
    };
    let dt = prev
        .at
        .map(|t| now.duration_since(t).as_secs_f64())
        .unwrap_or(0.0);
    let lookups = cur.hits + cur.misses;
    let hit_pct = if lookups > 0 {
        100.0 * cur.hits as f64 / lookups as f64
    } else {
        0.0
    };
    let g = |name: &str| metric_num(doc, name, "value").unwrap_or(0.0);

    let mut out = String::new();
    if clear {
        out.push_str("\x1b[2J\x1b[H"); // clear screen, home cursor
    }
    let version = doc
        .split_once("\"version\":")
        .and_then(|(_, t)| t.split(',').next())
        .unwrap_or("?")
        .trim();
    out.push_str(&format!(
        "sctmtop — {addr}   frame {frame_no}   version {version}\n\n"
    ));
    out.push_str(&format!(
        "requests   accepted {:>8} ({:>7.1}/s)   completed {:>8} ({:>7.1}/s)\n",
        cur.accepted,
        rate(prev.accepted, cur.accepted, dt),
        cur.completed,
        rate(prev.completed, cur.completed, dt),
    ));
    out.push_str(&format!(
        "           errors {:>6}   busy {:>6}   timeouts {:>6}   budget-exhausted {:>4}\n",
        cur.errors,
        cur.rejected,
        cur.timeouts,
        counter(doc, "srv.budget_exhausted"),
    ));
    // Polls of `stats` (this monitor's own included) and `metrics`
    // scrapes: how much of the traffic is watching the rest.
    out.push_str(&format!(
        "           polls  stats {:>6}   metrics {:>6}\n\n",
        counter(doc, "srv.stats_served"),
        counter(doc, "srv.metrics_served"),
    ));
    out.push_str(&format!(
        "cache      hit {:>5.1}%   hits {:>8}   misses {:>6}   waits {:>5}   bypass {:>5}\n",
        hit_pct,
        cur.hits,
        cur.misses,
        counter(doc, "srv.cache.single_flight_waits"),
        counter(doc, "srv.cache.bypass"),
    ));
    let (entries, bytes) = (g("srv.cache.entries"), g("srv.cache.bytes"));
    let per_entry = if entries > 0.0 { bytes / entries } else { 0.0 };
    out.push_str(&format!(
        "           entries {:>5}   {:>9.1} MiB resident   {:>7.1} KiB/entry   evictions {:>5}\n\n",
        entries as u64,
        mib(bytes),
        per_entry / 1024.0,
        counter(doc, "srv.cache.evictions"),
    ));
    out.push_str(&format!(
        "queue      depth {:>4}   peak {:>4}\n",
        g("srv.queue.depth") as u64,
        g("srv.queue.peak") as u64,
    ));
    out.push_str(&format!(
        "sched      workers {:>3}   in flight {:>3}\n",
        g("srv.sched.workers") as u64,
        g("srv.in_flight") as u64,
    ));
    out.push('\n');
    let cv = |v: ConvergenceVerdict| counter(doc, &format!("srv.conv.runs.{}", v.label()));
    let converged: u64 = ConvergenceVerdict::ALL
        .iter()
        .filter(|v| v.is_converged())
        .map(|v| cv(*v))
        .sum();
    out.push_str(&format!(
        "conv       converged {:>5}   oscillating {:>4}   stalled {:>4}   diverging {:>4}   exhausted {:>4}   iters p50 {:>3}\n\n",
        converged,
        cv(ConvergenceVerdict::Oscillating),
        cv(ConvergenceVerdict::Stalled),
        cv(ConvergenceVerdict::Diverging),
        cv(ConvergenceVerdict::Exhausted),
        metric_num(doc, "srv.conv.iterations", "p50")
            .map(|v| format!("{v:.0}"))
            .unwrap_or_else(|| "-".into()),
    ));
    out.push_str("latency µs\n");
    for (label, key) in [
        ("queue   ", "srv.lat.queue_us"),
        ("probe   ", "srv.lat.cache_probe_us"),
        ("execute ", "srv.lat.execute_us"),
        ("respond ", "srv.lat.respond_us"),
        ("total   ", "srv.lat.total_us"),
    ] {
        out.push_str(&format!("  {label} {}\n", quantiles(doc, key)));
    }
    print!("{out}");
    let _ = std::io::stdout().flush();
    cur
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr: Option<String> = None;
    let mut interval = Duration::from_millis(1000);
    let mut frames: Option<u64> = None;
    let mut once = false;
    let mut json = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--interval-ms" => {
                i += 1;
                let ms: u64 = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                interval = Duration::from_millis(ms.max(50));
            }
            "--frames" => {
                i += 1;
                frames = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--once" => once = true,
            "--json" => json = true,
            a if addr.is_none() && !a.starts_with("--") => addr = Some(a.to_string()),
            _ => usage(),
        }
        i += 1;
    }
    let addr = addr.unwrap_or_else(|| usage());
    if once || json {
        frames = Some(1);
    }

    let stream =
        TcpStream::connect(&addr).unwrap_or_else(|e| fail(&format!("cannot connect {addr}: {e}")));
    let mut writer = stream
        .try_clone()
        .unwrap_or_else(|e| fail(&format!("clone stream: {e}")));
    let mut reader = BufReader::new(stream);

    let mut prev = Frame::default();
    let mut n = 0u64;
    loop {
        if writer
            .write_all(b"stats\n")
            .and_then(|()| writer.flush())
            .is_err()
        {
            fail("daemon closed the connection");
        }
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => fail("daemon closed the connection"),
            Ok(_) => {}
            Err(e) => fail(&format!("read: {e}")),
        }
        // A stats response is one JSON object carrying a `stats`
        // manifest; anything else (a proxy error page, a truncated
        // line, a different protocol) must not reach the scrapers.
        let body = line.trim();
        if !(body.starts_with('{') && body.ends_with('}') && body.contains("\"stats\"")) {
            let head: String = body.chars().take(80).collect();
            fail(&format!("malformed stats response from {addr}: {head:?}"));
        }
        n += 1;
        if json {
            println!("{body}");
            break;
        }
        prev = render(&line, &prev, &addr, n, !once);
        if let Some(max) = frames {
            if n >= max {
                break;
            }
        }
        std::thread::sleep(interval);
    }
}
