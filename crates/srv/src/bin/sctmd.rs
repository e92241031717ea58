//! `sctmd` — the SCTM batch simulation daemon.
//!
//! ```text
//! sctmd --stdin                      # serve requests from stdin (CI mode)
//! sctmd --listen 127.0.0.1:4710     # serve the line protocol over TCP
//! sctmd --stdin --cache-mb 64 --queue 32 --timeout-ms 10000
//! sctmd --listen 127.0.0.1:4710 --log-dir /var/log/sctmd
//! sctmd --listen 127.0.0.1:4710 --workers 8
//! ```
//!
//! Scheduling: `--workers` threads (default `SCTM_THREADS`, else all
//! cores) each take one whole request at a time off the bounded queue.
//!
//! `--cache-mb N` is the capture cache's budget in MiB of resident
//! memory (parsed logs and their gate plans; default 256). `0` keeps
//! only the capture just made: concurrent requests for one workload
//! still share a capture, nothing stays warm.
//!
//! One request per line, one JSON response line per request; see
//! `DESIGN.md` §10–12 and the README quickstart for the protocol.
//!
//! Diagnostics are structured: every daemon-level event is one JSON
//! line on stderr (`{"ts_ms":…,"event":…}`), and with `--log-dir DIR`
//! (or the `SCTM_LOG` environment variable, mirroring `SCTM_OBS`
//! conventions) per-request lifecycle records are appended to
//! `DIR/sctmd.log.jsonl` with size-based rotation.

#![forbid(unsafe_code)]

use sctm_obs::reqlog::RequestLog;
use sctm_obs::{json_line, json_str};
use sctm_srv::{serve_lines, serve_tcp, Server, ServerConfig};
use std::sync::Arc;

/// One structured daemon event on stderr: `{"ts_ms":…,"event":"…",…}`.
fn log_stderr(event: &str, extra: &[(&str, String)]) {
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    let mut fields: Vec<(&str, String)> =
        vec![("ts_ms", ts.to_string()), ("event", json_str(event))];
    fields.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
    eprintln!("{}", json_line(&fields));
}

fn usage() -> ! {
    log_stderr(
        "usage",
        &[(
            "message",
            json_str(
                "sctmd (--stdin | --listen ADDR) [--cache-mb N] [--queue N] \
                 [--timeout-ms N] [--log-dir DIR] [--workers N]",
            ),
        )],
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut stdin_mode = false;
    let mut listen: Option<String> = None;
    let mut log_dir: Option<String> = std::env::var("SCTM_LOG")
        .ok()
        .filter(|v| !matches!(v.as_str(), "" | "0" | "false" | "off"));
    let mut cfg = ServerConfig::default();

    let mut i = 0;
    let num = |args: &[String], i: &mut usize| -> u64 {
        *i += 1;
        args.get(*i)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--stdin" => stdin_mode = true,
            "--listen" => {
                i += 1;
                listen = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--cache-mb" => cfg.cache_bytes = (num(&args, &mut i) as usize) << 20,
            "--queue" => cfg.queue_cap = num(&args, &mut i) as usize,
            "--timeout-ms" => cfg.default_timeout_ms = num(&args, &mut i),
            "--workers" => cfg.workers = num(&args, &mut i) as usize,
            "--log-dir" => {
                i += 1;
                log_dir = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
        i += 1;
    }
    if stdin_mode == listen.is_some() {
        usage(); // exactly one front-end
    }

    let log = log_dir.map(|dir| match RequestLog::create(std::path::Path::new(&dir)) {
        Ok(log) => {
            log_stderr(
                "request-log",
                &[("path", json_str(&log.path().display().to_string()))],
            );
            Arc::new(log)
        }
        Err(e) => {
            log_stderr(
                "error",
                &[
                    (
                        "message",
                        json_str(&format!("cannot open request log: {e}")),
                    ),
                    ("dir", json_str(&dir)),
                ],
            );
            std::process::exit(1);
        }
    });

    let server = Server::start_logged(cfg, log);
    if stdin_mode {
        // The writer half runs on its own thread, so the sink must be
        // `Send`: the `Stdout` handle, not its `!Send` lock guard.
        let res = serve_lines(std::io::stdin().lock(), &mut std::io::stdout(), &server);
        server.drain();
        if let Err(e) = res {
            log_stderr("error", &[("message", json_str(&e.to_string()))]);
            std::process::exit(1);
        }
    } else if let Some(addr) = listen {
        let listener = match std::net::TcpListener::bind(&addr) {
            Ok(l) => l,
            Err(e) => {
                log_stderr(
                    "error",
                    &[
                        ("message", json_str(&format!("cannot bind: {e}"))),
                        ("addr", json_str(&addr)),
                    ],
                );
                std::process::exit(1);
            }
        };
        log_stderr("listening", &[("addr", json_str(&addr))]);
        if let Err(e) = serve_tcp(listener, server) {
            log_stderr("error", &[("message", json_str(&e.to_string()))]);
            std::process::exit(1);
        }
    }
}
