//! Pipelined sweep driver for one `sctmd`.
//!
//! Reads request lines from stdin, pipelines them over a pooled
//! connection, and prints the responses **in input order** — so a
//! sweep script is `generate-configs | sctm-sweep --addr A`.
//!
//! ```text
//! sctm-sweep --addr HOST:PORT
//!            [--stats]      print one stats line after the sweep
//!            [--shutdown]   ask the daemon to drain and exit afterwards
//!            [--expect-ok]  exit 1 if any response is not status=ok
//! ```
//!
//! Used by CI's sweep smoke test: drive one workload's sweep through
//! one daemon, then assert from the `--stats` line that it captured the
//! workload exactly once.

#![forbid(unsafe_code)]

use sctm_client::{Client, ClientError, Response};
use std::io::BufRead;

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("sctm-sweep: {e}");
            std::process::exit(2);
        }
    }
}

fn run() -> Result<i32, ClientError> {
    let mut addr: Option<String> = None;
    let mut stats = false;
    let mut shutdown = false;
    let mut expect_ok = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => {
                let v = args
                    .next()
                    .ok_or_else(|| ClientError::Protocol("--addr needs HOST:PORT".into()))?;
                if addr.replace(v).is_some() {
                    return Err(ClientError::Protocol("--addr names one daemon".into()));
                }
            }
            "--stats" => stats = true,
            "--shutdown" => shutdown = true,
            "--expect-ok" => expect_ok = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: sctm-sweep --addr HOST:PORT \
                     [--stats] [--shutdown] [--expect-ok] < requests.txt"
                );
                return Ok(0);
            }
            other => {
                return Err(ClientError::Protocol(format!("unknown argument '{other}'")));
            }
        }
    }
    let addr = addr.ok_or_else(|| ClientError::Protocol("--addr is required".into()))?;
    let client = Client::connect(&addr)?;

    let lines: Vec<String> = std::io::stdin()
        .lock()
        .lines()
        .collect::<Result<_, _>>()
        .map_err(|e| ClientError::Io(e.to_string()))?;
    let lines: Vec<String> = lines.into_iter().filter(|l| !l.trim().is_empty()).collect();
    let responses = client.pipeline(&lines)?;

    let mut all_ok = true;
    for resp in responses {
        match resp {
            Response::Ok { line } => println!("{line}"),
            Response::Busy { retry_after_ms } => {
                all_ok = false;
                println!(r#"{{"status":"busy","retry_after_ms":{retry_after_ms}}}"#);
            }
            Response::Error { kind, message } => {
                all_ok = false;
                eprintln!("sctm-sweep: server error [{kind}]: {message}");
                println!(r#"{{"status":"error","kind":"{kind}"}}"#);
            }
            Response::Timeout { waited_ms } => {
                all_ok = false;
                println!(r#"{{"status":"timeout","waited_ms":{waited_ms}}}"#);
            }
        }
    }

    if stats {
        println!("{}", client.stats()?);
    }
    if shutdown {
        client.shutdown()?;
    }
    Ok(if expect_ok && !all_ok { 1 } else { 0 })
}
