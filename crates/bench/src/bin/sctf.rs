//! `sctf` — capture, export, inspect, verify, and replay trace
//! containers (DESIGN.md §14).
//!
//! ```text
//! sctf capture out.sctf [--side N] [--kernel K] [--ops N] [--seed N]
//! sctf export trace.sctf trace.csv        # sctm-trace-v2 text view
//! sctf inspect trace.sctf                 # header + edge count
//! sctf verify trace.sctf                  # full decode + checksum walk
//! sctf replay trace.sctf [--net KIND] [--side N] [--engine E]
//! ```
//!
//! A trace has one encoding on disk, the sctf container; `export`
//! writes a one-way `sctm-trace-v2` text view of it to grep and diff.
//! `replay` prints a deterministic one-line JSON manifest — record
//! count, engine, network, estimated execution time, and an FNV-1a
//! digest of the full inject/deliver timeline — which CI pins to prove
//! a captured trace still replays bit-identically. A `fixed` replay
//! that outgrows its bound (200 network batches a message) prints the
//! `BudgetExhausted` error instead and exits 1.

#![forbid(unsafe_code)]

use sctm_core::{Experiment, NetworkKind, SctmError, SystemConfig};
use sctm_engine::hash::Fnv1a;
use sctm_engine::net::MsgClass;
use sctm_trace::sctf::{from_sctf_bytes, to_sctf_bytes};
use sctm_trace::{
    replay_fixed, replay_oracle, replay_sctm_pass, ReplayResult, SctfReader, TraceLog,
};
use sctm_workloads::Kernel;

fn usage() -> ! {
    eprintln!(
        "usage: sctf capture OUT [--side N] [--kernel K] [--ops N] [--seed N]\n\
         \x20      sctf export IN.sctf OUT.csv\n\
         \x20      sctf inspect PATH\n\
         \x20      sctf verify PATH\n\
         \x20      sctf replay PATH [--net KIND] [--side N] [--engine fixed|sctm|oracle]"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("sctf: {msg}");
    std::process::exit(1);
}

/// Value of `--flag` in `args`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail(&format!("bad value for {name}: {v:?}")))
        })
}

fn flag_str<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

/// Positional (non-`--`) operands, skipping flag values.
fn positionals(args: &[String]) -> Vec<&String> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
        } else if a.starts_with("--") {
            skip = true;
        } else {
            out.push(a);
        }
    }
    out
}

fn load(path: &str) -> TraceLog {
    TraceLog::load(path).unwrap_or_else(|e| fail(&format!("load {path}: {e}")))
}

/// Smallest mesh side whose `side²` cores cover every node id in the
/// trace (power-of-two, as the kernels require).
fn infer_side(log: &TraceLog) -> usize {
    let max_node = log
        .records
        .iter()
        .map(|r| r.msg.src.0.max(r.msg.dst.0) as usize)
        .max()
        .unwrap_or(0);
    let mut side = 2usize;
    while side * side <= max_node {
        side *= 2;
    }
    side
}

/// FNV-1a 64 over the replay timeline: every inject and deliver
/// instant in dense id order, then the estimate. One flipped
/// picosecond anywhere changes the digest.
fn timeline_digest(r: &ReplayResult) -> u64 {
    let mut h = Fnv1a::default();
    for t in r.inject.iter().chain(r.deliver.iter()) {
        h.u64(t.as_ps());
    }
    h.u64(r.est_exec_time.as_ps()).finish()
}

fn cmd_capture(args: &[String]) {
    let pos = positionals(args);
    let [out] = pos[..] else { usage() };
    let side: usize = flag(args, "--side").unwrap_or(4);
    let ops: usize = flag(args, "--ops").unwrap_or(400);
    if ops < 64 {
        fail("--ops must be at least 64 (shorter scripts are noise)");
    }
    let seed: u64 = flag(args, "--seed").unwrap_or(1);
    let label = flag_str(args, "--kernel").unwrap_or("fft");
    let kernel = *Kernel::ALL
        .iter()
        .find(|k| k.label() == label)
        .unwrap_or_else(|| fail(&format!("unknown kernel {label:?}")));
    let log = Experiment::new(SystemConfig::new(side, NetworkKind::Omesh), kernel)
        .with_ops(ops)
        .with_seed(seed)
        .capture();
    log.save(out)
        .unwrap_or_else(|e| fail(&format!("save {out}: {e}")));
    eprintln!(
        "captured {} records ({} on {} cores) -> {out}",
        log.len(),
        kernel.label(),
        side * side
    );
}

/// The `sctm-trace-v2` text view: a metadata line, a column header,
/// then one line per record with its dependency ids `;`-separated.
fn export_text(log: &TraceLog) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "sctm-trace-v2,{},{}\nid,src,dst,class,bytes,t_inject_ps,t_deliver_ps,deps\n",
        log.capture_net,
        log.capture_exec_time.as_ps()
    );
    for (i, r) in log.records.iter().enumerate() {
        let m = r.msg;
        let class = match m.class {
            MsgClass::Control => "C",
            MsgClass::Data => "D",
        };
        let deps: Vec<String> = log.deps(i).iter().map(u32::to_string).collect();
        let _ = writeln!(
            out,
            "{},{},{},{class},{},{},{},{}",
            m.id.0,
            m.src.0,
            m.dst.0,
            m.bytes,
            r.t_inject.as_ps(),
            r.t_deliver.as_ps(),
            deps.join(";"),
        );
    }
    out
}

fn cmd_export(args: &[String]) {
    let pos = positionals(args);
    let [input, out] = pos[..] else { usage() };
    let log = load(input);
    std::fs::write(out, export_text(&log)).unwrap_or_else(|e| fail(&format!("write {out}: {e}")));
    eprintln!("{} records: {input} -> {out}", log.len());
}

fn cmd_inspect(args: &[String]) {
    let pos = positionals(args);
    let [path] = pos[..] else { usage() };
    let r = SctfReader::open(path).unwrap_or_else(|e| fail(&format!("open {path}: {e}")));
    let log = r
        .to_log()
        .unwrap_or_else(|e| fail(&format!("decode {path}: {e}")));
    let n = r.len().max(1);
    println!("format          sctf v{}", sctm_trace::sctf::SCTF_VERSION);
    println!("records         {}", r.len());
    println!("capture net     {}", r.capture_net());
    println!("capture exec    {}", r.capture_exec_time());
    println!(
        "container       {} B ({:.1} B/record)",
        r.byte_len(),
        r.byte_len() as f64 / n as f64
    );
    println!("deps            {} edges", log.dep_csr().1.len());
}

fn cmd_verify(args: &[String]) {
    let pos = positionals(args);
    let [path] = pos[..] else { usage() };
    let bytes = std::fs::read(path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
    let log = from_sctf_bytes(&bytes).unwrap_or_else(|e| fail(&format!("load {path}: {e}")));
    // Decode already re-walked the checksum and every section bound;
    // prove the columns also reassemble into the exact container read.
    if to_sctf_bytes(&log) != bytes {
        fail(&format!(
            "{path}: container decodes but does not re-encode byte-identically"
        ));
    }
    println!("ok: {} records, {} bytes, {path}", log.len(), bytes.len());
}

fn cmd_replay(args: &[String]) {
    let pos = positionals(args);
    let [path] = pos[..] else { usage() };
    let log = load(path);
    let kind = NetworkKind::from_label(flag_str(args, "--net").unwrap_or("omesh"))
        .unwrap_or_else(|e| fail(&format!("{e}")));
    let side: usize = flag(args, "--side").unwrap_or_else(|| infer_side(&log));
    let engine = flag_str(args, "--engine").unwrap_or("oracle");
    let mut net = SystemConfig::make_network_kind(side, kind);
    let r = match engine {
        "fixed" => replay_fixed(&log, net.as_mut())
            .unwrap_or_else(|batches| fail(&SctmError::BudgetExhausted { batches }.to_string())),
        "sctm" => replay_sctm_pass(&log, net.as_mut()),
        "oracle" => replay_oracle(&log, net.as_mut()),
        other => fail(&format!("unknown engine {other:?}")),
    };
    // Deterministic manifest: same trace + same flags must print the
    // same line, whatever path the container took to get here.
    println!(
        "{{\"records\":{},\"engine\":\"{engine}\",\"net\":\"{}\",\"side\":{side},\"est_exec_ps\":{},\"timeline_fnv64\":\"{:016x}\"}}",
        log.len(),
        kind.label(),
        r.est_exec_time.as_ps(),
        timeline_digest(&r)
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let rest = &args[1..];
    match cmd.as_str() {
        "capture" => cmd_capture(rest),
        "export" => cmd_export(rest),
        "inspect" => cmd_inspect(rest),
        "verify" => cmd_verify(rest),
        "replay" => cmd_replay(rest),
        _ => usage(),
    }
}
