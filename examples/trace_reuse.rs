//! Trace persistence: capture once, save to disk, reload, and replay
//! the same trace against several target networks — the workflow the
//! trace model exists for (the capture is the expensive part).
//!
//! ```text
//! cargo run --release --example trace_reuse
//! ```

use sctm::engine::table::{fnum, Table};
use sctm::prelude::*;
use sctm::trace::replay_sctm_pass;

fn main() {
    let exp =
        Experiment::new(SystemConfig::new(4, NetworkKind::Omesh), Kernel::Barnes).with_ops(500);

    // 1. One full-system capture on the analytic model...
    eprintln!("capturing...");
    let t0 = std::time::Instant::now();
    let log = exp.capture();
    eprintln!(
        "captured {} messages in {:?} (exec time {})",
        log.len(),
        t0.elapsed(),
        log.capture_exec_time
    );

    // 2. ...saved as a checksummed `sctf` container (DESIGN.md §14)...
    let sctf_path = std::env::temp_dir().join("sctm_barnes_16c.sctf");
    log.save(&sctf_path).expect("save sctf trace");
    let size = std::fs::metadata(&sctf_path).map(|m| m.len()).unwrap_or(0);
    eprintln!(
        "saved {} ({:.2} MiB)",
        sctf_path.display(),
        size as f64 / (1 << 20) as f64
    );

    // 3. ...reloaded (possibly by another process, days later). The
    // container also supports header-only inspection without
    // materializing records.
    let reader = sctm::trace::SctfReader::open(&sctf_path).expect("open sctf");
    eprintln!(
        "sctf: {} records on {} (capture exec {})",
        reader.len(),
        reader.capture_net(),
        reader.capture_exec_time()
    );
    let reloaded = TraceLog::load(&sctf_path).expect("load trace");
    assert!(reloaded == log, "the container decodes to the same trace");
    let log = reloaded;

    // 4. ...and replayed against every detailed interconnect.
    let mut t = Table::new(
        "One capture, five targets (self-correcting replay)",
        &[
            "target",
            "est exec time",
            "mean data lat (ns)",
            "replay wall (ms)",
        ],
    );
    for kind in NetworkKind::DETAILED {
        let t0 = std::time::Instant::now();
        let mut net = SystemConfig::make_network_kind(4, kind);
        let r = replay_sctm_pass(&log, net.as_mut());
        t.row(&[
            kind.label().to_string(),
            r.est_exec_time.to_string(),
            fnum(r.mean_latency_ns(&log, Some(sctm::engine::net::MsgClass::Data))),
            fnum(t0.elapsed().as_secs_f64() * 1e3),
        ]);
    }
    println!("{}", t.render());
    let _ = std::fs::remove_file(sctf_path);
}
