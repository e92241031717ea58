//! The sctf binary trace container's end-to-end contract: round-tripping
//! a capture through the container is lossless, replaying a decoded
//! trace is bit-identical to replaying the original on every detailed
//! network model, and a container written while the format still stored
//! a children CSR, a kind and a `prev` per record loads as the same trace
//! it re-encodes to.

use proptest::prelude::*;
use sctm::prelude::*;
use sctm_engine::net::NetworkModel;
use sctm_trace::sctf::{encoded_size, from_sctf_bytes, to_sctf_bytes};
use sctm_trace::{replay_fixed, replay_oracle, replay_sctm_pass, SctfReader, TraceError, TraceLog};

fn capture(side: usize, kernel: Kernel, ops: usize, seed: u64) -> TraceLog {
    Experiment::new(SystemConfig::new(side, NetworkKind::Omesh), kernel)
        .with_ops(ops)
        .with_seed(seed)
        .capture()
}

fn detailed_net(side: usize, kind: NetworkKind) -> Box<dyn NetworkModel> {
    SystemConfig::make_network_kind(side, kind)
}

/// The full replay timeline as one comparable string: exact inject and
/// deliver instants for every message.
fn timeline(r: &sctm_trace::ReplayResult) -> String {
    format!(
        "exec={:?} inject={:?} deliver={:?}",
        r.est_exec_time, r.inject, r.deliver
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

    /// Encoding a real capture into the container and decoding it back
    /// reproduces the log exactly: the same trace, field for field.
    #[test]
    fn container_roundtrip_is_lossless(
        seed in 1u64..500,
        ops in 120usize..300,
        kchoice in 0usize..5,
    ) {
        let kernel = [Kernel::Fft, Kernel::Lu, Kernel::Barnes, Kernel::Streamcluster, Kernel::Canneal][kchoice];
        let log = capture(2, kernel, ops, seed);
        let bytes = to_sctf_bytes(&log);
        prop_assert_eq!(bytes.len(), encoded_size(&log), "encoded_size must be exact");
        let back = from_sctf_bytes(&bytes).expect("decode");
        prop_assert!(back == log, "decoded container is not the same trace");
    }

    /// A decoded sctf trace replays to the *bit-identical* timeline the
    /// original produced, on every detailed network model. The
    /// container can therefore stand in for the in-memory log anywhere
    /// in the self-correction loop.
    #[test]
    fn decoded_traces_replay_bit_identically_on_all_detailed_models(
        seed in 1u64..500,
    ) {
        let log = capture(4, Kernel::Fft, 150, seed);
        let back = from_sctf_bytes(&to_sctf_bytes(&log)).expect("decode");
        for kind in NetworkKind::DETAILED {
            for (name, engine) in [
                ("fixed", replay_fixed as fn(&TraceLog, &mut dyn NetworkModel) -> _),
                ("sctm_pass", replay_sctm_pass),
                ("oracle", replay_oracle),
            ] {
                let a = engine(&log, detailed_net(4, kind).as_mut());
                let b = engine(&back, detailed_net(4, kind).as_mut());
                prop_assert_eq!(
                    timeline(&a),
                    timeline(&b),
                    "{} replay diverged on {}",
                    name,
                    kind.label()
                );
            }
        }
    }
}

/// Footprint guarantee on a 64-core fft capture: the container is at
/// most half of what the parsed log costs in memory. The parsed form is
/// columnar (55 B/record) and the container stores each field
/// once (~24 B/record), so the ratio is ~0.43 here.
#[test]
fn sctf_is_at_most_half_the_parsed_log_at_64_cores() {
    let log = capture(8, Kernel::Fft, 300, 1);
    let sctf = encoded_size(&log);
    let resident = log.resident_bytes();
    assert!(
        sctf * 2 <= resident,
        "sctf {sctf} B vs parsed-log {resident} B resident: ratio {:.2}",
        sctf as f64 / resident as f64
    );
    // The reader holds exactly the container, never a per-record
    // materialization.
    let container = to_sctf_bytes(&log);
    let reader = SctfReader::from_bytes(&container).expect("reader");
    assert_eq!(reader.byte_len(), sctf);
}

/// A container written while the format still stored the children CSR
/// (flag bit 0 set; `sctf capture OUT --side 2 --kernel fft --ops 64
/// --seed 1` at commit 35b1836) still decodes. It also stores the
/// protocol kind and decision-order `prev` columns the format dropped
/// later. Re-encoding it is exactly those four sections shorter, and
/// the re-encoding decodes to the same trace. No fresh capture is compared,
/// so a change to what captures produce leaves this test standing.
#[test]
fn a_container_with_the_children_csr_still_loads() {
    let legacy = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/legacy_csr.sctf"
    ))
    .expect("read the legacy container");
    assert_eq!(legacy[13] & 1, 1, "the legacy container stores the CSR");
    let log = from_sctf_bytes(&legacy).expect("legacy container decodes");
    let edges = log.dep_csr().1.len();
    assert_eq!((legacy.len(), log.len(), edges), (24_184, 656, 836));
    let table_len = |sec: usize| {
        let at = 48 + sec * 16 + 8;
        u64::from_le_bytes(legacy[at..at + 8].try_into().unwrap()) as usize
    };
    let pad8 = |x: usize| x.div_ceil(8) * 8;
    let (csr_off, csr_adj) = (table_len(10), table_len(11));
    assert_eq!((csr_off, csr_adj), (4 * (log.len() + 1), 4 * edges));
    let (kind, prev) = (table_len(4), table_len(5));
    assert_eq!((kind, prev), (log.len(), 4 * log.len()));
    let fresh = to_sctf_bytes(&log);
    let dropped: usize = [csr_off, csr_adj, kind, prev].map(pad8).iter().sum();
    assert_eq!(fresh.len(), legacy.len() - dropped);
    assert!(from_sctf_bytes(&fresh).expect("re-encoding decodes") == log);
}

/// A trace has one encoding on disk: `save` writes an sctf container
/// whatever the file is called, `load` reads it back as the same trace,
/// and a text file — the `sctm-trace-v2` export included — does not
/// load.
#[test]
fn save_writes_sctf_under_any_name_and_load_reads_only_sctf() {
    let dir = std::env::temp_dir().join(format!("sctm-fmt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let log = capture(2, Kernel::Fft, 120, 7);
    for name in ["a.sctf", "a.trace.csv"] {
        let path = dir.join(name);
        log.save(&path).expect("save");
        let bytes = std::fs::read(&path).expect("read");
        assert_eq!(bytes, to_sctf_bytes(&log), "{name} is not the container");
        assert!(TraceLog::load(&path).expect("load") == log, "{name}");
    }
    let text = dir.join("b.trace.csv");
    std::fs::write(&text, "sctm-trace-v2,omesh,0\nid,src,dst\n").expect("write");
    assert_eq!(TraceLog::load(&text).err(), Some(TraceError::BadMagic));
    let _ = std::fs::remove_dir_all(&dir);
}
