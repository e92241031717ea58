//! The sctf binary trace container's end-to-end contract (PR10
//! tentpole): round-tripping a capture through the container is
//! lossless, replaying a decoded trace is bit-identical to replaying
//! the original on every detailed network model, and the children CSR
//! the container stores is exactly the log's dependency lists inverted.

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

    /// The children CSR the container stores equals the inversion of
    /// `TraceLog::dep_csr()` built here on demand: message `i`'s row
    /// lists, ascending, every record whose dependency list names `i`.
    #[test]
    fn preinstalled_csr_matches_on_demand_build(seed in 1u64..500) {
        let log = capture(2, Kernel::Lu, 150, seed);
        let reader = SctfReader::from_bytes(&to_sctf_bytes(&log)).expect("reader");
        let (off, adj) = reader.children_csr().expect("v1 writer always stores the CSR");
        let mut children = vec![Vec::new(); log.len()];
        for i in 0..log.len() {
            for &d in log.deps(i) {
                children[d as usize].push(i as u32);
            }
        }
        prop_assert_eq!((off.len(), adj.len()), (log.len() + 1, log.dep_csr().1.len()));
        for (i, want) in children.iter().enumerate() {
            prop_assert_eq!(&adj[off[i] as usize..off[i + 1] as usize], &want[..], "row {}", i);
        }
    }
}

/// Footprint guarantee on a 64-core fft capture: the zero-copy
/// reader's resident bytes stay below what the parsed log costs in
/// memory. The parsed form is itself columnar since the 40-byte trace
/// rows (58 B/record against the container's 38), so the ratio is 0.66
/// here; it was 0.35 against 96-byte rows with a heap `Vec` of
/// dependencies each.
#[test]
fn sctf_is_at_most_three_quarters_of_the_parsed_log_at_64_cores() {
    let log = capture(8, Kernel::Fft, 300, 1);
    let sctf = encoded_size(&log);
    let resident = log.resident_bytes();
    assert!(
        sctf * 4 <= resident * 3,
        "sctf {sctf} B vs parsed-log {resident} B resident: ratio {:.2}",
        sctf as f64 / resident as f64
    );
    // The reader holds exactly the container (plus alignment slack),
    // never a per-record materialization.
    let reader = SctfReader::from_bytes(&to_sctf_bytes(&log)).expect("reader");
    assert_eq!(reader.byte_len(), sctf);
}

/// A trace has one encoding on disk: `save` writes an sctf container
/// whatever the file is called, `load` reads it back as the same trace,
/// and a text file — the `sctm-trace-v1` export included — does not
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
    std::fs::write(&text, "sctm-trace-v1,omesh,0\nid,src,dst\n").expect("write");
    assert_eq!(TraceLog::load(&text).err(), Some(TraceError::BadMagic));
    let _ = std::fs::remove_dir_all(&dir);
}
