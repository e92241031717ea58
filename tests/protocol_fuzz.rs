//! Protocol fuzzing, two layers:
//!
//! 1. Coherence: random multi-core op streams over a small, highly
//!    contended line set must always run to completion (no lost
//!    wakeups, no leaked transactions) and pass the end-of-run MESI
//!    validation built into `CmpSim::run`, on every interconnect.
//! 2. Wire: the client's response frames must decode *totally* — any
//!    malformed, truncated, or hostile line is a typed error, never a
//!    panic — and a producer that dies never poisons the capture
//!    cache's single-flight pending slot.

use proptest::prelude::*;
use sctm::{NetworkKind, SystemConfig};
use sctm_cmp::protocol::{Op, Workload};
use sctm_cmp::{CmpConfig, CmpSim, NullHook};

/// A fully random workload over a tiny line set (maximum contention).
#[derive(Debug)]
struct FuzzWorkload {
    streams: Vec<Vec<Op>>,
    pos: Vec<usize>,
}

impl Workload for FuzzWorkload {
    fn num_cores(&self) -> usize {
        self.streams.len()
    }
    fn name(&self) -> &'static str {
        "fuzz"
    }
    fn next_op(&mut self, core: usize) -> Op {
        let i = self.pos[core];
        self.pos[core] += 1;
        self.streams[core].get(i).copied().unwrap_or(Op::Halt)
    }
}

/// Strategy: per core, a sequence of ops hammering `lines` shared lines
/// (plus barriers at aligned script positions so they stay global).
fn fuzz_workload(cores: usize, len: usize, lines: u64) -> impl Strategy<Value = FuzzWorkload> {
    let op = prop_oneof![
        3 => (0..lines).prop_map(|l| Op::Load(l * 64)),
        3 => (0..lines).prop_map(|l| Op::Store(l * 64)),
        1 => (1u64..40).prop_map(Op::Compute),
    ];
    let stream = prop::collection::vec(op, len..len + 1);
    prop::collection::vec(stream, cores..cores + 1).prop_map(move |mut streams| {
        // Insert two global barriers at fixed positions.
        for s in streams.iter_mut() {
            s.insert(len / 3, Op::Barrier(0));
            s.insert(2 * len / 3, Op::Barrier(1));
        }
        FuzzWorkload {
            pos: vec![0; streams.len()],
            streams,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// 4 cores, 8 shared lines: every interleaving of loads and stores
    /// must terminate with a coherent directory.
    #[test]
    fn random_contended_streams_terminate_coherently(
        w in fuzz_workload(4, 80, 8),
        net_choice in 0usize..3,
    ) {
        let kind = [NetworkKind::Emesh, NetworkKind::Omesh, NetworkKind::Oxbar][net_choice];
        let cfg = CmpConfig::tiled(2);
        let net = SystemConfig::make_network_kind(2, kind);
        let mut sim = CmpSim::new(cfg, net, Box::new(w));
        // `run` asserts: all cores halted, no in-flight messages, no
        // leaked directory transactions, MESI invariants hold.
        let r = sim.run(&mut NullHook);
        prop_assert!(r.exec_time.as_ps() > 0);
        prop_assert_eq!(r.messages_injected, r.messages_delivered);
    }

    /// Single-line torture: every core hammers ONE line with stores —
    /// the worst possible invalidation/fetch ping-pong.
    #[test]
    fn single_line_store_storm(seed_ops in prop::collection::vec(0u8..2, 40..120)) {
        struct Storm {
            script: Vec<Op>,
            pos: Vec<usize>,
        }
        impl Workload for Storm {
            fn num_cores(&self) -> usize {
                self.pos.len()
            }
            fn name(&self) -> &'static str {
                "storm"
            }
            fn next_op(&mut self, core: usize) -> Op {
                let i = self.pos[core];
                self.pos[core] += 1;
                self.script.get(i).copied().unwrap_or(Op::Halt)
            }
        }
        let script: Vec<Op> = seed_ops
            .iter()
            .map(|&b| if b == 0 { Op::Load(0) } else { Op::Store(0) })
            .collect();
        let cfg = CmpConfig::tiled(2);
        let net = SystemConfig::make_network_kind(2, NetworkKind::Emesh);
        let mut sim = CmpSim::new(cfg, net, Box::new(Storm { script, pos: vec![0; 4] }));
        let r = sim.run(&mut NullHook);
        prop_assert!(r.messages_injected > 0);
    }
}

#[test]
fn wide_fan_invalidation_storm_terminates() {
    // All 16 cores read one line (16 sharers), then all store it in
    // turn: repeated full-width invalidation broadcasts.
    struct Wide {
        pos: Vec<usize>,
    }
    impl Workload for Wide {
        fn num_cores(&self) -> usize {
            self.pos.len()
        }
        fn name(&self) -> &'static str {
            "wide"
        }
        fn next_op(&mut self, core: usize) -> Op {
            let i = self.pos[core];
            self.pos[core] += 1;
            match i {
                0..=4 => Op::Load((i as u64) * 64),
                5 => Op::Barrier(0),
                6..=10 => Op::Store(((i - 6) as u64) * 64),
                11 => Op::Barrier(1),
                12..=16 => Op::Load(((i - 12) as u64) * 64),
                _ => Op::Halt,
            }
        }
    }
    for kind in NetworkKind::DETAILED {
        let cfg = CmpConfig::tiled(4);
        let net = SystemConfig::make_network_kind(4, kind);
        let mut sim = CmpSim::new(cfg, net, Box::new(Wide { pos: vec![0; 16] }));
        let r = sim.run(&mut NullHook);
        assert!(r.messages_injected > 100, "{}", kind.label());
    }
}

// ---------------------------------------------------------------------
// Wire-protocol fuzz: client frames.
// ---------------------------------------------------------------------

mod wire_fuzz {
    use proptest::prelude::*;
    use sctm_srv::cache::{CaptureCache, CaptureKey};

    /// Strategy: a string drawn from `charset` with a length in `len`
    /// (the vendored proptest has no regex strategies, so charsets are
    /// spelled out).
    fn chars(charset: &'static str, len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
        let bytes = charset.as_bytes();
        prop::collection::vec(0usize..bytes.len(), len)
            .prop_map(move |ix| ix.into_iter().map(|i| bytes[i] as char).collect())
    }

    /// Strategy: arbitrary bytes decoded lossily — printable JSON
    /// punctuation, control bytes, and U+FFFD replacements all appear.
    fn raw(len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
        prop::collection::vec(0u8..255, len).prop_map(|b| String::from_utf8_lossy(&b).into_owned())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

        /// The client's frame classifier is total on arbitrary lines.
        #[test]
        fn client_frames_never_panic(frame in raw(0..200)) {
            let _ = sctm_client::parse_response(&frame);
        }

        /// The client's JSON field scanners are total.
        #[test]
        fn client_wire_scanners_are_total(
            doc in raw(0..200),
            field in chars("abcdefghijklmnopqrstuvwxyz_", 1..12),
        ) {
            let _ = sctm_client::wire::json_str_field(&doc, &field);
            let _ = sctm_client::wire::json_u64_field(&doc, &field);
        }
    }

    /// A *panicking* producer must release the pending slot via the drop
    /// guard so the next request can retry: the slot is never poisoned.
    #[test]
    fn panicking_producers_release_the_pending_slot() {
        let cache = CaptureCache::new(16 << 20);
        let key = CaptureKey::new("fft", 2, 100, 1);

        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_capture(key, || panic!("producer died"))
        }));
        assert!(panicked.is_err());

        // The slot is free: a healthy producer wins it immediately and
        // later callers hit.
        let log = sctm::Experiment::new(
            sctm::SystemConfig::new(2, sctm::NetworkKind::Omesh),
            sctm::workloads::Kernel::Fft,
        )
        .with_ops(100)
        .capture();
        let (_, hit) = cache.get_or_capture(key, || log.clone());
        assert!(!hit, "slot was poisoned: healthy producer never ran");
        let (again, hit) = cache.get_or_capture(key, || unreachable!("must hit"));
        assert!(hit);
        assert!(*again == log);
    }
}

// ---------------------------------------------------------------------
// sctf container fuzz: the binary trace format's decoder must be total
// — truncations, bit flips, endianness games, and future versions are
// always typed `TraceError`s, never panics or silent misreads.
// ---------------------------------------------------------------------

mod sctf_fuzz {
    use proptest::prelude::*;
    use sctm_trace::sctf::{from_sctf_bytes, to_sctf_bytes, SCTF_MAGIC, SCTF_VERSION};
    use sctm_trace::{SctfReader, TraceError};

    /// A real (small) capture encoded into a valid container.
    fn valid_container() -> Vec<u8> {
        use sctm::workloads::Kernel;
        use sctm::{Experiment, NetworkKind, SystemConfig};
        let log = Experiment::new(SystemConfig::new(2, NetworkKind::Omesh), Kernel::Fft)
            .with_ops(100)
            .capture();
        to_sctf_bytes(&log)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

        /// Every truncation of a valid container is a typed error.
        #[test]
        fn truncated_containers_are_typed_errors(frac in 0.0f64..1.0) {
            let buf = valid_container();
            let cut = ((buf.len() as f64) * frac) as usize;
            if cut < buf.len() {
                prop_assert!(from_sctf_bytes(&buf[..cut]).is_err(), "cut={cut}");
                prop_assert!(SctfReader::from_bytes(&buf[..cut]).is_err(), "cut={cut}");
            }
        }

        /// Any single flipped byte is caught: by the magic check, the
        /// version gate, or the whole-buffer checksum. No flip decodes.
        #[test]
        fn any_single_byte_flip_is_a_typed_error(frac in 0.0f64..1.0, bit in 0u8..8) {
            let mut buf = valid_container();
            let at = (((buf.len() - 1) as f64) * frac) as usize;
            buf[at] ^= 1 << bit;
            prop_assert!(from_sctf_bytes(&buf).is_err(), "flip at {at} bit {bit}");
        }

        /// Arbitrary bytes behind a valid magic never panic the decoder
        /// (and never decode: the checksum would have to collide).
        #[test]
        fn magic_plus_garbage_never_panics(tail in prop::collection::vec(0usize..256, 0..300)) {
            let tail: Vec<u8> = tail.into_iter().map(|b| b as u8).collect();
            let mut buf = SCTF_MAGIC.to_vec();
            buf.extend_from_slice(&tail);
            prop_assert!(from_sctf_bytes(&buf).is_err());
        }

        /// Future (and byte-swapped, i.e. wrong-endian) version words
        /// are version skew, reported before any checksum arithmetic.
        #[test]
        fn future_versions_are_version_skew(v in (SCTF_VERSION + 1)..u32::MAX) {
            let mut buf = valid_container();
            buf[8..12].copy_from_slice(&v.to_le_bytes());
            match from_sctf_bytes(&buf) {
                Err(TraceError::VersionSkew { found }) => prop_assert_eq!(found, v),
                other => prop_assert!(false, "expected version skew, got {other:?}"),
            }
        }
    }

    /// A wrong-endian (byte-swapped) record count cannot sneak past the
    /// checksum, and a big-endian writer's version word reads as skew.
    #[test]
    fn wrong_endian_counts_and_versions_are_rejected() {
        let mut buf = valid_container();
        // Record count lives at [16..24) (DESIGN.md §14.1); byte-swap it.
        let n = u64::from_le_bytes(buf[16..24].try_into().unwrap());
        buf[16..24].copy_from_slice(&n.swap_bytes().to_le_bytes());
        assert!(
            matches!(from_sctf_bytes(&buf), Err(TraceError::BadChecksum { .. })),
            "swapped count must fail the checksum"
        );
        // A big-endian writer would store the version byte-swapped.
        let mut buf = valid_container();
        buf[8..12].copy_from_slice(&SCTF_VERSION.to_be_bytes());
        assert!(matches!(
            from_sctf_bytes(&buf),
            Err(TraceError::VersionSkew { .. })
        ));
    }
}
