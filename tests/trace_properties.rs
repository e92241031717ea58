//! Property-based tests of the trace model's core invariants, driven by
//! randomly parameterised workloads and networks.

use proptest::prelude::*;
use sctm::prelude::*;
use sctm::workloads::{build, WorkloadParams};
use sctm_cmp::{CmpConfig, CmpSim};
use sctm_engine::net::{AnalyticNetwork, NetworkModel};
use sctm_engine::time::SimTime;
use sctm_trace::{
    replay_fixed, replay_oracle, replay_sctm_pass, replay_sctm_pass_ordered, Capture, ReplayResult,
    TraceLog,
};

fn kernel_strategy() -> impl Strategy<Value = Kernel> {
    prop_oneof![
        Just(Kernel::Fft),
        Just(Kernel::Lu),
        Just(Kernel::Barnes),
        Just(Kernel::Streamcluster),
        Just(Kernel::Canneal),
    ]
}

fn capture(kernel: Kernel, ops: usize, seed: u64, per_hop_ps: u64) -> TraceLog {
    let w = build(kernel, WorkloadParams::new(16, ops, seed));
    let cfg = CmpConfig::tiled(4);
    let net = AnalyticNetwork::new(16, SimTime::from_ns(8), SimTime::from_ps(per_hop_ps), 40);
    let mut sim = CmpSim::new(cfg, Box::new(net), Box::new(w));
    let mut cap = Capture::new();
    let res = sim.run(&mut cap);
    cap.finish("analytic", res.exec_time)
}

fn target(per_hop_ps: u64) -> Box<dyn NetworkModel> {
    Box::new(AnalyticNetwork::new(
        16,
        SimTime::from_ns(8),
        SimTime::from_ps(per_hop_ps),
        40,
    ))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// Every capture is structurally valid: dense ids, delivery after
    /// injection, deps delivered before dependants injected.
    #[test]
    fn captures_are_wellformed(
        kernel in kernel_strategy(),
        seed in 1u64..1000,
        ops in 150usize..400,
    ) {
        let log = capture(kernel, ops, seed, 1500);
        prop_assert!(log.len() > 100);
        prop_assert_eq!(log.validate(), Ok(()));
    }

    /// Replay engines conserve messages and never deliver before
    /// injecting, on arbitrary (capture, target) speed mismatches.
    #[test]
    fn replays_conserve_messages(
        kernel in kernel_strategy(),
        seed in 1u64..1000,
        cap_hop in 500u64..4000,
        tgt_hop in 500u64..4000,
    ) {
        let log = capture(kernel, 200, seed, cap_hop);
        for engine in [replay_fixed, replay_sctm_pass, replay_oracle] {
            let mut net = target(tgt_hop);
            let r = engine(&log, net.as_mut());
            prop_assert_eq!(r.inject.len(), log.len());
            prop_assert_eq!(r.deliver.len(), log.len());
            for i in 0..log.len() {
                prop_assert!(r.inject[i] != SimTime::MAX, "msg {} never injected", i);
                prop_assert!(r.deliver[i] >= r.inject[i], "msg {} time travel", i);
            }
        }
    }

    /// On the capture network itself, the self-correcting pass and the
    /// oracle must reconstruct the capture timeline exactly: replaying
    /// a trace where it came from is the identity.
    #[test]
    fn replay_identity_on_capture_network(
        kernel in kernel_strategy(),
        seed in 1u64..1000,
        hop in 500u64..4000,
    ) {
        let log = capture(kernel, 200, seed, hop);
        for engine in [replay_sctm_pass, replay_oracle] {
            let mut net = target(hop);
            let r = engine(&log, net.as_mut());
            for (i, rec) in log.records.iter().enumerate() {
                prop_assert_eq!(
                    r.deliver[i], rec.t_deliver,
                    "msg {} ({}) diverged on identity replay", i, log.kind(i)
                );
            }
        }
    }

    /// The self-correcting pass tracks the target network at least as
    /// well as the classic fixed-timestamp replay (in execution-time
    /// estimate), for any capture/target mismatch.
    #[test]
    fn sctm_not_worse_than_classic(
        seed in 1u64..200,
        tgt_hop in prop_oneof![Just(400u64), Just(4000), Just(8000)],
    ) {
        let cap_hop = 1500u64;
        let log = capture(Kernel::Fft, 200, seed, cap_hop);

        // Execution-driven reference on the target.
        let w = build(Kernel::Fft, WorkloadParams::new(16, 200, seed));
        let mut sim = CmpSim::new(CmpConfig::tiled(4), target(tgt_hop), Box::new(w));
        let reference = sim.run(&mut sctm_cmp::NullHook).exec_time.as_ps() as f64;

        let mut net = target(tgt_hop);
        let classic = replay_fixed(&log, net.as_mut()).est_exec_time.as_ps() as f64;
        let mut net = target(tgt_hop);
        let sctm = replay_sctm_pass(&log, net.as_mut()).est_exec_time.as_ps() as f64;

        let err_c = (classic - reference).abs() / reference;
        let err_s = (sctm - reference).abs() / reference;
        prop_assert!(
            err_s <= err_c + 0.02,
            "sctm {:.1}% vs classic {:.1}% (target hop {})",
            err_s * 100.0, err_c * 100.0, tgt_hop
        );
    }

    /// `Capture::finish` takes a log's arrival order from the sequence
    /// in which its hook saw the deliveries, sorting only runs of equal
    /// instants. It must come out as the plain sort by
    /// `(t_deliver, id)`.
    #[test]
    fn captured_arrival_order_is_the_plain_sort(
        kernel in kernel_strategy(),
        seed in 1u64..1000,
    ) {
        let log = Experiment::new(SystemConfig::new(4, NetworkKind::Omesh), kernel)
            .with_ops(200)
            .with_seed(seed)
            .capture();
        let mut want: Vec<u32> = (0..log.len() as u32).collect();
        want.sort_by_key(|&i| (log.records[i as usize].t_deliver, i));
        prop_assert_eq!(log.arrival_order(), &want[..]);
        prop_assert_eq!(log.validate(), Ok(()));
    }

    /// Arrival gates are causal: the gate of every departure delivered
    /// at or before the departure, in capture time.
    #[test]
    fn arrival_gates_are_causal(
        kernel in kernel_strategy(),
        seed in 1u64..1000,
    ) {
        let log = capture(kernel, 200, seed, 1500);
        let gates = log.arrival_gates();
        for (i, g) in gates.iter().enumerate() {
            if let Some(g) = g {
                prop_assert!(
                    log.rec(*g).t_deliver <= log.records[i].t_inject,
                    "gate of msg {} delivered after its departure", i
                );
                prop_assert_eq!(
                    log.rec(*g).msg.dst, log.records[i].msg.src,
                    "gate of msg {} arrived at a different node", i
                );
            }
        }
    }
}

#[test]
fn trace_survives_full_self_correction_loop_on_detailed_networks() {
    // Non-proptest smoke over the real optical networks (slower).
    for kind in [NetworkKind::Omesh, NetworkKind::Oxbar] {
        let e = Experiment::new(SystemConfig::new(4, kind), Kernel::Barnes).with_ops(200);
        let r = e
            .execute(&RunSpec::self_correction(3))
            .expect("valid spec")
            .report;
        let iters = r.iterations.as_ref().unwrap();
        assert!(!iters.is_empty());
        assert!(iters.iter().all(|s| s.messages > 100));
        assert!(r.exec_time > SimTime::ZERO);
    }
}

fn fnv1a(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over a replay's whole timeline: every injection, every
/// delivery, the estimate.
fn timeline_hash(r: &ReplayResult) -> u64 {
    r.inject
        .iter()
        .chain(&r.deliver)
        .chain([&r.est_exec_time])
        .fold(0xcbf2_9ce4_8422_2325, |h, t| fnv1a(h, t.as_ps()))
}

fn same_timeline(a: &ReplayResult, b: &ReplayResult, what: &str) {
    assert_eq!(a.inject, b.inject, "{what}: inject");
    assert_eq!(a.deliver, b.deliver, "{what}: deliver");
    assert_eq!(a.est_exec_time, b.est_exec_time, "{what}: estimate");
}

/// Per kernel, `timeline_hash` of `replay_sctm_pass_ordered` on each of
/// [`NetworkKind::DETAILED`], in that order, generated on commit a4a41cf — the parent of the plan/state split,
/// where the ordered variant was a flag into `prepare_gated` — with
/// `GOLDEN_PRINT=1 cargo test --test trace_properties gate_plan --
/// --nocapture`. The ordered pass shares the plan builder and the event
/// loop with the default one and differs only in which messages start
/// out waiting on their predecessor.
const ORDERED_GOLDEN: [(Kernel, [u64; 5]); 3] = [
    (
        Kernel::Fft,
        [
            0xf237_3173_16c4_d345,
            0x1185_b769_7fb6_9cfb,
            0xa93b_8a08_e350_7827,
            0xd7ba_5014_9dc2_a278,
            0x3709_d9e7_fb66_f2cb,
        ],
    ),
    (
        Kernel::Lu,
        [
            0xe5f6_09e4_2193_f90a,
            0x78db_d18a_10e3_a333,
            0xaaa8_2b89_2e30_3bdc,
            0x2808_da30_8dc7_1c82,
            0xd116_cf1b_7b40_0b6e,
        ],
    ),
    (
        Kernel::Canneal,
        [
            0x4df3_a911_7484_c55f,
            0xb0c2_e7de_3f44_4986,
            0x1749_fab3_9dee_4769,
            0xe29b_a9d2_b7c6_a655,
            0x94e1_fc6d_b67a_09d2,
        ],
    ),
];

/// One plan, however a pass comes by it: built and memoised by the
/// first pass over a log, read back by the second — same timeline. The
/// ordered variant builds its own plan every time and stays on its pins.
#[test]
fn gate_plan_is_the_same_built_or_memoised_and_the_ordered_pass_is_pinned() {
    let print = std::env::var_os("GOLDEN_PRINT").is_some();
    for (kernel, ordered_golden) in ORDERED_GOLDEN {
        let log = Experiment::new(SystemConfig::new(4, NetworkKind::Omesh), kernel)
            .with_ops(160)
            .capture();
        for (kind, want) in NetworkKind::DETAILED.into_iter().zip(ordered_golden) {
            let net = || SystemConfig::make_network_kind(4, kind);
            let what = format!("{} on {}", kernel.label(), kind.label());
            // A clone made before the first pass has no plan yet.
            let fresh = log.clone();
            let miss = replay_sctm_pass(&fresh, net().as_mut());
            let hit = replay_sctm_pass(&fresh, net().as_mut());
            same_timeline(&miss, &hit, &what);

            let ordered = timeline_hash(&replay_sctm_pass_ordered(&log, net().as_mut()));
            if print {
                println!("{what}: {ordered:#018x},");
            } else {
                assert_eq!(ordered, want, "{what}: ordered pass moved");
            }
        }
    }
}

/// Four threads race the first pass over one shared log, each on its
/// own network: whoever builds the plan, every thread reads a whole
/// one, and the answers are the serial ones.
#[test]
fn concurrent_first_passes_over_one_log_agree_with_serial() {
    const KINDS: [NetworkKind; 4] = [
        NetworkKind::Omesh,
        NetworkKind::Oxbar,
        NetworkKind::Hybrid,
        NetworkKind::Emesh,
    ];
    let log = std::sync::Arc::new(
        Experiment::new(SystemConfig::new(4, NetworkKind::Omesh), Kernel::Fft)
            .with_ops(160)
            .capture(),
    );
    let serial = log.as_ref().clone();
    let start = std::sync::Barrier::new(KINDS.len());
    let raced: Vec<ReplayResult> = std::thread::scope(|s| {
        let handles: Vec<_> = KINDS
            .iter()
            .map(|&kind| {
                let (log, start) = (std::sync::Arc::clone(&log), &start);
                s.spawn(move || {
                    let mut net = SystemConfig::make_network_kind(4, kind);
                    start.wait();
                    replay_sctm_pass(&log, net.as_mut())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (kind, raced) in KINDS.into_iter().zip(&raced) {
        let mut net = SystemConfig::make_network_kind(4, kind);
        let want = replay_sctm_pass(&serial, net.as_mut());
        same_timeline(raced, &want, kind.label());
    }
}
