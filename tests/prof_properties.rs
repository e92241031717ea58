//! Property-based tests of the causal-profiling layer: the exact-sum
//! lifecycle invariant on every detailed network model, and the
//! bracketing invariants of the critical path on real profiled runs.

use proptest::prelude::*;
use sctm::prelude::*;
use sctm_engine::net::{Message, MsgClass, MsgId, NodeId};
use sctm_engine::rng::StreamRng;
use sctm_engine::time::SimTime;
use sctm_prof as prof;

fn random_traffic(nodes: usize, count: usize, seed: u64) -> Vec<(SimTime, Message)> {
    let mut rng = StreamRng::new(seed);
    (0..count as u64)
        .map(|i| {
            let src = rng.below(nodes as u64) as u32;
            let dst = rng.below(nodes as u64) as u32;
            let data = rng.chance(0.5);
            (
                SimTime::from_ns(rng.below(2_000)),
                Message {
                    id: MsgId(i),
                    src: NodeId(src),
                    dst: NodeId(dst),
                    class: if data {
                        MsgClass::Data
                    } else {
                        MsgClass::Control
                    },
                    bytes: if data { 72 } else { 8 },
                },
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// On every detailed network model, the five latency components of
    /// each captured lifecycle sum *exactly* to the measured end-to-end
    /// latency — no picosecond is unaccounted for or double-counted.
    #[test]
    fn lifecycle_components_sum_exactly_on_every_model(
        seed in 1u64..10_000,
        count in 100usize..500,
    ) {
        let msgs = random_traffic(16, count, seed);
        for kind in NetworkKind::DETAILED {
            let mut net = SystemConfig::make_network_kind(4, kind);
            net.set_lifecycle_capture(true);
            prop_assert!(net.lifecycle_capture(), "{} ignores capture", kind.label());
            for &(t, m) in &msgs {
                net.inject(t, m);
            }
            let mut out = Vec::new();
            net.drain(&mut out);
            let mut lifecycles = Vec::new();
            net.take_lifecycles(&mut lifecycles);
            prop_assert_eq!(
                lifecycles.len(),
                out.len(),
                "{}: lifecycle count != delivery count",
                kind.label()
            );
            for lc in &lifecycles {
                prop_assert_eq!(
                    lc.breakdown.total_ps(),
                    lc.latency_ps(),
                    "{}: msg {:?} components {:?} don't sum to latency",
                    kind.label(),
                    lc.msg.id,
                    lc.breakdown
                );
                prop_assert!(lc.delivered_at > lc.injected_at);
            }
        }
    }

    /// Blame aggregation is exact: per-class totals equal the sum of
    /// the individual lifecycles they aggregate.
    #[test]
    fn aggregate_blame_is_exact(seed in 1u64..10_000) {
        let msgs = random_traffic(16, 300, seed);
        let mut net = SystemConfig::make_network_kind(4, NetworkKind::Omesh);
        net.set_lifecycle_capture(true);
        for &(t, m) in &msgs {
            net.inject(t, m);
        }
        let mut out = Vec::new();
        net.drain(&mut out);
        let mut lifecycles = Vec::new();
        net.take_lifecycles(&mut lifecycles);
        let classes = prof::analyze::aggregate(&lifecycles);
        let total_msgs: u64 = classes.iter().map(|c| c.messages).sum();
        let total_lat: u64 = classes.iter().map(|c| c.latency_ps).sum();
        prop_assert_eq!(total_msgs, lifecycles.len() as u64);
        prop_assert_eq!(
            total_lat,
            lifecycles.iter().map(|l| l.latency_ps()).sum::<u64>()
        );
        for c in &classes {
            prop_assert_eq!(c.latency_ps, c.breakdown.total_ps());
        }
    }
}

/// The critical path on a real profiled run is bracketed: at least as
/// long as the slowest single message (a path of length one always
/// exists) and no longer than the whole drain (the path is a causal
/// chain inside the run).
#[test]
fn critical_path_brackets_on_real_runs() {
    for kind in [NetworkKind::Omesh, NetworkKind::Oxbar, NetworkKind::Emesh] {
        let exp = Experiment::new(SystemConfig::new(4, kind), Kernel::Fft).with_ops(200);
        let log = exp.capture();
        let spec = RunSpec::self_correction(1).replay_only().profiled();
        let profile = exp
            .execute_seeded(&spec, Some(&log))
            .expect("valid spec")
            .profile
            .expect("profiled run returns artefacts");
        assert!(!profile.lifecycles.is_empty(), "{}", kind.label());
        let cp = prof::critical_path(&profile.log, &profile.lifecycles);
        let max_single = profile
            .lifecycles
            .iter()
            .map(|l| l.latency_ps())
            .max()
            .unwrap();
        let makespan = profile
            .lifecycles
            .iter()
            .map(|l| l.delivered_at.as_ps())
            .max()
            .unwrap();
        assert!(
            cp.length_ps >= max_single,
            "{}: critical path {} < max single latency {}",
            kind.label(),
            cp.length_ps,
            max_single
        );
        assert!(
            cp.length_ps <= makespan,
            "{}: critical path {} > makespan {}",
            kind.label(),
            cp.length_ps,
            makespan
        );
        assert!(!cp.path.is_empty());
        assert_eq!(cp.length_ps, cp.blame.total_ps() + cp.dep_gap_ps);
    }
}

/// Profiled runs also hand back sampled counter series, and sampling
/// does not perturb the reported execution time.
#[test]
fn profiled_run_samples_series_without_perturbing_results() {
    let exp = Experiment::new(SystemConfig::new(4, NetworkKind::Omesh), Kernel::Fft).with_ops(200);
    let log = exp.capture();
    let spec = RunSpec::self_correction(1).replay_only();
    let bare = exp
        .execute_seeded(&spec, Some(&log))
        .expect("valid spec")
        .report;
    let out = exp
        .execute_seeded(&spec.clone().profiled(), Some(&log))
        .expect("valid spec");
    let (profiled, profile) = (
        out.report,
        out.profile.expect("profiled run returns artefacts"),
    );
    assert_eq!(bare.exec_time, profiled.exec_time);
    assert!(!profile.series.is_empty(), "no counter series captured");
    assert!(profile.series.num_points() > 0);
}
