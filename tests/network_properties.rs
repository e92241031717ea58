//! The conformance checker: one set of properties every interconnect
//! owes its callers, checked on every `NetworkKind` by code that is none
//! of the models' own.
//!
//! [`conform`] drives one load through two fresh models of one kind
//! and checks, on each run:
//!
//! 1. every message is delivered exactly once, at the time it was
//!    injected, with positive latency (loads include self-sends);
//! 2. `stats()` agrees with the deliveries: injected = delivered = the
//!    load, nothing in flight, the bytes, and per class the latency
//!    count, sum, min and max;
//! 3. `next_time()` is `None` once drained;
//!
//! and across the runs:
//!
//! 4. the two runs are identical (determinism).
//!
//! Scopes: random traffic at 4×4 on all six kinds (property tests), and
//! an exhaustive 2×2 scope on all six kinds — every message on its own and every ordered pair, sent
//! together or 1 ns apart.

use proptest::prelude::*;
use sctm::{NetworkKind, SystemConfig};
use sctm_engine::net::{Delivery, Message, MsgClass, MsgId, NetworkModel, NodeId};
use sctm_engine::rng::StreamRng;
use sctm_engine::time::SimTime;

/// Messages with their injection times; message `i` has id `i`.
type Load = [(SimTime, Message)];

/// `(id, injected_at, delivered_at)` in ps, in delivery order.
type Timeline = Vec<(u64, u64, u64)>;

fn message(id: u64, src: u32, dst: u32, data: bool) -> Message {
    Message {
        id: MsgId(id),
        src: NodeId(src),
        dst: NodeId(dst),
        class: if data {
            MsgClass::Data
        } else {
            MsgClass::Control
        },
        bytes: if data { 72 } else { 8 },
    }
}

fn random_traffic(nodes: usize, count: usize, seed: u64) -> Vec<(SimTime, Message)> {
    let mut rng = StreamRng::new(seed);
    (0..count as u64)
        .map(|i| {
            let src = rng.below(nodes as u64) as u32;
            let dst = rng.below(nodes as u64) as u32;
            let data = rng.chance(0.5);
            (
                SimTime::from_ns(rng.below(2_000)),
                message(i, src, dst, data),
            )
        })
        .collect()
}

fn kind(kind: NetworkKind, side: usize) -> impl Fn() -> Box<dyn NetworkModel> {
    move || SystemConfig::make_network_kind(side, kind)
}

/// Inject `load`, then drain. Checks properties 1–3 and returns the
/// timeline.
fn run(make: &dyn Fn() -> Box<dyn NetworkModel>, load: &Load) -> Timeline {
    let mut net = make();
    let label = net.label();
    for &(t, m) in load {
        net.inject(t, m);
    }
    let mut out = Vec::new();
    net.drain(&mut out);
    assert!(net.next_time().is_none(), "{label}: work left once drained");
    check_deliveries(net.as_ref(), load, &out);
    out.iter()
        .map(|d| {
            let (i, t) = (d.msg.id.0, d.injected_at.as_ps());
            (i, t, d.delivered_at.as_ps())
        })
        .collect()
}

/// Properties 1 and 2.
fn check_deliveries(net: &dyn NetworkModel, load: &Load, out: &[Delivery]) {
    let label = net.label();
    assert_eq!(out.len(), load.len(), "{label}: lost or extra deliveries");
    let mut seen = vec![false; load.len()];
    for d in out {
        let i = d.msg.id.0 as usize;
        assert!(!seen[i], "{label}: message {i} delivered twice");
        seen[i] = true;
        let (t, m) = load[i];
        assert_eq!(
            (d.msg.src, d.msg.dst, d.msg.class, d.msg.bytes),
            (m.src, m.dst, m.class, m.bytes),
            "{label}: message {i} came out altered"
        );
        assert_eq!(d.injected_at, t, "{label}: message {i} injection moved");
        assert!(
            d.delivered_at > d.injected_at,
            "{label}: message {i} delivered instantaneously"
        );
    }
    let s = net.stats();
    let n = load.len() as u64;
    assert_eq!(
        (s.injected, s.delivered, s.in_flight()),
        (n, n, 0),
        "{label}"
    );
    let bytes: u64 = load.iter().map(|(_, m)| m.bytes as u64).sum();
    assert_eq!(s.bytes_delivered, bytes, "{label}: bytes");
    for (class, hist) in [
        (MsgClass::Control, &s.ctrl_latency_ps),
        (MsgClass::Data, &s.data_latency_ps),
    ] {
        let lat: Vec<u64> = out
            .iter()
            .filter(|d| d.msg.class == class)
            .map(|d| d.latency().as_ps())
            .collect();
        let got = (hist.count(), hist.sum(), hist.min(), hist.max());
        let want = (
            lat.len() as u64,
            lat.iter().map(|&l| l as u128).sum(),
            lat.iter().copied().min().unwrap_or(got.2),
            lat.iter().copied().max().unwrap_or(got.3),
        );
        assert_eq!(got, want, "{label}: {class:?} latency statistics");
    }
}

/// The whole checker, on one load: properties 1–4.
fn conform(make: &dyn Fn() -> Box<dyn NetworkModel>, load: &Load) {
    let label = make().label();
    assert_eq!(run(make, load), run(make, load), "{label}: rerun");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// The checker under random traffic at 4×4, on every kind.
    #[test]
    fn conservation_and_causality(
        seed in 1u64..10_000,
        count in 100usize..600,
    ) {
        let load = random_traffic(16, count, seed);
        for k in NetworkKind::ALL {
            conform(&kind(k, 4), &load);
        }
    }
}

/// The checker on every kind at 2×2, exhaustively: every message shape
/// `(src, dst, class)` on its own, and every ordered pair of shapes
/// injected together or 1 ns apart.
#[test]
fn every_kind_conforms_exhaustively_at_2x2() {
    let shapes: Vec<(u32, u32, bool)> = (0..4)
        .flat_map(|s| (0..4).flat_map(move |d| [(s, d, false), (s, d, true)]))
        .collect();
    let mut loads: Vec<Vec<(SimTime, Message)>> = shapes
        .iter()
        .map(|&(s, d, data)| vec![(SimTime::ZERO, message(0, s, d, data))])
        .collect();
    for &(s0, d0, data0) in &shapes {
        for &(s1, d1, data1) in &shapes {
            for gap in [SimTime::ZERO, SimTime::from_ns(1)] {
                loads.push(vec![
                    (SimTime::ZERO, message(0, s0, d0, data0)),
                    (gap, message(1, s1, d1, data1)),
                ]);
            }
        }
    }
    assert_eq!(loads.len(), 32 + 32 * 32 * 2);
    for k in NetworkKind::ALL {
        let make = kind(k, 2);
        for load in &loads {
            conform(&make, load);
        }
    }
}

#[test]
fn saturation_behaviour_is_sane_on_all_networks() {
    // Slam each network with far more traffic than it can drain at
    // once; nothing may be lost, and the makespan must exceed the
    // serialisation bound.
    let load: Vec<(SimTime, Message)> = (0..1000u64)
        .map(|i| (SimTime::ZERO, message(i, (i % 15 + 1) as u32, 0, true)))
        .collect();
    for k in NetworkKind::DETAILED {
        let timeline = run(&kind(k, 4), &load);
        let makespan = timeline.iter().map(|&(.., d)| d).max().unwrap();
        // Serialisation bound at the single reader: even the fastest
        // architecture (the crossbar at 640 Gb/s) needs ≥ 900 ps per
        // 72-byte message ⇒ ≥ 0.9 µs for 1000 of them.
        assert!(
            makespan > SimTime::from_ns(850).as_ps(),
            "{}: 1000 hotspot cache lines drained implausibly fast ({makespan} ps)",
            k.label()
        );
    }
}
