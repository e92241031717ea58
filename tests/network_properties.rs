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
//! 5. no latency is below the message's zero-load bound, which
//!    [`zero_load_bound`] derives from the configs, the mesh hop count
//!    and the floorplan's distances, never from a model;
//! 6. on the kinds whose module doc promises it ([`keeps_order`]),
//!    each `(src, dst, class)` flow is delivered in injection order,
//!    ties by id;
//!
//! and across the runs:
//!
//! 4. the two runs are identical (determinism).
//!
//! Scopes: random traffic at 4×4 on all six kinds (property tests), and
//! an exhaustive 2×2 scope on all six kinds — every message on its own and every ordered pair, sent
//! together or 1 ns apart. Every load gives each class one payload
//! size (8 B control, 72 B data), the condition under which the omesh
//! and analytic order promises hold.

use proptest::prelude::*;
use sctm::{NetworkKind, SystemConfig};
use sctm_engine::net::{Delivery, Message, MsgClass, MsgId, NetworkModel, NodeId};
use sctm_engine::rng::StreamRng;
use sctm_engine::time::SimTime;
use sctm_enoc::packet::HEAD_PAYLOAD_BYTES;
use sctm_enoc::{NocConfig, Topology};
use sctm_onoc::{HybridConfig, ObusConfig, OmeshConfig, OxbarConfig};
use std::collections::HashMap;

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

/// Inject `load` into a fresh `kind` model at `side`×`side`, then
/// drain. Checks properties 1–3, 5 and 6 and returns the timeline and
/// the [`Margins`] over the zero-load bound.
fn run(kind: NetworkKind, side: usize, load: &Load) -> (Timeline, Margins) {
    let mut net = SystemConfig::make_network_kind(side, kind);
    let label = net.label();
    for &(t, m) in load {
        net.inject(t, m);
    }
    let mut out = Vec::new();
    net.drain(&mut out);
    assert!(net.next_time().is_none(), "{label}: work left once drained");
    check_deliveries(net.as_ref(), load, &out);
    let margin = check_zero_load_bound(kind, side, &out);
    if keeps_order(kind) {
        check_order(label, load, &out);
    }
    let timeline = out
        .iter()
        .map(|d| {
            let (i, t) = (d.msg.id.0, d.injected_at.as_ps());
            (i, t, d.delivered_at.as_ps())
        })
        .collect();
    (timeline, margin)
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

/// The smallest latency margin over the zero-load bound, in ps, of
/// control and of data messages between two distinct nodes (a
/// self-send's bound is only its NIs).
type Margins = [u64; 2];

/// Property 5: every latency is at least its zero-load bound.
fn check_zero_load_bound(kind: NetworkKind, side: usize, out: &[Delivery]) -> Margins {
    let mut margins = [u64::MAX; 2];
    for d in out {
        let (lat, bound) = (d.latency(), zero_load_bound(kind, side, &d.msg));
        assert!(
            lat >= bound,
            "{}: message {} took {lat}, below its zero-load bound {bound}: {:?}",
            kind.label(),
            d.msg.id.0,
            d.msg
        );
        if d.msg.src != d.msg.dst {
            let m = &mut margins[(d.msg.class == MsgClass::Data) as usize];
            *m = (*m).min((lat - bound).as_ps());
        }
    }
    margins
}

/// Property 6: within each `(src, dst, class)` flow, deliveries come
/// out in injection order, `(injected_at, id)`.
fn check_order(label: &str, load: &Load, out: &[Delivery]) {
    let mut last: HashMap<(NodeId, NodeId, MsgClass), (SimTime, u64)> = HashMap::new();
    for d in out {
        let m = d.msg;
        let key = (load[m.id.0 as usize].0, m.id.0);
        if let Some(prev) = last.insert((m.src, m.dst, m.class), key) {
            assert!(
                prev < key,
                "{label}: message {} overtook message {} of flow {}->{} {:?}",
                prev.1,
                m.id.0,
                m.src,
                m.dst,
                m.class
            );
        }
    }
}

/// The kinds whose module doc promises per-flow order for messages of
/// one size. The emesh, hybrid and oxbar docs say why they do not.
fn keeps_order(kind: NetworkKind) -> bool {
    matches!(
        kind,
        NetworkKind::Omesh | NetworkKind::Obus | NetworkKind::Analytic
    )
}

/// A lower bound on `m`'s latency through `kind` at `side`×`side` with
/// nothing else in the network, from the model's configuration, the
/// XY hop count and the floorplan's waveguide distances. Queueing,
/// arbitration and token waits are the margin above it.
fn zero_load_bound(kind: NetworkKind, side: usize, m: &Message) -> SimTime {
    let hops = Topology::mesh(side, side).hops(m.src, m.dst) as u64;
    match kind {
        NetworkKind::Emesh => emesh_bound(
            &NocConfig {
                topology: Topology::mesh(side, side),
                ..NocConfig::default()
            },
            hops,
            m,
        ),
        NetworkKind::Omesh => omesh_bound(&OmeshConfig::new(side), hops, m),
        NetworkKind::Oxbar => {
            let cfg = OxbarConfig::new(side);
            let ni = cfg.ni_freq.cycles(cfg.ni_cycles);
            if m.src == m.dst {
                return ni.scaled(2);
            }
            let tof = cfg
                .kit
                .waveguide
                .tof_ps(cfg.floorplan.serpentine_distance_mm(m.src, m.dst));
            ni.scaled(2) + cfg.plan.burst_time(m.bytes.max(1)) + SimTime::from_ps(tof)
        }
        NetworkKind::Obus => {
            let cfg = ObusConfig::new(side);
            let ni = cfg.ni_freq.cycles(cfg.ni_cycles);
            if m.src == m.dst {
                return ni.scaled(2);
            }
            let tof = cfg
                .kit
                .waveguide
                .tof_ps(cfg.floorplan.serpentine_distance_mm(m.src, m.dst));
            // Serialised once onto the source's channel and once more
            // through the receiver's ejection port.
            ni.scaled(2) + cfg.plan.burst_time(m.bytes.max(1)).scaled(2) + SimTime::from_ps(tof)
        }
        NetworkKind::Hybrid => {
            let cfg = HybridConfig::new(side);
            if m.bytes >= cfg.policy.min_bytes && hops >= cfg.policy.min_hops as u64 {
                omesh_bound(&cfg.omesh, hops, m)
            } else {
                emesh_bound(&cfg.emesh, hops, m)
            }
        }
        // The latency formula of `SystemConfig::analytic`: 8 ns base,
        // 1.5 ns per hop, 60 ps per byte, with no correction installed.
        NetworkKind::Analytic => SimTime::from_ps(8_000 + 1_500 * hops + 60 * m.bytes as u64),
    }
}

/// The electrical mesh: the source router's pipeline, then per hop a
/// link and a router pipeline, then one cycle per flit through the
/// ejection port.
fn emesh_bound(cfg: &NocConfig, hops: u64, m: &Message) -> SimTime {
    let flits = if m.bytes <= HEAD_PAYLOAD_BYTES {
        1
    } else {
        1 + (m.bytes - HEAD_PAYLOAD_BYTES).div_ceil(cfg.pkt.flit_bytes) as u64
    };
    let per_hop = cfg.router_stages + cfg.link_cycles;
    cfg.freq.cycles(cfg.router_stages + hops * per_hop + flits)
}

/// The photonic mesh: both NIs and the control-plane walk, one wire
/// hop per link. A control message pays a service slot at every router
/// on its path. An optical message is sure of the slot only at its
/// destination: a setup that parks for a busy segment leaves when the
/// segment is handed over, which can fall before its own slot there
/// ends. It adds the ACK's walk back, the time of flight over the
/// Manhattan waveguide and the burst's serialisation.
fn omesh_bound(cfg: &OmeshConfig, hops: u64, m: &Message) -> SimTime {
    let c = |n| cfg.ctrl_freq.cycles(n);
    let wire = c(2 * cfg.ni_cycles + hops * cfg.setup_hop_cycles);
    if m.bytes <= cfg.ctrl_cutoff_bytes || m.class == MsgClass::Control || m.src == m.dst {
        return wire + c((hops + 1) * cfg.service_cycles);
    }
    let tof = cfg
        .kit
        .waveguide
        .tof_ps(cfg.floorplan.mesh_distance_mm(m.src, m.dst));
    wire + c(cfg.service_cycles + hops * cfg.setup_hop_cycles)
        + SimTime::from_ps(tof)
        + cfg.plan.burst_time(m.bytes)
}

/// The whole checker, on one load: properties 1–6. Returns the run's
/// zero-load margins.
fn conform(kind: NetworkKind, side: usize, load: &Load) -> Margins {
    let (first, margin) = run(kind, side, load);
    let (second, _) = run(kind, side, load);
    assert_eq!(first, second, "{}: rerun", kind.label());
    margin
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
            conform(k, 4, &load);
        }
    }
}

/// The checker on every kind at 2×2, exhaustively: every message shape
/// `(src, dst, class)` on its own, and every ordered pair of shapes
/// injected together or 1 ns apart. Single messages meet no contention,
/// so each kind's smallest margin over its zero-load bound, for
/// control and for data, must be under a nanosecond: a bound that close
/// catches a model that skips an NI, a hop or a burst.
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
        let margins = loads.iter().fold([u64::MAX; 2], |acc, load| {
            let m = conform(k, 2, load);
            [acc[0].min(m[0]), acc[1].min(m[1])]
        });
        println!(
            "{:8} smallest zero-load margin at 2x2: control {} ps, data {} ps",
            k.label(),
            margins[0],
            margins[1]
        );
        assert!(
            margins.iter().all(|&m| m < SimTime::from_ns(1).as_ps()),
            "{}: the zero-load bound sits far below every latency: {margins:?} ps",
            k.label()
        );
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
        let (timeline, _) = run(k, 4, &load);
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
