//! Golden delivery timelines of the electrical router, pinned bit for bit.
//!
//! Every constant in `GOLDEN` was generated on commit a9f9ea5 (PR 12, the
//! parent of the request-mask router kernel) by running this file there
//! with `GOLDEN_PRINT=1`; the file passes unmodified on that commit and on
//! every later one. A router-kernel change that alters a single grant,
//! credit or `ready_cycle` stamp moves a delivery time and so a hash.
//!
//! Each hash is FNV-1a over `(id, injected_at, delivered_at)` in delivery
//! order, then the final `cycle()`, then `NetStats`. Every case runs under
//! two drivers — `drain`, and `advance_until` in one-cycle steps — which
//! must agree with each other and with the constant.

use sctm_engine::net::{Delivery, Message, MsgClass, MsgId, NetworkModel, NodeId};
use sctm_engine::rng::StreamRng;
use sctm_engine::stats::Histogram;
use sctm_engine::time::SimTime;
use sctm_enoc::{NocConfig, NocSim, Routing, Topology};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn hist(&mut self, h: &Histogram) {
        self.u64(h.count());
        self.u64(h.sum() as u64);
        self.u64((h.sum() >> 64) as u64);
        self.u64(h.min());
        self.u64(h.max());
        self.u64(h.p50());
        self.u64(h.p99());
    }
}

fn digest(sim: &NocSim, out: &[Delivery]) -> u64 {
    let mut h = Fnv::new();
    for d in out {
        h.u64(d.msg.id.0);
        h.u64(d.injected_at.as_ps());
        h.u64(d.delivered_at.as_ps());
    }
    h.u64(sim.cycle());
    let s = sim.stats();
    h.u64(s.injected);
    h.u64(s.delivered);
    h.u64(s.bytes_delivered);
    h.u64(s.energy_pj.to_bits());
    h.hist(&s.ctrl_latency_ps);
    h.hist(&s.data_latency_ps);
    h.0
}

const SIDE: usize = 4;
const NODES: u32 = (SIDE * SIDE) as u32;

fn msg(id: u64, src: u32, dst: u32, class: MsgClass) -> Message {
    Message {
        id: MsgId(id),
        src: NodeId(src),
        dst: NodeId(dst),
        class,
        bytes: if class == MsgClass::Control { 8 } else { 64 },
    }
}

/// 2 000 mixed control/data messages, uniform random endpoints
/// (self-sends included), injection times spread over 2 µs.
fn random_load() -> Vec<(SimTime, Message)> {
    let mut rng = StreamRng::new(0x5c7a_601d);
    (0..2000)
        .map(|i| {
            let s = rng.below(NODES as u64) as u32;
            let d = rng.below(NODES as u64) as u32;
            let class = if rng.chance(0.5) {
                MsgClass::Control
            } else {
                MsgClass::Data
            };
            (SimTime::from_ns(rng.below(2000)), msg(i, s, d, class))
        })
        .collect()
}

/// Every ordered pair at time zero, one message in three a data packet.
fn all_pairs_burst() -> Vec<(SimTime, Message)> {
    let mut v = Vec::new();
    for s in 0..NODES {
        for d in 0..NODES {
            let id = v.len() as u64;
            let class = match id % 3 {
                0 => MsgClass::Data,
                _ => MsgClass::Control,
            };
            v.push((SimTime::ZERO, msg(id, s, d, class)));
        }
    }
    v
}

fn run_drain(cfg: NocConfig, load: &[(SimTime, Message)]) -> u64 {
    let mut sim = NocSim::new(cfg);
    for &(at, m) in load {
        sim.inject(at, m);
    }
    let mut out = Vec::new();
    sim.drain(&mut out);
    assert_eq!(out.len(), load.len());
    digest(&sim, &out)
}

fn run_stepped(cfg: NocConfig, load: &[(SimTime, Message)]) -> u64 {
    let mut sim = NocSim::new(cfg);
    for &(at, m) in load {
        sim.inject(at, m);
    }
    let mut out = Vec::new();
    let mut cycle = 0;
    while sim.next_time().is_some() {
        cycle += 1;
        sim.advance_until(cfg.freq.cycles(cycle), &mut out);
    }
    assert_eq!(out.len(), load.len());
    digest(&sim, &out)
}

/// `(topology label, vcs_per_vnet, buf_depth, random-load hash, burst hash)`.
/// Generated on the parent commit — see the file comment.
const GOLDEN: &[(&str, usize, usize, u64, u64)] = &[
    ("mesh-xy", 1, 1, 0x2ac8486b263d2a4a, 0xd6f07926e451f94c),
    ("mesh-xy", 1, 4, 0xfa50d4b3bc71682d, 0xa454a0a1b2c9cc4b),
    ("mesh-xy", 2, 1, 0xe8808f5192abeb9e, 0x1834a7370e6b0ccb),
    ("mesh-xy", 2, 4, 0xdbe2458ef4ce64ee, 0x5a2c9fd797e58378),
    ("mesh-xy", 3, 1, 0x8e7f4bece3001d94, 0x40124db875fd4510),
    ("mesh-xy", 3, 4, 0x4a110c93260a97ba, 0x420f9b91867348b2),
    ("mesh-yx", 1, 1, 0x1401892f1cc8ad93, 0xada53fde2ce0296e),
    ("mesh-yx", 1, 4, 0xa94f8cd826c35bbf, 0xb3bbf5948437c952),
    ("mesh-yx", 2, 1, 0x3932ce0854085fe7, 0x58cea0a4046f1274),
    ("mesh-yx", 2, 4, 0xd0276b385feb5577, 0xbcd6eaba9c79355f),
    ("mesh-yx", 3, 1, 0xa869fc85b3d6e2ee, 0x88847fa7c8f4919d),
    ("mesh-yx", 3, 4, 0xfa4de5ca1d01ae3e, 0x484a12ec5540b324),
    ("mesh-oddeven", 1, 1, 0x4d554a801a3aa225, 0x102f1a31b1dbeebf),
    ("mesh-oddeven", 1, 4, 0x88b42996f9c1f890, 0x04545caee72755fe),
    ("mesh-oddeven", 2, 1, 0xd0e0e0a77adb1aea, 0x241e273cb5806ec6),
    ("mesh-oddeven", 2, 4, 0xe547251355b2ae17, 0x056104d76239eb87),
    ("mesh-oddeven", 3, 1, 0x1e44d65d930cacff, 0x53a7bc123acbec19),
    ("mesh-oddeven", 3, 4, 0xf5424ffaf2ea246a, 0x20278e131e4242c8),
    ("torus-xy", 2, 1, 0x7c1482bcf74f4f7c, 0x7ce5ad7b5ba3cd7e),
    ("torus-xy", 2, 4, 0xc9fede35eb207e3a, 0x28b55c0eff9b4977),
    ("torus-xy", 3, 1, 0x1620ecc9f751f4e1, 0xfff49bd2359983e7),
    ("torus-xy", 3, 4, 0x813da689f70d8abf, 0x419cc1a72d01a38e),
];

fn config(label: &str, vcs_per_vnet: usize, buf_depth: usize) -> NocConfig {
    let (topology, routing) = match label {
        "mesh-xy" => (Topology::mesh(SIDE, SIDE), Routing::XY),
        "mesh-yx" => (Topology::mesh(SIDE, SIDE), Routing::YX),
        "mesh-oddeven" => (Topology::mesh(SIDE, SIDE), Routing::OddEven),
        "torus-xy" => (Topology::torus(SIDE, SIDE), Routing::XY),
        _ => panic!("unknown topology label {label}"),
    };
    NocConfig {
        topology,
        routing,
        vcs_per_vnet,
        buf_depth,
        ..NocConfig::default()
    }
}

/// The case matrix; a torus needs two VCs per vnet for its dateline.
fn cases() -> Vec<(&'static str, usize, usize)> {
    let mut v = Vec::new();
    for label in ["mesh-xy", "mesh-yx", "mesh-oddeven", "torus-xy"] {
        for vcs in 1..=3 {
            for depth in [1, 4] {
                if label != "torus-xy" || vcs >= 2 {
                    v.push((label, vcs, depth));
                }
            }
        }
    }
    v
}

#[test]
fn timelines_match_the_constants_pinned_at_the_parent() {
    let loads = [random_load(), all_pairs_burst()];
    let print = std::env::var_os("GOLDEN_PRINT").is_some();
    if !print {
        assert_eq!(GOLDEN.len(), cases().len(), "case matrix and table differ");
    }
    for (i, (label, vcs, depth)) in cases().into_iter().enumerate() {
        let cfg = config(label, vcs, depth);
        let got = loads.each_ref().map(|load| {
            let drained = run_drain(cfg, load);
            let stepped = run_stepped(cfg, load);
            assert_eq!(
                drained, stepped,
                "{label} vcs={vcs} depth={depth}: drain and 1-cycle stepping disagree"
            );
            drained
        });
        if print {
            println!(
                "    (\"{label}\", {vcs}, {depth}, {:#018x}, {:#018x}),",
                got[0], got[1]
            );
            continue;
        }
        let want = GOLDEN[i];
        assert_eq!((want.0, want.1, want.2), (label, vcs, depth));
        assert_eq!(
            got,
            [want.3, want.4],
            "{label} vcs={vcs} depth={depth}: timeline moved"
        );
    }
}
