//! Golden delivery timelines of the electrical router, pinned bit for bit.
//!
//! Every constant in `GOLDEN` was generated on commit a9f9ea5 (PR 12, the
//! parent of the request-mask router kernel) by running this file there
//! with `GOLDEN_PRINT=1`; the file passes unmodified on that commit and on
//! every later one. A router-kernel change that alters a single grant,
//! credit or `ready_cycle` stamp moves a delivery time and so a hash.
//!
//! `GOLDEN` runs the default pipeline, `(router_stages, link_cycles) =
//! (2, 1)`. `GOLDEN_DEPTHS` runs the same matrix at `(0, 1)`, `(1, 0)` and
//! `(3, 2)`: a flit that is ready in the cycle it arrives, a zero-cycle
//! link, and a pipeline deeper than the default. Its constants were
//! generated with `GOLDEN_PRINT=1` on commit cc800f4, the parent of the
//! router's wake-up ring, whose router reproduces every one of them.
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
    // Where the deleted `NetStats::energy_pj` (never written) was hashed.
    h.u64(0f64.to_bits());
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

/// `(router_stages, link_cycles)` of each block of `GOLDEN_DEPTHS`.
const DEPTHS: [(u64, u64); 3] = [(0, 1), (1, 0), (3, 2)];

/// `GOLDEN`'s matrix at each of `DEPTHS`, one block per pipeline in
/// that order. Generated on the parent of the wake-up ring — see the
/// file comment.
const GOLDEN_DEPTHS: &[(&str, usize, usize, u64, u64)] = &[
    // (0, 1)
    ("mesh-xy", 1, 1, 0x30bc1f0799a45f79, 0x9eaa339e994a11f2),
    ("mesh-xy", 1, 4, 0x80439f33ac764384, 0x021db9655354939a),
    ("mesh-xy", 2, 1, 0x74a58f65d48b2291, 0xfc1262bc553489f6),
    ("mesh-xy", 2, 4, 0x14985a58f75234c4, 0x2a474b68a8f65a4e),
    ("mesh-xy", 3, 1, 0x79f42e8efe12e80a, 0x60d200abbca7b329),
    ("mesh-xy", 3, 4, 0x0596e87a27797db9, 0xf1460dd06ddd7f50),
    ("mesh-yx", 1, 1, 0xdb1609e092e5afc9, 0xfd439415386858c7),
    ("mesh-yx", 1, 4, 0x960338bae04d16cb, 0x5e2290b5ce3af64c),
    ("mesh-yx", 2, 1, 0x541d64f34c6d275f, 0xef9d2544c472fcd1),
    ("mesh-yx", 2, 4, 0x0eefddbca33cb99b, 0xfa7600fce9063cc5),
    ("mesh-yx", 3, 1, 0x65ef91515b4f4673, 0x848fdbc7371435b6),
    ("mesh-yx", 3, 4, 0xa3e47a293f49e00c, 0xdbc2d2ac9607adc4),
    ("mesh-oddeven", 1, 1, 0xa27bfa5ee6c516d6, 0x5220348b99c048f1),
    ("mesh-oddeven", 1, 4, 0xd133017b87437674, 0x10b4c17bbddac275),
    ("mesh-oddeven", 2, 1, 0x491691757cc0a38d, 0x2149cea597d0f683),
    ("mesh-oddeven", 2, 4, 0x8667b5f3f9414b5e, 0x83b9f9b73737baef),
    ("mesh-oddeven", 3, 1, 0x2e39a1dad4114f39, 0xa5b06606cbd4667c),
    ("mesh-oddeven", 3, 4, 0xba2a760fc46ba6c5, 0xcd3c0d6932fe9d9c),
    ("torus-xy", 2, 1, 0x922864403037d81b, 0x40e5883eb2bf0ae7),
    ("torus-xy", 2, 4, 0x6128b51a171cf69d, 0x02d2a81d54e8889d),
    ("torus-xy", 3, 1, 0x6008d238dd334d4f, 0xaf55dd9cc352659f),
    ("torus-xy", 3, 4, 0x426a3874cd0d322c, 0x6961d1a71a056d18),
    // (1, 0)
    ("mesh-xy", 1, 1, 0xe892af295a6880d2, 0xfeefda9c61e6b5de),
    ("mesh-xy", 1, 4, 0x98ddd5b8cf9d833d, 0x9f98bfc2e944e86f),
    ("mesh-xy", 2, 1, 0xdec179a0bd6b1498, 0x1a92e054c3296fb9),
    ("mesh-xy", 2, 4, 0x409904d4f32e6950, 0x69f4e0705fe6bb63),
    ("mesh-xy", 3, 1, 0x3f84b95c2eabe617, 0x84ffc038d0d6bef0),
    ("mesh-xy", 3, 4, 0x5512283248768abc, 0xbc43f99268394c23),
    ("mesh-yx", 1, 1, 0x0c9942b921b82d4f, 0x015d255605520c71),
    ("mesh-yx", 1, 4, 0x712aadd23fe22e8a, 0xe5950fb7bf0fbf05),
    ("mesh-yx", 2, 1, 0x150b01e321e03a67, 0x47783f1e83f60722),
    ("mesh-yx", 2, 4, 0xe7f3bdd59ab5bf3e, 0xea3774d89053fbf2),
    ("mesh-yx", 3, 1, 0xc515d2195c7bd907, 0x4868eaed097aa6ae),
    ("mesh-yx", 3, 4, 0x1d36eb92fc5de3a2, 0x2aec1e0fcc51a961),
    ("mesh-oddeven", 1, 1, 0x3841ea91db4362da, 0x07890345292b9bf2),
    ("mesh-oddeven", 1, 4, 0x510accd73a06c72a, 0xdfb396c336603db2),
    ("mesh-oddeven", 2, 1, 0xc575b88e1af7af87, 0x6fac305927a5e6e0),
    ("mesh-oddeven", 2, 4, 0xe33eba982071371e, 0x5cb9e4b722bee582),
    ("mesh-oddeven", 3, 1, 0xc0ea8e28f1ae4541, 0xfe1653e568048f1b),
    ("mesh-oddeven", 3, 4, 0x2c2515e1e11d5a9e, 0x28b2390c8813189d),
    ("torus-xy", 2, 1, 0x1dd6f041eba991c4, 0x3449ced69236c35c),
    ("torus-xy", 2, 4, 0x88ba844d83e1761d, 0x24f5f94e7e4dda23),
    ("torus-xy", 3, 1, 0x322240a9ca86d513, 0xd0657045522e966a),
    ("torus-xy", 3, 4, 0x9b54f94d283a307e, 0xdfbc768bde99b334),
    // (3, 2)
    ("mesh-xy", 1, 1, 0x96c2d76c72c1f1e0, 0x2e617b77b42499a8),
    ("mesh-xy", 1, 4, 0xf38b05728716d1a3, 0x07bebd7824e76892),
    ("mesh-xy", 2, 1, 0xaed050af147e6171, 0x48ed4c84c5ff12b6),
    ("mesh-xy", 2, 4, 0xc58331c9fc9f02a6, 0x3e5b1a8075deef71),
    ("mesh-xy", 3, 1, 0x0239684f2b849f79, 0x7ca2c741d3b5ba09),
    ("mesh-xy", 3, 4, 0x2fa4b36e050de003, 0x0427aa2077d1216a),
    ("mesh-yx", 1, 1, 0x4c423d40acc0cfaa, 0xe32a552effe34dac),
    ("mesh-yx", 1, 4, 0x9d2c0a59eccaf677, 0x6196b8a5f94eb682),
    ("mesh-yx", 2, 1, 0x66f6519bab6040d3, 0x2b4f45ef4f8990b7),
    ("mesh-yx", 2, 4, 0x9bd18a1ba4af803d, 0x09087ef7c30bac11),
    ("mesh-yx", 3, 1, 0x0d9368baf56a8180, 0x022279266d8ea343),
    ("mesh-yx", 3, 4, 0x40bdd79235124743, 0x5a3359673c55f1ec),
    ("mesh-oddeven", 1, 1, 0xac4e919d640f6f52, 0x4df523da0eb0eb82),
    ("mesh-oddeven", 1, 4, 0x68b2cddebfd65117, 0xbf0a05500ab6f225),
    ("mesh-oddeven", 2, 1, 0x9a2f4a7a512b864d, 0x3f5ea7c2747f60b1),
    ("mesh-oddeven", 2, 4, 0x88fec1633a23fb86, 0x5a4d6e26a7b163a7),
    ("mesh-oddeven", 3, 1, 0x09ec8e1ac85fb059, 0x9cc83866aaa416ae),
    ("mesh-oddeven", 3, 4, 0x1bbe8af076ee17a7, 0x47928198559b704c),
    ("torus-xy", 2, 1, 0x0ae2f4aa28fe819b, 0x27ee8e81dd8a5bb6),
    ("torus-xy", 2, 4, 0x7eaa312e299bcedd, 0x8c37ef1275c9c593),
    ("torus-xy", 3, 1, 0x41d09b9808d0bec6, 0x965028c4a3272ff9),
    ("torus-xy", 3, 4, 0x8b808ed0ed165ac1, 0xedcaf1f352076aab),
];

fn config(label: &str, vcs_per_vnet: usize, buf_depth: usize, pipeline: (u64, u64)) -> NocConfig {
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
        router_stages: pipeline.0,
        link_cycles: pipeline.1,
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

/// Run the case matrix at each of `pipelines` and compare it, block by
/// block, with `table`; under `GOLDEN_PRINT` print the rows instead.
fn check(pipelines: &[(u64, u64)], table: &[(&str, usize, usize, u64, u64)]) {
    let loads = [random_load(), all_pairs_burst()];
    let print = std::env::var_os("GOLDEN_PRINT").is_some();
    let cases = cases();
    if !print {
        assert_eq!(
            table.len(),
            pipelines.len() * cases.len(),
            "case matrix and table differ"
        );
    }
    for (b, &pipeline) in pipelines.iter().enumerate() {
        if print {
            println!("    // {pipeline:?}");
        }
        for (i, &(label, vcs, depth)) in cases.iter().enumerate() {
            let cfg = config(label, vcs, depth, pipeline);
            let got = loads.each_ref().map(|load| {
                let drained = run_drain(cfg, load);
                let stepped = run_stepped(cfg, load);
                assert_eq!(
                    drained, stepped,
                    "{label} vcs={vcs} depth={depth} {pipeline:?}: drain and 1-cycle stepping disagree"
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
            let want = table[b * cases.len() + i];
            assert_eq!((want.0, want.1, want.2), (label, vcs, depth));
            assert_eq!(
                got,
                [want.3, want.4],
                "{label} vcs={vcs} depth={depth} {pipeline:?}: timeline moved"
            );
        }
    }
}

#[test]
fn timelines_match_the_constants_pinned_at_the_parent() {
    check(&[(2, 1)], GOLDEN);
}

#[test]
fn timelines_at_other_pipeline_depths_match_their_constants() {
    check(&DEPTHS, GOLDEN_DEPTHS);
}
