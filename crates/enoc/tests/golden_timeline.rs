//! Golden delivery timelines of the electrical router, pinned bit for bit.
//!
//! The matrix is the 4×4 XY mesh — the one electrical network the system
//! builds — at 1–3 VCs per vnet and buffer depth 1 or 4. Every constant
//! in `GOLDEN` was generated on commit a9f9ea5 (PR 12, the parent of the
//! request-mask router kernel) by running this file there with
//! `GOLDEN_PRINT=1`; the constants hold on that commit and on every later
//! one. A router-kernel change that alters a single grant, credit or
//! `ready_cycle` stamp moves a delivery time and so a hash.
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

use sctm_engine::hash::Fnv1a;
use sctm_engine::net::{Delivery, Message, MsgClass, MsgId, NetworkModel, NodeId};
use sctm_engine::rng::StreamRng;
use sctm_engine::stats::Histogram;
use sctm_engine::time::SimTime;
use sctm_enoc::{NocConfig, NocSim, Topology};

fn hist(h: &mut Fnv1a, hist: &Histogram) {
    for v in [
        hist.count(),
        hist.sum() as u64,
        (hist.sum() >> 64) as u64,
        hist.min(),
        hist.max(),
        hist.p50(),
        hist.p99(),
    ] {
        h.u64(v);
    }
}

fn digest(sim: &NocSim, out: &[Delivery]) -> u64 {
    let mut h = Fnv1a::default();
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
    hist(&mut h, &s.ctrl_latency_ps);
    hist(&mut h, &s.data_latency_ps);
    h.finish()
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
    // (1, 0)
    ("mesh-xy", 1, 1, 0xe892af295a6880d2, 0xfeefda9c61e6b5de),
    ("mesh-xy", 1, 4, 0x98ddd5b8cf9d833d, 0x9f98bfc2e944e86f),
    ("mesh-xy", 2, 1, 0xdec179a0bd6b1498, 0x1a92e054c3296fb9),
    ("mesh-xy", 2, 4, 0x409904d4f32e6950, 0x69f4e0705fe6bb63),
    ("mesh-xy", 3, 1, 0x3f84b95c2eabe617, 0x84ffc038d0d6bef0),
    ("mesh-xy", 3, 4, 0x5512283248768abc, 0xbc43f99268394c23),
    // (3, 2)
    ("mesh-xy", 1, 1, 0x96c2d76c72c1f1e0, 0x2e617b77b42499a8),
    ("mesh-xy", 1, 4, 0xf38b05728716d1a3, 0x07bebd7824e76892),
    ("mesh-xy", 2, 1, 0xaed050af147e6171, 0x48ed4c84c5ff12b6),
    ("mesh-xy", 2, 4, 0xc58331c9fc9f02a6, 0x3e5b1a8075deef71),
    ("mesh-xy", 3, 1, 0x0239684f2b849f79, 0x7ca2c741d3b5ba09),
    ("mesh-xy", 3, 4, 0x2fa4b36e050de003, 0x0427aa2077d1216a),
];

fn config(vcs_per_vnet: usize, buf_depth: usize, pipeline: (u64, u64)) -> NocConfig {
    NocConfig {
        topology: Topology::mesh(SIDE, SIDE),
        vcs_per_vnet,
        buf_depth,
        router_stages: pipeline.0,
        link_cycles: pipeline.1,
        ..NocConfig::default()
    }
}

/// The case matrix: the XY mesh at 1–3 VCs per vnet × buffer depth 1, 4.
fn cases() -> Vec<(&'static str, usize, usize)> {
    let mut v = Vec::new();
    for vcs in 1..=3 {
        for depth in [1, 4] {
            v.push(("mesh-xy", vcs, depth));
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
            let cfg = config(vcs, depth, pipeline);
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
