//! Golden delivery timelines of the four photonic models, pinned bit for
//! bit.
//!
//! Every constant in `GOLDEN` was generated on commit f363303 (PR 23, the
//! parent of the omesh routing tables and the packed-key event heap) by
//! running this file there with `GOLDEN_PRINT=1`; the file passes
//! unmodified on that commit and on every later one. A kernel change that
//! moves one setup hop, one token grant or one event's pop order moves a
//! delivery time and so a hash.
//!
//! Each hash is FNV-1a over `(id, delivered_at)` in delivery order, then
//! the final time, then `NetStats`, with the bits of `0f64` where the
//! deleted, never-written `energy_pj` field was. The rows are the ones
//! generated with lifecycle capture off; the capture column went with
//! the capture. Every case runs under two drivers — `drain`, and
//! `advance_until` in one-nanosecond steps — which must agree
//! with each other and with the constant. The final time is `drain`'s
//! return under the first driver and the last delivery under the second,
//! so the agreement also pins "a model goes quiet at its last delivery".

use sctm_engine::net::{Delivery, Message, MsgClass, MsgId, NetworkModel, NodeId};
use sctm_engine::rng::StreamRng;
use sctm_engine::stats::Histogram;
use sctm_engine::time::SimTime;
use sctm_onoc::{
    HybridConfig, HybridSim, ObusConfig, ObusSim, OmeshConfig, OmeshSim, OxbarConfig, OxbarSim,
};

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

fn digest(sim: &dyn NetworkModel, out: &[Delivery], end: SimTime) -> u64 {
    let mut h = Fnv::new();
    for d in out {
        h.u64(d.msg.id.0);
        h.u64(d.delivered_at.as_ps());
    }
    h.u64(end.as_ps());
    let s = sim.stats();
    h.u64(s.injected);
    h.u64(s.delivered);
    h.u64(s.bytes_delivered);
    h.u64(0f64.to_bits());
    h.hist(&s.ctrl_latency_ps);
    h.hist(&s.data_latency_ps);
    h.0
}

fn msg(id: u64, src: u32, dst: u32, class: MsgClass, bytes: u32) -> Message {
    Message {
        id: MsgId(id),
        src: NodeId(src),
        dst: NodeId(dst),
        class,
        bytes,
    }
}

/// 2 000 messages with uniform random endpoints (self-sends included),
/// injection times spread over 2 µs: half 8-byte control, half data of
/// 64 or 512 bytes.
fn random_load(nodes: u32) -> Vec<(SimTime, Message)> {
    let mut rng = StreamRng::new(0x0c7a_601d ^ nodes as u64);
    (0..2000)
        .map(|i| {
            let s = rng.below(nodes as u64) as u32;
            let d = rng.below(nodes as u64) as u32;
            let m = if rng.chance(0.5) {
                msg(i, s, d, MsgClass::Control, 8)
            } else {
                let bytes = if rng.chance(0.5) { 64 } else { 512 };
                msg(i, s, d, MsgClass::Data, bytes)
            };
            (SimTime::from_ns(rng.below(2000)), m)
        })
        .collect()
}

/// Every ordered pair at time zero, one message in three a 64-byte data
/// packet.
fn all_pairs_burst(nodes: u32) -> Vec<(SimTime, Message)> {
    let mut v = Vec::new();
    for s in 0..nodes {
        for d in 0..nodes {
            let id = v.len() as u64;
            let m = match id % 3 {
                0 => msg(id, s, d, MsgClass::Data, 64),
                _ => msg(id, s, d, MsgClass::Control, 8),
            };
            v.push((SimTime::ZERO, m));
        }
    }
    v
}

fn model(label: &str, side: usize) -> Box<dyn NetworkModel> {
    match label {
        "omesh" => Box::new(OmeshSim::new(OmeshConfig::new(side))),
        "oxbar" => Box::new(OxbarSim::new(OxbarConfig::new(side))),
        "obus" => Box::new(ObusSim::new(ObusConfig::new(side))),
        "hybrid" => Box::new(HybridSim::new(HybridConfig::new(side))),
        _ => panic!("unknown model label {label}"),
    }
}

fn loaded(label: &str, side: usize, load: &[(SimTime, Message)]) -> Box<dyn NetworkModel> {
    let mut sim = model(label, side);
    for &(at, m) in load {
        sim.inject(at, m);
    }
    sim
}

fn run_drain(label: &str, side: usize, load: &[(SimTime, Message)]) -> u64 {
    let mut sim = loaded(label, side, load);
    let mut out = Vec::new();
    let end = sim.drain(&mut out);
    assert_eq!(out.len(), load.len());
    digest(sim.as_ref(), &out, end)
}

fn run_stepped(label: &str, side: usize, load: &[(SimTime, Message)]) -> u64 {
    let mut sim = loaded(label, side, load);
    let mut out = Vec::new();
    let mut ns = 0;
    while sim.next_time().is_some() {
        ns += 1;
        sim.advance_until(SimTime::from_ns(ns), &mut out);
    }
    assert_eq!(out.len(), load.len());
    let end = out
        .iter()
        .map(|d| d.delivered_at)
        .max()
        .unwrap_or(SimTime::ZERO);
    digest(sim.as_ref(), &out, end)
}

/// `(model, side, random-load hash, all-pairs hash)`.
/// Generated on the parent commit — see the file comment.
const GOLDEN: &[(&str, usize, u64, u64)] = &[
    ("omesh", 4, 0xaac175afb0e9fa1c, 0xd922e365c021aaf0),
    ("omesh", 8, 0xd7359f57ca5c36e3, 0x543542ca4fb22b7b),
    ("oxbar", 4, 0x46d482c57f47982c, 0x584529b76c4847f4),
    ("oxbar", 8, 0xb19608e42fff9c4c, 0xf2e0e5e53576e5fc),
    ("obus", 4, 0x2a840ae76f0e2ef8, 0x151dc88d6d18a0dd),
    ("obus", 8, 0xf5a3ba50a1f6f1b1, 0xe29f84110977532b),
    ("hybrid", 4, 0x8bb3ffc35b3df347, 0x483335748c01ae25),
    ("hybrid", 8, 0xe99ad0550a6bb9ee, 0x13bb87b59a02b5ce),
];

fn cases() -> Vec<(&'static str, usize)> {
    let mut v = Vec::new();
    for label in ["omesh", "oxbar", "obus", "hybrid"] {
        for side in [4, 8] {
            v.push((label, side));
        }
    }
    v
}

#[test]
fn timelines_match_the_constants_pinned_at_the_parent() {
    let print = std::env::var_os("GOLDEN_PRINT").is_some();
    if !print {
        assert_eq!(GOLDEN.len(), cases().len(), "case matrix and table differ");
    }
    for (i, (label, side)) in cases().into_iter().enumerate() {
        let nodes = (side * side) as u32;
        let loads = [random_load(nodes), all_pairs_burst(nodes)];
        let got = loads.each_ref().map(|load| {
            let drained = run_drain(label, side, load);
            let stepped = run_stepped(label, side, load);
            assert_eq!(
                drained, stepped,
                "{label} side={side}: drain and 1-ns stepping disagree"
            );
            drained
        });
        if print {
            println!(
                "    (\"{label}\", {side}, {:#018x}, {:#018x}),",
                got[0], got[1]
            );
            continue;
        }
        let want = GOLDEN[i];
        assert_eq!((want.0, want.1), (label, side));
        assert_eq!(got, [want.2, want.3], "{label} side={side}: timeline moved");
    }
}
