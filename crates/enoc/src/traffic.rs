//! Synthetic traffic patterns and the open-loop measurement harness.
//!
//! The network-validation experiment (E6) drives interconnects with
//! three synthetic patterns from the NoC literature — uniform, hotspot
//! and transpose — under smooth Bernoulli injection. The harness is
//! generic over [`NetworkModel`], so the same workload runs unchanged
//! on the electrical mesh and every optical architecture.

use sctm_engine::net::{Message, MsgClass, MsgId, NetworkModel, NodeId};
use sctm_engine::rng::StreamRng;
use sctm_engine::stats::Running;
use sctm_engine::time::SimTime;

/// Destination selection pattern.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Pattern {
    /// Uniform random over all other nodes.
    Uniform,
    /// `(x, y) → (y, x)`; requires a square node count.
    Transpose,
    /// A fraction `frac` of traffic goes to `node`, rest uniform.
    Hotspot { node: u32, frac: f64 },
}

impl Pattern {
    pub fn label(&self) -> &'static str {
        match self {
            Pattern::Uniform => "uniform",
            Pattern::Transpose => "transpose",
            Pattern::Hotspot { .. } => "hotspot",
        }
    }

    /// Pick a destination for `src` under this pattern.
    pub fn dest(&self, src: NodeId, nodes: usize, width: usize, rng: &mut StreamRng) -> NodeId {
        let n = nodes as u64;
        let s = src.0 as u64;
        let d = match *self {
            Pattern::Uniform => {
                let mut d = rng.below(n);
                if d == s {
                    d = (d + 1) % n;
                }
                d
            }
            Pattern::Transpose => {
                let w = width as u64;
                let (x, y) = (s % w, s / w);
                x * w + y
            }
            Pattern::Hotspot { node, frac } => {
                if rng.chance(frac) && node as u64 != s {
                    node as u64
                } else {
                    let mut d = rng.below(n);
                    if d == s {
                        d = (d + 1) % n;
                    }
                    d
                }
            }
        };
        let d = if d == s { (d + 1) % n } else { d };
        NodeId(d as u32)
    }
}

/// Open-loop workload: where messages go and how often. The rest of
/// the workload is fixed by the constants below.
#[derive(Clone, Copy, Debug)]
pub struct TrafficConfig {
    pub pattern: Pattern,
    /// Probability a node starts a new message per network cycle.
    pub msg_rate: f64,
}

/// Fraction of messages that are cache-line-sized data.
const DATA_FRACTION: f64 = 0.5;
/// Payload bytes of a control message.
const CTRL_BYTES: u32 = 8;
/// Payload bytes of a data message.
const DATA_BYTES: u32 = 64;
/// Injection clock period (2 GHz): `msg_rate` is per cycle of it.
const CYCLE_PS: u64 = 500;
/// Seed of the per-node injection streams.
const SEED: u64 = 1;
/// Warmup before statistics count.
const WARMUP: SimTime = SimTime::from_us(2);
/// Measurement window after warmup; the drain after the horizon gets
/// as long again.
const MEASURE: SimTime = SimTime::from_us(8);

/// One measured operating point.
#[derive(Clone, Copy, Debug)]
pub struct LoadLatencyPoint {
    /// Fraction of injected (post-warmup) messages actually delivered
    /// within the drain budget; < 1 indicates saturation.
    pub delivered_frac: f64,
    /// Mean end-to-end message latency in ns (delivered messages only).
    pub avg_latency_ns: f64,
    pub p99_latency_ns: f64,
    /// Accepted throughput in messages/node/cycle.
    pub throughput: f64,
}

/// Drive `net` with the synthetic workload `cfg` and measure its
/// load-latency operating point.
///
/// `width` is the mesh width used by geometric patterns (pass the
/// topology width; for non-mesh networks pass `sqrt(nodes)`).
pub fn measure_load_latency(
    cfg: TrafficConfig,
    net: &mut dyn NetworkModel,
    width: usize,
) -> LoadLatencyPoint {
    assert!(cfg.msg_rate > 0.0 && cfg.msg_rate <= 1.0);
    let nodes = net.num_nodes();
    let root = StreamRng::new(SEED);
    let horizon = WARMUP + MEASURE;
    let horizon_cycles = horizon.as_ps() / CYCLE_PS;

    // Build the full injection schedule, deterministically per node:
    // a Bernoulli trial per cycle.
    let mut sched = Vec::new();
    for i in 0..nodes {
        let (node, mut rng) = (NodeId(i as u32), root.stream("traffic", i as u64));
        for cycle in 0..horizon_cycles {
            if rng.chance(cfg.msg_rate) {
                let dst = cfg.pattern.dest(node, nodes, width, &mut rng);
                let (class, bytes) = if rng.chance(DATA_FRACTION) {
                    (MsgClass::Data, DATA_BYTES)
                } else {
                    (MsgClass::Control, CTRL_BYTES)
                };
                sched.push((SimTime::from_ps(CYCLE_PS * cycle), node, dst, class, bytes));
            }
        }
    }
    sched.sort_by_key(|&(t, src, ..)| (t, src.0));

    let mut next_id = 0u64;
    let mut measured_ids_start = u64::MAX;
    for &(t, src, dst, class, bytes) in &sched {
        let id = next_id;
        next_id += 1;
        if t >= WARMUP && measured_ids_start == u64::MAX {
            measured_ids_start = id;
        }
        net.inject(
            t,
            Message {
                id: MsgId(id),
                src,
                dst,
                class,
                bytes,
            },
        );
    }
    let measured_injected = if measured_ids_start == u64::MAX {
        0
    } else {
        next_id - measured_ids_start
    };

    // Advance through the horizon, then allow a bounded drain.
    let mut deliveries = Vec::new();
    net.advance_until(horizon, &mut deliveries);
    let drain_budget = horizon + MEASURE;
    while let Some(t) = net.next_time() {
        if t > drain_budget {
            break;
        }
        net.advance_until(t, &mut deliveries);
    }

    let mut lat = Running::new();
    let mut lat_ns: Vec<f64> = Vec::new();
    let mut measured_delivered = 0u64;
    for d in &deliveries {
        if d.msg.id.0 >= measured_ids_start {
            measured_delivered += 1;
            let l = d.latency().as_ns_f64();
            lat.push(l);
            lat_ns.push(l);
        }
    }
    lat_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p99 = if lat_ns.is_empty() {
        0.0
    } else {
        lat_ns[((lat_ns.len() - 1) as f64 * 0.99) as usize]
    };
    let measure_cycles = MEASURE.as_ps() / CYCLE_PS;
    LoadLatencyPoint {
        delivered_frac: if measured_injected == 0 {
            1.0
        } else {
            measured_delivered as f64 / measured_injected as f64
        },
        avg_latency_ns: lat.mean(),
        p99_latency_ns: p99,
        throughput: measured_delivered as f64 / (measure_cycles as f64 * nodes as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{NocConfig, NocSim};
    use crate::topology::Topology;

    /// Uniform traffic at `msg_rate` on a 4×4 electrical mesh.
    fn uniform_on_mesh4(msg_rate: f64) -> LoadLatencyPoint {
        let mut net = NocSim::new(NocConfig {
            topology: Topology::mesh(4, 4),
            ..NocConfig::default()
        });
        let cfg = TrafficConfig {
            pattern: Pattern::Uniform,
            msg_rate,
        };
        measure_load_latency(cfg, &mut net, 4)
    }

    #[test]
    fn patterns_stay_in_range_and_avoid_self() {
        let mut rng = StreamRng::new(3);
        let patterns = [
            Pattern::Uniform,
            Pattern::Transpose,
            Pattern::Hotspot { node: 5, frac: 0.3 },
        ];
        for p in patterns {
            for s in 0..64u32 {
                for _ in 0..8 {
                    let d = p.dest(NodeId(s), 64, 8, &mut rng);
                    assert!(d.idx() < 64, "{p:?} out of range");
                    assert_ne!(d, NodeId(s), "{p:?} self-send from {s}");
                }
            }
        }
    }

    #[test]
    fn transpose_is_involution() {
        let mut rng = StreamRng::new(1);
        let p = Pattern::Transpose;
        for s in 0..16u32 {
            let d = p.dest(NodeId(s), 16, 4, &mut rng);
            if d != NodeId(s) {
                let back = p.dest(d, 16, 4, &mut rng);
                // transpose(transpose(s)) == s, unless remapped off-diagonal
                let (x, y) = (s % 4, s / 4);
                if x != y {
                    assert_eq!(back, NodeId(s));
                }
            }
        }
    }

    #[test]
    fn fixed_destination_examples() {
        let mut rng = StreamRng::new(1);
        // 4x4: node 1 = (1, 0) -> (0, 1) = node 4.
        assert_eq!(
            Pattern::Transpose.dest(NodeId(1), 16, 4, &mut rng),
            NodeId(4)
        );
        let all_to_3 = Pattern::Hotspot { node: 3, frac: 1.0 };
        assert_eq!(all_to_3.dest(NodeId(0), 16, 4, &mut rng), NodeId(3));
    }

    #[test]
    fn hotspot_concentrates() {
        let mut rng = StreamRng::new(5);
        let p = Pattern::Hotspot { node: 3, frac: 0.5 };
        let hits = (0..1000)
            .filter(|_| p.dest(NodeId(0), 16, 4, &mut rng) == NodeId(3))
            .count();
        assert!(hits > 400, "hotspot hits only {hits}/1000");
    }

    #[test]
    fn low_load_runs_near_zero_load_latency() {
        let pt = uniform_on_mesh4(0.005);
        assert!(
            pt.delivered_frac > 0.99,
            "lost traffic at 0.5% load: {pt:?}"
        );
        assert!(pt.avg_latency_ns > 0.0);
        // Average hop count ~2.67, ~6 cycles zero-load + serialization;
        // anything above 50 ns at this load means congestion collapse.
        assert!(pt.avg_latency_ns < 50.0, "latency {} ns", pt.avg_latency_ns);
    }

    #[test]
    fn latency_rises_with_load() {
        let low = uniform_on_mesh4(0.005);
        let high = uniform_on_mesh4(0.08);
        assert!(
            high.avg_latency_ns > low.avg_latency_ns,
            "latency did not rise: low={} high={}",
            low.avg_latency_ns,
            high.avg_latency_ns
        );
    }

    #[test]
    fn saturation_shows_as_lost_delivery_fraction_or_high_latency() {
        let pt = uniform_on_mesh4(0.5);
        assert!(
            pt.delivered_frac < 0.999 || pt.avg_latency_ns > 100.0,
            "network absorbed saturation load implausibly: {pt:?}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let mk = || {
            let p = uniform_on_mesh4(0.03);
            (p.avg_latency_ns, p.throughput, p.delivered_frac)
        };
        assert_eq!(mk(), mk());
    }
}
