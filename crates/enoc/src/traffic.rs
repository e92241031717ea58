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
use sctm_engine::time::{Freq, SimTime};

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

/// Open-loop workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct TrafficConfig {
    pub pattern: Pattern,
    /// Probability a node starts a new message per network cycle.
    pub msg_rate: f64,
    /// Fraction of messages that are cache-line-sized data.
    pub data_fraction: f64,
    /// Payload bytes for control / data messages.
    pub ctrl_bytes: u32,
    pub data_bytes: u32,
    /// Warmup before statistics count.
    pub warmup: SimTime,
    /// Measurement window after warmup.
    pub measure: SimTime,
    /// Clock used to convert `msg_rate` per-cycle into times.
    pub clock: Freq,
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            pattern: Pattern::Uniform,
            msg_rate: 0.02,
            data_fraction: 0.5,
            ctrl_bytes: 8,
            data_bytes: 64,
            warmup: SimTime::from_us(2),
            measure: SimTime::from_us(10),
            clock: Freq::from_ghz(2),
            seed: 1,
        }
    }
}

/// One measured operating point.
#[derive(Clone, Copy, Debug)]
pub struct LoadLatencyPoint {
    /// Offered load in messages/node/cycle.
    pub offered: f64,
    /// Fraction of injected (post-warmup) messages actually delivered
    /// within the drain budget; < 1 indicates saturation.
    pub delivered_frac: f64,
    /// Mean end-to-end message latency in ns (delivered messages only).
    pub avg_latency_ns: f64,
    pub p99_latency_ns: f64,
    /// Accepted throughput in messages/node/cycle.
    pub throughput: f64,
}

/// Drives a [`NetworkModel`] with synthetic traffic and measures the
/// load-latency operating point.
pub struct TrafficRunner {
    cfg: TrafficConfig,
}

impl TrafficRunner {
    pub fn new(cfg: TrafficConfig) -> Self {
        assert!(cfg.msg_rate > 0.0 && cfg.msg_rate <= 1.0);
        assert!((0.0..=1.0).contains(&cfg.data_fraction));
        TrafficRunner { cfg }
    }

    /// Generate the injection schedule for one node: a Bernoulli trial
    /// per cycle.
    fn node_schedule(
        &self,
        node: NodeId,
        nodes: usize,
        width: usize,
        horizon_cycles: u64,
        rng: &mut StreamRng,
        sink: &mut Vec<(SimTime, NodeId, NodeId, MsgClass, u32)>,
    ) {
        let c = &self.cfg;
        for cycle in 0..horizon_cycles {
            if rng.chance(c.msg_rate) {
                let dst = c.pattern.dest(node, nodes, width, rng);
                let (class, bytes) = if rng.chance(c.data_fraction) {
                    (MsgClass::Data, c.data_bytes)
                } else {
                    (MsgClass::Control, c.ctrl_bytes)
                };
                sink.push((c.clock.cycles(cycle), node, dst, class, bytes));
            }
        }
    }

    /// Run the workload on `net` and measure.
    ///
    /// `width` is the mesh width used by geometric patterns (pass the
    /// topology width; for non-mesh networks pass `sqrt(nodes)`).
    pub fn run(&self, net: &mut dyn NetworkModel, width: usize) -> LoadLatencyPoint {
        let c = &self.cfg;
        let nodes = net.num_nodes();
        let root = StreamRng::new(c.seed);
        let horizon = c.warmup + c.measure;
        let horizon_cycles = horizon.as_ps() / c.clock.period().as_ps();

        // Build the full injection schedule, deterministically per node.
        let mut sched = Vec::new();
        for i in 0..nodes {
            let mut rng = root.stream("traffic", i as u64);
            self.node_schedule(
                NodeId(i as u32),
                nodes,
                width,
                horizon_cycles,
                &mut rng,
                &mut sched,
            );
        }
        sched.sort_by_key(|&(t, src, ..)| (t, src.0));

        let mut next_id = 0u64;
        let mut measured_ids_start = u64::MAX;
        for &(t, src, dst, class, bytes) in &sched {
            let id = next_id;
            next_id += 1;
            if t >= c.warmup && measured_ids_start == u64::MAX {
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
        let drain_budget = horizon + c.measure; // same again
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
        let measure_cycles = c.measure.as_ps() / c.clock.period().as_ps();
        LoadLatencyPoint {
            offered: c.msg_rate,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{NocConfig, NocSim};
    use crate::topology::Topology;

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
        let cfg = NocConfig {
            topology: Topology::mesh(4, 4),
            ..NocConfig::default()
        };
        let mut net = NocSim::new(cfg);
        let t = TrafficConfig {
            msg_rate: 0.005,
            warmup: SimTime::from_us(1),
            measure: SimTime::from_us(4),
            ..TrafficConfig::default()
        };
        let pt = TrafficRunner::new(t).run(&mut net, 4);
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
        let run_at = |rate: f64| {
            let cfg = NocConfig {
                topology: Topology::mesh(4, 4),
                ..NocConfig::default()
            };
            let mut net = NocSim::new(cfg);
            let t = TrafficConfig {
                msg_rate: rate,
                warmup: SimTime::from_us(1),
                measure: SimTime::from_us(4),
                ..TrafficConfig::default()
            };
            TrafficRunner::new(t).run(&mut net, 4)
        };
        let low = run_at(0.005);
        let high = run_at(0.08);
        assert!(
            high.avg_latency_ns > low.avg_latency_ns,
            "latency did not rise: low={} high={}",
            low.avg_latency_ns,
            high.avg_latency_ns
        );
    }

    #[test]
    fn saturation_shows_as_lost_delivery_fraction_or_high_latency() {
        let cfg = NocConfig {
            topology: Topology::mesh(4, 4),
            ..NocConfig::default()
        };
        let mut net = NocSim::new(cfg);
        let t = TrafficConfig {
            msg_rate: 0.5,
            data_fraction: 1.0,
            warmup: SimTime::from_us(1),
            measure: SimTime::from_us(3),
            ..TrafficConfig::default()
        };
        let pt = TrafficRunner::new(t).run(&mut net, 4);
        assert!(
            pt.delivered_frac < 0.999 || pt.avg_latency_ns > 100.0,
            "network absorbed saturation load implausibly: {pt:?}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let mk = || {
            let cfg = NocConfig {
                topology: Topology::mesh(4, 4),
                ..NocConfig::default()
            };
            let mut net = NocSim::new(cfg);
            let t = TrafficConfig {
                msg_rate: 0.03,
                warmup: SimTime::from_us(1),
                measure: SimTime::from_us(2),
                ..TrafficConfig::default()
            };
            let p = TrafficRunner::new(t).run(&mut net, 4);
            (p.avg_latency_ns, p.throughput, p.delivered_frac)
        };
        assert_eq!(mk(), mk());
    }
}
