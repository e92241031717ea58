//! Time-series sampling of per-node network gauges.
//!
//! [`publish_network`] captures one end-of-run snapshot per node; this
//! module captures the *trajectory*: a [`SampledNetwork`] wraps any
//! [`NetworkModel`] and, while the simulation advances, records each
//! node's queue depth and link utilisation at a fixed sim-time cadence.
//! The result is a [`SeriesStore`] of compact `(t_ps, value)` series
//! that export as Perfetto counter tracks (see
//! [`crate::chrome_trace_with_series`]) and as a `series` section of
//! the run manifest.
//!
//! Sampling is a pure observer: the wrapper only splits `advance_until`
//! calls at sample boundaries, which every model already supports at
//! arbitrary horizons, so wrapped and bare runs produce identical
//! deliveries — asserted by the tests below.
//!
//! [`publish_network`]: crate::publish_network

use sctm_engine::net::{Delivery, Message, MsgLifecycle, NetStats, NetworkModel, NodeObs};
use sctm_engine::time::SimTime;

/// One per-node gauge over sim time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CounterSeries {
    /// Metric name, e.g. `node003.queue_depth`.
    pub name: String,
    pub node: u32,
    /// `(sim time ps, value)`, strictly increasing in time.
    pub points: Vec<(u64, f64)>,
}

/// All series sampled during one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SeriesStore {
    /// Sampling cadence in picoseconds of sim time.
    pub interval_ps: u64,
    pub series: Vec<CounterSeries>,
}

impl SeriesStore {
    pub fn is_empty(&self) -> bool {
        self.series.iter().all(|s| s.points.is_empty())
    }

    /// Total sample points across all series.
    pub fn num_points(&self) -> usize {
        self.series.iter().map(|s| s.points.len()).sum()
    }
}

/// A [`NetworkModel`] decorator that samples per-node gauges every
/// `interval` of sim time while delegating all simulation to the
/// wrapped model.
pub struct SampledNetwork {
    inner: Box<dyn NetworkModel>,
    interval: SimTime,
    next_sample: SimTime,
    /// Last seen cumulative busy time per node, to turn the monotone
    /// counter into a per-interval utilisation.
    last_busy: Vec<u64>,
    scratch: Vec<NodeObs>,
    store: SeriesStore,
}

impl SampledNetwork {
    pub fn new(inner: Box<dyn NetworkModel>, interval: SimTime) -> Self {
        assert!(interval > SimTime::ZERO, "sampling interval must be > 0");
        let n = inner.num_nodes();
        let mut series = Vec::with_capacity(2 * n);
        for node in 0..n as u32 {
            series.push(CounterSeries {
                name: format!("node{node:03}.queue_depth"),
                node,
                points: Vec::new(),
            });
            series.push(CounterSeries {
                name: format!("node{node:03}.link_util"),
                node,
                points: Vec::new(),
            });
        }
        SampledNetwork {
            inner,
            interval,
            next_sample: interval,
            last_busy: vec![0; n],
            scratch: Vec::new(),
            store: SeriesStore {
                interval_ps: interval.as_ps(),
                series,
            },
        }
    }

    pub fn series(&self) -> &SeriesStore {
        &self.store
    }

    /// Unwrap, returning the inner model and the sampled series.
    pub fn into_parts(self) -> (Box<dyn NetworkModel>, SeriesStore) {
        (self.inner, self.store)
    }

    fn sample(&mut self, at: SimTime) {
        self.scratch.clear();
        self.inner.observe_nodes(&mut self.scratch);
        let at_ps = at.as_ps();
        let iv = self.interval.as_ps().max(1) as f64;
        for o in &self.scratch {
            let i = o.node as usize;
            if 2 * i + 1 >= self.store.series.len() {
                continue; // model reported a node it never declared
            }
            let busy = o.link_busy_ps.saturating_sub(self.last_busy[i]);
            self.last_busy[i] = o.link_busy_ps;
            self.store.series[2 * i]
                .points
                .push((at_ps, o.queue_depth as f64));
            self.store.series[2 * i + 1]
                .points
                .push((at_ps, (busy as f64 / iv).min(1.0)));
        }
    }
}

impl NetworkModel for SampledNetwork {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn inject(&mut self, at: SimTime, msg: Message) {
        self.inner.inject(at, msg);
    }

    fn next_time(&self) -> Option<SimTime> {
        self.inner.next_time()
    }

    fn advance_until(&mut self, t: SimTime, out: &mut Vec<Delivery>) {
        while self.next_sample <= t {
            let s = self.next_sample;
            self.inner.advance_until(s, out);
            self.sample(s);
            self.next_sample = s + self.interval;
        }
        self.inner.advance_until(t, out);
    }

    fn stats(&self) -> &NetStats {
        self.inner.stats()
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn observe_nodes(&self, out: &mut Vec<NodeObs>) {
        self.inner.observe_nodes(out);
    }

    fn set_lifecycle_capture(&mut self, on: bool) {
        self.inner.set_lifecycle_capture(on);
    }

    fn lifecycle_capture(&self) -> bool {
        self.inner.lifecycle_capture()
    }

    fn take_lifecycles(&mut self, out: &mut Vec<MsgLifecycle>) {
        self.inner.take_lifecycles(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sctm_engine::net::{AnalyticNetwork, MsgClass, MsgId, NodeId};

    fn msg(id: u64, src: u32, dst: u32) -> Message {
        Message {
            id: MsgId(id),
            src: NodeId(src),
            dst: NodeId(dst),
            class: MsgClass::Data,
            bytes: 64,
        }
    }

    fn run(mut net: Box<dyn NetworkModel>) -> Vec<(u64, u64)> {
        for i in 0..200u64 {
            net.inject(
                SimTime::from_ns(i % 50),
                msg(i, (i % 16) as u32, ((i * 7 + 1) % 16) as u32),
            );
        }
        let mut out = Vec::new();
        net.drain(&mut out);
        out.iter()
            .map(|d| (d.msg.id.0, d.delivered_at.as_ps()))
            .collect()
    }

    #[test]
    fn sampling_does_not_change_deliveries() {
        let bare = run(Box::new(AnalyticNetwork::new(
            16,
            SimTime::from_ns(8),
            SimTime::from_ns(2),
            40,
        )));
        let sampled = run(Box::new(SampledNetwork::new(
            Box::new(AnalyticNetwork::new(
                16,
                SimTime::from_ns(8),
                SimTime::from_ns(2),
                40,
            )),
            SimTime::from_ns(3),
        )));
        assert_eq!(bare, sampled);
    }

    #[test]
    fn samples_land_on_the_grid() {
        let mut net = SampledNetwork::new(
            Box::new(AnalyticNetwork::new(
                16,
                SimTime::from_ns(8),
                SimTime::from_ns(2),
                40,
            )),
            SimTime::from_ns(5),
        );
        for i in 0..50u64 {
            net.inject(SimTime::from_ns(i), msg(i, 0, 5));
        }
        let mut out = Vec::new();
        net.drain(&mut out);
        let store = net.series();
        assert_eq!(store.interval_ps, 5_000);
        assert_eq!(store.series.len(), 32);
        // AnalyticNetwork reports no per-node observations, so series
        // exist but stay empty — the wrapper must not invent data.
        assert!(store.is_empty());
    }

    #[test]
    fn detailed_model_produces_points() {
        use sctm_enoc_smoke::*;
        let (deliveries, store) = sampled_emesh_run();
        assert!(!deliveries.is_empty());
        assert!(!store.is_empty(), "no samples from a busy emesh run");
        let qd = &store.series[0];
        assert_eq!(qd.name, "node000.queue_depth");
        // Timestamps strictly increase along every series.
        for s in &store.series {
            assert!(s.points.windows(2).all(|w| w[0].0 < w[1].0));
            // Utilisation stays in [0, 1].
            if s.name.ends_with("link_util") {
                assert!(s.points.iter().all(|p| (0.0..=1.0).contains(&p.1)));
            }
        }
    }

    /// Tiny indirection so the obs crate does not depend on sctm-enoc:
    /// the "detailed model" here is a stub with real per-node counters.
    mod sctm_enoc_smoke {
        use super::*;

        struct Stubbed {
            stats: NetStats,
            queue: Vec<(SimTime, Message)>,
            busy: u64,
            now: SimTime,
        }

        impl NetworkModel for Stubbed {
            fn num_nodes(&self) -> usize {
                4
            }
            fn inject(&mut self, at: SimTime, msg: Message) {
                self.stats.injected += 1;
                self.queue.push((at + SimTime::from_ns(40), msg));
            }
            fn next_time(&self) -> Option<SimTime> {
                self.queue.iter().map(|(t, _)| *t).min()
            }
            fn advance_until(&mut self, t: SimTime, out: &mut Vec<Delivery>) {
                self.now = self.now.max(t);
                let due: Vec<_> = {
                    let (due, keep) = std::mem::take(&mut self.queue)
                        .into_iter()
                        .partition(|(dt, _)| *dt <= t);
                    self.queue = keep;
                    due
                };
                for (dt, msg) in due {
                    self.busy += 500;
                    let d = Delivery {
                        msg,
                        injected_at: dt.saturating_since(SimTime::from_ns(40)),
                        delivered_at: dt,
                    };
                    self.stats.record_delivery(&d);
                    out.push(d);
                }
            }
            fn stats(&self) -> &NetStats {
                &self.stats
            }
            fn label(&self) -> &'static str {
                "stub"
            }
            fn observe_nodes(&self, out: &mut Vec<NodeObs>) {
                for node in 0..4 {
                    out.push(NodeObs {
                        node,
                        queue_depth: self.queue.len() as u64,
                        link_busy_ps: self.busy,
                    });
                }
            }
        }

        pub fn sampled_emesh_run() -> (Vec<Delivery>, SeriesStore) {
            let mut net = SampledNetwork::new(
                Box::new(Stubbed {
                    stats: NetStats::default(),
                    queue: Vec::new(),
                    busy: 0,
                    now: SimTime::ZERO,
                }),
                SimTime::from_ns(10),
            );
            for i in 0..40u64 {
                net.inject(SimTime::from_ns(i * 3), msg(i, (i % 4) as u32, 0));
            }
            let mut out = Vec::new();
            net.drain(&mut out);
            let (_, store) = net.into_parts();
            (out, store)
        }
    }
}
