//! Online epoch-based self-correction (the extension variant, E9).
//!
//! Instead of capturing a whole trace and correcting offline, the
//! full-system run proceeds against the cheap analytic latency model
//! while a *shadow* detailed network replays each completed epoch's
//! traffic; per-(src,dst,class) correction factors derived from the shadow
//! fed back into the analytic model for subsequent epochs. The CMP
//! simulator is completely unaware — [`OnlineCorrected`] is just another
//! [`NetworkModel`].
//!
//! Trade-off vs offline SCTM: no second full replay of the whole run
//! and bounded memory (one epoch of messages), but corrections arrive
//! one epoch late and are aggregated per pair rather than per message —
//! experiment E9 measures what that costs as a function of epoch length.

use sctm_engine::net::{AnalyticNetwork, Delivery, Message, MsgClass, NetStats, NetworkModel};
use sctm_engine::stats::Running;
use sctm_engine::time::SimTime;
use std::collections::HashMap;

/// Smoothing factor for correction updates (EWMA weight of the newest
/// epoch's observation).
const EWMA_ALPHA: f64 = 0.6;

/// Factory producing fresh shadow-network instances (one per epoch).
///
/// Each epoch's traffic is replayed into a *fresh* shadow: reusing one
/// instance lets its internal clock run past the epoch boundary while
/// draining, so the next epoch's injections get clamped forward, pile
/// up, and the inflated latencies feed back into ever-growing
/// corrections — a positive feedback loop that wrecks the estimate at
/// scale. The price of freshness is losing cross-epoch carry-over
/// contention, which is second-order at sane epoch lengths.
pub type ShadowFactory = Box<dyn FnMut() -> Box<dyn NetworkModel> + Send>;

/// An analytic network that self-corrects against a shadow detailed
/// model at every epoch boundary.
pub struct OnlineCorrected {
    analytic: AnalyticNetwork,
    make_shadow: ShadowFactory,
    epoch: SimTime,
    next_boundary: SimTime,
    epoch_log: Vec<(SimTime, Message)>,
    /// (src,dst) → smoothed correction factor.
    factors: HashMap<(u32, u32, MsgClass), f64>,
    epochs_flushed: u64,
    corrections_applied: u64,
    shadow_buf: Vec<Delivery>,
}

impl OnlineCorrected {
    pub fn new(analytic: AnalyticNetwork, make_shadow: ShadowFactory, epoch: SimTime) -> Self {
        assert!(epoch.as_ps() > 0);
        OnlineCorrected {
            analytic,
            make_shadow,
            next_boundary: epoch,
            epoch,
            epoch_log: Vec::new(),
            factors: HashMap::new(),
            epochs_flushed: 0,
            corrections_applied: 0,
            shadow_buf: Vec::new(),
        }
    }

    pub fn epochs_flushed(&self) -> u64 {
        self.epochs_flushed
    }

    pub fn corrections_applied(&self) -> u64 {
        self.corrections_applied
    }

    /// Mean correction factor currently installed (diagnostics).
    pub fn mean_factor(&self) -> f64 {
        if self.factors.is_empty() {
            return 1.0;
        }
        self.factors.values().sum::<f64>() / self.factors.len() as f64
    }

    /// Replay the traffic of the epoch ending at `boundary` through the
    /// shadow network and update the analytic correction table.
    /// Messages already registered for later epochs (future-scheduled
    /// sends) are retained for their own epoch.
    fn flush_epoch(&mut self, boundary: SimTime) {
        self.epochs_flushed += 1;
        let (this_epoch, later): (Vec<_>, Vec<_>) =
            self.epoch_log.drain(..).partition(|&(at, _)| at < boundary);
        self.epoch_log = later;
        if this_epoch.is_empty() {
            return;
        }
        // Observed shadow latency and model-base latency per pair,
        // replayed into a fresh shadow instance (see [`ShadowFactory`]).
        let mut shadow = (self.make_shadow)();
        debug_assert_eq!(shadow.num_nodes(), self.analytic.num_nodes());
        let mut obs: HashMap<(u32, u32, MsgClass), (Running, Running)> = HashMap::new();
        for &(at, msg) in &this_epoch {
            shadow.inject(at, msg);
        }
        self.shadow_buf.clear();
        shadow.drain(&mut self.shadow_buf);
        for d in &self.shadow_buf {
            let key = (d.msg.src.0, d.msg.dst.0, d.msg.class);
            let e = obs
                .entry(key)
                .or_insert_with(|| (Running::new(), Running::new()));
            e.0.push(d.latency().as_ps() as f64);
            e.1.push(self.analytic.base_latency(&d.msg).as_ps() as f64);
        }
        for ((src, dst, class), (shadow_lat, base_lat)) in obs {
            if base_lat.mean() <= 0.0 {
                continue;
            }
            // Cap the per-epoch observation: replaying a whole epoch
            // open-loop into the shadow overestimates queueing (the
            // real run is closed-loop and self-throttles), and an
            // uncapped ratio can run away — each inflation stretches
            // the run, which inflates the next epoch's ratio.
            let ratio = (shadow_lat.mean() / base_lat.mean()).clamp(0.125, 8.0);
            let cur = self.factors.get(&(src, dst, class)).copied().unwrap_or(1.0);
            let next = (1.0 - EWMA_ALPHA) * cur + EWMA_ALPHA * ratio;
            self.factors.insert((src, dst, class), next);
            self.analytic.set_correction(
                sctm_engine::net::NodeId(src),
                sctm_engine::net::NodeId(dst),
                class,
                next,
            );
            self.corrections_applied += 1;
        }
    }
}

impl NetworkModel for OnlineCorrected {
    fn num_nodes(&self) -> usize {
        self.analytic.num_nodes()
    }

    fn inject(&mut self, at: SimTime, msg: Message) {
        self.epoch_log.push((at, msg));
        self.analytic.inject(at, msg);
    }

    fn next_time(&self) -> Option<SimTime> {
        self.analytic.next_time()
    }

    fn advance_until(&mut self, t: SimTime, out: &mut Vec<Delivery>) {
        while self.next_boundary <= t {
            let b = self.next_boundary;
            self.analytic.advance_until(b, out);
            self.flush_epoch(b);
            self.next_boundary = b + self.epoch;
        }
        self.analytic.advance_until(t, out);
    }

    fn stats(&self) -> &NetStats {
        self.analytic.stats()
    }

    fn label(&self) -> &'static str {
        "online-corrected"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sctm_engine::net::{MsgId, NodeId};

    fn msg(id: u64, src: u32, dst: u32) -> Message {
        Message {
            id: MsgId(id),
            src: NodeId(src),
            dst: NodeId(dst),
            class: MsgClass::Data,
            bytes: 64,
        }
    }

    /// Shadow = analytic with 4x the per-hop latency: corrections should
    /// converge toward ~4x factors.
    fn setup(epoch_us: u64) -> OnlineCorrected {
        let fast = AnalyticNetwork::new(16, SimTime::from_ns(4), SimTime::from_ns(2), 5);
        let make_shadow: ShadowFactory = Box::new(|| {
            Box::new(AnalyticNetwork::new(
                16,
                SimTime::from_ns(4),
                SimTime::from_ns(8),
                20,
            ))
        });
        OnlineCorrected::new(fast, make_shadow, SimTime::from_us(epoch_us))
    }

    #[test]
    fn corrections_move_toward_shadow() {
        let mut net = setup(1);
        let mut out = Vec::new();
        let mut id = 0;
        // Several epochs of steady traffic on one pair.
        for e in 0..5u64 {
            for k in 0..20u64 {
                net.inject(
                    SimTime::from_us(e) + SimTime::from_ns(k * 40),
                    msg(id, 0, 15),
                );
                id += 1;
            }
            net.advance_until(SimTime::from_us(e + 1), &mut out);
        }
        assert!(net.epochs_flushed() >= 4);
        let f = net.factors.get(&(0, 15, MsgClass::Data)).copied().unwrap();
        assert!(f > 1.5, "factor did not grow toward shadow ratio: {f}");
        // After correction, analytic latency for the pair approaches the
        // shadow's.
        let corrected = net.analytic.model_latency(&msg(999, 0, 15)).as_ps() as f64;
        let shadow_like = AnalyticNetwork::new(16, SimTime::from_ns(4), SimTime::from_ns(8), 20)
            .model_latency(&msg(999, 0, 15))
            .as_ps() as f64;
        let err = (corrected - shadow_like).abs() / shadow_like;
        assert!(err < 0.25, "corrected latency still {err:.2} off");
    }

    #[test]
    fn uncongested_pairs_untouched() {
        let mut net = setup(1);
        let mut out = Vec::new();
        net.inject(SimTime::ZERO, msg(0, 0, 15));
        net.advance_until(SimTime::from_us(2), &mut out);
        assert!(!net.factors.contains_key(&(3, 7, MsgClass::Data)));
        assert!(
            (net.analytic
                .correction(NodeId(3), NodeId(7), MsgClass::Data)
                - 1.0)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn empty_epochs_flush_cheaply() {
        let mut net = setup(1);
        let mut out = Vec::new();
        net.advance_until(SimTime::from_us(10), &mut out);
        assert_eq!(net.epochs_flushed(), 10);
        assert_eq!(net.corrections_applied(), 0);
        assert_eq!(net.mean_factor(), 1.0);
    }

    #[test]
    fn deliveries_still_complete() {
        let mut net = setup(1);
        let mut out = Vec::new();
        for i in 0..50u64 {
            net.inject(
                SimTime::from_ns(i * 100),
                msg(i, (i % 16) as u32, ((i + 3) % 16) as u32),
            );
        }
        net.drain(&mut out);
        assert_eq!(out.len(), 50);
        assert_eq!(net.stats().in_flight(), 0);
    }

    #[test]
    fn shorter_epochs_correct_sooner() {
        let run = |epoch_us: u64| {
            let mut net = setup(epoch_us);
            let mut out = Vec::new();
            let mut id = 0;
            for e in 0..4u64 {
                for k in 0..10u64 {
                    net.inject(
                        SimTime::from_us(e) + SimTime::from_ns(k * 50),
                        msg(id, 1, 9),
                    );
                    id += 1;
                }
            }
            net.advance_until(SimTime::from_us(4), &mut out);
            net.factors
                .get(&(1, 9, MsgClass::Data))
                .copied()
                .unwrap_or(1.0)
        };
        let fine = run(1);
        let coarse = run(4);
        assert!(
            fine > coarse,
            "1µs epochs ({fine}) should have corrected more than 4µs ({coarse})"
        );
    }
}
