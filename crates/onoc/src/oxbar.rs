//! Wavelength-routed optical crossbar with token arbitration
//! (Corona-style MWSR — multiple writers, single reader).
//!
//! Every destination owns a *home channel*: a DWDM waveguide bundle
//! snaking past every tile. Any source may modulate onto the channel,
//! but only after grabbing the channel's circulating optical token,
//! which serialises writers. The token travels the serpentine at the
//! speed of light in silicon; a sender holds it for exactly its burst
//! and releases it in place, so arbitration fairness is positional
//! round-robin — the canonical MWSR behaviour whose hot-spot saturation
//! experiment E6 looks for.
//!
//! Everything is event-driven and closed-form between events: token
//! motion is not simulated tick by tick, only evaluated at request and
//! release instants.
//!
//! **Order: none promised.** Each message requests its home channel on
//! its own, and a writer the token was heading for is re-queued behind
//! later requests when a nearer one preempts it. Then a later message
//! from the same source can take the token first: on a fresh 4×4
//! crossbar, 72-byte messages `10 → 0` at 0 and 10 ps followed by
//! `5 → 0` at 20 ps deliver the second before the first.

use crate::layout::Floorplan;
use sctm_engine::event::EventQueue;
use sctm_engine::ledger::Ledger;
use sctm_engine::net::{Delivery, Message, NetStats, NetworkModel};
use sctm_engine::time::{Freq, SimTime};
use sctm_photonic::{ChannelPlan, DeviceKit, LinkBudget};

/// Configuration of the MWSR crossbar.
#[derive(Clone, Copy, Debug)]
pub struct OxbarConfig {
    pub floorplan: Floorplan,
    pub kit: DeviceKit,
    pub plan: ChannelPlan,
    /// NI clock for serialisation of the electrical side.
    pub ni_freq: Freq,
    /// NI latency each end, NI cycles.
    pub ni_cycles: u64,
}

impl OxbarConfig {
    pub fn new(side: usize) -> Self {
        OxbarConfig {
            floorplan: Floorplan::new(side, 2.5),
            kit: DeviceKit::default(),
            plan: ChannelPlan::default(),
            ni_freq: Freq::from_ghz(2),
            ni_cycles: 2,
        }
    }

    pub fn budget(&self) -> LinkBudget {
        self.floorplan.oxbar_budget(self.kit, self.plan)
    }

    /// Token segment time: light covering one tile pitch.
    fn seg_time(&self) -> SimTime {
        SimTime::from_ps(self.kit.waveguide.tof_ps(self.floorplan.tile_pitch_mm))
    }
}

/// Home-channel arbitration state.
#[derive(Clone, Debug)]
struct Channel {
    /// When the token was/will be released.
    free_at: SimTime,
    /// Serpentine position where it is released.
    free_pos: u64,
    /// Message ids waiting for this channel, in arrival order.
    waiting: Vec<u64>,
    /// A writer the token is currently travelling toward: `(id, grab
    /// time)`. A later request that the token physically reaches first
    /// preempts this (the token does not know who asked first).
    pending: Option<(u64, SimTime)>,
}

#[derive(Clone, Copy, Debug)]
enum Ev {
    /// Message reaches its NI and requests the home channel of its dst.
    Request(u64),
    /// The circulating token reaches the pending writer.
    Grant(u64),
    /// Optical burst has fully left the source; token released.
    BurstEnd(u64),
    /// Last bit arrives at the destination NI.
    Deliver(u64),
}

/// MWSR crossbar simulator.
#[derive(Clone, Debug)]
pub struct OxbarSim {
    cfg: OxbarConfig,
    q: EventQueue<Ev>,
    ledger: Ledger,
    channels: Vec<Channel>,
    nodes: u64,
    /// Flight from writer to reader, by [`Floorplan::serpentine_tiles`].
    tof: Vec<SimTime>,
}

impl OxbarSim {
    pub fn new(cfg: OxbarConfig) -> Self {
        let n = cfg.floorplan.num_nodes();
        OxbarSim {
            cfg,
            q: EventQueue::new(),
            ledger: Ledger::new(),
            channels: (0..n)
                .map(|i| Channel {
                    free_at: SimTime::ZERO,
                    // Tokens start spread around the ring.
                    free_pos: i as u64,
                    waiting: Vec::new(),
                    pending: None,
                })
                .collect(),
            nodes: n as u64,
            tof: cfg.floorplan.serpentine_tof(&cfg.kit.waveguide),
        }
    }

    fn ni_delay(&self) -> SimTime {
        self.cfg.ni_freq.cycles(self.cfg.ni_cycles)
    }

    /// When the circulating token next passes serpentine position `pos`,
    /// at or after `now`. The token has been circling freely since
    /// `(free_at, free_pos)`.
    fn token_arrival(&self, ch: &Channel, pos: u64, now: SimTime) -> SimTime {
        let seg = self.cfg.seg_time().as_ps().max(1);
        let n = self.nodes;
        let dist = (pos + n - ch.free_pos % n) % n;
        let mut t = ch.free_at + SimTime::from_ps(dist * seg);
        if t < now {
            let lap = SimTime::from_ps(n * seg);
            let behind = now.saturating_since(t).as_ps();
            let laps = behind.div_ceil(lap.as_ps());
            t += lap.scaled(laps);
        }
        t
    }

    /// If the channel is idle with waiters and no pending grant, aim the
    /// token at the waiter it reaches first.
    fn arbitrate(&mut self, ch_idx: usize, now: SimTime) {
        let ch = &self.channels[ch_idx];
        if ch.pending.is_some() || ch.waiting.is_empty() || ch.free_at > now {
            return;
        }
        let (best_i, best_t) = ch
            .waiting
            .iter()
            .enumerate()
            .map(|(i, id)| {
                let pos = self.ledger[*id].msg.src.0 as u64;
                (i, self.token_arrival(ch, pos, now))
            })
            .min_by_key(|&(i, t)| (t, i))
            .unwrap();
        let ch = &mut self.channels[ch_idx];
        let id = ch.waiting.remove(best_i);
        ch.pending = Some((id, best_t));
        self.q.schedule(best_t.max(now), Ev::Grant(id));
    }

    fn handle(&mut self, at: SimTime, ev: Ev, out: &mut Vec<Delivery>) {
        match ev {
            Ev::Request(id) => {
                let Message { src, dst, .. } = self.ledger[id].msg;
                if dst == src {
                    // Loopback stays in the NI.
                    self.q.schedule(at + self.ni_delay(), Ev::Deliver(id));
                    return;
                }
                let ch_idx = dst.idx();
                self.channels[ch_idx].waiting.push(id);
                match self.channels[ch_idx].pending {
                    None => self.arbitrate(ch_idx, at),
                    Some((pid, pt)) => {
                        // The token may physically reach the newcomer
                        // before the writer it is aimed at — preempt.
                        let pos = src.0 as u64;
                        let t_new = self.token_arrival(&self.channels[ch_idx], pos, at);
                        if t_new < pt {
                            let ch = &mut self.channels[ch_idx];
                            ch.waiting.retain(|&w| w != id);
                            ch.waiting.push(pid);
                            ch.pending = Some((id, t_new));
                            self.q.schedule(t_new.max(at), Ev::Grant(id));
                        }
                    }
                }
            }
            Ev::Grant(id) => {
                // Validate against preemption: only the live pending
                // grant commits; stale Grant events are ignored.
                let Some(st) = self.ledger.get(id) else {
                    return;
                };
                let msg = st.msg;
                let ch_idx = msg.dst.idx();
                if self.channels[ch_idx].pending != Some((id, at)) {
                    return;
                }
                let burst = self.cfg.plan.burst_time(msg.bytes.max(1));
                let src_pos = msg.src.0 as u64;
                let end = at + burst;
                let ch = &mut self.channels[ch_idx];
                ch.pending = None;
                ch.free_at = end;
                ch.free_pos = src_pos;
                self.q.schedule(end, Ev::BurstEnd(id));
            }
            Ev::BurstEnd(id) => {
                let Message { src, dst, .. } = self.ledger[id].msg;
                // Propagation from source to reader along the serpentine.
                let tof = self.tof[self.cfg.floorplan.serpentine_tiles(src, dst)];
                self.q.schedule(at + tof + self.ni_delay(), Ev::Deliver(id));
                self.arbitrate(dst.idx(), at);
            }
            Ev::Deliver(id) => {
                self.ledger.deliver(at, id, out);
            }
        }
    }
}

impl NetworkModel for OxbarSim {
    fn num_nodes(&self) -> usize {
        self.nodes as usize
    }

    fn inject(&mut self, at: SimTime, msg: Message) {
        let at = at.max(self.q.now());
        self.ledger.inject(at, msg, ());
        self.q.schedule(at + self.ni_delay(), Ev::Request(msg.id.0));
    }

    fn next_time(&self) -> Option<SimTime> {
        self.q.peek_time()
    }

    fn advance_until(&mut self, t: SimTime, out: &mut Vec<Delivery>) {
        while let Some(ev) = self.q.pop_before(t) {
            self.handle(ev.at, ev.payload, out);
        }
        self.q.advance_to(t);
    }

    fn stats(&self) -> &NetStats {
        self.ledger.stats()
    }

    fn label(&self) -> &'static str {
        "oxbar"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{drain, msg};
    use sctm_engine::net::MsgId;

    fn sim() -> OxbarSim {
        OxbarSim::new(OxbarConfig::new(4))
    }

    #[test]
    fn hotspot_serialises_on_home_channel() {
        // Everyone writes to node 0: the single reader's token is the
        // bottleneck, so makespan ≈ sum of bursts, not max.
        let mut s = sim();
        let burst = s.cfg.plan.burst_time(512);
        let n = 15u64;
        for i in 0..n {
            s.inject(SimTime::ZERO, msg(i, (i + 1) as u32, 0, 512));
        }
        let out = drain(&mut s);
        let makespan = out.iter().map(|d| d.delivered_at).max().unwrap();
        assert!(
            makespan.as_ps() >= burst.as_ps() * (n - 1),
            "hotspot did not serialise: makespan {makespan}, burst {burst}"
        );
    }

    #[test]
    fn distinct_destinations_proceed_in_parallel() {
        let mut s = sim();
        let burst = s.cfg.plan.burst_time(512);
        for i in 0..15u64 {
            s.inject(SimTime::ZERO, msg(i, 0, (i + 1) as u32, 512));
        }
        let out = drain(&mut s);
        let makespan = out.iter().map(|d| d.delivered_at).max().unwrap();
        // Different home channels — near-parallel, far below serial sum.
        assert!(
            makespan.as_ps() < burst.as_ps() * 8,
            "independent channels serialised: {makespan}"
        );
    }

    #[test]
    fn token_distance_affects_grant_order() {
        let mut s = sim_no_ni();
        // Token for channel 5 starts at position 5. Writers at 6 and 4:
        // forward distances are 1 and 15 — node 6 must win even though
        // node 4's request was posted first.
        s.inject(SimTime::ZERO, msg(1, 4, 5, 256));
        s.inject(SimTime::ZERO, msg(2, 6, 5, 256));
        let out = drain(&mut s);
        assert_eq!(out.len(), 2);
        let t1 = out
            .iter()
            .find(|d| d.msg.id == MsgId(1))
            .unwrap()
            .delivered_at;
        let t2 = out
            .iter()
            .find(|d| d.msg.id == MsgId(2))
            .unwrap()
            .delivered_at;
        assert!(t2 < t1, "positional round-robin violated: {t2} !< {t1}");
    }

    #[test]
    fn self_send_loopback() {
        let mut s = sim();
        s.inject(SimTime::ZERO, msg(1, 7, 7, 64));
        let out = drain(&mut s);
        assert_eq!(out.len(), 1);
        // NI in, NI out: the channel and its token are never touched.
        assert_eq!(out[0].latency(), s.ni_delay().scaled(2));
    }

    /// Config with zero NI delay so requests land while the token is
    /// still at its initial position — lets tests reason about token
    /// distances exactly.
    fn sim_no_ni() -> OxbarSim {
        let mut cfg = OxbarConfig::new(4);
        cfg.ni_cycles = 0;
        OxbarSim::new(cfg)
    }

    #[test]
    fn first_message_latency_is_distance_invariant() {
        // In a fresh network the token starts at the destination, so
        // token wait (dst→src) plus flight (src→dst) is one full lap
        // regardless of the pair — a geometric invariant (modulo
        // per-segment picosecond rounding) worth pinning.
        let mut a = sim_no_ni();
        a.inject(SimTime::ZERO, msg(1, 2, 3, 64));
        let la = drain(&mut a)[0].latency();
        let mut b = sim_no_ni();
        b.inject(SimTime::ZERO, msg(1, 3, 2, 64));
        let lb = drain(&mut b)[0].latency();
        assert!(
            la.abs_diff(lb).as_ps() <= 20,
            "lap invariant broken: {la} vs {lb}"
        );
    }

    #[test]
    fn latency_scales_with_serpentine_distance() {
        // Decouple token wait from flight: prime each channel with a
        // first burst so the token sits at a known position, then send
        // a follow-up whose token distance is identical (1 segment) but
        // whose flight distance differs.
        let run = |s1: u32, s2: u32, dst: u32| {
            let mut s = sim();
            s.inject(SimTime::ZERO, msg(1, s1, dst, 64));
            s.inject(SimTime::ZERO, msg(2, s2, dst, 64));
            let out = drain(&mut s);
            out.iter()
                .find(|d| d.msg.id == MsgId(2))
                .unwrap()
                .delivered_at
        };
        // A: token released at 5, second writer at 6 (dist 1), flight 6→9 = 3 segs.
        let near = run(5, 6, 9);
        // B: token released at 12, second writer at 13 (dist 1), flight 13→9 = 12 segs.
        let far = run(12, 13, 9);
        assert!(far > near, "serpentine distance invisible: {far} !> {near}");
    }
}
