//! Deterministic epoch-parallel capture runner.
//!
//! Graphite-style conservative parallel simulation of the full-system
//! CMP: nodes (core + L1 + directory/L2 slice + any memory controller)
//! are sharded round-robin across worker threads, and every shard
//! simulates independently inside an epoch window `[G, G + L)`, where
//! `G` is the global minimum next-event time and `L` is the lookahead —
//! the minimum cross-node latency of the capture network model. At the
//! window edge all shards synchronize on a barrier and exchange the
//! cross-shard protocol messages produced during the epoch.
//!
//! ## Why the result is byte-identical to the sequential run
//!
//! * **Ids**: the simulator numbers messages per source
//!   (`seq·n + src`), so a shard assigns exactly the ids the sequential
//!   run would, without global coordination.
//! * **Safety of barrier exchange**: every cross-shard message sent at
//!   time `t ≥ G` is delivered at `t + latency ≥ G + L` — at or beyond
//!   the window edge — so the destination shard, which has only
//!   processed events strictly before `G + L`, has not yet "missed" it.
//!   Injection uses `inject_backdated` so the delivery time is computed
//!   from the true source-side send time, exactly as in place.
//! * **Per-shard ordering**: at equal times the sequential loop runs
//!   core events before network deliveries, and so does each shard for
//!   its own nodes; nodes interact only through messages, so the
//!   sequential schedule restricted to a shard's nodes *is* the shard's
//!   schedule.
//! * **Aggregation**: all cross-shard statistics are integer sums,
//!   maxes, or exact bucket-wise histogram merges — no floating-point
//!   accumulation order dependence.
//!
//! A fast-forwarding core may overrun the window (it executes up to a
//! quantum past its wakeup without touching the event loop) and send at
//! `t ≥ G + L`; that is still safe — the delivery lands even further in
//! the future — and sequential-identical, because the overrun is a
//! deterministic function of the core's own state.

use crate::protocol::{TraceHook, Workload};
use crate::sim::{CmpConfig, CmpResult, CmpSim, RemoteMsg};
use sctm_engine::net::NetworkModel;
use sctm_engine::par::SpinBarrier;
use sctm_engine::time::SimTime;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// One shard's simulator and trace hook, owned by its worker thread
/// during an epoch and by the coordinator between epochs. The mutex is
/// never contended — the barrier protocol guarantees exclusive phases —
/// it exists to move ownership safely across threads.
struct Shard<H> {
    sim: CmpSim,
    hook: H,
}

/// Run a capture sharded across `nets.len()` worker threads with
/// conservative epoch-barrier synchronization. Produces a result (and
/// per-shard hooks) byte-identical to the sequential
/// [`CmpSim::run`] with the same configuration, network model, and
/// workload — at any shard count.
///
/// `nets` and `workloads` are per-shard clones of the full-size capture
/// network and workload (each shard only exercises its own nodes);
/// `lookahead` must be a positive conservative bound on the minimum
/// cross-node message latency of the network model (see
/// `AnalyticNetwork::min_cross_latency`).
pub fn run_sharded<H: TraceHook + Send>(
    cfg: &CmpConfig,
    nets: Vec<Box<dyn NetworkModel>>,
    workloads: Vec<Box<dyn Workload>>,
    hooks: Vec<H>,
    lookahead: SimTime,
) -> (CmpResult, Vec<H>) {
    let s = nets.len();
    assert!(s >= 1, "need at least one shard");
    assert_eq!(workloads.len(), s, "one workload clone per shard");
    assert_eq!(hooks.len(), s, "one hook per shard");
    assert!(
        lookahead > SimTime::ZERO,
        "epoch parallelism needs a positive lookahead"
    );

    let shards: Vec<Mutex<Shard<H>>> = nets
        .into_iter()
        .zip(workloads)
        .zip(hooks)
        .enumerate()
        .map(|(i, ((net, wl), hook))| {
            let mut sim = CmpSim::new(cfg.clone(), net, wl);
            sim.set_shard(i, s);
            sim.start();
            Mutex::new(Shard { sim, hook })
        })
        .collect();

    // Epoch window edge (exclusive), published by the coordinator while
    // the workers wait at the start-of-epoch barrier.
    let window = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let barrier = SpinBarrier::new(s + 1);

    std::thread::scope(|scope| {
        for me in shards.iter() {
            let barrier = &barrier;
            let window = &window;
            let done = &done;
            scope.spawn(move || {
                loop {
                    barrier.wait(); // coordinator published window / done
                    if done.load(Ordering::Acquire) {
                        return;
                    }
                    let w = SimTime::from_ps(window.load(Ordering::Acquire));
                    {
                        let mut g = me.lock().expect("shard mutex poisoned");
                        let Shard { sim, hook } = &mut *g;
                        sim.step_until(hook, Some(w));
                    }
                    barrier.wait(); // epoch complete
                }
            });
        }

        // Coordinator: between barriers it has exclusive access to every
        // shard — exchange mailboxes, then publish the next window.
        let mut inbox: Vec<RemoteMsg> = Vec::new();
        loop {
            inbox.clear();
            for sh in shards.iter() {
                let mut g = sh.lock().expect("shard mutex poisoned");
                inbox.append(&mut g.sim.take_outbox());
            }
            // Canonical exchange order: (send time, capture id). Ids are
            // globally unique, so this order — and therefore everything
            // downstream — is independent of shard count and thread
            // scheduling.
            inbox.sort_unstable_by_key(|r| (r.at, r.msg.id.0));
            for r in inbox.drain(..) {
                let dst_shard = r.msg.dst.idx() % s;
                let mut g = shards[dst_shard].lock().expect("shard mutex poisoned");
                g.sim.accept_remote(r);
            }
            let g = shards
                .iter()
                .filter_map(|sh| {
                    sh.lock()
                        .expect("shard mutex poisoned")
                        .sim
                        .next_event_time()
                })
                .min();
            match g {
                None => {
                    done.store(true, Ordering::Release);
                    barrier.wait();
                    break;
                }
                Some(g) => {
                    window.store((g + lookahead).as_ps(), Ordering::Release);
                    barrier.wait(); // release workers into the epoch
                    barrier.wait(); // wait for the epoch to complete
                }
            }
        }
    });

    let mut sims = Vec::with_capacity(s);
    let mut hooks = Vec::with_capacity(s);
    for sh in shards {
        let Shard { sim, hook } = sh.into_inner().expect("shard mutex poisoned");
        sims.push(sim);
        hooks.push(hook);
    }
    for sim in &sims {
        sim.finish_checks();
    }
    CmpSim::validate_coherence_sharded(&sims);
    (CmpSim::merged_result(&sims), hooks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{InjectRecord, Op};
    use sctm_engine::net::{AnalyticNetwork, MsgId};

    /// Deterministic per-core workload safe to clone per shard.
    #[derive(Clone)]
    struct Mini {
        cores: usize,
        pos: Vec<usize>,
        len: usize,
    }

    impl Workload for Mini {
        fn num_cores(&self) -> usize {
            self.cores
        }
        fn name(&self) -> &'static str {
            "mini-par"
        }
        fn next_op(&mut self, core: usize) -> Op {
            let i = self.pos[core];
            self.pos[core] += 1;
            if i >= self.len {
                return Op::Halt;
            }
            let phase = self.len / 3;
            if phase > 0 && i % phase == phase - 1 && i / phase < 2 {
                return Op::Barrier((i / phase) as u32);
            }
            match i % 4 {
                0 => Op::Compute(6),
                1 => Op::Load(((core as u64 * 5 + i as u64) % 48) * 64),
                2 => Op::Load(0x2_0000_0000 + core as u64 * 0x8000 + (i as u64 % 16) * 64),
                _ => Op::Store(((i as u64 * 3) % 48) * 64),
            }
        }
    }

    /// Trace hook recording every event, for byte-identity comparison.
    #[derive(Default)]
    struct RecHook {
        injects: Vec<String>,
        delivers: Vec<(u64, u64)>,
    }

    impl TraceHook for RecHook {
        fn on_inject(&mut self, rec: InjectRecord<'_>) {
            self.injects.push(format!("{rec:?}"));
        }
        fn on_deliver(&mut self, id: MsgId, at: SimTime) {
            self.delivers.push((id.0, at.as_ps()));
        }
    }

    fn analytic(n: usize) -> AnalyticNetwork {
        AnalyticNetwork::new(n, SimTime::from_ns(10), SimTime::from_ns(2), 10)
    }

    fn run_with_shards(
        side: usize,
        ops: usize,
        s: usize,
    ) -> (CmpResult, Vec<String>, Vec<(u64, u64)>) {
        let cfg = CmpConfig::tiled(side);
        let n = cfg.num_cores();
        let net = analytic(n);
        let lookahead = net.min_cross_latency(&[
            (sctm_engine::net::MsgClass::Control, cfg.ctrl_bytes),
            (sctm_engine::net::MsgClass::Data, cfg.data_bytes),
        ]);
        let wl = Mini {
            cores: n,
            pos: vec![0; n],
            len: ops,
        };
        if s == 0 {
            // Sequential reference through the classic path.
            let mut sim = CmpSim::new(cfg, Box::new(net), Box::new(wl));
            let mut hook = RecHook::default();
            let res = sim.run(&mut hook);
            let mut inj = hook.injects;
            inj.sort_unstable();
            let mut del = hook.delivers;
            del.sort_unstable();
            return (res, inj, del);
        }
        let nets: Vec<Box<dyn NetworkModel>> = (0..s)
            .map(|_| Box::new(net.clone()) as Box<dyn NetworkModel>)
            .collect();
        let workloads: Vec<Box<dyn Workload>> = (0..s)
            .map(|_| Box::new(wl.clone()) as Box<dyn Workload>)
            .collect();
        let hooks: Vec<RecHook> = (0..s).map(|_| RecHook::default()).collect();
        let (res, hooks) = run_sharded(&cfg, nets, workloads, hooks, lookahead);
        let mut inj: Vec<String> = hooks
            .iter()
            .flat_map(|h| h.injects.iter().cloned())
            .collect();
        inj.sort_unstable();
        let mut del: Vec<(u64, u64)> = hooks
            .iter()
            .flat_map(|h| h.delivers.iter().copied())
            .collect();
        del.sort_unstable();
        (res, inj, del)
    }

    #[test]
    fn sharded_run_matches_sequential_event_for_event() {
        let (seq_res, seq_inj, seq_del) = run_with_shards(2, 120, 0);
        for s in [1, 2, 3, 4] {
            let (res, inj, del) = run_with_shards(2, 120, s);
            assert_eq!(
                format!("{seq_res:?}"),
                format!("{res:?}"),
                "result @ {s} shards"
            );
            assert_eq!(seq_inj, inj, "injections @ {s} shards");
            assert_eq!(seq_del, del, "deliveries @ {s} shards");
        }
    }

    #[test]
    fn sharded_run_matches_on_larger_mesh() {
        let (seq_res, seq_inj, seq_del) = run_with_shards(3, 90, 0);
        let (res, inj, del) = run_with_shards(3, 90, 4);
        assert_eq!(format!("{seq_res:?}"), format!("{res:?}"));
        assert_eq!(seq_inj, inj);
        assert_eq!(seq_del, del);
    }
}
