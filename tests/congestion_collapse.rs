//! §P5 regression guard: open-loop classic replay must stay bounded.
//!
//! Classic trace replay injects at capture timestamps regardless of
//! what the target can drain, so a target past its saturation point
//! can push the replay timeline into congestion collapse, where every
//! simulated instant costs real work and the run takes effectively
//! forever. `replay_fixed` therefore bounds every classic replay at 200
//! network batches a message and returns the batches taken past that;
//! `Experiment::execute` turns it into [`SctmError::BudgetExhausted`].
//!
//! No shipped model collapses on the shipped kernels any more (the
//! obus/canneal 8×8 replay below, once the hostile case, takes under 4
//! batches a message), so the trip is pinned on a stub network that
//! ticks forever without delivering, and the former hostile setup only
//! has to finish — a test-side watchdog enforces wall-clock sanity,
//! since a stalled simulator would otherwise stall CI with it.

use sctm::prelude::*;
use sctm_engine::net::{Delivery, Message, NetStats, NetworkModel};
use sctm_engine::time::SimTime;
use sctm_trace::replay_fixed;
use std::sync::mpsc;
use std::time::Duration;

/// All-to-all burst traffic captured on the fast analytic model, to be
/// replayed on the serialising optical bus.
fn obus_canneal() -> (Experiment, TraceLog) {
    let e = Experiment::new(SystemConfig::new(8, NetworkKind::Obus), Kernel::Canneal).with_ops(400);
    let log = e.capture();
    (e, log)
}

#[test]
fn obus_canneal_classic_replay_completes_under_a_watchdog() {
    let (tx, rx) = mpsc::channel();
    let watched = std::thread::spawn(move || {
        let (e, log) = obus_canneal();
        let out = e
            .execute_seeded(&RunSpec::classic(), Some(&log))
            .expect("the obus/canneal classic replay stays inside its bound");
        assert!(out.report.exec_time > SimTime::ZERO);
        let _ = tx.send(out.report.exec_time);
    });
    match rx.recv_timeout(Duration::from_secs(180)) {
        Ok(est) => {
            watched.join().expect("replay thread panicked");
            eprintln!("obus/canneal classic replay: est {est:?}");
        }
        Err(_) => panic!(
            "classic replay neither finished nor returned a typed error \
             within 180s — congestion collapse is unbounded again"
        ),
    }
}

/// A network that always has work at the next nanosecond and never
/// delivers: the collapse `replay_fixed` must end.
#[derive(Default)]
struct NeverDelivers {
    now: SimTime,
    stats: NetStats,
}

impl NetworkModel for NeverDelivers {
    fn num_nodes(&self) -> usize {
        16
    }

    fn inject(&mut self, _at: SimTime, _msg: Message) {
        self.stats.injected += 1;
    }

    fn next_time(&self) -> Option<SimTime> {
        Some(self.now + SimTime::from_ns(1))
    }

    fn advance_until(&mut self, t: SimTime, _out: &mut Vec<Delivery>) {
        self.now = t;
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn label(&self) -> &'static str {
        "never-delivers"
    }
}

#[test]
fn budget_errors_are_deterministic() {
    // A replay that never finishes trips at exactly 200 batches a
    // message, the same on every run.
    let log = Experiment::new(SystemConfig::new(4, NetworkKind::Omesh), Kernel::Fft)
        .with_ops(150)
        .capture();
    let bound = 200 * log.len() as u64;
    for _ in 0..2 {
        let spent = replay_fixed(&log, &mut NeverDelivers::default())
            .expect_err("a network that never delivers trips the bound");
        assert_eq!(spent, bound);
    }
}
