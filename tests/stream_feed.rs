//! A streamed gated pass does not depend on how its capture is cut.
//!
//! The self-correction loop replays each capture while the simulator is
//! still producing it (DESIGN.md §7, "The loop captures and replays at
//! once"). The pass runs only up to a horizon no row it has not been
//! given can replay before, so it must make the same network calls, in
//! the same order, however the rows reach it. Each capture here is fed
//! to the pass three ways — the complete log, a batch at every event
//! time, and batches of random size from a producer thread — on every
//! detailed network, and all three must agree to the bit. In a debug build the
//! pass checks the horizon itself as it runs: no row it is given late
//! replays before the horizon, and no network event reaches it.
//!
//! The log a streamed capture assembles is the log `Capture::finish`
//! builds: byte for byte the containers `tests/golden_capture.rs` pins.
//! And a capture that panics part-way never leaves its pass waiting.

use sctm::cmp::{CmpSim, InjectRecord, TraceHook};
use sctm::engine::net::MsgId;
use sctm::engine::time::SimTime;
use sctm::prelude::*;
use sctm::trace::sctf::to_sctf_bytes;
use sctm::trace::{
    replay_sctm_pass, replay_sctm_stream, ReplayResult, ReplayScratch, StreamCapture, StreamedPass,
};
use sctm::workloads::{build, WorkloadParams};
use std::panic::{catch_unwind, AssertUnwindSafe};

const OPS: usize = 160;
const SEED: u64 = 1;

/// Run the capture `Experiment::capture` runs of `kernel` on a `side` ×
/// `side` mesh, `ops` per core, into `hook`; its execution time.
fn run_capture(kernel: Kernel, side: usize, ops: usize, hook: &mut dyn TraceHook) -> SimTime {
    let sys = SystemConfig::new(side, NetworkKind::Omesh);
    let cores = sys.cores();
    let workload = build(kernel, WorkloadParams::new(cores, ops, SEED));
    let analytic = SystemConfig::analytic(cores);
    CmpSim::new(sys.cmp.clone(), Box::new(analytic), Box::new(workload))
        .run(hook)
        .exec_time
}

/// A [`StreamCapture`] that flushes after a random 1 to 64 rows, drawn
/// afresh at every event time, the same sequence every run.
struct RandomFlushes {
    cap: StreamCapture,
    x: u64,
}

impl TraceHook for RandomFlushes {
    fn on_inject(&mut self, rec: InjectRecord<'_>) {
        self.cap.on_inject(rec);
    }

    fn on_deliver(&mut self, id: MsgId, at: SimTime) {
        self.cap.on_deliver(id, at);
    }

    fn on_time(&mut self, now: SimTime) {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.cap.set_flush_rows(1 + (self.x % 64) as usize);
        self.cap.on_time(now);
    }
}

/// How often a streamed capture hands a batch over.
#[derive(Clone, Copy)]
enum Feed {
    /// As the loop runs it.
    Default,
    /// At every event time that has a row to hand over.
    EveryTime,
    /// After a random number of rows, on a producer thread.
    Random,
}

/// Stream one capture into the pass on `kind`: the capture runs here and
/// the pass on a second thread, as in the loop — or, for a random feed,
/// the other way round.
fn stream(
    kernel: Kernel,
    side: usize,
    ops: usize,
    kind: NetworkKind,
    feed_by: Feed,
) -> (TraceLog, ReplayResult) {
    let (mut cap, feed) = StreamCapture::new();
    let mut scratch = ReplayScratch::new();
    let mut net = SystemConfig::make_network_kind(side, kind);
    let capture = move || match feed_by {
        Feed::Default | Feed::EveryTime => {
            if let Feed::EveryTime = feed_by {
                cap.set_flush_rows(1);
            }
            let exec = run_capture(kernel, side, ops, &mut cap);
            cap.finish("analytic", exec)
        }
        Feed::Random => {
            let mut hook = RandomFlushes {
                cap,
                x: 0x9e37_79b9_7f4a_7c15,
            };
            let exec = run_capture(kernel, side, ops, &mut hook);
            hook.cap.finish("analytic", exec)
        }
    };
    let pass = || replay_sctm_stream(feed, net.as_mut(), &mut scratch);
    let (tail, streamed): (_, Option<StreamedPass>) = std::thread::scope(|s| {
        if let Feed::Random = feed_by {
            let tail = s.spawn(capture);
            let streamed = pass();
            (tail.join().expect("capture"), streamed)
        } else {
            let streamed = s.spawn(pass);
            let tail = capture();
            (tail, streamed.join().expect("pass"))
        }
    });
    streamed.expect("the capture finished").finish(tail)
}

fn assert_same_replay(got: &ReplayResult, want: &ReplayResult, what: &str) {
    assert_eq!(got.inject, want.inject, "{what}: inject");
    assert_eq!(got.deliver, want.deliver, "{what}: deliver");
    assert_eq!(got.est_exec_time, want.est_exec_time, "{what}: estimate");
}

#[test]
fn every_feed_replays_a_capture_alike_on_every_network() {
    for kernel in [Kernel::Fft, Kernel::Lu, Kernel::Canneal] {
        for side in [2, 4] {
            let exp = Experiment::new(SystemConfig::new(side, NetworkKind::Omesh), kernel)
                .with_ops(OPS)
                .with_seed(SEED);
            let log = exp.capture();
            let bytes = to_sctf_bytes(&log);
            for kind in NetworkKind::DETAILED {
                let what = format!("{} side {side} on {}", kernel.label(), kind.label());
                let mut net = SystemConfig::make_network_kind(side, kind);
                let whole = replay_sctm_pass(&log, net.as_mut());
                let (each_log, each) = stream(kernel, side, OPS, kind, Feed::EveryTime);
                assert_same_replay(&each, &whole, &format!("{what}, every event time"));
                assert!(to_sctf_bytes(&each_log) == bytes, "{what}: streamed log");
                let (_, random) = stream(kernel, side, OPS, kind, Feed::Random);
                assert_same_replay(&random, &whole, &format!("{what}, random batches"));
            }
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `tests/golden_capture.rs`'s table: `(kernel, mesh side, ops per
/// core, container bytes, FNV-1a)`.
const GOLDEN: [(Kernel, usize, usize, usize, u64); 4] = [
    (Kernel::Fft, 4, 300, 474_528, 0x4160_2e7c_cffd_ca4b),
    (Kernel::Lu, 4, 300, 131_488, 0x7492_e039_a4bf_8fff),
    (Kernel::Barnes, 4, 300, 183_408, 0x3e33_d04a_a873_9202),
    (Kernel::Fft, 8, 300, 1_976_128, 0xca67_27c4_328e_f39d),
];

#[test]
fn a_streamed_capture_is_the_pinned_container() {
    for (kernel, side, ops, want_len, want_hash) in GOLDEN {
        let (log, _) = stream(kernel, side, ops, NetworkKind::Omesh, Feed::Default);
        let bytes = to_sctf_bytes(&log);
        let got = (bytes.len(), fnv1a(&bytes));
        assert_eq!(got, (want_len, want_hash), "{} side {side}", kernel.label());
    }
}

/// A [`StreamCapture`] behind a simulator that fails after `left`
/// injections.
struct FailingSimulator {
    cap: StreamCapture,
    left: usize,
}

impl TraceHook for FailingSimulator {
    fn on_inject(&mut self, rec: InjectRecord<'_>) {
        assert!(self.left > 0, "simulator fault");
        self.left -= 1;
        self.cap.on_inject(rec);
    }

    fn on_deliver(&mut self, id: MsgId, at: SimTime) {
        self.cap.on_deliver(id, at);
    }

    fn on_time(&mut self, now: SimTime) {
        self.cap.on_time(now);
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    (payload.downcast_ref::<String>().cloned())
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// The simulator fails mid-run, thousands of rows into the stream: the
/// unwinding capture closes the feed and the pass gives up instead of
/// waiting for a batch that will never come.
#[test]
fn a_capture_that_panics_midway_closes_its_feed() {
    let (cap, feed) = StreamCapture::new();
    let mut net = SystemConfig::make_network_kind(4, NetworkKind::Omesh);
    let mut scratch = ReplayScratch::new();
    let (fault, streamed) = std::thread::scope(|s| {
        let pass = s.spawn(|| replay_sctm_stream(feed, net.as_mut(), &mut scratch));
        let hook = FailingSimulator { cap, left: 3000 };
        let fault = catch_unwind(AssertUnwindSafe(move || {
            let mut hook = hook;
            run_capture(Kernel::Fft, 4, 300, &mut hook)
        }));
        (fault, pass.join().expect("the pass does not panic"))
    });
    let payload = fault.expect_err("the simulator failed");
    assert_eq!(panic_text(payload.as_ref()), "simulator fault");
    assert!(
        streamed.is_none(),
        "a pass over a failed capture has no result"
    );
}

/// The loop runs its capture on the calling thread beside a pass on a
/// second one; a capture that fails — here, a hand-built experiment
/// whose workload refuses its op count once the pass is waiting — fails
/// `execute` with its own payload, not a hang and not a second panic.
#[test]
fn a_failing_loop_capture_panics_execute_with_its_own_payload() {
    let exp = Experiment::new(SystemConfig::new(2, NetworkKind::Omesh), Kernel::Fft).with_ops(10);
    let fault = catch_unwind(|| exp.execute(&RunSpec::self_correction(4)));
    let payload = fault.expect_err("ops below the workload minimum");
    let text = panic_text(payload.as_ref());
    assert!(text.contains("ops are noise"), "{text}");
}
