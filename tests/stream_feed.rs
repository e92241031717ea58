//! A streamed gated pass does not depend on how its capture is cut.
//!
//! The self-correction loop replays each capture while the simulator is
//! still producing it (DESIGN.md §7, "The loop captures and replays at
//! once"). The pass runs only up to a horizon no row it has not been
//! given can replay before, so it must make the same network calls, in
//! the same order, however the rows reach it, and whenever the pass
//! takes them: at its horizon, or between delivery rounds. Captures
//! here are fed to the pass a batch at every event time, in batches of
//! random size from a producer thread, and from a producer thread that
//! keeps batches waiting nearly every time the pass looks, on every
//! detailed network; and as the loop cuts them, over the four captures
//! `tests/golden_capture.rs` pins.
//! Each streamed pass must equal the whole-log pass over the same
//! capture's log, id for id: its fold must see every message once, in
//! id order, with the whole-log pass's replay injection and delivery;
//! and the estimate must be the same. What the loop folds of a streamed
//! pass — pair corrections and class mean latencies — must be what it
//! reads of the whole-log pass, to the bit. In a debug build the pass
//! checks the horizon itself as it runs: no row it is given late
//! replays before the horizon, and no network event reaches it.
//!
//! A streamed capture builds no log, so the log the pass is compared
//! with is `Capture::finish`'s, whose bytes `tests/golden_capture.rs`
//! pins. And a capture that panics part-way never leaves its pass
//! waiting.

use sctm::cmp::{CmpSim, InjectRecord, TraceHook};
use sctm::engine::net::{Delivery, Message, MsgClass, MsgId, NetStats, NetworkModel};
use sctm::engine::time::SimTime;
use sctm::prelude::*;
use sctm::trace::{
    pair_corrections, replay_sctm_pass, replay_sctm_stream, ReplayFold, ReplayResult,
    ReplayScratch, StreamCapture, StreamedPass,
};
use sctm::workloads::{build, WorkloadParams};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// How far a capture on a producer thread has got: whether it is inside
/// a hook call (where it hands batches over), how many such calls it
/// has finished, and whether it has finished the capture.
#[derive(Default)]
struct Progress {
    in_hook: AtomicBool,
    calls: AtomicU64,
    done: AtomicBool,
    /// `calls` when the pass last found the producer blocked, plus one
    /// (0 = never).
    blocked: AtomicU64,
}

impl Progress {
    /// Return once the producer has finished, or has sat in one hook
    /// call for [`BLOCKED`]: it is blocked handing a batch over, so the
    /// feed is full. On one CPU the yields are what let the producer
    /// run.
    fn wait_until_blocked(&self) {
        let mut since = (u64::MAX, Instant::now());
        while !self.done.load(SeqCst) {
            let calls = self.calls.load(SeqCst);
            let in_hook = self.in_hook.load(SeqCst);
            if in_hook && self.blocked.load(SeqCst) == calls + 1 {
                // Still blocked where the last wait found it.
                return;
            }
            if !in_hook || calls != since.0 {
                since = (calls, Instant::now());
            } else if since.1.elapsed() >= BLOCKED {
                self.blocked.store(calls + 1, SeqCst);
                return;
            }
            std::thread::yield_now();
        }
    }
}

/// Marks the producer finished when dropped: at its end, or as it
/// unwinds from a panic.
struct Done(Arc<Progress>);

impl Drop for Done {
    fn drop(&mut self) {
        self.0.done.store(true, SeqCst);
    }
}

/// How long a hook call must last before the producer counts as
/// blocked on a full feed: far longer than an unblocked one takes.
const BLOCKED: Duration = Duration::from_micros(100);

/// Rows per batch of the [`Feed::Ahead`] capture. With a batch at every
/// event time, a pass reaches its horizon long before its next look at
/// the feed (every 64 delivery rounds); with 16 rows, the full feed
/// lets it run that far, so most of its takes come between rounds.
const AHEAD_ROWS: usize = 16;

/// A [`StreamCapture`] on a producer thread that reports its
/// [`Progress`].
struct Ahead {
    cap: StreamCapture,
    progress: Arc<Progress>,
}

impl TraceHook for Ahead {
    fn on_inject(&mut self, rec: InjectRecord<'_>) {
        self.cap.on_inject(rec);
    }

    fn on_deliver(&mut self, id: MsgId, at: SimTime) {
        self.cap.on_deliver(id, at);
    }

    fn on_time(&mut self, now: SimTime) {
        self.progress.in_hook.store(true, SeqCst);
        self.cap.on_time(now);
        self.progress.calls.fetch_add(1, SeqCst);
        self.progress.in_hook.store(false, SeqCst);
    }
}

/// The pass's network, slowed so that its capture is always ahead:
/// before each delivery round it waits until the capture has filled
/// the feed (or finished), so when the pass looks at the feed between
/// rounds, batches are waiting at most of its looks (EXPERIMENTS.md
/// §P40 counts them).
struct Behind {
    net: Box<dyn NetworkModel>,
    progress: Arc<Progress>,
}

impl NetworkModel for Behind {
    fn num_nodes(&self) -> usize {
        self.net.num_nodes()
    }

    fn inject(&mut self, at: SimTime, msg: Message) {
        self.net.inject(at, msg);
    }

    fn next_time(&self) -> Option<SimTime> {
        self.net.next_time()
    }

    fn advance_until(&mut self, t: SimTime, out: &mut Vec<Delivery>) {
        self.net.advance_until(t, out);
    }

    fn advance_batches(
        &mut self,
        stop: Option<SimTime>,
        out: &mut Vec<Delivery>,
    ) -> Option<SimTime> {
        self.progress.wait_until_blocked();
        self.net.advance_batches(stop, out)
    }

    fn stats(&self) -> &NetStats {
        self.net.stats()
    }

    fn label(&self) -> &'static str {
        self.net.label()
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
    /// After [`AHEAD_ROWS`] rows, on a producer thread that has filled
    /// the feed before each delivery round of the pass ([`Behind`]).
    Ahead,
}

/// Stream one capture into the pass on `kind`, folding with `fold`: the
/// capture runs here and the pass on a second thread, as in the loop —
/// or, for a random feed, the other way round.
fn stream(
    kernel: Kernel,
    side: usize,
    ops: usize,
    kind: NetworkKind,
    feed_by: Feed,
    fold: impl FnMut(Message, SimTime, SimTime) + Send,
) -> StreamedPass {
    let (mut cap, feed) = StreamCapture::new();
    let mut scratch = ReplayScratch::new();
    let mut net = SystemConfig::make_network_kind(side, kind);
    let progress = Arc::new(Progress::default());
    if let Feed::Ahead = feed_by {
        net = Box::new(Behind {
            net,
            progress: progress.clone(),
        });
    }
    let capture = move || match feed_by {
        Feed::Default | Feed::EveryTime => {
            if let Feed::EveryTime = feed_by {
                cap.set_flush_rows(1);
            }
            let exec = run_capture(kernel, side, ops, &mut cap);
            cap.finish(exec)
        }
        Feed::Random => {
            let mut hook = RandomFlushes {
                cap,
                x: 0x9e37_79b9_7f4a_7c15,
            };
            let exec = run_capture(kernel, side, ops, &mut hook);
            hook.cap.finish(exec)
        }
        Feed::Ahead => {
            // However the producer ends, the pass stops waiting on it.
            let _done = Done(progress.clone());
            cap.set_flush_rows(AHEAD_ROWS);
            let mut hook = Ahead { cap, progress };
            let exec = run_capture(kernel, side, ops, &mut hook);
            let Ahead { cap, progress } = hook;
            // The last batch can block too.
            progress.in_hook.store(true, SeqCst);
            cap.finish(exec);
        }
    };
    let pass = || replay_sctm_stream(feed, net.as_mut(), &mut scratch, fold);
    let streamed: Option<StreamedPass> = std::thread::scope(|s| {
        if let Feed::Random | Feed::Ahead = feed_by {
            let producer = s.spawn(capture);
            let streamed = pass();
            producer.join().expect("capture");
            streamed
        } else {
            let streamed = s.spawn(pass);
            capture();
            streamed.join().expect("pass")
        }
    });
    streamed.expect("the capture finished")
}

/// The log `Experiment::capture` makes of the capture [`stream`] runs.
fn whole_log(kernel: Kernel, side: usize, ops: usize) -> TraceLog {
    Experiment::new(SystemConfig::new(side, NetworkKind::Omesh), kernel)
        .with_ops(ops)
        .with_seed(SEED)
        .capture()
}

/// [`stream`], with a fold that keeps every message it is handed and
/// its replay times, in the order it is handed them.
fn stream_collected(
    kernel: Kernel,
    side: usize,
    ops: usize,
    kind: NetworkKind,
    feed_by: Feed,
) -> (StreamedPass, Vec<(Message, SimTime, SimTime)>) {
    let mut folded = Vec::new();
    let got = stream(kernel, side, ops, kind, feed_by, |m, i, d| {
        folded.push((m, i, d))
    });
    (got, folded)
}

/// A streamed pass and what it folded against the whole-log pass `want`
/// over `log`, id for id: every message folded once, in id order, with
/// its replay injection and delivery; and the estimate.
fn assert_same_replay(
    (got, folded): &(StreamedPass, Vec<(Message, SimTime, SimTime)>),
    log: &TraceLog,
    want: &ReplayResult,
    what: &str,
) {
    assert_eq!(got.len(), log.len(), "{what}: messages");
    assert_eq!(folded.len(), log.len(), "{what}: messages folded");
    assert_eq!(
        got.capture_exec_time(),
        log.capture_exec_time,
        "{what}: run"
    );
    for (i, &(msg, inject, deliver)) in folded.iter().enumerate() {
        assert_eq!(msg, log.records[i].msg, "{what}: message {i}");
        assert_eq!(inject, want.inject[i], "{what}: inject {i}");
        assert_eq!(deliver, want.deliver[i], "{what}: deliver {i}");
    }
    assert_eq!(got.est_exec_time(), want.est_exec_time, "{what}: estimate");
}

#[test]
fn every_feed_replays_a_capture_alike_on_every_network() {
    for kernel in [Kernel::Fft, Kernel::Lu, Kernel::Canneal] {
        for side in [2, 4] {
            let log = whole_log(kernel, side, OPS);
            for kind in NetworkKind::DETAILED {
                let what = format!("{} side {side} on {}", kernel.label(), kind.label());
                let mut net = SystemConfig::make_network_kind(side, kind);
                let whole = replay_sctm_pass(&log, net.as_mut());
                for (feed, how) in [
                    (Feed::EveryTime, "every event time"),
                    (Feed::Random, "random batches"),
                    (Feed::Ahead, "batches waiting at every check"),
                ] {
                    let streamed = stream_collected(kernel, side, OPS, kind, feed);
                    assert_same_replay(&streamed, &log, &whole, &format!("{what}, {how}"));
                }
            }
        }
    }
}

/// What the self-correction loop folds of a streamed pass on its own
/// feed — the pair corrections against the capture model's base
/// latency, each class's mean latency — and the pass's estimate are
/// what the whole-log pass gives, to the bit.
#[test]
fn the_loop_fold_reads_a_streamed_pass_as_the_whole_pass() {
    for kernel in [Kernel::Fft, Kernel::Lu, Kernel::Canneal] {
        for side in [2, 4] {
            let log = whole_log(kernel, side, OPS);
            let model = SystemConfig::analytic(side * side);
            for kind in NetworkKind::DETAILED {
                let what = format!("{} side {side} on {}", kernel.label(), kind.label());
                let mut net = SystemConfig::make_network_kind(side, kind);
                let whole = replay_sctm_pass(&log, net.as_mut());
                let mut fold = ReplayFold::new();
                let got = stream(kernel, side, OPS, kind, Feed::Default, |m, i, d| {
                    fold.push(&m, i, d, model.base_latency(&m))
                });
                assert_eq!(got.est_exec_time(), whole.est_exec_time, "{what}: estimate");
                for class in [MsgClass::Control, MsgClass::Data] {
                    assert_eq!(
                        fold.mean_latency_ns(class).to_bits(),
                        whole.mean_latency_ns(&log, Some(class)).to_bits(),
                        "{what}: {} mean latency",
                        class.label()
                    );
                }
                let want = pair_corrections(&log, &whole, |m| model.base_latency(m));
                let got = fold.corrections();
                assert!(!want.is_empty(), "{what}: no corrections");
                assert_eq!(got.len(), want.len(), "{what}: corrected flows");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(
                        (g.0, g.1.to_bits(), g.2),
                        (w.0, w.1.to_bits(), w.2),
                        "{what}: flow {:?}",
                        w.0
                    );
                }
            }
        }
    }
}

/// The loop's own feed over the four captures `tests/golden_capture.rs`
/// pins, 64 cores included.
#[test]
fn the_loop_feed_replays_the_pinned_captures_alike() {
    for (kernel, side, ops) in [
        (Kernel::Fft, 4, 300),
        (Kernel::Lu, 4, 300),
        (Kernel::Barnes, 4, 300),
        (Kernel::Fft, 8, 300),
    ] {
        let log = whole_log(kernel, side, ops);
        let mut net = SystemConfig::make_network_kind(side, NetworkKind::Omesh);
        let whole = replay_sctm_pass(&log, net.as_mut());
        let streamed = stream_collected(kernel, side, ops, NetworkKind::Omesh, Feed::Default);
        assert_same_replay(
            &streamed,
            &log,
            &whole,
            &format!("{} side {side}", kernel.label()),
        );
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
        let pass = s.spawn(|| replay_sctm_stream(feed, net.as_mut(), &mut scratch, |_, _, _| {}));
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
