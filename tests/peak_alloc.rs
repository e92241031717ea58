//! What the self-correction loop holds in memory, counted.
//!
//! A counting global allocator (live and peak bytes) wraps the system
//! one, so the numbers repeat exactly from run to run and host to host.
//! This file is its own test binary with one `#[test]`: the counter is
//! process-wide, and a second test thread would allocate into it.
//!
//! Pinned here (DESIGN.md §7, "What the loop holds when") are three
//! lifetimes, the lead of a streamed pass, and what a capture's
//! simulator allocates:
//!
//! * the loop keeps **one** trace resident — iteration k's log and
//!   replay result are freed before capture k+1 allocates its own — and
//!   of it only what is in flight: rows, plan and replay times each in a
//!   window of pages, with what the loop reads folded as the pass
//!   delivers, so the loop's peak is below one whole-log capture's;
//! * a capture drops its simulator before `Capture::finish`, which
//!   canonicalises the fixed-size columns in place, so one capture's
//!   transient is bounded by a small multiple of the log it returns;
//! * a streamed capture keeps what is in flight, not what has been: its
//!   peak does not grow with the run;
//! * a streamed pass keeps a message's replay times only until it has
//!   folded them: its time pages are a window inside the window of its
//!   plan, never the run;
//! * a streamed pass takes rows ahead of its horizon only within a
//!   lead of rows a node, so its plan is a window that does not grow
//!   with how far its capture runs ahead;
//! * a way of an L1 or L2 tag array costs 9 bytes: a tag word and a
//!   recency rank;
//! * an untraced CMP run holds its op scripts at their length, and its
//!   directory entries a word of state each, whatever the core count;
//! * a traced loop leaves nothing resident once its spans are drained,
//!   however many pass threads it has started.

use sctm::cmp::{Cache, CacheGeometry, CmpSim, InjectRecord, NullHook, Op, TraceHook};
use sctm::engine::net::{Message, MsgId};
use sctm::engine::time::SimTime;
use sctm::prelude::*;
use sctm::trace::{replay_sctm_stream, ReplayScratch, StreamCapture};
use sctm::workloads::{build, WorkloadParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the two counters are statistics only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are `System::alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get
        // right.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak live bytes above the level at entry while `f` runs, and what
/// `f` returned.
fn peak_of<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = f();
    (PEAK.load(Relaxed) - base, out)
}

/// Live bytes `f` left allocated, and what it returned.
fn held_by<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let base = LIVE.load(Relaxed);
    let out = f();
    (LIVE.load(Relaxed) - base, out)
}

const MIB: f64 = (1 << 20) as f64;

/// Live bytes after each of `runs` traced runs of `exp`'s loop, each
/// followed by a drain of its spans and the resets the benchmark makes
/// between traced runs.
fn traced_loop_residue(exp: &Experiment, runs: usize) -> Vec<usize> {
    use sctm::obs;
    obs::set_enabled(true);
    let live = (0..runs)
        .map(|_| {
            exp.execute(&RunSpec::self_correction(4))
                .expect("the traced loop runs");
            assert!(!obs::drain().is_empty(), "a traced loop recorded no spans");
            obs::reset_global();
            obs::reset_iterations();
            LIVE.load(Relaxed)
        })
        .collect();
    obs::set_enabled(false);
    live
}

/// One hook call of a capture, kept to be fed again.
enum Call {
    Inject(Message, SimTime, Vec<MsgId>),
    Deliver(MsgId, SimTime),
    Time(SimTime),
}

#[derive(Default)]
struct Recorder(Vec<Call>);

impl TraceHook for Recorder {
    fn on_inject(&mut self, r: InjectRecord<'_>) {
        self.0.push(Call::Inject(r.msg, r.at, r.deps.to_vec()));
    }

    fn on_deliver(&mut self, id: MsgId, at: SimTime) {
        self.0.push(Call::Deliver(id, at));
    }

    fn on_time(&mut self, now: SimTime) {
        self.0.push(Call::Time(now));
    }
}

/// Peak bytes of a `StreamCapture` of fft-16 at `ops` ops per core and
/// the messages it captured: the run is recorded first, then fed to the
/// capture on its own, with no pass on the other end of its feed (each
/// batch is dropped as it is sent), so what is counted is the capture's
/// own columns.
fn streamed_capture_peak(ops: usize) -> (usize, usize) {
    let sys = SystemConfig::new(4, NetworkKind::Omesh);
    let cores = sys.cores();
    let workload = build(Kernel::Fft, WorkloadParams::new(cores, ops, 1));
    let mut calls = Recorder::default();
    let exec = CmpSim::new(
        sys.cmp.clone(),
        Box::new(SystemConfig::analytic(cores)),
        Box::new(workload),
    )
    .run(&mut calls)
    .exec_time;
    let rows = calls
        .0
        .iter()
        .filter(|c| matches!(c, Call::Inject(..)))
        .count();
    let (peak, ()) = peak_of(|| {
        let (mut cap, feed) = StreamCapture::new();
        drop(feed);
        for call in &calls.0 {
            match call {
                Call::Inject(msg, at, deps) => cap.on_inject(InjectRecord {
                    msg: *msg,
                    at: *at,
                    deps,
                }),
                Call::Deliver(id, at) => cap.on_deliver(*id, *at),
                Call::Time(now) => cap.on_time(*now),
            }
        }
        cap.finish(exec);
    });
    (peak, rows)
}

/// Pages of replay times and of plan a streamed pass of fft-16 at `ops`
/// ops per core held at once, and the messages it replayed.
fn pass_pages(ops: usize) -> (usize, usize, usize) {
    let sys = SystemConfig::new(4, NetworkKind::Omesh);
    let cores = sys.cores();
    let workload = build(Kernel::Fft, WorkloadParams::new(cores, ops, 1));
    let mut net = SystemConfig::make_network_kind(4, NetworkKind::Omesh);
    let mut scratch = ReplayScratch::new();
    let (mut cap, feed) = StreamCapture::new();
    let pass = std::thread::scope(|s| {
        let pass = s.spawn(|| replay_sctm_stream(feed, net.as_mut(), &mut scratch, |_, _, _| {}));
        let analytic = Box::new(SystemConfig::analytic(cores));
        let exec = CmpSim::new(sys.cmp.clone(), analytic, Box::new(workload))
            .run(&mut cap)
            .exec_time;
        cap.finish(exec);
        pass.join()
            .expect("the pass")
            .expect("the capture finished")
    });
    let (times, plan) = scratch.pages_held();
    (times, plan, pass.len())
}

#[test]
fn one_trace_resident_written_once() {
    // The default L1 and L2-slice geometries: 32 KiB 4-way, 256 KiB
    // 8-way. At 64 cores 9 bytes a way is 2.65 MB of tags; 24 was 7.08.
    for (bytes, ways) in [(32 << 10, 4), (256 << 10, 8)] {
        let geo = CacheGeometry::from_capacity(bytes, ways);
        let (cache_bytes, _cache) = peak_of(|| Cache::new(geo));
        assert!(
            cache_bytes <= 9 * geo.sets * geo.ways,
            "a {ways}-way cache way grew to {:.2} bytes",
            cache_bytes as f64 / (geo.sets * geo.ways) as f64
        );
    }
    // The flagship's CMP, untraced: its scripts, then what its run
    // allocates beside them.
    let sys = SystemConfig::new(8, NetworkKind::Omesh);
    let cores = sys.cores();
    let (script_bytes, workload) =
        held_by(|| build(Kernel::Fft, WorkloadParams::new(cores, 1500, 1)));
    let ops = workload.total_ops();
    let (cmp_peak, _) = peak_of(|| {
        let analytic = Box::new(SystemConfig::analytic(cores));
        CmpSim::new(sys.cmp.clone(), analytic, Box::new(workload)).run(&mut NullHook)
    });
    eprintln!(
        "fft side 8: {ops} ops in {:.2} MiB of scripts; the CMP's run peaks at {:.2} MiB",
        script_bytes as f64 / MIB,
        cmp_peak as f64 / MIB
    );
    // Stored as generated, the scripts kept what doubling left them:
    // 2.00 MiB, 21.9 B an op.
    assert!(
        script_bytes <= ops * size_of::<Op>() + cores * size_of::<VecDeque<Op>>(),
        "op scripts hold {script_bytes} B for {ops} ops"
    );
    // Caches, directory and message tables. With a 1 024-bit sharer set
    // in every directory entry (144 B an entry) the run peaked at 4.31
    // MiB; with sets sized by the core count in one pool, at 2.81.
    assert!(
        cmp_peak <= 3 << 20,
        "the CMP's run peaks at {cmp_peak} B beside its scripts"
    );
    let exp = Experiment::new(SystemConfig::new(4, NetworkKind::Omesh), Kernel::Fft)
        .with_ops(600)
        .with_seed(1);
    let (capture_peak, log) = peak_of(|| exp.capture());
    let log_bytes = log.resident_bytes();
    drop(log);
    // The loop at twice the ops, where what it holds of the run stands
    // out from how its two threads interleave.
    let long = exp.clone().with_ops(1200);
    let (long_bytes, long_msgs) = {
        let log = long.capture();
        (log.resident_bytes(), log.len())
    };
    let (loop_peak, outcome) = peak_of(|| long.execute(&RunSpec::self_correction(4)));
    let report = outcome.expect("the loop runs").report;
    assert!(
        report.iterations.as_ref().map_or(0, Vec::len) >= 2,
        "the bound is about a loop that re-captures"
    );
    eprintln!(
        "fft side 4 omesh: at 600 ops the log is {:.2} MiB and one capture peaks at {:.2} MiB \
         ({:.2} x log); at 1200 the log is {:.2} MiB and the loop peaks at {:.2} MiB ({:.2} x)",
        log_bytes as f64 / MIB,
        capture_peak as f64 / MIB,
        capture_peak as f64 / log_bytes as f64,
        long_bytes as f64 / MIB,
        loop_peak as f64 / MIB,
        loop_peak as f64 / long_bytes as f64,
    );
    // At 600 ops the log was 1.43 MiB (58 B a message; 1.30 MiB at 53
    // since it keeps no protocol kind and no decision-order `prev`).
    // With iteration k's (log, result) alive under capture k+1 the loop
    // peaked at 8.72 MiB; freeing them
    // first, at 5.39; streaming each capture into its pass with 40-byte
    // rows, at 4.90-5.07; with the pass's 8-byte rows, at 4.00-4.06;
    // with 9-byte cache ways, at 2.94-3.11 (2.06-2.17 x the log); with
    // message tables, the capture's id map and the plan's pages sized by
    // what is in flight, at 2.14-2.39 (1.50-1.67 x). Folding the pass as
    // it delivers and retiring its times and rows, 1.93-2.15: too close
    // to tell apart from one run. At 1 200 ops (51 328 messages) the
    // loop read 3.36-3.68 MiB before the fold, and 2.34-3.13 MiB with
    // it over 22 runs, where a pass took every batch its capture had
    // finished. With the pass's lead bounded, the sharer sets sized by
    // the core count and the scripts at their length, 22 runs read
    // 1.76-2.19 MiB (44.6 B a message at most). The bound is that
    // maximum plus 10 %, in bytes a message of this run: the parent's
    // windows fail it in 21 of 22 runs.
    assert!(
        loop_peak as f64 <= 49.2 * long_msgs as f64,
        "the loop holds more than one trace's windows: peak {loop_peak} B for {long_msgs} messages"
    );
    // Gathering into a second set of columns with the simulator still
    // alive, a capture peaked at 4.12 x the log it returned; dropping
    // the simulator first and permuting in place, 2.98 x; with 9-byte
    // cache ways in place of 24-byte ones, 2.24 x (3.20 MiB); with the
    // simulator's message table sized by what is in flight, 2.15 x
    // (3.07 MiB); without the `kind` and `prev` columns, 2.25 x the
    // smaller log (2.93 MiB); with the directory's sharer sets sized by
    // the core count and the scripts at their length, 2.07 x (2.70
    // MiB). The bound, 3.12 MiB now, leaves 0.33 x the log of margin.
    assert!(
        capture_peak as f64 <= 2.4 * log_bytes as f64,
        "a capture's transient grew: peak {capture_peak} B for a {log_bytes} B log"
    );
    // Each iteration's pass runs on a thread of its own. When every
    // thread that recorded kept a ring of events, and a drain emptied the
    // rings but kept their capacity, each traced loop of this run left
    // its passes' rings resident: the live heap grew by 14.0 MiB a run
    // (14.0 → 70.0 MiB over five). With one span list it holds at 21 KB.
    let residue = traced_loop_residue(&exp, 5);
    eprintln!("live heap after each traced loop and drain: {residue:?} B");
    assert!(
        residue.iter().all(|&live| live <= residue[0] + (16 << 10)),
        "traced loops leave memory behind after a drain: live heap {residue:?} B"
    );
    let (stream_peak, rows) = streamed_capture_peak(600);
    let (stream_peak_2x, rows_2x) = streamed_capture_peak(1200);
    eprintln!(
        "a streamed capture of {rows} messages peaks at {:.1} KiB, of {rows_2x} at {:.1} KiB",
        stream_peak as f64 / 1024.0,
        stream_peak_2x as f64 / 1024.0,
    );
    assert!(
        rows_2x > 3 * rows / 2,
        "the second run is not the longer one"
    );
    // A streamed capture keeps what is in flight: the rows it has not
    // finalised, the ids final and not yet delivered, the destinations
    // not yet arrived, and one bit per capture id. Twice the run adds
    // 4.2 KiB of those bits; with a capture-id map, a `prev` column and
    // a destination column grown to the run, it added 10.4 bytes a
    // message (462 → 722 KiB).
    assert!(
        stream_peak_2x <= stream_peak + (16 << 10),
        "a streamed capture's columns grow with the run: {stream_peak} B for {rows} messages, \
         {stream_peak_2x} B for {rows_2x}"
    );
    // A streamed pass keeps a message's replay times from its injection
    // to its fold, and its plan from its row's take to the message being
    // done; the first window lies inside the second, and both are a
    // fraction of the run. It takes a batch short of its horizon only
    // while it holds fewer than 1 024 rows a node past its done front —
    // 4 pages at 16 nodes — and at its horizon one batch more: the plan
    // is at most one page past that. Taking every batch its capture had
    // finished, the pass held 5-10 pages of plan of 13 at 1 200 ops.
    for ops in [600, 1200] {
        let (times, plan, msgs) = pass_pages(ops);
        let run = msgs.div_ceil(4096);
        eprintln!("a streamed pass of {msgs} messages ({run} pages) held {times} pages of times and {plan} of plan");
        assert!(
            times <= plan && 2 * times <= run,
            "a streamed pass held {times} pages of replay times for a plan of {plan} pages and a run of {run}"
        );
        assert!(
            plan <= 16 * 1024 / 4096 + 1,
            "a streamed pass ran {plan} pages of plan ahead, past its lead"
        );
    }
}
