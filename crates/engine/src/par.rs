//! Deterministic parallel sweep executor.
//!
//! Replaces the old thread-per-job harness: a fixed pool of scoped
//! workers pulls job indices off a shared atomic counter, runs each
//! closure exactly once, and writes its result into a slot keyed by the
//! job's input position. Because every job builds its own simulators and
//! seeds its own [`crate::rng::StreamRng`] streams, and because results
//! are collected strictly in index order, the output is **bit-identical
//! to serial execution** regardless of thread count or OS scheduling —
//! parallelism only changes *when* a job runs, never *what* it computes
//! or *where* its result lands.
//!
//! One environment variable per pool: `SCTM_NUM_THREADS` sizes
//! [`par_map`] (so sweeps can be pinned for reproducible timing
//! experiments; unset, it uses every available core) and `SCTM_THREADS`
//! sizes the `sctmd` worker pool ([`service_threads`]). Neither reaches
//! inside a simulation: one capture runs on the thread that asked for
//! it. Pools are scoped per call: nested `par_map` calls cannot
//! deadlock, they just briefly oversubscribe.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A positive integer from environment variable `key`, if it holds one.
fn env_threads(key: &str) -> Option<usize> {
    std::env::var(key)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Worker-thread count for [`par_map`]: `SCTM_NUM_THREADS` if set to a
/// positive integer, else the number of available cores.
pub fn num_threads() -> usize {
    env_threads("SCTM_NUM_THREADS").unwrap_or_else(available_cores)
}

/// Worker count for a long-lived service scheduler (`sctmd`'s
/// work-stealing pool): `SCTM_THREADS` if set to a positive integer,
/// else every available core — a *daemon* exists to saturate the host,
/// so opting out (pinning to 1) is the explicit act.
pub fn service_threads() -> usize {
    env_threads("SCTM_THREADS").unwrap_or_else(available_cores)
}

/// A task on the [`WorkStealPool`]: runs once on some worker and may
/// push follow-up tasks onto that worker's own deque via the handle.
pub type StealTask = Box<dyn FnOnce(&WorkerHandle<'_>) + Send + 'static>;

/// Point-in-time occupancy/steal counters of a [`WorkStealPool`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Fixed worker count the pool was built with.
    pub workers: u64,
    /// Workers currently executing a task.
    pub busy: u64,
    /// Tasks taken from another worker's deque.
    pub steals: u64,
    /// Tasks executed to completion.
    pub executed: u64,
}

struct PoolShared {
    /// Per-worker deques: the owner pushes/pops the back (LIFO keeps a
    /// request's next stage hot), thieves and the injector drain take
    /// the front (FIFO keeps stolen work the *oldest*, maximising
    /// pipeline overlap between requests).
    queues: Vec<Mutex<std::collections::VecDeque<StealTask>>>,
    /// Tasks submitted from outside any worker.
    injector: Mutex<std::collections::VecDeque<StealTask>>,
    /// Tasks anywhere in the pool (injector + all deques). Workers only
    /// sleep when this is zero, so a push after the check cannot be
    /// missed: push increments *before* notify.
    pending: AtomicUsize,
    sleep: Mutex<()>,
    wake: std::sync::Condvar,
    shutdown: std::sync::atomic::AtomicBool,
    busy: AtomicUsize,
    steals: std::sync::atomic::AtomicU64,
    executed: std::sync::atomic::AtomicU64,
}

/// Handed to every running task: identifies the worker and lets the
/// task schedule follow-up stages on its own deque.
pub struct WorkerHandle<'a> {
    shared: &'a PoolShared,
    index: usize,
}

impl WorkerHandle<'_> {
    /// This worker's index in `0..workers`.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Push a follow-up task onto this worker's own deque (LIFO end).
    /// The worker will usually run it next; an idle peer may steal it.
    pub fn push_local<F: FnOnce(&WorkerHandle<'_>) + Send + 'static>(&self, task: F) {
        {
            let mut q = lock_queue(&self.shared.queues[self.index]);
            q.push_back(Box::new(task));
        }
        self.shared.pending.fetch_add(1, Ordering::SeqCst);
        self.shared.wake.notify_one();
    }
}

fn lock_queue<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A fixed pool of workers pulling tasks from per-worker deques with
/// work stealing, fed by a shared injector queue.
///
/// Built for `sctmd`'s stage-pipelined scheduler: each request is a
/// chain of stage tasks (probe → capture → replay → render); a worker
/// finishing one stage pushes the next onto its own deque, and idle
/// workers steal the *oldest* queued stage from a peer — so the
/// capture of one request overlaps the replay of another and the
/// response rendering of a third. Scheduling order is arbitrary by
/// design; anything that must be deterministic (simulation results)
/// must not depend on execution order, which the byte-identity suite
/// in `tests/srv_sched.rs` pins for the service.
///
/// Tasks may block (e.g. on the capture cache's single-flight
/// condvar); that parks one worker, never the pool. A `Pending`
/// single-flight slot is only ever owned by a *running* task, so a
/// blocked waiter always waits on live progress, not on queued work.
pub struct WorkStealPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkStealPool {
    /// Spawn `workers` (clamped to ≥1) named worker threads.
    pub fn new(workers: usize) -> WorkStealPool {
        let n = workers.max(1);
        let shared = Arc::new(PoolShared {
            queues: (0..n)
                .map(|_| Mutex::new(std::collections::VecDeque::new()))
                .collect(),
            injector: Mutex::new(std::collections::VecDeque::new()),
            pending: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            wake: std::sync::Condvar::new(),
            shutdown: std::sync::atomic::AtomicBool::new(false),
            busy: AtomicUsize::new(0),
            steals: std::sync::atomic::AtomicU64::new(0),
            executed: std::sync::atomic::AtomicU64::new(0),
        });
        let workers = (0..n)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sctm-steal-{index}"))
                    .spawn(move || worker_loop(&shared, index))
                    .expect("spawn work-steal worker")
            })
            .collect();
        WorkStealPool { shared, workers }
    }

    pub fn workers(&self) -> usize {
        self.shared.queues.len()
    }

    /// Submit a task from outside the pool (goes to the injector).
    pub fn submit<F: FnOnce(&WorkerHandle<'_>) + Send + 'static>(&self, task: F) {
        {
            let mut q = lock_queue(&self.shared.injector);
            q.push_back(Box::new(task));
        }
        self.shared.pending.fetch_add(1, Ordering::SeqCst);
        self.shared.wake.notify_one();
    }

    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.workers() as u64,
            busy: self.shared.busy.load(Ordering::Relaxed) as u64,
            steals: self.shared.steals.load(Ordering::Relaxed),
            executed: self.shared.executed.load(Ordering::Relaxed),
        }
    }

    /// Tasks queued anywhere in the pool (injector + deques), not
    /// counting the ones currently executing.
    pub fn queued(&self) -> usize {
        self.shared.pending.load(Ordering::SeqCst)
    }
}

impl Drop for WorkStealPool {
    /// Finish everything queued, then stop the workers. Callers that
    /// need request-level drain semantics (answer every accepted
    /// request before refusing new ones) wait for their own completion
    /// counters first; this drop only guarantees no task is abandoned.
    fn drop(&mut self) {
        self.shared
            .shutdown
            .store(true, std::sync::atomic::Ordering::SeqCst);
        self.shared.wake.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, index: usize) {
    let handle = WorkerHandle { shared, index };
    let n = shared.queues.len();
    loop {
        // Own deque back → steal a peer's front → injector front.
        let task = {
            let own = lock_queue(&shared.queues[index]).pop_back();
            own.or_else(|| {
                (1..n)
                    .map(|d| (index + d) % n)
                    .find_map(|victim| {
                        let t = lock_queue(&shared.queues[victim]).pop_front();
                        if t.is_some() {
                            shared.steals.fetch_add(1, Ordering::Relaxed);
                        }
                        t
                    })
                    .or_else(|| lock_queue(&shared.injector).pop_front())
            })
        };
        match task {
            Some(task) => {
                shared.pending.fetch_sub(1, Ordering::SeqCst);
                shared.busy.fetch_add(1, Ordering::Relaxed);
                task(&handle);
                shared.busy.fetch_sub(1, Ordering::Relaxed);
                shared.executed.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                if shared.shutdown.load(std::sync::atomic::Ordering::SeqCst) {
                    if shared.pending.load(Ordering::SeqCst) == 0 {
                        return;
                    }
                    continue; // shutting down, but tasks remain: drain them
                }
                let guard = shared.sleep.lock().unwrap_or_else(|e| e.into_inner());
                if shared.pending.load(Ordering::SeqCst) == 0
                    && !shared.shutdown.load(std::sync::atomic::Ordering::SeqCst)
                {
                    // Timed wait: a task pushed between our queue scans
                    // and this wait is caught by `pending` above; the
                    // timeout is only a belt for exotic lost-wakeup
                    // interleavings across the three queue mutexes.
                    let _ = shared
                        .wake
                        .wait_timeout(guard, std::time::Duration::from_millis(10));
                }
            }
        }
    }
}

/// Run `jobs` on a scoped worker pool and return their results in input
/// order. Bit-identical to [`serial_map`] (see module docs). Panics in a
/// job propagate once the pool has been joined.
pub fn par_map<T: Send, F: FnOnce() -> T + Send>(jobs: Vec<F>) -> Vec<T> {
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = num_threads().min(n);
    if workers <= 1 {
        return serial_map(jobs);
    }

    let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = jobs[i]
                    .lock()
                    .expect("job slot poisoned")
                    .take()
                    .expect("job taken twice");
                let result = job();
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("experiment worker panicked")
        })
        .collect()
}

/// Serial reference executor with the same contract as [`par_map`]; used
/// by the determinism test and as the 1-thread fast path.
pub fn serial_map<T, F: FnOnce() -> T>(jobs: Vec<F>) -> Vec<T> {
    jobs.into_iter().map(|j| j()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_input_order() {
        let jobs: Vec<_> = (0..64u64).map(|i| move || i * i).collect();
        let got = par_map(jobs);
        let want: Vec<u64> = (0..64).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<fn() -> u32> = Vec::new();
        assert!(par_map(empty).is_empty());
        assert_eq!(par_map(vec![|| 41 + 1]), vec![42]);
    }

    #[test]
    fn nested_calls_complete() {
        let jobs: Vec<_> = (0..4u64)
            .map(|i| move || par_map((0..8u64).map(|j| move || i * 100 + j).collect::<Vec<_>>()))
            .collect();
        let got = par_map(jobs);
        for (i, inner) in got.iter().enumerate() {
            let want: Vec<u64> = (0..8).map(|j| i as u64 * 100 + j).collect();
            assert_eq!(inner, &want);
        }
    }

    #[test]
    fn matches_serial_reference() {
        let mk = || {
            (0..32u64)
                .map(|i| move || i.wrapping_mul(0x9E37_79B9))
                .collect::<Vec<_>>()
        };
        assert_eq!(par_map(mk()), serial_map(mk()));
    }

    #[test]
    fn steal_pool_runs_every_submitted_task_once() {
        let pool = WorkStealPool::new(4);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..256 {
            let hits = Arc::clone(&hits);
            pool.submit(move |_| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // drains everything before joining
        assert_eq!(hits.load(Ordering::SeqCst), 256);
    }

    #[test]
    fn steal_pool_chained_stages_complete() {
        // Each submitted task pushes a follow-up stage locally; both
        // halves of the chain must run exactly once.
        let pool = WorkStealPool::new(3);
        let stage1 = Arc::new(AtomicUsize::new(0));
        let stage2 = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let s1 = Arc::clone(&stage1);
            let s2 = Arc::clone(&stage2);
            pool.submit(move |h| {
                s1.fetch_add(1, Ordering::SeqCst);
                pool_push_second(h, s2);
            });
        }
        drop(pool);
        assert_eq!(stage1.load(Ordering::SeqCst), 64);
        assert_eq!(stage2.load(Ordering::SeqCst), 64);
    }

    fn pool_push_second(h: &WorkerHandle<'_>, s2: Arc<AtomicUsize>) {
        h.push_local(move |_| {
            s2.fetch_add(1, Ordering::SeqCst);
        });
    }

    #[test]
    fn steal_pool_stats_account_for_executed_tasks() {
        let pool = WorkStealPool::new(2);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let done = Arc::clone(&done);
            pool.submit(move |_| {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        while done.load(Ordering::SeqCst) < 32 {
            std::thread::yield_now();
        }
        // `executed` may trail `done` by the in-flight increment window;
        // poll until it settles rather than racing the counter.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while pool.stats().executed < 32 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        let stats = pool.stats();
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.executed, 32);
        assert_eq!(pool.queued(), 0);
    }

    #[test]
    fn steal_pool_blocked_worker_does_not_stall_peers() {
        // One task parks on a channel; the remaining worker must still
        // drain the rest of the queue.
        let pool = WorkStealPool::new(2);
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let done = Arc::new(AtomicUsize::new(0));
        pool.submit(move |_| {
            let _ = release_rx.recv();
        });
        for _ in 0..16 {
            let done = Arc::clone(&done);
            pool.submit(move |_| {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while done.load(Ordering::SeqCst) < 16 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(done.load(Ordering::SeqCst), 16);
        release_tx.send(()).unwrap();
        drop(pool);
    }

    #[test]
    fn service_threads_is_positive() {
        assert!(service_threads() >= 1);
    }
}
