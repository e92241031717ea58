//! # sctm-workloads — application communication skeletons
//!
//! Deterministic stand-ins for the SPLASH-2/PARSEC-class programs the
//! paper runs on its full-system simulator (DESIGN.md §5). Each kernel
//! reproduces the *network-visible* structure of its namesake — sharing
//! pattern, phase/barrier rhythm, read/write mix, burstiness — as an
//! explicit per-core op script over a shared address space:
//!
//! | kernel | namesake | communication structure |
//! |---|---|---|
//! | [`Kernel::Fft`] | SPLASH-2 fft | all-to-all butterfly exchanges, barrier per stage |
//! | [`Kernel::Lu`] | SPLASH-2 lu | broadcast of a pivot block, barrier per step |
//! | [`Kernel::Barnes`] | SPLASH-2 barnes | irregular Zipf-skewed tree reads, sparse writes |
//! | [`Kernel::Streamcluster`] | PARSEC streamcluster | hot read-shared centres, master updates |
//! | [`Kernel::Canneal`] | PARSEC canneal | random pairwise ownership migration |
//! | [`Kernel::Blackscholes`] | PARSEC blackscholes | embarrassingly parallel, private streaming (control case) |
//!
//! Scripts are fully materialised at construction from a seed, so every
//! simulation mode (execution-driven on any network, trace capture,
//! replay) sees the identical instruction stream.

#![forbid(unsafe_code)]

use sctm_cmp::protocol::{Op, Workload};
use sctm_cmp::LINE_BYTES;
use sctm_engine::rng::StreamRng;
use std::collections::VecDeque;

/// Base byte address of the shared region (line 0).
pub const SHARED_BASE: u64 = 0;
/// Base of per-core private regions.
pub const PRIVATE_BASE: u64 = 0x1_0000_0000;
/// Bytes reserved per core in the private region.
pub const PRIVATE_STRIDE: u64 = 0x10_0000;

#[inline]
fn shared(line: u64) -> u64 {
    SHARED_BASE + line * LINE_BYTES
}

#[inline]
fn private(core: usize, line: u64) -> u64 {
    PRIVATE_BASE + core as u64 * PRIVATE_STRIDE + line * LINE_BYTES
}

/// Which application skeleton to build.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kernel {
    Fft,
    Lu,
    Barnes,
    Streamcluster,
    Canneal,
    /// PARSEC blackscholes stand-in: embarrassingly parallel, almost no
    /// sharing — the control case where even the classic trace model
    /// should do fine (extension kernel).
    Blackscholes,
}

impl Kernel {
    pub const ALL: [Kernel; 6] = [
        Kernel::Fft,
        Kernel::Lu,
        Kernel::Barnes,
        Kernel::Streamcluster,
        Kernel::Canneal,
        Kernel::Blackscholes,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Kernel::Fft => "fft",
            Kernel::Lu => "lu",
            Kernel::Barnes => "barnes",
            Kernel::Streamcluster => "streamcluster",
            Kernel::Canneal => "canneal",
            Kernel::Blackscholes => "blackscholes",
        }
    }
}

/// Shortest per-core script a kernel is built with: below it the
/// phase structure is noise. [`WorkloadParams::new`] asserts it; front
/// ends that take `ops` from outside check it first.
pub const MIN_OPS_PER_CORE: usize = 64;

/// Sizing knobs shared by all kernels.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadParams {
    pub cores: usize,
    /// Approximate script length per core (actual varies ±20%).
    pub ops_per_core: usize,
    pub seed: u64,
}

impl WorkloadParams {
    pub fn new(cores: usize, ops_per_core: usize, seed: u64) -> Self {
        assert!(cores.is_power_of_two(), "kernels want power-of-two cores");
        assert!(
            ops_per_core >= MIN_OPS_PER_CORE,
            "scripts shorter than {MIN_OPS_PER_CORE} ops are noise"
        );
        WorkloadParams {
            cores,
            ops_per_core,
            seed,
        }
    }
}

/// A fully materialised multi-core op script.
pub struct ScriptWorkload {
    name: &'static str,
    streams: Vec<VecDeque<Op>>,
}

impl Workload for ScriptWorkload {
    fn num_cores(&self) -> usize {
        self.streams.len()
    }
    fn name(&self) -> &'static str {
        self.name
    }
    fn next_op(&mut self, core: usize) -> Op {
        self.streams[core].pop_front().unwrap_or(Op::Halt)
    }
}

impl ScriptWorkload {
    /// Total scripted ops (before Halt padding), for reports.
    pub fn total_ops(&self) -> usize {
        self.streams.iter().map(|s| s.len()).sum()
    }

    /// Number of barrier ops in core 0's script.
    pub fn barriers(&self) -> usize {
        self.streams[0]
            .iter()
            .filter(|o| matches!(o, Op::Barrier(_)))
            .count()
    }

    /// Peek the full script of one core (test/diagnostic use).
    pub fn script(&self, core: usize) -> impl Iterator<Item = &Op> {
        self.streams[core].iter()
    }
}

/// Build a kernel instance.
pub fn build(kernel: Kernel, p: WorkloadParams) -> ScriptWorkload {
    let streams = match kernel {
        Kernel::Fft => gen_fft(p),
        Kernel::Lu => gen_lu(p),
        Kernel::Barnes => gen_barnes(p),
        Kernel::Streamcluster => gen_streamcluster(p),
        Kernel::Canneal => gen_canneal(p),
        Kernel::Blackscholes => gen_blackscholes(p),
    };
    // A script is generated by pushing, and stored for the whole run:
    // keep it at its length, not at what doubling left it.
    let streams = streams
        .into_iter()
        .map(|mut ops| {
            ops.shrink_to_fit();
            VecDeque::from(ops)
        })
        .collect();
    ScriptWorkload {
        name: kernel.label(),
        streams,
    }
}

/// FFT block size for the given params (shared with tests).
fn fft_block(p: &WorkloadParams) -> u64 {
    let stages = p.cores.trailing_zeros().max(1) as usize;
    let per_stage = (p.ops_per_core / stages).max(12);
    (per_stage / 3).max(4) as u64
}

/// Butterfly all-to-all: log2(cores) stages; in stage `s`, core `i`
/// reads the block of partner `i ^ (1 << s)` and rewrites its own.
fn gen_fft(p: WorkloadParams) -> Vec<Vec<Op>> {
    let stages = p.cores.trailing_zeros().max(1) as usize;
    let block = fft_block(&p);
    let mut out = vec![Vec::new(); p.cores];
    for s in 0..stages {
        for (core, ops) in out.iter_mut().enumerate() {
            let partner = core ^ (1usize << s);
            for j in 0..block {
                ops.push(Op::Load(shared(partner as u64 * block + j)));
                ops.push(Op::Compute(6));
                ops.push(Op::Store(shared(core as u64 * block + j)));
            }
        }
        for ops in out.iter_mut() {
            ops.push(Op::Barrier(s as u32));
        }
    }
    out
}

/// Blocked LU: each step broadcasts the pivot owner's block to everyone,
/// then all cores update their own panel.
fn gen_lu(p: WorkloadParams) -> Vec<Vec<Op>> {
    let steps = 6.min(p.cores).max(2);
    let per_step = (p.ops_per_core / steps).max(15);
    let block = (per_step / 5).max(4) as u64;
    let mut out = vec![Vec::new(); p.cores];
    let mut bar = 0u32;
    for k in 0..steps {
        let owner = (k * 7) % p.cores;
        // Owner refreshes its pivot block first.
        for j in 0..block {
            out[owner].push(Op::Store(shared(owner as u64 * block + j)));
            out[owner].push(Op::Compute(4));
        }
        for ops in out.iter_mut() {
            ops.push(Op::Barrier(bar));
        }
        bar += 1;
        // Everyone consumes the pivot block and updates their panel.
        for (core, ops) in out.iter_mut().enumerate() {
            for j in 0..block {
                ops.push(Op::Load(shared(owner as u64 * block + j)));
                ops.push(Op::Compute(8));
                ops.push(Op::Store(private(core, j)));
            }
        }
        for ops in out.iter_mut() {
            ops.push(Op::Barrier(bar));
        }
        bar += 1;
    }
    out
}

/// Zipf-like sampler over `n` items (precomputed CDF, α ≈ 0.8).
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(0.8);
            cdf.push(acc);
        }
        let total = acc;
        for c in cdf.iter_mut() {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StreamRng) -> u64 {
        let u = rng.f64();
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

/// Irregular tree walks with skewed sharing; occasional shared writes.
fn gen_barnes(p: WorkloadParams) -> Vec<Vec<Op>> {
    let timesteps = 4;
    let per_step = (p.ops_per_core / timesteps).max(20);
    let tree_lines = (p.cores as u64 * 16).max(256);
    let zipf = Zipf::new(tree_lines as usize);
    let root = StreamRng::new(p.seed);
    let mut out = vec![Vec::new(); p.cores];
    for bar in 0..timesteps as u32 {
        for (core, ops) in out.iter_mut().enumerate() {
            let mut rng = root.stream("barnes", ((core as u64) << 8) | bar as u64);
            let walks = per_step / 5;
            for w in 0..walks {
                ops.push(Op::Load(shared(zipf.sample(&mut rng))));
                ops.push(Op::Load(shared(zipf.sample(&mut rng))));
                ops.push(Op::Compute(10));
                if rng.chance(0.06) {
                    ops.push(Op::Store(shared(zipf.sample(&mut rng))));
                } else {
                    ops.push(Op::Store(private(core, w as u64 % 64)));
                }
            }
        }
        for ops in out.iter_mut() {
            ops.push(Op::Barrier(bar));
        }
    }
    out
}

/// Hot read-shared centres; the master rewrites them each phase,
/// triggering an invalidation storm.
fn gen_streamcluster(p: WorkloadParams) -> Vec<Vec<Op>> {
    let phases = 4;
    let centers = 8u64;
    let per_phase = (p.ops_per_core / phases).max(20);
    let root = StreamRng::new(p.seed ^ 0x5c);
    let mut out = vec![Vec::new(); p.cores];
    let mut bar = 0u32;
    for _ph in 0..phases {
        for (core, ops) in out.iter_mut().enumerate() {
            let mut rng = root.stream("stream", ((core as u64) << 8) | bar as u64);
            let points = per_phase / 4;
            for i in 0..points {
                ops.push(Op::Load(shared(rng.below(centers))));
                ops.push(Op::Load(private(core, i as u64 % 128)));
                ops.push(Op::Compute(5));
                ops.push(Op::Store(private(core, 200 + i as u64 % 16)));
            }
        }
        for ops in out.iter_mut() {
            ops.push(Op::Barrier(bar));
        }
        bar += 1;
        // Master updates every centre (everyone else gets invalidated).
        for c in 0..centers {
            out[0].push(Op::Store(shared(c)));
            out[0].push(Op::Compute(3));
        }
        for ops in out.iter_mut() {
            ops.push(Op::Barrier(bar));
        }
        bar += 1;
    }
    out
}

/// Random pairwise swaps: write-write ownership migration.
fn gen_canneal(p: WorkloadParams) -> Vec<Vec<Op>> {
    let elements = (p.cores as u64 * 32).max(512);
    let swaps = (p.ops_per_core / 4).max(16);
    let root = StreamRng::new(p.seed ^ 0xca);
    let mut out = vec![Vec::new(); p.cores];
    let bar_every = (swaps / 3).max(8);
    let total_bars = swaps / bar_every;
    for (core, ops) in out.iter_mut().enumerate() {
        let mut rng = root.stream("canneal", core as u64);
        let mut bar = 0u32;
        for s in 0..swaps {
            let a = rng.below(elements);
            let b = rng.below(elements);
            ops.push(Op::Load(shared(a)));
            ops.push(Op::Load(shared(b)));
            ops.push(Op::Compute(7));
            ops.push(Op::Store(shared(a)));
            ops.push(Op::Store(shared(b)));
            if (s + 1) % bar_every == 0 && (bar as usize) < total_bars {
                ops.push(Op::Barrier(bar));
                bar += 1;
            }
        }
    }
    out
}

/// Embarrassingly parallel option pricing: stream over private data,
/// heavy compute per element, one barrier at the end. Network traffic
/// is almost exclusively cold misses to memory.
fn gen_blackscholes(p: WorkloadParams) -> Vec<Vec<Op>> {
    let per_core = p.ops_per_core.max(64);
    let options = (per_core / 4) as u64;
    let mut out = vec![Vec::new(); p.cores];
    for (core, ops) in out.iter_mut().enumerate() {
        for i in 0..options {
            ops.push(Op::Load(private(core, i % 512)));
            ops.push(Op::Compute(40));
            ops.push(Op::Store(private(core, 600 + i % 128)));
        }
        ops.push(Op::Barrier(0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> WorkloadParams {
        WorkloadParams::new(16, 600, 42)
    }

    #[test]
    fn all_kernels_build_and_are_nonempty() {
        for k in Kernel::ALL {
            let w = build(k, params());
            assert_eq!(w.num_cores(), 16);
            assert!(w.total_ops() > 16 * 100, "{}: too few ops", k.label());
        }
    }

    #[test]
    fn scripts_halt_forever_after_exhaustion() {
        let mut w = build(Kernel::Fft, WorkloadParams::new(4, 64, 1));
        while w.next_op(0) != Op::Halt {}
        for _ in 0..10 {
            assert_eq!(w.next_op(0), Op::Halt);
        }
    }

    #[test]
    fn barrier_ids_match_across_cores() {
        for k in Kernel::ALL {
            let w = build(k, params());
            let extract = |core: usize| -> Vec<u32> {
                w.script(core)
                    .filter_map(|o| match o {
                        Op::Barrier(b) => Some(*b),
                        _ => None,
                    })
                    .collect()
            };
            let b0 = extract(0);
            assert!(!b0.is_empty(), "{}: no barriers at all", k.label());
            for c in 1..16 {
                assert_eq!(extract(c), b0, "{}: barrier mismatch core {c}", k.label());
            }
            assert!(
                b0.windows(2).all(|w| w[1] > w[0]),
                "{}: ids not increasing",
                k.label()
            );
        }
    }

    #[test]
    fn deterministic_across_builds() {
        for k in Kernel::ALL {
            let a = build(k, params());
            let b = build(k, params());
            for c in 0..16 {
                let va: Vec<_> = a.script(c).collect();
                let vb: Vec<_> = b.script(c).collect();
                assert_eq!(va, vb, "{}: stream differs on core {c}", k.label());
            }
        }
    }

    #[test]
    fn different_seeds_differ_for_stochastic_kernels() {
        for k in [Kernel::Barnes, Kernel::Canneal, Kernel::Streamcluster] {
            let a = build(k, WorkloadParams::new(8, 600, 1));
            let b = build(k, WorkloadParams::new(8, 600, 2));
            let va: Vec<_> = a.script(3).cloned().collect();
            let vb: Vec<_> = b.script(3).cloned().collect();
            assert_ne!(va, vb, "{}: seed ignored", k.label());
        }
    }

    #[test]
    fn fft_stage0_reads_partner_block() {
        let p = WorkloadParams::new(8, 600, 1);
        let block = fft_block(&p);
        let w = build(Kernel::Fft, p);
        // Core 3's stage-0 partner is 2; first op is a load of
        // partner's first block line.
        let first = w.script(3).next().unwrap();
        assert_eq!(*first, Op::Load(shared(2 * block)));
        // Core 0's partner is 1.
        let first0 = w.script(0).next().unwrap();
        assert_eq!(*first0, Op::Load(shared(block)));
    }

    #[test]
    fn blackscholes_touches_only_private_lines() {
        let w = build(Kernel::Blackscholes, params());
        for core in 0..16 {
            for op in w.script(core) {
                match op {
                    Op::Load(a) | Op::Store(a) => {
                        assert!(
                            *a >= PRIVATE_BASE,
                            "blackscholes touched shared address {a:#x}"
                        );
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn canneal_is_store_heavy() {
        let w = build(Kernel::Canneal, params());
        let (mut loads, mut stores) = (0, 0);
        for op in w.script(0) {
            match op {
                Op::Load(_) => loads += 1,
                Op::Store(_) => stores += 1,
                _ => {}
            }
        }
        assert!(
            stores >= loads,
            "canneal should migrate ownership: {loads} loads, {stores} stores"
        );
    }

    #[test]
    fn streamcluster_reads_concentrate_on_centers() {
        let w = build(Kernel::Streamcluster, params());
        let mut center_reads = 0usize;
        let mut other_reads = 0usize;
        for op in w.script(5) {
            if let Op::Load(a) = op {
                if *a < 8 * LINE_BYTES {
                    center_reads += 1;
                } else {
                    other_reads += 1;
                }
            }
        }
        assert!(center_reads > 0);
        // Half the loads are centre loads by construction.
        assert!((center_reads as i64 - other_reads as i64).abs() <= 2);
    }

    #[test]
    fn zipf_is_skewed() {
        let z = Zipf::new(1000);
        let mut rng = StreamRng::new(9);
        let mut head = 0;
        let n = 20_000;
        for _ in 0..n {
            if z.sample(&mut rng) < 100 {
                head += 1;
            }
        }
        // Top 10% of items should draw well over 10% of samples.
        assert!(head as f64 / n as f64 > 0.25, "zipf head share {head}/{n}");
    }

    #[test]
    fn private_regions_do_not_overlap() {
        for c in 0..7usize {
            assert!(private(c, 0) + PRIVATE_STRIDE <= private(c + 1, 0));
        }
        // and stay clear of the shared region
        assert!(private(0, 0) > shared(1 << 20));
    }

    #[test]
    fn runs_on_the_full_system_simulator() {
        use sctm_cmp::{CmpConfig, CmpSim, NullHook};
        use sctm_engine::net::AnalyticNetwork;
        use sctm_engine::time::SimTime;
        for k in Kernel::ALL {
            let w = build(k, WorkloadParams::new(4, 200, 3));
            let cfg = CmpConfig::tiled(2);
            let net = AnalyticNetwork::new(4, SimTime::from_ns(10), SimTime::from_ns(2), 10);
            let mut sim = CmpSim::new(cfg, Box::new(net), Box::new(w));
            let r = sim.run(&mut NullHook);
            assert!(r.exec_time > SimTime::ZERO, "{}: no progress", k.label());
            assert!(r.messages_injected > 0, "{}: no traffic", k.label());
        }
    }
}
