//! The calibration kernel.
//!
//! CPU-bound timings on the shared 2-CPU host move 20–30% between
//! phases of a few seconds (the host flips between a fast and a slow
//! state; on-CPU time moves with wall time, so it is the speed of the
//! core that changes, not scheduling). Every timed op is therefore
//! bracketed by this fixed kernel, which touches no repository crate,
//! and a calibrated time is `op wall ÷ mean wall of the two bracketing
//! calibration runs`: host speed cancels, the program's own cost stays.
//!
//! One run is two halves of about 10 ms each: a register-only xorshift
//! loop, and a xorshift-indexed read-modify-write walk over an 8 MiB
//! `u64` table. The router-heavy emesh loop tracks the first half, the
//! pointer-heavy omesh replay sits between the two; their sum tracked
//! both better than either alone (README, "Calibration").

use std::hint::black_box;
use std::time::Instant;

const TABLE_WORDS: usize = 1 << 20; // 8 MiB of u64
const TABLE_STEPS: usize = 1_500_000;
const ALU_STEPS: usize = 6_000_000;

#[inline(always)]
fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

pub struct Calibrator {
    table: Vec<u64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    pub fn new() -> Self {
        Calibrator {
            table: (0..TABLE_WORDS as u64).collect(),
        }
    }

    /// One calibration run; returns its wall time in nanoseconds.
    pub fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut acc = 0u64;
        for _ in 0..ALU_STEPS {
            x = xorshift(x);
            acc = acc.wrapping_add(x);
        }
        black_box(acc);
        let mask = TABLE_WORDS - 1;
        for _ in 0..TABLE_STEPS {
            x = xorshift(x);
            let slot = &mut self.table[x as usize & mask];
            *slot = slot.wrapping_add(x);
        }
        black_box(&mut self.table);
        t0.elapsed().as_nanos() as f64
    }
}

/// Timing samples of one kind of op.
#[derive(Default)]
pub struct Samples {
    /// Raw wall per op, ms.
    pub raw_ms: Vec<f64>,
    /// Calibrated time per op: raw wall ÷ bracketing calibration wall.
    pub cal_x: Vec<f64>,
    /// Bracketing calibration wall per op, ms.
    pub calib_ms: Vec<f64>,
}

impl Samples {
    pub fn len(&self) -> usize {
        self.raw_ms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.raw_ms.is_empty()
    }
}

/// Times ops between calibration runs. Consecutive ops share the run
/// between them, so `n` ops cost `n + 1` calibration runs.
pub struct OpClock {
    cal: Calibrator,
    last_calib_ns: f64,
}

impl Default for OpClock {
    fn default() -> Self {
        Self::new()
    }
}

impl OpClock {
    pub fn new() -> Self {
        let mut cal = Calibrator::new();
        cal.run(); // page the table in
        let last_calib_ns = cal.run();
        OpClock { cal, last_calib_ns }
    }

    /// Time `op` and record it as one sample of `into`.
    pub fn time<R>(&mut self, into: &mut Samples, op: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = op();
        let raw_ns = t0.elapsed().as_nanos() as f64;
        let after = self.cal.run();
        let calib_ns = (self.last_calib_ns + after) / 2.0;
        self.last_calib_ns = after;
        into.raw_ms.push(raw_ns / 1e6);
        into.cal_x.push(raw_ns / calib_ns);
        into.calib_ms.push(calib_ns / 1e6);
        out
    }

    /// Re-measure the leading calibration run, after a pause in which
    /// something other than a timed op ran.
    pub fn resync(&mut self) {
        self.last_calib_ns = self.cal.run();
    }
}
