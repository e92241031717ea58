//! Fixed-point simulated time.
//!
//! All simulators in the workspace share one timeline type: [`SimTime`],
//! an integer number of **picoseconds** since simulation start. One
//! picosecond resolves every clock the models use (a 5 GHz core cycle is
//! 200 ps; a 10 Gb/s optical bit-slot is 100 ps) with no rounding drift,
//! and a `u64` of picoseconds covers ~213 days of simulated time —
//! comfortably beyond any full-system run.
//!
//! [`Freq`] converts between cycle counts and picoseconds for a given
//! clock domain; components in different domains interact only through
//! `SimTime`, never through raw cycle counts.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;

/// A point on (or distance along) the simulated timeline, in picoseconds.
///
/// `SimTime` is used both as an absolute timestamp and as a duration; the
/// arithmetic impls below are the ones meaningful under that reading
/// (`time + dur`, `time - time -> dur`). Saturating subtraction is
/// deliberate: timeline corrections in the trace replayer may transiently
/// move an event before its old reference point, and a panic there would
/// turn a modelling inaccuracy into a crash.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero: the start of simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; used as "never" / sentinel deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * PS_PER_US)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Value in nanoseconds (fractional).
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Value in microseconds (fractional).
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Saturating difference, treating both operands as timestamps.
    ///
    /// Returns zero when `earlier` is actually later; see the type-level
    /// comment for why this is saturating rather than panicking.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }

    /// Absolute difference between two timestamps.
    #[inline]
    pub fn abs_diff(self, other: SimTime) -> SimTime {
        SimTime(self.0.abs_diff(other.0))
    }

    /// Multiply a duration by an integer factor.
    #[inline]
    pub fn scaled(self, factor: u64) -> SimTime {
        SimTime(self.0.saturating_mul(factor))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ps", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= PS_PER_MS {
            write!(f, "{:.3}ms", self.0 as f64 / PS_PER_MS as f64)
        } else if self.0 >= PS_PER_US {
            write!(f, "{:.3}us", self.0 as f64 / PS_PER_US as f64)
        } else if self.0 >= PS_PER_NS {
            write!(f, "{:.3}ns", self.0 as f64 / PS_PER_NS as f64)
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

/// A clock domain, stored as the period of one cycle in picoseconds.
///
/// Stored as a period (not a frequency in Hz) so that cycle→time
/// conversion is a single integer multiply and stays exact for every
/// frequency whose period is a whole number of picoseconds — which
/// covers all frequencies used in the models (5 GHz → 200 ps, 2 GHz →
/// 500 ps, 1.25 GHz → 800 ps, ...).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Freq {
    period_ps: u64,
}

impl Freq {
    /// A clock of `ghz` gigahertz. Requires the period to be a whole
    /// number of picoseconds (true for every config in this workspace);
    /// panics otherwise so an inexact clock is caught at construction.
    pub fn from_ghz(ghz: u64) -> Self {
        assert!(ghz > 0, "frequency must be positive");
        assert!(
            1000 % ghz == 0,
            "period of {ghz} GHz is not a whole number of picoseconds"
        );
        Freq {
            period_ps: 1000 / ghz,
        }
    }

    /// Period of one cycle.
    #[inline]
    pub const fn period(self) -> SimTime {
        SimTime(self.period_ps)
    }

    /// Duration of `n` cycles.
    #[inline]
    pub const fn cycles(self, n: u64) -> SimTime {
        SimTime(self.period_ps * n)
    }

    /// Frequency in GHz, for reporting.
    pub fn ghz(self) -> f64 {
        1000.0 / self.period_ps as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_units() {
        assert_eq!(SimTime::from_ns(3).as_ps(), 3_000);
        assert_eq!(SimTime::from_us(2).as_ps(), 2_000_000);
        assert_eq!(SimTime::from_ps(7).as_ps(), 7);
        assert!((SimTime::from_ns(5).as_ns_f64() - 5.0).abs() < 1e-12);
        assert!((SimTime::from_us(5).as_us_f64() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ps(100);
        let b = SimTime::from_ps(40);
        assert_eq!((a + b).as_ps(), 140);
        assert_eq!((a - b).as_ps(), 60);
        // saturating: earlier - later == 0
        assert_eq!((b - a).as_ps(), 0);
        let mut c = a;
        c += b;
        assert_eq!(c.as_ps(), 140);
        c -= a;
        assert_eq!(c.as_ps(), 40);
    }

    #[test]
    fn saturating_since_and_abs_diff() {
        let a = SimTime::from_ps(10);
        let b = SimTime::from_ps(30);
        assert_eq!(b.saturating_since(a).as_ps(), 20);
        assert_eq!(a.saturating_since(b).as_ps(), 0);
        assert_eq!(a.abs_diff(b).as_ps(), 20);
        assert_eq!(b.abs_diff(a).as_ps(), 20);
    }

    #[test]
    fn freq_cycle_conversions() {
        let f = Freq::from_ghz(5); // 200 ps
        assert_eq!(f.period().as_ps(), 200);
        assert_eq!(f.cycles(3).as_ps(), 600);
        assert!((f.ghz() - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "whole number of picoseconds")]
    fn freq_rejects_inexact_ghz() {
        let _ = Freq::from_ghz(3); // 333.33 ps — not representable
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_ps(5)), "5ps");
        assert_eq!(format!("{}", SimTime::from_ns(5)), "5.000ns");
        assert_eq!(format!("{}", SimTime::from_us(5)), "5.000us");
    }

    #[test]
    fn ordering_is_numeric() {
        let mut v = [
            SimTime::from_ps(30),
            SimTime::from_ps(10),
            SimTime::from_ps(20),
        ];
        v.sort();
        assert_eq!(
            v.iter().map(|t| t.as_ps()).collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
    }

    #[test]
    fn scaled_saturates() {
        assert_eq!(SimTime::MAX.scaled(2), SimTime::MAX);
        assert_eq!(SimTime::from_ps(3).scaled(4).as_ps(), 12);
    }
}
