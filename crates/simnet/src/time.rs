//! Virtual time for the simulation.
//!
//! The clock is an integer number of **picoseconds** since the start of the
//! simulation. Integer time keeps the engine deterministic (no float
//! accumulation error) while still being fine-grained enough to express
//! per-byte serialization at hundreds of Gb/s: at 400 Gb/s one byte takes
//! 20 ps on the wire.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};
use std::sync::atomic::{AtomicU64, Ordering};

/// Picoseconds in one nanosecond.
const PS_PER_NS: u64 = 1_000;
/// Picoseconds in one microsecond.
const PS_PER_US: u64 = 1_000_000;
/// Picoseconds in one millisecond.
const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds in one second.
const PS_PER_S: u64 = 1_000_000_000_000;

/// An instant on the simulation clock (picoseconds since time zero).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (picoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDelta(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as an "infinity" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Time as fractional nanoseconds (for reporting only).
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Time as fractional microseconds (for reporting only).
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Time as fractional seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Span since an earlier instant. Panics if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> SimDelta {
        SimDelta(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: earlier instant is in the future"),
        )
    }

    /// Saturating difference: zero if `earlier` is actually later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDelta {
        SimDelta(self.0.saturating_sub(earlier.0))
    }
}

/// An engine's clock (the classic loop's, or one shard's), kept outside
/// its locked state so that [`ProcessCtx::now`](crate::ProcessCtx::now)
/// is one load.
///
/// Relaxed is enough. Only the thread that has control of the loop sets
/// the clock (in the loop's step, under the state lock) or reads it, and
/// control only changes hands through a mutex: a baton, the shard gate,
/// or the state lock itself. That hand-off orders every earlier set
/// before every later read.
pub(crate) struct Clock(AtomicU64);

impl Clock {
    pub(crate) fn new() -> Clock {
        Clock(AtomicU64::new(0))
    }

    #[inline]
    pub(crate) fn get(&self) -> SimTime {
        SimTime(self.0.load(Ordering::Relaxed))
    }

    pub(crate) fn set(&self, t: SimTime) {
        self.0.store(t.0, Ordering::Relaxed);
    }
}

impl SimDelta {
    /// Zero-length span.
    pub const ZERO: SimDelta = SimDelta(0);

    /// Construct from picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimDelta(ps)
    }

    /// Construct from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimDelta(ns * PS_PER_NS)
    }

    /// Construct from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimDelta(us * PS_PER_US)
    }

    /// Construct from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimDelta(ms * PS_PER_MS)
    }

    /// Construct from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDelta(s * PS_PER_S)
    }

    /// Construct from fractional microseconds (model parameters are often
    /// quoted in µs). Rounds to the nearest picosecond.
    pub fn from_us_f64(us: f64) -> Self {
        assert!(us >= 0.0, "negative duration");
        SimDelta((us * PS_PER_US as f64).round() as u64)
    }

    /// Serialization time of `bytes` at `bytes_per_sec`, rounded up to a
    /// whole picosecond so a transfer never takes zero time.
    pub fn for_bytes(bytes: u64, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "zero bandwidth");
        let ps = (bytes as u128 * PS_PER_S as u128).div_ceil(bytes_per_sec as u128);
        SimDelta(u64::try_from(ps).expect("transfer time overflows u64 picoseconds"))
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Span as fractional nanoseconds (for reporting only).
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Span as fractional microseconds (for reporting only).
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Span as fractional seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDelta) -> SimDelta {
        SimDelta(self.0.saturating_sub(other.0))
    }

    /// Scale by a float factor (for calibration knobs). Rounds to ps.
    pub fn scale(self, factor: f64) -> SimDelta {
        assert!(factor >= 0.0, "negative scale factor");
        SimDelta((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDelta> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDelta) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDelta> for SimTime {
    fn add_assign(&mut self, rhs: SimDelta) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDelta;
    fn sub(self, rhs: SimTime) -> SimDelta {
        self.since(rhs)
    }
}

impl Add for SimDelta {
    type Output = SimDelta;
    fn add(self, rhs: SimDelta) -> SimDelta {
        SimDelta(self.0.checked_add(rhs.0).expect("SimDelta overflow"))
    }
}

impl AddAssign for SimDelta {
    fn add_assign(&mut self, rhs: SimDelta) {
        *self = *self + rhs;
    }
}

impl Sub for SimDelta {
    type Output = SimDelta;
    fn sub(self, rhs: SimDelta) -> SimDelta {
        SimDelta(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDelta underflow; use saturating_sub"),
        )
    }
}

impl SubAssign for SimDelta {
    fn sub_assign(&mut self, rhs: SimDelta) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDelta {
    type Output = SimDelta;
    fn mul(self, rhs: u64) -> SimDelta {
        SimDelta(self.0.checked_mul(rhs).expect("SimDelta overflow"))
    }
}

impl Div<u64> for SimDelta {
    type Output = SimDelta;
    fn div(self, rhs: u64) -> SimDelta {
        SimDelta(self.0 / rhs)
    }
}

impl Sum for SimDelta {
    fn sum<I: Iterator<Item = SimDelta>>(iter: I) -> SimDelta {
        iter.fold(SimDelta::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}us", self.as_us_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

impl fmt::Debug for SimDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

impl fmt::Display for SimDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(SimDelta::from_ns(1).as_ps(), 1_000);
        assert_eq!(SimDelta::from_us(1).as_ps(), 1_000_000);
        assert_eq!(SimDelta::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(SimDelta::from_secs(1).as_ps(), PS_PER_S);
        assert_eq!(SimDelta::from_us(3).as_us_f64(), 3.0);
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDelta::from_ns(500);
        assert_eq!(t1.as_ps(), 500_000);
        assert_eq!((t1 - t0).as_ns_f64(), 500.0);
        assert_eq!(
            t1.saturating_since(t1 + SimDelta::from_ns(1)),
            SimDelta::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "earlier instant is in the future")]
    fn since_panics_on_negative_span() {
        let t0 = SimTime::from_ps(10);
        let t1 = SimTime::from_ps(20);
        let _ = t0.since(t1);
    }

    #[test]
    fn bandwidth_serialization() {
        // 1 GiB/s => 1 byte takes ~931 ps... use exact: 10^12 ps / 2^30 B.
        let d = SimDelta::for_bytes(1, 1 << 30);
        assert!(d.as_ps() >= 931 && d.as_ps() <= 932, "{}", d.as_ps());
        // 25 GB/s, 1 MiB message: ~41.9 us.
        let d = SimDelta::for_bytes(1 << 20, 25_000_000_000);
        let us = d.as_us_f64();
        assert!((41.0..43.0).contains(&us), "{us}");
        // Zero bytes takes zero time.
        assert_eq!(SimDelta::for_bytes(0, 1_000_000), SimDelta::ZERO);
    }

    #[test]
    fn rounding_up_never_zero_for_nonzero_bytes() {
        // Even one byte at an absurd bandwidth costs at least 1 ps.
        let d = SimDelta::for_bytes(1, u64::MAX / 2);
        assert!(d.as_ps() >= 1);
    }

    #[test]
    fn from_us_f64_rounds() {
        assert_eq!(SimDelta::from_us_f64(1.5).as_ps(), 1_500_000);
        assert_eq!(SimDelta::from_us_f64(0.0), SimDelta::ZERO);
    }

    #[test]
    fn scale_and_sum() {
        let d = SimDelta::from_us(10).scale(0.5);
        assert_eq!(d, SimDelta::from_us(5));
        let total: SimDelta = [SimDelta::from_us(1), SimDelta::from_us(2)]
            .into_iter()
            .sum();
        assert_eq!(total, SimDelta::from_us(3));
    }
}
