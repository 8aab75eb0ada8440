//! Virtual time for the discrete-event simulation.
//!
//! Time is kept in integer **picoseconds** so that byte-granular bandwidth
//! arithmetic (e.g. one byte over a 3.2 GB/s link is ~312 ps) does not lose
//! precision. A `u64` of picoseconds covers ~213 days of virtual time, far
//! beyond anything the Biscuit experiments simulate (the longest run in the
//! paper is ~2 days of wall time for the Conv TPC-H suite).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in virtual time, measured in picoseconds since simulation start.
///
/// # Examples
///
/// ```
/// use biscuit_sim::time::{SimDuration, SimTime};
/// let t = SimTime::ZERO + SimDuration::from_micros(90);
/// assert_eq!(t.as_nanos(), 90_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, measured in picoseconds.
///
/// # Examples
///
/// ```
/// use biscuit_sim::time::SimDuration;
/// let d = SimDuration::from_micros(10) + SimDuration::from_nanos(700);
/// assert_eq!(d.as_nanos(), 10_700);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

const PS_PER_NS: u64 = 1_000;
const PS_PER_US: u64 = 1_000_000;
const PS_PER_MS: u64 = 1_000_000_000;
const PS_PER_S: u64 = 1_000_000_000_000;

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinitely far" sentinel.
    pub(crate) const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Raw picosecond count since the epoch.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Whole nanoseconds since the epoch (truncating).
    pub const fn as_nanos(self) -> u64 {
        self.0 / PS_PER_NS
    }

    /// Whole microseconds since the epoch (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / PS_PER_US
    }

    /// Seconds since the epoch as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub(crate) fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: earlier time is after self"),
        )
    }

    /// Saturating addition of a duration (clamps at [`SimTime::MAX`]).
    pub(crate) fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns * PS_PER_NS)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * PS_PER_US)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * PS_PER_MS)
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative, NaN, or too large to represent.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "duration seconds must be finite and non-negative, got {s}"
        );
        let ps = s * PS_PER_S as f64;
        assert!(
            ps <= u64::MAX as f64,
            "duration overflows SimDuration: {s}s"
        );
        SimDuration(ps as u64)
    }

    /// Creates a duration from fractional microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `us` is negative, NaN, or too large to represent.
    pub fn from_micros_f64(us: f64) -> Self {
        Self::from_secs_f64(us * 1e-6)
    }

    /// The time to move `bytes` bytes at `bytes_per_sec`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not strictly positive.
    pub fn for_bytes(bytes: u64, bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec > 0.0,
            "bandwidth must be positive, got {bytes_per_sec}"
        );
        Self::from_secs_f64(bytes as f64 / bytes_per_sec)
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Whole nanoseconds (truncating).
    pub const fn as_nanos(self) -> u64 {
        self.0 / PS_PER_NS
    }

    /// Whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / PS_PER_US
    }

    /// Fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// True if this is the zero duration.
    pub(crate) const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({})", format_ps(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_ps(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({})", format_ps(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_ps(self.0))
    }
}

fn format_ps(ps: u64) -> String {
    if ps >= PS_PER_S {
        format!("{:.3}s", ps as f64 / PS_PER_S as f64)
    } else if ps >= PS_PER_MS {
        format!("{:.3}ms", ps as f64 / PS_PER_MS as f64)
    } else if ps >= PS_PER_US {
        format!("{:.3}us", ps as f64 / PS_PER_US as f64)
    } else if ps >= PS_PER_NS {
        format!("{:.3}ns", ps as f64 / PS_PER_NS as f64)
    } else {
        format!("{ps}ps")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimDuration::from_micros(5).as_micros(), 5);
        assert_eq!(SimDuration::from_nanos(1500).as_nanos(), 1500);
        assert_eq!(SimDuration::from_millis(2).as_micros(), 2000);
        assert_eq!(SimDuration::from_millis(3_000).as_micros(), 3_000_000);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_micros(10);
        let u = t + SimDuration::from_micros(5);
        assert_eq!((u - t).as_micros(), 5);
        assert_eq!(u.duration_since(SimTime::ZERO).as_micros(), 15);
    }

    #[test]
    fn bandwidth_duration() {
        // 3.2 GB/s, 4 KiB => ~1.28 us
        let d = SimDuration::for_bytes(4096, 3.2e9);
        assert!((d.as_micros_f64() - 1.28).abs() < 0.001, "{d}");
    }

    #[test]
    fn duration_from_fractional_seconds() {
        let d = SimDuration::from_secs_f64(0.0000015);
        assert_eq!(d.as_nanos(), 1500);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn duration_underflow_panics() {
        let _ = SimDuration::from_nanos(1) - SimDuration::from_nanos(2);
    }

    #[test]
    #[should_panic(expected = "earlier time is after")]
    fn negative_elapsed_panics() {
        let _ = SimTime::ZERO.duration_since(SimTime::from_ps(1_000_000));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::from_millis(2_000).to_string(), "2.000s");
        assert_eq!(SimDuration::from_micros(31).to_string(), "31.000us");
        assert_eq!(SimDuration::from_ps(500).to_string(), "500ps");
    }

    #[test]
    fn sum_and_scale() {
        let total: SimDuration = (1..=4).map(SimDuration::from_micros).sum();
        assert_eq!(total.as_micros(), 10);
        assert_eq!((SimDuration::from_micros(3) * 4).as_micros(), 12);
        assert_eq!((SimDuration::from_micros(12) / 4).as_micros(), 3);
    }
}
