//! Virtual time in integer picoseconds.
//!
//! Picosecond resolution keeps every duration computation exact for the
//! regimes this simulator cares about (nanosecond latencies, multi-GB/s
//! bandwidths, sub-second collectives) while `u64` still covers ~214 days of
//! virtual time — far beyond any experiment in the paper.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in virtual time, or a duration, in picoseconds.
///
/// The same type is used for instants and durations; the simulator's
/// arithmetic is simple enough that a separate `Duration` type would only
/// add noise.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub struct Time(pub u64);

pub const PS_PER_NS: u64 = 1_000;
pub const PS_PER_US: u64 = 1_000_000;
pub const PS_PER_MS: u64 = 1_000_000_000;
pub const PS_PER_S: u64 = 1_000_000_000_000;

impl Time {
    pub const ZERO: Time = Time(0);
    pub const MAX: Time = Time(u64::MAX);

    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }

    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns * PS_PER_NS)
    }

    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Time(us * PS_PER_US)
    }

    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        Time(ms * PS_PER_MS)
    }

    /// Convert a floating-point number of seconds, rounding to the nearest
    /// picosecond. Used when deriving durations from bandwidths.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative duration: {s}");
        Time((s * PS_PER_S as f64).round() as u64)
    }

    /// Time to move `bytes` at `bytes_per_sec`, exact in integer arithmetic.
    #[inline]
    pub fn for_bytes(bytes: u64, bytes_per_sec: f64) -> Self {
        debug_assert!(bytes_per_sec > 0.0, "non-positive bandwidth");
        let ps = (bytes as u128 * PS_PER_S as u128) / (bytes_per_sec as u128).max(1);
        Time(ps.min(u64::MAX as u128) as u64)
    }

    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    #[inline]
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    #[inline]
    pub fn max(self, rhs: Time) -> Time {
        Time(self.0.max(rhs.0))
    }

    #[inline]
    pub fn min(self, rhs: Time) -> Time {
        Time(self.0.min(rhs.0))
    }

    /// Scale a duration by a dimensionless factor (e.g. congestion factors).
    #[inline]
    pub fn scale(self, factor: f64) -> Time {
        debug_assert!(factor >= 0.0);
        Time((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        debug_assert!(self.0 >= rhs.0, "time underflow: {self:?} - {rhs:?}");
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        debug_assert!(self.0 >= rhs.0);
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: u64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Div<u64> for Time {
    type Output = Time;
    #[inline]
    fn div(self, rhs: u64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", human(*self))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", human(*self))
    }
}

/// Render a time with an adaptive unit, e.g. `3.2us` or `1.25ms`.
pub fn human(t: Time) -> String {
    let ps = t.0;
    if ps == 0 {
        "0".to_string()
    } else if ps < PS_PER_NS {
        format!("{ps}ps")
    } else if ps < PS_PER_US {
        format!("{:.2}ns", ps as f64 / PS_PER_NS as f64)
    } else if ps < PS_PER_MS {
        format!("{:.2}us", ps as f64 / PS_PER_US as f64)
    } else if ps < PS_PER_S {
        format!("{:.2}ms", ps as f64 / PS_PER_MS as f64)
    } else {
        format!("{:.3}s", ps as f64 / PS_PER_S as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_are_consistent() {
        assert_eq!(Time::from_ns(1), Time::from_ps(1_000));
        assert_eq!(Time::from_us(1), Time::from_ns(1_000));
        assert_eq!(Time::from_ms(1), Time::from_us(1_000));
        assert_eq!(Time::from_secs_f64(1.0), Time::from_ms(1_000));
    }

    #[test]
    fn bandwidth_durations() {
        // 1 GiB at 1 GiB/s = 1 s.
        let gib = 1u64 << 30;
        let t = Time::for_bytes(gib, gib as f64);
        assert_eq!(t, Time::from_secs_f64(1.0));
        // 64 KiB at 10 GB/s = 6.5536 us.
        let t = Time::for_bytes(64 * 1024, 10e9);
        assert_eq!(t.as_ps(), 6_553_600);
    }

    #[test]
    fn zero_bytes_is_zero_time() {
        assert_eq!(Time::for_bytes(0, 1e9), Time::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_us(3);
        let b = Time::from_us(1);
        assert_eq!(a + b, Time::from_us(4));
        assert_eq!(a - b, Time::from_us(2));
        assert_eq!(a * 2, Time::from_us(6));
        assert_eq!(a / 3, Time::from_us(1));
        assert_eq!(b.saturating_sub(a), Time::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn scaling() {
        assert_eq!(Time::from_ns(100).scale(1.5), Time::from_ns(150));
        assert_eq!(Time::from_ns(100).scale(0.0), Time::ZERO);
    }

    #[test]
    fn summation() {
        let total: Time = (1..=4).map(Time::from_ns).sum();
        assert_eq!(total, Time::from_ns(10));
    }

    #[test]
    fn human_formatting() {
        assert_eq!(human(Time::ZERO), "0");
        assert_eq!(human(Time::from_ps(500)), "500ps");
        assert_eq!(human(Time::from_ns(2)), "2.00ns");
        assert_eq!(human(Time::from_us(3)), "3.00us");
        assert_eq!(human(Time::from_ms(4)), "4.00ms");
        assert_eq!(human(Time::from_secs_f64(1.5)), "1.500s");
    }
}
