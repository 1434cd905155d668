//! Virtual time with picosecond resolution.
//!
//! Two newtypes keep points in time and spans of time from being confused
//! (C-NEWTYPE): [`Time`] is an absolute instant on the simulation clock and
//! [`Duration`] is a span. Arithmetic is defined only where it is
//! meaningful: `Time + Duration -> Time`, `Time - Time -> Duration`,
//! `Duration * u64 -> Duration`, and so on.
//!
//! Picoseconds in a `u64` cover roughly 213 days of simulated time, far
//! beyond any experiment in this repository, while still resolving
//! sub-nanosecond interconnect hops at multi-GHz clocks.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// An absolute instant on the simulation clock, in picoseconds since the
/// start of the simulation.
///
/// # Example
///
/// ```
/// use ecoscale_sim::{Duration, Time};
///
/// let t = Time::from_ns(4) + Duration::from_ps(500);
/// assert_eq!(t.as_ps(), 4_500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A span of virtual time, in picoseconds.
///
/// # Example
///
/// ```
/// use ecoscale_sim::Duration;
///
/// let per_hop = Duration::from_ns(35);
/// assert_eq!((per_hop * 3).as_ns_f64(), 105.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

macro_rules! time_ctors {
    ($ty:ident) => {
        impl $ty {
            /// The zero value.
            pub const ZERO: Self = Self(0);
            /// The largest representable value.
            pub const MAX: Self = Self(u64::MAX);

            /// Creates a value from picoseconds.
            #[inline]
            pub const fn from_ps(ps: u64) -> Self {
                Self(ps)
            }

            /// Creates a value from nanoseconds.
            #[inline]
            pub const fn from_ns(ns: u64) -> Self {
                Self(ns * 1_000)
            }

            /// Creates a value from microseconds.
            #[inline]
            pub const fn from_us(us: u64) -> Self {
                Self(us * 1_000_000)
            }

            /// Creates a value from milliseconds.
            #[inline]
            pub const fn from_ms(ms: u64) -> Self {
                Self(ms * 1_000_000_000)
            }

            /// Creates a value from seconds.
            #[inline]
            pub const fn from_secs(s: u64) -> Self {
                Self(s * 1_000_000_000_000)
            }

            /// Creates a value from a floating-point nanosecond count,
            /// rounding to the nearest picosecond.
            ///
            /// # Panics
            ///
            /// Panics if `ns` is negative or not finite.
            #[inline]
            pub fn from_ns_f64(ns: f64) -> Self {
                assert!(
                    ns.is_finite() && ns >= 0.0,
                    "time must be finite and non-negative"
                );
                Self((ns * 1_000.0).round() as u64)
            }

            /// Returns the value in picoseconds.
            #[inline]
            pub const fn as_ps(self) -> u64 {
                self.0
            }

            /// Returns the value in whole nanoseconds (truncating).
            #[inline]
            pub const fn as_ns(self) -> u64 {
                self.0 / 1_000
            }

            /// Returns the value in nanoseconds as a float.
            #[inline]
            pub fn as_ns_f64(self) -> f64 {
                self.0 as f64 / 1_000.0
            }

            /// Returns the value in microseconds as a float.
            #[inline]
            pub fn as_us_f64(self) -> f64 {
                self.0 as f64 / 1_000_000.0
            }

            /// Returns the value in milliseconds as a float.
            #[inline]
            pub fn as_ms_f64(self) -> f64 {
                self.0 as f64 / 1_000_000_000.0
            }

            /// Returns the value in seconds as a float.
            #[inline]
            pub fn as_secs_f64(self) -> f64 {
                self.0 as f64 / 1_000_000_000_000.0
            }

            /// Returns `true` if this is the zero value.
            #[inline]
            pub const fn is_zero(self) -> bool {
                self.0 == 0
            }

            /// Saturating addition of a picosecond count.
            #[inline]
            pub const fn saturating_add_ps(self, ps: u64) -> Self {
                Self(self.0.saturating_add(ps))
            }
        }
    };
}

time_ctors!(Time);
time_ctors!(Duration);

impl Time {
    /// Returns the span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    #[inline]
    pub fn since(self, earlier: Time) -> Duration {
        assert!(
            earlier.0 <= self.0,
            "`earlier` ({earlier}) is after `self` ({self})"
        );
        Duration(self.0 - earlier.0)
    }

    /// Returns the span from `earlier` to `self`, or [`Duration::ZERO`] if
    /// `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

/// `x * 1e12 / per_sec` picoseconds, saturating at `u64::MAX`. When the
/// product fits in a `u64` the quotient is computed there; it equals the
/// `u128` quotient exactly, so only an overflowing product pays for the
/// wide division.
#[inline]
fn scale_ps(x: u64, per_sec: u64) -> u64 {
    match x.checked_mul(1_000_000_000_000) {
        Some(ps) => ps / per_sec,
        None => {
            let ps = (x as u128 * 1_000_000_000_000u128) / per_sec as u128;
            ps.min(u64::MAX as u128) as u64
        }
    }
}

impl Duration {
    /// Computes a duration for transferring `bytes` over a link of
    /// `bytes_per_sec` bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is zero.
    #[inline]
    pub fn from_bytes_at_bandwidth(bytes: u64, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "bandwidth must be positive");
        Duration(scale_ps(bytes, bytes_per_sec))
    }

    /// Computes a duration for `cycles` cycles at `hz` clock frequency.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero.
    #[inline]
    pub fn from_cycles(cycles: u64, hz: u64) -> Self {
        assert!(hz > 0, "clock frequency must be positive");
        Duration(scale_ps(cycles, hz))
    }

    /// Multiplies by a float scale factor, rounding to picoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is negative or not finite.
    #[inline]
    pub fn mul_f64(self, scale: f64) -> Self {
        assert!(
            scale.is_finite() && scale >= 0.0,
            "scale must be finite and non-negative"
        );
        Duration((self.0 as f64 * scale).round() as u64)
    }

    /// Checked subtraction; returns `None` on underflow.
    #[inline]
    pub fn checked_sub(self, rhs: Duration) -> Option<Duration> {
        self.0.checked_sub(rhs.0).map(Duration)
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Duration) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Time) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Mul<Duration> for u64 {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: Duration) -> Duration {
        Duration(self * rhs.0)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Div<Duration> for Duration {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Duration) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl Rem<Duration> for Duration {
    type Output = Duration;
    #[inline]
    fn rem(self, rhs: Duration) -> Duration {
        Duration(self.0 % rhs.0)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, Add::add)
    }
}

fn fmt_ps(ps: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ps == 0 {
        return write!(f, "0s");
    }
    let (val, unit) = if ps >= 1_000_000_000_000 {
        (ps as f64 / 1e12, "s")
    } else if ps >= 1_000_000_000 {
        (ps as f64 / 1e9, "ms")
    } else if ps >= 1_000_000 {
        (ps as f64 / 1e6, "us")
    } else if ps >= 1_000 {
        (ps as f64 / 1e3, "ns")
    } else {
        (ps as f64, "ps")
    };
    write!(f, "{val:.3}{unit}")
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ps(self.0, f)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ps(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The conversion as it was before the `u64` fast path.
    fn wide_ps(x: u64, per_sec: u64) -> u64 {
        let ps = (x as u128 * 1_000_000_000_000u128) / per_sec as u128;
        ps.min(u64::MAX as u128) as u64
    }

    #[test]
    fn fast_conversions_match_the_wide_formula() {
        let mut rng = crate::rng::SimRng::seed_from(0x71AE);
        let edge = u64::MAX / 1_000_000_000_000;
        let mut xs: Vec<u64> = vec![0, 1, edge - 1, edge, edge + 1, edge + 2, u64::MAX];
        let mut rates: Vec<u64> = vec![1, 2, 3, 7, 1_000_000_000_000, u64::MAX];
        for _ in 0..2000 {
            // spread draws over every magnitude, not just the top bits
            let bits = rng.gen_range_u64(0, 64) as u32;
            xs.push(rng.next_u64() >> bits);
            let bits = rng.gen_range_u64(0, 64) as u32;
            rates.push((rng.next_u64() >> bits).max(1));
        }
        for &x in &xs {
            for &r in rates.iter().step_by(37).chain(&rates[..6]) {
                let want = wide_ps(x, r);
                assert_eq!(scale_ps(x, r), want, "x={x} per_sec={r}");
                assert_eq!(Duration::from_bytes_at_bandwidth(x, r).as_ps(), want);
                assert_eq!(Duration::from_cycles(x, r).as_ps(), want);
            }
        }
    }

    #[test]
    fn constructors_agree_across_units() {
        assert_eq!(Time::from_ns(1), Time::from_ps(1_000));
        assert_eq!(Time::from_us(1), Time::from_ns(1_000));
        assert_eq!(Time::from_ms(1), Time::from_us(1_000));
        assert_eq!(Time::from_secs(1), Time::from_ms(1_000));
        assert_eq!(Duration::from_secs(2).as_ps(), 2_000_000_000_000);
    }

    #[test]
    fn time_duration_arithmetic() {
        let t0 = Time::from_ns(100);
        let d = Duration::from_ns(40);
        assert_eq!(t0 + d, Time::from_ns(140));
        assert_eq!((t0 + d) - t0, d);
        assert_eq!((t0 + d) - d, t0);
        let mut t = t0;
        t += d;
        assert_eq!(t, Time::from_ns(140));
    }

    #[test]
    fn since_and_saturating_since() {
        let a = Time::from_ns(10);
        let b = Time::from_ns(25);
        assert_eq!(b.since(a), Duration::from_ns(15));
        assert_eq!(a.saturating_since(b), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "is after")]
    fn since_panics_on_inverted_order() {
        let _ = Time::from_ns(1).since(Time::from_ns(2));
    }

    #[test]
    fn bandwidth_duration() {
        // 1 KiB at 1 GiB/s = ~0.954 us
        let d = Duration::from_bytes_at_bandwidth(1024, 1 << 30);
        assert_eq!(d.as_ps(), 953_674);
        // 400 MB/s ICAP: 1 MB takes 2.5 ms
        let d = Duration::from_bytes_at_bandwidth(1_000_000, 400_000_000);
        assert_eq!(d.as_ms_f64(), 2.5);
    }

    #[test]
    fn cycles_duration() {
        // 10 cycles at 1 GHz = 10 ns
        assert_eq!(
            Duration::from_cycles(10, 1_000_000_000),
            Duration::from_ns(10)
        );
        // 3 cycles at 2 GHz = 1.5 ns
        assert_eq!(Duration::from_cycles(3, 2_000_000_000).as_ps(), 1_500);
    }

    #[test]
    fn duration_scalar_ops() {
        let d = Duration::from_ns(10);
        assert_eq!(d * 3, Duration::from_ns(30));
        assert_eq!(3 * d, Duration::from_ns(30));
        assert_eq!(d / 2, Duration::from_ns(5));
        assert_eq!(Duration::from_ns(30) / d, 3.0);
        assert_eq!(d.mul_f64(2.5), Duration::from_ns(25));
        assert_eq!(
            Duration::from_ns(7) % Duration::from_ns(3),
            Duration::from_ns(1)
        );
    }

    #[test]
    fn duration_sum_and_checked() {
        let total: Duration = (1..=4).map(Duration::from_ns).sum();
        assert_eq!(total, Duration::from_ns(10));
        assert_eq!(Duration::from_ns(5).checked_sub(Duration::from_ns(7)), None);
        assert_eq!(
            Duration::from_ns(7).saturating_sub(Duration::from_ns(9)),
            Duration::ZERO
        );
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(Time::ZERO.to_string(), "0s");
        assert_eq!(Time::from_ps(500).to_string(), "500.000ps");
        assert_eq!(Duration::from_ns(1500).to_string(), "1.500us");
        assert_eq!(Duration::from_ms(12).to_string(), "12.000ms");
        assert_eq!(Duration::from_secs(3).to_string(), "3.000s");
    }

    #[test]
    fn from_ns_f64_rounds() {
        assert_eq!(Duration::from_ns_f64(0.0004).as_ps(), 0);
        assert_eq!(Duration::from_ns_f64(0.0006).as_ps(), 1);
        assert_eq!(Duration::from_ns_f64(2.5).as_ps(), 2_500);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn from_ns_f64_rejects_negative() {
        let _ = Duration::from_ns_f64(-1.0);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Time::from_ns(1) < Time::from_ns(2));
        assert!(Duration::from_us(1) > Duration::from_ns(999));
    }
}
