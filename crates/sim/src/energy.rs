//! Energy and power accounting.
//!
//! ECOSCALE's central argument is energetic: exascale is gated by power,
//! so mechanisms in the reproduction return their energy cost as an
//! [`Energy`], a newtype over joules, which callers sum (the core system
//! keeps one running total). [`Power`] is a newtype over watts. Both are
//! `f64`-backed — the experiments compare relative magnitudes, and all
//! arithmetic is performed in a deterministic order.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub};

use crate::snap::{Persist, RestoreError, SnapIo};
use crate::time::Duration;

/// An amount of energy, in joules.
///
/// # Example
///
/// ```
/// use ecoscale_sim::Energy;
///
/// let dram_bit = Energy::from_pj(20.0);
/// let cacheline = dram_bit * (64.0 * 8.0);
/// assert!((cacheline.as_nj() - 10.24).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy(f64);

/// A rate of energy use, in watts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Power(f64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy from joules.
    ///
    /// # Panics
    ///
    /// Panics if `j` is negative or not finite.
    #[inline]
    pub fn from_joules(j: f64) -> Energy {
        assert!(
            j.is_finite() && j >= 0.0,
            "energy must be finite and non-negative"
        );
        Energy(j)
    }

    /// Creates an energy from millijoules.
    #[inline]
    pub fn from_mj(mj: f64) -> Energy {
        Energy::from_joules(mj * 1e-3)
    }

    /// Creates an energy from microjoules.
    #[inline]
    pub fn from_uj(uj: f64) -> Energy {
        Energy::from_joules(uj * 1e-6)
    }

    /// Creates an energy from nanojoules.
    #[inline]
    pub fn from_nj(nj: f64) -> Energy {
        Energy::from_joules(nj * 1e-9)
    }

    /// Creates an energy from picojoules.
    #[inline]
    pub fn from_pj(pj: f64) -> Energy {
        Energy::from_joules(pj * 1e-12)
    }

    /// Returns the energy in joules.
    #[inline]
    pub fn as_joules(self) -> f64 {
        self.0
    }

    /// Returns the energy in microjoules.
    #[inline]
    pub fn as_uj(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns the energy in nanojoules.
    #[inline]
    pub fn as_nj(self) -> f64 {
        self.0 * 1e9
    }

    /// Returns the energy in picojoules.
    #[inline]
    pub fn as_pj(self) -> f64 {
        self.0 * 1e12
    }

    /// Average power over `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    #[inline]
    pub fn over(self, d: Duration) -> Power {
        assert!(!d.is_zero(), "cannot average energy over a zero duration");
        Power(self.0 / d.as_secs_f64())
    }
}

impl Power {
    /// Zero power.
    pub const ZERO: Power = Power(0.0);

    /// Creates a power from watts.
    ///
    /// # Panics
    ///
    /// Panics if `w` is negative or not finite.
    #[inline]
    pub fn from_watts(w: f64) -> Power {
        assert!(
            w.is_finite() && w >= 0.0,
            "power must be finite and non-negative"
        );
        Power(w)
    }

    /// Creates a power from megawatts.
    #[inline]
    pub fn from_megawatts(mw: f64) -> Power {
        Power::from_watts(mw * 1e6)
    }

    /// Returns the power in watts.
    #[inline]
    pub fn as_watts(self) -> f64 {
        self.0
    }

    /// Returns the power in megawatts.
    #[inline]
    pub fn as_megawatts(self) -> f64 {
        self.0 * 1e-6
    }

    /// Energy spent sustaining this power for `d`.
    #[inline]
    pub fn for_duration(self, d: Duration) -> Energy {
        Energy(self.0 * d.as_secs_f64())
    }
}

impl Add for Energy {
    type Output = Energy;
    #[inline]
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    #[inline]
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    #[inline]
    fn sub(self, rhs: Energy) -> Energy {
        Energy((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: f64) -> Energy {
        Energy(self.0 * rhs)
    }
}

impl Mul<Energy> for f64 {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: Energy) -> Energy {
        Energy(self * rhs.0)
    }
}

impl Div<f64> for Energy {
    type Output = Energy;
    #[inline]
    fn div(self, rhs: f64) -> Energy {
        Energy(self.0 / rhs)
    }
}

impl Div<Energy> for Energy {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Energy) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, Add::add)
    }
}

impl Add for Power {
    type Output = Power;
    #[inline]
    fn add(self, rhs: Power) -> Power {
        Power(self.0 + rhs.0)
    }
}

impl AddAssign for Power {
    #[inline]
    fn add_assign(&mut self, rhs: Power) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for Power {
    type Output = Power;
    #[inline]
    fn mul(self, rhs: f64) -> Power {
        Power(self.0 * rhs)
    }
}

impl Sum for Power {
    fn sum<I: Iterator<Item = Power>>(iter: I) -> Power {
        iter.fold(Power::ZERO, Add::add)
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let j = self.0;
        if j == 0.0 {
            write!(f, "0J")
        } else if j >= 1.0 {
            write!(f, "{j:.3}J")
        } else if j >= 1e-3 {
            write!(f, "{:.3}mJ", j * 1e3)
        } else if j >= 1e-6 {
            write!(f, "{:.3}uJ", j * 1e6)
        } else if j >= 1e-9 {
            write!(f, "{:.3}nJ", j * 1e9)
        } else {
            write!(f, "{:.3}pJ", j * 1e12)
        }
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.0;
        if w == 0.0 {
            write!(f, "0W")
        } else if w >= 1e6 {
            write!(f, "{:.3}MW", w * 1e-6)
        } else if w >= 1e3 {
            write!(f, "{:.3}kW", w * 1e-3)
        } else if w >= 1.0 {
            write!(f, "{w:.3}W")
        } else {
            write!(f, "{:.3}mW", w * 1e3)
        }
    }
}

impl Persist for Energy {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.f64(&mut self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[test]
    fn unit_conversions_roundtrip() {
        let e = Energy::from_pj(1234.0);
        assert!((e.as_pj() - 1234.0).abs() < 1e-6);
        assert!((e.as_nj() - 1.234).abs() < 1e-9);
        assert!((Energy::from_mj(2.0).as_joules() - 2e-3).abs() < 1e-15);
        assert!((Energy::from_uj(2.0).as_joules() - 2e-6).abs() < 1e-15);
    }

    #[test]
    fn power_energy_duality() {
        let p = Power::from_watts(10.0);
        let e = p.for_duration(Duration::from_ms(100));
        assert!((e.as_joules() - 1.0).abs() < 1e-12);
        let back = e.over(Duration::from_ms(100));
        assert!((back.as_watts() - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "zero duration")]
    fn power_over_zero_duration_panics() {
        let _ = Energy::from_joules(1.0).over(Duration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Energy::from_nj(3.0);
        let b = Energy::from_nj(1.0);
        assert!(((a + b).as_nj() - 4.0).abs() < 1e-9);
        assert!(((a - b).as_nj() - 2.0).abs() < 1e-9);
        // subtraction clamps at zero rather than going negative
        assert_eq!((b - a).as_joules(), 0.0);
        assert!(((a * 2.0).as_nj() - 6.0).abs() < 1e-9);
        assert!(((a / 3.0).as_nj() - 1.0).abs() < 1e-9);
        assert!((a / b - 3.0).abs() < 1e-9);
        let total: Energy = vec![a, b, b].into_iter().sum();
        assert!((total.as_nj() - 5.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_energy_rejected() {
        let _ = Energy::from_joules(-1.0);
    }

    #[test]
    fn display_units() {
        assert_eq!(Energy::ZERO.to_string(), "0J");
        assert_eq!(Energy::from_pj(5.0).to_string(), "5.000pJ");
        assert_eq!(Energy::from_nj(5.0).to_string(), "5.000nJ");
        assert_eq!(Energy::from_joules(1.5).to_string(), "1.500J");
        assert_eq!(Power::from_megawatts(1000.0).to_string(), "1000.000MW");
        assert_eq!(Power::from_watts(0.5).to_string(), "500.000mW");
    }

    #[test]
    fn exascale_extrapolation_sanity() {
        // The paper's intro claim: ~1 GW to sustain an exaflop by scaling
        // Tianhe-2 (33.86 PFlops @ 17.8 MW => ~526 MW/EFlop sustained,
        // ~1 GW with cooling/overheads).
        let tianhe_flops = 33.86e15;
        let tianhe_power = Power::from_megawatts(17.8);
        let per_exaflop = tianhe_power.as_watts() * (1e18 / tianhe_flops);
        assert!(per_exaflop > 4e8 && per_exaflop < 7e8);
    }
}
