//! Analysis-domain continuous time.

use core::cmp::Ordering;
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A duration (or instant offset) in seconds, stored as an `f64`.
///
/// `Seconds` is the time type of the *analytical* side of the suite: message
/// periods, transmission times, token walk times, TTRT values. The
/// simulator uses the exact integer [`crate::SimTime`] instead; convert with
/// [`Seconds::to_sim_duration`].
///
/// All ordinary arithmetic between durations is defined, as well as scaling
/// by dimensionless `f64` factors and the dimensionless ratio
/// `Seconds / Seconds`.
///
/// # Examples
///
/// ```
/// use ringrt_units::Seconds;
///
/// let period = Seconds::from_millis(100.0);
/// let cost = Seconds::from_micros(250.0);
/// let utilization = cost / period;
/// assert!((utilization - 0.0025).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Seconds(f64);

impl Seconds {
    /// The zero duration.
    pub const ZERO: Seconds = Seconds(0.0);

    /// Creates a duration from a raw number of seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN. Infinite and negative values are allowed
    /// (negative durations arise transiently in slack computations).
    #[must_use]
    pub fn new(secs: f64) -> Self {
        assert!(!secs.is_nan(), "Seconds cannot be NaN");
        Seconds(secs)
    }

    /// Creates a duration from milliseconds.
    #[must_use]
    pub fn from_millis(ms: f64) -> Self {
        Self::new(ms * 1e-3)
    }

    /// Creates a duration from microseconds.
    #[must_use]
    pub fn from_micros(us: f64) -> Self {
        Self::new(us * 1e-6)
    }

    /// Creates a duration from nanoseconds.
    #[must_use]
    pub fn from_nanos(ns: f64) -> Self {
        Self::new(ns * 1e-9)
    }

    /// Returns the raw value in seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0
    }

    /// Returns the value in milliseconds.
    #[must_use]
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the value in microseconds.
    #[must_use]
    pub fn as_micros(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns the value in nanoseconds.
    #[must_use]
    pub fn as_nanos(self) -> f64 {
        self.0 * 1e9
    }

    /// Returns `true` if the duration is exactly zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Returns `true` if the duration is finite (not ±∞).
    #[must_use]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Returns the smaller of two durations.
    #[must_use]
    pub fn min(self, other: Seconds) -> Seconds {
        Seconds(self.0.min(other.0))
    }

    /// Returns the larger of two durations.
    #[must_use]
    pub fn max(self, other: Seconds) -> Seconds {
        Seconds(self.0.max(other.0))
    }

    /// Returns the absolute value of the duration.
    #[must_use]
    pub fn abs(self) -> Seconds {
        Seconds(self.0.abs())
    }

    /// Returns the square root of the duration's numeric value, as a
    /// duration.
    ///
    /// Dimensionally this is `sqrt(T² )` only when the argument is itself a
    /// product of durations; it exists for the paper's TTRT heuristic
    /// `TTRT = √(Θ'·P_min)`, computed as
    /// `(theta * p_min.as_secs_f64()).sqrt_value()`.
    #[must_use]
    pub fn sqrt_value(self) -> Seconds {
        Seconds(self.0.sqrt())
    }

    /// Total ordering that treats `Seconds` as plain finite numbers.
    ///
    /// # Panics
    ///
    /// Never panics: construction forbids NaN.
    #[must_use]
    pub fn total_cmp(&self, other: &Seconds) -> Ordering {
        self.0.total_cmp(&other.0)
    }

    /// Converts into an exact simulator duration, rounding to the nearest
    /// picosecond.
    ///
    /// # Panics
    ///
    /// Panics if the value is negative, non-finite, or overflows the
    /// picosecond range (~1.8e7 seconds).
    #[must_use]
    pub fn to_sim_duration(self) -> crate::SimDuration {
        crate::SimDuration::from_seconds(self)
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        let a = v.abs();
        if a == 0.0 {
            write!(f, "0 s")
        } else if a >= 1.0 {
            write!(f, "{v:.6} s")
        } else if a >= 1e-3 {
            write!(f, "{:.6} ms", v * 1e3)
        } else if a >= 1e-6 {
            write!(f, "{:.6} µs", v * 1e6)
        } else {
            write!(f, "{:.3} ns", v * 1e9)
        }
    }
}

impl Add for Seconds {
    type Output = Seconds;
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds::new(self.0 + rhs.0)
    }
}

impl AddAssign for Seconds {
    fn add_assign(&mut self, rhs: Seconds) {
        *self = *self + rhs;
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds::new(self.0 - rhs.0)
    }
}

impl SubAssign for Seconds {
    fn sub_assign(&mut self, rhs: Seconds) {
        *self = *self - rhs;
    }
}

impl Neg for Seconds {
    type Output = Seconds;
    fn neg(self) -> Seconds {
        Seconds::new(-self.0)
    }
}

impl Mul<f64> for Seconds {
    type Output = Seconds;
    fn mul(self, rhs: f64) -> Seconds {
        Seconds::new(self.0 * rhs)
    }
}

impl Mul<Seconds> for f64 {
    type Output = Seconds;
    fn mul(self, rhs: Seconds) -> Seconds {
        Seconds::new(self * rhs.0)
    }
}

impl Div<f64> for Seconds {
    type Output = Seconds;
    fn div(self, rhs: f64) -> Seconds {
        Seconds::new(self.0 / rhs)
    }
}

/// The dimensionless ratio of two durations.
impl Div<Seconds> for Seconds {
    type Output = f64;
    fn div(self, rhs: Seconds) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Seconds {
    fn sum<I: Iterator<Item = Seconds>>(iter: I) -> Seconds {
        iter.fold(Seconds::ZERO, Add::add)
    }
}

impl<'a> Sum<&'a Seconds> for Seconds {
    fn sum<I: Iterator<Item = &'a Seconds>>(iter: I) -> Seconds {
        iter.copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Seconds::from_millis(1.0), Seconds::new(1e-3));
        assert_eq!(Seconds::from_micros(1.0), Seconds::new(1e-6));
        assert_eq!(Seconds::from_nanos(1.0), Seconds::new(1e-9));
    }

    #[test]
    fn accessors_roundtrip() {
        let t = Seconds::new(0.125);
        assert_eq!(t.as_millis(), 125.0);
        assert_eq!(t.as_micros(), 125_000.0);
        assert_eq!(t.as_nanos(), 125_000_000.0);
    }

    #[test]
    fn arithmetic() {
        let a = Seconds::new(1.5);
        let b = Seconds::new(0.5);
        assert_eq!(a + b, Seconds::new(2.0));
        assert_eq!(a - b, Seconds::new(1.0));
        assert_eq!(a * 2.0, Seconds::new(3.0));
        assert_eq!(2.0 * a, Seconds::new(3.0));
        assert_eq!(a / 3.0, Seconds::new(0.5));
        assert_eq!(a / b, 3.0);
        assert_eq!(-b, Seconds::new(-0.5));
    }

    #[test]
    fn assign_ops() {
        let mut t = Seconds::new(1.0);
        t += Seconds::new(0.5);
        assert_eq!(t, Seconds::new(1.5));
        t -= Seconds::new(1.0);
        assert_eq!(t, Seconds::new(0.5));
    }

    #[test]
    fn min_max_abs() {
        let a = Seconds::new(-2.0);
        let b = Seconds::new(1.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(a.abs(), Seconds::new(2.0));
    }

    #[test]
    fn sum_iterator() {
        let parts = [Seconds::new(0.25); 4];
        let total: Seconds = parts.iter().sum();
        assert_eq!(total, Seconds::new(1.0));
        let total2: Seconds = parts.into_iter().sum();
        assert_eq!(total2, Seconds::new(1.0));
    }

    #[test]
    fn display_scales() {
        assert_eq!(format!("{}", Seconds::ZERO), "0 s");
        assert!(format!("{}", Seconds::new(2.5)).ends_with(" s"));
        assert!(format!("{}", Seconds::from_millis(2.5)).ends_with(" ms"));
        assert!(format!("{}", Seconds::from_micros(2.5)).ends_with(" µs"));
        assert!(format!("{}", Seconds::from_nanos(2.5)).ends_with(" ns"));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = Seconds::new(f64::NAN);
    }

    #[test]
    fn sqrt_value_for_ttrt_heuristic() {
        // √(Θ'·P) with Θ' = 100 µs and P = 100 ms is √(1e-5) s ≈ 3.162 ms.
        let theta = Seconds::from_micros(100.0);
        let p = Seconds::from_millis(100.0);
        let ttrt = Seconds::new(theta.as_secs_f64() * p.as_secs_f64()).sqrt_value();
        assert!((ttrt.as_millis() - 3.1623).abs() < 1e-3);
    }

    #[test]
    fn total_cmp_is_total_on_finite() {
        let xs = [
            Seconds::new(-1.0),
            Seconds::ZERO,
            Seconds::new(1.0),
            Seconds::new(f64::INFINITY),
        ];
        for w in xs.windows(2) {
            assert_eq!(w[0].total_cmp(&w[1]), Ordering::Less);
        }
    }
}
