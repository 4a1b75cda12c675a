//! Exact integer time for the discrete-event simulator.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Mul, Sub, SubAssign};

use crate::Seconds;

/// Picoseconds per second.
pub const PICOS_PER_SEC: u64 = 1_000_000_000_000;

/// An absolute instant on the simulator timeline, in integer picoseconds.
///
/// Discrete-event simulation demands an exactly ordered, drift-free clock so
/// that runs are reproducible and event ties can be broken deterministically.
/// One picosecond resolves a single bit time at 1 Tbps — far finer than the
/// 1–1000 Mbps rings simulated here — while `u64` picoseconds still span
/// about 213 days of simulated time.
///
/// Instants and durations are distinct types: `SimTime − SimTime =`
/// [`SimDuration`], `SimTime + SimDuration = SimTime`, and durations support
/// scaling. Instants deliberately do not support addition with each other.
///
/// # Examples
///
/// ```
/// use ringrt_units::{SimDuration, SimTime};
///
/// let t0 = SimTime::ZERO;
/// let t1 = t0 + SimDuration::from_picos(250);
/// assert_eq!(t1 - t0, SimDuration::from_picos(250));
/// assert!(t1 > t0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw picoseconds since the epoch.
    #[must_use]
    pub const fn from_picos(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Raw picoseconds since the epoch.
    #[must_use]
    pub const fn as_picos(self) -> u64 {
        self.0
    }

    /// The instant as (lossy) floating-point seconds, for reporting.
    #[must_use]
    pub fn as_seconds(self) -> Seconds {
        Seconds::new(self.0 as f64 / PICOS_PER_SEC as f64)
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    #[must_use]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: earlier instant is later than self"),
        )
    }

    /// Duration since `earlier`, or zero if `earlier` is in the future.
    #[must_use]
    pub const fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked advance; `None` on overflow of the timeline.
    #[must_use]
    pub const fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        match self.0.checked_add(d.0) {
            Some(v) => Some(SimTime(v)),
            None => None,
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_seconds())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("simulation time overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics if the result would precede the epoch.
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("simulation time underflow (before epoch)"),
        )
    }
}

/// A span of simulated time, in integer picoseconds.
///
/// See [`SimTime`] for the rationale behind integer time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw picoseconds.
    #[must_use]
    pub const fn from_picos(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Creates a duration from whole nanoseconds.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns * 1000)
    }

    /// Creates a duration from whole microseconds.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000_000)
    }

    /// Creates a duration from whole milliseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000_000)
    }

    /// Converts from analysis-domain seconds, rounding to the nearest
    /// picosecond; `None` if `secs` is negative or too large for the
    /// picosecond timeline (infinity included).
    #[must_use]
    pub fn checked_from_seconds(secs: Seconds) -> Option<Self> {
        let v = secs.as_secs_f64();
        let ps = v * PICOS_PER_SEC as f64;
        (v >= 0.0 && ps <= u64::MAX as f64).then(|| SimDuration(ps.round() as u64))
    }

    /// Converts from analysis-domain seconds, rounding to the nearest
    /// picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, non-finite, or too large for the
    /// picosecond timeline (see [`SimDuration::checked_from_seconds`]).
    #[must_use]
    pub fn from_seconds(secs: Seconds) -> Self {
        Self::checked_from_seconds(secs).unwrap_or_else(|| {
            panic!(
                "simulator durations must be non-negative and fit the picosecond timeline, got {} s",
                secs.as_secs_f64()
            )
        })
    }

    /// Raw picoseconds.
    #[must_use]
    pub const fn as_picos(self) -> u64 {
        self.0
    }

    /// The duration as (lossy) floating-point seconds.
    #[must_use]
    pub fn as_seconds(self) -> Seconds {
        Seconds::new(self.0 as f64 / PICOS_PER_SEC as f64)
    }

    /// Returns `true` if the duration is zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: `max(self − rhs, 0)`.
    #[must_use]
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Returns the smaller of two durations.
    #[must_use]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Returns the larger of two durations.
    #[must_use]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_seconds())
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics on underflow; use [`SimDuration::saturating_sub`] when the
    /// operands may cross.
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("duration underflow"))
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
        SimDuration(self.0.checked_mul(rhs).expect("duration overflow"))
    }
}

impl Mul<SimDuration> for u64 {
    type Output = SimDuration;
    fn mul(self, rhs: SimDuration) -> SimDuration {
        rhs * self
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_duration_algebra() {
        let t0 = SimTime::from_picos(100);
        let d = SimDuration::from_picos(50);
        assert_eq!(t0 + d, SimTime::from_picos(150));
        assert_eq!((t0 + d) - t0, d);
        assert_eq!(t0 - d, SimTime::from_picos(50));
        let mut t = t0;
        t += d;
        assert_eq!(t, SimTime::from_picos(150));
    }

    #[test]
    fn duration_constructors() {
        assert_eq!(SimDuration::from_nanos(1).as_picos(), 1_000);
        assert_eq!(SimDuration::from_micros(1).as_picos(), 1_000_000);
        assert_eq!(SimDuration::from_millis(1).as_picos(), 1_000_000_000);
    }

    #[test]
    fn seconds_roundtrip() {
        let s = Seconds::from_micros(156.0);
        let d = SimDuration::from_seconds(s);
        assert_eq!(d.as_picos(), 156_000_000);
        assert!((d.as_seconds().as_secs_f64() - s.as_secs_f64()).abs() < 1e-15);
    }

    #[test]
    fn rounding_is_nearest() {
        // 0.4 ps rounds down, 0.6 ps rounds up.
        assert_eq!(
            SimDuration::from_seconds(Seconds::new(0.4e-12)).as_picos(),
            0
        );
        assert_eq!(
            SimDuration::from_seconds(Seconds::new(0.6e-12)).as_picos(),
            1
        );
    }

    #[test]
    fn saturating_ops() {
        let a = SimDuration::from_picos(5);
        let b = SimDuration::from_picos(9);
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
        assert_eq!(b.saturating_sub(a), SimDuration::from_picos(4));
        let t = SimTime::from_picos(3);
        assert_eq!(
            t.saturating_duration_since(SimTime::from_picos(10)),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "later than self")]
    fn duration_since_panics_backwards() {
        let _ = SimTime::ZERO.duration_since(SimTime::from_picos(1));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_seconds_rejected() {
        let _ = SimDuration::from_seconds(Seconds::new(-1.0));
    }

    #[test]
    fn spans_the_timeline_cannot_hold_are_refused() {
        let max = u64::MAX as f64 / PICOS_PER_SEC as f64;
        assert!(SimDuration::checked_from_seconds(Seconds::new(max / 2.0)).is_some());
        for secs in [-1.0, f64::INFINITY, max * 2.0, 1e300] {
            assert!(
                SimDuration::checked_from_seconds(Seconds::new(secs)).is_none(),
                "{secs}"
            );
        }
    }

    #[test]
    fn scaling_and_sum() {
        let d = SimDuration::from_picos(7);
        assert_eq!(d * 3, SimDuration::from_picos(21));
        assert_eq!(3 * d, SimDuration::from_picos(21));
        let total: SimDuration = [d, d, d].into_iter().sum();
        assert_eq!(total, SimDuration::from_picos(21));
    }

    #[test]
    fn checked_add_overflow() {
        assert!(SimTime::MAX
            .checked_add(SimDuration::from_picos(1))
            .is_none());
        assert_eq!(
            SimTime::ZERO.checked_add(SimDuration::from_picos(1)),
            Some(SimTime::from_picos(1))
        );
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![
            SimTime::from_picos(5),
            SimTime::ZERO,
            SimTime::from_picos(3),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                SimTime::ZERO,
                SimTime::from_picos(3),
                SimTime::from_picos(5)
            ]
        );
    }
}
