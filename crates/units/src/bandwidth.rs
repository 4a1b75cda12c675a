//! Transmission rates.

use core::fmt;

use crate::{Bits, Seconds};

/// A transmission rate in bits per second.
///
/// The paper sweeps the ring bandwidth `BW` from 1 to 1000 Mbps; all
/// conversions between data sizes and transmission times go through this
/// type, e.g. `C_i = C_i^b / BW` (paper eq. 2).
///
/// # Examples
///
/// ```
/// use ringrt_units::{Bandwidth, Bits};
///
/// let bw = Bandwidth::from_mbps(100.0);
/// assert_eq!(bw.as_bps(), 100_000_000.0);
/// // One FDDI-style 112-bit overhead block at 100 Mbps takes 1.12 µs.
/// let t = bw.transmission_time(Bits::new(112));
/// assert!((t.as_micros() - 1.12).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth(f64);

/// A rate that is not a finite, strictly positive number of bits per
/// second — after unit scaling, so `1e308` Mbps is rejected too.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvalidBandwidth {
    /// The rejected rate in bits per second.
    pub bps: f64,
}

impl fmt::Display for InvalidBandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bandwidth must be finite and positive, got {} bit/s",
            self.bps
        )
    }
}

impl std::error::Error for InvalidBandwidth {}

impl Bandwidth {
    /// Creates a rate from bits per second.
    ///
    /// # Errors
    ///
    /// [`InvalidBandwidth`] if `bps` is not a finite, strictly positive
    /// number.
    pub fn try_from_bps(bps: f64) -> Result<Self, InvalidBandwidth> {
        if bps.is_finite() && bps > 0.0 {
            Ok(Bandwidth(bps))
        } else {
            Err(InvalidBandwidth { bps })
        }
    }

    /// Creates a rate from megabits per second (10⁶ bits/s).
    ///
    /// # Errors
    ///
    /// [`InvalidBandwidth`] if the rate in bits per second is not a
    /// finite, strictly positive number.
    pub fn try_from_mbps(mbps: f64) -> Result<Self, InvalidBandwidth> {
        Self::try_from_bps(mbps * 1e6)
    }

    /// Creates a rate from bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is not a finite, strictly positive number.
    #[must_use]
    pub fn from_bps(bps: f64) -> Self {
        Self::try_from_bps(bps).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a rate from kilobits per second (10³ bits/s).
    #[must_use]
    pub fn from_kbps(kbps: f64) -> Self {
        Self::from_bps(kbps * 1e3)
    }

    /// Creates a rate from megabits per second (10⁶ bits/s).
    ///
    /// # Panics
    ///
    /// Panics if the rate in bits per second is not a finite, strictly
    /// positive number.
    #[must_use]
    pub fn from_mbps(mbps: f64) -> Self {
        Self::from_bps(mbps * 1e6)
    }

    /// Creates a rate from gigabits per second (10⁹ bits/s).
    #[must_use]
    pub fn from_gbps(gbps: f64) -> Self {
        Self::from_bps(gbps * 1e9)
    }

    /// Returns the rate in bits per second.
    #[must_use]
    pub fn as_bps(self) -> f64 {
        self.0
    }

    /// Returns the rate in megabits per second.
    #[must_use]
    pub fn as_mbps(self) -> f64 {
        self.0 / 1e6
    }

    /// Time to put one bit on the medium.
    #[must_use]
    pub fn bit_time(self) -> Seconds {
        Seconds::new(1.0 / self.0)
    }

    /// Time to transmit `size` bits at this rate (paper eq. 2).
    #[must_use]
    pub fn transmission_time(self, size: Bits) -> Seconds {
        Seconds::new(size.as_f64() / self.0)
    }

    /// Number of whole bits transmittable within `window`
    /// (used by the simulator to size residual frames).
    #[must_use]
    pub fn bits_in(self, window: Seconds) -> Bits {
        let raw = window.as_secs_f64().max(0.0) * self.0;
        // Tolerate float error when the window is an exact bit multiple:
        // 100 µs at 1 Mbps must be 100 bits, not 99.
        let rounded = raw.round();
        let bits = if (raw - rounded).abs() < 1e-9 * rounded.max(1.0) {
            rounded
        } else {
            raw.floor()
        };
        Bits::new(bits as u64)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.3} Gbps", self.0 / 1e9)
        } else if self.0 >= 1e6 {
            write!(f, "{:.3} Mbps", self.0 / 1e6)
        } else if self.0 >= 1e3 {
            write!(f, "{:.3} kbps", self.0 / 1e3)
        } else {
            write!(f, "{:.3} bps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale() {
        assert_eq!(Bandwidth::from_kbps(1.0).as_bps(), 1e3);
        assert_eq!(Bandwidth::from_mbps(1.0).as_bps(), 1e6);
        assert_eq!(Bandwidth::from_gbps(1.0).as_bps(), 1e9);
        assert_eq!(Bandwidth::from_gbps(1.0).as_mbps(), 1e3);
    }

    #[test]
    fn fallible_constructors_reject_what_the_panicking_ones_would() {
        assert_eq!(
            Bandwidth::try_from_mbps(16.0),
            Ok(Bandwidth::from_mbps(16.0))
        );
        // Finite in Mbps, infinite once scaled to bit/s.
        let err = Bandwidth::try_from_mbps(1e308).unwrap_err();
        assert!(err.bps.is_infinite());
        assert!(err.to_string().contains("finite and positive"), "{err}");
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(Bandwidth::try_from_bps(bad).is_err(), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn from_mbps_panics_on_overflow() {
        let _ = Bandwidth::from_mbps(1e308);
    }

    #[test]
    fn bit_time_inverse() {
        let bw = Bandwidth::from_mbps(4.0);
        assert!((bw.bit_time().as_secs_f64() - 0.25e-6).abs() < 1e-18);
    }

    #[test]
    fn transmission_time_eq2() {
        // Paper eq. (2): C_i = C_i^b / BW.
        let bw = Bandwidth::from_mbps(10.0);
        let t = bw.transmission_time(Bits::new(624));
        assert!((t.as_micros() - 62.4).abs() < 1e-9);
        assert_eq!(bw.transmission_time(Bits::ZERO), Seconds::ZERO);
    }

    #[test]
    fn bits_in_window() {
        let bw = Bandwidth::from_mbps(1.0);
        assert_eq!(bw.bits_in(Seconds::from_micros(100.0)), Bits::new(100));
        assert_eq!(bw.bits_in(Seconds::ZERO), Bits::ZERO);
        assert_eq!(bw.bits_in(Seconds::new(-1.0)), Bits::ZERO);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_rejected() {
        let _ = Bandwidth::from_bps(0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn negative_bandwidth_rejected() {
        let _ = Bandwidth::from_mbps(-5.0);
    }

    #[test]
    fn display() {
        assert_eq!(Bandwidth::from_mbps(100.0).to_string(), "100.000 Mbps");
        assert_eq!(Bandwidth::from_bps(500.0).to_string(), "500.000 bps");
        assert_eq!(Bandwidth::from_gbps(1.0).to_string(), "1.000 Gbps");
        assert_eq!(Bandwidth::from_kbps(64.0).to_string(), "64.000 kbps");
    }
}
