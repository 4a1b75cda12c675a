//! Physical ring network model (paper §3.1 and §6).

use core::fmt;

use ringrt_units::{Bandwidth, Bits, Seconds};

use crate::ModelError;

/// Speed of light in vacuum, m/s.
pub const SPEED_OF_LIGHT_M_S: f64 = 299_792_458.0;

/// Default IEEE 802.5 per-station latency (paper §6: "4 bits").
const IEEE_802_5_STATION_DELAY: Bits = Bits::new(4);
/// Default FDDI per-station latency (paper §6: "75 bits").
const FDDI_STATION_DELAY: Bits = Bits::new(75);
/// IEEE 802.5 token length: SD + AC + ED = 3 octets.
const IEEE_802_5_TOKEN: Bits = Bits::new(24);
/// FDDI token length: 8-octet preamble + SD + FC + ED ≈ 11 octets.
const FDDI_TOKEN: Bits = Bits::new(88);
/// Paper §6: signal propagation at 75 % of the speed of light.
const DEFAULT_MEDIUM_VELOCITY_FACTOR: f64 = 0.75;

/// The physical ring: topology, latencies, and bandwidth (paper §3.1).
///
/// From these parameters the model derives:
///
/// * the **walk time** `WT` = signal propagation around the ring + per-station
///   ring/buffer latency;
/// * the **token circulation time** `Θ = WT + token transmission time`,
///   which the paper decomposes as `Θ = P + Q/BW` with `P` the (bandwidth
///   independent) propagation delay and `Q` the token length plus ring
///   latency in bits.
///
/// Construct via the presets [`RingConfig::ieee_802_5`] /
/// [`RingConfig::fddi`] (which embed the paper's §6 parameter choices) or
/// via [`RingConfig::builder`] for full control.
///
/// # Examples
///
/// ```
/// use ringrt_model::RingConfig;
/// use ringrt_units::Bandwidth;
///
/// let ring = RingConfig::fddi(100, Bandwidth::from_mbps(100.0));
/// // 10 km of fibre at 0.75c plus 100 × 75 bit delays plus the token.
/// let theta = ring.token_circulation_time();
/// assert!(theta.as_micros() > 100.0 && theta.as_micros() < 130.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingConfig {
    stations: usize,
    station_spacing_m: f64,
    station_delay: Bits,
    token_length: Bits,
    bandwidth: Bandwidth,
    velocity_factor: f64,
}

impl RingConfig {
    /// Starts building a custom ring configuration.
    #[must_use]
    pub fn builder() -> RingConfigBuilder {
        RingConfigBuilder::new()
    }

    /// The paper's IEEE 802.5 evaluation ring: `stations` nodes spaced
    /// 100 m apart, 4-bit station latency, 24-bit token, signals at 0.75c.
    ///
    /// # Panics
    ///
    /// Panics where [`RingConfig::try_ieee_802_5`] fails.
    #[must_use]
    pub fn ieee_802_5(stations: usize, bandwidth: Bandwidth) -> Self {
        Self::try_ieee_802_5(stations, bandwidth).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`RingConfig::ieee_802_5`] for a station count from outside the
    /// program.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidRing`] if `stations` is zero or so large that
    /// the ring latency in bits overflows.
    pub fn try_ieee_802_5(stations: usize, bandwidth: Bandwidth) -> Result<Self, ModelError> {
        RingConfigBuilder::new()
            .stations(stations)
            .station_spacing_m(100.0)
            .station_delay(IEEE_802_5_STATION_DELAY)
            .token_length(IEEE_802_5_TOKEN)
            .bandwidth(bandwidth)
            .build()
    }

    /// The paper's FDDI evaluation ring: `stations` nodes spaced 100 m
    /// apart, 75-bit station latency, 88-bit token, signals at 0.75c.
    ///
    /// # Panics
    ///
    /// Panics where [`RingConfig::try_fddi`] fails.
    #[must_use]
    pub fn fddi(stations: usize, bandwidth: Bandwidth) -> Self {
        Self::try_fddi(stations, bandwidth).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`RingConfig::fddi`] for a station count from outside the program.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidRing`] if `stations` is zero or so large that
    /// the ring latency in bits overflows.
    pub fn try_fddi(stations: usize, bandwidth: Bandwidth) -> Result<Self, ModelError> {
        RingConfigBuilder::new()
            .stations(stations)
            .station_spacing_m(100.0)
            .station_delay(FDDI_STATION_DELAY)
            .token_length(FDDI_TOKEN)
            .bandwidth(bandwidth)
            .build()
    }

    /// Number of stations `n` on the ring.
    #[must_use]
    pub fn stations(&self) -> usize {
        self.stations
    }

    /// Distance between neighbouring stations, metres.
    #[must_use]
    pub fn station_spacing_m(&self) -> f64 {
        self.station_spacing_m
    }

    /// Per-station ring/buffer latency, in bit times.
    #[must_use]
    pub fn station_delay(&self) -> Bits {
        self.station_delay
    }

    /// Token length in bits.
    #[must_use]
    pub fn token_length(&self) -> Bits {
        self.token_length
    }

    /// The ring bandwidth `BW`.
    #[must_use]
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// Returns a copy of this configuration at a different bandwidth
    /// (used by the Figure-1 bandwidth sweep).
    #[must_use]
    pub fn with_bandwidth(&self, bandwidth: Bandwidth) -> RingConfig {
        RingConfig { bandwidth, ..*self }
    }

    /// Total ring circumference, metres.
    #[must_use]
    pub fn ring_length_m(&self) -> f64 {
        self.stations as f64 * self.station_spacing_m
    }

    /// Signal propagation speed on the medium, m/s.
    #[must_use]
    pub fn propagation_speed_m_s(&self) -> f64 {
        self.velocity_factor * SPEED_OF_LIGHT_M_S
    }

    /// One-way propagation delay around the whole ring (the paper's
    /// bandwidth-independent `P` component of `Θ`).
    #[must_use]
    pub fn propagation_delay(&self) -> Seconds {
        Seconds::new(self.ring_length_m() / self.propagation_speed_m_s())
    }

    /// Aggregate station latency around the ring: `n · b / BW`.
    #[must_use]
    pub fn ring_latency(&self) -> Seconds {
        self.bandwidth
            .transmission_time(self.station_delay * self.stations as u64)
    }

    /// Token walk time `WT` = propagation delay + ring latency (paper §3.1).
    #[must_use]
    pub fn walk_time(&self) -> Seconds {
        self.propagation_delay() + self.ring_latency()
    }

    /// Token transmission time.
    #[must_use]
    pub fn token_time(&self) -> Seconds {
        self.bandwidth.transmission_time(self.token_length)
    }

    /// Token circulation time `Θ = WT + token transmission time`
    /// (paper §3.1).
    #[must_use]
    pub fn token_circulation_time(&self) -> Seconds {
        self.walk_time() + self.token_time()
    }

    /// The `Q` of the paper's decomposition `Θ = P + Q/BW`: token length
    /// plus total ring latency, in bits.
    #[must_use]
    pub fn latency_bits(&self) -> Bits {
        self.token_length + self.station_delay * self.stations as u64
    }

    /// Per-hop latency between adjacent stations: spacing propagation plus
    /// one station's bit delay. Used by the hop-by-hop simulator; `n` hops
    /// equal the walk time `WT` exactly.
    #[must_use]
    pub fn hop_latency(&self) -> Seconds {
        Seconds::new(self.station_spacing_m / self.propagation_speed_m_s())
            + self.bandwidth.transmission_time(self.station_delay)
    }
}

impl fmt::Display for RingConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ring(n = {}, d = {} m, delay = {}/station, token = {}, {})",
            self.stations,
            self.station_spacing_m,
            self.station_delay,
            self.token_length,
            self.bandwidth
        )
    }
}

/// Builder for [`RingConfig`].
///
/// # Examples
///
/// ```
/// use ringrt_model::RingConfig;
/// use ringrt_units::{Bandwidth, Bits};
///
/// let ring = RingConfig::builder()
///     .stations(16)
///     .station_spacing_m(50.0)
///     .station_delay(Bits::new(4))
///     .token_length(Bits::new(24))
///     .bandwidth(Bandwidth::from_mbps(16.0))
///     .build()?;
/// assert_eq!(ring.stations(), 16);
/// # Ok::<(), ringrt_model::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RingConfigBuilder {
    stations: usize,
    station_spacing_m: f64,
    station_delay: Bits,
    token_length: Bits,
    bandwidth: Option<Bandwidth>,
    velocity_factor: f64,
}

impl Default for RingConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl RingConfigBuilder {
    /// Creates a builder pre-loaded with the paper's §6 defaults
    /// (100 stations, 100 m spacing, 0.75c) and IEEE 802.5 latencies.
    #[must_use]
    pub fn new() -> Self {
        RingConfigBuilder {
            stations: 100,
            station_spacing_m: 100.0,
            station_delay: IEEE_802_5_STATION_DELAY,
            token_length: IEEE_802_5_TOKEN,
            bandwidth: None,
            velocity_factor: DEFAULT_MEDIUM_VELOCITY_FACTOR,
        }
    }

    /// Sets the number of stations `n`.
    #[must_use]
    pub fn stations(mut self, n: usize) -> Self {
        self.stations = n;
        self
    }

    /// Sets the distance between neighbouring stations, metres.
    #[must_use]
    pub fn station_spacing_m(mut self, d: f64) -> Self {
        self.station_spacing_m = d;
        self
    }

    /// Sets the per-station ring/buffer latency in bit times.
    #[must_use]
    pub fn station_delay(mut self, delay: Bits) -> Self {
        self.station_delay = delay;
        self
    }

    /// Sets the token length in bits.
    #[must_use]
    pub fn token_length(mut self, token: Bits) -> Self {
        self.token_length = token;
        self
    }

    /// Sets the ring bandwidth (required).
    #[must_use]
    pub fn bandwidth(mut self, bw: Bandwidth) -> Self {
        self.bandwidth = Some(bw);
        self
    }

    /// Sets the signal speed as a fraction of the speed of light
    /// (default 0.75 per the paper).
    #[must_use]
    pub fn velocity_factor(mut self, factor: f64) -> Self {
        self.velocity_factor = factor;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidRing`] if any parameter is out of
    /// range (zero stations, non-positive spacing or velocity factor,
    /// velocity above 1, zero-length token, or missing bandwidth), or if
    /// the ring latency `token + stations · station delay` does not fit a
    /// 64-bit bit count.
    pub fn build(self) -> Result<RingConfig, ModelError> {
        if self.stations == 0 {
            return Err(ModelError::InvalidRing {
                parameter: "stations",
                reason: "a ring needs at least one station".into(),
            });
        }
        let latency_bits = u64::try_from(self.stations)
            .ok()
            .and_then(|n| self.station_delay.as_u64().checked_mul(n))
            .and_then(|delay| delay.checked_add(self.token_length.as_u64()));
        if latency_bits.is_none() {
            return Err(ModelError::InvalidRing {
                parameter: "stations",
                reason: format!(
                    "{} stations of {} overflow the ring latency in bits",
                    self.stations, self.station_delay
                ),
            });
        }
        if !(self.station_spacing_m.is_finite() && self.station_spacing_m > 0.0) {
            return Err(ModelError::InvalidRing {
                parameter: "station_spacing_m",
                reason: format!(
                    "must be finite and positive, got {}",
                    self.station_spacing_m
                ),
            });
        }
        if !(self.velocity_factor > 0.0 && self.velocity_factor <= 1.0) {
            return Err(ModelError::InvalidRing {
                parameter: "velocity_factor",
                reason: format!("must be in (0, 1], got {}", self.velocity_factor),
            });
        }
        if self.token_length.is_zero() {
            return Err(ModelError::InvalidRing {
                parameter: "token_length",
                reason: "token must be at least one bit".into(),
            });
        }
        let bandwidth = self.bandwidth.ok_or(ModelError::InvalidRing {
            parameter: "bandwidth",
            reason: "bandwidth is required".into(),
        })?;
        Ok(RingConfig {
            stations: self.stations,
            station_spacing_m: self.station_spacing_m,
            station_delay: self.station_delay,
            token_length: self.token_length,
            bandwidth,
            velocity_factor: self.velocity_factor,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fddi_theta_at_100mbps() {
        // n = 100, d = 100 m → 10 km at 0.75c ⇒ 44.44 µs propagation;
        // 100 × 75 bits at 100 Mbps ⇒ 75 µs; token 88 bits ⇒ 0.88 µs.
        let ring = RingConfig::fddi(100, Bandwidth::from_mbps(100.0));
        assert!((ring.propagation_delay().as_micros() - 44.47).abs() < 0.1);
        assert!((ring.ring_latency().as_micros() - 75.0).abs() < 1e-9);
        assert!((ring.token_time().as_micros() - 0.88).abs() < 1e-9);
        let theta = ring.token_circulation_time();
        assert!((theta.as_micros() - 120.3).abs() < 0.3, "{theta}");
    }

    #[test]
    fn paper_802_5_theta_at_1mbps() {
        // Ring latency dominates at 1 Mbps: 400 bits = 400 µs.
        let ring = RingConfig::ieee_802_5(100, Bandwidth::from_mbps(1.0));
        assert!((ring.ring_latency().as_micros() - 400.0).abs() < 1e-9);
        assert!((ring.token_time().as_micros() - 24.0).abs() < 1e-9);
        let theta = ring.token_circulation_time();
        assert!((theta.as_micros() - 468.5).abs() < 0.5, "{theta}");
    }

    #[test]
    fn theta_decomposition_p_plus_q_over_bw() {
        // Θ = P + Q/BW exactly, with P the propagation delay.
        let ring = RingConfig::ieee_802_5(100, Bandwidth::from_mbps(16.0));
        let p = ring.propagation_delay();
        let q_over_bw = ring.bandwidth().transmission_time(ring.latency_bits());
        let theta = ring.token_circulation_time();
        assert!((theta.as_secs_f64() - (p + q_over_bw).as_secs_f64()).abs() < 1e-15);
    }

    #[test]
    fn hop_latency_times_n_equals_walk_time() {
        let ring = RingConfig::fddi(64, Bandwidth::from_mbps(100.0));
        let walk = ring.walk_time().as_secs_f64();
        let hops = ring.hop_latency().as_secs_f64() * 64.0;
        assert!((walk - hops).abs() < 1e-12);
    }

    #[test]
    fn with_bandwidth_changes_only_bandwidth() {
        let a = RingConfig::fddi(100, Bandwidth::from_mbps(100.0));
        let b = a.with_bandwidth(Bandwidth::from_mbps(10.0));
        assert_eq!(b.stations(), 100);
        assert_eq!(b.bandwidth().as_mbps(), 10.0);
        // Propagation delay unchanged, ring latency ×10.
        assert_eq!(a.propagation_delay(), b.propagation_delay());
        assert!(
            (b.ring_latency().as_secs_f64() / a.ring_latency().as_secs_f64() - 10.0).abs() < 1e-9
        );
    }

    #[test]
    fn presets_refuse_a_ring_latency_that_overflows() {
        let bw = Bandwidth::from_mbps(16.0);
        for stations in [usize::MAX, usize::MAX / 4 + 1] {
            let err = RingConfig::try_ieee_802_5(stations, bw).unwrap_err();
            assert!(err.to_string().contains("overflow"), "{err}");
            assert!(RingConfig::try_fddi(stations, bw).is_err());
        }
        assert!(RingConfig::try_fddi(0, bw).is_err());
        // The largest 802.5 count whose latency still fits builds, and its
        // derived times stay finite.
        let edge = RingConfig::try_ieee_802_5((u64::MAX - 24) as usize / 4, bw).unwrap();
        assert!(edge.token_circulation_time().as_secs_f64().is_finite());
        assert_eq!(
            RingConfig::try_fddi(100, bw).unwrap(),
            RingConfig::fddi(100, bw)
        );
    }

    #[test]
    fn builder_validation() {
        assert!(matches!(
            RingConfig::builder()
                .stations(0)
                .bandwidth(Bandwidth::from_mbps(1.0))
                .build(),
            Err(ModelError::InvalidRing {
                parameter: "stations",
                ..
            })
        ));
        assert!(matches!(
            RingConfig::builder().build(),
            Err(ModelError::InvalidRing {
                parameter: "bandwidth",
                ..
            })
        ));
        assert!(matches!(
            RingConfig::builder()
                .bandwidth(Bandwidth::from_mbps(1.0))
                .velocity_factor(1.5)
                .build(),
            Err(ModelError::InvalidRing {
                parameter: "velocity_factor",
                ..
            })
        ));
        assert!(matches!(
            RingConfig::builder()
                .bandwidth(Bandwidth::from_mbps(1.0))
                .station_spacing_m(-3.0)
                .build(),
            Err(ModelError::InvalidRing {
                parameter: "station_spacing_m",
                ..
            })
        ));
        assert!(matches!(
            RingConfig::builder()
                .bandwidth(Bandwidth::from_mbps(1.0))
                .token_length(Bits::ZERO)
                .build(),
            Err(ModelError::InvalidRing {
                parameter: "token_length",
                ..
            })
        ));
    }

    #[test]
    fn display_mentions_key_fields() {
        let ring = RingConfig::ieee_802_5(10, Bandwidth::from_mbps(4.0));
        let s = ring.to_string();
        assert!(s.contains("n = 10"));
        assert!(s.contains("4.000 Mbps"));
    }
}
