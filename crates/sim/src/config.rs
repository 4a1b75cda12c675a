//! Simulation run configuration.

use core::fmt;

use rand::rngs::StdRng;
use rand::Rng as _;
use ringrt_model::RingConfig;
use ringrt_units::{Seconds, SimDuration, SimTime};

/// How synchronous message arrivals are phased across stations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phasing {
    /// Every stream releases its first message at `t = 0` — the critical
    /// instant the schedulability analyses assume worst-case.
    Synchronized,
    /// Stream `i` starts at `i · P_i / n`, spreading load smoothly (a
    /// friendly phasing the analyses do not rely on).
    Staggered,
}

/// Configuration shared by both protocol simulators.
///
/// # Examples
///
/// ```
/// use ringrt_model::RingConfig;
/// use ringrt_sim::{Phasing, SimConfig};
/// use ringrt_units::{Bandwidth, Seconds};
///
/// let ring = RingConfig::fddi(10, Bandwidth::from_mbps(100.0));
/// let cfg = SimConfig::new(ring, Seconds::new(1.0))
///     .with_phasing(Phasing::Staggered)
///     .with_async_load(0.3)
///     .with_seed(7);
/// assert_eq!(cfg.seed(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    ring: RingConfig,
    duration: SimDuration,
    phasing: Phasing,
    /// Offered asynchronous load as a fraction of the ring bandwidth.
    async_load: f64,
    /// Payload bits per asynchronous frame (overhead added on top).
    async_payload_bits: u64,
    seed: u64,
    /// Mean rate of free-token losses, per simulated second (0 = never).
    token_loss_rate: f64,
    /// Ring-recovery (claim/monitor) time after a token loss.
    token_recovery: Seconds,
    /// Maximum trace events captured (0 = tracing off).
    trace_capacity: usize,
}

/// A run parameter [`SimConfig`] refuses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimConfigError {
    /// The simulated duration, in seconds, is not positive or is longer
    /// than the simulator's clock can hold (about 27 days).
    Duration(f64),
    /// The offered asynchronous load is outside `[0, 1)`.
    AsyncLoad(f64),
}

impl fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimConfigError::Duration(secs) => write!(
                f,
                "simulation duration must be positive and at most {:.0} s, got {secs} s",
                MAX_SPAN.as_seconds().as_secs_f64()
            ),
            SimConfigError::AsyncLoad(load) => {
                write!(f, "async load must be in [0, 1), got {load}")
            }
        }
    }
}

impl std::error::Error for SimConfigError {}

/// Why a run cannot be built.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The analyzer could not allocate bandwidth to every stream (some
    /// `q_i < 2` at the negotiated TTRT): the protocol cannot guarantee the
    /// set, so there is nothing meaningful to simulate with these
    /// allocations.
    InfeasibleAllocation {
        /// Index of the first stream without a usable allocation.
        stream: usize,
    },
    /// An explicit allocation vector did not match the stream count.
    AllocationCountMismatch {
        /// Number of allocations supplied.
        got: usize,
        /// Number of streams in the set.
        expected: usize,
    },
    /// A ring, stream or frame time of the run is longer than the
    /// simulator's clock can hold (see [`SimConfig::check_run`]).
    Span {
        /// Which time.
        what: &'static str,
        /// Its length in seconds.
        secs: f64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InfeasibleAllocation { stream } => write!(
                f,
                "stream {stream} has no usable synchronous bandwidth (q < 2 at the negotiated TTRT)"
            ),
            SimError::AllocationCountMismatch { got, expected } => write!(
                f,
                "got {got} synchronous bandwidth allocations for {expected} streams"
            ),
            SimError::Span { what, secs } => write!(
                f,
                "the {what} of {secs:e} s does not fit the simulator's clock (at most {:.0} s)",
                MAX_SPAN.as_seconds().as_secs_f64()
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// The longest span a run may hold — its length, or a ring, stream or
/// frame time it schedules: an eighth of the picosecond clock, about 27
/// days. An event adds at most five such spans to an instant inside the
/// horizon (a token visit: an allocation, the TTRT's asynchronous window,
/// one more frame, the token and a hop), so no event time overflows.
pub(crate) const MAX_SPAN: SimDuration = SimDuration::from_picos(u64::MAX / 8);

/// Converts a span a run schedules, or `None` when it is negative or
/// longer than [`MAX_SPAN`].
pub(crate) fn span(secs: Seconds) -> Option<SimDuration> {
    SimDuration::checked_from_seconds(secs).filter(|d| *d <= MAX_SPAN)
}

/// [`span`], naming the time it refuses.
pub(crate) fn check_span(what: &'static str, secs: Seconds) -> Result<SimDuration, SimError> {
    span(secs).ok_or(SimError::Span {
        what,
        secs: secs.as_secs_f64(),
    })
}

fn check_duration(duration: Seconds) -> Result<SimDuration, SimConfigError> {
    match span(duration) {
        Some(d) if duration > Seconds::ZERO => Ok(d),
        _ => Err(SimConfigError::Duration(duration.as_secs_f64())),
    }
}

fn check_async_load(load: f64) -> Result<(), SimConfigError> {
    if (0.0..1.0).contains(&load) {
        Ok(())
    } else {
        Err(SimConfigError::AsyncLoad(load))
    }
}

impl SimConfig {
    /// Checks the two run parameters a user supplies — the simulated
    /// duration and the offered asynchronous load — against the rules
    /// [`SimConfig::new`] and [`SimConfig::with_async_load`] enforce. A
    /// front end calls it before it has a ring to build a configuration
    /// for.
    ///
    /// The duration must fit the simulator's picosecond clock with room
    /// for the spans its events add: at most an eighth of `u64::MAX`
    /// picoseconds, about 27 days. [`crate::simulate`] holds the ring,
    /// stream and frame times of a run to the same bound.
    ///
    /// # Errors
    ///
    /// [`SimConfigError`] for a duration that is not positive or does not
    /// fit the clock, or a load outside `[0, 1)`.
    pub fn check_run(duration: Seconds, async_load: f64) -> Result<(), SimConfigError> {
        check_duration(duration)?;
        check_async_load(async_load)
    }

    /// Creates a configuration simulating `duration` of ring time with no
    /// asynchronous background load and synchronized phasing.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is not strictly positive or does not fit the
    /// clock (see [`SimConfig::check_run`]).
    #[must_use]
    pub fn new(ring: RingConfig, duration: Seconds) -> Self {
        SimConfig {
            ring,
            duration: check_duration(duration).unwrap_or_else(|e| panic!("{e}")),
            phasing: Phasing::Synchronized,
            async_load: 0.0,
            async_payload_bits: 512,
            seed: 0xD15C_0001,
            token_loss_rate: 0.0,
            token_recovery: Seconds::from_millis(10.0),
            trace_capacity: 0,
        }
    }

    /// Sets the arrival phasing.
    #[must_use]
    pub fn with_phasing(mut self, phasing: Phasing) -> Self {
        self.phasing = phasing;
        self
    }

    /// Sets the offered asynchronous load (fraction of bandwidth in
    /// `[0, 1)`), generated as Poisson arrivals of fixed-size frames spread
    /// uniformly over the stations.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ load < 1` (see [`SimConfig::check_run`]).
    #[must_use]
    pub fn with_async_load(mut self, load: f64) -> Self {
        check_async_load(load).unwrap_or_else(|e| panic!("{e}"));
        self.async_load = load;
        self
    }

    /// Sets the asynchronous frame payload size in bits (default 512: the
    /// paper's 64-byte asynchronous packets).
    ///
    /// # Panics
    ///
    /// Panics if zero.
    #[must_use]
    pub fn with_async_payload_bits(mut self, bits: u64) -> Self {
        assert!(bits > 0, "async payload must be non-empty");
        self.async_payload_bits = bits;
        self
    }

    /// Sets the RNG seed for asynchronous arrivals.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The ring under simulation.
    #[must_use]
    pub fn ring(&self) -> &RingConfig {
        &self.ring
    }

    /// Simulated time span.
    #[must_use]
    pub fn duration(&self) -> SimDuration {
        self.duration
    }

    /// Arrival phasing.
    #[must_use]
    pub fn phasing(&self) -> Phasing {
        self.phasing
    }

    /// Offered asynchronous load fraction.
    #[must_use]
    pub fn async_load(&self) -> f64 {
        self.async_load
    }

    /// Asynchronous frame payload bits.
    #[must_use]
    pub fn async_payload_bits(&self) -> u64 {
        self.async_payload_bits
    }

    /// RNG seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Enables token-loss fault injection: free tokens are lost as a
    /// Poisson process at `rate_per_sec`, and each loss stalls the ring for
    /// `recovery` (the claim/active-monitor reinitialization) before a
    /// fresh token appears.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_sec` is negative/non-finite or `recovery` is not
    /// strictly positive.
    #[must_use]
    pub fn with_token_loss(mut self, rate_per_sec: f64, recovery: Seconds) -> Self {
        assert!(
            rate_per_sec.is_finite() && rate_per_sec >= 0.0,
            "token loss rate must be finite and non-negative"
        );
        assert!(
            recovery.is_finite() && recovery > Seconds::ZERO,
            "token recovery time must be positive"
        );
        self.token_loss_rate = rate_per_sec;
        self.token_recovery = recovery;
        self
    }

    /// When the token is next lost after `now`: an exponential gap with
    /// mean `1/rate` from `rng`. `None` when injection is off or the gap
    /// ends past `end`, the run's horizon, so no gap the clock cannot hold
    /// is ever scheduled. [`crate::simulate`] refuses a mean gap or a
    /// recovery time longer than the clock's span.
    pub(crate) fn next_token_loss(
        &self,
        rng: &mut StdRng,
        now: SimTime,
        end: SimTime,
    ) -> Option<SimTime> {
        if self.token_loss_rate <= 0.0 {
            return None;
        }
        let u: f64 = 1.0 - rng.gen::<f64>();
        let gap = span(Seconds::new((-u.ln() / self.token_loss_rate).max(1e-12)))?;
        let at = now + gap;
        (at <= end).then_some(at)
    }

    /// Mean token losses per simulated second (0 disables injection).
    #[must_use]
    pub fn token_loss_rate(&self) -> f64 {
        self.token_loss_rate
    }

    /// Ring recovery time after a token loss.
    #[must_use]
    pub fn token_recovery(&self) -> Seconds {
        self.token_recovery
    }

    /// Enables protocol-event tracing, keeping at most `capacity` events
    /// (see [`crate::TraceEvent`]); events past the cap are counted, not
    /// stored.
    #[must_use]
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Trace capacity (0 = tracing disabled).
    #[must_use]
    pub fn trace_capacity(&self) -> usize {
        self.trace_capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringrt_units::Bandwidth;

    fn ring() -> RingConfig {
        RingConfig::fddi(4, Bandwidth::from_mbps(100.0))
    }

    #[test]
    fn builder_round_trip() {
        let cfg = SimConfig::new(ring(), Seconds::new(0.5))
            .with_phasing(Phasing::Staggered)
            .with_async_load(0.25)
            .with_async_payload_bits(1024)
            .with_seed(99);
        assert_eq!(cfg.phasing(), Phasing::Staggered);
        assert_eq!(cfg.async_load(), 0.25);
        assert_eq!(cfg.async_payload_bits(), 1024);
        assert_eq!(cfg.seed(), 99);
        assert_eq!(cfg.ring().stations(), 4);
        assert_eq!(cfg.duration().as_seconds().as_secs_f64(), 0.5);
    }

    #[test]
    fn token_loss_builder() {
        let cfg = SimConfig::new(ring(), Seconds::new(1.0))
            .with_token_loss(2.0, Seconds::from_millis(5.0));
        assert_eq!(cfg.token_loss_rate(), 2.0);
        assert_eq!(cfg.token_recovery(), Seconds::from_millis(5.0));
        // Default: no injection.
        let cfg = SimConfig::new(ring(), Seconds::new(1.0));
        assert_eq!(cfg.token_loss_rate(), 0.0);
    }

    #[test]
    fn trace_builder() {
        let cfg = SimConfig::new(ring(), Seconds::new(1.0)).with_trace(500);
        assert_eq!(cfg.trace_capacity(), 500);
        assert_eq!(
            SimConfig::new(ring(), Seconds::new(1.0)).trace_capacity(),
            0
        );
    }

    #[test]
    #[should_panic(expected = "recovery time must be positive")]
    fn zero_recovery_rejected() {
        let _ = SimConfig::new(ring(), Seconds::new(1.0)).with_token_loss(1.0, Seconds::ZERO);
    }

    #[test]
    #[should_panic(expected = "loss rate")]
    fn negative_loss_rate_rejected() {
        let _ = SimConfig::new(ring(), Seconds::new(1.0))
            .with_token_loss(-1.0, Seconds::from_millis(1.0));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_duration_rejected() {
        let _ = SimConfig::new(ring(), Seconds::ZERO);
    }

    #[test]
    fn check_run_names_the_parameter_out_of_range() {
        assert_eq!(SimConfig::check_run(Seconds::new(0.5), 0.0), Ok(()));
        for secs in [0.0, -1.0, f64::INFINITY, 1e300, 3e6] {
            assert!(matches!(
                SimConfig::check_run(Seconds::new(secs), 0.0),
                Err(SimConfigError::Duration(_))
            ));
        }
        for load in [-0.1, 1.0, f64::NAN] {
            assert!(matches!(
                SimConfig::check_run(Seconds::new(1.0), load),
                Err(SimConfigError::AsyncLoad(_))
            ));
        }
    }

    #[test]
    #[should_panic(expected = "async load")]
    fn full_async_load_rejected() {
        let _ = SimConfig::new(ring(), Seconds::new(1.0)).with_async_load(1.0);
    }
}
