//! Frame-level discrete-event simulation of the two token ring MACs.
//!
//! The paper's contribution is *analytical* — schedulability criteria — and
//! its authors had no public executable artifact. This crate provides the
//! missing empirical leg: faithful frame-level simulators of
//!
//! * the **priority-driven protocol** ([`PdpSimulator`]) — IEEE 802.5 style
//!   reservation/priority token with rate-monotonic message priorities, in
//!   both the standard (token re-issued per frame) and modified
//!   (hold-while-highest) variants; and
//! * the **timed token protocol** ([`TtpSimulator`]) — FDDI style TRT/THT
//!   timers, per-station synchronous bandwidths, late counters, and
//!   asynchronous overrun;
//!
//! so the Theorem 4.1 / Theorem 5.1 verdicts can be checked against
//! observed deadline behaviour: sets the analysis accepts must sail through
//! worst-case phasing with zero misses; sets just past saturation should
//! (and do) miss.
//!
//! Both simulators share the same traffic model ([`SyncTraffic`],
//! [`AsyncTraffic`]), ring timing (station-to-station token movement
//! derived from [`RingConfig`](ringrt_model::RingConfig)), and report
//! format ([`SimReport`]).
//!
//! A released token that passes stations with nothing to send costs one
//! event, not one per hop: the simulator schedules its arrival at the
//! station that will capture it, re-aims it when an arrival ahead of that
//! station would capture it first, and accounts the passed hops (rotation
//! marks, TTP timers, trace records, and `SimReport::events`, where each
//! skipped hop still counts as one event) in closed form. Events due at
//! one picosecond run arrivals first, then frame completions, then token
//! events. Reports are identical to a walk that moves the token one hop
//! per event, which the tests keep as an oracle.
//!
//! # Examples
//!
//! ```
//! use ringrt_model::{MessageSet, RingConfig, SyncStream};
//! use ringrt_sim::{Phasing, SimConfig, TtpSimulator};
//! use ringrt_units::{Bandwidth, Bits, Seconds};
//!
//! let ring = RingConfig::fddi(2, Bandwidth::from_mbps(100.0));
//! let set = MessageSet::new(vec![
//!     SyncStream::new(Seconds::from_millis(20.0), Bits::new(100_000)),
//!     SyncStream::new(Seconds::from_millis(40.0), Bits::new(100_000)),
//! ])?;
//! let config = SimConfig::new(ring, Seconds::new(2.0)).with_phasing(Phasing::Synchronized);
//! let report = TtpSimulator::from_analysis(&set, config)?.run();
//! assert_eq!(report.deadline_misses(), 0);
//! assert!(report.completed() >= 140); // ≈ 100 + 50 arrivals in 2 s
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod metrics;
mod pdp;
mod trace;
mod traffic;
mod ttp;
mod walk;

pub use config::{Phasing, SimConfig, SimConfigError, SimError};
pub use metrics::{SimReport, StreamStats};
pub use pdp::PdpSimulator;
pub use trace::{render_timeline, TraceEvent, TraceKind};
pub use traffic::{AsyncTraffic, SyncTraffic};
pub use ttp::TtpSimulator;

use ringrt_core::ProtocolKind;
use ringrt_model::{FrameFormat, MessageSet};
use ringrt_units::{Bits, Seconds};

use config::check_span;

/// Runs `set` on `protocol`'s simulator: the priority-driven MAC in the
/// protocol's variant with the paper's frame format, or the timed token
/// MAC with the synchronous bandwidths Theorem 5.1's analysis allocates.
///
/// # Errors
///
/// [`SimError::Span`], before anything is built, when a ring time or a
/// stream's period, deadline or frame time does not fit the simulator's
/// clock; [`SimError::InfeasibleAllocation`] when FDDI cannot allocate
/// synchronous bandwidth to every stream of `set`.
pub fn simulate(
    protocol: ProtocolKind,
    set: &MessageSet,
    config: SimConfig,
) -> Result<SimReport, SimError> {
    check_spans(set, &config)?;
    Ok(match protocol.pdp_variant() {
        Some(variant) => {
            PdpSimulator::new(set, config, FrameFormat::paper_default(), variant).run()
        }
        None => TtpSimulator::from_analysis(set, config)?.run(),
    })
}

/// Checks, without allocating, that every time a run of `set` schedules
/// fits the clock: the token circulation time (which bounds the hop and
/// token times), the longest frame, the asynchronous interarrival mean,
/// the longest period (which bounds every deadline), and with token loss
/// on, the recovery time and the mean gap between losses.
fn check_spans(set: &MessageSet, config: &SimConfig) -> Result<(), SimError> {
    let ring = config.ring();
    let bw = ring.bandwidth();
    let frame = FrameFormat::paper_default();
    let async_frame = Bits::new(config.async_payload_bits()) + frame.overhead();
    check_span("token circulation time", ring.token_circulation_time())?;
    check_span(
        "frame time",
        bw.transmission_time(frame.total().max(async_frame)),
    )?;
    if let Some(mean) = AsyncTraffic::mean_interarrival(
        ring.stations(),
        config.async_load(),
        config.async_payload_bits(),
        bw.as_bps(),
    ) {
        check_span("asynchronous interarrival time", mean)?;
    }
    let longest = set
        .iter()
        .map(|s| s.period())
        .fold(Seconds::ZERO, Seconds::max);
    check_span("longest period", longest)?;
    if config.token_loss_rate() > 0.0 {
        check_span("token recovery time", config.token_recovery())?;
        check_span(
            "mean token-loss gap",
            Seconds::new(1.0 / config.token_loss_rate()),
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringrt_model::SyncStream;
    use ringrt_units::Bandwidth;

    fn run(protocol: ProtocolKind, mbps: f64, period: Seconds, bits: u64, load: f64) -> SimError {
        let set = MessageSet::new(vec![SyncStream::new(period, Bits::new(bits))]).unwrap();
        let ring = protocol.ring(1, Bandwidth::from_mbps(mbps));
        let config = SimConfig::new(ring, Seconds::new(0.1)).with_async_load(load);
        simulate(protocol, &set, config).expect_err("the run overflows the clock")
    }

    fn what(err: SimError) -> &'static str {
        match err {
            SimError::Span { what, .. } => what,
            other => panic!("not a clock error: {other}"),
        }
    }

    #[test]
    fn times_past_the_clock_are_errors() {
        let period = Seconds::from_millis(20.0);
        for protocol in ProtocolKind::ALL {
            let slow = run(protocol, 1e-300, period, 1000, 0.0);
            assert_eq!(what(slow), "token circulation time");
            let long = run(protocol, 16.0, Seconds::from_millis(1e300), 1000, 0.0);
            assert_eq!(what(long), "longest period");
            let sparse = run(protocol, 16.0, period, 1000, 1e-300);
            assert_eq!(what(sparse), "asynchronous interarrival time");
        }
        // Theorem 5.1's allocation for a 2^64-bit message at 16 Mbps.
        let huge = run(ProtocolKind::Fddi, 16.0, period, u64::MAX, 0.0);
        assert_eq!(what(huge), "synchronous bandwidth allocation");
    }

    #[test]
    fn token_loss_times_past_the_clock_are_errors() {
        let set = MessageSet::new(vec![SyncStream::new(
            Seconds::from_millis(20.0),
            Bits::new(1000),
        )])
        .unwrap();
        for protocol in ProtocolKind::ALL {
            let config = SimConfig::new(
                protocol.ring(4, Bandwidth::from_mbps(16.0)),
                Seconds::new(1.0),
            );
            let slow_recovery = config.with_token_loss(50.0, Seconds::new(1e300));
            let err = simulate(protocol, &set, slow_recovery).expect_err("recovery overflows");
            assert_eq!(what(err), "token recovery time");
            let rare = config.with_token_loss(1e-300, Seconds::from_millis(1.0));
            let err = simulate(protocol, &set, rare).expect_err("the mean gap overflows");
            assert_eq!(what(err), "mean token-loss gap");
            // A gap that fits the clock but ends past the run: no loss.
            let once_a_day = config.with_token_loss(1e-5, Seconds::from_millis(1.0));
            let report = simulate(protocol, &set, once_a_day).unwrap();
            assert_eq!(report.token_losses, 0);
            assert_eq!(report.deadline_misses(), 0);
        }
    }
}
