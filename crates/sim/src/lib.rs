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
//! [`AsyncTraffic`]), ring timing (hop-by-hop token movement derived from
//! [`RingConfig`](ringrt_model::RingConfig)), and report format
//! ([`SimReport`]).
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

pub use config::{Phasing, SimConfig, SimConfigError};
pub use metrics::{SimReport, StreamStats};
pub use pdp::PdpSimulator;
pub use trace::{render_timeline, TraceEvent, TraceKind};
pub use traffic::{AsyncTraffic, SyncTraffic};
pub use ttp::{TtpSimError, TtpSimulator};

use ringrt_core::ProtocolKind;
use ringrt_model::{FrameFormat, MessageSet};

/// Runs `set` on `protocol`'s simulator: the priority-driven MAC in the
/// protocol's variant with the paper's frame format, or the timed token
/// MAC with the synchronous bandwidths Theorem 5.1's analysis allocates.
///
/// # Errors
///
/// [`TtpSimError`] when FDDI cannot allocate synchronous bandwidth to
/// every stream of `set`.
pub fn simulate(
    protocol: ProtocolKind,
    set: &MessageSet,
    config: SimConfig,
) -> Result<SimReport, TtpSimError> {
    Ok(match protocol.pdp_variant() {
        Some(variant) => {
            PdpSimulator::new(set, config, FrameFormat::paper_default(), variant).run()
        }
        None => TtpSimulator::from_analysis(set, config)?.run(),
    })
}
