//! # ringrt — real-time schedulability of two token ring protocols
//!
//! A Rust reproduction of Kamat & Zhao, *"Real-Time Schedulability of Two
//! Token Ring Protocols"* (ICDCS 1993): exact schedulability criteria,
//! Monte-Carlo average-breakdown-utilization comparison, and frame-level
//! simulators for the **priority-driven** (IEEE 802.5, rate-monotonic) and
//! **timed token** (FDDI) medium-access protocols.
//!
//! This crate re-exports the whole workspace behind one dependency:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`units`] | `ringrt-units` | `Seconds`, `Bits`, `Bandwidth`, integer `SimTime` |
//! | [`exec`] | `ringrt-exec` | scoped work pool, `RINGRT_THREADS`, SplitMix64 seed derivation |
//! | [`model`] | `ringrt-model` | message sets, ring configuration, frame formats |
//! | [`analysis`] | `ringrt-core` | Theorem 4.1 (PDP), Theorem 5.1 (TTP), RM machinery |
//! | [`workload`] | `ringrt-workload` | random and scenario message-set generators |
//! | [`breakdown`] | `ringrt-breakdown` | saturation search, ABU estimation, sweeps |
//! | [`des`] | `ringrt-des` | deterministic discrete-event engine |
//! | [`sim`] | `ringrt-sim` | frame-level 802.5 and FDDI simulators |
//! | [`net`] | `ringrt-net` | epoll readiness loop, framing buffers, idle wheel, connection slab |
//! | [`service`] | `ringrt-service` | online admission-control TCP server with result cache |
//! | [`registry`] | `ringrt-registry` | persistent named-ring registry, journaled state, incremental admission |
//! | [`obs`] | `ringrt-obs` | flight-recorder tracing, Chrome trace JSON, Prometheus exposition |
//!
//! # Quickstart
//!
//! Decide which protocol can guarantee a message set on a 16 Mbps ring:
//!
//! ```
//! use ringrt::prelude::*;
//!
//! let set = MessageSet::new(vec![
//!     SyncStream::new(Seconds::from_millis(20.0), Bits::new(20_000)),
//!     SyncStream::new(Seconds::from_millis(50.0), Bits::new(60_000)),
//!     SyncStream::new(Seconds::from_millis(100.0), Bits::new(120_000)),
//! ])?;
//!
//! let bw = Bandwidth::from_mbps(16.0);
//! let pdp = PdpAnalyzer::new(
//!     RingConfig::ieee_802_5(3, bw),
//!     FrameFormat::paper_default(),
//!     PdpVariant::Modified,
//! );
//! let ttp = TtpAnalyzer::with_defaults(RingConfig::fddi(3, bw));
//!
//! assert!(pdp.is_schedulable(&set));
//! assert!(ttp.is_schedulable(&set));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Strongly-typed physical units (re-export of `ringrt-units`).
pub mod units {
    pub use ringrt_units::*;
}

/// Deterministic multi-core execution pool (re-export of `ringrt-exec`).
pub mod exec {
    pub use ringrt_exec::*;
}

/// Message-set and ring-network models (re-export of `ringrt-model`).
pub mod model {
    pub use ringrt_model::*;
}

/// Schedulability criteria for both protocols (re-export of `ringrt-core`).
pub mod analysis {
    pub use ringrt_core::*;
}

/// Message-set generation (re-export of `ringrt-workload`).
pub mod workload {
    pub use ringrt_workload::*;
}

/// Breakdown-utilization estimation and sweeps (re-export of
/// `ringrt-breakdown`).
pub mod breakdown {
    pub use ringrt_breakdown::*;
}

/// Discrete-event simulation engine (re-export of `ringrt-des`).
pub mod des {
    pub use ringrt_des::*;
}

/// Frame-level MAC simulators (re-export of `ringrt-sim`).
pub mod sim {
    pub use ringrt_sim::*;
}

/// The registry journal's CRC-32, kept at its old `frames::crc` path.
pub mod frames {
    pub use ringrt_registry::crc;
}

/// Readiness event-loop primitives — epoll poller, wakeup pipe, newline
/// framing, idle wheel, connection slab (re-export of `ringrt-net`).
pub mod net {
    pub use ringrt_net::*;
}

/// Online admission-control server (re-export of `ringrt-service`).
pub mod service {
    pub use ringrt_service::*;
}

/// Persistent ring registry with journaled state and incremental
/// admission re-analysis (re-export of `ringrt-registry`).
pub mod registry {
    pub use ringrt_registry::*;
}

/// Flight-recorder tracing and metrics exposition (re-export of
/// `ringrt-obs`).
pub mod obs {
    pub use ringrt_obs::*;
}

/// The most common imports in one place.
pub mod prelude {
    pub use crate::analysis::pdp::{PdpAnalyzer, PdpVariant};
    pub use crate::analysis::ttp::{SbaScheme, TtpAnalyzer, TtrtPolicy};
    pub use crate::analysis::SchedulabilityTest;
    pub use crate::model::{FrameFormat, MessageSet, RingConfig, StreamId, SyncStream};
    pub use crate::sim::{PdpSimulator, Phasing, SimConfig, TtpSimulator};
    pub use crate::units::{Bandwidth, Bits, Bytes, Seconds};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_covers_the_quickstart_path() {
        let set = MessageSet::new(vec![SyncStream::new(
            Seconds::from_millis(50.0),
            Bits::new(10_000),
        )])
        .unwrap();
        let bw = Bandwidth::from_mbps(10.0);
        let pdp = PdpAnalyzer::new(
            RingConfig::ieee_802_5(1, bw),
            FrameFormat::paper_default(),
            PdpVariant::Standard,
        );
        assert!(pdp.is_schedulable(&set));
        let _ = StreamId(0);
    }
}
