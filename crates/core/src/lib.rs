//! Schedulability criteria for two token ring protocols.
//!
//! This crate is the primary contribution of the reproduction of
//! *"Real-Time Schedulability of Two Token Ring Protocols"* (Kamat & Zhao,
//! ICDCS 1993). It answers, for a given ring and synchronous message set,
//! the question **"can every message always meet its deadline?"** under:
//!
//! * the **priority-driven protocol** ([`pdp`]) — IEEE 802.5 style priority
//!   arbitration implementing the rate-monotonic policy, in both the
//!   standard and a modified (token-holding) variant, via the paper's
//!   Theorem 4.1 (a Lehoczky–Sha–Ding exact test with blocking and
//!   overhead-augmented message lengths);
//! * the **timed token protocol** ([`ttp`]) — FDDI style timed token with
//!   the local synchronous-bandwidth allocation scheme, via the paper's
//!   Theorem 5.1, plus the `√(Θ'·P_min)` TTRT selection heuristic and a
//!   family of alternative allocation schemes.
//!
//! Shared rate-monotonic machinery (Liu–Layland bound, scheduling-point
//! exact characterization, response-time analysis) lives in [`rm`];
//! service bounds for best-effort asynchronous traffic live in [`asynch`].
//!
//! The [`SchedulabilityTest`] trait gives the two protocols a common
//! interface so the Monte-Carlo breakdown-utilization machinery (crate
//! `ringrt-breakdown`) can drive either one. [`ProtocolKind`] names the
//! three protocols the paper compares — IEEE 802.5, the modified 802.5 and
//! FDDI — and builds each one's ring and test.
//!
//! # Examples
//!
//! ```
//! use ringrt_core::pdp::{PdpAnalyzer, PdpVariant};
//! use ringrt_core::ttp::TtpAnalyzer;
//! use ringrt_core::SchedulabilityTest;
//! use ringrt_model::{FrameFormat, MessageSet, RingConfig, SyncStream};
//! use ringrt_units::{Bandwidth, Bits, Seconds};
//!
//! let set = MessageSet::new(vec![
//!     SyncStream::new(Seconds::from_millis(20.0), Bits::new(10_000)),
//!     SyncStream::new(Seconds::from_millis(50.0), Bits::new(40_000)),
//! ])?;
//!
//! let ring = RingConfig::ieee_802_5(2, Bandwidth::from_mbps(4.0));
//! let pdp = PdpAnalyzer::new(ring, FrameFormat::paper_default(), PdpVariant::Standard);
//! assert!(pdp.is_schedulable(&set));
//!
//! let ring = RingConfig::fddi(2, Bandwidth::from_mbps(100.0));
//! let ttp = TtpAnalyzer::with_defaults(ring);
//! assert!(ttp.is_schedulable(&set));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asynch;
pub mod pdp;
pub mod rm;
pub mod ttp;

mod protocol;

pub use protocol::{Boundary, ProtocolKind, ScalingProbe, SchedulabilityTest};
pub use ringrt_model::SetView;
