//! # ringrt-registry — persistent rings with incremental admission
//!
//! A named-ring registry for long-running admission-control servers: each
//! ring carries a protocol configuration ([`RingSpec`]) and the set of
//! streams admitted so far, persisted through an append-only journal with
//! periodic snapshot compaction (std-only, no external storage engine).
//!
//! On top of the store sits an **incremental admission engine**: admitting
//! or removing a single stream re-runs only the part of the paper's
//! schedulability test that can actually change —
//!
//! * **PDP (Theorem 4.1):** only deadline-monotonic priority levels at or
//!   below the new stream's rank are re-tested; removal is free.
//! * **TTP (Theorem 5.1):** the single inequality is updated by the new
//!   stream's term when the negotiated TTRT is bit-identical, reproducing
//!   the full test's floating-point result exactly.
//!
//! Debug builds assert that every incremental verdict matches a
//! from-scratch recomputation; [`CheckOutcome::evaluations`] exposes the
//! work saved so servers can prove the speedup in their metrics.
//!
//! ## Example
//!
//! ```
//! use ringrt_registry::{ProtocolKind, RingRegistry, RingSpec};
//! use ringrt_model::SyncStream;
//! use ringrt_units::{Bits, Seconds};
//!
//! let registry = RingRegistry::in_memory();
//! registry.register(
//!     "lab",
//!     RingSpec { protocol: ProtocolKind::Fddi, mbps: 100.0, stations: Some(16) },
//! )?;
//! let out = registry.admit(
//!     "lab",
//!     "camera-1",
//!     SyncStream::new(Seconds::from_millis(20.0), Bits::new(100_000)),
//! )?;
//! assert!(out.applied);
//! let out = registry.admit(
//!     "lab",
//!     "camera-2",
//!     SyncStream::new(Seconds::from_millis(50.0), Bits::new(200_000)),
//! )?;
//! assert!(out.check.incremental); // delta-updated Theorem 5.1
//! # Ok::<(), ringrt_registry::RegistryError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
mod engine;
mod failpoint;
mod journal;
mod registry;
mod spec;

pub use engine::CheckOutcome;
pub use failpoint::{FailpointFs, FaultPlan};
pub use journal::{JournalOp, ReplayStats, Store, StoreOptions, DEFAULT_SEGMENT_BYTES};
pub use registry::{
    AdmissionOutcome, RegistryMetrics, ReplicatedApply, RingCheck, RingPage, RingRegistry,
    ShipSubscription,
};
pub use ringrt_store::{StoreStats, StreamHandle, StreamStore};
pub use spec::{
    validate_name, NamedStream, ProtocolKind, RegistryError, RingSpec, RingState, Rings,
    MAX_NAME_LEN,
};
