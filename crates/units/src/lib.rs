//! Strongly-typed physical units for the `ringrt` suite.
//!
//! The schedulability analyses of Kamat & Zhao (ICDCS 1993) juggle three
//! kinds of quantities that are all too easy to confuse when expressed as
//! bare `f64`s:
//!
//! * **durations** — message transmission times, periods, deadlines, the
//!   token walk time `WT`, the token circulation time `Θ`;
//! * **data sizes** — payload and overhead lengths in bits or bytes;
//! * **rates** — the ring bandwidth `BW` in bits per second.
//!
//! This crate provides zero-cost newtypes ([`Seconds`], [`Bits`], [`Bytes`],
//! [`Bandwidth`]) with only the physically meaningful arithmetic defined, so
//! `Bits / Bandwidth = Seconds` type-checks while `Seconds + Bits` does not.
//!
//! The discrete-event simulator needs an exact, totally ordered clock; IEEE
//! 754 doubles are unsuitable because event ordering must be reproducible.
//! [`SimTime`] and [`SimDuration`] provide an integer picosecond timeline
//! (u64 picoseconds span ~5.3 years of simulated time, ample for any run
//! here) with explicit, lossless arithmetic and checked conversions from the
//! analysis-domain [`Seconds`].
//!
//! # Examples
//!
//! ```
//! use ringrt_units::{Bandwidth, Bits, Seconds};
//!
//! let bw = Bandwidth::from_mbps(4.0);
//! let frame = Bits::new(512 + 112);
//! let t: Seconds = bw.transmission_time(frame);
//! assert!((t.as_secs_f64() - 156e-6).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bandwidth;
mod data;
mod sim_time;
mod time;

pub use bandwidth::{Bandwidth, InvalidBandwidth};
pub use data::{Bits, Bytes};
pub use sim_time::{SimDuration, SimTime, PICOS_PER_SEC};
pub use time::Seconds;
