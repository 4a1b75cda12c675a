//! A small deterministic discrete-event simulation engine.
//!
//! The `ringrt-sim` token-ring simulator needs three things from its
//! substrate, all provided here:
//!
//! * an [`EventQueue`] over integer [`SimTime`](ringrt_units::SimTime)
//!   with **deterministic tie-breaking** (same-time events pop by a tie
//!   rank the model gives them, then in insertion order), so simulations
//!   are exactly reproducible;
//! * a monotone simulation clock enforced by the queue (events cannot be
//!   scheduled in the past);
//! * measurement utilities ([`stats`]) — counters, time-weighted gauges and
//!   simple tallies — for deadline misses, rotation times, throughput.
//!
//! The engine is deliberately single-threaded: determinism is worth more
//! than parallelism at the event rates involved here (one token ring pops
//! a few million events per simulated second at most).
//!
//! # Examples
//!
//! A two-event ping-pong:
//!
//! ```
//! use ringrt_des::EventQueue;
//! use ringrt_units::{SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut q = EventQueue::new();
//! q.schedule_at(SimTime::ZERO, Ev::Ping);
//! let mut log = Vec::new();
//! while let Some((t, ev)) = q.pop() {
//!     match ev {
//!         Ev::Ping => {
//!             log.push((t, "ping"));
//!             if t < SimTime::from_picos(2_000) {
//!                 q.schedule_after(SimDuration::from_picos(1_000), Ev::Pong);
//!             }
//!         }
//!         Ev::Pong => {
//!             log.push((t, "pong"));
//!             q.schedule_after(SimDuration::from_picos(1_000), Ev::Ping);
//!         }
//!     }
//! }
//! assert_eq!(log.len(), 3); // ping@0, pong@1ns, ping@2ns
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod stats;

mod queue;

pub use queue::EventQueue;
