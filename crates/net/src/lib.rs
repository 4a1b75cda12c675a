//! Std-only readiness event-loop primitives for the ringrt service.
//!
//! A thread per connection caps the client population a node can hold
//! at thread-spawn scale, so the admission service serves every
//! connection from one readiness loop. This crate supplies the pieces of
//! that loop — the shape that holds 10⁵ connections per node — without
//! adding any external dependency, in keeping with the workspace's
//! offline vendoring discipline:
//!
//! - [`Poller`] — a level-triggered epoll instance behind a safe API
//!   ([`Poller::register`] / [`Poller::wait`]); the only `unsafe` in the
//!   workspace lives in this crate's `sys`-module FFI bindings.
//! - [`Waker`] — a nonblocking pipe that lets worker threads interrupt a
//!   blocked [`Poller::wait`] when responses are ready to flush.
//! - [`LineBuffer`] / [`WriteBuffer`] — per-connection newline framing
//!   over arbitrary read fragments, with an enforced maximum line length,
//!   and write buffering across partial sends.
//! - [`IdleWheel`] — a coarse hashed timer wheel (lazy re-arm) driving
//!   idle timeouts and partial-line read deadlines.
//! - [`ConnTable`] — a bounded slab whose tokens carry a generation
//!   stamp, so readiness events for already-closed connections cannot
//!   alias onto their slot's next tenant.
//! - [`rlimit`] — fd-limit introspection so servers and benchmarks can
//!   size themselves to what the host allows.
//!
//! Only [`Poller`] and [`Waker`] require Linux; on other targets their
//! constructors return [`std::io::ErrorKind::Unsupported`], and so does
//! the service's `spawn`.
//! The framing buffers, wheel, and table are pure data structures and
//! work (and are tested) everywhere.
//!
//! # Example
//!
//! ```no_run
//! use ringrt_net::{Interest, Poller, Token, Waker};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let mut poller = Poller::new(1024)?;
//! let waker = Arc::new(Waker::new()?);
//! waker.register(&poller, Token(u64::MAX))?;
//!
//! let mut events = Vec::new();
//! poller.wait(&mut events, Some(Duration::from_millis(25)))?;
//! for event in &events {
//!     if event.token == Token(u64::MAX) {
//!         waker.drain();
//!         // ... drain completion queue, flush responses ...
//!     }
//! }
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod buffer;
mod poller;
pub mod rlimit;
mod sys;
mod table;
mod timer;
mod wake;

pub use buffer::{LineBuffer, LineTooLong, WriteBuffer};
pub use poller::{Event, Interest, Poller, Token};
pub use table::ConnTable;
pub use timer::IdleWheel;
pub use wake::Waker;
