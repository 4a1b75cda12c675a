//! Online admission-control service for the `ringrt` analysis kernels.
//!
//! Kamat & Zhao's schedulability criteria answer an *admission* question —
//! "may this synchronous message set enter the ring?" — and in a deployed
//! network that question arrives online, from many clients, with latency
//! expectations of its own. This crate serves the analytic kernels
//! (`ringrt-core`), the saturation boundary search (`ringrt-breakdown`)
//! and the frame-level simulator (`ringrt-sim`) over a TCP socket with the
//! operational envelope such a component needs:
//!
//! * a **newline-delimited text protocol** ([`protocol`]) reusing the
//!   CLI's message-set format inline;
//! * a **bounded worker pool** ([`server`]) that sheds load with an
//!   explicit `BUSY` when the queue is full and expires requests that
//!   overstay their per-request deadline — an admission controller that
//!   itself degrades predictably;
//! * a **sharded, canonicalizing result cache** ([`cache`]) so repeated
//!   verdict queries cost a hash lookup, not a re-analysis;
//! * **observability** ([`metrics`]): request/outcome counters,
//!   per-command and per-stage (parse / cache / queue-wait / execute /
//!   respond) latency histograms (reusing the simulator's log-bucket
//!   [`DurationHistogram`](ringrt_des::stats::DurationHistogram)),
//!   exported through `STATS` (plain text), `METRICS` (Prometheus text
//!   exposition), and `TRACE` (recent `ringrt-obs` flight-recorder spans
//!   as Chrome trace-event JSON); `STATS RESET` starts a fresh
//!   measurement window without touching gauges or warm cache entries;
//! * **graceful shutdown** that drains queued and in-flight work before
//!   the threads exit.
//!
//! Start it from the CLI with `ringrt serve`, or embed it:
//!
//! ```
//! use std::io::{BufRead, BufReader, Write};
//! use std::net::TcpStream;
//!
//! let server = ringrt_service::spawn(ringrt_service::ServiceConfig {
//!     addr: "127.0.0.1:0".into(),
//!     workers: 2,
//!     ..Default::default()
//! })?;
//!
//! let mut conn = TcpStream::connect(server.addr())?;
//! writeln!(conn, "CHECK mbps=16 set=20,20000;50,60000 protocol=modified")?;
//! let mut reply = String::new();
//! BufReader::new(conn.try_clone()?).read_line(&mut reply)?;
//! assert!(reply.contains("schedulable=true"), "{reply}");
//!
//! server.join();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
mod event;
pub mod metrics;
pub mod protocol;
pub mod replication;
mod report;
pub mod server;
#[cfg(test)]
mod ship_fuzz;

pub use cache::{CacheKey, ResultCache};
pub use protocol::{
    check_stations, parse_request, AbuRequest, AnalysisRequest, CommandKind, ProtocolKind, Request,
    RingSpec, DEFAULT_ABU_SAMPLES, MAX_ABU_SAMPLES, MAX_BATCH, MAX_LINE_BYTES, MAX_SIM_SECONDS,
    MAX_STATIONS,
};
pub use replication::{ReplicationState, Role};
pub use server::{spawn, ServerHandle, ServiceConfig};
