//! The wire protocol: newline-delimited, human-readable requests and
//! single-line responses.
//!
//! # Request grammar
//!
//! ```text
//! CHECK      mbps=<f64> set=<p_ms,bits[;p_ms,bits…]> [protocol=802.5|modified|fddi] [stations=<n>] [deadline_ms=<n>]
//! CHECK      ring=<name> [deadline_ms=<n>]          # stored-ring mode
//! SATURATION mbps=<f64> set=<…> [protocol=<…>] [stations=<n>] [deadline_ms=<n>]   (or ring=<name>)
//! SIMULATE   mbps=<f64> set=<…> [protocol=<…>] [stations=<n>] [seconds=<f64>] [async_load=<f64>] [seed=<n>] [deadline_ms=<n>]   (or ring=<name>)
//! ABU        mbps=<f64> stations=<n> [samples=<n>] [seed=<n>] [protocol=<…>] [deadline_ms=<n>]
//! REGISTER   ring=<name> protocol=<…> mbps=<f64> [stations=<n>]
//! ADMIT      ring=<name> stream=<name> period_ms=<f64> bits=<u64> [deadline_ms=<f64>]
//! REMOVE     ring=<name> stream=<name>
//! UNREGISTER ring=<name>
//! SHOW       [ring=<name>]
//! BATCH      <n>                          # next n lines answered in one write
//! SLEEP      ms=<n>                       # diagnostic: occupies a worker
//! TRACE      [n]                          # drain ≤ n recent spans as trace JSON
//! STATS RESET                             # zero counters and histograms
//! SYNC       [epoch=<n>] [seq=<n>]        # subscribe to journal shipping (follower → primary)
//! PROMOTE                                 # promote a follower to primary with a fresh epoch
//! REPLICATION                             # one-line replication status
//! PING | STATS | METRICS | EVICT | COMPACT | SHUTDOWN
//! ```
//!
//! `set` carries the CLI's message-set records inline: the same
//! `period_ms, payload_bits` pairs a set file holds, `;`-separated instead
//! of newline-separated (see [`ringrt_model::setfmt`]).
//!
//! The registry commands (`REGISTER`/`ADMIT`/`REMOVE`/`UNREGISTER`/`SHOW`)
//! operate on the server's persistent ring registry; `ADMIT`'s
//! `deadline_ms` is the **stream's relative deadline**, not a queue
//! deadline — registry commands run in arrival order on the server's
//! registry thread and never queue behind analyses.
//! `BATCH <n>` reads the next `n` request lines, answers them in order,
//! and writes all responses in a single syscall.
//!
//! # Responses
//!
//! One line per request: `OK key=value …`, `BUSY queue_capacity=<n>` when
//! the admission queue is full (load shedding), or `ERR <message>`
//! (`ERR internal` when the request's code panicked).
//!
//! Only queued work is shed or expires: `deadline_ms` bounds the time a
//! request waits in the queue. A `CHECK` the server answers without
//! queueing — a cached verdict, or a cache miss whose analysis fits the
//! event loop's work budget — is never answered `BUSY` and never expires.
//!
//! Two commands answer with a framed multi-line body after the `OK` line:
//! `METRICS` (`OK cmd=metrics lines=<n>` followed by `n` Prometheus text
//! exposition lines) and `TRACE` (`OK cmd=trace events=<k>` followed by
//! one line of Chrome trace-event JSON). The header tells a client exactly
//! how many further lines to read.
//!
//! A server running as a warm standby (`serve --follow`) answers every
//! mutation (`REGISTER`/`ADMIT`/`REMOVE`/`UNREGISTER`/`COMPACT`) with a
//! structured redirect instead of an error:
//! `READONLY cmd=<c> primary=<addr> epoch=<n>` — inside a `BATCH`, only
//! the mutating frames are redirected; reads in the same batch answer
//! normally.
//!
//! `SYNC` turns the connection into a one-way journal-shipping stream:
//! after `OK cmd=sync epoch=<e> head=<h> snapshot=<0|1> backlog=<n>` the
//! server sends `SHIP snapshot seq=<s> lines=<k>` (plus `k` raw snapshot
//! lines) when the requested start predates the journal, then one
//! `SHIP record <record-line>` per backlog and live journal record, with
//! periodic `SHIP ping epoch=<e> head=<h>` keepalives. A `SYNC` whose
//! nonzero `epoch` does not match the serving epoch is refused with the
//! fencing error (`ERR cmd=sync fenced …`) so a revived stale primary and
//! its orphans cannot split-brain; `epoch=0` means "fresh follower,
//! adopt yours".

use ringrt_model::setfmt::{scan_message_set, Records};
use ringrt_model::{MessageSet, SyncStream};
use ringrt_sim::SimConfig;
use ringrt_units::{Bits, Seconds};

pub use ringrt_registry::{ProtocolKind, RingSpec};

/// Largest pipelined batch a single `BATCH` header may announce.
pub const MAX_BATCH: usize = 1024;

/// Largest request line (bytes, excluding the newline) the server
/// accepts. Longer lines are answered with an error and the connection is
/// closed — an unbounded line is memory a client controls.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Largest Monte-Carlo sample count a single `ABU` request may demand —
/// it pins a worker (and fans over the execution pool) for the duration.
pub const MAX_ABU_SAMPLES: usize = 5_000;

/// `ABU` sample count when the request does not say.
pub const DEFAULT_ABU_SAMPLES: usize = 100;

/// Longest `SIMULATE` run, in simulated seconds: a longer one would pin a
/// worker for minutes.
pub const MAX_SIM_SECONDS: f64 = 5.0;

/// Largest ring an `ABU` or `SIMULATE` request may run on, far above the
/// 250 stations of an 802.5 ring or the 500 of an FDDI ring. `ABU` draws
/// one stream per station for every sample, and the simulators keep
/// per-station state and walk the token past every station; a count the
/// ring model still holds can ask either for more memory than the host
/// has, or overflow the simulator's picosecond clock. `CHECK`,
/// `SATURATION` and `REGISTER` take any count the ring model holds.
pub const MAX_STATIONS: usize = 10_000;

/// Largest event count a single `TRACE` request may drain.
pub const MAX_TRACE_EVENTS: usize = 65_536;

/// `TRACE` event count when the request does not say.
pub const DEFAULT_TRACE_EVENTS: usize = 256;

/// Which analysis a queued request runs; indexes the per-command metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandKind {
    /// Admission verdict (Theorem 4.1 / 5.1).
    Check,
    /// Saturation boundary search.
    Saturation,
    /// Bounded frame-level simulation.
    Simulate,
    /// Monte-Carlo average-breakdown-utilization estimation.
    Abu,
    /// Diagnostic worker occupation.
    Sleep,
}

impl CommandKind {
    /// All queued commands, in metrics order.
    pub const ALL: [CommandKind; 5] = [
        CommandKind::Check,
        CommandKind::Saturation,
        CommandKind::Simulate,
        CommandKind::Abu,
        CommandKind::Sleep,
    ];

    /// Metrics slot.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            CommandKind::Check => 0,
            CommandKind::Saturation => 1,
            CommandKind::Simulate => 2,
            CommandKind::Abu => 3,
            CommandKind::Sleep => 4,
        }
    }

    /// Lower-case wire token (also the metrics field prefix).
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            CommandKind::Check => "check",
            CommandKind::Saturation => "saturation",
            CommandKind::Simulate => "simulate",
            CommandKind::Abu => "abu",
            CommandKind::Sleep => "sleep",
        }
    }
}

/// Shared parameters of the three analysis commands.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisRequest {
    /// Which analysis to run.
    pub command: CommandKind,
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Ring bandwidth in Mbps.
    pub mbps: f64,
    /// The synchronous message set to admit.
    pub set: MessageSet,
    /// Ring stations (defaults to the stream count; never below it).
    pub stations: Option<usize>,
    /// Simulated seconds (SIMULATE only).
    pub seconds: f64,
    /// Offered asynchronous load fraction (SIMULATE only).
    pub async_load: f64,
    /// RNG seed (SIMULATE only).
    pub seed: u64,
    /// Per-request queue deadline override, milliseconds.
    pub deadline_ms: Option<u64>,
}

impl AnalysisRequest {
    /// Effective station count (at least the stream count).
    #[must_use]
    pub fn effective_stations(&self) -> usize {
        self.stations.unwrap_or(self.set.len()).max(self.set.len())
    }
}

/// Parameters of an `ABU` request: estimate the average breakdown
/// utilization of the paper's Monte-Carlo population on a ring, fanning
/// the samples across the server's execution pool. The sample stream is
/// seed-deterministic and **bit-identical at any pool width**, which is
/// what makes the result cacheable.
#[derive(Debug, Clone, PartialEq)]
pub struct AbuRequest {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Ring bandwidth in Mbps.
    pub mbps: f64,
    /// Stations on the ring (also the population's stream count).
    pub stations: usize,
    /// Monte-Carlo samples, `1..=`[`MAX_ABU_SAMPLES`].
    pub samples: usize,
    /// Master RNG seed for the sample stream.
    pub seed: u64,
    /// Per-request queue deadline override, milliseconds.
    pub deadline_ms: Option<u64>,
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// An analysis to run on the worker pool.
    Analysis(AnalysisRequest),
    /// A Monte-Carlo ABU estimation on the worker pool.
    Abu(AbuRequest),
    /// An analysis of a **stored ring**'s admitted set; the server resolves
    /// the ring before execution. `CHECK` runs on the registry thread as a
    /// full (counted) re-analysis; the other commands queue like any
    /// analysis.
    RingAnalysis {
        /// Which analysis to run.
        command: CommandKind,
        /// The registered ring to analyze.
        ring: String,
        /// Simulated seconds (SIMULATE only).
        seconds: f64,
        /// Offered asynchronous load fraction (SIMULATE only).
        async_load: f64,
        /// RNG seed (SIMULATE only).
        seed: u64,
        /// Per-request queue deadline override, milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Register a new named ring.
    Register {
        /// Ring name.
        ring: String,
        /// Its configuration.
        spec: RingSpec,
    },
    /// Admission-test a stream and, if schedulable, admit it.
    Admit {
        /// Target ring.
        ring: String,
        /// Client-chosen stream name (unique within the ring).
        stream: String,
        /// The candidate stream.
        candidate: SyncStream,
    },
    /// Remove a named stream from a ring.
    Remove {
        /// Target ring.
        ring: String,
        /// Stream to remove.
        stream: String,
    },
    /// Drop a ring and all its streams.
    Unregister {
        /// Ring to drop.
        ring: String,
    },
    /// List rings, or dump one ring's admitted set.
    Show {
        /// `None` lists ring names; `Some` dumps that ring.
        ring: Option<String>,
        /// Page size: dump at most this many streams (requires `ring`).
        limit: Option<usize>,
        /// Skip this many streams in admission order before the page.
        offset: Option<usize>,
    },
    /// Answer the next `count` request lines in one write.
    Batch {
        /// Number of pipelined request lines that follow.
        count: usize,
    },
    /// Drop every result-cache entry, reporting how many were evicted.
    Evict,
    /// Fold the registry journal into a snapshot.
    Compact,
    /// Diagnostic: occupy a worker for the given milliseconds.
    Sleep {
        /// Sleep length (capped by the server).
        ms: u64,
        /// Per-request queue deadline override.
        deadline_ms: Option<u64>,
    },
    /// Liveness probe, answered inline.
    Ping,
    /// Metrics snapshot, answered inline.
    Stats,
    /// Zero the server's counters and latency histograms (gauges such as
    /// `exec_threads` or the cache entry count reflect live state and are
    /// untouched), so load experiments can take clean deltas.
    StatsReset,
    /// All counters, gauges, and latency histograms in Prometheus text
    /// exposition format, answered inline.
    Metrics,
    /// Drain up to `count` recent flight-recorder spans as Chrome
    /// trace-event JSON, answered inline.
    Trace {
        /// Maximum events to return (most recent first retained).
        count: usize,
    },
    /// Subscribe this connection to journal shipping: the server streams
    /// `SHIP` frames from `seq` onward until the connection drops.
    Sync {
        /// The epoch the requester last replicated under (0 = fresh
        /// follower with no history; adopts the serving epoch).
        epoch: u64,
        /// First journal sequence number the requester still needs.
        seq: u64,
        /// Cluster identity of the requester's journal (0 = fresh journal
        /// with no identity yet; adopts the primary's). A nonzero mismatch
        /// is refused — shipping frames between unrelated journals would
        /// silently interleave two histories.
        cluster: u64,
    },
    /// Promote a follower to primary under a freshly fenced epoch.
    Promote,
    /// One-line replication status (role, epoch, lag, peers).
    Replication,
    /// Begin graceful shutdown.
    Shutdown,
}

/// Parses one request line.
///
/// # Errors
///
/// A human-readable message describing the first problem found; the server
/// sends it back as `ERR <message>`.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut words = line.split_whitespace();
    let cmd = words.next().ok_or_else(|| "empty request".to_owned())?;
    if cmd.eq_ignore_ascii_case("BATCH") {
        // BATCH is the one positional command: `BATCH <n>`.
        let count = words
            .next()
            .ok_or_else(|| "BATCH requires a line count".to_owned())?;
        if words.next().is_some() {
            return Err("BATCH takes exactly one argument".to_owned());
        }
        let count: usize = count
            .parse()
            .map_err(|_| format!("invalid batch count `{count}`"))?;
        if count == 0 || count > MAX_BATCH {
            return Err(format!("batch count must be in 1..={MAX_BATCH}"));
        }
        return Ok(Request::Batch { count });
    }
    if cmd.eq_ignore_ascii_case("TRACE") {
        // TRACE is positional like BATCH: `TRACE [n]`.
        let count = match words.next() {
            None => DEFAULT_TRACE_EVENTS,
            Some(text) => {
                if words.next().is_some() {
                    return Err("TRACE takes at most one argument".to_owned());
                }
                let count: usize = text
                    .parse()
                    .map_err(|_| format!("invalid trace event count `{text}`"))?;
                if count == 0 || count > MAX_TRACE_EVENTS {
                    return Err(format!(
                        "trace event count must be in 1..={MAX_TRACE_EVENTS}"
                    ));
                }
                count
            }
        };
        return Ok(Request::Trace { count });
    }
    if cmd.eq_ignore_ascii_case("STATS") {
        // `STATS` alone is the snapshot; `STATS RESET` is the bare-word
        // reset subcommand (no `=`, so it must bypass the key=value loop).
        return match words.next() {
            None => Ok(Request::Stats),
            Some(sub) if sub.eq_ignore_ascii_case("RESET") => {
                if words.next().is_some() {
                    Err("STATS RESET takes no further arguments".to_owned())
                } else {
                    Ok(Request::StatsReset)
                }
            }
            Some(other) => Err(format!("unknown STATS subcommand `{other}`")),
        };
    }
    let mut pairs: Vec<(&str, &str)> = Vec::new();
    for w in words {
        let (k, v) = w
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, found `{w}`"))?;
        pairs.push((k, v));
    }
    // The command word in upper case, in a stack buffer that holds the
    // longest command (`REPLICATION`); a longer word is unknown.
    let mut upper = [0u8; 11];
    let word = match upper.get_mut(..cmd.len()) {
        Some(word) => {
            word.copy_from_slice(cmd.as_bytes());
            word.make_ascii_uppercase();
            std::str::from_utf8(word).expect("ASCII upper-casing keeps UTF-8")
        }
        None => "",
    };
    let command = match word {
        "PING" => return reject_extras(pairs, Request::Ping),
        "METRICS" => return reject_extras(pairs, Request::Metrics),
        "SHUTDOWN" => return reject_extras(pairs, Request::Shutdown),
        "EVICT" => return reject_extras(pairs, Request::Evict),
        "COMPACT" => return reject_extras(pairs, Request::Compact),
        "PROMOTE" => return reject_extras(pairs, Request::Promote),
        "REPLICATION" => return reject_extras(pairs, Request::Replication),
        "SYNC" => {
            check_keys(&pairs, &["epoch", "seq", "cluster"])?;
            let seq: u64 = optional(&pairs, "seq")?.unwrap_or(1);
            if seq == 0 {
                return Err("seq must be at least 1 (journal sequences start there)".to_owned());
            }
            return Ok(Request::Sync {
                epoch: optional(&pairs, "epoch")?.unwrap_or(0),
                seq,
                cluster: optional(&pairs, "cluster")?.unwrap_or(0),
            });
        }
        "SLEEP" => {
            check_keys(&pairs, &["ms", "deadline_ms"])?;
            return Ok(Request::Sleep {
                ms: required(&pairs, "ms")?,
                deadline_ms: optional(&pairs, "deadline_ms")?,
            });
        }
        "REGISTER" => {
            check_keys(&pairs, &["ring", "protocol", "mbps", "stations"])?;
            let protocol = ProtocolKind::parse(
                lookup(&pairs, "protocol").ok_or_else(|| "protocol is required".to_owned())?,
            )?;
            return Ok(Request::Register {
                ring: required_name(&pairs, "ring")?,
                spec: RingSpec {
                    protocol,
                    mbps: required(&pairs, "mbps")?,
                    stations: optional(&pairs, "stations")?,
                },
            });
        }
        "ADMIT" => {
            check_keys(
                &pairs,
                &["ring", "stream", "period_ms", "bits", "deadline_ms"],
            )?;
            let period_ms: f64 = required(&pairs, "period_ms")?;
            let bits: u64 = required(&pairs, "bits")?;
            let candidate = SyncStream::try_new(Seconds::from_millis(period_ms), Bits::new(bits))
                .map_err(|e| format!("invalid stream: {e}"))?;
            let candidate = match optional::<f64>(&pairs, "deadline_ms")? {
                None => candidate,
                Some(d) => candidate
                    .try_with_relative_deadline(Seconds::from_millis(d))
                    .map_err(|e| format!("invalid deadline_ms: {e}"))?,
            };
            return Ok(Request::Admit {
                ring: required_name(&pairs, "ring")?,
                stream: required_name(&pairs, "stream")?,
                candidate,
            });
        }
        "REMOVE" => {
            check_keys(&pairs, &["ring", "stream"])?;
            return Ok(Request::Remove {
                ring: required_name(&pairs, "ring")?,
                stream: required_name(&pairs, "stream")?,
            });
        }
        "UNREGISTER" => {
            check_keys(&pairs, &["ring"])?;
            return Ok(Request::Unregister {
                ring: required_name(&pairs, "ring")?,
            });
        }
        "SHOW" => {
            check_keys(&pairs, &["ring", "limit", "offset"])?;
            let ring = lookup(&pairs, "ring").map(str::to_owned);
            let limit = optional::<usize>(&pairs, "limit")?;
            let offset = optional::<usize>(&pairs, "offset")?;
            if ring.is_none() && (limit.is_some() || offset.is_some()) {
                return Err("limit/offset require ring=".into());
            }
            return Ok(Request::Show {
                ring,
                limit,
                offset,
            });
        }
        "ABU" => {
            check_keys(
                &pairs,
                &[
                    "mbps",
                    "stations",
                    "samples",
                    "seed",
                    "protocol",
                    "deadline_ms",
                ],
            )?;
            let mbps: f64 = required(&pairs, "mbps")?;
            let stations: usize = required(&pairs, "stations")?;
            let samples: usize = optional(&pairs, "samples")?.unwrap_or(DEFAULT_ABU_SAMPLES);
            if samples == 0 || samples > MAX_ABU_SAMPLES {
                return Err(format!("samples must be in 1..={MAX_ABU_SAMPLES}"));
            }
            let protocol = match lookup(&pairs, "protocol") {
                Some(p) => ProtocolKind::parse(p)?,
                None => ProtocolKind::default(),
            };
            RingSpec {
                protocol,
                mbps,
                stations: Some(stations),
            }
            .validate()
            .map_err(|e| e.to_string())?;
            check_stations(stations)?;
            return Ok(Request::Abu(AbuRequest {
                protocol,
                mbps,
                stations,
                samples,
                seed: optional(&pairs, "seed")?.unwrap_or(1),
                deadline_ms: optional(&pairs, "deadline_ms")?,
            }));
        }
        "CHECK" => CommandKind::Check,
        "SATURATION" => CommandKind::Saturation,
        "SIMULATE" => CommandKind::Simulate,
        _ => return Err(format!("unknown command `{}`", cmd.to_ascii_uppercase())),
    };
    if lookup(&pairs, "ring").is_some() {
        // Stored-ring mode: the set comes from the registry, so the inline
        // set parameters are contradictory.
        let allowed: &[&str] = if command == CommandKind::Simulate {
            &["ring", "seconds", "async_load", "seed", "deadline_ms"]
        } else {
            &["ring", "deadline_ms"]
        };
        check_keys(&pairs, allowed)
            .map_err(|e| format!("{e} (ring=… mode takes the set from the registry)"))?;
        let (seconds, async_load) = sim_params(&pairs)?;
        return Ok(Request::RingAnalysis {
            command,
            ring: required_name(&pairs, "ring")?,
            seconds,
            async_load,
            seed: optional(&pairs, "seed")?.unwrap_or(1),
            deadline_ms: optional(&pairs, "deadline_ms")?,
        });
    }
    let allowed: &[&str] = if command == CommandKind::Simulate {
        &[
            "mbps",
            "set",
            "protocol",
            "stations",
            "seconds",
            "async_load",
            "seed",
            "deadline_ms",
        ]
    } else {
        &["mbps", "set", "protocol", "stations", "deadline_ms"]
    };
    check_keys(&pairs, allowed)?;

    let mbps: f64 = required(&pairs, "mbps")?;
    let set_text = lookup(&pairs, "set").ok_or_else(|| "set is required".to_owned())?;
    let set =
        scan_message_set(set_text, Records::Semicolons).map_err(|e| format!("invalid set: {e}"))?;
    let protocol = match lookup(&pairs, "protocol") {
        Some(p) => ProtocolKind::parse(p)?,
        None => ProtocolKind::default(),
    };
    let stations = optional(&pairs, "stations")?;
    // The ring the analysis will build, built once here: a bandwidth or
    // station count the ring model cannot hold is an error reply, not a
    // panic where the request runs.
    RingSpec {
        protocol,
        mbps,
        stations,
    }
    .ring_config(set.len())
    .map_err(|e| e.to_string())?;
    let (seconds, async_load) = sim_params(&pairs)?;
    let req = AnalysisRequest {
        command,
        protocol,
        mbps,
        set,
        stations,
        seconds,
        async_load,
        seed: optional(&pairs, "seed")?.unwrap_or(1),
        deadline_ms: optional(&pairs, "deadline_ms")?,
    };
    if command == CommandKind::Simulate {
        check_stations(req.effective_stations())?;
    }
    Ok(Request::Analysis(req))
}

/// Refuses a ring larger than [`MAX_STATIONS`]; the server checks a
/// stored ring's count again when `SIMULATE ring=` resolves it, and
/// `ringrt abu` checks its `--stations` here too.
///
/// # Errors
///
/// The reply text naming the limit.
pub fn check_stations(stations: usize) -> Result<(), String> {
    if stations > MAX_STATIONS {
        return Err(format!(
            "stations={stations} exceeds the server limit of {MAX_STATIONS}"
        ));
    }
    Ok(())
}

fn sim_params(pairs: &[(&str, &str)]) -> Result<(f64, f64), String> {
    let seconds: f64 = optional(pairs, "seconds")?.unwrap_or(0.5);
    let async_load: f64 = optional(pairs, "async_load")?.unwrap_or(0.0);
    SimConfig::check_run(Seconds::new(seconds), async_load).map_err(|e| e.to_string())?;
    if seconds > MAX_SIM_SECONDS {
        return Err(format!(
            "seconds={seconds} exceeds the server limit of {MAX_SIM_SECONDS}"
        ));
    }
    Ok((seconds, async_load))
}

fn reject_extras(pairs: Vec<(&str, &str)>, req: Request) -> Result<Request, String> {
    if let Some((k, _)) = pairs.first() {
        return Err(format!("unexpected parameter `{k}`"));
    }
    Ok(req)
}

fn check_keys(pairs: &[(&str, &str)], allowed: &[&str]) -> Result<(), String> {
    for (k, _) in pairs {
        if !allowed.contains(k) {
            return Err(format!("unknown parameter `{k}`"));
        }
    }
    Ok(())
}

fn lookup<'a>(pairs: &[(&'a str, &'a str)], key: &str) -> Option<&'a str> {
    pairs.iter().rev().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

/// A required name-valued parameter, validated against the registry's
/// naming rules so malformed names fail fast at the protocol edge.
fn required_name(pairs: &[(&str, &str)], key: &str) -> Result<String, String> {
    let value = lookup(pairs, key).ok_or_else(|| format!("{key} is required"))?;
    ringrt_registry::validate_name(value).map_err(|e| e.to_string())?;
    Ok(value.to_owned())
}

fn required<T: std::str::FromStr>(pairs: &[(&str, &str)], key: &str) -> Result<T, String> {
    optional(pairs, key)?.ok_or_else(|| format!("{key} is required"))
}

fn optional<T: std::str::FromStr>(pairs: &[(&str, &str)], key: &str) -> Result<Option<T>, String> {
    lookup(pairs, key)
        .map(|v| {
            // `f64` parses `NaN`, which no parameter takes.
            let nan = v.trim_start_matches(['+', '-']).eq_ignore_ascii_case("nan");
            v.parse::<T>()
                .ok()
                .filter(|_| !nan)
                .ok_or_else(|| format!("invalid value `{v}` for {key}"))
        })
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_check() {
        let r = parse_request("CHECK mbps=16 set=20,20000;50,60000 protocol=fddi").unwrap();
        match r {
            Request::Analysis(a) => {
                assert_eq!(a.command, CommandKind::Check);
                assert_eq!(a.protocol, ProtocolKind::Fddi);
                assert_eq!(a.mbps, 16.0);
                assert_eq!(a.set.len(), 2);
                assert_eq!(a.effective_stations(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stations_never_below_stream_count() {
        let r = parse_request("check mbps=4 set=20,1000;30,1000;40,1000 stations=2").unwrap();
        match r {
            Request::Analysis(a) => assert_eq!(a.effective_stations(), 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_simulate_defaults() {
        let r = parse_request("SIMULATE mbps=4 set=20,4000").unwrap();
        match r {
            Request::Analysis(a) => {
                assert_eq!(a.command, CommandKind::Simulate);
                assert_eq!(a.seconds, 0.5);
                assert_eq!(a.async_load, 0.0);
                assert_eq!(a.seed, 1);
                assert_eq!(a.protocol, ProtocolKind::Modified);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_control_commands() {
        assert_eq!(parse_request("PING").unwrap(), Request::Ping);
        assert_eq!(parse_request("stats").unwrap(), Request::Stats);
        assert_eq!(parse_request("Shutdown").unwrap(), Request::Shutdown);
        assert_eq!(parse_request("EVICT").unwrap(), Request::Evict);
        assert_eq!(parse_request("compact").unwrap(), Request::Compact);
        assert_eq!(
            parse_request("SLEEP ms=50").unwrap(),
            Request::Sleep {
                ms: 50,
                deadline_ms: None
            }
        );
    }

    #[test]
    fn parses_registry_commands() {
        match parse_request("REGISTER ring=lab protocol=fddi mbps=100 stations=16").unwrap() {
            Request::Register { ring, spec } => {
                assert_eq!(ring, "lab");
                assert_eq!(spec.protocol, ProtocolKind::Fddi);
                assert_eq!(spec.mbps, 100.0);
                assert_eq!(spec.stations, Some(16));
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_request("ADMIT ring=lab stream=cam period_ms=20 bits=100000").unwrap() {
            Request::Admit {
                ring,
                stream,
                candidate,
            } => {
                assert_eq!((ring.as_str(), stream.as_str()), ("lab", "cam"));
                assert!(candidate.has_implicit_deadline());
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_request("ADMIT ring=lab stream=cam period_ms=20 bits=1000 deadline_ms=7.5")
            .unwrap()
        {
            Request::Admit { candidate, .. } => {
                assert!(!candidate.has_implicit_deadline());
                assert_eq!(candidate.relative_deadline(), Seconds::from_millis(7.5));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            parse_request("REMOVE ring=lab stream=cam").unwrap(),
            Request::Remove {
                ring: "lab".into(),
                stream: "cam".into()
            }
        );
        assert_eq!(
            parse_request("UNREGISTER ring=lab").unwrap(),
            Request::Unregister { ring: "lab".into() }
        );
        assert_eq!(
            parse_request("SHOW").unwrap(),
            Request::Show {
                ring: None,
                limit: None,
                offset: None
            }
        );
        assert_eq!(
            parse_request("SHOW ring=lab").unwrap(),
            Request::Show {
                ring: Some("lab".into()),
                limit: None,
                offset: None
            }
        );
        assert_eq!(
            parse_request("SHOW ring=lab limit=10 offset=30").unwrap(),
            Request::Show {
                ring: Some("lab".into()),
                limit: Some(10),
                offset: Some(30)
            }
        );
        assert!(parse_request("SHOW limit=10").is_err());
        assert!(parse_request("SHOW ring=lab limit=x").is_err());
    }

    #[test]
    fn ring_mode_analysis() {
        match parse_request("CHECK ring=lab").unwrap() {
            Request::RingAnalysis { command, ring, .. } => {
                assert_eq!(command, CommandKind::Check);
                assert_eq!(ring, "lab");
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_request("SIMULATE ring=lab seconds=0.25 seed=3").unwrap() {
            Request::RingAnalysis {
                command,
                seconds,
                seed,
                ..
            } => {
                assert_eq!(command, CommandKind::Simulate);
                assert_eq!(seconds, 0.25);
                assert_eq!(seed, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        // ring= and set= are mutually exclusive.
        let err = parse_request("CHECK ring=lab mbps=16 set=20,1000").unwrap_err();
        assert!(err.contains("ring=…"), "{err}");
    }

    #[test]
    fn parses_abu() {
        match parse_request("ABU mbps=100 stations=16 samples=50 seed=9 protocol=fddi").unwrap() {
            Request::Abu(a) => {
                assert_eq!(a.protocol, ProtocolKind::Fddi);
                assert_eq!(a.mbps, 100.0);
                assert_eq!(a.stations, 16);
                assert_eq!(a.samples, 50);
                assert_eq!(a.seed, 9);
                assert_eq!(a.deadline_ms, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_request("abu mbps=16 stations=8").unwrap() {
            Request::Abu(a) => {
                assert_eq!(a.samples, DEFAULT_ABU_SAMPLES);
                assert_eq!(a.seed, 1);
                assert_eq!(a.protocol, ProtocolKind::default());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_request("ABU stations=8")
            .unwrap_err()
            .contains("mbps"));
        assert!(parse_request("ABU mbps=16")
            .unwrap_err()
            .contains("stations"));
        assert!(parse_request("ABU mbps=16 stations=0").is_err());
        assert!(parse_request("ABU mbps=16 stations=8 samples=0").is_err());
        assert!(parse_request(&format!(
            "ABU mbps=16 stations=8 samples={}",
            MAX_ABU_SAMPLES + 1
        ))
        .is_err());
        assert!(parse_request("ABU mbps=16 stations=8 set=20,1000").is_err());
    }

    #[test]
    fn parses_observability_commands() {
        assert_eq!(parse_request("METRICS").unwrap(), Request::Metrics);
        assert_eq!(parse_request("metrics").unwrap(), Request::Metrics);
        assert!(parse_request("METRICS extra=1").is_err());

        assert_eq!(
            parse_request("TRACE").unwrap(),
            Request::Trace {
                count: DEFAULT_TRACE_EVENTS
            }
        );
        assert_eq!(
            parse_request("TRACE 16").unwrap(),
            Request::Trace { count: 16 }
        );
        assert_eq!(
            parse_request("trace 1000").unwrap(),
            Request::Trace { count: 1000 }
        );
        assert!(parse_request("TRACE 0").is_err());
        assert!(parse_request("TRACE twelve").is_err());
        assert!(parse_request(&format!("TRACE {}", MAX_TRACE_EVENTS + 1)).is_err());
        assert!(parse_request("TRACE 3 4").is_err());

        assert_eq!(parse_request("STATS RESET").unwrap(), Request::StatsReset);
        assert_eq!(parse_request("stats reset").unwrap(), Request::StatsReset);
        assert!(parse_request("STATS RESET now").is_err());
        assert!(parse_request("STATS FLIP").is_err());
    }

    #[test]
    fn parses_batch_header() {
        assert_eq!(
            parse_request("BATCH 32").unwrap(),
            Request::Batch { count: 32 }
        );
        assert!(parse_request("BATCH").is_err());
        assert!(parse_request("BATCH 0").is_err());
        assert!(parse_request("BATCH 100000").is_err());
        assert!(parse_request("BATCH twelve").is_err());
        assert!(parse_request("BATCH 3 4").is_err());
    }

    #[test]
    fn rejects_bad_requests() {
        assert!(parse_request("").is_err());
        assert!(parse_request("FROBNICATE").is_err());
        assert!(parse_request("CHECK set=20,1000")
            .unwrap_err()
            .contains("mbps"));
        assert!(parse_request("CHECK mbps=4").unwrap_err().contains("set"));
        assert!(parse_request("CHECK mbps=-1 set=20,1000").is_err());
        assert!(parse_request("CHECK mbps=4 set=bogus").is_err());
        assert!(parse_request("CHECK mbps=4 set=20,1000 protocol=atm").is_err());
        assert!(parse_request("CHECK mbps=4 set=20,1000 bogus_key=1").is_err());
        assert!(parse_request("PING extra=1").is_err());
        assert!(parse_request("SIMULATE mbps=4 set=20,1000 seconds=-1").is_err());
        assert!(parse_request("SIMULATE mbps=4 set=20,1000 async_load=1.5").is_err());
        assert!(parse_request("SLEEP").unwrap_err().contains("ms"));
        assert!(parse_request("CHECK mbps=4 set").is_err());
        // Registry parameter validation at the protocol edge.
        assert!(parse_request("REGISTER ring=has;semicolon protocol=fddi mbps=100").is_err());
        assert!(
            parse_request("ADMIT ring=r stream=s period_ms=20 bits=1000 deadline_ms=25")
                .unwrap_err()
                .contains("deadline_ms")
        );
        assert!(parse_request("ADMIT ring=r stream=s period_ms=-3 bits=1000").is_err());
        // NaN parses as an f64 but is no duration: refused before it
        // reaches a constructor that would panic on it.
        for line in [
            "ADMIT ring=r stream=s period_ms=NaN bits=1000",
            "ADMIT ring=r stream=s period_ms=20 bits=1000 deadline_ms=nan",
            "SIMULATE mbps=4 set=20,1000 seconds=-NaN",
            "SIMULATE ring=lab seconds=NaN",
            "CHECK mbps=NaN set=20,1000",
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.starts_with("invalid value"), "{line}: {err}");
        }
        assert!(parse_request("REGISTER protocol=fddi mbps=100")
            .unwrap_err()
            .contains("ring"));
    }

    #[test]
    fn simulate_rejects_overlong_runs_before_they_queue() {
        for line in [
            "SIMULATE mbps=4 set=20,4000 seconds=3600",
            "SIMULATE ring=lab seconds=3600",
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains("server limit"), "{line}: {err}");
        }
        assert!(parse_request(&format!(
            "SIMULATE mbps=4 set=20,4000 seconds={MAX_SIM_SECONDS}"
        ))
        .is_ok());
    }

    #[test]
    fn abu_and_simulate_refuse_rings_past_the_station_limit() {
        let over = MAX_STATIONS + 1;
        for line in [
            format!("ABU mbps=100 stations={over} samples=1"),
            format!("SIMULATE mbps=16 set=20,1000 stations={over} seconds=0.01"),
        ] {
            let err = parse_request(&line).unwrap_err();
            assert!(err.contains("server limit"), "{line}: {err}");
        }
        assert!(parse_request(&format!("ABU mbps=100 stations={MAX_STATIONS}")).is_ok());
        assert!(parse_request(&format!(
            "SIMULATE mbps=16 set=20,1000 stations={MAX_STATIONS}"
        ))
        .is_ok());
        // The analyses take any station count the ring model holds.
        assert!(parse_request(&format!("CHECK mbps=16 set=20,1000 stations={over}")).is_ok());
        assert!(parse_request(&format!(
            "REGISTER ring=big protocol=fddi mbps=100 stations={}",
            10 * MAX_STATIONS
        ))
        .is_ok());
    }

    #[test]
    fn simulate_only_keys_rejected_elsewhere() {
        assert!(parse_request("CHECK mbps=4 set=20,1000 seed=3").is_err());
        assert!(parse_request("SIMULATE mbps=4 set=20,1000 seed=3").is_ok());
        assert!(parse_request("CHECK ring=lab seconds=1").is_err());
        assert!(parse_request("SIMULATE ring=lab seconds=1").is_ok());
    }

    #[test]
    fn last_duplicate_key_wins() {
        match parse_request("CHECK mbps=4 mbps=8 set=20,1000").unwrap() {
            Request::Analysis(a) => assert_eq!(a.mbps, 8.0),
            other => panic!("unexpected {other:?}"),
        }
    }
}
