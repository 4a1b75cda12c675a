//! Segmented append-only journal plus snapshot persistence for the ring
//! registry.
//!
//! # On-disk layout
//!
//! A state directory holds:
//!
//! * `journal.000001.log`, `journal.000002.log`, … — journal **segments**,
//!   each holding CRC-framed records `<crc32 hex8> <seq> <op…>\n` where
//!   the checksum covers everything after the first space. Sequence
//!   numbers are strictly increasing across segments; the
//!   highest-numbered segment is the active **tail** that appends go to.
//!   When the tail would exceed the configured
//!   [`StoreOptions::segment_bytes`], it is **sealed** (fsynced, never
//!   written again) and a fresh segment is opened — so the fsync'd file
//!   stays small under sustained admission churn, and compaction can fold
//!   sealed segments into a snapshot without blocking writers.
//! * `snapshot.dat` — a full-state snapshot written by compaction: a
//!   header line `ringrt-registry-snapshot v1 seq=<n>`, one `ring` line
//!   per ring and one `stream` line per admitted stream, and a trailing
//!   `crc <hex8>` line covering every preceding byte.
//! * `snapshot.tmp` — a snapshot in the middle of being written; never
//!   read on startup.
//! * `epoch.dat` — the replication **fencing epoch**, a CRC-framed
//!   monotonic counter published atomically (tmp + rename). A promoted
//!   standby bumps it past the old primary's epoch so a revived primary
//!   presenting a stale epoch can be refused.
//! * `cluster.dat` — the journal's **cluster identity**, a CRC-framed
//!   nonzero random stamp published once (same tmp + rename discipline)
//!   when a primary first serves this directory. Replication peers
//!   exchange it at the `SYNC` handshake and refuse to ship frames
//!   between journals whose identities differ — two unrelated journals
//!   must never silently interleave.
//!
//! A legacy single-file `journal.log` (the pre-segmentation layout) is
//! migrated on open by renaming it to `journal.000001.log`.
//!
//! # Crash recovery
//!
//! Startup loads the snapshot (ignored wholesale if its checksum fails),
//! then replays segments in index order, applying records with `seq >`
//! the snapshot's sequence number. The first torn or checksum-corrupt
//! record ends the replay: that segment is truncated there and any
//! later segments are discarded, exactly like a write-ahead log. A
//! record or snapshot whose checksum holds but whose content fails to
//! decode — say, a ring spec journaled before a validation rule existed —
//! was not torn by a crash, so replay refuses with an error naming it
//! instead of truncating committed history.
//!
//! [`Store::compact`] seals the tail, encodes the in-memory state, writes
//! `snapshot.tmp`, fsyncs it, renames it over `snapshot.dat`, and only
//! then deletes the sealed segments the snapshot covers. A crash between
//! any two steps leaves a state that replays to the same registry,
//! because replay skips journal records already covered by the snapshot
//! and stale sealed segments only ever contain such records.
//!
//! Periods and deadlines are persisted as raw seconds with Rust's
//! round-trip `{}` float formatting, so a replayed stream is bit-identical
//! to the one originally admitted — the property behind the "survives
//! restart byte-identically" guarantee, and the reason a replica that
//! re-journals shipped records produces a byte-identical journal.
//!
//! Every durable write is routed through the [`FailpointFs`] handed in
//! via [`StoreOptions`], so fault-injection tests can kill the store at
//! any exact operation (see [`crate::failpoint`]).

use std::borrow::{Borrow, BorrowMut};
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ringrt_model::SyncStream;
use ringrt_obs::Recorder;
use ringrt_units::{Bits, Seconds};

use crate::crc::crc32;
use crate::failpoint::FailpointFs;
use crate::spec::{
    validate_name, NamedStream, ProtocolKind, RegistryError, RingSpec, RingState, Rings,
};

const LEGACY_JOURNAL_FILE: &str = "journal.log";
const SNAPSHOT_FILE: &str = "snapshot.dat";
const SNAPSHOT_HEADER: &str = "ringrt-registry-snapshot v1";
const EPOCH_FILE: &str = "epoch.dat";
const CLUSTER_FILE: &str = "cluster.dat";

/// Default segment rotation threshold (1 MiB).
pub const DEFAULT_SEGMENT_BYTES: u64 = 1 << 20;

fn segment_file(index: u64) -> String {
    format!("journal.{index:06}.log")
}

fn parse_segment_index(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("journal.")?.strip_suffix(".log")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Tunables for opening a [`Store`]; [`Default`] gives the production
/// configuration (1 MiB segments, disarmed fault injection).
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Rotate the tail segment once appending would push it past this
    /// many bytes (clamped to ≥ 1; a single oversized record still lands
    /// whole in its own segment).
    pub segment_bytes: u64,
    /// The filesystem wrapper every durable write goes through; arm it to
    /// inject deterministic crashes.
    pub fs: FailpointFs,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            fs: FailpointFs::new(),
        }
    }
}

/// One journaled state mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalOp {
    /// A new ring was registered.
    Register {
        /// Ring name.
        ring: String,
        /// Its configuration.
        spec: RingSpec,
    },
    /// A stream was admitted into a ring.
    Admit {
        /// Ring name.
        ring: String,
        /// The admitted stream.
        stream: NamedStream,
    },
    /// A stream was removed from a ring.
    Remove {
        /// Ring name.
        ring: String,
        /// The removed stream's name.
        stream: String,
    },
    /// A ring (and all its streams) was dropped.
    Unregister {
        /// Ring name.
        ring: String,
    },
}

impl JournalOp {
    /// The ring the op names.
    pub(crate) fn ring(&self) -> &str {
        match self {
            JournalOp::Register { ring, .. }
            | JournalOp::Admit { ring, .. }
            | JournalOp::Remove { ring, .. }
            | JournalOp::Unregister { ring } => ring,
        }
    }
}

/// Refuses an op that does not apply to `rings`: a ring registered twice,
/// a stream admitted twice, or a ring or stream that is not there. Replay
/// checks every record here, and the registry checks every live and
/// shipped mutation here before journaling it, so the journal never holds
/// an op that breaks these invariants.
pub(crate) fn validate<E: Borrow<RingState>>(
    rings: &BTreeMap<String, E>,
    op: &JournalOp,
) -> Result<(), RegistryError> {
    let ring = || op.ring().to_owned();
    let state = rings.get(op.ring()).map(Borrow::borrow);
    match (op, state) {
        (JournalOp::Register { .. }, Some(_)) => Err(RegistryError::DuplicateRing { ring: ring() }),
        (JournalOp::Register { .. }, None) => Ok(()),
        (_, None) => Err(RegistryError::UnknownRing { ring: ring() }),
        (JournalOp::Admit { stream, .. }, Some(state)) if state.store.contains(&stream.name) => {
            Err(RegistryError::DuplicateStream {
                ring: ring(),
                stream: stream.name.clone(),
            })
        }
        (JournalOp::Remove { stream, .. }, Some(state)) if !state.store.contains(stream) => {
            Err(RegistryError::UnknownStream {
                ring: ring(),
                stream: stream.clone(),
            })
        }
        _ => Ok(()),
    }
}

/// Applies one op to a ring map after [`validate`] passes it. Replay
/// applies records to plain [`Rings`]; the registry applies its live and
/// shipped mutations through the same function to entries that also carry
/// derived state, so the two can never drift apart.
pub(crate) fn apply<E: From<RingState> + BorrowMut<RingState>>(
    rings: &mut BTreeMap<String, E>,
    op: &JournalOp,
) -> Result<(), RegistryError> {
    validate(rings, op)?;
    match op {
        JournalOp::Register { ring, spec } => {
            rings.insert(ring.clone(), RingState::new(*spec).into());
        }
        JournalOp::Admit { ring, stream } => {
            let state: &mut RingState = rings.get_mut(ring).expect("validated").borrow_mut();
            state.store.admit(&stream.name, stream.stream);
        }
        JournalOp::Remove { ring, stream } => {
            // O(log n) index maintenance — replaying a churn-heavy journal
            // used to pay an O(n) `Vec::remove` shift per removal.
            let state: &mut RingState = rings.get_mut(ring).expect("validated").borrow_mut();
            state.store.remove(stream).expect("validated");
        }
        JournalOp::Unregister { ring } => {
            rings.remove(ring);
        }
    }
    Ok(())
}

fn fmt_stations(stations: Option<usize>) -> String {
    match stations {
        Some(n) => n.to_string(),
        None => "-".to_owned(),
    }
}

fn parse_stations(text: &str) -> Result<Option<usize>, String> {
    if text == "-" {
        return Ok(None);
    }
    text.parse::<usize>()
        .map(Some)
        .map_err(|_| format!("bad stations `{text}`"))
}

fn fmt_deadline(stream: &SyncStream) -> String {
    if stream.has_implicit_deadline() {
        "-".to_owned()
    } else {
        format!("{}", stream.relative_deadline().as_secs_f64())
    }
}

fn build_stream(period_s: f64, bits: u64, deadline_s: Option<f64>) -> Result<SyncStream, String> {
    let stream = SyncStream::try_new(Seconds::new(period_s), Bits::new(bits))
        .map_err(|e| format!("bad stream: {e}"))?;
    match deadline_s {
        None => Ok(stream),
        Some(d) => stream
            .try_with_relative_deadline(Seconds::new(d))
            .map_err(|e| format!("bad deadline: {e}")),
    }
}

fn encode_op(op: &JournalOp) -> String {
    match op {
        JournalOp::Register { ring, spec } => format!(
            "register {ring} protocol={} mbps={} stations={}",
            spec.protocol.token(),
            spec.mbps,
            fmt_stations(spec.stations),
        ),
        JournalOp::Admit { ring, stream } => format!(
            "admit {ring} {} period_s={} bits={} deadline_s={}",
            stream.name,
            stream.stream.period().as_secs_f64(),
            stream.stream.length_bits().as_u64(),
            fmt_deadline(&stream.stream),
        ),
        JournalOp::Remove { ring, stream } => format!("remove {ring} {stream}"),
        JournalOp::Unregister { ring } => format!("unregister {ring}"),
    }
}

fn kv<'a>(word: &'a str, key: &str) -> Result<&'a str, String> {
    word.strip_prefix(key)
        .and_then(|r| r.strip_prefix('='))
        .ok_or_else(|| format!("expected {key}=…, found `{word}`"))
}

/// Parses a number; `NaN` is refused, as no quantity holds one.
fn parse_f64(text: &str, what: &str) -> Result<f64, String> {
    text.parse::<f64>()
        .ok()
        .filter(|v| !v.is_nan())
        .ok_or_else(|| format!("bad {what} `{text}`"))
}

fn parse_opt_f64(text: &str, what: &str) -> Result<Option<f64>, String> {
    if text == "-" {
        Ok(None)
    } else {
        parse_f64(text, what).map(Some)
    }
}

fn decode_op(text: &str) -> Result<JournalOp, String> {
    let mut words = text.split(' ');
    let verb = words.next().ok_or("empty op")?;
    let mut next = |what: &str| words.next().ok_or_else(|| format!("missing {what}"));
    let op = match verb {
        "register" => {
            let ring = next("ring")?.to_owned();
            let protocol = ProtocolKind::parse(kv(next("protocol")?, "protocol")?)?;
            let mbps = parse_f64(kv(next("mbps")?, "mbps")?, "mbps")?;
            let stations = parse_stations(kv(next("stations")?, "stations")?)?;
            JournalOp::Register {
                ring,
                spec: RingSpec {
                    protocol,
                    mbps,
                    stations,
                },
            }
        }
        "admit" => {
            let ring = next("ring")?.to_owned();
            let name = next("stream")?.to_owned();
            let period_s = parse_f64(kv(next("period_s")?, "period_s")?, "period")?;
            let bits = kv(next("bits")?, "bits")?
                .parse::<u64>()
                .map_err(|_| "bad bits".to_owned())?;
            let deadline_s = parse_opt_f64(kv(next("deadline_s")?, "deadline_s")?, "deadline")?;
            JournalOp::Admit {
                ring,
                stream: NamedStream {
                    name,
                    stream: build_stream(period_s, bits, deadline_s)?,
                },
            }
        }
        "remove" => JournalOp::Remove {
            ring: next("ring")?.to_owned(),
            stream: next("stream")?.to_owned(),
        },
        "unregister" => JournalOp::Unregister {
            ring: next("ring")?.to_owned(),
        },
        other => return Err(format!("unknown op `{other}`")),
    };
    if words.next().is_some() {
        return Err("trailing garbage after op".to_owned());
    }
    match &op {
        JournalOp::Register { ring, spec } => {
            validate_name(ring).map_err(|e| e.to_string())?;
            spec.validate().map_err(|e| e.to_string())?;
        }
        JournalOp::Admit { ring, stream } => {
            validate_name(ring).map_err(|e| e.to_string())?;
            validate_name(&stream.name).map_err(|e| e.to_string())?;
        }
        JournalOp::Remove { ring, stream } => {
            validate_name(ring).map_err(|e| e.to_string())?;
            validate_name(stream).map_err(|e| e.to_string())?;
        }
        JournalOp::Unregister { ring } => validate_name(ring).map_err(|e| e.to_string())?,
    }
    Ok(op)
}

fn encode_record(seq: u64, op: &JournalOp) -> String {
    let payload = format!("{seq} {}", encode_op(op));
    format!("{:08x} {payload}\n", crc32(payload.as_bytes()))
}

/// Decodes one journal record line (no trailing newline), verifying its
/// checksum. Shared with the replication layer: a shipped frame carries
/// exactly such a line.
pub(crate) fn decode_record(line: &str) -> Result<(u64, JournalOp), String> {
    decode_payload(verify_record(line)?)
}

/// A checksum field as the encoders write it: exactly eight lowercase hex
/// digits. `from_str_radix` alone would also take `0A1B2C3D` or `+a1b2c3d`,
/// so a flipped bit in the field could pass; the field is not covered by
/// the checksum it holds.
fn parse_crc(hex: &str) -> Option<u32> {
    let canonical = hex.len() == 8 && hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    canonical
        .then(|| u32::from_str_radix(hex, 16).ok())
        .flatten()
}

/// Checks one record line's checksum, returning the payload it covers.
/// Only a failure here can be a torn or corrupt write.
fn verify_record(line: &str) -> Result<&str, String> {
    let (crc_hex, payload) = line.split_once(' ').ok_or("record missing checksum")?;
    let expected = parse_crc(crc_hex).ok_or("bad checksum field")?;
    if crc32(payload.as_bytes()) != expected {
        return Err("checksum mismatch".to_owned());
    }
    Ok(payload)
}

/// Decodes a checksum-verified record payload: `<seq> <op…>`.
fn decode_payload(payload: &str) -> Result<(u64, JournalOp), String> {
    let (seq_text, op_text) = payload.split_once(' ').ok_or("record missing sequence")?;
    let seq = seq_text
        .parse::<u64>()
        .map_err(|_| "bad sequence number".to_owned())?;
    Ok((seq, decode_op(op_text)?))
}

fn encode_snapshot<'a, I>(seq: u64, rings: I) -> String
where
    I: Iterator<Item = (&'a String, &'a RingState)>,
{
    let mut body = format!("{SNAPSHOT_HEADER} seq={seq}\n");
    for (name, state) in rings {
        body.push_str(&format!(
            "ring {name} protocol={} mbps={} stations={}\n",
            state.spec.protocol.token(),
            state.spec.mbps,
            fmt_stations(state.spec.stations),
        ));
        // Serialize straight off the store's admission-order columns; the
        // byte format is unchanged from the Vec-backed state.
        for (stream_name, stream) in state.iter() {
            body.push_str(&format!(
                "stream {name} {stream_name} period_s={} bits={} deadline_s={}\n",
                stream.period().as_secs_f64(),
                stream.length_bits().as_u64(),
                fmt_deadline(&stream),
            ));
        }
    }
    let checksum = crc32(body.as_bytes());
    body.push_str(&format!("crc {checksum:08x}\n"));
    body
}

/// Validates and decodes a snapshot body. Shared with the replication
/// layer: a follower bootstrapping over the wire installs exactly the
/// primary's snapshot bytes.
pub(crate) fn load_snapshot(bytes: &[u8]) -> Result<(u64, Rings), String> {
    decode_snapshot(verify_snapshot(bytes)?)
}

/// Checks a snapshot's checksum, returning the body lines it covers (no
/// trailing newline). Only a failure here can be a torn or corrupt write.
fn verify_snapshot(bytes: &[u8]) -> Result<&str, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "snapshot is not UTF-8")?;
    let trimmed = text.strip_suffix('\n').ok_or("snapshot missing newline")?;
    let (body_lines, crc_line) = trimmed
        .rsplit_once('\n')
        .ok_or("snapshot missing crc line")?;
    let crc_hex = crc_line
        .strip_prefix("crc ")
        .ok_or("snapshot crc line malformed")?;
    let expected = parse_crc(crc_hex).ok_or("bad snapshot checksum")?;
    let body = format!("{body_lines}\n");
    if crc32(body.as_bytes()) != expected {
        return Err("snapshot checksum mismatch".to_owned());
    }
    Ok(body_lines)
}

/// Decodes checksum-verified snapshot body lines into the ring map.
fn decode_snapshot(body_lines: &str) -> Result<(u64, Rings), String> {
    let mut lines = body_lines.lines();
    let header = lines.next().ok_or("empty snapshot")?;
    let seq_text = header
        .strip_prefix(SNAPSHOT_HEADER)
        .and_then(|r| r.trim().strip_prefix("seq="))
        .ok_or("snapshot header malformed")?;
    let seq = seq_text
        .parse::<u64>()
        .map_err(|_| "bad snapshot sequence")?;
    let mut rings = Rings::new();
    for line in lines {
        let (kind, rest) = line.split_once(' ').ok_or("snapshot line malformed")?;
        match kind {
            "ring" => {
                let op = decode_op(&format!("register {rest}"))?;
                apply(&mut rings, &op).map_err(|e| e.to_string())?;
            }
            "stream" => {
                let op = decode_op(&format!("admit {rest}"))?;
                apply(&mut rings, &op).map_err(|e| e.to_string())?;
            }
            other => return Err(format!("unknown snapshot line kind `{other}`")),
        }
    }
    Ok((seq, rings))
}

fn storage_err(context: &str, e: impl fmt_display::Display) -> RegistryError {
    RegistryError::Storage {
        reason: format!("{context}: {e}"),
    }
}

// `std::fmt::Display` under a private alias so `storage_err` reads cleanly.
mod fmt_display {
    pub use core::fmt::Display;
}

/// CRC-framed single-value stamp files (`epoch.dat`, `cluster.dat`):
/// `"<crc8hex> <tag> <value>\n"`. Anything that fails the frame check
/// degrades to 0 — "absent", never garbage.
fn encode_stamp(tag: &str, value: u64) -> String {
    let payload = format!("{tag} {value}");
    format!("{:08x} {payload}\n", crc32(payload.as_bytes()))
}

fn read_stamp(dir: &Path, file: &str, tag: &str) -> u64 {
    let Ok(bytes) = fs::read(dir.join(file)) else {
        return 0;
    };
    let Ok(text) = std::str::from_utf8(&bytes) else {
        return 0;
    };
    let line = text.trim_end();
    let Some((crc_hex, payload)) = line.split_once(' ') else {
        return 0;
    };
    let Some(expected) = parse_crc(crc_hex) else {
        return 0;
    };
    if crc32(payload.as_bytes()) != expected {
        return 0;
    }
    payload
        .strip_prefix(tag)
        .and_then(|rest| rest.strip_prefix(' '))
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

fn encode_epoch(epoch: u64) -> String {
    encode_stamp("epoch", epoch)
}

fn read_epoch(dir: &Path) -> u64 {
    read_stamp(dir, EPOCH_FILE, "epoch")
}

/// What startup replay found and how long it took.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayStats {
    /// Sequence number of the snapshot that seeded the state, if any.
    pub snapshot_seq: Option<u64>,
    /// Journal records applied on top of the snapshot.
    pub records_applied: u64,
    /// Total streams present after recovery.
    pub streams_restored: usize,
    /// Whether a torn or corrupt journal tail was truncated away.
    pub truncated_tail: bool,
    /// Journal segments present after recovery (including the tail).
    pub segments: usize,
    /// Wall-clock time spent recovering.
    pub replay: Duration,
}

/// The open state directory: an append handle on the tail segment plus
/// the bookkeeping rotation, compaction, and replication need.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    fs: FailpointFs,
    tail: File,
    tail_index: u64,
    tail_bytes: u64,
    /// Sealed (never-again-written) segments: `(index, bytes)`.
    sealed: Vec<(u64, u64)>,
    segment_bytes: u64,
    next_seq: u64,
    /// Highest sequence covered by `snapshot.dat` (0 = no snapshot).
    snapshot_seq: u64,
    snapshot_bytes: u64,
    epoch: u64,
    /// Set-once journal identity (0 = not yet stamped); see `cluster.dat`.
    cluster_id: u64,
    recorder: Arc<Recorder>,
}

impl Store {
    /// Opens (creating if necessary) a state directory with the default
    /// [`StoreOptions`], recovering the ring map from snapshot + journal.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Storage`] for I/O failures, a journal whose
    /// *interior* records replay inconsistently (e.g. an admit into a ring
    /// that never existed), or a record or snapshot that passes its
    /// checksum but fails to decode. A torn tail is not an error.
    pub fn open(dir: &Path) -> Result<(Store, Rings, ReplayStats), RegistryError> {
        Self::open_with(dir, StoreOptions::default())
    }

    /// [`open`](Self::open) with explicit segment size and fault
    /// injection.
    ///
    /// # Errors
    ///
    /// As [`open`](Self::open).
    pub fn open_with(
        dir: &Path,
        options: StoreOptions,
    ) -> Result<(Store, Rings, ReplayStats), RegistryError> {
        let started = Instant::now();
        let fsx = options.fs;
        fs::create_dir_all(dir).map_err(|e| storage_err("create state dir", e))?;
        let epoch = read_epoch(dir);
        let cluster_id = read_stamp(dir, CLUSTER_FILE, "cluster");

        let mut rings = Rings::new();
        let mut snapshot_seq = 0u64;
        let mut snapshot_bytes = 0u64;
        if let Ok(bytes) = fs::read(dir.join(SNAPSHOT_FILE)) {
            // A corrupt snapshot is ignored wholesale: the journal alone
            // must then reconstruct the state (segments are only deleted
            // *after* a snapshot has safely landed, so nothing is lost).
            // A checksum-valid one that fails to decode was not torn, and
            // the segments it covers may be gone: refuse to start.
            if let Ok(body) = verify_snapshot(&bytes) {
                let (seq, loaded) = decode_snapshot(body).map_err(|e| {
                    storage_err(
                        &format!("{SNAPSHOT_FILE} passes its checksum but does not decode"),
                        e,
                    )
                })?;
                snapshot_seq = seq;
                snapshot_bytes = bytes.len() as u64;
                rings = loaded;
            }
        }

        // Discover segments; migrate a legacy single-file journal first.
        let mut indices = Self::list_segments(dir)?;
        let legacy = dir.join(LEGACY_JOURNAL_FILE);
        if indices.is_empty() && legacy.exists() {
            fsx.rename(&legacy, &dir.join(segment_file(1)))
                .map_err(|e| storage_err("migrate legacy journal.log", e))?;
            indices = vec![1];
        }

        let floor = snapshot_seq;
        let mut max_seq = floor;
        let mut records_applied = 0u64;
        let mut truncated_tail = false;
        let mut surviving: Vec<(u64, u64)> = Vec::new();
        for (pos, &index) in indices.iter().enumerate() {
            let path = dir.join(segment_file(index));
            let bytes = fs::read(&path).map_err(|e| storage_err("read journal segment", e))?;
            let mut offset = 0usize;
            let mut good_end = 0usize;
            let mut bad = false;
            while offset < bytes.len() {
                let Some(rel) = bytes[offset..].iter().position(|&b| b == b'\n') else {
                    bad = true; // partial final record (crash mid-write)
                    break;
                };
                let line = &bytes[offset..offset + rel];
                let verified = std::str::from_utf8(line)
                    .ok()
                    .and_then(|l| verify_record(l).ok());
                let Some(payload) = verified else {
                    bad = true; // torn/corrupt record ends the log
                    break;
                };
                // The checksum covers these bytes, so no crash tore them:
                // a record that fails to decode (one journaled before a
                // validation rule existed) is refused, not truncated with
                // everything after it.
                let (seq, op) = decode_payload(payload).map_err(|e| {
                    storage_err(
                        &format!(
                            "{} record at byte {offset} passes its checksum but does not \
                             decode ({payload})",
                            segment_file(index)
                        ),
                        e,
                    )
                })?;
                if seq > floor {
                    // Records are journaled in sequence, so one that does
                    // not follow the last means history is missing: a
                    // segment cut short at a record boundary, or a
                    // snapshot that no longer verifies while the records
                    // it covered are gone. Replaying on would recover a
                    // state no primary ever held.
                    if seq != max_seq + 1 {
                        return Err(storage_err(
                            &format!(
                                "{} record at byte {offset} has seq {seq}, but the journal \
                                 reaches only seq {max_seq}",
                                segment_file(index)
                            ),
                            "history is missing",
                        ));
                    }
                    apply(&mut rings, &op)
                        .map_err(|e| storage_err("journal replays inconsistently", e))?;
                    records_applied += 1;
                }
                max_seq = max_seq.max(seq);
                offset += rel + 1;
                good_end = offset;
            }
            if bad {
                truncated_tail = true;
                let f = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| storage_err("open segment for truncation", e))?;
                fsx.set_len(&f, good_end as u64)
                    .map_err(|e| storage_err("truncate torn segment tail", e))?;
                fsx.sync_all(&f)
                    .map_err(|e| storage_err("sync truncated segment", e))?;
                surviving.push((index, good_end as u64));
                // Everything after the first bad record is gone, exactly
                // like a single-file WAL: discard the later segments.
                for &later in &indices[pos + 1..] {
                    fsx.remove_file(&dir.join(segment_file(later)))
                        .map_err(|e| storage_err("remove post-corruption segment", e))?;
                }
                break;
            }
            surviving.push((index, bytes.len() as u64));
        }

        let (tail_index, tail_bytes) = match surviving.last() {
            Some(&(index, bytes)) => {
                (index, bytes) // reopened below for appending
            }
            None => (1, 0),
        };
        let tail_path = dir.join(segment_file(tail_index));
        let tail = fsx
            .open_append(&tail_path)
            .map_err(|e| storage_err("open tail segment", e))?;
        let sealed: Vec<(u64, u64)> = surviving
            .iter()
            .take(surviving.len().saturating_sub(1))
            .copied()
            .collect();

        let stats = ReplayStats {
            snapshot_seq: (snapshot_seq > 0).then_some(snapshot_seq),
            records_applied,
            streams_restored: rings.values().map(RingState::len).sum(),
            truncated_tail,
            segments: sealed.len() + 1,
            replay: started.elapsed(),
        };
        Ok((
            Store {
                dir: dir.to_owned(),
                fs: fsx,
                tail,
                tail_index,
                tail_bytes,
                sealed,
                segment_bytes: options.segment_bytes.max(1),
                next_seq: max_seq + 1,
                snapshot_seq,
                snapshot_bytes,
                epoch,
                cluster_id,
                recorder: Arc::new(Recorder::disabled()),
            },
            rings,
            stats,
        ))
    }

    fn list_segments(dir: &Path) -> Result<Vec<u64>, RegistryError> {
        let mut indices = Vec::new();
        let entries = match fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) => return Err(storage_err("list state dir", e)),
        };
        for entry in entries {
            let entry = entry.map_err(|e| storage_err("list state dir", e))?;
            if let Some(index) = entry.file_name().to_str().and_then(parse_segment_index) {
                indices.push(index);
            }
        }
        indices.sort_unstable();
        Ok(indices)
    }

    /// Attaches a flight recorder: subsequent [`append`](Self::append) and
    /// compaction calls emit `registry` spans for the journal append, the
    /// fsync, segment seals, and each compaction phase (snapshot write,
    /// publish rename, sealed-segment GC).
    pub fn set_recorder(&mut self, recorder: Arc<Recorder>) {
        self.recorder = recorder;
    }

    /// Seals the current tail segment and opens the next one.
    fn rotate(&mut self) -> Result<(), RegistryError> {
        {
            let _seal_span = self.recorder.span("registry", "segment_seal");
            self.fs
                .sync_all(&self.tail)
                .map_err(|e| storage_err("seal tail segment", e))?;
        }
        self.sealed.push((self.tail_index, self.tail_bytes));
        self.tail_index += 1;
        self.tail = self
            .fs
            .create_new(&self.dir.join(segment_file(self.tail_index)))
            .map_err(|e| storage_err("open next segment", e))?;
        self.tail_bytes = 0;
        Ok(())
    }

    /// Writes one already-encoded record line (with trailing newline) to
    /// the tail, rotating first if the tail would overflow.
    fn write_line(&mut self, record: &str) -> Result<(), RegistryError> {
        let recorder = Arc::clone(&self.recorder);
        let _append_span = recorder.span("registry", "journal_append");
        if self.tail_bytes > 0 && self.tail_bytes + record.len() as u64 > self.segment_bytes {
            self.rotate()?;
        }
        self.fs
            .write_all(&mut self.tail, record.as_bytes())
            .map_err(|e| storage_err("append journal record", e))?;
        {
            let _fsync_span = self.recorder.span("registry", "journal_fsync");
            self.fs
                .sync_data(&self.tail)
                .map_err(|e| storage_err("sync journal", e))?;
        }
        self.tail_bytes += record.len() as u64;
        Ok(())
    }

    /// Appends one record and syncs it to disk, returning the encoded
    /// record line (no trailing newline) — the exact frame journal
    /// shipping forwards to followers. Call *before* mutating the
    /// in-memory state so a failed write leaves memory and disk agreeing.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Storage`] if the write or sync fails.
    pub fn append(&mut self, op: &JournalOp) -> Result<String, RegistryError> {
        let mut record = encode_record(self.next_seq, op);
        self.write_line(&record)?;
        self.next_seq += 1;
        record.pop();
        Ok(record)
    }

    /// Folds everything journaled so far into a snapshot: seals the tail
    /// (if non-empty), encodes `rings`, writes and fsyncs `snapshot.tmp`,
    /// renames it over `snapshot.dat`, and deletes the sealed segments
    /// the snapshot now covers.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Storage`] if any I/O step fails.
    pub fn compact<'a, I>(&mut self, rings: I) -> Result<(), RegistryError>
    where
        I: Iterator<Item = (&'a String, &'a RingState)>,
    {
        let recorder = Arc::clone(&self.recorder);
        let (seq, body) = {
            let _compact_span = recorder.span("registry", "compact");
            if self.tail_bytes > 0 {
                self.rotate()?;
            }
            let seq = self.next_seq - 1; // highest sequence the snapshot covers
            (seq, encode_snapshot(seq, rings))
        };
        let tmp = {
            let _write_span = recorder.span("registry", "snapshot_write");
            self.write_tmp("snapshot", &body)?
        };
        {
            let _publish_span = recorder.span("registry", "snapshot_publish");
            self.fs
                .rename(&tmp, &self.dir.join(SNAPSHOT_FILE))
                .map_err(|e| storage_err("publish snapshot", e))?;
        }
        // Only now is it safe to drop the sealed segments the snapshot
        // covers. A crash mid-GC leaves stale segments whose records all
        // sit at or below the snapshot floor; replay skips them and the
        // next compaction sweeps them away.
        let _gc_span = recorder.span("registry", "segment_gc");
        for &(index, _) in &self.sealed {
            self.fs
                .remove_file(&self.dir.join(segment_file(index)))
                .map_err(|e| storage_err("remove sealed segment", e))?;
        }
        self.sealed.clear();
        self.snapshot_seq = seq;
        self.snapshot_bytes = body.len() as u64;
        Ok(())
    }

    /// Writes `body` to `<what>.tmp` and fsyncs it, ready to be renamed
    /// over the file it replaces.
    fn write_tmp(&self, what: &str, body: &str) -> Result<PathBuf, RegistryError> {
        let tmp = self.dir.join(format!("{what}.tmp"));
        let mut f = self
            .fs
            .create(&tmp)
            .map_err(|e| storage_err(&format!("create {what}.tmp"), e))?;
        self.fs
            .write_all(&mut f, body.as_bytes())
            .map_err(|e| storage_err(&format!("write {what}"), e))?;
        self.fs
            .sync_all(&f)
            .map_err(|e| storage_err(&format!("sync {what}"), e))?;
        Ok(tmp)
    }

    /// Replaces `file` atomically: [`write_tmp`](Self::write_tmp), then a
    /// rename over it.
    fn publish(&self, what: &str, file: &str, body: &str) -> Result<(), RegistryError> {
        let tmp = self.write_tmp(what, body)?;
        self.fs
            .rename(&tmp, &self.dir.join(file))
            .map_err(|e| storage_err(&format!("publish {what}"), e))
    }

    /// Current journal size in bytes across all segments.
    #[must_use]
    pub fn journal_bytes(&self) -> u64 {
        self.tail_bytes + self.sealed.iter().map(|&(_, b)| b).sum::<u64>()
    }

    /// Current snapshot size in bytes (0 before the first compaction).
    #[must_use]
    pub fn snapshot_bytes(&self) -> u64 {
        self.snapshot_bytes
    }

    /// Sequence number the next appended record will carry.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Highest sequence number covered by the snapshot (0 = none).
    #[must_use]
    pub fn snapshot_floor(&self) -> u64 {
        self.snapshot_seq
    }

    /// The persisted replication fencing epoch (0 = never served).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Persists a new fencing epoch (tmp + fsync + atomic rename).
    ///
    /// # Errors
    ///
    /// [`RegistryError::Storage`] if the epoch would regress or any I/O
    /// step fails.
    pub fn set_epoch(&mut self, epoch: u64) -> Result<(), RegistryError> {
        if epoch < self.epoch {
            return Err(storage_err(
                "epoch must not regress",
                format!("current {}, requested {epoch}", self.epoch),
            ));
        }
        let _span = self.recorder.span("registry", "epoch_publish");
        self.publish("epoch", EPOCH_FILE, &encode_epoch(epoch))?;
        self.epoch = epoch;
        Ok(())
    }

    /// The persisted journal cluster identity (0 = never stamped).
    #[must_use]
    pub fn cluster_id(&self) -> u64 {
        self.cluster_id
    }

    /// Persists the journal's cluster identity (tmp + fsync + atomic
    /// rename). The identity is **set-once**: stamping the same value
    /// again is a no-op, stamping a different one over a nonzero identity
    /// is refused — that is exactly the cross-journal shipping accident
    /// the stamp exists to prevent.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Storage`] if `cluster_id` is zero, conflicts with
    /// an existing identity, or any I/O step fails.
    pub fn set_cluster_id(&mut self, cluster_id: u64) -> Result<(), RegistryError> {
        if cluster_id == 0 {
            return Err(storage_err(
                "cluster identity must be nonzero",
                "0 is the \"unstamped\" sentinel",
            ));
        }
        if self.cluster_id == cluster_id {
            return Ok(());
        }
        if self.cluster_id != 0 {
            return Err(storage_err(
                "cluster identity is set-once",
                format!("current {:#x}, requested {cluster_id:#x}", self.cluster_id),
            ));
        }
        let _span = self.recorder.span("registry", "cluster_publish");
        self.publish(
            "cluster",
            CLUSTER_FILE,
            &encode_stamp("cluster", cluster_id),
        )?;
        self.cluster_id = cluster_id;
        Ok(())
    }

    /// All journal record lines (no trailing newlines) with `seq >=
    /// from_seq`, in order — the backlog a newly attached follower needs
    /// on top of the snapshot.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Storage`] if a segment cannot be read.
    pub fn records_from(&self, from_seq: u64) -> Result<Vec<String>, RegistryError> {
        let mut records = Vec::new();
        self.scan(|seq, line| {
            if seq >= from_seq {
                records.push(line.to_owned());
            }
            true
        })?;
        Ok(records)
    }

    /// The journal record line carrying exactly `seq`, if the journal
    /// still holds it — what a follower compares a re-delivered ship
    /// frame against to prove the shipped history is its own.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Storage`] if a segment cannot be read.
    pub fn record_at(&self, seq: u64) -> Result<Option<String>, RegistryError> {
        let mut found = None;
        self.scan(|got, line| {
            if got == seq {
                found = Some(line.to_owned());
            }
            found.is_none()
        })?;
        Ok(found)
    }

    /// Reads the journal's record lines in order, with their sequence
    /// numbers, until `visit` returns `false`.
    fn scan(&self, mut visit: impl FnMut(u64, &str) -> bool) -> Result<(), RegistryError> {
        let sealed = self.sealed.iter().map(|&(i, _)| i);
        for index in sealed.chain(std::iter::once(self.tail_index)) {
            let bytes = fs::read(self.dir.join(segment_file(index)))
                .map_err(|e| storage_err("read journal segment", e))?;
            let text =
                std::str::from_utf8(&bytes).map_err(|e| storage_err("journal not UTF-8", e))?;
            for line in text.lines() {
                let Ok((seq, _)) = decode_record(line) else {
                    // Only a crash can leave a bad record, and recovery
                    // truncates it; a live store never reaches this.
                    break;
                };
                if !visit(seq, line) {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// The raw snapshot text and the sequence it covers, if a snapshot
    /// exists — what a primary ships to bootstrap a far-behind follower.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Storage`] if the snapshot cannot be read back.
    pub fn snapshot_text(&self) -> Result<Option<(u64, String)>, RegistryError> {
        if self.snapshot_seq == 0 {
            return Ok(None);
        }
        let text = fs::read_to_string(self.dir.join(SNAPSHOT_FILE))
            .map_err(|e| storage_err("read snapshot", e))?;
        Ok(Some((self.snapshot_seq, text)))
    }

    /// Replaces the entire store state with a snapshot shipped from a
    /// primary: validates it, publishes it atomically, deletes every
    /// journal segment, and restarts the journal just past the snapshot.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Storage`] for a corrupt snapshot or failed I/O.
    pub fn install_snapshot(&mut self, text: &str) -> Result<(u64, Rings), RegistryError> {
        let (seq, rings) = load_snapshot(text.as_bytes())
            .map_err(|e| storage_err("shipped snapshot invalid", e))?;
        self.publish("snapshot", SNAPSHOT_FILE, text)?;
        // The old journal may contain records that conflict with the new
        // snapshot's history; drop all of it before accepting records.
        let old: Vec<u64> = self
            .sealed
            .iter()
            .map(|&(i, _)| i)
            .chain(std::iter::once(self.tail_index))
            .collect();
        let fresh_index = self.tail_index + 1;
        self.tail = self
            .fs
            .create_new(&self.dir.join(segment_file(fresh_index)))
            .map_err(|e| storage_err("open fresh segment", e))?;
        for index in old {
            self.fs
                .remove_file(&self.dir.join(segment_file(index)))
                .map_err(|e| storage_err("remove superseded segment", e))?;
        }
        self.tail_index = fresh_index;
        self.tail_bytes = 0;
        self.sealed.clear();
        self.snapshot_seq = seq;
        self.snapshot_bytes = text.len() as u64;
        self.next_seq = seq + 1;
        Ok((seq, rings))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failpoint::FaultPlan;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ringrt-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn spec() -> RingSpec {
        RingSpec {
            protocol: ProtocolKind::Fddi,
            mbps: 100.0,
            stations: Some(16),
        }
    }

    fn admit_op(ring: &str, name: &str, period_ms: f64, bits: u64) -> JournalOp {
        JournalOp::Admit {
            ring: ring.to_owned(),
            stream: NamedStream {
                name: name.to_owned(),
                stream: SyncStream::new(Seconds::from_millis(period_ms), Bits::new(bits)),
            },
        }
    }

    fn tiny_segments() -> StoreOptions {
        StoreOptions {
            segment_bytes: 96,
            fs: FailpointFs::new(),
        }
    }

    #[test]
    fn ops_round_trip_through_records() {
        let ops = [
            JournalOp::Register {
                ring: "lab".into(),
                spec: spec(),
            },
            admit_op("lab", "cam-1", 20.0, 20_000),
            JournalOp::Remove {
                ring: "lab".into(),
                stream: "cam-1".into(),
            },
            JournalOp::Unregister { ring: "lab".into() },
        ];
        for (i, op) in ops.iter().enumerate() {
            let rec = encode_record(i as u64 + 1, op);
            let (seq, decoded) = decode_record(rec.trim_end()).unwrap();
            assert_eq!(seq, i as u64 + 1);
            assert_eq!(&decoded, op);
        }
    }

    #[test]
    fn deadline_round_trips_bit_exactly() {
        let stream = SyncStream::new(Seconds::from_millis(20.0), Bits::new(1_000))
            .with_relative_deadline(Seconds::from_millis(7.3));
        let op = JournalOp::Admit {
            ring: "r".into(),
            stream: NamedStream {
                name: "s".into(),
                stream,
            },
        };
        let rec = encode_record(1, &op);
        let (_, decoded) = decode_record(rec.trim_end()).unwrap();
        match decoded {
            JournalOp::Admit { stream: ns, .. } => {
                assert_eq!(
                    ns.stream.relative_deadline().as_secs_f64().to_bits(),
                    stream.relative_deadline().as_secs_f64().to_bits()
                );
                assert_eq!(
                    ns.stream.period().as_secs_f64().to_bits(),
                    stream.period().as_secs_f64().to_bits()
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn corrupt_records_rejected() {
        let rec = encode_record(1, &admit_op("r", "s", 10.0, 100));
        let line = rec.trim_end();
        // Flip a payload byte: checksum must catch it.
        let mut bad = line.to_owned();
        let n = bad.len();
        bad.replace_range(n - 1..n, "X");
        assert!(decode_record(&bad).is_err());
        assert!(decode_record("zzzzzzzz 1 unregister r").is_err());
        assert!(decode_record("not-a-record").is_err());
    }

    #[test]
    fn apply_enforces_invariants() {
        let mut rings = Rings::new();
        let reg = JournalOp::Register {
            ring: "r".into(),
            spec: spec(),
        };
        apply(&mut rings, &reg).unwrap();
        assert!(matches!(
            apply(&mut rings, &reg),
            Err(RegistryError::DuplicateRing { .. })
        ));
        apply(&mut rings, &admit_op("r", "s", 10.0, 100)).unwrap();
        assert!(matches!(
            apply(&mut rings, &admit_op("r", "s", 12.0, 200)),
            Err(RegistryError::DuplicateStream { .. })
        ));
        assert!(matches!(
            apply(&mut rings, &admit_op("ghost", "s", 10.0, 100)),
            Err(RegistryError::UnknownRing { .. })
        ));
        let rm = JournalOp::Remove {
            ring: "r".into(),
            stream: "ghost".into(),
        };
        assert!(matches!(
            apply(&mut rings, &rm),
            Err(RegistryError::UnknownStream { .. })
        ));
    }

    #[test]
    fn snapshot_round_trips() {
        let mut rings = Rings::new();
        apply(
            &mut rings,
            &JournalOp::Register {
                ring: "a".into(),
                spec: spec(),
            },
        )
        .unwrap();
        apply(&mut rings, &admit_op("a", "s1", 20.0, 1_000)).unwrap();
        apply(&mut rings, &admit_op("a", "s2", 40.0, 2_000)).unwrap();
        let body = encode_snapshot(7, rings.iter());
        let (seq, loaded) = load_snapshot(body.as_bytes()).unwrap();
        assert_eq!(seq, 7);
        assert_eq!(loaded, rings);
        // Any corruption invalidates the whole snapshot.
        let corrupt = body.replace("s1", "sX");
        assert!(load_snapshot(corrupt.as_bytes()).is_err());
    }

    #[test]
    fn attached_recorder_sees_journal_and_compaction_phases() {
        let dir = temp_dir("obs");
        let rec = Arc::new(Recorder::new());
        let (mut store, mut rings, _) = Store::open(&dir).unwrap();
        store.set_recorder(Arc::clone(&rec));
        let op = JournalOp::Register {
            ring: "r".into(),
            spec: spec(),
        };
        store.append(&op).unwrap();
        apply(&mut rings, &op).unwrap();
        store.compact(rings.iter()).unwrap();
        let names: Vec<&str> = rec.drain(64).iter().map(|e| e.name).collect();
        for expected in [
            "journal_append",
            "journal_fsync",
            "compact",
            "segment_seal",
            "snapshot_write",
            "snapshot_publish",
            "segment_gc",
        ] {
            assert!(names.contains(&expected), "missing {expected}: {names:?}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    fn refused(dir: &Path) -> String {
        match Store::open(dir) {
            Ok(_) => panic!("replay must refuse"),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn replay_refuses_a_checksum_valid_record_that_fails_validation() {
        // A ring registered before `RingSpec::validate` refused bandwidths
        // that overflow to infinity: its record carries a good checksum.
        let bad = JournalOp::Register {
            ring: "old".into(),
            spec: RingSpec {
                mbps: 1e308,
                ..spec()
            },
        };
        let good = JournalOp::Register {
            ring: "r".into(),
            spec: spec(),
        };
        let dir = temp_dir("invalid-record");
        {
            let (mut store, _, _) = Store::open(&dir).unwrap();
            store.append(&good).unwrap();
            store.append(&bad).unwrap();
            store.append(&admit_op("r", "s1", 20.0, 1_000)).unwrap();
        }
        let segment = dir.join(segment_file(1));
        let before = fs::read(&segment).unwrap();
        let err = refused(&dir);
        assert!(err.contains("journal.000001.log"), "{err}");
        assert!(err.contains("passes its checksum"), "{err}");
        assert!(err.contains("register old"), "{err}");
        assert!(err.contains("mbps out of range"), "{err}");
        assert_eq!(fs::read(&segment).unwrap(), before, "nothing truncated");
        let _ = fs::remove_dir_all(&dir);

        // The same rule holds for a checksum-valid snapshot: ignoring it
        // would silently drop every ring it folded.
        let dir = temp_dir("invalid-snapshot");
        {
            let (mut store, mut rings, _) = Store::open(&dir).unwrap();
            for op in [&good, &bad] {
                store.append(op).unwrap();
                apply(&mut rings, op).unwrap();
            }
            store.compact(rings.iter()).unwrap();
        }
        let err = refused(&dir);
        assert!(err.contains("snapshot.dat passes its checksum"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_refuses_a_checksum_valid_deadline_outside_its_period() {
        // `SyncStream` owns the `0 < D ≤ P` rule; a record breaking it
        // was not torn, so replay refuses instead of truncating.
        let dir = temp_dir("invalid-deadline");
        {
            let (mut store, _, _) = Store::open(&dir).unwrap();
            store
                .append(&JournalOp::Register {
                    ring: "r".into(),
                    spec: spec(),
                })
                .unwrap();
        }
        let segment = dir.join(segment_file(1));
        let registered = fs::read(&segment).unwrap();
        for (deadline, why) in [("0.05", "0 < D ≤ P"), ("NaN", "bad deadline `NaN`")] {
            let mut bytes = registered.clone();
            let payload = format!("2 admit r late period_s=0.02 bits=1000 deadline_s={deadline}");
            bytes.extend(format!("{:08x} {payload}\n", crc32(payload.as_bytes())).bytes());
            fs::write(&segment, &bytes).unwrap();
            let err = refused(&dir);
            assert!(err.contains("passes its checksum"), "{err}");
            assert!(err.contains(why), "{err}");
            assert_eq!(fs::read(&segment).unwrap(), bytes, "nothing truncated");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_persists_and_replays() {
        let dir = temp_dir("basic");
        {
            let (mut store, mut rings, stats) = Store::open(&dir).unwrap();
            assert_eq!(stats.records_applied, 0);
            let ops = [
                JournalOp::Register {
                    ring: "r".into(),
                    spec: spec(),
                },
                admit_op("r", "s1", 20.0, 1_000),
                admit_op("r", "s2", 40.0, 2_000),
            ];
            for op in &ops {
                store.append(op).unwrap();
                apply(&mut rings, op).unwrap();
            }
            assert!(store.journal_bytes() > 0);
        }
        let (mut store, rings, stats) = Store::open(&dir).unwrap();
        assert_eq!(stats.records_applied, 3);
        assert_eq!(stats.streams_restored, 2);
        assert!(!stats.truncated_tail);
        assert_eq!(rings["r"].len(), 2);
        // Compaction: snapshot lands, sealed segments vanish, state
        // survives (the fresh tail is empty).
        store.compact(rings.iter()).unwrap();
        assert_eq!(store.journal_bytes(), 0);
        assert!(store.snapshot_bytes() > 0);
        drop(store);
        let (_, rings2, stats2) = Store::open(&dir).unwrap();
        assert_eq!(rings2, rings);
        assert_eq!(stats2.records_applied, 0);
        assert_eq!(stats2.snapshot_seq, Some(3));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_seals_segments_and_replays_across_them() {
        let dir = temp_dir("rotate");
        {
            let (mut store, mut rings, _) = Store::open_with(&dir, tiny_segments()).unwrap();
            let reg = JournalOp::Register {
                ring: "r".into(),
                spec: spec(),
            };
            store.append(&reg).unwrap();
            apply(&mut rings, &reg).unwrap();
            for i in 0..8 {
                let op = admit_op("r", &format!("s{i}"), 20.0 + f64::from(i), 1_000);
                store.append(&op).unwrap();
                apply(&mut rings, &op).unwrap();
            }
            let segments = Store::list_segments(&dir).unwrap().len();
            assert!(
                segments > 1,
                "96-byte segments must have rotated: {segments}"
            );
        }
        let (store, rings, stats) = Store::open_with(&dir, tiny_segments()).unwrap();
        assert_eq!(stats.records_applied, 9);
        assert_eq!(rings["r"].len(), 8);
        assert!(stats.segments > 1);
        assert_eq!(store.next_seq(), 10);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_single_file_journal_migrates() {
        let dir = temp_dir("legacy");
        fs::create_dir_all(&dir).unwrap();
        let reg = JournalOp::Register {
            ring: "old".into(),
            spec: spec(),
        };
        let adm = admit_op("old", "s", 20.0, 1_000);
        let mut body = encode_record(1, &reg);
        body.push_str(&encode_record(2, &adm));
        fs::write(dir.join(LEGACY_JOURNAL_FILE), body).unwrap();
        let (store, rings, stats) = Store::open(&dir).unwrap();
        assert_eq!(stats.records_applied, 2);
        assert_eq!(rings["old"].len(), 1);
        assert_eq!(store.next_seq(), 3);
        assert!(!dir.join(LEGACY_JOURNAL_FILE).exists());
        assert!(dir.join(segment_file(1)).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn epoch_round_trips_and_never_regresses() {
        let dir = temp_dir("epoch");
        {
            let (mut store, _, _) = Store::open(&dir).unwrap();
            assert_eq!(store.epoch(), 0);
            store.set_epoch(3).unwrap();
            assert!(store.set_epoch(2).is_err());
            assert_eq!(store.epoch(), 3);
        }
        let (store, _, _) = Store::open(&dir).unwrap();
        assert_eq!(store.epoch(), 3);
        // A corrupt epoch file degrades to 0, never to garbage.
        fs::write(dir.join(EPOCH_FILE), "deadbeef epoch 99\n").unwrap();
        drop(store);
        let (store, _, _) = Store::open(&dir).unwrap();
        assert_eq!(store.epoch(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cluster_identity_is_set_once_and_survives_reopen() {
        let dir = temp_dir("cluster");
        {
            let (mut store, _, _) = Store::open(&dir).unwrap();
            assert_eq!(store.cluster_id(), 0, "fresh journal has no identity");
            assert!(store.set_cluster_id(0).is_err(), "0 is the sentinel");
            store.set_cluster_id(0xfeed_beef).unwrap();
            assert_eq!(store.cluster_id(), 0xfeed_beef);
            // Restamping the same identity is a no-op ...
            store.set_cluster_id(0xfeed_beef).unwrap();
            // ... but a different one is the cross-journal accident.
            let err = store.set_cluster_id(7).unwrap_err();
            assert!(err.to_string().contains("set-once"), "{err}");
            assert_eq!(store.cluster_id(), 0xfeed_beef);
        }
        let (store, _, _) = Store::open(&dir).unwrap();
        assert_eq!(store.cluster_id(), 0xfeed_beef);
        // A corrupt stamp degrades to "unstamped", never to garbage.
        fs::write(dir.join(CLUSTER_FILE), "deadbeef cluster 99\n").unwrap();
        drop(store);
        let (store, _, _) = Store::open(&dir).unwrap();
        assert_eq!(store.cluster_id(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shipping_apis_round_trip_records_and_snapshots() {
        let primary_dir = temp_dir("ship-primary");
        let follower_dir = temp_dir("ship-follower");
        let (mut primary, mut rings, _) = Store::open_with(&primary_dir, tiny_segments()).unwrap();
        let reg = JournalOp::Register {
            ring: "r".into(),
            spec: spec(),
        };
        let mut frames = vec![primary.append(&reg).unwrap()];
        apply(&mut rings, &reg).unwrap();
        for i in 0..4 {
            let op = admit_op("r", &format!("s{i}"), 20.0 + f64::from(i), 1_000);
            frames.push(primary.append(&op).unwrap());
            apply(&mut rings, &op).unwrap();
        }
        // records_from reproduces the appended frames exactly.
        assert_eq!(primary.records_from(1).unwrap(), frames);
        assert_eq!(primary.records_from(4).unwrap(), frames[3..].to_vec());

        // A follower journaling the frames' ops ends up byte-identical.
        let (mut follower, _, _) = Store::open_with(&follower_dir, tiny_segments()).unwrap();
        for frame in &frames {
            let (_, op) = decode_record(frame).unwrap();
            follower.append(&op).unwrap();
        }
        assert_eq!(follower.next_seq(), primary.next_seq());
        assert_eq!(follower.records_from(1).unwrap(), frames);
        assert_eq!(follower.record_at(3).unwrap().as_ref(), Some(&frames[2]));
        assert_eq!(follower.record_at(9).unwrap(), None);

        // Snapshot shipping: compact the primary, install on a fresh dir.
        primary.compact(rings.iter()).unwrap();
        let (snap_seq, snap_text) = primary.snapshot_text().unwrap().unwrap();
        assert_eq!(snap_seq, 5);
        let fresh_dir = temp_dir("ship-fresh");
        let (mut fresh, _, _) = Store::open(&fresh_dir).unwrap();
        let (seq, loaded) = fresh.install_snapshot(&snap_text).unwrap();
        assert_eq!(seq, 5);
        assert_eq!(loaded, rings);
        assert_eq!(fresh.next_seq(), 6);
        drop(fresh);
        let (reopened, recovered, stats) = Store::open(&fresh_dir).unwrap();
        assert_eq!(recovered, rings);
        assert_eq!(stats.snapshot_seq, Some(5));
        assert_eq!(reopened.next_seq(), 6);
        let _ = fs::remove_dir_all(&primary_dir);
        let _ = fs::remove_dir_all(&follower_dir);
        let _ = fs::remove_dir_all(&fresh_dir);
    }

    #[test]
    fn injected_crash_recovers_to_pre_fault_state() {
        let dir = temp_dir("failpoint");
        // Large segments: no rotation can slip between arming the fault
        // and the next record write, so the fault deterministically tears
        // that write.
        let options = StoreOptions {
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            fs: FailpointFs::new(),
        };
        let fp = options.fs.clone();
        let (mut store, mut rings, _) = Store::open_with(&dir, options).unwrap();
        let reg = JournalOp::Register {
            ring: "r".into(),
            spec: spec(),
        };
        store.append(&reg).unwrap();
        apply(&mut rings, &reg).unwrap();
        // Fail the very next durable operation, torn after 5 bytes.
        fp.arm(FaultPlan {
            fail_at_op: fp.ops() + 1,
            torn_bytes: Some(5),
        });
        let err = store
            .append(&admit_op("r", "doomed", 20.0, 1_000))
            .unwrap_err();
        assert!(FailpointFs::is_injected(&err), "{err}");
        fp.disarm();
        drop(store);
        let (_, recovered, stats) = Store::open(&dir).unwrap();
        assert_eq!(recovered, rings, "torn record must be truncated away");
        assert!(stats.truncated_tail);
        let _ = fs::remove_dir_all(&dir);
    }
}
