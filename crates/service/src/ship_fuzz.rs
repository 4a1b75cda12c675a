//! No `SHIP` frame panics the follower's per-frame path, and no frame it
//! refuses changes its journal. Random lines over the frame alphabet, and
//! valid record, snapshot and ping frames cut at a byte, with one bit
//! flipped, with their sequence shifted or under another stream epoch, go
//! through `parse_ship_frame` and then the registry job the follower runs
//! for the frame ([`apply_frame`]) — in the order a follower reads them, a
//! snapshot frame taking the lines after it as its body. After each case the follower's directory reopens to the state it
//! held in memory.
//!
//! The vendored proptest does not shrink, so a failure names the case's
//! seed; `case(seed)` replays it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ringrt_model::SyncStream;
use ringrt_registry::{ProtocolKind, RingRegistry, RingSpec, RingState};
use ringrt_units::{Bits, Seconds};

use crate::replication::{
    parse_ship_frame, render_ping, render_record, render_snapshot, ReplicationState, ShipFrame,
};
use crate::server::apply_frame;

/// The epoch the follower and the primary's stream serve under.
const EPOCH: u64 = 1;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ringrt-ship-fuzz-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// What a primary ships: every record line in order, and a snapshot
/// covering the first part of them.
struct Shipped {
    records: Vec<String>,
    snapshot: (u64, String),
}

fn shipped() -> Shipped {
    let dir = temp_dir("primary");
    let primary = RingRegistry::open(&dir).expect("open primary");
    primary.set_epoch(EPOCH).unwrap();
    let spec = |protocol| RingSpec {
        protocol,
        mbps: 16.0,
        stations: Some(16),
    };
    let stream =
        |period_ms: f64| SyncStream::new(Seconds::from_millis(period_ms), Bits::new(2_000));
    primary.register("a", spec(ProtocolKind::Fddi)).unwrap();
    for i in 0..4 {
        primary
            .admit("a", &format!("s{i}"), stream(20.0 + 5.0 * f64::from(i)))
            .unwrap();
    }
    let mut records = primary.subscribe(1).unwrap().backlog;
    primary.compact().unwrap();
    primary.register("b", spec(ProtocolKind::Modified)).unwrap();
    primary.admit("b", "t0", stream(40.0)).unwrap();
    primary.remove("a", "s1").unwrap();
    primary.admit("a", "s9", stream(60.0)).unwrap();
    let sub = primary.subscribe(1).unwrap();
    records.extend(sub.backlog);
    let snapshot = sub.snapshot.expect("compacted");
    drop(primary);
    let _ = std::fs::remove_dir_all(dir);
    Shipped { records, snapshot }
}

/// Words a frame line is made of.
const ALPHABET: [&str; 24] = [
    "SHIP ",
    "record ",
    "snapshot ",
    "ping ",
    "seq=",
    "lines=",
    "epoch=",
    "head=",
    "0",
    "1",
    "2",
    "7",
    "18446744073709551615",
    "ab12cd34 ",
    "register ",
    "admit ",
    "remove ",
    "ring=a ",
    "protocol=fddi ",
    "mbps=16 ",
    "stream s0 ",
    " ",
    "\n",
    "-",
];

fn random_text(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0..20))
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
        .collect()
}

/// The text of one valid frame: record `i`, the snapshot frame with its
/// body, or a ping.
fn valid_frame(shipped: &Shipped, rng: &mut StdRng, next: usize) -> String {
    match rng.gen_range(0..6) {
        0 => {
            let (seq, text) = &shipped.snapshot;
            let lines = text.lines().count() as u64;
            format!("{}\n{text}", render_snapshot(*seq, lines))
        }
        1 => format!("{}\n", render_ping(EPOCH, shipped.records.len() as u64)),
        // Mostly the record the follower needs next, sometimes any.
        2 => {
            let i = rng.gen_range(0..shipped.records.len());
            format!("{}\n", render_record(&shipped.records[i]))
        }
        _ => {
            let i = next.min(shipped.records.len() - 1);
            format!("{}\n", render_record(&shipped.records[i]))
        }
    }
}

/// A valid frame cut at a byte, with one bit flipped, or with its
/// sequence number shifted. Bytes that are no longer UTF-8 become U+FFFD.
fn mutated_frame(frame: &str, rng: &mut StdRng) -> String {
    let mut bytes = frame.as_bytes().to_vec();
    match rng.gen_range(0..3) {
        0 => bytes.truncate(rng.gen_range(0..=bytes.len())),
        1 => {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1 << rng.gen_range(0..8);
        }
        _ => {
            // `SHIP record <crc> <seq> …`, `SHIP snapshot seq=<n> …` and
            // `SHIP ping … head=<n>`: shift the first number after the
            // frame kind, leaving any checksum as it was.
            let text = String::from_utf8_lossy(&bytes).into_owned();
            let shift = |n: u64| {
                if rng.gen_range(0..2) == 0 {
                    n.wrapping_add(1)
                } else {
                    n.wrapping_sub(1)
                }
            };
            return shift_first_number(&text, shift);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `text` with its first run of digits after the record checksum (or the
/// first `=`) replaced by `shift` of its value.
fn shift_first_number(text: &str, mut shift: impl FnMut(u64) -> u64) -> String {
    let skip = if text.starts_with("SHIP record ") {
        text.get(21..).map_or(text.len(), |_| 21)
    } else {
        text.find('=').map_or(text.len(), |i| i + 1)
    };
    let rest = &text[skip..];
    let start = skip
        + rest
            .find(|c: char| c.is_ascii_digit())
            .unwrap_or(rest.len());
    let end = start
        + text[start..]
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(text.len() - start);
    match text[start..end].parse::<u64>() {
        Ok(n) => format!("{}{}{}", &text[..start], shift(n), &text[end..]),
        Err(_) => text.to_owned(),
    }
}

/// Every journal and snapshot byte in `dir`, file by file.
fn stored_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("list state dir")
        .map(|entry| entry.expect("dir entry"))
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("journal.") || name == "snapshot.dat")
        .map(|name| {
            let bytes = std::fs::read(dir.join(&name)).expect("read state file");
            (name, bytes)
        })
        .collect();
    files.sort();
    files
}

/// The registry's rings, streams and next sequence number.
fn fingerprint(registry: &RingRegistry) -> (Vec<(String, RingState)>, u64) {
    let rings = registry
        .ring_names()
        .into_iter()
        .map(|name| {
            let state = registry.ring_state(&name).unwrap();
            (name, state)
        })
        .collect();
    (rings, registry.next_seq())
}

/// Feeds `text` to the follower a line at a time, as its reader would,
/// checking that a frame the registry job refuses changes nothing.
fn feed(
    seed: u64,
    dir: &Path,
    registry: &RingRegistry,
    replication: &ReplicationState,
    text: &str,
    stream_epoch: u64,
) {
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        let frame = match parse_ship_frame(line.trim_end()) {
            Ok(ShipFrame::Ping { .. }) | Err(_) => continue,
            Ok(frame) => frame,
        };
        let before = (registry.next_seq(), stored_bytes(dir));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let body: String = match frame {
                ShipFrame::Snapshot { lines: n, .. } => (lines.by_ref())
                    .take(usize::try_from(n).unwrap_or(usize::MAX))
                    .map(|l| format!("{l}\n"))
                    .collect(),
                _ => String::new(),
            };
            apply_frame(registry, replication, &frame, &body, stream_epoch)
        }));
        let outcome = outcome.unwrap_or_else(|_| panic!("seed {seed}: {line:?} panicked"));
        if outcome.is_err() {
            let after = (registry.next_seq(), stored_bytes(dir));
            assert!(
                before == after,
                "seed {seed}: refused {line:?} changed the journal"
            );
        }
    }
}

fn case(seed: u64, shipped: &Shipped) {
    let mut rng = StdRng::seed_from_u64(seed);
    let dir = temp_dir(&format!("follower-{seed}"));
    let registry = RingRegistry::open(&dir).expect("open follower");
    registry.set_epoch(EPOCH).unwrap();
    let replication = ReplicationState::new(Some("primary".to_owned()));
    for _ in 0..8 {
        let next = usize::try_from(registry.next_seq()).unwrap_or(usize::MAX) - 1;
        let frame = valid_frame(shipped, &mut rng, next);
        let (text, epoch) = match rng.gen_range(0..6) {
            0 => (random_text(&mut rng), EPOCH),
            1 | 2 => (mutated_frame(&frame, &mut rng), EPOCH),
            // The frame of a stream this node has been fenced from.
            3 => (frame, EPOCH + 1),
            _ => (frame, EPOCH),
        };
        feed(seed, &dir, &registry, &replication, &text, epoch);
    }
    let held = fingerprint(&registry);
    drop(registry);
    let reopened = RingRegistry::open(&dir).unwrap_or_else(|e| panic!("seed {seed}: reopen: {e}"));
    assert!(
        fingerprint(&reopened) == held,
        "seed {seed}: the reopened journal differs from the state in memory"
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn no_ship_frame_panics_or_changes_a_refusing_journal(seed in any::<u64>()) {
        case(seed, &shipped());
    }
}

/// The frames reach applies, snapshot installs and refusals alike.
#[test]
fn the_frames_reach_applies_installs_and_refusals() {
    let shipped = shipped();
    let dir = temp_dir("coverage");
    let registry = RingRegistry::open(&dir).expect("open follower");
    registry.set_epoch(EPOCH).unwrap();
    let replication = ReplicationState::new(Some("primary".to_owned()));
    let (seq, text) = &shipped.snapshot;
    let lines = text.lines().count() as u64;
    let snapshot = format!("{}\n{text}", render_snapshot(*seq, lines));
    feed(0, &dir, &registry, &replication, &snapshot, EPOCH);
    for record in &shipped.records {
        let frame = format!("{}\n", render_record(record));
        // Fenced, then applied (or a duplicate of the snapshot's records).
        feed(0, &dir, &registry, &replication, &frame, EPOCH + 1);
        feed(0, &dir, &registry, &replication, &frame, EPOCH);
    }
    assert_eq!(registry.next_seq(), shipped.records.len() as u64 + 1);
    assert_eq!(replication.applied_seq(), shipped.records.len() as u64);
    let mut rng = StdRng::seed_from_u64(0);
    let mutated = (0..200)
        .map(|_| {
            mutated_frame(
                &format!("{}\n", render_record(&shipped.records[3])),
                &mut rng,
            )
        })
        .filter(|text| text.trim_end() != render_record(&shipped.records[3]))
        .count();
    assert!(
        mutated > 150,
        "{mutated} of 200 mutations changed the frame"
    );
    drop(registry);
    let _ = std::fs::remove_dir_all(dir);
}
