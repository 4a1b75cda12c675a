//! No damaged journal segment or snapshot panics `RingRegistry::open` or
//! makes it recover a state the primary never held. A primary's
//! fingerprint is recorded after every commit; then one of its segments
//! or its snapshot is cut at a random byte, or has one bit flipped, in a
//! copy of its directory. The open must either refuse, or recover the
//! state the primary held after a prefix of whole records that ends
//! before the damaged byte (any prefix, when the snapshot is damaged).
//!
//! The vendored proptest does not shrink, so a failure names the case's
//! seed; `case(seed)` replays it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ringrt_model::SyncStream;
use ringrt_registry::{FailpointFs, ProtocolKind, RingRegistry, RingSpec, RingState, StoreOptions};
use ringrt_units::{Bits, Seconds};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ringrt-journal-fuzz-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The rings a registry holds, with every stream, and its next sequence
/// number.
type Fingerprint = (Vec<(String, RingState)>, u64);

fn fingerprint(registry: &RingRegistry) -> Fingerprint {
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

/// A primary's state files and what it held after each commit.
struct History {
    /// `(name, bytes)`: journal segments in index order, then the
    /// snapshot.
    files: Vec<(String, Vec<u8>)>,
    /// `held[m]`: the state after the first `m` records.
    held: Vec<Fingerprint>,
}

/// A journaled primary with a snapshot and several small segments after
/// it. Built once per test binary.
fn history() -> &'static History {
    static HISTORY: OnceLock<History> = OnceLock::new();
    HISTORY.get_or_init(|| {
        let dir = temp_dir("primary");
        let options = StoreOptions {
            segment_bytes: 300,
            fs: FailpointFs::new(),
        };
        let primary = RingRegistry::open_with(&dir, options).expect("open primary");
        let mut held = vec![fingerprint(&primary)];
        let mut note = |registry: &RingRegistry| {
            held.push(fingerprint(registry));
            assert_eq!(
                held.len() as u64,
                registry.next_seq(),
                "one commit per step"
            );
        };
        let spec = |protocol| RingSpec {
            protocol,
            mbps: 16.0,
            stations: Some(16),
        };
        let stream =
            |period_ms: f64| SyncStream::new(Seconds::from_millis(period_ms), Bits::new(3_000));
        primary.register("a", spec(ProtocolKind::Fddi)).unwrap();
        note(&primary);
        for i in 0..5 {
            primary
                .admit("a", &format!("s{i}"), stream(20.0 + 4.0 * f64::from(i)))
                .unwrap();
            note(&primary);
        }
        primary.compact().unwrap();
        // After the snapshot: a ring of its own first, so records that
        // apply to an empty registry follow the snapshot too.
        primary.register("b", spec(ProtocolKind::Ieee8025)).unwrap();
        note(&primary);
        for i in 0..6 {
            primary
                .admit("b", &format!("t{i}"), stream(30.0 + 7.0 * f64::from(i)))
                .unwrap();
            note(&primary);
        }
        primary.remove("a", "s2").unwrap();
        note(&primary);
        primary.admit("a", "late", stream(90.0)).unwrap();
        note(&primary);
        primary.unregister("b").unwrap();
        note(&primary);
        drop(primary);
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
            .expect("list state dir")
            .map(|e| e.expect("dir entry").path())
            .filter_map(|path| {
                let name = path.file_name()?.to_string_lossy().into_owned();
                let state = name.starts_with("journal.") || name == "snapshot.dat";
                state.then(|| (name, std::fs::read(&path).expect("read state file")))
            })
            .collect();
        files.sort();
        let _ = std::fs::remove_dir_all(&dir);
        History { files, held }
    })
}

/// The highest sequence number of a record in `segment` that ends at or
/// before byte `at`, or in an earlier segment; `floor` when there is none.
fn last_whole_record(history: &History, segment: &str, at: usize, floor: u64) -> u64 {
    let mut last = floor;
    let segments = history
        .files
        .iter()
        .filter(|(n, _)| n.starts_with("journal."));
    for (name, bytes) in segments {
        let mut start = 0;
        for line in bytes.split_inclusive(|&b| b == b'\n') {
            let end = start + line.len();
            if name == segment && end > at {
                return last;
            }
            let text = std::str::from_utf8(line).unwrap();
            last = text.split(' ').nth(1).unwrap().parse().unwrap();
            start = end;
        }
        if name == segment {
            return last;
        }
    }
    last
}

/// The sequence number the primary's snapshot covers.
fn snapshot_seq(history: &History) -> u64 {
    let (_, bytes) = (history.files.iter())
        .find(|(n, _)| n == "snapshot.dat")
        .expect("the primary compacted");
    let header = std::str::from_utf8(bytes).unwrap().lines().next().unwrap();
    header.rsplit("seq=").next().unwrap().parse().unwrap()
}

fn case(seed: u64) {
    let history = history();
    let mut rng = StdRng::seed_from_u64(seed);
    let (damaged, original) = &history.files[rng.gen_range(0..history.files.len())];
    if original.is_empty() {
        return;
    }
    let mut bytes = original.clone();
    let at = rng.gen_range(0..bytes.len());
    let cut = rng.gen_range(0..2) == 0;
    if cut {
        bytes.truncate(at);
    } else {
        bytes[at] ^= 1 << rng.gen_range(0..8);
    }
    let dir = temp_dir(&format!("case-{seed}"));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, intact) in &history.files {
        let written = if name == damaged { &bytes } else { intact };
        std::fs::write(dir.join(name), written).unwrap();
    }
    let what = format!(
        "seed {seed}: {damaged} {} at byte {at}",
        if cut { "cut" } else { "bit-flipped" }
    );
    let opened = catch_unwind(AssertUnwindSafe(|| RingRegistry::open(&dir)))
        .unwrap_or_else(|_| panic!("{what}: open panicked"));
    if let Ok(registry) = opened {
        let recovered = fingerprint(&registry);
        let newest = if damaged == "snapshot.dat" {
            history.held.len() - 1
        } else {
            let floor = snapshot_seq(history);
            usize::try_from(last_whole_record(history, damaged, at, floor)).unwrap()
        };
        assert!(
            history.held[..=newest].contains(&recovered),
            "{what}: recovered a state the primary never held after its first {newest} records \
             ({} rings, next_seq {})",
            recovered.0.len(),
            recovered.1
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn no_damaged_state_file_panics_or_recovers_a_foreign_state(seed in any::<u64>()) {
        case(seed);
    }
}

/// The primary has what the cases damage: a snapshot and several
/// segments after it, and records that apply to an empty registry.
#[test]
fn the_primary_has_a_snapshot_and_several_segments() {
    let history = history();
    let files: Vec<&str> = history.files.iter().map(|(n, _)| n.as_str()).collect();
    assert!(files.contains(&"snapshot.dat"), "{files:?}");
    assert!(files.len() >= 4, "{files:?}");
    assert_eq!(snapshot_seq(history), 6);
    assert_eq!(history.held.len(), 17);
}
