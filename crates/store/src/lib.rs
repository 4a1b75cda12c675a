//! `ringrt-store`: a columnar store for named synchronous streams with
//! maintained secondary indexes.
//!
//! The registry historically kept each ring's streams in a flat
//! `Vec<NamedStream>` and rebuilt a [`MessageSet`] (clone + sort) for every
//! admission decision. That is fine for the paper's tens of streams and
//! arithmetic fiction for the ROADMAP's millions. [`StreamStore`] keeps the
//! per-stream attributes in parallel columns (period, relative deadline,
//! message length, name) addressed by recycled row slots, and maintains the
//! orders the admission theorems consume as *indexes* instead of per-query
//! sorts:
//!
//! * **admission order** (= station order): a Fenwick tree over admission
//!   sequence numbers answers rank ("which station index is this stream?")
//!   and select ("which stream is station k?") in O(log n), which makes
//!   removal O(log n) index maintenance and `SHOW` paging O(log n + page);
//! * **deadline-monotonic order**: a `BTreeSet` keyed by
//!   `(deadline, period, sequence)` — the exact `MessageSet::dm_order`
//!   tie-break, since relative sequence order equals relative station
//!   order — gives the PDP re-test iteration and `D_min` without sorting;
//! * **period order**: a `BTreeSet` keyed by `(period, sequence)` gives
//!   `P_min` for TTRT selection in O(1);
//! * **name**: a `HashMap` gives duplicate detection and lookup in O(1).
//!
//! Rows are addressed by generation-stamped [`StreamHandle`]s: freeing a
//! row bumps its generation, so a stale handle can never silently read a
//! recycled slot. After heavy churn the sequence domain is compacted
//! (sequences renumbered densely, preserving relative order) so iteration
//! and memory stay proportional to the live set; every such rebuild bumps
//! [`StreamStore::index_rebuilds`], which both observability and the
//! registry's term-cache validity checks consume.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeSet, HashMap};

use ringrt_model::{MessageSet, ModelError, SetView, SyncStream};
use ringrt_units::{Bandwidth, Bits, Seconds};

mod fenwick;

use fenwick::Fenwick;

/// What one name-index entry costs besides its key's heap bytes.
const NAME_ENTRY: usize = std::mem::size_of::<(String, u32)>();

/// Sentinel for "this admission sequence is no longer live".
const DEAD: u32 = u32::MAX;

/// Compact the sequence domain when less than half of it is live (and it
/// is big enough for the rebuild to matter). Keeps admission-order scans
/// within 2x of the live count and bounds index memory under churn.
const REBUILD_MIN_DOMAIN: usize = 64;

/// A generation-stamped handle to a stored stream.
///
/// The handle names a physical row; the generation is bumped every time
/// the row is freed, so handles from before a removal can never alias the
/// stream that later recycles the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamHandle {
    row: u32,
    generation: u32,
}

impl StreamHandle {
    /// The generation stamp carried by this handle.
    #[must_use]
    pub fn generation(&self) -> u32 {
        self.generation
    }
}

/// Occupancy statistics for one store, consumed by `STATS` / `METRICS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Live streams.
    pub streams: usize,
    /// Sequence-domain compactions performed over the store's lifetime.
    pub index_rebuilds: u64,
    /// Approximate resident bytes of columns plus indexes.
    pub bytes: usize,
}

/// Columnar stream store with maintained secondary indexes.
///
/// Equality ignores physical row placement and sequence numbering: two
/// stores are equal iff they hold the same `(name, stream)` pairs in the
/// same admission order — the property journal replay and snapshot
/// shipping must preserve.
#[derive(Debug, Clone)]
pub struct StreamStore {
    // -- columns, indexed by row slot --------------------------------------
    names: Vec<String>,
    periods: Vec<Seconds>,
    /// Explicit relative deadline; `None` means "end of period".
    deadlines: Vec<Option<Seconds>>,
    lengths: Vec<Bits>,
    seqs: Vec<u64>,
    generations: Vec<u32>,
    free: Vec<u32>,
    // -- admission-order index ---------------------------------------------
    /// `seq -> row`, [`DEAD`] once removed. Length equals the sequence
    /// domain size; the next admission takes sequence `seq_rows.len()`.
    seq_rows: Vec<u32>,
    occupancy: Fenwick,
    live: usize,
    // -- secondary indexes --------------------------------------------------
    /// `(relative_deadline bits, period bits, seq)` — deadline-monotonic
    /// order with the `MessageSet::dm_order` tie-break.
    dm: BTreeSet<(u64, u64, u64)>,
    /// `(period bits, seq)` — rate-monotonic order; first entry is `P_min`.
    by_period: BTreeSet<(u64, u64)>,
    by_name: HashMap<String, u32>,
    /// Heap bytes of the name column and the name index, kept as they
    /// change so [`StreamStore::approx_bytes`] is O(1).
    name_bytes: usize,
    rebuilds: u64,
}

impl Default for StreamStore {
    fn default() -> Self {
        StreamStore::new()
    }
}

impl StreamStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        StreamStore {
            names: Vec::new(),
            periods: Vec::new(),
            deadlines: Vec::new(),
            lengths: Vec::new(),
            seqs: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            seq_rows: Vec::new(),
            occupancy: Fenwick::default(),
            live: 0,
            dm: BTreeSet::new(),
            by_period: BTreeSet::new(),
            by_name: HashMap::new(),
            name_bytes: 0,
            rebuilds: 0,
        }
    }

    /// Number of live streams.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the store holds no streams.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Whether a stream named `name` is stored.
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        self.by_name.contains_key(name)
    }

    /// The handle of the stream named `name`.
    #[must_use]
    pub fn handle_of(&self, name: &str) -> Option<StreamHandle> {
        self.by_name.get(name).map(|&row| StreamHandle {
            row,
            generation: self.generations[row as usize],
        })
    }

    /// Reads a stream through its handle; `None` once the handle is stale
    /// (the row was freed or recycled after the handle was issued).
    #[must_use]
    pub fn get(&self, handle: StreamHandle) -> Option<(&str, SyncStream)> {
        let row = handle.row as usize;
        if row >= self.generations.len()
            || self.generations[row] != handle.generation
            || self.seqs[row] as usize >= self.seq_rows.len()
            || self.seq_rows[self.seqs[row] as usize] != handle.row
        {
            return None;
        }
        Some((&self.names[row], self.stream_at(row)))
    }

    /// Station index (position in admission order) of the stream named
    /// `name`: O(log n) via the occupancy index.
    #[must_use]
    pub fn station_index(&self, name: &str) -> Option<usize> {
        let &row = self.by_name.get(name)?;
        Some(self.occupancy.prefix(self.seqs[row as usize] as usize))
    }

    /// The admission sequence currently assigned to `name`.
    #[must_use]
    pub fn seq_of(&self, name: &str) -> Option<u64> {
        self.by_name.get(name).map(|&row| self.seqs[row as usize])
    }

    /// Admits a stream, assigning it the next admission sequence (= the
    /// highest station index). Returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if a stream named `name` is already stored; callers check
    /// [`StreamStore::contains`] first.
    pub fn admit(&mut self, name: &str, stream: SyncStream) -> StreamHandle {
        assert!(
            !self.by_name.contains_key(name),
            "duplicate stream `{name}`"
        );
        let seq = self.seq_rows.len() as u64;
        let row = match self.free.pop() {
            Some(row) => {
                let r = row as usize;
                self.name_bytes -= self.names[r].capacity();
                self.names[r] = name.to_owned();
                self.periods[r] = stream.period();
                self.deadlines[r] = explicit_deadline(&stream);
                self.lengths[r] = stream.length_bits();
                self.seqs[r] = seq;
                row
            }
            None => {
                let row = self.names.len() as u32;
                self.names.push(name.to_owned());
                self.periods.push(stream.period());
                self.deadlines.push(explicit_deadline(&stream));
                self.lengths.push(stream.length_bits());
                self.seqs.push(seq);
                self.generations.push(0);
                row
            }
        };
        self.seq_rows.push(row);
        self.occupancy.push_zero();
        self.occupancy.add(seq as usize, 1);
        self.live += 1;
        self.dm.insert(self.dm_key(row as usize));
        self.by_period.insert(self.period_key(row as usize));
        let key = name.to_owned();
        self.name_bytes += key.capacity() + NAME_ENTRY + self.names[row as usize].capacity();
        self.by_name.insert(key, row);
        StreamHandle {
            row,
            generation: self.generations[row as usize],
        }
    }

    /// Exactly undoes the **most recent** [`StreamStore::admit`], restoring
    /// the store (including the sequence counter) bit-for-bit. Used by the
    /// registry's tentative-admit flow when the schedulability test rejects
    /// the candidate or the journal write fails.
    ///
    /// # Panics
    ///
    /// Panics if `handle` does not name the newest admission.
    pub fn rollback_admit(&mut self, handle: StreamHandle) {
        let row = handle.row as usize;
        let seq = self.seqs[row];
        assert!(
            seq as usize + 1 == self.seq_rows.len()
                && self.generations[row] == handle.generation
                && self.seq_rows[seq as usize] == handle.row,
            "rollback_admit requires the newest admission"
        );
        self.dm.remove(&self.dm_key(row));
        self.by_period.remove(&self.period_key(row));
        if let Some((key, _)) = self.by_name.remove_entry(&self.names[row]) {
            self.name_bytes -= key.capacity() + NAME_ENTRY;
        }
        self.occupancy.add(seq as usize, -1);
        self.occupancy.truncate(seq as usize);
        self.seq_rows.pop();
        self.live -= 1;
        self.generations[row] = self.generations[row].wrapping_add(1);
        self.free.push(handle.row);
    }

    /// Removes the stream named `name`, returning the admission sequence it
    /// held. O(log n) index maintenance; may trigger a sequence-domain
    /// compaction (see [`StreamStore::index_rebuilds`]).
    pub fn remove(&mut self, name: &str) -> Option<u64> {
        let (key, row32) = self.by_name.remove_entry(name)?;
        self.name_bytes -= key.capacity() + NAME_ENTRY;
        let row = row32 as usize;
        let seq = self.seqs[row];
        self.dm.remove(&self.dm_key(row));
        self.by_period.remove(&self.period_key(row));
        self.seq_rows[seq as usize] = DEAD;
        self.occupancy.add(seq as usize, -1);
        self.live -= 1;
        self.generations[row] = self.generations[row].wrapping_add(1);
        self.names[row].clear();
        self.free.push(row32);
        if self.seq_rows.len() >= REBUILD_MIN_DOMAIN && self.live * 2 < self.seq_rows.len() {
            self.rebuild_sequences();
        }
        Some(seq)
    }

    /// Renumbers admission sequences densely (`0..live`), preserving
    /// relative order, and rebuilds the indexes that key on sequences.
    fn rebuild_sequences(&mut self) {
        let rows: Vec<u32> = self
            .seq_rows
            .iter()
            .copied()
            .filter(|&r| r != DEAD)
            .collect();
        self.seq_rows.clear();
        self.occupancy.truncate(0);
        self.dm.clear();
        self.by_period.clear();
        for (new_seq, &row) in rows.iter().enumerate() {
            self.seqs[row as usize] = new_seq as u64;
            self.seq_rows.push(row);
            self.occupancy.push_zero();
            self.occupancy.add(new_seq, 1);
            self.dm.insert(self.dm_key(row as usize));
            self.by_period.insert(self.period_key(row as usize));
        }
        self.rebuilds += 1;
    }

    /// Sequence-domain compactions performed so far. Renumbering preserves
    /// admission order but invalidates externally cached per-sequence
    /// state; callers cache this counter and compare.
    #[must_use]
    pub fn index_rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Streams in admission (= station) order as
    /// `(sequence, name, stream)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &str, SyncStream)> + '_ {
        self.seq_rows
            .iter()
            .filter(|&&row| row != DEAD)
            .map(move |&row| {
                let r = row as usize;
                (self.seqs[r], self.names[r].as_str(), self.stream_at(r))
            })
    }

    /// Streams in deadline-monotonic order as `(sequence, stream)` —
    /// shortest relative deadline first, ties by period then admission
    /// order, exactly matching `MessageSet::dm_order`.
    pub fn dm_iter(&self) -> impl Iterator<Item = (u64, SyncStream)> + '_ {
        self.dm.iter().map(move |&(_, _, seq)| {
            let row = self.seq_rows[seq as usize] as usize;
            (seq, self.stream_at(row))
        })
    }

    /// Deadline-monotonic rank (0 = highest priority) of the stream holding
    /// admission sequence `seq`. O(rank).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not live.
    #[must_use]
    pub fn dm_rank_of(&self, seq: u64) -> usize {
        let row = self.seq_rows[seq as usize];
        assert!(row != DEAD, "sequence {seq} is not live");
        let key = self.dm_key(row as usize);
        self.dm.range(..key).count()
    }

    /// A page of the admission-order listing: up to `limit` streams
    /// starting at station index `offset`. O(log n + limit).
    pub fn page(
        &self,
        offset: usize,
        limit: usize,
    ) -> impl Iterator<Item = (&str, SyncStream)> + '_ {
        let start = self.occupancy.select(offset).unwrap_or(self.seq_rows.len());
        self.seq_rows[start..]
            .iter()
            .filter(|&&row| row != DEAD)
            .take(limit)
            .map(move |&row| {
                let r = row as usize;
                (self.names[r].as_str(), self.stream_at(r))
            })
    }

    /// The shortest relative deadline `D_min`, or `None` when empty. O(1)
    /// off the deadline index.
    #[must_use]
    pub fn min_deadline(&self) -> Option<Seconds> {
        self.dm
            .first()
            .map(|&(d, _, _)| Seconds::new(f64::from_bits(d)))
    }

    /// The shortest period `P_min`, or `None` when empty. O(1) off the
    /// period index.
    #[must_use]
    pub fn min_period(&self) -> Option<Seconds> {
        self.by_period
            .first()
            .map(|&(p, _)| Seconds::new(f64::from_bits(p)))
    }

    /// Total utilization `Σ C_i / P_i`, summed in admission order — the
    /// same accumulation order as `MessageSet::utilization`.
    #[must_use]
    pub fn utilization(&self, bandwidth: Bandwidth) -> f64 {
        self.iter().map(|(_, _, s)| s.utilization(bandwidth)).sum()
    }

    /// Materializes the streams (admission order) as a [`MessageSet`];
    /// `None` when empty. The compatibility bridge to pre-view consumers —
    /// O(n), so hot paths use the view instead.
    ///
    /// # Errors
    ///
    /// Never fails in practice: every stored stream was a valid
    /// `SyncStream`, and the empty case returns `Ok(None)`.
    pub fn message_set(&self) -> Result<Option<MessageSet>, ModelError> {
        if self.is_empty() {
            return Ok(None);
        }
        MessageSet::new(self.iter().map(|(_, _, s)| s).collect()).map(Some)
    }

    /// Occupancy statistics for observability.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            streams: self.live,
            index_rebuilds: self.rebuilds,
            bytes: self.approx_bytes(),
        }
    }

    /// Approximate resident bytes: column capacities plus index entries.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.names.capacity() * size_of::<String>()
            + self.name_bytes
            + self.periods.capacity() * size_of::<Seconds>()
            + self.deadlines.capacity() * size_of::<Option<Seconds>>()
            + self.lengths.capacity() * size_of::<Bits>()
            + self.seqs.capacity() * size_of::<u64>()
            + self.generations.capacity() * size_of::<u32>()
            + self.free.capacity() * size_of::<u32>()
            + self.seq_rows.capacity() * size_of::<u32>()
            + self.occupancy.len() * size_of::<u32>()
            + self.dm.len() * size_of::<(u64, u64, u64)>()
            + self.by_period.len() * size_of::<(u64, u64)>()
    }

    fn stream_at(&self, row: usize) -> SyncStream {
        let s = SyncStream::new(self.periods[row], self.lengths[row]);
        match self.deadlines[row] {
            Some(d) => s.with_relative_deadline(d),
            None => s,
        }
    }

    fn dm_key(&self, row: usize) -> (u64, u64, u64) {
        let deadline = self.deadlines[row].unwrap_or(self.periods[row]);
        (
            deadline.as_secs_f64().to_bits(),
            self.periods[row].as_secs_f64().to_bits(),
            self.seqs[row],
        )
    }

    fn period_key(&self, row: usize) -> (u64, u64) {
        (self.periods[row].as_secs_f64().to_bits(), self.seqs[row])
    }
}

fn explicit_deadline(stream: &SyncStream) -> Option<Seconds> {
    if stream.has_implicit_deadline() {
        None
    } else {
        Some(stream.relative_deadline())
    }
}

impl PartialEq for StreamStore {
    /// Admission-order `(name, stream)` equality; physical rows, sequence
    /// numbering gaps, and rebuild history are representation detail.
    fn eq(&self, other: &Self) -> bool {
        self.live == other.live
            && self
                .iter()
                .zip(other.iter())
                .all(|((_, an, astream), (_, bn, bstream))| an == bn && astream == bstream)
    }
}

impl SetView for StreamStore {
    fn view_len(&self) -> usize {
        self.live
    }

    fn stations(&self) -> Box<dyn Iterator<Item = SyncStream> + '_> {
        Box::new(self.iter().map(|(_, _, s)| s))
    }

    fn dm_streams(&self) -> Box<dyn Iterator<Item = SyncStream> + '_> {
        Box::new(self.dm_iter().map(|(_, s)| s))
    }

    fn min_deadline_view(&self) -> Option<Seconds> {
        self.min_deadline()
    }

    fn min_period_view(&self) -> Option<Seconds> {
        self.min_period()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(period_ms: f64, bits: u64) -> SyncStream {
        SyncStream::new(Seconds::from_millis(period_ms), Bits::new(bits))
    }

    #[test]
    fn admit_iter_and_lookup() {
        let mut store = StreamStore::new();
        let h0 = store.admit("a", stream(30.0, 100));
        store.admit("b", stream(10.0, 200));
        store.admit("c", stream(20.0, 300));
        assert_eq!(store.len(), 3);
        assert_eq!(store.station_index("a"), Some(0));
        assert_eq!(store.station_index("c"), Some(2));
        assert_eq!(store.get(h0).map(|(n, _)| n), Some("a"));
        let names: Vec<&str> = store.iter().map(|(_, n, _)| n).collect();
        assert_eq!(names, ["a", "b", "c"]);
        // DM order: b (10) < c (20) < a (30).
        let dm: Vec<u64> = store.dm_iter().map(|(seq, _)| seq).collect();
        assert_eq!(dm, [1, 2, 0]);
        assert_eq!(store.dm_rank_of(0), 2);
        assert_eq!(store.min_period(), Some(Seconds::from_millis(10.0)));
        assert_eq!(store.min_deadline(), Some(Seconds::from_millis(10.0)));
    }

    #[test]
    fn remove_shifts_station_indexes() {
        let mut store = StreamStore::new();
        for (i, name) in ["a", "b", "c", "d"].iter().enumerate() {
            store.admit(name, stream(10.0 + i as f64, 100));
        }
        assert_eq!(store.remove("b"), Some(1));
        assert_eq!(store.len(), 3);
        assert!(!store.contains("b"));
        assert_eq!(store.station_index("a"), Some(0));
        assert_eq!(store.station_index("c"), Some(1));
        assert_eq!(store.station_index("d"), Some(2));
        assert_eq!(store.remove("b"), None);
    }

    #[test]
    fn stale_handles_do_not_alias_recycled_rows() {
        let mut store = StreamStore::new();
        let h = store.admit("old", stream(10.0, 100));
        store.remove("old");
        assert_eq!(store.get(h), None);
        // The freed row is recycled; the stale handle still reads nothing.
        let h2 = store.admit("new", stream(20.0, 200));
        assert_eq!(store.get(h), None);
        assert_eq!(store.get(h2).map(|(n, _)| n), Some("new"));
    }

    #[test]
    fn rollback_restores_sequences_exactly() {
        let mut store = StreamStore::new();
        store.admit("a", stream(30.0, 100));
        let reference = store.clone();
        let h = store.admit("reject-me", stream(5.0, 900));
        store.rollback_admit(h);
        assert_eq!(store, reference);
        assert_eq!(store.seq_of("a"), Some(0));
        // The next admission reuses the rolled-back sequence.
        store.admit("b", stream(40.0, 100));
        assert_eq!(store.seq_of("b"), Some(1));
        assert_eq!(store.station_index("b"), Some(1));
    }

    #[test]
    fn churn_triggers_rebuild_and_preserves_order() {
        let mut store = StreamStore::new();
        for i in 0..80 {
            store.admit(&format!("s{i}"), stream(10.0 + i as f64, 100));
        }
        assert_eq!(store.index_rebuilds(), 0);
        for i in 0..60 {
            store.remove(&format!("s{i}"));
        }
        assert!(store.index_rebuilds() >= 1, "dense churn must compact");
        let names: Vec<String> = store.iter().map(|(_, n, _)| n.to_owned()).collect();
        let expect: Vec<String> = (60..80).map(|i| format!("s{i}")).collect();
        assert_eq!(names, expect);
        // Compaction keeps the sequence domain within 2x of the live set.
        let seqs: Vec<u64> = store.iter().map(|(seq, _, _)| seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        assert!(*seqs.last().unwrap() < 2 * store.len() as u64);
        for (k, name) in expect.iter().enumerate() {
            assert_eq!(store.station_index(name), Some(k));
        }
    }

    #[test]
    fn paging_matches_full_iteration() {
        let mut store = StreamStore::new();
        for i in 0..10 {
            store.admit(&format!("s{i}"), stream(10.0 + i as f64, 100));
        }
        store.remove("s3");
        store.remove("s7");
        let all: Vec<String> = store.iter().map(|(_, n, _)| n.to_owned()).collect();
        for offset in 0..=all.len() + 1 {
            for limit in 0..=all.len() + 1 {
                let page: Vec<String> = store
                    .page(offset, limit)
                    .map(|(n, _)| n.to_owned())
                    .collect();
                let expect: Vec<String> = all.iter().skip(offset).take(limit).cloned().collect();
                assert_eq!(page, expect, "offset={offset} limit={limit}");
            }
        }
    }

    #[test]
    fn equality_ignores_sequence_gaps() {
        let mut gappy = StreamStore::new();
        gappy.admit("a", stream(30.0, 100));
        gappy.admit("dead", stream(10.0, 100));
        gappy.admit("b", stream(20.0, 100));
        gappy.remove("dead");
        let mut dense = StreamStore::new();
        dense.admit("a", stream(30.0, 100));
        dense.admit("b", stream(20.0, 100));
        assert_eq!(gappy, dense);
        dense.remove("b");
        assert_ne!(gappy, dense);
    }

    #[test]
    fn view_matches_materialized_message_set() {
        let mut store = StreamStore::new();
        store.admit("a", stream(30.0, 100));
        store.admit(
            "tight",
            stream(50.0, 200).with_relative_deadline(Seconds::from_millis(10.0)),
        );
        store.admit("c", stream(20.0, 300));
        let set = store.message_set().unwrap().unwrap();
        let via_view: Vec<SyncStream> = store.stations().collect();
        assert_eq!(via_view, set.as_slice());
        let dm_view: Vec<SyncStream> = store.dm_streams().collect();
        let dm_set: Vec<SyncStream> = SetView::dm_streams(&set).collect();
        assert_eq!(dm_view, dm_set);
        assert_eq!(
            store.min_deadline().unwrap().as_secs_f64().to_bits(),
            set.min_deadline().as_secs_f64().to_bits()
        );
        assert_eq!(
            store.min_period().unwrap().as_secs_f64().to_bits(),
            set.min_period().as_secs_f64().to_bits()
        );
        assert_eq!(
            store.utilization(Bandwidth::from_mbps(100.0)).to_bits(),
            set.utilization(Bandwidth::from_mbps(100.0)).to_bits()
        );
    }

    /// The name bytes `approx_bytes` keeps, counted afresh.
    fn counted_name_bytes(store: &StreamStore) -> usize {
        let column: usize = store.names.iter().map(String::capacity).sum();
        let index = store.by_name.keys().map(|k| k.capacity() + NAME_ENTRY);
        column + index.sum::<usize>()
    }

    #[test]
    fn name_bytes_follow_admits_rollbacks_and_removals() {
        let mut store = StreamStore::new();
        for i in 0..200u32 {
            let name = format!("stream-{}", "x".repeat((i % 7) as usize));
            let name = format!("{name}{i}");
            let handle = store.admit(&name, stream(10.0 + f64::from(i), 100));
            if i % 5 == 0 {
                store.rollback_admit(handle);
            } else if i % 3 == 0 {
                store.remove(&name);
            }
            assert_eq!(store.name_bytes, counted_name_bytes(&store), "step {i}");
        }
    }

    #[test]
    fn stats_track_occupancy() {
        let mut store = StreamStore::new();
        assert_eq!(store.stats().streams, 0);
        store.admit("a", stream(30.0, 100));
        let s = store.stats();
        assert_eq!(s.streams, 1);
        assert!(s.bytes > 0);
        assert_eq!(s.index_rebuilds, 0);
    }
}
