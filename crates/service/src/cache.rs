//! Sharded, canonicalizing result cache with LRU eviction.
//!
//! Admission checks are pure functions of (message set, ring config,
//! protocol), so identical requests — a common pattern when clients retry
//! or several front-ends ask about the same set — can be answered without
//! re-running the analysis. Keys canonicalize the message set by *sorting*
//! the streams, so two requests that list the same streams in different
//! order hit the same entry.
//!
//! The map is split into [`SHARDS`] independently locked shards (hash of
//! the key picks the shard) so the workers and the event loop rarely
//! contend on the same mutex. Each shard holds at most
//! `capacity / SHARDS` entries; inserting into a full shard evicts its
//! least-recently-used entry, so a long-running server's memory stays
//! bounded no matter how many distinct sets clients probe.
//!
//! Each shard keeps its entries in a slab ordered by an index-linked
//! recency list, so a hit's refresh and an eviction are O(1) whatever
//! the capacity: the event loop inserts after every `CHECK` it answers
//! itself, and `--cache-entries 262144` must not make that a scan.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::protocol::{AbuRequest, AnalysisRequest, CommandKind, ProtocolKind};

/// Number of independently locked shards. Power of two, comfortably above
/// any realistic worker count.
pub const SHARDS: usize = 16;

/// Default total entry capacity when none is configured.
pub const DEFAULT_CAPACITY: usize = 4096;

/// A canonical description of an analysis request.
///
/// Floats are compared by their IEEE-754 bit patterns: requests must be
/// *literally* identical (after stream reordering) to share an entry,
/// which is exactly the semantics a result cache needs — no epsilon
/// surprises.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    command: CommandKind,
    /// SIMULATE-only parameters; zeroed for the analytic commands so that
    /// e.g. a CHECK and a SATURATION of the same set stay distinct only
    /// via `command`. `ABU` keys reuse the first two slots for
    /// `(samples, seed)`.
    sim: (u64, u64, u64),
    input: Input,
}

/// What a cached command analyzed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Input {
    /// A set sent with the request (none for `ABU`), on a ring with these
    /// parameters.
    Inline {
        protocol: ProtocolKind,
        mbps_bits: u64,
        stations: usize,
        /// `(period seconds as bits, payload bits)` per stream, sorted.
        streams: Vec<(u64, u64)>,
    },
    /// A stored ring's registry mutation generation, which names one state
    /// of one ring: a mutation strands the entry, no `EVICT` needed.
    Stored(u64),
}

impl CommandKind {
    fn cacheable(self) -> bool {
        !matches!(self, CommandKind::Sleep)
    }
}

/// The `sim` slots of a key: what else a `SIMULATE` depends on.
fn sim_params(command: CommandKind, seconds: f64, async_load: f64, seed: u64) -> (u64, u64, u64) {
    if command == CommandKind::Simulate {
        (seconds.to_bits(), async_load.to_bits(), seed)
    } else {
        (0, 0, 0)
    }
}

impl CacheKey {
    /// Builds the canonical key for a request, or `None` if the command's
    /// results are not cacheable.
    #[must_use]
    pub fn for_request(req: &AnalysisRequest) -> Option<CacheKey> {
        if !req.command.cacheable() {
            return None;
        }
        let mut streams: Vec<(u64, u64)> = req
            .set
            .as_slice()
            .iter()
            .map(|s| (s.period().as_secs_f64().to_bits(), s.length_bits().as_u64()))
            .collect();
        streams.sort_unstable();
        Some(CacheKey {
            command: req.command,
            sim: sim_params(req.command, req.seconds, req.async_load, req.seed),
            input: Input::Inline {
                protocol: req.protocol,
                mbps_bits: req.mbps.to_bits(),
                stations: req.effective_stations(),
                streams,
            },
        })
    }

    /// The canonical key for an `ABU` request. Always cacheable: the
    /// parallel estimator's sample stream is bit-identical for a given
    /// seed at any pool width, so the cached body is exact.
    #[must_use]
    pub fn for_abu(req: &AbuRequest) -> CacheKey {
        CacheKey {
            command: CommandKind::Abu,
            sim: (req.samples as u64, req.seed, 0),
            input: Input::Inline {
                protocol: req.protocol,
                mbps_bits: req.mbps.to_bits(),
                stations: req.stations,
                streams: Vec::new(),
            },
        }
    }

    /// The key of a stored ring's `SIMULATE` or `SATURATION`: the command,
    /// its parameters and the ring's generation. It reads no stream.
    #[must_use]
    pub fn for_ring(
        command: CommandKind,
        seconds: f64,
        async_load: f64,
        seed: u64,
        generation: u64,
    ) -> CacheKey {
        CacheKey {
            command,
            sim: sim_params(command, seconds, async_load, seed),
            input: Input::Stored(generation),
        }
    }

    fn shard(&self) -> usize {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        (h.finish() as usize) % SHARDS
    }
}

/// End of a shard's recency list.
const NIL: usize = usize::MAX;

/// One cached response body and its place in its shard's recency list.
#[derive(Debug)]
struct Node {
    /// Shared with the shard's index, so the key is stored once.
    key: Arc<CacheKey>,
    body: String,
    /// The next more recently used entry, or [`NIL`].
    newer: usize,
    /// The next less recently used entry, or [`NIL`].
    older: usize,
}

/// One shard: entries in a slab, found through `index`, linked from
/// `newest` to `oldest` by last use.
#[derive(Debug)]
struct Shard {
    index: HashMap<Arc<CacheKey>, usize>,
    nodes: Vec<Node>,
    newest: usize,
    oldest: usize,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            index: HashMap::new(),
            nodes: Vec::new(),
            newest: NIL,
            oldest: NIL,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (newer, older) = (self.nodes[i].newer, self.nodes[i].older);
        match newer {
            NIL => self.newest = older,
            n => self.nodes[n].older = older,
        }
        match older {
            NIL => self.oldest = newer,
            o => self.nodes[o].newer = newer,
        }
    }

    fn push_newest(&mut self, i: usize) {
        self.nodes[i].newer = NIL;
        self.nodes[i].older = self.newest;
        match self.newest {
            NIL => self.oldest = i,
            n => self.nodes[n].newer = i,
        }
        self.newest = i;
    }

    /// Marks entry `i` as the most recently used.
    fn touch(&mut self, i: usize) {
        if self.newest != i {
            self.unlink(i);
            self.push_newest(i);
        }
    }

    /// Stores `body` under `key`; returns whether the oldest entry was
    /// evicted to make room.
    fn insert(&mut self, key: CacheKey, body: String, capacity: usize) -> bool {
        if let Some(&i) = self.index.get(&key) {
            self.nodes[i].body = body;
            self.touch(i);
            return false;
        }
        let key = Arc::new(key);
        let node = Node {
            key: Arc::clone(&key),
            body,
            newer: NIL,
            older: NIL,
        };
        let evicted = self.nodes.len() >= capacity;
        let i = if evicted {
            let i = self.oldest;
            self.unlink(i);
            self.index.remove(&*self.nodes[i].key);
            self.nodes[i] = node;
            i
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        };
        self.index.insert(key, i);
        self.push_newest(i);
        evicted
    }

    fn clear(&mut self) -> usize {
        let removed = self.nodes.len();
        *self = Shard::new();
        removed
    }
}

/// The sharded LRU verdict cache with hit/miss/eviction accounting.
#[derive(Debug)]
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    /// Entry cap per shard (total capacity / [`SHARDS`], at least 1).
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ResultCache {
    /// Creates an empty cache with the [`DEFAULT_CAPACITY`].
    #[must_use]
    pub fn new() -> Self {
        ResultCache::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates an empty cache capped at `capacity` total entries
    /// (distributed over the shards; at least one entry per shard).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        ResultCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
            shard_capacity: (capacity / SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Total entry capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shard_capacity * SHARDS
    }

    /// Looks up a cached response body, counting the hit or miss and
    /// refreshing the entry's recency on a hit.
    #[must_use]
    pub fn get(&self, key: &CacheKey) -> Option<String> {
        let mut shard = self.lock(key);
        let found = shard.index.get(key).copied().map(|i| {
            shard.touch(i);
            shard.nodes[i].body.clone()
        });
        drop(shard);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Stores a successful response body, evicting the shard's
    /// least-recently-used entry if the shard is at capacity.
    pub fn insert(&self, key: CacheKey, body: String) {
        if self.lock(&key).insert(key, body, self.shard_capacity) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn lock(&self, key: &CacheKey) -> std::sync::MutexGuard<'_, Shard> {
        self.shards[key.shard()]
            .lock()
            .expect("cache shard poisoned")
    }

    /// Drops every entry (the `EVICT` command), returning how many were
    /// removed. The removals are **not** counted as LRU evictions — they
    /// were requested, not forced by capacity.
    pub fn clear(&self) -> usize {
        let mut removed = 0;
        for shard in &self.shards {
            removed += shard.lock().expect("cache shard poisoned").clear();
        }
        removed
    }

    /// Zeroes the hit/miss/eviction counters (the `STATS RESET` command).
    ///
    /// Stored entries are untouched — occupancy is a gauge, and dropping
    /// warm entries on a stats reset would perturb the very latencies the
    /// next measurement window wants to observe. Use [`ResultCache::clear`]
    /// (the `EVICT` command) to drop entries.
    pub fn reset_counters(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    /// Cache hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by the LRU policy so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of distinct entries currently stored.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").nodes.len())
            .sum()
    }
}

#[cfg(test)]
impl ResultCache {
    /// Every shard's entries, least recently used first, after checking
    /// that the recency list, the slab and the index agree.
    fn recency(&self) -> Vec<Vec<(CacheKey, String)>> {
        self.shards
            .iter()
            .map(|shard| {
                let shard = shard.lock().expect("cache shard poisoned");
                let mut out = Vec::new();
                let mut i = shard.oldest;
                while i != NIL {
                    let node = &shard.nodes[i];
                    assert_eq!(shard.index.get(&*node.key), Some(&i), "index disagrees");
                    out.push(((*node.key).clone(), node.body.clone()));
                    i = node.newer;
                }
                let mut back = 0;
                let mut i = shard.newest;
                while i != NIL {
                    back += 1;
                    i = shard.nodes[i].older;
                }
                assert_eq!(back, out.len(), "recency links disagree");
                assert_eq!(shard.nodes.len(), out.len(), "slab holds unlinked nodes");
                assert_eq!(shard.index.len(), out.len(), "index holds stale keys");
                out
            })
            .collect()
    }
}

impl Default for ResultCache {
    fn default() -> Self {
        ResultCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_request, Request};

    fn key_of(line: &str) -> Option<CacheKey> {
        match parse_request(line).unwrap() {
            Request::Analysis(a) => CacheKey::for_request(&a),
            other => panic!("not an analysis request: {other:?}"),
        }
    }

    #[test]
    fn stream_order_is_canonicalized() {
        let a = key_of("CHECK mbps=16 set=20,1000;50,2000").unwrap();
        let b = key_of("CHECK mbps=16 set=50,2000;20,1000").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_parameters_differ() {
        let base = key_of("CHECK mbps=16 set=20,1000").unwrap();
        assert_ne!(base, key_of("CHECK mbps=4 set=20,1000").unwrap());
        assert_ne!(base, key_of("CHECK mbps=16 set=20,1001").unwrap());
        assert_ne!(
            base,
            key_of("CHECK mbps=16 set=20,1000 protocol=fddi").unwrap()
        );
        assert_ne!(
            base,
            key_of("CHECK mbps=16 set=20,1000 stations=9").unwrap()
        );
        assert_ne!(base, key_of("SATURATION mbps=16 set=20,1000").unwrap());
    }

    #[test]
    fn simulate_keys_include_sim_parameters() {
        let a = key_of("SIMULATE mbps=16 set=20,1000 seed=1").unwrap();
        let b = key_of("SIMULATE mbps=16 set=20,1000 seed=2").unwrap();
        let c = key_of("SIMULATE mbps=16 set=20,1000 seconds=0.25").unwrap();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn deadline_does_not_affect_key() {
        let a = key_of("CHECK mbps=16 set=20,1000").unwrap();
        let b = key_of("CHECK mbps=16 set=20,1000 deadline_ms=5").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn ring_keys_are_the_command_parameters_and_generation() {
        let key =
            |command, seed, generation| CacheKey::for_ring(command, 1.0, 0.0, seed, generation);
        let base = key(CommandKind::Simulate, 1, 7);
        assert_eq!(base, key(CommandKind::Simulate, 1, 7));
        assert_ne!(base, key(CommandKind::Simulate, 1, 8), "another ring state");
        assert_ne!(base, key(CommandKind::Simulate, 2, 7), "another seed");
        assert_ne!(base, key(CommandKind::Saturation, 1, 7), "another command");
        // SATURATION ignores the simulation parameters.
        assert_eq!(
            key(CommandKind::Saturation, 1, 7),
            key(CommandKind::Saturation, 2, 7)
        );
        // Never an inline request's key, whatever the generation.
        let inline = key_of("SIMULATE mbps=16 set=20,1000 seed=1 seconds=1").unwrap();
        assert_ne!(inline, base);
    }

    #[test]
    fn abu_keys_canonicalize_parameters() {
        use crate::protocol::AbuRequest;
        let req = |mbps: f64, stations, samples, seed| {
            CacheKey::for_abu(&AbuRequest {
                protocol: ProtocolKind::Fddi,
                mbps,
                stations,
                samples,
                seed,
                deadline_ms: None,
            })
        };
        let base = req(100.0, 16, 50, 1);
        assert_eq!(base, req(100.0, 16, 50, 1));
        assert_ne!(base, req(16.0, 16, 50, 1));
        assert_ne!(base, req(100.0, 8, 50, 1));
        assert_ne!(base, req(100.0, 16, 51, 1));
        assert_ne!(base, req(100.0, 16, 50, 2));
        // Distinct from an inline-set command with the same scalars.
        assert_ne!(
            base,
            key_of("CHECK mbps=100 set=20,1000 stations=16").unwrap()
        );
    }

    #[test]
    fn hit_miss_accounting() {
        let cache = ResultCache::new();
        let key = key_of("CHECK mbps=16 set=20,1000").unwrap();
        assert_eq!(cache.get(&key), None);
        cache.insert(key.clone(), "schedulable=true".into());
        assert_eq!(cache.get(&key).as_deref(), Some("schedulable=true"));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn capacity_is_enforced_per_shard() {
        // Capacity below SHARDS still leaves one slot per shard.
        let cache = ResultCache::with_capacity(1);
        assert_eq!(cache.capacity(), SHARDS);
        for i in 0..200 {
            let key = key_of(&format!("CHECK mbps=16 set=20,{}", 1000 + i)).unwrap();
            cache.insert(key, format!("body-{i}"));
        }
        assert!(cache.entries() <= SHARDS, "entries={}", cache.entries());
        assert!(cache.evictions() >= (200 - SHARDS) as u64);
    }

    #[test]
    fn lru_keeps_the_recently_used_entry() {
        let cache = ResultCache::with_capacity(SHARDS); // one entry per shard
                                                        // Find two keys that land in the same shard.
        let keys: Vec<CacheKey> = (0..400)
            .map(|i| key_of(&format!("CHECK mbps=16 set=20,{}", 1000 + i)).unwrap())
            .collect();
        let (a, rest) = keys.split_first().unwrap();
        let b = rest
            .iter()
            .find(|k| k.shard() == a.shard())
            .expect("some key shares a shard");
        cache.insert(a.clone(), "a".into());
        assert_eq!(cache.get(a).as_deref(), Some("a")); // refresh a
                                                        // With one slot per shard, inserting `b` must evict `a`.
        cache.insert(b.clone(), "b".into());
        assert_eq!(cache.get(a), None);
        assert_eq!(cache.get(b).as_deref(), Some("b"));
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn reinserting_existing_key_does_not_evict() {
        let cache = ResultCache::with_capacity(SHARDS);
        let key = key_of("CHECK mbps=16 set=20,1000").unwrap();
        cache.insert(key.clone(), "v1".into());
        cache.insert(key.clone(), "v2".into());
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.get(&key).as_deref(), Some("v2"));
    }

    #[test]
    fn reset_counters_keeps_entries() {
        let cache = ResultCache::new();
        let key = key_of("CHECK mbps=16 set=20,1000").unwrap();
        assert_eq!(cache.get(&key), None);
        cache.insert(key.clone(), "schedulable=true".into());
        assert_eq!(cache.get(&key).as_deref(), Some("schedulable=true"));
        cache.reset_counters();
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 0);
        assert_eq!(cache.evictions(), 0);
        // The warm entry survives: occupancy is a gauge, not a counter.
        assert_eq!(cache.entries(), 1);
        assert_eq!(cache.get(&key).as_deref(), Some("schedulable=true"));
        assert_eq!(cache.hits(), 1);
    }

    /// The obvious LRU the slab replaced: per shard, entries stamped with
    /// a global tick, the minimum evicted by a scan.
    struct MinTickModel {
        shard_capacity: usize,
        tick: u64,
        shards: Vec<Vec<(CacheKey, String, u64)>>,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl MinTickModel {
        fn new(shard_capacity: usize) -> Self {
            MinTickModel {
                shard_capacity,
                tick: 0,
                shards: vec![Vec::new(); SHARDS],
                hits: 0,
                misses: 0,
                evictions: 0,
            }
        }

        fn stamp(&mut self) -> u64 {
            self.tick += 1;
            self.tick
        }

        fn get(&mut self, key: &CacheKey) -> Option<String> {
            let tick = self.stamp();
            let shard = &mut self.shards[key.shard()];
            match shard.iter_mut().find(|(k, _, _)| k == key) {
                Some(entry) => {
                    entry.2 = tick;
                    self.hits += 1;
                    Some(entry.1.clone())
                }
                None => {
                    self.misses += 1;
                    None
                }
            }
        }

        fn insert(&mut self, key: CacheKey, body: String) {
            let tick = self.stamp();
            let cap = self.shard_capacity;
            let shard = &mut self.shards[key.shard()];
            if let Some(entry) = shard.iter_mut().find(|(k, _, _)| *k == key) {
                entry.1 = body;
                entry.2 = tick;
                return;
            }
            if shard.len() >= cap {
                let coldest = (0..shard.len()).min_by_key(|&i| shard[i].2).unwrap();
                shard.remove(coldest);
                self.evictions += 1;
            }
            shard.push((key, body, tick));
        }

        fn clear(&mut self) -> usize {
            self.shards.iter_mut().map(|s| s.drain(..).count()).sum()
        }

        /// Entries per shard, least recently used first.
        fn recency(&self) -> Vec<Vec<(CacheKey, String)>> {
            self.shards
                .iter()
                .map(|shard| {
                    let mut entries = shard.clone();
                    entries.sort_by_key(|e| e.2);
                    entries.into_iter().map(|(k, b, _)| (k, b)).collect()
                })
                .collect()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Random `get`/`insert`/`clear` sequences give the same hits,
        /// evictions, contents and recency order as the min-tick model.
        #[test]
        fn lru_matches_a_min_tick_reference(
            per_shard in 1usize..4,
            ops in proptest::collection::vec((0u8..20, 0usize..48, 0u16..1000), 1..400),
        ) {
            let keys: Vec<CacheKey> = (0..48)
                .map(|i| key_of(&format!("CHECK mbps=16 set=20,{}", 1000 + i)).unwrap())
                .collect();
            let cache = ResultCache::with_capacity(per_shard * SHARDS);
            let mut model = MinTickModel::new(per_shard);
            for (step, &(op, k, body)) in ops.iter().enumerate() {
                let key = &keys[k];
                match op {
                    0..=9 => assert_eq!(cache.get(key), model.get(key), "step {step}: get"),
                    10..=18 => {
                        cache.insert(key.clone(), format!("body-{body}"));
                        model.insert(key.clone(), format!("body-{body}"));
                    }
                    _ => assert_eq!(cache.clear(), model.clear(), "step {step}: clear"),
                }
                assert_eq!(cache.hits(), model.hits, "step {step}: hits");
                assert_eq!(cache.misses(), model.misses, "step {step}: misses");
                assert_eq!(cache.evictions(), model.evictions, "step {step}: evictions");
                assert_eq!(cache.recency(), model.recency(), "step {step}: contents");
            }
        }
    }

    #[test]
    fn clear_reports_removed_count() {
        let cache = ResultCache::new();
        for i in 0..10 {
            let key = key_of(&format!("CHECK mbps=16 set=20,{}", 1000 + i)).unwrap();
            cache.insert(key, "x".into());
        }
        assert_eq!(cache.clear(), 10);
        assert_eq!(cache.entries(), 0);
        assert_eq!(cache.evictions(), 0, "clear is not an LRU eviction");
    }
}
