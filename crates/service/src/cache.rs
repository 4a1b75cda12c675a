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
//! least-recently-used entry (recency is a global atomic tick stamped on
//! every hit), so a long-running server's memory stays bounded no matter
//! how many distinct sets clients probe.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

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
    protocol: ProtocolKind,
    mbps_bits: u64,
    stations: usize,
    /// `(period seconds as bits, payload bits)` per stream, sorted.
    streams: Vec<(u64, u64)>,
    /// SIMULATE-only parameters; zeroed for the analytic commands so that
    /// e.g. a CHECK and a SATURATION of the same set stay distinct only
    /// via `command`. `ABU` keys reuse the first two slots for
    /// `(samples, seed)`.
    sim: (u64, u64, u64),
    /// For stored-ring analyses: the ring's registry mutation generation at
    /// lookup time. Generations are globally unique and bumped on every
    /// `ADMIT`/`REMOVE`/`REGISTER`, so an entry tagged with one simply stops
    /// being reachable the moment its ring mutates — no `EVICT` needed.
    /// `None` for inline-set requests, whose key already *is* the full
    /// input.
    ring_generation: Option<u64>,
}

impl CommandKind {
    fn cacheable(self) -> bool {
        !matches!(self, CommandKind::Sleep)
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
        let sim = if req.command == CommandKind::Simulate {
            (req.seconds.to_bits(), req.async_load.to_bits(), req.seed)
        } else {
            (0, 0, 0)
        };
        Some(CacheKey {
            command: req.command,
            protocol: req.protocol,
            mbps_bits: req.mbps.to_bits(),
            stations: req.effective_stations(),
            streams,
            sim,
            ring_generation: None,
        })
    }

    /// The canonical key for an `ABU` request. Always cacheable: the
    /// parallel estimator's sample stream is bit-identical for a given
    /// seed at any pool width, so the cached body is exact.
    #[must_use]
    pub fn for_abu(req: &AbuRequest) -> CacheKey {
        CacheKey {
            command: CommandKind::Abu,
            protocol: req.protocol,
            mbps_bits: req.mbps.to_bits(),
            stations: req.stations,
            streams: Vec::new(),
            sim: (req.samples as u64, req.seed, 0),
            ring_generation: None,
        }
    }

    /// Tags this key with a ring's registry mutation generation, scoping it
    /// to one exact incarnation of a stored ring's state.
    #[must_use]
    pub fn with_ring_generation(mut self, generation: u64) -> CacheKey {
        self.ring_generation = Some(generation);
        self
    }

    fn shard(&self) -> usize {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        (h.finish() as usize) % SHARDS
    }
}

/// A cached response body stamped with its last-use tick.
#[derive(Debug)]
struct Entry {
    body: String,
    last_used: u64,
}

/// The sharded LRU verdict cache with hit/miss/eviction accounting.
#[derive(Debug)]
pub struct ResultCache {
    shards: Vec<Mutex<HashMap<CacheKey, Entry>>>,
    /// Entry cap per shard (total capacity / [`SHARDS`], at least 1).
    shard_capacity: usize,
    /// Monotonic recency clock; bumped on every get and insert.
    tick: AtomicU64,
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
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            shard_capacity: (capacity / SHARDS).max(1),
            tick: AtomicU64::new(0),
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
        let mut shard = self.shards[key.shard()]
            .lock()
            .expect("cache shard poisoned");
        let found = shard.get_mut(key).map(|e| {
            e.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
            e.body.clone()
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
        let mut shard = self.shards[key.shard()]
            .lock()
            .expect("cache shard poisoned");
        if !shard.contains_key(&key) && shard.len() >= self.shard_capacity {
            if let Some(coldest) = shard
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                shard.remove(&coldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let last_used = self.tick.fetch_add(1, Ordering::Relaxed);
        shard.insert(key, Entry { body, last_used });
    }

    /// Drops every entry (the `EVICT` command), returning how many were
    /// removed. The removals are **not** counted as LRU evictions — they
    /// were requested, not forced by capacity.
    pub fn clear(&self) -> usize {
        let mut removed = 0;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard poisoned");
            removed += shard.len();
            shard.clear();
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
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
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
    fn ring_generation_distinguishes_incarnations() {
        let base = key_of("SIMULATE mbps=16 set=20,1000 seed=1").unwrap();
        let g1 = base.clone().with_ring_generation(1);
        let g2 = base.clone().with_ring_generation(2);
        assert_ne!(base, g1);
        assert_ne!(g1, g2);
        assert_eq!(g1, base.with_ring_generation(1));
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
