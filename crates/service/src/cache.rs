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
//! A key is its canonical bytes and their 64-bit hash, computed once when
//! the key is built by `DefaultHasher::new()`, whose keys are fixed: the
//! hash picks the shard, so shard choice and LRU order depend only on the
//! sequence of keys and a client can mirror the cache (perfbench's
//! `cached=` check does). An entry is one allocation — the key bytes
//! followed by the body, whose ` name=` of each field and each whole
//! value in the engine's reply tables are one byte each (`pack_body`) —
//! in a slab linked into a recency list by `u32` slot numbers, so a
//! hit's refresh and an eviction are O(1) whatever the
//! capacity: the event loop inserts after every `CHECK` it answers
//! itself, and `--cache-entries 262144` must not make that a scan. Each
//! shard's index maps the key's hash to the entry's slot through the
//! map's own randomly keyed hasher, so keys crafted to share bits of the
//! public hash do not share a probe chain. A lookup compares the key
//! bytes, so two keys whose hashes collide never share a body: the lookup
//! misses, and an insert of one replaces the other. A client can craft
//! such collisions; they cost misses in one shard of at most
//! `capacity / SHARDS` entries, never a wrong reply.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::engine::{REPLY_FIELDS, REPLY_VALUES};
use crate::protocol::{AbuRequest, AnalysisRequest, CommandKind};

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
#[derive(Debug, Clone, Eq)]
pub struct CacheKey {
    /// The command, its `SIMULATE` or `ABU` parameters and its input
    /// (see [`Packed`]).
    bytes: Vec<u8>,
    /// The hash of `bytes` (see [`Packed::key`]), computed once.
    hash: u64,
}

impl PartialEq for CacheKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.bytes == other.bytes
    }
}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl CommandKind {
    fn cacheable(self) -> bool {
        !matches!(self, CommandKind::Sleep)
    }
}

/// Tags of a key's input: a set sent with the request (none for `ABU`) on
/// a ring with the given parameters, or a stored ring's generation.
const INLINE: u8 = 0;
const STORED: u8 = 1;

/// A key's bytes under construction: the command; for `SIMULATE` its
/// seconds, asynchronous load and seed, for `ABU` its samples and seed;
/// then the input. An inline input is the protocol, the bandwidth, the
/// station count and the sorted `(period, payload bits)` pairs; a stored
/// one is the ring's registry mutation generation, which names one state
/// of one ring, so a mutation strands the entry with no `EVICT`. Floats
/// are their eight little-endian bytes and integers LEB128 varints, so
/// every field delimits itself; the pairs come last, so the layout is
/// unambiguous. Entries keep these bytes, so they are kept short.
struct Packed(Vec<u8>);

impl Packed {
    fn new(command: CommandKind, capacity: usize) -> Packed {
        let mut bytes = Vec::with_capacity(capacity);
        bytes.push(command as u8);
        Packed(bytes)
    }

    fn tag(&mut self, tag: u8) -> &mut Packed {
        self.0.push(tag);
        self
    }

    fn float(&mut self, value: f64) -> &mut Packed {
        self.0.extend_from_slice(&value.to_bits().to_le_bytes());
        self
    }

    fn int(&mut self, mut value: u64) -> &mut Packed {
        while value >= 0x80 {
            self.0.push(value as u8 | 0x80);
            value >>= 7;
        }
        self.0.push(value as u8);
        self
    }

    /// `SIMULATE`'s parameters; other commands' results do not read them.
    fn sim(
        &mut self,
        command: CommandKind,
        seconds: f64,
        async_load: f64,
        seed: u64,
    ) -> &mut Packed {
        if command == CommandKind::Simulate {
            self.float(seconds).float(async_load).int(seed);
        }
        self
    }

    /// The finished key: these bytes and their hash (see the module docs).
    fn key(self) -> CacheKey {
        let mut hasher = DefaultHasher::new();
        hasher.write(&self.0);
        CacheKey {
            hash: hasher.finish(),
            bytes: self.0,
        }
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
        let mut packed = Packed::new(req.command, 64 + 12 * streams.len());
        packed
            .sim(req.command, req.seconds, req.async_load, req.seed)
            .tag(INLINE)
            .int(req.protocol as u64)
            .float(req.mbps)
            .int(req.effective_stations() as u64);
        for (period, bits) in streams {
            packed.float(f64::from_bits(period)).int(bits);
        }
        Some(packed.key())
    }

    /// The canonical key for an `ABU` request. Always cacheable: the
    /// parallel estimator's sample stream is bit-identical for a given
    /// seed at any pool width, so the cached body is exact.
    #[must_use]
    pub fn for_abu(req: &AbuRequest) -> CacheKey {
        let mut packed = Packed::new(CommandKind::Abu, 40);
        packed
            .int(req.samples as u64)
            .int(req.seed)
            .tag(INLINE)
            .int(req.protocol as u64)
            .float(req.mbps)
            .int(req.stations as u64);
        packed.key()
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
        let mut packed = Packed::new(command, 40);
        packed
            .sim(command, seconds, async_load, seed)
            .tag(STORED)
            .int(generation);
        packed.key()
    }

    fn shard(&self) -> usize {
        self.hash as usize % SHARDS
    }
}

/// The first codes of [`REPLY_FIELDS`] and [`REPLY_VALUES`] in a stored
/// body, and the escape that keeps a non-ASCII byte of the body literal.
const FIELD: u8 = 0x80;
const VALUE: u8 = 0xc0;
const ESCAPE: u8 = 0xff;
const _: () = assert!(REPLY_FIELDS.len() <= (VALUE - FIELD) as usize);
const _: () = assert!(REPLY_VALUES.len() <= (ESCAPE - VALUE) as usize);

/// Appends `body` to `out` as it is stored: ` name=` of a field in
/// [`REPLY_FIELDS`] and a whole value in [`REPLY_VALUES`] as one code
/// byte each, other ASCII as it is, and any other byte behind an
/// [`ESCAPE`]. A reply body, `OK name=value …`, keeps about a third of
/// its bytes.
fn pack_body(body: &str, out: &mut Vec<u8>) {
    fn literal(out: &mut Vec<u8>, text: &str) {
        for &b in text.as_bytes() {
            if b >= FIELD {
                out.push(ESCAPE);
            }
            out.push(b);
        }
    }
    fn code(words: &[&str], word: &str) -> Option<u8> {
        words.iter().position(|&w| w == word).map(|i| i as u8)
    }
    let mut pieces = body.split(' ');
    literal(out, pieces.next().unwrap_or_default());
    for piece in pieces {
        let field = piece
            .split_once('=')
            .and_then(|(name, value)| Some((code(&REPLY_FIELDS, name)?, value)));
        match field {
            Some((name, value)) => {
                out.push(FIELD + name);
                match code(&REPLY_VALUES, value) {
                    Some(value) => out.push(VALUE + value),
                    None => literal(out, value),
                }
            }
            None => {
                out.push(b' ');
                literal(out, piece);
            }
        }
    }
}

/// The body that [`pack_body`] stored as `packed`.
fn unpack_body(packed: &[u8]) -> String {
    let mut out = Vec::with_capacity(2 * packed.len());
    let mut bytes = packed.iter().copied();
    while let Some(b) = bytes.next() {
        match b {
            ESCAPE => out.extend(bytes.next()),
            VALUE.. => out.extend_from_slice(REPLY_VALUES[usize::from(b - VALUE)].as_bytes()),
            FIELD.. => {
                out.push(b' ');
                out.extend_from_slice(REPLY_FIELDS[usize::from(b - FIELD)].as_bytes());
                out.push(b'=');
            }
            _ => out.push(b),
        }
    }
    String::from_utf8(out).expect("a stored body unpacks to the UTF-8 it was")
}

/// End of a shard's recency list.
const NIL: u32 = u32::MAX;

/// One cached entry and its place in its shard's recency list.
#[derive(Debug)]
struct Node {
    /// The key's bytes, then the body's as [`pack_body`] stores them.
    data: Box<[u8]>,
    key_len: u32,
    /// The key's hash, so an eviction need not rehash it.
    hash: u64,
    /// The next more recently used entry, or [`NIL`].
    newer: u32,
    /// The next less recently used entry, or [`NIL`].
    older: u32,
}

impl Node {
    fn new(key: &CacheKey, body: &str) -> Node {
        let mut packed = Vec::with_capacity(body.len());
        pack_body(body, &mut packed);
        // One allocation of the exact size: shrinking a larger one would
        // leave a hole beside every entry the cache keeps.
        let data = [key.bytes.as_slice(), &packed].concat();
        Node {
            data: data.into_boxed_slice(),
            key_len: u32::try_from(key.bytes.len()).expect("a key under 4 GiB"),
            hash: key.hash,
            newer: NIL,
            older: NIL,
        }
    }

    fn key(&self) -> &[u8] {
        &self.data[..self.key_len as usize]
    }

    fn body(&self) -> String {
        unpack_body(&self.data[self.key_len as usize..])
    }
}

/// One shard: entries in a slab, found through `index` by their key's
/// hash, linked from `newest` to `oldest` by last use.
#[derive(Debug)]
struct Shard {
    /// Key hash → slot, under a randomly keyed hasher (see the module
    /// docs).
    index: HashMap<u64, u32>,
    nodes: Vec<Node>,
    newest: u32,
    oldest: u32,
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

    fn node(&mut self, i: u32) -> &mut Node {
        &mut self.nodes[i as usize]
    }

    fn unlink(&mut self, i: u32) {
        let (newer, older) = (self.node(i).newer, self.node(i).older);
        match newer {
            NIL => self.newest = older,
            n => self.node(n).older = older,
        }
        match older {
            NIL => self.oldest = newer,
            o => self.node(o).newer = newer,
        }
    }

    fn push_newest(&mut self, i: u32) {
        let newest = self.newest;
        let node = self.node(i);
        node.newer = NIL;
        node.older = newest;
        match newest {
            NIL => self.oldest = i,
            n => self.node(n).newer = i,
        }
        self.newest = i;
    }

    /// Marks entry `i` as the most recently used.
    fn touch(&mut self, i: u32) {
        if self.newest != i {
            self.unlink(i);
            self.push_newest(i);
        }
    }

    /// The body stored under `key`, refreshed as the most recently used.
    fn get(&mut self, key: &CacheKey) -> Option<String> {
        let i = *self.index.get(&key.hash)?;
        if self.node(i).key() != key.bytes.as_slice() {
            return None;
        }
        self.touch(i);
        Some(self.node(i).body())
    }

    /// Stores `body` under `key`; returns whether the oldest entry was
    /// evicted to make room. An entry under the same hash — the same key,
    /// or one whose hash collides — is replaced in place.
    fn insert(&mut self, key: &CacheKey, body: &str, capacity: usize) -> bool {
        let node = Node::new(key, body);
        if let Some(&i) = self.index.get(&key.hash) {
            let slot = self.node(i);
            slot.data = node.data;
            slot.key_len = node.key_len;
            self.touch(i);
            return false;
        }
        let evicted = self.nodes.len() >= capacity;
        let i = if evicted {
            let i = self.oldest;
            self.unlink(i);
            let old = std::mem::replace(self.node(i), node);
            self.index.remove(&old.hash);
            i
        } else {
            self.nodes.push(node);
            u32::try_from(self.nodes.len() - 1).expect("a shard holds under 2^32 entries")
        };
        self.index.insert(key.hash, i);
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
        let found = self.lock(key).get(key);
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
        if self.lock(&key).insert(&key, &body, self.shard_capacity) {
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
    /// Every shard's entries as (key bytes, body), least recently used
    /// first, after checking that the recency list, the slab and the index
    /// agree.
    fn recency(&self) -> Vec<Vec<(Vec<u8>, String)>> {
        self.shards
            .iter()
            .map(|shard| {
                let shard = shard.lock().expect("cache shard poisoned");
                let mut out = Vec::new();
                let mut i = shard.oldest;
                while i != NIL {
                    let node = &shard.nodes[i as usize];
                    assert_eq!(shard.index.get(&node.hash), Some(&i), "index disagrees");
                    out.push((node.key().to_vec(), node.body()));
                    i = node.newer;
                }
                let mut back = 0;
                let mut i = shard.newest;
                while i != NIL {
                    back += 1;
                    i = shard.nodes[i as usize].older;
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
    use crate::protocol::{parse_request, ProtocolKind, Request};

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

        /// Entries per shard as (key bytes, body), least recently used
        /// first.
        fn recency(&self) -> Vec<Vec<(Vec<u8>, String)>> {
            self.shards
                .iter()
                .map(|shard| {
                    let mut entries = shard.clone();
                    entries.sort_by_key(|e| e.2);
                    entries.into_iter().map(|(k, b, _)| (k.bytes, b)).collect()
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
    fn a_hash_collision_misses_and_never_returns_the_other_body() {
        let cache = ResultCache::with_capacity(SHARDS);
        let a = key_of("CHECK mbps=16 set=20,1000").unwrap();
        let mut b = key_of("CHECK mbps=16 set=20,2000").unwrap();
        assert_ne!(a.bytes, b.bytes);
        b.hash = a.hash; // force the collision
        cache.insert(a.clone(), "a".into());
        assert_eq!(cache.get(&b), None, "b must miss, not read a's body");
        assert_eq!(cache.get(&a).as_deref(), Some("a"));
        // Inserting b replaces a under the shared hash; a then misses.
        cache.insert(b.clone(), "b".into());
        assert_eq!(cache.get(&a), None);
        assert_eq!(cache.get(&b).as_deref(), Some("b"));
        assert_eq!(cache.entries(), 1);
        assert_eq!(cache.evictions(), 0, "a replacement is not an eviction");
        assert_eq!(
            cache.recency()[a.shard()],
            [(b.bytes.clone(), "b".to_owned())]
        );
    }

    #[test]
    fn keys_crafted_to_share_hash_bits_spread_over_the_index() {
        use std::collections::HashSet;
        use std::hash::BuildHasher;
        // Hashes that agree in their low 36 bits (shard and table bucket)
        // and their top 8 (the table's tag): passed through unchanged,
        // every one would probe the same chain.
        const N: u64 = 4096;
        let shared = 0xa5 << 56 | 0x5_5555_5555;
        let keys: Vec<CacheKey> = (0..N)
            .map(|i| {
                let mut key = key_of(&format!("CHECK mbps=16 set=20,{}", 1000 + i)).unwrap();
                key.hash = shared | i << 36;
                key
            })
            .collect();
        let shard = keys[0].shard();
        assert!(keys.iter().all(|k| k.shard() == shard));
        let cache = ResultCache::with_capacity(N as usize * SHARDS);
        for (i, key) in keys.iter().enumerate() {
            cache.insert(key.clone(), format!("{i}"));
        }
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(cache.get(key), Some(format!("{i}")));
        }
        assert_eq!(cache.recency()[shard].len(), N as usize);
        let index = cache.shards[shard].lock().unwrap().index.hasher().clone();
        let hashed: Vec<u64> = keys.iter().map(|k| index.hash_one(k.hash)).collect();
        let buckets: HashSet<u64> = hashed.iter().map(|h| h & 0xfff).collect();
        let tags: HashSet<u64> = hashed.iter().map(|h| h >> 57).collect();
        // Uniform hashes fill about 63% of 4096 buckets and all 128 tags.
        assert!(buckets.len() > 2000, "{} buckets", buckets.len());
        assert!(tags.len() > 100, "{} tags", tags.len());
    }

    #[test]
    fn keys_hash_the_same_in_every_cache() {
        // Shard choice and LRU order depend only on the keys, so a client
        // can mirror the server's cache.
        let key = key_of("CHECK mbps=16 set=20,1000;50,2000").unwrap();
        let mut hasher = DefaultHasher::new();
        hasher.write(&key.bytes);
        assert_eq!(key.hash, hasher.finish());
        assert_eq!(key, key_of("CHECK mbps=16 set=50,2000;20,1000").unwrap());
        let (one, two) = (ResultCache::new(), ResultCache::new());
        for i in 0..64 {
            let key = key_of(&format!("CHECK mbps=16 set=20,{}", 1000 + i)).unwrap();
            one.insert(key.clone(), format!("{i}"));
            two.insert(key, format!("{i}"));
        }
        assert_eq!(one.recency(), two.recency());
    }

    fn packed(body: &str) -> Vec<u8> {
        let mut out = Vec::new();
        pack_body(body, &mut out);
        out
    }

    #[test]
    fn every_engine_body_is_stored_in_under_half_its_bytes_and_unpacks_unchanged() {
        use crate::engine::{execute, execute_abu};
        use crate::protocol::Request;
        use ringrt_exec::Pool;
        let lines = [
            "CHECK mbps=16 set=20,20000;50,60000 protocol=modified",
            "CHECK mbps=1 set=10,60000;10,60000 protocol=802.5",
            "SATURATION mbps=100 set=20,20000;50,60000 protocol=fddi",
            "SATURATION mbps=16 set=20,20000 stations=9",
            "SIMULATE mbps=4 set=20,4000;40,8000 seconds=0.2 seed=18446744073709551615",
            "ABU mbps=100 stations=8 samples=20 seed=5 protocol=fddi",
        ];
        for line in lines {
            let body = match parse_request(line).unwrap() {
                Request::Analysis(req) => execute(&req),
                Request::Abu(req) => execute_abu(&req, &Pool::serial()),
                other => panic!("not an analysis request: {other:?}"),
            };
            assert!(body.starts_with("OK"), "{body}");
            let stored = packed(&body);
            assert_eq!(unpack_body(&stored), body);
            assert!(
                2 * stored.len() < body.len(),
                "{line}: {} bytes",
                stored.len()
            );
        }
    }

    #[test]
    fn any_text_unpacks_to_itself() {
        for body in [
            "",
            " ",
            "OK",
            "cmd=abu",
            "OK cmd=",
            "OK  cmd=abu  ",
            "OK cmd==abu seed=1=2 =true true",
            "OK ring=lab\u{e9} protocol=fddi",
            "OK \u{80}\u{ff} cmd=\u{1f600}",
        ] {
            assert_eq!(unpack_body(&packed(body)), body);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Text built from field names, values, separators and
        /// non-ASCII characters unpacks to itself.
        #[test]
        fn random_text_unpacks_to_itself(
            words in proptest::collection::vec(0usize..REPLY_FIELDS.len() + REPLY_VALUES.len() + 6, 0..40),
        ) {
            let body: String = words
                .iter()
                .map(|&w| {
                    REPLY_FIELDS
                        .iter()
                        .chain(&REPLY_VALUES)
                        .chain(&[" ", "=", "0.5", "\u{e9}", "\u{ff}", "x"])
                        .nth(w)
                        .copied()
                        .unwrap()
                })
                .collect();
            assert_eq!(unpack_body(&packed(&body)), body);
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
