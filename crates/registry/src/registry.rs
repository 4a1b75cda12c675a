//! The registry proper: a named-ring store with journaled persistence,
//! incremental admission control, and journal-shipping replication hooks.

use std::borrow::{Borrow, BorrowMut};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::mpsc;

use ringrt_model::SyncStream;
use ringrt_store::{StreamHandle, StreamStore};

use crate::engine::{self, CheckOutcome, TtpCache};
use crate::journal::{self, JournalOp, ReplayStats, Store, StoreOptions};
use crate::spec::{validate_name, NamedStream, RegistryError, RingSpec, RingState, Rings};

/// One ring plus the derived analysis state that never touches disk.
#[derive(Debug)]
struct RingEntry {
    state: RingState,
    /// Cached Theorem 5.1 terms (TTP rings only); rebuilt lazily.
    ttp_cache: Option<TtpCache>,
    /// Mutation generation: the value of the registry-wide counter at this
    /// ring's last mutation. Globally unique across rings *and* across
    /// unregister/re-register cycles, so anything keyed by
    /// `(ring, generation)` — the service's result cache, most notably —
    /// can never confuse two distinct states of the same ring name.
    generation: u64,
}

/// A ring the journal just registered: no derived state yet, and the
/// generation [`RingRegistry::commit`] stamps on it.
impl From<RingState> for RingEntry {
    fn from(state: RingState) -> Self {
        RingEntry {
            state,
            ttp_cache: None,
            generation: 0,
        }
    }
}

impl Borrow<RingState> for RingEntry {
    fn borrow(&self) -> &RingState {
        &self.state
    }
}

impl BorrowMut<RingState> for RingEntry {
    fn borrow_mut(&mut self) -> &mut RingState {
        &mut self.state
    }
}

/// A candidate admitted to a ring's store only while the admission test
/// runs: dropping it rolls the admission back, so a test that panics
/// leaves the store as it was committed.
struct Tentative<'a> {
    store: &'a mut StreamStore,
    handle: StreamHandle,
}

impl<'a> Tentative<'a> {
    fn admit(store: &'a mut StreamStore, name: &str, stream: SyncStream) -> Self {
        let handle = store.admit(name, stream);
        Tentative { store, handle }
    }
}

impl Drop for Tentative<'_> {
    fn drop(&mut self) {
        // The test only reads the store, so the candidate is still its
        // newest admission, as `rollback_admit` requires.
        self.store.rollback_admit(self.handle);
    }
}

#[derive(Debug)]
struct Inner {
    rings: BTreeMap<String, RingEntry>,
    /// `None` for a purely in-memory registry (tests, ephemeral servers).
    store: Option<Store>,
    /// Registry-wide mutation counter backing [`RingEntry::generation`];
    /// bumped on **every** committed mutation, including `UNREGISTER`.
    generation: u64,
    /// Live journal-shipping subscribers; every committed record line is
    /// forwarded to each. A subscriber whose receiver is gone — or whose
    /// queue is full ([`SHIP_SUBSCRIBER_CAP`], a stalled-but-connected
    /// follower) — is dropped on the next send, closing its stream so the
    /// follower reconnects and resyncs from its own `next_seq`.
    subscribers: Vec<mpsc::SyncSender<String>>,
}

/// Cap on record lines queued to one shipping subscriber. Commits never
/// block on a slow follower: a subscriber that falls this far behind is
/// dropped instead, bounding primary memory, and the closed stream forces
/// the follower through the normal resync path.
const SHIP_SUBSCRIBER_CAP: usize = 1024;

/// Work counters proving the incremental path's savings; exposed via
/// `STATS` and [`RingRegistry::metrics`].
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    incremental_tests: u64,
    full_tests: u64,
    incremental_evaluations: u64,
    full_evaluations: u64,
}

/// A persistent store of named rings and their admitted streams, with
/// incremental Theorem 4.1/5.1 re-analysis on every mutation.
///
/// All mutations are journaled **before** they touch memory, so the
/// in-memory map never runs ahead of what a crash would recover.
///
/// It is `Send` but not `Sync`: one thread owns it and makes every call
/// in order, so nothing here locks and a compaction runs in one piece.
#[derive(Debug)]
pub struct RingRegistry {
    inner: RefCell<Inner>,
    counters: Cell<Counters>,
    replay: Option<ReplayStats>,
}

/// Result of an `ADMIT`/`REMOVE` call: the verdict plus ring bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionOutcome {
    /// The schedulability verdict (for `REMOVE`: of the remaining set).
    pub check: CheckOutcome,
    /// Whether the mutation was applied (rejected admits are not).
    pub applied: bool,
    /// Streams in the ring after the call.
    pub streams: usize,
}

/// Result of a full `CHECK ring=…` re-analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct RingCheck {
    /// Whether the stored set is schedulable.
    pub schedulable: bool,
    /// Scheduling-point evaluations the full test performed.
    pub evaluations: u64,
    /// The ring's spec.
    pub spec: RingSpec,
    /// Number of admitted streams.
    pub streams: usize,
    /// Synchronous utilization of the stored set on this ring.
    pub utilization: f64,
}

/// Point-in-time registry gauges for `STATS` and the metrics endpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegistryMetrics {
    /// Registered rings.
    pub rings: usize,
    /// Admitted streams across all rings.
    pub streams: usize,
    /// Current journal size in bytes (all segments).
    pub journal_bytes: u64,
    /// Current snapshot size in bytes.
    pub snapshot_bytes: u64,
    /// Startup recovery time in milliseconds.
    pub replay_ms: f64,
    /// Streams restored by startup recovery.
    pub replayed_streams: usize,
    /// Admission checks that took the incremental path.
    pub incremental_tests: u64,
    /// Admission checks that recomputed from scratch.
    pub full_tests: u64,
    /// Evaluations spent on incremental checks.
    pub incremental_evaluations: u64,
    /// Evaluations spent on full checks.
    pub full_evaluations: u64,
    /// Approximate resident bytes of all ring stream stores (columns plus
    /// indexes).
    pub store_bytes: u64,
    /// Sequence-domain index compactions performed across all stores.
    pub index_rebuilds: u64,
}

/// One page of a ring's admission-order stream listing, with the header
/// gauges `SHOW` renders. Produced by [`RingRegistry::ring_page`].
#[derive(Debug, Clone, PartialEq)]
pub struct RingPage {
    /// The ring's spec.
    pub spec: RingSpec,
    /// Total admitted streams in the ring (not just this page).
    pub streams: usize,
    /// Station index of the first stream in `page`.
    pub offset: usize,
    /// The listed streams, `(name, stream)` in admission order.
    pub page: Vec<(String, SyncStream)>,
}

/// Everything a follower needs to catch up and stay caught up, captured
/// in one call by [`RingRegistry::subscribe`]: no committed record can
/// fall between `backlog` and `live`.
#[derive(Debug)]
pub struct ShipSubscription {
    /// The primary's fencing epoch at subscription time.
    pub epoch: u64,
    /// The primary's journal cluster identity at subscription time.
    pub cluster: u64,
    /// Highest committed sequence number at subscription time.
    pub head: u64,
    /// Snapshot text and its covered sequence, when the requested start
    /// lies at or below the snapshot floor (the journal no longer holds
    /// those records).
    pub snapshot: Option<(u64, String)>,
    /// Record lines from the resume point (or just past the snapshot) to
    /// the head.
    pub backlog: Vec<String>,
    /// Record lines committed after subscription, in commit order.
    pub live: mpsc::Receiver<String>,
}

/// What applying one shipped record line did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicatedApply {
    /// The record carried the next sequence and was journaled + applied.
    Applied {
        /// Its sequence number.
        seq: u64,
    },
    /// The record was already applied (duplicate delivery); idempotently
    /// ignored.
    Duplicate {
        /// Its sequence number.
        seq: u64,
    },
    /// The record skips ahead of the journal (lost frames); the caller
    /// must re-sync from `expected`.
    Gap {
        /// The sequence the journal needs next.
        expected: u64,
        /// The sequence the frame carried.
        got: u64,
    },
}

/// Entries for a ring map just loaded from disk or the wire, each with a
/// fresh generation past `generation` (which advances), so no cache key of
/// an earlier state can resolve.
fn fresh_entries(rings: Rings, generation: &mut u64) -> BTreeMap<String, RingEntry> {
    let entries = rings.into_iter().map(|(name, state)| {
        *generation += 1;
        let entry = RingEntry {
            generation: *generation,
            ..RingEntry::from(state)
        };
        (name, entry)
    });
    entries.collect()
}

fn in_memory_err() -> RegistryError {
    RegistryError::Storage {
        reason: "operation requires a persistent state directory".to_owned(),
    }
}

impl RingRegistry {
    /// A registry with no backing store; state dies with the process.
    #[must_use]
    pub fn in_memory() -> Self {
        RingRegistry {
            inner: RefCell::new(Inner {
                rings: BTreeMap::new(),
                store: None,
                generation: 0,
                subscribers: Vec::new(),
            }),
            counters: Cell::default(),
            replay: None,
        }
    }

    /// Opens (creating if needed) a journaled registry in `dir` with the
    /// default [`StoreOptions`], replaying any persisted state.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Storage`] if the directory cannot be opened or the
    /// journal replays inconsistently.
    pub fn open(dir: &Path) -> Result<Self, RegistryError> {
        Self::open_with(dir, StoreOptions::default())
    }

    /// [`open`](Self::open) with explicit segment size and fault
    /// injection.
    ///
    /// # Errors
    ///
    /// As [`open`](Self::open).
    pub fn open_with(dir: &Path, options: StoreOptions) -> Result<Self, RegistryError> {
        let (store, rings, replay) = Store::open_with(dir, options)?;
        // Replayed rings get fresh, distinct generations; the counter starts
        // past them so post-recovery mutations never reuse one.
        let mut generation = 0u64;
        let rings = fresh_entries(rings, &mut generation);
        Ok(RingRegistry {
            inner: RefCell::new(Inner {
                rings,
                store: Some(store),
                generation,
                subscribers: Vec::new(),
            }),
            counters: Cell::default(),
            replay: Some(replay),
        })
    }

    /// What startup recovery found, if this registry is persistent.
    #[must_use]
    pub fn replay_stats(&self) -> Option<&ReplayStats> {
        self.replay.as_ref()
    }

    /// Attaches a flight recorder to the backing store (no-op for
    /// in-memory registries): journal appends, fsyncs, and compaction
    /// phases then emit `registry` spans.
    pub fn attach_recorder(&self, recorder: std::sync::Arc<ringrt_obs::Recorder>) {
        if let Some(store) = self.inner.borrow_mut().store.as_mut() {
            store.set_recorder(recorder);
        }
    }

    /// Zeroes the incremental/full admission-test counters (the gauges —
    /// ring, stream, and byte counts — are live state and are unaffected).
    /// Backs the service's `STATS RESET` command.
    pub fn reset_counters(&self) {
        self.counters.take();
    }

    /// Validates `op`, journals it (if persistent), applies it to the
    /// rings through the function replay uses, and forwards the journaled
    /// record line to live shipping subscribers. An op that breaks a
    /// registry invariant is refused before any byte reaches the journal,
    /// and the journal write happens before the apply so memory never
    /// runs ahead of disk.
    fn commit(inner: &mut Inner, op: &JournalOp) -> Result<(), RegistryError> {
        journal::validate(&inner.rings, op)?;
        let mut frame = None;
        if let Some(store) = inner.store.as_mut() {
            frame = Some(store.append(op)?);
        }
        journal::apply(&mut inner.rings, op).expect("validated before journaling");
        inner.generation += 1;
        // Every op but `Unregister` leaves its ring in the map.
        if let Some(entry) = inner.rings.get_mut(op.ring()) {
            entry.generation = inner.generation;
        }
        if let Some(frame) = frame {
            inner
                .subscribers
                .retain(|tx| tx.try_send(frame.clone()).is_ok());
        }
        Ok(())
    }

    fn record(&self, check: &CheckOutcome) {
        let mut c = self.counters.get();
        if check.incremental {
            c.incremental_tests += 1;
            c.incremental_evaluations += check.evaluations;
        } else {
            c.full_tests += 1;
            c.full_evaluations += check.evaluations;
        }
        self.counters.set(c);
    }

    /// Registers a new, empty ring.
    ///
    /// # Errors
    ///
    /// Invalid names/specs, duplicate rings, or storage failures.
    pub fn register(&self, ring: &str, spec: RingSpec) -> Result<(), RegistryError> {
        validate_name(ring)?;
        spec.validate()?;
        Self::commit(
            &mut self.inner.borrow_mut(),
            &JournalOp::Register {
                ring: ring.to_owned(),
                spec,
            },
        )
    }

    /// Drops a ring and all its streams.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownRing`] or storage failures.
    pub fn unregister(&self, ring: &str) -> Result<(), RegistryError> {
        Self::commit(
            &mut self.inner.borrow_mut(),
            &JournalOp::Unregister {
                ring: ring.to_owned(),
            },
        )
    }

    /// Runs the admission test for `stream` on `ring` and, if it passes,
    /// admits it (journaled). A rejected stream leaves the ring untouched
    /// and is **not** journaled.
    ///
    /// # Errors
    ///
    /// Unknown ring, duplicate stream name, invalid name, or storage
    /// failure. A schedulability rejection is **not** an error — it is an
    /// [`AdmissionOutcome`] with `applied == false`.
    pub fn admit(
        &self,
        ring: &str,
        name: &str,
        stream: SyncStream,
    ) -> Result<AdmissionOutcome, RegistryError> {
        validate_name(name)?;
        let mut inner = self.inner.borrow_mut();
        let entry = inner
            .rings
            .get_mut(ring)
            .ok_or_else(|| RegistryError::UnknownRing {
                ring: ring.to_owned(),
            })?;
        if entry.state.store.contains(name) {
            return Err(RegistryError::DuplicateStream {
                ring: ring.to_owned(),
                stream: name.to_owned(),
            });
        }
        let old_len = entry.state.len();
        // Tentatively admit in place: the candidate becomes the store's
        // newest admission and the engine analyzes straight off the
        // maintained indexes — no cloned state, no rebuilt `MessageSet`.
        // Dropping the tentative admission rolls it back before journaling
        // either way (and if the test panics): `commit` re-applies the op
        // through the same code path replay uses, so live state and crash
        // recovery can never drift apart.
        let (check, cache_update) = {
            let candidate = Tentative::admit(&mut entry.state.store, name, stream);
            engine::admit_check(
                &entry.state.spec,
                entry.ttp_cache.as_ref(),
                candidate.store,
                name,
                &stream,
            )
        };
        self.record(&check);
        if !check.schedulable {
            return Ok(AdmissionOutcome {
                check,
                applied: false,
                streams: old_len,
            });
        }
        Self::commit(
            &mut inner,
            &JournalOp::Admit {
                ring: ring.to_owned(),
                stream: NamedStream {
                    name: name.to_owned(),
                    stream,
                },
            },
        )?;
        let entry = inner.rings.get_mut(ring).expect("just committed");
        cache_update.apply(&mut entry.ttp_cache);
        Ok(AdmissionOutcome {
            check,
            applied: true,
            streams: old_len + 1,
        })
    }

    /// Removes a stream (always applied) and reports the remaining set's
    /// verdict — which for TTP can flip to unschedulable if the departure
    /// renegotiates the TTRT.
    ///
    /// # Errors
    ///
    /// Unknown ring or stream, or storage failure.
    pub fn remove(&self, ring: &str, name: &str) -> Result<AdmissionOutcome, RegistryError> {
        let mut inner = self.inner.borrow_mut();
        let entry = inner
            .rings
            .get(ring)
            .ok_or_else(|| RegistryError::UnknownRing {
                ring: ring.to_owned(),
            })?;
        let index = entry
            .state
            .stream_index(name)
            .ok_or_else(|| RegistryError::UnknownStream {
                ring: ring.to_owned(),
                stream: name.to_owned(),
            })?;
        let old_len = entry.state.len();
        // Journal + apply first (removals are never rejected, so the
        // verdict does not gate the commit), then judge the remaining set
        // in place: O(log n) index maintenance instead of cloning the ring
        // and shifting a vector.
        Self::commit(
            &mut inner,
            &JournalOp::Remove {
                ring: ring.to_owned(),
                stream: name.to_owned(),
            },
        )?;
        let entry = inner.rings.get_mut(ring).expect("just committed");
        // The cache still holds the departed stream's term: it stays out
        // of the ring until the check returns, so a check that panics
        // leaves no cache and the next check rebuilds it.
        let mut cache = entry.ttp_cache.take();
        let (check, cache_update) = engine::remove_check(
            &entry.state.spec,
            cache.as_ref(),
            index,
            old_len,
            &entry.state.store,
        );
        cache_update.apply(&mut cache);
        entry.ttp_cache = cache;
        self.record(&check);
        Ok(AdmissionOutcome {
            check,
            applied: true,
            streams: old_len - 1,
        })
    }

    /// Runs the full (non-incremental) test on a ring's stored set —
    /// the baseline `ADMIT` is measured against. Refreshes the ring's
    /// term cache as a side effect.
    ///
    /// # Errors
    ///
    /// Unknown or empty ring.
    pub fn check_full(&self, ring: &str) -> Result<RingCheck, RegistryError> {
        let mut inner = self.inner.borrow_mut();
        let entry = inner
            .rings
            .get_mut(ring)
            .ok_or_else(|| RegistryError::UnknownRing {
                ring: ring.to_owned(),
            })?;
        if entry.state.is_empty() {
            return Err(RegistryError::EmptyRing {
                ring: ring.to_owned(),
            });
        }
        let (check, cache) = engine::full_check(&entry.state.spec, &entry.state.store);
        entry.ttp_cache = cache;
        self.record(&check);
        let spec = entry.state.spec;
        Ok(RingCheck {
            schedulable: check.schedulable,
            evaluations: check.evaluations,
            spec,
            streams: entry.state.len(),
            utilization: entry.state.store.utilization(spec.bandwidth()),
        })
    }

    /// Names of all registered rings, sorted.
    #[must_use]
    pub fn ring_names(&self) -> Vec<String> {
        self.inner.borrow().rings.keys().cloned().collect()
    }

    /// Every ring's name and mutation generation (see
    /// [`ring_snapshot`](Self::ring_snapshot)), sorted by name.
    #[must_use]
    pub fn ring_generations(&self) -> Vec<(String, u64)> {
        let inner = self.inner.borrow();
        inner
            .rings
            .iter()
            .map(|(name, e)| (name.clone(), e.generation))
            .collect()
    }

    /// A snapshot of one ring's state.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownRing`].
    pub fn ring_state(&self, ring: &str) -> Result<RingState, RegistryError> {
        self.ring_snapshot(ring).map(|(state, _)| state)
    }

    /// A snapshot of one ring's state together with its **mutation
    /// generation** — a registry-wide counter value assigned at the ring's
    /// last mutation (`REGISTER`/`ADMIT`/`REMOVE`). The generation changes
    /// on every mutation and is never reused, not even by an
    /// unregister/re-register cycle under the same name, so
    /// `(ring, generation)` keys derived caches that go stale exactly when
    /// the ring actually changed.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownRing`].
    pub fn ring_snapshot(&self, ring: &str) -> Result<(RingState, u64), RegistryError> {
        self.inner
            .borrow()
            .rings
            .get(ring)
            .map(|e| (e.state.clone(), e.generation))
            .ok_or_else(|| RegistryError::UnknownRing {
                ring: ring.to_owned(),
            })
    }

    /// One page of a ring's admission-order stream listing: up to `limit`
    /// streams starting at station index `offset`, plus the header gauges
    /// `SHOW` renders. O(log n + page) — the paged `SHOW` path never
    /// clones a large ring's state to print a few lines of it.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownRing`].
    pub fn ring_page(
        &self,
        ring: &str,
        offset: usize,
        limit: usize,
    ) -> Result<RingPage, RegistryError> {
        let inner = self.inner.borrow();
        let entry = inner
            .rings
            .get(ring)
            .ok_or_else(|| RegistryError::UnknownRing {
                ring: ring.to_owned(),
            })?;
        Ok(RingPage {
            spec: entry.state.spec,
            streams: entry.state.len(),
            offset,
            page: entry
                .state
                .store
                .page(offset, limit)
                .map(|(name, stream)| (name.to_owned(), stream))
                .collect(),
        })
    }

    /// The registry-wide mutation counter (also the highest generation any
    /// ring carries).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.inner.borrow().generation
    }

    /// Compacts the journal into a snapshot (see [`Store::compact`]). A
    /// no-op for in-memory registries.
    ///
    /// # Errors
    ///
    /// Storage failures from any compaction step.
    pub fn compact(&self) -> Result<(), RegistryError> {
        let mut inner = self.inner.borrow_mut();
        let Inner { rings, store, .. } = &mut *inner;
        match store.as_mut() {
            None => Ok(()),
            Some(store) => store.compact(rings.iter().map(|(name, entry)| (name, &entry.state))),
        }
    }

    /// The persisted replication fencing epoch (0 for in-memory
    /// registries and stores that never served).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.inner.borrow().store.as_ref().map_or(0, Store::epoch)
    }

    /// Persists a new fencing epoch (monotonic; see
    /// [`Store::set_epoch`]).
    ///
    /// # Errors
    ///
    /// [`RegistryError::Storage`] for in-memory registries, an epoch
    /// regression, or failed I/O.
    pub fn set_epoch(&self, epoch: u64) -> Result<(), RegistryError> {
        self.inner
            .borrow_mut()
            .store
            .as_mut()
            .ok_or_else(in_memory_err)?
            .set_epoch(epoch)
    }

    /// The persisted journal cluster identity (0 for in-memory registries
    /// and journals never stamped).
    #[must_use]
    pub fn cluster_id(&self) -> u64 {
        self.inner
            .borrow()
            .store
            .as_ref()
            .map_or(0, Store::cluster_id)
    }

    /// Persists the journal's set-once cluster identity (see
    /// [`Store::set_cluster_id`]).
    ///
    /// # Errors
    ///
    /// [`RegistryError::Storage`] for in-memory registries, a zero or
    /// conflicting identity, or failed I/O.
    pub fn set_cluster_id(&self, cluster_id: u64) -> Result<(), RegistryError> {
        self.inner
            .borrow_mut()
            .store
            .as_mut()
            .ok_or_else(in_memory_err)?
            .set_cluster_id(cluster_id)
    }

    /// Sequence number the next committed mutation will journal (0 for
    /// in-memory registries).
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.inner
            .borrow()
            .store
            .as_ref()
            .map_or(0, Store::next_seq)
    }

    /// Subscribes to journal shipping, resuming from `from_seq`: captures
    /// the snapshot the follower needs if the journal no longer reaches
    /// back to `from_seq`, the backlog of records from there to the head,
    /// and a live channel every later commit is forwarded to. No commit
    /// can fall between the backlog and the channel.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Storage`] for in-memory registries or unreadable
    /// journal files.
    pub fn subscribe(&self, from_seq: u64) -> Result<ShipSubscription, RegistryError> {
        let mut inner = self.inner.borrow_mut();
        let Inner {
            store, subscribers, ..
        } = &mut *inner;
        let store = store.as_mut().ok_or_else(in_memory_err)?;
        let head = store.next_seq().saturating_sub(1);
        let floor = store.snapshot_floor();
        let (snapshot, backlog_from) = if from_seq <= floor && floor > 0 {
            (store.snapshot_text()?, floor + 1)
        } else {
            (None, from_seq.max(1))
        };
        let backlog = store.records_from(backlog_from)?;
        let (tx, rx) = mpsc::sync_channel(SHIP_SUBSCRIBER_CAP);
        subscribers.push(tx);
        Ok(ShipSubscription {
            epoch: store.epoch(),
            cluster: store.cluster_id(),
            head,
            snapshot,
            backlog,
            live: rx,
        })
    }

    /// Applies one shipped record line: validates its checksum and
    /// sequence, journals it (byte-identically — the encoding is
    /// deterministic), and applies it to memory. Duplicates are ignored,
    /// gaps are reported for re-sync, and a frame that violates registry
    /// invariants is refused **before** it can reach the journal.
    ///
    /// The affected ring's Theorem 5.1 term cache is invalidated rather
    /// than updated — a follower recomputes it on first read, exactly
    /// like a freshly replayed registry, so cached sums can never drift
    /// from what a full replay would produce.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Storage`] for in-memory registries, malformed
    /// frames, failed I/O, or a re-delivered sequence whose bytes differ
    /// from the local journal's copy (diverged histories); the usual
    /// registry errors for a frame whose operation cannot apply to the
    /// current state.
    pub fn apply_replicated(&self, line: &str) -> Result<ReplicatedApply, RegistryError> {
        let (seq, op) = journal::decode_record(line).map_err(|reason| RegistryError::Storage {
            reason: format!("shipped record malformed: {reason}"),
        })?;
        let mut inner = self.inner.borrow_mut();
        let store = inner.store.as_ref().ok_or_else(in_memory_err)?;
        let next = store.next_seq();
        if seq < next {
            // A sequence we claim to already hold must be byte-identical
            // to our own journal's record: two independently bootstrapped
            // histories can collide on sequence numbers, and swallowing
            // the difference as a benign duplicate would fork state
            // silently and permanently. Records at or below the snapshot
            // floor are gone from the journal and cannot be compared —
            // but the snapshot that replaced them came from the same
            // stream that is now re-delivering, so they are safe to skip.
            if seq > store.snapshot_floor() {
                match store.record_at(seq)? {
                    Some(local) if local == line => {}
                    Some(local) => {
                        return Err(RegistryError::Storage {
                            reason: format!(
                                "shipped history diverges at seq {seq}: \
                                 local {local:?}, shipped {line:?}"
                            ),
                        });
                    }
                    None => {
                        return Err(RegistryError::Storage {
                            reason: format!(
                                "local journal is missing seq {seq}; \
                                 cannot verify re-delivered record"
                            ),
                        });
                    }
                }
            }
            return Ok(ReplicatedApply::Duplicate { seq });
        }
        if seq > next {
            return Ok(ReplicatedApply::Gap {
                expected: next,
                got: seq,
            });
        }
        Self::commit(&mut inner, &op)?;
        // Replicated applies skip the admission engine, so any cached
        // terms are stale; drop them and let the next read rebuild.
        if let JournalOp::Admit { ring, .. } | JournalOp::Remove { ring, .. } = &op {
            if let Some(entry) = inner.rings.get_mut(ring) {
                entry.ttp_cache = None;
            }
        }
        Ok(ReplicatedApply::Applied { seq })
    }

    /// Replaces the registry's entire state with a snapshot shipped from
    /// a primary (see [`Store::install_snapshot`]); every ring receives a
    /// fresh generation so stale cache keys cannot resolve.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Storage`] for in-memory registries, a corrupt
    /// snapshot, or failed I/O.
    pub fn install_snapshot(&self, text: &str) -> Result<u64, RegistryError> {
        let mut inner = self.inner.borrow_mut();
        let Inner {
            rings,
            store,
            generation,
            ..
        } = &mut *inner;
        let store = store.as_mut().ok_or_else(in_memory_err)?;
        let (seq, new_rings) = store.install_snapshot(text)?;
        *rings = fresh_entries(new_rings, generation);
        Ok(seq)
    }

    /// Current gauges and counters.
    #[must_use]
    pub fn metrics(&self) -> RegistryMetrics {
        let inner = self.inner.borrow();
        let counters = self.counters.get();
        let (journal_bytes, snapshot_bytes) = inner
            .store
            .as_ref()
            .map_or((0, 0), |s| (s.journal_bytes(), s.snapshot_bytes()));
        RegistryMetrics {
            rings: inner.rings.len(),
            streams: inner.rings.values().map(|e| e.state.len()).sum(),
            journal_bytes,
            snapshot_bytes,
            replay_ms: self
                .replay
                .as_ref()
                .map_or(0.0, |r| r.replay.as_secs_f64() * 1e3),
            replayed_streams: self.replay.as_ref().map_or(0, |r| r.streams_restored),
            incremental_tests: counters.incremental_tests,
            full_tests: counters.full_tests,
            incremental_evaluations: counters.incremental_evaluations,
            full_evaluations: counters.full_evaluations,
            store_bytes: inner
                .rings
                .values()
                .map(|e| e.state.store.approx_bytes() as u64)
                .sum(),
            index_rebuilds: inner
                .rings
                .values()
                .map(|e| e.state.store.index_rebuilds())
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ProtocolKind;
    use ringrt_units::{Bits, Seconds};

    fn stream(period_ms: f64, bits: u64) -> SyncStream {
        SyncStream::new(Seconds::from_millis(period_ms), Bits::new(bits))
    }

    fn fddi_spec() -> RingSpec {
        RingSpec {
            protocol: ProtocolKind::Fddi,
            mbps: 100.0,
            stations: Some(16),
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ringrt-registry-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Runs `op` with the admission test armed to panic, and checks the
    /// panic reached the caller.
    fn panic_inside_check<T>(op: impl FnOnce() -> T) {
        engine::PANIC_IN_NEXT_CHECK.with(|armed| armed.set(true));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(op));
        assert!(caught.is_err(), "the armed check did not run");
    }

    /// What a panic inside `admit` or `remove` must not change: the stream
    /// count, the ring state and the verdict of the next admission (of
    /// `next`) — and a term cache, if any, must hold one term per stream.
    fn assert_same_ring(panicked: &RingRegistry, clean: &RingRegistry, next: &str) {
        assert_eq!(panicked.metrics().streams, clean.metrics().streams);
        assert_eq!(panicked.ring_state("r"), clean.ring_state("r"));
        {
            let inner = panicked.inner.borrow();
            let entry = &inner.rings["r"];
            if let Some(cache) = &entry.ttp_cache {
                assert_eq!(cache.terms.len(), entry.state.len(), "stale term cache");
            }
        }
        let admit = |reg: &RingRegistry| reg.admit("r", next, stream(40.0, 20_000)).unwrap();
        assert_eq!(
            admit(panicked).check.schedulable,
            admit(clean).check.schedulable
        );
        assert_eq!(panicked.ring_state("r"), clean.ring_state("r"));
    }

    #[test]
    fn a_panic_inside_admit_or_remove_leaves_the_committed_ring() {
        for protocol in ProtocolKind::ALL {
            let spec = RingSpec {
                protocol,
                mbps: 16.0,
                stations: Some(16),
            };
            let [panicked, clean] = [(); 2].map(|()| {
                let reg = RingRegistry::in_memory();
                reg.register("r", spec).unwrap();
                for (name, period) in [("a", 20.0), ("b", 50.0)] {
                    assert!(
                        reg.admit("r", name, stream(period, 20_000))
                            .unwrap()
                            .applied
                    );
                }
                reg
            });
            panic_inside_check(|| panicked.admit("r", "c", stream(40.0, 20_000)));
            assert_same_ring(&panicked, &clean, "c");
            // A removal commits before its check runs, so the registry
            // that never panicked removes the stream too.
            panic_inside_check(|| panicked.remove("r", "a"));
            clean.remove("r", "a").unwrap();
            assert_same_ring(&panicked, &clean, "d");
        }
    }

    #[test]
    fn register_admit_remove_lifecycle() {
        let reg = RingRegistry::in_memory();
        reg.register("lab", fddi_spec()).unwrap();
        assert!(matches!(
            reg.register("lab", fddi_spec()),
            Err(RegistryError::DuplicateRing { .. })
        ));
        let out = reg.admit("lab", "cam", stream(20.0, 100_000)).unwrap();
        assert!(out.applied && out.check.schedulable);
        assert_eq!(out.streams, 1);
        assert!(matches!(
            reg.admit("lab", "cam", stream(30.0, 1_000)),
            Err(RegistryError::DuplicateStream { .. })
        ));
        let out = reg.admit("lab", "mic", stream(50.0, 200_000)).unwrap();
        assert!(out.applied);
        assert!(out.check.incremental, "second admit should be incremental");
        let rm = reg.remove("lab", "cam").unwrap();
        assert_eq!(rm.streams, 1);
        assert!(matches!(
            reg.remove("lab", "cam"),
            Err(RegistryError::UnknownStream { .. })
        ));
        reg.unregister("lab").unwrap();
        assert!(reg.ring_names().is_empty());
    }

    #[test]
    fn rejected_admit_leaves_ring_untouched() {
        let reg = RingRegistry::in_memory();
        reg.register("r", fddi_spec()).unwrap();
        reg.admit("r", "a", stream(20.0, 100_000)).unwrap();
        // A hog far beyond ring capacity.
        let out = reg.admit("r", "hog", stream(100.0, 12_000_000)).unwrap();
        assert!(!out.applied && !out.check.schedulable);
        assert_eq!(out.streams, 1);
        assert!(reg.ring_state("r").unwrap().stream_index("hog").is_none());
        // The ring still accepts reasonable streams afterwards.
        assert!(reg.admit("r", "b", stream(50.0, 100_000)).unwrap().applied);
    }

    #[test]
    fn counters_track_incremental_vs_full() {
        let reg = RingRegistry::in_memory();
        reg.register("r", fddi_spec()).unwrap();
        reg.admit("r", "s0", stream(20.0, 50_000)).unwrap(); // full (empty ring)
        reg.admit("r", "s1", stream(40.0, 50_000)).unwrap(); // incremental
        reg.admit("r", "s2", stream(80.0, 50_000)).unwrap(); // incremental
        reg.check_full("r").unwrap(); // full
        let m = reg.metrics();
        assert_eq!(m.incremental_tests, 2);
        assert_eq!(m.full_tests, 2);
        assert!(m.incremental_evaluations < m.full_evaluations);
        assert_eq!(m.rings, 1);
        assert_eq!(m.streams, 3);
    }

    #[test]
    fn persistent_registry_survives_reopen() {
        let dir = temp_dir("reopen");
        {
            let reg = RingRegistry::open(&dir).unwrap();
            reg.register("lab", fddi_spec()).unwrap();
            reg.admit("lab", "cam", stream(20.0, 100_000)).unwrap();
            reg.admit("lab", "mic", stream(50.0, 200_000)).unwrap();
            let out = reg.admit("lab", "hog", stream(100.0, 12_000_000)).unwrap();
            assert!(!out.applied); // must NOT reappear after reopen
        }
        let reg = RingRegistry::open(&dir).unwrap();
        let state = reg.ring_state("lab").unwrap();
        assert_eq!(state.len(), 2);
        assert!(state.stream_index("hog").is_none());
        let stats = reg.replay_stats().unwrap();
        assert_eq!(stats.streams_restored, 2);
        // Compact, reopen again: identical state from the snapshot alone.
        reg.compact().unwrap();
        drop(reg);
        let reg = RingRegistry::open(&dir).unwrap();
        assert_eq!(reg.ring_state("lab").unwrap(), state);
        assert_eq!(reg.replay_stats().unwrap().records_applied, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generation_bumps_on_every_mutation() {
        let reg = RingRegistry::in_memory();
        reg.register("r", fddi_spec()).unwrap();
        let (_, g0) = reg.ring_snapshot("r").unwrap();
        reg.admit("r", "a", stream(20.0, 100_000)).unwrap();
        let (_, g1) = reg.ring_snapshot("r").unwrap();
        assert!(g1 > g0);
        reg.remove("r", "a").unwrap();
        let (_, g2) = reg.ring_snapshot("r").unwrap();
        assert!(g2 > g1);
        // A rejected admit mutates nothing, so the generation holds still.
        reg.admit("r", "hog", stream(100.0, 12_000_000)).unwrap();
        reg.admit("r", "ok", stream(20.0, 100_000)).unwrap();
        let hog = reg.admit("r", "hog2", stream(100.0, 12_000_000)).unwrap();
        assert!(!hog.applied);
        let (_, g3) = reg.ring_snapshot("r").unwrap();
        reg.check_full("r").unwrap(); // reads don't bump either
        assert_eq!(reg.ring_snapshot("r").unwrap().1, g3);
    }

    #[test]
    fn generations_are_unique_across_rings_and_reregistration() {
        let reg = RingRegistry::in_memory();
        reg.register("a", fddi_spec()).unwrap();
        reg.register("b", fddi_spec()).unwrap();
        let (_, ga) = reg.ring_snapshot("a").unwrap();
        let (_, gb) = reg.ring_snapshot("b").unwrap();
        assert_ne!(ga, gb);
        // Rebuilding the exact same ring under the same name must yield a
        // fresh generation: stale (ring, generation) cache keys cannot
        // resolve to the new incarnation.
        reg.admit("a", "s", stream(20.0, 100_000)).unwrap();
        let (_, g_old) = reg.ring_snapshot("a").unwrap();
        reg.unregister("a").unwrap();
        reg.register("a", fddi_spec()).unwrap();
        reg.admit("a", "s", stream(20.0, 100_000)).unwrap();
        let (state, g_new) = reg.ring_snapshot("a").unwrap();
        assert_eq!(state.len(), 1);
        assert!(g_new > g_old);
    }

    #[test]
    fn reopened_registry_assigns_fresh_generations() {
        let dir = temp_dir("gen");
        {
            let reg = RingRegistry::open(&dir).unwrap();
            reg.register("lab", fddi_spec()).unwrap();
            reg.admit("lab", "cam", stream(20.0, 100_000)).unwrap();
        }
        let reg = RingRegistry::open(&dir).unwrap();
        let (_, g) = reg.ring_snapshot("lab").unwrap();
        assert!(g > 0);
        // Post-recovery mutations keep advancing past the replayed ones.
        reg.admit("lab", "mic", stream(50.0, 200_000)).unwrap();
        assert!(reg.ring_snapshot("lab").unwrap().1 > g);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reset_counters_zeroes_work_counters_only() {
        let reg = RingRegistry::in_memory();
        reg.register("r", fddi_spec()).unwrap();
        reg.admit("r", "s0", stream(20.0, 50_000)).unwrap();
        reg.admit("r", "s1", stream(40.0, 50_000)).unwrap();
        assert!(reg.metrics().full_tests + reg.metrics().incremental_tests > 0);
        reg.reset_counters();
        let m = reg.metrics();
        assert_eq!(m.incremental_tests, 0);
        assert_eq!(m.full_tests, 0);
        assert_eq!(m.incremental_evaluations, 0);
        assert_eq!(m.full_evaluations, 0);
        // Gauges reflect live state and must survive the reset.
        assert_eq!(m.rings, 1);
        assert_eq!(m.streams, 2);
    }

    #[test]
    fn attached_recorder_sees_journal_spans() {
        let dir = temp_dir("obs");
        let rec = std::sync::Arc::new(ringrt_obs::Recorder::new());
        let reg = RingRegistry::open(&dir).unwrap();
        reg.attach_recorder(std::sync::Arc::clone(&rec));
        reg.register("lab", fddi_spec()).unwrap();
        reg.admit("lab", "cam", stream(20.0, 100_000)).unwrap();
        reg.compact().unwrap();
        let names: Vec<&str> = rec.drain(64).iter().map(|e| e.name).collect();
        assert!(names.contains(&"journal_append"), "{names:?}");
        assert!(names.contains(&"journal_fsync"), "{names:?}");
        assert!(names.contains(&"compact"), "{names:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn check_full_reports_empty_ring() {
        let reg = RingRegistry::in_memory();
        reg.register("r", fddi_spec()).unwrap();
        assert!(matches!(
            reg.check_full("r"),
            Err(RegistryError::EmptyRing { .. })
        ));
        assert!(matches!(
            reg.check_full("ghost"),
            Err(RegistryError::UnknownRing { .. })
        ));
    }

    #[test]
    fn subscribe_ships_backlog_and_live_records() {
        let primary_dir = temp_dir("sub-primary");
        let follower_dir = temp_dir("sub-follower");
        let primary = RingRegistry::open(&primary_dir).unwrap();
        primary.register("lab", fddi_spec()).unwrap();
        primary.admit("lab", "cam", stream(20.0, 100_000)).unwrap();

        let sub = primary.subscribe(1).unwrap();
        assert_eq!(sub.head, 2);
        assert!(sub.snapshot.is_none());
        assert_eq!(sub.backlog.len(), 2);

        // Live records flow through the channel after subscription.
        primary.admit("lab", "mic", stream(50.0, 200_000)).unwrap();
        let live = sub.live.try_recv().unwrap();

        let follower = RingRegistry::open(&follower_dir).unwrap();
        for frame in sub.backlog.iter().chain(std::iter::once(&live)) {
            assert!(matches!(
                follower.apply_replicated(frame).unwrap(),
                ReplicatedApply::Applied { .. }
            ));
        }
        assert_eq!(
            follower.ring_state("lab").unwrap(),
            primary.ring_state("lab").unwrap()
        );
        // Duplicate delivery is idempotent; a skipped frame reports a gap.
        assert!(matches!(
            follower.apply_replicated(&live).unwrap(),
            ReplicatedApply::Duplicate { .. }
        ));
        primary.admit("lab", "aux1", stream(80.0, 50_000)).unwrap();
        primary.admit("lab", "aux2", stream(90.0, 50_000)).unwrap();
        let skipped = sub.live.try_recv().unwrap();
        let ahead = sub.live.try_recv().unwrap();
        let _ = skipped; // dropped frame
        assert!(matches!(
            follower.apply_replicated(&ahead).unwrap(),
            ReplicatedApply::Gap { expected: 4, .. }
        ));
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&follower_dir);
    }

    #[test]
    fn subscribe_from_compacted_history_ships_the_snapshot() {
        let primary_dir = temp_dir("snap-primary");
        let follower_dir = temp_dir("snap-follower");
        let primary = RingRegistry::open(&primary_dir).unwrap();
        primary.register("lab", fddi_spec()).unwrap();
        primary.admit("lab", "cam", stream(20.0, 100_000)).unwrap();
        primary.compact().unwrap();
        primary.admit("lab", "mic", stream(50.0, 200_000)).unwrap();

        // Records 1-2 are only in the snapshot now.
        let sub = primary.subscribe(1).unwrap();
        let (snap_seq, snap_text) = sub.snapshot.expect("history is compacted");
        assert_eq!(snap_seq, 2);
        assert_eq!(sub.backlog.len(), 1); // the post-snapshot admit

        let follower = RingRegistry::open(&follower_dir).unwrap();
        assert_eq!(follower.install_snapshot(&snap_text).unwrap(), 2);
        for frame in &sub.backlog {
            follower.apply_replicated(frame).unwrap();
        }
        assert_eq!(
            follower.ring_state("lab").unwrap(),
            primary.ring_state("lab").unwrap()
        );
        assert_eq!(follower.next_seq(), primary.next_seq());
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&follower_dir);
    }

    #[test]
    fn replicated_apply_refuses_invariant_violations_before_journaling() {
        let primary_dir = temp_dir("bad-primary");
        let follower_dir = temp_dir("bad-follower");
        let primary = RingRegistry::open(&primary_dir).unwrap();
        primary.register("lab", fddi_spec()).unwrap();
        primary.admit("lab", "cam", stream(20.0, 100_000)).unwrap();
        let frames = primary.subscribe(1).unwrap().backlog;

        let follower = RingRegistry::open(&follower_dir).unwrap();
        follower.apply_replicated(&frames[0]).unwrap();
        follower.apply_replicated(&frames[1]).unwrap();
        let before = follower.next_seq();
        // Forge a frame at the right sequence whose op cannot apply: an
        // admit into a ring that does not exist.
        let forged = {
            let reg2 = RingRegistry::open(&temp_dir("bad-forge")).unwrap();
            reg2.register("ghost", fddi_spec()).unwrap();
            reg2.register("lab", fddi_spec()).unwrap();
            reg2.unregister("ghost").unwrap();
            // Build a registry whose 3rd record admits into `ghost`…
            let reg3_dir = temp_dir("bad-forge3");
            let reg3 = RingRegistry::open(&reg3_dir).unwrap();
            reg3.register("x1", fddi_spec()).unwrap();
            reg3.register("ghost", fddi_spec()).unwrap();
            reg3.admit("ghost", "s", stream(20.0, 100_000)).unwrap();
            let frame = reg3.subscribe(3).unwrap().backlog[0].clone();
            let _ = std::fs::remove_dir_all(&reg3_dir);
            frame
        };
        let err = follower.apply_replicated(&forged).unwrap_err();
        assert!(matches!(err, RegistryError::UnknownRing { .. }), "{err}");
        // Nothing was journaled: the sequence did not advance and a
        // reopen sees the same two records.
        assert_eq!(follower.next_seq(), before);
        drop(follower);
        let reopened = RingRegistry::open(&follower_dir).unwrap();
        assert_eq!(reopened.next_seq(), before);
        // A corrupted frame is refused outright.
        let mut corrupt = frames[0].clone();
        corrupt.replace_range(0..1, "f");
        assert!(reopened.apply_replicated(&corrupt).is_err());
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&follower_dir);
    }

    #[test]
    fn diverged_duplicate_is_refused_not_swallowed() {
        // Two independently bootstrapped histories collide on sequence
        // numbers; re-delivery of the foreign record must surface as a
        // divergence error, never as a benign duplicate.
        let a_dir = temp_dir("div-a");
        let b_dir = temp_dir("div-b");
        let a = RingRegistry::open(&a_dir).unwrap();
        a.register("alpha", fddi_spec()).unwrap();
        a.admit("alpha", "cam", stream(20.0, 100_000)).unwrap();
        let shipped = a.subscribe(1).unwrap().backlog;

        let b = RingRegistry::open(&b_dir).unwrap();
        b.register("beta", fddi_spec()).unwrap(); // different record at seq 1
        let err = b.apply_replicated(&shipped[0]).unwrap_err();
        assert!(err.to_string().contains("diverges"), "{err}");
        // B is untouched: its own ring survives, nothing was journaled.
        assert_eq!(b.ring_names(), vec!["beta".to_owned()]);
        assert_eq!(b.next_seq(), 2);
        // A byte-identical re-delivery is still idempotently ignored.
        let own = b.subscribe(1).unwrap().backlog;
        assert!(matches!(
            b.apply_replicated(&own[0]).unwrap(),
            ReplicatedApply::Duplicate { seq: 1 }
        ));
        for d in [a_dir, b_dir] {
            let _ = std::fs::remove_dir_all(&d);
        }
    }

    #[test]
    fn a_stalled_subscriber_is_dropped_at_the_queue_cap() {
        let dir = temp_dir("cap");
        let reg = RingRegistry::open(&dir).unwrap();
        reg.register("seed", fddi_spec()).unwrap();
        let sub = reg.subscribe(1).unwrap();
        assert_eq!(sub.backlog.len(), 1);
        // Never drain `sub.live` — a stalled-but-connected follower.
        // Commits past the cap must neither block nor grow the queue;
        // they drop the subscriber instead.
        for i in 0..SHIP_SUBSCRIBER_CAP + 8 {
            reg.register(&format!("r{i}"), fddi_spec()).unwrap();
        }
        let mut drained = 0usize;
        while sub.live.try_recv().is_ok() {
            drained += 1;
        }
        assert_eq!(drained, SHIP_SUBSCRIBER_CAP, "queue must stop at the cap");
        assert!(
            matches!(sub.live.try_recv(), Err(mpsc::TryRecvError::Disconnected)),
            "overflowing subscriber must be dropped, forcing a resync"
        );
        assert_eq!(
            reg.next_seq() as usize,
            SHIP_SUBSCRIBER_CAP + 10,
            "commits must proceed regardless of the stalled subscriber"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn epoch_persists_through_registry() {
        let dir = temp_dir("epoch");
        {
            let reg = RingRegistry::open(&dir).unwrap();
            assert_eq!(reg.epoch(), 0);
            reg.set_epoch(2).unwrap();
        }
        let reg = RingRegistry::open(&dir).unwrap();
        assert_eq!(reg.epoch(), 2);
        assert!(reg.set_epoch(1).is_err(), "epoch must not regress");
        let mem = RingRegistry::in_memory();
        assert_eq!(mem.epoch(), 0);
        assert!(mem.set_epoch(1).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cluster_identity_persists_and_rides_subscriptions() {
        let dir = temp_dir("cluster-reg");
        {
            let reg = RingRegistry::open(&dir).unwrap();
            assert_eq!(reg.cluster_id(), 0);
            reg.set_cluster_id(0xabad_1dea).unwrap();
            let sub = reg.subscribe(1).unwrap();
            assert_eq!(sub.cluster, 0xabad_1dea, "handshake carries the stamp");
        }
        let reg = RingRegistry::open(&dir).unwrap();
        assert_eq!(reg.cluster_id(), 0xabad_1dea);
        assert!(
            reg.set_cluster_id(1).is_err(),
            "identity is set-once through the registry too"
        );
        let mem = RingRegistry::in_memory();
        assert_eq!(mem.cluster_id(), 0);
        assert!(mem.set_cluster_id(1).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
