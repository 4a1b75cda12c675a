//! The incremental admission engine: full and delta-updated re-runs of the
//! paper's Theorem 4.1 (PDP) and Theorem 5.1 (TTP) tests, driven directly
//! off a ring's columnar [`StreamStore`].
//!
//! # Why incremental re-analysis is sound
//!
//! **PDP (Theorem 4.1):** the test runs the Lehoczky-style response-time
//! analysis level by level in deadline-monotonic order. Admitting a stream
//! at DM rank `r` leaves every higher-priority level's task set — and the
//! blocking bound `B = 2·max(F, Θ)`, provided the station count is pinned —
//! untouched, so their response times are unchanged and only ranks `≥ r`
//! need re-testing. The store's maintained DM index supplies both the
//! newcomer's rank and the DM iteration order without cloning or sorting
//! anything. Removing a stream only removes interference, so a schedulable
//! set stays schedulable with **zero** evaluations. Both shortcuts require
//! the stored set to already be schedulable, which the registry
//! guarantees: failed admits are rolled back, and PDP removals preserve
//! schedulability.
//!
//! **TTP (Theorem 5.1):** the test is a single inequality
//! `Σ_i [C_i/(q_i−1) + F_ovhd] ≤ TTRT − Θ'`. The engine caches each
//! stream's term **and the running left-to-right sum**; when an admit
//! leaves the negotiated TTRT *bit-identical* (and the effective station
//! count, hence `Θ'`, unchanged), the new sum is `cached_sum + new_term` —
//! exactly the float operation the full test would perform last, so the
//! incremental verdict is bit-identical to recomputation in **O(1)**. A
//! removal refolds the surviving cached terms (float adds only, zero term
//! evaluations). Any TTRT or topology change falls back to the full test.
//!
//! Every incremental path carries a `debug_assert!` comparing its verdict
//! against a from-scratch recomputation, and the full path carries one
//! comparing the store-view analysis against the materialized
//! `MessageSet` path; the randomized equivalence sweep in the workspace
//! tests exercises the same properties in release builds.

use ringrt_core::pdp::PdpAnalyzer;
use ringrt_core::ttp::TtpAnalyzer;
use ringrt_model::{FrameFormat, SyncStream};
use ringrt_store::StreamStore;
use ringrt_units::Seconds;

use crate::spec::RingSpec;

/// Verdict of one admission-control run, with the work it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckOutcome {
    /// Whether the (new) stream set is schedulable.
    pub schedulable: bool,
    /// Whether the incremental fast path was taken (`false` = full
    /// recomputation).
    pub incremental: bool,
    /// Scheduling-point work performed: fixed-point demand iterations for
    /// PDP, Theorem 5.1 term computations for TTP. The `STATS` counters
    /// that prove `ADMIT` is cheaper than a full `CHECK` aggregate this.
    pub evaluations: u64,
}

/// Cached per-stream Theorem 5.1 terms for a TTP ring, valid only for the
/// TTRT they were computed at. Derived state — never persisted; rebuilt by
/// the first full check after a restart.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TtpCache {
    /// The TTRT the terms were computed at (compared bit-for-bit).
    pub ttrt: Seconds,
    /// `C_i/(q_i−1) + F_ovhd` per stream, in station order.
    pub terms: Vec<Seconds>,
    /// Left-to-right fold of `terms` — the full test's exact accumulation,
    /// kept current so an admit extends it with one addition.
    pub sum: Seconds,
}

/// How a check wants the ring's [`TtpCache`] updated. Returned instead of
/// a rebuilt cache so the incremental admit path never clones the O(n)
/// term vector.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CacheUpdate {
    /// Install a freshly computed cache (full recomputations; `None` for
    /// PDP rings, which cache nothing).
    Replace(Option<TtpCache>),
    /// Append the newcomer's term and advance the running sum (incremental
    /// TTP admit). O(1).
    Append {
        /// The newcomer's Theorem 5.1 term.
        term: Seconds,
        /// New running sum `old_sum + term`.
        sum: Seconds,
    },
    /// Drop the term at a station index and install the refolded sum
    /// (incremental TTP remove).
    Drop {
        /// Station index of the departed stream.
        index: usize,
        /// Left-to-right fold of the surviving terms.
        sum: Seconds,
    },
    /// Leave the cache untouched (incremental PDP paths).
    Keep,
}

impl CacheUpdate {
    /// Applies the update to a ring's cache slot.
    pub(crate) fn apply(self, slot: &mut Option<TtpCache>) {
        match self {
            CacheUpdate::Replace(cache) => *slot = cache,
            CacheUpdate::Append { term, sum } => {
                if let Some(cache) = slot {
                    cache.terms.push(term);
                    cache.sum = sum;
                }
            }
            CacheUpdate::Drop { index, sum } => {
                if let Some(cache) = slot {
                    cache.terms.remove(index);
                    cache.sum = sum;
                }
            }
            CacheUpdate::Keep => {}
        }
    }
}

/// Sums terms left to right from zero — the exact accumulation order of
/// the full path, so incremental sums are bit-identical.
fn fold_terms(terms: impl IntoIterator<Item = Seconds>) -> Seconds {
    let mut sum = Seconds::ZERO;
    for t in terms {
        sum += t;
    }
    sum
}

/// Full (from-scratch) schedulability check of the store's streams on
/// `spec`'s ring. Runs over the store's maintained indexes (no
/// `MessageSet` materialization); debug builds cross-check the verdict
/// against the materialized path.
pub(crate) fn full_check(spec: &RingSpec, store: &StreamStore) -> (CheckOutcome, Option<TtpCache>) {
    let stations = spec.effective_stations(store.len());
    let ring = spec.protocol.ring(stations, spec.bandwidth());
    match spec.protocol.pdp_variant() {
        Some(variant) => {
            let analyzer = PdpAnalyzer::new(ring, FrameFormat::paper_default(), variant);
            let counted = analyzer.check_from_rank_view(store, 0);
            #[cfg(debug_assertions)]
            {
                let set = store
                    .message_set()
                    .expect("stored streams are valid")
                    .expect("full_check requires a non-empty store");
                let legacy = analyzer.check_from_rank(&set, 0);
                debug_assert_eq!(
                    (counted.schedulable, counted.evaluations),
                    (legacy.schedulable, legacy.evaluations),
                    "store-view PDP check diverged from MessageSet path"
                );
            }
            (
                CheckOutcome {
                    schedulable: counted.schedulable,
                    incremental: false,
                    evaluations: counted.evaluations,
                },
                None,
            )
        }
        None => {
            let analyzer = TtpAnalyzer::with_defaults(ring);
            let ttrt = analyzer.ttrt_for_view(store);
            #[cfg(debug_assertions)]
            {
                let set = store
                    .message_set()
                    .expect("stored streams are valid")
                    .expect("full_check requires a non-empty store");
                debug_assert_eq!(
                    analyzer.ttrt_for(&set).as_secs_f64().to_bits(),
                    ttrt.as_secs_f64().to_bits(),
                    "store-view TTRT diverged from MessageSet path"
                );
            }
            let mut terms = Vec::with_capacity(store.len());
            let mut evaluations = 0u64;
            for (_, _, stream) in store.iter() {
                evaluations += 1;
                match analyzer.stream_term(&stream, ttrt) {
                    Some(term) => terms.push(term),
                    // q_i < 2: no deadline guarantee possible at this TTRT.
                    None => {
                        return (
                            CheckOutcome {
                                schedulable: false,
                                incremental: false,
                                evaluations,
                            },
                            None,
                        )
                    }
                }
            }
            let sum = fold_terms(terms.iter().copied());
            let schedulable = analyzer.terms_feasible(sum, ttrt);
            (
                CheckOutcome {
                    schedulable,
                    incremental: false,
                    evaluations,
                },
                Some(TtpCache { ttrt, terms, sum }),
            )
        }
    }
}

/// Admission check for a store that already holds the candidate as its
/// **newest** admission (station index `len − 1`): the registry admits
/// tentatively, checks, and rolls back on rejection. `new_name` /
/// `new_stream` identify the candidate. Takes the incremental path when
/// sound (see the module docs), otherwise falls back to [`full_check`].
pub(crate) fn admit_check(
    spec: &RingSpec,
    cache: Option<&TtpCache>,
    store: &StreamStore,
    new_name: &str,
    new_stream: &SyncStream,
) -> (CheckOutcome, CacheUpdate) {
    let old_len = store.len() - 1;
    let stations_unchanged =
        old_len > 0 && spec.effective_stations(old_len) == spec.effective_stations(store.len());
    if !stations_unchanged {
        let (outcome, cache) = full_check(spec, store);
        return (outcome, CacheUpdate::Replace(cache));
    }
    let stations = spec.effective_stations(store.len());
    let ring = spec.protocol.ring(stations, spec.bandwidth());
    match spec.protocol.pdp_variant() {
        Some(variant) => {
            // Only DM ranks at or below the newcomer's can have changed.
            let analyzer = PdpAnalyzer::new(ring, FrameFormat::paper_default(), variant);
            let seq = store.seq_of(new_name).expect("candidate is stored");
            let rank = store.dm_rank_of(seq);
            let counted = analyzer.check_from_rank_view(store, rank);
            let outcome = CheckOutcome {
                schedulable: counted.schedulable,
                incremental: true,
                evaluations: counted.evaluations,
            };
            debug_assert_eq!(
                outcome.schedulable,
                full_check(spec, store).0.schedulable,
                "incremental PDP admit diverged from full recomputation"
            );
            (outcome, CacheUpdate::Keep)
        }
        None => {
            let analyzer = TtpAnalyzer::with_defaults(ring);
            let ttrt = analyzer.ttrt_for_view(store);
            let Some(cache) = cache.filter(|c| {
                c.ttrt.as_secs_f64().to_bits() == ttrt.as_secs_f64().to_bits()
                    && c.terms.len() == old_len
            }) else {
                let (outcome, cache) = full_check(spec, store);
                return (outcome, CacheUpdate::Replace(cache));
            };
            // One new term; the cached sum already folds the rest, so the
            // extended sum is a single addition — the same operation the
            // full test performs last, hence bit-identical.
            let (outcome, update) = match analyzer.stream_term(new_stream, ttrt) {
                Some(term) => {
                    let sum = cache.sum + term;
                    (
                        CheckOutcome {
                            schedulable: analyzer.terms_feasible(sum, ttrt),
                            incremental: true,
                            evaluations: 1,
                        },
                        CacheUpdate::Append { term, sum },
                    )
                }
                None => (
                    CheckOutcome {
                        schedulable: false,
                        incremental: true,
                        evaluations: 1,
                    },
                    CacheUpdate::Keep,
                ),
            };
            debug_assert_eq!(
                outcome.schedulable,
                full_check(spec, store).0.schedulable,
                "incremental TTP admit diverged from full recomputation"
            );
            (outcome, update)
        }
    }
}

/// Re-check after a removal: `store` is the **post-removal** state, the
/// departed stream held station index `removed_index` in a ring of
/// `old_len` streams. The mutation is already applied (removals are never
/// rejected); this judges the remaining set and updates the term cache.
pub(crate) fn remove_check(
    spec: &RingSpec,
    cache: Option<&TtpCache>,
    removed_index: usize,
    old_len: usize,
    store: &StreamStore,
) -> (CheckOutcome, CacheUpdate) {
    debug_assert_eq!(old_len, store.len() + 1);
    if store.is_empty() {
        // An empty ring is vacuously schedulable.
        return (
            CheckOutcome {
                schedulable: true,
                incremental: true,
                evaluations: 0,
            },
            CacheUpdate::Replace(None),
        );
    }
    if spec.protocol.pdp_variant().is_some() {
        // Removing a stream only removes interference (and can only shrink
        // the ring overheads), so a schedulable PDP set stays schedulable
        // with no work at all.
        let outcome = CheckOutcome {
            schedulable: true,
            incremental: true,
            evaluations: 0,
        };
        debug_assert_eq!(
            outcome.schedulable,
            full_check(spec, store).0.schedulable,
            "PDP removal broke schedulability — stored set was not schedulable?"
        );
        return (outcome, CacheUpdate::Keep);
    }
    let stations_unchanged =
        spec.effective_stations(old_len) == spec.effective_stations(store.len());
    let stations = spec.effective_stations(store.len());
    let analyzer = TtpAnalyzer::with_defaults(spec.protocol.ring(stations, spec.bandwidth()));
    let ttrt = analyzer.ttrt_for_view(store);
    let valid_cache = cache.filter(|c| {
        stations_unchanged
            && c.ttrt.as_secs_f64().to_bits() == ttrt.as_secs_f64().to_bits()
            && c.terms.len() == old_len
    });
    let Some(cache) = valid_cache else {
        // TTRT renegotiated (e.g. the min-deadline stream left) or topology
        // changed: removal CAN flip the verdict either way — recompute.
        let (outcome, cache) = full_check(spec, store);
        return (outcome, CacheUpdate::Replace(cache));
    };
    // Refold the surviving terms left to right: float additions only, no
    // Theorem 5.1 term evaluations.
    let sum = fold_terms(
        cache
            .terms
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != removed_index)
            .map(|(_, &t)| t),
    );
    let outcome = CheckOutcome {
        schedulable: analyzer.terms_feasible(sum, ttrt),
        incremental: true,
        evaluations: 0,
    };
    debug_assert_eq!(
        outcome.schedulable,
        full_check(spec, store).0.schedulable,
        "incremental TTP removal diverged from full recomputation"
    );
    (
        outcome,
        CacheUpdate::Drop {
            index: removed_index,
            sum,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ProtocolKind;
    use ringrt_units::{Bits, Seconds};

    fn stream(period_ms: f64, bits: u64) -> SyncStream {
        SyncStream::new(Seconds::from_millis(period_ms), Bits::new(bits))
    }

    fn store(streams: &[(f64, u64)]) -> StreamStore {
        let mut st = StreamStore::new();
        for (i, &(p, c)) in streams.iter().enumerate() {
            st.admit(&format!("s{i}"), stream(p, c));
        }
        st
    }

    fn pdp_spec() -> RingSpec {
        RingSpec {
            protocol: ProtocolKind::Modified,
            mbps: 16.0,
            stations: Some(16),
        }
    }

    fn ttp_spec() -> RingSpec {
        RingSpec {
            protocol: ProtocolKind::Fddi,
            mbps: 100.0,
            stations: Some(16),
        }
    }

    #[test]
    fn pdp_incremental_admit_matches_full_and_is_cheaper() {
        let spec = pdp_spec();
        let base = store(&[(20.0, 20_000), (50.0, 60_000), (100.0, 80_000)]);
        let (full, _) = full_check(&spec, &base);
        assert!(full.schedulable);
        assert!(!full.incremental);
        // Admit a slow (lowest-priority) stream: only its own level re-runs.
        let grown = store(&[
            (20.0, 20_000),
            (50.0, 60_000),
            (100.0, 80_000),
            (200.0, 10_000),
        ]);
        let (inc, update) = admit_check(&spec, None, &grown, "s3", &stream(200.0, 10_000));
        assert!(inc.schedulable);
        assert!(inc.incremental);
        assert_eq!(update, CacheUpdate::Keep);
        let (grown_full, _) = full_check(&spec, &grown);
        assert!(
            inc.evaluations < grown_full.evaluations,
            "{inc:?} vs {grown_full:?}"
        );
    }

    #[test]
    fn pdp_unpinned_stations_force_full_path() {
        let spec = RingSpec {
            stations: None,
            ..pdp_spec()
        };
        let grown = store(&[(20.0, 20_000), (50.0, 60_000)]);
        let (out, _) = admit_check(&spec, None, &grown, "s1", &stream(50.0, 60_000));
        assert!(!out.incremental);
    }

    #[test]
    fn pdp_removal_is_free() {
        let spec = pdp_spec();
        let remaining = store(&[(20.0, 20_000), (100.0, 80_000)]);
        let (out, update) = remove_check(&spec, None, 1, 3, &remaining);
        assert!(out.schedulable);
        assert!(out.incremental);
        assert_eq!(out.evaluations, 0);
        assert_eq!(update, CacheUpdate::Keep);
    }

    #[test]
    fn ttp_incremental_admit_reuses_terms() {
        let spec = ttp_spec();
        // Keep the min-deadline stream first so TTRT stays put on admit.
        let base = store(&[(20.0, 100_000), (50.0, 200_000)]);
        let (full, cache) = full_check(&spec, &base);
        assert!(full.schedulable);
        let cache = cache.expect("TTP full check caches terms");
        assert_eq!(cache.terms.len(), 2);
        let grown = store(&[(20.0, 100_000), (50.0, 200_000), (100.0, 400_000)]);
        let (inc, update) = admit_check(&spec, Some(&cache), &grown, "s2", &stream(100.0, 400_000));
        assert!(inc.schedulable);
        assert!(inc.incremental);
        assert_eq!(inc.evaluations, 1); // one new term, the sum reused
        let mut slot = Some(cache);
        update.apply(&mut slot);
        let updated = slot.expect("append preserves the cache");
        assert_eq!(updated.terms.len(), 3);
        assert_eq!(
            updated.sum.as_secs_f64().to_bits(),
            fold_terms(updated.terms.iter().copied())
                .as_secs_f64()
                .to_bits(),
            "running sum must equal the left-to-right refold bit for bit"
        );
    }

    #[test]
    fn ttp_ttrt_shift_falls_back_to_full() {
        let spec = ttp_spec();
        let base = store(&[(50.0, 200_000), (100.0, 400_000)]);
        let (_, cache) = full_check(&spec, &base);
        // The newcomer has the new minimum deadline → TTRT renegotiates.
        let grown = store(&[(50.0, 200_000), (100.0, 400_000), (10.0, 50_000)]);
        let (out, _) = admit_check(&spec, cache.as_ref(), &grown, "s2", &stream(10.0, 50_000));
        assert!(!out.incremental);
        assert_eq!(out.evaluations, 3);
    }

    #[test]
    fn ttp_removal_of_min_deadline_stream_recomputes() {
        let spec = ttp_spec();
        let base = store(&[(10.0, 50_000), (50.0, 200_000), (100.0, 400_000)]);
        let (_, cache) = full_check(&spec, &base);
        let remaining = store(&[(50.0, 200_000), (100.0, 400_000)]);
        let (out, _) = remove_check(&spec, cache.as_ref(), 0, 3, &remaining);
        assert!(!out.incremental); // TTRT changed
        let remaining2 = store(&[(10.0, 50_000), (100.0, 400_000)]);
        let (out2, update) = remove_check(&spec, cache.as_ref(), 1, 3, &remaining2);
        assert!(out2.incremental); // TTRT keeper stayed
        assert_eq!(out2.evaluations, 0);
        let mut slot = cache;
        update.apply(&mut slot);
        let updated = slot.expect("drop preserves the cache");
        assert_eq!(updated.terms.len(), 2);
        assert_eq!(
            updated.sum.as_secs_f64().to_bits(),
            fold_terms(updated.terms.iter().copied())
                .as_secs_f64()
                .to_bits()
        );
    }

    #[test]
    fn overloaded_admit_rejected_incrementally() {
        let spec = ttp_spec();
        let base = store(&[(20.0, 100_000)]);
        let (_, cache) = full_check(&spec, &base);
        // A hopeless hog (well past ring capacity) with a long period so
        // the TTRT is unchanged.
        let grown = store(&[(20.0, 100_000), (100.0, 12_000_000)]);
        let (out, _) = admit_check(
            &spec,
            cache.as_ref(),
            &grown,
            "s1",
            &stream(100.0, 12_000_000),
        );
        assert!(!out.schedulable);
        assert!(out.incremental);
    }

    #[test]
    fn empty_after_removal_is_schedulable() {
        let (out, update) = remove_check(&ttp_spec(), None, 0, 1, &StreamStore::new());
        assert!(out.schedulable);
        assert_eq!(update, CacheUpdate::Replace(None));
    }

    #[test]
    fn admit_after_interior_removal_stays_incremental() {
        // Remove from the middle (cache Drop), then admit again: the cached
        // running sum must still line up with the store's station order.
        let spec = ttp_spec();
        let mut st = store(&[(20.0, 100_000), (50.0, 200_000), (80.0, 150_000)]);
        let (_, cache) = full_check(&spec, &st);
        let mut slot = cache;
        st.remove("s1").expect("present");
        let (out, update) = remove_check(&spec, slot.as_ref(), 1, 3, &st);
        assert!(out.incremental);
        update.apply(&mut slot);
        st.admit("s3", stream(60.0, 120_000));
        let (out2, update2) = admit_check(&spec, slot.as_ref(), &st, "s3", &stream(60.0, 120_000));
        assert!(out2.incremental);
        assert_eq!(out2.evaluations, 1);
        update2.apply(&mut slot);
        let (full, fresh) = full_check(&spec, &st);
        assert_eq!(out2.schedulable, full.schedulable);
        let fresh = fresh.expect("ttp cache");
        let cached = slot.expect("cache maintained");
        assert_eq!(
            cached.sum.as_secs_f64().to_bits(),
            fresh.sum.as_secs_f64().to_bits(),
            "delta-maintained sum must equal a fresh recomputation bit for bit"
        );
    }
}
