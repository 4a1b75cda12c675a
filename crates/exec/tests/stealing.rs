//! Property: the sharded work-stealing pool is order-preserving and
//! bit-identical to the serial path under any schedule.
//!
//! `Pool::map` merges per-worker runs by starting index, so the output
//! must equal `(0..n).map(f)` regardless of thread count, chunk size, or
//! which workers steal when. These tests randomize all three — including
//! a pseudo-random forced-steal schedule via the deterministic
//! steal-injection hook — and hammer the take/steal compare-exchange
//! race with every worker stealing on every round.

use proptest::prelude::*;

use ringrt_exec::Pool;

/// A cheap index mixer so each output value depends on its index in a
/// way a mis-merged run would scramble.
fn mix(seed: u64, i: usize) -> u64 {
    let mut z = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `map` under randomized width / chunk / steal schedule == serial.
    #[test]
    fn stolen_map_is_bit_identical_to_serial(
        seed in any::<u64>(),
        schedule in any::<u64>(),
        threads in 1usize..=8,
        chunk in 1usize..=7,
        n in 0usize..200,
    ) {
        let serial: Vec<u64> = Pool::serial().map(n, |i| mix(seed, i));
        let pool = Pool::new(threads)
            .with_chunk_size(chunk)
            .with_steal_injection(move |worker, round| {
                let bit = (worker as u64).wrapping_mul(7).wrapping_add(round) % 64;
                (schedule >> bit) & 1 == 1
            });
        let pooled = pool.map(n, |i| mix(seed, i));
        prop_assert_eq!(
            serial, pooled,
            "threads {} chunk {} n {} schedule {:#x}",
            threads, chunk, n, schedule
        );
    }
}

/// Worst-case contention on the packed-range CAS: every worker is forced
/// into a steal round every time, with one-item chunks, so takes and
/// steals continuously collide on the same shard words. The single-word
/// compare-exchange must still hand out every index exactly once, in
/// merge order.
#[test]
fn all_steal_every_round_hammers_the_take_steal_race() {
    let pool = Pool::new(4)
        .with_chunk_size(1)
        .with_steal_injection(|_, _| true);
    for round in 0..50u64 {
        let n = 97; // prime, so shards split unevenly
        let serial: Vec<u64> = Pool::serial().map(n, |i| mix(round, i));
        let pooled = pool.map(n, |i| mix(round, i));
        assert_eq!(serial, pooled, "round {round}");
    }
    let stats = pool.stats();
    assert!(
        stats.steal_attempts > 0,
        "forced schedule must search for victims"
    );
}

/// The injector alone must not corrupt the no-work edge cases.
#[test]
fn forced_steals_on_tiny_inputs_stay_exact() {
    let pool = Pool::new(8)
        .with_chunk_size(1)
        .with_steal_injection(|_, _| true);
    assert_eq!(pool.map(0, |i| i), Vec::<usize>::new());
    assert_eq!(pool.map(1, |i| i), vec![0]);
    assert_eq!(pool.map(2, |i| i * 10), vec![0, 10]);
}
