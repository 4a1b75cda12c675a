//! Property: the pool's chunked map is order-preserving and bit-identical
//! to the serial path, whatever the width, the chunk size, or which
//! thread claims which chunk.
//!
//! `Pool::map` hands out chunks from one atomic counter and joins the
//! chunks' results in index order, so the output must equal
//! `(0..n).map(f)`. These tests randomize width, chunk size and length,
//! and hammer the counter with one-item chunks while an item's cost
//! varies, so the caller and the helpers interleave their claims.

use proptest::prelude::*;

use ringrt_exec::Pool;

/// A cheap index mixer so each output value depends on its index in a
/// way a mis-merged chunk would scramble.
fn mix(seed: u64, i: usize) -> u64 {
    let mut z = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `map` under randomized width / chunk / length == serial.
    #[test]
    fn chunked_map_is_bit_identical_to_serial(
        seed in any::<u64>(),
        threads in 1usize..=8,
        chunk in 0usize..=7,
        n in 0usize..200,
    ) {
        let serial: Vec<u64> = Pool::serial().map(n, |i| mix(seed, i));
        let pool = Pool::new(threads).with_chunk_size(chunk);
        let pooled = pool.map(n, |i| mix(seed, i));
        prop_assert_eq!(serial, pooled, "threads {} chunk {} n {}", threads, chunk, n);
    }
}

/// One-item chunks of uneven cost: the caller and three helpers claim
/// from the same counter in every order, and every index must still be
/// handed out exactly once and land in its place.
#[test]
fn one_item_chunks_of_uneven_cost_stay_exact() {
    let pool = Pool::new(4).with_chunk_size(1);
    for round in 0..50u64 {
        let n = 97;
        let serial: Vec<u64> = Pool::serial().map(n, |i| mix(round, i));
        let pooled = pool.map(n, |i| {
            if mix(round, i).is_multiple_of(8) {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
            mix(round, i)
        });
        assert_eq!(serial, pooled, "round {round}");
    }
    assert_eq!(pool.stats().chunks, 50 * 97);
}

/// The edge cases with fewer items than threads.
#[test]
fn tiny_inputs_stay_exact() {
    let pool = Pool::new(8).with_chunk_size(1);
    assert_eq!(pool.map(0, |i| i), Vec::<usize>::new());
    assert_eq!(pool.map(1, |i| i), vec![0]);
    assert_eq!(pool.map(2, |i| i * 10), vec![0, 10]);
    assert_eq!(pool.map(3, |i| i * 10), vec![0, 10, 20]);
}
