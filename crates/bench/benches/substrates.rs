//! Criterion benchmarks of the substrate crates: the journal's CRC-32, the
//! event queue, and statistics — the inner loops under the registry and
//! the simulators.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use ringrt_des::stats::DurationHistogram;
use ringrt_des::EventQueue;
use ringrt_registry::crc::crc32;
use ringrt_units::{SimDuration, SimTime};

fn bench_crc32(c: &mut Criterion) {
    let mut group = c.benchmark_group("crc32");
    for size in [64usize, 1500, 65536] {
        let data: Vec<u8> = (0..size).map(|i| i as u8).collect();
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(format!("{size}B"), |b| {
            b.iter(|| black_box(crc32(black_box(&data))))
        });
    }
    group.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.bench_function("push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            // Deterministic pseudo-random times via an LCG.
            let mut x = 0x2545_F491_4F6C_DD1Du64;
            for i in 0..10_000u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                q.schedule_at(SimTime::from_picos(x >> 20), i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = q.pop() {
                sum = sum.wrapping_add(e);
            }
            black_box(sum)
        })
    });
    group.finish();
}

fn bench_histogram(c: &mut Criterion) {
    let mut group = c.benchmark_group("duration_histogram");
    group.bench_function("push_100k_quantile", |b| {
        b.iter(|| {
            let mut h = DurationHistogram::new();
            for i in 1..=100_000u64 {
                h.push(SimDuration::from_picos(i * 7919));
            }
            black_box(h.quantile(0.99))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_crc32, bench_event_queue, bench_histogram);
criterion_main!(benches);
