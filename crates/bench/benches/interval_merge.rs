//! Figure 4 ablation: sequential host-side interval merge vs the paper's
//! data-parallel algorithm (single-threaded and multi-threaded), plus the
//! warp-compaction fast path, across interval counts and layouts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use vex_trace::interval::{
    merge_parallel, merge_parallel_threaded, merge_sequential, Interval,
};

/// Coalesced layout: warps of adjacent 4-byte accesses (merges to few).
fn coalesced(n: usize) -> Vec<Interval> {
    (0..n as u64).map(|i| Interval::new(i * 4, i * 4 + 4)).collect()
}

/// Strided layout: gaps between accesses (nothing merges beyond warps).
fn strided(n: usize) -> Vec<Interval> {
    (0..n as u64).map(|i| Interval::new(i * 64, i * 64 + 4)).collect()
}

/// Random overlapping layout (streamcluster-like).
fn random_overlap(n: usize) -> Vec<Interval> {
    let mut x = 0x9E3779B97F4A7C15u64;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let start = x % (n as u64 * 8);
            Interval::new(start, start + 1 + (x >> 48) % 128)
        })
        .collect()
}

fn bench_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("interval_merge");
    group.sample_size(10);
    for &n in &[10_000usize, 100_000, 400_000] {
        for (layout, data) in [
            ("coalesced", coalesced(n)),
            ("strided", strided(n)),
            ("random", random_overlap(n)),
        ] {
            group.throughput(Throughput::Elements(n as u64));
            group.bench_with_input(
                BenchmarkId::new(format!("sequential/{layout}"), n),
                &data,
                |b, d| b.iter(|| merge_sequential(black_box(d))),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("parallel_alg/{layout}"), n),
                &data,
                |b, d| b.iter(|| merge_parallel(black_box(d))),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("parallel_4t/{layout}"), n),
                &data,
                |b, d| b.iter(|| merge_parallel_threaded(black_box(d), 4)),
            );
        }
    }
    group.finish();
}

fn bench_warp_compact(c: &mut Criterion) {
    let mut group = c.benchmark_group("warp_compaction");
    // One warp's worth of coalesced accesses — the common fast path.
    let warp: Vec<Interval> = coalesced(32);
    group
        .bench_function("coalesced_warp_32", |b| b.iter(|| merge_sequential(black_box(&warp))));
    let scattered: Vec<Interval> = strided(32);
    group.bench_function("strided_warp_32", |b| {
        b.iter(|| merge_sequential(black_box(&scattered)))
    });
    group.finish();
}

criterion_group!(benches, bench_merge, bench_warp_compact);
criterion_main!(benches);
