//! Figure 5 ablation: direct vs min–max vs segment snapshot copies, and
//! the adaptive policy, swept over interval density and count. The metric
//! is the *modeled copy time* (per-call overhead + PCIe streaming), which
//! is what the adaptive policy optimizes; Criterion measures the planning
//! cost on top.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use vex_core::copy_strategy::{plan, plan_adaptive, AdaptivePolicy, CopyStrategy};
use vex_trace::interval::Interval;

/// Disjoint intervals covering `density` of a span holding `count` pieces.
fn layout(count: usize, density: f64) -> (Vec<Interval>, u64) {
    let piece = 256u64;
    let stride = (piece as f64 / density) as u64;
    let intervals: Vec<Interval> =
        (0..count as u64).map(|i| Interval::new(i * stride, i * stride + piece)).collect();
    let object = count as u64 * stride + 4096;
    (intervals, object)
}

fn bench_planning(c: &mut Criterion) {
    let mut group = c.benchmark_group("copy_plan");
    group.sample_size(20);
    for &count in &[4usize, 64, 1024] {
        for &density in &[0.001f64, 0.05, 0.5, 0.9] {
            let (intervals, object) = layout(count, density);
            group.bench_with_input(
                BenchmarkId::new("adaptive", format!("n{count}_d{density}")),
                &intervals,
                |b, iv| {
                    b.iter(|| plan_adaptive(black_box(iv), object, &AdaptivePolicy::default()))
                },
            );
        }
    }
    group.finish();
}

/// Not a timing benchmark: prints the modeled copy-time table the figure
/// illustrates, so `cargo bench` output doubles as the Figure 5 data.
fn report_modeled_times(c: &mut Criterion) {
    let per_call_us = 6.0;
    let pcie = 12.0;
    println!("\nFigure 5 modeled copy times (per-call 6us, PCIe 12 GB/s):");
    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>12} {:>10}",
        "count", "density", "direct us", "min-max us", "segment us", "adaptive"
    );
    for &count in &[4usize, 64, 1024] {
        for &density in &[0.001f64, 0.05, 0.5, 0.9] {
            let (intervals, object) = layout(count, density);
            let d = plan(CopyStrategy::Direct, &intervals, object).time_us(per_call_us, pcie);
            let m = plan(CopyStrategy::MinMax, &intervals, object).time_us(per_call_us, pcie);
            let s = plan(CopyStrategy::Segment, &intervals, object).time_us(per_call_us, pcie);
            let a = plan_adaptive(&intervals, object, &AdaptivePolicy::default());
            println!(
                "{:>6} {:>8.2} {:>12.1} {:>12.1} {:>12.1} {:>10}",
                count, density, d, m, s, a.strategy
            );
        }
    }
    // Keep Criterion happy with at least one measured function.
    c.bench_function("noop_plan", |b| {
        let (intervals, object) = layout(64, 0.5);
        b.iter(|| plan(CopyStrategy::MinMax, black_box(&intervals), object))
    });
}

criterion_group!(benches, bench_planning, report_modeled_times);
criterion_main!(benches);
