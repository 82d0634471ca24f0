//! End-to-end analysis-pipeline benchmarks: what does it cost (in real
//! wall-clock on the host) to run ValueExpert's coarse and fine analyses
//! over a kernel's access stream, what does the fine pass alone cost per
//! record, and how do SHA-256 hashing and snapshot diffing scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use vex_core::fine::FineState;
use vex_core::prelude::*;
use vex_core::registry::ObjectRegistry;
use vex_core::sha256::{sha256, sha256_portable};
use vex_gpu::dim::Dim3;
use vex_gpu::exec::ThreadCtx;
use vex_gpu::hooks::ApiKind;
use vex_gpu::ir::{InstrTable, InstrTableBuilder, MemSpace, Pc, ScalarType};
use vex_gpu::kernel::Kernel;
use vex_gpu::runtime::Runtime;
use vex_gpu::timing::DeviceSpec;
use vex_trace::container::read_trace;
use vex_trace::event::Event;
use vex_workloads::{all_apps, Variant};

struct Saxpy {
    x: u64,
    y: u64,
    n: usize,
}

impl Kernel for Saxpy {
    fn name(&self) -> &str {
        "saxpy"
    }
    fn instr_table(&self) -> InstrTable {
        InstrTableBuilder::new()
            .load(Pc(0), ScalarType::F32, MemSpace::Global)
            .load(Pc(1), ScalarType::F32, MemSpace::Global)
            .store(Pc(2), ScalarType::F32, MemSpace::Global)
            .build()
    }
    fn execute(&self, ctx: &mut ThreadCtx<'_>) {
        let i = ctx.global_thread_id();
        if i < self.n {
            let a: f32 = ctx.load(Pc(0), self.x + (i * 4) as u64);
            let b: f32 = ctx.load(Pc(1), self.y + (i * 4) as u64);
            ctx.store(Pc(2), self.y + (i * 4) as u64, 2.0 * a + b);
        }
    }
}

fn run_saxpy(n: usize, builder: Option<vex_core::profiler::ProfilerBuilder>) {
    let mut rt = Runtime::new(DeviceSpec::rtx2080ti());
    let vex = builder.map(|b| b.attach(&mut rt));
    let x = rt.malloc_from("x", &vec![1.0f32; n]).expect("alloc x");
    let y = rt.malloc_from("y", &vec![2.0f32; n]).expect("alloc y");
    rt.launch(
        &Saxpy { x: x.addr(), y: y.addr(), n },
        Dim3::linear(n.div_ceil(256) as u32),
        Dim3::linear(256),
    )
    .expect("launch");
    if let Some(v) = vex {
        black_box(v.report(&rt));
    }
}

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("profiling_pipeline");
    group.sample_size(10);
    for &n in &[10_000usize, 100_000] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("unprofiled", n), &n, |b, &n| {
            b.iter(|| run_saxpy(n, None))
        });
        group.bench_with_input(BenchmarkId::new("coarse", n), &n, |b, &n| {
            b.iter(|| run_saxpy(n, Some(ValueExpert::builder().coarse(true).fine(false))))
        });
        group.bench_with_input(BenchmarkId::new("fine", n), &n, |b, &n| {
            b.iter(|| run_saxpy(n, Some(ValueExpert::builder().coarse(false).fine(true))))
        });
        group.bench_with_input(BenchmarkId::new("fine_sampled_b4", n), &n, |b, &n| {
            b.iter(|| {
                run_saxpy(
                    n,
                    Some(ValueExpert::builder().coarse(false).fine(true).block_sampling(4)),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("coarse_and_fine", n), &n, |b, &n| {
            b.iter(|| run_saxpy(n, Some(ValueExpert::builder().coarse(true).fine(true))))
        });
    }
    group.finish();
}

/// The fine pass alone, in records/s: [`FineState::on_batch`] and
/// `on_launch_complete` over every event of backprop's recorded trace
/// (`vex record backprop --fine`), with the object registry fed from
/// its API events. Decoding happens once, outside the timed loop, so
/// the printed ns/record is the pass's own cost.
fn bench_fine_pass(c: &mut Criterion) {
    let app = all_apps().into_iter().find(|a| a.name() == "backprop").expect("bundled app");
    let builder = ValueExpert::builder().coarse(true).fine(true);
    let bytes = vex_bench::record_app(
        &DeviceSpec::rtx2080ti(),
        app.as_ref(),
        Variant::Baseline,
        builder,
    );
    let trace = read_trace(&bytes).expect("recording decodes");
    let records: usize = trace
        .events
        .iter()
        .map(|e| match e {
            Event::Batch { records, .. } => records.len(),
            _ => 0,
        })
        .sum();
    let pass = || {
        let mut registry = ObjectRegistry::new();
        let mut fine = FineState::new(PatternConfig::default(), BlockSampler::new(1));
        for event in &trace.events {
            match event {
                Event::Api { event, .. } => match &event.kind {
                    ApiKind::Malloc { info } => registry.on_alloc(info),
                    ApiKind::Free { info } => registry.on_free(info),
                    _ => {}
                },
                Event::Batch { info, records } => fine.on_batch(info, records, &registry),
                Event::LaunchEnd { info } => fine.on_launch_complete(info, &registry),
                _ => {}
            }
        }
        fine.findings().len()
    };
    let mut group = c.benchmark_group("fine_pass");
    group.sample_size(10);
    group.throughput(Throughput::Elements(records as u64));
    group.bench_function("backprop", |b| b.iter(pass));
    group.finish();
    let runs = 5;
    let started = std::time::Instant::now();
    for _ in 0..runs {
        black_box(pass());
    }
    let ns = started.elapsed().as_nanos() as f64 / (runs * records) as f64;
    println!("  fine_pass/backprop: {ns:.1} ns/record over {records} records (mean of {runs})");
}

/// Snapshot hashing, in bytes/s: `dispatch` is `sha256` (the SHA
/// extensions where the CPU has them), `portable` the scalar reference.
fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha256");
    for &kb in &[4usize, 64, 1024] {
        let data = vec![0xABu8; kb * 1024];
        group.throughput(Throughput::Bytes((kb * 1024) as u64));
        group.bench_with_input(BenchmarkId::new("dispatch", kb), &data, |b, d| {
            b.iter(|| sha256(black_box(d)))
        });
        group.bench_with_input(BenchmarkId::new("portable", kb), &data, |b, d| {
            b.iter(|| sha256_portable(black_box(d)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fine_pass, bench_pipeline, bench_sha256);
criterion_main!(benches);
