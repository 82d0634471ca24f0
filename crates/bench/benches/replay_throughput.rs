//! Replay-path throughput: how fast can a recorded `.vex` trace be
//! decoded and dispatched back through the analysis engines?
//!
//! The Criterion groups measure, per workload:
//!
//! * **decode** — parsing the container bytes into [`RecordedTrace`]
//!   (header, frames, record batches);
//! * **decode_projected** — the same decode projected onto the
//!   fine-pass column set ([`read_trace_with`]);
//! * **dispatch** — fanning the decoded events into an [`EventSink`]
//!   (the fixed per-event cost every replay consumer pays);
//! * **replay_analysis** — a full offline ValueExpert replay of an
//!   already decoded trace (decode cost excluded);
//! * **stream_replay** — [`ProfilerBuilder::replay_reader`] straight
//!   from the container bytes: projected decode and analysis one batch
//!   at a time, the `vex replay` end-to-end path.
//!
//! A `results/replay_throughput.json` artefact records, in records/s
//! and ns/record, every decode path and the two end-to-end replay paths
//! side by side: *materialize+replay* (projected [`read_trace_with`],
//! then [`ProfilerBuilder::replay`]) and *stream_replay*. It also
//! records coarse-only replay times for both paths and *gates* them on
//! every host: on every workload whose materialized coarse-only replay
//! is decode-bound (decode at least [`DECODE_BOUND_SHARE`] of it), the
//! streamed coarse-only replay — whose batch frames take the structural
//! `ColumnSet::NONE` walk — must take at most [`GATED_STREAM_RATIO`]×
//! the materialized one. Beside the in-memory streamed coarse-only
//! replay it reports, ungated, the same replay read from a trace file
//! through a `BufReader<File>` — the path `vex replay` takes, where
//! skipped batch frames are seeks rather than slice advances.
//!
//! Run with `cargo bench --bench replay_throughput`.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use serde::Serialize;
use std::fs::File;
use std::hint::black_box;
use std::io::BufReader;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use vex_bench::{median, record_app, write_json};
use vex_core::prelude::*;
use vex_core::profiler::ProfilerBuilder;
use vex_gpu::timing::DeviceSpec;
use vex_trace::container::{read_trace, read_trace_with, RecordedTrace, TraceReader};
use vex_trace::event::{Event, EventSink};
use vex_workloads::{all_apps, GpuApp, Variant};

/// Largest allowed ratio of streamed to materialized coarse-only replay
/// time. The ratio compares two paths on the same host, so the gate
/// means the same on a 2-core laptop and a CI runner.
const GATED_STREAM_RATIO: f64 = 0.5;

/// Share of the materialized coarse-only replay spent decoding above
/// which a workload counts as decode-bound and the streaming gate
/// applies. Streaming removes the record decode but not the analysis:
/// with decode at least twice the analysis, what remains is at most a
/// third of the time, so [`GATED_STREAM_RATIO`] leaves room for the
/// structural walk. Below it, the ratio is reported only.
const DECODE_BOUND_SHARE: f64 = 2.0 / 3.0;

/// The coarse+fine ValueExpert replay configuration.
fn fine_replay() -> ProfilerBuilder {
    ValueExpert::builder().coarse(true).fine(true)
}

/// The coarse-only replay configuration (projection `ColumnSet::NONE`).
fn coarse_replay() -> ProfilerBuilder {
    ValueExpert::builder().coarse(true).fine(false)
}

/// The `vex replay` path before streaming: a projected decode into a
/// [`RecordedTrace`], then a replay of it.
fn materialize_replay(builder: ProfilerBuilder, bytes: &[u8]) -> Profile {
    let trace = read_trace_with(bytes, &builder.decode_options()).expect("trace decodes");
    builder.replay(&trace).expect("replay succeeds")
}

/// The streaming `vex replay` path over bytes in memory.
fn stream_replay(builder: ProfilerBuilder, bytes: &[u8]) -> Profile {
    let reader = TraceReader::new(bytes).expect("header decodes");
    builder.replay_reader(reader).expect("replay succeeds")
}

/// The streaming `vex replay` path over a trace file.
fn stream_replay_file(builder: ProfilerBuilder, path: &Path) -> Profile {
    let file = BufReader::new(File::open(path).expect("trace file opens"));
    let reader = TraceReader::new(file).expect("header decodes");
    builder.replay_reader(reader).expect("replay succeeds")
}

/// The workloads measured — one small, one large event stream.
const SELECTION: [&str; 2] = ["backprop", "Darknet"];

/// A sink that only counts, to isolate dispatch overhead from analysis.
struct CountingSink(AtomicU64);

impl EventSink for CountingSink {
    fn on_event(&self, event: &Event) {
        black_box(event);
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

fn recorded(app: &dyn GpuApp) -> Vec<u8> {
    record_app(
        &DeviceSpec::rtx2080ti(),
        app,
        Variant::Baseline,
        ValueExpert::builder().coarse(true).fine(true),
    )
}

fn dispatch_count(trace: &RecordedTrace) -> u64 {
    let sink = CountingSink(AtomicU64::new(0));
    trace.dispatch(&sink);
    sink.0.load(Ordering::Relaxed)
}

fn bench_replay(c: &mut Criterion) {
    let apps = all_apps();
    let mut group = c.benchmark_group("replay_throughput");
    group.sample_size(10);
    for app in apps.iter().filter(|a| SELECTION.contains(&a.name())) {
        let bytes = recorded(app.as_ref());
        let trace = read_trace(&bytes).expect("trace decodes");
        group.throughput(Throughput::Elements(trace.events.len() as u64));
        group.bench_with_input(BenchmarkId::new("decode", app.name()), &bytes, |b, bytes| {
            b.iter(|| black_box(read_trace(black_box(bytes)).expect("trace decodes")))
        });
        let projected = fine_replay().decode_options();
        group.bench_with_input(
            BenchmarkId::new("decode_projected", app.name()),
            &bytes,
            |b, bytes| {
                b.iter(|| {
                    black_box(
                        read_trace_with(black_box(bytes), &projected).expect("trace decodes"),
                    )
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("dispatch", app.name()), &trace, |b, trace| {
            b.iter(|| black_box(dispatch_count(trace)))
        });
        group.bench_with_input(
            BenchmarkId::new("replay_analysis", app.name()),
            &trace,
            |b, trace| {
                b.iter(|| black_box(fine_replay().replay(trace).expect("replay succeeds")))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("stream_replay", app.name()),
            &bytes,
            |b, bytes| b.iter(|| black_box(stream_replay(fine_replay(), black_box(bytes)))),
        );
    }
    group.finish();
}

/// One row of the JSON artefact.
#[derive(Serialize)]
struct ThroughputRow {
    app: String,
    trace_bytes: usize,
    records: u64,
    decode_records_per_s: f64,
    projected_decode_records_per_s: f64,
    projected_speedup: f64,
    /// Coarse+fine replay: projected decode into a `RecordedTrace`, then
    /// replay.
    materialize_replay_records_per_s: f64,
    materialize_replay_ns_per_record: f64,
    /// Coarse+fine replay streamed from the container bytes.
    stream_replay_records_per_s: f64,
    stream_replay_ns_per_record: f64,
    /// Coarse-only replays (median ms), the share of the materialized
    /// one spent decoding, and the ratio gated when that share makes the
    /// workload decode-bound.
    coarse_materialize_replay_ms: f64,
    coarse_stream_replay_ms: f64,
    coarse_decode_share: f64,
    coarse_stream_ratio: f64,
    /// The streamed coarse-only replay from bytes in memory, and from a
    /// trace file through a `BufReader<File>` (`vex replay`'s input).
    coarse_stream_replay_records_per_s: f64,
    coarse_stream_replay_ns_per_record: f64,
    coarse_file_stream_replay_ms: f64,
    coarse_file_stream_replay_records_per_s: f64,
    coarse_file_stream_replay_ns_per_record: f64,
}

impl ThroughputRow {
    fn decode_bound(&self) -> bool {
        self.coarse_decode_share >= DECODE_BOUND_SHARE
    }
}

/// Median wall time of `routine` over a few runs, in seconds.
fn median_secs(mut routine: impl FnMut()) -> f64 {
    const RUNS: usize = 5;
    let mut secs = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        let t0 = Instant::now();
        routine();
        secs.push(t0.elapsed().as_secs_f64().max(f64::MIN_POSITIVE));
    }
    median(secs)
}

fn records_in(trace: &RecordedTrace) -> u64 {
    trace
        .events
        .iter()
        .map(|e| match e {
            Event::Batch { records, .. } => records.len() as u64,
            _ => 0,
        })
        .sum()
}

fn artifact() {
    let apps = all_apps();
    let mut rows = Vec::new();
    for app in apps.iter().filter(|a| SELECTION.contains(&a.name())) {
        let bytes = recorded(app.as_ref());
        let records = records_in(&read_trace(&bytes).expect("trace decodes"));
        let rate = |secs: f64| records as f64 / secs;
        let decode = median_secs(|| {
            black_box(read_trace(black_box(&bytes)).expect("trace decodes"));
        });
        let projected_opts = fine_replay().decode_options();
        let projected = median_secs(|| {
            black_box(
                read_trace_with(black_box(&bytes), &projected_opts).expect("trace decodes"),
            );
        });
        let materialized = median_secs(|| {
            black_box(materialize_replay(fine_replay(), black_box(&bytes)));
        });
        let streamed = median_secs(|| {
            black_box(stream_replay(fine_replay(), black_box(&bytes)));
        });
        let coarse_opts = coarse_replay().decode_options();
        let coarse_decode = median_secs(|| {
            black_box(read_trace_with(black_box(&bytes), &coarse_opts).expect("trace decodes"));
        });
        let coarse_materialized = median_secs(|| {
            black_box(materialize_replay(coarse_replay(), black_box(&bytes)));
        });
        let coarse_streamed = median_secs(|| {
            black_box(stream_replay(coarse_replay(), black_box(&bytes)));
        });
        let path = std::env::temp_dir().join(format!(
            "vex-replay-throughput-{}-{}.vex",
            app.name(),
            std::process::id()
        ));
        std::fs::write(&path, &bytes).expect("trace file writes");
        let coarse_file_streamed = median_secs(|| {
            black_box(stream_replay_file(coarse_replay(), black_box(&path)));
        });
        std::fs::remove_file(&path).ok();
        rows.push(ThroughputRow {
            app: app.name().to_owned(),
            trace_bytes: bytes.len(),
            records,
            decode_records_per_s: rate(decode),
            projected_decode_records_per_s: rate(projected),
            projected_speedup: decode / projected,
            materialize_replay_records_per_s: rate(materialized),
            materialize_replay_ns_per_record: materialized * 1e9 / records as f64,
            stream_replay_records_per_s: rate(streamed),
            stream_replay_ns_per_record: streamed * 1e9 / records as f64,
            coarse_materialize_replay_ms: coarse_materialized * 1e3,
            coarse_stream_replay_ms: coarse_streamed * 1e3,
            coarse_decode_share: (coarse_decode / coarse_materialized).min(1.0),
            coarse_stream_ratio: coarse_streamed / coarse_materialized,
            coarse_stream_replay_records_per_s: rate(coarse_streamed),
            coarse_stream_replay_ns_per_record: coarse_streamed * 1e9 / records as f64,
            coarse_file_stream_replay_ms: coarse_file_streamed * 1e3,
            coarse_file_stream_replay_records_per_s: rate(coarse_file_streamed),
            coarse_file_stream_replay_ns_per_record: coarse_file_streamed * 1e9
                / records as f64,
        });
    }
    for r in &rows {
        println!(
            "{:<10} {:>9} records {:>10} bytes  decode {:>6.1} ns/rec  \
             projected {:.2}x  materialize+replay {:>6.1} ns/rec  stream_replay {:>6.1} ns/rec  \
             coarse-only {:.1} ms -> {:.1} ms ({:.2}x, decode {:.0}%{}), from file {:.1} ms \
             ({:.2} ns/rec)",
            r.app,
            r.records,
            r.trace_bytes,
            1e9 / r.decode_records_per_s,
            r.projected_speedup,
            r.materialize_replay_ns_per_record,
            r.stream_replay_ns_per_record,
            r.coarse_materialize_replay_ms,
            r.coarse_stream_replay_ms,
            r.coarse_stream_ratio,
            r.coarse_decode_share * 100.0,
            if r.decode_bound() { ", gated" } else { "" },
            r.coarse_file_stream_replay_ms,
            r.coarse_file_stream_replay_ns_per_record,
        );
    }
    // Streaming gate: a coarse-only replay reads no batch columns, so
    // streaming it must not pay for the records the materialized path
    // builds. Asserted on every host, for every decode-bound workload —
    // and at least one must be, or the gate would check nothing.
    assert!(
        rows.iter().any(ThroughputRow::decode_bound),
        "no workload's coarse-only replay is decode-bound; the streaming gate checks nothing"
    );
    for r in rows.iter().filter(|r| r.decode_bound()) {
        assert!(
            r.coarse_stream_ratio <= GATED_STREAM_RATIO,
            "{}: streamed coarse-only replay took {:.2}x the materialized one (gate {}x)",
            r.app,
            r.coarse_stream_ratio,
            GATED_STREAM_RATIO,
        );
    }
    write_json("replay_throughput", &rows);
}

criterion_group!(benches, bench_replay);

fn main() {
    benches();
    artifact();
}
