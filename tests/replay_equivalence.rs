//! Live ≡ replay equivalence suite for the persistent trace format.
//!
//! `vex record` persists the canonical event stream; `vex replay` feeds
//! it back through the same analysis engines. Because the engines consume
//! the identical [`vex_trace::event::Event`] values a live session
//! produces, every rendered report form — text, JSON, flow-graph DOT —
//! must match the live profiler byte for byte, under the synchronous
//! engine and under the sharded pipeline at every shard count, whether
//! the trace is decoded up front or streamed batch by batch. The same
//! trace also replays through the GVProf baseline, matching a live
//! GVProf session's results and traffic counters.

use vex_bench::{profile_app, record_app};
use vex_core::prelude::*;
use vex_core::profiler::ProfilerBuilder;
use vex_gpu::runtime::Runtime;
use vex_gpu::timing::DeviceSpec;
use vex_gvprof::GvProfSession;
use vex_trace::container::{read_trace, read_trace_with, RecordedTrace, TraceReader};
use vex_workloads::{all_apps, GpuApp, Variant};

/// Every byte-comparable rendering of a profile.
fn rendered(profile: &Profile) -> (String, String, String) {
    (
        profile.render_text(),
        profile.to_json().expect("profile serializes"),
        profile.flow_graph.to_dot(profile.redundancy_threshold),
    )
}

/// Pipeline shard counts of the streamed replays (0 = synchronous
/// engine). The coarse-only stream in
/// `every_workload_replays_byte_identically` takes 1 shard.
const STREAM_SHARDS: [usize; 2] = [0, 8];

/// Checks that streaming `bytes` through
/// [`ProfilerBuilder::replay_reader`] — no materialized trace, one
/// projected batch at a time — renders `expected` at each shard count.
fn assert_streams_to(
    app: &dyn GpuApp,
    bytes: &[u8],
    make_builder: &dyn Fn() -> ProfilerBuilder,
    shard_counts: &[usize],
    expected: &(String, String, String),
) {
    for &shards in shard_counts {
        let reader = TraceReader::new(bytes).unwrap_or_else(|e| panic!("{}: {e}", app.name()));
        let streamed = make_builder()
            .analysis_shards(shards)
            .replay_reader(reader)
            .unwrap_or_else(|e| panic!("{}: streamed replay failed: {e}", app.name()));
        assert_eq!(
            expected,
            &rendered(&streamed),
            "{}: streamed replay diverged ({shards} shards)",
            app.name()
        );
    }
}

/// Records `app` once and checks that replaying the trace reproduces the
/// live profiler byte-for-byte under the synchronous engine and 1/2/8
/// pipeline shards, materialized and streamed. Returns the recording and
/// its decoded trace.
fn assert_replay_equivalent(
    app: &dyn GpuApp,
    make_builder: &dyn Fn() -> ProfilerBuilder,
) -> (Vec<u8>, RecordedTrace) {
    let spec = DeviceSpec::rtx2080ti();
    let live = rendered(&profile_app(&spec, app, Variant::Baseline, make_builder()).0);
    let (text, json, dot) = &live;

    let bytes = record_app(&spec, app, Variant::Baseline, make_builder());
    let trace = read_trace(&bytes).unwrap_or_else(|e| panic!("{}: {e}", app.name()));

    for shards in [0usize, 1, 2, 8] {
        let replayed = make_builder()
            .analysis_shards(shards)
            .replay(&trace)
            .unwrap_or_else(|e| panic!("{}: replay failed: {e}", app.name()));
        let (rtext, rjson, rdot) = rendered(&replayed);
        let engine = if shards == 0 { "sync".into() } else { format!("{shards}-shard") };
        assert_eq!(text, &rtext, "{}: text report diverged ({engine} replay)", app.name());
        assert_eq!(json, &rjson, "{}: JSON report diverged ({engine} replay)", app.name());
        assert_eq!(dot, &rdot, "{}: flow-graph DOT diverged ({engine} replay)", app.name());
    }
    assert_streams_to(app, &bytes, make_builder, &STREAM_SHARDS, &live);
    (bytes, trace)
}

/// Records `app` once and checks that replaying from a *projected*
/// decode — only the columns the configured passes declare — reproduces
/// the full decode's report byte-for-byte, under the inline engine and
/// 1/8 pipeline shards.
fn assert_projected_replay_equivalent(
    app: &dyn GpuApp,
    make_builder: &dyn Fn() -> ProfilerBuilder,
) {
    let spec = DeviceSpec::rtx2080ti();
    let bytes = record_app(&spec, app, Variant::Baseline, make_builder());
    let full = read_trace(&bytes).unwrap_or_else(|e| panic!("{}: {e}", app.name()));

    for shards in [0usize, 1, 8] {
        let make_sharded = || make_builder().analysis_shards(shards);
        let baseline = make_sharded()
            .replay(&full)
            .unwrap_or_else(|e| panic!("{}: full replay failed: {e}", app.name()));
        let opts = make_sharded().decode_options();
        let projected = read_trace_with(&bytes, &opts)
            .unwrap_or_else(|e| panic!("{}: projected decode failed: {e}", app.name()));
        let replayed = make_sharded()
            .replay(&projected)
            .unwrap_or_else(|e| panic!("{}: projected replay failed: {e}", app.name()));
        assert_eq!(
            rendered(&baseline),
            rendered(&replayed),
            "{}: report diverged between full and projected decode ({shards} shards, {:?})",
            app.name(),
            opts.columns,
        );
    }
}

/// Coarse + fine on every bundled workload, through every engine,
/// materialized and streamed. A streamed coarse-only replay of the same
/// recording — every batch frame takes the structural walk
/// (`ColumnSet::NONE`) and allocates no records — matches the
/// materialized coarse-only replay.
#[test]
fn every_workload_replays_byte_identically() {
    let both = || ValueExpert::builder().coarse(true).fine(true).block_sampling(4);
    let coarse = || ValueExpert::builder().coarse(true).fine(false);
    for app in all_apps() {
        let (bytes, trace) = assert_replay_equivalent(app.as_ref(), &both);
        let expected = rendered(
            &coarse()
                .replay(&trace)
                .unwrap_or_else(|e| panic!("{}: coarse-only replay failed: {e}", app.name())),
        );
        assert_streams_to(app.as_ref(), &bytes, &coarse, &[1], &expected);
    }
}

/// Every workload's report is byte-identical between a full decode and
/// the per-pass projected parallel decode (`ProfilerBuilder`'s declared
/// columns on 8 worker threads), at sync and 1/8 shards.
#[test]
fn every_workload_replays_projected_byte_identically() {
    for app in all_apps() {
        assert_projected_replay_equivalent(app.as_ref(), &|| {
            ValueExpert::builder().coarse(true).fine(true).block_sampling(4)
        });
    }
}

/// The projected decode of the aux analyses (reuse distance, race
/// detection) also reproduces the full decode byte-for-byte — these
/// passes widen the demanded column set.
#[test]
fn aux_analyses_replay_projected_byte_identically() {
    let apps = all_apps();
    let app = apps.first().expect("bundled workloads");
    assert_projected_replay_equivalent(app.as_ref(), &|| {
        ValueExpert::builder().coarse(true).fine(true).reuse_distance(32).race_detection(true)
    });
}

/// Coarse-only replay demands no access columns at all: the projected
/// decode drops every record column yet the report still matches.
#[test]
fn coarse_only_replay_projected_byte_identically() {
    let apps = all_apps();
    let app = apps.first().expect("bundled workloads");
    assert_projected_replay_equivalent(app.as_ref(), &|| {
        ValueExpert::builder().coarse(true).fine(false)
    });
}

/// Record-time sampling and filtering are baked into the trace; a replay
/// of a sampled recording must match a live session with the same
/// sampling options.
#[test]
fn sampled_recording_replays_byte_identically() {
    let apps = all_apps();
    let app = apps.first().expect("bundled workloads");
    assert_replay_equivalent(app.as_ref(), &|| {
        ValueExpert::builder().coarse(true).fine(true).kernel_sampling(2).block_sampling(2)
    });
}

/// The order-sensitive aux analyses replay identically too.
#[test]
fn aux_analyses_replay_byte_identically() {
    let apps = all_apps();
    let app = apps.first().expect("bundled workloads");
    assert_replay_equivalent(app.as_ref(), &|| {
        ValueExpert::builder().coarse(true).fine(true).reuse_distance(32).race_detection(true)
    });
}

/// Coarse-only recordings exercise the capture-snapshot frames alone.
#[test]
fn coarse_only_recording_replays_byte_identically() {
    let apps = all_apps();
    let app = apps.first().expect("bundled workloads");
    assert_replay_equivalent(app.as_ref(), &|| ValueExpert::builder().coarse(true).fine(false));
}

/// One full-fidelity trace serves every analysis: replaying a subset of
/// the recorded passes matches a live session running just that subset.
#[test]
fn subset_replays_match_live_subset_sessions() {
    let spec = DeviceSpec::rtx2080ti();
    let apps = all_apps();
    let app = apps.first().expect("bundled workloads");
    let bytes = record_app(
        &spec,
        app.as_ref(),
        Variant::Baseline,
        ValueExpert::builder().coarse(true).fine(true),
    );
    let trace = read_trace(&bytes).expect("trace decodes");

    for (make_builder, label) in [
        (
            (|| ValueExpert::builder().coarse(true).fine(false)) as fn() -> ProfilerBuilder,
            "coarse-only",
        ),
        (|| ValueExpert::builder().coarse(false).fine(true), "fine-only"),
    ] {
        let live = profile_app(&spec, app.as_ref(), Variant::Baseline, make_builder()).0;
        let replayed = make_builder().replay(&trace).expect("subset replay");
        assert_eq!(rendered(&live), rendered(&replayed), "{label} subset diverged");
    }
}

/// Replaying passes the trace never carried fails with an actionable
/// error instead of producing an empty report — for a streamed replay
/// too, which checks the header's pass flags before reading any frame.
#[test]
fn replaying_unrecorded_passes_is_an_error() {
    let spec = DeviceSpec::rtx2080ti();
    let apps = all_apps();
    let app = apps.first().expect("bundled workloads");
    let bytes = record_app(
        &spec,
        app.as_ref(),
        Variant::Baseline,
        ValueExpert::builder().coarse(true).fine(false),
    );
    let trace = read_trace(&bytes).expect("trace decodes");
    let err = ValueExpert::builder().coarse(true).fine(true).replay(&trace).unwrap_err();
    assert_eq!(err, ReplayError::FineNotRecorded);
    assert!(err.to_string().contains("--fine"), "{err}");
    let reader = TraceReader::new(bytes.as_slice()).expect("header decodes");
    let err = ValueExpert::builder().coarse(true).fine(true).replay_reader(reader).unwrap_err();
    assert_eq!(err, ReplayError::FineNotRecorded);
}

/// The same `--fine` trace replays through the GVProf baseline, matching
/// a live GVProf session's per-kernel results and traffic counters —
/// both unsampled and under GVProf's hierarchical sampling.
#[test]
fn gvprof_replay_matches_live_gvprof() {
    let spec = DeviceSpec::rtx2080ti();
    let apps = all_apps();
    let app = apps.first().expect("bundled workloads");
    let bytes = record_app(
        &spec,
        app.as_ref(),
        Variant::Baseline,
        ValueExpert::builder().coarse(false).fine(true),
    );
    let reader = || TraceReader::new(bytes.as_slice()).expect("header decodes");

    {
        let mut rt = Runtime::new(spec.clone());
        let gv = GvProfSession::attach(&mut rt);
        app.run(&mut rt, Variant::Baseline).expect("workload runs");
        let (results, stats) = vex_gvprof::replay(reader(), 1, 1).expect("gvprof replay");
        assert_eq!(results, gv.results(), "unsampled GVProf replay diverged");
        assert_eq!(stats, gv.collector_stats(), "unsampled GVProf traffic diverged");
    }

    {
        let mut rt = Runtime::new(spec.clone());
        let gv = GvProfSession::attach_sampled(&mut rt, 4, 2);
        app.run(&mut rt, Variant::Baseline).expect("workload runs");
        let (results, stats) =
            vex_gvprof::replay(reader(), 4, 2).expect("sampled gvprof replay");
        assert_eq!(results, gv.results(), "sampled GVProf replay diverged");
        assert_eq!(stats, gv.collector_stats(), "sampled GVProf traffic diverged");
    }
}

/// A coarse-only trace cannot feed the GVProf baseline.
#[test]
fn gvprof_replay_requires_fine_records() {
    let spec = DeviceSpec::rtx2080ti();
    let apps = all_apps();
    let app = apps.first().expect("bundled workloads");
    let bytes = record_app(
        &spec,
        app.as_ref(),
        Variant::Baseline,
        ValueExpert::builder().coarse(true).fine(false),
    );
    let reader = TraceReader::new(bytes.as_slice()).expect("header decodes");
    let err = vex_gvprof::replay(reader, 1, 1).unwrap_err();
    assert!(err.to_string().contains("--fine"), "{err}");
}
