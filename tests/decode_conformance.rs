//! Decode-conformance suite for the parallel + projected columnar
//! decode path.
//!
//! The v2 container's batch frames are independent decode units, so
//! [`read_trace_with`] may decode them on a worker pool and/or project
//! them onto a [`ColumnSet`]. This suite pins the conformance contract:
//!
//! * any thread count reconstructs exactly the sequential decode
//!   ([`read_trace`]) — same events, same records, same trailer;
//! * any projection reconstructs the demanded columns exactly and
//!   zero-fills the rest;
//! * corrupt or truncated batches mid-stream surface the *same*
//!   [`DecodeError`] the sequential reader reports, at every thread
//!   count, with no hang and no partially-decoded trace leaking out;
//! * the streaming path — [`TraceReader::set_columns`] +
//!   [`TraceReader::dispatch`], and [`ProfilerBuilder::replay_reader`]
//!   on top — yields the same events and fails with the same error as
//!   [`read_trace_with`] under the same projection, and never panics on
//!   corrupt input;
//! * a trace whose captures miss bytes the coarse pass needs fails with
//!   an error on every replay path, the CLI included.

use proptest::prelude::*;
use std::sync::Arc;
use std::sync::Mutex;
use vex_bench::capture_gap_traces;
use vex_cli::{parse_args, run};
use vex_core::prelude::*;
use vex_core::profiler::ProfilerBuilder;
use vex_gpu::callpath::CallPathId;
use vex_gpu::dim::Dim3;
use vex_gpu::hooks::{LaunchId, LaunchInfo};
use vex_gpu::ir::{InstrTableBuilder, MemSpace, Pc, ScalarType};
use vex_gpu::stream::StreamId;
use vex_gpu::timing::DeviceSpec;
use vex_trace::codec::{self, ColumnSet, DecodedBatch};
use vex_trace::container::{
    read_trace, read_trace_with, DecodeOptions, RecordedTrace, TraceFlags, TraceReader,
    TraceTail, TraceWriter,
};
use vex_trace::event::{Event, EventSink};
use vex_trace::{AccessRecord, CollectorStats};

/// Frame kind byte of v2 columnar batches (container layout, DESIGN.md §10).
const FRAME_BATCH_COLUMNAR: u8 = 8;

/// Thread counts every conformance check runs at. 1 exercises the
/// worker-pool path on the calling thread (combined with a projection);
/// 2 and 8 exercise real concurrency and oversubscription.
const THREADS: [usize; 3] = [1, 2, 8];

fn launch_info(id: u64) -> Arc<LaunchInfo> {
    let table = InstrTableBuilder::new()
        .load(Pc(0), ScalarType::F32, MemSpace::Global)
        .store(Pc(1), ScalarType::F32, MemSpace::Global)
        .build();
    Arc::new(LaunchInfo {
        launch: LaunchId(id),
        kernel_name: format!("kernel_{id}"),
        grid: Dim3 { x: 4, y: 2, z: 1 },
        block: Dim3 { x: 32, y: 1, z: 1 },
        shared_bytes: 0,
        context: CallPathId(0),
        stream: StreamId(0),
        instr_table: Arc::new(table),
    })
}

/// A deterministic record with every column varying, including the
/// shared/atomic flag bits.
fn varied_record(i: u64) -> AccessRecord {
    AccessRecord {
        pc: Pc((i % 5) as u32),
        addr: 0x1_0000 + i * 8 + (i % 3),
        bits: i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        size: [1u8, 2, 4, 8][(i % 4) as usize],
        is_store: i.is_multiple_of(2),
        space: if i.is_multiple_of(7) { MemSpace::Shared } else { MemSpace::Global },
        block: (i / 32) as u32,
        thread: (i % 32) as u32,
        is_atomic: i.is_multiple_of(11),
    }
}

/// Writes a trace whose `batches[k]` becomes launch `k`'s one record
/// batch. Both passes are flagged, so coarse-only replays (the
/// `ColumnSet::NONE` walk) accept it too.
fn write_trace(batches: &[Vec<AccessRecord>]) -> Vec<u8> {
    let writer = TraceWriter::new(
        Vec::new(),
        &DeviceSpec::test_small(),
        TraceFlags { coarse: true, fine: true },
    )
    .expect("header writes");
    for (k, records) in batches.iter().enumerate() {
        let info = launch_info(k as u64);
        writer.on_event(&Event::LaunchBegin { info: info.clone() });
        writer
            .on_event(&Event::Batch { info: info.clone(), records: Arc::new(records.clone()) });
        writer.on_event(&Event::LaunchEnd { info });
    }
    writer.finish(&[], &CollectorStats::default(), 1.0).expect("trace finishes")
}

/// The record batches of a decoded trace, in stream order.
fn batch_records(trace: &RecordedTrace) -> Vec<Vec<AccessRecord>> {
    trace
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Batch { records, .. } => Some(records.as_ref().clone()),
            _ => None,
        })
        .collect()
}

/// One-word tags of the event sequence, for order comparisons.
fn event_kinds(trace: &RecordedTrace) -> Vec<&'static str> {
    trace
        .events
        .iter()
        .map(|e| match e {
            Event::Api { .. } => "api",
            Event::LaunchBegin { .. } => "begin",
            Event::Batch { .. } => "batch",
            Event::LaunchEnd { .. } => "end",
            Event::SkippedLaunch { .. } => "skipped",
        })
        .collect()
}

/// Locates the frame of launch `launch_id`'s columnar batch inside the
/// raw trace bytes by searching for its (unique) encoded block. Returns
/// `(frame_start, payload_len)`.
fn find_batch_frame(bytes: &[u8], launch_id: u64, records: &[AccessRecord]) -> (usize, usize) {
    assert!(launch_id < 128, "single-byte launch-id varint expected");
    let mut needle = vec![launch_id as u8];
    needle.extend_from_slice(&codec::encode_columnar_batch(records));
    let payload_start = bytes
        .windows(needle.len())
        .position(|w| w == needle.as_slice())
        .expect("batch payload occurs in the trace");
    let frame_start = payload_start.checked_sub(5).expect("frame head precedes payload");
    assert_eq!(bytes[frame_start], FRAME_BATCH_COLUMNAR, "found the columnar frame");
    let len = u32::from_le_bytes(bytes[frame_start + 1..frame_start + 5].try_into().unwrap())
        as usize;
    assert_eq!(len, needle.len(), "frame length covers exactly the payload");
    (frame_start, len)
}

/// Replaces the frame at `frame_start` (with payload length `old_len`)
/// by a frame of the same kind carrying `payload`.
fn replace_frame(bytes: &[u8], frame_start: usize, old_len: usize, payload: &[u8]) -> Vec<u8> {
    let mut out = bytes[..frame_start].to_vec();
    out.push(bytes[frame_start]);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&bytes[frame_start + 5 + old_len..]);
    out
}

/// Collects a streamed event sequence.
struct Collect(Mutex<Vec<Event>>);

impl EventSink for Collect {
    fn on_event(&self, event: &Event) {
        self.0.lock().expect("collector lock").push(event.clone());
    }
}

/// Streams `bytes` frame by frame under `columns`: the events
/// dispatched and the tail, or the error.
fn stream(
    bytes: &[u8],
    columns: ColumnSet,
) -> (Vec<Event>, Result<TraceTail, codec::DecodeError>) {
    let sink = Collect(Mutex::new(Vec::new()));
    let result = TraceReader::new(bytes).and_then(|mut reader| {
        reader.set_columns(columns);
        reader.dispatch(&sink)
    });
    (sink.0.into_inner().expect("collector lock"), result)
}

/// The ValueExpert configurations a streamed replay can take, each with
/// a different projection: coarse-only (`NONE`), fine, and the fine pass
/// widened by reuse distance or race detection.
fn replay_builders() -> Vec<ProfilerBuilder> {
    let fine = || ValueExpert::builder().coarse(true).fine(true);
    vec![
        ValueExpert::builder().coarse(true).fine(false),
        fine(),
        fine().reuse_distance(32),
        fine().race_detection(true),
    ]
}

/// Asserts that decoding `bytes` fails identically — same
/// [`vex_trace::codec::DecodeError`] value — sequentially and at every
/// worker-pool thread count, under full and empty projections; and that
/// the streaming path fails with `read_trace_with`'s error under every
/// projection, alone and inside a streamed replay.
fn assert_identical_decode_error(bytes: &[u8], expect_contains: &str) {
    let seq = read_trace(bytes).expect_err("sequential decode fails");
    assert!(seq.to_string().contains(expect_contains), "unexpected sequential error: {seq}");
    for threads in THREADS {
        for columns in [ColumnSet::ALL, ColumnSet::NONE] {
            let got = read_trace_with(bytes, &DecodeOptions { threads, columns })
                .expect_err("worker-pool decode fails");
            assert_eq!(seq, got, "error diverged at {threads} threads, columns {columns:?}");
        }
    }
    for columns in projections() {
        let want = read_trace_with(bytes, &DecodeOptions { threads: 1, columns })
            .expect_err("projected decode fails");
        let got = stream(bytes, columns).1.expect_err("stream fails");
        assert_eq!(want, got, "stream error diverged: {columns:?}");
    }
    for builder in replay_builders() {
        let want = read_trace_with(bytes, &builder.decode_options())
            .expect_err("projected decode fails");
        let columns = builder.required_columns();
        let reader = TraceReader::new(bytes).expect("header is intact");
        let got = builder.replay_reader(reader).expect_err("streamed replay fails");
        assert_eq!(
            ReplayError::Decode(want),
            got,
            "streamed replay error diverged: {columns:?}"
        );
    }
}

/// Field-by-field comparison of a projected record against the fully
/// decoded one: demanded columns equal, undemanded columns zero-filled.
fn assert_projected_record(full: &AccessRecord, got: &AccessRecord, cols: ColumnSet) {
    let pick = |c: ColumnSet| cols.contains(c);
    assert_eq!(got.pc, if pick(ColumnSet::PC) { full.pc } else { Pc(0) });
    assert_eq!(got.addr, if pick(ColumnSet::ADDR) { full.addr } else { 0 });
    assert_eq!(got.bits, if pick(ColumnSet::BITS) { full.bits } else { 0 });
    assert_eq!(got.size, if pick(ColumnSet::SIZE) { full.size } else { 0 });
    assert_eq!(got.block, if pick(ColumnSet::BLOCK) { full.block } else { 0 });
    assert_eq!(got.thread, if pick(ColumnSet::THREAD) { full.thread } else { 0 });
    if pick(ColumnSet::FLAGS) {
        assert_eq!(got.is_store, full.is_store);
        assert_eq!(got.space, full.space);
        assert_eq!(got.is_atomic, full.is_atomic);
    } else {
        assert!(!got.is_store && !got.is_atomic);
        assert_eq!(got.space, MemSpace::Global);
    }
}

/// Every projection worth testing: each single column, the empty and
/// full sets, and the composites the analysis passes actually declare.
fn projections() -> Vec<ColumnSet> {
    let mut sets = ColumnSet::EACH.to_vec();
    sets.push(ColumnSet::NONE);
    sets.push(ColumnSet::ALL);
    // Reuse-distance: addresses + flags.
    sets.push(ColumnSet::ADDR.union(ColumnSet::FLAGS));
    // GVProf replay: values + redundancy bookkeeping.
    sets.push(
        ColumnSet::ADDR.union(ColumnSet::BITS).union(ColumnSet::FLAGS).union(ColumnSet::BLOCK),
    );
    // Fine pass: everything except thread.
    sets.push(
        ColumnSet::PC
            .union(ColumnSet::ADDR)
            .union(ColumnSet::BITS)
            .union(ColumnSet::SIZE)
            .union(ColumnSet::FLAGS)
            .union(ColumnSet::BLOCK),
    );
    sets
}

// ---------------------------------------------------------------------------
// Projection conformance
// ---------------------------------------------------------------------------

/// Every projection, at every thread count, reconstructs the demanded
/// columns of every batch exactly and zero-fills the rest.
#[test]
fn every_projection_reconstructs_demanded_columns() {
    let batches: Vec<Vec<AccessRecord>> = vec![
        (0..200).map(varied_record).collect(),
        vec![],
        (200..450).map(varied_record).collect(),
        (450..451).map(varied_record).collect(),
    ];
    let bytes = write_trace(&batches);
    let full = read_trace(&bytes).expect("sequential decode");
    for cols in projections() {
        for threads in THREADS {
            let got = read_trace_with(&bytes, &DecodeOptions { threads, columns: cols })
                .unwrap_or_else(|e| panic!("decode at {threads} threads, {cols:?}: {e}"));
            assert_eq!(event_kinds(&full), event_kinds(&got));
            assert_eq!(got.stats, full.stats);
            assert_eq!(got.app_us, full.app_us);
            let full_batches = batch_records(&full);
            let got_batches = batch_records(&got);
            assert_eq!(full_batches.len(), got_batches.len());
            for (fb, gb) in full_batches.iter().zip(&got_batches) {
                assert_eq!(fb.len(), gb.len(), "batch length diverged under {cols:?}");
                for (fr, gr) in fb.iter().zip(gb) {
                    assert_projected_record(fr, gr, cols);
                }
            }
        }
    }
}

/// Streaming under every projection yields `read_trace_with`'s events
/// and tail — except that the `NONE` walk hands out empty record vectors
/// instead of zero-filled ones.
#[test]
fn streaming_matches_projected_decode() {
    let batches: Vec<Vec<AccessRecord>> = vec![
        (0..200).map(varied_record).collect(),
        vec![],
        (200..450).map(varied_record).collect(),
    ];
    let bytes = write_trace(&batches);
    for cols in projections() {
        let want = read_trace_with(&bytes, &DecodeOptions { threads: 1, columns: cols })
            .expect("projected decode");
        let (events, tail) = stream(&bytes, cols);
        let tail = tail.expect("stream decodes");
        let got = RecordedTrace { events, ..want.clone() };
        assert_eq!(event_kinds(&want), event_kinds(&got));
        assert_eq!((tail.stats, tail.app_us), (want.stats, want.app_us));
        assert_eq!(tail.contexts, want.contexts);
        if cols == ColumnSet::NONE {
            assert!(batch_records(&got).iter().all(Vec::is_empty), "NONE allocates records");
        } else {
            assert_eq!(batch_records(&want), batch_records(&got), "{cols:?}");
        }
    }
}

// The codec-level projected entry point agrees with the full decoder
// column by column, for arbitrary record batches and every projection.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn prop_projected_codec_matches_full_decode(
        records in prop::collection::vec(arb_record(), 0..120),
    ) {
        let encoded = codec::encode_columnar_batch(&records);
        let full = DecodedBatch::from_records(&records);
        for cols in projections() {
            let got = codec::decode_columnar_batch_projected(&encoded, cols)
                .expect("valid batch decodes under any projection");
            prop_assert_eq!(got.count, records.len());
            let empty: &[u64] = &[];
            if cols.contains(ColumnSet::PC) {
                prop_assert_eq!(&got.pcs, &full.pcs);
            } else {
                prop_assert!(got.pcs.is_empty());
            }
            if cols.contains(ColumnSet::ADDR) {
                prop_assert_eq!(&got.addrs, &full.addrs);
            } else {
                prop_assert_eq!(got.addrs.as_slice(), empty);
            }
            if cols.contains(ColumnSet::BITS) {
                prop_assert_eq!(&got.bits, &full.bits);
            } else {
                prop_assert_eq!(got.bits.as_slice(), empty);
            }
            if cols.contains(ColumnSet::SIZE) {
                prop_assert_eq!(&got.sizes, &full.sizes);
            } else {
                prop_assert!(got.sizes.is_empty());
            }
            if cols.contains(ColumnSet::FLAGS) {
                prop_assert_eq!(&got.flags, &full.flags);
            } else {
                prop_assert!(got.flags.is_empty());
            }
            if cols.contains(ColumnSet::BLOCK) {
                prop_assert_eq!(&got.blocks, &full.blocks);
            } else {
                prop_assert!(got.blocks.is_empty());
            }
            if cols.contains(ColumnSet::THREAD) {
                prop_assert_eq!(&got.threads, &full.threads);
            } else {
                prop_assert!(got.threads.is_empty());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parallel-decode conformance
// ---------------------------------------------------------------------------

fn arb_record() -> impl Strategy<Value = AccessRecord> {
    (
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
        1u8..=8,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<u32>(),
        any::<u32>(),
    )
        .prop_map(|(pc, addr, bits, size, store, shared, atomic, block, thread)| {
            AccessRecord {
                pc: Pc(pc),
                addr,
                bits,
                size,
                is_store: store,
                space: if shared { MemSpace::Shared } else { MemSpace::Global },
                block,
                thread,
                is_atomic: atomic,
            }
        })
}

// Arbitrary event streams round-trip through the container and decode
// identically on the worker pool at every thread count.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn prop_parallel_decode_matches_sequential(
        batches in prop::collection::vec(prop::collection::vec(arb_record(), 0..60), 0..6),
    ) {
        let bytes = write_trace(&batches);
        let seq = read_trace(&bytes).expect("sequential decode");
        prop_assert_eq!(batch_records(&seq).as_slice(), batches.as_slice());
        for threads in THREADS {
            let got = read_trace_with(
                &bytes,
                &DecodeOptions { threads, columns: ColumnSet::ALL },
            )
            .expect("parallel decode");
            prop_assert_eq!(event_kinds(&seq), event_kinds(&got));
            prop_assert_eq!(batch_records(&seq), batch_records(&got));
            prop_assert_eq!(seq.stats, got.stats);
            prop_assert_eq!(seq.app_us, got.app_us);
            prop_assert_eq!(seq.batch_bytes, got.batch_bytes);
        }
    }
}

/// Parallel decode preserves `Arc<LaunchInfo>` identity between a
/// launch's begin/batch/end events — the GVProf replayer matches
/// batches to launches by pointer.
#[test]
fn parallel_decode_preserves_launch_identity() {
    let batches: Vec<Vec<AccessRecord>> =
        (0..3).map(|k| (k * 10..k * 10 + 10).map(varied_record).collect()).collect();
    let bytes = write_trace(&batches);
    let trace = read_trace_with(&bytes, &DecodeOptions { threads: 8, columns: ColumnSet::ALL })
        .expect("parallel decode");
    let mut current: Option<Arc<LaunchInfo>> = None;
    for event in &trace.events {
        match event {
            Event::LaunchBegin { info } => current = Some(info.clone()),
            Event::Batch { info, .. } | Event::LaunchEnd { info } => {
                let begin = current.as_ref().expect("begin precedes batch/end");
                assert!(Arc::ptr_eq(begin, info), "launch Arc identity lost");
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Corruption conformance
// ---------------------------------------------------------------------------

/// A mid-stream batch whose record count exceeds the limit fails with
/// the sequential reader's exact error at every thread count — even
/// under an empty projection (the count check is structural).
#[test]
fn oversized_count_mid_stream_fails_identically() {
    let batches: Vec<Vec<AccessRecord>> =
        (0..3).map(|k| (k * 20..k * 20 + 20).map(varied_record).collect()).collect();
    let bytes = write_trace(&batches);
    let (frame_start, len) = find_batch_frame(&bytes, 1, &batches[1]);
    // launch-id varint 1, then a count far past MAX_BATCH_RECORDS.
    let mut payload = vec![1u8];
    codec::write_uvarint(&mut payload, 1 << 40);
    let corrupt = replace_frame(&bytes, frame_start, len, &payload);
    assert_identical_decode_error(&corrupt, "record count exceeds limit");
}

/// Trailing bytes after a mid-stream batch's columns fail identically.
#[test]
fn trailing_bytes_mid_stream_fail_identically() {
    let batches: Vec<Vec<AccessRecord>> =
        (0..3).map(|k| (k * 20..k * 20 + 20).map(varied_record).collect()).collect();
    let bytes = write_trace(&batches);
    let (frame_start, len) = find_batch_frame(&bytes, 1, &batches[1]);
    let mut payload = bytes[frame_start + 5..frame_start + 5 + len].to_vec();
    payload.push(0xEE);
    let corrupt = replace_frame(&bytes, frame_start, len, &payload);
    assert_identical_decode_error(&corrupt, "trailing bytes after columnar batch");
}

/// A trace truncated inside a batch frame fails identically (the walk
/// reports the cut; queued earlier batches never leak out half-decoded).
#[test]
fn truncation_mid_batch_fails_identically() {
    let batches: Vec<Vec<AccessRecord>> =
        (0..3).map(|k| (k * 20..k * 20 + 20).map(varied_record).collect()).collect();
    let bytes = write_trace(&batches);
    let (frame_start, len) = find_batch_frame(&bytes, 2, &batches[2]);
    assert!(len > 8);
    let cut = &bytes[..frame_start + 5 + len / 2];
    assert_identical_decode_error(cut, "ends mid-frame");
}

/// A trace whose captures miss bytes the coarse pass needs fails whole —
/// no panic, no abort, no partial report — on every replay path: decode
/// then replay (synchronous and sharded engines), the streamed
/// `replay_reader`, and `vex replay`. An allocation its capture does not
/// cover is refused by the decoder before anything is sized for it; a
/// kernel write range with no captured segment decodes and fails in the
/// coarse pass.
#[test]
fn capture_gaps_fail_every_replay_path() {
    let dir = std::env::temp_dir().join(format!("vex-capture-gap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let mut builders = replay_builders();
    builders.push(ValueExpert::builder().coarse(true).fine(false).analysis_shards(2));
    for (name, bytes) in capture_gap_traces() {
        let want = match read_trace(&bytes) {
            Ok(_) => {
                assert_eq!(name, "kernel-gap");
                ReplayError::CaptureGap(CaptureGap { seq: 1, addr: 256, len: 256 })
            }
            Err(e) => {
                assert!(e.to_string().contains("allocation not covered by its capture"), "{e}");
                ReplayError::Decode(e)
            }
        };
        for builder in &builders {
            let materialized = read_trace_with(&bytes, &builder.decode_options())
                .map_err(ReplayError::Decode)
                .and_then(|trace| builder.clone().replay(&trace));
            assert_eq!(materialized.expect_err("materialized replay fails"), want, "{name}");
            let reader = TraceReader::new(bytes.as_slice()).expect("header is intact");
            let streamed = builder.clone().replay_reader(reader);
            assert_eq!(streamed.expect_err("streamed replay fails"), want, "{name}");
        }
        let path = dir.join(format!("{name}.vex")).display().to_string();
        std::fs::write(&path, &bytes).expect("write trace");
        let cmd = parse_args(["replay", path.as_str()]).expect("replay command parses");
        let mut out = Vec::new();
        let err = run(&cmd, &mut out).expect_err("vex replay fails");
        assert_eq!(err.0, format!("cannot read trace '{path}': {want}"));
        assert!(out.is_empty(), "{name}: partial report {}", String::from_utf8_lossy(&out));
    }
    std::fs::remove_dir_all(&dir).ok();
}

// Corruption anywhere in a trace never panics or hangs the worker
// pool: decode returns `Ok` or a clean error at every thread count.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn prop_corruption_never_panics_worker_pool(
        batches in prop::collection::vec(prop::collection::vec(arb_record(), 1..30), 1..4),
        index in 0usize..1 << 16,
        value in any::<u8>(),
        cut in 0usize..1 << 17,
    ) {
        let mut bytes = write_trace(&batches);
        let index = index % bytes.len();
        bytes[index] = value;
        if cut < 1 << 16 {
            bytes.truncate(cut % (bytes.len() + 1));
        }
        let seq = read_trace(&bytes);
        for threads in THREADS {
            let got = read_trace_with(
                &bytes,
                &DecodeOptions { threads, columns: ColumnSet::ALL },
            );
            // Full projection on the pool must agree with the
            // sequential reader, success or failure.
            match (&seq, &got) {
                (Ok(a), Ok(b)) => prop_assert_eq!(batch_records(a), batch_records(b)),
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                _ => prop_assert!(false, "outcome diverged: {:?} vs {:?}",
                    seq.as_ref().map(|_| ()), got.as_ref().map(|_| ())),
            }
        }
    }
}

// Corruption anywhere in a trace never panics a streamed replay, and the
// outcome matches decoding first and replaying the materialized trace.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn prop_corruption_never_panics_streamed_replay(
        batches in prop::collection::vec(prop::collection::vec(arb_record(), 1..30), 1..4),
        index in 0usize..1 << 16,
        value in any::<u8>(),
        cut in 0usize..1 << 17,
        coarse_only in any::<bool>(),
    ) {
        let mut bytes = write_trace(&batches);
        let index = index % bytes.len();
        bytes[index] = value;
        if cut < 1 << 16 {
            bytes.truncate(cut % (bytes.len() + 1));
        }
        // A corrupt header fails before any replay starts.
        let Ok(flags) = TraceReader::new(bytes.as_slice()).map(|r| r.flags()) else {
            return;
        };
        let builder = ValueExpert::builder()
            .coarse(flags.coarse)
            .fine(flags.fine && !(coarse_only && flags.coarse));
        let want = read_trace_with(&bytes, &builder.decode_options())
            .map_err(ReplayError::Decode)
            .and_then(|trace| builder.clone().replay(&trace))
            .map(|p| p.render_text());
        let reader = TraceReader::new(bytes.as_slice()).expect("header decoded above");
        let got = builder.replay_reader(reader).map(|p| p.render_text());
        prop_assert_eq!(want, got);
    }
}
