//! Decode-conformance suite for the projected columnar decode path.
//!
//! Every decode goes through one [`TraceReader`], which may project the
//! v2 container's batch frames onto a [`ColumnSet`]. This suite pins
//! the conformance contract:
//!
//! * any projection ([`read_trace_with`]) reconstructs the demanded
//!   columns exactly and zero-fills the rest, one row per record even
//!   under [`ColumnSet::NONE`];
//! * corrupt or truncated batches mid-stream surface the *same*
//!   [`DecodeError`] the full decode ([`read_trace`]) reports, under
//!   every projection, with no partially-decoded trace leaking out;
//! * the streaming paths — [`TraceReader::set_columns`] +
//!   [`TraceReader::dispatch`], [`ProfilerBuilder::replay_reader`] and
//!   `vex_gvprof::replay` on top — yield the same events and fail with
//!   the same error as [`read_trace_with`] under the same projection,
//!   keep launch identity, and never panic on corrupt input;
//! * a trace whose captures miss bytes the coarse pass needs fails with
//!   an error on every replay path, the CLI included;
//! * the skip walk — batch frames no pass reads, passed over in the
//!   input instead of read — gives the same error and the same
//!   `records_scanned` over every input (slice, cursor, file, buffered
//!   file) and through every path that takes it: the coarse-only
//!   streamed replay, the index scan, and `read_trace_with` under
//!   [`ColumnSet::NONE`].

use proptest::prelude::*;
use std::fs::File;
use std::io::{BufReader, Cursor};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
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
use vex_gvprof::GvProfReplayError;
use vex_trace::codec::{self, ColumnSet, DecodedBatch};
use vex_trace::container::{
    read_trace, read_trace_with, DecodeOptions, FormatVersion, RecordedTrace, TraceFlags,
    TraceInput, TraceReader, TraceTail, TraceWriter,
};
use vex_trace::event::{Event, EventSink};
use vex_trace::index::{index_trace, index_trace_file};
use vex_trace::{AccessRecord, CollectorStats};

/// Frame kind byte of v2 columnar batches (container layout, DESIGN.md §10).
const FRAME_BATCH_COLUMNAR: u8 = 8;

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
    write_trace_v(batches, FormatVersion::V2)
}

/// [`write_trace`] in format `version`.
fn write_trace_v(batches: &[Vec<AccessRecord>], version: FormatVersion) -> Vec<u8> {
    let writer = TraceWriter::with_version(
        Vec::new(),
        &DeviceSpec::test_small(),
        TraceFlags { coarse: true, fine: true },
        version,
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
/// [`vex_trace::codec::DecodeError`] value — in full and under the empty
/// projection; and that the streaming path fails with
/// `read_trace_with`'s error under every projection, alone and inside a
/// streamed ValueExpert or GVProf replay.
///
/// Every skip path fails with that error too, its readers having counted
/// `records_before` records ([`assert_skip_paths`]).
fn assert_identical_decode_error(bytes: &[u8], expect_contains: &str, records_before: u64) {
    let full = read_trace(bytes).expect_err("full decode fails");
    assert!(full.to_string().contains(expect_contains), "unexpected error: {full}");
    assert_skip_paths(bytes, &Err(full.clone()), records_before);
    let none = read_trace_with(bytes, &DecodeOptions { columns: ColumnSet::NONE })
        .expect_err("empty projection fails");
    assert_eq!(full, none, "error diverged under the empty projection");
    for columns in projections() {
        let want = read_trace_with(bytes, &DecodeOptions { columns })
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
    let want = read_trace_with(bytes, &DecodeOptions { columns: vex_gvprof::REPLAY_COLUMNS })
        .expect_err("GVProf projection fails");
    let reader = TraceReader::new(bytes).expect("header is intact");
    let got = vex_gvprof::replay(reader, 1, 1).expect_err("streamed GVProf replay fails");
    assert_eq!(GvProfReplayError::Decode(want), got, "streamed GVProf error diverged");
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

/// Every projection reconstructs the demanded columns of every batch
/// exactly and zero-fills the rest.
#[test]
fn every_projection_reconstructs_demanded_columns() {
    let batches: Vec<Vec<AccessRecord>> = vec![
        (0..200).map(varied_record).collect(),
        vec![],
        (200..450).map(varied_record).collect(),
        (450..451).map(varied_record).collect(),
    ];
    let bytes = write_trace(&batches);
    let full = read_trace(&bytes).expect("full decode");
    for cols in projections() {
        let got = read_trace_with(&bytes, &DecodeOptions { columns: cols })
            .unwrap_or_else(|e| panic!("decode under {cols:?}: {e}"));
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
        let want = read_trace_with(&bytes, &DecodeOptions { columns: cols })
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
// Launch identity
// ---------------------------------------------------------------------------

/// Asserts that every batch/end event shares the `Arc<LaunchInfo>` of
/// its launch's begin event.
fn assert_launch_identity(events: &[Event]) {
    let mut current: Option<Arc<LaunchInfo>> = None;
    for event in events {
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

/// The reader hands a launch's begin, batch and end events one shared
/// `Arc<LaunchInfo>`, materialized or streamed, under the full and the
/// GVProf projection — the GVProf replayer matches batches to launches
/// by pointer.
#[test]
fn decode_preserves_launch_identity() {
    let batches: Vec<Vec<AccessRecord>> =
        (0..3).map(|k| (k * 10..k * 10 + 10).map(varied_record).collect()).collect();
    let bytes = write_trace(&batches);
    for columns in [ColumnSet::ALL, vex_gvprof::REPLAY_COLUMNS] {
        let trace = read_trace_with(&bytes, &DecodeOptions { columns }).expect("trace decodes");
        assert_launch_identity(&trace.events);
        let (events, tail) = stream(&bytes, columns);
        tail.expect("stream decodes");
        assert_launch_identity(&events);
    }
}

// ---------------------------------------------------------------------------
// Corruption conformance
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

/// A mid-stream batch whose record count exceeds the limit fails with
/// the full decode's exact error under every projection — even the
/// empty one (the count check is structural).
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
    assert_identical_decode_error(&corrupt, "record count exceeds limit", 20);
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
    assert_identical_decode_error(&corrupt, "trailing bytes after columnar batch", 20);
}

/// A trace truncated inside a batch frame fails identically (the reader
/// reports the cut; earlier batches never leak out half-decoded).
#[test]
fn truncation_mid_batch_fails_identically() {
    let batches: Vec<Vec<AccessRecord>> =
        (0..3).map(|k| (k * 20..k * 20 + 20).map(varied_record).collect()).collect();
    let bytes = write_trace(&batches);
    let (frame_start, len) = find_batch_frame(&bytes, 2, &batches[2]);
    assert!(len > 8);
    let cut = &bytes[..frame_start + 5 + len / 2];
    assert_identical_decode_error(cut, "ends mid-frame", 40);
}

/// A batch claiming the maximum 2^24 records over seven empty columns —
/// a few bytes posing as half a GiB of rows — fails as the truncated
/// varint the full decode reports, on every path: the full and projected
/// decodes (`NONE` included), the streamed replays (coarse-only
/// included), the skip-records index that `vex info` and the store use,
/// and a push into `vex serve`, which answers 400 and writes nothing.
#[test]
fn empty_columns_under_a_nonzero_count_fail_everywhere() {
    let batches: Vec<Vec<AccessRecord>> =
        (0..3).map(|k| (k * 20..k * 20 + 20).map(varied_record).collect()).collect();
    let bytes = write_trace(&batches);
    let (frame_start, len) = find_batch_frame(&bytes, 1, &batches[1]);
    let mut payload = vec![1u8];
    codec::write_uvarint(&mut payload, 1 << 24);
    payload.extend_from_slice(&[0; 7]);
    let corrupt = replace_frame(&bytes, frame_start, len, &payload);
    assert_identical_decode_error(&corrupt, "truncated varint", 20);

    let index = vex_trace::index::index_trace(corrupt.as_slice()).expect_err("index fails");
    assert!(matches!(index, codec::DecodeError::BadFrame { .. }), "{index:?}");
    assert!(index.to_string().contains("truncated varint"), "{index}");

    let dir = std::env::temp_dir().join(format!("vex-empty-columns-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("crafted.vex").display().to_string();
    std::fs::write(&path, &corrupt).expect("write trace");
    let mut out = Vec::new();
    run(&parse_args(["info", path.as_str()]).expect("info parses"), &mut out)
        .expect("a damaged trace with an intact prefix reports its salvage");
    let info = String::from_utf8(out).expect("utf8");
    assert!(info.contains("damaged trace") && info.contains("truncated varint"), "{info}");
    assert!(!info.contains("16777216"), "{info}");

    let served = dir.join("served");
    std::fs::create_dir_all(&served).expect("create store dir");
    let store = vex_serve::ProfileStore::load_dir(&served).expect("empty store loads");
    let state = vex_serve::ServeState::new(store, 0).with_ingest(true);
    let (request, _) = vex_serve::http::parse_request(b"POST /ingest/crafted HTTP/1.1\r\n\r\n")
        .expect("parse");
    let (_, response) = state.handle_with_body(&request, &corrupt);
    assert_eq!(response.status, vex_serve::Status::BadRequest);
    assert!(state.store().is_empty());
    assert_eq!(std::fs::read_dir(&served).expect("store dir").count(), 0, "nothing written");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Skip-walk conformance
// ---------------------------------------------------------------------------

/// `bytes` behind a pipe opened as a [`File`], which cannot seek, so the
/// reader reads the batch frames it skips.
#[cfg(unix)]
fn piped(bytes: &[u8]) -> File {
    use std::io::Write;
    let (reader, mut writer) = std::io::pipe().expect("pipe");
    let bytes = bytes.to_vec();
    // Ends with an error once a failed walk drops the read end early.
    std::thread::spawn(move || drop(writer.write_all(&bytes)));
    File::from(std::os::fd::OwnedFd::from(reader))
}

/// A fresh path under the system temp directory for one test file.
fn temp_trace_path() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("vex-skip-walk-{}-{n}.vex", std::process::id()))
}

/// Walks `input` frame by frame with the batch records undemanded —
/// skip mode, or the [`ColumnSet::NONE`] projection — to its end or
/// first error: the outcome, and the records the reader counted.
fn walk<R: TraceInput>(input: R, skip_mode: bool) -> (Result<(), codec::DecodeError>, u64) {
    let mut reader = TraceReader::new(input).expect("header is intact");
    if skip_mode {
        reader.set_skip_records(true);
    } else {
        reader.set_columns(ColumnSet::NONE);
    }
    loop {
        match reader.next_frame() {
            Ok(Some(_)) => {}
            Ok(None) => return (Ok(()), reader.records_scanned()),
            Err(e) => return (Err(e), reader.records_scanned()),
        }
    }
}

/// A coarse-only streamed replay of `input`: the `vex replay` path.
fn coarse_replay<R: TraceInput>(input: R) -> Result<(), ReplayError> {
    let reader = TraceReader::new(input).expect("header is intact");
    ValueExpert::builder().coarse(true).fine(false).replay_reader(reader).map(drop)
}

/// Asserts that every path skipping the batch records of `bytes` ends
/// with `want`: raw reader walks in skip mode and (v2 only, as `NONE`
/// decodes v1 batches in full) under `NONE` over a slice, a cursor, a
/// file and a buffered file, each having counted `records` records; the
/// coarse-only `replay_reader` over a slice and a buffered file;
/// `index_trace` over a slice and `index_trace_file`; and (v2)
/// `read_trace_with(_, NONE)`.
fn assert_skip_paths(bytes: &[u8], want: &Result<(), codec::DecodeError>, records: u64) {
    let path = temp_trace_path();
    std::fs::write(&path, bytes).expect("write trace");
    let open = |p: &Path| File::open(p).expect("open trace");
    let expected = (want.clone(), records);
    let v2 = TraceReader::new(bytes).expect("header is intact").version() >= 2;
    for skip_mode in [true, false].into_iter().filter(|&skip_mode| skip_mode || v2) {
        assert_eq!(walk(bytes, skip_mode), expected, "slice, skip mode {skip_mode}");
        assert_eq!(walk(Cursor::new(bytes), skip_mode), expected, "cursor, {skip_mode}");
        assert_eq!(walk(open(&path), skip_mode), expected, "file, skip mode {skip_mode}");
        let buffered = BufReader::new(open(&path));
        assert_eq!(walk(buffered, skip_mode), expected, "buffered file, {skip_mode}");
        #[cfg(unix)]
        assert_eq!(walk(piped(bytes), skip_mode), expected, "pipe, skip mode {skip_mode}");
    }
    #[cfg(unix)]
    {
        let replayed = want.clone().map_err(ReplayError::Decode);
        let piped_replay = coarse_replay(BufReader::new(piped(bytes)));
        assert_eq!(piped_replay, replayed, "coarse-only replay, pipe");
        assert_eq!(&index_trace(BufReader::new(piped(bytes))).map(drop), want, "index, pipe");
    }
    let replayed = want.clone().map_err(ReplayError::Decode);
    assert_eq!(coarse_replay(bytes), replayed, "coarse-only replay, slice");
    assert_eq!(
        coarse_replay(BufReader::new(open(&path))),
        replayed,
        "coarse-only replay, file"
    );
    assert_eq!(&index_trace(bytes).map(drop), want, "index_trace");
    assert_eq!(&index_trace_file(&path).map(drop), want, "index_trace_file");
    if v2 {
        let none = read_trace_with(bytes, &DecodeOptions { columns: ColumnSet::NONE });
        assert_eq!(&none.map(drop), want, "read_trace_with(_, NONE)");
    }
    std::fs::remove_file(&path).ok();
}

/// The three 20-record batches the skip-walk tests corrupt, and their
/// v2 trace.
fn three_batches() -> (Vec<Vec<AccessRecord>>, Vec<u8>) {
    let batches: Vec<Vec<AccessRecord>> =
        (0..3).map(|k| (k * 20..k * 20 + 20).map(varied_record).collect()).collect();
    let bytes = write_trace(&batches);
    (batches, bytes)
}

/// A clean trace walks to its end on every skip path, in both formats,
/// counting every record, and `read_trace_with(_, NONE)` keeps one row
/// per record.
#[test]
fn clean_trace_takes_every_skip_path() {
    let (batches, bytes) = three_batches();
    read_trace(&bytes).expect("full decode");
    assert_skip_paths(&bytes, &Ok(()), 60);
    let none = read_trace_with(&bytes, &DecodeOptions { columns: ColumnSet::NONE })
        .expect("empty projection decodes");
    let rows: Vec<usize> = batch_records(&none).iter().map(Vec::len).collect();
    assert_eq!(rows, batches.iter().map(Vec::len).collect::<Vec<_>>());
    let v1 = write_trace_v(&batches, FormatVersion::V1);
    read_trace(&v1).expect("full decode");
    assert_skip_paths(&v1, &Ok(()), 60);
}

/// A cut at every byte of a batch frame — its head, its prefixes, and
/// inside a column body the skip walk never reads — fails as the
/// truncated frame at the frame's offset on every skip path, having
/// counted the earlier batches' records; v1 fixed-record frames too.
#[test]
fn cut_at_every_byte_of_a_batch_frame_fails_identically_on_every_skip_path() {
    let (batches, bytes) = three_batches();
    let (frame_start, len) = find_batch_frame(&bytes, 1, &batches[1]);
    for cut in frame_start..frame_start + 5 + len {
        let want = Err(codec::DecodeError::TruncatedFrame { offset: frame_start as u64 });
        assert_eq!(read_trace(&bytes[..cut]).map(drop), want, "cut at {cut}");
        assert_skip_paths(&bytes[..cut], &want, 20);
    }

    let v1 = write_trace_v(&batches, FormatVersion::V1);
    let index = index_trace(v1.as_slice()).expect("v1 trace indexes");
    let frame = index
        .frames
        .iter()
        .filter(|f| f.kind == vex_trace::index::FrameKind::Batch)
        .nth(1)
        .expect("second batch frame");
    for cut in [frame.offset, frame.offset + 4, frame.offset + 13, frame.end() - 1] {
        let want = Err(codec::DecodeError::TruncatedFrame { offset: frame.offset });
        assert_eq!(read_trace(&v1[..cut as usize]).map(drop), want, "v1 cut at {cut}");
        assert_skip_paths(&v1[..cut as usize], &want, 20);
    }
}

/// A column length reaching past the batch payload fails the structural
/// walk on every path, the skip paths included.
#[test]
fn column_length_past_the_payload_fails_identically() {
    let (batches, bytes) = three_batches();
    let (frame_start, len) = find_batch_frame(&bytes, 1, &batches[1]);
    let payload = &bytes[frame_start + 5..frame_start + 5 + len];
    // launch-id varint, record-count varint, then the first column's
    // length prefix.
    let mut pos = 2;
    let first = codec::read_uvarint(payload, &mut pos).expect("first column length");
    let mut corrupt_payload = payload[..2].to_vec();
    codec::write_uvarint(&mut corrupt_payload, first + len as u64);
    corrupt_payload.extend_from_slice(&payload[pos..]);
    let corrupt = replace_frame(&bytes, frame_start, len, &corrupt_payload);
    assert_identical_decode_error(&corrupt, "column length exceeds payload", 20);
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

// Corruption anywhere in a trace never panics a streamed GVProf replay:
// it fails exactly when the GVProf projection fails to decode, with the
// same error.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn prop_corruption_never_panics_gvprof_replay(
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
        // A corrupt header fails before any replay starts.
        let Ok(reader) = TraceReader::new(bytes.as_slice()) else {
            return;
        };
        let fine = reader.flags().fine;
        let got = vex_gvprof::replay(reader, 1, 1).map(|_| ());
        let want = if fine {
            read_trace_with(&bytes, &DecodeOptions { columns: vex_gvprof::REPLAY_COLUMNS })
                .map(|_| ())
                .map_err(GvProfReplayError::Decode)
        } else {
            Err(GvProfReplayError::FineNotRecorded)
        };
        prop_assert_eq!(want, got);
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
        let got = builder.clone().replay_reader(reader).map(|p| p.render_text());
        prop_assert_eq!(&want, &got);
        // The same replay and the index scan over the file, as `vex
        // replay`, `vex info` and the server read it.
        let path = temp_trace_path();
        std::fs::write(&path, &bytes).expect("write trace");
        let file = BufReader::new(File::open(&path).expect("open trace"));
        let reader = TraceReader::new(file).expect("header decoded above");
        let from_file = builder.replay_reader(reader).map(|p| p.render_text());
        let indexed = (index_trace(bytes.as_slice()), index_trace_file(&path));
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(want, from_file);
        prop_assert_eq!(indexed.0, indexed.1);
    }
}
