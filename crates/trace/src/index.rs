//! Frame-offset index: a metadata-only view of a `.vex` trace on disk.
//!
//! The serving tier wants to know *what* a trace contains (summary
//! counts, objects, kernels) long before it needs the decoded event
//! stream — and for a fleet-scale store, most traces are never decoded
//! at all. [`index_trace`] walks a trace once in the reader's
//! skip-records scan mode ([`TraceReader::set_skip_records`]): every
//! frame is validated structurally and its byte extent recorded, but no
//! batch payload is read into memory — the walk reads each batch's
//! launch id, record count and column length prefixes and seeks past
//! the column bodies — so indexing costs frames, not records or batch
//! bytes. The result pairs a full
//! [`TraceSummary`] — this scan is the only place summaries are
//! computed — with per-frame byte offsets; a later full decode goes
//! through [`crate::container::read_trace_file`].
//!
//! [`index_trace_with`] additionally yields each scanned frame to a
//! visitor, so a caller can fold its own per-trace views (object
//! tables, kernel tables) out of the same single pass without retaining
//! the event stream.

use crate::codec::DecodeError;
use crate::container::{TraceFrame, TraceInput, TraceReader};
use crate::event::Event;
use crate::summary::TraceSummary;
use vex_gpu::hooks::ApiKind;

/// What kind of frame a [`FrameEntry`] indexes. Batch frames cover both
/// the v1 fixed-record and v2 columnar encodings — the index does not
/// distinguish them, the summary's `version` does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// An API event (malloc/free/copy/memset/kernel-launch).
    Api,
    /// An instrumented launch begins.
    LaunchBegin,
    /// A fine-grained record batch.
    Batch,
    /// An instrumented launch ends.
    LaunchEnd,
    /// A launch skipped by sampling/filtering.
    SkippedLaunch,
    /// The interned call-path table.
    Contexts,
    /// The trailer; always the last frame of a complete trace.
    Finish,
}

/// Byte extent of one frame, from the single skip-records scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameEntry {
    /// Byte offset of the frame's `[kind][len]` header in the file.
    pub offset: u64,
    /// Frame kind.
    pub kind: FrameKind,
    /// Total encoded size of the frame (header + payload), bytes.
    pub bytes: u64,
    /// Fine-grained records the frame carries (batch frames; 0 for all
    /// others).
    pub records: u64,
}

impl FrameEntry {
    /// Byte offset one past the end of the frame.
    pub fn end(&self) -> u64 {
        self.offset + self.bytes
    }
}

/// A metadata-only open of a `.vex` trace: summary counts plus the
/// per-frame byte layout, built by one skip-records scan. Holding a
/// `TraceIndex` costs a few dozen bytes per frame — never a function of
/// the record count — which is what lets a server keep *every* trace of
/// a large directory indexed while decoding only the handful under
/// active query.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceIndex {
    /// Header fields and per-event-type counts.
    pub summary: TraceSummary,
    /// Every frame's byte extent, in stream order. The last entry is
    /// always the `Finish` trailer.
    pub frames: Vec<FrameEntry>,
    /// Total encoded size of the trace (container header + frames).
    pub encoded_bytes: u64,
}

impl TraceIndex {
    /// A conservative estimate of the trace's decoded in-memory
    /// footprint, bytes — the budget charge a store should expect
    /// *before* paying for the full decode.
    pub fn decoded_bytes_estimate(&self) -> u64 {
        // Records dominate: one 32-byte device record decodes to a
        // padded in-memory struct (~48 bytes). Everything else
        // (events, contexts, capture segments) is bounded by its
        // encoded size times a small expansion factor.
        self.summary.records * 48
            + self.encoded_bytes.saturating_sub(self.summary.batch_bytes) * 2
    }
}

/// Indexes a complete trace stream: a byte slice, a file, or a
/// buffered file ([`TraceInput`]).
///
/// Every non-batch frame is decoded and checked in full. Batch frames
/// take the reader's skip walk ([`TraceReader::set_skip_records`]): the
/// frame must lie inside the input, and its launch id, record count and
/// column length prefixes must be well formed (a declared launch, a
/// count within the limit, no empty column under a nonzero count,
/// columns inside the payload, no trailing bytes), but the column
/// bodies are skipped unread. Corruption confined to a column body is
/// therefore not detected here; a replay that demands the column
/// reports it.
///
/// # Errors
///
/// Any [`DecodeError`] the reader surfaces; a trace without its
/// `Finish` trailer is [`DecodeError::TruncatedFrame`].
pub fn index_trace<R: TraceInput>(input: R) -> Result<TraceIndex, DecodeError> {
    index_trace_with(input, |_, _| {})
}

/// [`index_trace`], additionally yielding each `(entry, frame)` pair to
/// `visit` in stream order. Batch frames arrive with empty record
/// vectors (scan mode); their counts are in the entry.
///
/// # Errors
///
/// As [`index_trace`].
pub fn index_trace_with<R: TraceInput>(
    input: R,
    mut visit: impl FnMut(&FrameEntry, &TraceFrame),
) -> Result<TraceIndex, DecodeError> {
    let mut reader = TraceReader::new(input)?;
    reader.set_skip_records(true);
    let mut summary = TraceSummary {
        version: reader.version(),
        flags: reader.flags(),
        device: reader.spec().name.clone(),
        ..TraceSummary::default()
    };
    let mut frames = Vec::new();
    loop {
        let start = reader.offset();
        let scanned = reader.records_scanned();
        let Some(frame) = reader.next_frame()? else { break };
        let kind = match &frame {
            TraceFrame::Event(event) => match event {
                Event::Api { event, .. } => {
                    summary.api_events += 1;
                    if matches!(event.kind, ApiKind::KernelLaunch { .. }) {
                        summary.kernel_launches += 1;
                    }
                    FrameKind::Api
                }
                Event::LaunchBegin { .. } => {
                    summary.instrumented_launches += 1;
                    FrameKind::LaunchBegin
                }
                Event::SkippedLaunch { .. } => {
                    summary.skipped_launches += 1;
                    FrameKind::SkippedLaunch
                }
                Event::Batch { .. } => {
                    summary.batches += 1;
                    FrameKind::Batch
                }
                Event::LaunchEnd { .. } => FrameKind::LaunchEnd,
            },
            TraceFrame::Contexts(map) => {
                summary.contexts = map.len() as u64;
                FrameKind::Contexts
            }
            TraceFrame::Finish { stats, app_us } => {
                summary.stats = *stats;
                summary.app_us = *app_us;
                FrameKind::Finish
            }
        };
        let entry = FrameEntry {
            offset: start,
            kind,
            bytes: reader.offset() - start,
            records: reader.records_scanned() - scanned,
        };
        visit(&entry, &frame);
        frames.push(entry);
    }
    summary.records = reader.records_scanned();
    summary.batch_bytes = reader.batch_bytes();
    Ok(TraceIndex { summary, frames, encoded_bytes: reader.offset() })
}

/// Indexes a trace file.
///
/// # Errors
///
/// [`DecodeError::Io`] if the file cannot be opened, otherwise as
/// [`index_trace`].
pub fn index_trace_file(path: &std::path::Path) -> Result<TraceIndex, DecodeError> {
    let file = std::fs::File::open(path)?;
    index_trace(std::io::BufReader::new(file))
}

/// [`index_trace_with`] over a trace file.
///
/// # Errors
///
/// As [`index_trace_file`].
pub fn index_trace_file_with(
    path: &std::path::Path,
    visit: impl FnMut(&FrameEntry, &TraceFrame),
) -> Result<TraceIndex, DecodeError> {
    let file = std::fs::File::open(path)?;
    index_trace_with(std::io::BufReader::new(file), visit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::{read_trace, TraceFlags, TraceWriter};
    use crate::event::EventSink;
    use crate::{AccessRecord, CollectorStats};
    use std::sync::Arc;
    use vex_gpu::alloc::AllocationInfo;
    use vex_gpu::callpath::CallPathId;
    use vex_gpu::dim::Dim3;
    use vex_gpu::hooks::{ApiEvent, CapturedView, LaunchId, LaunchInfo};
    use vex_gpu::ir::{InstrTableBuilder, MemSpace, Pc, ScalarType};
    use vex_gpu::stream::StreamId;
    use vex_gpu::timing::DeviceSpec;

    fn launch_info(id: u64) -> Arc<LaunchInfo> {
        let table =
            InstrTableBuilder::new().store(Pc(0), ScalarType::F32, MemSpace::Global).build();
        Arc::new(LaunchInfo {
            launch: LaunchId(id),
            kernel_name: format!("k{id}"),
            grid: Dim3::linear(1),
            block: Dim3::linear(32),
            shared_bytes: 0,
            context: CallPathId(0),
            stream: StreamId(0),
            instr_table: Arc::new(table),
        })
    }

    fn record(i: u64) -> AccessRecord {
        AccessRecord {
            pc: Pc(0),
            addr: 4096 + i * 4,
            bits: i,
            size: 4,
            is_store: true,
            space: MemSpace::Global,
            block: 0,
            thread: i as u32,
            is_atomic: false,
        }
    }

    fn sample_trace_bytes() -> Vec<u8> {
        let spec = DeviceSpec::test_small();
        let writer =
            TraceWriter::new(Vec::new(), &spec, TraceFlags { coarse: true, fine: true })
                .unwrap();
        let info = launch_info(0);
        let alloc = AllocationInfo {
            id: vex_gpu::alloc::AllocId(1),
            addr: 4096,
            size: 256,
            label: "buf".into(),
            context: CallPathId(1),
            live: true,
        };
        writer.on_event(&Event::Api {
            event: ApiEvent {
                seq: 0,
                kind: ApiKind::Malloc { info: alloc },
                context: CallPathId(1),
                stream: StreamId(0),
            },
            kernel: None,
            captured: Arc::new(CapturedView::from_segments(vec![(4096, vec![0; 256])])),
        });
        writer.on_event(&Event::LaunchBegin { info: info.clone() });
        writer.on_event(&Event::Batch {
            info: info.clone(),
            records: Arc::new((0..5).map(record).collect()),
        });
        writer.on_event(&Event::Batch {
            info: info.clone(),
            records: Arc::new((0..3).map(record).collect()),
        });
        writer.on_event(&Event::LaunchEnd { info });
        writer.on_event(&Event::SkippedLaunch { info: launch_info(1) });
        let stats = CollectorStats { events: 8, ..CollectorStats::default() };
        writer.finish(&[(CallPathId(0), "<root>".into())], &stats, 42.5).unwrap()
    }

    #[test]
    fn index_summary_matches_streaming_summary() {
        let bytes = sample_trace_bytes();
        let index = index_trace(&bytes[..]).unwrap();
        let trace = read_trace(&bytes).unwrap();
        let batches: Vec<u64> = trace
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Batch { records, .. } => Some(records.len() as u64),
                _ => None,
            })
            .collect();
        assert_eq!(index.summary.batches, batches.len() as u64);
        assert_eq!(index.summary.records, batches.iter().sum::<u64>());
        assert_eq!(index.summary.batch_bytes, trace.batch_bytes);
        assert_eq!(index.summary.stats, trace.stats);
        assert_eq!(index.encoded_bytes, bytes.len() as u64);
        assert!(index.decoded_bytes_estimate() >= index.summary.records * 32);
    }

    #[test]
    fn frames_tile_the_file_and_count_records() {
        let bytes = sample_trace_bytes();
        let index = index_trace(&bytes[..]).unwrap();
        // Contiguous extents: each frame starts where the previous ended.
        let mut cursor = index.frames.first().expect("frames present").offset;
        for f in &index.frames {
            assert_eq!(f.offset, cursor, "{f:?}");
            assert!(f.bytes > 0);
            cursor = f.end();
        }
        assert_eq!(cursor, bytes.len() as u64);
        assert_eq!(index.frames.last().unwrap().kind, FrameKind::Finish);
        // Per-frame record counts roll up to the summary.
        let batch_records: u64 =
            index.frames.iter().filter(|f| f.kind == FrameKind::Batch).map(|f| f.records).sum();
        assert_eq!(batch_records, index.summary.records);
        assert_eq!(batch_records, 8);
        assert!(index.frames.iter().all(|f| f.kind == FrameKind::Batch || f.records == 0));
        let kinds: Vec<FrameKind> = index.frames.iter().map(|f| f.kind).collect();
        assert_eq!(
            kinds,
            vec![
                FrameKind::Api,
                FrameKind::LaunchBegin,
                FrameKind::Batch,
                FrameKind::Batch,
                FrameKind::LaunchEnd,
                FrameKind::SkippedLaunch,
                FrameKind::Contexts,
                FrameKind::Finish,
            ]
        );
    }

    #[test]
    fn visitor_sees_every_frame_in_order() {
        let bytes = sample_trace_bytes();
        let mut seen = Vec::new();
        let index = index_trace_with(&bytes[..], |entry, frame| {
            seen.push((entry.offset, matches!(frame, TraceFrame::Event(_))));
        })
        .unwrap();
        assert_eq!(seen.len(), index.frames.len());
        assert!(seen.windows(2).all(|w| w[0].0 < w[1].0));
        // Everything but Contexts/Finish is an event frame.
        assert_eq!(seen.iter().filter(|(_, is_event)| *is_event).count(), 6);
    }

    #[test]
    fn index_agrees_with_full_decode() {
        let bytes = sample_trace_bytes();
        let index = index_trace(&bytes[..]).unwrap();
        let trace = read_trace(&bytes).unwrap();
        let batches =
            trace.events.iter().filter(|e| matches!(e, Event::Batch { .. })).count() as u64;
        assert_eq!(index.summary.batches, batches);
        assert_eq!(index.summary.batch_bytes, trace.batch_bytes);
        assert_eq!(index.summary.app_us, trace.app_us);
    }

    #[test]
    fn truncated_trace_indexes_to_error() {
        let bytes = sample_trace_bytes();
        for cut in 0..bytes.len() {
            assert!(index_trace(&bytes[..cut]).is_err(), "prefix of {cut} bytes indexed");
        }
    }
}
