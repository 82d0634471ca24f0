//! Trace summaries: header fields and per-event-type counts without
//! materializing the event stream.
//!
//! `vex info` prints a [`TraceSummary`], and `vex-serve` lists every
//! trace of its store with one. The summary comes out of the index scan
//! ([`crate::index::index_trace`]), which walks each frame exactly once
//! in skip-records mode and keeps only counters and frame extents: batch
//! frames are validated structurally but never read into memory (their
//! column bodies are skipped), so the cost tracks the frame count and
//! the non-batch frames rather than the record count, and it works on
//! traces far larger than memory would allow for a full
//! [`crate::container::RecordedTrace`].

use crate::container::TraceFlags;
use crate::CollectorStats;

/// Header fields and per-event-type counts of one `.vex` trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Container format version.
    pub version: u32,
    /// Which passes the recording session ran.
    pub flags: TraceFlags,
    /// Device preset name the trace was recorded against.
    pub device: String,
    /// API events (mallocs, frees, copies, memsets, kernel launches).
    pub api_events: u64,
    /// Kernel-launch API events among [`TraceSummary::api_events`].
    pub kernel_launches: u64,
    /// Instrumented launches (`LaunchBegin` frames).
    pub instrumented_launches: u64,
    /// Launches skipped by sampling or filtering.
    pub skipped_launches: u64,
    /// Fine-grained record batches.
    pub batches: u64,
    /// Fine-grained access records across all batches.
    pub records: u64,
    /// Interned call paths in the context table.
    pub contexts: u64,
    /// Encoded payload bytes of the record-batch frames; `records × 32`
    /// gives the uncompressed (v1 fixed-record) equivalent.
    pub batch_bytes: u64,
    /// Collector traffic counters of the recording session.
    pub stats: CollectorStats,
    /// Application time of the recorded run, µs.
    pub app_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::DecodeError;
    use crate::container::{read_trace, TraceWriter};
    use crate::event::{Event, EventSink};
    use crate::index::index_trace;
    use crate::AccessRecord;
    use std::sync::Arc;
    use vex_gpu::alloc::AllocationInfo;
    use vex_gpu::callpath::CallPathId;
    use vex_gpu::dim::Dim3;
    use vex_gpu::hooks::{ApiEvent, ApiKind, CapturedView, LaunchId, LaunchInfo};
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

    fn summarize(bytes: &[u8]) -> Result<TraceSummary, DecodeError> {
        index_trace(bytes).map(|index| index.summary)
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
        writer.on_event(&Event::LaunchEnd { info: info.clone() });
        writer.on_event(&Event::Api {
            event: ApiEvent {
                seq: 1,
                kind: ApiKind::KernelLaunch { launch: LaunchId(0), name: "k0".into() },
                context: CallPathId(2),
                stream: StreamId(0),
            },
            kernel: None,
            captured: Arc::new(CapturedView::new()),
        });
        writer.on_event(&Event::SkippedLaunch { info: launch_info(1) });
        let stats = CollectorStats { events: 8, ..CollectorStats::default() };
        writer
            .finish(
                &[(CallPathId(0), "<root>".into()), (CallPathId(1), "main".into())],
                &stats,
                42.5,
            )
            .unwrap()
    }

    #[test]
    fn summary_counts_every_event_type() {
        let bytes = sample_trace_bytes();
        let s = summarize(&bytes[..]).unwrap();
        assert_eq!(s.version, crate::container::TRACE_VERSION);
        assert_eq!(s.flags, TraceFlags { coarse: true, fine: true });
        assert_eq!(s.device, DeviceSpec::test_small().name);
        assert_eq!(s.api_events, 2);
        assert_eq!(s.kernel_launches, 1);
        assert_eq!(s.instrumented_launches, 1);
        assert_eq!(s.skipped_launches, 1);
        assert_eq!(s.batches, 2);
        assert_eq!(s.records, 8);
        assert_eq!(s.contexts, 2);
        assert!(s.batch_bytes > 0);
        assert!(s.batch_bytes < s.records * 32, "columnar batches should beat fixed records");
        assert_eq!(s.stats.events, 8);
        assert_eq!(s.app_us, 42.5);
    }

    #[test]
    fn summary_agrees_with_full_decode() {
        let bytes = sample_trace_bytes();
        let s = summarize(&bytes[..]).unwrap();
        let trace = read_trace(&bytes).unwrap();
        let batches =
            trace.events.iter().filter(|e| matches!(e, Event::Batch { .. })).count() as u64;
        assert_eq!(s.batches, batches);
        assert_eq!(s.contexts, trace.contexts.len() as u64);
        assert_eq!(s.app_us, trace.app_us);
        assert_eq!(s.version, trace.version);
        assert_eq!(s.batch_bytes, trace.batch_bytes);
    }

    #[test]
    fn truncated_trace_summarizes_to_error() {
        let bytes = sample_trace_bytes();
        for cut in 0..bytes.len() {
            assert!(summarize(&bytes[..cut]).is_err(), "prefix of {cut} bytes summarized");
        }
    }
}
