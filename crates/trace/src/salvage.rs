//! Trace salvage: recover the longest valid frame prefix of a
//! truncated or torn `.vex` container.
//!
//! The container is length-framed, so a recording cut short by a crash
//! — mid-frame, mid-payload, or cleanly at a frame boundary but before
//! the `Finish` trailer — still carries every frame written before the
//! cut. [`salvage_trace`] walks frames with [`TraceReader`] and, at the
//! first decode failure, returns everything recovered so far plus a
//! [`SalvageReport`] accounting for the loss. [`repair_trace`] goes one
//! step further and re-encodes the recovered prefix into a fresh, valid
//! container of the same format version, so every downstream consumer
//! (`vex replay`, `vex serve`) can use the salvaged trace unchanged.
//!
//! Salvage requires a readable header (magic, version, flags, device
//! spec): a file cut inside the header has no recoverable frames and
//! salvage fails with the header's [`DecodeError`].

use crate::codec::DecodeError;
use crate::container::{
    FormatVersion, RecordedTrace, TraceFlags, TraceFrame, TraceReader, TraceWriter,
};
use crate::event::{Event, EventSink};
use crate::CollectorStats;
use std::collections::BTreeMap;
use vex_gpu::callpath::CallPathId;
use vex_gpu::timing::DeviceSpec;

/// Loss accounting of one salvage pass.
#[derive(Debug, Clone, PartialEq)]
pub struct SalvageReport {
    /// Frames recovered intact (events + contexts + trailer frames).
    pub frames_recovered: u64,
    /// Total input bytes presented to the salvager.
    pub bytes_total: u64,
    /// Bytes covered by the header plus every recovered frame — the
    /// length of the longest valid prefix.
    pub bytes_recovered: u64,
    /// Bytes past the last intact frame that were discarded.
    pub bytes_discarded: u64,
    /// The decode error that ended the walk, `None` for a complete
    /// trace.
    pub first_error: Option<DecodeError>,
    /// Whether the `Finish` trailer was among the recovered frames (its
    /// stats and app time are then exact rather than synthesized).
    pub has_trailer: bool,
}

impl SalvageReport {
    /// Whether the input was a complete, valid container (nothing was
    /// discarded and the trailer is present).
    pub fn complete(&self) -> bool {
        self.first_error.is_none() && self.has_trailer
    }

    /// Recovered fraction of the input, in percent (0–100). An empty
    /// input is 0% recoverable.
    pub fn recoverable_percent(&self) -> f64 {
        if self.bytes_total == 0 {
            return 0.0;
        }
        self.bytes_recovered as f64 / self.bytes_total as f64 * 100.0
    }
}

/// The recovered prefix of a truncated trace, plus its loss report.
#[derive(Debug, Clone)]
pub struct SalvagedTrace {
    /// Container format version of the source header.
    pub version: u32,
    /// Device preset of the recording session.
    pub spec: DeviceSpec,
    /// Which passes were recorded.
    pub flags: TraceFlags,
    /// Encoded payload bytes of the recovered record-batch frames.
    pub batch_bytes: u64,
    /// Events of the longest valid frame prefix, in stream order.
    pub events: Vec<Event>,
    /// Rendered call paths, if the contexts frame survived the cut.
    pub contexts: BTreeMap<CallPathId, String>,
    /// Collector counters, if the `Finish` trailer survived the cut.
    pub stats: Option<CollectorStats>,
    /// Application time (µs), if the `Finish` trailer survived the cut.
    pub app_us: Option<f64>,
    /// Loss accounting of the salvage walk.
    pub report: SalvageReport,
}

impl SalvagedTrace {
    /// The [`FormatVersion`] matching the source header, used to
    /// re-encode the prefix without changing the on-disk format.
    pub fn format_version(&self) -> FormatVersion {
        if self.version == 1 {
            FormatVersion::V1
        } else {
            FormatVersion::V2
        }
    }

    /// Converts the salvaged prefix into a [`RecordedTrace`] so the
    /// replay machinery can analyze it directly. Missing trailer fields
    /// are defaulted (zero stats, zero app time) — exactly what
    /// [`repair_trace`] writes into the repaired container, so a replay
    /// of this value matches a replay of the repaired file.
    pub fn into_recorded(self) -> RecordedTrace {
        RecordedTrace {
            version: self.version,
            spec: self.spec,
            flags: self.flags,
            batch_bytes: self.batch_bytes,
            events: self.events,
            contexts: self.contexts,
            stats: self.stats.unwrap_or_default(),
            app_us: self.app_us.unwrap_or(0.0),
        }
    }
}

/// Recovers the longest valid frame prefix of `bytes`.
///
/// Unlike [`crate::container::read_trace`], a truncated or corrupt
/// frame does not fail the decode: the walk stops there and everything
/// before it is returned, with the stopping error recorded in
/// [`SalvageReport::first_error`]. A complete trace salvages to itself
/// (`report.complete()`).
///
/// # Errors
///
/// A header that cannot be parsed — wrong magic, unsupported version,
/// or a cut inside the fixed header or device spec — leaves nothing to
/// recover and fails with that [`DecodeError`].
pub fn salvage_trace(bytes: &[u8]) -> Result<SalvagedTrace, DecodeError> {
    let mut reader = TraceReader::new(bytes)?;
    let version = reader.version();
    let spec = reader.spec().clone();
    let flags = reader.flags();

    let mut events = Vec::new();
    let mut contexts = BTreeMap::new();
    let mut stats = None;
    let mut app_us = None;
    let mut frames_recovered = 0u64;
    // `offset()` only advances past a frame once `next_frame` returns
    // `Ok`, so sampling it after each success tracks the end of the
    // longest valid prefix.
    let mut bytes_recovered = reader.offset();
    let mut first_error = None;
    let mut has_trailer = false;
    loop {
        match reader.next_frame() {
            Ok(Some(frame)) => {
                frames_recovered += 1;
                bytes_recovered = reader.offset();
                match frame {
                    TraceFrame::Event(e) => events.push(e),
                    TraceFrame::Contexts(map) => contexts = map,
                    TraceFrame::Finish { stats: s, app_us: t } => {
                        stats = Some(s);
                        app_us = Some(t);
                        has_trailer = true;
                    }
                }
            }
            Ok(None) => break,
            Err(e) => {
                first_error = Some(e);
                break;
            }
        }
    }
    let bytes_total = bytes.len() as u64;
    Ok(SalvagedTrace {
        version,
        spec,
        flags,
        batch_bytes: reader.batch_bytes(),
        events,
        contexts,
        stats,
        app_us,
        report: SalvageReport {
            frames_recovered,
            bytes_total,
            bytes_recovered,
            bytes_discarded: bytes_total.saturating_sub(bytes_recovered),
            first_error,
            has_trailer,
        },
    })
}

/// Salvages a trace file. See [`salvage_trace`].
///
/// # Errors
///
/// [`DecodeError::Io`] if the file cannot be read, otherwise as
/// [`salvage_trace`].
pub fn salvage_trace_file(path: &std::path::Path) -> Result<SalvagedTrace, DecodeError> {
    let bytes = std::fs::read(path)?;
    salvage_trace(&bytes)
}

/// Salvages `bytes` and re-encodes the recovered prefix into a fresh,
/// valid container of the same format version. The repaired container
/// always carries a contexts frame and a `Finish` trailer: recovered
/// values when those frames survived the cut, empty/zeroed ones
/// otherwise.
///
/// Returns the repaired container bytes and the loss report of the
/// salvage pass.
///
/// # Errors
///
/// As [`salvage_trace`] for an unsalvageable header; re-encoding into a
/// `Vec` cannot fail.
pub fn repair_trace(bytes: &[u8]) -> Result<(Vec<u8>, SalvageReport), DecodeError> {
    let salvaged = salvage_trace(bytes)?;
    let report = salvaged.report.clone();
    let writer = TraceWriter::with_version(
        Vec::new(),
        &salvaged.spec,
        salvaged.flags,
        salvaged.format_version(),
    )?;
    for event in &salvaged.events {
        writer.on_event(event);
    }
    let contexts: Vec<(CallPathId, String)> = salvaged.contexts.into_iter().collect();
    let repaired = writer.finish(
        &contexts,
        &salvaged.stats.unwrap_or_default(),
        salvaged.app_us.unwrap_or(0.0),
    )?;
    Ok((repaired, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::read_trace;
    use crate::event::Event;
    use crate::AccessRecord;
    use std::sync::Arc;
    use vex_gpu::alloc::AllocationInfo;
    use vex_gpu::dim::Dim3;
    use vex_gpu::hooks::{ApiEvent, ApiKind, CapturedView, LaunchId, LaunchInfo};
    use vex_gpu::ir::{InstrTableBuilder, MemSpace, Pc, ScalarType};
    use vex_gpu::stream::StreamId;

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

    fn sample_events() -> Vec<Event> {
        let info = launch_info(0);
        let alloc = AllocationInfo {
            id: vex_gpu::alloc::AllocId(1),
            addr: 4096,
            size: 256,
            label: "buf".into(),
            context: CallPathId(1),
            live: true,
        };
        vec![
            Event::Api {
                event: ApiEvent {
                    seq: 0,
                    kind: ApiKind::Malloc { info: alloc },
                    context: CallPathId(1),
                    stream: StreamId(0),
                },
                kernel: None,
                captured: Arc::new(CapturedView::from_segments(vec![(4096, vec![0; 256])])),
            },
            Event::LaunchBegin { info: info.clone() },
            Event::Batch {
                info: info.clone(),
                records: Arc::new((0..7).map(record).collect()),
            },
            Event::LaunchEnd { info },
            Event::SkippedLaunch { info: launch_info(1) },
        ]
    }

    fn write_sample(version: FormatVersion) -> Vec<u8> {
        let spec = DeviceSpec::test_small();
        let flags = TraceFlags { coarse: true, fine: true };
        let writer = TraceWriter::with_version(Vec::new(), &spec, flags, version).unwrap();
        for e in sample_events() {
            writer.on_event(&e);
        }
        let stats = CollectorStats { events: 7, ..CollectorStats::default() };
        writer.finish(&[(CallPathId(0), "<root>".into())], &stats, 42.5).unwrap()
    }

    #[test]
    fn complete_trace_salvages_to_itself() {
        for version in [FormatVersion::V1, FormatVersion::V2] {
            let bytes = write_sample(version);
            let s = salvage_trace(&bytes).unwrap();
            assert!(s.report.complete(), "{:?}", s.report);
            assert_eq!(s.report.first_error, None);
            assert_eq!(s.report.bytes_recovered, bytes.len() as u64);
            assert_eq!(s.report.bytes_discarded, 0);
            assert_eq!(s.report.recoverable_percent(), 100.0);
            // 5 event frames + contexts + trailer.
            assert_eq!(s.report.frames_recovered, 7);
            assert_eq!(s.events.len(), 5);
            assert_eq!(
                s.stats,
                Some(CollectorStats { events: 7, ..CollectorStats::default() })
            );
            assert_eq!(s.app_us, Some(42.5));
            let full = read_trace(&bytes).unwrap();
            assert_eq!(s.contexts, full.contexts);
        }
    }

    #[test]
    fn header_cut_is_unsalvageable() {
        let bytes = write_sample(FormatVersion::V2);
        // Determine the header size: the offset before any frame.
        let header = TraceReader::new(&bytes[..]).unwrap().offset() as usize;
        for cut in 0..header {
            assert!(salvage_trace(&bytes[..cut]).is_err(), "cut {cut} salvaged");
        }
        // Exactly the header: zero frames, zero loss of frames.
        let s = salvage_trace(&bytes[..header]).unwrap();
        assert_eq!(s.report.frames_recovered, 0);
        assert_eq!(s.events.len(), 0);
        assert!(!s.report.has_trailer);
        assert!(matches!(s.report.first_error, Some(DecodeError::TruncatedFrame { .. })));
    }

    #[test]
    fn data_after_trailer_is_discarded_but_prefix_survives() {
        let mut bytes = write_sample(FormatVersion::V2);
        let valid = bytes.len() as u64;
        bytes.extend_from_slice(b"garbage after finish");
        let s = salvage_trace(&bytes).unwrap();
        assert!(s.report.has_trailer);
        assert!(!s.report.complete());
        assert_eq!(s.report.bytes_recovered, valid);
        assert_eq!(s.report.bytes_discarded, 20);
        assert_eq!(s.events.len(), 5);
    }

    #[test]
    fn corrupt_mid_stream_frame_stops_the_walk_cleanly() {
        for version in [FormatVersion::V1, FormatVersion::V2] {
            let bytes = write_sample(version);
            // Find the start of the third frame and corrupt its kind.
            let mut reader = TraceReader::new(&bytes[..]).unwrap();
            reader.next_frame().unwrap();
            reader.next_frame().unwrap();
            let third = reader.offset() as usize;
            let mut torn = bytes.clone();
            torn[third] = 200; // unknown frame kind
            let s = salvage_trace(&torn).unwrap();
            assert_eq!(s.report.frames_recovered, 2);
            assert_eq!(s.events.len(), 2);
            assert_eq!(s.report.bytes_recovered, third as u64);
            assert!(matches!(
                s.report.first_error,
                Some(DecodeError::UnknownFrameKind { kind: 200, .. })
            ));
        }
    }

    #[test]
    fn repaired_truncated_trace_rereads_as_valid() {
        for version in [FormatVersion::V1, FormatVersion::V2] {
            let bytes = write_sample(version);
            // Cut mid-way through the stream (inside some frame).
            let cut = bytes.len() * 2 / 3;
            let (repaired, report) = repair_trace(&bytes[..cut]).unwrap();
            assert!(report.first_error.is_some());
            assert!(report.bytes_recovered <= cut as u64);
            let reread = read_trace(&repaired).unwrap();
            assert_eq!(reread.version, version.number());
            let salvaged = salvage_trace(&bytes[..cut]).unwrap();
            assert_eq!(reread.events.len(), salvaged.events.len());
            // Repairing the repaired trace is lossless and complete.
            let again = salvage_trace(&repaired).unwrap();
            assert!(again.report.complete());
        }
    }

    #[test]
    fn recoverable_percent_is_monotonic_in_the_cut() {
        let bytes = write_sample(FormatVersion::V2);
        let header = TraceReader::new(&bytes[..]).unwrap().offset() as usize;
        let mut last = 0u64;
        for cut in header..=bytes.len() {
            let s = salvage_trace(&bytes[..cut]).unwrap();
            assert!(s.report.bytes_recovered >= last, "cut {cut}");
            last = s.report.bytes_recovered;
            assert!(s.report.recoverable_percent() <= 100.0);
        }
    }
}
