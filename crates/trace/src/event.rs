//! The canonical event model shared by every collector consumer (§4,
//! Figure 1).
//!
//! The paper's architecture is **one** data collector feeding multiple
//! analyzers. This module is that collector: a single [`EventSource`]
//! attaches to [`vex_gpu::runtime::Runtime`] as both an
//! [`ApiHook`] and a [`MemAccessHook`], and publishes one canonical
//! [`Event`] stream — API events with coarse capture snapshots, launch
//! boundaries, and fine access-record batches — to an [`EventSink`].
//!
//! Every analysis is a sink: ValueExpert's synchronous engine, its
//! sharded pipeline, the GVProf baseline, and the trace recorder
//! (`crate::container::TraceWriter`) all implement [`EventSink`] and are
//! interchangeable. Because the stream is self-contained (captures carry
//! the device bytes the coarse pass reads; batches carry the records the
//! fine pass consumes), a recorded stream replayed from disk drives the
//! same analyses to byte-identical reports.
//!
//! ## Event order
//!
//! For one kernel launch the source emits, in order:
//!
//! 1. [`Event::LaunchBegin`] — only when the launch is instrumented for
//!    the fine pass (filter accepted),
//! 2. zero or more [`Event::Batch`]es as the device buffer fills,
//! 3. the final [`Event::Batch`] (remainder) and [`Event::LaunchEnd`],
//!    or [`Event::SkippedLaunch`] when the filter declined,
//! 4. [`Event::Api`] for the `KernelLaunch` API completion, carrying the
//!    coarse pass's interval summary and capture snapshot.
//!
//! Memory-management APIs (malloc/free/memcpy/memset) emit a single
//! [`Event::Api`] each.

pub use crate::codec::{ColumnSet, DecodedBatch};
use crate::interval::{merge_into, merge_parallel, Interval};
use crate::{AccessRecord, CollectorStats, DeviceBuffer, LaunchFilter};
use parking_lot::Mutex;
use std::sync::Arc;
use vex_gpu::exec::LaunchStats;
use vex_gpu::hooks::{
    AccessEvent, ApiEvent, ApiHook, ApiKind, ApiPhase, CapturedView, DeviceView, LaunchInfo,
    MemAccessHook,
};
use vex_gpu::ir::MemSpace;
use vex_gpu::runtime::Runtime;

/// How many of the newest pending intervals of one direction
/// [`KernelIntervals::add`] tries to merge a new interval into.
const COALESCE_WINDOW: usize = 8;

/// Per-kernel interval collection with §6.1 warp-level compaction.
///
/// Accesses arrive warp-by-warp (the simulator executes a warp at a
/// time). Each new interval of the current warp is merged on arrival into
/// one of the last 8 (`COALESCE_WINDOW`) pending intervals of its direction
/// that it overlaps or touches, and appended only when none does; a warp
/// change sorts and sweeps the few pending intervals straight into
/// `reads`/`writes`. Merging two mergeable intervals into their union
/// keeps the union of the warp's intervals, and the sweep emits that
/// union's canonical form, so each warp contributes exactly
/// [`crate::interval::merge_sequential`] of its intervals whatever the
/// arrival order.
#[derive(Debug)]
pub struct KernelIntervals {
    compaction: bool,
    /// Store intervals collected so far (compacted when enabled).
    pub writes: Vec<Interval>,
    /// Load intervals collected so far (compacted when enabled).
    pub reads: Vec<Interval>,
    pending_writes: Vec<Interval>,
    pending_reads: Vec<Interval>,
    pending_warp: Option<(u32, u32)>,
    /// Raw (pre-compaction) interval count, for traffic accounting.
    pub raw: u64,
}

impl Default for KernelIntervals {
    fn default() -> Self {
        KernelIntervals::new(true)
    }
}

impl KernelIntervals {
    /// Creates an empty collection; `compaction` toggles §6.1 warp-level
    /// compaction (off exists for the ablation study).
    pub fn new(compaction: bool) -> Self {
        KernelIntervals {
            compaction,
            writes: Vec::new(),
            reads: Vec::new(),
            pending_writes: Vec::new(),
            pending_reads: Vec::new(),
            pending_warp: None,
            raw: 0,
        }
    }

    /// Records one access interval from `(block, thread)`.
    pub fn add(&mut self, block: u32, thread: u32, interval: Interval, is_store: bool) {
        self.raw += 1;
        if !self.compaction {
            if is_store {
                self.writes.push(interval);
            } else {
                self.reads.push(interval);
            }
            return;
        }
        let warp = (block, thread / 32);
        if self.pending_warp != Some(warp) {
            self.flush_pending();
            self.pending_warp = Some(warp);
        }
        let pending = if is_store { &mut self.pending_writes } else { &mut self.pending_reads };
        let window = pending.len().saturating_sub(COALESCE_WINDOW);
        match pending[window..].iter_mut().rev().find(|p| p.mergeable(&interval)) {
            Some(p) => {
                p.start = p.start.min(interval.start);
                p.end = p.end.max(interval.end);
            }
            None => pending.push(interval),
        }
    }

    fn flush_pending(&mut self) {
        merge_into(&mut self.pending_writes, &mut self.writes);
        self.pending_writes.clear();
        merge_into(&mut self.pending_reads, &mut self.reads);
        self.pending_reads.clear();
    }

    /// Finishes the kernel: returns `(reads, writes, raw, compacted)`
    /// interval vectors and counts.
    pub fn finish(mut self) -> (Vec<Interval>, Vec<Interval>, u64, u64) {
        self.flush_pending();
        let compacted = (self.reads.len() + self.writes.len()) as u64;
        (self.reads, self.writes, self.raw, compacted)
    }
}

/// The coarse pass's per-kernel product: warp-compacted (but not yet
/// merged) access intervals, attached to the kernel's [`Event::Api`]
/// completion event. Consumers rebuild a [`KernelIntervals`] from it and
/// run the merge/split/diff machinery off the critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelSummary {
    /// Load intervals (compacted).
    pub reads: Vec<Interval>,
    /// Store intervals (compacted).
    pub writes: Vec<Interval>,
    /// Raw interval count before compaction.
    pub raw: u64,
}

/// One entry of the canonical collector stream.
///
/// Shared payloads ([`LaunchInfo`], record batches, captures) sit behind
/// [`Arc`] so fan-out to several sinks and channel transport never copy
/// them.
#[derive(Debug, Clone)]
pub enum Event {
    /// A runtime API call completed. For `KernelLaunch` events `kernel`
    /// carries the coarse interval summary (when the coarse pass is on);
    /// `captured` snapshots exactly the device bytes the deferred coarse
    /// analysis will read (written ranges of memset/memcpy/malloc, merged
    /// kernel write intervals).
    Api {
        /// The intercepted call.
        event: ApiEvent,
        /// Coarse interval summary for `KernelLaunch` completions.
        kernel: Option<KernelSummary>,
        /// Snapshot of the device bytes the coarse analysis reads.
        captured: Arc<CapturedView>,
    },
    /// An instrumented (fine-pass) launch is about to execute.
    LaunchBegin {
        /// Launch configuration.
        info: Arc<LaunchInfo>,
    },
    /// A device-buffer flush: one batch of access records.
    Batch {
        /// Launch the records belong to.
        info: Arc<LaunchInfo>,
        /// The flushed records, in execution order.
        records: Arc<Vec<AccessRecord>>,
    },
    /// An instrumented launch finished (after its final [`Event::Batch`]).
    LaunchEnd {
        /// Launch configuration.
        info: Arc<LaunchInfo>,
    },
    /// A launch ran uninstrumented (declined by the launch filter).
    SkippedLaunch {
        /// Launch configuration.
        info: Arc<LaunchInfo>,
    },
}

/// Consumes the canonical event stream.
///
/// Implementations must tolerate any well-formed stream — in particular
/// a stream replayed from a recorded trace, where batch boundaries
/// reflect the *recording* session's buffer capacity.
pub trait EventSink: Send + Sync {
    /// Called for every event, in stream order.
    fn on_event(&self, event: &Event);
}

/// What the [`EventSource`] collects and publishes.
#[derive(Debug, Clone)]
pub struct EventSourceConfig {
    /// Intercept runtime APIs (emit [`Event::Api`]). Required by the
    /// coarse pass and by any consumer tracking allocations.
    pub api: bool,
    /// Collect coarse per-kernel access intervals and capture snapshots.
    /// Requires `api`.
    pub coarse: bool,
    /// Collect fine-grained access records through the device buffer.
    pub fine: bool,
    /// Device-buffer capacity in records (fine pass).
    pub buffer_records: usize,
    /// §6.2 block sampling: record only blocks `0, P, 2P, …` (fine pass).
    pub block_period: u32,
    /// §6.1 warp-level interval compaction (coarse pass).
    pub warp_compaction: bool,
}

impl Default for EventSourceConfig {
    fn default() -> Self {
        EventSourceConfig {
            api: true,
            coarse: true,
            fine: false,
            buffer_records: 1 << 16,
            block_period: 1,
            warp_compaction: true,
        }
    }
}

struct SourceState {
    buffer: DeviceBuffer,
    /// Launch currently executing, shared by every event of the launch.
    current: Option<Arc<LaunchInfo>>,
    /// Whether the fine pass instruments the current launch.
    fine_active: bool,
    /// Coarse interval collection for the current kernel; taken by the
    /// `KernelLaunch` API-After event, which fires after `on_launch_end`.
    kernel: Option<KernelIntervals>,
    stats: CollectorStats,
}

/// The unified data collector: one hook registration producing the
/// canonical [`Event`] stream for any [`EventSink`].
///
/// Replaces the per-consumer hook wiring (profiler glue structs, GVProf's
/// private collector, the pipeline's publishing hooks) with a single
/// source whose output is also what [`crate::container`] persists.
pub struct EventSource {
    config: EventSourceConfig,
    filter: Arc<dyn LaunchFilter>,
    sink: Arc<dyn EventSink>,
    state: Mutex<SourceState>,
}

impl std::fmt::Debug for EventSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("EventSource")
            .field("config", &self.config)
            .field("buffered", &st.buffer.len())
            .field("stats", &st.stats)
            .finish()
    }
}

impl EventSource {
    /// Creates a source publishing to `sink`; `filter` gates the fine
    /// pass per launch (§6.2 kernel filtering / sampling).
    ///
    /// # Panics
    ///
    /// Panics if the fine pass is enabled with a zero buffer capacity or
    /// block period, or if `coarse` is requested without `api` (the
    /// coarse pass analyzes API completions).
    pub fn new(
        config: EventSourceConfig,
        filter: Arc<dyn LaunchFilter>,
        sink: Arc<dyn EventSink>,
    ) -> Self {
        assert!(!config.coarse || config.api, "coarse collection requires API interception");
        if config.fine {
            assert!(config.buffer_records > 0, "device buffer capacity must be nonzero");
            assert!(config.block_period > 0, "block sampling period must be nonzero");
        }
        let buffer = DeviceBuffer::new(config.buffer_records.max(1));
        EventSource {
            config,
            filter,
            sink,
            state: Mutex::new(SourceState {
                buffer,
                current: None,
                fine_active: false,
                kernel: None,
                stats: CollectorStats::default(),
            }),
        }
    }

    /// Creates the source and registers it on `rt` (as an API hook when
    /// `config.api`, and always as an access hook). Serializes streams —
    /// the paper's collector requirement — and returns the source handle
    /// for [`EventSource::stats`].
    pub fn attach(
        rt: &mut Runtime,
        config: EventSourceConfig,
        filter: Arc<dyn LaunchFilter>,
        sink: Arc<dyn EventSink>,
    ) -> Arc<EventSource> {
        let source = Arc::new(EventSource::new(config, filter, sink));
        if source.config.api {
            rt.register_api_hook(source.clone());
        }
        rt.register_access_hook(source.clone());
        rt.serialize_streams(true);
        source
    }

    /// Fine-pass traffic counters accumulated so far (all zero when the
    /// fine pass is disabled).
    pub fn stats(&self) -> CollectorStats {
        self.state.lock().stats
    }

    fn flush(st: &mut SourceState, sink: &dyn EventSink) {
        if st.buffer.is_empty() {
            return;
        }
        let records = st.buffer.drain();
        st.stats.flushes += 1;
        st.stats.bytes_flushed += records.len() as u64 * AccessRecord::DEVICE_BYTES;
        let info = st.current.clone().expect("flush outside of a launch");
        sink.on_event(&Event::Batch { info, records: Arc::new(records) });
    }
}

impl ApiHook for EventSource {
    fn on_api(&self, phase: ApiPhase, event: &ApiEvent, view: &dyn DeviceView) {
        if phase != ApiPhase::After {
            return;
        }
        let mut st = self.state.lock();
        let mut captured = CapturedView::new();
        let mut kernel = None;
        if self.config.coarse {
            match &event.kind {
                ApiKind::Malloc { info } => {
                    captured.capture(view, info.addr, info.size).expect("allocation readable");
                }
                ApiKind::Memset { dst, bytes, .. }
                | ApiKind::MemcpyH2D { dst, bytes }
                | ApiKind::MemcpyD2D { dst, bytes, .. } => {
                    if let Some(obj) = view.find_allocation(dst.addr()) {
                        let end = (dst.addr() + bytes).min(obj.addr + obj.size);
                        if end > dst.addr() {
                            captured
                                .capture(view, dst.addr(), end - dst.addr())
                                .expect("write range readable");
                        }
                    }
                }
                ApiKind::KernelLaunch { .. } => {
                    if let Some(collected) = st.kernel.take() {
                        let (reads, writes, raw, _compacted) = collected.finish();
                        // Capture the merged write footprint, split along
                        // live-allocation boundaries exactly as the coarse
                        // analysis will split it.
                        for iv in &merge_parallel(&writes) {
                            let mut cursor = iv.start;
                            while cursor < iv.end {
                                match view.find_allocation(cursor) {
                                    Some(obj) => {
                                        let end = iv.end.min(obj.addr + obj.size);
                                        captured
                                            .capture(view, cursor, end - cursor)
                                            .expect("kernel write interval readable");
                                        cursor = end;
                                    }
                                    None => cursor += 1,
                                }
                            }
                        }
                        kernel = Some(KernelSummary { reads, writes, raw });
                    }
                }
                _ => {}
            }
        }
        drop(st);
        self.sink.on_event(&Event::Api {
            event: event.clone(),
            kernel,
            captured: Arc::new(captured),
        });
    }
}

impl MemAccessHook for EventSource {
    fn on_launch_begin(&self, info: &LaunchInfo) -> bool {
        let mut st = self.state.lock();
        assert!(
            st.current.is_none(),
            "interleaved launches: collector requires serialized streams"
        );
        let fine_active = self.config.fine && self.filter.accept(info);
        let accept = self.config.coarse || fine_active;
        st.fine_active = fine_active;
        if self.config.coarse {
            st.kernel = Some(KernelIntervals::new(self.config.warp_compaction));
        }
        if accept {
            st.current = Some(Arc::new(info.clone()));
        }
        if fine_active {
            st.stats.instrumented_launches += 1;
            let info = st.current.clone().expect("just set");
            drop(st);
            self.sink.on_event(&Event::LaunchBegin { info });
        }
        accept
    }

    fn on_accesses(&self, events: &[AccessEvent]) {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        if let Some(k) = &mut st.kernel {
            // Shared-memory traffic never updates global snapshots.
            for event in events.iter().filter(|e| e.space == MemSpace::Global) {
                let (s, e) = event.interval();
                k.add(event.block, event.thread, Interval::new(s, e), event.is_store);
            }
        }
        if !st.fine_active {
            return;
        }
        st.stats.events_checked += events.len() as u64;
        // Block sampling: other blocks are never buffered, never flushed.
        for event in events.iter().filter(|e| e.block.is_multiple_of(self.config.block_period))
        {
            st.stats.events += 1;
            if st.buffer.push(AccessRecord::from(event)) {
                Self::flush(st, &*self.sink);
            }
        }
    }

    fn on_launch_end(
        &self,
        info: &LaunchInfo,
        _stats: &LaunchStats,
        instrumented: bool,
        _view: &dyn DeviceView,
    ) {
        let mut st = self.state.lock();
        let fine_active = st.fine_active;
        st.fine_active = false;
        if fine_active && instrumented {
            Self::flush(&mut st, &*self.sink);
            let current = st.current.take().expect("launch in progress");
            drop(st);
            self.sink.on_event(&Event::LaunchEnd { info: current });
            return;
        }
        st.current = None;
        if self.config.fine {
            // The fine pass declined this launch (filter, or the runtime
            // ran it uninstrumented): account the skip.
            st.stats.skipped_launches += 1;
            drop(st);
            self.sink.on_event(&Event::SkippedLaunch { info: Arc::new(info.clone()) });
        }
        // `st.kernel` intentionally survives: the KernelLaunch API-After
        // event fires next and consumes it.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::merge_sequential;
    use crate::AcceptAll;
    use proptest::prelude::*;
    use vex_gpu::dim::Dim3;
    use vex_gpu::ir::{InstrTableBuilder, Pc, ScalarType};
    use vex_gpu::kernel::Kernel;
    use vex_gpu::prelude::*;
    use vex_gpu::timing::DeviceSpec;

    struct Recorder {
        events: Mutex<Vec<Event>>,
    }

    impl Recorder {
        fn new() -> Self {
            Recorder { events: Mutex::new(Vec::new()) }
        }
        fn tags(&self) -> Vec<&'static str> {
            self.events
                .lock()
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
    }

    impl EventSink for Recorder {
        fn on_event(&self, event: &Event) {
            self.events.lock().push(event.clone());
        }
    }

    struct WriteN {
        base: u64,
        n: usize,
    }
    impl Kernel for WriteN {
        fn name(&self) -> &str {
            "write_n"
        }
        fn instr_table(&self) -> vex_gpu::ir::InstrTable {
            InstrTableBuilder::new().store(Pc(0), ScalarType::U32, MemSpace::Global).build()
        }
        fn execute(&self, ctx: &mut ThreadCtx<'_>) {
            let i = ctx.global_thread_id();
            if i < self.n {
                ctx.store::<u32>(Pc(0), self.base + (i * 4) as u64, i as u32);
            }
        }
    }

    fn run(config: EventSourceConfig) -> (Arc<Recorder>, Arc<EventSource>) {
        let mut rt = Runtime::new(DeviceSpec::test_small());
        let sink = Arc::new(Recorder::new());
        let source = EventSource::attach(&mut rt, config, Arc::new(AcceptAll), sink.clone());
        let base = rt.malloc(64, "buf").unwrap().addr();
        rt.launch(&WriteN { base, n: 10 }, Dim3::linear(1), Dim3::linear(16)).unwrap();
        (sink, source)
    }

    #[test]
    fn full_stream_order_and_stats() {
        let config =
            EventSourceConfig { fine: true, buffer_records: 4, ..EventSourceConfig::default() };
        let (sink, source) = run(config);
        // malloc api, launch begin, 2 full batches + remainder, end, launch api.
        assert_eq!(sink.tags(), vec!["api", "begin", "batch", "batch", "batch", "end", "api"]);
        let stats = source.stats();
        assert_eq!(stats.events, 10);
        assert_eq!(stats.flushes, 3);
        assert_eq!(stats.bytes_flushed, 10 * AccessRecord::DEVICE_BYTES);
        assert_eq!(stats.instrumented_launches, 1);
        // The kernel api event carries the coarse summary and capture.
        let events = sink.events.lock();
        let Some(Event::Api { kernel: Some(summary), captured, .. }) = events.last() else {
            panic!("expected kernel api event with summary");
        };
        assert_eq!(summary.raw, 10);
        assert!(!captured.segments().is_empty());
    }

    #[test]
    fn coarse_only_emits_no_fine_events_or_stats() {
        let (sink, source) = run(EventSourceConfig::default());
        assert_eq!(sink.tags(), vec!["api", "api"]);
        assert_eq!(source.stats(), CollectorStats::default());
    }

    #[test]
    fn declined_launches_are_skipped_with_coarse_still_collected() {
        struct RejectAll;
        impl LaunchFilter for RejectAll {
            fn accept(&self, _info: &LaunchInfo) -> bool {
                false
            }
        }
        let mut rt = Runtime::new(DeviceSpec::test_small());
        let sink = Arc::new(Recorder::new());
        let config = EventSourceConfig { fine: true, ..EventSourceConfig::default() };
        let source = EventSource::attach(&mut rt, config, Arc::new(RejectAll), sink.clone());
        let base = rt.malloc(64, "buf").unwrap().addr();
        rt.launch(&WriteN { base, n: 10 }, Dim3::linear(1), Dim3::linear(16)).unwrap();
        assert_eq!(sink.tags(), vec!["api", "skipped", "api"]);
        let stats = source.stats();
        assert_eq!(stats.skipped_launches, 1);
        assert_eq!(stats.events, 0);
        let events = sink.events.lock();
        let Some(Event::Api { kernel: Some(summary), .. }) = events.last() else {
            panic!("coarse summary expected even for fine-skipped launches");
        };
        assert_eq!(summary.raw, 10);
    }

    /// One access of a generated stream: `(block, thread, start, len,
    /// is_store)`.
    type Access = (u32, u32, u64, u64, bool);

    /// What [`KernelIntervals`] must produce: every maximal run of
    /// same-warp accesses contributes `merge_sequential` of its reads and
    /// of its writes; without compaction, every interval as it came.
    fn reference(accesses: &[Access], compaction: bool) -> (Vec<Interval>, Vec<Interval>) {
        let (mut reads, mut writes) = (Vec::new(), Vec::new());
        let mut run = 0;
        while run < accesses.len() {
            let warp = |a: &Access| (a.0, a.1 / 32);
            let len = if compaction {
                accesses[run..].iter().take_while(|a| warp(a) == warp(&accesses[run])).count()
            } else {
                1
            };
            let of = |store: bool| -> Vec<Interval> {
                accesses[run..run + len]
                    .iter()
                    .filter(|a| a.4 == store)
                    .map(|a| Interval::new(a.2, a.2 + a.3))
                    .collect()
            };
            reads.extend(merge_sequential(&of(false)));
            writes.extend(merge_sequential(&of(true)));
            run += len;
        }
        (reads, writes)
    }

    fn compact(
        accesses: &[Access],
        compaction: bool,
    ) -> (Vec<Interval>, Vec<Interval>, u64, u64) {
        let mut k = KernelIntervals::new(compaction);
        for &(block, thread, start, len, is_store) in accesses {
            k.add(block, thread, Interval::new(start, start + len), is_store);
        }
        k.finish()
    }

    fn assert_matches_reference(accesses: &[Access], compaction: bool) {
        let (reads, writes, raw, compacted) = compact(accesses, compaction);
        let (want_reads, want_writes) = reference(accesses, compaction);
        assert_eq!(reads, want_reads);
        assert_eq!(writes, want_writes);
        assert_eq!(raw, accesses.len() as u64);
        assert_eq!(compacted, (reads.len() + writes.len()) as u64);
    }

    #[test]
    fn coalescing_window_overflow_and_bridging() {
        // Ten disjoint loads, more than the window holds, then one load
        // bridging all of them: the sweep finishes what the window could
        // not reach.
        let mut accesses: Vec<Access> =
            (0..10).map(|i| (0, i, 100 - i as u64 * 10, 4, false)).collect();
        accesses.push((0, 31, 0, 200, false));
        // Touching stores arriving backwards, and a warp change.
        accesses.extend((0..32).map(|t| (0, t, 400 - t as u64 * 4, 4, true)));
        accesses.push((0, 32, 0, 4, true));
        let (reads, writes, ..) = compact(&accesses, true);
        assert_eq!(reads, vec![Interval::new(0, 200)]);
        assert_eq!(writes, vec![Interval::new(276, 404), Interval::new(0, 4)]);
        assert_matches_reference(&accesses, true);
        assert_matches_reference(&accesses, false);
    }

    proptest! {
        #[test]
        fn prop_coalescing_compaction_equals_per_warp_merge(
            runs in prop::collection::vec(
                (
                    0u32..2,
                    0u32..3,
                    prop::collection::vec((0u32..32, 0u64..256, 1u64..16, any::<bool>()), 0..48),
                ),
                0..12,
            ),
            compaction in any::<bool>(),
        ) {
            // Runs of one warp each, in random order: warps repeat, come
            // back after others, and carry random (overlapping, touching,
            // bridging or disjoint) intervals in any address order.
            let accesses: Vec<Access> = runs
                .iter()
                .flat_map(|(block, warp, run)| {
                    run.iter().map(move |&(lane, start, len, store)| {
                        (*block, warp * 32 + lane, start, len, store)
                    })
                })
                .collect();
            assert_matches_reference(&accesses, compaction);
        }
    }
}
