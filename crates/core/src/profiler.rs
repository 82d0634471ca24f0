//! The ValueExpert profiler front-end (§4).
//!
//! [`ValueExpert`] attaches one shared [`EventSource`] — the canonical
//! data collector of `vex_trace::event` — to a
//! [`vex_gpu::runtime::Runtime`], mirroring the paper's component diagram
//! (Figure 1): the *data collector* overloads GPU APIs and instruments
//! kernels, the *online analyzer* recognizes patterns and builds the
//! value flow graph, and the report machinery in [`crate::report`] stands
//! in for the GUI.
//!
//! The analysis engine (`crate::pipeline`) is an [`EventSink`] over that
//! stream: its pass bodies run inline on the publishing thread at zero
//! shards and on worker threads otherwise
//! ([`ProfilerBuilder::analysis_shards`]). Because the stream is also
//! what `vex_trace::container` persists, a session can be recorded
//! ([`ProfilerBuilder::record`]) and replayed later
//! ([`ProfilerBuilder::replay`]) under any shard count with
//! byte-identical reports.
//!
//! ```rust
//! use vex_core::profiler::ValueExpert;
//! use vex_gpu::prelude::*;
//!
//! # fn main() -> Result<(), GpuError> {
//! let mut rt = Runtime::new(DeviceSpec::rtx2080ti());
//! let vex = ValueExpert::builder().coarse(true).fine(true).attach(&mut rt);
//! // ... run the application against `rt` ...
//! let profile = vex.report(&rt);
//! assert_eq!(profile.redundancies.len(), 0);
//! # Ok(()) }
//! ```

use crate::coarse::CaptureGap;
use crate::copy_strategy::AdaptivePolicy;
use crate::overhead::{OverheadModel, OverheadReport};
use crate::patterns::PatternConfig;
use crate::pipeline::{Engine, EngineProducts, PipelineSpec};
use crate::report::Profile;
use crate::sampling::{HierarchicalSampler, KernelNameFilter};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;
use vex_gpu::callpath::CallPathId;
use vex_gpu::runtime::Runtime;
use vex_gpu::timing::DeviceSpec;
use vex_trace::codec::DecodeError;
use vex_trace::container::{
    DecodeOptions, RecordedTrace, TraceFlags, TraceInput, TraceReader, TraceWriter,
};
use vex_trace::event::{ColumnSet, EventSink, EventSource, EventSourceConfig};
use vex_trace::{CollectorStats, LaunchFilter};

/// The most analysis shards a session may ask for through
/// [`check_analysis_params`]; each shard is a thread.
pub const MAX_ANALYSIS_SHARDS: usize = 64;

/// Checks analysis parameters that arrive from outside the program — a
/// command line or a query string — before they reach
/// [`ProfilerBuilder::reuse_distance`] and
/// [`ProfilerBuilder::analysis_shards`], which do not validate them: a
/// reuse line size must be a nonzero power of two, and `shards` at most
/// [`MAX_ANALYSIS_SHARDS`].
///
/// # Errors
///
/// A message naming the offending value.
pub fn check_analysis_params(
    reuse_line_bytes: Option<u64>,
    shards: usize,
) -> Result<(), String> {
    if let Some(line) = reuse_line_bytes.filter(|l| !l.is_power_of_two()) {
        return Err(format!("reuse line size must be a nonzero power of two, got {line}"));
    }
    if shards > MAX_ANALYSIS_SHARDS {
        return Err(format!("at most {MAX_ANALYSIS_SHARDS} analysis shards, got {shards}"));
    }
    Ok(())
}

/// What a replay needs once its events are dispatched: the recording's
/// call-path contexts, collector counters, and application time (µs).
type ReplayTail<'t> = (Cow<'t, BTreeMap<CallPathId, String>>, CollectorStats, f64);

/// Configuration for a profiling session; see [`ValueExpert::builder`].
#[derive(Debug, Clone)]
pub struct ProfilerBuilder {
    coarse: bool,
    fine: bool,
    pattern: PatternConfig,
    copy_policy: AdaptivePolicy,
    overhead: OverheadModel,
    buffer_capacity: usize,
    kernel_filter: Option<Vec<String>>,
    kernel_period: u64,
    block_period: u32,
    reuse_line_bytes: Option<u64>,
    race_detection: bool,
    warp_compaction: bool,
    analysis_shards: usize,
    analysis_queue_depth: usize,
}

impl Default for ProfilerBuilder {
    fn default() -> Self {
        ProfilerBuilder {
            coarse: true,
            fine: false,
            pattern: PatternConfig::default(),
            copy_policy: AdaptivePolicy::default(),
            overhead: OverheadModel::default(),
            buffer_capacity: 1 << 16,
            kernel_filter: None,
            kernel_period: 1,
            block_period: 1,
            reuse_line_bytes: None,
            race_detection: false,
            warp_compaction: true,
            analysis_shards: 0,
            analysis_queue_depth: 64,
        }
    }
}

impl ProfilerBuilder {
    /// Enables or disables the coarse-grained pass (default on).
    #[must_use]
    pub fn coarse(mut self, on: bool) -> Self {
        self.coarse = on;
        self
    }

    /// Enables or disables the fine-grained pass (default off).
    #[must_use]
    pub fn fine(mut self, on: bool) -> Self {
        self.fine = on;
        self
    }

    /// Overrides recognizer thresholds.
    #[must_use]
    pub fn pattern_config(mut self, config: PatternConfig) -> Self {
        self.pattern = config;
        self
    }

    /// Overrides the adaptive snapshot-copy policy.
    #[must_use]
    pub fn copy_policy(mut self, policy: AdaptivePolicy) -> Self {
        self.copy_policy = policy;
        self
    }

    /// Overrides the overhead model constants.
    #[must_use]
    pub fn overhead_model(mut self, model: OverheadModel) -> Self {
        self.overhead = model;
        self
    }

    /// Sets the simulated device-buffer capacity in records.
    #[must_use]
    pub fn buffer_capacity(mut self, records: usize) -> Self {
        self.buffer_capacity = records;
        self
    }

    /// Restricts fine-grained analysis to kernels whose name contains one
    /// of `names` (§6.2 filtering).
    #[must_use]
    pub fn filter_kernels<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.kernel_filter = Some(names.into_iter().map(Into::into).collect());
        self
    }

    /// Sets the kernel sampling period (§6.2; instrument every P-th launch
    /// of each kernel).
    #[must_use]
    pub fn kernel_sampling(mut self, period: u64) -> Self {
        self.kernel_period = period.max(1);
        self
    }

    /// Sets the block sampling period (§6.2; analyze every Q-th block).
    #[must_use]
    pub fn block_sampling(mut self, period: u32) -> Self {
        self.block_period = period.max(1);
        self
    }

    /// Enables reuse-distance analysis at the given cache-line size
    /// (one of the §9 analyses layered on the same record stream;
    /// requires the fine pass).
    ///
    /// # Panics
    ///
    /// `attach` panics if `line_bytes` is not a power of two; check a
    /// line size that comes from outside the program with
    /// [`check_analysis_params`].
    #[must_use]
    pub fn reuse_distance(mut self, line_bytes: u64) -> Self {
        self.reuse_line_bytes = Some(line_bytes);
        self
    }

    /// Enables inter-block race detection (§9; requires the fine pass).
    /// Block sampling distorts race coverage, so pair this with
    /// `block_sampling(1)` for sound results.
    #[must_use]
    pub fn race_detection(mut self, on: bool) -> Self {
        self.race_detection = on;
        self
    }

    /// Toggles §6.1's warp-level interval compaction (default on; turning
    /// it off exists for the ablation study — every raw access interval
    /// then reaches the merge stage).
    #[must_use]
    pub fn warp_compaction(mut self, on: bool) -> Self {
        self.warp_compaction = on;
        self
    }

    /// Moves analysis off the application's critical path: `shards` fine
    /// analysis workers (work partitioned by data object, so per-object
    /// state never crosses shards), plus a router, a sequential
    /// reuse/race worker, and a coarse replay worker as the enabled
    /// passes require. `0` — the default — runs the same pass bodies
    /// inline on the publishing thread. Reports are **byte-identical**
    /// for every shard count; the `pipeline` module docs give the
    /// determinism argument. Each shard is a thread: check a shard count that comes
    /// from outside the program with [`check_analysis_params`].
    #[must_use]
    pub fn analysis_shards(mut self, shards: usize) -> Self {
        self.analysis_shards = shards;
        self
    }

    /// Capacity, in messages, of each bounded pipeline channel (default
    /// 64). Deeper queues decouple the application further from analysis
    /// at the cost of memory; a full queue back-pressures the publisher.
    #[must_use]
    pub fn analysis_queue_depth(mut self, depth: usize) -> Self {
        self.analysis_queue_depth = depth.max(1);
        self
    }

    /// Columns of the fine record stream the configured passes read —
    /// what a projected trace decode must materialize so this builder's
    /// replay stays byte-identical to a full decode. Coarse-only
    /// configurations demand no batch columns at all.
    pub fn required_columns(&self) -> ColumnSet {
        self.pipeline_spec().required_columns()
    }

    /// The [`DecodeOptions`] this builder implies for reading a trace it
    /// will replay: its per-pass column projection.
    pub fn decode_options(&self) -> DecodeOptions {
        DecodeOptions { columns: self.required_columns() }
    }

    /// The analysis engine this configuration describes (`shards: 0`
    /// runs the passes inline). Reuse distance and race detection ride
    /// on the fine pass.
    fn pipeline_spec(&self) -> PipelineSpec {
        PipelineSpec {
            shards: self.analysis_shards,
            queue_depth: self.analysis_queue_depth,
            coarse: self.coarse,
            fine: self.fine,
            pattern: self.pattern,
            policy: self.copy_policy,
            reuse_line_bytes: self.reuse_line_bytes.filter(|_| self.fine),
            races: self.race_detection && self.fine,
        }
    }

    /// The collector configuration this builder implies. The API stream
    /// is always intercepted: the registry every engine replicates is fed
    /// by in-band alloc/free events.
    fn source_config(&self) -> EventSourceConfig {
        EventSourceConfig {
            api: true,
            coarse: self.coarse,
            fine: self.fine,
            buffer_records: self.buffer_capacity,
            block_period: self.block_period,
            warp_compaction: self.warp_compaction,
        }
    }

    /// The §6.2 launch filter (kernel sampling + optional name filter).
    fn launch_filter(&self) -> Arc<dyn LaunchFilter> {
        match &self.kernel_filter {
            Some(names) => Arc::new(
                HierarchicalSampler::new(self.kernel_period)
                    .with_name_filter(KernelNameFilter::new(names.clone())),
            ),
            None => Arc::new(HierarchicalSampler::new(self.kernel_period)),
        }
    }

    /// Attaches the profiler to a runtime and returns the session handle.
    pub fn attach(self, rt: &mut Runtime) -> ValueExpert {
        let engine = Arc::new(Engine::spawn(&self.pipeline_spec()));
        let source =
            EventSource::attach(rt, self.source_config(), self.launch_filter(), engine.clone());
        ValueExpert {
            overhead: self.overhead,
            pattern: self.pattern,
            engine,
            source: Some(source),
        }
    }

    /// Attaches only the trace recorder: the canonical event stream is
    /// persisted into `out` in the `.vex` container format and no
    /// analysis runs. The recorded passes mirror this builder's `coarse`
    /// and `fine` flags; sampling and filter options apply at record time
    /// (they are baked into the trace). Finish the recording with
    /// [`Recording::finish`] after the workload.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if writing the container header fails.
    pub fn record<W: std::io::Write + Send + 'static>(
        self,
        rt: &mut Runtime,
        out: W,
    ) -> std::io::Result<Recording<W>> {
        let flags = TraceFlags { coarse: self.coarse, fine: self.fine };
        let writer = Arc::new(TraceWriter::new(out, rt.spec(), flags)?);
        let source =
            EventSource::attach(rt, self.source_config(), self.launch_filter(), writer.clone());
        Ok(Recording { writer, source })
    }

    /// Replays a recorded trace through the analysis engine this builder
    /// configures (inline or sharded) and assembles the profile with
    /// the recording session's device preset, application time, and call
    /// paths — byte-identical to the report a live session with this
    /// configuration would have produced.
    ///
    /// Collection options (`buffer_capacity`, sampling, filters,
    /// `warp_compaction`) have no effect here: they were applied by the
    /// recording session and are baked into the stream.
    ///
    /// # Errors
    ///
    /// [`ReplayError`] when the requested passes were not recorded.
    pub fn replay(self, trace: &RecordedTrace) -> Result<Profile, ReplayError> {
        self.replay_events(trace.flags, &trace.spec, |sink| {
            trace.dispatch(sink);
            Ok((Cow::Borrowed(&trace.contexts), trace.stats, trace.app_us))
        })
    }

    /// Replays a trace straight from its container stream, with no
    /// materialized [`RecordedTrace`]: the header's flags are checked
    /// against the requested passes before any frame is read, each batch
    /// is decoded under this builder's column projection
    /// ([`TraceReader::set_columns`]), handed to the analysis engine and
    /// dropped, and the profile is assembled from the tail frames. Peak
    /// memory is one batch plus analysis state. A coarse-only replay
    /// demands no column, so its batch frames are skipped unread, past
    /// a structural walk of their prefixes. The report is
    /// byte-identical to [`ProfilerBuilder::replay`]'s.
    ///
    /// # Errors
    ///
    /// [`ReplayError::CoarseNotRecorded`] / [`ReplayError::FineNotRecorded`]
    /// from the header; otherwise [`ReplayError::Decode`] with the first
    /// bad frame's error — the one [`vex_trace::container::read_trace_with`]
    /// returns under [`ProfilerBuilder::decode_options`]. No partial
    /// profile is produced.
    pub fn replay_reader<R: TraceInput>(
        self,
        mut reader: TraceReader<R>,
    ) -> Result<Profile, ReplayError> {
        let (flags, spec) = (reader.flags(), reader.spec().clone());
        reader.set_columns(self.required_columns());
        self.replay_events(flags, &spec, |sink| {
            let tail = reader.dispatch(sink)?;
            Ok((Cow::Owned(tail.contexts), tail.stats, tail.app_us))
        })
    }

    /// The analysis path both replay sources share: validates `flags`
    /// against the requested passes, spawns the engine, lets `feed` pump
    /// the event stream into it and return the trace's tail — call-path
    /// contexts (lent, when the source already holds them), collector
    /// counters and application time — then assembles the profile for
    /// the recording's device preset `spec`.
    fn replay_events<'t>(
        self,
        flags: TraceFlags,
        spec: &DeviceSpec,
        feed: impl FnOnce(&dyn EventSink) -> Result<ReplayTail<'t>, DecodeError>,
    ) -> Result<Profile, ReplayError> {
        if self.coarse && !flags.coarse {
            return Err(ReplayError::CoarseNotRecorded);
        }
        if self.fine && !flags.fine {
            return Err(ReplayError::FineNotRecorded);
        }
        let vex = ValueExpert {
            overhead: self.overhead,
            pattern: self.pattern,
            engine: Arc::new(Engine::spawn(&self.pipeline_spec())),
            source: None,
        };
        // On error `vex` drops here, which stops any engine workers.
        let (contexts, stats, app_us) = feed(&*vex.engine).map_err(ReplayError::Decode)?;
        // A live coarse-only session reports zero collector traffic; only
        // fine replays surface the recorded counters.
        let stats = if self.fine { stats } else { CollectorStats::default() };
        let products = vex.engine.products();
        if let Some(gap) = products.coarse.gap {
            return Err(ReplayError::CaptureGap(gap));
        }
        Ok(vex.assemble(products, stats, spec, app_us, |id| {
            contexts
                .get(&id)
                .cloned()
                .unwrap_or_else(|| format!("<unrecorded context {}>", id.0))
        }))
    }
}

/// Replaying a trace failed: the requested passes were not recorded
/// (detected before any analysis ran), the trace failed to decode, or
/// its captures miss bytes the coarse pass needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// Coarse analysis was requested but the trace carries no capture
    /// snapshots.
    CoarseNotRecorded,
    /// A fine-grained analysis was requested but the trace carries no
    /// access records.
    FineNotRecorded,
    /// A streamed trace ([`ProfilerBuilder::replay_reader`]) failed to
    /// decode mid-stream.
    Decode(DecodeError),
    /// The coarse pass had to read device bytes the trace did not
    /// capture (a corrupt or crafted trace).
    CaptureGap(CaptureGap),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::CoarseNotRecorded => write!(
                f,
                "this trace has no coarse capture snapshots; re-record without disabling the \
                 coarse pass (it is on by default in `vex record`)"
            ),
            ReplayError::FineNotRecorded => write!(
                f,
                "this trace has no access records; re-record with `vex record --fine` to run \
                 fine-grained analyses"
            ),
            ReplayError::Decode(e) => e.fmt(f),
            ReplayError::CaptureGap(gap) => gap.fmt(f),
        }
    }
}

impl std::error::Error for ReplayError {}

/// A trace recording in progress; created by [`ProfilerBuilder::record`].
pub struct Recording<W: std::io::Write + Send + 'static> {
    writer: Arc<TraceWriter<W>>,
    source: Arc<EventSource>,
}

impl<W: std::io::Write + Send + 'static> std::fmt::Debug for Recording<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recording").field("stats", &self.source.stats()).finish_non_exhaustive()
    }
}

impl<W: std::io::Write + Send + 'static> Recording<W> {
    /// Collector traffic of the recording so far.
    pub fn stats(&self) -> CollectorStats {
        self.source.stats()
    }

    /// Writes the container trailer — every rendered call path, the
    /// collector counters, and the application time — flushes, and
    /// returns the underlying writer. Detaches all hooks from `rt` (the
    /// recorder is expected to be the only attached session).
    ///
    /// # Errors
    ///
    /// [`DecodeError::Io`] if any container write failed.
    ///
    /// # Panics
    ///
    /// Panics if the trace writer is still shared.
    pub fn finish(self, rt: &mut Runtime) -> Result<W, DecodeError> {
        rt.clear_hooks();
        let Recording { writer, source } = self;
        let stats = source.stats();
        drop(source); // releases the source's Arc to the writer
        let writer = match Arc::try_unwrap(writer) {
            Ok(w) => w,
            Err(_) => panic!("trace writer still shared; drop other sinks before finish"),
        };
        let cp = rt.callpaths();
        let contexts: Vec<(CallPathId, String)> = (0..cp.path_count())
            .map(|i| {
                let id = CallPathId(i as u32);
                (id, cp.render(id))
            })
            .collect();
        writer.finish(&contexts, &stats, rt.time_report().total_us())
    }
}

/// A live profiling session attached to a runtime.
pub struct ValueExpert {
    overhead: OverheadModel,
    pattern: PatternConfig,
    engine: Arc<Engine>,
    source: Option<Arc<EventSource>>,
}

impl std::fmt::Debug for ValueExpert {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ValueExpert")
            .field("live", &self.source.is_some())
            .field("pipelined", &matches!(*self.engine, Engine::Sharded(_)))
            .finish()
    }
}

impl Drop for ValueExpert {
    fn drop(&mut self) {
        // Stop and join the analysis workers even when the session ends
        // without a report.
        self.engine.shutdown();
    }
}

impl ValueExpert {
    /// Starts configuring a profiling session.
    pub fn builder() -> ProfilerBuilder {
        ProfilerBuilder::default()
    }

    /// Collector traffic of the fine pass (zeros when fine is disabled).
    pub fn collector_stats(&self) -> CollectorStats {
        self.source.as_ref().map(|s| s.stats()).unwrap_or_default()
    }

    /// Produces the profile: findings, value flow graph, and the overhead
    /// report for the application time accumulated in `rt`'s time report.
    ///
    /// In pipelined mode ([`ProfilerBuilder::analysis_shards`]) this is
    /// the synchronization point: it blocks until every published record
    /// batch and API event is analyzed, then reduces the per-shard state
    /// deterministically. The resulting profile is byte-identical to the
    /// inline engine's.
    pub fn report(&self, rt: &Runtime) -> Profile {
        let products = self.engine.products();
        // A live session captures every range the coarse pass reads.
        assert_eq!(products.coarse.gap, None, "live capture missed a range");
        let cp = rt.callpaths();
        self.assemble(
            products,
            self.collector_stats(),
            rt.spec(),
            rt.time_report().total_us(),
            |id| cp.render(id),
        )
    }

    /// Shared tail of live reporting and trace replay: overhead model,
    /// context rendering, and profile assembly. Keeping one
    /// implementation for every mode guarantees the report layouts cannot
    /// diverge.
    fn assemble(
        &self,
        EngineProducts { coarse, fine_findings, fine_traffic, reuse, races }: EngineProducts,
        collector_stats: CollectorStats,
        spec: &DeviceSpec,
        app_us: f64,
        mut render: impl FnMut(CallPathId) -> String,
    ) -> Profile {
        let overhead = OverheadReport {
            fine_us: self.overhead.fine_cost_us(&collector_stats, &fine_traffic, spec),
            coarse_us: self.overhead.coarse_cost_us(&coarse.traffic, spec),
            app_us,
        };
        let contexts = {
            let mut map = std::collections::BTreeMap::new();
            let mut record = |id: CallPathId| {
                map.entry(id).or_insert_with(|| render(id));
            };
            for r in &coarse.redundancies {
                record(r.context);
            }
            for f in &fine_findings {
                record(f.context);
            }
            for v in coarse.flow.vertices() {
                record(v.context);
            }
            map
        };
        Profile {
            device: spec.name.clone(),
            flow_graph: coarse.flow,
            redundancies: coarse.redundancies,
            duplicates: coarse.duplicates,
            copy_plans: coarse.copy_plans,
            fine_findings,
            reuse,
            races,
            coarse_traffic: coarse.traffic,
            fine_traffic,
            collector_stats,
            overhead,
            contexts,
            redundancy_threshold: self.pattern.redundancy_threshold,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::ValuePattern;
    use vex_gpu::dim::Dim3;
    use vex_gpu::ir::{InstrTable, InstrTableBuilder, Pc, ScalarType};
    use vex_gpu::kernel::Kernel;
    use vex_gpu::prelude::*;
    use vex_gpu::timing::DeviceSpec;

    /// fill(out, v): the canonical redundant-initialization kernel.
    struct Fill {
        out: u64,
        n: usize,
        v: f32,
    }
    impl Kernel for Fill {
        fn name(&self) -> &str {
            "fill_kernel"
        }
        fn instr_table(&self) -> InstrTable {
            InstrTableBuilder::new().store(Pc(0), ScalarType::F32, MemSpace::Global).build()
        }
        fn execute(&self, ctx: &mut ThreadCtx<'_>) {
            let i = ctx.global_thread_id();
            if i < self.n {
                ctx.store::<f32>(Pc(0), self.out + (i * 4) as u64, self.v);
            }
        }
    }

    fn profiled_run() -> (Runtime, ValueExpert) {
        let mut rt = Runtime::new(DeviceSpec::test_small());
        let vex = ValueExpert::builder().coarse(true).fine(true).attach(&mut rt);
        let out = rt.with_fn("init", |rt| rt.malloc(256, "out")).unwrap();
        rt.with_fn("forward", |rt| {
            rt.memset(out, 0, 256).unwrap();
            // Kernel rewrites the same zeros: redundant + single-zero.
            rt.launch(
                &Fill { out: out.addr(), n: 64, v: 0.0 },
                Dim3::linear(2),
                Dim3::linear(32),
            )
            .unwrap();
        });
        (rt, vex)
    }

    #[test]
    fn end_to_end_redundancy_and_single_zero() {
        let (rt, vex) = profiled_run();
        let profile = vex.report(&rt);
        assert_eq!(profile.device, "TestGPU");
        // Coarse: the kernel's stores were fully redundant.
        assert!(
            profile.redundancies.iter().any(|r| r.api == "fill_kernel" && r.fraction() == 1.0),
            "findings: {:?}",
            profile.redundancies
        );
        // Fine: the stored values match the single-zero pattern.
        let f = profile
            .fine_findings
            .iter()
            .find(|f| f.kernel == "fill_kernel")
            .expect("fine finding");
        assert!(f.hits.iter().any(|h| h.pattern == ValuePattern::SingleZero));
        // Flow graph has host, alloc, memset, kernel.
        assert_eq!(profile.flow_graph.vertex_count(), 4);
        assert!(profile.flow_graph.edge_count() >= 2);
        // Contexts rendered.
        let ctx = profile.contexts.get(&f.context).unwrap();
        assert!(ctx.contains("forward"), "context: {ctx}");
        // Overhead is positive and finite.
        assert!(profile.overhead.factor() > 1.0);
        assert!(profile.overhead.factor().is_finite());
    }

    #[test]
    fn coarse_only_session_has_no_fine_findings() {
        let mut rt = Runtime::new(DeviceSpec::test_small());
        let vex = ValueExpert::builder().coarse(true).fine(false).attach(&mut rt);
        let out = rt.malloc(128, "x").unwrap();
        rt.memset(out, 0, 128).unwrap();
        rt.memset(out, 0, 128).unwrap();
        let p = vex.report(&rt);
        assert!(!p.redundancies.is_empty());
        assert!(p.fine_findings.is_empty());
        assert_eq!(p.collector_stats.events, 0);
    }

    #[test]
    fn kernel_filter_limits_fine_analysis() {
        let mut rt = Runtime::new(DeviceSpec::test_small());
        let vex = ValueExpert::builder()
            .coarse(false)
            .fine(true)
            .filter_kernels(["other"])
            .attach(&mut rt);
        let out = rt.malloc(256, "out").unwrap();
        rt.launch(&Fill { out: out.addr(), n: 64, v: 1.0 }, Dim3::linear(2), Dim3::linear(32))
            .unwrap();
        let p = vex.report(&rt);
        assert!(p.fine_findings.is_empty());
        assert_eq!(p.collector_stats.skipped_launches, 1);
    }

    #[test]
    fn sampling_period_reduces_events() {
        let mut rt = Runtime::new(DeviceSpec::test_small());
        let vex =
            ValueExpert::builder().coarse(false).fine(true).kernel_sampling(4).attach(&mut rt);
        let out = rt.malloc(256, "out").unwrap();
        for _ in 0..8 {
            rt.launch(
                &Fill { out: out.addr(), n: 64, v: 2.0 },
                Dim3::linear(2),
                Dim3::linear(32),
            )
            .unwrap();
        }
        let s = vex.collector_stats();
        assert_eq!(s.instrumented_launches, 2); // launches 0 and 4
        assert_eq!(s.skipped_launches, 6);
        assert_eq!(s.events, 2 * 64);
    }

    #[test]
    fn overhead_reported_against_app_time() {
        let (rt, vex) = profiled_run();
        let p = vex.report(&rt);
        assert!(p.overhead.app_us > 0.0);
        assert!(p.overhead.coarse_us > 0.0);
        assert!(p.overhead.fine_us > 0.0);
        assert!(p.overhead.factor() >= p.overhead.coarse_factor());
    }

    /// Runs the `profiled_run` workload under a recorder instead of a
    /// live analysis.
    fn recorded_run() -> Vec<u8> {
        let mut rt = Runtime::new(DeviceSpec::test_small());
        let rec = ValueExpert::builder()
            .coarse(true)
            .fine(true)
            .record(&mut rt, Vec::new())
            .expect("header written");
        let out = rt.with_fn("init", |rt| rt.malloc(256, "out")).unwrap();
        rt.with_fn("forward", |rt| {
            rt.memset(out, 0, 256).unwrap();
            rt.launch(
                &Fill { out: out.addr(), n: 64, v: 0.0 },
                Dim3::linear(2),
                Dim3::linear(32),
            )
            .unwrap();
        });
        rec.finish(&mut rt).expect("trailer written")
    }

    /// Renders every report surface; byte-equality of these is the
    /// replay contract.
    fn rendered(profile: &Profile) -> (String, String, String) {
        (
            profile.render_text(),
            profile.to_json().expect("profile serializes"),
            profile.flow_graph.to_dot(profile.redundancy_threshold),
        )
    }

    #[test]
    fn replay_matches_live_report() {
        let (rt, vex) = profiled_run();
        let live = vex.report(&rt);
        let bytes = recorded_run();
        let trace = vex_trace::container::read_trace(&bytes).expect("trace decodes");
        let replayed = ValueExpert::builder()
            .coarse(true)
            .fine(true)
            .replay(&trace)
            .expect("replay succeeds");
        assert_eq!(rendered(&live), rendered(&replayed));
    }

    #[test]
    fn replay_validates_recorded_passes() {
        let mut rt = Runtime::new(DeviceSpec::test_small());
        let rec = ValueExpert::builder()
            .coarse(true)
            .fine(false)
            .record(&mut rt, Vec::new())
            .expect("header written");
        rt.malloc(64, "x").unwrap();
        let bytes = rec.finish(&mut rt).expect("trailer written");
        let trace = vex_trace::container::read_trace(&bytes).expect("trace decodes");
        let err = ValueExpert::builder().fine(true).replay(&trace).unwrap_err();
        assert_eq!(err, ReplayError::FineNotRecorded);
        assert!(err.to_string().contains("--fine"), "{err}");
        // The recorded pass still replays fine.
        let profile =
            ValueExpert::builder().coarse(true).replay(&trace).expect("coarse replay");
        assert_eq!(profile.collector_stats, CollectorStats::default());
    }

    #[test]
    fn recording_dropped_unfinished_joins_its_encoder() {
        // `vex record`'s "workload failed" path: the recording, then the
        // runtime holding its source, go away without `finish`.
        let mut rt = Runtime::new(DeviceSpec::test_small());
        let rec = ValueExpert::builder()
            .coarse(true)
            .fine(true)
            .record(&mut rt, Vec::new())
            .expect("header written");
        let out = rt.malloc(256, "out").unwrap();
        rt.launch(&Fill { out: out.addr(), n: 64, v: 0.0 }, Dim3::linear(2), Dim3::linear(32))
            .unwrap();
        drop(rec);
        drop(rt);
    }
}
