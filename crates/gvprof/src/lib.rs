//! # vex-gvprof — a GVProf-style baseline value profiler
//!
//! The paper compares ValueExpert against **GVProf** (SC '20), the prior
//! GPU value profiler by the same group. GVProf differs from ValueExpert
//! in exactly the ways §7 and Table 5 enumerate, and this crate
//! reproduces that behavioural profile so the comparison experiments have
//! a real comparator:
//!
//! * **per-kernel scope** — GVProf finds temporal/spatial value
//!   redundancies *within individual kernels* (per instruction), with no
//!   pattern taxonomy, no data-object view, and no value flows across
//!   APIs;
//! * **host-side analysis** — measurement records are copied from the
//!   GPU to the CPU and analyzed there, with frequent synchronous
//!   flushes and no on-device reduction, which is why its overhead is an
//!   order of magnitude above ValueExpert's (47.3× vs 7.8× geomean in
//!   Table 5).
//!
//! The implementation rides the same canonical event stream as
//! ValueExpert — a [`vex_trace::event::EventSource`] configured with
//! GVProf's small buffer and every record shipped — so its traffic
//! counters can be priced by
//! `vex_core::overhead::OverheadModel::gvprof_cost_us`, and a trace
//! recorded by `vex record --fine` can be replayed through it offline
//! ([`replay`]).

#![deny(missing_docs)]

use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use vex_gpu::hooks::LaunchInfo;
use vex_gpu::runtime::Runtime;
use vex_trace::codec::DecodeError;
use vex_trace::container::{TraceFrame, TraceInput, TraceReader};
use vex_trace::event::{ColumnSet, Event, EventSink, EventSource, EventSourceConfig};
use vex_trace::{AcceptAll, AccessRecord, CollectorStats};

/// Per-kernel redundancy metrics, GVProf's unit of reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelRedundancy {
    /// Stores that wrote the value already present at the address
    /// (temporal store redundancy, "RedSpy-style").
    pub redundant_stores: u64,
    /// Total stores observed.
    pub total_stores: u64,
    /// Loads that re-read the same value the same address produced last
    /// time (temporal load redundancy, "LoadSpy-style").
    pub redundant_loads: u64,
    /// Total loads observed.
    pub total_loads: u64,
}

impl KernelRedundancy {
    /// Fraction of stores that were redundant.
    pub fn store_redundancy(&self) -> f64 {
        if self.total_stores == 0 {
            0.0
        } else {
            self.redundant_stores as f64 / self.total_stores as f64
        }
    }

    /// Fraction of loads that were redundant.
    pub fn load_redundancy(&self) -> f64 {
        if self.total_loads == 0 {
            0.0
        } else {
            self.redundant_loads as f64 / self.total_loads as f64
        }
    }
}

#[derive(Default)]
struct State {
    /// Last observed value per address — reset at kernel boundaries:
    /// GVProf's analysis scope is a single kernel.
    last_value: HashMap<u64, u64>,
    last_load: HashMap<u64, u64>,
    current: KernelRedundancy,
    per_kernel: BTreeMap<String, KernelRedundancy>,
}

/// The GVProf baseline profiler session.
pub struct GvProf {
    state: Mutex<State>,
}

impl std::fmt::Debug for GvProf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GvProf").field("kernels", &self.state.lock().per_kernel.len()).finish()
    }
}

/// GVProf's device buffer is small and flushed synchronously; the paper
/// attributes much of its overhead to this pipeline.
pub const GVPROF_BUFFER_RECORDS: usize = 4096;

/// GVProf's own hierarchical sampling (the technique ValueExpert §6.2
/// inherits *from* GVProf): instrument every `period`-th launch of each
/// kernel.
#[derive(Debug)]
struct PeriodicSampler {
    period: u64,
    counters: Mutex<HashMap<String, u64>>,
}

impl vex_trace::LaunchFilter for PeriodicSampler {
    fn accept(&self, info: &LaunchInfo) -> bool {
        let mut counters = self.counters.lock();
        let c = counters.entry(info.kernel_name.clone()).or_insert(0);
        let accept = (*c).is_multiple_of(self.period);
        *c += 1;
        accept
    }
}

/// A GVProf session attached to a runtime.
pub struct GvProfSession {
    profiler: Arc<GvProf>,
    source: Arc<EventSource>,
}

impl std::fmt::Debug for GvProfSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GvProfSession").finish_non_exhaustive()
    }
}

impl GvProfSession {
    /// Attaches GVProf to `rt`, instrumenting every kernel and block.
    pub fn attach(rt: &mut Runtime) -> GvProfSession {
        Self::attach_with(rt, Arc::new(AcceptAll), 1)
    }

    /// Attaches GVProf with its hierarchical sampling (kernel period and
    /// block period) — the configuration the paper's Table 5 measured
    /// against.
    pub fn attach_sampled(
        rt: &mut Runtime,
        kernel_period: u64,
        block_period: u32,
    ) -> GvProfSession {
        let sampler = PeriodicSampler {
            period: kernel_period.max(1),
            counters: Mutex::new(HashMap::new()),
        };
        Self::attach_with(rt, Arc::new(sampler), block_period.max(1))
    }

    fn attach_with(
        rt: &mut Runtime,
        filter: Arc<dyn vex_trace::LaunchFilter>,
        block_period: u32,
    ) -> GvProfSession {
        let profiler = Arc::new(GvProf { state: Mutex::new(State::default()) });
        let source = EventSource::attach(
            rt,
            gvprof_source_config(block_period),
            filter,
            profiler.clone(),
        );
        GvProfSession { profiler, source }
    }

    /// Per-kernel redundancy results (kernel name → metrics), aggregated
    /// over all launches of each kernel.
    pub fn results(&self) -> BTreeMap<String, KernelRedundancy> {
        self.profiler.state.lock().per_kernel.clone()
    }

    /// Measurement traffic, for the Table 5 overhead comparison.
    pub fn collector_stats(&self) -> CollectorStats {
        self.source.stats()
    }
}

/// The collector configuration GVProf runs under: no API interception,
/// no coarse snapshots, every record shipped through the small
/// synchronous buffer.
fn gvprof_source_config(block_period: u32) -> EventSourceConfig {
    EventSourceConfig {
        api: false,
        coarse: false,
        fine: true,
        buffer_records: GVPROF_BUFFER_RECORDS,
        block_period: block_period.max(1),
        warp_compaction: true,
    }
}

impl GvProf {
    fn on_batch(&self, records: &[AccessRecord]) {
        let mut st = self.state.lock();
        for rec in records {
            if rec.is_store {
                st.current.total_stores += 1;
                match st.last_value.insert(rec.addr, rec.bits) {
                    Some(prev) if prev == rec.bits => st.current.redundant_stores += 1,
                    _ => {}
                }
                // A store invalidates load-redundancy history for the
                // address.
                st.last_load.remove(&rec.addr);
            } else {
                st.current.total_loads += 1;
                match st.last_load.insert(rec.addr, rec.bits) {
                    Some(prev) if prev == rec.bits => st.current.redundant_loads += 1,
                    _ => {}
                }
                st.last_value.entry(rec.addr).or_insert(rec.bits);
            }
        }
    }

    fn on_launch_complete(&self, info: &LaunchInfo) {
        let mut st = self.state.lock();
        let current = std::mem::take(&mut st.current);
        let agg = st.per_kernel.entry(info.kernel_name.clone()).or_default();
        agg.redundant_stores += current.redundant_stores;
        agg.total_stores += current.total_stores;
        agg.redundant_loads += current.redundant_loads;
        agg.total_loads += current.total_loads;
        // Per-kernel scope: forget cross-kernel history.
        st.last_value.clear();
        st.last_load.clear();
    }
}

impl EventSink for GvProf {
    fn on_event(&self, event: &Event) {
        match event {
            Event::Batch { records, .. } => self.on_batch(records),
            Event::LaunchEnd { info } => self.on_launch_complete(info),
            _ => {}
        }
    }
}

/// Columns of the fine record stream GVProf reads: addresses and value
/// bits for the redundancy maps, the flags byte for load/store
/// direction, and block ids for hierarchical block sampling. PCs,
/// access sizes, and thread ids are never consulted, so a projected
/// decode may skip them.
pub const REPLAY_COLUMNS: ColumnSet =
    ColumnSet::ADDR.union(ColumnSet::BITS).union(ColumnSet::FLAGS).union(ColumnSet::BLOCK);

/// Replaying a trace through GVProf failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GvProfReplayError {
    /// The trace carries no access records.
    FineNotRecorded,
    /// A frame of the trace failed to decode.
    Decode(DecodeError),
}

impl std::fmt::Display for GvProfReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GvProfReplayError::FineNotRecorded => write!(
                f,
                "this trace has no access records; re-record with `vex record --fine` to replay \
                 it through the GVProf baseline"
            ),
            GvProfReplayError::Decode(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for GvProfReplayError {}

/// Replays a recorded trace through the GVProf baseline, re-applying its
/// hierarchical sampling (`kernel_period`, `block_period`) and simulating
/// its small synchronous buffer so the returned [`CollectorStats`] price
/// the run exactly as a live session would. Results and counters match a
/// live [`GvProfSession`] when the trace was recorded at full fidelity
/// (kernel and block period 1, as `vex record --fine` does by default);
/// a sampled recording replays only what it kept.
///
/// The trace streams through `reader` one frame at a time, decoded under
/// [`REPLAY_COLUMNS`], so memory stays one batch plus the redundancy
/// maps however long the trace.
///
/// # Errors
///
/// [`GvProfReplayError::FineNotRecorded`] when the header declares no
/// access records, before any frame is read;
/// [`GvProfReplayError::Decode`] with the first bad frame's error — the
/// one `read_trace_with` returns under [`REPLAY_COLUMNS`].
pub fn replay<R: TraceInput>(
    mut reader: TraceReader<R>,
    kernel_period: u64,
    block_period: u32,
) -> Result<(BTreeMap<String, KernelRedundancy>, CollectorStats), GvProfReplayError> {
    if !reader.flags().fine {
        return Err(GvProfReplayError::FineNotRecorded);
    }
    reader.set_columns(REPLAY_COLUMNS);
    let kernel_period = kernel_period.max(1);
    let block_period = block_period.max(1);
    let profiler = GvProf { state: Mutex::new(State::default()) };
    let mut stats = CollectorStats::default();
    let mut counters: HashMap<String, u64> = HashMap::new();
    let mut active: Option<Arc<LaunchInfo>> = None;
    let mut buffer: Vec<AccessRecord> = Vec::with_capacity(GVPROF_BUFFER_RECORDS);
    fn flush(
        profiler: &GvProf,
        stats: &mut CollectorStats,
        info: &Arc<LaunchInfo>,
        buffer: &mut Vec<AccessRecord>,
    ) {
        if buffer.is_empty() {
            return;
        }
        stats.flushes += 1;
        stats.bytes_flushed += buffer.len() as u64 * AccessRecord::DEVICE_BYTES;
        let records = Arc::new(std::mem::take(buffer));
        profiler.on_event(&Event::Batch { info: info.clone(), records });
    }
    while let Some(frame) = reader.next_frame().map_err(GvProfReplayError::Decode)? {
        let TraceFrame::Event(event) = frame else { continue };
        match &event {
            Event::LaunchBegin { info } => {
                let c = counters.entry(info.kernel_name.clone()).or_insert(0);
                let accept = c.is_multiple_of(kernel_period);
                *c += 1;
                if accept {
                    stats.instrumented_launches += 1;
                    active = Some(info.clone());
                } else {
                    stats.skipped_launches += 1;
                    active = None;
                }
            }
            Event::Batch { info, records } => {
                if active.as_ref().is_none_or(|a| !Arc::ptr_eq(a, info)) {
                    continue;
                }
                for rec in records.iter() {
                    stats.events_checked += 1;
                    if !rec.block.is_multiple_of(block_period) {
                        continue;
                    }
                    stats.events += 1;
                    buffer.push(*rec);
                    if buffer.len() >= GVPROF_BUFFER_RECORDS {
                        flush(&profiler, &mut stats, info, &mut buffer);
                    }
                }
            }
            Event::LaunchEnd { info } => {
                if active.as_ref().is_some_and(|a| Arc::ptr_eq(a, info)) {
                    flush(&profiler, &mut stats, info, &mut buffer);
                    profiler.on_event(&Event::LaunchEnd { info: info.clone() });
                    active = None;
                }
            }
            Event::SkippedLaunch { info } => {
                // The recording session already declined this launch; its
                // kernel still advances the sampling counter so replayed
                // periods line up with a live session's.
                let c = counters.entry(info.kernel_name.clone()).or_insert(0);
                *c += 1;
                stats.skipped_launches += 1;
            }
            Event::Api { .. } => {}
        }
    }
    let results = profiler.state.into_inner().per_kernel;
    Ok((results, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vex_gpu::dim::Dim3;
    use vex_gpu::exec::ThreadCtx;
    use vex_gpu::ir::{InstrTable, InstrTableBuilder, MemSpace, Pc, ScalarType};
    use vex_gpu::kernel::Kernel;
    use vex_gpu::timing::DeviceSpec;

    struct StoreConst {
        base: u64,
        n: usize,
        v: u32,
    }
    impl Kernel for StoreConst {
        fn name(&self) -> &str {
            "store_const"
        }
        fn instr_table(&self) -> InstrTable {
            InstrTableBuilder::new().store(Pc(0), ScalarType::U32, MemSpace::Global).build()
        }
        fn execute(&self, ctx: &mut ThreadCtx<'_>) {
            let i = ctx.global_thread_id();
            if i < self.n {
                ctx.store::<u32>(Pc(0), self.base + (i * 4) as u64, self.v);
            }
        }
    }

    #[test]
    fn detects_temporal_store_redundancy_within_kernel_history() {
        let mut rt = Runtime::new(DeviceSpec::test_small());
        let gv = GvProfSession::attach(&mut rt);
        let buf = rt.malloc(256, "buf").unwrap();
        // Launch twice with the same value: within each launch there is no
        // redundancy (fresh history), because GVProf's scope is per kernel.
        rt.launch(
            &StoreConst { base: buf.addr(), n: 16, v: 7 },
            Dim3::linear(1),
            Dim3::linear(16),
        )
        .unwrap();
        rt.launch(
            &StoreConst { base: buf.addr(), n: 16, v: 7 },
            Dim3::linear(1),
            Dim3::linear(16),
        )
        .unwrap();
        let r = &gv.results()["store_const"];
        assert_eq!(r.total_stores, 32);
        assert_eq!(
            r.redundant_stores, 0,
            "cross-kernel redundancy is invisible to GVProf — the deficit \
             ValueExpert's coarse analysis fixes"
        );
    }

    #[test]
    fn detects_redundancy_inside_one_kernel() {
        struct DoubleStore {
            base: u64,
        }
        impl Kernel for DoubleStore {
            fn name(&self) -> &str {
                "double_store"
            }
            fn instr_table(&self) -> InstrTable {
                InstrTableBuilder::new()
                    .store(Pc(0), ScalarType::U32, MemSpace::Global)
                    .store(Pc(1), ScalarType::U32, MemSpace::Global)
                    .build()
            }
            fn execute(&self, ctx: &mut ThreadCtx<'_>) {
                let a = self.base + (ctx.global_thread_id() * 4) as u64;
                ctx.store::<u32>(Pc(0), a, 5);
                ctx.store::<u32>(Pc(1), a, 5); // same value again
            }
        }
        let mut rt = Runtime::new(DeviceSpec::test_small());
        let gv = GvProfSession::attach(&mut rt);
        let buf = rt.malloc(256, "buf").unwrap();
        rt.launch(&DoubleStore { base: buf.addr() }, Dim3::linear(1), Dim3::linear(8)).unwrap();
        let r = &gv.results()["double_store"];
        assert_eq!(r.total_stores, 16);
        assert_eq!(r.redundant_stores, 8);
        assert_eq!(r.store_redundancy(), 0.5);
    }

    #[test]
    fn load_redundancy() {
        struct DoubleLoad {
            base: u64,
        }
        impl Kernel for DoubleLoad {
            fn name(&self) -> &str {
                "double_load"
            }
            fn instr_table(&self) -> InstrTable {
                InstrTableBuilder::new()
                    .load(Pc(0), ScalarType::U32, MemSpace::Global)
                    .load(Pc(1), ScalarType::U32, MemSpace::Global)
                    .build()
            }
            fn execute(&self, ctx: &mut ThreadCtx<'_>) {
                let a = self.base + (ctx.global_thread_id() * 4) as u64;
                let _: u32 = ctx.load(Pc(0), a);
                let _: u32 = ctx.load(Pc(1), a);
            }
        }
        let mut rt = Runtime::new(DeviceSpec::test_small());
        let gv = GvProfSession::attach(&mut rt);
        let buf = rt.malloc(256, "buf").unwrap();
        rt.memset(buf, 0, 256).unwrap();
        rt.launch(&DoubleLoad { base: buf.addr() }, Dim3::linear(1), Dim3::linear(8)).unwrap();
        let r = &gv.results()["double_load"];
        assert_eq!(r.total_loads, 16);
        assert_eq!(r.redundant_loads, 8);
        assert_eq!(r.load_redundancy(), 0.5);
    }

    #[test]
    fn collector_traffic_is_counted() {
        let mut rt = Runtime::new(DeviceSpec::test_small());
        let gv = GvProfSession::attach(&mut rt);
        let buf = rt.malloc(1024, "buf").unwrap();
        rt.launch(
            &StoreConst { base: buf.addr(), n: 200, v: 1 },
            Dim3::linear(7),
            Dim3::linear(32),
        )
        .unwrap();
        let s = gv.collector_stats();
        assert_eq!(s.events, 200);
        assert!(s.flushes >= 1);
        assert_eq!(s.instrumented_launches, 1);
    }
}
