//! The coarse-grained analyzer (§5.1).
//!
//! At every GPU API invocation, ValueExpert captures a *value snapshot*
//! of the data objects the API touched, maintained CPU-side to spare GPU
//! memory. Comparing the snapshot before and after the API yields the
//! **redundant values** pattern; a SHA-256 hash of each post-API snapshot
//! groups objects for the **duplicate values** pattern. For kernel
//! launches, the touched addresses come from the interval monitor: raw
//! access intervals are compacted warp-by-warp, merged with the parallel
//! algorithm of §6.1, and only the merged ranges are copied (with the
//! adaptive strategy of Figure 5) to update snapshots.
//!
//! The same pass constructs the value flow graph of §5.2.

use crate::copy_strategy::{plan_adaptive, AdaptivePolicy, CopyPlan, ObjectCopyPlan};
use crate::flowgraph::{AccessKind, FlowGraph, VertexId, VertexKind};
use vex_trace::interval::{merge_parallel, Interval};
// The warp-level interval monitor now lives with the canonical event model
// (`vex_trace::event`), where the shared `EventSource` runs it once for
// every engine; the coarse analyzer only consumes its output.
use crate::patterns::PatternConfig;
use crate::registry::ObjectRegistry;
use crate::sha256::{sha256, Digest};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use vex_gpu::alloc::AllocId;
use vex_gpu::callpath::CallPathId;
use vex_gpu::hooks::{ApiEvent, ApiKind, DeviceView};
use vex_gpu::memory::DevicePtr;
pub(crate) use vex_trace::event::KernelIntervals;

/// A redundant-values finding: a write that left ≥ threshold of its bytes
/// unchanged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RedundancyFinding {
    /// Flow-graph vertex of the offending API.
    pub vertex: VertexId,
    /// API tag or kernel name.
    pub api: String,
    /// Calling context of the API.
    pub context: CallPathId,
    /// The written object.
    pub object: AllocId,
    /// The object's allocation label.
    pub object_label: String,
    /// Bytes the API wrote.
    pub written_bytes: u64,
    /// Bytes whose value did not change.
    pub unchanged_bytes: u64,
}

impl RedundancyFinding {
    /// Unchanged fraction of the written bytes.
    pub fn fraction(&self) -> f64 {
        if self.written_bytes == 0 {
            0.0
        } else {
            self.unchanged_bytes as f64 / self.written_bytes as f64
        }
    }
}

/// A duplicate-values finding: two objects with identical snapshots after
/// some API.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DuplicateFinding {
    /// Vertex of the API after which the duplication held.
    pub vertex: VertexId,
    /// The two objects (ordered by id).
    pub objects: (AllocId, AllocId),
    /// Their allocation labels.
    pub labels: (String, String),
    /// Snapshot size in bytes.
    pub bytes: u64,
}

/// Measurement traffic of the coarse pass, input to the overhead model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoarseTraffic {
    /// Raw access intervals observed in kernels.
    pub raw_intervals: u64,
    /// Intervals after warp compaction.
    pub compacted_intervals: u64,
    /// Intervals after the full parallel merge.
    pub merged_intervals: u64,
    /// Bytes copied GPU→CPU to update snapshots.
    pub snapshot_bytes: u64,
    /// Snapshot copy API calls.
    pub snapshot_calls: u64,
    /// Bytes hashed for duplicate detection.
    pub bytes_hashed: u64,
    /// Bytes compared for redundancy detection.
    pub bytes_compared: u64,
}

/// A device range the coarse pass had to read but the capture does not
/// hold. The recorder captures every allocation and every write range
/// whole, so a gap means the trace is corrupt or crafted; replay reports
/// it as an error instead of analyzing around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaptureGap {
    /// Sequence number of the API call whose analysis needed the range.
    pub seq: u64,
    /// First address of the missing range.
    pub addr: u64,
    /// Length of the missing range in bytes.
    pub len: u64,
}

impl std::fmt::Display for CaptureGap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "API call {} needs the {} bytes at {:#x}, which the trace did not capture",
            self.seq, self.len, self.addr
        )
    }
}

/// Reads `[addr, addr+len)` from `view`, or `None` when the view does
/// not hold the range; checked before any buffer is sized for it.
fn read_covered(view: &dyn DeviceView, addr: u64, len: u64) -> Option<Vec<u8>> {
    if view.covers(addr, len) {
        view.read_vec(addr, len).ok()
    } else {
        None
    }
}

/// Per-object CPU-side state.
#[derive(Debug)]
struct ObjectState {
    shadow: Vec<u8>,
    hash: Option<Digest>,
    label: String,
}

/// The coarse-grained analyzer state. Driven by the profiler front-end
/// (`crate::profiler`), which owns the hook glue.
#[derive(Debug)]
pub struct CoarseState {
    config: PatternConfig,
    policy: AdaptivePolicy,
    flow: FlowGraph,
    objects: HashMap<AllocId, ObjectState>,
    alloc_vertex: HashMap<AllocId, VertexId>,
    redundancies: Vec<RedundancyFinding>,
    duplicates: Vec<DuplicateFinding>,
    seen_duplicates: BTreeSet<(AllocId, AllocId, VertexId)>,
    copy_plans: BTreeMap<String, ObjectCopyPlan>,
    traffic: CoarseTraffic,
    gap: Option<CaptureGap>,
    /// Intervals of the in-flight kernel (if any).
    pub(crate) current_kernel: Option<KernelIntervals>,
}

impl CoarseState {
    /// Creates an empty coarse analyzer.
    pub fn new(config: PatternConfig, policy: AdaptivePolicy) -> Self {
        CoarseState {
            config,
            policy,
            flow: FlowGraph::new(),
            objects: HashMap::new(),
            alloc_vertex: HashMap::new(),
            redundancies: Vec::new(),
            duplicates: Vec::new(),
            seen_duplicates: BTreeSet::new(),
            copy_plans: BTreeMap::new(),
            traffic: CoarseTraffic::default(),
            gap: None,
            current_kernel: None,
        }
    }

    /// The value flow graph built so far.
    pub fn flow_graph(&self) -> &FlowGraph {
        &self.flow
    }

    /// Redundant-values findings.
    pub fn redundancies(&self) -> &[RedundancyFinding] {
        &self.redundancies
    }

    /// Duplicate-values findings.
    pub fn duplicates(&self) -> &[DuplicateFinding] {
        &self.duplicates
    }

    /// Per-object copy-strategy tallies, sorted by allocation label.
    pub fn copy_plans(&self) -> Vec<ObjectCopyPlan> {
        self.copy_plans.values().cloned().collect()
    }

    /// Measurement traffic counters.
    pub fn traffic(&self) -> CoarseTraffic {
        self.traffic
    }

    /// The first range the capture did not hold, if any. Once set, the
    /// analyzer ignores later events: its products are incomplete.
    pub fn capture_gap(&self) -> Option<CaptureGap> {
        self.gap
    }

    /// Handles one API event (after execution).
    pub fn on_api_after(
        &mut self,
        event: &ApiEvent,
        registry: &ObjectRegistry,
        view: &dyn DeviceView,
    ) {
        if self.gap.is_some() {
            return;
        }
        if let Err(missing) = self.analyze_api(event, registry, view) {
            self.gap =
                Some(CaptureGap { seq: event.seq, addr: missing.start, len: missing.len() });
        }
    }

    /// [`CoarseState::on_api_after`]'s analysis; `Err` carries the first
    /// range `view` does not hold.
    fn analyze_api(
        &mut self,
        event: &ApiEvent,
        registry: &ObjectRegistry,
        view: &dyn DeviceView,
    ) -> Result<(), Interval> {
        match &event.kind {
            ApiKind::Malloc { info } => {
                let v = self.flow.intern_vertex(VertexKind::Alloc, &info.label, event.context);
                self.alloc_vertex.insert(info.id, v);
                self.flow.set_initial_writer(info.id, v);
                let shadow = read_covered(view, info.addr, info.size).ok_or(Interval {
                    start: info.addr,
                    end: info.addr.saturating_add(info.size),
                })?;
                self.objects.insert(
                    info.id,
                    ObjectState { shadow, hash: None, label: info.label.clone() },
                );
            }
            ApiKind::Free { info } => {
                self.objects.remove(&info.id);
            }
            ApiKind::Memset { dst, bytes, .. } => {
                let v = self.flow.intern_vertex(VertexKind::Memset, "memset", event.context);
                self.write_range(v, "memset", event.context, *dst, *bytes, registry, view)?;
            }
            ApiKind::MemcpyH2D { dst, bytes } => {
                let v =
                    self.flow.intern_vertex(VertexKind::Memcpy, "memcpy_h2d", event.context);
                if let Some(obj) = registry.find(dst.addr()) {
                    self.flow.record_host_source(v, obj.id, *bytes);
                }
                self.write_range(v, "memcpy_h2d", event.context, *dst, *bytes, registry, view)?;
            }
            ApiKind::MemcpyD2H { src, bytes } => {
                let v =
                    self.flow.intern_vertex(VertexKind::Memcpy, "memcpy_d2h", event.context);
                if let Some(obj) = registry.find(src.addr()) {
                    self.flow.record_access(v, obj.id, AccessKind::Read, *bytes, 0);
                    self.flow.record_host_sink(v, obj.id, *bytes);
                }
            }
            ApiKind::MemcpyD2D { dst, src, bytes } => {
                let v =
                    self.flow.intern_vertex(VertexKind::Memcpy, "memcpy_d2d", event.context);
                if let Some(obj) = registry.find(src.addr()) {
                    self.flow.record_access(v, obj.id, AccessKind::Read, *bytes, 0);
                }
                self.write_range(v, "memcpy_d2d", event.context, *dst, *bytes, registry, view)?;
            }
            ApiKind::KernelLaunch { name, .. } => {
                let v = self.flow.intern_vertex(VertexKind::Kernel, name, event.context);
                if let Some(collected) = self.current_kernel.take() {
                    let (reads, writes, raw, compacted) = collected.finish();
                    self.traffic.raw_intervals += raw;
                    self.traffic.compacted_intervals += compacted;
                    self.kernel_intervals(
                        v,
                        name,
                        event.context,
                        reads,
                        writes,
                        registry,
                        view,
                    )?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Processes a contiguous write `[dst, dst+bytes)` by API `v`.
    #[allow(clippy::too_many_arguments)] // mirrors diff_and_update's shape
    fn write_range(
        &mut self,
        v: VertexId,
        api: &str,
        context: CallPathId,
        dst: DevicePtr,
        bytes: u64,
        registry: &ObjectRegistry,
        view: &dyn DeviceView,
    ) -> Result<(), Interval> {
        let Some(obj) = registry.find(dst.addr()).cloned() else {
            return Ok(());
        };
        let end = (dst.addr() + bytes).min(obj.addr + obj.size);
        if end <= dst.addr() {
            return Ok(());
        }
        let intervals = vec![Interval::new(dst.addr(), end)];
        self.diff_and_update(v, api, context, obj.id, &obj.label, obj.addr, &intervals, view)
    }

    /// Processes merged kernel intervals against all overlapped objects.
    #[allow(clippy::too_many_arguments)]
    fn kernel_intervals(
        &mut self,
        v: VertexId,
        name: &str,
        context: CallPathId,
        reads: Vec<Interval>,
        writes: Vec<Interval>,
        registry: &ObjectRegistry,
        view: &dyn DeviceView,
    ) -> Result<(), Interval> {
        let merged_reads = merge_parallel(&reads);
        let merged_writes = merge_parallel(&writes);
        self.traffic.merged_intervals += (merged_reads.len() + merged_writes.len()) as u64;

        // Reads: record flow edges per object.
        for (obj, ivs) in split_by_object(&merged_reads, registry) {
            let bytes: u64 = ivs.iter().map(Interval::len).sum();
            self.flow.record_access(v, obj, AccessKind::Read, bytes, 0);
        }
        // Writes: snapshot diff per object.
        for (obj, ivs) in split_by_object(&merged_writes, registry) {
            let info = registry.info(obj).expect("split_by_object yields known objects");
            let (addr, label) = (info.addr, info.label.clone());
            self.diff_and_update(v, name, context, obj, &label, addr, &ivs, view)?;
        }
        Ok(())
    }

    /// Diffs shadow vs device over `intervals` of one object, records the
    /// write edge, emits a redundancy finding when warranted, updates the
    /// shadow, and refreshes the duplicate hash. `Err` carries the first
    /// interval `view` does not hold.
    #[allow(clippy::too_many_arguments)]
    fn diff_and_update(
        &mut self,
        v: VertexId,
        api: &str,
        context: CallPathId,
        obj: AllocId,
        label: &str,
        obj_addr: u64,
        intervals: &[Interval],
        view: &dyn DeviceView,
    ) -> Result<(), Interval> {
        let Some(state) = self.objects.get_mut(&obj) else {
            return Ok(());
        };
        let plan: CopyPlan = plan_adaptive(intervals, state.shadow.len() as u64, &self.policy);
        self.traffic.snapshot_bytes += plan.bytes;
        self.traffic.snapshot_calls += plan.calls;
        self.copy_plans
            .entry(label.to_owned())
            .or_insert_with(|| ObjectCopyPlan::new(label))
            .tally(&plan);

        let mut written = 0u64;
        let mut unchanged = 0u64;
        for iv in intervals {
            let off = (iv.start - obj_addr) as usize;
            let len = iv.len() as usize;
            let new = read_covered(view, iv.start, iv.len()).ok_or(*iv)?;
            let old = &state.shadow[off..off + len];
            unchanged += unchanged_bytes(old, &new, iv.start);
            written += len as u64;
            state.shadow[off..off + len].copy_from_slice(&new);
        }
        self.traffic.bytes_compared += written;

        self.flow.record_access(v, obj, AccessKind::Write, written, unchanged);

        if written > 0 && unchanged as f64 / written as f64 >= self.config.redundancy_threshold
        {
            self.redundancies.push(RedundancyFinding {
                vertex: v,
                api: api.to_owned(),
                context,
                object: obj,
                object_label: label.to_owned(),
                written_bytes: written,
                unchanged_bytes: unchanged,
            });
        }

        // Duplicate detection: rehash this object and compare with others.
        let digest = sha256(&state.shadow);
        self.traffic.bytes_hashed += state.shadow.len() as u64;
        state.hash = Some(digest);
        let size = state.shadow.len() as u64;
        let mut dups: Vec<AllocId> = Vec::new();
        for (&other, other_state) in &self.objects {
            if other != obj && other_state.hash == Some(digest) {
                dups.push(other);
            }
        }
        // `objects` is a HashMap; sort so finding order does not depend on
        // its per-process iteration order.
        dups.sort_unstable();
        for other in dups {
            let key = if obj < other { (obj, other, v) } else { (other, obj, v) };
            if self.seen_duplicates.insert(key) {
                let other_label =
                    self.objects.get(&other).map(|s| s.label.clone()).unwrap_or_default();
                self.duplicates.push(DuplicateFinding {
                    vertex: v,
                    objects: (key.0, key.1),
                    labels: if obj < other {
                        (label.to_owned(), other_label)
                    } else {
                        (other_label, label.to_owned())
                    },
                    bytes: size,
                });
            }
        }
        Ok(())
    }
}

/// Counts unchanged bytes between two snapshots of the same range.
///
/// Comparison runs at aligned 32-bit-word granularity (a word counts as
/// unchanged only if all four bytes match), falling back to bytes at
/// unaligned edges. Element-level comparison avoids crediting partial
/// matches inside a changed value — e.g. storing `1.0f32` over `0.0f32`
/// leaves two of four bytes equal but is not a redundant write.
fn unchanged_bytes(old: &[u8], new: &[u8], start_addr: u64) -> u64 {
    debug_assert_eq!(old.len(), new.len());
    let mut unchanged = 0u64;
    let mut i = 0usize;
    // Unaligned head.
    while i < old.len() && !(start_addr + i as u64).is_multiple_of(4) {
        unchanged += u64::from(old[i] == new[i]);
        i += 1;
    }
    // Aligned words.
    while i + 4 <= old.len() {
        if old[i..i + 4] == new[i..i + 4] {
            unchanged += 4;
        }
        i += 4;
    }
    // Tail bytes.
    while i < old.len() {
        unchanged += u64::from(old[i] == new[i]);
        i += 1;
    }
    unchanged
}

/// Splits disjoint sorted intervals by the object containing them,
/// clipping at object bounds. Addresses outside any live object are
/// dropped (they cannot be attributed to a data object).
///
/// Shared with the pipelined engine (`crate::pipeline`), which runs the
/// same split on the application thread to decide which byte ranges to
/// capture for deferred replay.
pub(crate) fn split_by_object(
    intervals: &[Interval],
    registry: &ObjectRegistry,
) -> BTreeMap<AllocId, Vec<Interval>> {
    let mut out: BTreeMap<AllocId, Vec<Interval>> = BTreeMap::new();
    for iv in intervals {
        let mut cursor = iv.start;
        while cursor < iv.end {
            match registry.find(cursor) {
                Some(info) => {
                    let end = iv.end.min(info.addr + info.size);
                    out.entry(info.id).or_default().push(Interval::new(cursor, end));
                    cursor = end;
                }
                None => {
                    // Skip to the next byte; gaps between allocations are
                    // at most the alignment padding, so this loop is short.
                    cursor += 1;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vex_gpu::alloc::AllocationInfo;
    use vex_gpu::stream::StreamId;

    struct FakeView {
        mem: Vec<u8>,
    }
    impl DeviceView for FakeView {
        fn read(&self, addr: u64, dst: &mut [u8]) -> Result<(), vex_gpu::error::GpuError> {
            dst.copy_from_slice(&self.mem[addr as usize..addr as usize + dst.len()]);
            Ok(())
        }
        fn covers(&self, addr: u64, len: u64) -> bool {
            addr.checked_add(len).is_some_and(|end| end <= self.mem.len() as u64)
        }
        fn find_allocation(&self, _addr: u64) -> Option<AllocationInfo> {
            None
        }
        fn live_allocations(&self) -> Vec<AllocationInfo> {
            Vec::new()
        }
    }

    fn alloc_info(id: u64, addr: u64, size: u64, label: &str) -> AllocationInfo {
        AllocationInfo {
            id: AllocId(id),
            addr,
            size,
            label: label.to_owned(),
            context: CallPathId::ROOT,
            live: true,
        }
    }

    fn ev(seq: u64, kind: ApiKind) -> ApiEvent {
        ApiEvent { seq, kind, context: CallPathId(seq as u32), stream: StreamId::DEFAULT }
    }

    fn setup() -> (CoarseState, ObjectRegistry, FakeView) {
        (
            CoarseState::new(PatternConfig::default(), AdaptivePolicy::default()),
            ObjectRegistry::new(),
            FakeView { mem: vec![0u8; 4096] },
        )
    }

    #[test]
    fn memset_onto_zeros_is_redundant() {
        let (mut c, mut reg, mut view) = setup();
        let info = alloc_info(1, 256, 64, "buf");
        reg.on_alloc(&info);
        view.mem[256..320].fill(0xCD); // poison
        c.on_api_after(&ev(0, ApiKind::Malloc { info: info.clone() }), &reg, &view);

        // First memset 0: changes poison -> zeros, not redundant.
        view.mem[256..320].fill(0);
        c.on_api_after(
            &ev(1, ApiKind::Memset { dst: DevicePtr(256), value: 0, bytes: 64 }),
            &reg,
            &view,
        );
        assert!(c.redundancies().is_empty());

        // Second memset 0: fully redundant.
        c.on_api_after(
            &ev(2, ApiKind::Memset { dst: DevicePtr(256), value: 0, bytes: 64 }),
            &reg,
            &view,
        );
        assert_eq!(c.redundancies().len(), 1);
        let f = &c.redundancies()[0];
        assert_eq!(f.fraction(), 1.0);
        assert_eq!(f.object, AllocId(1));
        assert_eq!(f.object_label, "buf");
    }

    #[test]
    fn h2d_copy_of_identical_bytes_is_redundant() {
        let (mut c, mut reg, mut view) = setup();
        let info = alloc_info(1, 256, 16, "w");
        reg.on_alloc(&info);
        view.mem[256..272].fill(7);
        c.on_api_after(&ev(0, ApiKind::Malloc { info }), &reg, &view);
        // Shadow captured 7s; the "copy" left the same 7s in memory.
        c.on_api_after(
            &ev(1, ApiKind::MemcpyH2D { dst: DevicePtr(256), bytes: 16 }),
            &reg,
            &view,
        );
        assert_eq!(c.redundancies().len(), 1);
        // Host source edge exists.
        let host = c.flow_graph().host_vertex();
        assert!(c.flow_graph().edges().any(|(f, _, _, _)| f == host));
    }

    #[test]
    fn duplicates_detected_via_hash() {
        let (mut c, mut reg, mut view) = setup();
        for (id, addr, label) in [(1, 256, "a"), (2, 512, "b")] {
            let info = alloc_info(id, addr, 32, label);
            reg.on_alloc(&info);
            view.mem[addr as usize..addr as usize + 32].fill(0xCD);
            c.on_api_after(&ev(id, ApiKind::Malloc { info }), &reg, &view);
        }
        // Write identical content into both via memset.
        view.mem[256..288].fill(3);
        c.on_api_after(
            &ev(10, ApiKind::Memset { dst: DevicePtr(256), value: 3, bytes: 32 }),
            &reg,
            &view,
        );
        assert!(c.duplicates().is_empty(), "only one object hashed so far");
        view.mem[512..544].fill(3);
        c.on_api_after(
            &ev(11, ApiKind::Memset { dst: DevicePtr(512), value: 3, bytes: 32 }),
            &reg,
            &view,
        );
        assert_eq!(c.duplicates().len(), 1);
        let d = &c.duplicates()[0];
        assert_eq!(d.objects, (AllocId(1), AllocId(2)));
        assert_eq!(d.bytes, 32);
    }

    #[test]
    fn kernel_intervals_drive_redundancy() {
        let (mut c, mut reg, mut view) = setup();
        let info = alloc_info(1, 256, 128, "data");
        reg.on_alloc(&info);
        c.on_api_after(&ev(0, ApiKind::Malloc { info }), &reg, &view);
        // Shadow currently zeros (mem zeros). Kernel "writes" the first 64
        // bytes but leaves memory unchanged -> fully redundant.
        let mut k = KernelIntervals::default();
        for t in 0..16u32 {
            k.add(0, t, Interval::new(256 + t as u64 * 4, 260 + t as u64 * 4), true);
        }
        c.current_kernel = Some(k);
        c.on_api_after(
            &ev(
                1,
                ApiKind::KernelLaunch {
                    launch: vex_gpu::hooks::LaunchId(0),
                    name: "fill".into(),
                },
            ),
            &reg,
            &view,
        );
        assert_eq!(c.redundancies().len(), 1);
        assert_eq!(c.redundancies()[0].written_bytes, 64);
        let t = c.traffic();
        assert_eq!(t.raw_intervals, 16);
        assert!(t.compacted_intervals < 16, "warp compaction collapsed coalesced accesses");
        assert_eq!(t.merged_intervals, 1);

        // Now the kernel writes different values -> not redundant.
        view.mem[256..320].fill(9);
        let mut k = KernelIntervals::default();
        k.add(0, 0, Interval::new(256, 320), true);
        c.current_kernel = Some(k);
        c.on_api_after(
            &ev(
                2,
                ApiKind::KernelLaunch {
                    launch: vex_gpu::hooks::LaunchId(1),
                    name: "fill".into(),
                },
            ),
            &reg,
            &view,
        );
        assert_eq!(c.redundancies().len(), 1, "no new finding");
    }

    #[test]
    fn kernel_reads_create_read_edges() {
        let (mut c, mut reg, view) = setup();
        let info = alloc_info(1, 256, 64, "in");
        reg.on_alloc(&info);
        c.on_api_after(&ev(0, ApiKind::Malloc { info }), &reg, &view);
        let mut k = KernelIntervals::default();
        k.add(0, 0, Interval::new(256, 320), false);
        c.current_kernel = Some(k);
        c.on_api_after(
            &ev(
                1,
                ApiKind::KernelLaunch {
                    launch: vex_gpu::hooks::LaunchId(0),
                    name: "consume".into(),
                },
            ),
            &reg,
            &view,
        );
        assert!(c.redundancies().is_empty());
        let g = c.flow_graph();
        let kernel = g.find_by_name("consume").unwrap();
        let (_, _, _, d) = g.edges().find(|&(_, t, _, _)| t == kernel).unwrap();
        assert_eq!(d.reads, 1);
        assert_eq!(d.bytes, 64);
    }

    #[test]
    fn uncaptured_ranges_record_the_first_gap() {
        use vex_gpu::hooks::CapturedView;
        let (mut c, mut reg, _) = setup();
        let info = alloc_info(1, 256, 64, "buf");
        reg.on_alloc(&info);
        let whole = CapturedView::from_segments(vec![(256, vec![0; 64])]);
        c.on_api_after(&ev(0, ApiKind::Malloc { info }), &reg, &whole);
        assert_eq!(c.capture_gap(), None);
        let partial = CapturedView::from_segments(vec![(256, vec![0; 16])]);
        let memset = ApiKind::Memset { dst: DevicePtr(256), value: 0, bytes: 32 };
        c.on_api_after(&ev(1, memset.clone()), &reg, &partial);
        let gap = CaptureGap { seq: 1, addr: 256, len: 32 };
        assert_eq!(c.capture_gap(), Some(gap));
        // Later events are ignored; the first gap stays.
        c.on_api_after(&ev(2, memset), &reg, &CapturedView::new());
        assert_eq!(c.capture_gap(), Some(gap));
        assert!(c.redundancies().is_empty());
    }

    #[test]
    fn split_by_object_clips_and_drops_gaps() {
        let mut reg = ObjectRegistry::new();
        reg.on_alloc(&alloc_info(1, 256, 64, "a"));
        reg.on_alloc(&alloc_info(2, 512, 64, "b"));
        let ivs = vec![Interval::new(300, 530)]; // spans a's tail, the gap, b's head
        let split = split_by_object(&ivs, &reg);
        assert_eq!(split[&AllocId(1)], vec![Interval::new(300, 320)]);
        assert_eq!(split[&AllocId(2)], vec![Interval::new(512, 530)]);
    }

    #[test]
    fn freed_objects_are_ignored() {
        let (mut c, mut reg, view) = setup();
        let info = alloc_info(1, 256, 64, "a");
        reg.on_alloc(&info);
        c.on_api_after(&ev(0, ApiKind::Malloc { info: info.clone() }), &reg, &view);
        c.on_api_after(&ev(1, ApiKind::Free { info: info.clone() }), &reg, &view);
        reg.on_free(&info);
        // Writing at the stale address produces no finding and no panic.
        c.on_api_after(
            &ev(2, ApiKind::Memset { dst: DevicePtr(256), value: 0, bytes: 64 }),
            &reg,
            &view,
        );
        assert!(c.redundancies().is_empty());
    }
}
