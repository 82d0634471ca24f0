//! The analysis engine: one set of pass bodies, run inline or sharded.
//!
//! Every analysis step — record decoding, pattern recognition, snapshot
//! diffing, SHA-256 hashing — consumes the canonical event stream
//! ([`vex_trace::event::EventSource`] live, or a recorded trace) through
//! the pass bodies of this module: [`on_api`] for the coarse pass and
//! the object registry, [`FineState`] for the fine pass, and [`Aux`] for
//! reuse distance and race detection. [`Engine`] runs them one of two
//! ways:
//!
//! * **Inline** (zero shards): the bodies run on the publishing thread,
//!   in stream order, behind one lock — no threads, no channels.
//! * **Sharded**: the bodies run on worker threads, mirroring the
//!   paper's design goal of keeping the collector fast and deferring
//!   analysis (§4). Publishing only clones the `Arc`-shared event
//!   payloads into bounded [`crossbeam::channel`]s.
//!
//! # Sharded topology
//!
//! ```text
//! EventSource ──Api events (+ captured bytes)──────────▶ coarse worker
//!     │                                                  (snapshot diff,
//!     │ record batches (Arc clone + send)                 SHA-256, flow graph)
//!     ▼
//!  router ──per-shard sub-batches──▶ fine shard 0..N-1   (decode, ValueStats,
//!     │                                                   recognizers)
//!     └────full batches (Arc)──────▶ aux worker          (reuse distance,
//!                                                         race detection)
//! ```
//!
//! * **Fine shards** partition work by [`ObjectKey`]: every record of one
//!   `(object, direction)` stream is routed to the same shard, so the
//!   order-sensitive per-key `ValueStats` accumulation is identical to
//!   the inline engine's. The router owns a registry replica (fed by
//!   in-band alloc/free events) to attribute addresses to keys.
//! * The **aux worker** runs the globally order-sensitive analyses (reuse
//!   distance, race detection) sequentially over the unsharded stream.
//! * The **coarse worker** runs [`on_api`] against the [`CapturedView`]
//!   carried by each API event: device memory is only valid during the
//!   hook callback, so the `EventSource` captures exactly the byte ranges
//!   the analysis will read.
//!
//! # Determinism
//!
//! Reports are **byte-identical** regardless of worker count: key routing
//! preserves per-key record order, every channel is FIFO, the workers run
//! the inline engine's bodies on identical inputs, and both engines
//! reduce their snapshots through one function ([`reduce`]), which puts
//! fine findings in launch order, objects in key order within each
//! launch — the order one [`FineState`] already produces. The equivalence
//! suite in `tests/pipeline_equivalence.rs` locks this in for every
//! bundled workload under 1, 2, and 8 shards.

use crate::coarse::{CaptureGap, CoarseState, CoarseTraffic, KernelIntervals};
use crate::coarse::{DuplicateFinding, RedundancyFinding};
use crate::copy_strategy::{AdaptivePolicy, ObjectCopyPlan};
use crate::fine::{merge_findings, FineFinding, FineState, FineTraffic};
use crate::flowgraph::FlowGraph;
use crate::patterns::PatternConfig;
use crate::races::{RaceDetector, RaceReport};
use crate::registry::{ObjectKey, ObjectRegistry};
use crate::reuse::{ReuseAnalyzer, ReuseHistogram};
use crate::sampling::BlockSampler;
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::sync::Arc;
use std::thread::JoinHandle;
use vex_gpu::alloc::{AllocId, AllocationInfo};
use vex_gpu::hooks::{ApiEvent, ApiKind, CapturedView, LaunchInfo};
use vex_gpu::ir::MemSpace;
use vex_trace::event::{ColumnSet, Event, EventSink, KernelSummary};
use vex_trace::AccessRecord;

/// Static configuration of an analysis engine, built by
/// `ProfilerBuilder`.
pub(crate) struct PipelineSpec {
    /// Number of fine analysis shards; `0` runs the passes inline.
    pub shards: usize,
    /// Capacity of each bounded channel, in messages.
    pub queue_depth: usize,
    /// Coarse pass enabled.
    pub coarse: bool,
    /// Fine pass enabled.
    pub fine: bool,
    /// Recognizer thresholds.
    pub pattern: PatternConfig,
    /// Snapshot copy policy of the coarse pass.
    pub policy: AdaptivePolicy,
    /// Reuse-distance line size, if enabled.
    pub reuse_line_bytes: Option<u64>,
    /// Race detection enabled.
    pub races: bool,
}

impl PipelineSpec {
    /// Columns of the fine record stream the passes read — the union of
    /// the demands of every enabled pass. A replay decode projected onto
    /// this set feeds the engine byte-identically.
    ///
    /// The fine pass reads pc/value/size for type decoding, addresses
    /// for object attribution, the flags byte for direction and space,
    /// and block ids for sampling; reuse distance needs only addresses
    /// (plus flags for the global-space filter); race detection adds
    /// pcs and block ids. Thread ids are never consulted. The router
    /// itself shards on `(space, addr)`, covered by the fine demand.
    pub fn required_columns(&self) -> ColumnSet {
        let mut cols = ColumnSet::NONE;
        if self.fine {
            cols |= ColumnSet::PC
                | ColumnSet::ADDR
                | ColumnSet::BITS
                | ColumnSet::SIZE
                | ColumnSet::FLAGS
                | ColumnSet::BLOCK;
        }
        if self.reuse_line_bytes.is_some() {
            cols |= ColumnSet::ADDR | ColumnSet::FLAGS;
        }
        if self.races {
            cols |= ColumnSet::PC | ColumnSet::ADDR | ColumnSet::FLAGS | ColumnSet::BLOCK;
        }
        cols
    }

    fn coarse_state(&self) -> Option<CoarseState> {
        self.coarse.then(|| CoarseState::new(self.pattern, self.policy))
    }

    fn fine_state(&self) -> FineState {
        // Block sampling is applied at collection (in the EventSource),
        // so the analyzer sees every record it gets.
        FineState::new(self.pattern, BlockSampler::new(1))
    }

    /// The aux passes, when the fine pass is on and one of them is.
    fn aux(&self) -> Option<Aux> {
        if !self.fine {
            return None;
        }
        let aux = Aux {
            reuse: self.reuse_line_bytes.map(ReuseAnalyzer::new),
            races: self.races.then(RaceDetector::new),
        };
        (aux.reuse.is_some() || aux.races.is_some()).then_some(aux)
    }
}

/// The coarse pass's body for one API event: the registry sees an
/// allocation before the analysis and a free after it, and a kernel's
/// interval summary is rebuilt into the in-flight [`KernelIntervals`].
/// `coarse` is `None` when only the registry is kept (a fine-only
/// inline engine).
fn on_api(
    registry: &mut ObjectRegistry,
    coarse: Option<&mut CoarseState>,
    event: &ApiEvent,
    kernel: Option<Cow<'_, KernelSummary>>,
    captured: &CapturedView,
) {
    if let ApiKind::Malloc { info } = &event.kind {
        registry.on_alloc(info);
    }
    if let Some(coarse) = coarse {
        if let Some(summary) = kernel {
            let KernelSummary { reads, writes, raw } = summary.into_owned();
            let mut k = KernelIntervals::new(false);
            (k.reads, k.writes, k.raw) = (reads, writes, raw);
            coarse.current_kernel = Some(k);
        }
        coarse.on_api_after(event, registry, captured);
    }
    if let ApiKind::Free { info } = &event.kind {
        registry.on_free(info);
    }
}

/// The globally order-sensitive passes — reuse distance and race
/// detection — which consume the unsharded record stream in order.
struct Aux {
    reuse: Option<ReuseAnalyzer>,
    races: Option<RaceDetector>,
}

impl Aux {
    fn on_batch(&mut self, info: &LaunchInfo, records: &[AccessRecord]) {
        if let Some(r) = &mut self.reuse {
            for rec in records {
                if rec.space == MemSpace::Global {
                    r.record(rec);
                }
            }
        }
        if let Some(d) = &mut self.races {
            d.ensure_launch(info);
            for rec in records {
                d.record(rec);
            }
        }
    }

    fn on_launch_end(&mut self) {
        if let Some(d) = &mut self.races {
            d.on_launch_end();
        }
    }

    fn snapshot(&self) -> AuxSnapshot {
        AuxSnapshot {
            reuse: self.reuse.as_ref().map(|r| r.histogram().clone()),
            races: self.races.as_ref().map(|d| d.reports().to_vec()).unwrap_or_default(),
        }
    }
}

/// One fine analyzer's contribution at a flush barrier.
struct FineSnapshot {
    /// Raw findings tagged with their object key.
    tagged: Vec<(ObjectKey, FineFinding)>,
    /// This analyzer's traffic counters.
    traffic: FineTraffic,
}

fn fine_snapshot(fine: &FineState) -> FineSnapshot {
    FineSnapshot { tagged: fine.tagged_findings(), traffic: fine.traffic() }
}

/// The aux passes' products at a flush barrier.
#[derive(Default)]
struct AuxSnapshot {
    reuse: Option<ReuseHistogram>,
    races: Vec<RaceReport>,
}

/// The coarse pass's products at a flush barrier (empty when the pass
/// is off).
#[derive(Default)]
pub(crate) struct CoarseSnapshot {
    /// The value flow graph.
    pub flow: FlowGraph,
    /// Redundant-write findings.
    pub redundancies: Vec<RedundancyFinding>,
    /// Duplicate-object findings.
    pub duplicates: Vec<DuplicateFinding>,
    /// Per-object copy-strategy tallies.
    pub copy_plans: Vec<ObjectCopyPlan>,
    /// Measurement traffic counters.
    pub traffic: CoarseTraffic,
    /// The first range the capture did not hold, if any.
    pub gap: Option<CaptureGap>,
}

fn coarse_snapshot(coarse: &CoarseState) -> CoarseSnapshot {
    CoarseSnapshot {
        flow: coarse.flow_graph().clone(),
        redundancies: coarse.redundancies().to_vec(),
        duplicates: coarse.duplicates().to_vec(),
        copy_plans: coarse.copy_plans(),
        traffic: coarse.traffic(),
        gap: coarse.capture_gap(),
    }
}

/// Everything the profiler needs to assemble a [`crate::report::Profile`],
/// gathered at a flush barrier.
pub(crate) struct EngineProducts {
    /// Coarse products.
    pub coarse: CoarseSnapshot,
    /// Fine findings merged per GPU API.
    pub fine_findings: Vec<FineFinding>,
    /// Fine traffic summed over analyzers.
    pub fine_traffic: FineTraffic,
    /// Reuse-distance histogram, if enabled.
    pub reuse: Option<ReuseHistogram>,
    /// Race reports (empty when detection is off).
    pub races: Vec<RaceReport>,
}

/// The one reduction both engines share: sums fine traffic, puts the
/// raw fine findings in launch order, objects in `(key, direction)`
/// order within a launch — how [`FineState`] drains its per-launch map,
/// so one analyzer's findings are already sorted — and merges them.
fn reduce(
    coarse: Option<CoarseSnapshot>,
    fine: Vec<FineSnapshot>,
    aux: Option<AuxSnapshot>,
) -> EngineProducts {
    let mut tagged: Vec<(ObjectKey, FineFinding)> = Vec::new();
    let mut fine_traffic = FineTraffic::default();
    for (i, snap) in fine.into_iter().enumerate() {
        fine_traffic.records_analyzed += snap.traffic.records_analyzed;
        fine_traffic.records_skipped += snap.traffic.records_skipped;
        // Every analyzer sees every launch end, so `launches` is
        // replicated, not partitioned.
        if i == 0 {
            fine_traffic.launches = snap.traffic.launches;
        }
        tagged.extend(snap.tagged);
    }
    tagged.sort_by(|(ka, fa), (kb, fb)| {
        (fa.launch, *ka, fa.direction).cmp(&(fb.launch, *kb, fb.direction))
    });
    let findings: Vec<FineFinding> = tagged.into_iter().map(|(_, f)| f).collect();
    let AuxSnapshot { reuse, races } = aux.unwrap_or_default();
    EngineProducts {
        coarse: coarse.unwrap_or_default(),
        fine_findings: merge_findings(&findings),
        fine_traffic,
        reuse,
        races,
    }
}

/// The analysis engine of one session: an [`EventSink`] over the
/// canonical stream.
pub(crate) enum Engine {
    /// The pass bodies run on the publishing thread.
    Inline(Box<Mutex<Inline>>),
    /// The pass bodies run on worker threads.
    Sharded(Pipeline),
}

/// The inline engine's state: one registry shared by every pass.
pub(crate) struct Inline {
    registry: ObjectRegistry,
    coarse: Option<CoarseState>,
    fine: Option<FineState>,
    aux: Option<Aux>,
}

impl Engine {
    /// Builds the engine for `spec`: inline at zero shards, otherwise
    /// the sharded worker topology.
    pub(crate) fn spawn(spec: &PipelineSpec) -> Engine {
        if spec.shards == 0 {
            Engine::Inline(Box::new(Mutex::new(Inline {
                registry: ObjectRegistry::new(),
                coarse: spec.coarse_state(),
                fine: spec.fine.then(|| spec.fine_state()),
                aux: spec.aux(),
            })))
        } else {
            Engine::Sharded(Pipeline::spawn(spec))
        }
    }

    /// Gathers and reduces the passes' products. For the sharded engine
    /// this is a flush barrier: it waits until every published event is
    /// analyzed.
    pub(crate) fn products(&self) -> EngineProducts {
        match self {
            Engine::Inline(inline) => {
                let inline = inline.lock();
                reduce(
                    inline.coarse.as_ref().map(coarse_snapshot),
                    inline.fine.as_ref().map(fine_snapshot).into_iter().collect(),
                    inline.aux.as_ref().map(Aux::snapshot),
                )
            }
            Engine::Sharded(p) => p.flush(),
        }
    }

    /// Stops and joins any workers. Idempotent; events published after
    /// shutdown are discarded.
    pub(crate) fn shutdown(&self) {
        if let Engine::Sharded(p) = self {
            p.shutdown();
        }
    }
}

impl EventSink for Engine {
    fn on_event(&self, event: &Event) {
        match self {
            Engine::Inline(inline) => inline.lock().on_event(event),
            Engine::Sharded(p) => p.publish(event),
        }
    }
}

impl Inline {
    fn on_event(&mut self, event: &Event) {
        match event {
            Event::Api { event, kernel, captured } => on_api(
                &mut self.registry,
                self.coarse.as_mut(),
                event,
                kernel.as_ref().map(Cow::Borrowed),
                captured,
            ),
            Event::Batch { info, records } => {
                if let Some(fine) = &mut self.fine {
                    fine.on_batch(info, records, &self.registry);
                }
                if let Some(aux) = &mut self.aux {
                    aux.on_batch(info, records);
                }
            }
            Event::LaunchEnd { info } => {
                if let Some(fine) = &mut self.fine {
                    fine.on_launch_complete(info, &self.registry);
                }
                if let Some(aux) = &mut self.aux {
                    aux.on_launch_end();
                }
            }
            Event::LaunchBegin { .. } | Event::SkippedLaunch { .. } => {}
        }
    }
}

/// Messages consumed by the router thread. Trace events and registry
/// events share one FIFO channel so the router's registry replica is
/// always consistent with the batch being routed.
enum RouterMsg {
    /// An allocation went live.
    Alloc(AllocationInfo),
    /// An allocation was freed.
    Free(AllocationInfo),
    /// A record batch flushed by the collector.
    Batch { info: Arc<LaunchInfo>, records: Arc<Vec<AccessRecord>> },
    /// An instrumented launch finished.
    LaunchComplete { info: Arc<LaunchInfo> },
    /// Barrier: forward to downstream workers, which reply directly.
    Flush { fine_reply: Sender<FineSnapshot>, aux_reply: Sender<AuxSnapshot> },
    /// Drain and exit (forwarded downstream).
    Shutdown,
}

/// Messages consumed by one fine analysis shard.
enum ShardMsg {
    Alloc(AllocationInfo),
    Free(AllocationInfo),
    /// The subset of a batch whose object keys route to this shard.
    Batch {
        info: Arc<LaunchInfo>,
        records: Vec<AccessRecord>,
    },
    LaunchComplete {
        info: Arc<LaunchInfo>,
    },
    Flush {
        reply: Sender<FineSnapshot>,
    },
    Shutdown,
}

/// Messages consumed by the sequential reuse/race worker.
enum AuxMsg {
    Batch { info: Arc<LaunchInfo>, records: Arc<Vec<AccessRecord>> },
    LaunchComplete,
    Flush { reply: Sender<AuxSnapshot> },
    Shutdown,
}

/// Messages consumed by the coarse worker.
enum CoarseMsg {
    /// One API event with everything its deferred analysis needs: the
    /// kernel's collected intervals (for `KernelLaunch`) and the device
    /// bytes the analysis will read, exactly as the `EventSource`
    /// packaged them in [`Event::Api`].
    Event {
        event: ApiEvent,
        /// Interval summary of the finished kernel.
        kernel: Option<KernelSummary>,
        captured: Arc<CapturedView>,
    },
    Flush {
        reply: Sender<CoarseSnapshot>,
    },
    Shutdown,
}

/// A running sharded analysis engine.
pub(crate) struct Pipeline {
    router_tx: Option<Sender<RouterMsg>>,
    coarse_tx: Option<Sender<CoarseMsg>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    shards: usize,
    has_aux: bool,
}

/// Deterministic shard routing: splitmix64 over the object key. The
/// specific function is irrelevant for correctness (any key-stable map
/// works); it just has to be stable across runs and processes.
fn shard_of(key: ObjectKey, shards: usize) -> usize {
    let seed = match key {
        ObjectKey::Global(AllocId(id)) => id,
        ObjectKey::Shared => u64::MAX,
    };
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) % shards as u64) as usize
}

impl Pipeline {
    /// Spawns the worker topology for `spec` (`spec.shards ≥ 1`).
    fn spawn(spec: &PipelineSpec) -> Pipeline {
        let depth = spec.queue_depth.max(1);
        let mut workers = Vec::new();

        let coarse_tx = spec.coarse_state().map(|coarse| {
            let (tx, rx) = bounded(depth);
            workers.push(
                std::thread::Builder::new()
                    .name("vex-coarse".into())
                    .spawn(move || coarse_worker(rx, coarse))
                    .expect("spawn coarse worker"),
            );
            tx
        });

        let aux = spec.aux();
        let has_aux = aux.is_some();
        let router_tx = spec.fine.then(|| {
            let mut shard_txs = Vec::with_capacity(spec.shards);
            for i in 0..spec.shards {
                let (tx, rx) = bounded(depth);
                let fine = spec.fine_state();
                workers.push(
                    std::thread::Builder::new()
                        .name(format!("vex-fine-{i}"))
                        .spawn(move || fine_shard_worker(rx, fine))
                        .expect("spawn fine shard"),
                );
                shard_txs.push(tx);
            }
            let aux_tx = aux.map(|aux| {
                let (tx, rx) = bounded(depth);
                workers.push(
                    std::thread::Builder::new()
                        .name("vex-aux".into())
                        .spawn(move || aux_worker(rx, aux))
                        .expect("spawn aux worker"),
                );
                tx
            });
            let (tx, rx) = bounded(depth);
            workers.push(
                std::thread::Builder::new()
                    .name("vex-router".into())
                    .spawn(move || router_worker(rx, shard_txs, aux_tx))
                    .expect("spawn router"),
            );
            tx
        });

        Pipeline {
            router_tx,
            coarse_tx,
            workers: Mutex::new(workers),
            shards: spec.shards,
            has_aux,
        }
    }

    /// Clones each event's `Arc`-shared payloads into the worker
    /// channels: the sharded engine's entire critical-path cost.
    fn publish(&self, event: &Event) {
        match event {
            Event::Api { event, kernel, captured } => {
                // Same ordering as `on_api`: the router's registry
                // replica sees the alloc before any batch of it and the
                // free only after.
                if let ApiKind::Malloc { info } = &event.kind {
                    if let Some(tx) = &self.router_tx {
                        let _ = tx.send(RouterMsg::Alloc(info.clone()));
                    }
                }
                if let Some(tx) = &self.coarse_tx {
                    let _ = tx.send(CoarseMsg::Event {
                        event: event.clone(),
                        kernel: kernel.clone(),
                        captured: captured.clone(),
                    });
                }
                if let ApiKind::Free { info } = &event.kind {
                    if let Some(tx) = &self.router_tx {
                        let _ = tx.send(RouterMsg::Free(info.clone()));
                    }
                }
            }
            Event::Batch { info, records } => {
                if let Some(tx) = &self.router_tx {
                    let _ = tx.send(RouterMsg::Batch {
                        info: info.clone(),
                        records: records.clone(),
                    });
                }
            }
            Event::LaunchEnd { info } => {
                if let Some(tx) = &self.router_tx {
                    let _ = tx.send(RouterMsg::LaunchComplete { info: info.clone() });
                }
            }
            Event::LaunchBegin { .. } | Event::SkippedLaunch { .. } => {}
        }
    }

    /// Flush barrier: waits until every published message is analyzed and
    /// reduces the snapshots. FIFO channels guarantee that a flush marker
    /// sent after the last real message is processed after it.
    fn flush(&self) -> EngineProducts {
        // Kick off both barriers before waiting on either.
        let coarse_rx = self.coarse_tx.as_ref().map(|tx| {
            let (reply, rx) = bounded(1);
            tx.send(CoarseMsg::Flush { reply }).expect("coarse worker alive");
            rx
        });
        let fine_rx = self.router_tx.as_ref().map(|tx| {
            let (fine_reply, fine_rx) = bounded(self.shards);
            let (aux_reply, aux_rx) = bounded(1);
            tx.send(RouterMsg::Flush { fine_reply, aux_reply }).expect("router alive");
            (fine_rx, aux_rx)
        });

        let coarse = coarse_rx.map(|rx| rx.recv().expect("coarse snapshot"));
        let mut fine = Vec::new();
        let mut aux = None;
        if let Some((fine_rx, aux_rx)) = fine_rx {
            for _ in 0..self.shards {
                fine.push(fine_rx.recv().expect("fine shard snapshot"));
            }
            if self.has_aux {
                aux = Some(aux_rx.recv().expect("aux snapshot"));
            }
        }
        reduce(coarse, fine, aux)
    }

    /// Stops every worker and joins it. Idempotent.
    fn shutdown(&self) {
        if let Some(tx) = &self.router_tx {
            let _ = tx.send(RouterMsg::Shutdown);
        }
        if let Some(tx) = &self.coarse_tx {
            let _ = tx.send(CoarseMsg::Shutdown);
        }
        let handles = std::mem::take(&mut *self.workers.lock());
        for h in handles {
            let _ = h.join();
        }
    }
}

/// The router: owns a registry replica and splits each batch by object
/// key into per-shard sub-batches, forwarding full batches to the aux
/// worker untouched.
fn router_worker(
    rx: Receiver<RouterMsg>,
    shard_txs: Vec<Sender<ShardMsg>>,
    aux_tx: Option<Sender<AuxMsg>>,
) {
    let shards = shard_txs.len();
    let mut registry = ObjectRegistry::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            RouterMsg::Alloc(info) => {
                registry.on_alloc(&info);
                for tx in &shard_txs {
                    let _ = tx.send(ShardMsg::Alloc(info.clone()));
                }
            }
            RouterMsg::Free(info) => {
                registry.on_free(&info);
                for tx in &shard_txs {
                    let _ = tx.send(ShardMsg::Free(info.clone()));
                }
            }
            RouterMsg::Batch { info, records } => {
                if let Some(aux) = &aux_tx {
                    let _ = aux
                        .send(AuxMsg::Batch { info: info.clone(), records: records.clone() });
                }
                let mut per: Vec<Vec<AccessRecord>> = vec![Vec::new(); shards];
                let mut cursor = registry.cursor();
                for rec in records.iter() {
                    // Unattributable records go to shard 0 so its traffic
                    // counters see them exactly as the inline engine does.
                    let idx =
                        cursor.key_for(rec.space, rec.addr).map_or(0, |k| shard_of(k, shards));
                    per[idx].push(*rec);
                }
                for (idx, recs) in per.into_iter().enumerate() {
                    if !recs.is_empty() {
                        let _ = shard_txs[idx]
                            .send(ShardMsg::Batch { info: info.clone(), records: recs });
                    }
                }
            }
            RouterMsg::LaunchComplete { info } => {
                for tx in &shard_txs {
                    let _ = tx.send(ShardMsg::LaunchComplete { info: info.clone() });
                }
                if let Some(aux) = &aux_tx {
                    let _ = aux.send(AuxMsg::LaunchComplete);
                }
            }
            RouterMsg::Flush { fine_reply, aux_reply } => {
                for tx in &shard_txs {
                    let _ = tx.send(ShardMsg::Flush { reply: fine_reply.clone() });
                }
                if let Some(aux) = &aux_tx {
                    let _ = aux.send(AuxMsg::Flush { reply: aux_reply.clone() });
                }
            }
            RouterMsg::Shutdown => {
                for tx in &shard_txs {
                    let _ = tx.send(ShardMsg::Shutdown);
                }
                if let Some(aux) = &aux_tx {
                    let _ = aux.send(AuxMsg::Shutdown);
                }
                return;
            }
        }
    }
}

/// One fine analysis shard: a plain [`FineState`] over the subset of
/// object keys routed here, plus a registry replica for attribution.
fn fine_shard_worker(rx: Receiver<ShardMsg>, mut fine: FineState) {
    let mut registry = ObjectRegistry::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Alloc(info) => registry.on_alloc(&info),
            ShardMsg::Free(info) => registry.on_free(&info),
            ShardMsg::Batch { info, records } => fine.on_batch(&info, &records, &registry),
            ShardMsg::LaunchComplete { info } => fine.on_launch_complete(&info, &registry),
            ShardMsg::Flush { reply } => {
                let _ = reply.send(fine_snapshot(&fine));
            }
            ShardMsg::Shutdown => return,
        }
    }
}

/// The sequential worker for globally order-sensitive analyses.
fn aux_worker(rx: Receiver<AuxMsg>, mut aux: Aux) {
    while let Ok(msg) = rx.recv() {
        match msg {
            AuxMsg::Batch { info, records } => aux.on_batch(&info, &records),
            AuxMsg::LaunchComplete => aux.on_launch_end(),
            AuxMsg::Flush { reply } => {
                let _ = reply.send(aux.snapshot());
            }
            AuxMsg::Shutdown => return,
        }
    }
}

/// The coarse worker: runs [`on_api`] against a registry replica and the
/// bytes captured on the application thread.
fn coarse_worker(rx: Receiver<CoarseMsg>, mut coarse: CoarseState) {
    let mut registry = ObjectRegistry::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            CoarseMsg::Event { event, kernel, captured } => on_api(
                &mut registry,
                Some(&mut coarse),
                &event,
                kernel.map(Cow::Owned),
                &captured,
            ),
            CoarseMsg::Flush { reply } => {
                let _ = reply.send(coarse_snapshot(&coarse));
            }
            CoarseMsg::Shutdown => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for shards in [1usize, 2, 3, 8] {
            for id in 0..64u64 {
                let k = ObjectKey::Global(AllocId(id));
                let a = shard_of(k, shards);
                let b = shard_of(k, shards);
                assert_eq!(a, b);
                assert!(a < shards);
            }
            assert!(shard_of(ObjectKey::Shared, shards) < shards);
        }
    }

    #[test]
    fn single_shard_maps_everything_to_zero() {
        assert_eq!(shard_of(ObjectKey::Shared, 1), 0);
        assert_eq!(shard_of(ObjectKey::Global(AllocId(42)), 1), 0);
    }

    #[test]
    fn spawn_flush_shutdown_with_no_traffic() {
        for shards in [0, 2] {
            let spec = PipelineSpec {
                shards,
                queue_depth: 4,
                coarse: true,
                fine: true,
                pattern: PatternConfig::default(),
                policy: AdaptivePolicy::default(),
                reuse_line_bytes: Some(32),
                races: true,
            };
            let engine = Engine::spawn(&spec);
            assert_eq!(matches!(engine, Engine::Inline(_)), shards == 0);
            let products = engine.products();
            assert!(products.coarse.redundancies.is_empty());
            assert!(products.fine_findings.is_empty());
            assert_eq!(products.fine_traffic, FineTraffic::default());
            assert_eq!(products.reuse.expect("reuse on").total, 0);
            assert!(products.races.is_empty());
            engine.shutdown();
            engine.shutdown(); // idempotent
        }
    }
}
