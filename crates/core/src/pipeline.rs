//! The sharded, off-critical-path analysis engine.
//!
//! In the synchronous profiler (`crate::profiler` with zero analysis
//! shards) every analysis step — record decoding, pattern recognition,
//! snapshot diffing, SHA-256 hashing — runs inside the shared
//! [`vex_trace::event::EventSource`]'s callbacks, on the application's
//! critical path. This module moves that work onto worker threads,
//! mirroring the paper's design goal of keeping the collector fast and
//! deferring analysis (§4): [`PipelineSink`] — the engine's
//! [`EventSink`] over the canonical event stream — only clones the
//! `Arc`-shared event payloads into bounded [`crossbeam::channel`]s.
//!
//! # Topology
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
//!   the serial engine's. The router owns a registry replica (fed by
//!   in-band alloc/free events) to attribute addresses to keys.
//! * The **aux worker** runs the globally order-sensitive analyses (reuse
//!   distance, race detection) sequentially over the unsharded stream.
//! * The **coarse worker** replays `CoarseState::on_api_after` against
//!   the [`CapturedView`] carried by each API event: device memory is
//!   only valid during the hook callback, so the `EventSource` captures
//!   exactly the byte ranges the replay will read (the same ranges the
//!   serial engine reads — capture cost equals the serial snapshot cost;
//!   the diff, hash, and graph bookkeeping move off-path).
//!
//! # Determinism
//!
//! Reports are **byte-identical** to the serial engine's regardless of
//! worker count: key routing preserves per-key record order, every
//! channel is FIFO, the coarse replay is a faithful re-execution with
//! identical inputs, and the flush barrier reassembles shard findings in
//! the serial order — launches in launch order, objects in key order
//! within each launch (`tagged_findings`). The equivalence suite in
//! `tests/pipeline_equivalence.rs` locks this in for every bundled
//! workload under 1, 2, and 8 shards.

use crate::coarse::{CaptureGap, CoarseState, CoarseTraffic, KernelIntervals};
use crate::coarse::{DuplicateFinding, RedundancyFinding};
use crate::copy_strategy::{AdaptivePolicy, ObjectCopyPlan};
use crate::fine::{FineFinding, FineState, FineTraffic};
use crate::flowgraph::FlowGraph;
use crate::patterns::PatternConfig;
use crate::races::{RaceDetector, RaceReport};
use crate::registry::{ObjectKey, ObjectRegistry};
use crate::reuse::{ReuseAnalyzer, ReuseHistogram};
use crate::sampling::BlockSampler;
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use std::sync::Arc;
use std::thread::JoinHandle;
use vex_gpu::alloc::{AllocId, AllocationInfo};
use vex_gpu::hooks::{ApiEvent, ApiKind, CapturedView, LaunchInfo};
use vex_trace::event::{ColumnSet, Event, EventSink, KernelSummary};
use vex_trace::AccessRecord;

/// Static configuration of a pipelined session, filled in by
/// `ProfilerBuilder::attach`.
pub(crate) struct PipelineSpec {
    /// Number of fine analysis shards (≥ 1).
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
    /// Columns of the fine record stream the pipeline's workers read —
    /// the union of the demands of every enabled pass. A replay decode
    /// projected onto this set feeds the pipeline byte-identically.
    ///
    /// The fine shards read pc/value/size for type decoding, addresses
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
    /// One API event with everything its deferred replay needs: the
    /// kernel's collected intervals (for `KernelLaunch`) and the device
    /// bytes the replay will read, exactly as the `EventSource` packaged
    /// them in [`Event::Api`].
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

/// One shard's contribution at a flush barrier.
pub(crate) struct FineSnapshot {
    /// Raw findings tagged with their object key.
    tagged: Vec<(ObjectKey, FineFinding)>,
    /// This shard's traffic counters.
    traffic: FineTraffic,
}

/// The aux worker's products at a flush barrier.
pub(crate) struct AuxSnapshot {
    reuse: Option<ReuseHistogram>,
    races: Vec<RaceReport>,
}

/// The coarse worker's products at a flush barrier.
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

/// Everything the profiler needs to assemble a [`crate::report::Profile`],
/// gathered at a flush barrier.
pub(crate) struct PipelineProducts {
    /// Coarse products (`None` when the coarse pass is off).
    pub coarse: Option<CoarseSnapshot>,
    /// Raw fine findings in serial order, plus merged traffic (`None`
    /// when the fine pass is off).
    pub fine: Option<(Vec<FineFinding>, FineTraffic)>,
    /// Reuse-distance histogram, if enabled.
    pub reuse: Option<ReuseHistogram>,
    /// Race reports (empty when detection is off).
    pub races: Vec<RaceReport>,
}

/// A running sharded analysis engine. Owned by the profiler session;
/// the [`PipelineSink`] holds an `Arc` clone.
pub(crate) struct Pipeline {
    router_tx: Option<Sender<RouterMsg>>,
    coarse_tx: Option<Sender<CoarseMsg>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    shards: usize,
    has_aux: bool,
}

/// The pipeline's adapter onto the canonical event stream: clones each
/// event's `Arc`-shared payloads into the worker channels. This is the
/// engine's entire critical-path cost in pipelined mode.
pub(crate) struct PipelineSink(Arc<Pipeline>);

impl PipelineSink {
    /// Wraps a spawned pipeline as an [`EventSink`].
    pub(crate) fn new(pipeline: Arc<Pipeline>) -> Self {
        PipelineSink(pipeline)
    }
}

impl EventSink for PipelineSink {
    fn on_event(&self, event: &Event) {
        let p = &self.0;
        match event {
            Event::Api { event, kernel, captured } => {
                // Mirror the serial engine's ordering: the router's
                // registry replica must see the alloc before any batch of
                // it and the free only after.
                if let ApiKind::Malloc { info } = &event.kind {
                    if let Some(tx) = &p.router_tx {
                        let _ = tx.send(RouterMsg::Alloc(info.clone()));
                    }
                }
                if let Some(tx) = &p.coarse_tx {
                    let _ = tx.send(CoarseMsg::Event {
                        event: event.clone(),
                        kernel: kernel.clone(),
                        captured: captured.clone(),
                    });
                }
                if let ApiKind::Free { info } = &event.kind {
                    if let Some(tx) = &p.router_tx {
                        let _ = tx.send(RouterMsg::Free(info.clone()));
                    }
                }
            }
            Event::Batch { info, records } => {
                if let Some(tx) = &p.router_tx {
                    let _ = tx.send(RouterMsg::Batch {
                        info: info.clone(),
                        records: records.clone(),
                    });
                }
            }
            Event::LaunchEnd { info } => {
                if let Some(tx) = &p.router_tx {
                    let _ = tx.send(RouterMsg::LaunchComplete { info: info.clone() });
                }
            }
            Event::LaunchBegin { .. } | Event::SkippedLaunch { .. } => {}
        }
    }
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
    /// Spawns the worker topology for `spec` and returns the handle.
    pub(crate) fn spawn(spec: &PipelineSpec) -> Arc<Pipeline> {
        assert!(spec.shards >= 1, "pipelined sessions need at least one shard");
        let depth = spec.queue_depth.max(1);
        let mut workers = Vec::new();

        let coarse_tx = spec.coarse.then(|| {
            let (tx, rx) = bounded(depth);
            let pattern = spec.pattern;
            let policy = spec.policy;
            workers.push(
                std::thread::Builder::new()
                    .name("vex-coarse".into())
                    .spawn(move || coarse_worker(rx, pattern, policy))
                    .expect("spawn coarse worker"),
            );
            tx
        });

        let has_aux = spec.fine && (spec.reuse_line_bytes.is_some() || spec.races);
        let router_tx = spec.fine.then(|| {
            let mut shard_txs = Vec::with_capacity(spec.shards);
            for i in 0..spec.shards {
                let (tx, rx) = bounded(depth);
                let pattern = spec.pattern;
                workers.push(
                    std::thread::Builder::new()
                        .name(format!("vex-fine-{i}"))
                        .spawn(move || fine_shard_worker(rx, pattern))
                        .expect("spawn fine shard"),
                );
                shard_txs.push(tx);
            }
            let aux_tx = has_aux.then(|| {
                let (tx, rx) = bounded(depth);
                let reuse = spec.reuse_line_bytes;
                let races = spec.races;
                workers.push(
                    std::thread::Builder::new()
                        .name("vex-aux".into())
                        .spawn(move || aux_worker(rx, reuse, races))
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

        Arc::new(Pipeline {
            router_tx,
            coarse_tx,
            workers: Mutex::new(workers),
            shards: spec.shards,
            has_aux,
        })
    }

    /// Flush barrier: waits until every published message is analyzed and
    /// gathers the products. FIFO channels guarantee that a flush marker
    /// sent after the last real message is processed after it.
    pub(crate) fn flush(&self) -> PipelineProducts {
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
        let mut fine = None;
        let mut reuse = None;
        let mut races = Vec::new();
        if let Some((fine_rx, aux_rx)) = fine_rx {
            let mut tagged: Vec<(ObjectKey, FineFinding)> = Vec::new();
            let mut traffic = FineTraffic::default();
            for i in 0..self.shards {
                let snap = fine_rx.recv().expect("fine shard snapshot");
                traffic.records_analyzed += snap.traffic.records_analyzed;
                traffic.records_skipped += snap.traffic.records_skipped;
                // Every shard sees every launch-complete, so `launches`
                // is replicated, not partitioned.
                if i == 0 {
                    traffic.launches = snap.traffic.launches;
                }
                tagged.extend(snap.tagged);
            }
            // Reassemble the serial finding order: launches in launch
            // order, objects in (key, direction) order within a launch —
            // exactly how FineState drains its per-launch BTreeMap.
            tagged.sort_by(|(ka, fa), (kb, fb)| {
                (fa.launch, *ka, fa.direction).cmp(&(fb.launch, *kb, fb.direction))
            });
            let findings: Vec<FineFinding> = tagged.into_iter().map(|(_, f)| f).collect();
            fine = Some((findings, traffic));
            if self.has_aux {
                let snap = aux_rx.recv().expect("aux snapshot");
                reuse = snap.reuse;
                races = snap.races;
            }
        }

        PipelineProducts { coarse, fine, reuse, races }
    }

    /// Stops every worker and joins it. Idempotent; called on session
    /// drop. Messages published after shutdown are discarded.
    pub(crate) fn shutdown(&self) {
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
                for rec in records.iter() {
                    // Unattributable records go to shard 0 so its traffic
                    // counters see them exactly as the serial engine does.
                    let idx = registry
                        .key_for(rec.space, rec.addr)
                        .map_or(0, |k| shard_of(k, shards));
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
fn fine_shard_worker(rx: Receiver<ShardMsg>, pattern: PatternConfig) {
    // Block sampling already happened at collection; analyze every record.
    let mut fine = FineState::new(pattern, BlockSampler::new(1));
    let mut registry = ObjectRegistry::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Alloc(info) => registry.on_alloc(&info),
            ShardMsg::Free(info) => registry.on_free(&info),
            ShardMsg::Batch { info, records } => fine.on_batch(&info, &records, &registry),
            ShardMsg::LaunchComplete { info } => fine.on_launch_complete(&info, &registry),
            ShardMsg::Flush { reply } => {
                let _ = reply.send(FineSnapshot {
                    tagged: fine.tagged_findings(),
                    traffic: fine.traffic(),
                });
            }
            ShardMsg::Shutdown => return,
        }
    }
}

/// The sequential worker for globally order-sensitive analyses.
fn aux_worker(rx: Receiver<AuxMsg>, reuse_line_bytes: Option<u64>, races_on: bool) {
    let mut reuse = reuse_line_bytes.map(ReuseAnalyzer::new);
    let mut races = races_on.then(RaceDetector::new);
    while let Ok(msg) = rx.recv() {
        match msg {
            AuxMsg::Batch { info, records } => {
                if let Some(r) = &mut reuse {
                    for rec in records.iter() {
                        if rec.space == vex_gpu::ir::MemSpace::Global {
                            r.record(rec);
                        }
                    }
                }
                if let Some(d) = &mut races {
                    d.ensure_launch(&info);
                    for rec in records.iter() {
                        d.record(rec);
                    }
                }
            }
            AuxMsg::LaunchComplete => {
                if let Some(d) = &mut races {
                    d.on_launch_end();
                }
            }
            AuxMsg::Flush { reply } => {
                let _ = reply.send(AuxSnapshot {
                    reuse: reuse.as_ref().map(|r| r.histogram().clone()),
                    races: races.as_ref().map(|d| d.reports().to_vec()).unwrap_or_default(),
                });
            }
            AuxMsg::Shutdown => return,
        }
    }
}

/// The coarse worker: replays each API event against a registry replica
/// and the bytes captured on the application thread. The replay runs the
/// unmodified serial `CoarseState` code, so its products are identical.
fn coarse_worker(rx: Receiver<CoarseMsg>, pattern: PatternConfig, policy: AdaptivePolicy) {
    let mut coarse = CoarseState::new(pattern, policy);
    let mut registry = ObjectRegistry::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            CoarseMsg::Event { event, kernel, captured } => {
                // Mirror the serial engine's ordering: alloc before
                // analysis, free after.
                if let ApiKind::Malloc { info } = &event.kind {
                    registry.on_alloc(info);
                }
                if let Some(summary) = kernel {
                    let mut k = KernelIntervals::new(false);
                    k.reads = summary.reads;
                    k.writes = summary.writes;
                    k.raw = summary.raw;
                    coarse.current_kernel = Some(k);
                }
                coarse.on_api_after(&event, &registry, captured.as_ref());
                if let ApiKind::Free { info } = &event.kind {
                    registry.on_free(info);
                }
            }
            CoarseMsg::Flush { reply } => {
                let _ = reply.send(CoarseSnapshot {
                    flow: coarse.flow_graph().clone(),
                    redundancies: coarse.redundancies().to_vec(),
                    duplicates: coarse.duplicates().to_vec(),
                    copy_plans: coarse.copy_plans(),
                    traffic: coarse.traffic(),
                    gap: coarse.capture_gap(),
                });
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
        let spec = PipelineSpec {
            shards: 2,
            queue_depth: 4,
            coarse: true,
            fine: true,
            pattern: PatternConfig::default(),
            policy: AdaptivePolicy::default(),
            reuse_line_bytes: Some(32),
            races: true,
        };
        let p = Pipeline::spawn(&spec);
        let products = p.flush();
        let c = products.coarse.expect("coarse snapshot");
        assert!(c.redundancies.is_empty());
        let (findings, traffic) = products.fine.expect("fine snapshot");
        assert!(findings.is_empty());
        assert_eq!(traffic.launches, 0);
        assert_eq!(products.reuse.expect("reuse on").total, 0);
        assert!(products.races.is_empty());
        p.shutdown();
        p.shutdown(); // idempotent
    }
}
