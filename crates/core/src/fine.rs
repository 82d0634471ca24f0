//! The fine-grained analyzer (§5.1).
//!
//! Consumes the per-access record batches ([`vex_trace::event::Event::Batch`])
//! flushed by the [`vex_trace::event::EventSource`] or streamed from a
//! recorded trace, attributes each record to a data object,
//! decodes its raw bits using the access types recovered by
//! [`crate::access_type`], and accumulates [`crate::patterns::ValueStats`]
//! per `(object, direction)`. At kernel end the recognizers of
//! [`crate::patterns`] run and produce [`FineFinding`]s.

use crate::access_type::{infer_access_types, AccessTypeMap};
use crate::patterns::{GroupedAccess, PatternConfig, PatternHit, ValueStats};
use crate::registry::{ObjectKey, ObjectRegistry};
use crate::sampling::BlockSampler;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use vex_gpu::callpath::CallPathId;
use vex_gpu::hooks::{LaunchId, LaunchInfo};
use vex_trace::AccessRecord;

/// Load or store side of an object's accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Values read from the object.
    Load,
    /// Values written to the object.
    Store,
}

impl std::fmt::Display for Direction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Direction::Load => "load",
            Direction::Store => "store",
        })
    }
}

/// Fine-grained pattern findings for one object at one kernel launch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FineFinding {
    /// Kernel name.
    pub kernel: String,
    /// Launch calling context.
    pub context: CallPathId,
    /// Launch id the finding came from.
    pub launch: LaunchId,
    /// The data object.
    pub object: String,
    /// Access direction.
    pub direction: Direction,
    /// Accesses analyzed.
    pub accesses: u64,
    /// Distinct values observed (capped).
    pub distinct_values: u64,
    /// Source lines of the contributing instructions, when the "binary"
    /// carries line mapping (§4's offline analyzer output).
    pub lines: Vec<u32>,
    /// Recognized patterns with evidence.
    pub hits: Vec<PatternHit>,
}

/// Analysis-side counters (the overhead model charges per analyzed record).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FineTraffic {
    /// Records decoded and accumulated.
    pub records_analyzed: u64,
    /// Records dropped by block sampling.
    pub records_skipped: u64,
    /// Kernel launches analyzed.
    pub launches: u64,
}

/// The fine-grained analyzer state. Driven by the profiler front-end.
#[derive(Debug)]
pub struct FineState {
    config: PatternConfig,
    block_sampler: BlockSampler,
    type_maps: HashMap<String, AccessTypeMap>,
    current: BTreeMap<(ObjectKey, Direction), ValueStats>,
    findings: Vec<FineFinding>,
    /// Object key of each entry in `findings`, index-aligned. Keys are not
    /// part of the reported finding (which names objects by label), but the
    /// engine's reduction orders findings by them, so that any number of
    /// shards reassembles one analyzer's finding order.
    finding_keys: Vec<ObjectKey>,
    traffic: FineTraffic,
}

impl FineState {
    /// Creates an empty fine analyzer.
    pub fn new(config: PatternConfig, block_sampler: BlockSampler) -> Self {
        FineState {
            config,
            block_sampler,
            type_maps: HashMap::new(),
            current: BTreeMap::new(),
            findings: Vec::new(),
            finding_keys: Vec::new(),
            traffic: FineTraffic::default(),
        }
    }

    /// Findings accumulated so far.
    pub fn findings(&self) -> &[FineFinding] {
        &self.findings
    }

    /// Analysis traffic counters.
    pub fn traffic(&self) -> FineTraffic {
        self.traffic
    }

    /// Ingests one record batch of an instrumented launch.
    pub fn on_batch(
        &mut self,
        info: &LaunchInfo,
        records: &[AccessRecord],
        registry: &ObjectRegistry,
    ) {
        let types = self
            .type_maps
            .entry(info.kernel_name.clone())
            .or_insert_with(|| infer_access_types(&info.instr_table))
            .clone();
        // Group the batch per (object, direction) in record order, then
        // feed each group through the batched stats kernel. Every engine
        // (sync, pipeline shard, replay) sees the same groups per batch,
        // so accumulated stats stay bit-identical across them.
        let mut groups: BTreeMap<(ObjectKey, Direction), Vec<GroupedAccess>> = BTreeMap::new();
        for rec in records {
            if !self.block_sampler.keep(rec.block) {
                self.traffic.records_skipped += 1;
                continue;
            }
            let Some(key) = registry.key_for(rec.space, rec.addr) else {
                continue; // not attributable to a live object
            };
            self.traffic.records_analyzed += 1;
            let value = types.decode(rec.pc, rec.bits, rec.size);
            let dir = if rec.is_store { Direction::Store } else { Direction::Load };
            groups.entry((key, dir)).or_default().push((rec.addr, value, rec.pc));
        }
        for ((key, dir), accesses) in groups {
            self.current
                .entry((key, dir))
                .or_insert_with(|| ValueStats::new(self.config))
                .record_batch(&accesses);
        }
    }

    /// Finishes a launch: runs the recognizers and stores findings,
    /// resolving contributing PCs to source lines through the kernel's
    /// instruction table.
    pub fn on_launch_complete(&mut self, info: &LaunchInfo, registry: &ObjectRegistry) {
        self.traffic.launches += 1;
        let accumulated = std::mem::take(&mut self.current);
        for ((key, dir), stats) in accumulated {
            let hits = stats.patterns();
            if hits.is_empty() {
                continue;
            }
            let mut lines: Vec<u32> = stats
                .pcs
                .iter()
                .filter_map(|pc| info.instr_table.get(*pc).and_then(|i| i.line))
                .collect();
            lines.sort_unstable();
            lines.dedup();
            self.finding_keys.push(key);
            self.findings.push(FineFinding {
                kernel: info.kernel_name.clone(),
                context: info.context,
                launch: info.launch,
                object: registry.label(key),
                direction: dir,
                accesses: stats.accesses,
                distinct_values: stats.distinct_values() as u64,
                lines,
                hits,
            });
        }
    }

    /// Findings paired with the object key they were accumulated under,
    /// for the engine's deterministic reduction.
    pub(crate) fn tagged_findings(&self) -> Vec<(ObjectKey, FineFinding)> {
        self.finding_keys.iter().copied().zip(self.findings.iter().cloned()).collect()
    }
}

/// Merges raw findings by `(kernel, context, object, direction)`, summing
/// access counts and keeping each pattern's strongest hit. Ties between
/// equal-strength hits keep the earlier finding's hit, so callers that
/// need byte-identical output must present findings in a deterministic
/// order ([`FineState`] produces them launch by launch, objects in key
/// order within each launch).
pub fn merge_findings(findings: &[FineFinding]) -> Vec<FineFinding> {
    let mut merged: BTreeMap<(String, CallPathId, String, Direction), FineFinding> =
        BTreeMap::new();
    for f in findings {
        let key = (f.kernel.clone(), f.context, f.object.clone(), f.direction);
        match merged.get_mut(&key) {
            None => {
                merged.insert(key, f.clone());
            }
            Some(m) => {
                m.accesses += f.accesses;
                m.distinct_values = m.distinct_values.max(f.distinct_values);
                for line in &f.lines {
                    if !m.lines.contains(line) {
                        m.lines.push(*line);
                    }
                }
                m.lines.sort_unstable();
                for hit in &f.hits {
                    match m.hits.iter_mut().find(|h| h.pattern == hit.pattern) {
                        Some(existing) => {
                            if hit.strength > existing.strength {
                                *existing = hit.clone();
                            }
                        }
                        None => m.hits.push(hit.clone()),
                    }
                }
            }
        }
    }
    merged.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::ValuePattern;
    use std::sync::Arc;
    use vex_gpu::alloc::{AllocId, AllocationInfo};
    use vex_gpu::dim::Dim3;
    use vex_gpu::ir::{InstrTable, InstrTableBuilder, MemSpace, Pc, ScalarType};
    use vex_gpu::stream::StreamId;

    fn launch_info(name: &str, table: InstrTable) -> LaunchInfo {
        LaunchInfo {
            launch: LaunchId(0),
            kernel_name: name.to_owned(),
            grid: Dim3::linear(1),
            block: Dim3::linear(32),
            shared_bytes: 0,
            context: CallPathId(1),
            stream: StreamId::DEFAULT,
            instr_table: Arc::new(table),
        }
    }

    fn registry_with(addr: u64, size: u64, label: &str) -> ObjectRegistry {
        let mut r = ObjectRegistry::new();
        r.on_alloc(&AllocationInfo {
            id: AllocId(1),
            addr,
            size,
            label: label.to_owned(),
            context: CallPathId::ROOT,
            live: true,
        });
        r
    }

    fn store_rec(pc: u32, addr: u64, bits: u64, size: u8, block: u32) -> AccessRecord {
        AccessRecord {
            pc: Pc(pc),
            addr,
            bits,
            size,
            is_store: true,
            space: MemSpace::Global,
            block,
            thread: 0,
            is_atomic: false,
        }
    }

    #[test]
    fn single_zero_finding_end_to_end() {
        let table =
            InstrTableBuilder::new().store(Pc(0), ScalarType::F32, MemSpace::Global).build();
        let info = launch_info("fill", table);
        let reg = registry_with(256, 4096, "out");
        let mut fine = FineState::new(PatternConfig::default(), BlockSampler::default());
        let records: Vec<AccessRecord> =
            (0..64).map(|i| store_rec(0, 256 + i * 4, 0, 4, 0)).collect();
        fine.on_batch(&info, &records, &reg);
        fine.on_launch_complete(&info, &reg);
        assert_eq!(fine.findings().len(), 1);
        let f = &fine.findings()[0];
        assert_eq!(f.object, "out");
        assert_eq!(f.direction, Direction::Store);
        assert_eq!(f.accesses, 64);
        assert!(f.hits.iter().any(|h| h.pattern == ValuePattern::SingleZero));
    }

    #[test]
    fn block_sampling_drops_records() {
        let table =
            InstrTableBuilder::new().store(Pc(0), ScalarType::U32, MemSpace::Global).build();
        let info = launch_info("k", table);
        let reg = registry_with(256, 4096, "o");
        let mut fine = FineState::new(PatternConfig::default(), BlockSampler::new(2));
        let records: Vec<AccessRecord> =
            (0..10u32).map(|b| store_rec(0, 256 + b as u64 * 4, 1, 4, b)).collect();
        fine.on_batch(&info, &records, &reg);
        let t = fine.traffic();
        assert_eq!(t.records_analyzed, 5);
        assert_eq!(t.records_skipped, 5);
    }

    #[test]
    fn type_inference_decodes_untyped_store() {
        // Untyped 4-byte store whose operand comes from FADD.F32 — fine
        // analysis must see float values, not garbage integers.
        use vex_gpu::ir::{FloatWidth, Instruction, Opcode, Reg};
        let table = InstrTableBuilder::new()
            .instr(Instruction {
                pc: Pc(0),
                op: Opcode::FAdd(FloatWidth::F32),
                dst: Some(Reg(0)),
                srcs: vec![],
                access: None,
                line: None,
            })
            .instr(Instruction {
                pc: Pc(1),
                op: Opcode::St,
                dst: None,
                srcs: vec![Reg(0)],
                access: Some(vex_gpu::ir::AccessDecl {
                    width_bytes: 4,
                    space: MemSpace::Global,
                    is_store: true,
                    ty: None,
                    vector: 1,
                }),
                line: None,
            })
            .build();
        let info = launch_info("untyped", table);
        let reg = registry_with(256, 4096, "o");
        let mut fine = FineState::new(PatternConfig::default(), BlockSampler::default());
        let bits = (2.5f32).to_bits() as u64;
        let records: Vec<AccessRecord> =
            (0..32).map(|i| store_rec(1, 256 + i * 4, bits, 4, 0)).collect();
        fine.on_batch(&info, &records, &reg);
        fine.on_launch_complete(&info, &reg);
        let f = &fine.findings()[0];
        let hit = f.hits.iter().find(|h| h.pattern == ValuePattern::SingleValue).unwrap();
        assert!(hit.detail.contains("2.5"), "decoded as float: {}", hit.detail);
    }

    #[test]
    fn merged_findings_aggregate_launches() {
        let table =
            InstrTableBuilder::new().store(Pc(0), ScalarType::U32, MemSpace::Global).build();
        let reg = registry_with(256, 4096, "o");
        let mut fine = FineState::new(PatternConfig::default(), BlockSampler::default());
        for launch in 0..3u64 {
            let mut info = launch_info(
                "k",
                InstrTableBuilder::new()
                    .store(Pc(0), ScalarType::U32, MemSpace::Global)
                    .build(),
            );
            info.launch = LaunchId(launch);
            let records: Vec<AccessRecord> =
                (0..8).map(|i| store_rec(0, 256 + i * 4, 5, 4, 0)).collect();
            fine.on_batch(&info, &records, &reg);
            fine.on_launch_complete(&info, &reg);
        }
        let _ = table;
        assert_eq!(fine.findings().len(), 3);
        let merged = merge_findings(fine.findings());
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].accesses, 24);
    }

    #[test]
    fn unattributable_records_ignored() {
        let table =
            InstrTableBuilder::new().store(Pc(0), ScalarType::U32, MemSpace::Global).build();
        let info = launch_info("k", table);
        let reg = ObjectRegistry::new(); // nothing allocated
        let mut fine = FineState::new(PatternConfig::default(), BlockSampler::default());
        fine.on_batch(&info, &[store_rec(0, 999, 1, 4, 0)], &reg);
        fine.on_launch_complete(&info, &reg);
        assert!(fine.findings().is_empty());
        assert_eq!(fine.traffic().records_analyzed, 0);
    }

    #[test]
    fn shared_memory_is_one_object() {
        let table =
            InstrTableBuilder::new().store(Pc(0), ScalarType::U32, MemSpace::Shared).build();
        let info = launch_info("k", table);
        let reg = ObjectRegistry::new();
        let mut fine = FineState::new(PatternConfig::default(), BlockSampler::default());
        let mut rec = store_rec(0, 0, 7, 4, 0);
        rec.space = MemSpace::Shared;
        let records = vec![rec; 40];
        fine.on_batch(&info, &records, &reg);
        fine.on_launch_complete(&info, &reg);
        assert_eq!(fine.findings().len(), 1);
        assert_eq!(fine.findings()[0].object, "shared");
    }
}
