//! The fine-grained analyzer (§5.1).
//!
//! Consumes the per-access record batches ([`vex_trace::event::Event::Batch`])
//! flushed by the [`vex_trace::event::EventSource`] or streamed from a
//! recorded trace, attributes each record to a data object,
//! decodes its raw bits using the access types recovered by
//! [`crate::access_type`], and accumulates [`crate::patterns::ValueStats`]
//! per `(object, direction)`. At kernel end the recognizers of
//! [`crate::patterns`] run and produce [`FineFinding`]s.

use crate::access_type::{fallback_type, infer_access_types, AccessTypeMap, DecodedValue};
use crate::patterns::{GroupedAccess, PatternConfig, PatternHit, RegressionAcc, ValueStats};
use crate::registry::{ObjectCursor, ObjectKey, ObjectRegistry};
use crate::sampling::BlockSampler;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use vex_gpu::callpath::CallPathId;
use vex_gpu::hooks::{LaunchId, LaunchInfo};
use vex_gpu::ir::{MemSpace, Pc, ScalarType};
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

/// One kernel's access types as a table indexed by PC, built once from
/// [`infer_access_types`]. Decodes exactly like [`AccessTypeMap::decode`].
#[derive(Debug)]
struct TypeTable {
    /// Resolved type of each PC below `dense.len()`.
    dense: Vec<Option<ScalarType>>,
    /// The map itself, consulted only for PCs past the dense table
    /// (which stops at [`TypeTable::DENSE_PCS`] so that a recorded
    /// instruction table with a huge PC cannot size it).
    map: AccessTypeMap,
}

impl TypeTable {
    const DENSE_PCS: u32 = 1 << 16;

    fn new(map: AccessTypeMap) -> Self {
        let len = map.iter().map(|(pc, _)| pc.0.saturating_add(1)).max().unwrap_or(0);
        let mut dense = vec![None; len.min(Self::DENSE_PCS) as usize];
        for (pc, access) in map.iter() {
            if let Some(slot) = dense.get_mut(pc.0 as usize) {
                *slot = Some(access.ty);
            }
        }
        TypeTable { dense, map }
    }

    #[inline]
    fn decode(&self, pc: Pc, bits: u64, size: u8) -> DecodedValue {
        let ty = match self.dense.get(pc.0 as usize) {
            Some(ty) => *ty,
            None => self.map.get(pc).map(|r| r.ty),
        };
        DecodedValue::from_bits(ty.unwrap_or_else(|| fallback_type(size)), bits)
    }
}

/// A record's group slot in [`FineState::on_batch`]'s counting sort
/// when it is not analyzed (sampled out or unattributable).
const NO_SLOT: u32 = u32::MAX;

/// Records per part of a batch in [`FineState::on_batch`]. Its grouping
/// buffers (64 KiB at this size) stay under the allocator's mmap
/// threshold, so each batch reuses heap memory instead of faulting in
/// fresh pages, and the pass keeps nothing between batches.
const PART: usize = 2048;

/// The fine-grained analyzer state. Driven by the profiler front-end.
#[derive(Debug)]
pub struct FineState {
    config: PatternConfig,
    block_sampler: BlockSampler,
    type_tables: HashMap<String, TypeTable>,
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
            type_tables: HashMap::new(),
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
    ///
    /// Each `(object, direction)` group of the batch goes through the
    /// batched stats kernel in record order, and its regression sums
    /// merge once per batch. Every engine (inline, pipeline shard,
    /// replay) sees the same groups per batch, so accumulated stats stay
    /// bit-identical across them.
    ///
    /// The batch is grouped part by part with a stable counting sort.
    /// Each group's regression sums accumulate across the parts and
    /// merge once, so feeding a group part by part leaves the state one
    /// call with all of its records would.
    pub fn on_batch(
        &mut self,
        info: &LaunchInfo,
        records: &[AccessRecord],
        registry: &ObjectRegistry,
    ) {
        if !self.type_tables.contains_key(&info.kernel_name) {
            let table = TypeTable::new(infer_access_types(&info.instr_table));
            self.type_tables.insert(info.kernel_name.clone(), table);
        }
        let types = &self.type_tables[&info.kernel_name];
        let keep_all = self.block_sampler.period() == 1;
        let mut cursor = registry.cursor();
        // Every group of the batch with its batch-wide regression sums,
        // and its record count in the current part.
        let mut groups: Vec<((ObjectKey, Direction), RegressionAcc)> = Vec::new();
        let mut counts: Vec<usize> = Vec::new();
        let mut next: Vec<usize> = Vec::new();
        // The group slot of each remembered span and of shared memory,
        // per direction, so a slot is searched for only when the cursor
        // fills a span.
        let mut span_slots = [[NO_SLOT; 2]; ObjectCursor::SPANS];
        let mut shared_slots = [NO_SLOT; 2];
        let mut slots: Vec<u32> = Vec::with_capacity(PART.min(records.len()));
        let mut placed: Vec<GroupedAccess> = Vec::with_capacity(PART.min(records.len()));
        for part in records.chunks(PART) {
            // Pass 1: each record's group slot, and each slot's count.
            slots.clear();
            counts.iter_mut().for_each(|c| *c = 0);
            for rec in part {
                if !keep_all && !self.block_sampler.keep(rec.block) {
                    self.traffic.records_skipped += 1;
                    slots.push(NO_SLOT);
                    continue;
                }
                let dir = usize::from(rec.is_store);
                let (key, cached) = match rec.space {
                    MemSpace::Shared => (ObjectKey::Shared, &mut shared_slots[dir]),
                    MemSpace::Global => {
                        let Some((span, filled)) = cursor.span(rec.addr) else {
                            slots.push(NO_SLOT); // not attributable to a live object
                            continue;
                        };
                        if filled {
                            span_slots[span] = [NO_SLOT; 2];
                        }
                        (cursor.key(span), &mut span_slots[span][dir])
                    }
                };
                if *cached == NO_SLOT {
                    let group =
                        (key, if rec.is_store { Direction::Store } else { Direction::Load });
                    let slot = match groups.iter().position(|(g, _)| *g == group) {
                        Some(slot) => slot,
                        None => {
                            groups.push((group, RegressionAcc::default()));
                            counts.push(0);
                            groups.len() - 1
                        }
                    };
                    // A batch holds at most 2^24 records, so slots fit.
                    *cached = slot as u32;
                }
                counts[*cached as usize] += 1;
                slots.push(*cached);
            }

            // Pass 2: place the part's analyzed records, decoded, group
            // after group, each group in record order.
            next.clear();
            let mut kept = 0;
            for &count in &counts {
                next.push(kept);
                kept += count;
            }
            self.traffic.records_analyzed += kept as u64;
            placed.clear();
            placed.resize(kept, (0, DecodedValue::from_bits(ScalarType::U8, 0), Pc(0)));
            for (rec, &slot) in part.iter().zip(&slots) {
                if slot != NO_SLOT {
                    let at = &mut next[slot as usize];
                    placed[*at] = (rec.addr, types.decode(rec.pc, rec.bits, rec.size), rec.pc);
                    *at += 1;
                }
            }

            let mut start = 0;
            for ((group, acc), &count) in groups.iter_mut().zip(&counts) {
                if count > 0 {
                    self.current
                        .entry(*group)
                        .or_insert_with(|| ValueStats::new(self.config))
                        .record_part(&placed[start..start + count], acc, true);
                    start += count;
                }
            }
        }
        for (group, acc) in groups {
            self.current
                .entry(group)
                .or_insert_with(|| ValueStats::new(self.config))
                .merge_regression(acc);
        }
    }

    /// The fine pass as first written: a registry lookup, a type lookup
    /// and a map entry per record. [`FineState::on_batch`] must leave
    /// exactly the state this leaves.
    #[cfg(test)]
    fn on_batch_reference(
        &mut self,
        info: &LaunchInfo,
        records: &[AccessRecord],
        registry: &ObjectRegistry,
    ) {
        let types = infer_access_types(&info.instr_table);
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

    /// A deterministic xorshift stream for generated batches.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn alloc(id: u64, addr: u64, size: u64) -> AllocationInfo {
        AllocationInfo {
            id: AllocId(id),
            addr,
            size,
            label: format!("o{id}"),
            context: CallPathId::ROOT,
            live: true,
        }
    }

    /// Two kernels' instruction tables: typed global and shared accesses,
    /// a PC past the dense type table, and PCs 7..10 and 70001 absent.
    fn kernel_tables() -> [InstrTable; 2] {
        use MemSpace::{Global, Shared};
        [
            InstrTableBuilder::new()
                .load(Pc(0), ScalarType::F32, Global)
                .store(Pc(1), ScalarType::F32, Global)
                .load(Pc(2), ScalarType::F64, Global)
                .store(Pc(3), ScalarType::U32, Global)
                .load(Pc(4), ScalarType::S8, Global)
                .store(Pc(5), ScalarType::F32, Shared)
                .load(Pc(6), ScalarType::U16, Global)
                .build(),
            InstrTableBuilder::new()
                .load(Pc(0), ScalarType::U32, Global)
                .store(Pc(1), ScalarType::F64, Global)
                .load(Pc(2), ScalarType::F32, Shared)
                .store(Pc(4), ScalarType::S64, Global)
                .store(Pc(70_000), ScalarType::F32, Global)
                .build(),
        ]
    }

    /// Value bits that stress the stats kernel: NaNs with payloads, both
    /// zeros, denormals, infinities, and ordinary values of each width.
    fn value_bits(g: &mut Gen) -> u64 {
        const SPECIAL: [u64; 14] = [
            0x7FC0_0000,           // f32 NaN
            0x7F80_0001,           // f32 signalling NaN
            0x7FF8_0000_0000_0001, // f64 NaN with a payload
            0xFFF0_0000_0000_0002, // negative f64 signalling NaN
            0,
            0x8000_0000,           // f32 -0.0
            0x8000_0000_0000_0000, // f64 -0.0
            1,                     // denormal in both widths
            0x000F_FFFF_FFFF_FFFF, // largest f64 denormal
            0x7F80_0000,           // f32 +inf
            0xFF80_0000,           // f32 -inf
            0x7FF0_0000_0000_0000, // f64 +inf
            0xFFF0_0000_0000_0000, // f64 -inf
            0x4049_0FDB,           // f32 pi
        ];
        match g.below(4) {
            0 => SPECIAL[g.below(SPECIAL.len() as u64) as usize],
            1 => g.below(8),
            2 => (1.0f64 + g.below(1000) as f64 / 7.0).to_bits(),
            _ => g.next(),
        }
    }

    /// One batch of runs. Each run repeats one PC, direction and space
    /// over consecutive addresses from near an allocation boundary
    /// (`anchors`), with either one value throughout or fresh values.
    fn gen_batch(g: &mut Gen, anchors: &[u64]) -> Vec<AccessRecord> {
        const PCS: [u32; 12] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 70_000, 70_001];
        const SIZES: [u8; 4] = [1, 2, 4, 8];
        // Some batches cross FineState's part size.
        let target = if g.below(4) == 0 { 2000 + g.below(3000) } else { g.below(300) };
        let mut records = Vec::new();
        while (records.len() as u64) < target {
            let len = if g.below(3) == 0 { 1 + g.below(200) } else { 1 + g.below(8) };
            let pc = PCS[g.below(PCS.len() as u64) as usize];
            let size = SIZES[g.below(4) as usize];
            let space = if g.below(6) == 0 { MemSpace::Shared } else { MemSpace::Global };
            let is_store = g.below(2) == 0;
            let start =
                anchors[g.below(anchors.len() as u64) as usize].wrapping_sub(g.below(12));
            let step = if g.below(2) == 0 { size as u64 } else { 0 };
            let constant = g.below(2) == 0;
            let mut bits = value_bits(g);
            for i in 0..len {
                if !constant {
                    bits = value_bits(g);
                }
                records.push(AccessRecord {
                    pc: Pc(pc),
                    addr: start.wrapping_add(i * step),
                    bits,
                    size,
                    is_store,
                    space,
                    block: g.below(7) as u32,
                    thread: 0,
                    is_atomic: false,
                });
            }
            // Interleave objects record by record now and then.
            if g.below(5) == 0 && records.len() >= 2 {
                let n = records.len();
                records.swap(n - 1, n - 2 - g.below((n - 1).min(4) as u64) as usize);
            }
        }
        records
    }

    fn assert_same_state(new: &FineState, reference: &FineState, at: &str) {
        let keys = |f: &FineState| f.current.keys().copied().collect::<Vec<_>>();
        assert_eq!(keys(new), keys(reference), "{at}: groups");
        for (key, stats) in &new.current {
            assert_eq!(
                stats.state_bits(),
                reference.current[key].state_bits(),
                "{at}: {key:?}"
            );
        }
        assert_eq!(new.traffic(), reference.traffic(), "{at}: traffic");
        assert_eq!(
            format!("{:?}", new.findings()),
            format!("{:?}", reference.findings()),
            "{at}: findings"
        );
        assert_eq!(
            format!("{:?}", new.tagged_findings()),
            format!("{:?}", reference.tagged_findings()),
            "{at}: tagged findings"
        );
    }

    proptest::proptest! {
        /// The run-oriented pass leaves exactly the reference pass's
        /// state, batch by batch and launch by launch: adjacent and
        /// overlapping allocations, a free and re-alloc between batches,
        /// shared and unattributable records, block sampling, PCs outside
        /// the type table, special float bits, long equal-value stretches
        /// and a distinct-value cap that coalesced stretches run into.
        #[test]
        fn on_batch_matches_reference(
            seed in proptest::prelude::any::<u64>(),
            period_index in 0usize..2,
            cap_index in 0usize..3,
        ) {
            let mut g = Gen(seed | 1);
            let config = PatternConfig {
                max_distinct_values: [2, 7, 1 << 16][cap_index],
                ..PatternConfig::default()
            };
            let sampler = BlockSampler::new([1, 3][period_index]);
            let mut new = FineState::new(config, sampler);
            let mut reference = FineState::new(config, sampler);
            let tables = kernel_tables();
            let mut registry = ObjectRegistry::new();
            // 1: [256, 320), 2: [320, 448) adjacent, 3: [1024, 1280) with
            // 4: [1100, 1110) overlapping it, and more objects than the
            // cursor remembers spans: 6..12 at [2048 + 64 i, + 48).
            for (id, addr, size) in [(1, 256, 64), (2, 320, 128), (3, 1024, 256), (4, 1100, 10)] {
                registry.on_alloc(&alloc(id, addr, size));
            }
            let mut anchors = vec![256, 300, 320, 448, 1024, 1100, 1110, 1280, 4096, 0];
            for i in 0..6 {
                registry.on_alloc(&alloc(6 + i, 2048 + 64 * i, 48));
                anchors.extend([2048 + 64 * i + 8, 2048 + 64 * i + 48]);
            }
            for launch in 0..4u64 {
                let k = (launch % 2) as usize;
                let mut info = launch_info(&format!("k{k}"), tables[k].clone());
                info.launch = LaunchId(launch);
                for batch in 0..1 + g.below(3) {
                    if launch == 2 && batch == 1 {
                        // Free 1 and re-alloc its start, smaller, as 5.
                        registry.on_free(&alloc(1, 256, 64));
                        registry.on_alloc(&alloc(5, 256, 16));
                    }
                    let records = gen_batch(&mut g, &anchors);
                    new.on_batch(&info, &records, &registry);
                    reference.on_batch_reference(&info, &records, &registry);
                    assert_same_state(&new, &reference, &format!("launch {launch} batch {batch}"));
                }
                new.on_launch_complete(&info, &registry);
                reference.on_launch_complete(&info, &registry);
                assert_same_state(&new, &reference, &format!("launch {launch} end"));
            }
        }
    }
}
