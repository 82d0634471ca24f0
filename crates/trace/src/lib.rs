//! # vex-trace — the instrumentation engine
//!
//! ValueExpert's fine-grained collector instruments every memory load and
//! store of a GPU kernel, stores the records in a **pre-allocated GPU
//! buffer**, and copies the buffer to the CPU when it fills (§4, §5.1 of
//! the paper). This crate reproduces that machinery on top of
//! [`vex_gpu`]'s access hooks:
//!
//! * [`AccessRecord`] — the compact on-device record format,
//! * [`DeviceBuffer`] — a bounded buffer that signals when full,
//! * [`CollectorStats`] — the flush traffic the profiler charges as
//!   measurement overhead, and
//! * [`LaunchFilter`] — pluggable per-launch instrumentation decisions
//!   (kernel filtering and sampling plug in here; implementations live in
//!   `vex-core::sampling`).
//!
//! On top of that machinery sits the **canonical event model** every
//! consumer shares:
//!
//! * [`event`] — the [`event::Event`] enum (API events + capture
//!   snapshots, launch boundaries, record batches), the
//!   [`event::EventSink`] interface all analyses implement, and the
//!   unified [`event::EventSource`] — the data collector — that attaches
//!   once to a runtime, fills the device buffer, and feeds them all,
//! * [`container`] — the versioned, length-framed `.vex` trace container:
//!   record an event stream to disk, replay it later through any sink,
//!   one batch at a time,
//! * [`salvage`] — crash recovery for torn containers: recover the
//!   longest valid frame prefix of a truncated trace with a loss
//!   report, and re-encode it into a fresh valid container,
//! * [`interval`] — the §6.1 interval representation and merge
//!   algorithms the coarse pass and the container share.
//!
//! The collector serializes concurrent streams by construction: the
//! simulator runs one operation at a time, and the collector asserts that
//! launches do not interleave.

#![deny(missing_docs)]

pub mod codec;
pub mod container;
pub mod event;
pub mod index;
pub mod interval;
pub mod salvage;
pub mod summary;

use vex_gpu::hooks::{AccessEvent, LaunchInfo};
use vex_gpu::ir::{MemSpace, Pc};

/// Compact per-access record, the simulated on-GPU buffer entry.
///
/// 32 bytes per record in the simulated device buffer, mirroring the kind
/// of packed struct a real tool writes from an instrumentation callback.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessRecord {
    /// Static program counter.
    pub pc: Pc,
    /// Accessed address (global) or offset (shared).
    pub addr: u64,
    /// Raw little-endian value bits.
    pub bits: u64,
    /// Access width in bytes.
    pub size: u8,
    /// True for stores.
    pub is_store: bool,
    /// Address space.
    pub space: MemSpace,
    /// Flat block index.
    pub block: u32,
    /// Flat thread index within the block.
    pub thread: u32,
    /// True when the access is half of a hardware atomic.
    pub is_atomic: bool,
}

impl AccessRecord {
    /// Size of one record in the simulated device buffer, bytes.
    pub const DEVICE_BYTES: u64 = 32;

    /// Half-open `[addr, addr + size)` interval of the access.
    pub fn interval(&self) -> (u64, u64) {
        (self.addr, self.addr + self.size as u64)
    }
}

impl From<&AccessEvent> for AccessRecord {
    fn from(ev: &AccessEvent) -> Self {
        AccessRecord {
            pc: ev.pc,
            addr: ev.addr,
            bits: ev.bits,
            size: ev.size,
            is_store: ev.is_store,
            space: ev.space,
            block: ev.block,
            thread: ev.thread,
            is_atomic: ev.is_atomic,
        }
    }
}

/// A bounded record buffer standing in for the pre-allocated GPU buffer.
#[derive(Debug)]
pub struct DeviceBuffer {
    records: Vec<AccessRecord>,
    capacity: usize,
}

impl DeviceBuffer {
    /// Creates a buffer holding at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "device buffer capacity must be nonzero");
        DeviceBuffer { records: Vec::with_capacity(capacity), capacity }
    }

    /// Appends a record; returns `true` if the buffer is now full and must
    /// be flushed before the next append.
    ///
    /// # Panics
    ///
    /// Panics if called on a full buffer (the caller failed to flush).
    pub fn push(&mut self, rec: AccessRecord) -> bool {
        assert!(self.records.len() < self.capacity, "push into full device buffer");
        self.records.push(rec);
        self.records.len() == self.capacity
    }

    /// Current number of buffered records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Buffer capacity in records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drains all buffered records.
    pub fn drain(&mut self) -> Vec<AccessRecord> {
        std::mem::take(&mut self.records)
    }
}

/// Decides whether a launch is instrumented. See `vex-core::sampling` for
/// the kernel-filter and hierarchical-sampling implementations.
pub trait LaunchFilter: Send + Sync {
    /// Returns `true` to instrument this launch.
    fn accept(&self, info: &LaunchInfo) -> bool;
}

/// Instruments every launch.
#[derive(Debug, Clone, Copy, Default)]
pub struct AcceptAll;

impl LaunchFilter for AcceptAll {
    fn accept(&self, _info: &LaunchInfo) -> bool {
        true
    }
}

/// Measurement-traffic counters used by the overhead model (Figure 6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectorStats {
    /// Access events recorded into the device buffer (post block
    /// sampling).
    pub events: u64,
    /// Access events the instrumentation callback inspected (including
    /// those dropped by block sampling).
    pub events_checked: u64,
    /// Device-buffer flushes triggered (full buffer or kernel end).
    pub flushes: u64,
    /// Bytes of record traffic copied device→host.
    pub bytes_flushed: u64,
    /// Launches that were instrumented.
    pub instrumented_launches: u64,
    /// Launches skipped by the filter.
    pub skipped_launches: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventSink, EventSource, EventSourceConfig};
    use parking_lot::Mutex;
    use std::sync::Arc;
    use vex_gpu::dim::Dim3;
    use vex_gpu::hooks::LaunchId;
    use vex_gpu::ir::{InstrTable, InstrTableBuilder, ScalarType};
    use vex_gpu::kernel::Kernel;
    use vex_gpu::prelude::*;
    use vex_gpu::timing::DeviceSpec;

    /// Tallies the fine-pass events the collector delivers.
    struct CountingSink {
        batches: Mutex<Vec<usize>>,
        completed: Mutex<u64>,
        skipped: Mutex<u64>,
    }

    impl CountingSink {
        fn new() -> Self {
            CountingSink {
                batches: Mutex::new(Vec::new()),
                completed: Mutex::new(0),
                skipped: Mutex::new(0),
            }
        }
    }

    impl EventSink for CountingSink {
        fn on_event(&self, event: &Event) {
            match event {
                Event::Batch { records, .. } => self.batches.lock().push(records.len()),
                Event::LaunchEnd { .. } => *self.completed.lock() += 1,
                Event::SkippedLaunch { .. } => *self.skipped.lock() += 1,
                Event::Api { .. } | Event::LaunchBegin { .. } => {}
            }
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
        fn instr_table(&self) -> InstrTable {
            InstrTableBuilder::new().store(Pc(0), ScalarType::U32, MemSpace::Global).build()
        }
        fn execute(&self, ctx: &mut ThreadCtx<'_>) {
            let i = ctx.global_thread_id();
            if i < self.n {
                ctx.store::<u32>(Pc(0), self.base + (i * 4) as u64, i as u32);
            }
        }
    }

    /// Runs one `n`-thread store kernel under a fine-only collector with
    /// a `capacity`-record device buffer.
    fn run_with_collector(
        n: usize,
        capacity: usize,
        filter: Arc<dyn LaunchFilter>,
    ) -> (Arc<CountingSink>, Arc<EventSource>) {
        let mut rt = Runtime::new(DeviceSpec::test_small());
        let sink = Arc::new(CountingSink::new());
        let config = EventSourceConfig {
            api: false,
            coarse: false,
            fine: true,
            buffer_records: capacity,
            ..EventSourceConfig::default()
        };
        let source = EventSource::attach(&mut rt, config, filter, sink.clone());
        let base = rt.malloc((n * 4) as u64, "buf").unwrap().addr();
        rt.launch(&WriteN { base, n }, Dim3::linear(1), Dim3::linear(n.max(1) as u32)).unwrap();
        (sink, source)
    }

    #[test]
    fn batches_respect_capacity() {
        let (sink, source) = run_with_collector(10, 4, Arc::new(AcceptAll));
        let batches = sink.batches.lock().clone();
        assert_eq!(batches, vec![4, 4, 2]);
        let stats = source.stats();
        assert_eq!(stats.events, 10);
        assert_eq!(stats.flushes, 3);
        assert_eq!(stats.bytes_flushed, 10 * AccessRecord::DEVICE_BYTES);
        assert_eq!(*sink.completed.lock(), 1);
    }

    #[test]
    fn exact_multiple_has_no_empty_final_batch() {
        let (sink, _source) = run_with_collector(8, 4, Arc::new(AcceptAll));
        assert_eq!(sink.batches.lock().clone(), vec![4, 4]);
    }

    #[test]
    fn filter_skips_launches() {
        struct RejectAll;
        impl LaunchFilter for RejectAll {
            fn accept(&self, _info: &LaunchInfo) -> bool {
                false
            }
        }
        let (sink, source) = run_with_collector(10, 4, Arc::new(RejectAll));
        assert!(sink.batches.lock().is_empty());
        assert_eq!(*sink.skipped.lock(), 1);
        let stats = source.stats();
        assert_eq!(stats.events, 0);
        assert_eq!(stats.skipped_launches, 1);
        assert_eq!(stats.instrumented_launches, 0);
    }

    #[test]
    fn record_roundtrip_from_event() {
        let ev = AccessEvent {
            launch: LaunchId(1),
            pc: Pc(3),
            space: MemSpace::Global,
            addr: 512,
            size: 8,
            is_store: true,
            bits: 0xDEAD_BEEF,
            block: 2,
            thread: 33,
            is_atomic: false,
        };
        let rec = AccessRecord::from(&ev);
        assert_eq!(rec.interval(), (512, 520));
        assert_eq!(rec.bits, 0xDEAD_BEEF);
        assert!(rec.is_store);
    }

    #[test]
    #[should_panic(expected = "full device buffer")]
    fn overfull_buffer_panics() {
        let mut b = DeviceBuffer::new(1);
        let rec = AccessRecord {
            pc: Pc(0),
            addr: 0,
            bits: 0,
            size: 4,
            is_store: false,
            space: MemSpace::Global,
            block: 0,
            thread: 0,
            is_atomic: false,
        };
        b.push(rec);
        b.push(rec);
    }
}
