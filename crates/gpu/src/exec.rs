//! SIMT execution engine: grids, blocks, threads, and instrumented memory
//! access.
//!
//! Execution is deterministic: blocks run in ascending flat-block order and
//! threads within a block in ascending flat-thread order. Every global or
//! shared load/store funnels through [`ThreadCtx`], which performs the
//! memory operation, updates the launch's work counters, and — when the
//! launch is instrumented — appends an [`AccessEvent`] to the launch's
//! access buffer. Every registered [`MemAccessHook`] receives that buffer
//! as one slice whenever it holds [`ACCESS_SLICE`] events, and once more
//! with the remainder when the launch's last block has run.

use crate::dim::Dim3;
use crate::hooks::{AccessEvent, LaunchId, MemAccessHook};
use crate::host::Pod;
use crate::ir::{MemSpace, Pc, ScalarType};
use crate::kernel::Kernel;
use crate::memory::GlobalMemory;
use crate::timing::KernelWork;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Accesses an instrumented launch buffers before handing them to the
/// hooks as one slice: the simulator's stand-in for the device buffer the
/// host drains in bulk.
pub const ACCESS_SLICE: usize = 1024;

/// Floating-point precision classes for work accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Precision {
    /// 32-bit float operations.
    F32,
    /// 64-bit float operations.
    F64,
    /// Integer operations.
    Int,
}

/// Work and traffic counters accumulated over one launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LaunchStats {
    /// Threads executed.
    pub threads: u64,
    /// Global loads executed.
    pub loads: u64,
    /// Global stores executed.
    pub stores: u64,
    /// Bytes loaded from global memory.
    pub bytes_loaded: u64,
    /// Bytes stored to global memory.
    pub bytes_stored: u64,
    /// Shared-memory loads executed.
    pub shared_loads: u64,
    /// Shared-memory stores executed.
    pub shared_stores: u64,
    /// FP32 operations.
    pub flops_f32: u64,
    /// FP64 operations.
    pub flops_f64: u64,
    /// Integer operations.
    pub int_ops: u64,
}

impl LaunchStats {
    /// Work summary consumed by the timing model.
    pub fn work(&self) -> KernelWork {
        KernelWork {
            bytes_loaded: self.bytes_loaded,
            bytes_stored: self.bytes_stored,
            flops_f32: self.flops_f32,
            flops_f64: self.flops_f64,
            int_ops: self.int_ops,
        }
    }

    /// Total global memory accesses (loads + stores).
    pub fn accesses(&self) -> u64 {
        self.loads + self.stores
    }
}

/// Scalar types kernels may load and store.
///
/// This trait is sealed via [`Pod`]; it is implemented exactly for the
/// fixed-width numeric primitives.
pub trait DeviceScalar: Pod {
    /// The IR-level scalar type tag.
    const TYPE: ScalarType;
    /// Reconstructs the value from little-endian raw bits.
    fn from_bits(bits: u64) -> Self;
    /// Raw little-endian bits (zero-extended to 64).
    fn to_bits(self) -> u64;
}

macro_rules! impl_scalar_int {
    ($t:ty, $tag:expr) => {
        impl DeviceScalar for $t {
            const TYPE: ScalarType = $tag;
            fn from_bits(bits: u64) -> Self {
                bits as $t
            }
            fn to_bits(self) -> u64 {
                // Cast through the unsigned same-width type to avoid sign
                // extension surprises, then widen.
                self as u64 & (u64::MAX >> (64 - 8 * std::mem::size_of::<$t>()))
            }
        }
    };
}

impl_scalar_int!(u8, ScalarType::U8);
impl_scalar_int!(i8, ScalarType::S8);
impl_scalar_int!(u16, ScalarType::U16);
impl_scalar_int!(i16, ScalarType::S16);
impl_scalar_int!(u32, ScalarType::U32);
impl_scalar_int!(i32, ScalarType::S32);

impl DeviceScalar for u64 {
    const TYPE: ScalarType = ScalarType::U64;
    fn from_bits(bits: u64) -> Self {
        bits
    }
    fn to_bits(self) -> u64 {
        self
    }
}

impl DeviceScalar for i64 {
    const TYPE: ScalarType = ScalarType::S64;
    fn from_bits(bits: u64) -> Self {
        bits as i64
    }
    fn to_bits(self) -> u64 {
        self as u64
    }
}

impl DeviceScalar for f32 {
    const TYPE: ScalarType = ScalarType::F32;
    fn from_bits(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }
    fn to_bits(self) -> u64 {
        self.to_bits() as u64
    }
}

impl DeviceScalar for f64 {
    const TYPE: ScalarType = ScalarType::F64;
    fn from_bits(bits: u64) -> Self {
        f64::from_bits(bits)
    }
    fn to_bits(self) -> u64 {
        self.to_bits()
    }
}

/// Per-block execution context; hands out [`ThreadCtx`]s.
pub struct BlockCtx<'a> {
    memory: &'a mut GlobalMemory,
    shared: Vec<u8>,
    hooks: &'a [Arc<dyn MemAccessHook>],
    instrument: bool,
    accesses: &'a mut Vec<AccessEvent>,
    stats: &'a mut LaunchStats,
    launch: LaunchId,
    grid: Dim3,
    block_dim: Dim3,
    block_flat: u32,
}

impl std::fmt::Debug for BlockCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCtx")
            .field("block_flat", &self.block_flat)
            .field("block_dim", &self.block_dim)
            .finish()
    }
}

impl BlockCtx<'_> {
    /// Flat index of this block within the grid.
    pub fn block_flat(&self) -> u32 {
        self.block_flat
    }

    /// Block (x, y, z) coordinate within the grid.
    pub fn block_coord(&self) -> (u32, u32, u32) {
        self.grid.unflatten(self.block_flat as usize)
    }

    /// Grid dimensions of the launch.
    pub fn grid_dim(&self) -> Dim3 {
        self.grid
    }

    /// Block dimensions of the launch.
    pub fn block_dim(&self) -> Dim3 {
        self.block_dim
    }

    /// Runs `f` once for every thread of the block in ascending flat-thread
    /// order. May be called repeatedly to express `__syncthreads()` phases.
    pub fn for_each_thread(&mut self, mut f: impl FnMut(&mut ThreadCtx<'_>)) {
        for t in 0..self.block_dim.count() {
            let mut ctx = ThreadCtx {
                memory: self.memory,
                shared: &mut self.shared,
                hooks: self.hooks,
                instrument: self.instrument,
                accesses: self.accesses,
                stats: self.stats,
                launch: self.launch,
                grid: self.grid,
                block_dim: self.block_dim,
                block_flat: self.block_flat,
                thread_flat: t as u32,
            };
            f(&mut ctx);
        }
    }
}

/// Per-thread execution context: identity, memory access, work accounting.
pub struct ThreadCtx<'a> {
    memory: &'a mut GlobalMemory,
    shared: &'a mut Vec<u8>,
    hooks: &'a [Arc<dyn MemAccessHook>],
    instrument: bool,
    accesses: &'a mut Vec<AccessEvent>,
    stats: &'a mut LaunchStats,
    launch: LaunchId,
    grid: Dim3,
    block_dim: Dim3,
    block_flat: u32,
    thread_flat: u32,
}

impl std::fmt::Debug for ThreadCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadCtx")
            .field("block", &self.block_flat)
            .field("thread", &self.thread_flat)
            .finish()
    }
}

impl ThreadCtx<'_> {
    /// Flat block index within the grid (`blockIdx` flattened).
    pub fn block_flat(&self) -> u32 {
        self.block_flat
    }

    /// Block (x, y, z) coordinate.
    pub fn block_coord(&self) -> (u32, u32, u32) {
        self.grid.unflatten(self.block_flat as usize)
    }

    /// Flat thread index within the block (`threadIdx` flattened).
    pub fn thread_flat(&self) -> u32 {
        self.thread_flat
    }

    /// Thread (x, y, z) coordinate within the block.
    pub fn thread_coord(&self) -> (u32, u32, u32) {
        self.block_dim.unflatten(self.thread_flat as usize)
    }

    /// Grid dimensions of the launch.
    pub fn grid_dim(&self) -> Dim3 {
        self.grid
    }

    /// Block dimensions of the launch.
    pub fn block_dim(&self) -> Dim3 {
        self.block_dim
    }

    /// Globally flat thread id: `block_flat * block_size + thread_flat`.
    pub fn global_thread_id(&self) -> usize {
        self.block_flat as usize * self.block_dim.count() + self.thread_flat as usize
    }

    fn emit(
        &mut self,
        pc: Pc,
        space: MemSpace,
        addr: u64,
        size: u8,
        is_store: bool,
        bits: u64,
    ) {
        self.emit_full(pc, space, addr, size, is_store, bits, false);
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_full(
        &mut self,
        pc: Pc,
        space: MemSpace,
        addr: u64,
        size: u8,
        is_store: bool,
        bits: u64,
        is_atomic: bool,
    ) {
        if !self.instrument {
            return;
        }
        self.accesses.push(AccessEvent {
            launch: self.launch,
            pc,
            space,
            addr,
            size,
            is_store,
            bits,
            block: self.block_flat,
            thread: self.thread_flat,
            is_atomic,
        });
        if self.accesses.len() == ACCESS_SLICE {
            deliver(self.hooks, self.accesses);
        }
    }

    /// Loads one scalar from global memory.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-bounds address — an out-of-bounds access in a
    /// kernel is a bug in the workload, and the simulator fails loudly with
    /// kernel coordinates in the message.
    pub fn load<T: DeviceScalar>(&mut self, pc: Pc, addr: u64) -> T {
        let size = std::mem::size_of::<T>() as u8;
        let bits = self.memory.read_bits(addr, size).unwrap_or_else(|e| {
            panic!(
                "global load fault at {pc}, block {}, thread {}: {e}",
                self.block_flat, self.thread_flat
            )
        });
        self.stats.loads += 1;
        self.stats.bytes_loaded += size as u64;
        self.emit(pc, MemSpace::Global, addr, size, false, bits);
        T::from_bits(bits)
    }

    /// Stores one scalar to global memory.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-bounds address (see [`ThreadCtx::load`]).
    pub fn store<T: DeviceScalar>(&mut self, pc: Pc, addr: u64, value: T) {
        let size = std::mem::size_of::<T>() as u8;
        let bits = value.to_bits();
        self.memory.write_bits(addr, size, bits).unwrap_or_else(|e| {
            panic!(
                "global store fault at {pc}, block {}, thread {}: {e}",
                self.block_flat, self.thread_flat
            )
        });
        self.stats.stores += 1;
        self.stats.bytes_stored += size as u64;
        self.emit(pc, MemSpace::Global, addr, size, true, bits);
    }

    /// Atomic read-modify-write add on global memory; returns the old
    /// value. Emits a load event followed by a store event at the same PC,
    /// the way binary instrumentation sees a hardware atomic.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-bounds address.
    pub fn atomic_add<T>(&mut self, pc: Pc, addr: u64, value: T) -> T
    where
        T: DeviceScalar + std::ops::Add<Output = T>,
    {
        let size = std::mem::size_of::<T>() as u8;
        let bits = self.memory.read_bits(addr, size).unwrap_or_else(|e| {
            panic!(
                "atomic load fault at {pc}, block {}, thread {}: {e}",
                self.block_flat, self.thread_flat
            )
        });
        self.stats.loads += 1;
        self.stats.bytes_loaded += size as u64;
        self.emit_full(pc, MemSpace::Global, addr, size, false, bits, true);
        let old = T::from_bits(bits);
        let new = old + value;
        let new_bits = new.to_bits();
        self.memory.write_bits(addr, size, new_bits).unwrap_or_else(|e| {
            panic!(
                "atomic store fault at {pc}, block {}, thread {}: {e}",
                self.block_flat, self.thread_flat
            )
        });
        self.stats.stores += 1;
        self.stats.bytes_stored += size as u64;
        self.emit_full(pc, MemSpace::Global, addr, size, true, new_bits, true);
        old
    }

    /// Loads one scalar from this block's shared memory at byte offset
    /// `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the access exceeds the kernel's declared shared size.
    pub fn shared_load<T: DeviceScalar>(&mut self, pc: Pc, offset: u64) -> T {
        let size = std::mem::size_of::<T>();
        let end = offset as usize + size;
        assert!(
            end <= self.shared.len(),
            "shared load fault at {pc}: [{offset}, {end}) beyond {} bytes",
            self.shared.len()
        );
        let mut buf = [0u8; 8];
        buf[..size].copy_from_slice(&self.shared[offset as usize..end]);
        let bits = u64::from_le_bytes(buf);
        self.stats.shared_loads += 1;
        self.emit(pc, MemSpace::Shared, offset, size as u8, false, bits);
        T::from_bits(bits)
    }

    /// Stores one scalar to this block's shared memory at byte offset
    /// `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the access exceeds the kernel's declared shared size.
    pub fn shared_store<T: DeviceScalar>(&mut self, pc: Pc, offset: u64, value: T) {
        let size = std::mem::size_of::<T>();
        let end = offset as usize + size;
        assert!(
            end <= self.shared.len(),
            "shared store fault at {pc}: [{offset}, {end}) beyond {} bytes",
            self.shared.len()
        );
        let bits = value.to_bits();
        self.shared[offset as usize..end].copy_from_slice(&bits.to_le_bytes()[..size]);
        self.stats.shared_stores += 1;
        self.emit(pc, MemSpace::Shared, offset, size as u8, true, bits);
    }

    /// Accounts `n` arithmetic operations of the given precision.
    pub fn flops(&mut self, precision: Precision, n: u64) {
        match precision {
            Precision::F32 => self.stats.flops_f32 += n,
            Precision::F64 => self.stats.flops_f64 += n,
            Precision::Int => self.stats.int_ops += n,
        }
    }
}

/// Hands the buffered accesses to every hook as one slice and empties the
/// buffer (keeping its allocation).
fn deliver(hooks: &[Arc<dyn MemAccessHook>], accesses: &mut Vec<AccessEvent>) {
    if accesses.is_empty() {
        return;
    }
    for h in hooks {
        h.on_accesses(accesses);
    }
    accesses.clear();
}

/// Executes one launch over `memory`, delivering its accesses to `hooks`
/// in slices when `instrument` is true; the last slice arrives before
/// this returns. Returns the accumulated work counters.
///
/// This is the low-level entry point; applications normally go through
/// [`crate::runtime::Runtime::launch`], which also handles API hooks,
/// timing, and launch ids.
pub fn run_launch(
    kernel: &dyn Kernel,
    grid: Dim3,
    block: Dim3,
    memory: &mut GlobalMemory,
    hooks: &[Arc<dyn MemAccessHook>],
    instrument: bool,
    launch: LaunchId,
) -> LaunchStats {
    let mut stats = LaunchStats::default();
    let mut accesses = Vec::with_capacity(if instrument { ACCESS_SLICE } else { 0 });
    let shared_bytes = kernel.shared_bytes();
    for b in 0..grid.count() {
        let mut blk = BlockCtx {
            memory,
            shared: vec![0u8; shared_bytes as usize],
            hooks,
            instrument,
            accesses: &mut accesses,
            stats: &mut stats,
            launch,
            grid,
            block_dim: block,
            block_flat: b as u32,
        };
        kernel.execute_block(&mut blk);
    }
    deliver(hooks, &mut accesses);
    stats.threads = (grid.count() * block.count()) as u64;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{InstrTable, InstrTableBuilder};
    use crate::runtime::Runtime;
    use crate::timing::DeviceSpec;
    use parking_lot::Mutex;

    struct Recorder(Mutex<Vec<AccessEvent>>);
    impl MemAccessHook for Recorder {
        fn on_accesses(&self, events: &[AccessEvent]) {
            self.0.lock().extend_from_slice(events);
        }
    }

    struct AddOne {
        base: u64,
        n: usize,
    }
    impl Kernel for AddOne {
        fn name(&self) -> &str {
            "add_one"
        }
        fn instr_table(&self) -> InstrTable {
            InstrTableBuilder::new()
                .load(Pc(0), ScalarType::F32, MemSpace::Global)
                .store(Pc(1), ScalarType::F32, MemSpace::Global)
                .build()
        }
        fn execute(&self, ctx: &mut ThreadCtx<'_>) {
            let i = ctx.global_thread_id();
            if i < self.n {
                let addr = self.base + (i * 4) as u64;
                let v: f32 = ctx.load(Pc(0), addr);
                ctx.flops(Precision::F32, 1);
                ctx.store(Pc(1), addr, v + 1.0);
            }
        }
    }

    #[test]
    fn executes_and_counts() {
        let mut mem = GlobalMemory::new(4096);
        for i in 0..10u64 {
            mem.write_bits(256 + i * 4, 4, (i as f32).to_bits() as u64).unwrap();
        }
        let k = AddOne { base: 256, n: 10 };
        let stats = run_launch(
            &k,
            Dim3::linear(1),
            Dim3::linear(32),
            &mut mem,
            &[],
            false,
            LaunchId(1),
        );
        assert_eq!(stats.threads, 32);
        assert_eq!(stats.loads, 10);
        assert_eq!(stats.stores, 10);
        assert_eq!(stats.bytes_loaded, 40);
        assert_eq!(stats.flops_f32, 10);
        assert_eq!(f32::from_bits(mem.read_bits(256, 4).unwrap() as u32), 1.0);
    }

    #[test]
    fn hooks_receive_all_events_when_instrumented() {
        let mut mem = GlobalMemory::new(4096);
        let rec = Arc::new(Recorder(Mutex::new(Vec::new())));
        let hooks: Vec<Arc<dyn MemAccessHook>> = vec![rec.clone()];
        let k = AddOne { base: 256, n: 4 };
        run_launch(&k, Dim3::linear(1), Dim3::linear(8), &mut mem, &hooks, true, LaunchId(7));
        let evs = rec.0.lock();
        assert_eq!(evs.len(), 8); // 4 loads + 4 stores
        assert!(evs.iter().all(|e| e.launch == LaunchId(7)));
        let stores: Vec<_> = evs.iter().filter(|e| e.is_store).collect();
        assert_eq!(stores.len(), 4);
        // First store writes 0.0 + 1.0 = 1.0
        assert_eq!(f32::from_bits(stores[0].bits as u32), 1.0);
    }

    #[test]
    fn hooks_silent_when_not_instrumented() {
        let mut mem = GlobalMemory::new(4096);
        let rec = Arc::new(Recorder(Mutex::new(Vec::new())));
        let hooks: Vec<Arc<dyn MemAccessHook>> = vec![rec.clone()];
        run_launch(
            &AddOne { base: 256, n: 4 },
            Dim3::linear(1),
            Dim3::linear(8),
            &mut mem,
            &hooks,
            false,
            LaunchId(0),
        );
        assert!(rec.0.lock().is_empty());
    }

    struct SharedPhases;
    impl Kernel for SharedPhases {
        fn name(&self) -> &str {
            "shared_phases"
        }
        fn instr_table(&self) -> InstrTable {
            InstrTableBuilder::new()
                .store(Pc(0), ScalarType::U32, MemSpace::Shared)
                .load(Pc(1), ScalarType::U32, MemSpace::Shared)
                .store(Pc(2), ScalarType::U32, MemSpace::Global)
                .build()
        }
        fn shared_bytes(&self) -> u64 {
            4 * 8
        }
        fn execute(&self, _ctx: &mut ThreadCtx<'_>) {
            unreachable!("block-phased kernel");
        }
        // Phase 1: every thread writes shared[t] = t.
        // (sync) Phase 2: every thread reads its *neighbor's* slot —
        // only correct because execute_block separates the phases.
        fn execute_block(&self, blk: &mut BlockCtx<'_>) {
            blk.for_each_thread(|ctx| {
                let t = ctx.thread_flat() as u64;
                ctx.shared_store::<u32>(Pc(0), t * 4, t as u32);
            });
            blk.for_each_thread(|ctx| {
                let t = ctx.thread_flat() as u64;
                let neighbor = (t + 1) % 8;
                let v: u32 = ctx.shared_load(Pc(1), neighbor * 4);
                ctx.store::<u32>(Pc(2), 256 + t * 4, v);
            });
        }
    }

    #[test]
    fn block_phases_model_syncthreads() {
        let mut mem = GlobalMemory::new(4096);
        let stats = run_launch(
            &SharedPhases,
            Dim3::linear(1),
            Dim3::linear(8),
            &mut mem,
            &[],
            false,
            LaunchId(0),
        );
        assert_eq!(stats.shared_stores, 8);
        assert_eq!(stats.shared_loads, 8);
        // Thread 0 read neighbor 1's value even though thread 1 runs later
        // in a naive serialization — the phase split makes it correct.
        assert_eq!(mem.read_bits(256, 4).unwrap(), 1);
        assert_eq!(mem.read_bits(256 + 7 * 4, 4).unwrap(), 0);
    }

    #[test]
    fn atomic_add_emits_load_and_store() {
        let mut mem = GlobalMemory::new(4096);
        let rec = Arc::new(Recorder(Mutex::new(Vec::new())));
        let hooks: Vec<Arc<dyn MemAccessHook>> = vec![rec.clone()];

        struct Histo;
        impl Kernel for Histo {
            fn name(&self) -> &str {
                "histo"
            }
            fn instr_table(&self) -> InstrTable {
                InstrTableBuilder::new().load(Pc(0), ScalarType::U32, MemSpace::Global).build()
            }
            fn execute(&self, ctx: &mut ThreadCtx<'_>) {
                ctx.atomic_add::<u32>(Pc(0), 256, 1);
            }
        }
        run_launch(
            &Histo,
            Dim3::linear(1),
            Dim3::linear(4),
            &mut mem,
            &hooks,
            true,
            LaunchId(0),
        );
        assert_eq!(mem.read_bits(256, 4).unwrap(), 4);
        let evs = rec.0.lock();
        assert_eq!(evs.len(), 8);
        assert_eq!(evs.iter().filter(|e| e.is_store).count(), 4);
    }

    #[test]
    fn scalar_bit_roundtrips() {
        assert_eq!(<i32 as DeviceScalar>::from_bits((-5i32).to_bits()), -5);
        assert_eq!(<f64 as DeviceScalar>::from_bits((2.5f64).to_bits()), 2.5);
        assert_eq!(<u8 as DeviceScalar>::from_bits(300u64 & 0xFF) as u32, 44);
        assert_eq!((-1i8).to_bits(), 0xFF);
        assert_eq!((-1i16).to_bits(), 0xFFFF);
    }

    /// A block-phased kernel that logs, as its threads run, the access
    /// events they must produce: phase 1 stores shared and loads global,
    /// phase 2 (after `__syncthreads`) loads shared, stores global and
    /// adds atomically at pc 4 — six events per thread.
    struct Phased {
        base: u64,
        log: Mutex<Vec<AccessEvent>>,
    }

    impl Phased {
        fn log(
            &self,
            ctx: &ThreadCtx<'_>,
            pc: u32,
            space: MemSpace,
            addr: u64,
            store: bool,
            bits: u64,
        ) {
            self.log.lock().push(AccessEvent {
                launch: ctx.launch,
                pc: Pc(pc),
                space,
                addr,
                size: 4,
                is_store: store,
                bits,
                block: ctx.block_flat(),
                thread: ctx.thread_flat(),
                is_atomic: pc == 4,
            });
        }
    }

    impl Kernel for Phased {
        fn name(&self) -> &str {
            "phased"
        }
        fn instr_table(&self) -> InstrTable {
            InstrTableBuilder::new()
                .store(Pc(0), ScalarType::U32, MemSpace::Shared)
                .load(Pc(1), ScalarType::U32, MemSpace::Global)
                .load(Pc(2), ScalarType::U32, MemSpace::Shared)
                .store(Pc(3), ScalarType::U32, MemSpace::Global)
                .load(Pc(4), ScalarType::U32, MemSpace::Global)
                .build()
        }
        fn shared_bytes(&self) -> u64 {
            4 * 128
        }
        fn execute(&self, _ctx: &mut ThreadCtx<'_>) {
            unreachable!("block-phased kernel");
        }
        fn execute_block(&self, blk: &mut BlockCtx<'_>) {
            let n = blk.block_dim().count() as u64;
            blk.for_each_thread(|ctx| {
                let t = ctx.thread_flat() as u64;
                let addr = self.base + ctx.global_thread_id() as u64 * 4;
                ctx.shared_store::<u32>(Pc(0), t * 4, t as u32);
                self.log(ctx, 0, MemSpace::Shared, t * 4, true, t);
                let v: u32 = ctx.load(Pc(1), addr);
                self.log(ctx, 1, MemSpace::Global, addr, false, v as u64);
            });
            blk.for_each_thread(|ctx| {
                let t = ctx.thread_flat() as u64;
                let addr = self.base + ctx.global_thread_id() as u64 * 4;
                let neighbor = (t + 1) % n * 4;
                let v: u32 = ctx.shared_load(Pc(2), neighbor);
                self.log(ctx, 2, MemSpace::Shared, neighbor, false, v as u64);
                ctx.store::<u32>(Pc(3), addr, v);
                self.log(ctx, 3, MemSpace::Global, addr, true, v as u64);
                let old = ctx.atomic_add::<u32>(Pc(4), self.base, 1);
                self.log(ctx, 4, MemSpace::Global, self.base, false, old as u64);
                self.log(ctx, 4, MemSpace::Global, self.base, true, old as u64 + 1);
            });
        }
    }

    /// What one hook saw: each slice it was handed, then the launch end.
    #[derive(Debug, PartialEq)]
    enum Call {
        Slice(Vec<AccessEvent>),
        End { instrumented: bool },
    }

    struct SliceLog {
        accept: bool,
        calls: Mutex<Vec<Call>>,
    }

    impl MemAccessHook for SliceLog {
        fn on_launch_begin(&self, _info: &crate::hooks::LaunchInfo) -> bool {
            self.accept
        }
        fn on_accesses(&self, events: &[AccessEvent]) {
            self.calls.lock().push(Call::Slice(events.to_vec()));
        }
        fn on_launch_end(
            &self,
            _info: &crate::hooks::LaunchInfo,
            _stats: &LaunchStats,
            instrumented: bool,
            _view: &dyn crate::hooks::DeviceView,
        ) {
            self.calls.lock().push(Call::End { instrumented });
        }
    }

    /// Runs [`Phased`] on 3 blocks of 128 threads (2304 accesses, more
    /// than two slices) under two hooks that accept or decline it.
    fn run_phased(accept: bool) -> (Vec<AccessEvent>, [Arc<SliceLog>; 2]) {
        let mut rt = Runtime::new(DeviceSpec::test_small());
        let hooks =
            [(); 2].map(|()| Arc::new(SliceLog { accept, calls: Mutex::new(Vec::new()) }));
        for h in &hooks {
            rt.register_access_hook(h.clone());
        }
        let base = rt.malloc(4 * 3 * 128, "buf").unwrap().addr();
        let kernel = Phased { base, log: Mutex::new(Vec::new()) };
        rt.launch(&kernel, Dim3::linear(3), Dim3::linear(128)).unwrap();
        (kernel.log.into_inner(), hooks)
    }

    #[test]
    fn hooks_receive_the_executed_accesses_in_slices_before_launch_end() {
        let (executed, hooks) = run_phased(true);
        assert_eq!(executed.len(), 3 * 128 * 6);
        for hook in &hooks {
            let calls = hook.calls.lock();
            let (last, slices) = calls.split_last().expect("calls recorded");
            assert_eq!(*last, Call::End { instrumented: true });
            let slices: Vec<&Vec<AccessEvent>> = slices
                .iter()
                .map(|c| match c {
                    Call::Slice(s) => s,
                    Call::End { .. } => panic!("launch ended before its last slice"),
                })
                .collect();
            let sizes: Vec<usize> = slices.iter().map(|s| s.len()).collect();
            assert_eq!(sizes, [ACCESS_SLICE, ACCESS_SLICE, 3 * 128 * 6 - 2 * ACCESS_SLICE]);
            let delivered: Vec<AccessEvent> = slices.into_iter().flatten().copied().collect();
            assert_eq!(delivered, executed);
        }
    }

    #[test]
    fn uninstrumented_launch_delivers_no_slices() {
        let (executed, hooks) = run_phased(false);
        assert_eq!(executed.len(), 3 * 128 * 6);
        for hook in &hooks {
            assert_eq!(*hook.calls.lock(), [Call::End { instrumented: false }]);
        }
    }
}
