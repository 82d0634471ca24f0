//! The CUDA-like runtime: allocation, transfers, launches, interception.

use crate::alloc::{AllocationInfo, Allocator, POISON_BYTE};
use crate::callpath::{CallPathId, CallPathRecorder, Frame};
use crate::dim::Dim3;
use crate::error::GpuError;
use crate::exec::{run_launch, LaunchStats};
use crate::hooks::{
    ApiEvent, ApiHook, ApiKind, ApiPhase, DeviceView, LaunchId, LaunchInfo, MemAccessHook,
};
use crate::host::Pod;
use crate::kernel::Kernel;
use crate::memory::{DevicePtr, GlobalMemory};
use crate::stream::{StreamId, StreamTable};
use crate::timing::{DeviceSpec, TimeModel, TimeReport};
use std::sync::Arc;

pub use crate::hooks::LaunchId as RuntimeLaunchId;

/// Base address of the allocation arena (everything below is reserved, so
/// null and small garbage addresses always fault).
const HEAP_BASE: u64 = 256;

struct View<'a> {
    memory: &'a GlobalMemory,
    allocator: &'a Allocator,
}

impl DeviceView for View<'_> {
    fn read(&self, addr: u64, dst: &mut [u8]) -> Result<(), GpuError> {
        self.memory.read(addr, dst)
    }
    fn covers(&self, addr: u64, len: u64) -> bool {
        self.memory.contains(addr, len)
    }
    fn find_allocation(&self, addr: u64) -> Option<AllocationInfo> {
        self.allocator.find_containing(addr).cloned()
    }
    fn live_allocations(&self) -> Vec<AllocationInfo> {
        self.allocator.live_allocations().cloned().collect()
    }
}

/// The simulated GPU runtime — the API surface an application links
/// against, and the interception point profilers hook into.
///
/// See the [crate-level example](crate) for typical use.
pub struct Runtime {
    memory: GlobalMemory,
    allocator: Allocator,
    callpaths: CallPathRecorder,
    streams: StreamTable,
    model: TimeModel,
    report: TimeReport,
    api_hooks: Vec<Arc<dyn ApiHook>>,
    access_hooks: Vec<Arc<dyn MemAccessHook>>,
    api_seq: u64,
    next_launch: u64,
    current_stream: StreamId,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("device", &self.model.spec().name)
            .field("api_seq", &self.api_seq)
            .field("launches", &self.next_launch)
            .finish()
    }
}

impl Runtime {
    /// Creates a runtime for the given device.
    pub fn new(spec: DeviceSpec) -> Self {
        // Cap host-side backing memory at 256 MiB: workloads in this repo
        // are far smaller than real device memory, and the timing model —
        // not the backing store — is what reflects the device size.
        let backing = spec.memory_bytes.min(256 << 20);
        Runtime {
            memory: GlobalMemory::new(backing),
            allocator: Allocator::new(HEAP_BASE, backing - HEAP_BASE),
            callpaths: CallPathRecorder::new(),
            streams: StreamTable::new(),
            model: TimeModel::new(spec),
            report: TimeReport::new(),
            api_hooks: Vec::new(),
            access_hooks: Vec::new(),
            api_seq: 0,
            next_launch: 0,
            current_stream: StreamId::DEFAULT,
        }
    }

    /// The device description this runtime simulates.
    pub fn spec(&self) -> &DeviceSpec {
        self.model.spec()
    }

    /// Registers an API interception hook.
    pub fn register_api_hook(&mut self, hook: Arc<dyn ApiHook>) {
        self.api_hooks.push(hook);
    }

    /// Registers a per-access instrumentation hook.
    pub fn register_access_hook(&mut self, hook: Arc<dyn MemAccessHook>) {
        self.access_hooks.push(hook);
    }

    /// Removes all registered hooks (used to measure unprofiled baselines).
    pub fn clear_hooks(&mut self) {
        self.api_hooks.clear();
        self.access_hooks.clear();
    }

    /// Serializes streams, as ValueExpert's collector does during
    /// measurement.
    pub fn serialize_streams(&mut self, on: bool) {
        self.streams.set_serialized(on);
    }

    /// Creates a new stream.
    pub fn create_stream(&mut self) -> StreamId {
        self.streams.create()
    }

    /// Selects the stream subsequent operations are enqueued on.
    ///
    /// # Panics
    ///
    /// Panics if the stream was not created by this runtime.
    pub fn set_stream(&mut self, stream: StreamId) {
        assert!(stream.0 < self.streams.count(), "unknown {stream}");
        self.current_stream = stream;
    }

    // ---------------------------------------------------------------
    // Call paths
    // ---------------------------------------------------------------

    /// Runs `f` with `frame` pushed on the call-path stack.
    pub fn with_frame<R>(&mut self, frame: Frame, f: impl FnOnce(&mut Runtime) -> R) -> R {
        self.callpaths.push(frame);
        let r = f(self);
        self.callpaths.pop();
        r
    }

    /// Runs `f` with a named frame pushed on the call-path stack.
    pub fn with_fn<R>(&mut self, name: &str, f: impl FnOnce(&mut Runtime) -> R) -> R {
        self.with_frame(Frame::named(name), f)
    }

    /// The interned id of the current call path.
    pub fn current_context(&mut self) -> CallPathId {
        self.callpaths.intern_current()
    }

    /// Read access to the call path recorder (rendering contexts).
    pub fn callpaths(&self) -> &CallPathRecorder {
        &self.callpaths
    }

    // ---------------------------------------------------------------
    // Timing
    // ---------------------------------------------------------------

    /// The accumulated simulated time report.
    pub fn time_report(&self) -> &TimeReport {
        &self.report
    }

    /// Clears accumulated times (e.g. after a warm-up phase).
    pub fn reset_time(&mut self) {
        self.report = TimeReport::new();
    }

    // ---------------------------------------------------------------
    // Memory APIs
    // ---------------------------------------------------------------

    fn fire_api(&mut self, phase: ApiPhase, event: &ApiEvent) {
        if self.api_hooks.is_empty() {
            return;
        }
        let view = View { memory: &self.memory, allocator: &self.allocator };
        for h in &self.api_hooks {
            h.on_api(phase, event, &view);
        }
    }

    fn next_event(&mut self, kind: ApiKind) -> ApiEvent {
        let seq = self.api_seq;
        self.api_seq += 1;
        self.streams.record_op(self.current_stream);
        ApiEvent {
            seq,
            kind,
            context: self.callpaths.intern_current(),
            stream: self.current_stream,
        }
    }

    /// Allocates `size` bytes of device memory. Fresh memory is filled with
    /// a poison pattern (real GPU memory is uninitialized).
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::OutOfMemory`] or [`GpuError::ZeroSize`].
    pub fn malloc(&mut self, size: u64, label: &str) -> Result<DevicePtr, GpuError> {
        let context = self.callpaths.intern_current();
        let info = self.allocator.alloc(size, label, context)?;
        self.memory.fill(info.addr, info.size, POISON_BYTE)?;
        let ev = self.next_event(ApiKind::Malloc { info: info.clone() });
        self.fire_api(ApiPhase::Before, &ev);
        // Allocation itself happened above; Before/After straddle nothing
        // for malloc, but hooks rely on seeing both phases uniformly.
        self.fire_api(ApiPhase::After, &ev);
        self.report.add_memory_op(self.model.alloc_time_us());
        Ok(DevicePtr(info.addr))
    }

    /// Allocates device memory and fills it from a host slice.
    ///
    /// # Errors
    ///
    /// Propagates allocation and copy errors.
    pub fn malloc_from<T: Pod>(
        &mut self,
        label: &str,
        data: &[T],
    ) -> Result<DevicePtr, GpuError> {
        let bytes = crate::host::as_bytes(data);
        let ptr = self.malloc(bytes.len() as u64, label)?;
        self.memcpy_h2d(ptr, bytes)?;
        Ok(ptr)
    }

    /// Frees the allocation starting at `ptr`.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::InvalidFree`] if `ptr` is not a live allocation
    /// start.
    pub fn free(&mut self, ptr: DevicePtr) -> Result<(), GpuError> {
        // Look up first so hooks can still see the allocation as live in
        // the Before phase.
        let info = self
            .allocator
            .find_exact(ptr.addr())
            .cloned()
            .ok_or(GpuError::InvalidFree { addr: ptr.addr() })?;
        let ev = self.next_event(ApiKind::Free { info });
        self.fire_api(ApiPhase::Before, &ev);
        self.allocator.free(ptr.addr())?;
        self.fire_api(ApiPhase::After, &ev);
        self.report.add_memory_op(self.model.alloc_time_us());
        Ok(())
    }

    fn check_range(&self, ptr: DevicePtr, len: u64) -> Result<(), GpuError> {
        let info = self
            .allocator
            .find_containing(ptr.addr())
            .ok_or(GpuError::InvalidPointer { addr: ptr.addr() })?;
        if ptr.addr() + len > info.end() {
            return Err(GpuError::OutOfBounds { addr: ptr.addr(), len, limit: info.end() });
        }
        Ok(())
    }

    /// Copies host bytes to the device.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::InvalidPointer`] if `dst` is not inside a live
    /// allocation, or [`GpuError::OutOfBounds`] if the copy overruns it.
    pub fn memcpy_h2d(&mut self, dst: DevicePtr, src: &[u8]) -> Result<(), GpuError> {
        self.check_range(dst, src.len() as u64)?;
        let ev = self.next_event(ApiKind::MemcpyH2D { dst, bytes: src.len() as u64 });
        self.fire_api(ApiPhase::Before, &ev);
        self.memory.write(dst.addr(), src)?;
        self.fire_api(ApiPhase::After, &ev);
        self.report.add_memory_op(self.model.pcie_copy_time_us(src.len() as u64));
        Ok(())
    }

    /// Copies device bytes to the host.
    ///
    /// # Errors
    ///
    /// As for [`Runtime::memcpy_h2d`].
    pub fn memcpy_d2h(&mut self, dst: &mut [u8], src: DevicePtr) -> Result<(), GpuError> {
        self.check_range(src, dst.len() as u64)?;
        let ev = self.next_event(ApiKind::MemcpyD2H { src, bytes: dst.len() as u64 });
        self.fire_api(ApiPhase::Before, &ev);
        self.memory.read(src.addr(), dst)?;
        self.fire_api(ApiPhase::After, &ev);
        self.report.add_memory_op(self.model.pcie_copy_time_us(dst.len() as u64));
        Ok(())
    }

    /// Copies bytes between device allocations.
    ///
    /// # Errors
    ///
    /// As for [`Runtime::memcpy_h2d`], for either range.
    pub fn memcpy_d2d(
        &mut self,
        dst: DevicePtr,
        src: DevicePtr,
        len: u64,
    ) -> Result<(), GpuError> {
        self.check_range(dst, len)?;
        self.check_range(src, len)?;
        let ev = self.next_event(ApiKind::MemcpyD2D { dst, src, bytes: len });
        self.fire_api(ApiPhase::Before, &ev);
        self.memory.copy_within(dst.addr(), src.addr(), len)?;
        self.fire_api(ApiPhase::After, &ev);
        self.report.add_memory_op(self.model.d2d_copy_time_us(len));
        Ok(())
    }

    /// Fills `len` device bytes with `value` (`cudaMemset`).
    ///
    /// # Errors
    ///
    /// As for [`Runtime::memcpy_h2d`].
    pub fn memset(&mut self, dst: DevicePtr, value: u8, len: u64) -> Result<(), GpuError> {
        self.check_range(dst, len)?;
        let ev = self.next_event(ApiKind::Memset { dst, value, bytes: len });
        self.fire_api(ApiPhase::Before, &ev);
        self.memory.fill(dst.addr(), len, value)?;
        self.fire_api(ApiPhase::After, &ev);
        self.report.add_memory_op(self.model.memset_time_us(len));
        Ok(())
    }

    /// Reads device memory into a fresh vector (host-side convenience for
    /// tests and result checking; charged as a D2H copy).
    ///
    /// # Errors
    ///
    /// As for [`Runtime::memcpy_d2h`].
    pub fn read_vec(&mut self, src: DevicePtr, len: u64) -> Result<Vec<u8>, GpuError> {
        let mut v = vec![0u8; usize::try_from(len).expect("read too large")];
        self.memcpy_d2h(&mut v, src)?;
        Ok(v)
    }

    /// Reads a typed device array into a host vector.
    ///
    /// # Errors
    ///
    /// As for [`Runtime::memcpy_d2h`].
    pub fn read_typed<T: Pod + Default>(
        &mut self,
        src: DevicePtr,
        count: usize,
    ) -> Result<Vec<T>, GpuError> {
        let bytes = self.read_vec(src, (count * std::mem::size_of::<T>()) as u64)?;
        Ok(crate::host::from_bytes(&bytes))
    }

    /// Metadata of the live allocation containing `addr`.
    pub fn find_allocation(&self, addr: u64) -> Option<&AllocationInfo> {
        self.allocator.find_containing(addr)
    }

    // ---------------------------------------------------------------
    // Kernel launch
    // ---------------------------------------------------------------

    /// Launches `kernel` over `grid × block` threads on the current stream
    /// and runs it to completion.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::InvalidLaunch`] if the block exceeds the
    /// device's thread limit.
    pub fn launch(
        &mut self,
        kernel: &dyn Kernel,
        grid: Dim3,
        block: Dim3,
    ) -> Result<LaunchStats, GpuError> {
        if block.count() > self.spec().max_threads_per_block as usize {
            return Err(GpuError::InvalidLaunch {
                reason: format!(
                    "block {} has {} threads, device limit is {}",
                    block,
                    block.count(),
                    self.spec().max_threads_per_block
                ),
            });
        }
        let launch = LaunchId(self.next_launch);
        self.next_launch += 1;
        let ev =
            self.next_event(ApiKind::KernelLaunch { launch, name: kernel.name().to_owned() });
        let info = LaunchInfo {
            launch,
            kernel_name: kernel.name().to_owned(),
            grid,
            block,
            shared_bytes: kernel.shared_bytes(),
            context: ev.context,
            stream: ev.stream,
            instr_table: Arc::new(kernel.instr_table()),
        };

        self.fire_api(ApiPhase::Before, &ev);

        // Ask each access hook whether it wants this launch instrumented.
        let accepted: Vec<Arc<dyn MemAccessHook>> =
            self.access_hooks.iter().filter(|h| h.on_launch_begin(&info)).cloned().collect();
        let instrument = !accepted.is_empty();

        let stats =
            run_launch(kernel, grid, block, &mut self.memory, &accepted, instrument, launch);

        {
            let view = View { memory: &self.memory, allocator: &self.allocator };
            for h in &self.access_hooks {
                let was_instrumented = instrument && accepted.iter().any(|a| Arc::ptr_eq(a, h));
                h.on_launch_end(&info, &stats, was_instrumented, &view);
            }
        }

        self.fire_api(ApiPhase::After, &ev);
        self.report.add_kernel(kernel.name(), self.model.kernel_time_us(&stats.work()));
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{InstrTable, InstrTableBuilder, MemSpace, Pc, ScalarType};
    use parking_lot::Mutex;

    struct Nop;
    impl Kernel for Nop {
        fn name(&self) -> &str {
            "nop"
        }
        fn instr_table(&self) -> InstrTable {
            InstrTable::new()
        }
        fn execute(&self, _ctx: &mut crate::exec::ThreadCtx<'_>) {}
    }

    struct ApiRecorder(Mutex<Vec<(ApiPhase, String)>>);
    impl ApiHook for ApiRecorder {
        fn on_api(&self, phase: ApiPhase, event: &ApiEvent, _view: &dyn DeviceView) {
            self.0.lock().push((phase, event.kind.tag().to_owned()));
        }
    }

    #[test]
    fn malloc_poisons_and_copy_roundtrips() {
        let mut rt = Runtime::new(DeviceSpec::test_small());
        let p = rt.malloc(16, "x").unwrap();
        assert_eq!(rt.read_vec(p, 4).unwrap(), vec![POISON_BYTE; 4]);
        rt.memcpy_h2d(p, &[9, 8, 7, 6]).unwrap();
        assert_eq!(rt.read_vec(p, 4).unwrap(), vec![9, 8, 7, 6]);
    }

    #[test]
    fn copy_bounds_are_per_allocation() {
        let mut rt = Runtime::new(DeviceSpec::test_small());
        let p = rt.malloc(16, "x").unwrap();
        assert!(matches!(rt.memcpy_h2d(p, &[0u8; 32]), Err(GpuError::OutOfBounds { .. })));
        assert!(matches!(
            rt.memcpy_h2d(DevicePtr(3), &[0u8; 1]),
            Err(GpuError::InvalidPointer { .. })
        ));
    }

    #[test]
    fn api_hooks_see_before_and_after() {
        let mut rt = Runtime::new(DeviceSpec::test_small());
        let rec = Arc::new(ApiRecorder(Mutex::new(Vec::new())));
        rt.register_api_hook(rec.clone());
        let p = rt.malloc(16, "x").unwrap();
        rt.memset(p, 0, 16).unwrap();
        rt.launch(&Nop, Dim3::linear(1), Dim3::linear(1)).unwrap();
        let log = rec.0.lock();
        let tags: Vec<_> = log.iter().map(|(p, t)| (*p, t.as_str())).collect();
        assert_eq!(
            tags,
            vec![
                (ApiPhase::Before, "malloc"),
                (ApiPhase::After, "malloc"),
                (ApiPhase::Before, "memset"),
                (ApiPhase::After, "memset"),
                (ApiPhase::Before, "kernel"),
                (ApiPhase::After, "kernel"),
            ]
        );
    }

    #[test]
    fn launch_validation() {
        let mut rt = Runtime::new(DeviceSpec::test_small());
        let err = rt.launch(&Nop, Dim3::linear(1), Dim3::linear(4096));
        assert!(matches!(err, Err(GpuError::InvalidLaunch { .. })));
    }

    #[test]
    fn contexts_distinguish_call_sites() {
        let mut rt = Runtime::new(DeviceSpec::test_small());
        let rec = Arc::new(Mutex::new(Vec::<CallPathId>::new()));
        struct CtxHook(Arc<Mutex<Vec<CallPathId>>>);
        impl ApiHook for CtxHook {
            fn on_api(&self, phase: ApiPhase, event: &ApiEvent, _v: &dyn DeviceView) {
                if phase == ApiPhase::Before {
                    self.0.lock().push(event.context);
                }
            }
        }
        rt.register_api_hook(Arc::new(CtxHook(rec.clone())));
        let p = rt.with_fn("init", |rt| rt.malloc(16, "x")).unwrap();
        rt.with_fn("forward", |rt| rt.memset(p, 0, 16)).unwrap();
        rt.with_fn("forward", |rt| rt.memset(p, 0, 16)).unwrap();
        let ctxs = rec.lock();
        assert_ne!(ctxs[0], ctxs[1], "different frames, different contexts");
        assert_eq!(ctxs[1], ctxs[2], "same frame interned to same id");
        assert_eq!(rt.callpaths().render(ctxs[0]), "init");
    }

    #[test]
    fn kernel_time_recorded() {
        let mut rt = Runtime::new(DeviceSpec::test_small());
        rt.launch(&Nop, Dim3::linear(1), Dim3::linear(1)).unwrap();
        assert!(rt.time_report().kernel_us("nop") > 0.0);
        assert_eq!(rt.time_report().kernel_launches["nop"], 1);
        rt.reset_time();
        assert_eq!(rt.time_report().total_us(), 0.0);
    }

    #[test]
    fn free_then_use_fails() {
        let mut rt = Runtime::new(DeviceSpec::test_small());
        let p = rt.malloc(16, "x").unwrap();
        rt.free(p).unwrap();
        assert!(rt.memset(p, 0, 4).is_err());
        assert!(rt.free(p).is_err());
    }

    #[test]
    fn d2d_copy() {
        let mut rt = Runtime::new(DeviceSpec::test_small());
        let a = rt.malloc_from("a", &[1u32, 2, 3, 4]).unwrap();
        let b = rt.malloc(16, "b").unwrap();
        rt.memcpy_d2d(b, a, 16).unwrap();
        assert_eq!(rt.read_typed::<u32>(b, 4).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn per_launch_hook_filtering() {
        struct Selective {
            count: Mutex<u64>,
        }
        impl MemAccessHook for Selective {
            fn on_launch_begin(&self, info: &LaunchInfo) -> bool {
                info.kernel_name == "writer"
            }
            fn on_accesses(&self, events: &[crate::hooks::AccessEvent]) {
                *self.count.lock() += events.len() as u64;
            }
        }
        struct Writer;
        impl Kernel for Writer {
            fn name(&self) -> &str {
                "writer"
            }
            fn instr_table(&self) -> InstrTable {
                InstrTableBuilder::new().store(Pc(0), ScalarType::U32, MemSpace::Global).build()
            }
            fn execute(&self, ctx: &mut crate::exec::ThreadCtx<'_>) {
                ctx.store::<u32>(Pc(0), 256, 1);
            }
        }
        let mut rt = Runtime::new(DeviceSpec::test_small());
        let hook = Arc::new(Selective { count: Mutex::new(0) });
        rt.register_access_hook(hook.clone());
        rt.malloc(16, "x").unwrap();
        rt.launch(&Nop, Dim3::linear(1), Dim3::linear(1)).unwrap();
        assert_eq!(*hook.count.lock(), 0);
        rt.launch(&Writer, Dim3::linear(1), Dim3::linear(2)).unwrap();
        assert_eq!(*hook.count.lock(), 2);
    }
}
