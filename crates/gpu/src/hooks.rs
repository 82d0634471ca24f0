//! Observation interfaces: API interception and per-access instrumentation.
//!
//! Two hook families mirror the paper's two collection mechanisms:
//!
//! * [`ApiHook`] — invoked before and after every runtime API call
//!   (allocation, memory copy, memory set, kernel launch), with a read-only
//!   [`DeviceView`] of device memory and the allocation table. This is the
//!   equivalent of overloading the `cudaMemcpy`/`cudaMemset`/launch entry
//!   points, and is what the *coarse-grained* collector uses to capture
//!   value snapshots.
//! * [`MemAccessHook`] — receives every memory load and store executed by
//!   a kernel, carrying PC, address, width, raw bits, and thread
//!   coordinates, in slices of consecutive accesses. This is the
//!   equivalent of the Sanitizer API's per-instruction callbacks filling a
//!   device buffer the host drains in bulk, used by the *fine-grained*
//!   collector.
//!
//! Hooks take `&self`; implementations use interior mutability so a single
//! hook object can be registered for both roles and shared with the
//! analysis side.

use crate::alloc::AllocationInfo;
use crate::callpath::CallPathId;
use crate::dim::Dim3;
use crate::exec::LaunchStats;
use crate::ir::{InstrTable, MemSpace, Pc};
use crate::memory::DevicePtr;
use crate::stream::StreamId;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Identifier of one kernel launch (monotonic per runtime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LaunchId(pub u64);

impl std::fmt::Display for LaunchId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "launch{}", self.0)
    }
}

/// Read-only view of device state offered to hooks.
pub trait DeviceView {
    /// Reads `dst.len()` bytes of device memory at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::GpuError::OutOfBounds`] for invalid ranges.
    fn read(&self, addr: u64, dst: &mut [u8]) -> Result<(), crate::error::GpuError>;

    /// Whether one [`DeviceView::read`] of `[addr, addr+len)` would
    /// succeed. Allocates nothing, so a caller can refuse a range before
    /// sizing a buffer for it.
    fn covers(&self, addr: u64, len: u64) -> bool;

    /// Copies `[addr, addr+len)` into a fresh vector.
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::GpuError::OutOfBounds`] for invalid ranges.
    fn read_vec(&self, addr: u64, len: u64) -> Result<Vec<u8>, crate::error::GpuError> {
        let mut v = vec![0u8; usize::try_from(len).expect("read too large")];
        self.read(addr, &mut v)?;
        Ok(v)
    }

    /// The live allocation containing `addr`, if any.
    fn find_allocation(&self, addr: u64) -> Option<AllocationInfo>;

    /// All live allocations, in address order.
    fn live_allocations(&self) -> Vec<AllocationInfo>;
}

/// A [`DeviceView`] over byte ranges captured earlier from a live view.
///
/// Device memory is only valid inside a hook callback; an analyzer that
/// defers its work to another thread must copy the ranges it will read
/// *during* the callback and replay against the capture. `capture` takes
/// the synchronous snapshot; `read` serves any range fully contained in
/// one captured segment.
///
/// `find_allocation`/`live_allocations` intentionally report nothing: a
/// capture preserves bytes, not the allocation table — consumers replay
/// against their own registry replica.
#[derive(Debug, Clone, Default)]
pub struct CapturedView {
    /// Captured `(start_addr, bytes)` segments, sorted by start address.
    segments: Vec<(u64, Vec<u8>)>,
}

impl CapturedView {
    /// Creates an empty capture (all reads fail).
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies `[addr, addr+len)` out of `view` into the capture.
    ///
    /// # Errors
    ///
    /// Propagates the live view's error for invalid ranges.
    pub fn capture(
        &mut self,
        view: &dyn DeviceView,
        addr: u64,
        len: u64,
    ) -> Result<(), crate::error::GpuError> {
        let bytes = view.read_vec(addr, len)?;
        let at = self.segments.partition_point(|(s, _)| *s < addr);
        self.segments.insert(at, (addr, bytes));
        Ok(())
    }

    /// Number of captured segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Total captured bytes.
    pub fn captured_bytes(&self) -> u64 {
        self.segments.iter().map(|(_, b)| b.len() as u64).sum()
    }

    /// The captured `(start_addr, bytes)` segments, sorted by start.
    ///
    /// Exposed so captures can be serialized (trace recording) and
    /// reconstructed with [`CapturedView::from_segments`].
    pub fn segments(&self) -> &[(u64, Vec<u8>)] {
        &self.segments
    }

    /// Rebuilds a capture from previously serialized segments.
    ///
    /// Segments are re-sorted by start address, restoring the invariant
    /// `capture` maintains; overlap semantics are the caller's concern,
    /// exactly as with repeated `capture` calls.
    pub fn from_segments(mut segments: Vec<(u64, Vec<u8>)>) -> Self {
        segments.sort_by_key(|(s, _)| *s);
        CapturedView { segments }
    }

    /// The last segment starting at or before `addr`, with its end
    /// address (saturated, so crafted segment starts cannot overflow).
    fn segment_at(&self, addr: u64) -> Option<(&(u64, Vec<u8>), u64)> {
        let idx = self.segments.partition_point(|(s, _)| *s <= addr);
        let seg = self.segments.get(idx.checked_sub(1)?)?;
        Some((seg, seg.0.saturating_add(seg.1.len() as u64)))
    }
}

impl DeviceView for CapturedView {
    fn read(&self, addr: u64, dst: &mut [u8]) -> Result<(), crate::error::GpuError> {
        let len = dst.len() as u64;
        match self.segment_at(addr) {
            Some(((start, bytes), end)) if addr.checked_add(len).is_some_and(|e| e <= end) => {
                let off = (addr - start) as usize;
                dst.copy_from_slice(&bytes[off..off + dst.len()]);
                Ok(())
            }
            found => Err(crate::error::GpuError::OutOfBounds {
                addr,
                len,
                limit: found.map_or(0, |(_, end)| end),
            }),
        }
    }

    fn covers(&self, addr: u64, len: u64) -> bool {
        let want = addr.checked_add(len);
        self.segment_at(addr).zip(want).is_some_and(|((_, end), want)| want <= end)
    }

    fn find_allocation(&self, _addr: u64) -> Option<AllocationInfo> {
        None
    }

    fn live_allocations(&self) -> Vec<AllocationInfo> {
        Vec::new()
    }
}

/// What a runtime API invocation did. Pointers and sizes are the arguments
/// the application passed; allocation identities can be recovered through
/// the [`DeviceView`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ApiKind {
    /// `cudaMalloc`-equivalent; carries the resulting allocation.
    Malloc {
        /// The new allocation.
        info: AllocationInfo,
    },
    /// `cudaFree`-equivalent.
    Free {
        /// The allocation being released.
        info: AllocationInfo,
    },
    /// Host-to-device copy.
    MemcpyH2D {
        /// Destination device pointer.
        dst: DevicePtr,
        /// Bytes copied.
        bytes: u64,
    },
    /// Device-to-host copy.
    MemcpyD2H {
        /// Source device pointer.
        src: DevicePtr,
        /// Bytes copied.
        bytes: u64,
    },
    /// Device-to-device copy.
    MemcpyD2D {
        /// Destination device pointer.
        dst: DevicePtr,
        /// Source device pointer.
        src: DevicePtr,
        /// Bytes copied.
        bytes: u64,
    },
    /// `cudaMemset`-equivalent.
    Memset {
        /// Destination device pointer.
        dst: DevicePtr,
        /// Fill byte.
        value: u8,
        /// Bytes set.
        bytes: u64,
    },
    /// Kernel launch; detailed configuration is in the associated
    /// [`LaunchInfo`] delivered to [`MemAccessHook::on_launch_begin`].
    KernelLaunch {
        /// Launch identifier.
        launch: LaunchId,
        /// Kernel name.
        name: String,
    },
}

impl ApiKind {
    /// Short lowercase tag for display ("malloc", "memcpy_h2d", ...).
    pub fn tag(&self) -> &'static str {
        match self {
            ApiKind::Malloc { .. } => "malloc",
            ApiKind::Free { .. } => "free",
            ApiKind::MemcpyH2D { .. } => "memcpy_h2d",
            ApiKind::MemcpyD2H { .. } => "memcpy_d2h",
            ApiKind::MemcpyD2D { .. } => "memcpy_d2d",
            ApiKind::Memset { .. } => "memset",
            ApiKind::KernelLaunch { .. } => "kernel",
        }
    }
}

/// One intercepted API invocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApiEvent {
    /// Monotonic sequence number over all API calls of the runtime.
    pub seq: u64,
    /// What the call did.
    pub kind: ApiKind,
    /// Interned CPU calling context of the call site.
    pub context: CallPathId,
    /// Stream the operation was enqueued on.
    pub stream: StreamId,
}

/// Whether a hook is being called before or after the API executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ApiPhase {
    /// The API has not executed yet (device state is the "before" state).
    Before,
    /// The API has completed (device state is the "after" state).
    After,
}

/// Observer of runtime API invocations.
pub trait ApiHook: Send + Sync {
    /// Called before and after each API invocation.
    fn on_api(&self, phase: ApiPhase, event: &ApiEvent, view: &dyn DeviceView);
}

/// One memory access executed by a kernel thread.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccessEvent {
    /// Launch this access belongs to.
    pub launch: LaunchId,
    /// Static program counter of the instruction.
    pub pc: Pc,
    /// Address space.
    pub space: MemSpace,
    /// Address (global address for [`MemSpace::Global`]; byte offset within
    /// the block's shared memory for [`MemSpace::Shared`]).
    pub addr: u64,
    /// Access width in bytes (1..=8).
    pub size: u8,
    /// True for stores.
    pub is_store: bool,
    /// Raw value bits, little-endian in the low `size` bytes. For loads the
    /// value read; for stores the value written.
    pub bits: u64,
    /// Flat block index within the grid.
    pub block: u32,
    /// Flat thread index within the block.
    pub thread: u32,
    /// True when the access is one half of a hardware atomic
    /// read-modify-write (race detectors must not flag atomics).
    pub is_atomic: bool,
}

impl AccessEvent {
    /// Warp index of the accessing thread within its block (32 threads per
    /// warp, as on all NVIDIA GPUs this tool targets).
    pub fn warp(&self) -> u32 {
        self.thread / 32
    }

    /// Lane of the accessing thread within its warp.
    pub fn lane(&self) -> u32 {
        self.thread % 32
    }

    /// Half-open address interval `[addr, addr+size)` touched.
    pub fn interval(&self) -> (u64, u64) {
        (self.addr, self.addr + self.size as u64)
    }
}

/// Static configuration of one kernel launch, delivered to access hooks.
#[derive(Debug, Clone)]
pub struct LaunchInfo {
    /// Launch identifier.
    pub launch: LaunchId,
    /// Kernel name.
    pub kernel_name: String,
    /// Grid dimensions.
    pub grid: Dim3,
    /// Block dimensions.
    pub block: Dim3,
    /// Shared memory bytes per block.
    pub shared_bytes: u64,
    /// Calling context of the launch site.
    pub context: CallPathId,
    /// Stream of the launch.
    pub stream: StreamId,
    /// The kernel's instruction table (mini-SASS) for offline analysis.
    pub instr_table: Arc<InstrTable>,
}

/// Observer of kernel memory traffic, the Sanitizer-API equivalent.
///
/// `on_launch_begin` may return `false` to decline instrumentation of this
/// launch entirely (kernel filtering / sampling); in that case no
/// `on_accesses` callbacks fire for it, and `on_launch_end` still fires
/// with `instrumented = false`.
///
/// Accesses of an instrumented launch arrive in slices, in execution
/// order: a slice every [`crate::exec::ACCESS_SLICE`] accesses and one
/// with the remainder after the last block, before `on_launch_end`.
pub trait MemAccessHook: Send + Sync {
    /// A kernel is about to run. Return `false` to skip instrumenting it.
    fn on_launch_begin(&self, _info: &LaunchInfo) -> bool {
        true
    }

    /// The next consecutive accesses were executed, in execution order
    /// (never empty).
    fn on_accesses(&self, events: &[AccessEvent]);

    /// The kernel finished. `view` shows post-kernel device memory.
    fn on_launch_end(
        &self,
        _info: &LaunchInfo,
        _stats: &LaunchStats,
        _instrumented: bool,
        _view: &dyn DeviceView,
    ) {
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warp_and_lane() {
        let ev = AccessEvent {
            launch: LaunchId(0),
            pc: Pc(0),
            space: MemSpace::Global,
            addr: 256,
            size: 4,
            is_store: false,
            bits: 0,
            block: 0,
            thread: 70,
            is_atomic: false,
        };
        assert_eq!(ev.warp(), 2);
        assert_eq!(ev.lane(), 6);
        assert_eq!(ev.interval(), (256, 260));
    }

    struct SliceView(Vec<u8>);
    impl DeviceView for SliceView {
        fn read(&self, addr: u64, dst: &mut [u8]) -> Result<(), crate::error::GpuError> {
            let a = addr as usize;
            dst.copy_from_slice(&self.0[a..a + dst.len()]);
            Ok(())
        }
        fn covers(&self, addr: u64, len: u64) -> bool {
            addr.checked_add(len).is_some_and(|end| end <= self.0.len() as u64)
        }
        fn find_allocation(&self, _addr: u64) -> Option<AllocationInfo> {
            None
        }
        fn live_allocations(&self) -> Vec<AllocationInfo> {
            Vec::new()
        }
    }

    #[test]
    fn captured_view_replays_contained_ranges() {
        let live = SliceView((0u8..=255).collect());
        let mut cap = CapturedView::new();
        cap.capture(&live, 16, 8).unwrap();
        cap.capture(&live, 64, 4).unwrap();
        assert_eq!(cap.segment_count(), 2);
        assert_eq!(cap.captured_bytes(), 12);
        // Full segment.
        assert_eq!(cap.read_vec(16, 8).unwrap(), (16u8..24).collect::<Vec<_>>());
        // Sub-range of a segment.
        assert_eq!(cap.read_vec(18, 4).unwrap(), vec![18, 19, 20, 21]);
        assert_eq!(cap.read_vec(64, 4).unwrap(), vec![64, 65, 66, 67]);
        // Uncaptured or straddling ranges fail.
        assert!(cap.read_vec(0, 4).is_err());
        assert!(cap.read_vec(20, 8).is_err());
        assert!(cap.find_allocation(16).is_none());
        assert!(cap.live_allocations().is_empty());
    }

    #[test]
    fn captured_view_keeps_segments_sorted() {
        let live = SliceView(vec![7u8; 128]);
        let mut cap = CapturedView::new();
        cap.capture(&live, 96, 8).unwrap();
        cap.capture(&live, 0, 8).unwrap();
        cap.capture(&live, 32, 8).unwrap();
        assert_eq!(cap.read_vec(0, 8).unwrap(), vec![7u8; 8]);
        assert_eq!(cap.read_vec(32, 8).unwrap(), vec![7u8; 8]);
        assert_eq!(cap.read_vec(96, 8).unwrap(), vec![7u8; 8]);
    }

    #[test]
    fn api_kind_tags() {
        let k = ApiKind::Memset { dst: DevicePtr(256), value: 0, bytes: 4 };
        assert_eq!(k.tag(), "memset");
        let k = ApiKind::KernelLaunch { launch: LaunchId(3), name: "k".into() };
        assert_eq!(k.tag(), "kernel");
    }
}
