//! A counting global allocator: the live heap bytes of the process and
//! their peak.
//!
//! Resident memory on glibc depends on which arena a freed block lands
//! in and on what set-up left behind, so the same ops can peak several
//! MiB apart from one process to the next. The live heap is what the
//! program asked for and still holds; its peak repeats from run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::Relaxed;

/// The system allocator, counting the bytes it hands out.
pub struct Counting;

/// Bytes allocated and not yet freed. Relaxed: a statistic that
/// publishes no other data.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Largest value of [`LIVE`] since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrank(by: usize) {
    LIVE.fetch_sub(by, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns what `System` returned, so `System`'s guarantees carry over;
// the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (that is,
        // `System`) returned for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller passes a block `System` returned for
        // `layout` and a valid new size.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Starts a new peak at the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Peak live heap since the last [`reset_peak`], MiB.
pub fn peak_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / (1 << 20) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_follows_a_large_allocation() {
        reset_peak();
        let block = vec![1u8; 8 << 20];
        std::hint::black_box(&block);
        drop(block);
        // The block alone was live at its peak; other test threads only
        // add to that.
        assert!(peak_mb() >= 8.0, "peak {} MiB", peak_mb());
    }
}
