//! A counting global allocator: live bytes with a resettable high-water
//! mark (the `peak_live_mb` metric) plus cumulative calls and bytes (the
//! `alloc.*` per-layer metrics). It forwards to [`System`] and is installed
//! for every rep, timed or traced, so it biases none of them against another.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Counters around the system allocator. All orderings are `Relaxed`: the
/// values are statistics and publish no other data.
pub struct CountingAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
    calls: AtomicU64,
    bytes: AtomicU64,
}

/// A point-in-time reading of the cumulative counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocReading {
    /// Allocation calls (`alloc` and `realloc`) so far.
    pub calls: u64,
    /// Bytes requested so far (growth only for `realloc`).
    pub bytes: u64,
}

impl CountingAlloc {
    /// A zeroed allocator.
    pub const fn new() -> Self {
        CountingAlloc {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            calls: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    fn grow(&self, by: usize) {
        let now = self.live.fetch_add(by, Ordering::Relaxed) + by;
        self.peak.fetch_max(now, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(by as u64, Ordering::Relaxed);
    }

    /// Bytes currently allocated and not yet freed.
    pub fn live_bytes(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Restarts the high-water mark at the current live size and returns
    /// that size, the baseline a rep's peak is measured above.
    pub fn reset_peak(&self) -> usize {
        let live = self.live_bytes();
        self.peak.store(live, Ordering::Relaxed);
        live
    }

    /// The high-water mark of live bytes since the last reset.
    pub fn peak_bytes(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// The cumulative call and byte counters.
    pub fn reading(&self) -> AllocReading {
        AllocReading {
            calls: self.calls.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        CountingAlloc::new()
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.grow(layout.size());
        // SAFETY: the caller's obligations on `layout` pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.grow(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.live.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator with `layout`, i.e. from
        // `System` with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            self.grow(new_size - layout.size());
        } else {
            self.live
                .fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            self.calls.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout` came from `System` via this allocator and
        // the caller guarantees `new_size` is valid for the alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// The process-wide instance, installed for every binary and test that links
/// this crate.
#[global_allocator]
pub static ALLOC: CountingAlloc = CountingAlloc::new();

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a private instance directly, so parallel tests allocating
    /// through the global one cannot disturb the arithmetic.
    #[test]
    fn live_bytes_follow_alloc_realloc_dealloc() {
        let a = CountingAlloc::new();
        let small = Layout::from_size_align(64, 8).unwrap();
        // SAFETY: layouts are non-zero-sized; every pointer is freed once,
        // with the layout (size updated by realloc) it was allocated with.
        unsafe {
            let p = a.alloc(small);
            assert!(!p.is_null());
            assert_eq!(a.live_bytes(), 64);

            let p = a.realloc(p, small, 256);
            assert_eq!(a.live_bytes(), 256, "growth adds the difference");
            assert_eq!(a.peak_bytes(), 256);

            let grown = Layout::from_size_align(256, 8).unwrap();
            let p = a.realloc(p, grown, 32);
            assert_eq!(a.live_bytes(), 32, "shrink subtracts the difference");
            assert_eq!(a.peak_bytes(), 256, "the peak survives a shrink");

            assert_eq!(a.reset_peak(), 32);
            assert_eq!(a.peak_bytes(), 32);

            let shrunk = Layout::from_size_align(32, 8).unwrap();
            let q = a.alloc_zeroed(small);
            assert_eq!(a.peak_bytes(), 96);
            a.dealloc(q, small);
            a.dealloc(p, shrunk);
        }
        assert_eq!(a.live_bytes(), 0);
        let r = a.reading();
        assert_eq!(r.calls, 4, "alloc + 2 realloc + alloc_zeroed");
        assert_eq!(r.bytes, 64 + 192 + 64, "shrinks request no bytes");
    }
}
