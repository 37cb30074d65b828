//! The counting allocator: the benchmark's one `unsafe impl`.
//!
//! Allocation counts of a deterministic simulation repeat exactly, so they
//! are the ledger's noise-free cost figure. The counters are process-wide
//! atomics; the measured section is single-threaded, so a before/after
//! [`snapshot`] pair brackets exactly the work in between.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator and counts every request.
pub struct Counting;

fn on_alloc(size: usize) {
    let size = size as u64;
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size, Relaxed);
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are statistics that
// publish no other data (hence `Relaxed`) and never influence which
// pointer is returned or freed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligation is passed on as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout`, i.e. from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's `ptr`/`layout`/`new_size` obligations are
        // passed on as is.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // A resize is one allocation request for the new size.
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            on_alloc(new_size);
        }
        p
    }
}

/// Cumulative allocation requests and requested bytes so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub allocs: u64,
    pub bytes: u64,
}

impl Snapshot {
    /// Requests and bytes since `earlier`.
    pub fn since(self, earlier: Snapshot) -> Snapshot {
        Snapshot {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

pub fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Restarts peak tracking from the bytes live right now and returns that
/// baseline; [`peak_above`] then reports growth beyond it.
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// The most bytes live at once since [`reset_peak`], above its baseline.
pub fn peak_above(baseline: u64) -> u64 {
    PEAK.load(Relaxed).saturating_sub(baseline)
}
