//! Counting global allocator: allocation count, live bytes and a resettable
//! live-bytes high-water mark, so each phase of a run can report its peak
//! heap above the level it started from.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

struct CountingAlloc;

// Statistics only: no other data is published through these counters, so
// `Relaxed` suffices (and the benchmark is single-threaded).
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes currently allocated. Signed: frees of memory allocated before a
/// baseline was taken may drive it below that baseline.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// High-water marks of `LIVE`, one per [`Scope`], so a phase window can
/// open and close inside a whole-pass window without resetting it.
static PEAK: [AtomicI64; 2] = [AtomicI64::new(0), AtomicI64::new(0)];

fn note_live(delta: i64) {
    let now = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    if delta > 0 {
        for p in &PEAK {
            p.fetch_max(now, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping touches
// only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        note_live(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        note_live(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations (alloc + realloc) made by the process so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Which high-water mark a [`PeakWindow`] owns. Windows of different
/// scopes nest; two open windows of one scope would reset each other.
#[derive(Clone, Copy)]
pub enum Scope {
    /// A whole pass over a workload's experiments.
    Pass = 0,
    /// One phase (set-up or run) of one experiment.
    Phase = 1,
}

/// A peak-heap measurement window opened at the current live level.
pub struct PeakWindow {
    scope: Scope,
    base: i64,
}

impl PeakWindow {
    /// Open a window: the scope's high-water mark restarts at the live
    /// level now.
    pub fn open(scope: Scope) -> Self {
        let base = LIVE.load(Ordering::Relaxed);
        PEAK[scope as usize].store(base, Ordering::Relaxed);
        PeakWindow { scope, base }
    }

    /// Peak bytes above the opening level since [`PeakWindow::open`].
    pub fn peak_bytes(&self) -> u64 {
        (PEAK[self.scope as usize].load(Ordering::Relaxed) - self.base).max(0) as u64
    }
}
