//! The dynamic-analysis companion to the static rules: a counting
//! global allocator for *zero-steady-state-allocation* regression
//! tests.
//!
//! The engine's warm paths (`Session::run_into` reruns, and
//! `TesterSession::test_into` reruns, whose payload backings come back
//! through the engine's broadcast slots) are documented as
//! allocation-free once warmed. This module turns
//! that prose claim into a CI-checkable fact: a test binary installs
//! [`CountingAlloc`] as its `#[global_allocator]`, warms the path
//! under test, snapshots the counters with [`AllocGate::snapshot`],
//! reruns, and asserts `delta().allocs == 0`.
//!
//! Compiled only under the `alloc-gate` cargo feature because
//! installing a global allocator is a per-binary decision the ordinary
//! test and bench binaries must not inherit.
//!
//! ```ignore
//! use ck_lint::alloc_gate::{AllocGate, CountingAlloc};
//!
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc::new();
//!
//! // warm the path, then:
//! let gate = AllocGate::snapshot();
//! run_warm_path_again();
//! assert_eq!(gate.delta().allocs, 0);
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters since process start. `Relaxed` ordering is
/// enough: the gate tests are single-threaded around the measured
/// region, and the counters are statistics, not synchronization.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// When nonzero, only allocations made by the thread whose
/// [`TLS_ANCHOR`] sits at this address are counted. The zero-alloc
/// contracts under test are all *single-threaded* warm paths
/// (sequential executor, pool take/return on one thread), but the
/// test harness itself owns background threads that allocate at
/// unpredictable times — libtest's coordinator fires a small burst
/// tens of milliseconds into a run — and a process-global count turns
/// that into a flake. Pinning scopes the gate to the thread whose
/// behaviour is actually being asserted.
static PINNED: AtomicU64 = AtomicU64::new(0);

// One byte of thread-local storage whose *address* identifies the
// thread: reading it never allocates, which is the property that
// makes it usable inside the allocator itself.
thread_local! {
    static TLS_ANCHOR: u8 = const { 0u8 };
}

fn anchor_addr() -> u64 {
    // During thread teardown TLS may be gone; such allocations can
    // never belong to the pinned gate thread, so 0 (≠ any live pin)
    // is the right answer.
    TLS_ANCHOR.try_with(|a| a as *const u8 as u64).unwrap_or(0)
}

fn counted() -> bool {
    let pin = PINNED.load(Ordering::Relaxed);
    pin == 0 || anchor_addr() == pin
}

/// A [`GlobalAlloc`] that forwards to [`System`] and counts every
/// call. Install as `#[global_allocator]` in the test binary that
/// asserts zero-steady-state allocation.
pub struct CountingAlloc;

impl CountingAlloc {
    pub const fn new() -> Self {
        CountingAlloc
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: all four methods forward verbatim to `System`, which
// upholds the GlobalAlloc contract; the only additions are Relaxed
// atomic increments, which neither allocate nor unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: contract inherited verbatim from `GlobalAlloc::alloc`;
    // this wrapper adds no obligations of its own.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: `layout` is the caller's layout, passed through
        // unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: contract inherited verbatim from `GlobalAlloc::dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counted() {
            DEALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout` come from a prior `alloc` with the
        // same layout, per the caller's GlobalAlloc obligations.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: contract inherited verbatim from `GlobalAlloc::realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counted() {
            REALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: caller obligations forwarded unchanged to the
        // system allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: contract inherited verbatim from
    // `GlobalAlloc::alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counted() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: `layout` forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }
}

/// A point-in-time reading of the allocator counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// `alloc` + `alloc_zeroed` calls.
    pub allocs: u64,
    /// `dealloc` calls.
    pub deallocs: u64,
    /// `realloc` calls (counted separately: a realloc on a warm path
    /// is still a heap interaction the gate must see).
    pub reallocs: u64,
    /// Bytes requested across alloc/alloc_zeroed/realloc.
    pub bytes: u64,
}

impl AllocStats {
    /// Total heap interactions — the number the gate tests assert is
    /// zero across a warm rerun.
    pub fn heap_ops(&self) -> u64 {
        self.allocs + self.reallocs
    }
}

/// Snapshot-and-diff handle over the global counters.
#[derive(Debug, Clone, Copy)]
pub struct AllocGate {
    at: AllocStats,
}

impl AllocGate {
    /// Reads the counters now; later [`delta`](Self::delta) calls
    /// report growth since this point.
    pub fn snapshot() -> Self {
        AllocGate { at: Self::current() }
    }

    /// Restricts the counters to allocations made by the calling
    /// thread. Call once at the top of a gate test: the asserted
    /// contracts are single-threaded warm paths, and without the pin
    /// the harness's own background threads can land allocations
    /// inside a measured region and fail the gate spuriously.
    pub fn pin_to_current_thread() {
        PINNED.store(anchor_addr(), Ordering::Relaxed);
    }

    /// Lifts a [`pin_to_current_thread`](Self::pin_to_current_thread)
    /// back to process-global counting.
    pub fn unpin() {
        PINNED.store(0, Ordering::Relaxed);
    }

    /// The raw monotonic counters.
    pub fn current() -> AllocStats {
        AllocStats {
            allocs: ALLOCS.load(Ordering::Relaxed),
            deallocs: DEALLOCS.load(Ordering::Relaxed),
            reallocs: REALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// Counter growth since the snapshot.
    pub fn delta(&self) -> AllocStats {
        let now = Self::current();
        AllocStats {
            allocs: now.allocs - self.at.allocs,
            deallocs: now.deallocs - self.at.deallocs,
            reallocs: now.reallocs - self.at.reallocs,
            bytes: now.bytes - self.at.bytes,
        }
    }
}
