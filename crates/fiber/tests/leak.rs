//! Leak regression: a coroutine that has finished — by running to
//! completion, by being dropped before its first resume, or by being
//! force-unwound from a suspension — leaves no heap block behind.
//!
//! The final context switch of a completed fiber never returns, so anything
//! still owned by a frame beneath it is lost for good; this test pins the
//! exit protocol that makes those frames own nothing (see
//! `ptdf_fiber_entry`). It needs its own binary for the counting
//! `#[global_allocator]`. libtest's main thread allocates while a test runs,
//! so the allocator counts only on the test's thread and on threads started
//! after the test armed it (the portable backend's fibers are OS threads).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

use ptdf_fiber::{Coroutine, Step};

struct Counting;

static LIVE_BLOCKS: AtomicIsize = AtomicIsize::new(0);
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

/// Set by [`arm`]; a thread that allocates for the first time after it
/// counts, one that allocated before it (libtest's main thread) never does.
static ARMED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Whether this thread's allocations count; `None` until its first one.
    /// Const-initialised and without a destructor, so reading it inside the
    /// allocator neither allocates nor fails during thread teardown.
    static COUNTED: Cell<Option<bool>> = const { Cell::new(None) };
}

fn counted() -> bool {
    COUNTED.with(|c| {
        c.get().unwrap_or_else(|| {
            let armed = ARMED.load(Relaxed);
            c.set(Some(armed));
            armed
        })
    })
}

/// Starts counting on the calling thread and on every thread started from
/// now on.
fn arm() {
    COUNTED.with(|c| c.set(Some(true)));
    ARMED.store(true, Relaxed);
}

// SAFETY: defers every request to `System` unchanged; the counters are
// statistics and touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted() {
            LIVE_BLOCKS.fetch_add(1, Relaxed);
            LIVE_BYTES.fetch_add(layout.size() as isize, Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counted() {
            LIVE_BLOCKS.fetch_sub(1, Relaxed);
            LIVE_BYTES.fetch_sub(layout.size() as isize, Relaxed);
        }
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counted() {
            LIVE_BYTES.fetch_add(new_size as isize - layout.size() as isize, Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live() -> (isize, isize) {
    (LIVE_BLOCKS.load(Relaxed), LIVE_BYTES.load(Relaxed))
}

type Co = Coroutine<u32, u32, String>;

/// A body that owns heap data across its suspension and returns some.
fn coroutine() -> Co {
    let captured = "x".repeat(100);
    Coroutine::new(16 * 1024, move |y, first| {
        let held = format!("held across the switch: {first}");
        let second = y.suspend(captured.len() as u32);
        format!("{held} then {second}")
    })
}

fn completed(n: usize) {
    for _ in 0..n {
        let mut co = coroutine();
        assert_eq!(co.resume(1), Step::Yield(100));
        assert!(matches!(co.resume(2), Step::Complete(s) if s.ends_with("then 2")));
    }
}

fn dropped_unresumed(n: usize) {
    for _ in 0..n {
        drop(coroutine());
    }
}

fn dropped_suspended(n: usize) {
    for _ in 0..n {
        let mut co = coroutine();
        assert_eq!(co.resume(1), Step::Yield(100));
        drop(co); // force-unwinds the fiber's stack
    }
}

#[test]
fn finished_coroutines_leave_no_heap_blocks_behind() {
    arm();
    // Once-only allocations (the forced-unwind panic-hook filter, lazily
    // initialised runtime state) happen here, before the baseline.
    completed(2);
    dropped_unresumed(2);
    dropped_suspended(2);

    let check = |what: &str, scenario: fn(usize), n: usize| {
        let before = live();
        scenario(n);
        assert_eq!(
            live(),
            before,
            "{n} coroutines {what}: (blocks, bytes) still live"
        );
    };
    check("run to completion", completed, 10_000);
    check("dropped before the first resume", dropped_unresumed, 1_000);
    check("dropped while suspended", dropped_suspended, 1_000);
}
