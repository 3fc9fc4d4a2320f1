//! A counting global allocator for host-heap tests.
//!
//! A test binary of its own installs it with
//! `#[global_allocator] static ALLOC: Counting = Counting;`, calls [`arm`],
//! and reads [`live`], [`calls`] and [`peak_during`] around the code it
//! bounds. Every request goes to [`System`] unchanged; the counters are
//! statistics (`Relaxed` atomics that publish no other data).
//!
//! Counting is per thread, because libtest's main thread allocates while a
//! test runs: the thread that called [`arm`] counts, and so does every
//! thread whose first allocation comes after the call (the portable fiber
//! backend's fibers are OS threads started after the test armed). A thread
//! that allocated before [`arm`] never counts. On a counted thread `alloc`
//! adds a block, its bytes and a call; `realloc` adds a call and the byte
//! difference; `dealloc` takes back the block and its bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, Ordering::Relaxed};

/// A [`GlobalAlloc`] that passes every request to [`System`] and counts
/// those of counted threads (see the [module docs](self)).
pub struct Counting;

static LIVE_BLOCKS: AtomicIsize = AtomicIsize::new(0);
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
/// High-water mark of `LIVE_BYTES` since [`peak_during`] last began.
static PEAK_BYTES: AtomicIsize = AtomicIsize::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

/// Set by [`arm`]; a thread that allocates for the first time after it
/// counts, one that allocated before it never does.
static ARMED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Whether this thread's requests count; `None` until its first one.
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

fn grow(by: isize) {
    let live = LIVE_BYTES.fetch_add(by, Relaxed) + by;
    PEAK_BYTES.fetch_max(live, Relaxed);
}

/// Starts counting on the calling thread and on every thread whose first
/// allocation comes after this call.
pub fn arm() {
    COUNTED.with(|c| c.set(Some(true)));
    ARMED.store(true, Relaxed);
}

/// Live `(blocks, bytes)` of counted threads. A block allocated before a
/// thread counted and freed after lowers both, so only differences mean
/// anything.
pub fn live() -> (isize, isize) {
    (LIVE_BLOCKS.load(Relaxed), LIVE_BYTES.load(Relaxed))
}

/// `alloc` and `realloc` calls of counted threads so far.
pub fn calls() -> u64 {
    CALLS.load(Relaxed)
}

/// Runs `f` and returns its result with the most live bytes counted threads
/// held at once while it ran, above what was live when it began. Not
/// reentrant: a nested call restarts the outer one's high-water mark.
pub fn peak_during<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let before = LIVE_BYTES.load(Relaxed);
    PEAK_BYTES.store(before, Relaxed);
    let out = f();
    (out, PEAK_BYTES.load(Relaxed) - before)
}

// SAFETY: defers every request to `System` unchanged; the counters are
// statistics and touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted() {
            CALLS.fetch_add(1, Relaxed);
            LIVE_BLOCKS.fetch_add(1, Relaxed);
            grow(layout.size() as isize);
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
            CALLS.fetch_add(1, Relaxed);
            grow(new_size as isize - layout.size() as isize);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// `Counting` is not this binary's allocator, so only the calls below
    /// move the counters, and one test makes them all.
    #[test]
    fn counts_each_request_of_armed_threads_only() {
        let counts = || (live(), calls());
        let layout = Layout::from_size_align(100, 8).unwrap();
        // SAFETY: `layout` has a non-zero size; the block is freed with it.
        let alloc_free = || unsafe { Counting.dealloc(Counting.alloc(layout), layout) };

        // A thread whose first call comes before `arm` never counts.
        let step = Barrier::new(2);
        let start = std::thread::scope(|s| {
            s.spawn(|| {
                alloc_free();
                step.wait();
                step.wait();
                alloc_free();
            });
            step.wait();
            arm();
            let start = counts();
            step.wait();
            start
        });
        assert_eq!(counts(), start, "a pre-arm thread counted");

        let ((blocks, bytes), calls0) = start;
        // SAFETY: `layout` has a non-zero size; the block is reallocated to
        // non-zero sizes with its current layout and freed with its last.
        let ((), peak) = peak_during(|| unsafe {
            let p = Counting.alloc(layout);
            assert_eq!(counts(), ((blocks + 1, bytes + 100), calls0 + 1));
            let p = Counting.realloc(p, layout, 300);
            assert_eq!(counts(), ((blocks + 1, bytes + 300), calls0 + 2));
            let p = Counting.realloc(p, Layout::from_size_align(300, 8).unwrap(), 40);
            assert_eq!(counts(), ((blocks + 1, bytes + 40), calls0 + 3));
            Counting.dealloc(p, Layout::from_size_align(40, 8).unwrap());
            assert_eq!(counts(), ((blocks, bytes), calls0 + 3));
        });
        assert_eq!(peak, 300, "high-water mark above the start");
    }
}
