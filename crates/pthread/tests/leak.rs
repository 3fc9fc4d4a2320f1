//! Heap regression at the runtime level: a finished `run` gives back
//! everything its threads allocated, and while it runs its heap follows the
//! threads alive, not the threads ever created. Twin of `ptdf-fiber`'s
//! `tests/leak.rs` (which pins the fiber exit protocol); this one would also
//! catch a leak in the thread table, the policy queues or the stack pool.
//! Own binary for the counting `#[global_allocator]`, which counts only on
//! the test's thread and on threads started after the test armed it:
//! libtest's main thread allocates while a test runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

use ptdf::{run, spawn, work, Config, SchedKind};

struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
/// High-water mark of `LIVE_BYTES` since it was last reset.
static PEAK_BYTES: AtomicIsize = AtomicIsize::new(0);

fn grow(by: isize) {
    let live = LIVE_BYTES.fetch_add(by, Relaxed) + by;
    PEAK_BYTES.fetch_max(live, Relaxed);
}

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
/// now on (the portable backend's fibers are OS threads).
fn arm() {
    COUNTED.with(|c| c.set(Some(true)));
    ARMED.store(true, Relaxed);
}

// SAFETY: defers every request to `System` unchanged; the counters are
// statistics and touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted() {
            grow(layout.size() as isize);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counted() {
            LIVE_BYTES.fetch_sub(layout.size() as isize, Relaxed);
        }
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counted() {
            grow(new_size as isize - layout.size() as isize);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const THREADS: u64 = 20_000;

/// `threads` spawn/joins in waves of 64 on four processors under DF;
/// returns the most heap bytes the run held at once, above what was live
/// when it started.
fn storm(threads: u64) -> isize {
    let before = LIVE_BYTES.load(Relaxed);
    PEAK_BYTES.store(before, Relaxed);
    let (sum, report) = run(Config::new(4, SchedKind::Df), move || {
        let (mut done, mut sum) = (0, 0);
        while done < threads {
            let wave = 64.min(threads - done);
            let handles: Vec<_> = (done..done + wave)
                .map(|id| {
                    spawn(move || {
                        work(200);
                        id
                    })
                })
                .collect();
            sum += handles.into_iter().map(|h| h.join()).sum::<u64>();
            done += wave;
        }
        sum
    });
    assert_eq!(sum, threads * (threads - 1) / 2);
    assert_eq!(report.total_threads as u64, threads + 1);
    PEAK_BYTES.load(Relaxed) - before
}

#[test]
fn consecutive_runs_leave_live_bytes_flat_and_peak_heap_ignores_total_threads() {
    arm();
    storm(THREADS); // once-only allocations (lazy statics, thread-locals) land here
    let after_first = LIVE_BYTES.load(Relaxed);
    let peak_small = storm(THREADS);
    let after_second = LIVE_BYTES.load(Relaxed);
    // Three leaked blocks per finished fiber were 114 bytes a thread: 2.3 MB
    // a run. Nothing a run allocates may outlive it.
    assert_eq!(
        after_second - after_first,
        0,
        "a {THREADS}-thread run left bytes behind"
    );

    // Under DF a wave's children exit one by one before the root goes on,
    // so only a handful of a storm's threads are ever alive at once, and
    // the host keeps nothing for an id once its thread has exited and been
    // joined: the thread table's and DF's directories free a page of 4,096
    // ids once all of them have exited, and what a join needs lives in the
    // handle's cell. Ten times the threads may cost one directory word per
    // 4,096 extra ids and nothing else. One 272-byte record per thread ever
    // created would be 49 MB here; the 12 bytes an id the two per-id
    // tables once took, 2.2 MB.
    let more = 10 * THREADS;
    let peak_large = storm(more);
    let per_id = (peak_large - peak_small) as f64 / (more - THREADS) as f64;
    assert!(
        per_id <= 1.0,
        "peak heap grew {per_id:.1} B per extra thread ({peak_small} B at {THREADS} threads, \
         {peak_large} B at {more})"
    );
    assert_eq!(LIVE_BYTES.load(Relaxed), after_second);
}
