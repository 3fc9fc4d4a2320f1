//! Leak regression at the runtime level: a finished `run` gives back
//! everything its threads allocated. Twin of `ptdf-fiber`'s `tests/leak.rs`
//! (which pins the fiber exit protocol); this one would also catch a leak in
//! the thread table, the policy queues or the stack pool. Own binary for the
//! counting `#[global_allocator]`, one `#[test]` so nothing else allocates
//! while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

use ptdf::{run, spawn, work, Config, SchedKind};

struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

// SAFETY: defers every request to `System` unchanged; the counter is a
// statistic and touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as isize - layout.size() as isize, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const THREADS: u64 = 20_000;

/// `THREADS` spawn/joins in waves of 64 on four processors under DF.
fn storm() {
    let (sum, report) = run(Config::new(4, SchedKind::Df), || {
        let (mut done, mut sum) = (0, 0);
        while done < THREADS {
            let wave = 64.min(THREADS - done);
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
    assert_eq!(sum, THREADS * (THREADS - 1) / 2);
    assert_eq!(report.total_threads as u64, THREADS + 1);
}

#[test]
fn consecutive_runs_leave_live_bytes_flat() {
    storm(); // once-only allocations (lazy statics, thread-locals) land here
    let after_first = LIVE_BYTES.load(Relaxed);
    storm();
    let after_second = LIVE_BYTES.load(Relaxed);
    // Three leaked blocks per finished fiber were 114 bytes a thread: 2.3 MB
    // a run. Nothing a run allocates may outlive it.
    assert_eq!(
        after_second - after_first,
        0,
        "a {THREADS}-thread run left bytes behind"
    );
}
