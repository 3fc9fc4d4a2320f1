//! Heap regression at the runtime level: a finished `run` gives back
//! everything its threads allocated, and while it runs its heap follows the
//! threads alive, not the threads ever created. Twin of `ptdf-fiber`'s
//! `tests/leak.rs` (which pins the fiber exit protocol); this one would also
//! catch a leak in the thread table, the policy queues or the stack pool.
//! Own binary for the counting `#[global_allocator]`, `ptdf_smp::counting`,
//! armed on the test's thread.

use ptdf::{run, spawn, work, Config, SchedKind};
use ptdf_smp::counting::{arm, live, peak_during, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

const THREADS: u64 = 20_000;

/// `threads` spawn/joins in waves of 64 on four processors under DF;
/// returns the most heap bytes the run held at once, above what was live
/// when it started.
fn storm(threads: u64) -> isize {
    let ((sum, report), peak) = peak_during(|| {
        run(Config::new(4, SchedKind::Df), move || {
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
        })
    });
    assert_eq!(sum, threads * (threads - 1) / 2);
    assert_eq!(report.total_threads as u64, threads + 1);
    peak
}

#[test]
fn consecutive_runs_leave_live_bytes_flat_and_peak_heap_ignores_total_threads() {
    arm();
    storm(THREADS); // once-only allocations (lazy statics, thread-locals) land here
    let after_first = live().1;
    let peak_small = storm(THREADS);
    let after_second = live().1;
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
    assert_eq!(live().1, after_second);
}
