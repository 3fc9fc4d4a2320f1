//! Workloads shared by the root integration tests.

use ptdf::{Barrier, Condvar, Mutex, Semaphore};

/// The sync storm: `nthreads` threads, `rounds` rounds. Each round funnels
/// through a half-capacity semaphore, bumps a shared counter, rendezvouses
/// at a condvar gate (last arrival notifies), then crosses a barrier —
/// touching every blocking primitive every round. The gate waits in a
/// predicate loop, so spurious condvar wakes (which chaos delivers by
/// design) are safe. Returns the counter and the gate's arrival count.
pub fn sync_storm(nthreads: usize, rounds: usize) -> (u64, usize) {
    let counter = Mutex::new(0u64);
    let gate = Mutex::new(0usize);
    let cv = Condvar::new();
    let barrier = Barrier::new(nthreads);
    let sem = Semaphore::new((nthreads / 2) as i64);
    ptdf::scope(|s| {
        for _ in 0..nthreads {
            let counter = counter.clone();
            let gate = gate.clone();
            let cv = cv.clone();
            let barrier = barrier.clone();
            let sem = sem.clone();
            s.spawn(move || {
                for r in 1..=rounds {
                    sem.acquire();
                    *counter.lock() += 1;
                    ptdf::work(200);
                    sem.release();
                    let mut g = gate.lock();
                    *g += 1;
                    if *g == nthreads * r {
                        cv.notify_all();
                    } else {
                        g = cv.wait_while(g, |a| *a < nthreads * r);
                    }
                    drop(g);
                    barrier.wait();
                }
            });
        }
    });
    let total = *counter.lock();
    let arrivals = *gate.lock();
    (total, arrivals)
}
