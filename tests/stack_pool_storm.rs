//! Fork/join churn at the acceptance scale: 100k threads through the full
//! engine, asserting the fiber-stack pool serves ≥90% of spawns from cache
//! (on the real-stack backend) and that the pool's cached bytes respect its
//! cap. The pool recycles host memory only; the modeled footprint it must
//! not move is pinned by the fingerprint corpus
//! (`tests/schedule_fingerprints.rs`).

use ptdf::{Config, SchedKind};

const THREADS: u64 = 100_000;
const WAVE: u64 = 64;

#[test]
fn hundred_k_storm_hits_the_pool() {
    let (_, report) = ptdf::run(Config::new(4, SchedKind::Df), || {
        let mut done = 0u64;
        while done < THREADS {
            let wave = WAVE.min(THREADS - done);
            let handles: Vec<_> = (0..wave).map(|_| ptdf::spawn(|| ())).collect();
            for h in handles {
                h.join();
            }
            done += wave;
        }
    });
    assert_eq!(
        report.stats.mem.host_stack_hits + report.stats.mem.host_stack_misses,
        THREADS + 1, // every spawn plus the root fiber
    );
    if ptdf_fiber::HAS_REAL_STACKS {
        let rate = report.stack_pool_hit_rate();
        assert!(rate >= 0.9, "pool hit rate {rate} < 0.9");
        // A 64-wide wave of 64 KiB fiber stacks never outgrows the cap, so
        // nothing is evicted and the high-water mark stays under it.
        let cap = ptdf_fiber::DEFAULT_POOL_CAP as u64;
        assert!(report.stats.mem.host_stack_cached_hwm <= cap);
        assert!(report.stats.mem.host_stack_cached_hwm > 0);
    } else {
        assert_eq!(report.stack_pool_hit_rate(), 0.0);
    }
}
