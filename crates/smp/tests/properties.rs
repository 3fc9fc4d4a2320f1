//! Property tests of the machine-model primitives against reference
//! implementations.

use proptest::prelude::*;
use ptdf_smp::{CacheModel, HeapModel, VirtTime, VirtualLock};

/// Brute-force model of the lock: every granted hold kept as its own entry
/// of a plain sorted `Vec` (no coalescing, no chunks, no fast path), scanned
/// from the front on every acquire.
#[derive(Default)]
struct RefLock {
    busy: Vec<(u64, u64)>,
    acquisitions: u64,
    total_wait: u64,
    total_held: u64,
}

impl RefLock {
    /// First fit: the earliest `t >= now` with `[t, t+hold)` free.
    fn acquire(&mut self, now: u64, hold: u64) -> (u64, u64) {
        let mut t = now;
        if hold > 0 {
            for &(s, e) in &self.busy {
                if e <= t {
                    continue;
                }
                if s >= t + hold {
                    break;
                }
                t = e;
            }
            let at = self.busy.partition_point(|&(s, _)| s < t);
            self.busy.insert(at, (t, t + hold));
        }
        self.acquisitions += 1;
        self.total_held += hold;
        self.total_wait += t - now;
        (t - now, t + hold)
    }

    fn acquire_deferred(&mut self, now: u64, hold: u64, defer: u64) -> (u64, u64) {
        let (_, release) = self.acquire(now + defer, hold);
        self.total_wait += defer;
        (release - (now + hold), release)
    }
}

proptest! {
    /// Granted critical sections never overlap, never start before the
    /// acquirer arrives, and the counters add up.
    #[test]
    fn vlock_grants_are_disjoint(ops in proptest::collection::vec((0u64..10_000, 1u64..200), 1..200)) {
        let mut lock = VirtualLock::new();
        let mut grants: Vec<(u64, u64)> = Vec::new();
        let mut total_wait = 0u64;
        for (now, hold) in ops {
            let (wait, release) = lock.acquire(VirtTime::from_ns(now), VirtTime::from_ns(hold));
            let start = release.as_ns() - hold;
            prop_assert!(start >= now, "granted before arrival");
            prop_assert_eq!(wait.as_ns(), start - now);
            for &(s, e) in &grants {
                prop_assert!(release.as_ns() <= s || start >= e,
                    "overlap: [{start},{}) vs [{s},{e})", release.as_ns());
            }
            grants.push((start, release.as_ns()));
            total_wait += wait.as_ns();
        }
        let (acq, wait, _) = lock.counters();
        prop_assert_eq!(acq as usize, grants.len());
        prop_assert_eq!(wait.as_ns(), total_wait);
    }

    /// Differential test of the chunked-ring `VirtualLock` against
    /// [`RefLock`] over arrivals ahead of, inside and far behind the
    /// recorded history, plain and deferred, with prunes at watermarks no
    /// later arrival undercuts: every call returns the same `(wait,
    /// release)` and leaves the same counters.
    #[test]
    fn vlock_matches_linear_reference(
        ops in proptest::collection::vec((0u8..32, any::<u64>(), 0u64..=5_000, 0u64..=48), 1..1_500)
    ) {
        let ns = VirtTime::from_ns;
        let mut lock = VirtualLock::new();
        let mut reference = RefLock::default();
        // Every later arrival is at or after `floor` (the last watermark);
        // `tail` is where the recorded history ends.
        let (mut floor, mut tail) = (0u64, 0u64);
        for (i, (kind, a, hold, defer)) in ops.into_iter().enumerate() {
            let span = tail.saturating_sub(floor);
            let now = match kind {
                0..=9 => floor.max(tail) + a % 12_000, // ahead of the history
                10..=21 => floor + a % (span + 1),     // somewhere inside it
                22..=25 => floor + a % 64,             // at its oldest end
                26..=30 => floor + a % (span + 1),     // inside, losing a race
                _ => {
                    // Prune: mostly a slice off the old end, sometimes past
                    // everything.
                    floor += if a % 16 == 0 { span + a % 100 } else { a % (span / 4 + 1) };
                    lock.prune(ns(floor));
                    reference.busy.retain(|&(_, e)| e >= floor);
                    continue;
                }
            };
            let (got, want) = if kind >= 26 {
                (
                    lock.acquire_deferred(ns(now), ns(hold), ns(defer)),
                    reference.acquire_deferred(now, hold, defer),
                )
            } else {
                (lock.acquire(ns(now), ns(hold)), reference.acquire(now, hold))
            };
            prop_assert_eq!((got.0.as_ns(), got.1.as_ns()), want, "op {} kind {}", i, kind);
            let (acq, wait, held) = lock.counters();
            prop_assert_eq!(
                (acq, wait.as_ns(), held.as_ns()),
                (reference.acquisitions, reference.total_wait, reference.total_held)
            );
            tail = tail.max(want.1);
        }
    }

    /// HeapModel bookkeeping against a straightforward reference.
    #[test]
    fn heap_model_matches_reference(ops in proptest::collection::vec(1u64..5_000, 1..200)) {
        let mut h = HeapModel::new();
        let mut live_ref = 0u64;
        let mut pool_ref = 0u64;
        let mut footprint_ref = 0u64;
        let mut outstanding: Vec<u64> = Vec::new();
        for (i, &bytes) in ops.iter().enumerate() {
            if i % 3 == 2 && !outstanding.is_empty() {
                let b = outstanding.pop().unwrap();
                prop_assert_eq!(h.free(b), 0, "frees of live bytes never underflow");
                live_ref -= b;
                pool_ref += b;
            } else {
                let fresh = h.alloc(bytes);
                let reused = bytes.min(pool_ref);
                prop_assert_eq!(fresh, bytes - reused);
                pool_ref -= reused;
                footprint_ref += bytes - reused;
                live_ref += bytes;
                outstanding.push(bytes);
            }
            prop_assert_eq!(h.live(), live_ref);
            prop_assert_eq!(h.footprint(), footprint_ref);
            prop_assert!(h.footprint() >= h.live());
        }
    }

    /// CacheModel agrees with a naive reference LRU.
    #[test]
    fn cache_model_matches_reference_lru(
        touches in proptest::collection::vec((0u64..30, 1u64..300), 1..300)
    ) {
        let capacity = 1000u64;
        let mut cache = CacheModel::new(capacity);
        // Reference: vector of (region, bytes), most recent at the back.
        let mut lru: Vec<(u64, u64)> = Vec::new();
        for (region, bytes) in touches {
            let missed = cache.touch(region, bytes);
            // Reference behaviour.
            let expected = if bytes > capacity {
                lru.retain(|&(r, _)| r != region);
                bytes
            } else if let Some(pos) = lru.iter().position(|&(r, _)| r == region) {
                let (_, old) = lru.remove(pos);
                let grow = bytes.saturating_sub(old);
                lru.push((region, bytes.max(old)));
                grow
            } else {
                lru.push((region, bytes));
                bytes
            };
            // Evict from the reference LRU.
            let mut total: u64 = lru.iter().map(|&(_, b)| b).sum();
            while total > capacity {
                let (_, b) = lru.remove(0);
                total -= b;
            }
            prop_assert_eq!(missed, expected, "region {} bytes {}", region, bytes);
            prop_assert!(cache.resident_bytes() <= capacity);
            prop_assert_eq!(cache.resident_bytes(), total.min(capacity));
        }
    }
}
