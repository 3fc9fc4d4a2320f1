//! Per-processor LRU cache/locality model.
//!
//! Applications declare the data regions they are about to work on via the
//! runtime's `touch(region, bytes)` API (one region per logical block — a
//! matrix tile, an octree subtree, a group of image tiles). Each virtual
//! processor keeps an LRU set of resident regions with a byte capacity; a
//! touch of a non-resident region costs a miss proportional to its size.
//! This is what makes thread *placement* matter in the model: schedulers
//! that run neighbouring threads on the same processor (depth-first order)
//! pay fewer misses than ones that scatter them (FIFO), reproducing the
//! locality story of the paper's Figure 11.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for region ids: one multiply. The ids are the applications' own
/// `(salt << 40) | block` numbers, not input from outside the program, so
/// SipHash's collision resistance buys nothing here and was most of the cost
/// of a touch. The rotate moves the product's well-mixed high half down to
/// where the table takes its bucket index, which would otherwise see only
/// the block number and put every salt's block `n` in one bucket.
#[derive(Debug, Clone, Copy, Default)]
struct RegionHasher(u64);

impl Hasher for RegionHasher {
    fn write_u64(&mut self, region: u64) {
        self.0 = region.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(26);
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("region ids are hashed as one u64");
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// An LRU cache over `(region id → bytes)` with a total byte capacity.
#[derive(Debug, Clone)]
pub struct CacheModel {
    capacity: u64,
    resident_bytes: u64,
    /// region → (bytes, last-use tick). Ticks are unique, so the eviction
    /// victim is too and the map's iteration order never reaches the model.
    resident: HashMap<u64, (u64, u64), BuildHasherDefault<RegionHasher>>,
    tick: u64,
    hits: u64,
    misses: u64,
    missed_bytes: u64,
}

impl CacheModel {
    /// New empty cache with the given capacity in bytes.
    pub fn new(capacity: u64) -> Self {
        CacheModel {
            capacity,
            resident_bytes: 0,
            resident: HashMap::default(),
            tick: 0,
            hits: 0,
            misses: 0,
            missed_bytes: 0,
        }
    }

    /// Touches `bytes` of `region`. Returns the number of bytes that missed
    /// (0 on a hit). A region larger than the whole cache is counted as a
    /// full miss and is not retained.
    pub fn touch(&mut self, region: u64, bytes: u64) -> u64 {
        self.tick += 1;
        if bytes > self.capacity {
            self.misses += 1;
            self.missed_bytes += bytes;
            return bytes;
        }
        if let Some(entry) = self.resident.get_mut(&region) {
            entry.1 = self.tick;
            // Region may have grown since last touch; charge the delta.
            if bytes > entry.0 {
                let delta = bytes - entry.0;
                entry.0 = bytes;
                self.resident_bytes += delta;
                self.misses += 1;
                self.missed_bytes += delta;
                self.evict_to_fit();
                return delta;
            }
            self.hits += 1;
            0
        } else {
            self.resident.insert(region, (bytes, self.tick));
            self.resident_bytes += bytes;
            self.misses += 1;
            self.missed_bytes += bytes;
            self.evict_to_fit();
            bytes
        }
    }

    fn evict_to_fit(&mut self) {
        while self.resident_bytes > self.capacity {
            // O(n) LRU scan: resident sets are small (tens of regions) and
            // this is a model, not a hot path.
            let (&victim, &(bytes, _)) = self
                .resident
                .iter()
                .min_by_key(|(_, &(_, last))| last)
                .expect("resident_bytes > 0 implies non-empty");
            self.resident.remove(&victim);
            self.resident_bytes -= bytes;
        }
    }

    /// Invalidates everything (e.g. between benchmark phases).
    pub fn flush(&mut self) {
        self.resident.clear();
        self.resident_bytes = 0;
    }

    /// (hits, misses, missed bytes) counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.missed_bytes)
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_miss() {
        let mut c = CacheModel::new(1000);
        assert_eq!(c.touch(1, 100), 100);
        assert_eq!(c.touch(1, 100), 0);
        let (h, m, mb) = c.counters();
        assert_eq!((h, m, mb), (1, 1, 100));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = CacheModel::new(300);
        c.touch(1, 100);
        c.touch(2, 100);
        c.touch(3, 100);
        c.touch(1, 100); // refresh 1 → 2 is now LRU
        c.touch(4, 100); // evicts 2
        assert_eq!(c.touch(1, 100), 0, "1 still resident");
        assert_eq!(c.touch(3, 100), 0, "3 still resident");
        assert_eq!(c.touch(2, 100), 100, "2 was evicted");
    }

    #[test]
    fn oversized_region_full_miss_every_time() {
        let mut c = CacheModel::new(100);
        assert_eq!(c.touch(9, 500), 500);
        assert_eq!(c.touch(9, 500), 500);
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn growing_region_charges_delta() {
        let mut c = CacheModel::new(1000);
        assert_eq!(c.touch(1, 100), 100);
        assert_eq!(c.touch(1, 150), 50);
        assert_eq!(c.touch(1, 120), 0);
        assert_eq!(c.resident_bytes(), 150);
    }

    #[test]
    fn capacity_invariant_under_random_workload() {
        let mut c = CacheModel::new(512);
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let region = (x >> 32) % 40;
            let bytes = (x & 0xFF) + 1;
            c.touch(region, bytes);
            assert!(c.resident_bytes() <= 512);
        }
    }

    /// The model written the obvious way: resident regions in a `Vec`, least
    /// recently used first.
    struct VecLru {
        capacity: u64,
        lru: Vec<(u64, u64)>,
        counters: (u64, u64, u64),
    }

    impl VecLru {
        fn touch(&mut self, region: u64, bytes: u64) -> u64 {
            let missed = if bytes > self.capacity {
                bytes
            } else if let Some(at) = self.lru.iter().position(|&(r, _)| r == region) {
                let (_, had) = self.lru.remove(at);
                self.lru.push((region, had.max(bytes)));
                bytes.saturating_sub(had)
            } else {
                self.lru.push((region, bytes));
                bytes
            };
            while self.resident_bytes() > self.capacity {
                self.lru.remove(0);
            }
            if missed == 0 {
                self.counters.0 += 1;
            } else {
                self.counters.1 += 1;
                self.counters.2 += missed;
            }
            missed
        }

        fn resident_bytes(&self) -> u64 {
            self.lru.iter().map(|&(_, b)| b).sum()
        }
    }

    /// 200 seeded sequences of 10,000 touches over 40 region ids shaped like
    /// the apps' (a salt in the high bits): repeated, growing and oversized
    /// regions, capacities from "everything is evicted at once" to "nothing
    /// ever is", and an occasional flush.
    #[test]
    fn agrees_with_a_vec_backed_lru_at_every_step() {
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        for seq in 0..200 {
            let capacity = [96, 512, 4096, 1 << 20][seq % 4];
            let mut model = CacheModel::new(capacity);
            let mut reference = VecLru {
                capacity,
                lru: Vec::new(),
                counters: (0, 0, 0),
            };
            for step in 0..10_000 {
                let id = next() % 40;
                let region = (1 + id % 10) << 40 | id;
                let bytes = match next() % 16 {
                    0 => capacity + 1 + next() % 64,
                    1..=4 => 1 + next() % 256,
                    _ => 1 + id * 5,
                };
                if next() % 4096 == 0 {
                    model.flush();
                    reference.lru.clear();
                }
                let got = (
                    model.touch(region, bytes),
                    model.counters(),
                    model.resident_bytes(),
                );
                let want = (
                    reference.touch(region, bytes),
                    reference.counters,
                    reference.resident_bytes(),
                );
                assert_eq!(got, want, "sequence {seq}, step {step}");
            }
        }
    }
}
