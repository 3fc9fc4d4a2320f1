//! Virtual-time lock contention model.

use std::collections::VecDeque;

use crate::VirtTime;

/// Most intervals one chunk of the busy ring holds; a chunk that outgrows
/// it splits in half.
const CHUNK: usize = 64;

/// Models a lock on the virtual timeline (used for the global scheduler
/// lock — the serialization point the paper's §6 discusses — and the
/// kernel VM lock of the memory model).
///
/// The lock records its busy intervals. An acquirer arriving at virtual
/// time `t` for a critical section of length `hold` is granted the first
/// gap of length `hold` at or after `t`; its contention wait is the gap
/// start minus `t`. This charges waiting only for *true overlaps* in
/// virtual time. (A simpler "free-at" register would force acquirers to
/// queue behind holds that are in their virtual future, grossly inflating
/// contention, because the engine simulates whole execution segments
/// atomically.)
///
/// Note the cost-model nature of this object: grants are made in engine
/// (real) order, so an acquirer may be granted a gap that virtually
/// precedes an already-recorded hold. The semantic effects of the guarded
/// operations are applied in engine order either way; the lock only prices
/// the serialization.
#[derive(Debug, Clone, Default)]
pub struct VirtualLock {
    /// Busy intervals `[start, end)`, non-overlapping and sorted, stored as
    /// a ring of non-empty chunks of at most [`CHUNK`] intervals each (the
    /// concatenation of the chunks is the sorted sequence). Holds are
    /// appended at the back, pruned from the front and, on the gap path,
    /// inserted into one chunk — so no operation moves more than a chunk of
    /// intervals plus the ring's chunk headers. Adjacent intervals are
    /// coalesced on insert: the busy *set* is what every query reads, and
    /// it is unchanged by merging `[a,b) + [b,c)` into `[a,c)`, so
    /// serialize-heavy phases keep a handful of entries instead of one per
    /// acquisition.
    chunks: VecDeque<Vec<(u64, u64)>>,
    /// End of the latest recorded hold (monotone; survives pruning). An
    /// acquirer arriving at or after it can never contend, which is the
    /// common case whenever the processors' clocks move past the recorded
    /// history.
    max_end: u64,
    acquisitions: u64,
    total_wait: VirtTime,
    total_held: VirtTime,
}

impl VirtualLock {
    /// New, immediately-free lock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquires at `now`, holding for `hold`. Returns `(wait, release)`:
    /// `wait` is contention delay, `release` the end of the critical
    /// section (the caller's new clock).
    pub fn acquire(&mut self, now: VirtTime, hold: VirtTime) -> (VirtTime, VirtTime) {
        self.acquisitions += 1;
        self.total_held += hold;
        let hold_ns = hold.as_ns();
        let mut t = now.as_ns();
        if hold_ns > 0 {
            if t >= self.max_end {
                // Arrival at or past every recorded hold — granted at `now`
                // with no contention, no gap search needed.
                self.push_back(t, t + hold_ns);
            } else {
                let (mut ci, mut ii) = self.first_ending_after(t);
                // Slide over the following intervals until a gap fits. Every
                // interval from here on ends after `t`, so one that starts
                // before `t + hold` pushes the grant to its end.
                'slide: while let Some(c) = self.chunks.get(ci) {
                    for &(s, e) in &c[ii..] {
                        if s >= t + hold_ns {
                            break 'slide; // gap [t, t+hold) is free
                        }
                        t = e;
                        ii += 1;
                    }
                    (ci, ii) = (ci + 1, 0);
                }
                self.insert(ci, ii, t, t + hold_ns);
            }
            self.max_end = self.max_end.max(t + hold_ns);
        }
        let wait = VirtTime::from_ns(t.saturating_sub(now.as_ns()));
        self.total_wait += wait;
        (wait, VirtTime::from_ns(t + hold_ns))
    }

    /// Position `(chunk, index)` of the first interval ending after `t` —
    /// the only one that can cover `t`, and the start of the gap search.
    /// Past-the-end is `(chunks.len(), 0)`.
    fn first_ending_after(&self, t: u64) -> (usize, usize) {
        let Some(tail) = self.chunks.back() else {
            return (0, 0); // history fully pruned
        };
        let last = self.chunks.len() - 1;
        // The chunk to search is the last one whose head starts at or before
        // `t`: every earlier chunk lies wholly before that head.
        let (ci, ii) = if tail[0].0 <= t {
            // In the engine the arrival sits within a few holds of the
            // newest one: walk back from the tail.
            let after = tail.iter().rev().take_while(|&&(_, e)| e > t).count();
            (last, tail.len() - after)
        } else {
            let ci = self
                .chunks
                .partition_point(|c| c[0].0 <= t)
                .saturating_sub(1);
            (ci, self.chunks[ci].partition_point(|&(_, e)| e <= t))
        };
        if ii == self.chunks[ci].len() {
            (ci + 1, 0)
        } else {
            (ci, ii)
        }
    }

    /// Appends busy interval `[s, e)`, which starts at or after every
    /// recorded hold, coalescing with a last interval that ends at `s`.
    fn push_back(&mut self, s: u64, e: u64) {
        match self.chunks.back_mut() {
            Some(c) => {
                let last = c.last_mut().expect("chunks are non-empty");
                if last.1 == s {
                    last.1 = e;
                } else if c.len() < CHUNK {
                    c.push((s, e));
                } else {
                    self.push_chunk(s, e);
                }
            }
            None => self.push_chunk(s, e),
        }
    }

    fn push_chunk(&mut self, s: u64, e: u64) {
        let mut c = Vec::with_capacity(CHUNK + 1);
        c.push((s, e));
        self.chunks.push_back(c);
    }

    /// Records busy interval `[s, e)` at position `(ci, ii)` (as returned by
    /// the gap search: everything before it ends at or before `s`,
    /// everything from it on starts at or after `e`), coalescing with a
    /// predecessor that ends exactly at `s` — the granted gap guarantees
    /// `[s, e)` overlaps nothing, so extension preserves the busy set.
    fn insert(&mut self, ci: usize, ii: usize, s: u64, e: u64) {
        let pred = if ii > 0 {
            Some(&mut self.chunks[ci][ii - 1])
        } else if ci > 0 {
            self.chunks[ci - 1].last_mut()
        } else {
            None
        };
        if let Some(pred) = pred {
            if pred.1 == s {
                pred.1 = e;
                return;
            }
        }
        if ci == self.chunks.len() {
            return self.push_back(s, e);
        }
        let c = &mut self.chunks[ci];
        c.insert(ii, (s, e));
        if c.len() > CHUNK {
            let upper = c.split_off(c.len() / 2);
            self.chunks.insert(ci + 1, upper);
        }
    }

    /// Perturbed acquire: like [`VirtualLock::acquire`], but the acquirer
    /// loses `defer` nanoseconds of the race before contending — modelling a
    /// schedule in which another processor reached the lock word first.
    /// The returned `wait` still measures from the *original* `now`, so the
    /// deferral is charged as contention, and the busy-interval bookkeeping
    /// stays identical to an acquirer that genuinely arrived late.
    pub fn acquire_deferred(
        &mut self,
        now: VirtTime,
        hold: VirtTime,
        defer: VirtTime,
    ) -> (VirtTime, VirtTime) {
        let (_, release) = self.acquire(now + defer, hold);
        // `acquire` accumulated the post-defer wait; the defer itself is
        // also contention from the true arrival's point of view.
        self.total_wait += defer;
        (release.since(now + hold), release)
    }

    /// Discards busy intervals entirely before `watermark` (they can no
    /// longer affect any acquirer arriving at or after it). Call with the
    /// minimum processor clock to bound memory: the intervals are sorted, so
    /// this pops from the front and stops at the first one still needed.
    pub fn prune(&mut self, watermark: VirtTime) {
        let w = watermark.as_ns();
        while let Some(c) = self.chunks.front_mut() {
            if c.last().expect("chunks are non-empty").1 < w {
                self.chunks.pop_front();
                continue;
            }
            let stale = c.partition_point(|&(_, e)| e < w);
            c.drain(..stale);
            break;
        }
    }

    /// When the lock next becomes free after all recorded holds.
    pub fn free_at(&self) -> VirtTime {
        VirtTime::from_ns(self.max_end)
    }

    /// (acquisitions, total contention wait, total hold time).
    pub fn counters(&self) -> (u64, VirtTime, VirtTime) {
        (self.acquisitions, self.total_wait, self.total_held)
    }

    /// Busy intervals currently held in memory.
    #[cfg(test)]
    pub(crate) fn intervals(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: u64) -> VirtTime {
        VirtTime::from_ns(v)
    }

    #[test]
    fn uncontended_acquire_has_no_wait() {
        let mut l = VirtualLock::new();
        let (wait, rel) = l.acquire(ns(100), ns(10));
        assert_eq!(wait, ns(0));
        assert_eq!(rel, ns(110));
    }

    #[test]
    fn overlapping_acquire_waits() {
        let mut l = VirtualLock::new();
        l.acquire(ns(100), ns(50)); // busy [100,150)
        let (wait, rel) = l.acquire(ns(120), ns(50));
        assert_eq!(wait, ns(30));
        assert_eq!(rel, ns(200));
        let (acq, total_wait, held) = l.counters();
        assert_eq!(acq, 2);
        assert_eq!(total_wait, ns(30));
        assert_eq!(held, ns(100));
    }

    #[test]
    fn earlier_acquirer_uses_gap_before_future_hold() {
        let mut l = VirtualLock::new();
        l.acquire(ns(1000), ns(50)); // busy [1000,1050)
                                     // A virtually-earlier acquirer fits entirely before that hold.
        let (wait, rel) = l.acquire(ns(100), ns(50));
        assert_eq!(wait, ns(0));
        assert_eq!(rel, ns(150));
    }

    #[test]
    fn gap_too_small_skips_past() {
        let mut l = VirtualLock::new();
        l.acquire(ns(100), ns(50)); // [100,150)
        l.acquire(ns(160), ns(50)); // [160,210)
                                    // Needs 50ns at t=120: [150,160) gap too small → granted at 210.
        let (wait, rel) = l.acquire(ns(120), ns(50));
        assert_eq!(wait, ns(90));
        assert_eq!(rel, ns(260));
    }

    #[test]
    fn consecutive_same_time_acquires_serialize() {
        let mut l = VirtualLock::new();
        let mut release = ns(0);
        for i in 0..10 {
            let (wait, rel) = l.acquire(ns(0), ns(7));
            assert_eq!(wait.as_ns(), 7 * i);
            release = rel;
        }
        assert_eq!(release, ns(70));
    }

    #[test]
    fn zero_hold_never_waits() {
        let mut l = VirtualLock::new();
        l.acquire(ns(0), ns(100));
        let (wait, rel) = l.acquire(ns(50), ns(0));
        assert_eq!(wait, ns(0));
        assert_eq!(rel, ns(50));
    }

    #[test]
    fn deferred_acquire_charges_the_lost_race() {
        let mut l = VirtualLock::new();
        // Uncontended but deferred by 20ns: wait is exactly the deferral.
        let (wait, rel) = l.acquire_deferred(ns(100), ns(10), ns(20));
        assert_eq!(wait, ns(20));
        assert_eq!(rel, ns(130));
        // Deferred into an existing hold: waits the deferral + the overlap.
        let (wait, rel) = l.acquire_deferred(ns(115), ns(10), ns(5));
        assert_eq!(wait, ns(15));
        assert_eq!(rel, ns(140));
        let (_, total_wait, _) = l.counters();
        assert_eq!(total_wait, ns(35));
    }

    #[test]
    fn deferred_acquire_with_zero_defer_matches_plain() {
        let mut a = VirtualLock::new();
        let mut b = VirtualLock::new();
        a.acquire(ns(50), ns(30));
        b.acquire(ns(50), ns(30));
        assert_eq!(
            a.acquire(ns(60), ns(10)),
            b.acquire_deferred(ns(60), ns(10), ns(0))
        );
    }

    #[test]
    fn prune_discards_stale_intervals() {
        let mut l = VirtualLock::new();
        for i in 0..100u64 {
            l.acquire(ns(i * 10), ns(5));
        }
        assert_eq!(l.intervals(), 100);
        l.prune(ns(500));
        // [490,495) ends before the watermark; [500,505) is the first kept.
        assert_eq!(l.intervals(), 50);
        // Still correct for future acquires.
        let (wait, _) = l.acquire(ns(2000), ns(5));
        assert_eq!(wait, ns(0));
    }

    /// `n` disjoint holds `[100i, 100i+10)`, one interval each.
    fn comb(n: u64) -> VirtualLock {
        let mut l = VirtualLock::new();
        for i in 0..n {
            l.acquire(ns(i * 100), ns(10));
        }
        l
    }

    fn flat(l: &VirtualLock) -> Vec<(u64, u64)> {
        l.chunks.iter().flatten().copied().collect()
    }

    fn assert_well_formed(l: &VirtualLock) {
        assert!(l.chunks.iter().all(|c| !c.is_empty() && c.len() <= CHUNK));
        let all = flat(l);
        assert!(all.iter().all(|&(s, e)| s < e));
        assert!(
            all.windows(2).all(|w| w[0].1 <= w[1].0),
            "sorted and disjoint"
        );
    }

    #[test]
    fn monotone_appends_fill_chunks_without_splitting() {
        let l = comb(3 * CHUNK as u64);
        assert_eq!(l.chunks.len(), 3);
        assert!(l.chunks.iter().all(|c| c.len() == CHUNK));
        assert_well_formed(&l);
    }

    #[test]
    fn gap_insert_into_a_full_chunk_splits_it() {
        let mut l = comb(2 * CHUNK as u64);
        // Lands between the first chunk's holds 10 and 11.
        let (wait, rel) = l.acquire(ns(1050), ns(10));
        assert_eq!((wait, rel), (ns(0), ns(1060)));
        assert_eq!(l.chunks.len(), 3);
        assert_eq!(l.intervals(), 2 * CHUNK + 1);
        assert_well_formed(&l);
        assert_eq!(flat(&l)[11], (1050, 1060));
        // The split halves still answer searches on either side of the cut.
        assert_eq!(l.acquire(ns(1055), ns(10)), (ns(5), ns(1070)));
        assert_eq!(l.acquire(ns(5005), ns(10)), (ns(5), ns(5020)));
        assert_well_formed(&l);
    }

    #[test]
    fn prune_drops_whole_chunks_then_drains_into_one() {
        let mut l = comb(3 * CHUNK as u64);
        // Watermark inside the second chunk: hold 70 ends at 7010.
        l.prune(ns(7011));
        assert_eq!(l.chunks.len(), 2);
        assert_eq!(l.intervals(), 3 * CHUNK - 71);
        assert_eq!(flat(&l)[0], (7100, 7110));
        assert_well_formed(&l);
        // An interval ending exactly at the watermark is kept.
        l.prune(ns(7110));
        assert_eq!(flat(&l)[0], (7100, 7110));
        // Arrivals at the watermark still see the surviving history.
        assert_eq!(l.acquire(ns(7105), ns(10)), (ns(5), ns(7120)));
    }

    #[test]
    fn coalesces_with_a_predecessor_in_the_previous_chunk() {
        let mut l = comb(2 * CHUNK as u64);
        let before = l.intervals();
        // Granted at 6310, exactly where the first chunk's last hold ends:
        // the position is the head of the second chunk, the predecessor the
        // tail of the first.
        let at = (CHUNK as u64 - 1) * 100 + 10;
        assert_eq!(l.acquire(ns(at), ns(10)), (ns(0), ns(at + 10)));
        assert_eq!(l.intervals(), before);
        assert_eq!(l.chunks[0].last(), Some(&(at - 10, at + 10)));
        // And an arrival inside the widened hold waits for its new end.
        assert_eq!(l.acquire(ns(at + 5), ns(10)), (ns(5), ns(at + 20)));
        assert_well_formed(&l);
    }

    #[test]
    fn free_at_survives_a_full_prune() {
        let mut l = comb(100);
        assert_eq!(l.free_at(), ns(9910));
        l.prune(ns(1_000_000));
        assert_eq!(l.intervals(), 0);
        assert_eq!(l.free_at(), ns(9910));
        // An arrival behind the pruned history finds nothing to wait for.
        assert_eq!(l.acquire(ns(9000), ns(10)), (ns(0), ns(9010)));
        assert_eq!(l.free_at(), ns(9910));
        assert_eq!(l.acquire(ns(9_950), ns(10)), (ns(0), ns(9_960)));
        assert_eq!(l.free_at(), ns(9960));
    }
}
