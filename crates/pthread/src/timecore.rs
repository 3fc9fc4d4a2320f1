//! The time core: *when* each virtual processor steps.
//!
//! The engine ([`crate::runtime`]) owns *what* happens — the thread
//! lifecycle, dispatch, the fiber resume. This module owns *when*: which
//! processor takes the next round, how far a running fiber may get ahead of
//! the rest of the machine, where an idle processor advances to or whether
//! it parks, and which timed waits are due. It reads the processor clocks
//! and the per-processor deadline heaps of [`Machine`] and asks the run's
//! [`Resolver`] at the processor tie-breaks.
//!
//! It knows nothing of threads. A deadline is the opaque `u64` token it was
//! armed with; whether that entry is still live — its waiter still blocked in
//! that same wait — is a predicate the engine passes in, and firing a due
//! deadline (waking its waiter) is the engine's job.

use ptdf_smp::{Machine, ProcId, VirtTime};

use crate::oracle::{DecisionKind, Resolver};

/// Virtual-time quantum after which a fiber that has run ahead of every
/// other active processor pauses (a cost-free `Timeslice` yield) so that
/// virtually-concurrent segments interleave.
const TIMESLICE: VirtTime = VirtTime::from_us(200);

/// A due deadline: the token it was armed with, its processor, and its time.
pub(crate) type Due = (u64, ProcId, VirtTime);

/// The processors' scheduling state beside their clocks: who is parked,
/// the running fiber's timeslice reference, and the scratch list of due
/// deadlines.
pub(crate) struct TimeCore {
    /// Processors that found nothing to run and no deadline to idle to;
    /// woken on publish ([`TimeCore::unpark`]).
    parked: Vec<bool>,
    /// How many entries of `parked` are set, so that an unpark with nobody
    /// parked is a load instead of a scan.
    parked_count: usize,
    /// Cached timeslice reference: the minimum clock among non-parked
    /// processors *other than* the one running the current fiber (`None`
    /// when there is no other active processor). While one fiber runs a
    /// quantum of `work`/`touch` calls, no other processor's clock or parked
    /// state can change except through an unpark — the round (which sets it
    /// from its one [`RoundScan`]) and [`TimeCore::unpark`] are the only
    /// writers, so every timeslice check is bit-identical to a full scan.
    ts_min_other: Option<VirtTime>,
    /// [`TimeCore::take_due`]'s list, kept between rounds so that a firing
    /// allocates nothing.
    due: Vec<Due>,
    /// What the rounds of this run did about deadlines, for the tests.
    #[cfg(test)]
    pub stats: RoundStats,
}

/// Test-only observation of the rounds' deadline work.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RoundStats {
    /// Full (non-solo) scheduling rounds.
    pub rounds: u64,
    /// [`TimeCore::take_due`] calls that got past the nothing-can-be-due
    /// check and walked the deadline heaps.
    pub heap_walks: u64,
}

impl TimeCore {
    pub fn new(processors: usize) -> Self {
        TimeCore {
            parked: vec![false; processors],
            parked_count: 0,
            ts_min_other: None,
            due: Vec::new(),
            #[cfg(test)]
            stats: RoundStats::default(),
        }
    }

    /// The round's one pass over the processors.
    #[inline]
    pub fn scan(&self, m: &Machine) -> RoundScan {
        RoundScan::of(&self.parked, |q| m.clock(q))
    }

    fn set_parked(&mut self, q: ProcId, parked: bool) {
        debug_assert_ne!(self.parked[q], parked);
        self.parked[q] = parked;
        if parked {
            self.parked_count += 1;
        } else {
            self.parked_count -= 1;
        }
    }

    /// Wakes one parked processor for an event published at time `at`
    /// (wake-one semantics, like an OS run queue: each published entry wakes
    /// one waiter; waking everyone would model a thundering herd on the
    /// scheduler lock that real schedulers avoid): the one with the smallest
    /// clock, idled forward to `at`. `running` is the processor of the fiber
    /// running now, if any, whose timeslice reference must see the revived
    /// processor.
    #[inline]
    pub fn unpark(
        &mut self,
        m: &mut Machine,
        schedule: &mut Resolver,
        at: VirtTime,
        running: Option<ProcId>,
    ) {
        if self.parked_count == 0 {
            return;
        }
        let victim = (0..self.parked.len())
            .filter(|&q| self.parked[q])
            .min_by_key(|&q| m.clock(q))
            .expect("parked_count counts the set entries of parked");
        let q = self.tie_break(m, schedule, victim, DecisionKind::UnparkTie, true);
        self.set_parked(q, false);
        m.idle_until(q, at);
        self.ts_min_other = running.and_then(|p| self.scan(m).min_other(p));
    }

    /// The dispatch tie-break of a full round: which of the non-parked
    /// processors tied at the minimum clock with `best` (the lowest index)
    /// takes it. Under perturbation or a script this is the main source of
    /// genuinely different (but still causally valid) interleavings.
    #[inline]
    pub fn dispatch_tie(&mut self, m: &Machine, schedule: &mut Resolver, best: ProcId) -> ProcId {
        #[cfg(test)]
        {
            self.stats.rounds += 1;
        }
        self.tie_break(m, schedule, best, DecisionKind::DispatchTie, false)
    }

    /// Resolves a processor tie-break decision point: the processors whose
    /// parked flag is `parked` tied with `best` at its clock value. A
    /// natural schedule keeps `best` (lowest index) without gathering the
    /// ties. Single-candidate points are never decisions.
    fn tie_break(
        &self,
        m: &Machine,
        schedule: &mut Resolver,
        best: ProcId,
        kind: DecisionKind,
        parked: bool,
    ) -> ProcId {
        if schedule.is_natural() {
            return best;
        }
        let t = m.clock(best);
        let ties: Vec<u32> = (0..self.parked.len())
            .filter(|&q| self.parked[q] == parked && m.clock(q) == t)
            .map(|q| q as u32)
            .collect();
        if ties.len() <= 1 {
            return best;
        }
        // `ties` is ascending, so index 0 is `best`: the natural choice.
        debug_assert_eq!(ties[0], best as u32);
        ties[schedule.pick(kind, t, ties.len(), None, &ties)] as ProcId
    }

    /// Sets the timeslice reference for the fiber about to run: its
    /// processor's causal horizon from the round's scan.
    #[inline]
    pub fn set_horizon(&mut self, horizon: Option<VirtTime>) {
        self.ts_min_other = horizon;
    }

    /// Whether the fiber running on `p` has outrun the rest of the machine
    /// by more than [`TIMESLICE`], against the cached reference clock.
    #[inline]
    pub fn timeslice_due(&self, m: &Machine, p: ProcId) -> bool {
        self.ts_min_other
            .is_some_and(|min| m.clock(p).since(min) > TIMESLICE)
    }

    /// Earliest live deadline on *any* processor's heap, and that processor
    /// (the lowest index on a tie). Parked processors' heaps count: their
    /// entries fire once the active processors' clocks pass them.
    fn next_live_deadline(
        &self,
        m: &mut Machine,
        live: impl Fn(u64, VirtTime) -> bool,
    ) -> Option<(VirtTime, ProcId)> {
        if !m.has_deadlines() {
            return None;
        }
        // With no floor the walk gathers nothing into its (unallocated) list.
        (0..self.parked.len())
            .filter_map(|q| walk(m, q, None, &mut Vec::new(), &live).map(|d| (d, q)))
            .min()
    }

    /// The one idle step, for processor `p` with no thread to run: idles
    /// `p` to the earlier of `next_ready` (the time the next ready entry is
    /// published, if there is one) and the nearest *decidable* live
    /// deadline — one no later than `p`'s causal horizon `horizon`, so that
    /// a wake another processor may still publish from virtually behind it
    /// still wins the race. With only an undecidable deadline armed, `p`
    /// idles to the horizon instead, where nothing is decided yet. With no
    /// target at all `p` parks: either a publication revives it, or
    /// everyone ends up parked.
    ///
    /// `p` is `None` when every processor is parked. Then no wake can ever
    /// materialize, so the processor holding the earliest live deadline
    /// steps to it, with no horizon; with no live deadline the run is
    /// stalled.
    ///
    /// Returns the floor at which to fire due deadlines — `p`'s clock capped
    /// by its horizon, or the deadline itself when `p` idled to one with
    /// nobody else active — or `None` when there is nothing to fire: `p`
    /// idled to its horizon or parked, or the run stalled.
    pub fn idle(
        &mut self,
        m: &mut Machine,
        p: Option<ProcId>,
        horizon: Option<VirtTime>,
        next_ready: Option<VirtTime>,
        live: impl Fn(u64, VirtTime) -> bool,
    ) -> Option<VirtTime> {
        let deadline = self.next_live_deadline(m, live);
        let p = match p {
            Some(p) => p,
            None => {
                let (_, q) = deadline?;
                self.set_parked(q, false);
                q
            }
        };
        let d = deadline.map(|(d, _)| d);
        let decidable = d.filter(|&d| horizon.is_none_or(|h| d <= h));
        let target = next_ready.into_iter().chain(decidable).min();
        let Some(target) = target else {
            match horizon.filter(|&h| d.is_some() && h > m.clock(p)) {
                Some(h) => m.idle_until(p, h),
                None => self.set_parked(p, true),
            }
            return None;
        };
        m.idle_until(p, target);
        let me = m.clock(p);
        let cap = horizon.or(next_ready.is_none().then_some(target));
        Some(cap.map_or(me, |c| me.min(c)))
    }

    /// Gathers every live deadline — on any processor's heap — due at or
    /// before `floor`: the latest virtual time up to which the
    /// wake-vs-timeout race is already decided, i.e. the minimum clock over
    /// the non-parked processors. Every future wake is timestamped at its
    /// publisher's (monotone) clock, so no wake earlier than the floor can
    /// appear. Firing is deferred, never early: a deadline beyond the floor
    /// stays armed so a slower processor can still win the race with a
    /// virtually-earlier wake. The list comes back in firing order, itself
    /// a decision point; hand it back with [`TimeCore::recycle_due`].
    ///
    /// With no deadline armed, or none that `floor` has reached, that is one
    /// load and a compare, and `None`: the machine's bound says no heap holds
    /// an entry at or before `floor`. Nor is anything discarded then: a stale
    /// entry stays at the top of its heap until the floor reaches it, which
    /// keeps [`Machine::has_deadlines`] true for longer and so only keeps the
    /// engine off its serial fast path.
    #[inline]
    pub fn take_due(
        &mut self,
        m: &mut Machine,
        schedule: &mut Resolver,
        floor: VirtTime,
        live: impl Fn(u64, VirtTime) -> bool,
    ) -> Option<Vec<Due>> {
        if floor < m.deadline_bound() {
            return None;
        }
        #[cfg(test)]
        {
            self.stats.heap_walks += 1;
        }
        let mut due = std::mem::take(&mut self.due);
        for q in 0..self.parked.len() {
            walk(m, q, Some(floor), &mut due, &live);
        }
        m.tighten_deadline_bound();
        schedule.order(DecisionKind::TimeoutOrder, None, &mut due, |d| d.2);
        Some(due)
    }

    /// Takes back [`TimeCore::take_due`]'s list, emptied, for the next round.
    pub fn recycle_due(&mut self, mut due: Vec<Due>) {
        due.clear();
        self.due = due;
    }
}

/// The one walk over `q`'s deadline heap: discards stale entries from its
/// top and, while the top is live and at or before `floor`, moves it to
/// `due`. Returns the earliest live deadline left on the heap.
fn walk(
    m: &mut Machine,
    q: ProcId,
    floor: Option<VirtTime>,
    due: &mut Vec<Due>,
    live: &impl Fn(u64, VirtTime) -> bool,
) -> Option<VirtTime> {
    while let Some((at, token)) = m.peek_deadline(q) {
        if live(token, at) {
            if floor.is_none_or(|f| at > f) {
                return Some(at);
            }
            due.push((token, q, at));
        }
        m.pop_deadline(q);
    }
    None
}

/// What one pass over the processors tells a scheduling round: who runs
/// next, how far the timeout race is decided, and how far anyone may run
/// ahead. Computed once per round ([`TimeCore::scan`]); every per-round
/// question about processor clocks is answered from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RoundScan {
    /// The non-parked processor with the smallest clock (lowest index on
    /// ties) and that clock — the minimum over the non-parked processors,
    /// which is also the floor up to which the wake-vs-timeout race is
    /// decided (see [`TimeCore::take_due`]). `None` when every processor
    /// is parked.
    pub lead: Option<(ProcId, VirtTime)>,
    /// The minimum over the non-parked processors other than the lead
    /// (equal to its clock on a tie); `None` when there is no other.
    second: Option<VirtTime>,
}

impl RoundScan {
    fn of(parked: &[bool], clock: impl Fn(ProcId) -> VirtTime) -> Self {
        let mut scan = RoundScan {
            lead: None,
            second: None,
        };
        for q in (0..parked.len()).filter(|&q| !parked[q]) {
            let c = clock(q);
            match scan.lead {
                Some((_, min)) if c >= min => {
                    if scan.second.is_none_or(|s| c < s) {
                        scan.second = Some(c);
                    }
                }
                lead => {
                    scan.second = lead.map(|(_, min)| min);
                    scan.lead = Some((q, c));
                }
            }
        }
        scan
    }

    /// Minimum clock among the non-parked processors *other than* `p` — its
    /// causal horizon: the earliest virtual time at which anyone else could
    /// still publish a wake, and the reference a fiber running on `p` is
    /// timesliced against. `None` when `p` is the only active processor
    /// (then nobody can, and `p` may advance freely). Parked processors are
    /// excluded because [`TimeCore::unpark`] idles them forward to the
    /// publication that revives them: they can never act before an active
    /// processor's present.
    ///
    /// Stays valid while only `p`'s own clock advances (dispatch costs,
    /// idling): the answer never involves it.
    pub fn min_other(&self, p: ProcId) -> Option<VirtTime> {
        match self.lead {
            Some((q, _)) if q == p => self.second,
            lead => lead.map(|(_, min)| min),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{Schedule, ScheduleOracle};
    use ptdf_smp::{CostModel, Prng};

    fn machine(p: usize) -> Machine {
        Machine::new(p, CostModel::ultrasparc_167(), 1024 * 1024)
    }

    fn us(n: u64) -> VirtTime {
        VirtTime::from_us(n)
    }

    /// Every deadline is live.
    fn all_live(_: u64, _: VirtTime) -> bool {
        true
    }

    #[test]
    fn a_deadline_past_the_floor_stays_armed() {
        let (mut m, mut core) = (machine(2), TimeCore::new(2));
        let mut r = Resolver::new(&Schedule::Natural, false);
        m.arm_deadline(0, us(10), 8);
        m.arm_deadline(1, us(100), 7);
        let due = core.take_due(&mut m, &mut r, us(50), all_live);
        assert_eq!(due.as_deref(), Some(&[(8, 0, us(10))][..]));
        core.recycle_due(due.unwrap());
        assert_eq!(m.peek_deadline(1), Some((us(100), 7)));
        assert_eq!(
            core.next_live_deadline(&mut m, all_live),
            Some((us(100), 1))
        );
        // The walk raised the bound to the entry left: the floor has not
        // reached it, so the next gathering does not walk at all.
        assert!(core.take_due(&mut m, &mut r, us(99), all_live).is_none());
        assert_eq!(core.stats.heap_walks, 1);
    }

    #[test]
    fn the_one_walk_discards_a_stale_entry() {
        let (mut m, mut core) = (machine(1), TimeCore::new(1));
        let mut r = Resolver::new(&Schedule::Natural, false);
        m.arm_deadline(0, us(10), 1);
        m.arm_deadline(0, us(20), 2);
        let live = |token, _| token != 1;
        assert_eq!(core.next_live_deadline(&mut m, live), Some((us(20), 0)));
        assert_eq!(
            m.peek_deadline(0),
            Some((us(20), 2)),
            "the stale entry is gone"
        );
        m.arm_deadline(0, us(15), 1);
        let due = core.take_due(&mut m, &mut r, us(30), live).unwrap();
        assert_eq!(due, vec![(2, 0, us(20))]);
        assert!(!m.has_deadlines());
    }

    #[test]
    fn with_every_processor_parked_the_earliest_live_deadline_steps_and_fires() {
        let (mut m, mut core) = (machine(3), TimeCore::new(3));
        let mut r = Resolver::new(&Schedule::Natural, false);
        m.arm_deadline(1, us(50), 1);
        m.arm_deadline(2, us(30), 2);
        m.arm_deadline(0, us(20), 3);
        for q in 0..3 {
            core.set_parked(q, true);
        }
        assert!(core.scan(&m).lead.is_none());
        let live = |token, _| token != 3;
        let floor = core.idle(&mut m, None, None, None, live);
        assert_eq!(floor, Some(us(30)));
        assert_eq!(core.scan(&m).lead, Some((2, us(30))), "processor 2 stepped");
        assert_eq!(m.clock(0), VirtTime::ZERO);
        let due = core.take_due(&mut m, &mut r, us(30), live).unwrap();
        assert_eq!(due, vec![(2, 2, us(30))]);
        core.recycle_due(due);
        // Everyone parked again and nothing live armed: stalled, and
        // nothing moves.
        core.set_parked(2, true);
        assert_eq!(core.idle(&mut m, None, None, None, |_, _| false), None);
        assert!(core.scan(&m).lead.is_none());
    }

    #[test]
    fn unpark_revives_the_smallest_clock_and_refreshes_the_horizon() {
        let (mut m, mut core) = (machine(3), TimeCore::new(3));
        let mut r = Resolver::new(&Schedule::Natural, false);
        m.idle_until(1, us(100));
        m.idle_until(2, us(50));
        core.set_parked(1, true);
        core.set_parked(2, true);
        // Processor 0 runs alone: nobody to be timesliced against.
        core.set_horizon(core.scan(&m).min_other(0));
        m.idle_until(0, us(300));
        assert!(!core.timeslice_due(&m, 0));
        core.unpark(&mut m, &mut r, us(60), Some(0));
        assert_eq!(core.parked, vec![false, true, false]);
        assert_eq!(m.clock(2), us(60));
        assert!(
            core.timeslice_due(&m, 0),
            "300 µs is over a slice ahead of 60"
        );
        assert_eq!(core.scan(&m).min_other(0), Some(us(60)));
    }

    #[test]
    fn a_scripted_resolver_breaks_a_dispatch_tie_away_from_index_0() {
        let (m, mut core) = (machine(3), TimeCore::new(3));
        let mut natural = Resolver::new(&Schedule::Natural, false);
        assert_eq!(core.dispatch_tie(&m, &mut natural, 0), 0);
        let oracle = ScheduleOracle::scripted(vec![1, 1]).shared();
        let mut r = Resolver::new(&Schedule::Scripted(oracle.clone()), false);
        assert_eq!(core.dispatch_tie(&m, &mut r, 0), 1);
        // A parked processor is no candidate: the ties are 0 and 2.
        core.set_parked(1, true);
        assert_eq!(core.dispatch_tie(&m, &mut r, 0), 2);
        let log = oracle.borrow().decisions();
        assert_eq!(
            log.iter().map(|d| (d.kind, d.n)).collect::<Vec<_>>(),
            [
                (DecisionKind::DispatchTie, 3),
                (DecisionKind::DispatchTie, 2)
            ]
        );
        assert_eq!(core.stats.rounds, 3);
    }

    #[test]
    fn round_scan_matches_the_per_question_scans() {
        let mut prng = Prng::new(12);
        for case in 0..20_000 {
            let p = 1 + prng.below(8) as usize;
            // Few distinct clock values, so ties are the common case; every
            // tenth case parks everybody.
            let clocks: Vec<VirtTime> = (0..p)
                .map(|_| VirtTime::from_ns(prng.below(4) * 100))
                .collect();
            let parked: Vec<bool> = (0..p)
                .map(|_| case % 10 == 0 || prng.chance(1, 3))
                .collect();
            let active = || (0..p).filter(|&q| !parked[q]);
            let scan = RoundScan::of(&parked, |q| clocks[q]);

            // `pick_proc`: first minimum-clock non-parked processor.
            let pick = active().min_by_key(|&q| clocks[q]);
            assert_eq!(
                scan.lead,
                pick.map(|b| (b, clocks[b])),
                "clocks {clocks:?} parked {parked:?}"
            );
            // The serial fast path's "exactly one unparked processor".
            let solo = pick.is_some_and(|b| scan.min_other(b).is_none());
            assert_eq!(solo, active().count() == 1);
            for q in 0..p {
                // `causal_horizon(q)` / `refresh_ts_min_other` with `cur` on q.
                let horizon = active().filter(|&r| r != q).map(|r| clocks[r]).min();
                assert_eq!(
                    scan.min_other(q),
                    horizon,
                    "q {q} clocks {clocks:?} parked {parked:?}"
                );
                // `wake_floor(q)`, for the processor a round can pick: one
                // holding the minimum clock (any of the tied ones).
                if !parked[q] && Some(clocks[q]) == pick.map(|b| clocks[b]) {
                    let floor = horizon.map_or(clocks[q], |h| clocks[q].min(h));
                    assert_eq!(scan.lead.map(|(_, min)| min), Some(floor));
                }
            }
        }
    }
}
