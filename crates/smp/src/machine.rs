//! The virtual machine: P processors with clocks plus the shared memory
//! system, the stack pool, the locality caches and the scheduler lock.

use crate::cache::CacheModel;
use crate::cost::CostModel;
use crate::heap::{HeapModel, StackPool};
use crate::perturb::Prng;
use crate::record::{MachineRecording, MemEventKind, Recorder};
use crate::stats::{Bucket, HostPhaseStats, HostProf, MemStats, PhaseStat, ProcStats, ProfWin, RunStats};
use crate::time::VirtTime;
use crate::vlock::VirtualLock;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Index of a virtual processor.
pub type ProcId = usize;

#[derive(Debug, Clone, Default)]
struct Proc {
    clock: VirtTime,
    stats: ProcStats,
}

/// A `p`-processor virtual SMP.
///
/// The threads runtime drives this object: it advances processor clocks via
/// [`Machine::charge`], performs modelled memory operations, and reads the
/// final statistics with [`Machine::finish`]. The `Machine` itself has no
/// scheduling policy — that lives in the runtime.
#[derive(Debug)]
pub struct Machine {
    procs: Vec<Proc>,
    cost: CostModel,
    heap: HeapModel,
    stacks: StackPool,
    caches: Vec<CacheModel>,
    sched_lock: VirtualLock,
    /// Serializes kernel-side memory operations (fresh page commits, fresh
    /// stack reservations) across processors, modelling the VM-system
    /// bottleneck behind the paper's Figure 6: processors of an
    /// allocation-heavy schedule queue up in the kernel.
    mem_lock: VirtualLock,
    // thread accounting
    live_threads: u64,
    live_threads_hwm: u64,
    threads_created: u64,
    dummy_threads: u64,
    prune_tick: u64,
    /// Frees that underflowed the live byte count (double frees).
    free_underflows: u64,
    /// Armed space bound in bytes (see [`Machine::arm_space_bound`]).
    space_bound: Option<u64>,
    /// Footprint growths observed above the armed bound.
    bound_violations: u64,
    /// Flight recording, when enabled (see [`Machine::enable_recording`]).
    recorder: Option<Box<Recorder>>,
    /// Schedule perturbation, when enabled (see
    /// [`Machine::enable_perturbation`]).
    perturb: Option<Prng>,
    /// Host-side phase profiler, when enabled (see
    /// [`Machine::enable_host_profile`]). Mirrors the recorder's gating:
    /// every hook is one `Option` discriminant test when off. The driving
    /// runtime shares this profiler (via [`Machine::prof_open`] /
    /// [`Machine::prof_close`]) so nested machine/runtime windows stay
    /// disjoint.
    host_prof: Option<Box<HostProf>>,
    /// The pending charge transaction: deferred clock advances for one
    /// processor, coalesced between flush points. `charge_deferred`
    /// accumulates here; every observation point (immediate charge, lock,
    /// memory op, deadline arm, dispatch, finish) flushes first, and
    /// [`Machine::clock`] adds the pending total for the pending processor,
    /// so every observable value is bit-identical to unbatched charging.
    pending_proc: ProcId,
    /// Total pending nanoseconds (zero means no transaction open).
    pending_total: u64,
    /// Pending nanoseconds split by [`Bucket`] index.
    pending_bucket: [u64; Bucket::COUNT],
    /// Per-processor deadline heaps for timed waits: `(fire time, token)`
    /// min-heaps. The machine only stores and orders deadlines; arming,
    /// firing and staleness policy all live in the driving runtime (tokens
    /// are opaque here). Deadline bookkeeping is free in virtual time — it
    /// never charges a clock and never records an event.
    deadlines: Vec<BinaryHeap<Reverse<(VirtTime, u64)>>>,
    /// Entries across all of `deadlines`, so "is any deadline armed" is a
    /// load instead of a scan of the heaps.
    deadline_entries: usize,
    /// No entry of `deadlines` fires before this: lowered by every arm,
    /// raised only by [`Machine::tighten_deadline_bound`]. Pops leave it
    /// alone, which keeps it a bound, merely a loose one.
    deadline_bound: VirtTime,
}

/// The bound with no deadline armed: later than any clock.
const NO_DEADLINE: VirtTime = VirtTime::from_ns(u64::MAX);

/// Maximum extra nanoseconds the perturbation mode injects at one
/// sync-operation boundary. Small relative to every modelled cost, so the
/// jitter reorders virtually-concurrent operations without distorting the
/// run's aggregate timing.
const SYNC_JITTER_NS: u64 = 96;

/// Maximum nanoseconds a perturbed scheduler-lock acquirer loses before
/// contending (modelling another processor reaching the lock word first).
const LOCK_DEFER_NS: u64 = 48;

/// Lock acquisitions (scheduler and VM lock together) between two prunes of
/// the virtual locks' busy intervals.
const PRUNE_EVERY: u64 = 64;

impl Machine {
    /// Creates a machine with `p` processors, the given cost model, and a
    /// stack pool caching stacks of `default_stack` bytes.
    pub fn new(p: usize, cost: CostModel, default_stack: u64) -> Self {
        assert!(p >= 1, "need at least one processor");
        Machine {
            procs: vec![Proc::default(); p],
            caches: (0..p)
                .map(|_| CacheModel::new(cost.cache.capacity_bytes))
                .collect(),
            cost,
            heap: HeapModel::new(),
            stacks: StackPool::new(default_stack),
            sched_lock: VirtualLock::new(),
            mem_lock: VirtualLock::new(),
            live_threads: 0,
            live_threads_hwm: 0,
            threads_created: 0,
            dummy_threads: 0,
            prune_tick: 0,
            free_underflows: 0,
            space_bound: None,
            bound_violations: 0,
            recorder: None,
            perturb: None,
            host_prof: None,
            pending_proc: 0,
            pending_total: 0,
            pending_bucket: [0; Bucket::COUNT],
            deadlines: (0..p).map(|_| BinaryHeap::new()).collect(),
            deadline_entries: 0,
            deadline_bound: NO_DEADLINE,
        }
    }

    /// Applies the pending charge transaction, if one is open. One branch
    /// when nothing is pending — every observation point starts here.
    #[inline]
    fn settle(&mut self) {
        if self.pending_total != 0 {
            self.flush_pending();
        }
    }

    fn flush_pending(&mut self) {
        let win = self.prof_open();
        let p = self.pending_proc;
        self.procs[p].clock += VirtTime::from_ns(self.pending_total);
        for i in 0..Bucket::COUNT {
            let ns = self.pending_bucket[i];
            if ns != 0 {
                self.procs[p]
                    .stats
                    .breakdown
                    .add(Bucket::from_index(i), VirtTime::from_ns(ns));
            }
        }
        self.pending_total = 0;
        self.pending_bucket = [0; Bucket::COUNT];
        self.prof_close(win, |hp| &mut hp.charge);
    }

    /// Flushes any pending deferred charges. Public for the driving runtime's
    /// explicit flush points (yields, dispatch boundaries).
    #[inline]
    pub fn flush(&mut self) {
        self.settle();
    }

    /// Defers a clock charge on `p` into the pending transaction. Only safe
    /// for charge points that observe nothing (no clock reads, no recorder
    /// events, no lock traffic): application compute and cache-miss stalls.
    /// A deferred charge for a different processor than the open transaction
    /// flushes the transaction first.
    #[inline]
    pub fn charge_deferred(&mut self, p: ProcId, bucket: Bucket, dur: VirtTime) {
        if self.pending_total != 0 && self.pending_proc != p {
            self.flush_pending();
        }
        self.pending_proc = p;
        self.pending_total += dur.as_ns();
        self.pending_bucket[bucket.index()] += dur.as_ns();
    }

    /// Deferred-batching variant of [`Machine::compute`].
    #[inline]
    pub fn compute_deferred(&mut self, p: ProcId, cycles: u64) {
        let dur = self.cost.cycles(cycles);
        self.charge_deferred(p, Bucket::Compute, dur);
    }

    /// Deferred-batching variant of [`Machine::touch`]: the cache probe is
    /// immediate (the locality model is charge-order independent), only the
    /// miss stall is deferred.
    #[inline]
    pub fn touch_deferred(&mut self, p: ProcId, region: u64, bytes: u64) {
        let missed = self.caches[p].touch(region, bytes);
        if missed > 0 {
            let cost = self.cost.cache_miss(missed);
            self.charge_deferred(p, Bucket::CacheMiss, cost);
        }
    }

    /// Opens a host-phase profiling window (shared with the driving runtime;
    /// `None` when profiling is off).
    #[inline]
    pub fn prof_open(&self) -> Option<ProfWin> {
        self.host_prof.as_deref().map(|hp| hp.open())
    }

    /// Closes a window from [`Machine::prof_open`], attributing its
    /// self-time to `phase`.
    #[inline]
    pub fn prof_close(
        &mut self,
        win: Option<ProfWin>,
        phase: fn(&mut HostPhaseStats) -> &mut PhaseStat,
    ) {
        if let Some(win) = win {
            self.host_prof
                .as_deref_mut()
                .expect("window implies armed profiler")
                .close(win, phase);
        }
    }

    /// Arms a timed-wait deadline on processor `p`: `token` (an opaque
    /// runtime identifier, typically a thread id) becomes due once `p`'s
    /// clock reaches `at`. Costs nothing in virtual time.
    pub fn arm_deadline(&mut self, p: ProcId, at: VirtTime, token: u64) {
        self.settle();
        let win = self.prof_open();
        self.deadlines[p].push(Reverse((at, token)));
        self.deadline_entries += 1;
        self.deadline_bound = self.deadline_bound.min(at);
        self.prof_close(win, |hp| &mut hp.heap_push);
    }

    /// The earliest armed deadline on processor `p`, if any. Entries are
    /// returned in `(fire time, token)` order; stale entries (whose wait was
    /// satisfied before the deadline) are the runtime's job to recognize and
    /// [`pop_deadline`](Machine::pop_deadline) away.
    pub fn peek_deadline(&self, p: ProcId) -> Option<(VirtTime, u64)> {
        self.deadlines[p].peek().map(|Reverse(e)| *e)
    }

    /// Removes and returns the earliest armed deadline on processor `p`.
    pub fn pop_deadline(&mut self, p: ProcId) -> Option<(VirtTime, u64)> {
        let win = self.prof_open();
        let out = self.deadlines[p].pop().map(|Reverse(e)| e);
        self.deadline_entries -= usize::from(out.is_some());
        self.prof_close(win, |hp| &mut hp.heap_pop);
        out
    }

    /// Whether any processor has an armed deadline outstanding (stale
    /// entries included, until the runtime pops them).
    #[inline]
    pub fn has_deadlines(&self) -> bool {
        self.deadline_entries != 0
    }

    /// A time before which no armed deadline, on any processor, is due: a
    /// runtime whose firing floor lies before it has nothing to look at in
    /// the heaps. Later than every clock when nothing has been armed.
    #[inline]
    pub fn deadline_bound(&self) -> VirtTime {
        self.deadline_bound
    }

    /// Raises [`Machine::deadline_bound`] to the earliest entry now at the
    /// top of any heap; for the runtime to call once it has popped what it
    /// wanted off the tops.
    pub fn tighten_deadline_bound(&mut self) {
        self.deadline_bound = self
            .deadlines
            .iter()
            .filter_map(|heap| heap.peek().map(|Reverse((at, _))| *at))
            .min()
            .unwrap_or(NO_DEADLINE);
    }

    /// Arms the space-bound enforcer: every footprint growth is checked
    /// against `limit_bytes` (typically `S1 + c·p·D`, with S1 measured by a
    /// serial run and D by the DAG crosscheck). Growths above the bound are
    /// counted into [`MemStats::bound_violations`]; the *crossing* growth
    /// additionally records a [`MemEventKind::BoundViolation`] event when
    /// recording is on (the footprint never shrinks, so one event marks the
    /// whole excursion). Enforcement never alters the accounting itself —
    /// footprint metrics stay bit-identical to an unarmed run.
    pub fn arm_space_bound(&mut self, limit_bytes: u64) {
        self.space_bound = Some(limit_bytes);
    }

    /// The armed space bound, if any.
    pub fn space_bound(&self) -> Option<u64> {
        self.space_bound
    }

    /// Checks the current footprint against the armed bound after a growth
    /// on processor `p`. Called from every path that can grow the footprint.
    fn check_space_bound(&mut self, p: ProcId) {
        let Some(bound) = self.space_bound else { return };
        let footprint = self.heap.footprint();
        if footprint <= bound {
            return;
        }
        let crossing = self.bound_violations == 0;
        self.bound_violations += 1;
        if crossing {
            if let Some(r) = self.recorder.as_deref_mut() {
                r.event(
                    self.procs[p].clock,
                    p,
                    MemEventKind::BoundViolation { footprint, bound },
                );
            }
        }
    }

    /// Enables the seeded schedule-perturbation mode: sync-operation
    /// boundaries gain a small deterministic clock jitter and scheduler-lock
    /// acquisitions may lose a modelled race, both driven by a [`Prng`]
    /// seeded from `seed`. The perturbed timeline is still fully
    /// deterministic: the same `(cost model, seed)` pair replays the exact
    /// same schedule.
    pub fn enable_perturbation(&mut self, seed: u64) {
        self.perturb = Some(Prng::new(seed ^ 0xA5A5_0000_5A5A_FFFF));
    }

    /// Starts flight recording: memory-system events (allocs/frees of at
    /// least `alloc_event_threshold` bytes, stack reserve/release) and
    /// counter samples at every footprint / live-thread / lock-wait change.
    /// The counter tracks are exact: their maxima equal the corresponding
    /// [`MemStats`] high-water marks.
    pub fn enable_recording(&mut self, alloc_event_threshold: u64) {
        self.recorder = Some(Box::new(Recorder::new(
            alloc_event_threshold,
            self.heap.footprint(),
            self.live_threads,
        )));
    }

    /// Stops recording and returns everything recorded so far, or `None`
    /// when recording was never enabled.
    pub fn take_recording(&mut self) -> Option<MachineRecording> {
        self.recorder.take().map(|r| r.rec)
    }

    /// Arms the host-side phase profiler: monotonic counters and host
    /// (real-time) nanosecond timers around the machine's engine phases —
    /// deadline-heap push/pop, clock charge points, and scheduler-lock
    /// holds. Off by default; when off every hook costs one `Option`
    /// discriminant test, keeping the dispatch hot path unchanged.
    pub fn enable_host_profile(&mut self) {
        self.host_prof = Some(Box::new(HostProf::armed()));
    }

    /// Whether the host-phase profiler is armed.
    pub fn host_profiled(&self) -> bool {
        self.host_prof.is_some()
    }

    /// Number of processors.
    pub fn processors(&self) -> usize {
        self.procs.len()
    }

    /// The cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Current clock of processor `p`, pending deferred charges included —
    /// readers always see the value an unbatched engine would.
    pub fn clock(&self, p: ProcId) -> VirtTime {
        let mut t = self.procs[p].clock;
        if self.pending_total != 0 && self.pending_proc == p {
            t += VirtTime::from_ns(self.pending_total);
        }
        t
    }

    /// Advances processor `p`'s clock by `dur`, accounted to `bucket`.
    pub fn charge(&mut self, p: ProcId, bucket: Bucket, dur: VirtTime) {
        self.settle();
        let win = self.prof_open();
        self.advance(p, bucket, dur);
        self.prof_close(win, |hp| &mut hp.charge);
    }

    /// The clock advance itself, for callers that have already settled the
    /// pending transaction and hold a profiling window of their own.
    #[inline]
    fn advance(&mut self, p: ProcId, bucket: Bucket, dur: VirtTime) {
        self.procs[p].clock += dur;
        self.procs[p].stats.breakdown.add(bucket, dur);
    }

    /// Advances processor `p`'s clock *to* `t` (idling if `t` is in the
    /// future). No-op if `t` is in the past.
    pub fn idle_until(&mut self, p: ProcId, t: VirtTime) {
        self.settle();
        let wait = t.since(self.procs[p].clock);
        if wait > VirtTime::ZERO {
            self.charge(p, Bucket::Idle, wait);
        }
    }

    /// Records a dispatch (a thread starting a scheduling quantum) on `p`.
    /// A dispatch boundary is a flush point for the pending transaction.
    pub fn count_dispatch(&mut self, p: ProcId) {
        self.settle();
        self.procs[p].stats.dispatches += 1;
    }

    /// Acquires the global scheduler lock at `p`'s current clock, holding it
    /// for one critical section; charges contention wait and CS time.
    pub fn sched_lock(&mut self, p: ProcId) {
        self.settle();
        let win = self.prof_open();
        let now = self.procs[p].clock;
        let hold = self.cost.sched_cs;
        let (wait, release) = match self.perturb.as_mut() {
            Some(prng) => {
                let defer = VirtTime::from_ns(prng.below(LOCK_DEFER_NS + 1));
                self.sched_lock.acquire_deferred(now, hold, defer)
            }
            None => self.sched_lock.acquire(now, hold),
        };
        // Inside this function's own window: the two advances are part of
        // what a scheduler-lock operation costs the host.
        self.advance(p, Bucket::SchedWait, wait);
        self.advance(p, Bucket::SchedCs, release.since(now + wait));
        if wait > VirtTime::ZERO {
            if let Some(r) = self.recorder.as_deref_mut() {
                r.sample_lock_wait(release, wait);
            }
        }
        self.maybe_prune();
        self.prof_close(win, |hp| &mut hp.sched_lock);
    }

    /// Bounds the virtual locks' interval memory: drop holds wholly before
    /// the slowest processor's clock. Clocks only advance and every acquire
    /// arrives at its processor's clock, so no future acquirer can start
    /// earlier and the dropped holds can never matter again. Pruning pops
    /// from the front of a sorted ring, so it is swept often enough to keep
    /// the live window at tens of intervals.
    fn maybe_prune(&mut self) {
        self.prune_tick += 1;
        if self.prune_tick.is_multiple_of(PRUNE_EVERY) {
            let watermark = self
                .procs
                .iter()
                .map(|q| q.clock)
                .min()
                .unwrap_or(VirtTime::ZERO);
            self.sched_lock.prune(watermark);
            self.mem_lock.prune(watermark);
        }
    }

    /// Charges a kernel-serialized memory operation of duration `hold` on
    /// `p`: acquires the VM lock (contention wait + hold both accounted to
    /// the memory system).
    fn kernel_mem_op(&mut self, p: ProcId, hold: VirtTime) {
        debug_assert_eq!(self.pending_total, 0, "caller must settle first");
        let now = self.procs[p].clock;
        let (wait, release) = self.mem_lock.acquire(now, hold);
        self.charge(p, Bucket::MemSys, wait + release.since(now + wait));
        self.maybe_prune();
    }

    /// Models an application heap allocation of `bytes` on processor `p`:
    /// updates footprint tracking and charges malloc + first-touch costs.
    /// Fresh pages go through the kernel VM lock and therefore serialize
    /// across processors.
    pub fn alloc(&mut self, p: ProcId, bytes: u64) {
        self.settle();
        let fresh = self.heap.alloc(bytes);
        self.charge(p, Bucket::MemSys, self.cost.malloc_base);
        if fresh > 0 {
            let hold = self.cost.fresh_pages(fresh);
            self.kernel_mem_op(p, hold);
        }
        if self.recorder.is_some() {
            let (at, fp) = (self.procs[p].clock, self.heap.footprint());
            let r = self.recorder.as_deref_mut().expect("checked");
            r.event(at, p, MemEventKind::Alloc { bytes });
            r.sample_footprint(at, fp);
        }
        self.check_space_bound(p);
    }

    /// Models freeing `bytes` on processor `p`. Returns the underflow in
    /// bytes — `0` for a valid free, positive when the program freed more
    /// than was live (a double free; also counted and, when recording, made
    /// into a [`MemEventKind::FreeUnderflow`] event).
    pub fn free(&mut self, p: ProcId, bytes: u64) -> u64 {
        self.settle();
        let underflow = self.heap.free(bytes);
        let cost = self.cost.free_base;
        self.charge(p, Bucket::MemSys, cost);
        if underflow > 0 {
            self.free_underflows += 1;
        }
        if self.recorder.is_some() {
            let at = self.procs[p].clock;
            let r = self.recorder.as_deref_mut().expect("checked");
            r.event(at, p, MemEventKind::Free { bytes });
            if underflow > 0 {
                r.event(at, p, MemEventKind::FreeUnderflow { bytes: underflow });
            }
        }
        underflow
    }

    /// Models thread creation bookkeeping on `p` (thread-create overhead and
    /// stack acquisition) for a thread with `reserved` stack bytes. Returns
    /// the committed stack bytes attributed to the new thread.
    pub fn thread_create(&mut self, p: ProcId, reserved: u64) -> u64 {
        self.settle();
        self.threads_created += 1;
        self.live_threads += 1;
        self.live_threads_hwm = self.live_threads_hwm.max(self.live_threads);
        self.charge(p, Bucket::ThreadOp, self.cost.thread_create);
        let committed = match self.stacks.acquire(reserved) {
            Some(committed) => {
                // Cached stack: its committed bytes are already live.
                self.charge(p, Bucket::MemSys, self.cost.stack_cached);
                committed
            }
            None => {
                let committed = self.cost.stack_commit(reserved, false);
                let fresh = self.heap.alloc(committed);
                let hold = self.cost.stack_fresh(reserved) + self.cost.fresh_pages(fresh);
                self.kernel_mem_op(p, hold);
                committed
            }
        };
        if self.recorder.is_some() {
            let (at, fp, live) = (self.procs[p].clock, self.heap.footprint(), self.live_threads);
            let r = self.recorder.as_deref_mut().expect("checked");
            r.event(at, p, MemEventKind::StackReserve { bytes: reserved });
            r.sample_live(at, live);
            r.sample_footprint(at, fp);
        }
        self.check_space_bound(p);
        committed
    }

    /// Models the lazy stack commit when a thread first runs: grows its
    /// committed stack from `committed` to the touch estimate. Returns the
    /// new committed size.
    pub fn thread_first_run(&mut self, p: ProcId, reserved: u64, committed: u64) -> u64 {
        self.settle();
        let target = self.cost.stack_commit(reserved, true);
        if target > committed {
            let fresh = self.heap.alloc(target - committed);
            if fresh > 0 {
                let hold = self.cost.fresh_pages(fresh);
                self.kernel_mem_op(p, hold);
            }
            if self.recorder.is_some() {
                let (at, fp) = (self.procs[p].clock, self.heap.footprint());
                let r = self.recorder.as_deref_mut().expect("checked");
                r.sample_footprint(at, fp);
            }
            self.check_space_bound(p);
            target
        } else {
            committed
        }
    }

    /// Models thread exit on `p`: the stack is either cached (bytes stay
    /// live) or freed.
    pub fn thread_exit(&mut self, p: ProcId, reserved: u64, committed: u64) {
        self.settle();
        debug_assert!(self.live_threads > 0);
        self.live_threads -= 1;
        if !self.stacks.release(reserved, committed) {
            // Stack bytes are runtime-managed; an underflow here would be a
            // runtime bug, not an application double free.
            let underflow = self.heap.free(committed);
            debug_assert_eq!(underflow, 0, "stack free underflowed live bytes");
            let cost = self.cost.free_base;
            self.charge(p, Bucket::MemSys, cost);
        }
        if self.recorder.is_some() {
            let (at, live) = (self.procs[p].clock, self.live_threads);
            let r = self.recorder.as_deref_mut().expect("checked");
            r.event(at, p, MemEventKind::StackRelease { bytes: reserved });
            r.sample_live(at, live);
        }
    }

    /// Counts a dummy (no-op) thread inserted by the allocation hook.
    pub fn count_dummy(&mut self) {
        self.dummy_threads += 1;
    }

    /// Number of currently live threads.
    pub fn live_threads(&self) -> u64 {
        self.live_threads
    }

    /// Models a locality touch of `bytes` in `region` by processor `p`.
    pub fn touch(&mut self, p: ProcId, region: u64, bytes: u64) {
        let missed = self.caches[p].touch(region, bytes);
        if missed > 0 {
            let cost = self.cost.cache_miss(missed);
            self.charge(p, Bucket::CacheMiss, cost);
        }
    }

    /// Charges a thread-operation cost (context switch, join, ...).
    pub fn thread_op(&mut self, p: ProcId, dur: VirtTime) {
        self.charge(p, Bucket::ThreadOp, dur);
    }

    /// Charges a synchronization-primitive cost. Under perturbation mode
    /// every sync-operation boundary also gains a small deterministic
    /// jitter, which reorders virtually-concurrent sync operations across
    /// processors (the engine dispatches by minimum clock).
    pub fn sync_op(&mut self, p: ProcId, dur: VirtTime) {
        self.settle();
        let jitter = match self.perturb.as_mut() {
            Some(prng) => VirtTime::from_ns(prng.below(SYNC_JITTER_NS + 1)),
            None => VirtTime::ZERO,
        };
        self.charge(p, Bucket::Sync, dur + jitter);
    }

    /// Charges application compute of `cycles` cycles on `p`.
    pub fn compute(&mut self, p: ProcId, cycles: u64) {
        let dur = self.cost.cycles(cycles);
        self.charge(p, Bucket::Compute, dur);
    }

    /// Current committed footprint (bytes).
    pub fn footprint(&self) -> u64 {
        self.heap.footprint()
    }

    /// Current live bytes.
    pub fn live_bytes(&self) -> u64 {
        self.heap.live()
    }

    /// Finalizes the run: aligns all processor clocks to the makespan and
    /// returns the collected statistics.
    pub fn finish(mut self) -> RunStats {
        self.settle();
        let makespan = self
            .procs
            .iter()
            .map(|p| p.clock)
            .max()
            .unwrap_or(VirtTime::ZERO);
        for i in 0..self.procs.len() {
            self.idle_until(i, makespan);
        }
        let (allocs, frees, fresh_bytes) = self.heap.counters();
        let (stack_cache_hits, stack_fresh) = self.stacks.counters();
        let (mut cache_hits, mut cache_misses) = (0, 0);
        for c in &self.caches {
            let (h, m, _) = c.counters();
            cache_hits += h;
            cache_misses += m;
        }
        let (lock_acq, lock_wait, _) = self.sched_lock.counters();
        RunStats {
            makespan,
            processors: self.procs.len(),
            procs: self.procs.into_iter().map(|p| p.stats).collect(),
            mem: MemStats {
                footprint_hwm: self.heap.footprint(),
                live_hwm: self.heap.live_hwm(),
                live_end: self.heap.live(),
                live_threads_hwm: self.live_threads_hwm,
                threads_created: self.threads_created,
                dummy_threads: self.dummy_threads,
                allocs,
                frees,
                fresh_bytes,
                stack_cache_hits,
                stack_fresh,
                cache_hits,
                cache_misses,
                free_underflows: self.free_underflows,
                bound_violations: self.bound_violations,
                // Host fiber-stack pool counters live in the threads
                // runtime; it folds them in after finish().
                host_stack_hits: 0,
                host_stack_misses: 0,
                host_stack_cached_hwm: 0,
            },
            sched_lock_acquisitions: lock_acq,
            sched_lock_wait: lock_wait,
            host_phase: self.host_prof.map(|b| b.stats).unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(p: usize) -> Machine {
        Machine::new(p, CostModel::ultrasparc_167(), 1024 * 1024)
    }

    #[test]
    fn charge_and_makespan() {
        let mut m = machine(2);
        m.compute(0, 1000); // 6 µs
        m.compute(1, 500); // 3 µs
        let stats = m.finish();
        assert_eq!(stats.makespan, VirtTime::from_us(6));
        assert_eq!(stats.procs[1].breakdown.idle, VirtTime::from_us(3));
    }

    #[test]
    fn alloc_free_reuse_costs() {
        let mut m = machine(1);
        m.alloc(0, 16 * 1024); // 2 fresh pages
        let after_first = m.clock(0);
        m.free(0, 16 * 1024);
        let before_second = m.clock(0);
        m.alloc(0, 16 * 1024); // fully reused: only malloc_base
        let second_cost = m.clock(0).since(before_second);
        assert_eq!(second_cost, VirtTime::from_ns(3_000));
        assert!(after_first > VirtTime::from_ns(3_000 + 2 * 25_000 - 1));
        assert_eq!(m.footprint(), 16 * 1024);
    }

    #[test]
    fn thread_lifecycle_accounting() {
        let mut m = machine(1);
        let c = m.thread_create(0, 1024 * 1024);
        assert_eq!(c, 8 * 1024, "lazy commit: one page at create");
        assert_eq!(m.live_threads(), 1);
        let c = m.thread_first_run(0, 1024 * 1024, c);
        assert_eq!(c, 16 * 1024);
        m.thread_exit(0, 1024 * 1024, c);
        assert_eq!(m.live_threads(), 0);
        // Default-size stack was cached: bytes stay live.
        assert_eq!(m.live_bytes(), 16 * 1024);
        // Second thread reuses the cached stack: no fresh bytes.
        let fp = m.footprint();
        let c2 = m.thread_create(0, 1024 * 1024);
        assert_eq!(c2, 16 * 1024);
        assert_eq!(m.footprint(), fp);
        let stats = m.finish();
        assert_eq!(stats.mem.threads_created, 2);
        assert_eq!(stats.mem.live_threads_hwm, 1);
        assert_eq!(stats.mem.stack_cache_hits, 1);
    }

    #[test]
    fn sched_lock_serializes_processors() {
        let mut m = machine(2);
        m.sched_lock(0); // holds [0, 1500)
        m.sched_lock(1); // arrives at 0, waits 1500
        assert_eq!(m.clock(1), VirtTime::from_ns(3_000));
        let stats = m.finish();
        assert_eq!(stats.sched_lock_acquisitions, 2);
        assert_eq!(stats.sched_lock_wait, VirtTime::from_ns(1_500));
    }

    #[test]
    fn frequent_pruning_keeps_the_lock_history_short() {
        // Four processors alternating irregular compute with scheduler-lock
        // and VM-lock traffic: the clocks leapfrog, so arrivals land ahead
        // of, inside and behind the recorded holds.
        let mut m = machine(4);
        let mut prng = Prng::new(42);
        let (mut sched_max, mut mem_max) = (0, 0);
        for i in 0..100_000u64 {
            let p = (i % 4) as usize;
            m.compute(p, prng.below(2_000));
            m.sched_lock(p);
            if i % 7 == 0 {
                m.alloc(p, 64 * 1024);
                m.free(p, 1024);
            }
            sched_max = sched_max.max(m.sched_lock.intervals());
            mem_max = mem_max.max(m.mem_lock.intervals());
        }
        assert!(sched_max > 4, "the loop must actually spread holds out");
        assert!(sched_max < 300, "sched_lock history grew to {sched_max}");
        assert!(mem_max < 300, "mem_lock history grew to {mem_max}");
        let stats = m.finish();
        assert_eq!(stats.sched_lock_acquisitions, 100_000);
    }

    #[test]
    fn recording_counter_maxima_equal_hwms() {
        let mut m = machine(2);
        m.enable_recording(1024);
        let c0 = m.thread_create(0, 1024 * 1024);
        let c1 = m.thread_create(1, 1024 * 1024);
        m.alloc(0, 64 * 1024);
        m.free(0, 64 * 1024);
        m.alloc(1, 16); // below threshold: no event, footprint unchanged (reuse)
        m.thread_exit(0, 1024 * 1024, c0);
        m.thread_exit(1, 1024 * 1024, c1);
        let rec = m.take_recording().expect("recording enabled");
        let stats = m.finish();
        let fp_max = rec.footprint.iter().map(|&(_, v)| v).max().unwrap();
        let live_max = rec.live_threads.iter().map(|&(_, v)| v).max().unwrap();
        assert_eq!(fp_max, stats.mem.footprint_hwm);
        assert_eq!(live_max, stats.mem.live_threads_hwm);
        // 2 reserves + 2 releases + the one above-threshold alloc/free pair.
        assert_eq!(rec.events.len(), 6);
        // Footprint samples are non-decreasing (an arena never shrinks).
        assert!(rec.footprint.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn recording_disabled_is_absent() {
        let mut m = machine(1);
        m.alloc(0, 4096);
        assert!(m.take_recording().is_none());
    }

    #[test]
    fn perturbation_jitters_sync_ops_deterministically() {
        let run = |seed: Option<u64>| {
            let mut m = machine(2);
            if let Some(s) = seed {
                m.enable_perturbation(s);
            }
            for _ in 0..32 {
                m.sync_op(0, VirtTime::from_ns(500));
                m.sched_lock(1);
            }
            (m.clock(0), m.clock(1))
        };
        let base = run(None);
        let a = run(Some(7));
        let b = run(Some(7));
        let c = run(Some(8));
        assert_eq!(a, b, "same seed must replay bit-exactly");
        assert_ne!(a, base, "perturbation must change the timeline");
        assert_ne!(a, c, "different seeds must explore different timelines");
        // Jitter is bounded: 32 sync ops can add at most 32 * 96ns.
        assert!(a.0.since(base.0) <= VirtTime::from_ns(32 * 96));
    }

    #[test]
    fn free_underflow_counted_and_recorded() {
        let mut m = machine(1);
        m.enable_recording(u64::MAX); // suppress ordinary alloc/free events
        m.alloc(0, 4096);
        assert_eq!(m.free(0, 4096), 0);
        assert_eq!(m.free(0, 4096), 4096, "double free must surface");
        let rec = m.take_recording().unwrap();
        let stats = m.finish();
        assert_eq!(stats.mem.free_underflows, 1);
        // The underflow event bypasses the threshold.
        assert!(rec
            .events
            .iter()
            .any(|e| matches!(e.kind, MemEventKind::FreeUnderflow { bytes: 4096 })));
    }

    #[test]
    fn space_bound_counts_growths_above_limit() {
        let mut m = machine(1);
        m.enable_recording(u64::MAX);
        m.arm_space_bound(10_000);
        m.alloc(0, 8_000); // within bound
        m.alloc(0, 8_000); // crosses: 16_000 > 10_000
        m.alloc(0, 8_000); // still above
        let _ = m.free(0, 24_000);
        m.alloc(0, 1_000); // reuse, footprint unchanged — still above
        let rec = m.take_recording().unwrap();
        let stats = m.finish();
        assert_eq!(stats.mem.bound_violations, 3);
        assert_eq!(stats.mem.footprint_hwm, 24_000, "accounting unaltered");
        let crossings: Vec<_> = rec
            .events
            .iter()
            .filter(|e| matches!(e.kind, MemEventKind::BoundViolation { .. }))
            .collect();
        assert_eq!(crossings.len(), 1, "only the crossing growth records an event");
        assert!(matches!(
            crossings[0].kind,
            MemEventKind::BoundViolation { footprint: 16_000, bound: 10_000 }
        ));
    }

    #[test]
    fn unarmed_bound_never_fires() {
        let mut m = machine(1);
        m.alloc(0, 1 << 30);
        assert_eq!(m.space_bound(), None);
        let stats = m.finish();
        assert_eq!(stats.mem.bound_violations, 0);
    }

    #[test]
    fn stack_growth_checks_the_bound_too() {
        let mut m = machine(1);
        m.arm_space_bound(4 * 1024);
        let c = m.thread_create(0, 1024 * 1024); // commits 8 KiB at create
        let _ = m.thread_first_run(0, 1024 * 1024, c);
        let stats = m.finish();
        assert!(stats.mem.bound_violations >= 2, "create + first-run growths");
    }

    #[test]
    fn deadline_heap_orders_and_costs_nothing() {
        let mut m = machine(2);
        let before = (m.clock(0), m.clock(1));
        m.arm_deadline(0, VirtTime::from_us(30), 3);
        m.arm_deadline(0, VirtTime::from_us(10), 1);
        m.arm_deadline(0, VirtTime::from_us(20), 2);
        m.arm_deadline(1, VirtTime::from_us(5), 9);
        assert!(m.has_deadlines());
        assert_eq!(m.peek_deadline(0), Some((VirtTime::from_us(10), 1)));
        assert_eq!(m.pop_deadline(0), Some((VirtTime::from_us(10), 1)));
        assert_eq!(m.pop_deadline(0), Some((VirtTime::from_us(20), 2)));
        assert_eq!(m.pop_deadline(0), Some((VirtTime::from_us(30), 3)));
        assert_eq!(m.pop_deadline(0), None);
        assert_eq!(m.pop_deadline(1), Some((VirtTime::from_us(5), 9)));
        assert!(!m.has_deadlines());
        // Deadline bookkeeping never moves a clock.
        assert_eq!((m.clock(0), m.clock(1)), before);
        let stats = m.finish();
        assert_eq!(stats.makespan, VirtTime::ZERO);
    }

    #[test]
    fn deadline_bound_never_exceeds_an_armed_entry() {
        let mut m = machine(2);
        let at = VirtTime::from_us;
        assert_eq!(m.deadline_bound(), NO_DEADLINE);
        m.arm_deadline(0, at(30), 3);
        m.arm_deadline(1, at(10), 1);
        m.arm_deadline(0, at(20), 2);
        assert_eq!(m.deadline_bound(), at(10));
        // A pop leaves the bound where it was: still a bound, now loose.
        assert_eq!(m.pop_deadline(1), Some((at(10), 1)));
        assert_eq!(m.deadline_bound(), at(10));
        m.tighten_deadline_bound();
        assert_eq!(m.deadline_bound(), at(20));
        m.arm_deadline(1, at(5), 4);
        assert_eq!(m.deadline_bound(), at(5));
        while m.has_deadlines() {
            m.pop_deadline(0);
            m.pop_deadline(1);
        }
        m.tighten_deadline_bound();
        assert_eq!(m.deadline_bound(), NO_DEADLINE);
    }

    #[test]
    fn deadline_ties_order_by_token() {
        let mut m = machine(1);
        m.arm_deadline(0, VirtTime::from_ns(100), 7);
        m.arm_deadline(0, VirtTime::from_ns(100), 2);
        assert_eq!(m.pop_deadline(0), Some((VirtTime::from_ns(100), 2)));
        assert_eq!(m.pop_deadline(0), Some((VirtTime::from_ns(100), 7)));
    }

    #[test]
    fn host_profile_counts_phases_and_is_zero_when_off() {
        let mut m = machine(2);
        m.enable_host_profile();
        assert!(m.host_profiled());
        m.arm_deadline(0, VirtTime::from_us(10), 1);
        m.arm_deadline(0, VirtTime::from_us(20), 2);
        let _ = m.pop_deadline(0);
        m.compute(0, 1000);
        m.sched_lock(0);
        let stats = m.finish();
        let hp = stats.host_phase;
        assert!(hp.enabled);
        assert_eq!(hp.heap_push.count, 2);
        assert_eq!(hp.heap_pop.count, 1);
        assert_eq!(hp.sched_lock.count, 1);
        // compute + finish's idle alignment of processor 1 (the sched-lock
        // wait/CS advances belong to the sched_lock window).
        assert_eq!(hp.charge.count, 2);
        assert!(hp.total_ns() > 0, "timers must accumulate real time");

        let mut off = machine(1);
        off.compute(0, 1000);
        off.sched_lock(0);
        let stats = off.finish();
        assert!(!stats.host_phase.enabled);
        assert_eq!(stats.host_phase.total_ns(), 0);
        assert_eq!(stats.host_phase.charge.count, 0);
    }

    #[test]
    fn deferred_charges_are_bit_identical_to_immediate() {
        let drive = |deferred: bool| {
            let mut m = machine(2);
            let step = |m: &mut Machine, p: usize, cycles: u64, region: u64| {
                if deferred {
                    m.compute_deferred(p, cycles);
                    m.touch_deferred(p, region, 512);
                } else {
                    m.compute(p, cycles);
                    m.touch(p, region, 512);
                }
            };
            step(&mut m, 0, 1000, 7);
            step(&mut m, 0, 50, 7);
            // Mid-transaction observation: clock must already include pending.
            let mid = m.clock(0);
            step(&mut m, 1, 10, 9); // cross-processor switch flushes
            m.sched_lock(0); // observation point
            step(&mut m, 0, 200, 7);
            m.alloc(0, 16 * 1024);
            step(&mut m, 0, 30, 11);
            (mid, m.finish())
        };
        let (mid_a, a) = drive(false);
        let (mid_b, b) = drive(true);
        assert_eq!(mid_a, mid_b, "pending-aware clock() must match immediate");
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.procs, b.procs);
        assert_eq!(a.mem, b.mem);
        assert_eq!(a.sched_lock_wait, b.sched_lock_wait);
    }

    #[test]
    fn touch_locality() {
        let mut m = machine(2);
        m.touch(0, 7, 1000);
        let t_after_miss = m.clock(0);
        m.touch(0, 7, 1000); // hit: free
        assert_eq!(m.clock(0), t_after_miss);
        // Other processor has its own cache: misses again.
        m.touch(1, 7, 1000);
        assert_eq!(m.clock(1), t_after_miss);
    }
}
