//! The execution engine: drives fibers over the virtual SMP under the
//! selected scheduling policy.
//!
//! The engine is a conservative discrete-event simulation. All fibers run on
//! the single host thread, but each is dispatched on behalf of a *virtual
//! processor* whose clock advances by modelled costs. The engine always
//! dispatches on the processor with the smallest clock, and every scheduler
//! entry carries the virtual time at which it was published, so causality
//! holds: a processor never consumes an event from its own future.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;

use ptdf_fiber::{Coroutine, ForcedUnwind, Stack, StackPool, Step};
use ptdf_smp::{Machine, ProcId, VirtTime};

use crate::config::{Attr, Config, LedgerMode};
use crate::mem::Ledger;
use crate::oracle::{DecisionKind, Resolver};
use crate::report::Report;
use crate::sched::{make_policy, Policy, Pop};
use crate::sentinel::{DeadlockError, DeadlockInfo, RunError, StallInfo, StalledThread};
use crate::thread::{
    Exit, Fiber, FiberYielder, JoinCell, JoinError, JoinHandle, Kind, Payload, TState, Tcb,
    ThreadId, ThreadTable, Wait, YieldReason,
};
use crate::recorder::{Emission, Recorder};
use crate::trace::{BlockReason, EventKind, Span, SpanKind};
use crate::waitq::{parked, untimed, Evict, Holders};

/// A TLS-destructor hook: called with an exiting thread's id, it drops the
/// thread's slot in one [`crate::TlsKey`]'s map and returns the released
/// byte count (pthread TSD-destructor semantics). Registered lazily, once
/// per key per run; holds only the key's own map, never the runtime.
pub(crate) type TlsCleaner = Box<dyn Fn(ThreadId) -> u64>;

/// Why [`Inner::evict_wake`] wakes a blocked thread.
#[derive(Clone, Copy)]
pub(crate) enum Evicted {
    /// Its armed deadline (the payload) fired.
    Timeout(VirtTime),
    /// A cancellation request was delivered to it.
    Cancel,
}

/// Runtime internals; shared between the engine loop and the API functions
/// (via the thread-local [`ActiveCtx`]).
pub(crate) struct Inner {
    pub machine: Machine,
    pub policy: Box<dyn Policy>,
    pub threads: ThreadTable,
    /// Direct-handoff slot per processor: a preempt-on-fork child
    /// (`resume = false`, full dispatch) or a time-sliced fiber
    /// (`resume = true`, cost-free continuation).
    pub handoff: Vec<Option<(ThreadId, bool)>>,
    /// Processors that found the scheduler empty; woken on publish.
    /// Written only through [`Inner::set_parked`].
    pub parked: Vec<bool>,
    /// How many entries of `parked` are set, so [`Inner::unpark`] with
    /// nobody parked is a load instead of a scan.
    parked_count: usize,
    /// Live (non-exited) threads of any kind.
    pub live: usize,
    /// Currently executing (thread, processor); set before each resume.
    pub cur: Option<(ThreadId, ProcId)>,
    pub default_stack: u64,
    /// The flight recorder; every event, span and lifecycle note goes
    /// through its one hook, [`Recorder::emit`], which tests one `Option`
    /// discriminant and nothing else when tracing is off.
    pub recorder: Recorder,
    /// Cached timeslice reference: the minimum clock among non-parked
    /// processors *other than* the one running the current fiber (`None`
    /// when there is no other active processor). While one fiber runs a
    /// quantum of `work`/`touch` calls, no other processor's clock or parked
    /// state can change except through [`Inner::unpark`] — the engine loop
    /// (which derives it from the round's one [`RoundScan`]) and `unpark`
    /// are the only writers, so refreshing at those two points keeps every
    /// timeslice check bit-identical to a full scan.
    pub ts_min_other: Option<VirtTime>,
    /// The decision source built from [`Config::schedule`]: every
    /// decision point, sync-boundary preemption and chaos fault asks it.
    pub schedule: Resolver,
    /// Recycles real (host) fiber stacks across spawns; see
    /// `ptdf_fiber::StackPool`. Completed fibers return their stack here and
    /// the next spawn reuses it, canary re-armed.
    pub stack_pool: StackPool,
    /// Allocation ledger, when armed ([`Config::with_ledger`]).
    pub ledger: Option<Ledger>,
    /// TLS-destructor hooks, one per [`crate::TlsKey`] touched this run.
    pub tls_cleaners: Vec<TlsCleaner>,
    /// This run's identity for lazy TLS-cleaner registration (keys outlive
    /// runs, so each key re-registers once per run).
    pub run_token: u64,
    /// Next per-run sync-object id (assigned lazily at an object's first
    /// engine interaction, so ids are dense and engine-order deterministic).
    next_sync_id: u32,
    /// Waits-for cycles detected so far (delivered via [`Report::deadlocks`]).
    pub deadlocks: Vec<DeadlockInfo>,
    /// Current holders of each *contended* sync object, published by the
    /// primitives at block/handoff time only — the uncontended fast path
    /// never touches this map, keeping sentinel bookkeeping off the hot
    /// path. An entry exists exactly while the object has queued waiters.
    holders: HashMap<u32, Holders>,
    /// [`Inner::fire_due_timeouts`]'s list of due deadlines, kept between
    /// rounds so that a firing allocates nothing.
    due: Vec<(ThreadId, ProcId, VirtTime)>,
    /// [`Inner::check_for_cycle`]'s scratch, kept between probes so that a
    /// probe allocates nothing: the path walked so far, and the threads
    /// already visited.
    probe_path: Vec<(ThreadId, Option<u32>)>,
    probe_seen: Vec<ThreadId>,
    /// What the rounds of this run did about deadlines, for the unit tests.
    #[cfg(test)]
    round_stats: RoundStats,
}

/// Test-only observation of the engine rounds' deadline work.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default)]
struct RoundStats {
    /// Full (non-solo) scheduling rounds.
    rounds: u64,
    /// [`Inner::fire_due_timeouts`] calls that got past the nothing-can-be-due
    /// check and walked the deadline heaps.
    deadline_scans: u64,
}

/// What kind of execution context the calling code is inside.
pub(crate) enum ActiveCtx {
    /// Inside `Runtime`-driven parallel execution.
    Par(Rc<RefCell<Inner>>),
    /// Inside a `run_serial` baseline execution.
    Serial(Rc<RefCell<crate::serial::SerialCtx>>),
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveCtx>> = const { RefCell::new(None) };
}

/// Runs `f` with the active context (if any).
pub(crate) fn with_active<R>(f: impl FnOnce(Option<&ActiveCtx>) -> R) -> R {
    ACTIVE.with(|a| f(a.borrow().as_ref()))
}

struct TlsGuard;

impl Drop for TlsGuard {
    fn drop(&mut self) {
        ACTIVE.with(|a| *a.borrow_mut() = None);
    }
}

fn install(ctx: ActiveCtx) -> TlsGuard {
    ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        assert!(
            slot.is_none(),
            "ptdf runtime is not reentrant: run()/run_serial() called from \
             inside an active run"
        );
        *slot = Some(ctx);
    });
    TlsGuard
}

pub(crate) fn install_serial(ctx: Rc<RefCell<crate::serial::SerialCtx>>) -> impl Drop {
    install(ActiveCtx::Serial(ctx))
}

impl Inner {
    fn new(config: &Config) -> Self {
        let mut machine =
            Machine::new(config.processors, config.cost.clone(), config.default_stack);
        let recorder = Recorder::new(config, &mut machine);
        if let Some(seed) = config.schedule.perturb_seed() {
            machine.enable_perturbation(seed);
        }
        if let Some(limit) = config.space_bound {
            machine.arm_space_bound(limit);
        }
        if config.host_profile {
            machine.enable_host_profile();
        }
        static RUN_TOKEN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        Inner {
            machine,
            policy: make_policy(config),
            threads: ThreadTable::new(),
            handoff: vec![None; config.processors],
            parked: vec![false; config.processors],
            parked_count: 0,
            live: 0,
            cur: None,
            default_stack: config.default_stack,
            recorder,
            schedule: Resolver::new(&config.schedule, config.trace),
            ts_min_other: None,
            stack_pool: StackPool::new(ptdf_fiber::DEFAULT_POOL_CAP),
            ledger: match config.ledger {
                LedgerMode::Off => None,
                LedgerMode::On => Some(Ledger::new(None)),
                LedgerMode::FailOneIn(n) => Some(Ledger::new(Some((config.seed, n.get())))),
            },
            tls_cleaners: Vec::new(),
            run_token: RUN_TOKEN.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            next_sync_id: 0,
            deadlocks: Vec::new(),
            holders: HashMap::new(),
            due: Vec::new(),
            probe_path: Vec::new(),
            probe_seen: Vec::new(),
            #[cfg(test)]
            round_stats: RoundStats::default(),
        }
    }

    /// Hands out a host stack for a new fiber, recycling through the pool.
    pub fn acquire_fiber_stack(&mut self) -> Stack {
        self.stack_pool.acquire(ptdf_fiber::DEFAULT_STACK_SIZE)
    }

    /// Returns a completed fiber's host stack to the pool.
    fn recycle_fiber_stack(&mut self, stack: Stack) {
        self.stack_pool.release(stack);
    }

    /// Charges one scheduler-queue operation on `p` (global lock for
    /// serialized policies, local cost otherwise).
    pub fn sched_op(&mut self, p: ProcId) {
        if self.policy.global_lock() {
            self.machine.sched_lock(p);
        } else {
            let cs = self.machine.cost().sched_cs;
            self.machine
                .charge(p, ptdf_smp::Bucket::SchedCs, cs);
        }
    }

    /// One pass over the processors: everything a scheduling round needs
    /// to know about their clocks.
    fn scan_procs(&self) -> RoundScan {
        RoundScan::of(&self.parked, |q| self.machine.clock(q))
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
    /// scheduler lock that real schedulers avoid).
    fn unpark(&mut self, at: VirtTime) {
        if self.parked_count == 0 {
            return;
        }
        let victim = (0..self.parked.len())
            .filter(|&q| self.parked[q])
            .min_by_key(|&q| self.machine.clock(q))
            .expect("parked_count counts the set entries of parked");
        let q = self.tie_break(victim, DecisionKind::UnparkTie, |inner, r| inner.parked[r]);
        self.set_parked(q, false);
        self.machine.idle_until(q, at);
        // A processor just became runnable mid-quantum: the cached
        // timeslice reference for the current fiber must see it.
        self.ts_min_other = match self.cur {
            Some((_, p)) => self.scan_procs().min_other(p),
            None => None,
        };
    }

    /// Whether the current fiber's quantum has outrun the rest of the
    /// machine by more than [`TIMESLICE`], against the cached reference
    /// clock. Never true for a thread that has already registered itself on
    /// a wait queue (state Blocked, between its `park` and the
    /// `Blocked` suspend — e.g. the unlock inside `Condvar::wait`): a
    /// concurrent wake would queue it while it also sits in the handoff
    /// slot, double-dispatching it.
    #[inline]
    pub(crate) fn timeslice_due(&self, tid: ThreadId, p: ProcId) -> bool {
        match self.ts_min_other {
            Some(min) => {
                self.machine.clock(p).since(min) > TIMESLICE && self.running_on(tid, p)
            }
            None => false,
        }
    }

    /// Whether `tid` is executing on `p` right now — false between its
    /// `park` and the `Blocked` suspend that follows.
    #[inline]
    fn running_on(&self, tid: ThreadId, p: ProcId) -> bool {
        self.threads
            .get(tid)
            .is_some_and(|t| t.state == TState::Running(p))
    }

    /// Virtual time to stamp on an object-scoped decision: the deciding
    /// thread's processor clock.
    fn decision_clock(&self) -> VirtTime {
        match self.cur {
            Some((_, p)) => self.machine.clock(p),
            None => self.machine.clock(0),
        }
    }

    /// Resolves a processor tie-break decision point: several processors
    /// tied with `best` at its clock value (and admitted by `eligible`).
    /// A natural schedule keeps `best` (lowest index) without gathering
    /// the ties. Single-candidate points are never decisions.
    fn tie_break(
        &mut self,
        best: ProcId,
        kind: DecisionKind,
        eligible: impl Fn(&Inner, ProcId) -> bool,
    ) -> ProcId {
        if self.schedule.is_natural() {
            return best;
        }
        let t = self.machine.clock(best);
        let ties: Vec<u32> = (0..self.parked.len())
            .filter(|&q| eligible(self, q) && self.machine.clock(q) == t)
            .map(|q| q as u32)
            .collect();
        if ties.len() <= 1 {
            return best;
        }
        // `ties` is ascending, so index 0 is `best`: the natural choice.
        debug_assert_eq!(ties[0], best as u32);
        ties[self.schedule.pick(kind, t, ties.len(), None, &ties)] as ProcId
    }

    /// Resolves the delivery order of a multi-thread wake batch (barrier
    /// release, `notify_all`, rwlock reader admission): a genuine schedule
    /// degree of freedom.
    pub fn wake_order<T: Copy + PartialEq>(&mut self, obj: u32, batch: &mut [T]) {
        let at = self.decision_clock();
        self.schedule
            .order(DecisionKind::WakeOrder, Some(obj), batch, |_| at);
    }

    /// Resolves a queue-grant decision point: which of `n ≥ 1` eligible
    /// waiters of sync object `obj` receives the grant (FIFO, index 0,
    /// unless scripted). This is a decision only when `n ≥ 2`.
    pub fn grant_pick(&mut self, obj: u32, n: usize) -> usize {
        if n <= 1 || self.schedule.is_natural() {
            return 0;
        }
        let at = self.decision_clock();
        self.schedule
            .pick(DecisionKind::Grant, at, n, Some(obj), &[])
    }

    /// Allocates a per-run sync-object id (dense, engine-order stable).
    pub fn alloc_sync_id(&mut self) -> u32 {
        let id = self.next_sync_id;
        self.next_sync_id += 1;
        id
    }

    /// Lazily assigns a per-run id to a sync object at its first engine
    /// interaction, memoized in the object's `cell`.
    pub fn sync_id_for(&mut self, cell: &std::cell::Cell<Option<u32>>) -> u32 {
        match cell.get() {
            Some(id) => id,
            None => {
                let id = self.alloc_sync_id();
                cell.set(Some(id));
                id
            }
        }
    }

    /// Records a wake-capable sync operation — notify, post, lock handoff,
    /// barrier completion — with what the primitive observed and claimed
    /// atomically. The happens-before checker ([`crate::check_trace`]) uses
    /// these to catch lost notifies without reconstructing wait-list state
    /// from interleaved per-processor timestamps.
    pub fn note_sync(&mut self, reason: BlockReason, obj: u32, waiters: u64, woken: u64) {
        // Lenient on context: stall-teardown destructors release primitives
        // with no current thread; their bookkeeping is best-effort.
        let Some((tid, p)) = self.cur else {
            return;
        };
        let kind = EventKind::Notify {
            reason,
            obj,
            waiters,
            woken,
        };
        self.trace_event(p, tid.0, kind);
    }

    /// Records `kind` for `thread` at `p`'s clock, through the recorder's
    /// one hook.
    #[inline]
    pub fn trace_event(&mut self, p: ProcId, thread: u32, kind: EventKind) {
        self.recorder.emit(&mut self.machine, |m| {
            Emission::event(m.clock(p), p, thread, kind)
        });
    }

    /// Creates a thread record. `enqueue_override` forces queue insertion
    /// (used for the root and for dummies) even under preempt-on-fork.
    /// Returns the new thread id and whether the caller (the forking
    /// parent) must yield so the child is direct-handed to its processor.
    pub fn create_thread(
        &mut self,
        parent: Option<ThreadId>,
        on_proc: ProcId,
        attr: Attr,
        fiber: Option<Fiber>,
        kind: Kind,
    ) -> (ThreadId, bool) {
        let reserved = attr.stack_size.unwrap_or(self.default_stack);
        let committed = self.machine.thread_create(on_proc, reserved);
        let prio = attr.priority;
        // Preempt-on-fork hands the child straight to the parent's
        // processor — but only within the parent's priority level; a child
        // at a different level goes through the queue so that priority
        // semantics hold (paper §2.1: the space-efficient policy operates
        // *within* a priority level).
        let handoff_child = kind == Kind::User
            && self.policy.preempt_on_fork()
            && parent.is_some_and(|par| self.threads.live(par).attr.priority == prio);
        let now = self.machine.clock(on_proc);
        let mut tcb = Tcb::new(kind, attr, reserved);
        tcb.stack_committed = committed;
        tcb.fiber = fiber;
        if !handoff_child {
            tcb.state = TState::Ready;
            tcb.ready_since = now;
        }
        let id = self.threads.issue(tcb);
        self.live += 1;
        let parent_id = parent.map(|t| t.0);
        self.recorder.emit(&mut self.machine, |_| {
            Emission::event(now, on_proc, id.0, EventKind::Spawn { parent: parent_id })
        });
        self.sched_op(on_proc);
        self.policy
            .on_create(id, parent, prio, !handoff_child, now, on_proc);
        if !handoff_child {
            self.unpark(now);
        }
        if kind == Kind::Dummy {
            self.machine.count_dummy();
        }
        (id, handoff_child)
    }

    /// Creates the root(s) of a lazy binary tree of `count` dummy threads
    /// at `parent`'s depth-first position: up to two roots are created now,
    /// each expanding (when dispatched) into two more, and so on.
    pub fn create_dummy_tree(&mut self, parent: ThreadId, p: ProcId, count: u64) {
        let left = count / 2;
        let right = count - left;
        for part in [left, right] {
            if part > 0 {
                let (id, _) =
                    self.create_thread(Some(parent), p, Attr::default(), None, Kind::Dummy);
                self.threads.live_mut(id).dummy_remaining = part;
            }
        }
    }

    /// Marks `t` ready. The publish time is the waking processor's clock or
    /// the thread's own suspension time, whichever is later — a wake must
    /// not resume a thread earlier (in virtual time) than it blocked.
    pub fn make_ready(&mut self, t: ThreadId, p: ProcId) {
        let tcb = self.threads.live_mut(t);
        debug_assert!(matches!(tcb.state, TState::Blocked | TState::Created));
        let mut now = self.machine.clock(p).max(tcb.blocked_at);
        // Chaos fault: delayed wake delivery — the wake is published up to
        // 2 µs later than the primitive issued it, exactly like an IPI that
        // sat in a pending-interrupt register. Still causally sound (never
        // earlier than the suspension).
        if let Some(chaos) = self.schedule.chaos() {
            now = VirtTime::from_ns(now.as_ns() + chaos.below(2_001));
        }
        let (prio, affinity) = (tcb.attr.priority, tcb.last_proc);
        tcb.state = TState::Ready;
        tcb.ready_since = now;
        // The wake supersedes the waits-for edge, any armed deadline and
        // the eviction record (the stale heap entry is discarded lazily;
        // `timed_out` is untouched — only a real deadline firing sets it).
        tcb.wait = None;
        tcb.deadline = None;
        tcb.evict = None;
        let waker = self.cur.map(|(w, _)| w.0);
        self.recorder.emit(&mut self.machine, |_| {
            Emission::event(now, p, t.0, EventKind::Wake { waker })
        });
        self.sched_op(p);
        self.policy.on_ready(t, prio, now, p, affinity);
        self.unpark(now);
    }

    /// Blocks the current thread on `wait` — already registered wherever
    /// its grant will come from ([`crate::waitq`]) — and arms `timeout`,
    /// relative to the clock once the block is charged, if there is one:
    /// state, waits-for edge, eviction record and deadline in one TCB
    /// write. To be followed by a `Blocked` suspend.
    pub fn park(&mut self, wait: Wait, timeout: Option<VirtTime>, evict: Evict) {
        let (tid, p) = self.cur.expect("block outside a thread");
        let now = self.machine.clock(p);
        let (reason, obj) = (wait.reason, wait.obj);
        self.recorder.emit(&mut self.machine, |_| {
            Emission::event(now, p, tid.0, EventKind::Block { reason, obj })
        });
        self.policy.on_block(tid);
        self.sched_op(p);
        let deadline = timeout.map(|t| {
            VirtTime::from_ns(self.machine.clock(p).as_ns().saturating_add(t.as_ns()))
        });
        let t = self.threads.live_mut(tid);
        t.state = TState::Blocked;
        t.blocked_at = now;
        t.wait = Some(wait);
        t.evict = Some(evict);
        t.deadline = deadline;
        if let Some(deadline) = deadline {
            self.machine.arm_deadline(p, deadline, u64::from(tid.0));
        }
    }

    /// [`Inner::make_ready`]'s twin for the two wakes that are not grants:
    /// `t`'s deadline fired, or a cancellation was delivered to it. Emits a
    /// `Timeout` / `Cancel` event instead of a `Wake` (the checker's other
    /// sanctioned wakes) and sets the flag the blocking API consumes on
    /// resume. A timeout is timestamped at the deadline itself, however
    /// late in engine order it fires; a cancel at the canceller's clock on
    /// `p`; both clamped by the block. A cancelled thread also has further
    /// cancellation disabled, so its unwind's own sync operations cannot
    /// re-deliver. Then the thread's slot goes with it: the eviction record
    /// `park` left runs *after* the event and the unpark, so the wakes a
    /// re-admission publishes are causally after the eviction, and with
    /// `cur` pointed at the evictee so they are attributed to it.
    pub fn evict_wake(&mut self, t: ThreadId, p: ProcId, cause: Evicted) {
        let at = match cause {
            Evicted::Timeout(at) => at,
            Evicted::Cancel => self.machine.clock(p),
        };
        let tcb = self.threads.live_mut(t);
        debug_assert_eq!(tcb.state, TState::Blocked);
        let now = at.max(tcb.blocked_at);
        tcb.state = TState::Ready;
        tcb.ready_since = now;
        // A cancel leaves any armed deadline dead: `deadline_live` discards
        // the leftover heap entry lazily.
        tcb.deadline = None;
        let obj = tcb.wait.take().and_then(|w| w.obj);
        let event = match cause {
            Evicted::Timeout(_) => {
                tcb.timed_out = true;
                EventKind::Timeout { obj }
            }
            Evicted::Cancel => {
                tcb.cancel_woken = true;
                tcb.cancel_requested = false;
                tcb.cancel_enabled = false;
                let by = tcb.canceled_by;
                EventKind::Cancel { obj, by }
            }
        };
        let (prio, affinity, record) = (tcb.attr.priority, tcb.last_proc, tcb.evict.take());
        self.recorder
            .emit(&mut self.machine, |_| Emission::event(now, p, t.0, event));
        self.sched_op(p);
        self.policy.on_ready(t, prio, now, p, affinity);
        self.unpark(now);
        let record = record.expect("a blocked thread carries its eviction record");
        let saved = self.cur.replace((t, p));
        crate::waitq::evict(self, t, record);
        self.cur = saved;
    }

    /// Consumes the current thread's timeout flag: `true` exactly when its
    /// last wake came from the deadline heap rather than the primitive.
    pub fn consume_timeout(&mut self) -> bool {
        match self.cur {
            Some((tid, _)) => std::mem::take(&mut self.threads.live_mut(tid).timed_out),
            None => false,
        }
    }

    /// Consumes the current thread's cancel-woken flag: `true` exactly when
    /// its last wake was a cancellation delivery ([`Inner::evict_wake`])
    /// rather than a grant or timeout. The resuming primitive must unwind
    /// with [`Inner::cancel_error_current`] instead of completing its wait.
    pub fn consume_cancel_woken(&mut self) -> bool {
        match self.cur {
            Some((tid, _)) => std::mem::take(&mut self.threads.live_mut(tid).cancel_woken),
            None => false,
        }
    }

    /// The [`crate::CancelError`] payload for the current thread's unwind.
    pub fn cancel_error_current(&self) -> crate::CancelError {
        let (tid, _) = self.cur.expect("cancel unwind outside a thread");
        crate::CancelError {
            thread: tid,
            by: self.threads.live(tid).canceled_by.map(ThreadId),
        }
    }

    /// Latches a cancellation request on `target` and, when the target is
    /// blocked with cancellation enabled, delivers it (`pthread_cancel`
    /// semantics). Returns `false` when the target has already exited (or
    /// the id was never issued), `true` otherwise — including when the
    /// request merely latched because the target is running or has
    /// cancellation disabled.
    ///
    /// Delivery against a *deadline-bounded* blocked wait is a genuine
    /// schedule race (the deadline may fire first in virtual time) and goes
    /// through the [`DecisionKind::CancelDelivery`] decision point: deliver
    /// now, or defer to the wait's own resolution — the resume from a timed
    /// wait is itself a cancellation point, so the deferred branch still
    /// unwinds, just at the timeout. An *unbounded* blocked wait has no
    /// other guaranteed wake, so it always delivers immediately (no
    /// decision recorded, mirroring single-candidate grant points).
    pub fn request_cancel(&mut self, target: ThreadId) -> bool {
        let Some(tcb) = self.threads.get_mut(target) else {
            return false;
        };
        if tcb.cancel_requested || tcb.cancel_woken {
            return true;
        }
        tcb.cancel_requested = true;
        tcb.canceled_by = self.cur.map(|(w, _)| w.0);
        if !tcb.cancel_enabled {
            return true;
        }
        if tcb.state == TState::Blocked {
            // Barrier waits are not cancellation points (POSIX parity):
            // the request stays latched and delivers at the thread's next
            // cancellation point after the barrier releases it.
            let barrier = tcb
                .wait
                .is_some_and(|w| w.reason == BlockReason::Barrier);
            let timed = tcb.deadline.is_some();
            // A deadline-bounded wait may also resolve on its own, so when
            // to deliver is a decision: index 1 defers to that resolution.
            let defer = if barrier || !timed {
                barrier
            } else {
                let at = self.decision_clock();
                let kind = DecisionKind::CancelDelivery;
                self.schedule.pick(kind, at, 2, Some(target.0), &[]) == 1
            };
            if !defer {
                let p = self.cur.map(|(_, p)| p).unwrap_or(0);
                self.evict_wake(target, p, Evicted::Cancel);
            }
        }
        true
    }

    /// Whether `t` is currently blocked *on sync object `obj`*: what every
    /// slot of the object's wait queue must satisfy (the queue asserts it
    /// at each grant, in debug builds).
    pub fn blocked_on(&self, t: ThreadId, obj: u32) -> bool {
        self.threads.get(t).is_some_and(|tcb| {
            tcb.state == TState::Blocked && tcb.wait.is_some_and(|w| w.obj == Some(obj))
        })
    }

    /// Publishes the holder set of a contended sync object (or retires the
    /// entry when `holders` is empty). Primitives call this only on their
    /// contended paths, so the map stays off the uncontended hot path.
    pub fn note_holders(&mut self, obj: u32, holders: Holders) {
        if !holders.as_slice().is_empty() {
            self.holders.insert(obj, holders);
        } else if !self.holders.is_empty() {
            self.holders.remove(&obj);
        }
    }

    /// Walks the waits-for graph from a prospective edge — `me` about to
    /// block on `obj` (follow its published holders) or on thread `target`
    /// (join) — and returns the cycle if one would close. Called *before*
    /// the thread enqueues, so a detected deadlock leaves every queue
    /// untouched and the caller can unwind instead of blocking.
    pub fn check_for_cycle(
        &mut self,
        me: ThreadId,
        obj: Option<u32>,
        target: Option<ThreadId>,
    ) -> Option<DeadlockInfo> {
        fn successors<'a>(holders: &'a HashMap<u32, Holders>, w: &'a Wait) -> &'a [ThreadId] {
            match (&w.target, w.obj) {
                (Some(t), _) => std::slice::from_ref(t),
                // Only a wait on an owner has a "who must act" edge.
                (None, Some(o)) if crate::waitq::owned(w.reason) => {
                    holders.get(&o).map_or(&[], Holders::as_slice)
                }
                _ => &[],
            }
        }
        fn walk(
            threads: &ThreadTable,
            holders: &HashMap<u32, Holders>,
            me: ThreadId,
            t: ThreadId,
            path: &mut Vec<(ThreadId, Option<u32>)>,
            seen: &mut Vec<ThreadId>,
        ) -> bool {
            if t == me {
                return true;
            }
            // A walk visits a handful of threads: a list beats a hash.
            if seen.contains(&t) {
                return false;
            }
            seen.push(t);
            // Exited threads, never-issued ids (the outside-a-runtime owner
            // sentinel) and runnable threads have no outgoing edge.
            let Some(tcb) = threads.get(t) else {
                return false;
            };
            if tcb.state != TState::Blocked {
                return false;
            }
            // A deadline-bounded wait cannot sustain a deadlock: the engine
            // will wake it at its deadline, breaking any cycle through it.
            if tcb.deadline.is_some() {
                return false;
            }
            // Nor can a waiter with a live cancellation request: delivery
            // will evict and unwind it, breaking the cycle.
            if tcb.cancel_requested && tcb.cancel_enabled {
                return false;
            }
            let Some(w) = tcb.wait.as_ref() else {
                return false;
            };
            path.push((t, w.obj));
            for &s in successors(holders, w) {
                if walk(threads, holders, me, s, path, seen) {
                    return true;
                }
            }
            path.pop();
            false
        }
        let edge = Wait {
            reason: obj.map_or(BlockReason::Join, |_| BlockReason::Mutex),
            obj,
            target,
        };
        let first = successors(&self.holders, &edge);
        if first.is_empty() {
            return None;
        }
        let (path, seen) = (&mut self.probe_path, &mut self.probe_seen);
        path.clear();
        seen.clear();
        path.push((me, obj));
        for &s in first {
            if walk(&self.threads, &self.holders, me, s, path, seen) {
                let at = match self.cur {
                    Some((_, p)) => self.machine.clock(p),
                    None => VirtTime::ZERO,
                };
                return Some(DeadlockInfo {
                    cycle: path.iter().map(|(t, _)| t.0).collect(),
                    objs: path.iter().map(|(_, o)| *o).collect(),
                    at,
                });
            }
        }
        None
    }

    /// Records a detected cycle: appends it to the report list and emits one
    /// `Deadlock` flight-recorder event per member (all sharing the cycle's
    /// index), naming who each member waits for and through which object.
    pub fn record_deadlock(&mut self, info: &DeadlockInfo) {
        let idx = self.deadlocks.len() as u32;
        if let Some((_, p)) = self.cur {
            let n = info.cycle.len();
            for i in 0..n {
                let (member, waits_for, obj) =
                    (info.cycle[i], info.cycle[(i + 1) % n], info.objs[i]);
                let kind = EventKind::Deadlock {
                    cycle: idx,
                    waits_for,
                    obj,
                };
                self.trace_event(p, member, kind);
            }
        }
        self.deadlocks.push(info.clone());
    }

    /// Dispatch bookkeeping for the thread whose record is `t`, on `p`.
    /// Takes the parts of the engine it works on instead of `&mut self`, so
    /// that [`run_quantum`] resolves the thread once for the whole dispatch.
    fn dispatch_prologue(
        machine: &mut Machine,
        quota: Option<u64>,
        recorder: &mut Recorder,
        t: &mut Tcb,
        p: ProcId,
    ) {
        let dispatched_at = machine.clock(p);
        machine.count_dispatch(p);
        let switch = machine.cost().ctx_switch;
        machine.thread_op(p, switch);
        let (has_run, was_ready, ready_since) =
            (t.has_run, t.state == TState::Ready, t.ready_since);
        if !has_run {
            t.stack_committed = machine.thread_first_run(p, t.stack_reserved, t.stack_committed);
            t.has_run = true;
        }
        if let Some(k) = quota {
            t.quota = k as i64;
        }
        t.state = TState::Running(p);
        t.last_proc = Some(p);
        let thread = t.id.0;
        recorder.emit(machine, |m| Emission::Dispatch {
            thread,
            at: dispatched_at,
            ready_wait: was_ready.then(|| dispatched_at.since(ready_since)),
            first_run: (!has_run).then(|| (p, m.clock(p))),
        });
    }

    /// Books a suspended fiber back into its thread's record and does what
    /// its `reason` asks: every reason but `Blocked` and `Timeslice`
    /// re-queues the thread as ready.
    fn handle_yield(&mut self, tid: ThreadId, p: ProcId, reason: YieldReason, fiber: Fiber) {
        let tcb = self.threads.live_mut(tid);
        tcb.fiber = Some(fiber);
        let at = match reason {
            YieldReason::Blocked => {
                debug_assert_eq!(tcb.state, TState::Blocked);
                return;
            }
            YieldReason::Timeslice => {
                // Keep the fiber on this processor; no queue interaction and
                // no cost — the pause exists only to interleave virtually
                // concurrent execution segments.
                debug_assert!(self.handoff[p].is_none());
                self.handoff[p] = Some((tid, true));
                return;
            }
            // Sleep until the joined child's virtual exit: publish the wake
            // at `at` (ahead of this processor's clock) and let the
            // processor take other ready work meanwhile. With nothing else
            // runnable the pop returns `NotYet(at)` and the processor idles
            // to `at` exactly as the old inline wait did.
            YieldReason::JoinWake { at } => at.max(self.machine.clock(p)),
            YieldReason::Forked { .. } | YieldReason::Preempted | YieldReason::Yielded => {
                self.machine.clock(p)
            }
        };
        let prio = tcb.attr.priority;
        tcb.state = TState::Ready;
        tcb.ready_since = at;
        if matches!(reason, YieldReason::Preempted) {
            self.recorder.emit(&mut self.machine, |_| {
                Emission::event(at, p, tid.0, EventKind::Preempt)
            });
        }
        self.sched_op(p);
        self.policy.on_ready(tid, prio, at, p, Some(p));
        self.unpark(at);
        if let YieldReason::Forked { child } = reason {
            debug_assert!(self.handoff[p].is_none());
            self.handoff[p] = Some((child, false));
        }
    }

    /// The half of `tid`'s exit that fixes its exit time: frees its
    /// modelled stack and takes it out of the policy. A fiber runs it
    /// itself, as its last act, and leaves the time in its join cell
    /// ([`fiber_body`]); [`Inner::retire`] does the rest once the fiber has
    /// completed.
    fn exit_thread(&mut self, tid: ThreadId, p: ProcId) -> VirtTime {
        let (reserved, committed) = {
            let t = self.threads.live(tid);
            debug_assert!(t.fiber.is_none() && t.evict.is_none());
            (t.stack_reserved, t.stack_committed)
        };
        self.machine.thread_exit(p, reserved, committed);
        self.policy.on_exit(tid);
        let exit_time = self.machine.clock(p);
        self.recorder.emit(&mut self.machine, |_| Emission::Exit {
            thread: tid.0,
            at: exit_time,
        });
        exit_time
    }

    /// The rest of exited `tid`'s exit: drops its record, releases its TLS
    /// values and wakes its joiner.
    fn retire(&mut self, tid: ThreadId, p: ProcId) {
        let joiner = self.threads.retire(tid);
        // pthread TSD semantics: destroy the exiting thread's specific
        // values now, not at key drop — otherwise every exited thread leaks
        // a map slot per key for the rest of the run. Cleaners hold only
        // their key's own map, so calling them under the engine borrow is
        // fine (TLS value destructors must not call back into the runtime).
        let cleaners = std::mem::take(&mut self.tls_cleaners);
        let tls_freed: u64 = cleaners.iter().map(|clean| clean(tid)).sum();
        self.tls_cleaners = cleaners;
        if tls_freed > 0 {
            if let Some(ledger) = self.ledger.as_mut() {
                ledger.release_tls(tid.0, tls_freed);
            }
        }
        self.live -= 1;
        if let Some(j) = joiner {
            // A joiner that timed out or was cancelled withdrew its
            // registration with that wake (`Evict::Joiner`): whoever is
            // still registered is blocked on this exit.
            debug_assert_eq!(self.threads.live(j).state, TState::Blocked);
            self.make_ready(j, p);
        }
    }

    /// True when `t`'s armed deadline is exactly `at` and it is still
    /// blocked — i.e. the heap entry is live, not a leftover from a wait
    /// that was satisfied normally (whose thread may since have exited).
    fn deadline_live(&self, t: ThreadId, at: VirtTime) -> bool {
        self.threads
            .get(t)
            .is_some_and(|tcb| tcb.state == TState::Blocked && tcb.deadline == Some(at))
    }

    /// Earliest live deadline armed on `p`, discarding stale heap entries.
    fn next_live_deadline(&mut self, p: ProcId) -> Option<VirtTime> {
        while let Some((at, token)) = self.machine.peek_deadline(p) {
            if self.deadline_live(ThreadId(token as u32), at) {
                return Some(at);
            }
            self.machine.pop_deadline(p);
        }
        None
    }

    /// Earliest live deadline on *any* processor's heap (parked ones
    /// included — their entries fire once the active processors' clocks
    /// pass them).
    fn next_live_deadline_any(&mut self) -> Option<VirtTime> {
        if !self.machine.has_deadlines() {
            return None;
        }
        (0..self.parked.len())
            .filter_map(|q| self.next_live_deadline(q))
            .min()
    }

    /// The firing floor seen from `p` once its own clock has moved (idling):
    /// the minimum of its clock and its causal horizon.
    fn wake_floor(&self, p: ProcId, horizon: Option<VirtTime>) -> VirtTime {
        let me = self.machine.clock(p);
        horizon.map_or(me, |h| me.min(h))
    }

    /// Fires every live deadline — on any processor's heap — due at or
    /// before `floor`: the latest virtual time up to which the
    /// wake-vs-timeout race is already decided, i.e. the minimum clock over
    /// the non-parked processors. Every future wake is timestamped at its
    /// publisher's (monotone) clock, so no wake earlier than the floor can
    /// appear. Firing is deferred, never early: a deadline beyond the floor
    /// stays armed so a slower processor can still win the race with a
    /// virtually-earlier wake. Returns whether any fired.
    ///
    /// With no deadline armed, or none that `floor` has reached, that is one
    /// load and a compare: the machine's bound says no heap holds an entry
    /// at or before `floor`, so there is nothing to fire. Nor is anything
    /// discarded then: a stale entry stays at the top of its heap until the
    /// floor reaches it, which keeps [`Machine::has_deadlines`] true for
    /// longer and so only keeps the engine off its serial fast path.
    fn fire_due_timeouts(&mut self, floor: VirtTime) -> bool {
        if floor < self.machine.deadline_bound() {
            return false;
        }
        #[cfg(test)]
        {
            self.round_stats.deadline_scans += 1;
        }
        // Gather every live due deadline first: the firing order among
        // simultaneously-due timeouts is itself a scheduling decision
        // point, and the re-admission one firing's eviction runs may
        // satisfy (and thereby cancel) a later gathered one, which the
        // per-entry liveness re-check below discards.
        let mut due = std::mem::take(&mut self.due);
        for q in 0..self.parked.len() {
            while let Some((at, token)) = self.machine.peek_deadline(q) {
                let t = ThreadId(token as u32);
                if !self.deadline_live(t, at) {
                    self.machine.pop_deadline(q);
                    continue;
                }
                if at > floor {
                    break;
                }
                self.machine.pop_deadline(q);
                due.push((t, q, at));
            }
        }
        self.machine.tighten_deadline_bound();
        self.schedule
            .order(DecisionKind::TimeoutOrder, None, &mut due, |d| d.2);
        let mut fired = false;
        for (t, q, at) in due.drain(..) {
            if !self.deadline_live(t, at) {
                continue; // an earlier firing's eviction already woke it
            }
            self.evict_wake(t, q, Evicted::Timeout(at));
            fired = true;
        }
        self.due = due;
        fired
    }

    /// The watchdog's verdict when all processors are idle with live
    /// threads: who is alive, what each waits on, and since when.
    fn stall_info(&self) -> StallInfo {
        let at = (0..self.parked.len())
            .map(|q| self.machine.clock(q))
            .max()
            .unwrap_or(VirtTime::ZERO);
        let threads = self
            .threads
            .live_ids()
            .map(|id| {
                let t = self.threads.live(id);
                StalledThread {
                    thread: id.0,
                    reason: t.wait.map(|w| w.reason),
                    obj: t.wait.and_then(|w| w.obj),
                    since: t.blocked_at,
                }
            })
            .collect();
        StallInfo {
            at,
            scheduler: self.policy.kind().name().to_string(),
            threads,
        }
    }
}

/// Runs `f` as the root thread of a fresh virtual-SMP runtime and returns
/// its result together with the run's [`Report`].
///
/// This is the reproduction's equivalent of launching a multithreaded
/// Solaris process on the Enterprise 5000: `config` selects the processor
/// count, scheduler, default stack size and cost model.
///
/// # Panics
/// Propagates a panic of the root thread. Panics in spawned threads are
/// delivered at their `join`. Panics with the watchdog's [`RunError`] when
/// the run stalls (all processors idle with live threads) — use
/// [`try_run`] to receive the stall verdict as a value instead.
pub fn run<T: 'static>(config: Config, f: impl FnOnce() -> T + 'static) -> (T, Report) {
    match try_run(config, f) {
        Ok(v) => v,
        Err(e) => panic!("{e}"),
    }
}

/// Like [`run`], but a stalled run — all processors idle while threads are
/// still alive (lost wakeup, partial deadlock, abandoned barrier) — returns
/// the watchdog's [`RunError`] verdict instead of panicking. The verdict
/// names every live thread, what it waits on, and since when; the partial
/// [`Report`] (including any detected waits-for cycles) rides along.
///
/// On a stall the surviving threads are force-unwound: their destructors
/// run (locks release, TLS values drop), but their closure results are
/// discarded.
///
/// # Panics
/// Propagates a panic of the root thread, like [`run`].
pub fn try_run<T: 'static>(
    config: Config,
    f: impl FnOnce() -> T + 'static,
) -> Result<(T, Report), RunError> {
    let inner_rc = Rc::new(RefCell::new(Inner::new(&config)));
    let root = Rc::new(JoinCell::new());
    let guard = install(ActiveCtx::Par(inner_rc.clone()));

    {
        let mut inner = inner_rc.borrow_mut();
        let stack = inner.acquire_fiber_stack();
        let fiber = make_fiber(stack, root.clone(), f);
        let _ = inner.create_thread(None, 0, Attr::default(), Some(fiber), Kind::Root);
    }

    let stalled = engine_loop(&inner_rc);
    if stalled.is_some() {
        // Tear down the surviving fibers while the runtime context is still
        // installed: each drop force-unwinds its fiber so destructors (lock
        // guards, TLS values) run. The bookkeeping hooks they reach are
        // lenient about `cur == None` and no-op during this sweep. The
        // fibers are collected under one borrow — in ascending id order,
        // which is the order they unwind in — and dropped outside it, so
        // destructor code may re-borrow the runtime.
        let fibers: Vec<Fiber> = {
            let mut inner = inner_rc.borrow_mut();
            inner.cur = None;
            let live: Vec<ThreadId> = inner.threads.live_ids().collect();
            live.into_iter()
                .filter_map(|t| inner.threads.live_mut(t).fiber.take())
                .collect()
        };
        drop(fibers);
    }
    drop(guard);

    // A panic that escaped the root waits in its cell, like any thread's.
    if let Some(payload) = root.exit.take_panic() {
        drop(inner_rc);
        resume_unwind(payload);
    }
    let mut inner = inner_rc.borrow_mut();
    let total_threads = inner.threads.issued();
    let steals = inner.policy.steals();
    // The machine-level recording (memory events, exact counter tracks)
    // leaves before the machine is consumed.
    let recording = inner.machine.take_recording();
    let mut stats = {
        let machine = std::mem::replace(
            &mut inner.machine,
            Machine::new(1, config.cost.clone(), config.default_stack),
        );
        machine.finish()
    };
    // Fold the host stack-pool counters into the memory stats. The machine's
    // own accounting (footprint, live bytes) is untouched — pool slabs are
    // host memory, reported in their own fields so virtual footprint numbers
    // stay bit-identical to pre-pool runs.
    let pool = inner.stack_pool.stats();
    stats.mem.host_stack_hits = pool.hits;
    stats.mem.host_stack_misses = pool.misses;
    stats.mem.host_stack_cached_hwm = pool.cached_bytes_hwm;
    // The runtime records its phases (dispatch, sched-pop, trace-alloc)
    // directly into the machine's profiler, so `stats.host_phase` is already
    // complete; the trace carries it so standalone trace tools can report it.
    let recorder = std::mem::take(&mut inner.recorder);
    let trace = recorder.finish(recording, &mut inner.schedule, stats.host_phase);
    let leaks = inner
        .ledger
        .take()
        .map(|l| l.report(stats.mem.free_underflows));
    let deadlocks = std::mem::take(&mut inner.deadlocks);
    drop(inner);
    let mut report = Report::new(&config, stats, total_threads, steals, trace, leaks, deadlocks);
    match stalled {
        None => {
            let value = root
                .value
                .take()
                .expect("root thread completed without a value");
            Ok((value, report))
        }
        Some(stall) => {
            report.stalled = Some(stall.clone());
            Err(RunError {
                stall,
                report: Box::new(report),
            })
        }
    }
}

/// The body of a thread's fiber: registers its yielder, runs `f`, and
/// leaves what a join needs in `cell` — the value or the panic, then the
/// exit time, by running the first half of its own exit
/// ([`Inner::exit_thread`]). A forced unwind (the stall sweep) passes
/// through and leaves the cell as it was.
pub(crate) fn fiber_body<T, C: AsRef<JoinCell<T>>>(
    cell: Rc<C>,
    f: impl FnOnce() -> T,
) -> impl FnOnce(&FiberYielder, ()) {
    // With the portable thread backend, each fiber runs on its own OS
    // thread, which starts with an empty thread-local context; capture the
    // engine's context now (on the engine thread) and install it when the
    // fiber first runs. A no-op under the single-thread assembly backend.
    let ctx = with_active(|c| match c {
        Some(ActiveCtx::Par(rc)) => Some(rc.clone()),
        _ => None,
    });
    move |yielder: &FiberYielder, ()| {
        if let Some(rc) = ctx {
            adopt_context(rc);
        }
        register_yielder(yielder);
        let join = (*cell).as_ref();
        let body = AssertUnwindSafe(|| {
            let value = f();
            // A detached thread's value is dropped here, as the last step
            // of its closure: before its exit, and caught like it.
            if !join.detached.get() {
                join.value.set(Some(value));
            }
        });
        match catch_unwind(body) {
            Ok(()) => {}
            Err(payload) if payload.is::<ForcedUnwind>() => resume_unwind(payload),
            Err(payload) => join.exit.set_panic(payload),
        }
        join.exit.set_time(exit_current());
    }
}

/// The fiber for a thread running `f` on `stack` (usually from
/// [`Inner::acquire_fiber_stack`]; it goes back to the pool when the fiber
/// completes). The scope API builds its fibers from [`fiber_body`] itself,
/// with the lifetime-erasing constructor.
pub(crate) fn make_fiber<T: 'static>(
    stack: Stack,
    cell: Rc<JoinCell<T>>,
    f: impl FnOnce() -> T + 'static,
) -> Fiber {
    Coroutine::with_stack(stack, fiber_body(cell, f))
}

/// Installs the runtime context into the calling OS thread's slot if it has
/// none (fiber threads under the portable backend). Serialized by the
/// backend's rendezvous discipline.
fn adopt_context(rc: Rc<RefCell<Inner>>) {
    ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        if slot.is_none() {
            *slot = Some(ActiveCtx::Par(rc));
        }
    });
}

fn register_yielder(y: &crate::thread::FiberYielder) {
    with_active(|ctx| {
        let Some(ActiveCtx::Par(rc)) = ctx else {
            panic!("fiber running without an active runtime")
        };
        let mut inner = rc.borrow_mut();
        let (tid, _) = inner.cur.expect("fiber running without cur");
        inner.threads.live_mut(tid).yielder = y as *const _;
    });
}

/// [`Inner::exit_thread`] for the calling thread, from its own fiber.
fn exit_current() -> VirtTime {
    with_active(|ctx| {
        let Some(ActiveCtx::Par(rc)) = ctx else {
            panic!("fiber running without an active runtime")
        };
        let mut inner = rc.borrow_mut();
        let (tid, p) = inner.cur.expect("fiber running without cur");
        inner.exit_thread(tid, p)
    })
}

/// Suspends the current fiber with `reason`; returns when redispatched.
pub(crate) fn suspend_current(rc: &Rc<RefCell<Inner>>, reason: YieldReason) {
    let yielder = {
        let inner = rc.borrow();
        let (tid, _) = inner.cur.expect("suspend outside a thread");
        inner.threads.live(tid).yielder
    };
    assert!(!yielder.is_null(), "suspend before yielder registration");
    // SAFETY: the yielder lives on the current fiber's stack for the whole
    // fiber lifetime; we are that fiber.
    let yielder = unsafe { &*yielder };
    yielder.suspend(reason);
}

/// Virtual-time quantum after which a fiber that has run ahead of every
/// other active processor pauses so virtually-concurrent segments
/// interleave (see [`YieldReason::Timeslice`]).
const TIMESLICE: VirtTime = VirtTime::from_us(200);

/// Suspends the current fiber (cost-free) if its processor's clock is more
/// than one [`TIMESLICE`] ahead of every other non-parked processor.
pub(crate) fn maybe_timeslice(rc: &Rc<RefCell<Inner>>) {
    let should = {
        let inner = rc.borrow();
        match inner.cur {
            Some((tid, p)) => inner.timeslice_due(tid, p),
            None => false,
        }
    };
    if should {
        suspend_current(rc, YieldReason::Timeslice);
    }
}

/// Under a perturbed schedule, probabilistically preempts the current
/// thread at a sync-operation boundary — exactly the points where a real
/// SMP's involuntary preemption exposes sync-protocol windows, and where
/// threads hold locks. The perturbation yield is drawn first, the chaos
/// yield once any suspend it caused has resumed. Each reuses
/// [`maybe_timeslice`]'s Running-state guard: a thread that has already
/// registered itself on a wait queue must not also be requeued as ready.
pub(crate) fn maybe_preempt(rc: &Rc<RefCell<Inner>>) {
    for chaos in [false, true] {
        let should = {
            let mut inner = rc.borrow_mut();
            // Schedule first: every sync-operation boundary of every run
            // comes through here, and almost none preempts.
            if !inner.schedule.preempts(chaos) {
                return;
            }
            let Some((tid, p)) = inner.cur else {
                return;
            };
            inner.running_on(tid, p) && inner.schedule.preempt(chaos)
        };
        if should {
            suspend_current(rc, YieldReason::Yielded);
        }
    }
}

/// What one pass over the processors tells a scheduling round: who runs
/// next, how far the timeout race is decided, and how far anyone may run
/// ahead. Computed once per round ([`Inner::scan_procs`]); every per-round
/// question about processor clocks is answered from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RoundScan {
    /// Non-parked processors.
    unparked: usize,
    /// The non-parked processor with the smallest clock (lowest index on
    /// ties) and that clock — the minimum over the non-parked processors,
    /// which is also the floor up to which the wake-vs-timeout race is
    /// decided (see [`Inner::fire_due_timeouts`]). `None` when every
    /// processor is parked.
    lead: Option<(ProcId, VirtTime)>,
    /// The minimum over the non-parked processors other than the lead
    /// (equal to its clock on a tie); `None` when there is no other.
    second: Option<VirtTime>,
}

impl RoundScan {
    fn of(parked: &[bool], clock: impl Fn(ProcId) -> VirtTime) -> Self {
        let mut scan = RoundScan {
            unparked: 0,
            lead: None,
            second: None,
        };
        for q in (0..parked.len()).filter(|&q| !parked[q]) {
            let c = clock(q);
            scan.unparked += 1;
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
    /// excluded because [`Inner::unpark`] idles them forward to the
    /// publication that revives them: they can never act before an active
    /// processor's present.
    ///
    /// Stays valid while only `p`'s own clock advances (dispatch costs,
    /// idling): the answer never involves it.
    fn min_other(&self, p: ProcId) -> Option<VirtTime> {
        match self.lead {
            Some((q, _)) if q == p => self.second,
            lead => lead.map(|(_, min)| min),
        }
    }
}

fn engine_loop(inner_rc: &Rc<RefCell<Inner>>) -> Option<StallInfo> {
    loop {
        let mut inner = inner_rc.borrow_mut();
        if inner.live == 0 {
            return None;
        }
        // The round's one pass over the processors.
        let scan = inner.scan_procs();
        let Some((best, floor)) = scan.lead else {
            // All processors parked. A live timed wait still guarantees
            // progress: advance the earliest-deadline processor to its
            // deadline and fire it — with everyone parked no wake can
            // materialize, so the race is decided. With no deadline armed
            // the run is stalled: hand the watchdog's verdict up instead
            // of panicking here.
            let due = (0..inner.parked.len())
                .filter_map(|q| inner.next_live_deadline(q).map(|d| (d, q)))
                .min();
            match due {
                Some((d, q)) => {
                    inner.set_parked(q, false);
                    inner.machine.idle_until(q, d);
                    inner.fire_due_timeouts(d);
                    continue;
                }
                None => return Some(inner.stall_info()),
            }
        };
        // Serial fast path (the cycle-box analogue): with no deadline
        // outstanding and exactly one runnable processor holding a direct
        // handoff, the full scheduling round is provably a no-op beyond
        // taking the handoff — the min-clock pick has no rivals (so the
        // perturbed tie-break draws nothing), and no timeout can fire with
        // no deadline armed. The guard re-evaluates
        // every iteration, so the engine falls back to the event-heap round
        // the instant a second processor unparks or a deadline is armed.
        if scan.unparked == 1 && !inner.machine.has_deadlines() {
            if let Some((tid, ts_resume)) = inner.handoff[best].take() {
                run_quantum(inner, inner_rc, best, tid, ts_resume, None);
                continue;
            }
        }
        #[cfg(test)]
        {
            inner.round_stats.rounds += 1;
        }
        // Minimum-clock runnable processor. Under perturbation, ties at the
        // minimum clock break pseudo-randomly instead of always toward the
        // lowest index — this is the main source of genuinely different
        // (but still causally valid) event interleavings.
        let p = inner.tie_break(best, DecisionKind::DispatchTie, |inner, r| !inner.parked[r]);
        // `p`'s causal horizon. Only `p`'s own clock moves from here to the
        // resume — unless a timeout fires, whose wake charges the waiter's
        // processor and may unpark another: then the round scans again.
        let mut horizon = scan.min_other(p);
        // Deliver every timed wait whose deadline the whole machine has
        // passed, before this processor picks new work. `p` holds the
        // minimum clock right now, so the floor is its own clock.
        if inner.fire_due_timeouts(floor) {
            horizon = inner.scan_procs().min_other(p);
        }
        let (tid, ts_resume) = if let Some((child, resume)) = inner.handoff[p].take() {
            (child, resume)
        } else {
            inner.sched_op(p);
            let now = inner.machine.clock(p);
            let t0 = inner.machine.prof_open();
            let popped = inner.policy.pop(p, now);
            inner.machine.prof_close(t0, |hp| &mut hp.sched_pop);
            match popped {
                Pop::Got { tid, stolen } => {
                    if stolen {
                        // Migration: pay an extra switch for the cold start.
                        let c = inner.machine.cost().ctx_switch;
                        inner.machine.thread_op(p, c);
                        let inner = &mut *inner;
                        inner.recorder.emit(&mut inner.machine, |m| {
                            let victim = inner.policy.last_steal_victim().map(|v| v as u32);
                            Emission::event(m.clock(p), p, tid.0, EventKind::Steal { victim })
                        });
                    }
                    let inner = &mut *inner;
                    inner.recorder.emit(&mut inner.machine, |m| Emission::Sample {
                        at: m.clock(p),
                        ready: inner.policy.ready_len() as u64,
                        deques: inner.policy.active_deques().map(|d| d as u64),
                    });
                    (tid, false)
                }
                Pop::NotYet(t) => {
                    // Idle only as far as the nearest *decidable* armed
                    // deadline, so a timed wait fires on schedule even when
                    // the next ready entry lies beyond it. A deadline past
                    // the causal horizon (another processor still trails
                    // it) must not short-stop the idle: that processor may
                    // yet publish the earlier wake, and the post-idle
                    // firing floor defers the timeout either way.
                    let mut until = t;
                    if let Some(d) = inner.next_live_deadline_any() {
                        let decidable = horizon.is_none_or(|h| d <= h);
                        if decidable && d < until {
                            until = d;
                        }
                    }
                    inner.machine.idle_until(p, until);
                    let floor = inner.wake_floor(p, horizon);
                    inner.fire_due_timeouts(floor);
                    continue;
                }
                Pop::Empty => {
                    // An idle processor is what keeps timed waits honest:
                    // it advances to the earliest armed deadline — but only
                    // as fast as the slowest active processor (the causal
                    // horizon), so a wake published from virtually behind
                    // the deadline still wins the race. At the horizon with
                    // the deadline still ahead, park: either a wake revives
                    // this processor, or everyone ends up parked and the
                    // all-parked arm above fires the deadline.
                    if let Some(d) = inner.next_live_deadline_any() {
                        let now = inner.machine.clock(p);
                        match horizon {
                            None => {
                                inner.machine.idle_until(p, d);
                                inner.fire_due_timeouts(d);
                                continue;
                            }
                            Some(h) if d <= h => {
                                inner.machine.idle_until(p, d);
                                let floor = inner.wake_floor(p, horizon);
                                inner.fire_due_timeouts(floor);
                                continue;
                            }
                            Some(h) if h > now => {
                                inner.machine.idle_until(p, h);
                                continue;
                            }
                            Some(_) => {} // at the horizon already: park
                        }
                    }
                    inner.set_parked(p, true);
                    continue;
                }
            }
        };
        run_quantum(inner, inner_rc, p, tid, ts_resume, horizon);
    }
}

/// Runs one scheduling quantum: dispatch bookkeeping, the fiber resume (or
/// the inline dummy body), yield/completion handling, and span recording.
/// Shared tail of the engine loop's full round and serial fast path.
/// `horizon` is `p`'s causal horizon from the round's scan.
fn run_quantum(
    mut guard: std::cell::RefMut<'_, Inner>,
    inner_rc: &Rc<RefCell<Inner>>,
    p: ProcId,
    tid: ThreadId,
    ts_resume: bool,
    horizon: Option<VirtTime>,
) {
    let inner = &mut *guard;
    let tcb = inner.threads.live_mut(tid);
    inner.cur = Some((tid, p));
    // A time-sliced fiber continues cost-free; anything else is a dispatch.
    if !ts_resume {
        let t0 = inner.machine.prof_open();
        let quota = inner.policy.quota();
        Inner::dispatch_prologue(&mut inner.machine, quota, &mut inner.recorder, tcb, p);
        inner.machine.prof_close(t0, |hp| &mut hp.dispatch);
    }
    // The dispatched fiber's timeslice reference clock for this quantum.
    inner.ts_min_other = horizon;
    let span_start = inner.machine.clock(p);
    let dummy = tcb.kind == Kind::Dummy;
    let mut guard = if dummy {
        // Dummies perform a no-op and exit (paper §4 item 2); their cost
        // is creation + dispatch + exit bookkeeping. A dummy standing
        // for a subtree of the lazy binary tree forks its two children
        // before exiting.
        let remaining = tcb.dummy_remaining;
        if remaining > 1 {
            inner.create_dummy_tree(tid, p, remaining - 1);
        }
        inner.machine.compute(p, 100);
        inner.exit_thread(tid, p);
        inner.retire(tid, p);
        guard
    } else {
        let mut fiber = tcb.fiber.take().expect("dispatched thread has no fiber");
        drop(guard);
        let step = fiber.resume(());
        let mut inner = inner_rc.borrow_mut();
        match step {
            Step::Yield(reason) => inner.handle_yield(tid, p, reason, fiber),
            Step::Complete(()) => {
                // Recycle the completed fiber's host stack for the next
                // spawn (the portable backend has no real stack to return).
                if let Some(stack) = fiber.into_stack() {
                    inner.recycle_fiber_stack(stack);
                }
                inner.retire(tid, p);
            }
        }
        inner
    };
    let kind = if ts_resume {
        SpanKind::Resume
    } else if dummy {
        SpanKind::Dummy
    } else {
        SpanKind::Run
    };
    let inner = &mut *guard;
    inner.recorder.emit(&mut inner.machine, |m| {
        Emission::Span(Span {
            proc: p,
            thread: tid.0,
            start: span_start,
            end: m.clock(p),
            kind,
        })
    });
}

/// Implementation of [`fn@crate::cancel`]: resolves the active runtime and
/// latches/delivers the request. Outside a runtime there is nothing to
/// cancel; report `false`.
pub(crate) fn cancel_impl(tid: ThreadId) -> bool {
    with_active(|ctx| match ctx {
        Some(ActiveCtx::Par(rc)) => rc.borrow_mut().request_cancel(tid),
        _ => false,
    })
}

/// Implementation of [`crate::cancel_point`]: an explicit cancellation
/// point on the calling thread. No-op outside the runtime.
pub(crate) fn cancel_point_impl() {
    let rc = with_active(|ctx| match ctx {
        Some(ActiveCtx::Par(rc)) => Some(rc.clone()),
        _ => None,
    });
    if let Some(rc) = rc {
        deliver_cancel(&rc);
    }
}

/// Implementation of [`crate::set_cancel_enabled`]: swaps the current
/// thread's cancel state, returning the previous one. Re-enabling does
/// *not* deliver a latched request by itself — delivery waits for the next
/// cancellation point, per POSIX `pthread_setcancelstate`.
pub(crate) fn set_cancel_enabled_impl(enabled: bool) -> bool {
    with_active(|ctx| match ctx {
        Some(ActiveCtx::Par(rc)) => {
            let mut inner = rc.borrow_mut();
            match inner.cur {
                Some((tid, _)) => {
                    std::mem::replace(&mut inner.threads.live_mut(tid).cancel_enabled, enabled)
                }
                None => true,
            }
        }
        _ => true,
    })
}

/// Delivers a latched cancellation request on the *current, running*
/// thread, if one is pending and cancellation is enabled: clears the
/// request, disables further cancellation (the unwind's own sync
/// operations must not re-deliver), emits the `Cancel` event (`obj: None`
/// — there is no wait queue to leave), and unwinds with a
/// [`crate::CancelError`]. Every cancellation point calls this on entry;
/// returns normally when nothing is pending.
pub(crate) fn deliver_cancel(rc: &Rc<RefCell<Inner>>) {
    let err = {
        let mut inner = rc.borrow_mut();
        let Some((tid, p)) = inner.cur else {
            return;
        };
        let tcb = inner.threads.live_mut(tid);
        if !(tcb.cancel_requested && tcb.cancel_enabled) {
            return;
        }
        tcb.cancel_requested = false;
        tcb.cancel_enabled = false;
        let by = tcb.canceled_by;
        inner.trace_event(p, tid.0, EventKind::Cancel { obj: None, by });
        crate::CancelError {
            thread: tid,
            by: by.map(ThreadId),
        }
    };
    raise_cancel(err)
}

/// Unwinds the current thread with `err` as the payload. Cancellation is
/// control flow, not a fault, so it starts the unwind directly
/// (`resume_unwind`): `panic_any` would first run the process's panic hook,
/// which by default prints a "panicked at" line per cancelled thread.
#[cold]
pub(crate) fn raise_cancel(err: crate::CancelError) -> ! {
    resume_unwind(Box::new(err))
}

/// The shared resume-side cancellation check: when the wake that resumed
/// the current thread was a cancel [`Inner::evict_wake`], unwind with the
/// structured [`crate::CancelError`] instead of completing the wait. The
/// `Cancel` event was already emitted by the wake; this only raises.
pub(crate) fn unwind_if_cancel_woken(rc: &Rc<RefCell<Inner>>) {
    let err = {
        let mut inner = rc.borrow_mut();
        if !inner.consume_cancel_woken() {
            return;
        }
        inner.cancel_error_current()
    };
    raise_cancel(err)
}

/// Implementation of [`JoinHandle::join`]: re-raises a child panic in the
/// joiner (pthread `join` semantics on a cancelled/aborted thread); a
/// cancelled child re-raises its structured [`crate::CancelError`].
pub(crate) fn join_impl<T>(h: &JoinHandle<T>) -> T {
    match try_join_impl(h) {
        Ok(v) => v,
        Err(JoinError::Panicked(payload)) => resume_unwind(payload),
        Err(JoinError::Canceled(e)) => raise_cancel(e),
        Err(e @ JoinError::NoValue) => panic!("{e}"),
    }
}

/// Implementation of [`JoinHandle::try_join`]: waits for the child exactly
/// like `join`, but surfaces a child panic (or a missing value) as a
/// [`JoinError`] instead of unwinding the joiner.
pub(crate) fn try_join_impl<T>(h: &JoinHandle<T>) -> Result<T, JoinError> {
    if let Some(rc) = owning_run(h.run) {
        if let Some(payload) = untimed(join_wait_in(&rc, h.id, &h.cell.exit, None)) {
            return Err(JoinError::of(payload));
        }
    }
    h.cell.value.take().ok_or(JoinError::NoValue)
}

/// The active run, when it is the one that made a handle stamped `run`
/// (see [`JoinHandle`]'s `run` field). `None` for an inline handle, outside
/// any run, and inside a different run — where the handle's thread is long
/// complete and its id means nothing.
pub(crate) fn owning_run(run: Option<u64>) -> Option<Rc<RefCell<Inner>>> {
    let run = run?;
    with_active(|ctx| match ctx {
        Some(ActiveCtx::Par(rc)) if rc.borrow().run_token == run => Some(rc.clone()),
        _ => None,
    })
}

/// Blocks the current thread until `target`, a thread of the active run
/// whose cell holds `exit`, exits. Returns the target's panic payload, if
/// it panicked; the caller decides whether to re-raise.
pub(crate) fn join_wait(target: ThreadId, exit: &Exit) -> Option<Payload> {
    let rc = with_active(|ctx| match ctx {
        Some(ActiveCtx::Par(rc)) => rc.clone(),
        _ => panic!("join on a runtime thread outside the runtime"),
    });
    untimed(join_wait_in(&rc, target, exit, None))
}

/// Waits for `target`'s exit — recorded in `exit`, from its cell — at most
/// `timeout` of virtual time if there is one: `Err(TimedOut)` when `target`
/// has not (virtually) exited by then; otherwise the target's panic
/// payload, if it panicked.
fn join_wait_in(
    rc: &Rc<RefCell<Inner>>,
    target: ThreadId,
    exit: &Exit,
    timeout: Option<VirtTime>,
) -> Result<Option<Payload>, crate::TimedOut> {
    // Join is a cancellation point (POSIX): deliver on entry…
    deliver_cancel(rc);
    let mut deadline: Option<VirtTime> = None;
    loop {
        let mut inner = rc.borrow_mut();
        // Lenient on context: a scope guard unwinding during stall teardown
        // joins children that will never run; report "no value" upstream
        // instead of tearing the process down with a nested panic.
        let Some((cur, p)) = inner.cur else {
            return Ok(None);
        };
        let now = inner.machine.clock(p);
        if let Some(timeout) = timeout {
            deadline.get_or_insert(VirtTime::from_ns(now.as_ns().saturating_add(timeout.as_ns())));
        }
        if let Some(exit_time) = exit.time() {
            if let Some(deadline) = deadline.filter(|&d| exit_time > d) {
                // The child's virtual exit lies beyond our budget: sleep to
                // the deadline (greedily, like `JoinWake`) and report the
                // timeout at exactly the promised virtual instant.
                drop(inner);
                suspend_current(rc, YieldReason::JoinWake { at: deadline });
                return Err(crate::TimedOut);
            }
            // Happens-before: join cannot return before the child's virtual
            // exit, even when the engine (real-time) ran the child first.
            if now < exit_time {
                // The exit lies in this processor's virtual future. Don't
                // idle the processor across the gap — that would be
                // non-greedy (and breaks Brent's bound when other work is
                // ready). Sleep until the exit becomes visible instead.
                drop(inner);
                suspend_current(rc, YieldReason::JoinWake { at: exit_time });
                continue;
            }
            let c = inner.machine.cost().join_exited;
            inner.machine.thread_op(p, c);
            inner.trace_event(p, cur.0, EventKind::Join { target: target.0 });
            return Ok(exit.take_panic());
        }
        assert!(
            inner.threads.live(target).joiner.is_none(),
            "two threads joining {target}"
        );
        // A join edge can close a waits-for cycle just like a lock edge
        // (t1 joins t2 while t2 blocks on a mutex t1 holds). Check before
        // registering as joiner, and unwind instead of blocking forever —
        // unless the wait is timed: its deadline breaks any cycle.
        if timeout.is_none() {
            if let Some(info) = inner.check_for_cycle(cur, None, Some(target)) {
                inner.record_deadlock(&info);
                drop(inner);
                std::panic::panic_any(DeadlockError { info });
            }
        }
        // The registration is a one-slot wait queue on the target: its exit
        // grants it, and a deadline or a cancel withdraws it with the wake
        // (`Evict::Joiner`), so the exit never meets a dead joiner.
        inner.threads.live_mut(target).joiner = Some(cur);
        let wait = Wait {
            reason: BlockReason::Join,
            obj: None,
            target: Some(target),
        };
        let left = deadline.map(|d| VirtTime::from_ns(d.as_ns().saturating_sub(now.as_ns())));
        inner.park(wait, left, Evict::Joiner(target));
        drop(inner);
        parked(rc, timeout.is_some())?;
    }
}

/// Implementation of [`JoinHandle::join_timeout`]: waits at most `timeout`
/// of virtual time, returning the handle back on expiry.
pub(crate) fn join_timeout_impl<T>(
    h: JoinHandle<T>,
    timeout: VirtTime,
) -> Result<T, JoinHandle<T>> {
    if let Some(rc) = owning_run(h.run) {
        match join_wait_in(&rc, h.id, &h.cell.exit, Some(timeout)) {
            Ok(Some(payload)) => resume_unwind(payload),
            Ok(None) => {}
            Err(crate::TimedOut) => return Err(h),
        }
    }
    match h.cell.value.take() {
        Some(v) => Ok(v),
        None => panic!("{}", JoinError::NoValue),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spawn, yield_now, SchedKind};
    use ptdf_smp::Prng;

    /// The running engine's round statistics so far (call from a thread of
    /// the run).
    fn round_stats() -> RoundStats {
        with_active(|ctx| match ctx {
            Some(ActiveCtx::Par(rc)) => rc.borrow().round_stats,
            _ => panic!("round_stats outside a run"),
        })
    }

    /// Slab slots of the running engine's thread table.
    fn table_slots() -> usize {
        with_active(|ctx| match ctx {
            Some(ActiveCtx::Par(rc)) => rc.borrow().threads.slots(),
            _ => panic!("table_slots outside a run"),
        })
    }

    #[test]
    fn the_thread_table_holds_one_record_per_thread_alive_at_the_peak() {
        // The host table tracks the model's own space quantity: after
        // 10,000 threads its slab is exactly as long as the most threads
        // that were ever alive at once (S1 + O(p·D) under DF), whatever
        // the policy makes that number.
        for sched in [SchedKind::Df, SchedKind::DfDeques, SchedKind::Ws, SchedKind::Fifo] {
            let (slots, report) = run(Config::new(4, sched), || {
                for _ in 0..100 {
                    let wave: Vec<_> = (0..100).map(|_| spawn(|| crate::work(200))).collect();
                    for h in wave {
                        h.join();
                    }
                }
                table_slots()
            });
            assert_eq!(report.total_threads, 10_001);
            assert_eq!(
                slots as u64,
                report.max_live_threads(),
                "{sched:?}: slab slots vs live_threads_hwm"
            );
            assert!(slots <= 101, "{sched:?}: {slots} slots for waves of 100");
        }
    }

    #[test]
    fn a_detached_threads_value_is_dropped_by_the_thread_as_part_of_its_body() {
        /// Panics when dropped, after noting who dropped it.
        struct Loud(Rc<std::cell::Cell<Option<ThreadId>>>);
        impl Drop for Loud {
            fn drop(&mut self) {
                self.0.set(crate::current_thread());
                std::panic::panic_any("dropped");
            }
        }
        for sched in [SchedKind::Df, SchedKind::Fifo] {
            let ((child, dropper), _) = run(Config::new(2, sched), || {
                let dropper = Rc::new(std::cell::Cell::new(None));
                let d2 = dropper.clone();
                let gate = crate::Semaphore::new(0);
                let g2 = gate.clone();
                let h = spawn(move || {
                    g2.acquire();
                    Loud(d2)
                });
                let child = h.id();
                drop(h);
                gate.release();
                while dropper.get().is_none() {
                    yield_now();
                }
                (child, dropper.get())
            });
            // The panic is the detached thread's own, not the run's.
            assert_eq!(dropper, Some(child), "{sched:?}");
        }
    }

    /// A few hundred scheduling rounds on four processors, no timed wait.
    fn untimed_rounds() {
        for _ in 0..50 {
            let kids: Vec<_> = (0..4).map(|_| spawn(yield_now)).collect();
            for k in kids {
                k.join();
            }
        }
    }

    #[test]
    fn a_run_that_never_arms_a_deadline_never_walks_the_heaps() {
        for sched in [SchedKind::Df, SchedKind::Ws] {
            let (stats, _) = run(Config::new(4, sched), || {
                untimed_rounds();
                round_stats()
            });
            assert!(
                stats.rounds > 200,
                "{sched:?}: the run must take full rounds"
            );
            assert_eq!(
                stats.deadline_scans, 0,
                "{sched:?}: no deadline armed, yet a round scanned"
            );
        }
    }

    #[test]
    fn a_deadline_the_floor_has_not_reached_costs_no_heap_walk() {
        let ((armed, idle, fired, end), _) = run(Config::new(4, SchedKind::Df), || {
            // A timed join the child beats by a wide margin: the wake is a
            // normal one and the heap entry goes stale, half a second ahead
            // of every clock.
            let child = spawn(|| crate::work(1_000));
            assert!(child.join_timeout(VirtTime::from_ms(500)).is_ok());
            let armed = round_stats();
            untimed_rounds();
            let idle = round_stats();
            // A timed wait nobody satisfies fires once the floor gets
            // there, and that walk discards the stale entry as well.
            let t0 = crate::now().expect("inside the run");
            let never = crate::Semaphore::new(0);
            assert!(never.acquire_timeout(VirtTime::from_us(50)).is_err());
            let waited = crate::now().expect("inside the run").as_ns() - t0.as_ns();
            assert!(
                (50_000..100_000).contains(&waited),
                "fired after {waited} ns"
            );
            let fired = round_stats();
            untimed_rounds();
            (armed, idle, fired, round_stats())
        });
        assert!(
            idle.rounds - armed.rounds > 200,
            "the tail must take full rounds"
        );
        assert_eq!(
            idle.deadline_scans, 0,
            "a deadline 500 ms away put the rounds on the heaps"
        );
        let walks = fired.deadline_scans - idle.deadline_scans;
        assert!(
            (1..=4).contains(&walks),
            "{walks} heap walks to fire one timeout"
        );
        assert!(
            end.rounds - fired.rounds > 200,
            "the tail must take full rounds"
        );
        assert_eq!(
            end.deadline_scans, fired.deadline_scans,
            "nothing is armed any more, yet a round scanned"
        );
    }

    #[test]
    fn a_live_deadline_far_ahead_is_not_looked_at_every_round() {
        let ((before, after, outcome), _) = run(Config::new(4, SchedKind::Df), || {
            let gate = std::rc::Rc::new(crate::Semaphore::new(0));
            let waiter = spawn({
                let gate = gate.clone();
                move || gate.acquire_timeout(VirtTime::from_ms(500))
            });
            yield_now();
            let before = round_stats();
            untimed_rounds();
            let after = round_stats();
            gate.release();
            (before, after, waiter.join())
        });
        assert!(outcome.is_ok(), "the release came long before the deadline");
        assert!(
            after.rounds - before.rounds > 200,
            "the run must take full rounds"
        );
        assert_eq!(
            after.deadline_scans, before.deadline_scans,
            "rounds walked the heaps for a deadline 500 ms ahead of the floor"
        );
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
            assert_eq!(scan.unparked, active().count());
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
