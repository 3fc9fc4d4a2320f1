//! The execution engine: drives fibers over the virtual SMP under the
//! selected scheduling policy.
//!
//! The engine is a conservative discrete-event simulation. All fibers run on
//! the single host thread, but each is dispatched on behalf of a *virtual
//! processor* whose clock advances by modelled costs. The engine always
//! dispatches on the processor with the smallest clock, and every scheduler
//! entry carries the virtual time at which it was published, so causality
//! holds: a processor never consumes an event from its own future.
//!
//! This module is the *what* of the engine: the run state ([`Inner`]), the
//! thread lifecycle (create, ready, park, evict, exit, retire), dispatch and
//! the fiber resume. The *when* — which processor steps, how far it may run
//! ahead, where an idle one advances to, which deadlines are due — is the
//! time core's ([`crate::timecore`]). Cancellation delivery lives in
//! [`mod@crate::cancel`], the deadlock sentinel in [`crate::sentinel`] and the
//! join wait in [`crate::thread`], each beside the API it implements.

use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;

use ptdf_fiber::{Coroutine, ForcedUnwind, Stack, StackPool, Step};
use ptdf_smp::{Machine, ProcId, VirtTime};

use crate::config::{Attr, Config, LedgerMode};
use crate::mem::Ledger;
use crate::oracle::{DecisionKind, Resolver};
use crate::recorder::{Emission, Recorder};
use crate::report::Report;
use crate::sched::{make_policy, Policy, Pop};
use crate::sentinel::{RunError, Sentinel, StallInfo};
use crate::thread::{
    Fiber, FiberYielder, JoinCell, Kind, TState, Tcb, ThreadId, ThreadTable, Wait, YieldReason,
};
use crate::timecore::TimeCore;
use crate::trace::{BlockReason, EventKind, Span, SpanKind};
use crate::waitq::Evict;

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
    /// *When* each processor steps: parked processors, the timeslice
    /// reference and the deadline wakeups ([`crate::timecore`]).
    pub time: TimeCore,
    /// Live (non-exited) threads of any kind.
    pub live: usize,
    /// Currently executing (thread, processor); set before each resume.
    pub cur: Option<(ThreadId, ProcId)>,
    pub default_stack: u64,
    /// The flight recorder; every event, span and lifecycle note goes
    /// through its one hook, [`Recorder::emit`], which tests one `Option`
    /// discriminant and nothing else when tracing is off.
    pub recorder: Recorder,
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
    /// The deadlock sentinel: the contended holders, the cycle probe and
    /// the cycles detected so far ([`crate::sentinel`]).
    pub sentinel: Sentinel,
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
            time: TimeCore::new(config.processors),
            live: 0,
            cur: None,
            default_stack: config.default_stack,
            recorder,
            schedule: Resolver::new(&config.schedule, config.trace),
            stack_pool: StackPool::new(ptdf_fiber::DEFAULT_POOL_CAP),
            ledger: match config.ledger {
                LedgerMode::Off => None,
                LedgerMode::On => Some(Ledger::new(None)),
                LedgerMode::FailOneIn(n) => Some(Ledger::new(Some((config.seed, n.get())))),
            },
            tls_cleaners: Vec::new(),
            run_token: RUN_TOKEN.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            next_sync_id: 0,
            sentinel: Sentinel::default(),
        }
    }

    /// Hands out a host stack for a new fiber, recycling through the pool.
    pub fn acquire_fiber_stack(&mut self) -> Stack {
        self.stack_pool.acquire(ptdf_fiber::DEFAULT_STACK_SIZE)
    }

    /// Charges one scheduler-queue operation on `p` (global lock for
    /// serialized policies, local cost otherwise).
    pub fn sched_op(&mut self, p: ProcId) {
        if self.policy.global_lock() {
            self.machine.sched_lock(p);
        } else {
            let cs = self.machine.cost().sched_cs;
            self.machine.charge(p, ptdf_smp::Bucket::SchedCs, cs);
        }
    }

    /// Wakes one parked processor for an event published at `at`
    /// ([`TimeCore::unpark`]).
    fn unpark(&mut self, at: VirtTime) {
        let running = self.cur.map(|(_, p)| p);
        self.time
            .unpark(&mut self.machine, &mut self.schedule, at, running);
    }

    /// Whether the current fiber's quantum has outrun the rest of the
    /// machine by more than a timeslice ([`TimeCore::timeslice_due`]).
    /// Never true for a thread that has already registered itself on a
    /// wait queue (state Blocked, between its `park` and the `Blocked`
    /// suspend — e.g. the unlock inside `Condvar::wait`): a concurrent wake
    /// would queue it while it also sits in the handoff slot,
    /// double-dispatching it.
    #[inline]
    pub(crate) fn timeslice_due(&self, tid: ThreadId, p: ProcId) -> bool {
        self.time.timeslice_due(&self.machine, p) && self.running_on(tid, p)
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
    pub(crate) fn decision_clock(&self) -> VirtTime {
        match self.cur {
            Some((_, p)) => self.machine.clock(p),
            None => self.machine.clock(0),
        }
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

    /// Lazily assigns a per-run id to a sync object at its first engine
    /// interaction, memoized in the object's `cell`: ids are dense and
    /// engine-order stable.
    pub fn sync_id_for(&mut self, cell: &std::cell::Cell<Option<u32>>) -> u32 {
        if let Some(id) = cell.get() {
            return id;
        }
        let id = self.next_sync_id;
        self.next_sync_id += 1;
        cell.set(Some(id));
        id
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
        let deadline = timeout
            .map(|t| VirtTime::from_ns(self.machine.clock(p).as_ns().saturating_add(t.as_ns())));
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
                let by = tcb.accept_cancel();
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

    /// Whether `t` is currently blocked *on sync object `obj`*: what every
    /// slot of the object's wait queue must satisfy (the queue asserts it
    /// at each grant, in debug builds).
    pub fn blocked_on(&self, t: ThreadId, obj: u32) -> bool {
        self.threads.get(t).is_some_and(|tcb| {
            tcb.state == TState::Blocked && tcb.wait.is_some_and(|w| w.obj == Some(obj))
        })
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

    /// Pops `p`'s next thread from the policy — a steal pays an extra
    /// switch for the cold start — or says when the next ready entry is
    /// published if that is still ahead of `p`'s clock (`None`: the policy
    /// holds nothing).
    fn pop(&mut self, p: ProcId) -> Result<ThreadId, Option<VirtTime>> {
        self.sched_op(p);
        let now = self.machine.clock(p);
        let t0 = self.machine.prof_open();
        let popped = self.policy.pop(p, now);
        self.machine.prof_close(t0, |hp| &mut hp.sched_pop);
        let (tid, stolen) = match popped {
            Pop::Got { tid, stolen } => (tid, stolen),
            Pop::NotYet(t) => return Err(Some(t)),
            Pop::Empty => return Err(None),
        };
        if stolen {
            let c = self.machine.cost().ctx_switch;
            self.machine.thread_op(p, c);
            self.recorder.emit(&mut self.machine, |m| {
                let victim = self.policy.last_steal_victim().map(|v| v as u32);
                Emission::event(m.clock(p), p, tid.0, EventKind::Steal { victim })
            });
        }
        self.recorder.emit(&mut self.machine, |m| Emission::Sample {
            at: m.clock(p),
            ready: self.policy.ready_len() as u64,
            deques: self.policy.active_deques().map(|d| d as u64),
        });
        Ok(tid)
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

    /// Fires every live deadline due at or before `floor`
    /// ([`TimeCore::take_due`]), in the order the core returns: each waiter
    /// is evicted from its wait and woken. Returns whether any fired.
    fn fire_due_timeouts(&mut self, floor: VirtTime) -> bool {
        let live = |token, at| deadline_live(&self.threads, token, at);
        let Some(mut due) = self
            .time
            .take_due(&mut self.machine, &mut self.schedule, floor, live)
        else {
            return false;
        };
        let mut fired = false;
        for (token, q, at) in due.drain(..) {
            // The re-admission an earlier firing's eviction ran may have
            // satisfied (and so disarmed) a later gathered one.
            if deadline_live(&self.threads, token, at) {
                self.evict_wake(ThreadId(token as u32), q, Evicted::Timeout(at));
                fired = true;
            }
        }
        self.time.recycle_due(due);
        fired
    }
}

/// Whether the deadline armed with `token` at `at` is live: its thread is
/// still blocked in that same timed wait — not a leftover of a wait that was
/// satisfied or cancelled (whose thread may since have exited). The time
/// core asks this of every heap entry it meets.
fn deadline_live(threads: &ThreadTable, token: u64, at: VirtTime) -> bool {
    threads
        .get(ThreadId(token as u32))
        .is_some_and(|tcb| tcb.state == TState::Blocked && tcb.deadline == Some(at))
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
    let deadlocks = std::mem::take(&mut inner.sentinel.deadlocks);
    drop(inner);
    let mut report = Report::new(
        &config,
        stats,
        total_threads,
        steals,
        trace,
        leaks,
        deadlocks,
    );
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
    let ctx = crate::api::par_ctx();
    move |yielder: &FiberYielder, ()| {
        if let Some(rc) = ctx {
            adopt_context(rc);
        }
        on_current_fiber(|inner, tid, _| {
            inner.threads.live_mut(tid).yielder = yielder as *const _;
        });
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
        join.exit
            .set_time(on_current_fiber(|inner, tid, p| inner.exit_thread(tid, p)));
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

/// `f` of the engine and the thread and processor of the calling fiber.
fn on_current_fiber<R>(f: impl FnOnce(&mut Inner, ThreadId, ProcId) -> R) -> R {
    with_active(|ctx| {
        let Some(ActiveCtx::Par(rc)) = ctx else {
            panic!("fiber running without an active runtime")
        };
        let mut inner = rc.borrow_mut();
        let (tid, p) = inner.cur.expect("fiber running without cur");
        f(&mut inner, tid, p)
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

/// Suspends the current fiber (cost-free) if its processor's clock is more
/// than one timeslice ahead of every other non-parked processor.
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

fn engine_loop(inner_rc: &Rc<RefCell<Inner>>) -> Option<StallInfo> {
    loop {
        let mut guard = inner_rc.borrow_mut();
        if guard.live == 0 {
            return None;
        }
        let inner = &mut *guard;
        // The round's one pass over the processors.
        let scan = inner.time.scan(&inner.machine);
        // A processor with nothing to run, its causal horizon, and when the
        // next ready entry is published: the idle step's question. With
        // every processor parked there is no such processor.
        let (p, horizon, next_ready) = match scan.lead {
            None => (None, None, None),
            Some((best, floor)) => {
                // Serial fast path (the cycle-box analogue): with no
                // deadline outstanding and exactly one runnable processor
                // (the lead has no causal horizon: nobody else is active)
                // holding a direct handoff, the full round is provably a
                // no-op beyond taking the handoff — the min-clock pick has
                // no rivals (so the perturbed tie-break draws nothing), and
                // no timeout can fire with no deadline armed. The guard
                // re-evaluates every iteration, so the engine falls back to
                // the full round the instant a second processor unparks or a
                // deadline is armed.
                if scan.min_other(best).is_none() && !inner.machine.has_deadlines() {
                    if let Some((tid, ts_resume)) = inner.handoff[best].take() {
                        run_quantum(guard, inner_rc, best, tid, ts_resume, None);
                        continue;
                    }
                }
                let p = inner
                    .time
                    .dispatch_tie(&inner.machine, &mut inner.schedule, best);
                // `p`'s causal horizon. Only `p`'s own clock moves from here
                // to the resume — unless a timeout fires, whose wake charges
                // the waiter's processor and may unpark another: then the
                // round scans again.
                let mut horizon = scan.min_other(p);
                // Deliver every timed wait whose deadline the whole machine
                // has passed, before this processor picks new work. `p`
                // holds the minimum clock right now, so the floor is its own
                // clock.
                if inner.fire_due_timeouts(floor) {
                    horizon = inner.time.scan(&inner.machine).min_other(p);
                }
                let next = match inner.handoff[p].take() {
                    Some(handoff) => Ok(handoff),
                    None => inner.pop(p).map(|tid| (tid, false)),
                };
                match next {
                    Ok((tid, ts_resume)) => {
                        run_quantum(guard, inner_rc, p, tid, ts_resume, horizon);
                        continue;
                    }
                    Err(next_ready) => (Some(p), horizon, next_ready),
                }
            }
        };
        let live = |token, at| deadline_live(&inner.threads, token, at);
        if let Some(floor) = inner
            .time
            .idle(&mut inner.machine, p, horizon, next_ready, live)
        {
            inner.fire_due_timeouts(floor);
        } else if p.is_none() {
            // Every processor parked and no timed wait to wake: the run is
            // stalled. Hand the watchdog's verdict up instead of panicking.
            let scheduler = inner.policy.kind().name();
            return Some(Sentinel::stall_info(
                &inner.threads,
                &inner.machine,
                scheduler,
            ));
        }
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
    inner.time.set_horizon(horizon);
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
                    inner.stack_pool.release(stack);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timecore::RoundStats;
    use crate::{spawn, yield_now, SchedKind};

    /// The running engine's round statistics so far (call from a thread of
    /// the run).
    fn round_stats() -> RoundStats {
        with_active(|ctx| match ctx {
            Some(ActiveCtx::Par(rc)) => rc.borrow().time.stats,
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
        for sched in [
            SchedKind::Df,
            SchedKind::DfDeques,
            SchedKind::Ws,
            SchedKind::Fifo,
        ] {
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
                stats.heap_walks, 0,
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
            idle.heap_walks, 0,
            "a deadline 500 ms away put the rounds on the heaps"
        );
        let walks = fired.heap_walks - idle.heap_walks;
        assert!(
            (1..=4).contains(&walks),
            "{walks} heap walks to fire one timeout"
        );
        assert!(
            end.rounds - fired.rounds > 200,
            "the tail must take full rounds"
        );
        assert_eq!(
            end.heap_walks, fired.heap_walks,
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
            after.heap_walks, before.heap_walks,
            "rounds walked the heaps for a deadline 500 ms ahead of the floor"
        );
    }
}
