//! The flight-recorder trace and everything that reads it: execution
//! spans, structured scheduler/memory events, exactly-sampled counter
//! tracks, per-thread lifecycle metrics and the schedule decision log (this
//! module, the **model**), their Chrome/Perfetto JSON form (`chrome.rs`,
//! the **codec**, over [`json`]), and the offline analyses — the happens-before
//! checker ([`check`]) and the critical-path profiler ([`critpath`]), over
//! one shared index.
//!
//! Nothing in this tree names the runtime: a trace is plain data, made by
//! the engine's recorder (enable it with `Config::with_trace`; the trace
//! comes back on the run's `Report`) or parsed from a document. Everything
//! is on the **virtual** timeline:
//!
//! * **Spans** ([`Span`]) — one per scheduling quantum.
//! * **Events** ([`Event`]) — spawn, first dispatch, block/wake (with the
//!   blocking primitive as the reason), join, steal (victim → thief),
//!   dummy-thread insertion, quota preemption, stack reserve/release, and
//!   heap allocs/frees of 4 KiB or more (smaller ones still move the
//!   footprint track), which keeps traces of allocation-heavy runs bounded.
//! * **Counter tracks** ([`Counters`]) — committed footprint (the paper's
//!   Figure 9 curve), live threads, ready-queue length, active deque count
//!   (deque policies), and cumulative scheduler-lock wait. The footprint
//!   and live-thread tracks are sampled inside the machine at every change,
//!   so their maxima equal the reported high-water marks **bit-for-bit**.
//! * **Lifecycle** ([`ThreadLifecycle`]) — per thread: spawn → first
//!   dispatch latency, total ready-wait, quantum count, exit time;
//!   aggregated into percentile summaries by [`Trace::lifecycle`].
//! * **Decisions** ([`Decision`]) — the schedule's resolved choice points,
//!   in engine order.
//!
//! The Chrome export ([`Trace::to_chrome_json`]) writes spans as `"ph":"X"`
//! duration records, events as `"ph":"i"` instants and counters as
//! `"ph":"C"` counter records; exact nanosecond payloads ride along in
//! `args`, which is what makes [`Trace::from_chrome_json`] a lossless
//! round trip (asserted in tests). The `ptdf-trace` CLI consumes this
//! format to summarize, validate, and diff traces.

use std::hash::Hasher;

use ptdf_smp::{HostPhaseStats, ProcId, VirtTime};

pub mod check;
pub(crate) mod chrome;
pub mod critpath;
mod index;
pub mod json;

/// What a trace span represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum SpanKind {
    /// A thread executing a scheduling quantum.
    Run,
    /// A dummy (allocation-throttle) thread.
    Dummy,
    /// Cost-free continuation of a time-sliced fiber.
    Resume,
}

impl SpanKind {
    pub(crate) fn name(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Dummy => "dummy",
            SpanKind::Resume => "resume",
        }
    }

    pub(crate) fn from_name(s: &str) -> Option<SpanKind> {
        Some(match s {
            "run" => SpanKind::Run,
            "dummy" => SpanKind::Dummy,
            "resume" => SpanKind::Resume,
            _ => return None,
        })
    }
}

/// One execution span on a virtual processor.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct Span {
    /// Virtual processor.
    pub proc: ProcId,
    /// Thread id.
    pub thread: u32,
    /// Span start (virtual).
    pub start: VirtTime,
    /// Span end (virtual).
    pub end: VirtTime,
    /// Span kind.
    pub kind: SpanKind,
}

/// Which primitive a thread blocked on (the "reason" of a block event).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum BlockReason {
    /// `JoinHandle::join` on a still-running thread.
    Join,
    /// `Mutex` contention.
    Mutex,
    /// `Condvar::wait`.
    Condvar,
    /// `Semaphore::acquire` with no permit.
    Semaphore,
    /// `Barrier::wait` before the last arriver.
    Barrier,
    /// `RwLock` read side.
    RwRead,
    /// `RwLock` write side.
    RwWrite,
}

impl BlockReason {
    /// Stable reason name (used in the Chrome export and checker reports).
    pub fn name(self) -> &'static str {
        match self {
            BlockReason::Join => "join",
            BlockReason::Mutex => "mutex",
            BlockReason::Condvar => "condvar",
            BlockReason::Semaphore => "semaphore",
            BlockReason::Barrier => "barrier",
            BlockReason::RwRead => "rw-read",
            BlockReason::RwWrite => "rw-write",
        }
    }

    pub(crate) fn from_name(s: &str) -> Option<BlockReason> {
        Some(match s {
            "join" => BlockReason::Join,
            "mutex" => BlockReason::Mutex,
            "condvar" => BlockReason::Condvar,
            "semaphore" => BlockReason::Semaphore,
            "barrier" => BlockReason::Barrier,
            "rw-read" => BlockReason::RwRead,
            "rw-write" => BlockReason::RwWrite,
            _ => return None,
        })
    }
}

/// A structured scheduler or memory event.
#[derive(Debug, Clone, Copy, PartialEq, Hash, serde::Serialize)]
pub enum EventKind {
    /// A thread was created.
    Spawn {
        /// The forking thread, if any (`None` for the root).
        parent: Option<u32>,
    },
    /// A thread ran for the first time (stack committed, latency endpoint).
    FirstDispatch,
    /// A thread blocked on a primitive.
    Block {
        /// Which primitive.
        reason: BlockReason,
        /// Per-run id of the sync object blocked on (`None` for joins,
        /// which block on a thread, not an object).
        obj: Option<u32>,
    },
    /// A blocked thread was made ready.
    Wake {
        /// Thread that published the wake (`None` only for wakes issued
        /// outside any thread context).
        waker: Option<u32>,
    },
    /// A wake-capable sync operation (notify, post, barrier completion,
    /// lock handoff) executed; records what the primitive observed and
    /// claimed atomically, which is what lets the happens-before checker
    /// ([`check::check_trace`]) catch lost notifies without reconstructing
    /// wait-list state from interleaved timestamps.
    Notify {
        /// Primitive kind performing the wake.
        reason: BlockReason,
        /// Per-run id of the sync object.
        obj: u32,
        /// Waiters present when the operation ran.
        waiters: u64,
        /// Waiters the operation actually woke.
        woken: u64,
    },
    /// A join completed (the joiner observed the target's exit).
    Join {
        /// The joined (exited) thread.
        target: u32,
    },
    /// A work migration: the event's processor stole the event's thread.
    Steal {
        /// Processor the thread was stolen from, when the policy knows it.
        victim: Option<u32>,
    },
    /// The DF allocation hook inserted dummy throttle threads.
    DummyInsert {
        /// Number of dummies (δ = ⌈bytes/K⌉).
        count: u64,
    },
    /// Memory-quota preemption (DF policies).
    Preempt,
    /// Thread stack reserved (at creation).
    StackReserve {
        /// Reserved bytes.
        bytes: u64,
    },
    /// Thread stack released (at exit).
    StackRelease {
        /// Released bytes.
        bytes: u64,
    },
    /// Heap allocation at or above the configured threshold.
    Alloc {
        /// Allocation size.
        bytes: u64,
    },
    /// Heap free at or above the configured threshold.
    Free {
        /// Freed size.
        bytes: u64,
    },
    /// A free underflowed the live byte count (a double free in the
    /// modelled program); always recorded, regardless of threshold.
    FreeUnderflow {
        /// Bytes by which the free exceeded the live count.
        bytes: u64,
    },
    /// The committed footprint first crossed the armed space bound
    /// (`Config::with_space_bound`); recorded once, at the
    /// crossing growth (footprint is monotone, so one event marks the
    /// excursion; `MemStats::bound_violations` counts every growth above).
    BoundViolation {
        /// Footprint after the crossing growth.
        footprint: u64,
        /// The armed bound in bytes.
        bound: u64,
    },
    /// A timed wait expired: the subject thread woke itself at its armed
    /// deadline instead of being woken by a notify. Sanctioned by the
    /// happens-before checker — a timeout wake requires no notifier.
    Timeout {
        /// Sync object the wait was parked on (`None` for `join_timeout`
        /// and artificial chaos deadlines).
        obj: Option<u32>,
    },
    /// The deadlock sentinel detected a waits-for cycle. One event is
    /// recorded per cycle member (the subject thread), all sharing a
    /// per-run `cycle` index; following `waits_for` from any member walks
    /// the whole cycle.
    Deadlock {
        /// Per-run index of the detected cycle (members share it).
        cycle: u32,
        /// The thread this member waits for (the next cycle member).
        waits_for: u32,
        /// Sync object this member waits on (`None` for a join edge).
        obj: Option<u32>,
    },
    /// A cancellation request was delivered to the subject thread. When
    /// the subject was blocked, it has been evicted from its wait queue
    /// and woken to unwind — the checker's third sanctioned wake (with
    /// [`EventKind::Wake`] and [`EventKind::Timeout`]): a cancel wake
    /// requires no notifier. When the subject was running, delivery
    /// happened at a cancellation point it reached itself and `obj` is
    /// `None`.
    Cancel {
        /// Sync object the subject was parked on when cancelled (`None`
        /// for join waits and running-thread delivery).
        obj: Option<u32>,
        /// The requesting thread, when the cancel came from inside the
        /// runtime.
        by: Option<u32>,
    },
}

impl EventKind {
    /// Stable event-kind name (used in the Chrome export and summaries).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Spawn { .. } => "spawn",
            EventKind::FirstDispatch => "first-dispatch",
            EventKind::Block { .. } => "block",
            EventKind::Wake { .. } => "wake",
            EventKind::Notify { .. } => "notify",
            EventKind::Join { .. } => "join",
            EventKind::Steal { .. } => "steal",
            EventKind::DummyInsert { .. } => "dummy-insert",
            EventKind::Preempt => "preempt",
            EventKind::StackReserve { .. } => "stack-reserve",
            EventKind::StackRelease { .. } => "stack-release",
            EventKind::Alloc { .. } => "alloc",
            EventKind::Free { .. } => "free",
            EventKind::FreeUnderflow { .. } => "free-underflow",
            EventKind::BoundViolation { .. } => "bound-violation",
            EventKind::Timeout { .. } => "timeout",
            EventKind::Deadlock { .. } => "deadlock",
            EventKind::Cancel { .. } => "cancel",
        }
    }
}

/// One event on the virtual timeline.
#[derive(Debug, Clone, Copy, PartialEq, Hash, serde::Serialize)]
pub struct Event {
    /// Virtual time of the event.
    pub at: VirtTime,
    /// Acting processor.
    pub proc: ProcId,
    /// Subject thread, when known (machine-level memory events have none).
    pub thread: Option<u32>,
    /// What happened.
    pub kind: EventKind,
}

/// Counter tracks: `(virtual time, value)` samples.
///
/// `footprint`, `live_threads` and `sched_lock_wait` are sampled inside the
/// machine at every change (see `ptdf_smp::MachineRecording`), so
/// `max(footprint) == MemStats::footprint_hwm` and `max(live_threads) ==
/// MemStats::live_threads_hwm` exactly. `ready` and `active_deques` are
/// sampled at every dispatch.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct Counters {
    /// Committed footprint in bytes (the paper's Figure 9 curve).
    pub footprint: Vec<(VirtTime, u64)>,
    /// Live (created, not exited) threads.
    pub live_threads: Vec<(VirtTime, u64)>,
    /// Schedulable entries in the policy's ready set.
    pub ready: Vec<(VirtTime, u64)>,
    /// Live deques (deque policies only; empty for the serialized ones).
    pub active_deques: Vec<(VirtTime, u64)>,
    /// Cumulative scheduler-lock contention wait in nanoseconds.
    pub sched_lock_wait: Vec<(VirtTime, u64)>,
}

/// Per-thread lifecycle record.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct ThreadLifecycle {
    /// Thread id.
    pub thread: u32,
    /// Creation time.
    pub spawned: VirtTime,
    /// First dispatch time (`None` if never dispatched).
    pub first_dispatch: Option<VirtTime>,
    /// Total time spent ready-but-not-running.
    pub ready_wait: VirtTime,
    /// Scheduling quanta received (full dispatches, not resumes).
    pub quanta: u64,
    /// Exit time (`None` if still live at trace capture).
    pub exited: Option<VirtTime>,
}

impl ThreadLifecycle {
    pub(crate) fn new(thread: u32, spawned: VirtTime) -> Self {
        ThreadLifecycle {
            thread,
            spawned,
            first_dispatch: None,
            ready_wait: VirtTime::ZERO,
            quanta: 0,
            exited: None,
        }
    }
}

/// Configuration echo carried by a trace so tools can interpret it
/// standalone.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct TraceMeta {
    /// Scheduler name (`"df"`, `"fifo"`, ...).
    pub scheduler: String,
    /// Virtual processor count.
    pub processors: usize,
    /// Default accounted stack size in bytes.
    pub default_stack: u64,
    /// DF memory quota `K`, for the quota-carrying policies.
    pub quota: Option<u64>,
    /// Schedule-perturbation seed the run used, if any — together with
    /// `scheduler` this is the full replay recipe for the schedule.
    pub perturb_seed: Option<u64>,
    /// Chaos-fault seed (`Config::with_chaos`) the run used, if
    /// any; part of the replay recipe when present.
    pub chaos_seed: Option<u64>,
}

/// A recorded flight-recorder trace.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct Trace {
    /// Run configuration echo.
    pub meta: TraceMeta,
    /// All spans, in engine (real-time) order.
    pub spans: Vec<Span>,
    /// All events, sorted by virtual time (stable) once the run completes.
    pub events: Vec<Event>,
    /// Counter tracks.
    pub counters: Counters,
    /// Per-thread lifecycle records, indexed by thread id.
    pub threads: Vec<ThreadLifecycle>,
    /// Host-side engine phase profile, when the run was profiled
    /// (`Config::with_host_profile`); rides along so trace tools
    /// can report it standalone.
    pub host_phase: Option<HostPhaseStats>,
    /// Schedule decision log, in engine order (never sorted): one entry per
    /// resolved scheduling decision point. Attached by oracle-driven runs
    /// (`Config::with_oracle`) and by perturbed traced runs;
    /// empty for natural runs, whose schedule has no decisions to record.
    pub decisions: Vec<Decision>,
}

/// Which decision point a [`Decision`] was taken at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum DecisionKind {
    /// Dispatch tie-break: several idle processors share the minimum
    /// virtual clock; one must run the next ready thread.
    DispatchTie,
    /// Unpark tie-break: a wake must choose among equally-idle parked
    /// processors.
    UnparkTie,
    /// Delivery order of a multi-thread wake batch (condvar broadcast,
    /// barrier release, reader-batch admission). Encoded as a sequence of
    /// selection decisions: first pick among `n`, then among `n-1`, …
    WakeOrder,
    /// Grant order of a sync-object wait queue (mutex unlock, semaphore
    /// release, condvar signal, rwlock admission).
    Grant,
    /// Firing order among timed waits that are simultaneously due at the
    /// same wake floor.
    TimeoutOrder,
    /// Delivery timing of a cancellation request against a *blocked*
    /// target whose wait is deadline-bounded: index 0 delivers now (evict
    /// and wake the waiter immediately — the natural choice), index 1
    /// defers delivery to the wait's own resolution (its deadline or a
    /// grant), modelling the cancel losing the race. Only deadline-bounded
    /// waits offer the deferred branch: an unbounded wait has no other
    /// guaranteed wake, so deferral could stall the target forever.
    CancelDelivery,
}

impl DecisionKind {
    /// Stable short name used in traces, JSON, and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            DecisionKind::DispatchTie => "dispatch-tie",
            DecisionKind::UnparkTie => "unpark-tie",
            DecisionKind::WakeOrder => "wake-order",
            DecisionKind::Grant => "grant",
            DecisionKind::TimeoutOrder => "timeout-order",
            DecisionKind::CancelDelivery => "cancel-delivery",
        }
    }

    /// Inverse of [`DecisionKind::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "dispatch-tie" => DecisionKind::DispatchTie,
            "unpark-tie" => DecisionKind::UnparkTie,
            "wake-order" => DecisionKind::WakeOrder,
            "grant" => DecisionKind::Grant,
            "timeout-order" => DecisionKind::TimeoutOrder,
            "cancel-delivery" => DecisionKind::CancelDelivery,
            _ => return None,
        })
    }
}

/// One resolved scheduling decision, as recorded in a [`Trace`].
///
/// Only genuine choices are recorded: a decision point with a single
/// candidate is not a decision and produces no record, so the decision
/// log is exactly the branching structure of the schedule space.
#[derive(Debug, Clone, Copy, PartialEq, Hash, serde::Serialize)]
pub struct Decision {
    /// The decision point.
    pub kind: DecisionKind,
    /// Virtual time at which the decision was taken.
    pub at: VirtTime,
    /// Number of candidates (always ≥ 2).
    pub n: u32,
    /// Index chosen, in `0..n`. Index 0 is the natural choice.
    pub chosen: u32,
    /// Per-run sync-object id for object-scoped decisions
    /// ([`DecisionKind::WakeOrder`], [`DecisionKind::Grant`]).
    pub obj: Option<u32>,
}

/// Percentiles and a log₂ histogram over one latency population.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct LatencyStats {
    /// Sample count.
    pub count: u64,
    /// Median.
    pub p50: VirtTime,
    /// 90th percentile.
    pub p90: VirtTime,
    /// 99th percentile.
    pub p99: VirtTime,
    /// Maximum.
    pub max: VirtTime,
    /// `hist_log2[0]` counts zero-valued samples; `hist_log2[i]` (i ≥ 1)
    /// counts samples in `[2^(i-1), 2^i)` nanoseconds.
    pub hist_log2: Vec<u64>,
}

impl LatencyStats {
    fn from_ns(mut samples: Vec<u64>) -> Self {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        samples.sort_unstable();
        let n = samples.len();
        let pct = |q: f64| {
            let idx = ((n - 1) as f64 * q).round() as usize;
            VirtTime::from_ns(samples[idx])
        };
        let mut hist = Vec::new();
        for &s in &samples {
            let bucket = if s == 0 {
                0
            } else {
                64 - s.leading_zeros() as usize
            };
            if hist.len() <= bucket {
                hist.resize(bucket + 1, 0);
            }
            hist[bucket] += 1;
        }
        LatencyStats {
            count: n as u64,
            p50: pct(0.50),
            p90: pct(0.90),
            p99: pct(0.99),
            max: VirtTime::from_ns(samples[n - 1]),
            hist_log2: hist,
        }
    }
}

/// Aggregated per-thread lifecycle metrics (see [`Trace::lifecycle`]).
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct LifecycleSummary {
    /// Threads with a lifecycle record.
    pub threads: u64,
    /// Total scheduling quanta across all threads (== total dispatches).
    pub total_quanta: u64,
    /// Spawn → first-dispatch latency, over dispatched threads.
    pub dispatch_latency: LatencyStats,
    /// Total ready-wait per thread, over all threads.
    pub ready_wait: LatencyStats,
}

/// Recyclable backing storage of a [`Trace`]: its record vectors, emptied.
/// Each vector goes back to the slot it came from, so a steady-state
/// record → export → parse cycle refills buffers of the size it needs.
#[derive(Default)]
struct TraceStorage {
    spans: Vec<Span>,
    events: Vec<Event>,
    threads: Vec<ThreadLifecycle>,
    counters: Counters,
}

/// Upper bound on pooled storages. The pool exists to let repeated traced
/// runs and parses reuse warmed vector capacity instead of re-growing from
/// empty each time; a handful of entries covers that without retaining
/// unbounded memory from one huge trace.
pub(crate) const TRACE_POOL_MAX: usize = 4;

thread_local! {
    /// Per-host-thread trace-storage pool. The engine runs every fiber on
    /// the calling host thread, so the `Trace` built by a run and the next
    /// run's `Trace::new` see the same pool.
    static TRACE_POOL: std::cell::RefCell<Vec<TraceStorage>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

impl Counters {
    pub(crate) fn tracks_mut(&mut self) -> [&mut Vec<(VirtTime, u64)>; 5] {
        [
            &mut self.footprint,
            &mut self.live_threads,
            &mut self.ready,
            &mut self.active_deques,
            &mut self.sched_lock_wait,
        ]
    }
}

/// Returning storage on `Drop` (rather than at some explicit engine hook)
/// means every retirement path feeds the pool — including a `Report`
/// dropped while a panic unwinds — and parsed or cloned traces contribute
/// their capacity too. `try_with`/`try_borrow_mut` keep the drop infallible
/// during thread teardown.
impl Drop for Trace {
    fn drop(&mut self) {
        let mut storage = TraceStorage {
            spans: std::mem::take(&mut self.spans),
            events: std::mem::take(&mut self.events),
            threads: std::mem::take(&mut self.threads),
            counters: std::mem::take(&mut self.counters),
        };
        if storage.spans.capacity() == 0
            && storage.events.capacity() == 0
            && storage.threads.capacity() == 0
            && storage
                .counters
                .tracks_mut()
                .iter()
                .all(|t| t.capacity() == 0)
        {
            return; // nothing worth pooling
        }
        storage.spans.clear();
        storage.events.clear();
        storage.threads.clear();
        for track in storage.counters.tracks_mut() {
            track.clear();
        }
        let _ = TRACE_POOL.try_with(|pool| {
            if let Ok(mut pool) = pool.try_borrow_mut() {
                if pool.len() < TRACE_POOL_MAX {
                    pool.push(storage);
                }
            }
        });
    }
}

impl Trace {
    /// An empty trace on pooled storage, when the pool has one. (A
    /// recorder's machine tracks are installed wholesale by
    /// `absorb_machine`; only a parsed trace fills those three buffers.)
    pub(crate) fn new(meta: TraceMeta) -> Self {
        let storage = TRACE_POOL
            .try_with(|pool| pool.try_borrow_mut().ok().and_then(|mut p| p.pop()))
            .ok()
            .flatten()
            .unwrap_or_default();
        let mut trace = Trace::default();
        trace.meta = meta;
        trace.spans = storage.spans;
        trace.events = storage.events;
        trace.threads = storage.threads;
        trace.counters = storage.counters;
        trace
    }

    /// Runs `f` with the emptied event vector and counter tracks of a
    /// pooled storage as scratch (fresh empty ones when the pool has
    /// none). What `f` leaves in them goes back to the pool, emptied, in
    /// their place: a buffer `f` swaps with a trace's is the trace's old
    /// one, recycled, so lending adds no memory.
    pub(crate) fn with_pooled_scratch<R>(f: impl FnOnce(&mut Vec<Event>, &mut Counters) -> R) -> R {
        let pop = || TRACE_POOL.try_with(|pool| pool.try_borrow_mut().ok()?.pop());
        let Some(mut storage) = pop().ok().flatten() else {
            return f(&mut Vec::new(), &mut Counters::default());
        };
        let out = f(&mut storage.events, &mut storage.counters);
        storage.events.clear();
        for track in storage.counters.tracks_mut() {
            track.clear();
        }
        let _ = TRACE_POOL.try_with(|pool| {
            if let Ok(mut pool) = pool.try_borrow_mut() {
                pool.push(storage);
            }
        });
        out
    }

    /// Pooled storages currently cached on this thread (test hook).
    #[cfg(test)]
    pub(crate) fn pool_len() -> usize {
        TRACE_POOL.with(|p| p.borrow().len())
    }

    /// Empties this thread's pool (test hook).
    #[cfg(test)]
    pub(crate) fn clear_pool() {
        TRACE_POOL.with(|p| p.borrow_mut().clear());
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Per-processor busy time implied by the spans.
    pub fn busy_per_proc(&self, processors: usize) -> Vec<VirtTime> {
        let mut busy = vec![VirtTime::ZERO; processors];
        for s in &self.spans {
            if s.proc < processors {
                busy[s.proc] += s.end.since(s.start);
            }
        }
        busy
    }

    /// High-water committed footprint implied by the footprint track
    /// (equals `MemStats::footprint_hwm` exactly; 0 without counters).
    pub fn footprint_hwm(&self) -> u64 {
        self.counters
            .footprint
            .iter()
            .map(|&(_, v)| v)
            .max()
            .unwrap_or(0)
    }

    /// Peak live threads implied by the live-thread track (equals
    /// `MemStats::live_threads_hwm` exactly; 0 without counters).
    pub fn max_live_threads(&self) -> u64 {
        self.counters
            .live_threads
            .iter()
            .map(|&(_, v)| v)
            .max()
            .unwrap_or(0)
    }

    /// Event counts per kind name, sorted by name.
    pub fn event_kind_counts(&self) -> Vec<(&'static str, u64)> {
        let mut counts: Vec<(&'static str, u64)> = Vec::new();
        for e in &self.events {
            let name = e.kind.name();
            match counts.iter_mut().find(|(n, _)| *n == name) {
                Some((_, c)) => *c += 1,
                None => counts.push((name, 1)),
            }
        }
        counts.sort_by_key(|&(n, _)| n);
        counts
    }

    /// Aggregates the per-thread lifecycle records into percentile
    /// summaries.
    pub fn lifecycle(&self) -> LifecycleSummary {
        let mut latency = Vec::new();
        let mut waits = Vec::new();
        let mut total_quanta = 0;
        for t in &self.threads {
            total_quanta += t.quanta;
            if let Some(fd) = t.first_dispatch {
                latency.push(fd.since(t.spawned).as_ns());
            }
            waits.push(t.ready_wait.as_ns());
        }
        LifecycleSummary {
            threads: self.threads.len() as u64,
            total_quanta,
            dispatch_latency: LatencyStats::from_ns(latency),
            ready_wait: LatencyStats::from_ns(waits),
        }
    }

    /// Sanity check: spans on the same processor must not overlap in
    /// virtual time. Returns the first violating pair (in `(proc, start)`
    /// order), if any. One sort + one linear pass.
    pub fn find_overlap(&self) -> Option<(Span, Span)> {
        let mut sorted = self.spans.clone();
        sorted.sort_by_key(|s| (s.proc, s.start));
        sorted
            .windows(2)
            .find(|w| w[0].proc == w[1].proc && w[1].start < w[0].end)
            .map(|w| (w[0], w[1]))
    }

    /// Structural validation: span sanity and no-overlap, globally sorted
    /// events, monotone counter tracks, and lifecycle ordering
    /// (spawn ≤ first dispatch ≤ exit; dispatched threads have quanta).
    pub fn validate(&self) -> Result<(), String> {
        for s in &self.spans {
            if s.end < s.start {
                return Err(format!(
                    "span t{} on proc {} ends before it starts",
                    s.thread, s.proc
                ));
            }
        }
        if let Some((a, b)) = self.find_overlap() {
            return Err(format!(
                "overlap on proc {}: t{} [{}, {}) and t{} [{}, {})",
                a.proc, a.thread, a.start, a.end, b.thread, b.start, b.end
            ));
        }
        if let Some(w) = self.events.windows(2).find(|w| w[1].at < w[0].at) {
            return Err(format!(
                "events out of order: {} at {} after {} at {}",
                w[1].kind.name(),
                w[1].at,
                w[0].kind.name(),
                w[0].at
            ));
        }
        for (name, track) in [
            ("footprint", &self.counters.footprint),
            ("live-threads", &self.counters.live_threads),
            ("ready", &self.counters.ready),
            ("active-deques", &self.counters.active_deques),
            ("sched-lock-wait", &self.counters.sched_lock_wait),
        ] {
            if track.windows(2).any(|w| w[1].0 < w[0].0) {
                return Err(format!("counter track {name} has out-of-order samples"));
            }
        }
        for t in &self.threads {
            if let Some(fd) = t.first_dispatch {
                if fd < t.spawned {
                    return Err(format!("t{} dispatched before spawn", t.thread));
                }
                if t.quanta == 0 {
                    return Err(format!("t{} dispatched but has zero quanta", t.thread));
                }
                if let Some(ex) = t.exited {
                    if ex < fd {
                        return Err(format!("t{} exited before first dispatch", t.thread));
                    }
                }
            }
        }
        Ok(())
    }
}

/// FNV-1a-64 as a [`Hasher`]: the one hash behind the repository's pinned
/// corpora (exported trace bytes, analysis answers, parse verdicts, app
/// output words) and the explorer's schedule fingerprints. `write` feeds
/// bytes in the order given; `Hasher::write_u64` and friends feed
/// native-endian bytes, so a hash that must not depend on the host feeds
/// `to_le_bytes()` itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl Fnv1a {
    /// FNV-1a-64 of one byte string.
    pub fn digest(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::default();
        h.write(bytes);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published FNV-1a-64 test vectors.
    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(Fnv1a::digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::digest(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv1a::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), Fnv1a::digest(b"foobar"));
    }

    #[test]
    fn overlap_ignores_adjacent_processors() {
        let span = |proc, start, end| Span {
            proc,
            thread: 0,
            start: VirtTime::from_ns(start),
            end: VirtTime::from_ns(end),
            kind: SpanKind::Run,
        };
        // Overlapping intervals on *different* processors: not an overlap.
        let mut t = Trace::default();
        t.spans.push(span(0, 0, 100));
        t.spans.push(span(1, 50, 150));
        assert!(
            t.find_overlap().is_none(),
            "adjacent-processor false positive"
        );
        // The same intervals on one processor: caught.
        let mut t = Trace::default();
        t.spans.push(span(2, 0, 100));
        t.spans.push(span(2, 50, 150));
        let (a, b) = t.find_overlap().expect("must catch same-proc overlap");
        assert_eq!((a.start.as_ns(), b.start.as_ns()), (0, 50));
    }

    /// Thread ids are dense in a recorded trace, but a document is user
    /// input: five records naming ids near `u32::MAX` are analysed in
    /// memory proportional to the records, not to the largest id (which
    /// would be a 32 GB table, i.e. an allocation failure).
    #[test]
    fn sparse_thread_ids_are_analysed_without_a_table_of_the_largest_id() {
        const BIG: u32 = u32::MAX;
        const WAKER: u32 = 3_000_000_000;
        let ns = VirtTime::from_ns;
        let event = |at, kind| Event {
            at: ns(at),
            proc: 0,
            thread: Some(BIG),
            kind,
        };
        let mut t = Trace::default();
        t.spans.push(Span {
            proc: 0,
            thread: BIG,
            start: ns(10),
            end: ns(50),
            kind: SpanKind::Run,
        });
        t.events.push(event(
            0,
            EventKind::Spawn {
                parent: Some(BIG - 1),
            },
        ));
        t.events.push(event(10, EventKind::FirstDispatch));
        t.events.push(event(
            50,
            EventKind::Block {
                reason: BlockReason::Mutex,
                obj: Some(BIG),
            },
        ));
        t.events
            .push(event(80, EventKind::Wake { waker: Some(WAKER) }));
        let check = check::check_trace(&t);
        assert_eq!(
            check.violations,
            vec![check::Violation::WakeWithoutNotify {
                thread: BIG,
                waker: Some(WAKER),
                obj: BIG,
                at: ns(80),
            }]
        );
        let cp = critpath::analyze(&t);
        assert_eq!(cp.makespan, ns(50));
        assert_eq!(
            (cp.blame.compute, cp.blame.ready_wait, cp.blame.sum()),
            (ns(40), ns(10), ns(50))
        );
        assert!(cp.segments.iter().all(|s| s.thread == Some(BIG)));
        assert_eq!(
            critpath::object_waits(&t),
            vec![critpath::ObjectWait {
                reason: BlockReason::Mutex,
                obj: BIG,
                waits: 1,
                total: ns(30),
                max: ns(30),
            }]
        );
    }
}
