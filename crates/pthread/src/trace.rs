//! The flight recorder: execution spans, structured scheduler/memory
//! events, exactly-sampled counter tracks, and per-thread lifecycle
//! metrics, exportable as a Chrome/Perfetto trace.
//!
//! Enable with [`crate::Config::with_trace`]; the trace comes back on the
//! run's [`crate::Report`]. Everything is on the **virtual** timeline:
//!
//! * **Spans** ([`Span`]) — one per scheduling quantum, as before.
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
//!
//! The Chrome export ([`Trace::to_chrome_json`]) writes spans as `"ph":"X"`
//! duration records, events as `"ph":"i"` instants and counters as
//! `"ph":"C"` counter records; exact nanosecond payloads ride along in
//! `args`, which is what makes [`Trace::from_chrome_json`] a lossless
//! round trip (asserted in tests). The `ptdf-trace` CLI consumes this
//! format to summarize, validate, and diff traces.

use crate::critpath::{BlameBucket, CritPath};
use crate::json::{self, Reader, Scratch, Slots};
use crate::thread::ThreadId;
use ptdf_smp::{HostPhaseStats, MachineRecording, MemEventKind, ProcId, VirtTime};
use std::io;

/// `,"key":` as one literal, for [`ChromeOut`]'s member writers.
macro_rules! key {
    ($key:literal) => {
        concat!(",\"", $key, "\":")
    };
}

/// Slot index of `$key` in one of the parser's key tables, resolved at
/// compile time (an unknown key fails the build).
macro_rules! slot {
    ($keys:ident, $key:literal) => {
        const { json::key_index(&$keys, $key) }
    };
}

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
    fn name(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Dummy => "dummy",
            SpanKind::Resume => "resume",
        }
    }

    fn from_name(s: &str) -> Option<SpanKind> {
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
    /// [`crate::Mutex`] contention.
    Mutex,
    /// [`crate::Condvar::wait`].
    Condvar,
    /// [`crate::Semaphore::acquire`] with no permit.
    Semaphore,
    /// [`crate::Barrier::wait`] before the last arriver.
    Barrier,
    /// [`crate::RwLock`] read side.
    RwRead,
    /// [`crate::RwLock`] write side.
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

    fn from_name(s: &str) -> Option<BlockReason> {
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
    /// ([`crate::check_trace`]) catch lost notifies without reconstructing
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
    /// ([`crate::Config::with_space_bound`]); recorded once, at the
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

/// One counter track's `(virtual time, value)` samples.
type Samples = [(VirtTime, u64)];

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
    /// Bytes cached in the host fiber-stack pool, sampled at every
    /// acquire/release (host memory; not part of the virtual footprint).
    pub host_pool_cached: Vec<(VirtTime, u64)>,
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
    fn new(thread: u32, spawned: VirtTime) -> Self {
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
    /// Chaos-fault seed ([`crate::Config::with_chaos`]) the run used, if
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
    /// ([`crate::Config::with_host_profile`]); rides along so trace tools
    /// can report it standalone.
    pub host_phase: Option<HostPhaseStats>,
    /// Schedule decision log, in engine order (never sorted): one entry per
    /// resolved scheduling decision point. Attached by oracle-driven runs
    /// ([`crate::Config::with_oracle`]) and by perturbed traced runs;
    /// empty for natural runs, whose schedule has no decisions to record.
    pub decisions: Vec<crate::oracle::Decision>,
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
            let bucket = if s == 0 { 0 } else { 64 - s.leading_zeros() as usize };
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
const TRACE_POOL_MAX: usize = 4;

thread_local! {
    /// Per-host-thread trace-storage pool. The engine runs every fiber on
    /// the calling host thread, so the `Trace` built by a run and the next
    /// run's `Trace::new` see the same pool.
    static TRACE_POOL: std::cell::RefCell<Vec<TraceStorage>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

impl Counters {
    fn tracks_mut(&mut self) -> [&mut Vec<(VirtTime, u64)>; 6] {
        [
            &mut self.footprint,
            &mut self.live_threads,
            &mut self.ready,
            &mut self.active_deques,
            &mut self.sched_lock_wait,
            &mut self.host_pool_cached,
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

    /// Pooled storages currently cached on this thread (test hook).
    #[cfg(test)]
    fn pool_len() -> usize {
        TRACE_POOL.with(|p| p.borrow().len())
    }

    pub(crate) fn record(
        &mut self,
        proc: ProcId,
        thread: ThreadId,
        start: VirtTime,
        end: VirtTime,
        kind: SpanKind,
    ) {
        self.spans.push(Span {
            proc,
            thread: thread.0,
            start,
            end,
            kind,
        });
    }

    fn lifecycle_mut(&mut self, thread: u32, spawned_hint: VirtTime) -> &mut ThreadLifecycle {
        let idx = thread as usize;
        while self.threads.len() <= idx {
            let t = self.threads.len() as u32;
            self.threads.push(ThreadLifecycle::new(t, spawned_hint));
        }
        &mut self.threads[idx]
    }

    /// Records an event, maintaining the lifecycle records for the
    /// lifecycle-bearing kinds.
    pub(crate) fn event(&mut self, at: VirtTime, proc: ProcId, thread: Option<u32>, kind: EventKind) {
        if let Some(t) = thread {
            match kind {
                EventKind::Spawn { .. } => {
                    self.lifecycle_mut(t, at).spawned = at;
                }
                EventKind::FirstDispatch => {
                    let lc = self.lifecycle_mut(t, at);
                    if lc.first_dispatch.is_none() {
                        lc.first_dispatch = Some(at);
                    }
                }
                _ => {}
            }
        }
        self.events.push(Event {
            at,
            proc,
            thread,
            kind,
        });
    }

    /// Counts one scheduling quantum for `thread`.
    pub(crate) fn note_quantum(&mut self, thread: u32, at: VirtTime) {
        self.lifecycle_mut(thread, at).quanta += 1;
    }

    /// Accrues ready-but-not-running wait for `thread`.
    pub(crate) fn add_ready_wait(&mut self, thread: u32, wait: VirtTime) {
        self.lifecycle_mut(thread, VirtTime::ZERO).ready_wait += wait;
    }

    /// Marks `thread` exited at `at`.
    pub(crate) fn note_exit(&mut self, thread: u32, at: VirtTime) {
        self.lifecycle_mut(thread, at).exited = Some(at);
    }

    /// Samples the ready-set size (deduplicating unchanged values).
    pub(crate) fn sample_ready(&mut self, at: VirtTime, len: u64) {
        if self.counters.ready.last().map(|&(_, v)| v) != Some(len) {
            self.counters.ready.push((at, len));
        }
    }

    /// Samples the active-deque count (deduplicating unchanged values).
    pub(crate) fn sample_active_deques(&mut self, at: VirtTime, n: u64) {
        if self.counters.active_deques.last().map(|&(_, v)| v) != Some(n) {
            self.counters.active_deques.push((at, n));
        }
    }

    /// Samples the host stack-pool cached bytes (deduplicating unchanged
    /// values).
    pub(crate) fn sample_pool_cached(&mut self, at: VirtTime, bytes: u64) {
        if self.counters.host_pool_cached.last().map(|&(_, v)| v) != Some(bytes) {
            self.counters.host_pool_cached.push((at, bytes));
        }
    }

    /// Merges the machine-level recording (memory events, exactly-sampled
    /// footprint/live-thread/lock-wait tracks) and sorts the merged event
    /// stream by virtual time. Called once at end of run.
    pub(crate) fn absorb_machine(&mut self, rec: MachineRecording) {
        for e in rec.events {
            let kind = match e.kind {
                MemEventKind::Alloc { bytes } => EventKind::Alloc { bytes },
                MemEventKind::Free { bytes } => EventKind::Free { bytes },
                MemEventKind::StackReserve { bytes } => EventKind::StackReserve { bytes },
                MemEventKind::StackRelease { bytes } => EventKind::StackRelease { bytes },
                MemEventKind::FreeUnderflow { bytes } => EventKind::FreeUnderflow { bytes },
                MemEventKind::BoundViolation { footprint, bound } => {
                    EventKind::BoundViolation { footprint, bound }
                }
            };
            self.events.push(Event {
                at: e.at,
                proc: e.proc,
                thread: None,
                kind,
            });
        }
        self.counters.footprint = rec.footprint;
        self.counters.live_threads = rec.live_threads;
        self.counters.sched_lock_wait = rec.sched_lock_wait;
        // Machine samples and runtime events arrive in engine (real-time)
        // order; processors' clocks interleave, so sort everything onto the
        // virtual timeline (stably: ties keep engine order).
        for track in self.counters.tracks_mut() {
            track.sort_by_key(|&(at, _)| at);
        }
        self.events.sort_by_key(|e| e.at);
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
        self.counters.footprint.iter().map(|&(_, v)| v).max().unwrap_or(0)
    }

    /// Peak live threads implied by the live-thread track (equals
    /// `MemStats::live_threads_hwm` exactly; 0 without counters).
    pub fn max_live_threads(&self) -> u64 {
        self.counters.live_threads.iter().map(|&(_, v)| v).max().unwrap_or(0)
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
                return Err(format!("span t{} on proc {} ends before it starts", s.thread, s.proc));
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
            ("host-pool-cached", &self.counters.host_pool_cached),
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

    /// Serializes to Chrome trace-event JSON (object form), loadable in
    /// `chrome://tracing` and Perfetto: spans as `"ph":"X"` durations,
    /// events as `"ph":"i"` instants, counters as `"ph":"C"` records
    /// (timestamps in microseconds). Exact nanosecond values ride in
    /// `args`, making [`Trace::from_chrome_json`] lossless.
    pub fn to_chrome_json(&self) -> String {
        self.chrome_string(None)
    }

    /// Serializes like [`Trace::to_chrome_json`], additionally rendering an
    /// analyzed critical path ([`crate::critpath::CritPath`]) as a dedicated
    /// Perfetto track: the path's segments become `"ph":"X"` durations on
    /// `pid` 1 (the base trace uses `pid` 0), named by blame bucket, so the
    /// realized critical path reads as one swim-lane above the
    /// per-processor lanes. [`Trace::from_chrome_json`] ignores the extra
    /// track (any record with a nonzero `pid`), so the round trip of the
    /// base trace still holds.
    pub fn to_chrome_json_with_critpath(&self, cp: &CritPath) -> String {
        self.chrome_string(Some(cp))
    }

    /// Writes the [`Trace::to_chrome_json`] document to `w` in pieces of
    /// about 64 KB, so the whole text is never resident. `w` gets few,
    /// large writes; it needs no buffering of its own.
    pub fn write_chrome_json(&self, w: &mut impl io::Write) -> io::Result<()> {
        self.emit_chrome(None, &mut ChromeOut::new(FLUSH_BYTES + 1024, Some(w)))
    }

    /// Writes the [`Trace::to_chrome_json_with_critpath`] document to `w`
    /// like [`Trace::write_chrome_json`].
    pub fn write_chrome_json_with_critpath(
        &self,
        cp: &CritPath,
        w: &mut impl io::Write,
    ) -> io::Result<()> {
        self.emit_chrome(Some(cp), &mut ChromeOut::new(FLUSH_BYTES + 1024, Some(w)))
    }

    fn chrome_string(&self, cp: Option<&CritPath>) -> String {
        let mut out = ChromeOut::new(self.chrome_len_estimate(cp), None);
        self.emit_chrome(cp, &mut out)
            .expect("no writer, no I/O error");
        json::into_string(out.buf)
    }

    /// About how long the export is: each class of record at the mean
    /// length it has in recorded traces (which moves by a few per cent
    /// between microsecond and second timestamps), so that
    /// [`Trace::chrome_string`] reserves close to what it fills — within a
    /// tenth, a test holds it to that — and does not regrow.
    fn chrome_len_estimate(&self, cp: Option<&CritPath>) -> usize {
        let samples: usize = self.counter_tracks().iter().map(|(_, _, t)| t.len()).sum();
        1024 + 146 * self.spans.len()
            + 122 * self.events.len()
            + 98 * samples
            + 118 * self.threads.len()
            + 64 * self.decisions.len()
            + cp.map_or(0, |cp| 180 * (cp.segments.len() + 2))
    }

    /// The counter tracks as `(track name, value key, samples)`.
    fn counter_tracks(&self) -> [(&'static str, &'static str, &Samples); 6] {
        [
            ("footprint", "bytes", &self.counters.footprint),
            ("live-threads", "threads", &self.counters.live_threads),
            ("ready", "entries", &self.counters.ready),
            ("active-deques", "deques", &self.counters.active_deques),
            ("sched-lock-wait", "waitNs", &self.counters.sched_lock_wait),
            ("host-pool-cached", "bytes", &self.counters.host_pool_cached),
        ]
    }

    /// The one exporter: emits the document record by record into `o`,
    /// with no intermediate tree. `cp` appends the critical-path lane to
    /// `traceEvents`.
    fn emit_chrome(&self, cp: Option<&CritPath>, o: &mut ChromeOut<'_>) -> io::Result<()> {
        o.array("{\"traceEvents\":[");
        for s in &self.spans {
            o.item("{\"name\":\"")?;
            let thread = u64::from(s.thread);
            // `t5`, `dummy t5`, `t5 (resume)`.
            if s.kind == SpanKind::Dummy {
                o.lit("dummy ");
            }
            o.lit("t");
            o.num(thread);
            if s.kind == SpanKind::Resume {
                o.lit(" (resume)");
            }
            o.lit("\",\"ph\":\"X\",\"pid\":0");
            o.u64(key!("tid"), s.proc as u64);
            o.micros(key!("ts"), s.start);
            o.micros(key!("dur"), s.end.since(s.start));
            o.lit(",\"args\":{\"thread\":");
            o.num(thread);
            o.str(key!("kind"), s.kind.name());
            o.u64(key!("startNs"), s.start.as_ns());
            o.u64(key!("endNs"), s.end.as_ns());
            o.lit("}}");
        }
        let id = |v: Option<u32>| v.map(u64::from);
        for e in &self.events {
            o.item("{\"name\":\"")?;
            o.lit(e.kind.name());
            o.lit("\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0");
            o.u64(key!("tid"), e.proc as u64);
            o.micros(key!("ts"), e.at);
            o.lit(",\"args\":{\"ns\":");
            o.num(e.at.as_ns());
            o.opt(key!("thread"), id(e.thread));
            match e.kind {
                EventKind::Spawn { parent } => o.opt(key!("parent"), id(parent)),
                EventKind::Block { reason, obj } => {
                    o.str(key!("reason"), reason.name());
                    o.opt(key!("obj"), id(obj));
                }
                EventKind::Wake { waker } => o.opt(key!("waker"), id(waker)),
                EventKind::Notify {
                    reason,
                    obj,
                    waiters,
                    woken,
                } => {
                    o.str(key!("reason"), reason.name());
                    o.u64(key!("obj"), u64::from(obj));
                    o.u64(key!("waiters"), waiters);
                    o.u64(key!("woken"), woken);
                }
                EventKind::Join { target } => o.u64(key!("target"), u64::from(target)),
                EventKind::Steal { victim } => o.opt(key!("victim"), id(victim)),
                EventKind::DummyInsert { count } => o.u64(key!("count"), count),
                EventKind::StackReserve { bytes }
                | EventKind::StackRelease { bytes }
                | EventKind::Alloc { bytes }
                | EventKind::Free { bytes }
                | EventKind::FreeUnderflow { bytes } => o.u64(key!("bytes"), bytes),
                EventKind::BoundViolation { footprint, bound } => {
                    o.u64(key!("footprint"), footprint);
                    o.u64(key!("bound"), bound);
                }
                EventKind::Timeout { obj } => o.opt(key!("obj"), id(obj)),
                EventKind::Cancel { obj, by } => {
                    o.opt(key!("obj"), id(obj));
                    o.opt(key!("by"), id(by));
                }
                EventKind::Deadlock { cycle, waits_for, obj } => {
                    o.u64(key!("cycle"), u64::from(cycle));
                    o.u64(key!("waitsFor"), u64::from(waits_for));
                    o.opt(key!("obj"), id(obj));
                }
                EventKind::FirstDispatch | EventKind::Preempt => {}
            }
            o.lit("}}");
        }
        for (name, unit, track) in self.counter_tracks() {
            for &(at, v) in track {
                o.item("{\"name\":\"")?;
                o.lit(name);
                o.lit("\",\"ph\":\"C\",\"pid\":0");
                o.micros(key!("ts"), at);
                o.lit(",\"args\":{\"");
                o.lit(unit);
                o.lit("\":");
                o.num(v);
                o.u64(key!("ns"), at.as_ns());
                o.lit("}}");
            }
        }
        if let Some(cp) = cp {
            o.item(
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\
                 \"args\":{\"name\":\"critical path\"}}",
            )?;
            o.item(
                "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
                 \"args\":{\"name\":\"blame\"}}",
            )?;
            for seg in &cp.segments {
                o.item("{\"name\":\"")?;
                o.lit(seg.bucket.name());
                if let BlameBucket::LockWait { reason, obj } = seg.bucket {
                    o.lit(" ");
                    o.lit(reason.name());
                    if let Some(obj) = obj {
                        o.lit("#");
                        o.num(u64::from(obj));
                    }
                }
                o.lit("\",\"ph\":\"X\",\"cat\":\"critpath\",\"pid\":1,\"tid\":0");
                o.micros(key!("ts"), seg.start);
                o.micros(key!("dur"), seg.end.since(seg.start));
                o.lit(",\"args\":{\"thread\":");
                match seg.thread {
                    Some(t) => o.num(u64::from(t)),
                    None => o.lit("null"),
                }
                o.str(key!("bucket"), seg.bucket.name());
                o.u64(key!("startNs"), seg.start.as_ns());
                o.u64(key!("endNs"), seg.end.as_ns());
                o.lit("}}");
            }
        }
        // The config echo (and the host-phase profile, when present).
        o.lit("],\"otherData\":{\"scheduler\":");
        json::push_str(&mut o.buf, &self.meta.scheduler);
        o.u64(key!("processors"), self.meta.processors as u64);
        o.u64(key!("defaultStack"), self.meta.default_stack);
        o.opt(key!("quota"), self.meta.quota);
        o.opt(key!("perturbSeed"), self.meta.perturb_seed);
        o.opt(key!("chaosSeed"), self.meta.chaos_seed);
        match &self.host_phase {
            None => o.lit(",\"hostPhase\":null"),
            Some(hp) => {
                o.lit(",\"hostPhase\":{\"enabled\":");
                o.lit(if hp.enabled { "true" } else { "false" });
                for (name, p) in hp.phases() {
                    o.lit(",\"");
                    o.lit(name);
                    o.lit("\":{\"count\":");
                    o.num(p.count);
                    o.u64(key!("ns"), p.ns);
                    o.lit("}");
                }
                o.lit("}");
            }
        }
        o.array("},\"ptdfThreads\":[");
        for t in &self.threads {
            o.item("{\"thread\":")?;
            o.num(u64::from(t.thread));
            o.u64(key!("spawnedNs"), t.spawned.as_ns());
            o.opt(
                key!("firstDispatchNs"),
                t.first_dispatch.map(VirtTime::as_ns),
            );
            o.u64(key!("readyWaitNs"), t.ready_wait.as_ns());
            o.u64(key!("quanta"), t.quanta);
            o.opt(key!("exitedNs"), t.exited.map(VirtTime::as_ns));
            o.lit("}");
        }
        o.array("],\"ptdfDecisions\":[");
        for d in &self.decisions {
            o.item("{\"k\":\"")?;
            o.lit(d.kind.name());
            o.lit("\"");
            o.u64(key!("ns"), d.at.as_ns());
            o.u64(key!("n"), u64::from(d.n));
            o.u64(key!("chosen"), u64::from(d.chosen));
            o.opt(key!("obj"), id(d.obj));
            o.lit("}");
        }
        o.lit("]}");
        o.drain()
    }

    /// Parses a trace back from [`Trace::to_chrome_json`] output. Exact:
    /// the result compares equal to the original trace.
    ///
    /// One pass over the text, no tree. The contract, for documents other
    /// tools wrote or edited: members may come in any order; the first
    /// occurrence of a key wins, whatever its type; `null` or a
    /// non-integer where an integer is looked up reads as absent; unknown
    /// members and records on a nonzero `pid` are validated and skipped;
    /// `otherData`, `ptdfThreads` and `ptdfDecisions` may sit on either
    /// side of `traceEvents`, and only `traceEvents` is required.
    pub fn from_chrome_json(text: &str) -> Result<Trace, String> {
        type Section = fn(&mut Trace, &mut Reader<'_>) -> Option<()>;
        const SECTIONS: [(&str, u8, Section); 4] = [
            ("traceEvents", b'[', Trace::read_records),
            ("otherData", b'{', Trace::read_meta),
            ("ptdfThreads", b'[', Trace::read_threads),
            ("ptdfDecisions", b'[', Trace::read_decisions),
        ];
        let mut scratch = Scratch::default();
        let mut r = Reader::new(text, &mut scratch);
        // Pooled storage, like a recorder's: in a record → export → parse
        // cycle the parsed trace refills what an earlier one gave back.
        let mut trace = Trace::new(TraceMeta::default());
        let mut seen = [false; SECTIONS.len()];
        let mut have_events = false;
        if r.peek() == Some(b'{') {
            r.object(|r, key| {
                let Some(i) = SECTIONS.iter().position(|s| s.0 == key) else {
                    return r.skip_value();
                };
                if std::mem::replace(&mut seen[i], true) || r.peek() != Some(SECTIONS[i].1) {
                    return r.skip_value();
                }
                have_events |= i == 0;
                (SECTIONS[i].2)(&mut trace, r)
            });
        } else {
            r.skip_value();
        }
        // Whatever stopped the read above is latched in `r`.
        r.finish()?;
        if !have_events {
            return Err("missing traceEvents array".into());
        }
        Ok(trace)
    }

    /// `traceEvents`: each record's known members land in a flat scratch
    /// (`rec` for the record, `args` for its first `args` member), reused
    /// from record to record, and [`Trace::push_record`] reads the slots.
    fn read_records(&mut self, r: &mut Reader<'_>) -> Option<()> {
        let mut rec = Slots::new(&RECORD_KEYS);
        let mut args = Slots::new(&ARG_KEYS);
        r.array(|r| {
            rec.clear();
            args.clear();
            if r.peek() == Some(b'{') {
                let mut args_seen = false;
                r.object(|r, key| {
                    if key == "args" && !std::mem::replace(&mut args_seen, true) {
                        return args.read(r);
                    }
                    rec.member(r, key)
                })?;
            } else {
                r.skip_value()?;
            }
            self.push_record(r, &rec, &args)
        })
    }

    fn push_record(
        &mut self,
        r: &mut Reader<'_>,
        rec: &Slots<'_, { RECORD_KEYS.len() }>,
        args: &Slots<'_, { ARG_KEYS.len() }>,
    ) -> Option<()> {
        // Auxiliary tracks (the critical-path lane, metadata records)
        // live on nonzero pids; the recorded trace itself is pid 0.
        if rec.u64(slot!(RECORD_KEYS, "pid")).unwrap_or(0) != 0 {
            return Some(());
        }
        let ph = r.require(rec.str(slot!(RECORD_KEYS, "ph")), "record without ph")?;
        let name = rec.str(slot!(RECORD_KEYS, "name")).unwrap_or("");
        let proc = rec.u64(slot!(RECORD_KEYS, "tid")).unwrap_or(0) as usize;
        macro_rules! arg_u64 {
            ($key:literal) => {
                args.u64(slot!(ARG_KEYS, $key))
            };
        }
        macro_rules! arg_str {
            ($key:literal) => {
                args.str(slot!(ARG_KEYS, $key))
            };
        }
        match ph {
            "X" => {
                let kind = r.require(
                    arg_str!("kind").and_then(SpanKind::from_name),
                    "span without kind",
                )?;
                self.spans.push(Span {
                    proc,
                    thread: r.require(arg_u64!("thread"), "span without thread")? as u32,
                    start: VirtTime::from_ns(
                        r.require(arg_u64!("startNs"), "span without startNs")?,
                    ),
                    end: VirtTime::from_ns(r.require(arg_u64!("endNs"), "span without endNs")?),
                    kind,
                });
            }
            "i" => {
                let kind = match name {
                    "spawn" => EventKind::Spawn {
                        parent: arg_u64!("parent").map(|v| v as u32),
                    },
                    "first-dispatch" => EventKind::FirstDispatch,
                    "block" => EventKind::Block {
                        reason: r.require(
                            arg_str!("reason").and_then(BlockReason::from_name),
                            "block without reason",
                        )?,
                        obj: arg_u64!("obj").map(|v| v as u32),
                    },
                    "wake" => EventKind::Wake {
                        waker: arg_u64!("waker").map(|v| v as u32),
                    },
                    "notify" => EventKind::Notify {
                        reason: r.require(
                            arg_str!("reason").and_then(BlockReason::from_name),
                            "notify without reason",
                        )?,
                        obj: r.require(arg_u64!("obj"), "notify without obj")? as u32,
                        waiters: r.require(arg_u64!("waiters"), "notify without waiters")?,
                        woken: r.require(arg_u64!("woken"), "notify without woken")?,
                    },
                    "join" => EventKind::Join {
                        target: r.require(arg_u64!("target"), "join without target")? as u32,
                    },
                    "steal" => EventKind::Steal {
                        victim: arg_u64!("victim").map(|v| v as u32),
                    },
                    "dummy-insert" => EventKind::DummyInsert {
                        count: r.require(arg_u64!("count"), "dummy-insert without count")?,
                    },
                    "preempt" => EventKind::Preempt,
                    "stack-reserve" => EventKind::StackReserve {
                        bytes: r.require(arg_u64!("bytes"), "stack-reserve without bytes")?,
                    },
                    "stack-release" => EventKind::StackRelease {
                        bytes: r.require(arg_u64!("bytes"), "stack-release without bytes")?,
                    },
                    "alloc" => EventKind::Alloc {
                        bytes: r.require(arg_u64!("bytes"), "alloc without bytes")?,
                    },
                    "free-underflow" => EventKind::FreeUnderflow {
                        bytes: r.require(arg_u64!("bytes"), "free-underflow without bytes")?,
                    },
                    "bound-violation" => EventKind::BoundViolation {
                        footprint: r
                            .require(arg_u64!("footprint"), "bound-violation without footprint")?,
                        bound: r.require(arg_u64!("bound"), "bound-violation without bound")?,
                    },
                    "free" => EventKind::Free {
                        bytes: r.require(arg_u64!("bytes"), "free without bytes")?,
                    },
                    "timeout" => EventKind::Timeout {
                        obj: arg_u64!("obj").map(|v| v as u32),
                    },
                    "cancel" => EventKind::Cancel {
                        obj: arg_u64!("obj").map(|v| v as u32),
                        by: arg_u64!("by").map(|v| v as u32),
                    },
                    "deadlock" => EventKind::Deadlock {
                        cycle: r.require(arg_u64!("cycle"), "deadlock without cycle")? as u32,
                        waits_for: r.require(arg_u64!("waitsFor"), "deadlock without waitsFor")?
                            as u32,
                        obj: arg_u64!("obj").map(|v| v as u32),
                    },
                    other => return r.fail(format!("unknown instant event {other:?}")),
                };
                self.events.push(Event {
                    at: VirtTime::from_ns(r.require(arg_u64!("ns"), "event without ns")?),
                    proc,
                    thread: arg_u64!("thread").map(|v| v as u32),
                    kind,
                });
            }
            "C" => {
                let at = VirtTime::from_ns(r.require(arg_u64!("ns"), "counter without ns")?);
                let (track, value) = match name {
                    "footprint" => (&mut self.counters.footprint, arg_u64!("bytes")),
                    "live-threads" => (&mut self.counters.live_threads, arg_u64!("threads")),
                    "ready" => (&mut self.counters.ready, arg_u64!("entries")),
                    "active-deques" => (&mut self.counters.active_deques, arg_u64!("deques")),
                    "sched-lock-wait" => (&mut self.counters.sched_lock_wait, arg_u64!("waitNs")),
                    "host-pool-cached" => (&mut self.counters.host_pool_cached, arg_u64!("bytes")),
                    other => return r.fail(format!("unknown counter {other:?}")),
                };
                track.push((at, r.require(value, "counter without value")?));
            }
            other => return r.fail(format!("unknown phase {other:?}")),
        }
        Some(())
    }

    /// `otherData`: the config echo and, when its first `hostPhase` member
    /// is an object carrying `enabled`, the host-phase profile.
    fn read_meta(&mut self, r: &mut Reader<'_>) -> Option<()> {
        const PHASE_KEYS: [&str; 2] = ["count", "ns"];
        let mut meta = Slots::new(&META_KEYS);
        let mut enabled = Slots::new(&["enabled"]);
        let mut phase = Slots::new(&PHASE_KEYS);
        let mut stats = HostPhaseStats::default();
        let mut phases = [
            ("heap_push", &mut stats.heap_push, false),
            ("heap_pop", &mut stats.heap_pop, false),
            ("charge", &mut stats.charge, false),
            ("sched_lock", &mut stats.sched_lock, false),
            ("sched_pop", &mut stats.sched_pop, false),
            ("dispatch", &mut stats.dispatch, false),
            ("trace_alloc", &mut stats.trace_alloc, false),
        ];
        let mut hp_seen = false;
        r.object(|r, key| {
            if key != "hostPhase" || std::mem::replace(&mut hp_seen, true) || r.peek() != Some(b'{')
            {
                return meta.member(r, key);
            }
            r.object(|r, key| {
                match phases
                    .iter_mut()
                    .find(|(name, _, seen)| *name == key && !*seen)
                {
                    Some((_, slot, seen)) => {
                        *seen = true;
                        phase.read(r)?;
                        slot.count = phase.u64(slot!(PHASE_KEYS, "count")).unwrap_or(0);
                        slot.ns = phase.u64(slot!(PHASE_KEYS, "ns")).unwrap_or(0);
                        Some(())
                    }
                    None => enabled.member(r, key),
                }
            })
        })?;
        self.meta = TraceMeta {
            scheduler: meta
                .str(slot!(META_KEYS, "scheduler"))
                .unwrap_or_default()
                .to_string(),
            processors: meta.u64(slot!(META_KEYS, "processors")).unwrap_or(0) as usize,
            default_stack: meta.u64(slot!(META_KEYS, "defaultStack")).unwrap_or(0),
            quota: meta.u64(slot!(META_KEYS, "quota")),
            perturb_seed: meta.u64(slot!(META_KEYS, "perturbSeed")),
            chaos_seed: meta.u64(slot!(META_KEYS, "chaosSeed")),
        };
        if enabled.get(0).is_some() {
            stats.enabled = enabled.bool(0).unwrap_or(false);
            self.host_phase = Some(stats);
        }
        Some(())
    }

    /// `ptdfThreads`: the per-thread lifecycle table.
    fn read_threads(&mut self, r: &mut Reader<'_>) -> Option<()> {
        let mut t = Slots::new(&LIFECYCLE_KEYS);
        macro_rules! u {
            ($key:literal) => {
                t.u64(slot!(LIFECYCLE_KEYS, $key))
            };
        }
        r.array(|r| {
            t.read(r)?;
            self.threads.push(ThreadLifecycle {
                thread: r.require(u!("thread"), "lifecycle without thread")? as u32,
                spawned: VirtTime::from_ns(
                    r.require(u!("spawnedNs"), "lifecycle without spawnedNs")?,
                ),
                first_dispatch: u!("firstDispatchNs").map(VirtTime::from_ns),
                ready_wait: VirtTime::from_ns(u!("readyWaitNs").unwrap_or(0)),
                quanta: u!("quanta").unwrap_or(0),
                exited: u!("exitedNs").map(VirtTime::from_ns),
            });
            Some(())
        })
    }

    /// `ptdfDecisions`: the schedule decision log. Absent in documents
    /// written before the log existed, which load with an empty one.
    fn read_decisions(&mut self, r: &mut Reader<'_>) -> Option<()> {
        let mut d = Slots::new(&DECISION_KEYS);
        macro_rules! u {
            ($key:literal) => {
                d.u64(slot!(DECISION_KEYS, $key))
            };
        }
        r.array(|r| {
            d.read(r)?;
            self.decisions.push(crate::oracle::Decision {
                kind: r.require(
                    d.str(slot!(DECISION_KEYS, "k"))
                        .and_then(crate::oracle::DecisionKind::from_name),
                    "decision without kind",
                )?,
                at: VirtTime::from_ns(r.require(u!("ns"), "decision without ns")?),
                n: r.require(u!("n"), "decision without n")? as u32,
                chosen: r.require(u!("chosen"), "decision without chosen")? as u32,
                obj: u!("obj").map(|o| o as u32),
            });
            Some(())
        })
    }
}

/// The members [`Trace::from_chrome_json`] reads, per object kind; every
/// other member is validated and skipped. Hot keys first: [`Slots::member`]
/// searches in order.
const RECORD_KEYS: [&str; 4] = ["name", "ph", "pid", "tid"];
const ARG_KEYS: [&str; 24] = [
    "ns",
    "thread",
    "obj",
    "reason",
    "kind",
    "startNs",
    "endNs",
    "bytes",
    "waker",
    "parent",
    "target",
    "waiters",
    "woken",
    "victim",
    "count",
    "footprint",
    "bound",
    "by",
    "cycle",
    "waitsFor",
    "threads",
    "entries",
    "deques",
    "waitNs",
];
const META_KEYS: [&str; 6] = [
    "scheduler",
    "processors",
    "defaultStack",
    "quota",
    "perturbSeed",
    "chaosSeed",
];
const LIFECYCLE_KEYS: [&str; 6] = [
    "thread",
    "spawnedNs",
    "firstDispatchNs",
    "readyWaitNs",
    "quanta",
    "exitedNs",
];
const DECISION_KEYS: [&str; 5] = ["k", "ns", "n", "chosen", "obj"];

/// [`Trace::write_chrome_json`] hands its buffer to the writer whenever it
/// has grown past this.
const FLUSH_BYTES: usize = 64 * 1024;

/// Below this many nanoseconds, `ns as f64 / 1e3` printed by `f64`'s
/// `Display` *is* the exact decimal `q.rrr` (see [`ChromeOut::micros`]).
const EXACT_MICROS_BELOW_NS: u64 = 1_000_000_000_000_000;

/// Output side of the Chrome exporter: text accumulates in `buf`, which is
/// handed to `writer` (when there is one) each time an array element starts
/// with more than [`FLUSH_BYTES`] pending.
struct ChromeOut<'w> {
    buf: Vec<u8>,
    writer: Option<&'w mut dyn io::Write>,
    /// Whether the open array already has an element.
    comma: bool,
}

impl<'w> ChromeOut<'w> {
    fn new(capacity: usize, writer: Option<&'w mut dyn io::Write>) -> Self {
        ChromeOut {
            buf: Vec::with_capacity(capacity),
            writer,
            comma: false,
        }
    }

    fn drain(&mut self) -> io::Result<()> {
        if let Some(w) = &mut self.writer {
            w.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    fn lit(&mut self, text: &str) {
        self.buf.extend_from_slice(text.as_bytes());
    }

    fn num(&mut self, v: u64) {
        json::push_u64(&mut self.buf, v);
    }

    /// Opens an array; `open` is everything up to and including its `[`.
    fn array(&mut self, open: &str) {
        self.lit(open);
        self.comma = false;
    }

    /// Starts an element of the open array; `open` is its first bytes.
    fn item(&mut self, open: &str) -> io::Result<()> {
        if self.buf.len() >= FLUSH_BYTES {
            self.drain()?;
        }
        if std::mem::replace(&mut self.comma, true) {
            self.buf.push(b',');
        }
        self.lit(open);
        Ok(())
    }

    fn u64(&mut self, key: &str, v: u64) {
        self.lit(key);
        self.num(v);
    }

    fn opt(&mut self, key: &str, v: Option<u64>) {
        self.lit(key);
        match v {
            Some(v) => self.num(v),
            None => self.lit("null"),
        }
    }

    fn str(&mut self, key: &str, s: &str) {
        self.lit(key);
        json::push_str(&mut self.buf, s);
    }

    /// `t` in microseconds, as `ns as f64 / 1e3` prints. Below 10^15 ns the
    /// quotient `q.rrr` has at most 15 significant digits, and a decimal
    /// that short survives the trip through `f64` unchanged — so the
    /// shortest representation `Display` searches for is the exact decimal
    /// itself, trailing zeros trimmed, and integer arithmetic writes it
    /// directly. From 10^15 ns up the float itself is formatted.
    fn micros(&mut self, key: &str, t: VirtTime) {
        self.lit(key);
        let ns = t.as_ns();
        if ns >= EXACT_MICROS_BELOW_NS {
            return json::push_f64(&mut self.buf, ns as f64 / 1e3);
        }
        self.num(ns / 1000);
        let frac = (ns % 1000) as u32;
        let digits = [
            b'.',
            b'0' + (frac / 100) as u8,
            b'0' + (frac / 10 % 10) as u8,
            b'0' + (frac % 10) as u8,
        ];
        self.buf.extend_from_slice(&digits);
        // Trailing zeros go again, but one digit stays after the point.
        let zeros = digits[2..].iter().rev().take_while(|&&d| d == b'0').count();
        self.buf.truncate(self.buf.len() - zeros);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{obj, Value};
    use crate::{run, scope, Config, SchedKind};
    use ptdf_smp::Prng;
    use std::rc::Rc;

    #[test]
    fn trace_records_all_dispatches_without_overlap() {
        let cfg = Config::new(4, SchedKind::Df).with_trace();
        let (_, report) = run(cfg, || {
            scope(|s| {
                for i in 0..16 {
                    s.spawn(move || crate::work(1000 * (i + 1)));
                }
            })
        });
        let trace = report.trace.as_ref().expect("trace enabled");
        assert!(!trace.is_empty());
        // Every dispatch produced a span.
        let dispatches: u64 = report.stats.procs.iter().map(|p| p.dispatches).sum();
        assert!(trace.len() as u64 >= dispatches);
        assert!(
            trace.find_overlap().is_none(),
            "spans on one processor must not overlap"
        );
        // Busy time from the trace matches the stats' busy time closely.
        let busy = trace.busy_per_proc(4);
        for (b, p) in busy.iter().zip(&report.stats.procs) {
            let stat_busy = p.breakdown.busy();
            assert!(
                b.as_ns() <= stat_busy.as_ns(),
                "trace busy {} > stats busy {}",
                b,
                stat_busy
            );
        }
        trace.validate().expect("structurally valid trace");
    }

    #[test]
    fn chrome_json_round_trips_exactly() {
        let cfg = Config::new(2, SchedKind::Df).with_trace().with_quota(2048);
        let (_, report) = run(cfg, || {
            let h = crate::spawn(|| {
                crate::rt_alloc(64 * 1024); // forces dummies + preemption
                crate::work(5000);
                crate::rt_free(64 * 1024);
            });
            h.join();
        });
        let trace = report.trace.unwrap();
        let json = trace.to_chrome_json();
        // Well-formed JSON (full parse, not brace counting).
        let doc = Value::parse(&json).expect("well-formed JSON");
        assert!(doc.get("traceEvents").is_some());
        // Lossless round trip.
        let back = Trace::from_chrome_json(&json).expect("parse back");
        assert_eq!(back, trace);
    }

    /// The one string of a trace that can need escaping is the scheduler
    /// name; escaped, it is not a slice of the document, and reaches
    /// `TraceMeta` through the reader's scratch.
    #[test]
    fn scheduler_names_that_need_escaping_round_trip() {
        let mut trace = hostile_trace();
        for name in [
            "",
            "\"",
            "\\",
            "quoted \"df\" \\ back\\slash",
            "ctl \u{0}\u{1}\u{8}\t\n\u{c}\r\u{1f} end",
            "non-ASCII: héllo ✓ 数 😀",
            "all at once: \"é\"\\\n😀\u{7f}\u{80}/",
        ] {
            trace.meta.scheduler = name.to_string();
            let json = trace.to_chrome_json();
            let back = Trace::from_chrome_json(&json).expect("parse back");
            assert_eq!(back.meta.scheduler, name, "{json:.120}");
            assert!(back == trace, "{name:?}");
            // A second, later escaped string must not disturb the first.
            let noted = json.replacen(
                "\"otherData\":{",
                "\"otherData\":{\"n\\u006fte\":\"\\\\\",",
                1,
            );
            let late = format!("{},\"\\u0078\":\"\\n\"}}", &noted[..noted.len() - 1]);
            assert!(Trace::from_chrome_json(&late).expect("parse back") == trace);
        }
    }

    #[test]
    fn chrome_json_round_trips_host_phase_and_skips_critpath_track() {
        let cfg = Config::new(2, SchedKind::Df).with_trace();
        let (_, report) = run(cfg, || {
            scope(|s| {
                for i in 0..6 {
                    s.spawn(move || crate::work(1000 * (i + 1)));
                }
            })
        });
        let mut trace = report.trace.unwrap();
        let mut hp = HostPhaseStats {
            enabled: true,
            ..HostPhaseStats::default()
        };
        hp.heap_push.count = 3;
        hp.heap_push.ns = 1234;
        hp.dispatch.count = 17;
        hp.dispatch.ns = 98765;
        trace.host_phase = Some(hp);
        let back = Trace::from_chrome_json(&trace.to_chrome_json()).expect("parse back");
        assert_eq!(back, trace, "hostPhase must survive the round trip");
        // The merged critical-path export parses back to the same base
        // trace: the extra pid-1 lane is skipped on import.
        let cp = crate::critpath::analyze(&trace);
        assert!(!cp.segments.is_empty());
        let merged = trace.to_chrome_json_with_critpath(&cp);
        assert!(merged.contains("\"critpath\""));
        let back = Trace::from_chrome_json(&merged).expect("parse merged");
        assert_eq!(back, trace);
    }

    #[test]
    fn chrome_json_round_trips_zero_count_host_phase() {
        // A profiled run that never exercised a phase exports that phase
        // with count 0 / ns 0; the round trip must preserve it instead of
        // dropping the entry or conjuring a different default.
        let mut trace = Trace::default();
        trace.meta.scheduler = "df".to_string();
        trace.host_phase = Some(HostPhaseStats {
            enabled: true,
            ..HostPhaseStats::default()
        });
        let back = Trace::from_chrome_json(&trace.to_chrome_json()).expect("parse back");
        assert_eq!(back, trace, "all-zero host_phase must survive");
        // Same with the profile disabled (enabled=false, all zero).
        trace.host_phase = Some(HostPhaseStats::default());
        let back = Trace::from_chrome_json(&trace.to_chrome_json()).expect("parse back");
        assert_eq!(back, trace, "disabled host_phase must survive");
        // And with a mix of zero and nonzero phases.
        let mut hp = HostPhaseStats {
            enabled: true,
            ..HostPhaseStats::default()
        };
        hp.charge.count = 9;
        hp.charge.ns = 4321;
        trace.host_phase = Some(hp);
        let back = Trace::from_chrome_json(&trace.to_chrome_json()).expect("parse back");
        assert_eq!(back, trace, "mixed zero/nonzero host_phase must survive");
    }

    #[test]
    fn pooled_trace_storage_is_recycled_and_round_trips() {
        let traced_run = || {
            let cfg = Config::new(2, SchedKind::Df).with_trace();
            let (_, report) = run(cfg, || {
                scope(|s| {
                    for i in 0..8 {
                        s.spawn(move || crate::work(1000 * (i + 1)));
                    }
                })
            });
            report.trace.expect("trace enabled")
        };
        let first = traced_run();
        let json_fresh = first.to_chrome_json();
        drop(first); // returns its storage to the thread-local pool
        let pooled = Trace::pool_len();
        assert!(pooled >= 1, "dropping a trace must feed the pool");
        assert!(pooled <= TRACE_POOL_MAX, "pool must stay bounded");
        // The identical deterministic run, now served from recycled
        // storage: bit-identical export, lossless round trip.
        let second = traced_run();
        assert_eq!(
            Trace::pool_len(),
            pooled - 1,
            "the traced run must draw its storage from the pool"
        );
        let json_pooled = second.to_chrome_json();
        assert_eq!(
            json_pooled, json_fresh,
            "pooled storage must not change the export"
        );
        let back = Trace::from_chrome_json(&json_pooled).expect("parse back");
        assert_eq!(back, second);
        // The parser draws from the pool as a recorder does, so a record →
        // export → parse cycle refills the two storages it gave back.
        drop(back);
        let pooled = Trace::pool_len();
        assert!(pooled >= 1);
        let again = Trace::from_chrome_json(&json_pooled).expect("parse back");
        assert_eq!(
            Trace::pool_len(),
            pooled - 1,
            "a parse must draw from the pool"
        );
        assert_eq!(again, second);
    }

    #[test]
    fn pool_survives_panic_during_traced_run() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // Drain whatever earlier code on this thread left behind so the
        // counts below are about *this* test's traces.
        TRACE_POOL.with(|p| p.borrow_mut().clear());
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            let cfg = Config::new(2, SchedKind::Df).with_trace();
            let _ = run(cfg, || {
                scope(|s| {
                    s.spawn(|| crate::work(1000));
                });
                panic!("root thread panic under trace");
            });
        }));
        assert!(panicked.is_err(), "root panic must propagate");
        // The report (and its trace) dropped during unwinding: storage must
        // have been returned, not leaked or left mid-donation.
        assert_eq!(
            Trace::pool_len(),
            1,
            "unwinding must return the trace storage to the pool"
        );
        // A fresh traced run reuses the post-panic pool and still produces
        // a valid, losslessly round-trippable trace.
        let cfg = Config::new(2, SchedKind::Fifo).with_trace();
        let (_, report) = run(cfg, || {
            scope(|s| {
                for i in 0..4 {
                    s.spawn(move || crate::work(500 * (i + 1)));
                }
            })
        });
        let trace = report.trace.expect("trace enabled");
        trace.validate().expect("valid trace from recycled storage");
        let back = Trace::from_chrome_json(&trace.to_chrome_json()).expect("parse back");
        assert_eq!(back, trace);
    }

    #[test]
    fn trace_disabled_by_default() {
        let (_, report) = run(Config::new(1, SchedKind::Df), || ());
        assert!(report.trace.is_none());
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
        assert!(t.find_overlap().is_none(), "adjacent-processor false positive");
        // The same intervals on one processor: caught.
        let mut t = Trace::default();
        t.spans.push(span(2, 0, 100));
        t.spans.push(span(2, 50, 150));
        let (a, b) = t.find_overlap().expect("must catch same-proc overlap");
        assert_eq!((a.start.as_ns(), b.start.as_ns()), (0, 50));
    }

    #[test]
    fn events_cover_the_taxonomy() {
        // Df run: memory-path kinds (dummies, preemption, alloc/free).
        let cfg = Config::new(2, SchedKind::Df).with_trace().with_quota(1024);
        let (_, report) = run(cfg, || {
            let h = crate::spawn(|| crate::work(5000));
            crate::rt_alloc(8 * 1024); // > K -> dummies + preempt
            crate::rt_free(8 * 1024);
            h.join();
        });
        let trace = report.trace.unwrap();
        let counts = trace.event_kind_counts();
        let has = |k: &str| counts.iter().any(|&(n, _)| n == k);
        for kind in [
            "spawn",
            "first-dispatch",
            "join",
            "dummy-insert",
            "preempt",
            "stack-reserve",
            "stack-release",
            "alloc",
            "free",
        ] {
            assert!(has(kind), "missing event kind {kind}: {counts:?}");
        }
        assert!(counts.len() >= 6, "acceptance: >= 6 event kinds in one run");
        // Counter tracks: footprint, live-threads, ready at minimum.
        assert!(!trace.counters.footprint.is_empty());
        assert!(!trace.counters.live_threads.is_empty());
        assert!(!trace.counters.ready.is_empty());
        trace.validate().expect("valid df trace");

        // Fifo run: deterministic block/wake — with a two-party barrier,
        // whichever thread arrives first must block until the other shows.
        let cfg = Config::new(2, SchedKind::Fifo).with_trace();
        let (_, report) = run(cfg, || {
            let b = crate::Barrier::new(2);
            let b2 = b.clone();
            let h = crate::spawn(move || {
                crate::work(5000);
                b2.wait();
            });
            b.wait();
            h.join();
        });
        let trace = report.trace.unwrap();
        let blocks: Vec<_> = trace
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Block { reason, .. } => Some(reason),
                _ => None,
            })
            .collect();
        assert!(
            blocks.contains(&BlockReason::Barrier),
            "first barrier arrival must block: {blocks:?} / {:?}",
            trace.event_kind_counts()
        );
        let wakes = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Wake { .. }))
            .count();
        assert!(wakes >= 1, "barrier completion must produce a wake event");
        trace.validate().expect("valid fifo trace");
    }

    #[test]
    fn steal_events_carry_victims() {
        let cfg = Config::new(4, SchedKind::Ws).with_trace();
        let (_, report) = run(cfg, || {
            scope(|s| {
                for _ in 0..32 {
                    s.spawn(|| crate::work(50_000));
                }
            })
        });
        let trace = report.trace.unwrap();
        let steals: Vec<_> = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Steal { .. }))
            .collect();
        assert_eq!(steals.len() as u64, report.steals, "one event per steal");
        assert!(!steals.is_empty(), "ws at p=4 must steal");
        for e in &steals {
            let EventKind::Steal { victim } = e.kind else {
                unreachable!()
            };
            let v = victim.expect("ws knows its victim") as usize;
            assert_ne!(v, e.proc, "no self-steals");
        }
    }

    #[test]
    fn lifecycle_percentiles_are_consistent() {
        let cfg = Config::new(2, SchedKind::Fifo).with_trace();
        let (_, report) = run(cfg, || {
            scope(|s| {
                for i in 0..24 {
                    s.spawn(move || crate::work(2000 * (i % 5 + 1)));
                }
            })
        });
        let trace = report.trace.as_ref().unwrap();
        let lc = trace.lifecycle();
        assert_eq!(lc.threads, report.total_threads as u64);
        // Every dispatch is a quantum of exactly one thread.
        let dispatches: u64 = report.stats.procs.iter().map(|p| p.dispatches).sum();
        assert_eq!(lc.total_quanta, dispatches);
        assert!(lc.dispatch_latency.count > 0);
        assert!(lc.dispatch_latency.p50 <= lc.dispatch_latency.p90);
        assert!(lc.dispatch_latency.p90 <= lc.dispatch_latency.p99);
        assert!(lc.dispatch_latency.p99 <= lc.dispatch_latency.max);
        let hist_total: u64 = lc.dispatch_latency.hist_log2.iter().sum();
        assert_eq!(hist_total, lc.dispatch_latency.count);
        // FIFO at p=2 queues threads: someone must actually wait.
        assert!(lc.ready_wait.max > VirtTime::ZERO);
    }

    /// A small fork-join program touching most event kinds: nested
    /// spawn/join, a contended mutex, a two-party barrier, and one
    /// allocation above the DF quota (dummies + preemption under the
    /// quota-carrying policies).
    fn corpus_program() {
        fn tree(depth: u32) {
            if depth == 0 {
                crate::work(1_500);
                return;
            }
            let h = crate::spawn(move || tree(depth - 1));
            tree(depth - 1);
            h.join();
        }
        let m = crate::Mutex::new(0u64);
        let b = crate::Barrier::new(2);
        let (m2, b2) = (m.clone(), b.clone());
        let h = crate::spawn(move || {
            *m2.lock() += 1;
            crate::work(10_000);
            b2.wait();
        });
        tree(3);
        crate::rt_alloc(64 * 1024);
        crate::rt_free(64 * 1024);
        b.wait();
        *m.lock() += 1;
        h.join();
    }

    /// Hand-built trace for the escaping and `ts`/`dur` formatting rules:
    /// a scheduler name with every escape class and virtual times on both
    /// sides of the exact-decimal boundary (10^15 ns).
    fn hostile_trace() -> Trace {
        const E15: u64 = 1_000_000_000_000_000;
        let times = [
            0,
            1,
            10,
            100,
            999,
            1_000,
            1_001,
            1_010,
            1_100,
            123_456,
            E15 - 1,
            E15,
            E15 + 1,
            (1 << 53) + 1,
            u64::MAX,
        ];
        let mut t = Trace::default();
        t.meta = TraceMeta {
            scheduler: "a\"b\\c\n\u{1}".to_string(),
            processors: 2,
            default_stack: 8192,
            quota: Some(u64::MAX),
            perturb_seed: None,
            chaos_seed: Some(0),
        };
        for (i, w) in times.windows(2).enumerate() {
            t.spans.push(Span {
                proc: i % 2,
                thread: i as u32,
                start: VirtTime::from_ns(w[0]),
                end: VirtTime::from_ns(w[1]),
                kind: [SpanKind::Run, SpanKind::Dummy, SpanKind::Resume][i % 3],
            });
        }
        for (i, &at) in times.iter().enumerate() {
            t.events.push(Event {
                at: VirtTime::from_ns(at),
                proc: i % 2,
                thread: (i % 4 != 0).then_some(i as u32),
                kind: match i % 5 {
                    0 => EventKind::Alloc { bytes: at },
                    1 => EventKind::Spawn { parent: None },
                    2 => EventKind::Block {
                        reason: BlockReason::RwWrite,
                        obj: None,
                    },
                    3 => EventKind::BoundViolation {
                        footprint: at,
                        bound: 7,
                    },
                    _ => EventKind::Deadlock {
                        cycle: 1,
                        waits_for: 2,
                        obj: Some(3),
                    },
                },
            });
            t.counters.footprint.push((VirtTime::from_ns(at), at));
            t.counters
                .host_pool_cached
                .push((VirtTime::from_ns(at), i as u64));
        }
        t.threads
            .push(ThreadLifecycle::new(0, VirtTime::from_ns(999)));
        t.threads.push(ThreadLifecycle {
            thread: 1,
            spawned: VirtTime::ZERO,
            first_dispatch: Some(VirtTime::from_ns(1_000)),
            ready_wait: VirtTime::from_ns(E15 + 1),
            quanta: 3,
            exited: Some(VirtTime::from_ns(u64::MAX)),
        });
        t
    }

    /// The trace of a traced run, minus the one track that depends on the
    /// fiber backend: `host-pool-cached` samples the host stack pool, which
    /// the portable backend does not have. (`hostile_trace` keeps the
    /// track's formatting covered.)
    fn recorded(report: crate::Report) -> Trace {
        let mut trace = report.trace.expect("trace enabled");
        trace.counters.host_pool_cached.clear();
        trace
    }

    /// The byte-identity corpus: `(row name, exported document)`.
    fn export_corpus() -> Vec<(String, String)> {
        let mut rows = Vec::new();
        let mut fork_join_df = None;
        for kind in [
            SchedKind::Fifo,
            SchedKind::Lifo,
            SchedKind::Df,
            SchedKind::DfDeques,
            SchedKind::Ws,
        ] {
            let cfg = Config::new(4, kind).with_trace().with_quota(16 * 1024);
            let (_, report) = run(cfg, corpus_program);
            let trace = recorded(report);
            rows.push((format!("fork-join/{}", kind.name()), trace.to_chrome_json()));
            if kind == SchedKind::Df {
                fork_join_df = Some(trace);
            }
        }
        // A litmus program under a scripted oracle: the decision log rides
        // in `ptdfDecisions`.
        let l = crate::litmus::find("mutex_increments").expect("corpus program");
        let oracle = crate::oracle::ScheduleOracle::scripted(vec![1, 0, 1]).shared();
        let cfg = Config::new(l.procs, SchedKind::Df)
            .with_trace()
            .with_oracle(oracle);
        let (_, report) = run(cfg, l.body);
        let trace = recorded(report);
        assert!(!trace.decisions.is_empty(), "oracle runs log decisions");
        rows.push(("litmus/mutex_increments".into(), trace.to_chrome_json()));
        // The three-lock ring of `examples/deadlock_trace`.
        let cfg = Config::new(3, SchedKind::Df)
            .with_trace()
            .with_perturbation(9);
        let outcome = crate::try_run(cfg, || {
            let locks = [
                crate::Mutex::new(()),
                crate::Mutex::new(()),
                crate::Mutex::new(()),
            ];
            let handles: Vec<_> = (0..3)
                .map(|i| {
                    let first = locks[i].clone();
                    let second = locks[(i + 1) % 3].clone();
                    crate::spawn(move || {
                        let _g1 = first.lock();
                        crate::work(300_000);
                        let _g2 = second.lock();
                    })
                })
                .collect();
            for h in handles {
                let _ = h.try_join();
            }
        });
        let (_, report) = outcome.expect("a detected deadlock is a verdict");
        let trace = recorded(report);
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Deadlock { .. })));
        rows.push(("deadlock-ring".into(), trace.to_chrome_json()));
        // A cancelled timed wait (Block, then Cancel instead of Timeout).
        let l = crate::litmus::find("cancel_deadline_race").expect("corpus program");
        let (_, report) = run(Config::new(l.procs, SchedKind::Fifo).with_trace(), l.body);
        let trace = recorded(report);
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Cancel { .. })));
        rows.push(("cancelled-timed-wait".into(), trace.to_chrome_json()));
        // A profiled run: `hostPhase` present. Phase counts are the run's
        // own; host nanoseconds are not reproducible, so they are pinned.
        let cfg = Config::new(2, SchedKind::Df)
            .with_trace()
            .with_host_profile(true);
        let (_, report) = run(cfg, corpus_program);
        let mut trace = recorded(report);
        let hp = trace
            .host_phase
            .as_mut()
            .expect("profiled run carries hostPhase");
        for slot in [
            &mut hp.heap_push,
            &mut hp.heap_pop,
            &mut hp.charge,
            &mut hp.sched_lock,
            &mut hp.sched_pop,
            &mut hp.dispatch,
            &mut hp.trace_alloc,
        ] {
            slot.ns = slot.count * 37 + 1;
        }
        rows.push(("profiled".into(), trace.to_chrome_json()));
        // The committed CLI fixtures, re-exported.
        for (name, text) in [
            (
                "zero_count_host_phase",
                include_str!("../../trace-tools/fixtures/zero_count_host_phase.json"),
            ),
            (
                "zero_events",
                include_str!("../../trace-tools/fixtures/zero_events.json"),
            ),
            (
                "zero_makespan",
                include_str!("../../trace-tools/fixtures/zero_makespan.json"),
            ),
        ] {
            let trace = Trace::from_chrome_json(text).expect("fixture parses");
            rows.push((format!("fixture/{name}"), trace.to_chrome_json()));
        }
        rows.push(("hostile".into(), hostile_trace().to_chrome_json()));
        // The merged critical-path export, on one trace.
        let trace = fork_join_df.expect("df row ran");
        let cp = crate::critpath::analyze(&trace);
        assert!(!cp.segments.is_empty());
        rows.push((
            "critpath/fork-join/df".into(),
            trace.to_chrome_json_with_critpath(&cp),
        ));
        rows
    }

    /// FNV-1a-64 and length of every corpus row (first captured from the
    /// `Value`-tree exporter, which the streaming one had to reproduce).
    /// The documents must never change by accident: `ptdf-trace diff` and
    /// every committed fixture depend on the bytes.
    const EXPORT_CORPUS: &[(&str, u64, usize)] = &[
        ("fork-join/fifo", 0x3dcb64c1f7b83f42, 16137),
        ("fork-join/lifo", 0xad6ce1795e9541c8, 16137),
        ("fork-join/df", 0xcbee05c0350198a3, 24174),
        ("fork-join/df-deques", 0xcb0da8baaa8afef0, 21776),
        ("fork-join/ws", 0x9bbc6ae5391be93e, 16631),
        ("litmus/mutex_increments", 0x078c21fc06f8271e, 6410),
        ("deadlock-ring", 0x518a6ce250a581c3, 10805),
        ("cancelled-timed-wait", 0x92544e68887a3211, 3355),
        ("profiled", 0x88a543edbf772877, 14966),
        ("fixture/zero_count_host_phase", 0x9003569a61a4ec01, 525),
        ("fixture/zero_events", 0x433b40da794e9cec, 300),
        ("fixture/zero_makespan", 0x4efff3613ce07e21, 295),
        ("hostile", 0x59a4a369f2ee4a89, 7073),
        ("critpath/fork-join/df", 0xb0731552d352d6f0, 28399),
    ];

    #[test]
    fn export_is_byte_identical_on_the_corpus() {
        let rows = export_corpus();
        assert_eq!(rows.len(), EXPORT_CORPUS.len());
        for ((name, json), &(want_name, want_hash, want_len)) in rows.iter().zip(EXPORT_CORPUS) {
            assert_eq!(name, want_name);
            assert_eq!(
                (crate::explore::fnv1a(json.as_bytes()), json.len()),
                (want_hash, want_len),
                "{name}: export bytes changed"
            );
            // Parse → export is the identity on every row (the critical-path
            // lane is dropped on import, so that row re-exports to its base).
            let back = Trace::from_chrome_json(json).expect("corpus row parses");
            let base = if name.starts_with("critpath/") {
                &rows[2].1
            } else {
                json
            };
            assert_eq!(&back.to_chrome_json(), base, "{name}");
        }
    }

    /// What the three analyses say about `t`, in their `Debug` form.
    fn analyses(t: &Trace) -> String {
        let results = (
            crate::check_trace(t),
            crate::critpath::analyze(t),
            crate::critpath::object_waits(t),
        );
        format!("{results:?}")
    }

    /// FNV-1a-64 of [`analyses`] on every base document of
    /// [`export_corpus`], captured from the analyzers that each made a
    /// private pass over the trace. The shared index under them must
    /// reproduce every value; the table is never regenerated by a refactor.
    /// (The 500-request server row lives in `tests/flight_recorder.rs`,
    /// where `ptdf-server` is a dependency.)
    const ANALYSIS_CORPUS: &[(&str, u64)] = &[
        ("fork-join/fifo", 0xf4c06b9c2014bd9a),
        ("fork-join/lifo", 0xf4c06b9c2014bd9a),
        ("fork-join/df", 0x991cbb25bf2125e8),
        ("fork-join/df-deques", 0x1c0055a663134ab7),
        ("fork-join/ws", 0x387a55ada2503f5e),
        ("litmus/mutex_increments", 0x55e4b857982115bf),
        ("deadlock-ring", 0x9a9fcf0751e0c354),
        ("cancelled-timed-wait", 0xfd48cccb5f58aa8b),
        ("profiled", 0x963a8fd282940c7f),
        ("fixture/zero_count_host_phase", 0xbe3bb89c7020d912),
        ("fixture/zero_events", 0xbe3bb89c7020d912),
        ("fixture/zero_makespan", 0x6d010ecbf0dc60ff),
        ("hostile", 0x189d0c73434fa273),
    ];

    #[test]
    fn analyses_are_value_identical_on_the_corpus() {
        let rows = export_corpus();
        let base: Vec<_> = rows
            .iter()
            .filter(|(name, _)| !name.starts_with("critpath/"))
            .collect();
        assert_eq!(base.len(), ANALYSIS_CORPUS.len());
        for ((name, json), &(want_name, want)) in base.iter().zip(ANALYSIS_CORPUS) {
            assert_eq!(name, want_name);
            let t = Trace::from_chrome_json(json).expect("corpus row parses");
            assert_eq!(
                crate::explore::fnv1a(analyses(&t).as_bytes()),
                want,
                "{name}: check, critpath or object_waits changed its answer"
            );
        }
    }

    /// A document's `events` need not be in time order (the recorder sorts
    /// them; an editor may not): the analyses read them as their stable
    /// sort by `at`.
    #[test]
    fn out_of_order_events_analyse_as_their_stable_sort() {
        let cfg = Config::new(4, SchedKind::Df)
            .with_trace()
            .with_quota(16 * 1024);
        let (_, report) = run(cfg, corpus_program);
        let mut shuffled = recorded(report);
        let mut rng = Prng::new(0x9e37_79b9_7f4a_7c15);
        for i in (1..shuffled.events.len()).rev() {
            shuffled.events.swap(i, pick(&mut rng, i + 1));
        }
        assert!(shuffled.events.windows(2).any(|w| w[0].at > w[1].at));
        let mut sorted = shuffled.clone();
        sorted.events.sort_by_key(|e| e.at);
        assert_eq!(analyses(&shuffled), analyses(&sorted));
        let cp = crate::critpath::analyze(&shuffled);
        assert!(cp.blame.compute > VirtTime::ZERO && cp.blame.sum() == cp.makespan);
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
        let check = crate::check_trace(&t);
        assert_eq!(
            check.violations,
            vec![crate::Violation::WakeWithoutNotify {
                thread: BIG,
                waker: Some(WAKER),
                obj: BIG,
                at: ns(80),
            }]
        );
        let cp = crate::critpath::analyze(&t);
        assert_eq!(cp.makespan, ns(50));
        assert_eq!(
            (cp.blame.compute, cp.blame.ready_wait, cp.blame.sum()),
            (ns(40), ns(10), ns(50))
        );
        assert!(cp.segments.iter().all(|s| s.thread == Some(BIG)));
        assert_eq!(
            crate::critpath::object_waits(&t),
            vec![crate::critpath::ObjectWait {
                reason: BlockReason::Mutex,
                obj: BIG,
                waits: 1,
                total: ns(30),
                max: ns(30),
            }]
        );
    }

    /// A seeded index below `n` (the property tests' only randomness is
    /// the engine's own `Prng`).
    fn pick(rng: &mut Prng, n: usize) -> usize {
        rng.below(n as u64) as usize
    }

    #[test]
    fn micros_match_float_display_on_both_sides_of_the_boundary() {
        let exact = |ns: u64| {
            let mut out = ChromeOut::new(0, None);
            out.micros("", VirtTime::from_ns(ns));
            json::into_string(out.buf)
        };
        let display = |ns: u64| Value::Float(ns as f64 / 1e3).to_json();
        for ns in 0..200_000 {
            assert_eq!(exact(ns), display(ns), "{ns}");
        }
        let mut rng = Prng::new(0x2545_f491_4f6c_dd1d);
        for _ in 0..200_000 {
            // Every magnitude up to the boundary, and some past it.
            let ns = rng.next_u64() % 10u64.pow(1 + pick(&mut rng, 17) as u32);
            assert_eq!(exact(ns), display(ns), "{ns}");
        }
        for ns in [
            EXACT_MICROS_BELOW_NS - 1_001,
            EXACT_MICROS_BELOW_NS - 1_000,
            EXACT_MICROS_BELOW_NS - 1,
            EXACT_MICROS_BELOW_NS,
            EXACT_MICROS_BELOW_NS + 1,
            u64::MAX,
        ] {
            assert_eq!(exact(ns), display(ns), "{ns}");
        }
        assert_eq!(exact(0), "0.0");
        assert_eq!(exact(1_500), "1.5");
        assert_eq!(exact(999_999_999_999_999), "999999999999.999");
    }

    #[test]
    fn export_reserves_within_a_tenth_of_what_it_writes() {
        for kind in [SchedKind::Fifo, SchedKind::Df, SchedKind::Ws] {
            let cfg = Config::new(4, kind).with_trace();
            let (_, report) = run(cfg, || {
                let m = crate::Mutex::new(0u64);
                scope(|s| {
                    for i in 0..400 {
                        let m = m.clone();
                        s.spawn(move || {
                            crate::work(500 + i);
                            *m.lock() += 1;
                        });
                    }
                })
            });
            let trace = report.trace.expect("trace enabled");
            let cp = crate::critpath::analyze(&trace);
            for (cp, json) in [
                (None, trace.to_chrome_json()),
                (Some(&cp), trace.to_chrome_json_with_critpath(&cp)),
            ] {
                let reserved = trace.chrome_len_estimate(cp);
                assert_eq!(json.capacity(), reserved, "{kind:?}: the buffer regrew");
                assert!(
                    reserved * 10 <= json.len() * 11,
                    "{kind:?}: {reserved} B reserved for {} B of text",
                    json.len()
                );
            }
        }
    }

    #[test]
    fn write_chrome_json_streams_the_same_bytes_in_pieces() {
        /// Keeps the bytes and counts the `write` calls.
        #[derive(Default)]
        struct Pieces(Vec<u8>, usize);
        impl io::Write for Pieces {
            fn write(&mut self, piece: &[u8]) -> io::Result<usize> {
                self.0.extend_from_slice(piece);
                self.1 += 1;
                Ok(piece.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        struct Full;
        impl io::Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let cfg = Config::new(4, SchedKind::Df).with_trace();
        let (_, report) = run(cfg, || {
            scope(|s| {
                for i in 0..400 {
                    s.spawn(move || crate::work(500 + i));
                }
            })
        });
        let trace = report.trace.expect("trace enabled");
        let whole = trace.to_chrome_json();
        assert!(whole.len() > 4 * FLUSH_BYTES, "want several flushes");
        let mut pieces = Pieces::default();
        trace
            .write_chrome_json(&mut pieces)
            .expect("in-memory writer");
        assert!(pieces.0 == whole.as_bytes(), "streamed bytes differ");
        assert!(
            (4..=whole.len() / FLUSH_BYTES + 1).contains(&pieces.1),
            "{} writes for {} bytes",
            pieces.1,
            whole.len()
        );
        let cp = crate::critpath::analyze(&trace);
        let mut pieces = Pieces::default();
        trace
            .write_chrome_json_with_critpath(&cp, &mut pieces)
            .expect("in-memory writer");
        assert!(pieces.0 == trace.to_chrome_json_with_critpath(&cp).as_bytes());
        assert_eq!(
            trace.write_chrome_json(&mut Full).unwrap_err().to_string(),
            "disk full"
        );
    }

    /// A real trace small enough to mutate many times, with every top-level
    /// section populated: a perturbed (decision-logged), profiled run of the
    /// corpus program.
    fn small_real_trace() -> Trace {
        let cfg = Config::new(3, SchedKind::Df)
            .with_trace()
            .with_perturbation(9)
            .with_host_profile(true);
        let (_, report) = run(cfg, corpus_program);
        let trace = report.trace.expect("trace enabled");
        assert!(!trace.decisions.is_empty() && trace.host_phase.is_some());
        trace
    }

    /// A member no reader looks at: a scalar or a nested compound, the
    /// compounds reusing known key names one level down.
    fn unknown_member(rng: &mut Prng) -> (Rc<str>, Value) {
        let value = match pick(rng, 6) {
            0 => Value::Null,
            1 => Value::Float(0.25),
            2 => Value::Str("ph\\\"\u{1}".into()),
            3 => Value::Int(-7),
            4 => Value::Arr(vec![Value::UInt(1), obj(vec![("pid", Value::UInt(9))])]),
            _ => obj(vec![
                ("args", obj(vec![("ns", Value::UInt(1))])),
                ("traceEvents", Value::Arr(vec![Value::Null])),
            ]),
        };
        (["zz", "x-note", "cat", "id"][pick(rng, 4)].into(), value)
    }

    /// Shuffles every object's members, sprinkles unknown members in, and
    /// repeats some members *after* their first occurrence with another
    /// value — none of which a first-match reader may notice.
    fn scramble(v: &mut Value, rng: &mut Prng) {
        match v {
            Value::Arr(items) => items.iter_mut().for_each(|item| scramble(item, rng)),
            Value::Obj(members) => {
                members.iter_mut().for_each(|(_, m)| scramble(m, rng));
                for i in (1..members.len()).rev() {
                    members.swap(i, pick(rng, i + 1));
                }
                for _ in 0..pick(rng, 3) {
                    let at = pick(rng, members.len() + 1);
                    members.insert(at, unknown_member(rng));
                }
                if !members.is_empty() && pick(rng, 2) == 0 {
                    let first = pick(rng, members.len());
                    let key = members[first].0.clone();
                    let at = first + 1 + pick(rng, members.len() - first);
                    members.insert(at, (key, unknown_member(rng).1));
                }
            }
            _ => {}
        }
    }

    #[test]
    fn parser_ignores_member_order_unknown_members_and_late_duplicates() {
        let trace = small_real_trace();
        let tree = Value::parse(&trace.to_chrome_json()).expect("export is JSON");
        let mut rng = Prng::new(0x9e37_79b9_7f4a_7c15);
        for round in 0..60 {
            let mut doc = tree.clone();
            scramble(&mut doc, &mut rng);
            let text = doc.to_json();
            let back = Trace::from_chrome_json(&text)
                .unwrap_or_else(|e| panic!("round {round}: {e}\n{text}"));
            assert!(back == trace, "round {round} parsed differently:\n{text}");
        }
        // Whitespace between tokens is invisible too.
        let spaced = trace
            .to_chrome_json()
            .replace("\":", "\" :\t")
            .replace(',', " ,\n")
            .replace('{', "{ ")
            .replace('}', "\r\n}");
        assert!(Trace::from_chrome_json(&spaced).expect("spaced") == trace);
    }

    #[test]
    fn damaged_documents_end_in_ok_or_err_never_a_panic() {
        let l = crate::litmus::find("cancel_deadline_race").expect("corpus program");
        let (_, report) = run(Config::new(l.procs, SchedKind::Fifo).with_trace(), l.body);
        let mut trace = report.trace.expect("trace enabled");
        trace.meta.scheduler = "fi\\fo \"é\" 😀".into();
        let text = trace.to_chrome_json();
        let mut verdicts = [0usize; 2];
        for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            verdicts[Trace::from_chrome_json(&text[..cut]).is_ok() as usize] += 1;
        }
        assert_eq!(
            verdicts[1], 0,
            "no proper prefix of a document is a document"
        );
        let mut rng = Prng::new(0xd1b5_4a32_d192_ed03);
        for _ in 0..2_000 {
            let mut bytes = text.clone().into_bytes();
            let at = pick(&mut rng, bytes.len());
            bytes[at] = match pick(&mut rng, 4) {
                0 => *b"{}[]\",:-+.eE0 9nt\\u"
                    .get(pick(&mut rng, 19))
                    .expect("19 bytes"),
                1 => bytes[at] ^ (1 << pick(&mut rng, 7)),
                2 => bytes[pick(&mut rng, text.len())],
                _ => rng.next_u64() as u8,
            };
            if let Ok(damaged) = String::from_utf8(bytes) {
                verdicts[Trace::from_chrome_json(&damaged).is_ok() as usize] += 1;
            }
        }
        assert!(
            verdicts[0] > 0 && verdicts[1] > 0,
            "both verdicts exercised: {verdicts:?}"
        );
    }

    #[test]
    fn every_parse_error_still_has_its_message() {
        let doc = |records: &str| format!(r#"{{"traceEvents":[{records}]}}"#);
        let rec = |ph: &str, name: &str, args: &str| {
            doc(&format!(
                r#"{{"ph":"{ph}","name":"{name}","args":{{{args}}}}}"#
            ))
        };
        let sections = |rest: &str| format!(r#"{{"traceEvents":[],{rest}}}"#);
        let ns = r#""ns":1"#;
        for (text, want) in [
            ("{}".to_string(), "missing traceEvents array"),
            ("[]".into(), "missing traceEvents array"),
            ("7".into(), "missing traceEvents array"),
            (r#"{"traceEvents":{}}"#.into(), "missing traceEvents array"),
            // The first occurrence decides, even when a later one would do.
            (
                r#"{"traceEvents":null,"traceEvents":[]}"#.into(),
                "missing traceEvents array",
            ),
            (
                r#"{"traceEvents":[]} x"#.into(),
                "trailing garbage at byte 19",
            ),
            (
                r#"{"traceEvents":[]}{}"#.into(),
                "trailing garbage at byte 18",
            ),
            (r#"{"traceEvents":["#.into(), "unexpected end of input"),
            (
                doc(&"[".repeat(200_000)),
                "nesting deeper than 128 at byte 142",
            ),
            (doc("{}"), "record without ph"),
            (doc("7"), "record without ph"),
            (doc(r#"{"ph":7}"#), "record without ph"),
            (doc(r#"{"ph":"Q"}"#), r#"unknown phase "Q""#),
            (rec("X", "t1", ""), "span without kind"),
            (rec("X", "t1", r#""kind":"walk""#), "span without kind"),
            (rec("X", "t1", r#""kind":"run""#), "span without thread"),
            (
                rec("X", "t1", r#""kind":"run","thread":1"#),
                "span without startNs",
            ),
            (
                rec(
                    "X",
                    "t1",
                    r#""kind":"run","thread":1,"startNs":1.5,"endNs":2"#,
                ),
                "span without startNs",
            ),
            (
                rec(
                    "X",
                    "t1",
                    r#""kind":"run","thread":1,"startNs":1,"endNs":null"#,
                ),
                "span without endNs",
            ),
            (
                rec("i", "teleport", ns),
                r#"unknown instant event "teleport""#,
            ),
            (rec("i", "block", ns), "block without reason"),
            (
                rec("i", "block", r#""reason":"nap""#),
                "block without reason",
            ),
            (rec("i", "notify", ns), "notify without reason"),
            (
                rec("i", "notify", r#""reason":"mutex""#),
                "notify without obj",
            ),
            (
                rec("i", "notify", r#""reason":"mutex","obj":1"#),
                "notify without waiters",
            ),
            (
                rec("i", "notify", r#""reason":"mutex","obj":1,"waiters":1"#),
                "notify without woken",
            ),
            (rec("i", "join", ns), "join without target"),
            (rec("i", "dummy-insert", ns), "dummy-insert without count"),
            (rec("i", "stack-reserve", ns), "stack-reserve without bytes"),
            (rec("i", "stack-release", ns), "stack-release without bytes"),
            (rec("i", "alloc", ns), "alloc without bytes"),
            (rec("i", "free", ns), "free without bytes"),
            (
                rec("i", "free-underflow", ns),
                "free-underflow without bytes",
            ),
            (
                rec("i", "bound-violation", ns),
                "bound-violation without footprint",
            ),
            (
                rec("i", "bound-violation", r#""footprint":1"#),
                "bound-violation without bound",
            ),
            (rec("i", "deadlock", ns), "deadlock without cycle"),
            (
                rec("i", "deadlock", r#""cycle":1"#),
                "deadlock without waitsFor",
            ),
            (rec("i", "preempt", ""), "event without ns"),
            (rec("i", "preempt", r#""ns":-1"#), "event without ns"),
            (rec("C", "ready", ""), "counter without ns"),
            (rec("C", "mood", ns), r#"unknown counter "mood""#),
            (rec("C", "ready", ns), "counter without value"),
            (
                rec("C", "ready", r#""ns":1,"bytes":4"#),
                "counter without value",
            ),
            (
                sections(r#""ptdfThreads":[{}]"#),
                "lifecycle without thread",
            ),
            (sections(r#""ptdfThreads":[7]"#), "lifecycle without thread"),
            (
                sections(r#""ptdfThreads":[{"thread":1}]"#),
                "lifecycle without spawnedNs",
            ),
            (sections(r#""ptdfDecisions":[{}]"#), "decision without kind"),
            (
                sections(r#""ptdfDecisions":[{"k":"coin"}]"#),
                "decision without kind",
            ),
            (
                sections(r#""ptdfDecisions":[{"k":"grant"}]"#),
                "decision without ns",
            ),
            (
                sections(r#""ptdfDecisions":[{"k":"grant","ns":1}]"#),
                "decision without n",
            ),
            (
                sections(r#""ptdfDecisions":[{"k":"grant","ns":1,"n":2}]"#),
                "decision without chosen",
            ),
        ] {
            let shown = &text[..text.len().min(120)];
            match Trace::from_chrome_json(&text) {
                Err(e) => assert_eq!(e, want, "{shown}"),
                Ok(_) => panic!("{shown} parsed; want {want:?}"),
            }
        }
        // The lenient side of the same contract: what is *not* an error.
        for text in [
            doc(""),
            doc(r#"{"pid":1}"#),
            doc(r#"{"pid":1,"ph":"Q","args":[{}]}"#),
            doc(r#"{"pid":null,"pid":1,"ph":"i","name":"preempt","args":{"ns":1}}"#),
            sections(r#""ptdfThreads":7,"ptdfDecisions":null,"otherData":[]"#),
            sections(r#""otherData":{"hostPhase":{"charge":7,"enabled":null}}"#),
            " \n{ \"otherData\" : { } , \"traceEvents\" : [ ] }\t".to_string(),
        ] {
            assert!(Trace::from_chrome_json(&text).is_ok(), "{text}");
        }
    }
}
