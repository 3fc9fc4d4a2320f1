//! Run configuration: scheduler choice, processor count, thread attributes.

use ptdf_smp::CostModel;

/// Scheduling policy for unbound threads at a given priority level.
///
/// The paper's §2.1/§4 policies:
/// * [`SchedKind::Fifo`] — the original Solaris `SCHED_OTHER`: a FIFO ready
///   queue; forked children are enqueued and the parent keeps running. This
///   executes the computation graph breadth-first and is the policy whose
///   space/time blow-up the paper documents (Figures 5–6).
/// * [`SchedKind::Lifo`] — the paper's first fix (§4 item 1): a LIFO ready
///   queue, approximating depth-first order.
/// * [`SchedKind::Df`] — the paper's space-efficient scheduler (§4 item 2),
///   a variant of Narlikar & Blelloch's `S1 + O(p·D)` algorithm: a global
///   list of all live threads in serial (depth-first) execution order;
///   fork preempts the parent and runs the child; each scheduling quantum
///   carries a memory quota, with no-op "dummy" threads inserted before
///   allocations larger than the quota.
/// * [`SchedKind::Ws`] — Cilk-style per-processor work stealing (child
///   first, steal from the top), the main comparator in the space-efficiency
///   literature (space bound `p · S1`); included as an ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum SchedKind {
    /// Original Solaris FIFO queue.
    Fifo,
    /// LIFO stack of ready threads.
    Lifo,
    /// Space-efficient depth-first scheduler (the paper's contribution).
    Df,
    /// The paper's §5.3 future-work variant: depth-first order with a
    /// bounded locality window — a dispatching processor may take, from
    /// among the leftmost [`Config::locality_window`] ready threads, one
    /// that last ran on it. Weakens the space bound by at most the window
    /// size while restoring cache affinity at fine thread granularity.
    DfLocal,
    /// Parallelized depth-first scheduler after Narlikar's `DFDeques` (the
    /// paper's §6 scalability future work, reference \[34\]): per-processor
    /// deques kept in a global depth-first order; thieves steal the top of
    /// the leftmost deque. Same quota machinery as [`SchedKind::Df`], no
    /// global scheduler lock.
    DfDeques,
    /// Cilk-style work stealing (comparator).
    Ws,
}

impl SchedKind {
    /// Human-readable name used in reports and experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            SchedKind::Fifo => "fifo",
            SchedKind::Lifo => "lifo",
            SchedKind::Df => "df",
            SchedKind::DfLocal => "df-local",
            SchedKind::DfDeques => "df-deques",
            SchedKind::Ws => "ws",
        }
    }
}

/// Default per-quantum memory quota `K` for the depth-first scheduler, in
/// bytes. The paper leaves `K` as the space/time knob (§4 item 2); the
/// `ablate_quota` bench sweeps it.
pub const DEFAULT_QUOTA: u64 = 64 * 1024;

/// The Solaris default thread stack size (1 MB), which §4 item 3 identifies
/// as wasteful for thread-churning programs.
pub const STACK_1MB: u64 = 1024 * 1024;

/// The reduced default stack size (one 8 KB page) of §4 item 3.
pub const STACK_8KB: u64 = 8 * 1024;

/// Configuration for a virtual-SMP run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of virtual processors (the paper uses 1–8, §5.2 up to 16).
    pub processors: usize,
    /// Scheduling policy.
    pub scheduler: SchedKind,
    /// Memory quota `K` for [`SchedKind::Df`]; ignored by other policies.
    pub quota: u64,
    /// Machine cost model.
    pub cost: CostModel,
    /// Default *accounted* stack size for threads created with default
    /// attributes (1 MB in stock Solaris; 8 KB in the paper's modified
    /// library). This drives the lazy-commit stack memory model.
    pub default_stack: u64,
    /// Real host stack size for each fiber, in bytes. Purely an
    /// implementation detail of the reproduction; not accounted.
    pub fiber_stack: usize,
    /// Seed for the work-stealing victim sequence (determinism).
    pub seed: u64,
    /// Locality window for [`SchedKind::DfLocal`]: how many of the leftmost
    /// ready threads a processor may inspect for an affinity match.
    pub locality_window: usize,
    /// Record an execution trace (see [`crate::Trace`]).
    pub trace: bool,
    /// When tracing, heap allocs/frees at or above this many bytes produce
    /// individual trace events (smaller ones still move the footprint
    /// counter track). Keeps traces of allocation-heavy runs bounded.
    pub trace_alloc_threshold: u64,
    /// Schedule-perturbation seed. `Some(seed)` turns on deterministic
    /// schedule exploration: sync-operation boundaries gain clock jitter
    /// and may preempt the running thread, multi-thread wakes are
    /// delivered in shuffled order, same-timestamp processor ties break
    /// pseudo-randomly, and the work-stealing victim sequence is re-keyed.
    /// Everything is driven by seeded deterministic generators, so any
    /// `(policy, seed)` pair replays the exact same perturbed schedule —
    /// which is what lets the happens-before checker
    /// ([`crate::check_trace`]) turn a flagged run back into a repro.
    pub perturb_seed: Option<u64>,
    /// Chaos-fault seed. `Some(seed)` arms seeded fault injection on top of
    /// (and independent of) perturbation: lock-holder preemption storms at
    /// sync boundaries, delayed wake delivery, and spurious condvar wakeups
    /// (POSIX-sanctioned; `wait` may return without a notify, which is why
    /// `wait_while` re-checks its predicate). All draws come from a
    /// deterministic generator, so a `(policy, perturb seed, chaos seed)`
    /// triple replays the exact same faulted schedule.
    pub chaos_seed: Option<u64>,
    /// Arms the allocation ledger: per-thread attribution of every
    /// `rt_alloc`/`rt_free` (and TLS slot bytes), with a leak report on the
    /// run's [`crate::Report`]. Off by default — the ledger touches a hash
    /// map per allocation, which unarmed runs should not pay for.
    pub ledger: bool,
    /// Injects allocation failures at a seeded rate: `Some(n)` makes
    /// roughly one in `n` *fallible* allocation requests
    /// ([`crate::try_rt_alloc`], [`crate::try_spawn`]) fail. The infallible
    /// paths ([`crate::rt_alloc`], [`crate::spawn`]) never observe injected
    /// failures — they have no way to degrade gracefully. Implies
    /// [`Config::ledger`]. Driven by a generator seeded from
    /// [`Config::seed`], so runs replay deterministically.
    pub alloc_fail_rate: Option<u64>,
    /// Arms the runtime space-bound enforcer with an absolute byte limit,
    /// typically `S1 + c·p·D` (S1 from [`crate::run_serial`], D from the
    /// DAG crosscheck). Every footprint growth above the limit is counted
    /// in `MemStats::bound_violations`, and the crossing growth records a
    /// trace event (surfaced by [`crate::check_trace`] and `ptdf-trace
    /// audit`). Enforcement never changes the accounting itself.
    pub space_bound: Option<u64>,
    /// Byte cap of the host fiber-stack pool (recycled real stacks). `0`
    /// disables recycling. Cached stacks are touched memory, so the cap
    /// bounds real RSS; see `ptdf_fiber::StackPool`.
    pub stack_pool_cap: usize,
    /// Arms the host-side engine phase profiler: monotonic counters and
    /// host (real-time) nanosecond timers around the engine's internal
    /// phases — deadline-heap push/pop, clock charge points, scheduler-lock
    /// holds, policy pops, dispatch prologues, and trace-event allocation.
    /// Results land in `RunStats::host_phase` on the [`crate::Report`]. Off
    /// by default; when off every hook costs one `Option` discriminant test
    /// (or one boolean), leaving the dispatch hot path unchanged.
    pub host_profile: bool,
    /// Arms the engine hot path (on by default): deferred charge batching in
    /// [`crate::work`]/[`crate::touch`] quanta and the solo-processor fast
    /// dispatch path. Every observable value — virtual makespans, Reports,
    /// traces — is bit-identical with the hot path off; the knob exists so
    /// benches and the schedule-fuzz matrix can prove exactly that against
    /// the unbatched engine. Note the host-phase *profile* is the one
    /// deliberate exception: batching coalesces charge windows, so profiled
    /// phase counts differ between the two engines.
    pub hot_path: bool,
    /// Scripted schedule oracle for systematic exploration. When set, the
    /// engine routes every scheduling decision point (dispatch/unpark
    /// tie-breaks, wake-batch order, queue grants, timeout firing order)
    /// through the oracle instead of the natural/perturbed resolution, and
    /// logs each decision. Used by [`fn@crate::explore`]; combine with
    /// [`Config::trace`] to get the decision log on the run's trace. The
    /// oracle supersedes [`Config::perturb_seed`] at the decision points it
    /// owns, so explorer configs should leave perturbation off.
    pub oracle: Option<crate::oracle::SharedOracle>,
}

impl Config {
    /// A config reproducing the paper's modified library: space-efficient
    /// scheduler with small default stacks.
    pub fn new(processors: usize, scheduler: SchedKind) -> Self {
        Config {
            processors,
            scheduler,
            quota: DEFAULT_QUOTA,
            cost: CostModel::ultrasparc_167(),
            default_stack: STACK_8KB,
            fiber_stack: 64 * 1024,
            seed: 0x5EED,
            locality_window: 16,
            trace: false,
            trace_alloc_threshold: 4096,
            perturb_seed: None,
            chaos_seed: None,
            ledger: false,
            alloc_fail_rate: None,
            space_bound: None,
            stack_pool_cap: ptdf_fiber::DEFAULT_POOL_CAP,
            host_profile: false,
            hot_path: true,
            oracle: None,
        }
    }

    /// The stock Solaris 2.5 library: FIFO queue, 1 MB default stacks.
    pub fn solaris_native(processors: usize) -> Self {
        Config {
            default_stack: STACK_1MB,
            ..Config::new(processors, SchedKind::Fifo)
        }
    }

    /// Sets the default stack size (builder style).
    pub fn with_stack(mut self, bytes: u64) -> Self {
        self.default_stack = bytes;
        self
    }

    /// Sets the DF memory quota (builder style).
    pub fn with_quota(mut self, bytes: u64) -> Self {
        self.quota = bytes;
        self
    }

    /// Sets the cost model (builder style).
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the DfLocal locality window (builder style).
    pub fn with_locality_window(mut self, window: usize) -> Self {
        self.locality_window = window;
        self
    }

    /// Enables execution tracing (builder style).
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Sets the alloc/free trace-event threshold (builder style); implies
    /// nothing about tracing itself — combine with [`Config::with_trace`].
    pub fn with_trace_alloc_threshold(mut self, bytes: u64) -> Self {
        self.trace_alloc_threshold = bytes;
        self
    }

    /// Enables seeded schedule perturbation (builder style). See
    /// [`Config::perturb_seed`].
    pub fn with_perturbation(mut self, seed: u64) -> Self {
        self.perturb_seed = Some(seed);
        self
    }

    /// Arms seeded chaos-fault injection (builder style). See
    /// [`Config::chaos_seed`].
    pub fn with_chaos(mut self, seed: u64) -> Self {
        self.chaos_seed = Some(seed);
        self
    }

    /// Arms the allocation ledger (builder style). See [`Config::ledger`].
    pub fn with_ledger(mut self) -> Self {
        self.ledger = true;
        self
    }

    /// Injects roughly one allocation failure per `rate` fallible requests
    /// (builder style); implies the ledger. See [`Config::alloc_fail_rate`].
    pub fn with_alloc_failures(mut self, rate: u64) -> Self {
        assert!(rate > 0, "failure rate must be positive");
        self.alloc_fail_rate = Some(rate);
        self.ledger = true;
        self
    }

    /// Arms the space-bound enforcer with an absolute byte limit (builder
    /// style). See [`Config::space_bound`]. Use
    /// [`Config::with_space_bound_terms`] to pass the paper's terms
    /// directly.
    pub fn with_space_bound(mut self, limit_bytes: u64) -> Self {
        self.space_bound = Some(limit_bytes);
        self
    }

    /// Arms the space-bound enforcer at `S1 + factor · p · depth` bytes,
    /// with `p` taken from [`Config::processors`] (builder style).
    pub fn with_space_bound_terms(self, s1: u64, factor: u64, depth: u64) -> Self {
        let p = self.processors as u64;
        self.with_space_bound(s1 + factor * p * depth)
    }

    /// Sets the host fiber-stack pool's byte cap (builder style); `0`
    /// disables stack recycling. See [`Config::stack_pool_cap`].
    pub fn with_stack_pool_cap(mut self, bytes: usize) -> Self {
        self.stack_pool_cap = bytes;
        self
    }

    /// Arms (or explicitly disarms) the host-side engine phase profiler
    /// (builder style). See [`Config::host_profile`].
    pub fn with_host_profile(mut self, on: bool) -> Self {
        self.host_profile = on;
        self
    }

    /// Arms or disarms the engine hot path (builder style); on by default.
    /// See [`Config::hot_path`].
    pub fn with_hot_path(mut self, on: bool) -> Self {
        self.hot_path = on;
        self
    }

    /// Installs a scripted schedule oracle (builder style). See
    /// [`Config::oracle`].
    pub fn with_oracle(mut self, oracle: crate::oracle::SharedOracle) -> Self {
        self.oracle = Some(oracle);
        self
    }
}

/// Per-thread creation attributes (the subset of `pthread_attr_t` the paper
/// exercises).
#[derive(Debug, Clone)]
#[derive(Default)]
pub struct Attr {
    /// Accounted (reserved) stack size; `None` → the run's default.
    pub stack_size: Option<u64>,
    /// Priority level; higher runs first. All policies schedule strictly by
    /// priority, space-efficiently (or FIFO/LIFO) *within* a level, matching
    /// the paper's prioritized formulation (§2.1 end).
    pub priority: i32,
    /// Detached threads are reclaimed on exit without a join.
    pub detached: bool,
}


impl Attr {
    /// Attribute set with an explicit stack size.
    pub fn with_stack(bytes: u64) -> Self {
        Attr {
            stack_size: Some(bytes),
            ..Attr::default()
        }
    }

    /// Sets the priority (builder style).
    pub fn priority(mut self, prio: i32) -> Self {
        self.priority = prio;
        self
    }

    /// Marks the thread detached (builder style).
    pub fn detached(mut self) -> Self {
        self.detached = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        let c = Config::new(8, SchedKind::Df).with_stack(STACK_1MB).with_quota(1024);
        assert_eq!(c.default_stack, STACK_1MB);
        assert_eq!(c.quota, 1024);
        assert_eq!(c.scheduler.name(), "df");
        let n = Config::solaris_native(4);
        assert_eq!(n.scheduler, SchedKind::Fifo);
        assert_eq!(n.default_stack, STACK_1MB);
        let a = Attr::with_stack(4096).priority(2).detached();
        assert_eq!(a.stack_size, Some(4096));
        assert_eq!(a.priority, 2);
        assert!(a.detached);
    }
}
