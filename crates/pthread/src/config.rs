//! Run configuration: scheduler choice, processor count, thread attributes.

use std::num::NonZeroU64;

use ptdf_smp::CostModel;

use crate::oracle::{Schedule, SharedOracle};

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
    /// among the leftmost 16 ready threads, one that last ran on it. Weakens
    /// the space bound by at most the window size while restoring cache
    /// affinity at fine thread granularity.
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

    /// Whether the policy runs its quanta under the memory quota
    /// [`Config::quota`]: the three depth-first policies.
    pub(crate) fn has_quota(self) -> bool {
        matches!(
            self,
            SchedKind::Df | SchedKind::DfLocal | SchedKind::DfDeques
        )
    }

    /// Inverse of [`SchedKind::name`].
    pub fn from_name(name: &str) -> Option<SchedKind> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Every policy, in declaration order.
    const ALL: [SchedKind; 6] = [
        SchedKind::Fifo,
        SchedKind::Lifo,
        SchedKind::Df,
        SchedKind::DfLocal,
        SchedKind::DfDeques,
        SchedKind::Ws,
    ];
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

/// The allocation ledger's setting ([`Config::ledger`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerMode {
    /// No ledger: unarmed runs pay nothing per allocation.
    Off,
    /// Per-thread attribution of every `rt_alloc`/`rt_free` (and TLS slot
    /// bytes), with a leak report on the run's [`crate::Report`]. The
    /// ledger touches a hash map per allocation.
    On,
    /// The ledger, plus a seeded injector that fails roughly one in `n`
    /// *fallible* allocation requests ([`crate::try_rt_alloc`],
    /// [`crate::try_spawn`]). The infallible paths ([`crate::rt_alloc`],
    /// [`crate::spawn`]) never observe injected failures — they have no
    /// way to degrade gracefully. Driven by a generator seeded from
    /// [`Config::seed`], so runs replay deterministically.
    FailOneIn(NonZeroU64),
}

/// Configuration for a virtual-SMP run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of virtual processors (the paper uses 1–8, §5.2 up to 16).
    pub processors: usize,
    /// Scheduling policy.
    pub scheduler: SchedKind,
    /// Memory quota `K` for the depth-first policies ([`SchedKind::Df`],
    /// [`SchedKind::DfLocal`], [`SchedKind::DfDeques`]); ignored by the
    /// others.
    pub quota: u64,
    /// Machine cost model.
    pub cost: CostModel,
    /// Default *accounted* stack size for threads created with default
    /// attributes (1 MB in stock Solaris; 8 KB in the paper's modified
    /// library). This drives the lazy-commit stack memory model.
    pub default_stack: u64,
    /// Seed for the work-stealing victim sequence (determinism).
    pub seed: u64,
    /// Record an execution trace (see [`crate::Trace`]).
    pub trace: bool,
    /// Where the scheduling decisions come from: the natural choice, a
    /// seeded perturbation (optionally with chaos faults), or a scripted
    /// oracle. See [`Schedule`].
    pub schedule: Schedule,
    /// The allocation ledger and its failure injector. See [`LedgerMode`].
    pub ledger: LedgerMode,
    /// Arms the runtime space-bound enforcer with an absolute byte limit,
    /// typically `S1 + c·p·D` (S1 from [`crate::run_serial`], D from the
    /// DAG crosscheck). Every footprint growth above the limit is counted
    /// in `MemStats::bound_violations`, and the crossing growth records a
    /// trace event (surfaced by [`crate::check_trace`] and `ptdf-trace
    /// audit`). Enforcement never changes the accounting itself.
    pub space_bound: Option<u64>,
    /// Arms the host-side engine phase profiler: monotonic counters and
    /// host (real-time) nanosecond timers around the engine's internal
    /// phases — deadline-heap push/pop, clock charge points, scheduler-lock
    /// holds, policy pops, dispatch prologues, and trace-event allocation.
    /// Results land in `RunStats::host_phase` on the [`crate::Report`]. Off
    /// by default; when off every hook costs one `Option` discriminant test
    /// (or one boolean), leaving the dispatch hot path unchanged.
    pub host_profile: bool,
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
            seed: 0x5EED,
            trace: false,
            schedule: Schedule::Natural,
            ledger: LedgerMode::Off,
            space_bound: None,
            host_profile: false,
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

    /// Enables execution tracing (builder style).
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Perturbs the schedule from `seed` (builder style), keeping any chaos
    /// seed. See [`Schedule::Perturbed`].
    pub fn with_perturbation(mut self, seed: u64) -> Self {
        let chaos = self.schedule.chaos_seed();
        self.schedule = Schedule::Perturbed { seed, chaos };
        self
    }

    /// Arms seeded chaos-fault injection on a perturbed schedule (builder
    /// style). See [`Schedule::Perturbed`].
    ///
    /// # Panics
    /// If the schedule is not perturbed: chaos faults ride on
    /// [`Config::with_perturbation`], which must come first.
    pub fn with_chaos(mut self, seed: u64) -> Self {
        match &mut self.schedule {
            Schedule::Perturbed { chaos, .. } => *chaos = Some(seed),
            _ => panic!("with_chaos needs a perturbed schedule: call with_perturbation first"),
        }
        self
    }

    /// Arms the allocation ledger (builder style), keeping an armed failure
    /// injector. See [`LedgerMode::On`].
    pub fn with_ledger(mut self) -> Self {
        if let LedgerMode::Off = self.ledger {
            self.ledger = LedgerMode::On;
        }
        self
    }

    /// Injects roughly one allocation failure per `rate` fallible requests
    /// (builder style); implies the ledger. See [`LedgerMode::FailOneIn`].
    pub fn with_alloc_failures(mut self, rate: u64) -> Self {
        let rate = NonZeroU64::new(rate).expect("failure rate must be positive");
        self.ledger = LedgerMode::FailOneIn(rate);
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
    /// with `p` taken from [`Config::processors`] (builder style). Panics
    /// if the bound does not fit in a `u64`: a wrapped bound would be a
    /// small number that every run then reports as violated.
    pub fn with_space_bound_terms(self, s1: u64, factor: u64, depth: u64) -> Self {
        let p = self.processors as u64;
        let bound = factor
            .checked_mul(p)
            .and_then(|x| x.checked_mul(depth))
            .and_then(|x| x.checked_add(s1));
        let bound = bound.unwrap_or_else(|| {
            panic!("space bound S1 {s1} + factor {factor} * p {p} * depth {depth} overflows u64")
        });
        self.with_space_bound(bound)
    }

    /// Arms (or explicitly disarms) the host-side engine phase profiler
    /// (builder style). See [`Config::host_profile`].
    pub fn with_host_profile(mut self, on: bool) -> Self {
        self.host_profile = on;
        self
    }

    /// Scripts the schedule with an oracle (builder style), replacing any
    /// perturbation. See [`Schedule::Scripted`].
    pub fn with_oracle(mut self, oracle: SharedOracle) -> Self {
        self.schedule = Schedule::Scripted(oracle);
        self
    }
}

/// Per-thread creation attributes (the subset of `pthread_attr_t` the paper
/// exercises).
#[derive(Debug, Clone, Default)]
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
    fn every_scheduler_name_round_trips() {
        let names = SchedKind::ALL.map(SchedKind::name);
        assert_eq!(names, ["fifo", "lifo", "df", "df-local", "df-deques", "ws"]);
        for kind in SchedKind::ALL {
            assert_eq!(SchedKind::from_name(kind.name()), Some(kind));
        }
        for unknown in ["", "DF", "df_local", "fifo "] {
            assert_eq!(SchedKind::from_name(unknown), None, "{unknown:?}");
        }
    }

    /// Names every field with no `..`: a new `Config` knob does not compile
    /// until it is added here, with its default, in a reviewed edit.
    #[test]
    fn new_sets_every_field() {
        let Config {
            processors,
            scheduler,
            quota,
            cost,
            default_stack,
            seed,
            trace,
            schedule,
            ledger,
            space_bound,
            host_profile,
        } = Config::new(4, SchedKind::Df);
        assert_eq!((processors, scheduler), (4, SchedKind::Df));
        assert_eq!(
            (quota, default_stack, seed),
            (DEFAULT_QUOTA, STACK_8KB, 0x5EED)
        );
        assert_eq!(
            format!("{cost:?}"),
            format!("{:?}", CostModel::ultrasparc_167())
        );
        assert!(matches!(schedule, Schedule::Natural));
        assert_eq!(ledger, LedgerMode::Off);
        assert_eq!((trace, space_bound, host_profile), (false, None, false));
    }

    #[test]
    fn builders() {
        let c = Config::new(8, SchedKind::Df)
            .with_stack(STACK_1MB)
            .with_quota(1024);
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
        let b = Config::new(4, SchedKind::Df).with_space_bound_terms(1000, 3, 256);
        assert_eq!(b.space_bound, Some(1000 + 3 * 4 * 256));
    }

    #[test]
    #[should_panic(
        expected = "space bound S1 1 + factor 4 * p 4 * depth 1152921504606846976 overflows u64"
    )]
    fn space_bound_terms_that_overflow_panic_instead_of_wrapping() {
        let _ = Config::new(4, SchedKind::Df).with_space_bound_terms(1, 4, 1 << 60);
    }

    #[test]
    #[should_panic(
        expected = "with_chaos needs a perturbed schedule: call with_perturbation first"
    )]
    fn chaos_without_perturbation_panics() {
        let _ = Config::new(2, SchedKind::Df).with_chaos(3);
    }

    #[test]
    fn schedule_and_ledger_builders() {
        let c = Config::new(2, SchedKind::Df);
        assert!(matches!(c.schedule, Schedule::Natural));
        assert_eq!(c.ledger, LedgerMode::Off);
        let c = c.with_perturbation(5).with_chaos(6).with_perturbation(7);
        assert_eq!(c.schedule.perturb_seed(), Some(7));
        assert_eq!(c.schedule.chaos_seed(), Some(6));
        // An oracle replaces the perturbation: it is the only source.
        let oracle = crate::ScheduleOracle::scripted(vec![1]).shared();
        let c = c.with_oracle(oracle);
        assert!(matches!(c.schedule, Schedule::Scripted(_)));
        assert_eq!(
            (c.schedule.perturb_seed(), c.schedule.chaos_seed()),
            (None, None)
        );

        let rate = NonZeroU64::new(4).unwrap();
        let c = Config::new(2, SchedKind::Df)
            .with_alloc_failures(4)
            .with_ledger();
        assert_eq!(c.ledger, LedgerMode::FailOneIn(rate));
        let c = Config::new(2, SchedKind::Df).with_ledger();
        assert_eq!(c.ledger, LedgerMode::On);
    }
}
