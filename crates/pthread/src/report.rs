//! Run reports.

use ptdf_smp::{RunStats, VirtTime};

use crate::config::Config;

/// Summary of one virtual-SMP run: configuration echo plus the machine's
/// collected statistics. Everything the paper's figures plot is here.
#[derive(Debug, Clone)]
pub struct Report {
    /// Scheduler name, as [`crate::SchedKind::name`] spells it ("fifo",
    /// "lifo", "df", "df-local", "df-deques" or "ws").
    pub scheduler: String,
    /// Virtual processor count.
    pub processors: usize,
    /// Default accounted stack size in bytes.
    pub default_stack: u64,
    /// Memory quota, if a depth-first policy (df, df-local, df-deques) ran.
    pub quota: Option<u64>,
    /// Total threads created over the run.
    pub total_threads: usize,
    /// Successful work-migration steals (Ws and DfDeques policies; 0 for
    /// the serialized schedulers, which never migrate queued work).
    pub steals: u64,
    /// Machine statistics (makespan, breakdowns, memory).
    pub stats: RunStats,
    /// Execution trace, when enabled via [`Config::with_trace`].
    pub trace: Option<crate::trace::Trace>,
    /// Allocation-ledger leak report, when the run was configured with
    /// [`Config::with_ledger`] (or failure injection, which implies it).
    pub leaks: Option<crate::mem::LeakReport>,
    /// Waits-for cycles detected by the deadlock sentinel, in detection
    /// order. Each is also a `Deadlock` flight-recorder event (when tracing)
    /// and an unwound [`crate::DeadlockError`] in the detecting thread.
    pub deadlocks: Vec<crate::sentinel::DeadlockInfo>,
    /// The virtual-time watchdog's verdict, when the run stalled (all
    /// processors idle with live threads). Only [`crate::try_run`] can
    /// return a report with this set — [`crate::run`] panics on a stall.
    pub stalled: Option<crate::sentinel::StallInfo>,
}

impl Report {
    pub(crate) fn new(
        config: &Config,
        stats: RunStats,
        total_threads: usize,
        steals: u64,
        trace: Option<crate::trace::Trace>,
        leaks: Option<crate::mem::LeakReport>,
        deadlocks: Vec<crate::sentinel::DeadlockInfo>,
    ) -> Self {
        Report {
            scheduler: config.scheduler.name().to_string(),
            processors: config.processors,
            default_stack: config.default_stack,
            quota: config.scheduler.has_quota().then_some(config.quota),
            total_threads,
            steals,
            stats,
            trace,
            leaks,
            deadlocks,
            stalled: None,
        }
    }

    /// Virtual wall-clock of the run.
    pub fn makespan(&self) -> VirtTime {
        self.stats.makespan
    }

    /// High-water committed memory footprint in bytes (the paper's space
    /// metric).
    pub fn footprint(&self) -> u64 {
        self.stats.mem.footprint_hwm
    }

    /// Peak simultaneously-live threads (the "Threads" column of Figure 8).
    pub fn max_live_threads(&self) -> u64 {
        self.stats.mem.live_threads_hwm
    }

    /// Speedup of this run against a serial makespan.
    pub fn speedup_vs(&self, serial: VirtTime) -> f64 {
        self.stats.speedup_vs(serial)
    }

    /// Per-thread lifecycle summary (dispatch-latency and ready-wait
    /// percentiles, quantum counts) derived from the flight recorder;
    /// `None` unless the run traced ([`Config::with_trace`]).
    pub fn lifecycle(&self) -> Option<crate::trace::LifecycleSummary> {
        self.trace.as_ref().map(|t| t.lifecycle())
    }

    /// Blame-attributed observed critical path of the run, walked backwards
    /// through the trace's causal edges; `None` unless the run traced
    /// ([`Config::with_trace`]). The returned buckets sum bit-exactly to
    /// [`Report::makespan`]. Degenerate traces (no spans) yield a
    /// structured empty result, never a panic.
    pub fn critpath(&self) -> Option<crate::critpath::CritPath> {
        self.trace
            .as_ref()
            .map(|t| crate::critpath::analyze_with_makespan(t, self.stats.makespan))
    }

    /// Host-side engine phase profile; `enabled` is false (all counters
    /// zero) unless the run was configured with
    /// [`Config::with_host_profile`].
    pub fn host_phase(&self) -> &ptdf_smp::HostPhaseStats {
        &self.stats.host_phase
    }

    /// Host fiber-stack pool hit rate in `[0, 1]` (`1.0` when the run
    /// spawned nothing). Hits are spawns served a recycled real stack.
    pub fn stack_pool_hit_rate(&self) -> f64 {
        let total = self.stats.mem.host_stack_hits + self.stats.mem.host_stack_misses;
        if total == 0 {
            1.0
        } else {
            self.stats.mem.host_stack_hits as f64 / total as f64
        }
    }

    /// Footprint growths observed above the armed space bound
    /// ([`Config::with_space_bound`]); `0` when unarmed or within bound.
    pub fn bound_violations(&self) -> u64 {
        self.stats.mem.bound_violations
    }

    /// Waits-for cycles detected by the deadlock sentinel (empty when the
    /// run was cycle-free).
    pub fn deadlocks(&self) -> &[crate::sentinel::DeadlockInfo] {
        &self.deadlocks
    }

    /// The watchdog's stall verdict, if the run halted without completing
    /// (see [`crate::try_run`]).
    pub fn stalled(&self) -> Option<&crate::sentinel::StallInfo> {
        self.stalled.as_ref()
    }
}
