//! Execution statistics: per-processor time breakdowns and memory metrics.

use crate::VirtTime;

/// Where a processor's virtual time went. This is the data behind the
/// reproduction of the paper's Figure 6 (execution time breakdown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeBreakdown {
    /// Useful application work (explicitly charged cycles).
    pub compute: VirtTime,
    /// Memory-system time: malloc/free base costs, first-touch page costs,
    /// stack reservation costs. Maps to the paper's "system calls related to
    /// memory allocation".
    pub memsys: VirtTime,
    /// Thread operations: create, join, context switches.
    pub threadop: VirtTime,
    /// Waiting for the scheduler lock (contention).
    pub sched_wait: VirtTime,
    /// Inside scheduler critical sections.
    pub sched_cs: VirtTime,
    /// Cache-miss stalls from the locality model.
    pub cache_miss: VirtTime,
    /// Synchronization operations (mutex/semaphore/condvar).
    pub sync: VirtTime,
    /// Idle: no ready thread available.
    pub idle: VirtTime,
}

impl TimeBreakdown {
    /// Total accounted time.
    pub fn total(&self) -> VirtTime {
        self.compute
            + self.memsys
            + self.threadop
            + self.sched_wait
            + self.sched_cs
            + self.cache_miss
            + self.sync
            + self.idle
    }

    /// Busy (non-idle) time.
    pub fn busy(&self) -> VirtTime {
        self.total() - self.idle
    }

    /// Element-wise sum, for aggregating processors.
    pub fn merge(&self, other: &TimeBreakdown) -> TimeBreakdown {
        TimeBreakdown {
            compute: self.compute + other.compute,
            memsys: self.memsys + other.memsys,
            threadop: self.threadop + other.threadop,
            sched_wait: self.sched_wait + other.sched_wait,
            sched_cs: self.sched_cs + other.sched_cs,
            cache_miss: self.cache_miss + other.cache_miss,
            sync: self.sync + other.sync,
            idle: self.idle + other.idle,
        }
    }
}

/// Accounting bucket selector for [`TimeBreakdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bucket {
    /// Application compute.
    Compute,
    /// Memory system (alloc/free/pages/stacks).
    MemSys,
    /// Thread operations.
    ThreadOp,
    /// Scheduler lock contention wait.
    SchedWait,
    /// Scheduler critical section.
    SchedCs,
    /// Cache miss stall.
    CacheMiss,
    /// Synchronization primitive operation.
    Sync,
    /// Idle.
    Idle,
}

impl Bucket {
    /// Number of buckets — the size of dense per-bucket accumulator arrays
    /// such as the machine's pending-charge slot.
    pub const COUNT: usize = 8;

    /// Dense index for per-bucket arrays.
    pub fn index(self) -> usize {
        match self {
            Bucket::Compute => 0,
            Bucket::MemSys => 1,
            Bucket::ThreadOp => 2,
            Bucket::SchedWait => 3,
            Bucket::SchedCs => 4,
            Bucket::CacheMiss => 5,
            Bucket::Sync => 6,
            Bucket::Idle => 7,
        }
    }

    /// Inverse of [`Bucket::index`].
    pub fn from_index(i: usize) -> Bucket {
        match i {
            0 => Bucket::Compute,
            1 => Bucket::MemSys,
            2 => Bucket::ThreadOp,
            3 => Bucket::SchedWait,
            4 => Bucket::SchedCs,
            5 => Bucket::CacheMiss,
            6 => Bucket::Sync,
            7 => Bucket::Idle,
            _ => unreachable!("bucket index out of range"),
        }
    }
}

impl TimeBreakdown {
    /// Adds `dur` to the selected bucket.
    pub fn add(&mut self, bucket: Bucket, dur: VirtTime) {
        let slot = match bucket {
            Bucket::Compute => &mut self.compute,
            Bucket::MemSys => &mut self.memsys,
            Bucket::ThreadOp => &mut self.threadop,
            Bucket::SchedWait => &mut self.sched_wait,
            Bucket::SchedCs => &mut self.sched_cs,
            Bucket::CacheMiss => &mut self.cache_miss,
            Bucket::Sync => &mut self.sync,
            Bucket::Idle => &mut self.idle,
        };
        *slot += dur;
    }
}

/// Per-processor statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcStats {
    /// Time breakdown for this processor.
    pub breakdown: TimeBreakdown,
    /// Threads dispatched onto this processor.
    pub dispatches: u64,
}

/// Memory metrics for a run (the paper's space figures).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// High-water committed footprint in bytes (heap data + stacks), the
    /// quantity plotted in Figures 5b/7b/9.
    pub footprint_hwm: u64,
    /// High-water of *live* bytes.
    pub live_hwm: u64,
    /// Live bytes at end of run.
    pub live_end: u64,
    /// Peak simultaneously-active (created, not yet exited) threads —
    /// the "Threads" column of Figure 8.
    pub live_threads_hwm: u64,
    /// Total threads created over the run.
    pub threads_created: u64,
    /// Dummy (no-op) threads inserted by the space-efficient allocator hook.
    pub dummy_threads: u64,
    /// malloc calls.
    pub allocs: u64,
    /// free calls.
    pub frees: u64,
    /// Bytes that required fresh page commitment.
    pub fresh_bytes: u64,
    /// Stack-cache hits.
    pub stack_cache_hits: u64,
    /// Fresh stack reservations.
    pub stack_fresh: u64,
    /// Cache-model hits across processors.
    pub cache_hits: u64,
    /// Cache-model misses across processors.
    pub cache_misses: u64,
    /// Frees that underflowed the live byte count (double frees in the
    /// modelled program). Zero in a correct run.
    pub free_underflows: u64,
    /// Footprint growths observed above the armed space bound
    /// (`Machine::arm_space_bound`); zero when unarmed or within bound.
    pub bound_violations: u64,
    /// Host (real) fiber-stack pool hits — spawns served a recycled stack.
    /// Filled in by the threads runtime; the virtual machine itself only
    /// models the Solaris default-size cache (`stack_cache_hits`).
    pub host_stack_hits: u64,
    /// Host fiber-stack pool misses (fresh host allocations).
    pub host_stack_misses: u64,
    /// High-water mark of bytes cached in the host fiber-stack pool. These
    /// bytes are part of the process footprint while cached.
    pub host_stack_cached_hwm: u64,
}

/// One engine phase's monotonic counter and accumulated *host* (real)
/// nanoseconds, as sampled by the host-phase profiler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Times the phase ran.
    pub count: u64,
    /// Total host nanoseconds spent in the phase.
    pub ns: u64,
}

impl PhaseStat {
    /// Closes one timed phase entry opened at `start`.
    pub fn record(&mut self, start: std::time::Instant) {
        self.count += 1;
        self.ns += start.elapsed().as_nanos() as u64;
    }

    /// Mean host nanoseconds per occurrence (`0.0` when the phase never ran).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.ns as f64 / self.count as f64
        }
    }
}

/// An open phase-timing window handed out by [`HostProf::open`]: the wall
/// start plus a snapshot of the profiler's carve accumulator, so time
/// recorded by windows that close inside this one can be excluded from it.
#[derive(Debug, Clone, Copy)]
pub struct ProfWin {
    t0: std::time::Instant,
    carved0: u64,
}

/// Nesting-aware host-phase profiler. Windows may nest freely across the
/// machine and the runtime (e.g. a `charge` window inside a `dispatch`
/// window); on close, a window records only its *own* nanoseconds — the
/// elapsed wall time minus everything recorded by windows that closed while
/// it was open — so the per-phase totals form a disjoint partition of
/// instrumented time and their sum cannot exceed the engine's wall time.
#[derive(Debug, Clone, Default)]
pub struct HostProf {
    /// The accumulated per-phase totals.
    pub stats: HostPhaseStats,
    /// Nanoseconds attributed by windows closed so far. A closing window
    /// subtracts this accumulator's growth since it opened (the time its
    /// inner windows claimed), then grows it by its own share — so for any
    /// window the growth equals the full wall time of its closed children.
    carved: u64,
}

impl HostProf {
    /// A profiler with the `enabled` flag set (the flag rides along into
    /// [`HostPhaseStats`] so reports can distinguish "off" from "idle").
    pub fn armed() -> Self {
        HostProf {
            stats: HostPhaseStats {
                enabled: true,
                ..Default::default()
            },
            carved: 0,
        }
    }

    /// Opens a timing window. Pass the result back to [`HostProf::close`].
    #[allow(
        clippy::disallowed_methods,
        reason = "the model crates' one host-clock read: it lands in HostPhaseStats only, which no virtual number reads"
    )]
    pub fn open(&self) -> ProfWin {
        ProfWin {
            t0: std::time::Instant::now(),
            carved0: self.carved,
        }
    }

    /// Closes `win`, attributing its self-time (elapsed minus inner-window
    /// time) to the phase selected by `phase`.
    pub fn close(&mut self, win: ProfWin, phase: fn(&mut HostPhaseStats) -> &mut PhaseStat) {
        let raw = win.t0.elapsed().as_nanos() as u64;
        let inner = self.carved.wrapping_sub(win.carved0);
        let own = raw.saturating_sub(inner);
        let slot = phase(&mut self.stats);
        slot.count += 1;
        slot.ns += own;
        self.carved = self.carved.wrapping_add(own);
    }
}

/// Host-side phase profile of the discrete-event engine: where the *real*
/// (wall-clock) time of the single driving host thread goes, phase by
/// phase. All zeros unless profiling was enabled for the run (see
/// `Config::with_host_profile` in the threads runtime) — the hooks cost one
/// `Option` discriminant test each when off.
///
/// Phase windows can nest (e.g. `sched_lock` charges clocks internally, so
/// its window contains `charge` windows), but the recorded nanoseconds are
/// **disjoint**: [`HostProf`] subtracts every inner window's time from the
/// enclosing one, so each phase holds only its own time and
/// [`HostPhaseStats::total_ns`] never exceeds the engine's wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostPhaseStats {
    /// Whether the profiler was armed for this run.
    pub enabled: bool,
    /// Deadline event-heap pushes ([`crate::Machine::arm_deadline`]).
    pub heap_push: PhaseStat,
    /// Deadline event-heap pops ([`crate::Machine::pop_deadline`]).
    pub heap_pop: PhaseStat,
    /// Clock charge points ([`crate::Machine::charge`] — every virtual-time
    /// advance batched into a breakdown bucket).
    pub charge: PhaseStat,
    /// Scheduler-lock acquisitions, wait/CS accounting included
    /// ([`crate::Machine::sched_lock`] hold, entry to release).
    pub sched_lock: PhaseStat,
    /// Ready-queue pops: the engine asking its policy for the next thread.
    /// Filled in by the threads runtime.
    pub sched_pop: PhaseStat,
    /// Dispatch prologues (context-switch bookkeeping between a successful
    /// pop and the fiber resuming). Filled in by the threads runtime.
    pub dispatch: PhaseStat,
    /// Flight-recorder event and span allocations. Filled in by the threads
    /// runtime.
    pub trace_alloc: PhaseStat,
}

impl HostPhaseStats {
    /// Folds another profile into this one (used to merge the machine-side
    /// and runtime-side halves of the engine profile).
    pub fn absorb(&mut self, other: &HostPhaseStats) {
        self.enabled |= other.enabled;
        for (a, b) in [
            (&mut self.heap_push, &other.heap_push),
            (&mut self.heap_pop, &other.heap_pop),
            (&mut self.charge, &other.charge),
            (&mut self.sched_lock, &other.sched_lock),
            (&mut self.sched_pop, &other.sched_pop),
            (&mut self.dispatch, &other.dispatch),
            (&mut self.trace_alloc, &other.trace_alloc),
        ] {
            a.count += b.count;
            a.ns += b.ns;
        }
    }

    /// Named view of every phase, in display order.
    pub fn phases(&self) -> [(&'static str, PhaseStat); 7] {
        [
            ("heap_push", self.heap_push),
            ("heap_pop", self.heap_pop),
            ("charge", self.charge),
            ("sched_lock", self.sched_lock),
            ("sched_pop", self.sched_pop),
            ("dispatch", self.dispatch),
            ("trace_alloc", self.trace_alloc),
        ]
    }

    /// Total instrumented host nanoseconds across all phases. Phase totals
    /// are disjoint (see [`HostProf`]), so this is bounded by the engine's
    /// wall time.
    pub fn total_ns(&self) -> u64 {
        self.phases().iter().map(|(_, p)| p.ns).sum()
    }
}

/// Complete result of one virtual-SMP run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Virtual makespan: the maximum processor clock at termination.
    pub makespan: VirtTime,
    /// Number of virtual processors.
    pub processors: usize,
    /// Per-processor stats.
    pub procs: Vec<ProcStats>,
    /// Memory metrics.
    pub mem: MemStats,
    /// Scheduler lock: (acquisitions, total wait, total held).
    pub sched_lock_acquisitions: u64,
    /// Total time all processors spent waiting on the scheduler lock.
    pub sched_lock_wait: VirtTime,
    /// Host-side engine phase profile (all zeros unless armed).
    pub host_phase: HostPhaseStats,
}

impl RunStats {
    /// Aggregated breakdown across processors.
    pub fn total_breakdown(&self) -> TimeBreakdown {
        self.procs
            .iter()
            .fold(TimeBreakdown::default(), |acc, p| acc.merge(&p.breakdown))
    }

    /// Speedup relative to a serial makespan.
    pub fn speedup_vs(&self, serial: VirtTime) -> f64 {
        serial.as_ns() as f64 / self.makespan.as_ns().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_total_and_merge() {
        let mut a = TimeBreakdown::default();
        a.add(Bucket::Compute, VirtTime::from_ns(10));
        a.add(Bucket::Idle, VirtTime::from_ns(5));
        let mut b = TimeBreakdown::default();
        b.add(Bucket::Compute, VirtTime::from_ns(7));
        b.add(Bucket::MemSys, VirtTime::from_ns(3));
        let m = a.merge(&b);
        assert_eq!(m.compute, VirtTime::from_ns(17));
        assert_eq!(m.total(), VirtTime::from_ns(25));
        assert_eq!(m.busy(), VirtTime::from_ns(20));
    }

    #[test]
    fn host_prof_nested_windows_are_disjoint() {
        let mut prof = HostProf::armed();
        let outer = prof.open();
        let inner = prof.open();
        std::thread::sleep(std::time::Duration::from_millis(20));
        prof.close(inner, |hp| &mut hp.charge);
        std::thread::sleep(std::time::Duration::from_millis(2));
        prof.close(outer, |hp| &mut hp.sched_lock);
        // The inner window claims the 20ms sleep; the outer window keeps only
        // its own ~2ms tail. The pre-fix accounting would have given the
        // outer phase ~22ms (> the inner), double-counting the overlap.
        assert!(prof.stats.charge.ns >= 15_000_000, "{:?}", prof.stats);
        assert!(
            prof.stats.sched_lock.ns < prof.stats.charge.ns,
            "outer window double-counted its nested child: {:?}",
            prof.stats
        );
    }

    #[test]
    fn speedup_math() {
        let stats = RunStats {
            makespan: VirtTime::from_ms(10),
            ..Default::default()
        };
        assert!((stats.speedup_vs(VirtTime::from_ms(80)) - 8.0).abs() < 1e-12);
    }
}
