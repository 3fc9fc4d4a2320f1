//! Deterministic virtual-time SMP machine model.
//!
//! The SC'98 paper measured its schedulers on an 8-processor Sun Enterprise
//! 5000 (167 MHz UltraSPARC, Solaris 2.5). This reproduction executes the
//! *real* benchmark code on user-level fibers, but advances **virtual time**
//! from an explicit cost model instead of reading a wall clock, because the
//! reproduction host has a single core (see DESIGN.md, "substitution"). The
//! crate provides the building blocks the threads runtime composes:
//!
//! * [`VirtTime`] — virtual nanoseconds.
//! * [`CostModel`] — thread-operation, memory-system and locality costs,
//!   calibrated to the paper's Figure 3 overhead table.
//! * [`CacheModel`] — a per-processor LRU model over app-declared regions,
//!   driving the thread-granularity/locality experiment (paper Figure 11).
//! * [`HeapModel`] / stack accounting — committed-memory tracking with a
//!   free-pool and a Solaris-style default-size stack cache, driving the
//!   memory high-water figures (paper Figures 5b, 7b, 9).
//! * [`VirtualLock`] — contention model for the global scheduler lock.
//! * [`Machine`] — P processors with independent clocks plus the above.
//! * [`counting`] — not part of the model: the counting global allocator
//!   with which the workspace's host-heap tests bound real allocations.
//!
//! Everything is deterministic: identical inputs produce identical virtual
//! timelines, which is what makes the reproduction's figures reproducible
//! and property-testable.

#![warn(missing_docs)]

mod cache;
mod cost;
pub mod counting;
mod heap;
mod machine;
mod perturb;
mod record;
mod stats;
mod time;
mod vlock;

pub use cache::CacheModel;
pub use cost::{CacheParams, CostModel, StackClass};
pub use heap::{HeapModel, StackPool};
pub use machine::{Machine, ProcId};
pub use perturb::{splitmix64, Prng};
pub use record::{MachineRecording, MemEvent, MemEventKind};
pub use stats::{
    Bucket, HostPhaseStats, HostProf, MemStats, PhaseStat, ProcStats, ProfWin, RunStats,
    TimeBreakdown,
};
pub use time::VirtTime;
pub use vlock::VirtualLock;
