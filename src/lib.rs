//! Umbrella crate for the SC'98 "Pthreads for Dynamic and Irregular
//! Parallelism" reproduction workspace.
//!
//! This crate exists to host the workspace-level examples (`examples/`) and
//! integration tests (`tests/`); the substance lives in the member crates:
//!
//! * [`ptdf`] — the space-efficient Pthreads-style runtime (the paper's
//!   contribution) over a deterministic virtual-time SMP.
//! * [`ptdf_fiber`] — stackful coroutines with hand-written context
//!   switching.
//! * [`ptdf_smp`] — the virtual machine model (cost model, caches, memory
//!   system, lock contention).
//! * [`ptdf_dag`] — fork-join graph model and its static analyses (`S1`,
//!   `W`, `D`, `d`); Figure 1 runs these graphs on the real schedulers.
//! * [`ptdf_apps`] — the seven parallel benchmarks.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for the paper-vs-measured results.

pub use ptdf;
pub use ptdf_apps;
pub use ptdf_dag;
pub use ptdf_fiber;
pub use ptdf_smp;
