//! Serial baseline runner.
//!
//! The paper reports speedups "with respect to the serial C version written
//! with function calls instead of forks". [`run_serial`] provides that
//! baseline: the closure runs inline on one virtual processor, with the
//! same `work`/`touch`/allocation accounting but **zero** thread-operation
//! costs (inside it, `spawn` executes its closure as a plain call).

use std::cell::RefCell;
use std::rc::Rc;

use ptdf_smp::{CostModel, Machine, RunStats, VirtTime};

use crate::config::STACK_8KB;
use crate::runtime::install_serial;

/// Context for a serial run (one processor, no threads).
pub(crate) struct SerialCtx {
    pub machine: Machine,
}

/// Result of a serial baseline run.
#[derive(Debug, Clone)]
pub struct SerialReport {
    /// Virtual execution time of the serial run.
    pub time: VirtTime,
    /// Full machine statistics (memory figures give the serial space `S1`).
    pub stats: RunStats,
}

impl SerialReport {
    /// Serial space requirement `S1`: the high-water committed footprint.
    pub fn s1_bytes(&self) -> u64 {
        self.stats.mem.footprint_hwm
    }
}

/// Runs `f` serially under the cost model, returning its value and the
/// serial report (time `T1`, space `S1`).
pub fn run_serial<T>(cost: CostModel, f: impl FnOnce() -> T) -> (T, SerialReport) {
    let ctx = Rc::new(RefCell::new(SerialCtx {
        machine: Machine::new(1, cost.clone(), STACK_8KB),
    }));
    let guard = install_serial(ctx.clone());
    let value = f();
    drop(guard);
    let ctx = Rc::try_unwrap(ctx)
        .ok()
        .expect("serial context leaked")
        .into_inner();
    let stats = ctx.machine.finish();
    (
        value,
        SerialReport {
            time: stats.makespan,
            stats,
        },
    )
}
