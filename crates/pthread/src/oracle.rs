//! The schedule oracle: one authority for every nondeterministic
//! scheduling decision the engine makes.
//!
//! The virtual-SMP engine is deterministic except at six *decision
//! points*: dispatch tie-breaks between equal-clock processors, unpark
//! tie-breaks when a wake must pick an idle processor, the delivery order
//! of multi-thread wake batches, the grant order of lock/semaphore/condvar
//! queues, the firing order of simultaneously-due timed waits, and the
//! delivery timing of a cancellation request against a blocked target. The
//! normal runtime resolves each point naturally (front-of-queue /
//! lowest-index, optionally shuffled by the seeded perturbation PRNG). A
//! [`ScheduleOracle`] installed via [`crate::Config::with_oracle`] takes
//! those points over: while a scripted *decision prefix* remains, each
//! decision follows the script; beyond the prefix every decision takes
//! index 0, which is exactly the natural un-perturbed choice. Replaying
//! the same prefix therefore re-executes the same schedule bit-exactly,
//! which is the substrate the DPOR explorer ([`fn@crate::explore`]) is built
//! on.

use std::cell::RefCell;
use std::rc::Rc;

use ptdf_smp::VirtTime;

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

/// One resolved scheduling decision, as recorded in a [`crate::Trace`].
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

/// A [`Decision`] plus the candidate identities the explorer needs for
/// independence analysis (processor ids for the tie kinds; empty for
/// object-scoped kinds, where candidates contend on the same object and
/// are never independent).
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct DecisionRecord {
    /// The resolved decision.
    pub decision: Decision,
    /// Candidate ids, parallel to the decision's index space (may be
    /// empty when identities are not needed).
    pub cands: Vec<u32>,
}

/// Scripted driver for the engine's scheduling decision points.
///
/// Constructed with a decision prefix ([`ScheduleOracle::scripted`]) and
/// installed on a [`crate::Config`]; consumed by one run. Every decision
/// taken — scripted or defaulted — is appended to the log, so after the
/// run the full decision vector of the executed schedule can be read
/// back with [`ScheduleOracle::taken`].
#[derive(Debug, Default)]
pub struct ScheduleOracle {
    script: Vec<u32>,
    cursor: usize,
    log: Vec<DecisionRecord>,
}

/// Shared handle to a [`ScheduleOracle`]; the form [`crate::Config`]
/// carries so the caller keeps access to the log after the run.
pub type SharedOracle = Rc<RefCell<ScheduleOracle>>;

impl ScheduleOracle {
    /// An oracle that follows `prefix` for its first `prefix.len()`
    /// decisions, then takes the natural choice (index 0) everywhere.
    pub fn scripted(prefix: Vec<u32>) -> Self {
        ScheduleOracle {
            script: prefix,
            cursor: 0,
            log: Vec::new(),
        }
    }

    /// Wraps an oracle in the shared handle [`crate::Config`] expects.
    pub fn shared(self) -> SharedOracle {
        Rc::new(RefCell::new(self))
    }

    /// Resolves one decision among `n ≥ 2` candidates and logs it.
    ///
    /// Scripted values are clamped to `n - 1`: a prefix recorded on one
    /// schedule may meet a narrower candidate set when an earlier flip
    /// changed the execution, and clamping keeps every prefix executable.
    pub fn choose(
        &mut self,
        kind: DecisionKind,
        at: VirtTime,
        n: usize,
        obj: Option<u32>,
        cands: &[u32],
    ) -> usize {
        debug_assert!(n >= 2, "single-candidate points are not decisions");
        let chosen = if self.cursor < self.script.len() {
            let v = self.script[self.cursor] as usize;
            self.cursor += 1;
            v.min(n - 1)
        } else {
            0
        };
        self.log.push(DecisionRecord {
            decision: Decision {
                kind,
                at,
                n: n as u32,
                chosen: chosen as u32,
                obj,
            },
            cands: cands.to_vec(),
        });
        chosen
    }

    /// The scripted prefix this oracle was built with.
    pub fn script(&self) -> &[u32] {
        &self.script
    }

    /// Full decision log of the run, in engine order.
    pub fn log(&self) -> &[DecisionRecord] {
        &self.log
    }

    /// The compact decision list, as attached to traces.
    pub fn decisions(&self) -> Vec<Decision> {
        self.log.iter().map(|r| r.decision).collect()
    }

    /// The decision vector actually taken (`chosen` per decision): the
    /// canonical replay encoding of this schedule.
    pub fn taken(&self) -> Vec<u32> {
        self.log.iter().map(|r| r.decision.chosen).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_prefix_then_natural_default() {
        let mut o = ScheduleOracle::scripted(vec![1, 2]);
        let t = VirtTime::from_ns(5);
        assert_eq!(o.choose(DecisionKind::Grant, t, 3, Some(7), &[]), 1);
        // Scripted value clamped into range.
        assert_eq!(o.choose(DecisionKind::DispatchTie, t, 2, None, &[0, 1]), 1);
        // Beyond the prefix: natural choice.
        assert_eq!(o.choose(DecisionKind::WakeOrder, t, 4, Some(7), &[]), 0);
        assert_eq!(o.taken(), vec![1, 1, 0]);
        assert_eq!(o.log().len(), 3);
        assert_eq!(o.decisions()[0].n, 3);
    }

    #[test]
    fn kind_names_round_trip() {
        for k in [
            DecisionKind::DispatchTie,
            DecisionKind::UnparkTie,
            DecisionKind::WakeOrder,
            DecisionKind::Grant,
            DecisionKind::TimeoutOrder,
            DecisionKind::CancelDelivery,
        ] {
            assert_eq!(DecisionKind::from_name(k.name()), Some(k));
        }
        assert_eq!(DecisionKind::from_name("nope"), None);
    }
}
