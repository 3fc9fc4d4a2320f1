//! The schedule oracle: one authority for every nondeterministic
//! scheduling decision the engine makes.
//!
//! The virtual-SMP engine is deterministic except at six *decision
//! points*: dispatch tie-breaks between equal-clock processors, unpark
//! tie-breaks when a wake must pick an idle processor, the delivery order
//! of multi-thread wake batches, the grant order of lock/semaphore/condvar
//! queues, the firing order of simultaneously-due timed waits, and the
//! delivery timing of a cancellation request against a blocked target.
//! A run's [`Schedule`] ([`crate::Config::schedule`]) says where their
//! answers come from, and the engine asks one `Resolver` built from it
//! at every point: [`Schedule::Natural`] takes the front-of-queue /
//! lowest-index choice, [`Schedule::Perturbed`] draws from a seeded
//! generator (plus, with chaos, a fault stream), and
//! [`Schedule::Scripted`] hands each point to a [`ScheduleOracle`]. While
//! the oracle's scripted *decision prefix* remains, each decision follows
//! the script; beyond the prefix every decision takes index 0, which is
//! exactly the natural choice. Replaying the same prefix therefore
//! re-executes the same schedule bit-exactly, which is the substrate the
//! DPOR explorer ([`fn@crate::explore`]) is built on.

use std::cell::RefCell;
use std::rc::Rc;

use ptdf_smp::{Prng, VirtTime};

pub use crate::trace::{Decision, DecisionKind};

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
/// back with [`ScheduleOracle::taken`]. A traced perturbed run keeps its
/// log in one without a script, which logs the perturbation's draws.
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

    /// Resolves one decision among `n ≥ 2` candidates and logs it:
    /// `drawn` when a perturbed run drew the value itself, else the
    /// script's next value, else the natural 0.
    ///
    /// Scripted values are clamped to `n - 1`: a prefix recorded on one
    /// schedule may meet a narrower candidate set when an earlier flip
    /// changed the execution, and clamping keeps every prefix executable.
    pub(crate) fn choose(
        &mut self,
        kind: DecisionKind,
        at: VirtTime,
        n: usize,
        obj: Option<u32>,
        cands: &[u32],
        drawn: Option<usize>,
    ) -> usize {
        debug_assert!(n >= 2, "single-candidate points are not decisions");
        let chosen = match drawn {
            Some(c) => c,
            None if self.cursor < self.script.len() => {
                let v = self.script[self.cursor] as usize;
                self.cursor += 1;
                v.min(n - 1)
            }
            None => 0,
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

/// Where a run's scheduling decisions come from: the one schedule knob of
/// a [`crate::Config`].
#[derive(Debug, Clone)]
pub enum Schedule {
    /// Every decision point takes its natural choice (front of the queue,
    /// lowest processor index) and nothing is logged: one schedule per
    /// `(config, workload)`.
    Natural,
    /// Seeded schedule exploration ([`crate::Config::with_perturbation`]):
    /// sync-operation boundaries gain clock jitter and may preempt the
    /// running thread, multi-thread wakes are delivered in shuffled order,
    /// same-timestamp processor ties break pseudo-randomly, and the
    /// work-stealing victim sequence is re-keyed. `chaos`
    /// ([`crate::Config::with_chaos`]) adds seeded faults from a stream of
    /// its own: lock-holder preemption storms at sync boundaries, delayed
    /// wake delivery, and spurious condvar wakeups (POSIX-sanctioned;
    /// `wait` may return without a notify, which is why `wait_while`
    /// re-checks its predicate). A `(policy, seed, chaos)` triple replays
    /// the exact same schedule, which is what lets the happens-before
    /// checker ([`crate::check_trace`]) turn a flagged run into a repro.
    Perturbed {
        /// Seeds the engine's and the machine's perturbation streams.
        seed: u64,
        /// Seeds the chaos fault stream, when faults are armed.
        chaos: Option<u64>,
    },
    /// Every decision point follows a [`ScheduleOracle`]
    /// ([`crate::Config::with_oracle`]), which logs each decision; used
    /// by [`fn@crate::explore`].
    Scripted(SharedOracle),
}

impl Schedule {
    /// The perturbation seed, for a perturbed schedule.
    pub fn perturb_seed(&self) -> Option<u64> {
        match self {
            Schedule::Perturbed { seed, .. } => Some(*seed),
            _ => None,
        }
    }

    /// The chaos seed, for a perturbed schedule with faults armed.
    pub fn chaos_seed(&self) -> Option<u64> {
        match self {
            Schedule::Perturbed { chaos, .. } => *chaos,
            _ => None,
        }
    }
}

/// A run's decision source, built from its [`Schedule`]: the engine asks
/// it at each of the six decision points and knows nothing of how the
/// answer is made. It knows nothing of threads either — candidates are
/// counts, indices and ids.
#[derive(Debug)]
pub(crate) struct Resolver {
    /// The engine's perturbation stream (perturbed schedules only).
    prng: Option<Prng>,
    /// The chaos fault stream, when armed (perturbed schedules only).
    chaos: Option<Prng>,
    /// Where decisions are logged, and under a script taken from: the
    /// schedule's oracle, or for a traced perturbed run one without a
    /// script that logs the draws (so `ptdf-trace diff` can compare
    /// them). A natural run has exactly one schedule and logs nothing.
    oracle: Option<SharedOracle>,
}

impl Resolver {
    /// The resolver for `schedule`, tracing or not.
    pub(crate) fn new(schedule: &Schedule, traced: bool) -> Self {
        // Streams distinct from the machine-level jitter generator: the
        // engine and the fault injector draw at different points than the
        // cost model, and xoring a constant keeps the sequences
        // uncorrelated.
        let (seed, chaos) = (schedule.perturb_seed(), schedule.chaos_seed());
        let oracle = match schedule {
            Schedule::Scripted(oracle) => Some(oracle.clone()),
            _ => (seed.is_some() && traced).then(|| ScheduleOracle::default().shared()),
        };
        Resolver {
            prng: seed.map(|s| Prng::new(s ^ 0x0051_CED0_5EED_F00D)),
            chaos: chaos.map(|c| Prng::new(c ^ 0xC4A0_5F00_D5EE_D001)),
            oracle,
        }
    }

    /// Whether every decision takes index 0 unlogged, so a caller need not
    /// gather the candidates (nor read a clock) to ask.
    #[inline]
    pub(crate) fn is_natural(&self) -> bool {
        self.prng.is_none() && self.oracle.is_none()
    }

    /// Resolves one decision among `n ≥ 2` candidates: a processor tie,
    /// a queue grant or a cancel delivery (`n = 2`; 1 defers). `cands` are
    /// the candidate ids the explorer's independence analysis needs, empty
    /// for object-scoped kinds. A perturbed schedule draws the ties
    /// uniformly and the delivery with even odds, and grants FIFO.
    pub(crate) fn pick(
        &mut self,
        kind: DecisionKind,
        at: VirtTime,
        n: usize,
        obj: Option<u32>,
        cands: &[u32],
    ) -> usize {
        let drawn = self.prng.as_mut().map(|prng| match kind {
            DecisionKind::DispatchTie | DecisionKind::UnparkTie => prng.below(n as u64) as usize,
            DecisionKind::CancelDelivery => usize::from(prng.chance(1, 2)),
            DecisionKind::Grant | DecisionKind::WakeOrder | DecisionKind::TimeoutOrder => 0,
        });
        match &self.oracle {
            Some(oracle) => oracle.borrow_mut().choose(kind, at, n, obj, cands, drawn),
            None => drawn.unwrap_or(0),
        }
    }

    /// Orders a batch whose delivery order is a decision: a wake batch
    /// ([`DecisionKind::WakeOrder`]) or simultaneously-due timeouts
    /// ([`DecisionKind::TimeoutOrder`]); `at` stamps the decision taken
    /// for the element at each position. The order is a forward
    /// selection, one decision per position: position `i` takes the
    /// element `c` places further on (a swap), among `n - i`. A perturbed
    /// schedule shuffles a wake batch and logs the selections that reach
    /// the shuffle, so that its log replays under a script; it leaves
    /// timeouts in order, unlogged.
    pub(crate) fn order<T: Copy + PartialEq>(
        &mut self,
        kind: DecisionKind,
        obj: Option<u32>,
        batch: &mut [T],
        at: impl Fn(&T) -> VirtTime,
    ) {
        if batch.len() < 2 || (self.prng.is_some() && kind == DecisionKind::TimeoutOrder) {
            return;
        }
        let Some(oracle) = &self.oracle else {
            if let Some(prng) = self.prng.as_mut() {
                prng.shuffle(batch);
            }
            return;
        };
        let shuffled = self.prng.as_mut().map(|prng| {
            let mut to = batch.to_vec();
            prng.shuffle(&mut to);
            to
        });
        let mut oracle = oracle.borrow_mut();
        for i in 0..batch.len() - 1 {
            let drawn = shuffled.as_ref().map(|to| {
                let c = batch[i..].iter().position(|&t| t == to[i]);
                c.expect("a shuffle is a permutation")
            });
            let c = oracle.choose(kind, at(&batch[i]), batch.len() - i, obj, &[], drawn);
            batch.swap(i, i + c);
        }
    }

    /// Whether this schedule may preempt at a sync-operation boundary: the
    /// perturbation yield, or with `chaos` the chaos yield.
    #[inline]
    pub(crate) fn preempts(&self, chaos: bool) -> bool {
        if chaos {
            self.chaos.is_some()
        } else {
            self.prng.is_some()
        }
    }

    /// Draws one sync-boundary preemption that [`Resolver::preempts`]
    /// arms: the perturbation yield (1 in 8, fast runs that still visit
    /// each boundary across a modest seed budget) or the chaos yield (1 in
    /// 4: a lock-holder preemption storm, since sync operations are where
    /// threads hold locks).
    pub(crate) fn preempt(&mut self, chaos: bool) -> bool {
        let (stream, den) = if chaos {
            (&mut self.chaos, 4)
        } else {
            (&mut self.prng, 8)
        };
        stream.as_mut().expect("an armed preemption").chance(1, den)
    }

    /// The chaos fault stream, when armed: delayed wake delivery and
    /// spurious condvar wakeups draw from it.
    #[inline]
    pub(crate) fn chaos(&mut self) -> Option<&mut Prng> {
        self.chaos.as_mut()
    }

    /// The decisions taken, in engine order. Empty for a natural run.
    pub(crate) fn take_log(&mut self) -> Vec<Decision> {
        self.oracle
            .as_ref()
            .map_or_else(Vec::new, |o| o.borrow().decisions())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_prefix_then_natural_default() {
        let mut o = ScheduleOracle::scripted(vec![1, 2]);
        let t = VirtTime::from_ns(5);
        assert_eq!(o.choose(DecisionKind::Grant, t, 3, Some(7), &[], None), 1);
        // Scripted value clamped into range.
        assert_eq!(
            o.choose(DecisionKind::DispatchTie, t, 2, None, &[0, 1], None),
            1
        );
        // Beyond the prefix: natural choice.
        assert_eq!(
            o.choose(DecisionKind::WakeOrder, t, 4, Some(7), &[], None),
            0
        );
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

    /// Asks `r` every decision a perturbed run logs: for each candidate
    /// count 2..=8, both processor ties, a cancel delivery, a grant and a
    /// wake batch. Returns each answer, and each batch's order, in turn.
    fn drive(r: &mut Resolver) -> Vec<u32> {
        let at = VirtTime::from_ns(9);
        let mut out = Vec::new();
        for n in 2..=8u32 {
            let cands: Vec<u32> = (0..n).collect();
            let n = n as usize;
            for kind in [DecisionKind::DispatchTie, DecisionKind::UnparkTie] {
                out.push(r.pick(kind, at, n, None, &cands) as u32);
            }
            let obj = Some(n as u32);
            out.push(r.pick(DecisionKind::CancelDelivery, at, 2, obj, &[]) as u32);
            out.push(r.pick(DecisionKind::Grant, at, n, obj, &[]) as u32);
            let mut wake = cands;
            r.order(DecisionKind::WakeOrder, obj, &mut wake, |_| at);
            out.extend(wake);
        }
        out
    }

    #[test]
    fn a_scripted_resolver_replays_a_perturbed_log() {
        let natural = drive(&mut Resolver::new(&Schedule::Natural, true));
        let mut differed = 0;
        for seed in 0..16 {
            let schedule = Schedule::Perturbed { seed, chaos: None };
            let mut perturbed = Resolver::new(&schedule, true);
            let answers = drive(&mut perturbed);
            let log = perturbed.take_log();
            differed += usize::from(answers != natural);

            let taken = log.iter().map(|d| d.chosen).collect();
            let oracle = ScheduleOracle::scripted(taken).shared();
            let mut scripted = Resolver::new(&Schedule::Scripted(oracle), false);
            assert_eq!(drive(&mut scripted), answers, "seed {seed}");
            assert_eq!(scripted.take_log(), log, "seed {seed}");
        }
        assert_eq!(differed, 16, "every seed perturbs some answer");
    }

    #[test]
    fn a_natural_resolver_takes_index_0_and_logs_nothing() {
        let mut natural = Resolver::new(&Schedule::Natural, true);
        assert!(natural.is_natural());
        let answers = drive(&mut natural);
        let mut expected = Vec::new();
        for n in 2..=8 {
            expected.extend([0; 4]);
            expected.extend(0..n);
        }
        assert_eq!(answers, expected);
        assert!(natural.take_log().is_empty());
        assert!(!natural.preempts(false) && !natural.preempts(true));
        assert!(natural.chaos().is_none());
    }

    /// Timeout order: natural and perturbed schedules keep it and log
    /// nothing; a script selects forward, stamping each decision with the
    /// deadline of the timeout then at that position.
    fn due_order(r: &mut Resolver) -> Vec<u32> {
        let mut due: Vec<u32> = (10..14).collect();
        let at = |&d: &u32| VirtTime::from_ns(u64::from(d));
        r.order(DecisionKind::TimeoutOrder, None, &mut due, at);
        due
    }

    #[test]
    fn only_a_script_reorders_timeouts() {
        for schedule in [
            Schedule::Natural,
            Schedule::Perturbed {
                seed: 1,
                chaos: None,
            },
        ] {
            let mut r = Resolver::new(&schedule, true);
            assert_eq!(due_order(&mut r), vec![10, 11, 12, 13]);
            assert!(r.take_log().is_empty());
        }
        let oracle = ScheduleOracle::scripted(vec![2, 0, 1]).shared();
        let mut r = Resolver::new(&Schedule::Scripted(oracle), true);
        assert_eq!(due_order(&mut r), vec![12, 11, 13, 10]);
        let log = r.take_log();
        let at: Vec<u64> = log.iter().map(|d| d.at.as_ns()).collect();
        assert_eq!(at, vec![10, 11, 10]);
        assert!(log.iter().all(|d| d.kind == DecisionKind::TimeoutOrder));
    }

    #[test]
    fn only_a_traced_perturbed_resolver_logs_and_only_chaos_arms_faults() {
        let plain = Schedule::Perturbed {
            seed: 3,
            chaos: None,
        };
        let mut untraced = Resolver::new(&plain, false);
        drive(&mut untraced);
        assert!(untraced.take_log().is_empty());
        assert!(untraced.preempts(false) && !untraced.preempts(true));
        assert!(untraced.chaos().is_none());

        let faulted = Schedule::Perturbed {
            seed: 3,
            chaos: Some(4),
        };
        let mut r = Resolver::new(&faulted, false);
        assert!(r.preempts(false) && r.preempts(true));
        assert!(r.chaos().is_some());
        // Per `n`: two ties, a delivery, a grant, and `n - 1` selections.
        let mut traced = Resolver::new(&plain, true);
        drive(&mut traced);
        let log = traced.take_log();
        assert_eq!(log.len(), (2..=8).map(|n| 4 + (n - 1)).sum::<usize>());

        let oracle = ScheduleOracle::scripted(Vec::new()).shared();
        let scripted = Resolver::new(&Schedule::Scripted(oracle), true);
        assert!(!scripted.is_natural());
        assert!(!scripted.preempts(false) && !scripted.preempts(true));
    }
}
