//! DPOR-style systematic schedule exploration on the replay substrate.
//!
//! The engine is deterministic except at the six decision points the
//! [`crate::ScheduleOracle`] owns, so a schedule is fully described by its
//! *decision prefix*: the vector of indices chosen at each decision point,
//! with everything beyond the prefix defaulting to index 0 (the natural
//! choice). [`explore`] walks that space depth-first:
//!
//! 1. Execute the current prefix bit-exactly (scripted oracle, trace on,
//!    perturbation and chaos off) and read back the full decision log.
//! 2. Check the run: the happens-before checker over the trace, the stall
//!    watchdog's verdict, deadlock-sentinel unwinds, and workload panics
//!    (assertion failures) are all violations.
//! 3. **Sleep sets by trace equivalence**: every executed schedule is
//!    fingerprinted over its virtual-time event sequence. Two schedules
//!    with the same fingerprint are Mazurkiewicz-equivalent executions —
//!    same events, same virtual timestamps — so a redundant fingerprint
//!    closes the whole subtree (its alternatives are counted as pruned,
//!    not enqueued).
//! 4. **Independence pruning**: flipping a dispatch/unpark tie between two
//!    processors whose next object-touching events address *disjoint*
//!    objects commutes (the transitions are independent in the DPOR
//!    sense); such flips are pruned without execution. Object-scoped
//!    decisions (wake order, grants, timeout order, cancel delivery)
//!    contend on the same object and are always treated as dependent.
//! 5. Each violation class is minimized (trailing natural choices are
//!    free to drop; interior decisions are dropped greedily with
//!    re-execution) and then replayed twice to verify the minimal prefix
//!    reproduces the violation bit-exactly.
//!
//! The independence test is a conservative *per-schedule* approximation
//! (see DESIGN.md §14 for the equivalence sketch and its caveat); the
//! fingerprint dedup is exact for every schedule actually executed.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};

use ptdf_smp::VirtTime;

use crate::check::check_trace;
use crate::config::Config;
use crate::oracle::{Decision, DecisionKind, DecisionRecord, ScheduleOracle};
use crate::runtime::try_run;
use crate::trace::{EventKind, Fnv1a, Trace};

/// Exploration limits for [`explore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreOpts {
    /// Maximum decision-prefix length: decisions at index ≥ `depth` always
    /// take the natural choice and are never branched on.
    pub depth: usize,
    /// Maximum number of schedules to execute (replays for minimization
    /// and verification are counted separately and not budgeted).
    pub budget: usize,
}

impl ExploreOpts {
    /// Limits with the given depth and budget.
    pub fn new(depth: usize, budget: usize) -> Self {
        ExploreOpts { depth, budget }
    }
}

/// One violation class found by [`explore`], with the minimal decision
/// prefix that reproduces it.
#[derive(Debug, Clone, PartialEq)]
pub struct ViolationCase {
    /// Violation class label: the checker's violation name (text before
    /// the first `:` of its display form), `"stall"`, `"deadlock"`, or
    /// `"panic"`.
    pub kind: String,
    /// Human-readable description from the first discovery.
    pub detail: String,
    /// Minimal decision prefix reproducing the violation (feed it to
    /// [`replay_schedule`] or `ptdf-trace explore --replay`).
    pub prefix: Vec<u32>,
    /// Full decision log of the minimal reproduction.
    pub decisions: Vec<Decision>,
    /// Scheduler policy name the exploration ran under.
    pub policy: String,
    /// Whether two back-to-back replays of `prefix` reproduced the same
    /// violation with bit-identical decision logs and event fingerprints.
    pub replay_verified: bool,
}

/// Result of one [`explore`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreReport {
    /// Scheduler policy name explored under.
    pub scheduler: String,
    /// Depth limit used.
    pub depth: usize,
    /// Budget used.
    pub budget: usize,
    /// Schedules actually executed.
    pub schedules_executed: usize,
    /// Additional executions spent minimizing and verifying violations.
    pub replays: usize,
    /// Schedules a naive enumeration would have executed but the explorer
    /// proved redundant without running: alternatives under equivalent
    /// (same-fingerprint) subtrees plus independent tie flips.
    pub states_pruned: u64,
    /// Executed schedules whose fingerprint had already been seen (their
    /// subtrees were closed).
    pub redundant: usize,
    /// Longest decision log observed across executed schedules.
    pub max_decisions: usize,
    /// Whether the budget cut the walk short of exhaustion.
    pub budget_exhausted: bool,
    /// One entry per violation class discovered, each minimized and
    /// replay-verified.
    pub violations: Vec<ViolationCase>,
}

impl ExploreReport {
    /// Pruning ratio: schedules accounted for (executed + proved
    /// redundant) per schedule executed. `> 1` exactly when DPOR pruning
    /// beat naive enumeration.
    pub fn pruning_ratio(&self) -> f64 {
        if self.schedules_executed == 0 {
            return 1.0;
        }
        (self.schedules_executed as f64 + self.states_pruned as f64)
            / self.schedules_executed as f64
    }

    /// Whether every schedule in scope was clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Outcome of one scripted schedule execution ([`replay_schedule`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Violation class label, `None` for a clean run (same labels as
    /// [`ViolationCase::kind`]).
    pub kind: Option<String>,
    /// Human-readable detail for a violating run, empty when clean.
    pub detail: String,
    /// The decision vector actually taken (the prefix, clamped where the
    /// candidate sets were narrower, plus every defaulted decision).
    pub taken: Vec<u32>,
    /// Full decision log of the run.
    pub decisions: Vec<Decision>,
    /// Fingerprint over the run's virtual-time event sequence and outcome
    /// (bit-exact replays produce equal fingerprints).
    pub fingerprint: u64,
}

/// Caps how many distinct violation classes one exploration collects.
const MAX_VIOLATIONS: usize = 16;

/// Internal result of one scripted execution: the public outcome plus the
/// full decision log (with candidate identities) and the object-touch
/// sequence used for independence analysis.
struct RunResult {
    out: ReplayOutcome,
    log: Vec<DecisionRecord>,
    /// `(virtual time, processor, object)` of every object-bearing event,
    /// in trace order.
    touches: Vec<(VirtTime, u32, u32)>,
}

/// Fingerprint of one executed schedule: its violation class, and the
/// event sequence of its trace (or, for a run that left no trace, its
/// decision log).
fn fingerprint(kind: Option<&str>, body: &impl Hash) -> u64 {
    let mut h = Fnv1a::default();
    kind.hash(&mut h);
    body.hash(&mut h);
    h.finish()
}

/// Violation class label: text before the first `:` of the display form.
fn kind_label(display: &str) -> String {
    display
        .split(':')
        .next()
        .unwrap_or("violation")
        .trim()
        .to_string()
}

fn touches_of(trace: &Trace) -> Vec<(VirtTime, u32, u32)> {
    trace
        .events
        .iter()
        .filter_map(|e| {
            let obj = match e.kind {
                EventKind::Block { obj, .. } => obj,
                EventKind::Notify { obj, .. } => Some(obj),
                EventKind::Timeout { obj } => obj,
                EventKind::Cancel { obj, .. } => obj,
                _ => None,
            };
            obj.map(|o| (e.at, e.proc as u32, o))
        })
        .collect()
}

/// Executes one schedule from `prefix` under a scripted oracle, trace on.
fn execute<W>(base: &Config, prefix: &[u32], workload: W) -> RunResult
where
    W: Fn() + 'static,
{
    let oracle = ScheduleOracle::scripted(prefix.to_vec()).shared();
    let cfg = base.clone().with_oracle(oracle.clone()).with_trace();
    let res = catch_unwind(AssertUnwindSafe(move || try_run(cfg, workload)));
    // The oracle outlives the run either way: harvest the decision log.
    let log: Vec<DecisionRecord> = oracle.borrow().log().to_vec();
    let decisions = oracle.borrow().decisions();
    let taken = oracle.borrow().taken();
    let (kind, detail, trace) = match res {
        Ok(Ok((_, report))) => {
            let trace = report.trace.expect("explorer runs always trace");
            let check = check_trace(&trace);
            match check.violations.first() {
                Some(v) => {
                    let d = v.to_string();
                    (Some(kind_label(&d)), d, Some(trace))
                }
                None => (None, String::new(), Some(trace)),
            }
        }
        Ok(Err(run_err)) => {
            let d = run_err.stall.to_string();
            (Some("stall".to_string()), d, run_err.report.trace)
        }
        Err(payload) => {
            let d = if let Some(dl) = payload.downcast_ref::<crate::DeadlockError>() {
                return finish_panic(
                    log,
                    decisions,
                    taken,
                    "deadlock".to_string(),
                    dl.to_string(),
                );
            } else if let Some(ce) = payload.downcast_ref::<crate::CancelError>() {
                // A CancelError that escapes to the root: the workload let
                // a cancelled thread's unwind propagate uncontained.
                return finish_panic(log, decisions, taken, "cancel".to_string(), ce.to_string());
            } else if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            return finish_panic(log, decisions, taken, "panic".to_string(), d);
        }
    };
    let (fingerprint, touches) = match trace.as_ref() {
        Some(tr) => (fingerprint(kind.as_deref(), &tr.events), touches_of(tr)),
        None => (fingerprint(kind.as_deref(), &log), Vec::new()),
    };
    RunResult {
        out: ReplayOutcome {
            kind,
            detail,
            taken,
            decisions,
            fingerprint,
        },
        log,
        touches,
    }
}

/// A panicked run has no recoverable trace; fingerprint its decision log
/// (which the shared oracle preserved through the unwind) plus the class.
fn finish_panic(
    log: Vec<DecisionRecord>,
    decisions: Vec<Decision>,
    taken: Vec<u32>,
    kind: String,
    detail: String,
) -> RunResult {
    let fingerprint = fingerprint(Some(&kind), &log);
    RunResult {
        out: ReplayOutcome {
            kind: Some(kind),
            detail,
            taken,
            decisions,
            fingerprint,
        },
        log,
        touches: Vec::new(),
    }
}

/// Alternatives under the (unexplored) subtree rooted after `from`
/// decisions of this run's log, clipped at `depth`: what a naive
/// enumeration would still have had to execute.
fn subtree_alternatives(log: &[DecisionRecord], from: usize, depth: usize) -> u64 {
    log.iter()
        .take(depth)
        .skip(from)
        .map(|r| u64::from(r.decision.n.saturating_sub(1)))
        .sum()
}

/// DPOR independence test for flipping tie decision `i` of `log` to `alt`:
/// the two candidate processors' transitions commute when their next
/// object-touching events (at or after the decision) address disjoint
/// objects. Conservative: anything unknown is dependent.
fn flip_is_independent(
    log: &[DecisionRecord],
    touches: &[(VirtTime, u32, u32)],
    i: usize,
    alt: usize,
) -> bool {
    let rec = &log[i];
    if !matches!(
        rec.decision.kind,
        DecisionKind::DispatchTie | DecisionKind::UnparkTie
    ) {
        return false;
    }
    let chosen = rec.decision.chosen as usize;
    let (Some(&pa), Some(&pb)) = (rec.cands.get(chosen), rec.cands.get(alt)) else {
        return false;
    };
    let next_obj = |p: u32| {
        touches
            .iter()
            .find(|&&(at, proc, _)| proc == p && at >= rec.decision.at)
            .map(|&(_, _, obj)| obj)
    };
    match (next_obj(pa), next_obj(pb)) {
        (Some(a), Some(b)) => a != b,
        _ => false,
    }
}

/// Trims trailing zeros: a trailing natural choice is exactly what the
/// oracle defaults to beyond the prefix, so dropping it replays the same
/// schedule bit-exactly without re-execution.
fn trim_trailing_zeros(mut prefix: Vec<u32>) -> Vec<u32> {
    while prefix.last() == Some(&0) {
        prefix.pop();
    }
    prefix
}

/// Minimizes a violating prefix (greedy drop-last with re-execution) and
/// verifies the result replays bit-exactly twice. Returns the case and the
/// number of replays spent.
fn minimize_and_verify<W>(
    base: &Config,
    executed_prefix: Vec<u32>,
    kind: &str,
    detail: String,
    workload: &W,
) -> (ViolationCase, usize)
where
    W: Fn() + Clone + 'static,
{
    let mut replays = 0usize;
    let mut min = trim_trailing_zeros(executed_prefix);
    while !min.is_empty() {
        let cand = trim_trailing_zeros(min[..min.len() - 1].to_vec());
        let r = execute(base, &cand, workload.clone());
        replays += 1;
        if r.out.kind.as_deref() == Some(kind) {
            min = cand;
        } else {
            break;
        }
    }
    let a = execute(base, &min, workload.clone());
    let b = execute(base, &min, workload.clone());
    replays += 2;
    let replay_verified = a.out.kind.as_deref() == Some(kind)
        && a.out.fingerprint == b.out.fingerprint
        && a.out.taken == b.out.taken
        && a.out.decisions == b.out.decisions;
    (
        ViolationCase {
            kind: kind.to_string(),
            detail,
            prefix: min,
            decisions: a.out.decisions,
            policy: base.scheduler.name().to_string(),
            replay_verified,
        },
        replays,
    )
}

/// Systematically explores the schedule space of `workload` under
/// `config`'s policy, up to `opts.depth` decisions and `opts.budget`
/// executed schedules. See the [module docs](self) for the algorithm.
///
/// The workload must be self-contained (`Fn() + Clone + 'static`): it is
/// executed once per schedule under [`crate::try_run`]. Express expected
/// invariants as `assert!`s inside the workload — an assertion failure
/// surfaces as a `"panic"` violation with the minimal reproducing prefix.
///
/// `config.trace` is forced on, and `config.schedule` is replaced by the
/// explorer's scripted one.
pub fn explore<W>(config: Config, opts: ExploreOpts, workload: W) -> ExploreReport
where
    W: Fn() + Clone + 'static,
{
    let mut stack: Vec<Vec<u32>> = vec![Vec::new()];
    let mut seen_prefix: HashSet<Vec<u32>> = HashSet::new();
    seen_prefix.insert(Vec::new());
    let mut fingerprints: HashSet<u64> = HashSet::new();
    let mut seen_kinds: HashSet<String> = HashSet::new();
    let mut report = ExploreReport {
        scheduler: config.scheduler.name().to_string(),
        depth: opts.depth,
        budget: opts.budget,
        schedules_executed: 0,
        replays: 0,
        states_pruned: 0,
        redundant: 0,
        max_decisions: 0,
        budget_exhausted: false,
        violations: Vec::new(),
    };
    while let Some(prefix) = stack.pop() {
        if report.schedules_executed >= opts.budget {
            report.budget_exhausted = true;
            break;
        }
        let r = execute(&config, &prefix, workload.clone());
        report.schedules_executed += 1;
        report.max_decisions = report.max_decisions.max(r.log.len());
        if !fingerprints.insert(r.out.fingerprint) {
            // Sleep set hit: an equivalent schedule was already explored;
            // close this subtree and account its alternatives as pruned.
            report.redundant += 1;
            report.states_pruned += subtree_alternatives(&r.log, prefix.len(), opts.depth);
            continue;
        }
        if let Some(kind) = r.out.kind.clone() {
            if seen_kinds.insert(kind.clone()) && report.violations.len() < MAX_VIOLATIONS {
                let executed_prefix = r.out.taken[..prefix.len().min(r.out.taken.len())].to_vec();
                let (case, replays) = minimize_and_verify(
                    &config,
                    executed_prefix,
                    &kind,
                    r.out.detail.clone(),
                    &workload,
                );
                report.violations.push(case);
                report.replays += replays;
            }
            // A violating schedule's continuations are not expanded: the
            // violation already happened in this prefix.
            report.states_pruned += subtree_alternatives(&r.log, prefix.len(), opts.depth);
            continue;
        }
        // Backtrack-set expansion: branch every decision point at or after
        // this prefix's frontier (earlier points were branched when their
        // own prefix ran), pruning independent tie flips.
        for i in prefix.len()..r.log.len().min(opts.depth) {
            let n = r.log[i].decision.n as usize;
            for alt in 1..n {
                if flip_is_independent(&r.log, &r.touches, i, alt) {
                    report.states_pruned += 1;
                    continue;
                }
                let mut child: Vec<u32> = r.out.taken[..i].to_vec();
                child.push(alt as u32);
                if seen_prefix.insert(child.clone()) {
                    stack.push(child);
                }
            }
        }
    }
    report
}

/// Executes exactly one schedule from `prefix` (the explorer's replay
/// substrate, exposed for counter-example reproduction): same scripted
/// setup as [`explore`], one run, no branching.
pub fn replay_schedule<W>(config: Config, prefix: &[u32], workload: W) -> ReplayOutcome
where
    W: Fn() + 'static,
{
    execute(&config, prefix, workload).out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchedKind;

    #[test]
    fn trim_and_fnv_are_stable() {
        assert_eq!(trim_trailing_zeros(vec![1, 0, 2, 0, 0]), vec![1, 0, 2]);
        assert_eq!(trim_trailing_zeros(vec![0, 0]), Vec::<u32>::new());
        assert_eq!(Fnv1a::digest(b"abc"), Fnv1a::digest(b"abc"));
        assert_ne!(Fnv1a::digest(b"abc"), Fnv1a::digest(b"abd"));
    }

    #[test]
    fn explore_trivial_workload_is_single_schedule() {
        let report = explore(
            Config::new(2, SchedKind::Fifo),
            ExploreOpts::new(8, 64),
            || {
                let h = crate::spawn(|| 21u32 * 2);
                assert_eq!(h.join(), 42);
            },
        );
        assert!(report.is_clean(), "{:?}", report.violations);
        assert!(report.schedules_executed >= 1);
        assert!(!report.budget_exhausted);
    }

    #[test]
    fn replay_reports_taken_vector() {
        let out = replay_schedule(Config::new(2, SchedKind::Fifo), &[], || {
            let h = crate::spawn(|| ());
            h.join();
        });
        assert_eq!(out.kind, None);
        assert_eq!(out.taken.len(), out.decisions.len());
    }
}
