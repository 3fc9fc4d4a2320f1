//! Litmus corpus × schedule explorer matrix (ISSUE 9 tentpole acceptance).
//!
//! Exhaustively explores every program in [`ptdf::litmus`] under all five
//! scheduling policies with [`ptdf::explore`], pinning down:
//!
//! 1. **Cleanliness** — every correct program is violation-free under
//!    *every* schedule within the explored depth (not just sampled seeds).
//! 2. **Pruning** — DPOR executes measurably fewer schedules than naive
//!    enumeration (aggregate pruning ratio > 1).
//! 3. **Determinism** — the same `(program, depth, budget)` produces a
//!    bit-identical `ExploreReport`, counter-example prefixes included.
//! 4. **Detection** — the known-bad fixture is caught, minimized, and its
//!    minimal prefix replays bit-exactly.
//! 5. **Regression** — the programs that once exposed the timed-wait
//!    grant bugs (a stale semaphore or mutex queue slot, the rwlock
//!    writer-timeout window) are schedule-exhaustively clean: a timed-out
//!    waiter's slot leaves its queue with the wake (`ptdf`'s `waitq`
//!    module, whose unit tests build the stale slot by hand).

use ptdf::{explore, litmus, replay_schedule, Config, ExploreOpts, SchedKind};

const POLICIES: [SchedKind; 5] = [
    SchedKind::Fifo,
    SchedKind::Lifo,
    SchedKind::Df,
    SchedKind::DfDeques,
    SchedKind::Ws,
];

fn opts() -> ExploreOpts {
    ExploreOpts::new(4, 2000)
}

#[test]
fn corpus_is_clean_and_pruned_under_all_policies() {
    let opts = opts();
    let mut executed = 0u64;
    let mut pruned = 0u64;
    for l in litmus().iter().filter(|l| !l.buggy) {
        for kind in POLICIES {
            let report = explore(Config::new(l.procs, kind), opts, l.body);
            assert!(
                report.is_clean(),
                "{} under {kind:?}: {:#?}",
                l.name,
                report.violations
            );
            assert!(
                !report.budget_exhausted,
                "{} under {kind:?}: budget too small for exhaustive exploration \
                 ({} schedules executed)",
                l.name, report.schedules_executed
            );
            executed += report.schedules_executed as u64;
            pruned += report.states_pruned;
        }
    }
    // DPOR acceptance: across the corpus the explorer must prove schedules
    // redundant without running them — strictly better than enumeration.
    let ratio = (executed + pruned) as f64 / executed as f64;
    assert!(
        ratio > 1.0,
        "no pruning at all: executed {executed}, pruned {pruned}"
    );
}

#[test]
fn explorer_finds_minimizes_and_replays_known_bad() {
    let l = ptdf::litmus::find("buggy_lost_update").expect("fixture exists");
    let report = explore(Config::new(l.procs, SchedKind::Fifo), opts(), l.body);
    let case = report
        .violations
        .iter()
        .find(|v| v.kind == "panic")
        .unwrap_or_else(|| panic!("lost update not found: {:#?}", report.violations));
    assert!(case.replay_verified, "{case:#?}");
    assert!(
        case.detail.contains("lost update"),
        "wrong panic captured: {}",
        case.detail
    );
    // The printed recipe really reproduces it, bit for bit, twice.
    let a = replay_schedule(Config::new(l.procs, SchedKind::Fifo), &case.prefix, l.body);
    let b = replay_schedule(Config::new(l.procs, SchedKind::Fifo), &case.prefix, l.body);
    assert_eq!(a.kind.as_deref(), Some("panic"), "{a:#?}");
    assert_eq!(a, b, "counter-example replay diverged");
}

#[test]
fn flipped_grant_decision_needs_a_nonempty_prefix() {
    // The grant-order fixture is clean on the natural schedule; only a
    // flipped `Grant` decision breaks it, so its minimal counter-example
    // prefix must be non-empty — the explorer really drove the engine
    // somewhere the natural run never goes.
    let l = ptdf::litmus::find("buggy_grant_order").expect("fixture exists");
    let natural = replay_schedule(Config::new(l.procs, SchedKind::Fifo), &[], l.body);
    assert_eq!(
        natural.kind, None,
        "natural schedule should be clean: {natural:#?}"
    );
    let report = explore(Config::new(l.procs, SchedKind::Fifo), opts(), l.body);
    let case = report
        .violations
        .iter()
        .find(|v| v.kind == "panic")
        .unwrap_or_else(|| panic!("grant-order bug not found: {:#?}", report.violations));
    assert!(
        !case.prefix.is_empty(),
        "violation cannot be on the natural path"
    );
    assert!(case.prefix.iter().any(|&c| c != 0));
    assert!(case.replay_verified, "{case:#?}");
    let replay = replay_schedule(Config::new(l.procs, SchedKind::Fifo), &case.prefix, l.body);
    assert_eq!(replay.kind.as_deref(), Some("panic"), "{replay:#?}");
}

#[test]
fn exploration_is_deterministic() {
    // Same (program, depth, budget) ⇒ bit-identical ExploreReport —
    // schedule counts, pruning stats, violations, and minimal prefixes —
    // across two independent explorations, on every policy.
    let opts = opts();
    for (name, procs) in [
        ("sem_timeout_grant", 1),
        ("buggy_grant_order", 1),
        ("cancel_deadline_race", 1),
        ("cancel_lock_race", 1),
    ] {
        let l = ptdf::litmus::find(name).expect("fixture exists");
        assert_eq!(l.procs, procs);
        for kind in POLICIES {
            let first = explore(Config::new(l.procs, kind), opts, l.body);
            let second = explore(Config::new(l.procs, kind), opts, l.body);
            assert_eq!(first, second, "{name} under {kind:?} diverged");
        }
    }
}

/// Explores `program` exhaustively under every policy and demands it clean.
fn exhaustively_clean(program: &str, what: &str) {
    let l = ptdf::litmus::find(program).expect("fixture exists");
    for kind in POLICIES {
        let report = explore(Config::new(l.procs, kind), opts(), l.body);
        assert!(
            report.is_clean(),
            "{what} under {kind:?}: {:#?}",
            report.violations
        );
    }
}

#[test]
fn stale_semaphore_slot_is_exhaustively_absent() {
    // Once (PR 9) a release could grant to a waiter whose acquire_timeout
    // deadline had already fired, stranding the next live waiter forever.
    exhaustively_clean("sem_timeout_grant", "a timed-out slot still eats a permit");
}

#[test]
fn stale_mutex_slot_is_exhaustively_absent() {
    // The mutex flavor of the same bug class (ISSUE 10): an unlock handing
    // the lock to a waiter whose lock_timeout deadline already fired.
    exhaustively_clean(
        "mutex_timeout_grant",
        "a timed-out slot still takes the lock",
    );
}

#[test]
fn condvar_notify_is_immune_to_stale_timed_slots() {
    // Same schedule space as the two above, condvar flavor: a timed-out
    // waiter's slot cannot eat a notify.
    exhaustively_clean(
        "condvar_timeout_notify",
        "condvar notify lost to a stale slot",
    );
}

#[test]
fn cancel_delivery_is_a_real_decision_point() {
    // Tentpole acceptance: a cancel against a deadline-bounded wait is a
    // genuine two-way schedule decision (deliver now vs defer to the
    // wait's own resolution). The natural path must record it, and the
    // scripted flip must take the deferred branch and still end clean.
    let l = ptdf::litmus::find("cancel_deadline_race").expect("fixture exists");
    let natural = replay_schedule(Config::new(l.procs, SchedKind::Df), &[], l.body);
    assert_eq!(natural.kind, None, "{natural:#?}");
    let i = natural
        .decisions
        .iter()
        .position(|d| d.kind == ptdf::DecisionKind::CancelDelivery)
        .unwrap_or_else(|| {
            panic!(
                "no cancel-delivery decision recorded: {:#?}",
                natural.decisions
            )
        });
    let mut prefix = natural.taken[..i].to_vec();
    prefix.push(1); // defer: the wait resolves by its own deadline instead
    let deferred = replay_schedule(Config::new(l.procs, SchedKind::Df), &prefix, l.body);
    assert_eq!(
        deferred.kind, None,
        "deferred delivery violated: {deferred:#?}"
    );
    assert_eq!(
        deferred.decisions[i].chosen, 1,
        "scripted defer was not taken: {:#?}",
        deferred.decisions
    );
    // Both branches replay bit-exactly.
    let again = replay_schedule(Config::new(l.procs, SchedKind::Df), &prefix, l.body);
    assert_eq!(deferred, again, "cancel-delivery replay diverged");
}

#[test]
fn rwlock_writer_timeout_window_is_exhaustively_closed() {
    // Once a writer unwinding from write_timeout left its queue entry
    // behind; admission could then install the stale writer and strand live
    // waiters.
    exhaustively_clean("rwlock_writer_timeout", "writer-timeout window still open");
}

#[test]
fn rwlock_timed_waiters_survive_sixteen_perturbed_seeds() {
    // Satellite 2 regression matrix: the writer-timeout scenario under 16
    // perturbation seeds per policy (seeded jitter explores different
    // interleavings than the oracle's systematic walk), every trace fed to
    // the happens-before checker.
    let l = ptdf::litmus::find("rwlock_writer_timeout").expect("fixture exists");
    for kind in POLICIES {
        for seed in 0..16 {
            let cfg = Config::new(l.procs, kind)
                .with_trace()
                .with_perturbation(seed);
            let (_, report) = ptdf::run(cfg, l.body);
            let check = ptdf::check_trace(&report.trace.expect("tracing enabled"));
            assert!(
                check.is_clean(),
                "{kind:?} seed {seed}: {:#?}",
                check.violations
            );
        }
    }
}

#[test]
fn reports_carry_the_advertised_statistics() {
    let l = ptdf::litmus::find("condvar_signal").expect("fixture exists");
    let opts = opts();
    let report = explore(Config::new(l.procs, SchedKind::Fifo), opts, l.body);
    assert_eq!(report.scheduler, "fifo");
    assert_eq!(report.depth, opts.depth);
    assert_eq!(report.budget, opts.budget);
    assert!(
        report.schedules_executed >= 2,
        "condvar race has >1 schedule"
    );
    assert!(report.pruning_ratio() >= 1.0);
    assert!(report.max_decisions > 0, "no decision points hit at all");
}
