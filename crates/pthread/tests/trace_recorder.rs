//! The flight recorder on real runs: what the engine records (spans,
//! the event taxonomy, lifecycle rows, counter tracks), that every record
//! passes through its one emission hook, and what the trace analyses say
//! about recorded traces.

use ptdf::critpath::{analyze_with_makespan, object_waits};
use ptdf::json::Value;
use ptdf::trace::{BlockReason, EventKind, Trace};
use ptdf::{check_trace, run, scope, spawn, Config, SchedKind, Violation, VirtTime};
use ptdf_smp::HostPhaseStats;

#[test]
fn trace_records_all_dispatches_without_overlap() {
    let cfg = Config::new(4, SchedKind::Df).with_trace();
    let (_, report) = run(cfg, || {
        scope(|s| {
            for i in 0..16 {
                s.spawn(move || ptdf::work(1000 * (i + 1)));
            }
        })
    });
    let trace = report.trace.as_ref().expect("trace enabled");
    assert!(!trace.is_empty());
    // Every dispatch produced a span.
    let dispatches: u64 = report.stats.procs.iter().map(|p| p.dispatches).sum();
    assert!(trace.len() as u64 >= dispatches);
    assert!(
        trace.find_overlap().is_none(),
        "spans on one processor must not overlap"
    );
    // Busy time from the trace matches the stats' busy time closely.
    let busy = trace.busy_per_proc(4);
    for (b, p) in busy.iter().zip(&report.stats.procs) {
        let stat_busy = p.breakdown.busy();
        assert!(
            b.as_ns() <= stat_busy.as_ns(),
            "trace busy {} > stats busy {}",
            b,
            stat_busy
        );
    }
    trace.validate().expect("structurally valid trace");
}

#[test]
fn trace_disabled_by_default() {
    let (_, report) = run(Config::new(1, SchedKind::Df), || ());
    assert!(report.trace.is_none());
}

#[test]
fn chrome_json_round_trips_exactly() {
    let cfg = Config::new(2, SchedKind::Df).with_trace().with_quota(2048);
    let (_, report) = run(cfg, || {
        let h = ptdf::spawn(|| {
            ptdf::rt_alloc(64 * 1024); // forces dummies + preemption
            ptdf::work(5000);
            ptdf::rt_free(64 * 1024);
        });
        h.join();
    });
    let trace = report.trace.unwrap();
    let json = trace.to_chrome_json();
    // Well-formed JSON (full parse, not brace counting).
    let doc = Value::parse(&json).expect("well-formed JSON");
    assert!(doc.get("traceEvents").is_some());
    // Lossless round trip.
    let back = Trace::from_chrome_json(&json).expect("parse back");
    assert_eq!(back, trace);
}

#[test]
fn chrome_json_round_trips_host_phase_and_skips_critpath_track() {
    let cfg = Config::new(2, SchedKind::Df).with_trace();
    let (_, report) = run(cfg, || {
        scope(|s| {
            for i in 0..6 {
                s.spawn(move || ptdf::work(1000 * (i + 1)));
            }
        })
    });
    let mut trace = report.trace.unwrap();
    let mut hp = HostPhaseStats {
        enabled: true,
        ..HostPhaseStats::default()
    };
    hp.heap_push.count = 3;
    hp.heap_push.ns = 1234;
    hp.dispatch.count = 17;
    hp.dispatch.ns = 98765;
    trace.host_phase = Some(hp);
    let back = Trace::from_chrome_json(&trace.to_chrome_json()).expect("parse back");
    assert_eq!(back, trace, "hostPhase must survive the round trip");
    // The merged critical-path export parses back to the same base
    // trace: the extra pid-1 lane is skipped on import.
    let cp = ptdf::critpath::analyze(&trace);
    assert!(!cp.segments.is_empty());
    let merged = trace.to_chrome_json_with_critpath(&cp);
    assert!(merged.contains("\"critpath\""));
    let back = Trace::from_chrome_json(&merged).expect("parse merged");
    assert_eq!(back, trace);
}

#[test]
fn events_cover_the_taxonomy() {
    // Df run: memory-path kinds (dummies, preemption, alloc/free).
    let cfg = Config::new(2, SchedKind::Df).with_trace().with_quota(1024);
    let (_, report) = run(cfg, || {
        let h = ptdf::spawn(|| ptdf::work(5000));
        ptdf::rt_alloc(8 * 1024); // > K -> dummies + preempt
        ptdf::rt_free(8 * 1024);
        h.join();
    });
    let trace = report.trace.unwrap();
    let counts = trace.event_kind_counts();
    let has = |k: &str| counts.iter().any(|&(n, _)| n == k);
    for kind in [
        "spawn",
        "first-dispatch",
        "join",
        "dummy-insert",
        "preempt",
        "stack-reserve",
        "stack-release",
        "alloc",
        "free",
    ] {
        assert!(has(kind), "missing event kind {kind}: {counts:?}");
    }
    assert!(counts.len() >= 6, "acceptance: >= 6 event kinds in one run");
    // Counter tracks: footprint, live-threads, ready at minimum.
    assert!(!trace.counters.footprint.is_empty());
    assert!(!trace.counters.live_threads.is_empty());
    assert!(!trace.counters.ready.is_empty());
    trace.validate().expect("valid df trace");

    // Fifo run: deterministic block/wake — with a two-party barrier,
    // whichever thread arrives first must block until the other shows.
    let cfg = Config::new(2, SchedKind::Fifo).with_trace();
    let (_, report) = run(cfg, || {
        let b = ptdf::Barrier::new(2);
        let b2 = b.clone();
        let h = ptdf::spawn(move || {
            ptdf::work(5000);
            b2.wait();
        });
        b.wait();
        h.join();
    });
    let trace = report.trace.unwrap();
    let blocks: Vec<_> = trace
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Block { reason, .. } => Some(reason),
            _ => None,
        })
        .collect();
    assert!(
        blocks.contains(&BlockReason::Barrier),
        "first barrier arrival must block: {blocks:?} / {:?}",
        trace.event_kind_counts()
    );
    let wakes = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Wake { .. }))
        .count();
    assert!(wakes >= 1, "barrier completion must produce a wake event");
    trace.validate().expect("valid fifo trace");
}

#[test]
fn steal_events_carry_victims() {
    let cfg = Config::new(4, SchedKind::Ws).with_trace();
    let (_, report) = run(cfg, || {
        scope(|s| {
            for _ in 0..32 {
                s.spawn(|| ptdf::work(50_000));
            }
        })
    });
    let trace = report.trace.unwrap();
    let steals: Vec<_> = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Steal { .. }))
        .collect();
    assert_eq!(steals.len() as u64, report.steals, "one event per steal");
    assert!(!steals.is_empty(), "ws at p=4 must steal");
    for e in &steals {
        let EventKind::Steal { victim } = e.kind else {
            unreachable!()
        };
        let v = victim.expect("ws knows its victim") as usize;
        assert_ne!(v, e.proc, "no self-steals");
    }
}

#[test]
fn lifecycle_percentiles_are_consistent() {
    let cfg = Config::new(2, SchedKind::Fifo).with_trace();
    let (_, report) = run(cfg, || {
        scope(|s| {
            for i in 0..24 {
                s.spawn(move || ptdf::work(2000 * (i % 5 + 1)));
            }
        })
    });
    let trace = report.trace.as_ref().unwrap();
    let lc = trace.lifecycle();
    assert_eq!(lc.threads, report.total_threads as u64);
    // Every dispatch is a quantum of exactly one thread.
    let dispatches: u64 = report.stats.procs.iter().map(|p| p.dispatches).sum();
    assert_eq!(lc.total_quanta, dispatches);
    assert!(lc.dispatch_latency.count > 0);
    assert!(lc.dispatch_latency.p50 <= lc.dispatch_latency.p90);
    assert!(lc.dispatch_latency.p90 <= lc.dispatch_latency.p99);
    assert!(lc.dispatch_latency.p99 <= lc.dispatch_latency.max);
    let hist_total: u64 = lc.dispatch_latency.hist_log2.iter().sum();
    assert_eq!(hist_total, lc.dispatch_latency.count);
    // FIFO at p=2 queues threads: someone must actually wait.
    assert!(lc.ready_wait.max > VirtTime::ZERO);
}

#[test]
fn clean_real_traces_check_clean() {
    for kind in [SchedKind::Fifo, SchedKind::Df, SchedKind::Ws] {
        let (_, report) = run(Config::new(4, kind).with_trace(), || {
            let m = ptdf::Mutex::new(0u64);
            let b = ptdf::Barrier::new(4);
            let s = ptdf::Semaphore::new(2);
            scope(|sc| {
                for _ in 0..4 {
                    let (m, b, s) = (m.clone(), b.clone(), s.clone());
                    sc.spawn(move || {
                        s.acquire();
                        *m.lock() += 1;
                        s.release();
                        b.wait();
                        ptdf::work(2_000);
                    });
                }
            });
            assert_eq!(*m.lock(), 4);
        });
        let trace = report.trace.unwrap();
        let check = check_trace(&trace);
        assert!(
            check.is_clean(),
            "{kind:?}: unexpected violations: {:?}",
            check.violations
        );
        assert!(check.events > 0);
    }
}

#[test]
fn surgically_removed_wake_is_flagged() {
    // Take a real trace and drop one Wake event: the woken thread now
    // appears stranded, exactly what a lost wakeup looks like.
    let (_, report) = run(Config::new(2, SchedKind::Fifo).with_trace(), || {
        let b = ptdf::Barrier::new(2);
        let b2 = b.clone();
        let h = spawn(move || {
            ptdf::work(5_000);
            b2.wait();
        });
        b.wait();
        h.join();
    });
    let mut trace = report.trace.unwrap();
    assert!(check_trace(&trace).is_clean(), "pre-surgery trace is clean");
    let pos = trace
        .events
        .iter()
        .position(|e| matches!(e.kind, EventKind::Wake { .. }))
        .expect("barrier run has wakes");
    trace.events.remove(pos);
    let check = check_trace(&trace);
    assert!(
        !check.is_clean(),
        "removing a wake must produce a violation"
    );
}

#[test]
fn real_deadlock_trace_checks_dirty_with_the_cycle() {
    // Drive an actual 2-thread lock-order inversion and confirm the
    // flight recorder + checker name the cycle end to end.
    let result = std::panic::catch_unwind(|| {
        run(Config::new(2, SchedKind::Df).with_trace(), || {
            let a = ptdf::Mutex::new(());
            let b = ptdf::Mutex::new(());
            let (a2, b2) = (a.clone(), b.clone());
            let t1 = spawn(move || {
                let _ga = a2.lock();
                ptdf::work(300_000);
                let _gb = b2.lock();
            });
            let (a3, b3) = (a.clone(), b.clone());
            let t2 = spawn(move || {
                let _gb = b3.lock();
                ptdf::work(300_000);
                let _ga = a3.lock();
            });
            let _ = t1.try_join();
            let _ = t2.try_join();
        })
    });
    // The deadlock unwinds one spawned thread; try_join absorbs it, so
    // the run completes and delivers the trace.
    let (_, report) = result.expect("run completes after sentinel unwind");
    assert_eq!(report.deadlocks().len(), 1, "one cycle recorded");
    let mut members = report.deadlocks()[0].cycle.clone();
    members.sort_unstable();
    assert_eq!(members, vec![1, 2]);
    let check = check_trace(&report.trace.unwrap());
    assert!(
        check
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Deadlock { .. })),
        "expected a Deadlock violation, got {:?}",
        check.violations
    );
}

#[test]
fn replay_recipe_includes_chaos_seed_when_armed() {
    let cfg = Config::new(2, SchedKind::Ws)
        .with_trace()
        .with_perturbation(7)
        .with_chaos(11);
    let (_, report) = run(cfg, || {
        let h = spawn(|| ptdf::work(1_000));
        h.join();
    });
    let check = check_trace(&report.trace.unwrap());
    assert_eq!(
        check.replay.as_deref(),
        Some("--sched ws --perturb-seed 7 --chaos-seed 11")
    );
}

#[test]
fn replay_recipe_round_trips_from_meta() {
    let cfg = Config::new(2, SchedKind::Df)
        .with_trace()
        .with_perturbation(42);
    let (_, report) = run(cfg, || {
        let h = spawn(|| ptdf::work(1_000));
        h.join();
    });
    let trace = report.trace.unwrap();
    let check = check_trace(&trace);
    assert_eq!(
        check.replay.as_deref(),
        Some("--sched df --perturb-seed 42")
    );
    assert!(check.is_clean(), "{:?}", check.violations);
}

fn forkjoin_trace(kind: SchedKind, perturb: Option<u64>) -> (Trace, VirtTime) {
    let mut cfg = Config::new(4, kind).with_trace();
    if let Some(seed) = perturb {
        cfg = cfg.with_perturbation(seed);
    }
    let (_, report) = run(cfg, || {
        scope(|s| {
            for i in 0..12 {
                s.spawn(move || {
                    ptdf::work(3_000 * (i % 4 + 1));
                    if i % 3 == 0 {
                        let h = ptdf::spawn(move || ptdf::work(2_000));
                        h.join();
                    }
                });
            }
        })
    });
    (report.trace.unwrap(), report.stats.makespan)
}

#[test]
fn blame_tiles_the_makespan_under_all_policies() {
    for kind in SchedKind::SWEEP {
        let (trace, makespan) = forkjoin_trace(kind, None);
        let cp = analyze_with_makespan(&trace, makespan);
        assert!(!cp.empty);
        assert_eq!(
            cp.blame.sum(),
            makespan,
            "{kind:?}: buckets must sum bit-exactly to the makespan"
        );
        assert_eq!(cp.makespan, makespan);
        // The tiling is contiguous and ordered.
        let mut prev = VirtTime::ZERO;
        for seg in &cp.segments {
            assert_eq!(seg.start, prev, "{kind:?}: tiling gap at {}", seg.start);
            assert!(seg.end >= seg.start);
            prev = seg.end;
        }
        assert_eq!(prev, makespan);
        assert!(
            cp.blame.compute > VirtTime::ZERO,
            "{kind:?}: path has compute"
        );
        // Residual should be a sliver, not the bulk of the path.
        assert!(
            cp.blame.residual.as_ns() * 4 < makespan.as_ns(),
            "{kind:?}: residual {} of makespan {}",
            cp.blame.residual,
            makespan
        );
    }
}

#[test]
fn blame_tiles_under_a_perturbed_schedule() {
    // Pin: perturbation shuffles the schedule but can never break the
    // tiling invariant.
    for seed in [0xBEEF, 0x1234] {
        let (trace, makespan) = forkjoin_trace(SchedKind::Df, Some(seed));
        let cp = analyze_with_makespan(&trace, makespan);
        assert_eq!(cp.blame.sum(), makespan, "seed {seed:#x}");
    }
}

#[test]
fn contention_is_blamed_on_the_lock() {
    let cfg = Config::new(4, SchedKind::Fifo).with_trace();
    let (_, report) = run(cfg, || {
        let m = ptdf::Mutex::new(0u64);
        scope(|s| {
            for _ in 0..4 {
                let m = m.clone();
                s.spawn(move || {
                    // Each worker runs far longer than the virtual
                    // spawn stagger, so the lock really is contended.
                    for _ in 0..16 {
                        let mut g = m.lock();
                        ptdf::work(20_000);
                        *g += 1;
                    }
                });
            }
        });
    });
    let trace = report.trace.unwrap();
    let cp = analyze_with_makespan(&trace, report.stats.makespan);
    assert_eq!(cp.blame.sum(), report.stats.makespan);
    assert!(
        cp.blame.lock_wait > VirtTime::ZERO,
        "serialized mutex must put lock wait on the path: {:?}",
        cp.blame
    );
    let top = cp.objects.first().expect("a blamed object");
    assert_eq!(top.reason, BlockReason::Mutex);
    // Whole-trace per-object waits see the same contention.
    let waits = object_waits(&trace);
    assert!(!waits.is_empty());
    assert_eq!(waits[0].reason, BlockReason::Mutex);
    assert!(waits[0].total > VirtTime::ZERO);
}

/// The engine's one emission hook brackets every record with one
/// `trace_alloc` profiler window and brackets nothing else: on a traced,
/// profiled run the window count is the events the runtime recorded (all
/// but the memory events the machine records itself) plus the spans. The
/// four runs between them record every kind the runtime emits.
#[test]
fn every_runtime_record_passes_through_the_one_trace_alloc_window() {
    use ptdf::{Barrier, Condvar, Mutex, Semaphore};
    let machine_kinds = [
        "alloc",
        "free",
        "stack-reserve",
        "stack-release",
        "free-underflow",
        "bound-violation",
    ];
    let mut seen: Vec<&'static str> = Vec::new();
    let mut check = |trace: &Trace| {
        let hp = trace.host_phase.expect("profiled run");
        let runtime_events = trace
            .events
            .iter()
            .filter(|e| !machine_kinds.contains(&e.kind.name()))
            .count();
        assert_eq!(
            hp.trace_alloc.count as usize,
            runtime_events + trace.spans.len(),
            "{}: {:?}",
            trace.meta.scheduler,
            trace.event_kind_counts()
        );
        seen.extend(trace.event_kind_counts().iter().map(|&(name, _)| name));
    };
    let traced = |cfg: Config| cfg.with_trace().with_host_profile(true);
    // Spawn, first dispatch, block/wake, notify, join, timeout, and an
    // allocation above the quota: dummies and a preemption.
    let (_, report) = run(
        traced(Config::new(2, SchedKind::Df).with_quota(1024)),
        || {
            let m = Mutex::new(0u64);
            let cv = Condvar::new();
            let b = Barrier::new(2);
            let (m2, cv2, b2) = (m.clone(), cv.clone(), b.clone());
            let h = spawn(move || {
                ptdf::work(5_000);
                *m2.lock() += 1;
                cv2.notify_all();
                b2.wait();
            });
            ptdf::rt_alloc(8 * 1024);
            ptdf::rt_free(8 * 1024);
            let mut g = m.lock();
            while *g == 0 {
                g = cv.wait(g);
            }
            drop(g);
            b.wait();
            h.join();
            let sem = Semaphore::new(0);
            sem.acquire_timeout(VirtTime::from_us(5)).unwrap_err();
        },
    );
    check(report.trace.as_ref().expect("traced"));
    // Steals.
    let (_, report) = run(traced(Config::new(4, SchedKind::Ws)), || {
        scope(|s| {
            for _ in 0..32 {
                s.spawn(|| ptdf::work(50_000));
            }
        })
    });
    check(report.trace.as_ref().expect("traced"));
    // A detected deadlock.
    let (_, report) = ptdf::try_run(traced(Config::new(2, SchedKind::Df)), || {
        let (a, b) = (Mutex::new(()), Mutex::new(()));
        let (a2, b2) = (a.clone(), b.clone());
        let t1 = spawn(move || {
            let _ga = a2.lock();
            ptdf::work(300_000);
            let _gb = b2.lock();
        });
        let t2 = spawn(move || {
            let _gb = b.lock();
            ptdf::work(300_000);
            let _ga = a.lock();
        });
        let _ = t1.try_join();
        let _ = t2.try_join();
    })
    .expect("a detected deadlock is a verdict");
    check(report.trace.as_ref().expect("traced"));
    // A cancelled timed wait.
    let l = ptdf::litmus::find("cancel_deadline_race").expect("corpus program");
    let (_, report) = run(traced(Config::new(l.procs, SchedKind::Fifo)), l.body);
    check(report.trace.as_ref().expect("traced"));
    for kind in [
        "spawn",
        "first-dispatch",
        "block",
        "wake",
        "notify",
        "join",
        "steal",
        "dummy-insert",
        "preempt",
        "timeout",
        "deadlock",
        "cancel",
    ] {
        assert!(seen.contains(&kind), "no run recorded {kind}: {seen:?}");
    }
}
