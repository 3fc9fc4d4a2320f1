//! Integration tests for the flight recorder: exact agreement between the
//! trace's counter tracks and the machine's memory statistics, lifecycle
//! consistency, and the Chrome/Perfetto export's acceptance shape
//! (spans + event kinds + counter tracks) — across all scheduler policies.

use ptdf::{json, Config, Report, SchedKind};
use ptdf_server::{serve, serve_traced, ServerConfig};

const ALL_KINDS: [SchedKind; 5] = [
    SchedKind::Fifo,
    SchedKind::Lifo,
    SchedKind::Df,
    SchedKind::DfDeques,
    SchedKind::Ws,
];

/// A fork tree with tracked leaf allocations: enough churn to move every
/// counter track and (for the deque policies) trigger steals.
fn traced_run(kind: SchedKind) -> Report {
    let cfg = Config::new(4, kind).with_trace();
    let (_, report) = ptdf::run(cfg, || fork_tree(4));
    report
}

fn fork_tree(depth: u32) {
    if depth == 0 {
        ptdf::rt_alloc(32 * 1024);
        ptdf::work(5_000);
        ptdf::rt_free(32 * 1024);
        return;
    }
    let left = ptdf::spawn(move || fork_tree(depth - 1));
    fork_tree(depth - 1);
    left.join();
}

/// The footprint counter track is sampled inside the machine at every
/// change, so its maximum must equal `MemStats::footprint_hwm` bit-exactly
/// (and the Report accessor), for every scheduler.
#[test]
fn footprint_track_max_equals_hwm_exactly() {
    for kind in ALL_KINDS {
        let report = traced_run(kind);
        let trace = report.trace.as_ref().expect("tracing enabled");
        assert_eq!(
            trace.footprint_hwm(),
            report.stats.mem.footprint_hwm,
            "{kind:?}: footprint track max must equal the machine hwm"
        );
        assert_eq!(trace.footprint_hwm(), report.footprint(), "{kind:?}");
        assert!(trace.footprint_hwm() > 0, "{kind:?}: track must move");
    }
}

/// Same exactness for the live-thread track vs `live_threads_hwm`.
#[test]
fn live_thread_track_max_equals_hwm_exactly() {
    for kind in ALL_KINDS {
        let report = traced_run(kind);
        let trace = report.trace.as_ref().expect("tracing enabled");
        assert_eq!(
            trace.max_live_threads(),
            report.stats.mem.live_threads_hwm,
            "{kind:?}: live-thread track max must equal the machine hwm"
        );
        assert!(trace.max_live_threads() >= 2, "{kind:?}: tree must overlap");
    }
}

/// Per-thread lifecycle records stay inside the run: dispatch after spawn,
/// exit after dispatch, ready-wait bounded by the makespan, and the quanta
/// total matching the machine's dispatch count.
#[test]
fn lifecycle_is_consistent_across_schedulers() {
    for kind in ALL_KINDS {
        let report = traced_run(kind);
        let trace = report.trace.as_ref().expect("tracing enabled");
        trace.validate().unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        let makespan = report.makespan();
        for t in &trace.threads {
            if let Some(fd) = t.first_dispatch {
                assert!(
                    fd >= t.spawned,
                    "{kind:?} t{}: dispatch before spawn",
                    t.thread
                );
            }
            assert!(
                t.ready_wait <= makespan,
                "{kind:?} t{}: ready-wait {} exceeds makespan {makespan}",
                t.thread,
                t.ready_wait
            );
        }
        let lc = trace.lifecycle();
        assert_eq!(lc.threads as usize, trace.threads.len(), "{kind:?}");
        let quanta: u64 = trace.threads.iter().map(|t| t.quanta).sum();
        assert_eq!(lc.total_quanta, quanta, "{kind:?}");
        // At any instant, at most live_threads_hwm threads can be waiting
        // ready, so the summed ready-wait integrates to at most hwm×makespan.
        let total_wait: u64 = trace.threads.iter().map(|t| t.ready_wait.as_ns()).sum();
        assert!(
            total_wait <= trace.max_live_threads() * makespan.as_ns(),
            "{kind:?}: total ready-wait {total_wait} vs bound"
        );
    }
}

/// Acceptance shape of the export: parses as JSON, has phase-X span records,
/// at least 6 distinct instant event kinds (over a workload that blocks and
/// allocates), and at least 3 counter tracks.
#[test]
fn chrome_export_has_spans_events_and_counter_tracks() {
    let cfg = Config::new(4, SchedKind::Df)
        .with_trace()
        .with_quota(16 * 1024);
    let (_, report) = ptdf::run(cfg, || {
        let m = ptdf::Mutex::new(0u64);
        let b = ptdf::Barrier::new(2);
        let (m2, b2) = (m.clone(), b.clone());
        let h = ptdf::spawn(move || {
            *m2.lock() += 1;
            ptdf::work(10_000);
            b2.wait();
        });
        fork_tree(3);
        ptdf::rt_alloc(64 * 1024); // > K: dummies + preempt
        ptdf::rt_free(64 * 1024);
        b.wait();
        *m.lock() += 1;
        h.join();
    });
    let text = report.trace.as_ref().unwrap().to_chrome_json();
    let doc = json::Value::parse(&text).expect("export must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");

    let ph_of = |e: &json::Value| {
        e.get("ph")
            .and_then(|v| v.as_str())
            .unwrap_or("")
            .to_string()
    };
    let spans = events.iter().filter(|e| ph_of(e) == "X").count();
    assert!(spans > 0, "export needs span records");

    let mut kinds: Vec<String> = events
        .iter()
        .filter(|e| ph_of(e) == "i")
        .filter_map(|e| e.get("name").and_then(|v| v.as_str()).map(str::to_string))
        .collect();
    kinds.sort();
    kinds.dedup();
    assert!(
        kinds.len() >= 6,
        "acceptance: >= 6 event kinds, got {kinds:?}"
    );

    let mut tracks: Vec<String> = events
        .iter()
        .filter(|e| ph_of(e) == "C")
        .filter_map(|e| e.get("name").and_then(|v| v.as_str()).map(str::to_string))
        .collect();
    tracks.sort();
    tracks.dedup();
    assert!(
        tracks.len() >= 3,
        "acceptance: >= 3 counter tracks, got {tracks:?}"
    );
}

/// Work-stealing policies label steal events with a victim processor.
#[test]
fn deque_policies_trace_steals_with_victims() {
    for kind in [SchedKind::Ws, SchedKind::DfDeques] {
        let report = traced_run(kind);
        let trace = report.trace.as_ref().expect("tracing enabled");
        let steals = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, ptdf::EventKind::Steal { .. }))
            .count() as u64;
        assert_eq!(steals, report.steals, "{kind:?}: one event per steal");
    }
}

/// Tracing is opt-in: without `with_trace` the report carries no trace.
#[test]
fn tracing_off_means_no_trace() {
    let (_, report) = ptdf::run(Config::new(2, SchedKind::Df), || fork_tree(2));
    assert!(report.trace.is_none());
}

/// Host phase timers attribute *disjoint* wall time: when profiling hooks
/// nest (a charge flush inside the scheduler-lock window inside a
/// dispatch), each phase records only its own nanoseconds. The pinning
/// consequence: the sum over all phases can never exceed the wall time the
/// whole run took, no matter how the hooks nest.
#[test]
fn host_phase_ns_sum_stays_under_measured_wall_ns() {
    for kind in ALL_KINDS {
        let t0 = std::time::Instant::now();
        let cfg = Config::new(4, kind).with_trace().with_host_profile(true);
        let (_, report) = ptdf::run(cfg, || fork_tree(5));
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let hp = report.host_phase();
        assert!(hp.enabled, "{kind:?}: profile must be armed");
        let sum: u64 = hp.phases().iter().map(|(_, p)| p.ns).sum();
        assert_eq!(sum, hp.total_ns(), "{kind:?}: total_ns is the phase sum");
        assert!(
            sum <= wall_ns,
            "{kind:?}: disjoint phases must sum under the wall: {sum} > {wall_ns}"
        );
        assert!(
            hp.phases().iter().any(|(_, p)| p.count > 0),
            "{kind:?}: a profiled run must hit at least one phase"
        );
    }
}

/// Tracing records the run; it does not move it. The benchmark measures
/// every end-to-end metric with tracing off and reads its layers from a
/// traced run, so the two must be one schedule: the same `RunStats`
/// (makespan, per-processor breakdown and dispatches, every memory
/// high-water mark), steals, thread count and server counters.
#[test]
fn tracing_does_not_move_the_model() {
    fn model(r: &Report) -> (&ptdf_smp::RunStats, u64, usize) {
        (&r.stats, r.steals, r.total_threads)
    }
    let server = ServerConfig {
        requests: 200,
        ..ServerConfig::standard(0x7ACE)
    }
    .overload_pct(200);
    for kind in ALL_KINDS {
        let (_, plain) = ptdf::run(Config::new(4, kind), || fork_tree(8));
        let (_, traced) = ptdf::run(Config::new(4, kind).with_trace(), || fork_tree(8));
        assert!(plain.trace.is_none() && traced.trace.is_some());
        assert_eq!(model(&plain), model(&traced), "{kind:?}: fork-join tree");
        let (plain, traced) = (serve(&server, 4, kind), serve_traced(&server, 4, kind));
        assert!(traced.report.trace.is_some());
        assert_eq!(plain.stats, traced.stats, "{kind:?}: server counters");
        assert_eq!(
            model(&plain.report),
            model(&traced.report),
            "{kind:?}: server"
        );
    }
}

/// The report and the trace agree on which policies ran under a memory
/// quota: the three depth-first ones.
#[test]
fn report_and_trace_agree_on_the_quota() {
    for kind in ALL_KINDS.into_iter().chain([SchedKind::DfLocal]) {
        let report = traced_run(kind);
        let quota = report.trace.as_ref().expect("tracing enabled").meta.quota;
        assert_eq!(report.quota, quota, "{kind:?}");
        let breadth = matches!(kind, SchedKind::Fifo | SchedKind::Lifo | SchedKind::Ws);
        assert_eq!(quota.is_some(), !breadth, "{kind:?}");
    }
}
