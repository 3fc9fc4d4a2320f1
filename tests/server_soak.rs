//! Open-system server soak: every scheduling policy at 2x overload must
//! shed gracefully (no stalls, no space-bound violations, nonzero sheds),
//! and a run must be bit-deterministic per seed — statistics equal across
//! repeats, traces bit-identical with tracing on (DESIGN.md §15).

use ptdf::SchedKind;
use ptdf_server::{serve, serve_traced, ServerConfig};

const POLICIES: [SchedKind; 5] = [
    SchedKind::Fifo,
    SchedKind::Lifo,
    SchedKind::Df,
    SchedKind::DfDeques,
    SchedKind::Ws,
];

fn overload() -> ServerConfig {
    ServerConfig::quick(0xD0_5EED).overload_pct(200)
}

#[test]
fn every_policy_survives_2x_overload() {
    for sched in POLICIES {
        let run = serve(&overload(), 4, sched);
        let s = &run.stats;
        assert!(
            run.report.stalled().is_none(),
            "{}: server stalled under overload",
            sched.name()
        );
        assert_eq!(
            run.report.bound_violations(),
            0,
            "{}: admission control failed to protect the space bound (peak {} KB)",
            sched.name(),
            run.report.footprint() / 1024
        );
        assert!(s.shed > 0, "{}: 2x overload must shed: {s:?}", sched.name());
        assert!(s.completed > 0, "{}: total collapse: {s:?}", sched.name());
        assert_eq!(
            s.completed + s.late + s.canceled + s.shed,
            s.offered,
            "{}: a request vanished: {s:?}",
            sched.name()
        );
        assert_eq!(s.offered, overload().requests as u64, "{}", sched.name());
    }
}

#[test]
fn deadline_cancellation_fires_under_overload() {
    // At 2x overload some requests must actually hit their deadline and be
    // cancelled (not merely shed at the door) under the depth-first
    // policies — the cancellation path is load-bearing, not decorative.
    let mut canceled = 0;
    for sched in [SchedKind::Df, SchedKind::DfDeques, SchedKind::Ws] {
        canceled += serve(&overload(), 4, sched).stats.canceled;
    }
    assert!(
        canceled > 0,
        "no deadline cancellation across df/df-deques/ws"
    );
}

#[test]
fn stats_are_deterministic_per_seed() {
    for sched in [SchedKind::Df, SchedKind::Fifo] {
        let a = serve(&overload(), 4, sched);
        let b = serve(&overload(), 4, sched);
        assert_eq!(
            a.stats,
            b.stats,
            "{}: same-seed stats diverged",
            sched.name()
        );
        assert_eq!(a.report.makespan(), b.report.makespan(), "{}", sched.name());
        assert_eq!(
            a.report.footprint(),
            b.report.footprint(),
            "{}",
            sched.name()
        );
    }
}

#[test]
fn replay_is_bit_exact_with_cancellation_in_the_trace() {
    let a = serve_traced(&overload(), 4, SchedKind::Df);
    let b = serve_traced(&overload(), 4, SchedKind::Df);
    let (ta, tb) = (
        a.report.trace.as_ref().expect("traced run"),
        b.report.trace.as_ref().expect("traced run"),
    );
    assert!(ta == tb, "same-seed traces differ");
    // The trace must actually contain Cancel events: the equality above
    // must cover the third sanctioned wake, not vacuously pass without it.
    let cancels = ta
        .events
        .iter()
        .filter(|e| matches!(e.kind, ptdf::EventKind::Cancel { .. }))
        .count();
    assert!(cancels > 0, "overload trace carries no Cancel events");
    assert_eq!(a.stats, b.stats);
}
