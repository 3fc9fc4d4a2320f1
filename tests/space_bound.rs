//! End-to-end audit of the paper's space guarantee: the depth-first
//! schedulers must keep every benchmark's footprint within
//! `S1 + factor · p · D` (serial space plus a per-processor depth
//! allowance), while the stock FIFO scheduler with 1 MB stacks blows the
//! same bound on the fine-grained matmul (§3 / Figure 5). The bound is
//! checked by the *runtime enforcer* ([`ptdf::Config::with_space_bound`]),
//! not by post-hoc arithmetic, so this also exercises the armed machine
//! end-to-end: violations surface through
//! [`ptdf::Report::bound_violations`] and through [`ptdf::check_trace`]
//! (the same signal `ptdf-trace audit` reads from an exported trace).
//!
//! Problem sizes follow `REPRO_FULL` (see `ptdf_bench::full_scale`).

use ptdf::{check_trace, Config, CostModel, Report, SchedKind, Violation, STACK_1MB};
use ptdf_apps::{App, Version, APPS, MATMUL};
use ptdf_bench::{run_app, run_app_serial, scale};

const PROCS: usize = 4;

/// Per-processor depth allowance `D`, in bytes: one depth-first path of
/// live threads (stacks plus allocation overshoot along the path). With
/// `FACTOR · p · D = 4 MB` this clears every benchmark's measured DF
/// overhead at the test scale (max ≈ 3.3 MB, decision tree) while sitting
/// far below the FIFO matmul explosion (≈ 21 MB over serial): FIFO leaks
/// whole breadth levels of 1 MB stacks, not one path per processor.
const DEPTH_BYTES: u64 = 256 * 1024;
const FACTOR: u64 = 4;

/// `app`'s serial space `S1`, and a closure running its fine version
/// under a config.
fn s1_and_fine(app: &App) -> (u64, impl Fn(Config) -> Report) {
    let bodies = (app.build)(scale());
    let s1 = run_app_serial(&bodies, CostModel::ultrasparc_167()).s1_bytes();
    (s1, move |cfg| run_app(&bodies, Version::Fine, cfg))
}

#[test]
fn df_schedulers_stay_within_s1_plus_p_depth() {
    for app in &APPS {
        let (s1, fine) = s1_and_fine(app);
        for kind in [SchedKind::Df, SchedKind::DfDeques] {
            let cfg = Config::new(PROCS, kind).with_space_bound_terms(s1, FACTOR, DEPTH_BYTES);
            let bound = cfg.space_bound.expect("armed");
            let report = fine(cfg);
            assert_eq!(
                report.bound_violations(),
                0,
                "{} under {kind:?}: footprint {} exceeded S1 {s1} + {FACTOR}*p*D = {bound}",
                app.label,
                report.footprint(),
            );
            assert!(report.footprint() <= bound, "enforcer missed an excursion");
        }
    }
}

#[test]
fn native_fifo_breaks_the_same_bound_on_fine_matmul() {
    let (s1, fine) = s1_and_fine(&MATMUL);
    let cfg = Config::new(PROCS, SchedKind::Fifo)
        .with_stack(STACK_1MB)
        .with_space_bound_terms(s1, FACTOR, DEPTH_BYTES)
        .with_trace();
    let bound = cfg.space_bound.expect("armed");
    let report = fine(cfg);
    assert!(
        report.bound_violations() > 0,
        "FIFO matmul stayed under the bound: footprint {} <= {bound}",
        report.footprint(),
    );
    assert!(report.footprint() > bound);

    // The excursion is visible to trace consumers: exactly one crossing
    // event (the footprint is monotone) that check_trace reports.
    let trace = report.trace.as_ref().expect("traced");
    let check = check_trace(trace);
    let crossings: Vec<_> = check
        .violations
        .iter()
        .filter(|v| matches!(v, Violation::SpaceBound { .. }))
        .collect();
    assert_eq!(crossings.len(), 1, "one crossing marks the excursion");
    if let Violation::SpaceBound {
        bound: b,
        footprint,
        ..
    } = crossings[0]
    {
        assert_eq!(*b, bound);
        assert!(*footprint > bound);
    }
}
