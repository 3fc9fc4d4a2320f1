//! `ptdf-trace`'s exit status on input that is not a trace: a file that
//! reads but does not parse is a failed check (exit 1, one `path: reason`
//! line) for every subcommand that takes traces; only a path that cannot be
//! read is an I/O error (exit 2). A `--factor` that is not a finite
//! non-negative number is a usage error, exit 2 as well, and so are a
//! bound given to `validate` and an `explore --sched` name no policy has.
//! `explore` exits 1 when it finds a violating schedule and 0 when it finds
//! none. Drives the built binary.

use std::path::PathBuf;
use std::process::{Command, Output};

use ptdf::Trace;
use ptdf_smp::VirtTime;

fn ptdf_trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ptdf-trace"))
        .args(args)
        .output()
        .expect("the binary runs")
}

/// Writes `bytes` as `name` under the test's scratch directory.
fn file(name: &str, bytes: &[u8]) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, bytes).expect("scratch file");
    path.to_str().expect("UTF-8 path").to_string()
}

#[test]
fn a_file_that_is_not_a_trace_exits_1_with_one_line_and_a_missing_one_exits_2() {
    let good = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/zero_events.json");
    let text = std::fs::read(good).expect("fixture");
    let cut = file("exit_codes_cut.json", &text[..text.len() / 2]);
    let deep = file("exit_codes_deep.json", &[b'['; 200_000]);
    let missing = file("exit_codes_missing.json", b"");
    std::fs::remove_file(&missing).expect("scratch file");
    for (bad, reason) in [
        (&cut, "unterminated string"),
        (&deep, "nesting deeper than 128 at byte 128"),
    ] {
        let commands: [&[&str]; 7] = [
            &["summarize", bad],
            &["critpath", bad],
            &["audit", bad, "--s1", "1", "--depth", "1"],
            &["audit", good, bad, "--s1", "1", "--depth", "1"],
            &["check", bad],
            &["diff", bad, good],
            &["diff", good, bad],
        ];
        for args in commands {
            let out = ptdf_trace(args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            assert_eq!(stderr, format!("ptdf-trace: {bad}: {reason}\n"), "{args:?}");
        }
        // `validate` reports the same reason as a failed structure check.
        let out = ptdf_trace(&["validate", bad]);
        assert_eq!(out.status.code(), Some(1));
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            format!("structure   FAIL: {bad}: {reason}\n")
        );
    }
    let commands: [&[&str]; 6] = [
        &["summarize", &missing],
        &["critpath", &missing],
        &["validate", &missing],
        &["audit", &missing, "--s1", "1", "--depth", "1"],
        &["check", &missing],
        &["diff", good, &missing],
    ];
    for args in commands {
        let out = ptdf_trace(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("ptdf-trace: {missing}: ")),
            "{stderr}"
        );
    }
    // And a trace still answers 0.
    assert_eq!(ptdf_trace(&["summarize", good]).status.code(), Some(0));
}

#[test]
fn a_factor_that_is_not_a_finite_non_negative_number_is_a_usage_error() {
    let good = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/zero_events.json");
    for factor in ["inf", "nan", "-3"] {
        let out = ptdf_trace(&[
            "audit", good, "--s1", "1", "--depth", "1", "--factor", factor,
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--factor {factor}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert!(stderr.starts_with("ptdf-trace: --factor: "), "{stderr}");
    }
    let out = ptdf_trace(&["audit", good, "--s1", "1", "--depth", "1", "--factor", "4"]);
    assert_eq!(out.status.code(), Some(0), "--factor 4");
}

/// `audit` is the one space-bound verdict, and it does not round: a peak
/// of 2,580,480 B on 4 processors is half a byte over 2,580,479 + 0.125 *
/// 4 * 1. `validate` takes no bound.
#[test]
fn audit_compares_the_bound_without_rounding_and_validate_takes_none() {
    let mut trace = Trace::default();
    (trace.meta.scheduler, trace.meta.processors) = ("df".into(), 4);
    trace.counters.footprint.push((VirtTime::ZERO, 2_580_480));
    let path = file("exit_codes_hwm.json", trace.to_chrome_json().as_bytes());
    let bound = ["--s1", "2580479", "--depth", "1", "--factor", "0.125"];
    let out = ptdf_trace(&[&["audit", path.as_str()][..], &bound].concat());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains(": OVER [df/p4] hwm 2580480 B, bound 2580479 B"),
        "{stdout}"
    );
    assert!(stdout.ends_with("margin -1 B\n"), "{stdout}");
    let out = ptdf_trace(&[&["validate", path.as_str()][..], &bound].concat());
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(ptdf_trace(&["validate", &path]).status.code(), Some(0));
}

/// `explore --sched` takes every scheduler name the runtime has, and a
/// name it does not have is a usage error.
#[test]
fn explore_takes_every_scheduler_name() {
    for sched in ["fifo", "lifo", "df", "df-local", "df-deques", "ws"] {
        let out = ptdf_trace(&[
            "explore",
            "--litmus",
            "mutex_increments",
            "--sched",
            sched,
            "--depth",
            "2",
            "--budget",
            "50",
        ]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{sched}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.contains(&format!("executed under {sched} ")),
            "{stdout}"
        );
    }
    let out = ptdf_trace(&["explore", "--litmus", "mutex_increments", "--sched", "nope"]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "ptdf-trace: unknown scheduler `nope`\n"
    );
}

/// `explore` exits 1 on the known-buggy fixture, printing its minimal
/// prefix and the command that replays it, and 0 on the cancel programs,
/// which are clean under both cancel-delivery arms.
#[test]
fn explore_exits_1_on_a_violation_and_0_on_the_clean_cancel_programs() {
    let explore = |prog: &str| {
        ptdf_trace(&[
            "explore", "--litmus", prog, "--depth", "3", "--budget", "400",
        ])
    };
    let out = explore("buggy_grant_order");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("minimal prefix"), "{stdout}");
    assert!(stdout.contains("replay: ptdf-trace explore"), "{stdout}");
    for prog in [
        "cancel_lock_race",
        "cancel_cleanup_handler",
        "cancel_deadline_race",
        "cancel_disabled_section",
    ] {
        let out = explore(prog);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{prog}: {}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
