//! `ptdf-trace`'s exit status on input that is not a trace: a file that
//! reads but does not parse is a failed check (exit 1, one `path: reason`
//! line) for every subcommand that takes traces; only a path that cannot be
//! read is an I/O error (exit 2). A `--factor` that is not a finite
//! non-negative number is a usage error, exit 2 as well. Drives the built
//! binary.

use std::path::PathBuf;
use std::process::{Command, Output};

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
    for cmd in ["validate", "audit"] {
        for factor in ["inf", "nan", "-3"] {
            let out = ptdf_trace(&[cmd, good, "--s1", "1", "--depth", "1", "--factor", factor]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(2),
                "{cmd} --factor {factor}: {stderr}"
            );
            assert_eq!(stderr.lines().count(), 1, "{stderr}");
            assert!(stderr.starts_with("ptdf-trace: --factor: "), "{stderr}");
        }
        let out = ptdf_trace(&[cmd, good, "--s1", "1", "--depth", "1", "--factor", "4"]);
        assert_eq!(out.status.code(), Some(0), "{cmd} --factor 4");
    }
}
