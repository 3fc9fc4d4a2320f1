//! Golden tables: a test renders a table from the code as it stands and
//! compares it line by line with a file committed under `tests/golden/`;
//! an ignored `bless` test rewrites the file.

use std::path::Path;

/// Panics unless `now` equals the committed table at `path`. The message
/// counts the rows that moved, quotes the first of them committed and now,
/// and ends with `advice`.
pub fn assert_unchanged(path: &str, now: &str, advice: &str) {
    let golden = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path}: {e} (generate it with `-- --ignored bless`)"));
    if now == golden {
        return;
    }
    let (want, got): (Vec<_>, Vec<_>) = (golden.lines().collect(), now.lines().collect());
    let moved: Vec<String> = want
        .iter()
        .zip(&got)
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("  committed {w}\n  now       {g}"))
        .collect();
    panic!(
        "{} of {} rows moved ({} rows now); first differences:\n{}\n{advice}",
        moved.len() + want.len().abs_diff(got.len()),
        want.len(),
        got.len(),
        moved[..moved.len().min(12)].join("\n")
    );
}

/// Rewrites the committed table at `path` with `now`.
pub fn bless(path: &str, now: &str) {
    let dir = Path::new(path)
        .parent()
        .expect("a golden table has a parent directory");
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    std::fs::write(path, now).unwrap_or_else(|e| panic!("{path}: {e}"));
}
