//! The figure registry pinned at quick size: every table of every figure,
//! title, headers and rows, against `tests/golden/figures.tsv`. A change
//! that moves a figure fails here, naming its table; when it moves them on
//! purpose, regenerate with
//!
//! ```text
//! cargo test -p ptdf-bench --test figures -- --ignored bless
//! ```
//!
//! and say which tables moved and why.

use ptdf_bench::figures::FIGURES;
use ptdf_bench::{full_scale, golden};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/figures.tsv"
);

fn table() -> String {
    assert!(
        !full_scale(),
        "the figure table is recorded at quick size: unset REPRO_FULL"
    );
    let mut out = String::from("# table\tcells\n");
    for fig in FIGURES {
        for t in (fig.tables)() {
            out.push_str(&t.tsv());
        }
    }
    out
}

#[test]
fn figures_match_the_committed_table() {
    golden::assert_unchanged(
        GOLDEN,
        &table(),
        "A refactor must not move a figure. If this change moves them on \
         purpose: cargo test -p ptdf-bench --test figures -- --ignored bless",
    );
}

#[test]
#[ignore = "rewrites tests/golden/figures.tsv from the code as it stands"]
fn bless() {
    golden::bless(GOLDEN, &table());
}
