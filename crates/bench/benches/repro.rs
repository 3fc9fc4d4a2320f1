//! Regenerates the paper's figures: every entry of the figure registry, or
//! the ids given after `--`. Prints each table and writes its CSV and
//! charts under `target/experiments/` (`REPRO_OUT` overrides).
//!
//! ```text
//! cargo bench -p ptdf-bench --bench repro [-- fig07_matmul_sched ...]
//! ```

use ptdf_bench::figures::FIGURES;

fn main() {
    // `cargo bench` passes `--bench` to a harness-less target.
    let ids: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    if let Some(bad) = ids.iter().find(|id| FIGURES.iter().all(|f| f.id != *id)) {
        let known: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        eprintln!(
            "repro: no figure `{bad}`; the figures are {}",
            known.join(", ")
        );
        std::process::exit(2);
    }
    ptdf_bench::methodology_note();
    for fig in FIGURES
        .iter()
        .filter(|f| ids.is_empty() || ids.iter().any(|id| id == f.id))
    {
        println!("\n##### {}", fig.id);
        for table in (fig.tables)() {
            table.finish();
        }
    }
    println!(
        "\nAll CSVs and SVG figures are in {}. See EXPERIMENTS.md for the\n\
         paper-vs-measured record.",
        ptdf_bench::experiments_dir().display()
    );
}
