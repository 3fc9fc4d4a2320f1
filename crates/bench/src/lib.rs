//! Shared harness utilities for the experiments.
//!
//! Every table and figure of the paper is one entry of [`figures::FIGURES`]:
//! it runs the relevant benchmark under the relevant configurations and
//! returns [`Table`]s with the same rows/series the paper reports. The
//! `repro` bench target prints them as aligned text and writes a CSV (and
//! an SVG per declared chart) under `target/experiments/`.
//!
//! `REPRO_FULL=1` runs the paper's full problem sizes (slower). The default
//! sizes are scaled down so `cargo bench` completes quickly; the *shapes*
//! of the results are the same.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use ptdf_apps::{Bodies, Scale, Version};
use ptdf_dag::{Action, Program};

use plot::Chart;

pub mod figures;
pub mod golden;
pub mod plot;

pub use ptdf::{Config, CostModel, Report, SchedKind, SerialReport, VirtTime};

/// Cycles [`run_program`] charges per unit of `Action::Work`.
pub const CYCLES_PER_WORK_UNIT: u64 = 10_000;

/// Runs a fork-join [`Program`] on the real runtime under `cfg`: program
/// thread 0 is the root thread, `Fork(c)` spawns thread `c` and `Join(c)`
/// joins it, `Work(u)` charges `u ×` [`CYCLES_PER_WORK_UNIT`] cycles, and
/// `Alloc`/`Free` go through `rt_alloc`/`rt_free`. This is the one executor
/// of a `Program`; it panics on a program `ptdf_dag::validate` rejects.
pub fn run_program(prog: &Program, cfg: Config) -> Report {
    let prog = Rc::new(prog.clone());
    ptdf::run(cfg, move || exec_thread(&prog, 0)).1
}

fn exec_thread(prog: &Rc<Program>, t: usize) {
    let mut handles: HashMap<usize, ptdf::JoinHandle<()>> = HashMap::new();
    for &action in &prog.threads[t].actions {
        match action {
            Action::Work(u) => ptdf::work(u * CYCLES_PER_WORK_UNIT),
            Action::Alloc(b) => ptdf::rt_alloc(b),
            Action::Free(b) => ptdf::rt_free(b),
            Action::Fork(c) => {
                let prog = prog.clone();
                handles.insert(c, ptdf::spawn(move || exec_thread(&prog, c)));
            }
            Action::Join(c) => handles
                .remove(&c)
                .expect("join of a child this thread did not fork or already joined")
                .join(),
        }
    }
}

/// True when the paper's full problem sizes were requested.
pub fn full_scale() -> bool {
    std::env::var("REPRO_FULL").is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
}

/// The scale the figures run the apps at: the paper's under `REPRO_FULL=1`.
pub fn scale() -> Scale {
    if full_scale() {
        Scale::Paper
    } else {
        Scale::Small
    }
}

/// One run of an app's `version` under `cfg`: the way every harness runs
/// a registry body.
pub fn run_app(bodies: &Bodies, version: Version, cfg: Config) -> Report {
    let bodies = bodies.clone();
    ptdf::run(cfg, move || bodies(version)).1
}

/// An app's serial baseline under `cost`.
pub fn run_app_serial(bodies: &Bodies, cost: CostModel) -> SerialReport {
    ptdf::run_serial(cost, || bodies(Version::Serial)).1
}

/// A result table being accumulated.
pub struct Table {
    name: String,
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    charts: Vec<Chart>,
    note: String,
}

impl Table {
    /// Creates a table; `name` is the CSV file stem, `title` the heading.
    pub fn new(name: &str, title: &str, headers: &[&str]) -> Self {
        Table {
            name: name.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            charts: Vec::new(),
            note: String::new(),
        }
    }

    /// Declares a chart drawn from this table's columns.
    pub fn chart(mut self, chart: Chart) -> Self {
        self.charts.push(chart);
        self
    }

    /// Sets the note printed after the table: what the paper says it
    /// should show.
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }

    /// The CSV file stem.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The title, the headers and every row as golden-file lines: `# name:
    /// title`, then the cells of each line tab-separated after the name.
    pub fn tsv(&self) -> String {
        let mut out = format!("# {}: {}\n", self.name, self.title);
        for cells in std::iter::once(&self.headers).chain(&self.rows) {
            let _ = writeln!(out, "{}\t{}", self.name, cells.join("\t"));
        }
        out
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Prints the aligned table and writes the CSV and the charts to
    /// [`experiments_dir`]; returns the CSV path. Panics, naming the path,
    /// if a file cannot be written.
    pub fn finish(&self) -> PathBuf {
        self.finish_in(&experiments_dir())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Table::finish`] with the files written to `dir`; the error names
    /// the path that could not be written.
    pub fn finish_in(&self, dir: &Path) -> io::Result<PathBuf> {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n=== {} ===", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        println!("{out}");
        let write = |path: &Path, body: String| {
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(path, body))
                .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))
        };
        let path = dir.join(format!("{}.csv", self.name));
        let mut csv = csv_line(&self.headers);
        for row in &self.rows {
            csv.push_str(&csv_line(row));
        }
        write(&path, csv)?;
        println!("[csv written to {}]", path.display());
        for chart in &self.charts {
            let svg = dir.join(format!("{}.svg", chart.name));
            write(&svg, chart.svg(&self.headers, &self.rows))?;
            println!("[svg written to {}]", svg.display());
        }
        if !self.note.is_empty() {
            println!("{}", self.note);
        }
        Ok(path)
    }
}

/// Directory the CSVs are written to: `target/experiments/` at the
/// workspace root (stable regardless of the CWD cargo gives the bench
/// binary), overridable with `REPRO_OUT`.
pub fn experiments_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("REPRO_OUT") {
        return PathBuf::from(dir);
    }
    // CARGO_MANIFEST_DIR (compile-time) = <workspace>/crates/bench.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(|ws| ws.join("target/experiments"))
        .unwrap_or_else(|| PathBuf::from("target/experiments"))
}

/// Serializes one CSV record, quoting fields that contain commas, quotes,
/// or newlines (RFC 4180).
fn csv_line(cells: &[String]) -> String {
    let mut out = String::new();
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if c.contains([',', '"', '\n']) {
            out.push('"');
            out.push_str(&c.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(c);
        }
    }
    out.push('\n');
    out
}

/// Standard note printed before the figures about the methodology.
pub fn methodology_note() {
    println!(
        "[virtual-time SMP model calibrated to a 167 MHz UltraSPARC / Solaris 2.5; \
         see DESIGN.md — shapes, not absolute hardware times, are the claim]"
    );
    if !full_scale() {
        println!("[scaled-down default sizes; set REPRO_FULL=1 for the paper's sizes]");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_quotes_fields_with_commas_and_quotes() {
        let line = csv_line(&["plain".into(), "has, comma".into(), "has \"quote\"".into()]);
        assert_eq!(line, "plain,\"has, comma\",\"has \"\"quote\"\"\"\n");
    }

    #[test]
    fn table_writes_csv_with_all_rows() {
        let dir = std::env::temp_dir().join("ptdf_table_test");
        let mut t = Table::new("unit_test_table", "t", &["a", "b"]);
        t.row(vec!["1".into(), "x, y".into()]);
        t.row(vec!["2".into(), "z".into()]);
        let path = t.finish_in(&dir).unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert_eq!(body, "a,b\n1,\"x, y\"\n2,z\n");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn finish_in_reports_a_csv_it_could_not_write() {
        let file = std::env::temp_dir().join("ptdf_table_test_not_a_dir");
        std::fs::write(&file, "").unwrap();
        let dir = file.join("experiments");
        let err = Table::new("unwritable", "t", &["a"])
            .finish_in(&dir)
            .unwrap_err();
        assert!(err.to_string().contains(&*dir.to_string_lossy()), "{err}");
        let _ = std::fs::remove_file(file);
    }

    #[test]
    fn experiments_dir_is_workspace_rooted() {
        let d = experiments_dir();
        assert!(d.ends_with("target/experiments"), "{d:?}");
        assert!(!d.to_string_lossy().contains("crates"), "{d:?}");
    }
}
