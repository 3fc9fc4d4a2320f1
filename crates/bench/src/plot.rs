//! Minimal dependency-free SVG line charts for the experiment tables.
//!
//! A [`crate::Table`] that is drawn declares its [`Chart`]s beside its
//! columns; [`crate::Table::finish`] writes each one as an SVG next to the
//! table's CSV.

use std::fmt::Write as _;

/// One line series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// (x, y) points in data coordinates.
    pub points: Vec<(f64, f64)>,
}

const PALETTE: [&str; 6] = [
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b",
];

const W: f64 = 640.0;
const H: f64 = 420.0;
const ML: f64 = 64.0; // margins
const MR: f64 = 18.0;
const MT: f64 = 40.0;
const MB: f64 = 52.0;

fn nice_ticks(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    if hi.partial_cmp(&lo) != Some(std::cmp::Ordering::Greater) {
        return vec![lo];
    }
    let raw = (hi - lo) / n as f64;
    let mag = 10f64.powf(raw.log10().floor());
    let step = [1.0, 2.0, 2.5, 5.0, 10.0]
        .iter()
        .map(|m| m * mag)
        .find(|&s| s >= raw)
        .unwrap_or(mag * 10.0);
    let start = (lo / step).floor() * step;
    let mut ticks = Vec::new();
    let mut t = start;
    while t <= hi + step * 0.001 {
        if t >= lo - step * 0.001 {
            ticks.push(t);
        }
        t += step;
    }
    ticks
}

fn fmt_tick(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 || v.fract().abs() < 1e-9 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Renders a line chart as a standalone SVG document.
pub fn line_chart(title: &str, xlabel: &str, ylabel: &str, series: &[Series]) -> String {
    let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut ymin, mut ymax) = (0.0f64, f64::NEG_INFINITY);
    for s in series {
        for &(x, y) in &s.points {
            xmin = xmin.min(x);
            xmax = xmax.max(x);
            ymin = ymin.min(y);
            ymax = ymax.max(y);
        }
    }
    if !xmin.is_finite() {
        xmin = 0.0;
        xmax = 1.0;
        ymax = 1.0;
    }
    if ymax <= ymin {
        ymax = ymin + 1.0;
    }
    ymax *= 1.05;
    let px = |x: f64| ML + (x - xmin) / (xmax - xmin).max(1e-12) * (W - ML - MR);
    let py = |y: f64| H - MB - (y - ymin) / (ymax - ymin) * (H - MT - MB);

    let mut svg = String::new();
    let _ = write!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" viewBox="0 0 {W} {H}" font-family="sans-serif">"#
    );
    let _ = write!(
        svg,
        r#"<rect width="{W}" height="{H}" fill="white"/><text x="{}" y="22" text-anchor="middle" font-size="15" font-weight="bold">{}</text>"#,
        W / 2.0,
        xml(title)
    );
    // Axes + grid.
    for t in nice_ticks(ymin, ymax, 5) {
        let y = py(t);
        let _ = write!(
            svg,
            r##"<line x1="{ML}" y1="{y:.1}" x2="{:.1}" y2="{y:.1}" stroke="#e0e0e0"/><text x="{:.1}" y="{:.1}" text-anchor="end" font-size="11">{}</text>"##,
            W - MR,
            ML - 6.0,
            y + 4.0,
            fmt_tick(t)
        );
    }
    for t in nice_ticks(xmin, xmax, 7) {
        let x = px(t);
        let _ = write!(
            svg,
            r##"<line x1="{x:.1}" y1="{MT}" x2="{x:.1}" y2="{:.1}" stroke="#f0f0f0"/><text x="{x:.1}" y="{:.1}" text-anchor="middle" font-size="11">{}</text>"##,
            H - MB,
            H - MB + 16.0,
            fmt_tick(t)
        );
    }
    let _ = write!(
        svg,
        r##"<line x1="{ML}" y1="{MT}" x2="{ML}" y2="{0:.1}" stroke="black"/><line x1="{ML}" y1="{0:.1}" x2="{1:.1}" y2="{0:.1}" stroke="black"/>"##,
        H - MB,
        W - MR
    );
    // Axis labels.
    let _ = write!(
        svg,
        r#"<text x="{:.1}" y="{:.1}" text-anchor="middle" font-size="12">{}</text>"#,
        (ML + W - MR) / 2.0,
        H - 12.0,
        xml(xlabel)
    );
    let _ = write!(
        svg,
        r#"<text x="16" y="{:.1}" text-anchor="middle" font-size="12" transform="rotate(-90 16 {:.1})">{}</text>"#,
        (MT + H - MB) / 2.0,
        (MT + H - MB) / 2.0,
        xml(ylabel)
    );
    // Series.
    for (i, s) in series.iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        let pts: String = s
            .points
            .iter()
            .map(|&(x, y)| format!("{:.1},{:.1} ", px(x), py(y)))
            .collect();
        let _ = write!(
            svg,
            r#"<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>"#
        );
        for &(x, y) in &s.points {
            let _ = write!(
                svg,
                r#"<circle cx="{:.1}" cy="{:.1}" r="3" fill="{color}"/>"#,
                px(x),
                py(y)
            );
        }
        // Legend.
        let ly = MT + 8.0 + i as f64 * 16.0;
        let _ = write!(
            svg,
            r#"<line x1="{:.1}" y1="{ly:.1}" x2="{:.1}" y2="{ly:.1}" stroke="{color}" stroke-width="2"/><text x="{:.1}" y="{:.1}" font-size="11">{}</text>"#,
            W - MR - 150.0,
            W - MR - 128.0,
            W - MR - 122.0,
            ly + 4.0,
            xml(&s.label)
        );
    }
    svg.push_str("</svg>");
    svg
}

fn xml(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// A line chart drawn from the columns of one table.
#[derive(Debug)]
pub struct Chart {
    /// SVG file stem.
    pub name: &'static str,
    /// Chart heading.
    pub title: &'static str,
    /// Axis labels, x then y.
    pub axes: (&'static str, &'static str),
    /// Column holding the x values.
    pub x: usize,
    /// Which columns become lines.
    pub lines: Lines,
}

/// How a [`Chart`] splits a table into lines.
#[derive(Debug, Clone, Copy)]
pub enum Lines {
    /// One line per listed column, labelled with its header.
    Columns(&'static [usize]),
    /// One line per distinct value of column `group`, with y from column
    /// `y`, in order of first appearance.
    GroupBy {
        /// Column whose value labels the line.
        group: usize,
        /// Column holding the y values.
        y: usize,
    },
}

impl Chart {
    /// Renders the chart over a table's `headers` and `rows`. A row whose
    /// x or y cell is not a number (a `serial` row) adds no point.
    pub(crate) fn svg(&self, headers: &[String], rows: &[Vec<String>]) -> String {
        let num = |row: &[String], col: usize| row[col].trim().parse::<f64>().ok();
        let point = |row: &[String], y: usize| Some((num(row, self.x)?, num(row, y)?));
        let series: Vec<Series> = match self.lines {
            Lines::Columns(ys) => ys
                .iter()
                .filter_map(|&y| {
                    let points: Vec<(f64, f64)> = rows.iter().filter_map(|r| point(r, y)).collect();
                    (!points.is_empty()).then(|| Series {
                        label: headers[y].clone(),
                        points,
                    })
                })
                .collect(),
            Lines::GroupBy { group, y } => {
                let mut series: Vec<Series> = Vec::new();
                for row in rows {
                    let Some(p) = point(row, y) else { continue };
                    match series.iter_mut().find(|s| s.label == row[group]) {
                        Some(s) => s.points.push(p),
                        None => series.push(Series {
                            label: row[group].clone(),
                            points: vec![p],
                        }),
                    }
                }
                series
            }
        };
        line_chart(self.title, self.axes.0, self.axes.1, &series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chart_is_valid_svg_with_all_series() {
        let svg = line_chart(
            "Title <x>",
            "p",
            "speedup",
            &[
                Series {
                    label: "fifo".into(),
                    points: vec![(1.0, 1.0), (2.0, 1.8), (4.0, 2.5)],
                },
                Series {
                    label: "df & co".into(),
                    points: vec![(1.0, 1.0), (2.0, 1.9), (4.0, 3.7)],
                },
            ],
        );
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains("Title &lt;x&gt;"), "XML escaping");
        assert!(svg.contains("df &amp; co"));
    }

    #[test]
    fn chart_lines_come_from_columns_or_groups() {
        let headers = ["sched", "p", "speedup"].map(String::from);
        let rows = [
            ["serial", "-", "1.00"],
            ["fifo", "1", "0.90"],
            ["df", "1", "1.00"],
            ["fifo", "2", "1.50"],
        ]
        .map(|r| r.map(String::from).to_vec());
        let svg = |lines| {
            let chart = Chart {
                name: "t",
                title: "t",
                axes: ("p", "speedup"),
                x: 1,
                lines,
            };
            chart.svg(&headers, &rows)
        };
        let grouped = svg(Lines::GroupBy { group: 0, y: 2 });
        assert_eq!(grouped.matches("<polyline").count(), 2, "no serial line");
        assert!(grouped.contains(">fifo</text>") && grouped.contains(">df</text>"));
        let columns = svg(Lines::Columns(&[2]));
        assert_eq!(columns.matches("<polyline").count(), 1);
        assert_eq!(columns.matches("<circle").count(), 3, "no serial point");
        assert!(columns.contains(">speedup</text>"));
    }

    #[test]
    fn nice_ticks_cover_range() {
        let t = nice_ticks(0.0, 8.3, 5);
        assert!(t.first().copied().unwrap() <= 0.0 + 1e-9);
        assert!(*t.last().unwrap() <= 8.3 + 1e-9);
        assert!(t.len() >= 3);
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        let svg = line_chart("t", "x", "y", &[]);
        assert!(svg.contains("</svg>"));
        let svg = line_chart(
            "t",
            "x",
            "y",
            &[Series {
                label: "one point".into(),
                points: vec![(3.0, 3.0)],
            }],
        );
        assert!(svg.contains("<circle"));
    }
}
