//! Benchmark-side spans: one record per layer boundary the benchmark's own
//! code crosses (`input_gen`, `reference`, `run`, `verify`, `export`, ...).
//!
//! Spans are kept in memory and written out when the pass ends. A span's
//! *self time* is its duration minus the part its child spans cover, so the
//! self times of a tree sum exactly to the root's duration — that identity is
//! what the reconciliation table prints. With recording off (`Spans::off`,
//! every end-to-end pass) `scoped` is one branch and a call.

use std::time::Instant;

use ptdf::json::{obj, Value};

/// One recorded span. Times are host nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder for one pass (single host thread, so spans nest).
pub struct Spans {
    t0: Instant,
    on: bool,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn on() -> Self {
        Spans {
            t0: Instant::now(),
            on: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Spans {
            on: false,
            ..Spans::on()
        }
    }

    /// Runs `f` inside a span called `name` (a plain call when recording is
    /// off).
    pub fn scoped<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.t0.elapsed().as_nanos() as u64;
        out
    }

    pub fn to_json(&self, workload: &str) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    obj(vec![
                        ("name", Value::Str(s.name.into())),
                        ("workload", Value::Str(workload.into())),
                        ("start_ns", Value::UInt(s.start_ns)),
                        ("end_ns", Value::UInt(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: duration minus the duration of its direct
/// children (children of one parent never overlap on a single host thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Self time summed by span name over the subtree rooted at the first span
/// called `root`, in first-seen order; `None` when no such span exists.
pub fn self_by_name(spans: &[Span], root: &str) -> Option<Vec<(&'static str, u64)>> {
    let root_id = spans.iter().position(|s| s.name == root)?;
    let own = self_times(spans);
    let mut inside = vec![false; spans.len()];
    inside[root_id] = true;
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    // Spans are pushed at entry, so a parent always precedes its children.
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            inside[i] |= inside[p];
        }
        if inside[i] {
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some(slot) => slot.1 += own[i],
                None => out.push((s.name, own[i])),
            }
        }
    }
    Some(out)
}

/// Total duration of all spans called `name`.
pub fn total_named(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("run", 10, 70, Some(0)),
            span("engine", 20, 50, Some(1)),
            span("verify", 70, 95, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![15, 30, 30, 25]);
        // Self times of a tree tile the root exactly.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), spans[0].dur_ns());
    }

    #[test]
    fn self_by_name_merges_repeats_and_stays_in_the_subtree() {
        let spans = vec![
            span("setup", 0, 40, None),
            span("run", 5, 30, Some(0)),
            span("pass", 40, 100, None),
            span("run", 40, 60, Some(2)),
            span("run", 60, 90, Some(2)),
            span("verify", 65, 70, Some(4)),
        ];
        let by = self_by_name(&spans, "pass").unwrap();
        assert_eq!(by, vec![("pass", 10), ("run", 45), ("verify", 5)]);
        assert_eq!(by.iter().map(|(_, ns)| ns).sum::<u64>(), 60);
        assert_eq!(total_named(&spans, "run"), 75);
        assert!(self_by_name(&spans, "nope").is_none());
    }

    #[test]
    fn recorder_nests_and_off_records_nothing() {
        let mut s = Spans::on();
        let v = s.scoped("pass", |s| s.scoped("run", |_| 7));
        assert_eq!(v, 7);
        assert_eq!(s.spans.len(), 2);
        assert_eq!(s.spans[1].parent, Some(0));
        assert!(s.spans[0].start_ns <= s.spans[1].start_ns);
        assert!(s.spans[1].end_ns <= s.spans[0].end_ns);
        let mut off = Spans::off();
        assert_eq!(off.scoped("pass", |s| s.scoped("run", |_| 7)), 7);
        assert!(off.spans.is_empty());
    }
}
