//! `ptdf-trace`: inspect flight-recorder traces.
//!
//! The runtime's flight recorder ([`ptdf::Trace`], enabled with
//! [`ptdf::Config::with_trace`]) exports Chrome/Perfetto trace-event JSON.
//! This tool reads those files back (they round-trip losslessly through
//! `Trace::from_chrome_json`) and offers six subcommands:
//!
//! * `summarize <trace.json>` — configuration echo, span/event tallies,
//!   counter-track maxima, per-thread lifecycle percentiles
//!   (spawn→first-dispatch latency, ready-wait), a cancellation tally
//!   (eager evictions from sync-object waits vs. deliveries at
//!   cancellation points), per-object blocked time
//!   (top waits by cumulative duration), and — when the run was profiled
//!   with [`ptdf::Config::with_host_profile`] — the host engine phase
//!   table (heap/dispatch/trace-alloc counts and real-nanosecond shares).
//! * `critpath <trace.json> [--top N] [--json] [--perfetto OUT]` — walk
//!   the observed critical path backwards through the trace's causal
//!   edges ([`ptdf::analyze_with_makespan`]) and report blame buckets
//!   (compute, ready-wait, lock contention per sync object, join wait,
//!   preemption, residual) as percentages of the makespan, naming the
//!   dominant bucket and the top-N blamed objects and threads. The
//!   buckets sum bit-exactly to the makespan — the tool re-verifies this
//!   and exits 1 on a mismatch. `--perfetto` re-exports the trace with
//!   the path overlaid as a dedicated track (pid 1).
//! * `validate <trace.json>` — the file must parse as a trace document (a
//!   truncated or garbled one fails with a one-line reason), then
//!   structural checks (span overlap, event ordering, counter
//!   monotonicity, lifecycle consistency).
//! * `audit <trace.json>... --s1 B --depth B [--factor F]` — the one
//!   space-bound verdict, against the paper's `S1 + O(p·D)` guarantee:
//!   with `--s1` (serial footprint, bytes) and `--depth` (per-processor
//!   depth allowance, bytes) each trace's footprint high-water mark must
//!   stay within `S1 + factor·p·D`, compared exactly. Reports the
//!   *margin* per trace (how far under — or over — the largest whole byte
//!   count within that bound the run peaked), along with any
//!   bound-violation events the runtime itself recorded when armed via
//!   [`ptdf::Config::with_space_bound`].
//! * `check <trace.json>...` — run the happens-before checker
//!   ([`ptdf::check_trace`]) over each trace: lost notifies/wakeups,
//!   wait-past-notify, block/wake pairing, lifecycle inversions, and
//!   deadlocks the sentinel recorded (rendered as
//!   `deadlock at <t>: waits-for cycle t1 -> t2 -> ... -> t1`). Prints a
//!   replay recipe (`--sched <policy> [--perturb-seed <s>] [--chaos-seed
//!   <c>]`) for any trace recorded under perturbation or chaos.
//! * `diff <a.json> <b.json>` — side-by-side comparison of two traces
//!   (schedulers, footprint, event counts, latency percentiles), plus —
//!   when both traces recorded their scheduling-decision logs — the
//!   *decision-prefix divergence*: the first scheduling decision where
//!   the two runs split, which is the root cause of every event-level
//!   difference downstream of it.
//! * `explore --litmus <name|all> [...]` — run the DPOR schedule
//!   explorer ([`fn@ptdf::explore`]) over a built-in litmus program
//!   ([`fn@ptdf::litmus`]), printing the pruning statistics and a minimal
//!   replayable decision prefix for every violation class; `--replay`
//!   re-executes a single counter-example prefix bit-exactly.
//!
//! Exit status: 0 on success; 1 on a failed validation/audit, a found
//! violation, or — for every subcommand that reads traces — a file that
//! reads but is not a trace document (one `path: reason` line); 2 on usage
//! or I/O errors.

use std::process::ExitCode;

use ptdf::Trace;
use ptdf_smp::VirtTime;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("summarize") => cmd_summarize(&args[1..]),
        Some("critpath") => cmd_critpath(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("audit") => cmd_audit(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("explore") => cmd_explore(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            eprint!("{USAGE}");
            Ok(ExitCode::from(if args.is_empty() { 2 } else { 0 }))
        }
        Some(other) => Err(format!("unknown subcommand `{other}`\n{USAGE}").into()),
    };
    match code {
        Ok(c) => c,
        Err(failure) => {
            let (msg, code) = match failure {
                Failure::Usage(msg) => (msg, 2),
                Failure::NotATrace(msg) => (msg, 1),
            };
            eprintln!("ptdf-trace: {msg}");
            ExitCode::from(code)
        }
    }
}

/// Why a subcommand stopped before its own verdict.
#[derive(Debug)]
enum Failure {
    /// Bad usage or an I/O error: exit 2.
    Usage(String),
    /// A file that was read but is not a trace document (`path: reason`).
    /// That is an answer about the input, not a failure to get at it:
    /// exit 1, like any other check the input fails.
    NotATrace(String),
}

impl<S: Into<String>> From<S> for Failure {
    fn from(msg: S) -> Self {
        Failure::Usage(msg.into())
    }
}

const USAGE: &str = "\
usage: ptdf-trace <command> [args]

commands:
  summarize <trace.json>
      Print configuration, span/event tallies, counter maxima,
      per-thread lifecycle percentiles, the cancellation tally,
      per-object blocked time, and the host engine phase profile when
      the run recorded one.
  critpath <trace.json> [--top N] [--json] [--perfetto OUT]
      Blame-attributed observed critical path: per-bucket shares of
      the makespan (compute, ready-wait, lock-wait, join-wait,
      preempt, residual), the dominant bucket, and the top-N blamed
      sync objects and threads. --json emits the full path as JSON;
      --perfetto writes a Chrome/Perfetto file with the path overlaid
      as its own track. Exits 1 if the buckets fail to tile the
      makespan exactly.
  validate <trace.json>
      Structural validation (a file that does not parse as a trace
      fails it).
  audit <trace.json>... --s1 BYTES --depth BYTES [--factor F]
      Space-bound audit with margin: for each trace, compare the
      footprint high-water mark against S1 + factor * p * depth
      (factor: finite, >= 0, default 1.0) without rounding, and print
      the largest whole byte count within it and the margin to that
      (negative = over). Also reports bound-violation events the
      runtime recorded when the run was armed with
      Config::with_space_bound. Exits 1 if any trace is over the bound.
  check <trace.json>...
      Happens-before checking: lost notifies/wakeups, wait-past-notify,
      block/wake pairing, lifecycle inversions, recorded deadlock
      cycles. Exits 1 if any trace has violations; prints the replay
      recipe when one is recorded.
  diff <a.json> <b.json>
      Compare two traces side by side. When both traces carry a
      recorded decision log, also reports the first diverging
      scheduling decision (the decision-prefix divergence point) —
      the exact moment the two schedules split, rather than just the
      first differing event downstream of it.
  explore --litmus <name|all> [--sched POLICY] [--depth K] [--budget N]
          [--procs P] [--replay i,j,...] [--json]
      Systematic schedule exploration (DPOR) of a litmus program from
      the built-in corpus (ptdf::litmus). Prints schedules executed,
      states pruned, the pruning ratio, and — for every violation
      class found — the minimal decision prefix that reproduces it.
      --replay executes exactly one schedule from the given
      comma-separated decision prefix instead of exploring. Exits 1 if
      a violation was found (or the replayed schedule violates), 0 if
      the space is clean.
";

fn load(path: &str) -> Result<Trace, Failure> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Trace::from_chrome_json(&text).map_err(|e| Failure::NotATrace(format!("{path}: {e}")))
}

// ---------------------------------------------------------------------------
// summarize
// ---------------------------------------------------------------------------

fn cmd_summarize(args: &[String]) -> Result<ExitCode, Failure> {
    let [path] = args else {
        return Err(format!("summarize expects one trace file\n{USAGE}").into());
    };
    let trace = load(path)?;
    print!("{}", summarize(&trace));
    Ok(ExitCode::SUCCESS)
}

/// Renders the human-readable summary of a trace.
fn summarize(trace: &Trace) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let m = &trace.meta;
    let quota = m
        .quota
        .map(|k| format!(", quota {k} B"))
        .unwrap_or_default();
    let _ = writeln!(
        out,
        "scheduler {} on {} procs (default stack {} B{quota})",
        m.scheduler, m.processors, m.default_stack
    );

    let makespan = trace
        .spans
        .iter()
        .map(|s| s.end)
        .max()
        .unwrap_or(VirtTime::ZERO);
    let _ = writeln!(out, "makespan   {makespan}");
    let _ = writeln!(out, "spans      {}", trace.len());

    let _ = writeln!(out, "events     {}", trace.events.len());
    for (kind, count) in trace.event_kind_counts() {
        let _ = writeln!(out, "  {kind:<15} {count}");
    }

    let _ = writeln!(out, "counters");
    let _ = writeln!(
        out,
        "  footprint hwm   {} B ({} samples)",
        trace.footprint_hwm(),
        trace.counters.footprint.len()
    );
    let _ = writeln!(
        out,
        "  live threads    {} max ({} samples)",
        trace.max_live_threads(),
        trace.counters.live_threads.len()
    );
    let ready_max = track_max(&trace.counters.ready);
    let _ = writeln!(
        out,
        "  ready queue     {} max ({} samples)",
        ready_max,
        trace.counters.ready.len()
    );
    if !trace.counters.active_deques.is_empty() {
        let _ = writeln!(
            out,
            "  active deques   {} max ({} samples)",
            track_max(&trace.counters.active_deques),
            trace.counters.active_deques.len()
        );
    }
    if let Some(&(_, wait)) = trace.counters.sched_lock_wait.last() {
        let _ = writeln!(
            out,
            "  sched-lock wait {} cumulative",
            VirtTime::from_ns(wait)
        );
    }

    let lc = trace.lifecycle();
    let _ = writeln!(
        out,
        "threads    {} ({} quanta total)",
        lc.threads, lc.total_quanta
    );
    let _ = writeln!(
        out,
        "  dispatch latency p50 {} / p90 {} / p99 {} / max {}  (n={})",
        lc.dispatch_latency.p50,
        lc.dispatch_latency.p90,
        lc.dispatch_latency.p99,
        lc.dispatch_latency.max,
        lc.dispatch_latency.count
    );
    let _ = writeln!(
        out,
        "  ready wait       p50 {} / p90 {} / p99 {} / max {}  (n={})",
        lc.ready_wait.p50,
        lc.ready_wait.p90,
        lc.ready_wait.p99,
        lc.ready_wait.max,
        lc.ready_wait.count
    );

    // Cancellations: the third sanctioned wake. `obj` names the sync
    // object the victim was parked on when an eager cancel-wake evicted
    // it; `None` covers join-wait evictions and deliveries a running
    // thread picked up at its next cancellation point.
    let cancels: Vec<(Option<u32>, Option<u32>)> = trace
        .events
        .iter()
        .filter_map(|e| match e.kind {
            ptdf::trace::EventKind::Cancel { obj, by } => Some((obj, by)),
            _ => None,
        })
        .collect();
    if !cancels.is_empty() {
        let evicted = cancels.iter().filter(|(obj, _)| obj.is_some()).count();
        let _ = writeln!(
            out,
            "cancellations {} ({} evicted from sync-object waits, {} at join waits or cancellation points)",
            cancels.len(),
            evicted,
            cancels.len() - evicted
        );
    }

    // Per-object blocked time: every Block..Wake/Timeout/Cancel pairing in
    // the trace, aggregated per sync object, heaviest first.
    let waits = ptdf::object_waits(trace);
    if !waits.is_empty() {
        let shown = waits.len().min(5);
        let _ = writeln!(
            out,
            "blocked time by object (top {shown} of {})",
            waits.len()
        );
        for w in waits.iter().take(shown) {
            let _ = writeln!(
                out,
                "  {:<10} #{:<4} total {} over {} wait(s), max {}",
                w.reason.name(),
                w.obj,
                w.total,
                w.waits,
                w.max
            );
        }
    }

    // Host engine phase profile, when the run carried one
    // (Config::with_host_profile). These are real host nanoseconds, not
    // virtual time.
    if let Some(hp) = &trace.host_phase {
        let total = hp.total_ns().max(1);
        let _ = writeln!(out, "host phases (profiled, {} ns total)", hp.total_ns());
        for (name, ps) in hp.phases() {
            let _ = writeln!(
                out,
                "  {name:<12} {:>9} calls  {:>12} ns ({:>5.1}%)  mean {:.0} ns",
                ps.count,
                ps.ns,
                ps.ns as f64 * 100.0 / total as f64,
                ps.mean_ns()
            );
        }
    }
    out
}

fn track_max(track: &[(VirtTime, u64)]) -> u64 {
    track.iter().map(|&(_, v)| v).max().unwrap_or(0)
}

// ---------------------------------------------------------------------------
// critpath
// ---------------------------------------------------------------------------

fn cmd_critpath(args: &[String]) -> Result<ExitCode, Failure> {
    let mut path = None;
    let mut top = 5usize;
    let mut json = false;
    let mut perfetto = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--top" => {
                top = it
                    .next()
                    .ok_or("--top expects a value")?
                    .parse()
                    .map_err(|e| format!("--top: {e}"))?
            }
            "--json" => json = true,
            "--perfetto" => {
                perfetto = Some(
                    it.next()
                        .ok_or("--perfetto expects an output path")?
                        .to_string(),
                )
            }
            other if path.is_none() && !other.starts_with("--") => path = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`\n{USAGE}").into()),
        }
    }
    let path = path.ok_or_else(|| format!("critpath expects a trace file\n{USAGE}"))?;
    let trace = load(&path)?;
    let cp = ptdf::critpath::analyze(&trace);

    // The analyzer's contract: buckets tile [0, makespan] bit-exactly. A
    // mismatch means a corrupt trace (or an analyzer bug) — fail loudly.
    if cp.blame.sum() != cp.makespan {
        eprintln!(
            "{path}: blame buckets sum to {} but the makespan is {} — trace is \
             inconsistent",
            cp.blame.sum(),
            cp.makespan
        );
        return Ok(ExitCode::FAILURE);
    }

    if let Some(out_path) = &perfetto {
        std::fs::File::create(out_path)
            .and_then(|mut file| trace.write_chrome_json_with_critpath(&cp, &mut file))
            .map_err(|e| format!("{out_path}: {e}"))?;
        eprintln!("wrote critical-path overlay to {out_path}");
    }

    if json {
        println!("{}", critpath_json(&cp).to_json());
    } else {
        print!("{}", render_critpath(&path, &cp, top));
    }
    Ok(ExitCode::SUCCESS)
}

/// Renders the human-readable blame report for one trace's critical path.
fn render_critpath(path: &str, cp: &ptdf::CritPath, top: usize) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    if cp.empty {
        let _ = writeln!(
            out,
            "{path}: empty trace (no spans); makespan {}",
            cp.makespan
        );
        return out;
    }
    let _ = writeln!(
        out,
        "{path}: makespan {} over {} path segment(s)",
        cp.makespan,
        cp.segments.len()
    );
    let total = cp.makespan.as_ns().max(1);
    for (name, v) in cp.blame.named() {
        let _ = writeln!(
            out,
            "  {name:<11} {:>6.2}%  {v}",
            v.as_ns() as f64 * 100.0 / total as f64
        );
    }
    let (dom, dv) = cp.blame.dominant();
    let _ = writeln!(
        out,
        "dominant: {dom} ({:.2}% of makespan)",
        dv.as_ns() as f64 * 100.0 / total as f64
    );

    if !cp.objects.is_empty() {
        let shown = cp.objects.len().min(top);
        let _ = writeln!(out, "blamed objects (top {shown} of {})", cp.objects.len());
        for o in cp.objects.iter().take(shown) {
            let id = o.obj.map(|o| format!("#{o}")).unwrap_or_else(|| "-".into());
            let _ = writeln!(
                out,
                "  {:<10} {id:<5} {} on path over {} segment(s)",
                o.reason.name(),
                o.wait,
                o.segments
            );
        }
    }
    if !cp.threads.is_empty() {
        let shown = cp.threads.len().min(top);
        let _ = writeln!(out, "on-path threads (top {shown} of {})", cp.threads.len());
        for t in cp.threads.iter().take(shown) {
            let _ = writeln!(
                out,
                "  t{:<5} {} on path ({} compute) over {} segment(s)",
                t.thread, t.on_path, t.compute, t.segments
            );
        }
    }
    out
}

/// Builds the machine-readable form of a critical path.
fn critpath_json(cp: &ptdf::CritPath) -> ptdf::json::Value {
    use ptdf::json::{obj, Value};
    let blame = obj(cp
        .blame
        .named()
        .iter()
        .map(|&(n, v)| (n, Value::UInt(v.as_ns())))
        .collect());
    let segments = Value::Arr(
        cp.segments
            .iter()
            .map(|s| {
                let mut members = vec![
                    (
                        "thread",
                        s.thread
                            .map(|t| Value::UInt(t as u64))
                            .unwrap_or(Value::Null),
                    ),
                    ("startNs", Value::UInt(s.start.as_ns())),
                    ("endNs", Value::UInt(s.end.as_ns())),
                    ("bucket", Value::Str(s.bucket.name().into())),
                ];
                if let ptdf::BlameBucket::LockWait { reason, obj: o } = s.bucket {
                    members.push(("reason", Value::Str(reason.name().into())));
                    if let Some(o) = o {
                        members.push(("obj", Value::UInt(o as u64)));
                    }
                }
                obj(members)
            })
            .collect(),
    );
    let objects = Value::Arr(
        cp.objects
            .iter()
            .map(|o| {
                obj(vec![
                    ("reason", Value::Str(o.reason.name().into())),
                    (
                        "obj",
                        o.obj.map(|o| Value::UInt(o as u64)).unwrap_or(Value::Null),
                    ),
                    ("waitNs", Value::UInt(o.wait.as_ns())),
                    ("segments", Value::UInt(o.segments)),
                ])
            })
            .collect(),
    );
    let threads = Value::Arr(
        cp.threads
            .iter()
            .map(|t| {
                obj(vec![
                    ("thread", Value::UInt(t.thread as u64)),
                    ("onPathNs", Value::UInt(t.on_path.as_ns())),
                    ("computeNs", Value::UInt(t.compute.as_ns())),
                    ("segments", Value::UInt(t.segments)),
                ])
            })
            .collect(),
    );
    obj(vec![
        ("empty", Value::Bool(cp.empty)),
        ("makespanNs", Value::UInt(cp.makespan.as_ns())),
        ("blameNs", blame),
        ("dominant", Value::Str(cp.blame.dominant().0.into())),
        ("segments", segments),
        ("objects", objects),
        ("threads", threads),
    ])
}

// ---------------------------------------------------------------------------
// validate
// ---------------------------------------------------------------------------

fn cmd_validate(args: &[String]) -> Result<ExitCode, Failure> {
    let path = match args {
        [path] if !path.starts_with("--") => path,
        _ => return Err(format!("validate expects one trace file\n{USAGE}").into()),
    };
    // A file that is not a trace document has failed validation, and is
    // reported like the other checks.
    let trace = match load(path) {
        Ok(trace) => trace,
        Err(Failure::NotATrace(reason)) => {
            println!("structure   FAIL: {reason}");
            return Ok(ExitCode::FAILURE);
        }
        Err(other) => return Err(other),
    };

    match trace.validate() {
        Ok(()) => {
            println!(
                "structure   ok ({} spans, {} events)",
                trace.len(),
                trace.events.len()
            );
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            println!("structure   FAIL: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn parse_flag_u64(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<u64, String> {
    it.next()
        .ok_or_else(|| format!("{flag} expects a value"))?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))
}

/// `--factor`'s value: a finite, non-negative multiplier of `p · depth`. An
/// infinite, NaN or negative one would turn the bound into a saturated or
/// zero byte count and every verdict into a silent wrong answer.
fn parse_flag_factor(it: &mut std::slice::Iter<'_, String>) -> Result<f64, String> {
    let factor: f64 = it
        .next()
        .ok_or("--factor expects a value")?
        .parse()
        .map_err(|e| format!("--factor: {e}"))?;
    if factor.is_finite() && factor >= 0.0 {
        Ok(factor)
    } else {
        Err(format!(
            "--factor: expected a finite number >= 0, got {factor}"
        ))
    }
}

// ---------------------------------------------------------------------------
// audit
// ---------------------------------------------------------------------------

fn cmd_audit(args: &[String]) -> Result<ExitCode, Failure> {
    let mut paths = Vec::new();
    let mut s1 = None;
    let mut depth = None;
    let mut factor = 1.0f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--s1" => s1 = Some(parse_flag_u64(&mut it, "--s1")?),
            "--depth" => depth = Some(parse_flag_u64(&mut it, "--depth")?),
            "--factor" => factor = parse_flag_factor(&mut it)?,
            other if !other.starts_with("--") => paths.push(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`\n{USAGE}").into()),
        }
    }
    if paths.is_empty() {
        return Err(format!("audit expects at least one trace file\n{USAGE}").into());
    }
    let s1 = s1.ok_or_else(|| format!("audit requires --s1\n{USAGE}"))?;
    let depth = depth.ok_or_else(|| format!("audit requires --depth\n{USAGE}"))?;

    let mut over = false;
    for path in &paths {
        let trace = load(path)?;
        let (rendered, ok) = audit(path, &trace, s1, depth, factor);
        print!("{rendered}");
        over |= !ok;
    }
    Ok(if over {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Renders one trace's margin-to-bound report. Returns the text and whether
/// the trace stayed within `S1 + factor·p·depth`. The footprint is whole
/// bytes, so the bound printed is the largest whole byte count within that
/// sum (its floor, never its rounding): verdict and margin agree.
fn audit(path: &str, trace: &Trace, s1: u64, depth: u64, factor: f64) -> (String, bool) {
    use std::fmt::Write;
    let hwm = trace.footprint_hwm();
    let p = trace.meta.processors as u64;
    let bound = (s1 as f64 + factor * p as f64 * depth as f64).floor() as u64;
    let margin = bound as i128 - hwm as i128;
    let ok = hwm <= bound;
    let verdict = if ok { "ok" } else { "OVER" };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{path}: {verdict} [{}/p{p}] hwm {hwm} B, bound {bound} B \
         (S1 {s1} + {factor} * p * D {depth}), margin {margin:+} B",
        trace.meta.scheduler
    );

    // Excursions the runtime itself observed, when the run was armed with
    // Config::with_space_bound (its limit may differ from the CLI's terms).
    let recorded: Vec<&ptdf::trace::Event> = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, ptdf::trace::EventKind::BoundViolation { .. }))
        .collect();
    for e in &recorded {
        if let ptdf::trace::EventKind::BoundViolation { footprint, bound } = e.kind {
            let _ = writeln!(
                out,
                "  runtime bound crossed at {}: footprint {footprint} B > armed bound {bound} B",
                e.at
            );
        }
    }
    (out, ok)
}

// ---------------------------------------------------------------------------
// check
// ---------------------------------------------------------------------------

fn cmd_check(args: &[String]) -> Result<ExitCode, Failure> {
    if args.is_empty() {
        return Err(format!("check expects at least one trace file\n{USAGE}").into());
    }
    let mut dirty = false;
    for path in args {
        let trace = load(path)?;
        let report = ptdf::check_trace(&trace);
        print!("{}", render_check(path, &report));
        dirty |= !report.is_clean();
    }
    Ok(if dirty {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Renders one trace's checker verdict.
fn render_check(path: &str, report: &ptdf::CheckReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    if report.is_clean() {
        let _ = writeln!(
            out,
            "{path}: clean ({} events, {} threads)",
            report.events, report.threads
        );
    } else {
        let _ = writeln!(
            out,
            "{path}: {} violation(s) in {} events across {} threads",
            report.violations.len(),
            report.events,
            report.threads
        );
        for v in &report.violations {
            let _ = writeln!(out, "  {v}");
        }
        match &report.replay {
            Some(recipe) => {
                let _ = writeln!(out, "  replay: {recipe}");
            }
            None => {
                let _ = writeln!(
                    out,
                    "  replay: trace was not recorded under perturbation \
                     (re-run with Config::with_perturbation)"
                );
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------------

fn cmd_diff(args: &[String]) -> Result<ExitCode, Failure> {
    let [a, b] = args else {
        return Err(format!("diff expects two trace files\n{USAGE}").into());
    };
    let ta = load(a)?;
    let tb = load(b)?;
    print!("{}", diff(&ta, &tb));
    Ok(ExitCode::SUCCESS)
}

/// Renders the side-by-side comparison of two traces.
fn diff(a: &Trace, b: &Trace) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>14} {:>14} {:>12}",
        "metric", "A", "B", "delta"
    );
    let row = |out: &mut String, name: &str, va: u64, vb: u64| {
        let delta = vb as i128 - va as i128;
        let _ = writeln!(out, "{name:<18} {va:>14} {vb:>14} {delta:>+12}");
    };
    let _ = writeln!(
        out,
        "{:<18} {:>14} {:>14}",
        "scheduler", a.meta.scheduler, b.meta.scheduler
    );
    row(
        &mut out,
        "processors",
        a.meta.processors as u64,
        b.meta.processors as u64,
    );
    let span_end = |t: &Trace| t.spans.iter().map(|s| s.end.as_ns()).max().unwrap_or(0);
    row(&mut out, "makespan ns", span_end(a), span_end(b));
    row(&mut out, "spans", a.len() as u64, b.len() as u64);
    row(
        &mut out,
        "events",
        a.events.len() as u64,
        b.events.len() as u64,
    );
    row(
        &mut out,
        "footprint hwm B",
        a.footprint_hwm(),
        b.footprint_hwm(),
    );
    row(
        &mut out,
        "live threads max",
        a.max_live_threads(),
        b.max_live_threads(),
    );
    row(
        &mut out,
        "ready max",
        track_max(&a.counters.ready),
        track_max(&b.counters.ready),
    );

    // Union of event kinds, in name order (event_kind_counts is sorted).
    let ca = a.event_kind_counts();
    let cb = b.event_kind_counts();
    let mut kinds: Vec<&str> = ca.iter().chain(cb.iter()).map(|&(k, _)| k).collect();
    kinds.sort_unstable();
    kinds.dedup();
    let count =
        |c: &[(&str, u64)], k: &str| c.iter().find(|&&(n, _)| n == k).map_or(0, |&(_, v)| v);
    for k in kinds {
        row(&mut out, &format!("  {k}"), count(&ca, k), count(&cb, k));
    }

    let la = a.lifecycle();
    let lb = b.lifecycle();
    row(&mut out, "threads", la.threads, lb.threads);
    row(&mut out, "quanta", la.total_quanta, lb.total_quanta);
    row(
        &mut out,
        "dispatch p50 ns",
        la.dispatch_latency.p50.as_ns(),
        lb.dispatch_latency.p50.as_ns(),
    );
    row(
        &mut out,
        "ready-wait p50 ns",
        la.ready_wait.p50.as_ns(),
        lb.ready_wait.p50.as_ns(),
    );
    row(
        &mut out,
        "decisions",
        a.decisions.len() as u64,
        b.decisions.len() as u64,
    );
    let _ = write!(out, "{}", diff_decisions(a, b));
    out
}

/// Renders the decision-prefix divergence between two traces: the first
/// scheduling decision where the runs split. Event-level differences are
/// *downstream symptoms* of this point — two runs of the same program
/// under the same policy diverge at a decision first, so reporting it
/// beats reporting the first differing event.
fn diff_decisions(a: &Trace, b: &Trace) -> String {
    use std::fmt::Write;
    let (da, db) = (&a.decisions, &b.decisions);
    let mut out = String::new();
    if da.is_empty() && db.is_empty() {
        return out;
    }
    let split = da
        .iter()
        .zip(db.iter())
        .position(|(x, y)| x != y)
        .or_else(|| (da.len() != db.len()).then(|| da.len().min(db.len())));
    match split {
        None => {
            let _ = writeln!(
                out,
                "decision logs identical ({} decisions): same schedule",
                da.len()
            );
        }
        Some(i) => {
            let _ = writeln!(out, "decision prefix diverges at decision {i}:");
            let side = |out: &mut String, tag: &str, d: Option<&ptdf::Decision>| {
                let _ = match d {
                    Some(d) => writeln!(
                        out,
                        "  {tag}: {} at t={} chose {} of {} candidate(s){}",
                        d.kind.name(),
                        d.at.as_ns(),
                        d.chosen,
                        d.n,
                        d.obj.map(|o| format!(" (obj #{o})")).unwrap_or_default(),
                    ),
                    None => writeln!(out, "  {tag}: (log ended after {i} decisions)"),
                };
            };
            side(&mut out, "A", da.get(i));
            side(&mut out, "B", db.get(i));
            let _ = writeln!(
                out,
                "  first {} decision(s) agree; every event delta below stems \
                 from this split",
                i
            );
        }
    }
    out
}

// ---------------------------------------------------------------------------
// explore
// ---------------------------------------------------------------------------

/// Silences the default panic printer while `f` runs. Exploration
/// *expects* workload panics (assertion-failure counter-examples are the
/// point) and reports them itself; the default hook would spray a
/// backtrace per violating schedule. Single-threaded CLI, so swapping the
/// process-global hook is safe.
fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

fn cmd_explore(args: &[String]) -> Result<ExitCode, Failure> {
    let mut litmus_name: Option<String> = None;
    let mut sched = ptdf::SchedKind::Fifo;
    let mut depth = 4usize;
    let mut budget = 2000usize;
    let mut procs: Option<usize> = None;
    let mut replay: Option<Vec<u32>> = None;
    let mut json = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} expects a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--litmus" => litmus_name = Some(val("--litmus")?),
            "--sched" => {
                let name = val("--sched")?;
                sched = ptdf::SchedKind::from_name(&name)
                    .ok_or_else(|| format!("unknown scheduler `{name}`"))?
            }
            "--depth" => {
                depth = val("--depth")?
                    .parse()
                    .map_err(|e| format!("--depth: {e}"))?
            }
            "--budget" => {
                budget = val("--budget")?
                    .parse()
                    .map_err(|e| format!("--budget: {e}"))?
            }
            "--procs" => {
                procs = Some(
                    val("--procs")?
                        .parse()
                        .map_err(|e| format!("--procs: {e}"))?,
                )
            }
            "--replay" => {
                let csv = val("--replay")?;
                let prefix: Result<Vec<u32>, _> = csv
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::parse)
                    .collect();
                replay = Some(prefix.map_err(|e| format!("--replay: {e}"))?);
            }
            "--json" => json = true,
            other => return Err(format!("unknown explore flag `{other}`\n{USAGE}").into()),
        }
    }
    let Some(name) = litmus_name else {
        return Err(format!("explore requires --litmus <name|all>\n{USAGE}").into());
    };
    let programs: Vec<&ptdf::Litmus> = if name == "all" {
        ptdf::litmus().iter().collect()
    } else {
        vec![ptdf::litmus::find(&name).ok_or_else(|| {
            format!(
                "unknown litmus `{name}`; corpus: {}",
                ptdf::litmus_names().join(", ")
            )
        })?]
    };
    let config = |l: &ptdf::Litmus| ptdf::Config::new(procs.unwrap_or(l.procs), sched);

    if let Some(prefix) = replay {
        let [l] = programs[..] else {
            return Err("--replay requires a single named --litmus".into());
        };
        let out = with_quiet_panics(|| ptdf::replay_schedule(config(l), &prefix, l.body));
        println!(
            "{}: replayed prefix [{}] -> {} ({} decision(s) taken)",
            l.name,
            join_u32(&prefix),
            out.kind.as_deref().unwrap_or("clean"),
            out.decisions.len()
        );
        if let Some(kind) = &out.kind {
            println!("  {kind}: {}", out.detail);
            return Ok(ExitCode::FAILURE);
        }
        return Ok(ExitCode::SUCCESS);
    }

    let mut dirty = false;
    for l in programs {
        let report = with_quiet_panics(|| {
            ptdf::explore(config(l), ptdf::ExploreOpts::new(depth, budget), l.body)
        });
        if json {
            println!("{}", explore_json(l, &report).to_json());
        } else {
            print!("{}", render_explore(l, &report));
        }
        dirty |= !report.is_clean();
    }
    Ok(if dirty {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn join_u32(v: &[u32]) -> String {
    v.iter().map(u32::to_string).collect::<Vec<_>>().join(",")
}

/// Renders one litmus program's exploration report.
fn render_explore(l: &ptdf::Litmus, r: &ptdf::ExploreReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} schedule(s) executed under {} (depth {}, budget {}{}), \
         {} pruned, ratio {:.2}, max {} decision(s)",
        l.name,
        r.schedules_executed,
        r.scheduler,
        r.depth,
        r.budget,
        if r.budget_exhausted {
            ", EXHAUSTED"
        } else {
            ""
        },
        r.states_pruned,
        r.pruning_ratio(),
        r.max_decisions,
    );
    if r.violations.is_empty() {
        let _ = writeln!(out, "  clean: no violating schedule within depth");
    }
    for v in &r.violations {
        let _ = writeln!(
            out,
            "  {}: {}{}",
            v.kind,
            v.detail.trim_end().replace('\n', "\n    "),
            if v.replay_verified {
                ""
            } else {
                " [REPLAY UNSTABLE]"
            },
        );
        let _ = writeln!(out, "    minimal prefix [{}]", join_u32(&v.prefix));
        let _ = writeln!(
            out,
            "    replay: ptdf-trace explore --litmus {} --sched {} --replay {}",
            l.name,
            v.policy,
            if v.prefix.is_empty() {
                "''".to_string()
            } else {
                join_u32(&v.prefix)
            },
        );
    }
    out
}

/// JSON form of one exploration report (hand-built via [`ptdf::json`]).
fn explore_json(l: &ptdf::Litmus, r: &ptdf::ExploreReport) -> ptdf::json::Value {
    use ptdf::json::{intern, obj, Value};
    let s = |s: &str| Value::Str(intern(s));
    obj(vec![
        ("litmus", s(l.name)),
        ("scheduler", s(&r.scheduler)),
        ("depth", Value::UInt(r.depth as u64)),
        ("budget", Value::UInt(r.budget as u64)),
        (
            "schedulesExecuted",
            Value::UInt(r.schedules_executed as u64),
        ),
        ("replays", Value::UInt(r.replays as u64)),
        ("statesPruned", Value::UInt(r.states_pruned)),
        ("redundant", Value::UInt(r.redundant as u64)),
        ("maxDecisions", Value::UInt(r.max_decisions as u64)),
        ("pruningRatio", Value::Float(r.pruning_ratio())),
        ("budgetExhausted", Value::Bool(r.budget_exhausted)),
        (
            "violations",
            Value::Arr(
                r.violations
                    .iter()
                    .map(|v| {
                        obj(vec![
                            ("kind", s(&v.kind)),
                            ("detail", s(&v.detail)),
                            (
                                "prefix",
                                Value::Arr(
                                    v.prefix.iter().map(|&c| Value::UInt(c as u64)).collect(),
                                ),
                            ),
                            ("policy", s(&v.policy)),
                            ("replayVerified", Value::Bool(v.replay_verified)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

// ---------------------------------------------------------------------------
// tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use ptdf::{run, Config, SchedKind};

    fn sample_trace(kind: SchedKind) -> Trace {
        let (_, report) = run(Config::new(2, kind).with_trace(), || {
            let h = ptdf::spawn(|| ptdf::work(10_000));
            ptdf::rt_alloc(64 * 1024);
            ptdf::work(2_000);
            ptdf::rt_free(64 * 1024);
            h.join();
        });
        report.trace.unwrap()
    }

    #[test]
    fn summarize_mentions_the_key_metrics() {
        let t = sample_trace(SchedKind::Df);
        let s = summarize(&t);
        assert!(s.contains("scheduler df on 2 procs"), "{s}");
        assert!(s.contains("footprint hwm"), "{s}");
        assert!(s.contains("dispatch latency p50"), "{s}");
        assert!(s.contains("spawn"), "{s}");
    }

    #[test]
    fn summarize_footprint_matches_report_exactly() {
        let (_, report) = run(Config::new(2, SchedKind::Df).with_trace(), || {
            ptdf::rt_alloc(128 * 1024);
            ptdf::rt_free(128 * 1024);
        });
        let hwm = report.footprint();
        let t = report.trace.unwrap();
        assert_eq!(
            t.footprint_hwm(),
            hwm,
            "trace hwm must equal Report::footprint"
        );
        let s = summarize(&t);
        assert!(s.contains(&format!("footprint hwm   {hwm} B")), "{s}");
    }

    #[test]
    fn diff_lines_up_both_traces() {
        let a = sample_trace(SchedKind::Fifo);
        let b = sample_trace(SchedKind::Ws);
        let d = diff(&a, &b);
        assert!(d.contains("fifo"), "{d}");
        assert!(d.contains("ws"), "{d}");
        assert!(d.contains("footprint hwm B"), "{d}");
        assert!(d.contains("  spawn"), "{d}");
    }

    #[test]
    fn diff_reports_decision_divergence() {
        let a = sample_trace(SchedKind::Fifo);
        let mut b = a.clone();
        let mut a = a;
        let d = |chosen| ptdf::Decision {
            kind: ptdf::DecisionKind::Grant,
            at: VirtTime(5_000),
            n: 3,
            chosen,
            obj: Some(7),
        };
        a.decisions = vec![d(0), d(0), d(1)];
        b.decisions = vec![d(0), d(0), d(2)];
        let out = diff(&a, &b);
        assert!(
            out.contains("decision prefix diverges at decision 2"),
            "{out}"
        );
        assert!(
            out.contains("grant at t=5000 chose 1 of 3 candidate(s) (obj #7)"),
            "{out}"
        );
        assert!(out.contains("first 2 decision(s) agree"), "{out}");
        // Identical logs: say so instead of diffing events blindly.
        b.decisions = a.decisions.clone();
        let same = diff(&a, &b);
        assert!(
            same.contains("decision logs identical (3 decisions)"),
            "{same}"
        );
        // One log a strict prefix of the other: diverges where the short one ends.
        b.decisions.pop();
        let cut = diff(&a, &b);
        assert!(cut.contains("diverges at decision 2"), "{cut}");
        assert!(cut.contains("(log ended after 2 decisions)"), "{cut}");
    }

    #[test]
    fn explore_render_prints_minimal_prefix_and_replay_recipe() {
        let l = ptdf::litmus::find("buggy_grant_order").unwrap();
        let report = with_quiet_panics(|| {
            ptdf::explore(
                Config::new(l.procs, SchedKind::Fifo),
                ptdf::ExploreOpts::new(4, 200),
                l.body,
            )
        });
        let out = render_explore(l, &report);
        assert!(out.contains("minimal prefix [1]"), "{out}");
        assert!(
            out.contains("--litmus buggy_grant_order --sched fifo --replay 1"),
            "{out}"
        );
        let json = explore_json(l, &report).to_json();
        let v = ptdf::json::Value::parse(&json).unwrap();
        assert_eq!(
            v.get("litmus").and_then(|x| x.as_str()),
            Some("buggy_grant_order")
        );
        assert!(v
            .get("violations")
            .and_then(|x| x.as_arr())
            .is_some_and(|a| !a.is_empty()));
    }

    #[test]
    fn check_reports_clean_on_a_healthy_trace() {
        let (_, report) = run(
            Config::new(2, SchedKind::Df)
                .with_trace()
                .with_perturbation(7),
            || {
                let m = ptdf::Mutex::new(0u32);
                ptdf::scope(|s| {
                    for _ in 0..3 {
                        let m = m.clone();
                        s.spawn(move || *m.lock() += 1);
                    }
                });
            },
        );
        let t = report.trace.unwrap();
        let c = ptdf::check_trace(&t);
        let rendered = render_check("t.json", &c);
        assert!(c.is_clean(), "{rendered}");
        assert!(rendered.contains("clean"), "{rendered}");
    }

    #[test]
    fn check_prints_violations_and_replay_recipe() {
        let mut t = sample_trace(SchedKind::Fifo);
        t.meta.perturb_seed = Some(99);
        // Forge a lost notify: one waiter observed, zero woken.
        t.events.push(ptdf::trace::Event {
            at: ptdf_smp::VirtTime::from_ns(1),
            thread: Some(0),
            proc: 0,
            kind: ptdf::trace::EventKind::Notify {
                reason: ptdf::trace::BlockReason::Condvar,
                obj: 0,
                waiters: 1,
                woken: 0,
            },
        });
        let c = ptdf::check_trace(&t);
        assert!(!c.is_clean());
        let rendered = render_check("t.json", &c);
        assert!(rendered.contains("violation"), "{rendered}");
        assert!(
            rendered.contains("--sched fifo --perturb-seed 99"),
            "{rendered}"
        );
    }

    #[test]
    fn check_names_the_cycle_on_a_deadlock_trace() {
        // AB-BA inversion under the sentinel: the recorder carries one
        // Deadlock event per cycle member, and `check` must surface the
        // reassembled cycle (this is the path the CI smoke drives through
        // examples/deadlock_trace.rs).
        let (_, report) = ptdf::try_run(
            Config::new(2, SchedKind::Df)
                .with_trace()
                .with_perturbation(3),
            || {
                let a = ptdf::Mutex::new(());
                let b = ptdf::Mutex::new(());
                let (a2, b2) = (a.clone(), b.clone());
                let t1 = ptdf::spawn(move || {
                    let _ga = a2.lock();
                    ptdf::work(300_000);
                    let _gb = b2.lock();
                });
                let t2 = ptdf::spawn(move || {
                    let _gb = b.lock();
                    ptdf::work(300_000);
                    let _ga = a.lock();
                });
                let _ = t1.try_join();
                let _ = t2.try_join();
            },
        )
        .expect("a detected deadlock completes the run with a verdict");
        assert_eq!(report.deadlocks().len(), 1);
        let t = report.trace.unwrap();
        let c = ptdf::check_trace(&t);
        assert!(!c.is_clean(), "deadlock trace must check dirty");
        let rendered = render_check("t.json", &c);
        assert!(rendered.contains("deadlock at"), "{rendered}");
        assert!(rendered.contains("waits-for cycle"), "{rendered}");
        assert!(
            rendered.contains("--sched df --perturb-seed 3"),
            "{rendered}"
        );
    }

    #[test]
    fn audit_reports_margin_and_verdict() {
        let t = sample_trace(SchedKind::Df);
        let hwm = t.footprint_hwm();
        // Generous bound: passes with positive margin.
        let (out, ok) = audit("t.json", &t, hwm, 1024, 1.0);
        assert!(ok, "{out}");
        assert!(out.contains(": ok "), "{out}");
        assert!(out.contains("margin +"), "{out}");
        // Impossible bound: fails with negative margin.
        let (out, ok) = audit("t.json", &t, 0, 0, 1.0);
        assert!(!ok, "{out}");
        assert!(out.contains(": OVER "), "{out}");
        assert!(out.contains(&format!("margin -{hwm}")), "{out}");
    }

    #[test]
    fn audit_surfaces_runtime_recorded_crossings() {
        let (_, report) = run(
            Config::new(2, SchedKind::Fifo)
                .with_trace()
                .with_space_bound(1),
            || {
                let h = ptdf::spawn(|| ptdf::work(1_000));
                h.join();
            },
        );
        assert!(report.bound_violations() > 0);
        let t = report.trace.unwrap();
        let (out, _) = audit("t.json", &t, u64::MAX / 2, 0, 1.0);
        assert!(out.contains("runtime bound crossed at"), "{out}");
    }

    /// Loads a committed degenerate-trace fixture through the CLI's own
    /// `load` path.
    fn fixture(name: &str) -> Trace {
        let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
        load(&path).unwrap_or_else(|e| panic!("fixture {name}: {e:?}"))
    }

    /// Asserts `text` carries no float-formatting accidents: a degenerate
    /// input must never surface as NaN/infinite percentages or means.
    fn assert_no_nan(name: &str, text: &str) {
        // Rust formats the offending floats as "NaN" / "inf" exactly.
        for bad in ["NaN", "inf"] {
            assert!(
                !text.contains(bad),
                "{name} output contains {bad:?}:\n{text}"
            );
        }
    }

    #[test]
    fn summarize_handles_degenerate_traces_without_nan() {
        for name in [
            "zero_makespan.json",
            "zero_events.json",
            "zero_count_host_phase.json",
        ] {
            let t = fixture(name);
            let s = summarize(&t);
            assert_no_nan(name, &s);
            assert!(s.contains("scheduler"), "{name}: {s}");
        }
        // The armed-but-never-hit profile renders zero-count phases with
        // 0% shares and zero means, not division artifacts.
        let s = summarize(&fixture("zero_count_host_phase.json"));
        assert!(s.contains("host phases (profiled, 0 ns total)"), "{s}");
        assert!(s.contains("mean 0 ns"), "{s}");
    }

    #[test]
    fn critpath_handles_degenerate_traces_without_spurious_failure() {
        for name in [
            "zero_makespan.json",
            "zero_events.json",
            "zero_count_host_phase.json",
        ] {
            let t = fixture(name);
            let cp = ptdf::critpath::analyze(&t);
            // The cmd_critpath exit-1 condition must not fire: buckets tile
            // the makespan bit-exactly even when it is zero or event-free.
            assert_eq!(
                cp.blame.sum(),
                cp.makespan,
                "{name}: blame must tile the makespan"
            );
            let rendered = render_critpath(name, &cp, 5);
            assert_no_nan(name, &rendered);
            let as_json = critpath_json(&cp).to_json();
            assert_no_nan(name, &as_json);
            assert!(
                ptdf::json::Value::parse(&as_json).is_ok(),
                "{name}: --json output must stay well-formed"
            );
        }
    }

    #[test]
    fn degenerate_fixtures_round_trip_exactly() {
        for name in [
            "zero_makespan.json",
            "zero_events.json",
            "zero_count_host_phase.json",
        ] {
            let t = fixture(name);
            let back = Trace::from_chrome_json(&t.to_chrome_json())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(back, t, "{name} must round-trip losslessly");
        }
    }

    #[test]
    fn summarize_lists_blocked_time_by_object() {
        let (_, report) = run(Config::new(2, SchedKind::Df).with_trace(), || {
            let m = ptdf::Mutex::new(0u32);
            ptdf::scope(|s| {
                for _ in 0..4 {
                    let m = m.clone();
                    s.spawn(move || {
                        for _ in 0..8 {
                            let mut g = m.lock();
                            ptdf::work(20_000);
                            *g += 1;
                        }
                    });
                }
            });
        });
        let t = report.trace.unwrap();
        let s = summarize(&t);
        assert!(s.contains("blocked time by object"), "{s}");
        assert!(s.contains("mutex"), "{s}");
    }

    #[test]
    fn summarize_prints_host_phases_when_profiled() {
        let (_, report) = run(
            Config::new(2, SchedKind::Df)
                .with_trace()
                .with_host_profile(true),
            || {
                let h = ptdf::spawn(|| ptdf::work(10_000));
                h.join();
            },
        );
        let t = report.trace.unwrap();
        let s = summarize(&t);
        assert!(s.contains("host phases (profiled"), "{s}");
        assert!(s.contains("dispatch"), "{s}");
        assert!(s.contains("trace_alloc"), "{s}");
        // And the section round-trips through the disk format.
        let back = Trace::from_chrome_json(&t.to_chrome_json()).unwrap();
        assert!(summarize(&back).contains("host phases (profiled"));

        // Unprofiled traces stay quiet.
        let plain = sample_trace(SchedKind::Df);
        assert!(!summarize(&plain).contains("host phases"));
    }

    #[test]
    fn critpath_render_names_the_dominant_bucket() {
        let t = sample_trace(SchedKind::Df);
        let cp = ptdf::critpath::analyze(&t);
        assert_eq!(cp.blame.sum(), cp.makespan);
        let s = render_critpath("t.json", &cp, 5);
        assert!(s.contains("makespan"), "{s}");
        assert!(s.contains("dominant:"), "{s}");
        assert!(s.contains("compute"), "{s}");
        assert!(s.contains("on-path threads"), "{s}");
    }

    #[test]
    fn critpath_json_parses_and_tiles() {
        let t = sample_trace(SchedKind::Ws);
        let cp = ptdf::critpath::analyze(&t);
        let doc = critpath_json(&cp).to_json();
        let v = ptdf::json::Value::parse(&doc).unwrap();
        let makespan = v.get("makespanNs").and_then(|m| m.as_u64()).unwrap();
        let blame = v.get("blameNs").unwrap();
        let total: u64 = cp
            .blame
            .named()
            .iter()
            .map(|&(n, _)| blame.get(n).and_then(|b| b.as_u64()).unwrap())
            .sum();
        assert_eq!(total, makespan, "{doc}");
        assert!(v.get("dominant").and_then(|d| d.as_str()).is_some());
        let segs = v.get("segments").and_then(|s| s.as_arr()).unwrap();
        assert!(!segs.is_empty());
    }

    #[test]
    fn round_trip_through_disk_format() {
        let t = sample_trace(SchedKind::DfDeques);
        let back = Trace::from_chrome_json(&t.to_chrome_json()).unwrap();
        assert_eq!(t, back);
        back.validate().unwrap();
    }
}
