//! The trace format's pinned corpus, `tests/golden/trace_corpus.tsv`, and
//! the parser's contract on edited documents. The table's `export` rows
//! hold the FNV-1a and length of every exported document, its `analysis`
//! rows the FNV-1a of what `check_trace`, `critpath::analyze` and
//! `object_waits` answer on each (and on a 500-request server trace), its
//! `parse` rows the FNV-1a of the parser's verdicts on scrambled, spaced,
//! cut and damaged documents. No refactor regenerates a row; a change that
//! moves one on purpose runs `cargo test --test trace_corpus -- --ignored
//! bless` and says which rows moved and why. The table must also pass
//! under `--features ptdf/thread-backend`.

use std::fmt::Write as _;
use std::rc::Rc;

use ptdf::json::{obj, Value};
use ptdf::trace::{
    BlockReason, Event, EventKind, Fnv1a, Span, SpanKind, ThreadLifecycle, Trace, TraceMeta,
};
use ptdf::{run, Config, SchedKind, VirtTime};
use ptdf_server::{serve_traced, ServerConfig};
use ptdf_smp::Prng;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace_corpus.tsv");

/// A small fork-join program touching most event kinds: nested
/// spawn/join, a contended mutex, a two-party barrier, and one
/// allocation above the DF quota (dummies + preemption under the
/// quota-carrying policies).
fn corpus_program() {
    fn tree(depth: u32) {
        if depth == 0 {
            ptdf::work(1_500);
            return;
        }
        let h = ptdf::spawn(move || tree(depth - 1));
        tree(depth - 1);
        h.join();
    }
    let m = ptdf::Mutex::new(0u64);
    let b = ptdf::Barrier::new(2);
    let (m2, b2) = (m.clone(), b.clone());
    let h = ptdf::spawn(move || {
        *m2.lock() += 1;
        ptdf::work(10_000);
        b2.wait();
    });
    tree(3);
    ptdf::rt_alloc(64 * 1024);
    ptdf::rt_free(64 * 1024);
    b.wait();
    *m.lock() += 1;
    h.join();
}

/// Hand-built trace for the escaping and `ts`/`dur` formatting rules:
/// a scheduler name with every escape class and virtual times on both
/// sides of the exact-decimal boundary (10^15 ns).
fn hostile_trace() -> Trace {
    const E15: u64 = 1_000_000_000_000_000;
    let times = [
        0,
        1,
        10,
        100,
        999,
        1_000,
        1_001,
        1_010,
        1_100,
        123_456,
        E15 - 1,
        E15,
        E15 + 1,
        (1 << 53) + 1,
        u64::MAX,
    ];
    let mut t = Trace::default();
    t.meta = TraceMeta {
        scheduler: "a\"b\\c\n\u{1}".to_string(),
        processors: 2,
        default_stack: 8192,
        quota: Some(u64::MAX),
        perturb_seed: None,
        chaos_seed: Some(0),
    };
    for (i, w) in times.windows(2).enumerate() {
        t.spans.push(Span {
            proc: i % 2,
            thread: i as u32,
            start: VirtTime::from_ns(w[0]),
            end: VirtTime::from_ns(w[1]),
            kind: [SpanKind::Run, SpanKind::Dummy, SpanKind::Resume][i % 3],
        });
    }
    for (i, &at) in times.iter().enumerate() {
        t.events.push(Event {
            at: VirtTime::from_ns(at),
            proc: i % 2,
            thread: (i % 4 != 0).then_some(i as u32),
            kind: match i % 5 {
                0 => EventKind::Alloc { bytes: at },
                1 => EventKind::Spawn { parent: None },
                2 => EventKind::Block {
                    reason: BlockReason::RwWrite,
                    obj: None,
                },
                3 => EventKind::BoundViolation {
                    footprint: at,
                    bound: 7,
                },
                _ => EventKind::Deadlock {
                    cycle: 1,
                    waits_for: 2,
                    obj: Some(3),
                },
            },
        });
        t.counters.footprint.push((VirtTime::from_ns(at), at));
    }
    t.threads.push(ThreadLifecycle {
        thread: 0,
        spawned: VirtTime::from_ns(999),
        first_dispatch: None,
        ready_wait: VirtTime::ZERO,
        quanta: 0,
        exited: None,
    });
    t.threads.push(ThreadLifecycle {
        thread: 1,
        spawned: VirtTime::ZERO,
        first_dispatch: Some(VirtTime::from_ns(1_000)),
        ready_wait: VirtTime::from_ns(E15 + 1),
        quanta: 3,
        exited: Some(VirtTime::from_ns(u64::MAX)),
    });
    t
}

/// A profiled run's trace with its phase counts kept and its host
/// nanoseconds, which are not reproducible, replaced by a function of
/// the counts.
fn pin_host_ns(mut trace: Trace) -> Trace {
    let hp = trace
        .host_phase
        .as_mut()
        .expect("profiled run carries hostPhase");
    for slot in [
        &mut hp.heap_push,
        &mut hp.heap_pop,
        &mut hp.charge,
        &mut hp.sched_lock,
        &mut hp.sched_pop,
        &mut hp.dispatch,
        &mut hp.trace_alloc,
    ] {
        slot.ns = slot.count * 37 + 1;
    }
    trace
}

/// The byte-identity corpus: `(row name, exported document)`.
fn export_corpus() -> Vec<(String, String)> {
    let mut rows = Vec::new();
    let mut fork_join_df = None;
    for kind in [
        SchedKind::Fifo,
        SchedKind::Lifo,
        SchedKind::Df,
        SchedKind::DfDeques,
        SchedKind::Ws,
    ] {
        let cfg = Config::new(4, kind).with_trace().with_quota(16 * 1024);
        let (_, report) = run(cfg, corpus_program);
        let trace = report.trace.expect("trace enabled");
        rows.push((format!("fork-join/{}", kind.name()), trace.to_chrome_json()));
        if kind == SchedKind::Df {
            fork_join_df = Some(trace);
        }
    }
    // A litmus program under a scripted oracle: the decision log rides
    // in `ptdfDecisions`.
    let l = ptdf::litmus::find("mutex_increments").expect("corpus program");
    let oracle = ptdf::oracle::ScheduleOracle::scripted(vec![1, 0, 1]).shared();
    let cfg = Config::new(l.procs, SchedKind::Df)
        .with_trace()
        .with_oracle(oracle);
    let (_, report) = run(cfg, l.body);
    let trace = report.trace.expect("trace enabled");
    assert!(!trace.decisions.is_empty(), "oracle runs log decisions");
    rows.push(("litmus/mutex_increments".into(), trace.to_chrome_json()));
    // The three-lock ring of `examples/deadlock_trace`.
    let cfg = Config::new(3, SchedKind::Df)
        .with_trace()
        .with_perturbation(9);
    let outcome = ptdf::try_run(cfg, || {
        let locks = [
            ptdf::Mutex::new(()),
            ptdf::Mutex::new(()),
            ptdf::Mutex::new(()),
        ];
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let first = locks[i].clone();
                let second = locks[(i + 1) % 3].clone();
                ptdf::spawn(move || {
                    let _g1 = first.lock();
                    ptdf::work(300_000);
                    let _g2 = second.lock();
                })
            })
            .collect();
        for h in handles {
            let _ = h.try_join();
        }
    });
    let (_, report) = outcome.expect("a detected deadlock is a verdict");
    let trace = report.trace.expect("trace enabled");
    assert!(trace
        .events
        .iter()
        .any(|e| matches!(e.kind, EventKind::Deadlock { .. })));
    rows.push(("deadlock-ring".into(), trace.to_chrome_json()));
    // A cancelled timed wait (Block, then Cancel instead of Timeout).
    let l = ptdf::litmus::find("cancel_deadline_race").expect("corpus program");
    let (_, report) = run(Config::new(l.procs, SchedKind::Fifo).with_trace(), l.body);
    let trace = report.trace.expect("trace enabled");
    assert!(trace
        .events
        .iter()
        .any(|e| matches!(e.kind, EventKind::Cancel { .. })));
    rows.push(("cancelled-timed-wait".into(), trace.to_chrome_json()));
    // A profiled run: `hostPhase` present. Phase counts are the run's
    // own; host nanoseconds are not reproducible, so they are pinned.
    let cfg = Config::new(2, SchedKind::Df)
        .with_trace()
        .with_host_profile(true);
    let (_, report) = run(cfg, corpus_program);
    let trace = pin_host_ns(report.trace.expect("trace enabled"));
    rows.push(("profiled".into(), trace.to_chrome_json()));
    // The committed CLI fixtures, re-exported.
    for (name, text) in [
        (
            "zero_count_host_phase",
            include_str!("../crates/trace-tools/fixtures/zero_count_host_phase.json"),
        ),
        (
            "zero_events",
            include_str!("../crates/trace-tools/fixtures/zero_events.json"),
        ),
        (
            "zero_makespan",
            include_str!("../crates/trace-tools/fixtures/zero_makespan.json"),
        ),
    ] {
        let trace = Trace::from_chrome_json(text).expect("fixture parses");
        rows.push((format!("fixture/{name}"), trace.to_chrome_json()));
    }
    rows.push(("hostile".into(), hostile_trace().to_chrome_json()));
    // The merged critical-path export, on one trace.
    let trace = fork_join_df.expect("df row ran");
    let cp = ptdf::critpath::analyze(&trace);
    assert!(!cp.segments.is_empty());
    rows.push((
        "critpath/fork-join/df".into(),
        trace.to_chrome_json_with_critpath(&cp),
    ));
    rows
}

/// What the three analyses say about `t`, in their `Debug` form.
fn analyses(t: &Trace) -> String {
    let results = (
        ptdf::check_trace(t),
        ptdf::critpath::analyze(t),
        ptdf::critpath::object_waits(t),
    );
    format!("{results:?}")
}

/// A document's `events` need not be in time order (the recorder sorts
/// them; an editor may not): the analyses read them as their stable
/// sort by `at`.
#[test]
fn out_of_order_events_analyse_as_their_stable_sort() {
    let cfg = Config::new(4, SchedKind::Df)
        .with_trace()
        .with_quota(16 * 1024);
    let (_, report) = run(cfg, corpus_program);
    let mut shuffled = report.trace.expect("trace enabled");
    let mut rng = Prng::new(0x9e37_79b9_7f4a_7c15);
    for i in (1..shuffled.events.len()).rev() {
        shuffled.events.swap(i, pick(&mut rng, i + 1));
    }
    assert!(shuffled.events.windows(2).any(|w| w[0].at > w[1].at));
    let mut sorted = shuffled.clone();
    sorted.events.sort_by_key(|e| e.at);
    assert_eq!(analyses(&shuffled), analyses(&sorted));
    let cp = ptdf::critpath::analyze(&shuffled);
    assert!(cp.blame.compute > VirtTime::ZERO && cp.blame.sum() == cp.makespan);
}

/// The one string of a trace that can need escaping is the scheduler
/// name; escaped, it is not a slice of the document, and reaches
/// `TraceMeta` through the reader's scratch.
#[test]
fn scheduler_names_that_need_escaping_round_trip() {
    let mut trace = hostile_trace();
    for name in [
        "",
        "\"",
        "\\",
        "quoted \"df\" \\ back\\slash",
        "ctl \u{0}\u{1}\u{8}\t\n\u{c}\r\u{1f} end",
        "non-ASCII: héllo ✓ 数 😀",
        "all at once: \"é\"\\\n😀\u{7f}\u{80}/",
    ] {
        trace.meta.scheduler = name.to_string();
        let json = trace.to_chrome_json();
        let back = Trace::from_chrome_json(&json).expect("parse back");
        assert_eq!(back.meta.scheduler, name, "{json:.120}");
        assert!(back == trace, "{name:?}");
        // A second, later escaped string must not disturb the first.
        let noted = json.replacen(
            "\"otherData\":{",
            "\"otherData\":{\"n\\u006fte\":\"\\\\\",",
            1,
        );
        let late = format!("{},\"\\u0078\":\"\\n\"}}", &noted[..noted.len() - 1]);
        assert!(Trace::from_chrome_json(&late).expect("parse back") == trace);
    }
}

/// A seeded index below `n` (the property tests' only randomness is
/// the engine's own `Prng`).
fn pick(rng: &mut Prng, n: usize) -> usize {
    rng.below(n as u64) as usize
}

/// A real trace small enough to mutate many times, with every top-level
/// section populated: a perturbed (decision-logged), profiled run of the
/// corpus program (host nanoseconds pinned).
fn small_real_trace() -> Trace {
    let cfg = Config::new(3, SchedKind::Df)
        .with_trace()
        .with_perturbation(9)
        .with_host_profile(true);
    let (_, report) = run(cfg, corpus_program);
    let trace = pin_host_ns(report.trace.expect("trace enabled"));
    assert!(!trace.decisions.is_empty() && trace.host_phase.is_some());
    trace
}

/// A member no reader looks at: a scalar or a nested compound, the
/// compounds reusing known key names one level down.
fn unknown_member(rng: &mut Prng) -> (Rc<str>, Value) {
    let value = match pick(rng, 6) {
        0 => Value::Null,
        1 => Value::Float(0.25),
        2 => Value::Str("ph\\\"\u{1}".into()),
        3 => Value::Int(-7),
        4 => Value::Arr(vec![Value::UInt(1), obj(vec![("pid", Value::UInt(9))])]),
        _ => obj(vec![
            ("args", obj(vec![("ns", Value::UInt(1))])),
            ("traceEvents", Value::Arr(vec![Value::Null])),
        ]),
    };
    (["zz", "x-note", "cat", "id"][pick(rng, 4)].into(), value)
}

/// Shuffles every object's members, sprinkles unknown members in, and
/// repeats some members *after* their first occurrence with another
/// value — none of which a first-match reader may notice.
fn scramble(v: &mut Value, rng: &mut Prng) {
    match v {
        Value::Arr(items) => items.iter_mut().for_each(|item| scramble(item, rng)),
        Value::Obj(members) => {
            members.iter_mut().for_each(|(_, m)| scramble(m, rng));
            for i in (1..members.len()).rev() {
                members.swap(i, pick(rng, i + 1));
            }
            for _ in 0..pick(rng, 3) {
                let at = pick(rng, members.len() + 1);
                members.insert(at, unknown_member(rng));
            }
            if !members.is_empty() && pick(rng, 2) == 0 {
                let first = pick(rng, members.len());
                let key = members[first].0.clone();
                let at = first + 1 + pick(rng, members.len() - first);
                members.insert(at, (key, unknown_member(rng).1));
            }
        }
        _ => {}
    }
}

/// [`small_real_trace`] exported, then rewritten 60 times by
/// [`scramble`].
fn scrambled_documents(trace: &Trace) -> Vec<String> {
    let tree = Value::parse(&trace.to_chrome_json()).expect("export is JSON");
    let mut rng = Prng::new(0x9e37_79b9_7f4a_7c15);
    (0..60)
        .map(|_| {
            let mut doc = tree.clone();
            scramble(&mut doc, &mut rng);
            doc.to_json()
        })
        .collect()
}

/// `trace` exported with whitespace around every token class.
fn spaced_document(trace: &Trace) -> String {
    trace
        .to_chrome_json()
        .replace("\":", "\" :\t")
        .replace(',', " ,\n")
        .replace('{', "{ ")
        .replace('}', "\r\n}")
}

#[test]
fn parser_ignores_member_order_unknown_members_and_late_duplicates() {
    let trace = small_real_trace();
    for (round, text) in scrambled_documents(&trace).iter().enumerate() {
        let back =
            Trace::from_chrome_json(text).unwrap_or_else(|e| panic!("round {round}: {e}\n{text}"));
        assert!(back == trace, "round {round} parsed differently:\n{text}");
    }
    // Whitespace between tokens is invisible too.
    let spaced = spaced_document(&trace);
    assert!(Trace::from_chrome_json(&spaced).expect("spaced") == trace);
}

/// A small exported trace whose scheduler name needs escapes and
/// multi-byte characters, for damaging.
fn damage_base() -> String {
    let l = ptdf::litmus::find("cancel_deadline_race").expect("corpus program");
    let (_, report) = run(Config::new(l.procs, SchedKind::Fifo).with_trace(), l.body);
    let mut trace = report.trace.expect("trace enabled");
    trace.meta.scheduler = "fi\\fo \"é\" 😀".into();
    trace.to_chrome_json()
}

/// Every proper prefix of `text` that ends on a `char` boundary.
fn prefixes(text: &str) -> impl Iterator<Item = &str> {
    (0..text.len())
        .filter(|&i| text.is_char_boundary(i))
        .map(|cut| &text[..cut])
}

/// 2,000 copies of `text` with one byte damaged (substituted from the
/// JSON alphabet, bit-flipped, copied from elsewhere, random), less the
/// ones that are not UTF-8.
fn damaged_documents(text: &str) -> Vec<String> {
    let mut rng = Prng::new(0xd1b5_4a32_d192_ed03);
    (0..2_000)
        .filter_map(|_| {
            let mut bytes = text.as_bytes().to_vec();
            let at = pick(&mut rng, bytes.len());
            bytes[at] = match pick(&mut rng, 4) {
                0 => *b"{}[]\",:-+.eE0 9nt\\u"
                    .get(pick(&mut rng, 19))
                    .expect("19 bytes"),
                1 => bytes[at] ^ (1 << pick(&mut rng, 7)),
                2 => bytes[pick(&mut rng, text.len())],
                _ => rng.next_u64() as u8,
            };
            String::from_utf8(bytes).ok()
        })
        .collect()
}

#[test]
fn damaged_documents_end_in_ok_or_err_never_a_panic() {
    let text = damage_base();
    assert!(
        prefixes(&text).all(|cut| Trace::from_chrome_json(cut).is_err()),
        "no proper prefix of a document is a document"
    );
    let mut verdicts = [0usize; 2];
    for damaged in damaged_documents(&text) {
        verdicts[Trace::from_chrome_json(&damaged).is_ok() as usize] += 1;
    }
    assert!(
        verdicts[0] > 0 && verdicts[1] > 0,
        "both verdicts exercised: {verdicts:?}"
    );
}

/// The parser's verdicts on a family of documents: for a document that
/// loads, its re-export; for one that does not, the message.
fn verdicts<'a>(docs: impl IntoIterator<Item = &'a str>) -> String {
    let mut out = String::new();
    for doc in docs {
        match Trace::from_chrome_json(doc) {
            Ok(t) => out.push_str(&t.to_chrome_json()),
            Err(e) => out.push_str(&e),
        }
        out.push('\n');
    }
    out
}

/// Every row of the corpus, rendered from the code as it stands.
fn table() -> String {
    let hash = |text: &str| format!("{:016x}", Fnv1a::digest(text.as_bytes()));
    let mut out = String::from("# export\trow\tfnv1a\tbytes\n");
    let rows = export_corpus();
    for (name, json) in &rows {
        writeln!(out, "export\t{name}\t{}\t{}", hash(json), json.len()).expect("to a String");
        // Parse → export is the identity on every row (the critical-path
        // lane is dropped on import, so that row re-exports to its base).
        let back = Trace::from_chrome_json(json).expect("corpus row parses");
        let base = if name.starts_with("critpath/") {
            &rows[2].1
        } else {
            json
        };
        assert_eq!(&back.to_chrome_json(), base, "{name}");
    }
    out.push_str("# analysis\trow\tfnv1a\n");
    for (name, json) in rows
        .iter()
        .filter(|(name, _)| !name.starts_with("critpath/"))
    {
        let t = Trace::from_chrome_json(json).expect("corpus row parses");
        writeln!(out, "analysis\t{name}\t{}", hash(&analyses(&t))).expect("to a String");
    }
    // 500 requests at 200 % under DF: a trace with every kind of wait.
    let cfg = ServerConfig {
        requests: 500,
        ..ServerConfig::standard(42)
    }
    .overload_pct(200);
    let server = serve_traced(&cfg, 4, SchedKind::Df).report.trace;
    let t = server.as_ref().expect("tracing enabled");
    assert!(ptdf::check_trace(t).is_clean() && !ptdf::object_waits(t).is_empty());
    writeln!(out, "analysis\tserver(500@200%)/df\t{}", hash(&analyses(t))).expect("to a String");
    out.push_str("# parse\tfamily\tfnv1a\n");
    let trace = small_real_trace();
    let text = damage_base();
    let families = [
        (
            "scrambled",
            verdicts(scrambled_documents(&trace).iter().map(String::as_str)),
        ),
        ("spaced", verdicts([spaced_document(&trace).as_str()])),
        ("prefixes", verdicts(prefixes(&text))),
        (
            "damaged",
            verdicts(damaged_documents(&text).iter().map(String::as_str)),
        ),
    ];
    for (family, verdicts) in families {
        writeln!(out, "parse\t{family}\t{}", hash(&verdicts)).expect("to a String");
    }
    out
}

#[test]
fn corpus_matches_the_committed_table() {
    ptdf_bench::golden::assert_unchanged(
        GOLDEN,
        &table(),
        "A refactor must not move an exported byte, an analysis or a parse \
         verdict. If this change moves them on purpose: \
         cargo test --test trace_corpus -- --ignored bless",
    );
}

#[test]
#[ignore = "rewrites tests/golden/trace_corpus.tsv from the code as it stands"]
fn bless() {
    ptdf_bench::golden::bless(GOLDEN, &table());
}

/// A hand-built trace with every record layout the exporter writes: all
/// three span kinds, all 18 event kinds (each optional member both present
/// and `null`), all five counter tracks, lifecycle rows with each optional
/// field present and absent, every decision kind, and times on both sides
/// of the exact-decimal boundary up to `u64::MAX`.
fn every_layout_trace() -> Trace {
    use ptdf::trace::{Decision, DecisionKind};
    const E15: u64 = 1_000_000_000_000_000;
    const TIMES: [u64; 5] = [0, 999, E15 - 1, E15, u64::MAX];
    let at = |i: usize| VirtTime::from_ns(TIMES[i % TIMES.len()]);
    let mut t = Trace::default();
    t.meta = TraceMeta {
        scheduler: "df".to_string(),
        processors: 4,
        default_stack: 8192,
        quota: Some(16_384),
        perturb_seed: Some(9),
        chaos_seed: None,
    };
    for (i, kind) in [SpanKind::Run, SpanKind::Dummy, SpanKind::Resume]
        .into_iter()
        .enumerate()
    {
        for (j, w) in TIMES.windows(2).enumerate() {
            t.spans.push(Span {
                proc: (i + j) % 4,
                thread: (7 * i + j) as u32,
                start: VirtTime::from_ns(w[0]),
                end: VirtTime::from_ns(w[1]),
                kind,
            });
        }
    }
    let reasons = [
        BlockReason::Join,
        BlockReason::Mutex,
        BlockReason::Condvar,
        BlockReason::Semaphore,
        BlockReason::Barrier,
        BlockReason::RwRead,
        BlockReason::RwWrite,
    ];
    let mut kinds = Vec::new();
    for some in [Some(3u32), None] {
        kinds.extend([
            EventKind::Spawn { parent: some },
            EventKind::Block {
                reason: reasons[kinds.len() % reasons.len()],
                obj: some,
            },
            EventKind::Wake { waker: some },
            EventKind::Steal { victim: some },
            EventKind::Timeout { obj: some },
            EventKind::Cancel {
                obj: some,
                by: some,
            },
            EventKind::Cancel {
                obj: some,
                by: some.map(|v| v + 1).xor(Some(5)),
            },
            EventKind::Deadlock {
                cycle: 1,
                waits_for: 2,
                obj: some,
            },
        ]);
    }
    for (i, reason) in reasons.into_iter().enumerate() {
        kinds.push(EventKind::Notify {
            reason,
            obj: i as u32,
            waiters: 2 * i as u64,
            woken: u64::MAX - i as u64,
        });
        kinds.push(EventKind::Block { reason, obj: None });
    }
    kinds.extend([
        EventKind::FirstDispatch,
        EventKind::Join { target: u32::MAX },
        EventKind::DummyInsert { count: 12 },
        EventKind::Preempt,
        EventKind::StackReserve { bytes: 8192 },
        EventKind::StackRelease { bytes: 8192 },
        EventKind::Alloc { bytes: 1 << 20 },
        EventKind::Free { bytes: 1 << 20 },
        EventKind::FreeUnderflow { bytes: u64::MAX },
        EventKind::BoundViolation {
            footprint: u64::MAX,
            bound: 0,
        },
    ]);
    for (i, kind) in kinds.into_iter().enumerate() {
        t.events.push(Event {
            at: at(i),
            proc: i % 4,
            thread: (i % 3 != 0).then_some(i as u32),
            kind,
        });
    }
    for (i, track) in [
        &mut t.counters.footprint,
        &mut t.counters.live_threads,
        &mut t.counters.ready,
        &mut t.counters.active_deques,
        &mut t.counters.sched_lock_wait,
    ]
    .into_iter()
    .enumerate()
    {
        for j in 0..TIMES.len() {
            track.push((at(i + j), TIMES[(2 * i + j) % TIMES.len()]));
        }
    }
    for (i, (first, exited)) in [(false, false), (true, false), (false, true), (true, true)]
        .into_iter()
        .enumerate()
    {
        t.threads.push(ThreadLifecycle {
            thread: i as u32,
            spawned: at(i),
            first_dispatch: first.then(|| at(i + 1)),
            ready_wait: at(i + 2),
            quanta: TIMES[(i + 3) % TIMES.len()],
            exited: exited.then(|| at(i + 4)),
        });
    }
    for (i, kind) in [
        DecisionKind::DispatchTie,
        DecisionKind::UnparkTie,
        DecisionKind::WakeOrder,
        DecisionKind::Grant,
        DecisionKind::TimeoutOrder,
        DecisionKind::CancelDelivery,
    ]
    .into_iter()
    .enumerate()
    {
        t.decisions.push(Decision {
            kind,
            at: at(i),
            n: 2 + i as u32,
            chosen: i as u32 % 2,
            obj: (i % 2 == 0).then_some(u32::MAX - i as u32),
        });
    }
    t
}

/// Every layout the exporter writes reads back to the trace it came from,
/// and so does the same document with any one record written another way:
/// a space after its `{`, which a reader of the exporter's exact layout
/// does not accept and the general reader does.
#[test]
fn every_record_layout_round_trips_and_reads_the_same_respaced() {
    let trace = every_layout_trace();
    let json = trace.to_chrome_json();
    let back = Trace::from_chrome_json(&json).expect("parse back");
    assert!(back == trace, "round trip changed the trace");
    assert_eq!(back.to_chrome_json(), json);
    // Every record of `traceEvents`, `ptdfThreads` and `ptdfDecisions`
    // opens with a `{` straight after the `[` or `,` before it.
    let starts: Vec<usize> = json
        .match_indices('{')
        .map(|(at, _)| at)
        .filter(|&at| at > 0 && matches!(json.as_bytes()[at - 1], b'[' | b','))
        .collect();
    let records = trace.spans.len()
        + trace.events.len()
        + trace.counters.footprint.len() * 5
        + trace.threads.len()
        + trace.decisions.len();
    assert_eq!(starts.len(), records);
    for at in starts {
        let respaced = format!("{} {}", &json[..=at], &json[at + 1..]);
        let back = Trace::from_chrome_json(&respaced)
            .unwrap_or_else(|e| panic!("record at byte {at}: {e}"));
        assert!(back == trace, "record at byte {at} read differently");
    }
}
