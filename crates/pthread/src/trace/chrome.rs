//! The Chrome/Perfetto trace-event JSON codec of a [`Trace`]: one
//! streaming exporter ([`Trace::to_chrome_json`], [`Trace::write_chrome_json`]
//! and their critical-path variants) and one single-pass parser
//! ([`Trace::from_chrome_json`]) over [`super::json`]'s writer and reader.
//! The two are exact inverses on every recorded trace.
//!
//! The parser has two paths per record. A record in the exporter's own
//! layout is read by a [`Template`] spelled with the exporter's literals
//! (the `key!` macro and the constants below) and pushed straight into
//! the trace; any other record is read by the lexer into [`Slots`]. The
//! template accepts only what the lexer reads to the same value, so no
//! verdict depends on the path: the `parse` rows of
//! `tests/golden/trace_corpus.tsv` hash the verdicts on scrambled, spaced,
//! cut and damaged documents, and
//! `every_record_layout_round_trips_and_reads_the_same_respaced` reads
//! every layout both ways. `every_record_the_exporter_writes_takes_the_template_path`
//! (`recorder.rs`) holds every record of recorded traces to the template
//! path, by a `#[cfg(test)]` tally of the records each path read.

use std::io;

use ptdf_smp::{HostPhaseStats, VirtTime};

use super::critpath::{BlameBucket, CritPath};
use super::json::{self, Reader, Scratch, Slots, Template};
use super::{
    BlockReason, Decision, DecisionKind, Event, EventKind, Span, SpanKind, ThreadLifecycle, Trace,
    TraceMeta,
};

/// `,"key":` as one literal, for [`ChromeOut`]'s member writers.
macro_rules! key {
    ($key:literal) => {
        concat!(",\"", $key, "\":")
    };
}

/// Slot index of `$key` in one of the parser's key tables, resolved at
/// compile time (an unknown key fails the build).
macro_rules! slot {
    ($keys:ident, $key:literal) => {
        const { json::key_index(&$keys, $key) }
    };
}

/// One counter track's `(virtual time, value)` samples.
type Samples = [(VirtTime, u64)];

impl Trace {
    /// Serializes to Chrome trace-event JSON (object form), loadable in
    /// `chrome://tracing` and Perfetto: spans as `"ph":"X"` durations,
    /// events as `"ph":"i"` instants, counters as `"ph":"C"` records
    /// (timestamps in microseconds). Exact nanosecond values ride in
    /// `args`, making [`Trace::from_chrome_json`] lossless.
    pub fn to_chrome_json(&self) -> String {
        self.chrome_string(None)
    }

    /// Serializes like [`Trace::to_chrome_json`], additionally rendering an
    /// analyzed critical path ([`CritPath`]) as a dedicated
    /// Perfetto track: the path's segments become `"ph":"X"` durations on
    /// `pid` 1 (the base trace uses `pid` 0), named by blame bucket, so the
    /// realized critical path reads as one swim-lane above the
    /// per-processor lanes. [`Trace::from_chrome_json`] ignores the extra
    /// track (any record with a nonzero `pid`), so the round trip of the
    /// base trace still holds.
    pub fn to_chrome_json_with_critpath(&self, cp: &CritPath) -> String {
        self.chrome_string(Some(cp))
    }

    /// Writes the [`Trace::to_chrome_json`] document to `w` in pieces of
    /// about 64 KB, so the whole text is never resident. `w` gets few,
    /// large writes; it needs no buffering of its own.
    pub fn write_chrome_json(&self, w: &mut impl io::Write) -> io::Result<()> {
        self.emit_chrome(None, &mut ChromeOut::new(FLUSH_BYTES + 1024, Some(w)))
    }

    /// Writes the [`Trace::to_chrome_json_with_critpath`] document to `w`
    /// like [`Trace::write_chrome_json`].
    pub fn write_chrome_json_with_critpath(
        &self,
        cp: &CritPath,
        w: &mut impl io::Write,
    ) -> io::Result<()> {
        self.emit_chrome(Some(cp), &mut ChromeOut::new(FLUSH_BYTES + 1024, Some(w)))
    }

    fn chrome_string(&self, cp: Option<&CritPath>) -> String {
        let mut out = ChromeOut::new(self.chrome_len_estimate(cp), None);
        self.emit_chrome(cp, &mut out)
            .expect("no writer, no I/O error");
        out.buf
    }

    /// About how long the export is: each class of record at the mean
    /// length it has in recorded traces (which moves by a few per cent
    /// between microsecond and second timestamps), so that
    /// [`Trace::chrome_string`] reserves close to what it fills — within a
    /// tenth, a test holds it to that — and does not regrow.
    pub(crate) fn chrome_len_estimate(&self, cp: Option<&CritPath>) -> usize {
        let samples: usize = self.counter_tracks().iter().map(|(_, _, t)| t.len()).sum();
        1024 + 146 * self.spans.len()
            + 122 * self.events.len()
            + 98 * samples
            + 118 * self.threads.len()
            + 64 * self.decisions.len()
            + cp.map_or(0, |cp| 180 * (cp.segments.len() + 2))
    }

    /// The counter tracks as `(track name, value key, samples)`.
    fn counter_tracks(&self) -> [(&'static str, &'static str, &Samples); 5] {
        let c = &self.counters;
        let tracks = [
            &c.footprint,
            &c.live_threads,
            &c.ready,
            &c.active_deques,
            &c.sched_lock_wait,
        ];
        std::array::from_fn(|i| (COUNTERS[i].0, COUNTERS[i].1, &tracks[i][..]))
    }

    /// The one exporter: emits the document record by record into `o`,
    /// with no intermediate tree. `cp` appends the critical-path lane to
    /// `traceEvents`.
    fn emit_chrome(&self, cp: Option<&CritPath>, o: &mut ChromeOut<'_>) -> io::Result<()> {
        o.array("{\"traceEvents\":[");
        for s in &self.spans {
            o.item(NAME)?;
            let thread = u64::from(s.thread);
            // `t5`, `dummy t5`, `t5 (resume)`.
            if s.kind == SpanKind::Dummy {
                o.lit("dummy ");
            }
            o.lit("t");
            o.num(thread);
            if s.kind == SpanKind::Resume {
                o.lit(" (resume)");
            }
            o.lit(SPAN);
            o.u64(key!("tid"), s.proc as u64);
            o.micros(key!("ts"), s.start);
            o.micros(key!("dur"), s.end.since(s.start));
            o.lit(SPAN_ARGS);
            o.num(thread);
            o.str(key!("kind"), s.kind.name());
            o.u64(key!("startNs"), s.start.as_ns());
            o.u64(key!("endNs"), s.end.as_ns());
            o.lit(CLOSE);
        }
        let id = |v: Option<u32>| v.map(u64::from);
        for e in &self.events {
            o.item(NAME)?;
            o.lit(e.kind.name());
            o.lit(INSTANT);
            o.u64(key!("tid"), e.proc as u64);
            o.micros(key!("ts"), e.at);
            o.lit(INSTANT_ARGS);
            o.num(e.at.as_ns());
            o.opt(key!("thread"), id(e.thread));
            match e.kind {
                EventKind::Spawn { parent } => o.opt(key!("parent"), id(parent)),
                EventKind::Block { reason, obj } => {
                    o.str(key!("reason"), reason.name());
                    o.opt(key!("obj"), id(obj));
                }
                EventKind::Wake { waker } => o.opt(key!("waker"), id(waker)),
                EventKind::Notify {
                    reason,
                    obj,
                    waiters,
                    woken,
                } => {
                    o.str(key!("reason"), reason.name());
                    o.u64(key!("obj"), u64::from(obj));
                    o.u64(key!("waiters"), waiters);
                    o.u64(key!("woken"), woken);
                }
                EventKind::Join { target } => o.u64(key!("target"), u64::from(target)),
                EventKind::Steal { victim } => o.opt(key!("victim"), id(victim)),
                EventKind::DummyInsert { count } => o.u64(key!("count"), count),
                EventKind::StackReserve { bytes }
                | EventKind::StackRelease { bytes }
                | EventKind::Alloc { bytes }
                | EventKind::Free { bytes }
                | EventKind::FreeUnderflow { bytes } => o.u64(key!("bytes"), bytes),
                EventKind::BoundViolation { footprint, bound } => {
                    o.u64(key!("footprint"), footprint);
                    o.u64(key!("bound"), bound);
                }
                EventKind::Timeout { obj } => o.opt(key!("obj"), id(obj)),
                EventKind::Cancel { obj, by } => {
                    o.opt(key!("obj"), id(obj));
                    o.opt(key!("by"), id(by));
                }
                EventKind::Deadlock {
                    cycle,
                    waits_for,
                    obj,
                } => {
                    o.u64(key!("cycle"), u64::from(cycle));
                    o.u64(key!("waitsFor"), u64::from(waits_for));
                    o.opt(key!("obj"), id(obj));
                }
                EventKind::FirstDispatch | EventKind::Preempt => {}
            }
            o.lit(CLOSE);
        }
        for (name, unit, track) in self.counter_tracks() {
            for &(at, v) in track {
                o.item(NAME)?;
                o.lit(name);
                o.lit(COUNTER);
                o.micros(key!("ts"), at);
                o.lit(COUNTER_ARGS);
                o.lit(unit);
                o.lit(UNIT);
                o.num(v);
                o.u64(key!("ns"), at.as_ns());
                o.lit(CLOSE);
            }
        }
        if let Some(cp) = cp {
            o.item(
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\
                 \"args\":{\"name\":\"critical path\"}}",
            )?;
            o.item(
                "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
                 \"args\":{\"name\":\"blame\"}}",
            )?;
            for seg in &cp.segments {
                o.item("{\"name\":\"")?;
                o.lit(seg.bucket.name());
                if let BlameBucket::LockWait { reason, obj } = seg.bucket {
                    o.lit(" ");
                    o.lit(reason.name());
                    if let Some(obj) = obj {
                        o.lit("#");
                        o.num(u64::from(obj));
                    }
                }
                o.lit("\",\"ph\":\"X\",\"cat\":\"critpath\",\"pid\":1,\"tid\":0");
                o.micros(key!("ts"), seg.start);
                o.micros(key!("dur"), seg.end.since(seg.start));
                o.lit(",\"args\":{\"thread\":");
                match seg.thread {
                    Some(t) => o.num(u64::from(t)),
                    None => o.lit("null"),
                }
                o.str(key!("bucket"), seg.bucket.name());
                o.u64(key!("startNs"), seg.start.as_ns());
                o.u64(key!("endNs"), seg.end.as_ns());
                o.lit("}}");
            }
        }
        // The config echo (and the host-phase profile, when present).
        o.lit("],\"otherData\":{\"scheduler\":");
        json::push_str(&mut o.buf, &self.meta.scheduler);
        o.u64(key!("processors"), self.meta.processors as u64);
        o.u64(key!("defaultStack"), self.meta.default_stack);
        o.opt(key!("quota"), self.meta.quota);
        o.opt(key!("perturbSeed"), self.meta.perturb_seed);
        o.opt(key!("chaosSeed"), self.meta.chaos_seed);
        match &self.host_phase {
            None => o.lit(",\"hostPhase\":null"),
            Some(hp) => {
                o.lit(",\"hostPhase\":{\"enabled\":");
                o.lit(if hp.enabled { "true" } else { "false" });
                for (name, p) in hp.phases() {
                    o.lit(",\"");
                    o.lit(name);
                    o.lit("\":{\"count\":");
                    o.num(p.count);
                    o.u64(key!("ns"), p.ns);
                    o.lit("}");
                }
                o.lit("}");
            }
        }
        o.array("},\"ptdfThreads\":[");
        for t in &self.threads {
            o.item(LIFECYCLE)?;
            o.num(u64::from(t.thread));
            o.u64(key!("spawnedNs"), t.spawned.as_ns());
            o.opt(
                key!("firstDispatchNs"),
                t.first_dispatch.map(VirtTime::as_ns),
            );
            o.u64(key!("readyWaitNs"), t.ready_wait.as_ns());
            o.u64(key!("quanta"), t.quanta);
            o.opt(key!("exitedNs"), t.exited.map(VirtTime::as_ns));
            o.lit("}");
        }
        o.array("],\"ptdfDecisions\":[");
        for d in &self.decisions {
            o.item(DECISION)?;
            o.lit(d.kind.name());
            o.lit("\"");
            o.u64(key!("ns"), d.at.as_ns());
            o.u64(key!("n"), u64::from(d.n));
            o.u64(key!("chosen"), u64::from(d.chosen));
            o.opt(key!("obj"), id(d.obj));
            o.lit("}");
        }
        o.lit("]}");
        o.drain()
    }

    /// Parses a trace back from [`Trace::to_chrome_json`] output. Exact:
    /// the result compares equal to the original trace.
    ///
    /// One pass over the text, no tree. The contract, for documents other
    /// tools wrote or edited: members may come in any order; the first
    /// occurrence of a key wins, whatever its type; `null` or a
    /// non-integer where an integer is looked up reads as absent; unknown
    /// members and records on a nonzero `pid` are validated and skipped;
    /// `otherData`, `ptdfThreads` and `ptdfDecisions` may sit on either
    /// side of `traceEvents`, and only `traceEvents` is required.
    pub fn from_chrome_json(text: &str) -> Result<Trace, String> {
        type Section = fn(&mut Trace, &mut Reader<'_>) -> Option<()>;
        const SECTIONS: [(&str, u8, Section); 4] = [
            ("traceEvents", b'[', Trace::read_records),
            ("otherData", b'{', Trace::read_meta),
            ("ptdfThreads", b'[', Trace::read_threads),
            ("ptdfDecisions", b'[', Trace::read_decisions),
        ];
        let mut scratch = Scratch::default();
        let mut r = Reader::new(text, &mut scratch);
        // Pooled storage, like a recorder's: in a record → export → parse
        // cycle the parsed trace refills what an earlier one gave back.
        let mut trace = Trace::new(TraceMeta::default());
        let mut seen = [false; SECTIONS.len()];
        let mut have_events = false;
        if r.peek() == Some(b'{') {
            r.object(|r, key| {
                let Some(i) = SECTIONS.iter().position(|s| s.0 == key) else {
                    return r.skip_value();
                };
                if std::mem::replace(&mut seen[i], true) || r.peek() != Some(SECTIONS[i].1) {
                    return r.skip_value();
                }
                have_events |= i == 0;
                (SECTIONS[i].2)(&mut trace, r)
            });
        } else {
            r.skip_value();
        }
        // Whatever stopped the read above is latched in `r`.
        r.finish()?;
        if !have_events {
            return Err("missing traceEvents array".into());
        }
        Ok(trace)
    }

    /// `traceEvents`: a record in the exporter's own layout is read by
    /// [`Trace::template_record`]; any other goes to the lexer, whose
    /// members land in a flat scratch (`rec` for the record, `args` for its
    /// first `args` member), reused from record to record, and
    /// [`Trace::push_record`] reads the slots.
    fn read_records(&mut self, r: &mut Reader<'_>) -> Option<()> {
        const ARGS: usize = slot!(RECORD_KEYS, "args");
        let mut rec = Slots::new(&RECORD_KEYS);
        let mut args = Slots::new(&ARG_KEYS);
        r.array(|r| {
            let templated = r.template(|t| self.template_record(t)).is_some();
            tally(!templated);
            if templated {
                return Some(());
            }
            rec.clear();
            args.clear();
            if r.peek() == Some(b'{') {
                let mut args_seen = false;
                r.object(|r, key| match rec.slot(key) {
                    // The first `args` holds the arguments; a repeat is
                    // skipped like any repeated member.
                    Some(ARGS) if !std::mem::replace(&mut args_seen, true) => args.read(r),
                    slot => rec.fill(r, slot),
                })?;
            } else {
                r.skip_value()?;
            }
            self.push_record(r, &rec, &args)
        })
    }

    /// One `traceEvents` record exactly as [`Trace::emit_chrome`] writes
    /// it, pushed straight into the trace; `None`, with nothing pushed, for
    /// a record in any other layout, or one the lexer path would refuse.
    /// A span's name is not read (its thread is in `args`), so any name
    /// without an escape matches.
    #[inline(always)]
    fn template_record(&mut self, t: &mut Template<'_>) -> Option<()> {
        t.lit(NAME)?;
        let name = t.plain()?;
        if t.lit(SPAN).is_some() {
            let proc = t.u64(key!("tid"))? as usize;
            t.fraction(key!("ts"))?;
            t.fraction(key!("dur"))?;
            let thread = t.u64(SPAN_ARGS)? as u32;
            let kind = SpanKind::from_name(t.str(key!("kind"))?)?;
            let start = VirtTime::from_ns(t.u64(key!("startNs"))?);
            let end = VirtTime::from_ns(t.u64(key!("endNs"))?);
            t.lit(CLOSE)?;
            self.spans.push(Span {
                proc,
                thread,
                start,
                end,
                kind,
            });
        } else if t.lit(INSTANT).is_some() {
            let proc = t.u64(key!("tid"))? as usize;
            t.fraction(key!("ts"))?;
            let at = VirtTime::from_ns(t.u64(INSTANT_ARGS)?);
            let id = |v: Option<u64>| v.map(|v| v as u32);
            let thread = id(t.opt(key!("thread"))?);
            let reason = |t: &mut Template<'_>| BlockReason::from_name(t.str(key!("reason"))?);
            let kind = match name {
                "spawn" => EventKind::Spawn {
                    parent: id(t.opt(key!("parent"))?),
                },
                "first-dispatch" => EventKind::FirstDispatch,
                "block" => EventKind::Block {
                    reason: reason(t)?,
                    obj: id(t.opt(key!("obj"))?),
                },
                "wake" => EventKind::Wake {
                    waker: id(t.opt(key!("waker"))?),
                },
                "notify" => EventKind::Notify {
                    reason: reason(t)?,
                    obj: t.u64(key!("obj"))? as u32,
                    waiters: t.u64(key!("waiters"))?,
                    woken: t.u64(key!("woken"))?,
                },
                "join" => EventKind::Join {
                    target: t.u64(key!("target"))? as u32,
                },
                "steal" => EventKind::Steal {
                    victim: id(t.opt(key!("victim"))?),
                },
                "dummy-insert" => EventKind::DummyInsert {
                    count: t.u64(key!("count"))?,
                },
                "preempt" => EventKind::Preempt,
                "stack-reserve" => EventKind::StackReserve {
                    bytes: t.u64(key!("bytes"))?,
                },
                "stack-release" => EventKind::StackRelease {
                    bytes: t.u64(key!("bytes"))?,
                },
                "alloc" => EventKind::Alloc {
                    bytes: t.u64(key!("bytes"))?,
                },
                "free" => EventKind::Free {
                    bytes: t.u64(key!("bytes"))?,
                },
                "free-underflow" => EventKind::FreeUnderflow {
                    bytes: t.u64(key!("bytes"))?,
                },
                "bound-violation" => EventKind::BoundViolation {
                    footprint: t.u64(key!("footprint"))?,
                    bound: t.u64(key!("bound"))?,
                },
                "timeout" => EventKind::Timeout {
                    obj: id(t.opt(key!("obj"))?),
                },
                "cancel" => EventKind::Cancel {
                    obj: id(t.opt(key!("obj"))?),
                    by: id(t.opt(key!("by"))?),
                },
                "deadlock" => EventKind::Deadlock {
                    cycle: t.u64(key!("cycle"))? as u32,
                    waits_for: t.u64(key!("waitsFor"))? as u32,
                    obj: id(t.opt(key!("obj"))?),
                },
                _ => return None,
            };
            t.lit(CLOSE)?;
            self.events.push(Event {
                at,
                proc,
                thread,
                kind,
            });
        } else {
            t.lit(COUNTER)?;
            let track = COUNTERS.iter().position(|&(track, _)| track == name)?;
            t.fraction(key!("ts"))?;
            t.lit(COUNTER_ARGS)?;
            t.lit(COUNTERS[track].1)?;
            t.lit(UNIT)?;
            let value = t.num()?;
            let at = VirtTime::from_ns(t.u64(key!("ns"))?);
            t.lit(CLOSE)?;
            self.counters.tracks_mut()[track].push((at, value));
        }
        Some(())
    }

    fn push_record(
        &mut self,
        r: &mut Reader<'_>,
        rec: &Slots<'_, { RECORD_KEYS.len() }>,
        args: &Slots<'_, { ARG_KEYS.len() }>,
    ) -> Option<()> {
        // Auxiliary tracks (the critical-path lane, metadata records)
        // live on nonzero pids; the recorded trace itself is pid 0.
        if rec.u64(slot!(RECORD_KEYS, "pid")).unwrap_or(0) != 0 {
            return Some(());
        }
        let ph = r.require(rec.str(slot!(RECORD_KEYS, "ph")), "record without ph")?;
        let name = rec.str(slot!(RECORD_KEYS, "name")).unwrap_or("");
        let proc = rec.u64(slot!(RECORD_KEYS, "tid")).unwrap_or(0) as usize;
        macro_rules! arg_u64 {
            ($key:literal) => {
                args.u64(slot!(ARG_KEYS, $key))
            };
        }
        macro_rules! arg_str {
            ($key:literal) => {
                args.str(slot!(ARG_KEYS, $key))
            };
        }
        match ph {
            "X" => {
                let kind = r.require(
                    arg_str!("kind").and_then(SpanKind::from_name),
                    "span without kind",
                )?;
                self.spans.push(Span {
                    proc,
                    thread: r.require(arg_u64!("thread"), "span without thread")? as u32,
                    start: VirtTime::from_ns(
                        r.require(arg_u64!("startNs"), "span without startNs")?,
                    ),
                    end: VirtTime::from_ns(r.require(arg_u64!("endNs"), "span without endNs")?),
                    kind,
                });
            }
            "i" => {
                let kind = match name {
                    "spawn" => EventKind::Spawn {
                        parent: arg_u64!("parent").map(|v| v as u32),
                    },
                    "first-dispatch" => EventKind::FirstDispatch,
                    "block" => EventKind::Block {
                        reason: r.require(
                            arg_str!("reason").and_then(BlockReason::from_name),
                            "block without reason",
                        )?,
                        obj: arg_u64!("obj").map(|v| v as u32),
                    },
                    "wake" => EventKind::Wake {
                        waker: arg_u64!("waker").map(|v| v as u32),
                    },
                    "notify" => EventKind::Notify {
                        reason: r.require(
                            arg_str!("reason").and_then(BlockReason::from_name),
                            "notify without reason",
                        )?,
                        obj: r.require(arg_u64!("obj"), "notify without obj")? as u32,
                        waiters: r.require(arg_u64!("waiters"), "notify without waiters")?,
                        woken: r.require(arg_u64!("woken"), "notify without woken")?,
                    },
                    "join" => EventKind::Join {
                        target: r.require(arg_u64!("target"), "join without target")? as u32,
                    },
                    "steal" => EventKind::Steal {
                        victim: arg_u64!("victim").map(|v| v as u32),
                    },
                    "dummy-insert" => EventKind::DummyInsert {
                        count: r.require(arg_u64!("count"), "dummy-insert without count")?,
                    },
                    "preempt" => EventKind::Preempt,
                    "stack-reserve" => EventKind::StackReserve {
                        bytes: r.require(arg_u64!("bytes"), "stack-reserve without bytes")?,
                    },
                    "stack-release" => EventKind::StackRelease {
                        bytes: r.require(arg_u64!("bytes"), "stack-release without bytes")?,
                    },
                    "alloc" => EventKind::Alloc {
                        bytes: r.require(arg_u64!("bytes"), "alloc without bytes")?,
                    },
                    "free-underflow" => EventKind::FreeUnderflow {
                        bytes: r.require(arg_u64!("bytes"), "free-underflow without bytes")?,
                    },
                    "bound-violation" => EventKind::BoundViolation {
                        footprint: r
                            .require(arg_u64!("footprint"), "bound-violation without footprint")?,
                        bound: r.require(arg_u64!("bound"), "bound-violation without bound")?,
                    },
                    "free" => EventKind::Free {
                        bytes: r.require(arg_u64!("bytes"), "free without bytes")?,
                    },
                    "timeout" => EventKind::Timeout {
                        obj: arg_u64!("obj").map(|v| v as u32),
                    },
                    "cancel" => EventKind::Cancel {
                        obj: arg_u64!("obj").map(|v| v as u32),
                        by: arg_u64!("by").map(|v| v as u32),
                    },
                    "deadlock" => EventKind::Deadlock {
                        cycle: r.require(arg_u64!("cycle"), "deadlock without cycle")? as u32,
                        waits_for: r.require(arg_u64!("waitsFor"), "deadlock without waitsFor")?
                            as u32,
                        obj: arg_u64!("obj").map(|v| v as u32),
                    },
                    other => return r.fail(format!("unknown instant event {other:?}")),
                };
                self.events.push(Event {
                    at: VirtTime::from_ns(r.require(arg_u64!("ns"), "event without ns")?),
                    proc,
                    thread: arg_u64!("thread").map(|v| v as u32),
                    kind,
                });
            }
            "C" => {
                let at = VirtTime::from_ns(r.require(arg_u64!("ns"), "counter without ns")?);
                let c = &mut self.counters;
                let (track, value) = match name {
                    "footprint" => (Some(&mut c.footprint), arg_u64!("bytes")),
                    "live-threads" => (Some(&mut c.live_threads), arg_u64!("threads")),
                    "ready" => (Some(&mut c.ready), arg_u64!("entries")),
                    "active-deques" => (Some(&mut c.active_deques), arg_u64!("deques")),
                    "sched-lock-wait" => (Some(&mut c.sched_lock_wait), arg_u64!("waitNs")),
                    // A track older documents carry: read, then dropped.
                    "host-pool-cached" => (None, arg_u64!("bytes")),
                    other => return r.fail(format!("unknown counter {other:?}")),
                };
                let value = r.require(value, "counter without value")?;
                if let Some(track) = track {
                    track.push((at, value));
                }
            }
            other => return r.fail(format!("unknown phase {other:?}")),
        }
        Some(())
    }

    /// `otherData`: the config echo and, when its first `hostPhase` member
    /// is an object carrying `enabled`, the host-phase profile.
    fn read_meta(&mut self, r: &mut Reader<'_>) -> Option<()> {
        const PHASE_KEYS: [&str; 2] = ["count", "ns"];
        let mut meta = Slots::new(&META_KEYS);
        let mut enabled = Slots::new(&["enabled"]);
        let mut phase = Slots::new(&PHASE_KEYS);
        let mut stats = HostPhaseStats::default();
        let mut phases = [
            ("heap_push", &mut stats.heap_push, false),
            ("heap_pop", &mut stats.heap_pop, false),
            ("charge", &mut stats.charge, false),
            ("sched_lock", &mut stats.sched_lock, false),
            ("sched_pop", &mut stats.sched_pop, false),
            ("dispatch", &mut stats.dispatch, false),
            ("trace_alloc", &mut stats.trace_alloc, false),
        ];
        let mut hp_seen = false;
        r.object(|r, key| {
            if key != "hostPhase" || std::mem::replace(&mut hp_seen, true) || r.peek() != Some(b'{')
            {
                return meta.member(r, key);
            }
            r.object(|r, key| {
                match phases
                    .iter_mut()
                    .find(|(name, _, seen)| *name == key && !*seen)
                {
                    Some((_, slot, seen)) => {
                        *seen = true;
                        phase.read(r)?;
                        slot.count = phase.u64(slot!(PHASE_KEYS, "count")).unwrap_or(0);
                        slot.ns = phase.u64(slot!(PHASE_KEYS, "ns")).unwrap_or(0);
                        Some(())
                    }
                    None => enabled.member(r, key),
                }
            })
        })?;
        self.meta = TraceMeta {
            scheduler: meta
                .str(slot!(META_KEYS, "scheduler"))
                .unwrap_or_default()
                .to_string(),
            processors: meta.u64(slot!(META_KEYS, "processors")).unwrap_or(0) as usize,
            default_stack: meta.u64(slot!(META_KEYS, "defaultStack")).unwrap_or(0),
            quota: meta.u64(slot!(META_KEYS, "quota")),
            perturb_seed: meta.u64(slot!(META_KEYS, "perturbSeed")),
            chaos_seed: meta.u64(slot!(META_KEYS, "chaosSeed")),
        };
        if enabled.get(0).is_some() {
            stats.enabled = enabled.bool(0).unwrap_or(false);
            self.host_phase = Some(stats);
        }
        Some(())
    }

    /// `ptdfThreads`: the per-thread lifecycle table.
    fn read_threads(&mut self, r: &mut Reader<'_>) -> Option<()> {
        let mut t = Slots::new(&LIFECYCLE_KEYS);
        macro_rules! u {
            ($key:literal) => {
                t.u64(slot!(LIFECYCLE_KEYS, $key))
            };
        }
        r.array(|r| {
            let row = r.template(|t| {
                t.lit(LIFECYCLE)?;
                let thread = t.num()? as u32;
                let spawned = VirtTime::from_ns(t.u64(key!("spawnedNs"))?);
                let first_dispatch = t.opt(key!("firstDispatchNs"))?.map(VirtTime::from_ns);
                let ready_wait = VirtTime::from_ns(t.u64(key!("readyWaitNs"))?);
                let quanta = t.u64(key!("quanta"))?;
                let exited = t.opt(key!("exitedNs"))?.map(VirtTime::from_ns);
                t.lit("}")?;
                Some(ThreadLifecycle {
                    thread,
                    spawned,
                    first_dispatch,
                    ready_wait,
                    quanta,
                    exited,
                })
            });
            tally(row.is_none());
            if let Some(row) = row {
                self.threads.push(row);
                return Some(());
            }
            t.read(r)?;
            self.threads.push(ThreadLifecycle {
                thread: r.require(u!("thread"), "lifecycle without thread")? as u32,
                spawned: VirtTime::from_ns(
                    r.require(u!("spawnedNs"), "lifecycle without spawnedNs")?,
                ),
                first_dispatch: u!("firstDispatchNs").map(VirtTime::from_ns),
                ready_wait: VirtTime::from_ns(u!("readyWaitNs").unwrap_or(0)),
                quanta: u!("quanta").unwrap_or(0),
                exited: u!("exitedNs").map(VirtTime::from_ns),
            });
            Some(())
        })
    }

    /// `ptdfDecisions`: the schedule decision log. Absent in documents
    /// written before the log existed, which load with an empty one.
    fn read_decisions(&mut self, r: &mut Reader<'_>) -> Option<()> {
        let mut d = Slots::new(&DECISION_KEYS);
        macro_rules! u {
            ($key:literal) => {
                d.u64(slot!(DECISION_KEYS, $key))
            };
        }
        r.array(|r| {
            let decision = r.template(|t| {
                t.lit(DECISION)?;
                let kind = DecisionKind::from_name(t.plain()?)?;
                t.lit("\"")?;
                let at = VirtTime::from_ns(t.u64(key!("ns"))?);
                let n = t.u64(key!("n"))? as u32;
                let chosen = t.u64(key!("chosen"))? as u32;
                let obj = t.opt(key!("obj"))?.map(|o| o as u32);
                t.lit("}")?;
                Some(Decision {
                    kind,
                    at,
                    n,
                    chosen,
                    obj,
                })
            });
            tally(decision.is_none());
            if let Some(decision) = decision {
                self.decisions.push(decision);
                return Some(());
            }
            d.read(r)?;
            self.decisions.push(Decision {
                kind: r.require(
                    d.str(slot!(DECISION_KEYS, "k"))
                        .and_then(DecisionKind::from_name),
                    "decision without kind",
                )?,
                at: VirtTime::from_ns(r.require(u!("ns"), "decision without ns")?),
                n: r.require(u!("n"), "decision without n")? as u32,
                chosen: r.require(u!("chosen"), "decision without chosen")? as u32,
                obj: u!("obj").map(|o| o as u32),
            });
            Some(())
        })
    }
}

/// The record literals longer than one `key!`, shared by the exporter and
/// the template reader: a record's opening up to its name, the phase and
/// `pid` after the name, the opening of `args`, the close.
const NAME: &str = "{\"name\":\"";
const SPAN: &str = "\",\"ph\":\"X\",\"pid\":0";
const INSTANT: &str = "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0";
const COUNTER: &str = "\",\"ph\":\"C\",\"pid\":0";
const SPAN_ARGS: &str = ",\"args\":{\"thread\":";
const INSTANT_ARGS: &str = ",\"args\":{\"ns\":";
const COUNTER_ARGS: &str = ",\"args\":{\"";
const UNIT: &str = "\":";
const CLOSE: &str = "}}";
const LIFECYCLE: &str = "{\"thread\":";
const DECISION: &str = "{\"k\":\"";

/// The counter tracks as `(track name, value key)`, in the order of
/// [`Counters::tracks_mut`](super::Counters::tracks_mut).
const COUNTERS: [(&str, &str); 5] = [
    ("footprint", "bytes"),
    ("live-threads", "threads"),
    ("ready", "entries"),
    ("active-deques", "deques"),
    ("sched-lock-wait", "waitNs"),
];

#[cfg(test)]
thread_local! {
    /// Records read by the template (`[0]`) and by the lexer (`[1]`).
    static TALLY: std::cell::Cell<[usize; 2]> = const { std::cell::Cell::new([0; 2]) };
}

/// Counts a record of `traceEvents`, `ptdfThreads` or `ptdfDecisions` the
/// lexer read (`true`) or the template did, for the test that every record
/// the exporter writes takes the template path.
#[cfg(test)]
fn tally(lexed: bool) {
    TALLY.with(|t| {
        let mut n = t.get();
        n[usize::from(lexed)] += 1;
        t.set(n);
    });
}

#[cfg(not(test))]
#[inline(always)]
fn tally(_lexed: bool) {}

/// The records this thread's parses read by the template and by the lexer
/// since the last call, which sets both counts back to zero.
#[cfg(test)]
pub(crate) fn take_tally() -> [usize; 2] {
    TALLY.with(|t| t.replace([0; 2]))
}

/// The members [`Trace::from_chrome_json`]'s lexer path reads, per object
/// kind (hot keys first); every other member is validated and skipped.
/// `args` is read by [`Trace::read_records`].
const RECORD_KEYS: [&str; 5] = ["name", "ph", "pid", "tid", "args"];
const ARG_KEYS: [&str; 24] = [
    "ns",
    "thread",
    "obj",
    "reason",
    "kind",
    "startNs",
    "endNs",
    "bytes",
    "waker",
    "parent",
    "target",
    "waiters",
    "woken",
    "victim",
    "count",
    "footprint",
    "bound",
    "by",
    "cycle",
    "waitsFor",
    "threads",
    "entries",
    "deques",
    "waitNs",
];
const META_KEYS: [&str; 6] = [
    "scheduler",
    "processors",
    "defaultStack",
    "quota",
    "perturbSeed",
    "chaosSeed",
];
const LIFECYCLE_KEYS: [&str; 6] = [
    "thread",
    "spawnedNs",
    "firstDispatchNs",
    "readyWaitNs",
    "quanta",
    "exitedNs",
];
const DECISION_KEYS: [&str; 5] = ["k", "ns", "n", "chosen", "obj"];

/// [`Trace::write_chrome_json`] hands its buffer to the writer whenever it
/// has grown past this.
pub(crate) const FLUSH_BYTES: usize = 64 * 1024;

/// Below this many nanoseconds, `ns as f64 / 1e3` printed by `f64`'s
/// `Display` *is* the exact decimal `q.rrr` (see [`ChromeOut::micros`]).
const EXACT_MICROS_BELOW_NS: u64 = 1_000_000_000_000_000;

/// Output side of the Chrome exporter: text accumulates in `buf`, which is
/// handed to `writer` (when there is one) each time an array element starts
/// with more than [`FLUSH_BYTES`] pending.
struct ChromeOut<'w> {
    buf: String,
    writer: Option<&'w mut dyn io::Write>,
    /// Whether the open array already has an element.
    comma: bool,
}

impl<'w> ChromeOut<'w> {
    fn new(capacity: usize, writer: Option<&'w mut dyn io::Write>) -> Self {
        ChromeOut {
            buf: String::with_capacity(capacity),
            writer,
            comma: false,
        }
    }

    fn drain(&mut self) -> io::Result<()> {
        if let Some(w) = &mut self.writer {
            w.write_all(self.buf.as_bytes())?;
            self.buf.clear();
        }
        Ok(())
    }

    fn lit(&mut self, text: &str) {
        self.buf.push_str(text);
    }

    fn num(&mut self, v: u64) {
        json::push_u64(&mut self.buf, v);
    }

    /// Opens an array; `open` is everything up to and including its `[`.
    fn array(&mut self, open: &str) {
        self.lit(open);
        self.comma = false;
    }

    /// Starts an element of the open array; `open` is its first bytes.
    fn item(&mut self, open: &str) -> io::Result<()> {
        if self.buf.len() >= FLUSH_BYTES {
            self.drain()?;
        }
        if std::mem::replace(&mut self.comma, true) {
            self.buf.push(',');
        }
        self.lit(open);
        Ok(())
    }

    fn u64(&mut self, key: &str, v: u64) {
        self.lit(key);
        self.num(v);
    }

    fn opt(&mut self, key: &str, v: Option<u64>) {
        self.lit(key);
        match v {
            Some(v) => self.num(v),
            None => self.lit("null"),
        }
    }

    fn str(&mut self, key: &str, s: &str) {
        self.lit(key);
        json::push_str(&mut self.buf, s);
    }

    /// `t` in microseconds, as `ns as f64 / 1e3` prints. Below 10^15 ns the
    /// quotient `q.rrr` has at most 15 significant digits, and a decimal
    /// that short survives the trip through `f64` unchanged — so the
    /// shortest representation `Display` searches for is the exact decimal
    /// itself, trailing zeros trimmed, and integer arithmetic writes it
    /// directly. From 10^15 ns up the float itself is formatted.
    fn micros(&mut self, key: &str, t: VirtTime) {
        self.lit(key);
        let ns = t.as_ns();
        if ns >= EXACT_MICROS_BELOW_NS {
            return json::push_f64(&mut self.buf, ns as f64 / 1e3);
        }
        self.num(ns / 1000);
        self.buf.push('.');
        // Trailing zeros are trimmed, but one digit stays after the point.
        let frac = ns % 1000;
        if frac.is_multiple_of(100) {
            json::push_digit(&mut self.buf, (frac / 100) as u8);
        } else if frac.is_multiple_of(10) {
            json::push_pair(&mut self.buf, (frac / 10) as u8);
        } else {
            json::push_digit(&mut self.buf, (frac / 100) as u8);
            json::push_pair(&mut self.buf, (frac % 100) as u8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::json::Value;
    use crate::trace::Counters;
    use ptdf_smp::Prng;

    /// Documents from before the `host-pool-cached` track was removed still
    /// load: its samples are read, checked like any counter's, and dropped.
    #[test]
    fn legacy_pool_track_samples_load_and_are_dropped() {
        let counter = |name: &str, args: &str| {
            format!(r#"{{"name":"{name}","ph":"C","pid":0,"ts":0.002,"args":{{{args}}}}}"#)
        };
        let text = format!(
            r#"{{"traceEvents":[{},{},{}],"otherData":{{"scheduler":"df"}}}}"#,
            counter("host-pool-cached", r#""bytes":65536,"ns":2"#),
            counter("ready", r#""entries":3,"ns":2"#),
            counter("host-pool-cached", r#""bytes":0,"ns":2"#),
        );
        let t = Trace::from_chrome_json(&text).expect("a legacy document loads");
        let ready = vec![(VirtTime::from_ns(2), 3)];
        assert_eq!(
            t.counters,
            Counters {
                ready,
                ..Counters::default()
            }
        );
        assert!(!t.to_chrome_json().contains("host-pool-cached"));
        let text = format!(
            r#"{{"traceEvents":[{}]}}"#,
            counter("host-pool-cached", r#""ns":2"#)
        );
        assert_eq!(
            Trace::from_chrome_json(&text).unwrap_err(),
            "counter without value"
        );
    }

    #[test]
    fn chrome_json_round_trips_zero_count_host_phase() {
        // A profiled run that never exercised a phase exports that phase
        // with count 0 / ns 0; the round trip must preserve it instead of
        // dropping the entry or conjuring a different default.
        let mut trace = Trace::default();
        trace.meta.scheduler = "df".to_string();
        trace.host_phase = Some(HostPhaseStats {
            enabled: true,
            ..HostPhaseStats::default()
        });
        let back = Trace::from_chrome_json(&trace.to_chrome_json()).expect("parse back");
        assert_eq!(back, trace, "all-zero host_phase must survive");
        // Same with the profile disabled (enabled=false, all zero).
        trace.host_phase = Some(HostPhaseStats::default());
        let back = Trace::from_chrome_json(&trace.to_chrome_json()).expect("parse back");
        assert_eq!(back, trace, "disabled host_phase must survive");
        // And with a mix of zero and nonzero phases.
        let mut hp = HostPhaseStats {
            enabled: true,
            ..HostPhaseStats::default()
        };
        hp.charge.count = 9;
        hp.charge.ns = 4321;
        trace.host_phase = Some(hp);
        let back = Trace::from_chrome_json(&trace.to_chrome_json()).expect("parse back");
        assert_eq!(back, trace, "mixed zero/nonzero host_phase must survive");
    }

    #[test]
    fn micros_match_float_display_on_both_sides_of_the_boundary() {
        let exact = |ns: u64| {
            let mut out = ChromeOut::new(0, None);
            out.micros("", VirtTime::from_ns(ns));
            out.buf
        };
        let display = |ns: u64| Value::Float(ns as f64 / 1e3).to_json();
        for ns in 0..200_000 {
            assert_eq!(exact(ns), display(ns), "{ns}");
        }
        let mut rng = Prng::new(0x2545_f491_4f6c_dd1d);
        for _ in 0..200_000 {
            // Every magnitude up to the boundary, and some past it.
            let ns = rng.next_u64() % 10u64.pow(1 + rng.below(17) as u32);
            assert_eq!(exact(ns), display(ns), "{ns}");
        }
        for ns in [
            EXACT_MICROS_BELOW_NS - 1_001,
            EXACT_MICROS_BELOW_NS - 1_000,
            EXACT_MICROS_BELOW_NS - 1,
            EXACT_MICROS_BELOW_NS,
            EXACT_MICROS_BELOW_NS + 1,
            u64::MAX,
        ] {
            assert_eq!(exact(ns), display(ns), "{ns}");
        }
        assert_eq!(exact(0), "0.0");
        assert_eq!(exact(1_500), "1.5");
        assert_eq!(exact(999_999_999_999_999), "999999999999.999");
    }

    #[test]
    fn every_parse_error_still_has_its_message() {
        let doc = |records: &str| format!(r#"{{"traceEvents":[{records}]}}"#);
        let rec = |ph: &str, name: &str, args: &str| {
            doc(&format!(
                r#"{{"ph":"{ph}","name":"{name}","args":{{{args}}}}}"#
            ))
        };
        let sections = |rest: &str| format!(r#"{{"traceEvents":[],{rest}}}"#);
        let ns = r#""ns":1"#;
        for (text, want) in [
            ("{}".to_string(), "missing traceEvents array"),
            ("[]".into(), "missing traceEvents array"),
            ("7".into(), "missing traceEvents array"),
            (r#"{"traceEvents":{}}"#.into(), "missing traceEvents array"),
            // The first occurrence decides, even when a later one would do.
            (
                r#"{"traceEvents":null,"traceEvents":[]}"#.into(),
                "missing traceEvents array",
            ),
            (
                r#"{"traceEvents":[]} x"#.into(),
                "trailing garbage at byte 19",
            ),
            (
                r#"{"traceEvents":[]}{}"#.into(),
                "trailing garbage at byte 18",
            ),
            (r#"{"traceEvents":["#.into(), "unexpected end of input"),
            (
                doc(&"[".repeat(200_000)),
                "nesting deeper than 128 at byte 142",
            ),
            (doc("{}"), "record without ph"),
            (doc("7"), "record without ph"),
            (doc(r#"{"ph":7}"#), "record without ph"),
            (doc(r#"{"ph":"Q"}"#), r#"unknown phase "Q""#),
            (rec("X", "t1", ""), "span without kind"),
            (rec("X", "t1", r#""kind":"walk""#), "span without kind"),
            (rec("X", "t1", r#""kind":"run""#), "span without thread"),
            (
                rec("X", "t1", r#""kind":"run","thread":1"#),
                "span without startNs",
            ),
            (
                rec(
                    "X",
                    "t1",
                    r#""kind":"run","thread":1,"startNs":1.5,"endNs":2"#,
                ),
                "span without startNs",
            ),
            (
                rec(
                    "X",
                    "t1",
                    r#""kind":"run","thread":1,"startNs":1,"endNs":null"#,
                ),
                "span without endNs",
            ),
            (
                rec("i", "teleport", ns),
                r#"unknown instant event "teleport""#,
            ),
            (rec("i", "block", ns), "block without reason"),
            (
                rec("i", "block", r#""reason":"nap""#),
                "block without reason",
            ),
            (rec("i", "notify", ns), "notify without reason"),
            (
                rec("i", "notify", r#""reason":"mutex""#),
                "notify without obj",
            ),
            (
                rec("i", "notify", r#""reason":"mutex","obj":1"#),
                "notify without waiters",
            ),
            (
                rec("i", "notify", r#""reason":"mutex","obj":1,"waiters":1"#),
                "notify without woken",
            ),
            (rec("i", "join", ns), "join without target"),
            (rec("i", "dummy-insert", ns), "dummy-insert without count"),
            (rec("i", "stack-reserve", ns), "stack-reserve without bytes"),
            (rec("i", "stack-release", ns), "stack-release without bytes"),
            (rec("i", "alloc", ns), "alloc without bytes"),
            (rec("i", "free", ns), "free without bytes"),
            (
                rec("i", "free-underflow", ns),
                "free-underflow without bytes",
            ),
            (
                rec("i", "bound-violation", ns),
                "bound-violation without footprint",
            ),
            (
                rec("i", "bound-violation", r#""footprint":1"#),
                "bound-violation without bound",
            ),
            (rec("i", "deadlock", ns), "deadlock without cycle"),
            (
                rec("i", "deadlock", r#""cycle":1"#),
                "deadlock without waitsFor",
            ),
            (rec("i", "preempt", ""), "event without ns"),
            (rec("i", "preempt", r#""ns":-1"#), "event without ns"),
            (rec("C", "ready", ""), "counter without ns"),
            (rec("C", "mood", ns), r#"unknown counter "mood""#),
            (rec("C", "ready", ns), "counter without value"),
            (
                rec("C", "ready", r#""ns":1,"bytes":4"#),
                "counter without value",
            ),
            (
                sections(r#""ptdfThreads":[{}]"#),
                "lifecycle without thread",
            ),
            (sections(r#""ptdfThreads":[7]"#), "lifecycle without thread"),
            (
                sections(r#""ptdfThreads":[{"thread":1}]"#),
                "lifecycle without spawnedNs",
            ),
            (sections(r#""ptdfDecisions":[{}]"#), "decision without kind"),
            (
                sections(r#""ptdfDecisions":[{"k":"coin"}]"#),
                "decision without kind",
            ),
            (
                sections(r#""ptdfDecisions":[{"k":"grant"}]"#),
                "decision without ns",
            ),
            (
                sections(r#""ptdfDecisions":[{"k":"grant","ns":1}]"#),
                "decision without n",
            ),
            (
                sections(r#""ptdfDecisions":[{"k":"grant","ns":1,"n":2}]"#),
                "decision without chosen",
            ),
        ] {
            let shown = &text[..text.len().min(120)];
            match Trace::from_chrome_json(&text) {
                Err(e) => assert_eq!(e, want, "{shown}"),
                Ok(_) => panic!("{shown} parsed; want {want:?}"),
            }
        }
        // A number JSON forbids is an error, also where nobody converts it.
        for (member, token) in [
            (r#""ts":+1.5"#, "+1.5"),
            (r#""ts":.5"#, ".5"),
            (r#""args":{"ns":0005}"#, "0005"),
        ] {
            let text = doc(&format!(r#"{{"ph":"i","name":"preempt",{member}}}"#));
            let at = text.find(token).expect("the token is in the document");
            assert_eq!(
                Trace::from_chrome_json(&text).unwrap_err(),
                format!("invalid number {token:?} at byte {at}")
            );
        }
        // A value that does not start like any token names no token.
        for (records, at) in [
            (r#"{"ph":"i","args":[1,]}"#, 36),
            (r#"{"ph":"i","args":{"a":}}"#, 38),
            (r#"{"ph":"i","args":{"a":x}}"#, 38),
        ] {
            assert_eq!(
                Trace::from_chrome_json(&doc(records)).unwrap_err(),
                format!("invalid number at byte {at}")
            );
        }
        // The lenient side of the same contract: what is *not* an error.
        for text in [
            doc(""),
            doc(r#"{"pid":1}"#),
            doc(r#"{"pid":1,"ph":"Q","args":[{}]}"#),
            doc(r#"{"pid":null,"pid":1,"ph":"i","name":"preempt","args":{"ns":1}}"#),
            sections(r#""ptdfThreads":7,"ptdfDecisions":null,"otherData":[]"#),
            sections(r#""otherData":{"hostPhase":{"charge":7,"enabled":null}}"#),
            " \n{ \"otherData\" : { } , \"traceEvents\" : [ ] }\t".to_string(),
        ] {
            assert!(Trace::from_chrome_json(&text).is_ok(), "{text}");
        }
    }
}
