//! The flight recorder's engine side: the one place the runtime writes a
//! [`Trace`]. The engine hands every record and lifecycle note to
//! [`Recorder::emit`] as an [`Emission`]; the recorder owns the
//! `Option<Trace>` (so the trace-off path is one discriminant test per
//! site, and the emission is never even built) and the host profiler's
//! `trace_alloc` window, which brackets every event and span pushed and
//! nothing else. At run end [`Recorder::finish`] folds in the machine's
//! recording, the decision log and the host-phase profile.

use ptdf_smp::{HostPhaseStats, Machine, MachineRecording, MemEventKind, ProcId, VirtTime};

use crate::config::Config;
use crate::oracle::Resolver;
use crate::trace::{Event, EventKind, Span, ThreadLifecycle, Trace, TraceMeta};

/// When tracing, heap allocs/frees of at least this many bytes record an
/// event of their own; smaller ones only move the footprint counter track.
const TRACE_ALLOC_THRESHOLD: u64 = 4096;

/// What the engine tells the recorder. Events and spans are records (each
/// inside its own `trace_alloc` window); the rest update a thread's
/// lifecycle row or a counter track in place.
pub(crate) enum Emission {
    /// An event of the taxonomy; `Spawn` and `FirstDispatch` also stamp the
    /// subject's lifecycle row.
    Event(Event),
    /// One quantum on one processor.
    Span(Span),
    /// A dispatch of `thread` at `at`: one more quantum, after `ready_wait`
    /// in the ready set (when it was ready rather than handed off), and the
    /// `FirstDispatch` event at `first_run` (processor, time) on its first.
    Dispatch {
        thread: u32,
        at: VirtTime,
        ready_wait: Option<VirtTime>,
        first_run: Option<(ProcId, VirtTime)>,
    },
    /// `thread` exited at `at`.
    Exit { thread: u32, at: VirtTime },
    /// The ready-set size (and live-deque count, for deque policies) a
    /// dispatching pop saw; unchanged values are not sampled again.
    Sample {
        at: VirtTime,
        ready: u64,
        deques: Option<u64>,
    },
}

impl Emission {
    /// An event with a subject thread (every event the runtime records has
    /// one; only the machine's memory events do not).
    pub(crate) fn event(at: VirtTime, proc: ProcId, thread: u32, kind: EventKind) -> Self {
        Emission::Event(Event {
            at,
            proc,
            thread: Some(thread),
            kind,
        })
    }
}

/// The engine's flight recorder: a trace under construction, or nothing.
#[derive(Default)]
pub(crate) struct Recorder(Option<Trace>);

impl Recorder {
    /// Off unless `config` traces; when it does, the machine records its
    /// memory events and exact counter tracks too.
    pub(crate) fn new(config: &Config, machine: &mut Machine) -> Self {
        if !config.trace {
            return Recorder(None);
        }
        machine.enable_recording(TRACE_ALLOC_THRESHOLD);
        Recorder(Some(Trace::new(TraceMeta {
            scheduler: config.scheduler.name().to_string(),
            processors: config.processors,
            default_stack: config.default_stack,
            quota: config.scheduler.has_quota().then_some(config.quota),
            perturb_seed: config.schedule.perturb_seed(),
            chaos_seed: config.schedule.chaos_seed(),
        })))
    }

    /// The one emission hook. With tracing off this is one discriminant
    /// test and `what` never runs; with it on, `what` builds the emission
    /// from the machine as it stands, and each event or span it carries is
    /// pushed inside one `trace_alloc` profiler window, so the profile's
    /// `trace_alloc.count` is exactly the records the runtime emitted.
    #[inline(always)]
    pub(crate) fn emit(&mut self, machine: &mut Machine, what: impl FnOnce(&Machine) -> Emission) {
        if let Some(trace) = &mut self.0 {
            take(trace, machine, what(machine));
        }
    }

    /// The finished trace, if recording: the machine's memory events and
    /// counter tracks merged in and everything sorted onto the virtual
    /// timeline, the schedule's decision log attached (engine order, never
    /// sorted), and the host-phase profile when the run was profiled.
    pub(crate) fn finish(
        self,
        recording: Option<MachineRecording>,
        schedule: &mut Resolver,
        host_phase: HostPhaseStats,
    ) -> Option<Trace> {
        let mut trace = self.0?;
        if let Some(rec) = recording {
            absorb_machine(&mut trace, rec);
        }
        trace.decisions = schedule.take_log();
        trace.host_phase = host_phase.enabled.then_some(host_phase);
        Some(trace)
    }
}

/// [`Recorder::emit`]'s work once tracing is known to be on.
fn take(trace: &mut Trace, machine: &mut Machine, emission: Emission) {
    let event = match emission {
        Emission::Event(e) => e,
        Emission::Span(s) => return windowed(machine, || trace.spans.push(s)),
        Emission::Dispatch {
            thread,
            at,
            ready_wait,
            first_run,
        } => {
            lifecycle_mut(trace, thread, at).quanta += 1;
            if let Some(wait) = ready_wait {
                lifecycle_mut(trace, thread, VirtTime::ZERO).ready_wait += wait;
            }
            let Some((proc, at)) = first_run else { return };
            Event {
                at,
                proc,
                thread: Some(thread),
                kind: EventKind::FirstDispatch,
            }
        }
        Emission::Exit { thread, at } => {
            lifecycle_mut(trace, thread, at).exited = Some(at);
            return;
        }
        Emission::Sample { at, ready, deques } => {
            sample(&mut trace.counters.ready, at, ready);
            if let Some(n) = deques {
                sample(&mut trace.counters.active_deques, at, n);
            }
            return;
        }
    };
    windowed(machine, || push_event(trace, event));
}

/// Runs `push` inside one `trace_alloc` profiler window.
fn windowed(machine: &mut Machine, push: impl FnOnce()) {
    let win = machine.prof_open();
    push();
    machine.prof_close(win, |hp| &mut hp.trace_alloc);
}

/// `thread`'s lifecycle row, creating rows up to it (spawned at
/// `spawned_hint`) if it has none yet.
fn lifecycle_mut(trace: &mut Trace, thread: u32, spawned_hint: VirtTime) -> &mut ThreadLifecycle {
    let idx = thread as usize;
    while trace.threads.len() <= idx {
        let t = trace.threads.len() as u32;
        trace.threads.push(ThreadLifecycle::new(t, spawned_hint));
    }
    &mut trace.threads[idx]
}

/// Pushes `e`, stamping the lifecycle row for the lifecycle-bearing kinds.
fn push_event(trace: &mut Trace, e: Event) {
    if let Some(t) = e.thread {
        match e.kind {
            EventKind::Spawn { .. } => lifecycle_mut(trace, t, e.at).spawned = e.at,
            EventKind::FirstDispatch => {
                let lc = lifecycle_mut(trace, t, e.at);
                if lc.first_dispatch.is_none() {
                    lc.first_dispatch = Some(e.at);
                }
            }
            _ => {}
        }
    }
    trace.events.push(e);
}

/// Appends `(at, v)` to `track` unless `v` is its last value.
fn sample(track: &mut Vec<(VirtTime, u64)>, at: VirtTime, v: u64) {
    if track.last().map(|&(_, last)| last) != Some(v) {
        track.push((at, v));
    }
}

/// Merges the machine-level recording (memory events, exactly-sampled
/// footprint/live-thread/lock-wait tracks) and sorts the merged event
/// stream by virtual time.
fn absorb_machine(trace: &mut Trace, rec: MachineRecording) {
    for e in rec.events {
        let kind = match e.kind {
            MemEventKind::Alloc { bytes } => EventKind::Alloc { bytes },
            MemEventKind::Free { bytes } => EventKind::Free { bytes },
            MemEventKind::StackReserve { bytes } => EventKind::StackReserve { bytes },
            MemEventKind::StackRelease { bytes } => EventKind::StackRelease { bytes },
            MemEventKind::FreeUnderflow { bytes } => EventKind::FreeUnderflow { bytes },
            MemEventKind::BoundViolation { footprint, bound } => {
                EventKind::BoundViolation { footprint, bound }
            }
        };
        trace.events.push(Event {
            at: e.at,
            proc: e.proc,
            thread: None,
            kind,
        });
    }
    trace.counters.footprint = rec.footprint;
    trace.counters.live_threads = rec.live_threads;
    trace.counters.sched_lock_wait = rec.sched_lock_wait;
    // Machine samples and runtime events arrive in engine (real-time)
    // order; processors' clocks interleave, so order everything onto the
    // virtual timeline (ties keep engine order).
    let mut order = TimeOrder::default();
    Trace::with_pooled_scratch(|events, counters| {
        for (track, spare) in trace
            .counters
            .tracks_mut()
            .into_iter()
            .zip(counters.tracks_mut())
        {
            order.apply(track, spare, |&(at, _)| at);
        }
        order.apply(&mut trace.events, events, |e| e.at);
    });
}

/// Bits of a time sorted per radix pass.
const RADIX_BITS: u32 = 8;

/// Puts records in the order of the keys `(time, emission index)`, which is
/// the stable sort by time. A key is one `u64`: the bits in which the
/// records' times differ, above the index. An LSD radix sort over the time
/// bits (each pass is stable, so ties keep index order) orders the keys,
/// and one gather moves each record once, into a spare buffer that is then
/// swapped in. Times whose differing bits leave no room for the index (a
/// spread near 2^64 ns) take `sort_by_key` instead.
#[derive(Default)]
struct TimeOrder {
    keys: Vec<u64>,
    spare: Vec<u64>,
}

impl TimeOrder {
    fn apply<T: Copy>(
        &mut self,
        items: &mut Vec<T>,
        spare: &mut Vec<T>,
        at: impl Fn(&T) -> VirtTime,
    ) {
        let Some(first) = items.first().map(|x| at(x).as_ns()) else {
            return;
        };
        let (mut differ, mut sorted, mut last) = (0, true, first);
        for t in items.iter().map(|x| at(x).as_ns()) {
            differ |= t ^ first;
            sorted &= last <= t;
            last = t;
        }
        if sorted {
            return;
        }
        let index_bits = usize::BITS - (items.len() - 1).leading_zeros();
        let time_bits = u64::BITS - differ.leading_zeros();
        if index_bits + time_bits > u64::BITS {
            return items.sort_by_key(at);
        }
        let low = (1 << time_bits) - 1;
        let keys = &mut self.keys;
        keys.clear();
        keys.extend(
            items
                .iter()
                .enumerate()
                .map(|(i, x)| (at(x).as_ns() & low) << index_bits | i as u64),
        );
        self.spare.clear();
        self.spare.resize(keys.len(), 0);
        let mut shift = index_bits;
        while shift < index_bits + time_bits {
            // `next[d]`: where the next key with digit `d` goes.
            let mut next = [0usize; 1 << RADIX_BITS];
            let digit = |key: u64| (key >> shift) as usize % (1 << RADIX_BITS);
            for &key in keys.iter() {
                next[digit(key)] += 1;
            }
            let mut sum = 0;
            for slot in &mut next {
                sum += std::mem::replace(slot, sum);
            }
            for &key in keys.iter() {
                let d = digit(key);
                self.spare[next[d]] = key;
                next[d] += 1;
            }
            std::mem::swap(keys, &mut self.spare);
            shift += RADIX_BITS;
        }
        let index = (1 << index_bits) - 1;
        spare.clear();
        spare.extend(keys.iter().map(|&key| items[(key & index) as usize]));
        std::mem::swap(items, spare);
    }
}

/// The recorder's side of the trace's storage pool and of the exporter's
/// buffer sizing, on real runs (both are private to the trace model).
#[cfg(test)]
mod tests {
    use std::io;

    use super::*;
    use crate::trace::chrome::FLUSH_BYTES;
    use crate::trace::TRACE_POOL_MAX;
    use crate::{run, scope, Config, SchedKind};

    /// The key order is the stable sort by time, on tied, spread, sorted,
    /// reversed and extreme times and on every short length.
    #[test]
    fn time_order_is_the_stable_sort_by_time() {
        let mut rng = ptdf_smp::Prng::new(0x5eed);
        let mut order = TimeOrder::default();
        for case in 0..600u64 {
            let len = if case < 40 {
                case as usize
            } else {
                rng.below(3000) as usize
            };
            let spread = [1, 4, 1 << 11, 1 << 22, 1 << 40, u64::MAX][case as usize % 6];
            let mut items: Vec<(VirtTime, u64)> = (0..len as u64)
                .map(|i| (VirtTime::from_ns(rng.next_u64() % spread), i))
                .collect();
            match case % 7 {
                0 => items.sort_by_key(|&(at, _)| at),
                1 => items.reverse(),
                2 => items
                    .iter_mut()
                    .for_each(|x| x.0 = VirtTime::from_ns(u64::MAX - x.0.as_ns())),
                _ => {}
            }
            let mut want = items.clone();
            want.sort_by_key(|&(at, _)| at);
            order.apply(&mut items, &mut Vec::new(), |&(at, _)| at);
            assert_eq!(items, want, "case {case}");
        }
    }

    #[test]
    fn pooled_trace_storage_is_recycled_and_round_trips() {
        let traced_run = || {
            let cfg = Config::new(2, SchedKind::Df).with_trace();
            let (_, report) = run(cfg, || {
                scope(|s| {
                    for i in 0..8 {
                        s.spawn(move || crate::work(1000 * (i + 1)));
                    }
                })
            });
            report.trace.expect("trace enabled")
        };
        let first = traced_run();
        let json_fresh = first.to_chrome_json();
        drop(first); // returns its storage to the thread-local pool
        let pooled = Trace::pool_len();
        assert!(pooled >= 1, "dropping a trace must feed the pool");
        assert!(pooled <= TRACE_POOL_MAX, "pool must stay bounded");
        // The identical deterministic run, now served from recycled
        // storage: bit-identical export, lossless round trip.
        let second = traced_run();
        assert_eq!(
            Trace::pool_len(),
            pooled - 1,
            "the traced run must draw its storage from the pool"
        );
        let json_pooled = second.to_chrome_json();
        assert_eq!(
            json_pooled, json_fresh,
            "pooled storage must not change the export"
        );
        let back = Trace::from_chrome_json(&json_pooled).expect("parse back");
        assert_eq!(back, second);
        // The parser draws from the pool as a recorder does, so a record →
        // export → parse cycle refills the two storages it gave back.
        drop(back);
        let pooled = Trace::pool_len();
        assert!(pooled >= 1);
        let again = Trace::from_chrome_json(&json_pooled).expect("parse back");
        assert_eq!(
            Trace::pool_len(),
            pooled - 1,
            "a parse must draw from the pool"
        );
        assert_eq!(again, second);
    }

    #[test]
    fn pool_survives_panic_during_traced_run() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // Drain whatever earlier code on this thread left behind so the
        // counts below are about *this* test's traces.
        Trace::clear_pool();
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            let cfg = Config::new(2, SchedKind::Df).with_trace();
            let _ = run(cfg, || {
                scope(|s| {
                    s.spawn(|| crate::work(1000));
                });
                panic!("root thread panic under trace");
            });
        }));
        assert!(panicked.is_err(), "root panic must propagate");
        // The report (and its trace) dropped during unwinding: storage must
        // have been returned, not leaked or left mid-donation.
        assert_eq!(
            Trace::pool_len(),
            1,
            "unwinding must return the trace storage to the pool"
        );
        // A fresh traced run reuses the post-panic pool and still produces
        // a valid, losslessly round-trippable trace.
        let cfg = Config::new(2, SchedKind::Fifo).with_trace();
        let (_, report) = run(cfg, || {
            scope(|s| {
                for i in 0..4 {
                    s.spawn(move || crate::work(500 * (i + 1)));
                }
            })
        });
        let trace = report.trace.expect("trace enabled");
        trace.validate().expect("valid trace from recycled storage");
        let back = Trace::from_chrome_json(&trace.to_chrome_json()).expect("parse back");
        assert_eq!(back, trace);
    }

    /// Every record the exporter writes is one the template reads: traces
    /// of every correct litmus program (spawn/join, mutex, condvar,
    /// semaphore, barrier, rwlock, timed waits, cancel) and of a program
    /// whose allocation above the quota inserts dummies, under all five
    /// policies, one of them perturbed so that the decision log is written
    /// too. An exporter edit the template does not follow fails here
    /// instead of sending every record through the lexer.
    #[test]
    fn every_record_the_exporter_writes_takes_the_template_path() {
        use crate::trace::chrome::take_tally;
        fn dummies() {
            let h = crate::spawn(|| crate::work(2_000));
            crate::rt_alloc(64 * 1024);
            crate::rt_free(64 * 1024);
            h.join();
        }
        let programs = crate::litmus_names()
            .into_iter()
            .filter_map(crate::litmus::find)
            .filter(|l| !l.buggy)
            .map(|l| (l.procs, l.body))
            .chain([(4, dummies as fn())]);
        let (mut records, mut dummy_events, mut decisions) = (0, 0, 0);
        for (i, (procs, body)) in programs.enumerate() {
            for (k, kind) in [
                SchedKind::Fifo,
                SchedKind::Lifo,
                SchedKind::Df,
                SchedKind::DfDeques,
                SchedKind::Ws,
            ]
            .into_iter()
            .enumerate()
            {
                let mut cfg = Config::new(procs, kind).with_trace().with_quota(16 * 1024);
                if i % 5 == k {
                    cfg = cfg.with_perturbation(i as u64);
                }
                let (_, report) = run(cfg, body);
                let trace = report.trace.expect("trace enabled");
                let json = trace.to_chrome_json();
                take_tally();
                let back = Trace::from_chrome_json(&json).expect("parse back");
                assert!(back == trace, "{kind:?}: the round trip moved the trace");
                let c = &trace.counters;
                let samples = c.footprint.len()
                    + c.live_threads.len()
                    + c.ready.len()
                    + c.active_deques.len()
                    + c.sched_lock_wait.len();
                let n = trace.spans.len()
                    + trace.events.len()
                    + samples
                    + trace.threads.len()
                    + trace.decisions.len();
                assert_eq!(take_tally(), [n, 0], "{kind:?}: records the lexer read");
                records += n;
                dummy_events += trace
                    .events
                    .iter()
                    .filter(|e| matches!(e.kind, EventKind::DummyInsert { .. }))
                    .count();
                decisions += trace.decisions.len();
            }
        }
        assert!(records > 1000 && dummy_events > 0 && decisions > 0);
    }

    #[test]
    fn export_reserves_within_a_tenth_of_what_it_writes() {
        for kind in [SchedKind::Fifo, SchedKind::Df, SchedKind::Ws] {
            let cfg = Config::new(4, kind).with_trace();
            let (_, report) = run(cfg, || {
                let m = crate::Mutex::new(0u64);
                scope(|s| {
                    for i in 0..400 {
                        let m = m.clone();
                        s.spawn(move || {
                            crate::work(500 + i);
                            *m.lock() += 1;
                        });
                    }
                })
            });
            let trace = report.trace.expect("trace enabled");
            let cp = crate::critpath::analyze(&trace);
            for (cp, json) in [
                (None, trace.to_chrome_json()),
                (Some(&cp), trace.to_chrome_json_with_critpath(&cp)),
            ] {
                let reserved = trace.chrome_len_estimate(cp);
                assert_eq!(json.capacity(), reserved, "{kind:?}: the buffer regrew");
                assert!(
                    reserved * 10 <= json.len() * 11,
                    "{kind:?}: {reserved} B reserved for {} B of text",
                    json.len()
                );
            }
        }
    }

    #[test]
    fn write_chrome_json_streams_the_same_bytes_in_pieces() {
        /// Keeps the bytes and counts the `write` calls.
        #[derive(Default)]
        struct Pieces(Vec<u8>, usize);
        impl io::Write for Pieces {
            fn write(&mut self, piece: &[u8]) -> io::Result<usize> {
                self.0.extend_from_slice(piece);
                self.1 += 1;
                Ok(piece.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        struct Full;
        impl io::Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let cfg = Config::new(4, SchedKind::Df).with_trace();
        let (_, report) = run(cfg, || {
            scope(|s| {
                for i in 0..400 {
                    s.spawn(move || crate::work(500 + i));
                }
            })
        });
        let trace = report.trace.expect("trace enabled");
        let whole = trace.to_chrome_json();
        assert!(whole.len() > 4 * FLUSH_BYTES, "want several flushes");
        let mut pieces = Pieces::default();
        trace
            .write_chrome_json(&mut pieces)
            .expect("in-memory writer");
        assert!(pieces.0 == whole.as_bytes(), "streamed bytes differ");
        assert!(
            (4..=whole.len() / FLUSH_BYTES + 1).contains(&pieces.1),
            "{} writes for {} bytes",
            pieces.1,
            whole.len()
        );
        let cp = crate::critpath::analyze(&trace);
        let mut pieces = Pieces::default();
        trace
            .write_chrome_json_with_critpath(&cp, &mut pieces)
            .expect("in-memory writer");
        assert!(pieces.0 == trace.to_chrome_json_with_critpath(&cp).as_bytes());
        assert_eq!(
            trace.write_chrome_json(&mut Full).unwrap_err().to_string(),
            "disk full"
        );
    }
}
