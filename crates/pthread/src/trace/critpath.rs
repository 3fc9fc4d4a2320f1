//! Blame-attributed observed-critical-path analysis over a recorded
//! [`Trace`].
//!
//! The analyzer walks the flight-recorder trace *backwards* from the span
//! with the latest end, following the causal edges the happens-before
//! checker ([`super::check::check_trace`]) also uses — wake (who published my
//! wake), spawn (who forked me), join (whose exit I slept on), preemption
//! and timeout — and produces the **realized critical path**: a sequence of
//! [`Segment`]s that tile `[0, makespan]` exactly, each blamed on one
//! [`BlameBucket`]:
//!
//! * `Compute` — a thread on the path was executing.
//! * `ReadyWait` — the path crossed a ready-but-not-dispatched interval
//!   (scheduler/queue delay, including spawn → first dispatch).
//! * `LockWait { reason, obj }` — the path crossed a block on a sync
//!   object. Walk time spent *inside* such a window (the wake publisher's
//!   own history between the block and the wake) is recolored to the
//!   window's object: that time is what the blocked successor was waiting
//!   out.
//! * `JoinWait` — the path crossed a join wait (the joined child's own
//!   compute stays `Compute`; only the wake→dispatch and sleep slivers are
//!   join-blamed, so a closed fork/join program's compute-only path equals
//!   its DAG critical path).
//! * `Preempt` — a quota/chaos preemption window on the path.
//! * `Residual` — time the walk could not attribute (cross-processor
//!   wake-clamp skew, engine tail past the last span, degenerate traces).
//!
//! The bucket totals sum **bit-exactly** to the makespan: every step of the
//! walk extends the tiling downward and the loop only terminates at zero
//! (or by dumping the untiled prefix into `Residual`).
//!
//! The same module owns the causal-edge extraction ([`causal_edge`]) shared
//! with the vector-clock checker in `check.rs`, so the two features cannot
//! drift apart on what constitutes a happens-before edge.

use std::collections::{BTreeMap, HashMap};

use ptdf_smp::VirtTime;

use super::index::TraceIndex;
use super::{BlockReason, Event, EventKind, Trace};

/// A happens-before edge carried by one trace [`Event`], as consumed by
/// both the vector-clock checker and the critical-path analyzer.
///
/// | Event | Edge | Meaning |
/// |---|---|---|
/// | `Spawn{parent}` | `Spawn` | parent's past ⟶ child |
/// | `Wake{waker}` | `Wake` | waker's past ⟶ woken thread |
/// | `Timeout` | `Timeout` | self-wake at a deadline (no publisher) |
/// | `Cancel{by}` | `Cancel` | canceller's past ⟶ cancelled thread |
/// | `Join{target}` | `Join` | target's exit ⟶ joiner |
/// | `Block{obj}` | `BlockPublish` | blocker's past ⟶ sync object |
/// | `Notify{obj}` | `NotifyExchange` | object ⟷ notifier (both ways) |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CausalEdge {
    /// The child inherits the parent's past.
    Spawn {
        /// Forking thread.
        parent: u32,
        /// Created thread.
        child: u32,
    },
    /// The woken thread inherits the waker's past.
    Wake {
        /// Publishing thread, when the wake came from inside a thread.
        waker: Option<u32>,
        /// The thread made ready.
        woken: u32,
    },
    /// A timed wait expired: the thread woke itself; no inbound edge.
    Timeout {
        /// The self-woken thread.
        woken: u32,
    },
    /// A cancellation was delivered: the canceller's past (when known)
    /// reaches the cancelled thread's unwind.
    Cancel {
        /// Requesting thread, when the cancel came from inside the runtime.
        by: Option<u32>,
        /// The cancelled thread.
        woken: u32,
    },
    /// The joiner inherits the joined thread's (exited) past.
    Join {
        /// The joined, exited thread.
        target: u32,
        /// The joining thread.
        joiner: u32,
    },
    /// A blocking thread publishes its past into the sync object.
    BlockPublish {
        /// The blocking thread.
        thread: u32,
        /// Per-run sync-object id.
        obj: u32,
    },
    /// A notify exchanges pasts with the sync object (both directions).
    NotifyExchange {
        /// The notifying thread.
        thread: u32,
        /// Per-run sync-object id.
        obj: u32,
    },
}

/// Extracts the happens-before edge carried by `e`, if any. Events without
/// a subject thread (machine-level memory events) and kinds that carry no
/// cross-thread ordering (first-dispatch, steal, preempt, stack/heap
/// events, deadlock annotations) yield `None`.
pub fn causal_edge(e: &Event) -> Option<CausalEdge> {
    let t = e.thread?;
    Some(match e.kind {
        EventKind::Spawn { parent: Some(p) } => CausalEdge::Spawn {
            parent: p,
            child: t,
        },
        EventKind::Wake { waker } => CausalEdge::Wake { waker, woken: t },
        EventKind::Timeout { .. } => CausalEdge::Timeout { woken: t },
        EventKind::Cancel { by, .. } => CausalEdge::Cancel { by, woken: t },
        EventKind::Join { target } => CausalEdge::Join { target, joiner: t },
        EventKind::Block { obj: Some(o), .. } => CausalEdge::BlockPublish { thread: t, obj: o },
        EventKind::Notify { obj, .. } => CausalEdge::NotifyExchange { thread: t, obj },
        _ => return None,
    })
}

/// Blame assignment of one critical-path [`Segment`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum BlameBucket {
    /// A path thread was executing.
    Compute,
    /// Ready-but-not-running: scheduler/queue delay on the path.
    ReadyWait,
    /// Blocked on a sync object (or path time recolored into such a
    /// window).
    LockWait {
        /// The blocking primitive.
        reason: BlockReason,
        /// Per-run sync-object id (`None` for objectless blocks).
        obj: Option<u32>,
    },
    /// Waiting for a joined thread's exit (slivers only; the child's own
    /// compute stays [`BlameBucket::Compute`]).
    JoinWait,
    /// A preemption window (memory-quota or injected).
    Preempt,
    /// Unattributable time (clock skew, engine tail, degenerate traces).
    #[default]
    Residual,
}

impl BlameBucket {
    /// Stable bucket name for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            BlameBucket::Compute => "compute",
            BlameBucket::ReadyWait => "ready-wait",
            BlameBucket::LockWait { .. } => "lock-wait",
            BlameBucket::JoinWait => "join-wait",
            BlameBucket::Preempt => "preempt",
            BlameBucket::Residual => "residual",
        }
    }
}

/// One contiguous interval of the realized critical path.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct Segment {
    /// The thread the walk was in (`None` for the engine tail / empty
    /// traces).
    pub thread: Option<u32>,
    /// Interval start (virtual).
    pub start: VirtTime,
    /// Interval end (virtual).
    pub end: VirtTime,
    /// Who gets the blame.
    pub bucket: BlameBucket,
}

impl Segment {
    /// Segment duration.
    pub fn dur(&self) -> VirtTime {
        self.end.since(self.start)
    }
}

/// Per-bucket totals over the whole path. [`Blame::sum`] equals the
/// makespan bit-exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize)]
pub struct Blame {
    /// Total [`BlameBucket::Compute`] time.
    pub compute: VirtTime,
    /// Total [`BlameBucket::ReadyWait`] time.
    pub ready_wait: VirtTime,
    /// Total [`BlameBucket::LockWait`] time (all objects).
    pub lock_wait: VirtTime,
    /// Total [`BlameBucket::JoinWait`] time.
    pub join_wait: VirtTime,
    /// Total [`BlameBucket::Preempt`] time.
    pub preempt: VirtTime,
    /// Total [`BlameBucket::Residual`] time.
    pub residual: VirtTime,
}

impl Blame {
    /// Named view of every bucket, in display order.
    pub fn named(&self) -> [(&'static str, VirtTime); 6] {
        [
            ("compute", self.compute),
            ("ready-wait", self.ready_wait),
            ("lock-wait", self.lock_wait),
            ("join-wait", self.join_wait),
            ("preempt", self.preempt),
            ("residual", self.residual),
        ]
    }

    /// Sum over all buckets — equals the makespan bit-exactly.
    pub fn sum(&self) -> VirtTime {
        self.named()
            .iter()
            .fold(VirtTime::ZERO, |acc, &(_, v)| acc + v)
    }

    /// The largest bucket (first in display order on ties).
    pub fn dominant(&self) -> (&'static str, VirtTime) {
        let named = self.named();
        let mut best = named[0];
        for &(n, v) in &named[1..] {
            if v > best.1 {
                best = (n, v);
            }
        }
        best
    }
}

/// Cumulative path blame against one sync object.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct ObjectBlame {
    /// The blocking primitive.
    pub reason: BlockReason,
    /// Per-run sync-object id (`None` for objectless blocks).
    pub obj: Option<u32>,
    /// Total path time blamed on this object.
    pub wait: VirtTime,
    /// Path segments blamed on it.
    pub segments: u64,
}

/// Per-thread on-path totals.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct ThreadBlame {
    /// Thread id.
    pub thread: u32,
    /// Total path time attributed while the walk was in this thread.
    pub on_path: VirtTime,
    /// Of which pure compute.
    pub compute: VirtTime,
    /// Path segments in this thread.
    pub segments: u64,
}

/// The analyzed realized critical path of one run.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct CritPath {
    /// True when the trace recorded no spans (the result is a structured
    /// "empty" value: one residual segment if the makespan is nonzero).
    pub empty: bool,
    /// The makespan the segments tile (bit-exact: `blame.sum() ==
    /// makespan`).
    pub makespan: VirtTime,
    /// Path segments in increasing time order, tiling `[0, makespan]`.
    pub segments: Vec<Segment>,
    /// Per-bucket totals.
    pub blame: Blame,
    /// Per-object lock-wait blame, largest first.
    pub objects: Vec<ObjectBlame>,
    /// Per-thread on-path totals, largest first.
    pub threads: Vec<ThreadBlame>,
}

/// Analyzes `trace`, taking the latest span end as the makespan. Use
/// [`analyze_with_makespan`] (or `Report::critpath`) when the
/// run's true makespan is known — the engine can charge scheduler time past
/// the last span, and that tail must be tiled too.
pub fn analyze(trace: &Trace) -> CritPath {
    analyze_with_makespan(trace, VirtTime::ZERO)
}

/// Analyzes `trace` against a known run makespan (clamped up to the latest
/// span end, so the tiling is always total).
pub fn analyze_with_makespan(trace: &Trace, makespan: VirtTime) -> CritPath {
    Analyzer::new(trace).run(makespan)
}

/// Cumulative blocked time against one sync object across *all* threads
/// (not just the critical path); see [`object_waits`].
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct ObjectWait {
    /// The blocking primitive.
    pub reason: BlockReason,
    /// Per-run sync-object id.
    pub obj: u32,
    /// Completed block→wake/timeout episodes.
    pub waits: u64,
    /// Total blocked time across episodes.
    pub total: VirtTime,
    /// Longest single episode.
    pub max: VirtTime,
}

/// Per-object blocked time over the whole trace: pairs each `Block` on a
/// sync object with the same thread's next `Wake`/`Timeout` and accumulates
/// the waits per `(reason, obj)`. Sorted by total descending (ties: reason
/// name, then id).
pub fn object_waits(trace: &Trace) -> Vec<ObjectWait> {
    let idx = TraceIndex::new(trace);
    // Each thread's open block on a sync object, by thread slot.
    let mut pending: Vec<Option<(VirtTime, BlockReason, u32)>> = vec![None; idx.threads()];
    let mut agg: HashMap<(BlockReason, u32), ObjectWait> = HashMap::new();
    for e in idx.events() {
        let Some(slot) = e.thread.and_then(|t| idx.slot(t)) else {
            continue;
        };
        match e.kind {
            EventKind::Block { reason, obj } => pending[slot] = obj.map(|o| (e.at, reason, o)),
            EventKind::Wake { .. } | EventKind::Timeout { .. } | EventKind::Cancel { .. } => {
                if let Some((at, reason, o)) = pending[slot].take() {
                    let wait = e.at.since(at);
                    let entry = agg.entry((reason, o)).or_insert(ObjectWait {
                        reason,
                        obj: o,
                        waits: 0,
                        total: VirtTime::ZERO,
                        max: VirtTime::ZERO,
                    });
                    entry.waits += 1;
                    entry.total += wait;
                    entry.max = entry.max.max(wait);
                }
            }
            _ => {}
        }
    }
    let mut out: Vec<ObjectWait> = agg.into_values().collect();
    out.sort_by(|a, b| {
        b.total
            .cmp(&a.total)
            .then(a.reason.name().cmp(b.reason.name()))
            .then(a.obj.cmp(&b.obj))
    });
    out
}

/// Why a span's thread got dispatched, reconstructed per span by one forward
/// pass over the events.
#[derive(Debug, Clone, Copy)]
enum Cause {
    /// A wake published at `at`, optionally resolving a block.
    Woken {
        at: VirtTime,
        waker: Option<u32>,
        block: Option<(VirtTime, BlockReason, Option<u32>)>,
    },
    /// A timed wait expired at `at`, resolving a block without a notifier.
    TimedOut {
        at: VirtTime,
        block: Option<(VirtTime, BlockReason, Option<u32>)>,
    },
    /// Requeued after a preemption at `at`.
    Preempted { at: VirtTime },
    /// First dispatch (spawn → queue → here).
    First,
}

/// An active lock-contention recolor window on the walk stack: path time in
/// `(floor, pushed-at]` is blamed on `(reason, obj)`.
struct Window {
    reason: BlockReason,
    obj: Option<u32>,
    floor: VirtTime,
}

/// One thread's state in the forward pass that binds dispatch causes to
/// spans: a merge of the thread's events with its sorted spans.
#[derive(Clone, Default)]
struct Cursor {
    /// Position in the thread's span list of the next span to bind.
    next: usize,
    pending: Option<(VirtTime, BlockReason, Option<u32>)>,
    resolution: Option<Cause>,
}

struct Analyzer<'a> {
    trace: &'a Trace,
    idx: TraceIndex<'a>,
    /// Dispatch cause per span index.
    causes: Vec<Option<Cause>>,
    /// Target of the first `Join` event inside each span, by span index.
    join_in_span: Vec<Option<u32>>,
    /// Time and parent of each thread's first `Spawn` event, by thread slot.
    spawn: Vec<Option<(VirtTime, Option<u32>)>>,
    windows: Vec<Window>,
    /// Built in decreasing time order, reversed at the end.
    segs: Vec<Segment>,
    /// Forced span position for the next lookup, used when descending to
    /// the same thread's previous span across a zero-length boundary
    /// (contiguous `Resume` spans share `end == start`, so a pure time
    /// lookup would return the span just processed forever).
    hint: Option<(u32, usize)>,
}

impl<'a> Analyzer<'a> {
    fn new(trace: &'a Trace) -> Self {
        let idx = TraceIndex::new(trace);
        let mut causes: Vec<Option<Cause>> = vec![None; trace.spans.len()];
        let mut join_in_span: Vec<Option<u32>> = vec![None; trace.spans.len()];
        let mut spawn = vec![None; idx.threads()];
        let mut cursors = vec![Cursor::default(); idx.threads()];
        for e in idx.events() {
            let Some(t) = e.thread else { continue };
            let slot = idx.slot(t).expect("an event's subject has a slot");
            let (c, spans) = (&mut cursors[slot], idx.spans_of(t));
            // Bind the thread's spans that precede this event. An event
            // strictly before the next span start reads first; at equal
            // times it still precedes the span (the dispatch causes: wake,
            // timeout, preempt, first-dispatch), but a `Join` belongs to
            // the span it completes *inside*. Once a dispatch cause is
            // pending it binds to the next same-instant span: bind the span
            // before reading further events, or a cluster of zero-length
            // spans at one instant (block/wake chains under a zero-cost
            // model) would shift every cause one span late and leak the
            // last one onto an unrelated later span.
            while let Some(&i) = spans.get(c.next) {
                let start = trace.spans[i].start;
                let event_first = e.at < start
                    || (e.at == start
                        && c.resolution.is_none()
                        && !matches!(e.kind, EventKind::Join { .. }));
                if event_first {
                    break;
                }
                causes[i] = c.resolution.take();
                c.next += 1;
            }
            match e.kind {
                EventKind::Spawn { parent } => {
                    spawn[slot].get_or_insert((e.at, parent));
                }
                EventKind::Block { reason, obj } => c.pending = Some((e.at, reason, obj)),
                // The cancel-unwind span is blamed on the canceller, like a
                // wake from that thread.
                EventKind::Wake { waker } | EventKind::Cancel { by: waker, .. } => {
                    c.resolution = Some(Cause::Woken {
                        at: e.at,
                        waker,
                        block: c.pending.take(),
                    });
                }
                EventKind::Timeout { .. } => {
                    c.resolution = Some(Cause::TimedOut {
                        at: e.at,
                        block: c.pending.take(),
                    });
                }
                EventKind::Preempt => c.resolution = Some(Cause::Preempted { at: e.at }),
                EventKind::FirstDispatch => c.resolution = Some(Cause::First),
                EventKind::Join { target } => {
                    if let Some(open) = c.next.checked_sub(1) {
                        join_in_span[spans[open]].get_or_insert(target);
                    }
                }
                _ => {}
            }
        }
        // A cause still pending when a thread's events end binds to its
        // next span.
        for (slot, c) in cursors.iter().enumerate() {
            if c.resolution.is_some() {
                if let Some(&i) = idx.spans_of(idx.thread(slot)).get(c.next) {
                    causes[i] = c.resolution;
                }
            }
        }
        Analyzer {
            trace,
            idx,
            causes,
            join_in_span,
            spawn,
            windows: Vec::new(),
            segs: Vec::new(),
            hint: None,
        }
    }

    /// Latest span of `thread` with `start <= t` (position in the thread's
    /// sorted list, plus the span index).
    fn find_span(&self, thread: u32, t: VirtTime) -> Option<(usize, usize)> {
        let list = self.idx.spans_of(thread);
        let pos = list.partition_point(|&i| self.trace.spans[i].start <= t);
        pos.checked_sub(1).map(|p| (p, list[p]))
    }

    /// Whether the walk can continue inside `thread` at time `t`.
    fn walkable(&self, thread: u32, t: VirtTime) -> bool {
        self.find_span(thread, t).is_some()
    }

    /// Thread exit time: the lifecycle table read by position (where the
    /// recorder puts thread `i`), else the thread's latest span end.
    fn exit_of(&self, thread: u32) -> Option<VirtTime> {
        let recorded = self.trace.threads.get(thread as usize);
        recorded.and_then(|lc| lc.exited).or_else(|| {
            let last = self.idx.spans_of(thread).last();
            last.map(|&i| self.trace.spans[i].end)
        })
    }

    fn push(&mut self, thread: Option<u32>, start: VirtTime, end: VirtTime, bucket: BlameBucket) {
        debug_assert!(start <= end);
        if start < end {
            self.segs.push(Segment {
                thread,
                start,
                end,
                bucket,
            });
        }
    }

    /// Attributes span coverage `[a, hi]`, splitting at lock-window floors:
    /// inside an active window the time is recolored to the window's
    /// object, otherwise it is compute.
    fn emit_coverage(&mut self, thread: u32, a: VirtTime, mut hi: VirtTime) {
        while hi > a {
            self.windows.retain(|w| w.floor < hi);
            match self.windows.last() {
                None => {
                    self.push(Some(thread), a, hi, BlameBucket::Compute);
                    hi = a;
                }
                Some(w) => {
                    let bucket = BlameBucket::LockWait {
                        reason: w.reason,
                        obj: w.obj,
                    };
                    let lo = a.max(w.floor);
                    self.push(Some(thread), lo, hi, bucket);
                    hi = lo;
                }
            }
        }
    }

    /// Steps from `cur`'s span at `pos` down to its previous one, blaming the
    /// gap up to `t` on the ready queue; `None`, with `[0, t]` dumped into
    /// residual, when there is none.
    fn descend(&mut self, cur: u32, pos: usize, t: VirtTime) -> Option<VirtTime> {
        let Some(prev) = pos.checked_sub(1) else {
            self.push(Some(cur), VirtTime::ZERO, t, BlameBucket::Residual);
            return None;
        };
        let pe = self.trace.spans[self.idx.spans_of(cur)[prev]].end.min(t);
        self.push(Some(cur), pe, t, BlameBucket::ReadyWait);
        self.hint = Some((cur, prev));
        Some(pe)
    }

    fn wait_bucket(reason: BlockReason, obj: Option<u32>) -> BlameBucket {
        if reason == BlockReason::Join {
            BlameBucket::JoinWait
        } else {
            BlameBucket::LockWait { reason, obj }
        }
    }

    fn run(mut self, makespan: VirtTime) -> CritPath {
        let last = self
            .trace
            .spans
            .iter()
            .enumerate()
            .max_by_key(|(i, s)| (s.end, s.start, *i));
        let Some((_, last_span)) = last else {
            // Degenerate trace: no spans at all. Still produce a total
            // tiling (one residual segment) instead of panicking.
            self.push(None, VirtTime::ZERO, makespan, BlameBucket::Residual);
            return finalize(CritPath {
                empty: true,
                makespan,
                segments: self.segs,
                ..CritPath::default()
            });
        };
        let makespan = makespan.max(last_span.end);
        let mut cur = last_span.thread;
        let mut t = makespan;
        if makespan > last_span.end {
            // Engine tail: scheduler/teardown charges past the last span.
            self.push(None, last_span.end, makespan, BlameBucket::Residual);
            t = last_span.end;
        }
        let cap = 4 * (self.trace.spans.len() + self.trace.events.len()) + 64;
        let mut iters = 0usize;
        while t > VirtTime::ZERO {
            iters += 1;
            if iters > cap {
                // Pathological trace (e.g. a zero-cost wake cycle): dump the
                // untiled prefix so the sum invariant still holds.
                self.push(Some(cur), VirtTime::ZERO, t, BlameBucket::Residual);
                break;
            }
            let (cur0, t0) = (cur, t);
            let looked_up = match self.hint.take() {
                Some((th, p)) if th == cur => Some((p, self.idx.spans_of(cur)[p])),
                _ => self.find_span(cur, t),
            };
            let Some((pos, si)) = looked_up else {
                self.push(Some(cur), VirtTime::ZERO, t, BlameBucket::Residual);
                break;
            };
            let s = self.trace.spans[si];
            if s.end < t {
                // The walk hopped here at a time the thread was not running
                // (cross-processor wake-clamp skew, chaos jitter).
                self.push(Some(cur), s.end, t, BlameBucket::Residual);
                t = s.end;
                continue;
            }
            self.emit_coverage(cur, s.start, t);
            t = s.start;
            match self.causes[si] {
                Some(Cause::Woken { at, waker, block }) => {
                    let w = at.min(t);
                    let ready = match block {
                        Some((_, BlockReason::Join, _)) => BlameBucket::JoinWait,
                        _ => BlameBucket::ReadyWait,
                    };
                    self.push(Some(cur), w, t, ready);
                    t = w;
                    // Hop only into a waker that was still around at the
                    // wake instant. A join of an already-exited child emits
                    // a wake clamped to the *block* time, after the child's
                    // last span — following it would land in a hole; the
                    // critical predecessor is this thread's own earlier
                    // activity.
                    let hop = waker.filter(|&wk| {
                        self.walkable(wk, w) && self.exit_of(wk).is_some_and(|x| x >= w)
                    });
                    if let Some((b_at, reason, obj)) = block {
                        let b = b_at.min(w);
                        if hop.is_none() {
                            self.push(Some(cur), b, w, Self::wait_bucket(reason, obj));
                            t = b;
                        } else if reason != BlockReason::Join {
                            self.windows.push(Window {
                                reason,
                                obj,
                                floor: b,
                            });
                        }
                    }
                    cur = hop.unwrap_or(cur);
                }
                Some(Cause::TimedOut { at, block }) => {
                    let to = at.min(t);
                    self.push(Some(cur), to, t, BlameBucket::ReadyWait);
                    t = to;
                    if let Some((b_at, reason, obj)) = block {
                        let b = b_at.min(to);
                        self.push(Some(cur), b, to, Self::wait_bucket(reason, obj));
                        t = b;
                    }
                }
                Some(Cause::Preempted { at }) => {
                    let pe = at.min(t);
                    self.push(Some(cur), pe, t, BlameBucket::Preempt);
                    t = pe;
                    // The preempt time lies inside the previous span; force
                    // the descent there in case the boundary is zero-width.
                    if pos > 0 {
                        self.hint = Some((cur, pos - 1));
                    }
                }
                Some(Cause::First) => {
                    let spawn = self.idx.slot(cur).and_then(|slot| self.spawn[slot]);
                    let (sp_at, parent) = spawn.unwrap_or((VirtTime::ZERO, None));
                    let sp = sp_at.min(t);
                    self.push(Some(cur), sp, t, BlameBucket::ReadyWait);
                    t = sp;
                    match parent {
                        Some(par) if self.walkable(par, sp) => cur = par,
                        Some(_) => {}
                        None => {
                            // The root: everything before its spawn record
                            // is runtime startup, charged as ready-wait
                            // (spawn → first-dispatch latency).
                            self.push(Some(cur), VirtTime::ZERO, sp, BlameBucket::ReadyWait);
                            t = VirtTime::ZERO;
                        }
                    }
                }
                None => {
                    let list = self.idx.spans_of(cur);
                    // A join completed inside this span with no wake event:
                    // the thread slept (`JoinWake`) until the target's exit.
                    // Hop through the join edge so the target's compute is
                    // on the path. The hop is only sound when the thread was
                    // actually off-processor before the join instant `e` —
                    // but zero-length dispatch slivers at `e` itself (the
                    // JoinWake republications, common under a zero-cost
                    // model) don't refute that gap, so skip them when
                    // locating the real predecessor end.
                    let join_hop = self.join_in_span[si].and_then(|tgt| {
                        let e = self.exit_of(tgt)?.min(t);
                        let mut gap_end = None;
                        for q in (0..pos).rev() {
                            let ps = self.trace.spans[list[q]];
                            if ps.start == ps.end && ps.end >= e {
                                continue;
                            }
                            gap_end = Some(ps.end);
                            break;
                        }
                        let gap_ok = gap_end.is_none_or(|pe| pe < e);
                        (gap_ok && self.walkable(tgt, e)).then_some((tgt, e))
                    });
                    if let Some((tgt, e)) = join_hop {
                        self.push(Some(cur), e, t, BlameBucket::JoinWait);
                        t = e;
                        cur = tgt;
                    } else {
                        let Some(pe) = self.descend(cur, pos, t) else {
                            break;
                        };
                        t = pe;
                    }
                }
            }
            if (cur, t) == (cur0, t0) && self.hint.is_none() {
                // No progress this iteration (all-zero-length causes with no
                // hop): force the descent.
                let Some(pe) = self.descend(cur, pos, t) else {
                    break;
                };
                t = pe;
            }
        }
        self.segs.reverse();
        finalize(CritPath {
            empty: false,
            makespan,
            segments: self.segs,
            ..CritPath::default()
        })
    }
}

/// Fills the aggregate views (bucket totals, per-object and per-thread
/// tables) from the segment tiling.
fn finalize(mut cp: CritPath) -> CritPath {
    let mut objects: HashMap<(BlockReason, Option<u32>), ObjectBlame> = HashMap::new();
    let mut threads: BTreeMap<u32, ThreadBlame> = BTreeMap::new();
    for seg in &cp.segments {
        let d = seg.dur();
        match seg.bucket {
            BlameBucket::Compute => cp.blame.compute += d,
            BlameBucket::ReadyWait => cp.blame.ready_wait += d,
            BlameBucket::LockWait { reason, obj } => {
                cp.blame.lock_wait += d;
                let e = objects.entry((reason, obj)).or_insert(ObjectBlame {
                    reason,
                    obj,
                    wait: VirtTime::ZERO,
                    segments: 0,
                });
                e.wait += d;
                e.segments += 1;
            }
            BlameBucket::JoinWait => cp.blame.join_wait += d,
            BlameBucket::Preempt => cp.blame.preempt += d,
            BlameBucket::Residual => cp.blame.residual += d,
        }
        if let Some(th) = seg.thread {
            let e = threads.entry(th).or_insert(ThreadBlame {
                thread: th,
                on_path: VirtTime::ZERO,
                compute: VirtTime::ZERO,
                segments: 0,
            });
            e.on_path += d;
            e.segments += 1;
            if seg.bucket == BlameBucket::Compute {
                e.compute += d;
            }
        }
    }
    cp.objects = objects.into_values().collect();
    cp.objects.sort_by(|a, b| {
        b.wait
            .cmp(&a.wait)
            .then(a.reason.name().cmp(b.reason.name()))
            .then(a.obj.cmp(&b.obj))
    });
    cp.threads = threads.into_values().collect();
    cp.threads
        .sort_by(|a, b| b.on_path.cmp(&a.on_path).then(a.thread.cmp(&b.thread)));
    debug_assert_eq!(cp.blame.sum(), cp.makespan, "blame must tile the makespan");
    cp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace_yields_a_structured_empty_result() {
        let empty = Trace::default();
        let cp = analyze(&empty);
        assert!(cp.empty);
        assert_eq!(cp.makespan, VirtTime::ZERO);
        assert!(cp.segments.is_empty());
        assert_eq!(cp.blame.sum(), VirtTime::ZERO);
        // With a known nonzero makespan the tiling is one residual segment.
        let cp = analyze_with_makespan(&empty, VirtTime::from_us(5));
        assert!(cp.empty);
        assert_eq!(cp.blame.sum(), VirtTime::from_us(5));
        assert_eq!(cp.segments.len(), 1);
        assert_eq!(cp.segments[0].bucket, BlameBucket::Residual);
        // And the degenerate lifecycle summary stays graceful too.
        let lc = empty.lifecycle();
        assert_eq!(lc.threads, 0);
        assert_eq!(lc.dispatch_latency.count, 0);
    }

    #[test]
    fn causal_edges_cover_the_taxonomy() {
        use crate::trace::Event;
        let ev = |thread: Option<u32>, kind| Event {
            at: VirtTime::ZERO,
            proc: 0,
            thread,
            kind,
        };
        assert_eq!(
            causal_edge(&ev(Some(2), EventKind::Spawn { parent: Some(1) })),
            Some(CausalEdge::Spawn {
                parent: 1,
                child: 2
            })
        );
        assert_eq!(
            causal_edge(&ev(Some(3), EventKind::Wake { waker: Some(1) })),
            Some(CausalEdge::Wake {
                waker: Some(1),
                woken: 3
            })
        );
        assert_eq!(
            causal_edge(&ev(Some(3), EventKind::Timeout { obj: None })),
            Some(CausalEdge::Timeout { woken: 3 })
        );
        assert_eq!(
            causal_edge(&ev(Some(1), EventKind::Join { target: 2 })),
            Some(CausalEdge::Join {
                target: 2,
                joiner: 1
            })
        );
        assert_eq!(
            causal_edge(&ev(
                Some(1),
                EventKind::Block {
                    reason: BlockReason::Mutex,
                    obj: Some(7)
                }
            )),
            Some(CausalEdge::BlockPublish { thread: 1, obj: 7 })
        );
        assert_eq!(
            causal_edge(&ev(
                Some(1),
                EventKind::Notify {
                    reason: BlockReason::Condvar,
                    obj: 7,
                    waiters: 1,
                    woken: 1
                }
            )),
            Some(CausalEdge::NotifyExchange { thread: 1, obj: 7 })
        );
        // No subject, or no ordering content: no edge.
        assert_eq!(causal_edge(&ev(None, EventKind::Alloc { bytes: 1 })), None);
        assert_eq!(causal_edge(&ev(Some(1), EventKind::Preempt)), None);
        assert_eq!(
            causal_edge(&ev(Some(1), EventKind::Spawn { parent: None })),
            None
        );
    }
}
