//! Thread control blocks, the thread table and join handles.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::panic::resume_unwind;
use std::rc::Rc;

use ptdf_fiber::{Coroutine, Yielder};
use ptdf_smp::{ProcId, VirtTime};

use crate::api::par_ctx;
use crate::cancel::{deliver_cancel, raise_cancel};
use crate::config::Attr;
use crate::runtime::{suspend_current, Inner};
use crate::sentinel::{DeadlockError, TimedOut};
use crate::trace::{BlockReason, EventKind};
use crate::waitq::{parked, untimed, Evict};

/// Identifier of a thread within one run.
///
/// Ids are dense and sequential — the root is `t0`, the *k*-th spawn of the
/// run is `t{k}` — and **never reused**: an id held past its thread's exit
/// (by a join handle, a wait queue, a deadline token, a trace record) keeps
/// naming that thread, which the runtime reports as exited. An id means
/// nothing in a run other than the one that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub(crate) u32);

impl ThreadId {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Reason a fiber suspended back to the engine.
#[derive(Debug)]
pub(crate) enum YieldReason {
    /// Forked a child under a preempt-on-fork policy; the child should be
    /// dispatched on this processor next and the parent re-queued.
    Forked { child: ThreadId },
    /// The thread registered itself on some wait queue (mutex, condvar,
    /// join, ...) and must not be re-queued until made ready.
    Blocked,
    /// Memory quota exhausted (DF policy); re-queue at own position.
    Preempted,
    /// Voluntary yield; re-queue.
    Yielded,
    /// Joining a child that has already exited (in engine real time) but
    /// whose virtual exit lies in this processor's future. The thread
    /// sleeps until `at` — re-queued immediately, published at the child's
    /// exit time — so the processor can run other ready work in the gap
    /// instead of idling (greedy scheduling).
    JoinWake { at: ptdf_smp::VirtTime },
    /// Simulation time-slice: this fiber ran far ahead of the other
    /// processors' virtual clocks and must pause so that virtually
    /// concurrent segments interleave correctly. The engine resumes it on
    /// the same processor with **zero modelled cost** — it is an artifact
    /// of sequential simulation, not a scheduling event.
    Timeslice,
}

pub(crate) type Fiber = Coroutine<(), YieldReason, ()>;
pub(crate) type FiberYielder = Yielder<(), YieldReason, ()>;

/// Lifecycle state of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TState {
    /// Created, never dispatched.
    Created,
    /// In the scheduler's ready set.
    Ready,
    /// Currently executing on a processor.
    Running(ProcId),
    /// On a wait queue.
    Blocked,
}

/// What kind of thread this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// The root thread running the user's entry closure.
    Root,
    /// An application thread.
    User,
    /// A no-op thread inserted by the DF allocation hook (§4 item 2).
    Dummy,
}

/// What a blocked thread is waiting for — one edge of the waits-for graph
/// the deadlock sentinel walks. Written by `park`, cleared on wake.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Wait {
    /// Primitive class (mutex, condvar, join, ...).
    pub reason: crate::trace::BlockReason,
    /// Per-run sync-object id, when the primitive has one (`None` for join).
    pub obj: Option<u32>,
    /// Join target, when the wait is on another thread's exit.
    pub target: Option<ThreadId>,
}

/// Thread control block: everything the engine knows about one *live*
/// thread. It lives in a [`ThreadTable`] slot from creation to exit and is
/// dropped there; what outlasts the thread (its exit time, its value or
/// panic payload) is in its [`JoinCell`], not here.
pub(crate) struct Tcb {
    /// The thread's own id, stamped by [`ThreadTable::issue`]: a slab slot
    /// can say whose record it holds.
    pub id: ThreadId,
    pub state: TState,
    pub kind: Kind,
    pub fiber: Option<Fiber>,
    /// Raw pointer to the fiber's `Yielder`, registered by the fiber body on
    /// first dispatch; valid whenever the fiber is alive.
    pub yielder: *const FiberYielder,
    pub attr: Attr,
    /// Reserved (accounted) stack bytes.
    pub stack_reserved: u64,
    /// Committed (accounted) stack bytes under the lazy-commit model.
    pub stack_committed: u64,
    pub has_run: bool,
    /// Remaining memory quota in this scheduling quantum (DF policy).
    pub quota: i64,
    /// Thread blocked in `join` on us, woken at exit.
    pub joiner: Option<ThreadId>,
    /// Processor this thread last ran on (affinity hint for the queue
    /// policies).
    pub last_proc: Option<ptdf_smp::ProcId>,
    /// For [`Kind::Dummy`]: how many dummies this subtree still represents
    /// (the §4 item 2 dummies are forked lazily as a binary tree).
    pub dummy_remaining: u64,
    /// Virtual time at which the thread last blocked (wake happens-before
    /// edge: a wake may not resume it earlier than its own suspension).
    pub blocked_at: ptdf_smp::VirtTime,
    /// Virtual time at which the thread last became ready (flight-recorder
    /// ready-wait accounting).
    pub ready_since: ptdf_smp::VirtTime,
    /// What the thread is blocked on (waits-for edge); `Some` exactly while
    /// `state == Blocked`.
    pub wait: Option<Wait>,
    /// Armed virtual-time deadline of an in-progress timed wait.
    pub deadline: Option<ptdf_smp::VirtTime>,
    /// Set by the engine when the thread was woken by its deadline rather
    /// than by the primitive; the timed API consumes (clears) it on resume.
    pub timed_out: bool,
    /// How to take this thread out of its wait when a deadline or a
    /// cancellation wakes it instead of a grant: plain data, written by
    /// `park`, consumed by `evict_wake`, cleared by a grant
    /// ([`crate::waitq`]). `Some` exactly while `state == Blocked`.
    pub evict: Option<crate::waitq::Evict>,
    /// A cancellation request is latched on this thread
    /// ([`fn@crate::cancel`] / [`JoinHandle::cancel`]); delivered (and
    /// cleared) at the thread's next cancellation point.
    pub cancel_requested: bool,
    /// POSIX cancel state: delivery happens only while enabled. Default
    /// true; toggled by [`crate::set_cancel_enabled`], and forced false for
    /// the remainder of the thread once a cancel is delivered, so cleanup
    /// handlers can use sync operations without re-delivery.
    pub cancel_enabled: bool,
    /// Set by the engine when the thread's last wake was a cancellation
    /// delivery ([`crate::trace::EventKind::Cancel`]); the blocking APIs
    /// consume (clear) it on resume, like [`Tcb::timed_out`].
    pub cancel_woken: bool,
    /// Thread that issued the latched cancel request (`None` when issued
    /// from outside any thread), recorded for trace attribution.
    pub canceled_by: Option<u32>,
}

impl Tcb {
    pub fn new(kind: Kind, attr: Attr, stack_reserved: u64) -> Self {
        Tcb {
            id: ThreadId(u32::MAX),
            state: TState::Created,
            kind,
            fiber: None,
            yielder: std::ptr::null(),
            attr,
            stack_reserved,
            stack_committed: 0,
            has_run: false,
            quota: 0,
            joiner: None,
            last_proc: None,
            dummy_remaining: 0,
            blocked_at: ptdf_smp::VirtTime::ZERO,
            ready_since: ptdf_smp::VirtTime::ZERO,
            wait: None,
            deadline: None,
            timed_out: false,
            evict: None,
            cancel_requested: false,
            cancel_enabled: true,
            cancel_woken: false,
            canceled_by: None,
        }
    }
}

/// Ids per page of an [`IdDirectory`].
const PAGE_IDS: usize = 4096;

/// [`IdDirectory`] value of an id without an entry.
const VACANT: u32 = u32::MAX;

/// One page of an [`IdDirectory`]: the values of 4,096 consecutive ids.
struct Page {
    values: Box<[u32; PAGE_IDS]>,
    /// Ids of the page that have an entry.
    live: u32,
}

impl Page {
    fn new() -> Self {
        Page {
            values: vec![VACANT; PAGE_IDS]
                .into_boxed_slice()
                .try_into()
                .expect("a page holds PAGE_IDS values"),
            live: 0,
        }
    }
}

/// A `u32` for each *live* thread id of a run — the thread table's slab
/// slot, DF's list node — in memory that follows the live ids, not the ids
/// ever issued.
///
/// Ids arrive densely, in the order they are issued ([`ThreadId`]), and
/// leave in any order. The values sit in pages of 4,096 consecutive ids,
/// and a page is freed once every id in it has arrived and left: a run
/// holds the pages of its live ids and one word per 4,096 ids it has
/// issued, so an exited thread costs nothing once its page-mates have
/// exited too. A lookup is two dependent loads (the page, then the value),
/// and the live ids enumerate in ascending order.
pub(crate) struct IdDirectory {
    pages: Vec<Option<Page>>,
    /// The next id to arrive: the number of ids issued.
    end: u32,
}

impl IdDirectory {
    pub fn new() -> Self {
        IdDirectory {
            pages: Vec::new(),
            end: 0,
        }
    }

    /// The next id to arrive: the number of ids issued.
    pub fn end(&self) -> u32 {
        self.end
    }

    /// Enters `id` with `value`.
    ///
    /// # Panics
    /// When `id` is not the next id ([`Self::end`]), or `value` is
    /// `u32::MAX`.
    pub fn insert(&mut self, id: ThreadId, value: u32) {
        assert_eq!(id.0, self.end, "ids arrive densely, in issue order");
        assert_ne!(value, VACANT, "{id}: u32::MAX is not a value");
        let (p, i) = (id.index() / PAGE_IDS, id.index() % PAGE_IDS);
        if self.pages.len() <= p {
            self.pages.push(None);
        }
        let page = self.pages[p].get_or_insert_with(Page::new);
        page.values[i] = value;
        page.live += 1;
        self.end = id.0 + 1;
    }

    /// `id`'s value, if it has an entry.
    #[inline]
    pub fn get(&self, id: ThreadId) -> Option<u32> {
        let page = self.pages.get(id.index() / PAGE_IDS)?.as_ref()?;
        let value = page.values[id.index() % PAGE_IDS];
        (value != VACANT).then_some(value)
    }

    /// Removes `id`'s entry and returns its value; frees the page once every
    /// id in it has arrived and left.
    pub fn remove(&mut self, id: ThreadId) -> Option<u32> {
        let p = id.index() / PAGE_IDS;
        let page = self.pages.get_mut(p)?.as_mut()?;
        let value = std::mem::replace(&mut page.values[id.index() % PAGE_IDS], VACANT);
        if value == VACANT {
            return None;
        }
        page.live -= 1;
        if page.live == 0 && (p + 1) * PAGE_IDS <= self.end as usize {
            self.pages[p] = None;
        }
        Some(value)
    }

    /// The ids with an entry and their values, in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (ThreadId, u32)> + '_ {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(p, page)| Some((p * PAGE_IDS, page.as_ref()?)))
            .flat_map(|(first, page)| {
                page.values
                    .iter()
                    .enumerate()
                    .filter(|&(_, &value)| value != VACANT)
                    .map(move |(i, &value)| (ThreadId((first + i) as u32), value))
            })
    }

    /// Pages currently allocated.
    #[cfg(test)]
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().flatten().count()
    }
}

impl std::fmt::Debug for IdDirectory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Which of [`ThreadTable`]'s two lookup hints a resolution updates.
const WORKING: usize = 0;
const PROBED: usize = 1;

/// End of the [`ThreadTable`] free chain.
const NO_SLOT: u32 = u32::MAX;

/// One slab cell of the [`ThreadTable`]. The record is inline on purpose —
/// the slab *is* the records — and the free link fits a niche of it.
#[allow(clippy::large_enum_variant)]
enum SlabSlot {
    Live(Tcb),
    /// Unoccupied; `next` is the following free slot ([`NO_SLOT`] at the
    /// end of the chain).
    Free {
        next: u32,
    },
}

/// The run's thread table: host space follows the threads that are *alive*,
/// not the threads that ever ran.
///
/// Two levels. `ids` is an [`IdDirectory`] from each live id — ids are
/// dense, sequential and never reused ([`ThreadId`]) — to its slot in
/// `slab`, which has one [`Tcb`] per live thread; a slot freed by an exit is
/// handed to the next thread created, and the free slots are chained
/// through the slab itself. An exited thread keeps nothing here: what a
/// join still needs (its exit time, its value or panic payload) is in its
/// [`JoinCell`]. Every stale holder of an id — a deadline-heap token, a
/// wait-queue entry, a late `cancel` — resolves to "exited" through
/// [`Self::get`], whoever occupies the slot now.
///
/// The directory is two dependent loads in front of every record access,
/// and the engine touches threads in runs: five or six operations in a row
/// on the thread that is blocking, yielding or being dispatched, then three
/// on the one it wakes. So the table remembers two `(id, slot)` pairs — the
/// one [`Self::live`] / [`Self::live_mut`] resolved last (the thread the
/// engine is working on) and the one [`Self::get`] / [`Self::get_mut`]
/// resolved last (the thread it probed: a wakee, a deadline token) — and a
/// lookup of either id skips the directory. They are only hints, with
/// nothing to invalidate when a thread exits or a slot is re-let: whatever
/// slot a lookup arrives at answers for `t` only if it is live *and its
/// record carries `t`'s id*, and a live thread never changes slots, so a
/// hint that has gone stale reads, correctly, as "exited". Probes have
/// their own hint so that the deadline-heap scan of every engine round
/// cannot evict the running thread's.
pub(crate) struct ThreadTable {
    ids: IdDirectory,
    slab: Vec<SlabSlot>,
    /// Head of the free chain through `slab`.
    free: u32,
    /// Lookup hints: the `(id, slot)` resolved last for a thread the engine
    /// works on ([`WORKING`]) and for one it probes ([`PROBED`]).
    hints: [Cell<(u32, u32)>; 2],
}

#[cold]
#[inline(never)]
fn not_live(t: ThreadId) -> ! {
    panic!("{t} is not a live thread of this run")
}

impl ThreadTable {
    pub fn new() -> Self {
        ThreadTable {
            ids: IdDirectory::new(),
            slab: Vec::new(),
            free: NO_SLOT,
            // `u32::MAX` is never issued, so these match nothing.
            hints: [Cell::new((u32::MAX, 0)), Cell::new((u32::MAX, 0))],
        }
    }

    /// Issues the next id for a new live thread.
    pub fn issue(&mut self, mut tcb: Tcb) -> ThreadId {
        let id = self.ids.end();
        // `u32::MAX` is the inline-handle sentinel, never a real id.
        assert_ne!(id, u32::MAX, "thread ids are 32 bits");
        tcb.id = ThreadId(id);
        let slot = match self.free {
            NO_SLOT => {
                self.slab.push(SlabSlot::Live(tcb));
                self.slab.len() - 1
            }
            s => {
                let cell = &mut self.slab[s as usize];
                let SlabSlot::Free { next } = *cell else {
                    panic!("thread-table free chain reached live slot {s}");
                };
                self.free = next;
                *cell = SlabSlot::Live(tcb);
                s as usize
            }
        };
        let slot = u32::try_from(slot).expect("slab slots are 32 bits");
        self.ids.insert(ThreadId(id), slot);
        ThreadId(id)
    }

    /// The slot to look for `t`'s record in: the hinted one if a hint is
    /// about `t`, else the directory's (remembered in hint `remember`). An
    /// id without an entry — exited, or never issued — gets `usize::MAX`,
    /// past any slab, so [`Self::record`]'s bounds check is also the
    /// liveness test.
    #[inline]
    fn slot_of(&self, t: ThreadId, remember: usize) -> usize {
        for hint in &self.hints {
            let (id, slot) = hint.get();
            if id == t.0 {
                return slot as usize;
            }
        }
        let Some(slot) = self.ids.get(t) else {
            return usize::MAX;
        };
        self.hints[remember].set((t.0, slot));
        slot as usize
    }

    /// `t`'s record, if `slot` holds it.
    #[inline]
    fn record(&self, t: ThreadId, slot: usize) -> Option<&Tcb> {
        match self.slab.get(slot) {
            Some(SlabSlot::Live(tcb)) if tcb.id == t => Some(tcb),
            _ => None,
        }
    }

    /// Mutable flavour of [`Self::record`].
    #[inline]
    fn record_mut(&mut self, t: ThreadId, slot: usize) -> Option<&mut Tcb> {
        match self.slab.get_mut(slot) {
            Some(SlabSlot::Live(tcb)) if tcb.id == t => Some(tcb),
            _ => None,
        }
    }

    /// `t`'s record while it is live; `None` once it has exited (and for an
    /// id this run never issued).
    #[inline]
    pub fn get(&self, t: ThreadId) -> Option<&Tcb> {
        self.record(t, self.slot_of(t, PROBED))
    }

    /// Mutable flavour of [`Self::get`].
    #[inline]
    pub fn get_mut(&mut self, t: ThreadId) -> Option<&mut Tcb> {
        let slot = self.slot_of(t, PROBED);
        self.record_mut(t, slot)
    }

    /// The record of a thread the caller knows to be live.
    ///
    /// # Panics
    /// When `t` has exited: the engine touching an exited thread is a bug.
    #[inline]
    pub fn live(&self, t: ThreadId) -> &Tcb {
        match self.record(t, self.slot_of(t, WORKING)) {
            Some(tcb) => tcb,
            None => not_live(t),
        }
    }

    /// Mutable flavour of [`Self::live`], with the same panic.
    #[inline]
    pub fn live_mut(&mut self, t: ThreadId) -> &mut Tcb {
        let slot = self.slot_of(t, WORKING);
        match self.record_mut(t, slot) {
            Some(tcb) => tcb,
            None => not_live(t),
        }
    }

    /// Retires live `t`: drops its record and frees its slot for the next
    /// [`Self::issue`] and its id's entry. Returns the thread registered as
    /// its joiner.
    ///
    /// # Panics
    /// When `t` is not live (retiring twice).
    pub fn retire(&mut self, t: ThreadId) -> Option<ThreadId> {
        let slot = self.slot_of(t, WORKING);
        let Some(tcb) = self.record_mut(t, slot) else {
            not_live(t)
        };
        let joiner = tcb.joiner.take();
        self.slab[slot] = SlabSlot::Free { next: self.free };
        self.free = slot as u32;
        self.ids.remove(t);
        joiner
    }

    /// Ids issued so far (live and exited).
    pub fn issued(&self) -> usize {
        self.ids.end() as usize
    }

    /// The live threads in ascending id order — the order stall verdicts
    /// list them and the stall sweep unwinds them.
    pub fn live_ids(&self) -> impl Iterator<Item = ThreadId> + '_ {
        self.ids.iter().map(|(t, _)| t)
    }

    /// Slab slots ever allocated: the peak number of simultaneously live
    /// threads.
    #[cfg(test)]
    pub fn slots(&self) -> usize {
        self.slab.len()
    }

    /// Directory pages currently allocated.
    #[cfg(test)]
    pub fn resident_pages(&self) -> usize {
        self.ids.resident_pages()
    }
}

/// A panic payload.
pub(crate) type Payload = Box<dyn Any + Send>;

/// [`Exit::at`] of a thread that has not exited.
const RUNNING: u64 = u64::MAX;

/// How a thread ended, as a join needs to know it. The thread's own fiber
/// writes it as its last act (`runtime::fiber_body`); whoever joins the
/// thread reads it.
pub(crate) struct Exit {
    /// Exit time in ns, or [`RUNNING`].
    at: Cell<u64>,
    /// A panic that escaped the thread's closure — a cancellation's
    /// [`crate::CancelError`] included — for one join. Boxed once more to
    /// keep the cell one word smaller: panics are rare.
    panic: Cell<Option<Box<Payload>>>,
}

impl Exit {
    fn new() -> Self {
        Exit {
            at: Cell::new(RUNNING),
            panic: Cell::new(None),
        }
    }

    /// `Some(exit time)` once the thread has exited.
    pub fn time(&self) -> Option<VirtTime> {
        let at = self.at.get();
        (at != RUNNING).then(|| VirtTime::from_ns(at))
    }

    /// Records the thread's exit at `at`.
    pub fn set_time(&self, at: VirtTime) {
        debug_assert_ne!(
            at.as_ns(),
            RUNNING,
            "exit time collides with the running marker"
        );
        self.at.set(at.as_ns());
    }

    pub fn set_panic(&self, payload: Payload) {
        self.panic.set(Some(Box::new(payload)));
    }

    /// Takes the panic payload the thread left for its joiner, if any.
    pub fn take_panic(&self) -> Option<Payload> {
        self.panic.take().map(|payload| *payload)
    }
}

/// Join state shared by a thread and its handle, and the one heap block a
/// spawn makes: the thread's [`Exit`] and its closure's value. It lives as
/// long as either holds it, so an exited thread whose handle is gone costs
/// the run nothing.
pub(crate) struct JoinCell<T> {
    pub exit: Exit,
    pub value: Cell<Option<T>>,
    /// Set when the handle is dropped: the value has no taker, and dies
    /// where it is made (`runtime::fiber_body`) or with the handle.
    pub detached: Cell<bool>,
}

impl<T> JoinCell<T> {
    pub fn new() -> Self {
        JoinCell {
            exit: Exit::new(),
            value: Cell::new(None),
            detached: Cell::new(false),
        }
    }

    /// The handle is gone: drops a value already stored, and has the thread
    /// drop one it has yet to return.
    pub fn detach(&self) {
        self.detached.set(true);
        drop(self.value.take());
    }
}

/// What a fiber body writes into; a scoped thread's cell wraps a join cell.
impl<T> AsRef<JoinCell<T>> for JoinCell<T> {
    fn as_ref(&self) -> &JoinCell<T> {
        self
    }
}

/// Why a join could not deliver the thread's value.
///
/// `pthread_join` distinguishes a normally-returned value from an aborted
/// thread; [`JoinHandle::try_join`] does the same instead of unwinding the
/// joiner or hitting an internal `expect`.
pub enum JoinError {
    /// The thread's closure panicked; the payload is the panic value.
    Panicked(Box<dyn Any + Send>),
    /// The thread was cancelled ([`fn@crate::cancel`] /
    /// [`JoinHandle::cancel`]) and unwound at a cancellation point; the
    /// structured [`crate::CancelError`] rides along instead of a generic
    /// panic payload.
    Canceled(crate::CancelError),
    /// The thread exited without storing a value (e.g. the value was
    /// already taken, or the thread was torn down before running).
    NoValue,
}

impl JoinError {
    /// The error for a joined thread that left `payload`: a cancellation's
    /// [`crate::CancelError`] is [`JoinError::Canceled`], anything else a
    /// panic.
    pub(crate) fn of(payload: Payload) -> Self {
        match payload.downcast::<crate::CancelError>() {
            Ok(e) => JoinError::Canceled(*e),
            Err(p) => JoinError::Panicked(p),
        }
    }

    /// Unwinds the joiner with what the joined thread left — its panic, or
    /// its structured [`crate::CancelError`] — and panics with `what` and
    /// this error for a missing value.
    pub(crate) fn raise(self, what: &str) -> ! {
        match self {
            JoinError::Panicked(payload) => resume_unwind(payload),
            JoinError::Canceled(e) => raise_cancel(e),
            JoinError::NoValue => panic!("{what}{self}"),
        }
    }

    /// The panic payload, if the thread panicked (a cancelled thread's
    /// payload is its boxed [`crate::CancelError`], so re-raising keeps
    /// the structured form).
    pub fn into_panic(self) -> Option<Box<dyn Any + Send>> {
        match self {
            JoinError::Panicked(p) => Some(p),
            JoinError::Canceled(e) => Some(Box::new(e)),
            JoinError::NoValue => None,
        }
    }
}

impl std::fmt::Debug for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::Panicked(p) => {
                let msg = p
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| p.downcast_ref::<String>().map(String::as_str));
                f.debug_tuple("Panicked").field(&msg).finish()
            }
            JoinError::Canceled(e) => f.debug_tuple("Canceled").field(e).finish(),
            JoinError::NoValue => f.write_str("NoValue"),
        }
    }
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::Panicked(_) => f.write_str("joined thread panicked"),
            JoinError::Canceled(e) => write!(f, "joined thread was cancelled: {e}"),
            JoinError::NoValue => f.write_str("joined thread produced no value"),
        }
    }
}

impl std::error::Error for JoinError {}

/// Owned handle to a spawned thread; consume with [`JoinHandle::join`].
///
/// Unlike `pthread_join`, the handle is typed: the thread's closure return
/// value is delivered to the joiner. Dropping the handle without joining
/// detaches the thread (it still runs to completion).
pub struct JoinHandle<T> {
    pub(crate) id: ThreadId,
    pub(crate) cell: Rc<JoinCell<T>>,
    /// Token of the run the thread belongs to ([`crate::runtime::Inner`]'s
    /// `run_token`); `None` for a handle completed inline (serial /
    /// no-runtime mode). Joining and cancelling consult the engine only
    /// inside that run: anywhere else the thread is long complete — a run
    /// returns only once every thread has exited or been torn down — and
    /// `id` would name an unrelated thread, so the handle just yields the
    /// value in its cell.
    pub(crate) run: Option<u64>,
}

impl<T> JoinHandle<T> {
    /// The spawned thread's id.
    pub fn id(&self) -> ThreadId {
        self.id
    }

    /// Waits for the thread to finish and returns its result.
    ///
    /// # Panics
    /// Re-raises a panic that escaped the thread's closure (pthread `join`
    /// semantics on an aborted thread); a cancelled thread re-raises its
    /// structured [`crate::CancelError`].
    pub fn join(self) -> T {
        self.try_join().unwrap_or_else(|e| e.raise(""))
    }

    /// Waits for the thread to finish; a panic in the thread is returned as
    /// [`JoinError::Panicked`] instead of unwinding the joiner.
    pub fn try_join(self) -> Result<T, JoinError> {
        if let Some(rc) = self.owning_run() {
            if let Some(payload) = untimed(join_wait_in(&rc, self.id, &self.cell.exit, None)) {
                return Err(JoinError::of(payload));
            }
        }
        self.cell.value.take().ok_or(JoinError::NoValue)
    }

    /// Waits up to `timeout` of virtual time for the thread to finish.
    ///
    /// On timeout the handle is returned so the caller can retry (or detach
    /// by dropping it); the thread keeps running either way. A panic in the
    /// joined thread is re-raised like [`JoinHandle::join`].
    pub fn join_timeout(self, timeout: ptdf_smp::VirtTime) -> Result<T, JoinHandle<T>> {
        if let Some(rc) = self.owning_run() {
            match join_wait_in(&rc, self.id, &self.cell.exit, Some(timeout)) {
                Ok(Some(payload)) => resume_unwind(payload),
                Ok(None) => {}
                Err(TimedOut) => return Err(self),
            }
        }
        Ok(self
            .cell
            .value
            .take()
            .unwrap_or_else(|| JoinError::NoValue.raise("")))
    }

    /// Requests cancellation of the thread (`pthread_cancel` semantics,
    /// deferred-only): the request latches and is delivered at the
    /// thread's next *cancellation point* — entry to any blocking sync
    /// operation, [`crate::yield_now`], resumption of a timed wait, or an
    /// explicit [`crate::cancel_point`]. A target currently blocked (with
    /// cancellation enabled) is evicted from its wait queue and woken
    /// immediately. Delivery unwinds the thread with a
    /// [`crate::CancelError`]; [`JoinHandle::try_join`] then reports
    /// [`JoinError::Canceled`].
    ///
    /// Returns `false` when the request cannot take effect: the thread has
    /// already exited, the handle completed inline (serial mode), or the
    /// run that made the handle is over.
    pub fn cancel(&self) -> bool {
        self.owning_run()
            .is_some_and(|rc| rc.borrow_mut().request_cancel(self.id))
    }

    /// The active run, when it is the one that made this handle. `None` for
    /// an inline handle, outside any run, and inside a different run —
    /// where the handle's thread is long complete and its id means nothing.
    fn owning_run(&self) -> Option<Rc<RefCell<Inner>>> {
        let run = self.run?;
        par_ctx().filter(|rc| rc.borrow().run_token == run)
    }

    /// Explicitly detaches the thread (equivalent to dropping the handle).
    pub fn detach(self) {}
}

/// A value nobody can take is dropped as soon as possible: here, or by the
/// thread as the last step of its closure.
impl<T> Drop for JoinHandle<T> {
    fn drop(&mut self) {
        self.cell.detach();
    }
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinHandle").field("id", &self.id).finish()
    }
}

/// Blocks the current thread until `target`, a thread of the active run
/// whose cell holds `exit`, exits. Returns the target's panic payload, if
/// it panicked; the caller decides whether to re-raise.
pub(crate) fn join_wait(target: ThreadId, exit: &Exit) -> Option<Payload> {
    let rc = par_ctx().expect("join on a runtime thread outside the runtime");
    untimed(join_wait_in(&rc, target, exit, None))
}

/// Waits for `target`'s exit — recorded in `exit`, from its cell — at most
/// `timeout` of virtual time if there is one: `Err(TimedOut)` when `target`
/// has not (virtually) exited by then; otherwise the target's panic
/// payload, if it panicked.
fn join_wait_in(
    rc: &Rc<RefCell<Inner>>,
    target: ThreadId,
    exit: &Exit,
    timeout: Option<VirtTime>,
) -> Result<Option<Payload>, TimedOut> {
    // Join is a cancellation point (POSIX): deliver on entry…
    deliver_cancel(rc);
    let mut deadline: Option<VirtTime> = None;
    loop {
        let mut inner = rc.borrow_mut();
        // Lenient on context: a scope guard unwinding during stall teardown
        // joins children that will never run; report "no value" upstream
        // instead of tearing the process down with a nested panic.
        let Some((cur, p)) = inner.cur else {
            return Ok(None);
        };
        let now = inner.machine.clock(p);
        if let Some(timeout) = timeout {
            deadline.get_or_insert(VirtTime::from_ns(
                now.as_ns().saturating_add(timeout.as_ns()),
            ));
        }
        if let Some(exit_time) = exit.time() {
            if let Some(deadline) = deadline.filter(|&d| exit_time > d) {
                // The child's virtual exit lies beyond our budget: sleep to
                // the deadline (greedily, like `JoinWake`) and report the
                // timeout at exactly the promised virtual instant.
                drop(inner);
                suspend_current(rc, YieldReason::JoinWake { at: deadline });
                return Err(TimedOut);
            }
            // Happens-before: join cannot return before the child's virtual
            // exit, even when the engine (real-time) ran the child first.
            if now < exit_time {
                // The exit lies in this processor's virtual future. Don't
                // idle the processor across the gap — that would be
                // non-greedy (and breaks Brent's bound when other work is
                // ready). Sleep until the exit becomes visible instead.
                drop(inner);
                suspend_current(rc, YieldReason::JoinWake { at: exit_time });
                continue;
            }
            let c = inner.machine.cost().join_exited;
            inner.machine.thread_op(p, c);
            inner.trace_event(p, cur.0, EventKind::Join { target: target.0 });
            return Ok(exit.take_panic());
        }
        assert!(
            inner.threads.live(target).joiner.is_none(),
            "two threads joining {target}"
        );
        // A join edge can close a waits-for cycle just like a lock edge
        // (t1 joins t2 while t2 blocks on a mutex t1 holds). Check before
        // registering as joiner, and unwind instead of blocking forever —
        // unless the wait is timed: its deadline breaks any cycle.
        if timeout.is_none() {
            if let Some(info) = inner.probe_deadlock(None, Some(target)) {
                drop(inner);
                std::panic::panic_any(DeadlockError { info });
            }
        }
        // The registration is a one-slot wait queue on the target: its exit
        // grants it, and a deadline or a cancel withdraws it with the wake
        // (`Evict::Joiner`), so the exit never meets a dead joiner.
        inner.threads.live_mut(target).joiner = Some(cur);
        let wait = Wait {
            reason: BlockReason::Join,
            obj: None,
            target: Some(target),
        };
        let left = deadline.map(|d| VirtTime::from_ns(d.as_ns().saturating_sub(now.as_ns())));
        inner.park(wait, left, Evict::Joiner(target));
        drop(inner);
        parked(rc, timeout.is_some())?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptdf_smp::Prng;

    /// A record tagged through `stack_reserved`, so a test can tell whose
    /// it is.
    fn tagged(tag: u64) -> Tcb {
        Tcb::new(Kind::User, Attr::default(), tag)
    }

    fn tag_of(table: &ThreadTable, id: u32) -> Option<u64> {
        table.get(ThreadId(id)).map(|t| t.stack_reserved)
    }

    /// What the model knows about one id.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Model {
        Live(u64),
        Exited,
    }

    #[test]
    fn random_sequences_match_a_plain_vector_model() {
        for seed in 0..20 {
            let mut prng = Prng::new(seed);
            let mut table = ThreadTable::new();
            let mut model: Vec<Model> = Vec::new();
            let mut lives: Vec<u32> = Vec::new();
            let mut peak = 0usize;
            // Long growth and long drain phases, so the free chain gets
            // deep and is then consumed to the end, over enough ids to fill
            // several directory pages and empty some of them again.
            for step in 0..12_000u64 {
                let grow = (step / 1_500) % 2 == 0;
                let issue = lives.is_empty() || prng.chance(if grow { 3 } else { 1 }, 4);
                if issue {
                    let tag = 1_000_000 + step;
                    let id = table.issue(tagged(tag));
                    assert_eq!(id.index(), model.len(), "ids are dense and sequential");
                    model.push(Model::Live(tag));
                    lives.push(id.0);
                    peak = peak.max(lives.len());
                } else {
                    let victim = lives.swap_remove(prng.below(lives.len() as u64) as usize);
                    let joiner = prng.chance(1, 2).then_some(ThreadId(7));
                    table.live_mut(ThreadId(victim)).joiner = joiner;
                    assert_eq!(table.retire(ThreadId(victim)), joiner);
                    model[victim as usize] = Model::Exited;
                }
                // The slab is exactly as long as the most threads ever alive
                // at once: a new slot is cut only when no free one exists.
                assert_eq!(table.slots(), peak, "seed {seed} step {step}");
                assert_eq!(table.issued(), model.len());
                // A probe anywhere, including past the last id.
                let probe = prng.below(model.len() as u64 + 3) as u32;
                match model.get(probe as usize) {
                    Some(&Model::Live(tag)) => assert_eq!(tag_of(&table, probe), Some(tag)),
                    Some(Model::Exited) => {
                        assert_eq!(tag_of(&table, probe), None);
                        assert!(table.get_mut(ThreadId(probe)).is_none());
                    }
                    None => assert_eq!(tag_of(&table, probe), None),
                }
                if step % 97 == 0 {
                    // Every live thread still reads its own record — a free
                    // chain that handed out a live slot would have
                    // overwritten one — and they enumerate in id order.
                    let expect: Vec<(u32, u64)> = model
                        .iter()
                        .enumerate()
                        .filter_map(|(i, m)| match m {
                            Model::Live(tag) => Some((i as u32, *tag)),
                            Model::Exited => None,
                        })
                        .collect();
                    let got: Vec<(u32, u64)> = table
                        .live_ids()
                        .map(|t| (t.0, table.live(t).stack_reserved))
                        .collect();
                    assert_eq!(got, expect, "seed {seed} step {step}");
                    // A page stays exactly while it holds a live id or more
                    // ids may still arrive in it.
                    let mut pages: Vec<usize> = expect
                        .iter()
                        .map(|&(id, _)| id as usize / PAGE_IDS)
                        .collect();
                    if !model.len().is_multiple_of(PAGE_IDS) {
                        pages.push((model.len() - 1) / PAGE_IDS);
                    }
                    pages.sort_unstable();
                    pages.dedup();
                    assert_eq!(
                        table.resident_pages(),
                        pages.len(),
                        "seed {seed} step {step}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_long_run_with_few_threads_alive_keeps_few_pages() {
        let mut table = ThreadTable::new();
        let mut lives = std::collections::VecDeque::new();
        for step in 0..200_000u64 {
            lives.push_back(table.issue(tagged(step)));
            if lives.len() > 4 {
                table.retire(lives.pop_front().expect("five are live"));
            }
            assert!(
                table.resident_pages() <= 3,
                "step {step}: {} pages",
                table.resident_pages()
            );
        }
        assert_eq!(table.issued(), 200_000);
    }

    #[test]
    #[should_panic(expected = "ids arrive densely, in issue order")]
    fn ids_enter_the_directory_densely() {
        let mut ids = IdDirectory::new();
        ids.insert(ThreadId(0), 0);
        ids.insert(ThreadId(2), 0);
    }

    #[test]
    #[should_panic(expected = "t0 is not a live thread")]
    fn retiring_twice_panics() {
        let mut table = ThreadTable::new();
        let t = table.issue(tagged(0));
        table.retire(t);
        // The slot has a new tenant: the stale id must not retire it.
        table.issue(tagged(1));
        table.retire(t);
    }

    #[test]
    #[should_panic(expected = "t0 is not a live thread")]
    fn mutating_an_exited_thread_panics() {
        let mut table = ThreadTable::new();
        let t = table.issue(tagged(0));
        table.retire(t);
        table.issue(tagged(1));
        table.live_mut(t).quota = 1;
    }

    #[test]
    fn a_stale_hint_reads_as_exited() {
        let mut table = ThreadTable::new();
        let a = table.issue(tagged(1));
        // Both hints now say where `a` lives…
        assert_eq!(table.live(a).stack_reserved, 1);
        assert_eq!(tag_of(&table, a.0), Some(1));
        // …and go stale: `a` exits and `b` moves into its slot.
        table.retire(a);
        assert!(table.get(a).is_none(), "hinted slot is free");
        let b = table.issue(tagged(2));
        assert_eq!(table.slots(), 1);
        assert!(table.get(a).is_none(), "hinted slot has a new tenant");
        assert!(table.get_mut(a).is_none());
        assert_eq!(table.live(b).stack_reserved, 2);
        assert_eq!(table.live_mut(b).stack_reserved, 2);
    }

    #[test]
    fn a_slab_slot_is_no_larger_than_a_record() {
        // The free link lives in a niche of the record: recycling costs no
        // bytes per slot.
        assert_eq!(std::mem::size_of::<SlabSlot>(), std::mem::size_of::<Tcb>());
    }
}
