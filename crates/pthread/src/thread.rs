//! Thread control blocks, the thread table and join handles.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use ptdf_fiber::{Coroutine, Yielder};
use ptdf_smp::{ProcId, VirtTime};

use crate::config::Attr;

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
/// dropped there; what outlasts the thread (its exit time, an unjoined
/// panic payload) is kept by the table, not here.
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
    /// Set when the thread body panicked; payload delivered at join.
    pub panic: Option<Box<dyn Any + Send>>,
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
            panic: None,
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

/// Bit 63 of a [`ThreadTable`] entry: set while the thread is live.
const LIVE: u64 = 1 << 63;

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
    Free { next: u32 },
}

/// The run's thread table: host space follows the threads that are *alive*,
/// not the threads that ever ran.
///
/// Two levels. `entries` has one 8-byte word per id ever issued — ids are
/// dense, sequential and never reused ([`ThreadId`]) — holding either
/// `LIVE | slot` or, once the thread has exited, its exit time in ns (bit
/// 63 clear). `slab` has one [`Tcb`] per live thread; a slot freed by an
/// exit is handed to the next thread created, and the free slots are
/// chained through the slab itself, so nothing else grows with the run.
///
/// An exited thread keeps exactly what `join` still needs: the exit time
/// (in its entry) and its panic payload until a join collects it (in
/// `panics`, which stays empty in a run where no thread panics). Every
/// stale holder of an id — a deadline-heap token, a wait-queue entry, a
/// late `cancel` — therefore resolves to "exited" through [`Self::get`],
/// whoever occupies the slot now.
///
/// The entry is a dependent load in front of every record access, and the
/// engine touches threads in runs: five or six operations in a row on the
/// thread that is blocking, yielding or being dispatched, then three on the
/// one it wakes. So the table remembers two `(id, slot)` pairs — the one
/// [`Self::live`] / [`Self::live_mut`] resolved last (the thread the engine
/// is working on) and the one [`Self::get`] / [`Self::get_mut`] resolved
/// last (the thread it probed: a wakee, a deadline token) — and a lookup of
/// either id skips the entry. They are only hints, with nothing to
/// invalidate when a thread exits or a slot is re-let: whatever slot a
/// lookup arrives at answers for `t` only if it is live *and its record
/// carries `t`'s id*, and a live thread never changes slots, so a hint
/// that has gone stale reads, correctly, as "exited". Probes have their own
/// hint so that the deadline-heap scan of every engine round cannot evict
/// the running thread's.
pub(crate) struct ThreadTable {
    entries: Vec<u64>,
    slab: Vec<SlabSlot>,
    /// Head of the free chain through `slab`.
    free: u32,
    /// Lookup hints: the `(id, slot)` resolved last for a thread the engine
    /// works on ([`WORKING`]) and for one it probes ([`PROBED`]).
    hints: [Cell<(u32, u32)>; 2],
    /// Unjoined panic payloads of exited threads, by id.
    panics: HashMap<u32, Box<dyn Any + Send>>,
}

#[cold]
#[inline(never)]
fn not_live(t: ThreadId) -> ! {
    panic!("{t} is not a live thread of this run")
}

impl ThreadTable {
    pub fn new() -> Self {
        ThreadTable {
            // Not from empty: below this size the doubling reallocs land
            // between the fiber stacks a run allocates at the same time and
            // leave the heap fragmented — `paper_apps` (70 runs a process,
            // up to 9,042 threads alive under FIFO) peaks 0.9 MB higher.
            entries: Vec::with_capacity(4096),
            slab: Vec::new(),
            free: NO_SLOT,
            // `u32::MAX` is never issued, so these match nothing.
            hints: [Cell::new((u32::MAX, 0)), Cell::new((u32::MAX, 0))],
            panics: HashMap::new(),
        }
    }

    /// Issues the next id for a new live thread.
    pub fn issue(&mut self, mut tcb: Tcb) -> ThreadId {
        // `u32::MAX` is the inline-handle sentinel, never a real id.
        let id = u32::try_from(self.entries.len())
            .ok()
            .filter(|&id| id != u32::MAX)
            .expect("thread ids are 32 bits");
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
        self.entries.push(LIVE | slot as u64);
        ThreadId(id)
    }

    /// The slot to look for `t`'s record in: the hinted one if a hint is
    /// about `t`, else where `t`'s entry points (remembered in hint
    /// `remember`). An exit time has bit 63 clear, so the xor turns it into
    /// an index past any slab and [`Self::record`]'s bounds check is also
    /// the liveness test; an id never issued gets `usize::MAX`, likewise
    /// past any slab.
    #[inline]
    fn slot_of(&self, t: ThreadId, remember: usize) -> usize {
        for hint in &self.hints {
            let (id, slot) = hint.get();
            if id == t.0 {
                return slot as usize;
            }
        }
        let Some(&e) = self.entries.get(t.index()) else {
            return usize::MAX;
        };
        let slot = usize::try_from(e ^ LIVE).unwrap_or(usize::MAX);
        // Truncation is harmless: `record` checks whatever it is handed.
        self.hints[remember].set((t.0, slot as u32));
        slot
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

    /// `Some(exit time)` once `t` has exited, `None` while it is live.
    ///
    /// # Panics
    /// When this run never issued `t`.
    pub fn exit_time(&self, t: ThreadId) -> Option<VirtTime> {
        let Some(&e) = self.entries.get(t.index()) else {
            panic!("{t} was never issued in this run");
        };
        (e & LIVE == 0).then_some(VirtTime::from_ns(e))
    }

    /// Retires live `t` at `exit_time`: drops its record, frees its slot
    /// for the next [`Self::issue`], keeps the exit time and any panic
    /// payload for `join`. Returns the thread registered as its joiner.
    ///
    /// # Panics
    /// When `t` is not live (retiring twice), or `exit_time` does not fit
    /// the 63 bits an entry has for it.
    pub fn retire(&mut self, t: ThreadId, exit_time: VirtTime) -> Option<ThreadId> {
        let ns = exit_time.as_ns();
        assert!(ns & LIVE == 0, "exit time {ns} ns overflows a thread-table entry");
        let slot = self.slot_of(t, WORKING);
        let Some(tcb) = self.record_mut(t, slot) else {
            not_live(t)
        };
        let joiner = tcb.joiner.take();
        let panic = tcb.panic.take();
        self.slab[slot] = SlabSlot::Free { next: self.free };
        self.free = slot as u32;
        self.entries[t.index()] = ns;
        if let Some(payload) = panic {
            self.panics.insert(t.0, payload);
        }
        joiner
    }

    /// Takes the panic payload exited `t` left for its joiner, if any.
    pub fn take_panic(&mut self, t: ThreadId) -> Option<Box<dyn Any + Send>> {
        // Empty in a healthy run: skip the hash.
        if self.panics.is_empty() {
            return None;
        }
        self.panics.remove(&t.0)
    }

    /// Ids issued so far (live and exited).
    pub fn issued(&self) -> usize {
        self.entries.len()
    }

    /// The live threads in ascending id order — the order stall verdicts
    /// list them and the stall sweep unwinds them.
    pub fn live_ids(&self) -> impl Iterator<Item = ThreadId> + '_ {
        (0..self.entries.len())
            .filter(|&i| self.entries[i] & LIVE != 0)
            .map(|i| ThreadId(i as u32))
    }

    /// Slab slots ever allocated: the peak number of simultaneously live
    /// threads.
    #[cfg(test)]
    pub fn slots(&self) -> usize {
        self.slab.len()
    }
}

/// Shared result slot between a thread and its join handle.
pub(crate) type Slot<T> = Rc<RefCell<Option<T>>>;

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
    pub(crate) slot: Slot<T>,
    /// Token of the run the thread belongs to ([`crate::runtime::Inner`]'s
    /// `run_token`); `None` for a handle completed inline (serial /
    /// no-runtime mode). Joining and cancelling consult the engine only
    /// inside that run: anywhere else the thread is long complete — a run
    /// returns only once every thread has exited or been torn down — and
    /// `id` would name an unrelated thread, so the handle just yields what
    /// is in the slot.
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
    /// Re-raises a panic that escaped the thread's closure.
    pub fn join(self) -> T {
        crate::api::join_impl(&self)
    }

    /// Waits for the thread to finish; a panic in the thread is returned as
    /// [`JoinError::Panicked`] instead of unwinding the joiner.
    pub fn try_join(self) -> Result<T, JoinError> {
        crate::runtime::try_join_impl(&self)
    }

    /// Waits up to `timeout` of virtual time for the thread to finish.
    ///
    /// On timeout the handle is returned so the caller can retry (or detach
    /// by dropping it); the thread keeps running either way. A panic in the
    /// joined thread is re-raised like [`JoinHandle::join`].
    pub fn join_timeout(
        self,
        timeout: ptdf_smp::VirtTime,
    ) -> Result<T, JoinHandle<T>> {
        crate::runtime::join_timeout_impl(self, timeout)
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
        crate::runtime::owning_run(self.run)
            .is_some_and(|rc| rc.borrow_mut().request_cancel(self.id))
    }

    /// Explicitly detaches the thread (equivalent to dropping the handle).
    pub fn detach(self) {}
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinHandle").field("id", &self.id).finish()
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

    /// What the model knows about one id: its tag while live, its exit
    /// time afterwards.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Model {
        Live(u64),
        Exited(u64),
    }

    #[test]
    fn random_sequences_match_a_plain_vector_model() {
        for seed in 0..20 {
            let mut prng = Prng::new(seed);
            let mut table = ThreadTable::new();
            let mut model: Vec<Model> = Vec::new();
            let (mut live, mut peak) = (0usize, 0usize);
            // Long growth and long drain phases, so the free chain gets
            // deep and is then consumed to the end.
            for step in 0..4_000u64 {
                let grow = (step / 500) % 2 == 0;
                let issue = live == 0 || prng.chance(if grow { 3 } else { 1 }, 4);
                if issue {
                    let tag = 1_000_000 + step;
                    let id = table.issue(tagged(tag));
                    assert_eq!(id.index(), model.len(), "ids are dense and sequential");
                    model.push(Model::Live(tag));
                    live += 1;
                    peak = peak.max(live);
                } else {
                    let lives: Vec<usize> = (0..model.len())
                        .filter(|&i| matches!(model[i], Model::Live(_)))
                        .collect();
                    let victim = lives[prng.below(lives.len() as u64) as usize];
                    let joiner = prng.chance(1, 2).then_some(ThreadId(7));
                    table.live_mut(ThreadId(victim as u32)).joiner = joiner;
                    let at = prng.below(1 << 40);
                    assert_eq!(
                        table.retire(ThreadId(victim as u32), VirtTime::from_ns(at)),
                        joiner
                    );
                    model[victim] = Model::Exited(at);
                    live -= 1;
                }
                // The slab is exactly as long as the most threads ever alive
                // at once: a new slot is cut only when no free one exists.
                assert_eq!(table.slots(), peak, "seed {seed} step {step}");
                assert_eq!(table.issued(), model.len());
                // A probe anywhere, including past the last id.
                let probe = prng.below(model.len() as u64 + 3) as u32;
                match model.get(probe as usize) {
                    Some(&Model::Live(tag)) => {
                        assert_eq!(tag_of(&table, probe), Some(tag));
                        assert_eq!(table.exit_time(ThreadId(probe)), None);
                    }
                    Some(&Model::Exited(at)) => {
                        assert_eq!(tag_of(&table, probe), None);
                        assert!(table.get_mut(ThreadId(probe)).is_none());
                        assert_eq!(
                            table.exit_time(ThreadId(probe)),
                            Some(VirtTime::from_ns(at))
                        );
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
                            Model::Exited(_) => None,
                        })
                        .collect();
                    let got: Vec<(u32, u64)> = table
                        .live_ids()
                        .map(|t| (t.0, table.live(t).stack_reserved))
                        .collect();
                    assert_eq!(got, expect, "seed {seed} step {step}");
                }
            }
        }
    }

    #[test]
    fn an_exited_thread_keeps_its_panic_payload_for_one_join() {
        let mut table = ThreadTable::new();
        let quiet = table.issue(tagged(0));
        let loud = table.issue(tagged(1));
        table.live_mut(loud).panic = Some(Box::new("boom"));
        table.retire(quiet, VirtTime::from_ns(5));
        assert!(table.take_panic(quiet).is_none());
        table.retire(loud, VirtTime::from_ns(6));
        // The slots are re-let; the payload is keyed by id, not by slot.
        let tenant = table.issue(tagged(2));
        assert!(table.take_panic(tenant).is_none());
        let payload = table.take_panic(loud).expect("payload kept for the joiner");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        assert!(table.take_panic(loud).is_none());
    }

    #[test]
    fn the_entry_encoding_round_trips_the_extreme_exit_times() {
        let mut table = ThreadTable::new();
        for at in [0, 1, (1 << 63) - 1] {
            let t = table.issue(tagged(at));
            table.retire(t, VirtTime::from_ns(at));
            assert_eq!(table.exit_time(t), Some(VirtTime::from_ns(at)));
            assert!(table.get(t).is_none(), "exit time {at} reads as live");
        }
        assert_eq!(table.slots(), 1);
    }

    #[test]
    #[should_panic(expected = "overflows a thread-table entry")]
    fn an_exit_time_of_two_to_the_63_is_rejected() {
        let mut table = ThreadTable::new();
        let t = table.issue(tagged(0));
        table.retire(t, VirtTime::from_ns(1 << 63));
    }

    #[test]
    #[should_panic(expected = "t0 is not a live thread")]
    fn retiring_twice_panics() {
        let mut table = ThreadTable::new();
        let t = table.issue(tagged(0));
        table.retire(t, VirtTime::from_ns(1));
        // The slot has a new tenant: the stale id must not retire it.
        table.issue(tagged(1));
        table.retire(t, VirtTime::from_ns(2));
    }

    #[test]
    #[should_panic(expected = "t0 is not a live thread")]
    fn mutating_an_exited_thread_panics() {
        let mut table = ThreadTable::new();
        let t = table.issue(tagged(0));
        table.retire(t, VirtTime::from_ns(1));
        table.issue(tagged(1));
        table.live_mut(t).quota = 1;
    }

    #[test]
    #[should_panic(expected = "t3 was never issued")]
    fn the_exit_time_of_an_unissued_id_panics() {
        let mut table = ThreadTable::new();
        table.issue(tagged(0));
        table.exit_time(ThreadId(3));
    }

    #[test]
    fn a_stale_hint_reads_as_exited() {
        let mut table = ThreadTable::new();
        let a = table.issue(tagged(1));
        // Both hints now say where `a` lives…
        assert_eq!(table.live(a).stack_reserved, 1);
        assert_eq!(tag_of(&table, a.0), Some(1));
        // …and go stale: `a` exits and `b` moves into its slot.
        table.retire(a, VirtTime::from_ns(9));
        assert!(table.get(a).is_none(), "hinted slot is free");
        let b = table.issue(tagged(2));
        assert_eq!(table.slots(), 1);
        assert!(table.get(a).is_none(), "hinted slot has a new tenant");
        assert!(table.get_mut(a).is_none());
        assert_eq!(table.exit_time(a), Some(VirtTime::from_ns(9)));
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
