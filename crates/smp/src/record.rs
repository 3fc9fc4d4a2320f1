//! Optional machine-level flight recording: memory-system events and
//! exactly-sampled counter tracks.
//!
//! The [`crate::Machine`] is where the committed footprint and the live
//! thread count actually change, so that is the only place they can be
//! sampled *exactly* — a recorder hooked anywhere higher would race the
//! high-water marks. When recording is enabled (see
//! [`crate::Machine::enable_recording`]), every footprint growth and every
//! live-thread change appends a `(virtual time, value)` sample, which makes
//! the maxima of the recorded tracks equal the reported high-water marks
//! bit-for-bit. The threads runtime drains the recording at the end of a
//! run and merges it into its own trace (`ptdf::Trace`).
//!
//! Recording is off by default and costs one `Option` discriminant test per
//! hook when disabled. The host-phase profiler
//! ([`crate::Machine::enable_host_profile`], results in
//! [`crate::HostPhaseStats`]) uses the same gating idiom for its host-time
//! counters around the machine's engine phases.

use crate::time::VirtTime;
use crate::ProcId;

/// A memory-system event recorded by the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemEventKind {
    /// Application heap allocation at or above the event threshold.
    Alloc {
        /// Allocation size in bytes.
        bytes: u64,
    },
    /// Application heap free at or above the event threshold.
    Free {
        /// Freed size in bytes.
        bytes: u64,
    },
    /// A thread stack reservation (at thread creation).
    StackReserve {
        /// Reserved stack bytes.
        bytes: u64,
    },
    /// A thread stack release (at thread exit; the stack may stay cached).
    StackRelease {
        /// Reserved stack bytes released.
        bytes: u64,
    },
    /// A free that exceeded the live byte count — a double free (or free of
    /// unallocated memory) in the modelled program. Always recorded,
    /// regardless of the alloc/free threshold.
    FreeUnderflow {
        /// Bytes freed beyond what was live.
        bytes: u64,
    },
    /// The committed footprint crossed the armed space bound
    /// (see `Machine::arm_space_bound`). Recorded once, at the crossing.
    BoundViolation {
        /// Footprint at the moment of the violation.
        footprint: u64,
        /// The armed bound in bytes.
        bound: u64,
    },
}

/// One machine-level event on the virtual timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemEvent {
    /// Virtual time of the event (the acting processor's clock).
    pub at: VirtTime,
    /// Processor that performed the operation.
    pub proc: ProcId,
    /// What happened.
    pub kind: MemEventKind,
}

/// Everything the machine recorded over a run.
///
/// Counter tracks are `(time, value)` samples taken at every change, so
/// `max(track)` equals the corresponding high-water mark in
/// [`crate::MemStats`] exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MachineRecording {
    /// Memory-system events (allocs/frees above the threshold, stack
    /// reserve/release).
    pub events: Vec<MemEvent>,
    /// Committed footprint in bytes, sampled at every growth.
    pub footprint: Vec<(VirtTime, u64)>,
    /// Live (created, not yet exited) threads, sampled at every change.
    pub live_threads: Vec<(VirtTime, u64)>,
    /// Cumulative scheduler-lock contention wait in nanoseconds, sampled at
    /// every contended acquisition.
    pub sched_lock_wait: Vec<(VirtTime, u64)>,
}

/// Internal recorder state held by the machine while recording.
#[derive(Debug)]
pub(crate) struct Recorder {
    /// Allocs/frees smaller than this produce no event (counter samples are
    /// unaffected).
    pub threshold: u64,
    /// Running total of scheduler-lock wait, mirrored into the track.
    pub lock_wait_total: VirtTime,
    /// Last footprint sample value, to skip no-growth samples.
    pub last_footprint: u64,
    /// The recording being built.
    pub rec: MachineRecording,
}

impl Recorder {
    pub fn new(threshold: u64, footprint_now: u64, live_now: u64) -> Self {
        let mut rec = MachineRecording::default();
        rec.footprint.push((VirtTime::ZERO, footprint_now));
        rec.live_threads.push((VirtTime::ZERO, live_now));
        Recorder {
            threshold,
            lock_wait_total: VirtTime::ZERO,
            last_footprint: footprint_now,
            rec,
        }
    }

    /// Appends a footprint sample if the value changed.
    pub fn sample_footprint(&mut self, at: VirtTime, footprint: u64) {
        if footprint != self.last_footprint {
            self.last_footprint = footprint;
            self.rec.footprint.push((at, footprint));
        }
    }

    /// Appends a live-thread sample (every call is a change).
    pub fn sample_live(&mut self, at: VirtTime, live: u64) {
        self.rec.live_threads.push((at, live));
    }

    /// Accumulates contended scheduler-lock wait.
    pub fn sample_lock_wait(&mut self, at: VirtTime, wait: VirtTime) {
        self.lock_wait_total += wait;
        self.rec
            .sched_lock_wait
            .push((at, self.lock_wait_total.as_ns()));
    }

    /// Records a memory event, applying the alloc/free threshold.
    pub fn event(&mut self, at: VirtTime, proc: ProcId, kind: MemEventKind) {
        let keep = match kind {
            MemEventKind::Alloc { bytes } | MemEventKind::Free { bytes } => bytes >= self.threshold,
            MemEventKind::StackReserve { .. }
            | MemEventKind::StackRelease { .. }
            | MemEventKind::FreeUnderflow { .. }
            | MemEventKind::BoundViolation { .. } => true,
        };
        if keep {
            self.rec.events.push(MemEvent { at, proc, kind });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_samples_dedup_unchanged_values() {
        let mut r = Recorder::new(0, 0, 0);
        r.sample_footprint(VirtTime::from_ns(1), 100);
        r.sample_footprint(VirtTime::from_ns(2), 100); // no growth: skipped
        r.sample_footprint(VirtTime::from_ns(3), 150);
        assert_eq!(
            r.rec.footprint,
            vec![
                (VirtTime::ZERO, 0),
                (VirtTime::from_ns(1), 100),
                (VirtTime::from_ns(3), 150)
            ]
        );
    }

    #[test]
    fn threshold_filters_heap_events_but_not_stacks() {
        let mut r = Recorder::new(1024, 0, 0);
        r.event(VirtTime::ZERO, 0, MemEventKind::Alloc { bytes: 100 });
        r.event(VirtTime::ZERO, 0, MemEventKind::Alloc { bytes: 4096 });
        r.event(VirtTime::ZERO, 0, MemEventKind::StackReserve { bytes: 8 });
        assert_eq!(r.rec.events.len(), 2);
    }

    #[test]
    fn lock_wait_track_is_cumulative() {
        let mut r = Recorder::new(0, 0, 0);
        r.sample_lock_wait(VirtTime::from_ns(10), VirtTime::from_ns(5));
        r.sample_lock_wait(VirtTime::from_ns(20), VirtTime::from_ns(7));
        assert_eq!(
            r.rec.sched_lock_wait,
            vec![(VirtTime::from_ns(10), 5), (VirtTime::from_ns(20), 12)]
        );
    }
}
