//! Simulated open-system RPC server over the ptdf runtime.
//!
//! Unlike the seven SC'98 benchmarks — closed-system programs whose thread
//! count is fixed by the input — this workload is *open*: requests arrive
//! by a seeded Poisson process (with bursts) regardless of whether the
//! system keeps up, which is the regime where cancellation and overload
//! control earn their keep. Each request expands into a small fork/join
//! DAG (parse → parallel lookups → aggregate) of runtime threads:
//!
//! * **Admission control** at the front door: a token bucket (rate limit),
//!   a queue cap (concurrency limit), and a space-margin check against the
//!   armed [`ptdf::Config::with_space_bound`] bound — graceful load
//!   shedding *before* the bound trips as a `BoundViolation`. A shed
//!   arrival retries with seeded [`ptdf::backoff::Backoff`] (the modelled
//!   client backing off) before it is counted as lost.
//! * **Deadline propagation**: each admitted request gets a watcher that
//!   [`ptdf::JoinHandle::join_timeout`]s the handler; on expiry the whole
//!   request subtree (handler + every registered lookup thread) is
//!   cancelled via [`fn@ptdf::cancel`], and cleanup handlers
//!   ([`ptdf::cleanup`]) return the request's modelled heap to the ledger
//!   on the unwind.
//! * **Determinism**: arrivals, service demands, backoff jitter, and every
//!   scheduling decision are seeded; the same `(seed, config, policy)`
//!   yields bit-identical statistics and (with tracing on) bit-identical
//!   traces.
//!
//! The library exposes [`serve`] / [`serve_traced`] plus latency/goodput
//! accessors; the `ptdf-server` binary sweeps scheduling policies under
//! overload and prints a latency/goodput table. The benchmark times the
//! server in its `server_nominal`, `server_overload` and `flight_recorder`
//! workloads; `tests/server_soak.rs` pins its invariants.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use ptdf::backoff::Backoff;
use ptdf::{
    cleanup, rt_alloc, rt_free, scope, spawn, work, Config, CostModel, JoinError, Report,
    SchedKind, Semaphore, ThreadId, VirtTime,
};
use ptdf_smp::Prng;

/// What differs between two runs of the workload: the seed, the number of
/// arrivals and the arrival rate. The request shape and the admission
/// policy are the constants below. All times are virtual; all work is in
/// model cycles (~6 ns each on the 167 MHz reference machine).
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Seed for arrivals, service jitter, and client backoff.
    pub seed: u64,
    /// Total arrivals offered to the server.
    pub requests: usize,
    /// Mean inter-arrival gap, in cycles (exponentially distributed).
    pub mean_interarrival: u64,
}

/// Every `BURST_EVERY`-th arrival opens a burst.
const BURST_EVERY: usize = 10;
/// Extra back-to-back arrivals per burst.
const BURST_LEN: usize = 3;
/// Per-request deadline, measured from the *scheduled* arrival time (not
/// admission — the open-loop correction for coordinated omission: queueing
/// delay before admission counts against the deadline, exactly as a
/// client-side timeout would).
const DEADLINE: VirtTime = VirtTime::from_us(800);
/// Admission: shed a request outright when less than this much of its
/// deadline remains at admission time (deadline-aware admission — a
/// request that cannot possibly finish is not worth starting).
const MIN_SLACK: VirtTime = VirtTime::from_us(300);
/// Parallel lookups per request.
const FANOUT: usize = 4;
/// Parse stage compute, cycles.
const PARSE_WORK: u64 = 2_000;
/// Per-lookup compute, cycles.
const LOOKUP_WORK: u64 = 4_000;
/// Aggregate stage compute, cycles.
const AGGREGATE_WORK: u64 = 1_500;
/// Modelled request buffer, bytes (held parse → aggregate).
const REQUEST_BYTES: u64 = 8 * 1024;
/// Modelled per-lookup scratch, bytes.
const LOOKUP_BYTES: u64 = 2 * 1024;
/// Admission: max requests in flight.
const QUEUE_CAP: usize = 6;
/// Admission: token-bucket burst capacity, whole tokens.
const BUCKET_CAP: u64 = 4;
/// Admission: virtual ns to refill one token.
const TOKEN_NS: u64 = 25_000;
/// Admission: shed when the space-bound margin falls below this many bytes.
///
/// A request in flight holds ~64 KB: six 8 KB stacks (watcher, handler, 4
/// lookups) plus 16 KB of modelled heap. The queue cap alone admits
/// ~384 KB, so [`SPACE_BOUND`] sits above that and the margin check is the
/// defense-in-depth backstop for admission racing ahead of stack
/// materialization.
const SHED_MARGIN: u64 = 96 * 1024;
/// Space bound armed on every run, bytes.
const SPACE_BOUND: u64 = 512 * 1024;
/// Client retries (with backoff) before an arrival counts as shed.
const RETRIES: u32 = 2;

impl ServerConfig {
    /// The small workload of `tests/server_soak.rs`: 80 requests.
    pub fn quick(seed: u64) -> Self {
        ServerConfig {
            seed,
            requests: 80,
            // ~420 µs at 6 ns/cycle. A request consumes close to 1 ms of
            // processor time end to end: ≈117 µs modelled compute plus the
            // cost model's thread-create/join, context-switch (10 µs per
            // dispatch across ~6 threads blocking and resuming), and stack
            // charges. That is ~250 µs of 4-proc capacity per request, so
            // the nominal load sits near 60% utilization and
            // `overload_pct(200)` is genuinely past saturation.
            mean_interarrival: 70_000,
        }
    }

    /// 400 requests: the `ptdf-server` sweep's workload, and the base the
    /// benchmark's server workloads resize.
    pub fn standard(seed: u64) -> Self {
        ServerConfig {
            requests: 400,
            ..Self::quick(seed)
        }
    }

    /// Scales the offered load: `100` keeps the nominal arrival rate,
    /// `200` doubles it (2× overload), `50` halves it.
    pub fn overload_pct(mut self, pct: u64) -> Self {
        assert!(pct > 0, "overload percentage must be positive");
        self.mean_interarrival = (self.mean_interarrival * 100 / pct).max(1);
        self
    }
}

/// Counters and latencies collected by one run of the workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerStats {
    /// Arrivals offered.
    pub offered: u64,
    /// Arrivals admitted past the front door.
    pub admitted: u64,
    /// Requests completed within their deadline.
    pub completed: u64,
    /// Requests that finished between deadline expiry and the cancel
    /// landing (completed, but not goodput).
    pub late: u64,
    /// Requests cancelled on deadline expiry.
    pub canceled: u64,
    /// Arrivals shed by admission control (after retries).
    pub shed: u64,
    /// Admissions that succeeded only after ≥ 1 backoff pause.
    pub retried_admits: u64,
    /// Per-request latency (scheduled arrival → completion), virtual ns,
    /// for requests that completed within deadline. Measuring from the
    /// *scheduled* arrival — not admission — avoids coordinated omission:
    /// time queued behind an overloaded injector counts.
    pub latencies_ns: Vec<u64>,
}

/// A completed server run: workload statistics plus the runtime's report
/// (makespan, footprint, bound violations, optional trace).
#[derive(Debug)]
pub struct ServerRun {
    /// Workload-level counters.
    pub stats: ServerStats,
    /// Engine-level report.
    pub report: Report,
}

impl ServerRun {
    /// Latency percentile over in-deadline completions, virtual ns
    /// (`q` in `0.0..=1.0`); 0 when nothing completed.
    pub fn latency_percentile(&self, q: f64) -> u64 {
        let mut v = self.stats.latencies_ns.clone();
        if v.is_empty() {
            return 0;
        }
        v.sort_unstable();
        let idx = ((v.len() as f64 - 1.0) * q).round() as usize;
        v[idx.min(v.len() - 1)]
    }

    /// Median latency, virtual ns.
    pub fn p50(&self) -> u64 {
        self.latency_percentile(0.50)
    }

    /// 99th-percentile latency, virtual ns.
    pub fn p99(&self) -> u64 {
        self.latency_percentile(0.99)
    }

    /// 99.9th-percentile latency, virtual ns.
    pub fn p999(&self) -> u64 {
        self.latency_percentile(0.999)
    }

    /// In-deadline completions per virtual millisecond.
    pub fn goodput_per_ms(&self) -> f64 {
        let ms = self.report.makespan().as_ns() as f64 / 1e6;
        if ms == 0.0 {
            0.0
        } else {
            self.stats.completed as f64 / ms
        }
    }
}

/// Runs the server workload under `sched` on `procs` virtual processors.
pub fn serve(cfg: &ServerConfig, procs: usize, sched: SchedKind) -> ServerRun {
    serve_with(cfg, base_config(procs, sched))
}

/// Like [`serve`], but with tracing enabled; the trace rides along in
/// [`ServerRun::report`] for replay comparison and checking.
pub fn serve_traced(cfg: &ServerConfig, procs: usize, sched: SchedKind) -> ServerRun {
    serve_with(cfg, base_config(procs, sched).with_trace())
}

fn base_config(procs: usize, sched: SchedKind) -> Config {
    Config::new(procs, sched).with_space_bound(SPACE_BOUND)
}

fn serve_with(cfg: &ServerConfig, rt: Config) -> ServerRun {
    let cfg = *cfg;
    let (stats, report) = ptdf::run(rt, move || workload(cfg));
    ServerRun { stats, report }
}

/// Seeded exponential inter-arrival gap (inverse-CDF over a 53-bit
/// uniform), in cycles. Deterministic for a given generator state.
fn exp_gap(prng: &mut Prng, mean_cycles: u64) -> u64 {
    let u = (prng.below((1u64 << 53) - 1) + 1) as f64 / (1u64 << 53) as f64;
    (-u.ln() * mean_cycles as f64) as u64
}

/// The root thread: the open-loop arrival injector plus admission control.
///
/// Arrivals follow an *absolute* precomputed schedule: the injector sleeps
/// on a timed wait (burning no processor) until the next scheduled arrival,
/// and when the scheduler keeps it off-CPU past that point — which is
/// exactly what happens under overload, especially with depth-first
/// policies that prefer draining existing request subtrees over resuming
/// the root — the overdue arrivals are processed late with their lateness
/// counted against their deadlines. Pacing arrivals by `work(gap)` instead
/// would silently turn this into a closed system: the injector would only
/// advance at the service rate, overload could never build up, and nothing
/// would ever shed.
fn workload(cfg: ServerConfig) -> ServerStats {
    let stats = Rc::new(RefCell::new(ServerStats::default()));
    let in_flight = Rc::new(Cell::new(0usize));
    let mut prng = Prng::new(cfg.seed ^ 0x005E_44E4_0001);
    let mut backoff = Backoff::new(cfg.seed);
    let cost = CostModel::ultrasparc_167();
    // Never-released semaphore: `acquire_timeout` on it is a virtual-time
    // sleep that leaves the processor free for request work.
    let timer = Semaphore::new(0);
    // Token bucket in milli-tokens (integer math, no drift).
    let mut bucket_milli: u64 = BUCKET_CAP * 1000;
    let mut last_refill = ptdf::now().expect("workload runs inside the runtime");
    let mut scheduled = last_refill;
    let mut burst_left = 0usize;
    let mut watchers = Vec::new();
    for i in 0..cfg.requests {
        let gap = if burst_left > 0 {
            burst_left -= 1;
            0
        } else {
            if (i + 1) % BURST_EVERY == 0 {
                burst_left = BURST_LEN;
            }
            exp_gap(&mut prng, cfg.mean_interarrival)
        };
        scheduled = VirtTime::from_ns(scheduled.as_ns() + cost.cycles(gap).as_ns());
        let mut now = ptdf::now().expect("runtime");
        if now < scheduled {
            let _ = timer.acquire_timeout(VirtTime::from_ns(scheduled.as_ns() - now.as_ns()));
            now = ptdf::now().expect("runtime");
        }
        stats.borrow_mut().offered += 1;
        // Deadline-aware admission: if the request spent so long queued
        // that less than `MIN_SLACK` of its deadline remains, it cannot
        // finish — shed without retrying (waiting only shrinks the slack).
        let queued = now.as_ns().saturating_sub(scheduled.as_ns());
        if queued + MIN_SLACK.as_ns() > DEADLINE.as_ns() {
            stats.borrow_mut().shed += 1;
            continue;
        }
        // Admission: queue cap, token bucket, space margin — retried with
        // seeded client backoff before the arrival is counted as shed.
        let mut admitted = false;
        for attempt in 0..=RETRIES {
            let now = ptdf::now().expect("runtime");
            let refill = now.as_ns().saturating_sub(last_refill.as_ns()) * 1000 / TOKEN_NS;
            bucket_milli = (bucket_milli + refill).min(BUCKET_CAP * 1000);
            last_refill = now;
            let queue_ok = in_flight.get() < QUEUE_CAP;
            let tokens_ok = bucket_milli >= 1000;
            let space_ok = ptdf::space_margin().expect("the bound is armed") >= SHED_MARGIN;
            if queue_ok && tokens_ok && space_ok {
                bucket_milli -= 1000;
                if attempt > 0 {
                    stats.borrow_mut().retried_admits += 1;
                }
                admitted = true;
                break;
            }
            if attempt < RETRIES {
                backoff.pause();
            }
        }
        backoff.reset();
        if !admitted {
            stats.borrow_mut().shed += 1;
            continue;
        }
        stats.borrow_mut().admitted += 1;
        in_flight.set(in_flight.get() + 1);
        let (st, infl) = (stats.clone(), in_flight.clone());
        watchers.push(spawn(move || watch_request(scheduled, st, infl)));
    }
    for w in watchers {
        w.join();
    }
    let out = stats.borrow().clone();
    out
}

/// Per-request watcher: spawns the handler, enforces the deadline
/// (measured from the scheduled arrival), and on expiry cancels the whole
/// request subtree.
fn watch_request(scheduled: VirtTime, stats: Rc<RefCell<ServerStats>>, in_flight: Rc<Cell<usize>>) {
    let registry: Rc<RefCell<Vec<ThreadId>>> = Rc::new(RefCell::new(Vec::new()));
    let reg = registry.clone();
    let handler = spawn(move || handle_request(reg));
    // Whatever the request already spent queued (plus spawn charges) has
    // been consumed from its deadline; clamp to 1 ns so an exhausted
    // budget still takes the expiry/cancel path below.
    let now = ptdf::now().expect("runtime");
    let budget = (scheduled.as_ns() + DEADLINE.as_ns())
        .saturating_sub(now.as_ns())
        .max(1);
    match handler.join_timeout(VirtTime::from_ns(budget)) {
        Ok(()) => {
            let done = ptdf::now().expect("runtime");
            let mut s = stats.borrow_mut();
            s.completed += 1;
            s.latencies_ns
                .push(done.as_ns().saturating_sub(scheduled.as_ns()));
        }
        Err(handle) => {
            // Deadline expired: propagate as subtree cancellation. The
            // handler (blocked joining its lookups, or mid-compute) latches
            // or unwinds; each registered lookup is cancelled directly so
            // the scope teardown inside the handler's unwind does not wait
            // out their remaining work.
            handle.cancel();
            let subtree: Vec<ThreadId> = registry.borrow().clone();
            for t in subtree {
                let _ = ptdf::cancel(t);
            }
            match handle.try_join() {
                Err(JoinError::Canceled(_)) => stats.borrow_mut().canceled += 1,
                // Completed in the window between expiry and the cancel.
                Ok(()) => stats.borrow_mut().late += 1,
                Err(e) => panic!("request handler failed: {e}"),
            }
        }
    }
    in_flight.set(in_flight.get() - 1);
}

/// The request body: parse → [`FANOUT`] parallel lookups → aggregate.
/// Modelled heap is guarded by cleanup handlers so a cancel-unwind returns
/// every byte (no footprint leak under deadline storms).
fn handle_request(registry: Rc<RefCell<Vec<ThreadId>>>) {
    rt_alloc(REQUEST_BYTES);
    let _buf = cleanup(|| rt_free(REQUEST_BYTES));
    work(PARSE_WORK);
    scope(|s| {
        let handles: Vec<_> = (0..FANOUT)
            .map(|_| {
                let h = s.spawn(|| {
                    rt_alloc(LOOKUP_BYTES);
                    let _scratch = cleanup(|| rt_free(LOOKUP_BYTES));
                    for _ in 0..4 {
                        work(LOOKUP_WORK / 4);
                        ptdf::cancel_point();
                    }
                });
                registry.borrow_mut().push(h.id());
                h
            })
            .collect();
        for h in handles {
            h.join();
        }
    });
    work(AGGREGATE_WORK);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn underload_mostly_completes() {
        // Bursts (4 back-to-back arrivals) momentarily saturate even at a
        // 0.25x mean rate, so a few deadline casualties are expected; the
        // bulk must complete and nothing may violate the space bound.
        let cfg = ServerConfig::quick(7).overload_pct(25);
        let run = serve(&cfg, 4, SchedKind::Df);
        assert_eq!(run.stats.offered, cfg.requests as u64);
        assert!(
            run.stats.completed * 10 >= run.stats.offered * 9,
            "under 0.25x load at least 90% must complete in-deadline: {:?}",
            run.stats
        );
        assert!(run.stats.shed <= 3, "{:?}", run.stats);
        assert!(run.report.bound_violations() == 0);
        assert!(run.p99() >= run.p50());
    }

    #[test]
    fn overload_sheds_and_cancels_but_stays_in_bound() {
        let cfg = ServerConfig::quick(11).overload_pct(200);
        let run = serve(&cfg, 4, SchedKind::Df);
        assert!(run.stats.shed > 0, "2x overload must shed: {:?}", run.stats);
        assert_eq!(
            run.report.bound_violations(),
            0,
            "shedding failed to protect the space bound"
        );
        let accounted = run.stats.completed + run.stats.late + run.stats.canceled + run.stats.shed;
        assert_eq!(
            accounted, run.stats.offered,
            "a request vanished: {:?}",
            run.stats
        );
    }

    #[test]
    fn same_seed_is_bit_deterministic() {
        let cfg = ServerConfig::quick(3).overload_pct(200);
        let a = serve(&cfg, 4, SchedKind::Ws);
        let b = serve(&cfg, 4, SchedKind::Ws);
        assert_eq!(a.stats, b.stats, "same-seed runs diverged");
        assert_eq!(a.report.makespan(), b.report.makespan());
    }
}
