//! Simulated open-system RPC server over the ptdf runtime (ISSUE 10).
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

/// Workload shape and control knobs. All times are virtual; all work is in
/// model cycles (~6 ns each on the 167 MHz reference machine).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Seed for arrivals, service jitter, and client backoff.
    pub seed: u64,
    /// Total arrivals offered to the server.
    pub requests: usize,
    /// Mean inter-arrival gap, in cycles (exponentially distributed).
    pub mean_interarrival: u64,
    /// Every `burst_every`-th arrival opens a burst (0 disables bursts).
    pub burst_every: usize,
    /// Extra back-to-back arrivals per burst.
    pub burst_len: usize,
    /// Per-request deadline, measured from the *scheduled* arrival time
    /// (not admission — the open-loop correction for coordinated
    /// omission: queueing delay before admission counts against the
    /// deadline, exactly as a client-side timeout would).
    pub deadline: VirtTime,
    /// Admission: shed a request outright when less than this much of its
    /// deadline remains at admission time (deadline-aware admission — a
    /// request that cannot possibly finish is not worth starting).
    pub min_slack: VirtTime,
    /// Parallel lookups per request.
    pub fanout: usize,
    /// Parse stage compute, cycles.
    pub parse_work: u64,
    /// Per-lookup compute, cycles.
    pub lookup_work: u64,
    /// Aggregate stage compute, cycles.
    pub aggregate_work: u64,
    /// Modelled request buffer, bytes (held parse → aggregate).
    pub request_bytes: u64,
    /// Modelled per-lookup scratch, bytes.
    pub lookup_bytes: u64,
    /// Admission: max requests in flight (0 disables the cap).
    pub queue_cap: usize,
    /// Admission: token-bucket burst capacity, whole tokens.
    pub bucket_cap: u64,
    /// Admission: virtual ns to refill one token (0 disables the bucket).
    pub token_ns: u64,
    /// Admission: shed when the space-bound margin falls below this many
    /// bytes (0 disables space shedding).
    pub shed_margin: u64,
    /// Space bound to arm on the run, bytes (0 leaves it unarmed).
    pub space_bound: u64,
    /// Client retries (with backoff) before an arrival counts as shed.
    pub retries: u32,
}

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
            burst_every: 10,
            burst_len: 3,
            deadline: VirtTime::from_us(800),
            min_slack: VirtTime::from_us(300),
            fanout: 4,
            parse_work: 2_000,
            lookup_work: 4_000,
            aggregate_work: 1_500,
            request_bytes: 8 * 1024,
            lookup_bytes: 2 * 1024,
            queue_cap: 6,
            bucket_cap: 4,
            token_ns: 25_000,
            // A request in flight holds ~64 KB: six 8 KB stacks (watcher,
            // handler, 4 lookups) plus 16 KB of modelled heap. The queue
            // cap alone admits ~384 KB, so the bound sits above that and
            // the margin check is the defense-in-depth backstop for
            // admission racing ahead of stack materialization.
            shed_margin: 96 * 1024,
            space_bound: 512 * 1024,
            retries: 2,
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
    serve_with(cfg, base_config(cfg, procs, sched))
}

/// Like [`serve`], but with tracing enabled; the trace rides along in
/// [`ServerRun::report`] for replay comparison and checking.
pub fn serve_traced(cfg: &ServerConfig, procs: usize, sched: SchedKind) -> ServerRun {
    serve_with(cfg, base_config(cfg, procs, sched).with_trace())
}

fn base_config(cfg: &ServerConfig, procs: usize, sched: SchedKind) -> Config {
    let mut c = Config::new(procs, sched);
    if cfg.space_bound > 0 {
        c = c.with_space_bound(cfg.space_bound);
    }
    c
}

fn serve_with(cfg: &ServerConfig, rt: Config) -> ServerRun {
    let cfg = cfg.clone();
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
    let mut bucket_milli: u64 = cfg.bucket_cap * 1000;
    let mut last_refill = ptdf::now().expect("workload runs inside the runtime");
    let mut scheduled = last_refill;
    let mut burst_left = 0usize;
    let mut watchers = Vec::new();
    for i in 0..cfg.requests {
        let gap = if burst_left > 0 {
            burst_left -= 1;
            0
        } else {
            if cfg.burst_every > 0 && (i + 1) % cfg.burst_every == 0 {
                burst_left = cfg.burst_len;
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
        // that less than `min_slack` of its deadline remains, it cannot
        // finish — shed without retrying (waiting only shrinks the slack).
        let queued = now.as_ns().saturating_sub(scheduled.as_ns());
        if cfg.min_slack.as_ns() > 0 && queued + cfg.min_slack.as_ns() > cfg.deadline.as_ns() {
            stats.borrow_mut().shed += 1;
            continue;
        }
        // Admission: queue cap, token bucket, space margin — retried with
        // seeded client backoff before the arrival is counted as shed.
        let mut admitted = false;
        for attempt in 0..=cfg.retries {
            let now = ptdf::now().expect("runtime");
            if let Some(refill) =
                (now.as_ns().saturating_sub(last_refill.as_ns()) * 1000).checked_div(cfg.token_ns)
            {
                bucket_milli = (bucket_milli + refill).min(cfg.bucket_cap * 1000);
                last_refill = now;
            }
            let queue_ok = cfg.queue_cap == 0 || in_flight.get() < cfg.queue_cap;
            let tokens_ok = cfg.token_ns == 0 || bucket_milli >= 1000;
            let space_ok =
                cfg.shed_margin == 0 || ptdf::space_margin().is_none_or(|m| m >= cfg.shed_margin);
            if queue_ok && tokens_ok && space_ok {
                if cfg.token_ns > 0 {
                    bucket_milli -= 1000;
                }
                if attempt > 0 {
                    stats.borrow_mut().retried_admits += 1;
                }
                admitted = true;
                break;
            }
            if attempt < cfg.retries {
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
        let (c, st, infl) = (cfg.clone(), stats.clone(), in_flight.clone());
        watchers.push(spawn(move || watch_request(c, scheduled, st, infl)));
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
fn watch_request(
    cfg: ServerConfig,
    scheduled: VirtTime,
    stats: Rc<RefCell<ServerStats>>,
    in_flight: Rc<Cell<usize>>,
) {
    let registry: Rc<RefCell<Vec<ThreadId>>> = Rc::new(RefCell::new(Vec::new()));
    let (c, reg) = (cfg.clone(), registry.clone());
    let handler = spawn(move || handle_request(c, reg));
    // Whatever the request already spent queued (plus spawn charges) has
    // been consumed from its deadline; clamp to 1 ns so an exhausted
    // budget still takes the expiry/cancel path below.
    let now = ptdf::now().expect("runtime");
    let budget = (scheduled.as_ns() + cfg.deadline.as_ns())
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

/// The request body: parse → `fanout` parallel lookups → aggregate.
/// Modelled heap is guarded by cleanup handlers so a cancel-unwind returns
/// every byte (no footprint leak under deadline storms).
fn handle_request(cfg: ServerConfig, registry: Rc<RefCell<Vec<ThreadId>>>) {
    rt_alloc(cfg.request_bytes);
    let bytes = cfg.request_bytes;
    let _buf = cleanup(move || rt_free(bytes));
    work(cfg.parse_work);
    scope(|s| {
        let handles: Vec<_> = (0..cfg.fanout)
            .map(|_| {
                let (chunk, lb) = (cfg.lookup_work / 4, cfg.lookup_bytes);
                let h = s.spawn(move || {
                    rt_alloc(lb);
                    let _scratch = cleanup(move || rt_free(lb));
                    for _ in 0..4 {
                        work(chunk);
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
    work(cfg.aggregate_work);
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
