//! # bios-runtime
//!
//! The concurrent fleet-simulation runtime: turns the one-shot
//! `CatalogEntry::run_calibration(seed)` path into a scalable engine
//! that calibrates whole fleets of simulated sensors — the paper's
//! multi-sensor platform multiplied out to many patients, panels, and
//! replicate seeds — behind one interface.
//!
//! Five pieces, all on `std` only (the build environment is offline):
//!
//! * [`pool`] — a channel-fed worker pool on `std::thread` +
//!   `std::sync::mpsc`;
//! * [`fleet`] — the `Job`/`Fleet` batch API with **per-job** error
//!   aggregation instead of fail-fast;
//! * [`cache`] — a memoizing result cache keyed by
//!   `(sensor id, protocol fingerprint, seed)`, persistable to a
//!   checksummed snapshot file;
//! * [`metrics`] — atomic counters plus a per-job wall-time histogram,
//!   dumpable as JSON;
//! * [`journal`] — a write-ahead run journal giving fleets crash
//!   resume ([`Runtime::run_journaled`] / [`Runtime::resume`]).
//!
//! A hang watchdog (enabled via
//! [`RuntimeConfig::with_job_deadline`]) supervises in-flight jobs: a
//! job silent past the soft deadline is cancelled cooperatively through
//! the solver checkpoints in `bios-electrochem`, its loss is reported
//! as the deterministic [`JobError::Deadline`], and the worker that
//! hosted it retires and is respawned by the healing pass.
//!
//! # Determinism
//!
//! Every job depends only on its `(sensor configuration, seed)` pair —
//! noise streams are derived per job, never shared across threads — and
//! results are collected by job index. A fleet therefore produces
//! **identical calibration outcomes for a given seed regardless of the
//! worker count**; the integration suite pins this with byte-identical
//! digests at 1, 2, and 8 workers.
//!
//! # Examples
//!
//! ```
//! use bios_core::catalog;
//! use bios_runtime::{Fleet, Runtime, RuntimeConfig};
//!
//! let runtime = Runtime::new(RuntimeConfig::default().with_workers(4));
//! let fleet = Fleet::builder("table2")
//!     .sensors(catalog::all_table2())
//!     .seed(42)
//!     .build();
//! let report = runtime.run(&fleet);
//! assert_eq!(report.results.len(), 18);
//! assert!(report.failures().next().is_none());
//! // Re-running the same fleet hits the memo cache.
//! let again = runtime.run(&fleet);
//! assert_eq!(again.cache_hits(), 18);
//! assert_eq!(report.summaries_digest(), again.summaries_digest());
//! ```

pub mod cache;
pub mod fleet;
pub mod journal;
pub mod metrics;
pub mod pool;
mod watchdog;

use std::collections::BTreeMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bios_core::catalog::{CalibrationOutcome, CatalogEntry};
use bios_electrochem::diffusion::DiffusionGrid;
use bios_faults::{FaultPlan, FaultTally};
use bios_recover::{RealIo, StorageIo};
use bios_units::{DiffusionCoefficient, Molar, Seconds};

use crate::watchdog::{WatchRegistry, Watchdog};

pub use cache::{CacheKey, CacheLoadReport, ResultCache, DEFAULT_CAPACITY};
pub use fleet::{Fleet, FleetBuilder, FleetOutcome, FleetReport, Job, JobError, JobResult};
pub use journal::{JournalOptions, ResumeReport};
pub use metrics::{MetricsSnapshot, RuntimeMetrics};
pub use pool::{TaskVerdict, WorkerPool};

/// Runtime construction options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Worker threads for concurrent fleet runs.
    pub workers: usize,
    /// Whether to memoize calibration outcomes.
    pub cache: bool,
    /// Memo-cache capacity in entries; 0 means unbounded.
    pub cache_capacity: usize,
    /// Execution attempts per job (≥ 1); attempts beyond the first are
    /// taken only for transient failures.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub retry_backoff: Duration,
    /// Per-job sample budget; jobs whose estimated workload exceeds it
    /// are rejected with [`JobError::Budget`] before simulating. 0
    /// disables the gate.
    pub job_budget: u64,
    /// Soft per-job deadline. When non-zero, a watchdog thread
    /// supervises in-flight jobs and cooperatively cancels any job
    /// silent past the deadline; the loss surfaces as the deterministic
    /// [`JobError::Deadline`]. [`Duration::ZERO`] (the default)
    /// disables supervision — a job that would stall is then rejected
    /// synchronously instead of hanging.
    pub job_deadline: Duration,
}

impl Default for RuntimeConfig {
    /// One worker per available core, cache enabled and bounded at
    /// [`DEFAULT_CAPACITY`], three attempts with 200 µs initial
    /// backoff, no job budget.
    fn default() -> RuntimeConfig {
        RuntimeConfig {
            workers: WorkerPool::default_workers(),
            cache: true,
            cache_capacity: DEFAULT_CAPACITY,
            max_attempts: 3,
            retry_backoff: Duration::from_micros(200),
            job_budget: 0,
            job_deadline: Duration::ZERO,
        }
    }
}

impl RuntimeConfig {
    /// Overrides the worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> RuntimeConfig {
        self.workers = workers;
        self
    }

    /// Enables or disables the memo cache.
    #[must_use]
    pub fn with_cache(mut self, cache: bool) -> RuntimeConfig {
        self.cache = cache;
        self
    }

    /// Overrides the memo-cache capacity (entries; 0 = unbounded).
    #[must_use]
    pub fn with_cache_capacity(mut self, capacity: usize) -> RuntimeConfig {
        self.cache_capacity = capacity;
        self
    }

    /// Overrides the per-job attempt limit (clamped to at least 1).
    #[must_use]
    pub fn with_max_attempts(mut self, attempts: u32) -> RuntimeConfig {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Overrides the initial retry backoff.
    #[must_use]
    pub fn with_retry_backoff(mut self, backoff: Duration) -> RuntimeConfig {
        self.retry_backoff = backoff;
        self
    }

    /// Sets the per-job sample budget (0 disables the gate).
    #[must_use]
    pub fn with_job_budget(mut self, budget: u64) -> RuntimeConfig {
        self.job_budget = budget;
        self
    }

    /// Arms the hang watchdog with a soft per-job deadline
    /// ([`Duration::ZERO`] disables it).
    #[must_use]
    pub fn with_job_deadline(mut self, deadline: Duration) -> RuntimeConfig {
        self.job_deadline = deadline;
        self
    }

    /// Default config with the worker count taken from `BIOS_WORKERS`,
    /// the cache capacity from `BIOS_CACHE_CAP`, and the watchdog
    /// deadline from `BIOS_JOB_DEADLINE_MS`, when set and parseable.
    /// A set-but-malformed value is *not* silently ignored: it keeps
    /// the default and prints one deterministic warning line to stderr
    /// (see [`parse_env_value`]).
    ///
    /// `BIOS_WORKERS` and `BIOS_CACHE_CAP` must be **positive**, and a
    /// `0` is warned about and ignored like a malformed value (see
    /// [`parse_env_positive`]). For the cache this matters: in
    /// [`RuntimeConfig::with_cache_capacity`] a capacity of 0 means
    /// *unbounded*, but an operator writing `BIOS_CACHE_CAP=0` almost
    /// always means *disabled* — the opposite. Disable memoization
    /// with [`RuntimeConfig::with_cache`] instead.
    #[must_use]
    pub fn from_env() -> RuntimeConfig {
        let mut config = RuntimeConfig::default();
        let positive = |name| {
            std::env::var(name)
                .ok()
                .and_then(|raw| parse_env_positive(name, &raw))
        };
        if let Some(n) = positive("BIOS_WORKERS") {
            config.workers = n;
        }
        if let Some(cap) = positive("BIOS_CACHE_CAP") {
            config.cache_capacity = cap;
        }
        if let Some(ms) = std::env::var("BIOS_JOB_DEADLINE_MS").ok().and_then(|raw| {
            parse_env_value::<u64>("BIOS_JOB_DEADLINE_MS", &raw, "milliseconds as an integer")
        }) {
            config.job_deadline = Duration::from_millis(ms);
        }
        config
    }
}

/// Parses one environment-variable value, warning instead of silently
/// ignoring garbage: a malformed `raw` produces exactly one
/// deterministic line on stderr —
/// `warning: ignoring malformed NAME="raw" (expected WHAT)` — and
/// `None`, so the caller keeps its default. Shared by
/// [`RuntimeConfig::from_env`] and `bios-gateway`'s
/// `GatewayConfig::from_env`. `name`, `raw`, and `what` are free-form
/// identifier/text strings.
pub fn parse_env_value<T: std::str::FromStr>(name: &str, raw: &str, what: &str) -> Option<T> {
    match raw.parse::<T>() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("warning: ignoring malformed {name}={raw:?} (expected {what})");
            None
        }
    }
}

/// [`parse_env_value`] for a count that must be positive
/// (`BIOS_WORKERS`, `BIOS_CACHE_CAP`, `BIOS_GATEWAY_QPS`,
/// `BIOS_BREAKER_THRESHOLD`): a zero is refused like a malformed
/// value — one warning line on stderr,
/// `warning: ignoring NAME="0" (expected a positive integer)`, and
/// `None` — never dropped silently.
pub fn parse_env_positive<T>(name: &str, raw: &str) -> Option<T>
where
    T: std::str::FromStr + Default + PartialEq,
{
    let value = parse_env_value::<T>(name, raw, "a positive integer")?;
    if value == T::default() {
        eprintln!("warning: ignoring {name}={raw:?} (expected a positive integer)");
        return None;
    }
    Some(value)
}

/// What every execution path captures from its runtime: the memo cache
/// (`None` when memoization is off), the shared counters, and the
/// config's per-job robustness knobs. Worker closures own a clone, so
/// none of them borrows the runtime.
#[derive(Debug, Clone)]
struct JobContext {
    cache: Option<Arc<ResultCache>>,
    metrics: Arc<RuntimeMetrics>,
    config: RuntimeConfig,
}

/// The fleet engine: worker pool + memo cache + metrics + storage,
/// shared across every fleet submitted to it.
#[derive(Debug)]
pub struct Runtime {
    config: RuntimeConfig,
    pool: WorkerPool,
    cache: Arc<ResultCache>,
    metrics: Arc<RuntimeMetrics>,
    storage: Arc<dyn StorageIo>,
}

/// What one job's pipeline produced, before [`JobContext::execute`]
/// stamps it with the job's identity and wall time and seals it.
struct Completion {
    outcome: Result<Arc<CalibrationOutcome>, JobError>,
    from_cache: bool,
    attempts: u32,
    injected: FaultTally,
}

impl Runtime {
    /// Builds a runtime from `config` on the real filesystem.
    #[must_use]
    pub fn new(config: RuntimeConfig) -> Runtime {
        Runtime::with_storage(config, Arc::new(RealIo))
    }

    /// Builds a runtime whose run journals and cache snapshots all go
    /// through `storage`. The torture gate passes a
    /// [`bios_recover::SimIo`] handle here and keeps a clone (clones
    /// share one disk) to reboot it and count its ops.
    #[must_use]
    pub fn with_storage(config: RuntimeConfig, storage: Arc<dyn StorageIo>) -> Runtime {
        Runtime {
            config,
            pool: WorkerPool::new(config.workers),
            cache: Arc::new(ResultCache::with_capacity(config.cache_capacity)),
            metrics: Arc::new(RuntimeMetrics::new()),
            storage,
        }
    }

    /// Shorthand: default config at an explicit worker count.
    #[must_use]
    pub fn with_workers(workers: usize) -> Runtime {
        Runtime::new(RuntimeConfig::default().with_workers(workers))
    }

    /// Worker threads in the pool.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The live counter block shared with every worker. The shard
    /// layer (`bios-shard`) records the corrupt results its integrity
    /// hop catches here.
    #[must_use]
    pub fn metrics_handle(&self) -> Arc<RuntimeMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Point-in-time copy of the cumulative runtime counters, with the
    /// cache's eviction and corruption counts merged in.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snapshot = self.metrics.snapshot();
        snapshot.cache_evictions = self.cache.evictions();
        snapshot.cache_corrupt_dropped = self.cache.corrupt_dropped();
        snapshot
    }

    /// Outcomes currently memoized.
    #[must_use]
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Drops every memoized outcome (the next run re-simulates).
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Persists the memo cache to a checksummed snapshot file on the
    /// runtime's storage; returns the entry count written. See
    /// [`ResultCache::save`].
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn save_cache(&self, path: impl AsRef<Path>) -> io::Result<u64> {
        self.cache.save_with(self.storage.as_ref(), path)
    }

    /// Loads a cache snapshot written by [`Runtime::save_cache`].
    /// Corrupt or non-finite entries are dropped and counted (surfacing
    /// as `cache_corrupt_dropped` in [`Runtime::metrics`]), never
    /// served. See [`ResultCache::load`].
    ///
    /// # Errors
    ///
    /// Propagates storage errors; a file that is not a cache snapshot
    /// at all is [`io::ErrorKind::InvalidData`].
    pub fn load_cache(&self, path: impl AsRef<Path>) -> io::Result<CacheLoadReport> {
        self.cache.load_with(self.storage.as_ref(), path)
    }

    /// Runs the fleet across the worker pool and collects results by
    /// job index. Identical outcomes for identical seeds at any worker
    /// count; per-job failures land in the report instead of aborting
    /// the batch.
    #[must_use]
    pub fn run(&self, fleet: &Fleet) -> FleetReport {
        self.run_with_observer(fleet, |_| {})
    }

    /// [`Runtime::run`] with a completion observer: `on_result` fires
    /// for every job *as it completes* (arbitrary order), before the
    /// result is surfaced in the report. The journal layer uses this as
    /// its write-ahead point — a result is durably journaled before the
    /// caller can see it. A job whose worker was lost never reaches the
    /// observer: its synthesized failure only fills the report slot,
    /// so a resume re-executes it.
    pub(crate) fn run_with_observer(
        &self,
        fleet: &Fleet,
        mut on_result: impl FnMut(&JobResult),
    ) -> FleetReport {
        let started = Instant::now();
        // Self-healing pass: replace any worker that retired after
        // catching a panicking task (or absorbing a watchdog
        // cancellation) in an earlier run.
        self.heal();
        self.metrics.record_submitted(fleet.len() as u64);
        // Arm the hang watchdog for the duration of the run; dropping
        // the handle at the end of this function stops the supervisor.
        let watchdog = (self.config.job_deadline > Duration::ZERO)
            .then(|| Watchdog::spawn(self.config.job_deadline));
        let registry = watchdog.as_ref().map(Watchdog::registry);
        let (tx, rx) = mpsc::channel::<JobResult>();
        // Dispatch contiguous *chunks* of jobs rather than single jobs:
        // the job list is shared as one `Arc<[Job]>` and each boxed task
        // walks its index range, so the per-job dispatch cost (entry
        // clone, box, enqueue, dequeue handoff) is amortized over the
        // chunk. Several chunks per worker keep the load balanced when
        // job costs are uneven.
        let jobs: Arc<[Job]> = fleet.jobs().into();
        let chunk = chunk_size(jobs.len(), self.workers());
        for start in (0..jobs.len()).step_by(chunk) {
            let end = (start + chunk).min(jobs.len());
            let tx = tx.clone();
            let ctx = self.job_context();
            let jobs = Arc::clone(&jobs);
            let plan = fleet.fault_plan_arc();
            let registry = registry.clone();
            self.pool.execute_judged(move || {
                let mut absorbed_stall = false;
                for job in &jobs[start..end] {
                    let result = ctx.execute(job, plan.as_deref(), registry.as_deref());
                    absorbed_stall |=
                        registry.is_some() && matches!(result.outcome, Err(JobError::Deadline));
                    let _ = tx.send(result);
                }
                if absorbed_stall {
                    // The thread sat in a livelock until the watchdog
                    // cancelled it; finish the chunk (determinism), then
                    // retire so `heal` replaces it with a fresh thread.
                    ctx.metrics.record_stalled_worker();
                    TaskVerdict::Retire
                } else {
                    TaskVerdict::Continue
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<JobResult>> = (0..fleet.len()).map(|_| None).collect();
        for _ in 0..fleet.len() {
            let Some(result) = self.recv_or_heal(&rx) else {
                break; // nothing more can arrive: report what we have
            };
            on_result(&result);
            let index = result.index;
            slots[index] = Some(result);
        }
        let results = fleet
            .jobs()
            .iter()
            .zip(slots)
            .map(|(job, slot)| {
                // A missing slot can only mean the worker died harder
                // than catch_unwind (e.g. stack overflow aborts).
                slot.unwrap_or_else(|| {
                    JobResult::lost(
                        job.index,
                        job.entry.id().to_owned(),
                        job.seed,
                        "worker lost",
                    )
                })
            })
            .collect();
        FleetReport {
            fleet: fleet.name().to_owned(),
            workers: self.workers(),
            elapsed: started.elapsed(),
            results,
            metrics: self.metrics(),
        }
    }

    /// Opens an incremental job stream over this runtime's pool — the
    /// submission surface for callers that discover jobs one at a time
    /// (a streaming gateway tick) instead of assembling a [`Fleet`] up
    /// front. Heals the pool first, exactly like a batch run.
    #[must_use]
    pub fn open_stream(&self) -> JobStream<'_> {
        self.heal();
        let (tx, rx) = mpsc::channel();
        JobStream {
            runtime: self,
            tx,
            rx,
            next_ticket: 0,
            outstanding: BTreeMap::new(),
        }
    }

    /// Runs the fleet on the calling thread, in job order — the parity
    /// reference for the concurrent path. Shares the same cache and
    /// metrics semantics as [`Runtime::run`].
    #[must_use]
    pub fn run_sequential(&self, fleet: &Fleet) -> FleetReport {
        let started = Instant::now();
        self.metrics.record_submitted(fleet.len() as u64);
        let ctx = self.job_context();
        let results = fleet
            .jobs()
            .iter()
            .map(|job| ctx.execute(job, fleet.fault_plan(), None))
            .collect();
        FleetReport {
            fleet: fleet.name().to_owned(),
            workers: 1,
            elapsed: started.elapsed(),
            results,
            metrics: self.metrics(),
        }
    }

    /// The cache, counters, and knobs every job of this runtime runs
    /// under.
    fn job_context(&self) -> JobContext {
        JobContext {
            cache: self.config.cache.then(|| Arc::clone(&self.cache)),
            metrics: Arc::clone(&self.metrics),
            config: self.config,
        }
    }

    /// Replaces retired workers and meters the respawns; returns how
    /// many were spawned.
    fn heal(&self) -> usize {
        let respawned = self.pool.heal();
        self.metrics.record_worker_respawns(respawned as u64);
        respawned
    }

    /// The one collection wait, shared by the batch collector and
    /// [`JobStream::recv`]: blocks for the next completion on `rx`,
    /// and whenever the whole pool has retired (watchdog
    /// cancellations), heals it so queued work keeps flowing instead
    /// of deadlocking. `None` when nothing more can arrive: the
    /// channel closed, or the OS refuses replacement threads.
    fn recv_or_heal<T>(&self, rx: &mpsc::Receiver<T>) -> Option<T> {
        loop {
            match rx.recv_timeout(Duration::from_millis(25)) {
                Ok(message) => return Some(message),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if self.pool.live_workers() == 0 && self.heal() == 0 {
                        return None;
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => return None,
            }
        }
    }
}

/// An incremental submission handle over a [`Runtime`]'s worker pool,
/// opened with [`Runtime::open_stream`]. Jobs go in one at a time via
/// [`JobStream::submit`] (each returns a monotonically increasing
/// *ticket*) and come back via [`JobStream::recv`] in whatever order
/// workers finish them, tagged with their ticket so the caller can
/// reorder deterministically.
///
/// Execution semantics are identical to the batch path: every job runs
/// through the same per-job pipeline (fault realization, budget gate,
/// memo-cache probe, retry loop, non-finite quarantine), so a streamed
/// job's outcome is byte-identical to the same `(entry, seed, plan)`
/// run inside a [`Fleet`]. Streams never arm the hang watchdog: an
/// injected stall is rejected synchronously as the deterministic
/// [`JobError::Deadline`] instead of livelocking a worker.
#[derive(Debug)]
pub struct JobStream<'rt> {
    runtime: &'rt Runtime,
    tx: mpsc::Sender<(u64, JobResult)>,
    rx: mpsc::Receiver<(u64, JobResult)>,
    next_ticket: u64,
    /// Ticket → (sensor id, seed) for every submitted-but-uncollected
    /// job; `BTreeMap` so the oldest ticket is recoverable when a lost
    /// worker forces a synthesized failure.
    outstanding: BTreeMap<u64, (String, u64)>,
}

impl JobStream<'_> {
    /// Submits one job and returns its ticket. The entry and plan are
    /// cloned into the worker closure; the call never blocks.
    pub fn submit(&mut self, entry: &CatalogEntry, seed: u64, plan: Option<&FaultPlan>) -> u64 {
        let home = self.runtime;
        self.submit_on(home, entry, seed, plan)
    }

    /// Submits one job for execution on `host`'s worker pool while
    /// keeping every *accounting* surface on the stream's home runtime:
    /// the memo cache probed and filled, the metrics billed, the retry
    /// policy applied, and the completion channel delivered to are all
    /// the home runtime's. This is the work-stealing seam `bios-shard`
    /// dispatches through — because a job's execution is a pure
    /// function of `(entry, seed, plan, policy)`, *where* the closure
    /// runs can never change *what* it computes, so a stolen job's
    /// [`JobResult`] is byte-identical to a home-run one.
    ///
    /// With `host == self.runtime` this is exactly
    /// [`JobStream::submit`].
    pub fn submit_on(
        &mut self,
        host: &Runtime,
        entry: &CatalogEntry,
        seed: u64,
        plan: Option<&FaultPlan>,
    ) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.outstanding
            .insert(ticket, (entry.id().to_owned(), seed));
        self.runtime.metrics.record_submitted(1);
        let tx = self.tx.clone();
        let job = Job {
            index: ticket as usize,
            entry: entry.clone(),
            seed,
        };
        let plan = plan.cloned();
        let ctx = self.runtime.job_context();
        host.pool.execute(move || {
            let _ = tx.send((ticket, ctx.execute(&job, plan.as_ref(), None)));
        });
        ticket
    }

    /// Jobs submitted but not yet collected with [`JobStream::recv`].
    #[must_use]
    pub fn pending(&self) -> usize {
        self.outstanding.len()
    }

    /// Blocks until the next outstanding job completes and returns its
    /// `(ticket, result)`; `None` when nothing is outstanding. Heals
    /// the pool exactly like the batch collector, and if the OS
    /// refuses new threads the oldest outstanding job is surfaced as
    /// the deterministic "worker lost" failure instead of blocking
    /// forever.
    pub fn recv(&mut self) -> Option<(u64, JobResult)> {
        loop {
            let (&oldest, _) = self.outstanding.first_key_value()?;
            let Some((ticket, result)) = self.runtime.recv_or_heal(&self.rx) else {
                let (sensor, seed) = self.outstanding.remove(&oldest)?;
                let lost = JobResult::lost(oldest as usize, sensor, seed, "worker lost");
                return Some((oldest, lost));
            };
            // A result whose ticket was already synthesized as lost
            // (worker limped back) is dropped.
            if self.outstanding.remove(&ticket).is_some() {
                return Some((ticket, result));
            }
        }
    }
}

/// Jobs per dispatched chunk: aim for four chunks per worker so slow
/// jobs can't strand the batch behind one thread, but never less than
/// one job per chunk.
fn chunk_size(jobs: usize, workers: usize) -> usize {
    jobs.div_ceil((workers * 4).max(1)).max(1)
}

impl JobContext {
    /// Runs one job on the calling thread and seals its [`JobResult`]
    /// there, before the result crosses any channel: the one place
    /// executed work becomes a result, shared by the pool's chunks,
    /// [`Runtime::run_sequential`] and [`JobStream::submit_on`].
    fn execute(
        &self,
        job: &Job,
        plan: Option<&FaultPlan>,
        watch: Option<&WatchRegistry>,
    ) -> JobResult {
        let t0 = Instant::now();
        let done = self.pipeline(job, plan, watch);
        let wall = t0.elapsed();
        self.metrics
            .record_finished(done.outcome.is_ok(), done.from_cache, wall);
        JobResult {
            index: job.index,
            sensor: job.entry.id().to_owned(),
            seed: job.seed,
            wall,
            from_cache: done.from_cache,
            attempts: done.attempts,
            injected: done.injected,
            outcome: done.outcome,
            integrity: 0,
        }
        .sealed()
    }

    /// Deterministic exponential backoff for the retry after `attempt`
    /// (1-based), capped so injected glitch storms cannot stall a
    /// worker for long.
    fn backoff_after(&self, attempt: u32) -> Duration {
        let doublings = attempt.saturating_sub(1).min(8);
        self.config
            .retry_backoff
            .saturating_mul(1u32 << doublings)
            .min(Duration::from_millis(50))
    }

    /// One job's pipeline: realize faults, budget gate, cache probe,
    /// then the attempt loop — simulate behind `catch_unwind`, retry
    /// transient failures with deterministic backoff, memoize
    /// successes, meter everything.
    ///
    /// Every branch here is a pure function of `(entry, seed, plan,
    /// config)` — never of the worker, the attempt wall-clock, or cache
    /// state (the budget gate runs *before* the cache probe so a
    /// rejection cannot depend on what happens to be memoized) — which
    /// is what keeps fleet outcomes identical across worker counts even
    /// mid-chaos.
    fn pipeline(
        &self,
        job: &Job,
        plan: Option<&FaultPlan>,
        watch: Option<&WatchRegistry>,
    ) -> Completion {
        let (index, entry, seed) = (job.index, &job.entry, job.seed);
        let metrics = &self.metrics;
        let cache = self.cache.as_deref();
        // Realize this job's faults once, up front: realization depends
        // only on (plan, sensor id, job seed), so retries and reruns see
        // the exact same fault set. A plan that realizes nothing for
        // this job leaves the healthy path (and its cache slot)
        // untouched.
        let faults = plan
            .map(|p| p.realize(entry.id(), seed))
            .filter(|f| !f.is_healthy());
        let injected = faults
            .as_ref()
            .map_or_else(FaultTally::default, |f| f.tally());
        metrics.record_faults_injected(injected.total() as u64);
        let physics_plan = faults.as_ref().and(plan);

        // Budget gate, before the cache probe so the verdict is a pure
        // function of the job.
        let budget = self.config.job_budget;
        if budget > 0 {
            let required = entry.calibration_workload();
            if required > budget {
                metrics.record_budget_rejection();
                return Completion {
                    outcome: Err(JobError::Budget { required, budget }),
                    from_cache: false,
                    attempts: 0,
                    injected,
                };
            }
        }

        // Injected busy-hang, gated like the budget check — before the
        // cache probe, so the verdict is a pure function of the job.
        // With a watchdog armed the job *really* livelocks in solver
        // code until the supervisor cancels it; without one it is
        // rejected synchronously. Either way the rendered loss is the
        // identical `Deadline` error, so digests match across worker
        // counts, watchdog settings, and the sequential path.
        if faults.as_ref().is_some_and(|f| f.stall_job) {
            if let Some(registry) = watch {
                let token = registry.begin(index);
                simulate_stall(self.config.job_deadline, token.as_ref());
                registry.end(index);
            }
            metrics.record_deadline_kill();
            return Completion {
                outcome: Err(JobError::Deadline),
                from_cache: false,
                attempts: 1,
                injected,
            };
        }

        let key = cache.map(|_| CacheKey {
            sensor: entry.id().to_owned(),
            protocol: entry.protocol_fingerprint(),
            plan: physics_plan.map_or(0, FaultPlan::fingerprint),
            seed,
        });
        if let (Some(cache), Some(key)) = (cache, &key) {
            if let Some(hit) = cache.get(key) {
                return Completion {
                    outcome: Ok(hit),
                    from_cache: true,
                    attempts: 0,
                    injected,
                };
            }
        }

        let max_attempts = self.config.max_attempts.max(1);
        let mut attempt: u32 = 1;
        let outcome = loop {
            let transient_quota = faults.as_ref().map_or(0, |f| f.transient_failures);
            let attempt_result: Result<_, JobError> = if attempt <= transient_quota {
                // Injected transient glitch: fail before touching the
                // physics, deterministically for the first N attempts.
                Err(JobError::Transient {
                    message: format!("injected transient glitch ({attempt}/{transient_quota})"),
                    attempts: attempt,
                })
            } else {
                catch_unwind(AssertUnwindSafe(|| {
                    #[expect(
                        clippy::panic,
                        reason = "deliberate injected fault, contained by catch_unwind"
                    )]
                    if faults.as_ref().is_some_and(|f| f.panic_job) {
                        panic!("injected worker panic (fault plan)");
                    }
                    entry.run_calibration_with(seed, physics_plan)
                }))
                .map_err(|payload| JobError::Panicked(panic_message(&payload)))
                .and_then(|r| r.map_err(JobError::Calibration))
            };
            match attempt_result {
                Ok(outcome) => break Ok(outcome),
                Err(error) if error.is_transient() && attempt < max_attempts => {
                    metrics.record_retry();
                    let backoff = self.backoff_after(attempt);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    attempt += 1;
                }
                Err(error) => break Err(error),
            }
        };
        // NaN/±Inf guardrail: a non-finite outcome is quarantined *before*
        // it can reach the cache or a run journal — a poisoned figure of
        // merit served from the cache would silently corrupt every later
        // run that hits it.
        let outcome = outcome.and_then(|outcome| {
            if outcome_is_finite(&outcome) {
                Ok(outcome)
            } else {
                metrics.record_nonfinite_quarantined();
                Err(JobError::NonFinite)
            }
        });
        let outcome = outcome.map(|outcome| match (cache, key) {
            (Some(cache), Some(key)) => cache.insert(key, outcome),
            _ => Arc::new(outcome),
        });
        Completion {
            outcome,
            from_cache: false,
            attempts: attempt,
            injected,
        }
    }
}

/// A real livelock for the `WorkerStall` fault: spin a small diffusion
/// solver until the watchdog trips the cancellation token through its
/// cooperative checkpoints. A hard cap bounds the hang even if the
/// supervisor dies, so a stalled fleet can never wedge forever.
fn simulate_stall(deadline: Duration, token: &AtomicBool) {
    let hard_cap = deadline.saturating_mul(20).max(Duration::from_secs(2));
    let t0 = Instant::now();
    let Ok(mut grid) = DiffusionGrid::new(
        DiffusionCoefficient::from_square_cm_per_second(6.7e-6),
        Molar::from_milli_molar(1.0),
        0.05,
        64,
    ) else {
        return; // cannot build the spin loop: degrade to an instant loss
    };
    while t0.elapsed() < hard_cap {
        // ~6400 explicit steps per call, polling the token every 64.
        if grid
            .advance_checked(
                Seconds::from_millis(64.0),
                Seconds::from_millis(0.01),
                token,
            )
            .is_err()
        {
            return; // cancelled by the watchdog
        }
    }
}

/// Whether every figure of merit and every raw curve value in an
/// outcome is finite — the gate between solver output and the
/// cache/journal layer.
fn outcome_is_finite(outcome: &CalibrationOutcome) -> bool {
    let s = &outcome.summary;
    let summary_finite = s
        .sensitivity
        .as_micro_amps_per_milli_molar_square_cm()
        .is_finite()
        && s.linear_range.low().as_molar().is_finite()
        && s.linear_range.high().as_molar().is_finite()
        && s.detection_limit.as_molar().is_finite()
        && s.r_squared.is_finite();
    let curve = &outcome.curve;
    summary_finite
        && curve.electrode_area().as_square_cm().is_finite()
        && curve.blank_sigma().as_amps().is_finite()
        && curve.points().iter().all(|p| {
            p.concentration().as_molar().is_finite()
                && p.replicates().iter().all(|i| i.as_amps().is_finite())
        })
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_owned())
}

#[cfg(test)]
mod tests {
    use bios_core::catalog;

    use super::*;

    #[test]
    fn concurrent_matches_sequential() {
        let fleet = Fleet::builder("parity")
            .sensors(catalog::cyp_sensors())
            .seeds([7, 8])
            .build();
        let concurrent = Runtime::with_workers(4).run(&fleet);
        let sequential = Runtime::with_workers(1).run_sequential(&fleet);
        assert_eq!(concurrent.summaries_digest(), sequential.summaries_digest());
    }

    #[test]
    fn cache_serves_repeat_runs() {
        let runtime = Runtime::with_workers(2);
        let fleet = Fleet::builder("repeat")
            .sensors(catalog::glucose_sensors())
            .seed(42)
            .build();
        let first = runtime.run(&fleet);
        assert_eq!(first.cache_hits(), 0);
        let second = runtime.run(&fleet);
        assert_eq!(second.cache_hits(), fleet.len());
        assert_eq!(first.summaries_digest(), second.summaries_digest());
        let m = runtime.metrics();
        assert_eq!(m.cache_hits, fleet.len() as u64);
        assert_eq!(m.jobs_submitted, 2 * fleet.len() as u64);
    }

    #[test]
    fn cache_can_be_disabled() {
        let runtime = Runtime::new(RuntimeConfig::default().with_workers(2).with_cache(false));
        let fleet = Fleet::builder("uncached")
            .sensor(catalog::our_glucose_sensor())
            .seed(1)
            .build();
        let _ = runtime.run(&fleet);
        let second = runtime.run(&fleet);
        assert_eq!(second.cache_hits(), 0);
        assert_eq!(runtime.cache_len(), 0);
    }

    #[test]
    fn different_seeds_do_not_alias_in_cache() {
        let runtime = Runtime::with_workers(2);
        let fleet = Fleet::builder("seeds")
            .sensor(catalog::our_lactate_sensor())
            .seeds([1, 2])
            .build();
        let report = runtime.run(&fleet);
        let a = report.outcome("lactate/ours", 1).unwrap();
        let b = report.outcome("lactate/ours", 2).unwrap();
        assert_ne!(a.summary.sensitivity, b.summary.sensitivity);
    }

    #[test]
    fn empty_fleet_reports_empty() {
        let report = Runtime::with_workers(2).run(&Fleet::builder("empty").build());
        assert!(report.results.is_empty());
        assert_eq!(report.throughput_jobs_per_sec(), 0.0);
    }

    #[test]
    fn stream_matches_batch_outcomes() {
        let fleet = Fleet::builder("stream-parity")
            .sensors(catalog::cyp_sensors())
            .seeds([7, 8])
            .build();
        let batch = Runtime::with_workers(4).run(&fleet);
        let runtime = Runtime::with_workers(2);
        let mut stream = runtime.open_stream();
        for job in fleet.jobs() {
            let ticket = stream.submit(&job.entry, job.seed, None);
            assert_eq!(ticket as usize, job.index);
        }
        let mut slots: Vec<Option<JobResult>> = (0..fleet.len()).map(|_| None).collect();
        while stream.pending() > 0 {
            let (ticket, result) = stream.recv().unwrap();
            slots[ticket as usize] = Some(result);
        }
        assert!(stream.recv().is_none());
        for (job, slot) in fleet.jobs().iter().zip(&slots) {
            let streamed = slot.as_ref().unwrap();
            assert_eq!(streamed.sensor, job.entry.id());
            assert_eq!(streamed.seed, job.seed);
            let batched = &batch.results[job.index];
            let (Ok(a), Ok(b)) = (&streamed.outcome, &batched.outcome) else {
                panic!("both paths should calibrate {}", job.entry.id());
            };
            assert_eq!(format!("{:?}", a.summary), format!("{:?}", b.summary));
        }
    }

    #[test]
    fn stream_applies_fault_plans_like_batch() {
        use bios_faults::{FaultKind, FaultPlan};
        let plan = FaultPlan::builder("stream-faults", 9)
            .spec(FaultKind::FilmDenaturation, 1.0, 0.8)
            .build();
        let fleet = Fleet::builder("stream-faults")
            .sensor(catalog::our_glucose_sensor())
            .seed(5)
            .fault_plan(plan.clone())
            .build();
        let batch = Runtime::with_workers(2).run(&fleet);
        let runtime = Runtime::with_workers(2);
        let mut stream = runtime.open_stream();
        stream.submit(&fleet.jobs()[0].entry, 5, Some(&plan));
        let (_, streamed) = stream.recv().unwrap();
        assert_eq!(streamed.injected, batch.results[0].injected);
        let (Ok(a), Ok(b)) = (&streamed.outcome, &batch.results[0].outcome) else {
            panic!("denatured-film calibration should still converge");
        };
        assert_eq!(format!("{:?}", a.summary), format!("{:?}", b.summary));
    }

    #[test]
    fn stolen_submission_matches_home_run_and_bills_home() {
        let entry = catalog::our_glucose_sensor();
        let home = Runtime::with_workers(2);
        let host = Runtime::with_workers(2);
        let mut stream = home.open_stream();
        let home_ticket = stream.submit(&entry, 5, None);
        let stolen_ticket = stream.submit_on(&host, &entry, 6, None);
        let mut results = BTreeMap::new();
        while stream.pending() > 0 {
            let (ticket, result) = stream.recv().unwrap();
            results.insert(ticket, result);
        }
        let home_run = &results[&home_ticket];
        let stolen = &results[&stolen_ticket];
        let (Ok(_), Ok(_)) = (&home_run.outcome, &stolen.outcome) else {
            panic!("both placements should calibrate");
        };
        // Placement never changes what a job computes: a re-run of the
        // stolen (entry, seed) on the home pool is byte-identical.
        let mut check = home.open_stream();
        check.submit(&entry, 6, None);
        let (_, rerun) = check.recv().unwrap();
        let (Ok(a), Ok(b)) = (&stolen.outcome, &rerun.outcome) else {
            panic!("re-run should calibrate");
        };
        assert_eq!(format!("{:?}", a.summary), format!("{:?}", b.summary));
        // Accounting stays home: the stolen job was billed to (and
        // memoized in) the home runtime, never the host.
        assert_eq!(home.metrics().jobs_submitted, 3);
        assert_eq!(host.metrics().jobs_submitted, 0);
        assert_eq!(home.cache_len(), 2);
        assert_eq!(host.cache_len(), 0);
        assert!(rerun.from_cache, "stolen job must fill the home cache");
    }

    #[test]
    fn from_env_rejects_zero_cache_cap() {
        // `from_env` is the only reader of BIOS_CACHE_CAP, and the other
        // env test asserts nothing about cache capacity, so mutating
        // just this variable is race-free.
        std::env::set_var("BIOS_CACHE_CAP", "0");
        assert_eq!(RuntimeConfig::from_env().cache_capacity, DEFAULT_CAPACITY);
        std::env::set_var("BIOS_CACHE_CAP", "512");
        assert_eq!(RuntimeConfig::from_env().cache_capacity, 512);
        std::env::remove_var("BIOS_CACHE_CAP");
    }

    #[test]
    fn zero_positive_env_values_keep_the_default() {
        // Every positive-integer knob refuses "0" with one warning line
        // instead of silently dropping it.
        assert_eq!(parse_env_positive::<usize>("BIOS_WORKERS", "0"), None);
        assert_eq!(parse_env_positive::<usize>("BIOS_CACHE_CAP", "00"), None);
        assert_eq!(parse_env_positive::<u64>("BIOS_GATEWAY_QPS", "0"), None);
        assert_eq!(
            parse_env_positive::<u32>("BIOS_BREAKER_THRESHOLD", "0"),
            None
        );
        assert_eq!(
            parse_env_positive::<u32>("BIOS_BREAKER_THRESHOLD", "x"),
            None
        );
        assert_eq!(parse_env_positive::<usize>("BIOS_WORKERS", "3"), Some(3));
        // The other env test only asserts `workers >= 1`, which a
        // refused zero keeps, so mutating BIOS_WORKERS here is race-free.
        std::env::set_var("BIOS_WORKERS", "0");
        assert_eq!(
            RuntimeConfig::from_env().workers,
            RuntimeConfig::default().workers
        );
        std::env::remove_var("BIOS_WORKERS");
    }

    #[test]
    fn from_env_respects_bios_workers() {
        // Only assert the parse path; don't mutate the environment of
        // the whole test process.
        let config = RuntimeConfig::from_env();
        assert!(config.workers >= 1);
    }

    #[test]
    fn parse_env_value_warns_and_keeps_default_on_garbage() {
        // Well-formed values parse...
        assert_eq!(parse_env_value::<usize>("BIOS_WORKERS", "4", "n"), Some(4));
        assert_eq!(
            parse_env_value::<u64>("BIOS_GATEWAY_QPS", "250", "tokens per tick"),
            Some(250)
        );
        // ...and every malformed shape yields None (plus one warning
        // line on stderr) instead of a silent skip or a panic.
        for bad in ["", "abc", "-3", "4.5", "1e3", " 8"] {
            assert_eq!(
                parse_env_value::<u64>("BIOS_BREAKER_THRESHOLD", bad, "a positive integer"),
                None,
                "{bad:?} should not parse"
            );
        }
    }
}
