//! The lab workloads: standard-addition calibrations of the 23 catalog
//! sensors through the fleet runtime.
//!
//! * `catalog-cold` — fresh seeds every pass, so every cache probe
//!   misses; each pass is journaled and then replayed from the sealed
//!   journal on a fresh runtime.
//! * `catalog-warm` — a fixed seed set that fits in the memo cache,
//!   pre-filled during set-up, so every pass is all hits.
//!
//! The traced runs re-enact a pass through the public stage calls
//! (fingerprint, cache probe, assembly, calibration, fit, cache insert,
//! result seal, journal append/seal/load) and require the re-enacted
//! digest to equal the runtime's, so the stage split measures the same
//! program.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bios_analytics::LinearRangeOptions;
use bios_core::catalog::{self, CalibrationOutcome, CatalogEntry};
use bios_core::protocol::{CalibrationProtocol, Chronoamperometry, CyclicVoltammetry};
use bios_core::sensor::Technique;
use bios_faults::FaultTally;
use bios_prng::SplitMix64;
use bios_recover::journal::RunHeader;
use bios_recover::{fnv1a, Disposition, JournalReader, JournalWriter, Record};
use bios_runtime::{CacheKey, Fleet, FleetReport, JobResult, ResultCache, Runtime, RuntimeConfig};

use crate::stats::median;
use crate::trace::{Profile, Rec, Tracer};
use crate::{more_passes, probe, Ctx};

/// Fresh seeds per sensor in every cold pass (23 × 200 = 4600 jobs).
const COLD_SEEDS: usize = 200;
/// Seeds per sensor in the warm set: 23 × 120 = 2760 entries, well
/// under the 4096-entry default cache even on its fullest shard.
const WARM_SEEDS: usize = 120;
/// Set-ups repeated over the timed budget; `setup_s` is the median of
/// these and the first. The cold set-up (a thread pool and the catalog)
/// takes well under a millisecond, so it is repeated more often.
const SETUP_REPS: usize = 30;
const COLD_SETUP_REPS: usize = 200;

/// The stages the traced cold pass is split into.
const COLD_STAGES: &[&str] = &[
    "runtime.fleet_fingerprint",
    "recover.create",
    "core.fingerprint",
    "runtime.cache_get",
    "core.assemble",
    "core.calibrate",
    "analytics.fit",
    "runtime.cache_insert",
    "runtime.result_seal",
    "recover.append",
    "recover.seal",
    "recover.load",
    "runtime.replay_merge",
];
/// The stages the traced warm pass is split into.
const WARM_STAGES: &[&str] = &[
    "core.fingerprint",
    "runtime.cache_get",
    "runtime.result_seal",
];

/// All Table 2 rows plus the multi-analyte panel: 23 sensors.
fn entries() -> Vec<CatalogEntry> {
    let mut v = catalog::all_table2();
    v.extend(catalog::multi_panel_sensors());
    v
}

/// `n` job seeds of sub-stream `stream` of the workload seed.
fn seeds(workload_seed: u64, stream: u64, n: usize) -> Vec<u64> {
    let base = SplitMix64::new(workload_seed).derive(stream);
    (0..n as u64)
        .map(|i| SplitMix64::new(base).derive(i))
        .collect()
}

fn fleet(name: &str, entries: &[CatalogEntry], seeds: Vec<u64>) -> Fleet {
    Fleet::builder(name)
        .sensors(entries.iter().cloned())
        .seeds(seeds)
        .build()
}

/// Cold pass `k` draws its seeds from sub-stream `k + 1`; the warm set
/// is sub-stream 0.
fn cold_fleet(entries: &[CatalogEntry], workload_seed: u64, k: usize) -> Fleet {
    fleet(
        "catalog-cold",
        entries,
        seeds(workload_seed, k as u64 + 1, COLD_SEEDS),
    )
}

fn warm_fleet(entries: &[CatalogEntry], workload_seed: u64) -> Fleet {
    fleet("catalog-warm", entries, seeds(workload_seed, 0, WARM_SEEDS))
}

fn runtime(workers: usize) -> Runtime {
    Runtime::new(RuntimeConfig::default().with_workers(workers))
}

/// One journaled pass and its replay, as the program runs them.
struct ColdPass {
    report: FleetReport,
    write: Duration,
    replay: Duration,
    replay_digest: String,
    replay_executed: usize,
}

fn cold_pass(
    rt: &Runtime,
    workers: usize,
    fleet: &Fleet,
    journal: &Path,
) -> Result<ColdPass, String> {
    let t0 = Instant::now();
    let report = rt
        .run_journaled(fleet, journal)
        .map_err(|e| format!("journaled run failed: {e}"))?;
    let write = t0.elapsed();
    let t1 = Instant::now();
    let resumed = runtime(workers)
        .resume(fleet, journal)
        .map_err(|e| format!("resume failed: {e}"))?;
    let replay = t1.elapsed();
    Ok(ColdPass {
        report,
        write,
        replay,
        replay_digest: resumed.summaries_digest().to_owned(),
        replay_executed: resumed.executed_jobs,
    })
}

/// Checks one cold pass: no hits, no failures, replay digest equal to
/// the write digest with nothing re-executed.
fn check_cold(ctx: &mut Ctx, k: usize, pass: &ColdPass) {
    let n = pass.report.results.len() as u64;
    let failures = pass.report.failures().count() as u64;
    ctx.failed += failures;
    ctx.unserved += failures;
    let hits = pass.report.cache_hits();
    ctx.check(hits == 0, n, || format!("cold pass {k}: {hits} cache hits"));
    ctx.check(
        pass.replay_digest == pass.report.summaries_digest() && pass.replay_executed == 0,
        n,
        || format!("cold pass {k}: replay digest differs from the written run"),
    );
}

/// `catalog-cold`, untraced: the end-to-end metrics.
pub fn cold(ctx: &mut Ctx) {
    let journal = ctx.work_dir.join("cold.journal");
    let workers = ctx.nproc;
    let build = || (runtime(workers), entries());
    let (rt, entries) = ctx.setup(build);
    ctx.notes.push(format!(
        "ops = calibration jobs, each written to the journal and replayed; {} jobs per pass",
        entries.len() * COLD_SEEDS
    ));
    ctx.start();
    let mut k = 0;
    while ctx.more() {
        let fleet = cold_fleet(&entries, ctx.seed, k);
        let n = fleet.len() as u64;
        ctx.attempted += n;
        let t0 = Instant::now();
        match cold_pass(&rt, workers, &fleet, &journal) {
            Ok(pass) => {
                ctx.pass(t0, n);
                check_cold(ctx, k, &pass);
                if k == 0 {
                    let reference =
                        Runtime::new(RuntimeConfig::default().with_workers(1).with_cache(false))
                            .run_sequential(&fleet);
                    ctx.check(
                        reference.summaries_digest() == pass.report.summaries_digest(),
                        n,
                        || "cold pass 0 differs from Runtime::run_sequential".to_owned(),
                    );
                }
            }
            Err(e) => ctx.check(false, n, || format!("cold pass {k}: {e}")),
        }
        while ctx.setup_due(COLD_SETUP_REPS) {
            drop(ctx.setup(build));
        }
        k += 1;
    }
}

/// `catalog-warm`, untraced: the end-to-end metrics.
pub fn warm(ctx: &mut Ctx) {
    let workers = ctx.nproc;
    let seed = ctx.seed;
    let build = || {
        let rt = runtime(workers);
        let fleet = warm_fleet(&entries(), seed);
        let prefill = rt.run(&fleet);
        (rt, fleet, prefill)
    };
    let (rt, fleet, prefill) = ctx.setup(build);
    let n = fleet.len() as u64;
    let reference = prefill.summaries_digest();
    let prefill_failures = prefill.failures().count();
    ctx.check(prefill_failures == 0, n, || {
        format!("warm pre-fill: {prefill_failures} jobs failed")
    });
    ctx.notes.push(format!(
        "ops = calibration jobs served from the cache; {n} jobs per pass"
    ));
    ctx.start();
    let mut k = 0;
    while ctx.more() {
        let t0 = Instant::now();
        let report = rt.run(&fleet);
        ctx.pass(t0, n);
        ctx.attempted += n;
        check_warm(ctx, k, &report, &reference);
        while ctx.setup_due(SETUP_REPS) {
            let (_, _, again) = ctx.setup(build);
            ctx.check(again.summaries_digest() == reference, n, || {
                "warm set-up repeat: pre-fill digest differs from the first".to_owned()
            });
        }
        k += 1;
    }
}

fn check_warm(ctx: &mut Ctx, k: usize, report: &FleetReport, reference: &str) {
    let n = report.results.len() as u64;
    let hits = report.cache_hits() as u64;
    ctx.check(hits == n, n, || {
        format!("warm pass {k}: {hits} hits of {n} jobs")
    });
    ctx.check(report.summaries_digest() == reference, n, || {
        format!("warm pass {k}: digest differs from the pre-fill")
    });
}

/// What a re-enacted pass produced.
struct Reenacted {
    digest: String,
    wall: Duration,
    journal_bytes: u64,
    journal_records: u64,
}

/// Re-enacts one runtime pass on the calling thread through the
/// platform's public stage calls, journaling when `journal` is given.
/// Job ids in spans are `op_base + index`.
fn reenact(
    fleet: &Fleet,
    cache: &ResultCache,
    journal: Option<&Path>,
    mut rec: Rec<'_>,
    op_base: u64,
) -> Result<Reenacted, String> {
    let t0 = Instant::now();
    let root = rec.begin("pass", op_base);
    let mut writer = match journal {
        Some(path) => {
            let fingerprint =
                rec.span("runtime.fleet_fingerprint", op_base, || fleet.fingerprint());
            let header = RunHeader {
                fleet: fleet.name().to_owned(),
                fingerprint,
                jobs: fleet.len() as u64,
            };
            let w = rec.span("recover.create", op_base, || {
                JournalWriter::create(path, &header)
            });
            Some(w.map_err(|e| format!("journal create: {e}"))?)
        }
        None => None,
    };
    let mut results = Vec::with_capacity(fleet.len());
    for job in fleet.jobs() {
        let op = op_base + job.index as u64;
        let span = rec.begin("job", op);
        let entry = &job.entry;
        let seed = job.seed;
        let protocol = rec.span("core.fingerprint", op, || entry.protocol_fingerprint());
        let key = CacheKey {
            sensor: entry.id().to_owned(),
            protocol,
            plan: 0,
            seed,
        };
        let hit = rec.span("runtime.cache_get", op, || cache.get(&key));
        let from_cache = hit.is_some();
        let outcome = match hit {
            Some(outcome) => outcome,
            None => simulate(entry, seed, key, cache, &mut rec, op)?,
        };
        let result = rec.span("runtime.result_seal", op, || {
            JobResult {
                index: job.index,
                sensor: entry.id().to_owned(),
                seed,
                wall: Duration::ZERO,
                from_cache,
                attempts: u32::from(!from_cache),
                injected: FaultTally::default(),
                outcome: Ok(outcome),
                integrity: 0,
            }
            .sealed()
        });
        if let Some(w) = writer.as_mut() {
            rec.span("recover.append", op, || {
                w.append(&Record::job_done(
                    result.index as u64,
                    Disposition::Completed,
                    u64::from(result.attempts),
                    result.digest_line(),
                ))
            })
            .map_err(|e| format!("journal append: {e}"))?;
        }
        results.push(result);
        rec.end(span);
    }
    let mut journal_bytes = 0;
    let mut journal_records = 0;
    let digest = match (writer.as_mut(), journal) {
        (Some(w), Some(path)) => {
            let digest = rec.span("recover.seal", op_base, || {
                let digest: String = results.iter().map(|r| r.digest_line() + "\n").collect();
                w.seal(results.len() as u64, fnv1a(digest.as_bytes()))
                    .map(|()| digest)
            });
            let digest = digest.map_err(|e| format!("journal seal: {e}"))?;
            journal_bytes = w.bytes_written();
            journal_records = w.records_written();
            let loaded = rec
                .span("recover.load", op_base, || JournalReader::load(path))
                .map_err(|e| format!("journal load: {e}"))?;
            let replayed = rec.span("runtime.replay_merge", op_base, || {
                let mut lines = vec![None; fleet.len()];
                for job in &loaded.jobs {
                    if let Some(slot) = lines.get_mut(job.index as usize) {
                        *slot = Some(&job.digest_line);
                    }
                }
                lines
                    .iter()
                    .map(|l| l.map_or_else(|| "MISSING\n".to_owned(), |l| format!("{l}\n")))
                    .collect::<String>()
            });
            if !loaded.sealed || replayed != digest {
                return Err("re-enacted journal does not replay to its digest".to_owned());
            }
            digest
        }
        _ => String::new(),
    };
    rec.end(root);
    let wall = t0.elapsed();
    let digest = if digest.is_empty() {
        results.iter().map(|r| r.digest_line() + "\n").collect()
    } else {
        digest
    };
    Ok(Reenacted {
        digest,
        wall,
        journal_bytes,
        journal_records,
    })
}

/// The miss path of one job: assemble, calibrate, fit, insert.
fn simulate(
    entry: &CatalogEntry,
    seed: u64,
    key: CacheKey,
    cache: &ResultCache,
    rec: &mut Rec<'_>,
    op: u64,
) -> Result<Arc<CalibrationOutcome>, String> {
    let (sensor, mut chain, standards) = rec.span("core.assemble", op, || {
        (
            entry.build_sensor(),
            entry.build_readout(seed),
            entry.sweep().linspace(entry.sweep_points()),
        )
    });
    let curve = rec.span("core.calibrate", op, || match sensor.technique() {
        Technique::Chronoamperometry { .. } => {
            Chronoamperometry::default().calibrate(&sensor, &mut chain, &standards)
        }
        _ => CyclicVoltammetry::default().calibrate(&sensor, &mut chain, &standards),
    });
    let summary = rec
        .span("analytics.fit", op, || {
            curve.summary(&LinearRangeOptions::default())
        })
        .map_err(|e| format!("{} seed={seed}: fit failed: {e}", entry.id()))?;
    Ok(rec.span("runtime.cache_insert", op, || {
        cache.insert(key, CalibrationOutcome { summary, curve })
    }))
}

/// Per-layer bookkeeping shared by the two traced catalog runs.
#[derive(Default)]
struct Layered {
    profile: Profile,
    kept: Option<Tracer>,
    traced: Vec<f64>,
    untraced: Vec<f64>,
    rate_n: Vec<f64>,
    rate_1: Vec<f64>,
    busy: Vec<f64>,
    hit_ratio: Vec<f64>,
}

impl Layered {
    /// Runs the untraced and traced re-enactments of `fleet` (order
    /// alternating by `k`), checks both digests against `expect`, folds
    /// the traced spans, and returns the traced re-enactment.
    #[allow(clippy::too_many_arguments)]
    fn reenact_pair(
        &mut self,
        ctx: &mut Ctx,
        k: usize,
        fleet: &Fleet,
        caches: &(ResultCache, ResultCache),
        journals: Option<(&Path, &Path)>,
        expect: &str,
        origin: Instant,
    ) -> Option<Reenacted> {
        let n = fleet.len() as u64;
        let op_base = (k as u64) << 32;
        let untraced = || reenact(fleet, &caches.0, journals.map(|j| j.0), Rec(None), op_base);
        let traced = |t: &mut Tracer| {
            reenact(
                fleet,
                &caches.1,
                journals.map(|j| j.1),
                Rec(Some(t)),
                op_base,
            )
        };
        let mut tracer = Tracer::new(origin);
        let (u, t) = if k.is_multiple_of(2) {
            let u = untraced();
            (u, traced(&mut tracer))
        } else {
            let t = traced(&mut tracer);
            (untraced(), t)
        };
        match (u, t) {
            (Ok(u), Ok(t)) => {
                ctx.check(u.digest == expect && t.digest == expect, n, || {
                    format!("pass {k}: re-enacted digest differs from the runtime's")
                });
                self.untraced.push(u.wall.as_secs_f64());
                self.traced.push(t.wall.as_secs_f64());
                self.profile.fold(&tracer);
                if self.kept.is_none() {
                    self.kept = Some(tracer);
                }
                Some(t)
            }
            (Err(e), _) | (_, Err(e)) => {
                ctx.check(false, n, || format!("pass {k}: re-enactment failed: {e}"));
                None
            }
        }
    }

    fn record_program(&mut self, workers: usize, report: &FleetReport, wall: Duration) {
        let n = report.results.len() as f64;
        let busy: f64 = report.results.iter().map(|r| r.wall.as_secs_f64()).sum();
        self.rate_n.push(n / wall.as_secs_f64());
        self.busy.push(busy / (workers as f64 * wall.as_secs_f64()));
        self.hit_ratio.push(report.cache_hits() as f64 / n);
    }

    fn finish(self, ctx: &mut Ctx, stages: &[&str]) -> Tracer {
        let p = &self.profile;
        for (layer, stage, scale) in [
            ("core.assemble_us", "core.assemble", 1e-3),
            ("core.calibrate_us", "core.calibrate", 1e-3),
            ("core.fingerprint_us", "core.fingerprint", 1e-3),
            ("analytics.fit_us", "analytics.fit", 1e-3),
            ("runtime.cache_get_us", "runtime.cache_get", 1e-3),
            ("runtime.cache_insert_us", "runtime.cache_insert", 1e-3),
            ("runtime.result_seal_us", "runtime.result_seal", 1e-3),
            ("recover.append_us", "recover.append", 1e-3),
            ("recover.seal_ms", "recover.seal", 1e-6),
            (
                "runtime.fleet_fingerprint_ms",
                "runtime.fleet_fingerprint",
                1e-6,
            ),
        ] {
            ctx.layer(layer, p.mean_ns(stage) * scale);
        }
        ctx.layer("runtime.busy_frac", median(&self.busy));
        ctx.layer("runtime.cache_hit_ratio", median(&self.hit_ratio));
        let r1 = median(&self.rate_1);
        if r1 > 0.0 {
            ctx.layer("runtime.parallel_speedup", median(&self.rate_n) / r1);
        }
        ctx.layer("trace.coverage_frac", p.coverage(stages));
        ctx.layer(
            "trace.overhead_frac",
            median(&self.traced) / median(&self.untraced).max(1e-12) - 1.0,
        );
        ctx.layer("trace.spans", p.spans as f64);
        ctx.notes.push(format!(
            "traced passes={} stage self time (ns/call): {}",
            self.traced.len(),
            p.stages
                .iter()
                .map(|(name, t)| format!("{name}={:.0}", t.mean_ns()))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        self.kept.unwrap_or_else(|| Tracer::new(Instant::now()))
    }
}

/// `catalog-cold`, traced: per-layer metrics.
pub fn cold_traced(ctx: &mut Ctx) -> Tracer {
    let origin = Instant::now();
    let workers = ctx.nproc;
    let entries = entries();
    let (rt_n, rt_1) = (runtime(workers), runtime(1));
    let caches = (ResultCache::new(), ResultCache::new());
    let dir = ctx.work_dir.clone();
    let (j_n, j_1, j_u, j_t) = (
        dir.join("n.journal"),
        dir.join("1.journal"),
        dir.join("u.journal"),
        dir.join("t.journal"),
    );
    let mut lay = Layered::default();
    let (mut rate_replay, mut evictions, mut samples) = (Vec::new(), Vec::new(), 0u64);
    let (mut load_ns, mut loaded) = (0u64, 0u64);
    let mut bytes_per_record = 0.0;
    let deadline = Instant::now() + ctx.budget;
    let mut k = 0;
    while more_passes(k, 3, deadline) {
        let fleet = cold_fleet(&entries, ctx.seed, k);
        let n = fleet.len() as u64;
        ctx.attempted += n;
        let before = rt_n.metrics().cache_evictions;
        let pass = match cold_pass(&rt_n, workers, &fleet, &j_n) {
            Ok(pass) => pass,
            Err(e) => {
                ctx.check(false, n, || format!("cold pass {k}: {e}"));
                break;
            }
        };
        check_cold(ctx, k, &pass);
        evictions.push((rt_n.metrics().cache_evictions - before) as f64);
        lay.record_program(workers, &pass.report, pass.write);
        rate_replay.push(n as f64 / pass.replay.as_secs_f64());
        let t1 = Instant::now();
        match rt_1.run_journaled(&fleet, &j_1) {
            Ok(_) => lay.rate_1.push(n as f64 / t1.elapsed().as_secs_f64()),
            Err(e) => ctx.check(false, n, || format!("1-worker pass {k}: {e}")),
        }
        let expect = pass.report.summaries_digest();
        if let Some(t) =
            lay.reenact_pair(ctx, k, &fleet, &caches, Some((&j_u, &j_t)), &expect, origin)
        {
            bytes_per_record = t.journal_bytes as f64 / t.journal_records.max(1) as f64;
            loaded += t.journal_records;
        }
        samples = fleet
            .jobs()
            .iter()
            .map(|j| j.entry.calibration_workload())
            .sum();
        k += 1;
    }
    if let Some(t) = lay.profile.stages.get("recover.load") {
        load_ns = t.ns;
    }
    ctx.layer("core.samples", samples as f64);
    ctx.layer("runtime.cache_evictions", median(&evictions));
    ctx.layer("runtime.cold_jobs_per_s", median(&lay.rate_n));
    ctx.layer("recover.replay_jobs_per_s", median(&rate_replay));
    ctx.layer(
        "recover.load_us",
        load_ns as f64 / loaded.max(1) as f64 / 1e3,
    );
    ctx.layer("recover.bytes_per_record", bytes_per_record);
    let mut tracer = lay.finish(ctx, COLD_STAGES);
    let seed = ctx.seed;
    ctx.layer("prng.gaussian_ns", probe::gaussian_ns(&mut tracer, seed));
    ctx.layer(
        "instrument.digitize_ns",
        probe::digitize_ns(&mut tracer, &entries, seed),
    );
    tracer
}

/// `catalog-warm`, traced: per-layer metrics.
pub fn warm_traced(ctx: &mut Ctx) -> Tracer {
    let origin = Instant::now();
    let workers = ctx.nproc;
    let fleet = warm_fleet(&entries(), ctx.seed);
    let n = fleet.len() as u64;
    let (rt_n, rt_1) = (runtime(workers), runtime(1));
    let prefill = rt_n.run(&fleet);
    let expect = prefill.summaries_digest();
    ctx.check(rt_1.run(&fleet).summaries_digest() == expect, n, || {
        "warm pre-fill differs between 1 and n workers".to_owned()
    });
    let caches = (ResultCache::new(), ResultCache::new());
    for cache in [&caches.0, &caches.1] {
        match reenact(&fleet, cache, None, Rec(None), 0) {
            Ok(r) => ctx.check(r.digest == expect, n, || {
                "warm re-enacted pre-fill differs from the runtime's".to_owned()
            }),
            Err(e) => ctx.check(false, n, || format!("warm re-enacted pre-fill: {e}")),
        }
    }
    let mut lay = Layered::default();
    let deadline = Instant::now() + ctx.budget;
    let mut k = 0;
    while more_passes(k, 3, deadline) {
        ctx.attempted += n;
        let t0 = Instant::now();
        let report = rt_n.run(&fleet);
        let wall = t0.elapsed();
        check_warm(ctx, k, &report, &expect);
        lay.record_program(workers, &report, wall);
        let t1 = Instant::now();
        let one = rt_1.run(&fleet);
        lay.rate_1.push(n as f64 / t1.elapsed().as_secs_f64());
        check_warm(ctx, k, &one, &expect);
        lay.reenact_pair(ctx, k + 1, &fleet, &caches, None, &expect, origin);
        k += 1;
    }
    ctx.layer("runtime.warm_jobs_per_s", median(&lay.rate_n));
    lay.finish(ctx, WARM_STAGES)
}
