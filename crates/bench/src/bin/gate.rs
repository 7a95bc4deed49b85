//! The one gate driver: runs every CI scenario at every layout in
//! process, pins each result digest to its sibling layouts and to the
//! absolute value in [`LEDGER`], and asserts each scenario's counters.
//!
//! ```text
//! cargo run --release -p bios-bench --bin gate
//! ```
//!
//! | scenario | layouts | what must hold |
//! |---|---|---|
//! | crash | 4 workers uninterrupted; 8 workers resumed | a journaled fleet killed after its 5th durable record resumes to the uninterrupted digest |
//! | overload | 1 and 8 workers | a bursty gateway trace is shed, browned out and breaker-tripped, boundedly, and drains |
//! | stream | 1 and 8 workers | a 1000-patient × 288-tick cohort detects its drift and swaps epochs, with no false trip |
//! | shard | 1×1, 4×2, 8×8; 4×2 with a lost shard; quorum-armed 1×1, 4×2, 8×8 | placement, shard loss and the redundancy screen never move a byte |
//! | survey | sequential; 8 workers | the `survey` binary's 138-job fleet |
//! | torture | one campaign | every storage-fault schedule lands in the trichotomy |
//!
//! Each failing row is reported on stderr with its scenario, layout,
//! expected and actual value; the exit status is non-zero when any row
//! fails. The binary takes no flags: it re-spawns itself with one
//! internal argument only to run the crash scenario's crashing child.

#![allow(
    clippy::print_stdout,
    reason = "a CLI gate reports on stdout by design"
)]

use std::fmt::Display;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use bios_bench::torture;
use bios_core::catalog::{self, CatalogEntry};
use bios_faults::{FaultKind, FaultPlan};
use bios_gateway::{BreakerConfig, Gateway, GatewayConfig, Request, TokenBucket};
use bios_quorum::QuorumConfig;
use bios_recover::fnv1a;
use bios_runtime::{Fleet, JournalOptions, Runtime, RuntimeConfig};
use bios_shard::{home_shard, tenant_trace, ShardChaos, ShardConfig, ShardedGateway};
use bios_stream::{StreamConfig, StreamEngine};

/// The absolute `digest_fnv` of each scenario; every layout of a
/// scenario must reproduce its row. A change that moves a digest on
/// purpose updates its row here and CHANGES.md in the same commit,
/// with the old and new values and the reason.
const LEDGER: &[(&str, u64)] = &[
    ("crash", 0xc64d_40d9_4bc4_3f8d),
    ("overload", 0xe994_ee45_fb21_7b81),
    ("stream", 0x52ed_f2ac_22ed_2154),
    // The quorum layouts run the shard trace: the screen validates
    // committed values and never replaces one.
    ("shard", 0x3158_92f6_8632_0e05),
    ("survey", 0xa7ae_eab2_0d63_d3a7),
    // The torture fleet's uninterrupted, un-journaled golden digest.
    ("torture", 0xe23e_1ffb_b36f_bada),
];

/// The torture campaign's totals over both crash sweeps and
/// [`TORTURE_SCHEDULES`] mixed schedules.
const TORTURE_TOTALS: &str = "schedules=332 crash_points=92 recoveries=260 degradations=59 \
                              typed_errors=13 panics=0 divergences=0";

/// Mixed-fault schedules in the torture campaign; with the two crash
/// sweeps on top it clears the 200-schedule floor.
const TORTURE_SCHEDULES: u64 = 240;

/// The crashing child aborts right after this many durable records.
const CRASH_AFTER: u64 = 5;

/// The internal argument, `--crash-child=<journal>`, that makes the
/// binary run the crash scenario's crashing child.
const CRASH_CHILD: &str = "--crash-child=";

/// Every check's verdict and every layout's digest, so one run
/// reports all failures.
#[derive(Default)]
struct Gate {
    checks: usize,
    failures: usize,
    digests: Vec<(&'static str, String, u64)>,
}

/// The assertions of one (scenario, layout) row.
struct Row<'a> {
    gate: &'a mut Gate,
    scenario: &'a str,
    layout: &'a str,
}

impl Row<'_> {
    /// One assertion; `what` names the violation.
    fn check(&mut self, ok: bool, what: impl Display) {
        self.gate.checks += 1;
        if !ok {
            self.gate.failures += 1;
            eprintln!("FAIL {} [{}]: {what}", self.scenario, self.layout);
        }
    }
}

impl Gate {
    fn row<'a>(&'a mut self, scenario: &'a str, layout: &'a str) -> Row<'a> {
        Row {
            gate: self,
            scenario,
            layout,
        }
    }

    /// Records one layout's digest, printed with a one-line `note`,
    /// and pins it to the scenario's [`LEDGER`] row and to the
    /// scenario's first layout.
    fn digest(&mut self, scenario: &'static str, layout: &str, actual: u64, note: impl Display) {
        println!("{scenario:<9} {layout:<32} digest_fnv=0x{actual:016x}  {note}");
        let first = self.digests.iter().find(|d| d.0 == scenario).cloned();
        self.digests.push((scenario, layout.to_owned(), actual));
        let mut row = self.row(scenario, layout);
        match LEDGER.iter().find(|(s, _)| *s == scenario) {
            Some(&(_, expected)) => row.check(
                actual == expected,
                format_args!("digest 0x{actual:016x}, ledger expects 0x{expected:016x}"),
            ),
            None => row.check(false, "scenario has no ledger row"),
        }
        if let Some((_, first_layout, first)) = first {
            row.check(
                actual == first,
                format_args!("digest 0x{actual:016x} differs from {first_layout} 0x{first:016x}"),
            );
        }
    }

    /// Fails every [`LEDGER`] row that no layout reproduced.
    fn every_ledger_row_ran(&mut self) {
        for &(scenario, _) in LEDGER {
            let ran = self.digests.iter().any(|d| d.0 == scenario);
            self.row(scenario, "-")
                .check(ran, "no layout produced a digest");
        }
    }
}

fn main() -> ExitCode {
    bios_bench::silence_injected_panics();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let crash_journal = match args.as_slice() {
        [] => return run_gate(),
        [arg] => arg.strip_prefix(CRASH_CHILD),
        _ => None,
    };
    match crash_journal {
        Some(journal) => crash_child(journal),
        None => {
            eprintln!("usage: gate (takes no arguments)");
            ExitCode::from(2)
        }
    }
}

fn run_gate() -> ExitCode {
    let mut gate = Gate::default();
    crash(&mut gate);
    overload(&mut gate);
    stream(&mut gate);
    shard(&mut gate);
    survey(&mut gate);
    storage_torture(&mut gate);
    gate.every_ledger_row_ran();
    println!("gate: {} checks, {} failed", gate.checks, gate.failures);
    if gate.failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The crash scenario's fleet: every Table 2 entry × 3 seeds with
/// glitches, worker panics and film denaturation armed.
fn crash_fleet() -> Fleet {
    let plan = FaultPlan::builder("crash-gate", 0x9A7E)
        .spec(FaultKind::TransientGlitch, 0.6, 0.4)
        .spec(FaultKind::WorkerPanic, 0.2, 1.0)
        .spec(FaultKind::FilmDenaturation, 0.5, 0.6)
        .build();
    Fleet::builder("crash-gate")
        .sensors(catalog::all_table2())
        .seeds(0..3)
        .fault_plan(plan)
        .build()
}

fn crash_runtime(workers: usize) -> Runtime {
    Runtime::new(
        RuntimeConfig::default()
            .with_workers(workers)
            .with_cache(false)
            .with_retry_backoff(Duration::from_micros(10)),
    )
}

/// The crashing child: runs the crash fleet journaled and aborts the
/// process right after the [`CRASH_AFTER`]th durable record, exactly
/// as `kill -9` would. Returning at all means the abort never fired.
fn crash_child(journal: &str) -> ExitCode {
    let options = JournalOptions {
        crash_after_jobs: Some(CRASH_AFTER),
    };
    match crash_runtime(4).run_journaled_with(&crash_fleet(), journal, options) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("crash child: journaled run failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn crash(gate: &mut Gate) {
    let dir = std::env::temp_dir().join(format!("bios-gate-{}", std::process::id()));
    // A stale directory can only be left by an earlier process with
    // this pid; its journals must not leak into this run.
    let _ = std::fs::remove_dir_all(&dir);
    match std::fs::create_dir_all(&dir) {
        Ok(()) => crash_in(gate, &dir),
        Err(e) => gate
            .row("crash", "setup")
            .check(false, format_args!("{}: {e}", dir.display())),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn crash_in(gate: &mut Gate, dir: &Path) {
    let fleet = crash_fleet();
    let layout = "workers=4 uninterrupted";
    let reference = crash_runtime(4).run_journaled_with(
        &fleet,
        dir.join("ref.journal"),
        JournalOptions::default(),
    );
    match reference {
        Ok(report) => gate.digest(
            "crash",
            layout,
            fnv1a(report.summaries_digest().as_bytes()),
            report.outcome_summary(),
        ),
        Err(e) => gate.row("crash", layout).check(false, e),
    }

    let journal = dir.join("crash.journal");
    let child = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .arg(format!("{CRASH_CHILD}{}", journal.display()))
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
    });
    let mut row = gate.row("crash", "workers=4 crashing child");
    match child {
        Ok(status) => row.check(!status.success(), "the crashing run was supposed to die"),
        Err(e) => row.check(false, e),
    }

    let layout = "workers=8 resumed";
    match crash_runtime(8).resume(&fleet, &journal) {
        Ok(report) => {
            gate.row("crash", layout).check(
                report.resumed_jobs as u64 == CRASH_AFTER,
                format_args!(
                    "resumed {} journaled jobs, not the {CRASH_AFTER} made durable before the crash",
                    report.resumed_jobs
                ),
            );
            gate.digest(
                "crash",
                layout,
                report.digest_fnv(),
                format_args!(
                    "resumed {} of {} jobs, executed {} fresh",
                    report.resumed_jobs, report.total_jobs, report.executed_jobs
                ),
            );
        }
        Err(e) => gate
            .row("crash", layout)
            .check(false, format_args!("resume failed: {e}")),
    }
}

/// The overload trace: two tenants, a healthy glucose family, a
/// poisoned lactate family (two sweep points are below the analytics
/// three-standard minimum ⇒ deterministic calibration failure),
/// arrivals compressed by a `TrafficBurst` spec.
fn overload_trace(gateway: &Gateway) -> Vec<Request> {
    let plan = FaultPlan::builder("overload-gate", 0x6A7E)
        .spec(FaultKind::TrafficBurst, 0.12, 0.9)
        .build();
    let poisoned = catalog::our_lactate_sensor().with_sweep_points(2);
    let pairs: Vec<(CatalogEntry, u64)> = (0..48)
        .map(|i| {
            if i % 4 == 3 {
                (poisoned.clone(), i)
            } else {
                (catalog::our_glucose_sensor(), i)
            }
        })
        .collect();
    let mut trace = gateway.trace_from_plan(&plan, &pairs, "ward-a", 3);
    for (i, req) in trace.iter_mut().enumerate() {
        if i % 3 == 0 {
            req.tenant = "ward-b".to_string();
        }
    }
    trace
}

fn overload_config() -> GatewayConfig {
    GatewayConfig {
        queue_capacity: 6,
        service_slots: 3,
        default_deadline_ticks: 48,
        bucket_capacity_milli: 5 * TokenBucket::WHOLE_TOKEN,
        bucket_refill_milli_per_tick: TokenBucket::WHOLE_TOKEN,
        breaker: BreakerConfig {
            trip_after: 2,
            cooldown_ticks: 6,
            probe_quota: 1,
        },
        ..GatewayConfig::default()
    }
}

fn overload(gate: &mut Gate) {
    for workers in [1, 8] {
        let layout = format!("workers={workers}");
        let runtime = Runtime::new(RuntimeConfig::default().with_workers(workers));
        let gateway = Gateway::new(overload_config(), runtime);
        let trace = overload_trace(&gateway);
        let total = trace.len() as u64;
        let report = gateway.run(&trace);
        let c = report.counters;
        let executed = report.executed_ids().len() as u64;
        let mut row = gate.row("overload", &layout);
        // The trace must actually overload: every shedding mechanism
        // fires…
        row.check(
            c.rate_limited > 0,
            "rate limiter never fired on the bursty trace",
        );
        row.check(
            c.admission_rejected > 0,
            "the bounded queue never overflowed",
        );
        row.check(
            c.browned_out > 0,
            "brownout never engaged under queue pressure",
        );
        row.check(
            c.breaker_trips > 0,
            "the poisoned family never tripped its breaker",
        );
        // …but the damage stays bounded: overload must not starve the
        // healthy majority.
        row.check(
            executed * 2 >= total,
            format_args!("fewer than half the requests executed ({executed}/{total})"),
        );
        row.check(
            c.total_rejected() < total,
            "everything was rejected — admission control collapsed",
        );
        row.check(
            report.clean_drain(),
            "some requests never reached a terminal outcome",
        );
        gate.digest(
            "overload",
            &layout,
            fnv1a(report.digest().as_bytes()),
            format_args!("{executed}/{total} executed; {c}"),
        );
    }
}

fn stream(gate: &mut Gate) {
    // Wider intake than the default front door: a thousand patients
    // can trip monitors in bursts when a shared aging cohort degrades
    // together, and the gate measures the stream loop, not queue
    // starvation.
    let config = GatewayConfig {
        queue_capacity: 64,
        service_slots: 8,
        ..GatewayConfig::default()
    };
    for workers in [1, 8] {
        let layout = format!("1000x288 workers={workers}");
        let runtime = Runtime::new(RuntimeConfig::default().with_workers(workers));
        let engine = StreamEngine::new(
            StreamConfig::new(1000, 288, 0x57AE_A11E),
            Gateway::new(config.clone(), runtime),
        );
        let r = engine.run();
        let mut row = gate.row("stream", &layout);
        // The loop must engage end to end…
        row.check(
            r.bootstrap_failed == 0,
            format_args!(
                "{} bootstrap calibrations failed on the healthy catalog",
                r.bootstrap_failed
            ),
        );
        row.check(r.drift_injected > 0, "the aging plan injected no drift");
        row.check(r.drift_detected > 0, "no injected drift was detected");
        row.check(r.epoch_swaps > 0, "no recalibration ever swapped an epoch");
        // …and hold the stream layer's invariants.
        row.check(
            r.drift_detected <= r.drift_injected,
            format_args!(
                "detected {} exceeds injected {}",
                r.drift_detected, r.drift_injected
            ),
        );
        row.check(
            r.false_trips == 0,
            format_args!("{} monitor trips without injected drift", r.false_trips),
        );
        row.check(
            r.recal_degraded == 0,
            format_args!("{} recalibrations were browned out", r.recal_degraded),
        );
        gate.digest(
            "stream",
            &layout,
            fnv1a(r.digest().as_bytes()),
            format_args!(
                "{} drifted, {} detected, {} swapped, {} false trips",
                r.drift_injected, r.drift_detected, r.epoch_swaps, r.false_trips
            ),
        );
    }
}

/// What a shard layout arms on top of the fixed tenant trace.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Arm {
    Nothing,
    /// ward-00's home shard is lost at tick 1: it must end quarantined
    /// and its tenants redistributed.
    ShardLoss,
    /// Silent corruption on every tenant, the screen voting on every
    /// completion.
    Quorum,
}

/// (shards, workers per shard, armed): every layout must reproduce the
/// one shard digest.
const SHARD_LAYOUTS: [(usize, usize, Arm); 7] = [
    (1, 1, Arm::Nothing),
    (4, 2, Arm::Nothing),
    (8, 8, Arm::Nothing),
    (4, 2, Arm::ShardLoss),
    (1, 1, Arm::Quorum),
    (4, 2, Arm::Quorum),
    (8, 8, Arm::Quorum),
];

fn shard_chaos(arm: Arm, shards: usize) -> ShardChaos {
    match arm {
        Arm::Nothing => ShardChaos::none(),
        Arm::ShardLoss => ShardChaos::none().with_shard_loss_at(home_shard("ward-00", shards), 1),
        Arm::Quorum => {
            let plan = FaultPlan::builder("quorum drill", 0xC0DE)
                .spec(FaultKind::SilentCorruption, 0.45, 0.8)
                .build();
            let mut chaos = ShardChaos::none().with_quorum(QuorumConfig {
                sampling: 1.0,
                ..QuorumConfig::default()
            });
            for ward in 0..8 {
                chaos = chaos.with_tenant_plan(&format!("ward-{ward:02}"), plan.clone());
            }
            chaos
        }
    }
}

fn shard(gate: &mut Gate) {
    // The fixed trace: 8 wards × 6 requests, tight arrivals.
    let trace = tenant_trace(8, 6, 2, 96, None);
    let total = trace.len() as u64;
    for (shards, workers, arm) in SHARD_LAYOUTS {
        let layout = format!(
            "shards={shards} workers={workers}{}",
            match arm {
                Arm::Nothing => "",
                Arm::ShardLoss => " shard-loss",
                Arm::Quorum => " quorum",
            }
        );
        let sharded = ShardedGateway::new(
            ShardConfig::default()
                .with_shards(shards)
                .with_workers_per_shard(workers),
        );
        let report = sharded.run_with(&trace, &shard_chaos(arm, shards));
        let mut row = gate.row("shard", &layout);
        row.check(report.executed() > 0, "nothing executed");
        row.check(
            report.outcomes.len() as u64 == total,
            format_args!(
                "{} outcomes for {total} requests — some never reached a terminal state",
                report.outcomes.len()
            ),
        );
        if arm == Arm::ShardLoss {
            row.check(
                !report.quarantined_shards().is_empty(),
                "shard loss armed but no shard ended quarantined",
            );
            let redistributed: u64 = report.placement.iter().map(|p| p.redistributions_in).sum();
            row.check(
                redistributed > 0,
                "a quarantined shard's tenants never redistributed",
            );
        }
        let mut note = format!("{} executed, {} steals", report.executed(), report.steals());
        match (&report.quorum, arm) {
            (Some(q), Arm::Quorum) => {
                row.check(q.votes > 0, "the screen never voted");
                row.check(q.injected > 0, "the corruption drill never fired");
                row.check(
                    q.disagreements > 0,
                    "corruption realized but no vote disagreed",
                );
                row.check(
                    q.catch_rate() >= 0.99,
                    format_args!(
                        "catch rate {:.3} below the 0.99 floor ({} of {} caught)",
                        q.catch_rate(),
                        q.caught,
                        q.injected
                    ),
                );
                row.check(
                    q.escaped == 0,
                    format_args!(
                        "{} corrupt ballots escaped into a winning cluster",
                        q.escaped
                    ),
                );
                row.check(q.quarantined > 0, "no repeat offender was quarantined");
                note = format!(
                    "{note}; {} votes, {}/{} caught, {} escaped, {} lanes quarantined",
                    q.votes, q.caught, q.injected, q.escaped, q.quarantined
                );
            }
            (None, Arm::Quorum) => {
                row.check(false, "armed but the report carries no quorum summary")
            }
            (Some(_), _) => row.check(false, "unarmed run carries a quorum summary"),
            (None, _) => {}
        }
        gate.digest("shard", &layout, fnv1a(report.digest().as_bytes()), note);
    }
}

fn survey(gate: &mut Gate) {
    // Every catalog sensor (Table 2 rows plus the multi-panel
    // entries) × 6 replicate seeds: the `survey` binary's fleet.
    let mut sensors = catalog::all_table2();
    sensors.extend(catalog::multi_panel_sensors());
    let fleet = Fleet::builder("survey-bench")
        .sensors(sensors)
        .seeds(0..6)
        .build();
    let uncached = |workers| {
        Runtime::new(
            RuntimeConfig::default()
                .with_workers(workers)
                .with_cache(false),
        )
    };
    for (layout, report) in [
        ("sequential", uncached(1).run_sequential(&fleet)),
        ("workers=8", uncached(8).run(&fleet)),
    ] {
        gate.digest(
            "survey",
            layout,
            fnv1a(report.summaries_digest().as_bytes()),
            format_args!("{} jobs", fleet.len()),
        );
    }
}

fn storage_torture(gate: &mut Gate) {
    let fleet = torture::torture_fleet();
    let golden = torture::golden_digest(&fleet);
    gate.digest(
        "torture",
        "golden",
        fnv1a(golden.as_bytes()),
        format_args!("{} jobs", fleet.len()),
    );
    let layout = format!("mixed={TORTURE_SCHEDULES}");
    let [mut total, sharded, mixed] = match torture::run_torture(&fleet, &golden, TORTURE_SCHEDULES)
    {
        Ok(phases) => phases,
        Err(e) => {
            gate.row("torture", &layout).check(false, e);
            return;
        }
    };
    let mut row = gate.row("torture", &layout);
    for (sweep, name) in [(&total, "monolithic"), (&sharded, "sharded")] {
        row.check(
            sweep.recoveries == sweep.schedules,
            format_args!(
                "{name} crash sweep recovered {} of {} schedules",
                sweep.recoveries, sweep.schedules
            ),
        );
    }
    total.merge(&sharded);
    total.merge(&mixed);
    let totals = format!(
        "schedules={} crash_points={} recoveries={} degradations={} typed_errors={} \
         panics={} divergences={}",
        total.schedules,
        total.crash_points,
        total.recoveries,
        total.degradations,
        total.typed_errors,
        total.panics,
        total.divergences
    );
    println!("torture   {layout:<32} {totals}");
    row.check(total.clean(), "panics or silent divergences detected");
    row.check(
        totals == TORTURE_TOTALS,
        format_args!("totals {totals}, expected {TORTURE_TOTALS}"),
    );
}
