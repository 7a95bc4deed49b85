//! `ward-stream`: one simulated day (288 five-minute ticks) of
//! continuous monitoring for 1000 patients through the stream engine,
//! with recalibrations admitted by the gateway. The engine is reused
//! across passes, as a monitoring service would keep it, so after the
//! set-up pass the calibrations are cache hits and the time goes to
//! the per-patient-tick loop.

use std::time::Instant;

use bios_gateway::{Gateway, GatewayConfig};
use bios_recover::fnv1a;
use bios_runtime::{Runtime, RuntimeConfig};
use bios_stream::{StreamConfig, StreamEngine, StreamReport};

use crate::stats::median;
use crate::trace::Tracer;
use crate::{more_passes, probe, Ctx, DEFAULT_SEED};

const PATIENTS: usize = 1000;
const TICKS: u64 = 288;
/// The stream gate's digest for its 1000 × 288 cohort at seed
/// `0x57AE_A11E` (`scripts/check.sh`); the default seed must match it.
const PINNED_DIGEST: u64 = 0x52ed_f2ac_22ed_2154;
/// Set-ups repeated over the timed budget; `setup_s` is the median of
/// these and the first.
const SETUP_REPS: usize = 30;

/// The stream gate's front door: a wider intake than the default so a
/// cohort aging together does not starve the queue.
fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        queue_capacity: 64,
        service_slots: 8,
        ..GatewayConfig::default()
    }
}

fn engine(seed: u64, workers: usize) -> StreamEngine {
    let runtime = Runtime::new(RuntimeConfig::default().with_workers(workers));
    StreamEngine::new(
        StreamConfig::new(PATIENTS, TICKS, seed),
        Gateway::new(gateway_config(), runtime),
    )
}

fn digest(report: &StreamReport) -> u64 {
    fnv1a(report.digest().as_bytes())
}

/// Counts one pass's operations and checks it against the reference
/// digest and the stream layer's invariants.
fn account(ctx: &mut Ctx, k: usize, report: &StreamReport, reference: u64) {
    let ticks = report.patients as u64 * report.horizon_ticks;
    let ops = ticks + report.patients as u64 + report.recal_enqueued;
    ctx.attempted += ops;
    let failed = report.bootstrap_failed + report.recal_failed;
    ctx.failed += failed;
    ctx.unserved += failed + report.recal_rejected;
    let got = digest(report);
    ctx.check(got == reference, ops, || {
        format!("ward pass {k}: digest 0x{got:016x} differs from 0x{reference:016x}")
    });
    ctx.check(
        report.false_trips == 0 && report.recal_degraded == 0 && report.drift_detected > 0,
        ops,
        || {
            format!(
                "ward pass {k}: false_trips={} recal_degraded={} detected={}",
                report.false_trips, report.recal_degraded, report.drift_detected
            )
        },
    );
}

/// One set-up: the engine and the pass that fills its cache.
fn build(seed: u64, workers: usize) -> (StreamEngine, StreamReport) {
    let engine = engine(seed, workers);
    let first = engine.run();
    (engine, first)
}

/// Builds the engine and runs the set-up pass that fills its cache;
/// returns the engine and the reference digest, checked against the
/// pinned gate value at the default seed.
fn set_up(ctx: &mut Ctx) -> (StreamEngine, u64) {
    let (seed, workers) = (ctx.seed, ctx.nproc);
    let (engine, first) = ctx.setup(|| build(seed, workers));
    let reference = digest(&first);
    if seed == DEFAULT_SEED {
        let ops = PATIENTS as u64 * TICKS;
        ctx.check(reference == PINNED_DIGEST, ops, || {
            format!("ward digest 0x{reference:016x} != pinned stream-gate 0x{PINNED_DIGEST:016x}")
        });
    }
    ctx.notes.push(format!(
        "ops = patient-ticks; {PATIENTS} patients x {TICKS} ticks per pass; digest_fnv=0x{reference:016x}"
    ));
    (engine, reference)
}

/// `ward-stream`, untraced: the end-to-end metrics.
pub fn run(ctx: &mut Ctx) {
    let (engine, reference) = set_up(ctx);
    let (seed, workers) = (ctx.seed, ctx.nproc);
    ctx.start();
    let mut k = 0;
    while ctx.more() {
        let t0 = Instant::now();
        let report = engine.run();
        ctx.pass(t0, PATIENTS as u64 * TICKS);
        account(ctx, k, &report, reference);
        while ctx.setup_due(SETUP_REPS) {
            let (_, again) = ctx.setup(|| build(seed, workers));
            let got = digest(&again);
            ctx.check(got == reference, PATIENTS as u64 * TICKS, || {
                format!("ward set-up repeat: digest 0x{got:016x} differs from 0x{reference:016x}")
            });
        }
        k += 1;
    }
}

/// `ward-stream`, traced: per-layer metrics. The engine runs the
/// per-patient-tick loop internally, so each pass is one span; the
/// calls inside that loop are timed in batches on the workload's own
/// cohort by [`probe`]. With no traced stages inside a pass there is
/// no tracing overhead to report, and `trace.overhead_frac` reads 0.
pub fn traced(ctx: &mut Ctx) -> Tracer {
    let mut tracer = Tracer::new(Instant::now());
    let (engine, reference) = set_up(ctx);
    let mut walls = Vec::new();
    let mut last = None;
    let deadline = Instant::now() + ctx.budget;
    let mut k = 0;
    while more_passes(k, 4, deadline) {
        let t0 = Instant::now();
        let report = tracer.span("stream.run", k as u64, || engine.run());
        walls.push(t0.elapsed().as_secs_f64());
        account(ctx, k, &report, reference);
        last = Some(report);
        k += 1;
    }
    let ticks = PATIENTS as f64 * TICKS as f64;
    ctx.layer("stream.patient_ticks_per_s", ticks / median(&walls));
    if let Some(r) = last {
        ctx.layer("stream.recal_enqueued", r.recal_enqueued as f64);
        ctx.layer("stream.recal_rejected", r.recal_rejected as f64);
        ctx.layer("stream.epoch_swaps", r.epoch_swaps as f64);
        ctx.layer("stream.mard", r.mean_mard);
        ctx.layer(
            "stream.detect_latency_max_ticks",
            r.max_detection_latency() as f64,
        );
        ctx.layer("gateway.rejected", r.gateway.admission_rejected as f64);
        ctx.layer("gateway.rate_limited", r.gateway.rate_limited as f64);
        ctx.layer("gateway.browned_out", r.gateway.browned_out as f64);
        ctx.layer("gateway.deadline_shed", r.gateway.deadline_shed as f64);
    }

    let seed = ctx.seed;
    ctx.layer(
        "stream.cohort_ms",
        probe::cohort_ms(&mut tracer, seed, PATIENTS),
    );
    ctx.layer(
        "stream.concentration_ns",
        probe::concentration_ns(&mut tracer, seed, PATIENTS, TICKS),
    );
    ctx.layer("prng.gaussian_ns", probe::gaussian_ns(&mut tracer, seed));
    let config = StreamConfig::new(PATIENTS, TICKS, seed);
    ctx.layer(
        "analytics.drift_observe_ns",
        probe::drift_observe_ns(
            &mut tracer,
            seed,
            config.monitor_window,
            config.monitor_threshold,
        ),
    );
    ctx.layer("trace.spans", tracer.len() as f64);
    tracer
}
