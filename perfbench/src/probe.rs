//! Batch timings of the calls that run inside the program's own loops
//! (the readout chain inside a calibration, the per-patient-tick loop
//! inside the stream engine) and so cannot be spanned one by one from
//! outside. Each batch runs on the workload's own inputs and is
//! recorded as one span.

use std::hint::black_box;
use std::time::Instant;

use bios_analytics::DriftMonitor;
use bios_core::catalog::CatalogEntry;
use bios_prng::Rng;
use bios_stream::PatientCohort;
use bios_units::Molar;

use crate::stats::median;
use crate::trace::Tracer;

/// Mean wall time of `f` over `n` calls, in ns, recorded as one span
/// named `name`.
pub fn batch(tracer: &mut Tracer, name: &'static str, n: u64, mut f: impl FnMut(u64)) -> f64 {
    let id = tracer.begin(name, 0);
    let t0 = Instant::now();
    for i in 0..n {
        f(i);
    }
    let ns = t0.elapsed().as_nanos() as f64;
    tracer.end(id);
    ns / n.max(1) as f64
}

/// Mean cost of one `Rng::gaussian` draw, in ns.
pub fn gaussian_ns(tracer: &mut Tracer, seed: u64) -> f64 {
    let mut rng = Rng::seed_from_u64(seed);
    batch(tracer, "prng.gaussian", 2_000_000, |_| {
        black_box(rng.gaussian());
    })
}

/// Mean cost of one `ReadoutChain::digitize`, in ns, over each entry's
/// chain at its mid-sweep current.
pub fn digitize_ns(tracer: &mut Tracer, entries: &[CatalogEntry], seed: u64) -> f64 {
    const PER_ENTRY: u64 = 20_000;
    let mut chains: Vec<_> = entries
        .iter()
        .map(|entry| {
            let mid = Molar::from_molar(entry.sweep().high().as_molar() / 2.0);
            let current = entry.build_sensor().faradaic_current(mid);
            (entry.build_readout(seed), current)
        })
        .collect();
    let n = PER_ENTRY * chains.len() as u64;
    batch(tracer, "instrument.digitize", n, |i| {
        let (chain, current) = &mut chains[(i / PER_ENTRY) as usize];
        black_box(chain.digitize(black_box(*current)));
    })
}

/// Mean cost of one `DriftMonitor::observe`, in ns, on standard normal
/// residuals with the stream engine's monitor settings.
pub fn drift_observe_ns(tracer: &mut Tracer, seed: u64, window: usize, threshold: f64) -> f64 {
    let mut rng = Rng::seed_from_u64(seed);
    let zs: Vec<f64> = (0..4096).map(|_| rng.gaussian()).collect();
    let mut monitor = DriftMonitor::new(window, threshold);
    batch(tracer, "analytics.drift_observe", 1_000_000, |i| {
        black_box(monitor.observe(zs[i as usize % zs.len()]));
    })
}

/// Mean cost of one `Physiology::concentration_at`, in ns, over every
/// patient-tick of the workload's cohort.
pub fn concentration_ns(tracer: &mut Tracer, seed: u64, patients: usize, ticks: u64) -> f64 {
    let cohort = PatientCohort::generate(seed, patients);
    let patients = cohort.patients();
    let n = patients.len() as u64 * ticks;
    batch(tracer, "stream.concentration", n, |i| {
        let p = &patients[(i % patients.len() as u64) as usize];
        black_box(p.physiology.concentration_at(i / patients.len() as u64));
    })
}

/// Median wall time of `PatientCohort::generate` for the workload's
/// cohort over five calls, in ms.
pub fn cohort_ms(tracer: &mut Tracer, seed: u64, patients: usize) -> f64 {
    let walls: Vec<f64> = (0..5)
        .map(|_| {
            batch(tracer, "stream.cohort", 1, |_| {
                black_box(PatientCohort::generate(seed, patients));
            }) / 1e6
        })
        .collect();
    median(&walls)
}
