//! Wall-clock benchmarks of the physics kernels: diffusion stepping,
//! voltammetry digital simulation, and enzyme-kinetics evaluation.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "a benchmark aborts on setup failure like a test does"
)]

use std::hint::black_box;

use bios_bench::timing::BenchGroup;
use bios_electrochem::diffusion::{DiffusionGrid, SurfaceBoundary};
use bios_electrochem::voltammetry::CvSimulator;
use bios_electrochem::{CyclicSweep, RedoxCouple};
use bios_enzyme::{MichaelisMenten, Oxidase, OxidaseKind};
use bios_units::{DiffusionCoefficient, Molar, RateConstant, ScanRate, Seconds, SquareCm, Volts};

fn bench_diffusion() {
    let group = BenchGroup::new("diffusion");
    for &nodes in &[101usize, 401] {
        let mut grid = DiffusionGrid::new(
            DiffusionCoefficient::from_square_cm_per_second(1e-5),
            Molar::from_milli_molar(1.0),
            100e-4,
            nodes,
        )
        .expect("valid grid");
        grid.set_surface(SurfaceBoundary::Concentration(0.0));
        let dt = grid.max_stable_dt() * 0.9;
        group.bench(&format!("explicit_step_{nodes}"), || {
            grid.step_explicit(black_box(dt)).expect("stable step");
            black_box(grid.flux_mol_per_cm2_s())
        });

        let mut grid = DiffusionGrid::new(
            DiffusionCoefficient::from_square_cm_per_second(1e-5),
            Molar::from_milli_molar(1.0),
            100e-4,
            nodes,
        )
        .expect("valid grid");
        grid.set_surface(SurfaceBoundary::Concentration(0.0));
        let dt = Seconds::from_millis(1.0);
        group.bench(&format!("crank_nicolson_step_{nodes}"), || {
            grid.step_crank_nicolson(black_box(dt));
            black_box(grid.flux_mol_per_cm2_s())
        });
    }
}

fn bench_voltammetry() {
    let group = BenchGroup::new("voltammetry");
    let sweep = CyclicSweep::new(
        Volts::from_milli_volts(-170.0),
        Volts::from_milli_volts(630.0),
        ScanRate::from_milli_volts_per_second(100.0),
        1,
    );
    group.bench("full_cv_simulation", || {
        let sim = CvSimulator::new(
            RedoxCouple::ferrocyanide_probe(),
            SquareCm::from_square_cm(0.1),
        )
        .with_reduced_bulk(Molar::from_milli_molar(1.0));
        black_box(sim.run(&sweep))
    });
}

fn bench_enzyme_kinetics() {
    let group = BenchGroup::new("enzyme");
    let mm = MichaelisMenten::new(
        RateConstant::from_per_second(700.0),
        Molar::from_milli_molar(25.0),
    );
    group.bench("michaelis_menten_rate", || {
        black_box(mm.turnover_rate(black_box(Molar::from_milli_molar(5.0))))
    });
    let god = Oxidase::stock(OxidaseKind::GlucoseOxidase);
    group.bench("oxidase_peroxide_rate", || {
        black_box(god.peroxide_generation_rate(black_box(Molar::from_milli_molar(5.0))))
    });
}

fn main() {
    bench_diffusion();
    bench_voltammetry();
    bench_enzyme_kinetics();
}
