//! Sensor stability over time and the disposable-vs-integrated economics
//! of §2.5.
//!
//! Enzyme films denature; a deployed sensor's sensitivity drifts down
//! until recalibration (or biolayer replacement) is needed. This example
//! tracks a glucose channel over six weeks and compares the running cost
//! of the 3-D integrated stack (replaceable biolayer) against fully
//! disposable strips.
//!
//! Run with: `cargo run --example sensor_lifetime`

#![allow(
    clippy::print_stdout,
    reason = "an example reports on stdout by design"
)]

use biosim::core::platform::stack::IntegratedStack;
use biosim::core::protocol::{CalibrationProtocol, Chronoamperometry};
use biosim::core::sensor::{Biosensor, Technique};
use biosim::enzyme::{EnzymeFilm, Oxidase, OxidaseKind};
use biosim::nanomaterial::{ElectrodeStock, SurfaceModification};
use biosim::prelude::*;
use biosim::units::SurfaceLoading;

fn fresh_film() -> EnzymeFilm {
    EnzymeFilm::builder()
        .loading(SurfaceLoading::from_pico_mol_per_square_cm(8.0))
        .retained_activity(1.0)
        .km_shift(1.4)
        .build()
}

fn sensor_with_film(film: EnzymeFilm) -> Biosensor {
    Biosensor::builder("ageing glucose channel", Analyte::Glucose)
        .electrode(ElectrodeStock::EpflMicroChip.working_electrode())
        .modification(SurfaceModification::mwcnt_nafion())
        .oxidase(Oxidase::stock(OxidaseKind::GlucoseOxidase), film)
        .technique(Technique::paper_chronoamperometry())
        .build()
}

fn main() -> Result<(), CoreError> {
    println!("== Six weeks of sensitivity drift (2 %/day activity loss) ==\n");
    println!(
        "{:>5}  {:>24}  {:>10}",
        "day", "measured sensitivity", "vs day 0"
    );

    let sweep = ConcentrationRange::from_milli_molar(0.0, 1.0)?;
    let mut day0 = None;
    for day in (0u64..=42).step_by(7) {
        let film = fresh_film().aged(day as f64, EnzymeFilm::TYPICAL_DECAY_PER_DAY);
        let sensor = sensor_with_film(film);
        let mut chain = ReadoutChain::integrated_cmos(100 + day)
            .auto_ranged_for(sensor.faradaic_current(sweep.high()) * 1.5);
        let curve = Chronoamperometry::default().calibrate_over(&sensor, &mut chain, &sweep, 12);
        let s = curve.summary(&Default::default()).map(|s| s.sensitivity);
        let s = match s {
            Ok(s) => s,
            Err(e) => {
                println!("{day:>5}  calibration failed ({e}) — film exhausted");
                continue;
            }
        };
        let base = *day0.get_or_insert(s.as_micro_amps_per_milli_molar_square_cm());
        println!(
            "{day:>5}  {:>24}  {:>9.1}%",
            s.to_string(),
            s.as_micro_amps_per_milli_molar_square_cm() / base * 100.0
        );
    }

    let half_life = fresh_film().lifetime_to_fraction(0.5, EnzymeFilm::TYPICAL_DECAY_PER_DAY);
    println!("\nfilm half-life at 2 %/day: {half_life:.1} days");
    println!("→ weekly recalibration keeps readings honest; biolayer swap due ~monthly.\n");

    println!("== Biolayer economics (Guiducci 3-D stack [17] vs disposables) ==\n");
    let stack = IntegratedStack::guiducci();
    println!(
        "{:>8}  {:>18}  {:>18}",
        "cycles", "integrated stack", "fully disposable"
    );
    for cycles in [1u64, 5, 20, 100, 500] {
        println!(
            "{cycles:>8}  {:>18.1}  {:>18.1}",
            stack.cost_over(cycles),
            stack.disposable_cost_over(cycles)
        );
    }
    println!(
        "\nbreak-even at {} measurement cycles — integration pays almost\n\
         immediately once the biolayer is the only consumable.",
        stack.break_even_cycles()
    );
    Ok(())
}
