//! Multi-metabolite cell-culture monitoring — the use case of the
//! authors' earlier work ([4], [5]) that the 5-electrode platform was
//! built for: tracking glucose consumption and lactate/glutamate
//! production of a neural culture over 48 hours.
//!
//! Run with: `cargo run --example cell_culture_monitor`

#![allow(
    clippy::print_stdout,
    reason = "an example reports on stdout by design"
)]

use biosim::core::catalog;
use biosim::core::platform::SensingPlatform;
use biosim::prelude::*;

/// A toy metabolic model of the culture: glucose is consumed with
/// first-order kinetics, ~90 % of it reappearing as lactate; glutamate
/// accumulates slowly from medium turnover.
fn culture_state(hours: f64) -> Sample {
    let glucose0 = 10.0; // mM
    let consumed = glucose0 * (1.0 - (-hours / 30.0).exp());
    Sample::blank()
        .with_analyte(
            Analyte::Glucose,
            Molar::from_milli_molar(glucose0 - consumed),
        )
        .with_analyte(
            Analyte::Lactate,
            Molar::from_milli_molar(0.9 * consumed * 2.0 / 10.0),
        )
        .with_analyte(
            Analyte::Glutamate,
            Molar::from_micro_molar(20.0 + 6.0 * hours),
        )
}

fn main() -> Result<(), CoreError> {
    // Mount the three metabolite channels of the paper's chip. The
    // remaining two channels stay free (the platform is modular).
    let mut chip = SensingPlatform::epfl_chip(2024);
    chip.mount(0, catalog::our_glucose_sensor().build_sensor())?;
    chip.mount(1, catalog::our_lactate_sensor().build_sensor())?;
    chip.mount(2, catalog::our_glutamate_sensor().build_sensor())?;

    println!("== 48 h neural-culture monitoring on the 5-WE chip ==\n");
    println!(
        "{:>5}  {:>12}  {:>12}  {:>12}",
        "hour", "glucose", "lactate", "glutamate"
    );

    for hour in (0..=48).step_by(6) {
        // The medium is diluted 1:10 before measurement so glucose and
        // lactate stay inside the sensors' 0–1 mM linear ranges.
        let sample = culture_state(f64::from(hour)).diluted(10.0);
        let readings = chip.measure_all(&sample);
        let mut row = format!("{hour:>5}");
        for r in &readings {
            row.push_str(&format!("  {:>12}", r.current.to_string()));
        }
        println!("{row}");
    }

    println!(
        "\nThe glucose channel's current falls as the culture consumes\n\
         glucose while the lactate channel's rises — the crossing is the\n\
         metabolic-shift signature the authors monitor in [5]."
    );

    // Verify the trend numerically: glucose current must fall, lactate
    // must rise over the run.
    let first = culture_state(0.0).diluted(10.0);
    let last = culture_state(48.0).diluted(10.0);
    let g0 = chip.measure(0, &first)?.current;
    let g1 = chip.measure(0, &last)?.current;
    let l0 = chip.measure(1, &first)?.current;
    let l1 = chip.measure(1, &last)?.current;
    assert!(g1 < g0, "glucose signal should fall");
    assert!(l1 > l0, "lactate signal should rise");
    println!("trend check: glucose {g0} -> {g1}, lactate {l0} -> {l1}");
    Ok(())
}
