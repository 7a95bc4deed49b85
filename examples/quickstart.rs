//! Quickstart: build the paper's glucose biosensor, calibrate it, and
//! print its figures of merit next to the published Table 2 row.
//!
//! Run with: `cargo run --example quickstart`

#![allow(
    clippy::print_stdout,
    reason = "an example reports on stdout by design"
)]

use biosim::prelude::*;

fn main() -> Result<(), CoreError> {
    // 1. Pick the paper's own glucose sensor from the catalog:
    //    MWCNT/Nafion film + glucose oxidase on a 0.25 mm² Au
    //    microelectrode, chronoamperometric readout at +650 mV.
    let entry = catalog::our_glucose_sensor();
    println!("sensor:  {}", entry.label());
    println!("analyte: {}", entry.analyte());

    // 2. Inspect the composed device.
    let sensor = entry.build_sensor();
    println!(
        "electrode: {} ({})",
        sensor.electrode().material(),
        sensor.electrode().area()
    );
    println!("film: {}", sensor.modification());
    println!(
        "model sensitivity: {} (paper: {})",
        sensor.model_sensitivity(),
        entry.paper().sensitivity
    );

    // 3. Run a full simulated calibration: standard additions, settling,
    //    replicate sampling through the noisy readout chain, regression,
    //    linear-range detection, and the 3σ detection limit.
    let outcome = entry.run_calibration(42)?;
    let s = outcome.summary;
    println!(
        "\nsimulated calibration ({} standards):",
        entry.sweep_points()
    );
    println!("  sensitivity:  {}", s.sensitivity);
    println!("  linear range: {}", s.linear_range);
    println!("  LOD:          {}", s.detection_limit);
    println!("  R²:           {:.5}", s.r_squared);

    // 4. Predict the current for a physiological sample.
    let serum = Sample::physiological_serum();
    let current = sensor.respond_to_sample(&serum);
    println!(
        "\n5 mM serum glucose on this channel reads {current} \
         (≈ saturated: the sensor is tuned for 0–1 mM cell-culture work)"
    );
    Ok(())
}
