//! Cross-crate integration: the multi-channel platform measuring
//! realistic samples end to end.

use biosim::core::catalog;
use biosim::core::platform::SensingPlatform;
use biosim::prelude::*;

#[allow(
    clippy::unwrap_used,
    reason = "test setup helper: aborting on a bad mount is the right failure mode, but clippy only auto-exempts `#[test]` functions themselves"
)]
fn loaded_chip(seed: u64) -> SensingPlatform {
    let mut chip = SensingPlatform::epfl_chip(seed);
    chip.mount(0, catalog::our_glucose_sensor().build_sensor())
        .unwrap();
    chip.mount(1, catalog::our_lactate_sensor().build_sensor())
        .unwrap();
    chip.mount(2, catalog::our_glutamate_sensor().build_sensor())
        .unwrap();
    chip
}

#[test]
fn channels_are_selective() {
    let mut chip = loaded_chip(1);
    // Glucose-only, lactate-only, glutamate-only samples: each lights up
    // exactly its own channel.
    let cases = [
        (Analyte::Glucose, 0usize),
        (Analyte::Lactate, 1),
        (Analyte::Glutamate, 2),
    ];
    for (analyte, own_channel) in cases {
        let sample = Sample::blank().with_analyte(analyte, Molar::from_milli_molar(0.8));
        for probe in 0..3 {
            let r = chip.measure(probe, &sample).unwrap();
            if probe == own_channel {
                assert!(
                    r.current.as_nano_amps() > 1.0,
                    "{analyte}: own channel silent"
                );
            } else {
                assert!(
                    r.current.as_nano_amps().abs() < 1.0,
                    "{analyte}: cross-talk on channel {probe}: {}",
                    r.current
                );
            }
        }
    }
}

#[test]
fn quantification_round_trip_through_calibration() {
    // Calibrate the glucose channel, then recover an unknown
    // concentration from its measured current within 10 %.
    let entry = catalog::our_glucose_sensor();
    let outcome = entry.run_calibration(21).unwrap();
    let slope_micro_amps_per_milli_molar = outcome
        .summary
        .sensitivity
        .as_micro_amps_per_milli_molar_square_cm()
        * entry.build_sensor().electrode().area().as_square_cm();

    let unknown = Molar::from_micro_molar(400.0);
    let sensor = entry.build_sensor();
    let mut chain = entry.build_readout(77);
    let current = chain.digitize(sensor.faradaic_current(unknown));
    let estimate =
        Molar::from_milli_molar(current.as_micro_amps() / slope_micro_amps_per_milli_molar);
    let rel = (estimate.as_micro_molar() - 400.0).abs() / 400.0;
    assert!(rel < 0.10, "recovered {} ({rel:+.2})", estimate);
}

#[test]
fn dilution_brings_serum_into_linear_range() {
    // Raw serum glucose (5 mM) saturates the 0–1 mM sensor; a 1:10
    // dilution restores proportionality.
    let sensor = catalog::our_glucose_sensor().build_sensor();
    let serum = Sample::physiological_serum();
    let i_raw = sensor.faradaic_current(serum.concentration(Analyte::Glucose));
    let i_diluted = sensor.faradaic_current(serum.diluted(10.0).concentration(Analyte::Glucose));
    // Raw: far beyond linearity, so 10× dilution loses much less than
    // 10× signal.
    assert!(i_raw.as_amps() / i_diluted.as_amps() < 9.0);
    // Diluted reading sits inside the detected linear range.
    let outcome = catalog::our_glucose_sensor().run_calibration(3).unwrap();
    assert!(outcome
        .summary
        .linear_range
        .contains(serum.diluted(10.0).concentration(Analyte::Glucose)));
}

#[test]
fn ascorbate_interference_is_rejected_by_nafion() {
    let sensor = catalog::our_glucose_sensor().build_sensor();
    let clean = Sample::blank().with_analyte(Analyte::Glucose, Molar::from_micro_molar(500.0));
    let spiked = clean
        .clone()
        .with_analyte(Analyte::AscorbicAcid, Molar::from_micro_molar(100.0));
    let i_clean = sensor.respond_to_sample(&clean);
    let i_spiked = sensor.respond_to_sample(&spiked);
    let bias = (i_spiked.as_amps() - i_clean.as_amps()) / i_clean.as_amps();
    assert!(
        bias < 0.05,
        "ascorbate bias {bias:+.3} should be under 5% behind Nafion"
    );
}

#[test]
fn chip_reuses_channels_after_dismount() {
    let mut chip = loaded_chip(9);
    let removed = chip.dismount(0).unwrap().unwrap();
    assert_eq!(removed.analyte(), Analyte::Glucose);
    // Remount a different chemistry on the same channel — modularity.
    chip.mount(0, catalog::cyp_sensors()[1].build_sensor())
        .unwrap();
    assert_eq!(
        chip.sensor_at(0).unwrap().analyte(),
        Analyte::Cyclophosphamide
    );
    let sample =
        Sample::blank().with_analyte(Analyte::Cyclophosphamide, Molar::from_micro_molar(30.0));
    let r = chip.measure(0, &sample).unwrap();
    assert!(r.current.as_nano_amps() > 10.0);
}

#[test]
fn five_channel_panel_runs_full_table1_chemistries() {
    // Mount 5 of the 7 Table 1 chemistries at once (chip capacity), the
    // multi-target scenario.
    let mut chip = SensingPlatform::epfl_chip(33);
    let entries = catalog::table1();
    for (ch, entry) in entries.iter().take(5).enumerate() {
        chip.mount(ch, entry.build_sensor()).unwrap();
    }
    let sample = Sample::cell_culture_medium()
        .with_analyte(Analyte::ArachidonicAcid, Molar::from_micro_molar(20.0));
    let readings = chip.measure_all(&sample);
    assert_eq!(readings.len(), 5);
    // Channels whose analyte is present respond; absent analytes stay
    // at noise level.
    for r in &readings {
        let present = sample.concentration(r.analyte).as_molar() > 0.0;
        if present {
            // The glutamate channel is the least sensitive (0.9
            // µA·mM⁻¹·cm⁻² × 0.0025 cm² × 0.2 mM ≈ 0.45 nA).
            assert!(r.current.as_nano_amps() > 0.3, "{:?}", r);
        }
    }
}
