//! Design-space exploration: the miniaturization / integration argument
//! of the paper's introduction, made quantitative.
//!
//! §1 claims that (a) integrating the readout next to the sensor improves
//! SNR and (b) shrinking the electrode enables dense arrays at the cost
//! of absolute signal. This example sweeps electrode area × readout
//! electronics and reports the detection limit of each design point.
//!
//! Run with: `cargo run --example design_space`

#![allow(
    clippy::print_stdout,
    clippy::expect_used,
    reason = "an example reports on stdout by design, and aborting with a clear message is its right failure mode"
)]

use biosim::analytics::report::TextTable;
use biosim::core::protocol::{CalibrationProtocol, Chronoamperometry};
use biosim::core::sensor::{Biosensor, Technique};
use biosim::enzyme::{EnzymeFilm, Oxidase, OxidaseKind};
use biosim::nanomaterial::{Electrode, ElectrodeMaterial, ElectrodeRole, SurfaceModification};
use biosim::prelude::*;
use biosim::units::SurfaceLoading;

fn sensor_with_area(area: SquareCm) -> Biosensor {
    let film = EnzymeFilm::builder()
        .loading(SurfaceLoading::from_pico_mol_per_square_cm(8.0))
        .retained_activity(1.0)
        .km_shift(1.4)
        .build();
    Biosensor::builder("design-point glucose sensor", Analyte::Glucose)
        .electrode(Electrode::new(
            ElectrodeMaterial::Gold,
            area,
            ElectrodeRole::Working,
        ))
        .modification(SurfaceModification::mwcnt_nafion())
        .oxidase(Oxidase::stock(OxidaseKind::GlucoseOxidase), film)
        .technique(Technique::paper_chronoamperometry())
        .build()
}

fn main() -> Result<(), CoreError> {
    println!("== Electrode area × readout electronics design sweep ==\n");
    let areas_mm2 = [13.0, 2.0, 0.25, 0.05];
    type ChainFactory = fn(u64) -> ReadoutChain;
    let readouts: [(&str, ChainFactory); 3] = [
        ("benchtop", ReadoutChain::benchtop),
        ("integrated CMOS", ReadoutChain::integrated_cmos),
        ("low-cost reader", ReadoutChain::low_cost),
    ];

    let mut table = TextTable::new(vec![
        "area (mm²)",
        "readout",
        "sensitivity",
        "LOD (µM)",
        "max current",
    ]);
    let sweep = ConcentrationRange::from_milli_molar(0.0, 1.0).map_err(CoreError::from)?;

    let mut lod_by_readout: Vec<(String, f64)> = Vec::new();
    for &mm2 in &areas_mm2 {
        let sensor = sensor_with_area(SquareCm::from_square_mm(mm2));
        for (name, make) in &readouts {
            let mut chain = make(17).auto_ranged_for(sensor.faradaic_current(sweep.high()) * 1.3);
            let curve =
                Chronoamperometry::default().calibrate_over(&sensor, &mut chain, &sweep, 15);
            let summary = curve.summary(&Default::default())?;
            table.add_row(vec![
                format!("{mm2}"),
                (*name).to_owned(),
                format!("{}", summary.sensitivity),
                format!("{:.2}", summary.detection_limit.as_micro_molar()),
                format!("{}", sensor.faradaic_current(sweep.high())),
            ]);
            if (mm2 - 0.25).abs() < 1e-9 {
                lod_by_readout.push(((*name).to_owned(), summary.detection_limit.as_micro_molar()));
            }
        }
    }
    println!("{}", table.render());

    // The §1 claim, checked on the paper's 0.25 mm² electrode size:
    // integrated CMOS beats the low-cost reader on detection limit.
    let lod = |name: &str| {
        lod_by_readout
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, l)| *l)
            .expect("design point present")
    };
    let cmos = lod("integrated CMOS");
    let cheap = lod("low-cost reader");
    println!("at 0.25 mm²: integrated CMOS LOD {cmos:.2} µM vs low-cost {cheap:.2} µM");
    assert!(
        cmos < cheap,
        "integration should improve the detection limit"
    );
    println!(
        "\nSmaller electrodes trade absolute current for array density;\n\
         quieter, co-integrated electronics buy the detection limit back —\n\
         the platform argument of §1/§2.5 in numbers."
    );
    Ok(())
}
