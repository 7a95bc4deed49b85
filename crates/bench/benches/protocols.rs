//! Wall-clock benchmarks of the calibration protocols and platform
//! multiplexing.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "a benchmark aborts on setup failure like a test does"
)]

use std::hint::black_box;

use bios_bench::timing::BenchGroup;
use bios_core::catalog;
use bios_core::platform::SensingPlatform;
use bios_core::protocol::{CalibrationProtocol, Chronoamperometry};
use bios_core::Sample;

fn bench_calibration() {
    let group = BenchGroup::new("calibration");
    let entry = catalog::our_glucose_sensor();
    let sensor = entry.build_sensor();
    let standards = entry.sweep().linspace(entry.sweep_points());
    group.bench("chronoamperometric_sweep_25pts", || {
        let mut chain = entry.build_readout(7);
        black_box(Chronoamperometry::default().calibrate(&sensor, &mut chain, &standards))
    });
    group.bench("full_entry_run_with_analysis", || {
        black_box(entry.run_calibration(7).expect("calibration runs"))
    });
}

fn bench_platform() {
    let group = BenchGroup::new("platform");
    let mut platform = SensingPlatform::epfl_chip(3);
    platform
        .mount(0, catalog::our_glucose_sensor().build_sensor())
        .expect("mount");
    platform
        .mount(1, catalog::our_lactate_sensor().build_sensor())
        .expect("mount");
    platform
        .mount(2, catalog::our_glutamate_sensor().build_sensor())
        .expect("mount");
    let sample = Sample::cell_culture_medium();
    group.bench("measure_all_3_channels", || {
        black_box(platform.measure_all(black_box(&sample)))
    });
}

fn main() {
    bench_calibration();
    bench_platform();
}
