//! Renders the "hysteresis plot" of a CYP450 drug sensor — the cyclic
//! voltammogram the paper reads drug concentrations from (§3.1) — as an
//! ASCII chart, at three cyclophosphamide levels.
//!
//! Run with: `cargo run --example hysteresis`

#![allow(
    clippy::print_stdout,
    clippy::expect_used,
    reason = "an example reports on stdout by design, and aborting with a clear message is its right failure mode"
)]

use biosim::core::catalog;
use biosim::electrochem::voltammetry::Voltammogram;
use biosim::prelude::*;

/// Plots current vs potential as a coarse ASCII raster.
fn ascii_plot(vg: &Voltammogram, width: usize, height: usize) -> String {
    let pts = vg.points();
    let (mut e_lo, mut e_hi) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut i_lo, mut i_hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for p in pts {
        e_lo = e_lo.min(p.potential.as_volts());
        e_hi = e_hi.max(p.potential.as_volts());
        i_lo = i_lo.min(p.current.as_amps());
        i_hi = i_hi.max(p.current.as_amps());
    }
    let mut grid = vec![vec![b' '; width]; height];
    for p in pts {
        let x = ((p.potential.as_volts() - e_lo) / (e_hi - e_lo) * (width - 1) as f64) as usize;
        let y = ((p.current.as_amps() - i_lo) / (i_hi - i_lo) * (height - 1) as f64) as usize;
        grid[height - 1 - y][x] = b'*';
    }
    let mut out = String::new();
    for row in grid {
        out.push_str(std::str::from_utf8(&row).expect("ascii"));
        out.push('\n');
    }
    out.push_str(&format!(
        "E: {:.0}..{:.0} mV   i: {:.2}..{:.2} µA\n",
        e_lo * 1e3,
        e_hi * 1e3,
        i_lo * 1e6,
        i_hi * 1e6
    ));
    out
}

fn main() {
    let entry = catalog::cyp_sensors()
        .into_iter()
        .find(|e| e.analyte() == Analyte::Cyclophosphamide)
        .expect("CP sensor in catalog");
    let sensor = entry.build_sensor();

    for micro_molar in [0.0, 30.0, 60.0] {
        let vg = sensor
            .synthesize_voltammogram(Molar::from_micro_molar(micro_molar))
            .expect("CYP sensor synthesizes CVs");
        println!("== cyclophosphamide {micro_molar} µM ==");
        println!("{}", ascii_plot(&vg, 72, 16));
        let cathodic = vg.cathodic_peak().expect("peak exists");
        println!(
            "cathodic peak: {} at {}   loop area: {:.3e} V·A\n",
            cathodic.current,
            cathodic.potential,
            vg.hysteresis_area()
        );
    }
    println!(
        "The cathodic (catalytic) peak deepens with drug level — the\n\
         peak-height-vs-concentration readout of the paper's Table 2 CYP rows."
    );
}
