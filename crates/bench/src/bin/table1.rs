//! Regenerates Table 1 of the paper: the features (target, probe,
//! technique) of the seven developed biosensors.
//!
//! Usage: `cargo run -p bios-bench --bin table1`

#![allow(
    clippy::print_stdout,
    reason = "a CLI binary reports on stdout by design"
)]

fn main() {
    print!("{}", bios_bench::render_table1());
}
