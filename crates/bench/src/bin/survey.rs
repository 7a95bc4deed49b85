//! Prints the §2 classification-survey statistics from the literature
//! registry.
//!
//! Usage: `cargo run -p bios-bench --bin survey`

#![allow(
    clippy::print_stdout,
    reason = "a CLI binary reports on stdout by design"
)]

fn main() {
    print!("{}", bios_bench::render_survey());
}
