//! Runs the ablation studies: surface modification, readout
//! electronics, digital post-filtering, linearity tolerance, and the
//! fleet-runtime seed-stability sweep.
//!
//! Usage: `cargo run -p bios-bench --bin ablation [-- --seed N]`

#![allow(
    clippy::print_stdout,
    reason = "a CLI binary reports on stdout by design"
)]

fn main() {
    bios_bench::silence_injected_panics();
    let seed = std::env::args()
        .skip_while(|a| a != "--seed")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42u64);
    println!("{}", bios_bench::ablation::render_modification_ablation());
    match bios_bench::ablation::render_readout_ablation(seed) {
        Ok(report) => println!("{report}"),
        Err(e) => {
            eprintln!("readout ablation failed: {e}");
            std::process::exit(1);
        }
    }
    println!("{}", bios_bench::ablation::render_filter_ablation(seed));
    println!("{}", bios_bench::ablation::render_tolerance_ablation(seed));
    println!("{}", bios_bench::ablation::render_seed_ablation(seed, 32));
    println!("{}", bios_bench::ablation::render_chaos_ablation(seed));
    println!("{}", bios_bench::ablation::render_stall_ablation(seed));
    println!("{}", bios_bench::ablation::render_overload_ablation(seed));
    println!("{}", bios_bench::ablation::render_stream_ablation(seed));
    println!("{}", bios_bench::ablation::render_shard_ablation(seed));
    println!("{}", bios_bench::ablation::render_quorum_ablation(seed));
}
