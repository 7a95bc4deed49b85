//! Regenerates Table 2 of the paper: sensitivity, linear range, and
//! detection limit for all 18 sensor configurations, comparing the
//! simulated figures of merit against the published ones.
//!
//! Calibrations fan out across the fleet runtime's worker pool; pass
//! `--sequential` for the single-threaded parity path.
//!
//! Usage:
//!   cargo run -p bios-bench --bin table2                 # all blocks
//!   cargo run -p bios-bench --bin table2 -- glucose      # one block
//!   cargo run -p bios-bench --bin table2 -- --seed 7     # change the seed
//!   cargo run -p bios-bench --bin table2 -- --workers 8  # pool size
//!   cargo run -p bios-bench --bin table2 -- --sequential # parity path

#![allow(
    clippy::print_stdout,
    reason = "a CLI binary reports on stdout by design"
)]

use bios_bench::{table2_blocks, BlockReport};
use bios_core::catalog;
use bios_runtime::{Runtime, RuntimeConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 42u64;
    let mut block: Option<String> = None;
    let mut config = RuntimeConfig::from_env();
    let mut sequential = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--seed" => {
                seed = bios_bench::parse_flag_or_exit(iter.next().cloned(), "--seed", "an integer");
            }
            "--workers" => {
                config = config.with_workers(bios_bench::parse_flag_or_exit(
                    iter.next().cloned(),
                    "--workers",
                    "a positive integer",
                ));
            }
            "--sequential" => sequential = true,
            name => block = Some(name.to_lowercase()),
        }
    }

    let blocks: Vec<(&str, Vec<catalog::CatalogEntry>)> = match block.as_deref() {
        Some("glucose") => vec![("GLUCOSE", catalog::glucose_sensors())],
        Some("lactate") => vec![("LACTATE", catalog::lactate_sensors())],
        Some("glutamate") => vec![("GLUTAMATE", catalog::glutamate_sensors())],
        Some("cyp") => vec![("CYP450 DRUG SENSORS", catalog::cyp_sensors())],
        Some(other) => {
            eprintln!("unknown block '{other}'; use glucose|lactate|glutamate|cyp");
            std::process::exit(2);
        }
        None => table2_blocks(),
    };

    let runtime = Runtime::new(config);
    println!("Table 2: Comparison of electrochemical enzyme-based biosensors");
    println!(
        "(simulated calibration, seed {seed}, {} path)\n",
        if sequential {
            "sequential".to_owned()
        } else {
            format!("{} workers", runtime.workers())
        }
    );
    let mut all_ok = true;
    for (title, entries) in blocks {
        let report = if sequential {
            BlockReport::run(title, entries, seed).map_err(|e| e.to_string())
        } else {
            BlockReport::run_on(&runtime, title, entries, seed).map_err(|e| e.to_string())
        };
        match report {
            Ok(report) => {
                println!("{}", report.render());
                all_ok &= report.ordering_preserved();
            }
            Err(e) => {
                eprintln!("{title}: calibration failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if !all_ok {
        eprintln!("WARNING: at least one block's sensitivity ordering diverged from the paper");
        std::process::exit(1);
    }
}
