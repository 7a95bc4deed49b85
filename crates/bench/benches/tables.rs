//! Wall-clock benchmark of full table regeneration — the cost of
//! reproducing the paper's entire evaluation, sequentially and through
//! the fleet runtime.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "a benchmark aborts on setup failure like a test does"
)]

use std::hint::black_box;

use bios_bench::timing::BenchGroup;
use bios_bench::{run_table2, BlockReport};
use bios_core::catalog;
use bios_runtime::{Fleet, Runtime, RuntimeConfig};

fn bench_tables() {
    let group = BenchGroup::new("tables");
    group.bench("table2_glucose_block", || {
        black_box(BlockReport::run("GLUCOSE", catalog::glucose_sensors(), 42).expect("block runs"))
    });
    group.bench("table2_all_blocks", || {
        black_box(run_table2(42).expect("table runs"))
    });
    group.bench("table1_render", || black_box(bios_bench::render_table1()));
}

fn bench_fleet() {
    let group = BenchGroup::new("fleet");
    let fleet = Fleet::builder("bench")
        .sensors(catalog::all_table2())
        .seeds(0..8)
        .build();
    group.bench("catalog_x8_seeds_sequential", || {
        let rt = Runtime::new(RuntimeConfig::default().with_workers(1).with_cache(false));
        black_box(rt.run_sequential(&fleet))
    });
    group.bench("catalog_x8_seeds_8_workers", || {
        let rt = Runtime::new(RuntimeConfig::default().with_workers(8).with_cache(false));
        black_box(rt.run(&fleet))
    });
}

fn main() {
    bench_tables();
    bench_fleet();
}
