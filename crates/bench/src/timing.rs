//! A minimal wall-clock micro-benchmark harness.
//!
//! The build environment is offline, so the Criterion benches were
//! replaced by this std-only timer: each benchmark warms up, then runs
//! enough iterations to accumulate a stable measurement window, and
//! reports mean / best iteration time. Invoke via
//! `cargo bench -p bios-bench` exactly as before — the `[[bench]]`
//! targets keep `harness = false` and drive this module from `main`.

#![allow(
    clippy::print_stdout,
    reason = "reporting measurements on stdout is this harness's entire job"
)]

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Minimum measurement window per benchmark.
const TARGET_WINDOW: Duration = Duration::from_millis(300);

/// Warm-up window before measurement starts.
const WARMUP_WINDOW: Duration = Duration::from_millis(100);

/// A named group of benchmarks, mirroring Criterion's group output
/// shape so the bench logs stay familiar.
pub struct BenchGroup {
    name: String,
}

impl BenchGroup {
    /// Starts a group and prints its header.
    #[must_use]
    pub fn new(name: &str) -> BenchGroup {
        println!("group: {name}");
        BenchGroup { name: name.into() }
    }

    /// Times `f`, printing mean and best per-iteration wall time.
    pub fn bench<T>(&self, name: &str, mut f: impl FnMut() -> T) {
        // Warm up until the window elapses (at least one call).
        let warm_start = Instant::now();
        while warm_start.elapsed() < WARMUP_WINDOW {
            black_box(f());
        }

        // Measure in batches until the target window is filled.
        let mut iters: u64 = 0;
        let mut total = Duration::ZERO;
        let mut best = Duration::MAX;
        while total < TARGET_WINDOW {
            let t0 = Instant::now();
            black_box(f());
            let dt = t0.elapsed();
            total += dt;
            best = best.min(dt);
            iters += 1;
        }

        let mean = total / u32::try_from(iters).unwrap_or(u32::MAX);
        println!(
            "  {group}/{name}: mean {mean:?}, best {best:?} ({iters} iters)",
            group = self.name
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_counts() {
        let g = BenchGroup::new("smoke");
        let mut calls = 0u64;
        g.bench("noop", || {
            calls += 1;
            calls
        });
        assert!(calls > 0);
    }
}
