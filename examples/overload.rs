//! Surviving overload: a hospital-ward monitoring fleet hit by a
//! traffic burst, run through the gateway's admission-control /
//! circuit-breaker / brownout front door instead of straight into the
//! runtime.
//!
//! The scenario: two wards stream calibration requests for their
//! bedside panels. Ward A's lactate channels have a poisoned batch of
//! strips (every run fails), and a shift change compresses arrivals
//! into bursts. Without the gateway the runtime would grind through
//! everything late; with it, the lactate family is cut off after a few
//! failures, burst overflow is rejected explicitly, and queue pressure
//! downgrades sweep resolution instead of dropping patients' readings.
//!
//! Run with: `cargo run --example overload`

#![allow(
    clippy::print_stdout,
    reason = "an example reports on stdout by design"
)]

use biosim::core::catalog;
use biosim::gateway::{
    BreakerConfig, Disposition, Gateway, GatewayConfig, Quality, Rejected, TokenBucket,
};
use biosim::prelude::*;

fn main() {
    let runtime = Runtime::new(RuntimeConfig::from_env());
    let gateway = Gateway::new(
        GatewayConfig {
            queue_capacity: 8,
            service_slots: 2,
            bucket_capacity_milli: 5 * TokenBucket::WHOLE_TOKEN,
            bucket_refill_milli_per_tick: TokenBucket::WHOLE_TOKEN,
            breaker: BreakerConfig {
                trip_after: 2,
                cooldown_ticks: 8,
                probe_quota: 1,
            },
            ..GatewayConfig::default()
        },
        runtime,
    );

    // A bursty shift-change trace: the TrafficBurst fault spec
    // compresses the arrival schedule exactly as it would a real one —
    // deterministically, from the plan seed.
    let plan = FaultPlan::builder("shift-change", 0xED)
        .spec(FaultKind::TrafficBurst, 0.2, 0.9)
        .build();
    let poisoned_lactate = catalog::our_lactate_sensor().with_sweep_points(2);
    let pairs: Vec<(catalog::CatalogEntry, u64)> = (0..36)
        .map(|i| {
            if i % 5 == 2 {
                (poisoned_lactate.clone(), i)
            } else {
                (catalog::our_glucose_sensor(), i)
            }
        })
        .collect();
    let mut trace = gateway.trace_from_plan(&plan, &pairs, "ward-a", 3);
    for req in trace.iter_mut().skip(1).step_by(2) {
        req.tenant = "ward-b".to_string();
    }

    let report = gateway.run(&trace);

    println!(
        "shift change: {} requests, drained at tick {}\n",
        trace.len(),
        report.drained_tick
    );
    for outcome in &report.outcomes {
        match &outcome.disposition {
            Disposition::Executed {
                quality,
                done_tick,
                result,
                ..
            } => {
                let verdict = match (&result.outcome, quality) {
                    (Err(_), _) => "FAILED (fed to the family breaker)",
                    (Ok(_), Quality::Degraded) => "BROWNED OUT (coarser sweep)",
                    (Ok(_), Quality::Full) => "ok",
                };
                println!(
                    "  #{:02} {} {:<16} {verdict} at t{}",
                    outcome.id, outcome.tenant, outcome.sensor, done_tick
                );
            }
            Disposition::Rejected(Rejected::BreakerOpen) => println!(
                "  #{:02} {} {:<16} breaker open — family cut off",
                outcome.id, outcome.tenant, outcome.sensor
            ),
            Disposition::Rejected(reason) => println!(
                "  #{:02} {} {:<16} rejected: {reason}",
                outcome.id, outcome.tenant, outcome.sensor
            ),
        }
    }
    println!("\ncounters: {}", report.counters);
    println!(
        "every request accounted for: {}",
        if report.clean_drain() { "yes" } else { "NO" }
    );
}
