//! `tenant-shards`: an 8-ward multi-tenant trace through the sharded
//! gateway at `nproc` shards × 1 worker. One ward is a rate hotspot,
//! one carries a low-intensity chaos plan with silent corruption, the
//! quorum screen samples completions at its default rate, and the
//! gateway is tight enough that admission rejects, brownout, deadline
//! shedding and work stealing all engage. The sharded gateway is
//! reused across passes, so after the set-up pass the calibrations are
//! cache hits and the time goes to the serving layers.

use std::hint::black_box;
use std::time::Instant;

use bios_faults::{FaultKind, FaultPlan};
use bios_gateway::{Disposition, GatewayConfig, GatewayCounters, Request, TokenBucket};
use bios_prng::SplitMix64;
use bios_quorum::{QuorumConfig, QuorumScreen};
use bios_shard::{
    home_shard, tenant_trace, ShardChaos, ShardConfig, ShardedGateway, ShardedReport,
    SupervisorConfig,
};

use crate::probe::batch;
use crate::stats::median;
use crate::trace::{Profile, Rec, Tracer};
use crate::{more_passes, Ctx};

const WARDS: usize = 8;
const PER_WARD: usize = 400;
const BASE_INTERVAL: u64 = 2;
const DEADLINE_TICKS: u64 = 48;
/// The hotspot plan's seed is fixed, so every workload seed sees the
/// same hot wards and the same trace shape; the seed varies the job
/// seeds and the chaos plan.
const HOTSPOT_SEED: u64 = 0x0040_75E7;
const CHAOS_WARD: &str = "ward-03";
/// Set-ups repeated over the timed budget; `setup_s` is the median of
/// these and the first.
const SETUP_REPS: usize = 10;

fn trace(seed: u64) -> Vec<Request> {
    let hotspot = FaultPlan::builder("tenant-hotspot", HOTSPOT_SEED)
        .spec(FaultKind::TenantHotspot, 0.3, 1.0)
        .build();
    let mut trace = tenant_trace(
        WARDS,
        PER_WARD,
        BASE_INTERVAL,
        DEADLINE_TICKS,
        Some(&hotspot),
    );
    for r in &mut trace {
        r.seed = SplitMix64::new(seed).derive(r.seed);
    }
    trace
}

/// Faults that degrade or retry but never fail a job, plus silent
/// corruption for the quorum screen to catch.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::builder("ward chaos", SplitMix64::new(seed).derive(0xC4A0))
        .spec(FaultKind::TransientGlitch, 0.1, 0.2)
        .spec(FaultKind::ReadoutSpike, 0.1, 0.2)
        .spec(FaultKind::FilmDenaturation, 0.1, 0.2)
        .spec(FaultKind::SilentCorruption, 0.45, 0.8)
        .build()
}

fn chaos(seed: u64) -> ShardChaos {
    ShardChaos::none()
        .with_quorum(QuorumConfig::default())
        .with_tenant_plan(CHAOS_WARD, chaos_plan(seed))
}

fn config(nproc: usize) -> ShardConfig {
    ShardConfig {
        gateway: GatewayConfig {
            service_slots: 2,
            bucket_capacity_milli: 4 * TokenBucket::WHOLE_TOKEN,
            bucket_refill_milli_per_tick: 3 * TokenBucket::WHOLE_TOKEN / 4,
            ..GatewayConfig::default()
        },
        // The screen keeps voting and counting, but a lost vote never
        // quarantines a shard: at two shards one quarantine would
        // collapse the layout and switch stealing off.
        supervisor: SupervisorConfig {
            corruption_strikes: u32::MAX,
            ..SupervisorConfig::default()
        },
        ..ShardConfig::default()
    }
    .with_shards(nproc)
    .with_workers_per_shard(1)
}

struct Setup {
    sharded: ShardedGateway,
    trace: Vec<Request>,
    chaos: ShardChaos,
    reference: u64,
}

/// One set-up: the sharded gateway, its inputs, and the pass that
/// fills its caches.
fn build(seed: u64, nproc: usize) -> (Setup, ShardedReport) {
    let setup = Setup {
        sharded: ShardedGateway::new(config(nproc)),
        trace: trace(seed),
        chaos: chaos(seed),
        reference: 0,
    };
    let first = setup.sharded.run_with(&setup.trace, &setup.chaos);
    (setup, first)
}

fn set_up(ctx: &mut Ctx) -> Setup {
    let (seed, nproc) = (ctx.seed, ctx.nproc);
    let (setup, first) = ctx.setup(|| build(seed, nproc));
    let reference = first.digest_fnv();
    let c = first.counters;
    ctx.notes.push(format!(
        "ops = requests; {} per pass; executed={} rejected={} rate_limited={} browned_out={} shed={} steals={} digest_fnv=0x{reference:016x}",
        setup.trace.len(),
        first.executed(),
        c.admission_rejected,
        c.rate_limited,
        c.browned_out,
        c.deadline_shed,
        first.steals()
    ));
    Setup { reference, ..setup }
}

/// Counts one pass's requests and checks it: the reference digest,
/// one terminal outcome per request, and a quorum screen that caught
/// every injected corruption with none escaping.
fn account(ctx: &mut Ctx, k: usize, setup: &Setup, report: &ShardedReport) {
    let n = setup.trace.len() as u64;
    ctx.attempted += n;
    let errors = report
        .outcomes
        .iter()
        .filter(|o| matches!(&o.disposition, Disposition::Executed { result, .. } if result.outcome.is_err()))
        .count() as u64;
    ctx.failed += errors;
    ctx.unserved += n - report.executed() + errors;
    let got = report.digest_fnv();
    ctx.check(got == setup.reference, n, || {
        format!(
            "tenant pass {k}: digest 0x{got:016x} differs from 0x{:016x}",
            setup.reference
        )
    });
    ctx.check(report.outcomes.len() as u64 == n, n, || {
        format!(
            "tenant pass {k}: {} outcomes for {n} requests",
            report.outcomes.len()
        )
    });
    let quorum_ok = report
        .quorum
        .is_some_and(|q| q.escaped == 0 && q.caught == q.injected && q.votes > 0);
    ctx.check(quorum_ok, n, || {
        format!("tenant pass {k}: quorum screen {:?}", report.quorum)
    });
}

/// `tenant-shards`, untraced: the end-to-end metrics.
pub fn run(ctx: &mut Ctx) {
    let setup = set_up(ctx);
    let (seed, nproc) = (ctx.seed, ctx.nproc);
    let n = setup.trace.len() as u64;
    ctx.start();
    let mut k = 0;
    while ctx.more() {
        let t0 = Instant::now();
        let report = setup.sharded.run_with(&setup.trace, &setup.chaos);
        ctx.pass(t0, n);
        account(ctx, k, &setup, &report);
        while ctx.setup_due(SETUP_REPS) {
            let (_, again) = ctx.setup(|| build(seed, nproc));
            let got = again.digest_fnv();
            ctx.check(got == setup.reference, n, || {
                format!(
                    "tenant set-up repeat: digest 0x{got:016x} differs from 0x{:016x}",
                    setup.reference
                )
            });
        }
        k += 1;
    }
}

fn add(a: GatewayCounters, b: GatewayCounters) -> GatewayCounters {
    GatewayCounters {
        admission_rejected: a.admission_rejected + b.admission_rejected,
        rate_limited: a.rate_limited + b.rate_limited,
        breaker_trips: a.breaker_trips + b.breaker_trips,
        breaker_half_open_probes: a.breaker_half_open_probes + b.breaker_half_open_probes,
        browned_out: a.browned_out + b.browned_out,
        deadline_shed: a.deadline_shed + b.deadline_shed,
    }
}

/// Re-enacts one sharded pass through the public session calls: one
/// session per ward on its home shard's gateway, advanced in lockstep
/// over the merged tick sequence, each executed result screened by
/// the quorum. Work stealing is left out; the digest is placement-
/// independent, so it must still equal the sharded gateway's.
fn reenact(
    sharded: &ShardedGateway,
    trace: &[Request],
    chaos: &ShardChaos,
    mut rec: Rec<'_>,
    pass: u64,
) -> ShardedReport {
    let root = rec.begin("pass", pass);
    let mut tenants: Vec<&str> = trace.iter().map(|r| r.tenant.as_str()).collect();
    tenants.sort_unstable();
    tenants.dedup();
    let shards = sharded.shards();
    let mut sessions = Vec::with_capacity(tenants.len());
    for tenant in &tenants {
        let home = home_shard(tenant, shards);
        let gateway = sharded
            .gateway(home)
            .expect("home_shard is below the shard count");
        let mut session = gateway.session();
        if let Some(plan) = chaos.tenant_plans.get(*tenant) {
            session.set_fault_plan(Some(plan.clone()));
        }
        sessions.push(session);
    }
    let mut order = Vec::with_capacity(trace.len());
    let mut offered = vec![0usize; tenants.len()];
    for request in trace {
        let slot = tenants
            .binary_search(&request.tenant.as_str())
            .expect("tenant listed");
        order.push((slot, offered[slot]));
        offered[slot] += 1;
        rec.span("gateway.offer", request.id, || {
            sessions[slot].offer(request.clone());
        });
    }
    let mut screen = chaos.quorum.map(QuorumScreen::new);
    while let Some(tick) = sessions.iter().filter_map(|s| s.next_event_tick()).min() {
        for (slot, session) in sessions.iter_mut().enumerate() {
            if session.next_event_tick().is_none_or(|t| t > tick) {
                continue;
            }
            let outcomes = rec.span("gateway.advance", tick, || session.advance_to(tick));
            let Some(screen) = screen.as_mut() else {
                continue;
            };
            let plan = chaos.tenant_plans.get(tenants[slot]);
            for outcome in &outcomes {
                if let Disposition::Executed { result, .. } = &outcome.disposition {
                    let critical = outcome.priority == bios_gateway::Priority::Recalibration;
                    rec.span("quorum.screen", outcome.id, || {
                        black_box(screen.screen_result(plan, result, critical));
                    });
                }
            }
        }
    }
    let reports: Vec<_> = sessions.into_iter().map(|s| s.finish()).collect();
    let counters = reports
        .iter()
        .fold(GatewayCounters::default(), |acc, r| add(acc, r.counters));
    let drained = reports.iter().map(|r| r.drained_tick).max().unwrap_or(0);
    let outcomes = order
        .iter()
        .map(|&(slot, k)| reports[slot].outcomes[k].clone())
        .collect();
    let mut report = ShardedReport::new(outcomes, counters, drained, Vec::new());
    report.quorum = screen.map(|s| s.summary());
    rec.end(root);
    report
}

/// `tenant-shards`, traced: per-layer metrics.
pub fn traced(ctx: &mut Ctx) -> Tracer {
    let origin = Instant::now();
    let setup = set_up(ctx);
    let n = setup.trace.len() as u64;
    // The re-enactment runs on a twin whose caches the set-up pass
    // below fills, as the program's were.
    let twin = ShardedGateway::new(config(ctx.nproc));
    let warmup = reenact(&twin, &setup.trace, &setup.chaos, Rec(None), 0);
    ctx.check(warmup.digest_fnv() == setup.reference, n, || {
        "tenant re-enacted set-up pass differs from the sharded gateway's".to_owned()
    });
    let mut profile = Profile::default();
    let mut kept = None;
    let (mut program, mut untraced, mut traced, mut merge_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let deadline = Instant::now() + ctx.budget;
    let mut k = 0;
    while more_passes(k, 3, deadline) {
        let retries_before: u64 = (0..setup.sharded.shards())
            .filter_map(|i| setup.sharded.gateway(i))
            .map(|g| g.metrics().retries)
            .sum();
        let t0 = Instant::now();
        let report = setup.sharded.run_with(&setup.trace, &setup.chaos);
        program.push(t0.elapsed().as_secs_f64());
        account(ctx, k, &setup, &report);
        let retries: u64 = (0..setup.sharded.shards())
            .filter_map(|i| setup.sharded.gateway(i))
            .map(|g| g.metrics().retries)
            .sum::<u64>()
            - retries_before;
        let t1 = Instant::now();
        black_box((report.tenant_stats(), report.digest()));
        merge_us.push(t1.elapsed().as_secs_f64() * 1e6);

        let mut tracer = Tracer::new(origin);
        let pass = (k as u64) << 32;
        let timed = |rec: Rec<'_>, walls: &mut Vec<f64>| {
            let t0 = Instant::now();
            let report = reenact(&twin, &setup.trace, &setup.chaos, rec, pass);
            walls.push(t0.elapsed().as_secs_f64());
            report
        };
        let (u, t) = if k.is_multiple_of(2) {
            let u = timed(Rec(None), &mut untraced);
            (u, timed(Rec(Some(&mut tracer)), &mut traced))
        } else {
            let t = timed(Rec(Some(&mut tracer)), &mut traced);
            (timed(Rec(None), &mut untraced), t)
        };
        ctx.check(
            u.digest_fnv() == setup.reference && t.digest_fnv() == setup.reference,
            n,
            || format!("tenant pass {k}: re-enacted digest differs from the sharded gateway's"),
        );
        profile.fold(&tracer);
        if kept.is_none() {
            kept = Some(tracer);
        }
        last = Some((report, retries));
        k += 1;
    }
    ctx.layer("shard.requests_per_s", n as f64 / median(&program));
    ctx.layer("shard.merge_us", median(&merge_us));
    ctx.layer("gateway.offer_us", profile.mean_ns("gateway.offer") / 1e3);
    ctx.layer(
        "gateway.advance_us",
        profile.mean_ns("gateway.advance") / 1e3,
    );
    ctx.layer("quorum.screen_us", profile.mean_ns("quorum.screen") / 1e3);
    ctx.layer(
        "trace.coverage_frac",
        profile.coverage(&["gateway.offer", "gateway.advance", "quorum.screen"]),
    );
    ctx.layer(
        "trace.overhead_frac",
        median(&traced) / median(&untraced) - 1.0,
    );
    ctx.layer("trace.spans", profile.spans as f64);
    if let Some((report, retries)) = last {
        let c = report.counters;
        ctx.layer("runtime.retries", retries as f64);
        ctx.layer("gateway.rejected", c.admission_rejected as f64);
        ctx.layer("gateway.rate_limited", c.rate_limited as f64);
        ctx.layer("gateway.browned_out", c.browned_out as f64);
        ctx.layer("gateway.deadline_shed", c.deadline_shed as f64);
        ctx.layer("gateway.degraded_frac", c.browned_out as f64 / n as f64);
        ctx.layer("shard.steals", report.steals() as f64);
        let p99 = report
            .tenant_stats()
            .iter()
            .map(|s| s.p99())
            .max()
            .unwrap_or(0);
        ctx.layer("shard.tenant_p99_ticks", p99 as f64);
        if let Some(q) = report.quorum {
            ctx.layer("quorum.votes", q.votes as f64);
            ctx.layer("quorum.disagreements", q.disagreements as f64);
        }
    }

    // Fault realization for every request of the chaos ward, and
    // tenant routing, timed in batches.
    let plan = chaos_plan(ctx.seed);
    let ward: Vec<&Request> = setup
        .trace
        .iter()
        .filter(|r| r.tenant == CHAOS_WARD)
        .collect();
    let mut tracer = kept.unwrap_or_else(|| Tracer::new(origin));
    let reps = 50 * ward.len() as u64;
    let realize_ns = batch(&mut tracer, "faults.realize", reps, |i| {
        let r = ward[i as usize % ward.len()];
        black_box(plan.realize(r.entry.id(), black_box(r.seed)));
    });
    ctx.layer("faults.realize_us", realize_ns / 1e3);
    let names: Vec<String> = (0..WARDS).map(|w| format!("ward-{w:02}")).collect();
    let nproc = ctx.nproc;
    let route_ns = batch(&mut tracer, "shard.route", 200_000, |i| {
        black_box(home_shard(black_box(&names[i as usize % WARDS]), nproc));
    });
    ctx.layer("shard.route_ns", route_ns);
    tracer
}
