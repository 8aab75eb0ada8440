//! Array QoS soak: the seeded workload engine driving the WFQ scheduler
//! under sustained overload (`docs/QOS.md`).
//!
//! Two reports come out of one harness:
//!
//! - `BENCH_qos.json` — a 64k-query open-loop Zipf soak over a
//!   simulated 4-drive array, run twice with the same seed; gates the
//!   admission/shed split, zero starved tenants, exact count
//!   reconciliation, throughput, tenant-0 tail waits/latencies, and
//!   byte-identity of the QoS export across the rounds.
//! - `BENCH_qos_soak1m.json` — the 1,000,000-query soak across 20,000
//!   tenants on the same 4-drive shape. Skipped under `QOS_SMOKE=1`
//!   (the quick shape).
//!
//! Jobs are virtual sleeps proportional to each arrival's WFQ cost —
//! the *service-time model*. The subject under test is the QoS layer
//! itself (admission, WFQ dispatch order, shedding, backpressure,
//! drain), not the grep/TPC-H datapaths, which have their own
//! harnesses; modeling service as cost-proportional sleep is what makes
//! a million-query soak tractable. One cost unit is
//! [`SERVICE_NS_PER_COST`] of drive time, so the 8-worker pool's
//! capacity is known in closed form and the arrival rate is sized to
//! ~2.3x it: the soak *must* shed, and the in-harness asserts require
//! it to.
//!
//! Every gated row is a pure function of the seed: the integer
//! virtual-time rows (`offered`, `accepted`, `shed`, the tenant-0 tail
//! waits and latencies, ...) gate exactly, throughput at the tight band.

use biscuit_bench::{header, row, simulate_metered, simulate_named, BenchReport, GATE_TIGHT};
use biscuit_host::workload::drive_open_loop;
use biscuit_host::{
    ArrivalProcess, DiurnalPhase, QueryScheduler, SchedulerConfig, TenantReport, WorkloadConfig,
    WorkloadEngine,
};
use biscuit_sim::time::{SimDuration, SimTime};
use biscuit_sim::Ctx;

/// The array shape every soak runs against: 4 drives, so
/// [`SchedulerConfig::for_drives`] gives an 8-worker pool.
const DRIVES: usize = 4;

/// Service time per WFQ cost unit (2 us). Mean query cost under the
/// default mix is ~9 units, so one worker retires ~18 us of work per
/// query and the 8-worker pool's capacity is ~0.44 queries/us.
const SERVICE_NS_PER_COST: u64 = 2_000;

/// Mean open-loop interarrival (1 us = 1.0 queries/us offered): ~2.3x
/// the pool's capacity before diurnal scaling, so queues saturate and
/// the shedding path carries real traffic.
const MEAN_INTERARRIVAL_US: u64 = 1;

/// Everything one soak produces: engine-side tallies, scheduler books,
/// derived gate values, and the QoS export for byte comparison.
struct SoakOutcome {
    offered: u64,
    accepted: u64,
    shed: u64,
    starved: u64,
    reconcile_err: u64,
    /// Queries offered per simulated second (drain time included).
    qps: f64,
    /// Tenant 0 — the Zipf head, the busiest tenant by construction.
    t0: TenantReport,
    qos_json: String,
}

/// The repeating trough/steady/burst cycle: average rate multiplier
/// ~1.48, peaking at 3x during bursts.
fn diurnal_cycle() -> Vec<DiurnalPhase> {
    vec![
        DiurnalPhase {
            dur: SimDuration::from_millis(2),
            rate_mul: 0.4,
        },
        DiurnalPhase {
            dur: SimDuration::from_millis(2),
            rate_mul: 1.0,
        },
        DiurnalPhase {
            dur: SimDuration::from_millis(2),
            rate_mul: 3.0,
        },
    ]
}

fn workload(seed: u64, tenants: u32, queries: u64) -> WorkloadConfig {
    WorkloadConfig {
        seed,
        tenants,
        queries,
        zipf_theta: 1.1,
        mix: biscuit_host::QueryMix::default(),
        arrivals: ArrivalProcess::OpenLoop {
            mean_interarrival: SimDuration::from_micros(MEAN_INTERARRIVAL_US),
        },
        phases: diurnal_cycle(),
    }
}

/// Runs one open-loop soak on the calling fiber: engine feeds
/// scheduler, jobs sleep their cost-proportional service time, then the
/// scheduler closes and drains. Every acceptance-criteria invariant is
/// asserted here, in-harness, so a violation aborts the bench rather
/// than drifting a row.
fn run_soak(ctx: &Ctx, wl: WorkloadConfig, sched_cfg: SchedulerConfig) -> SoakOutcome {
    let queries = wl.queries;
    let sched = QueryScheduler::new(sched_cfg);
    sched.start(ctx);
    let mut engine = WorkloadEngine::new(wl);
    let stats = drive_open_loop(ctx, &sched, &mut engine, |a| {
        let service = SimDuration::from_nanos(a.cost * SERVICE_NS_PER_COST);
        move |qctx: &Ctx| qctx.sleep(service)
    });
    sched.close(ctx);
    sched.wait_completed(ctx, sched.submitted());
    let elapsed = (ctx.now() - SimTime::ZERO).as_secs_f64();

    let reports = sched.tenant_reports();
    let starved = reports.iter().filter(|r| r.completed == 0).count() as u64;
    let tenant_offered: u64 = reports.iter().map(|r| r.offered).sum();
    let tenant_shed: u64 = reports.iter().map(|r| r.shed).sum();
    let tenant_completed: u64 = reports.iter().map(|r| r.completed).sum();
    let reconcile_err = stats.offered.abs_diff(queries)
        + stats.accepted.abs_diff(sched.submitted())
        + stats.shed.abs_diff(sched.shed())
        + sched.submitted().abs_diff(sched.completed())
        + tenant_offered.abs_diff(stats.offered)
        + tenant_shed.abs_diff(stats.shed)
        + tenant_completed.abs_diff(sched.completed());

    assert_eq!(stats.offered, queries, "engine must emit every arrival");
    assert_eq!(
        reconcile_err, 0,
        "shed/admission books must reconcile exactly"
    );
    assert!(
        stats.shed > 0,
        "the soak is sized to overload the array; zero shed means the \
         service-time model or arrival rate drifted"
    );
    assert_eq!(starved, 0, "every tenant must complete at least one query");

    SoakOutcome {
        offered: stats.offered,
        accepted: stats.accepted,
        shed: stats.shed,
        starved,
        reconcile_err,
        qps: stats.offered as f64 / elapsed.max(1e-12),
        t0: reports.into_iter().next().expect("tenant 0 exists"),
        qos_json: sched.qos_json(),
    }
}

/// The 64k soak: 512 tenants, the Zipf head 4-weighted so the WFQ
/// weight path sees traffic too.
fn soak_64k(metered: bool) -> (SoakOutcome, biscuit_sim::metrics::MetricsSnapshot) {
    let users = 512usize;
    let mut weights = vec![1u64; users];
    for w in weights.iter_mut().take(4) {
        *w = 4;
    }
    let sched_cfg = SchedulerConfig {
        users,
        queue_capacity: 4,
        weights,
        ..SchedulerConfig::for_drives(DRIVES)
    };
    let wl = workload(0x5EED_640A, users as u32, 65_536);
    let soak = move |ctx: &Ctx| run_soak(ctx, wl, sched_cfg);
    if metered {
        simulate_metered("qos-64k", soak)
    } else {
        (simulate_named("qos-64k", soak), Default::default())
    }
}

/// Pushes one soak's gate rows: integer virtual-time rows gate exactly
/// (tol 0), throughput at the tight band.
fn push_soak_rows(report: &mut BenchReport, out: &SoakOutcome) {
    report.push_tol("offered", "queries", None, out.offered as f64, 0.0);
    report.push_tol("accepted", "queries", None, out.accepted as f64, 0.0);
    report.push_tol("shed", "queries", None, out.shed as f64, 0.0);
    report.push_tol("starved_tenants", "tenants", None, out.starved as f64, 0.0);
    report.push_tol(
        "reconcile_err",
        "queries",
        None,
        out.reconcile_err as f64,
        0.0,
    );
    report.push_tol("qps", "q/s", None, out.qps, GATE_TIGHT);
    report.push_tol(
        "t0_wait_p99_ps",
        "ps",
        None,
        out.t0.queue_wait.percentile(99.0) as f64,
        0.0,
    );
    report.push_tol(
        "t0_wait_p999_ps",
        "ps",
        None,
        out.t0.queue_wait.percentile(99.9) as f64,
        0.0,
    );
    report.push_tol(
        "t0_lat_p99_ps",
        "ps",
        None,
        out.t0.latency.percentile(99.0) as f64,
        0.0,
    );
    report.push_tol(
        "t0_lat_p999_ps",
        "ps",
        None,
        out.t0.latency.percentile(99.9) as f64,
        0.0,
    );
}

fn print_soak(name: &str, out: &SoakOutcome) {
    row(&[
        name,
        &out.offered.to_string(),
        &out.accepted.to_string(),
        &out.shed.to_string(),
        &format!("{:.0}", out.qps),
        &format!("{:.1}us", out.t0.queue_wait.percentile(99.0) as f64 / 1e6),
        &format!("{:.1}us", out.t0.latency.percentile(99.0) as f64 / 1e6),
    ]);
}

fn main() {
    let smoke = std::env::var("QOS_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false);

    header(&format!(
        "Array QoS soak ({} config)",
        if smoke {
            "smoke: 64k only"
        } else {
            "full: 64k + 1M"
        }
    ));
    row(&[
        "soak", "offered", "accepted", "shed", "qps", "t0 w_p99", "t0 l_p99",
    ]);

    // 64k soak, twice with the same seed: round 1 metered (its snapshot
    // rides in the report), round 2 bare. The QoS export must be
    // byte-identical — WFQ tags, shed decisions, and drain order are
    // pure functions of the seed.
    let (round1, snap) = soak_64k(true);
    let (round2, _) = soak_64k(false);
    assert_eq!(
        round1.qos_json, round2.qos_json,
        "same-seed soaks must export byte-identical QoS state"
    );
    let divergence = u64::from(round1.qos_json != round2.qos_json);
    print_soak("qos (64k)", &round1);

    let mut report = BenchReport::new("qos");
    push_soak_rows(&mut report, &round1);
    report.push_tol(
        "determinism_divergence",
        "diffs",
        None,
        divergence as f64,
        0.0,
    );
    report.set_metrics(snap);
    report.write();

    if smoke {
        println!("\nQOS_SMOKE=1: skipping the 1M-query soak");
        return;
    }

    // The 1M soak: 20k tenants, unweighted, metrics off (the always-on
    // per-tenant accounting carries the gates; a 20k-label registry
    // export would dominate the runtime).
    let users = 20_000u32;
    let sched_cfg = SchedulerConfig {
        users: users as usize,
        queue_capacity: 4,
        weights: Vec::new(),
        ..SchedulerConfig::for_drives(DRIVES)
    };
    let wl = workload(0x5EED_1A1B_1C1D, users, 1_000_000);
    let big = simulate_named("qos-soak1m", move |ctx| run_soak(ctx, wl, sched_cfg));
    print_soak("qos_soak1m", &big);

    let mut report1m = BenchReport::new("qos_soak1m");
    push_soak_rows(&mut report1m, &big);
    report1m.write();
}
