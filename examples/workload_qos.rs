//! Array QoS under a seeded tenant flood (`docs/QOS.md`).
//!
//! A `WorkloadEngine` drives 2,048 open-loop queries from 64 Zipf-
//! distributed tenants — the head tenant weighted 4x — into the WFQ
//! `QueryScheduler` at roughly twice the array's service capacity, so
//! the bounded per-tenant queues shed real traffic while weights and
//! virtual-time tags keep every tenant served. The run then closes,
//! drains, and prints the per-tenant QoS report: offered/accepted/shed
//! counts and the p99 queue wait and end-to-end latency.
//!
//! Jobs use the service-time model (a virtual sleep proportional to
//! each query's WFQ cost) — the point here is the QoS layer, not the
//! grep datapath; `tests/workload.rs` runs the same soak shape against
//! real sharded greps.
//!
//! Run with: `cargo run --release --example workload_qos`
//!
//! Set `BISCUIT_TELEMETRY=qos` to export the scheduler's counters
//! (`sched_shed_total{user}`, `array_queue_wait_ps{user}`,
//! `array_sched_completed_total`, …) to `qos/metrics.json` alongside the
//! printed report (see `docs/METRICS.md`).

use biscuit::host::workload::drive_open_loop;
use biscuit::host::{
    ArrivalProcess, QueryScheduler, SchedulerConfig, WorkloadConfig, WorkloadEngine,
};
use biscuit::sim::time::SimDuration;
use biscuit::sim::{Ctx, Simulation};

const DRIVES: usize = 4;
const TENANTS: u32 = 64;
const QUERIES: u64 = 2_048;
/// Service time per WFQ cost unit under the service-time model.
const SERVICE_NS_PER_COST: u64 = 2_000;

fn main() {
    let sim = Simulation::new(0x0);
    sim.enable_from_env();
    sim.spawn("host-program", move |ctx| {
        let mut weights = vec![1u64; TENANTS as usize];
        weights[0] = 4; // the Zipf head pays for priority
        let sched = QueryScheduler::new(SchedulerConfig {
            users: TENANTS as usize,
            queue_capacity: 4,
            weights,
            ..SchedulerConfig::for_drives(DRIVES)
        });
        sched.start(ctx);

        let mut engine = WorkloadEngine::new(WorkloadConfig {
            tenants: TENANTS,
            queries: QUERIES,
            arrivals: ArrivalProcess::OpenLoop {
                // ~2x the 8-worker pool's capacity under the service-time
                // model: the soak must shed.
                mean_interarrival: SimDuration::from_micros(1),
            },
            // Flat rate: the default trough phase would swallow a run
            // this short before the overload ever bites.
            phases: Vec::new(),
            ..WorkloadConfig::default()
        });
        let stats = drive_open_loop(ctx, &sched, &mut engine, |a| {
            let service = SimDuration::from_nanos(a.cost * SERVICE_NS_PER_COST);
            move |qctx: &Ctx| qctx.sleep(service)
        });
        sched.close(ctx);
        sched.wait_completed(ctx, sched.submitted());

        let secs = (ctx.now() - biscuit::sim::time::SimTime::ZERO).as_secs_f64();
        println!(
            "{QUERIES} queries from {TENANTS} Zipf tenants over {DRIVES} drives: \
             {} accepted, {} shed, {:.0} q/s sustained\n",
            stats.accepted,
            stats.shed,
            stats.offered as f64 / secs
        );
        println!("tenant  weight  offered  accepted  shed  wait_p99     lat_p99");
        for r in sched.tenant_reports().iter().take(8) {
            println!(
                "{:>6}  {:>6}  {:>7}  {:>8}  {:>4}  {:>9.1}us  {:>8.1}us",
                r.user,
                r.weight,
                r.offered,
                r.accepted,
                r.shed,
                r.queue_wait.percentile(99.0) as f64 / 1e6,
                r.latency.percentile(99.0) as f64 / 1e6,
            );
        }
        println!("   ... ({} more tenants; every one served)", TENANTS - 8);

        let reports = sched.tenant_reports();
        assert!(reports.iter().all(|r| r.completed > 0), "no tenant starves");
        assert_eq!(stats.offered, stats.accepted + stats.shed);
        assert!(stats.shed > 0, "the flood is sized to overload the array");
    });
    let report = sim.run();
    report.assert_quiescent();
    report.write_from_env().expect("write exports");
}
