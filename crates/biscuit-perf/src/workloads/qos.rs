//! `qos_soak`: an open loop of Zipf tenants against the array's WFQ
//! scheduler, a fresh simulation per iteration. Jobs are sleeps of
//! `cost x 2 us`, so there is no data plane at all: wall time is kernel
//! dispatch and fiber hand-off, then the scheduler, the queues and the
//! arrival generator. The diurnal cycle swings the offered rate under, at
//! and over the 8-worker pool's capacity, so some arrivals are shed.
//!
//! Open loop: each arrival is timed from when it was due (`Arrival::at`) to
//! when its job finished, in virtual time; the generator never runs late,
//! because the host fiber sleeps to each due time before it submits.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use biscuit_host::workload::drive_open_loop;
use biscuit_host::{
    ArrivalProcess, DiurnalPhase, QueryMix, QueryScheduler, SchedulerConfig, TenantReport,
    WorkloadConfig, WorkloadEngine,
};
use biscuit_sim::metrics::HistogramData;
use biscuit_sim::time::SimDuration;
use biscuit_sim::{Ctx, Simulation};

use crate::harness::{Iter, Layers, Telemetry, Workload};
use crate::replay::ns_per_item;
use crate::spans;
use crate::stats::{percentile, splitmix};

const DRIVES: usize = 4;
const TENANTS: usize = 512;
const SERVICE_NS_PER_COST: u64 = 2_000;
/// ~the pool's capacity at rate multiplier 1: 8 workers, mean cost ~9.
const MEAN_INTERARRIVAL_NS: u64 = 2_300;

pub struct QosSoak {
    workload: WorkloadConfig,
    scheduler: SchedulerConfig,
    /// Scheduler books of the traced iterations.
    books: Books,
    smoke: bool,
}

#[derive(Default)]
struct Books {
    offered: u64,
    accepted: u64,
    shed: u64,
    starved: u64,
    reconcile_err: u64,
    queue_wait: HistogramData,
    latencies_ps: Vec<u64>,
}

/// What the inner simulation's host fiber hands back.
struct Soak {
    offered: u64,
    accepted: u64,
    shed: u64,
    reconcile_err: u64,
    reports: Vec<TenantReport>,
}

impl QosSoak {
    pub fn new(seed: u64, smoke: bool) -> QosSoak {
        let mut weights = vec![1u64; TENANTS];
        weights[..4].fill(4);
        let phase = |rate_mul| DiurnalPhase {
            dur: SimDuration::from_millis(2),
            rate_mul,
        };
        QosSoak {
            workload: WorkloadConfig {
                seed: splitmix(seed),
                tenants: TENANTS as u32,
                queries: if smoke { 8_192 } else { 131_072 },
                zipf_theta: 1.1,
                mix: QueryMix::default(),
                arrivals: ArrivalProcess::OpenLoop {
                    mean_interarrival: SimDuration::from_nanos(MEAN_INTERARRIVAL_NS),
                },
                phases: vec![phase(0.4), phase(1.0), phase(3.0)],
            },
            scheduler: SchedulerConfig {
                users: TENANTS,
                queue_capacity: 4,
                weights,
                ..SchedulerConfig::for_drives(DRIVES)
            },
            books: Books::default(),
            smoke,
        }
    }
}

fn merge(into: &mut HistogramData, from: &HistogramData) {
    if from.count == 0 {
        return;
    }
    into.min = if into.count == 0 {
        from.min
    } else {
        into.min.min(from.min)
    };
    into.max = into.max.max(from.max);
    into.count += from.count;
    into.sum += from.sum;
    into.sum_sq += from.sum_sq;
    for (a, b) in into.buckets.iter_mut().zip(from.buckets) {
        *a += b;
    }
}

impl Workload for QosSoak {
    fn prepare(&mut self, _ctx: &Ctx) {}

    fn iterate(&mut self, _ctx: &Ctx, tele: Option<&mut Telemetry>) -> Iter {
        let queries = self.workload.queries;
        let samples = Arc::new(Mutex::new(Vec::with_capacity(queries as usize)));
        let soak: Arc<Mutex<Option<Soak>>> = Arc::new(Mutex::new(None));
        let (wl, cfg) = (self.workload.clone(), self.scheduler.clone());
        let (job_samples, out) = (Arc::clone(&samples), Arc::clone(&soak));
        let traced = tele.is_some();

        let w0 = Instant::now();
        let sim = Simulation::new(self.workload.seed);
        if traced {
            Telemetry::enable(&sim);
        }
        sim.spawn("qos-host", move |ctx| {
            let sched = QueryScheduler::new(cfg);
            if traced {
                sched.attach_metrics(ctx.metrics());
            }
            sched.start(ctx);
            let mut engine = WorkloadEngine::new(wl);
            let stats = spans::within("drive_open_loop", || {
                drive_open_loop(ctx, &sched, &mut engine, |a| {
                    let due = a.at.as_ps();
                    let service = SimDuration::from_nanos(a.cost * SERVICE_NS_PER_COST);
                    let done = Arc::clone(&job_samples);
                    move |job: &Ctx| {
                        job.sleep(service);
                        done.lock().expect("samples").push(job.now().as_ps() - due);
                    }
                })
            });
            spans::within("drain", || {
                sched.close(ctx);
                sched.wait_completed(ctx, sched.submitted());
            });
            let reports = sched.tenant_reports();
            let sum = |f: fn(&TenantReport) -> u64| reports.iter().map(f).sum::<u64>();
            let reconcile_err = stats.offered.abs_diff(queries)
                + stats.offered.abs_diff(stats.accepted + stats.shed)
                + stats.accepted.abs_diff(sched.submitted())
                + stats.shed.abs_diff(sched.shed())
                + sched.submitted().abs_diff(sched.completed())
                + sum(|r| r.offered).abs_diff(stats.offered)
                + sum(|r| r.shed).abs_diff(stats.shed)
                + sum(|r| r.completed).abs_diff(sched.completed());
            *out.lock().expect("soak slot") = Some(Soak {
                offered: stats.offered,
                accepted: stats.accepted,
                shed: stats.shed,
                reconcile_err,
                reports,
            });
        });
        let report = sim.run();
        let wall = w0.elapsed();

        report.assert_quiescent();
        let soak = soak.lock().expect("soak slot").take().expect("soak ran");
        let latencies_ps = std::mem::take(&mut *samples.lock().expect("samples"));
        let starved = soak.reports.iter().filter(|r| r.completed == 0).count() as u64;
        // One operation: the soak's books reconcile exactly, every accepted
        // query completed, and no tenant starved.
        let sound =
            soak.reconcile_err == 0 && latencies_ps.len() as u64 == soak.accepted && starved == 0;
        if let Some(tele) = tele {
            tele.absorb_report(&report);
            let b = &mut self.books;
            b.offered += soak.offered;
            b.accepted += soak.accepted;
            b.shed += soak.shed;
            b.starved += starved;
            b.reconcile_err += soak.reconcile_err;
            for r in &soak.reports {
                merge(&mut b.queue_wait, &r.queue_wait);
            }
            b.latencies_ps.extend_from_slice(&latencies_ps);
        }
        Iter {
            wall,
            virt_ps: report.end_time.as_ps(),
            attempted: 1,
            failed: u64::from(!sound),
            latencies_ps,
            offered: soak.offered,
            accepted: soak.accepted,
            ..Iter::default()
        }
    }

    fn layer_counters(&mut self, layers: &mut Layers, _tele: &Telemetry, traced_iters: f64) {
        let b = &self.books;
        let per_iter = |v: u64| v as f64 / traced_iters;
        layers.set("host.sched.offered_n", per_iter(b.offered));
        layers.set("host.sched.accepted_n", per_iter(b.accepted));
        layers.set("host.sched.shed_n", per_iter(b.shed));
        layers.set("host.sched.starved_n", per_iter(b.starved));
        layers.set("host.sched.reconcile_err_n", per_iter(b.reconcile_err));
        layers.set(
            "host.sched.queue_wait_p99_virt_us",
            b.queue_wait.percentile(99.0) as f64 / 1e6,
        );
        let lat: Vec<f64> = b.latencies_ps.iter().map(|&ps| ps as f64 / 1e6).collect();
        layers.set("host.sched.virt_lat_p50_us", percentile(&lat, 50.0));
        layers.set("host.sched.virt_lat_p999_us", percentile(&lat, 99.9));
    }

    fn replay(&mut self, layers: &mut Layers) {
        let cfg = self.workload.clone();
        let gen = ns_per_item(cfg.queries as usize, self.smoke, || {
            let mut engine = WorkloadEngine::new(cfg.clone());
            while let Some(a) = engine.next_arrival() {
                black_box(a);
            }
        });
        layers.set("host.workload.gen_ns_per_arrival", gen);
        layers.set(
            "host.workload.gen_est_ms",
            gen * layers.get("host.sched.offered_n") / 1e6,
        );
    }
}
