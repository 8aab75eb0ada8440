//! Workload-engine + QoS determinism, and scheduler close/drain edge
//! cases — the contracts behind `docs/QOS.md`.
//!
//! The headline test runs a seeded open-loop Zipf soak with *shedding
//! active* through the real 4-drive datapath and asserts that every
//! export — metrics JSON, Chrome trace, query profiles, and the
//! scheduler's per-tenant QoS summary — is byte-identical across repeat
//! rounds. The QoS stack runs entirely on the host DES kernel, which is
//! independent of the fleet's thread policy by construction (the policy
//! only shapes the shard fleet; see `tests/parallel.rs`).

use std::sync::Arc;

use biscuit::sim::sync::Mutex;

use biscuit::apps::search::ArrayGrep;
use biscuit::apps::weblog::{WeblogGen, NEEDLE};
use biscuit::core::{CoreConfig, Ssd};
use biscuit::fs::Fs;
use biscuit::host::array::ArrayConfig;
use biscuit::host::workload::drive_open_loop;
use biscuit::host::{
    ArrivalProcess, HostConfig, HostLoad, QueryKind, QueryMix, QueryScheduler, QueryShed,
    SchedulerConfig, ShedReason, SsdArray, WorkloadConfig, WorkloadEngine,
};
use biscuit::sim::time::SimDuration;
use biscuit::sim::{Ctx, Simulation, TraceConfig};
use biscuit::ssd::{SsdConfig, SsdDevice};

const DRIVES: usize = 4;
const SHARD_PAGES: u64 = 24;
const TENANTS: u32 = 8;
const QUERIES: u64 = 128;
const SOAK_SEED: u64 = 0x50AB_0008;

fn make_array() -> (SsdArray, u64) {
    let mut expected = 0u64;
    let drives: Vec<Ssd> = (0..DRIVES)
        .map(|i| {
            let device = Arc::new(SsdDevice::new(SsdConfig {
                logical_capacity: 32 << 20,
                ..SsdConfig::paper_default()
            }));
            let fs = Fs::format(device);
            let page = fs.device().config().page_size as u64;
            let gen = Arc::new(WeblogGen::new(90 + i as u64, 200));
            expected += gen.count_needles(SHARD_PAGES, page as usize);
            fs.create_synthetic("shard.log", SHARD_PAGES * page, gen)
                .unwrap();
            Ssd::new(fs, CoreConfig::paper_default())
        })
        .collect();
    (
        SsdArray::new(drives, HostConfig::paper_default(), ArrayConfig::default()),
        expected,
    )
}

/// Every export surface of one seeded open-loop soak.
struct SoakArtifacts {
    metrics: String,
    trace: String,
    profiles: String,
    qos: String,
    accepted: u64,
    shed: u64,
}

/// A seeded Zipf soak through the real datapath: open-loop arrivals fast
/// enough that the bounded queues must shed, every accepted query a full
/// sharded grep over 4 drives. Returns all four export surfaces.
fn qos_soak(seed: u64) -> SoakArtifacts {
    let (array, expected) = make_array();
    assert!(expected > 0, "the corpus plants needles");

    let sim = Simulation::new(seed);
    sim.enable_metrics();
    sim.enable_trace(TraceConfig::default());
    sim.enable_qprof();

    let sched = QueryScheduler::new(SchedulerConfig {
        users: TENANTS as usize,
        queue_capacity: 2,
        ..SchedulerConfig::for_drives(DRIVES)
    });
    let sched_out = sched.clone();
    let qos_out: Arc<Mutex<String>> = Arc::new(Mutex::new(String::new()));
    let qos = Arc::clone(&qos_out);
    let counts: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let got = Arc::clone(&counts);

    sim.spawn("host", move |ctx| {
        let grep = ArrayGrep::prepare(ctx, &array).unwrap();
        sched.start(ctx);
        let mut engine = WorkloadEngine::new(WorkloadConfig {
            seed,
            tenants: TENANTS,
            queries: QUERIES,
            zipf_theta: 1.1,
            mix: QueryMix::default(),
            arrivals: ArrivalProcess::OpenLoop {
                mean_interarrival: SimDuration::from_micros(2),
            },
            phases: vec![],
        });
        let stats = drive_open_loop(ctx, &sched, &mut engine, |_a| {
            let array = array.clone();
            let grep = grep.clone();
            let got = Arc::clone(&got);
            move |qctx: &Ctx| {
                let n = grep
                    .run(qctx, &array, "shard.log", NEEDLE.as_bytes(), HostLoad::IDLE)
                    .unwrap();
                got.lock().push(n);
            }
        });
        sched.close(ctx);
        sched.wait_completed(ctx, sched.submitted());

        // Shed counters reconcile exactly: offered == accepted + shed,
        // and everything accepted completes during the drain.
        assert_eq!(stats.offered, QUERIES, "engine exhausted its budget");
        assert_eq!(stats.offered, stats.accepted + stats.shed);
        assert_eq!(sched.submitted(), stats.accepted);
        assert_eq!(sched.shed(), stats.shed);
        assert_eq!(sched.completed(), stats.accepted);
        assert!(stats.shed > 0, "this soak is sized to overload the array");

        // Zero starved tenants: the engine's coverage sweep guarantees
        // every tenant offers at least one query, and WFQ guarantees the
        // accepted ones complete.
        for r in sched.tenant_reports() {
            assert!(r.offered > 0, "tenant {} never offered", r.user);
            assert!(r.completed > 0, "tenant {} starved", r.user);
            assert_eq!(r.offered, r.accepted + r.shed, "tenant {} books", r.user);
            assert_eq!(r.completed, r.accepted, "tenant {} lost queries", r.user);
        }
        *qos.lock() = sched.qos_json();
    });

    let report = sim.run();
    report.assert_quiescent();

    let accepted = sched_out.submitted();
    let shed = sched_out.shed();
    let all = counts.lock();
    assert_eq!(all.len(), accepted as usize);
    for &n in all.iter() {
        assert_eq!(n, expected, "every accepted query sees the whole corpus");
    }

    // Query profiles close: one profile per accepted query, none left
    // open, no orphan spans.
    assert!(
        report.profiles.to_json().ends_with(",\"open\":0}"),
        "queries never closed"
    );
    assert_eq!(report.profiles.queries().len(), accepted as usize);
    for q in report.profiles.queries() {
        assert_eq!(q.orphans, 0, "query {} has orphan spans", q.query);
        assert!(q.spans > 0, "query {} recorded no spans", q.query);
    }

    // The shed path is metered per user and in aggregate.
    let snap = &report.metrics;
    assert_eq!(snap.counter_sum("sched_shed_total"), shed);
    assert_eq!(snap.counter_sum("array_sched_submitted_total"), accepted);
    assert_eq!(snap.counter_sum("array_sched_completed_total"), accepted);

    SoakArtifacts {
        metrics: snap.to_json(),
        trace: report.trace.to_chrome_json(),
        profiles: report.profiles.to_json(),
        qos: Arc::try_unwrap(qos_out).unwrap().into_inner(),
        accepted,
        shed,
    }
}

#[test]
fn soak_with_shedding_is_byte_identical_across_rounds() {
    let reference = qos_soak(SOAK_SEED);
    assert!(reference.accepted > 0 && reference.shed > 0);
    assert!(reference.qos.contains("\"wait_p999_ps\""));
    assert!(reference.metrics.contains("sched_shed_total"));
    assert!(reference.metrics.contains("array_queue_wait_ps"));
    for round in 0..2 {
        let repeat = qos_soak(SOAK_SEED);
        assert_eq!(repeat.accepted, reference.accepted, "round {round}");
        assert_eq!(repeat.shed, reference.shed, "round {round}");
        assert_eq!(repeat.qos, reference.qos, "round {round}: QoS export");
        assert_eq!(repeat.metrics, reference.metrics, "round {round}: metrics");
        assert_eq!(repeat.trace, reference.trace, "round {round}: trace");
        assert_eq!(
            repeat.profiles, reference.profiles,
            "round {round}: query profiles"
        );
    }
}

#[test]
fn engine_stream_is_seed_deterministic_and_covers_every_tenant() {
    let cfg = WorkloadConfig {
        seed: 0xAB,
        tenants: 64,
        queries: 4096,
        ..WorkloadConfig::default()
    };
    let mut a = WorkloadEngine::new(cfg.clone());
    let mut b = WorkloadEngine::new(cfg);
    let sa: Vec<(u64, u64, u32, QueryKind, u64)> = std::iter::from_fn(|| a.next_arrival())
        .map(|x| (x.seq, x.at.as_ps(), x.tenant, x.kind, x.cost))
        .collect();
    let sb: Vec<(u64, u64, u32, QueryKind, u64)> = std::iter::from_fn(|| b.next_arrival())
        .map(|x| (x.seq, x.at.as_ps(), x.tenant, x.kind, x.cost))
        .collect();
    assert_eq!(sa, sb, "same seed, same stream");
    assert_eq!(sa.len(), 4096);
    assert!(a.next_arrival().is_none(), "the engine stops at its budget");

    // Arrival times are strictly ordered by construction of the clock.
    assert!(sa.windows(2).all(|w| w[0].1 <= w[1].1));
    // Coverage sweep: the first 64 arrivals visit each tenant once.
    for (i, arr) in sa.iter().take(64).enumerate() {
        assert_eq!(arr.2, i as u32, "coverage sweep is round-robin");
    }
    // Zipf head: tenant 0 is the hottest, and nobody is left out.
    let mut counts = vec![0u64; 64];
    for arr in &sa {
        counts[arr.2 as usize] += 1;
    }
    assert!(counts.iter().all(|&c| c > 0), "coverage sweep covers all");
    assert!(
        counts[0] > counts[63],
        "Zipf(1.1) must skew the head over the tail: {} vs {}",
        counts[0],
        counts[63]
    );
    // The mix actually mixes: all four kinds appear over 4096 draws.
    for kind in [
        QueryKind::Grep,
        QueryKind::TpchQ1,
        QueryKind::TpchQ6,
        QueryKind::PointerChase,
    ] {
        assert!(
            sa.iter().any(|arr| arr.3 == kind),
            "{kind:?} never drawn from the default mix"
        );
    }
}

// ---------------------------------------------------------------------------
// Close / drain edge cases
// ---------------------------------------------------------------------------

#[test]
fn try_submit_after_close_sheds_with_closed_reason() {
    let sim = Simulation::new(3);
    sim.spawn("host", |ctx| {
        let sched = QueryScheduler::new(SchedulerConfig::default());
        sched.start(ctx);
        sched.close(ctx);
        let err = sched.try_submit(ctx, 0, 1, |_qctx: &Ctx| {}).unwrap_err();
        assert_eq!(
            err,
            QueryShed {
                user: 0,
                reason: ShedReason::Closed
            }
        );
        assert_eq!(sched.shed(), 1);
        assert_eq!(sched.submitted(), 0);
        let r = sched.tenant_reports();
        assert_eq!(r[0].offered, 1);
        assert_eq!(r[0].shed, 1);
        assert_eq!(r[0].accepted, 0);
    });
    sim.run().assert_quiescent();
}

#[test]
fn open_loop_sheds_tenants_beyond_the_scheduler_users() {
    let sim = Simulation::new(5);
    sim.spawn("host", |ctx| {
        let sched = QueryScheduler::new(SchedulerConfig {
            users: 2,
            max_inflight: 2,
            queue_capacity: 64,
            weights: Vec::new(),
        });
        sched.start(ctx);
        let mut engine = WorkloadEngine::new(WorkloadConfig {
            seed: 6,
            tenants: 4,
            queries: 32,
            phases: vec![],
            ..WorkloadConfig::default()
        });
        let mut unknown = 0u64;
        let stats = drive_open_loop(ctx, &sched, &mut engine, |a| {
            unknown += u64::from(a.tenant >= 2);
            move |qctx: &Ctx| qctx.sleep(SimDuration::from_micros(1))
        });
        // The round-robin sweep offers tenants 2 and 3 at least once.
        assert!(unknown >= 2);
        assert_eq!(stats.offered, 32);
        assert_eq!(stats.shed, unknown, "only unknown tenants shed");
        assert_eq!(stats.offered, stats.accepted + stats.shed);
        assert_eq!(sched.shed(), stats.shed);
        assert_eq!(sched.submitted(), stats.accepted);
        // Unknown users get no tenant row.
        let reports = sched.tenant_reports();
        assert_eq!(reports.len(), 2);
        assert_eq!(
            reports.iter().map(|r| r.offered).sum::<u64>(),
            stats.accepted
        );
        assert!(reports.iter().all(|r| r.shed == 0));
        let err = sched.try_submit(ctx, 2, 1, |_qctx: &Ctx| {}).unwrap_err();
        assert_eq!(
            err,
            QueryShed {
                user: 2,
                reason: ShedReason::UnknownUser
            }
        );
        sched.close(ctx);
        sched.wait_completed(ctx, stats.accepted);
    });
    sim.run().assert_quiescent();
}

#[test]
fn inflight_queries_complete_during_drain() {
    let done: Arc<Mutex<u64>> = Arc::new(Mutex::new(0));
    let out = Arc::clone(&done);
    let sim = Simulation::new(4);
    sim.spawn("host", move |ctx| {
        let sched = QueryScheduler::new(SchedulerConfig {
            users: 2,
            max_inflight: 2,
            queue_capacity: 8,
            weights: Vec::new(),
        });
        sched.start(ctx);
        // Each queue holds all three of its tenant's queries: none sheds.
        for i in 0..6usize {
            let out = Arc::clone(&out);
            let job = move |qctx: &Ctx| {
                qctx.sleep(SimDuration::from_micros(10));
                *out.lock() += 1;
            };
            sched.try_submit(ctx, i % 2, 1, job).unwrap();
        }
        assert_eq!(sched.shed(), 0);
        // Close immediately: nothing submitted past this point, but the
        // buffered and in-flight queries all finish during the drain.
        sched.close(ctx);
        sched.wait_completed(ctx, 6);
        assert_eq!(sched.completed(), 6);
        for r in sched.tenant_reports() {
            assert_eq!(r.completed, r.offered, "tenant {} dropped work", r.user);
            assert_eq!(r.shed, 0);
        }
    });
    sim.run().assert_quiescent();
    assert_eq!(*done.lock(), 6, "every job body actually ran");
}
