//! Scale-out soak: a concurrent query storm over a multi-drive array with
//! an active fault plan (including whole-drive losses), proving the
//! coordinator's liveness and exactness promises:
//!
//! (a) no deadlock — the simulation drains to quiescence with every query
//!     completed;
//! (b) every query's result equals the fault-free reference, drive losses
//!     and SSDlet faults notwithstanding; and
//! (c) the scheduler's admission and queue-depth instrumentation returns
//!     to zero once the storm drains — nothing leaks.

use std::sync::Arc;

use biscuit::sim::sync::Mutex;

use biscuit::apps::search::{array_conv_grep, ArrayGrep};
use biscuit::apps::weblog::{WeblogGen, NEEDLE};
use biscuit::core::{CoreConfig, Ssd};
use biscuit::fs::Fs;
use biscuit::host::array::ArrayConfig;
use biscuit::host::{HostConfig, HostLoad, QueryScheduler, SchedulerConfig, SsdArray};
use biscuit::sim::fault::{FaultConfig, FaultPlan, FaultSite};
use biscuit::sim::metrics::SampleValue;
use biscuit::sim::time::SimDuration;
use biscuit::sim::Simulation;
use biscuit::ssd::{SsdConfig, SsdDevice};

#[path = "support/fault_sites.rs"]
mod fault_sites;

const DRIVES: usize = 4;
const SHARD_PAGES: u64 = 48;
const USERS: usize = 8;
const QUERIES: u64 = 64;
/// Each tenant's queue holds all of its queries, so none sheds.
const QUEUE_CAPACITY: usize = QUERIES as usize / USERS;

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
            let gen = Arc::new(WeblogGen::new(70 + i as u64, 250));
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

#[test]
fn soak_64_queries_4_drives_under_faults_drains_clean() {
    let (array, expected) = make_array();
    assert!(expected > 0, "the corpus plants needles");

    // An aggressively faulty environment: flaky NAND, panicking SSDlets,
    // and two whole-drive losses, all under one gather deadline.
    let plan = FaultPlan::seeded(
        0x0B15_C0C7,
        FaultConfig {
            nand_read_error_rate: 0.01,
            ssdlet_panics: 2,
            drive_losses: 2,
            host_timeout: Some(SimDuration::from_millis(50)),
            ..FaultConfig::default()
        },
    );
    array.attach_fault_plan(&plan);

    let sim = Simulation::new(0x50AC);
    sim.enable_metrics();

    let sched = QueryScheduler::new(SchedulerConfig {
        users: USERS,
        max_inflight: 6,
        queue_capacity: QUEUE_CAPACITY,
        weights: Vec::new(),
    });
    let sched_out = sched.clone();

    let counts: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let got = Arc::clone(&counts);
    sim.spawn("host", move |ctx| {
        let grep = ArrayGrep::prepare(ctx, &array).unwrap();
        sched.start(ctx);
        for q in 0..QUERIES {
            let array = array.clone();
            let grep = grep.clone();
            let got = Arc::clone(&got);
            let job = move |qctx: &biscuit::sim::Ctx| {
                // Three offloaded queries for every Conv scan.
                let n = if q % 4 != 3 {
                    grep.run(qctx, &array, "shard.log", NEEDLE.as_bytes(), HostLoad::IDLE)
                        .unwrap()
                } else {
                    array_conv_grep(qctx, &array, "shard.log", NEEDLE.as_bytes(), HostLoad::IDLE)
                        .unwrap()
                };
                got.lock().push(n);
            };
            sched.try_submit(ctx, (q as usize) % USERS, 1, job).unwrap();
        }
        assert_eq!(sched.shed(), 0);
        sched.close(ctx);
        sched.wait_completed(ctx, QUERIES);
    });

    // (a) Liveness: the run drains with nothing parked.
    let report = sim.run();
    report.assert_quiescent();

    // (b) Exactness: every query saw the whole corpus despite the faults.
    let all = counts.lock();
    assert_eq!(all.len(), QUERIES as usize, "every query completed");
    for (i, &n) in all.iter().enumerate() {
        assert_eq!(
            n, expected,
            "query {i} diverged from the fault-free reference"
        );
    }
    assert_eq!(sched_out.submitted(), QUERIES);
    assert_eq!(sched_out.completed(), QUERIES);

    // The drive losses actually fired and were recovered by re-scatter.
    assert_eq!(
        plan.injected_at(FaultSite::Drive),
        2,
        "both drive losses fired"
    );
    assert_eq!(
        plan.recovered_at(FaultSite::Drive),
        2,
        "both lost shards were re-scattered to the host path"
    );

    // (c) Instrumentation drains to zero; high-water marks prove the
    // storm actually exercised admission control.
    let snap = report.metrics;
    assert_eq!(snap.counter_sum("array_sched_submitted_total"), QUERIES);
    assert_eq!(snap.counter_sum("array_sched_admitted_total"), QUERIES);
    assert_eq!(snap.counter_sum("array_sched_completed_total"), QUERIES);
    assert!(snap.counter_sum("array_scatters_total") >= QUERIES * 3 / 4);
    assert!(snap.counter_sum("array_rescatters_total") >= 2);
    // The plan was armed before this simulation's metrics existed; every
    // fault it drew is still counted, where it fired.
    fault_sites::assert_plan_matches_metrics(&plan, &snap);
    assert_eq!(
        snap.counter_value("fault_injected_total", &[("site", "drive")]),
        Some(2)
    );

    let mut sched_queues = 0;
    for s in &snap.samples {
        let is_sched_queue = s.name == "queue_depth"
            && s.labels
                .iter()
                .any(|(k, v)| k == "queue" && v.starts_with("sched.user"));
        if is_sched_queue || s.name == "array_sched_inflight" {
            let SampleValue::Gauge { value, high_water } = s.value else {
                panic!("{} is a gauge", s.key);
            };
            assert_eq!(value, 0, "{} must drain to zero", s.key);
            assert!(high_water > 0, "{} never moved", s.key);
            if is_sched_queue {
                sched_queues += 1;
                assert!(
                    high_water <= QUEUE_CAPACITY as i64,
                    "{} exceeded its bound",
                    s.key
                );
            } else {
                assert!(high_water <= 6, "{} exceeded max_inflight", s.key);
            }
        }
    }
    assert_eq!(sched_queues, USERS, "every per-user queue was instrumented");

    // Per-tenant SLO substrate: every user's end-to-end query latency
    // landed in its own histogram (p50/p99/p99.9 ride the JSON and
    // Prometheus exports).
    let mut slo_users = 0;
    for s in &snap.samples {
        if s.name != "array_query_latency_ps" {
            continue;
        }
        let SampleValue::Histogram(ref data) = s.value else {
            panic!("{} is a histogram", s.key);
        };
        assert!(data.count > 0, "{} recorded no queries", s.key);
        assert!(data.max > 0, "{} recorded zero latency", s.key);
        slo_users += 1;
    }
    assert_eq!(slo_users, USERS, "one latency histogram per tenant");
    let json = snap.to_json();
    assert!(
        json.contains("\"p999\""),
        "histogram export must carry p99.9"
    );
}
