//! Full-stack determinism: identical seeds and workloads produce identical
//! virtual timelines, byte counts, and results — the property that makes
//! every number in EXPERIMENTS.md exactly reproducible.

use std::sync::Arc;

use biscuit::sim::sync::Mutex;

use biscuit::apps::search::{
    array_conv_grep, biscuit_grep, conv_grep, load_grep_module, ArrayGrep,
};
use biscuit::apps::weblog::{WeblogGen, NEEDLE};
use biscuit::core::{CoreConfig, Ssd};
use biscuit::fs::{Fs, Mode};
use biscuit::host::array::ArrayConfig;
use biscuit::host::{ConvIo, HostConfig, HostLoad, QueryScheduler, SchedulerConfig, SsdArray};
use biscuit::sim::{Simulation, TraceConfig};
use biscuit::ssd::{SsdConfig, SsdDevice};

/// One complete run: build a platform, search a synthetic log both ways,
/// and return every observable: result, end time, event count, link bytes.
fn full_run() -> (u64, u64, u64, u64, u64) {
    let device = Arc::new(SsdDevice::new(SsdConfig {
        logical_capacity: 128 << 20,
        ..SsdConfig::paper_default()
    }));
    let fs = Fs::format(Arc::clone(&device));
    let page = device.config().page_size as u64;
    fs.create_synthetic("log", 512 * page, Arc::new(WeblogGen::new(7, 400)))
        .unwrap();
    let file = fs.open("log", Mode::ReadOnly).unwrap();
    let ssd = Ssd::new(fs, CoreConfig::paper_default());
    let conv = ConvIo::new(
        Arc::clone(ssd.device()),
        Arc::clone(ssd.link()),
        HostConfig::paper_default(),
    );
    let link = Arc::clone(ssd.link());

    let sim = Simulation::new(1234);
    let counts: Arc<Mutex<(u64, u64)>> = Arc::new(Mutex::new((0, 0)));
    let c = Arc::clone(&counts);
    sim.spawn("host", move |ctx| {
        let mid = load_grep_module(ctx, &ssd).unwrap();
        let a = conv_grep(ctx, &conv, &file, NEEDLE.as_bytes(), HostLoad::new(6)).unwrap();
        let b = biscuit_grep(ctx, &ssd, mid, &file, NEEDLE.as_bytes()).unwrap();
        *c.lock() = (a, b);
    });
    let report = sim.run();
    report.assert_quiescent();
    let (a, b) = *counts.lock();
    (
        a,
        b,
        report.end_time.as_ps(),
        report.events_processed,
        link.bytes_to_host(),
    )
}

#[test]
fn identical_runs_are_bit_identical() {
    let first = full_run();
    let second = full_run();
    assert_eq!(first, second, "virtual timelines must be reproducible");
    // And internally consistent: both search paths agree.
    assert_eq!(first.0, first.1);
    assert!(first.0 > 0, "the corpus plants needles");
}

/// The same run with full tracing enabled, returning the exported Chrome
/// JSON — the strongest observable: every fiber switch, NAND operation,
/// queue movement, and port message in emission order.
fn traced_run_json() -> String {
    let device = Arc::new(SsdDevice::new(SsdConfig {
        logical_capacity: 128 << 20,
        ..SsdConfig::paper_default()
    }));
    let fs = Fs::format(Arc::clone(&device));
    let page = device.config().page_size as u64;
    fs.create_synthetic("log", 512 * page, Arc::new(WeblogGen::new(7, 400)))
        .unwrap();
    let file = fs.open("log", Mode::ReadOnly).unwrap();
    let ssd = Ssd::new(fs, CoreConfig::paper_default());
    let conv = ConvIo::new(
        Arc::clone(ssd.device()),
        Arc::clone(ssd.link()),
        HostConfig::paper_default(),
    );

    let sim = Simulation::new(1234);
    sim.enable_trace(TraceConfig::default());
    sim.spawn("host", move |ctx| {
        let mid = load_grep_module(ctx, &ssd).unwrap();
        let a = conv_grep(ctx, &conv, &file, NEEDLE.as_bytes(), HostLoad::new(6)).unwrap();
        let b = biscuit_grep(ctx, &ssd, mid, &file, NEEDLE.as_bytes()).unwrap();
        assert_eq!(a, b);
    });
    let report = sim.run();
    report.assert_quiescent();
    assert!(!report.trace.is_empty(), "tracing was enabled");
    report.trace.to_chrome_json()
}

/// The same run with aggregate metrics enabled, returning the exported
/// metrics JSON — every counter, gauge, and histogram keyed by metric name
/// and labels.
fn metered_run_snapshot() -> biscuit::sim::metrics::MetricsSnapshot {
    let device = Arc::new(SsdDevice::new(SsdConfig {
        logical_capacity: 128 << 20,
        ..SsdConfig::paper_default()
    }));
    let fs = Fs::format(Arc::clone(&device));
    let page = device.config().page_size as u64;
    fs.create_synthetic("log", 512 * page, Arc::new(WeblogGen::new(7, 400)))
        .unwrap();
    let file = fs.open("log", Mode::ReadOnly).unwrap();
    let ssd = Ssd::new(fs, CoreConfig::paper_default());
    let conv = ConvIo::new(
        Arc::clone(ssd.device()),
        Arc::clone(ssd.link()),
        HostConfig::paper_default(),
    );

    let sim = Simulation::new(1234);
    sim.enable_metrics();
    sim.spawn("host", move |ctx| {
        let mid = load_grep_module(ctx, &ssd).unwrap();
        let a = conv_grep(ctx, &conv, &file, NEEDLE.as_bytes(), HostLoad::new(6)).unwrap();
        let b = biscuit_grep(ctx, &ssd, mid, &file, NEEDLE.as_bytes()).unwrap();
        assert_eq!(a, b);
    });
    let report = sim.run();
    report.assert_quiescent();
    report.metrics
}

#[test]
fn metrics_export_is_byte_identical_across_identical_runs() {
    let first = metered_run_snapshot().to_json();
    let second = metered_run_snapshot().to_json();
    assert_eq!(
        first, second,
        "metrics export must be byte-identical across identical seeded runs"
    );
    assert!(first.starts_with('{') && first.trim_end().ends_with('}'));
}

#[test]
fn quickstart_style_run_reports_nand_and_port_activity() {
    let snap = metered_run_snapshot();

    // The grep workload reads the whole corpus: every NAND channel did work
    // and the device moved bytes over its channel buses.
    assert!(
        snap.counter_sum("nand_ops_total") > 0,
        "NAND channels recorded no operations"
    );
    assert!(snap.counter_sum("bus_bytes_total") > 0);
    assert!(snap.counter_sum("ftl_lookups_total") > 0);
    // The pattern matchers scanned pages and found the planted needles.
    assert!(snap.counter_sum("pm_scans_total") > 0);
    assert!(snap.counter_sum("pm_hits_total") > 0);

    // The Biscuit grep streams matches back over a D2H port.
    assert!(
        snap.counter_sum("port_sends_total") > 0,
        "no port traffic recorded"
    );
    assert_eq!(
        snap.counter_sum("port_sends_total"),
        snap.counter_sum("port_recvs_total"),
        "every sent message was received"
    );
    assert!(snap.counter_sum("port_bytes_total") > 0);

    // Both host-link DMA directions carried data (module image down,
    // conv reads up), and the scheduler ran more than one fiber.
    assert!(snap.counter_value("resource_bytes_total", &[("resource", "link.to_host")]) > Some(0));
    assert!(
        snap.counter_value("resource_bytes_total", &[("resource", "link.to_device")]) > Some(0)
    );
    assert!(snap.counter_sum("sim_fibers_spawned_total") > 1);
}

#[test]
fn traced_runs_export_byte_identical_json() {
    let first = traced_run_json();
    let second = traced_run_json();
    assert_eq!(
        first, second,
        "trace export must be byte-identical across identical seeded runs"
    );

    // Structural spot checks on the export itself.
    assert!(first.starts_with("{\"traceEvents\":["));
    assert!(first.ends_with("\"displayTimeUnit\":\"ms\"}"));

    // Timestamps must be monotonically non-decreasing in file order (what
    // chrome://tracing and Perfetto expect from a well-formed stream).
    let mut last = -1.0f64;
    for chunk in first.split("\"ts\":").skip(1) {
        let end = chunk
            .find([',', '}'])
            .expect("ts value is followed by more JSON");
        let ts: f64 = chunk[..end].parse().expect("ts is a plain decimal");
        assert!(ts >= last, "ts went backwards: {ts} after {last}");
        last = ts;
    }
    assert!(last >= 0.0, "the trace contains timestamped events");
}

/// Scale-out run: 16 concurrent grep queries over an 8-drive array, fed
/// through the admission-controlled scheduler, with full tracing and
/// metrics on. Returns both exports plus the summed match count.
fn scaleout_run() -> (String, String, u64) {
    const DRIVES: usize = 8;
    const SHARD_PAGES: u64 = 64;
    const QUERIES: u64 = 16;

    let mut expected = 0u64;
    let drives: Vec<Ssd> = (0..DRIVES)
        .map(|i| {
            let device = Arc::new(SsdDevice::new(SsdConfig {
                logical_capacity: 32 << 20,
                ..SsdConfig::paper_default()
            }));
            let fs = Fs::format(device);
            let page = fs.device().config().page_size as u64;
            let gen = Arc::new(WeblogGen::new(40 + i as u64, 300));
            expected += gen.count_needles(SHARD_PAGES, page as usize);
            fs.create_synthetic("shard.log", SHARD_PAGES * page, gen)
                .unwrap();
            Ssd::new(fs, CoreConfig::paper_default())
        })
        .collect();
    let array = SsdArray::new(drives, HostConfig::paper_default(), ArrayConfig::default());

    let sim = Simulation::new(99);
    sim.enable_trace(TraceConfig::default());
    sim.enable_metrics();

    let counts: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let got = Arc::clone(&counts);
    sim.spawn("host", move |ctx| {
        let grep = ArrayGrep::prepare(ctx, &array).unwrap();
        let sched = QueryScheduler::new(SchedulerConfig {
            users: 4,
            max_inflight: 4,
            queue_capacity: 4,
            weights: Vec::new(),
        });
        sched.start(ctx);
        for q in 0..QUERIES {
            let array = array.clone();
            let grep = grep.clone();
            let got = Arc::clone(&got);
            let job = move |qctx: &biscuit::sim::Ctx| {
                // Even queries offload, odd queries take the Conv loop —
                // both kinds interleave under the same admission gate.
                let n = if q % 2 == 0 {
                    grep.run(qctx, &array, "shard.log", NEEDLE.as_bytes(), HostLoad::IDLE)
                        .unwrap()
                } else {
                    array_conv_grep(qctx, &array, "shard.log", NEEDLE.as_bytes(), HostLoad::IDLE)
                        .unwrap()
                };
                got.lock().push(n);
            };
            sched.try_submit(ctx, (q % 4) as usize, 1, job).unwrap();
        }
        // Each of the 4 queues holds its 4 queries: nothing sheds.
        assert_eq!(sched.shed(), 0);
        sched.close(ctx);
        sched.wait_completed(ctx, QUERIES);
    });
    let report = sim.run();
    report.assert_quiescent();
    let all = counts.lock();
    assert_eq!(all.len(), QUERIES as usize);
    for &n in all.iter() {
        assert_eq!(n, expected, "every query sees the whole corpus");
    }
    (
        report.trace.to_chrome_json(),
        report.metrics.to_json(),
        expected,
    )
}

#[test]
fn scaleout_sixteen_queries_over_eight_drives_are_byte_identical() {
    let (trace_a, metrics_a, expected) = scaleout_run();
    let (trace_b, metrics_b, _) = scaleout_run();
    assert!(expected > 0, "the corpus plants needles");
    assert_eq!(
        trace_a, trace_b,
        "trace export must be byte-identical across identical seeded scale-out runs"
    );
    assert_eq!(
        metrics_a, metrics_b,
        "metrics export must be byte-identical across identical seeded scale-out runs"
    );
    // The exports carry the coordinator's own instrumentation.
    assert!(trace_a.contains("array_scatter"));
    assert!(metrics_a.contains("array_scatters_total"));
    assert!(metrics_a.contains("array_sched_completed_total"));
}
