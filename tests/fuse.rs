//! Inline sleeps are observationally invisible at full stack.
//!
//! `Ctx::sleep` advances the clock inline whenever no other fiber could
//! run first (see `docs/PERF.md`). These tests pin the contract that makes
//! that safe: for the same seed and workload, the default engine and the
//! always-park reference (`Simulation::set_fuse(false)`) export
//! **byte-identical** artifacts — match counts, virtual end times, event
//! counts, Chrome traces, metrics (minus the engine's own dispatch-path
//! meters), and query profiles — including under injected faults and under
//! every fleet thread policy.

use std::sync::Arc;

use biscuit::sim::sync::Mutex;

use biscuit::apps::search::{biscuit_grep, conv_grep, load_grep_module};
use biscuit::apps::weblog::{WeblogGen, NEEDLE};
use biscuit::core::{CoreConfig, Ssd};
use biscuit::fs::{Fs, Mode};
use biscuit::host::array::ArrayShard;
use biscuit::host::fleet::FleetConfig;
use biscuit::host::{ConvIo, HostConfig, HostLoad, SsdArray};
use biscuit::proto::Buf;
use biscuit::sim::fault::{FaultConfig, FaultPlan};
use biscuit::sim::fuse::VARIANT_METRICS;
use biscuit::sim::par::{ParConfig, ParMode};
use biscuit::sim::{Simulation, TraceConfig};
use biscuit::ssd::{SsdConfig, SsdDevice};

/// Everything one full-stack grep run exports.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    conv_count: u64,
    biscuit_count: u64,
    end_time_ps: u64,
    events: u64,
    trace: String,
    metrics: String,
    profiles: String,
    /// Logical switches (mirrored by inline sleeps) and real hand-offs.
    context_switches: u64,
    fiber_switches: u64,
}

/// One fresh drive holding a `pages`-page synthetic web log named "log".
fn drive(id: usize, gen_seed: u64, pages: u64) -> ArrayShard {
    let device = Arc::new(SsdDevice::new(SsdConfig {
        logical_capacity: 64 << 20,
        ..SsdConfig::paper_default()
    }));
    let fs = Fs::format(Arc::clone(&device));
    let page = device.config().page_size as u64;
    fs.create_synthetic("log", pages * page, Arc::new(WeblogGen::new(gen_seed, 300)))
        .unwrap();
    let ssd = Ssd::new(fs, CoreConfig::paper_default());
    let conv = ConvIo::new(
        Arc::clone(ssd.device()),
        Arc::clone(ssd.link()),
        HostConfig::paper_default(),
    );
    ArrayShard { id, ssd, conv }
}

/// Greps a synthetic web log both ways (Conv read path and device-side
/// offload) on one drive, with trace/metrics/qprof all on, optionally
/// under an armed fault plan.
fn grep_run(fuse: bool, plan: Option<&FaultPlan>) -> Observed {
    let ArrayShard { ssd, conv, .. } = drive(0, 7, 256);
    let file = ssd.fs().open("log", Mode::ReadOnly).unwrap();
    if let Some(p) = plan {
        ssd.device().set_fault_plan(p);
        ssd.link().set_fault_plan(p);
    }

    let sim = Simulation::new(1234);
    sim.set_fuse(fuse);
    sim.enable_trace(TraceConfig::default());
    sim.enable_metrics();
    sim.enable_qprof();

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
    let (conv_count, biscuit_count) = *counts.lock();
    Observed {
        conv_count,
        biscuit_count,
        end_time_ps: report.end_time.as_ps(),
        events: report.events_processed,
        trace: report.trace.to_chrome_json(),
        metrics: report.metrics.without(VARIANT_METRICS).to_json(),
        profiles: report.profiles.to_json(),
        context_switches: report.metrics.counter_sum("sim_context_switches_total"),
        fiber_switches: report.metrics.counter_sum("sim_fiber_switches_total"),
    }
}

/// Every export matches, the reference engine parked on every switch, and
/// the default engine ran some of them inline (so the comparison is not
/// vacuously park-vs-park).
fn assert_same_exports(parked: Observed, inline: Observed) {
    assert_eq!(parked.fiber_switches, parked.context_switches);
    assert!(
        inline.fiber_switches < inline.context_switches,
        "ports, link and datapath sleeps must run inline: {} of {}",
        inline.fiber_switches,
        inline.context_switches
    );
    assert_eq!(
        Observed {
            fiber_switches: 0,
            ..parked
        },
        Observed {
            fiber_switches: 0,
            ..inline
        }
    );
}

/// The core contract: toggling the engine changes no exported byte.
#[test]
fn fuse_toggle_is_byte_identical_full_stack() {
    let parked = grep_run(false, None);
    assert!(parked.conv_count > 0, "the corpus plants needles");
    assert_same_exports(parked, grep_run(true, None));
}

/// Under a saturating fault plan every read request draws an ECC retry;
/// its stretched completion is one more sleep, inline when legal, and the
/// exports still match byte for byte.
#[test]
fn faulted_runs_stay_byte_identical() {
    let plan = || {
        FaultPlan::seeded(
            11,
            FaultConfig {
                nand_read_error_rate: 1.0,
                link_corrupt_rate: 0.5,
                core_stall_rate: 0.5,
                ..FaultConfig::default()
            },
        )
    };
    let (pa, pb) = (plan(), plan());
    let parked = grep_run(false, Some(&pa));
    let inline = grep_run(true, Some(&pb));
    assert!(pa.injected_total() >= 1, "the plan actually fired");
    assert_eq!(pa.injected_total(), pb.injected_total());
    assert_same_exports(parked, inline);
}

/// A small write-then-read workload (program + journal wait from the write
/// path, then the read pipeline) is equally invariant.
#[test]
fn write_path_is_fuse_invariant() {
    let run = |fuse: bool| -> (u64, u64, String) {
        let device = Arc::new(SsdDevice::new(SsdConfig {
            logical_capacity: 32 << 20,
            ..SsdConfig::paper_default()
        }));
        let sim = Simulation::new(77);
        sim.set_fuse(fuse);
        sim.enable_metrics();
        let dev = Arc::clone(&device);
        sim.spawn("writer", move |ctx| {
            let pages: Vec<(u64, Buf)> = (0..64u64)
                .map(|i| {
                    let page = vec![(i % 251) as u8; dev.config().page_size];
                    (i, Buf::from_vec(page))
                })
                .collect();
            dev.write_bufs_async(ctx, &pages, 4).unwrap();
            for (lpn, data) in &pages {
                let got = dev.read_pages(ctx, &[*lpn]).unwrap();
                assert_eq!(&got[0][..], &data[..]);
            }
        });
        let report = sim.run();
        report.assert_quiescent();
        (
            report.end_time.as_ps(),
            report.events_processed,
            report.metrics.without(VARIANT_METRICS).to_json(),
        )
    };
    assert_eq!(run(false), run(true));
}

/// The engines agree on the parallel fleet too: every thread policy merges
/// the same items and exports the same bytes as the single-threaded
/// always-park reference. The shard builder's `&Simulation` selects the
/// engine.
#[test]
fn fleet_policies_and_fuse_agree() {
    let run = |mode: ParMode, fuse: bool| {
        let cfg = FleetConfig {
            drives: 2,
            seed: 7,
            metrics: true,
            trace: Some(TraceConfig::default()),
            qprof: true,
            par: ParConfig::new(mode),
        };
        let report = SsdArray::scatter_parallel::<u64, _, _>(
            &cfg,
            move |i, sim| {
                sim.set_fuse(fuse);
                drive(i, 100 + i as u64, 24)
            },
            |ctx, shard, tx| {
                let mid = load_grep_module(ctx, &shard.ssd).unwrap();
                let file = shard.ssd.fs().open("log", Mode::ReadOnly).unwrap();
                for _ in 0..2 {
                    let span = ctx.qprof().begin_query(ctx, shard.id as u32);
                    tx.send(biscuit_grep(ctx, &shard.ssd, mid, &file, NEEDLE.as_bytes()).unwrap());
                    if let Some(sc) = span {
                        ctx.qprof().end_query(ctx, sc);
                    }
                }
            },
        );
        report.assert_quiescent();
        (
            report.items.clone(),
            report.trace_json(),
            report.metrics_json(),
            report.profiles_json(),
            report.events_processed(),
        )
    };

    let reference = run(ParMode::Single, false);
    assert!(reference.0.iter().all(|(_, count)| *count > 0));
    for mode in [ParMode::Single, ParMode::PerShard, ParMode::Threads(2)] {
        for fuse in [false, true] {
            let got = run(mode, fuse);
            assert_eq!(got, reference, "{mode:?}/fuse={fuse}");
        }
    }
}
