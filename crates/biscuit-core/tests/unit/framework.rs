//! Integration tests for the Biscuit framework: lifecycle, wiring rules,
//! Table II latency structure, and resource accounting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use biscuit_sim::sync::Mutex;

use crate::module::{ModuleBuilder, SsdletSpec};
use crate::task::{args_as, Ssdlet, TaskCtx};
use crate::{connect_apps, Application, BiscuitError, CoreConfig, Ssd};
use biscuit_fs::Fs;
use biscuit_sim::time::SimDuration;
use biscuit_sim::Simulation;
use biscuit_ssd::{SsdConfig, SsdDevice};

fn make_ssd() -> Ssd {
    let dev = Arc::new(SsdDevice::new(SsdConfig {
        logical_capacity: 64 << 20,
        ..SsdConfig::paper_default()
    }));
    Ssd::new(Fs::format(dev), CoreConfig::paper_default())
}

/// Forwards u64 values, unchanged.
struct Identity;
impl Ssdlet for Identity {
    fn run(&mut self, ctx: &mut TaskCtx<'_>) {
        while let Some(v) = ctx.recv::<u64>(0).unwrap() {
            ctx.send(0, v).unwrap();
        }
    }
}

fn identity_module() -> crate::SsdletModule {
    ModuleBuilder::new("test")
        .register(
            "idIdentity",
            SsdletSpec::new().input::<u64>().output::<u64>(),
            |_| Ok(Box::new(Identity)),
        )
        .build()
}

#[test]
fn module_load_unload_lifecycle() {
    let ssd = make_ssd();
    let sim = Simulation::new(0);
    let s = ssd.clone();
    sim.spawn("host", move |ctx| {
        let mid = s.load_module(ctx, identity_module()).unwrap();
        assert_eq!(s.runtime().loaded_modules(), 1);
        // Unknown SSDlet id is rejected early.
        let app = Application::new(&s, "x");
        assert!(matches!(
            app.ssdlet(mid, "idNope"),
            Err(BiscuitError::SsdletNotRegistered { .. })
        ));
        s.unload_module(ctx, mid).unwrap();
        assert_eq!(s.runtime().loaded_modules(), 0);
        // Double unload fails.
        assert!(matches!(
            s.unload_module(ctx, mid),
            Err(BiscuitError::ModuleNotFound(_))
        ));
    });
    sim.run().assert_quiescent();
}

#[test]
fn unload_while_running_is_rejected() {
    let ssd = make_ssd();
    let sim = Simulation::new(0);
    let s = ssd.clone();
    sim.spawn("host", move |ctx| {
        let mid = s.load_module(ctx, identity_module()).unwrap();
        let app = Application::new(&s, "busy");
        let id = app.ssdlet(mid, "idIdentity").unwrap();
        let tx = app.connect_from::<u64>(id.input(0)).unwrap();
        let rx = app.connect_to::<u64>(id.out(0)).unwrap();
        app.start(ctx).unwrap();
        // SSDlet is blocked on input: module must refuse to unload.
        assert!(matches!(
            s.unload_module(ctx, mid),
            Err(BiscuitError::ModuleBusy(_))
        ));
        tx.close(ctx);
        assert_eq!(rx.get(ctx), None);
        app.join(ctx);
        s.unload_module(ctx, mid).unwrap();
    });
    sim.run().assert_quiescent();
}

#[test]
fn type_mismatch_rejected_at_connect() {
    let ssd = make_ssd();
    let sim = Simulation::new(0);
    let s = ssd.clone();
    sim.spawn("host", move |ctx| {
        let mid = s.load_module(ctx, identity_module()).unwrap();
        let app = Application::new(&s, "t");
        let a = app.ssdlet(mid, "idIdentity").unwrap();
        let b = app.ssdlet(mid, "idIdentity").unwrap();
        // Port declares u64; connecting as String must fail (paper §III-C:
        // "they cannot connect a string output to a numeric input").
        assert!(matches!(
            app.connect::<String>(a.out(0), b.input(0)),
            Err(BiscuitError::TypeMismatch { .. })
        ));
        assert!(matches!(
            app.connect_to::<String>(a.out(0)),
            Err(BiscuitError::TypeMismatch { .. })
        ));
        // Out-of-range port index.
        assert!(matches!(
            app.connect::<u64>(a.out(3), b.input(0)),
            Err(BiscuitError::PortOutOfRange { .. })
        ));
        // Correct connect succeeds; close everything down cleanly.
        app.connect::<u64>(a.out(0), b.input(0)).unwrap();
        let tx = app.connect_from::<u64>(a.input(0)).unwrap();
        let rx = app.connect_to::<u64>(b.out(0)).unwrap();
        app.start(ctx).unwrap();
        tx.put(ctx, 7).unwrap();
        tx.close(ctx);
        assert_eq!(rx.get(ctx), Some(7));
        assert_eq!(rx.get(ctx), None);
        app.join(ctx);
    });
    sim.run().assert_quiescent();
}

#[test]
fn boundary_ports_are_spsc_only() {
    let ssd = make_ssd();
    let sim = Simulation::new(0);
    let s = ssd.clone();
    sim.spawn("host", move |ctx| {
        let mid = s.load_module(ctx, identity_module()).unwrap();
        let app = Application::new(&s, "s");
        let a = app.ssdlet(mid, "idIdentity").unwrap();
        let _rx = app.connect_to::<u64>(a.out(0)).unwrap();
        // Second consumer on the same boundary output: rejected.
        assert!(matches!(
            app.connect_to::<u64>(a.out(0)),
            Err(BiscuitError::ConnectionNotAllowed(_))
        ));
        let _tx = app.connect_from::<u64>(a.input(0)).unwrap();
        assert!(matches!(
            app.connect_from::<u64>(a.input(0)),
            Err(BiscuitError::ConnectionNotAllowed(_))
        ));
    });
    sim.run().assert_quiescent();
}

#[test]
fn spmc_and_mpsc_inter_ssdlet_topologies() {
    // producer -> (identity x2, SPMC) -> collector (MPSC)
    struct Producer(u64);
    impl Ssdlet for Producer {
        fn run(&mut self, ctx: &mut TaskCtx<'_>) {
            for i in 0..self.0 {
                ctx.send(0, i).unwrap();
            }
        }
    }
    struct Collector(Arc<Mutex<Vec<u64>>>);
    impl Ssdlet for Collector {
        fn run(&mut self, ctx: &mut TaskCtx<'_>) {
            while let Some(v) = ctx.recv::<u64>(0).unwrap() {
                self.0.lock().push(v);
            }
        }
    }
    let results: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let results2 = Arc::clone(&results);
    let module = ModuleBuilder::new("topo")
        .register("idProducer", SsdletSpec::new().output::<u64>(), |args| {
            Ok(Box::new(Producer(args_as::<u64>(args)?)))
        })
        .register(
            "idIdentity",
            SsdletSpec::new().input::<u64>().output::<u64>(),
            |_| Ok(Box::new(Identity)),
        )
        .register(
            "idCollector",
            SsdletSpec::new().input::<u64>(),
            move |args| {
                let sink = args_as::<Arc<Mutex<Vec<u64>>>>(args)?;
                Ok(Box::new(Collector(sink)))
            },
        )
        .build();

    let ssd = make_ssd();
    let sim = Simulation::new(0);
    let s = ssd.clone();
    sim.spawn("host", move |ctx| {
        let mid = s.load_module(ctx, module).unwrap();
        let app = Application::new(&s, "topo");
        let prod = app.ssdlet_with(mid, "idProducer", 40u64).unwrap();
        let w1 = app.ssdlet(mid, "idIdentity").unwrap();
        let w2 = app.ssdlet(mid, "idIdentity").unwrap();
        let coll = app
            .ssdlet_with(mid, "idCollector", Arc::clone(&results2))
            .unwrap();
        // SPMC: one producer output queue shared by two identity workers.
        app.connect::<u64>(prod.out(0), w1.input(0)).unwrap();
        app.connect::<u64>(prod.out(0), w2.input(0)).unwrap();
        // MPSC: both workers feed the collector's single input queue.
        app.connect::<u64>(w1.out(0), coll.input(0)).unwrap();
        app.connect::<u64>(w2.out(0), coll.input(0)).unwrap();
        app.start(ctx).unwrap();
        app.join(ctx);
    });
    sim.run().assert_quiescent();
    let mut got = results.lock().clone();
    got.sort_unstable();
    assert_eq!(got, (0..40u64).collect::<Vec<_>>());
}

#[test]
fn table2_h2d_latency() {
    // One-way host -> device latency for a small packet: ~301.6us.
    let ssd = make_ssd();
    let sim = Simulation::new(0);
    let s = ssd.clone();
    let measured = Arc::new(AtomicU64::new(0));
    let m = Arc::clone(&measured);

    struct RecvOnce(Arc<AtomicU64>);
    impl Ssdlet for RecvOnce {
        fn run(&mut self, ctx: &mut TaskCtx<'_>) {
            let sent_at = ctx.recv::<u64>(0).unwrap().unwrap();
            self.0
                .store(ctx.now().as_nanos() - sent_at, Ordering::SeqCst);
            while ctx.recv::<u64>(0).unwrap().is_some() {}
        }
    }
    let module = ModuleBuilder::new("lat")
        .register("idRecv", SsdletSpec::new().input::<u64>(), move |args| {
            Ok(Box::new(RecvOnce(args_as::<Arc<AtomicU64>>(args)?)))
        })
        .build();
    sim.spawn("host", move |ctx| {
        let mid = s.load_module(ctx, module).unwrap();
        let app = Application::new(&s, "lat");
        let r = app.ssdlet_with(mid, "idRecv", m).unwrap();
        let tx = app.connect_from::<u64>(r.input(0)).unwrap();
        app.start(ctx).unwrap();
        ctx.sleep(SimDuration::from_micros(500)); // let the SSDlet block first
        tx.put(ctx, ctx.now().as_nanos()).unwrap();
        tx.close(ctx);
        app.join(ctx);
    });
    sim.run().assert_quiescent();
    let us = measured.load(Ordering::SeqCst) as f64 / 1000.0;
    assert!(
        (300.0..304.0).contains(&us),
        "H2D one-way latency {us}us, paper: 301.6us"
    );
}

#[test]
fn table2_d2h_latency() {
    let ssd = make_ssd();
    let sim = Simulation::new(0);
    let s = ssd.clone();

    struct SendOnce;
    impl Ssdlet for SendOnce {
        fn run(&mut self, ctx: &mut TaskCtx<'_>) {
            // Give the host time to block on get() first.
            ctx.sim().sleep(SimDuration::from_micros(500));
            ctx.send(0, ctx.now().as_nanos()).unwrap();
        }
    }
    let module = ModuleBuilder::new("lat")
        .register("idSend", SsdletSpec::new().output::<u64>(), |_| {
            Ok(Box::new(SendOnce))
        })
        .build();
    let measured = Arc::new(AtomicU64::new(0));
    let m = Arc::clone(&measured);
    sim.spawn("host", move |ctx| {
        let mid = s.load_module(ctx, module).unwrap();
        let app = Application::new(&s, "lat");
        let t = app.ssdlet(mid, "idSend").unwrap();
        let rx = app.connect_to::<u64>(t.out(0)).unwrap();
        app.start(ctx).unwrap();
        let sent_at = rx.get(ctx).unwrap();
        m.store(ctx.now().as_nanos() - sent_at, Ordering::SeqCst);
        app.join(ctx);
    });
    sim.run().assert_quiescent();
    let us = measured.load(Ordering::SeqCst) as f64 / 1000.0;
    assert!(
        (129.0..132.0).contains(&us),
        "D2H one-way latency {us}us, paper: 130.1us"
    );
}

#[test]
fn table2_inter_ssdlet_latency() {
    let ssd = make_ssd();
    let sim = Simulation::new(0);
    let s = ssd.clone();
    let measured = Arc::new(AtomicU64::new(0));
    let m = Arc::clone(&measured);

    struct Sender;
    impl Ssdlet for Sender {
        fn run(&mut self, ctx: &mut TaskCtx<'_>) {
            ctx.sim().sleep(SimDuration::from_micros(100));
            ctx.send(0, ctx.now().as_nanos()).unwrap();
        }
    }
    struct Receiver(Arc<AtomicU64>);
    impl Ssdlet for Receiver {
        fn run(&mut self, ctx: &mut TaskCtx<'_>) {
            let sent_at = ctx.recv::<u64>(0).unwrap().unwrap();
            self.0
                .store(ctx.now().as_nanos() - sent_at, Ordering::SeqCst);
        }
    }
    let module = ModuleBuilder::new("lat")
        .register("idSender", SsdletSpec::new().output::<u64>(), |_| {
            Ok(Box::new(Sender))
        })
        .register(
            "idReceiver",
            SsdletSpec::new().input::<u64>(),
            move |args| Ok(Box::new(Receiver(args_as::<Arc<AtomicU64>>(args)?))),
        )
        .build();
    sim.spawn("host", move |ctx| {
        let mid = s.load_module(ctx, module).unwrap();
        let app = Application::new(&s, "lat");
        let tx = app.ssdlet(mid, "idSender").unwrap();
        let rx = app.ssdlet_with(mid, "idReceiver", m).unwrap();
        app.connect::<u64>(tx.out(0), rx.input(0)).unwrap();
        app.start(ctx).unwrap();
        app.join(ctx);
    });
    sim.run().assert_quiescent();
    let us = measured.load(Ordering::SeqCst) as f64 / 1000.0;
    assert!(
        (30.5..31.5).contains(&us),
        "inter-SSDlet latency {us}us, paper: 31.0us"
    );
}

#[test]
fn table2_inter_app_latency() {
    let ssd = make_ssd();
    let sim = Simulation::new(0);
    let s = ssd.clone();
    let measured = Arc::new(AtomicU64::new(0));
    let m = Arc::clone(&measured);

    struct Sender;
    impl Ssdlet for Sender {
        fn run(&mut self, ctx: &mut TaskCtx<'_>) {
            ctx.sim().sleep(SimDuration::from_micros(5000));
            ctx.send(0, ctx.now().as_nanos()).unwrap();
        }
    }
    struct Receiver(Arc<AtomicU64>);
    impl Ssdlet for Receiver {
        fn run(&mut self, ctx: &mut TaskCtx<'_>) {
            let sent_at = ctx.recv::<u64>(0).unwrap().unwrap();
            self.0
                .store(ctx.now().as_nanos() - sent_at, Ordering::SeqCst);
        }
    }
    let module = ModuleBuilder::new("lat")
        .register("idSender", SsdletSpec::new().output::<u64>(), |_| {
            Ok(Box::new(Sender))
        })
        .register(
            "idReceiver",
            SsdletSpec::new().input::<u64>(),
            move |args| Ok(Box::new(Receiver(args_as::<Arc<AtomicU64>>(args)?))),
        )
        .build();
    sim.spawn("host", move |ctx| {
        let mid = s.load_module(ctx, module).unwrap();
        let app_a = Application::new(&s, "A");
        let app_b = Application::new(&s, "B");
        let tx = app_a.ssdlet(mid, "idSender").unwrap();
        let rx = app_b.ssdlet_with(mid, "idReceiver", m).unwrap();
        connect_apps::<u64>((&app_a, tx.out(0)), (&app_b, rx.input(0))).unwrap();
        app_a.start(ctx).unwrap();
        app_b.start(ctx).unwrap();
        app_a.join(ctx);
        app_b.join(ctx);
    });
    sim.run().assert_quiescent();
    let us = measured.load(Ordering::SeqCst) as f64 / 1000.0;
    assert!(
        (10.2..11.2).contains(&us),
        "inter-app latency {us}us, paper: 10.7us"
    );
}

#[test]
fn memory_exhaustion_fails_start_and_rolls_back() {
    let ssd = make_ssd();
    let sim = Simulation::new(0);
    let s = ssd.clone();
    let dram = ssd.device().config().dram_bytes;
    let module = ModuleBuilder::new("mem")
        .register("idHog", SsdletSpec::new().memory(dram + 1), |_| {
            Ok(Box::new(Identity))
        })
        .register("idHalf", SsdletSpec::new().memory(dram / 2 + 1), |_| {
            Ok(Box::new(Identity))
        })
        .build();
    sim.spawn("host", move |ctx| {
        let mid = s.load_module(ctx, module).unwrap();
        let user_used = || s.device().memory().used(biscuit_ssd::memory::Arena::User);
        // One SSDlet larger than the whole arena: nothing is granted.
        let app = Application::new(&s, "hog");
        app.ssdlet(mid, "idHog").unwrap();
        assert!(matches!(app.start(ctx), Err(BiscuitError::OutOfMemory(_))));
        assert_eq!(user_used(), 0);
        // Two SSDlets that each fit alone but not together: the first
        // one's grant is taken, the second fails, and the rollback must
        // free the first.
        let pair = Application::new(&s, "pair");
        pair.ssdlet(mid, "idHalf").unwrap();
        pair.ssdlet(mid, "idHalf").unwrap();
        assert!(matches!(pair.start(ctx), Err(BiscuitError::OutOfMemory(_))));
        assert_eq!(user_used(), 0);
    });
    sim.run().assert_quiescent();
}

#[test]
fn memory_freed_after_app_completes() {
    let ssd = make_ssd();
    let sim = Simulation::new(0);
    let s = ssd.clone();
    sim.spawn("host", move |ctx| {
        let mid = s.load_module(ctx, identity_module()).unwrap();
        let app = Application::new(&s, "m");
        let a = app.ssdlet(mid, "idIdentity").unwrap();
        let tx = app.connect_from::<u64>(a.input(0)).unwrap();
        let _rx = app.connect_to::<u64>(a.out(0)).unwrap();
        app.start(ctx).unwrap();
        assert!(s.device().memory().used(biscuit_ssd::memory::Arena::User) > 0);
        tx.close(ctx);
        app.join(ctx);
        assert_eq!(
            s.device().memory().used(biscuit_ssd::memory::Arena::User),
            0
        );
        assert_eq!(s.runtime().open_channels(), 0);
    });
    sim.run().assert_quiescent();
}

#[test]
fn channel_pool_exhaustion() {
    let dev = Arc::new(SsdDevice::new(SsdConfig {
        logical_capacity: 64 << 20,
        ..SsdConfig::paper_default()
    }));
    let ssd = Ssd::new(
        Fs::format(dev),
        CoreConfig {
            max_data_channels: 2,
            ..CoreConfig::paper_default()
        },
    );
    let sim = Simulation::new(0);
    let s = ssd.clone();
    sim.spawn("host", move |ctx| {
        let mid = s.load_module(ctx, identity_module()).unwrap();
        let app = Application::new(&s, "c");
        let a = app.ssdlet(mid, "idIdentity").unwrap();
        let b = app.ssdlet(mid, "idIdentity").unwrap();
        let _p1 = app.connect_from::<u64>(a.input(0)).unwrap();
        let _p2 = app.connect_to::<u64>(a.out(0)).unwrap();
        assert!(matches!(
            app.connect_from::<u64>(b.input(0)),
            Err(BiscuitError::NoChannel { .. })
        ));
    });
    sim.run().assert_quiescent();
}

#[test]
fn connections_rejected_after_start() {
    let ssd = make_ssd();
    let sim = Simulation::new(0);
    let s = ssd.clone();
    sim.spawn("host", move |ctx| {
        let mid = s.load_module(ctx, identity_module()).unwrap();
        let app = Application::new(&s, "late");
        let a = app.ssdlet(mid, "idIdentity").unwrap();
        let tx = app.connect_from::<u64>(a.input(0)).unwrap();
        let _rx = app.connect_to::<u64>(a.out(0)).unwrap();
        app.start(ctx).unwrap();
        assert!(matches!(
            app.ssdlet(mid, "idIdentity"),
            Err(BiscuitError::InvalidState(_))
        ));
        assert!(matches!(app.start(ctx), Err(BiscuitError::InvalidState(_))));
        tx.close(ctx);
        app.join(ctx);
    });
    sim.run().assert_quiescent();
}

#[test]
fn backpressure_bounds_queue_occupancy() {
    // A fast producer into a slow consumer must block at the queue bound.
    struct Burst(u64);
    impl Ssdlet for Burst {
        fn run(&mut self, ctx: &mut TaskCtx<'_>) {
            for i in 0..self.0 {
                ctx.send(0, i).unwrap();
            }
        }
    }
    struct Slow;
    impl Ssdlet for Slow {
        fn run(&mut self, ctx: &mut TaskCtx<'_>) {
            while ctx.recv::<u64>(0).unwrap().is_some() {
                ctx.sim().sleep(SimDuration::from_micros(100));
            }
        }
    }
    let module = ModuleBuilder::new("bp")
        .register("idBurst", SsdletSpec::new().output::<u64>(), |args| {
            Ok(Box::new(Burst(args_as::<u64>(args)?)))
        })
        .register("idSlow", SsdletSpec::new().input::<u64>(), |_| {
            Ok(Box::new(Slow))
        })
        .build();
    let dev = Arc::new(SsdDevice::new(SsdConfig {
        logical_capacity: 64 << 20,
        ..SsdConfig::paper_default()
    }));
    let ssd = Ssd::new(
        Fs::format(dev),
        CoreConfig {
            port_capacity: 4,
            ..CoreConfig::paper_default()
        },
    );
    let sim = Simulation::new(0);
    let s = ssd.clone();
    sim.spawn("host", move |ctx| {
        let mid = s.load_module(ctx, module).unwrap();
        let app = Application::new(&s, "bp");
        let b = app.ssdlet_with(mid, "idBurst", 64u64).unwrap();
        let c = app.ssdlet(mid, "idSlow").unwrap();
        app.connect::<u64>(b.out(0), c.input(0)).unwrap();
        app.start(ctx).unwrap();
        app.join(ctx);
    });
    let report = sim.run();
    report.assert_quiescent();
    // 64 items at >=100us each of consumer pacing: producer blocked most of
    // the run, so total time is dominated by the consumer.
    assert!(report.end_time.as_micros() >= 6_000);
}

#[test]
fn many_concurrent_applications_stress() {
    // 12 applications x 4-stage pipelines = 48 SSDlets live at once, all
    // pinned round-robin onto the two device cores, plus 24 host channels.
    // Everything must terminate, produce exact results, and release every
    // resource.
    let dev = Arc::new(SsdDevice::new(SsdConfig {
        logical_capacity: 64 << 20,
        ..SsdConfig::paper_default()
    }));
    let ssd = Ssd::new(
        Fs::format(dev),
        CoreConfig {
            max_data_channels: 64,
            ..CoreConfig::paper_default()
        },
    );
    let sim = Simulation::new(0);
    let s = ssd.clone();
    let results = Arc::new(Mutex::new(Vec::<(usize, Vec<u64>)>::new()));
    let r = Arc::clone(&results);
    sim.spawn("host", move |ctx| {
        let mid = s.load_module(ctx, identity_module()).unwrap();
        let mut apps = Vec::new();
        for app_idx in 0..12usize {
            let app = Application::new(&s, format!("stress-{app_idx}"));
            let stages: Vec<_> = (0..4)
                .map(|_| app.ssdlet(mid, "idIdentity").unwrap())
                .collect();
            for pair in stages.windows(2) {
                app.connect::<u64>(pair[0].out(0), pair[1].input(0))
                    .unwrap();
            }
            let tx = app.connect_from::<u64>(stages[0].input(0)).unwrap();
            let rx = app.connect_to::<u64>(stages[3].out(0)).unwrap();
            app.start(ctx).unwrap();
            apps.push((app_idx, app, tx, rx));
        }
        // Interleave traffic across all applications.
        for i in 0..20u64 {
            for (app_idx, _, tx, _) in &apps {
                tx.put(ctx, i * 100 + *app_idx as u64).unwrap();
            }
        }
        for (_, _, tx, _) in &apps {
            tx.close(ctx);
        }
        for (app_idx, app, _, rx) in &apps {
            let got: Vec<u64> = std::iter::from_fn(|| rx.get(ctx)).collect();
            r.lock().push((*app_idx, got));
            app.join(ctx);
        }
        // Every resource returned.
        assert_eq!(s.runtime().open_channels(), 0);
        assert_eq!(
            s.device().memory().used(biscuit_ssd::memory::Arena::User),
            0
        );
        s.unload_module(ctx, mid).unwrap();
    });
    let report = sim.run();
    report.assert_quiescent();
    let results = results.lock();
    assert_eq!(results.len(), 12);
    for (app_idx, got) in results.iter() {
        let expect: Vec<u64> = (0..20).map(|i| i * 100 + *app_idx as u64).collect();
        assert_eq!(got, &expect, "app {app_idx} lost or reordered data");
    }
    // 1 host + 48 SSDlets.
    assert_eq!(report.fibers_spawned, 49);
}

/// Telemetry does not depend on wiring order: the platform, the application
/// and both kinds of edge exist before any observer is switched on, and the
/// one message that then crosses them is still seen by every layer.
#[test]
fn observers_enabled_after_wiring_see_the_traffic() {
    use biscuit_sim::metrics::SampleValue;
    use biscuit_sim::{TraceConfig, TraceEvent};

    struct SendOnce;
    impl Ssdlet for SendOnce {
        fn run(&mut self, ctx: &mut TaskCtx<'_>) {
            ctx.send(0, 7u64).unwrap();
        }
    }
    let module = ModuleBuilder::new("order")
        .register("idSend", SsdletSpec::new().output::<u64>(), |_| {
            Ok(Box::new(SendOnce))
        })
        .register(
            "idIdentity",
            SsdletSpec::new().input::<u64>().output::<u64>(),
            |_| Ok(Box::new(Identity)),
        )
        .build();

    let ssd = make_ssd();
    let sim = Simulation::new(0);
    let s = ssd.clone();
    sim.spawn("host", move |ctx| {
        let mid = s.load_module(ctx, module).unwrap();
        let app = Application::new(&s, "order");
        let send = app.ssdlet(mid, "idSend").unwrap();
        let fwd = app.ssdlet(mid, "idIdentity").unwrap();
        app.connect::<u64>(send.out(0), fwd.input(0)).unwrap();
        let rx = app.connect_to::<u64>(fwd.out(0)).unwrap();
        // Everything is wired; only now does anyone start watching.
        ctx.tracer().enable(TraceConfig::default());
        ctx.metrics().enable();
        app.start(ctx).unwrap();
        assert_eq!(rx.get(ctx), Some(7));
        assert_eq!(rx.get(ctx), None);
        app.join(ctx);
    });
    let report = sim.run();
    report.assert_quiescent();

    for name in ["port_sends_total", "port_recvs_total"] {
        let per_port: Vec<_> = report
            .metrics
            .samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| &s.value)
            .collect();
        assert_eq!(per_port.len(), 2, "{name}: one series per edge");
        for v in per_port {
            assert!(matches!(v, SampleValue::Counter(1)), "{name}: {v:?}");
        }
    }
    let sends = report
        .trace
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::PortSend { .. }))
        .count();
    assert_eq!(sends, 2, "one PortSend per edge");
    for dir in ["link.to_host", "link.to_device"] {
        assert!(
            report
                .metrics
                .get("resource_bytes_total", &[("resource", dir)])
                .is_some(),
            "{dir} has no resource_bytes_total sample"
        );
    }
}
