//! Port edge cases: runtime type guards, unconnected ports, closed-port
//! sends, and deep pipelines.

use std::sync::Arc;

use biscuit_sim::sync::Mutex;

use biscuit_core::module::{ModuleBuilder, SsdletSpec};
use biscuit_core::task::{args_as, Ssdlet, TaskCtx};
use biscuit_core::{Application, BiscuitError, CoreConfig, Ssd};
use biscuit_fs::Fs;
use biscuit_sim::Simulation;
use biscuit_ssd::{SsdConfig, SsdDevice};

fn make_ssd() -> Ssd {
    let dev = Arc::new(SsdDevice::new(SsdConfig {
        logical_capacity: 64 << 20,
        ..SsdConfig::paper_default()
    }));
    Ssd::new(Fs::format(dev), CoreConfig::paper_default())
}

#[test]
fn recv_with_wrong_type_is_rejected_at_runtime() {
    struct WrongRecv(Arc<Mutex<Option<String>>>);
    impl Ssdlet for WrongRecv {
        fn run(&mut self, ctx: &mut TaskCtx<'_>) {
            // Port declared u64; asking for a String must error, matching
            // the paper's "aggressive type checking at ... run time".
            let err = ctx.recv::<String>(0).unwrap_err();
            *self.0.lock() = Some(err.to_string());
            // Drain properly so the app terminates.
            while ctx.recv::<u64>(0).unwrap().is_some() {}
        }
    }
    let witness: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
    let w = Arc::clone(&witness);
    let module = ModuleBuilder::new("t")
        .register("idWrong", SsdletSpec::new().input::<u64>(), move |args| {
            Ok(Box::new(WrongRecv(args_as(args)?)))
        })
        .build();
    let ssd = make_ssd();
    let sim = Simulation::new(0);
    let s = ssd.clone();
    sim.spawn("host", move |ctx| {
        let mid = s.load_module(ctx, module).unwrap();
        let app = Application::new(&s, "t");
        let t = app.ssdlet_with(mid, "idWrong", Arc::clone(&w)).unwrap();
        let tx = app.connect_from::<u64>(t.input(0)).unwrap();
        app.start(ctx).unwrap();
        tx.close(ctx);
        app.join(ctx);
    });
    sim.run().assert_quiescent();
    let msg = witness.lock().clone().expect("error captured");
    assert!(msg.contains("type mismatch"), "{msg}");
}

#[test]
fn unconnected_port_access_errors() {
    struct Lonely(Arc<Mutex<Vec<String>>>);
    impl Ssdlet for Lonely {
        fn run(&mut self, ctx: &mut TaskCtx<'_>) {
            let mut log = self.0.lock();
            log.push(ctx.recv::<u64>(0).unwrap_err().to_string());
            log.push(ctx.send(0, 1u64).unwrap_err().to_string());
            log.push(ctx.recv::<u64>(9).unwrap_err().to_string());
        }
    }
    let witness: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let w = Arc::clone(&witness);
    let module = ModuleBuilder::new("t")
        .register(
            "idLonely",
            SsdletSpec::new().input::<u64>().output::<u64>(),
            move |args| Ok(Box::new(Lonely(args_as(args)?))),
        )
        .build();
    let ssd = make_ssd();
    let sim = Simulation::new(0);
    let s = ssd.clone();
    sim.spawn("host", move |ctx| {
        let mid = s.load_module(ctx, module).unwrap();
        let app = Application::new(&s, "t");
        app.ssdlet_with(mid, "idLonely", Arc::clone(&w)).unwrap();
        app.start(ctx).unwrap();
        app.join(ctx);
    });
    sim.run().assert_quiescent();
    let log = witness.lock().clone();
    assert!(log[0].contains("not connected"), "{log:?}");
    assert!(log[1].contains("not connected"), "{log:?}");
    assert!(log[2].contains("out of range"), "{log:?}");
}

#[test]
fn host_put_after_close_errors() {
    struct Sink;
    impl Ssdlet for Sink {
        fn run(&mut self, ctx: &mut TaskCtx<'_>) {
            while ctx.recv::<u64>(0).unwrap().is_some() {}
        }
    }
    let module = ModuleBuilder::new("t")
        .register("idSink", SsdletSpec::new().input::<u64>(), |_| {
            Ok(Box::new(Sink))
        })
        .build();
    let ssd = make_ssd();
    let sim = Simulation::new(0);
    let s = ssd.clone();
    sim.spawn("host", move |ctx| {
        let mid = s.load_module(ctx, module).unwrap();
        let app = Application::new(&s, "t");
        let t = app.ssdlet(mid, "idSink").unwrap();
        let tx = app.connect_from::<u64>(t.input(0)).unwrap();
        app.start(ctx).unwrap();
        tx.put(ctx, 1).unwrap();
        tx.close(ctx);
        assert!(matches!(
            tx.put(ctx, 2),
            Err(BiscuitError::PortClosed { .. })
        ));
        tx.close(ctx); // idempotent
        app.join(ctx);
    });
    sim.run().assert_quiescent();
}

#[test]
fn deep_pipeline_preserves_order() {
    struct PlusOne;
    impl Ssdlet for PlusOne {
        fn run(&mut self, ctx: &mut TaskCtx<'_>) {
            while let Some(v) = ctx.recv::<u64>(0).unwrap() {
                ctx.send(0, v + 1).unwrap();
            }
        }
    }
    let module = ModuleBuilder::new("t")
        .register(
            "idPlusOne",
            SsdletSpec::new().input::<u64>().output::<u64>(),
            |_| Ok(Box::new(PlusOne)),
        )
        .build();
    let ssd = make_ssd();
    let sim = Simulation::new(0);
    let s = ssd.clone();
    sim.spawn("host", move |ctx| {
        let mid = s.load_module(ctx, module).unwrap();
        let app = Application::new(&s, "pipe");
        const STAGES: usize = 8;
        let stages: Vec<_> = (0..STAGES)
            .map(|_| app.ssdlet(mid, "idPlusOne").unwrap())
            .collect();
        for pair in stages.windows(2) {
            app.connect::<u64>(pair[0].out(0), pair[1].input(0))
                .unwrap();
        }
        let tx = app.connect_from::<u64>(stages[0].input(0)).unwrap();
        let rx = app.connect_to::<u64>(stages[STAGES - 1].out(0)).unwrap();
        app.start(ctx).unwrap();
        for i in 0..100u64 {
            tx.put(ctx, i).unwrap();
        }
        tx.close(ctx);
        let got: Vec<u64> = std::iter::from_fn(|| rx.get(ctx)).collect();
        let expect: Vec<u64> = (0..100).map(|i| i + STAGES as u64).collect();
        assert_eq!(got, expect, "data-ordered delivery through {STAGES} stages");
        app.join(ctx);
    });
    sim.run().assert_quiescent();
}

#[test]
fn deadlocked_ssdlets_are_reported_not_hung() {
    // Two SSDlets each waiting for the other's first message: the classic
    // dataflow deadlock. The simulation must terminate and name the blocked
    // fibers instead of hanging.
    struct WaitFirst;
    impl Ssdlet for WaitFirst {
        fn run(&mut self, ctx: &mut TaskCtx<'_>) {
            // Wait for a peer message before ever sending one.
            if let Some(v) = ctx.recv::<u64>(0).unwrap() {
                ctx.send(0, v).unwrap();
            }
        }
    }
    let module = ModuleBuilder::new("dl")
        .register(
            "idWaitFirst",
            SsdletSpec::new().input::<u64>().output::<u64>(),
            |_| Ok(Box::new(WaitFirst)),
        )
        .build();
    let ssd = make_ssd();
    let sim = Simulation::new(0);
    let s = ssd.clone();
    sim.spawn("host", move |ctx| {
        let mid = s.load_module(ctx, module).unwrap();
        let app = Application::new(&s, "dl");
        let a = app.ssdlet(mid, "idWaitFirst").unwrap();
        let b = app.ssdlet(mid, "idWaitFirst").unwrap();
        // a.out -> b.in and b.out -> a.in: a cycle with no initial token.
        app.connect::<u64>(a.out(0), b.input(0)).unwrap();
        app.connect::<u64>(b.out(0), a.input(0)).unwrap();
        app.start(ctx).unwrap();
        // Host does not join (that would deadlock the host too).
    });
    let report = sim.run();
    assert_eq!(report.blocked.len(), 2, "both SSDlets blocked: {report:?}");
    assert!(report.blocked.iter().all(|n| n.contains("idWaitFirst")));
}
