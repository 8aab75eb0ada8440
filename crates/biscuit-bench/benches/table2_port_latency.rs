//! Table II — measured one-way latency of the four Biscuit port types.
//!
//! Paper: H2D 301.6 µs, D2H 130.1 µs, inter-SSDlet 31.0 µs,
//! inter-app 10.7 µs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use biscuit_bench::{header, platform, row, simulate_metered, BenchReport, Platform};
use biscuit_core::module::{ModuleBuilder, SsdletSpec};
use biscuit_core::task::{args_as, Ssdlet, TaskCtx};
use biscuit_core::{connect_apps, Application};
use biscuit_sim::metrics::MetricsSnapshot;
use biscuit_sim::time::SimDuration;

struct SendOnce;
impl Ssdlet for SendOnce {
    fn run(&mut self, ctx: &mut TaskCtx<'_>) {
        ctx.sim().sleep(SimDuration::from_micros(5000));
        ctx.send(0, ctx.now().as_nanos()).expect("port open");
    }
}

struct RecvOnce(Arc<AtomicU64>);
impl Ssdlet for RecvOnce {
    fn run(&mut self, ctx: &mut TaskCtx<'_>) {
        let sent_at = ctx.recv::<u64>(0).expect("typed").expect("one message");
        self.0
            .store(ctx.now().as_nanos() - sent_at, Ordering::SeqCst);
        while ctx.recv::<u64>(0).expect("typed").is_some() {}
    }
}

fn module() -> biscuit_core::SsdletModule {
    ModuleBuilder::new("lat")
        .register("idSend", SsdletSpec::new().output::<u64>(), |_| {
            Ok(Box::new(SendOnce))
        })
        .register("idRecv", SsdletSpec::new().input::<u64>(), |args| {
            Ok(Box::new(RecvOnce(args_as::<Arc<AtomicU64>>(args)?)))
        })
        .build()
}

fn h2d(plat: Platform) -> (f64, MetricsSnapshot) {
    let cell = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&cell);
    simulate_metered("table2/h2d", move |ctx| {
        let mid = plat.ssd.load_module(ctx, module()).expect("load");
        let app = Application::new(&plat.ssd, "h2d");
        let r = app
            .ssdlet_with(mid, "idRecv", Arc::clone(&c))
            .expect("proxy");
        let tx = app.connect_from::<u64>(r.input(0)).expect("port");
        app.start(ctx).expect("start");
        ctx.sleep(SimDuration::from_micros(500));
        tx.put(ctx, ctx.now().as_nanos()).expect("put");
        tx.close(ctx);
        app.join(ctx);
        c.load(Ordering::SeqCst) as f64 / 1000.0
    })
}

fn d2h(plat: Platform) -> (f64, MetricsSnapshot) {
    simulate_metered("table2/d2h", move |ctx| {
        let mid = plat.ssd.load_module(ctx, module()).expect("load");
        let app = Application::new(&plat.ssd, "d2h");
        let t = app.ssdlet(mid, "idSend").expect("proxy");
        let rx = app.connect_to::<u64>(t.out(0)).expect("port");
        app.start(ctx).expect("start");
        let sent_at = rx.get(ctx).expect("one message");
        let lat = (ctx.now().as_nanos() - sent_at) as f64 / 1000.0;
        app.join(ctx);
        lat
    })
}

fn inter_ssdlet(plat: Platform) -> (f64, MetricsSnapshot) {
    let cell = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&cell);
    simulate_metered("table2/inter_ssdlet", move |ctx| {
        let mid = plat.ssd.load_module(ctx, module()).expect("load");
        let app = Application::new(&plat.ssd, "inter");
        let t = app.ssdlet(mid, "idSend").expect("proxy");
        let r = app
            .ssdlet_with(mid, "idRecv", Arc::clone(&c))
            .expect("proxy");
        app.connect::<u64>(t.out(0), r.input(0)).expect("connect");
        app.start(ctx).expect("start");
        app.join(ctx);
        c.load(Ordering::SeqCst) as f64 / 1000.0
    })
}

fn inter_app(plat: Platform) -> (f64, MetricsSnapshot) {
    let cell = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&cell);
    simulate_metered("table2/inter_app", move |ctx| {
        let mid = plat.ssd.load_module(ctx, module()).expect("load");
        let app_a = Application::new(&plat.ssd, "A");
        let app_b = Application::new(&plat.ssd, "B");
        let t = app_a.ssdlet(mid, "idSend").expect("proxy");
        let r = app_b
            .ssdlet_with(mid, "idRecv", Arc::clone(&c))
            .expect("proxy");
        connect_apps::<u64>((&app_a, t.out(0)), (&app_b, r.input(0))).expect("connect");
        app_a.start(ctx).expect("start");
        app_b.start(ctx).expect("start");
        app_a.join(ctx);
        app_b.join(ctx);
        c.load(Ordering::SeqCst) as f64 / 1000.0
    })
}

fn main() {
    header("Table II: I/O port one-way latency");
    row(&["port type", "paper (us)", "measured (us)"]);
    let (h2d_us, h2d_metrics) = h2d(platform(64 << 20));
    let (d2h_us, _) = d2h(platform(64 << 20));
    let (inter_ssdlet_us, _) = inter_ssdlet(platform(64 << 20));
    let (inter_app_us, _) = inter_app(platform(64 << 20));
    let results = [
        ("host-to-device (H2D)", "h2d_us", 301.6, h2d_us),
        ("device-to-host (D2H)", "d2h_us", 130.1, d2h_us),
        ("inter-SSDlet", "inter_ssdlet_us", 31.0, inter_ssdlet_us),
        ("inter-application", "inter_app_us", 10.7, inter_app_us),
    ];
    let mut report = BenchReport::new("table2_port_latency");
    for (name, key, paper, measured) in results {
        row(&[name, &format!("{paper:.1}"), &format!("{measured:.1}")]);
        report.push(key, "us", Some(paper), measured);
    }
    report.set_metrics(h2d_metrics);
    report.write();
}
