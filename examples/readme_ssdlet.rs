//! The README's "Writing an SSDlet" example, verbatim and runnable.
//!
//! A single `Square` SSDlet is packaged into a module, loaded onto the
//! simulated SSD, wired to the host program through one host→device and one
//! device→host port, and fed a value — paper Code 1–3 in miniature.
//!
//! Run with: `cargo run --example readme_ssdlet`
//!
//! Set `BISCUIT_TELEMETRY=/tmp/readme` to also capture the run's Chrome
//! trace, metrics and query profiles in that directory (see
//! `docs/TRACING.md`, "Switching it on").

use std::sync::Arc;

use biscuit::core::module::{ModuleBuilder, SsdletSpec};
use biscuit::core::task::{Ssdlet, TaskCtx};
use biscuit::core::{Application, CoreConfig, Ssd};
use biscuit::fs::Fs;
use biscuit::sim::Simulation;
use biscuit::ssd::{SsdConfig, SsdDevice};

struct Square;

impl Ssdlet for Square {
    fn run(&mut self, ctx: &mut TaskCtx<'_>) {
        while let Some(v) = ctx.recv::<u64>(0).unwrap() {
            ctx.send(0, v * v).unwrap(); // typed, data-ordered port
        }
    }
}

fn main() {
    let dev = Arc::new(SsdDevice::new(SsdConfig::paper_default()));
    let ssd = Ssd::new(Fs::format(dev), CoreConfig::paper_default());
    let sim = Simulation::new(0);
    sim.enable_from_env();
    let s = ssd.clone();
    sim.spawn("host", move |ctx| {
        // The run is one profiled query when BISCUIT_TELEMETRY is set (a
        // no-op span pair otherwise).
        let qp = ctx.qprof().clone();
        let span = qp.begin_query(ctx, 0);
        let module = ModuleBuilder::new("math")
            .register(
                "idSquare",
                SsdletSpec::new().input::<u64>().output::<u64>(),
                |_| Ok(Box::new(Square)),
            )
            .build();
        let mid = s.load_module(ctx, module).unwrap(); // dynamic module loading
        let app = Application::new(&s, "squares");
        let sq = app.ssdlet(mid, "idSquare").unwrap();
        let tx = app.connect_from::<u64>(sq.input(0)).unwrap(); // host→device port
        let rx = app.connect_to::<u64>(sq.out(0)).unwrap(); // device→host port
        app.start(ctx).unwrap();
        tx.put(ctx, 12).unwrap();
        tx.close(ctx);
        assert_eq!(rx.get(ctx), Some(144));
        app.join(ctx);
        s.unload_module(ctx, mid).unwrap();
        println!("12^2 computed on the device at t = {}", ctx.now());
        if let Some(sc) = span {
            qp.end_query(ctx, sc);
        }
    });
    let report = sim.run();
    report.assert_quiescent();
    report.write_from_env().expect("write exports");
}
