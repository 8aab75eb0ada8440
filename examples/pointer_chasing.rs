//! Pointer chasing (paper §V-C, Table IV): random walks over an on-SSD
//! graph store, host round-trips vs in-device traversal.
//!
//! Run with: `cargo run --release --example pointer_chasing`

use std::sync::Arc;

use biscuit::apps::graph::{biscuit_chase, chase_module, conv_chase, ChaseArgs, SocialGraph};
use biscuit::core::{CoreConfig, Ssd};
use biscuit::fs::{Fs, Mode};
use biscuit::host::{ConvIo, HostConfig, HostLoad};
use biscuit::sim::Simulation;
use biscuit::ssd::{SsdConfig, SsdDevice};

const VERTICES: u64 = 50_000;
const WALKS: u64 = 10;
const STEPS: u64 = 150;

fn main() {
    let device = Arc::new(SsdDevice::new(SsdConfig {
        logical_capacity: 256 << 20,
        ..SsdConfig::paper_default()
    }));
    let fs = Fs::format(Arc::clone(&device));
    let graph = SocialGraph::generate(VERTICES, 5);
    fs.create("graph.store").expect("create");
    fs.append_untimed("graph.store", graph.as_bytes())
        .expect("load graph");
    let file = fs.open("graph.store", Mode::ReadOnly).expect("open");

    let ssd = Ssd::new(fs, CoreConfig::paper_default());
    let conv = ConvIo::new(
        Arc::clone(ssd.device()),
        Arc::clone(ssd.link()),
        HostConfig::paper_default(),
    );

    let sim = Simulation::new(0);
    sim.enable_from_env();
    sim.spawn("host-program", move |ctx| {
        // The run is one profiled query when BISCUIT_TELEMETRY is set (a
        // no-op span pair otherwise).
        let qp = ctx.qprof().clone();
        let span = qp.begin_query(ctx, 0);
        let module = ssd.load_module(ctx, chase_module()).expect("load module");
        println!("{WALKS} random walks x {STEPS} hops over a {VERTICES}-vertex social graph\n");
        println!(
            "{:<10} {:>12} {:>12} {:>8}",
            "load", "Conv", "Biscuit", "gain"
        );
        for threads in [0u32, 18, 24] {
            let load = HostLoad::new(threads);
            let t0 = ctx.now();
            let c =
                conv_chase(ctx, &conv, &file, WALKS, STEPS, 7, VERTICES, load).expect("conv chase");
            let conv_t = (ctx.now() - t0).as_secs_f64();
            let t1 = ctx.now();
            let b = biscuit_chase(
                ctx,
                &ssd,
                module,
                ChaseArgs {
                    file: file.clone(),
                    walks: WALKS,
                    steps: STEPS,
                    seed: 7,
                    vertices: VERTICES,
                },
            )
            .expect("biscuit chase");
            let bis_t = (ctx.now() - t1).as_secs_f64();
            assert_eq!(c, b, "identical walks must produce identical checksums");
            println!(
                "{:<10} {:>11.1}ms {:>11.1}ms {:>7.2}x",
                format!("{threads} thr"),
                conv_t * 1e3,
                bis_t * 1e3,
                conv_t / bis_t
            );
        }
        println!("\npaper Table IV: >=11% gain, Conv degrades under load, Biscuit flat");
        if let Some(sc) = span {
            qp.end_query(ctx, sc);
        }
    });
    let report = sim.run();
    report.assert_quiescent();
    report.write_from_env().expect("write exports");
}
