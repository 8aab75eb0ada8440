//! String search two ways (paper §V-C, Table V): host `grep` vs a
//! pattern-matcher SSDlet — under background load.
//!
//! Run with: `cargo run --release --example string_search`

use std::sync::Arc;

use biscuit::apps::search::{biscuit_grep, conv_grep, load_grep_module};
use biscuit::apps::weblog::{WeblogGen, NEEDLE};
use biscuit::core::{CoreConfig, Ssd};
use biscuit::fs::{Fs, Mode};
use biscuit::host::{ConvIo, HostConfig, HostLoad};
use biscuit::sim::Simulation;
use biscuit::ssd::{SsdConfig, SsdDevice};

const CORPUS_PAGES: u64 = 4096; // 64 MiB of 16 KiB pages

fn main() {
    let device = Arc::new(SsdDevice::new(SsdConfig {
        logical_capacity: 256 << 20,
        ..SsdConfig::paper_default()
    }));
    let fs = Fs::format(Arc::clone(&device));

    // A synthetic web log: pages are regenerated deterministically, so the
    // corpus costs no host RAM (the paper's log is 7.8 GiB).
    let page = device.config().page_size as u64;
    fs.create_synthetic(
        "access.log",
        CORPUS_PAGES * page,
        Arc::new(WeblogGen::new(11, 2000)),
    )
    .expect("synthetic log");
    let file = fs.open("access.log", Mode::ReadOnly).expect("open");

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
        let module = load_grep_module(ctx, &ssd).expect("load module");
        println!(
            "searching {} MiB of web log for \"{NEEDLE}\"\n",
            (CORPUS_PAGES * page) >> 20
        );
        println!(
            "{:<10} {:>12} {:>12} {:>9}",
            "load", "Conv", "Biscuit", "speedup"
        );
        for threads in [0u32, 12, 24] {
            let load = HostLoad::new(threads);
            let t0 = ctx.now();
            let c = conv_grep(ctx, &conv, &file, NEEDLE.as_bytes(), load).expect("conv grep");
            let conv_t = (ctx.now() - t0).as_secs_f64();
            let t1 = ctx.now();
            let b = biscuit_grep(ctx, &ssd, module, &file, NEEDLE.as_bytes()).expect("ssd grep");
            let bis_t = (ctx.now() - t1).as_secs_f64();
            assert_eq!(c, b, "both paths must count the same occurrences");
            println!(
                "{:<10} {:>11.0}ms {:>11.0}ms {:>8.1}x   ({c} matches)",
                format!("{threads} thr"),
                conv_t * 1e3,
                bis_t * 1e3,
                conv_t / bis_t
            );
        }
        println!("\npaper Table V: 5.3x at idle, 8.3x at 24 background threads");
        if let Some(sc) = span {
            qp.end_query(ctx, sc);
        }
    });
    let report = sim.run();
    report.assert_quiescent();
    report.write_from_env().expect("write exports");
}
