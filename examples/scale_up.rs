//! Scale-out organization (paper Fig. 1(b)): one host, several SSDs.
//!
//! The paper argues Scale-up "has more aggregate compute resources (in
//! SSDs) as well as internal media bandwidth": with Biscuit, every drive
//! filters its shard locally and in parallel, so search throughput scales
//! with the number of drives, while the Conv path stays pinned at the
//! single host CPU's scan rate no matter how many drives feed it.
//!
//! Both paths run through the [`SsdArray`] shard coordinator: Conv as a
//! sequential per-shard loop ([`array_conv_grep`]), Biscuit as a scatter
//! across all drives gathered through the ordered merge port
//! ([`ArrayGrep`]). See `docs/SCALE.md`.
//!
//! Run with: `cargo run --release --example scale_up`

use std::sync::Arc;

use biscuit::apps::search::{array_conv_grep, ArrayGrep};
use biscuit::apps::weblog::{WeblogGen, NEEDLE};
use biscuit::core::{CoreConfig, Ssd};
use biscuit::fs::Fs;
use biscuit::host::array::ArrayConfig;
use biscuit::host::{HostConfig, HostLoad, SsdArray};
use biscuit::sim::Simulation;
use biscuit::ssd::{SsdConfig, SsdDevice};

const DRIVES: usize = 4;
const SHARD_PAGES: u64 = 2048; // 32 MiB per drive

fn make_drive(shard: usize) -> Ssd {
    let device = Arc::new(SsdDevice::new(SsdConfig {
        logical_capacity: 128 << 20,
        ..SsdConfig::paper_default()
    }));
    let fs = Fs::format(device);
    let page = fs.device().config().page_size as u64;
    fs.create_synthetic(
        "shard.log",
        SHARD_PAGES * page,
        Arc::new(WeblogGen::new(100 + shard as u64, 3000)),
    )
    .expect("shard");
    Ssd::new(fs, CoreConfig::paper_default())
}

fn main() {
    let drives: Vec<Ssd> = (0..DRIVES).map(make_drive).collect();
    let array = SsdArray::new(drives, HostConfig::paper_default(), ArrayConfig::default());
    let sim = Simulation::new(0);
    sim.enable_from_env();
    sim.spawn("host-program", move |ctx| {
        // The run is one profiled query when BISCUIT_TELEMETRY is set (a
        // no-op span pair otherwise).
        let qp = ctx.qprof().clone();
        let span = qp.begin_query(ctx, 0);
        // --- Conv: one host thread greps all shards, drive by drive ---
        // (the host CPU's Boyer-Moore is the bottleneck; extra drives
        // do not help).
        let t0 = ctx.now();
        let conv_total =
            array_conv_grep(ctx, &array, "shard.log", NEEDLE.as_bytes(), HostLoad::IDLE)
                .expect("conv grep");
        let conv_t = (ctx.now() - t0).as_secs_f64();

        // --- Biscuit: every drive filters its own shard, in parallel ---
        let grep = ArrayGrep::prepare(ctx, &array).expect("load modules");
        let t1 = ctx.now();
        let biscuit_total = grep
            .run(ctx, &array, "shard.log", NEEDLE.as_bytes(), HostLoad::IDLE)
            .expect("device grep");
        let bis_t = (ctx.now() - t1).as_secs_f64();

        assert_eq!(conv_total, biscuit_total, "same matches either way");
        let total_mib = DRIVES as u64 * SHARD_PAGES * 16 / 1024;
        println!(
            "{DRIVES} drives x {} MiB shards = {total_mib} MiB, {conv_total} matches\n",
            SHARD_PAGES * 16 / 1024
        );
        println!(
            "Conv    (1 host thread, {DRIVES} drives): {:7.1} ms  ({:.2} GB/s aggregate)",
            conv_t * 1e3,
            total_mib as f64 / 1024.0 / conv_t
        );
        println!(
            "Biscuit ({DRIVES} drives in parallel):    {:7.1} ms  ({:.2} GB/s aggregate)",
            bis_t * 1e3,
            total_mib as f64 / 1024.0 / bis_t
        );
        println!(
            "\nscale-out speedup: {:.1}x (per-drive filtering multiplies with drive count;",
            conv_t / bis_t
        );
        println!("the Conv path cannot exceed one host core's scan rate)");
        if let Some(sc) = span {
            qp.end_query(ctx, sc);
        }
    });
    let report = sim.run();
    report.assert_quiescent();
    report.write_from_env().expect("write exports");
}
