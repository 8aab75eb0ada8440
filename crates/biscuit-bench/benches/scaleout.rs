//! Scale-out: grep throughput vs drive count (paper Fig. 1(b), §II).
//!
//! One host front-ends 1/2/4/8 simulated SSDs through the
//! [`SsdArray`] shard coordinator, each drive holding a fixed-size web-log
//! shard. The Conv path is one host thread scanning the drives in turn,
//! so its aggregate throughput is pinned at the host CPU's Boyer–Moore
//! rate no matter how many drives feed it; the Biscuit path scatters the
//! grep SSDlet to every drive and gathers counts through the ordered
//! merge port, so aggregate throughput multiplies with the drive count.
//!
//! The harness asserts the tentpole acceptance criteria directly:
//! Biscuit ≥ 3x aggregate throughput from 1 to 4 drives, Conv within 10%
//! of its single-drive rate at 4 drives.

use std::sync::Arc;

use biscuit_apps::search::{array_conv_grep, ArrayGrep};
use biscuit_apps::weblog::{WeblogGen, NEEDLE};
use biscuit_bench::{header, row, simulate_metered, BenchReport};
use biscuit_core::{CoreConfig, Ssd};
use biscuit_fs::Fs;
use biscuit_host::array::ArrayConfig;
use biscuit_host::{HostConfig, HostLoad, SsdArray};
use biscuit_ssd::{SsdConfig, SsdDevice};

const SHARD_PAGES: u64 = 1024; // 16 MiB per drive, fixed per-drive work

fn make_array(drives: usize) -> SsdArray {
    let drives: Vec<Ssd> = (0..drives)
        .map(|i| {
            let device = Arc::new(SsdDevice::new(SsdConfig {
                logical_capacity: 64 << 20,
                ..SsdConfig::paper_default()
            }));
            let fs = Fs::format(device);
            let page = fs.device().config().page_size as u64;
            fs.create_synthetic(
                "shard.log",
                SHARD_PAGES * page,
                Arc::new(WeblogGen::new(100 + i as u64, 3000)),
            )
            .expect("shard");
            Ssd::new(fs, CoreConfig::paper_default())
        })
        .collect();
    SsdArray::new(drives, HostConfig::paper_default(), ArrayConfig::default())
}

fn main() {
    let counts = [1usize, 2, 4, 8];
    let mut results: Vec<(usize, f64, f64)> = Vec::new(); // (drives, conv MiB/s, biscuit MiB/s)
    let mut report = BenchReport::new("scaleout");

    for n in counts {
        let array = make_array(n);
        let mib = (n as u64 * SHARD_PAGES * 16 / 1024) as f64;
        let ((conv_t, bis_t, matches), metrics) =
            simulate_metered(&format!("scaleout{n}"), move |ctx| {
                let grep = ArrayGrep::prepare(ctx, &array).expect("load modules");
                let t0 = ctx.now();
                let c =
                    array_conv_grep(ctx, &array, "shard.log", NEEDLE.as_bytes(), HostLoad::IDLE)
                        .expect("conv");
                let conv_t = (ctx.now() - t0).as_secs_f64();
                let t1 = ctx.now();
                let b = grep
                    .run(ctx, &array, "shard.log", NEEDLE.as_bytes(), HostLoad::IDLE)
                    .expect("biscuit");
                let bis_t = (ctx.now() - t1).as_secs_f64();
                assert_eq!(c, b, "both paths count the same needles");
                (conv_t, bis_t, c)
            });
        let conv_mibps = mib / conv_t;
        let bis_mibps = mib / bis_t;
        results.push((n, conv_mibps, bis_mibps));
        report.push(&format!("conv_mibps_{n}drives"), "MiB/s", None, conv_mibps);
        report.push(
            &format!("biscuit_mibps_{n}drives"),
            "MiB/s",
            None,
            bis_mibps,
        );
        report.set_metrics(metrics);
        let _ = matches;
    }

    header("Scale-out: aggregate grep throughput vs drive count");
    row(&["drives", "Conv (MiB/s)", "Biscuit (MiB/s)", "Biscuit/Conv"]);
    for (n, conv, bis) in &results {
        row(&[
            &n.to_string(),
            &format!("{conv:.0}"),
            &format!("{bis:.0}"),
            &format!("{:.1}x", bis / conv),
        ]);
    }

    let conv1 = results[0].1;
    let bis1 = results[0].2;
    let (conv4, bis4) = results
        .iter()
        .find(|(n, _, _)| *n == 4)
        .map(|(_, c, b)| (*c, *b))
        .expect("4-drive point");
    let scaling = bis4 / bis1;
    let flatness = (conv4 - conv1).abs() / conv1;
    println!(
        "\nBiscuit 1->4 drive scaling: {scaling:.2}x (>= 3x required); \
         Conv drift from 1-drive rate: {:.1}% (<= 10% required)",
        flatness * 100.0
    );
    assert!(
        scaling >= 3.0,
        "Biscuit aggregate throughput must scale >= 3x from 1 to 4 drives, got {scaling:.2}x"
    );
    assert!(
        flatness <= 0.10,
        "Conv aggregate throughput must stay within 10% of its 1-drive rate, drifted {:.1}%",
        flatness * 100.0
    );
    report.push("biscuit_scaling_1to4", "x", None, scaling);
    report.push("conv_drift_1to4_pct", "%", None, flatness * 100.0);
    report.write();
}
