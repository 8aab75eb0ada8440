//! Fig. 7 — read bandwidth vs request size, synchronous (left panel) and
//! asynchronous with queue depth 32 (right panel), for three series:
//! Conv (over the host link), Biscuit (internal), and Biscuit with the
//! per-channel pattern matcher enabled.
//!
//! Paper shape: Conv saturates at the ~3.2 GB/s link; Biscuit internal
//! exceeds it by ~1 GB/s; pattern-matched reads sit between; async reaches
//! the plateau by ~512 KiB while sync still climbs at 4 MiB.

use biscuit_bench::{header, platform, row, simulate_metered, BenchReport, Platform};
use biscuit_fs::Mode;
use biscuit_host::HostLoad;
use biscuit_sim::metrics::MetricsSnapshot;
use biscuit_ssd::PatternSet;

const TOTAL_BYTES: u64 = 256 << 20;
const SIZES: [u64; 7] = [
    4 << 10,
    16 << 10,
    64 << 10,
    256 << 10,
    512 << 10,
    1 << 20,
    4 << 20,
];

fn setup() -> Platform {
    let plat = platform(1 << 30);
    let page = plat.ssd.device().config().page_size as u64;
    let pages = TOTAL_BYTES / page;
    let gen = std::sync::Arc::new(biscuit_apps::weblog::WeblogGen::new(3, 0));
    plat.ssd
        .fs()
        .create_synthetic("corpus", pages * page, gen)
        .expect("corpus");
    plat
}

/// Bandwidth in GB/s for reading `TOTAL_BYTES` at the given request size.
fn run(
    plat: Platform,
    request: u64,
    queue_depth: usize,
    series: &'static str,
) -> (f64, MetricsSnapshot) {
    simulate_metered("fig7", move |ctx| {
        let page = plat.ssd.device().config().page_size as u64;
        let file = plat.ssd.fs().open("corpus", Mode::ReadOnly).expect("open");
        let request_pages = (request / page).max(1) as usize;
        let total_pages = TOTAL_BYTES / page;
        let lpns: Vec<u64> = file
            .lpns_for_range(0, total_pages * page)
            .expect("range valid");
        let t0 = ctx.now();
        match series {
            "conv" => {
                plat.conv
                    .read_file_pages_async(
                        ctx,
                        &file,
                        0,
                        total_pages,
                        request_pages,
                        queue_depth,
                        HostLoad::IDLE,
                    )
                    .expect("conv read");
            }
            "biscuit" => {
                plat.ssd
                    .device()
                    .read_pages_async(ctx, &lpns, request_pages, queue_depth)
                    .expect("internal read");
            }
            "pm" => {
                let pat = PatternSet::from_strs(&["zzznope"]).expect("keys");
                plat.ssd
                    .device()
                    .scan_pages(ctx, &lpns, &pat, request_pages, queue_depth)
                    .expect("scan");
            }
            _ => unreachable!(),
        }
        let secs = (ctx.now() - t0).as_secs_f64();
        TOTAL_BYTES as f64 / secs / 1e9
    })
}

fn panel(report: &mut BenchReport, title: &str, panel_key: &str, queue_depth: usize) {
    header(title);
    row(&[
        "request size",
        "Conv GB/s",
        "Biscuit GB/s",
        "Biscuit+PM GB/s",
    ]);
    for size in SIZES {
        let (conv, _) = run(setup(), size, queue_depth, "conv");
        let (bis, metrics) = run(setup(), size, queue_depth, "biscuit");
        let (pm, _) = run(setup(), size, queue_depth, "pm");
        let label = if size >= 1 << 20 {
            format!("{} MiB", size >> 20)
        } else {
            format!("{} KiB", size >> 10)
        };
        row(&[
            &label,
            &format!("{conv:.2}"),
            &format!("{bis:.2}"),
            &format!("{pm:.2}"),
        ]);
        for (series, gbps) in [("conv", conv), ("biscuit", bis), ("pm", pm)] {
            report.push(
                &format!("{panel_key}_{series}_{}k_gbps", size >> 10),
                "GB/s",
                None,
                gbps,
            );
        }
        // Keep a snapshot of the largest async internal read: it exercises
        // every channel and both panels share the same platform shape.
        if size == *SIZES.last().expect("sizes nonempty") && queue_depth > 1 {
            report.set_metrics(metrics);
        }
    }
}

fn main() {
    let mut report = BenchReport::new("fig7_read_bandwidth");
    panel(
        &mut report,
        "Fig. 7 (left): synchronous read bandwidth (qd=1)",
        "sync",
        1,
    );
    panel(
        &mut report,
        "Fig. 7 (right): asynchronous read bandwidth (qd=32)",
        "async",
        32,
    );
    println!("\npaper shape: Conv caps at ~3.2 GB/s (PCIe); Biscuit internal ~+1 GB/s;");
    println!("pattern-matched in between; async saturates by ~512 KiB requests.");
    report.write();
}
