//! Table III — 4 KiB read latency: Conv (host pread) vs Biscuit (internal
//! read from an SSDlet). Paper: 90.0 µs vs 75.9 µs, an 18% gain.

use biscuit_bench::{header, platform, row, simulate_metered, BenchReport};
use biscuit_fs::Mode;
use biscuit_host::HostLoad;

fn main() {
    let plat = platform(64 << 20);
    plat.ssd.fs().create("blk").expect("create");
    plat.ssd
        .fs()
        .append_untimed("blk", &vec![7u8; 64 << 10])
        .expect("load");
    let file = plat.ssd.fs().open("blk", Mode::ReadOnly).expect("open");

    let ((conv_us, biscuit_us), metrics) = simulate_metered("table3", move |ctx| {
        // Average over several reads at distinct offsets.
        let mut conv_total = 0.0;
        let mut int_total = 0.0;
        let n = 8;
        for i in 0..n {
            let off = (i % 4) * 4096;
            let t0 = ctx.now();
            plat.conv
                .read(ctx, &file, off, 4096, HostLoad::IDLE)
                .expect("conv read");
            conv_total += (ctx.now() - t0).as_micros_f64();
            let t1 = ctx.now();
            file.read_at(ctx, off, 4096).expect("internal read");
            int_total += (ctx.now() - t1).as_micros_f64();
        }
        (conv_total / n as f64, int_total / n as f64)
    });

    header("Table III: 4 KiB read latency");
    row(&["path", "paper (us)", "measured (us)"]);
    row(&["Conv (host pread)", "90.0", &format!("{conv_us:.1}")]);
    row(&["Biscuit (internal)", "75.9", &format!("{biscuit_us:.1}")]);
    println!(
        "\ngain: paper 18%, measured {:.0}%",
        (1.0 - biscuit_us / conv_us) * 100.0
    );

    let mut report = BenchReport::new("table3_read_latency");
    report.push("conv_us", "us", Some(90.0), conv_us);
    report.push("biscuit_us", "us", Some(75.9), biscuit_us);
    report.push(
        "gain_pct",
        "%",
        Some(18.0),
        (1.0 - biscuit_us / conv_us) * 100.0,
    );
    report.set_metrics(metrics);
    report.write();
}
