//! Table V — simple string search under background load.
//!
//! Paper (7.8 GiB web log):
//!
//! | threads | 0    | 6    | 12   | 18   | 24   |
//! |---------|------|------|------|------|------|
//! | Conv    | 12.2 | 14.8 | 16.3 | 18.8 | 19.9 |
//! | Biscuit | 2.3  | 2.3  | 2.3  | 2.3  | 2.4  |
//!
//! We scan a smaller synthetic log (both paths are bandwidth-bound, so the
//! time per byte is scale-invariant) and report both raw and extrapolated
//! numbers at the paper's 7.8 GiB.

use biscuit_apps::search::{biscuit_grep, conv_grep, load_grep_module};
use biscuit_apps::weblog::NEEDLE;
use biscuit_bench::{header, platform, row, simulate_metered, weblog_file, BenchReport};
use biscuit_host::HostLoad;

const CORPUS_PAGES: u64 = 16 << 10; // 256 MiB of 16 KiB pages

fn main() {
    let plat = platform(1 << 30);
    let (file, _gen) = weblog_file(&plat, CORPUS_PAGES, 5000);
    let corpus_bytes = CORPUS_PAGES * 16 * 1024;
    let paper_bytes = 7.8 * (1u64 << 30) as f64;

    let loads = [0u32, 6, 12, 18, 24];
    let (results, metrics) = simulate_metered("table5", move |ctx| {
        let module = load_grep_module(ctx, &plat.ssd).expect("load");
        let mut out = Vec::new();
        for threads in loads {
            let load = HostLoad::new(threads);
            let t0 = ctx.now();
            let c = conv_grep(ctx, &plat.conv, &file, NEEDLE.as_bytes(), load).expect("conv");
            let conv_t = (ctx.now() - t0).as_secs_f64();
            let t1 = ctx.now();
            let b =
                biscuit_grep(ctx, &plat.ssd, module, &file, NEEDLE.as_bytes()).expect("biscuit");
            let bis_t = (ctx.now() - t1).as_secs_f64();
            assert_eq!(c, b, "both paths count the same needles");
            out.push((threads, conv_t, bis_t));
        }
        out
    });

    header("Table V: string search execution time");
    row(&[
        "threads",
        "Conv (paper s)",
        "Conv (extrap s)",
        "Biscuit (paper s)",
        "Biscuit (extrap s)",
        "speedup",
    ]);
    let paper_conv = [12.2, 14.8, 16.3, 18.8, 19.9];
    let paper_bis = [2.3, 2.3, 2.3, 2.3, 2.4];
    let scale = paper_bytes / corpus_bytes as f64;
    for (i, (threads, conv_t, bis_t)) in results.iter().enumerate() {
        row(&[
            &threads.to_string(),
            &format!("{:.1}", paper_conv[i]),
            &format!("{:.1}", conv_t * scale),
            &format!("{:.1}", paper_bis[i]),
            &format!("{:.1}", bis_t * scale),
            &format!("{:.1}x", conv_t / bis_t),
        ]);
    }
    println!("\npaper: 5.3x idle growing to 8.3x at 24 threads; Biscuit flat.");

    let mut report = BenchReport::new("table5_string_search");
    for (i, (threads, conv_t, bis_t)) in results.iter().enumerate() {
        report.push(
            &format!("conv_load{threads}_s"),
            "s",
            Some(paper_conv[i]),
            conv_t * scale,
        );
        report.push(
            &format!("biscuit_load{threads}_s"),
            "s",
            Some(paper_bis[i]),
            bis_t * scale,
        );
    }
    report.set_metrics(metrics);
    report.write();
}
