//! Table IV — pointer chasing under background load.
//!
//! Paper (seconds, 100 walk starts over a 20 GiB Twitter graph):
//!
//! | threads | 0     | 6 | 12 | 18    | 24    |
//! |---------|-------|---|----|-------|-------|
//! | Conv    | 138.6 | . | .  | 154.9 | 155.0 |
//! | Biscuit | 124.4 | . | .  | 123.9 | 123.5 |
//!
//! We run a scaled-down walk (same per-hop structure) and also report the
//! extrapolation to the paper's hop count (138.6 s / 90 µs ≈ 1.54 M hops).

use biscuit_apps::graph::{biscuit_chase, chase_module, conv_chase, ChaseArgs, SocialGraph};
use biscuit_bench::{header, platform, row, simulate_metered, BenchReport};
use biscuit_fs::Mode;
use biscuit_host::HostLoad;

const WALKS: u64 = 10;
const STEPS: u64 = 200;
const PAPER_HOPS: f64 = 138.6 / 90.0e-6;

fn main() {
    let plat = platform(256 << 20);
    let graph = SocialGraph::generate(20_000, 5);
    plat.ssd.fs().create("graph").expect("create");
    plat.ssd
        .fs()
        .append_untimed("graph", graph.as_bytes())
        .expect("load");

    let loads = [0u32, 6, 12, 18, 24];
    let (results, metrics) = simulate_metered("table4", move |ctx| {
        let file = plat.ssd.fs().open("graph", Mode::ReadOnly).expect("open");
        let module = plat.ssd.load_module(ctx, chase_module()).expect("load");
        let mut out = Vec::new();
        for threads in loads {
            let load = HostLoad::new(threads);
            let t0 = ctx.now();
            let c = conv_chase(ctx, &plat.conv, &file, WALKS, STEPS, 7, 20_000, load)
                .expect("conv chase");
            let conv_t = (ctx.now() - t0).as_secs_f64();
            let t1 = ctx.now();
            let b = biscuit_chase(
                ctx,
                &plat.ssd,
                module,
                ChaseArgs {
                    file: file.clone(),
                    walks: WALKS,
                    steps: STEPS,
                    seed: 7,
                    vertices: 20_000,
                },
            )
            .expect("biscuit chase");
            let bis_t = (ctx.now() - t1).as_secs_f64();
            assert_eq!(c, b, "walk checksums must agree");
            out.push((threads, conv_t, bis_t));
        }
        out
    });

    let hops = (WALKS * STEPS) as f64;
    header("Table IV: pointer chasing execution time");
    row(&[
        "threads",
        "Conv (paper s)",
        "Conv (extrap s)",
        "Biscuit (paper s)",
        "Biscuit (extrap s)",
        "gain",
    ]);
    let paper_conv = [138.6, f64::NAN, f64::NAN, 154.9, 155.0];
    let paper_bis = [124.4, f64::NAN, f64::NAN, 123.9, 123.5];
    for (i, (threads, conv_t, bis_t)) in results.iter().enumerate() {
        let conv_x = conv_t / hops * PAPER_HOPS;
        let bis_x = bis_t / hops * PAPER_HOPS;
        let fmt_paper = |v: f64| {
            if v.is_nan() {
                "-".to_owned()
            } else {
                format!("{v:.1}")
            }
        };
        row(&[
            &threads.to_string(),
            &fmt_paper(paper_conv[i]),
            &format!("{conv_x:.1}"),
            &fmt_paper(paper_bis[i]),
            &format!("{bis_x:.1}"),
            &format!("{:.2}x", conv_t / bis_t),
        ]);
    }
    println!("\npaper: >=11% gain, Conv degrades with load, Biscuit flat.");

    let mut report = BenchReport::new("table4_pointer_chasing");
    for (i, (threads, conv_t, bis_t)) in results.iter().enumerate() {
        let conv_x = conv_t / hops * PAPER_HOPS;
        let bis_x = bis_t / hops * PAPER_HOPS;
        let paper_c = (!paper_conv[i].is_nan()).then_some(paper_conv[i]);
        let paper_b = (!paper_bis[i].is_nan()).then_some(paper_bis[i]);
        report.push(&format!("conv_load{threads}_s"), "s", paper_c, conv_x);
        report.push(&format!("biscuit_load{threads}_s"), "s", paper_b, bis_x);
    }
    report.set_metrics(metrics);
    report.write();
}
