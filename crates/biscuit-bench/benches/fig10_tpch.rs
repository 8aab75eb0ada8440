//! Fig. 10 — relative TPC-H performance of Biscuit over Conv for all 22
//! queries, with I/O reduction ratios.
//!
//! Paper: 8 queries leverage NDP (geomean 6.1x; the top five average 15.4x;
//! Q14 reaches 166.8x with a 315.4x I/O reduction thanks to the NDP-first
//! join order), 14 queries stay at 1.0x, and the whole suite finishes 3.6x
//! faster.

use biscuit_bench::{geomean, header, ratio, row, secs, simulate_metered, tpch_db, BenchReport};
use biscuit_db::spec::ExecMode;
use biscuit_db::tpch::all_queries;
use biscuit_host::HostLoad;

const SF: f64 = 0.05;

struct QueryResult {
    id: usize,
    conv_secs: f64,
    bis_secs: f64,
    io_reduction: f64,
    offloaded: Vec<String>,
}

fn main() {
    let (_, db) = tpch_db(SF);
    let (results, metrics) = simulate_metered("fig10", move |ctx| {
        db.prepare(ctx).expect("module load");
        let mut out = Vec::new();
        for q in all_queries() {
            let conv = q
                .run(&db, ctx, ExecMode::Conv, HostLoad::IDLE)
                .unwrap_or_else(|e| panic!("Q{} conv failed: {e}", q.id));
            let bis = q
                .run(&db, ctx, ExecMode::Biscuit, HostLoad::IDLE)
                .unwrap_or_else(|e| panic!("Q{} biscuit failed: {e}", q.id));
            assert_eq!(
                conv.rows.len(),
                bis.rows.len(),
                "Q{} row count mismatch",
                q.id
            );
            out.push(QueryResult {
                id: q.id,
                conv_secs: conv.stats.elapsed.as_secs_f64(),
                bis_secs: bis.stats.elapsed.as_secs_f64(),
                io_reduction: conv.stats.link_bytes_to_host as f64
                    / bis.stats.link_bytes_to_host.max(1) as f64,
                offloaded: bis.stats.offloaded_tables.clone(),
            });
        }
        out
    });

    header(&format!("Fig. 10: TPC-H relative performance (SF {SF})"));
    row(&[
        "query",
        "Conv",
        "Biscuit",
        "speedup",
        "I/O reduction",
        "offloaded",
    ]);
    let mut sorted: Vec<&QueryResult> = results.iter().collect();
    sorted.sort_by(|a, b| {
        let ra = a.conv_secs / a.bis_secs;
        let rb = b.conv_secs / b.bis_secs;
        rb.partial_cmp(&ra).expect("finite")
    });
    for r in &sorted {
        let speedup = r.conv_secs / r.bis_secs;
        row(&[
            &format!("Q{}", r.id),
            &secs(r.conv_secs),
            &secs(r.bis_secs),
            &ratio(speedup),
            &if r.offloaded.is_empty() {
                "-".to_owned()
            } else {
                ratio(r.io_reduction)
            },
            &r.offloaded.join(","),
        ]);
    }

    let offloaded: Vec<&QueryResult> = results.iter().filter(|r| !r.offloaded.is_empty()).collect();
    let speedups: Vec<f64> = offloaded.iter().map(|r| r.conv_secs / r.bis_secs).collect();
    let mut top = speedups.clone();
    top.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
    let top5: Vec<f64> = top.into_iter().take(5).collect();
    let conv_total: f64 = results.iter().map(|r| r.conv_secs).sum();
    let bis_total: f64 = results.iter().map(|r| r.bis_secs).sum();

    println!();
    row(&["summary", "paper", "measured"]);
    row(&[
        "queries offloaded",
        "8 of 22",
        &format!("{} of 22", offloaded.len()),
    ]);
    row(&["geomean (offloaded)", "6.1x", &ratio(geomean(&speedups))]);
    row(&[
        "top-5 average",
        "15.4x",
        &ratio(top5.iter().sum::<f64>() / top5.len() as f64),
    ]);
    row(&[
        "total suite speedup",
        "3.6x",
        &ratio(conv_total / bis_total),
    ]);
    let best = sorted.first().expect("22 queries");
    row(&[
        "best query",
        "Q14: 166.8x (315x I/O)",
        &format!(
            "Q{}: {} ({} I/O)",
            best.id,
            ratio(best.conv_secs / best.bis_secs),
            ratio(best.io_reduction)
        ),
    ]);

    // The generated tables are a pure function of the seed
    // (`biscuit_sim::rng`), so the planner's verdicts and the speed-ups gate
    // like every other virtual-time row.
    let mut report = BenchReport::new("fig10_tpch");
    report.push_tol(
        "queries_offloaded",
        "",
        Some(8.0),
        offloaded.len() as f64,
        0.0,
    );
    report.push(
        "geomean_offloaded_speedup",
        "x",
        Some(6.1),
        geomean(&speedups),
    );
    report.push(
        "top5_avg_speedup",
        "x",
        Some(15.4),
        top5.iter().sum::<f64>() / top5.len() as f64,
    );
    report.push(
        "total_suite_speedup",
        "x",
        Some(3.6),
        conv_total / bis_total,
    );
    report.set_metrics(metrics);
    report.write();
}
