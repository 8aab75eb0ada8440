//! TPC-H scan offload (paper §V-C, Fig. 8/10): the modified query planner
//! detects an offload candidate, samples selectivity, pushes the filter
//! into a device-side SSDlet, and reorders the join — shown on Q14, the
//! paper's standout query.
//!
//! Run with: `cargo run --release --example tpch_offload`
//!
//! Set `BISCUIT_TRACE=q14.json` to capture a Chrome trace of the whole run,
//! including the planner's offload verdicts (see `docs/TRACING.md` for an
//! annotated walkthrough of exactly this trace). Set
//! `BISCUIT_QPROF=q14-prof.json` to export a per-query latency breakdown
//! with critical-path attribution (see `docs/QUERYPROF.md`).

use std::sync::Arc;

use biscuit::core::{CoreConfig, Ssd};
use biscuit::db::spec::ExecMode;
use biscuit::db::tpch::{all_queries, TpchData};
use biscuit::db::{Db, DbConfig};
use biscuit::fs::Fs;
use biscuit::host::{HostConfig, HostLoad};
use biscuit::sim::Simulation;
use biscuit::ssd::{SsdConfig, SsdDevice};

const SF: f64 = 0.02;

fn main() {
    println!("generating TPC-H at scale factor {SF}...");
    let device = Arc::new(SsdDevice::new(SsdConfig {
        logical_capacity: 2 << 30,
        ..SsdConfig::paper_default()
    }));
    let ssd = Ssd::new(Fs::format(device), CoreConfig::paper_default());
    let mut db = Db::new(ssd, HostConfig::paper_default(), DbConfig::paper_default());
    TpchData::generate(SF, 42).load_into(&mut db).expect("load");
    let db = Arc::new(db);
    for (name, meta) in db
        .catalog()
        .table_names()
        .iter()
        .map(|n| (*n, db.catalog().table(n).expect("registered")))
    {
        println!("  {name:<10} {:>9} rows {:>6} pages", meta.rows, meta.pages);
    }

    let sim = Simulation::new(0);
    sim.enable_from_env();
    sim.spawn("host-program", move |ctx| {
        db.prepare(ctx).expect("deploy scan module");
        let q14 = all_queries().into_iter().nth(13).expect("Q14");
        println!("\nQ14 (promotion effect): lineitem filtered to September 1995,");
        println!("joined with part — the month range compresses to the pattern");
        println!("key \"|1995-09\" and the filtered table moves first in the join.\n");

        // EXPLAIN the core join spec the way the planner sees it.
        let mut spec = biscuit::db::SelectSpec::new("q14-explain");
        let t_l = spec.scan(
            "lineitem",
            Some(biscuit::db::Expr::Between(
                Box::new(biscuit::db::Expr::Col(10)),
                biscuit::db::Value::date("1995-09-01"),
                biscuit::db::Value::date("1995-09-30"),
            )),
        );
        let t_p = spec.scan("part", None);
        spec.join(t_l, 1, t_p, 0);
        let plan = db
            .explain(ctx, &spec, ExecMode::Biscuit, HostLoad::IDLE)
            .expect("explain");
        println!("planner view:");
        for s in &plan.scans {
            println!(
                "  {:<10} offloaded={:<5} est_selectivity={:.4} keys={:?}",
                s.table, s.offloaded, s.est_selectivity, s.keys
            );
        }
        println!("  join order: {:?}\n", plan.join_order);

        let conv = q14
            .run(&db, ctx, ExecMode::Conv, HostLoad::IDLE)
            .expect("conv");
        let bis = q14
            .run(&db, ctx, ExecMode::Biscuit, HostLoad::IDLE)
            .expect("biscuit");
        assert_eq!(conv.rows.len(), bis.rows.len());

        println!("promo revenue: {:.4}%", promo_pct(&conv));
        println!();
        println!(
            "{:<10} {:>12} {:>16} {:>14}",
            "mode", "time", "bytes over link", "device pages"
        );
        for (name, out) in [("Conv", &conv), ("Biscuit", &bis)] {
            println!(
                "{:<10} {:>10.1}ms {:>14.2} MiB {:>14}",
                name,
                out.stats.elapsed.as_secs_f64() * 1e3,
                out.stats.link_bytes_to_host as f64 / (1 << 20) as f64,
                out.stats.device_pages_scanned,
            );
        }
        println!(
            "\nspeedup {:.1}x, I/O reduction {:.1}x (paper Q14: 166.8x and 315.4x on SF100 hardware)",
            conv.stats.elapsed.as_secs_f64() / bis.stats.elapsed.as_secs_f64(),
            conv.stats.link_bytes_to_host as f64 / bis.stats.link_bytes_to_host.max(1) as f64,
        );
        println!("offloaded tables: {:?}", bis.stats.offloaded_tables);
    });
    let report = sim.run();
    report.assert_quiescent();
    report.write_from_env().expect("write exports");
}

fn promo_pct(out: &biscuit::db::QueryOutput) -> f64 {
    out.rows[0][0].as_f64().unwrap_or(0.0)
}
