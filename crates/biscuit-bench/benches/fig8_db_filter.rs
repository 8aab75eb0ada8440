//! Fig. 8 — the two lineitem filter queries from the Ibex paper that §V-C
//! uses to demonstrate DB scan offload:
//!
//! ```sql
//! -- Query 1 (selectivity ~0.02)
//! SELECT l_orderkey, l_shipdate, l_linenumber FROM lineitem
//! WHERE l_shipdate = '1995-01-17';
//! -- Query 2 (selectivity ~0.04)
//! SELECT l_orderkey, l_shipdate, l_linenumber FROM lineitem
//! WHERE (l_shipdate = '1995-01-17' OR l_shipdate = '1995-01-18')
//!   AND (l_linenumber = 1 OR l_linenumber = 2);
//! ```
//!
//! Paper: ~11x and ~10x speed-up; Conv times vary with system load while
//! Biscuit stays consistent. We run each query at several background load
//! levels to reproduce the variance structure.

use biscuit_bench::{header, ratio, row, secs, simulate_metered, tpch_db, BenchReport};
use biscuit_db::expr::Expr;
use biscuit_db::spec::{ExecMode, SelectSpec};
use biscuit_db::tpch::schema::l;
use biscuit_db::Value;
use biscuit_host::HostLoad;

const SF: f64 = 0.05;

fn query1() -> SelectSpec {
    let mut spec = SelectSpec::new("fig8-q1");
    spec.scan(
        "lineitem",
        Some(Expr::col_eq(l::SHIPDATE, Value::date("1995-01-17"))),
    );
    spec.projection = vec![
        Expr::Col(l::ORDERKEY),
        Expr::Col(l::SHIPDATE),
        Expr::Col(l::LINENUMBER),
    ];
    spec
}

fn query2() -> SelectSpec {
    let mut spec = SelectSpec::new("fig8-q2");
    spec.scan(
        "lineitem",
        Some(Expr::And(vec![
            Expr::Or(vec![
                Expr::col_eq(l::SHIPDATE, Value::date("1995-01-17")),
                Expr::col_eq(l::SHIPDATE, Value::date("1995-01-18")),
            ]),
            Expr::Or(vec![
                Expr::col_eq(l::LINENUMBER, Value::Int(1)),
                Expr::col_eq(l::LINENUMBER, Value::Int(2)),
            ]),
        ])),
    );
    spec.projection = vec![
        Expr::Col(l::ORDERKEY),
        Expr::Col(l::SHIPDATE),
        Expr::Col(l::LINENUMBER),
    ];
    spec
}

fn main() {
    let (_, db) = tpch_db(SF);
    let loads = [0u32, 6, 12];
    let results = simulate_metered("fig8", move |ctx| {
        db.prepare(ctx).expect("module load");
        let mut out = Vec::new();
        for (name, spec) in [("Query 1", query1()), ("Query 2", query2())] {
            for threads in loads {
                let load = HostLoad::new(threads);
                let conv = db
                    .execute(ctx, &spec, ExecMode::Conv, load)
                    .expect("conv run");
                let bis = db
                    .execute(ctx, &spec, ExecMode::Biscuit, load)
                    .expect("biscuit run");
                assert_eq!(conv.rows.len(), bis.rows.len(), "row counts agree");
                out.push((
                    name,
                    threads,
                    conv.stats.elapsed.as_secs_f64(),
                    bis.stats.elapsed.as_secs_f64(),
                    bis.rows.len(),
                    !bis.stats.offloaded_tables.is_empty(),
                ));
            }
        }
        out
    });
    let (results, metrics) = results;

    header(&format!("Fig. 8: lineitem filter queries (TPC-H SF {SF})"));
    row(&[
        "query/load",
        "Conv",
        "Biscuit",
        "speedup",
        "rows",
        "offloaded",
    ]);
    for (name, threads, conv_t, bis_t, rows_n, offloaded) in &results {
        row(&[
            &format!("{name} @{threads}thr"),
            &secs(*conv_t),
            &secs(*bis_t),
            &ratio(conv_t / bis_t),
            &rows_n.to_string(),
            &offloaded.to_string(),
        ]);
    }
    // Variance structure: Conv spread vs Biscuit spread across loads.
    for name in ["Query 1", "Query 2"] {
        let convs: Vec<f64> = results
            .iter()
            .filter(|r| r.0 == name)
            .map(|r| r.2)
            .collect();
        let biss: Vec<f64> = results
            .iter()
            .filter(|r| r.0 == name)
            .map(|r| r.3)
            .collect();
        let spread = |v: &[f64]| {
            let max = v.iter().cloned().fold(f64::MIN, f64::max);
            let min = v.iter().cloned().fold(f64::MAX, f64::min);
            (max - min) / min * 100.0
        };
        println!(
            "{name}: Conv spread across loads {:.0}% vs Biscuit {:.1}% (paper: Conv varied, Biscuit consistent)",
            spread(&convs),
            spread(&biss)
        );
    }
    println!("paper speed-ups: ~11x (Query 1), ~10x (Query 2)");

    let mut report = BenchReport::new("fig8_db_filter");
    for (name, threads, conv_t, bis_t, _rows, _off) in &results {
        let key = if *name == "Query 1" { "q1" } else { "q2" };
        report.push(
            &format!("{key}_load{threads}_speedup"),
            "x",
            None,
            conv_t / bis_t,
        );
    }
    report.set_metrics(metrics);
    report.write();
}
