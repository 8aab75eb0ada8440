//! Property tests over the query engine: for randomly generated predicates,
//! (1) the Conv scan equals a direct in-memory filter, and (2) Biscuit mode
//! returns exactly the same rows regardless of whether the planner chose to
//! offload — the repository's central correctness invariant, explored over
//! a much wider predicate space than the fixed TPC-H suite.

use std::sync::Arc;

use biscuit_sim::sync::Mutex;
use proptest::prelude::*;

use biscuit_core::{CoreConfig, Ssd};
use biscuit_db::expr::{CmpOp, Expr};
use biscuit_db::spec::{ExecMode, SelectSpec};
use biscuit_db::{ColumnType, Db, DbConfig, Row, Schema, Value};
use biscuit_fs::Fs;
use biscuit_host::{HostConfig, HostLoad};
use biscuit_sim::Simulation;
use biscuit_ssd::{SsdConfig, SsdDevice};

#[path = "support/tree_walk.rs"]
mod tree_walk;

const ROWS: usize = 8_000;
const CATEGORIES: [&str; 6] = ["ALPHA", "BRAVO", "CHARLIE", "DELTA", "ECHO", "FOXTROT"];

fn dataset() -> Vec<Row> {
    (0..ROWS)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Str(format!("{}{:02}", CATEGORIES[i % CATEGORIES.len()], i % 17)),
                Value::Float((i % 500) as f64 / 10.0),
                Value::Date(9_000 + (i % 900) as i32),
                Value::Str(format!("filler text to widen rows {i:0>40}")),
            ]
        })
        .collect()
}

fn make_db() -> Arc<Db> {
    let dev = Arc::new(SsdDevice::new(SsdConfig {
        logical_capacity: 256 << 20,
        ..SsdConfig::paper_default()
    }));
    let ssd = Ssd::new(Fs::format(dev), CoreConfig::paper_default());
    let mut db = Db::new(ssd, HostConfig::paper_default(), DbConfig::paper_default());
    let schema = Schema::new(&[
        ("id", ColumnType::Int),
        ("category", ColumnType::Str),
        ("price", ColumnType::Float),
        ("ship", ColumnType::Date),
        ("comment", ColumnType::Str),
    ]);
    db.create_table("items", schema, &dataset()).unwrap();
    Arc::new(db)
}

/// A small predicate grammar mixing keyable and unkeyable shapes.
fn predicate_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        // Equality on category (keyable).
        (0usize..CATEGORIES.len(), 0i64..17)
            .prop_map(|(c, n)| Expr::col_eq(1, Value::Str(format!("{}{:02}", CATEGORIES[c], n)))),
        // LIKE fragment on category (keyable).
        (0usize..CATEGORIES.len())
            .prop_map(|c| Expr::Like(Box::new(Expr::Col(1)), format!("%{}%", CATEGORIES[c]))),
        // Range on price (not keyable).
        (0.0f64..50.0).prop_map(|x| Expr::col_cmp(2, CmpOp::Lt, Value::Float(x))),
        // Range on id (not keyable).
        (0i64..ROWS as i64).prop_map(|x| Expr::col_cmp(0, CmpOp::Ge, Value::Int(x))),
        // Date between (sometimes keyable via prefixes, usually not).
        (9_000i32..9_800, 1i32..120).prop_map(|(lo, span)| Expr::Between(
            Box::new(Expr::Col(3)),
            Value::Date(lo),
            Value::Date(lo + span)
        )),
    ];
    leaf.prop_recursive(2, 6, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..3).prop_map(Expr::And),
            proptest::collection::vec(inner.clone(), 2..3).prop_map(Expr::Or),
            inner.prop_map(|e| Expr::Not(Box::new(e))),
        ]
    })
}

fn run_scan(db: Arc<Db>, predicate: Expr, mode: ExecMode) -> (Vec<Row>, bool) {
    let sim = Simulation::new(0);
    let out = Arc::new(Mutex::new(None));
    let o = Arc::clone(&out);
    sim.spawn("host", move |ctx| {
        let mut spec = SelectSpec::new("prop");
        spec.scan("items", Some(predicate));
        let r = db.execute(ctx, &spec, mode, HostLoad::IDLE).unwrap();
        *o.lock() = Some((r.rows, !r.stats.offloaded_tables.is_empty()));
    });
    sim.run().assert_quiescent();
    let result = out.lock().take().unwrap();
    result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_matches_reference_and_offload_is_transparent(pred in predicate_strategy()) {
        let db = make_db();
        // Reference: direct filter over the in-memory dataset.
        let expected: Vec<Row> = dataset()
            .into_iter()
            .filter(|row| tree_walk::eval_bool(&pred, row).unwrap_or(false))
            .collect();
        let (conv_rows, conv_offloaded) = run_scan(Arc::clone(&db), pred.clone(), ExecMode::Conv);
        prop_assert!(!conv_offloaded, "Conv mode must never offload");
        prop_assert_eq!(&conv_rows, &expected, "Conv scan diverged from reference");
        let (bis_rows, _maybe_offloaded) = run_scan(db, pred, ExecMode::Biscuit);
        prop_assert_eq!(&bis_rows, &expected, "Biscuit scan diverged from reference");
    }
}
