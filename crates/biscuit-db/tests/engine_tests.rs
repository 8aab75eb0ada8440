//! End-to-end engine tests: Conv and Biscuit modes must produce identical
//! results, the planner must offload only pattern-friendly selective scans,
//! and offloading must reduce both link traffic and execution time.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use biscuit_sim::sync::Mutex;

use biscuit_core::{CoreConfig, Ssd};
use biscuit_db::expr::{ArithOp, CmpOp, Expr};
use biscuit_db::spec::{AggFun, ExecMode, OrderKey, SelectSpec};
use biscuit_db::{ColumnType, Db, DbConfig, DbError, DbResult, QueryOutput, Row, Schema, Value};
use biscuit_fs::{Fs, Mode};
use biscuit_host::{HostConfig, HostLoad};
use biscuit_sim::Simulation;
use biscuit_ssd::{SsdConfig, SsdDevice};

#[path = "support/tree_walk.rs"]
mod tree_walk;

fn make_db() -> Db {
    make_db_with(DbConfig::paper_default())
}

fn make_db_with(cfg: DbConfig) -> Db {
    let dev = Arc::new(SsdDevice::new(SsdConfig {
        logical_capacity: 256 << 20,
        ..SsdConfig::paper_default()
    }));
    let ssd = Ssd::new(Fs::format(dev), CoreConfig::paper_default());
    Db::new(ssd, HostConfig::paper_default(), cfg)
}

/// items(id INT, category STR, price FLOAT, ship DATE): `rows` rows with a
/// rare category "TARGET" planted every `stride` rows.
fn load_items(db: &mut Db, rows: usize, stride: usize) {
    let schema = Schema::new(&[
        ("id", ColumnType::Int),
        ("category", ColumnType::Str),
        ("price", ColumnType::Float),
        ("ship", ColumnType::Date),
        ("comment", ColumnType::Str),
    ]);
    let data: Vec<Row> = (0..rows)
        .map(|i| {
            let cat = if i % stride == 0 {
                "TARGETCAT"
            } else {
                "FILLER"
            };
            vec![
                Value::Int(i as i64),
                Value::Str(format!("{cat}{:03}", i % 7)),
                Value::Float((i % 100) as f64),
                Value::Date(9000 + (i % 1000) as i32),
                Value::Str(format!("comment padding text {:0>80}", i)),
            ]
        })
        .collect();
    db.create_table("items", schema, &data).unwrap();
}

fn run_query(db: Arc<Db>, spec: SelectSpec, mode: ExecMode) -> QueryOutput {
    try_query(db, spec, mode).unwrap()
}

/// Runs one query to quiescence and returns what it returned.
fn try_query(db: Arc<Db>, spec: SelectSpec, mode: ExecMode) -> DbResult<QueryOutput> {
    metered_query(db, spec, mode).0
}

/// Runs one query and returns its output and the recovery failures the
/// fault plan recorded (`fault_failed_total`).
fn run_query_counting_failures(
    db: Arc<Db>,
    spec: SelectSpec,
    mode: ExecMode,
) -> (QueryOutput, u64) {
    let (out, failed) = metered_query(db, spec, mode);
    (out.unwrap(), failed)
}

/// Runs one query to quiescence with metrics on; returns what it returned
/// and the run's `fault_failed_total`.
fn metered_query(db: Arc<Db>, spec: SelectSpec, mode: ExecMode) -> (DbResult<QueryOutput>, u64) {
    let sim = Simulation::new(0);
    sim.enable_metrics();
    let out = Arc::new(Mutex::new(None));
    let o = Arc::clone(&out);
    sim.spawn("host", move |ctx| {
        *o.lock() = Some(db.execute(ctx, &spec, mode, HostLoad::IDLE));
    });
    let report = sim.run();
    report.assert_quiescent();
    let result = out.lock().take().unwrap();
    (result, report.metrics.counter_sum("fault_failed_total"))
}

fn selective_spec() -> SelectSpec {
    let mut spec = SelectSpec::new("selective");
    spec.scan(
        "items",
        Some(Expr::Like(Box::new(Expr::Col(1)), "%TARGETCAT%".into())),
    );
    spec
}

#[test]
fn conv_and_biscuit_agree_on_filter() {
    let mut db = make_db();
    load_items(&mut db, 30_000, 500);
    let db = Arc::new(db);
    let conv = run_query(Arc::clone(&db), selective_spec(), ExecMode::Conv);
    let bis = run_query(Arc::clone(&db), selective_spec(), ExecMode::Biscuit);
    assert_eq!(conv.rows.len(), 60);
    assert_eq!(conv.rows, bis.rows);
    assert!(conv.stats.offloaded_tables.is_empty());
    assert_eq!(bis.stats.offloaded_tables, vec!["items".to_string()]);
}

#[test]
fn offload_reduces_link_traffic_and_time() {
    let mut db = make_db();
    load_items(&mut db, 30_000, 500);
    let db = Arc::new(db);
    let conv = run_query(Arc::clone(&db), selective_spec(), ExecMode::Conv);
    let bis = run_query(Arc::clone(&db), selective_spec(), ExecMode::Biscuit);
    assert!(
        bis.stats.link_bytes_to_host * 4 < conv.stats.link_bytes_to_host,
        "link traffic: biscuit {} vs conv {}",
        bis.stats.link_bytes_to_host,
        conv.stats.link_bytes_to_host
    );
    assert!(
        bis.stats.elapsed.as_secs_f64() * 2.0 < conv.stats.elapsed.as_secs_f64(),
        "time: biscuit {} vs conv {}",
        bis.stats.elapsed,
        conv.stats.elapsed
    );
    assert!(bis.stats.device_pages_scanned > 0);
    assert_eq!(conv.stats.device_pages_scanned, 0);
}

#[test]
fn unfriendly_predicate_is_not_offloaded() {
    let mut db = make_db();
    load_items(&mut db, 10_000, 500);
    let db = Arc::new(db);
    // Range predicate over a wide span: no pattern keys
    // (`expr::tests::unfriendly_predicates_yield_no_keys`).
    let mut spec = SelectSpec::new("range");
    spec.scan(
        "items",
        Some(Expr::col_cmp(2, CmpOp::Lt, Value::Float(3.0))),
    );
    let bis = run_query(Arc::clone(&db), spec.clone(), ExecMode::Biscuit);
    assert!(bis.stats.offloaded_tables.is_empty());
    let conv = run_query(db, spec, ExecMode::Conv);
    assert_eq!(conv.rows, bis.rows);
}

/// A literal of another type than its column yields no pattern key: a
/// `FLOAT` column stores `37.00`, which the key `|37|` of `Int` 37 never
/// matches, so a scan offloaded on it would drop rows the host keeps. A
/// `Float` literal keys the same column and is offloaded.
#[test]
fn a_literal_of_another_type_than_its_column_returns_the_conv_rows() {
    let mut db = make_db();
    load_items(&mut db, 30_000, 500);
    let db = Arc::new(db);
    let price_in = |vals: Vec<Value>| Expr::InList(Box::new(Expr::Col(2)), vals);
    let cases = [
        (Expr::col_eq(2, Value::Int(37)), 300, false),
        (price_in(vec![Value::Int(37), Value::Int(38)]), 600, false),
        (Expr::col_eq(2, Value::Float(37.0)), 300, true),
    ];
    for (pred, rows, offloaded) in cases {
        let mut spec = SelectSpec::new("price");
        spec.scan("items", Some(pred.clone()));
        let conv = run_query(Arc::clone(&db), spec.clone(), ExecMode::Conv);
        let bis = run_query(Arc::clone(&db), spec, ExecMode::Biscuit);
        assert_eq!(conv.rows.len(), rows, "{pred:?}");
        assert_eq!(bis.rows.len(), rows, "{pred:?}");
        assert_eq!(bis.rows, conv.rows, "{pred:?}");
        assert_eq!(
            !bis.stats.offloaded_tables.is_empty(),
            offloaded,
            "{pred:?}"
        );
    }
}

#[test]
fn unselective_predicate_rejected_by_sampling() {
    let mut db = make_db();
    // Every row is TARGETCAT: the matcher passes every page.
    load_items(&mut db, 10_000, 1);
    let db = Arc::new(db);
    let bis = run_query(Arc::clone(&db), selective_spec(), ExecMode::Biscuit);
    assert!(
        bis.stats.offloaded_tables.is_empty(),
        "sampling should reject an unselective predicate"
    );
    assert_eq!(bis.rows.len(), 10_000);
}

#[test]
fn join_and_aggregate_agree_across_modes() {
    let mut db = make_db();
    load_items(&mut db, 20_000, 400);
    // categories(name STR, weight INT): joins on category string.
    let schema = Schema::new(&[("name", ColumnType::Str), ("weight", ColumnType::Int)]);
    let cats: Vec<Row> = (0..7)
        .flat_map(|i| {
            vec![
                vec![Value::Str(format!("TARGETCAT{i:03}")), Value::Int(i)],
                vec![Value::Str(format!("FILLER{i:03}")), Value::Int(100 + i)],
            ]
        })
        .collect();
    db.create_table("categories", schema, &cats).unwrap();
    let db = Arc::new(db);

    let build = || {
        let mut spec = SelectSpec::new("join-agg");
        let items = spec.scan(
            "items",
            Some(Expr::Like(Box::new(Expr::Col(1)), "%TARGETCAT%".into())),
        );
        let cats = spec.scan("categories", None);
        // items.category = categories.name
        spec.join(items, 1, cats, 0);
        // SELECT weight, COUNT(*), SUM(price) GROUP BY weight ORDER BY weight
        spec.group_by = vec![Expr::Col(6)]; // categories.weight (offset 5 + 1)
        spec.aggregates = vec![
            (AggFun::Count, Expr::Lit(Value::Int(1))),
            (AggFun::Sum, Expr::Col(2)),
        ];
        spec.order_by = vec![OrderKey {
            col: 0,
            desc: false,
        }];
        spec
    };
    let conv = run_query(Arc::clone(&db), build(), ExecMode::Conv);
    let bis = run_query(Arc::clone(&db), build(), ExecMode::Biscuit);
    assert_eq!(conv.rows, bis.rows);
    assert!(!conv.rows.is_empty());
    assert_eq!(bis.stats.offloaded_tables, vec!["items".to_string()]);
}

#[test]
fn projection_order_limit() {
    let mut db = make_db();
    load_items(&mut db, 1_000, 10);
    let db = Arc::new(db);
    let mut spec = SelectSpec::new("top");
    spec.scan("items", None);
    spec.projection = vec![Expr::Col(0), Expr::Col(2)];
    spec.order_by = vec![
        OrderKey { col: 1, desc: true },
        OrderKey {
            col: 0,
            desc: false,
        },
    ];
    spec.limit = Some(5);
    let out = run_query(db, spec, ExecMode::Conv);
    assert_eq!(out.rows.len(), 5);
    // Highest price first; ties broken by ascending id.
    assert_eq!(out.rows[0][1], Value::Float(99.0));
    assert!(int(&out.rows[0][0]) < int(&out.rows[1][0]));
}

/// `ratios(id, x, y)` with `x / y` ordered ascending, in both modes: the
/// numbers (infinities included) come first in order, then every NaN row,
/// and rows with equal ratios keep their id order.
#[test]
fn order_by_sorts_nan_after_every_number() {
    let four = [(3, 1), (0, 0), (1, 1), (2, 1)];
    // Past the sort's insertion-sort cutoff: ties, NaNs and infinities
    // spread through the input.
    let many: Vec<(i64, i64)> = (0..45)
        .map(|i| match i % 6 {
            0 => (0, 0),
            3 => (i % 4, 0),
            _ => ((i * 7) % 5, 1 + i % 2),
        })
        .collect();
    for pairs in [&four[..], &many[..]] {
        let mut db = make_db();
        let schema = Schema::new(&[
            ("id", ColumnType::Int),
            ("x", ColumnType::Int),
            ("y", ColumnType::Int),
        ]);
        let rows: Vec<Row> = (0..)
            .zip(pairs)
            .map(|(id, &(x, y))| vec![Value::Int(id), Value::Int(x), Value::Int(y)])
            .collect();
        db.create_table("ratios", schema, &rows).unwrap();
        let db = Arc::new(db);
        let ratio = |&(x, y): &(i64, i64)| x as f64 / y as f64;
        let mut want: Vec<i64> = (0..pairs.len() as i64).collect();
        want.sort_by(|&a, &b| {
            let (a, b) = (ratio(&pairs[a as usize]), ratio(&pairs[b as usize]));
            a.is_nan()
                .cmp(&b.is_nan())
                .then(a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal))
        });
        for mode in [ExecMode::Conv, ExecMode::Biscuit] {
            let mut spec = SelectSpec::new("ratios");
            spec.scan("ratios", None);
            spec.projection = vec![
                Expr::Col(0),
                Expr::Arith(ArithOp::Div, Box::new(Expr::Col(1)), Box::new(Expr::Col(2))),
            ];
            spec.order_by = vec![OrderKey {
                col: 1,
                desc: false,
            }];
            let out = run_query(Arc::clone(&db), spec, mode);
            let ids: Vec<i64> = out.rows.iter().map(|r| int(&r[0])).collect();
            assert_eq!(ids, want, "{mode:?}, {} rows", pairs.len());
        }
    }
}

#[test]
fn explain_reports_offload_and_join_order() {
    let mut db = make_db();
    load_items(&mut db, 30_000, 500);
    let schema = Schema::new(&[("name", ColumnType::Str), ("weight", ColumnType::Int)]);
    let cats: Vec<Row> = (0..7)
        .map(|i| vec![Value::Str(format!("TARGETCAT{i:03}")), Value::Int(i)])
        .collect();
    db.create_table("categories", schema, &cats).unwrap();
    let db = Arc::new(db);
    let sim = Simulation::new(0);
    let out = Arc::new(Mutex::new(None));
    let o = Arc::clone(&out);
    sim.spawn("host", move |ctx| {
        let mut spec = SelectSpec::new("x");
        let items = spec.scan(
            "items",
            Some(Expr::Like(Box::new(Expr::Col(1)), "%TARGETCAT%".into())),
        );
        let cats = spec.scan("categories", None);
        spec.join(items, 1, cats, 0);
        let plan = db
            .explain(ctx, &spec, ExecMode::Biscuit, HostLoad::IDLE)
            .unwrap();
        *o.lock() = Some(plan);
    });
    sim.run().assert_quiescent();
    let plan = out.lock().take().unwrap();
    assert!(plan.scans[0].offloaded, "{plan:?}");
    assert!(plan.scans[0].est_selectivity < 0.01, "{plan:?}");
    assert!(plan.scans[0].keys[0].contains("TARGETCAT"), "{plan:?}");
    assert!(!plan.scans[1].offloaded);
    // NDP-filtered table leads the join order.
    assert_eq!(plan.join_order[0], "items");
}

#[test]
fn aggregate_pushdown_extension_matches_host_aggregation() {
    use biscuit_db::spec::AggFun;
    // Same data, same query, three engines: Conv, Biscuit (filter-only),
    // Biscuit with on-device aggregation. All must produce the same sums.
    let dev = || {
        Arc::new(SsdDevice::new(SsdConfig {
            logical_capacity: 256 << 20,
            ..SsdConfig::paper_default()
        }))
    };
    let build = |pushdown: bool| {
        let ssd = Ssd::new(Fs::format(dev()), CoreConfig::paper_default());
        let mut db = Db::new(
            ssd,
            HostConfig::paper_default(),
            DbConfig {
                aggregate_pushdown: pushdown,
                ..DbConfig::paper_default()
            },
        );
        load_items_into(&mut db);
        Arc::new(db)
    };
    fn load_items_into(db: &mut Db) {
        let schema = Schema::new(&[
            ("id", ColumnType::Int),
            ("category", ColumnType::Str),
            ("price", ColumnType::Float),
            ("ship", ColumnType::Date),
            ("comment", ColumnType::Str),
        ]);
        let data: Vec<Row> = (0..30_000usize)
            .map(|i| {
                let cat = if i % 500 == 0 { "TARGETCAT" } else { "FILLER" };
                vec![
                    Value::Int(i as i64),
                    Value::Str(format!("{cat}{:03}", i % 7)),
                    Value::Float((i % 100) as f64),
                    Value::Date(9000 + (i % 1000) as i32),
                    Value::Str(format!("comment padding text {i:0>80}")),
                ]
            })
            .collect();
        db.create_table("items", schema, &data).unwrap();
    }
    let spec = || {
        let mut spec = SelectSpec::new("agg");
        spec.scan(
            "items",
            Some(Expr::Like(Box::new(Expr::Col(1)), "%TARGETCAT%".into())),
        );
        spec.aggregates = vec![
            (AggFun::Sum, Expr::Col(2)),
            (AggFun::Count, Expr::Lit(Value::Int(1))),
            (AggFun::Min, Expr::Col(0)),
            (AggFun::Max, Expr::Col(0)),
        ];
        spec
    };
    let conv = run_query(build(false), spec(), ExecMode::Conv);
    let plain = run_query(build(false), spec(), ExecMode::Biscuit);
    let pushed = run_query(build(true), spec(), ExecMode::Biscuit);
    assert_eq!(conv.rows, plain.rows);
    assert_eq!(conv.rows, pushed.rows);
    assert_eq!(pushed.stats.offloaded_tables, vec!["items".to_string()]);
    // On-device aggregation moves strictly fewer bytes over the link than
    // filter-only offload (one row vs all qualifying rows).
    assert!(
        pushed.stats.link_bytes_to_host < plain.stats.link_bytes_to_host,
        "pushdown {} vs filter-only {}",
        pushed.stats.link_bytes_to_host,
        plain.stats.link_bytes_to_host
    );
}

/// An aggregate input the device cannot evaluate (`category * 2` over a
/// string column) fails in all three engines with the host's error; the
/// on-device aggregator used to skip the bad rows and return a sum of 0.
#[test]
fn aggregate_pushdown_reports_the_evaluation_error_the_host_does() {
    let spec = || {
        let mut spec = selective_spec();
        spec.aggregates = vec![(
            AggFun::Sum,
            Expr::Arith(
                ArithOp::Mul,
                Box::new(Expr::Col(1)),
                Box::new(Expr::Lit(Value::Int(2))),
            ),
        )];
        spec
    };
    let run = |pushdown: bool, mode: ExecMode| {
        let mut db = make_db_with(DbConfig {
            aggregate_pushdown: pushdown,
            ..DbConfig::paper_default()
        });
        load_items(&mut db, 30_000, 500);
        match try_query(Arc::new(db), spec(), mode) {
            Ok(out) => panic!("pushdown {pushdown}, {mode:?}: returned {:?}", out.rows),
            Err(e) => e.to_string(),
        }
    };
    let conv = run(false, ExecMode::Conv);
    assert_eq!(conv, "type error: arith on non-number");
    assert_eq!(run(false, ExecMode::Biscuit), conv);
    assert_eq!(run(true, ExecMode::Biscuit), conv);
}

/// With the panic budget larger than the restart budget the scan SSDlet
/// fails terminally; the engine must degrade to a host-side scan and still
/// return byte-identical rows.
#[test]
fn ssdlet_failure_falls_back_to_host_scan() {
    use biscuit_sim::fault::{FaultConfig, FaultSite};
    use biscuit_sim::FaultPlan;

    let mut db = make_db();
    load_items(&mut db, 30_000, 500);
    let db = Arc::new(db);
    let clean = run_query(Arc::clone(&db), selective_spec(), ExecMode::Biscuit);

    let mut db = make_db();
    load_items(&mut db, 30_000, 500);
    let plan = FaultPlan::seeded(
        7,
        FaultConfig {
            ssdlet_panics: 2,
            ssdlet_stalls: 0,
            ssdlet_max_restarts: 1,
            ..FaultConfig::default()
        },
    );
    db.ssd().attach_fault_plan(&plan);
    let db = Arc::new(db);
    let (faulty, failed) =
        run_query_counting_failures(Arc::clone(&db), selective_spec(), ExecMode::Biscuit);

    assert_eq!(clean.rows, faulty.rows);
    assert!(failed >= 1, "restart budget must be exhausted");
    assert!(
        plan.recovered_at(FaultSite::Ssdlet) >= 1,
        "host fallback must be recorded as a recovery"
    );
}

/// A panic within the restart budget recovers in place: the restarted
/// SSDlet completes the offload and no host fallback happens.
#[test]
fn ssdlet_restart_recovers_without_fallback() {
    use biscuit_sim::fault::{FaultConfig, FaultSite};
    use biscuit_sim::FaultPlan;

    let mut db = make_db();
    load_items(&mut db, 30_000, 500);
    let db = Arc::new(db);
    let clean = run_query(Arc::clone(&db), selective_spec(), ExecMode::Biscuit);

    let mut db = make_db();
    load_items(&mut db, 30_000, 500);
    let plan = FaultPlan::seeded(
        7,
        FaultConfig {
            ssdlet_panics: 1,
            ssdlet_stalls: 0,
            ssdlet_max_restarts: 2,
            ..FaultConfig::default()
        },
    );
    db.ssd().attach_fault_plan(&plan);
    let db = Arc::new(db);
    let (faulty, failed) =
        run_query_counting_failures(Arc::clone(&db), selective_spec(), ExecMode::Biscuit);

    assert_eq!(clean.rows, faulty.rows);
    assert_eq!(failed, 0, "restart must succeed");
    assert!(
        plan.recovered_at(FaultSite::Ssdlet) >= 1,
        "restart must be recorded"
    );
    assert_eq!(
        faulty.stats.offloaded_tables,
        vec!["items".to_string()],
        "offload must complete on-device after the restart"
    );
}

/// An aggressively small host timeout abandons a healthy offload mid-query;
/// the conventional fallback must still produce identical rows.
#[test]
fn host_timeout_falls_back_to_host_scan() {
    use biscuit_sim::fault::{FaultConfig, FaultSite};
    use biscuit_sim::time::SimDuration;
    use biscuit_sim::FaultPlan;

    let mut db = make_db();
    load_items(&mut db, 30_000, 500);
    let db = Arc::new(db);
    let clean = run_query(Arc::clone(&db), selective_spec(), ExecMode::Biscuit);

    let mut db = make_db();
    load_items(&mut db, 30_000, 500);
    let plan = FaultPlan::seeded(
        7,
        FaultConfig {
            host_timeout: Some(SimDuration::from_nanos(50)),
            ..FaultConfig::default()
        },
    );
    db.ssd().attach_fault_plan(&plan);
    let db = Arc::new(db);
    let (faulty, failed) =
        run_query_counting_failures(Arc::clone(&db), selective_spec(), ExecMode::Biscuit);

    assert_eq!(clean.rows, faulty.rows);
    assert!(
        failed >= 1,
        "the timed-out request must be recorded as failed"
    );
    assert!(
        plan.recovered_at(FaultSite::Ssdlet) >= 1,
        "host fallback must be recorded as a recovery"
    );
}

// ---------- row executor: selections, one per join, re-scan still paid ----------

/// owners(id INT, name STR): the outer side of the join tests.
fn load_owners(db: &mut Db, rows: usize) {
    let schema = Schema::new(&[("id", ColumnType::Int), ("name", ColumnType::Str)]);
    let data: Vec<Row> = (0..rows)
        .map(|i| vec![Value::Int(i as i64), Value::Str(format!("owner{i:05}"))])
        .collect();
    db.create_table("owners", schema, &data).unwrap();
}

/// owners ⋈ items on owners.id = items.id, items filtered on price.
fn owners_items_join(owner_pred: Option<Expr>) -> SelectSpec {
    let mut spec = SelectSpec::new("owners-items");
    let owners = spec.scan("owners", owner_pred);
    let items = spec.scan(
        "items",
        Some(Expr::col_cmp(2, CmpOp::Lt, Value::Float(50.0))),
    );
    spec.join(owners, 0, items, 0);
    spec
}

/// A Conv join over `outer_rows` owners with `block_rows`-row blocks:
/// its output and the pages the device read for it.
fn run_conv_join(outer_rows: usize, block_rows: usize, spec: SelectSpec) -> (QueryOutput, u64, Db) {
    let mut db = make_db_with(DbConfig {
        bnl_block_rows: block_rows,
        ..DbConfig::paper_default()
    });
    load_items(&mut db, 4_000, 500);
    load_owners(&mut db, outer_rows);
    let db = Arc::new(db);
    let before = db.ssd().device().stats().pages_read.load(Ordering::Relaxed);
    let out = run_query(Arc::clone(&db), spec, ExecMode::Conv);
    let pages = db.ssd().device().stats().pages_read.load(Ordering::Relaxed) - before;
    let db = Arc::try_unwrap(db).expect("query finished");
    (out, pages, db)
}

#[test]
fn inner_rescan_is_paid_once_per_outer_block() {
    // 300 owners (one page set, smaller than items, so owners leads) in
    // blocks of 100 rows: three blocks, three inner scans.
    let (three, pages_three, db) = run_conv_join(300, 100, owners_items_join(None));
    let (one, pages_one, _) = run_conv_join(300, 300, owners_items_join(None));
    let outer_pages = db.catalog().table("owners").unwrap().pages;
    let inner_pages = db.catalog().table("items").unwrap().pages;
    assert!(inner_pages > outer_pages);
    assert_eq!(pages_three, outer_pages + 3 * inner_pages);
    assert_eq!(pages_one, outer_pages + inner_pages);

    // Same rows either way: the selection is computed once, not per block.
    assert_eq!(three.rows, one.rows);
    assert_eq!(three.rows.len(), 150, "ids 0..300 with price < 50");

    // What one inner scan costs on its own (on a drive nothing has used).
    let mut scan_only = SelectSpec::new("items-only");
    scan_only.scan(
        "items",
        Some(Expr::col_cmp(2, CmpOp::Lt, Value::Float(50.0))),
    );
    let mut fresh = make_db();
    load_items(&mut fresh, 4_000, 500);
    let inner_scan = run_query(Arc::new(fresh), scan_only, ExecMode::Conv);

    let extra_link = three.stats.link_bytes_to_host - one.stats.link_bytes_to_host;
    assert_eq!(extra_link, 2 * inner_scan.stats.link_bytes_to_host);
    let extra_time = three.stats.elapsed - one.stats.elapsed;
    let two_scans = inner_scan.stats.elapsed + inner_scan.stats.elapsed;
    assert!(
        extra_time >= two_scans,
        "two more inner scans ({two_scans}) must cost at least their time, got {extra_time}"
    );
    assert!(
        extra_time < two_scans + inner_scan.stats.elapsed,
        "only the scans and their probes are extra: {extra_time} vs {two_scans}"
    );
}

#[test]
fn empty_outer_performs_no_inner_scan() {
    let nobody = Expr::col_cmp(0, CmpOp::Lt, Value::Int(0));
    let (out, pages, db) = run_conv_join(300, 100, owners_items_join(Some(nobody)));
    assert!(out.rows.is_empty());
    assert_eq!(pages, db.catalog().table("owners").unwrap().pages);
}

#[test]
fn plain_scan_returns_owned_copies_of_the_loaded_rows() {
    let schema = Schema::new(&[("id", ColumnType::Int), ("tag", ColumnType::Str)]);
    let loaded: Vec<Row> = (0..2_000)
        .map(|i| vec![Value::Int(i), Value::Str(format!("tag{:02}", i % 13))])
        .collect();
    let mut db = make_db();
    db.create_table("tags", schema, &loaded).unwrap();
    let db = Arc::new(db);

    let pred = Expr::col_eq(1, Value::Str("tag07".into()));
    let mut filtered = SelectSpec::new("filtered");
    filtered.scan("tags", Some(pred.clone()));
    let expected: Vec<Row> = loaded
        .iter()
        .filter(|r| tree_walk::eval_bool(&pred, r).unwrap())
        .cloned()
        .collect();
    let mut out = run_query(Arc::clone(&db), filtered.clone(), ExecMode::Conv);
    assert_eq!(out.rows, expected);

    // The result is the caller's: changing it does not reach the engine's
    // cached snapshot.
    out.rows[0][1] = Value::Str("scribbled".into());
    assert_eq!(
        run_query(Arc::clone(&db), filtered, ExecMode::Conv).rows,
        expected
    );

    let mut everything = SelectSpec::new("everything");
    everything.scan("tags", None);
    assert_eq!(run_query(db, everything, ExecMode::Conv).rows, loaded);
}

/// The timed-out offload's fallback goes through the selection path: it must
/// return exactly what a Conv run of the same query returns.
#[test]
fn host_timeout_fallback_returns_the_conv_rows() {
    use biscuit_sim::fault::FaultConfig;
    use biscuit_sim::time::SimDuration;
    use biscuit_sim::FaultPlan;

    let mut db = make_db();
    load_items(&mut db, 30_000, 500);
    let plan = FaultPlan::seeded(
        7,
        FaultConfig {
            host_timeout: Some(SimDuration::from_nanos(50)),
            ..FaultConfig::default()
        },
    );
    db.ssd().attach_fault_plan(&plan);
    let db = Arc::new(db);
    let conv = run_query(Arc::clone(&db), selective_spec(), ExecMode::Conv);
    let (faulty, failed) =
        run_query_counting_failures(Arc::clone(&db), selective_spec(), ExecMode::Biscuit);
    assert!(failed >= 1, "the offload must have timed out");
    assert_eq!(faulty.rows.len(), 60);
    assert_eq!(faulty.rows, conv.rows);
}

/// Runs `f` in a host fiber to quiescence and returns what it returned.
fn in_sim<T: Send + 'static>(f: impl FnOnce(&biscuit_sim::Ctx) -> T + Send + 'static) -> T {
    let sim = Simulation::new(0);
    let out = Arc::new(Mutex::new(None));
    let o = Arc::clone(&out);
    sim.spawn("host", move |ctx| *o.lock() = Some(f(ctx)));
    sim.run().assert_quiescent();
    let result = out.lock().take().unwrap();
    result
}

/// The column cache parses a whole table file the first time a Conv scan
/// reads it: a line that does not parse fails that scan wherever it sits
/// — first or last row, first, middle or last page — as a `CorruptRow`
/// naming the table and the line.
#[test]
fn a_corrupt_line_anywhere_fails_the_scan_that_reads_it() {
    let schema = Schema::new(&[("id", ColumnType::Int), ("name", ColumnType::Str)]);
    let rows: Vec<Row> = (0..1200)
        .map(|i| vec![Value::Int(100_000 + i), Value::Str(format!("ü{i:0>40}"))])
        .collect();
    for bad in [0, 1, 600, 1198, 1199] {
        let mut db = make_db();
        db.create_table("t", schema.clone(), &rows).unwrap();
        assert!(db.catalog().table("t").unwrap().pages >= 3);
        let db = Arc::new(db);
        let result = in_sim(move |ctx| {
            let file = db.ssd().fs().open("tbl_t", Mode::ReadWrite).unwrap();
            let bytes = file.read_at(ctx, 0, file.len()).unwrap();
            let needle = format!("|{}|", 100_000 + bad);
            let at = bytes
                .windows(needle.len())
                .position(|w| w == needle.as_bytes())
                .unwrap();
            file.write_at(ctx, at as u64 + 1, b"x").unwrap();
            let mut spec = SelectSpec::new("all");
            spec.scan("t", Some(Expr::col_cmp(0, CmpOp::Ge, Value::Int(0))));
            db.execute(ctx, &spec, ExecMode::Conv, HostLoad::IDLE)
        });
        match result {
            Err(DbError::CorruptRow { table, line }) => {
                assert_eq!(table, "t");
                assert_eq!(line, format!("|x{:05}|ü{bad:0>40}|", bad));
            }
            other => panic!("row {bad}: {other:?}"),
        }
    }
}

/// An empty table scans to no rows (and a global aggregate to its one
/// zero row); strings holding multibyte UTF-8 read back whole from the
/// column cache, through `LIKE`, `PREFIX` and equality.
#[test]
fn empty_tables_and_multibyte_strings_scan_from_the_column_cache() {
    let mut db = make_db();
    let schema = Schema::new(&[("id", ColumnType::Int), ("name", ColumnType::Str)]);
    db.create_table("empty", schema.clone(), &[]).unwrap();
    let names = ["日本語", "ü", "naïve café", "", "plain", "日本"];
    let rows: Vec<Row> = names
        .iter()
        .enumerate()
        .map(|(i, s)| vec![Value::Int(i as i64), Value::Str((*s).to_owned())])
        .collect();
    db.create_table("names", schema, &rows).unwrap();
    let db = Arc::new(db);

    let mut all = SelectSpec::new("empty-all");
    all.scan("empty", None);
    assert!(run_query(Arc::clone(&db), all, ExecMode::Conv)
        .rows
        .is_empty());
    let mut count = SelectSpec::new("empty-count");
    count.scan("empty", None);
    count.aggregates = vec![(AggFun::Count, Expr::Col(0))];
    let out = run_query(Arc::clone(&db), count, ExecMode::Conv);
    assert_eq!(out.rows, vec![vec![Value::Int(0)]]);

    let mut spec = SelectSpec::new("multibyte");
    spec.scan(
        "names",
        Some(Expr::Or(vec![
            Expr::Like(Box::new(Expr::Col(1)), "日本%".into()),
            Expr::col_eq(1, Value::Str("naïve café".into())),
        ])),
    );
    spec.projection = vec![
        Expr::Col(1),
        Expr::Prefix(Box::new(Expr::Col(1)), 2),
        Expr::Col(0),
    ];
    let out = run_query(Arc::clone(&db), spec, ExecMode::Conv);
    let st = |s: &str| Value::Str(s.to_owned());
    assert_eq!(
        out.rows,
        vec![
            vec![st("日本語"), st("日本"), Value::Int(0)],
            vec![st("naïve café"), st("na"), Value::Int(2)],
            vec![st("日本"), st("日本"), Value::Int(5)],
        ]
    );
}

/// With `min_table_pages: 0` an empty table is an offload candidate: the
/// planner samples none of its (zero) pages, declines to offload, and
/// Biscuit returns what Conv does — no rows.
#[test]
fn an_empty_table_samples_nothing_and_both_modes_return_no_rows() {
    let mut db = make_db_with(DbConfig {
        min_table_pages: 0,
        ..DbConfig::paper_default()
    });
    let schema = Schema::new(&[("id", ColumnType::Int), ("name", ColumnType::Str)]);
    db.create_table("empty", schema, &[]).unwrap();
    assert_eq!(db.catalog().table("empty").unwrap().pages, 0);
    let db = Arc::new(db);
    let mut spec = SelectSpec::new("empty-target");
    // The predicate has a pattern key (`expr::tests::equality_yields_framed_key`).
    spec.scan("empty", Some(Expr::col_eq(1, Value::Str("TARGET".into()))));

    let conv = run_query(Arc::clone(&db), spec.clone(), ExecMode::Conv);
    let biscuit = run_query(Arc::clone(&db), spec.clone(), ExecMode::Biscuit);
    assert!(conv.rows.is_empty());
    assert_eq!(biscuit.rows, conv.rows);
    let plan =
        in_sim(move |ctx| db.explain(ctx, &spec, ExecMode::Biscuit, HostLoad::IDLE)).unwrap();
    assert!(!plan.scans[0].offloaded);
    assert_eq!(plan.scans[0].est_selectivity, 1.0);
}

/// A spec whose shape does not fit the catalog is a typed error from both
/// `execute` and `explain`, checked before any row is read: no scans, an
/// ORDER BY column past the output, a join column past its table, and an
/// edge naming a scan the spec lacks (or one scan twice). These used to
/// panic, or ignore the edge and return the cross product.
#[test]
fn malformed_specs_are_typed_errors() {
    let mut db = make_db();
    load_items(&mut db, 100, 10);
    let db = Arc::new(db);
    let two_scans = |l: usize, lc: usize, r: usize, rc: usize| {
        let mut spec = SelectSpec::new("join");
        spec.scan("items", None);
        spec.scan("items", None);
        spec.join(l, lc, r, rc);
        spec
    };
    let mut order_past_output = SelectSpec::new("order");
    order_past_output.scan("items", None);
    order_past_output.order_by = vec![OrderKey {
        col: 9,
        desc: false,
    }];
    let cases = [
        (SelectSpec::new("no scans"), "unsupported"),
        (order_past_output, "unknown column"),
        (two_scans(0, 17, 1, 0), "unknown column"),
        (two_scans(0, 0, 5, 0), "unsupported"),
        (two_scans(1, 0, 1, 2), "unsupported"),
    ];
    for (spec, kind) in cases {
        let run = Arc::clone(&db);
        let (executed, explained) = in_sim(move |ctx| {
            let executed = run.execute(ctx, &spec, ExecMode::Conv, HostLoad::IDLE);
            let explained = run.explain(ctx, &spec, ExecMode::Conv, HostLoad::IDLE);
            (executed.map(|out| out.rows.len()), explained.map(|_| ()))
        });
        for err in [executed.map(|_| ()), explained] {
            match err {
                Err(e @ (DbError::Unsupported(_) | DbError::UnknownColumn(_))) => {
                    assert!(e.to_string().starts_with(kind), "{e}");
                }
                other => panic!("expected {kind}, got {other:?}"),
            }
        }
    }
}

// ---------- joins against a nested-loop reference, output order included ----------

/// parts(id, kind, pad) ⋈ supp(id, part, tier, pad) ⋈ ship(id, supp, pad):
/// parts 0–299 have three suppliers each and about half the suppliers two
/// shipments, so keys repeat on both sides of each join. "RARE" parts (1 in 9)
/// and "GOLD" suppliers (1 in 11) are selective enough to offload.
fn join_tables() -> Vec<(&'static str, Schema, Vec<Row>)> {
    let int = |i: usize| Value::Int(i as i64);
    let pad = |i: usize| Value::Str(format!("{i:0>48}"));
    let parts = (0..600)
        .map(|i| {
            let kind = if i % 9 == 0 {
                "RARE".into()
            } else {
                format!("COMMON{}", i % 5)
            };
            vec![int(i), Value::Str(kind), pad(i)]
        })
        .collect();
    let supp = (0..900)
        .map(|i| {
            let tier = if i % 11 == 0 {
                "GOLD".into()
            } else {
                format!("TIN{}", i % 3)
            };
            vec![int(i), int(i % 300), Value::Str(tier), pad(i)]
        })
        .collect();
    let ship = (0..1500)
        .map(|i| vec![int(i), int((i * 7) % 1000), pad(i)])
        .collect();
    vec![
        (
            "parts",
            Schema::new(&[
                ("id", ColumnType::Int),
                ("kind", ColumnType::Str),
                ("pad", ColumnType::Str),
            ]),
            parts,
        ),
        (
            "supp",
            Schema::new(&[
                ("id", ColumnType::Int),
                ("part", ColumnType::Int),
                ("tier", ColumnType::Str),
                ("pad", ColumnType::Str),
            ]),
            supp,
        ),
        (
            "ship",
            Schema::new(&[
                ("id", ColumnType::Int),
                ("supp", ColumnType::Int),
                ("pad", ColumnType::Str),
            ]),
            ship,
        ),
    ]
}

/// A database holding [`join_tables`], offloading any table of a page or
/// more, joining in `block_rows`-row blocks.
fn join_db(block_rows: usize) -> Db {
    let mut db = make_db_with(DbConfig {
        bnl_block_rows: block_rows,
        min_table_pages: 1,
        ..DbConfig::paper_default()
    });
    for (name, schema, rows) in join_tables() {
        db.create_table(name, schema, &rows).unwrap();
    }
    db
}

/// parts ⋈ supp ⋈ ship on part and supplier ids, with these local
/// predicates.
fn three_way(parts: Option<Expr>, supp: Option<Expr>, ship: Option<Expr>) -> SelectSpec {
    let mut spec = SelectSpec::new("three-way");
    let p = spec.scan("parts", parts);
    let s = spec.scan("supp", supp);
    let h = spec.scan("ship", ship);
    spec.join(p, 0, s, 1);
    spec.join(s, 0, h, 1);
    spec
}

fn str_eq(col: usize, s: &str) -> Option<Expr> {
    Some(Expr::col_eq(col, Value::Str(s.into())))
}

/// The engine's block nested-loop join spelled as plain loops over the
/// loaded rows, in `order` (scan indexes) with `block_rows`-row outer
/// blocks. Per block: with join edges, each inner row in table order, each
/// with its matching block rows in block order; without, each block row
/// with each inner row. Output rows are the scans' rows in spec order.
fn reference_join(spec: &SelectSpec, order: &[usize], block_rows: usize) -> Vec<Row> {
    let tables = join_tables();
    let selected: Vec<Vec<&Row>> = spec
        .scans
        .iter()
        .map(|scan| {
            let (_, _, rows) = tables.iter().find(|(n, _, _)| *n == scan.table).unwrap();
            rows.iter()
                .filter(|r| {
                    scan.predicate
                        .as_ref()
                        .is_none_or(|p| tree_walk::eval_bool(p, r).unwrap())
                })
                .collect()
        })
        .collect();
    let first = order[0];
    let mut acc: Vec<Vec<Option<&Row>>> = selected[first]
        .iter()
        .map(|&r| {
            let mut tuple = vec![None; spec.scans.len()];
            tuple[first] = Some(r);
            tuple
        })
        .collect();
    for (k, &next) in order.iter().enumerate().skip(1) {
        let done = &order[..k];
        // (joined scan, its column, inner column)
        let keys: Vec<(usize, usize, usize)> = spec
            .edges
            .iter()
            .filter_map(|e| {
                if e.left == next && done.contains(&e.right) {
                    Some((e.right, e.right_col, e.left_col))
                } else if e.right == next && done.contains(&e.left) {
                    Some((e.left, e.left_col, e.right_col))
                } else {
                    None
                }
            })
            .collect();
        let meets = |tuple: &[Option<&Row>], inner: &Row| {
            keys.iter()
                .all(|&(s, c, ic)| tuple[s].unwrap()[c] == inner[ic])
        };
        let mut out = Vec::new();
        for block in acc.chunks(block_rows) {
            if keys.is_empty() {
                for tuple in block {
                    for &inner in &selected[next] {
                        let mut t = tuple.clone();
                        t[next] = Some(inner);
                        out.push(t);
                    }
                }
                continue;
            }
            for &inner in &selected[next] {
                for tuple in block.iter().filter(|t| meets(t, inner)) {
                    let mut t = tuple.clone();
                    t[next] = Some(inner);
                    out.push(t);
                }
            }
        }
        acc = out;
    }
    acc.into_iter()
        .map(|t| {
            t.into_iter()
                .flat_map(|r| r.unwrap().iter().cloned())
                .collect()
        })
        .collect()
}

/// Runs `spec` on `db` in `mode`: its output and its join order (scan
/// indexes, from `explain`).
fn run_join(db: Arc<Db>, spec: &SelectSpec, mode: ExecMode) -> (QueryOutput, Vec<usize>) {
    let order = join_order(&db, spec, mode);
    (run_query(db, spec.clone(), mode), order)
}

/// The planner's join order, as indices into `spec.scans`.
fn join_order(db: &Arc<Db>, spec: &SelectSpec, mode: ExecMode) -> Vec<usize> {
    let run = Arc::clone(db);
    let planned = spec.clone();
    let plan = in_sim(move |ctx| run.explain(ctx, &planned, mode, HostLoad::IDLE)).unwrap();
    plan.join_order
        .iter()
        .map(|t| spec.scans.iter().position(|s| &s.table == t).unwrap())
        .collect()
}

/// A three-table join at blocks of 1, 3 and the default rows, in both modes,
/// returns the reference's rows in the reference's order.
#[test]
fn three_table_join_equals_the_nested_loop_reference() {
    let default = DbConfig::paper_default().bnl_block_rows;
    let spec = three_way(str_eq(1, "RARE"), None, None);
    for block_rows in [1, 3, default] {
        let db = Arc::new(join_db(block_rows));
        for mode in [ExecMode::Conv, ExecMode::Biscuit] {
            let (out, order) = run_join(Arc::clone(&db), &spec, mode);
            let expected = reference_join(&spec, &order, block_rows);
            assert_eq!(expected.len(), 155);
            assert_eq!(out.rows, expected, "{mode:?}, blocks of {block_rows}");
            let offloaded = mode == ExecMode::Biscuit;
            assert_eq!(out.stats.offloaded_tables.len(), offloaded as usize);
        }
    }
}

/// Two offloaded scans: the second in join order is an inner that runs its
/// SSDlet once per outer block, each run shipping a fresh table.
#[test]
fn an_offloaded_inner_runs_once_per_block_and_joins_like_the_reference() {
    let spec = three_way(str_eq(1, "RARE"), str_eq(2, "GOLD"), None);
    for block_rows in [1, 3, DbConfig::paper_default().bnl_block_rows] {
        let db = Arc::new(join_db(block_rows));
        let pages = |t: &str| db.catalog().table(t).unwrap().pages;
        let (parts_pages, supp_pages) = (pages("parts"), pages("supp"));
        let (out, order) = run_join(Arc::clone(&db), &spec, ExecMode::Biscuit);
        assert_eq!(order, vec![1, 0, 2], "GOLD suppliers, then RARE parts");
        let mut offloaded = out.stats.offloaded_tables.clone();
        offloaded.sort();
        assert_eq!(offloaded, vec!["parts", "supp"]);
        let gold = 900usize.div_ceil(11) as u64;
        let blocks = gold.div_ceil(block_rows as u64);
        assert_eq!(
            out.stats.device_pages_scanned,
            supp_pages + blocks * parts_pages,
            "blocks of {block_rows}"
        );
        let expected = reference_join(&spec, &order, block_rows);
        assert!(!expected.is_empty());
        assert_eq!(out.rows, expected, "blocks of {block_rows}");
        let (conv, _) = run_join(db, &spec, ExecMode::Conv);
        let sorted = |mut rows: Vec<Row>| {
            rows.sort_by_key(|r| format!("{r:?}"));
            rows
        };
        assert_eq!(sorted(conv.rows), sorted(out.rows));
    }
}

/// Under a host timeout every offload falls back to the host scan, which
/// hands back the cached table for each block: the join still equals the
/// reference.
#[test]
fn a_host_timeout_inner_joins_from_the_cached_table() {
    use biscuit_sim::fault::{FaultConfig, FaultSite};
    use biscuit_sim::time::SimDuration;
    use biscuit_sim::FaultPlan;

    let spec = three_way(str_eq(1, "RARE"), str_eq(2, "GOLD"), None);
    let db = join_db(3);
    let plan = FaultPlan::seeded(
        7,
        FaultConfig {
            host_timeout: Some(SimDuration::from_nanos(50)),
            ..FaultConfig::default()
        },
    );
    db.ssd().attach_fault_plan(&plan);
    let db = Arc::new(db);
    let order = join_order(&db, &spec, ExecMode::Biscuit);
    let (out, failed) = run_query_counting_failures(db, spec.clone(), ExecMode::Biscuit);
    assert_eq!(order, vec![1, 0, 2]);
    assert!(failed >= 2, "the first scan and an inner timed out");
    assert!(plan.recovered_at(FaultSite::Ssdlet) >= 2);
    assert_eq!(out.rows, reference_join(&spec, &order, 3));
}

/// With no join edge the inner is cross-joined: each outer row with each
/// inner row, outer-major within a block.
#[test]
fn a_join_without_an_edge_is_the_cross_product_in_reference_order() {
    let mut spec = SelectSpec::new("cross");
    spec.scan("parts", str_eq(1, "RARE"));
    spec.scan("ship", Some(Expr::col_cmp(0, CmpOp::Lt, Value::Int(5))));
    for block_rows in [3, DbConfig::paper_default().bnl_block_rows] {
        let db = Arc::new(join_db(block_rows));
        for mode in [ExecMode::Conv, ExecMode::Biscuit] {
            let (out, order) = run_join(Arc::clone(&db), &spec, mode);
            assert_eq!(out.rows.len(), 67 * 5);
            assert_eq!(
                out.rows,
                reference_join(&spec, &order, block_rows),
                "{mode:?}"
            );
        }
    }
}

/// The integer in an `Int` cell.
fn int(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        other => panic!("not an Int: {other:?}"),
    }
}
