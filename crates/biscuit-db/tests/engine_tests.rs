//! End-to-end engine tests: Conv and Biscuit modes must produce identical
//! results, the planner must offload only pattern-friendly selective scans,
//! and offloading must reduce both link traffic and execution time.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use biscuit_sim::sync::Mutex;

use biscuit_core::{CoreConfig, Ssd};
use biscuit_db::expr::{pattern_keys, ArithOp, CmpOp, Expr};
use biscuit_db::spec::{AggFun, ExecMode, OrderKey, SelectSpec};
use biscuit_db::{ColumnType, Db, DbConfig, DbResult, QueryOutput, Row, Schema, Value};
use biscuit_fs::Fs;
use biscuit_host::{HostConfig, HostLoad};
use biscuit_sim::Simulation;
use biscuit_ssd::{SsdConfig, SsdDevice};

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
    let sim = Simulation::new(0);
    let out = Arc::new(Mutex::new(None));
    let o = Arc::clone(&out);
    sim.spawn("host", move |ctx| {
        *o.lock() = Some(db.execute(ctx, &spec, mode, HostLoad::IDLE));
    });
    sim.run().assert_quiescent();
    let result = out.lock().take().unwrap();
    result
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
    // Range predicate over a wide span: no pattern keys.
    let mut spec = SelectSpec::new("range");
    spec.scan(
        "items",
        Some(Expr::col_cmp(2, CmpOp::Lt, Value::Float(3.0))),
    );
    assert!(pattern_keys(&spec.scans[0].predicate.clone().unwrap()).is_none());
    let bis = run_query(Arc::clone(&db), spec.clone(), ExecMode::Biscuit);
    assert!(bis.stats.offloaded_tables.is_empty());
    let conv = run_query(db, spec, ExecMode::Conv);
    assert_eq!(conv.rows, bis.rows);
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
    assert!(out.rows[0][0].as_i64().unwrap() < out.rows[1][0].as_i64().unwrap());
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
    let faulty = run_query(Arc::clone(&db), selective_spec(), ExecMode::Biscuit);

    assert_eq!(clean.rows, faulty.rows);
    assert!(plan.failed_total() >= 1, "restart budget must be exhausted");
    assert!(
        plan.recovered_at(FaultSite::Ssdlet) >= 1,
        "host fallback must be recorded as a recovery"
    );
}

/// A panic within the restart budget recovers in place: the restarted
/// SSDlet completes the offload and no host fallback happens.
#[test]
fn ssdlet_restart_recovers_without_fallback() {
    use biscuit_sim::fault::FaultConfig;
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
    let faulty = run_query(Arc::clone(&db), selective_spec(), ExecMode::Biscuit);

    assert_eq!(clean.rows, faulty.rows);
    assert_eq!(plan.failed_total(), 0, "restart must succeed");
    assert!(plan.recovered_total() >= 1, "restart must be recorded");
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
    let faulty = run_query(Arc::clone(&db), selective_spec(), ExecMode::Biscuit);

    assert_eq!(clean.rows, faulty.rows);
    assert!(
        plan.failed_total() >= 1,
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
        .filter(|r| pred.eval_bool(r).unwrap())
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
    let faulty = run_query(Arc::clone(&db), selective_spec(), ExecMode::Biscuit);
    assert!(plan.failed_total() >= 1, "the offload must have timed out");
    assert_eq!(faulty.rows.len(), 60);
    assert_eq!(faulty.rows, conv.rows);
}
