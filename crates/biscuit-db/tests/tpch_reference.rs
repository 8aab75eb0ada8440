//! Ground-truth tests: selected TPC-H queries are recomputed directly over
//! the generated in-memory rows and compared against the engine's output —
//! catching errors the Conv-vs-Biscuit equality test cannot (both modes
//! sharing one wrong executor).

use std::collections::HashMap;
use std::sync::Arc;

use biscuit_sim::sync::Mutex;

use biscuit_core::{CoreConfig, Ssd};
use biscuit_db::spec::ExecMode;
use biscuit_db::tpch::schema::{l, o, p};
use biscuit_db::tpch::{all_queries, TpchData};
use biscuit_db::{Db, DbConfig, QueryOutput, Value};
use biscuit_fs::Fs;
use biscuit_host::{HostConfig, HostLoad};
use biscuit_sim::Simulation;
use biscuit_ssd::{SsdConfig, SsdDevice};

const SF: f64 = 0.01;

fn setup() -> (Arc<Db>, Arc<TpchData>) {
    let dev = Arc::new(SsdDevice::new(SsdConfig {
        logical_capacity: 1 << 30,
        ..SsdConfig::paper_default()
    }));
    let ssd = Ssd::new(Fs::format(dev), CoreConfig::paper_default());
    let mut db = Db::new(ssd, HostConfig::paper_default(), DbConfig::paper_default());
    let data = TpchData::generate(SF, 42);
    data.load_into(&mut db).unwrap();
    (Arc::new(db), Arc::new(data))
}

fn run_query(db: Arc<Db>, id: usize, mode: ExecMode) -> QueryOutput {
    let sim = Simulation::new(0);
    let out = Arc::new(Mutex::new(None));
    let o2 = Arc::clone(&out);
    sim.spawn("host", move |ctx| {
        let q = all_queries().into_iter().nth(id - 1).unwrap();
        *o2.lock() = Some(q.run(&db, ctx, mode, HostLoad::IDLE).unwrap());
    });
    sim.run().assert_quiescent();
    let result = out.lock().take().unwrap();
    result
}

/// Days since 1970-01-01 of a date no earlier than that, counted year by
/// year and month by month; the engine's own date code is not consulted.
fn day(year: i32, month: usize, dom: i32) -> i32 {
    let leap = |y: i32| (y % 4 == 0 && y % 100 != 0) || y % 400 == 0;
    let month_days = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];
    let mut n = 0;
    for y in 1970..year {
        n += if leap(y) { 366 } else { 365 };
    }
    for (m, len) in month_days.iter().enumerate().take(month - 1) {
        n += len + i32::from(m == 1 && leap(year));
    }
    n + dom - 1
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() / a.abs().max(b.abs()).max(1.0) < 1e-9
}

#[test]
fn q1_matches_direct_computation() {
    let (db, data) = setup();
    let cutoff = day(1998, 9, 2);
    // Direct recomputation over the generated rows.
    let mut groups: HashMap<(String, String), (f64, f64, i64)> = HashMap::new();
    for row in &data.lineitem {
        let Value::Date(ship) = row[l::SHIPDATE] else {
            panic!()
        };
        if ship > cutoff {
            continue;
        }
        let key = (
            row[l::RETURNFLAG].as_str().unwrap().to_owned(),
            row[l::LINESTATUS].as_str().unwrap().to_owned(),
        );
        let e = groups.entry(key).or_insert((0.0, 0.0, 0));
        e.0 += row[l::QUANTITY].as_f64().unwrap();
        e.1 += row[l::EXTENDEDPRICE].as_f64().unwrap();
        e.2 += 1;
    }
    let out = run_query(db, 1, ExecMode::Conv);
    assert_eq!(out.rows.len(), groups.len());
    for row in &out.rows {
        let key = (
            row[0].as_str().unwrap().to_owned(),
            row[1].as_str().unwrap().to_owned(),
        );
        let (sum_qty, sum_price, count) = groups[&key];
        assert!(
            close(row[2].as_f64().unwrap(), sum_qty),
            "sum_qty for {key:?}"
        );
        assert!(
            close(row[3].as_f64().unwrap(), sum_price),
            "sum_base_price for {key:?}"
        );
        assert_eq!(int(&row[9]), count, "count for {key:?}");
    }
}

#[test]
fn q6_matches_direct_computation() {
    let (db, data) = setup();
    let lo = day(1994, 1, 1);
    let hi = day(1994, 12, 31);
    let expected: f64 = data
        .lineitem
        .iter()
        .filter(|row| {
            let Value::Date(ship) = row[l::SHIPDATE] else {
                panic!()
            };
            let disc = row[l::DISCOUNT].as_f64().unwrap();
            let qty = row[l::QUANTITY].as_f64().unwrap();
            (lo..=hi).contains(&ship) && (0.05..=0.07).contains(&disc) && qty < 24.0
        })
        .map(|row| row[l::EXTENDEDPRICE].as_f64().unwrap() * row[l::DISCOUNT].as_f64().unwrap())
        .sum();
    for mode in [ExecMode::Conv, ExecMode::Biscuit] {
        let out = run_query(Arc::clone(&db), 6, mode);
        assert_eq!(out.rows.len(), 1);
        let got = out.rows[0][0].as_f64().unwrap();
        assert!(
            close(got, expected),
            "{mode:?}: Q6 revenue {got} vs reference {expected}"
        );
    }
}

#[test]
fn q14_matches_direct_computation() {
    let (db, data) = setup();
    let lo = day(1995, 9, 1);
    let hi = day(1995, 9, 30);
    let part_type: HashMap<i64, String> = data
        .part
        .iter()
        .map(|r| (int(&r[p::PARTKEY]), r[p::TYPE].as_str().unwrap().to_owned()))
        .collect();
    let (mut promo, mut total) = (0.0f64, 0.0f64);
    for row in &data.lineitem {
        let Value::Date(ship) = row[l::SHIPDATE] else {
            panic!()
        };
        if !(lo..=hi).contains(&ship) {
            continue;
        }
        let revenue =
            row[l::EXTENDEDPRICE].as_f64().unwrap() * (1.0 - row[l::DISCOUNT].as_f64().unwrap());
        total += revenue;
        let ty = &part_type[&int(&row[l::PARTKEY])];
        if ty.starts_with("PROMO") {
            promo += revenue;
        }
    }
    let expected = 100.0 * promo / total;
    for mode in [ExecMode::Conv, ExecMode::Biscuit] {
        let out = run_query(Arc::clone(&db), 14, mode);
        let got = out.rows[0][0].as_f64().unwrap();
        assert!(
            (got - expected).abs() < 1e-6,
            "{mode:?}: Q14 promo% {got} vs reference {expected}"
        );
    }
}

#[test]
fn q4_matches_direct_computation() {
    let (db, data) = setup();
    let lo = day(1993, 7, 1);
    let hi = day(1993, 9, 30);
    // Orders in the quarter with >=1 late-commit lineitem, counted per
    // priority.
    let mut late_orders: std::collections::HashSet<i64> = Default::default();
    for row in &data.lineitem {
        let (Value::Date(commit), Value::Date(receipt)) =
            (&row[l::COMMITDATE], &row[l::RECEIPTDATE])
        else {
            panic!()
        };
        if commit < receipt {
            late_orders.insert(int(&row[l::ORDERKEY]));
        }
    }
    let mut expected: HashMap<String, i64> = HashMap::new();
    for row in &data.orders {
        let Value::Date(d) = row[o::ORDERDATE] else {
            panic!()
        };
        if (lo..=hi).contains(&d) && late_orders.contains(&int(&row[o::ORDERKEY])) {
            *expected
                .entry(row[o::ORDERPRIORITY].as_str().unwrap().to_owned())
                .or_insert(0) += 1;
        }
    }
    let out = run_query(db, 4, ExecMode::Conv);
    assert_eq!(out.rows.len(), expected.len());
    for row in &out.rows {
        let prio = row[0].as_str().unwrap();
        assert_eq!(int(&row[1]), expected[prio], "count for {prio}");
    }
}

#[test]
fn q13_matches_direct_computation() {
    let (db, data) = setup();
    // Orders whose comment does not match %special%requests%, per customer;
    // then the histogram of counts.
    let mut per_customer: HashMap<i64, i64> =
        data.customer.iter().map(|r| (int(&r[0]), 0)).collect();
    for row in &data.orders {
        let comment = row[o::COMMENT].as_str().unwrap();
        let is_special = comment
            .find("special")
            .map(|i| comment[i..].contains("requests"))
            .unwrap_or(false);
        if !is_special {
            if let Some(c) = per_customer.get_mut(&int(&row[o::CUSTKEY])) {
                *c += 1;
            }
        }
    }
    let mut expected: HashMap<i64, i64> = HashMap::new();
    for &count in per_customer.values() {
        *expected.entry(count).or_insert(0) += 1;
    }
    let out = run_query(db, 13, ExecMode::Conv);
    assert_eq!(out.rows.len(), expected.len());
    for row in &out.rows {
        let c_count = int(&row[0]);
        assert_eq!(
            int(&row[1]),
            expected[&c_count],
            "custdist for count {c_count}"
        );
    }
}

/// The integer in an `Int` cell.
fn int(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        other => panic!("not an Int: {other:?}"),
    }
}
