//! The executor's hashed, allocation-free join and group keys must
//! reproduce the `String`-keyed operators they replaced — the same output
//! *sequence*, not just the same set, because downstream float sums add in
//! that order — over row slices, over the column cache and, for the join,
//! over a join's id tuples. The replaced operators are kept below as
//! references. The lowered expression programs must reproduce the
//! tree-walking oracle (`tests/support/tree_walk.rs`), value for value and
//! error for error.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use crate::column::{Cells, ColumnTable, Joined, RowRef};
use crate::exec;
use crate::expr::{ArithOp, CmpOp, Expr};
use crate::program::Program;
use crate::spec::{AggFun, SelectSpec};
use crate::tree_walk;
use crate::{ColumnType, DbResult, Row, Value};

// ---------- references: the operators as they were before ----------

fn ref_text_key(row: &[Value], cols: &[usize]) -> String {
    let mut s = String::new();
    for &c in cols {
        s.push_str(&row[c].to_text());
        s.push('\u{1f}');
    }
    s
}

fn ref_hash_probe_block(
    outer_block: &[Row],
    outer_cols: &[usize],
    inner_local: &[Row],
    inner_cols: &[usize],
    offset: usize,
    out: &mut Vec<Row>,
) {
    let mut table: HashMap<String, Vec<usize>> = HashMap::new();
    for (i, row) in outer_block.iter().enumerate() {
        table
            .entry(ref_text_key(row, outer_cols))
            .or_default()
            .push(i);
    }
    for inner in inner_local {
        if let Some(matches) = table.get(&ref_text_key(inner, inner_cols)) {
            for &oi in matches {
                let mut merged = outer_block[oi].clone();
                merged[offset..offset + inner.len()].clone_from_slice(inner);
                out.push(merged);
            }
        }
    }
}

struct RefAggState {
    sum: f64,
    count: u64,
    min: Option<Value>,
    max: Option<Value>,
}

impl RefAggState {
    fn new() -> Self {
        RefAggState {
            sum: 0.0,
            count: 0,
            min: None,
            max: None,
        }
    }

    fn update(&mut self, v: &Value) {
        self.count += 1;
        if let Some(x) = v.as_f64() {
            self.sum += x;
        }
        let better_min = self
            .min
            .as_ref()
            .map(|m| v.compare(m).map(|o| o.is_lt()).unwrap_or(false))
            .unwrap_or(true);
        if better_min {
            self.min = Some(v.clone());
        }
        let better_max = self
            .max
            .as_ref()
            .map(|m| v.compare(m).map(|o| o.is_gt()).unwrap_or(false))
            .unwrap_or(true);
        if better_max {
            self.max = Some(v.clone());
        }
    }

    fn finish(&self, fun: AggFun) -> Value {
        match fun {
            AggFun::Sum => Value::Float(self.sum),
            AggFun::Count => Value::Int(self.count as i64),
            AggFun::Avg => {
                if self.count == 0 {
                    Value::Float(0.0)
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggFun::Min => self.min.clone().unwrap_or(Value::Int(0)),
            AggFun::Max => self.max.clone().unwrap_or(Value::Int(0)),
        }
    }
}

fn ref_aggregate(spec: &SelectSpec, rows: &[Row]) -> Vec<Row> {
    let new_states = || spec.aggregates.iter().map(|_| RefAggState::new()).collect();
    let mut groups: HashMap<String, (Row, Vec<RefAggState>)> = HashMap::new();
    for row in rows {
        let gvals: Row = spec
            .group_by
            .iter()
            .map(|e| tree_walk::eval(e, row).unwrap())
            .collect();
        let entry = groups
            .entry(exec::key_of(&gvals))
            .or_insert_with(|| (gvals.clone(), new_states()));
        for ((_, expr), st) in spec.aggregates.iter().zip(entry.1.iter_mut()) {
            st.update(&tree_walk::eval(expr, row).unwrap());
        }
    }
    if groups.is_empty() && spec.group_by.is_empty() {
        groups.insert(String::new(), (Vec::new(), new_states()));
    }
    let mut out: Vec<Row> = groups
        .into_values()
        .map(|(gvals, states)| {
            let mut row = gvals;
            for ((fun, _), st) in spec.aggregates.iter().zip(states.iter()) {
                row.push(st.finish(*fun));
            }
            row
        })
        .collect();
    out.sort_by_key(|row| exec::key_of(row));
    out
}

// ---------- inputs ----------

/// A key cell of any variant, among them strings that spell an `Int`, a
/// `Date` or a `Float` key — and near misses that do not.
fn key_value_strategy() -> impl Strategy<Value = Value> {
    let min = i64::MIN.to_string();
    let max = i64::MAX.to_string();
    prop_oneof![
        proptest::sample::select(vec![0, 5, -5, 42, i64::MIN, i64::MAX]).prop_map(Value::Int),
        proptest::sample::select(vec![5.0, 0.0, -0.0, 1.001, 1.004, f64::NAN, -5.0])
            .prop_map(Value::Float),
        proptest::sample::select(vec![0, 9_131, -1, 2_932_896]).prop_map(Value::Date),
        proptest::sample::select(vec![
            "5".to_owned(),
            "-5".to_owned(),
            "05".to_owned(),
            "+5".to_owned(),
            "-0".to_owned(),
            "0".to_owned(),
            "42".to_owned(),
            min.clone(),
            max.clone(),
            format!("{min}0"),
            "9223372036854775808".to_owned(),
            "1970-01-01".to_owned(),
            "1995-01-01".to_owned(),
            "5.00".to_owned(),
            "1.00".to_owned(),
            "NaN".to_owned(),
            "-0.00".to_owned(),
            "0.00".to_owned(),
            "-5.00".to_owned(),
            String::new(),
            "a".to_owned(),
        ])
        .prop_map(Value::Str),
    ]
}

/// Local row layout. Every domain is small, so keys repeat on both sides.
const WIDTH: usize = 6;
const C_INT: usize = 0;
const C_FLOAT: usize = 1;
const C_DATE: usize = 2;
const C_STR: usize = 3;
/// `Int` 41..=43 and the same numbers spelled as `Str` (plus a near miss).
const C_NUM: usize = 4;
const C_NUMTEXT: usize = 5;

fn row_strategy() -> impl Strategy<Value = Row> {
    (
        0i64..6,
        // Some of these differ only past the two decimals a key keeps.
        proptest::sample::select(vec![
            0.0, -0.0, 0.001, 0.004, 0.006, 1.25, 1.254, 1.256, 7.5,
        ]),
        -2i32..4,
        proptest::sample::select(vec!["", "a", "b", "ab", "42", "MAIL"]),
        41i64..44,
        proptest::sample::select(vec!["41", "42", "43", "042"]),
    )
        .prop_map(|(i, f, d, s, n, t)| {
            vec![
                Value::Int(i),
                Value::Float(f),
                Value::Date(d),
                Value::Str(s.to_owned()),
                Value::Int(n),
                Value::Str(t.to_owned()),
            ]
        })
}

fn rows_strategy() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(row_strategy(), 0..40)
}

/// The column types of [`row_strategy`]'s rows.
const TYPES: [ColumnType; WIDTH] = [
    ColumnType::Int,
    ColumnType::Float,
    ColumnType::Date,
    ColumnType::Str,
    ColumnType::Int,
    ColumnType::Str,
];

/// The rows as the engine's column cache holds them.
fn column_table(types: &[ColumnType], rows: &[Row]) -> ColumnTable {
    let mut table = ColumnTable::new(types);
    for row in rows {
        table.push_row(row).unwrap();
    }
    table
}

fn all_ids(rows: &[Row]) -> Vec<u32> {
    (0..rows.len() as u32).collect()
}

/// One to three `(outer column, inner column)` join edges, including an
/// `Int` column met by a `Str` column in both directions.
fn edges_strategy() -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec(
        proptest::sample::select(vec![
            (C_INT, C_INT),
            (C_FLOAT, C_FLOAT),
            (C_DATE, C_DATE),
            (C_STR, C_STR),
            (C_NUM, C_NUM),
            (C_NUM, C_NUMTEXT),
            (C_NUMTEXT, C_NUM),
            (C_STR, C_NUMTEXT),
        ]),
        1..4,
    )
}

fn col(i: usize) -> Box<Expr> {
    Box::new(Expr::Col(i))
}

fn group_expr_strategy() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (0usize..WIDTH).prop_map(Expr::Col),
        // Computed group values (owned, not borrowed from the row).
        Just(Expr::Year(col(C_DATE))),
        Just(Expr::Prefix(col(C_STR), 1)),
    ]
}

fn agg_strategy() -> impl Strategy<Value = (AggFun, Expr)> {
    (
        proptest::sample::select(vec![
            AggFun::Sum,
            AggFun::Count,
            AggFun::Avg,
            AggFun::Min,
            AggFun::Max,
        ]),
        prop_oneof![
            (0usize..WIDTH).prop_map(Expr::Col),
            Just(Expr::Lit(Value::Int(1))),
            Just(Expr::Arith(ArithOp::Mul, col(C_FLOAT), col(C_INT))),
        ],
    )
}

/// Bit-exact, order-exact comparison: `Debug` spells `-0.0` and every
/// distinct finite float differently.
fn spelled(rows: &[Row]) -> String {
    format!("{rows:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hash_probe_equals_string_keyed_reference(
        outer_local in rows_strategy(),
        inner in rows_strategy(),
        edges in edges_strategy(),
        inner_first in any::<bool>(),
    ) {
        // Global rows are `outer ++ inner` or `inner ++ outer` wide.
        let (outer_at, inner_at) = if inner_first { (WIDTH, 0) } else { (0, WIDTH) };
        let outer: Vec<Row> = outer_local
            .iter()
            .map(|r| {
                let mut wide = vec![Value::Int(0); 2 * WIDTH];
                wide[outer_at..outer_at + WIDTH].clone_from_slice(r);
                wide
            })
            .collect();
        let outer_cols: Vec<usize> = edges.iter().map(|&(o, _)| outer_at + o).collect();
        let inner_cols: Vec<usize> = edges.iter().map(|&(_, i)| i).collect();

        let mut expected = Vec::new();
        ref_hash_probe_block(&outer, &outer_cols, &inner, &inner_cols, inner_at, &mut expected);

        let mut owned = Vec::new();
        exec::hash_probe_block(&outer, &outer_cols, &inner, &inner_cols, inner_at, &mut owned);
        prop_assert_eq!(spelled(&owned), spelled(&expected));

        // The engine's form: the outer side as a join's id tuples over a
        // column table (scan 0 or 1 of two), the inner side a column
        // table, the pairs built into rows only at the end.
        let (outer_scan, inner_scan) = if inner_first { (1, 0) } else { (0, 1) };
        let outer_ids = all_ids(&outer_local);
        let joined = Joined::new(
            &[WIDTH, WIDTH],
            outer_scan,
            Arc::new(column_table(&TYPES, &outer_local)),
            &outer_ids,
        );
        let table = Arc::new(column_table(&TYPES, &inner));
        let mut pairs = Vec::new();
        let inner_ids = all_ids(&inner);
        exec::hash_probe(
            &joined,
            &outer_ids,
            &outer_cols,
            &exec::Inner::new(&*table, &inner_ids, &inner_cols),
            &mut pairs,
        );
        let matches: Vec<(u32, RowRef)> = pairs
            .iter()
            .map(|&(o, row)| (o, RowRef { table: 0, row }))
            .collect();
        let result = joined.join(inner_scan, vec![table], &matches);
        let columnar: Vec<Row> = (0..result.len())
            .map(|r| result.row(r).into_owned())
            .collect();
        prop_assert_eq!(spelled(&columnar), spelled(&expected));

        let outer_refs: Vec<&Row> = outer.iter().collect();
        let inner_refs: Vec<&Row> = inner.iter().collect();
        let mut borrowed = Vec::new();
        exec::hash_probe_block(
            outer_refs,
            &outer_cols,
            inner_refs,
            &inner_cols,
            inner_at,
            &mut borrowed,
        );
        prop_assert_eq!(spelled(&borrowed), spelled(&expected));
    }

    #[test]
    fn aggregate_equals_string_keyed_reference(
        rows in rows_strategy(),
        group_by in proptest::collection::vec(group_expr_strategy(), 0..4),
        aggregates in proptest::collection::vec(agg_strategy(), 1..6),
    ) {
        let mut spec = SelectSpec::new("prop");
        spec.group_by = group_by;
        spec.aggregates = aggregates;
        let expected = ref_aggregate(&spec, &rows);

        let owned = exec::aggregate(&spec, &rows).unwrap();
        prop_assert_eq!(spelled(&owned), spelled(&expected));

        let refs: Vec<&Row> = rows.iter().collect();
        let borrowed = exec::aggregate(&spec, refs).unwrap();
        prop_assert_eq!(spelled(&borrowed), spelled(&expected));

        let table = column_table(&TYPES, &rows);
        let columnar = exec::aggregate_in(&spec, &table, &all_ids(&rows)).unwrap();
        prop_assert_eq!(spelled(&columnar), spelled(&expected));
    }

    #[test]
    fn key_hash_follows_key_text(
        pairs in proptest::collection::vec(
            (key_value_strategy(), key_value_strategy(), any::<bool>()),
            1..4,
        ),
    ) {
        // Half the pairs meet a string spelling the left cell's text.
        let (left, right): (Row, Row) = pairs
            .into_iter()
            .map(|(a, b, respell)| {
                let b = if respell { Value::Str(a.to_text()) } else { b };
                (a, b)
            })
            .unzip();
        let mut index = exec::KeyIndex::default();
        for (a, b) in left.iter().zip(&right) {
            let same_text = exec::key_of(std::slice::from_ref(a)) == exec::key_of(std::slice::from_ref(b));
            prop_assert_eq!(same_text, exec::cell_eq(a.cell(), b.cell()), "{:?} against {:?}", a, b);
            if same_text {
                prop_assert_eq!(index.hash([a.cell()]), index.hash([b.cell()]), "{:?} against {:?}", a, b);
            }
        }
        if exec::key_of(&left) == exec::key_of(&right) {
            prop_assert_eq!(
                index.hash(left.iter().map(Value::cell)),
                index.hash(right.iter().map(Value::cell)),
                "{:?} against {:?}", left, right
            );
        }
    }

    #[test]
    fn selection_filters_agree(rows in rows_strategy(), bound in 0i64..6) {
        let pred = Expr::col_cmp(C_INT, CmpOp::Lt, Value::Int(bound));
        let expected: Vec<Row> = rows
            .iter()
            .filter(|r| tree_walk::eval_bool(&pred, r).unwrap())
            .cloned()
            .collect();
        let table = column_table(&TYPES, &rows);
        let picked_ids = exec::select_in(&pred, &table, &all_ids(&rows)).unwrap();
        let sel = exec::select_in(&pred, &rows[..], &all_ids(&rows)).unwrap();
        prop_assert_eq!(&picked_ids, &sel);
        let picked: Vec<Row> = sel.iter().map(|&i| rows[i as usize].clone()).collect();
        prop_assert_eq!(&picked, &expected);
        prop_assert_eq!(&exec::filter_ref(&pred, &rows).unwrap(), &expected);
        prop_assert_eq!(&exec::filter(&pred, rows.clone()).unwrap(), &expected);
        let kept: Vec<Row> = exec::filter(&pred, rows.iter().collect::<Vec<&Row>>())
            .unwrap()
            .into_iter()
            .cloned()
            .collect();
        prop_assert_eq!(&kept, &expected);
    }
}

// ---------- lowered programs against the tree-walker ----------

/// Column layout of the typed rows the program properties use: the last
/// `Int` column holds integers past 2^53.
const PROG_TYPES: [ColumnType; 5] = [
    ColumnType::Int,
    ColumnType::Float,
    ColumnType::Date,
    ColumnType::Str,
    ColumnType::Int,
];

/// 2^53: the first integer past which `f64` skips integers.
const BIG: i64 = 1 << 53;

fn int_strategy() -> impl Strategy<Value = i64> {
    prop_oneof![
        -3i64..4,
        proptest::sample::select(vec![BIG - 1, BIG, BIG + 1, -BIG - 1, i64::MAX, i64::MIN]),
    ]
}

fn float_strategy() -> impl Strategy<Value = f64> {
    proptest::sample::select(vec![0.0, -0.0, 0.5, 1.0, -2.25, 3.0, 1e300, BIG as f64])
}

fn date_strategy() -> impl Strategy<Value = i32> {
    proptest::sample::select(vec![-1, 0, 1, 3, 9_000, 10_000, 2_932_896])
}

fn str_strategy() -> impl Strategy<Value = String> {
    proptest::sample::select(vec![
        "",
        "a",
        "MAIL",
        "ab%",
        "42",
        "1.5",
        "üß",
        "1995-09-14",
    ])
    .prop_map(str::to_owned)
}

/// A cell of any variant.
fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        int_strategy().prop_map(Value::Int),
        float_strategy().prop_map(Value::Float),
        date_strategy().prop_map(Value::Date),
        str_strategy().prop_map(Value::Str),
    ]
}

/// A row typed by [`PROG_TYPES`]: what the column cache holds.
fn typed_row_strategy() -> impl Strategy<Value = Row> {
    (
        -3i64..4,
        float_strategy(),
        date_strategy(),
        str_strategy(),
        int_strategy(),
    )
        .prop_map(|(i, f, d, s, big)| {
            vec![
                Value::Int(i),
                Value::Float(f),
                Value::Date(d),
                Value::Str(s),
                Value::Int(big),
            ]
        })
}

/// A row of any width up to 6 whose cells are of any variant: what joined
/// rows and callers' rows may hold.
fn mixed_row_strategy() -> impl Strategy<Value = Row> {
    proptest::collection::vec(value_strategy(), 0..7)
}

fn cmp_op() -> impl Strategy<Value = CmpOp> {
    proptest::sample::select(vec![
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ])
}

fn arith_op() -> impl Strategy<Value = ArithOp> {
    proptest::sample::select(vec![ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div])
}

fn pattern() -> impl Strategy<Value = String> {
    proptest::sample::select(vec!["%", "MA%", "%a%", "ab", "%ü%", "4%", "%2", "a%b%", ""])
        .prop_map(str::to_owned)
}

fn lit(v: Value) -> Box<Expr> {
    Box::new(Expr::Lit(v))
}

/// Expressions that fail on every row, each with its own error text: a
/// column past the widest row, `YEAR` of a string, `PREFIX` of a number,
/// arithmetic on a string, `LIKE` on a number.
fn failing() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (6usize..8).prop_map(Expr::Col),
        str_strategy().prop_map(|s| Expr::Year(lit(Value::Str(s)))),
        int_strategy().prop_map(|i| Expr::Prefix(lit(Value::Int(i)), 2)),
        (arith_op(), str_strategy(), int_strategy()).prop_map(|(op, s, i)| Expr::Arith(
            op,
            lit(Value::Str(s)),
            lit(Value::Int(i))
        )),
        (date_strategy(), pattern()).prop_map(|(d, p)| Expr::Like(lit(Value::Date(d)), p)),
    ]
}

/// `0/0` over an `Int`, `Float` or negative `Float` zero: `NaN`, which
/// compares with nothing.
fn zero_by_zero() -> impl Strategy<Value = Expr> {
    proptest::sample::select(vec![Value::Int(0), Value::Float(0.0), Value::Float(-0.0)])
        .prop_map(|z| Expr::Arith(ArithOp::Div, lit(z.clone()), lit(z)))
}

/// Every `Expr` variant, columns up to two past the widest row, and the
/// shapes where two failures race and evaluation order decides which
/// error is reported.
fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        4 => (0usize..5).prop_map(Expr::Col),
        1 => (5usize..8).prop_map(Expr::Col),
        2 => value_strategy().prop_map(Expr::Lit),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        let b = move || inner.clone().prop_map(Box::new);
        prop_oneof![
            2 => (cmp_op(), b(), b()).prop_map(|(op, x, y)| Expr::Cmp(op, x, y)),
            4 => (0usize..6, cmp_op(), value_strategy())
                .prop_map(|(c, op, v)| Expr::col_cmp(c, op, v)),
            1 => proptest::collection::vec(b(), 0..3)
                .prop_map(|xs| Expr::And(xs.into_iter().map(|x| *x).collect())),
            1 => proptest::collection::vec(b(), 0..3)
                .prop_map(|xs| Expr::Or(xs.into_iter().map(|x| *x).collect())),
            1 => b().prop_map(Expr::Not),
            1 => (b(), pattern()).prop_map(|(x, p)| Expr::Like(x, p)),
            1 => (b(), pattern()).prop_map(|(x, p)| Expr::NotLike(x, p)),
            2 => (b(), proptest::collection::vec(value_strategy(), 0..3))
                .prop_map(|(x, vals)| Expr::InList(x, vals)),
            2 => (b(), value_strategy(), value_strategy())
                .prop_map(|(x, lo, hi)| Expr::Between(x, lo, hi)),
            3 => (arith_op(), b(), b()).prop_map(|(op, x, y)| Expr::Arith(op, x, y)),
            1 => b().prop_map(Expr::Year),
            1 => (b(), b(), b()).prop_map(|(c, t, e)| Expr::Case(c, t, e)),
            1 => (b(), 0usize..4).prop_map(|(x, n)| Expr::Prefix(x, n)),
            // Error precedence.
            2 => (arith_op(), str_strategy(), 5usize..8)
                .prop_map(|(op, s, c)| Expr::Arith(op, lit(Value::Str(s)), Box::new(Expr::Col(c)))),
            2 => (arith_op(), b(), failing())
                .prop_map(|(op, x, y)| Expr::Arith(op, x, Box::new(y))),
            2 => (cmp_op(), failing(), failing())
                .prop_map(|(op, x, y)| Expr::Cmp(op, Box::new(x), Box::new(y))),
            2 => (cmp_op(), b(), failing())
                .prop_map(|(op, x, y)| Expr::Cmp(op, x, Box::new(y))),
            2 => (b(), str_strategy(), int_strategy())
                .prop_map(|(x, s, i)| Expr::Between(x, Value::Str(s), Value::Int(i))),
            2 => (b(), date_strategy(), str_strategy())
                .prop_map(|(x, d, s)| Expr::Between(x, Value::Date(d), Value::Str(s))),
            2 => (cmp_op(), zero_by_zero(), b())
                .prop_map(|(op, z, x)| Expr::Cmp(op, Box::new(z), x)),
            1 => (0usize..6, cmp_op(), zero_by_zero()).prop_map(|(c, op, z)| {
                Expr::Cmp(op, Box::new(Expr::Col(c)), Box::new(z))
            }),
            2 => (failing(), b(), b())
                .prop_map(|(c, t, e)| Expr::Case(Box::new(c), t, e)),
            1 => (str_strategy(), b(), b())
                .prop_map(|(s, t, e)| Expr::Case(lit(Value::Str(s)), t, e)),
            1 => (b(), failing(), failing()).prop_map(|(x, y, z)| Expr::And(vec![*x, y, z])),
            1 => (b(), failing(), failing()).prop_map(|(x, y, z)| Expr::Or(vec![*x, y, z])),
            1 => failing().prop_map(|x| Expr::Not(Box::new(x))),
        ]
    })
}

/// A result spelled bit-exactly: `Debug` of the value, or the error's text.
fn outcome<T: std::fmt::Debug>(r: DbResult<T>) -> String {
    match r {
        Ok(v) => format!("ok {v:?}"),
        Err(e) => format!("err {e}"),
    }
}

/// `Program::eval`, `eval_bool` and the batched numeric path of `expr`
/// over `src` (whose row `i` is `rows[i]`) agree with the tree-walking
/// oracle. A `Cell` and a `Value` spell alike under `Debug`.
fn program_matches_tree_walker<A: Cells + ?Sized>(
    expr: &Expr,
    src: &A,
    rows: &[Row],
) -> Result<(), TestCaseError> {
    let prog = Program::new(expr);
    for (i, row) in rows.iter().enumerate() {
        let want = outcome(tree_walk::eval(expr, row));
        let got = outcome(prog.eval(src, i));
        prop_assert_eq!(&got, &want, "eval of {:?} on {:?}", expr, row);
        let want = outcome(tree_walk::eval_bool(expr, row));
        let got = outcome(prog.eval_bool(src, i));
        prop_assert_eq!(&got, &want, "eval_bool of {:?} on {:?}", expr, row);
    }
    let mut f64s = vec![0.0; rows.len()];
    if prog.typed_f64s(src, &all_ids(rows), &mut f64s) {
        for (row, x) in rows.iter().zip(&f64s) {
            let want = tree_walk::eval(expr, row).ok().and_then(|v| v.as_f64());
            prop_assert_eq!(
                want.map(f64::to_bits),
                Some(x.to_bits()),
                "typed_f64s of {:?} on {:?}",
                expr,
                row
            );
        }
    }
    Ok(())
}

/// `Program::select` of `expr` over rows `ids` of `src` (whose row `i` is
/// `rows[i]`) returns what the row path does: the ids of the rows the
/// tree-walking oracle's `eval_bool` holds of, or the error of the first
/// row it fails on.
fn select_matches_row_path<A: Cells + ?Sized>(
    expr: &Expr,
    src: &A,
    rows: &[Row],
    ids: &[u32],
) -> Result<(), TestCaseError> {
    let want: DbResult<Vec<u32>> = ids
        .iter()
        .filter_map(|&id| match tree_walk::eval_bool(expr, &rows[id as usize]) {
            Ok(true) => Some(Ok(id)),
            Ok(false) => None,
            Err(e) => Some(Err(e)),
        })
        .collect();
    let got = Program::new(expr).select(src, ids);
    prop_assert_eq!(
        outcome(got),
        outcome(want),
        "select of {:?} on {:?}",
        expr,
        ids
    );
    Ok(())
}

/// The ids of `rows` that `keep` picks, in order.
fn subset(rows: &[Row], keep: &[bool]) -> Vec<u32> {
    all_ids(rows)
        .into_iter()
        .zip(keep.iter().cycle())
        .filter_map(|(id, &k)| k.then_some(id))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32_768))]

    #[test]
    fn lowered_programs_equal_the_tree_walker(
        expr in expr_strategy(),
        typed in proptest::collection::vec(typed_row_strategy(), 1..12),
        mixed in proptest::collection::vec(mixed_row_strategy(), 1..12),
        keep in proptest::collection::vec(any::<bool>(), 1..12),
    ) {
        let table = column_table(&PROG_TYPES, &typed);
        program_matches_tree_walker(&expr, &table, &typed)?;
        program_matches_tree_walker(&expr, &typed[..], &typed)?;
        program_matches_tree_walker(&expr, &mixed[..], &mixed)?;
        let refs: Vec<&Row> = mixed.iter().collect();
        program_matches_tree_walker(&expr, &refs[..], &mixed)?;
        for ids in [all_ids(&typed), subset(&typed, &keep)] {
            select_matches_row_path(&expr, &table, &typed, &ids)?;
        }
        select_matches_row_path(&expr, &mixed[..], &mixed, &subset(&mixed, &keep))?;
    }
}

/// Integers past 2^53 compare exactly in predicates, ORDER BY, MIN and
/// MAX — over rows and over the column cache.
#[test]
fn ints_past_two_to_the_53_compare_exactly() {
    let rows: Vec<Row> = [BIG + 1, BIG, BIG + 2]
        .iter()
        .map(|&v| vec![Value::Int(v)])
        .collect();
    let table = column_table(&[ColumnType::Int], &rows);
    let ids = all_ids(&rows);
    let preds = [
        (Expr::col_eq(0, Value::Int(BIG)), vec![1]),
        (
            Expr::InList(Box::new(Expr::Col(0)), vec![Value::Int(BIG)]),
            vec![1],
        ),
        (Expr::col_cmp(0, CmpOp::Gt, Value::Int(BIG)), vec![0, 2]),
        (
            Expr::Between(
                Box::new(Expr::Col(0)),
                Value::Int(BIG + 1),
                Value::Int(BIG + 1),
            ),
            vec![0],
        ),
    ];
    for (pred, want) in &preds {
        assert_eq!(
            &exec::select_in(pred, &rows[..], &ids).unwrap(),
            want,
            "{pred:?}"
        );
        assert_eq!(
            &exec::select_in(pred, &table, &ids).unwrap(),
            want,
            "{pred:?}"
        );
    }
    let mut sorted = rows.clone();
    exec::order_and_limit(
        &mut sorted,
        &[crate::OrderKey {
            col: 0,
            desc: false,
        }],
        None,
    );
    assert_eq!(
        sorted,
        vec![rows[1].clone(), rows[0].clone(), rows[2].clone()]
    );
    let mut spec = SelectSpec::new("extremes");
    spec.aggregates = vec![(AggFun::Min, Expr::Col(0)), (AggFun::Max, Expr::Col(0))];
    let want = vec![vec![Value::Int(BIG), Value::Int(BIG + 2)]];
    assert_eq!(exec::aggregate(&spec, &rows).unwrap(), want);
    assert_eq!(exec::aggregate_in(&spec, &table, &ids).unwrap(), want);
}

/// Where the new operators *must* differ from the references: two key
/// tuples whose `\u{1f}`-joined texts coincide although their cells differ.
#[test]
fn references_merge_separator_twins_the_operators_do_not() {
    let st = |s: &str| Value::Str(s.to_owned());
    let left: Row = vec![st("a\u{1f}b"), st("c"), st(""), st("")];
    let right: Row = vec![st("a"), st("b\u{1f}c")];

    let mut joined = Vec::new();
    ref_hash_probe_block(
        std::slice::from_ref(&left),
        &[0, 1],
        std::slice::from_ref(&right),
        &[0, 1],
        2,
        &mut joined,
    );
    assert_eq!(joined.len(), 1, "the reference no longer shows the bug");
    joined.clear();
    exec::hash_probe_block([&left], &[0, 1], [&right], &[0, 1], 2, &mut joined);
    assert!(joined.is_empty());

    let mut spec = SelectSpec::new("twins");
    spec.group_by = vec![Expr::Col(0), Expr::Col(1)];
    spec.aggregates = vec![(AggFun::Count, Expr::Lit(Value::Int(1)))];
    let rows = vec![left[..2].to_vec(), right];
    assert_eq!(ref_aggregate(&spec, &rows).len(), 1);
    assert_eq!(exec::aggregate(&spec, &rows).unwrap().len(), 2);
}
