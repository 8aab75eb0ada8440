//! Expressions lowered once per operator call into programs over typed
//! cells: the one evaluator of `biscuit-db`.
//!
//! A [`Program`] is an [`Expr`] lowered once: its leaves read [`Cell`]s
//! through the [`Cells`] accessor — a column table, a join's id tuples or
//! a slice of rows — literals are borrowed cells, `LIKE` patterns are split
//! up front and the hot shape `column <op> literal` is one node. Its
//! values are `Cell`s that borrow the source or the expression, so
//! evaluating a predicate or an aggregate input allocates nothing.
//!
//! Every node computes its result and its error itself. The rules it
//! applies — comparison, numeric view, text — are `Cell`'s, which `Value`
//! delegates to. Where a node meets a value it cannot use (a string where a
//! number is wanted, an incomparable pair, a column past the row's width)
//! it returns a [`DbError::TypeError`], and it evaluates its operands in
//! the order that decides which error wins: `Arith` evaluates both
//! operands before it checks either, `Cmp` its left operand first, `And`
//! and `Or` their arms left to right, stopping at the first that decides.
//! The crate's tests hold a tree-walking evaluator over owned rows
//! (`tests/support/tree_walk.rs`) as the oracle every program must equal,
//! value for value and error text for error text.
//!
//! A predicate also runs a batch of rows at a time ([`Program::select`]).
//! A comparison of a column with a literal or with another column,
//! `BETWEEN` and `IN` over a column read the column's storage directly
//! (`i64`, `f64`, `i32` dates or string slices) where the source stores
//! columns, through the same `Cell` rules the row path uses. `AND` refines
//! the selection one arm at a time, each arm running only on the rows the
//! arms before it kept — the row path's short circuit. Any other node runs
//! row at a time. A batch in which any evaluation fails is discarded and
//! runs again row at a time through [`Program::eval_bool`], so the error
//! reported is the row path's, as [`Program::typed_f64s`]'s callers do.
//!
//! Programs run on both sides of the link. On the host, every
//! [`crate::exec`] operator and the planner's selectivity sampler (through
//! [`crate::exec::select_in`]) run them. On the device, the scan SSDlet
//! runs its predicate's program over each candidate line and the
//! aggregation SSDlet folds its batches through its inputs' programs
//! (`offload`).

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

use crate::column::{retain_where, Cells, Column};
use crate::error::{DbError, DbResult};
use crate::expr::{ArithOp, CmpOp, Expr, LikePattern};
use crate::value::{str_eq, year_of, Cell, Value};

/// A lowered [`Expr`] (see the module docs).
pub(crate) struct Program<'e>(Node<'e>);

impl<'e> Program<'e> {
    /// Lowers `expr`.
    pub(crate) fn new(expr: &'e Expr) -> Program<'e> {
        Program(Node::lower(expr))
    }

    /// The value of the expression on row `row` of `src`, borrowing the
    /// source or the expression. Predicates are `Int` 0 or 1.
    ///
    /// # Errors
    ///
    /// [`DbError::TypeError`] where an operand is of the wrong type or a
    /// column is past the row's width.
    pub(crate) fn eval<'a, A: Cells + ?Sized>(
        &'a self,
        src: &'a A,
        row: usize,
    ) -> DbResult<Cell<'a>> {
        self.0.value(src, row).map_err(|e| *e)
    }

    /// The expression as a predicate on row `row` of `src`: comparisons,
    /// connectives and the string and set tests directly, any other value
    /// as "nonzero".
    ///
    /// # Errors
    ///
    /// As [`Program::eval`], and [`DbError::TypeError`] for a string value.
    pub(crate) fn eval_bool<A: Cells + ?Sized>(&self, src: &A, row: usize) -> DbResult<bool> {
        self.0.truth(src, row).map_err(|e| *e)
    }

    /// The numeric view (`Cell::as_f64`) of [`Program::eval`] for each row
    /// of `ids`, written to `out` (as long as `ids`), an operator at a
    /// time. `false` — with `out` partly written — if a row's evaluation
    /// fails or its result is a string.
    pub(crate) fn typed_f64s<A: Cells + ?Sized>(
        &self,
        src: &A,
        ids: &[u32],
        out: &mut [f64],
    ) -> bool {
        self.0.f64s(src, ids, out)
    }

    /// The ids among `ids` of the rows on which the predicate holds
    /// ([`Program::eval_bool`]), in order, computed a batch of rows at a
    /// time (see the module docs). A batch whose typed evaluation meets an
    /// error runs again row at a time, so the error reported is the row
    /// path's.
    ///
    /// # Errors
    ///
    /// As [`Program::eval_bool`], for the first failing row of `ids`.
    pub(crate) fn select<A: Cells + ?Sized>(&self, src: &A, ids: &[u32]) -> DbResult<Vec<u32>> {
        let mut sel = Vec::new();
        for batch in ids.chunks(SELECT_BATCH) {
            let at = sel.len();
            if self.0.select(src, batch, &mut sel) {
                continue;
            }
            sel.truncate(at);
            for &id in batch {
                if self.eval_bool(src, id as usize)? {
                    sel.push(id);
                }
            }
        }
        Ok(sel)
    }

    /// [`Program::eval`] of each row of `ids`, appended to `out`; a plain
    /// column is gathered ([`Cells::gather`]) from its storage where the
    /// source stores columns. `false` — with `out` partly written — if a row's
    /// evaluation fails.
    pub(crate) fn cells<'a, A: Cells + ?Sized>(
        &'a self,
        src: &'a A,
        ids: &[u32],
        out: &mut Vec<Cell<'a>>,
    ) -> bool {
        if let Node::Col(c) = self.0 {
            return src.gather(c, ids, out);
        }
        for &id in ids {
            match self.eval(src, id as usize) {
                Ok(cell) => out.push(cell),
                Err(_) => return false,
            }
        }
        true
    }
}

/// Rows per batch of [`Program::select`]: a failing batch is the most
/// that runs twice.
const SELECT_BATCH: usize = 1024;

/// One node of a lowered expression; each mirrors the `Expr` variant it
/// comes from, except [`Node::ColCmp`].
enum Node<'e> {
    Col(usize),
    Lit(Cell<'e>),
    /// `Cmp(op, Col(col), Lit(lit))`: one read, one comparison.
    ColCmp(CmpOp, usize, Cell<'e>),
    Cmp(CmpOp, Box<Node<'e>>, Box<Node<'e>>),
    And(Vec<Node<'e>>),
    Or(Vec<Node<'e>>),
    Not(Box<Node<'e>>),
    /// `LIKE`, or `NOT LIKE` when the flag is set.
    Like(Box<Node<'e>>, LikePattern<'e>, bool),
    InList(Box<Node<'e>>, Vec<Cell<'e>>),
    Between(Box<Node<'e>>, Cell<'e>, Cell<'e>),
    Arith(ArithOp, Box<Node<'e>>, Box<Node<'e>>),
    Year(Box<Node<'e>>),
    Case(Box<Node<'e>>, Box<Node<'e>>, Box<Node<'e>>),
    Prefix(Box<Node<'e>>, usize),
}

/// A node's result. The error is boxed so that a result is no wider than
/// its cell: nodes return through every level of the tree on every row.
type Eval<T> = Result<T, Box<DbError>>;

/// The error for `msg`, built out of line: only a failing row pays for it.
#[cold]
#[inline(never)]
fn type_error(msg: fmt::Arguments<'_>) -> Box<DbError> {
    Box::new(DbError::TypeError(msg.to_string()))
}

/// Cell `col` of row `row`, or the error for a column past the row.
fn column<A: Cells + ?Sized>(src: &A, row: usize, col: usize) -> Eval<Cell<'_>> {
    src.cell(row, col)
        .ok_or_else(|| type_error(format_args!("column {col} out of range")))
}

/// `a <op> b`, or the error for an incomparable pair.
fn compare(op: CmpOp, a: Cell<'_>, b: Cell<'_>) -> Eval<bool> {
    let ord = a
        .compare(b)
        .ok_or_else(|| type_error(format_args!("cannot compare {a:?} and {b:?}")))?;
    Ok(holds(op, ord))
}

/// Whether `op` holds of a pair ordered `ord`.
#[inline]
fn holds(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Eq => ord.is_eq(),
        CmpOp::Ne => ord.is_ne(),
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Le => ord.is_le(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::Ge => ord.is_ge(),
    }
}

/// `x BETWEEN lo AND hi`, `None` where either bound is incomparable.
#[inline]
fn between(x: Cell<'_>, lo: Cell<'_>, hi: Cell<'_>) -> Option<bool> {
    let ge = x.compare(lo)?.is_ge();
    let le = x.compare(hi)?.is_le();
    Some(ge && le)
}

/// `x IN (vals)`.
#[inline]
fn in_list(x: Cell<'_>, vals: &[Cell<'_>]) -> bool {
    vals.iter().any(|&c| match (x, c) {
        (Cell::Str(a), Cell::Str(b)) => str_eq(a, b),
        _ => x.compare(c).is_some_and(Ordering::is_eq),
    })
}

impl<'e> Node<'e> {
    fn lower(expr: &'e Expr) -> Node<'e> {
        let sub = |x: &'e Expr| Box::new(Node::lower(x));
        match expr {
            Expr::Col(i) => Node::Col(*i),
            Expr::Lit(v) => Node::Lit(v.cell()),
            Expr::Cmp(op, a, b) => match (&**a, &**b) {
                (Expr::Col(c), Expr::Lit(v)) => Node::ColCmp(*op, *c, v.cell()),
                _ => Node::Cmp(*op, sub(a), sub(b)),
            },
            Expr::And(xs) => Node::And(xs.iter().map(Node::lower).collect()),
            Expr::Or(xs) => Node::Or(xs.iter().map(Node::lower).collect()),
            Expr::Not(x) => Node::Not(sub(x)),
            Expr::Like(x, pat) => Node::Like(sub(x), LikePattern::new(pat), false),
            Expr::NotLike(x, pat) => Node::Like(sub(x), LikePattern::new(pat), true),
            Expr::InList(x, vals) => Node::InList(sub(x), vals.iter().map(Value::cell).collect()),
            Expr::Between(x, lo, hi) => Node::Between(sub(x), lo.cell(), hi.cell()),
            Expr::Arith(op, a, b) => Node::Arith(*op, sub(a), sub(b)),
            Expr::Year(x) => Node::Year(sub(x)),
            Expr::Case(c, t, e) => Node::Case(sub(c), sub(t), sub(e)),
            Expr::Prefix(x, n) => Node::Prefix(sub(x), *n),
        }
    }

    /// [`Program::eval`].
    fn value<'a, A: Cells + ?Sized>(&'a self, src: &'a A, row: usize) -> Eval<Cell<'a>> {
        Ok(match self {
            Node::Col(c) => return column(src, row, *c),
            Node::Lit(v) => *v,
            Node::Arith(op, a, b) => {
                let (x, y) = (a.value(src, row)?, b.value(src, row)?);
                match (x.as_f64(), y.as_f64()) {
                    (Some(x), Some(y)) => Cell::Float(op.apply(x, y)),
                    _ => return Err(type_error(format_args!("arith on non-number"))),
                }
            }
            Node::Year(x) => match x.value(src, row)? {
                Cell::Date(d) => Cell::Int(i64::from(year_of(d))),
                other => return Err(type_error(format_args!("YEAR of non-date {other:?}"))),
            },
            Node::Case(c, t, e) => {
                if c.truth(src, row)? {
                    t.value(src, row)?
                } else {
                    e.value(src, row)?
                }
            }
            Node::Prefix(x, n) => {
                let s = x
                    .value(src, row)?
                    .as_str()
                    .ok_or_else(|| type_error(format_args!("PREFIX of non-string")))?;
                let cut = s.char_indices().nth(*n).map_or(s.len(), |(i, _)| i);
                Cell::Str(&s[..cut])
            }
            // The connectives and tests: `Int` 0 or 1.
            _ => Cell::Int(i64::from(self.truth(src, row)?)),
        })
    }

    /// `as_f64` of [`Node::value`] for each row of `ids`, where every row
    /// evaluates to a number. Column reads and arithmetic run a column at
    /// a time; `Arith` does what [`Node::value`] does to each row — the
    /// same IEEE operation on the same two operands.
    fn f64s<A: Cells + ?Sized>(&self, src: &A, ids: &[u32], out: &mut [f64]) -> bool {
        match self {
            Node::Col(c) => src.f64s(*c, ids, out),
            Node::Lit(v) => match v.as_f64() {
                Some(x) => {
                    out.fill(x);
                    true
                }
                None => false,
            },
            Node::Arith(op, a, b) => {
                let mut rhs = vec![0.0; out.len()];
                if !(a.f64s(src, ids, out) && b.f64s(src, ids, &mut rhs)) {
                    return false;
                }
                for (x, &y) in out.iter_mut().zip(&rhs) {
                    *x = op.apply(*x, y);
                }
                true
            }
            _ => {
                for (slot, &id) in out.iter_mut().zip(ids) {
                    match self.value(src, id as usize).ok().and_then(Cell::as_f64) {
                        Some(x) => *slot = x,
                        None => return false,
                    }
                }
                true
            }
        }
    }

    /// Appends to `out` those of `ids` on which [`Node::truth`] holds, in
    /// order; `false` — with `out` partly written — if it fails on one.
    /// A comparison, `BETWEEN` or `IN` over a stored column runs over the
    /// column's storage; `And` runs each arm only on the rows the arms
    /// before it kept; anything else runs row at a time.
    fn select<A: Cells + ?Sized>(&self, src: &A, ids: &[u32], out: &mut Vec<u32>) -> bool {
        match self {
            Node::ColCmp(op, c, lit) => {
                if let Some(col) = src.column(*c) {
                    return col.retain(ids, out, |x| Some(holds(*op, x.compare(*lit)?)));
                }
            }
            Node::Cmp(op, a, b) => {
                if let (Some(a), Some(b)) = (a.stored(src), b.stored(src)) {
                    return retain_where(ids, out, |r| {
                        Some(holds(*op, a.get(r).compare(b.get(r))?))
                    });
                }
            }
            Node::Between(x, lo, hi) => {
                if let Some(col) = x.stored(src) {
                    return col.retain(ids, out, |x| between(x, *lo, *hi));
                }
            }
            Node::InList(x, vals) => {
                if let Some(col) = x.stored(src) {
                    return col.retain(ids, out, |x| Some(in_list(x, vals)));
                }
            }
            Node::And(xs) => {
                let Some((last, init)) = xs.split_last() else {
                    out.extend_from_slice(ids);
                    return true;
                };
                let mut kept = Cow::Borrowed(ids);
                for x in init {
                    let mut next = Vec::with_capacity(kept.len());
                    if !x.select(src, &kept, &mut next) {
                        return false;
                    }
                    kept = Cow::Owned(next);
                }
                return last.select(src, &kept, out);
            }
            _ => {}
        }
        retain_where(ids, out, |r| self.truth(src, r).ok())
    }

    /// The column this node reads, where it is a plain column and the
    /// source stores it.
    fn stored<'a, A: Cells + ?Sized>(&self, src: &'a A) -> Option<&'a Column> {
        match self {
            Node::Col(c) => src.column(*c),
            _ => None,
        }
    }

    /// [`Program::eval_bool`].
    fn truth<A: Cells + ?Sized>(&self, src: &A, row: usize) -> Eval<bool> {
        Ok(match self {
            Node::ColCmp(op, c, lit) => compare(*op, column(src, row, *c)?, *lit)?,
            Node::Cmp(op, a, b) => compare(*op, a.value(src, row)?, b.value(src, row)?)?,
            Node::And(xs) => {
                for x in xs {
                    if !x.truth(src, row)? {
                        return Ok(false);
                    }
                }
                true
            }
            Node::Or(xs) => {
                for x in xs {
                    if x.truth(src, row)? {
                        return Ok(true);
                    }
                }
                false
            }
            Node::Not(x) => !x.truth(src, row)?,
            Node::Like(x, pat, negated) => {
                let s = x.value(src, row)?.as_str().ok_or_else(|| {
                    let not = if *negated { "NOT " } else { "" };
                    type_error(format_args!("{not}LIKE on non-string"))
                })?;
                pat.matches(s) != *negated
            }
            Node::InList(x, vals) => in_list(x.value(src, row)?, vals),
            Node::Between(x, lo, hi) => between(x.value(src, row)?, *lo, *hi)
                .ok_or_else(|| type_error(format_args!("BETWEEN on incomparable values")))?,
            // Values: nonzero numbers are true.
            _ => {
                let v = self.value(src, row)?;
                let x = v
                    .as_f64()
                    .ok_or_else(|| type_error(format_args!("non-boolean predicate value {v:?}")))?;
                x != 0.0
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnTable;
    use crate::tree_walk;
    use crate::value::{ColumnType, Row};

    fn lit(v: Value) -> Box<Expr> {
        Box::new(Expr::Lit(v))
    }

    fn col(c: usize) -> Box<Expr> {
        Box::new(Expr::Col(c))
    }

    #[test]
    fn errors_equal_the_oracles() {
        let rows: Vec<Row> = vec![vec![Value::Str("PROMO TIN".into()), Value::Int(4)]];
        let prefix = Expr::Prefix(col(0), 5);
        assert_eq!(
            Program::new(&prefix).eval(&rows[..], 0).unwrap(),
            Cell::Str("PROMO")
        );
        let nan = Expr::Arith(ArithOp::Div, lit(Value::Float(0.0)), lit(Value::Int(0)));
        let failing = [
            Expr::Prefix(col(1), 5),
            Expr::Year(col(0)),
            Expr::Col(2),
            // Both operands evaluate before either is checked: the column
            // past the row wins over the string on the left.
            Expr::Arith(ArithOp::Add, col(0), col(7)),
            Expr::Arith(ArithOp::Mul, col(1), col(0)),
            Expr::Cmp(CmpOp::Lt, col(0), col(1)),
            Expr::Cmp(CmpOp::Eq, col(6), col(7)),
            Expr::Cmp(CmpOp::Eq, Box::new(nan.clone()), Box::new(nan)),
            Expr::col_cmp(0, CmpOp::Ge, Value::date("1995-01-01")),
            Expr::Like(col(1), "%".into()),
            Expr::NotLike(col(1), "%".into()),
            Expr::Between(col(1), Value::Str("a".into()), Value::Int(9)),
            Expr::Between(col(1), Value::Int(1), Value::Str("a".into())),
            Expr::And(vec![Expr::col_eq(1, Value::Int(4)), Expr::Col(0)]),
            Expr::Case(
                Box::new(Expr::Col(0)),
                lit(Value::Int(1)),
                lit(Value::Int(2)),
            ),
            Expr::InList(col(3), vec![Value::Int(4)]),
        ];
        for e in &failing {
            let p = Program::new(e);
            let want = tree_walk::eval(e, &rows[0]).unwrap_err().to_string();
            assert_eq!(p.eval(&rows[..], 0).unwrap_err().to_string(), want, "{e:?}");
            let want = tree_walk::eval_bool(e, &rows[0]).unwrap_err().to_string();
            assert_eq!(
                p.eval_bool(&rows[..], 0).unwrap_err().to_string(),
                want,
                "{e:?}"
            );
        }
    }

    /// A failing row past the first batch: the batch reruns row at a time
    /// and reports the row path's error; an `And` arm that never sees the
    /// row does not fail.
    #[test]
    fn select_reports_the_row_paths_error_past_the_first_batch() {
        let rows: Vec<Row> = (0..3 * SELECT_BATCH as i64)
            .map(|i| {
                let x = if i == 2500 { f64::NAN } else { i as f64 };
                vec![Value::Int(i), Value::Float(x)]
            })
            .collect();
        let mut table = ColumnTable::new(&[ColumnType::Int, ColumnType::Float]);
        for r in &rows {
            table.push_row(r).unwrap();
        }
        let ids: Vec<u32> = (0..rows.len() as u32).collect();
        let nan = Expr::col_cmp(1, CmpOp::Ge, Value::Float(1.0));
        let want = rows
            .iter()
            .map(|r| tree_walk::eval_bool(&nan, r))
            .find_map(Result::err)
            .unwrap()
            .to_string();
        let got = Program::new(&nan).select(&table, &ids).unwrap_err();
        assert_eq!(got.to_string(), want);
        let guarded = Expr::And(vec![Expr::col_cmp(0, CmpOp::Lt, Value::Int(100)), nan]);
        let got = Program::new(&guarded).select(&table, &ids).unwrap();
        assert_eq!(got, (1..100).collect::<Vec<u32>>());
    }

    #[test]
    fn column_tables_and_rows_evaluate_alike() {
        let types = [ColumnType::Int, ColumnType::Float, ColumnType::Date];
        let rows: Vec<Row> = (0..20)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Float(i as f64 / 4.0),
                    Value::Date(i as i32),
                ]
            })
            .collect();
        let mut table = ColumnTable::new(&types);
        for r in &rows {
            table.push_row(r).unwrap();
        }
        let exprs = [
            Expr::col_cmp(0, CmpOp::Ge, Value::Int(7)),
            Expr::Between(Box::new(Expr::Col(1)), Value::Int(1), Value::Float(3.5)),
            Expr::Arith(ArithOp::Mul, Box::new(Expr::Col(1)), lit(Value::Int(3))),
            Expr::Cmp(CmpOp::Lt, lit(Value::Int(5)), Box::new(Expr::Col(2))),
        ];
        for e in &exprs {
            let p = Program::new(e);
            for (i, r) in rows.iter().enumerate() {
                let want = tree_walk::eval(e, r).unwrap();
                assert_eq!(p.eval(&table, i).unwrap().to_value(), want, "{e:?}");
                assert_eq!(p.eval(&rows[..], i).unwrap(), want.cell(), "{e:?}");
            }
        }
    }
}
