//! Expressions lowered once per operator call into programs over typed
//! cells.
//!
//! [`Expr::eval`] walks the tree per row and builds an owned [`Value`] at
//! every node: a column read clones its cell, a literal is cloned, `LIKE`
//! re-splits its pattern. A [`Program`] is the same tree lowered once: its
//! leaves read [`Cell`]s through the [`Cells`] accessor — a column table or
//! a slice of rows — literals are borrowed cells, `LIKE` patterns are split
//! up front and the hot shape `column <op> literal` is one node. Its
//! values are `Cell`s that borrow the source or the expression, so
//! evaluating a predicate or an aggregate input allocates nothing.
//!
//! The typed path computes a result only where `Expr::eval` would succeed
//! with that same result: the rules it applies — comparison, numeric view,
//! text — are `Cell`'s, which `Value` delegates to. Wherever it meets
//! anything else (a string where a number is wanted, an incomparable pair,
//! a column past the row's width) it gives up, and the program evaluates
//! that row through `Expr::eval`/[`Expr::eval_bool`] on the materialised
//! row. So errors and mixed-variant rules are the tree-walker's by
//! construction, and the tree-walker stays the reference the property
//! tests compare against.
//!
//! Programs are the one evaluator of `biscuit-db`, on both sides of the
//! link. On the host, every [`crate::exec`] operator and the planner's
//! selectivity sampler (through [`crate::exec::select_in`]) run them. On
//! the device, the scan SSDlet runs its predicate's program over each
//! candidate line and the aggregation SSDlet folds its batches through
//! its inputs' programs (`offload`). Nothing else calls the
//! tree-walker but the fallback above and the tests.

use std::cmp::Ordering;

use crate::column::Cells;
use crate::error::DbResult;
use crate::expr::{ArithOp, CmpOp, Expr, LikePattern};
use crate::value::{year_of, Cell, Value};

/// A lowered [`Expr`] (see the module docs).
pub struct Program<'e> {
    expr: &'e Expr,
    node: Node<'e>,
}

/// A program's result for one row: the cell the typed path computed, or
/// the value the tree-walker returned where it gave up.
#[derive(Debug, Clone, PartialEq)]
pub enum Out<'a> {
    /// Computed by the typed path, borrowing the source or the expression.
    Cell(Cell<'a>),
    /// Computed by [`Expr::eval`].
    Value(Value),
}

impl Out<'_> {
    /// The result as a cell.
    pub(crate) fn cell(&self) -> Cell<'_> {
        match self {
            Out::Cell(c) => *c,
            Out::Value(v) => v.cell(),
        }
    }

    /// The result as an owned value.
    pub fn into_value(self) -> Value {
        match self {
            Out::Cell(c) => c.to_value(),
            Out::Value(v) => v,
        }
    }
}

impl<'e> Program<'e> {
    /// Lowers `expr`.
    pub fn new(expr: &'e Expr) -> Program<'e> {
        Program {
            expr,
            node: Node::lower(expr),
        }
    }

    /// [`Expr::eval`] of row `row` of `src`.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Expr::eval`] on the row.
    pub fn eval<'a, A: Cells + ?Sized>(&'a self, src: &'a A, row: usize) -> DbResult<Out<'a>> {
        match self.node.value(src, row) {
            Some(cell) => Ok(Out::Cell(cell)),
            None => self.expr.eval(&src.row(row)).map(Out::Value),
        }
    }

    /// [`Expr::eval_bool`] of row `row` of `src`.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Expr::eval_bool`] on the row.
    pub fn eval_bool<A: Cells + ?Sized>(&self, src: &A, row: usize) -> DbResult<bool> {
        match self.node.truth(src, row) {
            Some(b) => Ok(b),
            None => self.expr.eval_bool(&src.row(row)),
        }
    }

    /// The typed path alone: `None` where [`Program::eval`] defers to the
    /// tree-walker.
    pub(crate) fn typed<'a, A: Cells + ?Sized>(
        &'a self,
        src: &'a A,
        row: usize,
    ) -> Option<Cell<'a>> {
        self.node.value(src, row)
    }

    /// The typed path for a batch of rows, numerically: `Cell::as_f64`
    /// of `Program::typed` for each row of `ids`, written to `out` (as
    /// long as `ids`), an operator at a time. `false` — with `out` partly
    /// written — if a row leaves the typed path or its result is a string.
    pub fn typed_f64s<A: Cells + ?Sized>(&self, src: &A, ids: &[u32], out: &mut [f64]) -> bool {
        self.node.f64s(src, ids, out)
    }
}

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

/// The comparison `op` asks for, given the operands' order.
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

    /// `Expr::eval`, where it succeeds without leaving the typed path.
    fn value<'a, A: Cells + ?Sized>(&'a self, src: &'a A, row: usize) -> Option<Cell<'a>> {
        Some(match self {
            Node::Col(c) => return src.cell(row, *c),
            Node::Lit(v) => *v,
            Node::Arith(op, a, b) => {
                let x = a.value(src, row)?.as_f64()?;
                let y = b.value(src, row)?.as_f64()?;
                Cell::Float(op.apply(x, y))
            }
            Node::Year(x) => match x.value(src, row)? {
                Cell::Date(d) => Cell::Int(i64::from(year_of(d))),
                _ => return None,
            },
            Node::Case(c, t, e) => {
                if c.truth(src, row)? {
                    t.value(src, row)?
                } else {
                    e.value(src, row)?
                }
            }
            Node::Prefix(x, n) => {
                let s = x.value(src, row)?.as_str()?;
                let cut = s.char_indices().nth(*n).map_or(s.len(), |(i, _)| i);
                Cell::Str(&s[..cut])
            }
            // The connectives and tests: `Int` 0 or 1.
            _ => Cell::Int(i64::from(self.truth(src, row)?)),
        })
    }

    /// `as_f64` of [`Node::value`] for each row of `ids`, where every row
    /// stays on the typed path. Column reads and arithmetic run a column at
    /// a time; `Arith` does what [`Expr::eval`] does to each row — the same
    /// IEEE operation on the same two operands.
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
                    match self.value(src, id as usize).and_then(Cell::as_f64) {
                        Some(x) => *slot = x,
                        None => return false,
                    }
                }
                true
            }
        }
    }

    /// `Expr::eval_bool`, where it succeeds without leaving the typed path.
    fn truth<A: Cells + ?Sized>(&self, src: &A, row: usize) -> Option<bool> {
        Some(match self {
            Node::ColCmp(op, c, lit) => holds(*op, src.cell(row, *c)?.compare(*lit)?),
            Node::Cmp(op, a, b) => holds(*op, a.value(src, row)?.compare(b.value(src, row)?)?),
            Node::And(xs) => {
                for x in xs {
                    if !x.truth(src, row)? {
                        return Some(false);
                    }
                }
                true
            }
            Node::Or(xs) => {
                for x in xs {
                    if x.truth(src, row)? {
                        return Some(true);
                    }
                }
                false
            }
            Node::Not(x) => !x.truth(src, row)?,
            Node::Like(x, pat, negated) => pat.matches(x.value(src, row)?.as_str()?) != *negated,
            Node::InList(x, vals) => {
                let v = x.value(src, row)?;
                vals.iter()
                    .any(|c| v.compare(*c).is_some_and(Ordering::is_eq))
            }
            Node::Between(x, lo, hi) => {
                let v = x.value(src, row)?;
                let ge = v.compare(*lo)?.is_ge();
                let le = v.compare(*hi)?.is_le();
                ge && le
            }
            // Values: nonzero numbers are true.
            _ => self.value(src, row)?.as_f64()? != 0.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnTable;
    use crate::value::{ColumnType, Row};

    fn lit(v: Value) -> Box<Expr> {
        Box::new(Expr::Lit(v))
    }

    #[test]
    fn typed_results_borrow_and_fallbacks_own() {
        let rows: Vec<Row> = vec![vec![Value::Str("PROMO TIN".into()), Value::Int(4)]];
        let prefix = Expr::Prefix(Box::new(Expr::Col(0)), 5);
        let p = Program::new(&prefix);
        assert_eq!(p.eval(&rows[..], 0).unwrap(), Out::Cell(Cell::Str("PROMO")));
        // PREFIX of a number: the typed path gives up, the tree-walker
        // reports the error.
        let bad = Expr::Prefix(Box::new(Expr::Col(1)), 5);
        let p = Program::new(&bad);
        assert_eq!(p.typed(&rows[..], 0), None);
        assert_eq!(
            p.eval(&rows[..], 0).unwrap_err().to_string(),
            bad.eval(&rows[0]).unwrap_err().to_string()
        );
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
                let want = e.eval(r).unwrap();
                assert_eq!(p.eval(&table, i).unwrap().into_value(), want, "{e:?}");
                assert_eq!(p.typed(&rows[..], i), Some(want.cell()), "{e:?}");
            }
        }
    }
}
