//! The tree-walking evaluator: the oracle `Program` is tested against.
//!
//! It walks an [`Expr`] node by node over an owned [`Row`], building a
//! [`Value`] at every node, and reports the `DbError::TypeError` that
//! `Program` must report, text for text. It is written against the
//! crate's public API only and has its own `%`-only `LIKE`, its own
//! arithmetic and its own `YEAR`, so a bug in the product's versions shows
//! as a difference instead of being shared.
//!
//! The integration tests include this file with `#[path]`, and so do the
//! crate's unit tests (where the crate names itself `biscuit_db`).

#![allow(dead_code)]

use std::borrow::Cow;

use biscuit_db::expr::{ArithOp, CmpOp, Expr};
use biscuit_db::{DbError, DbResult, Row, Value};

fn type_error<T>(msg: impl Into<String>) -> DbResult<T> {
    Err(DbError::TypeError(msg.into()))
}

/// `expr` evaluated against `row`.
pub(crate) fn eval(expr: &Expr, row: &Row) -> DbResult<Value> {
    match expr {
        Expr::Col(_) | Expr::Lit(_) => eval_cow(expr, row).map(Cow::into_owned),
        Expr::Cmp(..)
        | Expr::And(_)
        | Expr::Or(_)
        | Expr::Not(_)
        | Expr::Like(..)
        | Expr::NotLike(..)
        | Expr::InList(..)
        | Expr::Between(..) => Ok(Value::Int(i64::from(eval_bool(expr, row)?))),
        Expr::Arith(op, a, b) => {
            // Both operands evaluate before either is checked for a number.
            let (x, y) = (eval_cow(a, row)?, eval_cow(b, row)?);
            let (Some(x), Some(y)) = (x.as_f64(), y.as_f64()) else {
                return type_error("arith on non-number");
            };
            Ok(Value::Float(match op {
                ArithOp::Add => x + y,
                ArithOp::Sub => x - y,
                ArithOp::Mul => x * y,
                ArithOp::Div => x / y,
            }))
        }
        Expr::Year(x) => match eval_cow(x, row)?.as_ref() {
            Value::Date(d) => Ok(Value::Int(i64::from(year_of(*d)))),
            other => type_error(format!("YEAR of non-date {other:?}")),
        },
        Expr::Case(cond, then, otherwise) => {
            if eval_bool(cond, row)? {
                eval(then, row)
            } else {
                eval(otherwise, row)
            }
        }
        Expr::Prefix(x, n) => {
            let v = eval_cow(x, row)?;
            let Some(s) = v.as_str() else {
                return type_error("PREFIX of non-string");
            };
            Ok(Value::Str(s.chars().take(*n).collect()))
        }
    }
}

/// [`eval`], borrowing a column's cell or a literal instead of cloning it.
fn eval_cow<'a>(expr: &'a Expr, row: &'a Row) -> DbResult<Cow<'a, Value>> {
    match expr {
        Expr::Col(i) => match row.get(*i) {
            Some(v) => Ok(Cow::Borrowed(v)),
            None => type_error(format!("column {i} out of range")),
        },
        Expr::Lit(v) => Ok(Cow::Borrowed(v)),
        other => eval(other, row).map(Cow::Owned),
    }
}

/// `expr` evaluated against `row` as a predicate: comparisons, connectives
/// and the string and set tests directly, any other value as "nonzero".
pub(crate) fn eval_bool(expr: &Expr, row: &Row) -> DbResult<bool> {
    match expr {
        Expr::Cmp(op, a, b) => {
            let (a, b) = (eval_cow(a, row)?, eval_cow(b, row)?);
            let Some(ord) = a.compare(&b) else {
                return type_error(format!("cannot compare {a:?} and {b:?}"));
            };
            Ok(match op {
                CmpOp::Eq => ord.is_eq(),
                CmpOp::Ne => ord.is_ne(),
                CmpOp::Lt => ord.is_lt(),
                CmpOp::Le => ord.is_le(),
                CmpOp::Gt => ord.is_gt(),
                CmpOp::Ge => ord.is_ge(),
            })
        }
        Expr::And(xs) => {
            for x in xs {
                if !eval_bool(x, row)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Expr::Or(xs) => {
            for x in xs {
                if eval_bool(x, row)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Expr::Not(x) => Ok(!eval_bool(x, row)?),
        Expr::Like(x, pat) => match eval_cow(x, row)?.as_str() {
            Some(s) => Ok(like(s, pat)),
            None => type_error("LIKE on non-string"),
        },
        Expr::NotLike(x, pat) => match eval_cow(x, row)?.as_str() {
            Some(s) => Ok(!like(s, pat)),
            None => type_error("NOT LIKE on non-string"),
        },
        Expr::InList(x, vals) => {
            let v = eval_cow(x, row)?;
            Ok(vals.iter().any(|c| v.compare(c).is_some_and(|o| o.is_eq())))
        }
        Expr::Between(x, lo, hi) => {
            let v = eval_cow(x, row)?;
            let (Some(lo), Some(hi)) = (v.compare(lo), v.compare(hi)) else {
                return type_error("BETWEEN on incomparable values");
            };
            Ok(lo.is_ge() && hi.is_le())
        }
        _ => {
            let v = eval(expr, row)?;
            match v.as_f64() {
                Some(x) => Ok(x != 0.0),
                None => type_error(format!("non-boolean predicate value {v:?}")),
            }
        }
    }
}

/// SQL `LIKE` with `%` wildcards only, by backtracking: the text before
/// the first `%` is a prefix, and the rest of the pattern must match some
/// suffix of what follows it.
pub(crate) fn like(s: &str, pattern: &str) -> bool {
    let Some((head, tail)) = pattern.split_once('%') else {
        return s == pattern;
    };
    let Some(rest) = s.strip_prefix(head) else {
        return false;
    };
    rest.char_indices()
        .map(|(i, _)| i)
        .chain([rest.len()])
        .any(|i| like(&rest[i..], tail))
}

/// The proleptic Gregorian year of a days-since-1970 date, by whole
/// 400-year cycles (146 097 days each) and then year by year.
fn year_of(days: i32) -> i32 {
    let leap = |y: i64| (y % 4 == 0 && y % 100 != 0) || y % 400 == 0;
    let days_in = |y: i64| if leap(y) { 366 } else { 365 };
    let days = i64::from(days);
    let mut year = 1970 + 400 * days.div_euclid(146_097);
    let mut left = days.rem_euclid(146_097);
    while left >= days_in(year) {
        left -= days_in(year);
        year += 1;
    }
    i32::try_from(year).expect("an i32 day count is within an i32 year")
}
