//! Join, aggregation, and output-shaping executors.
//!
//! The join algorithm is block nested-loop with an in-block hash, matching
//! the paper's description of MariaDB's non-indexed join path: the outer
//! side is consumed in blocks, and **the inner table is re-scanned from
//! storage for every outer block**. That re-scan is exactly the I/O
//! amplification that early NDP filtering collapses — the paper's Q14 saw a
//! 315x I/O reduction because the filtered table moved first in the join
//! order and shrank the outer block count. For a host-scanned inner table
//! the engine computes the *selection* (which cached rows pass the local
//! predicate) once per join step, since it cannot differ between blocks;
//! only the re-scan's I/O and CPU time is replayed per block.
//!
//! Operators read rows through references (`IntoIterator<Item = &Row>`), so
//! the engine can run them straight off its shared row cache. Join and group
//! keys are compared the way [`key_of`] spells them — by canonical text, so
//! `Int 5` meets `Str "5"` — but hashed cell by cell through one scratch
//! buffer and verified cell by cell, without a `String` per row.

use std::borrow::{Borrow, Cow};
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasher, Hasher};

use crate::error::{DbError, DbResult};
use crate::expr::Expr;
use crate::spec::{AggFun, OrderKey, SelectSpec};
use crate::value::{Row, Value};

/// Canonical text key for a tuple of values (floats and dates spell the way
/// they are stored). Fixes the base order of [`aggregate`]'s output.
pub fn key_of(values: &[Value]) -> String {
    let mut s = String::new();
    for v in values {
        v.write_text(&mut s);
        s.push('\u{1f}');
    }
    s
}

/// End-of-chain marker in [`KeyIndex`].
const NIL: u32 = u32::MAX;

/// Hashes key tuples by canonical text and chains the entries that share a
/// hash, in push order. Equal hashes are only candidates: callers verify
/// with [`cell_eq`].
#[derive(Default)]
struct KeyIndex {
    /// First and last entry of each hash's chain.
    chains: HashMap<u64, (u32, u32)>,
    /// `next[i]`: the entry pushed with entry `i`'s hash after it, or [`NIL`].
    next: Vec<u32>,
    scratch: String,
}

impl KeyIndex {
    /// Hash of the cells' texts, each closed by a byte no UTF-8 text
    /// contains. Keyed per index, like the map it feeds: table contents
    /// cannot aim for long chains.
    fn hash<'a>(&mut self, cells: impl IntoIterator<Item = &'a Value>) -> u64 {
        let mut hasher = self.chains.hasher().build_hasher();
        for cell in cells {
            let text = match cell {
                Value::Str(s) => s.as_str(),
                other => {
                    self.scratch.clear();
                    other.write_text(&mut self.scratch);
                    &self.scratch
                }
            };
            hasher.write(text.as_bytes());
            hasher.write_u8(0xff);
        }
        hasher.finish()
    }

    /// Appends the next entry (entries number from 0) to `hash`'s chain.
    fn push(&mut self, hash: u64) {
        let id = self.next.len() as u32;
        self.next.push(NIL);
        match self.chains.entry(hash) {
            Entry::Occupied(mut chain) => {
                let (_, tail) = chain.get_mut();
                self.next[*tail as usize] = id;
                *tail = id;
            }
            Entry::Vacant(chain) => {
                chain.insert((id, id));
            }
        }
    }

    /// Entries pushed with `hash`, oldest first.
    fn candidates(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let mut at = self.chains.get(&hash).map_or(NIL, |&(head, _)| head);
        std::iter::from_fn(move || {
            (at != NIL).then(|| {
                let id = at as usize;
                at = self.next[id];
                id
            })
        })
    }
}

/// Key-cell equality with [`key_of`]'s meaning: equal canonical text. Ints,
/// strings and dates spell injectively, so same-variant pairs compare
/// directly; floats (two decimals) and mixed variants compare as text.
fn cell_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Date(x), Value::Date(y)) => x == y,
        _ => a.to_text() == b.to_text(),
    }
}

/// Probes `inner_local` rows against a hash of the outer block and emits
/// merged global rows. `outer_cols` are global indices into the outer rows;
/// `inner_cols` are local indices into the inner rows; `offset` is where the
/// inner table's columns live in the global row. Output order: inner rows in
/// input order, each with its matching outer rows in block order.
pub fn hash_probe_block<'a, 'b>(
    outer_block: impl IntoIterator<Item = &'a Row>,
    outer_cols: &[usize],
    inner_local: impl IntoIterator<Item = &'b Row>,
    inner_cols: &[usize],
    offset: usize,
    out: &mut Vec<Row>,
) {
    let outer: Vec<&Row> = outer_block.into_iter().collect();
    let mut index = KeyIndex::default();
    for row in &outer {
        let h = index.hash(outer_cols.iter().map(|&c| &row[c]));
        index.push(h);
    }
    for inner in inner_local {
        let h = index.hash(inner_cols.iter().map(|&c| &inner[c]));
        for id in index.candidates(h) {
            let o = outer[id];
            if outer_cols
                .iter()
                .zip(inner_cols)
                .all(|(&oc, &ic)| cell_eq(&o[oc], &inner[ic]))
            {
                let mut merged = o.clone();
                merged[offset..offset + inner.len()].clone_from_slice(inner);
                out.push(merged);
            }
        }
    }
}

/// Cross-joins when no edge connects the inner table (TPC-H never needs
/// this, but the executor should not silently mis-join).
pub fn cross_block<'a, 'b>(
    outer_block: impl IntoIterator<Item = &'a Row>,
    inner_local: impl IntoIterator<Item = &'b Row>,
    offset: usize,
    out: &mut Vec<Row>,
) {
    let inner: Vec<&Row> = inner_local.into_iter().collect();
    for o in outer_block {
        for row in &inner {
            let mut merged = o.clone();
            merged[offset..offset + row.len()].clone_from_slice(row);
            out.push(merged);
        }
    }
}

/// Streaming aggregate accumulator (shared with the device-side
/// aggregation SSDlet).
pub(crate) struct AggState {
    fun: AggFun,
    sum: f64,
    count: u64,
    /// Running minimum or maximum; kept only for `Min` and `Max`.
    extreme: Option<Value>,
}

impl AggState {
    pub(crate) fn new(fun: AggFun) -> Self {
        AggState {
            fun,
            sum: 0.0,
            count: 0,
            extreme: None,
        }
    }

    pub(crate) fn update(&mut self, v: &Value) {
        self.count += 1;
        if let Some(x) = v.as_f64() {
            self.sum += x;
        }
        let wanted = match self.fun {
            AggFun::Min => std::cmp::Ordering::Less,
            AggFun::Max => std::cmp::Ordering::Greater,
            AggFun::Sum | AggFun::Count | AggFun::Avg => return,
        };
        let better = match &self.extreme {
            Some(m) => v.compare(m) == Some(wanted),
            None => true,
        };
        if better {
            self.extreme = Some(v.clone());
        }
    }

    pub(crate) fn finish(&self) -> Value {
        match self.fun {
            AggFun::Sum => Value::Float(self.sum),
            AggFun::Count => Value::Int(self.count as i64),
            AggFun::Avg => {
                if self.count == 0 {
                    Value::Float(0.0)
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggFun::Min | AggFun::Max => self.extreme.clone().unwrap_or(Value::Int(0)),
        }
    }
}

/// Group-by + aggregation. Output rows are `group values ++ agg values`.
///
/// With no group-by columns the result is a single row (even over empty
/// input, where sums/counts are zero — a simplification of SQL's NULLs).
///
/// # Errors
///
/// Propagates expression evaluation errors.
pub fn aggregate<'a>(
    spec: &'a SelectSpec,
    rows: impl IntoIterator<Item = &'a Row>,
) -> DbResult<Vec<Row>> {
    let new_states = || -> Vec<AggState> {
        spec.aggregates
            .iter()
            .map(|(fun, _)| AggState::new(*fun))
            .collect()
    };
    // Groups in first-seen order; `index` entry `i` is `groups[i]`.
    let mut groups: Vec<(Row, Vec<AggState>)> = Vec::new();
    let mut index = KeyIndex::default();
    let mut gvals: Vec<Cow<'a, Value>> = Vec::with_capacity(spec.group_by.len());
    for row in rows {
        gvals.clear();
        for e in &spec.group_by {
            gvals.push(e.eval_cow(row)?);
        }
        let h = index.hash(gvals.iter().map(Cow::as_ref));
        let found = index.candidates(h).find(|&g| {
            groups[g]
                .0
                .iter()
                .zip(&gvals)
                .all(|(have, want)| cell_eq(have, want))
        });
        let g = found.unwrap_or_else(|| {
            index.push(h);
            let key = gvals.drain(..).map(Cow::into_owned).collect();
            groups.push((key, new_states()));
            groups.len() - 1
        });
        for ((_, expr), st) in spec.aggregates.iter().zip(&mut groups[g].1) {
            st.update(expr.eval_cow(row)?.as_ref());
        }
    }
    if groups.is_empty() && spec.group_by.is_empty() {
        groups.push((Vec::new(), new_states()));
    }
    let mut out: Vec<Row> = groups
        .into_iter()
        .map(|(mut row, states)| {
            row.extend(states.iter().map(AggState::finish));
            row
        })
        .collect();
    // Deterministic base order before explicit ORDER BY.
    out.sort_by_cached_key(|row| key_of(row));
    Ok(out)
}

/// Applies ORDER BY (stable) and LIMIT to output rows.
pub fn order_and_limit(rows: &mut Vec<Row>, order: &[OrderKey], limit: Option<usize>) {
    if !order.is_empty() {
        rows.sort_by(|a, b| {
            for k in order {
                let ord = a[k.col]
                    .compare(&b[k.col])
                    .unwrap_or(std::cmp::Ordering::Equal);
                let ord = if k.desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    if let Some(n) = limit {
        rows.truncate(n);
    }
}

/// Evaluates a projection list over each row.
///
/// # Errors
///
/// Propagates expression evaluation errors.
pub fn project<'a>(exprs: &[Expr], rows: impl IntoIterator<Item = &'a Row>) -> DbResult<Vec<Row>> {
    rows.into_iter()
        .map(|r| exprs.iter().map(|e| e.eval(r)).collect::<DbResult<Row>>())
        .collect()
}

/// Applies a filter predicate to owned or borrowed rows, keeping order.
///
/// # Errors
///
/// Propagates expression evaluation errors.
pub fn filter<R: Borrow<Row>>(pred: &Expr, rows: Vec<R>) -> DbResult<Vec<R>> {
    let mut out = Vec::with_capacity(rows.len());
    for r in rows {
        if pred.eval_bool(r.borrow())? {
            out.push(r);
        }
    }
    Ok(out)
}

/// Indices of the rows that satisfy `pred`, ascending — a selection vector
/// over a shared table snapshot, so a scan copies nothing.
///
/// # Errors
///
/// Propagates expression evaluation errors.
pub fn select(pred: &Expr, rows: &[Row]) -> DbResult<Vec<u32>> {
    assert!(u32::try_from(rows.len()).is_ok(), "row index fits u32");
    let mut sel = Vec::new();
    for (i, r) in rows.iter().enumerate() {
        if pred.eval_bool(r)? {
            sel.push(i as u32);
        }
    }
    Ok(sel)
}

/// [`select`], cloning the qualifying rows out.
///
/// # Errors
///
/// Propagates expression evaluation errors.
pub fn filter_ref(pred: &Expr, rows: &[Row]) -> DbResult<Vec<Row>> {
    let sel = select(pred, rows)?;
    Ok(sel.iter().map(|&i| rows[i as usize].clone()).collect())
}

/// Validation helper: every output row width matches expectations.
pub fn check_width(rows: &[Row], width: usize) -> DbResult<()> {
    for r in rows {
        if r.len() != width {
            return Err(DbError::TypeError(format!(
                "row width {} != expected {width}",
                r.len()
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SelectSpec;

    fn v(i: i64) -> Value {
        Value::Int(i)
    }

    fn st(s: &str) -> Value {
        Value::Str(s.into())
    }

    /// Local rows as the leading columns of `width`-wide global rows.
    fn wide(local: Vec<Row>, width: usize) -> Vec<Row> {
        local
            .into_iter()
            .map(|mut r| {
                r.resize(width, v(0));
                r
            })
            .collect()
    }

    #[test]
    fn hash_probe_matches_equal_keys() {
        let outer = wide(vec![vec![v(1), v(10)], vec![v(2), v(20)]], 4);
        let inner = vec![vec![v(20), v(200)], vec![v(30), v(300)]];
        let mut out = Vec::new();
        hash_probe_block(&outer, &[1], &inner, &[0], 2, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], vec![v(2), v(20), v(20), v(200)]);
    }

    #[test]
    fn multi_column_join_keys() {
        let outer = wide(vec![vec![v(1), v(2)]], 4);
        let inner_match = vec![vec![v(1), v(2)]];
        let inner_miss = vec![vec![v(1), v(3)]];
        let mut out = Vec::new();
        hash_probe_block(&outer, &[0, 1], &inner_match, &[0, 1], 2, &mut out);
        assert_eq!(out.len(), 1);
        out.clear();
        hash_probe_block(&outer, &[0, 1], &inner_miss, &[0, 1], 2, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn probe_emits_inner_order_then_outer_order() {
        let outer = wide(vec![vec![v(7)], vec![v(8)], vec![v(7)], vec![v(7)]], 2);
        let inner = [vec![v(8)], vec![v(7)]];
        let mut out = Vec::new();
        // Borrowed inputs work as well as owned ones.
        let outer_refs: Vec<&Row> = outer.iter().collect();
        hash_probe_block(outer_refs, &[0], inner.iter(), &[0], 1, &mut out);
        assert_eq!(
            out,
            vec![
                vec![v(8), v(8)],
                vec![v(7), v(7)],
                vec![v(7), v(7)],
                vec![v(7), v(7)]
            ]
        );
    }

    #[test]
    fn keys_compare_by_canonical_text() {
        // Int 5 joins Str "5"; floats meet at two decimals.
        let outer = wide(vec![vec![v(5), Value::Float(1.001)]], 4);
        let inner = vec![vec![st("5"), Value::Float(1.004)]];
        let mut out = Vec::new();
        hash_probe_block(&outer, &[0, 1], &inner, &[0, 1], 2, &mut out);
        assert_eq!(out.len(), 1);
        let inner = vec![vec![st("5"), Value::Float(1.02)]];
        out.clear();
        hash_probe_block(&outer, &[0, 1], &inner, &[0, 1], 2, &mut out);
        assert!(out.is_empty());
    }

    /// Two key tuples whose `\u{1f}`-joined texts coincide although their
    /// cells differ (the row format allows `\u{1f}` inside a `Str`).
    fn separator_twins() -> (Row, Row) {
        (vec![st("a\u{1f}b"), st("c")], vec![st("a"), st("b\u{1f}c")])
    }

    #[test]
    fn probe_keeps_cells_apart() {
        let (left, right) = separator_twins();
        assert_eq!(key_of(&left), key_of(&right));
        let outer = wide(vec![left.clone()], 4);
        let mut out = Vec::new();
        hash_probe_block(&outer, &[0, 1], &vec![right], &[0, 1], 2, &mut out);
        assert!(out.is_empty(), "rows with different key cells joined");
        hash_probe_block(&outer, &[0, 1], &vec![left], &[0, 1], 2, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn aggregate_keeps_group_cells_apart() {
        let (left, right) = separator_twins();
        let mut spec = SelectSpec::new("t");
        spec.group_by = vec![Expr::Col(0), Expr::Col(1)];
        spec.aggregates = vec![(AggFun::Count, Expr::Lit(v(1)))];
        let rows = vec![left.clone(), right.clone(), right.clone(), left.clone()];
        let out = aggregate(&spec, &rows).unwrap();
        assert_eq!(out.len(), 2, "groups with different cells merged");
        // Output rows whose base-order keys tie keep first-seen order.
        assert_eq!(out[0], [left, vec![v(2)]].concat());
        assert_eq!(out[1], [right, vec![v(2)]].concat());
    }

    #[test]
    fn aggregate_grouped_sums() {
        let mut spec = SelectSpec::new("t");
        spec.group_by = vec![Expr::Col(0)];
        spec.aggregates = vec![(AggFun::Sum, Expr::Col(1)), (AggFun::Count, Expr::Col(1))];
        let rows = vec![vec![v(1), v(10)], vec![v(2), v(20)], vec![v(1), v(30)]];
        let out = aggregate(&spec, &rows).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], vec![v(1), Value::Float(40.0), v(2)]);
        assert_eq!(out[1], vec![v(2), Value::Float(20.0), v(1)]);
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let mut spec = SelectSpec::new("t");
        spec.aggregates = vec![(AggFun::Count, Expr::Col(0)), (AggFun::Sum, Expr::Col(0))];
        let out = aggregate(&spec, &Vec::new()).unwrap();
        assert_eq!(out, vec![vec![v(0), Value::Float(0.0)]]);
    }

    #[test]
    fn min_max_avg() {
        let mut spec = SelectSpec::new("t");
        spec.aggregates = vec![
            (AggFun::Min, Expr::Col(0)),
            (AggFun::Max, Expr::Col(0)),
            (AggFun::Avg, Expr::Col(0)),
        ];
        let rows = vec![vec![v(4)], vec![v(2)], vec![v(6)]];
        let out = aggregate(&spec, &rows).unwrap();
        assert_eq!(out[0], vec![v(2), v(6), Value::Float(4.0)]);
    }

    #[test]
    fn select_and_filter_ref_agree() {
        let rows: Vec<Row> = (0..10).map(|i| vec![v(i)]).collect();
        let pred = Expr::col_cmp(0, crate::expr::CmpOp::Ge, v(7));
        assert_eq!(select(&pred, &rows).unwrap(), vec![7, 8, 9]);
        assert_eq!(filter_ref(&pred, &rows).unwrap(), rows[7..].to_vec());
        let refs: Vec<&Row> = rows.iter().collect();
        assert_eq!(
            filter(&pred, refs).unwrap(),
            rows[7..].iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn order_and_limit_applies() {
        let mut rows = vec![vec![v(3)], vec![v(1)], vec![v(2)]];
        order_and_limit(&mut rows, &[OrderKey { col: 0, desc: true }], Some(2));
        assert_eq!(rows, vec![vec![v(3)], vec![v(2)]]);
    }

    #[test]
    fn cross_block_is_product() {
        let outer = wide(vec![vec![v(1)], vec![v(2)]], 2);
        let inner = vec![vec![v(8)], vec![v(9)]];
        let mut out = Vec::new();
        cross_block(&outer, &inner, 1, &mut out);
        assert_eq!(out.len(), 4);
        assert_eq!(out[1], vec![v(1), v(9)]);
    }
}
