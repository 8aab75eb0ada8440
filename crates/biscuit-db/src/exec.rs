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
//! Each operator exists once, over any `Cells` source — the engine's
//! column cache, a join's id tuples (`Joined`) or a slice of rows — and a
//! list of row ids: a selection vector, so a scan copies nothing. The join
//! operators, `hash_probe` and `cross`, copy nothing either: they emit
//! (outer id, inner id) pairs, the engine extends its `Joined` ids with
//! them, and rows are built only for query output. Expressions are lowered
//! once per call into a `Program`; selections and aggregates run it a
//! column at a time where the source stores columns. The row-slice
//! functions (`filter`, `filter_ref`, `aggregate`, `hash_probe_block`) are
//! those operators over all of the given rows; `hash_probe_block` builds
//! merged rows from the pairs.
//!
//! Join and group keys mean what `key_of` spells — canonical text, so
//! `Int 5` meets `Str "5"` — and are hashed by that meaning, not by their
//! text: a cell whose text is an `i64`'s (every `Int`, and `Str "5"` but not
//! `"05"`) hashes as the integer, any other cell as its text, all under a
//! keyed `RandomState` (`KeyHasher`). Candidates are verified cell by cell
//! (`cell_eq`), without a `String` per row. A join step's host-scanned
//! inner is hashed once (`Inner`) under the keys every block's outer index
//! is built with; an aggregation tries the previous row's group, and while
//! there are few groups compares with each, before it hashes.

use std::borrow::Borrow;
use std::collections::hash_map::{Entry, HashMap, RandomState};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

use crate::column::Cells;
use crate::error::DbResult;
use crate::expr::Expr;
use crate::program::Program;
use crate::spec::{AggFun, OrderKey, SelectSpec};
use crate::value::{str_eq, Cell, Row, Value};

/// Canonical text key for a tuple of values (floats and dates spell the way
/// they are stored). Fixes the base order of [`aggregate`]'s output.
pub(crate) fn key_of(values: &[Value]) -> String {
    let mut s = String::new();
    for v in values {
        v.write_text(&mut s);
        s.push('\u{1f}');
    }
    s
}

/// Ids `0..n`: every row of an `n`-row source.
pub(crate) fn all(n: usize) -> Vec<u32> {
    let n = u32::try_from(n).expect("row index fits u32");
    (0..n).collect()
}

/// End-of-chain marker in [`KeyIndex`].
const NIL: u32 = u32::MAX;

/// Hasher for keys that are already hashes: passes a `u64` through. The
/// `u64`s [`KeyIndex`] maps come out of its keyed hasher, so crafted keys
/// still cannot aim for long chains.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Hashes key tuples by meaning: tuples whose [`key_of`] texts are equal
/// hash equal. A cell whose text is the canonical text of an `i64` —
/// every `Int`, and a `Str` such as `"5"` but not `"05"`, `"+5"` or
/// `"-0"` — hashes as that integer: a `0xfe` byte, then its eight bytes.
/// Every other cell hashes its text closed by `0xff`. Neither byte occurs
/// in UTF-8 text, so the bytes spell the tuple injectively.
#[derive(Default)]
struct KeyHasher {
    /// Keyed per join step or aggregation: table contents cannot aim for
    /// long chains.
    keys: RandomState,
    scratch: String,
}

impl KeyHasher {
    fn new(keys: RandomState) -> KeyHasher {
        KeyHasher {
            keys,
            scratch: String::new(),
        }
    }

    fn hash<'c>(&mut self, cells: impl IntoIterator<Item = Cell<'c>>) -> u64 {
        let mut hasher = self.keys.build_hasher();
        for cell in cells {
            let int = match cell {
                Cell::Int(v) => Some(v),
                Cell::Str(s) => canonical_int(s),
                Cell::Float(_) | Cell::Date(_) => None,
            };
            if let Some(v) = int {
                hasher.write_u8(0xfe);
                hasher.write_i64(v);
                continue;
            }
            let text = match cell {
                Cell::Str(s) => s,
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
}

/// The `i64` whose text (`{v}`) is `s`, if there is one: an optional
/// `-`, then digits without a leading zero, or `0` alone.
fn canonical_int(s: &str) -> Option<i64> {
    let digits = s.strip_prefix('-').unwrap_or(s).as_bytes();
    match digits {
        [b'1'..=b'9', rest @ ..] if rest.len() < 19 && rest.iter().all(u8::is_ascii_digit) => {
            s.parse().ok()
        }
        [b'0'] if digits.len() == s.len() => Some(0),
        _ => None,
    }
}

/// Chains key-tuple entries that share a hash, in push order. Equal
/// hashes are only candidates: callers verify with [`cell_eq`].
#[derive(Default)]
pub(crate) struct KeyIndex {
    /// First and last entry of each hash's chain, by the hash itself.
    chains: HashMap<u64, (u32, u32), BuildHasherDefault<Prehashed>>,
    /// `next[i]`: the entry pushed with entry `i`'s hash after it, or [`NIL`].
    next: Vec<u32>,
    hasher: KeyHasher,
}

impl KeyIndex {
    /// An empty index hashing under `keys`.
    fn new(keys: RandomState) -> KeyIndex {
        KeyIndex {
            chains: HashMap::default(),
            next: Vec::new(),
            hasher: KeyHasher::new(keys),
        }
    }

    /// The hash of a key tuple (see [`KeyHasher`]).
    pub(crate) fn hash<'c>(&mut self, cells: impl IntoIterator<Item = Cell<'c>>) -> u64 {
        self.hasher.hash(cells)
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
pub(crate) fn cell_eq(a: Cell<'_>, b: Cell<'_>) -> bool {
    match (a, b) {
        (Cell::Int(x), Cell::Int(y)) => x == y,
        (Cell::Str(x), Cell::Str(y)) => str_eq(x, y),
        (Cell::Date(x), Cell::Date(y)) => x == y,
        _ => {
            let (mut x, mut y) = (String::new(), String::new());
            a.write_text(&mut x);
            b.write_text(&mut y);
            x == y
        }
    }
}

/// Key cell `col` of row `row`.
fn key_cell<A: Cells + ?Sized>(src: &A, row: usize, col: usize) -> Cell<'_> {
    src.cell(row, col)
        .unwrap_or_else(|| panic!("join column {col} out of range"))
}

/// The hash of the key cells `cols` of each row of `ids` of `src`, in
/// order. Each key column is gathered first, from its storage where the
/// source stores columns.
fn hash_keys<A: Cells + ?Sized>(
    hasher: &mut KeyHasher,
    src: &A,
    ids: &[u32],
    cols: &[usize],
) -> Vec<u64> {
    let keys: Vec<Vec<Cell<'_>>> = cols
        .iter()
        .map(|&c| {
            let mut cells = Vec::with_capacity(ids.len());
            assert!(
                src.gather(c, ids, &mut cells),
                "join column {c} out of range"
            );
            cells
        })
        .collect();
    (0..ids.len())
        .map(|r| hasher.hash(keys.iter().map(|cells| cells[r])))
        .collect()
}

/// The inner side of [`hash_probe`]: rows `ids` of `src` with the hash of
/// each one's key cells `cols`, under the keys every outer block's index
/// is built with. A host-scanned inner selects the same rows for every
/// block of a join step, so the engine hashes them once per step.
pub(crate) struct Inner<'a, I: ?Sized> {
    src: &'a I,
    ids: &'a [u32],
    cols: &'a [usize],
    keys: RandomState,
    hashes: Vec<u64>,
}

impl<'a, I: Cells + ?Sized> Inner<'a, I> {
    pub(crate) fn new(src: &'a I, ids: &'a [u32], cols: &'a [usize]) -> Inner<'a, I> {
        let mut hasher = KeyHasher::default();
        let hashes = hash_keys(&mut hasher, src, ids, cols);
        Inner {
            src,
            ids,
            cols,
            keys: hasher.keys,
            hashes,
        }
    }
}

/// Probes `inner`'s rows against a hash of rows `outer_ids` of `outer` and
/// emits each match as an (outer id, inner id) pair; nothing is copied.
/// `outer_cols` index the outer rows. Output order: inner rows in their
/// ids' order, each with its matching outer rows in `outer_ids` order.
pub(crate) fn hash_probe<O: Cells + ?Sized, I: Cells + ?Sized>(
    outer: &O,
    outer_ids: &[u32],
    outer_cols: &[usize],
    inner: &Inner<'_, I>,
    out: &mut Vec<(u32, u32)>,
) {
    let mut index = KeyIndex::new(inner.keys.clone());
    for h in hash_keys(&mut index.hasher, outer, outer_ids, outer_cols) {
        index.push(h);
    }
    for (&i, &h) in inner.ids.iter().zip(&inner.hashes) {
        for e in index.candidates(h) {
            let o = outer_ids[e];
            if outer_cols.iter().zip(inner.cols).all(|(&oc, &ic)| {
                cell_eq(
                    key_cell(outer, o as usize, oc),
                    key_cell(inner.src, i as usize, ic),
                )
            }) {
                out.push((o, i));
            }
        }
    }
}

/// `hash_probe` over every row of two row lists, building the merged
/// rows: the outer row with the inner row's cells written from `offset`
/// on.
pub fn hash_probe_block<'a, 'b>(
    outer_block: impl IntoIterator<Item = &'a Row>,
    outer_cols: &[usize],
    inner_local: impl IntoIterator<Item = &'b Row>,
    inner_cols: &[usize],
    offset: usize,
    out: &mut Vec<Row>,
) {
    let outer: Vec<&Row> = outer_block.into_iter().collect();
    let inner: Vec<&Row> = inner_local.into_iter().collect();
    let mut pairs = Vec::new();
    let inner_ids = all(inner.len());
    hash_probe(
        &outer[..],
        &all(outer.len()),
        outer_cols,
        &Inner::new(&inner[..], &inner_ids, inner_cols),
        &mut pairs,
    );
    out.extend(pairs.into_iter().map(|(o, i)| {
        let (o, i) = (outer[o as usize], inner[i as usize]);
        let mut merged = o.clone();
        merged[offset..offset + i.len()].clone_from_slice(i);
        merged
    }));
}

/// Cross-joins when no edge connects the inner table (TPC-H never needs
/// this, but the executor should not silently mis-join): each of
/// `outer_ids` paired with each of `inner_ids`, outer-major.
pub(crate) fn cross(outer_ids: &[u32], inner_ids: &[u32], out: &mut Vec<(u32, u32)>) {
    for &o in outer_ids {
        out.extend(inner_ids.iter().map(|&i| (o, i)));
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

    /// Counts a row whose input has the numeric view `x`: all of
    /// [`AggState::update`] for `Sum`, `Avg` and `Count`.
    fn add(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
    }

    pub(crate) fn update(&mut self, v: Cell<'_>) {
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
            Some(m) => v.compare(m.cell()) == Some(wanted),
            None => true,
        };
        if better {
            self.extreme = Some(v.to_value());
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

/// Rows per batch of [`aggregate_in`]'s batched path.
const BATCH: usize = 1024;

/// Up to this many groups, [`Groups::of`] compares a key with each group
/// rather than hashing it.
const FEW_GROUPS: usize = 8;

/// Groups in first-seen order, each with its key cells and its aggregate
/// states; index entry `i` is group `i`. The cells borrow the source and
/// the key expressions, which outlive the aggregation.
struct Groups<'a> {
    spec: &'a SelectSpec,
    /// Group `g`'s key cells: `keys[g * k..(g + 1) * k]`, `k` group-by
    /// expressions.
    keys: Vec<Cell<'a>>,
    /// Group `g`'s states: `states[g * n..(g + 1) * n]`, `n` aggregates.
    states: Vec<AggState>,
    len: usize,
    index: KeyIndex,
}

impl<'a> Groups<'a> {
    fn new(spec: &'a SelectSpec) -> Groups<'a> {
        Groups {
            spec,
            keys: Vec::new(),
            states: Vec::new(),
            len: 0,
            index: KeyIndex::default(),
        }
    }

    /// Adds a group with fresh states, one per aggregate.
    fn push(&mut self, key: &[Cell<'a>]) -> usize {
        self.keys.extend_from_slice(key);
        let fresh = self
            .spec
            .aggregates
            .iter()
            .map(|(fun, _)| AggState::new(*fun));
        self.states.extend(fresh);
        self.len += 1;
        self.len - 1
    }

    /// Group `g`'s states.
    fn states(&mut self, g: usize) -> &mut [AggState] {
        let n = self.spec.aggregates.len();
        &mut self.states[g * n..(g + 1) * n]
    }

    /// Whether group `g`'s key cells are `key`.
    fn is(&self, g: usize, key: &[Cell<'_>]) -> bool {
        let k = key.len();
        self.keys[g * k..(g + 1) * k]
            .iter()
            .zip(key)
            .all(|(&have, &want)| cell_eq(have, want))
    }

    /// The group whose key cells are `key`, created if new. `last`, the
    /// previous row's group, is tried first: runs of rows in one group are
    /// common. While there are at most [`FEW_GROUPS`] groups, they are
    /// compared one by one, and a key is hashed only when its group is
    /// new.
    fn of(&mut self, key: &[Cell<'a>], last: Option<usize>) -> usize {
        if let Some(g) = last.filter(|&g| self.is(g, key)) {
            return g;
        }
        let few = self.len <= FEW_GROUPS;
        if few {
            if let Some(g) = (0..self.len).find(|&g| self.is(g, key)) {
                return g;
            }
        }
        let h = self.index.hash(key.iter().copied());
        let found = if few {
            None
        } else {
            self.index.candidates(h).find(|&g| self.is(g, key))
        };
        found.unwrap_or_else(|| {
            self.index.push(h);
            self.push(key)
        })
    }
}

/// Group-by + aggregation over rows `ids` of `src`, in id order. Output
/// rows are `group values ++ agg values`.
///
/// With no group-by columns the result is a single row (even over empty
/// input, where sums/counts are zero — a simplification of SQL's NULLs).
///
/// When every aggregate is a `Sum`, `Avg` or `Count`, rows go in batches:
/// every row's group key cells, each aggregate input as one `f64` vector
/// ([`Program::typed_f64s`]), then each state adds its rows' values in row
/// order — the order and the additions of the row-at-a-time path, so the
/// same bits. A batch in which any evaluation fails or any input is a
/// string runs row at a time instead, which reports errors in row order.
///
/// # Errors
///
/// Propagates expression evaluation errors.
pub(crate) fn aggregate_in<A: Cells + ?Sized>(
    spec: &SelectSpec,
    src: &A,
    ids: &[u32],
) -> DbResult<Vec<Row>> {
    let keys: Vec<Program<'_>> = spec.group_by.iter().map(Program::new).collect();
    let inputs: Vec<Program<'_>> = spec
        .aggregates
        .iter()
        .map(|(_, e)| Program::new(e))
        .collect();
    let batched = spec
        .aggregates
        .iter()
        .all(|(fun, _)| matches!(fun, AggFun::Sum | AggFun::Avg | AggFun::Count));
    let mut groups = Groups::new(spec);
    // Per key, its cells for the batch's rows.
    let mut key_cells: Vec<Vec<Cell<'_>>> = vec![Vec::new(); keys.len()];
    let mut gvals: Vec<Cell<'_>> = Vec::with_capacity(keys.len());
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut group_of: Vec<usize> = Vec::new();
    let mut last = None;
    for batch in ids.chunks(BATCH) {
        // The batched path: every key cell and every input value of the
        // batch, or none.
        let whole = batched
            && keys.iter().zip(&mut key_cells).all(|(k, cells)| {
                cells.clear();
                k.cells(src, batch, cells)
            })
            && inputs.iter().zip(&mut values).all(|(input, vals)| {
                vals.resize(batch.len(), 0.0);
                input.typed_f64s(src, batch, vals)
            });
        if whole {
            group_of.clear();
            for r in 0..batch.len() {
                gvals.clear();
                gvals.extend(key_cells.iter().map(|cells| cells[r]));
                let g = groups.of(&gvals, last);
                group_of.push(g);
                last = Some(g);
            }
            let n = inputs.len();
            for (a, vals) in values.iter().enumerate() {
                for (&g, &x) in group_of.iter().zip(vals) {
                    groups.states[g * n + a].add(x);
                }
            }
            continue;
        }
        for &id in batch {
            let row = id as usize;
            gvals.clear();
            for k in &keys {
                gvals.push(k.eval(src, row)?);
            }
            let g = groups.of(&gvals, last);
            last = Some(g);
            for (input, st) in inputs.iter().zip(groups.states(g)) {
                st.update(input.eval(src, row)?);
            }
        }
    }
    if groups.len == 0 && spec.group_by.is_empty() {
        groups.push(&[]);
    }
    let (k, n) = (keys.len(), inputs.len());
    let mut out: Vec<Row> = (0..groups.len)
        .map(|g| {
            let key = groups.keys[g * k..(g + 1) * k].iter().map(|c| c.to_value());
            let states = groups.states[g * n..(g + 1) * n]
                .iter()
                .map(AggState::finish);
            key.chain(states).collect()
        })
        .collect();
    // Deterministic base order before explicit ORDER BY.
    out.sort_by_cached_key(|row| key_of(row));
    Ok(out)
}

/// `aggregate_in` over every row of a row list.
///
/// # Errors
///
/// Propagates expression evaluation errors.
pub fn aggregate<'a>(
    spec: &'a SelectSpec,
    rows: impl IntoIterator<Item = &'a Row>,
) -> DbResult<Vec<Row>> {
    let rows: Vec<&Row> = rows.into_iter().collect();
    aggregate_in(spec, &rows[..], &all(rows.len()))
}

/// Applies ORDER BY and LIMIT to output rows. Each key orders a pair as
/// [`Value::compare`] does where that orders it; otherwise NaN sorts after
/// every number (as in PostgreSQL) and a string after both, so the order is
/// total. Rows that tie on every key keep their input order.
pub(crate) fn order_and_limit(rows: &mut Vec<Row>, order: &[OrderKey], limit: Option<usize>) {
    let rank = |v: &Value| match v {
        Value::Str(_) => 2,
        v => u8::from(v.as_f64().is_some_and(f64::is_nan)),
    };
    rows.sort_by(|a, b| {
        order.iter().fold(std::cmp::Ordering::Equal, |ord, k| {
            let (x, y) = (&a[k.col], &b[k.col]);
            let (x, y) = if k.desc { (y, x) } else { (x, y) };
            ord.then_with(|| x.compare(y).unwrap_or_else(|| rank(x).cmp(&rank(y))))
        })
    });
    if let Some(n) = limit {
        rows.truncate(n);
    }
}

/// Evaluates a projection list over rows `ids` of `src`.
///
/// # Errors
///
/// Propagates expression evaluation errors.
pub(crate) fn project_in<A: Cells + ?Sized>(
    exprs: &[Expr],
    src: &A,
    ids: &[u32],
) -> DbResult<Vec<Row>> {
    let progs: Vec<Program<'_>> = exprs.iter().map(Program::new).collect();
    ids.iter()
        .map(|&id| {
            progs
                .iter()
                .map(|p| p.eval(src, id as usize).map(Cell::to_value))
                .collect::<DbResult<Row>>()
        })
        .collect()
}

/// The ids among `ids` of the rows of `src` that satisfy `pred`, in the
/// same order.
///
/// # Errors
///
/// Propagates expression evaluation errors.
pub(crate) fn select_in<A: Cells + ?Sized>(
    pred: &Expr,
    src: &A,
    ids: &[u32],
) -> DbResult<Vec<u32>> {
    Program::new(pred).select(src, ids)
}

/// Applies a filter predicate to owned or borrowed rows, keeping order.
///
/// # Errors
///
/// Propagates expression evaluation errors.
pub(crate) fn filter<R: Borrow<Row>>(pred: &Expr, rows: Vec<R>) -> DbResult<Vec<R>> {
    let sel = select_in(pred, &rows[..], &all(rows.len()))?;
    let mut keep = sel.into_iter().peekable();
    Ok(rows
        .into_iter()
        .enumerate()
        .filter(|&(i, _)| keep.next_if_eq(&(i as u32)).is_some())
        .map(|(_, r)| r)
        .collect())
}

/// `select_in` over every row of a row list, cloning the qualifying rows
/// out.
///
/// # Errors
///
/// Propagates expression evaluation errors.
pub fn filter_ref(pred: &Expr, rows: &[Row]) -> DbResult<Vec<Row>> {
    let sel = select_in(pred, rows, &all(rows.len()))?;
    Ok(sel.iter().map(|&i| rows[i as usize].clone()).collect())
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
        assert_eq!(
            select_in(&pred, &rows[..], &all(10)).unwrap(),
            vec![7, 8, 9]
        );
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
    fn order_by_is_total_over_nan_and_mixed_types() {
        let s = |t: &str| Value::Str(t.into());
        let mut rows: Vec<Row> = [
            s("b"),
            Value::Float(f64::NAN),
            v(2),
            s("a"),
            Value::Float(1.5),
        ]
        .into_iter()
        .map(|x| vec![x])
        .collect();
        order_and_limit(
            &mut rows,
            &[OrderKey {
                col: 0,
                desc: false,
            }],
            None,
        );
        let text: Vec<String> = rows.iter().map(|r| format!("{:?}", r[0])).collect();
        assert_eq!(
            text,
            [
                "Float(1.5)",
                "Int(2)",
                "Float(NaN)",
                "Str(\"a\")",
                "Str(\"b\")"
            ]
        );
    }

    #[test]
    fn cross_block_is_product() {
        let mut out = Vec::new();
        cross(&[4, 2], &[8, 9], &mut out);
        assert_eq!(out, vec![(4, 8), (4, 9), (2, 8), (2, 9)]);
    }

    #[test]
    fn probe_pairs_name_the_given_ids() {
        let outer = [vec![v(7)], vec![v(8)], vec![v(7)]];
        let inner = [vec![v(7)], vec![v(9)], vec![v(8)]];
        let mut out = Vec::new();
        hash_probe(
            &outer[..],
            &[2, 1, 0],
            &[0],
            &Inner::new(&inner[..], &[2, 0], &[0]),
            &mut out,
        );
        assert_eq!(out, vec![(1, 2), (2, 0), (0, 0)]);
    }
}
