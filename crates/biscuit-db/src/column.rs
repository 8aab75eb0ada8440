//! The host's column cache and the one accessor every operator reads
//! cells through.
//!
//! A [`ColumnTable`] holds a table the way the host executor scans it: one
//! typed vector per column — `i64`, `f64`, `i32` dates, and each string
//! column as one byte buffer plus offsets. The engine builds one per table
//! the first time a Conv scan reads it, and the rows an NDP scan ships are
//! appended into a fresh one as they arrive, so a scan's result has one
//! form whichever datapath produced it.
//!
//! [`Cells`] is the accessor: the column table implements it, and so does a
//! slice of rows (`[Row]`, `[&Row]`) — the row-slice operators' input —
//! and so does [`Joined`], a join's running result, which holds row ids
//! into the scans' column tables rather than rows. The lowered expression
//! programs ([`crate::program`]) and the operators in [`crate::exec`] are
//! written once against it.

use std::borrow::{Borrow, Cow};
use std::sync::Arc;

use crate::error::{DbError, DbResult};
use crate::value::{fields, Cell, ColumnType, Row, Value};

/// Read access to a row-indexed set of cells.
pub(crate) trait Cells {
    /// Cell `col` of row `row`, or `None` past the row's width.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    fn cell(&self, row: usize, col: usize) -> Option<Cell<'_>>;

    /// Number of cells in row `row`.
    fn width(&self, row: usize) -> usize;

    /// Row `row` as a [`Row`]: borrowed where the storage holds rows,
    /// materialised where it holds columns.
    fn row(&self, row: usize) -> Cow<'_, Row> {
        Cow::Owned(
            (0..self.width(row))
                .map(|c| self.cell(row, c).expect("within the width").to_value())
                .collect(),
        )
    }

    /// Column `col` as stored, where the source stores columns and has
    /// one; `None` where it stores rows.
    fn column(&self, _col: usize) -> Option<&Column> {
        None
    }

    /// Cell `col` of each row of `ids`, appended to `out`; `false` — with
    /// `out` partly written — as soon as one is missing.
    fn gather<'s>(&'s self, col: usize, ids: &[u32], out: &mut Vec<Cell<'s>>) -> bool {
        for &id in ids {
            match self.cell(id as usize, col) {
                Some(cell) => out.push(cell),
                None => return false,
            }
        }
        true
    }

    /// The numeric view (`Cell::as_f64`) of cell `col` of each row of
    /// `ids`, written to `out` (as long as `ids`); `false` as soon as one
    /// is missing or is a string.
    fn f64s(&self, col: usize, ids: &[u32], out: &mut [f64]) -> bool {
        for (slot, &id) in out.iter_mut().zip(ids) {
            match self.cell(id as usize, col).and_then(Cell::as_f64) {
                Some(x) => *slot = x,
                None => return false,
            }
        }
        true
    }
}

impl<R: Borrow<Row>> Cells for [R] {
    fn cell(&self, row: usize, col: usize) -> Option<Cell<'_>> {
        self[row].borrow().get(col).map(Value::cell)
    }

    fn width(&self, row: usize) -> usize {
        self[row].borrow().len()
    }

    fn row(&self, row: usize) -> Cow<'_, Row> {
        Cow::Borrowed(self[row].borrow())
    }
}

/// One column's cells.
#[derive(Debug, Clone)]
pub(crate) enum Column {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Date(Vec<i32>),
    /// Row `r` is `text[ends[r - 1]..ends[r]]` (from 0 for row 0).
    Str {
        text: String,
        ends: Vec<usize>,
    },
}

impl Column {
    fn new(ty: ColumnType, rows: usize) -> Column {
        match ty {
            ColumnType::Int => Column::Int(Vec::with_capacity(rows)),
            ColumnType::Float => Column::Float(Vec::with_capacity(rows)),
            ColumnType::Date => Column::Date(Vec::with_capacity(rows)),
            ColumnType::Str => Column::Str {
                text: String::new(),
                ends: Vec::with_capacity(rows),
            },
        }
    }

    fn ty(&self) -> ColumnType {
        match self {
            Column::Int(_) => ColumnType::Int,
            Column::Float(_) => ColumnType::Float,
            Column::Date(_) => ColumnType::Date,
            Column::Str { .. } => ColumnType::Str,
        }
    }

    /// Cell `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[inline]
    pub(crate) fn get(&self, row: usize) -> Cell<'_> {
        match self {
            Column::Int(v) => Cell::Int(v[row]),
            Column::Float(v) => Cell::Float(v[row]),
            Column::Date(v) => Cell::Date(v[row]),
            Column::Str { text, ends } => {
                let start = if row == 0 { 0 } else { ends[row - 1] };
                Cell::Str(&text[start..ends[row]])
            }
        }
    }

    /// Appends to `out` those of `ids` whose cell `keep` holds for, in
    /// order; `false` — with `out` partly written — as soon as `keep`
    /// returns `None`. The variant is matched once, not per row.
    #[inline]
    pub(crate) fn retain(
        &self,
        ids: &[u32],
        out: &mut Vec<u32>,
        keep: impl Fn(Cell<'_>) -> Option<bool>,
    ) -> bool {
        match self {
            Column::Int(v) => retain_where(ids, out, |r| keep(Cell::Int(v[r]))),
            Column::Float(v) => retain_where(ids, out, |r| keep(Cell::Float(v[r]))),
            Column::Date(v) => retain_where(ids, out, |r| keep(Cell::Date(v[r]))),
            Column::Str { .. } => retain_where(ids, out, |r| keep(self.get(r))),
        }
    }

    /// Appends the cells of rows `ids` to `out`, the variant matched once.
    pub(crate) fn gather<'a>(&'a self, ids: &[u32], out: &mut Vec<Cell<'a>>) {
        let rows = ids.iter().map(|&id| id as usize);
        match self {
            Column::Int(v) => out.extend(rows.map(|r| Cell::Int(v[r]))),
            Column::Float(v) => out.extend(rows.map(|r| Cell::Float(v[r]))),
            Column::Date(v) => out.extend(rows.map(|r| Cell::Date(v[r]))),
            Column::Str { .. } => out.extend(rows.map(|r| self.get(r))),
        }
    }

    /// Appends `cell`, or returns `false` if its variant is not the
    /// column's.
    fn push(&mut self, cell: Cell<'_>) -> bool {
        match (self, cell) {
            (Column::Int(v), Cell::Int(x)) => v.push(x),
            (Column::Float(v), Cell::Float(x)) => v.push(x),
            (Column::Date(v), Cell::Date(x)) => v.push(x),
            (Column::Str { text, ends }, Cell::Str(s)) => {
                text.push_str(s);
                ends.push(text.len());
            }
            _ => return false,
        }
        true
    }

    fn truncate(&mut self, rows: usize) {
        match self {
            Column::Int(v) => v.truncate(rows),
            Column::Float(v) => v.truncate(rows),
            Column::Date(v) => v.truncate(rows),
            Column::Str { text, ends } => {
                ends.truncate(rows);
                text.truncate(ends.last().copied().unwrap_or(0));
            }
        }
    }
}

/// Appends to `out` those of `ids` whose row `keep` holds for, in order;
/// `false` — with `out` partly written — as soon as `keep` returns `None`.
/// Every id is written and the length advanced by the verdict, so a
/// selective predicate costs no mispredicted branch.
#[inline]
pub(crate) fn retain_where(
    ids: &[u32],
    out: &mut Vec<u32>,
    keep: impl Fn(usize) -> Option<bool>,
) -> bool {
    let at = out.len();
    out.resize(at + ids.len(), 0);
    let mut len = at;
    for &id in ids {
        let Some(kept) = keep(id as usize) else {
            return false;
        };
        out[len] = id;
        len += usize::from(kept);
    }
    out.truncate(len);
    true
}

/// A table stored column by column (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct ColumnTable {
    rows: usize,
    columns: Vec<Column>,
}

impl ColumnTable {
    /// An empty table with these column types.
    pub(crate) fn new(types: &[ColumnType]) -> ColumnTable {
        ColumnTable::with_capacity(types, 0)
    }

    /// An empty table with room for `rows` rows.
    pub(crate) fn with_capacity(types: &[ColumnType], rows: usize) -> ColumnTable {
        ColumnTable {
            rows: 0,
            columns: types.iter().map(|&ty| Column::new(ty, rows)).collect(),
        }
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.rows
    }

    /// Appends the row whose cells `cell_of` makes of `items`, one per
    /// column and given the column's type — all or nothing: `false` (and
    /// the table unchanged) if an item is missing, one is left over, or
    /// `cell_of` returns `None` or a cell of another type.
    fn push_with<'c, T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut cell_of: impl FnMut(ColumnType, T) -> Option<Cell<'c>>,
    ) -> bool {
        let mut items = items.into_iter();
        let mut pushed = 0;
        let ok = loop {
            let Some(item) = items.next() else {
                break pushed == self.columns.len();
            };
            let Some(column) = self.columns.get_mut(pushed) else {
                break false;
            };
            match cell_of(column.ty(), item) {
                Some(cell) if column.push(cell) => pushed += 1,
                _ => break false,
            }
        };
        if ok {
            self.rows += 1;
        } else {
            for column in &mut self.columns[..pushed] {
                column.truncate(self.rows);
            }
        }
        ok
    }

    /// Appends a row.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::TypeError`] — and appends nothing — if the row's
    /// width or a cell's type differs from the table's.
    pub(crate) fn push_row(&mut self, row: &[Value]) -> DbResult<()> {
        if self.push_with(row, |_, v| Some(v.cell())) {
            Ok(())
        } else {
            Err(DbError::TypeError(format!(
                "row {row:?} does not fit the table's columns"
            )))
        }
    }

    /// Parses one framed text line `|f0|...|fn|` into a row and appends it,
    /// or returns `false` — appending nothing — where
    /// [`row_from_text`](crate::value::row_from_text) would reject the line.
    pub(crate) fn push_line(&mut self, line: &str) -> bool {
        match fields(line) {
            Some(fields) => self.push_with(fields, Cell::parse),
            None => false,
        }
    }
}

impl Cells for ColumnTable {
    #[inline]
    fn cell(&self, row: usize, col: usize) -> Option<Cell<'_>> {
        assert!(row < self.rows, "row {row} of {}", self.rows);
        self.columns.get(col).map(|c| c.get(row))
    }

    fn width(&self, row: usize) -> usize {
        assert!(row < self.rows, "row {row} of {}", self.rows);
        self.columns.len()
    }

    fn column(&self, col: usize) -> Option<&Column> {
        self.columns.get(col)
    }

    fn gather<'s>(&'s self, col: usize, ids: &[u32], out: &mut Vec<Cell<'s>>) -> bool {
        match self.columns.get(col) {
            Some(column) => {
                column.gather(ids, out);
                true
            }
            None => false,
        }
    }

    fn f64s(&self, col: usize, ids: &[u32], out: &mut [f64]) -> bool {
        fn gather<T: Copy>(v: &[T], ids: &[u32], out: &mut [f64], widen: impl Fn(T) -> f64) {
            for (slot, &id) in out.iter_mut().zip(ids) {
                *slot = widen(v[id as usize]);
            }
        }
        match self.columns.get(col) {
            Some(Column::Int(v)) => gather(v, ids, out, |x| x as f64),
            Some(Column::Float(v)) => gather(v, ids, out, |x| x),
            Some(Column::Date(v)) => gather(v, ids, out, f64::from),
            Some(Column::Str { .. }) | None => return false,
        }
        true
    }
}

/// One scan's part of a joined row: row `row` of table `table` of the
/// tables that scan's rows come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RowRef {
    /// Index into the scan's tables.
    pub table: u32,
    /// Row id in that table.
    pub row: u32,
}

/// A join's running result as id tuples: for each scan joined so far, the
/// column tables its rows come from, and for each joined row a [`RowRef`]
/// per scan. Read through [`Cells`], a joined row is the concatenation of
/// every scan's row in spec order; cells are looked up in place, so rows
/// exist only once something asks for one.
///
/// A scan can have several tables: an offloaded inner runs its SSDlet once
/// per outer block and each run ships a fresh table. Until every scan has
/// joined, only the joined scans' columns can be read; reading another
/// panics.
#[derive(Debug, Clone)]
pub(crate) struct Joined {
    /// Global column `c` is column `cols[c].1` of scan `cols[c].0`.
    cols: Vec<(usize, usize)>,
    /// Per scan (spec order): its tables, none before it joins.
    tables: Vec<Vec<Arc<ColumnTable>>>,
    /// Per scan: each joined row's part in it, none before it joins.
    refs: Vec<Vec<RowRef>>,
    len: usize,
}

impl Joined {
    /// Rows `ids` of `table` as scan `scan` — the first in join order — of a
    /// join whose scans are `widths` columns wide, in spec order.
    pub(crate) fn new(
        widths: &[usize],
        scan: usize,
        table: Arc<ColumnTable>,
        ids: &[u32],
    ) -> Joined {
        let cols = widths
            .iter()
            .enumerate()
            .flat_map(|(s, &w)| (0..w).map(move |c| (s, c)))
            .collect();
        let mut tables = vec![Vec::new(); widths.len()];
        let mut refs = vec![Vec::new(); widths.len()];
        tables[scan].push(table);
        refs[scan] = ids.iter().map(|&row| RowRef { table: 0, row }).collect();
        Joined {
            cols,
            tables,
            refs,
            len: ids.len(),
        }
    }

    /// Number of joined rows.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True when no row has joined.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The result of joining scan `scan`, whose rows come from `tables`:
    /// row `k` is row `matches[k].0` of `self` with `matches[k].1` as its
    /// part in `scan`.
    ///
    /// # Panics
    ///
    /// Panics if a match names a row of `self` out of range.
    pub(crate) fn join(
        mut self,
        scan: usize,
        tables: Vec<Arc<ColumnTable>>,
        matches: &[(u32, RowRef)],
    ) -> Joined {
        for part in self.refs.iter_mut().filter(|part| !part.is_empty()) {
            *part = matches.iter().map(|&(o, _)| part[o as usize]).collect();
        }
        self.refs[scan] = matches.iter().map(|&(_, r)| r).collect();
        self.tables[scan] = tables;
        self.len = matches.len();
        self
    }
}

impl Cells for Joined {
    #[inline]
    fn cell(&self, row: usize, col: usize) -> Option<Cell<'_>> {
        assert!(row < self.len, "row {row} of {}", self.len);
        let &(scan, c) = self.cols.get(col)?;
        let r = self.refs[scan][row];
        self.tables[scan][r.table as usize].cell(r.row as usize, c)
    }

    fn width(&self, row: usize) -> usize {
        assert!(row < self.len, "row {row} of {}", self.len);
        self.cols.len()
    }

    /// Gathers each run of rows that come from one table through that
    /// table's typed gather.
    fn f64s(&self, col: usize, ids: &[u32], out: &mut [f64]) -> bool {
        self.runs(col, ids, |table, c, rows, at| {
            table.f64s(c, rows, &mut out[at..at + rows.len()])
        })
    }

    /// As [`Joined::f64s`].
    fn gather<'s>(&'s self, col: usize, ids: &[u32], out: &mut Vec<Cell<'s>>) -> bool {
        self.runs(col, ids, |table, c, rows, _| table.gather(c, rows, out))
    }
}

impl Joined {
    /// Splits rows `ids` into runs that come from one table for global
    /// column `col`, and calls `each(table, column, rows, at)` on each in
    /// order: `rows` are the run's row ids in `table`, `at` where the run
    /// starts in `ids`. `false` if `col` is out of range or `each` returns
    /// `false`.
    fn runs<'s>(
        &'s self,
        col: usize,
        ids: &[u32],
        mut each: impl FnMut(&'s ColumnTable, usize, &[u32], usize) -> bool,
    ) -> bool {
        let Some(&(scan, c)) = self.cols.get(col) else {
            return false;
        };
        let (refs, tables) = (&self.refs[scan], &self.tables[scan]);
        let mut rows = Vec::with_capacity(ids.len());
        let mut start = 0;
        while start < ids.len() {
            let table = refs[ids[start] as usize].table;
            rows.clear();
            rows.extend(
                ids[start..]
                    .iter()
                    .map(|&id| refs[id as usize])
                    .take_while(|r| r.table == table)
                    .map(|r| r.row),
            );
            if !each(&tables[table as usize], c, &rows, start) {
                return false;
            }
            start += rows.len();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::row_from_text;

    const TYPES: [ColumnType; 4] = [
        ColumnType::Int,
        ColumnType::Str,
        ColumnType::Float,
        ColumnType::Date,
    ];

    #[test]
    fn lines_read_back_as_row_from_text_reads_them() {
        let mut t = ColumnTable::new(&TYPES);
        let lines = [
            "|1|a|1.50|1995-09-14|",
            "|2||0.00|1970-01-01|",
            "|-3|日本語 ü|2.25|1992-02-29|",
        ];
        for line in lines {
            assert!(t.push_line(line), "{line}");
        }
        assert_eq!(t.len(), 3);
        for (r, line) in lines.iter().enumerate() {
            let want = row_from_text(&TYPES, line).unwrap();
            assert_eq!(t.row(r).into_owned(), want);
            for (c, v) in want.iter().enumerate() {
                assert_eq!(t.cell(r, c), Some(v.cell()));
            }
            assert_eq!(t.cell(r, TYPES.len()), None);
        }
    }

    #[test]
    fn a_rejected_line_appends_nothing() {
        let mut t = ColumnTable::new(&TYPES);
        assert!(t.push_line("|1|keep|1.00|1995-01-01|"));
        for bad in [
            "|2|x|1.00|",                  // too few
            "|2|x|1.00|1995-01-01|extra|", // too many
            "|2|x|oops|1995-01-01|",       // bad float after a good string
            "|2|x|1.00|1995-13-01|",       // bad date in the last column
            "2|x|1.00|1995-01-01|",        // no frame
        ] {
            assert_eq!(row_from_text(&TYPES, bad), None, "{bad}");
            assert!(!t.push_line(bad), "{bad}");
            assert_eq!(t.len(), 1);
        }
        assert!(t.push_line("|3|next|2.00|1995-01-02|"));
        assert_eq!(t.cell(1, 1), Some(Cell::Str("next")));
        assert_eq!(t.cell(0, 1), Some(Cell::Str("keep")));
    }

    #[test]
    fn push_row_checks_width_and_types() {
        let mut t = ColumnTable::new(&[ColumnType::Int, ColumnType::Str]);
        t.push_row(&[Value::Int(1), Value::Str("a".into())])
            .unwrap();
        for bad in [
            vec![Value::Int(1)],
            vec![Value::Int(1), Value::Int(2)],
            vec![Value::Int(1), Value::Str("a".into()), Value::Int(3)],
        ] {
            assert!(matches!(t.push_row(&bad), Err(DbError::TypeError(_))));
        }
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.row(0).into_owned(),
            vec![Value::Int(1), Value::Str("a".into())]
        );
    }

    #[test]
    fn an_empty_table_has_no_rows() {
        let t = ColumnTable::new(&TYPES);
        assert_eq!(t.len(), 0);
        let none = ColumnTable::new(&[]);
        assert_eq!(none.len(), 0);
    }

    #[test]
    fn row_slices_are_cells_too() {
        let rows: Vec<Row> = vec![vec![Value::Int(1), Value::Str("x".into())]];
        let refs: Vec<&Row> = rows.iter().collect();
        assert_eq!(rows.cell(0, 1), Some(Cell::Str("x")));
        assert_eq!(refs.cell(0, 0), Some(Cell::Int(1)));
        assert_eq!(refs.cell(0, 2), None);
    }

    fn table(types: &[ColumnType], rows: &[Row]) -> Arc<ColumnTable> {
        let mut t = ColumnTable::new(types);
        for row in rows {
            t.push_row(row).unwrap();
        }
        Arc::new(t)
    }

    /// A join over three scans, the middle one first, its last scan's rows
    /// from two tables: cells, rows and gathers read through the ids.
    #[test]
    fn joined_rows_read_through_their_ids() {
        let int = |i: i64| Value::Int(i);
        let a = table(&[ColumnType::Int], &[vec![int(10)], vec![int(11)]]);
        let b = table(
            &[ColumnType::Float, ColumnType::Str],
            &[
                vec![Value::Float(0.5), Value::Str("x".into())],
                vec![Value::Float(1.5), Value::Str("y".into())],
                vec![Value::Float(2.5), Value::Str("z".into())],
            ],
        );
        let c0 = table(&[ColumnType::Date], &[vec![Value::Date(7)]]);
        let c1 = table(
            &[ColumnType::Date],
            &[vec![Value::Date(8)], vec![Value::Date(9)]],
        );
        let first = Joined::new(&[1, 2, 1], 1, b, &[2, 0]);
        assert_eq!(first.len(), 2);
        let ab = first.join(
            0,
            vec![a],
            &[
                (1, RowRef { table: 0, row: 1 }),
                (0, RowRef { table: 0, row: 0 }),
            ],
        );
        let abc = ab.join(
            2,
            vec![c0, c1],
            &[
                (0, RowRef { table: 1, row: 1 }),
                (1, RowRef { table: 0, row: 0 }),
                (0, RowRef { table: 1, row: 0 }),
            ],
        );
        let rows: Vec<Row> = (0..abc.len()).map(|r| abc.row(r).into_owned()).collect();
        let st = |s: &str| Value::Str(s.into());
        assert_eq!(
            rows,
            vec![
                vec![int(11), Value::Float(0.5), st("x"), Value::Date(9)],
                vec![int(10), Value::Float(2.5), st("z"), Value::Date(7)],
                vec![int(11), Value::Float(0.5), st("x"), Value::Date(8)],
            ]
        );
        assert_eq!(abc.cell(0, 4), None);
        let mut out = [0.0; 3];
        assert!(abc.f64s(3, &[2, 1, 0], &mut out));
        assert_eq!(out, [8.0, 7.0, 9.0]);
        assert!(abc.f64s(1, &[1, 0], &mut out[..2]));
        assert_eq!(out[..2], [2.5, 0.5]);
        assert!(!abc.f64s(2, &[0], &mut out[..1]));
        assert!(!abc.f64s(4, &[0], &mut out[..1]));
    }
}
