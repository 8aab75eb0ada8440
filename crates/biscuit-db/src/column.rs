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
//! slice of rows (`[Row]`, `[&Row]`) — the joined wide rows, `ArrayDb`'s
//! merged stream and callers that hold rows of their own. The lowered
//! expression programs ([`crate::program`]) and the operators in
//! [`crate::exec`] are written once against it.

use std::borrow::{Borrow, Cow};

use crate::error::{DbError, DbResult};
use crate::value::{fields, Cell, ColumnType, Row, Value};

/// Read access to a row-indexed set of cells.
pub trait Cells {
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

    /// Writes row `row`'s cells over `dst`, which must be exactly as wide.
    fn clone_row_into(&self, row: usize, dst: &mut [Value]) {
        assert_eq!(dst.len(), self.width(row), "destination width");
        for (c, slot) in dst.iter_mut().enumerate() {
            *slot = self.cell(row, c).expect("within the width").to_value();
        }
    }

    /// The numeric view ([`Cell::as_f64`]) of cell `col` of each row of
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

    fn clone_row_into(&self, row: usize, dst: &mut [Value]) {
        dst.clone_from_slice(self[row].borrow());
    }
}

/// One column's cells.
#[derive(Debug, Clone)]
enum Column {
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

    #[inline]
    fn get(&self, row: usize) -> Cell<'_> {
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

/// A table stored column by column (see the module docs).
#[derive(Debug, Clone)]
pub struct ColumnTable {
    rows: usize,
    columns: Vec<Column>,
}

impl ColumnTable {
    /// An empty table with these column types.
    pub fn new(types: &[ColumnType]) -> ColumnTable {
        ColumnTable::with_capacity(types, 0)
    }

    /// An empty table with room for `rows` rows.
    pub fn with_capacity(types: &[ColumnType], rows: usize) -> ColumnTable {
        ColumnTable {
            rows: 0,
            columns: types.iter().map(|&ty| Column::new(ty, rows)).collect(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
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
    pub fn push_row(&mut self, row: &[Value]) -> DbResult<()> {
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
    pub fn push_line(&mut self, line: &str) -> bool {
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
        assert!(t.is_empty());
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
        let mut dst = vec![Value::Int(0); 2];
        refs.clone_row_into(0, &mut dst);
        assert_eq!(dst, rows[0]);
    }
}
