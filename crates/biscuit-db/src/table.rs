//! Table storage: packing rows into flash pages and parsing them back.
//!
//! Rows never span pages (XtraDB-style page-granular layout), so a page can
//! be parsed, filtered, and pattern-matched in isolation — the property the
//! device-side scan SSDlet depends on. Page tails are padded with `~`,
//! a byte that cannot occur inside the `|...|` row framing.
//!
//! A table stores only rows that read back as written. Floats are stored
//! with two decimals, so a finite float is accepted only if its
//! two-decimal text parses back to the same value: `12.34` is, `0.125`
//! (stored as `0.12`) and `1.0 / 3.0` are not. NaN and the infinities are
//! stored as `NaN`, `inf` and `-inf`. A date is accepted only if its
//! `YYYY-MM-DD` text parses back to the same day.

use biscuit_fs::Fs;

use crate::column::ColumnTable;
use crate::error::{DbError, DbResult};
use crate::schema::{Schema, TableMeta};
use crate::value::{row_from_text, write_row, Row, Value};

pub use crate::value::row_to_text;

/// Byte used to fill page tails.
pub(crate) const PAD: u8 = b'~';

/// Packs rows into consecutive page images of `page_size` bytes.
///
/// # Errors
///
/// Returns [`DbError::RowTooLarge`] if a serialized row exceeds one page.
pub fn pack_rows<'a, I>(rows: I, page_size: usize) -> DbResult<(Vec<u8>, u64)>
where
    I: IntoIterator<Item = &'a Row>,
{
    pack(rows, page_size, |row, line| {
        write_row(row, line);
        Ok(())
    })
}

/// Packs the lines `write` produces, one per row, into page images: one
/// pass, each line written into a reused buffer and copied onto the page
/// it fits. An error from `write` wins over [`DbError::RowTooLarge`], so
/// after a row too large for a page the rest are still written (and
/// checked), not packed.
fn pack<'a>(
    rows: impl IntoIterator<Item = &'a Row>,
    page_size: usize,
    mut write: impl FnMut(&Row, &mut String) -> DbResult<()>,
) -> DbResult<(Vec<u8>, u64)> {
    let mut out = Vec::new();
    let mut page_start = 0;
    let mut count = 0u64;
    let mut too_large = None;
    let mut line = String::new();
    for row in rows {
        line.clear();
        write(row, &mut line)?;
        if too_large.is_some() {
            continue;
        }
        if line.len() > page_size {
            too_large = Some(DbError::RowTooLarge {
                bytes: line.len(),
                page_size,
            });
            continue;
        }
        if out.len() - page_start + line.len() > page_size {
            out.resize(page_start + page_size, PAD);
            page_start = out.len();
        }
        out.extend_from_slice(line.as_bytes());
        count += 1;
    }
    if let Some(err) = too_large {
        return Err(err);
    }
    if out.len() > page_start {
        out.resize(page_start + page_size, PAD);
    }
    Ok((out, count))
}

/// The row lines of one page image, `~` padding trimmed and empty lines
/// skipped; a line that is not UTF-8 is a [`DbError::CorruptRow`].
fn page_lines<'p>(table: &'p str, page: &'p [u8]) -> impl Iterator<Item = DbResult<&'p str>> {
    page.split(|&b| b == b'\n')
        .filter_map(move |line| match std::str::from_utf8(line) {
            Ok(line) => {
                let trimmed = line.trim_end_matches(PAD as char);
                (!trimmed.is_empty()).then_some(Ok(trimmed))
            }
            Err(_) => Some(Err(corrupt(table, &String::from_utf8_lossy(line)))),
        })
}

fn corrupt(table: &str, line: &str) -> DbError {
    DbError::CorruptRow {
        table: table.to_owned(),
        line: line.to_owned(),
    }
}

/// Parses every row out of one page image.
///
/// # Errors
///
/// Returns [`DbError::CorruptRow`] for non-padding content that fails to
/// parse.
pub fn parse_page(schema: &Schema, table: &str, page: &[u8]) -> DbResult<Vec<Row>> {
    let types = schema.types();
    page_lines(table, page)
        .map(|line| {
            let line = line?;
            row_from_text(&types, line).ok_or_else(|| corrupt(table, line))
        })
        .collect()
}

/// [`parse_page`], appending the rows to a column table (whose columns
/// are the table's schema) instead of building them.
///
/// # Errors
///
/// Returns [`DbError::CorruptRow`] for the first line [`parse_page`]
/// rejects; the rows before it stay appended.
pub(crate) fn parse_page_into(table: &str, page: &[u8], into: &mut ColumnTable) -> DbResult<()> {
    for line in page_lines(table, page) {
        let line = line?;
        if !into.push_line(line) {
            return Err(corrupt(table, line));
        }
    }
    Ok(())
}

/// Appends `row`'s text line to `line`, checking as each cell is written
/// that the row reads back as written: one cell per column, each of its
/// column's type, no string holding the `|` or newline that frame the
/// line, and every finite float and every date parsing back from its text
/// to the same value (the module docs' rule).
///
/// # Errors
///
/// Returns [`DbError::TypeError`] naming the first offending cell.
fn write_checked(schema: &Schema, row: &[Value], line: &mut String) -> DbResult<()> {
    if row.len() != schema.len() {
        return Err(DbError::TypeError(format!(
            "row width {} != expected {}",
            row.len(),
            schema.len()
        )));
    }
    line.push('|');
    for (v, col) in row.iter().zip(schema.columns()) {
        if v.column_type() != col.ty {
            return Err(DbError::TypeError(format!(
                "column {}: {v:?} is not a {:?}",
                col.name, col.ty
            )));
        }
        let at = line.len();
        let reads_back = v.cell().write_reads_back(line);
        let text = &line[at..];
        if matches!(v, Value::Str(_)) && text.bytes().any(|b| b == b'|' || b == b'\n') {
            return Err(DbError::TypeError(format!(
                "column {}: {text:?} holds `|` or a newline",
                col.name
            )));
        }
        if !reads_back {
            return Err(DbError::TypeError(format!(
                "column {}: {v:?} would read back from its text {text:?} as another value",
                col.name
            )));
        }
        line.push('|');
    }
    line.push('\n');
    Ok(())
}

/// [`pack_rows`] over rows that [`write_checked`] accepts, in one pass.
fn pack_checked(schema: &Schema, rows: &[Row], page_size: usize) -> DbResult<(Vec<u8>, u64)> {
    pack(rows, page_size, |row, line| {
        write_checked(schema, row, line)
    })
}

/// Creates a table file on the volume and bulk-loads rows (untimed; dataset
/// loading happens before experiments start, as in the paper's methodology).
/// The rows are checked and packed in one pass; the file is created only
/// once every row has been packed.
///
/// # Errors
///
/// Returns [`DbError::TypeError`] for a row whose width, cell types,
/// strings, floats or dates would not read back as written, then
/// [`DbError::RowTooLarge`]; either leaves no file behind. Returns
/// filesystem errors.
pub(crate) fn create_table(
    fs: &Fs,
    name: &str,
    schema: Schema,
    rows: &[Row],
) -> DbResult<TableMeta> {
    let page_size = fs.device().config().page_size;
    let (bytes, count) = pack_checked(&schema, rows, page_size)?;
    let file_path = format!("tbl_{name}");
    fs.create(&file_path)?;
    fs.append_untimed(&file_path, &bytes)?;
    Ok(TableMeta {
        name: name.to_owned(),
        schema,
        file_path,
        rows: count,
        pages: (bytes.len() / page_size) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{ColumnType, Value};
    use biscuit_fs::Mode;
    use std::sync::Arc;

    fn schema() -> Schema {
        Schema::new(&[("id", ColumnType::Int), ("name", ColumnType::Str)])
    }

    fn rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| vec![Value::Int(i as i64), Value::Str(format!("name{i}"))])
            .collect()
    }

    #[test]
    fn pack_and_parse_round_trip() {
        let rs = rows(100);
        let (bytes, count) = pack_rows(rs.iter(), 256).unwrap();
        assert_eq!(count, 100);
        assert_eq!(bytes.len() % 256, 0);
        let mut parsed = Vec::new();
        for page in bytes.chunks(256) {
            parsed.extend(parse_page(&schema(), "t", page).unwrap());
        }
        assert_eq!(parsed, rs);
    }

    #[test]
    fn rows_do_not_span_pages() {
        let rs = rows(50);
        let (bytes, _) = pack_rows(rs.iter(), 128).unwrap();
        for page in bytes.chunks(128) {
            // Every page parses independently.
            parse_page(&schema(), "t", page).unwrap();
        }
    }

    #[test]
    fn oversized_row_rejected() {
        let big = [vec![Value::Str("x".repeat(300))]];
        assert!(matches!(
            pack_rows(big.iter(), 128),
            Err(DbError::RowTooLarge { .. })
        ));
    }

    #[test]
    fn corrupt_page_detected() {
        let page = b"|1|ok|\n|borked\n".to_vec();
        assert!(matches!(
            parse_page(&schema(), "t", &page),
            Err(DbError::CorruptRow { .. })
        ));
    }

    #[test]
    fn create_table_registers_geometry() {
        let dev = Arc::new(biscuit_ssd::SsdDevice::new(biscuit_ssd::SsdConfig {
            logical_capacity: 64 << 20,
            ..biscuit_ssd::SsdConfig::paper_default()
        }));
        let fs = Fs::format(dev);
        let meta = create_table(&fs, "demo", schema(), &rows(1000)).unwrap();
        assert_eq!(meta.rows, 1000);
        assert!(meta.pages > 0);
        assert!(fs.open("tbl_demo", Mode::ReadOnly).is_ok());
    }

    #[test]
    fn rows_that_would_not_read_back_are_rejected_before_the_file_exists() {
        let dev = Arc::new(biscuit_ssd::SsdDevice::new(biscuit_ssd::SsdConfig {
            logical_capacity: 64 << 20,
            ..biscuit_ssd::SsdConfig::paper_default()
        }));
        let page_size = dev.config().page_size;
        let fs = Fs::format(dev);
        let four = Schema::new(&[
            ("id", ColumnType::Int),
            ("a", ColumnType::Str),
            ("b", ColumnType::Str),
            ("price", ColumnType::Float),
        ]);
        let text = |s: &str| Value::Str(s.to_owned());
        let row = |a: Value, b: Value, price: f64| vec![Value::Int(1), a, b, Value::Float(price)];
        let type_errors: [Row; 8] = [
            // Three cells whose text `|1|a|b|2.50|` parses as the four-cell
            // row [1, "a", "b", 2.5], which was never inserted.
            vec![Value::Int(1), text("a|b"), Value::Float(2.5)],
            row(text("a|b"), text("c"), 2.5),
            row(text("a\nb"), text("c"), 2.5),
            row(Value::Int(2), text("c"), 2.5),
            [row(text("a"), text("b"), 2.5), vec![text("c")]].concat(),
            // Stored as `0.12` and `0.33`: they would read back as other
            // values.
            row(text("a"), text("b"), 0.125),
            row(text("a"), text("b"), 1.0 / 3.0),
            // Too large for a page *and* mistyped: the type error wins.
            row(text(&"x".repeat(page_size)), Value::Int(2), 2.5),
        ];
        for row in type_errors {
            let err =
                create_table(&fs, "bad", four.clone(), std::slice::from_ref(&row)).unwrap_err();
            assert!(matches!(err, DbError::TypeError(_)), "{row:?}: {err:?}");
            assert!(
                fs.open("tbl_bad", Mode::ReadOnly).is_err(),
                "{row:?} left a table file behind"
            );
        }
        let too_large = row(text(&"x".repeat(page_size)), text("b"), 2.5);
        let err = create_table(&fs, "bad", four.clone(), &[too_large]).unwrap_err();
        assert!(matches!(err, DbError::RowTooLarge { .. }), "{err:?}");
        assert!(
            fs.open("tbl_bad", Mode::ReadOnly).is_err(),
            "an oversized row left a table file behind"
        );
        let good = [
            row(text("a"), text("b"), 2.5),
            row(text("a"), text("b"), -0.0),
            row(text("a"), text("b"), f64::NAN),
            row(text("a"), text("b"), f64::INFINITY),
        ];
        let meta = create_table(&fs, "bad", four, &good).unwrap();
        assert_eq!(meta.rows, 4);
        assert!(fs.open("tbl_bad", Mode::ReadOnly).is_ok());
    }

    #[test]
    fn dates_that_would_not_read_back_are_rejected() {
        let schema = Schema::new(&[("d", ColumnType::Date)]);
        // Year -1 is stored as `-001-12-31` and year 1 000 001 past
        // `parse_date`'s range: neither parses back.
        let year_0 = crate::value::parse_date("0000-01-01").unwrap();
        let past_range = crate::value::parse_date("1000000-12-31").unwrap() + 1;
        for days in [year_0 - 1, past_range, i32::MIN, i32::MAX] {
            let rows = [vec![Value::Date(days)]];
            let err = pack_checked(&schema, &rows, 256).unwrap_err();
            assert!(matches!(err, DbError::TypeError(_)), "{days}: {err:?}");
        }
        let rows = [
            vec![Value::date("0000-01-01")],
            vec![Value::date("9999-12-31")],
        ];
        assert_eq!(pack_checked(&schema, &rows, 256).unwrap().1, 2);
    }

    /// The two-pass load the fused one replaced: every row checked, then
    /// every row packed. Floats are checked against `format!`, not the
    /// writer; a date's text is its `Display` form, which the value tests
    /// hold to `format!`.
    fn check_then_pack(
        schema: &Schema,
        rows: &[Row],
        page_size: usize,
    ) -> DbResult<(Vec<u8>, u64)> {
        let type_error = |what: String| Err(DbError::TypeError(what));
        for row in rows {
            if row.len() != schema.len() {
                return type_error(format!("row width {}", row.len()));
            }
        }
        for row in rows {
            for (v, col) in row.iter().zip(schema.columns()) {
                let reads_back = match v {
                    _ if v.column_type() != col.ty => false,
                    Value::Str(s) => !s.contains(['|', '\n']),
                    Value::Float(f) => !f.is_finite() || format!("{f:.2}").parse() == Ok(*f),
                    Value::Date(_) => {
                        let text = format!("{v}");
                        crate::value::parse_date(&text) == v.as_i64().map(|d| d as i32)
                    }
                    Value::Int(_) => true,
                };
                if !reads_back {
                    return type_error(format!("{v:?}"));
                }
            }
        }
        pack_rows(rows, page_size)
    }

    /// Any cell: ties, NaNs and out-of-range dates that do not read back,
    /// strings that break the framing or fill a page, and every type.
    fn any_cell() -> impl proptest::strategy::Strategy<Value = Value> {
        use proptest::prelude::*;
        prop_oneof![
            any::<i64>().prop_map(Value::Int),
            (-8000i32..8000).prop_map(|k| Value::Float(f64::from(k) / 8.0)),
            any::<u64>().prop_map(|bits| Value::Float(f64::from_bits(bits))),
            "[ab|\n]{1,6}".prop_map(Value::Str),
            "[a-z ]{100,300}".prop_map(Value::Str),
            any::<i32>().prop_map(Value::Date),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn fused_load_matches_check_then_pack(
            ints in proptest::collection::vec(proptest::prelude::any::<i64>(), 0..40),
            cents in proptest::collection::vec(-1_000_000_000i64..1_000_000_000, 40),
            strs in proptest::collection::vec("[a-z ]{0,12}", 40),
            days in proptest::collection::vec(-719_528i32..364_000_000, 40),
            faults in proptest::collection::vec(
                (proptest::prelude::any::<usize>(), 0usize..5, any_cell()),
                0..4,
            ),
            page_size in 96usize..400,
        ) {
            // Rows that read back, then up to three cells replaced by any
            // cell; column 4 is a fifth cell or, if the row is short, a
            // dropped one.
            let schema = Schema::new(&[
                ("i", ColumnType::Int),
                ("f", ColumnType::Float),
                ("s", ColumnType::Str),
                ("d", ColumnType::Date),
            ]);
            let mut rows: Vec<Row> = ints
                .iter()
                .enumerate()
                .map(|(r, &i)| {
                    let f = match cents[r] % 64 {
                        0 => f64::NAN,
                        1 => f64::NEG_INFINITY,
                        _ => cents[r] as f64 / 100.0,
                    };
                    vec![
                        Value::Int(i),
                        Value::Float(f),
                        Value::Str(strs[r].clone()),
                        Value::Date(days[r]),
                    ]
                })
                .collect();
            if !rows.is_empty() {
                let n = rows.len();
                for (at, col, v) in faults {
                    let row = &mut rows[at % n];
                    match row.get_mut(col) {
                        Some(cell) => *cell = v,
                        None if col == 4 => row.push(v),
                        None => {
                            row.pop();
                        }
                    }
                }
            }
            let want = check_then_pack(&schema, &rows, page_size);
            let got = pack_checked(&schema, &rows, page_size);
            match (&got, &want) {
                (Ok(got), Ok(want)) => proptest::prop_assert_eq!(got, want),
                (Err(got), Err(want)) => proptest::prop_assert_eq!(
                    std::mem::discriminant(got),
                    std::mem::discriminant(want),
                    "{:?} vs {:?}", got, want
                ),
                _ => proptest::prop_assert!(false, "fused {:?} vs two-pass {:?}", got, want),
            }
        }
    }

    #[test]
    fn empty_table_is_fine() {
        let (bytes, count) = pack_rows([].iter(), 256).unwrap();
        assert!(bytes.is_empty());
        assert_eq!(count, 0);
    }
}
