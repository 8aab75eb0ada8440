//! Table storage: packing rows into flash pages and parsing them back.
//!
//! Rows never span pages (XtraDB-style page-granular layout), so a page can
//! be parsed, filtered, and pattern-matched in isolation — the property the
//! device-side scan SSDlet depends on. Page tails are padded with `~`,
//! a byte that cannot occur inside the `|...|` row framing.

use biscuit_fs::Fs;

use crate::error::{DbError, DbResult};
use crate::exec::check_width;
use crate::schema::{Schema, TableMeta};
use crate::value::{row_from_text, row_to_text, Row, Value};

/// Byte used to fill page tails.
pub const PAD: u8 = b'~';

/// Packs rows into consecutive page images of `page_size` bytes.
///
/// # Errors
///
/// Returns [`DbError::RowTooLarge`] if a serialized row exceeds one page.
pub fn pack_rows<'a, I>(rows: I, page_size: usize) -> DbResult<(Vec<u8>, u64)>
where
    I: IntoIterator<Item = &'a Row>,
{
    let mut out = Vec::new();
    let mut page = Vec::with_capacity(page_size);
    let mut count = 0u64;
    for row in rows {
        let text = row_to_text(row);
        if text.len() > page_size {
            return Err(DbError::RowTooLarge {
                bytes: text.len(),
                page_size,
            });
        }
        if page.len() + text.len() > page_size {
            page.resize(page_size, PAD);
            out.extend_from_slice(&page);
            page.clear();
        }
        page.extend_from_slice(text.as_bytes());
        count += 1;
    }
    if !page.is_empty() {
        page.resize(page_size, PAD);
        out.extend_from_slice(&page);
    }
    Ok((out, count))
}

/// Parses every row out of one page image.
///
/// # Errors
///
/// Returns [`DbError::CorruptRow`] for non-padding content that fails to
/// parse.
pub fn parse_page(schema: &Schema, table: &str, page: &[u8]) -> DbResult<Vec<Row>> {
    let types = schema.types();
    let mut rows = Vec::new();
    for line in page.split(|&b| b == b'\n') {
        let line = std::str::from_utf8(line).map_err(|_| DbError::CorruptRow {
            table: table.to_owned(),
            line: String::from_utf8_lossy(line).into_owned(),
        })?;
        let trimmed = line.trim_end_matches(PAD as char);
        if trimmed.is_empty() {
            continue;
        }
        let row = row_from_text(&types, trimmed).ok_or_else(|| DbError::CorruptRow {
            table: table.to_owned(),
            line: trimmed.to_owned(),
        })?;
        rows.push(row);
    }
    Ok(rows)
}

/// Checks that every row reads back as written: one cell per column, each
/// of its column's type, and no string holding the `|` or newline that
/// frame the text layout.
///
/// # Errors
///
/// Returns [`DbError::TypeError`] naming the first offending cell.
pub(crate) fn check_rows(schema: &Schema, rows: &[Row]) -> DbResult<()> {
    check_width(rows, schema.len())?;
    for row in rows {
        for (v, col) in row.iter().zip(schema.columns()) {
            if v.column_type() != col.ty {
                return Err(DbError::TypeError(format!(
                    "column {}: {v:?} is not a {:?}",
                    col.name, col.ty
                )));
            }
            if let Value::Str(s) = v {
                if s.bytes().any(|b| b == b'|' || b == b'\n') {
                    return Err(DbError::TypeError(format!(
                        "column {}: {s:?} holds `|` or a newline",
                        col.name
                    )));
                }
            }
        }
    }
    Ok(())
}

/// Creates a table file on the volume and bulk-loads rows (untimed; dataset
/// loading happens before experiments start, as in the paper's methodology).
///
/// # Errors
///
/// Returns [`DbError::TypeError`] — before any file exists — for a row whose
/// width, cell types or strings would not read back as written, and
/// filesystem or row-size errors.
pub fn create_table(fs: &Fs, name: &str, schema: Schema, rows: &[Row]) -> DbResult<TableMeta> {
    check_rows(&schema, rows)?;
    let page_size = fs.device().config().page_size;
    let file_path = format!("tbl_{name}");
    fs.create(&file_path)?;
    let (bytes, count) = pack_rows(rows.iter(), page_size)?;
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
        assert!(fs.exists("tbl_demo"));
    }

    #[test]
    fn rows_that_would_not_read_back_are_rejected_before_the_file_exists() {
        let dev = Arc::new(biscuit_ssd::SsdDevice::new(biscuit_ssd::SsdConfig {
            logical_capacity: 64 << 20,
            ..biscuit_ssd::SsdConfig::paper_default()
        }));
        let fs = Fs::format(dev);
        let three = Schema::new(&[
            ("id", ColumnType::Int),
            ("a", ColumnType::Str),
            ("b", ColumnType::Str),
        ]);
        let text = |s: &str| Value::Str(s.to_owned());
        let bad: [Row; 5] = [
            // Two cells whose text `|1|a|b|` parses as the three-cell row
            // [1, "a", "b"], which was never inserted.
            vec![Value::Int(1), text("a|b")],
            vec![Value::Int(1), text("a|b"), text("c")],
            vec![Value::Int(1), text("a\nb"), text("c")],
            vec![Value::Int(1), Value::Int(2), text("c")],
            vec![Value::Int(1), text("a"), text("b"), text("c")],
        ];
        for row in bad {
            let err =
                create_table(&fs, "bad", three.clone(), std::slice::from_ref(&row)).unwrap_err();
            assert!(matches!(err, DbError::TypeError(_)), "{row:?}: {err:?}");
            assert!(!fs.exists("tbl_bad"), "{row:?} left a table file behind");
        }
        let good = [vec![Value::Int(1), text("a"), text("b")]];
        create_table(&fs, "bad", three, &good).unwrap();
        assert!(fs.exists("tbl_bad"));
    }

    #[test]
    fn empty_table_is_fine() {
        let (bytes, count) = pack_rows([].iter(), 256).unwrap();
        assert!(bytes.is_empty());
        assert_eq!(count, 0);
    }
}
