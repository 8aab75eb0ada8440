//! Scalar values, column types, and the pipe-delimited text row format.
//!
//! Rows are stored on flash in a pipe-delimited text layout close to
//! `dbgen`'s `.tbl` format, with one deliberate twist: **every row begins
//! and ends with a pipe** (`|f0|f1|...|fn|\n`). That guarantees every
//! column value — including the first and last — appears on flash as the
//! byte string `|value|`, so the hardware pattern matcher can search for
//! any column literal without false *negatives* (page-level false positives
//! are fine; they are verified on the device CPU).

use std::cmp::Ordering;
use std::fmt;

use biscuit_proto::packet::{DecodeError, PacketBuilder, PacketReader};
use biscuit_proto::wire::Wire;

/// Column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float (stands in for TPC-H decimals; serialized with two
    /// decimal places).
    Float,
    /// UTF-8 string (must not contain `|` or newline).
    Str,
    /// Calendar date, stored as days since 1970-01-01.
    Date,
}

/// A scalar value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Float (finite).
    Float(f64),
    /// String.
    Str(String),
    /// Date (days since epoch).
    Date(i32),
}

impl Value {
    /// The value's column type.
    pub(crate) fn column_type(&self) -> ColumnType {
        match self {
            Value::Int(_) => ColumnType::Int,
            Value::Float(_) => ColumnType::Float,
            Value::Str(_) => ColumnType::Str,
            Value::Date(_) => ColumnType::Date,
        }
    }

    /// Constructs a date value from `YYYY-MM-DD`.
    ///
    /// # Panics
    ///
    /// Panics on malformed input (dates in this codebase are literals).
    pub fn date(s: &str) -> Value {
        Value::Date(parse_date(s).unwrap_or_else(|| panic!("bad date literal: {s}")))
    }

    /// The value as a borrowed [`Cell`].
    pub(crate) fn cell(&self) -> Cell<'_> {
        match self {
            Value::Int(v) => Cell::Int(*v),
            Value::Float(v) => Cell::Float(*v),
            Value::Str(s) => Cell::Str(s),
            Value::Date(d) => Cell::Date(*d),
        }
    }

    /// Numeric view (ints and dates widen to f64 for arithmetic).
    pub fn as_f64(&self) -> Option<f64> {
        self.cell().as_f64()
    }

    /// Integer view.
    pub(crate) fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Date(v) => Some(i64::from(*v)),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Total ordering across comparable values: see `Cell::compare`.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        self.cell().compare(other.cell())
    }

    /// The on-flash text form of this value (what the pattern matcher sees;
    /// outside the crate, its `Display` form).
    pub(crate) fn to_text(&self) -> String {
        let mut s = String::new();
        self.write_text(&mut s);
        s
    }

    /// Appends [`Value::to_text`] to `out` — for per-row callers that reuse
    /// one buffer instead of allocating a `String` per cell.
    pub(crate) fn write_text(&self, out: &mut String) {
        self.cell().write_text(out);
    }

    /// Parses the text form back, guided by the column type: see
    /// [`Cell::parse`].
    pub(crate) fn from_text(ty: ColumnType, s: &str) -> Option<Value> {
        Cell::parse(ty, s).map(Cell::to_value)
    }
}

/// A [`Value`] that borrows its string: what the column cache hands out and
/// the lowered expression programs compute with, so reading a cell copies
/// nothing. Every rule a `Value` follows — comparison, numeric view, text
/// form, parsing — is defined here once. Its `Debug` spells a cell as
/// `Value`'s spells the same value, so error texts that quote one agree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Cell<'a> {
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Str(&'a str),
    /// Date (days since epoch).
    Date(i32),
}

impl<'a> Cell<'a> {
    /// The owned value.
    pub(crate) fn to_value(self) -> Value {
        match self {
            Cell::Int(v) => Value::Int(v),
            Cell::Float(v) => Value::Float(v),
            Cell::Str(s) => Value::Str(s.to_owned()),
            Cell::Date(d) => Value::Date(d),
        }
    }

    /// Numeric view (ints and dates widen to f64 for arithmetic).
    pub(crate) fn as_f64(self) -> Option<f64> {
        match self {
            Cell::Int(v) => Some(v as f64),
            Cell::Float(v) => Some(v),
            Cell::Date(v) => Some(f64::from(v)),
            Cell::Str(_) => None,
        }
    }

    /// String view.
    pub(crate) fn as_str(self) -> Option<&'a str> {
        match self {
            Cell::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Total ordering across comparable cells: two `Int`s, two `Date`s or
    /// two strings compare exactly; other numeric pairs widen to `f64`;
    /// a string and a number do not compare.
    pub(crate) fn compare(self, other: Cell<'_>) -> Option<Ordering> {
        match (self, other) {
            (Cell::Int(a), Cell::Int(b)) => Some(a.cmp(&b)),
            (Cell::Str(a), Cell::Str(b)) => Some(a.cmp(b)),
            (Cell::Date(a), Cell::Date(b)) => Some(a.cmp(&b)),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// Appends the on-flash text form to `out`: decimal integers, floats
    /// with two decimals, dates as `YYYY-MM-DD` — the spellings `{v}`,
    /// `{v:.2}` and `{y:04}-{m:02}-{d:02}` give. Floats below 10^13 and
    /// years 0–9999 are written without the formatting machinery.
    pub(crate) fn write_text(self, out: &mut String) {
        self.write_reads_back(out);
    }

    /// [`Cell::write_text`], returning whether [`Cell::parse`] reads the
    /// text back as this cell. Ints and strings always do (a string's
    /// framing is its table's concern), and so do NaN and the infinities
    /// (`NaN`, `inf`, `-inf`). A finite float does when its two-decimal
    /// text is not rounded away from it: not `0.125` (`0.12`). A date does
    /// in years 0 to 1 000 000 ([`parse_date`]'s range).
    pub(crate) fn write_reads_back(self, out: &mut String) -> bool {
        use std::fmt::Write;
        let at = out.len();
        // Writing into a `String` cannot fail.
        match self {
            Cell::Int(v) => {
                out.push_str(int_text(v, &mut [0; 20]));
                true
            }
            Cell::Str(s) => {
                out.push_str(s);
                true
            }
            Cell::Float(v) => match hundredths(v) {
                Some(n) => {
                    // `-`, up to 13 digits, `.` and two more.
                    let mut buf = [b'.'; 18];
                    fill_digits(&mut buf[16..], n % 100);
                    let mut start = digits_at(n / 100, &mut buf[..15]);
                    if v.is_sign_negative() {
                        start -= 1;
                        buf[start] = b'-';
                    }
                    out.push_str(ascii(&buf[start..]));
                    // `n` (at most 10^15) and 100 are exact doubles, so
                    // one division gives the correctly rounded value that
                    // parsing the text gives.
                    n as f64 / 100.0 == v.abs()
                }
                None => {
                    let _ = write!(out, "{v:.2}");
                    !v.is_finite() || Cell::parse(ColumnType::Float, &out[at..]) == Some(self)
                }
            },
            Cell::Date(days) => match civil_from_days(days) {
                // The spelling `iso_date` reads back.
                (y @ 0..=9999, m, d) => {
                    let mut buf = *b"0000-00-00";
                    fill_digits(&mut buf[..4], y as u64);
                    fill_digits(&mut buf[5..7], u64::from(m));
                    fill_digits(&mut buf[8..], u64::from(d));
                    out.push_str(ascii(&buf));
                    true
                }
                (y, m, d) => {
                    let _ = write!(out, "{y:04}-{m:02}-{d:02}");
                    Cell::parse(ColumnType::Date, &out[at..]) == Some(self)
                }
            },
        }
    }

    /// Parses a text field as a cell of type `ty`, borrowing a string. The
    /// spellings [`Cell::write_text`] stores for floats and dates take an
    /// exact fast path; every other spelling goes through `str::parse` /
    /// [`parse_date`].
    pub(crate) fn parse(ty: ColumnType, s: &'a str) -> Option<Cell<'a>> {
        match ty {
            ColumnType::Int => s.parse().ok().map(Cell::Int),
            ColumnType::Float => decimal(s.as_bytes())
                .or_else(|| s.parse().ok())
                .map(Cell::Float),
            ColumnType::Str => Some(Cell::Str(s)),
            ColumnType::Date => iso_date(s.as_bytes())
                .or_else(|| parse_date(s))
                .map(Cell::Date),
        }
    }
}

/// `a == b`, with short strings compared byte by byte without a branch
/// per byte: the group keys, join keys and `IN` lists of TPC-H are short,
/// and there a call to `memcmp` costs more than the comparison.
#[inline]
pub(crate) fn str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    a.len() == b.len()
        && if a.len() <= 16 {
            a.iter().zip(b).fold(0, |diff, (x, y)| diff | (x ^ y)) == 0
        } else {
            a == b
        }
}

/// `v` in decimal, written into the tail of `buf` — the spelling `{v}`
/// gives, without the formatting machinery.
fn int_text(v: i64, buf: &mut [u8; 20]) -> &str {
    let mut at = digits_at(v.unsigned_abs(), buf);
    if v < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    ascii(&buf[at..])
}

/// Writes `n` in decimal into the tail of `buf` and returns where it
/// starts.
fn digits_at(mut n: u64, buf: &mut [u8]) -> usize {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return at;
        }
    }
}

/// Fills `buf` with the last `buf.len()` decimal digits of `n`,
/// zero-padded.
fn fill_digits(buf: &mut [u8], mut n: u64) {
    for b in buf.iter_mut().rev() {
        *b = b'0' + (n % 10) as u8;
        n /= 10;
    }
}

fn ascii(text: &[u8]) -> &str {
    std::str::from_utf8(text).expect("ASCII")
}

/// `|v| × 100` rounded to the nearest integer, ties to even, on `v`'s
/// exact binary value — the digits `{v:.2}` prints — or `None` for NaN
/// and `|v|` of 10^13 or more. Below that `|v|` is
/// `m / 2^shift` with `shift` ≥ 9 and `m × 100` below 2^60, so the
/// quotient and remainder are exact in `u128`.
fn hundredths(v: f64) -> Option<u64> {
    if v.is_nan() || v.abs() >= 1e13 {
        return None;
    }
    let bits = v.abs().to_bits();
    let (exp, frac) = ((bits >> 52) as u32, bits & ((1 << 52) - 1));
    let (m, shift) = match exp {
        0 => (frac, 1074),
        _ => (frac | 1 << 52, 1075 - exp),
    };
    if shift >= 128 {
        return Some(0); // below 2^-68 hundredths
    }
    let scaled = u128::from(m) * 100;
    let q = scaled >> shift;
    let rest = scaled - (q << shift);
    let half = 1 << (shift - 1);
    Some((q + u128::from(rest > half || (rest == half && q & 1 == 1))) as u64)
}

/// `-?d+.d+` with at most 15 digits in all, as `m / 10^k`: `m` and `10^k`
/// are both exact doubles, so the one IEEE division is correctly rounded,
/// which is what `str::parse` returns for the same text.
fn decimal(s: &[u8]) -> Option<f64> {
    const POW10: [f64; 16] = [
        1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
    ];
    let (neg, s) = match s.split_first() {
        Some((b'-', rest)) => (true, rest),
        _ => (false, s),
    };
    let dot = s.iter().position(|&b| b == b'.')?;
    let (int, frac) = (&s[..dot], &s[dot + 1..]);
    if int.is_empty() || frac.is_empty() || int.len() + frac.len() > 15 {
        return None;
    }
    let v = ascii_number(int.iter().chain(frac))? as f64 / POW10[frac.len()];
    Some(if neg { -v } else { v })
}

/// Exactly `dddd-dd-dd` with a month in 1-12 and a day in 1-31, as
/// [`parse_date`] reads it.
fn iso_date(s: &[u8]) -> Option<i32> {
    let [y0, y1, y2, y3, b'-', m0, m1, b'-', d0, d1] = *s else {
        return None;
    };
    let y = ascii_number(&[y0, y1, y2, y3])?;
    let (m, d) = (ascii_number(&[m0, m1])?, ascii_number(&[d0, d1])?);
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    Some(days_from_civil(y as i32, m as u32, d as u32))
}

/// The number a short run of ASCII digits spells, or `None` if a byte is
/// not a digit.
fn ascii_number<'a>(digits: impl IntoIterator<Item = &'a u8>) -> Option<u64> {
    digits.into_iter().try_fold(0u64, |acc, &b| {
        b.is_ascii_digit().then(|| acc * 10 + u64::from(b - b'0'))
    })
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

/// A row of values.
pub type Row = Vec<Value>;

/// Serializes a row in the on-flash format: `|f0|f1|...|fn|\n`.
pub fn row_to_text(row: &Row) -> String {
    let mut s = String::with_capacity(row.len() * 8 + 2);
    write_row(row, &mut s);
    s
}

/// Appends [`row_to_text`] to `out`, writing each cell in place.
pub(crate) fn write_row(row: &[Value], out: &mut String) {
    out.push('|');
    for v in row {
        v.write_text(out);
        out.push('|');
    }
    out.push('\n');
}

/// Parses one `|`-delimited line back into a row.
pub(crate) fn row_from_text(types: &[ColumnType], line: &str) -> Option<Row> {
    let mut fields = fields(line)?;
    // Exactly `types.len()` cells: a grown `Vec` would leave every cached
    // row with slack capacity.
    let mut row = Vec::with_capacity(types.len());
    for &ty in types {
        row.push(Value::from_text(ty, fields.next()?)?);
    }
    if fields.next().is_some() {
        return None; // too many fields
    }
    Some(row)
}

/// The field slices of a framed line `|f0|f1|...|fn|`, in order, or `None`
/// if the frame is missing. One forward byte loop: each field ends at the
/// next `|`.
pub(crate) fn fields(line: &str) -> Option<impl Iterator<Item = &str>> {
    let mut rest = Some(line.strip_prefix('|')?.strip_suffix('|')?);
    Some(std::iter::from_fn(move || {
        let s = rest?;
        match s.bytes().position(|b| b == b'|') {
            Some(i) => {
                rest = Some(&s[i + 1..]);
                Some(&s[..i])
            }
            None => rest.take(),
        }
    }))
}

/// Days-since-epoch for `YYYY-MM-DD` (proleptic Gregorian, 1970 epoch).
/// Years past 1 000 000 are rejected: their day counts overflow `i32`.
pub(crate) fn parse_date(s: &str) -> Option<i32> {
    let mut it = s.split('-');
    let y: i32 = it.next()?.parse().ok()?;
    let m: u32 = it.next()?.parse().ok()?;
    let d: u32 = it.next()?.parse().ok()?;
    if it.next().is_some() || y > 1_000_000 || !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    Some(days_from_civil(y, m, d))
}

/// `YYYY-MM-DD` for a days-since-epoch value.
pub(crate) fn format_date(days: i32) -> String {
    Value::Date(days).to_text()
}

/// Calendar year of a days-since-epoch value (the `YYYY` of
/// [`format_date`], without the text).
pub(crate) fn year_of(days: i32) -> i32 {
    civil_from_days(days).0
}

// Howard Hinnant's civil-days algorithms.
fn days_from_civil(y: i32, m: u32, d: u32) -> i32 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u32;
    let mp = (m + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe as i32 - 719_468
}

// In `i64`, so that every `i32` day count has a date.
fn civil_from_days(z: i32) -> (i32, u32, u32) {
    let z = i64::from(z) + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u32;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = (i64::from(yoe) + era * 400) as i32;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    (if m <= 2 { y + 1 } else { y }, m, d)
}

impl Wire for Value {
    fn encode(&self, b: &mut PacketBuilder) {
        match self {
            Value::Int(v) => {
                b.put_u8(0);
                b.put_i64(*v);
            }
            Value::Float(v) => {
                b.put_u8(1);
                b.put_f64(*v);
            }
            Value::Str(s) => {
                b.put_u8(2);
                b.put_str(s);
            }
            Value::Date(d) => {
                b.put_u8(3);
                b.put_i64(i64::from(*d));
            }
        }
    }

    fn decode(r: &mut PacketReader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => Ok(Value::Int(r.get_i64()?)),
            1 => Ok(Value::Float(r.get_f64()?)),
            2 => Ok(Value::Str(r.get_str()?.to_owned())),
            3 => {
                let d = r.get_i64()?;
                i32::try_from(d)
                    .map(Value::Date)
                    .map_err(|_| DecodeError::UnexpectedEnd)
            }
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_round_trips() {
        for s in [
            "1970-01-01",
            "1995-01-17",
            "1998-12-01",
            "2000-02-29",
            "1992-12-31",
        ] {
            let d = parse_date(s).unwrap();
            assert_eq!(format_date(d), s, "date {s}");
        }
        assert_eq!(parse_date("1970-01-01"), Some(0));
        assert_eq!(parse_date("1970-01-02"), Some(1));
        assert_eq!(parse_date("1969-12-31"), Some(-1));
    }

    #[test]
    fn year_of_is_the_formatted_year() {
        for s in [
            "1970-01-01",
            "1995-01-17",
            "1998-12-01",
            "2000-02-29",
            "1992-12-31",
            "1969-12-31",
            "1900-03-01",
        ] {
            let d = parse_date(s).unwrap();
            assert_eq!(year_of(d), s[..4].parse::<i32>().unwrap(), "date {s}");
            assert_eq!(format_date(d), s, "date {s}");
        }
    }

    #[test]
    fn write_text_appends_the_text_form() {
        let mut buf = String::from(">");
        for v in [
            Value::Int(-42),
            Value::Float(2.5),
            Value::Str("a b".into()),
            Value::date("1995-09-14"),
        ] {
            v.write_text(&mut buf);
            buf.push('|');
        }
        assert_eq!(buf, ">-42|2.50|a b|1995-09-14|");
    }

    #[test]
    fn bad_dates_rejected() {
        assert_eq!(parse_date("1995-13-01"), None);
        assert_eq!(parse_date("nope"), None);
        assert_eq!(parse_date("1995-01"), None);
        assert_eq!(parse_date("+685043208-3-1"), None); // would overflow
        assert!(parse_date("1000000-01-01").is_some());
    }

    #[test]
    fn row_text_round_trip() {
        let row: Row = vec![
            Value::Int(42),
            Value::Str("PROMO BURNISHED".into()),
            Value::Float(1234.5),
            Value::date("1995-09-14"),
        ];
        let text = row_to_text(&row);
        assert_eq!(text, "|42|PROMO BURNISHED|1234.50|1995-09-14|\n");
        let types = [
            ColumnType::Int,
            ColumnType::Str,
            ColumnType::Float,
            ColumnType::Date,
        ];
        let back = row_from_text(&types, text.trim_end()).unwrap();
        assert_eq!(back[0], Value::Int(42));
        assert_eq!(back[1], Value::Str("PROMO BURNISHED".into()));
        assert_eq!(back[3], Value::date("1995-09-14"));
    }

    #[test]
    fn every_column_is_pipe_delimited() {
        // The property the pattern matcher relies on: `|value|` occurs for
        // every column, including first and last.
        let row: Row = vec![Value::Int(7), Value::Str("x".into()), Value::Int(9)];
        let text = row_to_text(&row);
        assert!(text.contains("|7|"));
        assert!(text.contains("|x|"));
        assert!(text.contains("|9|"));
    }

    #[test]
    fn comparisons_widen_numerics() {
        assert_eq!(
            Value::Int(3).compare(&Value::Float(3.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::date("1995-01-17").compare(&Value::date("1995-01-18")),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Str("a".into()).compare(&Value::Int(1)), None);
    }

    #[test]
    fn ints_compare_exactly_past_two_to_the_53() {
        let (big, next) = (1i64 << 53, (1i64 << 53) + 1);
        assert_eq!(
            Value::Int(next).compare(&Value::Int(big)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::Int(big).compare(&Value::Int(next)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int(i64::MAX).compare(&Value::Int(i64::MAX - 1)),
            Some(Ordering::Greater)
        );
        // Mixed numeric pairs still widen: the float cannot tell them apart.
        assert_eq!(
            Value::Int(next).compare(&Value::Float(big as f64)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn int_text_spells_like_display() {
        for v in [0, 7, -7, 10, -10, 1 << 53, i64::MAX, i64::MIN, i64::MIN + 1] {
            assert_eq!(int_text(v, &mut [0; 20]), v.to_string(), "{v}");
        }
    }

    /// What `{v:.2}` prints, against the exact writer, and whether that
    /// parses back to `v`, against what the writer says.
    fn assert_float_spelled_like_format(v: f64) {
        let mut got = String::new();
        let reads_back = Cell::Float(v).write_reads_back(&mut got);
        let want = format!("{v:.2}");
        assert_eq!(got, want, "{v:e} ({:#x})", v.to_bits());
        let back: f64 = want.parse().unwrap();
        assert_eq!(
            reads_back,
            !v.is_finite() || back == v,
            "{v:e} reads back as {back:e}"
        );
    }

    #[test]
    fn float_writer_spells_like_format_on_the_edges() {
        let two_53 = (1u64 << 53) as f64;
        for v in [
            0.0,
            -0.0,
            0.001,
            -0.001,
            0.005,
            -0.005,
            0.015,
            2.675,
            1.0 / 3.0,
            f64::from_bits(1), // the smallest subnormal
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            -f64::MIN_POSITIVE,
            1e13 - 0.01,
            -(1e13 - 0.005),
            1e13, // the fallback from here on
            (1u64 << 46) as f64 + 0.125,
            two_53,
            two_53 + 2.0,
            1e20,
            f64::MAX,
            f64::MIN,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_float_spelled_like_format(v);
        }
        // Ties, exactly representable: every multiple of 1/8 up to ±1000.
        for k in -8000..=8000 {
            assert_float_spelled_like_format(f64::from(k) / 8.0);
        }
    }

    #[test]
    fn date_writer_spells_like_format_on_every_day_of_years_0_to_9999() {
        use std::fmt::Write;
        let (first, last) = (days_from_civil(0, 1, 1), days_from_civil(9999, 12, 31));
        let (mut got, mut want) = (String::new(), String::new());
        // A year past either end takes the fallback.
        for days in first - 400..=last + 400 {
            got.clear();
            want.clear();
            let reads_back = Cell::Date(days).write_reads_back(&mut got);
            let (y, m, d) = civil_from_days(days);
            let _ = write!(want, "{y:04}-{m:02}-{d:02}");
            assert_eq!(got, want, "day {days}");
            assert_eq!(reads_back, days >= first, "day {days}");
        }
        // Past the fast path, whether the text reads back is `parse`'s call.
        let end = parse_date("1000000-12-31").unwrap();
        for days in [end - 1, end, end + 1, i32::MAX, i32::MIN] {
            got.clear();
            let reads_back = Cell::Date(days).write_reads_back(&mut got);
            let back = Cell::parse(ColumnType::Date, &got);
            assert_eq!(reads_back, back == Some(Cell::Date(days)), "{got}");
            assert_eq!(reads_back, (first..=end).contains(&days), "{got}");
        }
        assert_eq!(format_date(first), "0000-01-01");
        assert_eq!(format_date(last), "9999-12-31");
        assert_eq!(format_date(first - 1), "-001-12-31");
        assert_eq!(format_date(last + 1), "10000-01-01");
    }

    #[test]
    fn wire_round_trip() {
        let vals = vec![
            Value::Int(-5),
            Value::Float(2.25),
            Value::Str("hello".into()),
            Value::date("1996-03-13"),
        ];
        let p = vals.to_packet();
        assert_eq!(Vec::<Value>::from_packet(&p).unwrap(), vals);
    }

    #[test]
    fn malformed_rows_rejected() {
        let types = [ColumnType::Int, ColumnType::Int];
        assert!(row_from_text(&types, "|1|2|").is_some());
        assert!(row_from_text(&types, "|1|").is_none()); // too few
        assert!(row_from_text(&types, "|1|2|3|").is_none()); // too many
        assert!(row_from_text(&types, "1|2|").is_none()); // missing frame
        assert!(row_from_text(&types, "|a|2|").is_none()); // bad int
    }

    /// Floats bit for bit as `str::parse` reads them, dates as
    /// [`parse_date`] does, whichever path a spelling takes.
    fn assert_parses_like_std(s: &str) {
        let want = s.parse::<f64>().ok().map(f64::to_bits);
        let got = match Value::from_text(ColumnType::Float, s) {
            Some(Value::Float(v)) => Some(v.to_bits()),
            None => None,
            other => panic!("{s:?} parsed as {other:?}"),
        };
        assert_eq!(got, want, "float {s:?}");
        let got = match Value::from_text(ColumnType::Date, s) {
            Some(Value::Date(d)) => Some(d),
            None => None,
            other => panic!("{s:?} parsed as {other:?}"),
        };
        assert_eq!(got, parse_date(s), "date {s:?}");
    }

    #[test]
    fn fast_paths_agree_with_std_on_the_edges() {
        for s in [
            "-0.00",
            "0.00",
            "123456789012.345",
            "999999999999999.9",
            "1234567890123.456",
            "-12345678901234.5",
            "0.000000000000001",
            "0.1",
            "+1.50",
            "1.",
            ".5",
            "-.5",
            "1e3",
            "1.5e3",
            "inf",
            "NaN",
            "-",
            "",
            "1.2.3",
            "1995-09-01",
            "1995-9-01",
            "1995-13-01",
            "1995-00-10",
            "1995-01-32",
            "1995-02-31",
            "0000-01-01",
            "+995-01-01",
            "1995-01-01-",
            "19950-01-01",
        ] {
            assert_parses_like_std(s);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        #[test]
        fn fast_paths_agree_with_std(
            sign in proptest::sample::select(vec!["", "-", "+"]),
            int in "[0-9]{0,9}",
            dot in proptest::sample::select(vec![".", "", "-", ".."]),
            frac in "[0-9]{0,8}",
            tail in proptest::sample::select(vec!["", "-01", "-1", "e2", "x"]),
        ) {
            assert_parses_like_std(&format!("{sign}{int}{dot}{frac}{tail}"));
        }

        #[test]
        fn stored_floats_and_dates_round_trip(
            cents in proptest::prelude::any::<i64>(),
            days in -719_528i32..2_932_897,
        ) {
            let cents = cents % 1_000_000_000_000_000;
            let v = Value::Float(cents as f64 / 100.0);
            assert_parses_like_std(&v.to_text());
            let d = Value::Date(days);
            assert_parses_like_std(&d.to_text());
            proptest::prop_assert_eq!(Value::from_text(ColumnType::Date, &d.to_text()), Some(d));
        }

        #[test]
        fn float_writer_spells_like_format(
            bits in proptest::prelude::any::<u64>(),
            cents in proptest::prelude::any::<i64>(),
            eighths in proptest::prelude::any::<i64>(),
        ) {
            // Any bit pattern: subnormals, NaNs, every exponent.
            assert_float_spelled_like_format(f64::from_bits(bits));
            // Stored money: whole cents, up to 10^13 units.
            assert_float_spelled_like_format((cents % 1_000_000_000_000_000) as f64 / 100.0);
            // Multiples of 1/8: half of them are ties at the third decimal.
            assert_float_spelled_like_format((eighths % (1 << 40)) as f64 / 8.0);
        }
    }

    #[test]
    fn parsed_rows_hold_exactly_their_cells() {
        let types = [
            ColumnType::Int,
            ColumnType::Str,
            ColumnType::Float,
            ColumnType::Date,
            ColumnType::Str,
        ];
        let row = row_from_text(&types, "|7|x|1.50|1995-09-14|y|").unwrap();
        assert_eq!(row.len(), types.len());
        assert_eq!(row.capacity(), types.len());
    }
}
