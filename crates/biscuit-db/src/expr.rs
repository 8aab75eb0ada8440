//! Scalar expressions, SQL `LIKE` patterns, and pattern-key extraction for
//! the NDP offload planner. Expressions evaluate through `Program`, the
//! crate's one evaluator.
//!
//! Key extraction is the compatibility analysis the paper's modified query
//! planner performs (§V-C): a filter predicate is pattern-matcher friendly
//! only if a small set of byte keys (≤3 keys, ≤16 bytes each) is guaranteed
//! to occur in the on-flash text of *every* satisfying row. Predicates the
//! hardware cannot help with — `NOT LIKE`, inequalities over wide ranges,
//! single-character literals — yield no keys, and the planner keeps those
//! scans on the host, exactly like the eight non-offloaded TPC-H queries in
//! Fig. 10.

use crate::value::{format_date, ColumnType, Value};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl ArithOp {
    /// `x <op> y`.
    pub(crate) fn apply(self, x: f64, y: f64) -> f64 {
        match self {
            ArithOp::Add => x + y,
            ArithOp::Sub => x - y,
            ArithOp::Mul => x * y,
            ArithOp::Div => x / y,
        }
    }
}

/// A scalar expression over a row.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference by index.
    Col(usize),
    /// Literal value.
    Lit(Value),
    /// Comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Conjunction.
    And(Vec<Expr>),
    /// Disjunction.
    Or(Vec<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// SQL `LIKE` with `%` wildcards (no `_` support; TPC-H does not use it).
    Like(Box<Expr>, String),
    /// SQL `NOT LIKE`.
    NotLike(Box<Expr>, String),
    /// `expr IN (v1, v2, ...)`.
    InList(Box<Expr>, Vec<Value>),
    /// `expr BETWEEN lo AND hi` (inclusive).
    Between(Box<Expr>, Value, Value),
    /// Arithmetic.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Calendar year of a date expression (as `Int`).
    Year(Box<Expr>),
    /// `CASE WHEN cond THEN a ELSE b END`.
    Case(Box<Expr>, Box<Expr>, Box<Expr>),
    /// First `n` characters of a string expression.
    Prefix(Box<Expr>, usize),
}

impl Expr {
    /// Shorthand: `col = lit`.
    pub fn col_eq(col: usize, v: Value) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(Expr::Col(col)), Box::new(Expr::Lit(v)))
    }

    /// Shorthand: `col <op> lit`.
    pub fn col_cmp(col: usize, op: CmpOp, v: Value) -> Expr {
        Expr::Cmp(op, Box::new(Expr::Col(col)), Box::new(Expr::Lit(v)))
    }

    /// Appends the index of every column the expression reads to `out`
    /// (repeats included, in no particular order).
    pub(crate) fn columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Col(i) => out.push(*i),
            Expr::Lit(_) => {}
            Expr::And(xs) | Expr::Or(xs) => xs.iter().for_each(|x| x.columns(out)),
            Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) => {
                a.columns(out);
                b.columns(out);
            }
            Expr::Case(c, a, b) => {
                c.columns(out);
                a.columns(out);
                b.columns(out);
            }
            Expr::Not(x)
            | Expr::Like(x, _)
            | Expr::NotLike(x, _)
            | Expr::InList(x, _)
            | Expr::Between(x, ..)
            | Expr::Year(x)
            | Expr::Prefix(x, _) => x.columns(out),
        }
    }
}

/// A `LIKE` pattern split at its `%`s once, for matching many strings.
pub(crate) struct LikePattern<'p> {
    pattern: &'p str,
    /// The fragments between `%`s; empty when there is no `%` and the
    /// pattern matches itself only.
    parts: Vec<&'p str>,
}

impl<'p> LikePattern<'p> {
    pub(crate) fn new(pattern: &'p str) -> LikePattern<'p> {
        let parts = if pattern.contains('%') {
            pattern.split('%').collect()
        } else {
            Vec::new()
        };
        LikePattern { pattern, parts }
    }

    pub(crate) fn matches(&self, s: &str) -> bool {
        let [first, middle @ .., last] = &self.parts[..] else {
            return s == self.pattern;
        };
        let mut rest = s;
        // Anchored prefix.
        if !first.is_empty() {
            match rest.strip_prefix(first) {
                Some(r) => rest = r,
                None => return false,
            }
        }
        // Middle fragments, in order.
        for part in middle {
            if part.is_empty() {
                continue;
            }
            match rest.find(part) {
                Some(i) => rest = &rest[i + part.len()..],
                None => return false,
            }
        }
        // Anchored suffix.
        if !last.is_empty() {
            return rest.ends_with(last);
        }
        true
    }
}

/// Limits imported from the hardware (kept here to avoid a dependency
/// cycle; validated against `biscuit_ssd::PatternLimits` in tests).
const MAX_KEYS: usize = 3;
const MAX_KEY_LEN: usize = 16;
/// "Predicate is a single character" — the paper's planner rejects keys
/// this short as useless discriminators. Framed keys carry two pipe bytes,
/// so a 4-byte minimum rejects `|x|` while keeping `|15|`.
const MIN_KEY_LEN: usize = 4;

fn keys_valid(keys: &[Vec<u8>]) -> bool {
    !keys.is_empty()
        && keys.len() <= MAX_KEYS
        && keys
            .iter()
            .all(|k| (MIN_KEY_LEN..=MAX_KEY_LEN).contains(&k.len()))
}

/// Byte keys guaranteed to appear in the on-flash text of every row
/// satisfying the predicate, or `None` if the predicate is not
/// pattern-matcher friendly.
///
/// `types` are the scanned table's column types. A literal yields a key
/// only when it is of its column's type: a row stores its column's text
/// form, not the literal's, so `Int` 37 equals a `FLOAT` column's `37.00`
/// while its key `|37|` never occurs there. So `=` and `IN` key a column
/// of their literals' type, `BETWEEN` a `DATE` column and `LIKE` a `STR`
/// column; any other conjunct yields no key.
pub(crate) fn pattern_keys(expr: &Expr, types: &[ColumnType]) -> Option<Vec<Vec<u8>>> {
    let keys = extract(expr, types)?;
    if !keys_valid(&keys) {
        return None;
    }
    Some(keys)
}

/// Column-literal key including the pipe frame: `|value|`. None for a
/// float zero, which equals `-0.0`, stored as `-0.00`.
fn framed(lit: &Value) -> Option<Vec<u8>> {
    if matches!(lit, Value::Float(x) if *x == 0.0) {
        return None;
    }
    Some(format!("|{}|", lit.to_text()).into_bytes())
}

/// Prefix key for a value: `|prefix` (matches any column starting with it).
fn prefix_key(prefix: &str) -> Vec<u8> {
    format!("|{prefix}").into_bytes()
}

fn extract(expr: &Expr, types: &[ColumnType]) -> Option<Vec<Vec<u8>>> {
    // `x` is a column of type `ty`.
    let column = |x: &Expr, ty: ColumnType| matches!(x, Expr::Col(c) if types.get(*c) == Some(&ty));
    // The key of `x = v`, where `x` is a column of `v`'s type.
    let key = |x: &Expr, v: &Value| {
        if column(x, v.column_type()) {
            framed(v)
        } else {
            None
        }
    };
    match expr {
        Expr::Cmp(CmpOp::Eq, a, b) => match (&**a, &**b) {
            (x, Expr::Lit(v)) | (Expr::Lit(v), x) => Some(vec![key(x, v)?]),
            _ => None,
        },
        Expr::InList(x, vals) => {
            if vals.len() > MAX_KEYS {
                return None;
            }
            vals.iter().map(|v| key(x, v)).collect()
        }
        Expr::Like(x, pat) if column(x, ColumnType::Str) => like_key(pat),
        Expr::Between(x, lo, hi) if column(x, ColumnType::Date) => {
            let prefixes = date_range_prefixes(lo, hi)?;
            Some(prefixes.iter().map(|p| prefix_key(p)).collect())
        }
        Expr::And(xs) => {
            // Any single conjunct's keys over-approximate the conjunction;
            // among hardware-valid candidates, prefer the longest (most
            // selective).
            xs.iter()
                .filter_map(|x| extract(x, types))
                .filter(|keys| keys_valid(keys))
                .max_by_key(|keys| keys.iter().map(Vec::len).min().unwrap_or(0))
        }
        Expr::Or(xs) => {
            // Every branch must contribute keys.
            let mut all = Vec::new();
            for x in xs {
                all.extend(extract(x, types)?);
            }
            if all.len() > MAX_KEYS {
                return None;
            }
            Some(all)
        }
        // Range comparisons: a pair like (col >= lo AND col < hi) is handled
        // at the And level via Between in query builders; raw inequalities,
        // negations, NOT LIKE, and arithmetic are not matchable.
        _ => None,
    }
}

fn like_key(pat: &str) -> Option<Vec<Vec<u8>>> {
    // `%frag%` → unanchored fragment key; `frag%` → anchored prefix key
    // `|frag`; fragments must fit hardware limits.
    let trimmed = pat.trim_matches('%');
    if trimmed.contains('%') || trimmed.is_empty() {
        // Multiple fragments: take the longest single fragment.
        let best = pat
            .split('%')
            .filter(|f| !f.is_empty())
            .max_by_key(|f| f.len())?;
        return Some(vec![best.as_bytes().to_vec()]);
    }
    if let Some(prefix) = pat.strip_suffix('%') {
        if !prefix.contains('%') {
            return Some(vec![prefix_key(prefix)]);
        }
    }
    Some(vec![trimmed.as_bytes().to_vec()])
}

/// For a date interval `[lo, hi]`, finds text prefixes that exactly cover
/// the interval: up to three whole months (`1995-09`, `1995-10`, ...) or up
/// to three whole years (`1995-`). A quarter thus compresses to three month
/// keys; wider or misaligned ranges are not matchable.
fn date_range_prefixes(lo: &Value, hi: &Value) -> Option<Vec<String>> {
    let (Value::Date(lo), Value::Date(hi)) = (lo, hi) else {
        return None;
    };
    if hi < lo {
        return None;
    }
    let (lo_s, hi_s) = (format_date(*lo), format_date(*hi));
    // Years 0 to 9999 only, where `[..4]` is the year and `|YYYY-` occurs
    // in no other year's text.
    if lo_s.starts_with('-') || hi_s.len() != 10 {
        return None;
    }
    // Whole months: lo = YYYY-MM-01, hi = a month end, span <= MAX_KEYS.
    if lo_s.ends_with("-01") && is_month_end(*hi) {
        let y0: i32 = lo_s[..4].parse().ok()?;
        let m0: i32 = lo_s[5..7].parse().ok()?;
        let y1: i32 = hi_s[..4].parse().ok()?;
        let m1: i32 = hi_s[5..7].parse().ok()?;
        let span = (y1 * 12 + m1) - (y0 * 12 + m0) + 1;
        if (1..=MAX_KEYS as i32).contains(&span) {
            let months = (0..span)
                .map(|i| {
                    let total = y0 * 12 + (m0 - 1) + i;
                    format!("{:04}-{:02}", total / 12, total % 12 + 1)
                })
                .collect();
            return Some(months);
        }
    }
    // Whole years: lo = YYYY-01-01, hi = YYYY-12-31, span <= MAX_KEYS.
    if lo_s.ends_with("-01-01") && hi_s.ends_with("-12-31") {
        let y0: i32 = lo_s[..4].parse().ok()?;
        let y1: i32 = hi_s[..4].parse().ok()?;
        let span = (y1 - y0 + 1) as usize;
        if (1..=MAX_KEYS).contains(&span) {
            return Some((y0..=y1).map(|y| format!("{y:04}-")).collect());
        }
    }
    None
}

fn is_month_end(d: i32) -> bool {
    format_date(d + 1).ends_with("-01")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;
    use crate::tree_walk;
    use crate::value::{parse_date, row_to_text, Cell, Row};
    use proptest::prelude::*;

    /// The column types of [`row`].
    const TYPES: [ColumnType; 4] = [
        ColumnType::Int,
        ColumnType::Str,
        ColumnType::Float,
        ColumnType::Date,
    ];

    fn row() -> Row {
        vec![
            Value::Int(3),
            Value::Str("PROMO ANODIZED".into()),
            Value::Float(0.05),
            Value::date("1995-09-14"),
        ]
    }

    /// `e` as a predicate on `r`, through the oracle and through
    /// [`Program`], which must agree.
    fn holds(e: &Expr, r: &Row) -> bool {
        let want = tree_walk::eval_bool(e, r).unwrap();
        let got = Program::new(e)
            .eval_bool(std::slice::from_ref(r), 0)
            .unwrap();
        assert_eq!(got, want, "{e:?}");
        want
    }

    /// `s LIKE pattern`, through the oracle and through [`LikePattern`],
    /// which must agree.
    fn like(s: &str, pattern: &str) -> bool {
        let want = tree_walk::like(s, pattern);
        assert_eq!(
            LikePattern::new(pattern).matches(s),
            want,
            "{s:?} LIKE {pattern:?}"
        );
        want
    }

    #[test]
    fn comparisons() {
        let r = row();
        assert!(holds(&Expr::col_eq(0, Value::Int(3)), &r));
        assert!(holds(&Expr::col_cmp(2, CmpOp::Le, Value::Float(0.05)), &r));
        assert!(!holds(
            &Expr::col_cmp(3, CmpOp::Lt, Value::date("1995-09-14")),
            &r
        ));
    }

    #[test]
    fn boolean_combinators() {
        let r = row();
        let t = Expr::col_eq(0, Value::Int(3));
        let f = Expr::col_eq(0, Value::Int(4));
        assert!(holds(&Expr::And(vec![t.clone(), t.clone()]), &r));
        assert!(!holds(&Expr::And(vec![t.clone(), f.clone()]), &r));
        assert!(holds(&Expr::Or(vec![f.clone(), t.clone()]), &r));
        assert!(holds(&Expr::Not(Box::new(f)), &r));
    }

    #[test]
    fn like_semantics() {
        assert!(like("PROMO ANODIZED", "PROMO%"));
        assert!(like("PROMO ANODIZED", "%ANODIZED"));
        assert!(like("PROMO ANODIZED", "%MO ANO%"));
        assert!(like("special requests here", "%special%requests%"));
        assert!(!like("requests special", "%special%requests%"));
        assert!(like("exact", "exact"));
        assert!(!like("exactx", "exact"));
        assert!(like("anything", "%"));
    }

    #[test]
    fn between_and_in() {
        let r = row();
        assert!(holds(
            &Expr::Between(
                Box::new(Expr::Col(3)),
                Value::date("1995-09-01"),
                Value::date("1995-09-30"),
            ),
            &r
        ));
        assert!(holds(
            &Expr::InList(Box::new(Expr::Col(0)), vec![Value::Int(1), Value::Int(3)]),
            &r
        ));
    }

    #[test]
    fn arithmetic() {
        let r = row();
        let e = Expr::Arith(
            ArithOp::Mul,
            Box::new(Expr::Col(2)),
            Box::new(Expr::Lit(Value::Float(100.0))),
        );
        assert_eq!(tree_walk::eval(&e, &r).unwrap(), Value::Float(5.0));
        let p = Program::new(&e);
        assert_eq!(
            p.eval(std::slice::from_ref(&r), 0).unwrap(),
            Cell::Float(5.0)
        );
    }

    #[test]
    fn equality_yields_framed_key() {
        let e = Expr::col_eq(3, Value::date("1995-01-17"));
        assert_eq!(
            pattern_keys(&e, &TYPES).unwrap(),
            vec![b"|1995-01-17|".to_vec()]
        );
        // A string equality keys its `STR` column (an empty table's
        // offload candidate in `engine_tests`).
        let e = Expr::col_eq(1, Value::Str("TARGET".into()));
        assert_eq!(
            pattern_keys(&e, &[ColumnType::Int, ColumnType::Str]).unwrap(),
            vec![b"|TARGET|".to_vec()]
        );
    }

    #[test]
    fn or_of_equalities_yields_multiple_keys() {
        let e = Expr::Or(vec![
            Expr::col_eq(3, Value::date("1995-01-17")),
            Expr::col_eq(3, Value::date("1995-01-18")),
        ]);
        assert_eq!(pattern_keys(&e, &TYPES).unwrap().len(), 2);
    }

    #[test]
    fn and_picks_a_keyed_conjunct() {
        let e = Expr::And(vec![
            Expr::col_cmp(2, CmpOp::Lt, Value::Float(0.07)), // no keys
            Expr::col_eq(3, Value::date("1995-01-17")),      // keys
        ]);
        assert_eq!(
            pattern_keys(&e, &TYPES).unwrap(),
            vec![b"|1995-01-17|".to_vec()]
        );
    }

    #[test]
    fn month_range_becomes_prefix_key() {
        let e = Expr::Between(
            Box::new(Expr::Col(3)),
            Value::date("1995-09-01"),
            Value::date("1995-09-30"),
        );
        assert_eq!(
            pattern_keys(&e, &TYPES).unwrap(),
            vec![b"|1995-09".to_vec()]
        );
    }

    #[test]
    fn year_range_becomes_prefix_key() {
        let e = Expr::Between(
            Box::new(Expr::Col(3)),
            Value::date("1995-01-01"),
            Value::date("1995-12-31"),
        );
        assert_eq!(pattern_keys(&e, &TYPES).unwrap(), vec![b"|1995-".to_vec()]);
    }

    #[test]
    fn unfriendly_predicates_yield_no_keys() {
        let keys = |e: &Expr| pattern_keys(e, &TYPES);
        // Open range: no keys.
        assert!(keys(&Expr::col_cmp(3, CmpOp::Le, Value::date("1998-09-02"))).is_none());
        assert!(keys(&Expr::col_cmp(2, CmpOp::Lt, Value::Float(3.0))).is_none());
        // NOT LIKE: the hardware cannot prove absence.
        assert!(keys(&Expr::NotLike(Box::new(Expr::Col(1)), "%special%".into())).is_none());
        // Single-character literal: rejected as in the paper.
        assert!(keys(&Expr::col_eq(1, Value::Str("x".into()))).is_none());
        // Too many OR branches.
        let e = Expr::Or(vec![
            Expr::col_eq(0, Value::Int(11)),
            Expr::col_eq(0, Value::Int(12)),
            Expr::col_eq(0, Value::Int(13)),
            Expr::col_eq(0, Value::Int(14)),
        ]);
        assert!(keys(&e).is_none());
        // A literal of another type than its column: `37.00` is stored.
        assert!(keys(&Expr::col_eq(2, Value::Int(37))).is_none());
        assert!(keys(&Expr::InList(
            Box::new(Expr::Col(2)),
            vec![Value::Float(37.0), Value::Int(38)]
        ))
        .is_none());
    }

    #[test]
    fn like_fragment_key() {
        let e = Expr::Like(Box::new(Expr::Col(1)), "%ANODIZED%".into());
        assert_eq!(
            pattern_keys(&e, &TYPES).unwrap(),
            vec![b"ANODIZED".to_vec()]
        );
        let e = Expr::Like(Box::new(Expr::Col(1)), "PROMO%".into());
        assert_eq!(pattern_keys(&e, &TYPES).unwrap(), vec![b"|PROMO".to_vec()]);
    }

    /// Some key of `keys` occurs in `row`'s on-flash text.
    fn a_key_occurs(keys: &[Vec<u8>], row: &Row) -> bool {
        let text = row_to_text(row);
        keys.iter()
            .any(|k| text.as_bytes().windows(k.len()).any(|w| w == &k[..]))
    }

    #[test]
    fn keys_occur_in_satisfying_rows() {
        // Soundness: any row satisfying the predicate contains a key in its
        // serialized text.
        let e = Expr::And(vec![
            Expr::col_eq(3, Value::date("1995-09-14")),
            Expr::col_cmp(0, CmpOp::Ge, Value::Int(0)),
        ]);
        let keys = pattern_keys(&e, &TYPES).unwrap();
        let r = row();
        assert!(holds(&e, &r));
        assert!(a_key_occurs(&keys, &r));
    }

    /// Years around the ends of the four-digit years, and one in TPC-H's.
    const YEARS: [i32; 4] = [0, 1995, 9999, 10_000];

    /// The day count of `y-m-d`, `m` past 12 rolling into the next year.
    fn day(y: i32, m: u32, d: u32) -> i32 {
        let (y, m) = (y + (m as i32 - 1) / 12, (m - 1) % 12 + 1);
        parse_date(&format!("{y:04}-{m:02}-{d:02}")).unwrap()
    }

    /// Dates in [`YEARS`], at and around month and year boundaries.
    fn date_pool() -> Vec<i32> {
        YEARS
            .iter()
            .flat_map(|&y| [day(y, 1, 1), day(y, 2, 29), day(y, 9, 14), day(y, 12, 31)])
            .collect()
    }

    /// `[lo, hi]` covering one to three whole months, or a whole year, of
    /// one of [`YEARS`].
    fn date_range() -> impl Strategy<Value = (Value, Value)> {
        (proptest::sample::select(YEARS.to_vec()), 1u32..13, 0u32..4).prop_map(|(y, m, k)| {
            if k == 0 {
                (Value::Date(day(y, 1, 1)), Value::Date(day(y, 12, 31)))
            } else {
                (Value::Date(day(y, m, 1)), Value::Date(day(y, m + k, 1) - 1))
            }
        })
    }

    /// A value of any variant, from pools in which values of different
    /// variants compare equal (`Int` 37 and `Float` 37.0, `Int` 0 and
    /// `Float` -0.0, a `Date` and its day count).
    fn value() -> impl Strategy<Value = Value> {
        prop_oneof![
            proptest::sample::select(vec![0i64, 3, 37, 38, 9_374, 9_400]).prop_map(Value::Int),
            proptest::sample::select(vec![0.0, -0.0, 0.05, 3.0, 37.0, 37.5]).prop_map(Value::Float),
            proptest::sample::select(vec!["37", "MAIL", "PROMO TIN", "ab", "1995-09-14"])
                .prop_map(|s| Value::Str(s.to_owned())),
            proptest::sample::select(date_pool()).prop_map(Value::Date),
        ]
    }

    /// A row typed by [`TYPES`].
    fn typed_row() -> impl Strategy<Value = Row> {
        (value(), value(), value(), value()).prop_map(|cells| {
            let cells = [cells.0, cells.1, cells.2, cells.3];
            let pick = |ty: ColumnType| {
                cells
                    .iter()
                    .find(|v| v.column_type() == ty)
                    .cloned()
                    .unwrap_or(match ty {
                        ColumnType::Int => Value::Int(37),
                        ColumnType::Float => Value::Float(-0.0),
                        ColumnType::Str => Value::Str("PROMO TIN".into()),
                        ColumnType::Date => Value::date("1995-09-30"),
                    })
            };
            TYPES.iter().map(|&ty| pick(ty)).collect()
        })
    }

    /// Predicates of the key-yielding shapes, over any column, with
    /// literals of any variant.
    fn keyed_predicate() -> impl Strategy<Value = Expr> {
        let col = || (0usize..4).prop_map(|c| Box::new(Expr::Col(c)));
        let leaf = prop_oneof![
            (0usize..4, value()).prop_map(|(c, v)| Expr::col_eq(c, v)),
            (0usize..4, value()).prop_map(|(c, v)| Expr::Cmp(
                CmpOp::Eq,
                Box::new(Expr::Lit(v)),
                Box::new(Expr::Col(c))
            )),
            (col(), proptest::collection::vec(value(), 1..4))
                .prop_map(|(x, vals)| Expr::InList(x, vals)),
            (
                col(),
                proptest::sample::select(vec!["MA%", "%37%", "37", "PROMO%", "%TIN", "%O%T%"])
            )
                .prop_map(|(x, p)| Expr::Like(x, p.to_owned())),
            (col(), value(), value()).prop_map(|(x, lo, hi)| Expr::Between(x, lo, hi)),
            (col(), date_range()).prop_map(|(x, (lo, hi))| Expr::Between(x, lo, hi)),
        ];
        leaf.prop_recursive(2, 8, 3, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 1..4).prop_map(Expr::And),
                proptest::collection::vec(inner, 1..4).prop_map(Expr::Or),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Soundness of the keys for any literal: wherever the oracle says
        /// the predicate holds, some key occurs in the row's text.
        #[test]
        fn keys_occur_in_every_satisfying_row(
            pred in keyed_predicate(),
            rows in proptest::collection::vec(typed_row(), 1..8),
        ) {
            if let Some(keys) = pattern_keys(&pred, &TYPES) {
                for r in &rows {
                    if tree_walk::eval_bool(&pred, r).unwrap_or(false) {
                        prop_assert!(
                            a_key_occurs(&keys, r),
                            "{:?} holds on {:?} but no key of {:?} occurs",
                            pred,
                            r,
                            keys
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn date_helpers() {
        assert!(is_month_end(parse_date("1995-09-30").unwrap()));
        assert!(!is_month_end(parse_date("1995-09-29").unwrap()));
        assert!(is_month_end(parse_date("1996-02-29").unwrap()));
    }
}
