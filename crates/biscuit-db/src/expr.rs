//! Scalar expressions: evaluation, SQL `LIKE`, and pattern-key extraction
//! for the NDP offload planner.
//!
//! Key extraction is the compatibility analysis the paper's modified query
//! planner performs (§V-C): a filter predicate is pattern-matcher friendly
//! only if a small set of byte keys (≤3 keys, ≤16 bytes each) is guaranteed
//! to occur in the on-flash text of *every* satisfying row. Predicates the
//! hardware cannot help with — `NOT LIKE`, inequalities over wide ranges,
//! single-character literals — yield no keys, and the planner keeps those
//! scans on the host, exactly like the eight non-offloaded TPC-H queries in
//! Fig. 10.

use crate::error::{DbError, DbResult};
use crate::value::{format_date, year_of, Row, Value};

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

    /// Evaluates against a row.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::TypeError`] on incomparable operands.
    pub fn eval(&self, row: &Row) -> DbResult<Value> {
        match self {
            Expr::Col(i) => row
                .get(*i)
                .cloned()
                .ok_or_else(|| DbError::TypeError(format!("column {i} out of range"))),
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Cmp(..)
            | Expr::And(_)
            | Expr::Or(_)
            | Expr::Not(_)
            | Expr::Like(..)
            | Expr::NotLike(..)
            | Expr::InList(..)
            | Expr::Between(..) => Ok(Value::Int(i64::from(self.eval_bool(row)?))),
            Expr::Arith(op, a, b) => {
                let (x, y) = (a.eval_cow(row)?, b.eval_cow(row)?);
                let (x, y) = (
                    x.as_f64()
                        .ok_or_else(|| DbError::TypeError("arith on non-number".into()))?,
                    y.as_f64()
                        .ok_or_else(|| DbError::TypeError("arith on non-number".into()))?,
                );
                Ok(Value::Float(op.apply(x, y)))
            }
            Expr::Year(x) => match x.eval_cow(row)?.as_ref() {
                Value::Date(d) => Ok(Value::Int(i64::from(year_of(*d)))),
                other => Err(DbError::TypeError(format!("YEAR of non-date {other:?}"))),
            },
            Expr::Case(cond, then, otherwise) => {
                if cond.eval_bool(row)? {
                    then.eval(row)
                } else {
                    otherwise.eval(row)
                }
            }
            Expr::Prefix(x, n) => {
                let v = x.eval_cow(row)?;
                let s = v
                    .as_str()
                    .ok_or_else(|| DbError::TypeError("PREFIX of non-string".into()))?;
                let cut = s.char_indices().nth(*n).map_or(s.len(), |(i, _)| i);
                Ok(Value::Str(s[..cut].to_owned()))
            }
        }
    }

    /// Evaluates to a borrowed value when the expression is a plain column
    /// reference or literal — the overwhelmingly common operand shape in
    /// predicates — and to an owned value otherwise. Keeps per-row predicate
    /// evaluation from cloning cell contents (string columns in particular)
    /// just to compare them.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::TypeError`] as for [`Expr::eval`].
    pub(crate) fn eval_cow<'a>(&'a self, row: &'a Row) -> DbResult<std::borrow::Cow<'a, Value>> {
        match self {
            Expr::Col(i) => row
                .get(*i)
                .map(std::borrow::Cow::Borrowed)
                .ok_or_else(|| DbError::TypeError(format!("column {i} out of range"))),
            Expr::Lit(v) => Ok(std::borrow::Cow::Borrowed(v)),
            other => Ok(std::borrow::Cow::Owned(other.eval(row)?)),
        }
    }

    /// Evaluates as a boolean (nonzero numeric = true). Comparisons,
    /// connectives and the string and set tests evaluate here, straight to
    /// `bool`; [`Expr::eval`] of them is this as `Int` 0 or 1.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::TypeError`] as for [`Expr::eval`].
    pub fn eval_bool(&self, row: &Row) -> DbResult<bool> {
        match self {
            Expr::Cmp(op, a, b) => {
                let (a, b) = (a.eval_cow(row)?, b.eval_cow(row)?);
                let ord = a
                    .compare(&b)
                    .ok_or_else(|| DbError::TypeError(format!("cannot compare {a:?} and {b:?}")))?;
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
                    if !x.eval_bool(row)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Expr::Or(xs) => {
                for x in xs {
                    if x.eval_bool(row)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Expr::Not(x) => Ok(!x.eval_bool(row)?),
            Expr::Like(x, pat) => {
                let v = x.eval_cow(row)?;
                let s = v
                    .as_str()
                    .ok_or_else(|| DbError::TypeError("LIKE on non-string".into()))?;
                Ok(like_match(s, pat))
            }
            Expr::NotLike(x, pat) => {
                let v = x.eval_cow(row)?;
                let s = v
                    .as_str()
                    .ok_or_else(|| DbError::TypeError("NOT LIKE on non-string".into()))?;
                Ok(!like_match(s, pat))
            }
            Expr::InList(x, vals) => {
                let v = x.eval_cow(row)?;
                Ok(vals
                    .iter()
                    .any(|c| v.compare(c).map(|o| o.is_eq()).unwrap_or(false)))
            }
            Expr::Between(x, lo, hi) => {
                let v = x.eval_cow(row)?;
                let ge = v
                    .compare(lo)
                    .map(|o| o.is_ge())
                    .ok_or_else(|| DbError::TypeError("BETWEEN on incomparable values".into()))?;
                let le = v
                    .compare(hi)
                    .map(|o| o.is_le())
                    .ok_or_else(|| DbError::TypeError("BETWEEN on incomparable values".into()))?;
                Ok(ge && le)
            }
            _ => {
                let v = self.eval(row)?;
                v.as_f64()
                    .map(|x| x != 0.0)
                    .ok_or_else(|| DbError::TypeError(format!("non-boolean predicate value {v:?}")))
            }
        }
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

/// SQL `LIKE` with `%` wildcards only.
pub(crate) fn like_match(s: &str, pattern: &str) -> bool {
    LikePattern::new(pattern).matches(s)
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
pub fn pattern_keys(expr: &Expr) -> Option<Vec<Vec<u8>>> {
    let keys = extract(expr)?;
    if !keys_valid(&keys) {
        return None;
    }
    Some(keys)
}

/// Column-literal key including the pipe frame: `|value|`.
fn framed(lit: &Value) -> Vec<u8> {
    format!("|{}|", lit.to_text()).into_bytes()
}

/// Prefix key for a value: `|prefix` (matches any column starting with it).
fn prefix_key(prefix: &str) -> Vec<u8> {
    format!("|{prefix}").into_bytes()
}

fn extract(expr: &Expr) -> Option<Vec<Vec<u8>>> {
    match expr {
        Expr::Cmp(CmpOp::Eq, a, b) => match (&**a, &**b) {
            (Expr::Col(_), Expr::Lit(v)) | (Expr::Lit(v), Expr::Col(_)) => Some(vec![framed(v)]),
            _ => None,
        },
        Expr::InList(x, vals) => {
            if !matches!(**x, Expr::Col(_)) || vals.len() > MAX_KEYS {
                return None;
            }
            Some(vals.iter().map(framed).collect())
        }
        Expr::Like(x, pat) if matches!(**x, Expr::Col(_)) => like_key(pat),
        Expr::Between(x, lo, hi) => {
            if !matches!(**x, Expr::Col(_)) {
                return None;
            }
            let prefixes = date_range_prefixes(lo, hi)?;
            Some(prefixes.iter().map(|p| prefix_key(p)).collect())
        }
        Expr::And(xs) => {
            // Any single conjunct's keys over-approximate the conjunction;
            // among hardware-valid candidates, prefer the longest (most
            // selective).
            xs.iter()
                .filter_map(extract)
                .filter(|keys| keys_valid(keys))
                .max_by_key(|keys| keys.iter().map(Vec::len).min().unwrap_or(0))
        }
        Expr::Or(xs) => {
            // Every branch must contribute keys.
            let mut all = Vec::new();
            for x in xs {
                all.extend(extract(x)?);
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
    use crate::value::parse_date;

    fn row() -> Row {
        vec![
            Value::Int(3),
            Value::Str("PROMO ANODIZED".into()),
            Value::Float(0.05),
            Value::date("1995-09-14"),
        ]
    }

    #[test]
    fn comparisons() {
        let r = row();
        assert!(Expr::col_eq(0, Value::Int(3)).eval_bool(&r).unwrap());
        assert!(Expr::col_cmp(2, CmpOp::Le, Value::Float(0.05))
            .eval_bool(&r)
            .unwrap());
        assert!(!Expr::col_cmp(3, CmpOp::Lt, Value::date("1995-09-14"))
            .eval_bool(&r)
            .unwrap());
    }

    #[test]
    fn boolean_combinators() {
        let r = row();
        let t = Expr::col_eq(0, Value::Int(3));
        let f = Expr::col_eq(0, Value::Int(4));
        assert!(Expr::And(vec![t.clone(), t.clone()]).eval_bool(&r).unwrap());
        assert!(!Expr::And(vec![t.clone(), f.clone()]).eval_bool(&r).unwrap());
        assert!(Expr::Or(vec![f.clone(), t.clone()]).eval_bool(&r).unwrap());
        assert!(Expr::Not(Box::new(f)).eval_bool(&r).unwrap());
    }

    #[test]
    fn like_semantics() {
        assert!(like_match("PROMO ANODIZED", "PROMO%"));
        assert!(like_match("PROMO ANODIZED", "%ANODIZED"));
        assert!(like_match("PROMO ANODIZED", "%MO ANO%"));
        assert!(like_match("special requests here", "%special%requests%"));
        assert!(!like_match("requests special", "%special%requests%"));
        assert!(like_match("exact", "exact"));
        assert!(!like_match("exactx", "exact"));
        assert!(like_match("anything", "%"));
    }

    #[test]
    fn between_and_in() {
        let r = row();
        assert!(Expr::Between(
            Box::new(Expr::Col(3)),
            Value::date("1995-09-01"),
            Value::date("1995-09-30"),
        )
        .eval_bool(&r)
        .unwrap());
        assert!(
            Expr::InList(Box::new(Expr::Col(0)), vec![Value::Int(1), Value::Int(3)])
                .eval_bool(&r)
                .unwrap()
        );
    }

    #[test]
    fn arithmetic() {
        let r = row();
        let e = Expr::Arith(
            ArithOp::Mul,
            Box::new(Expr::Col(2)),
            Box::new(Expr::Lit(Value::Float(100.0))),
        );
        assert_eq!(e.eval(&r).unwrap(), Value::Float(5.0));
    }

    #[test]
    fn equality_yields_framed_key() {
        let e = Expr::col_eq(3, Value::date("1995-01-17"));
        assert_eq!(pattern_keys(&e).unwrap(), vec![b"|1995-01-17|".to_vec()]);
    }

    #[test]
    fn or_of_equalities_yields_multiple_keys() {
        let e = Expr::Or(vec![
            Expr::col_eq(3, Value::date("1995-01-17")),
            Expr::col_eq(3, Value::date("1995-01-18")),
        ]);
        assert_eq!(pattern_keys(&e).unwrap().len(), 2);
    }

    #[test]
    fn and_picks_a_keyed_conjunct() {
        let e = Expr::And(vec![
            Expr::col_cmp(2, CmpOp::Lt, Value::Float(0.07)), // no keys
            Expr::col_eq(3, Value::date("1995-01-17")),      // keys
        ]);
        assert_eq!(pattern_keys(&e).unwrap(), vec![b"|1995-01-17|".to_vec()]);
    }

    #[test]
    fn month_range_becomes_prefix_key() {
        let e = Expr::Between(
            Box::new(Expr::Col(3)),
            Value::date("1995-09-01"),
            Value::date("1995-09-30"),
        );
        assert_eq!(pattern_keys(&e).unwrap(), vec![b"|1995-09".to_vec()]);
    }

    #[test]
    fn year_range_becomes_prefix_key() {
        let e = Expr::Between(
            Box::new(Expr::Col(3)),
            Value::date("1995-01-01"),
            Value::date("1995-12-31"),
        );
        assert_eq!(pattern_keys(&e).unwrap(), vec![b"|1995-".to_vec()]);
    }

    #[test]
    fn unfriendly_predicates_yield_no_keys() {
        // Open range: no keys.
        assert!(pattern_keys(&Expr::col_cmp(3, CmpOp::Le, Value::date("1998-09-02"))).is_none());
        // NOT LIKE: the hardware cannot prove absence.
        assert!(pattern_keys(&Expr::NotLike(Box::new(Expr::Col(1)), "%special%".into())).is_none());
        // Single-character literal: rejected as in the paper.
        assert!(pattern_keys(&Expr::col_eq(1, Value::Str("x".into()))).is_none());
        // Too many OR branches.
        let e = Expr::Or(vec![
            Expr::col_eq(0, Value::Int(11)),
            Expr::col_eq(0, Value::Int(12)),
            Expr::col_eq(0, Value::Int(13)),
            Expr::col_eq(0, Value::Int(14)),
        ]);
        assert!(pattern_keys(&e).is_none());
    }

    #[test]
    fn like_fragment_key() {
        let e = Expr::Like(Box::new(Expr::Col(1)), "%ANODIZED%".into());
        assert_eq!(pattern_keys(&e).unwrap(), vec![b"ANODIZED".to_vec()]);
        let e = Expr::Like(Box::new(Expr::Col(1)), "PROMO%".into());
        assert_eq!(pattern_keys(&e).unwrap(), vec![b"|PROMO".to_vec()]);
    }

    #[test]
    fn keys_occur_in_satisfying_rows() {
        // Soundness: any row satisfying the predicate contains a key in its
        // serialized text.
        use crate::value::row_to_text;
        let e = Expr::And(vec![
            Expr::col_eq(3, Value::date("1995-09-14")),
            Expr::col_cmp(0, CmpOp::Ge, Value::Int(0)),
        ]);
        let keys = pattern_keys(&e).unwrap();
        let r = row();
        assert!(e.eval_bool(&r).unwrap());
        let text = row_to_text(&r);
        assert!(keys
            .iter()
            .any(|k| text.as_bytes().windows(k.len()).any(|w| w == &k[..])));
    }

    #[test]
    fn date_helpers() {
        assert!(is_month_end(parse_date("1995-09-30").unwrap()));
        assert!(!is_month_end(parse_date("1995-09-29").unwrap()));
        assert!(is_month_end(parse_date("1996-02-29").unwrap()));
    }
}
