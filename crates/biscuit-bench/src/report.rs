//! Machine-readable bench reports and the regression gate.
//!
//! Every bench harness assembles a [`BenchReport`]: named scalar results
//! (with the paper's expected value where one exists) plus the metrics
//! snapshot of a representative simulated run. [`BenchReport::write`] emits
//! `BENCH_<id>.json` at the workspace root — same seed, byte-identical
//! output — and `bench_check` (the companion binary, also exposed here as
//! [`check_reports`] / [`update_baseline`]) diffs a set of such files
//! against `benchmarks/baseline.json`, failing when any gated row drifts
//! beyond its tolerance.
//!
//! Tolerances are per row and chosen by the bench author. Every generated
//! workload (TPC-H tables, the social graph, web logs) is a pure function
//! of its seed through `biscuit_sim::rng`, so every virtual-time result is
//! gated tightly ([`GATE_TIGHT`]) and counts gate exactly (`0.0`). A row
//! that cannot gate (wall-clock time) is printed, not reported: the gate
//! refuses any tolerance of `1e6` or more as a placeholder.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use biscuit_sim::metrics::MetricsSnapshot;

/// Default tolerance for rows that are deterministic functions of the
/// simulator (pure virtual-time results): ±2 %.
pub const GATE_TIGHT: f64 = 0.02;

/// Tolerances at or above this gate nothing ("value 1, tol 1e18"): the
/// baseline and report loaders reject them, so a placeholder row can be
/// neither seeded nor checked.
const MAX_TOL: f64 = 1e6;

/// One named result of a bench harness.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Stable machine-readable key, e.g. `h2d_us`.
    pub name: String,
    /// Unit suffix for human readers, e.g. `us`, `GB/s`, `x`.
    pub unit: String,
    /// The paper's expected value, when the paper states one.
    pub paper: Option<f64>,
    /// The simulated result.
    pub measured: f64,
    /// Relative tolerance for the regression gate.
    pub tol: f64,
}

impl BenchRow {
    /// Relative error against the paper value (`None` without one, or when
    /// the paper value is zero).
    pub fn rel_err(&self) -> Option<f64> {
        match self.paper {
            Some(p) if p != 0.0 => Some((self.measured - p) / p),
            _ => None,
        }
    }
}

/// A structured record of one bench harness run.
#[derive(Debug)]
pub struct BenchReport {
    id: String,
    rows: Vec<BenchRow>,
    metrics: Option<MetricsSnapshot>,
}

impl BenchReport {
    /// Starts an empty report for the bench target `id` (the `[[bench]]`
    /// name, e.g. `table2_port_latency`).
    pub fn new(id: &str) -> BenchReport {
        BenchReport {
            id: id.to_owned(),
            rows: Vec::new(),
            metrics: None,
        }
    }

    /// The bench id this report records.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Rows pushed so far, in push order.
    pub fn rows(&self) -> &[BenchRow] {
        &self.rows
    }

    /// Records one result gated at [`GATE_TIGHT`].
    pub fn push(&mut self, name: &str, unit: &str, paper: Option<f64>, measured: f64) {
        self.push_tol(name, unit, paper, measured, GATE_TIGHT);
    }

    /// Records one result with an explicit gate tolerance (`0.0` for
    /// counts that must match exactly).
    pub fn push_tol(
        &mut self,
        name: &str,
        unit: &str,
        paper: Option<f64>,
        measured: f64,
        tol: f64,
    ) {
        debug_assert!(
            !self.rows.iter().any(|r| r.name == name),
            "duplicate bench row '{name}'"
        );
        self.rows.push(BenchRow {
            name: name.to_owned(),
            unit: unit.to_owned(),
            paper,
            measured,
            tol,
        });
    }

    /// Attaches the metrics snapshot of a representative simulated run
    /// (empty snapshots are ignored; the last non-empty one wins).
    pub fn set_metrics(&mut self, snapshot: MetricsSnapshot) {
        if !snapshot.is_empty() {
            self.metrics = Some(snapshot);
        }
    }

    /// Renders the report as deterministic JSON (row order preserved,
    /// metrics keyed and sorted by the registry).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"id\":\"");
        escape_json_into(&mut out, &self.id);
        out.push_str("\",\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            escape_json_into(&mut out, &row.name);
            out.push_str("\",\"unit\":\"");
            escape_json_into(&mut out, &row.unit);
            out.push_str("\",\"paper\":");
            match row.paper {
                Some(p) => push_f64(&mut out, p),
                None => out.push_str("null"),
            }
            out.push_str(",\"measured\":");
            push_f64(&mut out, row.measured);
            out.push_str(",\"rel_err\":");
            match row.rel_err() {
                Some(e) => push_f64(&mut out, e),
                None => out.push_str("null"),
            }
            out.push_str(",\"tol\":");
            push_f64(&mut out, row.tol);
            out.push('}');
        }
        out.push_str("],\"metrics\":");
        match &self.metrics {
            Some(snap) => out.push_str(&snap.to_json()),
            None => out.push_str("null"),
        }
        // Silent trace truncation must be visible in the artifact: when the
        // representative run's ring buffer overflowed, the report says so.
        let dropped = self
            .metrics
            .as_ref()
            .map_or(0, |s| s.counter_sum("trace_dropped_total"));
        if dropped > 0 {
            let _ = write!(out, ",\"dropped\":{dropped}");
        }
        out.push_str("}\n");
        out
    }

    /// The file this report writes to: `BENCH_<id>.json` in
    /// [`bench_output_dir`].
    pub fn path(&self) -> PathBuf {
        bench_output_dir().join(format!("BENCH_{}.json", self.id))
    }

    /// Writes `BENCH_<id>.json` and returns its path.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn write(&self) -> PathBuf {
        let path = self.path();
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(&path, self.to_json())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("\nwrote {}", path.display());
        path
    }
}

/// Where bench reports land: `$BISCUIT_BENCH_DIR` when set, else the
/// workspace root (resolved from the crate's manifest location under
/// cargo, or by walking up from the current directory looking for a
/// `benchmarks/` folder next to a `Cargo.toml`).
pub fn bench_output_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("BISCUIT_BENCH_DIR") {
        if !dir.is_empty() {
            return PathBuf::from(dir);
        }
    }
    if let Some(manifest) = option_env!("CARGO_MANIFEST_DIR") {
        if let Some(ws) = Path::new(manifest).parent().and_then(Path::parent) {
            return ws.to_path_buf();
        }
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    for dir in cwd.ancestors() {
        if dir.join("benchmarks").is_dir() && dir.join("Cargo.toml").is_file() {
            return dir.to_path_buf();
        }
    }
    cwd
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Shortest-roundtrip formatting: deterministic and re-parseable.
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn escape_json_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON reader (the workspace deliberately has no serde_json; bench
// reports and baselines are small and the grammar subset below covers them).
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also produced for non-finite numbers on the write side).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a position-annotated message on malformed input.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected '{lit}' at byte {}", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number '{text}' at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        // Surrogate pairs never appear in our own output.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy one UTF-8 scalar (multi-byte sequences arrive intact).
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().expect("nonempty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        members.push((key, parse_value(b, pos)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

// ---------------------------------------------------------------------------
// The regression gate.
// ---------------------------------------------------------------------------

/// Result of comparing a directory of `BENCH_*.json` files against a
/// committed baseline.
#[derive(Debug)]
pub struct CheckOutcome {
    /// True when every gated row of every baseline bench is within
    /// tolerance.
    pub passed: bool,
    /// Human-readable per-row verdicts (print them).
    pub lines: Vec<String>,
}

#[derive(Debug)]
struct BaselineRow {
    value: f64,
    tol: f64,
}

type Baseline = BTreeMap<String, BTreeMap<String, BaselineRow>>;

fn load_baseline(path: &Path) -> Result<Baseline, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let doc = parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let benches = doc
        .get("benches")
        .ok_or_else(|| format!("{}: missing 'benches'", path.display()))?;
    let Json::Obj(members) = benches else {
        return Err(format!("{}: 'benches' is not an object", path.display()));
    };
    let mut out = Baseline::new();
    for (id, rows) in members {
        let Json::Obj(row_members) = rows else {
            return Err(format!("{}: bench '{id}' is not an object", path.display()));
        };
        let mut bench = BTreeMap::new();
        for (name, entry) in row_members {
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{}: {id}/{name}: missing 'value'", path.display()))?;
            let tol = entry
                .get("tol")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{}: {id}/{name}: missing 'tol'", path.display()))?;
            reject_placeholder(tol, path, &format!("{id}/{name}"))?;
            bench.insert(name.clone(), BaselineRow { value, tol });
        }
        out.insert(id.clone(), bench);
    }
    Ok(out)
}

fn reject_placeholder(tol: f64, path: &Path, row: &str) -> Result<(), String> {
    if tol < MAX_TOL {
        Ok(())
    } else {
        Err(format!(
            "{}: {row}: tol {tol} gates nothing (must be below {MAX_TOL}); \
             record the real value with a real tolerance, or do not report the row",
            path.display()
        ))
    }
}

/// Parses one `BENCH_<id>.json` into `(row name -> (measured, tol))`.
fn load_report_rows(path: &Path) -> Result<BTreeMap<String, (f64, f64)>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let doc = parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: missing 'rows'", path.display()))?;
    let mut out = BTreeMap::new();
    for row in rows {
        let name = row
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: row without 'name'", path.display()))?;
        let measured = row
            .get("measured")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{}: row '{name}' without 'measured'", path.display()))?;
        let tol = row.get("tol").and_then(Json::as_f64).unwrap_or(GATE_TIGHT);
        reject_placeholder(tol, path, name)?;
        out.insert(name.to_owned(), (measured, tol));
    }
    Ok(out)
}

/// Compares every bench recorded in `baseline_path` against the matching
/// `BENCH_<id>.json` under `reports_dir`. A baseline bench without a report
/// file, a baseline row missing from its report, or a row outside
/// `|measured - value| <= tol * max(|value|, 1e-9)` fails the gate. Rows
/// present in a report but absent from the baseline are listed as new and
/// do not fail (commit an updated baseline to start gating them).
///
/// # Errors
///
/// Returns an error for unreadable or malformed files.
pub fn check_reports(baseline_path: &Path, reports_dir: &Path) -> Result<CheckOutcome, String> {
    check_reports_only(baseline_path, reports_dir, &[])
}

/// Like [`check_reports`], but gates only the baseline benches named in
/// `only` (all of them when `only` is empty). Lets a smoke job that ran
/// a single harness gate just that harness's rows without regenerating
/// every other report:
///
/// ```text
/// cargo bench -p biscuit-bench --bench qos
/// cargo run -p biscuit-bench --bin bench_check -- --only qos
/// ```
///
/// # Errors
///
/// Returns an error for unreadable or malformed files, or when a name
/// in `only` has no bench in the baseline (catching typos rather than
/// silently gating nothing).
pub fn check_reports_only(
    baseline_path: &Path,
    reports_dir: &Path,
    only: &[String],
) -> Result<CheckOutcome, String> {
    let mut baseline = load_baseline(baseline_path)?;
    for id in only {
        if !baseline.contains_key(id) {
            return Err(format!(
                "--only {id}: no such bench in {} (known: {})",
                baseline_path.display(),
                baseline.keys().cloned().collect::<Vec<_>>().join(", ")
            ));
        }
    }
    if !only.is_empty() {
        baseline.retain(|id, _| only.iter().any(|o| o == id));
    }
    let mut lines = Vec::new();
    let mut passed = true;
    for (id, rows) in &baseline {
        let report_path = reports_dir.join(format!("BENCH_{id}.json"));
        if !report_path.is_file() {
            lines.push(format!(
                "FAIL {id}: report {} not found (run `cargo bench --workspace` first)",
                report_path.display()
            ));
            passed = false;
            continue;
        }
        let measured = load_report_rows(&report_path)?;
        for (name, base) in rows {
            match measured.get(name) {
                None => {
                    lines.push(format!("FAIL {id}/{name}: row missing from report"));
                    passed = false;
                }
                Some(&(value, _)) => {
                    let bound = base.tol * base.value.abs().max(1e-9);
                    let delta = value - base.value;
                    if delta.abs() <= bound {
                        lines.push(format!(
                            "ok   {id}/{name}: {value} (baseline {}, tol ±{:.1}%)",
                            base.value,
                            base.tol * 100.0
                        ));
                    } else {
                        lines.push(format!(
                            "FAIL {id}/{name}: {value} drifted from baseline {} by {:+.1}% (tol ±{:.1}%)",
                            base.value,
                            delta / base.value.abs().max(1e-9) * 100.0,
                            base.tol * 100.0
                        ));
                        passed = false;
                    }
                }
            }
        }
        for name in measured.keys() {
            if !rows.contains_key(name) {
                lines.push(format!("new  {id}/{name}: not in baseline (unchecked)"));
            }
        }
    }
    Ok(CheckOutcome { passed, lines })
}

/// Rebuilds `baseline_path` from every `BENCH_*.json` under `reports_dir`,
/// carrying each row's tolerance from its report. Returns the number of
/// benches recorded.
///
/// # Errors
///
/// Returns an error for unreadable or malformed report files, or when no
/// reports exist.
pub fn update_baseline(baseline_path: &Path, reports_dir: &Path) -> Result<usize, String> {
    let mut ids = Vec::new();
    let entries = std::fs::read_dir(reports_dir)
        .map_err(|e| format!("reading {}: {e}", reports_dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(id) = name
            .strip_prefix("BENCH_")
            .and_then(|rest| rest.strip_suffix(".json"))
        {
            ids.push(id.to_owned());
        }
    }
    if ids.is_empty() {
        return Err(format!(
            "no BENCH_*.json files under {} (run `cargo bench --workspace` first)",
            reports_dir.display()
        ));
    }
    ids.sort();
    let mut out = String::from("{\"benches\":{");
    for (i, id) in ids.iter().enumerate() {
        let rows = load_report_rows(&reports_dir.join(format!("BENCH_{id}.json")))?;
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_json_into(&mut out, id);
        out.push_str("\":{");
        for (j, (name, (value, tol))) in rows.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json_into(&mut out, name);
            out.push_str("\":{\"value\":");
            push_f64(&mut out, *value);
            out.push_str(",\"tol\":");
            push_f64(&mut out, *tol);
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("}}\n");
    if let Some(parent) = baseline_path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("creating {}: {e}", parent.display()))?;
    }
    std::fs::write(baseline_path, out)
        .map_err(|e| format!("writing {}: {e}", baseline_path.display()))?;
    Ok(ids.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_shape_and_rel_err() {
        let mut r = BenchReport::new("demo");
        r.push("lat_us", "us", Some(100.0), 98.0);
        r.push_tol("speedup", "x", None, 5.0, 0.5);
        let json = r.to_json();
        let doc = parse_json(&json).expect("valid JSON");
        assert_eq!(doc.get("id").and_then(Json::as_str), Some("demo"));
        let rows = doc.get("rows").and_then(Json::as_arr).expect("rows");
        assert_eq!(rows.len(), 2);
        let e = rows[0].get("rel_err").and_then(Json::as_f64).expect("err");
        assert!((e + 0.02).abs() < 1e-12);
        assert_eq!(rows[1].get("paper"), Some(&Json::Null));
        assert_eq!(doc.get("metrics"), Some(&Json::Null));
    }

    #[test]
    fn report_json_is_deterministic() {
        let build = || {
            let mut r = BenchReport::new("det");
            r.push("a", "us", Some(1.5), 1.25);
            r.push("b", "s", None, 0.125);
            r.to_json()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn parser_round_trips_scalars() {
        let doc = parse_json(r#"{"a":[1,2.5,-3e2],"b":"x\"y","c":null,"d":true}"#).unwrap();
        assert_eq!(
            doc.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(
            doc.get("a").unwrap().as_arr().unwrap()[2],
            Json::Num(-300.0)
        );
        assert_eq!(doc.get("b").and_then(Json::as_str), Some("x\"y"));
        assert_eq!(doc.get("c"), Some(&Json::Null));
        assert_eq!(doc.get("d"), Some(&Json::Bool(true)));
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("1 2").is_err());
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let dir = std::env::temp_dir().join(format!("biscuit-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut r = BenchReport::new("gatecase");
        r.push("lat_us", "us", Some(100.0), 100.0);
        std::fs::write(dir.join("BENCH_gatecase.json"), r.to_json()).unwrap();
        let baseline = dir.join("baseline.json");
        assert_eq!(update_baseline(&baseline, &dir).unwrap(), 1);

        // In tolerance: 1% drift under a 2% gate.
        let mut r2 = BenchReport::new("gatecase");
        r2.push("lat_us", "us", Some(100.0), 101.0);
        std::fs::write(dir.join("BENCH_gatecase.json"), r2.to_json()).unwrap();
        assert!(check_reports(&baseline, &dir).unwrap().passed);

        // Out of tolerance: 10% drift.
        let mut r3 = BenchReport::new("gatecase");
        r3.push("lat_us", "us", Some(100.0), 110.0);
        std::fs::write(dir.join("BENCH_gatecase.json"), r3.to_json()).unwrap();
        let out = check_reports(&baseline, &dir).unwrap();
        assert!(!out.passed);
        assert!(out.lines.iter().any(|l| l.starts_with("FAIL")));

        // Missing report file fails.
        std::fs::remove_file(dir.join("BENCH_gatecase.json")).unwrap();
        assert!(!check_reports(&baseline, &dir).unwrap().passed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn placeholder_tolerances_are_rejected_in_reports_and_baselines() {
        let dir = std::env::temp_dir().join(format!("biscuit-gate-tol-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let baseline = dir.join("baseline.json");
        let mut r = BenchReport::new("wide");
        r.push_tol("anything", "", None, 1.0, 1e18);
        std::fs::write(dir.join("BENCH_wide.json"), r.to_json()).unwrap();
        // A placeholder cannot be seeded...
        let err = update_baseline(&baseline, &dir).unwrap_err();
        assert!(
            err.contains("anything") && err.contains("gates nothing"),
            "{err}"
        );
        // ...and a hand-written one cannot be checked against.
        std::fs::write(
            &baseline,
            r#"{"benches":{"wide":{"anything":{"value":1,"tol":1e6}}}}"#,
        )
        .unwrap();
        let err = check_reports(&baseline, &dir).unwrap_err();
        assert!(err.contains("wide/anything"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gate_only_filters_baseline_benches() {
        let dir = std::env::temp_dir().join(format!("biscuit-gate-only-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut a = BenchReport::new("alpha");
        a.push("x", "us", None, 1.0);
        std::fs::write(dir.join("BENCH_alpha.json"), a.to_json()).unwrap();
        let mut b = BenchReport::new("beta");
        b.push("y", "us", None, 2.0);
        std::fs::write(dir.join("BENCH_beta.json"), b.to_json()).unwrap();
        let baseline = dir.join("baseline.json");
        assert_eq!(update_baseline(&baseline, &dir).unwrap(), 2);

        // Without beta's report the full gate fails...
        std::fs::remove_file(dir.join("BENCH_beta.json")).unwrap();
        assert!(!check_reports(&baseline, &dir).unwrap().passed);
        // ...but gating only alpha passes, and an unknown id errors.
        let only = vec!["alpha".to_owned()];
        let outcome = check_reports_only(&baseline, &dir, &only).unwrap();
        assert!(outcome.passed);
        assert!(outcome.lines.iter().all(|l| !l.contains("beta")));
        assert!(check_reports_only(&baseline, &dir, &["nope".to_owned()]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
