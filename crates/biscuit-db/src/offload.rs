//! The device-side scan-and-filter SSDlet — what the modified MariaDB
//! pushes down to the SSD (paper §V-C).
//!
//! The SSDlet streams the table file through the per-channel pattern
//! matcher; pages with key hits are examined on the device CPU: candidate
//! rows (the lines containing hits) are parsed and the *full* predicate is
//! verified per row, so only genuinely qualifying rows cross the link, in
//! batches, through a device-to-host port.
//!
//! Both SSDlets evaluate through [`Program`], the evaluator the host
//! executor runs ([`crate::program`]), so the device and the host agree on
//! what a predicate means by construction. The scan filter lowers its
//! predicate once per run and evaluates it over a one-row [`Cells`] view
//! of each candidate line: the predicate's columns parsed from the line's
//! field slices as borrowed [`Cell`]s, placeholders for the rest. The
//! aggregator lowers its inputs once and folds each batch it receives
//! through them.

use biscuit_core::module::{ModuleBuilder, SsdletSpec};
use biscuit_core::task::{args_as, Ssdlet, TaskCtx};
use biscuit_core::SsdletModule;
use biscuit_fs::File;
use biscuit_ssd::pattern::{PatternLimits, PatternSet};

use crate::column::Cells;
use crate::expr::Expr;
use crate::program::Program;
use crate::value::{fields, row_from_text, Cell, ColumnType, Row};

/// Arguments handed to the scan SSDlet at instantiation.
#[derive(Debug, Clone)]
pub(crate) struct ScanArgs {
    /// The table file (read-only handle inherited from the host program).
    pub file: File,
    /// Column types for row parsing.
    pub types: Vec<ColumnType>,
    /// The full predicate, verified per candidate row on the device CPU.
    pub predicate: Expr,
    /// Pattern-matcher keys (already validated by the planner).
    pub keys: Vec<Vec<u8>>,
    /// Rows per device-to-host batch.
    pub batch_rows: usize,
    /// Pages per internal scan request.
    pub request_pages: usize,
    /// Outstanding internal scan requests.
    pub queue_depth: usize,
}

/// SSDlet identifier inside [`scan_module`].
pub(crate) const SCAN_FILTER_ID: &str = "idScanFilter";

/// SSDlet identifier of the on-device aggregator inside [`scan_module`].
pub(crate) const AGGREGATE_ID: &str = "idAggregate";

/// Arguments for the on-device aggregation SSDlet.
#[derive(Debug, Clone)]
pub(crate) struct AggArgs {
    /// Aggregate functions and their input expressions over the scanned
    /// table's rows.
    pub aggs: Vec<(crate::spec::AggFun, Expr)>,
}

/// Builds the `dbscan` module: the scan-filter SSDlet plus the on-device
/// aggregator it can feed over an inter-SSDlet port (the Fig. 3 dataflow:
/// "retrieving intermediate/final computational results only").
pub(crate) fn scan_module() -> SsdletModule {
    ModuleBuilder::new("dbscan")
        .binary_size(192 << 10)
        .register(
            SCAN_FILTER_ID,
            SsdletSpec::new().output::<Vec<Row>>().memory(1 << 20),
            |args| {
                let args = args_as::<ScanArgs>(args)?;
                Ok(Box::new(ScanFilter { args }))
            },
        )
        .register(
            AGGREGATE_ID,
            SsdletSpec::new()
                .input::<Vec<Row>>()
                .output::<Vec<Row>>()
                .memory(256 << 10),
            |args| {
                let args = args_as::<AggArgs>(args)?;
                Ok(Box::new(Aggregator { args }))
            },
        )
        .build()
}

/// Streams row batches from the scan SSDlet, folds them into aggregate
/// states on the device CPU, and emits a single result row at end of
/// stream — so only one row ever crosses the host interface.
struct Aggregator {
    args: AggArgs,
}

impl Ssdlet for Aggregator {
    fn run(&mut self, ctx: &mut TaskCtx<'_>) {
        let aggs = &self.args.aggs;
        let inputs: Vec<Program<'_>> = aggs.iter().map(|(_, e)| Program::new(e)).collect();
        let mut states: Vec<crate::exec::AggState> = aggs
            .iter()
            .map(|(fun, _)| crate::exec::AggState::new(*fun))
            .collect();
        // The first evaluation error stops the fold, but the input is still
        // drained so the scan's sends never fail. No result row is sent
        // then: the host reads that as a failed pushdown and runs the query
        // on its own path, which reports the error.
        let mut folding = true;
        while let Some(batch) = ctx.recv::<Vec<Row>>(0).expect("typed input") {
            ctx.compute_bytes((batch.len() * 16 * aggs.len()) as u64);
            folding = folding
                && (0..batch.len()).all(|row| {
                    inputs.iter().zip(states.iter_mut()).all(|(input, st)| {
                        input.eval(&batch[..], row).map(|v| st.update(v)).is_ok()
                    })
                });
        }
        if folding {
            let row: Row = states.iter().map(crate::exec::AggState::finish).collect();
            ctx.send(0, vec![row]).expect("host port open");
        }
    }
}

struct ScanFilter {
    args: ScanArgs,
}

impl Ssdlet for ScanFilter {
    fn run(&mut self, ctx: &mut TaskCtx<'_>) {
        let limits = PatternLimits {
            max_keys: ctx.device().config().pm_max_keys,
            max_key_len: ctx.device().config().pm_max_key_len,
        };
        let pattern = PatternSet::new(self.args.keys.clone(), limits)
            .expect("planner validated the keys against hardware limits");
        let hits = self
            .args
            .file
            .scan(
                ctx.sim(),
                &pattern,
                self.args.request_pages,
                self.args.queue_depth,
            )
            .expect("scan of a catalog table file");
        let filter = LineFilter::new(&self.args.types, &self.args.predicate);
        let mut batch: Vec<Row> = Vec::with_capacity(self.args.batch_rows);
        for (_page_idx, page) in hits {
            let offsets = pattern.find_all(&page);
            let mut charged = 0u64;
            for (start, end) in candidate_lines(&page, &offsets) {
                charged += (end - start) as u64;
                let Some(row) = filter.ship(&page[start..end]) else {
                    continue;
                };
                batch.push(row);
                if batch.len() >= self.args.batch_rows {
                    let full =
                        std::mem::replace(&mut batch, Vec::with_capacity(self.args.batch_rows));
                    ctx.send(0, full).expect("host port open while scanning");
                }
            }
            // Device CPU pays for parsing/verifying the candidate lines.
            ctx.compute_bytes(charged);
        }
        if !batch.is_empty() {
            ctx.send(0, batch).expect("host port open while scanning");
        }
    }
}

/// The scan filter's verdict on one candidate line, reading field slices
/// of the page: only the columns the predicate reads are parsed, and the
/// full row is built only for a line that ships.
struct LineFilter<'a> {
    types: &'a [ColumnType],
    /// The predicate, lowered once per SSDlet run.
    program: Program<'a>,
    /// `reads[c]`: the predicate reads column `c`.
    reads: Vec<bool>,
}

/// One candidate line as a one-row [`Cells`] source: the predicate's
/// columns parsed, placeholders (`Int` 0) for the cells it never reads.
struct Line<'l>(Vec<Cell<'l>>);

impl Cells for Line<'_> {
    fn cell(&self, row: usize, col: usize) -> Option<Cell<'_>> {
        assert_eq!(row, 0, "a line is one row");
        self.0.get(col).copied()
    }

    fn width(&self, _row: usize) -> usize {
        self.0.len()
    }
}

impl<'a> LineFilter<'a> {
    fn new(types: &'a [ColumnType], predicate: &'a Expr) -> Self {
        let mut cols = Vec::new();
        predicate.columns(&mut cols);
        LineFilter {
            types,
            program: Program::new(predicate),
            reads: (0..types.len()).map(|c| cols.contains(&c)).collect(),
        }
    }

    /// The row `line` ships as, or `None` if it is dropped. A line ships iff
    /// it is UTF-8, [`row_from_text`] parses it with its `~` padding
    /// trimmed, and the predicate holds on that row without error; it
    /// ships as that row. Padding fragments and key hits inside padding
    /// fail the framing.
    fn ship(&self, line: &[u8]) -> Option<Row> {
        let line = std::str::from_utf8(line).ok()?.trim_end_matches('~');
        let mut fields = fields(line)?;
        let mut cells = Vec::with_capacity(self.types.len());
        for (&ty, &reads) in self.types.iter().zip(&self.reads) {
            let f = fields.next()?;
            cells.push(if reads {
                Cell::parse(ty, f)?
            } else {
                Cell::Int(0)
            });
        }
        if fields.next().is_some() || !self.program.eval_bool(&Line(cells), 0).unwrap_or(false) {
            return None;
        }
        // Parses the columns outside the predicate too: one that does not
        // parse still drops the line.
        row_from_text(self.types, line)
    }
}

/// Line spans (start..end, exclusive of `\n`) containing any of `offsets`,
/// deduplicated and in page order. A hit on a `\n` byte belongs to the line
/// that byte ends. `offsets` must ascend, as [`PatternSet::find_all`]
/// returns them: one forward sweep skips the hits inside the current span,
/// and the backward search for a line's start stops at the previous span's
/// end.
pub(crate) fn candidate_lines(page: &[u8], offsets: &[usize]) -> Vec<(usize, usize)> {
    let mut spans: Vec<(usize, usize)> = Vec::new();
    for &o in offsets {
        if o >= page.len() {
            break;
        }
        let floor = match spans.last() {
            Some(&(_, end)) if o <= end => continue,
            Some(&(_, end)) => end,
            None => 0,
        };
        let start = page[floor..o]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(floor, |p| floor + p + 1);
        let end = page[o..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(page.len(), |p| o + p);
        spans.push((start, end));
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::value::Value;
    use proptest::prelude::*;

    /// The scan filter's line verdict before field slicing: parse every
    /// column, then evaluate.
    fn reference_ship(types: &[ColumnType], predicate: &Expr, line: &[u8]) -> Option<Row> {
        let line = std::str::from_utf8(line).ok()?;
        let row = row_from_text(types, line.trim_end_matches('~'))?;
        crate::tree_walk::eval_bool(predicate, &row)
            .unwrap_or(false)
            .then_some(row)
    }

    /// [`candidate_lines`] before the forward sweep: both newline searches
    /// run from the hit to the page edges.
    fn reference_candidate_lines(page: &[u8], offsets: &[usize]) -> Vec<(usize, usize)> {
        let mut spans: Vec<(usize, usize)> = Vec::new();
        for &o in offsets {
            if o >= page.len() {
                continue;
            }
            let start = page[..o]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |p| p + 1);
            let end = page[o..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(page.len(), |p| o + p);
            if spans.last() != Some(&(start, end)) {
                spans.push((start, end));
            }
        }
        spans.dedup();
        spans
    }

    const TYPES: [ColumnType; 4] = [
        ColumnType::Int,
        ColumnType::Str,
        ColumnType::Float,
        ColumnType::Date,
    ];

    /// Predicates over [`TYPES`]: they read some columns and not others,
    /// some cannot be evaluated (a `LIKE` on a number, an out-of-range
    /// column, a non-boolean value, `YEAR`, `CASE` and `PREFIX` of the
    /// wrong type), and some mix variants (an `Int` column against a
    /// `Float` literal, an `Int` past 2^53).
    fn predicate() -> impl Strategy<Value = Expr> {
        let date = |s| Value::date(s);
        let b = Box::new;
        let big = Value::Int((1 << 53) + 1);
        prop::sample::select(vec![
            Expr::col_cmp(2, CmpOp::Lt, Value::Float(50.0)),
            Expr::Like(Box::new(Expr::Col(1)), "%AB%".into()),
            Expr::And(vec![
                Expr::Between(
                    Box::new(Expr::Col(3)),
                    date("1994-01-01"),
                    date("1994-12-31"),
                ),
                Expr::col_cmp(0, CmpOp::Ge, Value::Int(5)),
            ]),
            Expr::Or(vec![
                Expr::InList(
                    Box::new(Expr::Col(1)),
                    vec![Value::Str("AB".into()), Value::Str("x|".into())],
                ),
                Expr::Not(Box::new(Expr::col_eq(0, Value::Int(3)))),
            ]),
            Expr::Like(Box::new(Expr::Col(2)), "%1%".into()),
            Expr::col_eq(7, Value::Int(1)),
            Expr::Col(1),
            Expr::Lit(Value::Int(1)),
            Expr::col_cmp(0, CmpOp::Lt, Value::Float(5.5)),
            Expr::col_cmp(0, CmpOp::Ge, Value::Float(1e300)),
            Expr::NotLike(b(Expr::Col(0)), "%1%".into()),
            Expr::Cmp(
                CmpOp::Eq,
                b(Expr::Year(b(Expr::Col(3)))),
                b(Expr::Lit(Value::Int(1994))),
            ),
            Expr::Year(b(Expr::Col(0))),
            Expr::Case(
                b(Expr::col_cmp(0, CmpOp::Ge, Value::Int(5))),
                b(Expr::Col(2)),
                b(Expr::Col(1)),
            ),
            Expr::Cmp(
                CmpOp::Eq,
                b(Expr::Prefix(b(Expr::Col(1)), 2)),
                b(Expr::Lit(Value::Str("AB".into()))),
            ),
            Expr::Like(b(Expr::Prefix(b(Expr::Col(2)), 1)), "%1%".into()),
            Expr::col_eq(0, big.clone()),
            Expr::col_cmp(0, CmpOp::Gt, Value::Int(1 << 53)),
            Expr::InList(b(Expr::Col(2)), vec![big, Value::Float(1.5)]),
        ])
    }

    /// A field: the spelling of some column type, or something no type
    /// parses, or a byte the framing cares about.
    fn field() -> impl Strategy<Value = String> {
        prop_oneof![
            (0i64..12).prop_map(|v| v.to_string()),
            (0u32..10_000).prop_map(|v| format!("{}.{:02}", v / 100, v % 100)),
            (1992i32..1997, 1u32..=12, 1u32..=31)
                .prop_map(|(y, m, d)| format!("{y}-{m:02}-{d:02}")),
            prop::sample::select(vec![
                "AB",
                "xAByy",
                "",
                "1995-",
                "~",
                "-0.00",
                "1e3",
                "é",
                "9007199254740993",
                "9007199254740992",
            ])
            .prop_map(String::from),
            prop::collection::vec(prop::sample::select(b"ab19|~.-".to_vec()), 0..7)
                .prop_map(|b| String::from_utf8(b).expect("ASCII")),
        ]
    }

    /// A candidate line as a page holds it, padding and all, or mangled.
    fn line() -> impl Strategy<Value = Vec<u8>> {
        let framed = (prop::collection::vec(field(), 0..7), 0usize..4).prop_map(|(fields, pad)| {
            let mut s = format!("|{}|", fields.join("|"));
            s.push_str(&"~".repeat(pad));
            s.into_bytes()
        });
        let id = prop_oneof![
            4 => 0i64..12,
            1 => prop::sample::select(vec![1i64 << 53, (1 << 53) + 1]),
        ];
        let good = (id, field(), 0u32..10_000, 1u32..=12).prop_map(|(id, s, c, m)| {
            format!("|{id}|{s}|{}.{:02}|1994-{m:02}-15|", c / 100, c % 100).into_bytes()
        });
        prop_oneof![
            3 => good,
            3 => framed,
            1 => prop::collection::vec(prop::sample::select(b"|~ab1.-".to_vec()), 0..12),
            1 => (0usize..4).prop_map(|n| vec![b'~'; n]),
            1 => prop::collection::vec(any::<u8>(), 0..24),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Field slicing and parsing only the predicate's columns ships
        /// exactly the lines, and the rows, that parsing all of them did.
        #[test]
        fn line_verdict_equals_the_parse_everything_reference(
            pred in predicate(),
            lines in prop::collection::vec(line(), 1..8),
        ) {
            let filter = LineFilter::new(&TYPES, &pred);
            for line in &lines {
                prop_assert_eq!(
                    filter.ship(line),
                    reference_ship(&TYPES, &pred, line),
                    "line {:?}",
                    String::from_utf8_lossy(line)
                );
            }
        }

        /// Hits on `\n` bytes, at both page edges, past the end and several
        /// to a line give the spans the two-sided search gave.
        #[test]
        fn candidate_lines_equal_the_two_sided_reference(
            page in prop::collection::vec(prop::sample::select(b"\n\nab|~".to_vec()), 0..96),
            picks in prop::collection::vec(0usize..100, 0..24),
        ) {
            let len = page.len();
            let mut offsets: Vec<usize> = picks
                .iter()
                .map(|&p| match p {
                    0..=89 => p * len / 90,
                    90..=94 => len.saturating_sub(1),
                    _ => len + p - 95,
                })
                .collect();
            offsets.sort_unstable();
            prop_assert_eq!(
                candidate_lines(&page, &offsets),
                reference_candidate_lines(&page, &offsets)
            );
        }
    }

    /// Keys that hit inside padding and a line that is padding only.
    #[test]
    fn padding_lines_never_ship() {
        let pred = Expr::Like(Box::new(Expr::Col(1)), "%~%".into());
        let filter = LineFilter::new(&TYPES, &pred);
        let page = b"|1|a~|1.00|1994-01-01|~~~\n~~~~";
        for (start, end) in candidate_lines(page, &[3, 22, 28]) {
            let line = &page[start..end];
            assert_eq!(filter.ship(line), reference_ship(&TYPES, &pred, line));
        }
        assert!(filter.ship(b"|1|a~|1.00|1994-01-01|~~~").is_some());
        assert_eq!(filter.ship(b"~~~~"), None);
    }

    #[test]
    fn candidate_lines_finds_enclosing_rows() {
        let page = b"|a|1|\n|b|2|\n|c|3|\n";
        // offsets inside the second row
        let spans = candidate_lines(page, &[7, 9]);
        assert_eq!(spans, vec![(6, 11)]);
        assert_eq!(&page[6..11], b"|b|2|");
    }

    #[test]
    fn candidate_lines_at_page_edges() {
        let page = b"|first|\n|last|";
        assert_eq!(candidate_lines(page, &[1]), vec![(0, 7)]);
        assert_eq!(candidate_lines(page, &[10]), vec![(8, 14)]);
    }

    #[test]
    fn multiple_hits_same_line_dedup() {
        let page = b"|xx|xx|\n";
        let spans = candidate_lines(page, &[1, 4]);
        assert_eq!(spans, vec![(0, 7)]);
    }

    #[test]
    fn module_registers_scan_filter() {
        use biscuit_core::{Application, BiscuitError, CoreConfig, Ssd};
        use biscuit_fs::Fs;
        use biscuit_sim::Simulation;
        use biscuit_ssd::{SsdConfig, SsdDevice};
        use std::sync::Arc;

        let m = scan_module();
        // Exactly the two SSDlets, each instantiable by its identifier.
        assert!(format!("{m:?}").contains("ssdlets: 2"), "{m:?}");
        let dev = Arc::new(SsdDevice::new(SsdConfig {
            logical_capacity: 64 << 20,
            ..SsdConfig::paper_default()
        }));
        let ssd = Ssd::new(Fs::format(dev), CoreConfig::paper_default());
        let sim = Simulation::new(0);
        sim.spawn("host", move |ctx| {
            let mid = ssd.load_module(ctx, m).unwrap();
            let app = Application::new(&ssd, "ids");
            assert!(app.ssdlet(mid, AGGREGATE_ID).is_ok());
            assert!(app.ssdlet(mid, SCAN_FILTER_ID).is_ok());
            assert!(matches!(
                app.ssdlet(mid, "idMissing"),
                Err(BiscuitError::SsdletNotRegistered { .. })
            ));
        });
        sim.run().assert_quiescent();
    }
}
