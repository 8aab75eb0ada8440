//! The device-side scan-and-filter SSDlet — what the modified MariaDB
//! pushes down to the SSD (paper §V-C).
//!
//! The SSDlet streams the table file through the per-channel pattern
//! matcher; pages with key hits are examined on the device CPU: candidate
//! rows (the lines containing hits) are parsed and the *full* predicate is
//! verified per row, so only genuinely qualifying rows cross the link, in
//! batches, through a device-to-host port.

use biscuit_core::module::{ModuleBuilder, SsdletSpec};
use biscuit_core::task::{args_as, Ssdlet, TaskCtx};
use biscuit_core::SsdletModule;
use biscuit_fs::File;
use biscuit_ssd::pattern::{PatternLimits, PatternSet};

use crate::expr::Expr;
use crate::value::{row_from_text, ColumnType, Row};

/// Arguments handed to the scan SSDlet at instantiation.
#[derive(Debug, Clone)]
pub struct ScanArgs {
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
pub const SCAN_FILTER_ID: &str = "idScanFilter";

/// SSDlet identifier of the on-device aggregator inside [`scan_module`].
pub const AGGREGATE_ID: &str = "idAggregate";

/// Arguments for the on-device aggregation SSDlet.
#[derive(Debug, Clone)]
pub struct AggArgs {
    /// Aggregate functions and their input expressions over the scanned
    /// table's rows.
    pub aggs: Vec<(crate::spec::AggFun, Expr)>,
}

/// Builds the `dbscan` module: the scan-filter SSDlet plus the on-device
/// aggregator it can feed over an inter-SSDlet port (the Fig. 3 dataflow:
/// "retrieving intermediate/final computational results only").
pub fn scan_module() -> SsdletModule {
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
        let mut states: Vec<crate::exec::AggState> = self
            .args
            .aggs
            .iter()
            .map(|(fun, _)| crate::exec::AggState::new(*fun))
            .collect();
        while let Some(batch) = ctx.recv::<Vec<Row>>(0).expect("typed input") {
            ctx.compute_bytes((batch.len() * 16 * self.args.aggs.len()) as u64);
            for row in &batch {
                for ((_, expr), st) in self.args.aggs.iter().zip(states.iter_mut()) {
                    if let Ok(v) = expr.eval(row) {
                        st.update(&v);
                    }
                }
            }
        }
        let row: Row = states.iter().map(crate::exec::AggState::finish).collect();
        ctx.send(0, vec![row]).expect("host port open");
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
        let mut batch: Vec<Row> = Vec::with_capacity(self.args.batch_rows);
        for (_page_idx, page) in hits {
            let offsets = pattern.find_all(&page);
            let mut charged = 0u64;
            for (start, end) in candidate_lines(&page, &offsets) {
                charged += (end - start) as u64;
                let Ok(line) = std::str::from_utf8(&page[start..end]) else {
                    continue;
                };
                let trimmed = line.trim_end_matches('~');
                let Some(row) = row_from_text(&self.args.types, trimmed) else {
                    continue; // padding fragment or key hit inside padding
                };
                if self.args.predicate.eval_bool(&row).unwrap_or(false) {
                    batch.push(row);
                    if batch.len() >= self.args.batch_rows {
                        let full =
                            std::mem::replace(&mut batch, Vec::with_capacity(self.args.batch_rows));
                        ctx.send(0, full).expect("host port open while scanning");
                    }
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

/// Line spans (start..end, exclusive of `\n`) containing any of `offsets`,
/// deduplicated and in page order.
pub fn candidate_lines(page: &[u8], offsets: &[usize]) -> Vec<(usize, usize)> {
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let m = scan_module();
        assert_eq!(m.ssdlet_ids(), vec![AGGREGATE_ID, SCAN_FILTER_ID]);
    }
}
