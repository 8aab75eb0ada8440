//! The query engine: planning (with NDP offload decisions), scanning over
//! either datapath, block nested-loop joins, and result shaping.
//!
//! The planner reproduces the paper's modified MariaDB pipeline (§V-C):
//!
//! 1. **candidate detection** — a table qualifies if it is large enough and
//!    its local predicate yields pattern-matcher keys;
//! 2. **selectivity sampling** — a handful of pages are read over the Conv
//!    path and checked against the keys to estimate the fraction of pages
//!    the matcher would pass;
//! 3. **threshold** — offload only when the matcher filters enough pages;
//! 4. **join reorder** — offloaded (filtered) tables move to the front of
//!    the join order, which multiplies the win on block nested-loop joins
//!    (the paper's Q14 effect).

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use biscuit_sim::sync::Mutex;

use biscuit_core::runtime::ModuleId;
use biscuit_core::{Application, BiscuitError, Ssd};
use biscuit_fs::Mode;
use biscuit_host::{ConvIo, HostConfig, HostLoad};
use biscuit_sim::qprof::Stage;
use biscuit_sim::time::SimDuration;
use biscuit_sim::trace::TraceEvent;
use biscuit_sim::{Ctx, FaultSite};

use crate::error::{DbError, DbResult};
use crate::exec;
use crate::expr::{pattern_keys, Expr};
use crate::offload::{scan_module, AggArgs, ScanArgs, AGGREGATE_ID, SCAN_FILTER_ID};
use crate::schema::{Catalog, Schema, TableMeta};
use crate::spec::{ExecMode, SelectSpec};
use crate::table;
use crate::value::{Row, Value};

/// Engine tuning parameters.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Host row-processing rate (parse + filter + join bookkeeping),
    /// bytes/second. Calibrated so lineitem filter queries land near the
    /// paper's ~11x Biscuit speed-up (Fig. 8).
    pub host_row_rate: f64,
    /// Pages sampled per offload-candidate table.
    pub sample_pages: u64,
    /// Offload only if the estimated fraction of *rows* satisfying the
    /// predicate is at or below this. (The paper phrases selectivity at
    /// page granularity; we estimate at row granularity because the
    /// pattern matcher reports hit offsets, so the device verifies and
    /// forwards individual rows — the reduction that matters is row-level.
    /// The decision shape is the same: near-1 selectivity declines.)
    pub selectivity_threshold: f64,
    /// Minimum table size (pages) worth offloading.
    pub min_table_pages: u64,
    /// Rows per device-to-host result batch.
    pub batch_rows: usize,
    /// Rows per block of the block nested-loop join (MariaDB join buffer).
    pub bnl_block_rows: usize,
    /// Pages per internal scan request.
    pub scan_request_pages: usize,
    /// Outstanding scan requests (device side) / read requests (host side).
    pub scan_queue_depth: usize,
    /// Place NDP-filtered tables first in the join order (the paper's
    /// query-planning heuristic behind Q14's 315x I/O reduction). Disable
    /// for the ablation study.
    pub ndp_join_reorder: bool,
    /// Push whole-table aggregations onto the device as a second SSDlet fed
    /// by the scan over an inter-SSDlet port, so only the final row crosses
    /// the link. An *extension* beyond the paper's filter-only offload
    /// (default off to keep the headline experiments faithful).
    pub aggregate_pushdown: bool,
}

impl DbConfig {
    /// Defaults calibrated against Section V-C of the paper.
    pub fn paper_default() -> Self {
        DbConfig {
            host_row_rate: 200.0e6,
            sample_pages: 24,
            selectivity_threshold: 0.25,
            min_table_pages: 128,
            batch_rows: 512,
            bnl_block_rows: 2048,
            scan_request_pages: 64,
            scan_queue_depth: 16,
            ndp_join_reorder: true,
            aggregate_pushdown: false,
        }
    }
}

impl Default for DbConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Per-scan planning outcome.
#[derive(Debug, Clone)]
pub struct ScanPlan {
    /// Pattern keys when offloaded.
    pub offload_keys: Option<Vec<Vec<u8>>>,
    /// Estimated fraction of rows satisfying the predicate (1.0 when not
    /// sampled).
    pub est_selectivity: f64,
}

/// One scan's planning decision, human-readable (see [`Db::explain`]).
#[derive(Debug, Clone)]
pub struct ScanExplain {
    /// Table name.
    pub table: String,
    /// Whether the scan is pushed to the device.
    pub offloaded: bool,
    /// Sampled row selectivity (1.0 when not sampled).
    pub est_selectivity: f64,
    /// Pattern-matcher keys, lossily decoded for display.
    pub keys: Vec<String>,
}

/// A query plan summary (see [`Db::explain`]).
#[derive(Debug, Clone)]
pub struct PlanExplain {
    /// Per-scan decisions, in spec order.
    pub scans: Vec<ScanExplain>,
    /// Join order by table name.
    pub join_order: Vec<String>,
}

/// Statistics for one executed query.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Names of tables whose scans were offloaded.
    pub offloaded_tables: Vec<String>,
    /// Bytes that crossed the host interface toward the host.
    pub link_bytes_to_host: u64,
    /// Pages streamed through the device-side pattern matcher.
    pub device_pages_scanned: u64,
    /// Result row count.
    pub rows_out: usize,
    /// Virtual execution time.
    pub elapsed: SimDuration,
}

/// Rows plus stats.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// Result rows.
    pub rows: Vec<Row>,
    /// Execution statistics.
    pub stats: QueryStats,
}

/// One scan's result without a copy: a shared row snapshot and the indices
/// of the rows that qualify (`None`: all of them). A Conv scan selects out
/// of the row cache; an NDP scan owns the rows the device sent.
struct Selection {
    rows: Arc<Vec<Row>>,
    sel: Option<Vec<u32>>,
}

impl Selection {
    fn len(&self) -> usize {
        self.sel.as_ref().map_or(self.rows.len(), Vec::len)
    }

    /// The qualifying rows, in table order.
    fn iter(&self) -> impl Iterator<Item = &Row> {
        let (picked, all): (&[u32], &[Row]) = match &self.sel {
            Some(sel) => (sel, &[]),
            None => (&[], &self.rows),
        };
        picked
            .iter()
            .map(|&i| &self.rows[i as usize])
            .chain(all.iter())
    }
}

/// The mini DB engine (the MariaDB/XtraDB stand-in).
///
/// # Examples
///
/// ```
/// use biscuit_core::{CoreConfig, Ssd};
/// use biscuit_db::expr::Expr;
/// use biscuit_db::spec::{ExecMode, SelectSpec};
/// use biscuit_db::{ColumnType, Db, DbConfig, Schema, Value};
/// use biscuit_fs::Fs;
/// use biscuit_host::{HostConfig, HostLoad};
/// use biscuit_sim::Simulation;
/// use biscuit_ssd::{SsdConfig, SsdDevice};
/// use std::sync::Arc;
///
/// let dev = Arc::new(SsdDevice::new(SsdConfig {
///     logical_capacity: 64 << 20,
///     ..SsdConfig::paper_default()
/// }));
/// let ssd = Ssd::new(Fs::format(dev), CoreConfig::paper_default());
/// let mut db = Db::new(ssd, HostConfig::paper_default(), DbConfig::paper_default());
/// let schema = Schema::new(&[("id", ColumnType::Int), ("tag", ColumnType::Str)]);
/// let rows: Vec<Vec<Value>> = (0..100)
///     .map(|i| vec![Value::Int(i), Value::Str(format!("tag{}", i % 10))])
///     .collect();
/// db.create_table("demo", schema, &rows).unwrap();
/// let db = Arc::new(db);
///
/// let sim = Simulation::new(0);
/// sim.spawn("host", move |ctx| {
///     let mut spec = SelectSpec::new("example");
///     spec.scan("demo", Some(Expr::col_eq(1, Value::Str("tag3".into()))));
///     let out = db.execute(ctx, &spec, ExecMode::Conv, HostLoad::IDLE).unwrap();
///     assert_eq!(out.rows.len(), 10);
/// });
/// sim.run().assert_quiescent();
/// ```
pub struct Db {
    ssd: Ssd,
    conv: ConvIo,
    catalog: Catalog,
    cfg: DbConfig,
    scan_mid: Mutex<Option<ModuleId>>,
    row_cache: Mutex<HashMap<String, Arc<Vec<Row>>>>,
}

impl std::fmt::Debug for Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Db")
            .field("tables", &self.catalog.table_names())
            .finish()
    }
}

impl Db {
    /// Creates an engine over a Biscuit-enabled SSD.
    pub fn new(ssd: Ssd, host_cfg: HostConfig, cfg: DbConfig) -> Db {
        let conv = ConvIo::new(Arc::clone(ssd.device()), Arc::clone(ssd.link()), host_cfg);
        Db {
            ssd,
            conv,
            catalog: Catalog::new(),
            cfg,
            scan_mid: Mutex::new(None),
            row_cache: Mutex::new(HashMap::new()),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &DbConfig {
        &self.cfg
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The underlying Biscuit SSD handle.
    pub fn ssd(&self) -> &Ssd {
        &self.ssd
    }

    /// Creates and bulk-loads a table (untimed; pre-experiment setup).
    ///
    /// # Errors
    ///
    /// Returns storage or duplicate-name errors.
    pub fn create_table(&mut self, name: &str, schema: Schema, rows: &[Row]) -> DbResult<()> {
        let meta = table::create_table(self.ssd.fs(), name, schema, rows)?;
        self.catalog.register(meta)?;
        Ok(())
    }

    fn meta(&self, name: &str) -> DbResult<&TableMeta> {
        self.catalog.table(name)
    }

    /// Pre-loads the device-side scan module so its deployment cost does not
    /// land inside a measured query (one-time setup, as in the paper).
    ///
    /// # Errors
    ///
    /// Returns framework errors from module loading.
    pub fn prepare(&self, ctx: &Ctx) -> DbResult<()> {
        self.ensure_scan_module(ctx)?;
        Ok(())
    }

    fn ensure_scan_module(&self, ctx: &Ctx) -> DbResult<ModuleId> {
        let mut mid = self.scan_mid.lock();
        if let Some(m) = *mid {
            return Ok(m);
        }
        let m = self.ssd.load_module(ctx, scan_module())?;
        *mid = Some(m);
        Ok(m)
    }

    /// Host CPU charge for processing `bytes` of row data under `load`.
    /// Public so multi-phase query drivers (TPC-H) can account for their
    /// host-side post-processing.
    pub fn charge_host_bytes(&self, ctx: &Ctx, bytes: u64, load: HostLoad) {
        let rate = self.cfg.host_row_rate / load.bandwidth_slowdown(self.conv.config());
        let t0 = ctx.now();
        ctx.sleep(SimDuration::for_bytes(bytes, rate));
        ctx.qprof()
            .record(Stage::HostCompute, t0, ctx.now(), bytes, 0);
    }

    fn charge_host_rows(&self, ctx: &Ctx, bytes: u64, load: HostLoad) {
        self.charge_host_bytes(ctx, bytes, load);
    }

    /// Parses (or fetches cached) full table contents. Timing is charged by
    /// the callers; this is the functional half.
    fn table_rows(&self, meta: &TableMeta) -> DbResult<Arc<Vec<Row>>> {
        if let Some(rows) = self.row_cache.lock().get(&meta.name) {
            return Ok(Arc::clone(rows));
        }
        let mut rows = Vec::with_capacity(meta.rows as usize);
        let file = self.ssd.fs().open(&meta.file_path, Mode::ReadOnly)?;
        for lpn in file.lpns_for_range(0, meta.pages * self.page_size() as u64)? {
            let page = self
                .ssd
                .device()
                .peek_page(lpn)
                .map_err(|e| DbError::Fs(biscuit_fs::FsError::Device(e)))?;
            rows.extend(table::parse_page(&meta.schema, &meta.name, &page)?);
        }
        let rows = Arc::new(rows);
        self.row_cache
            .lock()
            .insert(meta.name.clone(), Arc::clone(&rows));
        Ok(rows)
    }

    fn page_size(&self) -> usize {
        self.ssd.device().config().page_size
    }

    /// Plans every scan of `spec` for the given mode, charging sampling I/O.
    ///
    /// # Errors
    ///
    /// Returns catalog or I/O errors.
    pub fn plan_scans(
        &self,
        ctx: &Ctx,
        spec: &SelectSpec,
        mode: ExecMode,
        load: HostLoad,
    ) -> DbResult<Vec<ScanPlan>> {
        let mut plans = Vec::with_capacity(spec.scans.len());
        for scan in &spec.scans {
            let meta = self.meta(&scan.table)?;
            let mut plan = ScanPlan {
                offload_keys: None,
                est_selectivity: 1.0,
            };
            if mode == ExecMode::Biscuit {
                if meta.pages < self.cfg.min_table_pages {
                    self.trace_verdict(
                        ctx,
                        &meta.name,
                        false,
                        1.0,
                        "table smaller than min_table_pages",
                    );
                } else if let Some(keys) = scan.predicate.as_ref().and_then(pattern_keys) {
                    let predicate = scan.predicate.as_ref().expect("keys imply a predicate");
                    let est = self.sample_selectivity(ctx, meta, predicate, load)?;
                    plan.est_selectivity = est;
                    if est <= self.cfg.selectivity_threshold {
                        plan.offload_keys = Some(keys);
                        self.trace_verdict(
                            ctx,
                            &meta.name,
                            true,
                            est,
                            "selectivity below threshold",
                        );
                    } else {
                        self.trace_verdict(
                            ctx,
                            &meta.name,
                            false,
                            est,
                            "selectivity above threshold",
                        );
                    }
                } else {
                    self.trace_verdict(ctx, &meta.name, false, 1.0, "no pattern keys");
                }
            }
            plans.push(plan);
        }
        Ok(plans)
    }

    /// Records one planner offload decision into the calling simulation's
    /// trace and metrics.
    fn trace_verdict(
        &self,
        ctx: &Ctx,
        table: &str,
        offloaded: bool,
        est_selectivity: f64,
        reason: &'static str,
    ) {
        ctx.tracer().emit(|| TraceEvent::OffloadVerdict {
            at: ctx.now(),
            table: Arc::from(table),
            offloaded,
            est_selectivity,
            reason,
        });
        // Planner verdicts are rare (one per scanned table), so the counter
        // is looked up per verdict rather than pre-registered.
        let decision = if offloaded { "offload" } else { "host-scan" };
        count(
            ctx,
            "db_offload_verdicts_total",
            &[("decision", decision), ("reason", reason)],
        );
    }

    /// The paper's "quick check on the table to estimate selectivity using
    /// a sampling method": reads evenly spread pages over the Conv path,
    /// parses their rows, and reports the fraction satisfying the predicate.
    fn sample_selectivity(
        &self,
        ctx: &Ctx,
        meta: &TableMeta,
        predicate: &Expr,
        load: HostLoad,
    ) -> DbResult<f64> {
        let n = self.cfg.sample_pages.min(meta.pages).max(1);
        let file = self.ssd.fs().open(&meta.file_path, Mode::ReadOnly)?;
        let mut total = 0u64;
        let mut matched = 0u64;
        for i in 0..n {
            let page_idx = i * meta.pages / n;
            let pages = self
                .conv
                .read_file_pages_async(ctx, &file, page_idx, 1, 1, 1, load)?;
            let rows = table::parse_page(&meta.schema, &meta.name, &pages[0])?;
            self.charge_host_rows(ctx, self.page_size() as u64, load);
            for row in &rows {
                total += 1;
                if predicate.eval_bool(row)? {
                    matched += 1;
                }
            }
        }
        if total == 0 {
            return Ok(1.0);
        }
        Ok(matched as f64 / total as f64)
    }

    /// Scans one table (local rows, local predicate applied) over the
    /// datapath the plan picked, charging all timing.
    fn scan_local(
        &self,
        ctx: &Ctx,
        scan_idx: usize,
        spec: &SelectSpec,
        plans: &[ScanPlan],
        load: HostLoad,
    ) -> DbResult<Selection> {
        let scan = &spec.scans[scan_idx];
        let meta = self.meta(&scan.table)?;
        match &plans[scan_idx].offload_keys {
            Some(keys) => self.scan_ndp(ctx, meta, scan.predicate.as_ref().unwrap(), keys, load),
            None => self.scan_conv(ctx, meta, scan.predicate.as_ref(), load),
        }
    }

    /// Conventional scan: stream the whole table over the link, parse and
    /// filter on the host.
    fn scan_conv(
        &self,
        ctx: &Ctx,
        meta: &TableMeta,
        predicate: Option<&Expr>,
        load: HostLoad,
    ) -> DbResult<Selection> {
        self.charge_conv_scan(ctx, meta, load)?;
        self.select_rows(meta, predicate)
    }

    /// Timing half of a Conv scan: the reads and the host CPU that parses and
    /// filters behind them. I/O and CPU pipeline (single reader thread).
    fn charge_conv_scan(&self, ctx: &Ctx, meta: &TableMeta, load: HostLoad) -> DbResult<()> {
        let file = self.ssd.fs().open(&meta.file_path, Mode::ReadOnly)?;
        let ps = self.page_size() as u64;
        let chunk_pages = (self.cfg.scan_request_pages * self.cfg.scan_queue_depth) as u64;
        let cpu_rate = self.cfg.host_row_rate / load.bandwidth_slowdown(self.conv.config());
        let mut cpu_backlog = SimDuration::ZERO;
        let mut page_idx = 0u64;
        while page_idx < meta.pages {
            let n = chunk_pages.min(meta.pages - page_idx);
            let t0 = ctx.now();
            let _pages = self.conv.read_file_pages_async(
                ctx,
                &file,
                page_idx,
                n,
                self.cfg.scan_request_pages,
                self.cfg.scan_queue_depth,
                load,
            )?;
            // The host CPU worked on previous chunks while this I/O was in
            // flight; whatever did not fit remains as backlog.
            let io_elapsed = ctx.now() - t0;
            cpu_backlog = cpu_backlog.saturating_sub(io_elapsed);
            cpu_backlog += SimDuration::for_bytes(n * ps, cpu_rate);
            page_idx += n;
        }
        let t_cpu = ctx.now();
        ctx.sleep(cpu_backlog);
        ctx.qprof()
            .record(Stage::HostCompute, t_cpu, ctx.now(), 0, 0);
        Ok(())
    }

    /// Functional half of a Conv scan (cached parse; [`Db::charge_conv_scan`]
    /// covers its time): which of the table's rows pass the local predicate.
    fn select_rows(&self, meta: &TableMeta, predicate: Option<&Expr>) -> DbResult<Selection> {
        let rows = self.table_rows(meta)?;
        let sel = predicate.map(|p| exec::select(p, &rows)).transpose()?;
        Ok(Selection { rows, sel })
    }

    /// NDP scan: dispatch the scan-filter SSDlet via the Biscuit framework
    /// and drain qualifying rows from the device-to-host port.
    fn scan_ndp(
        &self,
        ctx: &Ctx,
        meta: &TableMeta,
        predicate: &Expr,
        keys: &[Vec<u8>],
        load: HostLoad,
    ) -> DbResult<Selection> {
        let mid = self.ensure_scan_module(ctx)?;
        let file = self.ssd.fs().open(&meta.file_path, Mode::ReadOnly)?;
        let app = Application::new(&self.ssd, format!("scan-{}", meta.name));
        let scanner = app.ssdlet_with(
            mid,
            SCAN_FILTER_ID,
            ScanArgs {
                file,
                types: meta.schema.types(),
                predicate: predicate.clone(),
                keys: keys.to_vec(),
                batch_rows: self.cfg.batch_rows,
                request_pages: self.cfg.scan_request_pages,
                queue_depth: self.cfg.scan_queue_depth,
            },
        )?;
        let rx = app.connect_to::<Vec<Row>>(scanner.out(0))?;
        app.start(ctx)?;
        let plan = self.ssd.fault_plan();
        let mut rows = Vec::new();
        let mut fallback: Option<&'static str> = None;
        if let Some(timeout) = plan.host_timeout() {
            loop {
                match rx.get_deadline(ctx, timeout) {
                    Ok(Some(batch)) => {
                        // The host still runs returned rows through the upper
                        // executor layers.
                        let bytes: usize = batch.len() * 64;
                        self.charge_host_rows(ctx, bytes as u64, load);
                        rows.extend(batch);
                    }
                    Ok(None) => break,
                    Err(_) => {
                        // The offload blew past the host deadline. Keep
                        // draining (discarding) so the device fibers can
                        // finish, then degrade to the host path.
                        plan.record_failed(ctx, ctx.now(), FaultSite::Ssdlet, "host_timeout");
                        fallback = Some("timeout");
                        while rx.get(ctx).is_some() {}
                        break;
                    }
                }
            }
        } else {
            while let Some(batch) = rx.get(ctx) {
                // The host still runs returned rows through the upper executor
                // layers.
                let bytes: usize = batch.len() * 64;
                self.charge_host_rows(ctx, bytes as u64, load);
                rows.extend(batch);
            }
        }
        app.join(ctx);
        if fallback.is_none() && app.failure().is_some() {
            fallback = Some("ssdlet_failure");
        }
        if let Some(cause) = fallback {
            // Graceful degradation: discard the partial offload output and
            // re-run the scan on the host path. Results stay byte-identical
            // because both paths evaluate the same predicate over the same
            // cached rows.
            count(
                ctx,
                "db_host_fallbacks_total",
                &[("table", meta.name.as_str()), ("cause", cause)],
            );
            plan.record_recovered(ctx, ctx.now(), FaultSite::Ssdlet, "host_fallback");
            // The re-run executes under a child phase span so the profile
            // shows the fallback as an attributed stretch of the query
            // rather than unexplained host time.
            let qp = ctx.qprof().clone();
            let parent = qp.current();
            let phase = parent.map(|sc| qp.child(sc, "host_fallback"));
            if phase.is_some() {
                qp.adopt(ctx, phase);
            }
            let fb_start = ctx.now();
            let recovered = self.scan_conv(ctx, meta, Some(predicate), load);
            if let Some(p) = phase {
                qp.record_for(p, Stage::HostCompute, fb_start, ctx.now(), 0, 0);
                qp.adopt(ctx, parent);
            }
            return recovered;
        }
        Ok(Selection {
            rows: Arc::new(rows),
            sel: None,
        })
    }

    /// Extension: scan + aggregate entirely on the device. The scan SSDlet
    /// feeds the aggregator over a typed inter-SSDlet port; a single result
    /// row crosses the host interface (paper §III-A: "retrieving
    /// intermediate/final computational results only").
    fn scan_ndp_aggregate(
        &self,
        ctx: &Ctx,
        meta: &TableMeta,
        predicate: &Expr,
        keys: &[Vec<u8>],
        aggs: &[(crate::spec::AggFun, Expr)],
        load: HostLoad,
    ) -> DbResult<Vec<Row>> {
        let mid = self.ensure_scan_module(ctx)?;
        let file = self.ssd.fs().open(&meta.file_path, Mode::ReadOnly)?;
        let app = Application::new(&self.ssd, format!("scanagg-{}", meta.name));
        let scanner = app.ssdlet_with(
            mid,
            SCAN_FILTER_ID,
            ScanArgs {
                file,
                types: meta.schema.types(),
                predicate: predicate.clone(),
                keys: keys.to_vec(),
                batch_rows: self.cfg.batch_rows,
                request_pages: self.cfg.scan_request_pages,
                queue_depth: self.cfg.scan_queue_depth,
            },
        )?;
        let agg = app.ssdlet_with(
            mid,
            AGGREGATE_ID,
            AggArgs {
                aggs: aggs.to_vec(),
            },
        )?;
        app.connect::<Vec<Row>>(scanner.out(0), agg.input(0))?;
        let rx = app.connect_to::<Vec<Row>>(agg.out(0))?;
        app.start(ctx)?;
        let plan = self.ssd.fault_plan();
        let mut rows = Vec::new();
        if let Some(timeout) = plan.host_timeout() {
            loop {
                match rx.get_deadline(ctx, timeout) {
                    Ok(Some(batch)) => {
                        self.charge_host_rows(ctx, (batch.len() * 16) as u64, load);
                        rows.extend(batch);
                    }
                    Ok(None) => break,
                    Err(e) => {
                        // Drain (discarding) so the device pipeline can
                        // finish, then surface the typed timeout; the caller
                        // degrades to the host execution path.
                        plan.record_failed(ctx, ctx.now(), FaultSite::Ssdlet, "host_timeout");
                        while rx.get(ctx).is_some() {}
                        app.join(ctx);
                        return Err(e.into());
                    }
                }
            }
        } else {
            while let Some(batch) = rx.get(ctx) {
                self.charge_host_rows(ctx, (batch.len() * 16) as u64, load);
                rows.extend(batch);
            }
        }
        app.join_checked(ctx)?;
        Ok(rows)
    }

    /// True when a spec qualifies for whole-query aggregate pushdown:
    /// single offloaded scan, global aggregation, nothing else.
    fn qualifies_for_agg_pushdown(&self, spec: &SelectSpec, plans: &[ScanPlan]) -> bool {
        self.cfg.aggregate_pushdown
            && spec.scans.len() == 1
            && plans[0].offload_keys.is_some()
            && spec.group_by.is_empty()
            && !spec.aggregates.is_empty()
            && spec.residual.is_none()
            && spec.having.is_none()
            && spec.projection.is_empty()
    }

    /// Join order: offloaded (filtered) scans first — most selective first —
    /// then the rest smallest-first (MariaDB's default), greedily restricted
    /// to tables connected to the already-joined set.
    fn join_order(&self, spec: &SelectSpec, plans: &[ScanPlan]) -> DbResult<Vec<usize>> {
        let mut pref: Vec<usize> = (0..spec.scans.len()).collect();
        let size_of = |i: usize| -> DbResult<u64> { Ok(self.meta(&spec.scans[i].table)?.rows) };
        let mut sizes = Vec::new();
        for i in 0..spec.scans.len() {
            sizes.push(size_of(i)?);
        }
        let reorder = self.cfg.ndp_join_reorder;
        pref.sort_by(|&a, &b| {
            let key = |i: usize| {
                let offloaded = reorder && plans[i].offload_keys.is_some();
                (
                    if offloaded { 0u8 } else { 1u8 },
                    if offloaded {
                        (plans[i].est_selectivity * 1e6) as u64
                    } else {
                        sizes[i]
                    },
                )
            };
            key(a).cmp(&key(b))
        });
        // Greedy connectivity.
        let mut order = vec![pref[0]];
        let mut joined: HashSet<usize> = order.iter().copied().collect();
        while order.len() < spec.scans.len() {
            let next = pref
                .iter()
                .copied()
                .filter(|i| !joined.contains(i))
                .find(|&i| {
                    spec.edges.iter().any(|e| {
                        (e.left == i && joined.contains(&e.right))
                            || (e.right == i && joined.contains(&e.left))
                    })
                })
                .or_else(|| pref.iter().copied().find(|i| !joined.contains(i)))
                .expect("tables remain");
            joined.insert(next);
            order.push(next);
        }
        Ok(order)
    }

    /// Explains how a spec would execute: per-scan offload decisions (with
    /// estimated selectivities and pattern keys) and the chosen join order.
    /// Charges the same sampling I/O the real planner would.
    ///
    /// # Errors
    ///
    /// Returns catalog or I/O errors.
    pub fn explain(
        &self,
        ctx: &Ctx,
        spec: &SelectSpec,
        mode: ExecMode,
        load: HostLoad,
    ) -> DbResult<PlanExplain> {
        let plans = self.plan_scans(ctx, spec, mode, load)?;
        let order = self.join_order(spec, &plans)?;
        Ok(PlanExplain {
            scans: spec
                .scans
                .iter()
                .zip(&plans)
                .map(|(s, p)| ScanExplain {
                    table: s.table.clone(),
                    offloaded: p.offload_keys.is_some(),
                    est_selectivity: p.est_selectivity,
                    keys: p
                        .offload_keys
                        .iter()
                        .flatten()
                        .map(|k| String::from_utf8_lossy(k).into_owned())
                        .collect(),
                })
                .collect(),
            join_order: order
                .into_iter()
                .map(|i| spec.scans[i].table.clone())
                .collect(),
        })
    }

    /// Executes a select spec in the given mode under the given load.
    ///
    /// When query profiling is enabled and the calling fiber carries no
    /// span context yet (a standalone query, not one dispatched by the
    /// array scheduler), a root query span is minted here — tenant 0 —
    /// and closed when execution finishes, success or error.
    ///
    /// # Errors
    ///
    /// Returns catalog, I/O, expression, or framework errors.
    pub fn execute(
        &self,
        ctx: &Ctx,
        spec: &SelectSpec,
        mode: ExecMode,
        load: HostLoad,
    ) -> DbResult<QueryOutput> {
        let qp = ctx.qprof().clone();
        let minted = if qp.current().is_none() {
            qp.begin_query(ctx, 0)
        } else {
            None
        };
        let out = self.execute_inner(ctx, spec, mode, load);
        if let Some(sc) = minted {
            qp.end_query(ctx, sc);
        }
        out
    }

    fn execute_inner(
        &self,
        ctx: &Ctx,
        spec: &SelectSpec,
        mode: ExecMode,
        load: HostLoad,
    ) -> DbResult<QueryOutput> {
        if mode == ExecMode::Biscuit {
            // Module deployment is one-time setup (the paper loads SSDlet
            // modules before measuring), not part of query time.
            self.ensure_scan_module(ctx)?;
        }
        let t0 = ctx.now();
        let link0 = self.ssd.link().bytes_to_host();
        let scanned = || {
            self.ssd
                .device()
                .stats()
                .pages_scanned
                .load(Ordering::Relaxed)
        };
        let dev0 = scanned();

        let plans = self.plan_scans(ctx, spec, mode, load)?;

        // Extension path: the whole query (scan + aggregate) runs on the
        // device and one row comes back.
        if self.qualifies_for_agg_pushdown(spec, &plans) {
            let scan = &spec.scans[0];
            let meta = self.meta(&scan.table)?;
            let keys = plans[0].offload_keys.as_ref().expect("qualified");
            match self.scan_ndp_aggregate(
                ctx,
                meta,
                scan.predicate.as_ref().expect("keys imply predicate"),
                keys,
                &spec.aggregates,
                load,
            ) {
                Ok(mut rows) if !rows.is_empty() => {
                    exec::order_and_limit(&mut rows, &spec.order_by, spec.limit);
                    let stats = QueryStats {
                        offloaded_tables: vec![scan.table.clone()],
                        link_bytes_to_host: self.ssd.link().bytes_to_host() - link0,
                        device_pages_scanned: scanned() - dev0,
                        rows_out: rows.len(),
                        elapsed: ctx.now() - t0,
                    };
                    return Ok(QueryOutput { rows, stats });
                }
                // A global aggregate always yields one row; none means the
                // on-device aggregator hit an evaluation error.
                Ok(_)
                | Err(DbError::Biscuit(
                    BiscuitError::RequestTimeout { .. } | BiscuitError::SsdletPanicked { .. },
                )) => {
                    // Graceful degradation: the pushed-down pipeline failed
                    // past its recovery budget or could not evaluate; fall
                    // through to the general host-side execution path
                    // (whose scans carry their own fallback) for
                    // byte-identical results or the same error.
                    count(
                        ctx,
                        "db_host_fallbacks_total",
                        &[("table", scan.table.as_str()), ("cause", "agg_pushdown")],
                    );
                }
                Err(e) => return Err(e),
            }
        }

        let rows = self.join_and_shape(ctx, spec, &plans, load)?;
        let stats = QueryStats {
            offloaded_tables: spec
                .scans
                .iter()
                .zip(&plans)
                .filter(|(_, p)| p.offload_keys.is_some())
                .map(|(s, _)| s.table.clone())
                .collect(),
            link_bytes_to_host: self.ssd.link().bytes_to_host() - link0,
            device_pages_scanned: scanned() - dev0,
            rows_out: rows.len(),
            elapsed: ctx.now() - t0,
        };
        Ok(QueryOutput { rows, stats })
    }

    /// Scans the tables in join order, joins them block by block, and shapes
    /// the result.
    fn join_and_shape(
        &self,
        ctx: &Ctx,
        spec: &SelectSpec,
        plans: &[ScanPlan],
        load: HostLoad,
    ) -> DbResult<Vec<Row>> {
        let order = self.join_order(spec, plans)?;

        // Global flat row layout.
        let mut offsets = Vec::with_capacity(spec.scans.len());
        let mut width = 0usize;
        for scan in &spec.scans {
            offsets.push(width);
            width += self.meta(&scan.table)?.schema.len();
        }

        // First table. A single-scan query's global row *is* the table
        // row, so shaping runs straight off the selection's references.
        let first = order[0];
        let local = self.scan_local(ctx, first, spec, plans, load)?;
        if order.len() == 1 {
            return self.shape(ctx, spec, load, local.iter().collect(), Row::clone);
        }
        // Joins clone the first table's cells once, directly into the global
        // flat row.
        let mut acc: Vec<Row> = local
            .iter()
            .map(|r| {
                let mut wide = vec![Value::Int(0); width];
                wide[offsets[first]..][..r.len()].clone_from_slice(r);
                wide
            })
            .collect();
        let mut joined: HashSet<usize> = [first].into();

        // Subsequent tables: block nested-loop with inner re-scans.
        for &next in &order[1..] {
            let mut edges_out: Vec<usize> = Vec::new(); // global cols in acc
            let mut edges_in: Vec<usize> = Vec::new(); // local cols of inner
            for e in &spec.edges {
                if e.left == next && joined.contains(&e.right) {
                    edges_in.push(e.left_col);
                    edges_out.push(offsets[e.right] + e.right_col);
                } else if e.right == next && joined.contains(&e.left) {
                    edges_in.push(e.right_col);
                    edges_out.push(offsets[e.left] + e.left_col);
                }
            }
            // A host-scanned inner selects the same rows for every block:
            // compute the selection once (never for an empty outer, which
            // performs no inner scan) and replay only the scan's time per
            // block. An offloaded inner runs its SSDlet per block — there
            // data and timing are one thing.
            let scan = &spec.scans[next];
            let meta = self.meta(&scan.table)?;
            let conv_inner = if plans[next].offload_keys.is_none() && !acc.is_empty() {
                Some(self.select_rows(meta, scan.predicate.as_ref())?)
            } else {
                None
            };
            let mut out = Vec::new();
            for block in acc.chunks(self.cfg.bnl_block_rows.max(1)) {
                // Re-scan the inner table for every outer block — the
                // I/O amplification that makes join order matter.
                let ndp_inner;
                let inner = match &conv_inner {
                    Some(selection) => {
                        self.charge_conv_scan(ctx, meta, load)?;
                        selection
                    }
                    None => {
                        ndp_inner = self.scan_local(ctx, next, spec, plans, load)?;
                        &ndp_inner
                    }
                };
                // Probe cost on the host.
                self.charge_host_rows(ctx, (inner.len() * 16) as u64, load);
                if edges_in.is_empty() {
                    exec::cross_block(block, inner.iter(), offsets[next], &mut out);
                } else {
                    exec::hash_probe_block(
                        block,
                        &edges_out,
                        inner.iter(),
                        &edges_in,
                        offsets[next],
                        &mut out,
                    );
                }
            }
            acc = out;
            joined.insert(next);
        }

        self.shape(ctx, spec, load, acc, std::convert::identity)
    }

    /// Residual predicate, aggregation or projection, ORDER BY and LIMIT over
    /// the joined rows — owned wide rows, or references into a scan's
    /// snapshot that `own` copies out only if the query returns them as is.
    fn shape<R: Borrow<Row>>(
        &self,
        ctx: &Ctx,
        spec: &SelectSpec,
        load: HostLoad,
        mut acc: Vec<R>,
        own: impl Fn(R) -> Row,
    ) -> DbResult<Vec<Row>> {
        // Residual predicate over the full row.
        if let Some(res) = &spec.residual {
            self.charge_host_rows(ctx, (acc.len() * 16) as u64, load);
            acc = exec::filter(res, acc)?;
        }
        let mut rows = if !spec.aggregates.is_empty() {
            self.charge_host_rows(ctx, (acc.len() * 16) as u64, load);
            let mut out = exec::aggregate(spec, acc.iter().map(R::borrow))?;
            if let Some(h) = &spec.having {
                out = exec::filter(h, out)?;
            }
            out
        } else if !spec.projection.is_empty() {
            exec::project(&spec.projection, acc.iter().map(R::borrow))?
        } else {
            acc.into_iter().map(own).collect()
        };
        exec::order_and_limit(&mut rows, &spec.order_by, spec.limit);
        Ok(rows)
    }
}

/// Bumps the counter `name{labels}` in the calling simulation's registry
/// (looked up per event: these are rare).
fn count(ctx: &Ctx, name: &str, labels: &[(&str, &str)]) {
    let registry = ctx.metrics();
    if registry.is_enabled() {
        registry.counter(name, labels).inc();
    }
}
