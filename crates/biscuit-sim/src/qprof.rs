//! Query-scoped causal profiling: span propagation and per-query
//! latency attribution.
//!
//! [`crate::trace`] answers "what did the machine do"; this module answers
//! the question the paper's Fig. 10 implicitly poses — *where does an
//! individual query's latency go*? A [`SpanContext`] (query id, tenant id,
//! parent span) is minted when a query is submitted and rides along every
//! layer the request touches: the DES kernel propagates it across fiber
//! spawns, `biscuit-core` ports carry it on their envelopes (and
//! `biscuit-proto` defines its wire form), and the device datapath records
//! resource occupancy *spans* against whatever context the running fiber
//! carries. From the resulting span set, [`QueryProfiler::snapshot`]
//! derives a deterministic [`QueryProfile`] per query:
//!
//! - a per-[`Stage`] virtual-time breakdown that **sums exactly** to the
//!   query's end-to-end latency (an exclusive time sweep: every instant of
//!   the query window is attributed to the innermost — latest-started —
//!   covering span; uncovered gaps count as queue/scheduling wait);
//! - the **critical path**: the sweep's winning segments, merged, in time
//!   order — the chain of resource occupancies that the query's completion
//!   actually waited on;
//! - self-vs-blocked time per stage: `busy` is the union of a stage's
//!   recorded spans inside the window; `busy - self` is time the stage was
//!   occupied but hidden behind later-started (inner) work.
//!
//! ## Determinism and cost
//!
//! Profiling is **pure observation**: recording a span never sleeps,
//! spawns, or otherwise perturbs virtual time, so enabling it cannot
//! change any simulated result. Query and span ids are minted in fiber
//! execution order, which the kernel makes deterministic, so
//! [`QueryProfiles::to_json`] is byte-identical for a given seed — and,
//! because each parallel shard kernel owns its own profiler, shard-ordered
//! fleet exports are byte-identical across every `BISCUIT_PAR` policy.
//! Disabled (the default), every instrumentation site costs one relaxed
//! atomic load, the same contract as [`crate::trace::Tracer`] and
//! [`crate::metrics::MetricsRegistry`]. The `BISCUIT_QPROF` environment
//! variable enables collection in the examples, with its value as the
//! export path ([`crate::Simulation::enable_from_env`]).
//!
//! ## Example
//!
//! ```
//! use biscuit_sim::qprof::Stage;
//! use biscuit_sim::{Simulation, time::SimDuration};
//!
//! let sim = Simulation::new(0);
//! sim.enable_qprof();
//! sim.spawn("host", |ctx| {
//!     let qp = ctx.qprof().clone();
//!     let span = qp.begin_query(ctx, 0).unwrap();
//!     let start = ctx.now();
//!     ctx.sleep(SimDuration::from_micros(30));
//!     qp.record(Stage::NandRead, start, ctx.now(), 4096, 0);
//!     qp.end_query(ctx, span);
//! });
//! let report = sim.run();
//! let profile = &report.profiles.queries()[0];
//! assert_eq!(profile.end_to_end().as_micros(), 30);
//! assert_eq!(profile.breakdown_ps(Stage::NandRead), 30_000_000);
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::sync::Mutex;

use crate::kernel::{Ctx, Pid};
use crate::time::{SimDuration, SimTime};

/// The pipeline stage a recorded span is attributed to.
///
/// The order here is the canonical export order; it also breaks ties in
/// the exclusive sweep when two spans start at the same instant (the
/// later variant wins, i.e. the most "downstream" stage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Admission / dispatch / scheduling wait. Explicit queue spans land
    /// here, as does every instant of the query window no span covers.
    QueueWait,
    /// NAND die occupancy (page sense, read-retry, program).
    NandRead,
    /// Flash channel bus transfer.
    BusTransfer,
    /// Pattern-matcher IP streaming.
    Match,
    /// Device CPU core time: per-request firmware overhead and SSDlet
    /// compute charges.
    SsdletCompute,
    /// PCIe link DMA (either direction), including link queueing.
    Link,
    /// Host-side gather/merge of shard or port results.
    HostMerge,
    /// Host CPU time: conventional-path scans, predicate evaluation,
    /// result assembly.
    HostCompute,
}

impl Stage {
    /// All stages in canonical export order.
    pub const ALL: [Stage; 8] = [
        Stage::QueueWait,
        Stage::NandRead,
        Stage::BusTransfer,
        Stage::Match,
        Stage::SsdletCompute,
        Stage::Link,
        Stage::HostMerge,
        Stage::HostCompute,
    ];

    /// Stable snake_case label used in JSON exports and reports.
    pub fn label(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::NandRead => "nand_read",
            Stage::BusTransfer => "bus_transfer",
            Stage::Match => "match",
            Stage::SsdletCompute => "ssdlet_compute",
            Stage::Link => "link",
            Stage::HostMerge => "host_merge",
            Stage::HostCompute => "host_compute",
        }
    }
}

/// The causal identity a request carries through the stack: which query
/// (and tenant) it belongs to, and which span is its parent.
///
/// Contexts are minted by [`QueryProfiler::begin_query`] (root) and
/// [`QueryProfiler::child`] (phase nodes such as one shard of a scatter,
/// or a mid-query host fallback). The kernel propagates the current
/// context across fiber spawns; ports carry it on their envelopes (see
/// `biscuit_proto::span::SpanHeader` for the wire form).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanContext {
    /// Query id, unique within one simulation (minted from 1).
    pub query: u64,
    /// Tenant (user) id the query belongs to.
    pub tenant: u32,
    /// This context's span id; spans recorded under the context use it as
    /// their parent.
    pub span: u32,
}

/// One recorded leaf span: a resource occupancy attributed to a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SpanRec {
    parent: u32,
    stage: Stage,
    start: u64,
    end: u64,
    bytes: u64,
    lane: u32,
}

#[derive(Debug)]
struct QueryRec {
    tenant: u32,
    root: u32,
    start: u64,
    end: Option<u64>,
    spans: Vec<SpanRec>,
    /// Ids of the non-leaf nodes of the span DAG (scatter shard, host
    /// fallback) minted by [`QueryProfiler::child`].
    phases: Vec<u32>,
}

#[derive(Debug, Default)]
struct ProfState {
    next_query: u64,
    next_span: u32,
    /// Context of the fiber the kernel is currently running. Exactly one
    /// fiber runs at any instant, so this single cell is exact; it lets
    /// instrumentation sites without a `Ctx` (device reservation paths)
    /// attribute work to the right query.
    current: Option<SpanContext>,
    /// Per-fiber inherited context, indexed by [`Pid`].
    fiber_ctx: Vec<Option<SpanContext>>,
    queries: BTreeMap<u64, QueryRec>,
}

impl ProfState {
    fn set_fiber(&mut self, pid: Pid, sc: Option<SpanContext>) {
        if self.fiber_ctx.len() <= pid {
            self.fiber_ctx.resize(pid + 1, None);
        }
        self.fiber_ctx[pid] = sc;
        self.current = sc;
    }
}

#[derive(Debug)]
struct QprofInner {
    enabled: AtomicBool,
    state: Mutex<ProfState>,
}

/// A cheaply cloneable handle to a simulation's query profiler.
///
/// Every [`crate::Simulation`] owns one (disabled by default); library
/// code shares it by clone, exactly like [`crate::trace::Tracer`]. All
/// entry points check one relaxed atomic flag first, so the disabled
/// profiler costs one relaxed atomic load per site and nothing else.
#[derive(Debug, Clone)]
pub struct QueryProfiler {
    inner: Arc<QprofInner>,
}

impl Default for QueryProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryProfiler {
    /// Creates a disabled profiler.
    pub fn new() -> Self {
        QueryProfiler {
            inner: Arc::new(QprofInner {
                enabled: AtomicBool::new(false),
                state: Mutex::new(ProfState::default()),
            }),
        }
    }

    /// Enables collection (ids restart from 1 on a fresh profiler).
    pub fn enable(&self) {
        self.inner.enabled.store(true, Ordering::Release);
    }

    /// True while the profiler records spans.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Kernel hook: a new fiber `pid` inherits the spawning fiber's
    /// current context.
    #[inline]
    pub(crate) fn on_spawn(&self, pid: Pid) {
        if !self.is_enabled() {
            return;
        }
        let mut st = self.inner.state.lock();
        let cur = st.current;
        if st.fiber_ctx.len() <= pid {
            st.fiber_ctx.resize(pid + 1, None);
        }
        st.fiber_ctx[pid] = cur;
    }

    /// Kernel hook: the scheduler is about to resume fiber `pid`; its
    /// inherited context becomes the current one.
    #[inline]
    pub(crate) fn on_switch(&self, pid: Pid) {
        if !self.is_enabled() {
            return;
        }
        let mut st = self.inner.state.lock();
        st.current = st.fiber_ctx.get(pid).copied().flatten();
    }

    /// Mints a root [`SpanContext`] for a newly submitted query of
    /// `tenant` and installs it as the calling fiber's context. Returns
    /// `None` while disabled.
    pub fn begin_query(&self, ctx: &Ctx, tenant: u32) -> Option<SpanContext> {
        self.begin_query_at(ctx.now(), ctx.pid(), tenant)
    }

    /// [`QueryProfiler::begin_query`] with an explicit submission time and
    /// fiber — used when the minting site (e.g. a scheduler's submit path)
    /// runs on a different fiber than the query body.
    pub fn begin_query_at(&self, now: SimTime, pid: Pid, tenant: u32) -> Option<SpanContext> {
        if !self.is_enabled() {
            return None;
        }
        let mut st = self.inner.state.lock();
        st.next_query += 1;
        st.next_span += 1;
        let sc = SpanContext {
            query: st.next_query,
            tenant,
            span: st.next_span,
        };
        st.queries.insert(
            sc.query,
            QueryRec {
                tenant,
                root: sc.span,
                start: now.as_ps(),
                end: None,
                spans: Vec::new(),
                phases: Vec::new(),
            },
        );
        st.set_fiber(pid, Some(sc));
        Some(sc)
    }

    /// Closes `sc`'s query at the current time and clears the calling
    /// fiber's context.
    pub fn end_query(&self, ctx: &Ctx, sc: SpanContext) {
        if !self.is_enabled() {
            return;
        }
        let mut st = self.inner.state.lock();
        if let Some(q) = st.queries.get_mut(&sc.query) {
            q.end = Some(ctx.now().as_ps());
        }
        st.set_fiber(ctx.pid(), None);
    }

    /// Mints a child phase node under `sc` (e.g. `"shard3"` of a scatter,
    /// or `"host_fallback"` after an offload failure) and returns the
    /// child context. Spans recorded under the returned context parent to
    /// the new node, keeping the DAG causal through retries and fallback.
    /// `label` names the node at the call site only: profiles do not
    /// export phase labels.
    pub fn child(&self, sc: SpanContext, _label: &'static str) -> SpanContext {
        if !self.is_enabled() {
            return sc;
        }
        let mut st = self.inner.state.lock();
        st.next_span += 1;
        let id = st.next_span;
        if let Some(q) = st.queries.get_mut(&sc.query) {
            q.phases.push(id);
        }
        SpanContext { span: id, ..sc }
    }

    /// Installs `sc` as the calling fiber's context (adoption from a
    /// packet-carried header, or a phase switch within one fiber).
    pub fn adopt(&self, ctx: &Ctx, sc: Option<SpanContext>) {
        self.adopt_on(ctx.pid(), sc);
    }

    /// [`QueryProfiler::adopt`] by fiber id.
    pub fn adopt_on(&self, pid: Pid, sc: Option<SpanContext>) {
        if !self.is_enabled() {
            return;
        }
        self.inner.state.lock().set_fiber(pid, sc);
    }

    /// The context of the currently running fiber, if any.
    pub fn current(&self) -> Option<SpanContext> {
        if !self.is_enabled() {
            return None;
        }
        self.inner.state.lock().current
    }

    /// Records a `[start, end)` occupancy of `stage` against the current
    /// fiber's context. `lane` is the channel / core / link-direction
    /// index, exported with each critical-path segment. A no-op while
    /// disabled or outside any query.
    #[inline]
    pub fn record(&self, stage: Stage, start: SimTime, end: SimTime, bytes: u64, lane: u32) {
        if !self.is_enabled() {
            return;
        }
        let mut st = self.inner.state.lock();
        let Some(sc) = st.current else { return };
        Self::push_span(&mut st, sc, stage, start, end, bytes, lane);
    }

    /// Records a span against an explicit context — used when the
    /// recording fiber acts on another query's behalf (e.g. a scheduler
    /// recording a queue-wait span at dispatch).
    pub fn record_for(
        &self,
        sc: SpanContext,
        stage: Stage,
        start: SimTime,
        end: SimTime,
        bytes: u64,
        lane: u32,
    ) {
        if !self.is_enabled() {
            return;
        }
        let mut st = self.inner.state.lock();
        Self::push_span(&mut st, sc, stage, start, end, bytes, lane);
    }

    #[allow(clippy::too_many_arguments)]
    fn push_span(
        st: &mut ProfState,
        sc: SpanContext,
        stage: Stage,
        start: SimTime,
        end: SimTime,
        bytes: u64,
        lane: u32,
    ) {
        if end <= start {
            return;
        }
        if let Some(q) = st.queries.get_mut(&sc.query) {
            q.spans.push(SpanRec {
                parent: sc.span,
                stage,
                start: start.as_ps(),
                end: end.as_ps(),
                bytes,
                lane,
            });
        }
    }

    /// Derives the per-query profiles from everything recorded so far.
    pub fn snapshot(&self) -> QueryProfiles {
        let st = self.inner.state.lock();
        let mut queries = Vec::new();
        let mut open = 0usize;
        for (id, q) in &st.queries {
            match q.end {
                Some(end) => queries.push(QueryProfile::derive(*id, q, end)),
                None => open += 1,
            }
        }
        QueryProfiles { queries, open }
    }
}

/// One segment of a query's critical path: the span the sweep attributed
/// this slice of the query window to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CritSegment {
    /// Stage of the winning span (or [`Stage::QueueWait`] for a gap).
    pub stage: Stage,
    /// Channel / core / direction index of the winning span.
    pub lane: u32,
    /// Segment start, picoseconds.
    pub start_ps: u64,
    /// Segment end, picoseconds.
    pub end_ps: u64,
}

/// The derived latency attribution of one completed query.
#[derive(Debug, Clone)]
pub struct QueryProfile {
    /// Query id.
    pub query: u64,
    /// Tenant (user) id.
    pub tenant: u32,
    /// Submission time.
    pub start: SimTime,
    /// Completion time.
    pub end: SimTime,
    /// Exclusive per-stage attribution, in [`Stage::ALL`] order. Sums
    /// exactly to `end - start`.
    pub breakdown: [u64; Stage::ALL.len()],
    /// Union of each stage's recorded spans inside the query window
    /// ("busy" time); `busy - breakdown` is that stage's blocked-behind-
    /// inner-work time.
    pub busy: [u64; Stage::ALL.len()],
    /// Bytes moved per stage (sum of recorded span bytes).
    pub bytes: [u64; Stage::ALL.len()],
    /// The critical path: winning sweep segments, merged, in time order.
    pub critical_path: Vec<CritSegment>,
    /// Leaf spans recorded for this query.
    pub spans: usize,
    /// Spans that violated closure: outside the query window, or parented
    /// to a span id that is neither the root nor a recorded phase node.
    /// Zero when accounting closes (the tested invariant).
    pub orphans: usize,
}

impl QueryProfile {
    /// End-to-end virtual latency.
    pub fn end_to_end(&self) -> SimDuration {
        self.end - self.start
    }

    /// Exclusive picoseconds attributed to `stage`.
    pub fn breakdown_ps(&self, stage: Stage) -> u64 {
        self.breakdown[Stage::ALL.iter().position(|s| *s == stage).expect("stage")]
    }

    /// Sum of the exclusive breakdown — equals `end_to_end` by
    /// construction (asserted by the determinism suite).
    pub fn breakdown_total_ps(&self) -> u64 {
        self.breakdown.iter().sum()
    }

    fn derive(id: u64, q: &QueryRec, end: u64) -> QueryProfile {
        let start = q.start;
        let mut orphans = 0usize;
        // Parent validity: root or a recorded phase node.
        let mut valid = q.phases.clone();
        valid.push(q.root);
        valid.sort_unstable();
        let mut clipped: Vec<SpanRec> = Vec::with_capacity(q.spans.len());
        for s in &q.spans {
            if s.start < start || s.end > end || valid.binary_search(&s.parent).is_err() {
                orphans += 1;
                continue;
            }
            clipped.push(*s);
        }

        // Exclusive sweep: at every elementary interval the latest-started
        // covering span wins (ties: later record order). Gaps are queue /
        // scheduling wait.
        let mut bounds: Vec<u64> = Vec::with_capacity(clipped.len() * 2 + 2);
        bounds.push(start);
        bounds.push(end);
        for s in &clipped {
            bounds.push(s.start);
            bounds.push(s.end);
        }
        bounds.sort_unstable();
        bounds.dedup();

        let mut breakdown = [0u64; Stage::ALL.len()];
        let mut segments: Vec<CritSegment> = Vec::new();
        for w in bounds.windows(2) {
            let (a, b) = (w[0], w[1]);
            if a < start || b > end || a == b {
                continue;
            }
            let mut win: Option<(u64, usize, Stage, u32)> = None;
            for (i, s) in clipped.iter().enumerate() {
                if s.start <= a && s.end >= b {
                    let key = (s.start, i, s.stage, s.lane);
                    if win.is_none_or(|cur| (key.0, key.1) > (cur.0, cur.1)) {
                        win = Some(key);
                    }
                }
            }
            let (stage, lane) = win.map_or((Stage::QueueWait, 0), |(_, _, st, ln)| (st, ln));
            breakdown[Stage::ALL.iter().position(|s| *s == stage).expect("stage")] += b - a;
            match segments.last_mut() {
                Some(last) if last.stage == stage && last.lane == lane && last.end_ps == a => {
                    last.end_ps = b;
                }
                _ => segments.push(CritSegment {
                    stage,
                    lane,
                    start_ps: a,
                    end_ps: b,
                }),
            }
        }

        // Per-stage busy time: union of that stage's intervals.
        let mut busy = [0u64; Stage::ALL.len()];
        let mut bytes = [0u64; Stage::ALL.len()];
        for (si, stage) in Stage::ALL.iter().enumerate() {
            let mut ivs: Vec<(u64, u64)> = clipped
                .iter()
                .filter(|s| s.stage == *stage)
                .map(|s| (s.start, s.end))
                .collect();
            ivs.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in ivs {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            busy[si] = covered;
            bytes[si] = clipped
                .iter()
                .filter(|s| s.stage == *stage)
                .map(|s| s.bytes)
                .sum();
        }

        QueryProfile {
            query: id,
            tenant: q.tenant,
            start: SimTime::from_ps(start),
            end: SimTime::from_ps(end),
            breakdown,
            busy,
            bytes,
            critical_path: segments,
            spans: clipped.len(),
            orphans,
        }
    }
}

/// The profiles of every completed query in one simulation, in query-id
/// order. Carried on [`crate::SimReport::profiles`].
#[derive(Debug, Clone, Default)]
pub struct QueryProfiles {
    queries: Vec<QueryProfile>,
    open: usize,
}

impl QueryProfiles {
    /// The completed queries' profiles, in query-id order.
    pub fn queries(&self) -> &[QueryProfile] {
        &self.queries
    }

    /// Queries begun but never ended — nonzero means a leak (a query
    /// fiber died without closing its root span).
    pub fn open(&self) -> usize {
        self.open
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty() && self.open == 0
    }

    /// Byte-deterministic JSON export. All values are integers (no float
    /// formatting), keys are emitted in a fixed order, and queries are
    /// sorted by id, so the output is a pure function of the recorded
    /// span set — the artifact the cross-policy determinism suite diffs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"queries\":[");
        for (i, q) in self.queries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"query\":{},\"tenant\":{},\"start_ps\":{},\"end_ps\":{},\"end_to_end_ps\":{},\"spans\":{},\"orphans\":{}",
                q.query,
                q.tenant,
                q.start.as_ps(),
                q.end.as_ps(),
                q.end_to_end().as_ps(),
                q.spans,
                q.orphans
            ));
            for (title, values) in [
                ("breakdown_ps", &q.breakdown),
                ("busy_ps", &q.busy),
                ("bytes", &q.bytes),
            ] {
                out.push_str(&format!(",\"{title}\":{{"));
                for (si, stage) in Stage::ALL.iter().enumerate() {
                    if si > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"{}\":{}", stage.label(), values[si]));
                }
                out.push('}');
            }
            out.push_str(",\"critical_path\":[");
            for (si, seg) in q.critical_path.iter().enumerate() {
                if si > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"stage\":\"{}\",\"lane\":{},\"start_ps\":{},\"end_ps\":{}}}",
                    seg.stage.label(),
                    seg.lane,
                    seg.start_ps,
                    seg.end_ps
                ));
            }
            out.push_str("]}");
        }
        out.push_str(&format!("],\"open\":{}}}", self.open));
        out
    }

    /// Writes [`QueryProfiles::to_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn write_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Renders a human-readable per-stage latency table for each query
    /// (what a `BISCUIT_QPROF` run prints after it).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        for q in &self.queries {
            let total = q.end_to_end().as_ps().max(1);
            out.push_str(&format!(
                "query {} (tenant {}): end-to-end {:.3} us, {} spans, {} orphans\n",
                q.query,
                q.tenant,
                q.end_to_end().as_ps() as f64 / 1e6,
                q.spans,
                q.orphans
            ));
            out.push_str(&format!(
                "  {:<16}{:>14}{:>9}{:>14}{:>14}\n",
                "stage", "self (us)", "self %", "busy (us)", "bytes"
            ));
            for (si, stage) in Stage::ALL.iter().enumerate() {
                if q.breakdown[si] == 0 && q.busy[si] == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "  {:<16}{:>14.3}{:>8.1}%{:>14.3}{:>14}\n",
                    stage.label(),
                    q.breakdown[si] as f64 / 1e6,
                    q.breakdown[si] as f64 * 100.0 / total as f64,
                    q.busy[si] as f64 / 1e6,
                    q.bytes[si]
                ));
            }
            out.push_str(&format!(
                "  critical path: {} segments\n",
                q.critical_path.len()
            ));
        }
        if self.open > 0 {
            out.push_str(&format!("WARNING: {} queries never closed\n", self.open));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulation;

    fn ps(v: u64) -> SimTime {
        SimTime::from_ps(v)
    }

    #[test]
    fn disabled_profiler_is_inert() {
        let sim = Simulation::new(0);
        sim.spawn("q", |ctx| {
            let qp = ctx.qprof().clone();
            assert!(qp.begin_query(ctx, 0).is_none());
            qp.record(Stage::NandRead, ps(0), ps(10), 0, 0);
            assert!(qp.current().is_none());
        });
        let report = sim.run();
        assert!(report.profiles.is_empty());
    }

    #[test]
    fn breakdown_sums_to_end_to_end_with_gaps_and_overlap() {
        let sim = Simulation::new(0);
        sim.enable_qprof();
        sim.spawn("q", |ctx| {
            let qp = ctx.qprof().clone();
            let sc = qp.begin_query(ctx, 3).unwrap();
            // Window [0, 100]: nand [10,40], bus [30,60] (overlaps nand),
            // gap [60,80], link [80,100].
            qp.record(Stage::NandRead, ps(10), ps(40), 4096, 2);
            qp.record(Stage::BusTransfer, ps(30), ps(60), 4096, 2);
            qp.record(Stage::Link, ps(80), ps(100), 512, 0);
            ctx.sleep(SimDuration::from_ps(100));
            qp.end_query(ctx, sc);
        });
        let report = sim.run();
        let q = &report.profiles.queries()[0];
        assert_eq!(q.end_to_end().as_ps(), 100);
        assert_eq!(q.breakdown_total_ps(), 100);
        // Exclusive attribution: nand keeps [10,30), bus wins [30,60)
        // (later start), gaps [0,10) and [60,80) are queue wait.
        assert_eq!(q.breakdown_ps(Stage::NandRead), 20);
        assert_eq!(q.breakdown_ps(Stage::BusTransfer), 30);
        assert_eq!(q.breakdown_ps(Stage::Link), 20);
        assert_eq!(q.breakdown_ps(Stage::QueueWait), 30);
        // Busy is the raw union: nand 30, bus 30.
        assert_eq!(q.busy[1], 30);
        assert_eq!(q.orphans, 0);
        // Critical path in time order, queue gaps included.
        let stages: Vec<Stage> = q.critical_path.iter().map(|s| s.stage).collect();
        assert_eq!(
            stages,
            vec![
                Stage::QueueWait,
                Stage::NandRead,
                Stage::BusTransfer,
                Stage::QueueWait,
                Stage::Link
            ]
        );
    }

    #[test]
    fn contexts_inherit_across_spawn_and_phases_parent_correctly() {
        let sim = Simulation::new(0);
        sim.enable_qprof();
        sim.spawn("root", |ctx| {
            let qp = ctx.qprof().clone();
            let sc = qp.begin_query(ctx, 1).unwrap();
            let shard = qp.child(sc, "shard0");
            let qp2 = qp.clone();
            ctx.spawn("worker", move |wctx| {
                // Inherited the root context; switch to the shard phase.
                assert_eq!(qp2.current().unwrap().query, sc.query);
                qp2.adopt(wctx, Some(shard));
                let t0 = wctx.now();
                wctx.sleep(SimDuration::from_ps(50));
                qp2.record(Stage::SsdletCompute, t0, wctx.now(), 0, 0);
            });
            ctx.sleep(SimDuration::from_ps(80));
            qp.end_query(ctx, sc);
        });
        let report = sim.run();
        let q = &report.profiles.queries()[0];
        assert_eq!(q.spans, 1);
        assert_eq!(q.orphans, 0);
        assert_eq!(q.breakdown_ps(Stage::SsdletCompute), 50);
    }

    #[test]
    fn orphan_spans_are_counted_not_attributed() {
        let sim = Simulation::new(0);
        sim.enable_qprof();
        sim.spawn("q", |ctx| {
            let qp = ctx.qprof().clone();
            let sc = qp.begin_query(ctx, 0).unwrap();
            ctx.sleep(SimDuration::from_ps(10));
            // Bad parent id.
            qp.record_for(
                SpanContext { span: 9999, ..sc },
                Stage::NandRead,
                ps(0),
                ps(5),
                0,
                0,
            );
            qp.end_query(ctx, sc);
        });
        let report = sim.run();
        let q = &report.profiles.queries()[0];
        assert_eq!(q.orphans, 1);
        assert_eq!(q.spans, 0);
        assert_eq!(q.breakdown_ps(Stage::QueueWait), 10);
    }

    #[test]
    fn open_queries_are_reported() {
        let sim = Simulation::new(0);
        sim.enable_qprof();
        sim.spawn("q", |ctx| {
            let qp = ctx.qprof().clone();
            let _ = qp.begin_query(ctx, 0).unwrap();
            // Never ended.
        });
        let report = sim.run();
        assert_eq!(report.profiles.open(), 1);
        assert!(report.profiles.queries().is_empty());
    }

    #[test]
    fn json_export_is_deterministic_and_integer_only() {
        fn run() -> String {
            let sim = Simulation::new(7);
            sim.enable_qprof();
            sim.spawn("q", |ctx| {
                let qp = ctx.qprof().clone();
                let sc = qp.begin_query(ctx, 2).unwrap();
                qp.record(Stage::Match, ps(0), ps(25), 16384, 1);
                ctx.sleep(SimDuration::from_ps(40));
                qp.end_query(ctx, sc);
            });
            sim.run().profiles.to_json()
        }
        let a = run();
        assert_eq!(a, run());
        assert!(a.contains("\"end_to_end_ps\":40"));
        assert!(a.contains("\"match\":25"));
        assert!(!a.contains('.'), "integer-only export, got: {a}");
    }
}
