//! Multi-SSD scale-out: shard coordinator, ordered merge port, and a
//! concurrent query scheduler with admission control.
//!
//! The paper's Fig. 1(b) scale-up argument is that every Biscuit drive
//! filters its own shard locally, so aggregate throughput grows with the
//! drive count while a conventional host stays pinned at one CPU. This
//! module turns that argument into an API: an [`SsdArray`] owns N
//! simulated drives, [`SsdArray::scatter`] fans a per-shard job out to
//! all of them as concurrent DES fibers, and the results come back
//! through an ordered, backpressured merge port.
//!
//! ## Ordering and determinism
//!
//! Each shard writes into its own bounded merge lane, tagging items with
//! a per-lane sequence number. [`MergeRx`] consumes lanes round-robin in
//! shard-id order, emitting lane item `r` of every still-open shard
//! before any lane's item `r + 1`. The global merge order is therefore a
//! pure function of the per-shard item counts — `(shard id, sequence)`
//! fully determines it — independent of how the per-drive fibers
//! interleave. Per-shard FIFO order is asserted structurally on every
//! pop. Bounded lanes give backpressure: a fast shard runs at most
//! `merge_capacity` items ahead of the merge cursor.
//!
//! ## Drive-loss recovery
//!
//! When the array's [`FaultPlan`] arms `drive_losses`, a scatter may lose
//! one whole drive mid-flight ([`DriveLossPhase::MidScatter`]: before the
//! shard job runs; [`DriveLossPhase::MidGather`]: after a few items). The
//! lost drive goes *silent* — it never closes its lane — so the gather
//! loop detects it via the plan's `host_timeout` deadline, abandons the
//! lane, and re-scatters that shard to the caller's host-side fallback
//! (a Conv scan). Results stay byte-identical to the fault-free run
//! because the fallback replaces the lost shard's entire item stream.
//!
//! ## Concurrent queries and QoS
//!
//! [`QueryScheduler`] multiplexes many independent queries from many
//! tenants ("users") over one array. Dispatch order is **virtual-time
//! weighted fair queueing** (start-time fair queueing): each accepted
//! query gets a start tag `S = max(V, F_u)` and a finish tag
//! `F = S + cost / w_u`, a fixed pool of worker fibers (admission
//! control) always runs the globally smallest finish tag next, and the
//! scheduler's virtual clock `V` advances to the start tag of whatever
//! it dispatches. Per-tenant queues are bounded: the blocking
//! [`QueryScheduler::submit`] exerts backpressure on the host loop,
//! while [`QueryScheduler::try_submit`] sheds instead — returning a
//! typed [`QueryShed`] metered as `sched_shed_total{user}`. Every
//! tenant's offered/completed/shed counts plus queue-wait and latency
//! histograms are tracked unconditionally (and cheaply) inside the
//! scheduler, so 1M-query soaks over tens of thousands of tenants can
//! audit fairness without registering 20k instruments; see
//! `docs/QOS.md` for the model and its proofs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use biscuit_sim::sync::Mutex;

use biscuit_core::Ssd;
use biscuit_sim::fault::{DriveLossPhase, FaultPlan, FaultSite};
use biscuit_sim::metrics::{Counter, Gauge, HistogramData};
use biscuit_sim::qprof::{QueryProfiler, SpanContext, Stage};
use biscuit_sim::queue::{SimQueue, WaitQueue};
use biscuit_sim::trace::TraceEvent;
use biscuit_sim::{Ctx, MetricsRegistry, SimTime, Tracer};

use crate::config::HostConfig;
use crate::io::ConvIo;

// ---------------------------------------------------------------------------
// Ordered merge port
// ---------------------------------------------------------------------------

/// Creates an ordered, backpressured merge channel with `lanes` per-shard
/// lanes of `capacity` items each. Returns one [`MergeTx`] per lane (give
/// lane `i` to shard `i`'s producer fiber) and the single [`MergeRx`]
/// consumer.
///
/// # Panics
///
/// Panics if `lanes` is zero or `capacity` is zero.
pub fn merge_channel<T: Send + 'static>(
    lanes: usize,
    capacity: usize,
) -> (Vec<MergeTx<T>>, MergeRx<T>) {
    assert!(lanes > 0, "merge channel needs at least one lane");
    let queues: Vec<SimQueue<(u64, T)>> = (0..lanes).map(|_| SimQueue::new(capacity)).collect();
    let txs = queues
        .iter()
        .map(|q| MergeTx {
            inner: Arc::new(TxInner {
                lane: q.clone(),
                seq: AtomicU64::new(0),
                cut: AtomicU64::new(u64::MAX),
            }),
        })
        .collect();
    let rx = MergeRx {
        lanes: queues,
        popped: vec![0; lanes],
        done: vec![false; lanes],
        cursor: 0,
        open: lanes,
    };
    (txs, rx)
}

struct TxInner<T> {
    lane: SimQueue<(u64, T)>,
    seq: AtomicU64,
    /// Silent-failure rig for drive-loss injection: sends at or beyond
    /// this sequence number are dropped and `close` is suppressed, so the
    /// lane looks like a drive that died without a word. `u64::MAX` means
    /// healthy.
    cut: AtomicU64,
}

/// Producer handle for one merge lane (cheaply cloneable; clones share
/// the lane and its sequence counter).
pub struct MergeTx<T> {
    inner: Arc<TxInner<T>>,
}

impl<T> Clone for MergeTx<T> {
    fn clone(&self) -> Self {
        MergeTx {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> std::fmt::Debug for MergeTx<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MergeTx")
            .field("sent", &self.inner.seq.load(Ordering::Relaxed))
            .finish()
    }
}

impl<T: Send + 'static> MergeTx<T> {
    /// Appends `item` to this lane, blocking in virtual time while the
    /// lane is full (backpressure). Returns `Err` with the item when the
    /// consumer abandoned the lane.
    pub fn send(&self, ctx: &Ctx, item: T) -> Result<(), T> {
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        if seq >= self.inner.cut.load(Ordering::Relaxed) {
            return Ok(()); // silently lost: the drive is dead
        }
        self.inner.lane.push(ctx, (seq, item)).map_err(|e| (e.0).1)
    }

    /// Items sent so far (including any silently dropped ones).
    pub fn sent(&self) -> u64 {
        self.inner.seq.load(Ordering::Relaxed)
    }

    /// Marks the lane complete. Suppressed on a silenced lane — a dead
    /// drive never says goodbye.
    pub fn close(&self, ctx: &Ctx) {
        if self.inner.cut.load(Ordering::Relaxed) == u64::MAX {
            self.inner.lane.close(ctx);
        }
    }

    /// Rigs the lane for silent drive loss: sends at or beyond sequence
    /// `after` vanish and [`MergeTx::close`] becomes a no-op.
    pub fn silence_after(&self, after: u64) {
        self.inner.cut.store(after, Ordering::Relaxed);
    }
}

/// The merge consumer abandoned no lane yet, but the lane under the
/// cursor stayed silent past the deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeLag {
    /// The lane the merge cursor was waiting on when the deadline passed.
    pub shard: usize,
}

/// Consumer side of [`merge_channel`]: emits `(shard, sequence, item)`
/// triples in the canonical order (sequence-major, shard-id-minor over
/// still-open lanes).
pub struct MergeRx<T> {
    lanes: Vec<SimQueue<(u64, T)>>,
    popped: Vec<u64>,
    done: Vec<bool>,
    cursor: usize,
    open: usize,
}

impl<T> std::fmt::Debug for MergeRx<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MergeRx")
            .field("lanes", &self.lanes.len())
            .field("open", &self.open)
            .field("cursor", &self.cursor)
            .finish()
    }
}

impl<T: Send + 'static> MergeRx<T> {
    /// The next item in canonical merge order, or `None` once every lane
    /// closed and drained. Blocks in virtual time on the lane under the
    /// cursor.
    ///
    /// # Panics
    ///
    /// Panics if a lane violates per-shard FIFO sequencing (a bug in the
    /// producer, not a recoverable fault).
    pub fn next(&mut self, ctx: &Ctx) -> Option<(usize, u64, T)> {
        loop {
            if self.open == 0 {
                return None;
            }
            let s = self.cursor;
            if self.done[s] {
                self.advance();
                continue;
            }
            match self.lanes[s].pop(ctx) {
                Some((seq, item)) => return Some(self.emit(s, seq, item)),
                None => self.retire(s),
            }
        }
    }

    /// Like [`MergeRx::next`], but gives up after `timeout` of silence on
    /// the lane under the cursor, returning which shard lagged. The
    /// cursor does not advance; the caller typically
    /// [abandons](MergeRx::abandon) the shard and keeps merging.
    ///
    /// # Errors
    ///
    /// Returns [`MergeLag`] naming the silent shard.
    pub fn next_deadline(
        &mut self,
        ctx: &Ctx,
        timeout: biscuit_sim::SimDuration,
    ) -> Result<Option<(usize, u64, T)>, MergeLag> {
        loop {
            if self.open == 0 {
                return Ok(None);
            }
            let s = self.cursor;
            if self.done[s] {
                self.advance();
                continue;
            }
            match self.lanes[s].pop_deadline(ctx, ctx.now() + timeout) {
                Ok(Some((seq, item))) => return Ok(Some(self.emit(s, seq, item))),
                Ok(None) => self.retire(s),
                Err(_) => return Err(MergeLag { shard: s }),
            }
        }
    }

    /// Drops `shard` from the merge (after a [`MergeLag`]): its lane is
    /// closed — releasing any producer blocked on backpressure — and its
    /// remaining items are discarded.
    pub fn abandon(&mut self, ctx: &Ctx, shard: usize) {
        if !self.done[shard] {
            self.lanes[shard].close(ctx);
            self.retire(shard);
        }
    }

    fn emit(&mut self, s: usize, seq: u64, item: T) -> (usize, u64, T) {
        assert_eq!(
            seq, self.popped[s],
            "merge lane {s} violated per-shard FIFO order"
        );
        self.popped[s] += 1;
        self.advance();
        (s, seq, item)
    }

    fn retire(&mut self, s: usize) {
        self.done[s] = true;
        self.open -= 1;
        self.advance();
    }

    fn advance(&mut self) {
        self.cursor = (self.cursor + 1) % self.lanes.len();
    }
}

// ---------------------------------------------------------------------------
// Shard coordinator
// ---------------------------------------------------------------------------

/// A shard job could not complete on the device path; the coordinator
/// discards the shard's partial output and re-scatters it to the
/// host-side fallback.
#[derive(Debug, Clone)]
pub struct ShardFailure {
    /// Human-readable cause (timeout, SSDlet panic, closed lane, ...).
    pub reason: String,
}

impl ShardFailure {
    /// Wraps a cause.
    pub fn new(reason: impl Into<String>) -> Self {
        ShardFailure {
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard job failed: {}", self.reason)
    }
}

impl std::error::Error for ShardFailure {}

/// One drive of an [`SsdArray`]: the Biscuit host handle plus a Conv I/O
/// path sharing the same device and link (for fallbacks and baselines).
#[derive(Debug, Clone)]
pub struct ArrayShard {
    /// Shard index (0-based, stable).
    pub id: usize,
    /// Biscuit host handle for this drive.
    pub ssd: Ssd,
    /// Conventional read path over the same device and link.
    pub conv: ConvIo,
}

impl ArrayShard {
    /// Shard `id` over `ssd`, with a Conv I/O path on the drive's own
    /// device and link.
    pub fn new(id: usize, ssd: Ssd, host_cfg: HostConfig) -> ArrayShard {
        let conv = ConvIo::new(Arc::clone(ssd.device()), Arc::clone(ssd.link()), host_cfg);
        ArrayShard { id, ssd, conv }
    }
}

/// Knobs for the shard coordinator.
#[derive(Debug, Clone)]
pub struct ArrayConfig {
    /// Per-shard merge-lane capacity: how many items a shard may run
    /// ahead of the merge cursor before backpressure parks it.
    pub merge_capacity: usize,
}

impl Default for ArrayConfig {
    fn default() -> Self {
        ArrayConfig { merge_capacity: 16 }
    }
}

/// Per-shard outcome of one [`SsdArray::scatter`].
#[derive(Debug, Clone)]
pub struct ShardResult<T> {
    /// Which shard produced (or recovered) these items.
    pub shard: usize,
    /// The shard's items in FIFO order.
    pub items: Vec<T>,
    /// True when the device path was lost and the items came from the
    /// host-side fallback instead.
    pub recovered: bool,
}

struct ArrayInner {
    shards: Vec<ArrayShard>,
    cfg: ArrayConfig,
    fault: OnceLock<FaultPlan>,
}

/// Host-side coordinator owning N simulated drives (cheaply cloneable).
///
/// # Examples
///
/// ```
/// use biscuit_host::array::{ArrayConfig, SsdArray};
/// use biscuit_host::HostConfig;
/// use biscuit_core::{CoreConfig, Ssd};
/// use biscuit_fs::Fs;
/// use biscuit_ssd::{SsdConfig, SsdDevice};
/// use std::sync::Arc;
///
/// let drives: Vec<Ssd> = (0..4)
///     .map(|_| {
///         let dev = Arc::new(SsdDevice::new(SsdConfig {
///             logical_capacity: 16 << 20,
///             ..SsdConfig::paper_default()
///         }));
///         Ssd::new(Fs::format(dev), CoreConfig::paper_default())
///     })
///     .collect();
/// let array = SsdArray::new(drives, HostConfig::default(), ArrayConfig::default());
/// assert_eq!(array.len(), 4);
/// ```
#[derive(Clone)]
pub struct SsdArray {
    inner: Arc<ArrayInner>,
}

impl std::fmt::Debug for SsdArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsdArray")
            .field("shards", &self.inner.shards.len())
            .finish()
    }
}

impl SsdArray {
    /// Builds an array over `drives`, deriving each shard's Conv I/O path
    /// from the drive's own device and link.
    ///
    /// # Panics
    ///
    /// Panics if `drives` is empty.
    pub fn new(drives: Vec<Ssd>, host_cfg: HostConfig, cfg: ArrayConfig) -> SsdArray {
        assert!(!drives.is_empty(), "an SsdArray needs at least one drive");
        let shards = drives
            .into_iter()
            .enumerate()
            .map(|(id, ssd)| ArrayShard::new(id, ssd, host_cfg.clone()))
            .collect();
        SsdArray {
            inner: Arc::new(ArrayInner {
                shards,
                cfg,
                fault: OnceLock::new(),
            }),
        }
    }

    /// Number of drives in the array.
    pub fn len(&self) -> usize {
        self.inner.shards.len()
    }

    /// True for a zero-drive array (never constructible; kept for the
    /// conventional `len`/`is_empty` pairing).
    pub fn is_empty(&self) -> bool {
        self.inner.shards.is_empty()
    }

    /// The shards in id order.
    pub fn shards(&self) -> &[ArrayShard] {
        &self.inner.shards
    }

    /// One shard by id.
    pub fn shard(&self, id: usize) -> &ArrayShard {
        &self.inner.shards[id]
    }

    /// Shim for the frozen `biscuit-perf` harness: the drives and the
    /// coordinator report to the simulation of the `&Ctx` they are called
    /// with, so there is nothing to attach. Goes with the next `benchmark`
    /// PR (ROADMAP 1(a)).
    #[doc(hidden)]
    pub fn attach_tracer(&self, _tracer: &Tracer) {}

    /// Shim for the frozen `biscuit-perf` harness; see
    /// [`SsdArray::attach_tracer`].
    #[doc(hidden)]
    pub fn attach_metrics(&self, _registry: &MetricsRegistry) {}

    /// Shim for the frozen `biscuit-perf` harness; see
    /// [`SsdArray::attach_tracer`].
    #[doc(hidden)]
    pub fn attach_qprof(&self, _prof: &QueryProfiler) {}

    /// Arms every drive with one shared fault plan: all per-drive sites
    /// plus the coordinator's whole-drive-loss site draw from `plan`. An
    /// array is armed once.
    pub fn attach_fault_plan(&self, plan: &FaultPlan) {
        for shard in &self.inner.shards {
            shard.ssd.attach_fault_plan(plan);
        }
        let _ = self.inner.fault.set(plan.clone());
    }

    /// The armed fault plan, or [`FaultPlan::none`].
    pub fn fault_plan(&self) -> FaultPlan {
        self.inner
            .fault
            .get()
            .cloned()
            .unwrap_or_else(FaultPlan::none)
    }

    /// Scatters `job` across every shard as concurrent fibers and gathers
    /// the per-shard item streams through an ordered merge port.
    ///
    /// `job` runs once per shard on its own fiber, streaming items into
    /// its [`MergeTx`] lane; on success it must NOT close the lane (the
    /// coordinator does). A job error, an SSDlet failure surfaced as a
    /// job error, or a whole-drive loss (armed via
    /// [`FaultConfig::drive_losses`]) discards the shard's partial output
    /// and re-scatters that shard to `fallback` on the calling fiber —
    /// so the returned per-shard item lists are byte-identical to a
    /// fault-free run.
    ///
    /// Silent losses are detected with the plan's `host_timeout`; arming
    /// `drive_losses` without a `host_timeout` panics (the loss would
    /// otherwise hang the gather forever).
    ///
    /// [`FaultConfig::drive_losses`]: biscuit_sim::fault::FaultConfig::drive_losses
    ///
    /// # Errors
    ///
    /// Propagates the first `fallback` error, after the merge completed.
    ///
    /// # Panics
    ///
    /// Panics when a drive loss fires while the plan has no
    /// `host_timeout`.
    pub fn scatter<T, E, J, F>(
        &self,
        ctx: &Ctx,
        name: &str,
        job: J,
        mut fallback: F,
    ) -> Result<Vec<ShardResult<T>>, E>
    where
        T: Send + 'static,
        J: Fn(&Ctx, &ArrayShard, &MergeTx<T>) -> Result<(), ShardFailure> + Send + Sync + 'static,
        F: FnMut(&Ctx, &ArrayShard) -> Result<Vec<T>, E>,
    {
        let n = self.len();
        let plan = self.fault_plan();
        let loss = plan.drive_loss(n);
        let timeout = plan.host_timeout();
        assert!(
            loss.is_none() || timeout.is_some(),
            "drive_losses armed without host_timeout: the gather could hang forever"
        );
        count(ctx, "array_scatters_total");
        mark(ctx, "array_scatter", format!("{name} over {n} shards"));
        let (txs, mut rx) = merge_channel::<T>(n, self.inner.cfg.merge_capacity);
        let job = Arc::new(job);
        let failed: Arc<Vec<AtomicBool>> =
            Arc::new((0..n).map(|_| AtomicBool::new(false)).collect());
        for shard in self.shards() {
            let i = shard.id;
            let tx = txs[i].clone();
            let job = Arc::clone(&job);
            let shard = shard.clone();
            let failed = Arc::clone(&failed);
            let plan = plan.clone();
            let loss_here = loss.filter(|l| l.shard == i);
            ctx.spawn(format!("{name}-shard{i}"), move |fctx| {
                if let Some(l) = loss_here {
                    match l.phase {
                        DriveLossPhase::MidScatter => {
                            // The drive dies before touching the job: no
                            // items, and — crucially — no close.
                            plan.record_injected(fctx, fctx.now(), FaultSite::Drive, "mid-scatter");
                            return;
                        }
                        DriveLossPhase::MidGather => {
                            plan.record_injected(fctx, fctx.now(), FaultSite::Drive, "mid-gather");
                            tx.silence_after(l.items);
                        }
                    }
                }
                match job(fctx, &shard, &tx) {
                    Ok(()) => tx.close(fctx),
                    Err(_) => {
                        failed[i].store(true, Ordering::Relaxed);
                        tx.close(fctx);
                    }
                }
            });
        }
        drop(txs);
        // Gather: merge in canonical order; a lane silent past the
        // deadline is a lost drive. The whole gather window is one
        // HostMerge span of the caller's query (if any); the profile
        // sweep yields the overlap to the device spans that actually
        // ran inside it, leaving only true merge time attributed here.
        let qp = ctx.qprof().clone();
        let gather_start = ctx.now();
        let mut out: Vec<ShardResult<T>> = (0..n)
            .map(|shard| ShardResult {
                shard,
                items: Vec::new(),
                recovered: false,
            })
            .collect();
        let mut lost = vec![false; n];
        loop {
            let next = match timeout {
                Some(t) => match rx.next_deadline(ctx, t) {
                    Ok(next) => next,
                    Err(MergeLag { shard }) => {
                        plan.record_failed(ctx, ctx.now(), FaultSite::Drive, "gather_timeout");
                        mark(ctx, "array_shard_lost", format!("{name} shard {shard}"));
                        lost[shard] = true;
                        rx.abandon(ctx, shard);
                        continue;
                    }
                },
                None => rx.next(ctx),
            };
            match next {
                Some((shard, _seq, item)) => out[shard].items.push(item),
                None => break,
            }
        }
        qp.record(Stage::HostMerge, gather_start, ctx.now(), 0, 0);
        for (i, f) in failed.iter().enumerate() {
            if f.load(Ordering::Relaxed) {
                lost[i] = true;
            }
        }
        // Re-scatter every lost shard to the host-side fallback, in shard
        // order, discarding partial device output. Each fallback runs as a
        // "host_fallback" phase of the caller's query, so its spans stay
        // causally inside the query even though the device path was lost.
        for (i, was_lost) in lost.iter().enumerate() {
            if !*was_lost {
                continue;
            }
            count(ctx, "array_rescatters_total");
            let parent = qp.current();
            let phase = parent.map(|sc| qp.child(sc, "host_fallback"));
            if phase.is_some() {
                qp.adopt(ctx, phase);
            }
            let fb_start = ctx.now();
            let recovered = fallback(ctx, &self.inner.shards[i]);
            if let Some(p) = phase {
                qp.record_for(p, Stage::HostCompute, fb_start, ctx.now(), 0, 0);
                qp.adopt(ctx, parent);
            }
            out[i].items = recovered?;
            out[i].recovered = true;
            plan.record_recovered(ctx, ctx.now(), FaultSite::Drive, "conv_rescatter");
            mark(ctx, "array_shard_recovered", format!("{name} shard {i}"));
        }
        Ok(out)
    }
}

/// Bumps the unlabelled counter `name` in the calling simulation's registry
/// (looked up per event: these are rare).
fn count(ctx: &Ctx, name: &'static str) {
    let reg = ctx.metrics();
    if reg.is_enabled() {
        reg.counter(name, &[]).inc();
    }
}

fn mark(ctx: &Ctx, name: &'static str, detail: String) {
    ctx.tracer().emit(|| TraceEvent::Mark {
        at: ctx.now(),
        name: Arc::from(name),
        detail: Arc::from(detail.as_str()),
    });
}

// ---------------------------------------------------------------------------
// Concurrent query scheduler
// ---------------------------------------------------------------------------

/// Fixed-point scale for WFQ virtual time: one cost unit at weight 1
/// advances a tenant's finish tag by this much. Room for weights up to
/// 2^20 without rounding a unit-cost query to zero.
const WFQ_SCALE: u128 = 1 << 20;

/// Knobs for [`QueryScheduler`].
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Independent tenant ("user") queues under weighted fair queueing.
    pub users: usize,
    /// Maximum queries running concurrently over the array — the size of
    /// the worker-fiber pool (admission control).
    ///
    /// Derive it from the array size with
    /// [`SchedulerConfig::for_drives`]: two in-flight queries per drive
    /// keeps every drive busy while its predecessor's results merge on
    /// the host. Override by setting the field when a workload needs
    /// more overlap (e.g. host-compute-heavy queries).
    pub max_inflight: usize,
    /// Per-user submit-queue capacity. A full queue blocks
    /// [`QueryScheduler::submit`] (backpressure) and sheds
    /// [`QueryScheduler::try_submit`] (load shedding).
    pub queue_capacity: usize,
    /// Per-user WFQ weights: user `i` receives service proportional to
    /// `weights[i]` under contention. Empty means every user weighs 1;
    /// otherwise the length must equal `users` and every weight must be
    /// positive.
    pub weights: Vec<u64>,
}

impl SchedulerConfig {
    /// A config sized for an array of `drives` drives: `max_inflight` is
    /// `2 * drives` (min 2) so each drive can overlap one running query
    /// with one merging its results back on the host.
    pub fn for_drives(drives: usize) -> Self {
        SchedulerConfig {
            users: 1,
            max_inflight: (2 * drives).max(2),
            queue_capacity: 8,
            weights: Vec::new(),
        }
    }
}

impl Default for SchedulerConfig {
    /// Sized for a two-drive array ([`SchedulerConfig::for_drives`]`(2)`,
    /// so `max_inflight = 4`) — set `users`/`weights` and call
    /// `for_drives` with the real array size for anything bigger.
    fn default() -> Self {
        SchedulerConfig::for_drives(2)
    }
}

/// Why [`QueryScheduler::try_submit`] refused a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The tenant's bounded queue was at capacity.
    QueueFull,
    /// The scheduler was already closed.
    Closed,
}

/// A query rejected by [`QueryScheduler::try_submit`] (load shedding).
/// Metered as `sched_shed_total{user=N}` while the simulation's metrics
/// are on, and always in the tenant's [`TenantReport::shed`] count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryShed {
    /// The tenant whose query was shed.
    pub user: usize,
    /// Why it was shed.
    pub reason: ShedReason,
}

impl std::fmt::Display for QueryShed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.reason {
            ShedReason::QueueFull => write!(f, "query shed: user {} queue full", self.user),
            ShedReason::Closed => write!(f, "query shed: scheduler closed (user {})", self.user),
        }
    }
}

impl std::error::Error for QueryShed {}

/// One tenant's QoS accounting, tracked unconditionally inside the
/// scheduler (no registry required): exact counts plus log-bucketed
/// queue-wait and end-to-end latency histograms. The reconciliation
/// invariant `offered == accepted + shed` and (after a drain)
/// `accepted == completed` always holds.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant index.
    pub user: usize,
    /// WFQ weight.
    pub weight: u64,
    /// Submission attempts: accepted + shed.
    pub offered: u64,
    /// Queries accepted into the queue.
    pub accepted: u64,
    /// Queries completed.
    pub completed: u64,
    /// Queries shed by `try_submit`.
    pub shed: u64,
    /// Virtual-time wait from submission to dispatch, in picoseconds.
    pub queue_wait: HistogramData,
    /// Virtual-time latency from submission to completion, in
    /// picoseconds.
    pub latency: HistogramData,
}

type Job = Box<dyn FnOnce(&Ctx) + Send + 'static>;

/// A query accepted into the WFQ: the job plus the observability
/// identity minted at submission time.
struct Submitted {
    job: Job,
    user: usize,
    at: SimTime,
    span: Option<SpanContext>,
}

/// Heap entry ordering: smallest finish tag first; ties break by user
/// then admission sequence, so the order is a pure function of the
/// submission history.
struct QueuedEntry {
    finish: u128,
    start: u128,
    seq: u64,
    sub: Submitted,
}

impl PartialEq for QueuedEntry {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for QueuedEntry {}
impl PartialOrd for QueuedEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.finish, self.sub.user, self.seq).cmp(&(other.finish, other.sub.user, other.seq))
    }
}

/// Always-on per-tenant state under the WFQ lock.
struct TenantState {
    weight: u64,
    /// Queries currently buffered (accepted, not yet dispatched).
    depth: u32,
    /// Finish tag of the tenant's most recently accepted query.
    fin: u128,
    offered: u64,
    completed: u64,
    shed: u64,
    queue_wait: HistogramData,
    latency: HistogramData,
}

/// The WFQ core, guarded by one uncontended mutex (the DES kernel runs
/// one fiber at a time; the lock is never held across a yield point).
struct WfqState {
    tenants: Vec<TenantState>,
    heap: BinaryHeap<Reverse<QueuedEntry>>,
    /// Virtual clock: the start tag of the last dispatched query.
    vtime: u128,
    next_seq: u64,
    closed: bool,
}

/// Registry instruments for one tenant queue, mirroring a labelled
/// `SimQueue`'s naming so dashboards keep working.
struct QueueInstr {
    pushes: Counter,
    pops: Counter,
    depth: Gauge,
}

struct SchedInner {
    capacity: usize,
    max_inflight: usize,
    state: Mutex<WfqState>,
    /// Per-tenant wakeups for submitters blocked on a full queue.
    not_full: Vec<WaitQueue>,
    /// Wakeup for idle worker fibers.
    work: WaitQueue,
    /// Wakeup for `wait_completed`.
    done: WaitQueue,
    submitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    /// Every user queue's push/pop/depth instruments
    /// (`queue=sched.user<i>`), registered by the first metered submit or
    /// dispatch.
    queue_instr: OnceLock<Vec<QueueInstr>>,
}

impl SchedInner {
    /// One tenant queue's instruments (`None` — one relaxed load — while
    /// the calling simulation's metrics are off).
    fn instr(&self, ctx: &Ctx, user: usize) -> Option<&QueueInstr> {
        let registry = ctx.metrics();
        registry.is_enabled().then(|| {
            let all = self.queue_instr.get_or_init(|| {
                (0..self.not_full.len())
                    .map(|i| {
                        let label = format!("sched.user{i}");
                        let labels = [("queue", label.as_str())];
                        QueueInstr {
                            pushes: registry.counter("queue_pushes_total", &labels),
                            pops: registry.counter("queue_pops_total", &labels),
                            depth: registry.gauge("queue_depth", &labels),
                        }
                    })
                    .collect()
            });
            &all[user]
        })
    }
}

/// Feeds `value_ps` into the per-tenant histogram `name{user=N}` —
/// p50/p99/p99.9 come out of the registry's summary export.
fn observe_user(ctx: &Ctx, name: &'static str, user: usize, value_ps: u64) {
    let reg = ctx.metrics();
    if reg.is_enabled() {
        reg.histogram(name, &[("user", &user.to_string())])
            .record(value_ps);
    }
}

fn inflight_add(ctx: &Ctx, delta: i64) {
    let reg = ctx.metrics();
    if reg.is_enabled() {
        reg.gauge("array_sched_inflight", &[]).add(delta);
    }
}

/// Weighted-fair, admission-controlled scheduler for concurrent queries
/// over an [`SsdArray`] (cheaply cloneable).
///
/// Submitted jobs are arbitrary closures — typically a
/// [`SsdArray::scatter`] plus result handling — so the scheduler is
/// oblivious to query shape. Dispatch order is deterministic: the WFQ
/// tags are a pure function of the submission history, ties break on
/// `(user, sequence)`, and the worker pool is driven entirely by the
/// DES kernel's event order.
///
/// See the [module docs](self) and `docs/QOS.md` for the WFQ model,
/// shedding policy, and backpressure contract.
pub struct QueryScheduler {
    inner: Arc<SchedInner>,
}

impl Clone for QueryScheduler {
    fn clone(&self) -> Self {
        QueryScheduler {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl std::fmt::Debug for QueryScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryScheduler")
            .field("users", &self.inner.not_full.len())
            .field("submitted", &self.inner.submitted.load(Ordering::Relaxed))
            .field("completed", &self.inner.completed.load(Ordering::Relaxed))
            .field("shed", &self.inner.shed.load(Ordering::Relaxed))
            .finish()
    }
}

impl QueryScheduler {
    /// Builds a scheduler (not yet dispatching; call
    /// [`QueryScheduler::start`] from a fiber).
    ///
    /// # Panics
    ///
    /// Panics if `users`, `max_inflight`, or `queue_capacity` is zero,
    /// or if `weights` is non-empty with a length other than `users` or
    /// a zero weight.
    pub fn new(cfg: SchedulerConfig) -> QueryScheduler {
        assert!(cfg.users > 0, "scheduler needs at least one user queue");
        assert!(cfg.max_inflight > 0, "max_inflight must be positive");
        assert!(cfg.queue_capacity > 0, "queue_capacity must be positive");
        assert!(
            cfg.weights.is_empty() || cfg.weights.len() == cfg.users,
            "weights must be empty or one per user"
        );
        assert!(
            cfg.weights.iter().all(|&w| w > 0),
            "WFQ weights must be positive"
        );
        let tenants = (0..cfg.users)
            .map(|i| TenantState {
                weight: cfg.weights.get(i).copied().unwrap_or(1),
                depth: 0,
                fin: 0,
                offered: 0,
                completed: 0,
                shed: 0,
                queue_wait: HistogramData::new(),
                latency: HistogramData::new(),
            })
            .collect();
        QueryScheduler {
            inner: Arc::new(SchedInner {
                capacity: cfg.queue_capacity,
                max_inflight: cfg.max_inflight,
                state: Mutex::new(WfqState {
                    tenants,
                    heap: BinaryHeap::new(),
                    vtime: 0,
                    next_seq: 0,
                    closed: false,
                }),
                not_full: (0..cfg.users).map(|_| WaitQueue::new()).collect(),
                work: WaitQueue::new(),
                done: WaitQueue::new(),
                submitted: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                queue_instr: OnceLock::new(),
            }),
        }
    }

    /// Shim for the frozen `biscuit-perf` harness: the scheduler reports to
    /// the simulation of the `&Ctx` it is called with. Goes with the next
    /// `benchmark` PR (ROADMAP 1(a)).
    #[doc(hidden)]
    pub fn attach_metrics(&self, _registry: &MetricsRegistry) {}

    /// Spawns the worker-fiber pool (`max_inflight` fibers named
    /// `sched-worker<i>`). Call once. Workers exit when the scheduler is
    /// closed and drained — there is no per-query fiber spawn, so the
    /// scheduler sustains million-query soaks.
    pub fn start(&self, ctx: &Ctx) {
        for w in 0..self.inner.max_inflight {
            let inner = Arc::clone(&self.inner);
            ctx.spawn(format!("sched-worker{w}"), move |wctx| {
                worker_loop(&inner, wctx)
            });
        }
    }

    /// Enqueues a unit-cost `job` for `user`, blocking in virtual time
    /// while the user's queue is full (backpressure).
    ///
    /// # Panics
    ///
    /// Panics when called after [`QueryScheduler::close`] — including
    /// when the scheduler closes while this call is blocked.
    pub fn submit(&self, ctx: &Ctx, user: usize, job: impl FnOnCtx) {
        self.submit_cost(ctx, user, 1, job)
    }

    /// [`QueryScheduler::submit`] with an explicit WFQ `cost` (service
    /// demand in abstract units; `0` counts as `1`). A tenant's finish
    /// tags advance by `cost / weight`, so cheap queries are charged
    /// less of the tenant's share.
    ///
    /// # Panics
    ///
    /// Panics when called after [`QueryScheduler::close`].
    pub fn submit_cost(&self, ctx: &Ctx, user: usize, cost: u64, job: impl FnOnCtx) {
        let mut job: Option<Job> = Some(Box::new(job));
        let mut blocked = false;
        loop {
            {
                let mut st = self.inner.state.lock();
                assert!(!st.closed, "submit on a closed scheduler");
                if (st.tenants[user].depth as usize) < self.inner.capacity {
                    self.enqueue_locked(ctx, &mut st, user, cost, job.take().unwrap());
                    drop(st);
                    self.inner.work.notify_one(ctx);
                    return;
                }
            }
            if !blocked {
                blocked = true;
                count(ctx, "array_sched_backpressure_total");
            }
            self.inner.not_full[user].wait(ctx);
        }
    }

    /// Non-blocking submit of a unit-cost `job`: sheds instead of
    /// waiting when `user`'s queue is full or the scheduler is closed.
    /// This is the open-loop path — arrivals the array cannot absorb
    /// are dropped and metered rather than queued without bound.
    ///
    /// # Errors
    ///
    /// Returns [`QueryShed`] when the query was rejected; the shed is
    /// counted in `sched_shed_total{user}` and the tenant's report.
    pub fn try_submit(&self, ctx: &Ctx, user: usize, job: impl FnOnCtx) -> Result<(), QueryShed> {
        self.try_submit_cost(ctx, user, 1, job)
    }

    /// [`QueryScheduler::try_submit`] with an explicit WFQ `cost`.
    ///
    /// # Errors
    ///
    /// Returns [`QueryShed`] when the query was rejected.
    pub fn try_submit_cost(
        &self,
        ctx: &Ctx,
        user: usize,
        cost: u64,
        job: impl FnOnCtx,
    ) -> Result<(), QueryShed> {
        let reason = {
            let mut st = self.inner.state.lock();
            if st.closed {
                st.tenants[user].offered += 1;
                st.tenants[user].shed += 1;
                ShedReason::Closed
            } else if (st.tenants[user].depth as usize) >= self.inner.capacity {
                st.tenants[user].offered += 1;
                st.tenants[user].shed += 1;
                ShedReason::QueueFull
            } else {
                self.enqueue_locked(ctx, &mut st, user, cost, Box::new(job));
                drop(st);
                self.inner.work.notify_one(ctx);
                return Ok(());
            }
        };
        self.inner.shed.fetch_add(1, Ordering::Relaxed);
        let reg = ctx.metrics();
        if reg.is_enabled() {
            reg.counter("sched_shed_total", &[("user", &user.to_string())])
                .inc();
        }
        Err(QueryShed { user, reason })
    }

    /// Tags and buffers one accepted query. Caller holds the lock and
    /// has verified capacity; never yields (qprof minting is pure
    /// bookkeeping).
    fn enqueue_locked(&self, ctx: &Ctx, st: &mut WfqState, user: usize, cost: u64, job: Job) {
        // Mint the query's causal identity at acceptance: queue wait,
        // admission, and execution all happen under this context. The
        // submitting fiber itself does none of the query's work, so its
        // own context is cleared right away.
        let qp = ctx.qprof();
        let span = qp.begin_query(ctx, user as u32);
        if span.is_some() {
            qp.adopt(ctx, None);
        }
        let vtime = st.vtime;
        let t = &mut st.tenants[user];
        t.offered += 1;
        let start = vtime.max(t.fin);
        let finish = start + u128::from(cost.max(1)) * WFQ_SCALE / u128::from(t.weight);
        t.fin = finish;
        t.depth += 1;
        let depth = t.depth;
        let seq = st.next_seq;
        st.next_seq += 1;
        st.heap.push(Reverse(QueuedEntry {
            finish,
            start,
            seq,
            sub: Submitted {
                job,
                user,
                at: ctx.now(),
                span,
            },
        }));
        self.inner.submitted.fetch_add(1, Ordering::Relaxed);
        count(ctx, "array_sched_submitted_total");
        if let Some(qi) = self.inner.instr(ctx, user) {
            qi.pushes.inc();
            qi.depth.set(i64::from(depth));
        }
    }

    /// Closes the scheduler: no further submissions are accepted
    /// (`submit` panics, `try_submit` sheds with
    /// [`ShedReason::Closed`]), the workers drain what is buffered and
    /// then exit. Submitters blocked on backpressure are woken and
    /// panic per the submit contract.
    pub fn close(&self, ctx: &Ctx) {
        self.inner.state.lock().closed = true;
        self.inner.work.notify_all(ctx);
        for nf in &self.inner.not_full {
            nf.notify_all(ctx);
        }
    }

    /// Blocks in virtual time until at least `n` jobs completed.
    pub fn wait_completed(&self, ctx: &Ctx, n: u64) {
        while self.inner.completed.load(Ordering::Relaxed) < n {
            self.inner.done.wait(ctx);
        }
    }

    /// Jobs accepted so far (excludes sheds).
    pub fn submitted(&self) -> u64 {
        self.inner.submitted.load(Ordering::Relaxed)
    }

    /// Jobs completed so far.
    pub fn completed(&self) -> u64 {
        self.inner.completed.load(Ordering::Relaxed)
    }

    /// Jobs shed so far by `try_submit`.
    pub fn shed(&self) -> u64 {
        self.inner.shed.load(Ordering::Relaxed)
    }

    /// A snapshot of every tenant's QoS accounting, in user order.
    pub fn tenant_reports(&self) -> Vec<TenantReport> {
        let st = self.inner.state.lock();
        st.tenants
            .iter()
            .enumerate()
            .map(|(user, t)| TenantReport {
                user,
                weight: t.weight,
                offered: t.offered,
                accepted: t.offered - t.shed,
                completed: t.completed,
                shed: t.shed,
                queue_wait: t.queue_wait.clone(),
                latency: t.latency.clone(),
            })
            .collect()
    }

    /// A deterministic, integer-only JSON export of the per-tenant QoS
    /// state (counts plus p50/p99/p99.9/max of queue wait and latency).
    /// Same-seed soaks compare this byte-for-byte; all values derive
    /// from virtual time and exact counters, so the export is identical
    /// across thread policies and repeat runs.
    pub fn qos_json(&self) -> String {
        let reports = self.tenant_reports();
        let mut out = String::with_capacity(reports.len() * 160 + 64);
        out.push_str("{\n  \"tenants\": [\n");
        for (i, r) in reports.iter().enumerate() {
            let sep = if i + 1 == reports.len() { "" } else { "," };
            out.push_str(&format!(
                concat!(
                    "    {{\"user\": {}, \"weight\": {}, \"offered\": {}, ",
                    "\"accepted\": {}, \"completed\": {}, \"shed\": {}, ",
                    "\"wait_p50_ps\": {}, \"wait_p99_ps\": {}, \"wait_p999_ps\": {}, ",
                    "\"wait_max_ps\": {}, \"lat_p50_ps\": {}, \"lat_p99_ps\": {}, ",
                    "\"lat_p999_ps\": {}, \"lat_max_ps\": {}}}{}\n"
                ),
                r.user,
                r.weight,
                r.offered,
                r.accepted,
                r.completed,
                r.shed,
                r.queue_wait.percentile(50.0),
                r.queue_wait.percentile(99.0),
                r.queue_wait.percentile(99.9),
                r.queue_wait.max,
                r.latency.percentile(50.0),
                r.latency.percentile(99.0),
                r.latency.percentile(99.9),
                r.latency.max,
                sep,
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Bound alias for scheduler jobs (a closure run once on a worker
/// fiber's DES context).
pub trait FnOnCtx: FnOnce(&Ctx) + Send + 'static {}
impl<F: FnOnce(&Ctx) + Send + 'static> FnOnCtx for F {}

/// One worker fiber: repeatedly dispatch the globally smallest finish
/// tag and run it to completion. The pool size (`max_inflight`) is the
/// admission limit; WFQ order decides who gets a freed slot.
fn worker_loop(inner: &Arc<SchedInner>, ctx: &Ctx) {
    let qp = ctx.qprof().clone();
    loop {
        // Dispatch: pop under the lock, advance virtual time, meter the
        // queue wait. The lock is released before any yield point; the
        // check-then-wait below is race-free because the DES kernel runs
        // one fiber at a time and the lock is never held across a yield.
        let sub = loop {
            {
                let mut st = inner.state.lock();
                if let Some(Reverse(e)) = st.heap.pop() {
                    st.vtime = st.vtime.max(e.start);
                    let user = e.sub.user;
                    let wait_ps = (ctx.now() - e.sub.at).as_ps();
                    let t = &mut st.tenants[user];
                    t.depth -= 1;
                    t.queue_wait.record(wait_ps);
                    let depth = t.depth;
                    drop(st);
                    if let Some(qi) = inner.instr(ctx, user) {
                        qi.pops.inc();
                        qi.depth.set(i64::from(depth));
                    }
                    observe_user(ctx, "array_queue_wait_ps", user, wait_ps);
                    break Some(e.sub);
                }
                if st.closed {
                    break None;
                }
            }
            inner.work.wait(ctx);
        };
        let Some(sub) = sub else { return };
        // A slot freed in the tenant's queue: wake one blocked submitter.
        inner.not_full[sub.user].notify_one(ctx);
        count(ctx, "array_sched_admitted_total");
        inflight_add(ctx, 1);
        if let Some(sc) = sub.span {
            // This worker does the query's work: adopt the context minted
            // at submit and close the loop on how long the query sat
            // queued and awaiting admission.
            qp.adopt(ctx, Some(sc));
            qp.record(Stage::QueueWait, sub.at, ctx.now(), 0, 0);
        }
        (sub.job)(ctx);
        let latency_ps = (ctx.now() - sub.at).as_ps();
        // The per-tenant SLO histogram: submit to completion.
        observe_user(ctx, "array_query_latency_ps", sub.user, latency_ps);
        {
            let mut st = inner.state.lock();
            let t = &mut st.tenants[sub.user];
            t.completed += 1;
            t.latency.record(latency_ps);
        }
        if let Some(sc) = sub.span {
            qp.end_query(ctx, sc);
            qp.adopt(ctx, None);
        }
        inflight_add(ctx, -1);
        inner.completed.fetch_add(1, Ordering::Relaxed);
        count(ctx, "array_sched_completed_total");
        inner.done.notify_all(ctx);
    }
}
