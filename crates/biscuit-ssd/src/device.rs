//! The timed SSD datapath: internal reads, pattern-matched scans, writes.
//!
//! This is the device the Biscuit runtime sits on. All timing flows through
//! three resource banks — NAND dies (sense time), channel buses (transfer
//! time), and the two device CPU cores (per-request software overhead) — so
//! latency, bandwidth saturation, and queueing under concurrency emerge from
//! the same structure as on the paper's hardware:
//!
//! - a small synchronous read pays `request_overhead + tR + transfer`
//!   (Table III's 75.9 µs for 4 KiB);
//! - large/asynchronous reads stripe pages across all channels and approach
//!   the aggregate channel bandwidth, which exceeds the PCIe cap (Fig. 7);
//! - pattern-matched scans stream at a slightly lower per-channel rate with
//!   an extra per-request IP-setup cost, landing between Conv and raw
//!   Biscuit bandwidth (Fig. 7), while only matching pages surface.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use biscuit_sim::sync::Mutex;

use biscuit_proto::{Buf, BufPool};

use biscuit_sim::fault::{FaultPlan, FaultSite};
use biscuit_sim::metrics::{self, MetricsRegistry};
use biscuit_sim::power::{ComponentId, PowerMeter};
use biscuit_sim::qprof::Stage;
use biscuit_sim::resource::ServerBank;
use biscuit_sim::time::{SimDuration, SimTime};
use biscuit_sim::trace::{NandOpKind, TraceEvent};
use biscuit_sim::Ctx;

use crate::config::SsdConfig;
use crate::ftl::{Ftl, FtlError};
use crate::memory::DeviceMemory;
use crate::nand::{NandArray, PageData, PageGen, Ppa};
use crate::pattern::PatternSet;

/// A materialized page payload: a shared window onto one allocation. Every
/// layer from the NAND to the host holds the same bytes by reference.
pub type PageBuf = Buf;

/// A byte-copy (memcpy) site on the data path, for the
/// `sim_bytes_copied_total` metric. The zero-copy work tracks every place
/// payload bytes are duplicated rather than shared; each site increments the
/// counter by the bytes it copied so the claim "a page is allocated once at
/// the NAND and shared to the host" stays measurable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopySite {
    /// A synthetic page was (re)generated at the NAND instead of being
    /// served from a shared buffer.
    NandSynth,
    /// Host-side assembly of page buffers into one contiguous read result.
    HostAssemble,
    /// Host bytes staged into a full device page on the write path.
    WriteStage,
}

impl CopySite {
    /// The `site` label value used on `sim_bytes_copied_total`.
    pub fn label(self) -> &'static str {
        match self {
            CopySite::NandSynth => "nand_synth",
            CopySite::HostAssemble => "host_read_assemble",
            CopySite::WriteStage => "device_write_stage",
        }
    }
}

/// Errors surfaced by device operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// The FTL rejected the request.
    Ftl(FtlError),
    /// A write payload did not fit the page size.
    BadWriteSize {
        /// Bytes supplied.
        got: usize,
        /// Page size required.
        page_size: usize,
    },
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::Ftl(e) => write!(f, "ftl: {e}"),
            DeviceError::BadWriteSize { got, page_size } => {
                write!(f, "write of {got} bytes does not fit page size {page_size}")
            }
        }
    }
}

impl std::error::Error for DeviceError {}

impl From<FtlError> for DeviceError {
    fn from(e: FtlError) -> Self {
        DeviceError::Ftl(e)
    }
}

/// Result alias for device operations.
pub type DeviceResult<T> = Result<T, DeviceError>;

/// Operation counters exposed for the experiment harnesses; read them
/// with `load(Ordering::Relaxed)`.
#[derive(Debug, Default)]
pub struct DeviceStats {
    /// Pages read (plain reads).
    pub pages_read: AtomicU64,
    /// Pages streamed through the pattern matcher.
    pub pages_scanned: AtomicU64,
    /// Pages the pattern matcher flagged as matching.
    pub pages_matched: AtomicU64,
    /// Pages written.
    pub pages_written: AtomicU64,
}

/// Per-channel flash-path instruments, registered in the calling
/// simulation's [`MetricsRegistry`] by the device's first metered call.
struct ChannelInstruments {
    /// `nand_ops_total{channel,kind=read|program|erase}`.
    nand_read: metrics::Counter,
    nand_program: metrics::Counter,
    nand_erase: metrics::Counter,
    /// `nand_busy_ps_total{channel}` — die occupancy (sense + program).
    nand_busy_ps: metrics::Counter,
    /// `bus_bytes_total{channel}` / `bus_busy_ps_total{channel}`.
    bus_bytes: metrics::Counter,
    bus_busy_ps: metrics::Counter,
    /// Pattern-matcher IP: `pm_scans_total` / `pm_hits_total` /
    /// `pm_bytes_total` / `pm_busy_ps_total`, all `{channel}`.
    pm_scans: metrics::Counter,
    pm_hits: metrics::Counter,
    pm_bytes: metrics::Counter,
    pm_busy_ps: metrics::Counter,
    /// `nand_read_wait_ps{channel}` / `nand_write_wait_ps{channel}` —
    /// queueing delay between request issue and die start, per op class.
    /// Reads stalling behind programs (and vice versa) show up here: the
    /// read/write interference signal on a shared die.
    read_wait_ps: metrics::Histogram,
    write_wait_ps: metrics::Histogram,
}

struct DeviceInstruments {
    channels: Vec<ChannelInstruments>,
    /// `ftl_lookups_total` — logical-to-physical map resolutions.
    ftl_lookups: metrics::Counter,
    /// `ftl_bad_blocks_total` / `ftl_remapped_pages_total` — uncorrectable
    /// ECC escalations: blocks retired and pages remapped off them.
    ftl_bad_blocks: metrics::Counter,
    ftl_remapped_pages: metrics::Counter,
    /// Write-path FTL metering: `ftl_gc_runs_total`,
    /// `ftl_gc_relocated_pages_total`, `ftl_gc_erased_blocks_total`,
    /// `ftl_journal_records_total`, `ftl_checkpoints_total`, and the
    /// `ftl_write_amp` gauge (milli-units: 1000 = 1.0x amplification).
    ftl_gc_runs: metrics::Counter,
    ftl_gc_relocated: metrics::Counter,
    ftl_gc_erased: metrics::Counter,
    ftl_journal_records: metrics::Counter,
    ftl_checkpoints: metrics::Counter,
    ftl_write_amp: metrics::Gauge,
    /// Whole-device page counters mirroring [`DeviceStats`].
    pages_read: metrics::Counter,
    pages_scanned: metrics::Counter,
    pages_matched: metrics::Counter,
    pages_written: metrics::Counter,
    /// `sim_bytes_copied_total{site}` — bytes duplicated per [`CopySite`].
    copy_nand_synth: metrics::Counter,
    copy_host_assemble: metrics::Counter,
    copy_write_stage: metrics::Counter,
}

impl DeviceInstruments {
    fn new(registry: &MetricsRegistry, channels: usize) -> Self {
        let per_channel = (0..channels)
            .map(|ch| {
                let ch = ch.to_string();
                let l = |kind: &str| {
                    registry.counter("nand_ops_total", &[("channel", &ch), ("kind", kind)])
                };
                ChannelInstruments {
                    nand_read: l("read"),
                    nand_program: l("program"),
                    nand_erase: l("erase"),
                    nand_busy_ps: registry.counter("nand_busy_ps_total", &[("channel", &ch)]),
                    bus_bytes: registry.counter("bus_bytes_total", &[("channel", &ch)]),
                    bus_busy_ps: registry.counter("bus_busy_ps_total", &[("channel", &ch)]),
                    pm_scans: registry.counter("pm_scans_total", &[("channel", &ch)]),
                    pm_hits: registry.counter("pm_hits_total", &[("channel", &ch)]),
                    pm_bytes: registry.counter("pm_bytes_total", &[("channel", &ch)]),
                    pm_busy_ps: registry.counter("pm_busy_ps_total", &[("channel", &ch)]),
                    read_wait_ps: registry.histogram("nand_read_wait_ps", &[("channel", &ch)]),
                    write_wait_ps: registry.histogram("nand_write_wait_ps", &[("channel", &ch)]),
                }
            })
            .collect();
        DeviceInstruments {
            channels: per_channel,
            ftl_lookups: registry.counter("ftl_lookups_total", &[]),
            ftl_bad_blocks: registry.counter("ftl_bad_blocks_total", &[]),
            ftl_remapped_pages: registry.counter("ftl_remapped_pages_total", &[]),
            ftl_gc_runs: registry.counter("ftl_gc_runs_total", &[]),
            ftl_gc_relocated: registry.counter("ftl_gc_relocated_pages_total", &[]),
            ftl_gc_erased: registry.counter("ftl_gc_erased_blocks_total", &[]),
            ftl_journal_records: registry.counter("ftl_journal_records_total", &[]),
            ftl_checkpoints: registry.counter("ftl_checkpoints_total", &[]),
            ftl_write_amp: registry.gauge("ftl_write_amp", &[]),
            pages_read: registry.counter("device_pages_read_total", &[]),
            pages_scanned: registry.counter("device_pages_scanned_total", &[]),
            pages_matched: registry.counter("device_pages_matched_total", &[]),
            pages_written: registry.counter("device_pages_written_total", &[]),
            copy_nand_synth: registry.counter(
                "sim_bytes_copied_total",
                &[("site", CopySite::NandSynth.label())],
            ),
            copy_host_assemble: registry.counter(
                "sim_bytes_copied_total",
                &[("site", CopySite::HostAssemble.label())],
            ),
            copy_write_stage: registry.counter(
                "sim_bytes_copied_total",
                &[("site", CopySite::WriteStage.label())],
            ),
        }
    }

    fn copy_counter(&self, site: CopySite) -> &metrics::Counter {
        match site {
            CopySite::NandSynth => &self.copy_nand_synth,
            CopySite::HostAssemble => &self.copy_host_assemble,
            CopySite::WriteStage => &self.copy_write_stage,
        }
    }
}

struct PowerHook {
    meter: Arc<PowerMeter>,
    component: ComponentId,
    nesting: usize,
}

struct Storage {
    nand: NandArray,
    ftl: Ftl,
}

/// Bounded cache of materialized synthetic pages, keyed by (generator
/// identity, file-relative lpn). Without it every read of a generator-backed
/// page re-runs the generator — the dominant wall-clock cost of scan-heavy
/// workloads — even though the simulated timing is identical. FIFO eviction
/// in first-touch order keeps behaviour independent of hash iteration order,
/// so same-seed runs stay byte-identical.
#[derive(Default)]
struct SynthCache {
    // Each entry pins its generator Arc so the address in the key cannot be
    // freed and reused by a different generator while the entry lives.
    map: HashMap<(usize, u64), (Buf, Arc<dyn PageGen>)>,
    order: VecDeque<(usize, u64)>,
}

/// The simulated SSD.
pub struct SsdDevice {
    cfg: SsdConfig,
    storage: Mutex<Storage>,
    dies: ServerBank,
    buses: ServerBank,
    cores: ServerBank,
    mem: DeviceMemory,
    stats: DeviceStats,
    power: Mutex<Option<PowerHook>>,
    metrics: OnceLock<DeviceInstruments>,
    fault: OnceLock<FaultPlan>,
    zero_page: PageBuf,
    synth_cache: Mutex<SynthCache>,
    pool: BufPool,
}

impl std::fmt::Debug for SsdDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsdDevice")
            .field("channels", &self.cfg.channels)
            .field("logical_pages", &self.cfg.logical_pages())
            .finish()
    }
}

impl SsdDevice {
    /// Builds a device from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.validate()` fails.
    pub fn new(cfg: SsdConfig) -> Self {
        cfg.validate().expect("invalid SSD configuration");
        let blocks_per_die = (cfg.total_blocks() / (cfg.channels * cfg.ways) as u64) as u32;
        let nand = NandArray::new(
            cfg.channels as u32,
            cfg.ways as u32,
            blocks_per_die,
            cfg.pages_per_block as u32,
            cfg.page_size,
        );
        let mut ftl = Ftl::new(
            cfg.channels as u32,
            cfg.ways as u32,
            blocks_per_die,
            cfg.pages_per_block as u32,
            cfg.logical_pages(),
        );
        ftl.set_checkpoint_interval(cfg.journal_checkpoint_interval);
        let zero_page: PageBuf = Buf::from_vec(vec![0u8; cfg.page_size]);
        // Page frames for write staging and synth-cache renders. A miss
        // evicts before it takes, so on a full cache it reuses the frame it
        // just evicted and the free list stays short; the cap bounds it at
        // one cache's worth of idle frames.
        let pool = BufPool::new(cfg.page_size, cfg.synth_cache_pages.max(64));
        SsdDevice {
            dies: ServerBank::new(cfg.channels * cfg.ways),
            buses: ServerBank::new(cfg.channels),
            cores: ServerBank::labelled(cfg.cores, "cpu.core"),
            mem: DeviceMemory::new(64 << 20, cfg.dram_bytes),
            stats: DeviceStats::default(),
            power: Mutex::new(None),
            metrics: OnceLock::new(),
            fault: OnceLock::new(),
            storage: Mutex::new(Storage { nand, ftl }),
            zero_page,
            synth_cache: Mutex::new(SynthCache::default()),
            pool,
            cfg,
        }
    }

    /// The device's page-frame pool (diagnostics: frames allocated/recycled).
    pub fn frame_pool(&self) -> &BufPool {
        &self.pool
    }

    /// The device's configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// Operation counters.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// The DRAM budget (system/user arenas).
    pub fn memory(&self) -> &DeviceMemory {
        &self.mem
    }

    /// The device CPU cores, for runtime layers that charge SSDlet compute.
    pub fn cores(&self) -> &ServerBank {
        &self.cores
    }

    /// Garbage-collection statistics `(runs, pages_relocated)`.
    pub fn gc_stats(&self) -> (u64, u64) {
        let st = self.storage.lock();
        (st.ftl.gc_runs(), st.ftl.relocated_total())
    }

    /// Bad-block statistics `(blocks_retired, pages_remapped)` from
    /// uncorrectable-ECC escalations.
    pub fn bad_block_stats(&self) -> (u64, u64) {
        let st = self.storage.lock();
        (st.ftl.bad_blocks(), st.ftl.remapped_total())
    }

    /// Write-path statistics `(user_writes, nand_programs, write_amp_milli)`.
    /// `nand_programs / user_writes` is the write amplification factor;
    /// the milli value reports it in fixed point (1000 = 1.0x).
    pub fn write_stats(&self) -> (u64, u64, u64) {
        let st = self.storage.lock();
        (
            st.ftl.user_writes_total(),
            st.ftl.programs_total(),
            st.ftl.write_amp_milli(),
        )
    }

    /// Journal statistics `(records_appended, checkpoints_installed, seq)`.
    pub fn journal_stats(&self) -> (u64, u64, u64) {
        let st = self.storage.lock();
        let j = st.ftl.journal();
        (j.appended_total(), j.checkpoints_total(), j.seq())
    }

    /// True when a seeded power loss has halted the device. Every I/O
    /// fails with [`FtlError::PowerLoss`] until [`SsdDevice::recover_power_loss`].
    pub fn is_dead(&self) -> bool {
        self.storage.lock().ftl.is_dead()
    }

    /// Forces a journal checkpoint of the current L2P state — the host's
    /// sync/flush barrier. Bounds later recovery replay to writes issued
    /// after this point.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Ftl`] ([`FtlError::PowerLoss`]) on a crashed,
    /// unrecovered device.
    pub fn checkpoint(&self, ctx: &Ctx) -> DeviceResult<()> {
        self.storage.lock().ftl.checkpoint_now()?;
        if let Some(m) = self.instruments(ctx) {
            m.ftl_checkpoints.inc();
        }
        Ok(())
    }

    /// Replays the journal after a power loss, reviving the device:
    /// checkpoint restore, ordered redo, torn-program rollback, and a free
    /// list rebuilt from a physical census of the NAND array. Safe on a
    /// live device too (models a clean remount). An armed fault plan
    /// records the replay as the power loss's recovery.
    pub fn recover(&self, ctx: &Ctx) -> crate::journal::RecoveryReport {
        let report = self.replay_journal();
        if let Some(plan) = self.fault() {
            plan.record_recovered(ctx, ctx.now(), FaultSite::PowerLoss, "journal_replay");
        }
        report
    }

    fn replay_journal(&self) -> crate::journal::RecoveryReport {
        let mut st = self.storage.lock();
        let st = &mut *st;
        st.ftl.recover(&mut st.nand)
    }

    /// Shim for the frozen `biscuit-perf` harness, which has no other way
    /// to revive a drive: [`SsdDevice::recover`] without the fault plan's
    /// record. Goes with the next `benchmark` PR (ROADMAP 1(a)).
    #[doc(hidden)]
    pub fn recover_power_loss(&self, _now: SimTime) -> crate::journal::RecoveryReport {
        self.replay_journal()
    }

    /// Deterministic logical state export: one line per mapped logical page
    /// with a content fingerprint, independent of physical placement. A
    /// recovered crash run must export bytes identical to its same-seed
    /// uncrashed twin.
    pub fn export_state(&self) -> String {
        let st = self.storage.lock();
        st.ftl.export_state(&st.nand)
    }

    /// Deterministic physical state export (full L2P map, free lists, bad
    /// set) for same-seed run-to-run identity checks.
    pub fn export_physical_state(&self) -> String {
        self.storage.lock().ftl.export_physical()
    }

    /// Arms the device's fault-injection sites with `plan`: NAND page senses
    /// draw read errors (extra tR per retry, uncorrectable escalation to
    /// block retirement), and per-request core charges draw firmware stalls.
    /// A device is armed once; later calls are ignored. A [`FaultPlan::none`]
    /// plan (or no call at all) leaves every timing and data path
    /// bit-identical to the fault-free device.
    pub fn set_fault_plan(&self, plan: &FaultPlan) {
        let _ = self.fault.set(plan.clone());
    }

    #[inline]
    fn fault(&self) -> Option<&FaultPlan> {
        self.fault.get().filter(|p| p.is_active())
    }

    /// The device's registry handles: per-channel NAND op and busy-time
    /// counters, channel-bus bytes/busy time, pattern-matcher
    /// scan/hit/byte counters, FTL map lookups and whole-device page
    /// counters, registered in the calling simulation's registry by the
    /// first call made while it is enabled. `None` — one relaxed atomic
    /// load — while metrics are off, and for an untimed caller, which has
    /// no `Ctx` because it runs in no simulation.
    #[inline]
    fn instruments<'a>(&self, ctx: impl Into<Option<&'a Ctx>>) -> Option<&DeviceInstruments> {
        let registry = ctx.into()?.metrics();
        registry.is_enabled().then(|| {
            self.metrics
                .get_or_init(|| DeviceInstruments::new(registry, self.cfg.channels))
        })
    }

    /// Shim for the frozen `biscuit-perf` harness: the device reports to the
    /// simulation of the `&Ctx` it is called with. Goes with the next
    /// `benchmark` PR (ROADMAP 1(a)).
    #[doc(hidden)]
    pub fn attach_metrics(&self, _registry: &MetricsRegistry) {}

    /// Shim for the frozen `biscuit-perf` harness; see
    /// [`SsdDevice::attach_metrics`].
    #[doc(hidden)]
    pub fn attach_qprof(&self, _prof: &biscuit_sim::QueryProfiler) {}

    /// Records `bytes` duplicated at `site` into `sim_bytes_copied_total`.
    /// Host-side layers (I/O assembly, the filesystem) call this for their
    /// own memcpy sites so every copy on the NAND-to-host path lands in one
    /// metric; an untimed caller passes `None` and counts nothing. Costs one
    /// relaxed atomic load when metrics are disabled.
    #[inline]
    pub fn count_copy(&self, ctx: Option<&Ctx>, site: CopySite, bytes: u64) {
        if let Some(m) = self.instruments(ctx) {
            m.copy_counter(site).add(bytes);
        }
    }

    /// Materializes fetched page data. `Bytes` pages share their stored
    /// allocation. `Synth` pages are served from the device's synth cache
    /// when possible. On a miss the oldest entry is evicted first, its frame
    /// going back to the pool unless a reader still holds it, and the page
    /// is rendered into a frame taken from the pool (counted as a
    /// `nand_synth` copy — the one place a page frame is filled).
    /// An untimed caller (`ctx` is `None`) runs in no simulation and counts
    /// nothing.
    fn materialize_counted(&self, ctx: Option<&Ctx>, d: &PageData) -> PageBuf {
        let (lpn, gen) = match d {
            PageData::Bytes(b) => return b.clone(),
            PageData::Synth { lpn, gen } => (*lpn, gen),
        };
        let cap = self.cfg.synth_cache_pages;
        if cap == 0 {
            return self.render(ctx, lpn, gen.as_ref());
        }
        let key = (Arc::as_ptr(gen) as *const u8 as usize, lpn);
        let mut cache = self.synth_cache.lock();
        if let Some((b, _pin)) = cache.map.get(&key) {
            return b.clone();
        }
        if cache.map.len() >= cap {
            if let Some(old) = cache.order.pop_front() {
                if let Some((evicted, _)) = cache.map.remove(&old) {
                    self.pool.recycle(evicted);
                }
            }
        }
        let buf = self.render(ctx, lpn, gen.as_ref());
        cache.map.insert(key, (buf.clone(), Arc::clone(gen)));
        cache.order.push_back(key);
        buf
    }

    /// Renders synthetic page `lpn` into a pool frame.
    fn render(&self, ctx: Option<&Ctx>, lpn: u64, gen: &dyn PageGen) -> PageBuf {
        self.count_copy(ctx, CopySite::NandSynth, self.cfg.page_size as u64);
        let mut frame = self.pool.take();
        gen.fill(lpn, frame.as_mut_slice());
        frame.freeze()
    }

    /// Attaches a power meter component toggled while the datapath is busy.
    pub fn attach_power(&self, meter: Arc<PowerMeter>, component: ComponentId) {
        *self.power.lock() = Some(PowerHook {
            meter,
            component,
            nesting: 0,
        });
    }

    fn power_busy(&self, now: SimTime) {
        let mut hook = self.power.lock();
        if let Some(h) = hook.as_mut() {
            h.nesting += 1;
            if h.nesting == 1 {
                h.meter.set_active(now, h.component, true);
            }
        }
    }

    fn power_idle(&self, now: SimTime) {
        let mut hook = self.power.lock();
        if let Some(h) = hook.as_mut() {
            debug_assert!(h.nesting > 0, "power nesting underflow");
            h.nesting -= 1;
            if h.nesting == 0 {
                h.meter.set_active(now, h.component, false);
            }
        }
    }

    /// Placement for an unmapped logical page: deterministic stripe, so the
    /// timing of reading never-written space still spreads over channels.
    fn stripe_ppa(&self, lpn: u64) -> Ppa {
        Ppa {
            channel: (lpn % self.cfg.channels as u64) as u32,
            way: ((lpn / self.cfg.channels as u64) % self.cfg.ways as u64) as u32,
            block: 0,
            page: 0,
        }
    }

    fn die_index(&self, ppa: Ppa) -> usize {
        ppa.die_index(self.cfg.ways)
    }

    /// Fetches page contents and its physical location without timing.
    fn fetch(&self, ctx: Option<&Ctx>, lpn: u64) -> DeviceResult<(Ppa, Option<PageData>)> {
        if let Some(m) = self.instruments(ctx) {
            m.ftl_lookups.inc();
        }
        let st = self.storage.lock();
        match st.ftl.lookup(lpn)? {
            Some(ppa) => {
                let data = st
                    .nand
                    .read(ppa)
                    .expect("FTL mapping within geometry")
                    .cloned();
                Ok((ppa, data))
            }
            None => Ok((self.stripe_ppa(lpn), None)),
        }
    }

    /// The fault plan handed to FTL persistence operations (which take one
    /// unconditionally so the power-loss draw happens on every write path);
    /// inert when no plan is armed.
    fn write_plan(&self) -> FaultPlan {
        self.fault().cloned().unwrap_or_else(FaultPlan::none)
    }

    /// One FTL write under the storage lock. Detects the alive→dead
    /// power-loss transition and records the injection exactly once (later
    /// operations on the dead device fail with the same error but are not
    /// fresh injections). An untimed load (`ctx` is `None`) runs in no
    /// simulation, so neither its FTL work nor a crash it draws is reported.
    fn ftl_write(
        &self,
        ctx: Option<&Ctx>,
        lpn: u64,
        data: PageData,
    ) -> Result<crate::ftl::WriteOutcome, FtlError> {
        let plan = self.write_plan();
        let mut st = self.storage.lock();
        let st = &mut *st;
        let was_alive = !st.ftl.is_dead();
        match st.ftl.write(&mut st.nand, lpn, data, &plan) {
            Ok(outcome) => {
                if let Some(m) = self.instruments(ctx) {
                    m.ftl_gc_runs.add(outcome.gc_runs);
                    m.ftl_gc_relocated.add(outcome.relocated);
                    m.ftl_gc_erased.add(outcome.erased_blocks);
                    m.ftl_journal_records.add(outcome.journal_records);
                    m.ftl_checkpoints.add(outcome.checkpoints);
                    m.ftl_write_amp.set(st.ftl.write_amp_milli() as i64);
                }
                Ok(outcome)
            }
            Err(e) => {
                if let (true, FtlError::PowerLoss { during_gc }, Some(ctx)) = (was_alive, &e, ctx) {
                    let detail = if *during_gc { "mid-gc" } else { "mid-write" };
                    plan.record_injected(ctx, ctx.now(), FaultSite::PowerLoss, detail);
                }
                Err(e)
            }
        }
    }

    /// Charges the per-request software overhead on the least-loaded core,
    /// starting no earlier than `now`; returns when the core finishes. An
    /// armed fault plan may draw a firmware stall here, extending the core
    /// occupancy by the configured stall time.
    pub fn charge_request_overhead(&self, ctx: &Ctx, now: SimTime) -> SimTime {
        let (idx, _) = self.cores.least_loaded();
        let mut overhead = self.cfg.request_overhead;
        if let Some(plan) = self.fault() {
            if let Some(stall) = plan.core_stall() {
                plan.record_injected(ctx, now, FaultSite::CoreStall, "firmware stall");
                plan.record_recovered(ctx, now + stall, FaultSite::CoreStall, "resume");
                overhead += stall;
            }
        }
        let end = self.cores.enqueue(ctx, now, idx, overhead);
        // The window includes queueing behind other requests on the core;
        // the profile sweep surfaces that as blocked time.
        ctx.qprof()
            .record(Stage::SsdletCompute, now, end, 0, idx as u32);
        end
    }

    /// What a die operation reports, to the calling simulation: the
    /// `NandOp` trace event and the channel's op and busy-time counters.
    /// The operation that opens a page's die phase passes
    /// `request = (issued, done)` and also reports its queueing delay since
    /// `issued` and a query-profile span closing at `done`, past any fault
    /// retries; a retry inside that phase passes `None`.
    fn observe_die(
        &self,
        ctx: &Ctx,
        kind: NandOpKind,
        ppa: Ppa,
        (start, end): (SimTime, SimTime),
        request: Option<(SimTime, SimTime)>,
    ) {
        ctx.tracer().emit(|| TraceEvent::NandOp {
            kind,
            channel: ppa.channel,
            way: ppa.way,
            start,
            end,
        });
        if let Some(m) = self.instruments(ctx) {
            let ch = &m.channels[ppa.channel as usize];
            let (ops, wait) = match kind {
                NandOpKind::Read => (&ch.nand_read, &ch.read_wait_ps),
                NandOpKind::Program => (&ch.nand_program, &ch.write_wait_ps),
            };
            ops.inc();
            ch.nand_busy_ps.add((end - start).as_ps());
            if let Some((issued, _)) = request {
                wait.record((start - issued).as_ps());
            }
        }
        if let Some((_, done)) = request {
            ctx.qprof()
                .record(Stage::NandRead, start, done, 0, ppa.channel);
        }
    }

    /// What a channel-bus transfer of `bytes` reports.
    fn observe_bus(&self, ctx: &Ctx, channel: u32, (start, end): (SimTime, SimTime), bytes: u64) {
        ctx.tracer().emit(|| TraceEvent::ChannelTransfer {
            channel,
            start,
            end,
            bytes,
        });
        if let Some(m) = self.instruments(ctx) {
            let ch = &m.channels[channel as usize];
            ch.bus_bytes.add(bytes);
            ch.bus_busy_ps.add((end - start).as_ps());
        }
        ctx.qprof()
            .record(Stage::BusTransfer, start, end, bytes, channel);
    }

    /// What one page streamed through a channel's matcher IP reports.
    fn observe_scan(
        &self,
        ctx: &Ctx,
        channel: u32,
        (start, end): (SimTime, SimTime),
        matched: bool,
    ) {
        let bytes = self.cfg.page_size as u64;
        ctx.tracer().emit(|| TraceEvent::PatternScan {
            channel,
            start,
            end,
            bytes,
            matched,
        });
        if let Some(m) = self.instruments(ctx) {
            let ch = &m.channels[channel as usize];
            ch.pm_scans.inc();
            ch.pm_bytes.add(bytes);
            ch.pm_busy_ps.add((end - start).as_ps());
            if matched {
                ch.pm_hits.inc();
            }
        }
        ctx.qprof().record(Stage::Match, start, end, bytes, channel);
    }

    /// Counts one page in a [`DeviceStats`] counter and its registry mirror.
    fn count_page(
        &self,
        ctx: &Ctx,
        stat: &AtomicU64,
        mirror: impl Fn(&DeviceInstruments) -> &metrics::Counter,
    ) {
        stat.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = self.instruments(ctx) {
            mirror(m).inc();
        }
    }

    /// Applies a drawn NAND read fault to a page sense that ended at
    /// `die_end`: each retry re-senses the page (one extra tR on the same
    /// die, traced as another NAND op), and an uncorrectable draw escalates
    /// to the FTL retiring the failing block — the data survives because the
    /// final retry rescues it before the block leaves circulation.
    fn apply_nand_read_fault(
        &self,
        ctx: &Ctx,
        lpn: u64,
        ppa: Ppa,
        mut die_end: SimTime,
    ) -> SimTime {
        let Some(plan) = self.fault() else {
            return die_end;
        };
        let Some(f) = plan.nand_read_fault() else {
            return die_end;
        };
        plan.record_injected(
            ctx,
            die_end,
            FaultSite::NandRead,
            &format!(
                "lpn {lpn} retries {} uncorrectable {}",
                f.retries, f.uncorrectable
            ),
        );
        for _ in 0..f.retries {
            let retry = self
                .dies
                .enqueue_span(ctx, die_end, self.die_index(ppa), self.cfg.t_read);
            self.observe_die(ctx, NandOpKind::Read, ppa, retry, None);
            die_end = retry.1;
        }
        if f.uncorrectable {
            let blk = (ppa.channel, ppa.way, ppa.block);
            let (newly_bad, moved, retired) = {
                let mut st = self.storage.lock();
                let st = &mut *st;
                let before = st.ftl.bad_blocks();
                match st.ftl.retire_block(&mut st.nand, blk) {
                    Ok(moved) => (st.ftl.bad_blocks() - before, moved, true),
                    // Over-provisioning exhausted (or the device already
                    // crashed): the block cannot be fully evacuated, so it
                    // stays in service. The payload itself already survived
                    // via the read retries above.
                    Err(_) => (st.ftl.bad_blocks() - before, 0, false),
                }
            };
            if let Some(m) = self.instruments(ctx) {
                m.ftl_bad_blocks.add(newly_bad);
                m.ftl_remapped_pages.add(moved);
            }
            if retired {
                plan.record_recovered(ctx, die_end, FaultSite::NandRead, "block_retire");
            } else {
                plan.record_failed(ctx, die_end, FaultSite::NandRead, "retire_exhausted");
            }
        } else {
            plan.record_recovered(ctx, die_end, FaultSite::NandRead, "read_retry");
        }
        die_end
    }

    /// Senses `lpn`'s page on its die no earlier than `start`: FTL lookup,
    /// tR, then any fault retries. Returns the page's placement, its stored
    /// data, and when the die hands the page to the channel.
    fn sense(
        &self,
        ctx: &Ctx,
        start: SimTime,
        lpn: u64,
    ) -> DeviceResult<(Ppa, Option<PageData>, SimTime)> {
        let (ppa, data) = self.fetch(Some(ctx), lpn)?;
        let busy = self
            .dies
            .enqueue_span(ctx, start, self.die_index(ppa), self.cfg.t_read);
        let die_done = self.apply_nand_read_fault(ctx, lpn, ppa, busy.1);
        self.observe_die(ctx, NandOpKind::Read, ppa, busy, Some((start, die_done)));
        Ok((ppa, data, die_done))
    }

    /// Non-blocking single-page read: reserves die + bus time and returns
    /// `(completion_time, data)`. `bytes` caps the bus transfer (≤ page).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Ftl`] for an out-of-range page.
    pub fn enqueue_read(
        &self,
        ctx: &Ctx,
        start: SimTime,
        lpn: u64,
        bytes: usize,
    ) -> DeviceResult<(SimTime, PageBuf)> {
        let (ppa, data, die_done) = self.sense(ctx, start, lpn)?;
        let buf = match data {
            Some(d) => self.materialize_counted(Some(ctx), &d),
            None => self.zero_page.clone(),
        };
        let xfer_bytes = bytes.min(self.cfg.page_size) as u64;
        let xfer = SimDuration::for_bytes(xfer_bytes, self.cfg.channel_rate);
        let bus = self
            .buses
            .enqueue_span(ctx, die_done, ppa.channel as usize, xfer);
        self.observe_bus(ctx, ppa.channel, bus, xfer_bytes);
        self.count_page(ctx, &self.stats.pages_read, |m| &m.pages_read);
        Ok((bus.1, buf))
    }

    /// Non-blocking pattern-matched page scan: the page streams through the
    /// per-channel matcher IP at `pm_rate`; only a match surfaces data.
    fn enqueue_scan(
        &self,
        ctx: &Ctx,
        start: SimTime,
        lpn: u64,
        pattern: &PatternSet,
    ) -> DeviceResult<(SimTime, Option<PageBuf>)> {
        let (ppa, data, die_done) = self.sense(ctx, start, lpn)?;
        let xfer = pattern.scan_time(self.cfg.page_size as u64, self.cfg.pm_rate);
        let bus = self
            .buses
            .enqueue_span(ctx, die_done, ppa.channel as usize, xfer);
        let hit = data
            .map(|d| self.materialize_counted(Some(ctx), &d))
            .filter(|buf| pattern.matches(buf));
        self.observe_scan(ctx, ppa.channel, bus, hit.is_some());
        self.count_page(ctx, &self.stats.pages_scanned, |m| &m.pages_scanned);
        if hit.is_some() {
            self.count_page(ctx, &self.stats.pages_matched, |m| &m.pages_matched);
        }
        Ok((bus.1, hit))
    }

    /// One page of a write request: FTL allocation (and any GC it
    /// triggers), die program, bus transfer. Returns the page's completion
    /// time and the GC time the write caused.
    fn enqueue_program(
        &self,
        ctx: &Ctx,
        lpn: u64,
        buf: PageBuf,
    ) -> DeviceResult<(SimTime, SimDuration)> {
        let outcome = self.ftl_write(Some(ctx), lpn, PageData::Bytes(buf))?;
        let ppa = self
            .storage
            .lock()
            .ftl
            .lookup(lpn)
            .expect("checked")
            .expect("just written");
        let start = self.charge_request_overhead(ctx, ctx.now());
        let busy = self
            .dies
            .enqueue_span(ctx, start, self.die_index(ppa), self.cfg.t_program);
        let page_bytes = self.cfg.page_size as u64;
        let xfer = SimDuration::for_bytes(page_bytes, self.cfg.channel_rate);
        let bus = self
            .buses
            .enqueue_span(ctx, busy.1, ppa.channel as usize, xfer);
        self.observe_die(ctx, NandOpKind::Program, ppa, busy, Some((start, busy.1)));
        self.observe_bus(ctx, ppa.channel, bus, page_bytes);
        self.count_page(ctx, &self.stats.pages_written, |m| &m.pages_written);
        if let Some(m) = self.instruments(ctx) {
            m.channels[ppa.channel as usize]
                .nand_erase
                .add(outcome.erased_blocks);
        }
        let gc_time = (self.cfg.t_read + self.cfg.t_program) * outcome.relocated
            + self.cfg.t_erase * outcome.erased_blocks;
        Ok((bus.1, gc_time))
    }

    /// Runs one datapath call with the power hook marked busy.
    fn powered<T>(&self, ctx: &Ctx, call: impl FnOnce() -> T) -> T {
        self.power_busy(ctx.now());
        let result = call();
        self.power_idle(ctx.now());
        result
    }

    /// How requests are windowed: `items` go out `per_request` at a time
    /// through `issue`, which returns each request's completion time; at
    /// most `depth` are in flight, the fiber parked on the oldest while the
    /// window is full, and the call returns when the batch is complete.
    fn windowed<I>(
        &self,
        ctx: &Ctx,
        items: &[I],
        per_request: usize,
        depth: usize,
        mut issue: impl FnMut(&[I]) -> DeviceResult<SimTime>,
    ) -> DeviceResult<()> {
        assert!(per_request > 0 && depth > 0);
        let mut inflight: VecDeque<SimTime> = VecDeque::new();
        for request in items.chunks(per_request) {
            if inflight.len() >= depth {
                ctx.sleep_until(inflight.pop_front().expect("window is full"));
            }
            inflight.push_back(issue(request)?);
        }
        // Only the newest request gates batch completion: its completion
        // time dominates the ones still queued.
        if let Some(end) = inflight.pop_back() {
            ctx.sleep_until(end);
        }
        Ok(())
    }

    /// One read request issued now: a single software-overhead charge, then
    /// every `(lpn, bytes)` span striped over its die and channel bus.
    /// Appends the pages to `out` and returns when the slowest one arrives.
    fn read_request(
        &self,
        ctx: &Ctx,
        spans: impl Iterator<Item = (u64, usize)>,
        out: &mut Vec<PageBuf>,
    ) -> DeviceResult<SimTime> {
        let start = self.charge_request_overhead(ctx, ctx.now());
        let mut end = start;
        for (lpn, bytes) in spans {
            let (t, buf) = self.enqueue_read(ctx, start, lpn, bytes)?;
            end = end.max(t);
            out.push(buf);
        }
        Ok(end)
    }

    /// The synchronous request behind [`SsdDevice::read_pages`] and
    /// [`SsdDevice::read_spans`]. An empty span list is still one request.
    fn read_sync(
        &self,
        ctx: &Ctx,
        spans: impl ExactSizeIterator<Item = (u64, usize)>,
    ) -> DeviceResult<Vec<PageBuf>> {
        self.powered(ctx, || {
            let mut out = Vec::with_capacity(spans.len());
            let end = self.read_request(ctx, spans, &mut out)?;
            ctx.sleep_until(end);
            Ok(out)
        })
    }

    /// Synchronous read of one request spanning `lpns` (striped across
    /// channels), blocking the fiber until the slowest page arrives.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Ftl`] if any page is out of range.
    pub fn read_pages(&self, ctx: &Ctx, lpns: &[u64]) -> DeviceResult<Vec<PageBuf>> {
        self.read_sync(ctx, lpns.iter().map(|&lpn| (lpn, self.cfg.page_size)))
    }

    /// Synchronous read of `(lpn, bytes)` page spans in one request; only
    /// the touched bytes occupy the channel buses (a 4 KiB read of a 16 KiB
    /// page pays a 4 KiB transfer — the Table III small-read path).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Ftl`] if any page is out of range.
    pub fn read_spans(&self, ctx: &Ctx, spans: &[(u64, usize)]) -> DeviceResult<Vec<PageBuf>> {
        self.read_sync(ctx, spans.iter().copied())
    }

    /// Asynchronous read: splits `lpns` into requests of `request_pages`
    /// pages and keeps up to `queue_depth` requests in flight.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Ftl`] if any page is out of range.
    ///
    /// # Panics
    ///
    /// Panics if `request_pages` or `queue_depth` is zero.
    pub fn read_pages_async(
        &self,
        ctx: &Ctx,
        lpns: &[u64],
        request_pages: usize,
        queue_depth: usize,
    ) -> DeviceResult<Vec<PageBuf>> {
        self.powered(ctx, || {
            let mut out = Vec::with_capacity(lpns.len());
            self.windowed(ctx, lpns, request_pages, queue_depth, |chunk| {
                let spans = chunk.iter().map(|&lpn| (lpn, self.cfg.page_size));
                self.read_request(ctx, spans, &mut out)
            })?;
            Ok(out)
        })
    }

    /// Pattern-matched scan over `lpns` with the per-channel matcher IP.
    /// Returns only matching pages, tagged with their logical page number.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Ftl`] if any page is out of range.
    ///
    /// # Panics
    ///
    /// Panics if `request_pages` or `queue_depth` is zero.
    pub fn scan_pages(
        &self,
        ctx: &Ctx,
        lpns: &[u64],
        pattern: &PatternSet,
        request_pages: usize,
        queue_depth: usize,
    ) -> DeviceResult<Vec<(u64, PageBuf)>> {
        self.powered(ctx, || {
            let mut out = Vec::new();
            self.windowed(ctx, lpns, request_pages, queue_depth, |chunk| {
                // IP setup costs software time on a core per request.
                let (core, _) = self.cores.least_loaded();
                let start = self
                    .cores
                    .enqueue(ctx, ctx.now(), core, self.cfg.pm_setup_overhead);
                ctx.qprof()
                    .record(Stage::SsdletCompute, ctx.now(), start, 0, core as u32);
                let mut end = start;
                for &lpn in chunk {
                    let (t, hit) = self.enqueue_scan(ctx, start, lpn, pattern)?;
                    end = end.max(t);
                    if let Some(buf) = hit {
                        out.push((lpn, buf));
                    }
                }
                Ok(end)
            })?;
            Ok(out)
        })
    }

    /// The write path: asynchronous write of pre-staged device page frames
    /// (typically taken from [`SsdDevice::frame_pool`] and filled in place,
    /// so no staging copy happens here). FTL allocations happen per page,
    /// program operations pipeline across dies with up to `queue_depth` in
    /// flight, and the fiber blocks only on the final completion (the
    /// paper's asynchronous write API, §III-D). GC work triggered along the
    /// way is charged to the caller at the end, like a flush absorbing the
    /// stall.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::BadWriteSize`] if any buffer is not exactly
    /// one page (nothing is written), or [`DeviceError::Ftl`].
    ///
    /// # Panics
    ///
    /// Panics if `queue_depth` is zero.
    pub fn write_bufs_async(
        &self,
        ctx: &Ctx,
        pages: &[(u64, PageBuf)],
        queue_depth: usize,
    ) -> DeviceResult<()> {
        self.powered(ctx, || {
            if let Some((_, buf)) = pages.iter().find(|(_, b)| b.len() != self.cfg.page_size) {
                return Err(DeviceError::BadWriteSize {
                    got: buf.len(),
                    page_size: self.cfg.page_size,
                });
            }
            let mut gc_penalty = SimDuration::ZERO;
            self.windowed(ctx, pages, 1, queue_depth, |page| {
                let (lpn, buf) = &page[0];
                let (end, gc_time) = self.enqueue_program(ctx, *lpn, buf.clone())?;
                gc_penalty += gc_time;
                Ok(end)
            })?;
            self.charge_gc_penalty(ctx, gc_penalty);
            Ok(())
        })
    }

    /// Charges accumulated GC time at the end of an asynchronous write
    /// batch (a flush absorbing the stall), attributing it as die time.
    fn charge_gc_penalty(&self, ctx: &Ctx, gc_penalty: SimDuration) {
        let start = ctx.now();
        ctx.sleep(gc_penalty);
        if gc_penalty > SimDuration::ZERO {
            ctx.qprof().record(Stage::NandRead, start, ctx.now(), 0, 0);
        }
    }

    /// Untimed bulk load used by workload generators to populate the device
    /// before an experiment (the paper pre-loads datasets the same way —
    /// load time is not part of any measured result).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Ftl`] for out-of-range pages.
    pub fn load_page(&self, lpn: u64, data: PageData) -> DeviceResult<()> {
        self.ftl_write(None, lpn, data)?;
        Ok(())
    }

    /// Untimed bulk load of a byte buffer starting at `lpn_start`, split
    /// into pages (the tail page is zero-padded).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Ftl`] for out-of-range pages.
    pub fn load_bytes(&self, lpn_start: u64, bytes: &[u8]) -> DeviceResult<()> {
        self.store_bytes(None, lpn_start, bytes)
    }

    /// [`SsdDevice::load_bytes`] for a caller that may be inside a
    /// simulation — the filesystem persisting its metadata, on a timed
    /// `sync` or an untimed one: always free of virtual time, but with a
    /// `ctx` the staging copies and FTL work count in that simulation.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Ftl`] for out-of-range pages.
    pub fn store_bytes(&self, ctx: Option<&Ctx>, lpn_start: u64, bytes: &[u8]) -> DeviceResult<()> {
        let ps = self.cfg.page_size;
        for (i, chunk) in bytes.chunks(ps).enumerate() {
            self.count_copy(ctx, CopySite::WriteStage, ps as u64);
            let mut frame = self.pool.take();
            frame.as_mut_slice()[..chunk.len()].copy_from_slice(chunk);
            self.ftl_write(ctx, lpn_start + i as u64, PageData::Bytes(frame.freeze()))?;
        }
        Ok(())
    }

    /// Unmaps a logical page (TRIM). The freed physical page becomes GC
    /// fodder; subsequent reads return zeroes.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Ftl`] for out-of-range pages.
    pub fn trim_page(&self, lpn: u64) -> DeviceResult<()> {
        let mut st = self.storage.lock();
        st.ftl.trim(lpn)?;
        Ok(())
    }

    /// Untimed read used by tests and by setup code (not part of any
    /// measured path).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Ftl`] for out-of-range pages.
    pub fn peek_page(&self, lpn: u64) -> DeviceResult<PageBuf> {
        let (_, data) = self.fetch(None, lpn)?;
        Ok(match data {
            Some(d) => self.materialize_counted(None, &d),
            None => self.zero_page.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biscuit_sim::Simulation;

    fn small_cfg() -> SsdConfig {
        SsdConfig {
            logical_capacity: 64 << 20, // 64 MiB keeps maps tiny
            ..SsdConfig::paper_default()
        }
    }

    /// `bytes` zero-padded to a whole page, written through the write path.
    fn write_one(dev: &SsdDevice, ctx: &Ctx, lpn: u64, bytes: &[u8]) {
        let mut page = vec![0u8; dev.config().page_size];
        page[..bytes.len()].copy_from_slice(bytes);
        dev.write_bufs_async(ctx, &[(lpn, Buf::from_vec(page))], 1)
            .unwrap();
    }

    #[test]
    fn single_4k_read_latency_matches_table3() {
        let sim = Simulation::new(0);
        let dev = Arc::new(SsdDevice::new(small_cfg()));
        dev.load_bytes(0, &vec![1u8; 16 * 1024]).unwrap();
        let d = Arc::clone(&dev);
        let t = Arc::new(AtomicU64::new(0));
        let t2 = Arc::clone(&t);
        sim.spawn("r", move |ctx| {
            let start = ctx.now();
            let (end, _) = d
                .enqueue_read(ctx, d.charge_request_overhead(ctx, start), 0, 4096)
                .unwrap();
            ctx.sleep_until(end);
            t2.store((ctx.now() - start).as_nanos(), Ordering::SeqCst);
        });
        sim.run().assert_quiescent();
        let us = t.load(Ordering::SeqCst) as f64 / 1000.0;
        assert!(
            (74.5..77.5).contains(&us),
            "internal 4KiB read took {us}us, expected ~75.9us"
        );
    }

    #[test]
    fn read_returns_written_data() {
        let sim = Simulation::new(0);
        let dev = Arc::new(SsdDevice::new(small_cfg()));
        let d = Arc::clone(&dev);
        sim.spawn("rw", move |ctx| {
            write_one(&d, ctx, 7, b"hello device");
            let pages = d.read_pages(ctx, &[7]).unwrap();
            assert_eq!(&pages[0][..12], b"hello device");
        });
        sim.run().assert_quiescent();
    }

    #[test]
    fn unwritten_page_reads_zero() {
        let sim = Simulation::new(0);
        let dev = Arc::new(SsdDevice::new(small_cfg()));
        let d = Arc::clone(&dev);
        sim.spawn("r", move |ctx| {
            let pages = d.read_pages(ctx, &[100]).unwrap();
            assert!(pages[0].iter().all(|&b| b == 0));
        });
        sim.run().assert_quiescent();
    }

    #[test]
    fn async_read_beats_sync_on_large_transfers() {
        // 16 MiB: sync (one request at a time, qd=1 chunks) vs async qd=32.
        let cfg = small_cfg();
        let pages_total = (16 << 20) / cfg.page_size as u64;
        let lpns: Vec<u64> = (0..pages_total).collect();

        fn run(lpns: Vec<u64>, chunk: usize, qd: usize) -> f64 {
            let sim = Simulation::new(0);
            let dev = Arc::new(SsdDevice::new(SsdConfig {
                logical_capacity: 64 << 20,
                ..SsdConfig::paper_default()
            }));
            let t = Arc::new(AtomicU64::new(0));
            let t2 = Arc::clone(&t);
            sim.spawn("r", move |ctx| {
                dev.read_pages_async(ctx, &lpns, chunk, qd).unwrap();
                t2.store(ctx.now().as_nanos(), Ordering::SeqCst);
            });
            sim.run().assert_quiescent();
            t.load(Ordering::SeqCst) as f64 / 1e9
        }
        let sync_secs = run(lpns.clone(), 8, 1);
        let async_secs = run(lpns, 8, 32);
        assert!(
            async_secs < sync_secs,
            "async {async_secs}s should beat sync {sync_secs}s"
        );
    }

    #[test]
    fn internal_bandwidth_exceeds_host_cap() {
        // Async full-stripe read of 64 MiB approaches aggregate channel BW.
        let cfg = small_cfg();
        let pages_total = (64 << 20) / cfg.page_size as u64;
        let lpns: Vec<u64> = (0..pages_total).collect();
        let sim = Simulation::new(0);
        let dev = Arc::new(SsdDevice::new(cfg));
        let t = Arc::new(AtomicU64::new(0));
        let t2 = Arc::clone(&t);
        sim.spawn("r", move |ctx| {
            dev.read_pages_async(ctx, &lpns, 64, 32).unwrap();
            t2.store(ctx.now().as_nanos(), Ordering::SeqCst);
        });
        sim.run().assert_quiescent();
        let secs = t.load(Ordering::SeqCst) as f64 / 1e9;
        let gbps = (64u64 << 20) as f64 / secs / 1e9;
        assert!(
            gbps > 3.2 * 1.25,
            "internal bandwidth {gbps} GB/s should exceed host cap by >25%"
        );
    }

    #[test]
    fn scan_returns_only_matching_pages() {
        let sim = Simulation::new(0);
        let dev = Arc::new(SsdDevice::new(small_cfg()));
        let ps = dev.config().page_size;
        // Page 0 and 2 contain the needle; page 1 does not.
        let mut p0 = vec![b'x'; ps];
        p0[100..106].copy_from_slice(b"needle");
        let p1 = vec![b'y'; ps];
        let mut p2 = vec![b'z'; ps];
        p2[0..6].copy_from_slice(b"needle");
        dev.load_bytes(0, &p0).unwrap();
        dev.load_bytes(1, &p1).unwrap();
        dev.load_bytes(2, &p2).unwrap();
        let d = Arc::clone(&dev);
        sim.spawn("s", move |ctx| {
            let pat = PatternSet::from_strs(&["needle"]).unwrap();
            let hits = d.scan_pages(ctx, &[0, 1, 2], &pat, 8, 4).unwrap();
            let lpns: Vec<u64> = hits.iter().map(|&(l, _)| l).collect();
            assert_eq!(lpns, vec![0, 2]);
        });
        sim.run().assert_quiescent();
        assert_eq!(dev.stats().pages_scanned.load(Ordering::Relaxed), 3);
        assert_eq!(dev.stats().pages_matched.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn scan_bandwidth_between_conv_and_raw() {
        // Pattern-matched streaming should be under raw internal BW but
        // above the 3.2 GB/s host cap (Fig. 7 ordering).
        let cfg = small_cfg();
        let pages_total = (64 << 20) / cfg.page_size as u64;
        let lpns: Vec<u64> = (0..pages_total).collect();
        let sim = Simulation::new(0);
        let dev = Arc::new(SsdDevice::new(cfg));
        let t = Arc::new(AtomicU64::new(0));
        let t2 = Arc::clone(&t);
        sim.spawn("s", move |ctx| {
            let pat = PatternSet::from_strs(&["nomatch"]).unwrap();
            dev.scan_pages(ctx, &lpns, &pat, 64, 32).unwrap();
            t2.store(ctx.now().as_nanos(), Ordering::SeqCst);
        });
        sim.run().assert_quiescent();
        let secs = t.load(Ordering::SeqCst) as f64 / 1e9;
        let gbps = (64u64 << 20) as f64 / secs / 1e9;
        assert!(
            gbps > 3.2 && gbps < 4.8,
            "pattern-matched bandwidth {gbps} GB/s should sit between Conv and raw"
        );
    }

    #[test]
    fn write_too_large_rejected() {
        let sim = Simulation::new(0);
        let dev = Arc::new(SsdDevice::new(small_cfg()));
        let ps = dev.config().page_size;
        let d = Arc::clone(&dev);
        sim.spawn("w", move |ctx| {
            let err = d
                .write_bufs_async(ctx, &[(0, Buf::from_vec(vec![0u8; ps + 1]))], 1)
                .unwrap_err();
            assert_eq!(
                err,
                DeviceError::BadWriteSize {
                    got: ps + 1,
                    page_size: ps
                }
            );
        });
        sim.run().assert_quiescent();
    }

    #[test]
    fn out_of_range_read_errors() {
        let dev = SsdDevice::new(small_cfg());
        let max = dev.config().logical_pages();
        assert!(matches!(
            dev.peek_page(max),
            Err(DeviceError::Ftl(FtlError::LpnOutOfRange { .. }))
        ));
    }

    #[test]
    fn read_retry_fault_adds_latency_but_keeps_data() {
        use biscuit_sim::fault::{FaultConfig, FaultPlan, FaultSite};

        fn timed_read(plan: FaultPlan) -> (u64, Vec<u8>) {
            let sim = Simulation::new(0);
            let dev = Arc::new(SsdDevice::new(small_cfg()));
            dev.set_fault_plan(&plan);
            dev.load_bytes(0, &vec![0x5A; 16 * 1024]).unwrap();
            let d = Arc::clone(&dev);
            let t = Arc::new(AtomicU64::new(0));
            let t2 = Arc::clone(&t);
            let data = Arc::new(Mutex::new(Vec::new()));
            let data2 = Arc::clone(&data);
            sim.spawn("r", move |ctx| {
                let start = ctx.now();
                let pages = d.read_pages(ctx, &[0]).unwrap();
                t2.store((ctx.now() - start).as_nanos(), Ordering::SeqCst);
                *data2.lock() = pages[0][..64].to_vec();
            });
            sim.run().assert_quiescent();
            let bytes = data.lock().clone();
            (t.load(Ordering::SeqCst), bytes)
        }

        let (clean_ns, clean_data) = timed_read(FaultPlan::none());
        let plan = FaultPlan::seeded(
            42,
            FaultConfig {
                nand_read_error_rate: 1.0,
                ..FaultConfig::default()
            },
        );
        let (faulty_ns, faulty_data) = timed_read(plan.clone());
        assert_eq!(faulty_data, clean_data, "retries must not corrupt data");
        assert!(
            faulty_ns > clean_ns,
            "read retries must cost time: {faulty_ns} <= {clean_ns}"
        );
        assert!(plan.injected_at(FaultSite::NandRead) > 0);
        assert_eq!(
            plan.injected_at(FaultSite::NandRead),
            plan.recovered_at(FaultSite::NandRead),
            "every injected read error must be recovered"
        );
    }

    #[test]
    fn uncorrectable_read_retires_block_and_preserves_data() {
        use biscuit_sim::fault::{FaultConfig, FaultPlan};

        let sim = Simulation::new(0);
        let dev = Arc::new(SsdDevice::new(small_cfg()));
        let plan = FaultPlan::seeded(
            7,
            FaultConfig {
                nand_read_error_rate: 1.0,
                nand_uncorrectable_rate: 1.0,
                ..FaultConfig::default()
            },
        );
        dev.set_fault_plan(&plan);
        let d = Arc::clone(&dev);
        sim.spawn("rw", move |ctx| {
            write_one(&d, ctx, 3, b"fragile payload");
            let pages = d.read_pages(ctx, &[3]).unwrap();
            assert_eq!(&pages[0][..15], b"fragile payload");
            // The block retired; a re-read hits the remapped copy.
            let again = d.read_pages(ctx, &[3]).unwrap();
            assert_eq!(&again[0][..15], b"fragile payload");
        });
        sim.run().assert_quiescent();
        let (bad, remapped) = dev.bad_block_stats();
        assert!(bad >= 1, "uncorrectable read must retire its block");
        assert!(remapped >= 1, "the surviving page must be remapped");
    }

    #[test]
    fn inactive_fault_plan_changes_nothing() {
        fn timed_read(arm: bool) -> u64 {
            let sim = Simulation::new(0);
            let dev = Arc::new(SsdDevice::new(small_cfg()));
            if arm {
                dev.set_fault_plan(&biscuit_sim::fault::FaultPlan::none());
            }
            dev.load_bytes(0, &vec![1u8; 16 * 1024]).unwrap();
            let d = Arc::clone(&dev);
            let t = Arc::new(AtomicU64::new(0));
            let t2 = Arc::clone(&t);
            sim.spawn("r", move |ctx| {
                d.read_pages(ctx, &[0]).unwrap();
                t2.store(ctx.now().as_nanos(), Ordering::SeqCst);
            });
            sim.run().assert_quiescent();
            t.load(Ordering::SeqCst)
        }
        assert_eq!(timed_read(false), timed_read(true));
    }

    #[test]
    fn power_hook_toggles_busy() {
        let sim = Simulation::new(0);
        let dev = Arc::new(SsdDevice::new(small_cfg()));
        let meter = Arc::new(PowerMeter::new());
        meter.register(103.0, 103.0);
        let ssd = meter.register(0.0, 33.0);
        dev.attach_power(Arc::clone(&meter), ssd);
        let d = Arc::clone(&dev);
        sim.spawn("r", move |ctx| {
            d.read_pages(ctx, &[0, 1, 2, 3]).unwrap();
        });
        sim.run().assert_quiescent();
        let trace = meter.trace();
        assert!(
            trace.iter().any(|&(_, p)| (p - 136.0).abs() < 1e-9),
            "expected a 136W busy interval, trace: {trace:?}"
        );
        assert!((meter.power_watts() - 103.0).abs() < 1e-9, "back to idle");
    }

    /// Page `lpn` is bytes `lpn * 31 + i`: every page differs from its
    /// neighbours at every offset.
    struct Ramp;

    impl PageGen for Ramp {
        fn fill(&self, lpn: u64, page: &mut [u8]) {
            for (i, b) in page.iter_mut().enumerate() {
                *b = (lpn * 31 + i as u64) as u8;
            }
        }
    }

    /// A 12-page synthetic file on a device caching `cache_pages` of it.
    fn synth_device(cache_pages: usize) -> SsdDevice {
        let dev = SsdDevice::new(SsdConfig {
            synth_cache_pages: cache_pages,
            ..small_cfg()
        });
        let gen: Arc<dyn PageGen> = Arc::new(Ramp);
        for lpn in 0..12 {
            let gen = Arc::clone(&gen);
            dev.load_page(lpn, PageData::Synth { lpn, gen }).unwrap();
        }
        dev
    }

    #[test]
    fn synth_miss_renders_into_an_evicted_frame_and_never_into_a_held_one() {
        let dev = synth_device(4);
        let ps = dev.config().page_size;
        let expect = |lpn| Ramp.generate(lpn, ps);
        // Two passes over three times the cache: every read misses, and
        // from the fifth on each renders into the frame it just evicted.
        for _ in 0..2 {
            for lpn in 0..12 {
                assert_eq!(dev.peek_page(lpn).unwrap(), expect(lpn), "page {lpn}");
            }
        }
        let pool = dev.frame_pool();
        assert_eq!((pool.frames_allocated(), pool.frames_recycled()), (4, 20));
        // A reader holds page 0 while its entry is evicted (the fourth of the
        // eight misses after it): the pool refuses that frame, and the miss
        // takes a fresh one instead of rendering over the reader's bytes.
        let held = dev.peek_page(0).unwrap();
        for lpn in 1..=8 {
            assert_eq!(dev.peek_page(lpn).unwrap(), expect(lpn), "page {lpn}");
        }
        assert_eq!(held, expect(0));
        assert_eq!((pool.frames_allocated(), pool.frames_recycled()), (5, 28));

        // Without a cache every read renders, into the same bytes.
        let uncached = synth_device(0);
        for lpn in 0..12 {
            assert_eq!(uncached.peek_page(lpn).unwrap(), expect(lpn), "page {lpn}");
        }
    }
}
