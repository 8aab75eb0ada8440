//! Deterministic, seeded fault injection for the simulated SSD stack.
//!
//! A [`FaultPlan`] is a cheaply cloneable handle that instrumented sites
//! across the stack consult before doing work: NAND page senses (read
//! errors with escalating read-retry and uncorrectable-ECC escalation),
//! PCIe/link DMA packets (CRC-detected corruption with replay and
//! exponential backoff), device-core request overhead (stalls), and SSDlet
//! run attempts (panics and hangs). The recovery policies that consume
//! these faults live with the components themselves — the FTL retires bad
//! blocks, the link replays corrupted packets, the runtime restarts
//! panicked SSDlets, and the DB engine falls back to a host-side scan.
//!
//! ## Determinism
//!
//! Every decision derives from `hash(seed, site, ordinal)` where `ordinal`
//! is a per-site counter — never from wall-clock time or the kernel's RNG —
//! so a given seed produces the same faults at the same sites in the same
//! order on every run, and traces/metrics stay byte-identical across
//! repeated runs (`docs/FAULTS.md` has the full reproduction guide).
//!
//! [`FaultPlan::none`] is the always-disabled plan: consulting it is a
//! single `Option` check with **zero** timing side effects, so fault-free
//! runs are bit-identical to runs on a build without fault hooks.
//!
//! ## Observability
//!
//! Every injected, recovered, and failed fault is reported where it fires:
//! the `record_*` methods take the calling fiber's [`Ctx`] and increment
//! that simulation's metrics registry (`fault_injected_total`,
//! `fault_recovered_total`, `fault_failed_total`, labeled by site/action)
//! and emit structured [`TraceEvent::FaultInjected`] /
//! [`TraceEvent::FaultRecovered`] / [`TraceEvent::FaultFailed`] events. The
//! plan itself holds no telemetry handle, so it may be armed before or
//! after the simulation's observers are switched on.
//!
//! ```
//! use biscuit_sim::fault::{FaultConfig, FaultPlan, FaultSite};
//! use biscuit_sim::Simulation;
//!
//! let plan = FaultPlan::seeded(7, FaultConfig {
//!     nand_read_error_rate: 1.0,
//!     ..FaultConfig::default()
//! });
//! let f = plan.nand_read_fault().expect("rate 1.0 always fires");
//! assert!(f.retries >= 1);
//! let sim = Simulation::new(0);
//! let p = plan.clone();
//! sim.spawn("site", move |ctx| {
//!     p.record_injected(ctx, ctx.now(), FaultSite::NandRead, "tR retry");
//!     p.record_recovered(ctx, ctx.now(), FaultSite::NandRead, "read_retry");
//! });
//! sim.run().assert_quiescent();
//! assert_eq!(plan.injected_at(FaultSite::NandRead), 1);
//! assert_eq!(plan.recovered_at(FaultSite::NandRead), 1);
//!
//! let off = FaultPlan::none();
//! assert!(!off.is_active());
//! assert!(off.nand_read_fault().is_none());
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::kernel::Ctx;
use crate::rng::splitmix64;
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceEvent;

/// Instrumented locations where a [`FaultPlan`] may inject a fault. Each
/// site draws from its own deterministic ordinal stream, so injections at
/// one site never perturb another site's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A NAND page sense: read error, read-retry, uncorrectable ECC.
    NandRead,
    /// A host-bound DMA packet on the PCIe/link model.
    LinkToHost,
    /// A device-bound DMA packet on the PCIe/link model.
    LinkToDevice,
    /// A device-core request-overhead charge (core stall).
    CoreStall,
    /// An SSDlet run attempt (panic or hang injection).
    Ssdlet,
    /// A whole drive in a multi-SSD array going silent mid-query (scatter
    /// coordinator site; see `biscuit-host::array`).
    Drive,
    /// A sudden power loss that halts the device at a seeded persistence
    /// operation (an FTL host write or a GC relocation/erase). Volatile
    /// state — the L2P map, open write frontiers, the synth-page cache —
    /// is lost; only NAND contents and the L2P journal survive. Recovery
    /// replays the journal (see `Ftl::recover` in `biscuit-ssd`).
    PowerLoss,
}

const SITE_COUNT: usize = 7;

impl FaultSite {
    /// Stable label used in metrics and trace events.
    pub(crate) fn label(self) -> &'static str {
        match self {
            FaultSite::NandRead => "nand_read",
            FaultSite::LinkToHost => "link_to_host",
            FaultSite::LinkToDevice => "link_to_device",
            FaultSite::CoreStall => "core_stall",
            FaultSite::Ssdlet => "ssdlet",
            FaultSite::Drive => "drive",
            FaultSite::PowerLoss => "power_loss",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::NandRead => 0,
            FaultSite::LinkToHost => 1,
            FaultSite::LinkToDevice => 2,
            FaultSite::CoreStall => 3,
            FaultSite::Ssdlet => 4,
            FaultSite::Drive => 5,
            FaultSite::PowerLoss => 6,
        }
    }
}

/// Fault rates and recovery-policy parameters for a seeded [`FaultPlan`].
///
/// The default config injects nothing (all rates zero, no panics or
/// hangs) but carries sensible recovery parameters, so tests can flip on
/// exactly one fault kind with struct-update syntax.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Probability, per NAND page sense, that the read needs retries.
    pub nand_read_error_rate: f64,
    /// Retry budget per faulty read; each retry charges one extra `tR` on
    /// the die. A read that exhausts the budget is uncorrectable.
    pub nand_max_retries: u32,
    /// Conditional probability (given a read error) that retries cannot
    /// correct the page: the full budget is charged and the FTL retires
    /// the block, relocating its valid pages.
    pub nand_uncorrectable_rate: f64,
    /// Probability, per DMA transfer, that the packet is corrupted in
    /// flight (detected by CRC at the receiver).
    pub link_corrupt_rate: f64,
    /// Maximum replay attempts for one corrupted transfer. The plan draws
    /// how many attempts fail (1..=max); the next attempt succeeds.
    pub link_max_replays: u32,
    /// Backoff before the first replay; attempt `k` waits
    /// `base * 2^(k-1)`.
    pub link_backoff_base: SimDuration,
    /// Probability, per request-overhead charge, that a device core stalls.
    pub core_stall_rate: f64,
    /// Duration of one injected core stall.
    pub core_stall: SimDuration,
    /// Number of SSDlet run attempts (across the plan's lifetime) that
    /// panic at entry before any output is produced.
    pub ssdlet_panics: u32,
    /// Number of SSDlet run attempts that hang for [`ssdlet_stall`]
    /// before proceeding, exercising host-side request timeouts.
    ///
    /// [`ssdlet_stall`]: FaultConfig::ssdlet_stall
    pub ssdlet_stalls: u32,
    /// Duration of one injected SSDlet hang.
    pub ssdlet_stall: SimDuration,
    /// How many times the runtime may restart a panicked SSDlet before
    /// marking the application failed.
    pub ssdlet_max_restarts: u32,
    /// Host-side receive timeout for offloaded work. When set, consumers
    /// that support it (the DB engine's NDP drain loop and the array
    /// coordinator's gather loop) give up on a silent device and degrade
    /// gracefully.
    pub host_timeout: Option<SimDuration>,
    /// Number of scattered queries (across the plan's lifetime) that lose
    /// one whole drive mid-flight. The affected shard is drawn
    /// deterministically from the seed; the coordinator detects the silent
    /// drive via [`host_timeout`] and re-scatters its shard to a host-side
    /// Conv scan.
    ///
    /// [`host_timeout`]: FaultConfig::host_timeout
    pub drive_losses: u32,
    /// Where in the query the lost drive goes silent.
    pub drive_loss_phase: DriveLossPhase,
    /// For [`DriveLossPhase::MidGather`]: how many merge items the drive
    /// delivers before dying (it never closes its lane).
    pub drive_loss_items: u64,
    /// Number of sudden power losses (across the plan's lifetime). Each
    /// halts the device at a seeded persistence operation of the phase
    /// selected by [`power_loss_phase`]; the exact operation is drawn
    /// uniformly from `1..=power_loss_window`.
    ///
    /// [`power_loss_phase`]: FaultConfig::power_loss_phase
    pub power_losses: u32,
    /// Which persistence operations are eligible crash instants.
    pub power_loss_phase: PowerLossPhase,
    /// The crash fires at the Nth eligible persistence operation, with N
    /// drawn deterministically from `1..=power_loss_window` (so a window
    /// of 1 crashes at the very first eligible operation).
    pub power_loss_window: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            nand_read_error_rate: 0.0,
            nand_max_retries: 3,
            nand_uncorrectable_rate: 0.0,
            link_corrupt_rate: 0.0,
            link_max_replays: 4,
            link_backoff_base: SimDuration::from_micros(1),
            core_stall_rate: 0.0,
            core_stall: SimDuration::from_micros(50),
            ssdlet_panics: 0,
            ssdlet_stalls: 0,
            ssdlet_stall: SimDuration::from_millis(5),
            ssdlet_max_restarts: 2,
            host_timeout: None,
            drive_losses: 0,
            drive_loss_phase: DriveLossPhase::MidScatter,
            drive_loss_items: 1,
            power_losses: 0,
            power_loss_phase: PowerLossPhase::MidWrite,
            power_loss_window: 256,
        }
    }
}

/// When, within one scattered query, a lost drive goes silent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DriveLossPhase {
    /// The drive dies before running its shard job: no items, no close.
    #[default]
    MidScatter,
    /// The drive delivers a few items, then silently stops without ever
    /// closing its merge lane.
    MidGather,
}

/// Which FTL persistence operations a power loss may interrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PowerLossPhase {
    /// Crash at a host-initiated page write.
    #[default]
    MidWrite,
    /// Crash during garbage collection (a valid-page relocation or the
    /// block erase that follows).
    MidGc,
}

/// A deterministic power-loss instant, consumed once per crash.
///
/// `torn` models where, within the interrupted persistence operation, the
/// power failed: `false` crashes *before* the journal record was appended
/// (the operation never happened), `true` crashes *after* the journal
/// append but *before* the NAND program completed (a torn write that
/// recovery must detect and roll back to the previous mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowerLossPoint {
    /// True when the crash lands between journal append and NAND program.
    pub torn: bool,
}

/// A deterministic whole-drive loss, consumed once per affected scatter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriveLoss {
    /// Index of the lost shard (drawn uniformly from the seed).
    pub shard: usize,
    /// When the drive goes silent.
    pub phase: DriveLossPhase,
    /// Items delivered before death ([`DriveLossPhase::MidGather`] only).
    pub items: u64,
}

/// A deterministic NAND read fault, drawn per faulty page sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NandReadFault {
    /// Extra `tR` retries charged on the die (1..=`nand_max_retries`).
    pub retries: u32,
    /// True when retries cannot correct the page: the FTL must retire the
    /// block after rescuing its data.
    pub uncorrectable: bool,
}

/// A deterministic SSDlet disruption, consumed once per affected attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SsdletDisruption {
    /// The attempt hangs for the given duration before proceeding.
    Stall(SimDuration),
    /// The attempt panics at entry, before producing any output.
    Panic,
}

#[derive(Debug, Default)]
struct SiteStats {
    injected: AtomicU64,
    recovered: AtomicU64,
}

#[derive(Debug)]
struct PlanInner {
    seed: u64,
    cfg: FaultConfig,
    /// Per-site draw ordinals: the only mutable state feeding decisions.
    ordinals: [AtomicU64; SITE_COUNT],
    stats: [SiteStats; SITE_COUNT],
    panics_left: AtomicU64,
    stalls_left: AtomicU64,
    drive_losses_left: AtomicU64,
    power_losses_left: AtomicU64,
    /// Count of crash-eligible persistence operations seen so far (the
    /// stream the seeded crash instant indexes into).
    power_ops: AtomicU64,
}

/// A seeded, deterministic fault-injection plan shared across the stack.
///
/// Clones share state: draw ordinals and the per-site injected/recovered
/// accounting are global to the plan, so attaching one plan to a whole
/// platform (see `Ssd::attach_fault_plan` in `biscuit-core`) yields one
/// coherent, reproducible fault schedule.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    inner: Option<Arc<PlanInner>>,
}

/// Deterministic draw value for `(seed, site, ordinal)`.
fn mix(seed: u64, site: u64, ordinal: u64) -> u64 {
    splitmix64(splitmix64(seed ^ site.wrapping_mul(0xA076_1D64_78BD_642F)) ^ ordinal)
}

/// Maps a hash to a uniform value in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultPlan {
    /// The always-disabled plan: every query is a single `Option` check
    /// with no side effects, so timing is identical to a fault-free build.
    pub fn none() -> Self {
        FaultPlan { inner: None }
    }

    /// A plan that injects per `cfg`, with all randomness derived from
    /// `seed`. The same `(seed, cfg)` always produces the same faults.
    pub fn seeded(seed: u64, cfg: FaultConfig) -> Self {
        let panics = cfg.ssdlet_panics as u64;
        let stalls = cfg.ssdlet_stalls as u64;
        let losses = cfg.drive_losses as u64;
        let power = cfg.power_losses as u64;
        FaultPlan {
            inner: Some(Arc::new(PlanInner {
                seed,
                cfg,
                ordinals: Default::default(),
                stats: Default::default(),
                panics_left: AtomicU64::new(panics),
                stalls_left: AtomicU64::new(stalls),
                drive_losses_left: AtomicU64::new(losses),
                power_losses_left: AtomicU64::new(power),
                power_ops: AtomicU64::new(0),
            })),
        }
    }

    /// True when this plan can inject faults (built with
    /// [`FaultPlan::seeded`]).
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// The plan's configuration, when active.
    pub fn config(&self) -> Option<&FaultConfig> {
        self.inner.as_deref().map(|i| &i.cfg)
    }

    /// Advances `site`'s ordinal and returns the draw hash when the event
    /// fires at probability `rate`.
    fn roll(&self, site: FaultSite, rate: f64) -> Option<u64> {
        let inner = self.inner.as_deref()?;
        if rate <= 0.0 {
            return None;
        }
        let n = inner.ordinals[site.index()].fetch_add(1, Ordering::Relaxed);
        let h = mix(inner.seed, site.index() as u64 + 1, n);
        (unit(h) < rate).then(|| splitmix64(h))
    }

    /// Draws the fault (if any) for one NAND page sense.
    pub fn nand_read_fault(&self) -> Option<NandReadFault> {
        let cfg = self.config()?.clone();
        let h = self.roll(FaultSite::NandRead, cfg.nand_read_error_rate)?;
        let max = cfg.nand_max_retries.max(1);
        let uncorrectable = unit(splitmix64(h)) < cfg.nand_uncorrectable_rate;
        let retries = if uncorrectable {
            max
        } else {
            1 + (h % max as u64) as u32
        };
        Some(NandReadFault {
            retries,
            uncorrectable,
        })
    }

    /// Draws how many attempts of one DMA transfer are corrupted in
    /// flight (0 = clean). `site` must be [`FaultSite::LinkToHost`] or
    /// [`FaultSite::LinkToDevice`]. Each corrupted attempt is replayed
    /// after exponential backoff; the attempt after the last corrupted
    /// one succeeds.
    pub fn link_corrupt_attempts(&self, site: FaultSite) -> u32 {
        debug_assert!(matches!(
            site,
            FaultSite::LinkToHost | FaultSite::LinkToDevice
        ));
        let Some(cfg) = self.config() else { return 0 };
        let max = cfg.link_max_replays.max(1);
        match self.roll(site, cfg.link_corrupt_rate) {
            Some(h) => 1 + (h % max as u64) as u32,
            None => 0,
        }
    }

    /// Draws the stall (if any) for one device-core request charge.
    pub fn core_stall(&self) -> Option<SimDuration> {
        let cfg = self.config()?.clone();
        self.roll(FaultSite::CoreStall, cfg.core_stall_rate)?;
        Some(cfg.core_stall)
    }

    /// Consumes and returns the disruption (if any) for one SSDlet run
    /// attempt. Hangs are consumed before panics.
    pub fn ssdlet_disruption(&self) -> Option<SsdletDisruption> {
        let inner = self.inner.as_deref()?;
        // The counters are budgets, not rates: decrement-if-positive.
        if take_one(&inner.stalls_left) {
            return Some(SsdletDisruption::Stall(inner.cfg.ssdlet_stall));
        }
        if take_one(&inner.panics_left) {
            return Some(SsdletDisruption::Panic);
        }
        None
    }

    /// Consumes and returns the whole-drive loss (if any) for one scatter
    /// of a query across `shards` drives. The lost shard index is drawn
    /// deterministically from the seed; the budget
    /// ([`FaultConfig::drive_losses`]) is consumed only when a loss fires.
    pub fn drive_loss(&self, shards: usize) -> Option<DriveLoss> {
        let inner = self.inner.as_deref()?;
        if shards == 0 || !take_one(&inner.drive_losses_left) {
            return None;
        }
        let n = inner.ordinals[FaultSite::Drive.index()].fetch_add(1, Ordering::Relaxed);
        let h = mix(inner.seed, FaultSite::Drive.index() as u64 + 1, n);
        Some(DriveLoss {
            shard: (h % shards as u64) as usize,
            phase: inner.cfg.drive_loss_phase,
            items: inner.cfg.drive_loss_items,
        })
    }

    /// Consumes and returns the power-loss instant (if any) for one FTL
    /// persistence operation. `during_gc` tags the operation's phase
    /// (`true` for GC relocations and erases, `false` for host writes);
    /// only operations matching [`FaultConfig::power_loss_phase`] count
    /// toward the seeded crash instant. The Nth eligible operation
    /// crashes, with N drawn uniformly from
    /// `1..=`[`FaultConfig::power_loss_window`]; with a budget above one,
    /// each subsequent crash re-draws a fresh offset past the previous
    /// instant.
    pub fn power_loss(&self, during_gc: bool) -> Option<PowerLossPoint> {
        let inner = self.inner.as_deref()?;
        let cfg = &inner.cfg;
        if cfg.power_losses == 0 {
            return None;
        }
        let eligible = match cfg.power_loss_phase {
            PowerLossPhase::MidWrite => !during_gc,
            PowerLossPhase::MidGc => during_gc,
        };
        if !eligible {
            return None;
        }
        let n = inner.power_ops.fetch_add(1, Ordering::Relaxed) + 1;
        let window = cfg.power_loss_window.max(1);
        let site = FaultSite::PowerLoss.index() as u64 + 1;
        // The crash instants are a cumulative sum of seeded per-loss
        // offsets, so every loss in the budget lands at a distinct op.
        let fired = cfg.power_losses as u64 - inner.power_losses_left.load(Ordering::Relaxed);
        let target: u64 = (0..=fired)
            .map(|j| 1 + mix(inner.seed, site, j) % window)
            .sum();
        if n != target || !take_one(&inner.power_losses_left) {
            return None;
        }
        Some(PowerLossPoint {
            torn: mix(inner.seed, site, 1 << 32 | fired) & 1 == 1,
        })
    }

    /// Restart budget for panicked SSDlets (0 when inactive).
    pub fn max_restarts(&self) -> u32 {
        self.config().map_or(0, |c| c.ssdlet_max_restarts)
    }

    /// Host-side receive timeout for offloaded work, when configured.
    pub fn host_timeout(&self) -> Option<SimDuration> {
        self.config()?.host_timeout
    }

    /// What every `record_*` does: the plan's own per-site accounting
    /// (`stat`; failures keep none), then a counter (labeled by site and,
    /// when given, action) and a trace event in the simulation of the fiber
    /// behind `ctx` — the site that drew the fault. A no-op on an inactive
    /// plan.
    fn record(
        &self,
        ctx: &Ctx,
        site: FaultSite,
        stat: impl Fn(&SiteStats) -> Option<&AtomicU64>,
        metric: &str,
        action: Option<&str>,
        event: impl FnOnce() -> TraceEvent,
    ) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        if let Some(n) = stat(&inner.stats[site.index()]) {
            n.fetch_add(1, Ordering::Relaxed);
        }
        let reg = ctx.metrics();
        if reg.is_enabled() {
            let labels = [("site", site.label()), ("action", action.unwrap_or(""))];
            let used = if action.is_some() { 2 } else { 1 };
            reg.counter(metric, &labels[..used]).inc();
        }
        ctx.tracer().emit(event);
    }

    /// Records a fault injected at `at`.
    pub fn record_injected(&self, ctx: &Ctx, at: SimTime, site: FaultSite, detail: &str) {
        let event = || TraceEvent::FaultInjected {
            at,
            site: site.label(),
            detail: Arc::from(detail),
        };
        let metric = "fault_injected_total";
        self.record(ctx, site, |s| Some(&s.injected), metric, None, event);
    }

    /// Records a successful recovery (`action` names the policy: e.g.
    /// `"read_retry"`, `"block_retire"`, `"link_replay"`, `"restart"`,
    /// `"host_fallback"`).
    pub fn record_recovered(&self, ctx: &Ctx, at: SimTime, site: FaultSite, action: &'static str) {
        let event = || TraceEvent::FaultRecovered {
            at,
            site: site.label(),
            action,
        };
        let (metric, action) = ("fault_recovered_total", Some(action));
        self.record(ctx, site, |s| Some(&s.recovered), metric, action, event);
    }

    /// Records an exhausted recovery policy (`action` names what gave up);
    /// a higher layer must degrade gracefully. Counted only in the
    /// simulation's `fault_failed_total`.
    pub fn record_failed(&self, ctx: &Ctx, at: SimTime, site: FaultSite, action: &'static str) {
        let event = || TraceEvent::FaultFailed {
            at,
            site: site.label(),
            action,
        };
        let metric = "fault_failed_total";
        self.record(ctx, site, |_| None, metric, Some(action), event);
    }

    /// Faults injected at one site.
    pub fn injected_at(&self, site: FaultSite) -> u64 {
        self.inner.as_deref().map_or(0, |i| {
            i.stats[site.index()].injected.load(Ordering::Relaxed)
        })
    }

    /// Faults recovered at one site.
    pub fn recovered_at(&self, site: FaultSite) -> u64 {
        self.inner.as_deref().map_or(0, |i| {
            i.stats[site.index()].recovered.load(Ordering::Relaxed)
        })
    }
}

/// Decrements `budget` if positive; true when a unit was taken.
fn take_one(budget: &AtomicU64) -> bool {
    budget
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulation;

    /// Runs `f` as the only fiber of a fresh simulation.
    fn in_fiber(f: impl FnOnce(&Ctx) + Send + 'static) {
        let sim = Simulation::new(0);
        sim.spawn("site", f);
        sim.run().assert_quiescent();
    }

    #[test]
    fn none_plan_never_fires() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        assert!(plan.nand_read_fault().is_none());
        assert_eq!(plan.link_corrupt_attempts(FaultSite::LinkToHost), 0);
        assert!(plan.core_stall().is_none());
        assert!(plan.ssdlet_disruption().is_none());
        assert_eq!(plan.max_restarts(), 0);
        assert!(plan.host_timeout().is_none());
        let p = plan.clone();
        in_fiber(move |ctx| p.record_injected(ctx, SimTime::ZERO, FaultSite::NandRead, "x"));
        assert_eq!(plan.injected_at(FaultSite::NandRead), 0);
    }

    #[test]
    fn draws_are_deterministic_for_a_seed() {
        fn sequence(seed: u64) -> Vec<Option<NandReadFault>> {
            let plan = FaultPlan::seeded(
                seed,
                FaultConfig {
                    nand_read_error_rate: 0.3,
                    nand_uncorrectable_rate: 0.2,
                    ..FaultConfig::default()
                },
            );
            (0..64).map(|_| plan.nand_read_fault()).collect()
        }
        assert_eq!(sequence(42), sequence(42));
        assert_ne!(sequence(42), sequence(43), "different seeds diverge");
        let fired = sequence(42).iter().filter(|f| f.is_some()).count();
        assert!(fired > 0 && fired < 64, "rate 0.3 is neither 0 nor 1");
    }

    #[test]
    fn sites_draw_independent_streams() {
        let cfg = FaultConfig {
            link_corrupt_rate: 0.5,
            ..FaultConfig::default()
        };
        // Interleaving draws at another site must not shift this site's
        // stream: compare to-host draws with and without to-device noise.
        let a = FaultPlan::seeded(9, cfg.clone());
        let pure: Vec<u32> = (0..32)
            .map(|_| a.link_corrupt_attempts(FaultSite::LinkToHost))
            .collect();
        let b = FaultPlan::seeded(9, cfg);
        let mixed: Vec<u32> = (0..32)
            .map(|_| {
                b.link_corrupt_attempts(FaultSite::LinkToDevice);
                b.link_corrupt_attempts(FaultSite::LinkToHost)
            })
            .collect();
        assert_eq!(pure, mixed);
    }

    #[test]
    fn rate_one_always_fires_and_respects_budgets() {
        let plan = FaultPlan::seeded(
            1,
            FaultConfig {
                nand_read_error_rate: 1.0,
                nand_max_retries: 3,
                link_corrupt_rate: 1.0,
                link_max_replays: 4,
                core_stall_rate: 1.0,
                ssdlet_panics: 1,
                ssdlet_stalls: 1,
                ..FaultConfig::default()
            },
        );
        for _ in 0..16 {
            let f = plan.nand_read_fault().expect("always fires");
            assert!((1..=3).contains(&f.retries));
            let n = plan.link_corrupt_attempts(FaultSite::LinkToDevice);
            assert!((1..=4).contains(&n));
            assert!(plan.core_stall().is_some());
        }
        // Stalls drain before panics; both budgets are finite.
        assert!(matches!(
            plan.ssdlet_disruption(),
            Some(SsdletDisruption::Stall(_))
        ));
        assert_eq!(plan.ssdlet_disruption(), Some(SsdletDisruption::Panic));
        assert_eq!(plan.ssdlet_disruption(), None);
    }

    #[test]
    fn uncorrectable_reads_charge_the_full_budget() {
        let plan = FaultPlan::seeded(
            5,
            FaultConfig {
                nand_read_error_rate: 1.0,
                nand_uncorrectable_rate: 1.0,
                nand_max_retries: 3,
                ..FaultConfig::default()
            },
        );
        let f = plan.nand_read_fault().unwrap();
        assert!(f.uncorrectable);
        assert_eq!(f.retries, 3);
    }

    #[test]
    fn accounting_and_metrics_flow() {
        let sim = Simulation::new(0);
        sim.enable_metrics();
        let plan = FaultPlan::seeded(0, FaultConfig::default());
        let p = plan.clone();
        sim.spawn("sites", move |ctx| {
            p.record_injected(ctx, SimTime::ZERO, FaultSite::LinkToHost, "crc");
            p.record_recovered(ctx, SimTime::ZERO, FaultSite::LinkToHost, "link_replay");
            p.record_failed(ctx, SimTime::ZERO, FaultSite::Ssdlet, "restart");
        });
        let snap = sim.run().metrics;
        assert_eq!(plan.injected_at(FaultSite::LinkToHost), 1);
        assert_eq!(plan.recovered_at(FaultSite::LinkToHost), 1);
        assert_eq!(
            snap.counter_value("fault_injected_total", &[("site", "link_to_host")]),
            Some(1)
        );
        assert_eq!(
            snap.counter_value(
                "fault_recovered_total",
                &[("site", "link_to_host"), ("action", "link_replay")]
            ),
            Some(1)
        );
        assert_eq!(
            snap.counter_value(
                "fault_failed_total",
                &[("site", "ssdlet"), ("action", "restart")]
            ),
            Some(1)
        );
    }

    #[test]
    fn drive_loss_draws_deterministically_and_respects_budget() {
        let cfg = FaultConfig {
            drive_losses: 2,
            drive_loss_phase: DriveLossPhase::MidGather,
            drive_loss_items: 3,
            ..FaultConfig::default()
        };
        let a = FaultPlan::seeded(11, cfg.clone());
        let b = FaultPlan::seeded(11, cfg.clone());
        let first = a.drive_loss(8).expect("budget 2: first scatter fires");
        assert_eq!(Some(first), b.drive_loss(8), "same seed, same draw");
        assert!(first.shard < 8);
        assert_eq!(first.phase, DriveLossPhase::MidGather);
        assert_eq!(first.items, 3);
        assert!(a.drive_loss(8).is_some());
        assert_eq!(a.drive_loss(8), None, "budget exhausted");
        // Inert defaults never fire, and zero shards cannot lose a drive.
        assert_eq!(
            FaultPlan::seeded(11, FaultConfig::default()).drive_loss(4),
            None
        );
        assert_eq!(FaultPlan::none().drive_loss(4), None);
        let c = FaultPlan::seeded(11, cfg);
        assert_eq!(c.drive_loss(0), None);
    }

    #[test]
    fn power_loss_draws_deterministically_and_respects_phase() {
        let cfg = FaultConfig {
            power_losses: 1,
            power_loss_phase: PowerLossPhase::MidWrite,
            power_loss_window: 8,
            ..FaultConfig::default()
        };
        let fire_at = |plan: &FaultPlan| -> Option<usize> {
            (0..64).find(|_| plan.power_loss(false).is_some())
        };
        let a = FaultPlan::seeded(21, cfg.clone());
        let b = FaultPlan::seeded(21, cfg.clone());
        let at = fire_at(&a).expect("window 8 fires within 64 ops");
        assert!(at < 8, "crash lands inside the window");
        assert_eq!(Some(at), fire_at(&b), "same seed, same instant");
        assert!(fire_at(&a).is_none(), "budget 1 is exhausted");
        // GC ops are ineligible under MidWrite and never advance the
        // counted stream.
        let c = FaultPlan::seeded(21, cfg.clone());
        for _ in 0..64 {
            assert!(c.power_loss(true).is_none());
        }
        assert_eq!(fire_at(&c), Some(at), "gc noise does not shift instant");
        // The torn/clean sub-draw is seed-stable too.
        let d = FaultPlan::seeded(21, cfg.clone());
        let e = FaultPlan::seeded(21, cfg);
        let torn_d = (0..64).find_map(|_| d.power_loss(false)).unwrap().torn;
        let torn_e = (0..64).find_map(|_| e.power_loss(false)).unwrap().torn;
        assert_eq!(torn_d, torn_e);
        assert_eq!(FaultPlan::none().power_loss(false), None);
    }

    #[test]
    fn power_loss_budget_spreads_over_distinct_instants() {
        let plan = FaultPlan::seeded(
            77,
            FaultConfig {
                power_losses: 3,
                power_loss_phase: PowerLossPhase::MidGc,
                power_loss_window: 5,
                ..FaultConfig::default()
            },
        );
        let fired: Vec<usize> = (0..64)
            .filter(|_| plan.power_loss(true).is_some())
            .collect();
        assert_eq!(fired.len(), 3, "whole budget fires");
        assert!(fired.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn clones_share_state() {
        let plan = FaultPlan::seeded(
            3,
            FaultConfig {
                ssdlet_panics: 1,
                ..FaultConfig::default()
            },
        );
        let clone = plan.clone();
        assert_eq!(clone.ssdlet_disruption(), Some(SsdletDisruption::Panic));
        assert_eq!(plan.ssdlet_disruption(), None, "budget is shared");
        in_fiber(move |ctx| clone.record_injected(ctx, SimTime::ZERO, FaultSite::Ssdlet, "panic"));
        assert_eq!(plan.injected_at(FaultSite::Ssdlet), 1);
    }
}
