//! The host-side SSD handle — the root object of `libsisc` (paper Code 3's
//! `SSD ssd("/dev/nvme0n1")`).
//!
//! Owns the device, its filesystem, the host link, and the runtime ledger.
//! Module loading and unloading charge realistic virtual time: a control
//! command over the link, the module image DMA, and device-side symbol
//! relocation at the (slow) module-processing rate.

use std::sync::{Arc, OnceLock};

use biscuit_fs::Fs;
use biscuit_proto::{HostLink, LinkConfig};
use biscuit_sim::qprof::QueryProfiler;
use biscuit_sim::time::SimDuration;
use biscuit_sim::{Ctx, FaultPlan, MetricsRegistry, Tracer};
use biscuit_ssd::SsdDevice;

use crate::config::CoreConfig;
use crate::error::BiscuitResult;
use crate::module::SsdletModule;
use crate::runtime::{DeviceRuntime, ModuleId};

/// Host-side handle to a Biscuit-enabled SSD (cheaply cloneable).
///
/// # Examples
///
/// ```
/// use biscuit_core::{CoreConfig, Ssd};
/// use biscuit_fs::Fs;
/// use biscuit_ssd::{SsdConfig, SsdDevice};
/// use std::sync::Arc;
///
/// let dev = Arc::new(SsdDevice::new(SsdConfig {
///     logical_capacity: 16 << 20,
///     ..SsdConfig::paper_default()
/// }));
/// let ssd = Ssd::new(Fs::format(dev), CoreConfig::paper_default());
/// assert_eq!(ssd.device().config().logical_capacity, 16 << 20);
/// ```
#[derive(Clone)]
pub struct Ssd {
    inner: Arc<SsdShared>,
}

pub(crate) struct SsdShared {
    pub device: Arc<SsdDevice>,
    pub fs: Fs,
    pub link: Arc<HostLink>,
    pub cfg: Arc<CoreConfig>,
    pub rt: DeviceRuntime,
    pub fault: OnceLock<FaultPlan>,
}

impl std::fmt::Debug for Ssd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ssd")
            .field("runtime", &self.inner.rt)
            .finish()
    }
}

impl Ssd {
    /// Wraps a formatted/mounted filesystem in a Biscuit host handle with
    /// the default PCIe Gen.3 x4 link.
    pub fn new(fs: Fs, cfg: CoreConfig) -> Ssd {
        Self::with_link(fs, cfg, Arc::new(HostLink::new(LinkConfig::pcie_gen3_x4())))
    }

    /// Wraps a filesystem with an explicit link model (shared with a Conv
    /// I/O path in experiments that exercise both).
    pub fn with_link(fs: Fs, cfg: CoreConfig, link: Arc<HostLink>) -> Ssd {
        Ssd {
            inner: Arc::new(SsdShared {
                device: Arc::clone(fs.device()),
                fs,
                link,
                cfg: Arc::new(cfg),
                rt: DeviceRuntime::new(),
                fault: OnceLock::new(),
            }),
        }
    }

    /// Shim for the frozen `biscuit-perf` harness: the platform reports to
    /// the simulation of the `&Ctx` it is called with, so there is nothing
    /// to attach. Goes with the next `benchmark` PR (ROADMAP 1(a)).
    #[doc(hidden)]
    pub fn attach_tracer(&self, _tracer: &Tracer) {}

    /// Shim for the frozen `biscuit-perf` harness; see
    /// [`Ssd::attach_tracer`].
    #[doc(hidden)]
    pub fn attach_qprof(&self, _prof: &QueryProfiler) {}

    /// Shim for the frozen `biscuit-perf` harness; see
    /// [`Ssd::attach_tracer`].
    #[doc(hidden)]
    pub fn attach_metrics(&self, _registry: &MetricsRegistry) {}

    /// Arms the whole platform with a fault plan in one call: the device's
    /// NAND/core sites, both host-link DMA directions, SSDlet panic/stall
    /// injection in applications built on this handle, and the host-side
    /// request-timeout policy all draw from `plan`. Every site reports the
    /// faults it injects and recovers to the simulation it runs in. A
    /// platform is armed once; a [`FaultPlan::none`] plan (or no call)
    /// leaves every path byte-identical to the fault-free platform.
    pub fn attach_fault_plan(&self, plan: &FaultPlan) {
        self.inner.device.set_fault_plan(plan);
        self.inner.link.set_fault_plan(plan);
        let _ = self.inner.fault.set(plan.clone());
    }

    /// The fault plan armed via [`Ssd::attach_fault_plan`], or the inert
    /// [`FaultPlan::none`] when the platform runs fault-free.
    pub fn fault_plan(&self) -> FaultPlan {
        self.inner
            .fault
            .get()
            .cloned()
            .unwrap_or_else(FaultPlan::none)
    }

    /// The simulated device.
    pub fn device(&self) -> &Arc<SsdDevice> {
        &self.inner.device
    }

    /// The on-device filesystem.
    pub fn fs(&self) -> &Fs {
        &self.inner.fs
    }

    /// The host link shared by Biscuit channels and Conv I/O.
    pub fn link(&self) -> &Arc<HostLink> {
        &self.inner.link
    }

    /// The runtime configuration.
    pub(crate) fn config(&self) -> &Arc<CoreConfig> {
        &self.inner.cfg
    }

    /// The runtime ledger.
    pub(crate) fn runtime(&self) -> &DeviceRuntime {
        &self.inner.rt
    }

    /// Loads a module onto the device (paper Code 3: `ssd.loadModule`).
    /// Charges the control command, the image transfer, and device-side
    /// relocation/linking time.
    ///
    /// # Errors
    ///
    /// Currently infallible in the ledger; the `Result` covers future
    /// device-side failures and keeps the paper's fallible signature.
    pub fn load_module(&self, ctx: &Ctx, module: SsdletModule) -> BiscuitResult<ModuleId> {
        let cfg = &self.inner.cfg;
        // Host sends the load command + module image.
        ctx.sleep(cfg.cm_send_host);
        let dma_end = self
            .inner
            .link
            .enqueue_dma_to_device(ctx, ctx.now(), module.binary_size());
        ctx.sleep_until(dma_end + cfg.link_fixed);
        // Device relocates symbols and registers the module.
        let relocation = cfg.module_link_cost
            + SimDuration::for_bytes(module.binary_size(), cfg.module_load_rate);
        let (core, _) = self.inner.device.cores().least_loaded();
        let done = self
            .inner
            .device
            .cores()
            .enqueue(ctx, ctx.now(), core, relocation);
        ctx.sleep_until(done);
        let id = self.inner.rt.register_module(module);
        // Completion response to the host.
        ctx.sleep(cfg.cm_send_device + cfg.link_fixed + cfg.cm_recv_host);
        Ok(id)
    }

    /// Unloads a module (paper Code 3: `ssd.unloadModule`).
    ///
    /// # Errors
    ///
    /// Returns [`crate::BiscuitError::ModuleBusy`] while any of its SSDlets
    /// run, or [`crate::BiscuitError::ModuleNotFound`].
    pub fn unload_module(&self, ctx: &Ctx, id: ModuleId) -> BiscuitResult<()> {
        self.control_roundtrip(ctx);
        self.inner.rt.unregister_module(id)
    }

    /// Charges one host→device command and its device→host response.
    pub(crate) fn control_roundtrip(&self, ctx: &Ctx) {
        let cfg = &self.inner.cfg;
        ctx.sleep(cfg.h2d_latency());
        ctx.sleep(cfg.d2h_latency());
    }
}
