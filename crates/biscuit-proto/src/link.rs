//! Host-interface timing model: PCIe Gen.3 x4 link + NVMe command costs.
//!
//! The paper's target SSD connects over PCIe Gen.3 x4 sustaining about
//! 3.2 GB/s (Table I, Fig. 7). Conventional ("Conv") I/O pays, per command:
//! host driver submission, device-side command handling, a DMA transfer over
//! the link, and host-side completion/interrupt processing. Biscuit's
//! internal reads skip the link entirely — that asymmetry is the root of the
//! Table III latency gap and the Fig. 7 bandwidth gap.

use std::sync::OnceLock;

use biscuit_sim::fault::{FaultPlan, FaultSite};
use biscuit_sim::queue::Semaphore;
use biscuit_sim::resource::Shaper;
use biscuit_sim::time::{SimDuration, SimTime};
use biscuit_sim::Ctx;

/// Timing parameters of the host interface.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Usable link bandwidth per direction, bytes/second.
    pub bandwidth_bytes_per_sec: f64,
    /// Host-side submission cost (driver + doorbell) per command.
    pub host_submit: SimDuration,
    /// Device-side NVMe command handling per command.
    pub device_command: SimDuration,
    /// Host-side completion cost (interrupt + CQ processing) per command.
    pub host_complete: SimDuration,
    /// Maximum outstanding commands (submission queue depth).
    pub queue_depth: usize,
}

impl LinkConfig {
    /// The paper's host interface: PCIe Gen.3 x4 at 3.2 GB/s max throughput,
    /// with per-command costs calibrated so a 4 KiB Conv read lands at
    /// ~90 µs against the device's ~76 µs internal read (Table III).
    pub fn pcie_gen3_x4() -> Self {
        LinkConfig {
            bandwidth_bytes_per_sec: 3.2e9,
            host_submit: SimDuration::from_micros_f64(3.8),
            device_command: SimDuration::from_micros_f64(3.0),
            host_complete: SimDuration::from_micros_f64(6.0),
            queue_depth: 256,
        }
    }
}

impl LinkConfig {
    /// A 10 GbE network link to a remote storage node (paper Fig. 1(c)
    /// "Networked"; §VIII argues Biscuit extends to this organization).
    /// Round-trip costs grow by an order of magnitude versus direct-attach
    /// PCIe — which is exactly why pushing filters to the storage side pays
    /// off even more over a network.
    pub fn ethernet_10g() -> Self {
        LinkConfig {
            bandwidth_bytes_per_sec: 1.25e9,
            host_submit: SimDuration::from_micros_f64(15.0),
            device_command: SimDuration::from_micros_f64(20.0),
            host_complete: SimDuration::from_micros_f64(25.0),
            queue_depth: 128,
        }
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self::pcie_gen3_x4()
    }
}

/// The shared host-device link with per-direction DMA engines and bounded
/// command slots.
///
/// # Examples
///
/// ```
/// use biscuit_proto::{HostLink, LinkConfig};
/// use biscuit_sim::Simulation;
/// use std::sync::Arc;
///
/// let sim = Simulation::new(0);
/// let link = Arc::new(HostLink::new(LinkConfig::pcie_gen3_x4()));
/// let l = Arc::clone(&link);
/// sim.spawn("reader", move |ctx| {
///     l.with_slot(ctx, || {
///         // ... device does its internal work ...
///         let end = l.enqueue_dma_to_host(ctx, ctx.now(), 4096);
///         ctx.sleep_until(end);
///     });
/// });
/// sim.run().assert_quiescent();
/// assert_eq!(link.config().queue_depth, 256);
/// ```
#[derive(Debug)]
pub struct HostLink {
    cfg: LinkConfig,
    to_host: Shaper,
    to_device: Shaper,
    slots: Semaphore,
    fault: OnceLock<FaultPlan>,
}

impl HostLink {
    /// Creates a link with the given timing parameters.
    ///
    /// # Panics
    ///
    /// Panics if `queue_depth` is zero or the bandwidth is not positive.
    pub fn new(cfg: LinkConfig) -> Self {
        assert!(cfg.queue_depth > 0, "queue depth must be positive");
        // One component: a run that only ever moves data one way still
        // exports the idle direction.
        let [to_host, to_device] = Shaper::labelled(
            cfg.bandwidth_bytes_per_sec,
            SimDuration::ZERO,
            ["link.to_host", "link.to_device"],
        );
        HostLink {
            to_host,
            to_device,
            slots: Semaphore::new(cfg.queue_depth),
            fault: OnceLock::new(),
            cfg,
        }
    }

    /// Arms the link's fault-injection sites with `plan`: every DMA
    /// reservation in either direction may draw packet corruption. A
    /// corrupted attempt is caught by the link CRC and replayed after
    /// exponential backoff (`link_backoff_base × 2^(k−1)` before the k-th
    /// replay), re-reserving link bandwidth each time. A link is armed once;
    /// a [`FaultPlan::none`] plan leaves the timing path untouched.
    pub fn set_fault_plan(&self, plan: &FaultPlan) {
        let _ = self.fault.set(plan.clone());
    }

    #[inline]
    fn fault(&self) -> Option<&FaultPlan> {
        self.fault.get().filter(|p| p.is_active())
    }

    /// Extends a finished DMA reservation with CRC-replay attempts drawn
    /// from the armed fault plan: attempt k backs off `base × 2^(k−1)` and
    /// then re-reserves the shaper for the full payload. Returns when the
    /// first clean attempt completes (`end` unchanged when no fault fires).
    fn replay_corrupted(
        &self,
        ctx: &Ctx,
        site: FaultSite,
        shaper: &Shaper,
        bytes: u64,
        mut end: SimTime,
    ) -> SimTime {
        let Some(plan) = self.fault() else {
            return end;
        };
        let n = plan.link_corrupt_attempts(site);
        if n == 0 {
            return end;
        }
        let base = plan
            .config()
            .expect("active plan has a config")
            .link_backoff_base;
        plan.record_injected(
            ctx,
            end,
            site,
            &format!("{bytes} bytes corrupted, {n} replay(s)"),
        );
        for k in 0..n {
            end = shaper.enqueue(ctx, end + base * (1u64 << k), bytes);
        }
        plan.record_recovered(ctx, end, site, "link_replay");
        end
    }

    /// The link's timing parameters.
    pub fn config(&self) -> &LinkConfig {
        &self.cfg
    }

    /// Runs `f` holding one NVMe command slot, blocking first while all
    /// `queue_depth` slots are taken. The slot is released when `f`
    /// returns, whatever it returns.
    pub fn with_slot<R>(&self, ctx: &Ctx, f: impl FnOnce() -> R) -> R {
        self.slots.acquire(ctx);
        let out = f();
        self.slots.release(ctx);
        out
    }

    /// Reserves a device-to-host DMA without blocking; returns completion time.
    pub fn enqueue_dma_to_host(&self, ctx: &Ctx, now: SimTime, bytes: u64) -> SimTime {
        let end = self.to_host.enqueue(ctx, now, bytes);
        self.replay_corrupted(ctx, FaultSite::LinkToHost, &self.to_host, bytes, end)
    }

    /// Reserves a host-to-device DMA without blocking; returns completion time.
    pub fn enqueue_dma_to_device(&self, ctx: &Ctx, now: SimTime, bytes: u64) -> SimTime {
        let end = self.to_device.enqueue(ctx, now, bytes);
        self.replay_corrupted(ctx, FaultSite::LinkToDevice, &self.to_device, bytes, end)
    }

    /// Total bytes moved device→host so far.
    pub fn bytes_to_host(&self) -> u64 {
        self.to_host.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biscuit_sim::Simulation;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn conv_read_overhead_matches_calibration() {
        // submit + device command + 4KiB DMA + complete ≈ 14.1us (Table III gap)
        let sim = Simulation::new(0);
        let link = Arc::new(HostLink::new(LinkConfig::pcie_gen3_x4()));
        let l = Arc::clone(&link);
        let done = Arc::new(AtomicU64::new(0));
        let d = Arc::clone(&done);
        sim.spawn("read", move |ctx| {
            let cfg = l.config().clone();
            l.with_slot(ctx, || {
                ctx.sleep(cfg.host_submit);
                ctx.sleep(cfg.device_command);
                let end = l.enqueue_dma_to_host(ctx, ctx.now(), 4096);
                ctx.sleep_until(end);
                ctx.sleep(cfg.host_complete);
            });
            d.store(ctx.now().as_nanos(), Ordering::SeqCst);
        });
        sim.run().assert_quiescent();
        let us = done.load(Ordering::SeqCst) as f64 / 1000.0;
        assert!((13.0..15.5).contains(&us), "overhead was {us}us");
    }

    #[test]
    fn link_bandwidth_is_capped() {
        // 32 MiB over 3.2 GB/s takes ~10 ms regardless of command count.
        let sim = Simulation::new(0);
        let link = Arc::new(HostLink::new(LinkConfig {
            host_submit: SimDuration::ZERO,
            device_command: SimDuration::ZERO,
            host_complete: SimDuration::ZERO,
            ..LinkConfig::pcie_gen3_x4()
        }));
        let l = Arc::clone(&link);
        let done = Arc::new(AtomicU64::new(0));
        let d = Arc::clone(&done);
        sim.spawn("stream", move |ctx| {
            let mut end = ctx.now();
            for _ in 0..32 {
                end = l.enqueue_dma_to_host(ctx, ctx.now(), 1 << 20);
            }
            ctx.sleep_until(end);
            d.store(ctx.now().as_micros(), Ordering::SeqCst);
        });
        sim.run().assert_quiescent();
        let secs = done.load(Ordering::SeqCst) as f64 / 1e6;
        let gbps = (32.0 * (1 << 20) as f64) / secs / 1e9;
        assert!((3.1..3.3).contains(&gbps), "link ran at {gbps} GB/s");
    }

    #[test]
    fn directions_are_independent() {
        let sim = Simulation::new(0);
        let link = Arc::new(HostLink::new(LinkConfig::pcie_gen3_x4()));
        let l = Arc::clone(&link);
        sim.spawn("both", move |ctx| {
            let start = ctx.now();
            let up = l.enqueue_dma_to_host(ctx, start, 1 << 20);
            let down = l.enqueue_dma_to_device(ctx, start, 1 << 20);
            // Full duplex: both directions complete at the same time.
            assert_eq!(up, down);
            // The host→device megabyte occupies its own direction only: a
            // second one queues behind it there.
            let down2 = l.enqueue_dma_to_device(ctx, start, 1 << 20);
            assert_eq!(down2 - down, down - start);
            ctx.sleep_until(down2);
        });
        sim.run().assert_quiescent();
        assert_eq!(link.bytes_to_host(), 1 << 20);
    }

    #[test]
    fn link_replay_backoff_matches_configured_schedule() {
        use biscuit_sim::fault::{FaultConfig, FaultPlan, FaultSite};

        fn timed_dma(plan: Option<FaultPlan>) -> u64 {
            let sim = Simulation::new(0);
            let link = Arc::new(HostLink::new(LinkConfig {
                host_submit: SimDuration::ZERO,
                device_command: SimDuration::ZERO,
                host_complete: SimDuration::ZERO,
                ..LinkConfig::pcie_gen3_x4()
            }));
            if let Some(p) = &plan {
                link.set_fault_plan(p);
            }
            let l = Arc::clone(&link);
            let done = Arc::new(AtomicU64::new(0));
            let d = Arc::clone(&done);
            sim.spawn("dma", move |ctx| {
                let end = l.enqueue_dma_to_host(ctx, ctx.now(), 1 << 20);
                ctx.sleep_until(end);
                d.store(ctx.now().as_nanos(), Ordering::SeqCst);
            });
            sim.run().assert_quiescent();
            done.load(Ordering::SeqCst)
        }

        let base = SimDuration::from_micros(10);
        let fault_cfg = FaultConfig {
            link_corrupt_rate: 1.0,
            link_max_replays: 3,
            link_backoff_base: base,
            ..FaultConfig::default()
        };
        // An identically-seeded shadow plan predicts the drawn replay count.
        let shadow = FaultPlan::seeded(99, fault_cfg.clone());
        let n = shadow.link_corrupt_attempts(FaultSite::LinkToHost);
        assert!((1..=3).contains(&n));

        let clean_ns = timed_dma(None);
        let plan = FaultPlan::seeded(99, fault_cfg);
        let faulty_ns = timed_dma(Some(plan.clone()));

        // n corrupted attempts: each replay waits base×2^(k−1) and then
        // re-transfers the full payload on the idle shaper.
        let mut expected_ns = clean_ns;
        for k in 0..n {
            expected_ns += (base * (1u64 << k)).as_nanos() + clean_ns;
        }
        assert_eq!(
            faulty_ns, expected_ns,
            "virtual-time replay schedule diverged (n={n})"
        );
        assert_eq!(plan.injected_at(FaultSite::LinkToHost), 1);
        assert_eq!(plan.recovered_at(FaultSite::LinkToHost), 1);
    }

    #[test]
    fn zero_rate_fault_plan_leaves_link_timing_untouched() {
        use biscuit_sim::fault::{FaultConfig, FaultPlan};

        fn timed_dma(plan: Option<FaultPlan>) -> u64 {
            let sim = Simulation::new(0);
            let link = Arc::new(HostLink::new(LinkConfig::pcie_gen3_x4()));
            if let Some(p) = &plan {
                link.set_fault_plan(p);
            }
            let l = Arc::clone(&link);
            let done = Arc::new(AtomicU64::new(0));
            let d = Arc::clone(&done);
            sim.spawn("dma", move |ctx| {
                let end = l.enqueue_dma_to_host(ctx, ctx.now(), 1 << 16);
                ctx.sleep_until(end);
                let end = l.enqueue_dma_to_device(ctx, ctx.now(), 1 << 16);
                ctx.sleep_until(end);
                d.store(ctx.now().as_nanos(), Ordering::SeqCst);
            });
            sim.run().assert_quiescent();
            done.load(Ordering::SeqCst)
        }

        let clean = timed_dma(None);
        assert_eq!(clean, timed_dma(Some(FaultPlan::none())));
        assert_eq!(
            clean,
            timed_dma(Some(FaultPlan::seeded(1, FaultConfig::default())))
        );
    }

    #[test]
    fn queue_depth_limits_outstanding_commands() {
        let sim = Simulation::new(0);
        let link = Arc::new(HostLink::new(LinkConfig {
            queue_depth: 2,
            ..LinkConfig::pcie_gen3_x4()
        }));
        let order = Arc::new(biscuit_sim::sync::Mutex::new(Vec::new()));
        for i in 0..4 {
            let l = Arc::clone(&link);
            let order = Arc::clone(&order);
            sim.spawn(format!("cmd{i}"), move |ctx| {
                l.with_slot(ctx, || {
                    order.lock().push((i, ctx.now().as_micros()));
                    ctx.sleep(SimDuration::from_micros(100));
                });
            });
        }
        sim.run().assert_quiescent();
        let o = order.lock();
        // First two start immediately; the rest wait for releases.
        assert_eq!(o[0].1, 0);
        assert_eq!(o[1].1, 0);
        assert!(o[2].1 >= 100);
        assert!(o[3].1 >= 100);
    }
}
