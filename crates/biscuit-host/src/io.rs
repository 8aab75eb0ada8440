//! The conventional ("Conv") host I/O path: NVMe reads over the PCIe link.
//!
//! This is the baseline every Biscuit experiment compares against. A read
//! pays, in order: host submission (driver + doorbell, inflated by memory
//! contention), device command handling, the internal flash read, the DMA
//! over the 3.2 GB/s link (per page, pipelined with the flash reads), and
//! host completion processing. Synchronous reads issue one request at a
//! time; asynchronous reads keep a queue-depth window in flight — the two
//! curves of Fig. 7.
//!
//! The Conv path shares its fault surface with the offload path: a
//! [`biscuit_sim::fault::FaultPlan`] armed on the device and link (via
//! `Ssd::attach_fault_plan` or directly) injects NAND read-retries,
//! bad-block retirement, core stalls, and link replays into these reads
//! too. All of those recoveries are data-transparent — only latency
//! changes — which the tests below pin down.

use std::collections::VecDeque;
use std::sync::Arc;

use biscuit_fs::{File, FsError, FsResult};
use biscuit_proto::HostLink;
use biscuit_sim::qprof::Stage;
use biscuit_sim::time::SimTime;
use biscuit_sim::Ctx;
use biscuit_ssd::SsdDevice;

use crate::config::{HostConfig, HostLoad};

/// The Conv read path, bound to a device and its link.
#[derive(Debug, Clone)]
pub struct ConvIo {
    device: Arc<SsdDevice>,
    link: Arc<HostLink>,
    cfg: HostConfig,
}

impl ConvIo {
    /// Creates a Conv I/O path over the given device and link.
    pub fn new(device: Arc<SsdDevice>, link: Arc<HostLink>, cfg: HostConfig) -> Self {
        ConvIo { device, link, cfg }
    }

    /// The host configuration in use.
    pub fn config(&self) -> &HostConfig {
        &self.cfg
    }

    /// The device behind the link.
    pub fn device(&self) -> &Arc<SsdDevice> {
        &self.device
    }

    fn charge_host(&self, ctx: &Ctx, base: biscuit_sim::time::SimDuration, load: HostLoad) {
        let scaled = biscuit_sim::time::SimDuration::from_secs_f64(
            base.as_secs_f64() * load.latency_slowdown(&self.cfg),
        );
        let t0 = ctx.now();
        ctx.sleep(scaled);
        ctx.qprof().record(Stage::HostCompute, t0, ctx.now(), 0, 0);
    }

    /// Issues one read request for `(lpn, bytes)` page spans and returns
    /// `(completion, data)` without waiting: internal page reads pipeline
    /// into per-page DMAs over the shared link.
    fn issue_request(
        &self,
        ctx: &Ctx,
        spans: &[(u64, usize)],
    ) -> FsResult<(SimTime, Vec<biscuit_ssd::PageBuf>)> {
        let dev_start = self.device.charge_request_overhead(ctx, ctx.now());
        let mut end = dev_start;
        let mut pages = Vec::with_capacity(spans.len());
        for &(lpn, bytes) in spans {
            let (internal_done, buf) = self
                .device
                .enqueue_read(ctx, dev_start, lpn, bytes)
                .map_err(FsError::Device)?;
            let dma_done = self
                .link
                .enqueue_dma_to_host(ctx, internal_done, bytes as u64);
            ctx.qprof()
                .record(Stage::Link, internal_done, dma_done, bytes as u64, 0);
            end = end.max(dma_done);
            pages.push(buf);
        }
        Ok((end, pages))
    }

    /// Synchronous `pread`: one request covering the byte range, blocking
    /// until the data is in host memory (paper Table III's Conv path).
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] for out-of-range or device failures.
    pub fn read(
        &self,
        ctx: &Ctx,
        file: &File,
        offset: u64,
        len: u64,
        load: HostLoad,
    ) -> FsResult<Vec<u8>> {
        let link_cfg = self.link.config().clone();
        let spans = file.page_spans(offset, len)?;
        let pages = self.link.with_slot(ctx, || -> FsResult<_> {
            self.charge_host(ctx, link_cfg.host_submit, load);
            ctx.sleep(link_cfg.device_command);
            let (done, pages) = self.issue_request(ctx, &spans)?;
            ctx.sleep_until(done);
            self.charge_host(ctx, link_cfg.host_complete, load);
            Ok(pages)
        })?;
        Ok(file.slice_pages(ctx, &pages, offset, len))
    }

    /// Asynchronous whole-page read of `page_count` file pages starting at
    /// file page `page_start`, with up to `queue_depth` requests of
    /// `request_pages` pages outstanding (Fig. 7's right panel, Conv
    /// series). Returns the raw page buffers without copying them into one
    /// contiguous allocation (table-scan fast path).
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] for out-of-range or device failures.
    ///
    /// # Panics
    ///
    /// Panics if `request_pages` or `queue_depth` is zero.
    #[allow(clippy::too_many_arguments)] // mirrors the flat pread-style API
    pub fn read_file_pages_async(
        &self,
        ctx: &Ctx,
        file: &File,
        page_start: u64,
        page_count: u64,
        request_pages: usize,
        queue_depth: usize,
        load: HostLoad,
    ) -> FsResult<Vec<biscuit_ssd::PageBuf>> {
        assert!(request_pages > 0 && queue_depth > 0);
        let link_cfg = self.link.config().clone();
        let page_size = self.device.config().page_size as u64;
        // Saturated, an overflowing page range stays out of bounds.
        let spans = file.page_spans(
            page_start.saturating_mul(page_size),
            page_count.saturating_mul(page_size),
        )?;
        let mut inflight: VecDeque<SimTime> = VecDeque::new();
        let mut all_pages = Vec::with_capacity(spans.len());
        for chunk in spans.chunks(request_pages) {
            if inflight.len() >= queue_depth {
                ctx.sleep_until(inflight.pop_front().expect("nonempty"));
                self.charge_host(ctx, link_cfg.host_complete, load);
            }
            self.charge_host(ctx, link_cfg.host_submit, load);
            ctx.sleep(link_cfg.device_command);
            let (done, pages) = self.issue_request(ctx, chunk)?;
            inflight.push_back(done);
            all_pages.extend(pages);
        }
        while let Some(done) = inflight.pop_front() {
            ctx.sleep_until(done);
            self.charge_host(ctx, link_cfg.host_complete, load);
        }
        Ok(all_pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biscuit_fs::{Fs, Mode};
    use biscuit_proto::LinkConfig;
    use biscuit_sim::Simulation;
    use biscuit_ssd::SsdConfig;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn setup() -> (Fs, ConvIo) {
        setup_armed(None)
    }

    /// A formatted volume whose device and link are armed with `plan`.
    fn setup_armed(plan: Option<&biscuit_sim::fault::FaultPlan>) -> (Fs, ConvIo) {
        let dev = Arc::new(SsdDevice::new(SsdConfig {
            logical_capacity: 256 << 20,
            ..SsdConfig::paper_default()
        }));
        let fs = Fs::format(Arc::clone(&dev));
        let link = Arc::new(HostLink::new(LinkConfig::pcie_gen3_x4()));
        if let Some(p) = plan {
            dev.set_fault_plan(p);
            link.set_fault_plan(p);
        }
        let io = ConvIo::new(dev, link, HostConfig::paper_default());
        (fs, io)
    }

    #[test]
    fn conv_4k_read_latency_matches_table3() {
        let (fs, io) = setup();
        fs.create("f").unwrap();
        fs.append_untimed("f", &vec![7u8; 16 << 10]).unwrap();
        let f = fs.open("f", Mode::ReadOnly).unwrap();
        let sim = Simulation::new(0);
        let t = Arc::new(AtomicU64::new(0));
        let t2 = Arc::clone(&t);
        sim.spawn("r", move |ctx| {
            let start = ctx.now();
            let data = io.read(ctx, &f, 0, 4096, HostLoad::IDLE).unwrap();
            assert_eq!(data.len(), 4096);
            t2.store((ctx.now() - start).as_nanos(), Ordering::SeqCst);
        });
        sim.run().assert_quiescent();
        let us = t.load(Ordering::SeqCst) as f64 / 1000.0;
        assert!(
            (88.0..92.5).contains(&us),
            "Conv 4KiB read took {us}us, paper: 90.0us"
        );
    }

    #[test]
    fn conv_bandwidth_capped_by_link() {
        let (fs, io) = setup();
        fs.create("big").unwrap();
        let total: u64 = 128 << 20;
        // Load via device bulk API to keep setup fast.
        fs.append_untimed("big", &vec![1u8; total as usize])
            .unwrap();
        let f = fs.open("big", Mode::ReadOnly).unwrap();
        let sim = Simulation::new(0);
        let t = Arc::new(AtomicU64::new(0));
        let t2 = Arc::clone(&t);
        sim.spawn("r", move |ctx| {
            let start = ctx.now();
            // 1 MiB requests, 32 outstanding.
            let pages = total / (16 << 10);
            io.read_file_pages_async(ctx, &f, 0, pages, 64, 32, HostLoad::IDLE)
                .unwrap();
            t2.store((ctx.now() - start).as_nanos(), Ordering::SeqCst);
        });
        sim.run().assert_quiescent();
        let secs = t.load(Ordering::SeqCst) as f64 / 1e9;
        let gbps = total as f64 / secs / 1e9;
        assert!(
            (2.9..3.25).contains(&gbps),
            "Conv async bandwidth {gbps} GB/s should approach but not exceed 3.2"
        );
    }

    #[test]
    fn load_inflates_per_request_costs() {
        let (fs, io) = setup();
        fs.create("f").unwrap();
        fs.append_untimed("f", &vec![0u8; 16 << 10]).unwrap();
        let f = fs.open("f", Mode::ReadOnly).unwrap();
        let sim = Simulation::new(0);
        let times = Arc::new(biscuit_sim::sync::Mutex::new(Vec::new()));
        let times2 = Arc::clone(&times);
        sim.spawn("r", move |ctx| {
            for threads in [0u32, 24] {
                let start = ctx.now();
                io.read(ctx, &f, 0, 4096, HostLoad::new(threads)).unwrap();
                times2.lock().push((ctx.now() - start).as_nanos());
            }
        });
        sim.run().assert_quiescent();
        let times = times.lock();
        assert!(
            times[1] > times[0],
            "loaded read {} should exceed idle read {}",
            times[1],
            times[0]
        );
    }

    #[test]
    fn read_returns_exact_bytes() {
        let (fs, io) = setup();
        fs.create("f").unwrap();
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 239) as u8).collect();
        fs.append_untimed("f", &data).unwrap();
        let f = fs.open("f", Mode::ReadOnly).unwrap();
        let sim = Simulation::new(0);
        sim.spawn("r", move |ctx| {
            let got = io.read(ctx, &f, 777, 50_000, HostLoad::IDLE).unwrap();
            assert_eq!(&got[..], &data[777..777 + 50_000]);
            // Windowed whole-page reads return the same bytes, page by page.
            let ps = 16 << 10;
            let pages = io
                .read_file_pages_async(ctx, &f, 1, 5, 2, 8, HostLoad::IDLE)
                .unwrap();
            let got: Vec<u8> = pages.iter().flat_map(|p| p.iter().copied()).collect();
            assert_eq!(&got[..], &data[ps..6 * ps]);
        });
        sim.run().assert_quiescent();
    }

    /// A page range whose byte offset overflows `u64` is out of bounds.
    #[test]
    fn overflowing_page_range_is_out_of_bounds() {
        let (fs, io) = setup();
        fs.create("f").unwrap();
        fs.append_untimed("f", &[5u8; 100]).unwrap();
        let f = fs.open("f", Mode::ReadOnly).unwrap();
        let sim = Simulation::new(0);
        sim.spawn("r", move |ctx| {
            for (start, count) in [(u64::MAX / 2, 1), (0, u64::MAX / 2)] {
                let err = io
                    .read_file_pages_async(ctx, &f, start, count, 1, 1, HostLoad::IDLE)
                    .unwrap_err();
                assert!(matches!(err, FsError::OutOfBounds { .. }), "{err}");
            }
            assert!(matches!(
                io.read(ctx, &f, u64::MAX, 2, HostLoad::IDLE),
                Err(FsError::OutOfBounds { .. })
            ));
        });
        sim.run().assert_quiescent();
    }

    /// Injected NAND and link faults slow a Conv read down but never change
    /// the bytes it returns.
    #[test]
    fn faulted_conv_read_is_slower_but_data_identical() {
        use biscuit_sim::fault::{FaultConfig, FaultPlan, FaultSite};

        let run = |plan: Option<FaultPlan>| -> (Vec<u8>, u64) {
            let (fs, io) = setup_armed(plan.as_ref());
            fs.create("f").unwrap();
            let data: Vec<u8> = (0..100_000u32).map(|i| (i % 241) as u8).collect();
            fs.append_untimed("f", &data).unwrap();
            let f = fs.open("f", Mode::ReadOnly).unwrap();
            let sim = Simulation::new(0);
            let out = Arc::new(biscuit_sim::sync::Mutex::new((Vec::new(), 0u64)));
            let o = Arc::clone(&out);
            sim.spawn("r", move |ctx| {
                let start = ctx.now();
                let got = io.read(ctx, &f, 0, 100_000, HostLoad::IDLE).unwrap();
                *o.lock() = (got, (ctx.now() - start).as_nanos());
            });
            sim.run().assert_quiescent();
            let r = out.lock().clone();
            r
        };

        let (clean, clean_ns) = run(None);
        let plan = FaultPlan::seeded(
            11,
            FaultConfig {
                nand_read_error_rate: 1.0,
                link_corrupt_rate: 1.0,
                core_stall_rate: 1.0,
                ..FaultConfig::default()
            },
        );
        let (faulty, faulty_ns) = run(Some(plan.clone()));
        assert_eq!(clean, faulty, "recoveries must be data-transparent");
        assert!(
            faulty_ns > clean_ns,
            "retries/replays/stalls must cost time: {faulty_ns} vs {clean_ns}"
        );
        assert!(plan.injected_at(FaultSite::NandRead) >= 1);
        for site in [
            FaultSite::NandRead,
            FaultSite::LinkToHost,
            FaultSite::LinkToDevice,
            FaultSite::CoreStall,
        ] {
            let injected = plan.injected_at(site);
            assert_eq!(plan.recovered_at(site), injected, "{site:?}");
        }
    }

    /// A failed read gives its NVMe command slot back: with two slots,
    /// three reads failing on a power-lost device must not park the read
    /// that follows recovery.
    #[test]
    fn failed_read_releases_its_command_slot() {
        use biscuit_sim::fault::{FaultConfig, FaultPlan};
        use biscuit_ssd::{DeviceError, FtlError};

        let dev = Arc::new(SsdDevice::new(SsdConfig {
            logical_capacity: 64 << 20,
            ..SsdConfig::paper_default()
        }));
        let fs = Fs::format(Arc::clone(&dev));
        let link = Arc::new(HostLink::new(LinkConfig {
            queue_depth: 2,
            ..LinkConfig::pcie_gen3_x4()
        }));
        let io = ConvIo::new(Arc::clone(&dev), link, HostConfig::paper_default());
        fs.create("f").unwrap();
        let data: Vec<u8> = (0..40_000u32).map(|i| (i % 233) as u8).collect();
        fs.append_untimed("f", &data).unwrap();
        // Armed only now, so the crash lands on the first timed write.
        dev.set_fault_plan(&FaultPlan::seeded(
            3,
            FaultConfig {
                power_losses: 1,
                power_loss_window: 1,
                ..FaultConfig::default()
            },
        ));
        let f = fs.open("f", Mode::ReadOnly).unwrap();
        let scratch = fs.create("scratch").unwrap();
        let sim = Simulation::new(0);
        sim.spawn("r", move |ctx| {
            assert!(scratch.write_at(ctx, 0, &[1u8; 100]).is_err());
            assert!(dev.is_dead());
            for _ in 0..3 {
                let err = io.read(ctx, &f, 100, 20_000, HostLoad::IDLE).unwrap_err();
                assert!(matches!(
                    err,
                    FsError::Device(DeviceError::Ftl(FtlError::PowerLoss { .. }))
                ));
            }
            dev.recover(ctx);
            let got = io.read(ctx, &f, 100, 20_000, HostLoad::IDLE).unwrap();
            assert_eq!(&got[..], &data[100..20_100]);
        });
        sim.run().assert_quiescent();
    }
}
