//! Timed write-path tests: program timing, GC stalls charged to the
//! triggering writer, and read-after-timed-write consistency.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use biscuit_sim::sync::Mutex;

use crate::{DeviceError, PageBuf, SsdConfig, SsdDevice};
use biscuit_proto::Buf;
use biscuit_sim::time::{SimDuration, SimTime};
use biscuit_sim::{Ctx, Simulation};

fn tiny_config() -> SsdConfig {
    // Tight geometry: physical space barely exceeds logical, so sustained
    // overwrites must trigger garbage collection.
    SsdConfig {
        logical_capacity: 16 << 20,
        channels: 2,
        ways: 2,
        pages_per_block: 32,
        ..SsdConfig::paper_default()
    }
}

fn tiny_device() -> Arc<SsdDevice> {
    Arc::new(SsdDevice::new(tiny_config()))
}

/// `bytes` zero-padded to one whole device page.
fn page_of(dev: &SsdDevice, bytes: &[u8]) -> PageBuf {
    let mut page = vec![0u8; dev.config().page_size];
    page[..bytes.len()].copy_from_slice(bytes);
    Buf::from_vec(page)
}

/// Runs `body` as the only fiber and returns the virtual time it took.
fn timed(body: impl FnOnce(&Ctx) + Send + 'static) -> SimDuration {
    let sim = Simulation::new(0);
    sim.spawn("w", body);
    let report = sim.run();
    report.assert_quiescent();
    report.end_time - SimTime::ZERO
}

#[test]
fn single_write_costs_exactly_overhead_program_and_transfer() {
    let dev = tiny_device();
    let cfg = dev.config().clone();
    let took = timed(move |ctx| {
        let page = page_of(&dev, b"payload");
        dev.write_bufs_async(ctx, &[(0, page)], 1).unwrap();
    });
    let transfer = SimDuration::for_bytes(cfg.page_size as u64, cfg.channel_rate);
    assert_eq!(took, cfg.request_overhead + cfg.t_program + transfer);
}

#[test]
fn wrong_sized_page_buffers_are_rejected() {
    let dev = tiny_device();
    let ps = dev.config().page_size;
    timed(move |ctx| {
        for got in [ps - 1, 0, ps + 1] {
            let err = dev
                .write_bufs_async(ctx, &[(0, Buf::from_vec(vec![7u8; got]))], 4)
                .unwrap_err();
            assert_eq!(err, DeviceError::BadWriteSize { got, page_size: ps });
        }
        assert_eq!(dev.stats().pages_written.load(Ordering::Relaxed), 0);
        assert!(dev.peek_page(0).unwrap().iter().all(|&b| b == 0));
    });
}

#[test]
fn timed_writes_read_back() {
    let dev = tiny_device();
    timed(move |ctx| {
        let pages: Vec<(u64, PageBuf)> = (0..32u64)
            .map(|i| (i, page_of(&dev, format!("page-{i}").as_bytes())))
            .collect();
        dev.write_bufs_async(ctx, &pages, 4).unwrap();
        let got = dev.read_pages(ctx, &(0..32).collect::<Vec<_>>()).unwrap();
        for (i, page) in got.iter().enumerate() {
            let expect = format!("page-{i}");
            assert_eq!(&page[..expect.len()], expect.as_bytes());
        }
    });
}

/// Six fill rounds of one-page writes; returns each write's latency in
/// microseconds and the time the last one completed.
fn overwrite_rounds(dev: &Arc<SsdDevice>, logical_pages: u64) -> (Vec<u64>, SimDuration) {
    let d = Arc::clone(dev);
    let write_times: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let wt = Arc::clone(&write_times);
    let took = timed(move |ctx| {
        for round in 0..6u64 {
            for lpn in 0..logical_pages {
                let t0 = ctx.now();
                let page = page_of(&d, &[round as u8; 64]);
                d.write_bufs_async(ctx, &[(lpn, page)], 1).unwrap();
                wt.lock().push((ctx.now() - t0).as_micros());
            }
        }
    });
    let times = write_times.lock().clone();
    (times, took)
}

#[test]
fn sustained_overwrites_trigger_gc_and_charge_the_writer() {
    let dev = tiny_device();
    let logical_pages = dev.config().logical_pages();
    let (times, took) = overwrite_rounds(&dev, logical_pages);
    let (gc_runs, relocated) = dev.gc_stats();
    assert!(gc_runs > 0, "GC must have run");
    assert!(relocated > 0, "GC must have relocated valid pages");
    // Some writes stalled behind GC (erase takes ~4ms): spot the outliers.
    let max = *times.iter().max().unwrap();
    let min = *times.iter().min().unwrap();
    assert!(
        max > min * 3,
        "GC-stalled writes should be visible: min {min}us max {max}us"
    );
    // The same writes on a drive with room to spare never collect, and the
    // writer finishes strictly earlier: the GC time was charged to it.
    let roomy = Arc::new(SsdDevice::new(SsdConfig {
        over_provisioning: 6.0,
        ..tiny_config()
    }));
    let (_, roomy_took) = overwrite_rounds(&roomy, logical_pages);
    assert_eq!(roomy.gc_stats().0, 0, "7x physical space needs no GC");
    assert!(
        took > roomy_took,
        "GC must cost the writer time: {took} vs {roomy_took}"
    );
}

#[test]
fn deep_write_queue_pipelines_faster_than_depth_one() {
    let run = |queue_depth: usize| {
        let dev = Arc::new(SsdDevice::new(SsdConfig {
            logical_capacity: 64 << 20,
            ..SsdConfig::paper_default()
        }));
        timed(move |ctx| {
            let pages: Vec<(u64, PageBuf)> = (0..64u64)
                .map(|i| (i, page_of(&dev, &[i as u8; 512])))
                .collect();
            dev.write_bufs_async(ctx, &pages, queue_depth).unwrap();
            // Data landed correctly.
            for (lpn, page) in &pages {
                assert_eq!(dev.peek_page(*lpn).unwrap(), *page);
            }
        })
    };
    // One program at a time against sixteen spread across the dies.
    let (serial, deep) = (run(1), run(16));
    assert!(
        deep * 4 < serial,
        "depth 16 ({deep}) should be well under depth 1 ({serial})"
    );
}
