//! Golden digests of the flash datapath.
//!
//! One scripted fiber drives every public entry of the read, scan and write
//! paths on a four-die drive small enough that a few overwrite rounds reach
//! the GC watermark, with trace, metrics and query profiling on — and once
//! more with all three off, which must not move the clock, the event count
//! or a returned byte. The observed run also checks that most of its sleeps
//! ran inline, without a fiber hand-off. The
//! constants below were recorded at the commit *before* the datapath was
//! folded onto one write path, one queue-depth window and one observation
//! point, so any edit that moves a virtual-time number, reorders or drops a
//! trace event, or miscounts a metric fails here — in tier-1, not only in
//! the benchmark's `virt_digest`.
//!
//! A legitimate model change re-records the constants: run with
//! `--nocapture` and copy the printed `Golden { .. }` values. To see *what*
//! moved, diff the exported JSON a failing run leaves in the directory its
//! message names against the same run's at the other commit.

use std::sync::Arc;

use biscuit::sim::sync::Mutex;

use biscuit::core::{CoreConfig, Ssd};
use biscuit::fs::{Fs, Mode};
use biscuit::host::{ConvIo, HostConfig, HostLoad};
use biscuit::sim::fault::{FaultConfig, FaultPlan, FaultSite};
use biscuit::sim::{Simulation, TraceConfig};
use biscuit::ssd::pattern::PatternSet;
use biscuit::ssd::{SsdConfig, SsdDevice};

/// What one scripted run exports, each text artifact folded to 64 bits.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    end_time_ps: u64,
    events: u64,
    trace: u64,
    metrics: u64,
    profiles: u64,
    /// Every byte the reads returned, in script order.
    data: u64,
}

const CLEAN: Golden = Golden {
    end_time_ps: 0x7e_d3a6_613b,
    events: 0x2f3,
    trace: 0xc9bc_ed5b_2245_0623,
    metrics: 0x1851_56f7_430a_96b7,
    profiles: 0xf25c_968b_2b90_66b8,
    data: 0xfd4f_e491_3f55_2765,
};

const FAULTED: Golden = Golden {
    end_time_ps: 0x89_6930_ba59,
    events: 0x2f2,
    trace: 0x9157_4c77_d47f_6716,
    metrics: 0x9211_7960_599d_1854,
    profiles: 0x44f0_73c0_9e49_0d08,
    data: 0xfd4f_e491_3f55_2765,
};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// File content that differs per page and per `salt`, with a needle planted
/// in every fifth page.
fn payload(salt: u64, len: usize, page: usize) -> Vec<u8> {
    let mut v: Vec<u8> = (0..len as u64)
        .map(|i| ((i * 31 + i / page as u64 * 7 + salt * 13) % 251) as u8)
        .collect();
    for p in (0..len / page).step_by(5) {
        let at = p * page + 100 + p;
        v[at..at + 6].copy_from_slice(b"needle");
    }
    v
}

/// The 2-channel x 2-way drive of `biscuit-ssd/tests/unit/write_path.rs`: 1024
/// logical pages over 1152 physical ones.
fn tiny_drive() -> (Ssd, ConvIo) {
    let device = Arc::new(SsdDevice::new(SsdConfig {
        logical_capacity: 16 << 20,
        channels: 2,
        ways: 2,
        pages_per_block: 32,
        ..SsdConfig::paper_default()
    }));
    let ssd = Ssd::new(Fs::format(device), CoreConfig::paper_default());
    let conv = ConvIo::new(
        Arc::clone(ssd.device()),
        Arc::clone(ssd.link()),
        HostConfig::paper_default(),
    );
    (ssd, conv)
}

/// Runs the script and checks its digests against `want`; on a mismatch the
/// three text exports are left in the temp directory, since a digest says
/// *that* an export moved and only the text says where. An unobserved run
/// (`observe` false) exports nothing and is held to the same end time,
/// event count and data digest: observation is pure.
fn check(observe: bool, plan: Option<&FaultPlan>, want: &Golden) {
    let (ssd, conv) = tiny_drive();
    let ps = ssd.device().config().page_size;
    let fs = ssd.fs().clone();
    fs.create("data").unwrap();
    fs.append_untimed("data", &payload(1, 40 * ps + 1000, ps))
        .unwrap();
    fs.create("big").unwrap();
    fs.append_untimed("big", &payload(2, 600 * ps, ps)).unwrap();

    let sim = Simulation::new(22);
    if observe {
        sim.enable_trace(TraceConfig::default());
        sim.enable_metrics();
        sim.enable_qprof();
    }
    if let Some(p) = plan {
        ssd.attach_fault_plan(p);
    }

    let data_digest = Arc::new(Mutex::new(FNV_OFFSET));
    let dd = Arc::clone(&data_digest);
    sim.spawn("script", move |ctx| {
        let psz = ps as u64;
        let fold = |bytes: &[u8]| {
            let mut h = dd.lock();
            *h = fnv1a(*h, bytes);
        };
        let query = ctx.qprof().begin_query(ctx, 0);
        let data = fs.open("data", Mode::ReadOnly).unwrap();

        // Synchronous reads: page-aligned, unaligned 4 KiB, zero-length.
        fold(&data.read_at(ctx, 0, 4 * psz).unwrap());
        fold(&data.read_at(ctx, 5 * psz + 100, 4096).unwrap());
        fold(&data.read_at(ctx, 7, 0).unwrap());
        // Asynchronous read and matcher scan, windows that fill and drain.
        fold(&data.read_at_async(ctx, 1000, 20 * psz, 4, 3).unwrap());
        let pat = PatternSet::from_strs(&["needle"]).unwrap();
        for (page_idx, buf) in data.scan(ctx, &pat, 4, 2).unwrap() {
            fold(&page_idx.to_le_bytes());
            fold(&buf);
        }

        // Positional writes: full-cover, head-partial RMW, extend past EOF.
        let mut w = fs.create("w").unwrap();
        w.write_at(ctx, 0, &payload(3, 8 * ps, ps)).unwrap();
        w.write_at(ctx, psz / 2, &payload(4, 100, ps)).unwrap();
        w.write_at(ctx, 11 * psz + 17, &payload(5, ps + 300, ps))
            .unwrap();
        // Buffered writes: flush, then sync (flush + metadata + checkpoint).
        w.write_async(&payload(6, 2 * ps + ps / 2, ps)).unwrap();
        w.flush(ctx).unwrap();
        w.write_async(&payload(7, 100, ps)).unwrap();
        w.sync(ctx).unwrap();
        let w_len = w.len();
        fold(&w.read_at(ctx, 0, w_len).unwrap());

        // The Conv path: one synchronous pread, one windowed page read.
        let load = HostLoad::new(6);
        fold(&conv.read(ctx, &data, 777, 50_000, load).unwrap());
        for buf in conv
            .read_file_pages_async(ctx, &data, 2, 17, 4, 3, load)
            .unwrap()
        {
            fold(&buf);
        }

        // Scattered overwrites (three and a half pages into four-page
        // slots, so each also read-modify-writes its tail) until the FTL
        // has to collect blocks that still hold valid pages.
        let big = fs.open("big", Mode::ReadWrite).unwrap();
        for i in 0..330u64 {
            let slot = (i * 37 + i / 150 * 11) % 150;
            let bytes = payload(10 + i, 3 * ps + ps / 2, ps);
            big.write_at(ctx, slot * 4 * psz, &bytes).unwrap();
        }
        fold(&big.read_at_async(ctx, 0, 600 * psz, 16, 8).unwrap());

        if let Some(sc) = query {
            ctx.qprof().end_query(ctx, sc);
        }
    });
    let report = sim.run();
    report.assert_quiescent();
    if let Some(p) = plan {
        assert!(p.injected_at(FaultSite::NandRead) > 1, "retries must fire");
    }
    // The unobserved run is held to the observed one's clock, events and
    // bytes below, so it did the same GC and retired the same blocks.
    if observe {
        let counted = |name| report.metrics.counter_sum(name);
        assert!(
            counted("ftl_gc_relocated_pages_total") > 0,
            "GC must relocate valid pages"
        );
        if plan.is_some() {
            assert!(
                counted("ftl_bad_blocks_total") >= 1,
                "one read must be uncorrectable"
            );
        }
    }
    let what = if plan.is_some() { "faulted" } else { "clean" };
    let switches = report.metrics.counter_sum("sim_context_switches_total");
    let hand_offs = report.metrics.counter_sum("sim_fiber_switches_total");
    // The constants were recorded without the kernel's three dispatch
    // meters, so their series are dropped before the metrics are digested.
    let mut metrics = report.metrics;
    metrics.samples.retain(|s| {
        ![
            "sim_events_heap_total",
            "sim_fiber_switches_total",
            "sim_fiber_threads_reused_total",
        ]
        .contains(&s.name.as_str())
    });
    let exports = [
        ("trace", report.trace.to_chrome_json()),
        ("metrics", metrics.to_json()),
        ("profiles", report.profiles.to_json()),
    ];
    let digest = |i: usize| fnv1a(FNV_OFFSET, exports[i].1.as_bytes());
    let got = Golden {
        end_time_ps: report.end_time.as_ps(),
        events: report.events_processed,
        trace: digest(0),
        metrics: digest(1),
        profiles: digest(2),
        data: *data_digest.lock(),
    };
    if !observe {
        assert!(report.trace.is_empty() && metrics.is_empty() && report.profiles.is_empty());
        assert_eq!(
            (got.end_time_ps, got.events, got.data),
            (want.end_time_ps, want.events, want.data),
            "{what}: switching every observer off changed the run"
        );
        return;
    }
    assert!(
        hand_offs < switches,
        "{what}: datapath sleeps must run inline: {hand_offs} hand-offs of {switches} switches"
    );
    println!("{what}: {got:#x?}");
    if got != *want {
        let dir = std::env::temp_dir().join("datapath_golden");
        std::fs::create_dir_all(&dir).unwrap();
        for (kind, text) in &exports {
            std::fs::write(dir.join(format!("{what}-{kind}.json")), text).unwrap();
        }
        panic!(
            "{what}: got {got:#x?}, want {want:#x?}; exports are in {}",
            dir.display()
        );
    }
}

fn read_fault_plan() -> FaultPlan {
    FaultPlan::seeded(
        5,
        FaultConfig {
            nand_read_error_rate: 0.2,
            nand_uncorrectable_rate: 0.02,
            ..FaultConfig::default()
        },
    )
}

#[test]
fn clean_run_matches_the_recorded_digests() {
    check(true, None, &CLEAN);
    check(false, None, &CLEAN);
}

#[test]
fn faulted_run_matches_the_recorded_digests() {
    check(true, Some(&read_fault_plan()), &FAULTED);
    check(false, Some(&read_fault_plan()), &FAULTED);
}
