//! Unit costs: the layers' public functions replayed on a workload's own
//! inputs, outside any simulation, in the same pinned child. A unit cost
//! times the count from the traced iterations is the layer's estimated
//! share of `wall_ms` (`_est_ms`).

use std::hint::black_box;
use std::time::{Duration, Instant};

use biscuit_apps::weblog::{WeblogGen, NEEDLE};
use biscuit_host::BoyerMoore;
use biscuit_sim::fuse::{ChainDesc, StageKind};
use biscuit_sim::time::SimDuration;
use biscuit_sim::Simulation;
use biscuit_ssd::pattern::{PatternLimits, PatternSet};
use biscuit_ssd::{PageGen, SsdConfig};

use crate::harness::Layers;

/// Wall nanoseconds per item of the fastest `sweep`, one pass over `items`
/// inputs: the fastest, like `wall_ms`, so that unit cost x count compares
/// with it. Sweeps repeat until 40 ms are measured, five times at least.
pub fn ns_per_item(items: usize, smoke: bool, mut sweep: impl FnMut()) -> f64 {
    let budget = Duration::from_millis(if smoke { 1 } else { 40 });
    let started = Instant::now();
    let (mut sweeps, mut fastest) = (0, f64::INFINITY);
    while sweeps < 5 || started.elapsed() < budget {
        let t0 = Instant::now();
        sweep();
        fastest = fastest.min(t0.elapsed().as_nanos() as f64 / items as f64);
        sweeps += 1;
    }
    fastest
}

/// Wall nanoseconds per kernel event of one fiber run by `body`.
fn ns_per_event(fuse: bool, body: impl FnOnce(&biscuit_sim::Ctx) + Send + 'static) -> f64 {
    let sim = Simulation::new(0);
    sim.set_fuse(fuse);
    let t0 = Instant::now();
    sim.spawn("replay", body);
    let report = sim.run();
    let wall = t0.elapsed();
    report.assert_quiescent();
    wall.as_nanos() as f64 / report.events_processed.max(1) as f64
}

/// `sim.kernel` and `sim.fuse`: a sleep loop (every event a real fiber
/// hand-off) and a three-stage chain loop with fusion on and off. The
/// dispatch estimate prices real hand-offs at the sleep-loop cost and the
/// remaining, fused, events at the fused-hop cost.
pub fn kernel_costs(layers: &mut Layers, smoke: bool) {
    let events: u64 = if smoke { 2_000 } else { 100_000 };
    let sleep_loop = move |ctx: &biscuit_sim::Ctx| {
        for _ in 0..events {
            ctx.sleep(SimDuration::from_nanos(100));
        }
    };
    let dispatch = (0..3)
        .map(|_| ns_per_event(true, sleep_loop))
        .fold(f64::INFINITY, f64::min);
    let chains = events / 3;
    let chain_loop = move |ctx: &biscuit_sim::Ctx| {
        let stage = SimDuration::from_nanos(100);
        for _ in 0..chains {
            let t = ctx.now();
            let mut chain = ChainDesc::new();
            chain.push(StageKind::NandSense, t, t + stage);
            chain.push(StageKind::BusTransfer, t + stage, t + stage * 2);
            chain.push(StageKind::MatcherScan, t + stage * 2, t + stage * 3);
            ctx.run_chain(chain);
        }
    };
    let fused = ns_per_event(true, chain_loop);
    let unfused = ns_per_event(false, chain_loop);
    layers.set("sim.kernel.ns_per_event", dispatch);
    layers.set("sim.fuse.fused_ns_per_hop", fused);
    layers.set("sim.fuse.unfused_ns_per_hop", unfused);
    let switches = layers.get("sim.kernel.fiber_switches_n");
    let inline = (layers.get("sim.kernel.events_n") - switches).max(0.0);
    layers.set(
        "sim.kernel.dispatch_est_ms",
        (switches * dispatch + inline * fused) / 1e6,
    );
}

/// `apps.weblog`, `ssd.pattern`, `host.search` on pages of the workload's
/// own corpus: page synthesis, the matcher's `matches` + `find_all`, and
/// the host's Boyer-Moore count.
pub fn weblog_costs(layers: &mut Layers, gen: &WeblogGen, file_pages: u64, smoke: bool) {
    let cfg = SsdConfig::paper_default();
    let page_size = cfg.page_size;
    let sample = file_pages.min(if smoke { 16 } else { 256 });
    let lpns: Vec<u64> = (0..sample).map(|i| i * file_pages / sample).collect();
    let synth_ns = ns_per_item(lpns.len(), smoke, || {
        for &lpn in &lpns {
            black_box(gen.generate(lpn, page_size));
        }
    });
    let pages: Vec<Vec<u8>> = lpns
        .iter()
        .map(|&lpn| gen.generate(lpn, page_size))
        .collect();
    let limits = PatternLimits {
        max_keys: cfg.pm_max_keys,
        max_key_len: cfg.pm_max_key_len,
    };
    let pattern = PatternSet::new(vec![NEEDLE.as_bytes().to_vec()], limits).expect("needle fits");
    let scan_ns = ns_per_item(pages.len(), smoke, || {
        for page in &pages {
            if pattern.matches(black_box(page)) {
                black_box(pattern.find_all(page));
            }
        }
    });
    let bm = BoyerMoore::new(NEEDLE.as_bytes());
    let bm_ns = ns_per_item(pages.len(), smoke, || {
        for page in &pages {
            black_box(bm.count(black_box(page)));
        }
    });

    let read = layers.get("ssd.device.pages_read_n");
    let scanned = layers.get("ssd.device.pages_scanned_n");
    let misses = layers.get("proto.buf.copied_nand_synth_n") / page_size as f64;
    layers.set("ssd.device.synth_miss_n", misses);
    if read + scanned > 0.0 {
        layers.set(
            "ssd.device.synth_hit_pct",
            100.0 * (1.0 - misses / (read + scanned)),
        );
    }
    layers.set("apps.weblog.synth_us_per_page", synth_ns / 1e3);
    layers.set("apps.weblog.synth_est_ms", synth_ns * misses / 1e6);
    layers.set("ssd.pattern.scan_ns_per_page", scan_ns);
    layers.set("ssd.pattern.scan_est_ms", scan_ns * scanned / 1e6);
    layers.set("host.search.bm_ns_per_page", bm_ns);
    layers.set("host.search.bm_est_ms", bm_ns * read / 1e6);
}
