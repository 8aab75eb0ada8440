//! `array_scan`: the two scale-out paths on one pinned thread. In the host
//! simulation a 4-drive `SsdArray` greps its shards once over Conv and four
//! times through `ArrayGrep::run` (in-sim scatter + ordered merge port);
//! then `fleet_grep` runs a 4-shard PDES fleet under `ParMode::Single`, the
//! `sim.par` window driver without real parallelism, so its wall time
//! repeats. The threaded policy's speed-up is too noisy in a 2-CPU sandbox
//! to be end-to-end; [`par_probe`] measures it as a per-layer metric.

use std::sync::Arc;
use std::time::{Duration, Instant};

use biscuit_apps::search::{array_conv_grep, fleet_grep, fleet_grep_expected, ArrayGrep};
use biscuit_apps::weblog::{WeblogGen, NEEDLE};
use biscuit_core::{CoreConfig, Ssd};
use biscuit_fs::Fs;
use biscuit_host::array::ArrayConfig;
use biscuit_host::fleet::FleetConfig;
use biscuit_host::{HostConfig, HostLoad, SsdArray};
use biscuit_sim::par::{ParConfig, ParMode};
use biscuit_sim::time::SimDuration;
use biscuit_sim::{Ctx, TraceConfig, Tracer};
use biscuit_ssd::{SsdConfig, SsdDevice};

use super::{grep_passes, needle_every};
use crate::harness::{Iter, Layers, Telemetry, Workload};
use crate::json::Json;
use crate::stats::{median, quartiles, splitmix};
use crate::{replay, spans};

const DRIVES: usize = 4;
const SHARD_FILE: &str = "shard.log";
const NDP_PASSES: usize = 4;

/// Pages per fleet shard and passes over them.
struct FleetShape {
    shard_pages: u64,
    passes: usize,
}

impl FleetShape {
    fn pick(smoke: bool) -> FleetShape {
        if smoke {
            FleetShape {
                shard_pages: 32,
                passes: 2,
            }
        } else {
            FleetShape {
                shard_pages: 512,
                passes: 8,
            }
        }
    }
}

fn fleet_config(seed: u64, mode: ParMode, traced: bool) -> FleetConfig {
    FleetConfig {
        drives: DRIVES,
        seed,
        metrics: traced,
        trace: traced.then(TraceConfig::default),
        qprof: traced,
        par: ParConfig {
            mode,
            lookahead: Some(SimDuration::from_millis(1)),
        },
    }
}

pub struct ArrayScan {
    array: SsdArray,
    grep: Option<ArrayGrep>,
    gens: Vec<WeblogGen>,
    shard_pages: u64,
    /// Needles over all shards of the in-sim array.
    expected: u64,
    fleet: FleetShape,
    fleet_seed: u64,
    needle_every: u64,
    fleet_expected: u64,
    smoke: bool,
}

impl ArrayScan {
    pub fn new(seed: u64, smoke: bool) -> ArrayScan {
        let shard_pages = if smoke { 64 } else { 1024 };
        let needle_every = needle_every(seed);
        let page = SsdConfig::paper_default().page_size;
        let gens: Vec<WeblogGen> = (0..DRIVES as u64)
            .map(|i| WeblogGen::new(splitmix(seed).wrapping_add(i), needle_every))
            .collect();
        let drives = gens
            .iter()
            .map(|gen| {
                let fs = Fs::format(Arc::new(SsdDevice::new(SsdConfig {
                    logical_capacity: 64 << 20,
                    ..SsdConfig::paper_default()
                })));
                spans::within("create_synthetic", || {
                    fs.create_synthetic(
                        SHARD_FILE,
                        shard_pages * page as u64,
                        Arc::new(gen.clone()),
                    )
                })
                .expect("shard corpus");
                Ssd::new(fs, CoreConfig::paper_default())
            })
            .collect();
        let fleet = FleetShape::pick(smoke);
        ArrayScan {
            array: SsdArray::new(drives, HostConfig::paper_default(), ArrayConfig::default()),
            grep: None,
            expected: gens
                .iter()
                .map(|g| g.count_needles(shard_pages, page))
                .sum(),
            gens,
            shard_pages,
            fleet_expected: fleet_grep_expected(
                DRIVES,
                fleet.shard_pages,
                needle_every,
                fleet.passes,
            ),
            fleet,
            fleet_seed: splitmix(seed),
            needle_every,
            smoke,
        }
    }
}

impl Workload for ArrayScan {
    fn prepare(&mut self, ctx: &Ctx) {
        let _span = spans::enter("module_load");
        self.grep = Some(ArrayGrep::prepare(ctx, &self.array).expect("grep modules"));
    }

    fn iterate(&mut self, ctx: &Ctx, tele: Option<&mut Telemetry>) -> Iter {
        let needle = NEEDLE.as_bytes();
        let grep = self.grep.as_ref().expect("prepared");
        let (w0, v0) = (Instant::now(), ctx.now());
        let passes = grep_passes(
            ctx,
            ("array_conv_grep", "ArrayGrep::run"),
            NDP_PASSES,
            self.expected,
            || {
                array_conv_grep(ctx, &self.array, SHARD_FILE, needle, HostLoad::IDLE)
                    .expect("array conv grep")
            },
            || {
                grep.run(ctx, &self.array, SHARD_FILE, needle, HostLoad::IDLE)
                    .expect("array grep")
            },
        );
        let in_sim_ps = (ctx.now() - v0).as_ps();
        let cfg = fleet_config(self.fleet_seed, ParMode::Single, tele.is_some());
        let report = spans::within("fleet_grep", || {
            fleet_grep(
                &cfg,
                self.fleet.shard_pages,
                self.needle_every,
                self.fleet.passes,
            )
        });
        let wall = w0.elapsed();

        report.assert_quiescent();
        if let Some(tele) = tele {
            for shard in &report.reports {
                tele.absorb_report(shard);
            }
        }
        let fleet_total: u64 = report.items.iter().map(|(_, count)| count).sum();
        // One operation per in-sim pass, one for the fleet's merged total.
        let attempted = passes.attempted + 1;
        Iter {
            wall,
            virt_ps: in_sim_ps + report.end_time().as_ps(),
            attempted,
            failed: passes.failed + u64::from(fleet_total != self.fleet_expected),
            offered: attempted,
            accepted: attempted,
            ..passes
        }
    }

    fn attach(&self, ctx: &Ctx, tracer: &Tracer) {
        self.array.attach_metrics(ctx.metrics());
        self.array.attach_tracer(tracer);
        self.array.attach_qprof(ctx.qprof());
    }

    fn replay(&mut self, layers: &mut Layers) {
        replay::weblog_costs(layers, &self.gens[0], self.shard_pages, self.smoke);
    }
}

/// `sim.par`: the fleet half of the workload under `ParMode::Single` and
/// `ParMode::PerShard`, five alternating pairs, in an unpinned child so the
/// shard threads can use every CPU the sandbox has.
pub fn par_probe(seed: u64, smoke: bool) -> Json {
    let shape = FleetShape::pick(smoke);
    let every = needle_every(seed);
    let run = |mode: ParMode| -> Duration {
        let cfg = fleet_config(splitmix(seed), mode, false);
        let t0 = Instant::now();
        let report = fleet_grep(&cfg, shape.shard_pages, every, shape.passes);
        let wall = t0.elapsed();
        report.assert_quiescent();
        wall
    };
    let (mut single, mut pershard) = (Vec::new(), Vec::new());
    for _ in 0..if smoke { 1 } else { 5 } {
        single.push(run(ParMode::Single).as_secs_f64() * 1e3);
        pershard.push(run(ParMode::PerShard).as_secs_f64() * 1e3);
    }
    let speedups: Vec<f64> = single.iter().zip(&pershard).map(|(s, p)| s / p).collect();
    let (q1, q3) = quartiles(&speedups);
    Json::obj(vec![
        ("single_ms", Json::Num(median(&single))),
        ("pershard_ms", Json::Num(median(&pershard))),
        ("speedup", Json::Num(median(&speedups))),
        ("speedup_iqr", Json::Num(q3 - q1)),
        (
            "cpus",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
    ])
}
