//! `grep_hot` and `grep_cold`: Table V string search over one weblog file,
//! once on the host (Conv) and then on the device (Biscuit), host idle.
//! The two differ only in working-set size relative to the device's
//! synthetic-page cache: `hot` fits it, `cold` is 1.5x it, so FIFO eviction
//! misses on every page and page synthesis, not the matcher, does the work.

use std::sync::Arc;
use std::time::Instant;

use biscuit_apps::search::{biscuit_grep, conv_grep, load_grep_module};
use biscuit_apps::weblog::{WeblogGen, NEEDLE};
use biscuit_core::ModuleId;
use biscuit_fs::File;
use biscuit_host::HostLoad;
use biscuit_sim::{Ctx, Tracer};
use biscuit_ssd::SsdConfig;

use super::{grep_passes, needle_every, Platform};
use crate::harness::{Iter, Layers, Telemetry, Workload};
use crate::stats::splitmix;
use crate::{replay, spans};

pub struct Grep {
    plat: Platform,
    file: File,
    gen: WeblogGen,
    pages: u64,
    ndp_passes: usize,
    /// `WeblogGen::count_needles` over the whole file.
    expected: u64,
    module: Option<ModuleId>,
    smoke: bool,
}

impl Grep {
    pub fn new(seed: u64, hot: bool, smoke: bool) -> Grep {
        // (file pages, synth-cache pages, NDP passes per iteration)
        let (pages, cache_pages, ndp_passes) = match (hot, smoke) {
            (true, false) => (3072, 4096, 4),
            (false, false) => (6144, 4096, 1),
            (true, true) => (96, 128, 4),
            (false, true) => (96, 64, 1),
        };
        let plat = Platform::new(SsdConfig {
            logical_capacity: 1 << 30,
            synth_cache_pages: cache_pages,
            ..SsdConfig::paper_default()
        });
        let page_size = plat.ssd.device().config().page_size;
        let gen = WeblogGen::new(splitmix(seed), needle_every(seed));
        let file = spans::within("create_synthetic", || {
            plat.ssd
                .fs()
                .create_synthetic("weblog", pages * page_size as u64, Arc::new(gen.clone()))
                .expect("synthetic weblog")
        });
        let expected = gen.count_needles(pages, page_size);
        Grep {
            plat,
            file: file.read_only(),
            gen,
            pages,
            ndp_passes,
            expected,
            module: None,
            smoke,
        }
    }
}

impl Workload for Grep {
    fn prepare(&mut self, ctx: &Ctx) {
        let _span = spans::enter("module_load");
        self.module = Some(load_grep_module(ctx, &self.plat.ssd).expect("grep module"));
    }

    fn iterate(&mut self, ctx: &Ctx, _tele: Option<&mut Telemetry>) -> Iter {
        let needle = NEEDLE.as_bytes();
        let module = self.module.expect("prepared");
        let (w0, v0) = (Instant::now(), ctx.now());
        let passes = grep_passes(
            ctx,
            ("conv_grep", "biscuit_grep"),
            self.ndp_passes,
            self.expected,
            || {
                conv_grep(ctx, &self.plat.conv, &self.file, needle, HostLoad::IDLE)
                    .expect("conv grep")
            },
            || biscuit_grep(ctx, &self.plat.ssd, module, &self.file, needle).expect("biscuit grep"),
        );
        Iter {
            wall: w0.elapsed(),
            virt_ps: (ctx.now() - v0).as_ps(),
            ..passes
        }
    }

    fn attach(&self, ctx: &Ctx, tracer: &Tracer) {
        self.plat.attach(ctx, tracer);
    }

    fn replay(&mut self, layers: &mut Layers) {
        replay::weblog_costs(layers, &self.gen, self.pages, self.smoke);
    }

    fn frame_pool(&self) -> (u64, u64) {
        self.plat.frame_pool()
    }

    /// Table V, host idle: 12.2 s Conv over 2.3 s Biscuit.
    fn paper_speedup(&self) -> Option<f64> {
        Some(12.2 / 2.3)
    }
}
