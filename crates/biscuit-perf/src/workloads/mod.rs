//! The six workloads. Each builds its inputs from `--seed` in `new`, keeps
//! them for the replays, and does identical simulated work every iteration.

mod array;
mod grep;
mod qos;
mod tpch;
mod write_gc;

use std::sync::Arc;

use biscuit_core::{CoreConfig, Ssd};
use biscuit_fs::Fs;
use biscuit_host::{ConvIo, HostConfig};
use biscuit_sim::{Ctx, Tracer};
use biscuit_ssd::{SsdConfig, SsdDevice};

use crate::harness::{operation, Iter, Workload};
use crate::stats::splitmix;

pub use array::par_probe;

/// A host and a Biscuit SSD sharing one PCIe link.
pub struct Platform {
    pub ssd: Ssd,
    pub conv: ConvIo,
}

impl Platform {
    pub fn new(cfg: SsdConfig) -> Platform {
        let dev = Arc::new(SsdDevice::new(cfg));
        let ssd = Ssd::new(Fs::format(dev), CoreConfig::paper_default());
        let conv = ConvIo::new(
            Arc::clone(ssd.device()),
            Arc::clone(ssd.link()),
            HostConfig::paper_default(),
        );
        Platform { ssd, conv }
    }

    /// Frames the device's pool has allocated and recycled so far.
    pub fn frame_pool(&self) -> (u64, u64) {
        let pool = self.ssd.device().frame_pool();
        (pool.frames_allocated(), pool.frames_recycled())
    }

    /// Attaches all three observers of the host simulation.
    pub fn attach(&self, ctx: &Ctx, tracer: &Tracer) {
        self.ssd.attach_metrics(ctx.metrics());
        self.ssd.attach_tracer(tracer);
        self.ssd.attach_qprof(ctx.qprof());
    }
}

/// Needle rarity of a seeded weblog: one line in 4000..=6000, so the share
/// of matching pages (and with it every NDP pass's virtual time) follows
/// the seed.
pub fn needle_every(seed: u64) -> u64 {
    4000 + splitmix(seed ^ 0x6e65_6564_6c65) % 2001
}

/// One Conv grep pass, then `ndp_passes` Biscuit passes, each a profiled
/// operation named by `spans`; every pass must count `expected` needles.
/// Fills everything of the [`Iter`] but wall and virtual time.
pub fn grep_passes(
    ctx: &Ctx,
    spans: (&'static str, &'static str),
    ndp_passes: usize,
    expected: u64,
    conv: impl FnOnce() -> u64,
    mut ndp: impl FnMut() -> u64,
) -> Iter {
    let (count, conv_ps) = operation(ctx, spans.0, conv);
    let mut failed = u64::from(count != expected);
    let mut latencies_ps = Vec::with_capacity(ndp_passes);
    for _ in 0..ndp_passes {
        let (count, ps) = operation(ctx, spans.1, &mut ndp);
        failed += u64::from(count != expected);
        latencies_ps.push(ps);
    }
    let attempted = 1 + ndp_passes as u64;
    Iter {
        attempted,
        failed,
        conv_ps,
        // Per pass, like the paper's Table V.
        ndp_ps: latencies_ps.iter().sum::<u64>() / ndp_passes as u64,
        latencies_ps,
        offered: attempted,
        accepted: attempted,
        ..Iter::default()
    }
}

pub fn build(name: &str, seed: u64, smoke: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "grep_hot" => Box::new(grep::Grep::new(seed, true, smoke)),
        "grep_cold" => Box::new(grep::Grep::new(seed, false, smoke)),
        "tpch_q" => Box::new(tpch::Tpch::new(seed, smoke)),
        "qos_soak" => Box::new(qos::QosSoak::new(seed, smoke)),
        "write_gc" => Box::new(write_gc::WriteGc::new(seed, smoke)),
        "array_scan" => Box::new(array::ArrayScan::new(seed, smoke)),
        _ => return None,
    })
}
