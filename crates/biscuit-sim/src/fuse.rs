//! The engine's dispatch-path meters, and the benchmark's replay shim.
//!
//! [`Ctx::sleep`] advances the clock inline when that is unobservable (see
//! `docs/PERF.md`). The only values that differ between that engine and
//! the always-park reference ([`crate::Simulation::set_fuse`]) are the
//! meters in [`VARIANT_METRICS`].

use crate::kernel::Ctx;
use crate::time::SimTime;

/// Metric names that meter the engine's dispatch path, not the simulated
/// model. Determinism comparisons filter them out via
/// [`MetricsSnapshot::without`](crate::metrics::MetricsSnapshot::without).
pub const VARIANT_METRICS: &[&str] = &[
    "sim_events_heap_total",
    "sim_fiber_switches_total",
    "sim_fiber_threads_reused_total",
];

// Replay shim: everything below is what the frozen
// `crates/biscuit-perf/src/replay.rs` calls and nothing else does. The next
// `benchmark` PR re-points that file at `Ctx::sleep_until` and drops it.

/// Stage labels of the replay shim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// NAND page sense.
    NandSense,
    /// Flash-channel transfer.
    BusTransfer,
    /// Pattern-matcher scan.
    MatcherScan,
}

/// Accumulates the latest stage end of one request.
#[derive(Debug, Default)]
pub struct ChainDesc(SimTime);

impl ChainDesc {
    /// A request completing immediately.
    pub fn new() -> Self {
        ChainDesc(SimTime::ZERO)
    }

    /// Extends the completion time to cover a stage ending at `end`.
    pub fn push(&mut self, _kind: StageKind, _start: SimTime, end: SimTime) {
        self.0 = self.0.max(end);
    }
}

impl Ctx {
    /// `sleep_until` the chain's completion time.
    pub fn run_chain(&self, chain: ChainDesc) {
        self.sleep_until(chain.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulation;

    #[test]
    fn variant_metrics_list_matches_registered_names() {
        let sim = Simulation::new(0);
        sim.enable_metrics();
        sim.spawn("noop", |_| {});
        let report = sim.run();
        for name in VARIANT_METRICS {
            assert!(
                report.metrics.get(name, &[]).is_some(),
                "{name} not registered by the kernel"
            );
        }
    }
}
