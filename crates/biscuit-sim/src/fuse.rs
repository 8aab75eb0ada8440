//! The benchmark's replay shim: everything here is what the frozen
//! `crates/biscuit-perf/src/replay.rs` calls and nothing else does. The
//! next `benchmark` PR re-points that file at [`Ctx::sleep_until`] and
//! drops this module.

use crate::kernel::Ctx;
use crate::time::SimTime;

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
