//! # biscuit-ssd — the simulated NVMe SSD under the Biscuit runtime
//!
//! A functional-plus-timed model of the paper's target device (Table I):
//! multi-channel/way NAND with real page contents, a page-mapped FTL
//! with garbage collection and wear leveling, the per-channel hardware
//! [`pattern`] matcher, a dual-arena DRAM budget ([`memory`]), and the timed
//! internal datapath ([`SsdDevice`]) whose latencies and bandwidths are
//! calibrated to Section V-B of the paper.
//!
//! ## Crate layout
//!
//! - [`SsdConfig`] — geometry, timing, and bandwidth knobs,
//!   with [`SsdConfig::paper_default`] matching Table I.
//! - `nand` — the NAND array: channels × ways of dies holding real page
//!   bytes ([`PageData`]), plus deterministic content generators
//!   ([`PageGen`]).
//! - `ftl` — page-mapped flash translation layer with greedy garbage
//!   collection, wear leveling, and crash-consistent recovery
//!   ([`FtlError`]).
//! - `journal` — the write-ahead L2P redo log + checkpoint that recovery
//!   replays after a power loss ([`RecoveryReport`]; see
//!   `docs/WRITEPATH.md`).
//! - [`pattern`] — the per-channel hardware pattern matcher ([`PatternSet`],
//!   multi-key substring scan with [`PatternLimits`]) and its substring
//!   kernel [`pattern::for_each_hit`], which the host `grep` shares.
//! - [`memory`] — the dual-arena device DRAM budget.
//! - [`SsdDevice`] — the timed façade gluing the above into the
//!   internal datapath: die reservations, channel-bus transfers, matcher
//!   streaming, and per-core software overheads.
//!
//! `nand`, `ftl` and `journal` are private: the crate's unit tests check
//! their invariants, the property suites in `tests/unit/` among them.
//!
//! The datapath is observable: every NAND operation, bus transfer and
//! pattern-matcher scan is reported to the simulation whose fiber issued
//! it — per-channel span tracks in its [`biscuit_sim::Tracer`], counters in
//! its registry, spans in its query profiler (see `docs/TRACING.md` at the
//! repo root).
//!
//! ## Example
//!
//! ```
//! use biscuit_ssd::{SsdConfig, SsdDevice};
//! use biscuit_sim::Simulation;
//! use std::sync::Arc;
//!
//! let sim = Simulation::new(0);
//! let dev = Arc::new(SsdDevice::new(SsdConfig {
//!     logical_capacity: 16 << 20,
//!     ..SsdConfig::paper_default()
//! }));
//! dev.store_bytes(None, 0, b"hello flash").unwrap();
//! let d = Arc::clone(&dev);
//! sim.spawn("reader", move |ctx| {
//!     let pages = d.read_pages(ctx, &[0]).unwrap();
//!     assert_eq!(&pages[0][..11], b"hello flash");
//! });
//! sim.run().assert_quiescent();
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod config;
mod device;
mod ftl;
mod journal;
pub mod memory;
mod nand;
pub mod pattern;

pub use config::SsdConfig;
pub use device::{CopySite, DeviceError, DeviceResult, DeviceStats, PageBuf, SsdDevice};
pub use ftl::FtlError;
pub use journal::RecoveryReport;
pub use nand::{PageData, PageGen};
pub use pattern::{PatternError, PatternLimits, PatternSet};

// Suites over crate internals. They sit beside the integration tests, in
// `tests/unit/`, but are not test targets of their own.
#[path = "../tests/unit/crash_proptests.rs"]
#[cfg(test)]
mod crash_proptests;
#[path = "../tests/unit/ftl_proptests.rs"]
#[cfg(test)]
mod ftl_proptests;
#[path = "../tests/unit/write_path.rs"]
#[cfg(test)]
mod write_path;
