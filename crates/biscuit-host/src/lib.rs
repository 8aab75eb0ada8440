//! # biscuit-host — the conventional host system model
//!
//! The "Conv" side of every comparison in the paper: a Xeon-class host
//! whose software scans data after pulling it over the PCIe link, under
//! configurable memory-bandwidth contention from background load
//! (StreamBench threads in the paper's methodology).
//!
//! - [`HostConfig`] / [`HostLoad`] — host rates and the contention model
//!   (Tables IV/V fits).
//! - [`io::ConvIo`] — the NVMe `pread`/async read path (Table III, Fig. 7).
//! - [`search::BoyerMoore`] — the Conv string search baseline (Table V):
//!   counts through the matcher's substring kernel, charged at the
//!   calibrated `grep` scan rate.
//! - [`mod@array`] — multi-SSD scale-out: the shard coordinator, ordered
//!   merge port, and concurrent query scheduler (Fig. 1(b), `docs/SCALE.md`).
//! - [`fleet`] — the parallel-DES face of the coordinator: one shard
//!   kernel per drive, each on its own OS thread, results merged after
//!   the join (`docs/PARALLEL.md`).
//! - [`workload`] — seeded open-loop traffic generation (Zipf
//!   tenants, diurnal bursts, mixed query kinds) feeding the
//!   scheduler's WFQ/shedding QoS layer (`docs/QOS.md`).

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

pub mod array;
mod config;
pub mod fleet;
mod io;
pub mod search;
pub mod workload;

pub use array::{
    ArrayConfig, QueryScheduler, QueryShed, SchedulerConfig, ShedReason, SsdArray, TenantReport,
};
pub use config::{HostConfig, HostLoad};
pub use fleet::{FleetConfig, FleetReport};
pub use io::ConvIo;
pub use search::BoyerMoore;
pub use workload::{
    Arrival, ArrivalProcess, DiurnalPhase, DriveStats, QueryKind, QueryMix, WorkloadConfig,
    WorkloadEngine,
};

// Suites over crate internals. They sit beside the integration tests, in
// `tests/unit/`, but are not test targets of their own.
#[path = "../tests/unit/array_proptests.rs"]
#[cfg(test)]
mod array_proptests;
#[path = "../tests/unit/search_proptests.rs"]
#[cfg(test)]
mod search_proptests;
#[path = "../tests/unit/wfq_proptests.rs"]
#[cfg(test)]
mod wfq_proptests;
