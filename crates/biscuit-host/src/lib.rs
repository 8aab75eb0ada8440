//! # biscuit-host — the conventional host system model
//!
//! The "Conv" side of every comparison in the paper: a Xeon-class host
//! whose software scans data after pulling it over the PCIe link, under
//! configurable memory-bandwidth contention from background load
//! (StreamBench threads in the paper's methodology).
//!
//! - [`config`] — host rates and the contention model (Tables IV/V fits).
//! - [`io::ConvIo`] — the NVMe `pread`/async read path (Table III, Fig. 7).
//! - [`search::BoyerMoore`] — the `grep` algorithm used as the Conv string
//!   search baseline (Table V).
//! - [`mod@array`] — multi-SSD scale-out: the shard coordinator, ordered
//!   merge port, and concurrent query scheduler (Fig. 1(b), `docs/SCALE.md`).
//! - [`fleet`] — the parallel-DES face of the coordinator: one shard
//!   kernel per drive, each on its own OS thread, results merged after
//!   the join (`docs/PARALLEL.md`).
//! - [`workload`] — seeded open/closed-loop traffic generation (Zipf
//!   tenants, diurnal bursts, mixed query kinds) feeding the
//!   scheduler's WFQ/shedding QoS layer (`docs/QOS.md`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod array;
pub mod config;
pub mod fleet;
pub mod io;
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
    WorkloadEngine, WorkloadRng,
};
