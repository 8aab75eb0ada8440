//! # biscuit-sim — deterministic discrete-event simulation kernel
//!
//! The substrate under the Biscuit NDP reproduction. Everything that the
//! ISCA 2016 paper measures on real silicon — flash channel queueing, PCIe
//! transfer time, fiber scheduling on the SSD's ARM cores, wall power — is
//! modeled here as *virtual time*: simulated processes ("fibers") interleave
//! deterministically under a single scheduler, and blocking operations charge
//! calibrated durations to a picosecond-resolution clock.
//!
//! ## Layout
//!
//! - [`kernel`] — the event loop, fibers, and the [`Ctx`] handle.
//! - [`fuse`] — the frozen benchmark's replay shim (nothing else uses it).
//! - [`par`] — the shard fleet: run N independent shard kernels to drain
//!   on the calling thread or one OS thread each, and join them (see
//!   `docs/PARALLEL.md`).
//! - [`fault`] — seeded, deterministic fault injection ([`FaultPlan`]) for
//!   the instrumented sites across the stack (see `docs/FAULTS.md`).
//! - [`time`] — [`SimTime`]/[`SimDuration`] arithmetic.
//! - [`rng`] — the one seeded generator (SplitMix64, xoshiro256++) behind
//!   every generated row, page and jitter draw.
//! - [`sync`] — the non-poisoning [`sync::Mutex`] every shared sim object
//!   locks with.
//! - [`queue`] — blocking bounded queues, wait queues, semaphores.
//! - [`resource`] — FCFS bandwidth shapers and server banks.
//! - [`power`] — two-state power components integrated into Joules.
//! - [`metrics`] — the aggregate metrics registry: counters, gauges, and
//!   log-bucketed histograms with Prometheus text + stable JSON exports
//!   (see `docs/METRICS.md` at the repo root).
//! - [`qprof`] — query-scoped causal profiling: [`SpanContext`] propagation
//!   and deterministic per-query latency attribution with critical-path
//!   extraction (see `docs/QUERYPROF.md` at the repo root).
//! - [`trace`] — structured event tracing: the Chrome `trace_event`
//!   export (see `docs/TRACING.md` at the repo root).
//!
//! ## Example
//!
//! ```
//! use biscuit_sim::{Simulation, queue::SimQueue, time::SimDuration};
//!
//! let sim = Simulation::new(0);
//! let q = SimQueue::new(8);
//! let tx = q.clone();
//! sim.spawn("producer", move |ctx| {
//!     for i in 0..4u32 {
//!         ctx.sleep(SimDuration::from_micros(10));
//!         tx.push(ctx, i).unwrap();
//!     }
//!     tx.close(ctx);
//! });
//! sim.spawn("consumer", move |ctx| {
//!     let mut seen = Vec::new();
//!     while let Some(v) = q.pop(ctx) {
//!         seen.push(v);
//!     }
//!     assert_eq!(seen, vec![0, 1, 2, 3]);
//! });
//! let report = sim.run();
//! report.assert_quiescent();
//! assert_eq!(report.end_time.as_micros(), 40);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chan;
pub mod fault;
pub mod fuse;
pub mod kernel;
pub mod metrics;
pub mod par;
pub mod power;
pub mod qprof;
pub mod queue;
pub mod resource;
pub mod rng;
pub mod sync;
pub mod time;
pub mod trace;

pub use fault::{DriveLoss, DriveLossPhase, FaultConfig, FaultPlan, FaultSite};
pub use kernel::{Ctx, Kernel, Pid, SimReport, Simulation};
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use par::{ParConfig, ParMode};
pub use qprof::{QueryProfile, QueryProfiler, QueryProfiles, SpanContext, Stage};
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceConfig, TraceEvent, Tracer};
