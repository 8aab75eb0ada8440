//! # biscuit-core — the Biscuit near-data-processing framework
//!
//! A faithful Rust reproduction of the programming model of *Biscuit: A
//! Framework for Near-Data Processing of Big Data Workloads* (ISCA 2016):
//! flow-based applications whose tasks ("SSDlets") run inside the SSD,
//! connected by typed, data-ordered ports.
//!
//! ## Crate layout
//!
//! - [`task::Ssdlet`] + [`task::TaskCtx`] — the device-side task API
//!   (`libslet`).
//! - [`module`] — SSDlet registration and dynamically loadable modules.
//! - [`app::Application`] — the host-side coordination API (`libsisc`):
//!   instantiate proxies, `connect` / `connect_to` / `connect_from`,
//!   `start`, `join`.
//! - [`ssd::Ssd`] — the host handle: `load_module` / `unload_module`.
//! - the three port kinds with Table II latency structure ([`PortKind`],
//!   [`HostInPort`], [`HostOutPort`]).
//! - the in-device cooperative runtime (crate-private) that schedules
//!   loaded SSDlets onto the device CPU cores.
//! - [`CoreConfig`], [`BiscuitError`] / [`BiscuitResult`] — configuration
//!   and errors.
//!
//! The whole stack is observable: the device datapath, the host link and
//! every port connection report to the simulation whose fiber calls them,
//! so `sim.enable_trace(..)` is all it takes for port traffic to show up
//! as labelled send/recv events and queue-depth counters (see
//! `docs/TRACING.md` at the repo root).
//!
//! ## Example: square numbers on the "SSD"
//!
//! ```
//! use biscuit_core::module::{ModuleBuilder, SsdletSpec};
//! use biscuit_core::task::{Ssdlet, TaskCtx};
//! use biscuit_core::{Application, CoreConfig, Ssd};
//! use biscuit_fs::Fs;
//! use biscuit_sim::Simulation;
//! use biscuit_ssd::{SsdConfig, SsdDevice};
//! use std::sync::Arc;
//!
//! struct Square;
//! impl Ssdlet for Square {
//!     fn run(&mut self, ctx: &mut TaskCtx<'_>) {
//!         while let Some(v) = ctx.recv::<u64>(0).unwrap() {
//!             ctx.send(0, v * v).unwrap();
//!         }
//!     }
//! }
//!
//! let dev = Arc::new(SsdDevice::new(SsdConfig {
//!     logical_capacity: 16 << 20,
//!     ..SsdConfig::paper_default()
//! }));
//! let ssd = Ssd::new(Fs::format(dev), CoreConfig::paper_default());
//! let sim = Simulation::new(0);
//! let ssd2 = ssd.clone();
//! sim.spawn("host", move |ctx| {
//!     let module = ModuleBuilder::new("math")
//!         .register("idSquare", SsdletSpec::new().input::<u64>().output::<u64>(),
//!                   |_| Ok(Box::new(Square)))
//!         .build();
//!     let mid = ssd2.load_module(ctx, module).unwrap();
//!     let app = Application::new(&ssd2, "squares");
//!     let sq = app.ssdlet(mid, "idSquare").unwrap();
//!     let tx = app.connect_from::<u64>(sq.input(0)).unwrap();
//!     let rx = app.connect_to::<u64>(sq.out(0)).unwrap();
//!     app.start(ctx).unwrap();
//!     for i in 1..=3 {
//!         tx.put(ctx, i).unwrap();
//!     }
//!     tx.close(ctx);
//!     let got: Vec<u64> = std::iter::from_fn(|| rx.get(ctx)).collect();
//!     assert_eq!(got, vec![1, 4, 9]);
//!     app.join(ctx);
//!     ssd2.unload_module(ctx, mid).unwrap();
//! });
//! sim.run().assert_quiescent();
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod app;
mod config;
mod error;
pub mod module;
mod port;
mod runtime;
mod ssd;
pub mod task;

pub use app::{connect_apps, Application, InRef, OutRef, SsdletHandle};
pub use config::CoreConfig;
pub use error::{BiscuitError, BiscuitResult};
pub use module::{ModuleBuilder, SsdletModule, SsdletSpec};
pub use port::{HostInPort, HostOutPort, PortKind};
pub use runtime::ModuleId;
pub use ssd::Ssd;
pub use task::{args_as, Ssdlet, TaskArgs, TaskCtx};

// A suite over crate internals. It sits beside the integration tests, in
// `tests/unit/`, but is not a test target of its own.
#[path = "../tests/unit/framework.rs"]
#[cfg(test)]
mod framework;
