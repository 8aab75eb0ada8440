//! # Biscuit — near-data processing for simulated NVMe SSDs
//!
//! A comprehensive Rust reproduction of *Biscuit: A Framework for Near-Data
//! Processing of Big Data Workloads* (ISCA 2016). The framework lets you
//! write dataflow applications whose tasks ("SSDlets") run inside a
//! simulated solid-state drive, connected to host code through typed,
//! data-ordered ports — and reproduces every table and figure of the
//! paper's evaluation on a calibrated discrete-event model of the paper's
//! hardware.
//!
//! This crate is a facade: it re-exports the workspace's layers.
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`sim`] | `biscuit-sim` | deterministic DES kernel: fibers, virtual time, queues, resources, power |
//! | [`proto`] | `biscuit-proto` | `Packet`, `Wire` codec, PCIe/NVMe link model |
//! | [`ssd`] | `biscuit-ssd` | NAND array, FTL with GC, pattern-matcher IP, timed datapath |
//! | [`fs`] | `biscuit-fs` | the extent filesystem Biscuit mandates for device data |
//! | [`core`] | `biscuit-core` | **the framework**: SSDlets, modules, applications, ports |
//! | [`host`] | `biscuit-host` | the Conv baseline: host CPU model, pread path, host `grep` |
//! | [`db`] | `biscuit-db` | mini relational engine with NDP offload + TPC-H |
//! | [`apps`] | `biscuit-apps` | wordcount, string search, pointer chasing |
//!
//! ## Quickstart
//!
//! ```
//! use biscuit::core::module::{ModuleBuilder, SsdletSpec};
//! use biscuit::core::task::{Ssdlet, TaskCtx};
//! use biscuit::core::{Application, CoreConfig, Ssd};
//! use biscuit::fs::Fs;
//! use biscuit::sim::Simulation;
//! use biscuit::ssd::{SsdConfig, SsdDevice};
//! use std::sync::Arc;
//!
//! struct Echo;
//! impl Ssdlet for Echo {
//!     fn run(&mut self, ctx: &mut TaskCtx<'_>) {
//!         while let Some(v) = ctx.recv::<u64>(0).unwrap() {
//!             ctx.send(0, v + 1).unwrap();
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
//! let s = ssd.clone();
//! sim.spawn("host", move |ctx| {
//!     let module = ModuleBuilder::new("demo")
//!         .register("idEcho", SsdletSpec::new().input::<u64>().output::<u64>(),
//!                   |_| Ok(Box::new(Echo)))
//!         .build();
//!     let mid = s.load_module(ctx, module).unwrap();
//!     let app = Application::new(&s, "demo");
//!     let echo = app.ssdlet(mid, "idEcho").unwrap();
//!     let tx = app.connect_from::<u64>(echo.input(0)).unwrap();
//!     let rx = app.connect_to::<u64>(echo.out(0)).unwrap();
//!     app.start(ctx).unwrap();
//!     tx.put(ctx, 41).unwrap();
//!     tx.close(ctx);
//!     assert_eq!(rx.get(ctx), Some(42));
//!     app.join(ctx);
//! });
//! sim.run().assert_quiescent();
//! ```

#![warn(missing_docs)]

pub use biscuit_apps as apps;
pub use biscuit_core as core;
pub use biscuit_db as db;
pub use biscuit_fs as fs;
pub use biscuit_host as host;
pub use biscuit_proto as proto;
pub use biscuit_sim as sim;
pub use biscuit_ssd as ssd;
