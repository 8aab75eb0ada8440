//! # biscuit-db — a mini relational engine with Biscuit NDP offload
//!
//! The MariaDB/XtraDB stand-in for the paper's §V-C experiments: heap
//! tables stored in a pattern-matcher-friendly text page format on the
//! simulated SSD, a select-project-join-aggregate executor with block
//! nested-loop joins, and a planner that — in Biscuit mode — detects
//! offload-candidate scans, samples page selectivity, and pushes
//! qualifying filters into a device-side SSDlet over the real framework.
//!
//! ## Crate layout
//!
//! - [`Value`]/[`Schema`]/[`table`] — storage layer: typed values, table
//!   schemas, and the text page format the pattern matcher can scan.
//! - `column` — the host's column cache, a join's running result as row ids
//!   into it, and the accessor every operator reads through.
//! - [`expr`] — expressions, `LIKE` patterns, pattern-key extraction.
//! - `program` — the one evaluator: expressions lowered once per operator
//!   call into typed programs over that accessor.
//! - [`spec`] — declarative query specs ([`SelectSpec`], [`ExecMode`]).
//! - the scan-filter SSDlet module deployed to the device.
//! - [`Db`] — the planner and executor. In Biscuit mode the
//!   planner emits a [`biscuit_sim::trace::TraceEvent::OffloadVerdict`] per
//!   scanned table when the [`Ssd`](biscuit_core::Ssd) carries a tracer
//!   (see `docs/TRACING.md` at the repo root).
//! - [`exec`] — selection, joins, aggregation, projection, ordering.
//! - [`DbError`] / [`DbResult`] — errors.
//! - [`tpch`] — TPC-H schema, dbgen-style generator, and all 22 queries.
//!
//! ## Example: a filtered scan end to end
//!
//! A table is created on the simulated SSD, then queried inside the
//! simulation in conventional (host-scan) mode:
//!
//! ```
//! use biscuit_core::{CoreConfig, Ssd};
//! use biscuit_db::spec::ExecMode;
//! use biscuit_db::{CmpOp, ColumnType, Db, DbConfig, Expr, Schema, SelectSpec, Value};
//! use biscuit_fs::Fs;
//! use biscuit_host::{HostConfig, HostLoad};
//! use biscuit_sim::Simulation;
//! use biscuit_ssd::{SsdConfig, SsdDevice};
//! use std::sync::Arc;
//!
//! let dev = Arc::new(SsdDevice::new(SsdConfig {
//!     logical_capacity: 64 << 20,
//!     ..SsdConfig::paper_default()
//! }));
//! let ssd = Ssd::new(Fs::format(dev), CoreConfig::paper_default());
//! let mut db = Db::new(ssd, HostConfig::paper_default(), DbConfig::paper_default());
//!
//! let schema = Schema::new(&[("id", ColumnType::Int), ("qty", ColumnType::Int)]);
//! let rows: Vec<Vec<Value>> = (0..100)
//!     .map(|i| vec![Value::Int(i), Value::Int(i * 2)])
//!     .collect();
//! db.create_table("orders", schema, &rows).unwrap();
//!
//! let db = Arc::new(db);
//! let sim = Simulation::new(0);
//! sim.spawn("host", move |ctx| {
//!     let mut spec = SelectSpec::new("small-orders");
//!     spec.scan(
//!         "orders",
//!         Some(Expr::Cmp(
//!             CmpOp::Lt,
//!             Box::new(Expr::Col(1)),
//!             Box::new(Expr::Lit(Value::Int(20))),
//!         )),
//!     );
//!     let out = db.execute(ctx, &spec, ExecMode::Conv, HostLoad::IDLE).unwrap();
//!     assert_eq!(out.rows.len(), 10); // qty = 0, 2, ..., 18
//! });
//! sim.run().assert_quiescent();
//! ```
//!
//! Switch `ExecMode::Conv` to [`ExecMode::Biscuit`]
//! and the planner samples selectivity and — when profitable — deploys the
//! `offload` SSDlet so the filter runs next to the flash.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod column;
mod engine;
mod error;
pub mod exec;
pub mod expr;
mod offload;
mod program;
mod schema;
pub mod spec;
pub mod table;
pub mod tpch;
mod value;

pub use engine::{Db, DbConfig, PlanExplain, QueryOutput, QueryStats, ScanExplain};
pub use error::{DbError, DbResult};
pub use expr::{CmpOp, Expr};
pub use schema::{Catalog, Column, Schema, TableMeta};
pub use spec::{AggFun, ExecMode, JoinEdge, OrderKey, SelectSpec, TableScanSpec};
pub use value::{ColumnType, Row, Value};

// The tests' oracle, shared with the integration tests; it names the crate
// as they do.
#[path = "../tests/support/tree_walk.rs"]
#[cfg(test)]
mod tree_walk;
#[cfg(test)]
extern crate self as biscuit_db;

// Property suites over crate internals. They sit beside the integration
// tests, in `tests/unit/`, but are not test targets of their own.
#[path = "../tests/unit/exec_proptests.rs"]
#[cfg(test)]
mod exec_proptests;
