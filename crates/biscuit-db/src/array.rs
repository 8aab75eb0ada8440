//! Sharded query execution over an [`SsdArray`] (multi-SSD scale-out).
//!
//! [`ArrayDb`] owns one [`Db`] engine per drive of an [`SsdArray`] and
//! range-partitions every table contiguously across the shards at
//! `create_table` time: shard 0 holds the first `~rows/N` rows, shard 1
//! the next slice, and so on (slice sizes differ by at most one row).
//!
//! A query is executed by stripping the [`SelectSpec`] down to its single
//! base scan, scattering that scan-only spec to every shard through
//! [`SsdArray::scatter`] — in [`ExecMode::Biscuit`] each shard's planner
//! independently samples selectivity and offloads next to its own flash —
//! and gathering row batches through the ordered merge port. Because the
//! partition is contiguous and the merge emits shards in id order with
//! per-shard FIFO preserved, the concatenated rows are exactly the rows a
//! single-drive scan would have produced, in the same order. Residual
//! filtering, aggregation, projection, ordering and `LIMIT` then run once
//! on the host over the merged stream, mirroring the single-drive engine
//! tail, so results are byte-identical to a one-drive [`Db`] holding the
//! whole table.
//!
//! Drive loss (see [`biscuit_sim::fault::FaultConfig::drive_losses`]) is
//! handled by the coordinator: a shard that goes silent past the plan's
//! `host_timeout` is abandoned and its slice re-scanned through that
//! shard's Conv path, preserving result equality.

use std::sync::{Arc, Mutex};

use biscuit_host::array::{ShardFailure, SsdArray};
use biscuit_host::{HostConfig, HostLoad};
use biscuit_sim::kernel::Ctx;

use crate::engine::{Db, DbConfig, QueryOutput, QueryStats};
use crate::error::{DbError, DbResult};
use crate::exec;
use crate::schema::Schema;
use crate::spec::{ExecMode, SelectSpec};
use crate::table;
use crate::value::Row;

/// A mini relational engine sharded across the drives of an [`SsdArray`].
///
/// Construction and [`create_table`](ArrayDb::create_table) are setup-time
/// operations on `&mut self`; execution ([`execute`](ArrayDb::execute)) is
/// `&self` and may run from many scheduler fibers concurrently.
#[derive(Debug)]
pub struct ArrayDb {
    array: SsdArray,
    dbs: Vec<Arc<Db>>,
    batch_rows: usize,
}

impl ArrayDb {
    /// Build one engine per shard of `array`, all with the same host and
    /// DB configuration.
    pub fn new(array: SsdArray, host_cfg: HostConfig, cfg: DbConfig) -> ArrayDb {
        let batch_rows = cfg.batch_rows.max(1);
        let dbs = array
            .shards()
            .iter()
            .map(|s| Arc::new(Db::new(s.ssd.clone(), host_cfg.clone(), cfg.clone())))
            .collect();
        ArrayDb {
            array,
            dbs,
            batch_rows,
        }
    }

    /// The underlying shard coordinator.
    pub fn array(&self) -> &SsdArray {
        &self.array
    }

    /// Number of drives the tables are partitioned over.
    pub fn shards(&self) -> usize {
        self.dbs.len()
    }

    /// The per-shard engine for `shard` (for inspection in tests).
    pub fn db(&self, shard: usize) -> &Db {
        &self.dbs[shard]
    }

    /// Create `name` on every shard, range-partitioning `rows` into
    /// contiguous slices (sizes differing by at most one row).
    ///
    /// Setup-time only: must run before any concurrent [`execute`] calls
    /// (the engines are still uniquely owned at that point).
    ///
    /// [`execute`]: ArrayDb::execute
    ///
    /// # Errors
    ///
    /// Returns [`DbError::TypeError`], before any shard creates a file, for
    /// a row that would not read back as written; otherwise propagates the
    /// first per-shard [`DbError`].
    pub fn create_table(&mut self, name: &str, schema: Schema, rows: &[Row]) -> DbResult<()> {
        table::check_rows(&schema, rows)?;
        let n = self.dbs.len();
        let base = rows.len() / n;
        let rem = rows.len() % n;
        let mut start = 0usize;
        for (i, db) in self.dbs.iter_mut().enumerate() {
            let len = base + usize::from(i < rem);
            let slice = &rows[start..start + len];
            start += len;
            Arc::get_mut(db)
                .expect("create_table must run before concurrent execution")
                .create_table(name, schema.clone(), slice)?;
        }
        Ok(())
    }

    /// Run each shard's one-time preparation (filesystem mount, module
    /// deployment checks).
    ///
    /// # Errors
    ///
    /// Propagates the first per-shard [`DbError`].
    pub fn prepare(&self, ctx: &Ctx) -> DbResult<()> {
        for db in &self.dbs {
            db.prepare(ctx)?;
        }
        Ok(())
    }

    /// Reduce `spec` to the scan-only sub-query each shard runs locally.
    fn shard_spec(&self, spec: &SelectSpec) -> DbResult<SelectSpec> {
        if spec.scans.len() != 1 || !spec.edges.is_empty() {
            return Err(DbError::Unsupported(format!(
                "ArrayDb executes single-table scans (query {:?} has {} scans, {} join edges)",
                spec.name,
                spec.scans.len(),
                spec.edges.len()
            )));
        }
        Ok(SelectSpec {
            name: format!("{}@shard", spec.name),
            scans: spec.scans.clone(),
            ..SelectSpec::default()
        })
    }

    /// Execute `spec` across every shard and merge the result.
    ///
    /// In [`ExecMode::Biscuit`] the per-shard pipelines run concurrently
    /// as simulation fibers and gather through the array's ordered merge
    /// port; in [`ExecMode::Conv`] the shards are scanned sequentially on
    /// the calling fiber (one host, one read loop — the scale-*up*
    /// baseline the paper compares against).
    ///
    /// # Errors
    ///
    /// [`DbError::Unsupported`] for multi-scan/join specs; otherwise the
    /// first per-shard error.
    pub fn execute(
        &self,
        ctx: &Ctx,
        spec: &SelectSpec,
        mode: ExecMode,
        load: HostLoad,
    ) -> DbResult<QueryOutput> {
        let shard_spec = self.shard_spec(spec)?;
        let t0 = ctx.now();

        let (acc, mut stats) = match mode {
            ExecMode::Conv => {
                let mut acc = Vec::new();
                let mut stats = QueryStats::default();
                for db in &self.dbs {
                    let out = db.execute(ctx, &shard_spec, ExecMode::Conv, load)?;
                    merge_stats(&mut stats, &out.stats);
                    acc.extend(out.rows);
                }
                (acc, stats)
            }
            ExecMode::Biscuit => {
                let n = self.dbs.len();
                let dbs = self.dbs.clone();
                let job_spec = shard_spec.clone();
                let batch = self.batch_rows;
                let shard_stats: Arc<Mutex<Vec<Option<QueryStats>>>> =
                    Arc::new(Mutex::new(vec![None; n]));
                let job_stats = Arc::clone(&shard_stats);
                let results = self.array.scatter::<Vec<Row>, DbError, _, _>(
                    ctx,
                    &format!("db-{}", spec.name),
                    move |fctx, shard, tx| {
                        let out = dbs[shard.id]
                            .execute(fctx, &job_spec, ExecMode::Biscuit, load)
                            .map_err(|e| ShardFailure::new(e.to_string()))?;
                        job_stats.lock().unwrap()[shard.id] = Some(out.stats);
                        for chunk in out.rows.chunks(batch.max(1)) {
                            tx.send(fctx, chunk.to_vec())
                                .map_err(|_| ShardFailure::new("merge lane abandoned"))?;
                        }
                        Ok(())
                    },
                    |fctx, shard| {
                        // Lost drive: re-scan this shard's slice through its
                        // Conv path for byte-identical rows.
                        let out =
                            self.dbs[shard.id].execute(fctx, &shard_spec, ExecMode::Conv, load)?;
                        Ok(out
                            .rows
                            .chunks(self.batch_rows)
                            .map(<[Row]>::to_vec)
                            .collect())
                    },
                )?;
                let mut acc = Vec::new();
                let mut stats = QueryStats::default();
                let per_shard = shard_stats.lock().unwrap();
                for r in results {
                    if !r.recovered {
                        if let Some(s) = per_shard[r.shard].as_ref() {
                            merge_stats(&mut stats, s);
                        }
                    }
                    for chunk in r.items {
                        acc.extend(chunk);
                    }
                }
                (acc, stats)
            }
        };

        // Host-side shaping over the merged stream — the same tail the
        // single-drive engine runs after its joins.
        let host = &self.dbs[0];
        let mut acc = acc;
        if let Some(res) = &spec.residual {
            host.charge_host_bytes(ctx, (acc.len() * 16) as u64, load);
            acc = exec::filter(res, acc)?;
        }
        let mut rows = if !spec.aggregates.is_empty() {
            host.charge_host_bytes(ctx, (acc.len() * 16) as u64, load);
            let mut out = exec::aggregate(spec, &acc)?;
            if let Some(h) = &spec.having {
                out = exec::filter(h, out)?;
            }
            out
        } else if !spec.projection.is_empty() {
            exec::project(&spec.projection, &acc)?
        } else {
            acc
        };
        exec::order_and_limit(&mut rows, &spec.order_by, spec.limit);

        stats.rows_out = rows.len();
        stats.elapsed = ctx.now() - t0;
        Ok(QueryOutput { rows, stats })
    }
}

/// Fold one shard's stats into the array-wide totals.
fn merge_stats(into: &mut QueryStats, from: &QueryStats) {
    for t in &from.offloaded_tables {
        if !into.offloaded_tables.contains(t) {
            into.offloaded_tables.push(t.clone());
        }
    }
    into.link_bytes_to_host += from.link_bytes_to_host;
    into.device_pages_scanned += from.device_pages_scanned;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Expr};
    use crate::spec::{AggFun, OrderKey};
    use crate::value::{ColumnType, Value};
    use biscuit_core::{CoreConfig, Ssd};
    use biscuit_fs::Fs;
    use biscuit_host::array::ArrayConfig;
    use biscuit_sim::Simulation;
    use biscuit_ssd::{SsdConfig, SsdDevice};

    fn mk_array(n: usize) -> SsdArray {
        let drives = (0..n)
            .map(|_| {
                let dev = Arc::new(SsdDevice::new(SsdConfig {
                    logical_capacity: 64 << 20,
                    ..SsdConfig::paper_default()
                }));
                Ssd::new(Fs::format(dev), CoreConfig::paper_default())
            })
            .collect();
        SsdArray::new(drives, HostConfig::paper_default(), ArrayConfig::default())
    }

    fn mk_rows(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| vec![Value::Int(i), Value::Int((i * 7) % 50)])
            .collect()
    }

    fn test_spec() -> SelectSpec {
        let mut spec = SelectSpec::new("t");
        spec.scan(
            "orders",
            Some(Expr::Cmp(
                CmpOp::Lt,
                Box::new(Expr::Col(1)),
                Box::new(Expr::Lit(Value::Int(10))),
            )),
        );
        spec
    }

    #[test]
    fn sharded_results_match_single_drive_in_both_modes() {
        let schema = Schema::new(&[("id", ColumnType::Int), ("qty", ColumnType::Int)]);
        let rows = mk_rows(997); // uneven split across 3 shards

        let mut solo = Db::new(
            mk_array(1).shard(0).ssd.clone(),
            HostConfig::paper_default(),
            DbConfig::paper_default(),
        );
        solo.create_table("orders", schema.clone(), &rows).unwrap();
        let solo = Arc::new(solo);

        let mut adb = ArrayDb::new(
            mk_array(3),
            HostConfig::paper_default(),
            DbConfig::paper_default(),
        );
        adb.create_table("orders", schema, &rows).unwrap();
        let adb = Arc::new(adb);

        let expect: Arc<Mutex<Vec<Row>>> = Arc::new(Mutex::new(Vec::new()));
        let sim = Simulation::new(7);
        {
            let solo = Arc::clone(&solo);
            let expect = Arc::clone(&expect);
            sim.spawn("solo", move |ctx| {
                let out = solo
                    .execute(ctx, &test_spec(), ExecMode::Conv, HostLoad::IDLE)
                    .unwrap();
                *expect.lock().unwrap() = out.rows;
            });
        }
        sim.run().assert_quiescent();
        let expect = Arc::try_unwrap(expect).unwrap().into_inner().unwrap();
        assert!(!expect.is_empty());

        for mode in [ExecMode::Conv, ExecMode::Biscuit] {
            let adb = Arc::clone(&adb);
            let expect = expect.clone();
            let sim = Simulation::new(7);
            sim.spawn("arr", move |ctx| {
                adb.prepare(ctx).unwrap();
                let out = adb
                    .execute(ctx, &test_spec(), mode, HostLoad::IDLE)
                    .unwrap();
                assert_eq!(out.rows, expect, "mode {mode:?} diverged from single drive");
                assert_eq!(out.stats.rows_out, expect.len());
            });
            sim.run().assert_quiescent();
        }
    }

    #[test]
    fn aggregates_order_and_limit_shape_on_the_host() {
        let schema = Schema::new(&[("id", ColumnType::Int), ("qty", ColumnType::Int)]);
        let rows = mk_rows(600);

        let mut spec = SelectSpec::new("agg");
        spec.scan("orders", None);
        spec.group_by = vec![Expr::Col(1)];
        spec.aggregates = vec![(AggFun::Count, Expr::Col(0))];
        spec.order_by = vec![OrderKey {
            col: 0,
            desc: false,
        }];
        spec.limit = Some(5);

        let mut solo = Db::new(
            mk_array(1).shard(0).ssd.clone(),
            HostConfig::paper_default(),
            DbConfig::paper_default(),
        );
        solo.create_table("orders", schema.clone(), &rows).unwrap();
        let mut adb = ArrayDb::new(
            mk_array(4),
            HostConfig::paper_default(),
            DbConfig::paper_default(),
        );
        adb.create_table("orders", schema, &rows).unwrap();
        let solo = Arc::new(solo);
        let adb = Arc::new(adb);

        let sim = Simulation::new(11);
        sim.spawn("cmp", move |ctx| {
            adb.prepare(ctx).unwrap();
            let want = solo
                .execute(ctx, &spec, ExecMode::Conv, HostLoad::IDLE)
                .unwrap();
            let got = adb
                .execute(ctx, &spec, ExecMode::Biscuit, HostLoad::IDLE)
                .unwrap();
            assert_eq!(got.rows, want.rows);
            assert_eq!(got.rows.len(), 5);
        });
        sim.run().assert_quiescent();
    }

    #[test]
    fn a_bad_row_on_the_last_shard_leaves_no_table_on_any() {
        let schema = Schema::new(&[("id", ColumnType::Int), ("qty", ColumnType::Int)]);
        let mut adb = ArrayDb::new(
            mk_array(2),
            HostConfig::paper_default(),
            DbConfig::paper_default(),
        );
        let mut rows = mk_rows(9);
        rows.push(vec![Value::Int(9), Value::Str("7".into())]);
        let err = adb.create_table("t", schema, &rows).unwrap_err();
        assert!(matches!(err, DbError::TypeError(_)), "{err:?}");
        for shard in 0..adb.shards() {
            assert!(!adb.db(shard).ssd().fs().exists("tbl_t"), "shard {shard}");
        }
    }

    #[test]
    fn joins_are_rejected_as_unsupported() {
        let schema = Schema::new(&[("id", ColumnType::Int), ("qty", ColumnType::Int)]);
        let mut adb = ArrayDb::new(
            mk_array(2),
            HostConfig::paper_default(),
            DbConfig::paper_default(),
        );
        adb.create_table("a", schema.clone(), &mk_rows(10)).unwrap();
        adb.create_table("b", schema, &mk_rows(10)).unwrap();
        let adb = Arc::new(adb);

        let sim = Simulation::new(0);
        sim.spawn("join", move |ctx| {
            let mut spec = SelectSpec::new("j");
            let l = spec.scan("a", None);
            let r = spec.scan("b", None);
            spec.join(l, 0, r, 0);
            match adb.execute(ctx, &spec, ExecMode::Conv, HostLoad::IDLE) {
                Err(DbError::Unsupported(_)) => {}
                other => panic!("expected Unsupported, got {other:?}"),
            }
        });
        sim.run().assert_quiescent();
    }
}
