//! `tpch_q`: Fig. 10 in miniature. Five TPC-H queries, each run in
//! `ExecMode::Conv` and then `ExecMode::Biscuit` on one database: Q1 and Q3
//! stay on the host (aggregate- and join-bound), Q6, Q12 and Q14 offload
//! their filters. The two modes' rows must agree.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use biscuit_db::exec;
use biscuit_db::expr::{ArithOp, CmpOp, Expr};
use biscuit_db::spec::{AggFun, ExecMode, SelectSpec};
use biscuit_db::table::{pack_rows, parse_page};
use biscuit_db::tpch::schema::{self, l};
use biscuit_db::tpch::{all_queries, TpchData, TpchQuery};
use biscuit_db::{Db, DbConfig, Row, Value};
use biscuit_host::{HostConfig, HostLoad};
use biscuit_proto::wire::Wire;
use biscuit_sim::{Ctx, Tracer};
use biscuit_ssd::SsdConfig;

use super::Platform;
use crate::harness::{Iter, Layers, Telemetry, Workload};
use crate::replay::ns_per_item;
use crate::spans;
use crate::stats::splitmix;

/// Query id with the names of its Conv and Biscuit spans.
const QUERIES: [(usize, &str, &str); 5] = [
    (1, "q1_conv", "q1_ndp"),
    (3, "q3_conv", "q3_ndp"),
    (6, "q6_conv", "q6_ndp"),
    (12, "q12_conv", "q12_ndp"),
    (14, "q14_conv", "q14_ndp"),
];

pub struct Tpch {
    plat: Platform,
    db: Arc<Db>,
    queries: Vec<(TpchQuery, &'static str, &'static str)>,
    /// The first lineitem rows, kept for the replays.
    sample: Vec<Row>,
    rows_loaded: usize,
    /// Conv and Biscuit link bytes and offloaded queries, traced iterations.
    conv_link_bytes: u64,
    ndp_link_bytes: u64,
    offloaded: u64,
    /// Scans the planner sampled per traced iteration.
    sampled_scans: f64,
    smoke: bool,
}

impl Tpch {
    pub fn new(seed: u64, smoke: bool) -> Tpch {
        let sf = if smoke { 0.002 } else { 0.02 };
        let plat = Platform::new(SsdConfig {
            logical_capacity: 4 << 30,
            ..SsdConfig::paper_default()
        });
        let mut cfg = DbConfig::paper_default();
        if smoke {
            // Keep the planner's offload path in play on the tiny tables.
            cfg.min_table_pages = 8;
        }
        let mut db = Db::new(plat.ssd.clone(), HostConfig::paper_default(), cfg);
        let data = spans::within("TpchData::generate", || {
            TpchData::generate(sf, splitmix(seed))
        });
        spans::within("load_into", || data.load_into(&mut db)).expect("TPC-H load");
        let rows_loaded = [
            &data.region,
            &data.nation,
            &data.supplier,
            &data.customer,
            &data.part,
            &data.partsupp,
            &data.orders,
            &data.lineitem,
        ]
        .iter()
        .map(|t| t.len())
        .sum();
        let sample = data.lineitem.iter().take(4096).cloned().collect();
        let all = all_queries();
        let queries = QUERIES
            .iter()
            .map(|&(id, conv, ndp)| {
                let q = all
                    .iter()
                    .find(|q| q.id == id)
                    .expect("query exists")
                    .clone();
                (q, conv, ndp)
            })
            .collect();
        Tpch {
            plat,
            db: Arc::new(db),
            queries,
            sample,
            rows_loaded,
            conv_link_bytes: 0,
            ndp_link_bytes: 0,
            offloaded: 0,
            sampled_scans: 0.0,
            smoke,
        }
    }
}

/// Row-for-row equality of the two modes' outputs. Floats may differ in
/// the last digits (the modes sum in different orders), so they compare to
/// a relative 1e-9, the rule of the repo's own `tpch_tests.rs`.
fn rows_agree(conv: &[Row], ndp: &[Row]) -> bool {
    let close = |a: &Value, b: &Value| match (a, b) {
        (Value::Float(x), Value::Float(y)) => (x - y).abs() / x.abs().max(y.abs()).max(1.0) < 1e-9,
        _ => a == b,
    };
    conv.len() == ndp.len()
        && conv
            .iter()
            .zip(ndp)
            .all(|(a, b)| a.len() == b.len() && a.iter().zip(b).all(|(x, y)| close(x, y)))
}

impl Workload for Tpch {
    fn prepare(&mut self, ctx: &Ctx) {
        let _span = spans::enter("module_load");
        self.db.prepare(ctx).expect("scan module");
    }

    fn iterate(&mut self, ctx: &Ctx, tele: Option<&mut Telemetry>) -> Iter {
        let mut it = Iter::default();
        let v0 = ctx.now();
        for (q, conv_span, ndp_span) in &self.queries {
            let run = |span: &'static str, mode: ExecMode, wall: &mut Duration| {
                let _span = spans::enter(span);
                let w0 = Instant::now();
                let out = q.run(&self.db, ctx, mode, HostLoad::IDLE);
                *wall += w0.elapsed();
                out.unwrap_or_else(|e| panic!("Q{} {mode:?}: {e}", q.id))
            };
            let conv = run(conv_span, ExecMode::Conv, &mut it.wall);
            let ndp = run(ndp_span, ExecMode::Biscuit, &mut it.wall);
            it.conv_ps += conv.stats.elapsed.as_ps();
            it.ndp_ps += ndp.stats.elapsed.as_ps();
            it.latencies_ps.push(ndp.stats.elapsed.as_ps());
            it.attempted += 2;
            if !rows_agree(&conv.rows, &ndp.rows) {
                it.failed += 2;
            }
            if tele.is_some() {
                self.conv_link_bytes += conv.stats.link_bytes_to_host;
                self.ndp_link_bytes += ndp.stats.link_bytes_to_host;
                self.offloaded += u64::from(!ndp.stats.offloaded_tables.is_empty());
            }
        }
        it.virt_ps = (ctx.now() - v0).as_ps();
        it.offered = it.attempted;
        it.accepted = it.attempted;
        it
    }

    fn attach(&self, ctx: &Ctx, tracer: &Tracer) {
        self.plat.attach(ctx, tracer);
    }

    fn frame_pool(&self) -> (u64, u64) {
        self.plat.frame_pool()
    }

    fn layer_counters(&mut self, layers: &mut Layers, tele: &Telemetry, traced_iters: f64) {
        // The planner samples a scan exactly when it reaches a verdict on
        // its measured selectivity.
        let sampled = tele.counter_where("db_offload_verdicts_total", "reason", |reason| {
            reason.starts_with("selectivity")
        });
        self.sampled_scans = sampled as f64 / traced_iters;
        layers.set("db.tpch_gen.rows_n", self.rows_loaded as f64);
        layers.set(
            "db.engine.offloaded_n",
            self.offloaded as f64 / traced_iters,
        );
        if self.ndp_link_bytes > 0 {
            layers.set(
                "db.engine.io_reduction",
                self.conv_link_bytes as f64 / self.ndp_link_bytes as f64,
            );
        }
    }

    fn replay(&mut self, layers: &mut Layers) {
        let cfg = self.db.config().clone();
        let rows = &self.sample;
        let smoke = self.smoke;

        // proto.wire: the row batches an offloaded scan sends to the host.
        let batches: Vec<Vec<Row>> = rows.chunks(cfg.batch_rows).map(<[Row]>::to_vec).collect();
        let packets: Vec<_> = batches.iter().map(Wire::to_packet).collect();
        let encode = ns_per_item(rows.len(), smoke, || {
            for batch in &batches {
                black_box(batch.to_packet());
            }
        });
        let decode = ns_per_item(rows.len(), smoke, || {
            for pkt in &packets {
                black_box(Vec::<Row>::from_packet(pkt).expect("decodes"));
            }
        });
        let bytes_per_row =
            packets.iter().map(|p| p.len()).sum::<usize>() as f64 / rows.len() as f64;
        let rows_sent = layers.get("core.port.bytes_n") / bytes_per_row;
        layers.set("proto.wire.encode_ns_per_row", encode);
        layers.set("proto.wire.decode_ns_per_row", decode);
        layers.set(
            "proto.wire.codec_est_ms",
            rows_sent * (encode + decode) / 1e6,
        );

        // db.table: page parse, as planner sampling and the scan SSDlet do
        // it. Sampled pages are counted from the planner's verdicts; pages
        // the matcher flagged are an upper bound for the SSDlet, which
        // parses only candidate lines.
        let page_size = self.plat.ssd.device().config().page_size;
        let (image, _) = pack_rows(rows.iter(), page_size).expect("rows fit pages");
        let pages: Vec<&[u8]> = image.chunks(page_size).collect();
        let lineitem = schema::lineitem();
        let parse = ns_per_item(pages.len(), smoke, || {
            for page in &pages {
                black_box(parse_page(&lineitem, "lineitem", page).expect("parses"));
            }
        });
        let sampled = self.sampled_scans * cfg.sample_pages as f64;
        let parsed = sampled + layers.get("ssd.device.pages_matched_n");
        layers.set("db.table.parse_us_per_page", parse / 1e3);
        layers.set("db.table.parse_est_ms", parse * parsed / 1e6);

        // db.exec: Q6's predicate, a Q1-shaped aggregate, a key probe.
        let col = |i| Box::new(Expr::Col(i));
        let q6 = Expr::And(vec![
            Expr::Between(
                col(l::SHIPDATE),
                Value::date("1994-01-01"),
                Value::date("1994-12-31"),
            ),
            Expr::Between(col(l::DISCOUNT), Value::Float(0.05), Value::Float(0.07)),
            Expr::col_cmp(l::QUANTITY, CmpOp::Lt, Value::Float(24.0)),
        ]);
        let filter = ns_per_item(rows.len(), smoke, || {
            black_box(exec::filter_ref(&q6, rows).expect("filters"));
        });
        let mut q1 = SelectSpec::new("q1-shaped");
        q1.group_by = vec![Expr::Col(l::RETURNFLAG), Expr::Col(l::LINESTATUS)];
        q1.aggregates = vec![
            (AggFun::Sum, Expr::Col(l::QUANTITY)),
            (
                AggFun::Sum,
                Expr::Arith(ArithOp::Mul, col(l::EXTENDEDPRICE), col(l::DISCOUNT)),
            ),
            (AggFun::Avg, Expr::Col(l::DISCOUNT)),
            (AggFun::Count, Expr::Lit(Value::Int(1))),
        ];
        let aggregate = ns_per_item(rows.len(), smoke, || {
            black_box(exec::aggregate(&q1, rows).expect("aggregates"));
        });
        let block = &rows[..rows.len().min(cfg.bnl_block_rows)];
        let probe = ns_per_item(rows.len(), smoke, || {
            let mut out = Vec::new();
            exec::hash_probe_block(block, &[l::ORDERKEY], rows, &[l::ORDERKEY], 0, &mut out);
            black_box(out);
        });
        layers.set("db.exec.filter_ns_per_row", filter);
        layers.set("db.exec.aggregate_ns_per_row", aggregate);
        layers.set("db.exec.probe_ns_per_row", probe);
    }
}
