//! Full TPC-H suite: every query must return the same results in Conv and
//! Biscuit mode (the fundamental offload-correctness invariant), and the
//! offload pattern must match the paper's structure — a subset of queries
//! offloads, the rest run conventionally.

use std::sync::{Arc, OnceLock};

use biscuit_sim::sync::Mutex;

use biscuit_core::{CoreConfig, Ssd};
use biscuit_db::spec::ExecMode;
use biscuit_db::tpch::{all_queries, TpchData};
use biscuit_db::{Db, DbConfig, QueryOutput, Value};
use biscuit_fs::Fs;
use biscuit_host::{HostConfig, HostLoad};
use biscuit_sim::Simulation;
use biscuit_ssd::{SsdConfig, SsdDevice};

const SF: f64 = 0.0125;

fn make_db() -> Arc<Db> {
    let dev = Arc::new(SsdDevice::new(SsdConfig {
        logical_capacity: 1 << 30,
        ..SsdConfig::paper_default()
    }));
    let ssd = Ssd::new(Fs::format(dev), CoreConfig::paper_default());
    let mut db = Db::new(ssd, HostConfig::paper_default(), DbConfig::paper_default());
    let data = TpchData::generate(SF, 42);
    data.load_into(&mut db).unwrap();
    Arc::new(db)
}

fn run_suite(db: Arc<Db>, mode: ExecMode) -> Vec<QueryOutput> {
    let sim = Simulation::new(0);
    let out: Arc<Mutex<Vec<QueryOutput>>> = Arc::new(Mutex::new(Vec::new()));
    let o = Arc::clone(&out);
    sim.spawn("host", move |ctx| {
        for q in all_queries() {
            let r = q
                .run(&db, ctx, mode, HostLoad::IDLE)
                .unwrap_or_else(|e| panic!("Q{} failed: {e}", q.id));
            o.lock().push(r);
        }
    });
    sim.run().assert_quiescent();
    let result = out.lock().drain(..).collect();
    result
}

/// The suite's outputs in Conv and Biscuit mode, run once for every test.
fn suites() -> &'static (Vec<QueryOutput>, Vec<QueryOutput>) {
    static SUITES: OnceLock<(Vec<QueryOutput>, Vec<QueryOutput>)> = OnceLock::new();
    SUITES.get_or_init(|| {
        let db = make_db();
        let conv = run_suite(Arc::clone(&db), ExecMode::Conv);
        let bis = run_suite(db, ExecMode::Biscuit);
        (conv, bis)
    })
}

fn values_close(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() / scale < 1e-9
        }
        _ => a == b,
    }
}

fn rows_close(a: &[biscuit_db::Row], b: &[biscuit_db::Row]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.len() == rb.len() && ra.iter().zip(rb).all(|(x, y)| values_close(x, y))
        })
}

#[test]
fn tpch_suite_conv_vs_biscuit() {
    let (conv, bis) = suites();

    // 1. Results agree across modes (offload-correctness invariant).
    let mut failures = Vec::new();
    for ((q, c), b) in all_queries().iter().zip(conv).zip(bis) {
        if !rows_close(&c.rows, &b.rows) {
            failures.push(format!(
                "Q{}: conv {} rows vs biscuit {} rows\n  conv first: {:?}\n  bis first:  {:?}",
                q.id,
                c.rows.len(),
                b.rows.len(),
                c.rows.first(),
                b.rows.first()
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "result mismatches:\n{}",
        failures.join("\n")
    );

    // 2. Offload pattern matches the paper's structure: ~8 queries offload,
    //    including Q14/Q6; the paper's named non-candidates never offload;
    //    Conv mode never offloads anything.
    let offloaded: Vec<usize> = all_queries()
        .iter()
        .zip(bis)
        .filter(|(_, out)| !out.stats.offloaded_tables.is_empty())
        .map(|(q, _)| q.id)
        .collect();
    assert!(
        offloaded.contains(&14),
        "Q14 must offload, got {offloaded:?}"
    );
    assert!(offloaded.contains(&6), "Q6 must offload, got {offloaded:?}");
    for never in [1, 13, 16, 18, 21, 22] {
        assert!(
            !offloaded.contains(&never),
            "Q{never} must not offload, got {offloaded:?}"
        );
    }
    assert!(
        (6..=10).contains(&offloaded.len()),
        "expected ~8 offloaded queries, got {offloaded:?}"
    );
    assert!(conv.iter().all(|o| o.stats.offloaded_tables.is_empty()));

    // 3. Biscuit wins in total time (paper: 3.6x) and never regresses much
    //    on any single query.
    let conv_total: f64 = conv.iter().map(|o| o.stats.elapsed.as_secs_f64()).sum();
    let bis_total: f64 = bis.iter().map(|o| o.stats.elapsed.as_secs_f64()).sum();
    assert!(
        bis_total * 1.5 < conv_total,
        "total: biscuit {bis_total}s vs conv {conv_total}s"
    );
    for ((q, c), b) in all_queries().iter().zip(conv).zip(bis) {
        let (ct, bt) = (c.stats.elapsed.as_secs_f64(), b.stats.elapsed.as_secs_f64());
        assert!(
            bt < ct * 1.25 + 0.01,
            "Q{} regressed: biscuit {bt}s vs conv {ct}s",
            q.id
        );
    }

    // 4. Q14 is the standout (paper: 166.8x speedup, 315.4x I/O reduction).
    let idx = 13;
    let speedup = conv[idx].stats.elapsed.as_secs_f64() / bis[idx].stats.elapsed.as_secs_f64();
    let io_reduction =
        conv[idx].stats.link_bytes_to_host as f64 / bis[idx].stats.link_bytes_to_host.max(1) as f64;
    assert!(speedup > 5.0, "Q14 speedup only {speedup:.1}x");
    assert!(
        io_reduction > 10.0,
        "Q14 I/O reduction only {io_reduction:.1}x"
    );
}

/// FNV-1a of each query's rows as `Debug` spells them, per mode: every
/// float bit and the row order. Conv and Biscuit digests differ where the
/// modes sum floats in different orders (Q5, Q14).
const DIGESTS: [(usize, u64, u64); 22] = [
    (1, 0xf6ebcfe8f2276bca, 0xf6ebcfe8f2276bca),
    (2, 0xc2c0cbf35fbfde65, 0xc2c0cbf35fbfde65),
    (3, 0x8a9030f41e5472a2, 0x8a9030f41e5472a2),
    (4, 0xfda19bf63c45029d, 0xfda19bf63c45029d),
    (5, 0x639f9cf71b25c5eb, 0xe0d96c70f7d632e4),
    (6, 0x27d9baf42ec1e2c0, 0x27d9baf42ec1e2c0),
    (7, 0x53517859444f678e, 0x53517859444f678e),
    (8, 0x21a00c6cce2462d5, 0x21a00c6cce2462d5),
    (9, 0x5a17f53c17f7fa89, 0x5a17f53c17f7fa89),
    (10, 0xa4be03c1826e951c, 0xa4be03c1826e951c),
    (11, 0xf489fab2f3c8e60f, 0xf489fab2f3c8e60f),
    (12, 0xab87b41b6e40cd61, 0xab87b41b6e40cd61),
    (13, 0xfa3116d2851a90cc, 0xfa3116d2851a90cc),
    (14, 0xf274901f17dec3fd, 0x6b7d185aa3a390c2),
    (15, 0x516907e375dec3a8, 0x516907e375dec3a8),
    (16, 0x3c3baa00784ee708, 0x3c3baa00784ee708),
    (17, 0xc5b56bdf0f5df6c8, 0xc5b56bdf0f5df6c8),
    (18, 0x09612b07b5ecb5a5, 0x09612b07b5ecb5a5),
    (19, 0xdb121717a4da7fac, 0xdb121717a4da7fac),
    (20, 0xac31f64098adeb59, 0xac31f64098adeb59),
    (21, 0x51ec5d28c383163d, 0x51ec5d28c383163d),
    (22, 0x09612b07b5ecb5a5, 0x09612b07b5ecb5a5),
];

/// FNV-1a, 64-bit: the digest `DIGESTS` records.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn tpch_outputs_are_bit_exact() {
    let (conv, bis) = suites();
    let digest = |out: &QueryOutput| fnv64(format!("{:?}", out.rows).as_bytes());
    let got: Vec<(usize, u64, u64)> = all_queries()
        .iter()
        .zip(conv)
        .zip(bis)
        .map(|((q, c), b)| (q.id, digest(c), digest(b)))
        .collect();
    assert_eq!(got, DIGESTS);
}
