//! Cross-crate integration tests through the `biscuit` facade: full stacks
//! from workload generator through filesystem, device, framework, and
//! application, in one simulation.

use std::sync::Arc;

use biscuit::sim::sync::Mutex;

use biscuit::apps::graph::{biscuit_chase, chase_module, conv_chase, ChaseArgs, SocialGraph};
use biscuit::apps::search::{biscuit_grep, conv_grep, load_grep_module};
use biscuit::apps::weblog::{WeblogGen, NEEDLE};
use biscuit::apps::{reference_wordcount, run_wordcount};
use biscuit::core::{CoreConfig, Ssd};
use biscuit::fs::{Fs, Mode};
use biscuit::host::{ConvIo, HostConfig, HostLoad};
use biscuit::sim::Simulation;
use biscuit::ssd::{SsdConfig, SsdDevice};

fn make_platform(capacity: u64) -> (Ssd, ConvIo) {
    let device = Arc::new(SsdDevice::new(SsdConfig {
        logical_capacity: capacity,
        ..SsdConfig::paper_default()
    }));
    let ssd = Ssd::new(Fs::format(device), CoreConfig::paper_default());
    let conv = ConvIo::new(
        Arc::clone(ssd.device()),
        Arc::clone(ssd.link()),
        HostConfig::paper_default(),
    );
    (ssd, conv)
}

#[test]
fn wordcount_end_to_end() {
    let (ssd, _conv) = make_platform(64 << 20);
    let corpus = "near data processing moves compute to data not data to compute ".repeat(300);
    ssd.fs().create("corpus").unwrap();
    ssd.fs()
        .append_untimed("corpus", corpus.as_bytes())
        .unwrap();
    let file = ssd.fs().open("corpus", Mode::ReadOnly).unwrap();
    let expected = reference_wordcount(corpus.as_bytes());

    let sim = Simulation::new(0);
    let got: Arc<Mutex<Vec<(String, u32)>>> = Arc::new(Mutex::new(Vec::new()));
    let g = Arc::clone(&got);
    sim.spawn("host", move |ctx| {
        *g.lock() = run_wordcount(ctx, &ssd, &file, 2, 3).unwrap();
    });
    sim.run().assert_quiescent();
    assert_eq!(*got.lock(), expected);
}

#[test]
fn search_and_chase_share_one_device() {
    // Two different applications (grep + chase) on the same SSD in one
    // simulation: module coexistence, port isolation, shared datapath.
    let (ssd, conv) = make_platform(512 << 20);
    let page = ssd.device().config().page_size as u64;
    let gen = WeblogGen::new(3, 500);
    ssd.fs()
        .create_synthetic("log", 512 * page, Arc::new(gen.clone()))
        .unwrap();
    let log = ssd.fs().open("log", Mode::ReadOnly).unwrap();
    let graph = SocialGraph::generate(5_000, 9);
    ssd.fs().create("graph").unwrap();
    ssd.fs().append_untimed("graph", graph.as_bytes()).unwrap();
    let gfile = ssd.fs().open("graph", Mode::ReadOnly).unwrap();
    let expected_needles = gen.count_needles(512, page as usize);
    let expected_checksum = graph.reference_walk(3, 40, 21);

    let sim = Simulation::new(0);
    let ok = Arc::new(Mutex::new(false));
    let ok2 = Arc::clone(&ok);
    sim.spawn("host", move |ctx| {
        let grep_mid = load_grep_module(ctx, &ssd).unwrap();
        let chase_mid = ssd.load_module(ctx, chase_module()).unwrap();

        let n = biscuit_grep(ctx, &ssd, grep_mid, &log, NEEDLE.as_bytes()).unwrap();
        assert_eq!(n, expected_needles);
        let n_conv = conv_grep(ctx, &conv, &log, NEEDLE.as_bytes(), HostLoad::IDLE).unwrap();
        assert_eq!(n_conv, expected_needles);

        let c = biscuit_chase(
            ctx,
            &ssd,
            chase_mid,
            ChaseArgs {
                file: gfile.clone(),
                walks: 3,
                steps: 40,
                seed: 21,
                vertices: 5_000,
            },
        )
        .unwrap();
        assert_eq!(c, expected_checksum);
        let c_conv = conv_chase(ctx, &conv, &gfile, 3, 40, 21, 5_000, HostLoad::IDLE).unwrap();
        assert_eq!(c_conv, expected_checksum);

        ssd.unload_module(ctx, grep_mid).unwrap();
        ssd.unload_module(ctx, chase_mid).unwrap();
        *ok2.lock() = true;
    });
    sim.run().assert_quiescent();
    assert!(*ok.lock());
}

#[test]
fn tpch_q14_equality_through_facade() {
    use biscuit::db::spec::ExecMode;
    use biscuit::db::tpch::{all_queries, TpchData};
    use biscuit::db::{Db, DbConfig};

    let (ssd, _conv) = make_platform(1 << 30);
    let mut db = Db::new(ssd, HostConfig::paper_default(), DbConfig::paper_default());
    TpchData::generate(0.01, 1).load_into(&mut db).unwrap();
    let db = Arc::new(db);
    let sim = Simulation::new(0);
    let ok = Arc::new(Mutex::new(false));
    let ok2 = Arc::clone(&ok);
    sim.spawn("host", move |ctx| {
        let q14 = all_queries().into_iter().nth(13).unwrap();
        let conv = q14.run(&db, ctx, ExecMode::Conv, HostLoad::IDLE).unwrap();
        let bis = q14
            .run(&db, ctx, ExecMode::Biscuit, HostLoad::IDLE)
            .unwrap();
        let (a, b) = (
            conv.rows[0][0].as_f64().unwrap(),
            bis.rows[0][0].as_f64().unwrap(),
        );
        assert!((a - b).abs() < 1e-6, "promo% differs: {a} vs {b}");
        assert_eq!(bis.stats.offloaded_tables, vec!["lineitem".to_string()]);
        assert!(bis.stats.elapsed < conv.stats.elapsed);
        *ok2.lock() = true;
    });
    sim.run().assert_quiescent();
    assert!(*ok.lock());
}

#[test]
fn load_sensitivity_matrix() {
    // Conv paths degrade with host load; Biscuit paths do not. One device,
    // both applications, all load levels.
    let (ssd, conv) = make_platform(256 << 20);
    let page = ssd.device().config().page_size as u64;
    ssd.fs()
        .create_synthetic("log", 1024 * page, Arc::new(WeblogGen::new(3, 500)))
        .unwrap();
    let log = ssd.fs().open("log", Mode::ReadOnly).unwrap();

    let sim = Simulation::new(0);
    let times: Arc<Mutex<Vec<(u32, f64, f64)>>> = Arc::new(Mutex::new(Vec::new()));
    let t2 = Arc::clone(&times);
    sim.spawn("host", move |ctx| {
        let mid = load_grep_module(ctx, &ssd).unwrap();
        for threads in [0u32, 6, 12, 18, 24] {
            let t0 = ctx.now();
            conv_grep(ctx, &conv, &log, NEEDLE.as_bytes(), HostLoad::new(threads)).unwrap();
            let conv_t = (ctx.now() - t0).as_secs_f64();
            let t1 = ctx.now();
            biscuit_grep(ctx, &ssd, mid, &log, NEEDLE.as_bytes()).unwrap();
            let bis_t = (ctx.now() - t1).as_secs_f64();
            t2.lock().push((threads, conv_t, bis_t));
        }
    });
    sim.run().assert_quiescent();
    let times = times.lock();
    // Conv strictly increases with load.
    for w in times.windows(2) {
        assert!(w[1].1 > w[0].1, "conv time must grow with load: {times:?}");
    }
    // Biscuit flat within 5%.
    let b0 = times[0].2;
    assert!(times.iter().all(|&(_, _, b)| (b - b0).abs() / b0 < 0.05));
    // Speedup grows with load (paper Table V trend).
    assert!(times.last().unwrap().1 / times.last().unwrap().2 > times[0].1 / times[0].2);
}
