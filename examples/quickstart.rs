//! Quickstart: the paper's wordcount example (§III-E, Fig. 5) end to end.
//!
//! A host program loads the wordcount module onto the (simulated) SSD,
//! wires mappers → shuffler → reducers with typed ports, starts the
//! application, and drains `(word, count)` pairs from the device-to-host
//! ports — exactly the structure of the paper's Code 3.
//!
//! Run with: `cargo run --example quickstart`
//!
//! Set `BISCUIT_TELEMETRY=wordcount` to write three exports into the
//! directory `wordcount/`: `trace.json`, a Chrome trace of the whole
//! dataflow — every fiber, flash operation, and port message (see
//! `docs/TRACING.md`); `metrics.json`, the aggregate counters — NAND ops
//! per channel, link bytes, port traffic, scheduler activity (see
//! `docs/METRICS.md`); and `qprof.json`, a per-stage latency breakdown of
//! the run with its critical path (see `docs/QUERYPROF.md`).

use std::sync::Arc;

use biscuit::apps::{reference_wordcount, run_wordcount};
use biscuit::core::{CoreConfig, Ssd};
use biscuit::fs::{Fs, Mode};
use biscuit::sim::Simulation;
use biscuit::ssd::{SsdConfig, SsdDevice};

fn main() {
    // 1. A simulated paper-spec SSD with a formatted volume.
    let device = Arc::new(SsdDevice::new(SsdConfig {
        logical_capacity: 64 << 20,
        ..SsdConfig::paper_default()
    }));
    let fs = Fs::format(device);

    // 2. Put a text corpus on it (untimed setup, like pre-loading a dataset).
    let corpus = "how much wood would a woodchuck chuck \
                  if a woodchuck could chuck wood "
        .repeat(400);
    fs.create("corpus.txt").expect("create file");
    fs.append_untimed("corpus.txt", corpus.as_bytes())
        .expect("load corpus");
    let file = fs.open("corpus.txt", Mode::ReadOnly).expect("open");

    // 3. Run the dataflow inside the simulation.
    let ssd = Ssd::new(fs, CoreConfig::paper_default());
    let expected = reference_wordcount(corpus.as_bytes());
    let sim = Simulation::new(0);
    sim.enable_from_env();
    sim.spawn("host-program", move |ctx| {
        // The whole wordcount runs as one profiled query when
        // BISCUIT_TELEMETRY is set (a no-op span pair otherwise).
        let qp = ctx.qprof().clone();
        let span = qp.begin_query(ctx, 0);
        let t0 = ctx.now();
        let pairs = run_wordcount(ctx, &ssd, &file, 2, 2).expect("wordcount");
        println!(
            "wordcount over {} bytes on 2 mappers / 2 reducers:",
            corpus.len()
        );
        for (word, count) in &pairs {
            println!("  {word:<12} {count}");
        }
        assert_eq!(pairs, expected, "device result matches host reference");
        println!(
            "\nvirtual execution time: {} (all SSDlets ran on the simulated SSD)",
            ctx.now() - t0
        );
        if let Some(sc) = span {
            qp.end_query(ctx, sc);
        }
    });
    let report = sim.run();
    report.assert_quiescent();
    report.write_from_env().expect("write exports");
}
