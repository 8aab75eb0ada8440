//! Zero-copy accounting for the device-resident grep path.
//!
//! Every memcpy on the NAND-to-result data path increments
//! `sim_bytes_copied_total{site}`. With pages shared as `Buf` handles and
//! synthetic pages cached on the device, a grep scan must duplicate each
//! page's bytes at most once — even across repeated passes over the file.

use std::sync::Arc;

use biscuit::apps::search::{biscuit_grep, load_grep_module};
use biscuit::apps::weblog::{WeblogGen, NEEDLE};
use biscuit::core::{CoreConfig, Ssd};
use biscuit::fs::{Fs, Mode};
use biscuit::sim::Simulation;
use biscuit::ssd::{SsdConfig, SsdDevice};

#[test]
fn grep_path_copies_each_page_at_most_once() {
    const PAGES: u64 = 128;
    let device = Arc::new(SsdDevice::new(SsdConfig {
        logical_capacity: 64 << 20,
        ..SsdConfig::paper_default()
    }));
    let page = device.config().page_size as u64;
    let fs = Fs::format(Arc::clone(&device));
    let gen = WeblogGen::new(7, 400);
    fs.create_synthetic("log", PAGES * page, Arc::new(gen.clone()))
        .unwrap();
    let file = fs.open("log", Mode::ReadOnly).unwrap();
    let ssd = Ssd::new(fs, CoreConfig::paper_default());
    let expected = gen.count_needles(PAGES, page as usize);

    let sim = Simulation::new(0);
    sim.enable_metrics();
    sim.spawn("host", move |ctx| {
        let mid = load_grep_module(ctx, &ssd).unwrap();
        let first = biscuit_grep(ctx, &ssd, mid, &file, NEEDLE.as_bytes()).unwrap();
        let second = biscuit_grep(ctx, &ssd, mid, &file, NEEDLE.as_bytes()).unwrap();
        assert_eq!(first, expected);
        assert_eq!(second, expected);
    });
    let report = sim.run();
    report.assert_quiescent();
    let snap = report.metrics;

    let corpus = PAGES * page;
    // Each synthetic page is rendered into its frame exactly once; the second
    // pass is served from the shared Buf cache without touching the bytes.
    let synth = snap
        .counter_value("sim_bytes_copied_total", &[("site", "nand_synth")])
        .unwrap_or(0);
    assert_eq!(
        synth, corpus,
        "each page must be materialized exactly once across both grep passes"
    );
    // The device-resident path never stages writes or reassembles pages on
    // the host, so no other page-sized copy site may fire.
    for site in ["host_read_assemble", "device_write_stage"] {
        assert_eq!(
            snap.counter_value("sim_bytes_copied_total", &[("site", site)])
                .unwrap_or(0),
            0,
            "unexpected page copies at site {site}"
        );
    }
    // Port traffic carries only match counts and module metadata; total
    // copied bytes stay within one corpus pass plus that small overhead.
    let total = snap.counter_sum("sim_bytes_copied_total");
    assert!(
        total <= corpus + corpus / 8,
        "total bytes copied {total} exceeds one corpus pass ({corpus}) plus slack"
    );
}
