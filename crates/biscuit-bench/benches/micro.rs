//! Exact functional outputs of three hot building blocks: host `grep`
//! (`BoyerMoore`) and pattern-matcher hit counts over a fixed 1 MiB web-log
//! corpus, and the DES kernel's context-switch count for 10 000 sleeps.
//! What these paths cost in wall time is `biscuit-perf`'s unit-cost
//! replays' to measure (`host.search.bm_ns_per_page`,
//! `ssd.pattern.scan_ns_per_page`, `sim.kernel.ns_per_event`, ...), not this
//! harness's.

use biscuit_bench::BenchReport;
use biscuit_host::search::BoyerMoore;
use biscuit_sim::time::SimDuration;
use biscuit_sim::Simulation;
use biscuit_ssd::PatternSet;

fn main() {
    let gen = biscuit_apps::weblog::WeblogGen::new(7, 50);
    let corpus = gen.generate_bytes(1 << 20, 16 << 10);
    let bm = BoyerMoore::new(biscuit_apps::weblog::NEEDLE.as_bytes());
    let matches = bm.count(&corpus);
    let pat = PatternSet::from_strs(&[biscuit_apps::weblog::NEEDLE]).expect("keys");
    let page_hits = corpus
        .chunks(16 << 10)
        .filter(|page| pat.matches(page))
        .count();

    let sim = Simulation::new(0);
    sim.enable_metrics();
    sim.spawn("spinner", |ctx| {
        for _ in 0..10_000 {
            ctx.sleep(SimDuration::from_nanos(10));
        }
    });
    let sim_report = sim.run();
    sim_report.assert_quiescent();
    let switches = sim_report.metrics.counter_sum("sim_context_switches_total");

    let mut report = BenchReport::new("micro");
    report.push_tol("boyer_moore_matches_1mib", "", None, matches as f64, 0.0);
    report.push_tol("pm_page_hits_1mib", "", None, page_hits as f64, 0.0);
    report.push_tol(
        "sim_context_switches_10k_sleeps",
        "",
        None,
        switches as f64,
        0.0,
    );
    report.set_metrics(sim_report.metrics);
    report.write();
}
