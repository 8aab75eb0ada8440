//! Parallel-DES determinism: the shard fleet produces byte-identical
//! artifacts — merged results, Chrome traces, metrics exports — for the
//! same seed under both thread policies. This is the hard contract
//! documented in `docs/PARALLEL.md`: parallelism may only change
//! wall-clock time, never a single exported byte.

use biscuit::apps::search::{fleet_grep, fleet_grep_expected};
use biscuit::host::fleet::{FleetConfig, FleetReport};
use biscuit::sim::par::{ParConfig, ParMode};
use biscuit::sim::{SimDuration, TraceConfig};

const DRIVES: usize = 4;
const SHARD_PAGES: u64 = 32;
const NEEDLE_EVERY: u64 = 150;
const PASSES: usize = 2;

/// One fully-instrumented fleet soak under the given policy.
fn soak_with(par: ParConfig) -> FleetReport<u64> {
    let cfg = FleetConfig {
        drives: DRIVES,
        seed: 0xB15C,
        metrics: true,
        trace: Some(TraceConfig::default()),
        qprof: false,
        par,
    };
    let report = fleet_grep(&cfg, SHARD_PAGES, NEEDLE_EVERY, PASSES);
    report.assert_quiescent();
    let total: u64 = report.items.iter().map(|(_, c)| *c).sum();
    assert_eq!(
        total,
        fleet_grep_expected(DRIVES, SHARD_PAGES, NEEDLE_EVERY, PASSES),
        "{:?} match count",
        cfg.par.mode
    );
    report
}

/// The soak reduced to its complete observable surface: merged
/// `(shard, count)` items in canonical order, the concatenated trace
/// export, the concatenated metrics export, and the total event count.
fn soak(mode: ParMode) -> (Vec<(usize, u64)>, String, String, u64) {
    let report = soak_with(ParConfig::new(mode));
    (
        report.items.clone(),
        report.trace_json(),
        report.metrics_json(),
        report.events_processed(),
    )
}

#[test]
fn parallel_soak_is_byte_identical_to_single_threaded() {
    let single = soak(ParMode::Single);
    assert!(single.3 > 0, "the soak processes events");

    // Repeat the parallel run several times: thread interleavings differ
    // from run to run, the artifacts must not. `metrics_json` carries each
    // shard's raw snapshot, the kernel's dispatch meters (wakes queued,
    // fiber hand-offs, worker reuse) included.
    for round in 0..3 {
        let par = soak(ParMode::PerShard);
        assert_eq!(par.0, single.0, "round {round}: merged items");
        assert_eq!(par.1, single.1, "round {round}: trace export");
        assert_eq!(par.2, single.2, "round {round}: metrics export");
        assert_eq!(par.3, single.3, "round {round}: event count");
    }
}

#[test]
fn lookahead_window_never_changes_artifacts() {
    // Shards run straight to drain, so `ParConfig::lookahead` is accepted
    // and ignored: any window (or none at all) yields the same bytes.
    let reference = soak(ParMode::Single);
    for lookahead in [
        None,
        Some(SimDuration::from_micros(50)),
        Some(SimDuration::from_millis(1)),
        Some(SimDuration::from_millis(100)),
    ] {
        let report = soak_with(ParConfig {
            mode: ParMode::PerShard,
            lookahead,
        });
        assert_eq!(report.items, reference.0, "{lookahead:?}: items");
        assert_eq!(report.trace_json(), reference.1, "{lookahead:?}: trace");
        assert_eq!(report.metrics_json(), reference.2, "{lookahead:?}: metrics");
        assert_eq!(
            report.events_processed(),
            reference.3,
            "{lookahead:?}: events"
        );
    }
}

#[test]
fn env_selected_policy_matches_reference() {
    // `ParConfig::default()` reads `BISCUIT_PAR` (unset → one thread per
    // shard). CI runs this test both with the variable unset and with
    // `BISCUIT_PAR=0`; whatever policy the environment picks, the
    // artifacts must match the explicit single-threaded reference.
    let reference = soak(ParMode::Single);
    let report = soak_with(ParConfig::default());
    assert_eq!(report.items, reference.0, "env policy: merged items");
    assert_eq!(report.trace_json(), reference.1, "env policy: trace export");
    assert_eq!(
        report.metrics_json(),
        reference.2,
        "env policy: metrics export"
    );
    assert_eq!(report.events_processed(), reference.3);
}

#[test]
fn exports_are_substantive_not_vacuous() {
    // Guard against a vacuous pass: the byte-equalities above would hold
    // trivially if the exports were empty shells. Check the artifacts
    // actually carry per-shard device activity.
    let report = soak_with(ParConfig::new(ParMode::Single));
    assert!(
        report
            .reports
            .iter()
            .all(|r| r.metrics.counter_sum("sim_fiber_switches_total") > 0),
        "every shard's dispatch meters recorded fiber hand-offs"
    );
    let trace = report.trace_json();
    let metrics = report.metrics_json();
    let events = report.events_processed();
    assert_eq!(
        report.items.len(),
        DRIVES * PASSES,
        "one count per shard per pass"
    );
    // Every page of every shard is sensed once per pass, and each sense is
    // a span in the trace. Kernel dispatches are far fewer (a scan parks
    // its fiber once per queue-depth window, not once per page), so the
    // event count is only bounded by one hand-off per shard per pass.
    let sensed = DRIVES * SHARD_PAGES as usize * PASSES;
    let spans = trace.matches("\"ph\":").count();
    assert!(
        spans >= sensed,
        "one span per page sensed per pass: {spans} < {sensed}"
    );
    assert!(
        events as usize >= DRIVES * PASSES,
        "every pass hands its count to the host: {events} events"
    );
    assert!(trace.starts_with("{\"shards\":["));
    assert!(metrics.starts_with("{\"shards\":["));
    assert!(
        metrics.matches("nand_ops_total").count() >= DRIVES,
        "every shard's registry recorded NAND work"
    );
    assert!(
        trace.contains("traceEvents"),
        "shard traces are Chrome JSON"
    );
}
