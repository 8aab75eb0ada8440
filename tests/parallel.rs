//! Parallel-DES determinism: the shard fleet produces byte-identical
//! artifacts — merged results, Chrome traces, metrics exports — for the
//! same seed under every thread policy and lookahead window. This is the
//! hard contract documented in `docs/PARALLEL.md`: parallelism may only
//! change wall-clock time, never a single exported byte.

use biscuit::apps::search::{fleet_grep, fleet_grep_expected};
use biscuit::host::fleet::FleetConfig;
use biscuit::sim::par::{ParConfig, ParMode};
use biscuit::sim::{SimDuration, TraceConfig};

const DRIVES: usize = 4;
const SHARD_PAGES: u64 = 32;
const NEEDLE_EVERY: u64 = 150;
const PASSES: usize = 2;

/// One fully-instrumented fleet soak under the given policy, reduced to
/// its complete observable surface: merged `(shard, count)` items in
/// canonical order, the concatenated trace export, the concatenated
/// metrics export, and the total event count.
fn soak(mode: ParMode, lookahead: Option<SimDuration>) -> (Vec<(usize, u64)>, String, String, u64) {
    let cfg = FleetConfig {
        drives: DRIVES,
        seed: 0xB15C,
        metrics: true,
        trace: Some(TraceConfig::default()),
        qprof: false,
        par: ParConfig { mode, lookahead },
    };
    let report = fleet_grep(&cfg, SHARD_PAGES, NEEDLE_EVERY, PASSES);
    report.assert_quiescent();
    let total: u64 = report.items.iter().map(|(_, c)| *c).sum();
    assert_eq!(
        total,
        fleet_grep_expected(DRIVES, SHARD_PAGES, NEEDLE_EVERY, PASSES),
        "{mode:?} match count"
    );
    (
        report.items.clone(),
        report.trace_json(),
        report.metrics_json(),
        report.events_processed(),
    )
}

#[test]
fn parallel_soak_is_byte_identical_to_single_threaded() {
    let window = Some(SimDuration::from_micros(500));
    let single = soak(ParMode::Single, window);
    assert!(single.3 > 0, "the soak processes events");

    // Repeat the parallel run several times: thread interleavings differ
    // from run to run, the artifacts must not.
    for round in 0..3 {
        let par = soak(ParMode::PerShard, window);
        assert_eq!(par.0, single.0, "round {round}: merged items");
        assert_eq!(par.1, single.1, "round {round}: trace export");
        assert_eq!(par.2, single.2, "round {round}: metrics export");
        assert_eq!(par.3, single.3, "round {round}: event count");
    }
}

#[test]
fn lookahead_window_never_changes_artifacts() {
    // The window bounds memory, not behavior: any window (or none at
    // all — free-running shards) yields the same bytes.
    let reference = soak(ParMode::Single, None);
    for lookahead in [
        None,
        Some(SimDuration::from_micros(50)),
        Some(SimDuration::from_millis(1)),
        Some(SimDuration::from_millis(100)),
    ] {
        for mode in [ParMode::PerShard, ParMode::Threads(2)] {
            let run = soak(mode, lookahead);
            assert_eq!(run.0, reference.0, "{mode:?}/{lookahead:?}: items");
            assert_eq!(run.1, reference.1, "{mode:?}/{lookahead:?}: trace");
            assert_eq!(run.2, reference.2, "{mode:?}/{lookahead:?}: metrics");
            assert_eq!(run.3, reference.3, "{mode:?}/{lookahead:?}: events");
        }
    }
}

#[test]
fn undersized_thread_pool_matches_fleet_wide_pool() {
    // Fewer workers than shards: lanes owed by queued shards stay open
    // and the canonical merge still blocks for them in order.
    let window = Some(SimDuration::from_micros(200));
    let wide = soak(ParMode::PerShard, window);
    let narrow = soak(ParMode::Threads(2), window);
    assert_eq!(narrow, wide, "thread-pool size must be unobservable");
}

#[test]
fn env_selected_policy_matches_reference() {
    // `ParConfig::default()` reads `BISCUIT_PAR` (unset → one thread per
    // shard). CI runs this test both with the variable unset and with
    // `BISCUIT_PAR=2`; whatever policy the environment picks, the
    // artifacts must match the explicit single-threaded reference.
    let reference = soak(ParMode::Single, ParConfig::default().lookahead);
    let cfg = FleetConfig {
        drives: DRIVES,
        seed: 0xB15C,
        metrics: true,
        trace: Some(TraceConfig::default()),
        qprof: false,
        par: ParConfig::default(),
    };
    let report = fleet_grep(&cfg, SHARD_PAGES, NEEDLE_EVERY, PASSES);
    report.assert_quiescent();
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
    let (items, trace, metrics, events) = soak(ParMode::Single, None);
    assert_eq!(items.len(), DRIVES * PASSES, "one count per shard per pass");
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
