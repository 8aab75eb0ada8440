//! Parallel-DES determinism: the shard fleet produces byte-identical
//! artifacts — merged results, Chrome traces, metrics exports — for the
//! same seed under every thread policy. This is the hard contract
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

    // Repeat the parallel runs several times: thread interleavings differ
    // from run to run, the artifacts must not. `Threads(2)` has fewer
    // workers than shards, so lanes owed by queued shards stay open and
    // the canonical merge still blocks for them in order.
    for round in 0..3 {
        for mode in [ParMode::PerShard, ParMode::Threads(2)] {
            let par = soak(mode);
            assert_eq!(par.0, single.0, "round {round}, {mode:?}: merged items");
            assert_eq!(par.1, single.1, "round {round}, {mode:?}: trace export");
            assert_eq!(par.2, single.2, "round {round}, {mode:?}: metrics export");
            assert_eq!(par.3, single.3, "round {round}, {mode:?}: event count");
        }
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
        for mode in [ParMode::PerShard, ParMode::Threads(2)] {
            let report = soak_with(ParConfig { mode, lookahead });
            let what = format!("{mode:?}/{lookahead:?}");
            assert_eq!(report.items, reference.0, "{what}: items");
            assert_eq!(report.trace_json(), reference.1, "{what}: trace");
            assert_eq!(report.metrics_json(), reference.2, "{what}: metrics");
            assert_eq!(report.events_processed(), reference.3, "{what}: events");
        }
    }
}

#[test]
fn undersized_thread_pool_matches_fleet_wide_pool() {
    // Fewer workers than shards: lanes owed by queued shards stay open
    // and the canonical merge still blocks for them in order.
    let wide = soak(ParMode::PerShard);
    let narrow = soak(ParMode::Threads(2));
    assert_eq!(narrow, wide, "thread-pool size must be unobservable");
}

#[test]
fn thread_policy_is_invisible_to_the_dispatch_meters() {
    // Every shard runs straight to drain whatever the policy, so even the
    // kernel's dispatch meters (wakes queued, real fiber hand-offs, worker
    // reuse) match the reference, shard by shard, as `metrics_json` (which
    // carries them) does in the tests above.
    let raw = |mode: ParMode| -> Vec<(u64, String)> {
        soak_with(ParConfig::new(mode))
            .reports
            .iter()
            .map(|r| {
                let switches = r.metrics.counter_sum("sim_fiber_switches_total");
                (switches, r.metrics.to_json())
            })
            .collect()
    };
    let single = raw(ParMode::Single);
    assert!(single.iter().all(|(switches, _)| *switches > 0));
    for mode in [ParMode::PerShard, ParMode::Threads(2)] {
        let par = raw(mode);
        for (shard, (got, want)) in par.iter().zip(&single).enumerate() {
            assert_eq!(got.0, want.0, "{mode:?} shard {shard}: fiber hand-offs");
            assert_eq!(got.1, want.1, "{mode:?} shard {shard}: raw metrics");
        }
    }
}

#[test]
fn env_selected_policy_matches_reference() {
    // `ParConfig::default()` reads `BISCUIT_PAR` (unset → one thread per
    // shard). CI runs this test both with the variable unset and with
    // `BISCUIT_PAR=2`; whatever policy the environment picks, the
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
    let (items, trace, metrics, events) = soak(ParMode::Single);
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
