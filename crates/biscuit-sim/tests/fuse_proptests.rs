//! Property-based determinism tests for inline sleeps.
//!
//! The load-bearing contract of `Ctx::sleep` (see `docs/PERF.md`): with the
//! same seed and workload, a simulation produces **byte-identical** exports
//! — Chrome trace, query profiles, metrics (minus the engine's own
//! dispatch-path meters, [`biscuit_sim::fuse::VARIANT_METRICS`]), end time,
//! and event count — whether sleeps may advance inline or always park
//! (`Simulation::set_fuse`). The property randomizes each fiber's mix of
//! `sleep`, `sleep_until`, `yield_now`, queue pushes and deadline pops, on
//! a coarse time grid so peer wakes land on equal timestamps; the
//! device-level variants (faults, fleet thread policies) live in
//! `tests/fuse.rs` at the repo root.

use std::sync::Arc;

use biscuit_sim::sync::Mutex;
use proptest::prelude::*;

use biscuit_sim::fuse::VARIANT_METRICS;
use biscuit_sim::queue::SimQueue;
use biscuit_sim::time::{SimDuration, SimTime};
use biscuit_sim::{Simulation, Stage, TraceConfig};

/// One step of a fiber's program. Times are in microseconds.
#[derive(Debug, Clone)]
enum Op {
    Sleep(u64),
    /// Absolute target on a 5 us grid (a no-op once it has passed), so
    /// several fibers wake at the same timestamp.
    SleepUntil(u64),
    Yield,
    /// Non-blocking push: wakes a peer parked in `PopDeadline`, if any.
    Push,
    /// Pop giving up after this long: arms a timeout wake that goes stale
    /// when a push arrives first.
    PopDeadline(u64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..7).prop_map(Op::Sleep),
        (0u64..12).prop_map(|slot| Op::SleepUntil(slot * 5)),
        Just(Op::Yield),
        Just(Op::Push),
        (0u64..9).prop_map(Op::PopDeadline),
    ]
}

/// Complete observable surface of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Observed {
    end_time_ps: u64,
    events: u64,
    log: Vec<(usize, usize, u64)>,
    trace: String,
    profiles: String,
    metrics: String,
}

/// Runs one fiber per program over a shared two-slot queue, each inside its
/// own profiled query, under the given engine.
fn run_workload(programs: &[Vec<Op>], fuse: bool) -> Observed {
    let sim = Simulation::new(0);
    sim.set_fuse(fuse);
    sim.enable_metrics();
    sim.enable_trace(TraceConfig::default());
    sim.enable_qprof();
    let q: SimQueue<u64> = SimQueue::labelled(2, "q");
    let log: Arc<Mutex<Vec<(usize, usize, u64)>>> = Arc::new(Mutex::new(Vec::new()));

    for (i, program) in programs.iter().cloned().enumerate() {
        let (q, log) = (q.clone(), Arc::clone(&log));
        sim.spawn(format!("f{i}"), move |ctx| {
            let span = ctx.qprof().begin_query(ctx, i as u32);
            for (step, op) in program.into_iter().enumerate() {
                let t0 = ctx.now();
                match op {
                    Op::Sleep(us) => ctx.sleep(SimDuration::from_micros(us)),
                    Op::SleepUntil(us) => {
                        ctx.sleep_until(SimTime::ZERO + SimDuration::from_micros(us))
                    }
                    Op::Yield => ctx.yield_now(),
                    Op::Push => {
                        let _ = q.try_push(ctx, step as u64);
                    }
                    Op::PopDeadline(us) => {
                        let _ = q.pop_deadline(ctx, t0 + SimDuration::from_micros(us));
                    }
                }
                ctx.qprof()
                    .record(Stage::HostCompute, t0, ctx.now(), 0, i as u32);
                log.lock().push((i, step, ctx.now().as_micros()));
            }
            if let Some(sc) = span {
                ctx.qprof().end_query(ctx, sc);
            }
        });
    }

    let report = sim.run();
    report.assert_quiescent();
    let log = log.lock().clone();
    Observed {
        end_time_ps: report.end_time.as_ps(),
        events: report.events_processed,
        log,
        trace: report.trace.to_chrome_json(),
        profiles: report.profiles.to_json(),
        metrics: report.metrics.without(VARIANT_METRICS).to_json(),
    }
}

fn programs() -> impl Strategy<Value = Vec<Vec<Op>>> {
    prop::collection::vec(prop::collection::vec(op(), 1..14), 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Inline and always-park runs of the same randomized workload are
    /// byte-identical on every export.
    #[test]
    fn fuse_is_observationally_invisible(programs in programs()) {
        let parked = run_workload(&programs, false);
        let inline = run_workload(&programs, true);
        prop_assert_eq!(&inline, &parked);
    }
}
