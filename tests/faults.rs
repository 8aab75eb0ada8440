//! Fault-matrix integration test: every fault kind crossed with its
//! recovery policy over a mini TPC-H workload (Q1 on the conventional
//! datapath, Q6 on the offload datapath), asserting the two invariants the
//! fault framework promises:
//!
//! (a) query results are identical to the fault-free run — read retries,
//!     block retirement, link replays, core stalls, SSDlet restarts, and
//!     the mid-query host fallback are all result-transparent; and
//! (b) with the same seed, trace and metrics exports are byte-identical
//!     across repeated runs — recovery is deterministic, so any failure
//!     can be replayed exactly from its seed.

use std::sync::Arc;

use biscuit::sim::sync::Mutex;

use biscuit::core::{CoreConfig, Ssd};
use biscuit::db::spec::ExecMode;
use biscuit::db::tpch::{all_queries, TpchData};
use biscuit::db::{Db, DbConfig, Row};
use biscuit::fs::Fs;
use biscuit::host::{HostConfig, HostLoad};
use biscuit::sim::fault::{FaultConfig, FaultPlan, FaultSite};
use biscuit::sim::metrics::MetricsSnapshot;
use biscuit::sim::time::SimDuration;
use biscuit::sim::{Simulation, TraceConfig};
use biscuit::ssd::{SsdConfig, SsdDevice};

#[path = "support/fault_sites.rs"]
mod fault_sites;

const SF: f64 = 0.0125;
const SEED: u64 = 0xB15C;

fn make_db() -> Arc<Db> {
    let dev = Arc::new(SsdDevice::new(SsdConfig {
        logical_capacity: 1 << 30,
        ..SsdConfig::paper_default()
    }));
    let ssd = Ssd::new(Fs::format(dev), CoreConfig::paper_default());
    let mut db = Db::new(ssd, HostConfig::paper_default(), DbConfig::paper_default());
    TpchData::generate(SF, 42).load_into(&mut db).unwrap();
    Arc::new(db)
}

/// Runs Q1 (conventional datapath) and Q6 (offloaded scan) in Biscuit mode
/// on a freshly built platform, optionally armed with a fault plan. With a
/// plan the run is metered, and its metrics are returned with the rows.
fn run_mini_tpch(plan: Option<&FaultPlan>) -> (Vec<Row>, Vec<Row>, MetricsSnapshot) {
    let db = make_db();
    let sim = Simulation::new(0);
    if let Some(p) = plan {
        db.ssd().attach_fault_plan(p);
        sim.enable_metrics();
    }
    let out: Arc<Mutex<Vec<Vec<Row>>>> = Arc::new(Mutex::new(Vec::new()));
    let o = Arc::clone(&out);
    sim.spawn("host", move |ctx| {
        for id in [1, 6] {
            let q = all_queries().into_iter().find(|q| q.id == id).unwrap();
            let r = q
                .run(&db, ctx, ExecMode::Biscuit, HostLoad::IDLE)
                .unwrap_or_else(|e| panic!("Q{id} failed under faults: {e}"));
            o.lock().push(r.rows);
        }
    });
    let report = sim.run();
    report.assert_quiescent();
    let mut rows = out.lock().drain(..).collect::<Vec<_>>();
    let q6 = rows.pop().unwrap();
    let q1 = rows.pop().unwrap();
    (q1, q6, report.metrics)
}

/// One row of the fault matrix: a fault kind (via its config) plus the
/// counter-level assertions, on the plan and on the run's metrics, that
/// prove its recovery policy actually ran.
struct MatrixEntry {
    name: &'static str,
    cfg: FaultConfig,
    check: fn(&FaultPlan, &MetricsSnapshot),
}

fn matrix() -> Vec<MatrixEntry> {
    vec![
        MatrixEntry {
            name: "nand read error -> escalating read-retry",
            cfg: FaultConfig {
                nand_read_error_rate: 0.05,
                ..FaultConfig::default()
            },
            check: |p, m| {
                assert!(p.recovered_at(FaultSite::NandRead) >= 1, "read retries ran");
                assert_eq!(m.counter_sum("fault_failed_total"), 0);
            },
        },
        MatrixEntry {
            name: "uncorrectable ECC -> FTL bad-block retirement",
            cfg: FaultConfig {
                nand_read_error_rate: 0.01,
                nand_uncorrectable_rate: 1.0,
                ..FaultConfig::default()
            },
            check: |p, m| {
                assert!(p.recovered_at(FaultSite::NandRead) >= 1, "blocks retired");
                assert_eq!(m.counter_sum("fault_failed_total"), 0);
            },
        },
        MatrixEntry {
            name: "link corruption -> CRC replay with backoff",
            cfg: FaultConfig {
                link_corrupt_rate: 0.02,
                ..FaultConfig::default()
            },
            check: |p, m| {
                let replays =
                    p.recovered_at(FaultSite::LinkToHost) + p.recovered_at(FaultSite::LinkToDevice);
                assert!(replays >= 1, "link replays ran");
                assert_eq!(m.counter_sum("fault_failed_total"), 0);
            },
        },
        MatrixEntry {
            name: "device-core stall -> absorbed in request overhead",
            cfg: FaultConfig {
                core_stall_rate: 0.1,
                ..FaultConfig::default()
            },
            check: |p, m| {
                assert!(p.recovered_at(FaultSite::CoreStall) >= 1, "stalls resumed");
                assert_eq!(m.counter_sum("fault_failed_total"), 0);
            },
        },
        MatrixEntry {
            name: "SSDlet panic within budget -> restart",
            cfg: FaultConfig {
                ssdlet_panics: 1,
                ssdlet_stalls: 1,
                ssdlet_max_restarts: 2,
                ..FaultConfig::default()
            },
            check: |p, m| {
                assert!(p.recovered_at(FaultSite::Ssdlet) >= 1, "restart recorded");
                assert_eq!(m.counter_sum("fault_failed_total"), 0);
            },
        },
        MatrixEntry {
            name: "SSDlet panics past budget -> host fallback",
            cfg: FaultConfig {
                ssdlet_panics: 8,
                ssdlet_stalls: 0,
                ssdlet_max_restarts: 1,
                ..FaultConfig::default()
            },
            check: |p, m| {
                assert!(
                    m.counter_sum("fault_failed_total") >= 1,
                    "restart budget exhausted"
                );
                assert!(p.recovered_at(FaultSite::Ssdlet) >= 1, "host fallback ran");
            },
        },
        MatrixEntry {
            name: "host request timeout -> abandon offload, host fallback",
            cfg: FaultConfig {
                host_timeout: Some(SimDuration::from_nanos(50)),
                ..FaultConfig::default()
            },
            check: |p, m| {
                assert!(
                    m.counter_sum("fault_failed_total") >= 1,
                    "timeout recorded as failed"
                );
                assert!(p.recovered_at(FaultSite::Ssdlet) >= 1, "host fallback ran");
            },
        },
        MatrixEntry {
            name: "all fault kinds at once",
            cfg: FaultConfig {
                nand_read_error_rate: 0.02,
                nand_uncorrectable_rate: 0.2,
                link_corrupt_rate: 0.01,
                core_stall_rate: 0.05,
                ssdlet_panics: 1,
                ssdlet_stalls: 1,
                ssdlet_max_restarts: 2,
                ..FaultConfig::default()
            },
            check: |_, m| {
                assert!(m.counter_sum("fault_injected_total") >= 1);
                assert!(m.counter_sum("fault_recovered_total") >= 1);
            },
        },
    ]
}

#[test]
fn fault_matrix_preserves_query_results() {
    let (clean_q1, clean_q6, _) = run_mini_tpch(None);
    assert!(!clean_q1.is_empty() && !clean_q6.is_empty());
    for entry in matrix() {
        let plan = FaultPlan::seeded(SEED, entry.cfg.clone());
        let (q1, q6, metrics) = run_mini_tpch(Some(&plan));
        assert_eq!(clean_q1, q1, "[{}] Q1 rows diverged", entry.name);
        assert_eq!(clean_q6, q6, "[{}] Q6 rows diverged", entry.name);
        assert!(
            metrics.counter_sum("fault_injected_total") + metrics.counter_sum("fault_failed_total")
                >= 1,
            "[{}] plan must actually fire",
            entry.name
        );
        (entry.check)(&plan, &metrics);
    }
}

/// A zero-rate armed plan must be indistinguishable from no plan at all —
/// the guarantee that lets production code keep the instrumentation sites
/// compiled in.
#[test]
fn inert_plan_matches_fault_free_run() {
    let (clean_q1, clean_q6, _) = run_mini_tpch(None);
    let plan = FaultPlan::seeded(SEED, FaultConfig::default());
    let (q1, q6, metrics) = run_mini_tpch(Some(&plan));
    assert_eq!(clean_q1, q1);
    assert_eq!(clean_q6, q6);
    assert_eq!(metrics.counter_sum("fault_injected_total"), 0);
}

/// One faulted, traced, metered run of the mini workload; returns the
/// Chrome-JSON trace and the metrics-JSON export.
fn faulted_observable_run() -> (String, String) {
    let db = make_db();
    let sim = Simulation::new(0);
    sim.enable_trace(TraceConfig::default());
    sim.enable_metrics();
    let plan = FaultPlan::seeded(
        SEED,
        FaultConfig {
            nand_read_error_rate: 0.02,
            nand_uncorrectable_rate: 0.2,
            link_corrupt_rate: 0.01,
            core_stall_rate: 0.05,
            ssdlet_panics: 1,
            ssdlet_stalls: 1,
            ssdlet_max_restarts: 2,
            ..FaultConfig::default()
        },
    );
    db.ssd().attach_fault_plan(&plan);
    sim.spawn("host", move |ctx| {
        for id in [1, 6] {
            let q = all_queries().into_iter().find(|q| q.id == id).unwrap();
            q.run(&db, ctx, ExecMode::Biscuit, HostLoad::IDLE).unwrap();
        }
    });
    let report = sim.run();
    report.assert_quiescent();
    assert!(
        report.metrics.counter_sum("fault_injected_total") >= 1,
        "faults were injected"
    );
    (report.trace.to_chrome_json(), report.metrics.to_json())
}

#[test]
fn faulted_exports_are_byte_identical_across_same_seed_runs() {
    let (trace_a, metrics_a) = faulted_observable_run();
    let (trace_b, metrics_b) = faulted_observable_run();
    assert_eq!(
        trace_a, trace_b,
        "trace export must be byte-identical for the same seed"
    );
    assert_eq!(
        metrics_a, metrics_b,
        "metrics export must be byte-identical for the same seed"
    );
    // The exports actually carry the fault observability surface.
    assert!(trace_a.contains("\"inject\""), "trace records injections");
    assert!(
        metrics_a.contains("fault_injected_total"),
        "metrics record injections"
    );
    assert!(
        metrics_a.contains("fault_recovered_total"),
        "metrics record recoveries"
    );
}

// ---------------------------------------------------------------------------
// Whole-drive loss over the scale-out array
// ---------------------------------------------------------------------------

use biscuit::apps::search::ArrayGrep;
use biscuit::apps::weblog::{WeblogGen, NEEDLE};
use biscuit::host::array::ArrayConfig;
use biscuit::host::SsdArray;
use biscuit::sim::fault::DriveLossPhase;

const LOSS_DRIVES: usize = 4;
const LOSS_SHARD_PAGES: u64 = 40;

fn grep_array() -> (SsdArray, u64) {
    let mut expected = 0u64;
    let drives: Vec<Ssd> = (0..LOSS_DRIVES)
        .map(|i| {
            let dev = Arc::new(SsdDevice::new(SsdConfig {
                logical_capacity: 32 << 20,
                ..SsdConfig::paper_default()
            }));
            let fs = Fs::format(dev);
            let page = fs.device().config().page_size as u64;
            let gen = Arc::new(WeblogGen::new(300 + i as u64, 200));
            expected += gen.count_needles(LOSS_SHARD_PAGES, page as usize);
            fs.create_synthetic("shard.log", LOSS_SHARD_PAGES * page, gen)
                .unwrap();
            Ssd::new(fs, CoreConfig::paper_default())
        })
        .collect();
    (
        SsdArray::new(drives, HostConfig::paper_default(), ArrayConfig::default()),
        expected,
    )
}

/// One metered array grep, optionally with a single drive loss armed in
/// the given phase; returns the count, the plan, and the metrics export.
fn drive_loss_run(phase: Option<DriveLossPhase>) -> (u64, FaultPlan, MetricsSnapshot) {
    drive_loss_run_armed(phase, true)
}

/// [`drive_loss_run`] with the plan armed on the array either before the
/// simulation's metrics are switched on or after.
fn drive_loss_run_armed(
    phase: Option<DriveLossPhase>,
    arm_first: bool,
) -> (u64, FaultPlan, MetricsSnapshot) {
    let (array, _) = grep_array();
    let plan = match phase {
        Some(phase) => FaultPlan::seeded(
            SEED,
            FaultConfig {
                drive_losses: 1,
                drive_loss_phase: phase,
                drive_loss_items: 0,
                host_timeout: Some(SimDuration::from_millis(20)),
                ..FaultConfig::default()
            },
        ),
        None => FaultPlan::seeded(SEED, FaultConfig::default()),
    };
    if arm_first {
        array.attach_fault_plan(&plan);
    }

    let sim = Simulation::new(0);
    sim.enable_metrics();
    if !arm_first {
        array.attach_fault_plan(&plan);
    }

    let count: Arc<Mutex<u64>> = Arc::new(Mutex::new(0));
    let out = Arc::clone(&count);
    sim.spawn("host", move |ctx| {
        let grep = ArrayGrep::prepare(ctx, &array).unwrap();
        let n = grep
            .run(ctx, &array, "shard.log", NEEDLE.as_bytes(), HostLoad::IDLE)
            .unwrap();
        *out.lock() = n;
    });
    let report = sim.run();
    report.assert_quiescent();
    let n = *count.lock();
    (n, plan, report.metrics)
}

/// A drive that dies before its job ever runs: the shard's lane stays
/// silent, the gather deadline abandons it, and its slice is re-scanned
/// through the host-side Conv path — the result does not change.
#[test]
fn drive_loss_mid_scatter_is_result_transparent() {
    let (clean, _, inert) = drive_loss_run(None);
    assert!(clean > 0, "the corpus plants needles");
    assert_eq!(inert.counter_sum("fault_injected_total"), 0);

    let (lossy, plan, snap) = drive_loss_run(Some(DriveLossPhase::MidScatter));
    assert_eq!(lossy, clean, "drive loss must not change the result");
    assert_eq!(plan.injected_at(FaultSite::Drive), 1, "the loss fired");
    assert_eq!(
        plan.recovered_at(FaultSite::Drive),
        1,
        "the shard was re-scattered"
    );

    assert!(snap.counter_value("fault_injected_total", &[("site", "drive")]) >= Some(1));
    assert!(
        snap.counter_value(
            "fault_failed_total",
            &[("site", "drive"), ("action", "gather_timeout")],
        ) >= Some(1)
    );
    assert!(
        snap.counter_value(
            "fault_recovered_total",
            &[("site", "drive"), ("action", "conv_rescatter")],
        ) >= Some(1)
    );
    assert!(snap.counter_sum("array_rescatters_total") >= 1);
}

/// A drive that dies mid-gather: its lane falls silent partway through
/// (already-merged items from the dead shard are discarded with the lane)
/// and the Conv re-scatter still reproduces the exact result.
#[test]
fn drive_loss_mid_gather_is_result_transparent() {
    let (clean, _, _) = drive_loss_run(None);
    let (lossy, plan, snap) = drive_loss_run(Some(DriveLossPhase::MidGather));
    assert_eq!(lossy, clean, "drive loss must not change the result");
    assert_eq!(plan.injected_at(FaultSite::Drive), 1);
    assert_eq!(plan.recovered_at(FaultSite::Drive), 1);
    assert!(snap.counter_sum("fault_failed_total") >= 1);
    assert!(snap.counter_value("fault_injected_total", &[("site", "drive")]) >= Some(1));
    assert!(
        snap.counter_value(
            "fault_recovered_total",
            &[("site", "drive"), ("action", "conv_rescatter")],
        ) >= Some(1)
    );
}

/// The plan reports where it fires, so arming it before the simulation's
/// metrics exist and arming it after count the same faults — the whole
/// export is the same bytes.
#[test]
fn fault_counters_do_not_depend_on_arming_order() {
    let (n_first, plan_first, snap_first) =
        drive_loss_run_armed(Some(DriveLossPhase::MidScatter), true);
    let (n_late, plan_late, snap_late) =
        drive_loss_run_armed(Some(DriveLossPhase::MidScatter), false);
    assert_eq!(n_first, n_late);
    assert_eq!(snap_first.to_json(), snap_late.to_json());
    for (plan, snap) in [(&plan_first, &snap_first), (&plan_late, &snap_late)] {
        fault_sites::assert_plan_matches_metrics(plan, snap);
        assert!(snap.counter_value("fault_injected_total", &[("site", "drive")]) >= Some(1));
    }
}

// ---------------------------------------------------------------------------
// Power loss: journal-replay recovery, crashed mid-write and mid-GC
// ---------------------------------------------------------------------------

use biscuit::fs::{FsError, Mode};
use biscuit::sim::fault::PowerLossPhase;
use biscuit::sim::Ctx;

const PL_SCRATCH: &str = "scratch.dat";
const PL_SCRATCH_BYTES: u64 = 4 << 20;
const PL_ROUNDS: u64 = 6;

/// Tiny-geometry drive (2x2 dies, 1 MiB blocks, 24 MiB logical) so the
/// overwrite phase below cycles the free pool several times over: GC runs
/// repeatedly and a seeded crash can land inside it. `paper_default`'s
/// 64-die granule never feels write pressure in a test-sized run.
fn make_pl_db() -> Arc<Db> {
    let dev = Arc::new(SsdDevice::new(SsdConfig {
        channels: 2,
        ways: 2,
        pages_per_block: 64,
        logical_capacity: 24 << 20,
        ..SsdConfig::paper_default()
    }));
    let ssd = Ssd::new(Fs::format(dev), CoreConfig::paper_default());
    let mut db = Db::new(ssd, HostConfig::paper_default(), DbConfig::paper_default());
    TpchData::generate(SF, 42).load_into(&mut db).unwrap();
    Arc::new(db)
}

fn pl_payload(round: u64) -> Vec<u8> {
    (0..PL_SCRATCH_BYTES)
        .map(|i| (round.wrapping_mul(157).wrapping_add(i / 64)) as u8)
        .collect()
}

/// One full scratch-file overwrite per round. Rewriting the same range is
/// idempotent, so a host that crashed partway simply recovers the device
/// and calls this again from round zero.
fn pl_write_phase(ctx: &Ctx, fs: &Fs) -> Result<(), FsError> {
    let f = match fs.open(PL_SCRATCH, Mode::ReadWrite) {
        Ok(f) => f,
        Err(FsError::NotFound(_)) => fs.create(PL_SCRATCH)?,
        Err(e) => return Err(e),
    };
    for round in 0..PL_ROUNDS {
        f.write_at(ctx, 0, &pl_payload(round))?;
    }
    Ok(())
}

fn pl_plan(phase: PowerLossPhase) -> FaultPlan {
    FaultPlan::seeded(
        SEED,
        FaultConfig {
            power_losses: 1,
            power_loss_phase: phase,
            // Mid-write instants count host page programs (the first round
            // alone issues 256); mid-GC instants count GC relocations and
            // erases, which are far rarer, so the window is tighter.
            power_loss_window: match phase {
                PowerLossPhase::MidWrite => 64,
                PowerLossPhase::MidGc => 8,
            },
            ..FaultConfig::default()
        },
    )
}

/// The mini TPC-H workload wrapped around a GC-heavy write phase,
/// optionally crashed by a seeded power loss. A crashed host replays the
/// device journal and redoes the phase, then verifies the scratch bytes,
/// syncs, and runs Q1/Q6 as usual. Returns the query rows, the logical
/// device export, and the plan.
fn pl_run(phase: Option<PowerLossPhase>) -> (Vec<Row>, Vec<Row>, String, FaultPlan) {
    let db = make_pl_db();
    let plan = match phase {
        Some(p) => pl_plan(p),
        None => FaultPlan::none(),
    };
    db.ssd().attach_fault_plan(&plan);
    let dev = Arc::clone(db.ssd().device());
    let out: Arc<Mutex<Vec<Vec<Row>>>> = Arc::new(Mutex::new(Vec::new()));
    let o = Arc::clone(&out);
    let sim = Simulation::new(0);
    sim.spawn("host", move |ctx| {
        let fs = db.ssd().fs();
        if let Err(e) = pl_write_phase(ctx, fs) {
            // The seeded instant fired: the drive is dead until the
            // journal replays.
            assert!(
                db.ssd().device().is_dead(),
                "write phase failed but the drive is alive: {e}"
            );
            let report = db.ssd().device().recover(ctx);
            assert!(
                report.replayed_records > 0 || report.torn_reverted > 0,
                "recovery replayed nothing: {report:?}"
            );
            pl_write_phase(ctx, fs).expect("redo after recovery");
        }
        let mut f = fs.open(PL_SCRATCH, Mode::ReadWrite).unwrap();
        f.sync(ctx).unwrap();
        let got = f.read_at(ctx, 0, PL_SCRATCH_BYTES).unwrap();
        assert_eq!(got, pl_payload(PL_ROUNDS - 1), "scratch bytes diverged");
        for id in [1, 6] {
            let q = all_queries().into_iter().find(|q| q.id == id).unwrap();
            let r = q
                .run(&db, ctx, ExecMode::Biscuit, HostLoad::IDLE)
                .unwrap_or_else(|e| panic!("Q{id} failed after power loss: {e}"));
            o.lock().push(r.rows);
        }
    });
    sim.run().assert_quiescent();
    let mut rows = out.lock().drain(..).collect::<Vec<_>>();
    let q6 = rows.pop().unwrap();
    let q1 = rows.pop().unwrap();
    (q1, q6, dev.export_state(), plan)
}

/// Crash during a host page program: the journal's write-ahead record (or
/// its absence, for a torn program) decides the page, replay restores the
/// acked state, the redone phase converges, and the queries are oblivious.
#[test]
fn power_loss_mid_write_recovers_to_identical_state() {
    let (clean_q1, clean_q6, clean_state, _) = pl_run(None);
    assert!(!clean_q1.is_empty() && !clean_q6.is_empty());
    let (q1, q6, state, plan) = pl_run(Some(PowerLossPhase::MidWrite));
    assert_eq!(plan.injected_at(FaultSite::PowerLoss), 1, "the crash fired");
    assert_eq!(
        plan.recovered_at(FaultSite::PowerLoss),
        1,
        "journal replay ran"
    );
    assert_eq!(clean_q1, q1, "Q1 rows diverged after power loss");
    assert_eq!(clean_q6, q6, "Q6 rows diverged after power loss");
    assert_eq!(
        clean_state, state,
        "logical export diverged from the uncrashed twin"
    );
}

/// Crash inside garbage collection — mid-relocation or right before a
/// victim erase: replay must not lose relocated pages or resurrect stale
/// pre-GC copies.
#[test]
fn power_loss_mid_gc_recovers_to_identical_state() {
    let (clean_q1, clean_q6, clean_state, _) = pl_run(None);
    let (q1, q6, state, plan) = pl_run(Some(PowerLossPhase::MidGc));
    assert_eq!(
        plan.injected_at(FaultSite::PowerLoss),
        1,
        "the crash fired mid-GC (the write phase must reach GC pressure)"
    );
    assert_eq!(plan.recovered_at(FaultSite::PowerLoss), 1);
    assert_eq!(clean_q1, q1, "Q1 rows diverged after mid-GC power loss");
    assert_eq!(clean_q6, q6, "Q6 rows diverged after mid-GC power loss");
    assert_eq!(
        clean_state, state,
        "logical export diverged from the uncrashed twin"
    );
}

/// One traced, metered crash/recover run of the power-loss workload;
/// returns the Chrome-JSON trace, the metrics export, and the physical
/// device export.
fn power_loss_observable_run(phase: PowerLossPhase) -> (String, String, String) {
    let db = make_pl_db();
    let sim = Simulation::new(0);
    sim.enable_trace(TraceConfig::default());
    sim.enable_metrics();
    let plan = pl_plan(phase);
    db.ssd().attach_fault_plan(&plan);
    let dev = Arc::clone(db.ssd().device());
    sim.spawn("host", move |ctx| {
        let fs = db.ssd().fs();
        if pl_write_phase(ctx, fs).is_err() {
            db.ssd().device().recover(ctx);
            pl_write_phase(ctx, fs).expect("redo after recovery");
        }
        let mut f = fs.open(PL_SCRATCH, Mode::ReadWrite).unwrap();
        f.sync(ctx).unwrap();
    });
    let report = sim.run();
    report.assert_quiescent();
    assert_eq!(plan.injected_at(FaultSite::PowerLoss), 1);
    (
        report.trace.to_chrome_json(),
        report.metrics.to_json(),
        dev.export_physical_state(),
    )
}

#[test]
fn power_loss_exports_are_byte_identical_across_same_seed_runs() {
    for phase in [PowerLossPhase::MidWrite, PowerLossPhase::MidGc] {
        let (trace_a, metrics_a, phys_a) = power_loss_observable_run(phase);
        let (trace_b, metrics_b, phys_b) = power_loss_observable_run(phase);
        assert_eq!(
            trace_a, trace_b,
            "[{phase:?}] trace export must be byte-identical for the same seed"
        );
        assert_eq!(
            metrics_a, metrics_b,
            "[{phase:?}] metrics export must be byte-identical for the same seed"
        );
        assert_eq!(
            phys_a, phys_b,
            "[{phase:?}] physical export must be byte-identical for the same seed"
        );
        // The exports carry the write-path observability surface.
        assert!(metrics_a.contains("ftl_gc_runs_total"), "GC was metered");
        assert!(metrics_a.contains("ftl_write_amp"), "write amp exported");
        assert!(
            metrics_a.contains("fault_injected_total"),
            "the crash is in the metrics"
        );
        assert!(
            metrics_a.contains("fault_recovered_total"),
            "the journal replay is in the metrics"
        );
    }
}
