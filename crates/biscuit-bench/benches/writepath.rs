//! Write-path bench (`docs/WRITEPATH.md`): sustained overwrite pressure
//! on a tiny-geometry drive so GC cycles the free pool several times
//! over, then seeded power-loss crashes recovered by journal replay.
//!
//! One report comes out, `BENCH_writepath.json`:
//!
//! - rows guaranteed by construction or by in-harness asserts gate
//!   exactly: `pages_written`, `lost_writes` (bytes that
//!   diverged after crash + recovery + redo), and
//!   `determinism_divergence` (two same-seed crash runs must export
//!   byte-identical physical state);
//! - the measured rows — virtual write throughput, write amplification,
//!   GC runs, GC pause p99, journal records/checkpoints and replayed
//!   records — are pure functions of the seed: the integer rows gate
//!   exactly, throughput at the tight band. The wall-clock journal-replay
//!   time is printed, not reported: it is machine-dependent, so it cannot
//!   gate.
//!
//! `WRITEPATH_SMOKE=1` skips the extra crash-matrix sweep — eight more
//! seeds crossed with both crash phases, pure asserts, no gated rows — and
//! keeps the gated workload identical.

use std::sync::Arc;

use biscuit_bench::{header, row, simulate_metered, simulate_named, BenchReport};
use biscuit_fs::{File, Fs, FsError, Mode};
use biscuit_sim::fault::{FaultConfig, FaultPlan, FaultSite, PowerLossPhase};
use biscuit_sim::time::SimTime;
use biscuit_sim::Ctx;
use biscuit_ssd::{SsdConfig, SsdDevice};

const SEED: u64 = 0xB15C;
const SCRATCH: &str = "scratch.dat";
/// 14 MiB scratch file on a 16 MiB (logical) drive: the free pool is
/// thin enough that GC fires during the first overwrite round, while
/// round 0's blocks are still mostly valid — so victims carry live
/// pages and write amplification is real, not 1.0x.
const FILE_PAGES: u64 = 896;
/// Full overwrites of the scratch file.
const ROUNDS: u64 = 6;
/// Pages per timed `write_at` batch — the latency sample the GC-pause
/// percentile is computed over. Small (1/16 of a block) so scattered
/// batch orders leave every block with mixed-lifetime pages.
const BATCH_PAGES: u64 = 4;
/// Per-round batch-walk strides, each coprime with the 224-batch count
/// (224 = 2^5 * 7: no even numbers, no multiples of 7).
const STRIDES: [u64; 6] = [1, 3, 5, 9, 11, 13];

/// Tiny-geometry drive: 2x2 dies, 1 MiB blocks, 16 MiB logical, 20
/// blocks physical. `paper_default`'s 64-die granule would never feel
/// write pressure in a bench-sized run.
fn device() -> Arc<SsdDevice> {
    Arc::new(SsdDevice::new(SsdConfig {
        channels: 2,
        ways: 2,
        pages_per_block: 64,
        logical_capacity: 16 << 20,
        ..SsdConfig::paper_default()
    }))
}

fn payload(round: u64, batch: u64, bytes: usize) -> Vec<u8> {
    let tag = round.wrapping_mul(0x9E37).wrapping_add(batch);
    (0..bytes)
        .map(|i| (tag as usize).wrapping_add(i / 64) as u8)
        .collect()
}

fn open_scratch(fs: &Fs) -> Result<File, FsError> {
    match fs.open(SCRATCH, Mode::ReadWrite) {
        Ok(f) => Ok(f),
        Err(FsError::NotFound(_)) => fs.create(SCRATCH),
        Err(e) => Err(e),
    }
}

/// The overwrite phase: `ROUNDS` full passes over the scratch file in
/// `BATCH_PAGES`-page batches, returning each batch's virtual latency.
/// Rewriting the same ranges is idempotent, so a crashed host recovers
/// the device and calls this again from round zero.
fn write_phase(ctx: &Ctx, fs: &Fs) -> Result<Vec<u64>, FsError> {
    let f = open_scratch(fs)?;
    let ps = fs.device().config().page_size as u64;
    let batch_bytes = (BATCH_PAGES * ps) as usize;
    let nbatches = FILE_PAGES / BATCH_PAGES;
    let mut lat_ps = Vec::with_capacity((ROUNDS * nbatches) as usize);
    for round in 0..ROUNDS {
        // Walk the batches in a different coprime-stride order each
        // round: a same-order sweep invalidates blocks front-to-back and
        // GC always finds a fully-dead victim (write amp exactly 1.0x);
        // scattered invalidation forces it to relocate live pages.
        let stride = STRIDES[(round % ROUNDS) as usize];
        for i in 0..nbatches {
            let batch = (i * stride + round) % nbatches;
            let t0 = ctx.now();
            f.write_at(
                ctx,
                batch * BATCH_PAGES * ps,
                &payload(round, batch, batch_bytes),
            )?;
            lat_ps.push((ctx.now() - t0).as_ps());
        }
    }
    Ok(lat_ps)
}

/// Bytes of the final file image that diverge from the last round's
/// payload (0 on a correct write path).
fn diverged_bytes(ctx: &Ctx, fs: &Fs) -> u64 {
    let f = fs.open(SCRATCH, Mode::ReadOnly).expect("scratch exists");
    let ps = fs.device().config().page_size as u64;
    let batch_bytes = (BATCH_PAGES * ps) as usize;
    let mut diverged = 0u64;
    for batch in 0..FILE_PAGES / BATCH_PAGES {
        let got = f
            .read_at(ctx, batch * BATCH_PAGES * ps, batch_bytes as u64)
            .expect("read back");
        let want = payload(ROUNDS - 1, batch, batch_bytes);
        diverged += got.iter().zip(want.iter()).filter(|(g, w)| g != w).count() as u64;
    }
    diverged
}

struct UncrashedOutcome {
    elapsed_s: f64,
    lat_ps: Vec<u64>,
    user_writes: u64,
    write_amp_milli: u64,
    journal_records: u64,
    checkpoints: u64,
    logical_export: String,
}

/// The metered uncrashed run: every measured row of the report comes
/// from here.
fn uncrashed() -> (UncrashedOutcome, biscuit_sim::metrics::MetricsSnapshot, u64) {
    let dev = device();
    let fs = Fs::format(Arc::clone(&dev));
    let d = Arc::clone(&dev);
    let (out, snap) = simulate_metered("writepath", move |ctx| {
        let lat_ps = write_phase(ctx, &fs).expect("uncrashed write phase");
        let mut f = fs.open(SCRATCH, Mode::ReadWrite).expect("scratch exists");
        f.sync(ctx).expect("sync");
        assert_eq!(diverged_bytes(ctx, &fs), 0, "uncrashed read-back diverged");
        let (user_writes, _programs, write_amp_milli) = d.write_stats();
        let (journal_records, checkpoints, _seq) = d.journal_stats();
        UncrashedOutcome {
            elapsed_s: (ctx.now() - SimTime::ZERO).as_secs_f64(),
            lat_ps,
            user_writes,
            write_amp_milli,
            journal_records,
            checkpoints,
            logical_export: d.export_state(),
        }
    });
    let gc_runs = snap.counter_sum("ftl_gc_runs_total");
    (out, snap, gc_runs)
}

struct CrashOutcome {
    replayed_records: u64,
    replay_wall_us: f64,
    lost_bytes: u64,
    logical_export: String,
    physical_export: String,
}

/// One crashed run: the seeded instant kills the drive mid-phase, the
/// host replays the journal (timed on the wall clock), remounts the volume
/// from the metadata the device kept, and redoes the phase through it. The
/// result must converge byte-for-byte.
fn crashed(phase: PowerLossPhase, seed: u64) -> CrashOutcome {
    let dev = device();
    let fs = Fs::format(Arc::clone(&dev));
    let plan = FaultPlan::seeded(
        seed,
        FaultConfig {
            power_losses: 1,
            power_loss_phase: phase,
            power_loss_window: match phase {
                PowerLossPhase::MidWrite => 256,
                PowerLossPhase::MidGc => 8,
            },
            ..FaultConfig::default()
        },
    );
    dev.set_fault_plan(&plan);
    let d = Arc::clone(&dev);
    let out = simulate_named("writepath-crash", move |ctx| {
        let (replayed, wall_us) = match write_phase(ctx, &fs) {
            Ok(_) => panic!("the seeded {phase:?} crash never fired"),
            Err(e) => {
                assert!(
                    d.is_dead(),
                    "write phase failed but the drive is alive: {e}"
                );
                let wall = std::time::Instant::now();
                let report = d.recover(ctx);
                let wall_us = wall.elapsed().as_secs_f64() * 1e6;
                (report.replayed_records + report.torn_reverted, wall_us)
            }
        };
        // The power loss wiped the host's in-memory volume: remount it.
        drop(fs);
        let fs = Fs::mount(Arc::clone(&d)).expect("remount after recovery");
        write_phase(ctx, &fs).expect("redo after recovery");
        let mut f = fs.open(SCRATCH, Mode::ReadWrite).expect("scratch exists");
        f.sync(ctx).expect("sync after redo");
        CrashOutcome {
            replayed_records: replayed,
            replay_wall_us: wall_us,
            lost_bytes: diverged_bytes(ctx, &fs),
            logical_export: d.export_state(),
            physical_export: d.export_physical_state(),
        }
    });
    assert_eq!(
        plan.injected_at(FaultSite::PowerLoss),
        1,
        "{phase:?} crash must fire exactly once"
    );
    assert_eq!(
        plan.recovered_at(FaultSite::PowerLoss),
        1,
        "journal replay must be recorded"
    );
    out
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p / 100.0).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let smoke = std::env::var("WRITEPATH_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false);

    header(&format!(
        "Write path: GC pressure + power-loss recovery ({} config)",
        if smoke { "smoke" } else { "full" }
    ));

    let (base, snap, gc_runs) = uncrashed();
    let bytes = ROUNDS * FILE_PAGES * 16 * 1024;
    let throughput_mibps = bytes as f64 / (1 << 20) as f64 / base.elapsed_s.max(1e-12);
    let mut sorted = base.lat_ps.clone();
    sorted.sort_unstable();
    // A batch that triggered no GC takes the pipeline minimum; anything
    // above it is stall — GC pauses absorbed by the flush.
    let floor = sorted[0];
    let gc_pause_p99_ps = percentile(&sorted, 99.0).saturating_sub(floor);
    // user_writes also counts FS metadata persistence (create + sync),
    // so it sits a hair above the data-page count.
    assert!(
        base.user_writes >= ROUNDS * FILE_PAGES,
        "every data page written once: {} < {}",
        base.user_writes,
        ROUNDS * FILE_PAGES
    );
    assert!(gc_runs > 0, "the phase is sized to force GC");
    assert!(
        base.write_amp_milli > 1000,
        "GC relocation must cost something: amp {} <= 1.0x",
        base.write_amp_milli
    );

    // Crash runs: mid-write and mid-GC, both converging to the uncrashed
    // image; mid-write twice for the physical determinism row.
    let mw1 = crashed(PowerLossPhase::MidWrite, SEED);
    let mw2 = crashed(PowerLossPhase::MidWrite, SEED);
    let mg = crashed(PowerLossPhase::MidGc, SEED);
    assert_eq!(
        mw1.logical_export, base.logical_export,
        "mid-write crash diverged from the uncrashed image"
    );
    assert_eq!(
        mg.logical_export, base.logical_export,
        "mid-GC crash diverged from the uncrashed image"
    );
    let divergence = u64::from(mw1.physical_export != mw2.physical_export);
    assert_eq!(divergence, 0, "same-seed crash runs must be byte-identical");
    let lost = mw1.lost_bytes + mw2.lost_bytes + mg.lost_bytes;
    assert_eq!(lost, 0, "acked bytes lost across recovery");

    row(&["metric", "value"]);
    row(&["pages_written", &base.user_writes.to_string()]);
    row(&["throughput", &format!("{throughput_mibps:.1} MiB/s")]);
    row(&[
        "write_amp",
        &format!("{:.3}x", base.write_amp_milli as f64 / 1000.0),
    ]);
    row(&["gc_runs", &gc_runs.to_string()]);
    row(&[
        "gc_pause_p99",
        &format!("{:.1}us", gc_pause_p99_ps as f64 / 1e6),
    ]);
    row(&["replayed_records", &mw1.replayed_records.to_string()]);
    row(&["replay_wall", &format!("{:.0}us", mw1.replay_wall_us)]);

    let mut report = BenchReport::new("writepath");
    report.push_tol(
        "pages_written",
        "pages",
        None,
        (ROUNDS * FILE_PAGES) as f64,
        0.0,
    );
    report.push_tol("lost_writes", "bytes", None, lost as f64, 0.0);
    report.push_tol(
        "determinism_divergence",
        "diffs",
        None,
        divergence as f64,
        0.0,
    );
    report.push("write_throughput_mibps", "MiB/s", None, throughput_mibps);
    report.push_tol(
        "write_amp_milli",
        "milli-x",
        None,
        base.write_amp_milli as f64,
        0.0,
    );
    report.push_tol("gc_runs", "runs", None, gc_runs as f64, 0.0);
    report.push_tol("gc_pause_p99_ps", "ps", None, gc_pause_p99_ps as f64, 0.0);
    report.push_tol(
        "journal_records",
        "records",
        None,
        base.journal_records as f64,
        0.0,
    );
    report.push_tol("checkpoints", "ckpts", None, base.checkpoints as f64, 0.0);
    report.push_tol(
        "recovery_replayed_records",
        "records",
        None,
        mw1.replayed_records as f64,
        0.0,
    );
    report.set_metrics(snap);
    report.write();

    if smoke {
        println!("\nWRITEPATH_SMOKE=1: skipping the crash-matrix sweep");
        return;
    }

    // The sweep: more seeds, both phases, every run must converge. Pure
    // asserts — a miss panics the bench.
    header("crash-matrix sweep (8 seeds x 2 phases)");
    for seed in 0..8u64 {
        for phase in [PowerLossPhase::MidWrite, PowerLossPhase::MidGc] {
            let out = crashed(phase, SEED ^ (seed.wrapping_mul(0x9E37_79B9) + 1));
            assert_eq!(
                out.logical_export, base.logical_export,
                "sweep seed {seed} {phase:?} diverged"
            );
            assert_eq!(out.lost_bytes, 0);
        }
    }
    println!("sweep: 16/16 crash runs converged");
}
