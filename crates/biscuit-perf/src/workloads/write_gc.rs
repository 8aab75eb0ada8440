//! `write_gc`: writes beside reads on one device. Each iteration formats a
//! fresh 2x2-die drive (64-page blocks, 16 MiB logical: the write-path
//! bench's geometry, small enough that GC works hard), overwrites a scratch
//! file that fills 7/8 of it eighteen times in scattered 4-page batches,
//! syncs, and reads the file back. Round 1 fills the drive; the rest run
//! against GC. The batch orders are the coprime-stride walks of the
//! write-path bench, three times over: scattered invalidation leaves every
//! GC victim with live pages to relocate, so write amplification is real
//! (~3.1x). Eighteen rounds rather than six, because the p99 batch latency
//! is the tail of the GC pauses: over ~55 GC runs it moved 14 % from seed to
//! seed, over ~170 it moves 3 %.
//!
//! After the timed region one seeded mid-write power loss is recovered by
//! journal replay and redone, and must converge on the uncrashed image.

use std::sync::Arc;
use std::time::{Duration, Instant};

use biscuit_fs::{Fs, FsError, Mode};
use biscuit_sim::fault::{FaultConfig, FaultPlan, PowerLossPhase};
use biscuit_sim::Ctx;
use biscuit_ssd::{SsdConfig, SsdDevice};

use crate::harness::{Iter, Layers, Telemetry, Workload};
use crate::spans;
use crate::stats::{percentile, splitmix};

const SCRATCH: &str = "scratch.dat";
const ROUNDS: u64 = 18;
const BATCH_PAGES: u64 = 4;
/// Odd and no multiple of 7, so coprime with both batch counts (224 and
/// 112 are 2^k x 7).
const STRIDES: [u64; 6] = [1, 3, 5, 9, 11, 13];

pub struct WriteGc {
    seed: u64,
    logical_capacity: u64,
    file_pages: u64,
    /// Seeded bytes every batch payload is a window of.
    pool: Vec<u8>,
    /// Where in its batch walk each round starts. The rotation between
    /// consecutive rounds decides how live GC's victims are, so write
    /// amplification and virtual time follow the seed.
    starts: [u64; ROUNDS as usize],
    /// State export of an uncrashed iteration, for the crash check.
    image: String,
    /// Per-iteration books of the traced iterations.
    user_writes: u64,
    programs: u64,
    batch_ps: Vec<u64>,
}

struct Pass {
    /// Virtual latency of each write batch.
    batch_ps: Vec<u64>,
    /// Per read-back batch, the bytes that differ from what was written.
    wrong_bytes: Vec<u64>,
    /// Wall time spent comparing, which the caller takes off the clock.
    checking: Duration,
}

impl WriteGc {
    pub fn new(seed: u64, smoke: bool) -> WriteGc {
        // Logical MiB and scratch-file pages. A 64 MiB drive was tried
        // first: an iteration streamed 350 MB through memory, and its wall
        // time followed the sandbox's neighbours (16 % spread over same-seed
        // runs, against 1.3 % at this cache-resident size).
        let (mib, file_pages) = if smoke { (8, 448) } else { (16, 896) };
        let page = SsdConfig::paper_default().page_size;
        let mut state = splitmix(seed);
        let pool = (0..(1 << 20) + BATCH_PAGES as usize * page)
            .step_by(8)
            .flat_map(|_| {
                state = splitmix(state);
                state.to_le_bytes()
            })
            .collect();
        WriteGc {
            seed,
            logical_capacity: mib << 20,
            file_pages,
            pool,
            starts: std::array::from_fn(|round| {
                splitmix(seed ^ ((round as u64 + 1) << 32)) % (file_pages / BATCH_PAGES)
            }),
            image: String::new(),
            user_writes: 0,
            programs: 0,
            batch_ps: Vec::new(),
        }
    }

    fn device(&self) -> Arc<SsdDevice> {
        Arc::new(SsdDevice::new(SsdConfig {
            channels: 2,
            ways: 2,
            pages_per_block: 64,
            logical_capacity: self.logical_capacity,
            ..SsdConfig::paper_default()
        }))
    }

    fn payload(&self, round: u64, batch: u64, bytes: usize) -> &[u8] {
        let at = ((batch * ROUNDS + round) * 4099) as usize % (1 << 20);
        &self.pool[at..at + bytes]
    }

    /// The overwrite rounds, `sync`, then the whole file read back batch by
    /// batch. Idempotent by design: a crashed host recovers the device and
    /// calls this again from round zero. `Err` when a power loss stops it.
    fn pass(&self, ctx: &Ctx, fs: &Fs) -> Result<Pass, FsError> {
        let mut file = match fs.open(SCRATCH, Mode::ReadWrite) {
            Err(FsError::NotFound(_)) => fs.create(SCRATCH),
            other => other,
        }?;
        let batch_bytes = BATCH_PAGES * fs.device().config().page_size as u64;
        let batches = self.file_pages / BATCH_PAGES;
        let mut pass = Pass {
            batch_ps: Vec::with_capacity((ROUNDS * batches) as usize),
            wrong_bytes: Vec::with_capacity(batches as usize),
            checking: Duration::ZERO,
        };
        for round in 0..ROUNDS {
            let stride = STRIDES[round as usize % STRIDES.len()];
            for i in 0..batches {
                let batch = (i * stride + self.starts[round as usize]) % batches;
                let data = self.payload(round, batch, batch_bytes as usize);
                let t0 = ctx.now();
                spans::within("write_at", || file.write_at(ctx, batch * batch_bytes, data))?;
                pass.batch_ps.push((ctx.now() - t0).as_ps());
            }
        }
        spans::within("sync", || file.sync(ctx))?;
        for batch in 0..batches {
            let got = spans::within("read_at", || {
                file.read_at(ctx, batch * batch_bytes, batch_bytes)
            })?;
            let t0 = Instant::now();
            let want = self.payload(ROUNDS - 1, batch, got.len());
            let wrong = got.iter().zip(want).filter(|(g, w)| g != w).count();
            pass.wrong_bytes.push(wrong as u64);
            pass.checking += t0.elapsed();
        }
        Ok(pass)
    }
}

impl Workload for WriteGc {
    fn prepare(&mut self, _ctx: &Ctx) {}

    fn iterate(&mut self, ctx: &Ctx, tele: Option<&mut Telemetry>) -> Iter {
        let (w0, v0) = (Instant::now(), ctx.now());
        let dev = self.device();
        if tele.is_some() {
            dev.attach_metrics(ctx.metrics());
            dev.attach_qprof(ctx.qprof());
        }
        let fs = Fs::format(Arc::clone(&dev));
        let pass = self.pass(ctx, &fs).expect("uncrashed pass");
        let (wall, virt_ps) = (w0.elapsed() - pass.checking, (ctx.now() - v0).as_ps());

        let (user_writes, programs, _) = dev.write_stats();
        if self.image.is_empty() {
            // Every iteration ends in the same state; export it once.
            self.image = dev.export_state();
        }
        if tele.is_some() {
            self.user_writes += user_writes;
            self.programs += programs;
            self.batch_ps.extend_from_slice(&pass.batch_ps);
        }
        // One operation per read-back batch.
        let attempted = pass.wrong_bytes.len() as u64;
        Iter {
            wall,
            virt_ps,
            attempted,
            failed: pass.wrong_bytes.iter().filter(|&&wrong| wrong > 0).count() as u64,
            latencies_ps: pass.batch_ps,
            offered: attempted,
            accepted: attempted,
            user_writes,
            programs,
            ..Iter::default()
        }
    }

    /// Crash-redo convergence: kill the drive at a seeded instant mid-write,
    /// replay the journal (timed on the wall clock), redo, and compare the
    /// result with the uncrashed image byte for byte.
    fn finish(&mut self, ctx: &Ctx, layers: &mut Layers) -> (u64, u64) {
        let dev = self.device();
        let plan = FaultPlan::seeded(
            self.seed,
            FaultConfig {
                power_losses: 1,
                power_loss_phase: PowerLossPhase::MidWrite,
                power_loss_window: 256,
                ..FaultConfig::default()
            },
        );
        dev.set_fault_plan(&plan);
        let fs = Fs::format(Arc::clone(&dev));
        let crashed = self.pass(ctx, &fs).is_err() && dev.is_dead();
        let t0 = Instant::now();
        let recovery = dev.recover_power_loss(ctx.now());
        let replay_us = t0.elapsed().as_secs_f64() * 1e6;
        let lost_bytes = self
            .pass(ctx, &fs)
            .map_or(u64::MAX, |redo| redo.wrong_bytes.iter().sum());
        let converged = crashed && lost_bytes == 0 && dev.export_state() == self.image;
        layers.set(
            "ssd.journal.replayed_n",
            (recovery.replayed_records + recovery.torn_reverted) as f64,
        );
        layers.set("ssd.journal.replay_us", replay_us);
        layers.set("ssd.journal.lost_bytes_n", lost_bytes as f64);
        (1, u64::from(!converged))
    }

    fn layer_counters(&mut self, layers: &mut Layers, _tele: &Telemetry, traced_iters: f64) {
        layers.set(
            "ssd.ftl.user_writes_n",
            self.user_writes as f64 / traced_iters,
        );
        layers.set("ssd.ftl.programs_n", self.programs as f64 / traced_iters);
        if !self.batch_ps.is_empty() {
            // A batch that met no GC takes the pipeline minimum; anything
            // above it is stall.
            let us: Vec<f64> = self.batch_ps.iter().map(|&ps| ps as f64 / 1e6).collect();
            let floor = us.iter().copied().fold(f64::INFINITY, f64::min);
            layers.set(
                "ssd.ftl.gc_pause_p99_virt_us",
                percentile(&us, 99.0) - floor,
            );
        }
    }

    fn replay(&mut self, _layers: &mut Layers) {}
}
