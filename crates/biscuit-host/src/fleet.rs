//! Parallel shard fleet: the PDES face of the [`SsdArray`] coordinator.
//!
//! [`crate::array`] runs all N drives inside *one* simulation — N fibers,
//! one kernel, one thread. This module runs each drive inside its *own*
//! simulation ("shard kernel"), run to drain on a worker OS thread via
//! [`biscuit_sim::par::run_fleet`], with the cross-thread
//! [`merge_port`](biscuit_sim::par::merge_port) as the only cross-shard
//! synchronization point. The two regimes answer different questions:
//!
//! - the in-sim array models *virtual-time* behavior (latency, QoS,
//!   drive-loss recovery) of one host coordinating N drives;
//! - the fleet runs independent drives' simulations on as many threads as
//!   [`ParConfig`] asks for. What that saves in wall time depends on the
//!   machine: `docs/PARALLEL.md`, "Choosing a policy", has the
//!   measurements.
//!
//! ## Determinism contract
//!
//! Each shard kernel is seeded [`shard_seed(seed, i)`] and is the
//! ordinary single-threaded DES kernel, so its trace and metrics exports
//! are pure functions of the seed and workload. The fleet consumes
//! results in canonical merge order and concatenates per-shard exports
//! in shard order, so [`ParMode::Single`] (`BISCUIT_PAR=0`) and every
//! parallel mode produce byte-identical [`FleetReport`] artifacts.
//! `tests/parallel.rs` asserts exactly this, repeatedly, over a 4-drive
//! grep soak; `docs/PARALLEL.md` documents the contract and how to debug
//! a divergence.
//!
//! [`shard_seed(seed, i)`]: biscuit_sim::par::shard_seed
//! [`ParMode::Single`]: biscuit_sim::par::ParMode::Single

use std::sync::Arc;

use biscuit_sim::par::{self, ParConfig, PortTx};
use biscuit_sim::trace::TraceConfig;
use biscuit_sim::{Ctx, SimReport, SimTime, Simulation};

use crate::array::{ArrayShard, SsdArray};

/// Knobs for [`SsdArray::scatter_parallel`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of drives, each in its own shard kernel.
    pub drives: usize,
    /// Fleet seed; shard `i` runs under
    /// [`shard_seed(seed, i)`](biscuit_sim::par::shard_seed).
    pub seed: u64,
    /// Enable per-shard metrics registries (exported in shard order by
    /// [`FleetReport::metrics_json`]).
    pub metrics: bool,
    /// Enable per-shard tracing with this config (exported in shard
    /// order by [`FleetReport::trace_json`]).
    pub trace: Option<TraceConfig>,
    /// Enable per-shard query profiling (exported in shard order by
    /// [`FleetReport::profiles_json`]).
    pub qprof: bool,
    /// Thread policy for the fleet runner.
    pub par: ParConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            drives: 4,
            seed: 0,
            metrics: false,
            trace: None,
            qprof: false,
            par: ParConfig::default(),
        }
    }
}

/// Everything one fleet run produced.
pub struct FleetReport<T> {
    /// `(shard, item)` pairs in canonical merge order — identical for
    /// every thread policy.
    pub items: Vec<(usize, T)>,
    /// Per-shard kernel reports in shard order (trace and metrics
    /// snapshots included when enabled).
    pub reports: Vec<SimReport>,
}

impl<T> std::fmt::Debug for FleetReport<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetReport")
            .field("shards", &self.reports.len())
            .field("items", &self.items.len())
            .finish()
    }
}

impl<T> FleetReport<T> {
    /// Total DES wake events processed across all shard kernels.
    pub fn events_processed(&self) -> u64 {
        self.reports.iter().map(|r| r.events_processed).sum()
    }

    /// Latest virtual end time over the shards (they share a time base:
    /// all start at zero).
    pub fn end_time(&self) -> SimTime {
        self.reports
            .iter()
            .map(|r| r.end_time)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// This shard's items, in its FIFO production order.
    pub fn shard_items(&self, shard: usize) -> impl Iterator<Item = &T> {
        self.items
            .iter()
            .filter(move |(s, _)| *s == shard)
            .map(|(_, item)| item)
    }

    /// Asserts every shard kernel drained with no blocked fibers.
    ///
    /// # Panics
    ///
    /// Panics if any shard ended with blocked fibers.
    pub fn assert_quiescent(&self) {
        for r in &self.reports {
            r.assert_quiescent();
        }
    }

    /// One JSON document holding every shard's Chrome trace in shard
    /// order: `{"shards":[<chrome>,<chrome>,...]}`. Byte-identical for
    /// the same seed across all thread policies — diff two of these to
    /// debug a suspected divergence (see `docs/PARALLEL.md`).
    pub fn trace_json(&self) -> String {
        let mut s = String::from("{\"shards\":[");
        for (i, r) in self.reports.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&r.trace.to_chrome_json());
        }
        s.push_str("]}");
        s
    }

    /// One JSON document holding every shard's metrics snapshot in shard
    /// order: `{"shards":[<metrics>,<metrics>,...]}`. Byte-identical for
    /// the same seed across all thread policies, the kernel's dispatch
    /// meters included.
    pub fn metrics_json(&self) -> String {
        let mut s = String::from("{\"shards\":[");
        for (i, r) in self.reports.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&r.metrics.to_json());
        }
        s.push_str("]}");
        s
    }

    /// One JSON document holding every shard's query profiles in shard
    /// order: `{"shards":[<profiles>,<profiles>,...]}`. Each shard kernel
    /// owns its own profiler and assigns query/span ids deterministically,
    /// so this export is byte-identical for the same seed across all
    /// thread policies (`tests/qprof.rs` asserts exactly this).
    pub fn profiles_json(&self) -> String {
        let mut s = String::from("{\"shards\":[");
        for (i, r) in self.reports.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&r.profiles.to_json());
        }
        s.push_str("]}");
        s
    }
}

impl SsdArray {
    /// Scatters `job` across a fleet of shard kernels, one drive per
    /// kernel, each run to drain on a worker OS thread per `cfg.par` — the
    /// parallel sibling of [`SsdArray::scatter`].
    ///
    /// `build(i, &sim)` constructs shard `i`'s [`ArrayShard`] — a drive
    /// no other simulation is using — and is called on the calling thread
    /// in shard order. `job(ctx, &shard, &tx)` then runs as the shard
    /// kernel's root fiber, the drive reporting to that kernel like
    /// everything else it calls; items sent through `tx` come back in
    /// canonical merge order. The lane closes when `job` returns.
    ///
    /// Fault-plan drive-loss recovery is an in-sim coordinator feature
    /// ([`SsdArray::scatter`]); the fleet path targets fault-free
    /// throughput scaling and performs no recovery.
    ///
    /// # Examples
    ///
    /// ```
    /// use biscuit_core::{CoreConfig, Ssd};
    /// use biscuit_fs::Fs;
    /// use biscuit_host::array::ArrayShard;
    /// use biscuit_host::fleet::FleetConfig;
    /// use biscuit_host::{ConvIo, HostConfig, SsdArray};
    /// use biscuit_ssd::{SsdConfig, SsdDevice};
    /// use std::sync::Arc;
    ///
    /// let cfg = FleetConfig { drives: 2, ..FleetConfig::default() };
    /// let report = SsdArray::scatter_parallel::<u64, _, _>(
    ///     &cfg,
    ///     |i, _sim| {
    ///         let dev = Arc::new(SsdDevice::new(SsdConfig {
    ///             logical_capacity: 16 << 20,
    ///             ..SsdConfig::paper_default()
    ///         }));
    ///         let ssd = Ssd::new(Fs::format(dev), CoreConfig::paper_default());
    ///         let conv = ConvIo::new(
    ///             Arc::clone(ssd.device()),
    ///             Arc::clone(ssd.link()),
    ///             HostConfig::paper_default(),
    ///         );
    ///         ArrayShard { id: i, ssd, conv }
    ///     },
    ///     |_ctx, shard, tx| tx.send(shard.id as u64),
    /// );
    /// report.assert_quiescent();
    /// assert_eq!(report.items, vec![(0, 0), (1, 1)]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `cfg.drives` is zero, and re-raises the first shard
    /// fiber panic (by shard index, deterministically).
    pub fn scatter_parallel<T, B, J>(cfg: &FleetConfig, mut build: B, job: J) -> FleetReport<T>
    where
        T: Send + 'static,
        B: FnMut(usize, &Simulation) -> ArrayShard,
        J: Fn(&Ctx, &ArrayShard, &PortTx<T>) + Send + Sync + 'static,
    {
        assert!(cfg.drives > 0, "a fleet needs at least one drive");
        let (txs, mut rx) = par::merge_port::<T>(cfg.drives);
        let job = Arc::new(job);
        let mut sims = Vec::with_capacity(cfg.drives);
        for (i, tx) in txs.into_iter().enumerate() {
            let sim = Simulation::new(par::shard_seed(cfg.seed, i));
            if let Some(tc) = &cfg.trace {
                sim.enable_trace(tc.clone());
            }
            if cfg.metrics {
                sim.enable_metrics();
            }
            if cfg.qprof {
                sim.enable_qprof();
            }
            let shard = build(i, &sim);
            let job = Arc::clone(&job);
            sim.spawn(format!("fleet-shard{i}"), move |ctx| {
                job(ctx, &shard, &tx);
                tx.close();
            });
            sims.push(sim);
        }
        let (reports, items) = par::run_fleet(sims, &cfg.par, move || {
            let mut items = Vec::new();
            while let Some(pair) = rx.recv() {
                items.push(pair);
            }
            items
        });
        FleetReport { items, reports }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biscuit_core::{CoreConfig, Ssd};
    use biscuit_fs::Fs;
    use biscuit_sim::par::ParMode;
    use biscuit_sim::time::SimDuration;
    use biscuit_ssd::{SsdConfig, SsdDevice};

    use crate::config::HostConfig;
    use crate::io::ConvIo;

    fn build_shard(i: usize, _sim: &Simulation) -> ArrayShard {
        let dev = Arc::new(SsdDevice::new(SsdConfig {
            logical_capacity: 16 << 20,
            ..SsdConfig::paper_default()
        }));
        let ssd = Ssd::new(Fs::format(dev), CoreConfig::paper_default());
        let conv = ConvIo::new(
            Arc::clone(ssd.device()),
            Arc::clone(ssd.link()),
            HostConfig::paper_default(),
        );
        ArrayShard { id: i, ssd, conv }
    }

    fn soak(mode: ParMode) -> (Vec<(usize, u64)>, String, u64) {
        let cfg = FleetConfig {
            drives: 3,
            seed: 11,
            metrics: true,
            par: ParConfig::new(mode),
            ..FleetConfig::default()
        };
        let report =
            SsdArray::scatter_parallel::<u64, _, _>(&cfg, build_shard, |ctx, shard, tx| {
                for k in 0..4u64 {
                    ctx.sleep(SimDuration::from_micros(10 + shard.id as u64));
                    tx.send(shard.id as u64 * 100 + k);
                }
            });
        report.assert_quiescent();
        (
            report.items.clone(),
            report.metrics_json(),
            report.events_processed(),
        )
    }

    #[test]
    fn parallel_matches_single_threaded_exports() {
        let single = soak(ParMode::Single);
        for mode in [ParMode::PerShard, ParMode::Threads(2)] {
            let par = soak(mode);
            assert_eq!(par.0, single.0, "{mode:?} merged items");
            assert_eq!(par.1, single.1, "{mode:?} metrics export");
            assert_eq!(par.2, single.2, "{mode:?} event count");
        }
    }

    #[test]
    fn shard_items_filters_by_lane() {
        let (items, _, _) = soak(ParMode::Single);
        let report = FleetReport {
            items,
            reports: Vec::new(),
        };
        let lane1: Vec<u64> = report.shard_items(1).copied().collect();
        assert_eq!(lane1, vec![100, 101, 102, 103]);
    }
}
