//! Parallel shard fleet: the PDES face of the [`SsdArray`] coordinator.
//!
//! [`crate::array`] runs all N drives inside *one* simulation — N fibers,
//! one kernel, one thread. This module runs each drive inside its *own*
//! simulation ("shard kernel"), run to drain via
//! [`biscuit_sim::par::run_fleet`]. The shards share nothing while they
//! run: each appends its items to its own lane, and the lanes are merged
//! after every shard has joined. The two regimes answer different
//! questions:
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
//! are pure functions of the seed and workload. The fleet merges the
//! per-shard lanes in canonical order — round `r` takes the `r`-th item
//! of every lane that has one, in lane order — and concatenates
//! per-shard exports in shard order, so [`ParMode::Single`] and
//! [`ParMode::PerShard`] produce byte-identical
//! [`FleetReport`] artifacts.
//! `tests/parallel.rs` asserts exactly this, repeatedly, over a 4-drive
//! grep soak; `docs/PARALLEL.md` documents the contract and how to debug
//! a divergence.
//!
//! [`shard_seed(seed, i)`]: biscuit_sim::par::shard_seed
//! [`ParMode::Single`]: biscuit_sim::par::ParMode::Single
//! [`ParMode::PerShard`]: biscuit_sim::par::ParMode::PerShard

use std::sync::Arc;

use biscuit_sim::par::{self, ParConfig};
use biscuit_sim::sync::Mutex;
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
    /// `(shard, item)` pairs in canonical merge order — identical under
    /// both thread policies.
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
    /// the same seed across both thread policies — diff two of these to
    /// debug a suspected divergence (see `docs/PARALLEL.md`).
    pub fn trace_json(&self) -> String {
        self.shards_json(|r| r.trace.to_chrome_json())
    }

    /// One JSON document holding every shard's metrics snapshot in shard
    /// order: `{"shards":[<metrics>,<metrics>,...]}`. Byte-identical for
    /// the same seed across both thread policies, the kernel's dispatch
    /// meters included.
    pub fn metrics_json(&self) -> String {
        self.shards_json(|r| r.metrics.to_json())
    }

    /// One JSON document holding every shard's query profiles in shard
    /// order: `{"shards":[<profiles>,<profiles>,...]}`. Each shard kernel
    /// owns its own profiler and assigns query/span ids deterministically,
    /// so this export is byte-identical for the same seed across both
    /// thread policies (`tests/qprof.rs` asserts exactly this).
    pub fn profiles_json(&self) -> String {
        self.shards_json(|r| r.profiles.to_json())
    }

    /// `{"shards":[…]}` over `export` of each shard's report, in shard
    /// order.
    fn shards_json(&self, export: impl Fn(&SimReport) -> String) -> String {
        let docs: Vec<String> = self.reports.iter().map(export).collect();
        format!("{{\"shards\":[{}]}}", docs.join(","))
    }
}

/// The canonical merge of per-shard lanes: round `r` emits the `r`-th
/// item of every lane that has one, in lane order, as `(lane, item)`.
/// A pure function of the lanes, so thread timing cannot reach it.
fn canonical_merge<T>(lanes: Vec<Vec<T>>) -> Vec<(usize, T)> {
    let total = lanes.iter().map(Vec::len).sum();
    let mut merged = Vec::with_capacity(total);
    let mut lanes: Vec<_> = lanes.into_iter().map(Vec::into_iter).enumerate().collect();
    while !lanes.is_empty() {
        lanes.retain_mut(|(lane, items)| match items.next() {
            Some(item) => {
                merged.push((*lane, item));
                true
            }
            None => false,
        });
    }
    merged
}

impl SsdArray {
    /// Scatters `job` across a fleet of shard kernels, one drive per
    /// kernel, each run to drain per `cfg.par` — the parallel sibling of
    /// [`SsdArray::scatter`].
    ///
    /// `build(i, &sim)` constructs shard `i`'s [`ArrayShard`] — a drive
    /// no other simulation is using — and is called on the calling thread
    /// in shard order. `job(ctx, &shard, &mut lane)` then runs as the
    /// shard kernel's root fiber, the drive reporting to that kernel like
    /// everything else it calls. Items pushed onto `lane` come back in
    /// [`FleetReport::items`], merged in canonical order after every shard
    /// has joined — including those a shard pushed before it blocked.
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
    /// use biscuit_host::{HostConfig, SsdArray};
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
    ///         ArrayShard::new(i, ssd, HostConfig::paper_default())
    ///     },
    ///     |_ctx, shard, lane| lane.push(shard.id as u64),
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
        J: Fn(&Ctx, &ArrayShard, &mut Vec<T>) + Send + Sync + 'static,
    {
        assert!(cfg.drives > 0, "a fleet needs at least one drive");
        let job = Arc::new(job);
        let mut lanes = Vec::with_capacity(cfg.drives);
        let mut sims = Vec::with_capacity(cfg.drives);
        for i in 0..cfg.drives {
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
            // The fiber holds its lane's lock for its whole life; a fiber
            // still blocked at drain is unwound, which releases it.
            let lane = Arc::new(Mutex::new(Vec::new()));
            lanes.push(Arc::clone(&lane));
            sim.spawn(format!("fleet-shard{i}"), move |ctx| {
                job(ctx, &shard, &mut lane.lock());
            });
            sims.push(sim);
        }
        let reports = par::run_fleet(sims, &cfg.par);
        let lanes = lanes
            .iter()
            .map(|lane| std::mem::take(&mut *lane.lock()))
            .collect();
        FleetReport {
            items: canonical_merge(lanes),
            reports,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biscuit_core::{CoreConfig, Ssd};
    use biscuit_fs::Fs;
    use biscuit_sim::par::ParMode;
    use biscuit_sim::queue::SimQueue;
    use biscuit_sim::time::SimDuration;
    use biscuit_ssd::{SsdConfig, SsdDevice};
    use proptest::prelude::*;

    use crate::config::HostConfig;

    fn build_shard(i: usize, _sim: &Simulation) -> ArrayShard {
        let dev = Arc::new(SsdDevice::new(SsdConfig {
            logical_capacity: 16 << 20,
            ..SsdConfig::paper_default()
        }));
        let ssd = Ssd::new(Fs::format(dev), CoreConfig::paper_default());
        ArrayShard::new(i, ssd, HostConfig::paper_default())
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
            SsdArray::scatter_parallel::<u64, _, _>(&cfg, build_shard, |ctx, shard, lane| {
                for k in 0..4u64 {
                    ctx.sleep(SimDuration::from_micros(10 + shard.id as u64));
                    lane.push(shard.id as u64 * 100 + k);
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
        let par = soak(ParMode::PerShard);
        assert_eq!(par.0, single.0, "merged items");
        assert_eq!(par.1, single.1, "metrics export");
        assert_eq!(par.2, single.2, "event count");
    }

    /// A shard that blocks forever is unwound at drain; what it pushed
    /// before blocking still comes back, in canonical order.
    #[test]
    fn items_pushed_before_a_block_come_back() {
        for mode in [ParMode::Single, ParMode::PerShard] {
            let cfg = FleetConfig {
                drives: 2,
                par: ParConfig::new(mode),
                ..FleetConfig::default()
            };
            let report =
                SsdArray::scatter_parallel::<u64, _, _>(&cfg, build_shard, |ctx, shard, lane| {
                    lane.push(shard.id as u64);
                    if shard.id == 1 {
                        SimQueue::<()>::new(1).pop(ctx);
                    }
                    lane.push(10 + shard.id as u64);
                });
            assert_eq!(report.items, vec![(0, 0), (1, 1), (0, 10)], "{mode:?}");
            assert!(report.reports[0].blocked.is_empty(), "{mode:?}");
            assert_eq!(report.reports[1].blocked, vec!["fleet-shard1"], "{mode:?}");
        }
    }

    /// The obvious reference: round `r` visits every lane in order and
    /// takes its `r`-th item if it has one.
    fn round_robin(lanes: &[Vec<u8>]) -> Vec<(usize, u8)> {
        let rounds = lanes.iter().map(Vec::len).max().unwrap_or(0);
        let mut out = Vec::new();
        for r in 0..rounds {
            for (lane, items) in lanes.iter().enumerate() {
                if let Some(&item) = items.get(r) {
                    out.push((lane, item));
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// 1–6 lanes of 0–5 items, with all-empty lanes and a single
        /// lane drawn on purpose.
        #[test]
        fn canonical_merge_is_round_robin(
            lanes in prop_oneof![
                1 => Just(vec![Vec::new(); 6]),
                1 => prop::collection::vec(any::<u8>(), 0..6).prop_map(|lane| vec![lane]),
                6 => prop::collection::vec(prop::collection::vec(any::<u8>(), 0..6), 1..7),
            ]
        ) {
            prop_assert_eq!(canonical_merge(lanes.clone()), round_robin(&lanes));
        }
    }
}
