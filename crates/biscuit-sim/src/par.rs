//! The shard fleet: run independent shard kernels to drain on real OS
//! threads.
//!
//! A [`Simulation`] is *one* deterministic event loop. The
//! multi-drive workloads (see `biscuit_host::array` and `docs/SCALE.md`)
//! proved that the *global* result order over N drives is a pure function
//! of `(shard id, sequence)` — producer timing never reaches the merged
//! output. This module exploits exactly that property: each drive's
//! simulation becomes its own [`Simulation`] ("shard kernel"), and
//! [`run_fleet`] runs every shard to drain, joins them all, and hands back
//! their reports in shard order. Whatever the shards produced is merged
//! after the join, by the caller, with a pure function.
//!
//! ## The concurrency contract (see `docs/PARALLEL.md`)
//!
//! - **Shard kernels are independent.** [`run_fleet`] requires that no
//!   shard simulation schedules events into another: fibers of shard `i`
//!   only touch shard `i`'s queues, resources, and devices. There is no
//!   cross-shard virtual time to synchronise and no cross-thread channel:
//!   every shard simply runs to drain.
//! - **Same-seed runs are byte-identical.** Every shard kernel is the
//!   ordinary single-threaded kernel driven by [`Simulation::run`], so its
//!   trace/metrics exports — dispatch meters included — are a pure
//!   function of its seed and workload. Reports come back in shard order
//!   under every policy, so [`ParMode::Single`] and [`ParMode::PerShard`]
//!   produce identical bytes.
//!
//! ## Example
//!
//! ```
//! use biscuit_sim::par::{self, ParConfig, ParMode};
//! use biscuit_sim::{Simulation, time::SimDuration};
//!
//! // Three shard kernels, shard `i` sleeping `10 * (i + 1)` µs.
//! let shards: Vec<Simulation> = (0..3)
//!     .map(|i| {
//!         let sim = Simulation::new(par::shard_seed(7, i));
//!         sim.spawn(format!("shard{i}"), move |ctx| {
//!             ctx.sleep(SimDuration::from_micros(10 * (i as u64 + 1)));
//!         });
//!         sim
//!     })
//!     .collect();
//! let reports = par::run_fleet(shards, &ParConfig::new(ParMode::PerShard));
//! let ends: Vec<u64> = reports.iter().map(|r| r.end_time.as_micros()).collect();
//! assert_eq!(ends, vec![10, 20, 30]);
//! ```

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};

use crate::kernel::{SimReport, Simulation};
use crate::metrics::MetricsRegistry;
use crate::rng::splitmix64;
use crate::time::SimDuration;
use crate::trace::Tracer;

// The shared instrumentation handles cross the shard-thread boundary:
// per-shard fibers already run on their own OS threads, so these types
// were Send + Sync all along — this pins the contract at compile time.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<Simulation>();
    assert_send_sync::<Tracer>();
    assert_send_sync::<MetricsRegistry>();
};

/// How many OS threads drive the shard fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParMode {
    /// Run every shard to completion on the calling thread, in shard
    /// order. The reference mode: [`ParMode::PerShard`] must match its
    /// exports byte for byte.
    Single,
    /// One scoped worker thread per shard (the default).
    PerShard,
}

/// Knobs for [`run_fleet`].
#[derive(Debug, Clone)]
pub struct ParConfig {
    /// Thread policy (defaults to [`ParMode::PerShard`]).
    pub mode: ParMode,
    /// Ignored; deleted by the next `benchmark` PR (ROADMAP 1(a)).
    #[doc(hidden)]
    pub lookahead: Option<SimDuration>,
}

impl ParConfig {
    /// A fleet run under thread policy `mode`.
    pub fn new(mode: ParMode) -> Self {
        ParConfig {
            mode,
            lookahead: None,
        }
    }
}

impl Default for ParConfig {
    fn default() -> Self {
        ParConfig::new(ParMode::PerShard)
    }
}

/// Deterministic per-shard seed: shard `i` of a fleet seeded `seed` gets
/// an independent, well-mixed RNG stream. Pure function of its inputs,
/// so fleet runs are reproducible across modes and machines.
pub fn shard_seed(seed: u64, shard: usize) -> u64 {
    splitmix64(seed ^ splitmix64(shard as u64))
}

type ShardOutcome = Result<SimReport, Box<dyn Any + Send>>;

/// Runs every shard kernel of a fleet to drain and returns their
/// [`SimReport`]s in shard order.
///
/// [`ParMode::Single`] runs the shards one after another, in shard order,
/// on the calling thread. [`ParMode::PerShard`] runs each on its own
/// scoped thread. Either way every shard is joined before this returns,
/// so anything the shards produced can be merged afterwards.
///
/// The shard kernels must be mutually independent: no fiber of one shard
/// may block on or wake a fiber of another.
///
/// # Panics
///
/// Panics if `shards` is empty. Re-raises the first shard panic (by shard
/// index, deterministically) after every shard stopped.
pub fn run_fleet(shards: Vec<Simulation>, cfg: &ParConfig) -> Vec<SimReport> {
    assert!(!shards.is_empty(), "run_fleet needs at least one shard");
    let run = |sim: Simulation| panic::catch_unwind(AssertUnwindSafe(|| sim.run()));
    let outcomes: Vec<ShardOutcome> = match cfg.mode {
        ParMode::Single => shards.into_iter().map(run).collect(),
        ParMode::PerShard => std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .into_iter()
                .map(|sim| scope.spawn(move || run(sim)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fleet worker thread panicked"))
                .collect()
        }),
    };
    unwrap_outcomes(outcomes)
}

/// Re-raises the first panic by shard index; otherwise unwraps reports.
fn unwrap_outcomes(outcomes: Vec<ShardOutcome>) -> Vec<SimReport> {
    if let Some(p) = outcomes.iter().position(|o| o.is_err()) {
        let payload = outcomes.into_iter().nth(p).unwrap().unwrap_err();
        panic::resume_unwind(payload);
    }
    outcomes.into_iter().map(|o| o.unwrap()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_seeds_are_distinct_and_stable() {
        let a = shard_seed(42, 0);
        let b = shard_seed(42, 1);
        assert_ne!(a, b);
        assert_eq!(a, shard_seed(42, 0));
        assert_ne!(shard_seed(43, 0), a);
    }

    fn run_mode(mode: ParMode) -> Vec<(u64, u64)> {
        let shards = (0..4)
            .map(|i| {
                let sim = Simulation::new(shard_seed(9, i));
                sim.spawn(format!("shard{i}"), move |ctx| {
                    for _ in 0..6 {
                        ctx.sleep(SimDuration::from_micros(5 + i as u64));
                    }
                });
                sim
            })
            .collect();
        run_fleet(shards, &ParConfig::new(mode))
            .iter()
            .map(|r| {
                r.assert_quiescent();
                (r.end_time.as_micros(), r.events_processed)
            })
            .collect()
    }

    /// Both policies return the same per-shard reports, in shard order.
    #[test]
    fn all_modes_agree() {
        assert_eq!(run_mode(ParMode::PerShard), run_mode(ParMode::Single));
    }

    /// Shards 1 and 2 both panic; shard 1's message is re-raised under
    /// every policy, whichever thread happens to fail first.
    #[test]
    fn fleet_shard_panic_propagates_deterministically() {
        for mode in [ParMode::Single, ParMode::PerShard] {
            let shards = (0..3)
                .map(|i| {
                    let sim = Simulation::new(1);
                    sim.spawn(format!("shard{i}"), move |ctx| {
                        ctx.sleep(SimDuration::from_micros(10));
                        match i {
                            1 => panic!("shard one exploded"),
                            2 => panic!("shard two exploded"),
                            _ => {}
                        }
                    });
                    sim
                })
                .collect();
            let err = panic::catch_unwind(AssertUnwindSafe(|| {
                run_fleet(shards, &ParConfig::new(mode))
            }))
            .expect_err("shard panic must propagate");
            let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(msg, "shard one exploded", "{mode:?}");
        }
    }
}
