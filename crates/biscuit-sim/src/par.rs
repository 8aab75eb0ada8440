//! The shard fleet: run independent shard kernels to drain on real OS
//! threads.
//!
//! Everything in [`crate::kernel`] is *one* deterministic event loop. The
//! multi-drive workloads (see `biscuit_host::array` and `docs/SCALE.md`)
//! proved that the *global* result order over N drives is a pure function
//! of `(shard id, sequence)` — producer timing never reaches the merged
//! output. This module exploits exactly that property: each drive's
//! simulation becomes its own [`Simulation`] ("shard kernel") run to
//! drain on a worker OS thread, and the only cross-shard synchronization
//! point is an ordered [`merge_port`] whose consumption order is canonical —
//! sequence-major, lane-minor — and therefore independent of thread
//! interleaving.
//!
//! ## The concurrency contract (see `docs/PARALLEL.md`)
//!
//! - **Shard kernels are independent.** [`run_fleet`] requires that no
//!   shard simulation schedules events into another: fibers of shard `i`
//!   only touch shard `i`'s queues, resources, and devices. The merge
//!   port is the one shared structure, and pushing into it never blocks
//!   and never schedules virtual-time events. So there is no cross-shard
//!   virtual time to synchronise: every shard simply runs to drain.
//! - **Same-seed runs are byte-identical.** Every shard kernel is the
//!   ordinary single-threaded kernel driven by [`Simulation::run`], so its
//!   trace/metrics exports — dispatch meters included — are a pure
//!   function of its seed and workload. The fleet merges per-shard
//!   artifacts in shard-id order and consumes results in canonical merge
//!   order, so [`ParMode::Single`] and any parallel mode produce
//!   identical bytes.
//! - **Merge lanes are unbounded.** A bounded cross-thread lane plus
//!   canonical-order consumption can deadlock when fewer worker threads
//!   than shards exist (the worker that owns the lane the consumer waits
//!   on may itself be parked pushing into a different full lane). Memory
//!   is bounded by each shard's total output, as in [`ParMode::Single`],
//!   which holds every lane's output until the gather runs.
//!
//! ## Example
//!
//! ```
//! use biscuit_sim::par::{self, ParConfig, ParMode};
//! use biscuit_sim::{Simulation, time::SimDuration};
//!
//! // Three shard kernels, each producing its shard id after a sleep.
//! let (txs, mut rx) = par::merge_port::<usize>(3);
//! let mut shards = Vec::new();
//! for (i, tx) in txs.into_iter().enumerate() {
//!     let sim = Simulation::new(par::shard_seed(7, i));
//!     sim.spawn(format!("shard{i}"), move |ctx| {
//!         ctx.sleep(SimDuration::from_micros(10 * (i as u64 + 1)));
//!         tx.send(i);
//!         tx.close();
//!     });
//!     shards.push(sim);
//! }
//! let (reports, merged) = par::run_fleet(shards, &ParConfig::new(ParMode::PerShard), move || {
//!     let mut out = Vec::new();
//!     while let Some((lane, item)) = rx.recv() {
//!         out.push((lane, item));
//!     }
//!     out
//! });
//! assert_eq!(merged, vec![(0, 0), (1, 1), (2, 2)]);
//! assert_eq!(reports.len(), 3);
//! ```

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use crate::kernel::{SimReport, Simulation};
use crate::metrics::MetricsRegistry;
use crate::rng::splitmix64;
use crate::sync::{Condvar, Mutex};
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
    /// order. The reference mode: parallel modes must match its exports
    /// byte for byte.
    Single,
    /// One worker thread per shard (the default).
    PerShard,
    /// A fixed worker pool; shard `i` is owned by worker `i % n`.
    Threads(usize),
}

impl ParMode {
    /// Parses a `BISCUIT_PAR` value: `0` → [`Single`], unset or empty →
    /// [`PerShard`], `n > 0` → [`Threads(n)`].
    ///
    /// [`Single`]: ParMode::Single
    /// [`PerShard`]: ParMode::PerShard
    /// [`Threads(n)`]: ParMode::Threads
    ///
    /// # Errors
    ///
    /// Returns a message naming the variable and the accepted forms when
    /// the value is not a non-negative integer.
    pub fn parse(value: Option<&str>) -> Result<ParMode, String> {
        match value {
            None | Some("") => Ok(ParMode::PerShard),
            Some(v) => match v.parse::<usize>() {
                Ok(0) => Ok(ParMode::Single),
                Ok(n) => Ok(ParMode::Threads(n)),
                Err(_) => Err(format!(
                    "BISCUIT_PAR must be unset or empty (one thread per shard), \
                     0 (single thread) or a thread count, got {v:?}"
                )),
            },
        }
    }

    /// Reads the `BISCUIT_PAR` environment variable (see [`ParMode::parse`]).
    ///
    /// # Panics
    ///
    /// Panics with [`ParMode::parse`]'s message on a malformed value.
    pub fn from_env() -> ParMode {
        let value = std::env::var("BISCUIT_PAR").ok();
        ParMode::parse(value.as_deref()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Worker threads used for a fleet of `shards` kernels (0 for
    /// [`ParMode::Single`]: the calling thread drives everything).
    pub fn workers(&self, shards: usize) -> usize {
        match *self {
            ParMode::Single => 0,
            ParMode::PerShard => shards,
            ParMode::Threads(n) => n.max(1).min(shards),
        }
    }
}

/// Knobs for [`run_fleet`].
#[derive(Debug, Clone)]
pub struct ParConfig {
    /// Thread policy (defaults to [`ParMode::from_env`]).
    pub mode: ParMode,
    /// Ignored; deleted by the next `benchmark` PR (ROADMAP 2(c)).
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
        ParConfig::new(ParMode::from_env())
    }
}

/// Deterministic per-shard seed: shard `i` of a fleet seeded `seed` gets
/// an independent, well-mixed RNG stream. Pure function of its inputs,
/// so fleet runs are reproducible across modes and machines.
pub fn shard_seed(seed: u64, shard: usize) -> u64 {
    splitmix64(seed ^ splitmix64(shard as u64))
}

// ---------------------------------------------------------------------------
// Cross-thread ordered merge port
// ---------------------------------------------------------------------------

struct LaneState<T> {
    queue: VecDeque<T>,
    /// Open producer handles; the lane closes when this reaches zero.
    open: usize,
    /// Items already consumed from this lane (the lane's merge cursor).
    popped: u64,
}

struct PortShared<T> {
    lanes: Mutex<Vec<LaneState<T>>>,
    cond: Condvar,
}

/// Creates a cross-thread ordered merge port with one lane per shard.
/// Returns one [`PortTx`] per lane (give lane `i` to shard `i`'s
/// producer) and the single [`PortRx`] consumer.
///
/// This is the OS-thread sibling of `biscuit_host::array::merge_channel`:
/// the same canonical consumption order (sequence-major, lane-minor over
/// still-open lanes), but producers are fibers of *different* shard
/// kernels and the consumer is a real thread. Lanes are deliberately
/// unbounded — see the module docs for why bounded lanes can deadlock a
/// thread pool — so [`PortTx::send`] never blocks and never schedules
/// virtual-time events.
///
/// # Panics
///
/// Panics if `lanes` is zero.
pub fn merge_port<T>(lanes: usize) -> (Vec<PortTx<T>>, PortRx<T>) {
    assert!(lanes > 0, "merge port needs at least one lane");
    let shared = Arc::new(PortShared {
        lanes: Mutex::new(
            (0..lanes)
                .map(|_| LaneState {
                    queue: VecDeque::new(),
                    open: 1,
                    popped: 0,
                })
                .collect(),
        ),
        cond: Condvar::new(),
    });
    let txs = (0..lanes)
        .map(|lane| PortTx {
            shared: Arc::clone(&shared),
            lane,
            closed: false,
        })
        .collect();
    let rx = PortRx {
        shared,
        seq: 0,
        cursor: 0,
    };
    (txs, rx)
}

/// Producer handle for one merge-port lane. Clones share the lane; it
/// closes when the last handle closes (or drops).
pub struct PortTx<T> {
    shared: Arc<PortShared<T>>,
    lane: usize,
    closed: bool,
}

impl<T> std::fmt::Debug for PortTx<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PortTx").field("lane", &self.lane).finish()
    }
}

impl<T> Clone for PortTx<T> {
    fn clone(&self) -> Self {
        self.shared.lanes.lock()[self.lane].open += 1;
        PortTx {
            shared: Arc::clone(&self.shared),
            lane: self.lane,
            closed: false,
        }
    }
}

impl<T> PortTx<T> {
    /// Appends `item` to this lane. Never blocks (lanes are unbounded)
    /// and never touches virtual time, so it is safe to call from any
    /// shard fiber or plain thread.
    pub fn send(&self, item: T) {
        let mut lanes = self.shared.lanes.lock();
        lanes[self.lane].queue.push_back(item);
        drop(lanes);
        self.shared.cond.notify_all();
    }

    /// Releases this handle; the lane closes when the last handle is
    /// released. Dropping a handle without calling `close` releases it
    /// the same way.
    pub fn close(mut self) {
        self.release();
    }

    fn release(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        let mut lanes = self.shared.lanes.lock();
        lanes[self.lane].open -= 1;
        drop(lanes);
        self.shared.cond.notify_all();
    }
}

impl<T> Drop for PortTx<T> {
    fn drop(&mut self) {
        self.release();
    }
}

/// Consumer side of [`merge_port`]: emits `(lane, item)` pairs in the
/// canonical order — item `r` of every lane that produces one (in lane
/// order) before any lane's item `r + 1`. The order is a pure function
/// of the per-lane item counts; producer timing and thread interleaving
/// cannot change it.
pub struct PortRx<T> {
    shared: Arc<PortShared<T>>,
    /// Current merge round: the per-lane item index being emitted.
    seq: u64,
    /// Next lane to visit within the current round.
    cursor: usize,
}

impl<T> std::fmt::Debug for PortRx<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PortRx")
            .field("seq", &self.seq)
            .field("cursor", &self.cursor)
            .finish()
    }
}

impl<T> PortRx<T> {
    /// The next item in canonical merge order, or `None` once every lane
    /// closed and drained. Blocks the calling OS thread while the lane
    /// under the cursor is open but empty — an open lane *owes* its item
    /// for this round, and skipping it would make the order depend on
    /// timing.
    pub fn recv(&mut self) -> Option<(usize, T)> {
        let mut lanes = self.shared.lanes.lock();
        loop {
            let n = lanes.len();
            while self.cursor < n {
                let lane = &mut lanes[self.cursor];
                // A lane participates in round `seq` iff it consumed
                // exactly `seq` items so far and can still produce more.
                if lane.popped == self.seq {
                    if let Some(item) = lane.queue.pop_front() {
                        lane.popped += 1;
                        let l = self.cursor;
                        self.cursor += 1;
                        return Some((l, item));
                    }
                    if lane.open > 0 {
                        // Owed but not yet produced: wait, re-examine.
                        self.shared.cond.wait(&mut lanes);
                        continue;
                    }
                    // Closed and drained: out of the merge for good.
                }
                self.cursor += 1;
            }
            // Round complete. Anything left for the next round?
            if lanes.iter().all(|l| l.queue.is_empty() && l.open == 0) {
                return None;
            }
            self.seq += 1;
            self.cursor = 0;
        }
    }
}

// ---------------------------------------------------------------------------
// The fleet runner
// ---------------------------------------------------------------------------

type ShardOutcome = Result<SimReport, Box<dyn Any + Send>>;

/// Runs every shard kernel of a fleet to completion, and `gather` on the
/// calling thread, returning the per-shard [`SimReport`]s (in shard order)
/// and the gather result.
///
/// `gather` typically loops on a [`PortRx`] whose [`PortTx`] ends live
/// inside the shard fibers; it must return once every lane closes. In
/// [`ParMode::Single`] the shards run to completion *first* (in shard
/// order, on the calling thread) and `gather` runs after — equivalent
/// because lanes are unbounded, and byte-identical because consumption
/// order is canonical. Otherwise each worker thread runs its shards
/// ([`ParMode::workers`], round-robin by shard index) to drain, one after
/// another, while `gather` runs.
///
/// The shard kernels must be mutually independent: no fiber of one shard
/// may block on or wake a fiber of another. Cross-shard data flows
/// through the merge port only.
///
/// # Panics
///
/// Re-raises the first shard panic (by shard index, deterministically)
/// after all shards stopped and `gather` returned.
pub fn run_fleet<R>(
    shards: Vec<Simulation>,
    cfg: &ParConfig,
    gather: impl FnOnce() -> R,
) -> (Vec<SimReport>, R) {
    let n = shards.len();
    assert!(n > 0, "run_fleet needs at least one shard");
    let run = |sim: Simulation| panic::catch_unwind(AssertUnwindSafe(|| sim.run()));
    let workers = cfg.mode.workers(n);

    if workers == 0 {
        // Single-threaded reference mode: shard order, straight to drain.
        let outcomes: Vec<ShardOutcome> = shards.into_iter().map(run).collect();
        let gathered = gather();
        return (unwrap_outcomes(outcomes), gathered);
    }

    // Worker w owns shards { i | i % workers == w }.
    let mut batches: Vec<Vec<(usize, Simulation)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, sim) in shards.into_iter().enumerate() {
        batches[i % workers].push((i, sim));
    }
    let (mut outcomes, gathered) = std::thread::scope(|scope| {
        let handles: Vec<_> = batches
            .into_iter()
            .map(|batch| {
                scope.spawn(move || {
                    batch
                        .into_iter()
                        .map(|(i, sim)| (i, run(sim)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let gathered = gather();
        let outcomes: Vec<(usize, ShardOutcome)> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("fleet worker thread panicked"))
            .collect();
        (outcomes, gathered)
    });
    outcomes.sort_by_key(|&(i, _)| i);
    let outcomes = outcomes.into_iter().map(|(_, o)| o).collect();
    (unwrap_outcomes(outcomes), gathered)
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
    use crate::rng::Rng;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn par_mode_workers() {
        assert_eq!(ParMode::Single.workers(8), 0);
        assert_eq!(ParMode::PerShard.workers(8), 8);
        assert_eq!(ParMode::Threads(2).workers(8), 2);
        assert_eq!(ParMode::Threads(16).workers(4), 4);
        assert_eq!(ParMode::Threads(1).workers(4), 1);
    }

    #[test]
    fn shard_seeds_are_distinct_and_stable() {
        let a = shard_seed(42, 0);
        let b = shard_seed(42, 1);
        assert_ne!(a, b);
        assert_eq!(a, shard_seed(42, 0));
        assert_ne!(shard_seed(43, 0), a);
    }

    /// The canonical merge order is a pure function of the per-lane item
    /// counts, whatever the producer thread timing. Seeded random sleeps
    /// shuffle the real interleaving across iterations; the output must
    /// never move.
    #[test]
    fn merge_port_order_is_interleaving_invariant() {
        let counts = [3usize, 1, 4, 0, 2];
        let expected = {
            // Canonical: round r emits lane l's r-th item for each lane
            // with more than r items, in lane order.
            let mut v = Vec::new();
            for round in 0..4usize {
                for (lane, &c) in counts.iter().enumerate() {
                    if round < c {
                        v.push((lane, (lane, round)));
                    }
                }
            }
            v
        };
        for trial in 0..8u64 {
            let (txs, mut rx) = merge_port::<(usize, usize)>(counts.len());
            let mut handles = Vec::new();
            for (lane, tx) in txs.into_iter().enumerate() {
                let c = counts[lane];
                handles.push(std::thread::spawn(move || {
                    let mut rng = Rng::seed_from_u64(trial * 31 + lane as u64);
                    for item in 0..c {
                        std::thread::sleep(std::time::Duration::from_micros(rng.range(0..200)));
                        tx.send((lane, item));
                    }
                    tx.close();
                }));
            }
            let mut got = Vec::new();
            while let Some(pair) = rx.recv() {
                got.push(pair);
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(got, expected, "trial {trial} diverged");
        }
    }

    #[test]
    fn merge_port_clone_keeps_lane_open() {
        let (txs, mut rx) = merge_port::<u32>(1);
        let tx = txs.into_iter().next().unwrap();
        let tx2 = tx.clone();
        tx.close();
        let h = std::thread::spawn(move || {
            tx2.send(5);
            drop(tx2); // implicit close
        });
        assert_eq!(rx.recv(), Some((0, 5)));
        assert_eq!(rx.recv(), None);
        h.join().unwrap();
    }

    fn fleet(n: usize, steps: u64) -> (Vec<Simulation>, PortRx<u64>) {
        let (txs, rx) = merge_port::<u64>(n);
        let mut shards = Vec::new();
        for (i, tx) in txs.into_iter().enumerate() {
            let sim = Simulation::new(shard_seed(9, i));
            sim.spawn(format!("shard{i}"), move |ctx| {
                for s in 0..steps {
                    ctx.sleep(SimDuration::from_micros(5 + i as u64));
                    tx.send(i as u64 * 1000 + s);
                }
                tx.close();
            });
            shards.push(sim);
        }
        (shards, rx)
    }

    fn run_mode(mode: ParMode) -> (Vec<u64>, Vec<(u64, u64)>) {
        let (shards, mut rx) = fleet(4, 6);
        let (reports, merged) = run_fleet(shards, &ParConfig::new(mode), move || {
            let mut v = Vec::new();
            while let Some((_, item)) = rx.recv() {
                v.push(item);
            }
            v
        });
        for r in &reports {
            r.assert_quiescent();
        }
        let stats = reports
            .iter()
            .map(|r| (r.end_time.as_micros(), r.events_processed))
            .collect();
        (merged, stats)
    }

    /// Single mode, per-shard threads and smaller pools all produce the
    /// same merged stream and the same per-shard reports.
    #[test]
    fn all_modes_agree() {
        let reference = run_mode(ParMode::Single);
        for mode in [ParMode::PerShard, ParMode::Threads(2), ParMode::Threads(3)] {
            assert_eq!(run_mode(mode), reference, "{mode:?}");
        }
    }

    #[test]
    fn fleet_shard_panic_propagates_deterministically() {
        for mode in [ParMode::Single, ParMode::PerShard, ParMode::Threads(2)] {
            let (txs, mut rx) = merge_port::<u64>(3);
            let mut shards = Vec::new();
            for (i, tx) in txs.into_iter().enumerate() {
                let sim = Simulation::new(1);
                sim.spawn(format!("shard{i}"), move |ctx| {
                    ctx.sleep(SimDuration::from_micros(10));
                    if i == 1 {
                        panic!("shard one exploded");
                    }
                    tx.send(i as u64);
                    tx.close();
                });
                shards.push(sim);
            }
            let err = panic::catch_unwind(AssertUnwindSafe(|| {
                run_fleet(shards, &ParConfig::new(mode), move || {
                    let mut v = Vec::new();
                    while let Some(p) = rx.recv() {
                        v.push(p);
                    }
                    v
                })
            }))
            .expect_err("shard panic must propagate");
            let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(msg, "shard one exploded", "{mode:?}");
        }
    }

    /// The gather closure really does run concurrently with the workers
    /// in parallel mode: a consumer that only releases the producers
    /// after seeing the first item would deadlock otherwise.
    #[test]
    fn gather_runs_concurrently_with_workers() {
        let (txs, mut rx) = merge_port::<u64>(2);
        let seen = Arc::new(AtomicU64::new(0));
        let mut shards = Vec::new();
        for (i, tx) in txs.into_iter().enumerate() {
            let sim = Simulation::new(0);
            sim.spawn(format!("s{i}"), move |ctx| {
                for k in 0..50u64 {
                    ctx.sleep(SimDuration::from_micros(1));
                    tx.send(k);
                }
                tx.close();
            });
            shards.push(sim);
        }
        let seen2 = Arc::clone(&seen);
        let cfg = ParConfig::new(ParMode::PerShard);
        let (_reports, total) = run_fleet(shards, &cfg, move || {
            let mut total = 0u64;
            while let Some((_, v)) = rx.recv() {
                seen2.fetch_add(1, Ordering::Relaxed);
                total += v;
            }
            total
        });
        assert_eq!(seen.load(Ordering::Relaxed), 100);
        assert_eq!(total, 2 * (0..50).sum::<u64>());
    }

    /// run_fleet with more shards than worker threads must not deadlock
    /// even when one shard produces far more than the others (the
    /// unbounded-lane design point).
    #[test]
    fn skewed_lanes_with_small_pool_complete() {
        let (txs, mut rx) = merge_port::<u64>(4);
        let mut shards = Vec::new();
        for (i, tx) in txs.into_iter().enumerate() {
            let sim = Simulation::new(0);
            let items = if i == 3 { 200u64 } else { 1 };
            sim.spawn(format!("s{i}"), move |ctx| {
                for k in 0..items {
                    ctx.sleep(SimDuration::from_micros(1));
                    tx.send(k);
                }
                tx.close();
            });
            shards.push(sim);
        }
        let cfg = ParConfig::new(ParMode::Threads(2));
        let (_reports, count) = run_fleet(shards, &cfg, move || {
            let mut count = 0u64;
            while rx.recv().is_some() {
                count += 1;
            }
            count
        });
        assert_eq!(count, 203);
    }

    #[test]
    fn par_mode_parse_accepts_counts_and_names_the_variable() {
        assert_eq!(ParMode::parse(None), Ok(ParMode::PerShard));
        assert_eq!(ParMode::parse(Some("")), Ok(ParMode::PerShard));
        assert_eq!(ParMode::parse(Some("0")), Ok(ParMode::Single));
        assert_eq!(ParMode::parse(Some("3")), Ok(ParMode::Threads(3)));
        for bad in ["two", "-1", "1.5", " 2"] {
            let err = ParMode::parse(Some(bad)).unwrap_err();
            assert!(err.contains("BISCUIT_PAR") && err.contains(bad), "{err}");
        }
    }
}
