//! Seeded, deterministic traffic generation for millions-of-users soaks.
//!
//! The paper measures single-stream TPC-H offload; a deployed array
//! instead sees *mixed* analytics traffic from a heavy-tailed user
//! population with pronounced diurnal load swings ("Identifying the
//! potential of Near Data Computing for Apache Spark", PAPERS.md). This
//! module generates that traffic shape reproducibly:
//!
//! - **Open-loop arrivals.** [`ArrivalProcess::OpenLoop`] draws
//!   exponential interarrival gaps around a mean — arrivals do not slow
//!   down when the array backs up, so overload must be *shed*
//!   ([`drive_open_loop`]).
//! - **Tenant popularity.** Queries are attributed to tenants by a
//!   Zipf(θ) draw over the tenant population (tenant 0 hottest). The
//!   first `tenants` arrivals sweep the population round-robin so every
//!   tenant — however cold — offers at least one query; this is what
//!   makes "zero starved tenants" a meaningful soak assertion.
//! - **Diurnal phases.** A repeating cycle of [`DiurnalPhase`]s scales
//!   the arrival rate (e.g. trough → daytime → burst), compressing a
//!   day's load curve into simulated milliseconds.
//! - **Query mix.** Each arrival is a [`QueryKind`] drawn from a
//!   weighted [`QueryMix`] with a per-kind WFQ cost (plus seeded
//!   jitter), so schedulers see heterogeneous service demands.
//!
//! Everything derives from one SplitMix64 stream seeded
//! by [`WorkloadConfig::seed`]: the same seed yields byte-identical
//! arrival sequences, and — because the DES kernel is deterministic —
//! byte-identical scheduler exports, across repeat runs and fleet
//! thread policies. See `docs/QOS.md` for a walkthrough.

use biscuit_sim::rng::splitmix64;
use biscuit_sim::{Ctx, SimDuration, SimTime};

use crate::array::QueryScheduler;

/// SplitMix64: the workload generator's seeded PRNG, a stream of
/// [`biscuit_sim::rng::splitmix64`] outputs. Small, fast, and stable across
/// platforms — the arrival stream is part of the repo's determinism
/// contract.
#[derive(Debug, Clone)]
pub(crate) struct WorkloadRng {
    state: u64,
}

impl WorkloadRng {
    /// Seeds the stream.
    pub(crate) fn new(seed: u64) -> Self {
        WorkloadRng { state: seed }
    }

    /// The next raw 64-bit draw.
    pub(crate) fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    /// A uniform draw in `[0, 1)` with 53 bits of precision.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// An exponential draw with the given mean, in picoseconds
    /// (inverse-CDF; the uniform draw is floored away from zero so the
    /// log never overflows).
    pub(crate) fn exp_ps(&mut self, mean_ps: f64) -> SimDuration {
        let u = self.next_f64().max(1e-12);
        SimDuration::from_ps((-mean_ps * u.ln()) as u64)
    }
}

/// One kind of query in the mix, mirroring the workloads the repo
/// already reproduces from the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Sharded pattern scan (the paper's string-search macrobenchmark).
    Grep,
    /// TPC-H Q1-shaped scan + aggregate.
    TpchQ1,
    /// TPC-H Q6-shaped filtered aggregate.
    TpchQ6,
    /// Latency-bound pointer chase (graph traversal).
    PointerChase,
}

impl QueryKind {
    /// Baseline WFQ cost units for this kind — roughly proportional to
    /// the pages a query of this shape touches relative to the others.
    pub(crate) fn base_cost(self) -> u64 {
        match self {
            QueryKind::Grep => 8,
            QueryKind::TpchQ1 => 12,
            QueryKind::TpchQ6 => 10,
            QueryKind::PointerChase => 3,
        }
    }
}

/// Relative draw weights for the query mix.
#[derive(Debug, Clone, Copy)]
pub struct QueryMix {
    /// Weight of [`QueryKind::Grep`].
    pub grep: u32,
    /// Weight of [`QueryKind::TpchQ1`].
    pub tpch_q1: u32,
    /// Weight of [`QueryKind::TpchQ6`].
    pub tpch_q6: u32,
    /// Weight of [`QueryKind::PointerChase`].
    pub pointer_chase: u32,
}

impl Default for QueryMix {
    /// Scan-heavy analytics: 8 grep : 4 Q1 : 4 Q6 : 2 pointer-chase.
    fn default() -> Self {
        QueryMix {
            grep: 8,
            tpch_q1: 4,
            tpch_q6: 4,
            pointer_chase: 2,
        }
    }
}

impl QueryMix {
    fn total(&self) -> u64 {
        u64::from(self.grep)
            + u64::from(self.tpch_q1)
            + u64::from(self.tpch_q6)
            + u64::from(self.pointer_chase)
    }

    fn sample(&self, rng: &mut WorkloadRng) -> QueryKind {
        let mut r = rng.next_u64() % self.total();
        for (kind, w) in [
            (QueryKind::Grep, self.grep),
            (QueryKind::TpchQ1, self.tpch_q1),
            (QueryKind::TpchQ6, self.tpch_q6),
            (QueryKind::PointerChase, self.pointer_chase),
        ] {
            if r < u64::from(w) {
                return kind;
            }
            r -= u64::from(w);
        }
        QueryKind::Grep
    }
}

/// One segment of the repeating diurnal load cycle.
#[derive(Debug, Clone, Copy)]
pub struct DiurnalPhase {
    /// How long this phase lasts (virtual time).
    pub dur: SimDuration,
    /// Arrival-rate multiplier while the phase is active (1.0 = the
    /// configured mean rate; >1 is a burst, <1 a trough).
    pub rate_mul: f64,
}

/// How arrivals are paced. Open loop is the only process; it stays an
/// enum because `biscuit-perf` builds it by variant.
#[derive(Debug, Clone, Copy)]
pub enum ArrivalProcess {
    /// Poisson-like open loop: exponential gaps around
    /// `mean_interarrival`, independent of array state. Drive with
    /// [`drive_open_loop`] (sheds on overload).
    OpenLoop {
        /// Mean gap between consecutive arrivals (before diurnal
        /// scaling).
        mean_interarrival: SimDuration,
    },
}

/// Knobs for [`WorkloadEngine`].
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// PRNG seed; same seed ⇒ byte-identical arrival stream.
    pub seed: u64,
    /// Tenant population size.
    pub tenants: u32,
    /// Total arrivals to generate.
    pub queries: u64,
    /// Zipf exponent for tenant popularity (0 = uniform; ~1 is the
    /// classic heavy tail).
    pub zipf_theta: f64,
    /// Query-kind mix.
    pub mix: QueryMix,
    /// Arrival pacing.
    pub arrivals: ArrivalProcess,
    /// Repeating diurnal cycle; empty means a flat rate.
    pub phases: Vec<DiurnalPhase>,
}

impl Default for WorkloadConfig {
    /// A small open-loop smoke shape: 64 tenants, 1024 queries,
    /// Zipf(1.1), 50 µs mean interarrival, trough/day/burst cycle.
    fn default() -> Self {
        WorkloadConfig {
            seed: 0x5EED_0008,
            tenants: 64,
            queries: 1024,
            zipf_theta: 1.1,
            mix: QueryMix::default(),
            arrivals: ArrivalProcess::OpenLoop {
                mean_interarrival: SimDuration::from_micros(50),
            },
            phases: vec![
                DiurnalPhase {
                    dur: SimDuration::from_millis(5),
                    rate_mul: 0.4,
                },
                DiurnalPhase {
                    dur: SimDuration::from_millis(10),
                    rate_mul: 1.0,
                },
                DiurnalPhase {
                    dur: SimDuration::from_millis(5),
                    rate_mul: 2.5,
                },
            ],
        }
    }
}

/// One generated arrival.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Global arrival index (0-based, in arrival order).
    pub seq: u64,
    /// When the query arrives (virtual time).
    pub at: SimTime,
    /// Which tenant offers it.
    pub tenant: u32,
    /// What shape of query it is.
    pub kind: QueryKind,
    /// WFQ cost units: the kind's base cost plus seeded jitter of up to
    /// half the base.
    pub cost: u64,
}

/// The seeded traffic engine: an iterator-style source of [`Arrival`]s.
#[derive(Debug, Clone)]
pub struct WorkloadEngine {
    cfg: WorkloadConfig,
    rng: WorkloadRng,
    /// Zipf CDF over tenants (normalized, monotone).
    cdf: Vec<f64>,
    cycle_ps: u64,
    emitted: u64,
    clock: SimTime,
}

impl WorkloadEngine {
    /// Builds the engine, precomputing the Zipf CDF.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is zero, the query mix has zero total
    /// weight, or a diurnal phase's `rate_mul` is not finite and
    /// positive (zero would make the next gap infinite; a negative or
    /// NaN one would release every remaining arrival at once).
    pub fn new(cfg: WorkloadConfig) -> Self {
        assert!(cfg.tenants > 0, "workload needs at least one tenant");
        assert!(cfg.mix.total() > 0, "query mix must have positive weight");
        assert!(
            cfg.phases
                .iter()
                .all(|p| p.rate_mul.is_finite() && p.rate_mul > 0.0),
            "diurnal rate_mul must be finite and positive"
        );
        let mut cdf = Vec::with_capacity(cfg.tenants as usize);
        let mut acc = 0.0f64;
        for r in 0..cfg.tenants {
            acc += 1.0 / f64::from(r + 1).powf(cfg.zipf_theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let cycle_ps = cfg.phases.iter().map(|p| p.dur.as_ps()).sum();
        let rng = WorkloadRng::new(cfg.seed);
        WorkloadEngine {
            cfg,
            rng,
            cdf,
            cycle_ps,
            emitted: 0,
            clock: SimTime::ZERO,
        }
    }

    /// The diurnal rate multiplier in effect at `at`.
    fn rate_mul(&self, at: SimTime) -> f64 {
        if self.cycle_ps == 0 {
            return 1.0;
        }
        let mut pos = at.as_ps() % self.cycle_ps;
        for ph in &self.cfg.phases {
            if pos < ph.dur.as_ps() {
                return ph.rate_mul;
            }
            pos -= ph.dur.as_ps();
        }
        1.0
    }

    /// Samples the next tenant: a round-robin coverage sweep for the
    /// first `tenants` arrivals (so every tenant offers at least one
    /// query even in a short run), Zipf thereafter.
    fn sample_tenant(&mut self) -> u32 {
        if self.emitted < u64::from(self.cfg.tenants)
            && u64::from(self.cfg.tenants) <= self.cfg.queries
        {
            return self.emitted as u32;
        }
        let u = self.rng.next_f64();
        let idx = self.cdf.partition_point(|&c| c < u);
        idx.min(self.cdf.len() - 1) as u32
    }

    /// The next open-loop arrival, or `None` when the configured query
    /// count is exhausted.
    pub fn next_arrival(&mut self) -> Option<Arrival> {
        let ArrivalProcess::OpenLoop { mean_interarrival } = self.cfg.arrivals;
        if self.emitted >= self.cfg.queries {
            return None;
        }
        let mul = self.rate_mul(self.clock);
        let gap = self.rng.exp_ps(mean_interarrival.as_ps() as f64 / mul);
        self.clock += gap;
        let tenant = self.sample_tenant();
        let kind = self.cfg.mix.sample(&mut self.rng);
        let base = kind.base_cost();
        let cost = base + self.rng.next_u64() % (base / 2 + 1);
        let seq = self.emitted;
        self.emitted += 1;
        Some(Arrival {
            seq,
            at: self.clock,
            tenant,
            kind,
            cost,
        })
    }
}

/// What [`drive_open_loop`] did with the engine's arrivals. The
/// reconciliation invariant is `offered == accepted + shed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriveStats {
    /// Arrivals offered to the scheduler.
    pub offered: u64,
    /// Arrivals the scheduler accepted.
    pub accepted: u64,
    /// Arrivals shed: the tenant's queue was full, the scheduler closed,
    /// or the tenant has no queue.
    pub shed: u64,
}

/// Runs an open-loop engine against `sched` on the calling fiber:
/// sleeps to each arrival's time, then [`QueryScheduler::try_submit`]s
/// the job built by `make_job`. Arrivals the scheduler cannot absorb
/// are shed, not queued — that is the open-loop contract. Returns once
/// the engine is exhausted (queries may still be in flight; drain with
/// [`QueryScheduler::wait_completed`]).
pub fn drive_open_loop<J, F>(
    ctx: &Ctx,
    sched: &QueryScheduler,
    engine: &mut WorkloadEngine,
    mut make_job: F,
) -> DriveStats
where
    F: FnMut(&Arrival) -> J,
    J: FnOnce(&Ctx) + Send + 'static,
{
    let mut stats = DriveStats::default();
    while let Some(a) = engine.next_arrival() {
        if a.at > ctx.now() {
            ctx.sleep_until(a.at);
        }
        stats.offered += 1;
        match sched.try_submit(ctx, a.tenant as usize, a.cost, make_job(&a)) {
            Ok(()) => stats.accepted += 1,
            Err(_) => stats.shed += 1,
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over little-endian `u64`s.
    fn fnv(values: impl IntoIterator<Item = u64>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in values {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// The golden digest of the seeded stream every arrival derives from:
    /// a change to seeding, float conversion or draw order fails here.
    #[test]
    fn workload_rng_draws() {
        let mut rng = WorkloadRng::new(7);
        let mut draws = Vec::new();
        for _ in 0..32 {
            draws.push(rng.next_u64());
        }
        for _ in 0..16 {
            draws.push(rng.next_f64().to_bits());
        }
        for _ in 0..16 {
            draws.push(rng.exp_ps(1e6).as_ps());
        }
        let h = fnv(draws);
        assert_eq!(h, 0x535c_d329_1783_a9e3, "{h:#x}");
    }

    #[test]
    fn arrival_costs_are_base_plus_half_base_jitter() {
        let mut engine = WorkloadEngine::new(WorkloadConfig {
            seed: 0xAB,
            queries: 4096,
            ..WorkloadConfig::default()
        });
        while let Some(a) = engine.next_arrival() {
            let base = a.kind.base_cost();
            assert!(
                (base..=base + base / 2).contains(&a.cost),
                "{:?} cost {} outside its jitter band",
                a.kind,
                a.cost
            );
        }
    }

    #[test]
    #[should_panic(expected = "diurnal rate_mul must be finite and positive")]
    fn zero_rate_phase_is_rejected() {
        let mut engine = WorkloadEngine::new(WorkloadConfig {
            phases: vec![DiurnalPhase {
                dur: SimDuration::from_millis(1),
                rate_mul: 0.0,
            }],
            ..WorkloadConfig::default()
        });
        while engine.next_arrival().is_some() {}
    }

    #[test]
    fn negative_nan_and_infinite_rate_phases_are_rejected() {
        for rate_mul in [-1.0, f64::NAN, f64::INFINITY] {
            let cfg = WorkloadConfig {
                phases: vec![DiurnalPhase {
                    dur: SimDuration::from_millis(1),
                    rate_mul,
                }],
                ..WorkloadConfig::default()
            };
            let built = std::panic::catch_unwind(|| WorkloadEngine::new(cfg));
            assert!(built.is_err(), "rate_mul {rate_mul} was accepted");
        }
    }
}
