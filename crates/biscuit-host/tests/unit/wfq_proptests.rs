//! Property tests for the scheduler's weighted-fair-queueing contract
//! (`docs/QOS.md`): work conservation, weight-proportional service, and
//! starvation-freedom under an adversarial flooding tenant.
//!
//! The tests exploit two structural facts to make the invariants exact
//! rather than statistical:
//!
//! - WFQ tags are assigned at acceptance and are a pure function of the
//!   submission history. Submitting an entire backlog *before* the
//!   worker pool starts pins every tag (virtual time stays 0), so the
//!   dispatch order is the sorted tag order and the start-time
//!   fair-queueing prefix bound can be checked exactly.
//! - With a single worker, completions are sequential, so the recorded
//!   completion order *is* the dispatch order, and the last completion
//!   time of an always-backlogged scheduler is exactly the sum of the
//!   service times (work conservation with no idle gaps).

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use crate::{QueryScheduler, SchedulerConfig, TenantReport};
use biscuit_sim::queue::SimQueue;
use biscuit_sim::{SimDuration, SimTime, Simulation};

/// Submits `per_tenant` unit-cost queries for each of `weights.len()`
/// tenants (round-robin, all before the workers start), then runs one
/// worker to drain them. Returns the completion order (tenant ids).
fn run_backlogged(weights: Vec<u64>, per_tenant: usize, service_us: u64) -> Vec<u32> {
    let users = weights.len();
    let order: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    let out = Arc::clone(&order);
    let sim = Simulation::new(0xFA1);
    sim.spawn("host", move |ctx| {
        let sched = QueryScheduler::new(SchedulerConfig {
            users,
            max_inflight: 1,
            queue_capacity: per_tenant.max(1),
            weights,
        });
        // Entire backlog first: no worker is running, so virtual time
        // stays 0 and tenant i's k-th query gets the exact tag
        // k * WFQ_SCALE / w_i regardless of submission interleaving.
        // Each queue holds its whole backlog, so nothing sheds.
        for _round in 0..per_tenant {
            for u in 0..users {
                let out = Arc::clone(&out);
                let job = move |qctx: &biscuit_sim::Ctx| {
                    qctx.sleep(SimDuration::from_micros(service_us));
                    out.lock().unwrap().push(u as u32);
                };
                sched.try_submit(ctx, u, 1, job).expect("backlog fits");
            }
        }
        assert_eq!(sched.shed(), 0);
        sched.start(ctx);
        sched.close(ctx);
        sched.wait_completed(ctx, (users * per_tenant) as u64);
    });
    sim.run().assert_quiescent();
    Arc::try_unwrap(order).unwrap().into_inner().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Work conservation: one worker, the whole backlog available from
    /// t = 0, so the last completion lands at exactly the sum of the
    /// service times — any idle gap while work is queued would push it
    /// later, any skipped query earlier.
    #[test]
    fn single_worker_makespan_is_exact_service_sum(
        durations in proptest::collection::vec(1u64..40, 1..24),
    ) {
        let n = durations.len() as u64;
        let sum_us: u64 = durations.iter().sum();
        let end: Arc<Mutex<SimTime>> = Arc::new(Mutex::new(SimTime::ZERO));
        let out = Arc::clone(&end);
        let sim = Simulation::new(0xC0);
        sim.spawn("host", move |ctx| {
            let sched = QueryScheduler::new(SchedulerConfig {
                users: 1,
                max_inflight: 1,
                queue_capacity: durations.len(),
                weights: Vec::new(),
            });
            for d in durations {
                let job = move |qctx: &biscuit_sim::Ctx| {
                    qctx.sleep(SimDuration::from_micros(d));
                };
                sched.try_submit(ctx, 0, 1, job).expect("backlog fits");
            }
            assert_eq!(sched.shed(), 0);
            sched.start(ctx);
            sched.close(ctx);
            sched.wait_completed(ctx, n);
            *out.lock().unwrap() = ctx.now();
        });
        sim.run().assert_quiescent();
        let got = *end.lock().unwrap();
        prop_assert_eq!(
            got,
            SimTime::ZERO + SimDuration::from_micros(sum_us),
            "makespan must equal the exact service sum (no idle, no loss)"
        );
    }

    /// Weight-proportional service: power-of-two weights divide
    /// `WFQ_SCALE` exactly, so tenant i's k-th query has tag exactly
    /// k/w_i and start-time fair queueing guarantees, for every prefix
    /// of the dispatch order in which tenant j is still backlogged:
    /// served_i / w_i <= (served_j + 1) / w_j. Cross-multiplied, that is
    /// checked exactly at every completion.
    #[test]
    fn service_is_weight_proportional_within_one_query(
        weights in proptest::collection::vec(
            proptest::sample::select(vec![1u64, 2, 4, 8, 16]),
            2..5,
        ),
        per_tenant in 4usize..12,
    ) {
        let users = weights.len();
        let order = run_backlogged(weights.clone(), per_tenant, 2);
        prop_assert_eq!(order.len(), users * per_tenant);

        let mut served = vec![0u64; users];
        for &t in &order {
            served[t as usize] += 1;
            for i in 0..users {
                for j in 0..users {
                    // The SFQ prefix bound applies while j still has
                    // unserved queries in the backlog.
                    if i == j || served[j] >= per_tenant as u64 {
                        continue;
                    }
                    prop_assert!(
                        u128::from(served[i]) * u128::from(weights[j])
                            <= (u128::from(served[j]) + 1) * u128::from(weights[i]),
                        "prefix unfairness: served={:?} weights={:?}",
                        served,
                        &weights
                    );
                }
            }
        }
        // Full drain: everyone got everything.
        for (u, &s) in served.iter().enumerate() {
            prop_assert_eq!(s, per_tenant as u64, "tenant {} lost queries", u);
        }
    }

    /// Starvation-freedom, randomized: one tenant floods far beyond the
    /// array's capacity while the others trickle in. The queues hold at
    /// least a polite tenant's whole offer, so no polite query may shed.
    /// However hard the flood pushes, every polite query is accepted and
    /// completed, and the books reconcile exactly.
    #[test]
    fn flood_never_starves_polite_tenants(
        flood_n in 200u64..600,
        polite_n in 5u64..15,
        headroom in 0usize..6,
        workers in 1usize..4,
    ) {
        let cap = polite_n as usize + headroom;
        let stats = run_flood(flood_n, polite_n, cap, workers, 2);
        for r in &stats.reports[1..] {
            prop_assert_eq!(r.shed, 0, "polite tenant {} shed", r.user);
            prop_assert_eq!(r.offered, polite_n, "polite tenant {} offered", r.user);
            prop_assert_eq!(
                r.completed, polite_n,
                "polite tenant {} starved under flood", r.user
            );
        }
        let flood = &stats.reports[0];
        prop_assert_eq!(flood.offered, flood_n);
        prop_assert_eq!(flood.offered, flood.accepted + flood.shed);
        prop_assert_eq!(flood.completed, flood.accepted, "accepted flood work completes");
        prop_assert_eq!(
            stats.submitted, stats.completed,
            "drain leaves nothing in flight"
        );
        prop_assert_eq!(
            stats.shed + stats.submitted,
            flood_n + 3 * polite_n,
            "offered == accepted + shed, globally"
        );
    }
}

/// Outcome of one flood scenario: the global counters plus per-tenant
/// reports (tenant 0 is the flooder; tenants 1..=3 are polite).
struct FloodOutcome {
    submitted: u64,
    completed: u64,
    shed: u64,
    reports: Vec<TenantReport>,
}

/// Tenant 0 open-loop floods `flood_n` queries at a 100x higher rate
/// than the three polite tenants, which submit `polite_n` queries each.
/// Every queue holds `cap` queries; jobs sleep `service_us`.
fn run_flood(
    flood_n: u64,
    polite_n: u64,
    cap: usize,
    workers: usize,
    service_us: u64,
) -> FloodOutcome {
    let outcome: Arc<Mutex<Option<FloodOutcome>>> = Arc::new(Mutex::new(None));
    let out = Arc::clone(&outcome);
    let sim = Simulation::new(0xF100D);
    sim.spawn("host", move |ctx| {
        let sched = QueryScheduler::new(SchedulerConfig {
            users: 4,
            max_inflight: workers,
            queue_capacity: cap,
            weights: Vec::new(),
        });
        sched.start(ctx);
        let done: SimQueue<()> = SimQueue::new(4);

        // Polite tenants: one submission every 5 us.
        for u in 1..4usize {
            let sched = sched.clone();
            let done = done.clone();
            ctx.spawn(format!("polite{u}"), move |pctx| {
                for _ in 0..polite_n {
                    let job = move |qctx: &biscuit_sim::Ctx| {
                        qctx.sleep(SimDuration::from_micros(service_us));
                    };
                    let _ = sched.try_submit(pctx, u, 1, job);
                    pctx.sleep(SimDuration::from_micros(5));
                }
                let _ = done.push(pctx, ());
            });
        }
        // The flooder: 100x the polite rate (every 50 ns), shedding what
        // the bounded queue cannot hold.
        {
            let sched = sched.clone();
            let done = done.clone();
            ctx.spawn("flooder", move |fctx| {
                for _ in 0..flood_n {
                    let job = move |qctx: &biscuit_sim::Ctx| {
                        qctx.sleep(SimDuration::from_micros(service_us));
                    };
                    let _ = sched.try_submit(fctx, 0, 1, job);
                    fctx.sleep(SimDuration::from_nanos(50));
                }
                let _ = done.push(fctx, ());
            });
        }
        for _ in 0..4 {
            done.pop(ctx).expect("submitter finished");
        }
        sched.close(ctx);
        sched.wait_completed(ctx, sched.submitted());
        *out.lock().unwrap() = Some(FloodOutcome {
            submitted: sched.submitted(),
            completed: sched.completed(),
            shed: sched.shed(),
            reports: sched.tenant_reports(),
        });
    });
    sim.run().assert_quiescent();
    Arc::try_unwrap(outcome)
        .map_err(|_| ())
        .unwrap()
        .into_inner()
        .unwrap()
        .expect("host fiber ran")
}

/// The adversarial 100x flood at fixed, heavy contention: beyond the
/// liveness facts checked property-style above, the *fairness* signal —
/// a polite tenant's worst queue wait stays at or below the flooder's,
/// because SFQ tags keep a sparse tenant near the head of the heap while
/// the flooder's backlog runs ahead of virtual time. The queues hold a
/// polite tenant's whole offer, so only the flooder sheds.
#[test]
fn flood_100x_polite_waits_bounded_by_flooder() {
    let stats = run_flood(2000, 20, 20, 2, 2);
    let flood = &stats.reports[0];
    assert!(flood.shed > 0, "a 100x flood against cap 20 must shed");
    assert!(flood.accepted > 0, "the flooder still gets its fair share");
    let flood_worst = flood.queue_wait.max;
    assert!(flood_worst > 0, "contention produced no queueing at all");
    for r in &stats.reports[1..] {
        assert_eq!(r.shed, 0, "polite tenant {} shed", r.user);
        assert_eq!(r.completed, 20, "polite tenant {} starved", r.user);
        assert!(
            r.queue_wait.max <= flood_worst,
            "polite tenant {} waited {}ps, beyond the flooder's {}ps",
            r.user,
            r.queue_wait.max,
            flood_worst
        );
    }
}

/// Submits, before the single worker starts, three jobs of cost 2 for
/// tenant 0 and six of cost `b_cost` for tenant 1 (equal weights), and
/// returns the dispatch order.
fn dispatch_order_by_cost(b_cost: u64) -> Vec<u32> {
    let order: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    let out = Arc::clone(&order);
    let sim = Simulation::new(0xC057);
    sim.spawn("host", move |ctx| {
        let sched = QueryScheduler::new(SchedulerConfig {
            users: 2,
            max_inflight: 1,
            queue_capacity: 6,
            weights: Vec::new(),
        });
        for (user, cost, n) in [(0usize, 2u64, 3), (1, b_cost, 6)] {
            for _ in 0..n {
                let out = Arc::clone(&out);
                let job = move |_qctx: &biscuit_sim::Ctx| out.lock().unwrap().push(user as u32);
                sched
                    .try_submit(ctx, user, cost, job)
                    .expect("backlog fits");
            }
        }
        assert_eq!(sched.shed(), 0);
        sched.start(ctx);
        sched.close(ctx);
        sched.wait_completed(ctx, 9);
    });
    sim.run().assert_quiescent();
    Arc::try_unwrap(order).unwrap().into_inner().unwrap()
}

/// WFQ charges by cost: a tenant's finish tag advances by
/// `cost / weight`. Tenant 0's cost-2 jobs finish at tags 2, 4, 6 and
/// tenant 1's cost-1 jobs at 1..=6; ties go to the lower user. A cost-0
/// job is charged as cost 1.
#[test]
fn finish_tags_advance_by_cost_over_weight() {
    let expected = vec![1, 0, 1, 1, 0, 1, 1, 0, 1];
    assert_eq!(dispatch_order_by_cost(1), expected);
    assert_eq!(dispatch_order_by_cost(0), expected, "cost 0 counts as 1");
}
