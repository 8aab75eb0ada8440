//! Property-based tests for the simulation kernel's core invariants.

use std::sync::Arc;

use biscuit_sim::sync::Mutex;
use proptest::prelude::*;

use biscuit_sim::queue::SimQueue;
use biscuit_sim::time::SimDuration;
use biscuit_sim::Simulation;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Items pushed by one producer arrive at one consumer complete and in
    /// order, for any capacity, payload set, and random per-item delays.
    #[test]
    fn spsc_fifo_no_loss(
        cap in 1usize..16,
        items in proptest::collection::vec(any::<u32>(), 0..200),
        prod_delay_us in 0u64..20,
        cons_delay_us in 0u64..20,
    ) {
        let sim = Simulation::new(0);
        let q = SimQueue::new(cap);
        let expected = items.clone();
        let tx = q.clone();
        sim.spawn("producer", move |ctx| {
            for v in items {
                ctx.sleep(SimDuration::from_micros(prod_delay_us));
                tx.push(ctx, v).unwrap();
            }
            tx.close(ctx);
        });
        let out = Arc::new(Mutex::new(Vec::new()));
        let o = Arc::clone(&out);
        sim.spawn("consumer", move |ctx| {
            while let Some(v) = q.pop(ctx) {
                o.lock().push(v);
                ctx.sleep(SimDuration::from_micros(cons_delay_us));
            }
        });
        sim.run().assert_quiescent();
        prop_assert_eq!(&*out.lock(), &expected);
    }

    /// With multiple producers and consumers, the multiset of received items
    /// equals the multiset of sent items (exactly-once delivery).
    #[test]
    fn mpmc_exactly_once(
        cap in 1usize..8,
        n_producers in 1usize..4,
        n_consumers in 1usize..4,
        per_producer in 0usize..50,
    ) {
        let sim = Simulation::new(1);
        let q = SimQueue::new(cap);
        let done = Arc::new(Mutex::new(0usize));
        for p in 0..n_producers {
            let tx = q.clone();
            let done = Arc::clone(&done);
            let closer = q.clone();
            sim.spawn(format!("p{p}"), move |ctx| {
                for i in 0..per_producer {
                    tx.push(ctx, (p * 1000 + i) as u32).unwrap();
                    ctx.sleep(SimDuration::from_micros((p as u64 % 3) + 1));
                }
                let mut d = done.lock();
                *d += 1;
                let all_done = *d == n_producers;
                drop(d);
                if all_done {
                    closer.close(ctx);
                }
            });
        }
        let seen = Arc::new(Mutex::new(Vec::new()));
        for c in 0..n_consumers {
            let rx = q.clone();
            let seen = Arc::clone(&seen);
            sim.spawn(format!("c{c}"), move |ctx| {
                while let Some(v) = rx.pop(ctx) {
                    seen.lock().push(v);
                    ctx.sleep(SimDuration::from_micros((c as u64 % 2) + 1));
                }
            });
        }
        sim.run().assert_quiescent();
        let mut got = seen.lock().clone();
        got.sort_unstable();
        let mut expect: Vec<u32> = (0..n_producers)
            .flat_map(|p| (0..per_producer).map(move |i| (p * 1000 + i) as u32))
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// Virtual time observed by any single fiber is monotonically
    /// non-decreasing across arbitrary sleeps.
    #[test]
    fn fiber_time_monotonic(delays in proptest::collection::vec(0u64..1000, 1..50)) {
        let sim = Simulation::new(2);
        let times = Arc::new(Mutex::new(Vec::new()));
        let t = Arc::clone(&times);
        sim.spawn("f", move |ctx| {
            for d in delays {
                ctx.sleep(SimDuration::from_nanos(d));
                t.lock().push(ctx.now());
            }
        });
        sim.run().assert_quiescent();
        let ts = times.lock();
        prop_assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Identical seeds and workloads produce identical event schedules.
    #[test]
    fn determinism_across_runs(seed in any::<u64>(), n in 1usize..6) {
        fn run(seed: u64, n: usize) -> (u64, u64) {
            let sim = Simulation::new(seed);
            let q = SimQueue::new(2);
            for i in 0..n {
                let q = q.clone();
                sim.spawn(format!("w{i}"), move |ctx| {
                    let jitter = ctx.with_rng(|r| r.range(0..100u64));
                    ctx.sleep(SimDuration::from_nanos(jitter));
                    let _ = q.try_push(ctx, i as u32);
                });
            }
            let report = sim.run();
            (report.end_time.as_ps(), report.events_processed)
        }
        prop_assert_eq!(run(seed, n), run(seed, n));
    }
}
