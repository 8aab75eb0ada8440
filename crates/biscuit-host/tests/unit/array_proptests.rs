//! Property tests for the scale-out merge port and shard coordinator:
//! for arbitrary shard counts, per-shard record counts, and producer
//! interleavings, the gathered stream preserves per-shard FIFO order and
//! its global order is a pure function of (shard id, sequence) — never of
//! timing.

// The properties spell their shared result collectors' types out in place.
#![allow(clippy::type_complexity)]

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use crate::array::{merge_channel, ArrayConfig, ArrayShard, ShardFailure, SsdArray};
use crate::HostConfig;
use biscuit_core::{CoreConfig, Ssd};
use biscuit_fs::Fs;
use biscuit_sim::{Ctx, SimDuration, Simulation};
use biscuit_ssd::{SsdConfig, SsdDevice};

/// The canonical merge order implied by per-shard item counts alone:
/// sequence-major, shard-id-minor, a lane participating in round `k` iff
/// it still has a `k`-th item.
fn canonical_order(counts: &[usize]) -> Vec<(usize, u64)> {
    let rounds = counts.iter().copied().max().unwrap_or(0);
    let mut out = Vec::new();
    for k in 0..rounds {
        for (s, &c) in counts.iter().enumerate() {
            if c > k {
                out.push((s, k as u64));
            }
        }
    }
    out
}

/// Runs producers with the given per-item delays against one merge
/// consumer and returns the gathered `(shard, seq)` stream.
fn run_merge(seed: u64, capacity: usize, delays: Vec<Vec<u64>>) -> Vec<(usize, u64)> {
    let gathered: Arc<Mutex<Vec<(usize, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let out = Arc::clone(&gathered);
    let sim = Simulation::new(seed);
    sim.spawn("merge-host", move |ctx| {
        let (txs, mut rx) = merge_channel::<usize>(delays.len(), capacity);
        for (s, lane_delays) in delays.into_iter().enumerate() {
            let tx = txs[s].clone();
            ctx.spawn(format!("producer-{s}"), move |pctx| {
                for (i, d) in lane_delays.into_iter().enumerate() {
                    pctx.sleep(SimDuration::from_micros(d));
                    tx.send(pctx, i).expect("lane open");
                }
                tx.close(pctx);
            });
        }
        while let Some((s, seq, item)) = rx.next(ctx, None).expect("no deadline") {
            assert_eq!(seq as usize, item, "payload rides with its sequence");
            out.lock().unwrap().push((s, seq));
        }
    });
    sim.run().assert_quiescent();
    Arc::try_unwrap(gathered).unwrap().into_inner().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary interleavings: every lane's items arrive in FIFO order
    /// and the global order equals the canonical order computed from the
    /// counts alone.
    #[test]
    fn merge_order_is_pure_function_of_counts(
        seed in any::<u64>(),
        capacity in 1usize..8,
        delays in proptest::collection::vec(
            proptest::collection::vec(0u64..50, 0..12),
            1..6,
        ),
    ) {
        let counts: Vec<usize> = delays.iter().map(Vec::len).collect();
        let gathered = run_merge(seed, capacity, delays);

        // Per-shard FIFO.
        for (s, &c) in counts.iter().enumerate() {
            let lane: Vec<u64> = gathered
                .iter()
                .filter(|(sh, _)| *sh == s)
                .map(|&(_, seq)| seq)
                .collect();
            prop_assert_eq!(lane, (0..c as u64).collect::<Vec<_>>());
        }
        // Global order is timing-independent.
        prop_assert_eq!(gathered, canonical_order(&counts));
    }

    /// Two runs with the same counts but different delays and kernel
    /// seeds gather the exact same stream.
    #[test]
    fn merge_order_ignores_timing(
        counts in proptest::collection::vec(0usize..10, 1..5),
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        jitter in 0u64..40,
    ) {
        let fast: Vec<Vec<u64>> = counts.iter().map(|&c| vec![0; c]).collect();
        let slow: Vec<Vec<u64>> = counts
            .iter()
            .enumerate()
            .map(|(s, &c)| (0..c as u64).map(|i| (s as u64 + 1) * jitter + i).collect())
            .collect();
        prop_assert_eq!(run_merge(seed_a, 4, fast), run_merge(seed_b, 2, slow));
    }
}

fn mk_array(n: usize) -> SsdArray {
    let drives = (0..n)
        .map(|_| {
            let dev = Arc::new(SsdDevice::new(SsdConfig {
                logical_capacity: 16 << 20,
                ..SsdConfig::paper_default()
            }));
            Ssd::new(Fs::format(dev), CoreConfig::paper_default())
        })
        .collect();
    SsdArray::new(
        drives,
        HostConfig::paper_default(),
        ArrayConfig { merge_capacity: 2 },
    )
}

proptest! {
    // Each case formats `n` simulated drives, so keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A fault-free scatter returns every shard's items, in order, with
    /// no recovery — identical to running the shards one by one.
    #[test]
    fn scatter_gathers_every_shard_in_order(
        counts in proptest::collection::vec(0usize..16, 1..5),
        seed in any::<u64>(),
    ) {
        let n = counts.len();
        let array = mk_array(n);
        let job_counts = counts.clone();
        let results: Arc<Mutex<Vec<(usize, Vec<(usize, usize)>, bool)>>> =
            Arc::new(Mutex::new(Vec::new()));
        let out = Arc::clone(&results);
        let sim = Simulation::new(seed);
        sim.spawn("host", move |ctx| {
            let got = array
                .scatter::<(usize, usize), ShardFailure, _, _>(
                    ctx,
                    "prop",
                    move |fctx, shard, tx| {
                        for i in 0..job_counts[shard.id] {
                            // Shard- and item-dependent pacing: different
                            // interleaving every case, same merge order.
                            fctx.sleep(SimDuration::from_micros(
                                (shard.id as u64 * 13 + i as u64 * 7) % 23,
                            ));
                            tx.send(fctx, (shard.id, i))
                                .map_err(|_| ShardFailure::new("lane closed"))?;
                        }
                        Ok(())
                    },
                    |_ctx: &Ctx, _shard: &ArrayShard| unreachable!("no faults planned"),
                )
                .expect("fault-free scatter");
            *out.lock().unwrap() = got
                .into_iter()
                .map(|r| (r.shard, r.items, r.recovered))
                .collect();
        });
        sim.run().assert_quiescent();
        let got = Arc::try_unwrap(results).unwrap().into_inner().unwrap();
        prop_assert_eq!(got.len(), n);
        for (s, (shard, items, recovered)) in got.into_iter().enumerate() {
            prop_assert_eq!(shard, s);
            prop_assert!(!recovered);
            let want: Vec<(usize, usize)> = (0..counts[s]).map(|i| (s, i)).collect();
            prop_assert_eq!(items, want);
        }
    }
}
