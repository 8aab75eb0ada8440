//! Property tests for the host and SSDlet ports: FIFO ordering and typed-port
//! contracts must hold under arbitrary host/SSDlet interleavings, with and
//! without link faults.
//!
//! The framework's central port invariants, explored over a much wider
//! schedule space than the fixed integration tests:
//!
//! 1. A chain of identity SSDlets delivers every value exactly once, in
//!    order, no matter how sends, receives, and device fibers interleave.
//! 2. Link-level corruption (CRC detect + replay + backoff) is transparent:
//!    the same values arrive in the same order, and every injected fault is
//!    recovered.
//! 3. An armed-but-zero-rate fault plan is byte-identical to no plan at
//!    all, down to virtual completion time.
//! 4. Typed ports accept exactly their declared type (paper §III-C).

use std::sync::Arc;

use biscuit_sim::sync::Mutex;
use proptest::prelude::*;

use biscuit_core::module::{ModuleBuilder, SsdletSpec};
use biscuit_core::task::{Ssdlet, TaskCtx};
use biscuit_core::{Application, BiscuitError, CoreConfig, Ssd, SsdletModule};
use biscuit_fs::Fs;
use biscuit_sim::fault::{FaultConfig, FaultSite};
use biscuit_sim::time::{SimDuration, SimTime};
use biscuit_sim::{FaultPlan, Simulation};
use biscuit_ssd::{SsdConfig, SsdDevice};

fn make_ssd() -> Ssd {
    let dev = Arc::new(SsdDevice::new(SsdConfig {
        logical_capacity: 64 << 20,
        ..SsdConfig::paper_default()
    }));
    Ssd::new(Fs::format(dev), CoreConfig::paper_default())
}

/// Forwards u64 values, unchanged.
struct Identity;
impl Ssdlet for Identity {
    fn run(&mut self, ctx: &mut TaskCtx<'_>) {
        while let Some(v) = ctx.recv::<u64>(0).unwrap() {
            ctx.send(0, v).unwrap();
        }
    }
}

/// Forwards strings, unchanged.
struct IdentityStr;
impl Ssdlet for IdentityStr {
    fn run(&mut self, ctx: &mut TaskCtx<'_>) {
        while let Some(v) = ctx.recv::<String>(0).unwrap() {
            ctx.send(0, v).unwrap();
        }
    }
}

fn identity_module() -> SsdletModule {
    ModuleBuilder::new("prop")
        .register(
            "idU64",
            SsdletSpec::new().input::<u64>().output::<u64>(),
            |_| Ok(Box::new(Identity)),
        )
        .register(
            "idStr",
            SsdletSpec::new().input::<String>().output::<String>(),
            |_| Ok(Box::new(IdentityStr)),
        )
        .build()
}

/// Drives `values` through a chain of `stages` identity SSDlets. The sender
/// sleeps `gaps[i]` ns before each put and the receiver sleeps `reader_gap`
/// ns between gets, so each case explores a different interleaving of host
/// fibers, device fibers, and link DMA events. Returns the received values
/// and the virtual completion time.
fn run_ssdlet_chain(
    values: &[u64],
    gaps: &[u16],
    stages: usize,
    reader_gap: u16,
    plan: Option<&FaultPlan>,
) -> (Vec<u64>, SimTime) {
    let ssd = make_ssd();
    if let Some(p) = plan {
        ssd.attach_fault_plan(p);
    }
    let sim = Simulation::new(0);
    let out: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let done: Arc<Mutex<SimTime>> = Arc::new(Mutex::new(SimTime::ZERO));
    let (o, d, s) = (Arc::clone(&out), Arc::clone(&done), ssd.clone());
    let values = values.to_vec();
    let gaps = gaps.to_vec();
    sim.spawn("host", move |ctx| {
        let mid = s.load_module(ctx, identity_module()).unwrap();
        let app = Application::new(&s, "prop");
        let ids: Vec<_> = (0..stages)
            .map(|_| app.ssdlet(mid, "idU64").unwrap())
            .collect();
        for pair in ids.windows(2) {
            app.connect::<u64>(pair[0].out(0), pair[1].input(0))
                .unwrap();
        }
        let tx = app.connect_from::<u64>(ids[0].input(0)).unwrap();
        let rx = app.connect_to::<u64>(ids[stages - 1].out(0)).unwrap();
        app.start(ctx).unwrap();
        let oo = Arc::clone(&o);
        ctx.spawn("drain", move |ctx| {
            while let Some(v) = rx.get(ctx) {
                oo.lock().push(v);
                if reader_gap > 0 {
                    ctx.sleep(SimDuration::from_nanos(reader_gap as u64));
                }
            }
        });
        for (i, v) in values.iter().enumerate() {
            let gap = gaps.get(i).copied().unwrap_or(0);
            if gap > 0 {
                ctx.sleep(SimDuration::from_nanos(gap as u64));
            }
            tx.put(ctx, *v).unwrap();
        }
        tx.close(ctx);
        app.join(ctx);
        *d.lock() = ctx.now();
    });
    sim.run().assert_quiescent();
    let got = out.lock().clone();
    let at = *done.lock();
    (got, at)
}

/// Every site a fault plan accounts for.
const ALL_SITES: [FaultSite; 7] = [
    FaultSite::NandRead,
    FaultSite::LinkToHost,
    FaultSite::LinkToDevice,
    FaultSite::CoreStall,
    FaultSite::Ssdlet,
    FaultSite::Drive,
    FaultSite::PowerLoss,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// FIFO + exactly-once across arbitrary interleavings, fault-free.
    #[test]
    fn fifo_order_survives_arbitrary_interleavings(
        values in proptest::collection::vec(any::<u64>(), 1..40),
        gaps in proptest::collection::vec(0u16..2_000, 40),
        stages in 1usize..4,
        reader_gap in 0u16..2_000,
    ) {
        let (got, _) = run_ssdlet_chain(&values, &gaps, stages, reader_gap, None);
        prop_assert_eq!(got, values);
    }

    /// Link corruption with CRC replay never loses, duplicates, or reorders
    /// values, and every injected link fault is recovered.
    #[test]
    fn fifo_order_survives_link_faults(
        values in proptest::collection::vec(any::<u64>(), 1..40),
        gaps in proptest::collection::vec(0u16..2_000, 40),
        stages in 1usize..4,
        reader_gap in 0u16..2_000,
        seed in any::<u64>(),
        rate in 0.05f64..1.0,
    ) {
        let plan = FaultPlan::seeded(seed, FaultConfig {
            link_corrupt_rate: rate,
            ..FaultConfig::default()
        });
        let (got, _) = run_ssdlet_chain(&values, &gaps, stages, reader_gap, Some(&plan));
        prop_assert_eq!(got, values);
        for site in ALL_SITES {
            prop_assert_eq!(plan.recovered_at(site), plan.injected_at(site));
        }
    }

    /// An armed plan whose every rate is zero is byte-identical to running
    /// with no plan at all — same values, same virtual completion time.
    #[test]
    fn zero_rate_plan_is_transparent(
        values in proptest::collection::vec(any::<u64>(), 1..20),
        gaps in proptest::collection::vec(0u16..2_000, 20),
        stages in 1usize..4,
        seed in any::<u64>(),
    ) {
        let (clean, clean_at) = run_ssdlet_chain(&values, &gaps, stages, 0, None);
        let plan = FaultPlan::seeded(seed, FaultConfig::default());
        let (armed, armed_at) = run_ssdlet_chain(&values, &gaps, stages, 0, Some(&plan));
        prop_assert_eq!(clean, armed);
        prop_assert_eq!(clean_at, armed_at);
        for site in ALL_SITES {
            prop_assert_eq!(plan.injected_at(site), 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A boundary port accepts exactly its declared element type: u64 ports
    /// reject String connections and vice versa, in every direction.
    #[test]
    fn typed_ports_accept_exactly_declared_type(
        declared_u64 in any::<bool>(),
        connect_u64 in any::<bool>(),
        payload in any::<u64>(),
        text in "[a-z]{0,12}",
    ) {
        let ssd = make_ssd();
        let sim = Simulation::new(0);
        let s = ssd.clone();
        sim.spawn("host", move |ctx| {
            let mid = s.load_module(ctx, identity_module()).unwrap();
            let app = Application::new(&s, "typed");
            let id = app
                .ssdlet(mid, if declared_u64 { "idU64" } else { "idStr" })
                .unwrap();
            if declared_u64 == connect_u64 {
                // Matching types: wiring succeeds and one value round-trips
                // intact.
                if connect_u64 {
                    let tx = app.connect_from::<u64>(id.input(0)).unwrap();
                    let rx = app.connect_to::<u64>(id.out(0)).unwrap();
                    app.start(ctx).unwrap();
                    tx.put(ctx, payload).unwrap();
                    tx.close(ctx);
                    assert_eq!(rx.get(ctx), Some(payload));
                    assert_eq!(rx.get(ctx), None);
                } else {
                    let tx = app.connect_from::<String>(id.input(0)).unwrap();
                    let rx = app.connect_to::<String>(id.out(0)).unwrap();
                    app.start(ctx).unwrap();
                    tx.put(ctx, text.clone()).unwrap();
                    tx.close(ctx);
                    assert_eq!(rx.get(ctx), Some(text));
                    assert_eq!(rx.get(ctx), None);
                }
                app.join(ctx);
            } else {
                // Mismatched types: both directions are rejected at connect
                // time with a typed error (no panic, no implicit coercion).
                let (tx_err, rx_err) = if connect_u64 {
                    (
                        app.connect_from::<u64>(id.input(0)).err(),
                        app.connect_to::<u64>(id.out(0)).err(),
                    )
                } else {
                    (
                        app.connect_from::<String>(id.input(0)).err(),
                        app.connect_to::<String>(id.out(0)).err(),
                    )
                };
                assert!(matches!(tx_err, Some(BiscuitError::TypeMismatch { .. })));
                assert!(matches!(rx_err, Some(BiscuitError::TypeMismatch { .. })));
            }
        });
        sim.run().assert_quiescent();
    }
}
