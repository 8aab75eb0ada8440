//! Property tests for crash-consistent recovery: arbitrary overwrite
//! schedules (tight enough to force GC) interrupted by seeded power
//! losses at arbitrary instants, mid-write and mid-GC alike.
//!
//! The recovery contract under test (see `docs/WRITEPATH.md`):
//!
//! 1. **No acked write is ever lost.** Every write that returned `Ok`
//!    before the crash reads back its exact bytes after journal replay.
//! 2. **Recovery is deterministic.** The same seed produces a
//!    byte-identical physical state export (full L2P map, free lists,
//!    frontier, sequence) across repeat crash/recover runs.
//! 3. **A crashed run converges to its uncrashed twin.** Replaying the
//!    journal and re-issuing the interrupted suffix of the schedule
//!    yields a logical state export byte-identical to the same schedule
//!    run without any crash.

use std::collections::HashMap;

use proptest::prelude::*;

use crate::ftl::{Ftl, FtlError};
use crate::nand::{NandArray, PageData};
use biscuit_sim::fault::{FaultConfig, FaultPlan, PowerLossPhase};

const PAGE: usize = 32;
const LOGICAL: u64 = 40;

/// One host write: `(lpn, fill)` programs `lpn` with a page of `fill`.
fn write_strategy() -> impl Strategy<Value = (u64, u8)> {
    (0..LOGICAL, any::<u8>())
}

fn page(fill: u8) -> PageData {
    PageData::Bytes(biscuit_proto::Buf::from_vec(vec![fill; PAGE]))
}

/// 2x2 dies x 4 blocks x 4 pages = 64 physical pages for 40 logical:
/// every non-trivial schedule runs GC, so crashes land mid-GC too.
fn setup() -> (NandArray, Ftl) {
    let nand = NandArray::new(2, 2, 4, 4, PAGE);
    let ftl = Ftl::new(2, 2, 4, 4, LOGICAL);
    (nand, ftl)
}

fn read_fill(nand: &NandArray, ftl: &Ftl, lpn: u64) -> Option<u8> {
    let ppa = ftl.lookup(lpn).unwrap()?;
    nand.read(ppa).unwrap().map(|d| d.materialize(PAGE)[0])
}

fn plan_for(seed: u64, window: u64, phase: PowerLossPhase) -> FaultPlan {
    FaultPlan::seeded(
        seed,
        FaultConfig {
            power_losses: 1,
            power_loss_phase: phase,
            power_loss_window: window,
            ..FaultConfig::default()
        },
    )
}

/// Applies `ops` until the device dies (or the schedule ends), mirroring
/// acked effects into `model`. Returns the index of the op that observed
/// the crash, if any.
fn run_until_crash(
    nand: &mut NandArray,
    ftl: &mut Ftl,
    ops: &[(u64, u8)],
    plan: &FaultPlan,
    model: &mut HashMap<u64, u8>,
) -> Option<usize> {
    for (i, &(lpn, fill)) in ops.iter().enumerate() {
        match ftl.write(nand, lpn, page(fill), plan) {
            Ok(_) => {
                model.insert(lpn, fill);
            }
            Err(FtlError::PowerLoss { .. }) => return Some(i),
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property 1: after a seeded crash at an arbitrary instant of an
    /// arbitrary schedule, journal replay restores exactly the acked
    /// state — no acked write lost, no unacked write surfacing as
    /// anything but the previous acked value.
    #[test]
    fn recovery_restores_exactly_the_acked_state(
        ops in proptest::collection::vec(write_strategy(), 20..400),
        seed in any::<u64>(),
        window in 1u64..96,
        mid_gc in any::<bool>(),
    ) {
        let phase = if mid_gc { PowerLossPhase::MidGc } else { PowerLossPhase::MidWrite };
        let plan = plan_for(seed, window, phase);
        let (mut nand, mut ftl) = setup();
        let mut model: HashMap<u64, u8> = HashMap::new();
        let crashed = run_until_crash(&mut nand, &mut ftl, &ops, &plan, &mut model);
        if crashed.is_some() {
            prop_assert!(ftl.is_dead());
            prop_assert_eq!(
                ftl.write(&mut nand, 0, page(0), &FaultPlan::none()).map(drop),
                Err(FtlError::PowerLoss { during_gc: mid_gc }),
                "dead device must reject every op"
            );
            ftl.recover(&mut nand);
        }
        for lpn in 0..LOGICAL {
            let expect = model.get(&lpn).copied();
            prop_assert_eq!(
                read_fill(&nand, &ftl, lpn), expect,
                "lpn {} diverged from acked state after recovery", lpn
            );
        }
        // The recovered device keeps taking writes (free space was
        // rebuilt correctly; no NAND double-program panic).
        for lpn in 0..LOGICAL {
            ftl.write(&mut nand, lpn, page(0xEE), &FaultPlan::none()).unwrap();
        }
    }

    /// Property 2: the same seed crashes at the same instant and
    /// recovers to a byte-identical physical export — map, free lists,
    /// frontiers, bad set, and journal sequence all included.
    #[test]
    fn same_seed_crash_recovery_is_byte_identical(
        ops in proptest::collection::vec(write_strategy(), 20..300),
        seed in any::<u64>(),
        window in 1u64..64,
        mid_gc in any::<bool>(),
    ) {
        let phase = if mid_gc { PowerLossPhase::MidGc } else { PowerLossPhase::MidWrite };
        let run = || {
            let plan = plan_for(seed, window, phase);
            let (mut nand, mut ftl) = setup();
            let mut model = HashMap::new();
            let crashed = run_until_crash(&mut nand, &mut ftl, &ops, &plan, &mut model);
            if crashed.is_some() {
                ftl.recover(&mut nand);
            }
            (crashed, ftl.export_physical(), ftl.export_state(&nand))
        };
        let (c1, phys1, logical1) = run();
        let (c2, phys2, logical2) = run();
        prop_assert_eq!(c1, c2, "same seed must crash at the same op");
        prop_assert_eq!(phys1, phys2, "physical export diverged across same-seed runs");
        prop_assert_eq!(logical1, logical2);
    }

    /// Property 3: recover + redo the interrupted suffix converges to
    /// the uncrashed run — logical exports are byte-identical.
    #[test]
    fn crashed_run_converges_to_uncrashed_twin(
        ops in proptest::collection::vec(write_strategy(), 20..300),
        seed in any::<u64>(),
        window in 1u64..64,
        mid_gc in any::<bool>(),
    ) {
        let phase = if mid_gc { PowerLossPhase::MidGc } else { PowerLossPhase::MidWrite };
        // Uncrashed twin.
        let (mut nand_u, mut ftl_u) = setup();
        let mut model_u = HashMap::new();
        prop_assert_eq!(
            run_until_crash(&mut nand_u, &mut ftl_u, &ops, &FaultPlan::none(), &mut model_u),
            None
        );
        // Crashed run: crash, replay the journal, redo from the failed op.
        let plan = plan_for(seed, window, phase);
        let (mut nand_c, mut ftl_c) = setup();
        let mut model_c = HashMap::new();
        if let Some(at) = run_until_crash(&mut nand_c, &mut ftl_c, &ops, &plan, &mut model_c) {
            ftl_c.recover(&mut nand_c);
            prop_assert_eq!(
                run_until_crash(
                    &mut nand_c, &mut ftl_c, &ops[at..], &FaultPlan::none(), &mut model_c
                ),
                None
            );
        }
        prop_assert_eq!(
            ftl_c.export_state(&nand_c),
            ftl_u.export_state(&nand_u),
            "crash + recover + redo must converge to the uncrashed state"
        );
    }
}
