//! Property tests for FTL correctness under arbitrary overwrite schedules.

use std::collections::HashMap;

use proptest::prelude::*;

use crate::ftl::Ftl;
use crate::nand::{NandArray, PageData, Ppa};
use biscuit_sim::fault::FaultPlan;

const PAGE: usize = 32;

/// One host write: `(lpn, fill)` programs `lpn` with a page of `fill`.
fn write_strategy(logical_pages: u64) -> impl Strategy<Value = (u64, u8)> {
    (0..logical_pages, any::<u8>())
}

fn page(fill: u8) -> PageData {
    PageData::Bytes(biscuit_proto::Buf::from_vec(vec![fill; PAGE]))
}

fn read_fill(nand: &NandArray, ftl: &Ftl, lpn: u64) -> Option<u8> {
    let ppa = ftl.lookup(lpn).unwrap()?;
    nand.read(ppa).unwrap().map(|d| d.materialize(PAGE)[0])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After any schedule of writes (tight enough to force GC), every
    /// logical page reads back its most recent write.
    #[test]
    fn read_after_write_consistency(
        ops in proptest::collection::vec(write_strategy(40), 1..600)
    ) {
        // 2x2 dies x 4 blocks x 4 pages = 64 physical pages for 40 logical.
        let mut nand = NandArray::new(2, 2, 4, 4, PAGE);
        let mut ftl = Ftl::new(2, 2, 4, 4, 40);
        let mut model: HashMap<u64, u8> = HashMap::new();
        for &(lpn, fill) in &ops {
            ftl.write(&mut nand, lpn, page(fill), &FaultPlan::none()).unwrap();
            model.insert(lpn, fill);
        }
        for lpn in 0..40u64 {
            let expect = model.get(&lpn).copied();
            prop_assert_eq!(read_fill(&nand, &ftl, lpn), expect, "lpn {}", lpn);
        }
    }

    /// No two logical pages ever map to the same physical page.
    #[test]
    fn no_double_mapping(
        ops in proptest::collection::vec(write_strategy(40), 1..400)
    ) {
        let mut nand = NandArray::new(2, 2, 4, 4, PAGE);
        let mut ftl = Ftl::new(2, 2, 4, 4, 40);
        for &(lpn, fill) in &ops {
            ftl.write(&mut nand, lpn, page(fill), &FaultPlan::none()).unwrap();
            let mut seen: HashMap<Ppa, u64> = HashMap::new();
            for lpn in 0..40u64 {
                if let Some(ppa) = ftl.lookup(lpn).unwrap() {
                    if let Some(prev) = seen.insert(ppa, lpn) {
                        prop_assert!(false, "lpns {prev} and {lpn} share {ppa:?}");
                    }
                }
            }
        }
    }

    /// Sustained full-capacity overwrites always succeed (GC makes forward
    /// progress given over-provisioning) and GC actually runs.
    #[test]
    fn gc_makes_forward_progress(rounds in 4u32..16) {
        let mut nand = NandArray::new(2, 2, 4, 4, PAGE);
        let mut ftl = Ftl::new(2, 2, 4, 4, 48); // 48 logical of 64 physical
        for round in 0..rounds {
            for lpn in 0..48u64 {
                ftl.write(&mut nand, lpn, page(round as u8), &FaultPlan::none())
                    .unwrap();
            }
        }
        prop_assert!(ftl.gc_runs() > 0);
        for lpn in 0..48u64 {
            prop_assert_eq!(read_fill(&nand, &ftl, lpn), Some((rounds - 1) as u8));
        }
    }
}
