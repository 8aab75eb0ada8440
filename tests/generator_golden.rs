//! Golden digests of every seeded generator.
//!
//! TPC-H rows, web-log pages, the social graph and its walks, fleet shard
//! seeds and fault-plan draws are all pure
//! functions of a seed, and every data-dependent `virt_*` number in the
//! benchmark is a function of them. The constants below were recorded at
//! the commit *before* the workspace's generators moved onto
//! `biscuit_sim::rng` (under the xoshiro256++ / SplitMix64 streams the
//! benchmark has always been built against), so a change to seeding, range
//! reduction, float conversion or draw order fails here, in tier-1.
//!
//! A deliberate data change re-records the constants: each assertion
//! prints the digest it computed. The workload arrival stream's digest is
//! `biscuit-host`'s `workload::tests::workload_rng_draws`.

use biscuit::apps::{SocialGraph, WeblogGen};
use biscuit::db::table::row_to_text;
use biscuit::db::tpch::TpchData;
use biscuit::sim::fault::{FaultConfig, FaultPlan, FaultSite};
use biscuit::sim::par::shard_seed;
use biscuit::ssd::PageGen;

#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

#[test]
fn tpch_rows() {
    let data = TpchData::generate(0.001, 1);
    let mut h = Fnv::new();
    let mut rows = 0u64;
    for table in [
        &data.region,
        &data.nation,
        &data.supplier,
        &data.customer,
        &data.part,
        &data.partsupp,
        &data.orders,
        &data.lineitem,
    ] {
        for row in table {
            h.bytes(row_to_text(row).as_bytes());
            h.bytes(b"\n");
            rows += 1;
        }
    }
    assert_eq!((rows, h.0), (8_755, 0x8841_b26a_4997_3bb4), "{:#x}", h.0);
}

#[test]
fn weblog_page() {
    let gen = WeblogGen::new(7, 500);
    let mut h = Fnv::new();
    for lpn in [0, 1, 4097] {
        h.bytes(&gen.generate(lpn, 8192));
    }
    assert_eq!(h.0, 0x55a4_c112_5d8d_a168, "{:#x}", h.0);
}

#[test]
fn social_graph_and_walk() {
    let graph = SocialGraph::generate(512, 3);
    let mut h = Fnv::new();
    h.bytes(graph.as_bytes());
    h.u64(graph.reference_walk(8, 32, 5));
    assert_eq!(h.0, 0xf9a9_5622_f248_482b, "{:#x}", h.0);
}

#[test]
fn fleet_shard_seeds() {
    let mut h = Fnv::new();
    for shard in 0..4 {
        h.u64(shard_seed(7, shard));
    }
    assert_eq!(h.0, 0x7326_d89f_ee50_bc8f, "{:#x}", h.0);
}

#[test]
fn fault_plan_draws() {
    let plan = FaultPlan::seeded(
        7,
        FaultConfig {
            nand_read_error_rate: 0.3,
            nand_uncorrectable_rate: 0.2,
            link_corrupt_rate: 0.25,
            core_stall_rate: 0.1,
            drive_losses: 4,
            power_losses: 2,
            power_loss_window: 16,
            ..FaultConfig::default()
        },
    );
    let mut h = Fnv::new();
    for _ in 0..64 {
        match plan.nand_read_fault() {
            Some(f) => h.u64(1 + f.retries as u64 * 2 + f.uncorrectable as u64),
            None => h.u64(0),
        }
        h.u64(plan.link_corrupt_attempts(FaultSite::LinkToHost) as u64);
        h.u64(plan.link_corrupt_attempts(FaultSite::LinkToDevice) as u64);
        h.u64(plan.core_stall().is_some() as u64);
        match plan.power_loss(false) {
            Some(p) => h.u64(1 + p.torn as u64),
            None => h.u64(0),
        }
    }
    for _ in 0..4 {
        h.u64(plan.drive_loss(8).map_or(u64::MAX, |d| d.shard as u64));
    }
    assert_eq!(h.0, 0x3203_0da6_f778_5a24, "{:#x}", h.0);
}
