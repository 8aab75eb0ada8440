//! Query-profile determinism and closure: the observability contract from
//! `docs/QUERYPROF.md`, tested end to end.
//!
//! (a) With the same seed, the byte-deterministic `QueryProfiles` export is
//!     identical across repeated runs — and for the shard fleet, across
//!     every `BISCUIT_PAR` thread policy.
//! (b) Span accounting *closes*: every profiled query has zero orphan
//!     spans, zero never-closed queries, and an exclusive breakdown that
//!     sums exactly to its end-to-end latency.
//! (c) Closure survives the fault matrix — ECC read retries, link replays,
//!     and the mid-query DB host fallback all keep the books balanced.

use std::sync::Arc;

use biscuit::apps::search::{fleet_grep, fleet_grep_expected};
use biscuit::core::{CoreConfig, Ssd};
use biscuit::db::spec::ExecMode;
use biscuit::db::tpch::{all_queries, TpchData};
use biscuit::db::{Db, DbConfig};
use biscuit::fs::Fs;
use biscuit::host::fleet::FleetConfig;
use biscuit::host::{HostConfig, HostLoad};
use biscuit::sim::fault::{FaultConfig, FaultPlan, FaultSite};
use biscuit::sim::par::{ParConfig, ParMode};
use biscuit::sim::time::SimDuration;
use biscuit::sim::{QueryProfiles, Simulation};
use biscuit::ssd::{SsdConfig, SsdDevice};

const SF: f64 = 0.0125;
const SEED: u64 = 0xB15C;

fn make_db() -> Arc<Db> {
    let dev = Arc::new(SsdDevice::new(SsdConfig {
        logical_capacity: 1 << 30,
        ..SsdConfig::paper_default()
    }));
    let ssd = Ssd::new(Fs::format(dev), CoreConfig::paper_default());
    let mut db = Db::new(ssd, HostConfig::paper_default(), DbConfig::paper_default());
    TpchData::generate(SF, 42).load_into(&mut db).unwrap();
    Arc::new(db)
}

/// Runs Q1 (conventional datapath) and Q6 (offloaded scan) in Biscuit mode
/// with profiling enabled, optionally under a fault plan. Returns the
/// byte-deterministic export and the structured snapshot.
fn profiled_mini_tpch(plan: Option<&FaultPlan>) -> (String, QueryProfiles) {
    let db = make_db();
    if let Some(p) = plan {
        db.ssd().attach_fault_plan(p);
    }
    let sim = Simulation::new(0);
    sim.enable_qprof();
    sim.spawn("host", move |ctx| {
        for id in [1, 6] {
            let q = all_queries().into_iter().find(|q| q.id == id).unwrap();
            q.run(&db, ctx, ExecMode::Biscuit, HostLoad::IDLE)
                .unwrap_or_else(|e| panic!("Q{id} failed: {e}"));
        }
    });
    let report = sim.run();
    report.assert_quiescent();
    let json = report.profiles.to_json();
    (json, report.profiles)
}

/// The closure invariant: no open queries, no orphan spans, and every
/// query's exclusive breakdown sums exactly to its end-to-end latency.
fn assert_closed(profiles: &QueryProfiles, what: &str) {
    assert_eq!(profiles.open(), 0, "[{what}] queries never closed");
    assert!(!profiles.is_empty(), "[{what}] no queries were profiled");
    for q in profiles.queries() {
        assert_eq!(q.orphans, 0, "[{what}] query {} has orphan spans", q.query);
        assert!(q.spans > 0, "[{what}] query {} recorded no spans", q.query);
        assert_eq!(
            q.breakdown_total_ps(),
            q.end_to_end().as_ps(),
            "[{what}] query {} breakdown does not sum to end-to-end",
            q.query
        );
    }
}

#[test]
fn tpch_profile_export_is_deterministic_and_closed() {
    let (reference, profiles) = profiled_mini_tpch(None);
    assert_closed(&profiles, "clean Q1+Q6");
    // One root query per executed statement, minted by `Db::execute`.
    assert_eq!(profiles.queries().len(), 2, "Q1 and Q6 each profiled once");
    for round in 0..3 {
        let (json, profiles) = profiled_mini_tpch(None);
        assert_eq!(json, reference, "round {round}: profile export diverged");
        assert_closed(&profiles, "repeat round");
    }
}

#[test]
fn fleet_profiles_byte_identical_across_policies() {
    const DRIVES: usize = 4;
    const SHARD_PAGES: u64 = 32;
    const NEEDLE_EVERY: u64 = 150;
    const PASSES: usize = 2;

    let soak = |mode: ParMode| {
        let cfg = FleetConfig {
            drives: DRIVES,
            seed: SEED,
            metrics: false,
            trace: None,
            qprof: true,
            par: ParConfig::new(mode),
        };
        let report = fleet_grep(&cfg, SHARD_PAGES, NEEDLE_EVERY, PASSES);
        report.assert_quiescent();
        let total: u64 = report.items.iter().map(|(_, c)| *c).sum();
        assert_eq!(
            total,
            fleet_grep_expected(DRIVES, SHARD_PAGES, NEEDLE_EVERY, PASSES),
            "{mode:?} match count"
        );
        for r in &report.reports {
            assert_closed(&r.profiles, "fleet shard");
        }
        report.profiles_json()
    };

    let reference = soak(ParMode::Single);
    assert!(
        reference.contains("\"query\""),
        "fleet export carries profiled queries"
    );
    // Thread interleavings differ run to run; the export must not.
    for round in 0..2 {
        assert_eq!(
            soak(ParMode::PerShard),
            reference,
            "round {round}: PerShard profile export diverged from Single"
        );
    }
}

#[test]
fn profiles_close_through_faults_and_host_fallback() {
    struct Entry {
        name: &'static str,
        cfg: FaultConfig,
        check: fn(&FaultPlan),
    }
    let matrix = vec![
        Entry {
            name: "ECC read retries",
            cfg: FaultConfig {
                nand_read_error_rate: 0.05,
                ..FaultConfig::default()
            },
            check: |p| assert!(p.recovered_at(FaultSite::NandRead) >= 1, "retries ran"),
        },
        Entry {
            name: "link CRC replay",
            cfg: FaultConfig {
                link_corrupt_rate: 0.02,
                ..FaultConfig::default()
            },
            check: |p| {
                let replays =
                    p.recovered_at(FaultSite::LinkToHost) + p.recovered_at(FaultSite::LinkToDevice);
                assert!(replays >= 1, "link replays ran");
            },
        },
        Entry {
            name: "SSDlet panics past budget -> host fallback",
            cfg: FaultConfig {
                ssdlet_panics: 8,
                ssdlet_stalls: 0,
                ssdlet_max_restarts: 1,
                ..FaultConfig::default()
            },
            check: |p| {
                assert!(p.failed_total() >= 1, "restart budget exhausted");
                assert!(p.recovered_at(FaultSite::Ssdlet) >= 1, "host fallback ran");
            },
        },
        Entry {
            name: "host timeout -> abandon offload, host fallback",
            cfg: FaultConfig {
                host_timeout: Some(SimDuration::from_nanos(50)),
                ..FaultConfig::default()
            },
            check: |p| {
                assert!(p.failed_total() >= 1, "timeout recorded");
                assert!(p.recovered_at(FaultSite::Ssdlet) >= 1, "host fallback ran");
            },
        },
    ];
    for entry in matrix {
        let plan = FaultPlan::seeded(SEED, entry.cfg.clone());
        let (json, profiles) = profiled_mini_tpch(Some(&plan));
        assert!(
            plan.injected_total() + plan.failed_total() >= 1,
            "[{}] plan must actually fire",
            entry.name
        );
        (entry.check)(&plan);
        // Accounting closes even mid-recovery: retried reads, replayed
        // link frames, and the fallback's host re-scan all land inside
        // the query window with valid parents.
        assert_closed(&profiles, entry.name);

        // And the export stays replayable: same seed, same bytes.
        let replay = FaultPlan::seeded(SEED, entry.cfg.clone());
        let (json2, _) = profiled_mini_tpch(Some(&replay));
        assert_eq!(json, json2, "[{}] faulted export diverged", entry.name);
    }
}
