//! Site-by-site reconciliation of a fault plan with a run's metrics, shared
//! by the fault suites (not a test target of its own).

use biscuit::sim::fault::{FaultPlan, FaultSite};
use biscuit::sim::metrics::{MetricsSnapshot, SampleValue};

/// Every fault site with its metrics label.
const SITES: [(FaultSite, &str); 7] = [
    (FaultSite::NandRead, "nand_read"),
    (FaultSite::LinkToHost, "link_to_host"),
    (FaultSite::LinkToDevice, "link_to_device"),
    (FaultSite::CoreStall, "core_stall"),
    (FaultSite::Ssdlet, "ssdlet"),
    (FaultSite::Drive, "drive"),
    (FaultSite::PowerLoss, "power_loss"),
];

/// The registry's `name` counters at one site, summed over actions.
fn counted_at(snap: &MetricsSnapshot, name: &str, site: &str) -> u64 {
    snap.samples
        .iter()
        .filter(|s| s.name == name && s.labels.iter().any(|(k, v)| k == "site" && v == site))
        .map(|s| match s.value {
            SampleValue::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

/// Asserts that at every site the plan's injected and recovered counts
/// equal the `fault_injected_total` / `fault_recovered_total` counters
/// the run's metrics hold.
pub fn assert_plan_matches_metrics(plan: &FaultPlan, snap: &MetricsSnapshot) {
    for (site, label) in SITES {
        let injected = counted_at(snap, "fault_injected_total", label);
        assert_eq!(injected, plan.injected_at(site), "injected at {label}");
        let recovered = counted_at(snap, "fault_recovered_total", label);
        assert_eq!(recovered, plan.recovered_at(site), "recovered at {label}");
    }
}
