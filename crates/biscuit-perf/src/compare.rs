//! `biscuit-perf compare PARENT CHANGE [...]`: the no-regression rule of
//! the choosing-metrics guide over result documents. Each side is a result
//! file or a directory of them (`run --repeat N --out DIR`). For every
//! pairing of workload and end-to-end metric: both sides' medians and
//! quartiles, how much worse the change's median is, against the metric's
//! bound. Where the parent's own spread is wider than the bound the pair is
//! `unresolved`, not unchanged. Virtual metrics and digests of same-seed
//! runs must be identical; every value that is not is listed.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::catalog::{Better, END_TO_END, WALL_METRICS};
use crate::json::{self, Json};
use crate::stats::{median, quartiles};

#[derive(Default)]
struct Side {
    label: String,
    /// (workload, metric) -> one value per run.
    values: BTreeMap<(String, String), Vec<f64>>,
    /// workload -> digests seen.
    digests: BTreeMap<String, BTreeSet<String>>,
    seeds: BTreeSet<u64>,
    runs: usize,
}

fn load(path: &str) -> Result<Side, String> {
    let mut files = Vec::new();
    if Path::new(path).is_dir() {
        for entry in std::fs::read_dir(path).map_err(|e| format!("{path}: {e}"))? {
            let p = entry.map_err(|e| format!("{path}: {e}"))?.path();
            if p.extension().is_some_and(|ext| ext == "json") {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.into());
    }
    let mut side = Side {
        label: path.to_owned(),
        ..Side::default()
    };
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        side.runs += 1;
        if let Some(seed) = doc
            .get("header")
            .and_then(|h| h.get("seed"))
            .and_then(Json::as_f64)
        {
            side.seeds.insert(seed as u64);
        }
        for (workload, entry) in doc.get("workloads").map_or(&[][..], Json::members) {
            for key in ["virt_digest", "traced_digest"] {
                if let Some(d) = entry.get(key).and_then(Json::as_str) {
                    side.digests
                        .entry(format!("{workload} {key}"))
                        .or_default()
                        .insert(d.to_owned());
                }
            }
            for (metric, m) in entry.get("end_to_end").map_or(&[][..], Json::members) {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    side.values
                        .entry((workload.clone(), metric.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    if side.runs == 0 {
        return Err(format!("{path}: no result files"));
    }
    Ok(side)
}

/// `Ok(false)` when any pair regressed, is unresolved, or a virtual value
/// differs between same-seed runs.
pub fn compare(args: &[String]) -> Result<bool, String> {
    if args.len() < 2 {
        return Err("compare needs a parent side and at least one change side".to_owned());
    }
    let sides: Vec<Side> = args.iter().map(|p| load(p)).collect::<Result<_, _>>()?;
    let (parent, changes) = sides.split_first().expect("two sides");
    let mut clean = true;
    for change in changes {
        println!(
            "parent {} ({} runs) vs change {} ({} runs)",
            parent.label, parent.runs, change.label, change.runs
        );
        println!(
            "{:<11} {:<13} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11} {:>8} {:>6}  verdict",
            "workload",
            "metric",
            "p.q1",
            "p.median",
            "p.q3",
            "c.q1",
            "c.median",
            "c.q3",
            "worse%",
            "bound%"
        );
        let same_seeds = parent.seeds.len() == 1 && parent.seeds == change.seeds;
        for ((workload, metric), pv) in &parent.values {
            let Some(cv) = change.values.get(&(workload.clone(), metric.clone())) else {
                continue;
            };
            let Some(spec) = END_TO_END.iter().find(|m| m.name == metric) else {
                continue;
            };
            let (pm, cm) = (median(pv), median(cv));
            let ((pq1, pq3), (cq1, cq3)) = (quartiles(pv), quartiles(cv));
            let worse = match spec.better {
                Better::Lower => (cm - pm) / pm,
                Better::Higher => (pm - cm) / pm,
            };
            let exact = !WALL_METRICS.contains(&spec.name) && same_seeds;
            let verdict = if exact {
                let distinct = |vs: &[f64]| vs.iter().map(|v| v.to_bits()).collect::<BTreeSet<_>>();
                if distinct(pv) == distinct(cv) && distinct(pv).len() == 1 {
                    "exact"
                } else {
                    "MISMATCH"
                }
            } else if (pq3 - pq1) / pm > spec.bound {
                "unresolved"
            } else if worse > spec.bound {
                "REGRESSION"
            } else {
                "ok"
            };
            clean &= matches!(verdict, "ok" | "exact");
            println!(
                "{workload:<11} {metric:<13} {pq1:>11.4} {pm:>11.4} {pq3:>11.4} {cq1:>11.4} {cm:>11.4} {cq3:>11.4} {:>8.2} {:>6.1}  {verdict}",
                100.0 * worse,
                100.0 * spec.bound,
            );
            if verdict == "MISMATCH" {
                println!("    parent values {pv:?}\n    change values {cv:?}");
            }
        }
        if same_seeds {
            for (key, pd) in &parent.digests {
                let cd = change.digests.get(key);
                if pd.len() != 1 || cd != Some(pd) {
                    clean = false;
                    println!("{key}: MISMATCH parent {pd:?} change {cd:?}");
                }
            }
        } else {
            println!("seeds differ between runs: virtual metrics compared by bound, digests not compared");
        }
    }
    Ok(clean)
}
