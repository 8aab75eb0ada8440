//! `cargo test -p biscuit-perf`: the catalogue obeys the benchmark
//! contract and equals `BENCHMARK.json`; a smoke run of every workload
//! verifies, prints every metric, repeats its virtual numbers, and its
//! books close.

use std::collections::BTreeSet;
use std::time::Instant;

use crate::catalog::{manifest, Metric, END_TO_END, PER_LAYER, WALL_METRICS, WORKLOADS};
use crate::harness::{run_child, Options};
use crate::json::{self, Json};
use crate::stats::{high_percentile, median, percentile, quartiles};

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

#[test]
fn catalogue_obeys_the_contract() {
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let metrics = || END_TO_END.iter().chain(&PER_LAYER);
    let names: BTreeSet<&str> = metrics()
        .map(|m| m.name)
        .chain(WORKLOADS.iter().map(|w| w.name))
        .collect();
    assert_eq!(
        names.len(),
        END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len(),
        "a name is used twice"
    );
    for m in metrics() {
        assert!(valid_name(m.name), "metric name `{}`", m.name);
        assert!(valid_unit(m.unit), "unit `{}` of `{}`", m.unit, m.name);
    }
    for w in &WORKLOADS {
        assert!(valid_name(w.name), "workload name `{}`", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "why of `{}`",
            w.name
        );
    }
    for m in &END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of `{}`", m.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!(setup.unit, "s");
    let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, largest, "setup_s takes the largest bound");
    assert!(manifest().to_line().len() <= 64 << 10);
}

#[test]
fn benchmark_json_is_the_manifest() {
    // `cargo test` runs in the package directory, the offline build in the
    // repository root.
    let text = ["../../BENCHMARK.json", "BENCHMARK.json"]
        .iter()
        .find_map(|p| std::fs::read_to_string(p).ok())
        .expect("BENCHMARK.json at the repository root");
    let on_disk = json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        on_disk,
        manifest(),
        "regenerate with `biscuit-perf manifest > BENCHMARK.json`"
    );
}

#[test]
fn json_round_trips() {
    let doc = manifest();
    assert_eq!(json::parse(&doc.to_line()).expect("parses"), doc);
    let odd = Json::obj(vec![(
        "k\"\\\n",
        Json::Arr(vec![Json::Num(-1.5e-7), Json::Null, Json::Bool(true)]),
    )]);
    assert_eq!(json::parse(&odd.to_line()).expect("parses"), odd);
    assert!(json::parse("{\"a\":1} x").is_err());
}

#[test]
fn order_statistics_match_python() {
    // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
    let xs = [46.0, 1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0];
    assert_eq!(quartiles(&xs), (3.5, 31.0));
    assert_eq!(median(&xs), 13.5);
    assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    assert_eq!(percentile(&xs, 99.0), 46.0);
    assert_eq!(percentile(&xs, 50.0), 11.0);
    // Eleven samples: the first has ten beyond it.
    let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
    assert_eq!(high_percentile(&eleven).0, 1.0);
    assert_eq!(high_percentile(&xs), (13.5, 50.0));
}

fn section<'a>(doc: &'a Json, key: &str, specs: &[Metric]) -> Vec<(&'a str, f64)> {
    let members = doc
        .get(key)
        .unwrap_or_else(|| panic!("`{key}` missing"))
        .members();
    assert_eq!(members.len(), specs.len(), "`{key}` has every metric");
    members
        .iter()
        .zip(specs)
        .map(|((name, m), spec)| {
            assert_eq!(name, spec.name);
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(spec.unit),
                "unit of `{name}`"
            );
            let value = m.get("value").and_then(Json::as_f64);
            (
                name.as_str(),
                value.unwrap_or_else(|| panic!("`{name}` has no number")),
            )
        })
        .collect()
}

/// One test, so the smoke runs (and the global span recorder) never overlap.
#[test]
fn smoke_runs_verify_repeat_and_close_their_books() {
    for w in &WORKLOADS {
        let run = || {
            let opts = Options {
                workload: w.name.to_owned(),
                seed: 0xB15C,
                seconds: 0.0,
                trace: true,
                smoke: true,
                setup_only: false,
                trace_out: None,
            };
            run_child(&opts, Instant::now()).expect("smoke run")
        };
        let (first, second) = (run(), run());
        for doc in [&first, &second] {
            assert_eq!(
                doc.get("correct"),
                Some(&Json::Bool(true)),
                "{} verifies",
                w.name
            );
            assert!(doc.get("attempted").and_then(Json::as_f64) >= Some(1.0));
        }

        let e2e = section(&first, "end_to_end", &END_TO_END);
        assert!(e2e
            .iter()
            .all(|(name, v)| *v > 0.0 || panic!("{} {name} is 0", w.name)));
        let again = section(&second, "end_to_end", &END_TO_END);
        for ((name, a), (_, b)) in e2e.iter().zip(&again) {
            if !WALL_METRICS.contains(name) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{} {name} repeats exactly",
                    w.name
                );
            }
        }
        assert_eq!(
            first.get("virt_digest"),
            second.get("virt_digest"),
            "{} digest",
            w.name
        );

        let layers = section(&first, "per_layer", &PER_LAYER);
        let value = |name: &str| layers.iter().find(|(n, _)| *n == name).expect("metric").1;
        let estimated: f64 = layers
            .iter()
            .filter(|(n, _)| n.ends_with("_est_ms"))
            .map(|(_, v)| v)
            .sum();
        let wall_ms = e2e.iter().find(|(n, _)| *n == "wall_ms").expect("metric").1;
        let closed = estimated + value("run.unattributed_ms");
        assert!(
            (closed - wall_ms).abs() <= 1e-9 * wall_ms,
            "{} books: {closed} vs {wall_ms}",
            w.name
        );
        assert!(
            value("sim.kernel.events_n") > 0.0,
            "{} traced iterations counted events",
            w.name
        );
    }
}
