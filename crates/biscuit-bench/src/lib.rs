//! # biscuit-bench — experiment harnesses for every table and figure
//!
//! Each `[[bench]]` target regenerates one of the paper's results and
//! prints a paper-vs-measured table. Run them all with
//! `cargo bench --workspace`, or one at a time:
//!
//! ```text
//! cargo bench -p biscuit-bench --bench table2_port_latency
//! cargo bench -p biscuit-bench --bench fig10_tpch
//! ```
//!
//! This library holds the shared plumbing: a one-fiber simulation runner,
//! platform builders, table printing, and the machine-readable
//! [`report::BenchReport`] / regression-gate machinery behind
//! `BENCH_<id>.json` and `scripts/bench_check.sh`.

pub mod report;

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use biscuit_sim::sync::Mutex;

use biscuit_apps::weblog::WeblogGen;
use biscuit_core::{CoreConfig, Ssd};
use biscuit_db::tpch::TpchData;
use biscuit_db::{Db, DbConfig};
use biscuit_fs::{File, Fs, Mode};
use biscuit_host::{ConvIo, HostConfig};
use biscuit_sim::metrics::MetricsSnapshot;
use biscuit_sim::{Ctx, Simulation};
use biscuit_ssd::{SsdConfig, SsdDevice};

pub use report::{BenchReport, GATE_TIGHT};

/// Runs `f` as the sole host fiber of a fresh simulation and returns its
/// result.
///
/// # Panics
///
/// Panics if the simulation ends with blocked fibers, or re-raises (with
/// bench context) a panic from inside the fiber.
pub fn simulate<R, F>(f: F) -> R
where
    R: Send + 'static,
    F: FnOnce(&Ctx) -> R + Send + 'static,
{
    simulate_named("bench", f)
}

/// [`simulate`], but panics carry `name` so a failing harness identifies
/// itself instead of dying with a bare fiber panic.
///
/// # Panics
///
/// See [`simulate`].
pub fn simulate_named<R, F>(name: &str, f: F) -> R
where
    R: Send + 'static,
    F: FnOnce(&Ctx) -> R + Send + 'static,
{
    run_sim(name, false, f).0
}

/// Like [`simulate_named`], but with metrics enabled: returns the fiber's
/// result plus the simulation's final [`MetricsSnapshot`] of everything
/// the closure called.
///
/// # Panics
///
/// See [`simulate`].
pub fn simulate_metered<R, F>(name: &str, f: F) -> (R, MetricsSnapshot)
where
    R: Send + 'static,
    F: FnOnce(&Ctx) -> R + Send + 'static,
{
    run_sim(name, true, f)
}

fn run_sim<R, F>(name: &str, metered: bool, f: F) -> (R, MetricsSnapshot)
where
    R: Send + 'static,
    F: FnOnce(&Ctx) -> R + Send + 'static,
{
    let sim = Simulation::new(0);
    if metered {
        sim.enable_metrics();
    }
    let out: Arc<Mutex<Option<R>>> = Arc::new(Mutex::new(None));
    let o = Arc::clone(&out);
    sim.spawn("bench-host", move |ctx| {
        *o.lock() = Some(f(ctx));
    });
    // The kernel re-raises the first fiber panic from `run()`; catch it so
    // the abort names the bench that died instead of an anonymous fiber.
    let sim_report = match panic::catch_unwind(AssertUnwindSafe(|| sim.run())) {
        Ok(rep) => rep,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&'static str>()
                .copied()
                .map(str::to_owned)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            panic!("bench '{name}': simulation fiber panicked: {msg}");
        }
    };
    sim_report.assert_quiescent();
    let result = out
        .lock()
        .take()
        .unwrap_or_else(|| panic!("bench '{name}': fiber exited without producing a result"));
    (result, sim_report.metrics)
}

/// A host + Biscuit SSD pair sharing one PCIe link.
#[derive(Debug, Clone)]
pub struct Platform {
    /// Biscuit host handle.
    pub ssd: Ssd,
    /// Conventional I/O path over the same link.
    pub conv: ConvIo,
}

/// Builds a platform with paper-default configs and the given capacity.
pub fn platform(logical_capacity: u64) -> Platform {
    platform_with(SsdConfig {
        logical_capacity,
        ..SsdConfig::paper_default()
    })
}

/// Builds a platform from an explicit SSD config (for ablations).
pub fn platform_with(cfg: SsdConfig) -> Platform {
    let dev = Arc::new(SsdDevice::new(cfg));
    let ssd = Ssd::new(Fs::format(dev), CoreConfig::paper_default());
    let conv = ConvIo::new(
        Arc::clone(ssd.device()),
        Arc::clone(ssd.link()),
        HostConfig::paper_default(),
    );
    Platform { ssd, conv }
}

/// Builds a TPC-H database at `sf` on a fresh platform.
pub fn tpch_db(sf: f64) -> (Platform, Arc<Db>) {
    tpch_db_with(sf, DbConfig::paper_default())
}

/// Builds a TPC-H database with a custom engine config (for ablations).
pub fn tpch_db_with(sf: f64, cfg: DbConfig) -> (Platform, Arc<Db>) {
    let plat = platform(4 << 30);
    let mut db = Db::new(plat.ssd.clone(), HostConfig::paper_default(), cfg);
    TpchData::generate(sf, 42)
        .load_into(&mut db)
        .expect("TPC-H load");
    (plat, Arc::new(db))
}

/// Creates a synthetic web-log file of `pages` pages and returns its handle.
pub fn weblog_file(plat: &Platform, pages: u64, needle_every: u64) -> (File, WeblogGen) {
    let gen = WeblogGen::new(11, needle_every);
    let page = plat.ssd.device().config().page_size as u64;
    plat.ssd
        .fs()
        .create_synthetic("weblog", pages * page, Arc::new(gen.clone()))
        .expect("synthetic weblog");
    let file = plat
        .ssd
        .fs()
        .open("weblog", Mode::ReadOnly)
        .expect("weblog exists");
    (file, gen)
}

/// Prints a section header.
pub fn header(title: &str) {
    println!();
    println!("== {title} ==");
}

/// Prints one aligned row of a results table.
pub fn row(cols: &[&str]) {
    let widths = [28, 22, 18, 14, 14, 14];
    let mut line = String::new();
    for (i, col) in cols.iter().enumerate() {
        let w = widths.get(i).copied().unwrap_or(14);
        line.push_str(&format!("{col:<w$}"));
    }
    println!("{}", line.trim_end());
}

/// Formats seconds with sensible precision.
pub fn secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}s")
    } else if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

/// Formats a ratio as `N.Nx`.
pub fn ratio(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}x")
    } else {
        format!("{x:.1}x")
    }
}

/// Geometric mean.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulate_returns_value() {
        let v = simulate(|ctx| {
            ctx.sleep(biscuit_sim::time::SimDuration::from_micros(5));
            ctx.now().as_micros()
        });
        assert_eq!(v, 5);
    }

    #[test]
    fn simulate_named_propagates_fiber_panic_with_bench_name() {
        let err = std::panic::catch_unwind(|| {
            simulate_named("table9_explodes", |_ctx| -> u64 {
                panic!("boom in fiber");
            })
        })
        .expect_err("fiber panic must propagate");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("string panic payload");
        assert!(msg.contains("table9_explodes"), "got: {msg}");
        assert!(msg.contains("boom in fiber"), "got: {msg}");
    }

    #[test]
    fn simulate_metered_returns_snapshot() {
        let (v, snap) = simulate_metered("meter-check", |ctx| {
            ctx.sleep(biscuit_sim::time::SimDuration::from_micros(1));
            7u64
        });
        assert_eq!(v, 7);
        // The kernel's own scheduling counters are always registered when
        // metrics are on, so the snapshot is never empty.
        assert!(!snap.is_empty());
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn platform_builds() {
        let p = platform(64 << 20);
        assert_eq!(p.ssd.device().config().logical_capacity, 64 << 20);
        let (f, _gen) = weblog_file(&p, 4, 100);
        assert_eq!(f.len(), 4 * 16 * 1024);
    }
}
