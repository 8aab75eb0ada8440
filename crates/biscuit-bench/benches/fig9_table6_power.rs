//! Fig. 9 + Table VI — system power during Fig. 8's Query 1 and the total
//! energy per execution.
//!
//! Paper: idle 103 W; Conv averages ~122 W (host CPU busy); Biscuit ~136 W
//! (SSD at full internal bandwidth) but for a much shorter window; energy
//! 60.5 kJ (Conv) vs 12.2 kJ (Biscuit), ~5x.

use std::sync::Arc;

use biscuit_bench::{header, row, simulate_metered, tpch_db, BenchReport};
use biscuit_db::expr::Expr;
use biscuit_db::spec::{ExecMode, SelectSpec};
use biscuit_db::tpch::schema::l;
use biscuit_db::Value;
use biscuit_host::HostLoad;
use biscuit_sim::power::PowerMeter;
use biscuit_sim::time::SimDuration;

const SF: f64 = 0.05;

fn query1() -> SelectSpec {
    let mut spec = SelectSpec::new("fig9-q1");
    spec.scan(
        "lineitem",
        Some(Expr::col_eq(l::SHIPDATE, Value::date("1995-01-17"))),
    );
    spec.projection = vec![
        Expr::Col(l::ORDERKEY),
        Expr::Col(l::SHIPDATE),
        Expr::Col(l::LINENUMBER),
    ];
    spec
}

struct PowerRun {
    trace: Vec<(f64, f64)>,
    window_secs: f64,
    energy_j: f64,
    avg_watts: f64,
}

fn run(mode: ExecMode) -> (PowerRun, biscuit_sim::metrics::MetricsSnapshot) {
    let (_, db) = tpch_db(SF);
    let name = if mode == ExecMode::Conv {
        "fig9/conv"
    } else {
        "fig9/biscuit"
    };
    simulate_metered(name, move |ctx| {
        db.prepare(ctx).expect("module load");
        let meter = Arc::new(PowerMeter::new());
        meter.register(103.0, 103.0); // the always-on baseline
        let host_cpu = meter.register(0.0, 19.0);
        let ssd = meter.register(0.0, 33.0);
        db.ssd().device().attach_power(Arc::clone(&meter), ssd);

        let t0 = ctx.now();
        // Host CPU is pinned busy for the duration of a Conv run; during a
        // Biscuit run the host mostly waits on the result port.
        if mode == ExecMode::Conv {
            meter.set_active(ctx.now(), host_cpu, true);
        }
        db.execute(ctx, &query1(), mode, HostLoad::IDLE)
            .expect("query run");
        if mode == ExecMode::Conv {
            meter.set_active(ctx.now(), host_cpu, false);
        }
        let t1 = ctx.now();

        let window = (t1 - t0).as_secs_f64();
        let energy = meter.energy_joules(t1) - 103.0 * t0.as_secs_f64();
        let samples = meter.sample(t1, SimDuration::from_millis(20));
        let trace: Vec<(f64, f64)> = samples
            .into_iter()
            .filter(|&(t, _)| t >= t0)
            .map(|(t, p)| ((t - t0).as_secs_f64(), p))
            .collect();
        PowerRun {
            trace,
            window_secs: window,
            energy_j: energy,
            avg_watts: energy / window,
        }
    })
}

fn sparkline(trace: &[(f64, f64)], window: f64) -> String {
    const BUCKETS: usize = 48;
    let glyphs = [' ', '.', ':', '-', '=', '+', '*', '#'];
    let mut out = String::new();
    for b in 0..BUCKETS {
        let t = window * b as f64 / BUCKETS as f64;
        let p = trace
            .iter()
            .rev()
            .find(|&&(ts, _)| ts <= t)
            .map_or(103.0, |&(_, p)| p);
        let idx = (((p - 103.0) / 33.0) * (glyphs.len() - 1) as f64)
            .round()
            .clamp(0.0, (glyphs.len() - 1) as f64) as usize;
        out.push(glyphs[idx]);
    }
    out
}

fn main() {
    let (conv, _) = run(ExecMode::Conv);
    let (bis, metrics) = run(ExecMode::Biscuit);

    header(&format!("Fig. 9: power during Query 1 (TPC-H SF {SF})"));
    println!("power ramp over each run's own window (103W idle .. 136W peak):");
    println!(
        "  Conv    [{}] {:.2}s",
        sparkline(&conv.trace, conv.window_secs),
        conv.window_secs
    );
    println!(
        "  Biscuit [{}] {:.2}s",
        sparkline(&bis.trace, bis.window_secs),
        bis.window_secs
    );
    row(&["system", "paper avg (W)", "measured avg (W)"]);
    row(&["idle", "103", "103"]);
    row(&["Conv", "122", &format!("{:.0}", conv.avg_watts)]);
    row(&["Biscuit", "136", &format!("{:.0}", bis.avg_watts)]);

    header("Table VI: overall energy consumption (per Query 1 execution)");
    row(&["system", "paper (kJ)", "measured (J, this SF)"]);
    row(&["Conv", "60.5", &format!("{:.1}", conv.energy_j)]);
    row(&["Biscuit", "12.2", &format!("{:.1}", bis.energy_j)]);
    println!(
        "\nenergy ratio: paper 5.0x, measured {:.1}x",
        conv.energy_j / bis.energy_j
    );
    println!("(the paper's window includes a post-query buffer-sync tail that");
    println!(" lengthens the Biscuit window; we report the pure execution window)");

    let mut report = BenchReport::new("fig9_table6_power");
    report.push("conv_avg_watts", "W", Some(122.0), conv.avg_watts);
    report.push("biscuit_avg_watts", "W", Some(136.0), bis.avg_watts);
    report.push("energy_ratio", "x", Some(5.0), conv.energy_j / bis.energy_j);
    report.set_metrics(metrics);
    report.write();
}
