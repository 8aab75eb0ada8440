//! `biscuit-perf`: the repository's one performance benchmark.
//!
//! ```text
//! biscuit-perf run [--workload W] [--seed S] [--seconds N] [--trace 0|1]
//!                  [--smoke] [--out FILE|DIR] [--trace-out FILE] [--repeat N]
//! biscuit-perf compare PARENT CHANGE [...]    # result files or directories of them
//! biscuit-perf manifest                       # BENCHMARK.json
//! ```
//!
//! `run` measures each workload in its own child process pinned to one CPU
//! and checks its outputs; see `README.md` beside this crate for what the
//! workloads and metrics are and why.

mod catalog;
mod compare;
mod harness;
mod json;
mod replay;
mod run;
mod spans;
mod stats;
#[cfg(test)]
mod tests;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    // Set-up time is measured from here.
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run::run(&args[1..]),
        Some("child") => run::child(&args[1..], started),
        Some("compare") => compare::compare(&args[1..]),
        Some("manifest") => {
            print!("{}", catalog::manifest().to_pretty());
            Ok(true)
        }
        _ => Err(
            "usage: biscuit-perf run|compare|manifest [...] (see crates/biscuit-perf/README.md)"
                .to_owned(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("biscuit-perf: {msg}");
            ExitCode::from(2)
        }
    }
}
