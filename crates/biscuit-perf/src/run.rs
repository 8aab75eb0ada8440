//! `biscuit-perf run`: the parent. It measures nothing itself: every
//! workload runs in a child of its own, so `VmHWM` is per workload, pinned
//! with `taskset` to the highest CPU this process may use (a fiber thread
//! that lands on another core than the scheduler costs ~40 us per event
//! instead of ~3 us, so unpinned wall times are bimodal), with every
//! `BISCUIT_*` variable cleared so the engine knobs are at their defaults.

use std::process::{Command, Stdio};
use std::time::Instant;

use crate::catalog::{RUN_SECONDS, WORKLOADS};
use crate::harness::{self, Options};
use crate::json::{self, Json};
use crate::stats::median;
use crate::workloads;

/// Default `--seed`.
const SEED: u64 = 0xB15C;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    out: Option<String>,
    trace_out: Option<String>,
    repeat: usize,
    setup_only: bool,
    par_probe: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: SEED,
        seconds: RUN_SECONDS as f64,
        trace: None,
        smoke: false,
        out: None,
        trace_out: None,
        repeat: 1,
        setup_only: false,
        par_probe: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        let number = |v: String| {
            let digits = v.strip_prefix("0x");
            digits
                .map_or_else(|| v.parse(), |hex| u64::from_str_radix(hex, 16))
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = number(value()?)?,
            "--seconds" => {
                let v = value()?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("--seconds: `{v}` is not a duration"))?;
            }
            "--trace" => a.trace = Some(number(value()?)? != 0),
            "--repeat" => a.repeat = number(value()?)?.max(1) as usize,
            "--out" => a.out = Some(value()?),
            "--trace-out" => a.trace_out = Some(value()?),
            "--smoke" => a.smoke = true,
            "--setup-only" => a.setup_only = true,
            "--par-probe" => a.par_probe = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.iter().any(|info| info.name == w) {
            let names: Vec<_> = WORKLOADS.iter().map(|info| info.name).collect();
            return Err(format!(
                "unknown workload `{w}` (one of {})",
                names.join(", ")
            ));
        }
    }
    Ok(a)
}

/// `biscuit-perf child`: one workload (or the `sim.par` probe) in this
/// process; the result is the last line of stdout.
pub fn child(args: &[String], started: Instant) -> Result<bool, String> {
    let a = parse(args)?;
    if a.par_probe {
        println!("{}", workloads::par_probe(a.seed, a.smoke).to_line());
        return Ok(true);
    }
    let opts = Options {
        workload: a.workload.ok_or("child needs --workload")?,
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace.unwrap_or(false),
        smoke: a.smoke,
        setup_only: a.setup_only,
        trace_out: a.trace_out,
    };
    println!("{}", harness::run_child(&opts, started)?.to_line());
    Ok(true)
}

/// How children are launched.
struct Launcher {
    /// CPU children are pinned to; `None` when `taskset` is missing.
    cpu: Option<u32>,
    cleared: Vec<String>,
}

impl Launcher {
    fn new() -> Launcher {
        let cpu = std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|status| {
                let list = status
                    .lines()
                    .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
                list.trim().rsplit([',', '-']).next()?.parse::<u32>().ok()
            })
            .filter(|cpu| {
                Command::new("taskset")
                    .args(["-c", &cpu.to_string(), "true"])
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .status()
                    .is_ok_and(|s| s.success())
            });
        if cpu.is_none() {
            eprintln!(
                "biscuit-perf: warning: cannot pin with taskset; wall times will be bimodal \
                 (\"pinned\": false)"
            );
        }
        let cleared = std::env::vars_os()
            .filter_map(|(k, _)| k.into_string().ok())
            .filter(|k| k.starts_with("BISCUIT_"))
            .collect();
        Launcher { cpu, cleared }
    }

    /// Runs `biscuit-perf child <args>` and parses the last line it prints.
    fn child(&self, pinned: bool, args: &[String]) -> Result<Json, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
        let mut cmd = match self.cpu.filter(|_| pinned) {
            Some(cpu) => {
                let mut cmd = Command::new("taskset");
                cmd.args(["-c", &cpu.to_string()]).arg(exe);
                cmd
            }
            None => Command::new(exe),
        };
        for var in &self.cleared {
            cmd.env_remove(var);
        }
        let out = cmd
            .arg("child")
            .args(args)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting child: {e}"))?;
        if !out.status.success() {
            return Err(format!("child {args:?} ended with {}", out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().rev().find(|l| !l.trim().is_empty());
        json::parse(line.ok_or("child printed nothing")?)
    }

    fn header(&self, a: &Args) -> Json {
        let rustc = Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .filter(|v| !v.is_empty())
            .unwrap_or_else(|| "unknown".to_owned());
        Json::obj(vec![
            ("pinned", Json::Bool(self.cpu.is_some())),
            ("cpu", self.cpu.map_or(Json::Null, |c| Json::Num(c as f64))),
            (
                "nproc",
                Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
            ),
            ("rustc", Json::str(rustc)),
            (
                "cleared_env",
                Json::Arr(self.cleared.iter().map(Json::str).collect()),
            ),
            ("seed", Json::Num(a.seed as f64)),
            ("seconds", Json::Num(a.seconds)),
            ("smoke", Json::Bool(a.smoke)),
        ])
    }
}

fn child_args(a: &Args, workload: &str, trace: bool) -> Vec<String> {
    let mut args = vec![
        "--workload".to_owned(),
        workload.to_owned(),
        "--seed".to_owned(),
        a.seed.to_string(),
        "--seconds".to_owned(),
        a.seconds.to_string(),
        "--trace".to_owned(),
        u8::from(trace).to_string(),
    ];
    if a.smoke {
        args.push("--smoke".to_owned());
    }
    args
}

fn set(doc: &mut Json, path: &[&str], value: Json) {
    let Some((key, rest)) = path.split_first() else {
        *doc = value;
        return;
    };
    if let Json::Obj(members) = doc {
        if let Some((_, slot)) = members.iter_mut().find(|(k, _)| k == key) {
            set(slot, rest, value);
        }
    }
}

/// One workload's entry of the result document. The untraced child gives
/// the end-to-end metrics; a second, traced child gives the per-layer ones.
fn measure(launcher: &Launcher, a: &Args, workload: &str) -> Result<Json, String> {
    let (want_e2e, want_layers) = match a.trace {
        Some(trace) => (!trace, trace),
        None => (true, true),
    };
    let mut sections = Vec::new();
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut absorb = |doc: &Json| {
        attempted += doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        failed += doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
    };
    let member = |doc: &Json, key: &str| {
        doc.get(key)
            .cloned()
            .ok_or(format!("child sent no `{key}`"))
    };

    if want_e2e {
        let doc = launcher.child(true, &child_args(a, workload, false))?;
        absorb(&doc);
        let mut e2e = member(&doc, "end_to_end")?;
        // Set-up five times, report the median: the four extra set-ups are
        // children that stop before the timed region.
        let own = e2e
            .get("setup_s")
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        let mut setups = vec![own.ok_or("child sent no setup_s")?];
        for _ in 0..if a.smoke { 0 } else { 4 } {
            let mut args = child_args(a, workload, false);
            args.push("--setup-only".to_owned());
            let doc = launcher.child(true, &args)?;
            absorb(&doc);
            setups.push(
                doc.get("setup_s")
                    .and_then(Json::as_f64)
                    .ok_or("no setup_s")?,
            );
        }
        set(&mut e2e, &["setup_s", "value"], Json::Num(median(&setups)));
        sections.push(("walls_ms", member(&doc, "walls_ms")?));
        sections.push(("virt_digest", member(&doc, "virt_digest")?));
        sections.push(("end_to_end", e2e));
    }
    if want_layers {
        let mut args = child_args(a, workload, true);
        if let Some(path) = &a.trace_out {
            // One file per workload when several are run.
            let path = match &a.workload {
                Some(_) => path.clone(),
                None => format!("{path}.{workload}"),
            };
            args.extend(["--trace-out".to_owned(), path]);
        }
        let doc = launcher.child(true, &args)?;
        absorb(&doc);
        let mut layers = member(&doc, "per_layer")?;
        if workload == "array_scan" {
            // The one unpinned child: shard threads need more than one CPU.
            let mut args = vec![
                "--par-probe".to_owned(),
                "--seed".to_owned(),
                a.seed.to_string(),
            ];
            if a.smoke {
                args.push("--smoke".to_owned());
            }
            let probe = launcher.child(false, &args)?;
            for key in ["single_ms", "pershard_ms", "speedup"] {
                let name = format!("sim.par.{key}");
                set(&mut layers, &[&name, "value"], member(&probe, key)?);
            }
            eprintln!(
                "  sim.par speedup IQR {} over {} CPUs",
                probe
                    .get("speedup_iqr")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
                probe.get("cpus").and_then(Json::as_f64).unwrap_or(0.0),
            );
        }
        sections.push(("traced_digest", member(&doc, "virt_digest")?));
        sections.push(("per_layer", layers));
    }
    let mut entry = vec![
        ("correct", Json::Bool(failed == 0.0)),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
    ];
    entry.append(&mut sections);
    Ok(Json::obj(entry))
}

fn print_entry(workload: &str, entry: &Json) {
    eprintln!(
        "{workload}: correct={} attempted={} failed={} virt_digest={}",
        entry
            .get("correct")
            .and_then(Json::as_bool)
            .unwrap_or(false),
        entry.get("attempted").and_then(Json::as_f64).unwrap_or(0.0),
        entry.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
        entry
            .get("virt_digest")
            .or(entry.get("traced_digest"))
            .and_then(Json::as_str)
            .unwrap_or("-"),
    );
    for section in ["end_to_end", "per_layer"] {
        for (name, m) in entry.get(section).map_or(&[][..], Json::members) {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            eprintln!("  {name:<36} {value:>16.4} {unit}");
        }
    }
    let paper = entry
        .get("per_layer")
        .and_then(|l| l.get("model.paper_speedup"));
    if paper.and_then(|m| m.get("value")).and_then(Json::as_f64) == Some(0.0) {
        eprintln!("  model: unvalidated at this scale (no paper figure, no error given)");
    }
}

/// `biscuit-perf run`. `Ok(false)` when a verification failed.
pub fn run(args: &[String]) -> Result<bool, String> {
    let a = parse(args)?;
    let launcher = Launcher::new();
    let names: Vec<&str> = match &a.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|info| info.name).collect(),
    };
    if a.repeat > 1 && a.out.is_none() {
        return Err("--repeat needs --out DIR to write its result files into".to_owned());
    }
    let mut all_correct = true;
    for round in 0..a.repeat {
        let mut entries = Vec::new();
        for name in &names {
            let entry = measure(&launcher, &a, name)?;
            print_entry(name, &entry);
            all_correct &= entry.get("correct").and_then(Json::as_bool) == Some(true);
            entries.push((*name, entry));
        }
        // The driver's form: one workload, one mode, one flat object.
        let flat = match (entries.as_slice(), a.trace) {
            ([(_, entry)], Some(trace)) => {
                let section = if trace { "per_layer" } else { "end_to_end" };
                let member = |key| entry.get(key).cloned().unwrap_or(Json::Null);
                Some(Json::obj(vec![
                    ("correct", member("correct")),
                    ("attempted", member("attempted")),
                    ("failed", member("failed")),
                    ("metrics", member(section)),
                ]))
            }
            _ => None,
        };
        let doc = Json::obj(vec![
            ("header", launcher.header(&a)),
            ("workloads", Json::obj(entries)),
        ]);
        if let Some(out) = &a.out {
            let path = if a.repeat > 1 {
                std::fs::create_dir_all(out).map_err(|e| format!("creating {out}: {e}"))?;
                format!("{out}/run-{round:02}.json")
            } else {
                out.clone()
            };
            std::fs::write(&path, doc.to_line() + "\n")
                .map_err(|e| format!("writing {path}: {e}"))?;
        }
        println!("{}", flat.unwrap_or(doc).to_line());
    }
    Ok(all_correct)
}
