//! Simple string search, both ways (paper §V-C, Table V).
//!
//! - **Conv**: the host streams the file over the link and counts the
//!   needle, as Linux `grep` does, at the calibrated `grep` scan rate,
//!   throttled by memory-bandwidth contention. The counting itself runs the
//!   matcher's substring kernel (`BoyerMoore` in `biscuit_host::search`).
//! - **Biscuit**: a grep SSDlet streams the file through the per-channel
//!   pattern matcher at internal bandwidth; only match counting touches the
//!   device CPU, and a single number crosses the link. Load-insensitive.

use std::sync::Arc;

use biscuit_core::module::{ModuleBuilder, SsdletSpec};
use biscuit_core::task::{args_as, Ssdlet, TaskCtx};
use biscuit_core::{Application, BiscuitError, BiscuitResult, CoreConfig, Ssd, SsdletModule};
use biscuit_fs::{File, Fs, Mode};
use biscuit_host::array::{ArrayShard, ShardFailure, SsdArray};
use biscuit_host::fleet::{FleetConfig, FleetReport};
use biscuit_host::{BoyerMoore, ConvIo, HostConfig, HostLoad};
use biscuit_sim::time::SimDuration;
use biscuit_sim::Ctx;
use biscuit_ssd::pattern::{PatternError, PatternLimits, PatternSet};
use biscuit_ssd::{SsdConfig, SsdDevice};

use crate::weblog::{WeblogGen, NEEDLE};

/// Host-side `grep`: returns the number of needle occurrences.
///
/// I/O and scanning pipeline as in a single-threaded reader: the CPU works
/// on previous chunks while the next chunk's I/O is in flight.
///
/// # Errors
///
/// Returns [`BiscuitError::BadArgument`] for an empty needle, as
/// [`biscuit_grep`] does, before any page is read; and filesystem errors.
pub fn conv_grep(
    ctx: &Ctx,
    conv: &ConvIo,
    file: &File,
    needle: &[u8],
    load: HostLoad,
) -> BiscuitResult<u64> {
    if needle.is_empty() {
        return Err(bad_needle(PatternError::EmptyKey { index: 0 }));
    }
    let bm = BoyerMoore::new(needle);
    let page_size = conv.device().config().page_size;
    let total_pages = file.len().div_ceil(page_size as u64);
    let chunk_pages = 1024u64;
    let scan_rate = conv.config().scan_rate / load.bandwidth_slowdown(conv.config());
    let mut count = 0u64;
    let mut cpu_backlog = SimDuration::ZERO;
    let mut page_idx = 0u64;
    while page_idx < total_pages {
        let n = chunk_pages.min(total_pages - page_idx);
        let t0 = ctx.now();
        let pages = conv.read_file_pages_async(ctx, file, page_idx, n, 64, 16, load)?;
        let io_elapsed = ctx.now() - t0;
        cpu_backlog = cpu_backlog.saturating_sub(io_elapsed);
        cpu_backlog += SimDuration::for_bytes(n * page_size as u64, scan_rate);
        for page in &pages {
            count += bm.count(page) as u64;
        }
        page_idx += n;
    }
    ctx.sleep(cpu_backlog);
    Ok(count)
}

/// Arguments for the grep SSDlet.
#[derive(Debug, Clone)]
pub(crate) struct GrepArgs {
    /// File to scan.
    pub file: File,
    /// Needle bytes (≤16, per the matcher's key length limit).
    pub needle: Vec<u8>,
}

/// SSDlet identifier inside [`grep_module`].
pub(crate) const GREP_ID: &str = "idGrep";

/// Builds the `grepper` module.
pub(crate) fn grep_module() -> SsdletModule {
    ModuleBuilder::new("grepper")
        .binary_size(64 << 10)
        .register(
            GREP_ID,
            SsdletSpec::new().output::<u64>().memory(256 << 10),
            |args| {
                let args = args_as::<GrepArgs>(args)?;
                Ok(Box::new(Grep { args }))
            },
        )
        .build()
}

struct Grep {
    args: GrepArgs,
}

impl Ssdlet for Grep {
    fn run(&mut self, ctx: &mut TaskCtx<'_>) {
        let pattern = needle_pattern(ctx.device().config(), &self.args.needle)
            .expect("needle validated before the application started");
        let hits = self
            .args
            .file
            .scan(ctx.sim(), &pattern, 64, 32)
            .expect("scan of search corpus");
        let mut count = 0u64;
        for (_idx, page) in hits {
            let occurrences = pattern.find_all(&page);
            // The device CPU only touches the vicinity of each hit.
            ctx.compute_bytes((occurrences.len() * self.args.needle.len()) as u64);
            count += occurrences.len() as u64;
        }
        ctx.send(0, count).expect("host port open");
    }
}

/// The one-key matcher configuration for `needle` on a drive configured as
/// `config`.
///
/// # Errors
///
/// Returns [`BiscuitError::BadArgument`] for a needle the drive's matcher
/// cannot hold (empty, or longer than `pm_max_key_len`).
fn needle_pattern(config: &SsdConfig, needle: &[u8]) -> BiscuitResult<PatternSet> {
    let limits = PatternLimits {
        max_keys: config.pm_max_keys,
        max_key_len: config.pm_max_key_len,
    };
    PatternSet::new(vec![needle.to_vec()], limits).map_err(bad_needle)
}

fn bad_needle(e: PatternError) -> BiscuitError {
    BiscuitError::BadArgument(format!("grep needle: {e}"))
}

/// Device-side `grep` over the Biscuit framework: returns the occurrence
/// count. `module` is the pre-loaded `grep_module`.
///
/// # Errors
///
/// Returns [`BiscuitError::BadArgument`] for a needle the matcher cannot
/// hold, [`BiscuitError::SsdletPanicked`] if the grep SSDlet died, and
/// other framework errors.
pub fn biscuit_grep(
    ctx: &Ctx,
    ssd: &Ssd,
    module: biscuit_core::ModuleId,
    file: &File,
    needle: &[u8],
) -> BiscuitResult<u64> {
    needle_pattern(ssd.device().config(), needle)?;
    let app = Application::new(ssd, "grep");
    let g = app.ssdlet_with(
        module,
        GREP_ID,
        GrepArgs {
            file: file.read_only(),
            needle: needle.to_vec(),
        },
    )?;
    let rx = app.connect_to::<u64>(g.out(0))?;
    app.start(ctx)?;
    let count = rx.get(ctx).unwrap_or(0);
    app.join_checked(ctx)?;
    Ok(count)
}

/// Convenience: load the grep module once.
///
/// # Errors
///
/// Returns framework errors.
pub fn load_grep_module(ctx: &Ctx, ssd: &Ssd) -> BiscuitResult<biscuit_core::ModuleId> {
    ssd.load_module(ctx, grep_module())
}

/// Device-side grep prepared over every drive of an [`SsdArray`]: the
/// grepper module is loaded once per shard, then [`ArrayGrep::run`]
/// scatters each query across all drives concurrently.
#[derive(Debug, Clone)]
pub struct ArrayGrep {
    modules: Vec<biscuit_core::ModuleId>,
}

impl ArrayGrep {
    /// Loads the grep module onto every drive of `array`.
    ///
    /// # Errors
    ///
    /// Returns framework errors from module loading.
    pub fn prepare(ctx: &Ctx, array: &SsdArray) -> BiscuitResult<ArrayGrep> {
        let mut modules = Vec::with_capacity(array.len());
        for shard in array.shards() {
            modules.push(load_grep_module(ctx, &shard.ssd)?);
        }
        Ok(ArrayGrep { modules })
    }

    /// Counts needle occurrences in `path` summed over all shards: every
    /// drive greps its own shard file concurrently and streams its count
    /// through the array's ordered merge port. A shard whose device path
    /// fails — SSDlet panic, request timeout, or whole-drive loss — is
    /// re-scattered to a host-side [`conv_grep`] over the same shard
    /// file, so the returned count is identical to a fault-free run.
    ///
    /// # Errors
    ///
    /// Returns [`BiscuitError::BadArgument`] for a needle some drive's
    /// matcher cannot hold, and filesystem/framework errors from the
    /// fallback path.
    pub fn run(
        &self,
        ctx: &Ctx,
        array: &SsdArray,
        path: &str,
        needle: &[u8],
        load: HostLoad,
    ) -> BiscuitResult<u64> {
        for shard in array.shards() {
            needle_pattern(shard.ssd.device().config(), needle)?;
        }
        let modules = self.modules.clone();
        let job_path = path.to_string();
        let job_needle = needle.to_vec();
        let timeout = array.fault_plan().host_timeout();
        let results = array.scatter::<u64, BiscuitError, _, _>(
            ctx,
            "agrep",
            move |fctx, shard, tx| {
                let fail = |e: BiscuitError| ShardFailure::new(e.to_string());
                let file = shard
                    .ssd
                    .fs()
                    .open(&job_path, Mode::ReadOnly)
                    .map_err(|e| ShardFailure::new(e.to_string()))?;
                let app = Application::new(&shard.ssd, "agrep");
                let g = app
                    .ssdlet_with(
                        modules[shard.id],
                        GREP_ID,
                        GrepArgs {
                            file,
                            needle: job_needle.clone(),
                        },
                    )
                    .map_err(fail)?;
                let rx = app.connect_to::<u64>(g.out(0)).map_err(fail)?;
                app.start(fctx).map_err(fail)?;
                let got = match timeout {
                    Some(t) => match rx.get_deadline(fctx, t) {
                        Ok(v) => v,
                        Err(e) => {
                            // Drain-discard so the device fibers can
                            // finish, then surface the timeout.
                            while rx.get(fctx).is_some() {}
                            app.join(fctx);
                            return Err(fail(e));
                        }
                    },
                    None => rx.get(fctx),
                };
                app.join(fctx);
                if let Some(failure) = app.failure() {
                    return Err(fail(failure));
                }
                tx.send(fctx, got.unwrap_or(0))
                    .map_err(|_| ShardFailure::new("merge lane abandoned"))?;
                Ok(())
            },
            |fctx, shard| {
                let file = shard.ssd.fs().open(path, Mode::ReadOnly)?;
                let count = conv_grep(fctx, &shard.conv, &file, needle, load)?;
                Ok(vec![count])
            },
        )?;
        Ok(results.iter().map(|r| r.items.iter().sum::<u64>()).sum())
    }
}

/// Host-side baseline over an array: one host CPU greps every shard file
/// sequentially over each drive's link (the Conv side of Fig. 1(b) —
/// adding drives adds data but no compute).
///
/// # Errors
///
/// Returns [`BiscuitError::BadArgument`] for an empty needle, and
/// filesystem errors.
pub fn array_conv_grep(
    ctx: &Ctx,
    array: &SsdArray,
    path: &str,
    needle: &[u8],
    load: HostLoad,
) -> BiscuitResult<u64> {
    let mut total = 0u64;
    for shard in array.shards() {
        let file = shard.ssd.fs().open(path, Mode::ReadOnly)?;
        total += conv_grep(ctx, &shard.conv, &file, needle, load)?;
    }
    Ok(total)
}

/// Device-side grep over a **parallel shard fleet**
/// ([`SsdArray::scatter_parallel`]): each of `cfg.drives` shard kernels
/// gets a fresh drive holding a `shard_pages`-page synthetic web log
/// (generator seed `100 + shard`, needle rarity `needle_every`), loads
/// the grepper module, and runs `passes` grep passes, pushing each
/// pass's count onto the shard's lane.
///
/// `tests/parallel.rs` and `biscuit-perf`'s `array_scan` workload both
/// drive this function. The merged
/// counts (and, when enabled, trace/metrics exports) are byte-identical
/// for a given `cfg.seed` across both thread policies.
///
/// # Panics
///
/// Panics on filesystem or framework errors inside a shard (corpus
/// creation, module load, grep) — this is a benchmark/test harness, not
/// a fallible API.
pub fn fleet_grep(
    cfg: &FleetConfig,
    shard_pages: u64,
    needle_every: u64,
    passes: usize,
) -> FleetReport<u64> {
    SsdArray::scatter_parallel::<u64, _, _>(
        cfg,
        move |i, _sim| {
            let dev = Arc::new(SsdDevice::new(SsdConfig {
                logical_capacity: 64 << 20,
                ..SsdConfig::paper_default()
            }));
            let fs = Fs::format(Arc::clone(&dev));
            let page = dev.config().page_size;
            fs.create_synthetic(
                "shard.log",
                shard_pages * page as u64,
                Arc::new(WeblogGen::new(100 + i as u64, needle_every)),
            )
            .expect("synthetic shard corpus");
            let ssd = Ssd::new(fs, CoreConfig::paper_default());
            ArrayShard::new(i, ssd, HostConfig::paper_default())
        },
        move |ctx, shard, lane| {
            let module = load_grep_module(ctx, &shard.ssd).expect("grep module");
            let file = shard
                .ssd
                .fs()
                .open("shard.log", Mode::ReadOnly)
                .expect("shard corpus");
            // Each pass is one profiled query (tenant = shard id); module
            // load stays outside query time, mirroring the DB engine.
            let qp = ctx.qprof().clone();
            for _ in 0..passes {
                let span = qp.begin_query(ctx, shard.id as u32);
                let count = biscuit_grep(ctx, &shard.ssd, module, &file, NEEDLE.as_bytes())
                    .expect("fleet grep");
                if let Some(sc) = span {
                    qp.end_query(ctx, sc);
                }
                lane.push(count);
            }
        },
    )
}

/// Exact total count [`fleet_grep`] must report: per-shard needle count
/// times `passes`, summed over `drives` shards. Pure function of the
/// corpus parameters (the generators are deterministic), independent of
/// the fleet seed and thread policy.
pub fn fleet_grep_expected(
    drives: usize,
    shard_pages: u64,
    needle_every: u64,
    passes: usize,
) -> u64 {
    let page = SsdConfig::paper_default().page_size;
    (0..drives)
        .map(|i| WeblogGen::new(100 + i as u64, needle_every).count_needles(shard_pages, page))
        .sum::<u64>()
        * passes as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weblog::{WeblogGen, NEEDLE};
    use biscuit_core::CoreConfig;
    use biscuit_fs::{Fs, Mode};
    use biscuit_host::HostConfig;
    use biscuit_sim::sync::Mutex;
    use biscuit_sim::Simulation;
    use biscuit_ssd::{SsdConfig, SsdDevice};
    use std::sync::Arc;

    fn setup(corpus_pages: u64) -> (Ssd, ConvIo, File, u64) {
        let dev = Arc::new(SsdDevice::new(SsdConfig {
            logical_capacity: 1 << 30,
            ..SsdConfig::paper_default()
        }));
        let fs = Fs::format(Arc::clone(&dev));
        let page = dev.config().page_size;
        let gen = Arc::new(WeblogGen::new(11, 200));
        let expected = gen.count_needles(corpus_pages, page);
        fs.create_synthetic("weblog", corpus_pages * page as u64, gen)
            .unwrap();
        let file = fs.open("weblog", Mode::ReadOnly).unwrap();
        let ssd = Ssd::new(fs, CoreConfig::paper_default());
        let conv = ConvIo::new(
            Arc::clone(ssd.device()),
            Arc::clone(ssd.link()),
            HostConfig::paper_default(),
        );
        (ssd, conv, file, expected)
    }

    #[test]
    fn both_paths_count_the_same_needles() {
        let (ssd, conv, file, expected) = setup(256);
        let sim = Simulation::new(0);
        let results: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let r = Arc::clone(&results);
        sim.spawn("host", move |ctx| {
            let c = conv_grep(ctx, &conv, &file, NEEDLE.as_bytes(), HostLoad::IDLE).unwrap();
            let module = load_grep_module(ctx, &ssd).unwrap();
            let b = biscuit_grep(ctx, &ssd, module, &file, NEEDLE.as_bytes()).unwrap();
            r.lock().extend([c, b]);
        });
        sim.run().assert_quiescent();
        let results = results.lock();
        assert!(expected > 0);
        assert_eq!(results[0], expected, "conv count");
        assert_eq!(results[1], expected, "biscuit count");
    }

    #[test]
    fn needles_the_matcher_cannot_hold_are_errors_not_zero_counts() {
        use biscuit_host::array::{ArrayConfig, SsdArray};

        let (ssd, _conv, file, _) = setup(8);
        let array = SsdArray::new(
            vec![ssd.clone()],
            HostConfig::paper_default(),
            ArrayConfig::default(),
        );
        let sim = Simulation::new(0);
        let results = Arc::new(Mutex::new(Vec::new()));
        let r = Arc::clone(&results);
        sim.spawn("host", move |ctx| {
            let module = load_grep_module(ctx, &ssd).unwrap();
            let grep = ArrayGrep::prepare(ctx, &array).unwrap();
            let mut got = Vec::new();
            for needle in [&b""[..], &[b'x'; 17][..]] {
                got.push(biscuit_grep(ctx, &ssd, module, &file, needle));
                got.push(grep.run(ctx, &array, "weblog", needle, HostLoad::IDLE));
            }
            // The longest key the matcher holds is still accepted.
            got.push(biscuit_grep(ctx, &ssd, module, &file, &[b'x'; 16]));
            *r.lock() = got;
        });
        sim.run().assert_quiescent();
        let results = results.lock();
        for r in &results[..4] {
            assert!(
                matches!(r, Err(BiscuitError::BadArgument(_))),
                "invalid needle gave {r:?}"
            );
        }
        assert!(
            matches!(results[4], Ok(0)),
            "16-byte needle gave {:?}",
            results[4]
        );
    }

    #[test]
    fn an_empty_needle_is_the_same_error_on_the_host_before_any_read() {
        use biscuit_host::array::{ArrayConfig, SsdArray};

        let (ssd, conv, file, _) = setup(8);
        let array = SsdArray::new(
            vec![ssd.clone()],
            HostConfig::paper_default(),
            ArrayConfig::default(),
        );
        let sim = Simulation::new(0);
        let results = Arc::new(Mutex::new(Vec::new()));
        let r = Arc::clone(&results);
        sim.spawn("host", move |ctx| {
            let module = load_grep_module(ctx, &ssd).unwrap();
            let t0 = ctx.now();
            let host = [
                conv_grep(ctx, &conv, &file, b"", HostLoad::IDLE),
                array_conv_grep(ctx, &array, "weblog", b"", HostLoad::IDLE),
            ];
            assert_eq!(ctx.now(), t0, "the host read before rejecting");
            let device = biscuit_grep(ctx, &ssd, module, &file, b"");
            *r.lock() = [device].into_iter().chain(host).collect::<Vec<_>>();
        });
        sim.run().assert_quiescent();
        let results = results.lock();
        let Err(BiscuitError::BadArgument(want)) = &results[0] else {
            panic!("device grep of an empty needle gave {:?}", results[0]);
        };
        for r in &results[1..] {
            assert!(
                matches!(r, Err(BiscuitError::BadArgument(got)) if got == want),
                "host grep of an empty needle gave {r:?}, device {want:?}"
            );
        }
    }

    #[test]
    fn array_grep_matches_sequential_conv_over_all_shards() {
        use biscuit_host::array::{ArrayConfig, SsdArray};

        let mut expected = 0u64;
        let drives: Vec<Ssd> = (0..3)
            .map(|i| {
                let dev = Arc::new(SsdDevice::new(SsdConfig {
                    logical_capacity: 1 << 30,
                    ..SsdConfig::paper_default()
                }));
                let fs = Fs::format(Arc::clone(&dev));
                let page = dev.config().page_size;
                let gen = Arc::new(WeblogGen::new(20 + i, 150));
                expected += gen.count_needles(128, page);
                fs.create_synthetic("shard.log", 128 * page as u64, gen)
                    .unwrap();
                Ssd::new(fs, CoreConfig::paper_default())
            })
            .collect();
        let array = SsdArray::new(drives, HostConfig::paper_default(), ArrayConfig::default());
        let sim = Simulation::new(0);
        let counts: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let c = Arc::clone(&counts);
        let arr = array.clone();
        sim.spawn("host", move |ctx| {
            let grep = ArrayGrep::prepare(ctx, &arr).unwrap();
            let b = grep
                .run(ctx, &arr, "shard.log", NEEDLE.as_bytes(), HostLoad::IDLE)
                .unwrap();
            let s =
                array_conv_grep(ctx, &arr, "shard.log", NEEDLE.as_bytes(), HostLoad::IDLE).unwrap();
            c.lock().extend([b, s]);
        });
        sim.run().assert_quiescent();
        let counts = counts.lock();
        assert!(expected > 0);
        assert_eq!(counts[0], expected, "array biscuit count");
        assert_eq!(counts[1], expected, "array conv count");
    }

    #[test]
    fn fleet_grep_counts_match_and_modes_agree() {
        use biscuit_sim::par::{ParConfig, ParMode};

        let (drives, pages, rarity, passes) = (2usize, 32u64, 150u64, 2usize);
        let expected = fleet_grep_expected(drives, pages, rarity, passes);
        assert!(expected > 0);
        let run = |mode: ParMode| {
            let cfg = FleetConfig {
                drives,
                seed: 7,
                metrics: true,
                par: ParConfig::new(mode),
                ..FleetConfig::default()
            };
            let report = fleet_grep(&cfg, pages, rarity, passes);
            report.assert_quiescent();
            report
        };
        let single = run(ParMode::Single);
        assert_eq!(
            single.items.iter().map(|(_, c)| *c).sum::<u64>(),
            expected,
            "fleet count"
        );
        let par = run(ParMode::PerShard);
        assert_eq!(par.items, single.items, "merged items");
        assert_eq!(par.metrics_json(), single.metrics_json(), "metrics export");
        assert_eq!(par.events_processed(), single.events_processed());
    }

    #[test]
    fn biscuit_is_faster_and_load_insensitive() {
        let (ssd, conv, file, _) = setup(512);
        let sim = Simulation::new(0);
        let times: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
        let t = Arc::clone(&times);
        sim.spawn("host", move |ctx| {
            let module = load_grep_module(ctx, &ssd).unwrap();
            for load in [HostLoad::IDLE, HostLoad::new(24)] {
                let t0 = ctx.now();
                conv_grep(ctx, &conv, &file, NEEDLE.as_bytes(), load).unwrap();
                let conv_t = (ctx.now() - t0).as_secs_f64();
                let t1 = ctx.now();
                biscuit_grep(ctx, &ssd, module, &file, NEEDLE.as_bytes()).unwrap();
                let bis_t = (ctx.now() - t1).as_secs_f64();
                t.lock().extend([conv_t, bis_t]);
            }
        });
        sim.run().assert_quiescent();
        let t = times.lock();
        let (conv0, bis0, conv24, bis24) = (t[0], t[1], t[2], t[3]);
        // Paper Table V: 5.3x at idle, growing to 8.3x under load.
        assert!(conv0 / bis0 > 3.0, "idle speedup {:.2}", conv0 / bis0);
        assert!(conv24 > conv0 * 1.4, "conv must degrade under load");
        assert!(
            (bis24 - bis0).abs() / bis0 < 0.05,
            "biscuit must be load-insensitive: {bis0} vs {bis24}"
        );
        assert!(conv24 / bis24 > conv0 / bis0, "speedup grows with load");
    }
}
