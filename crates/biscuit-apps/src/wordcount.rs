//! Wordcount — the paper's working example (§III-E, Fig. 5, Code 1–3).
//!
//! Mappers read slices of the input file and tokenize; a shuffler routes
//! words by hash; reducers count and stream `(word, count)` pairs back to
//! the host. The dataflow exercises every port flavour the framework
//! offers: MPSC into the shuffler, typed SPSC fan-out to reducers, and
//! device-to-host result ports.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use biscuit_core::module::{ModuleBuilder, SsdletSpec};
use biscuit_core::task::{args_as, Ssdlet, TaskCtx};
use biscuit_core::{Application, BiscuitResult, Ssd, SsdletModule};
use biscuit_fs::File;
use biscuit_sim::Ctx;

/// Arguments for one mapper: its slice of the input file.
#[derive(Debug, Clone)]
pub(crate) struct MapperArgs {
    /// Input file.
    pub file: File,
    /// First byte of this mapper's slice.
    pub offset: u64,
    /// Slice length.
    pub len: u64,
}

/// Builds the wordcount module. The shuffler fans out to `n_reducers`
/// output ports, so the module is parameterized the way the paper's
/// host-side program parameterizes its SSDlet graph.
pub(crate) fn wordcount_module(n_reducers: usize) -> SsdletModule {
    assert!(n_reducers > 0, "wordcount needs at least one reducer");
    let mut shuffler_spec = SsdletSpec::new().input::<String>().memory(256 << 10);
    for _ in 0..n_reducers {
        shuffler_spec = shuffler_spec.output::<String>();
    }
    ModuleBuilder::new("wordcount")
        .binary_size(96 << 10)
        .register(
            "idMapper",
            SsdletSpec::new().output::<String>().memory(256 << 10),
            |args| {
                let args = args_as::<MapperArgs>(args)?;
                Ok(Box::new(Mapper { args }))
            },
        )
        .register("idShuffler", shuffler_spec, move |_args| {
            Ok(Box::new(Shuffler {
                outputs: n_reducers,
            }))
        })
        .register(
            "idReducer",
            SsdletSpec::new()
                .input::<String>()
                .output::<(String, u32)>()
                .memory(512 << 10),
            |_args| Ok(Box::new(Reducer)),
        )
        .build()
}

struct Mapper {
    args: MapperArgs,
}

/// Extra bytes read past the slice so a word straddling the boundary can be
/// finished by the mapper that owns its first character.
const WORD_TAIL: u64 = 256;

impl Ssdlet for Mapper {
    fn run(&mut self, ctx: &mut TaskCtx<'_>) {
        let total = self.args.file.len();
        // Read one byte before the slice (to detect a word continuing over
        // the boundary) and a tail after it (to finish an owned word).
        let pre = u64::from(self.args.offset > 0);
        let start = self.args.offset - pre;
        let len = (self.args.len + pre + WORD_TAIL).min(total - start);
        let bytes = self
            .args
            .file
            .read_at_async(ctx.sim(), start, len, 16, 8)
            .expect("mapper reads its slice");
        ctx.compute_bytes(bytes.len() as u64);
        // A token belongs to this mapper iff it *starts* within the slice.
        let own_from = pre as usize;
        let own_to = (pre + self.args.len).min(len) as usize;
        for word in tokenize_region(&bytes, own_from, own_to) {
            ctx.send(0, word).expect("shuffler port open");
        }
    }
}

/// Tokens whose first character lies in `[from, to)`. A leading byte before
/// `from` disambiguates words that continue across the slice boundary.
pub(crate) fn tokenize_region(bytes: &[u8], from: usize, to: usize) -> Vec<String> {
    let is_word = |b: u8| b.is_ascii_alphanumeric();
    let mut out = Vec::new();
    let mut i = from;
    // Skip the remainder of a word that started before the slice.
    if from > 0 && is_word(bytes[from - 1]) {
        while i < bytes.len() && is_word(bytes[i]) {
            i += 1;
        }
    }
    while i < to {
        if !is_word(bytes[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && is_word(bytes[i]) {
            i += 1;
        }
        if start < to {
            out.push(String::from_utf8_lossy(&bytes[start..i]).to_lowercase());
        }
    }
    out
}

struct Shuffler {
    outputs: usize,
}

impl Ssdlet for Shuffler {
    fn run(&mut self, ctx: &mut TaskCtx<'_>) {
        while let Some(word) = ctx.recv::<String>(0).expect("typed input") {
            let mut h = DefaultHasher::new();
            word.hash(&mut h);
            let target = (h.finish() % self.outputs as u64) as usize;
            ctx.send(target, word).expect("reducer port open");
        }
    }
}

struct Reducer;

impl Ssdlet for Reducer {
    fn run(&mut self, ctx: &mut TaskCtx<'_>) {
        let mut counts: HashMap<String, u32> = HashMap::new();
        while let Some(word) = ctx.recv::<String>(0).expect("typed input") {
            *counts.entry(word).or_insert(0) += 1;
        }
        let mut pairs: Vec<(String, u32)> = counts.into_iter().collect();
        pairs.sort();
        for pair in pairs {
            ctx.send(0, pair).expect("host port open");
        }
    }
}

/// Splits text into lowercase alphanumeric words.
pub(crate) fn tokenize(bytes: &[u8]) -> Vec<String> {
    String::from_utf8_lossy(bytes)
        .split(|ch: char| !ch.is_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(str::to_lowercase)
        .collect()
}

/// Reference host-side wordcount (ground truth for tests).
pub fn reference_wordcount(bytes: &[u8]) -> Vec<(String, u32)> {
    let mut counts: HashMap<String, u32> = HashMap::new();
    for w in tokenize(bytes) {
        *counts.entry(w).or_insert(0) += 1;
    }
    let mut pairs: Vec<(String, u32)> = counts.into_iter().collect();
    pairs.sort();
    pairs
}

/// Runs the full wordcount dataflow on the device (paper Code 3) and
/// returns sorted `(word, count)` pairs.
///
/// # Errors
///
/// Returns framework errors.
pub fn run_wordcount(
    ctx: &Ctx,
    ssd: &Ssd,
    file: &File,
    n_mappers: usize,
    n_reducers: usize,
) -> BiscuitResult<Vec<(String, u32)>> {
    assert!(n_mappers > 0 && n_reducers > 0);
    let mid = ssd.load_module(ctx, wordcount_module(n_reducers))?;
    let app = Application::new(ssd, "wordcount");

    // Slice the file at page boundaries so words never straddle mappers
    // (the loader pads pages with newlines/whitespace-safe content).
    let page = ssd.device().config().page_size as u64;
    let total = file.len();
    let total_pages = total.div_ceil(page);
    let pages_per_mapper = total_pages.div_ceil(n_mappers as u64).max(1);

    let shuffler = app.ssdlet(mid, "idShuffler")?;
    for m in 0..n_mappers {
        let first = m as u64 * pages_per_mapper;
        if first >= total_pages {
            break;
        }
        let len = ((first + pages_per_mapper).min(total_pages) * page).min(total) - first * page;
        let mapper = app.ssdlet_with(
            mid,
            "idMapper",
            MapperArgs {
                file: file.read_only(),
                offset: first * page,
                len,
            },
        )?;
        app.connect::<String>(mapper.out(0), shuffler.input(0))?;
    }
    let mut result_ports = Vec::with_capacity(n_reducers);
    for r in 0..n_reducers {
        let reducer = app.ssdlet(mid, "idReducer")?;
        app.connect::<String>(shuffler.out(r), reducer.input(0))?;
        result_ports.push(app.connect_to::<(String, u32)>(reducer.out(0))?);
    }
    app.start(ctx)?;
    let mut pairs = Vec::new();
    for port in &result_ports {
        while let Some(pair) = port.get(ctx) {
            pairs.push(pair);
        }
    }
    app.join(ctx);
    ssd.unload_module(ctx, mid)?;
    pairs.sort();
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use biscuit_core::CoreConfig;
    use biscuit_fs::{Fs, Mode};
    use biscuit_sim::sync::Mutex;
    use biscuit_sim::Simulation;
    use biscuit_ssd::{SsdConfig, SsdDevice};
    use std::sync::Arc;

    #[test]
    fn tokenizer_basics() {
        assert_eq!(
            tokenize(b"Hello, world! hello"),
            vec!["hello", "world", "hello"]
        );
        assert_eq!(tokenize(b"  \n\t "), Vec::<String>::new());
        assert_eq!(tokenize(b"a-b_c"), vec!["a", "b", "c"]);
    }

    #[test]
    fn dataflow_matches_reference() {
        let dev = Arc::new(SsdDevice::new(SsdConfig {
            logical_capacity: 64 << 20,
            ..SsdConfig::paper_default()
        }));
        let fs = Fs::format(dev);
        let corpus =
            "the quick brown fox jumps over the lazy dog the fox is quick and the dog is lazy "
                .repeat(50);
        fs.create("corpus.txt").unwrap();
        fs.append_untimed("corpus.txt", corpus.as_bytes()).unwrap();
        let file = fs.open("corpus.txt", Mode::ReadOnly).unwrap();
        let expected = reference_wordcount(corpus.as_bytes());
        let ssd = Ssd::new(fs, CoreConfig::paper_default());

        let sim = Simulation::new(0);
        let got: Arc<Mutex<Vec<(String, u32)>>> = Arc::new(Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        sim.spawn("host", move |ctx| {
            let pairs = run_wordcount(ctx, &ssd, &file, 1, 2).unwrap();
            *g.lock() = pairs;
        });
        sim.run().assert_quiescent();
        assert_eq!(*got.lock(), expected);
    }

    #[test]
    fn multiple_mappers_still_exact() {
        // Corpus small enough to fit one page: only one mapper gets work,
        // but requesting more must not duplicate or lose words.
        let dev = Arc::new(SsdDevice::new(SsdConfig {
            logical_capacity: 64 << 20,
            ..SsdConfig::paper_default()
        }));
        let fs = Fs::format(dev);
        let corpus = "alpha beta gamma alpha ".repeat(2000); // spans pages
        fs.create("c").unwrap();
        fs.append_untimed("c", corpus.as_bytes()).unwrap();
        let file = fs.open("c", Mode::ReadOnly).unwrap();
        let expected = reference_wordcount(corpus.as_bytes());
        let ssd = Ssd::new(fs, CoreConfig::paper_default());
        let sim = Simulation::new(0);
        let got: Arc<Mutex<Vec<(String, u32)>>> = Arc::new(Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        sim.spawn("host", move |ctx| {
            let pairs = run_wordcount(ctx, &ssd, &file, 3, 2).unwrap();
            *g.lock() = pairs;
        });
        sim.run().assert_quiescent();
        assert_eq!(*got.lock(), expected);
    }
}
