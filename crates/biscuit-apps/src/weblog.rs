//! Web-log workload generator (paper §V-C "Simple String Search").
//!
//! Produces Apache-style access-log lines with a rare planted token that
//! the search benchmarks hunt for. Content is generated per page, aligned
//! so no line spans a page boundary, which lets the same generator back
//! either a materialized file or a storage-free synthetic file of paper
//! scale (7.8 GiB).

use biscuit_sim::rng::Rng;
use biscuit_ssd::PageGen;

/// The token the search benchmarks look for.
pub const NEEDLE: &str = "PANIC_0xB15C";

const METHODS: [&str; 4] = ["GET", "POST", "PUT", "DELETE"];
const PATHS: [&str; 8] = [
    "/index.html",
    "/api/v1/users",
    "/static/app.js",
    "/login",
    "/img/logo.png",
    "/api/v1/orders",
    "/health",
    "/search?q=biscuit",
];
const CODES: [&str; 6] = ["200", "200", "200", "304", "404", "500"];

/// Room every line is written into. The longest line is 102 bytes; the
/// writer's fixed-width stores can run past a short line's end, but none
/// ends past byte 102 either.
const LINE_MAX: usize = 128;

/// A byte string zero-padded to `N` bytes, with its length: written as
/// one fixed-width store and an advance, whatever its length.
type Padded<const N: usize> = ([u8; N], usize);

/// `names[i]` followed by `suffix`, each padded to `N` bytes.
const fn padded<const K: usize, const N: usize>(names: [&str; K], suffix: &[u8]) -> [Padded<N>; K] {
    let mut out = [([0; N], 0); K];
    let mut k = 0;
    while k < K {
        let (field, len) = &mut out[k];
        let name = names[k].as_bytes();
        assert!(
            name.len() + suffix.len() <= N,
            "field longer than its padding"
        );
        let mut i = 0;
        while i < name.len() {
            field[i] = name[i];
            i += 1;
        }
        while i < name.len() + suffix.len() {
            field[i] = suffix[i - name.len()];
            i += 1;
        }
        *len = i;
        k += 1;
    }
    out
}

const METHOD_FIELDS: [Padded<8>; 4] = padded(METHODS, b" ");
const PATH_FIELDS: [Padded<32>; 8] = padded(PATHS, b" HTTP/1.1\" ");
const CODE_FIELDS: [Padded<4>; 6] = padded(CODES, b" ");

/// `0..256` in decimal as `[digits.., len]`, the digits zero-padded to
/// three: an octet is one three-byte store and an advance by `len`.
const OCTETS: [[u8; 4]; 256] = {
    let mut t = [[0; 4]; 256];
    let mut v = 0;
    while v < 256 {
        let (h, d, u) = ((v / 100) as u8, (v / 10 % 10) as u8, (v % 10) as u8);
        t[v] = match v {
            0..=9 => [b'0' + u, 0, 0, 1],
            10..=99 => [b'0' + d, b'0' + u, 0, 2],
            _ => [b'0' + h, b'0' + d, b'0' + u, 3],
        };
        v += 1;
    }
    t
};

/// `0..100` as two decimal digits.
const TWO_DIGITS: [[u8; 2]; 100] = {
    let mut t = [[0; 2]; 100];
    let mut v = 0;
    while v < 100 {
        t[v] = [b'0' + (v / 10) as u8, b'0' + (v % 10) as u8];
        v += 1;
    }
    t
};

/// A line being written at the start of a buffer with room for any line.
struct Line<'a> {
    buf: &'a mut [u8; LINE_MAX],
    len: usize,
}

impl Line<'_> {
    /// Stores all of `bytes`, then advances by `advance` of them.
    #[inline(always)]
    fn put(&mut self, bytes: &[u8], advance: usize) {
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += advance;
    }

    #[inline(always)]
    fn lit(&mut self, bytes: &[u8]) {
        self.put(bytes, bytes.len());
    }

    #[inline(always)]
    fn octet(&mut self, v: usize) {
        let [a, b, c, len] = OCTETS[v];
        self.put(&[a, b, c], len as usize);
    }

    /// `v` in `0..100_000` without leading zeros: the five digits, shifted
    /// down past the leading zeros, as one eight-byte store.
    #[inline(always)]
    fn dec5(&mut self, v: u32) {
        let len = 1 + [10, 100, 1000, 10_000].iter().filter(|&&p| v >= p).count();
        let digits = [v / 10_000, v / 1000 % 10, v / 100 % 10, v / 10 % 10, v % 10];
        let le = digits
            .iter()
            .rev()
            .fold(0u64, |acc, &d| acc << 8 | u64::from(b'0' + d as u8));
        self.put(&(le >> (8 * (5 - len))).to_le_bytes(), len);
    }
}

/// Deterministic page-aligned web-log generator.
///
/// Roughly one line in `needle_every` carries [`NEEDLE`].
#[derive(Debug, Clone)]
pub struct WeblogGen {
    seed: u64,
    needle_every: u64,
}

impl WeblogGen {
    /// Creates a generator; `needle_every` controls needle rarity
    /// (0 = never).
    pub fn new(seed: u64, needle_every: u64) -> Self {
        WeblogGen { seed, needle_every }
    }

    /// Generates `total_bytes` of log as contiguous pages (for materialized
    /// files and tests).
    pub fn generate_bytes(&self, total_bytes: usize, page_size: usize) -> Vec<u8> {
        let mut out = vec![0; total_bytes.div_ceil(page_size) * page_size];
        for (p, page) in out.chunks_exact_mut(page_size).enumerate() {
            self.fill(p as u64, page);
        }
        out.truncate(total_bytes);
        out
    }

    /// Expected needle count in a span of pages (exact, since placement is
    /// deterministic per line index).
    pub fn count_needles(&self, pages: u64, page_size: usize) -> u64 {
        let mut n = 0;
        for p in 0..pages {
            let page = self.generate(p, page_size);
            let mut from = 0;
            let needle = NEEDLE.as_bytes();
            while let Some(pos) = page[from..].windows(needle.len()).position(|w| w == needle) {
                n += 1;
                from += pos + 1;
            }
        }
        n
    }
}

impl PageGen for WeblogGen {
    fn fill(&self, lpn: u64, page: &mut [u8]) {
        // Page-local RNG: page contents depend only on (seed, lpn).
        let mut rng = Rng::seed_from_u64(self.seed ^ (lpn.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        // Lines per page vary with line lengths; assign deterministic global
        // line numbers by reserving a fixed per-page budget.
        let line_budget = (page.len() / 96) as u64;
        let every = self.needle_every;
        let mut spill = [0; LINE_MAX];
        let mut at = 0;
        for i in 0..line_budget {
            let needle = every > 0 && (lpn * line_budget + i) % every == every / 2;
            let rest = &mut page[at..];
            at += match rest.first_chunk_mut::<LINE_MAX>() {
                Some(room) => write_line(&mut rng, needle, room),
                None => {
                    // Near the page's end: write aside, keep it if it fits.
                    let len = write_line(&mut rng, needle, &mut spill);
                    let Some(dst) = rest.get_mut(..len) else {
                        break;
                    };
                    dst.copy_from_slice(&spill[..len]);
                    len
                }
            };
        }
        page[at..].fill(b'\n');
    }
}

/// Writes the next log line at the start of `buf` and returns its length.
///
/// One draw per field, in the order page contents have always been
/// sampled: reordering or adding a draw would change every page.
fn write_line(rng: &mut Rng, needle: bool, buf: &mut [u8; LINE_MAX]) -> usize {
    let mut line = Line { buf, len: 0 };
    line.octet(rng.range(1..255));
    line.lit(b".");
    line.octet(rng.range(0..255));
    line.lit(b".");
    line.octet(rng.range(0..255));
    line.lit(b".");
    line.octet(rng.range(1..255));
    line.lit(b" - - [17/Jan/1995:");
    let [h0, h1] = TWO_DIGITS[rng.range(0..24usize)];
    let [m0, m1] = TWO_DIGITS[rng.range(0..60usize)];
    let [s0, s1] = TWO_DIGITS[rng.range(0..60usize)];
    line.lit(&[h0, h1, b':', m0, m1, b':', s0, s1]);
    line.lit(b"] \"");
    let (method, len) = &METHOD_FIELDS[rng.range(0..METHODS.len())];
    line.put(method, *len);
    let (path, len) = &PATH_FIELDS[rng.range(0..PATHS.len())];
    line.put(path, *len);
    let (code, len) = &CODE_FIELDS[rng.range(0..CODES.len())];
    line.put(code, *len);
    line.dec5(rng.range(64..65_536));
    if needle {
        line.lit(b" ");
        line.lit(NEEDLE.as_bytes());
    }
    line.lit(b"\n");
    line.len
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use proptest::prelude::*;

    use super::*;

    /// The `format!`-based builder pages were made with before they were
    /// written in place, kept as the reference they must equal byte for
    /// byte.
    fn reference_line(g: &WeblogGen, rng: &mut Rng, global_line: u64) -> String {
        let ip = format!(
            "{}.{}.{}.{}",
            rng.range(1..255),
            rng.range(0..255),
            rng.range(0..255),
            rng.range(1..255)
        );
        let tag = if g.needle_every > 0 && global_line % g.needle_every == g.needle_every / 2 {
            format!(" {NEEDLE}")
        } else {
            String::new()
        };
        format!(
            "{ip} - - [17/Jan/1995:{:02}:{:02}:{:02}] \"{} {} HTTP/1.1\" {} {}{}\n",
            rng.range(0..24),
            rng.range(0..60),
            rng.range(0..60),
            METHODS[rng.range(0..METHODS.len())],
            PATHS[rng.range(0..PATHS.len())],
            CODES[rng.range(0..CODES.len())],
            rng.range(64..65_536),
            tag
        )
    }

    fn reference_page(g: &WeblogGen, lpn: u64, page_size: usize) -> Vec<u8> {
        let mut rng = Rng::seed_from_u64(g.seed ^ (lpn.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        let line_budget = (page_size / 96) as u64;
        let mut page = Vec::new();
        let mut i = 0u64;
        loop {
            let line = reference_line(g, &mut rng, lpn * line_budget + i);
            if page.len() + line.len() > page_size || i >= line_budget {
                break;
            }
            page.extend_from_slice(line.as_bytes());
            i += 1;
        }
        page.resize(page_size, b'\n');
        page
    }

    #[test]
    fn pages_equal_the_format_reference() {
        // 97 has a one-line budget; the small pages, and 4096 when every
        // line carries the needle, stop at a line that does not fit; the
        // rest run out of budget first.
        for seed in [0, 7, 0xB15C, u64::MAX] {
            for needle_every in [0, 1, 50, 1000] {
                let g = WeblogGen::new(seed, needle_every);
                for page_size in [97, 200, 4096, 16384] {
                    for lpn in (0..60).chain([1 << 20, 1 << 40, u64::MAX / 200, 12345]) {
                        assert_eq!(
                            g.generate(lpn, page_size),
                            reference_page(&g, lpn, page_size),
                            "seed {seed} needle_every {needle_every} page {page_size} lpn {lpn}"
                        );
                    }
                }
            }
        }
    }

    /// `fill` writes every byte of pages of every size, at every line
    /// number and needle rate, over whatever the frame held before, exactly
    /// as the `format!` reference did. Among the cases are pages whose last
    /// line ends on the page's last byte, with no padding after it.
    #[test]
    fn fill_equals_the_format_reference() {
        let exact_fits = Cell::new(0u32);
        let strategy = (
            any::<u64>(),
            prop_oneof![Just(0u64), Just(1), Just(2), 3u64..500, any::<u64>()],
            prop_oneof![6 => 97usize..=300, 1 => Just(4096), 1 => Just(16384)],
            any::<u64>(),
            any::<u8>(),
        );
        proptest::test_runner::run(
            &ProptestConfig::with_cases(2048),
            concat!(module_path!(), "::fill_equals_the_format_reference"),
            &strategy,
            |(seed, needle_every, page_size, pick, stale)| {
                // `pick` scaled onto every lpn whose first line number
                // fits in a u64: 0 and u64::MAX map to the two ends.
                let last_lpn = u64::MAX / page_size as u64;
                let lpn = ((u128::from(pick) * (u128::from(last_lpn) + 1)) >> 64) as u64;
                let g = WeblogGen::new(seed, needle_every);
                let mut page = vec![stale; page_size];
                g.fill(lpn, &mut page);
                prop_assert_eq!(&page, &reference_page(&g, lpn, page_size), "lpn {}", lpn);
                // A line ends in `\n` and padding is `\n`s, so a page with
                // no padding ends in a `\n` that follows a line's text.
                if page[page_size - 2] != b'\n' {
                    exact_fits.set(exact_fits.get() + 1);
                }
                Ok(())
            },
        );
        assert!(exact_fits.get() > 0, "no case filled its page exactly");
    }

    #[test]
    fn page_buffer_is_not_over_allocated() {
        let g = WeblogGen::new(1, 50);
        for page_size in [97, 4096, 16 << 10] {
            assert_eq!(g.generate(3, page_size).capacity(), page_size);
        }
    }

    #[test]
    fn pages_are_deterministic() {
        let g = WeblogGen::new(42, 100);
        assert_eq!(g.generate(7, 4096), g.generate(7, 4096));
        assert_ne!(g.generate(7, 4096), g.generate(8, 4096));
    }

    #[test]
    fn pages_are_exactly_page_sized() {
        let g = WeblogGen::new(1, 0);
        assert_eq!(g.generate(0, 16 << 10).len(), 16 << 10);
        assert_eq!(g.generate(123, 4096).len(), 4096);
    }

    #[test]
    fn needles_are_planted_at_requested_rarity() {
        let g = WeblogGen::new(3, 50);
        let n = g.count_needles(64, 16 << 10);
        // 64 pages x ~170 lines/page / 50 ≈ 218 needles; allow slack.
        assert!(n > 50, "needle count {n}");
        let g0 = WeblogGen::new(3, 0);
        assert_eq!(g0.count_needles(16, 16 << 10), 0);
    }

    #[test]
    fn lines_do_not_span_pages() {
        let g = WeblogGen::new(9, 10);
        for p in 0..4 {
            let page = g.generate(p, 4096);
            assert_eq!(*page.last().unwrap(), b'\n');
        }
    }

    #[test]
    fn generate_bytes_concatenates_pages() {
        let g = WeblogGen::new(5, 10);
        let bytes = g.generate_bytes(3 * 4096, 4096);
        assert_eq!(bytes.len(), 3 * 4096);
        assert_eq!(&bytes[..4096], &g.generate(0, 4096)[..]);
    }
}
