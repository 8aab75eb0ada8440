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

    /// Replaces `line` with log line number `global_line`.
    ///
    /// One draw per field, in the order page contents have always been
    /// sampled: reordering or adding a draw would change every page.
    fn write_line(&self, rng: &mut Rng, global_line: u64, line: &mut Vec<u8>) {
        line.clear();
        push_dec(line, rng.range(1..255i32));
        line.push(b'.');
        push_dec(line, rng.range(0..255i32));
        line.push(b'.');
        push_dec(line, rng.range(0..255i32));
        line.push(b'.');
        push_dec(line, rng.range(1..255i32));
        line.extend_from_slice(b" - - [17/Jan/1995:");
        push_2d(line, rng.range(0..24i32));
        line.push(b':');
        push_2d(line, rng.range(0..60i32));
        line.push(b':');
        push_2d(line, rng.range(0..60i32));
        line.extend_from_slice(b"] \"");
        line.extend_from_slice(METHODS[rng.range(0..METHODS.len())].as_bytes());
        line.push(b' ');
        line.extend_from_slice(PATHS[rng.range(0..PATHS.len())].as_bytes());
        line.extend_from_slice(b" HTTP/1.1\" ");
        line.extend_from_slice(CODES[rng.range(0..CODES.len())].as_bytes());
        line.push(b' ');
        push_dec(line, rng.range(64..65_536i32));
        if self.needle_every > 0 && global_line % self.needle_every == self.needle_every / 2 {
            line.push(b' ');
            line.extend_from_slice(NEEDLE.as_bytes());
        }
        line.push(b'\n');
    }

    /// Generates `total_bytes` of log as contiguous pages (for materialized
    /// files and tests).
    pub fn generate_bytes(&self, total_bytes: usize, page_size: usize) -> Vec<u8> {
        let pages = total_bytes.div_ceil(page_size);
        let mut out = Vec::with_capacity(pages * page_size);
        for p in 0..pages {
            out.extend_from_slice(&self.generate(p as u64, page_size));
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
    fn generate(&self, lpn: u64, page_size: usize) -> Vec<u8> {
        // Page-local RNG: page contents depend only on (seed, lpn).
        let mut rng = Rng::seed_from_u64(self.seed ^ (lpn.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        // Lines per page vary with line lengths; assign deterministic global
        // line numbers by reserving a fixed per-page budget.
        let line_budget = (page_size / 96) as u64;
        // Exactly `page_size`: the device keeps every cached page, so a
        // roomier buffer truncated to size would grow the resident set.
        let mut page = Vec::with_capacity(page_size);
        let mut line = Vec::with_capacity(128);
        for i in 0..line_budget {
            self.write_line(&mut rng, lpn * line_budget + i, &mut line);
            if page.len() + line.len() > page_size {
                break;
            }
            page.extend_from_slice(&line);
        }
        page.resize(page_size, b'\n');
        page
    }
}

/// Appends a non-negative `v` in decimal.
fn push_dec(out: &mut Vec<u8>, v: i32) {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    let mut v = v.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends `v` in `0..100` as two decimal digits.
fn push_2d(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&[b'0' + (v / 10) as u8, b'0' + (v % 10) as u8]);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `format!`-based builder `generate` had before it wrote bytes in
    /// place, kept as the reference its pages must equal byte for byte.
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
