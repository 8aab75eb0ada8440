//! Host-side string search: the Boyer–Moore algorithm Linux `grep` uses
//! (paper §V-C, Table V's Conv baseline).
//!
//! The implementation is a complete Boyer–Moore with both the bad-character
//! and good-suffix rules, plus a naive reference scanner used by the
//! property tests to validate it.

/// A preprocessed Boyer–Moore pattern.
///
/// # Examples
///
/// ```
/// use biscuit_host::search::BoyerMoore;
///
/// let bm = BoyerMoore::new(b"GET /index");
/// let log = b"POST /api\nGET /index HTTP/1.1\n";
/// assert_eq!(bm.find(log), Some(10));
/// assert_eq!(bm.count(log), 1);
/// ```
#[derive(Debug, Clone)]
pub struct BoyerMoore {
    pattern: Vec<u8>,
    bad_char: [usize; 256],
    good_suffix: Vec<usize>,
}

impl BoyerMoore {
    /// Preprocesses `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if the pattern is empty.
    pub fn new(pattern: &[u8]) -> Self {
        assert!(!pattern.is_empty(), "Boyer-Moore pattern must be non-empty");
        let m = pattern.len();
        // Bad character rule: distance from the last occurrence of each
        // byte to the pattern end.
        let mut bad_char = [m; 256];
        for (i, &b) in pattern.iter().enumerate().take(m - 1) {
            bad_char[b as usize] = m - 1 - i;
        }
        // Good suffix rule (standard two-case preprocessing).
        let good_suffix = build_good_suffix(pattern);
        BoyerMoore {
            pattern: pattern.to_vec(),
            bad_char,
            good_suffix,
        }
    }

    /// Offset of the first occurrence in `text`, if any.
    pub fn find(&self, text: &[u8]) -> Option<usize> {
        self.find_from(text, 0)
    }

    /// Offset of the first occurrence at or after `from`.
    pub(crate) fn find_from(&self, text: &[u8], from: usize) -> Option<usize> {
        let m = self.pattern.len();
        let n = text.len();
        if m > n || from > n - m {
            return None;
        }
        let last = self.pattern[m - 1];
        // `end` is the text index under the pattern's last byte.
        let mut end = from + m - 1;
        while end < n {
            // Skip loop (Horspool, as in GNU grep): most windows end in a
            // byte that is not the pattern's last, and then the
            // bad-character distance of that one byte is a safe shift that
            // needs neither the right-to-left verify nor the shift maths.
            let c = text[end];
            if c != last {
                end += self.bad_char[c as usize];
                continue;
            }
            let s = end + 1 - m;
            let mut j = m - 1;
            while j > 0 && self.pattern[j - 1] == text[s + j - 1] {
                j -= 1;
            }
            if j == 0 {
                return Some(s);
            }
            let bc = self.bad_char[text[s + j - 1] as usize];
            let bc_shift = bc.saturating_sub(m - j).max(1);
            let gs_shift = self.good_suffix[j];
            end += bc_shift.max(gs_shift);
        }
        None
    }

    /// Number of (possibly overlapping) occurrences in `text`.
    pub fn count(&self, text: &[u8]) -> usize {
        let mut n = 0;
        let mut from = 0;
        while let Some(pos) = self.find_from(text, from) {
            n += 1;
            from = pos + 1;
            if from + self.pattern.len() > text.len() {
                break;
            }
        }
        n
    }
}

fn build_good_suffix(pattern: &[u8]) -> Vec<usize> {
    let m = pattern.len();
    let mut shift = vec![0usize; m + 1];
    let mut border = vec![0usize; m + 1];
    // Case 1: matching suffix occurs elsewhere in the pattern.
    let mut i = m;
    let mut j = m + 1;
    border[i] = j;
    while i > 0 {
        while j <= m && pattern[i - 1] != pattern[j - 1] {
            if shift[j] == 0 {
                shift[j] = j - i;
            }
            j = border[j];
        }
        i -= 1;
        j -= 1;
        border[i] = j;
    }
    // Case 2: only a prefix of the pattern matches a suffix of the match.
    let mut j = border[0];
    #[allow(clippy::needless_range_loop)] // i indexes shift and compares to j
    for i in 0..=m {
        if shift[i] == 0 {
            shift[i] = j;
        }
        if i == j {
            j = border[j];
        }
    }
    shift
}

/// Straightforward reference scanner (used to cross-check Boyer–Moore).
pub fn naive_find(text: &[u8], pattern: &[u8]) -> Option<usize> {
    if pattern.is_empty() || pattern.len() > text.len() {
        return None;
    }
    (0..=text.len() - pattern.len()).find(|&i| &text[i..i + pattern.len()] == pattern)
}

/// Reference count of (overlapping) occurrences.
pub fn naive_count(text: &[u8], pattern: &[u8]) -> usize {
    if pattern.is_empty() || pattern.len() > text.len() {
        return 0;
    }
    (0..=text.len() - pattern.len())
        .filter(|&i| &text[i..i + pattern.len()] == pattern)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_simple_occurrences() {
        let bm = BoyerMoore::new(b"needle");
        assert_eq!(bm.find(b"needle"), Some(0));
        assert_eq!(bm.find(b"a needle in a haystack"), Some(2));
        assert_eq!(bm.find(b"no match here"), None);
        assert_eq!(bm.find(b""), None);
    }

    #[test]
    fn finds_at_end() {
        let bm = BoyerMoore::new(b"end");
        assert_eq!(bm.find(b"at the very end"), Some(12));
    }

    #[test]
    fn counts_overlapping() {
        let bm = BoyerMoore::new(b"aa");
        assert_eq!(bm.count(b"aaaa"), 3);
        assert_eq!(naive_count(b"aaaa", b"aa"), 3);
    }

    #[test]
    fn repetitive_patterns() {
        let bm = BoyerMoore::new(b"abab");
        let text = b"abababab";
        assert_eq!(bm.count(text), naive_count(text, b"abab"));
        assert_eq!(bm.find(text), naive_find(text, b"abab"));
    }

    #[test]
    fn single_byte_pattern() {
        let bm = BoyerMoore::new(b"x");
        assert_eq!(bm.count(b"axbxcx"), 3);
    }

    #[test]
    fn pattern_longer_than_text() {
        let bm = BoyerMoore::new(b"longpattern");
        assert_eq!(bm.find(b"short"), None);
        assert_eq!(bm.count(b"short"), 0);
    }

    #[test]
    fn matches_std_contains_on_ascii() {
        let bm = BoyerMoore::new(b"1995-01-17");
        let hay = b"row|1995-01-16|1\nrow|1995-01-17|2\n";
        assert_eq!(
            bm.find(hay).is_some(),
            String::from_utf8_lossy(hay).contains("1995-01-17")
        );
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_pattern_panics() {
        let _ = BoyerMoore::new(b"");
    }
}
