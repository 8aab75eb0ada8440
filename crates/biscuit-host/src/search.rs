//! Host-side string search: the Conv baseline of Table V (paper §V-C),
//! where the paper runs Linux `grep`.
//!
//! The host counts with the same substring kernel the drive's matcher model
//! verifies hits with, [`biscuit_ssd::pattern::for_each_hit`], so both
//! sides of the comparison do the same byte work in wall time. The Conv
//! side's *virtual* cost does not depend on that choice: `conv_grep`
//! charges the bytes at the calibrated [`HostConfig::scan_rate`](crate::HostConfig::scan_rate).
//! A naive reference scanner is kept as the property tests' oracle.

use biscuit_ssd::pattern::for_each_hit;

/// A host `grep` pattern: finds and counts occurrences through the
/// matcher's pair-filter kernel, [`for_each_hit`].
///
/// The name is the algorithm Linux `grep` uses, which is what Table V's
/// Conv side models; its virtual cost is the calibrated host scan rate,
/// whatever algorithm counts the bytes here.
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
}

impl BoyerMoore {
    /// Keeps `pattern` for searching.
    ///
    /// # Panics
    ///
    /// Panics if the pattern is empty.
    pub fn new(pattern: &[u8]) -> Self {
        assert!(!pattern.is_empty(), "Boyer-Moore pattern must be non-empty");
        BoyerMoore {
            pattern: pattern.to_vec(),
        }
    }

    /// Offset of the first occurrence in `text`, if any.
    pub fn find(&self, text: &[u8]) -> Option<usize> {
        let mut first = None;
        for_each_hit(text, &self.pattern, |i| {
            first = Some(i);
            false
        });
        first
    }

    /// Number of (possibly overlapping) occurrences in `text`.
    pub fn count(&self, text: &[u8]) -> usize {
        let mut n = 0;
        for_each_hit(text, &self.pattern, |_| {
            n += 1;
            true
        });
        n
    }
}

/// Straightforward reference scanner (the property tests' oracle).
#[cfg(test)]
pub(crate) fn naive_find(text: &[u8], pattern: &[u8]) -> Option<usize> {
    if pattern.is_empty() || pattern.len() > text.len() {
        return None;
    }
    (0..=text.len() - pattern.len()).find(|&i| &text[i..i + pattern.len()] == pattern)
}

/// Reference count of (overlapping) occurrences.
#[cfg(test)]
pub(crate) fn naive_count(text: &[u8], pattern: &[u8]) -> usize {
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
