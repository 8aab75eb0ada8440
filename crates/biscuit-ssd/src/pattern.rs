//! The per-channel hardware pattern matcher IP (paper §IV-A, Fig. 7).
//!
//! The target SSD carries a key-based matcher on every flash channel: given
//! at most three keywords of up to 16 bytes each, data streamed off the
//! channel flows through the matcher at channel rate and only matching
//! chunks are surfaced to the device CPU. This module reproduces both the
//! *functional* behaviour (real substring search over real page bytes) and
//! the *capability limits* the paper calls out — e.g. the TPC-H planner must
//! reject `NOT LIKE` predicates because the IP only reports presence.

use std::fmt;

/// Limits of the matcher hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternLimits {
    /// Maximum number of keywords per configuration.
    pub max_keys: usize,
    /// Maximum keyword length in bytes.
    pub max_key_len: usize,
}

impl Default for PatternLimits {
    fn default() -> Self {
        // Paper: "Given at most three keywords, each of which is up to 16
        // bytes long" (§V-A).
        PatternLimits {
            max_keys: 3,
            max_key_len: 16,
        }
    }
}

/// Why a pattern set was rejected by the hardware constraints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternError {
    /// No keywords were supplied.
    Empty,
    /// More keywords than the IP supports.
    TooManyKeys {
        /// Keywords supplied.
        got: usize,
        /// Hardware limit.
        max: usize,
    },
    /// A keyword exceeds the IP's length limit.
    KeyTooLong {
        /// Offending keyword index.
        index: usize,
        /// Its length.
        len: usize,
        /// Hardware limit.
        max: usize,
    },
    /// A keyword was empty (would match everything, which the IP rejects).
    EmptyKey {
        /// Offending keyword index.
        index: usize,
    },
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternError::Empty => f.write_str("pattern set has no keywords"),
            PatternError::TooManyKeys { got, max } => {
                write!(f, "{got} keywords exceed the hardware limit of {max}")
            }
            PatternError::KeyTooLong { index, len, max } => {
                write!(f, "keyword {index} is {len} bytes, limit is {max}")
            }
            PatternError::EmptyKey { index } => write!(f, "keyword {index} is empty"),
        }
    }
}

impl std::error::Error for PatternError {}

/// A validated pattern-matcher configuration: up to `max_keys` keywords.
///
/// # Examples
///
/// ```
/// use biscuit_ssd::pattern::{PatternSet, PatternLimits};
///
/// let pat = PatternSet::new(
///     vec![b"1995-01-17".to_vec()],
///     PatternLimits::default(),
/// ).unwrap();
/// assert!(pat.matches(b"...|1995-01-17|3|..."));
/// assert!(!pat.matches(b"...|1996-01-17|3|..."));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternSet {
    keys: Vec<Vec<u8>>,
    limits: PatternLimits,
}

impl PatternSet {
    /// Validates keywords against the hardware limits.
    ///
    /// # Errors
    ///
    /// Returns a [`PatternError`] describing the first violated constraint.
    pub fn new(keys: Vec<Vec<u8>>, limits: PatternLimits) -> Result<Self, PatternError> {
        if keys.is_empty() {
            return Err(PatternError::Empty);
        }
        if keys.len() > limits.max_keys {
            return Err(PatternError::TooManyKeys {
                got: keys.len(),
                max: limits.max_keys,
            });
        }
        for (index, k) in keys.iter().enumerate() {
            if k.is_empty() {
                return Err(PatternError::EmptyKey { index });
            }
            if k.len() > limits.max_key_len {
                return Err(PatternError::KeyTooLong {
                    index,
                    len: k.len(),
                    max: limits.max_key_len,
                });
            }
        }
        Ok(PatternSet { keys, limits })
    }

    /// Convenience constructor from string keywords with default limits.
    ///
    /// # Errors
    ///
    /// Returns a [`PatternError`] if the keywords violate the limits.
    pub fn from_strs(keys: &[&str]) -> Result<Self, PatternError> {
        Self::new(
            keys.iter().map(|s| s.as_bytes().to_vec()).collect(),
            PatternLimits::default(),
        )
    }

    /// Time for the matcher to stream `bytes` off the channel at `rate`
    /// bytes/sec. The IP runs at line rate regardless of key count (§IV-A),
    /// so the scan stage is a pure function of page size and the channel's
    /// pattern-match rate.
    pub(crate) fn scan_time(&self, bytes: u64, rate: f64) -> biscuit_sim::time::SimDuration {
        biscuit_sim::time::SimDuration::for_bytes(bytes, rate)
    }

    /// True if any keyword occurs in `data` (the IP's page-granular verdict).
    pub fn matches(&self, data: &[u8]) -> bool {
        self.keys.iter().any(|k| !for_each_hit(data, k, |_| false))
    }

    /// Byte offsets of every occurrence of every keyword, ascending and
    /// deduplicated. The IP itself only reports presence per chunk; this is
    /// the device CPU's search of a page the IP flagged, which both scan
    /// SSDlets (grep and the DB filter) run on every hit page.
    pub fn find_all(&self, data: &[u8]) -> Vec<usize> {
        let mut hits = Vec::new();
        for k in &self.keys {
            for_each_hit(data, k, |i| {
                hits.push(i);
                true
            });
        }
        hits.sort_unstable();
        hits.dedup();
        hits
    }
}

/// Haystack positions examined per step of [`for_each_hit`]'s pair filter.
const BLOCK: usize = 32;

/// The substring kernel both sides of Table V run: the matcher model
/// verifies a page's hits with it, and the host `grep`
/// (`biscuit_host::search::BoyerMoore`) counts with it.
///
/// Calls `hit` with every offset at which `needle` occurs in `haystack`,
/// ascending and overlaps included, until `hit` returns `false`. Returns
/// `false` iff it was stopped that way. Any needle length works — the
/// matcher's key limit is [`PatternSet::new`]'s to enforce, not this
/// function's — and an empty needle, or one longer than `haystack`, has no
/// hits.
///
/// Virtual *timing* is charged elsewhere (the channel-rate shaper on the
/// device, the calibrated scan rate on the host), but every scanned page
/// really runs through here, and a byte-at-a-time walk made this the
/// simulator's hottest loop. So candidates are filtered a block at a time:
/// position `i` can start a hit only if `haystack[i]` is the needle's first
/// byte and `haystack[i + m - 1]` its last. Comparing `BLOCK` positions of
/// both lanes and OR-ing the results into one flag has fixed-size,
/// branch-free inner loops that LLVM turns into vector compares on every
/// baseline target. Only a flagged block builds the mask of its positions
/// that pass the filter, and only the set bits of that mask are verified.
///
/// # Examples
///
/// ```
/// use biscuit_ssd::pattern::for_each_hit;
///
/// let mut hits = Vec::new();
/// assert!(for_each_hit(b"abxabab", b"ab", |i| {
///     hits.push(i);
///     true
/// }));
/// assert_eq!(hits, [0, 3, 5]);
/// // Returning `false` stops the search at the first hit.
/// assert!(!for_each_hit(b"abxabab", b"ab", |_| false));
/// ```
pub fn for_each_hit(haystack: &[u8], needle: &[u8], mut hit: impl FnMut(usize) -> bool) -> bool {
    let m = needle.len();
    if m == 0 || m > haystack.len() {
        return true;
    }
    let (first, last) = (needle[0], needle[m - 1]);
    // One entry per candidate start: its first byte, and its last byte.
    let firsts = &haystack[..=haystack.len() - m];
    let lasts = &haystack[m - 1..];
    // Bit `j` set: position `j` of the block passes the pair filter.
    let pairs = |f: &[u8], l: &[u8]| {
        let mut mask = 0u32;
        for (j, (&x, &y)) in f.iter().zip(l).enumerate() {
            mask |= u32::from((x == first) & (y == last)) << j;
        }
        mask
    };
    let mut verify = |base: usize, mut mask: u32| {
        while mask != 0 {
            let i = base + mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if &haystack[i..i + m] == needle && !hit(i) {
                return false;
            }
        }
        true
    };
    let blocks = firsts.chunks_exact(BLOCK).zip(lasts.chunks_exact(BLOCK));
    for (b, (f, l)) in blocks.enumerate() {
        let mut flag = false;
        for (&x, &y) in f.iter().zip(l) {
            flag |= (x == first) & (y == last);
        }
        if flag && !verify(b * BLOCK, pairs(f, l)) {
            return false;
        }
    }
    let tail = firsts.len() / BLOCK * BLOCK;
    verify(tail, pairs(&firsts[tail..], &lasts[tail..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_up_to_three_keys() {
        assert!(PatternSet::from_strs(&["a"]).is_ok());
        assert!(PatternSet::from_strs(&["a", "b", "c"]).is_ok());
    }

    #[test]
    fn rejects_four_keys() {
        assert_eq!(
            PatternSet::from_strs(&["a", "b", "c", "d"]),
            Err(PatternError::TooManyKeys { got: 4, max: 3 })
        );
    }

    #[test]
    fn rejects_long_key() {
        let long = "x".repeat(17);
        assert_eq!(
            PatternSet::from_strs(&[&long]),
            Err(PatternError::KeyTooLong {
                index: 0,
                len: 17,
                max: 16
            })
        );
        let ok = "x".repeat(16);
        assert!(PatternSet::from_strs(&[&ok]).is_ok());
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(PatternSet::from_strs(&[]), Err(PatternError::Empty));
        assert_eq!(
            PatternSet::from_strs(&["a", ""]),
            Err(PatternError::EmptyKey { index: 1 })
        );
    }

    #[test]
    fn matches_any_keyword() {
        let p = PatternSet::from_strs(&["foo", "bar"]).unwrap();
        assert!(p.matches(b"xxbarxx"));
        assert!(p.matches(b"foo"));
        assert!(!p.matches(b"fobaz"));
        assert!(!p.matches(b""));
    }

    #[test]
    fn match_at_boundaries() {
        let p = PatternSet::from_strs(&["end"]).unwrap();
        assert!(p.matches(b"endxxxx"));
        assert!(p.matches(b"xxxxend"));
        assert!(!p.matches(b"en"));
    }

    #[test]
    fn find_all_reports_offsets() {
        let p = PatternSet::from_strs(&["ab"]).unwrap();
        assert_eq!(p.find_all(b"abxabab"), vec![0, 3, 5]);
    }

    #[test]
    fn overlapping_occurrences_found() {
        let p = PatternSet::from_strs(&["aa"]).unwrap();
        assert_eq!(p.find_all(b"aaaa"), vec![0, 1, 2]);
    }

    #[test]
    fn reference_equivalence_with_std() {
        let p = PatternSet::from_strs(&["needle"]).unwrap();
        let hay = "some text with a needle inside and neeedle decoys";
        assert_eq!(p.matches(hay.as_bytes()), hay.contains("needle"));
    }
}
