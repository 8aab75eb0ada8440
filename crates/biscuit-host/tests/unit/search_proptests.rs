//! Property tests: the host grep (`BoyerMoore`, which counts through the
//! matcher's pair-filter kernel) agrees with the naive reference scanner on
//! arbitrary inputs, including needles past the matcher's 16-byte key limit
//! and hits that straddle the kernel's 32-position blocks.

use proptest::prelude::*;

use crate::search::{naive_count, naive_find, BoyerMoore};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn bm_find_matches_naive(
        text in proptest::collection::vec(any::<u8>(), 0..2000),
        pattern in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let bm = BoyerMoore::new(&pattern);
        prop_assert_eq!(bm.find(&text), naive_find(&text, &pattern));
    }

    #[test]
    fn bm_count_matches_naive(
        text in proptest::collection::vec(any::<u8>(), 0..2000),
        pattern in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        let bm = BoyerMoore::new(&pattern);
        prop_assert_eq!(bm.count(&text), naive_count(&text, &pattern));
    }

    /// Low-entropy alphabets give many pair-filter candidates that fail to
    /// verify.
    #[test]
    fn bm_on_binary_alphabet(
        text in proptest::collection::vec(0u8..2, 0..2000),
        pattern in proptest::collection::vec(0u8..2, 1..10),
    ) {
        let bm = BoyerMoore::new(&pattern);
        prop_assert_eq!(bm.find(&text), naive_find(&text, &pattern));
        prop_assert_eq!(bm.count(&text), naive_count(&text, &pattern));
    }

    /// A planted occurrence is always found.
    #[test]
    fn planted_pattern_found(
        prefix in proptest::collection::vec(any::<u8>(), 0..500),
        pattern in proptest::collection::vec(any::<u8>(), 1..16),
        suffix in proptest::collection::vec(any::<u8>(), 0..500),
    ) {
        let mut text = prefix.clone();
        text.extend_from_slice(&pattern);
        text.extend_from_slice(&suffix);
        let bm = BoyerMoore::new(&pattern);
        let hit = bm.find(&text).expect("planted pattern must be found");
        prop_assert!(hit <= prefix.len());
        prop_assert_eq!(&text[hit..hit + pattern.len()], &pattern[..]);
    }

    /// Needles past the matcher's key limit, some longer than one block,
    /// planted at arbitrary offsets of random text.
    #[test]
    fn long_needles_match_naive(
        mut text in proptest::collection::vec(any::<u8>(), 0..2000),
        pattern in proptest::collection::vec(any::<u8>(), 17..65),
        at in proptest::collection::vec(0usize..2000, 0..4),
    ) {
        plant(&mut text, &pattern, &at);
        let bm = BoyerMoore::new(&pattern);
        prop_assert_eq!(bm.find(&text), naive_find(&text, &pattern));
        prop_assert_eq!(bm.count(&text), naive_count(&text, &pattern));
    }

    /// Hits that start on a 32-position block edge or up to a needle's
    /// length before it, so they straddle the edge, and one flush against
    /// the end of the text (the kernel's tail).
    #[test]
    fn hits_straddle_block_edges_and_end_the_text(
        mut text in proptest::collection::vec(any::<u8>(), 300..400),
        pattern in proptest::collection::vec(any::<u8>(), 17..65),
        edges in proptest::collection::vec((1usize..9, 0usize..64), 1..4),
    ) {
        let m = pattern.len();
        let mut at: Vec<usize> = edges
            .iter()
            .map(|&(k, back)| (32 * k).saturating_sub(back % m))
            .collect();
        at.push(text.len() - m);
        plant(&mut text, &pattern, &at);
        let bm = BoyerMoore::new(&pattern);
        prop_assert_eq!(bm.find(&text), naive_find(&text, &pattern));
        prop_assert_eq!(bm.count(&text), naive_count(&text, &pattern));
        prop_assert!(bm.count(&text) >= 1, "the end plant was missed");
    }

    /// A two-letter alphabet and periodic text: long needles with dense,
    /// overlapping hits, broken here and there by a flipped byte.
    #[test]
    fn long_needles_on_two_letters(
        period in proptest::collection::vec(0u8..2, 1..5),
        m in 17usize..=64,
        len in 0usize..2000,
        flips in proptest::collection::vec(0usize..2000, 0..6),
    ) {
        let pattern: Vec<u8> = period.iter().copied().cycle().take(m).collect();
        let mut text: Vec<u8> = period.iter().copied().cycle().take(len).collect();
        for &f in &flips {
            if f < len {
                text[f] ^= 1;
            }
        }
        let bm = BoyerMoore::new(&pattern);
        prop_assert_eq!(bm.find(&text), naive_find(&text, &pattern));
        prop_assert_eq!(bm.count(&text), naive_count(&text, &pattern));
    }
}

/// Copies `pattern` into `text` at each offset of `at` where it fits.
fn plant(text: &mut [u8], pattern: &[u8], at: &[usize]) {
    for &p in at {
        if let Some(dst) = text.get_mut(p..p + pattern.len()) {
            dst.copy_from_slice(pattern);
        }
    }
}
