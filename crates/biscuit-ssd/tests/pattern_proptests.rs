//! Property tests: the pattern matcher agrees with a `windows()`-based
//! reference on arbitrary inputs, and on hits planted at every offset
//! around the scan's 32-byte block edges and at the very end of the data.

use proptest::prelude::*;

use biscuit_ssd::pattern::{PatternLimits, PatternSet};

/// Sorted, deduplicated offsets of every occurrence of every key.
fn reference_find_all(data: &[u8], keys: &[Vec<u8>]) -> Vec<usize> {
    let mut hits: Vec<usize> = keys
        .iter()
        .flat_map(|k| {
            data.windows(k.len())
                .enumerate()
                .filter(move |(_, w)| *w == &k[..])
                .map(|(i, _)| i)
        })
        .collect();
    hits.sort_unstable();
    hits.dedup();
    hits
}

fn assert_agrees(data: &[u8], keys: &[Vec<u8>]) -> Result<(), TestCaseError> {
    let set = PatternSet::new(keys.to_vec(), PatternLimits::default()).expect("keys within limits");
    let want = reference_find_all(data, keys);
    prop_assert_eq!(set.matches(data), !want.is_empty());
    prop_assert_eq!(set.find_all(data), want);
    Ok(())
}

fn keys_of(byte: impl Strategy<Value = u8> + Clone) -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(byte, 1..17), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn matcher_equals_reference_on_any_bytes(
        data in proptest::collection::vec(any::<u8>(), 0..200),
        keys in keys_of(any::<u8>()),
    ) {
        assert_agrees(&data, &keys)?;
    }

    /// A two-letter alphabet makes hits, overlaps and near misses common.
    #[test]
    fn matcher_equals_reference_on_binary_alphabet(
        data in proptest::collection::vec(0u8..2, 0..200),
        keys in keys_of(0u8..2),
    ) {
        assert_agrees(&data, &keys)?;
    }

    /// The key is planted in a haystack it otherwise cannot occur in, at an
    /// offset that walks across the first two block edges (31/32/33,
    /// 63/64/65), ending exactly at the end of the data (the scan's scalar
    /// tail) and with bytes to spare.
    #[test]
    fn planted_hit_found_at_every_block_offset(
        key in proptest::collection::vec(1u8..=255, 1..17),
        slack in 1usize..40,
    ) {
        let set = PatternSet::new(vec![key.clone()], PatternLimits::default()).unwrap();
        for offset in 24..=72 {
            for len in [offset + key.len(), offset + key.len() + slack] {
                let mut data = vec![0u8; len];
                data[offset..offset + key.len()].copy_from_slice(&key);
                prop_assert!(set.matches(&data));
                prop_assert_eq!(set.find_all(&data), vec![offset]);
            }
        }
    }
}

/// A 16 KiB page of `lineitem`-shaped rows, `|`-framed columns with three
/// `dddd-dd-dd` dates each, padded with `~` like a table page: the bytes a
/// date key starts and ends with occur in every column.
fn tpch_page(rows: &[(u32, u32, u32, u32)]) -> Vec<u8> {
    const PAGE: usize = 16 << 10;
    let mut page = Vec::with_capacity(PAGE);
    for &(key, y, m, d) in rows {
        let line = format!(
            "|{key}|{}|{}|{}.00|{}.{:02}|0.0{}|0.0{}|N|O|{y}-{m:02}-{d:02}|{y}-{:02}-{:02}|{}-{m:02}-{d:02}|DELIVER IN PERSON|TRUCK|ironic {key} deposits|\n",
            key % 2000,
            key % 7,
            key % 50,
            key % 90_000,
            key % 100,
            key % 10,
            key % 8,
            m % 12 + 1,
            (d + 3) % 28 + 1,
            y + 1,
        );
        if page.len() + line.len() > PAGE {
            break;
        }
        page.extend_from_slice(line.as_bytes());
    }
    page.resize(PAGE, b'~');
    page
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Two pages per case: one over a four-letter alphabet, and one of
    /// TPC-H rows searched for the planner's date-prefix keys and other
    /// keys made of structural bytes.
    #[test]
    fn matcher_equals_reference_on_a_page(
        data in proptest::collection::vec(0u8..4, 16 << 10),
        keys in keys_of(0u8..4),
        rows in proptest::collection::vec((0u32..1 << 20, 1992u32..1999, 1u32..=12, 1u32..=28), 160),
        tpch_keys in proptest::sample::select(vec![
            vec!["|1994-"],
            vec!["|1995-09"],
            vec!["|1995-09", "|1995-10", "|1995-11"],
            vec!["|1993-", "|1994-", "|1995-"],
            vec!["-01|", "|N|O|", "0|"],
            vec!["||", "|~", "~~"],
        ]),
    ) {
        assert_agrees(&data, &keys)?;
        let tpch_keys: Vec<Vec<u8>> = tpch_keys.iter().map(|k| k.as_bytes().to_vec()).collect();
        assert_agrees(&tpch_page(&rows), &tpch_keys)?;
    }
}
