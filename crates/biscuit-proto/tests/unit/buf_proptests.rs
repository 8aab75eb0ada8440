//! Property-based tests for [`biscuit_proto::Buf`] against a `Vec<u8>`
//! reference model: slicing, nested slicing, concatenation, and equality all
//! behave exactly like the plain byte vector they share storage with.

use crate::Buf;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A slice of a `Buf` views exactly the bytes `Vec::get(range)` would.
    #[test]
    fn slice_matches_vec(
        data in proptest::collection::vec(any::<u8>(), 0..256),
        a in 0usize..300,
        b in 0usize..300,
    ) {
        let buf = Buf::from_vec(data.clone());
        let (start, end) = clamp_range(data.len(), a, b);
        let sliced = buf.slice(start..end);
        prop_assert_eq!(sliced.as_slice(), &data[start..end]);
        prop_assert_eq!(sliced.len(), end - start);
    }

    /// Slicing a slice composes: `buf[s1][s2]` views `vec[s1][s2]`.
    #[test]
    fn nested_slices_compose(
        data in proptest::collection::vec(any::<u8>(), 1..256),
        a in 0usize..300,
        b in 0usize..300,
        c in 0usize..300,
        d in 0usize..300,
    ) {
        let buf = Buf::from_vec(data.clone());
        let (s1, e1) = clamp_range(data.len(), a, b);
        let outer = buf.slice(s1..e1);
        let (s2, e2) = clamp_range(outer.len(), c, d);
        let inner = outer.slice(s2..e2);
        prop_assert_eq!(inner.as_slice(), &data[s1..e1][s2..e2]);
        // Nested slices share the root allocation — no bytes were copied.
        prop_assert!(inner.is_empty() || inner.ref_count() >= 2);
    }

    /// `Buf::concat` over arbitrary parts equals vector concatenation.
    #[test]
    fn concat_matches_vec(
        parts in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64),
            0..8,
        ),
    ) {
        let bufs: Vec<Buf> = parts.iter().cloned().map(Buf::from_vec).collect();
        let joined = Buf::concat(&bufs);
        let expected: Vec<u8> = parts.concat();
        prop_assert_eq!(joined.as_slice(), expected.as_slice());
    }

    /// Equality is content equality, independent of how the bytes are held
    /// (owned whole, sliced out of a larger allocation, or re-copied).
    #[test]
    fn equality_is_content_equality(
        prefix in proptest::collection::vec(any::<u8>(), 0..32),
        data in proptest::collection::vec(any::<u8>(), 0..64),
        suffix in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let whole = Buf::from_vec(data.clone());
        let mut framed: Vec<u8> = prefix.clone();
        framed.extend_from_slice(&data);
        framed.extend_from_slice(&suffix);
        let sliced = Buf::from_vec(framed).slice(prefix.len()..prefix.len() + data.len());
        let copied = Buf::copy_from_slice(&data);
        prop_assert_eq!(&whole, &sliced);
        prop_assert_eq!(&sliced, &copied);
        prop_assert_eq!(&whole, &data);
    }
}

/// Maps two arbitrary integers onto a valid `start..end` range within `len`.
fn clamp_range(len: usize, a: usize, b: usize) -> (usize, usize) {
    if len == 0 {
        return (0, 0);
    }
    let x = a % (len + 1);
    let y = b % (len + 1);
    (x.min(y), x.max(y))
}
