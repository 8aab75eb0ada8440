//! The workspace's one pseudo-random generator.
//!
//! Every generated TPC-H row, web-log page, graph edge and jitter draw — and
//! so every data-dependent virtual-time number — is a function of these
//! streams, which makes them part of the determinism contract: the
//! algorithm is pinned here rather than borrowed from a crate whose
//! generators are documented as not value-stable across versions.
//! [`splitmix64`] is Steele, Lea & Flood's SplitMix64 step; [`Rng`] is
//! Blackman & Vigna's xoshiro256++ seeded from it. `tests/generator_golden.rs`
//! at the workspace root pins what the generators built on top produce.

use std::ops::{Bound, RangeBounds};

/// SplitMix64's increment (2^64 / φ).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output for state `x`: advance by the golden-ratio
/// increment, then mix. Iterating `x += 0x9E37_79B9_7F4A_7C15` yields the
/// SplitMix64 stream; a single call is a high-quality 64-bit hash.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seeds the four state words with consecutive SplitMix64 outputs.
    pub fn seed_from_u64(mut seed: u64) -> Rng {
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = splitmix64(seed);
            seed = seed.wrapping_add(GAMMA);
        }
        Rng { s }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// A uniform draw in `[0, 1)` from the top 53 bits.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// True with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is outside [0, 1]");
        self.f64() < p
    }

    /// A uniform draw from an integer range, `lo..hi` or `lo..=hi`, of any
    /// primitive integer type up to 64 bits. One `next_u64` per draw,
    /// reduced by widening multiply (so the low values of a span that does
    /// not divide 2^64 are favoured by at most 2^-64 per value).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or has an open end.
    pub fn range<T, R>(&mut self, range: R) -> T
    where
        T: Copy + TryFrom<i128> + TryInto<i128>,
        R: RangeBounds<T>,
    {
        let wide = |v: T| -> i128 {
            v.try_into()
                .unwrap_or_else(|_| unreachable!("every integer up to 64 bits fits an i128"))
        };
        let lo = match range.start_bound() {
            Bound::Included(&v) => wide(v),
            Bound::Excluded(&v) => wide(v) + 1,
            Bound::Unbounded => panic!("cannot sample a range with an open start"),
        };
        let hi = match range.end_bound() {
            Bound::Included(&v) => wide(v),
            Bound::Excluded(&v) => wide(v) - 1,
            Bound::Unbounded => panic!("cannot sample a range with an open end"),
        };
        assert!(lo <= hi, "cannot sample empty range");
        // `hi - lo` is at most 2^64 - 1; a span of 2^64 wraps to 0, which
        // `below` reads as "every u64".
        let span = ((hi - lo) as u64).wrapping_add(1);
        T::try_from(lo + self.below(span) as i128)
            .unwrap_or_else(|_| unreachable!("a draw within the range fits the range's type"))
    }

    /// A uniformly chosen element, or `None` for an empty slice (which
    /// consumes no draw).
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            items.get(self.range(0..items.len()))
        }
    }

    /// Uniform in `[0, span)` by widening multiply; `span == 0` means 2^64.
    fn below(&mut self, span: u64) -> u64 {
        if span == 0 {
            self.next_u64()
        } else {
            ((self.next_u64() as u128 * span as u128) >> 64) as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first outputs of Vigna's `splitmix64.c` from states 0 and
    /// 1234567.
    #[test]
    fn splitmix64_known_answers() {
        let stream = |mut x: u64, n: usize| -> Vec<u64> {
            (0..n)
                .map(|_| {
                    let out = splitmix64(x);
                    x = x.wrapping_add(GAMMA);
                    out
                })
                .collect()
        };
        assert_eq!(
            stream(0, 3),
            [
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F
            ]
        );
        assert_eq!(
            stream(1_234_567, 5),
            [
                6_457_827_717_110_365_317,
                3_203_168_211_198_807_973,
                9_817_491_932_198_370_423,
                4_593_380_528_125_082_431,
                16_408_922_859_458_223_821
            ]
        );
    }

    /// The reference vector of `xoshiro256plusplus.c` from state
    /// `[1, 2, 3, 4]`.
    #[test]
    fn xoshiro256plusplus_known_answers() {
        let mut rng = Rng { s: [1, 2, 3, 4] };
        let got: Vec<u64> = (0..10).map(|_| rng.next_u64()).collect();
        assert_eq!(
            got,
            [
                41_943_041,
                58_720_359,
                3_588_806_011_781_223,
                3_591_011_842_654_386,
                9_228_616_714_210_784_205,
                9_973_669_472_204_895_162,
                14_011_001_112_246_962_877,
                12_406_186_145_184_390_807,
                15_849_039_046_786_891_736,
                10_450_023_813_501_588_000
            ]
        );
    }

    #[test]
    fn seeding_is_four_consecutive_splitmix64_outputs() {
        let rng = Rng::seed_from_u64(0);
        assert_eq!(
            rng.s[..3],
            [
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F
            ]
        );
    }

    #[test]
    fn range_never_leaves_its_bounds() {
        let mut rng = Rng::seed_from_u64(7);
        let (mut saw_neg, mut saw_pos) = (false, false);
        for _ in 0..10_000 {
            let v: i64 = rng.range(i64::MIN..=i64::MAX);
            saw_neg |= v < 0;
            saw_pos |= v > 0;
            assert_eq!(rng.range(0..1u8), 0);
            assert_eq!(rng.range(5..=5i32), 5);
            assert!(rng.range(0..u64::MAX) < u64::MAX);
            let _: u64 = rng.range(0..=u64::MAX);
            assert!((-3..4).contains(&rng.range(-3i8..4)));
            assert!((1..=6).contains(&rng.range(1usize..=6)));
            assert!((0.0..1.0).contains(&rng.f64()));
        }
        assert!(saw_neg && saw_pos);
    }

    #[test]
    fn both_ends_of_a_small_range_are_reached() {
        let mut rng = Rng::seed_from_u64(1);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[rng.range(0..4usize)] = true;
            seen[rng.range(0..=3usize)] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    #[should_panic(expected = "cannot sample empty range")]
    fn empty_half_open_range_panics() {
        Rng::seed_from_u64(0).range(3..3u32);
    }

    #[test]
    #[should_panic(expected = "cannot sample empty range")]
    #[allow(clippy::reversed_empty_ranges)]
    fn empty_inclusive_range_panics() {
        Rng::seed_from_u64(0).range(4..=3i64);
    }

    #[test]
    fn choose_and_bool() {
        let mut rng = Rng::seed_from_u64(3);
        assert_eq!(rng.choose::<u8>(&[]), None);
        assert_eq!(rng.choose(&[9]), Some(&9));
        assert!(!rng.bool(0.0));
        assert!(rng.bool(1.0));
        let heads = (0..1000).filter(|_| rng.bool(0.5)).count();
        assert!((400..600).contains(&heads), "{heads}");
    }
}
