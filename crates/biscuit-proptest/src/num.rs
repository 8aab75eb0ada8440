//! Numeric strategies beyond plain ranges.

/// Classes of `f64`, combinable with `|`.
pub mod f64 {
    use std::ops::BitOr;

    use crate::strategy::Strategy;
    use crate::test_runner::TestRunner;

    /// A set of floating-point classes to sample from.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Any(u8);

    /// Normal numbers of either sign: every exponent and mantissa.
    pub const NORMAL: Any = Any(1);
    /// `0.0` and `-0.0`.
    pub const ZERO: Any = Any(2);

    impl BitOr for Any {
        type Output = Any;
        fn bitor(self, other: Any) -> Any {
            Any(self.0 | other.0)
        }
    }

    impl Strategy for Any {
        type Value = f64;
        /// With both classes set, a zero one draw in eight.
        fn sample(&self, runner: &mut TestRunner) -> f64 {
            let normal = self.0 & NORMAL.0 != 0;
            let zero = self.0 & ZERO.0 != 0;
            let rng = runner.rng();
            let sign = rng.next_u64() & (1 << 63);
            if normal && !(zero && rng.range(0..8u32) == 0) {
                let exponent = rng.range(1..=2046u64);
                let mantissa = rng.next_u64() >> 12;
                f64::from_bits(sign | exponent << 52 | mantissa)
            } else {
                f64::from_bits(sign)
            }
        }
    }
}
