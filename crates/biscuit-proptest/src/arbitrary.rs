//! [`any`]: the whole domain of a primitive type.

use std::fmt::Debug;
use std::marker::PhantomData;

use crate::strategy::Strategy;
use crate::test_runner::TestRunner;

/// Types [`any`] can sample.
pub trait Arbitrary: Debug + Sized {
    /// Draws one value from the type's whole domain.
    fn arbitrary(runner: &mut TestRunner) -> Self;
}

/// See [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(PhantomData<T>);

/// Every value of `T`, with the edges over-represented.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, runner: &mut TestRunner) -> T {
        T::arbitrary(runner)
    }
}

impl Arbitrary for bool {
    fn arbitrary(runner: &mut TestRunner) -> bool {
        runner.rng().bool(0.5)
    }
}

macro_rules! arbitrary_ints {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            /// `0`, `1`, `MIN` or `MAX` one draw in eight each, else
            /// uniform.
            fn arbitrary(runner: &mut TestRunner) -> $t {
                let rng = runner.rng();
                match rng.range(0..8u32) {
                    0 => 0,
                    1 => 1,
                    2 => <$t>::MIN,
                    3 => <$t>::MAX,
                    _ => rng.range(<$t>::MIN..=<$t>::MAX),
                }
            }
        }
    )*};
}
arbitrary_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
