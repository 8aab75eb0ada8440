//! [`Strategy`]: a recipe for sampling values, and its combinators.

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

use crate::test_runner::TestRunner;

/// A recipe for sampling values of one type.
pub trait Strategy {
    /// What this strategy samples.
    type Value: Debug;

    /// Draws one value.
    fn sample(&self, runner: &mut TestRunner) -> Self::Value;

    /// Samples from `self`, then applies `f`.
    fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { source: self, f }
    }

    /// Erases the strategy's type (and makes it cheaply cloneable).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }

    /// A recursive structure with `self` at the leaves: `recurse` builds
    /// one more level from a strategy for everything below it, and is
    /// applied `depth` times. At every level a sample is a leaf or a
    /// deeper node with equal odds, so expected sizes stay small. The two
    /// size hints of the published signature are accepted and unused.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let leaf = self.boxed();
        let mut tree = leaf.clone();
        for _ in 0..depth {
            tree = Union::new(vec![(1, leaf.clone()), (1, recurse(tree).boxed())]).boxed();
        }
        tree
    }
}

/// See [`Strategy::prop_map`].
#[derive(Clone)]
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, runner: &mut TestRunner) -> O {
        (self.f)(self.source.sample(runner))
    }
}

/// See [`Strategy::boxed`].
pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T: Debug> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, runner: &mut TestRunner) -> T {
        self.0.sample(runner)
    }
}

/// Always the same value.
#[derive(Clone, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _runner: &mut TestRunner) -> T {
        self.0.clone()
    }
}

/// One of several strategies, picked by weight; built by
/// [`prop_oneof!`](crate::prop_oneof).
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u32,
}

impl<T> Union<T> {
    /// # Panics
    ///
    /// Panics if the weights sum to zero.
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        let total = arms.iter().map(|(w, _)| w).sum();
        assert!(total > 0, "prop_oneof! needs an arm with a positive weight");
        Union { arms, total }
    }
}

impl<T: Debug> Strategy for Union<T> {
    type Value = T;
    fn sample(&self, runner: &mut TestRunner) -> T {
        let mut pick = runner.rng().range(0..self.total);
        for (weight, arm) in &self.arms {
            if pick < *weight {
                return arm.sample(runner);
            }
            pick -= weight;
        }
        unreachable!("pick is below the sum of the weights")
    }
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, runner: &mut TestRunner) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                (self.start..=self.end - 1).sample(runner)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            /// An endpoint one draw in eight each, else uniform.
            fn sample(&self, runner: &mut TestRunner) -> $t {
                let rng = runner.rng();
                match rng.range(0..8u32) {
                    0 => *self.start(),
                    1 => *self.end(),
                    _ => rng.range(self.clone()),
                }
            }
        }
    )*};
}
int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, runner: &mut TestRunner) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + (self.end - self.start) * runner.rng().f64()
    }
}

macro_rules! tuples {
    ($(($($s:ident $i:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, runner: &mut TestRunner) -> Self::Value {
                ($(self.$i.sample(runner),)+)
            }
        }
    )*};
}
tuples! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6)
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7)
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7, I 8)
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7, I 8, J 9)
}
