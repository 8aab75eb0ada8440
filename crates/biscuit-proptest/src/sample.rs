//! Picking from a fixed list.

use std::fmt::Debug;

use crate::strategy::Strategy;
use crate::test_runner::TestRunner;

/// See [`select`].
#[derive(Debug, Clone)]
pub struct Select<T>(Vec<T>);

/// One of `options`, uniformly.
///
/// # Panics
///
/// Panics if `options` is empty.
pub fn select<T: Clone + Debug>(options: Vec<T>) -> Select<T> {
    assert!(!options.is_empty(), "select needs at least one option");
    Select(options)
}

impl<T: Clone + Debug> Strategy for Select<T> {
    type Value = T;
    fn sample(&self, runner: &mut TestRunner) -> T {
        runner
            .rng()
            .choose(&self.0)
            .expect("non-empty by construction")
            .clone()
    }
}
