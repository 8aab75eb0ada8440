//! `Option` strategies.

use crate::strategy::Strategy;
use crate::test_runner::TestRunner;

/// See [`of`].
#[derive(Debug, Clone)]
pub struct OptionStrategy<S>(S);

/// `None` or `Some` of an `inner` sample, with equal odds.
pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
    OptionStrategy(inner)
}

impl<S: Strategy> Strategy for OptionStrategy<S> {
    type Value = Option<S::Value>;
    fn sample(&self, runner: &mut TestRunner) -> Option<S::Value> {
        runner.rng().bool(0.5).then(|| self.0.sample(runner))
    }
}
