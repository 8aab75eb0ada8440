//! Collection strategies.

use std::ops::Range;

use crate::strategy::Strategy;
use crate::test_runner::TestRunner;

/// The inclusive length bounds of a sampled collection.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl From<usize> for SizeRange {
    /// Exactly `len` elements.
    fn from(len: usize) -> Self {
        SizeRange { lo: len, hi: len }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

/// See [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

/// A `Vec` of `element` samples whose length lies in `size` (a `usize` or
/// `lo..hi`); early cases stay near the low end.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn sample(&self, runner: &mut TestRunner) -> Vec<S::Value> {
        let len = runner.len(self.size.lo, self.size.hi);
        (0..len).map(|_| self.element.sample(runner)).collect()
    }
}
