//! Lightweight measurement helpers for throughput reporting.

use crate::sync::Mutex;

/// A monotonic counter (bytes moved, pages read, rows emitted, ...).
#[derive(Debug, Default)]
pub struct Counter {
    value: Mutex<u64>,
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        *self.value.lock() += n;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        *self.value.lock()
    }

    /// Resets to zero, returning the previous value.
    pub fn take(&self) -> u64 {
        std::mem::take(&mut *self.value.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_add_and_take() {
        let c = Counter::new();
        c.add(3);
        c.add(4);
        assert_eq!(c.get(), 7);
        assert_eq!(c.take(), 7);
        assert_eq!(c.get(), 0);
    }
}
