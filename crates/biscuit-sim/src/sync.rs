//! The workspace's lock: a [`Mutex`] and `Condvar` over `std::sync` that
//! do not poison.
//!
//! A fiber body that panics while holding a lock must not turn every later
//! `lock()` in the teardown path into a second panic, so a poisoned guard is
//! recovered instead of unwrapped: a panic while a guard is held leaves the
//! data reachable. `lock()` therefore returns the guard itself, not a
//! `Result`.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};

/// A mutual-exclusion lock whose `lock` cannot fail.
#[derive(Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates an unlocked mutex holding `value`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(sync::Mutex::new(value))
    }

    /// Consumes the mutex and returns the value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// Holds the lock until dropped.
///
/// The std guard sits in an `Option` so `Condvar::wait` can move it out
/// and back through a `&mut` borrow; it is `Some` whenever user code runs.
pub struct MutexGuard<'a, T: ?Sized>(Option<sync::MutexGuard<'a, T>>);

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0
            .as_ref()
            .expect("guard present outside Condvar::wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0
            .as_mut()
            .expect("guard present outside Condvar::wait")
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// A condition variable for [`Mutex`].
#[derive(Default)]
pub(crate) struct Condvar(sync::Condvar);

impl Condvar {
    /// Creates a condition variable with no waiters.
    pub(crate) const fn new() -> Condvar {
        Condvar(sync::Condvar::new())
    }

    /// Releases the lock, blocks until notified, and re-acquires it.
    /// Wake-ups can be spurious: callers re-check their condition.
    pub(crate) fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let held = guard.0.take().expect("guard present outside Condvar::wait");
        guard.0 = Some(self.0.wait(held).unwrap_or_else(PoisonError::into_inner));
    }

    /// Wakes one waiter.
    pub(crate) fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes every waiter.
    pub(crate) fn notify_all(&self) {
        self.0.notify_all();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_panic_under_the_lock_leaves_the_data_reachable() {
        let m = Arc::new(Mutex::new(1));
        let m2 = Arc::clone(&m);
        let joined = std::thread::spawn(move || {
            let mut g = m2.lock();
            *g = 2;
            panic!("poison the std mutex");
        })
        .join();
        assert!(joined.is_err());
        assert_eq!(*m.lock(), 2);
        let m = Arc::try_unwrap(m).expect("sole owner");
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn wait_hands_the_guard_back_after_a_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let waker = std::thread::spawn(move || {
            *pair2.0.lock() = true;
            pair2.1.notify_all();
        });
        let mut ready = pair.0.lock();
        while !*ready {
            pair.1.wait(&mut ready);
        }
        assert!(*ready);
        drop(ready);
        waker.join().expect("waker thread");
    }
}
