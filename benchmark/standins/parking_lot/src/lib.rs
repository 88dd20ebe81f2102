//! Offline stand-in for `parking_lot`: [`Mutex`] and [`Condvar`] with
//! parking_lot's surface (no poisoning, `wait(&mut guard)`) over
//! `std::sync`.

#![forbid(unsafe_code)]

use std::sync::PoisonError;
use std::time::Duration;

/// A mutex whose `lock` never fails: a panic in another holder does not
/// poison it.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// The lock held; released on drop.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    // `None` only while a `Condvar` wait has the std guard.
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// A mutex holding `value`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    /// The value, consuming the mutex.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Block until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present outside a wait")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present outside a wait")
    }
}

/// Whether a timed wait ran out of time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True when the wait ended by timeout, not by a notification.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable for [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// A condition variable with no waiters.
    pub const fn new() -> Condvar {
        Condvar(std::sync::Condvar::new())
    }

    /// Release the lock, sleep until notified, re-take the lock.
    /// Spurious wake-ups are possible, as with the real crate.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard present outside a wait");
        guard.inner = Some(self.0.wait(inner).unwrap_or_else(PoisonError::into_inner));
    }

    /// [`Condvar::wait`] bounded by `timeout`.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.inner.take().expect("guard present outside a wait");
        let (inner, result) = self
            .0
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(inner);
        WaitTimeoutResult(result.timed_out())
    }

    /// Wake one waiter.
    pub fn notify_one(&self) -> bool {
        self.0.notify_one();
        true
    }

    /// Wake every waiter.
    pub fn notify_all(&self) -> usize {
        self.0.notify_all();
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_panicking_holder_does_not_poison() {
        let m = Arc::new(Mutex::new(1));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("holder dies");
        })
        .join();
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn condvar_hands_a_value_across_threads() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            *pair2.0.lock() = true;
            pair2.1.notify_all();
        });
        let mut ready = pair.0.lock();
        while !*ready {
            pair.1.wait(&mut ready);
        }
        drop(ready);
        t.join().unwrap();
        let mut g = pair.0.lock();
        assert!(pair
            .1
            .wait_for(&mut g, Duration::from_millis(1))
            .timed_out());
    }
}
