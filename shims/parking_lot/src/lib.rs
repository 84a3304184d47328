//! Offline stand-in for the `parking_lot` crate, implemented over
//! `std::sync`.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the small slice of `parking_lot` it actually uses: a [`Mutex`]
//! whose `lock()` returns the guard directly (no poisoning), and a
//! [`Condvar`] whose `wait` borrows the guard mutably instead of consuming
//! it. Semantics match `parking_lot` for that subset; performance
//! characteristics are those of `std::sync`.
//!
//! One of those characteristics matters to callers: upstream
//! `parking_lot` requeues a notified waiter onto the mutex when the
//! notifier still holds it; this [`Condvar`] — `std::sync::Condvar` —
//! does **not**. Notify under the lock and the woken thread is scheduled,
//! blocks on the mutex at once and is switched out again: two context
//! switches where one would do. Release the guard first, then notify
//! (`cargo xtask analyze`'s `notify-under-lock` rule enforces this under
//! `crates/`).
//!
//! The workspace `clippy.toml` bans `std::sync`'s locks outside `simnet`
//! and points callers here, so this crate, the one wrapper, allows them.

#![warn(missing_docs)]
#![allow(
    clippy::disallowed_types,
    reason = "the shim is the wrapper over std::sync that the ban points callers to"
)]

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A mutual-exclusion primitive. Unlike `std::sync::Mutex`, `lock()`
/// returns the guard directly and a panic while holding the lock does not
/// poison it.
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Create a mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.0.into_inner() {
            Ok(v) => v,
            Err(poison) => poison.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.0.lock() {
            Ok(g) => MutexGuard(Some(g)),
            Err(poison) => MutexGuard(Some(poison.into_inner())),
        }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(Some(g))),
            Err(std::sync::TryLockError::Poisoned(poison)) => {
                Some(MutexGuard(Some(poison.into_inner())))
            }
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        match self.0.get_mut() {
            Ok(v) => v,
            Err(poison) => poison.into_inner(),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug + ?Sized> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// RAII guard of a [`Mutex`]. The `Option` inside is only ever `None`
/// transiently while a [`Condvar::wait`] hands the underlying std guard to
/// the OS primitive.
pub struct MutexGuard<'a, T: ?Sized>(Option<std::sync::MutexGuard<'a, T>>);

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

/// A condition variable whose `wait` takes the guard by `&mut`, matching
/// `parking_lot`'s API. Unlike upstream it does not requeue waiters onto
/// the mutex: call `notify_*` only after the guard is dropped (see the
/// crate docs).
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// Create a condition variable.
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    /// Atomically release the guard's lock and wait for a notification;
    /// the lock is re-acquired before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard not already waiting");
        let inner = match self.0.wait(inner) {
            Ok(g) => g,
            Err(poison) => poison.into_inner(),
        };
        guard.0 = Some(inner);
    }

    /// Wake one waiting thread.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake all waiting threads.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_returns_guard_directly() {
        let m = Mutex::new(5);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
    }

    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "test code: a notify needs a second thread"
    )]
    fn condvar_wait_with_borrowed_guard() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut started = m.lock();
            *started = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut started = m.lock();
        while !*started {
            cv.wait(&mut started);
        }
        drop(started);
        t.join().expect("helper thread");
    }

    #[test]
    fn try_lock_contends() {
        let m = Mutex::new(1);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }
}
