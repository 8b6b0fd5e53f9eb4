//! Locking used by the translation cache and runtime.
//!
//! Thin, poison-ignoring wrappers over [`std::sync`], keeping `dpvk-core`
//! free of external dependencies: `lock()`, `read()` and `write()` return
//! their guards directly.

use std::fmt;

/// Guard returned by [`Mutex::lock`]; unlocks on drop.
pub struct MutexGuard<'a, T: ?Sized>(std::sync::MutexGuard<'a, T>);

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// Mutex whose `lock()` returns the guard directly: a panic while the
/// lock is held does not poison it (the interpreter's caches hold no
/// invariants that a panicking reader could corrupt).
#[derive(Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Create a mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(self.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// Guard returned by [`RwLock::read`]; releases on drop.
pub struct RwLockReadGuard<'a, T: ?Sized>(std::sync::RwLockReadGuard<'a, T>);

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// Guard returned by [`RwLock::write`]; releases on drop.
pub struct RwLockWriteGuard<'a, T: ?Sized>(std::sync::RwLockWriteGuard<'a, T>);

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// Reader-writer lock whose `read()`/`write()` return guards directly
/// and ignore poisoning, like [`Mutex`].
#[derive(Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Create a lock protecting `value`.
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard(self.0.read().unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// Acquire exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard(self.0.write().unwrap_or_else(std::sync::PoisonError::into_inner))
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// A monitor: a mutex paired with a condition variable, with the same
/// poison-transparent convention as [`Mutex`]. The persistent worker
/// pool, launch jobs, streams and the device's in-flight gauge all need
/// blocking waits, which the wrappers above do not expose.
pub(crate) struct Monitor<T> {
    state: std::sync::Mutex<T>,
    cond: std::sync::Condvar,
}

impl<T> Monitor<T> {
    /// Create a monitor protecting `value`.
    pub fn new(value: T) -> Self {
        Monitor { state: std::sync::Mutex::new(value), cond: std::sync::Condvar::new() }
    }

    /// Acquire the lock.
    pub fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Block on the condition variable, releasing `guard` while parked.
    pub fn wait<'a>(&self, guard: std::sync::MutexGuard<'a, T>) -> std::sync::MutexGuard<'a, T> {
        self.cond.wait(guard).unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Park until `condition` returns false.
    pub fn wait_while<'a, F>(
        &self,
        guard: std::sync::MutexGuard<'a, T>,
        condition: F,
    ) -> std::sync::MutexGuard<'a, T>
    where
        F: FnMut(&mut T) -> bool,
    {
        self.cond.wait_while(guard, condition).unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Wake one parked waiter.
    pub fn notify_one(&self) {
        self.cond.notify_one();
    }

    /// Wake every parked waiter.
    pub fn notify_all(&self) {
        self.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::{Monitor, Mutex, RwLock};

    #[test]
    fn lock_guards_mutation() {
        let m = Mutex::new(Vec::new());
        m.lock().push(1);
        m.lock().push(2);
        assert_eq!(*m.lock(), vec![1, 2]);
    }

    #[test]
    fn monitor_wakes_waiter() {
        let m = std::sync::Arc::new(Monitor::new(false));
        let m2 = std::sync::Arc::clone(&m);
        let t = std::thread::spawn(move || {
            let guard = m2.lock();
            let guard = m2.wait_while(guard, |done| !*done);
            *guard
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        *m.lock() = true;
        m.notify_all();
        assert!(t.join().unwrap());
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(1);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!((*a, *b), (1, 1));
        }
        *l.write() += 1;
        assert_eq!(*l.read(), 2);
    }
}
