//! Locking used by the translation cache and runtime.
//!
//! Thin, poison-ignoring wrappers over [`std::sync`], keeping `dpvk-core`
//! free of external dependencies: `lock()`, `read()` and `write()` return
//! their guards directly.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

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
///
/// The monitor counts its parked waiters, and a notify with none parked
/// is a no-op instead of a wake syscall (std's condition variable does
/// not count them and always makes one). No wakeup is lost: a waiter
/// counts itself under the lock, after it has checked the state and
/// before [`Condvar::wait`](std::sync::Condvar::wait) releases the lock;
/// a notifier changes the state under the lock before it reads the
/// count. So a waiter that saw the old state is already counted when
/// the notifier looks, and one that comes later sees the new state.
pub(crate) struct Monitor<T> {
    state: std::sync::Mutex<T>,
    cond: std::sync::Condvar,
    /// Threads between counting themselves in [`Monitor::wait`] and
    /// re-taking the lock after they wake. Written only under the lock,
    /// so `Relaxed` suffices: a notifier reads it after taking the lock
    /// itself, and the waiter's unlock inside `Condvar::wait` (release)
    /// paired with that lock (acquire) orders the increment first.
    waiters: AtomicUsize,
}

impl<T> Monitor<T> {
    /// Create a monitor protecting `value`.
    pub fn new(value: T) -> Self {
        Monitor {
            state: std::sync::Mutex::new(value),
            cond: std::sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Acquire the lock.
    pub fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Block on the condition variable, releasing `guard` while parked.
    /// May wake spuriously: callers re-check their condition.
    pub fn wait<'a>(&self, guard: std::sync::MutexGuard<'a, T>) -> std::sync::MutexGuard<'a, T> {
        self.waiters.fetch_add(1, Relaxed);
        let guard = self.cond.wait(guard).unwrap_or_else(std::sync::PoisonError::into_inner);
        self.waiters.fetch_sub(1, Relaxed);
        guard
    }

    /// Park until `condition` returns false.
    pub fn wait_while<'a, F>(
        &self,
        mut guard: std::sync::MutexGuard<'a, T>,
        mut condition: F,
    ) -> std::sync::MutexGuard<'a, T>
    where
        F: FnMut(&mut T) -> bool,
    {
        while condition(&mut guard) {
            guard = self.wait(guard);
        }
        guard
    }

    /// Wake one parked waiter, if any.
    pub fn notify_one(&self) {
        if self.waiters.load(Relaxed) != 0 {
            self.cond.notify_one();
        }
    }

    /// Wake every parked waiter, if any.
    pub fn notify_all(&self) {
        if self.waiters.load(Relaxed) != 0 {
            self.cond.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering::Relaxed;
    use std::sync::Arc;

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

    /// Two threads hand a token back and forth through two monitors,
    /// each parking with `wait_while` and waking the other with
    /// `notify_one`: a notify skipped while its waiter was between
    /// checking the state and parking would hang this.
    #[test]
    fn counted_waiters_lose_no_wakeup_in_a_ping_pong() {
        const HANDOFFS: u32 = 20_000;
        let ping = Arc::new(Monitor::new(0u32));
        let pong = Arc::new(Monitor::new(0u32));
        let (ping2, pong2) = (Arc::clone(&ping), Arc::clone(&pong));
        let t = std::thread::spawn(move || {
            for i in 1..=HANDOFFS {
                drop(ping2.wait_while(ping2.lock(), |n| *n < i));
                *pong2.lock() = i;
                pong2.notify_one();
            }
        });
        for i in 1..=HANDOFFS {
            *ping.lock() = i;
            ping.notify_one();
            drop(pong.wait_while(pong.lock(), |n| *n < i));
        }
        t.join().unwrap();
        assert_eq!(ping.waiters.load(Relaxed), 0);
        assert_eq!(pong.waiters.load(Relaxed), 0);
    }

    /// One `notify_all` releases every parked waiter, and each of them
    /// uncounts itself.
    #[test]
    fn one_notify_all_releases_three_waiters() {
        let m = Arc::new(Monitor::new(false));
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || *m.wait_while(m.lock(), |open| !*open))
            })
            .collect();
        // Let all three park (not needed for correctness: one that has
        // not parked yet sees the open gate instead).
        while m.waiters.load(Relaxed) < 3 {
            std::thread::yield_now();
        }
        *m.lock() = true;
        m.notify_all();
        for w in waiters {
            assert!(w.join().unwrap());
        }
        assert_eq!(m.waiters.load(Relaxed), 0);
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
