//! Model-aware `Mutex`/`Condvar` with the `std::sync` API shape.
//!
//! Outside a model execution these delegate straight to `std`.  Inside one,
//! lock ownership and condvar wait queues are mirrored into the runtime
//! (`crate::rt`) so the scheduler can explore wake orders and detect
//! deadlocks/lost wakeups, while the *data* still lives in the wrapped std
//! mutex (the baton scheduler guarantees the std lock is always free by the
//! time the model grants ownership, so taking it never blocks the OS
//! thread).
//!
//! `Condvar::wait_timeout` never times out under the model — model tests
//! must make progress through notifications, or the deadlock detector fires.

use std::ops::{Deref, DerefMut};
use std::sync::{
    Condvar as StdCondvar, LockResult, MutexGuard as StdMutexGuard, PoisonError, TryLockError,
    TryLockResult,
};
use std::time::Duration;

pub use crate::atomic;
pub use std::sync::Arc;

use crate::rt;

fn addr<T: ?Sized>(x: &T) -> usize {
    x as *const T as *const u8 as usize
}

/// Model-aware drop-in for `std::sync::Mutex`.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    std: std::sync::Mutex<T>,
}

/// Guard pairing the std guard with the runtime's lock-ownership record.
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    inner: Option<StdMutexGuard<'a, T>>,
    /// Whether the runtime currently records us as the holder.  Cleared
    /// around `Condvar::wait` so an abort-unwind mid-wait doesn't release a
    /// model lock we no longer hold.
    model_locked: bool,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Self {
            std: std::sync::Mutex::new(value),
        }
    }

    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let model_locked = match rt::ctx() {
            Some(ctx) => {
                rt::mutex_lock(&ctx, addr(self));
                true
            }
            None => false,
        };
        match self.std.lock() {
            Ok(g) => Ok(MutexGuard {
                lock: self,
                inner: Some(g),
                model_locked,
            }),
            Err(p) => Err(PoisonError::new(MutexGuard {
                lock: self,
                inner: Some(p.into_inner()),
                model_locked,
            })),
        }
    }

    /// Acquire the lock if it is free.  Under the model the runtime decides
    /// (and records) ownership; the wrapped std mutex is then free by the
    /// baton argument in the module docs.
    pub fn try_lock(&self) -> TryLockResult<MutexGuard<'_, T>> {
        // During teardown (a failed execution unwinding) the model no longer
        // schedules; the wrapped std mutex alone decides, without blocking.
        let model_locked = match rt::ctx().filter(|_| !std::thread::panicking()) {
            Some(ctx) => {
                if !rt::mutex_try_lock(&ctx, addr(self)) {
                    return Err(TryLockError::WouldBlock);
                }
                true
            }
            None => false,
        };
        let guard = |g| MutexGuard {
            lock: self,
            inner: Some(g),
            model_locked,
        };
        let attempt = if model_locked {
            self.std.lock().map_err(TryLockError::Poisoned)
        } else {
            self.std.try_lock()
        };
        match attempt {
            Ok(g) => Ok(guard(g)),
            Err(TryLockError::Poisoned(p)) => Err(TryLockError::Poisoned(PoisonError::new(guard(
                p.into_inner(),
            )))),
            Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
        }
    }

    pub fn into_inner(self) -> LockResult<T> {
        self.std.into_inner()
    }

    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        self.std.get_mut()
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the std lock")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds the std lock")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the std lock before the model lock so the thread the
        // runtime wakes next finds it free.
        self.inner = None;
        if self.model_locked {
            if let Some(ctx) = rt::ctx() {
                rt::mutex_unlock(&ctx, addr(self.lock));
            }
        }
    }
}

/// Result of `Condvar::wait_timeout`.  Own type because `std`'s cannot be
/// constructed; under the model it always reports "not timed out".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// Model-aware drop-in for `std::sync::Condvar`.
#[derive(Debug, Default)]
pub struct Condvar {
    std: StdCondvar,
}

impl Condvar {
    pub fn new() -> Self {
        Self {
            std: StdCondvar::new(),
        }
    }

    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        match rt::ctx() {
            Some(ctx) => {
                let lock = guard.lock;
                guard.inner = None;
                guard.model_locked = false;
                rt::condvar_wait(&ctx, addr(self), addr(lock));
                guard.model_locked = true;
                match lock.std.lock() {
                    Ok(g) => {
                        guard.inner = Some(g);
                        Ok(guard)
                    }
                    Err(p) => {
                        guard.inner = Some(p.into_inner());
                        Err(PoisonError::new(guard))
                    }
                }
            }
            None => {
                let lock = guard.lock;
                let std_guard = guard.inner.take().expect("guard holds the std lock");
                drop(guard);
                match self.std.wait(std_guard) {
                    Ok(g) => Ok(MutexGuard {
                        lock,
                        inner: Some(g),
                        model_locked: false,
                    }),
                    Err(p) => Err(PoisonError::new(MutexGuard {
                        lock,
                        inner: Some(p.into_inner()),
                        model_locked: false,
                    })),
                }
            }
        }
    }

    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        match rt::ctx() {
            Some(_) => {
                let never = WaitTimeoutResult { timed_out: false };
                match self.wait(guard) {
                    Ok(g) => Ok((g, never)),
                    Err(p) => Err(PoisonError::new((p.into_inner(), never))),
                }
            }
            None => {
                let lock = guard.lock;
                let mut guard = guard;
                let std_guard = guard.inner.take().expect("guard holds the std lock");
                drop(guard);
                match self.std.wait_timeout(std_guard, dur) {
                    Ok((g, r)) => Ok((
                        MutexGuard {
                            lock,
                            inner: Some(g),
                            model_locked: false,
                        },
                        WaitTimeoutResult {
                            timed_out: r.timed_out(),
                        },
                    )),
                    Err(p) => {
                        let (g, r) = p.into_inner();
                        Err(PoisonError::new((
                            MutexGuard {
                                lock,
                                inner: Some(g),
                                model_locked: false,
                            },
                            WaitTimeoutResult {
                                timed_out: r.timed_out(),
                            },
                        )))
                    }
                }
            }
        }
    }

    pub fn notify_one(&self) {
        match rt::ctx() {
            Some(ctx) => rt::condvar_notify(&ctx, addr(self), false),
            None => self.std.notify_one(),
        }
    }

    pub fn notify_all(&self) {
        match rt::ctx() {
            Some(ctx) => rt::condvar_notify(&ctx, addr(self), true),
            None => self.std.notify_all(),
        }
    }
}
