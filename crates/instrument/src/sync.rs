//! Instrumented synchronization primitives.
//!
//! Every mutex protecting storage-manager state is a *critical section* in
//! the paper's terminology.  [`InstrumentedMutex`] behaves like
//! `parking_lot::Mutex` but reports each acquisition (and whether it was
//! contended) into a [`StatsRegistry`] under a fixed [`CsCategory`].

use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, MutexGuard};

use crate::stats::{CsCategory, StatsRegistry};

/// A mutex whose acquisitions are counted as critical-section entries.
#[derive(Debug)]
pub struct InstrumentedMutex<T> {
    inner: Mutex<T>,
    category: CsCategory,
    stats: Arc<StatsRegistry>,
}

impl<T> InstrumentedMutex<T> {
    pub fn new(value: T, category: CsCategory, stats: Arc<StatsRegistry>) -> Self {
        Self {
            inner: Mutex::new(value),
            category,
            stats,
        }
    }

    /// Acquire the mutex, recording the entry and whether it was contended.
    /// Returns the guard plus the nanoseconds spent waiting (0 if uncontended).
    pub fn lock(&self) -> (MutexGuard<'_, T>, u64) {
        if let Some(g) = self.inner.try_lock() {
            self.stats.cs().enter(self.category, false);
            (g, 0)
        } else {
            let start = Instant::now();
            let g = self.inner.lock();
            let waited = start.elapsed().as_nanos() as u64;
            self.stats.cs().enter(self.category, true);
            (g, waited)
        }
    }

    /// Acquire without recording any statistics (used on shutdown paths).
    pub fn lock_uninstrumented(&self) -> MutexGuard<'_, T> {
        self.inner.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn mutex_counts_uncontended() {
        let stats = StatsRegistry::new_shared();
        let m = InstrumentedMutex::new(0u32, CsCategory::LockMgr, stats.clone());
        {
            let (mut g, waited) = m.lock();
            *g += 1;
            assert_eq!(waited, 0);
        }
        let snap = stats.snapshot();
        assert_eq!(snap.cs.entries(CsCategory::LockMgr), 1);
        assert_eq!(snap.cs.contended(CsCategory::LockMgr), 0);
    }

    #[test]
    fn mutex_counts_contended() {
        let stats = StatsRegistry::new_shared();
        let m = Arc::new(InstrumentedMutex::new(
            0u32,
            CsCategory::LogMgr,
            stats.clone(),
        ));
        let m2 = m.clone();
        let (g, _) = m.lock();
        let h = thread::spawn(move || {
            let (mut g, waited) = m2.lock();
            *g += 1;
            waited
        });
        thread::sleep(Duration::from_millis(20));
        drop(g);
        let waited = h.join().unwrap();
        assert!(waited > 0);
        let snap = stats.snapshot();
        assert_eq!(snap.cs.entries(CsCategory::LogMgr), 2);
        assert_eq!(snap.cs.contended(CsCategory::LogMgr), 1);
    }

    #[test]
    fn uninstrumented_paths_do_not_count() {
        let stats = StatsRegistry::new_shared();
        let m = InstrumentedMutex::new((), CsCategory::Bpool, stats.clone());
        drop(m.lock_uninstrumented());
        assert_eq!(stats.snapshot().cs.entries(CsCategory::Bpool), 0);
    }
}
