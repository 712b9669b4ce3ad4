//! Buffer-pool frames and page latches.
//!
//! A [`Frame`] is the in-memory home of one page.  It carries:
//!
//! * the page bytes,
//! * an instrumented **page latch** (reader-writer lock) used by the
//!   conventional and logical-only designs,
//! * an **owner tag** used by the PLP designs: when a partition owns the frame,
//!   the thread acting for that partition may access the page without taking
//!   the latch at all (the paper's "latch-free" accesses), because the engine
//!   guarantees that requests touching this page are executed by one thread
//!   *at a time* — whoever holds the partition's claim, a mutex whose
//!   release/acquire orders one holder's page writes before the next holder's
//!   accesses (`plp-core`'s `worker` module and `docs/concurrency.md`).
//!
//! Both access paths report into the shared [`StatsRegistry`]: latched accesses
//! count page-latch acquisitions (and contention) by page kind, owner accesses
//! count as "bypassed" latches.  Figures 1–3 of the paper are produced from
//! exactly these counters.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use plp_instrument::{PageKind, StatsRegistry};

use crate::page::{Page, PageId};

/// Identifies the owner of a set of frames (a partition worker thread).
///
/// Token value `0` is reserved for "no owner".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OwnerToken(pub u64);

impl OwnerToken {
    pub const NONE: OwnerToken = OwnerToken(0);

    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// How a page should be accessed: through the instrumented page latch
/// (conventional and logical-only designs) or latch-free as the owning
/// partition thread (PLP designs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Take the page latch (shared or exclusive as needed).
    Latched,
    /// Latch-free access using the partition owner token.
    Owned(OwnerToken),
}

/// One buffer-pool frame: a page plus its latch, dirty bit and owner tag.
pub struct Frame {
    id: PageId,
    kind: PageKind,
    latch: RwLock<()>,
    data: UnsafeCell<Page>,
    dirty: AtomicBool,
    /// Owner token of the partition that has exclusive (latch-free) access, or
    /// 0 when the page is accessed through the latch like any shared page.
    owner: AtomicU64,
    stats: Arc<StatsRegistry>,
}

// SAFETY: all mutable access to `data` is mediated either by the `latch`
// (latched path) or by the single-owner protocol enforced through `owner`
// tokens (PLP path). See `owned_mut` for the owner-path contract.
unsafe impl Send for Frame {}
unsafe impl Sync for Frame {}

impl Frame {
    pub fn new(id: PageId, kind: PageKind, stats: Arc<StatsRegistry>) -> Self {
        Self {
            id,
            kind,
            latch: RwLock::new(()),
            data: UnsafeCell::new(Page::new()),
            dirty: AtomicBool::new(false),
            owner: AtomicU64::new(0),
            stats,
        }
    }

    pub fn id(&self) -> PageId {
        self.id
    }

    pub fn kind(&self) -> PageKind {
        self.kind
    }

    pub fn stats(&self) -> &Arc<StatsRegistry> {
        &self.stats
    }

    // ------------------------------------------------------------------
    // Dirty bookkeeping
    // ------------------------------------------------------------------

    pub fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Acquire)
    }

    pub fn mark_dirty(&self) {
        self.dirty.store(true, Ordering::Release);
    }

    pub fn mark_clean(&self) {
        self.dirty.store(false, Ordering::Release);
    }

    // ------------------------------------------------------------------
    // Ownership (PLP latch-free protocol)
    // ------------------------------------------------------------------

    /// Assign the frame to a partition owner.  Called by the partition manager
    /// while it holds the affected partitions' claims; afterwards only the
    /// holder of that partition's claim touches the page.
    pub fn set_owner(&self, token: OwnerToken) {
        self.owner.store(token.0, Ordering::Release);
    }

    /// Clear ownership, returning the page to the shared (latched) protocol.
    pub fn clear_owner(&self) {
        self.owner.store(0, Ordering::Release);
    }

    pub fn owner(&self) -> OwnerToken {
        OwnerToken(self.owner.load(Ordering::Acquire))
    }

    // ------------------------------------------------------------------
    // Latched access (conventional / logical-only designs)
    // ------------------------------------------------------------------

    /// Acquire the page latch in shared mode.  Returns the guard plus the
    /// nanoseconds spent waiting (0 when the acquisition was uncontended).
    pub fn read_latched(&self) -> (PageReadGuard<'_>, u64) {
        let (guard, waited) = match self.latch.try_read() {
            Some(g) => {
                self.stats.latches().acquired(self.kind, false);
                (g, 0)
            }
            None => {
                let start = Instant::now();
                let g = self.latch.read();
                let waited = start.elapsed().as_nanos() as u64;
                self.stats.latches().acquired(self.kind, true);
                self.stats.latches().waited(self.kind, waited);
                (g, waited)
            }
        };
        self.stats.cs().enter(self.kind.cs_category(), waited > 0);
        (
            PageReadGuard {
                _guard: guard,
                frame: self,
            },
            waited,
        )
    }

    /// Acquire the page latch in exclusive mode.  Returns the guard plus the
    /// nanoseconds spent waiting.
    pub fn write_latched(&self) -> (PageWriteGuard<'_>, u64) {
        let (guard, waited) = match self.latch.try_write() {
            Some(g) => {
                self.stats.latches().acquired(self.kind, false);
                (g, 0)
            }
            None => {
                let start = Instant::now();
                let g = self.latch.write();
                let waited = start.elapsed().as_nanos() as u64;
                self.stats.latches().acquired(self.kind, true);
                self.stats.latches().waited(self.kind, waited);
                (g, waited)
            }
        };
        self.stats.cs().enter(self.kind.cs_category(), waited > 0);
        self.mark_dirty();
        (
            PageWriteGuard {
                _guard: guard,
                frame: self,
            },
            waited,
        )
    }

    // ------------------------------------------------------------------
    // Owner (latch-free) access — the PLP path
    // ------------------------------------------------------------------

    /// Latch-free shared access by the thread acting for the owning partition.
    ///
    /// # Panics
    /// Panics if `token` does not match the frame's current owner.  The engine
    /// guarantees that only the holder of the owning partition's claim ever
    /// calls this, so the check is a cheap guard against routing bugs, not a
    /// synchronization mechanism.
    fn owned_ref(&self, token: OwnerToken) -> &Page {
        self.check_owner(token);
        self.stats.latches().bypassed(self.kind);
        // SAFETY: the owner protocol guarantees this thread is the only one
        // accessing the page while the token matches: the token is reachable
        // only through the owning partition's claim, which one thread holds
        // at a time and whose hand-over is a mutex release → acquire.
        unsafe { &*self.data.get() }
    }

    /// Latch-free exclusive access by the thread acting for the owning
    /// partition.
    ///
    /// # Safety contract (enforced by the partition manager)
    /// The caller must be the one thread currently acting for this frame's
    /// partition (in `plp-core`: the holder of the partition's claim).  The
    /// owner-token check catches accidental misuse (wrong routing) but cannot
    /// catch two threads deliberately sharing a token.
    #[allow(clippy::mut_from_ref)]
    fn owned_mut(&self, token: OwnerToken) -> &mut Page {
        self.check_owner(token);
        self.stats.latches().bypassed(self.kind);
        self.mark_dirty();
        // SAFETY: see the owner protocol described above.
        unsafe { &mut *self.data.get() }
    }

    fn check_owner(&self, token: OwnerToken) {
        let owner = self.owner.load(Ordering::Acquire);
        assert!(
            owner == token.0 && !token.is_none(),
            "latch-free access to {} with token {:?} but owner is {:?}",
            self.id,
            token,
            OwnerToken(owner)
        );
    }

    /// Whether latch-free access with `token` would be permitted.
    pub fn is_owned_by(&self, token: OwnerToken) -> bool {
        !token.is_none() && self.owner.load(Ordering::Acquire) == token.0
    }

    /// Read the page through the requested [`Access`] mode.
    pub fn with_read_access<R>(&self, access: Access, f: impl FnOnce(&Page) -> R) -> R {
        match access {
            Access::Latched => {
                let (guard, _) = self.read_latched();
                f(&guard)
            }
            Access::Owned(token) => f(self.owned_ref(token)),
        }
    }

    /// Modify the page through the requested [`Access`] mode.
    pub fn with_write_access<R>(&self, access: Access, f: impl FnOnce(&mut Page) -> R) -> R {
        match access {
            Access::Latched => {
                let (mut guard, _) = self.write_latched();
                f(&mut guard)
            }
            Access::Owned(token) => f(self.owned_mut(token)),
        }
    }

    /// Uninstrumented access used by the page cleaner when it already holds an
    /// exclusive claim on the page (e.g. while the owning worker executes a
    /// cleaning request for its own partition, or during loading).
    pub fn with_page<R>(&self, f: impl FnOnce(&Page) -> R) -> R {
        let _g = self.latch.read();
        // SAFETY: shared latch held.
        let page = unsafe { &*self.data.get() };
        f(page)
    }

    /// Uninstrumented exclusive access, used only during database loading
    /// (single threaded) and by tests.
    pub fn with_page_mut<R>(&self, f: impl FnOnce(&mut Page) -> R) -> R {
        let _g = self.latch.write();
        self.mark_dirty();
        // SAFETY: exclusive latch held.
        let page = unsafe { &mut *self.data.get() };
        f(page)
    }
}

impl std::fmt::Debug for Frame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frame")
            .field("id", &self.id)
            .field("kind", &self.kind)
            .field("dirty", &self.is_dirty())
            .field("owner", &self.owner())
            .finish()
    }
}

/// Shared-latched view of a page.
pub struct PageReadGuard<'a> {
    _guard: RwLockReadGuard<'a, ()>,
    frame: &'a Frame,
}

impl Deref for PageReadGuard<'_> {
    type Target = Page;

    fn deref(&self) -> &Page {
        // SAFETY: the shared latch is held for the guard's lifetime.
        unsafe { &*self.frame.data.get() }
    }
}

/// Exclusively-latched view of a page.
pub struct PageWriteGuard<'a> {
    _guard: RwLockWriteGuard<'a, ()>,
    frame: &'a Frame,
}

impl Deref for PageWriteGuard<'_> {
    type Target = Page;

    fn deref(&self) -> &Page {
        // SAFETY: the exclusive latch is held for the guard's lifetime.
        unsafe { &*self.frame.data.get() }
    }
}

impl DerefMut for PageWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut Page {
        // SAFETY: the exclusive latch is held for the guard's lifetime.
        unsafe { &mut *self.frame.data.get() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    fn frame() -> Arc<Frame> {
        Arc::new(Frame::new(
            PageId(1),
            PageKind::Heap,
            StatsRegistry::new_shared(),
        ))
    }

    #[test]
    fn latched_read_write_roundtrip() {
        let f = frame();
        {
            let (mut g, _) = f.write_latched();
            g.write_u64(0, 99);
        }
        let (g, _) = f.read_latched();
        assert_eq!(g.read_u64(0), 99);
        assert!(f.is_dirty());
        let snap = f.stats().snapshot();
        assert_eq!(snap.latches.acquired(PageKind::Heap), 2);
    }

    #[test]
    fn contended_write_is_counted() {
        let f = frame();
        let f2 = f.clone();
        let (g, _) = f.write_latched();
        let h = thread::spawn(move || {
            let (_g, waited) = f2.write_latched();
            waited
        });
        thread::sleep(Duration::from_millis(10));
        drop(g);
        let waited = h.join().unwrap();
        assert!(waited > 0);
        let snap = f.stats().snapshot();
        assert_eq!(snap.latches.contended(PageKind::Heap), 1);
        assert!(snap.latches.wait_nanos(PageKind::Heap) > 0);
    }

    #[test]
    fn owner_access_bypasses_latch() {
        let f = frame();
        let token = OwnerToken(7);
        f.set_owner(token);
        f.owned_mut(token).write_u64(8, 123);
        assert_eq!(f.owned_ref(token).read_u64(8), 123);
        let snap = f.stats().snapshot();
        assert_eq!(snap.latches.acquired(PageKind::Heap), 0);
        assert_eq!(snap.latches.bypassed(PageKind::Heap), 2);
    }

    #[test]
    #[should_panic(expected = "latch-free access")]
    fn wrong_owner_panics() {
        let f = frame();
        f.set_owner(OwnerToken(7));
        let _ = f.owned_ref(OwnerToken(8));
    }

    #[test]
    #[should_panic(expected = "latch-free access")]
    fn unowned_page_rejects_owner_access() {
        let f = frame();
        let _ = f.owned_ref(OwnerToken(1));
    }

    #[test]
    fn ownership_transitions() {
        let f = frame();
        assert_eq!(f.owner(), OwnerToken::NONE);
        f.set_owner(OwnerToken(3));
        assert!(f.is_owned_by(OwnerToken(3)));
        assert!(!f.is_owned_by(OwnerToken(4)));
        f.clear_owner();
        assert_eq!(f.owner(), OwnerToken::NONE);
        assert!(!f.is_owned_by(OwnerToken::NONE));
    }

    #[test]
    fn dirty_flags() {
        let f = frame();
        assert!(!f.is_dirty());
        f.mark_dirty();
        assert!(f.is_dirty());
        f.mark_clean();
        assert!(!f.is_dirty());
    }

    #[test]
    fn uninstrumented_helpers() {
        let f = frame();
        f.with_page_mut(|p| p.write_u16(0, 5));
        let v = f.with_page(|p| p.read_u16(0));
        assert_eq!(v, 5);
        assert_eq!(f.stats().snapshot().latches.total_acquired(), 0);
    }
}
