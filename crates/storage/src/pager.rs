//! The in-memory simulated disk.

use crate::{make_mut_page, IoSnapshot, IoStats, PageRef, PageStore, StorageError};
use parking_lot::Mutex;
use std::sync::Arc;

/// Identifier of one fixed-size page on the simulated disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Default page size used throughout the reproduction (the paper's 4 KiB).
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// An in-memory simulated disk of fixed-size pages.
///
/// The pager never frees: [`PageStore::try_alloc`] grants `0, 1, 2, …`,
/// so the ids in use are exactly `0..page_count()` and an id names one
/// page for the store's life (§4.1's duplicate filter keys on it). Every
/// [`PageStore::read_page`] and [`PageStore::write`] bumps the
/// [`IoStats`] counters — the paper's "number of disk accesses" metric is
/// exactly `io().reads` over a query.
///
/// ```
/// use storage::{PageStore, Pager};
/// let disk = Pager::new(); // 4 KiB pages, like the paper
/// let page = disk.alloc();
/// disk.write(page, b"motion data");
/// assert_eq!(&disk.read_page(page)[..11], b"motion data");
/// assert_eq!(disk.io().reads, 1); // one simulated disk access
/// ```
pub struct Pager {
    page_size: usize,
    /// First page id that may never be granted (simulated disk capacity);
    /// `u32::MAX` by default, lowered by [`Self::with_id_cap`] for tests.
    id_cap: u32,
    /// Page `i` is `pages[i]`. Shared buffers so [`PageStore::read_page`]
    /// is a refcount bump; a write to a page with outstanding readers
    /// copies before mutating.
    pages: Mutex<Vec<Arc<[u8]>>>,
    stats: IoStats,
}

impl Pager {
    /// A pager with the paper's default 4 KiB pages.
    pub fn new() -> Self {
        Self::with_page_size(DEFAULT_PAGE_SIZE)
    }

    /// A pager with a custom page size (must be non-zero).
    pub fn with_page_size(page_size: usize) -> Self {
        Self::restore(page_size, Vec::new())
    }

    /// Cap the page-id space at `cap` pages (ids `0..cap`): the simulated
    /// analogue of a small disk. Once every id below the cap is granted,
    /// [`PageStore::try_alloc`] reports [`StorageError::Full`] instead of
    /// growing — the regression harness for writer degradation under
    /// disk-full uses this.
    pub fn with_id_cap(mut self, cap: u32) -> Self {
        self.id_cap = cap;
        self
    }

    /// A pager holding `pages`, page `i` at id `i` (a loaded snapshot).
    pub(crate) fn restore(page_size: usize, pages: Vec<Arc<[u8]>>) -> Self {
        assert!(page_size > 0, "page size must be positive");
        Pager {
            page_size,
            id_cap: u32::MAX,
            pages: Mutex::new(pages),
            stats: IoStats::new(),
        }
    }

    /// Pages granted so far: the ids in use are exactly `0..page_count()`,
    /// and the next [`PageStore::alloc`] grants `page_count()`.
    pub fn page_count(&self) -> u32 {
        self.pages.lock().len() as u32
    }
}

impl Default for Pager {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Pager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pager")
            .field("page_size", &self.page_size)
            .field("page_count", &self.page_count())
            .finish()
    }
}

impl PageStore for Pager {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn try_read_page(&self, id: PageId) -> Result<PageRef, StorageError> {
        // The raw simulated disk never fails on its own; faults enter via
        // the FaultyStore/ChecksumStore wrappers. An id past the last
        // granted one can only come from corrupt bytes (a child pointer):
        // one comparison makes it a typed error instead of a panic.
        let pages = self.pages.lock();
        let page = pages
            .get(id.0 as usize)
            .ok_or(StorageError::Corrupt { page: id })?;
        self.stats.record_read();
        Ok(PageRef::from_arc(Arc::clone(page)))
    }

    fn write(&self, id: PageId, data: &[u8]) {
        assert!(
            data.len() <= self.page_size,
            "page overflow: {} > {}",
            data.len(),
            self.page_size
        );
        // A write names a page its writer allocated: past the end is a
        // writer bug, not device data, and panics.
        let mut pages = self.pages.lock();
        let slot = pages
            .get_mut(id.0 as usize)
            .unwrap_or_else(|| panic!("write of unallocated page {id}"));
        make_mut_page(slot, self.page_size)[..data.len()].copy_from_slice(data);
        // The tail beyond `data` keeps its previous contents; writers
        // always serialize full logical records with explicit lengths.
        self.stats.record_write();
    }

    fn try_alloc(&self) -> Result<PageId, StorageError> {
        let mut pages = self.pages.lock();
        let idx = u32::try_from(pages.len())
            .ok()
            .filter(|&i| i < self.id_cap)
            .ok_or(StorageError::Full {
                page: PageId(self.id_cap),
            })?;
        self.stats.record_alloc();
        pages.push(vec![0u8; self.page_size].into());
        Ok(PageId(idx))
    }

    fn io(&self) -> IoSnapshot {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_read_write_roundtrip() {
        let p = Pager::with_page_size(64);
        let id = p.alloc();
        assert_eq!(*p.read_page(id), [0u8; 64]); // zeroed on alloc
        p.write(id, &[1, 2, 3]);
        let back = p.read_page(id);
        assert_eq!(&back[..3], &[1, 2, 3]);
        assert_eq!(back.len(), 64);
    }

    #[test]
    fn io_counts_every_access() {
        let p = Pager::with_page_size(32);
        let id = p.alloc();
        p.read_page(id);
        p.read_page(id);
        p.write(id, &[9]);
        let io = p.io();
        assert_eq!(io.reads, 2);
        assert_eq!(io.writes, 1);
        assert_eq!(io.allocs, 1);
    }

    #[test]
    fn ids_are_dense_and_a_read_past_the_end_is_corrupt() {
        let p = Pager::with_page_size(16);
        let ids: Vec<PageId> = (0..3).map(|_| p.alloc()).collect();
        assert_eq!(ids, [PageId(0), PageId(1), PageId(2)]);
        assert_eq!(p.page_count(), 3);
        for id in [PageId(3), PageId(u32::MAX)] {
            assert_eq!(
                p.try_read_page(id).unwrap_err(),
                StorageError::Corrupt { page: id }
            );
        }
        assert_eq!(p.io().reads, 0, "a failed read is no disk access");
    }

    #[test]
    #[should_panic(expected = "write of unallocated page")]
    fn write_past_the_end_panics() {
        Pager::with_page_size(16).write(PageId(0), &[1]);
    }

    #[test]
    #[should_panic(expected = "page overflow")]
    fn oversized_write_panics() {
        let p = Pager::with_page_size(4);
        let a = p.alloc();
        p.write(a, &[0u8; 5]);
    }

    #[test]
    fn page_ref_is_a_stable_snapshot() {
        let p = Pager::with_page_size(16);
        let a = p.alloc();
        p.write(a, &[1, 2, 3]);
        let snap = p.read_page(a);
        p.write(a, &[9, 9, 9]); // copies on write: `snap` still shares the old buffer
        assert_eq!(&snap[..3], &[1, 2, 3]);
        assert_eq!(&p.read_page(a)[..3], &[9, 9, 9]);
    }
}
