//! The in-memory simulated disk.

use crate::{make_mut_page, IoSnapshot, IoStats, PageRef, PageStore};
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

struct PagerState {
    /// Shared buffers so [`PageStore::read_page`] is a refcount bump; a
    /// write to a page with outstanding readers copies before mutating.
    pages: Vec<Option<Arc<[u8]>>>,
    free: Vec<u32>,
}

/// An in-memory simulated disk of fixed-size pages.
///
/// Pages are allocated from a free list (freed pages are recycled). Every
/// [`PageStore::read_page`] and [`PageStore::write`] bumps the [`IoStats`]
/// counters — the paper's "number of disk accesses" metric is exactly
/// `io().reads` over a query.
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
    state: Mutex<PagerState>,
    stats: IoStats,
}

impl Pager {
    /// A pager with the paper's default 4 KiB pages.
    pub fn new() -> Self {
        Self::with_page_size(DEFAULT_PAGE_SIZE)
    }

    /// A pager with a custom page size (must be non-zero).
    pub fn with_page_size(page_size: usize) -> Self {
        assert!(page_size > 0, "page size must be positive");
        Pager {
            page_size,
            id_cap: u32::MAX,
            state: Mutex::new(PagerState {
                pages: Vec::new(),
                free: Vec::new(),
            }),
            stats: IoStats::new(),
        }
    }

    /// Cap the page-id space at `cap` pages (ids `0..cap`): the simulated
    /// analogue of a small disk. Once every id below the cap is live,
    /// [`PageStore::try_alloc`] reports [`StorageError::Full`] instead of
    /// growing — the regression harness for writer degradation under
    /// disk-full uses this.
    pub fn with_id_cap(mut self, cap: u32) -> Self {
        self.id_cap = cap;
        self
    }

    /// Rebuild a pager from snapshot state: `slots[i]` is page `i`'s bytes
    /// (`None` for a freed slot) and `free` is the allocator's free list,
    /// verbatim, most-recently-freed last. Restoring the list verbatim is
    /// what pins post-restore `alloc()` order to the pre-save pager.
    pub(crate) fn restore(
        page_size: usize,
        slots: Vec<Option<Arc<[u8]>>>,
        free: Vec<u32>,
    ) -> Self {
        assert!(page_size > 0, "page size must be positive");
        Pager {
            page_size,
            id_cap: u32::MAX,
            state: Mutex::new(PagerState { pages: slots, free }),
            stats: IoStats::new(),
        }
    }

    /// The allocator's free list, verbatim (most-recently-freed last, the
    /// next `alloc` pops from the back). Persisted by snapshot v3 so a
    /// reloaded pager allocates in the same order as the original.
    pub fn free_list(&self) -> Vec<u32> {
        self.state.lock().free.clone()
    }

    /// Number of live (allocated, not freed) pages.
    pub fn live_pages(&self) -> usize {
        let st = self.state.lock();
        st.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Total bytes held by live pages.
    pub fn bytes_in_use(&self) -> usize {
        self.live_pages() * self.page_size
    }

    /// Ids of all live pages, ascending (for persistence).
    pub fn live_page_ids(&self) -> Vec<PageId> {
        let st = self.state.lock();
        st.pages
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_ref().map(|_| PageId(i as u32)))
            .collect()
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
            .field("live_pages", &self.live_pages())
            .finish()
    }
}

impl PageStore for Pager {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn try_read_page(&self, id: PageId) -> Result<PageRef, crate::StorageError> {
        // The raw simulated disk never fails on its own; faults enter via
        // the FaultyStore/ChecksumStore wrappers. Reading an unallocated
        // page is a caller bug and still panics.
        let st = self.state.lock();
        let page = st
            .pages
            .get(id.0 as usize)
            .and_then(|p| p.as_ref())
            .unwrap_or_else(|| panic!("read of unallocated page {id}"));
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
        let mut st = self.state.lock();
        let slot = st
            .pages
            .get_mut(id.0 as usize)
            .and_then(|p| p.as_mut())
            .unwrap_or_else(|| panic!("write of unallocated page {id}"));
        make_mut_page(slot, self.page_size)[..data.len()].copy_from_slice(data);
        // The tail beyond `data` keeps its previous contents; writers
        // always serialize full logical records with explicit lengths.
        self.stats.record_write();
    }

    fn try_alloc(&self) -> Result<PageId, crate::StorageError> {
        let mut st = self.state.lock();
        let zeroed: Arc<[u8]> = vec![0u8; self.page_size].into();
        if let Some(idx) = st.free.pop() {
            self.stats.record_alloc();
            st.pages[idx as usize] = Some(zeroed);
            return Ok(PageId(idx));
        }
        let idx = u32::try_from(st.pages.len())
            .ok()
            .filter(|&i| i < self.id_cap)
            .ok_or(crate::StorageError::Full {
                page: PageId(self.id_cap),
            })?;
        self.stats.record_alloc();
        st.pages.push(Some(zeroed));
        Ok(PageId(idx))
    }

    fn free(&self, id: PageId) {
        let mut st = self.state.lock();
        let slot = st
            .pages
            .get_mut(id.0 as usize)
            .unwrap_or_else(|| panic!("free of out-of-range page {id}"));
        assert!(slot.is_some(), "double free of page {id}");
        *slot = None;
        st.free.push(id.0);
        self.stats.record_free();
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
    fn free_list_recycles_ids() {
        let p = Pager::with_page_size(16);
        let a = p.alloc();
        let b = p.alloc();
        p.free(a);
        let c = p.alloc();
        assert_eq!(c, a); // recycled
        assert_ne!(c, b);
        assert_eq!(p.live_pages(), 2);
        // Recycled page comes back zeroed.
        assert_eq!(*p.read_page(c), [0u8; 16]);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let p = Pager::with_page_size(16);
        let a = p.alloc();
        p.free(a);
        p.free(a);
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn read_after_free_panics() {
        let p = Pager::with_page_size(16);
        let a = p.alloc();
        p.free(a);
        p.read_page(a);
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

    #[test]
    fn bytes_in_use_tracks_live_pages() {
        let p = Pager::with_page_size(128);
        let a = p.alloc();
        let _b = p.alloc();
        assert_eq!(p.bytes_in_use(), 256);
        p.free(a);
        assert_eq!(p.bytes_in_use(), 128);
    }
}
