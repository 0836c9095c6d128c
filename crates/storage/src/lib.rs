//! # storage — simulated disk for the EDBT 2002 reproduction
//!
//! The paper measures query cost in *number of disk accesses*, with a 4 KiB
//! page size and R-tree nodes mapped one-to-one onto pages. This crate
//! provides that substrate:
//!
//! * [`Pager`] — an in-memory simulated disk of fixed-size pages and
//!   atomic I/O counters. It never frees: page ids are dense, exactly
//!   `0..page_count()`. Every [`PageStore::read_page`] is one simulated
//!   disk access.
//! * [`ShardedBufferPool`] — an LRU page cache layered over any
//!   [`PageStore`], split into independently locked shards for the
//!   concurrent query service where many sessions read one shared tree;
//!   one shard is the plain LRU. The paper argues (§4) that per-session
//!   server-side buffering is not a substitute for dynamic-query
//!   processing; the bench suite tests that claim (`ablation_buffer`).
//! * [`IoStats`] — cheap, thread-safe counters snapshotted by the query
//!   engines before/after each query to report per-query page accesses.
//!
//! The [`PageStore`] trait lets the R-tree run over a raw pager (counting
//! every node visit, as the paper does) or a buffered one, without caring
//! which.

pub mod buffer;
pub mod fault;
pub mod pager;
pub mod sharded;
pub mod snapshotfile;
pub mod stats;
pub mod wal;

pub use buffer::CacheStats;
pub use fault::{
    ChecksumStore, FaultPlan, FaultRecoveryStats, FaultyStore, InjectedFaults, RetryPolicy,
    StorageError,
};
pub use pager::{PageId, Pager};
pub use sharded::ShardedBufferPool;
pub use snapshotfile::{load_pager, save_pager, SnapshotSource};
pub use stats::{IoSnapshot, IoStats};
pub use wal::{scan as scan_wal, Wal, WalError, WalStats, WalTail, WAL_RECORD_OVERHEAD};

use std::sync::Arc;

/// A zero-copy handle to one page's bytes.
///
/// Cloning a `PageRef` bumps a reference count; no page data moves.
/// The handle is a *snapshot*: it stays valid (and immutable) even if the
/// frame it was served from is evicted or the page is rewritten — writers
/// install a fresh `Arc`, they never mutate bytes a reader can see.
#[derive(Clone, Debug)]
pub struct PageRef(Arc<[u8]>);

impl PageRef {
    /// Wrap an already-shared page buffer.
    pub fn from_arc(bytes: Arc<[u8]>) -> PageRef {
        PageRef(bytes)
    }

    /// Take ownership of the underlying shared buffer.
    pub fn into_arc(self) -> Arc<[u8]> {
        self.0
    }
}

impl std::ops::Deref for PageRef {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for PageRef {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for PageRef {
    fn from(bytes: Vec<u8>) -> PageRef {
        PageRef(bytes.into())
    }
}

/// Make `page` writable in place, copying only when the buffer is shared
/// with an outstanding [`PageRef`] (or sized differently). This is what
/// keeps eviction-while-borrowed safe: a resident write never mutates
/// bytes that a reader snapshot still points at.
pub(crate) fn make_mut_page(page: &mut Arc<[u8]>, page_size: usize) -> &mut [u8] {
    if page.len() != page_size || Arc::get_mut(page).is_none() {
        let mut fresh = vec![0u8; page_size];
        let keep = page.len().min(page_size);
        fresh[..keep].copy_from_slice(&page[..keep]);
        *page = fresh.into();
    }
    Arc::get_mut(page).expect("buffer was just made unique")
}

/// Abstraction over a page-granular storage device.
///
/// Implemented by the raw simulated disk ([`Pager`]) and by the LRU cache
/// ([`ShardedBufferPool`]). All methods take `&self`; implementations use interior
/// mutability so a single store can be shared by an index and several
/// concurrent readers.
pub trait PageStore {
    /// Size in bytes of every page in this store.
    fn page_size(&self) -> usize;

    /// Read a page without copying it: the returned [`PageRef`] shares
    /// the resident buffer. Counts as one (possibly cached) access.
    /// Fails with [`StorageError`] on injected or detected device faults,
    /// and with [`StorageError::Corrupt`] for an id the device never
    /// granted: such an id can only come from corrupt page bytes (a
    /// child pointer), so it is bad data, not a caller bug.
    fn try_read_page(&self, id: PageId) -> Result<PageRef, StorageError>;

    /// Infallible wrapper over [`Self::try_read_page`] for callers with
    /// no recovery story: panics on a storage error, so the panic happens
    /// at the top of the stack (and the serving layer's `catch_unwind`
    /// can contain it) instead of deep inside the engine.
    fn read_page(&self, id: PageId) -> PageRef {
        self.try_read_page(id)
            .unwrap_or_else(|e| panic!("unrecoverable storage error: {e}"))
    }

    /// Write a page; `data` must not exceed [`Self::page_size`].
    fn write(&self, id: PageId, data: &[u8]);

    /// Allocate a fresh (zeroed) page, failing with
    /// [`StorageError::Full`] when the device's id space is exhausted.
    fn try_alloc(&self) -> Result<PageId, StorageError>;

    /// Infallible wrapper over [`Self::try_alloc`] for construction-time
    /// callers (tree bootstrap, bulk load) with no degradation story:
    /// panics on a full device, mirroring [`Self::read_page`].
    fn alloc(&self) -> PageId {
        self.try_alloc()
            .unwrap_or_else(|e| panic!("unrecoverable storage error: {e}"))
    }

    /// Does nothing: no store frees a page. It exists only because
    /// `benchmarks/dqbench/src/probe.rs` forwards it; nothing in the
    /// workspace may call it, and ROADMAP item 1(g)'s benchmark change
    /// deletes both.
    #[doc(hidden)]
    fn free(&self, _id: PageId) {}

    /// Snapshot of the I/O counters of the *underlying device* — i.e. the
    /// number of simulated disk accesses, after any caching.
    fn io(&self) -> IoSnapshot;
}

/// A shared handle is itself a store: lets an index own `Arc<pool>` while
/// the serving layer keeps a second handle for cache statistics.
impl<S: PageStore + ?Sized> PageStore for std::sync::Arc<S> {
    fn page_size(&self) -> usize {
        (**self).page_size()
    }
    fn try_read_page(&self, id: PageId) -> Result<PageRef, StorageError> {
        (**self).try_read_page(id)
    }
    fn read_page(&self, id: PageId) -> PageRef {
        (**self).read_page(id)
    }
    fn write(&self, id: PageId, data: &[u8]) {
        (**self).write(id, data)
    }
    fn try_alloc(&self) -> Result<PageId, StorageError> {
        (**self).try_alloc()
    }
    fn alloc(&self) -> PageId {
        (**self).alloc()
    }
    fn io(&self) -> IoSnapshot {
        (**self).io()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn make_mut_page_grows_short_buffer_preserving_prefix() {
        // A buffer shorter than the page size (e.g. loaded from a trimmed
        // snapshot) must be grown to full size with a zeroed tail.
        let mut page: Arc<[u8]> = vec![1u8, 2, 3].into();
        let snap = PageRef::from_arc(Arc::clone(&page));
        let buf = make_mut_page(&mut page, 8);
        assert_eq!(buf.len(), 8);
        assert_eq!(&buf[..3], &[1, 2, 3]);
        assert_eq!(&buf[3..], &[0, 0, 0, 0, 0]);
        buf[0] = 9;
        // The outstanding snapshot still sees the old, short bytes.
        assert_eq!(&snap[..], &[1, 2, 3]);
    }

    #[test]
    fn make_mut_page_shrinks_long_buffer_truncating() {
        let mut page: Arc<[u8]> = vec![5u8; 16].into();
        let snap = PageRef::from_arc(Arc::clone(&page));
        let buf = make_mut_page(&mut page, 4);
        assert_eq!(buf, &[5, 5, 5, 5]);
        buf.fill(7);
        assert_eq!(snap.len(), 16, "snapshot keeps the old length");
        assert!(snap.iter().all(|&b| b == 5), "snapshot bytes unchanged");
    }

    #[test]
    fn make_mut_page_copies_only_when_shared_or_missized() {
        // Right-sized and unshared: mutate in place, no copy.
        let mut page: Arc<[u8]> = vec![0u8; 4].into();
        let before = Arc::as_ptr(&page);
        make_mut_page(&mut page, 4)[0] = 1;
        assert!(std::ptr::eq(before, Arc::as_ptr(&page)), "no copy expected");

        // Shared with a PageRef: must copy, and the reader keeps old bytes.
        let snap = PageRef::from_arc(Arc::clone(&page));
        make_mut_page(&mut page, 4)[0] = 2;
        assert_eq!(snap[0], 1, "reader sees pre-write bytes");
        assert_eq!(page[0], 2);
    }
}
