//! Persisting a simulated disk to a real file.
//!
//! Building the paper's full index takes ≈500 k insertions; persisting
//! the page store lets benches and applications build once and reload.
//! The format is deliberately simple and versioned:
//!
//! ```text
//! magic "DQPG" ‖ version u32 ‖ page_size u32 ‖ page_count u32
//! ‖ free_count u32 ‖ free ids (u32 each, allocator order)
//! then per page: page_id u32 ‖ page_len u32 ‖ fnv1a u64 ‖ page bytes (page_len)
//! ```
//!
//! Each page stores its meaningful prefix (trailing zeros trimmed) with
//! an FNV-1a checksum, so a truncated or bit-flipped snapshot is rejected
//! at load with an [`io::Error`] — `load_pager` never panics on malformed
//! input.
//!
//! Version 3 persists the allocator's free list verbatim, so a reloaded
//! pager grants page ids in exactly the pre-save order — without that,
//! post-restore `alloc()` order diverges from the original pager and the
//! reloaded-tree == never-saved-tree identity (and the serve ==
//! serve_serial determinism oracles after a restore) break. Older
//! versions carried no free section and are rejected.

use crate::fault::page_checksum;
use crate::{PageId, PageStore, Pager, StorageError};
use std::io::{self, Read, Write};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"DQPG";
const VERSION: u32 = 3;

/// Largest `page_id` a snapshot may carry: load rebuilds ids densely, so
/// this bounds the memory a malformed header can make us allocate.
const MAX_SNAPSHOT_PAGE_ID: u32 = 1 << 26;

/// Largest believable page size; guards `Vec` preallocation on load.
const MAX_SNAPSHOT_PAGE_SIZE: usize = 1 << 28;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn storage_err(e: StorageError) -> io::Error {
    io::Error::other(format!("snapshot read failed: {e}"))
}

/// A store that can be checkpointed by [`save_pager`]: exposes the live
/// id set and the allocator's free list, and can flush any caching layer
/// so the device and the snapshot agree. Implemented by [`Pager`] and
/// forwarded by every wrapper, so a whole serving stack (pool over
/// checksum over pager) checkpoints through its top handle.
pub trait SnapshotSource: PageStore {
    /// Make the underlying device current (write-back caches flush here).
    fn prepare_snapshot(&self) {}

    /// Ids of all live pages, ascending.
    fn snapshot_live_ids(&self) -> Vec<PageId>;

    /// The allocator's free list, verbatim (next `alloc` pops the back).
    fn snapshot_free_list(&self) -> Vec<u32>;
}

impl SnapshotSource for Pager {
    fn snapshot_live_ids(&self) -> Vec<PageId> {
        self.live_page_ids()
    }
    fn snapshot_free_list(&self) -> Vec<u32> {
        self.free_list()
    }
}

impl<S: SnapshotSource> SnapshotSource for crate::ShardedBufferPool<S> {
    fn prepare_snapshot(&self) {
        self.flush();
        self.inner().prepare_snapshot();
    }
    fn snapshot_live_ids(&self) -> Vec<PageId> {
        self.inner().snapshot_live_ids()
    }
    fn snapshot_free_list(&self) -> Vec<u32> {
        self.inner().snapshot_free_list()
    }
}

impl<S: SnapshotSource> SnapshotSource for crate::FaultyStore<S> {
    fn prepare_snapshot(&self) {
        self.inner().prepare_snapshot();
    }
    fn snapshot_live_ids(&self) -> Vec<PageId> {
        self.inner().snapshot_live_ids()
    }
    fn snapshot_free_list(&self) -> Vec<u32> {
        self.inner().snapshot_free_list()
    }
}

impl<S: SnapshotSource> SnapshotSource for crate::ChecksumStore<S> {
    fn prepare_snapshot(&self) {
        self.inner().prepare_snapshot();
    }
    fn snapshot_live_ids(&self) -> Vec<PageId> {
        self.inner().snapshot_live_ids()
    }
    fn snapshot_free_list(&self) -> Vec<u32> {
        self.inner().snapshot_free_list()
    }
}

impl<S: SnapshotSource + ?Sized> SnapshotSource for Arc<S> {
    fn prepare_snapshot(&self) {
        (**self).prepare_snapshot();
    }
    fn snapshot_live_ids(&self) -> Vec<PageId> {
        (**self).snapshot_live_ids()
    }
    fn snapshot_free_list(&self) -> Vec<u32> {
        (**self).snapshot_free_list()
    }
}

/// Serialize every live page (and the allocator free list) of a store
/// into `w`. Works through any [`SnapshotSource`] stack; caching layers
/// are flushed first so the snapshot reflects every completed write.
pub fn save_pager<S: SnapshotSource, W: Write>(store: &S, mut w: W) -> io::Result<()> {
    store.prepare_snapshot();
    let pages = store.snapshot_live_ids();
    let free = store.snapshot_free_list();
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(store.page_size() as u32).to_le_bytes())?;
    w.write_all(&(pages.len() as u32).to_le_bytes())?;
    w.write_all(&(free.len() as u32).to_le_bytes())?;
    for id in &free {
        w.write_all(&id.to_le_bytes())?;
    }
    for id in pages {
        let page = store.try_read_page(id).map_err(storage_err)?;
        // Store only the meaningful prefix: pages are zeroed on alloc and
        // writers serialize explicit lengths, so trailing zeros carry no
        // information and the checksum covers everything that does.
        let len = page.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
        w.write_all(&id.0.to_le_bytes())?;
        w.write_all(&(len as u32).to_le_bytes())?;
        w.write_all(&page_checksum(&page[..len]).to_le_bytes())?;
        w.write_all(&page[..len])?;
    }
    Ok(())
}

/// Reconstruct a pager from a stream produced by [`save_pager`].
///
/// Every persisted page keeps its original [`PageId`] and the
/// allocator's free list is restored verbatim, so both tree
/// root references and future `alloc()` order survive the roundtrip.
/// Malformed input — bad magic, unsupported version, truncation anywhere,
/// a `page_len` exceeding the page size, an out-of-range or duplicate id,
/// a free id colliding with a live page, or a checksum mismatch — yields
/// an [`io::Error`] ([`io::ErrorKind::InvalidData`] or
/// [`io::ErrorKind::UnexpectedEof`]); this function does not panic.
pub fn load_pager<R: Read>(mut r: R) -> io::Result<Pager> {
    let mut head = [0u8; 16];
    r.read_exact(&mut head)?;
    if &head[0..4] != MAGIC {
        return Err(bad("bad magic"));
    }
    let version = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
    if version != VERSION {
        return Err(bad(format!("unsupported version {version}")));
    }
    let page_size = u32::from_le_bytes([head[8], head[9], head[10], head[11]]) as usize;
    let count = u32::from_le_bytes([head[12], head[13], head[14], head[15]]) as usize;
    if page_size == 0 {
        return Err(bad("zero page size"));
    }
    if page_size > MAX_SNAPSHOT_PAGE_SIZE {
        return Err(bad(format!("implausible page size {page_size}")));
    }

    // The free list, in allocator order.
    let mut free: Vec<u32> = Vec::new();
    let mut fixed = [0u8; 4];
    r.read_exact(&mut fixed)?;
    let free_count = u32::from_le_bytes(fixed) as usize;
    if free_count > MAX_SNAPSHOT_PAGE_ID as usize {
        return Err(bad(format!("implausible free count {free_count}")));
    }
    for _ in 0..free_count {
        let mut idb = [0u8; 4];
        r.read_exact(&mut idb)?;
        let id = u32::from_le_bytes(idb);
        if id >= MAX_SNAPSHOT_PAGE_ID {
            return Err(bad(format!("free id {id} out of range")));
        }
        free.push(id);
    }

    let mut entries: Vec<(u32, Vec<u8>)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut max_id = 0u32;
    for _ in 0..count {
        let mut fixed = [0u8; 16];
        r.read_exact(&mut fixed)?;
        let id = u32::from_le_bytes([fixed[0], fixed[1], fixed[2], fixed[3]]);
        let page_len = u32::from_le_bytes([fixed[4], fixed[5], fixed[6], fixed[7]]) as usize;
        let sum = u64::from_le_bytes([
            fixed[8], fixed[9], fixed[10], fixed[11], fixed[12], fixed[13], fixed[14], fixed[15],
        ]);
        if page_len > page_size {
            return Err(bad(format!(
                "page {id}: page_len {page_len} > page size {page_size}"
            )));
        }
        if id >= MAX_SNAPSHOT_PAGE_ID {
            return Err(bad(format!("page id {id} out of range")));
        }
        if !seen.insert(id) {
            // Two entries claiming one id means the stream lies about its
            // shape: last-writer-wins loading would silently diverge
            // `live_pages()` from the declared count.
            return Err(bad(format!("duplicate page id {id}")));
        }
        let mut data = vec![0u8; page_len];
        r.read_exact(&mut data)?;
        if page_checksum(&data) != sum {
            return Err(bad(format!("page {id}: checksum mismatch")));
        }
        max_id = max_id.max(id);
        entries.push((id, data));
    }

    // Rebuild: every slot in 0..total must be exactly one of live or
    // free — that is the pager's allocator invariant, and anything else
    // means the stream is inconsistent.
    let max_free = free.iter().copied().max();
    let total = if entries.is_empty() && free.is_empty() {
        0
    } else {
        let hi = max_free.map_or(max_id, |f| f.max(max_id));
        hi as usize + 1
    };
    let mut slots: Vec<Option<Arc<[u8]>>> = vec![None; total];
    for (id, data) in &entries {
        let mut page = vec![0u8; page_size];
        page[..data.len()].copy_from_slice(data);
        slots[*id as usize] = Some(page.into());
    }
    let mut freed = std::collections::HashSet::new();
    for &id in &free {
        if seen.contains(&id) {
            return Err(bad(format!("free id {id} collides with a live page")));
        }
        if !freed.insert(id) {
            return Err(bad(format!("duplicate free id {id}")));
        }
    }
    if entries.len() + free.len() != total {
        return Err(bad(format!(
            "inconsistent snapshot: {} live + {} free != {} slots",
            entries.len(),
            free.len(),
            total
        )));
    }
    Ok(Pager::restore(page_size, slots, free))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_pages_and_ids() {
        let p = Pager::with_page_size(64);
        let a = p.alloc();
        let b = p.alloc();
        let c = p.alloc();
        p.write(a, b"alpha");
        p.write(b, b"beta");
        p.write(c, b"gamma");
        p.free(b); // leave a hole
        let mut buf = Vec::new();
        save_pager(&p, &mut buf).unwrap();

        let q = load_pager(&buf[..]).unwrap();
        assert_eq!(q.page_size(), 64);
        assert_eq!(&q.read_page(a)[..5], b"alpha");
        assert_eq!(&q.read_page(c)[..5], b"gamma");
        assert_eq!(q.live_pages(), 2);
        // The freed id is reusable.
        let d = q.alloc();
        assert_eq!(d, b);
    }

    #[test]
    fn restored_alloc_order_matches_original() {
        // Free several pages in a deliberately shuffled order, snapshot,
        // reload, and require the clone to grant ids in exactly the order
        // the original would have: this is what keeps a recovered tree's
        // page layout bit-identical to the fault-free oracle's.
        let build = || {
            let p = Pager::with_page_size(32);
            let ids: Vec<PageId> = (0..6).map(|_| p.alloc()).collect();
            for id in &ids {
                p.write(*id, &id.0.to_le_bytes());
            }
            p.free(ids[4]);
            p.free(ids[1]);
            p.free(ids[3]);
            p
        };
        let p = build();
        let mut buf = Vec::new();
        save_pager(&p, &mut buf).unwrap();
        let q = load_pager(&buf[..]).unwrap();
        assert_eq!(q.free_list(), p.free_list(), "free list survives verbatim");
        // A pristine copy of the original and the reloaded pager must pop
        // identically: last-freed first — 3, then 1, then 4.
        let oracle = build();
        for _ in 0..3 {
            assert_eq!(q.alloc(), oracle.alloc());
        }
        assert_eq!(oracle.free_list(), q.free_list());
    }

    #[test]
    fn empty_pager_roundtrip() {
        let p = Pager::with_page_size(32);
        let mut buf = Vec::new();
        save_pager(&p, &mut buf).unwrap();
        let q = load_pager(&buf[..]).unwrap();
        assert_eq!(q.live_pages(), 0);
        assert_eq!(q.page_size(), 32);
    }

    #[test]
    fn snapshot_through_a_pool_stack_flushes_first() {
        // save_pager through a pool over ChecksumStore<Pager> must flush
        // the dirty frame before reading the device.
        let pool =
            crate::ShardedBufferPool::new(crate::ChecksumStore::new(Pager::with_page_size(32)), 4, 1);
        let a = pool.alloc();
        pool.write(a, b"pooled"); // dirty in the pool, not yet on device
        let mut buf = Vec::new();
        save_pager(&pool, &mut buf).unwrap();
        let q = load_pager(&buf[..]).unwrap();
        assert_eq!(&q.read_page(a)[..6], b"pooled");
    }

    /// A small valid snapshot with one page, for mutation tests.
    /// Layout (v3, empty free list): 16-byte header ‖ free_count at 16
    /// ‖ first page entry at 20.
    fn one_page_snapshot() -> Vec<u8> {
        let p = Pager::with_page_size(16);
        let a = p.alloc();
        p.write(a, b"payload");
        let mut buf = Vec::new();
        save_pager(&p, &mut buf).unwrap();
        buf
    }

    fn expect_invalid(buf: &[u8], needle: &str) {
        let err = load_pager(buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(
            err.to_string().contains(needle),
            "error {err:?} should mention {needle:?}"
        );
    }

    #[test]
    fn bad_magic_rejected() {
        expect_invalid(b"NOPE\0\0\0\0\0\0\0\0\0\0\0\0", "bad magic");
    }

    #[test]
    fn unsupported_version_rejected() {
        // 2 was the last free-list-less format; nothing reads it any more.
        for version in [2, 99] {
            let mut buf = one_page_snapshot();
            buf[4] = version;
            expect_invalid(&buf, "unsupported version");
        }
    }

    #[test]
    fn truncated_header_is_eof_not_panic() {
        let buf = one_page_snapshot();
        for cut in 0..16 {
            let err = load_pager(&buf[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn truncated_page_payload_is_eof_not_panic() {
        let buf = one_page_snapshot();
        // Any cut inside the free section or per-page region must fail
        // cleanly.
        for cut in 16..buf.len() {
            assert!(load_pager(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn page_len_exceeding_page_size_rejected() {
        let mut buf = one_page_snapshot();
        // Per-page page_len lives at offset 24 (header ‖ free_count ‖ id).
        buf[24..28].copy_from_slice(&1000u32.to_le_bytes());
        expect_invalid(&buf, "page size");
    }

    #[test]
    fn implausible_page_size_rejected_without_allocation() {
        let mut buf = one_page_snapshot();
        buf[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        expect_invalid(&buf, "implausible page size");
    }

    #[test]
    fn out_of_range_page_id_rejected() {
        // A crafted id near u32::MAX would otherwise make the dense
        // rebuild allocate billions of pages (and overflow the pager's
        // own id space).
        let mut buf = one_page_snapshot();
        buf[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        expect_invalid(&buf, "out of range");
    }

    #[test]
    fn flipped_payload_byte_fails_checksum() {
        let mut buf = one_page_snapshot();
        let last = buf.len() - 1; // inside the payload
        buf[last] ^= 0xFF;
        expect_invalid(&buf, "checksum mismatch");
    }

    #[test]
    fn declared_count_beyond_stream_is_clean_error() {
        let mut buf = one_page_snapshot();
        buf[12..16].copy_from_slice(&7u32.to_le_bytes()); // claims 7 pages
        assert!(load_pager(&buf[..]).is_err());
    }

    #[test]
    fn duplicate_page_id_rejected() {
        // Two entries for page 0: before the check, the second silently
        // overwrote the first (last-writer-wins) and live_pages() came up
        // short of the declared count.
        let p = Pager::with_page_size(16);
        let a = p.alloc();
        p.write(a, b"payload");
        let mut buf = Vec::new();
        save_pager(&p, &mut buf).unwrap();
        let entry = buf[20..].to_vec();
        buf.extend_from_slice(&entry); // append a second copy of page 0
        buf[12..16].copy_from_slice(&2u32.to_le_bytes()); // declare 2 pages
        expect_invalid(&buf, "duplicate page id");
    }

    #[test]
    fn free_id_colliding_with_live_page_rejected() {
        let mut buf = one_page_snapshot();
        // Splice in a free list [0] — but page 0 is live.
        let mut crafted = buf[..16].to_vec();
        crafted.extend_from_slice(&1u32.to_le_bytes());
        crafted.extend_from_slice(&0u32.to_le_bytes());
        crafted.extend_from_slice(&buf[20..]);
        buf = crafted;
        expect_invalid(&buf, "collides");
    }

    #[test]
    fn gap_neither_live_nor_free_rejected() {
        // One live page with id 2 and an empty free list leaves slots 0
        // and 1 unaccounted for — a v3 stream must explain every slot.
        let payload = b"payload";
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&16u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes()); // empty free list
        buf.extend_from_slice(&2u32.to_le_bytes()); // live id 2
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&page_checksum(payload).to_le_bytes());
        buf.extend_from_slice(payload);
        expect_invalid(&buf, "inconsistent snapshot");
    }
}
