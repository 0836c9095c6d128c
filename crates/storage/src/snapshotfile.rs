//! Persisting a simulated disk to a real file.
//!
//! Building the paper's full index takes ≈500 k insertions; persisting
//! the page store lets benches and applications build once and reload.
//! The format is deliberately simple and versioned:
//!
//! ```text
//! magic "DQPG" ‖ version u32 ‖ page_size u32 ‖ page_count u32
//! then pages 0..page_count in id order: page_len u32 ‖ fnv1a u64 ‖ page bytes (page_len)
//! ```
//!
//! Each page stores its meaningful prefix (trailing zeros trimmed) with
//! an FNV-1a checksum, so a truncated or bit-flipped snapshot is rejected
//! at load with an [`io::Error`] — `load_pager` never panics on malformed
//! input.
//!
//! Version 4 carries no page ids and no free list: a store never frees,
//! so its ids are exactly `0..page_count` and a page's position in the
//! stream is its id. A reloaded pager therefore grants `page_count` next,
//! as the saved one would. Version 3 carried a free-list section and an
//! id per page; nothing writes it any more and it is rejected.

use crate::fault::page_checksum;
use crate::{PageId, PageStore, Pager, StorageError};
use std::io::{self, Read, Write};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"DQPG";
const VERSION: u32 = 4;

/// Most pages a snapshot may declare: bounds what a malformed header can
/// make a load believe it has to hold.
const MAX_SNAPSHOT_PAGES: u32 = 1 << 26;

/// Largest believable page size; guards the per-page buffer on load.
const MAX_SNAPSHOT_PAGE_SIZE: usize = 1 << 28;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn storage_err(e: StorageError) -> io::Error {
    io::Error::other(format!("snapshot read failed: {e}"))
}

/// A store that can be checkpointed by [`save_pager`]: reports its page
/// count and can flush any caching layer so the device and the snapshot
/// agree. Implemented by [`Pager`] and forwarded by every wrapper, so a
/// whole serving stack (pool over checksum over pager) checkpoints
/// through its top handle.
pub trait SnapshotSource: PageStore {
    /// Make the underlying device current (write-back caches flush here).
    fn prepare_snapshot(&self) {}

    /// The device's [`Pager::page_count`]: its ids are `0..` this.
    fn snapshot_page_count(&self) -> u32;
}

impl SnapshotSource for Pager {
    fn snapshot_page_count(&self) -> u32 {
        self.page_count()
    }
}

impl<S: SnapshotSource> SnapshotSource for crate::ShardedBufferPool<S> {
    fn prepare_snapshot(&self) {
        self.flush();
        self.inner().prepare_snapshot();
    }
    fn snapshot_page_count(&self) -> u32 {
        self.inner().snapshot_page_count()
    }
}

impl<S: SnapshotSource> SnapshotSource for crate::FaultyStore<S> {
    fn prepare_snapshot(&self) {
        self.inner().prepare_snapshot();
    }
    fn snapshot_page_count(&self) -> u32 {
        self.inner().snapshot_page_count()
    }
}

impl<S: SnapshotSource> SnapshotSource for crate::ChecksumStore<S> {
    fn prepare_snapshot(&self) {
        self.inner().prepare_snapshot();
    }
    fn snapshot_page_count(&self) -> u32 {
        self.inner().snapshot_page_count()
    }
}

impl<S: SnapshotSource + ?Sized> SnapshotSource for Arc<S> {
    fn prepare_snapshot(&self) {
        (**self).prepare_snapshot();
    }
    fn snapshot_page_count(&self) -> u32 {
        (**self).snapshot_page_count()
    }
}

/// Serialize every page of a store, in id order, into `w`. Works through
/// any [`SnapshotSource`] stack; caching layers are flushed first so the
/// snapshot reflects every completed write.
pub fn save_pager<S: SnapshotSource, W: Write>(store: &S, mut w: W) -> io::Result<()> {
    store.prepare_snapshot();
    let count = store.snapshot_page_count();
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(store.page_size() as u32).to_le_bytes())?;
    w.write_all(&count.to_le_bytes())?;
    for id in (0..count).map(PageId) {
        let page = store.try_read_page(id).map_err(storage_err)?;
        // Store only the meaningful prefix: pages are zeroed on alloc and
        // writers serialize explicit lengths, so trailing zeros carry no
        // information and the checksum covers everything that does.
        let len = page.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
        w.write_all(&(len as u32).to_le_bytes())?;
        w.write_all(&page_checksum(&page[..len]).to_le_bytes())?;
        w.write_all(&page[..len])?;
    }
    Ok(())
}

/// Reconstruct a pager from a stream produced by [`save_pager`].
///
/// Page `i` of the stream is page id `i`, so tree root references survive
/// the roundtrip and the reloaded pager's next `alloc()` is
/// `page_count`, as the saved one's was. Malformed input — bad magic, an
/// unsupported version, an implausible page size or count, truncation
/// anywhere, a `page_len` exceeding the page size, or a checksum
/// mismatch — yields an [`io::Error`] ([`io::ErrorKind::InvalidData`] or
/// [`io::ErrorKind::UnexpectedEof`]); this function does not panic.
pub fn load_pager<R: Read>(mut r: R) -> io::Result<Pager> {
    let mut head = [0u8; 16];
    r.read_exact(&mut head)?;
    let word = |at: usize| u32::from_le_bytes([head[at], head[at + 1], head[at + 2], head[at + 3]]);
    if &head[0..4] != MAGIC {
        return Err(bad("bad magic"));
    }
    let version = word(4);
    if version != VERSION {
        return Err(bad(format!("unsupported version {version}")));
    }
    let page_size = word(8) as usize;
    if page_size == 0 {
        return Err(bad("zero page size"));
    }
    if page_size > MAX_SNAPSHOT_PAGE_SIZE {
        return Err(bad(format!("implausible page size {page_size}")));
    }
    let count = word(12);
    if count > MAX_SNAPSHOT_PAGES {
        return Err(bad(format!("implausible page count {count}")));
    }

    // Grown page by page, not sized by `count`: a stream that lies about
    // its length ends in EOF, not in one huge allocation.
    let mut pages: Vec<Arc<[u8]>> = Vec::new();
    for id in 0..count {
        let mut fixed = [0u8; 12];
        r.read_exact(&mut fixed)?;
        let page_len = u32::from_le_bytes([fixed[0], fixed[1], fixed[2], fixed[3]]) as usize;
        let sum = u64::from_le_bytes([
            fixed[4], fixed[5], fixed[6], fixed[7], fixed[8], fixed[9], fixed[10], fixed[11],
        ]);
        if page_len > page_size {
            return Err(bad(format!(
                "page {id}: page_len {page_len} > page size {page_size}"
            )));
        }
        let mut page = vec![0u8; page_size];
        r.read_exact(&mut page[..page_len])?;
        if page_checksum(&page[..page_len]) != sum {
            return Err(bad(format!("page {id}: checksum mismatch")));
        }
        pages.push(page.into());
    }
    Ok(Pager::restore(page_size, pages))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three pages, the middle one never written.
    fn three_pages() -> Pager {
        let p = Pager::with_page_size(64);
        let ids: Vec<PageId> = (0..3).map(|_| p.alloc()).collect();
        p.write(ids[0], b"alpha");
        p.write(ids[2], b"gamma");
        p
    }

    #[test]
    fn roundtrip_keeps_every_page_and_the_next_id() {
        let p = three_pages();
        let mut buf = Vec::new();
        save_pager(&p, &mut buf).unwrap();

        let q = load_pager(&buf[..]).unwrap();
        assert_eq!(q.page_size(), 64);
        assert_eq!(q.page_count(), p.page_count());
        for id in (0..p.page_count()).map(PageId) {
            assert_eq!(&q.read_page(id)[..], &p.read_page(id)[..], "{id}");
        }
        assert_eq!(
            q.alloc(),
            PageId(3),
            "a reloaded pager grants page_count next"
        );
    }

    #[test]
    fn empty_pager_roundtrip() {
        let p = Pager::with_page_size(32);
        let mut buf = Vec::new();
        save_pager(&p, &mut buf).unwrap();
        let q = load_pager(&buf[..]).unwrap();
        assert_eq!(q.page_count(), 0);
        assert_eq!(q.page_size(), 32);
    }

    #[test]
    fn snapshot_through_a_pool_stack_flushes_first() {
        // save_pager through a pool over ChecksumStore<Pager> must flush
        // the dirty frames before reading the device, and write as many
        // pages as the device granted.
        let pool = crate::ShardedBufferPool::new(
            crate::ChecksumStore::new(Pager::with_page_size(32)),
            4,
            1,
        );
        let ids: Vec<PageId> = (0..6).map(|_| pool.alloc()).collect();
        for (i, id) in ids.iter().enumerate() {
            pool.write(*id, &[b'p', i as u8 + 1]); // dirty in the pool
        }
        let mut buf = Vec::new();
        save_pager(&pool, &mut buf).unwrap();
        let q = load_pager(&buf[..]).unwrap();
        assert_eq!(q.page_count(), 6);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(&q.read_page(*id)[..2], &[b'p', i as u8 + 1]);
        }
        assert_eq!(q.alloc(), PageId(6));
    }

    /// A small valid snapshot with one page, for mutation tests.
    /// Layout: 16-byte header ‖ page_len at 16 ‖ checksum at 20 ‖ bytes
    /// at 28.
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
        // 3 was the free-list format; nothing reads it any more.
        for version in [2, 3, 99] {
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
    fn truncated_page_is_eof_not_panic() {
        let buf = one_page_snapshot();
        for cut in 16..buf.len() {
            let err = load_pager(&buf[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn page_len_exceeding_page_size_rejected() {
        let mut buf = one_page_snapshot();
        buf[16..20].copy_from_slice(&1000u32.to_le_bytes());
        expect_invalid(&buf, "page size");
    }

    #[test]
    fn implausible_page_size_rejected_without_allocation() {
        let mut buf = one_page_snapshot();
        buf[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        expect_invalid(&buf, "implausible page size");
    }

    #[test]
    fn implausible_page_count_rejected_without_allocation() {
        let mut buf = one_page_snapshot();
        buf[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        expect_invalid(&buf, "implausible page count");
    }

    #[test]
    fn flipped_payload_byte_fails_checksum() {
        let mut buf = one_page_snapshot();
        let last = buf.len() - 1; // inside the payload
        buf[last] ^= 0xFF;
        expect_invalid(&buf, "checksum mismatch");
    }

    #[test]
    fn declared_count_beyond_stream_is_eof() {
        let mut buf = one_page_snapshot();
        buf[12..16].copy_from_slice(&7u32.to_le_bytes()); // claims 7 pages
        let err = load_pager(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    }
}
