//! One LRU domain of page frames: what each shard of
//! [`crate::ShardedBufferPool`] is. The tests here pin the LRU itself
//! through a one-shard pool.
//!
//! §4 of the paper argues that an LRU buffer at the server cannot replace
//! dynamic-query processing: buffering happens per session and a server
//! holding per-session buffers for many clients cannot scale. The
//! `ablation_buffer` bench quantifies that argument — how much of the
//! naive approach's repeated I/O an LRU of a given size actually absorbs,
//! compared to the PDQ/NPDQ algorithms which need none.

use crate::{make_mut_page, PageId, PageStore};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// `2^64` over the golden ratio, odd: multiplying by it permutes the low
/// bits of a key and mixes every bit into the high ones.
pub(crate) const GOLDEN_64: u64 = 0x9E37_79B9_7F4A_7C15;

/// Hashes a [`PageId`] with one multiply by [`GOLDEN_64`], as
/// [`crate::ShardedBufferPool::shard_of`] routes it. Page ids are the
/// store's own dense `0..page_count()`: the product's low bits, which
/// pick a bucket, are a bijection of the id's, and its top bits, which
/// the table's tag bytes take, mix all of them. A pool hit makes about
/// eight lookups (find, unlink, relink): with SipHash a hit took 159 ns
/// on `dqbench --workload ingest --trace 1`, with this 66 ns.
#[derive(Default)]
pub(crate) struct PageIdHasher(u64);

impl Hasher for PageIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(GOLDEN_64);
        }
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = u64::from(id).wrapping_mul(GOLDEN_64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One resident page plus its position in the intrusive LRU list.
///
/// The payload is `Arc<[u8]>` so a cache hit is a refcount bump, not a
/// page copy, and eviction is free even while readers hold [`PageRef`]s
/// into the frame — the bytes outlive the frame.
pub(crate) struct Frame {
    pub(crate) data: Arc<[u8]>,
    pub(crate) dirty: bool,
    prev: Option<PageId>,
    next: Option<PageId>,
}

impl Frame {
    pub(crate) fn resident(data: Arc<[u8]>, dirty: bool) -> Frame {
        Frame {
            data,
            dirty,
            prev: None,
            next: None,
        }
    }

    /// Overwrite the frame in place, copying first if a [`PageRef`] still
    /// shares the buffer. Like the pager, the tail beyond `data` keeps its
    /// previous contents.
    pub(crate) fn overwrite(&mut self, data: &[u8], page_size: usize) {
        make_mut_page(&mut self.data, page_size)[..data.len()].copy_from_slice(data);
        self.dirty = true;
    }
}

/// One LRU domain: one shard of [`crate::ShardedBufferPool`].
pub(crate) struct PoolState {
    pub(crate) frames: HashMap<PageId, Frame, BuildHasherDefault<PageIdHasher>>,
    /// Most recently used page.
    head: Option<PageId>,
    /// Least recently used page (eviction candidate).
    tail: Option<PageId>,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    pub(crate) evictions: u64,
}

impl PoolState {
    pub(crate) fn empty() -> PoolState {
        PoolState {
            frames: HashMap::default(),
            head: None,
            tail: None,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Drop all frames, keeping the counters.
    pub(crate) fn reset(&mut self) {
        self.frames.clear();
        self.head = None;
        self.tail = None;
    }

    /// Evict least-recently-used frames until `capacity` leaves room for
    /// one more, writing dirty victims back to `device`.
    pub(crate) fn evict_if_full<S: PageStore>(&mut self, device: &S, capacity: usize) {
        while self.frames.len() >= capacity {
            let victim = self.tail.expect("non-empty pool must have a tail");
            self.unlink(victim);
            let frame = self.frames.remove(&victim).unwrap();
            if frame.dirty {
                device.write(victim, &frame.data);
            }
            self.evictions += 1;
        }
    }

    /// Write every dirty frame back to `device`.
    pub(crate) fn flush_to<S: PageStore>(&mut self, device: &S) {
        for (&id, f) in self.frames.iter_mut() {
            if f.dirty {
                f.dirty = false;
                device.write(id, &f.data);
            }
        }
    }

    /// Unlink `id` from the LRU list (must be resident).
    fn unlink(&mut self, id: PageId) {
        let (prev, next) = {
            let f = &self.frames[&id];
            (f.prev, f.next)
        };
        match prev {
            Some(p) => self.frames.get_mut(&p).unwrap().next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.frames.get_mut(&n).unwrap().prev = prev,
            None => self.tail = prev,
        }
        let f = self.frames.get_mut(&id).unwrap();
        f.prev = None;
        f.next = None;
    }

    /// Push `id` to the head (most recently used) position.
    pub(crate) fn push_front(&mut self, id: PageId) {
        let old_head = self.head;
        {
            let f = self.frames.get_mut(&id).unwrap();
            f.prev = None;
            f.next = old_head;
        }
        if let Some(h) = old_head {
            self.frames.get_mut(&h).unwrap().prev = Some(id);
        }
        self.head = Some(id);
        if self.tail.is_none() {
            self.tail = Some(id);
        }
    }

    pub(crate) fn touch(&mut self, id: PageId) {
        if self.head == Some(id) {
            return;
        }
        self.unlink(id);
        self.push_front(id);
    }
}

/// Cache statistics reported by [`crate::ShardedBufferPool::cache_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads served from the pool.
    pub hits: u64,
    /// Reads that went to the underlying store.
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; 0 when no reads were made.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{PageId, PageStore, Pager, ShardedBufferPool};

    fn pool(cap: usize) -> ShardedBufferPool<Pager> {
        ShardedBufferPool::new(Pager::with_page_size(32), cap, 1)
    }

    #[test]
    fn repeated_reads_hit_cache() {
        let p = pool(4);
        let id = p.alloc();
        p.write(id, &[7]);
        p.clear(); // start cold
        let before = p.io();
        for _ in 0..10 {
            assert_eq!(p.read_page(id)[0], 7);
        }
        let delta = p.io() - before;
        assert_eq!(delta.reads, 1); // only the first read hits the disk
        let cs = p.cache_stats();
        assert_eq!(cs.hits, 9);
        assert_eq!(cs.misses, 1);
        assert!(cs.hit_ratio() > 0.89);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let p = pool(2);
        let a = p.alloc();
        let b = p.alloc();
        let c = p.alloc();
        for id in [a, b, c] {
            p.write(id, &[id.0 as u8]);
        }
        p.flush();
        p.clear();
        p.read_page(a); // resident: [a]
        p.read_page(b); // resident: [b, a]
        p.read_page(a); // touch a:  [a, b]
        p.read_page(c); // evicts b: [c, a]
        let before = p.io();
        p.read_page(a); // hit
        p.read_page(c); // hit
        assert_eq!((p.io() - before).reads, 0);
        p.read_page(b); // miss — was evicted
        assert_eq!((p.io() - before).reads, 1);
        assert!(p.cache_stats().evictions >= 1);
    }

    #[test]
    fn dirty_pages_written_back_on_eviction() {
        let p = pool(1);
        let a = p.alloc();
        let b = p.alloc();
        p.write(a, &[42]); // dirty, resident
        p.read_page(b); // evicts a ⇒ must flush
        // Bypass the pool: the underlying pager must have the new bytes.
        assert_eq!(p.inner().read_page(a)[0], 42);
    }

    #[test]
    fn write_through_cache_roundtrip() {
        let p = pool(4);
        let a = p.alloc();
        p.write(a, &[1, 2, 3]);
        assert_eq!(&p.read_page(a)[..3], &[1, 2, 3]); // served before any flush
    }

    #[test]
    fn miss_heavy_scan_respects_capacity() {
        // Regression: the read-miss fill must evict *before* inserting, so
        // the resident count stays ≤ capacity with zero reuse in the scan.
        let p = pool(4);
        let ids: Vec<PageId> = (0..64).map(|_| p.alloc()).collect();
        for id in &ids {
            p.read_page(*id);
            assert!(
                p.resident_frames() <= 4,
                "resident {} frames > capacity 4",
                p.resident_frames()
            );
        }
        let cs = p.cache_stats();
        assert_eq!(cs.misses, 64);
        assert_eq!(cs.evictions, 60);
    }

    #[test]
    fn page_ref_survives_eviction_and_overwrite() {
        let p = pool(1);
        let a = p.alloc();
        let b = p.alloc();
        p.write(a, &[5]);
        let snap = p.read_page(a);
        p.read_page(b); // evicts `a` while `snap` is outstanding
        p.write(a, &[6]); // rewrites `a` behind the snapshot
        assert_eq!(snap[0], 5); // snapshot bytes unchanged
        assert_eq!(p.read_page(a)[0], 6);
    }
}
