//! Sharded LRU buffer pool for concurrent serving.
//!
//! One LRU behind one mutex serializes every page access — fine for
//! single-session benches (ask for one shard), a bottleneck when a server
//! runs many query sessions over one shared tree. [`ShardedBufferPool`]
//! routes each page to one of N independent LRU shards by a
//! multiplicative hash of its [`PageId`], so concurrent readers of
//! different pages contend only on their shard's lock. Capacity and the
//! hit/miss/eviction counters are per shard;
//! [`ShardedBufferPool::cache_stats`] aggregates them.

use crate::buffer::{CacheStats, Frame, PoolState, GOLDEN_64};
use crate::fault::{FaultRecovery, FaultRecoveryStats, RetryPolicy, StorageError};
use crate::{IoSnapshot, PageId, PageRef, PageStore};
use parking_lot::Mutex;
use std::sync::Arc;

/// A fixed-capacity LRU page cache split into independently locked
/// shards, in front of any [`PageStore`].
///
/// Write-back: dirty pages are flushed when evicted or on
/// [`Self::flush`]. Reads served from the pool do **not** touch the
/// underlying device, so `io()` (which delegates to the device) reports
/// only true disk accesses. Total capacity is divided evenly among
/// shards (rounded up), so a pathological workload hammering one shard
/// sees roughly `capacity / shards` frames, not zero.
pub struct ShardedBufferPool<S> {
    inner: S,
    shards: Vec<Mutex<PoolState>>,
    /// Frame budget per shard.
    shard_capacity: usize,
    /// `log2(shards.len())`; the shard count is a power of two.
    shard_bits: u32,
    recovery: FaultRecovery,
}

impl<S: PageStore> ShardedBufferPool<S> {
    /// Wrap `inner` with `capacity` total frames split over `shards`
    /// independently locked LRU domains. `shards` is rounded up to a
    /// power of two (minimum 1).
    pub fn new(inner: S, capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "buffer pool capacity must be positive");
        let shards = shards.max(1).next_power_of_two();
        let shard_capacity = capacity.div_ceil(shards).max(1);
        ShardedBufferPool {
            inner,
            shards: (0..shards).map(|_| Mutex::new(PoolState::empty())).collect(),
            shard_capacity,
            shard_bits: shards.trailing_zeros(),
            recovery: FaultRecovery::new(RetryPolicy::none()),
        }
    }

    /// Retry transient device faults on miss fills per `policy` (the
    /// default pool surfaces the first error). The retry loop — and its
    /// backoff sleeps — runs with *no* shard lock held, so even readers
    /// hashing to the failing page's shard keep serving while one read
    /// backs off; the fill re-acquires and re-validates afterwards.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.recovery = FaultRecovery::new(policy);
        self
    }

    /// Snapshot of the retry/corruption counters (pool-wide, not per
    /// shard — faults are device weather, not routing).
    pub fn fault_stats(&self) -> FaultRecoveryStats {
        self.recovery.stats()
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `id` routes to.
    ///
    /// 64-bit Fibonacci hashing with *top*-bit extraction: the golden
    /// ratio's low bits repeat with small periods, so multiplying by the
    /// 32-bit constant and reading bits 16.. (as a previous revision did)
    /// collapses strided `PageId` sequences — e.g. every id that is a
    /// multiple of 2²⁰ landed on shard 0 — starving shards under the
    /// regular layouts bulk loading produces. The product's *top* bits
    /// mix every input bit, keeping sequential and strided sequences
    /// within a small factor of uniform (see `shard_distribution_*`).
    pub fn shard_of(&self, id: PageId) -> usize {
        if self.shard_bits == 0 {
            return 0;
        }
        let h = (id.0 as u64).wrapping_mul(GOLDEN_64);
        (h >> (u64::BITS - self.shard_bits)) as usize
    }

    fn shard(&self, id: PageId) -> &Mutex<PoolState> {
        &self.shards[self.shard_of(id)]
    }

    /// Aggregated cache statistics over all shards.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let st = shard.lock();
            total.hits += st.hits;
            total.misses += st.misses;
            total.evictions += st.evictions;
        }
        total
    }

    /// Write all dirty pages back to the underlying store.
    pub fn flush(&self) {
        for shard in &self.shards {
            shard.lock().flush_to(&self.inner);
        }
    }

    /// Drop every cached page (flushing dirty ones first).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut st = shard.lock();
            st.flush_to(&self.inner);
            st.reset();
        }
    }

    /// Number of pages currently resident across all shards.
    pub fn resident_frames(&self) -> usize {
        self.shards.iter().map(|s| s.lock().frames.len()).sum()
    }

    /// Access the wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: PageStore> PageStore for ShardedBufferPool<S> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn try_read_page(&self, id: PageId) -> Result<PageRef, StorageError> {
        let mut st = self.shard(id).lock();
        if st.frames.contains_key(&id) {
            st.hits += 1;
            st.touch(id);
            return Ok(PageRef::from_arc(Arc::clone(&st.frames[&id].data)));
        }
        st.misses += 1;
        // Miss fill shares the device's buffer (no copy) and evicts
        // *before* the insert, keeping each shard at ≤ shard_capacity.
        // The fault-free fill stays under the shard lock; the retry loop
        // (with its backoff sleeps) drops it first, so a faulted page
        // stalls no other reader of this shard during backoff.
        let data = match self.inner.try_read_page(id) {
            Ok(page) => page.into_arc(),
            Err(first) => {
                drop(st);
                // The miss counted above pairs with the one successful
                // device read `recover` performs; a concurrent reader that
                // fills the frame while we sleep counts its own miss and
                // its own read, so misses == device reads still holds.
                let data = self.recovery.recover(&self.inner, id, first)?.into_arc();
                st = self.shard(id).lock();
                if let Some(frame) = st.frames.get(&id) {
                    // Re-validate after re-acquiring: never clobber a
                    // frame someone installed meanwhile (it may be dirty).
                    let data = Arc::clone(&frame.data);
                    st.touch(id);
                    return Ok(PageRef::from_arc(data));
                }
                data
            }
        };
        st.evict_if_full(&self.inner, self.shard_capacity);
        st.frames.insert(id, Frame::resident(Arc::clone(&data), false));
        st.push_front(id);
        Ok(PageRef::from_arc(data))
    }

    fn write(&self, id: PageId, data: &[u8]) {
        assert!(data.len() <= self.page_size(), "page overflow");
        let mut st = self.shard(id).lock();
        if st.frames.contains_key(&id) {
            let size = self.page_size();
            st.frames.get_mut(&id).unwrap().overwrite(data, size);
            st.touch(id);
            return;
        }
        st.evict_if_full(&self.inner, self.shard_capacity);
        let mut buf = vec![0u8; self.page_size()];
        buf[..data.len()].copy_from_slice(data);
        st.frames.insert(id, Frame::resident(buf.into(), true));
        st.push_front(id);
    }

    fn try_alloc(&self) -> Result<PageId, StorageError> {
        self.inner.try_alloc()
    }

    fn io(&self) -> IoSnapshot {
        self.inner.io()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pager;

    fn pool(cap: usize, shards: usize) -> ShardedBufferPool<Pager> {
        ShardedBufferPool::new(Pager::with_page_size(32), cap, shards)
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(pool(64, 1).shard_count(), 1);
        assert_eq!(pool(64, 3).shard_count(), 4);
        assert_eq!(pool(64, 8).shard_count(), 8);
        assert_eq!(pool(2, 8).shard_count(), 8); // capacity floor of 1/shard
    }

    #[test]
    fn repeated_reads_hit_cache() {
        let p = pool(16, 4);
        let id = p.alloc();
        p.write(id, &[7]);
        p.clear();
        let before = p.io();
        for _ in 0..10 {
            assert_eq!(p.read_page(id)[0], 7);
        }
        assert_eq!((p.io() - before).reads, 1);
        let cs = p.cache_stats();
        assert_eq!(cs.hits, 9);
        assert_eq!(cs.misses, 1);
    }

    #[test]
    fn reads_share_the_resident_frame_and_the_device_buffer() {
        // Zero-copy: a miss fill keeps the device's buffer, and every hit
        // hands out that same frame rather than a copy of it.
        let p = pool(16, 4);
        let id = p.alloc();
        p.write(id, &[7]);
        p.clear();
        let filled = p.read_page(id);
        assert_eq!(filled.as_ptr(), p.inner().read_page(id).as_ptr(), "miss fill copied");
        for _ in 0..2 {
            assert_eq!(p.read_page(id).as_ptr(), filled.as_ptr(), "hit copied its frame");
        }
        let cs = p.cache_stats();
        assert_eq!((cs.hits, cs.misses), (2, 1));
    }

    #[test]
    fn eviction_respects_per_shard_capacity() {
        // 4 shards × 1 frame: touching many pages must evict, but every
        // page stays readable with correct contents.
        let p = pool(4, 4);
        let ids: Vec<PageId> = (0..32).map(|_| p.alloc()).collect();
        for (i, id) in ids.iter().enumerate() {
            p.write(*id, &[i as u8]);
        }
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(p.read_page(*id)[0], i as u8);
        }
        assert!(p.cache_stats().evictions > 0);
    }

    #[test]
    fn dirty_pages_written_back_on_eviction_and_flush() {
        let p = pool(4, 4);
        let ids: Vec<PageId> = (0..16).map(|_| p.alloc()).collect();
        for (i, id) in ids.iter().enumerate() {
            p.write(*id, &[i as u8 + 1]);
        }
        p.flush();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(p.inner().read_page(*id)[0], i as u8 + 1);
        }
    }

    #[test]
    fn miss_heavy_scan_respects_capacity() {
        // Regression: every shard must evict before a miss fill, so a scan
        // with no reuse never pushes the pool past its total budget.
        let p = pool(8, 4);
        let ids: Vec<PageId> = (0..128).map(|_| p.alloc()).collect();
        for id in &ids {
            p.read_page(*id);
            assert!(
                p.resident_frames() <= 8,
                "resident {} frames > capacity 8",
                p.resident_frames()
            );
        }
        assert_eq!(p.cache_stats().misses, 128);
    }

    /// The routing the fixed hash replaced: 32-bit Fibonacci constant,
    /// bits 16.. — kept here as the regression reference.
    fn old_shard_of(id: PageId, mask: usize) -> usize {
        let h = (id.0 as usize).wrapping_mul(0x9E37_79B9);
        (h >> 16) & mask
    }

    /// Max/min shard load for `n` ids generated by `gen`, routed by `f`.
    fn load_spread(shards: usize, n: u32, gen: impl Fn(u32) -> u32, f: impl Fn(PageId) -> usize) -> (usize, usize) {
        let mut counts = vec![0usize; shards];
        for i in 0..n {
            counts[f(PageId(gen(i)))] += 1;
        }
        (
            *counts.iter().max().unwrap(),
            *counts.iter().min().unwrap(),
        )
    }

    #[test]
    fn shard_distribution_sequential_and_strided_within_2x_of_uniform() {
        // Strides cover the regular layouts a pager/bulk-loader produces:
        // consecutive ids, small strides, and large power-of-two strides
        // (the case the 32-bit-constant routing collapsed entirely).
        let n = 4096u32;
        for &shards in &[2usize, 4, 16] {
            let p = pool(shards * 4, shards);
            assert_eq!(p.shard_count(), shards);
            for &stride in &[1u32, 2, 7, 16, 64, 1 << 16, 1 << 20] {
                let (max, min) =
                    load_spread(shards, n, |i| i.wrapping_mul(stride), |id| p.shard_of(id));
                let uniform = n as usize / shards;
                assert!(
                    max <= 2 * uniform,
                    "{shards} shards, stride {stride}: hottest shard got {max} of {n} \
                     (uniform {uniform})"
                );
                assert!(
                    min > 0,
                    "{shards} shards, stride {stride}: a shard starved (min 0, max {max})"
                );
            }
        }
    }

    #[test]
    fn old_32bit_routing_fails_the_distribution_bound() {
        // Proof the distribution test has teeth: the replaced routing
        // sends EVERY id with stride 2^20 to shard 0 on a 16-shard pool
        // (the product's bits 16..20 are zero whenever the low 20 input
        // bits are), which is exactly the skew the fix removes.
        let shards = 16usize;
        let n = 4096u32;
        let (max, min) = load_spread(shards, n, |i| i.wrapping_mul(1 << 20), |id| {
            old_shard_of(id, shards - 1)
        });
        assert_eq!(max, n as usize, "old routing clustered everything");
        assert_eq!(min, 0, "old routing starved every other shard");
    }

    #[test]
    fn strided_reads_starve_no_shard() {
        // Route real reads (not just the hash): every shard sees traffic.
        let shards = 4usize;
        let p = pool(shards * 8, shards);
        let mut ids = Vec::new();
        // Allocate a dense id range, then touch a strided subset.
        for _ in 0..1024 {
            ids.push(p.alloc());
        }
        let mut per_shard = vec![0u64; shards];
        for id in ids.iter().step_by(16) {
            p.read_page(*id);
            per_shard[p.shard_of(*id)] += 1;
        }
        let total: u64 = per_shard.iter().sum();
        assert_eq!(total, p.cache_stats().misses, "every strided read is one miss");
        let max = *per_shard.iter().max().unwrap();
        let min = *per_shard.iter().min().unwrap();
        assert!(min > 0, "a shard saw no traffic: {per_shard:?}");
        assert!(
            max <= 2 * (total / shards as u64).max(1),
            "shard skew beyond 2x of uniform: {per_shard:?}"
        );
    }

    #[test]
    fn concurrent_readers_see_consistent_pages() {
        use std::sync::Arc;
        let p = Arc::new(pool(32, 8));
        let ids: Vec<PageId> = (0..64).map(|_| p.alloc()).collect();
        for (i, id) in ids.iter().enumerate() {
            p.write(*id, &[i as u8]);
        }
        std::thread::scope(|s| {
            for t in 0..4 {
                let p = Arc::clone(&p);
                let ids = ids.clone();
                s.spawn(move || {
                    for round in 0..50 {
                        for (i, id) in ids.iter().enumerate() {
                            if (i + t + round) % 3 == 0 {
                                assert_eq!(p.read_page(*id)[0], i as u8);
                            }
                        }
                    }
                });
            }
        });
        let cs = p.cache_stats();
        assert!(cs.hits > 0 && cs.misses > 0);
    }
    /// Regression for retrying under the shard lock: while one miss fill
    /// backs off through transient faults, other readers hashing to the
    /// *same* shard must keep serving — the sleeps happen with the lock
    /// released, and the miss/device-read pairing survives the detour.
    #[test]
    fn backoff_does_not_stall_other_readers_of_the_shard() {
        use crate::fault::RetryPolicy;
        use crate::{PageRef, StorageError};
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::time::{Duration, Instant};

        /// Fails `victim` transiently `remaining` times, then serves it.
        struct StickyFault {
            inner: Pager,
            victim: PageId,
            remaining: AtomicU32,
        }
        impl crate::PageStore for StickyFault {
            fn page_size(&self) -> usize {
                self.inner.page_size()
            }
            fn try_read_page(&self, id: PageId) -> Result<PageRef, StorageError> {
                if id == self.victim
                    && self
                        .remaining
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                        .is_ok()
                {
                    return Err(StorageError::Transient { page: id });
                }
                self.inner.try_read_page(id)
            }
            fn write(&self, id: PageId, data: &[u8]) {
                self.inner.write(id, data)
            }
            fn try_alloc(&self) -> Result<PageId, StorageError> {
                self.inner.try_alloc()
            }
            fn io(&self) -> IoSnapshot {
                self.inner.io()
            }
        }

        let pager = Pager::with_page_size(32);
        let a = pager.alloc();
        let b = pager.alloc();
        pager.write(a, &[1]);
        pager.write(b, &[2]);
        let store = StickyFault {
            inner: pager,
            victim: a,
            remaining: AtomicU32::new(4),
        };
        // One shard: page B shares the failing page's lock by construction.
        let p = ShardedBufferPool::new(store, 8, 1).with_retry(RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(25),
        });

        std::thread::scope(|s| {
            let slow = s.spawn(|| p.read_page(a));
            // Let the slow read take its miss and enter the backoff loop.
            std::thread::sleep(Duration::from_millis(5));
            let t0 = Instant::now();
            for _ in 0..100 {
                assert_eq!(p.read_page(b)[0], 2);
            }
            let fast = t0.elapsed();
            assert_eq!(slow.join().unwrap()[0], 1, "the victim read must recover");
            // Four transient failures sleep >= 100 ms in total; had the
            // shard lock been held through them, the B reads above could
            // not have finished inside this bound.
            assert!(
                fast < Duration::from_millis(60),
                "same-shard reads stalled {fast:?} behind a backoff"
            );
        });

        // The out-of-lock detour keeps the accounting exact: one miss per
        // page, one successful device read per miss, all retries counted.
        let cs = p.cache_stats();
        assert_eq!(cs.misses, 2);
        assert_eq!(p.fault_stats().retries, 4);
        assert_eq!(p.io().reads, 2);
    }
}
