//! Fault injection and fault tolerance for the simulated disk.
//!
//! The serving scenario of the paper — many concurrent sessions streaming
//! results off one shared tree — is exactly where a single bad page read
//! must not take down every session. This module supplies the three
//! pieces of that story:
//!
//! * [`StorageError`] — what a fallible page read can report, a
//!   transient I/O error or a corrupt page, and an allocation a full
//!   device.
//! * [`FaultyStore`] — a deterministic, seeded fault injector wrapped
//!   around any [`PageStore`]. A per-read transient probability, drawn
//!   from one ChaCha8 stream so chaos runs are reproducible given a seed
//!   (modulo thread interleaving of the draw order), and a
//!   runtime-mutable set of targeted corrupt pages.
//! * [`ChecksumStore`] — records an FNV-1a checksum of every page write
//!   and validates it on read, so a torn or bit-flipped page surfaces as
//!   [`StorageError::Corrupt`] instead of garbage query results.
//! * [`RetryPolicy`] — bounded attempts plus exponential backoff; the
//!   buffer pools apply it on miss fills so transient faults are absorbed
//!   below the query engines (see `FaultRecovery`).

use crate::{IoSnapshot, PageId, PageRef, PageStore};
use parking_lot::Mutex;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Why a page read failed.
///
/// `Transient` is retryable — the same read may succeed a moment later.
/// `Corrupt` is not: the stored bytes themselves are wrong and every
/// retry will see the same bad page.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StorageError {
    /// A transient I/O error (the simulated analogue of EIO on a flaky
    /// device); retrying may succeed.
    Transient { page: PageId },
    /// The page's bytes fail checksum validation (torn write, bit rot),
    /// or the id is past the device's last page (read off a corrupt
    /// child pointer). Not retryable — the damage is in the store, not
    /// the path to it.
    Corrupt { page: PageId },
    /// Page allocation failed: the device's page-id space is exhausted
    /// (simulated disk full). `page` is the first id that could not be
    /// granted. Not retryable — a full disk stays full.
    Full { page: PageId },
}

impl StorageError {
    /// The page whose read failed.
    pub fn page(&self) -> PageId {
        match self {
            StorageError::Transient { page }
            | StorageError::Corrupt { page }
            | StorageError::Full { page } => *page,
        }
    }

    /// Whether a retry of the same read can possibly succeed.
    pub fn is_transient(&self) -> bool {
        !matches!(
            self,
            StorageError::Corrupt { .. } | StorageError::Full { .. }
        )
    }
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Transient { page } => write!(f, "transient I/O error reading {page}"),
            StorageError::Corrupt { page } => write!(f, "corrupt page {page} (checksum mismatch)"),
            StorageError::Full { page } => {
                write!(f, "page allocation failed at {page}: id space exhausted")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// Bounded-retry policy for transient faults: up to `max_attempts` total
/// attempts, sleeping `base_backoff << (attempt - 1)` between them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (≥ 1).
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles per subsequent retry.
    pub base_backoff: Duration,
}

impl RetryPolicy {
    /// 4 attempts, 20 µs base backoff — absorbs the chaos suite's
    /// transient rates without measurable throughput cost.
    pub const DEFAULT: RetryPolicy = RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_micros(20),
    };

    /// No retries: a single attempt, errors surface immediately.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
        }
    }

    /// The sleep before retry number `attempt` (1-based): exponential
    /// doubling, capped at 1024× base so a long retry chain cannot stall
    /// a session for seconds.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(10);
        self.base_backoff * (1u32 << exp)
    }
}

impl Default for RetryPolicy {
    /// [`RetryPolicy::DEFAULT`].
    fn default() -> RetryPolicy {
        RetryPolicy::DEFAULT
    }
}

/// Seeded description of the faults a [`FaultyStore`] injects.
///
/// All probabilities are per *device* read (pool hits never reach the
/// fault layer, matching where real disks fail). The default plan injects
/// nothing.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed for the ChaCha8 stream driving every probabilistic decision.
    pub seed: u64,
    /// Probability a read fails with [`StorageError::Transient`].
    pub transient_prob: f64,
}

impl FaultPlan {
    /// A plan injecting nothing (deterministic pass-through).
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan::transient(seed, 0.0)
    }

    /// A plan injecting transient errors at rate `p`.
    pub fn transient(seed: u64, p: f64) -> FaultPlan {
        FaultPlan {
            seed,
            transient_prob: p,
        }
    }
}

/// Counts of faults a [`FaultyStore`] actually injected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InjectedFaults {
    /// Reads failed with [`StorageError::Transient`].
    pub transients: u64,
    /// Reads of pages in the corrupt set (bytes were flipped).
    pub corrupt_reads: u64,
}

/// A deterministic fault injector around any [`PageStore`].
///
/// Transient faults come from one seeded ChaCha8 stream; targeted
/// corruption flips bytes of specific pages on read. Failed attempts
/// never reach the inner store, so the device's
/// [`IoStats`](crate::IoStats) counters — the paper's "disk
/// accesses" — count only successful reads and the reconciliation
/// identities of the serving layer survive fault injection exactly.
///
/// Injection can be paused with [`Self::set_enabled`] (e.g. while bulk
/// loading a tree whose structure must match a fault-free oracle).
pub struct FaultyStore<S> {
    inner: S,
    plan: FaultPlan,
    enabled: AtomicBool,
    rng: Mutex<ChaCha8Rng>,
    /// Pages whose reads come back bit-flipped. `flip` selects the byte
    /// offsets to corrupt.
    corrupt: Mutex<HashSet<PageId>>,
    /// Byte offsets flipped (XOR 0xFF) in corrupt pages.
    flip: Vec<usize>,
    transients: AtomicU64,
    corrupt_reads: AtomicU64,
}

impl<S: PageStore> FaultyStore<S> {
    /// Wrap `inner` with the faults described by `plan`. Corrupt reads
    /// flip byte 8 by default — inside an R-tree node header but clear of
    /// the magic, so a checksum layer detects the damage while a parse of
    /// the unchecked bytes would still succeed.
    pub fn new(inner: S, plan: FaultPlan) -> FaultyStore<S> {
        Self::with_flipped_bytes(inner, plan, vec![8])
    }

    /// Like [`Self::new`] but flipping the given byte offsets in corrupt
    /// pages. Flipping offset 0 hits the node magic, which the tree's
    /// header parse reports as corrupt; flipping the high byte of an
    /// internal entry's child id sends a descent past the device's last
    /// page, which the pager reports as corrupt — the chaos suite uses
    /// both.
    pub fn with_flipped_bytes(inner: S, plan: FaultPlan, flip: Vec<usize>) -> FaultyStore<S> {
        let rng = ChaCha8Rng::seed_from_u64(plan.seed);
        FaultyStore {
            inner,
            plan,
            enabled: AtomicBool::new(true),
            rng: Mutex::new(rng),
            corrupt: Mutex::new(HashSet::new()),
            flip,
            transients: AtomicU64::new(0),
            corrupt_reads: AtomicU64::new(0),
        }
    }

    /// Pause (`false`) or resume (`true`) all injection; the store is a
    /// transparent pass-through while paused.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Mark `id` so subsequent reads return bit-flipped bytes.
    pub fn corrupt_page(&self, id: PageId) {
        self.corrupt.lock().insert(id);
    }

    /// Remove `id` from the corrupt set.
    pub fn heal_page(&self, id: PageId) {
        self.corrupt.lock().remove(&id);
    }

    /// Counts of faults injected so far.
    pub fn injected(&self) -> InjectedFaults {
        InjectedFaults {
            transients: self.transients.load(Ordering::Relaxed),
            corrupt_reads: self.corrupt_reads.load(Ordering::Relaxed),
        }
    }

    /// Access the wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: PageStore> PageStore for FaultyStore<S> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn try_read_page(&self, id: PageId) -> Result<PageRef, StorageError> {
        if self.enabled.load(Ordering::Relaxed) {
            let p = self.plan.transient_prob;
            if p > 0.0 && self.rng.lock().gen_bool(p) {
                self.transients.fetch_add(1, Ordering::Relaxed);
                return Err(StorageError::Transient { page: id });
            }
            if self.corrupt.lock().contains(&id) {
                self.corrupt_reads.fetch_add(1, Ordering::Relaxed);
                let mut bytes = self.inner.try_read_page(id)?.to_vec();
                for &off in &self.flip {
                    if let Some(b) = bytes.get_mut(off) {
                        *b ^= 0xFF;
                    }
                }
                return Ok(PageRef::from(bytes));
            }
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

/// FNV-1a over `bytes` — the page checksum function (also used by the
/// snapshot file format).
#[inline]
pub fn page_checksum(bytes: &[u8]) -> u64 {
    checksum_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continue an FNV-1a hash `h` over `bytes`:
/// `page_checksum(a ++ b) == checksum_extend(page_checksum(a), b)`, so a
/// framed record is hashed without concatenating it first.
#[inline]
pub(crate) fn checksum_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Validates page integrity: every [`PageStore::write`] records the
/// written prefix's length and FNV-1a checksum in a side table; every
/// read re-hashes that prefix and fails with [`StorageError::Corrupt`] on
/// mismatch.
///
/// Checksums cover the written *prefix* only because the pager's write
/// semantics keep the tail's previous bytes — writers always serialize
/// full logical records with explicit lengths, so the prefix is exactly
/// the meaningful payload. Pages never written through this layer
/// validate trivially. No page is freed, so a sum never outlives its page.
pub struct ChecksumStore<S> {
    inner: S,
    sums: Mutex<HashMap<PageId, (usize, u64)>>,
    corrupt_detected: AtomicU64,
}

impl<S: PageStore> ChecksumStore<S> {
    /// Wrap `inner`, validating every read against recorded write sums.
    pub fn new(inner: S) -> ChecksumStore<S> {
        ChecksumStore {
            inner,
            sums: Mutex::new(HashMap::new()),
            corrupt_detected: AtomicU64::new(0),
        }
    }

    /// Number of reads that failed checksum validation.
    pub fn corrupt_detected(&self) -> u64 {
        self.corrupt_detected.load(Ordering::Relaxed)
    }

    /// Access the wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: PageStore> PageStore for ChecksumStore<S> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn try_read_page(&self, id: PageId) -> Result<PageRef, StorageError> {
        let page = self.inner.try_read_page(id)?;
        if let Some(&(len, sum)) = self.sums.lock().get(&id) {
            if page.len() < len || page_checksum(&page[..len]) != sum {
                self.corrupt_detected.fetch_add(1, Ordering::Relaxed);
                return Err(StorageError::Corrupt { page: id });
            }
        }
        Ok(page)
    }

    fn write(&self, id: PageId, data: &[u8]) {
        self.sums.lock().insert(id, (data.len(), page_checksum(data)));
        self.inner.write(id, data)
    }

    fn try_alloc(&self) -> Result<PageId, StorageError> {
        self.inner.try_alloc()
    }

    fn io(&self) -> IoSnapshot {
        self.inner.io()
    }
}

/// The buffer pool's retry machinery: applies a [`RetryPolicy`] to miss
/// fills and counts retries, exhaustions and corruptions
/// ([`FaultRecoveryStats`]).
pub(crate) struct FaultRecovery {
    policy: RetryPolicy,
    retries: AtomicU64,
    exhausted: AtomicU64,
    corrupt_pages: AtomicU64,
}

/// Snapshot of a pool's fault-recovery counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultRecoveryStats {
    /// Retries issued after a transient failure.
    pub retries: u64,
    /// Reads that failed even after `max_attempts` attempts.
    pub exhausted: u64,
    /// Reads that failed as [`StorageError::Corrupt`] (never retried).
    pub corrupt_pages: u64,
}

impl FaultRecovery {
    pub(crate) fn new(policy: RetryPolicy) -> FaultRecovery {
        assert!(policy.max_attempts >= 1, "retry policy needs ≥ 1 attempt");
        FaultRecovery {
            policy,
            retries: AtomicU64::new(0),
            exhausted: AtomicU64::new(0),
            corrupt_pages: AtomicU64::new(0),
        }
    }

    pub(crate) fn stats(&self) -> FaultRecoveryStats {
        FaultRecoveryStats {
            retries: self.retries.load(Ordering::Relaxed),
            exhausted: self.exhausted.load(Ordering::Relaxed),
            corrupt_pages: self.corrupt_pages.load(Ordering::Relaxed),
        }
    }

    /// Retry a failed read of `id` per the policy, starting from `first`.
    ///
    /// Called by the pools *after* dropping their state lock: the backoff
    /// sleeps here must never run under a shard lock, or one faulted page
    /// stalls every reader hashing to that shard for the full backoff
    /// (the pools re-acquire and re-validate on return).
    #[cold]
    pub(crate) fn recover<S: PageStore>(
        &self,
        inner: &S,
        id: PageId,
        first: StorageError,
    ) -> Result<PageRef, StorageError> {
        let mut err = first;
        let mut attempt = 1u32;
        loop {
            if !err.is_transient() {
                self.corrupt_pages.fetch_add(1, Ordering::Relaxed);
                return Err(err);
            }
            if attempt >= self.policy.max_attempts {
                self.exhausted.fetch_add(1, Ordering::Relaxed);
                return Err(err);
            }
            let backoff = self.policy.backoff(attempt);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            self.retries.fetch_add(1, Ordering::Relaxed);
            attempt += 1;
            match inner.try_read_page(id) {
                Ok(page) => return Ok(page),
                Err(e) => err = e,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pager, ShardedBufferPool};

    #[test]
    fn quiet_plan_is_a_pass_through() {
        let fs = FaultyStore::new(Pager::with_page_size(32), FaultPlan::quiet(1));
        let id = fs.alloc();
        fs.write(id, &[1, 2, 3]);
        for _ in 0..100 {
            assert_eq!(&fs.try_read_page(id).unwrap()[..3], &[1, 2, 3]);
        }
        assert_eq!(fs.injected(), InjectedFaults::default());
    }

    #[test]
    fn seeded_transients_are_reproducible() {
        let run = |seed| {
            let fs = FaultyStore::new(Pager::with_page_size(32), FaultPlan::transient(seed, 0.3));
            let id = fs.alloc();
            fs.write(id, &[7]);
            let outcomes: Vec<bool> = (0..200).map(|_| fs.try_read_page(id).is_ok()).collect();
            (outcomes, fs.injected().transients)
        };
        let (a, fa) = run(42);
        let (b, fb) = run(42);
        let (c, _) = run(43);
        assert_eq!(a, b, "same seed must inject the same fault schedule");
        assert_eq!(fa, fb);
        assert!(fa > 0, "a 30% rate over 200 reads must fire");
        assert_ne!(a, c, "different seeds give different schedules");
    }

    #[test]
    fn failed_reads_never_reach_the_device() {
        let fs = FaultyStore::new(Pager::with_page_size(32), FaultPlan::transient(9, 0.5));
        let id = fs.alloc();
        fs.write(id, &[1]);
        let mut ok = 0u64;
        for _ in 0..100 {
            if fs.try_read_page(id).is_ok() {
                ok += 1;
            }
        }
        // Device read counter counts only the successful attempts — the
        // serving layer's reconciliation identities depend on this.
        assert_eq!(fs.io().reads, ok);
    }

    #[test]
    fn transients_are_retryable_corruption_is_not() {
        let p = PageId(3);
        assert!(StorageError::Transient { page: p }.is_transient());
        assert!(!StorageError::Corrupt { page: p }.is_transient());
        assert!(!StorageError::Full { page: p }.is_transient());
        assert_eq!(StorageError::Transient { page: p }.page(), p);
    }

    #[test]
    fn disabled_injection_passes_through() {
        let fs = FaultyStore::new(Pager::with_page_size(32), FaultPlan::transient(5, 1.0));
        let id = fs.alloc();
        fs.write(id, &[2]);
        fs.set_enabled(false);
        for _ in 0..50 {
            assert!(fs.try_read_page(id).is_ok());
        }
        fs.set_enabled(true);
        assert!(fs.try_read_page(id).is_err(), "rate 1.0 must fail when enabled");
    }

    #[test]
    fn corrupt_pages_flip_bytes_and_heal() {
        let fs = FaultyStore::new(Pager::with_page_size(32), FaultPlan::quiet(0));
        let id = fs.alloc();
        fs.write(id, &[0u8; 16]);
        fs.corrupt_page(id);
        assert_eq!(fs.try_read_page(id).unwrap()[8], 0xFF);
        assert!(fs.injected().corrupt_reads > 0);
        fs.heal_page(id);
        assert_eq!(fs.try_read_page(id).unwrap()[8], 0);
    }

    #[test]
    fn checksum_detects_corruption_under_it() {
        let cs = ChecksumStore::new(FaultyStore::new(
            Pager::with_page_size(64),
            FaultPlan::quiet(0),
        ));
        let id = cs.alloc();
        cs.write(id, b"hello world, this is a record");
        assert!(cs.try_read_page(id).is_ok());
        cs.inner().corrupt_page(id);
        assert_eq!(
            cs.try_read_page(id).unwrap_err(),
            StorageError::Corrupt { page: id }
        );
        assert_eq!(cs.corrupt_detected(), 1);
    }

    #[test]
    fn checksum_validates_rewrites_and_fresh_pages() {
        let cs = ChecksumStore::new(Pager::with_page_size(32));
        let id = cs.alloc();
        cs.write(id, &[1, 2, 3]);
        cs.write(id, &[9]); // shorter rewrite re-records the sum
        assert_eq!(&cs.try_read_page(id).unwrap()[..3], &[9, 2, 3]);
        // A page never written through the layer validates trivially.
        assert!(cs.try_read_page(cs.alloc()).is_ok());
    }

    #[test]
    fn pool_retry_absorbs_transients_exactly() {
        // 30% transient rate, 8 attempts: the pool's miss fill must always
        // succeed, and pool misses must still equal device reads.
        let plan = FaultPlan::transient(7, 0.3);
        let pool = ShardedBufferPool::new(FaultyStore::new(Pager::with_page_size(32), plan), 2, 1)
            .with_retry(RetryPolicy {
                max_attempts: 8,
                base_backoff: Duration::ZERO,
            });
        let ids: Vec<PageId> = (0..16).map(|_| pool.alloc()).collect();
        for (i, id) in ids.iter().enumerate() {
            pool.write(*id, &[i as u8]);
        }
        pool.flush();
        pool.clear();
        for round in 0..4 {
            for (i, id) in ids.iter().enumerate() {
                assert_eq!(pool.read_page(*id)[0], i as u8, "round {round}");
            }
        }
        let fr = pool.fault_stats();
        assert!(fr.retries > 0, "a 30% rate must trigger retries");
        assert_eq!(fr.exhausted, 0);
        let cs = pool.cache_stats();
        assert_eq!(cs.misses, pool.io().reads, "misses == device reads");
    }

    #[test]
    fn retries_are_counted_in_fault_stats() {
        let plan = FaultPlan::transient(11, 0.5);
        let pool = ShardedBufferPool::new(FaultyStore::new(Pager::with_page_size(32), plan), 1, 1)
            .with_retry(RetryPolicy {
                max_attempts: 10,
                base_backoff: Duration::ZERO,
            });
        let ids: Vec<PageId> = (0..8).map(|_| pool.alloc()).collect();
        for id in &ids {
            pool.write(*id, &[1]);
        }
        pool.flush();
        pool.clear();
        for id in &ids {
            pool.read_page(*id);
        }
        assert!(pool.fault_stats().retries > 0, "a 50% rate must trigger retries");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 20,
            base_backoff: Duration::from_micros(10),
        };
        assert_eq!(p.backoff(1), Duration::from_micros(10));
        assert_eq!(p.backoff(2), Duration::from_micros(20));
        assert_eq!(p.backoff(3), Duration::from_micros(40));
        assert_eq!(p.backoff(15), Duration::from_micros(10 * 1024)); // capped
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }

    #[test]
    fn fnv_checksum_reference_values() {
        // FNV-1a 64-bit reference vectors.
        assert_eq!(page_checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(page_checksum(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(page_checksum(b"foobar"), 0x85944171f73967e8);
    }
}
