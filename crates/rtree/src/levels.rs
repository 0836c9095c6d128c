//! Per-level node I/O counters — the tree's own observability surface.
//!
//! The paper's figures split disk-access bars into leaf and upper-level
//! accesses; a live server needs the same split *while running* to see
//! whether a workload is root-bound (hot upper levels, cache-friendly) or
//! leaf-bound (wide scans). [`LevelCounters`] counts every node read and
//! write by level with relaxed atomics, so the shared tree behind the
//! serving layer's `RwLock` can be counted from any thread at zero
//! coordination cost, and [`LevelSnapshot`] supports interval arithmetic
//! (`after - before`) for exact attribution of a serving run — the
//! reconciliation identities of the partition and chaos suites depend
//! on it.

use std::sync::atomic::{AtomicU64, Ordering};

/// Levels tracked individually; an implausibly deep tree saturates into
/// the last slot rather than indexing out of bounds.
pub const MAX_TRACKED_LEVELS: usize = 16;

/// Per-level read/write counters (level 0 = leaf).
#[derive(Debug, Default)]
pub struct LevelCounters {
    reads: [AtomicU64; MAX_TRACKED_LEVELS],
    writes: [AtomicU64; MAX_TRACKED_LEVELS],
}

impl LevelCounters {
    /// Fresh zeroed counters.
    pub fn new() -> LevelCounters {
        LevelCounters::default()
    }

    #[inline]
    fn slot(level: u32) -> usize {
        (level as usize).min(MAX_TRACKED_LEVELS - 1)
    }

    /// Record one node read at `level`.
    #[inline]
    pub fn record_read(&self, level: u32) {
        self.reads[Self::slot(level)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one node write at `level`.
    #[inline]
    pub fn record_write(&self, level: u32) {
        self.writes[Self::slot(level)].fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> LevelSnapshot {
        let mut s = LevelSnapshot::default();
        for i in 0..MAX_TRACKED_LEVELS {
            s.reads[i] = self.reads[i].load(Ordering::Relaxed);
            s.writes[i] = self.writes[i].load(Ordering::Relaxed);
        }
        s
    }
}

/// A copy of [`LevelCounters`] supporting `after - before` deltas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelSnapshot {
    /// Node reads per level (0 = leaf).
    pub reads: [u64; MAX_TRACKED_LEVELS],
    /// Node writes per level (0 = leaf).
    pub writes: [u64; MAX_TRACKED_LEVELS],
}

impl LevelSnapshot {
    /// Total node reads over all levels.
    pub fn total_reads(&self) -> u64 {
        self.reads.iter().sum()
    }

    /// Total node writes over all levels.
    pub fn total_writes(&self) -> u64 {
        self.writes.iter().sum()
    }

    /// Leaf-level reads (the paper's leaf-access bar).
    pub fn leaf_reads(&self) -> u64 {
        self.reads[0]
    }
}

impl std::ops::Sub for LevelSnapshot {
    type Output = LevelSnapshot;

    fn sub(self, rhs: LevelSnapshot) -> LevelSnapshot {
        let mut out = LevelSnapshot::default();
        for i in 0..MAX_TRACKED_LEVELS {
            out.reads[i] = self.reads[i] - rhs.reads[i];
            out.writes[i] = self.writes[i] - rhs.writes[i];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_by_level() {
        let c = LevelCounters::new();
        c.record_read(0);
        c.record_read(0);
        c.record_read(2);
        c.record_write(1);
        let s = c.snapshot();
        assert_eq!(s.reads[0], 2);
        assert_eq!(s.reads[2], 1);
        assert_eq!(s.writes[1], 1);
        assert_eq!(s.total_reads(), 3);
        assert_eq!(s.leaf_reads(), 2);
        assert_eq!(s.total_writes(), 1);
    }

    #[test]
    fn deep_levels_saturate_instead_of_panicking() {
        let c = LevelCounters::new();
        c.record_read(999);
        assert_eq!(c.snapshot().reads[MAX_TRACKED_LEVELS - 1], 1);
    }

    #[test]
    fn snapshot_delta() {
        let c = LevelCounters::new();
        c.record_read(0);
        let before = c.snapshot();
        c.record_read(0);
        c.record_read(1);
        let delta = c.snapshot() - before;
        assert_eq!(delta.reads[0], 1);
        assert_eq!(delta.reads[1], 1);
        assert_eq!(delta.total_reads(), 2);
    }
}
