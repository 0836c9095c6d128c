//! Thread-safe I/O counters and snapshots.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic I/O counters maintained by a storage device.
///
/// All counters are relaxed atomics: the numbers are measurement
/// instrumentation, not synchronization, and the query engines snapshot
/// them from the thread doing the work.
#[derive(Debug, Default)]
pub struct IoStats {
    reads: AtomicU64,
    writes: AtomicU64,
    allocs: AtomicU64,
}

impl IoStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one page read (one simulated disk access).
    #[inline]
    pub fn record_read(&self) {
        self.reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one page write.
    #[inline]
    pub fn record_write(&self) {
        self.writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one page allocation.
    #[inline]
    pub fn record_alloc(&self) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot current values.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            allocs: self.allocs.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`IoStats`], supporting interval arithmetic
/// (`after - before` = cost of the work in between).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Cumulative page reads.
    pub reads: u64,
    /// Cumulative page writes.
    pub writes: u64,
    /// Cumulative page allocations.
    pub allocs: u64,
}

impl std::ops::Sub for IoSnapshot {
    type Output = IoSnapshot;

    fn sub(self, rhs: IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads - rhs.reads,
            writes: self.writes - rhs.writes,
            allocs: self.allocs - rhs.allocs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = IoStats::new();
        s.record_read();
        s.record_read();
        s.record_write();
        s.record_alloc();
        let snap = s.snapshot();
        assert_eq!(snap.reads, 2);
        assert_eq!(snap.writes, 1);
        assert_eq!(snap.allocs, 1);
    }

    #[test]
    fn snapshot_difference() {
        let s = IoStats::new();
        s.record_read();
        let before = s.snapshot();
        s.record_read();
        s.record_read();
        s.record_write();
        let delta = s.snapshot() - before;
        assert_eq!(delta.reads, 2);
        assert_eq!(delta.writes, 1);
    }

    #[test]
    fn stats_shared_across_threads() {
        let s = std::sync::Arc::new(IoStats::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.record_read();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.snapshot().reads, 4000);
    }
}
