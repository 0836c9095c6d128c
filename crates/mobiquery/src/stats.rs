//! Per-query cost accounting — the paper's two metrics.

pub use rtree::QueryStats;

/// Averages a sequence of [`QueryStats`], for the "subsequent queries"
/// rows of the paper's figures.
#[derive(Clone, Copy, Debug, Default)]
pub struct StatsAccumulator {
    sum: QueryStats,
    count: u64,
}

impl StatsAccumulator {
    /// Add one query's stats.
    pub fn push(&mut self, s: QueryStats) {
        self.sum += s;
        self.count += 1;
    }

    /// Number of queries accumulated.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Total of all accumulated stats.
    pub fn total(&self) -> QueryStats {
        self.sum
    }

    /// Mean disk accesses per query.
    pub fn mean_disk(&self) -> f64 {
        self.mean(|s| s.disk_accesses)
    }

    /// Mean leaf-level disk accesses per query.
    pub fn mean_leaf(&self) -> f64 {
        self.mean(|s| s.leaf_accesses)
    }

    /// Mean distance computations per query.
    pub fn mean_cpu(&self) -> f64 {
        self.mean(|s| s.distance_computations)
    }

    fn mean(&self, f: impl Fn(&QueryStats) -> u64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            f(&self.sum) as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(d: u64, l: u64, c: u64, r: u64) -> QueryStats {
        QueryStats {
            disk_accesses: d,
            leaf_accesses: l,
            distance_computations: c,
            results: r,
            ..QueryStats::default()
        }
    }

    #[test]
    fn add_assign_sums() {
        let mut a = s(10, 6, 100, 5);
        a += s(2, 1, 20, 1);
        assert_eq!(a.disk_accesses, 12);
        assert_eq!(a.leaf_accesses, 7);
        assert_eq!(a.distance_computations, 120);
        assert_eq!(a.results, 6);
    }

    #[test]
    fn accumulator_means() {
        let mut acc = StatsAccumulator::default();
        acc.push(s(10, 5, 100, 3));
        acc.push(s(20, 15, 300, 5));
        assert_eq!(acc.count(), 2);
        assert_eq!(acc.mean_disk(), 15.0);
        assert_eq!(acc.mean_leaf(), 10.0);
        assert_eq!(acc.mean_cpu(), 200.0);
    }

    #[test]
    fn empty_accumulator_is_zero() {
        let acc = StatsAccumulator::default();
        assert_eq!(acc.mean_disk(), 0.0);
        assert_eq!(acc.count(), 0);
    }
}
