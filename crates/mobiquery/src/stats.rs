//! Per-query cost accounting — the paper's two metrics.

/// Cost of evaluating (part of) a query.
///
/// §5: "Our performance measures are I/O cost measured in number of disk
/// accesses/query and CPU utilization in terms of number of distance
/// computations."
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// R-tree nodes loaded (simulated disk accesses).
    pub disk_accesses: u64,
    /// Of those, leaf-level nodes (the paper's figures split the bars
    /// into leaf and upper-level accesses).
    pub leaf_accesses: u64,
    /// Geometric comparisons: one per child entry or record examined
    /// (overlap tests / overlap-time computations) — the paper's
    /// "distance computations" CPU metric.
    pub distance_computations: u64,
    /// Objects returned.
    pub results: u64,
    /// Duplicate queue entries discarded by the §4.1 update-management
    /// dedup (0 unless concurrent insertions occur).
    pub duplicates_skipped: u64,
    /// Subtrees NPDQ skipped unread because the previous query already
    /// retrieved what they hold for this one (§4.2).
    pub subtrees_discarded: u64,
}

impl QueryStats {
    /// Disk accesses at non-leaf levels.
    pub fn upper_accesses(&self) -> u64 {
        self.disk_accesses - self.leaf_accesses
    }
}

impl std::ops::AddAssign for QueryStats {
    fn add_assign(&mut self, rhs: Self) {
        self.disk_accesses += rhs.disk_accesses;
        self.leaf_accesses += rhs.leaf_accesses;
        self.distance_computations += rhs.distance_computations;
        self.results += rhs.results;
        self.duplicates_skipped += rhs.duplicates_skipped;
        self.subtrees_discarded += rhs.subtrees_discarded;
    }
}

impl std::ops::Add for QueryStats {
    type Output = QueryStats;
    fn add(mut self, rhs: Self) -> QueryStats {
        self += rhs;
        self
    }
}

impl From<rtree::SearchStats> for QueryStats {
    fn from(s: rtree::SearchStats) -> Self {
        QueryStats {
            disk_accesses: s.nodes_visited,
            leaf_accesses: s.leaf_nodes_visited,
            distance_computations: s.comparisons,
            results: s.results,
            ..QueryStats::default()
        }
    }
}

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
    fn add_and_upper() {
        let a = s(10, 6, 100, 5) + s(2, 1, 20, 1);
        assert_eq!(a.disk_accesses, 12);
        assert_eq!(a.leaf_accesses, 7);
        assert_eq!(a.upper_accesses(), 5);
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

    #[test]
    fn from_search_stats() {
        let ss = rtree::SearchStats {
            nodes_visited: 7,
            leaf_nodes_visited: 4,
            comparisons: 99,
            results: 12,
        };
        let qs: QueryStats = ss.into();
        assert_eq!(qs.disk_accesses, 7);
        assert_eq!(qs.leaf_accesses, 4);
        assert_eq!(qs.upper_accesses(), 3);
        assert_eq!(qs.distance_computations, 99);
    }
}
