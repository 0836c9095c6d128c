//! Range search — the building block of snapshot queries and the paper's
//! *naive* baseline.
//!
//! The tree descends into every child whose bounding key overlaps the
//! query key (`R ≬ Q`, §3.2); at the leaf level an `accept` predicate is
//! applied to the *record* so callers can use the exact segment-vs-query
//! test instead of the record's bounding box (the optimization of \[13\],
//! \[14, 15\] discussed in §3.2 — toggleable for the ablation bench).

use crate::traits::{Key, Record};
use crate::tree::RTree;
use storage::{PageStore, StorageError};

/// Cost of evaluating (part of) a query — the paper's two metrics,
/// counted by the range search here and by every query engine above it.
///
/// §5: "Our performance measures are I/O cost measured in number of disk
/// accesses/query and CPU utilization in terms of number of distance
/// computations."
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// R-tree nodes loaded (simulated disk accesses): reads that served
    /// a node, never one that failed ([`RTree::try_read_node`]).
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

impl<R: Record, S: PageStore> RTree<R, S> {
    /// Range search: emit every record whose key overlaps `query` *and*
    /// that passes `accept` (the exact geometric test). Uses an explicit
    /// stack; every node load is one disk access.
    pub fn range_search(
        &self,
        query: &R::Key,
        accept: impl FnMut(&R) -> bool,
        emit: impl FnMut(&R),
    ) -> QueryStats {
        let mut stats = QueryStats::default();
        self.try_range_search(query, &mut stats, accept, emit)
            .unwrap_or_else(|e| panic!("unrecoverable storage error: {e}"));
        stats
    }

    /// Fallible form of [`Self::range_search`]: a device fault mid-descent
    /// surfaces as `Err` carrying the failing page. Records emitted before
    /// the fault are valid answers, and the nodes read before it are
    /// counted into the caller's `stats`, so the cost of a failed search
    /// is not lost with it.
    fn try_range_search(
        &self,
        query: &R::Key,
        stats: &mut QueryStats,
        mut accept: impl FnMut(&R) -> bool,
        mut emit: impl FnMut(&R),
    ) -> Result<(), StorageError> {
        if query.is_empty() {
            return Ok(());
        }
        let mut stack = vec![(self.root_page(), self.height() - 1)];
        while let Some((page, level)) = stack.pop() {
            // Zero-copy visit: entries decode lazily out of the page bytes.
            let node = self.try_read_node(page, level)?;
            stats.disk_accesses += 1;
            if node.is_leaf() {
                stats.leaf_accesses += 1;
                for r in node.leaf_records() {
                    stats.distance_computations += 1;
                    if r.key().overlaps(query) && accept(&r) {
                        stats.results += 1;
                        emit(&r);
                    }
                }
            } else {
                for (k, child) in node.internal_entries() {
                    stats.distance_computations += 1;
                    if k.overlaps(query) {
                        stack.push((child, level - 1));
                    }
                }
            }
        }
        Ok(())
    }

    /// Convenience: collect all accepted records.
    pub fn range_collect(
        &self,
        query: &R::Key,
        accept: impl FnMut(&R) -> bool,
    ) -> (Vec<R>, QueryStats) {
        let mut out = Vec::new();
        let stats = self.range_search(query, accept, |r| out.push(*r));
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use crate::bulk::bulk_load;
    use crate::records::NsiSegmentRecord;
    use crate::search::QueryStats;
    use crate::tree::{RTree, RTreeConfig};
    use storage::{PageStore, Pager, StorageError};
    use stkit::{Interval, Rect, StBox};

    type R = NsiSegmentRecord<2>;
    type K = StBox<2, 1>;

    fn query(x: (f64, f64), y: (f64, f64), t: (f64, f64)) -> K {
        StBox::new(
            Rect::from_corners([x.0, y.0], [x.1, y.1]),
            Rect::new([Interval::new(t.0, t.1)]),
        )
    }

    /// A grid of stationary unit segments, one per integer cell.
    fn grid_records(n: usize) -> Vec<R> {
        (0..n * n)
            .map(|i| {
                let x = (i % n) as f64;
                let y = (i / n) as f64;
                R::new(
                    i as u32,
                    0,
                    Interval::new(0.0, 10.0),
                    [x + 0.25, y + 0.25],
                    [x + 0.75, y + 0.75],
                )
            })
            .collect()
    }

    fn build(records: Vec<R>) -> RTree<R, Pager> {
        bulk_load(Pager::new(), RTreeConfig::default(), records)
    }

    #[test]
    fn finds_expected_grid_cells() {
        let tree = build(grid_records(30));
        // Query covering cells x ∈ [10, 12], y ∈ [20, 21] fully.
        let q = query((10.0, 13.0), (20.0, 22.0), (0.0, 10.0));
        let (hits, stats) = tree.range_collect(&q, |_| true);
        assert_eq!(hits.len(), 6, "3×2 cells expected");
        assert_eq!(stats.results, 6);
        assert!(stats.disk_accesses >= 1);
        for r in &hits {
            let c = r.seg.x0;
            assert!((10.0..13.0).contains(&c[0]));
            assert!((20.0..22.0).contains(&c[1]));
        }
    }

    #[test]
    fn temporal_restriction_excludes() {
        let tree = build(grid_records(10));
        let q = query((0.0, 10.0), (0.0, 10.0), (20.0, 30.0));
        let (hits, _) = tree.range_collect(&q, |_| true);
        assert!(hits.is_empty(), "all segments end at t=10");
    }

    #[test]
    fn empty_query_is_free() {
        let tree = build(grid_records(10));
        let before = tree.store().io();
        let stats = tree.range_search(&K::EMPTY, |_| true, |_| {});
        assert_eq!(stats.disk_accesses, 0);
        assert_eq!((tree.store().io() - before).reads, 0);
    }

    #[test]
    fn accept_filter_rejects() {
        let tree = build(grid_records(10));
        let q = query((0.0, 10.0), (0.0, 10.0), (0.0, 10.0));
        let (hits, stats) = tree.range_collect(&q, |r| r.oid % 2 == 0);
        assert_eq!(hits.len(), 50);
        assert!(hits.iter().all(|r| r.oid % 2 == 0));
        assert_eq!(stats.results, 50);
    }

    #[test]
    fn exact_segment_test_rejects_bbox_false_positive() {
        // Diagonal mover whose bbox covers the whole square; query sits in
        // the off-diagonal corner.
        let diag = R::new(0, 0, Interval::new(0.0, 10.0), [0.0, 0.0], [10.0, 10.0]);
        let tree = build(vec![diag]);
        let q = query((8.0, 10.0), (0.0, 2.0), (0.0, 10.0));
        // Without the exact test: false admission.
        let (naive, _) = tree.range_collect(&q, |_| true);
        assert_eq!(naive.len(), 1);
        // With the exact test (§3.2): rejected.
        let (exact, _) = tree.range_collect(&q, |r| {
            !r.seg
                .intersect_query(&q.space, &q.time.extent(0))
                .is_empty()
        });
        assert!(exact.is_empty());
    }

    #[test]
    fn io_matches_disk_accesses() {
        let tree = build(grid_records(40));
        let before = tree.store().io();
        let q = query((0.0, 5.0), (0.0, 5.0), (0.0, 10.0));
        let stats = tree.range_search(&q, |_| true, |_| {});
        let delta = tree.store().io() - before;
        assert_eq!(delta.reads, stats.disk_accesses);
        assert_eq!(delta.writes, 0);
    }

    #[test]
    fn a_range_search_descending_into_a_cycle_is_corrupt() {
        let tree = crate::tree::tests::cyclic_tree();
        let root = tree.root_page();
        let q = query((-1.0, 30.0), (-1.0, 30.0), (0.0, 10.0));
        let (res, stats) = crate::tree::tests::within_5s(tree, move |t| {
            let mut stats = QueryStats::default();
            (t.try_range_search(&q, &mut stats, |_| true, |_| {}), stats)
        });
        assert_eq!(res, Err(StorageError::Corrupt { page: root }));
        // The root's read counts; the failed read of it one level down
        // counts nothing.
        assert_eq!((stats.disk_accesses, stats.results), (1, 0));
    }

    #[test]
    fn search_after_incremental_inserts() {
        let mut tree = RTree::new(Pager::new(), RTreeConfig::default());
        for r in grid_records(20) {
            tree.insert(r, 0.0);
        }
        tree.validate().unwrap();
        let q = query((5.0, 7.0), (5.0, 7.0), (0.0, 10.0));
        let (hits, _) = tree.range_collect(&q, |_| true);
        assert_eq!(hits.len(), 4, "2×2 cells");
    }
}

impl<R: Record, S: PageStore> RTree<R, S> {
    /// Visit every record in the tree (full scan, in node order). Returns
    /// the number of records visited; each node load is one disk access.
    /// A read error ([`Self::try_read_node`]) is `Err` carrying the page,
    /// after the records ahead of it were visited.
    pub fn try_scan(&self, mut visit: impl FnMut(&R)) -> Result<u64, StorageError> {
        let mut n = 0;
        let mut stack = vec![(self.root_page(), self.height() - 1)];
        while let Some((page, level)) = stack.pop() {
            let node = self.try_read_node(page, level)?;
            if node.is_leaf() {
                for r in node.leaf_records() {
                    visit(&r);
                    n += 1;
                }
            } else {
                for (_, child) in node.internal_entries() {
                    stack.push((child, level - 1));
                }
            }
        }
        Ok(n)
    }
}

#[cfg(test)]
mod scan_tests {
    use crate::bulk::bulk_load;
    use crate::records::NsiSegmentRecord;
    use crate::tree::RTreeConfig;
    use storage::{PageId, Pager, StorageError};
    use stkit::Interval;

    fn records(n: u32) -> Vec<NsiSegmentRecord<2>> {
        (0..n)
            .map(|i| {
                let x = (i % 40) as f64;
                let y = (i / 40) as f64;
                NsiSegmentRecord::new(i, 0, Interval::new(0.0, 1.0), [x, y], [x + 1.0, y])
            })
            .collect()
    }

    #[test]
    fn scan_visits_every_record_once() {
        let tree = bulk_load(Pager::new(), RTreeConfig::default(), records(1000));
        let mut seen = std::collections::HashSet::new();
        let n = tree.try_scan(|r| {
            assert!(seen.insert(r.oid), "record {} visited twice", r.oid);
        });
        assert_eq!(n, Ok(1000));
        assert_eq!(seen.len(), 1000);
    }

    #[test]
    fn scan_of_empty_tree() {
        let tree: crate::tree::RTree<NsiSegmentRecord<2>, Pager> =
            crate::tree::RTree::new(Pager::new(), RTreeConfig::default());
        assert_eq!(tree.try_scan(|_| {}), Ok(0));
    }

    #[test]
    fn a_scan_descending_into_a_cycle_is_corrupt() {
        let tree = crate::tree::tests::cyclic_tree();
        let root = tree.root_page();
        let (res, visited) = crate::tree::tests::within_5s(tree, |t| {
            let mut visited = 0;
            (t.try_scan(|_| visited += 1), visited)
        });
        assert_eq!((res, visited), (Err(StorageError::Corrupt { page: root }), 0));
    }

    #[test]
    fn a_scan_reaching_a_child_off_the_device_is_corrupt() {
        let tree = bulk_load(Pager::with_page_size(256), RTreeConfig::default(), records(40));
        let off = PageId(tree.store().page_count() + 1000);
        crate::tree::tests::repoint_root(&tree, |j, c| if j == 0 { off } else { c });
        assert_eq!(tree.try_scan(|_| {}), Err(StorageError::Corrupt { page: off }));
    }
}
