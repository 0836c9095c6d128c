//! The naive baseline: every snapshot query evaluated independently.
//!
//! "A naive approach to handling dynamic queries is to evaluate each
//! snapshot query in the sequence independently of all others" (§4). One
//! range search per rendered frame; cost is proportional to the frame
//! rate and does not benefit from overlap between consecutive frames —
//! exactly what Figs. 6–13 show as the upper bars.

use crate::snapshot::SnapshotQuery;
use crate::stats::QueryStats;
use rtree::{DtaSegmentRecord, NsiSegmentRecord, RTree};
use storage::PageStore;

/// Stateless snapshot-query evaluator over either index layout.
///
/// The engine exists to make bench code symmetric with [`crate::PdqEngine`]
/// and [`crate::NpdqEngine`]; each call is an ordinary R-tree range search
/// plus the exact segment test of §3.2.
#[derive(Clone, Copy, Debug, Default)]
pub struct NaiveEngine {
    /// Disable the §3.2 leaf-level exact segment test (accept every
    /// record whose bounding box overlaps) — for the `ablation_leaf_exact`
    /// experiment.
    pub skip_exact_test: bool,
}

impl NaiveEngine {
    /// Engine with the exact leaf test enabled (the paper's setting).
    pub fn new() -> Self {
        NaiveEngine::default()
    }

    /// Evaluate one snapshot query over an NSI tree.
    pub fn query_nsi<const D: usize, S: PageStore>(
        &self,
        tree: &RTree<NsiSegmentRecord<D>, S>,
        q: &SnapshotQuery<D>,
        mut emit: impl FnMut(&NsiSegmentRecord<D>),
    ) -> QueryStats {
        let skip = self.skip_exact_test;
        tree.range_search(
            &q.nsi_key(),
            |r| skip || q.matches_segment(&r.seg),
            |r| emit(r),
        )
    }

    /// Evaluate one snapshot query over a double-temporal-axes tree.
    pub fn query_dta<const D: usize, S: PageStore>(
        &self,
        tree: &RTree<DtaSegmentRecord<D>, S>,
        q: &SnapshotQuery<D>,
        mut emit: impl FnMut(&DtaSegmentRecord<D>),
    ) -> QueryStats {
        let skip = self.skip_exact_test;
        tree.range_search(
            &q.dta_key(),
            |r| skip || q.matches_segment(&r.seg),
            |r| emit(r),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree::bulk::bulk_load;
    use rtree::RTreeConfig;
    use storage::Pager;
    use stkit::{Interval, Rect};

    type R = NsiSegmentRecord<2>;

    fn grid_tree() -> RTree<R, Pager> {
        let recs: Vec<R> = (0..400)
            .map(|i| {
                let x = (i % 20) as f64;
                let y = (i / 20) as f64;
                R::new(
                    i,
                    0,
                    Interval::new(0.0, 10.0),
                    [x + 0.5, y + 0.5],
                    [x + 0.5, y + 0.5],
                )
            })
            .collect();
        bulk_load(Pager::new(), RTreeConfig::default(), recs)
    }

    #[test]
    fn snapshot_returns_window_contents() {
        let tree = grid_tree();
        let q = SnapshotQuery::at_instant(Rect::from_corners([0.0, 0.0], [3.0, 3.0]), 5.0);
        let mut got = Vec::new();
        let stats = NaiveEngine::new().query_nsi(&tree, &q, |r| got.push(r.oid));
        assert_eq!(got.len(), 9, "3×3 stationary objects");
        assert_eq!(stats.results, 9);
        assert!(stats.disk_accesses > 0);
    }

    #[test]
    fn per_frame_cost_is_flat() {
        // The defining property of the baseline: cost per frame does not
        // depend on inter-frame overlap.
        let tree = grid_tree();
        let w = Rect::from_corners([5.0, 5.0], [8.0, 8.0]);
        let stats: Vec<QueryStats> = (0..20)
            .map(|i| {
                let q = SnapshotQuery::at_instant(w, i as f64 * 0.1);
                NaiveEngine::new().query_nsi(&tree, &q, |_| {})
            })
            .collect();
        let first = stats[0];
        for s in &stats[1..] {
            assert_eq!(s.disk_accesses, first.disk_accesses);
            assert_eq!(s.results, first.results);
        }
    }

    #[test]
    fn exact_test_can_be_disabled() {
        // Diagonal mover: bbox covers everything, path misses the corner.
        let diag = R::new(0, 0, Interval::new(0.0, 10.0), [0.0, 0.0], [20.0, 20.0]);
        let tree = bulk_load(Pager::new(), RTreeConfig::default(), vec![diag]);
        let q = SnapshotQuery::new(
            Rect::from_corners([15.0, 0.0], [20.0, 3.0]),
            Interval::new(0.0, 10.0),
        );
        let mut exact = 0;
        NaiveEngine::new().query_nsi(&tree, &q, |_| exact += 1);
        assert_eq!(exact, 0);
        let mut sloppy = 0;
        NaiveEngine { skip_exact_test: true }.query_nsi(&tree, &q, |_| sloppy += 1);
        assert_eq!(sloppy, 1, "bbox-only test admits the false positive");
    }

    #[test]
    fn dta_layout_agrees_with_nsi() {
        let recs: Vec<_> = (0..400)
            .map(|i| {
                let x = (i % 20) as f64;
                let y = (i / 20) as f64;
                (
                    NsiSegmentRecord::<2>::new(i, 0, Interval::new(0.0, 10.0), [x, y], [x + 1.0, y]),
                    DtaSegmentRecord::<2>::new(i, 0, Interval::new(0.0, 10.0), [x, y], [x + 1.0, y]),
                )
            })
            .collect();
        let nsi = bulk_load(
            Pager::new(),
            RTreeConfig::default(),
            recs.iter().map(|(a, _)| *a).collect(),
        );
        let dta = bulk_load(
            Pager::new(),
            RTreeConfig::default(),
            recs.iter().map(|(_, b)| *b).collect(),
        );
        let q = SnapshotQuery::at_instant(Rect::from_corners([3.0, 3.0], [9.0, 9.0]), 4.0);
        let mut a: Vec<u32> = Vec::new();
        let mut b: Vec<u32> = Vec::new();
        let e = NaiveEngine::new();
        e.query_nsi(&nsi, &q, |r| a.push(r.oid));
        e.query_dta(&dta, &q, |r| b.push(r.oid));
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "both layouts must return the same objects");
        assert!(!a.is_empty());
    }
}
