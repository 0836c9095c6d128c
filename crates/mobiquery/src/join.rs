//! Spatio-temporal distance joins — the paper's future work (ii).
//!
//! "Generalizing dynamic queries to include more complex queries
//! involving simple or distance-joins" (§6, after Hjaltason & Samet's
//! incremental distance joins, cited as \[6\]).
//!
//! [`distance_join`] finds every pair of motion segments — one from each
//! of two indexes — that come within Euclidean distance `δ` of each other
//! during a time window, reporting the exact *meeting time set* of each
//! pair (the squared pair distance is quadratic in `t`, solved by
//! `stkit::within_distance`). The dual-tree traversal prunes node pairs
//! whose boxes are further than `δ` apart in space or disjoint in time.
//!
//! [`self_distance_join`] is the one-set variant (e.g. "all pairs of
//! vehicles that pass within 1 km of each other today").

use crate::stats::QueryStats;
use rtree::{NsiSegmentRecord, RTree};
use storage::PageStore;
use stkit::{within_distance, Interval, TimeSet};

/// One joined pair and the times the two objects are within `δ`.
#[derive(Clone, Debug, PartialEq)]
pub struct JoinPair<const D: usize> {
    /// Record from the left index.
    pub a: NsiSegmentRecord<D>,
    /// Record from the right index.
    pub b: NsiSegmentRecord<D>,
    /// The (possibly disconnected) set of meeting times, clipped to the
    /// query window.
    pub meeting: TimeSet,
}

/// Dual-tree distance join between two NSI indexes over a time window.
/// Panics on a read error ([`RTree::try_read_node`]).
pub fn distance_join<const D: usize, SA: PageStore, SB: PageStore>(
    left: &RTree<NsiSegmentRecord<D>, SA>,
    right: &RTree<NsiSegmentRecord<D>, SB>,
    delta: f64,
    window: Interval,
    mut emit: impl FnMut(JoinPair<D>),
) -> QueryStats {
    assert!(delta >= 0.0, "distance threshold must be non-negative");
    let mut stats = QueryStats::default();
    // Node pairs, each page with the level its parent implies.
    let mut stack = vec![(
        (left.root_page(), left.height() - 1),
        (right.root_page(), right.height() - 1),
    )];
    let delta_sq = delta * delta;
    while let Some(((pa, la), (pb, lb))) = stack.pop() {
        // Zero-copy visits: both nodes stay as borrowed views over their
        // pages; entries decode lazily.
        let (na, nb) = left
            .try_read_node(pa, la)
            .and_then(|na| Ok((na, right.try_read_node(pb, lb)?)))
            .unwrap_or_else(|e| panic!("unrecoverable storage error: {e}"));
        stats.disk_accesses += 2;
        stats.leaf_accesses += u64::from(la == 0) + u64::from(lb == 0);
        match (na.is_leaf(), nb.is_leaf()) {
            (false, false) => {
                for (ka, ca) in na.internal_entries() {
                    for (kb, cb) in nb.internal_entries() {
                        stats.distance_computations += 1;
                        if compatible(&ka, &kb, delta_sq, &window) {
                            stack.push(((ca, la - 1), (cb, lb - 1)));
                        }
                    }
                }
            }
            (false, true) => {
                // Descend the left side only; the right node re-loads per
                // matching child (counted — the naive dual traversal).
                let kb = nb.bounding_key();
                for (ka, ca) in na.internal_entries() {
                    stats.distance_computations += 1;
                    if compatible(&ka, &kb, delta_sq, &window) {
                        stack.push(((ca, la - 1), (pb, lb)));
                    }
                }
            }
            (true, false) => {
                let ka = na.bounding_key();
                for (kb, cb) in nb.internal_entries() {
                    stats.distance_computations += 1;
                    if compatible(&ka, &kb, delta_sq, &window) {
                        stack.push(((pa, la), (cb, lb - 1)));
                    }
                }
            }
            (true, true) => {
                // Materialize the inner side once per node pair; the outer
                // side streams straight off the page.
                let inner: Vec<_> = nb.leaf_records().collect();
                for a in na.leaf_records() {
                    for &b in &inner {
                        stats.distance_computations += 1;
                        use rtree::Record;
                        if !compatible(&a.key(), &b.key(), delta_sq, &window) {
                            continue;
                        }
                        let meeting =
                            within_distance(&a.seg, &b.seg, delta).intersect_interval(&window);
                        if !meeting.is_empty() {
                            stats.results += 1;
                            emit(JoinPair { a, b, meeting });
                        }
                    }
                }
            }
        }
    }
    stats
}

/// Self-join: pairs of distinct objects within `δ` (each unordered pair
/// reported once, `a.oid < b.oid`).
pub fn self_distance_join<const D: usize, S: PageStore>(
    tree: &RTree<NsiSegmentRecord<D>, S>,
    delta: f64,
    window: Interval,
    mut emit: impl FnMut(JoinPair<D>),
) -> QueryStats {
    distance_join(tree, tree, delta, window, |p| {
        if p.a.oid < p.b.oid {
            emit(p);
        }
    })
}

/// Can any pair under these two keys be within `δ` during `window`?
fn compatible<const D: usize>(
    a: &stkit::StBox<D, 1>,
    b: &stkit::StBox<D, 1>,
    delta_sq: f64,
    window: &Interval,
) -> bool {
    a.time.extent(0).overlaps(&b.time.extent(0))
        && a.time.extent(0).overlaps(window)
        && b.time.extent(0).overlaps(window)
        && a.space.min_dist_sq_rect(&b.space) <= delta_sq
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree::bulk::bulk_load;
    use rtree::RTreeConfig;
    use storage::Pager;

    type R = NsiSegmentRecord<2>;

    /// n objects crossing a corridor in both directions.
    fn crossing_recs(n: u32) -> Vec<R> {
        (0..n)
            .map(|i| {
                let y = i as f64;
                if i % 2 == 0 {
                    // Eastbound on even rows.
                    R::new(i, 0, Interval::new(0.0, 10.0), [0.0, y], [10.0, y])
                } else {
                    // Westbound on odd rows.
                    R::new(i, 0, Interval::new(0.0, 10.0), [10.0, y], [0.0, y])
                }
            })
            .collect()
    }

    fn brute_pairs(recs: &[R], delta: f64, window: Interval) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (i, a) in recs.iter().enumerate() {
            for b in &recs[i + 1..] {
                if !within_distance(&a.seg, &b.seg, delta)
                    .intersect_interval(&window)
                    .is_empty()
                {
                    out.push((a.oid.min(b.oid), a.oid.max(b.oid)));
                }
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn self_join_matches_brute_force() {
        let recs = crossing_recs(20);
        let tree = bulk_load(Pager::new(), RTreeConfig::default(), recs.clone());
        let window = Interval::new(0.0, 10.0);
        for delta in [0.5, 1.0, 2.5] {
            let mut got = Vec::new();
            let stats = self_distance_join(&tree, delta, window, |p| {
                got.push((p.a.oid.min(p.b.oid), p.a.oid.max(p.b.oid)));
            });
            got.sort_unstable();
            assert_eq!(got, brute_pairs(&recs, delta, window), "delta {delta}");
            assert!(stats.results as usize >= got.len());
        }
    }

    #[test]
    fn meeting_times_are_exact() {
        // Two head-on objects on the same row meet at t = 5; within 2
        // units during [4, 6] (closing speed 2).
        let recs = vec![
            R::new(0, 0, Interval::new(0.0, 10.0), [0.0, 0.0], [10.0, 0.0]),
            R::new(1, 0, Interval::new(0.0, 10.0), [10.0, 0.0], [0.0, 0.0]),
        ];
        let tree = bulk_load(Pager::new(), RTreeConfig::default(), recs);
        let mut pairs = Vec::new();
        self_distance_join(&tree, 2.0, Interval::new(0.0, 10.0), |p| pairs.push(p));
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].meeting.hull(), Interval::new(4.0, 6.0));
    }

    #[test]
    fn window_clips_meetings() {
        let recs = vec![
            R::new(0, 0, Interval::new(0.0, 10.0), [0.0, 0.0], [10.0, 0.0]),
            R::new(1, 0, Interval::new(0.0, 10.0), [10.0, 0.0], [0.0, 0.0]),
        ];
        let tree = bulk_load(Pager::new(), RTreeConfig::default(), recs);
        // Window ends before they get close.
        let mut n = 0;
        self_distance_join(&tree, 2.0, Interval::new(0.0, 3.0), |_| n += 1);
        assert_eq!(n, 0);
        // Window catches only the first half of the encounter.
        let mut pairs = Vec::new();
        self_distance_join(&tree, 2.0, Interval::new(0.0, 5.0), |p| pairs.push(p));
        assert_eq!(pairs[0].meeting.hull(), Interval::new(4.0, 5.0));
    }

    #[test]
    fn two_tree_join() {
        // Left: eastbound fleet; right: westbound fleet on the same rows.
        let (mut left_recs, mut right_recs) = (Vec::new(), Vec::new());
        for i in 0..10u32 {
            let y = i as f64 * 3.0;
            left_recs.push(R::new(i, 0, Interval::new(0.0, 10.0), [0.0, y], [10.0, y]));
            right_recs.push(R::new(
                100 + i,
                0,
                Interval::new(0.0, 10.0),
                [10.0, y],
                [0.0, y],
            ));
        }
        let left = bulk_load(Pager::new(), RTreeConfig::default(), left_recs);
        let right = bulk_load(Pager::new(), RTreeConfig::default(), right_recs);
        let mut pairs = Vec::new();
        let stats = distance_join(&left, &right, 1.0, Interval::new(0.0, 10.0), |p| {
            pairs.push((p.a.oid, p.b.oid));
        });
        // Rows are 3 apart, δ = 1: only same-row pairs meet.
        assert_eq!(pairs.len(), 10);
        for (a, b) in &pairs {
            assert_eq!(a + 100, *b);
        }
        assert_eq!(stats.results, 10);
    }

    #[test]
    fn a_join_descending_into_a_cycle_panics_with_the_corrupt_page() {
        use crate::knn::tests::{cyclic_tree, panic_within_5s};
        let (tree, root) = cyclic_tree();
        let window = Interval::new(0.0, 10.0);
        let msg = panic_within_5s(move || self_distance_join(&tree, 1.0, window, |_| {}));
        assert!(msg.contains(&format!("corrupt page {root}")), "{msg}");
    }

    #[test]
    fn pruning_saves_comparisons() {
        // Spread clusters far apart: dual-tree must not compare across.
        let mut recs = Vec::new();
        for i in 0..200u32 {
            let base = if i < 100 { 0.0 } else { 5000.0 };
            let x = base + (i % 10) as f64;
            let y = (i / 10 % 10) as f64;
            recs.push(R::new(i, 0, Interval::new(0.0, 10.0), [x, y], [x + 1.0, y]));
        }
        let tree = bulk_load(Pager::new(), RTreeConfig::default(), recs.clone());
        let mut n = 0;
        let stats = self_distance_join(&tree, 0.5, Interval::new(0.0, 10.0), |_| n += 1);
        // Brute force would be 200·199/2 ≈ 19 900 pair tests plus node
        // pairs; pruning should cut well below record-pair exhaustion
        // across clusters (100·100 = 10 000 cross pairs alone).
        let brute = brute_pairs(&recs, 0.5, Interval::new(0.0, 10.0));
        assert_eq!(n, brute.len());
        assert!(
            stats.distance_computations < 19_900,
            "no pruning happened: {}",
            stats.distance_computations
        );
    }
}
