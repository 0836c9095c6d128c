//! k-nearest-neighbour search at a query instant — the paper's
//! future-work extension (i), after Song & Roussopoulos' moving-query-
//! point kNN (§6).
//!
//! [`knn_at`] is a classic best-first kNN (Hjaltason–Samet style, the
//! same priority-queue machinery §4.1 builds on) restricted to motion
//! segments valid at the query instant; a moving observer calls it once
//! per instant (`examples/vicinity_monitor.rs`).

use crate::stats::QueryStats;
use rtree::{NsiSegmentRecord, RTree};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use storage::{PageId, PageStore};

/// One kNN answer: a record and its squared distance at the query instant.
#[derive(Clone, Debug, PartialEq)]
pub struct KnnResult<const D: usize> {
    /// The motion-segment record.
    pub record: NsiSegmentRecord<D>,
    /// Squared distance to the query point at the query instant.
    pub dist_sq: f64,
}

enum Frontier<const D: usize> {
    Node(PageId),
    Object(NsiSegmentRecord<D>),
}

struct FrontierItem<const D: usize> {
    dist_sq: f64,
    what: Frontier<D>,
}

impl<const D: usize> FrontierItem<D> {
    /// Deterministic tie-break at equal distance, same as the PDQ queue:
    /// objects pop before nodes (an answer beats speculative expansion),
    /// then ascending identity. Without this, `BinaryHeap`'s arbitrary
    /// tie order makes the reported k-set depend on insertion history
    /// whenever the k-th and (k+1)-th candidates are equidistant.
    fn tie_key(&self) -> (u8, u64) {
        match &self.what {
            Frontier::Object(r) => (0, ((r.oid as u64) << 32) | r.seq as u64),
            Frontier::Node(page) => (1, page.0 as u64),
        }
    }
}

impl<const D: usize> PartialEq for FrontierItem<D> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<const D: usize> Eq for FrontierItem<D> {}
impl<const D: usize> PartialOrd for FrontierItem<D> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<const D: usize> Ord for FrontierItem<D> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance, with a total tie-break so the pop order
        // (and therefore the k-set at tie boundaries) is deterministic.
        other
            .dist_sq
            .total_cmp(&self.dist_sq)
            .then_with(|| other.tie_key().cmp(&self.tie_key()))
    }
}

/// Best-first kNN at a single instant `t`: the `k` objects (valid at `t`)
/// nearest to point `p`.
pub fn knn_at<const D: usize, S: PageStore>(
    tree: &RTree<NsiSegmentRecord<D>, S>,
    p: [f64; D],
    t: f64,
    k: usize,
    stats: &mut QueryStats,
) -> Vec<KnnResult<D>> {
    if k == 0 {
        return Vec::new();
    }
    let mut heap: BinaryHeap<FrontierItem<D>> = BinaryHeap::new();
    heap.push(FrontierItem {
        dist_sq: 0.0,
        what: Frontier::Node(tree.root_page()),
    });
    let mut out: Vec<KnnResult<D>> = Vec::with_capacity(k);
    while let Some(item) = heap.pop() {
        match item.what {
            Frontier::Object(record) => {
                out.push(KnnResult {
                    record,
                    dist_sq: item.dist_sq,
                });
                stats.results += 1;
                if out.len() == k {
                    break;
                }
            }
            Frontier::Node(page) => {
                // Zero-copy visit: entries decode lazily out of the page.
                let node = tree.read_node(page);
                stats.disk_accesses += 1;
                if node.is_leaf() {
                    stats.leaf_accesses += 1;
                    for rec in node.leaf_records() {
                        stats.distance_computations += 1;
                        if !rec.seg.t.contains(t) {
                            continue;
                        }
                        heap.push(FrontierItem {
                            dist_sq: rec.seg.dist_sq_at(t, &p),
                            what: Frontier::Object(rec),
                        });
                    }
                } else {
                    for (key, child) in node.internal_entries() {
                        stats.distance_computations += 1;
                        if !key.time.extent(0).contains(t) {
                            continue;
                        }
                        heap.push(FrontierItem {
                            dist_sq: key.space.min_dist_sq(&p),
                            what: Frontier::Node(child),
                        });
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree::bulk::bulk_load;
    use rtree::{RTree, RTreeConfig};
    use storage::Pager;
    use stkit::Interval;

    type R = NsiSegmentRecord<2>;

    fn grid_tree(n: u32) -> RTree<R, Pager> {
        let recs: Vec<R> = (0..n * n)
            .map(|k| {
                let x = (k % n) as f64 + 0.5;
                let y = (k / n) as f64 + 0.5;
                R::new(k, 0, Interval::new(0.0, 100.0), [x, y], [x, y])
            })
            .collect();
        bulk_load(Pager::new(), RTreeConfig::default(), recs)
    }

    #[test]
    fn nearest_neighbor_is_correct() {
        let tree = grid_tree(20);
        let mut stats = QueryStats::default();
        let res = knn_at(&tree, [5.6, 5.6], 1.0, 1, &mut stats);
        assert_eq!(res.len(), 1);
        // Nearest grid point to (5.6, 5.6) is (5.5, 5.5).
        assert_eq!(res[0].record.seg.x0, [5.5, 5.5]);
        assert!((res[0].dist_sq - 0.02).abs() < 1e-9);
    }

    #[test]
    fn k_results_in_distance_order() {
        let tree = grid_tree(20);
        let mut stats = QueryStats::default();
        let res = knn_at(&tree, [10.5, 10.5], 1.0, 5, &mut stats);
        assert_eq!(res.len(), 5);
        for w in res.windows(2) {
            assert!(w[0].dist_sq <= w[1].dist_sq);
        }
        // First is the exact cell we sit on.
        assert_eq!(res[0].record.seg.x0, [10.5, 10.5]);
        assert_eq!(res[0].dist_sq, 0.0);
    }

    #[test]
    fn validity_filter_applies() {
        // One object valid only early, closer than everything else.
        let mut recs = vec![R::new(
            0,
            0,
            Interval::new(0.0, 1.0),
            [50.0, 50.0],
            [50.0, 50.0],
        )];
        recs.push(R::new(1, 0, Interval::new(0.0, 100.0), [52.0, 50.0], [52.0, 50.0]));
        let tree = bulk_load(Pager::new(), RTreeConfig::default(), recs);
        let mut stats = QueryStats::default();
        let early = knn_at(&tree, [50.0, 50.0], 0.5, 1, &mut stats);
        assert_eq!(early[0].record.oid, 0);
        let late = knn_at(&tree, [50.0, 50.0], 5.0, 1, &mut stats);
        assert_eq!(late[0].record.oid, 1, "expired object must be skipped");
    }

    #[test]
    fn equidistant_tie_breaks_are_deterministic() {
        // Eight objects on the integer circle of radius 5 around the
        // query point — Pythagorean offsets (±3,±4)/(±4,±3) make every
        // distance *exactly* 25 even after f32 coordinate quantization —
        // and k = 3 < 8, so the k-set is decided purely by the tie-break.
        // Assign oids in an order unrelated to position so an
        // insertion-order heap would produce a different (arbitrary) set.
        let offsets = [
            [3.0, 4.0],
            [4.0, 3.0],
            [-3.0, 4.0],
            [-4.0, -3.0],
            [3.0, -4.0],
            [4.0, -3.0],
            [-3.0, -4.0],
            [-4.0, 3.0],
        ];
        let order = [5u32, 2, 7, 0, 3, 6, 1, 4];
        let recs: Vec<R> = order
            .iter()
            .zip(&offsets)
            .map(|(&oid, off)| {
                let p = [50.0 + off[0], 50.0 + off[1]];
                R::new(oid, 0, Interval::new(0.0, 100.0), p, p)
            })
            .collect();
        let tree = bulk_load(Pager::new(), RTreeConfig::default(), recs);
        let mut stats = QueryStats::default();
        let res = knn_at(&tree, [50.0, 50.0], 1.0, 3, &mut stats);
        assert_eq!(res.len(), 3);
        for r in &res {
            assert_eq!(r.dist_sq, 25.0, "all candidates tie exactly");
        }
        // Objects pop before nodes, then ascending (oid, seq): the k-set
        // is the three smallest oids, in oid order, every run.
        let ids: Vec<u32> = res.iter().map(|r| r.record.oid).collect();
        assert_eq!(ids, vec![0, 1, 2], "k-set must be the smallest ids");
        // And a second run over the same tree is bit-identical.
        let again = knn_at(&tree, [50.0, 50.0], 1.0, 3, &mut stats);
        assert_eq!(res, again);
    }

    #[test]
    fn more_neighbors_than_objects() {
        let tree = grid_tree(2);
        let mut stats = QueryStats::default();
        let res = knn_at(&tree, [0.0, 0.0], 1.0, 10, &mut stats);
        assert_eq!(res.len(), 4, "only 4 objects exist");
    }
}
