//! k-nearest-neighbour search for a (moving) query point — the paper's
//! future-work extension (i), after Song & Roussopoulos' moving-query-
//! point kNN (§6).
//!
//! [`knn_at`] is a classic best-first kNN (Hjaltason–Samet style, the
//! same priority-queue machinery §4.1 builds on) restricted to motion
//! segments valid at the query instant. [`knn_moving_observer`] ranks
//! records by their closest approach to an observer moving over a time
//! window.

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
    fn equidistant_moving_observer_is_deterministic() {
        // Same tie scenario through the moving-observer entry point: four
        // stationary objects at identical closest-approach distance.
        let recs: Vec<R> = [3u32, 1, 2, 0]
            .iter()
            .enumerate()
            .map(|(slot, &oid)| {
                let x = 10.0 + 20.0 * slot as f64;
                R::new(oid, 0, Interval::new(0.0, 10.0), [x, 2.0], [x, 2.0])
            })
            .collect();
        let tree = bulk_load(Pager::new(), RTreeConfig::default(), recs);
        let observer =
            MotionSegment::from_endpoints(Interval::new(0.0, 10.0), [0.0, 0.0], [100.0, 0.0]);
        let mut stats = QueryStats::default();
        let res =
            knn_moving_observer(&tree, &observer, Interval::new(0.0, 10.0), 2, &mut stats);
        let ids: Vec<u32> = res.iter().map(|r| r.record.oid).collect();
        assert_eq!(ids, vec![0, 1], "equidistant ties must resolve by id");
    }

    use stkit::MotionSegment;

    #[test]
    fn more_neighbors_than_objects() {
        let tree = grid_tree(2);
        let mut stats = QueryStats::default();
        let res = knn_at(&tree, [0.0, 0.0], 1.0, 10, &mut stats);
        assert_eq!(res.len(), 4, "only 4 objects exist");
    }
}

/// kNN *relative to a moving observer over a time window*: the `k`
/// records minimizing their closest approach to the observer's motion
/// during `window` — "which k objects come nearest to me during the next
/// minute?". Best-first over a lower bound: the spatial box distance
/// between the observer's swept extent and each node box (valid because
/// positions stay inside their bounding boxes).
pub fn knn_moving_observer<const D: usize, S: PageStore>(
    tree: &RTree<NsiSegmentRecord<D>, S>,
    observer: &stkit::MotionSegment<D>,
    window: stkit::Interval,
    k: usize,
    stats: &mut QueryStats,
) -> Vec<KnnResult<D>> {
    use stkit::min_dist_sq_over;
    let span = observer.t.intersect(&window);
    if span.is_empty() || k == 0 {
        return Vec::new();
    }
    // The observer's swept spatial box over the window.
    let clipped = stkit::MotionSegment::from_endpoints(
        span,
        observer.position(span.lo),
        observer.position(span.hi),
    );
    let swept = clipped.spatial_bbox();

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
                let node = tree.read_node(page);
                stats.disk_accesses += 1;
                if node.is_leaf() {
                    stats.leaf_accesses += 1;
                    for rec in node.leaf_records() {
                        stats.distance_computations += 1;
                        if let Some(d) = min_dist_sq_over(&rec.seg, observer, &span) {
                            heap.push(FrontierItem {
                                dist_sq: d,
                                what: Frontier::Object(rec),
                            });
                        }
                    }
                } else {
                    for (key, child) in node.internal_entries() {
                        stats.distance_computations += 1;
                        if !key.time.extent(0).overlaps(&span) {
                            continue;
                        }
                        let d = key.space.min_dist_sq_rect(&swept);
                        heap.push(FrontierItem {
                            dist_sq: d,
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
mod moving_observer_tests {
    use super::*;
    use rtree::bulk::bulk_load;
    use rtree::RTreeConfig;
    use storage::Pager;
    use stkit::{Interval, MotionSegment};

    type R = NsiSegmentRecord<2>;

    #[test]
    fn closest_approach_ranking() {
        // Observer drives east along y = 0; objects sit at varying y.
        let recs: Vec<R> = (0..20)
            .map(|i| {
                let y = 1.0 + i as f64;
                R::new(i, 0, Interval::new(0.0, 10.0), [50.0, y], [50.0, y])
            })
            .collect();
        let tree = bulk_load(Pager::new(), RTreeConfig::default(), recs);
        let observer =
            MotionSegment::from_endpoints(Interval::new(0.0, 10.0), [0.0, 0.0], [100.0, 0.0]);
        let mut stats = QueryStats::default();
        let res = knn_moving_observer(&tree, &observer, Interval::new(0.0, 10.0), 3, &mut stats);
        let ids: Vec<u32> = res.iter().map(|r| r.record.oid).collect();
        assert_eq!(ids, vec![0, 1, 2], "nearest rows first");
        assert!((res[0].dist_sq - 1.0).abs() < 1e-9);
        assert!((res[2].dist_sq - 9.0).abs() < 1e-9);
    }

    #[test]
    fn window_changes_the_answer() {
        // Object 0 is near the observer's path only late; object 1 early.
        let recs = vec![
            R::new(0, 0, Interval::new(0.0, 10.0), [90.0, 2.0], [90.0, 2.0]),
            R::new(1, 0, Interval::new(0.0, 10.0), [10.0, 2.0], [10.0, 2.0]),
        ];
        let tree = bulk_load(Pager::new(), RTreeConfig::default(), recs);
        let observer =
            MotionSegment::from_endpoints(Interval::new(0.0, 10.0), [0.0, 0.0], [100.0, 0.0]);
        let mut stats = QueryStats::default();
        // Early window: observer only reaches x ∈ [0, 30].
        let early =
            knn_moving_observer(&tree, &observer, Interval::new(0.0, 3.0), 1, &mut stats);
        assert_eq!(early[0].record.oid, 1);
        // Late window: x ∈ [80, 100].
        let late =
            knn_moving_observer(&tree, &observer, Interval::new(8.0, 10.0), 1, &mut stats);
        assert_eq!(late[0].record.oid, 0);
    }

    #[test]
    fn matches_brute_force() {
        let recs: Vec<R> = (0..300)
            .map(|i| {
                let ang = i as f64 * 2.399;
                let p = [50.0 + (i % 17) as f64 * 2.0 - 16.0, 30.0 + (i % 23) as f64];
                R::new(
                    i,
                    0,
                    Interval::new((i % 5) as f64, (i % 5) as f64 + 4.0),
                    p,
                    [p[0] + ang.cos(), p[1] + ang.sin()],
                )
            })
            .collect();
        let tree = bulk_load(Pager::new(), RTreeConfig::default(), recs.clone());
        let observer =
            MotionSegment::from_endpoints(Interval::new(0.0, 8.0), [30.0, 30.0], [70.0, 45.0]);
        let window = Interval::new(1.0, 7.0);
        let mut stats = QueryStats::default();
        let got = knn_moving_observer(&tree, &observer, window, 5, &mut stats);
        let mut brute: Vec<(f64, u32)> = recs
            .iter()
            .filter_map(|r| {
                stkit::min_dist_sq_over(&r.seg, &observer, &window).map(|d| (d, r.oid))
            })
            .collect();
        brute.sort_by(|a, b| a.0.total_cmp(&b.0));
        assert_eq!(got.len(), 5);
        for (i, res) in got.iter().enumerate() {
            assert!(
                (res.dist_sq - brute[i].0).abs() < 1e-9,
                "rank {i}: {} vs {}",
                res.dist_sq,
                brute[i].0
            );
        }
    }
}
