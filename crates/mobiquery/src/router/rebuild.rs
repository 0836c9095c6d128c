//! Rebuild: how a record set becomes region trees. Every start-up,
//! recovery base and [`super::PartitionedDqServer::rebalance`] goes
//! through [`build_regions`]; [`route_slice`] is the same routing rule
//! applied to one live batch.

use super::RegionTree;
use crate::layout::MotionRecord;
use crate::region::RegionGrid;
use parking_lot::RwLock;
use rtree::bulk::{pack_into, AxisOrder};
use rtree::{NsiSegmentRecord, RTree};
use stkit::Interval;
use storage::{PageStore, StorageError};

/// Refill `routed` with the slice of `batch` that routes to region `r`
/// under `grid`, in batch order. The caller keeps one buffer per writer,
/// so a frame's routing allocates nothing once the buffer has grown.
pub(super) fn route_slice<const D: usize>(
    grid: &RegionGrid,
    r: usize,
    batch: &[(NsiSegmentRecord<D>, f64)],
    routed: &mut Vec<(NsiSegmentRecord<D>, f64)>,
) {
    routed.clear();
    routed.extend(
        batch
            .iter()
            .filter(|(rec, _)| grid.route_rect(&rec.seg.spatial_bbox()).contains(&r)),
    );
}

/// Every record resident across `trees`, in `(oid, seq)` order and
/// deduplicated by it so seam replicas collapse to one copy — what a
/// rebalance re-routes and the base checkpoint persists. A page the scan
/// cannot trust is the error.
pub(super) fn dedup_from<const D: usize, S: PageStore>(
    trees: &[RegionTree<D, S>],
) -> Result<Vec<NsiSegmentRecord<D>>, StorageError> {
    let mut records = Vec::new();
    for lock in trees {
        lock.read().try_scan(|rec| records.push(*rec))?;
    }
    records.sort_unstable_by_key(NsiSegmentRecord::ids);
    records.dedup_by_key(|rec| rec.ids());
    Ok(records)
}

/// The grid-axis extent spanned by `records` (degenerate sets get a
/// unit slab so `RegionGrid::recut` always has room to cut).
pub(super) fn record_bounds<const D: usize>(axis: usize, records: &[NsiSegmentRecord<D>]) -> Interval {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for rec in records {
        let e = rec.seg.spatial_bbox().extent(axis);
        lo = lo.min(e.lo);
        hi = hi.max(e.hi);
    }
    if lo < hi {
        Interval::new(lo, hi)
    } else if lo.is_finite() {
        Interval::new(lo - 0.5, lo + 0.5)
    } else {
        Interval::new(0.0, 1.0)
    }
}

/// A rebuild tiles on time first, then space. A serving index is mostly
/// history, and a frame at `t` can match only what is alive at `t`: cut
/// on time first and those records get leaves of their own; cut on space
/// first (the §5 experiment order) and they are spread over every leaf.
/// `dqbench` `query`, seed 1, `node_reads_per_frame` /
/// `dist_comps_per_frame`, inserted tree 25.38 / 2199.6: space-first at
/// fill 0.70 reads 30.64 / 2421.1, at 0.85 26.85 / 2494.6; time-first at
/// the same fills 20.80 / 1838.2 and 18.27 / 1823.9.
const REBUILD_ORDER: AxisOrder = AxisOrder::LastFirst;

/// How full a rebuild packs each node: the low end of the plateau
/// `dqbench` measured for [`REBUILD_ORDER`] (exact counts, seed 1; seed 2
/// orders the same way).
///
/// | fill | `query` reads / comps | `ingest` reads | `wire` reads | `wire` PDQ reads | `wire` writer hold |
/// |---|---|---|---|---|---|
/// | inserted | 25.38 / 2199.6 | 7.833 | 4.448 | 0.197 | 12.5 µs |
/// | 0.65 | 34.27 / 2836.2 | | 4.441 | | |
/// | **0.70** | 20.80 / 1838.2 | 7.438 | 4.472 | 0.195 | 12.2 µs |
/// | 0.75 | 19.34 / 1833.7 | 7.571 | 4.346 | 0.201 | 14.1 µs |
/// | 0.80 | 18.68 / 1847.1 | 7.123 | 4.367 | 0.211 | 13.4 µs |
/// | 0.85 | 18.27 / 1823.9 | 6.914 | 4.397 | 0.396 | 16.9 µs |
/// | 0.90 | 18.66 / 1804.6 | 7.158 | 4.326 | 0.389 | 15.6 µs |
/// | 1.0 | 24.39 / 1901.1 | | | | |
///
/// (Reads and comps per session-frame; PDQ reads per frame and the
/// writer's lock hold per frame from the traced run, hold as the median
/// of 10.) From 0.70 to 0.90 a frame reads 18–28 % fewer nodes than over
/// the inserted tree. Below, the gain falls off a cliff — 0.65 reads
/// 35 % *more*, 0.5 reads 41.65. The loader cuts ⌈∛tiles⌉ time slabs:
/// over `query`'s ≈115 k records a region that is 11 slabs of 9.1 % from
/// 0.70 to 0.90, and the last one holds all of the parked objects' long
/// last segments — the ~20 k records (8.7 %) that are everything a frame
/// past the preload can match. At 0.65 it is 12 slabs of 8.3 %: the
/// boundary falls inside that population and mixes its tail into history
/// leaves, whose time extent then covers every frame. So the value is
/// not to be lowered, nor the preload's shape assumed elsewhere, without
/// rerunning `query`.
/// Above 0.80 the reads keep falling but the writer pays: leaves at the
/// time frontier, where every live insert lands, start nearly full,
/// split sooner, and each split re-enqueues a subtree in every PDQ — on
/// `wire` PDQ reads per frame double and the writer's hold grows by a
/// third. 0.70 is the one fill that raises neither on `wire` or
/// `ingest`, and it is the nearest to what inserts converge to on their
/// own (`rtree.leaf_fill` 0.62–0.65).
const REBUILD_FILL: f64 = 0.70;

/// Every rebuild of the region trees — server start, the base of a
/// recovery, [`super::PartitionedDqServer::rebalance`]: route `records`
/// under `grid`, seam straddlers into every region they touch,
/// then pack each region's tree bottom-up into the empty tree `make_tree`
/// returns for it (so its store, pool and configuration are the
/// caller's). The trees are a function of the record multiset and the
/// grid, not of the order records arrive in. Inserts are for what comes
/// after: live frames, and the WAL tail replayed over a recovered base.
pub(super) fn build_regions<const D: usize, S: PageStore>(
    grid: &RegionGrid,
    records: &[NsiSegmentRecord<D>],
    make_tree: &mut dyn FnMut(usize) -> RTree<NsiSegmentRecord<D>, S>,
) -> Vec<RegionTree<D, S>> {
    let mut routed: Vec<Vec<u32>> = vec![Vec::new(); grid.len()];
    for (i, rec) in (0u32..).zip(records) {
        for r in grid.route_rect(&rec.seg.spatial_bbox()) {
            routed[r].push(i);
        }
    }
    routed
        .into_iter()
        .enumerate()
        .map(|(r, members)| {
            let mut tree = make_tree(r);
            assert!(tree.is_empty(), "make_tree must return empty trees");
            pack_into(&mut tree, records, members, REBUILD_ORDER, REBUILD_FILL);
            RwLock::new(tree)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::tests::R;
    use crate::router::PartitionedDqServer;
    use rtree::RTreeConfig;
    use storage::Pager;

    fn records() -> Vec<R> {
        (0..600u32)
            .map(|i| {
                let x = f64::from(i * 37 % 101) + 0.5;
                let t = f64::from(i % 23);
                R::new(i, 0, Interval::new(t, t + 4.0), [x, 0.5], [x + 0.25, 0.75])
            })
            .collect()
    }

    fn small(_: usize) -> RTree<R, Pager> {
        RTree::new(Pager::with_page_size(256), RTreeConfig::default())
    }

    #[test]
    fn a_build_reads_no_node_and_writes_each_node_once() {
        // A fresh tree's counters hold only what the pack did; read them
        // before `validate` reads every node. One insert per record, the
        // rebuild the pack replaced, writes at least a leaf per record.
        let recs = records();
        let built = PartitionedDqServer::build(RegionGrid::single(), &recs, small);
        let (io, inv) = built.with_region_tree(0, |tree| {
            (tree.level_counters().snapshot(), tree.validate().unwrap())
        });
        assert!(inv.height >= 3, "a one-level tree proves nothing");
        assert_eq!(io.total_reads(), 0, "the pack read a node");
        assert_eq!(io.total_writes(), inv.nodes, "the pack wrote a node other than once");

        let mut inserted = small(0);
        for rec in &recs {
            inserted.insert(*rec, rec.seg.t.lo);
        }
        assert!(inserted.level_counters().snapshot().total_writes() >= recs.len() as u64);
    }

    #[test]
    fn rebuild_is_a_function_of_the_record_set() {
        // Same records, whatever order they arrive in and whichever
        // rebuild packs them — `build`, or a `rebalance` that lands on the
        // same grid: byte-identical pages per region.
        let recs = records();
        let images = |server: &PartitionedDqServer<2, Pager>| -> Vec<_> {
            (0..server.grid().len())
                .map(|r| {
                    server.with_region_tree(r, |tree| {
                        let mut pages = Vec::new();
                        storage::save_pager(tree.store(), &mut pages).unwrap();
                        (tree.metadata(), pages)
                    })
                })
                .collect()
        };
        let grid = RegionGrid::uniform(0, record_bounds(0, &recs), 3);
        let built = PartitionedDqServer::build(grid.clone(), &recs, small);
        assert!(built.with_region_tree(1, |tree| tree.height()) >= 3);

        let mut shuffled = recs.clone();
        shuffled.reverse();
        shuffled.rotate_left(217);
        let mut again = PartitionedDqServer::build(grid.clone(), &shuffled, small);
        assert!(images(&again) == images(&built), "arrival order reached the pages");

        // Never served, so no load: the recut is the uniform grid over the
        // records' extent — the grid both servers were built under.
        again.rebalance(3, small).unwrap();
        assert_eq!(again.grid().cuts(), grid.cuts());
        assert!(images(&again) == images(&built), "a rebalance packed the same set differently");
    }
}
