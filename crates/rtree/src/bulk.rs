//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! STR packs records into leaves by recursively sorting on successive
//! axes and tiling; upper levels are packed the same way from the level
//! below. There is one loader, [`pack_into`], with two callers that
//! differ only in the axis order and fill they pass:
//!
//! * **The §5 experiment build**, [`bulk_load`]. The paper builds its
//!   index over ≈502 k motion segments before running queries, at a 0.5
//!   fill factor; sorting space before time ([`AxisOrder::KeyOrder`]) at
//!   `config.bulk_fill` yields exactly the reported height of 3. The
//!   figures and tests call this.
//! * **A serving rebuild** — server start, the base of a recovery, a
//!   recut (`mobiquery::router`). It sorts time first
//!   ([`AxisOrder::LastFirst`]) at a fill the router fixes and
//!   justifies beside its constant. Time leads because a serving index
//!   is mostly history: a frame at `t` can only match the few records
//!   alive at `t`, and slabs cut on time keep those in leaves of their
//!   own, where slabs cut on space spread them over every leaf. The gain
//!   has a cliff under it: at a low fill a slab boundary falls *inside*
//!   the live population and mixes it into history leaves, whose time
//!   extent then covers every frame (measured in the router's comment).
//!
//! The loader is a pure function of the record *multiset*: every sort is
//! a total order (`f64::total_cmp` on the axis centre, ties broken by
//! the records' encoded bytes, or by child page above the leaves), so
//! the same records in any input order give the same pages — and
//! recovered bytes that decode to NaN or ±∞ coordinates sort somewhere
//! instead of panicking a sort that found its comparator inconsistent.
//!
//! Memory contract: the records stay where the caller has them. The
//! loader allocates a permutation of `u32` indices and one `f64` sort
//! centre per record, `(key, page)` per node for the level above, and
//! writes each node through the tree's one scratch page — under 16 bytes
//! per record beyond the pages written (`tests/insert_allocs.rs`).
//!
//! Packed nodes carry stamp 0, the one no insert writes. For NPDQ (§4.2)
//! that reads "not modified since the previous query", which is sound
//! because whatever rebuilds a tree also starts its queries afresh, with
//! no previous query to discard against. Each packed node's
//! [`RTree::latest_start`] is the exact maximum over the records under it.

use crate::traits::{Key, Record};
use crate::tree::{as_stored, start_bound_f32, RTree, RTreeConfig};
use std::cmp::Ordering;
use storage::{PageId, PageStore};

/// The order in which STR sorts, and slabs, a key's axes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AxisOrder {
    /// The first `k` axes in key order (clamped to `1..=AXES`) — for
    /// `StBox` keys, space before time. Fewer than all axes clusters
    /// purely on the leading ones ([`RTreeConfig::bulk_leading_axes`]).
    KeyOrder(usize),
    /// The key's last axis first, then the rest in key order: time, then
    /// space, for an `StBox<D, 1>`.
    LastFirst,
}

impl AxisOrder {
    fn axes<K: Key>(self) -> Vec<usize> {
        match self {
            AxisOrder::KeyOrder(k) => (0..k.clamp(1, K::AXES)).collect(),
            AxisOrder::LastFirst => std::iter::once(K::AXES - 1)
                .chain(0..K::AXES - 1)
                .collect(),
        }
    }
}

/// Build a tree from `records` by STR packing in key-axis order at
/// `config.bulk_fill` (the paper's §5 build).
pub fn bulk_load<R: Record, S: PageStore>(
    store: S,
    config: RTreeConfig,
    records: Vec<R>,
) -> RTree<R, S> {
    let mut tree = RTree::new(store, config);
    let order = AxisOrder::KeyOrder(config.bulk_leading_axes.unwrap_or(R::Key::AXES));
    let members = (0..index(records.len())).collect();
    pack_into(&mut tree, &records, members, order, config.bulk_fill);
    tree
}

/// Pack `records[i]` for every `i` in `members` into `tree`, which must
/// be empty and keeps its store and configuration. Nodes are filled to
/// `fill` of their capacity, tiled by sorting the axes in `order`.
/// `members` is consumed as the sort's working permutation; an index may
/// repeat (the record is stored once per occurrence).
pub fn pack_into<R: Record, S: PageStore>(
    tree: &mut RTree<R, S>,
    records: &[R],
    mut members: Vec<u32>,
    order: AxisOrder,
    fill: f64,
) {
    assert!(
        tree.is_empty() && tree.height() == 1,
        "pack_into needs an empty tree"
    );
    if members.is_empty() {
        return;
    }
    let len = members.len() as u64;
    let axes = order.axes::<R::Key>();
    // The first leaf goes into the empty root's page from `RTree::new`,
    // so the store's ids stay exactly `0..page_count`.
    let mut root_page = Some(tree.root_page());

    // Pack leaves. Equal centres fall back on the encoded records, the
    // one total order every `Record` has.
    let mut entries: Vec<(R::Key, PageId)> = Vec::new();
    let (mut left, mut right) = (Vec::new(), Vec::new());
    Tiler {
        axes: &axes,
        cap: effective_fill(tree.leaf_capacity(), fill),
        centres: vec![0.0; records.len()],
        centre: |i, axis| records[i as usize].key().center(axis),
        tie: |a, b| {
            left.clear();
            right.clear();
            records[a as usize].encode(&mut left);
            records[b as usize].encode(&mut right);
            left.cmp(&right)
        },
        emit: |tile: &[u32]| {
            let mut key = R::Key::empty();
            let mut latest = f32::NEG_INFINITY;
            let page = tree.write_fresh(root_page.take(), 0, |node| {
                for &i in tile {
                    let rec = &records[i as usize];
                    key = key.cover(&rec.key());
                    latest = latest.max(start_bound_f32(rec));
                    node.push_record(rec);
                }
            });
            tree.set_start(page, latest);
            entries.push((key, page));
        },
    }
    .tile(&mut members, 0);
    drop(members);

    // Pack upper levels until one node remains.
    let internal_fill = effective_fill(tree.internal_capacity(), fill);
    let mut level = 0u32;
    let mut buf = Vec::new();
    while entries.len() > 1 {
        level += 1;
        let below = std::mem::take(&mut entries);
        let mut perm: Vec<u32> = (0..index(below.len())).collect();
        Tiler {
            axes: &axes,
            cap: internal_fill,
            centres: vec![0.0; below.len()],
            centre: |i, axis| below[i as usize].0.center(axis),
            tie: |a, b| below[a as usize].1.cmp(&below[b as usize].1),
            emit: |tile: &[u32]| {
                let mut key = R::Key::empty();
                let latest = tile
                    .iter()
                    .map(|&i| tree.start_of(below[i as usize].1))
                    .fold(f32::NEG_INFINITY, f32::max);
                let page = tree.write_fresh(None, level, |node| {
                    for &i in tile {
                        let (k, child) = &below[i as usize];
                        key = key.cover(&as_stored(k, &mut buf));
                        node.push_entry(k, *child);
                    }
                });
                tree.set_start(page, latest);
                entries.push((key, page));
            },
        }
        .tile(&mut perm, 0);
    }

    tree.set_root(entries[0].1, level + 1, len);
}

/// A record or entry count as the `u32` the sort permutes.
fn index(n: usize) -> u32 {
    u32::try_from(n).expect("bulk load indexes records by u32")
}

/// Number of entries to pack per node: `capacity · fill`, at least 1.
fn effective_fill(capacity: usize, fill: f64) -> usize {
    ((capacity as f64 * fill).floor() as usize).clamp(1, capacity)
}

/// One level's STR pass over items known only by index: `centre(i, axis)`
/// places item `i`, `tie` orders two items whose centres are equal, and
/// `emit` receives each finished tile of at most `cap` items, in order.
struct Tiler<'a, C, T, E> {
    axes: &'a [usize],
    cap: usize,
    /// Sort key of each item on the axis being sorted, by item index, so
    /// a comparison reads two floats instead of deriving two keys.
    centres: Vec<f64>,
    centre: C,
    tie: T,
    emit: E,
}

impl<C, T, E> Tiler<'_, C, T, E>
where
    C: Fn(u32, usize) -> f64,
    T: FnMut(u32, u32) -> Ordering,
    E: FnMut(&[u32]),
{
    /// Sort `items` on the axis at `depth`, slice them into slabs, and
    /// recurse on the next axis; the last axis (or a slab that fits one
    /// node) is cut into tiles.
    fn tile(&mut self, items: &mut [u32], depth: usize) {
        let axis = self.axes[depth];
        for &i in items.iter() {
            self.centres[i as usize] = (self.centre)(i, axis);
        }
        let (centres, tie) = (&self.centres, &mut self.tie);
        items.sort_unstable_by(|&a, &b| {
            centres[a as usize]
                .total_cmp(&centres[b as usize])
                .then_with(|| tie(a, b))
        });
        let remaining_axes = self.axes.len() - depth;
        if remaining_axes == 1 || items.len() <= self.cap {
            items.chunks(self.cap).for_each(&mut self.emit);
            return;
        }
        // Number of tiles still needed, spread over the remaining axes.
        let tiles_needed = items.len().div_ceil(self.cap);
        let slabs = (tiles_needed as f64)
            .powf(1.0 / remaining_axes as f64)
            .ceil() as usize;
        let slab_size = items.len().div_ceil(slabs.max(1));
        for slab in items.chunks_mut(slab_size) {
            self.tile(slab, depth + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::NsiSegmentRecord;
    use storage::Pager;
    use stkit::Interval;

    type R = NsiSegmentRecord<2>;

    fn records(n: usize) -> Vec<R> {
        (0..n)
            .map(|i| {
                let x = (i % 100) as f64;
                let y = (i / 100) as f64;
                let t = (i % 50) as f64 * 0.1;
                R::new(
                    i as u32,
                    0,
                    Interval::new(t, t + 1.0),
                    [x, y],
                    [x + 0.5, y + 0.5],
                )
            })
            .collect()
    }

    #[test]
    fn empty_bulk_load() {
        let tree = bulk_load(Pager::new(), RTreeConfig::default(), Vec::<R>::new());
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 1);
        tree.validate().unwrap();
    }

    #[test]
    fn single_record() {
        let tree = bulk_load(Pager::new(), RTreeConfig::default(), records(1));
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.height(), 1);
        tree.validate().unwrap();
    }

    #[test]
    fn one_leaf_worth() {
        let tree = bulk_load(Pager::new(), RTreeConfig::default(), records(63));
        assert_eq!(tree.height(), 1, "63 records fit one half-filled leaf");
        let inv = tree.validate().unwrap();
        assert_eq!(inv.records, 63);
    }

    #[test]
    fn multi_level_build() {
        let tree = bulk_load(Pager::new(), RTreeConfig::default(), records(10_000));
        assert_eq!(tree.len(), 10_000);
        let inv = tree.validate().unwrap();
        assert_eq!(inv.records, 10_000);
        // 10 000 / 63 ≈ 159 leaves → needs 3 levels at fill 72.
        assert_eq!(inv.height, 3);
        // Fill factor near the requested 0.5 · 127 = 63.
        let fill = inv.avg_leaf_fill();
        assert!((55.0..=63.5).contains(&fill), "leaf fill {fill}");
    }

    #[test]
    fn full_fill_build() {
        let cfg = RTreeConfig {
            bulk_fill: 1.0,
            ..RTreeConfig::default()
        };
        let tree = bulk_load(Pager::new(), cfg, records(1000));
        let inv = tree.validate().unwrap();
        // 1000 / 127 = 7.9 → 8 leaves, one root.
        assert_eq!(inv.nodes_per_level[0], 8);
        assert_eq!(inv.height, 2);
    }

    #[test]
    fn input_order_does_not_reach_the_pages() {
        // Heavy ties (50 distinct time centres, 100 distinct x) so the
        // tie-break decides most comparisons.
        let image = |recs: &[R], order| {
            let mut tree = RTree::new(Pager::with_page_size(512), RTreeConfig::default());
            let members = (0..recs.len() as u32).collect();
            pack_into(&mut tree, recs, members, order, 0.85);
            tree.validate().unwrap();
            let mut buf = Vec::new();
            storage::save_pager(tree.store(), &mut buf).unwrap();
            (tree.metadata(), buf)
        };
        let sorted = records(3_000);
        let mut shuffled = sorted.clone();
        shuffled.reverse();
        shuffled.rotate_left(1_234);
        shuffled.swap(7, 2_900);
        for order in [AxisOrder::KeyOrder(3), AxisOrder::LastFirst] {
            assert!(image(&sorted, order) == image(&shuffled, order));
        }
    }

    #[test]
    fn hostile_floats_sort_somewhere() {
        // What recovered bytes can decode to: NaN, ±∞ and -0.0
        // coordinates, inverted (empty) validity intervals. None of it may
        // panic a sort, and every record must come out of the tree again.
        let hostile = [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0];
        let mut recs = records(500);
        for i in 0..400u32 {
            let pick = |k: u32| hostile[((i / k) % 6) as usize];
            let mut bytes = Vec::new();
            recs[i as usize].encode(&mut bytes);
            // Overwrite one or two of t_lo, t_hi, x0, y0, x1, y1.
            let field = (i % 6) as usize;
            bytes[4 * field..4 * field + 4].copy_from_slice(&pick(1).to_le_bytes());
            if i % 3 == 0 {
                let other = ((i / 6) % 6) as usize;
                bytes[4 * other..4 * other + 4].copy_from_slice(&pick(7).to_le_bytes());
            }
            recs[i as usize] = R::decode(&bytes);
        }
        for rec in &mut recs[400..450] {
            rec.seg.t = Interval::new(9.0, 1.0);
        }
        for order in [AxisOrder::KeyOrder(3), AxisOrder::LastFirst] {
            let mut tree = RTree::new(Pager::with_page_size(512), RTreeConfig::default());
            let members = (0..recs.len() as u32).collect();
            pack_into(&mut tree, &recs, members, order, 0.85);
            assert_eq!(tree.len(), 500);
            assert!(tree.height() >= 3);
            let mut seen: Vec<u32> = Vec::new();
            assert_eq!(tree.try_scan(|r| seen.push(r.oid)), Ok(500));
            seen.sort_unstable();
            assert!(seen.iter().copied().eq(0..500));
        }
    }

    #[test]
    fn bulk_then_insert_coexist() {
        let mut tree = bulk_load(Pager::new(), RTreeConfig::default(), records(500));
        for i in 0..500 {
            let r = R::new(
                10_000 + i,
                0,
                Interval::new(0.0, 1.0),
                [i as f64 * 0.1, 50.0],
                [i as f64 * 0.1 + 1.0, 51.0],
            );
            tree.insert(r, i as f64);
        }
        assert_eq!(tree.len(), 1000);
        tree.validate().unwrap();
    }
}
