//! Property-based tests for the R-tree: structural invariants after
//! arbitrary build sequences, search equivalence with brute force, and
//! page-encoding conservatism.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rtree::bulk::{bulk_load, pack_into, AxisOrder};
use rtree::{Key, NsiSegmentRecord, RTree, RTreeConfig, Record, SplitPolicy};
use storage::{PageId, Pager};
use stkit::{Interval, Rect, StBox};

type R = NsiSegmentRecord<2>;

#[derive(Clone, Debug)]
struct RawSeg {
    t0: f64,
    dur: f64,
    a: [f64; 2],
    b: [f64; 2],
}

fn raw_seg() -> impl Strategy<Value = RawSeg> {
    (
        0.0f64..100.0,
        0.05f64..5.0,
        (-100.0f64..100.0, -100.0f64..100.0),
        (-100.0f64..100.0, -100.0f64..100.0),
    )
        .prop_map(|(t0, dur, a, b)| RawSeg {
            t0,
            dur,
            a: [a.0, a.1],
            b: [b.0, b.1],
        })
}

fn records(max: usize) -> impl Strategy<Value = Vec<R>> {
    proptest::collection::vec(raw_seg(), 1..max).prop_map(|raws| {
        raws.iter()
            .enumerate()
            .map(|(i, r)| {
                R::new(
                    i as u32,
                    0,
                    Interval::new(r.t0, r.t0 + r.dur),
                    r.a,
                    r.b,
                )
            })
            .collect()
    })
}

fn query_key() -> impl Strategy<Value = StBox<2, 1>> {
    (
        -100.0f64..100.0,
        0.0f64..80.0,
        -100.0f64..100.0,
        0.0f64..80.0,
        0.0f64..100.0,
        0.0f64..20.0,
    )
        .prop_map(|(x, w, y, h, t, dt)| {
            StBox::new(
                Rect::from_corners([x, y], [x + w, y + h]),
                Rect::new([Interval::new(t, t + dt)]),
            )
        })
}

fn brute<'a>(recs: &'a [R], q: &'a StBox<2, 1>) -> Vec<u32> {
    let mut v: Vec<u32> = recs
        .iter()
        .filter(|r| r.key().overlaps(q))
        .map(|r| r.oid)
        .collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn inserted_tree_is_valid_and_complete(recs in records(400), q in query_key()) {
        let mut tree: RTree<R, Pager> = RTree::new(Pager::new(), RTreeConfig::default());
        for (i, r) in recs.iter().enumerate() {
            tree.insert(*r, i as f64);
        }
        let inv = tree.validate().unwrap();
        prop_assert_eq!(inv.records as usize, recs.len());
        let (mut hits, _) = tree.range_collect(&q, |_| true);
        let mut got: Vec<u32> = hits.drain(..).map(|r| r.oid).collect();
        got.sort_unstable();
        prop_assert_eq!(got, brute(&recs, &q));
    }

    #[test]
    fn bulk_tree_is_valid_and_complete(recs in records(600), q in query_key()) {
        let tree = bulk_load(Pager::new(), RTreeConfig::default(), recs.clone());
        tree.validate().unwrap();
        let (mut hits, _) = tree.range_collect(&q, |_| true);
        let mut got: Vec<u32> = hits.drain(..).map(|r| r.oid).collect();
        got.sort_unstable();
        prop_assert_eq!(got, brute(&recs, &q));
    }

    #[test]
    fn spatial_bulk_tree_matches_brute_force(recs in records(600), q in query_key()) {
        let cfg = RTreeConfig { bulk_leading_axes: Some(2), ..RTreeConfig::default() };
        let tree = bulk_load(Pager::new(), cfg, recs.clone());
        tree.validate().unwrap();
        let (mut hits, _) = tree.range_collect(&q, |_| true);
        let mut got: Vec<u32> = hits.drain(..).map(|r| r.oid).collect();
        got.sort_unstable();
        prop_assert_eq!(got, brute(&recs, &q));
    }

    #[test]
    fn linear_split_tree_matches_brute_force(recs in records(300), q in query_key()) {
        let cfg = RTreeConfig { split_policy: SplitPolicy::Linear, ..RTreeConfig::default() };
        let mut tree: RTree<R, Pager> = RTree::new(Pager::new(), cfg);
        for (i, r) in recs.iter().enumerate() {
            tree.insert(*r, i as f64);
        }
        tree.validate().unwrap();
        let (mut hits, _) = tree.range_collect(&q, |_| true);
        let mut got: Vec<u32> = hits.drain(..).map(|r| r.oid).collect();
        got.sort_unstable();
        prop_assert_eq!(got, brute(&recs, &q));
    }

    #[test]
    fn rstar_split_tree_matches_brute_force(recs in records(300), q in query_key()) {
        let cfg = RTreeConfig { split_policy: SplitPolicy::RStar, ..RTreeConfig::default() };
        let mut tree: RTree<R, Pager> = RTree::new(Pager::new(), cfg);
        for (i, r) in recs.iter().enumerate() {
            tree.insert(*r, i as f64);
        }
        tree.validate().unwrap();
        let (mut hits, _) = tree.range_collect(&q, |_| true);
        let mut got: Vec<u32> = hits.drain(..).map(|r| r.oid).collect();
        got.sort_unstable();
        prop_assert_eq!(got, brute(&recs, &q));
    }

    #[test]
    fn mixed_bulk_then_insert_matches_brute_force(
        base in records(300),
        extra in records(100),
        q in query_key(),
    ) {
        // Re-id the extras so oids stay unique.
        let extra: Vec<R> = extra
            .iter()
            .enumerate()
            .map(|(i, r)| R { oid: 10_000 + i as u32, ..*r })
            .collect();
        let mut tree = bulk_load(Pager::new(), RTreeConfig::default(), base.clone());
        for (i, r) in extra.iter().enumerate() {
            tree.insert(*r, i as f64);
        }
        tree.validate().unwrap();
        let mut all = base;
        all.extend_from_slice(&extra);
        let (mut hits, _) = tree.range_collect(&q, |_| true);
        let mut got: Vec<u32> = hits.drain(..).map(|r| r.oid).collect();
        got.sort_unstable();
        prop_assert_eq!(got, brute(&all, &q));
    }

    #[test]
    fn serving_packed_tree_takes_inserts(
        base in records(500),
        extra in records(120),
        fill in 0.7f64..0.9,
    ) {
        // A serving rebuild packs time first and fuller than a split
        // leaves a node; what it hands back is an ordinary tree, and
        // stays one under the inserts that follow. Small pages (fanout
        // 15) so the packed tree has depth to disturb.
        let extra: Vec<R> = extra
            .iter()
            .enumerate()
            .map(|(i, r)| R { oid: 10_000 + i as u32, ..*r })
            .collect();
        let mut tree: RTree<R, Pager> =
            RTree::new(Pager::with_page_size(512), RTreeConfig::default());
        let members = (0..base.len() as u32).collect();
        pack_into(&mut tree, &base, members, AxisOrder::LastFirst, fill);
        tree.validate().unwrap();
        for (i, r) in extra.iter().enumerate() {
            tree.insert(*r, i as f64);
        }
        let inv = tree.validate().unwrap();
        let mut expect = base;
        expect.extend_from_slice(&extra);
        prop_assert_eq!(inv.records as usize, expect.len());
        let mut got = Vec::new();
        tree.try_scan(|r| got.push(*r)).unwrap();
        got.sort_unstable_by_key(|r| r.oid);
        expect.sort_unstable_by_key(|r| r.oid);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn key_encoding_is_conservative(
        x0 in -1.0e6f64..1.0e6, w in 0.0f64..1.0e3,
        y0 in -1.0e6f64..1.0e6, h in 0.0f64..1.0e3,
        t in 0.0f64..1.0e6, dt in 0.0f64..1.0e3,
    ) {
        let k: StBox<2, 1> = StBox::new(
            Rect::from_corners([x0, y0], [x0 + w, y0 + h]),
            Rect::new([Interval::new(t, t + dt)]),
        );
        let mut buf = Vec::new();
        k.encode(&mut buf);
        let d = <StBox<2, 1> as Key>::decode(&buf);
        prop_assert!(d.contains(&k), "decoded {d:?} must contain {k:?}");
    }

    #[test]
    fn record_roundtrip_exact(raw in raw_seg()) {
        let r = R::new(7, 3, Interval::new(raw.t0, raw.t0 + raw.dur), raw.a, raw.b);
        let mut buf = Vec::new();
        r.encode(&mut buf);
        prop_assert_eq!(R::decode(&buf), r);
    }

    #[test]
    fn split_reports_name_the_top_new_node(recs in records(300)) {
        // 256-byte pages (fanout 7-8): most inserts split, many cascade,
        // some split the root. `Record(r)` is the record; `Subtree` must
        // name a page the insert created, hanging one level below the
        // node that took it in, whose key and subtree hold the record.
        let mut tree: RTree<R, Pager> =
            RTree::new(Pager::with_page_size(256), RTreeConfig::default());
        let mut splits = 0;
        for (i, r) in recs.iter().enumerate() {
            let before = tree.store().page_count();
            let report = tree.insert(*r, i as f64);
            match &report.notify {
                rtree::Inserted::Record(rec) => prop_assert_eq!(rec, r),
                rtree::Inserted::Subtree { page, key, level } => {
                    splits += 1;
                    prop_assert!(page.0 >= before, "{page} predates the insert");
                    prop_assert!(key.contains(&r.key()),
                        "reported key {key:?} must contain inserted {:?}", r.key());
                    prop_assert!(tree.try_read_node(*page, *level).is_ok(), "{page} off {level}");
                    let parent = pages_under(&tree, tree.root_page(), tree.height() - 1)
                        .into_iter()
                        .find(|&(p, l)| {
                            let n = tree.try_read_node(p, l).unwrap();
                            !n.is_leaf() && n.internal_entries().any(|(_, c)| c == *page)
                        });
                    let (_, parent_level) = parent.expect("the reported node hangs in the tree");
                    prop_assert_eq!(parent_level, *level + 1);
                    let reached = pages_under(&tree, *page, *level).into_iter().any(|(p, l)| {
                        let node = tree.try_read_node(p, l).unwrap();
                        node.is_leaf() && node.leaf_records().any(|rec| rec == *r)
                    });
                    prop_assert!(reached, "no path from {page} to the inserted record");
                }
            }
        }
        prop_assert!(recs.len() < 8 || splits > 0);
    }
}

/// Every page of the subtree rooted at `from`, at `level`, itself
/// included, each with its level.
fn pages_under(tree: &RTree<R, Pager>, from: PageId, level: u32) -> Vec<(PageId, u32)> {
    let mut pages = vec![(from, level)];
    let mut next = 0;
    while next < pages.len() {
        let (page, level) = pages[next];
        let node = tree.try_read_node(page, level).unwrap();
        next += 1;
        if !node.is_leaf() {
            pages.extend(node.internal_entries().map(|(_, child)| (child, level - 1)));
        }
    }
    pages
}

// The split oracle. `prop_patch`'s reference insert calls the library
// `split`, so it cannot see a split that changes a partition: this holds
// `split` to a straight transcription of Guttman's PickSeeds and PickNext
// as they were written before the volumes were cached — every volume and
// enlargement recomputed where it is used.

/// Guttman's quadratic PickSeeds, every volume recomputed per pair.
fn oracle_quadratic_seeds<K: Key>(keys: &[K]) -> (usize, usize) {
    let mut best = (0, 1);
    let mut best_waste = f64::NEG_INFINITY;
    for i in 0..keys.len() {
        for j in (i + 1)..keys.len() {
            let waste = keys[i].cover(&keys[j]).volume() - keys[i].volume() - keys[j].volume();
            if waste > best_waste {
                best_waste = waste;
                best = (i, j);
            }
        }
    }
    best
}

/// Guttman's LinearPickSeeds: greatest normalized separation.
fn oracle_linear_seeds<K: Key>(keys: &[K]) -> (usize, usize) {
    let mut best = (0, 1);
    let mut best_sep = f64::NEG_INFINITY;
    for axis in 0..K::AXES {
        let (mut hi_lo_idx, mut lo_hi_idx) = (0, 0);
        let (mut total_lo, mut total_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for (i, k) in keys.iter().enumerate() {
            if k.axis_lo(axis) > keys[hi_lo_idx].axis_lo(axis) {
                hi_lo_idx = i;
            }
            if k.axis_hi(axis) < keys[lo_hi_idx].axis_hi(axis) {
                lo_hi_idx = i;
            }
            total_lo = total_lo.min(k.axis_lo(axis));
            total_hi = total_hi.max(k.axis_hi(axis));
        }
        let width = total_hi - total_lo;
        if width <= 0.0 || hi_lo_idx == lo_hi_idx {
            continue;
        }
        let sep = (keys[hi_lo_idx].axis_lo(axis) - keys[lo_hi_idx].axis_hi(axis)) / width;
        if sep > best_sep {
            best_sep = sep;
            best = (lo_hi_idx, hi_lo_idx);
        }
    }
    if best.0 == best.1 {
        best = (0, 1);
    }
    best
}

/// The distribution: PickNext (Quadratic) or reverse input order
/// (Linear), each entry to the group it enlarges least, ties by smaller
/// cover volume, then by fewer entries.
fn oracle_split<K: Key>(
    policy: SplitPolicy,
    keys: &[K],
    min_fill: usize,
) -> (Vec<usize>, Vec<usize>) {
    let (seed_a, seed_b) = match policy {
        SplitPolicy::Quadratic => oracle_quadratic_seeds(keys),
        SplitPolicy::Linear => oracle_linear_seeds(keys),
        SplitPolicy::RStar => unreachable!("the oracle covers Guttman's splits"),
    };
    let mut group_a = vec![seed_a];
    let mut group_b = vec![seed_b];
    let mut cover_a = keys[seed_a];
    let mut cover_b = keys[seed_b];
    let mut remaining: Vec<usize> = (0..keys.len())
        .filter(|&i| i != seed_a && i != seed_b)
        .collect();
    while !remaining.is_empty() {
        if group_a.len() + remaining.len() == min_fill {
            group_a.append(&mut remaining);
            break;
        }
        if group_b.len() + remaining.len() == min_fill {
            group_b.append(&mut remaining);
            break;
        }
        let pick = if policy == SplitPolicy::Quadratic {
            let mut best_pos = 0;
            let mut best_diff = f64::NEG_INFINITY;
            for (pos, &i) in remaining.iter().enumerate() {
                let diff = (cover_a.enlargement(&keys[i]) - cover_b.enlargement(&keys[i])).abs();
                if diff > best_diff {
                    best_diff = diff;
                    best_pos = pos;
                }
            }
            remaining.swap_remove(best_pos)
        } else {
            remaining.pop().unwrap()
        };
        let da = cover_a.enlargement(&keys[pick]);
        let db = cover_b.enlargement(&keys[pick]);
        let to_a = match da.partial_cmp(&db) {
            Some(std::cmp::Ordering::Less) => true,
            Some(std::cmp::Ordering::Greater) => false,
            _ => match cover_a.volume().partial_cmp(&cover_b.volume()) {
                Some(std::cmp::Ordering::Less) => true,
                Some(std::cmp::Ordering::Greater) => false,
                _ => group_a.len() <= group_b.len(),
            },
        };
        if to_a {
            cover_a = cover_a.cover(&keys[pick]);
            group_a.push(pick);
        } else {
            cover_b = cover_b.cover(&keys[pick]);
            group_b.push(pick);
        }
    }
    (group_a, group_b)
}

/// A bound from a pool that makes the float corner cases common: signed
/// zeros, infinities, NaN, small integers, and now and then any value.
fn odd_bound(rng: &mut impl Rng) -> f64 {
    match rng.gen_range(0u32..10) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => f64::NAN,
        5..=7 => f64::from(rng.gen_range(-2i32..=2)),
        _ => rng.gen_range(-1e3..1e3),
    }
}

/// One extent of a key of `kind` (see [`oracle_key`]).
fn oracle_axis(rng: &mut impl Rng, kind: u32) -> Interval {
    match kind {
        0..=4 => {
            let lo = f64::from(rng.gen_range(0i32..4));
            Interval::new(lo, lo + f64::from(rng.gen_range(0i32..3)))
        }
        5..=7 => {
            let lo = rng.gen_range(-100.0..100.0);
            Interval::new(lo, lo + rng.gen_range(0.0..50.0))
        }
        _ => Interval::new(odd_bound(rng), odd_bound(rng)),
    }
}

/// A key with `T` time axes: mostly integer-grid boxes (volume ties
/// everywhere, zero extents included) and plain float boxes, with
/// duplicates of earlier keys, empty keys, and keys whose every bound is
/// an [`odd_bound`] (inverted, NaN, infinite, ±0.0).
fn oracle_key<const T: usize>(rng: &mut impl Rng, earlier: &[StBox<2, T>]) -> StBox<2, T> {
    let kind = rng.gen_range(0u32..12);
    match kind {
        9 if !earlier.is_empty() => earlier[rng.gen_range(0..earlier.len())],
        10 => StBox::EMPTY,
        _ => StBox::new(
            Rect::new([oracle_axis(rng, kind), oracle_axis(rng, kind)]),
            Rect::new([(); T].map(|_| oracle_axis(rng, kind))),
        ),
    }
}

/// `split` against the oracle for both Guttman policies over one key set
/// of `T`-time-axis keys drawn from `seed`: 2 to 64 entries, any legal
/// `min_fill`.
fn split_matches_oracle<const T: usize>(seed: u64) -> Result<(), TestCaseError> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = rng.gen_range(2usize..=64);
    let mut keys: Vec<StBox<2, T>> = Vec::with_capacity(n);
    for _ in 0..n {
        let k = oracle_key(&mut rng, &keys);
        keys.push(k);
    }
    let min_fill = rng.gen_range(1..=n / 2);
    for policy in [SplitPolicy::Quadratic, SplitPolicy::Linear] {
        let got = rtree::split::split(policy, &keys, min_fill);
        let want = oracle_split(policy, &keys, min_fill);
        prop_assert_eq!(
            (&got.a, &got.b),
            (&want.0, &want.1),
            "{:?} over {:?}",
            policy,
            keys
        );
    }
    Ok(())
}

/// `cover_volume` against `cover().volume()`, bit for bit.
fn cover_volume_is_bit_equal<const T: usize>(seed: u64) -> Result<(), TestCaseError> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let a: StBox<2, T> = oracle_key(&mut rng, &[]);
    let b: StBox<2, T> = oracle_key(&mut rng, &[a]);
    for (x, y) in [(a, b), (b, a), (a, a)] {
        let got = Key::cover_volume(&x, &y);
        let want = Key::cover(&x, &y).volume();
        prop_assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{:?} ⊎ {:?}: {} vs {}",
            x,
            y,
            got,
            want
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    #[test]
    fn guttman_splits_equal_the_uncached_oracle(seed in any::<u64>()) {
        split_matches_oracle::<1>(seed)?;
        split_matches_oracle::<2>(seed)?;
    }

    #[test]
    fn cover_volume_is_the_cover_s_volume_bit_for_bit(seed in any::<u64>()) {
        cover_volume_is_bit_equal::<1>(seed)?;
        cover_volume_is_bit_equal::<2>(seed)?;
    }
}
