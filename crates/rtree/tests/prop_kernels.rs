//! The write path's staged kernels — ChooseLeaf and the quadratic split
//! over struct-of-arrays bounds — against the scalar oracle of
//! `support/oracle.rs`, choice for choice: the child an insert descends
//! into, and both split groups in order.
//!
//! Keys are drawn for NSI's and DTA's keys in 2-D, `StBox<2, 1>` and
//! `StBox<2, 2>`, and in 3-D, `StBox<3, 1>` — staged, its space group of
//! three axes in a block of four — and `StBox<3, 2>`, whose five axes are
//! more than a staged key may have, so it takes the scalar kernels. The
//! bounds make ties common: small integers, `±0.0`, degenerate
//! sides (zero-volume keys), duplicates of earlier keys, and infinite
//! sides, which are staged and make `∞ − ∞` and `0 · ∞` NaN. A share of
//! the sets also holds NaN or inverted sides, which send a node to the
//! scalar kernels. Nodes run from one entry to a full 4 KiB page.
//!
//! ChooseLeaf is checked through the tree: a height-2 tree whose root's
//! entries are the drawn keys, each naming an empty leaf, takes one
//! record, and the leaf that received it must be the oracle's choice over
//! the root's keys as the page stores them.
//!
//! The tree keeps its internal nodes staged between inserts, so ChooseLeaf
//! is also checked insert by insert: runs of inserts, from an empty or a
//! packed tree, on 256 B pages (internal splits, the root growing) and
//! 4 KiB ones, reopened part-way so every node is staged anew. Each
//! insert must write the leaf the oracle's descent over the stored keys
//! reaches, and `validate` — which holds every kept staged node to a
//! fresh staging of its page — must hold after it.
//!
//! Run this optimised as well as in the debug build (`tools/check.sh`
//! does): the debug build does not vectorise, so only an optimised run
//! tests the loops that ship.

#[path = "support/oracle.rs"]
mod oracle;

use oracle::{oracle_choose, oracle_split};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rtree::bulk::bulk_load;
use rtree::node::NodeEdit;
use rtree::{DtaSegmentRecord, Key, NsiSegmentRecord, RTree, RTreeConfig, Record, SplitPolicy};
use stkit::{Interval, Rect, StBox};
use storage::{load_pager, save_pager, PageStore, Pager};
use tprtree::TpBox;

const PAGE: usize = 4096;

/// A bound that makes ties common: a small integer, a signed zero, or
/// now and then any value.
fn bound(rng: &mut impl Rng) -> f64 {
    match rng.gen_range(0u32..10) {
        0 => -0.0,
        1 => 0.0,
        2..=7 => f64::from(rng.gen_range(-3i32..=3)),
        _ => rng.gen_range(-100.0..100.0),
    }
}

/// One side: mostly `lo <= hi` (a point now and then, an infinite end
/// now and then); when `odd`, sometimes NaN or inverted.
fn side(rng: &mut impl Rng, odd: bool) -> Interval {
    let (a, b) = (bound(rng), bound(rng));
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    match rng.gen_range(0u32..20) {
        0..=2 => Interval::point(a),
        3 => Interval::new(f64::NEG_INFINITY, hi),
        4 => Interval::new(lo, f64::INFINITY),
        5 => Interval::new(f64::INFINITY, f64::INFINITY),
        6 if odd => Interval::new(f64::NAN, hi),
        7 if odd => Interval::new(lo, f64::NAN),
        8 if odd && lo < hi => Interval::new(hi, lo),
        _ => Interval::new(lo, hi),
    }
}

/// A key with `D` space and `T` time axes, a duplicate of an earlier one
/// now and then.
fn key<const D: usize, const T: usize>(
    rng: &mut impl Rng,
    odd: bool,
    earlier: &[StBox<D, T>],
) -> StBox<D, T> {
    if !earlier.is_empty() && rng.gen_range(0u32..6) == 0 {
        return earlier[rng.gen_range(0..earlier.len())];
    }
    StBox::new(
        Rect::new([(); D].map(|_| side(rng, odd))),
        Rect::new([(); T].map(|_| side(rng, odd))),
    )
}

/// `n` keys; a third of the sets may hold NaN or inverted sides.
fn keys<const D: usize, const T: usize>(rng: &mut impl Rng, n: usize) -> Vec<StBox<D, T>> {
    let odd = rng.gen_range(0u32..3) == 0;
    let mut keys = Vec::with_capacity(n);
    for _ in 0..n {
        let k = key(rng, odd, &keys);
        keys.push(k);
    }
    keys
}

/// A node size from 1 (or 2, for a split) to `cap`, full and near-full
/// pages as often as small nodes.
fn size(rng: &mut impl Rng, min: usize, cap: usize) -> usize {
    match rng.gen_range(0u32..4) {
        0 => cap,
        1 => rng.gen_range(cap.saturating_sub(8).max(min)..=cap),
        _ => rng.gen_range(min..=cap.min(24)),
    }
}

/// True iff every side of every key has `lo <= hi`: a set the staged
/// kernels take.
fn stageable<K: Key>(keys: &[K]) -> bool {
    keys.iter()
        .all(|k| (0..K::AXES).all(|a| k.axis_lo(a) <= k.axis_hi(a)))
}

/// `k` after one trip through the page encoding.
fn on_page<K: Key>(k: &K) -> K {
    let mut buf = Vec::new();
    k.encode(&mut buf);
    K::decode(&buf)
}

/// Insert one record drawn by `record` into a height-2 tree whose root
/// holds drawn keys over empty leaves: the leaf that takes it must be
/// the oracle's ChooseLeaf over the root's keys as stored.
fn choose_matches_oracle<const D: usize, const T: usize, R>(
    seed: u64,
    record: impl Fn(&mut ChaCha8Rng, [f64; D], [f64; D], Interval) -> R,
) -> Result<(), TestCaseError>
where
    R: Record<Key = StBox<D, T>>,
{
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let cap = (PAGE - 32) / (<StBox<D, T> as Key>::ENCODED_LEN + 4);
    let n = size(&mut rng, 1, cap);
    let drawn: Vec<StBox<D, T>> = keys(&mut rng, n);

    let store = Pager::with_page_size(PAGE);
    let root = store.alloc();
    let mut buf = Vec::new();
    let leaves: Vec<_> = (0..n)
        .map(|_| {
            let leaf = store.alloc();
            store.write(
                leaf,
                NodeEdit::<StBox<D, T>, R>::fresh(&mut buf, 0, PAGE).bytes(),
            );
            leaf
        })
        .collect();
    let mut edit = NodeEdit::<StBox<D, T>, R>::fresh(&mut buf, 1, PAGE);
    for (k, &leaf) in drawn.iter().zip(&leaves) {
        edit.push_entry(k, leaf);
    }
    store.write(root, edit.bytes());
    let mut tree: RTree<R, Pager> = RTree::reopen(store, RTreeConfig::default(), root, 2, 0);
    let stored: Vec<StBox<D, T>> = tree
        .try_read_node(root, 1)
        .expect("the root parses")
        .internal_entries()
        .map(|(k, _)| k)
        .collect();

    // The record: its corners often an entry's, so that it lies on or in
    // that entry and enlargements tie.
    let (from, to, t) = if rng.gen_range(0u32..3) == 0 {
        let k = stored[rng.gen_range(0..n)];
        let mut corner = |a: usize| {
            if rng.gen_range(0u32..2) == 0 {
                k.axis_lo(a)
            } else {
                k.axis_hi(a)
            }
        };
        let from = std::array::from_fn(&mut corner);
        let to = std::array::from_fn(&mut corner);
        (
            from,
            to,
            Interval::new(k.axis_lo(D), k.axis_hi(D).max(k.axis_lo(D))),
        )
    } else {
        let b = |rng: &mut ChaCha8Rng| bound(rng);
        let (t0, dt) = (b(&mut rng), f64::from(rng.gen_range(0u32..3)));
        (
            std::array::from_fn(|_| b(&mut rng)),
            std::array::from_fn(|_| b(&mut rng)),
            Interval::new(t0, t0 + dt),
        )
    };
    let rec = record(&mut rng, from, to, t);
    let want = oracle_choose(&stored, &on_page(&rec.key()));

    tree.try_insert(rec)
        .expect("an insert into a leaf with room");
    let took: Vec<usize> = leaves
        .iter()
        .enumerate()
        .filter(|&(_, &leaf)| tree.try_read_node(leaf, 0).expect("a leaf parses").len() == 1)
        .map(|(i, _)| i)
        .collect();
    prop_assert_eq!(
        took,
        vec![want],
        "staged {}: {:?} into {:?}",
        stageable(&stored),
        rec.key(),
        stored
    );
    Ok(())
}

/// The library's quadratic split against the oracle's over one drawn key
/// set of up to a 4 KiB leaf's records plus one, any legal `min_fill`.
fn split_matches_oracle<const D: usize, const T: usize>(seed: u64) -> Result<(), TestCaseError> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = size(&mut rng, 2, 146);
    let keys: Vec<StBox<D, T>> = keys(&mut rng, n);
    let min_fill = if rng.gen_range(0u32..2) == 0 {
        n / 2
    } else {
        rng.gen_range(1..=n / 2)
    };
    let got = rtree::split::split(SplitPolicy::Quadratic, &keys, min_fill);
    let want = oracle_split(SplitPolicy::Quadratic, &keys, min_fill);
    prop_assert_eq!(
        (&got.a, &got.b),
        (&want.0, &want.1),
        "staged {}, min_fill {}: {:?}",
        stageable(&keys),
        min_fill,
        keys
    );
    Ok(())
}

/// A record's motion for a run of inserts: a third of them on corners of
/// one of `entries`, the root's keys (so enlargements tie), the rest
/// from small bounds; one in eight with its interval inverted, one in
/// sixteen with a NaN side.
fn motion<const D: usize, const T: usize>(
    rng: &mut ChaCha8Rng,
    entries: &[StBox<D, T>],
) -> ([f64; D], [f64; D], Interval) {
    let (mut from, mut to, mut t) = if !entries.is_empty() && rng.gen_range(0u32..3) == 0 {
        let k = entries[rng.gen_range(0..entries.len())];
        let mut corner = |a: usize| {
            if rng.gen_range(0u32..2) == 0 {
                k.axis_lo(a)
            } else {
                k.axis_hi(a)
            }
        };
        let (from, to) = (
            std::array::from_fn(&mut corner),
            std::array::from_fn(&mut corner),
        );
        (
            from,
            to,
            Interval::new(k.axis_lo(D), k.axis_hi(D).max(k.axis_lo(D))),
        )
    } else {
        let (t0, dt) = (bound(rng), f64::from(rng.gen_range(0u32..3)));
        let (from, to) = (
            std::array::from_fn(|_| bound(rng)),
            std::array::from_fn(|_| bound(rng)),
        );
        (from, to, Interval::new(t0, t0 + dt))
    };
    match rng.gen_range(0u32..16) {
        0 | 1 => t = Interval::new(t.hi + 1.0, t.lo),
        2 => {
            let a = rng.gen_range(0usize..D);
            (from[a], to[a]) = (f64::NAN, f64::NAN);
        }
        _ => {}
    }
    (from, to, t)
}

/// `inserts` records drawn by `record` into a tree on `page`-byte pages,
/// empty or packed from drawn records, reopened from its saved pages
/// part-way: each insert must write the leaf the oracle's ChooseLeaf
/// reaches over every node's keys as stored — the one leaf that existed
/// before the insert and carries its stamp after — and the tree must
/// validate after it.
fn inserts_take_the_oracle_s_leaves<const D: usize, const T: usize, R>(
    seed: u64,
    page: usize,
    inserts: usize,
    record: impl Fn(&mut ChaCha8Rng, [f64; D], [f64; D], Interval) -> R,
) -> Result<(), TestCaseError>
where
    R: Record<Key = StBox<D, T>>,
{
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let config = RTreeConfig::default();
    let mut tree: RTree<R, Pager> = if rng.gen_range(0u32..2) == 0 {
        RTree::new(Pager::with_page_size(page), config)
    } else {
        let packed = (0..inserts / 4).map(|_| {
            let (from, to, t) = motion::<D, T>(&mut rng, &[]);
            record(&mut rng, from, to, t)
        });
        bulk_load(Pager::with_page_size(page), config, packed.collect())
    };
    let reopen_at = rng.gen_range(inserts / 4..inserts * 3 / 4);
    for i in 0..inserts {
        if i == reopen_at {
            let (root, height, len) = tree.metadata();
            let mut bytes = Vec::new();
            save_pager(tree.store(), &mut bytes).expect("the pages save");
            let store = load_pager(&bytes[..]).expect("the pages load");
            tree = RTree::reopen(store, config, root, height, len);
        }
        let (root, top) = (tree.root_page(), tree.height() - 1);
        let entries: Vec<StBox<D, T>> = match tree.try_read_node(root, top) {
            Ok(node) if !node.is_leaf() => node.internal_entries().map(|(k, _)| k).collect(),
            _ => Vec::new(),
        };
        let (from, to, t) = motion(&mut rng, &entries);
        let rec = record(&mut rng, from, to, t);
        let key = on_page(&rec.key());
        let (mut leaf, mut level) = (root, top);
        while level > 0 {
            let node = tree.try_read_node(leaf, level).expect("a node parses");
            let stored: Vec<(StBox<D, T>, _)> = node.internal_entries().collect();
            let keys: Vec<StBox<D, T>> = stored.iter().map(|&(k, _)| k).collect();
            (leaf, level) = (stored[oracle_choose(&keys, &key)].1, level - 1);
        }
        tree.try_insert(rec).expect("an insert");
        let stamp = tree.try_read_node(leaf, 0).expect("a leaf parses").stamp();
        prop_assert_eq!(
            stamp,
            tree.len(),
            "seed {}, insert {} of {:?}: the oracle's leaf {} was not written",
            seed,
            i,
            rec.key(),
            leaf
        );
        if let Err(e) = tree.validate() {
            prop_assert!(false, "seed {}, insert {}: {}", seed, i, e);
        }
    }
    Ok(())
}

fn nsi<const D: usize>(
    rng: &mut ChaCha8Rng,
    from: [f64; D],
    to: [f64; D],
    t: Interval,
) -> NsiSegmentRecord<D> {
    NsiSegmentRecord::new(rng.gen_range(0u32..1000), 0, t, from, to)
}

fn dta<const D: usize>(
    rng: &mut ChaCha8Rng,
    from: [f64; D],
    to: [f64; D],
    t: Interval,
) -> DtaSegmentRecord<D> {
    DtaSegmentRecord::new(rng.gen_range(0u32..1000), 0, t, from, to)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn staged_choose_leaf_takes_the_oracle_s_child(seed in any::<u64>()) {
        choose_matches_oracle(seed, nsi::<2>)?;
        choose_matches_oracle(seed, dta::<2>)?;
        choose_matches_oracle(seed, nsi::<3>)?;
        choose_matches_oracle(seed, dta::<3>)?;
    }

    #[test]
    fn staged_quadratic_split_makes_the_oracle_s_groups(seed in any::<u64>()) {
        split_matches_oracle::<2, 1>(seed)?;
        split_matches_oracle::<2, 2>(seed)?;
        split_matches_oracle::<3, 1>(seed)?;
        split_matches_oracle::<3, 2>(seed)?;
    }
}

proptest! {
    // Four cases of 1 500 inserts each in 2-D, and as many in 3-D.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn kept_staged_nodes_descend_to_the_oracle_s_leaf_insert_by_insert(seed in any::<u64>()) {
        inserts_take_the_oracle_s_leaves(seed, 256, 500, nsi::<2>)?;
        inserts_take_the_oracle_s_leaves(seed, 256, 500, dta::<2>)?;
        inserts_take_the_oracle_s_leaves(seed, PAGE, 250, nsi::<2>)?;
        inserts_take_the_oracle_s_leaves(seed, PAGE, 250, dta::<2>)?;
        inserts_take_the_oracle_s_leaves(seed, 256, 500, nsi::<3>)?;
        inserts_take_the_oracle_s_leaves(seed, 256, 500, dta::<3>)?;
        inserts_take_the_oracle_s_leaves(seed, PAGE, 250, nsi::<3>)?;
        inserts_take_the_oracle_s_leaves(seed, PAGE, 250, dta::<3>)?;
    }
}

#[test]
fn most_drawn_sets_reach_the_staged_kernels() {
    let staged = (0..300u64)
        .filter(|&seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let n = size(&mut rng, 2, 146);
            stageable(&keys::<2, 1>(&mut rng, n))
        })
        .count();
    assert!(
        (150..300).contains(&staged),
        "{staged} of 300 key sets are stageable"
    );
}

#[test]
fn stbox_keys_opt_in_and_tpr_boxes_take_the_scalar_kernels() {
    assert_eq!(<StBox<2, 1> as Key>::STAGED_SPACE_AXES, Some(2));
    assert_eq!(<StBox<2, 2> as Key>::STAGED_SPACE_AXES, Some(2));
    assert_eq!(<StBox<3, 1> as Key>::STAGED_SPACE_AXES, Some(3));
    // Five axes: opted in, but more than a staged key may have.
    assert_eq!(<StBox<3, 2> as Key>::STAGED_SPACE_AXES, Some(3));
    assert_eq!(<StBox<3, 2> as Key>::AXES, 5);
    // A TPR box's cover anchors its edges: not a per-side min/max.
    assert_eq!(<TpBox as Key>::STAGED_SPACE_AXES, None);
}
