//! Property tests: the zero-copy [`NodeView`] must be observationally
//! identical to the materializing [`Node::deserialize`] on every
//! round-tripped page — leaf and internal, empty through full capacity —
//! and the header parse the tree reads through must be total: no 32
//! bytes in front of a node body panic it or admit an entry outside the
//! page.

use proptest::prelude::*;
use rtree::{
    Node, NodeEntries, NodeRef, NodeView, NsiSegmentRecord, RTree, RTreeConfig, Record,
};
use storage::{PageId, PageRef, PageStore, Pager, StorageError};
use stkit::{Interval, StBox};

type R = NsiSegmentRecord<2>;
type K = StBox<2, 1>;
type N = Node<K, R>;

const PAGE: usize = 4096;
const LEAF_CAP: usize = 127;
const INTERNAL_CAP: usize = 145;

fn rec() -> impl Strategy<Value = R> {
    (
        0u32..1_000_000,
        0u32..64,
        0.0f64..1000.0,
        0.05f64..50.0,
        (-500.0f64..500.0, -500.0f64..500.0),
        (-500.0f64..500.0, -500.0f64..500.0),
    )
        .prop_map(|(oid, seq, t0, dur, a, b)| {
            R::new(oid, seq, Interval::new(t0, t0 + dur), [a.0, a.1], [b.0, b.1])
        })
}

fn leaf_node() -> impl Strategy<Value = N> {
    (proptest::collection::vec(rec(), 0..LEAF_CAP + 1), -10.0f64..10.0).prop_map(
        |(recs, ts)| Node {
            level: 0,
            timestamp: ts,
            entries: NodeEntries::Leaf(recs),
        },
    )
}

fn internal_node() -> impl Strategy<Value = N> {
    (
        proptest::collection::vec((rec(), 0u32..100_000), 0..INTERNAL_CAP + 1),
        1u32..8,
        -10.0f64..10.0,
    )
        .prop_map(|(raw, level, ts)| Node {
            level,
            timestamp: ts,
            entries: NodeEntries::Internal(
                raw.into_iter().map(|(r, p)| (r.key(), PageId(p))).collect(),
            ),
        })
}

/// All observations through the view must match the materialized node,
/// and materializing through the view must re-serialize bit-identically.
fn assert_view_equivalent(node: &N) {
    let page = node.serialize(PAGE);
    let decoded = N::deserialize(&page);
    let view: NodeView<'_, K, R> = NodeView::parse(&page);

    assert_eq!(view.is_leaf(), decoded.is_leaf());
    assert_eq!(view.level(), decoded.level);
    assert_eq!(view.timestamp().to_bits(), decoded.timestamp.to_bits());
    assert_eq!(view.len(), decoded.len());
    assert_eq!(view.is_empty(), decoded.is_empty());
    assert_eq!(view.bounding_key(), decoded.bounding_key());
    if view.is_leaf() {
        let lazy: Vec<R> = view.leaf_records().collect();
        assert_eq!(lazy.as_slice(), decoded.leaf_records());
    } else {
        let lazy: Vec<(K, PageId)> = view.internal_entries().collect();
        assert_eq!(lazy.as_slice(), decoded.internal_entries());
        for (i, e) in decoded.internal_entries().iter().enumerate() {
            assert_eq!(view.internal_entry(i), *e, "random access entry {i}");
        }
    }
    assert_eq!(view.to_node(), decoded);
    // Bit-identical: view → owned → page bytes reproduces the input page.
    assert_eq!(view.to_node().serialize(PAGE), page);

    // The owned handle must agree with the borrowed view.
    let nref: NodeRef<K, R> = NodeRef::parse(PageRef::from(page.clone()));
    assert_eq!(nref.to_node(), decoded);
    assert_eq!(nref.len(), decoded.len());
    assert_eq!(nref.bounding_key(), decoded.bounding_key());
}

/// A 32-byte header: mostly noise, but often enough with a valid magic
/// and kind byte, a level that agrees with the kind, and a count near
/// capacity, to reach the bound check the edit path relies on.
fn header() -> impl Strategy<Value = Vec<u8>> {
    (
        proptest::collection::vec(any::<u8>(), 32..33),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        prop_oneof![any::<u32>(), 0u32..300, Just(u32::MAX)],
    )
        .prop_map(|(mut h, good_magic, good_kind, good_level, count)| {
            if good_magic {
                h[..2].copy_from_slice(&0x5254u16.to_le_bytes());
            }
            if good_kind {
                h[2] &= 1;
            }
            if good_level {
                let level = u32::from(h[2] & 1);
                h[16..20].copy_from_slice(&level.to_le_bytes());
            }
            h[4..8].copy_from_slice(&count.to_le_bytes());
            h
        })
}

/// Put `header` in front of `node`'s body on a page of a one-page tree
/// and read it the way an insert's descent does.
fn read_under_header(node: &N, header: &[u8]) -> Result<(), StorageError> {
    let store = Pager::with_page_size(PAGE);
    let page = store.alloc();
    let mut image = node.serialize(PAGE);
    image[..32].copy_from_slice(header);
    store.write(page, &image);
    let tree: RTree<R, Pager> = RTree::reopen(store, RTreeConfig::default(), page, 1, 0);
    let read = tree.try_read_node(page)?;
    // Whatever the header admits must be decodable without leaving the
    // page: the body may be read as the other kind, at any count that fits.
    let seen = if read.is_leaf() {
        read.leaf_records().count()
    } else {
        read.internal_entries().count()
    };
    assert_eq!(seen, read.len());
    // ...and must not contradict itself: engines queue an internal node's
    // children at `level() - 1`.
    assert_eq!(read.is_leaf(), read.level() == 0);
    let _ = read.bounding_key();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn no_header_panics_the_tree_read(leaf in leaf_node(), internal in internal_node(), h in header()) {
        for node in [&leaf, &internal] {
            if let Err(e) = read_under_header(node, &h) {
                prop_assert_eq!(e, StorageError::Corrupt { page: PageId(0) });
            }
        }
    }

    #[test]
    fn leaf_view_matches_deserialize(node in leaf_node()) {
        assert_view_equivalent(&node);
    }

    #[test]
    fn internal_view_matches_deserialize(node in internal_node()) {
        assert_view_equivalent(&node);
    }
}

#[test]
fn empty_nodes_are_equivalent() {
    assert_view_equivalent(&N::empty_leaf());
    assert_view_equivalent(&N::internal(3, Vec::new()));
}

#[test]
fn full_capacity_nodes_are_equivalent() {
    let recs: Vec<R> = (0..LEAF_CAP as u32)
        .map(|i| {
            R::new(
                i,
                0,
                Interval::new(i as f64, i as f64 + 1.0),
                [i as f64, -(i as f64)],
                [i as f64 + 0.5, -(i as f64) + 0.5],
            )
        })
        .collect();
    let leaf = Node {
        level: 0,
        timestamp: 42.0,
        entries: NodeEntries::Leaf(recs.clone()),
    };
    assert_view_equivalent(&leaf);

    let entries: Vec<(K, PageId)> = (0..INTERNAL_CAP)
        .map(|i| (recs[i % LEAF_CAP].key(), PageId(i as u32)))
        .collect();
    let internal = Node {
        level: 1,
        timestamp: -1.5,
        entries: NodeEntries::Internal(entries),
    };
    assert_view_equivalent(&internal);
}

#[test]
fn bad_headers_are_corrupt_pages() {
    let leaf = N::empty_leaf();
    let good = leaf.serialize(PAGE)[..32].to_vec();
    assert_eq!(read_under_header(&leaf, &good), Ok(()));
    let corrupt = Err(StorageError::Corrupt { page: PageId(0) });
    let with = |at: usize, bytes: &[u8]| {
        let mut h = good.clone();
        h[at..at + bytes.len()].copy_from_slice(bytes);
        read_under_header(&leaf, &h)
    };
    assert_eq!(with(0, &[0x55]), corrupt, "magic");
    assert_eq!(with(2, &[2]), corrupt, "kind");
    assert_eq!(with(4, &(LEAF_CAP as u32).to_le_bytes()), Ok(()), "a full leaf fits");
    assert_eq!(with(4, &(LEAF_CAP as u32 + 1).to_le_bytes()), corrupt, "count past the page");
    assert_eq!(with(4, &u32::MAX.to_le_bytes()), corrupt, "count overflowing usize math");
    // The same count is too many once the kind byte says internal.
    assert_eq!(with(4, &(INTERNAL_CAP as u32).to_le_bytes()), corrupt);
    let mut as_internal = good.clone();
    as_internal[2] = 1;
    as_internal[4..8].copy_from_slice(&(INTERNAL_CAP as u32).to_le_bytes());
    assert_eq!(read_under_header(&leaf, &as_internal), corrupt, "internal kind at level 0");
    as_internal[16..20].copy_from_slice(&1u32.to_le_bytes());
    assert_eq!(read_under_header(&leaf, &as_internal), Ok(()));
    assert_eq!(with(16, &1u32.to_le_bytes()), corrupt, "leaf kind above level 0");

    // A page shorter than the header itself.
    let store = Pager::with_page_size(16);
    let page = store.alloc();
    let tree: RTree<R, Pager> = RTree::reopen(store, RTreeConfig::default(), page, 1, 0);
    assert_eq!(tree.try_read_node(page).err(), Some(StorageError::Corrupt { page }));
}
