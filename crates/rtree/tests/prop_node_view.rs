//! Property tests: a page written by [`NodeEdit`] reads back through
//! [`NodeRef`] as exactly the entries and stamp that went in — a leaf
//! empty through full capacity, an internal node one entry through full
//! (no writer makes an empty one, and its header is corrupt) — and the
//! header parse the
//! tree reads through is total: no 32 bytes in front of a node body panic
//! it or admit an entry outside the page.

use proptest::prelude::*;
use rtree::node::NodeEdit;
use rtree::{Key, NodeRef, NsiSegmentRecord, RTree, RTreeConfig, Record};
use storage::{PageId, PageRef, PageStore, Pager, StorageError};
use stkit::{Interval, StBox};

type R = NsiSegmentRecord<2>;
type K = StBox<2, 1>;

const PAGE: usize = 4096;
const LEAF_CAP: usize = 127;
const INTERNAL_CAP: usize = 145;

/// What a page is written from: a leaf's records or an internal node's
/// entries at a level, and a stamp.
#[derive(Clone, Debug)]
enum Entries {
    Leaf(Vec<R>),
    Internal(u32, Vec<(K, PageId)>),
}

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

/// Stamps small and large: every byte of the field matters.
fn stamp() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..1_000, any::<u64>()]
}

fn leaf_node() -> impl Strategy<Value = (Entries, u64)> {
    (proptest::collection::vec(rec(), 0..LEAF_CAP + 1), stamp())
        .prop_map(|(recs, ts)| (Entries::Leaf(recs), ts))
}

fn internal_node() -> impl Strategy<Value = (Entries, u64)> {
    (
        proptest::collection::vec((rec(), 0u32..100_000), 1..INTERNAL_CAP + 1),
        1u32..8,
        stamp(),
    )
        .prop_map(|(raw, level, ts)| {
            let entries = raw.into_iter().map(|(r, p)| (r.key(), PageId(p))).collect();
            (Entries::Internal(level, entries), ts)
        })
}

/// The page image `NodeEdit` writes for `entries` stamped `ts`.
fn write(entries: &Entries, ts: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    let level = match entries {
        Entries::Leaf(_) => 0,
        Entries::Internal(level, _) => *level,
    };
    let mut edit = NodeEdit::<K, R>::fresh(&mut buf, level, PAGE);
    edit.set_stamp(ts);
    match entries {
        Entries::Leaf(recs) => recs.iter().for_each(|r| edit.push_record(r)),
        Entries::Internal(_, es) => es.iter().for_each(|(k, child)| edit.push_entry(k, *child)),
    }
    buf
}

/// A key after one trip through the page encoding (`f32`, rounded out).
fn on_page(k: &K) -> K {
    let mut buf = Vec::new();
    k.encode(&mut buf);
    K::decode(&buf)
}

/// Write `entries`, read the page back, and require exactly what went
/// in: kind, level, stamp, count, every entry in order (internal
/// keys as the page rounds them, by iterator and by random access), and
/// a bounding key equal to those entries' keys folded in order.
fn assert_reads_back(entries: &Entries, ts: u64) {
    let page = PageRef::from(write(entries, ts));
    let node = NodeRef::<K, R>::try_parse(page, PageId(0)).expect("a written page parses");
    assert_eq!(node.stamp(), ts);
    let (level, keys): (u32, Vec<K>) = match entries {
        Entries::Leaf(recs) => {
            assert_eq!(node.leaf_records().collect::<Vec<_>>(), *recs);
            (0, recs.iter().map(R::key).collect())
        }
        Entries::Internal(level, es) => {
            let want: Vec<(K, PageId)> = es.iter().map(|(k, p)| (on_page(k), *p)).collect();
            assert_eq!(node.internal_entries().collect::<Vec<_>>(), want);
            for (i, e) in want.iter().enumerate() {
                assert_eq!(node.internal_entry(i), *e, "random access entry {i}");
            }
            (*level, want.iter().map(|(k, _)| *k).collect())
        }
    };
    assert_eq!((node.is_leaf(), node.level()), (level == 0, level));
    assert_eq!((node.len(), node.is_empty()), (keys.len(), keys.is_empty()));
    assert_eq!(node.bounding_key(), keys.iter().fold(K::empty(), |acc, k| acc.cover(k)));
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
/// and read it the way every descent does, expecting the level the
/// header names: what is under test is the header's own consistency.
fn read_under_header(node: &Entries, header: &[u8]) -> Result<(), StorageError> {
    let store = Pager::with_page_size(PAGE);
    let page = store.alloc();
    let mut image = write(node, 0);
    image[..32].copy_from_slice(header);
    store.write(page, &image);
    let tree: RTree<R, Pager> = RTree::reopen(store, RTreeConfig::default(), page, 1, 0);
    let level = u32::from_le_bytes(header[16..20].try_into().unwrap());
    let read = tree.try_read_node(page, level)?;
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
        for (node, _) in [&leaf, &internal] {
            if let Err(e) = read_under_header(node, &h) {
                prop_assert_eq!(e, StorageError::Corrupt { page: PageId(0) });
            }
        }
    }

    #[test]
    fn written_leaves_read_back((node, ts) in leaf_node()) {
        assert_reads_back(&node, ts);
    }

    #[test]
    fn written_internal_nodes_read_back((node, ts) in internal_node()) {
        assert_reads_back(&node, ts);
    }
}

#[test]
fn an_empty_leaf_reads_back_and_an_empty_internal_node_is_corrupt() {
    assert_reads_back(&Entries::Leaf(Vec::new()), u64::MAX);
    let page = PageRef::from(write(&Entries::Internal(3, Vec::new()), 0));
    let read = NodeRef::<K, R>::try_parse(page, PageId(5));
    assert_eq!(read.err(), Some(StorageError::Corrupt { page: PageId(5) }));
}

#[test]
fn full_capacity_nodes_read_back() {
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
    let entries: Vec<(K, PageId)> = (0..INTERNAL_CAP)
        .map(|i| (recs[i % LEAF_CAP].key(), PageId(i as u32)))
        .collect();
    assert_reads_back(&Entries::Leaf(recs), 42);
    assert_reads_back(&Entries::Internal(1, entries), 1 << 40);
}

#[test]
fn bad_headers_are_corrupt_pages() {
    let leaf = Entries::Leaf(Vec::new());
    let good = write(&leaf, 0)[..32].to_vec();
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
    assert_eq!(tree.try_read_node(page, 0).err(), Some(StorageError::Corrupt { page }));
}
