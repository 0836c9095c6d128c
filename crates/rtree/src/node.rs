//! The on-page node layout, read and written in place.
//!
//! One node occupies exactly one page. Layout (little-endian):
//!
//! ```text
//! offset  size  field
//! 0       2     magic 0x5254 ("RT")
//! 2       1     node kind: 0 = leaf, 1 = internal
//! 3       1     reserved
//! 4       4     entry count (u32)
//! 8       8     stamp (u64): the tree's record count after the insert
//!               that last wrote the node, 0 if none did — §4.2
//! 16      4     level (u32): 0 at leaves, increasing towards the root
//! 20      12    reserved
//! 32      …     entries
//! ```
//!
//! Internal entries are `key ‖ child-page-id(u32)`; leaf entries are
//! encoded records. With 4 KiB pages, 2-d NSI keys (24 B) and 32-byte
//! segment records this yields the paper's fanout: 145 internal, 127 leaf.
//!
//! A node is its page: there is no decoded twin. [`NodeRef`] reads a page
//! in place, decoding entries only as its iterators advance. [`NodeEdit`]
//! writes one by byte range — entries are fixed-stride, so adding one or
//! re-keying one touches only its own bytes — either over a copy of a
//! node's used prefix ([`NodeRef::edit_in`], every node an insert changes
//! without splitting) or from empty ([`NodeEdit::fresh`], a split's two
//! halves, a new root, and every node the bulk loader packs).

use crate::traits::{Key, Record};
use std::marker::PhantomData;
use storage::{PageId, PageRef, StorageError};

/// Size of the fixed node header, in bytes.
pub const NODE_HEADER_LEN: usize = 32;

const MAGIC: u16 = 0x5254;
const KIND_LEAF: u8 = 0;
const KIND_INTERNAL: u8 = 1;

/// Offsets of the header fields the edit primitives rewrite.
const COUNT_AT: usize = 4;
const STAMP_AT: usize = 8;

/// Bytes per entry of a leaf (`true`) or internal node.
const fn stride<K: Key, R: Record>(leaf: bool) -> usize {
    if leaf {
        R::ENCODED_LEN
    } else {
        K::ENCODED_LEN + 4
    }
}

/// Entries of a leaf (`true`) or internal node that fit a page of
/// `page_size` bytes: the tree's fanout.
pub(crate) fn capacity<K: Key, R: Record>(leaf: bool, page_size: usize) -> usize {
    (page_size - NODE_HEADER_LEN) / stride::<K, R>(leaf)
}

/// The fixed header, checked: `count` entries of this kind fit the
/// buffer it was parsed from.
#[derive(Clone, Copy)]
struct Header {
    leaf: bool,
    count: usize,
    stamp: u64,
    level: u32,
}

impl Header {
    /// Total over every byte string: the one place a count read off a
    /// page is bounded before anything slices by it. `None` for a buffer
    /// shorter than the header or than the entries its count claims, a
    /// bad magic or kind byte, or a level that contradicts the kind (a
    /// leaf above level 0, or an internal node at it: engines compute
    /// `level - 1` for an internal node's children).
    fn parse<K: Key, R: Record>(buf: &[u8]) -> Option<Header> {
        let head = buf.get(..NODE_HEADER_LEN)?;
        if u16::from_le_bytes([head[0], head[1]]) != MAGIC {
            return None;
        }
        let leaf = match head[2] {
            KIND_LEAF => true,
            KIND_INTERNAL => false,
            _ => return None,
        };
        let count =
            u32::from_le_bytes(head[COUNT_AT..COUNT_AT + 4].try_into().unwrap()) as usize;
        let fits = count
            .checked_mul(stride::<K, R>(leaf))
            .and_then(|n| n.checked_add(NODE_HEADER_LEN))
            .is_some_and(|end| end <= buf.len());
        let level = u32::from_le_bytes(head[16..20].try_into().unwrap());
        if !fits || leaf != (level == 0) {
            return None;
        }
        Some(Header {
            leaf,
            count,
            stamp: u64::from_le_bytes(head[STAMP_AT..STAMP_AT + 8].try_into().unwrap()),
            level,
        })
    }

    /// End of the used prefix: header plus `count` entries.
    fn used<K: Key, R: Record>(&self) -> usize {
        NODE_HEADER_LEN + self.count * stride::<K, R>(self.leaf)
    }
}

/// Lazy iterator over an internal node's `(key, child)` entries.
pub struct InternalEntries<'a, K> {
    buf: &'a [u8],
    remaining: usize,
    _marker: PhantomData<fn() -> K>,
}

impl<K: Key> Iterator for InternalEntries<'_, K> {
    type Item = (K, PageId);

    fn next(&mut self) -> Option<(K, PageId)> {
        if self.remaining == 0 {
            return None;
        }
        let k = K::decode(&self.buf[..K::ENCODED_LEN]);
        let child = PageId(u32::from_le_bytes(
            self.buf[K::ENCODED_LEN..K::ENCODED_LEN + 4].try_into().unwrap(),
        ));
        self.buf = &self.buf[K::ENCODED_LEN + 4..];
        self.remaining -= 1;
        Some((k, child))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<K: Key> ExactSizeIterator for InternalEntries<'_, K> {}

/// Lazy iterator over a leaf node's records.
pub struct LeafRecords<'a, R> {
    buf: &'a [u8],
    remaining: usize,
    _marker: PhantomData<fn() -> R>,
}

impl<R: Record> Iterator for LeafRecords<'_, R> {
    type Item = R;

    fn next(&mut self) -> Option<R> {
        if self.remaining == 0 {
            return None;
        }
        let r = R::decode(&self.buf[..R::ENCODED_LEN]);
        self.buf = &self.buf[R::ENCODED_LEN..];
        self.remaining -= 1;
        Some(r)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<R: Record> ExactSizeIterator for LeafRecords<'_, R> {}

/// A node read in place: a [`storage::PageRef`] plus its parsed header.
///
/// The header is parsed once; entries decode lazily, straight out of the
/// page bytes, as the iterators advance — no entry `Vec` is ever built.
/// The handle owns the refcounted bytes, keeping them alive across
/// eviction. This is the node representation of the read path, and of
/// the insert path's descent and key folds.
pub struct NodeRef<K, R> {
    bytes: PageRef,
    head: Header,
    _marker: PhantomData<fn() -> (K, R)>,
}

impl<K: Key, R: Record<Key = K>> NodeRef<K, R> {
    /// Parse the header of `bytes`, page `page`, taking ownership of the
    /// handle. A bad magic or kind byte, a level that contradicts the
    /// kind, or a count whose entries would not fit `bytes` is
    /// [`StorageError::Corrupt`] on `page` rather than a panic, so a
    /// writer holding the tree lock never unwinds on a flipped byte.
    /// Every entry the returned node admits lies inside `bytes`.
    pub fn try_parse(bytes: PageRef, page: PageId) -> Result<Self, StorageError> {
        let head = Header::parse::<K, R>(&bytes).ok_or(StorageError::Corrupt { page })?;
        Ok(NodeRef {
            bytes,
            head,
            _marker: PhantomData,
        })
    }

    /// Entry region of the page: the used prefix, header stripped.
    fn entries(&self) -> &[u8] {
        &self.bytes[NODE_HEADER_LEN..self.head.used::<K, R>()]
    }

    /// Copy the node's used prefix (header and entries, not the stale
    /// tail) into `buf` and open it for editing. `buf` is cleared first
    /// and keeps its capacity, so a caller reusing one buffer allocates
    /// once. The edit does not borrow `self`: drop this handle before
    /// writing the result back, or the store must copy the frame the
    /// handle still shares instead of overwriting it in place.
    pub fn edit_in<'b>(&self, buf: &'b mut Vec<u8>) -> NodeEdit<'b, K, R> {
        buf.clear();
        // Room for a full page plus the key `set_key` stages past the end.
        buf.reserve(self.bytes.len() + K::ENCODED_LEN);
        buf.extend_from_slice(&self.bytes[..self.head.used::<K, R>()]);
        NodeEdit {
            buf,
            leaf: self.head.leaf,
            count: self.head.count,
            cap: capacity::<K, R>(self.head.leaf, self.bytes.len()),
            _marker: PhantomData,
        }
    }

    /// True iff this is a leaf node.
    pub fn is_leaf(&self) -> bool {
        self.head.leaf
    }

    /// Height above the leaf level (0 = leaf).
    pub fn level(&self) -> u32 {
        self.head.level
    }

    /// Which insert last wrote the node: the tree's record count right
    /// after it, 0 for a node no insert has written (§4.2).
    pub fn stamp(&self) -> u64 {
        self.head.stamp
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.head.count
    }

    /// True iff the node has no entries.
    pub fn is_empty(&self) -> bool {
        self.head.count == 0
    }

    /// Lazily decoded `(bounding key, child page)` entries. Panics on
    /// leaves (programming error).
    pub fn internal_entries(&self) -> InternalEntries<'_, K> {
        assert!(!self.head.leaf, "expected internal node");
        InternalEntries {
            buf: self.entries(),
            remaining: self.head.count,
            _marker: PhantomData,
        }
    }

    /// Random access to one internal entry (fixed stride — O(1)).
    pub fn internal_entry(&self, i: usize) -> (K, PageId) {
        assert!(!self.head.leaf, "expected internal node");
        assert!(i < self.head.count, "entry index out of range");
        let stride = stride::<K, R>(false);
        let at = &self.entries()[i * stride..(i + 1) * stride];
        let k = K::decode(&at[..K::ENCODED_LEN]);
        let child = PageId(u32::from_le_bytes(
            at[K::ENCODED_LEN..].try_into().unwrap(),
        ));
        (k, child)
    }

    /// Lazily decoded leaf records. Panics on internal nodes.
    pub fn leaf_records(&self) -> LeafRecords<'_, R> {
        assert!(self.head.leaf, "expected leaf node");
        LeafRecords {
            buf: self.entries(),
            remaining: self.head.count,
            _marker: PhantomData,
        }
    }

    /// Minimum bounding key over all entries (empty key for empty nodes).
    pub fn bounding_key(&self) -> K {
        if self.head.leaf {
            self.leaf_records()
                .fold(K::empty(), |acc, r| acc.cover(&r.key()))
        } else {
            self.internal_entries()
                .fold(K::empty(), |acc, (k, _)| acc.cover(&k))
        }
    }

    /// [`Self::bounding_key`] of an internal node with entry `i`'s key
    /// taken to be `key`: what the node's key becomes once a child's key
    /// changes. Same fold, same order, so the result is bit-equal to
    /// re-keying the entry and folding — for every [`Key`], including
    /// ones whose `cover` rounds.
    pub fn bounding_key_replacing(&self, i: usize, key: &K) -> K {
        assert!(i < self.head.count, "entry index out of range");
        self.internal_entries()
            .enumerate()
            .fold(K::empty(), |acc, (j, (k, _))| {
                acc.cover(if j == i { key } else { &k })
            })
    }
}

/// A node's page image under edit in a caller-owned buffer — how every
/// page of the tree is written.
///
/// Opened by [`NodeRef::edit_in`] over a copy of the node's used prefix,
/// or empty by [`Self::fresh`].
/// Entries are fixed-stride, so each primitive touches only the bytes it
/// names: every other entry keeps the exact bytes it had on the page,
/// which is what re-encoding its decoded form would have produced (the
/// [`Key`] / [`Record`] encoding contracts), minus the decode and the
/// encode. [`Self::bytes`] is the image to hand to `PageStore::write`.
pub struct NodeEdit<'a, K, R> {
    buf: &'a mut Vec<u8>,
    leaf: bool,
    count: usize,
    /// Entries the page holds; appending past it panics.
    cap: usize,
    _marker: PhantomData<fn() -> (K, R)>,
}

impl<'a, K: Key, R: Record<Key = K>> NodeEdit<'a, K, R> {
    /// Open an empty node stamped 0 at `level` (0 = leaf) for a
    /// page of `page_size` bytes in `buf`, cleared first and grown once
    /// to a page: how a node written whole is built, its entries
    /// appended straight into the image that is written.
    pub fn fresh(buf: &'a mut Vec<u8>, level: u32, page_size: usize) -> Self {
        let leaf = level == 0;
        buf.clear();
        buf.reserve(page_size);
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.push(if leaf { KIND_LEAF } else { KIND_INTERNAL });
        buf.push(0);
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&level.to_le_bytes());
        buf.resize(NODE_HEADER_LEN, 0);
        NodeEdit {
            buf,
            leaf,
            count: 0,
            cap: capacity::<K, R>(leaf, page_size),
            _marker: PhantomData,
        }
    }

    /// Number of entries, appended ones included.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True iff the node has no entries.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Stamp the node with the insert writing it (see [`NodeRef::stamp`]).
    pub fn set_stamp(&mut self, stamp: u64) {
        self.buf[STAMP_AT..STAMP_AT + 8].copy_from_slice(&stamp.to_le_bytes());
    }

    /// Append one record to a leaf, at `32 + len·stride`. Panics on a
    /// full node — an overfull node splits instead.
    pub fn push_record(&mut self, rec: &R) {
        assert!(self.leaf, "expected leaf node");
        rec.encode(self.buf);
        self.grew();
    }

    /// Append one `(key, child)` entry to an internal node. Panics on a
    /// full node.
    pub fn push_entry(&mut self, key: &K, child: PageId) {
        assert!(!self.leaf, "expected internal node");
        key.encode(self.buf);
        self.buf.extend_from_slice(&child.0.to_le_bytes());
        self.grew();
    }

    /// Overwrite the key bytes of internal entry `i`; its child pointer
    /// and every other entry stay as they are.
    pub fn set_key(&mut self, i: usize, key: &K) {
        assert!(!self.leaf, "expected internal node");
        assert!(i < self.count, "entry index out of range");
        // `Key::encode` only appends: stage the key past the end, move
        // it into its slot, drop the staging bytes.
        let end = self.buf.len();
        key.encode(self.buf);
        let at = NODE_HEADER_LEN + i * stride::<K, R>(false);
        self.buf.copy_within(end.., at);
        self.buf.truncate(end);
    }

    fn grew(&mut self) {
        self.count += 1;
        assert!(
            self.count <= self.cap,
            "node overflow: {} entries > capacity {}",
            self.count,
            self.cap
        );
        debug_assert_eq!(
            self.buf.len(),
            NODE_HEADER_LEN + self.count * stride::<K, R>(self.leaf)
        );
        self.buf[COUNT_AT..COUNT_AT + 4].copy_from_slice(&(self.count as u32).to_le_bytes());
    }

    /// The edited image: header plus every entry, ready to write.
    pub fn bytes(&self) -> &[u8] {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::NsiSegmentRecord;
    use stkit::{Interval, StBox};

    type R = NsiSegmentRecord<2>;
    type K = StBox<2, 1>;

    fn rec(oid: u32, x: f64) -> R {
        R::new(oid, 0, Interval::new(0.0, 1.0), [x, 0.0], [x + 1.0, 1.0])
    }

    /// A leaf page holding `recs`, read back.
    fn leaf(recs: &[R]) -> NodeRef<K, R> {
        let mut buf = Vec::new();
        let mut edit = NodeEdit::<K, R>::fresh(&mut buf, 0, 4096);
        for r in recs {
            edit.push_record(r);
        }
        NodeRef::try_parse(PageRef::from(buf), PageId(0)).unwrap()
    }

    #[test]
    fn node_ref_keeps_the_page_it_parses() {
        // Zero-copy: the handle holds the buffer it was given, and its
        // iterators decode entries straight out of it.
        let page = leaf(&[rec(1, 0.0)]).bytes;
        let node = NodeRef::<K, R>::try_parse(page.clone(), PageId(0)).unwrap();
        assert_eq!(node.bytes.as_ptr(), page.as_ptr());
        assert_eq!(node.entries().as_ptr(), page[NODE_HEADER_LEN..].as_ptr());
    }

    #[test]
    fn capacities_match_paper() {
        assert_eq!(capacity::<K, R>(true, 4096), 127);
        assert_eq!(capacity::<K, R>(false, 4096), 145);
    }

    #[test]
    #[should_panic(expected = "node overflow")]
    fn oversized_node_panics() {
        let recs: Vec<R> = (0..128).map(|i| rec(i, i as f64)).collect();
        leaf(&recs);
    }

    #[test]
    fn garbage_page_rejected() {
        let page = PageRef::from(vec![0u8; 4096]);
        let read = NodeRef::<K, R>::try_parse(page, PageId(3));
        assert_eq!(read.err(), Some(StorageError::Corrupt { page: PageId(3) }));
    }
}
