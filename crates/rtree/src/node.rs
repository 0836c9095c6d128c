//! On-page node representation and (de)serialization.
//!
//! One node occupies exactly one page. Layout (little-endian):
//!
//! ```text
//! offset  size  field
//! 0       2     magic 0x5254 ("RT")
//! 2       1     node kind: 0 = leaf, 1 = internal
//! 3       1     reserved
//! 4       4     entry count (u32)
//! 8       8     modification timestamp (f64) — §4.2 update management
//! 16      4     level (u32): 0 at leaves, increasing towards the root
//! 20      12    reserved
//! 32      …     entries
//! ```
//!
//! Internal entries are `key ‖ child-page-id(u32)`; leaf entries are
//! encoded records. With 4 KiB pages, 2-d NSI keys (24 B) and 32-byte
//! segment records this yields the paper's fanout: 145 internal, 127 leaf.
//!
//! Three representations share this layout. [`NodeView`] / [`NodeRef`]
//! read a page in place; [`NodeEdit`] changes a copy of its used prefix
//! by byte range (entries are fixed-stride, so adding one or re-keying
//! one touches only its own bytes) — the insert path's form for every
//! node that does not split, and the bulk loader's for every node it
//! packs; the owned [`Node`] decodes every entry and is what a split
//! works on.

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
const TIMESTAMP_AT: usize = 8;

/// Bytes per entry of a leaf (`true`) or internal node.
const fn stride<K: Key, R: Record>(leaf: bool) -> usize {
    if leaf {
        R::ENCODED_LEN
    } else {
        K::ENCODED_LEN + 4
    }
}

/// Append the fixed header to an empty `buf`.
fn write_header(buf: &mut Vec<u8>, leaf: bool, count: usize, timestamp: f64, level: u32) {
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.push(if leaf { KIND_LEAF } else { KIND_INTERNAL });
    buf.push(0);
    buf.extend_from_slice(&(count as u32).to_le_bytes());
    buf.extend_from_slice(&timestamp.to_le_bytes());
    buf.extend_from_slice(&level.to_le_bytes());
    buf.resize(NODE_HEADER_LEN, 0);
}

/// Why a page image is not a node.
#[derive(Debug)]
enum BadHeader {
    /// The buffer ends before the header, or before the entries the
    /// header's count claims.
    Short { count: usize },
    Magic,
    Kind(u8),
    /// A leaf above level 0, or an internal node at it: engines compute
    /// `level - 1` for an internal node's children.
    Level(u32),
}

impl std::fmt::Display for BadHeader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BadHeader::Short { count } => {
                write!(f, "corrupt node: {count} entries do not fit the page")
            }
            BadHeader::Magic => write!(f, "not an R-tree node page"),
            BadHeader::Kind(other) => write!(f, "corrupt node kind byte {other}"),
            BadHeader::Level(level) => write!(f, "corrupt node: level {level} contradicts its kind"),
        }
    }
}

/// The fixed header, checked: `count` entries of this kind fit the
/// buffer it was parsed from.
#[derive(Clone, Copy)]
struct Header {
    leaf: bool,
    count: usize,
    timestamp: f64,
    level: u32,
}

impl Header {
    /// Total over every byte string: the one place a count read off a
    /// page is bounded before anything slices by it.
    fn parse<K: Key, R: Record>(buf: &[u8]) -> Result<Header, BadHeader> {
        let Some(head) = buf.get(..NODE_HEADER_LEN) else {
            return Err(BadHeader::Short { count: 0 });
        };
        if u16::from_le_bytes([head[0], head[1]]) != MAGIC {
            return Err(BadHeader::Magic);
        }
        let leaf = match head[2] {
            KIND_LEAF => true,
            KIND_INTERNAL => false,
            other => return Err(BadHeader::Kind(other)),
        };
        let count =
            u32::from_le_bytes(head[COUNT_AT..COUNT_AT + 4].try_into().unwrap()) as usize;
        let fits = count
            .checked_mul(stride::<K, R>(leaf))
            .and_then(|n| n.checked_add(NODE_HEADER_LEN))
            .is_some_and(|end| end <= buf.len());
        if !fits {
            return Err(BadHeader::Short { count });
        }
        let level = u32::from_le_bytes(head[16..20].try_into().unwrap());
        if leaf != (level == 0) {
            return Err(BadHeader::Level(level));
        }
        Ok(Header {
            leaf,
            count,
            timestamp: f64::from_le_bytes(
                head[TIMESTAMP_AT..TIMESTAMP_AT + 8].try_into().unwrap(),
            ),
            level,
        })
    }

    /// End of the used prefix: header plus `count` entries.
    fn used<K: Key, R: Record>(&self) -> usize {
        NODE_HEADER_LEN + self.count * stride::<K, R>(self.leaf)
    }
}

/// Entries of a node: child pointers with bounding keys, or data records.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeEntries<K, R> {
    /// An internal node's `(bounding key, child page)` entries.
    Internal(Vec<(K, PageId)>),
    /// A leaf node's data records.
    Leaf(Vec<R>),
}

/// An R-tree node decoded into memory.
#[derive(Clone, Debug, PartialEq)]
pub struct Node<K, R> {
    /// Height above the leaf level (0 = leaf).
    pub level: u32,
    /// Logical time of the last modification of this node (insertion path
    /// stamping, §4.2). `-∞` for never-modified bulk-loaded nodes.
    pub timestamp: f64,
    /// The node's entries.
    pub entries: NodeEntries<K, R>,
}

impl<K: Key, R: Record<Key = K>> Node<K, R> {
    /// A fresh empty leaf.
    pub fn empty_leaf() -> Self {
        Node {
            level: 0,
            timestamp: f64::NEG_INFINITY,
            entries: NodeEntries::Leaf(Vec::new()),
        }
    }

    /// A fresh internal node at `level` (≥ 1).
    pub fn internal(level: u32, entries: Vec<(K, PageId)>) -> Self {
        debug_assert!(level >= 1);
        Node {
            level,
            timestamp: f64::NEG_INFINITY,
            entries: NodeEntries::Internal(entries),
        }
    }

    /// True iff this is a leaf node.
    pub fn is_leaf(&self) -> bool {
        matches!(self.entries, NodeEntries::Leaf(_))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match &self.entries {
            NodeEntries::Internal(v) => v.len(),
            NodeEntries::Leaf(v) => v.len(),
        }
    }

    /// True iff the node has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Minimum bounding key over all entries (empty key for empty nodes).
    pub fn bounding_key(&self) -> K {
        match &self.entries {
            NodeEntries::Internal(v) => v
                .iter()
                .fold(K::empty(), |acc, (k, _)| acc.cover(k)),
            NodeEntries::Leaf(v) => v
                .iter()
                .fold(K::empty(), |acc, r| acc.cover(&r.key())),
        }
    }

    /// Maximum number of entries that fit a page of `page_size` bytes for
    /// this node's kind.
    pub fn capacity(&self, page_size: usize) -> usize {
        if self.is_leaf() {
            Self::leaf_capacity(page_size)
        } else {
            Self::internal_capacity(page_size)
        }
    }

    /// Leaf fanout for a given page size.
    pub fn leaf_capacity(page_size: usize) -> usize {
        (page_size - NODE_HEADER_LEN) / R::ENCODED_LEN
    }

    /// Internal fanout for a given page size.
    pub fn internal_capacity(page_size: usize) -> usize {
        (page_size - NODE_HEADER_LEN) / (K::ENCODED_LEN + 4)
    }

    /// Serialize into a page image of at most `page_size` bytes.
    ///
    /// Panics if the node exceeds its capacity — callers split first.
    pub fn serialize(&self, page_size: usize) -> Vec<u8> {
        let mut buf = Vec::with_capacity(page_size);
        self.serialize_into(&mut buf, page_size);
        buf
    }

    /// Serialize into a caller-provided buffer (cleared first), so the hot
    /// write path can reuse one allocation across calls.
    ///
    /// Panics if the node exceeds its capacity — callers split first.
    pub fn serialize_into(&self, buf: &mut Vec<u8>, page_size: usize) {
        assert!(
            self.len() <= self.capacity(page_size),
            "node overflow: {} entries > capacity {}",
            self.len(),
            self.capacity(page_size)
        );
        buf.clear();
        buf.reserve(page_size);
        write_header(buf, self.is_leaf(), self.len(), self.timestamp, self.level);
        match &self.entries {
            NodeEntries::Internal(v) => {
                for (k, child) in v {
                    k.encode(buf);
                    buf.extend_from_slice(&child.0.to_le_bytes());
                }
            }
            NodeEntries::Leaf(v) => {
                for r in v {
                    r.encode(buf);
                }
            }
        }
        debug_assert!(buf.len() <= page_size);
    }

    /// Decode a node from a page image. (Materializes entry `Vec`s; the
    /// read path should prefer [`NodeView`] / [`NodeRef`].)
    pub fn deserialize(buf: &[u8]) -> Self {
        NodeView::parse(buf).to_node()
    }

    /// Internal entries, panicking on leaves (programming error).
    pub fn internal_entries(&self) -> &[(K, PageId)] {
        match &self.entries {
            NodeEntries::Internal(v) => v,
            NodeEntries::Leaf(_) => panic!("expected internal node"),
        }
    }

    /// Leaf records, panicking on internal nodes (programming error).
    pub fn leaf_records(&self) -> &[R] {
        match &self.entries {
            NodeEntries::Leaf(v) => v,
            NodeEntries::Internal(_) => panic!("expected leaf node"),
        }
    }
}

/// A borrowed, zero-copy view of an on-page node.
///
/// Parses the 32-byte header once; entries are decoded lazily, straight
/// out of the page bytes, as the iterators advance — no entry `Vec` is
/// ever built. This is the node representation of the read path, and of
/// the insert path's descent and key folds.
#[derive(Clone, Copy)]
pub struct NodeView<'a, K, R> {
    /// Entry region of the page (header stripped).
    entries: &'a [u8],
    head: Header,
    _marker: PhantomData<fn() -> (K, R)>,
}

impl<'a, K: Key, R: Record<Key = K>> NodeView<'a, K, R> {
    /// Parse the header of a page image. Panics on a page that is not a
    /// node, like [`Node::deserialize`]; serving reads go through
    /// [`NodeRef::try_parse`] instead.
    pub fn parse(buf: &'a [u8]) -> Self {
        match Header::parse::<K, R>(buf) {
            Ok(head) => Self::over(buf, head),
            Err(e) => panic!("{e}"),
        }
    }

    /// View `buf` under a header already checked against it.
    fn over(buf: &'a [u8], head: Header) -> Self {
        NodeView {
            entries: &buf[NODE_HEADER_LEN..head.used::<K, R>()],
            head,
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

    /// Logical time of the node's last modification (§4.2).
    pub fn timestamp(&self) -> f64 {
        self.head.timestamp
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
    pub fn internal_entries(&self) -> InternalEntries<'a, K> {
        assert!(!self.head.leaf, "expected internal node");
        InternalEntries {
            buf: self.entries,
            remaining: self.head.count,
            _marker: PhantomData,
        }
    }

    /// Random access to one internal entry (fixed stride — O(1)).
    pub fn internal_entry(&self, i: usize) -> (K, PageId) {
        assert!(!self.head.leaf, "expected internal node");
        assert!(i < self.head.count, "entry index out of range");
        let stride = stride::<K, R>(false);
        let at = &self.entries[i * stride..(i + 1) * stride];
        let k = K::decode(&at[..K::ENCODED_LEN]);
        let child = PageId(u32::from_le_bytes(
            at[K::ENCODED_LEN..].try_into().unwrap(),
        ));
        (k, child)
    }

    /// Lazily decoded leaf records. Panics on internal nodes.
    pub fn leaf_records(&self) -> LeafRecords<'a, R> {
        assert!(self.head.leaf, "expected leaf node");
        LeafRecords {
            buf: self.entries,
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

    /// Materialize an owned [`Node`] — every entry decoded into a `Vec`.
    /// The insert path does this only for a node that splits.
    pub fn to_node(&self) -> Node<K, R> {
        let entries = if self.head.leaf {
            NodeEntries::Leaf(self.leaf_records().collect())
        } else {
            NodeEntries::Internal(self.internal_entries().collect())
        };
        Node {
            level: self.head.level,
            timestamp: self.head.timestamp,
            entries,
        }
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

/// An owned zero-copy node handle: a [`storage::PageRef`] plus the parsed
/// header.
///
/// `NodeView` borrows page bytes, so it can't be returned from a method
/// that reads the page; `NodeRef` owns the refcounted bytes (keeping them
/// alive across eviction) and hands out views on demand.
pub struct NodeRef<K, R> {
    bytes: PageRef,
    head: Header,
    _marker: PhantomData<fn() -> (K, R)>,
}

impl<K: Key, R: Record<Key = K>> NodeRef<K, R> {
    fn checked(bytes: PageRef) -> Result<Self, BadHeader> {
        let head = Header::parse::<K, R>(&bytes)?;
        Ok(NodeRef {
            bytes,
            head,
            _marker: PhantomData,
        })
    }

    /// Parse the header of `bytes` once, taking ownership of the handle.
    /// Panics on a page that is not a node (see [`NodeView::parse`]).
    pub fn parse(bytes: PageRef) -> Self {
        Self::checked(bytes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::parse`] for bytes that came off a device: a bad magic or
    /// kind byte, or a count whose entries would not fit `bytes`, is
    /// [`StorageError::Corrupt`] on `page` rather than a panic, so a
    /// writer holding the tree lock never unwinds on a flipped byte.
    /// Every entry the returned node admits lies inside `bytes`.
    pub fn try_parse(bytes: PageRef, page: PageId) -> Result<Self, StorageError> {
        Self::checked(bytes).map_err(|_| StorageError::Corrupt { page })
    }

    /// Borrow the underlying page as a [`NodeView`].
    pub fn view(&self) -> NodeView<'_, K, R> {
        NodeView::over(&self.bytes, self.head)
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

    /// Logical time of the node's last modification (§4.2).
    pub fn timestamp(&self) -> f64 {
        self.head.timestamp
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.head.count
    }

    /// True iff the node has no entries.
    pub fn is_empty(&self) -> bool {
        self.head.count == 0
    }

    /// Lazily decoded internal entries. Panics on leaves.
    pub fn internal_entries(&self) -> InternalEntries<'_, K> {
        self.view().internal_entries()
    }

    /// Random access to one internal entry.
    pub fn internal_entry(&self, i: usize) -> (K, PageId) {
        self.view().internal_entry(i)
    }

    /// Lazily decoded leaf records. Panics on internal nodes.
    pub fn leaf_records(&self) -> LeafRecords<'_, R> {
        self.view().leaf_records()
    }

    /// Minimum bounding key over all entries.
    pub fn bounding_key(&self) -> K {
        self.view().bounding_key()
    }

    /// Materialize an owned [`Node`] for mutation.
    pub fn to_node(&self) -> Node<K, R> {
        self.view().to_node()
    }
}

/// A node's page image under edit in a caller-owned buffer — the insert
/// path's representation of a node that does not split, and the bulk
/// loader's of every node it packs.
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
    _marker: PhantomData<fn() -> (K, R)>,
}

impl<'a, K: Key, R: Record<Key = K>> NodeEdit<'a, K, R> {
    /// Open an empty, never-modified node at `level` (0 = leaf) in `buf`,
    /// cleared first and grown once to a page: how the bulk loader builds
    /// each node, appending entries straight into the image it writes.
    pub fn fresh(buf: &'a mut Vec<u8>, level: u32, page_size: usize) -> Self {
        buf.clear();
        buf.reserve(page_size);
        write_header(buf, level == 0, 0, f64::NEG_INFINITY, level);
        NodeEdit {
            buf,
            leaf: level == 0,
            count: 0,
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

    /// Stamp the node's modification time (§4.2).
    pub fn set_timestamp(&mut self, now: f64) {
        self.buf[TIMESTAMP_AT..TIMESTAMP_AT + 8].copy_from_slice(&now.to_le_bytes());
    }

    /// Append one record to a leaf, at `32 + len·stride`. The caller has
    /// checked capacity — an overfull node splits instead.
    pub fn push_record(&mut self, rec: &R) {
        assert!(self.leaf, "expected leaf node");
        rec.encode(self.buf);
        self.grew();
    }

    /// Append one `(key, child)` entry to an internal node. The caller
    /// has checked capacity.
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
    type N = Node<K, R>;

    fn rec(oid: u32, x: f64) -> R {
        R::new(oid, 0, Interval::new(0.0, 1.0), [x, 0.0], [x + 1.0, 1.0])
    }

    #[test]
    fn leaf_roundtrip() {
        let mut n = N::empty_leaf();
        n.timestamp = 17.5;
        if let NodeEntries::Leaf(v) = &mut n.entries {
            v.push(rec(1, 0.0));
            v.push(rec(2, 5.0));
        }
        let page = n.serialize(4096);
        assert!(page.len() <= 4096);
        let back = N::deserialize(&page);
        assert_eq!(back, n);
        assert_eq!(back.level, 0);
        assert_eq!(back.timestamp, 17.5);
        assert_eq!(back.leaf_records().len(), 2);
    }

    #[test]
    fn internal_roundtrip() {
        let k1 = rec(1, 0.0).key();
        let k2 = rec(2, 5.0).key();
        let mut n = N::internal(2, vec![(k1, PageId(7)), (k2, PageId(9))]);
        n.timestamp = -3.25;
        let page = n.serialize(4096);
        let back = N::deserialize(&page);
        assert_eq!(back, n);
        assert_eq!(back.internal_entries()[1].1, PageId(9));
    }

    #[test]
    fn node_ref_keeps_the_page_it_parses() {
        // Zero-copy: the handle holds the buffer it was given, and its
        // views decode entries straight out of it.
        let page = PageRef::from(N::internal(1, vec![(rec(1, 0.0).key(), PageId(7))]).serialize(4096));
        let parsed = NodeRef::<K, R>::parse(page.clone());
        let tried = NodeRef::<K, R>::try_parse(page.clone(), PageId(0)).unwrap();
        for node in [parsed, tried] {
            assert_eq!(node.bytes.as_ptr(), page.as_ptr());
            assert_eq!(node.view().entries.as_ptr(), page[NODE_HEADER_LEN..].as_ptr());
        }
    }

    #[test]
    fn capacities_match_paper() {
        assert_eq!(N::leaf_capacity(4096), 127);
        assert_eq!(N::internal_capacity(4096), 145);
    }

    #[test]
    fn bounding_key_covers_entries() {
        let mut n = N::empty_leaf();
        if let NodeEntries::Leaf(v) = &mut n.entries {
            v.push(rec(1, 0.0));
            v.push(rec(2, 5.0));
        }
        let bk = n.bounding_key();
        assert!(bk.contains(&rec(1, 0.0).key()));
        assert!(bk.contains(&rec(2, 5.0).key()));
        assert!(N::empty_leaf().bounding_key().is_empty());
    }

    #[test]
    #[should_panic(expected = "node overflow")]
    fn oversized_node_panics() {
        let mut n = N::empty_leaf();
        if let NodeEntries::Leaf(v) = &mut n.entries {
            for i in 0..200 {
                v.push(rec(i, i as f64));
            }
        }
        n.serialize(4096);
    }

    #[test]
    #[should_panic(expected = "not an R-tree node")]
    fn garbage_page_rejected() {
        let buf = vec![0u8; 4096];
        let _ = N::deserialize(&buf);
    }

    #[test]
    fn full_leaf_fits_exactly() {
        let mut n = N::empty_leaf();
        if let NodeEntries::Leaf(v) = &mut n.entries {
            for i in 0..127 {
                v.push(rec(i, i as f64));
            }
        }
        let page = n.serialize(4096);
        assert!(page.len() <= 4096);
        assert_eq!(N::deserialize(&page).len(), 127);
    }
}
