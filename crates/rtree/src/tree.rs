//! The paginated R-tree: construction, insertion, node access.

use crate::levels::LevelCounters;
use crate::node::{capacity, NodeEdit, NodeRef};
use crate::split::{split, SplitPolicy};
use crate::stbox_key::f32_up;
use crate::traits::{Key, Record};
use storage::{PageId, PageStore, StorageError};

/// Tuning knobs; defaults reproduce the paper's setup (§5).
#[derive(Clone, Copy, Debug)]
pub struct RTreeConfig {
    /// Minimum node fill on split, as a fraction of capacity. The paper
    /// uses 0.5.
    pub min_fill: f64,
    /// Split heuristic on overflow.
    pub split_policy: SplitPolicy,
    /// Target node fill for [`crate::bulk::bulk_load`], the paper's §5
    /// experiment build (paper: 0.5). A serving rebuild does not read
    /// this or the next field: it passes `pack_into` its own order and
    /// fill.
    pub bulk_fill: f64,
    /// When `Some(k)`, STR bulk loading tiles only over the first `k`
    /// axes (spatial axes come first in `StBox` keys): pass `Some(2)` for
    /// 2-d data to get purely *spatial* clustering, the layout that makes
    /// NPDQ discardability effective for open-ended queries (§4.2).
    /// `None` tiles over all axes (balanced space-time clustering).
    pub bulk_leading_axes: Option<usize>,
}

impl Default for RTreeConfig {
    fn default() -> Self {
        RTreeConfig {
            min_fill: 0.5,
            split_policy: SplitPolicy::Quadratic,
            bulk_fill: 0.5,
            bulk_leading_axes: None,
        }
    }
}

/// What an insertion created, for notifying running dynamic queries
/// (§4.1 "Update Management").
#[derive(Clone, Debug, PartialEq)]
pub enum Inserted<K, R> {
    /// No node was split: only this record is new. Running queries check
    /// it against their trajectory directly.
    Record(R),
    /// Splits occurred; `page` is the top-most node the split chain
    /// *created*: the entry the first ancestor with room absorbed, or at
    /// a root split the old root's new sibling. A split puts the arriving
    /// entry's group in the new node, so the new nodes nest and this one
    /// is their common ancestor (§4.1's LCA, a node counting as its own
    /// ancestor): its subtree holds the new record and every entry a
    /// split moved, and it is a page no running query has read. Running
    /// queries enqueue it.
    Subtree {
        /// Page of that node.
        page: PageId,
        /// Its bounding key.
        key: K,
        /// Its level (0 = leaf).
        level: u32,
    },
}

/// What [`RTree::epoch_stats`] returns: a compile-compat remnant for
/// `benchmarks/dqbench`, always zero. See that method.
#[derive(Debug, Default)]
pub struct EpochStats {
    /// Node reads performed and then discarded. Nothing discards reads.
    pub read_retries: u64,
}

/// Outcome of one insertion.
#[derive(Clone, Debug, PartialEq)]
pub struct InsertReport<K, R> {
    /// What to forward to running dynamic queries.
    pub notify: Inserted<K, R>,
}

/// One internal node on an insert's descent: the page, the node as read
/// (its `PageRef` lives until the upward pass reaches it), and the child
/// taken.
struct Step<K, R> {
    page: PageId,
    node: NodeRef<K, R>,
    chosen: usize,
}

impl<K: Key, R: Record<Key = K>> Step<K, R> {
    /// The new key of the child this step descended into, one of whose
    /// entries now covers `added`.
    ///
    /// In general that is `fold`, the child's entries folded again. But
    /// this step's entry for the child is *tight* — exactly the child's
    /// key as a page stores it; every writer stores `bounding_key()`
    /// there and [`RTree::validate`] checks it — so when the entry only
    /// `grew` and the key type's cover is an exact join, the child's new
    /// key is that entry `∪ added`, no fold at all. The two can differ in
    /// memory (the entry is rounded outward to `f32`, the fold is not) but
    /// encode to the same bytes, because `min`/`max` commute with the
    /// encoding's monotone rounding; and an insert that splits nothing
    /// reports no key. Which key types qualify is theirs to declare
    /// ([`Key::COVER_IS_EXACT_JOIN`]), never a setting.
    fn child_key_after(&self, grew: bool, added: &K, fold: impl FnOnce() -> K) -> K {
        if grew && K::COVER_IS_EXACT_JOIN {
            self.node.internal_entry(self.chosen).0.cover(added)
        } else {
            fold()
        }
    }
}

/// A paginated R-tree over records of type `R`, stored in `S`.
///
/// Every node occupies one page; reading a node ([`RTree::try_read_node`])
/// costs exactly one [`PageStore::read_page`], which is the paper's
/// disk-access metric.
///
/// The tree is insert-only, as the paper's update management (§4.1) is,
/// and no store frees a page: a page id names one node for the tree's
/// life, so a running query may key its duplicate filter on it — and the
/// tree may keep a side array by page id ([`Self::latest_start`]).
///
/// ```
/// use rtree::{NsiSegmentRecord, RTree, RTreeConfig};
/// use storage::Pager;
/// use stkit::{Interval, Rect, StBox};
///
/// let mut tree = RTree::new(Pager::new(), RTreeConfig::default());
/// for i in 0..500u32 {
///     let x = (i % 25) as f64;
///     let y = (i / 25) as f64;
///     let rec = NsiSegmentRecord::new(
///         i, 0, Interval::new(0.0, 1.0), [x, y], [x + 0.5, y + 0.5]);
///     tree.insert(rec, 0.0); // the f64 is ignored: see `RTree::insert`
/// }
/// assert_eq!(tree.len(), 500);
/// // Range search with the exact leaf test (§3.2).
/// let q = StBox::new(
///     Rect::from_corners([5.0, 5.0], [9.0, 9.0]),
///     Rect::new([Interval::new(0.0, 1.0)]),
/// );
/// let (hits, stats) = tree.range_collect(&q, |_| true);
/// assert!(!hits.is_empty());
/// assert!(stats.disk_accesses > 0); // every node load = one disk access
/// ```
pub struct RTree<R: Record, S: PageStore> {
    store: S,
    config: RTreeConfig,
    root: PageId,
    height: u32,
    len: u64,
    /// The write path's one page buffer: every page image is built or
    /// edited in it ([`NodeEdit`]), so writing allocates once per tree
    /// instead of once per node.
    scratch: Vec<u8>,
    /// The insert path's descent stack, empty between inserts and kept
    /// for its capacity.
    path: Vec<Step<R::Key, R>>,
    /// Per-level node read/write counters (relaxed atomics, so readers
    /// sharing `&self` all count here).
    levels: LevelCounters,
    /// By page id: an upper bound on [`Record::start_bound`] over every
    /// record under the page ([`Self::latest_start`]). Kept in memory
    /// only; a page past the end is unknown, `+∞`.
    starts: Vec<f32>,
    _records: std::marker::PhantomData<fn() -> R>,
}

impl<R: Record, S: PageStore> RTree<R, S> {
    /// Create an empty tree (a single empty leaf as root).
    pub fn new(store: S, config: RTreeConfig) -> Self {
        let root = store.alloc();
        let mut scratch = Vec::new();
        let leaf = NodeEdit::<R::Key, R>::fresh(&mut scratch, 0, store.page_size());
        store.write(root, leaf.bytes());
        let mut tree = RTree {
            store,
            config,
            root,
            height: 1,
            len: 0,
            scratch,
            path: Vec::new(),
            levels: LevelCounters::new(),
            starts: Vec::new(),
            _records: std::marker::PhantomData,
        };
        // An empty leaf: no record under it has started.
        tree.set_start(root, f32::NEG_INFINITY);
        tree
    }

    /// Re-open a tree whose pages already live in `store` (e.g. loaded
    /// from a persisted page file): the caller supplies the metadata that
    /// [`RTree::metadata`] returned when the tree was saved. Pages carry
    /// no start bound, so every page's [`Self::latest_start`] is `+∞`.
    pub fn reopen(store: S, config: RTreeConfig, root: PageId, height: u32, len: u64) -> Self {
        RTree {
            store,
            config,
            root,
            height,
            len,
            scratch: Vec::new(),
            path: Vec::new(),
            levels: LevelCounters::new(),
            starts: Vec::new(),
            _records: std::marker::PhantomData,
        }
    }

    /// The metadata needed to [`RTree::reopen`] this tree later:
    /// `(root page, height, record count)`.
    pub fn metadata(&self) -> (PageId, u32, u64) {
        (self.root, self.height, self.len)
    }

    /// The page id of the root node.
    pub fn root_page(&self) -> PageId {
        self.root
    }

    /// Number of levels (1 = the root is a leaf). The paper's tree of
    /// ~500 k segments has height 3.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of records stored.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True iff no records are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The underlying page store (for I/O snapshots).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The tree's configuration.
    pub fn config(&self) -> &RTreeConfig {
        &self.config
    }

    /// Leaf fanout under the store's page size.
    pub fn leaf_capacity(&self) -> usize {
        capacity::<R::Key, R>(true, self.store.page_size())
    }

    /// Internal fanout under the store's page size.
    pub fn internal_capacity(&self) -> usize {
        capacity::<R::Key, R>(false, self.store.page_size())
    }

    /// Per-level node read/write counters, accumulated since the tree
    /// was opened. Snapshot before/after an operation and subtract to
    /// attribute its node I/O by level.
    pub fn level_counters(&self) -> &LevelCounters {
        &self.levels
    }

    /// An upper bound on [`Record::start_bound`] over every record under
    /// `page`, read without reading the page: `-∞` for an empty leaf,
    /// `+∞` where the tree knows nothing (any page of a tree opened by
    /// [`Self::reopen`], or not a page of this tree).
    ///
    /// Exact after [`crate::bulk::pack_into`]. An insert raises the bound
    /// of every node on its path, and a node a split or a root growth
    /// creates copies its sibling's, so it stays an upper bound, if a
    /// looser one. It is held as `f32`, rounded up: exact for records
    /// quantized to the page precision.
    pub fn latest_start(&self, page: PageId) -> f64 {
        f64::from(self.start_of(page))
    }

    pub(crate) fn start_of(&self, page: PageId) -> f32 {
        self.starts.get(page.0 as usize).copied().unwrap_or(f32::INFINITY)
    }

    pub(crate) fn set_start(&mut self, page: PageId, bound: f32) {
        let i = page.0 as usize;
        if self.starts.len() <= i {
            self.starts.resize(i + 1, f32::INFINITY);
        }
        self.starts[i] = bound;
    }

    fn raise_start(&mut self, page: PageId, bound: f32) {
        self.set_start(page, self.start_of(page).max(bound));
    }

    /// Always zero: a tree is read through `&self` and written through
    /// `&mut self`, so nothing is left that can retry a read. Kept only
    /// because `benchmarks/dqbench/src/run.rs` calls it for its
    /// `rtree.read_retries` layer metric; ROADMAP item 1(g) removes both
    /// together. Nothing else in the workspace may call it.
    pub fn epoch_stats(&self) -> EpochStats {
        EpochStats::default()
    }

    /// Un-levelled [`Self::try_read_node`] that panics on a read error:
    /// the node at whatever level its header names, so it cannot tell a
    /// child id that names an ancestor from a real child. Hidden, and
    /// kept only because `benchmarks/dqbench/src/layers.rs` calls it;
    /// nothing in the workspace may.
    #[doc(hidden)]
    pub fn read_node(&self, page: PageId) -> NodeRef<R::Key, R> {
        let node = NodeRef::try_parse(self.store.read_page(page), page)
            .unwrap_or_else(|e| panic!("unrecoverable storage error: {e}"));
        self.record_read(page, node.level());
        node
    }

    /// Read the node at `page`, expected at `level` — **one simulated disk
    /// access**, zero-copy: no page copy and no entry materialization;
    /// entries decode lazily as the [`NodeRef`]'s iterators advance.
    ///
    /// Every descent reads through here, naming the level its parent
    /// implies: the root at `height − 1`, then one less a step. A node at
    /// any other level is [`StorageError::Corrupt`] on `page`, as is one
    /// whose header does not parse ([`NodeRef::try_parse`]), and a device
    /// fault is the store's error, carrying the page. Levels strictly
    /// fall, so no descent can cycle, whatever child ids a page holds: a
    /// descent takes at most `height` steps down, and a child id naming
    /// an ancestor is an error on the first read of it.
    ///
    /// A read that returns `Err` is recorded by nothing above the store —
    /// no level counter, no trace event, and no engine counts it as a
    /// disk access — so the reconciliation identities count exactly the
    /// reads that served a node.
    pub fn try_read_node(
        &self,
        page: PageId,
        level: u32,
    ) -> Result<NodeRef<R::Key, R>, StorageError> {
        let node = NodeRef::try_parse(self.store.try_read_page(page)?, page)?;
        if node.level() != level {
            return Err(StorageError::Corrupt { page });
        }
        self.record_read(page, level);
        Ok(node)
    }

    fn record_read(&self, page: PageId, level: u32) {
        self.levels.record_read(level);
        obs::trace(obs::TraceEvent::NodeVisit {
            page: page.0 as u64,
            level,
        });
    }

    /// Write `page` whole: a node at `level` holding the entries `fill`
    /// appends, built in the scratch buffer ([`NodeEdit::fresh`]) and
    /// stamped 0 unless `fill` stamps it. How split halves and new roots
    /// are written; an insert's unsplit nodes are edited page images
    /// instead (see [`Self::ascend`]).
    fn write_new(
        &mut self,
        page: PageId,
        level: u32,
        fill: impl FnOnce(&mut NodeEdit<'_, R::Key, R>),
    ) {
        let mut edit = NodeEdit::fresh(&mut self.scratch, level, self.store.page_size());
        fill(&mut edit);
        self.store.write(page, edit.bytes());
        self.levels.record_write(level);
    }

    /// [Write](Self::write_new) `page`, or a newly allocated page when it
    /// is `None`: how bulk load writes each node it packs, stamped 0.
    pub(crate) fn write_fresh(
        &mut self,
        page: Option<PageId>,
        level: u32,
        fill: impl FnOnce(&mut NodeEdit<'_, R::Key, R>),
    ) -> PageId {
        let page = page.unwrap_or_else(|| self.store.alloc());
        self.write_new(page, level, fill);
        page
    }

    pub(crate) fn set_root(&mut self, root: PageId, height: u32, len: u64) {
        self.root = root;
        self.height = height;
        self.len = len;
    }

    fn min_fill_count(&self, capacity: usize) -> usize {
        // At least 1, at most half of (capacity + 1) so a split of
        // capacity+1 entries is always feasible.
        let m = (capacity as f64 * self.config.min_fill).floor() as usize;
        m.clamp(1, capacity.div_ceil(2))
    }

    /// Insert one record, reporting what running dynamic queries must be
    /// told (§4.1 update management). Every node it writes is stamped
    /// with [`Self::len`] after it (§4.2 update management; see
    /// [`NodeRef::stamp`]). `_now` is read by nothing: it is kept only
    /// because `benchmarks/dqbench/src/layers.rs` passes one.
    pub fn insert(&mut self, rec: R, _now: f64) -> InsertReport<R::Key, R> {
        self.try_insert(rec)
            .unwrap_or_else(|e| panic!("unrecoverable storage error: {e}"))
    }

    /// The stamp of every node the insert in progress writes: its ordinal,
    /// which is [`Self::len`] once it succeeds. A successful insert
    /// strictly raises `len`, so a node stamped above the `len` read at
    /// some instant was written after it. An insert that fails with
    /// [`StorageError::Full`] mid-cascade leaves nodes stamped one past
    /// `len`: they look newer than they are, which is the safe side.
    fn stamp(&self) -> u64 {
        self.len + 1
    }

    /// Fallible form of [`Self::insert`]. Device faults — a page that no
    /// longer parses as a node included — can only surface during the
    /// read-only ChooseLeaf descent, *before* any page is written (the
    /// upward pass edits the pages the descent already holds and reads
    /// nothing): on `Err` the tree is unchanged, so the caller can release
    /// its locks, back off, and retry the same record — the serving
    /// layer's writer does exactly that without holding the tree write
    /// lock across backoff sleeps.
    ///
    /// The one exception is [`StorageError::Full`]: a split needs a fresh
    /// page, and the device refusing it mid-cascade can strand a
    /// completed lower-level split with no parent link (`len` is not
    /// bumped; readers still parse the tree, but records moved into the
    /// orphan page are unreachable). `Full` is not retryable — the caller
    /// must treat it as fatal for the writing session, which is exactly
    /// what the serving writer's `SessionOutcome::Failed` degradation
    /// does. With the WAL enabled no update is lost: the batch's record
    /// is already durable and recovery replays it onto a larger device.
    pub fn try_insert(&mut self, rec: R) -> Result<InsertReport<R::Key, R>, StorageError> {
        self.with_path(|tree, path| tree.insert_along(path, rec))
    }

    /// Run `f` with the tree's descent stack, handing the stack back
    /// empty: an error can leave steps behind, and their `PageRef`s must
    /// not outlive the insert or later writes to those pages would copy.
    /// Inlined into `insert` / `try_insert`: left out of line it cost
    /// `dqbench ingest` 3-4 % CPU per frame.
    #[inline]
    fn with_path<T>(&mut self, f: impl FnOnce(&mut Self, &mut Vec<Step<R::Key, R>>) -> T) -> T {
        let mut path = std::mem::take(&mut self.path);
        let out = f(self, &mut path);
        path.clear();
        self.path = path;
        out
    }

    fn insert_along(
        &mut self,
        path: &mut Vec<Step<R::Key, R>>,
        rec: R,
    ) -> Result<InsertReport<R::Key, R>, StorageError> {
        let added = rec.key();
        // Page-domain key: what the record's key becomes after one trip
        // through the f32 page encoding.
        let key = round_trip(&added, &mut self.scratch);

        // ChooseLeaf. Every page write happens after this, so a device
        // fault surfaces with the tree unchanged.
        let (leaf_page, leaf) = self.descend(path, &key)?;
        let start = start_bound_f32(&rec);
        self.raise_start(leaf_page, start);
        for step in path.iter() {
            self.raise_start(step.page, start);
        }

        // Key of the child just handled, for its parent's entry, and the
        // entry that still has to be added to the next node up.
        let child_key;
        let mut pending = None;
        if leaf.len() < self.leaf_capacity() {
            let level = leaf.level();
            // A root's key is stored nowhere: skip computing it.
            child_key = path
                .last()
                .map(|up| up.child_key_after(true, &added, || leaf.bounding_key().cover(&added)));
            let stamp = self.stamp();
            let mut edit = leaf.edit_in(&mut self.scratch);
            drop(leaf);
            edit.set_stamp(stamp);
            edit.push_record(&rec);
            self.store.write(leaf_page, edit.bytes());
            self.levels.record_write(level);
        } else {
            let mut recs = Vec::with_capacity(leaf.len() + 1);
            recs.extend(leaf.leaf_records());
            drop(leaf);
            recs.push(rec);
            let [(old_key, _), new_entry] =
                self.write_split(leaf_page, 0, &recs, R::key, |edit, r| edit.push_record(r))?;
            child_key = Some(old_key);
            pending = Some(new_entry);
        }

        let created = self.ascend(path, child_key, pending)?;
        self.len += 1;
        Ok(InsertReport {
            notify: created.unwrap_or(Inserted::Record(rec)),
        })
    }

    /// Walk from the root by least enlargement towards `key` down to a
    /// leaf, pushing every internal node passed onto `path` and returning
    /// the leaf — through zero-copy views; nothing is materialized. Each
    /// read names its level ([`Self::try_read_node`]), so the walk takes
    /// at most `height` reads and a cyclic child id is `Corrupt` before
    /// any write.
    fn descend(
        &self,
        path: &mut Vec<Step<R::Key, R>>,
        key: &R::Key,
    ) -> Result<(PageId, NodeRef<R::Key, R>), StorageError> {
        let (mut page, mut level) = (self.root, self.height - 1);
        loop {
            let node = self.try_read_node(page, level)?;
            if node.is_leaf() {
                return Ok((page, node));
            }
            let chosen = choose_subtree(node.internal_entries().map(|(k, _)| k), key);
            let next = node.internal_entry(chosen).1;
            path.push(Step { page, node, chosen });
            (page, level) = (next, level - 1);
        }
    }

    /// The upward pass of an insertion: unwind `path` from its deepest
    /// node to the root, giving each node its child's new key
    /// (`child_key`; `None` only when `path` is empty and the leaf, the
    /// root, did not split) and the entry `pending` from below, and
    /// [stamping](Self::stamp) it.
    ///
    /// A node with room is *edited*: its used prefix is copied into the
    /// scratch buffer, the one or two entries that change are patched in
    /// place, and the image is written back — after the node's `PageRef`
    /// is dropped, so the store overwrites its frame rather than copying
    /// it. Only a node that overflows has its entries decoded into a
    /// `Vec`, because the split heuristics want every key
    /// ([`Self::write_split`]).
    ///
    /// The key handed up is the node's fold with the changed entry
    /// substituted, or — while `grew` holds: nothing below split, so every
    /// key on the way only grew — [`Step::child_key_after`]'s union.
    ///
    /// Returns the top-most node created, if `pending` or a split on the
    /// way created any: see [`Inserted::Subtree`].
    fn ascend(
        &mut self,
        path: &mut Vec<Step<R::Key, R>>,
        mut child_key: Option<R::Key>,
        mut pending: Option<(R::Key, PageId)>,
    ) -> Result<Option<Inserted<R::Key, R>>, StorageError> {
        let internal_cap = self.internal_capacity();
        let stamp = self.stamp();
        let mut grew = pending.is_none();
        let mut created = None;
        while let Some(Step { page, node, chosen }) = path.pop() {
            let level = node.level();
            let ck = child_key.expect("a node below the root hands its key up");
            if pending.is_some() && node.len() == internal_cap {
                let mut entries = Vec::with_capacity(node.len() + 1);
                entries.extend(node.internal_entries());
                drop(node);
                entries[chosen].0 = ck;
                entries.extend(pending.take());
                let [(old_key, _), new_entry] = self.write_split(
                    page,
                    level,
                    &entries,
                    |(k, _)| *k,
                    |edit, (k, child)| edit.push_entry(k, *child),
                )?;
                child_key = Some(old_key);
                pending = Some(new_entry);
                grew = false;
                continue;
            }

            // `scratch` is free until the edit below copies the node in.
            let buf = &mut self.scratch;
            let fold = || {
                let folded = node.bounding_key_replacing(chosen, &as_stored(&ck, buf));
                match &pending {
                    Some((nk, _)) => folded.cover(&as_stored(nk, buf)),
                    None => folded,
                }
            };
            // The node's new key, for its parent's entry: a root has none.
            let key = path.last().map(|up| up.child_key_after(grew, &ck, fold));
            let mut edit = node.edit_in(&mut self.scratch);
            drop(node);
            edit.set_stamp(stamp);
            edit.set_key(chosen, &ck);
            if let Some((nk, np)) = pending.take() {
                // The first ancestor with room: the split chain ends here.
                edit.push_entry(&nk, np);
                created = Some(Inserted::Subtree {
                    page: np,
                    key: nk,
                    level: level - 1,
                });
            }
            self.store.write(page, edit.bytes());
            self.levels.record_write(level);
            child_key = key;
        }

        if let Some((nk, np)) = pending {
            // The old root split: grow the tree.
            let old_root_key = child_key.expect("a split hands its old half's key up");
            let (old_root, level) = (self.root, self.height);
            let new_root = self.store.try_alloc()?;
            self.write_new(new_root, level, |edit| {
                edit.set_stamp(stamp);
                edit.push_entry(&old_root_key, old_root);
                edit.push_entry(&nk, np);
            });
            self.set_start(new_root, self.start_of(old_root));
            self.root = new_root;
            self.height += 1;
            created = Some(Inserted::Subtree {
                page: np,
                key: nk,
                level: level - 1,
            });
        }
        Ok(created)
    }

    /// Split the overflowing node at `page`, whose `entries` end with
    /// the one whose arrival overflowed it. Per §4.1 the group holding
    /// that entry goes to a *new* page, so cascading splits stay on one
    /// path; `page` keeps the other group. Both halves are written whole
    /// at `level`, [stamped](Self::stamp), each entry appended by `push`. Returns
    /// the old and the new half as `(key, page)` entries, each key its
    /// group's `key`s folded in order — the fold
    /// [`NodeRef::bounding_key`] does off the page, internal keys
    /// [as stored](as_stored).
    fn write_split<E>(
        &mut self,
        page: PageId,
        level: u32,
        entries: &[E],
        key: impl Fn(&E) -> R::Key,
        push: impl Fn(&mut NodeEdit<'_, R::Key, R>, &E),
    ) -> Result<[(R::Key, PageId); 2], StorageError> {
        let keys: Vec<R::Key> = entries.iter().map(key).collect();
        let min_fill =
            self.min_fill_count(capacity::<R::Key, R>(level == 0, self.store.page_size()));
        let part = split(self.config.split_policy, &keys, min_fill);
        let (old, new) = if part.a.contains(&(keys.len() - 1)) {
            (&part.b, &part.a)
        } else {
            (&part.a, &part.b)
        };
        let new_page = self.store.try_alloc()?;
        // `page`'s bound already covers both groups.
        self.set_start(new_page, self.start_of(page));
        let stamp = self.stamp();
        let mut half = |page, group: &[usize]| {
            self.write_new(page, level, |edit| {
                edit.set_stamp(stamp);
                group.iter().for_each(|&i| push(edit, &entries[i]));
            });
            let buf = &mut self.scratch;
            let mut stored = |k: &R::Key| if level > 0 { as_stored(k, buf) } else { *k };
            group
                .iter()
                .fold(R::Key::empty(), |acc, &i| acc.cover(&stored(&keys[i])))
        };
        Ok([(half(page, old), page), (half(new_page, new), new_page)])
    }

    /// Walk the whole tree checking structural invariants; returns a
    /// description of the first violation, a read error among them (a
    /// node off its level, a page that does not parse). Test/debug aid —
    /// I/O counted.
    pub fn validate(&self) -> Result<TreeInventory, String> {
        let mut inv = TreeInventory {
            height: self.height,
            ..TreeInventory::default()
        };
        self.validate_node(self.root, self.height - 1, None, &mut inv)?;
        if inv.records != self.len {
            return Err(format!(
                "record count mismatch: counted {}, tree says {}",
                inv.records, self.len
            ));
        }
        Ok(inv)
    }

    fn validate_node(
        &self,
        page: PageId,
        level: u32,
        parent_key: Option<&R::Key>,
        inv: &mut TreeInventory,
    ) -> Result<(), String> {
        let node = self.try_read_node(page, level).map_err(|e| e.to_string())?;
        let cap = if node.is_leaf() {
            self.leaf_capacity()
        } else {
            self.internal_capacity()
        };
        let min_fill = self.min_fill_count(cap);
        if node.len() > cap {
            return Err(format!("node {page} over capacity: {}", node.len()));
        }
        if parent_key.is_some() && node.len() < min_fill.min(cap / 2) && self.len > 0 {
            // Bulk-loaded trees may have one underfull node per level
            // (the remainder tile); tolerate but record it.
            inv.underfull_nodes += 1;
        }
        if let Some(pk) = parent_key {
            let bk = node.bounding_key();
            if !pk.contains(&bk) {
                return Err(format!(
                    "parent key does not contain node {page}: {pk:?} vs {bk:?}"
                ));
            }
            // Tightness: a parent entry is exactly its child's key as
            // the page stores it. Every writer keeps this (bulk load,
            // insert and split all store `bounding_key()`); the
            // insert path's `entry ∪ new key` shortcut depends on it.
            if R::Key::COVER_IS_EXACT_JOIN && round_trip(&bk, &mut Vec::new()) != *pk {
                return Err(format!("parent key of node {page} is not tight: {pk:?} vs {bk:?}"));
            }
        }
        inv.nodes += 1;
        let lvl = level as usize;
        if inv.nodes_per_level.len() <= lvl {
            inv.nodes_per_level.resize(lvl + 1, 0);
            inv.entries_per_level.resize(lvl + 1, 0);
        }
        inv.nodes_per_level[lvl] += 1;
        inv.entries_per_level[lvl] += node.len() as u64;
        let bound = self.start_of(page);
        if node.is_leaf() {
            inv.records += node.len() as u64;
            if let Some(r) = node.leaf_records().find(|r| start_bound_f32(r) > bound) {
                return Err(format!("node {page}'s latest start {bound} is below {r:?}'s"));
            }
            return Ok(());
        }
        for (k, child_page) in node.internal_entries() {
            if self.start_of(child_page) > bound {
                return Err(format!("child {child_page}'s latest start exceeds node {page}'s"));
            }
            self.validate_node(child_page, level - 1, Some(&k), inv)?;
        }
        Ok(())
    }
}

/// Structural statistics gathered by [`RTree::validate`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TreeInventory {
    /// Total node count.
    pub nodes: u64,
    /// Total record count.
    pub records: u64,
    /// Tree height.
    pub height: u32,
    /// Nodes per level, index 0 = leaves.
    pub nodes_per_level: Vec<u64>,
    /// Entries per level, index 0 = leaves.
    pub entries_per_level: Vec<u64>,
    /// Nodes below the configured minimum fill (informational).
    pub underfull_nodes: u64,
}

impl TreeInventory {
    /// Average fill of leaf nodes (entries per node).
    pub fn avg_leaf_fill(&self) -> f64 {
        if self.nodes_per_level.is_empty() || self.nodes_per_level[0] == 0 {
            return 0.0;
        }
        self.entries_per_level[0] as f64 / self.nodes_per_level[0] as f64
    }
}

/// A child's key as its parent's fold must see it, the key as the child's
/// entry on a page stores it. For a key type whose cover is an exact join
/// that is `k` itself: the fold of the keys encodes as the fold of their
/// encodings ([`Step::child_key_after`]). Otherwise it is what one trip
/// through the page encoding makes of `k`, which is wider, and a parent
/// folded from `k` would not contain the child it names. `buf` is
/// scratch space.
pub(crate) fn as_stored<K: Key>(k: &K, buf: &mut Vec<u8>) -> K {
    if K::COVER_IS_EXACT_JOIN {
        *k
    } else {
        round_trip(k, buf)
    }
}

/// `k` after one trip through the page encoding, encoded into `buf`.
fn round_trip<K: Key>(k: &K, buf: &mut Vec<u8>) -> K {
    buf.clear();
    k.encode(buf);
    K::decode(buf)
}

/// `rec`'s [`Record::start_bound`] as the side array holds it: rounded
/// up, and `+∞` for NaN, which bounds nothing.
pub(crate) fn start_bound_f32<R: Record>(rec: &R) -> f32 {
    let s = rec.start_bound();
    if s.is_nan() {
        f32::INFINITY
    } else {
        f32_up(s)
    }
}

/// Guttman's ChooseLeaf criterion: least enlargement, ties by smaller
/// volume, then by position. Consumes keys lazily so callers can feed a
/// [`NodeRef`] iterator without materializing.
pub(crate) fn choose_subtree<K: Key>(keys: impl Iterator<Item = K>, key: &K) -> usize {
    let mut seen = 0usize;
    let mut best = 0;
    let mut best_enl = f64::INFINITY;
    let mut best_vol = f64::INFINITY;
    for (i, k) in keys.enumerate() {
        seen += 1;
        // `enlargement` is `cover().volume() - volume()` for every key:
        // computed from the one volume the tie-break needs anyway.
        let vol = k.volume();
        let enl = k.cover_volume(key) - vol;
        if enl < best_enl || (enl == best_enl && vol < best_vol) {
            best = i;
            best_enl = enl;
            best_vol = vol;
        }
    }
    debug_assert!(seen > 0);
    best
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::bulk::bulk_load;
    use crate::records::NsiSegmentRecord;
    use std::time::Duration;
    use stkit::Interval;
    use storage::Pager;

    type R = NsiSegmentRecord<2>;

    fn rec(i: u32) -> R {
        let (x, y) = (f64::from(i % 20), f64::from(i / 20));
        R::new(i, 0, Interval::new(0.0, 10.0), [x, y], [x + 0.5, y + 0.5])
    }

    /// A packed height-3 tree on 256 B pages whose root's every entry
    /// names the root itself: a header that parses, children that cycle.
    pub(crate) fn cyclic_tree() -> RTree<R, Pager> {
        let tree = bulk_load(
            Pager::with_page_size(256),
            RTreeConfig::default(),
            (0..40).map(rec).collect(),
        );
        assert_eq!(tree.height(), 3);
        let root = tree.root_page();
        repoint_root(&tree, |_, _| root);
        tree
    }

    /// Rewrite `tree`'s root in place, keys untouched, the child id `c`
    /// of its entry `j` replaced by `child(j, c)`.
    pub(crate) fn repoint_root(tree: &RTree<R, Pager>, child: impl Fn(usize, PageId) -> PageId) {
        let (root, top) = (tree.root_page(), tree.height() - 1);
        let node = tree.try_read_node(root, top).unwrap();
        let mut buf = Vec::new();
        let mut edit = NodeEdit::<_, R>::fresh(&mut buf, top, tree.store().page_size());
        for (j, (k, c)) in node.internal_entries().enumerate() {
            edit.push_entry(&k, child(j, c));
        }
        drop(node);
        tree.store().write(root, edit.bytes());
    }

    /// `f(tree)` on a thread of its own, failing the test if it has not
    /// returned within 5 s: a descent that cycles fails its test instead
    /// of hanging the suite.
    pub(crate) fn within_5s<T: Send + 'static>(
        mut tree: RTree<R, Pager>,
        f: impl FnOnce(&mut RTree<R, Pager>) -> T + Send + 'static,
    ) -> T {
        let (done, finished) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = done.send(f(&mut tree));
        });
        let out = finished
            .recv_timeout(Duration::from_secs(5))
            .expect("no answer within 5 s: the descent cycles");
        worker.join().expect("the worker sent its answer");
        out
    }

    #[test]
    fn latest_start_is_exact_when_packed_and_an_upper_bound_after_inserts() {
        // Record `i` starts at i/4: the later the id, the later the start.
        let timed = |i: u32| {
            let (x, y) = (f64::from(i % 20), f64::from(i / 20 % 20));
            let t = Interval::new(f64::from(i) * 0.25, 100.0);
            R::new(i, 0, t, [x, y], [x + 0.5, y + 0.5])
        };
        let empty: RTree<R, Pager> = RTree::new(Pager::new(), RTreeConfig::default());
        assert_eq!(empty.latest_start(empty.root_page()), f64::NEG_INFINITY);
        assert_eq!(empty.latest_start(PageId(7)), f64::INFINITY, "not a page of the tree");

        let recs = (0..200).map(timed).collect();
        let mut tree = bulk_load(Pager::with_page_size(256), RTreeConfig::default(), recs);
        assert!(tree.height() >= 3);
        let mut stack = vec![(tree.root_page(), tree.height() - 1)];
        while let Some((page, level)) = stack.pop() {
            let node = tree.try_read_node(page, level).unwrap();
            let exact = if node.is_leaf() {
                node.leaf_records().map(|r| r.seg.t.lo).fold(f64::NEG_INFINITY, f64::max)
            } else {
                let children: Vec<_> = node.internal_entries().map(|(_, c)| c).collect();
                stack.extend(children.iter().map(|&c| (c, level - 1)));
                children.iter().map(|&c| tree.latest_start(c)).fold(f64::NEG_INFINITY, f64::max)
            };
            assert_eq!(tree.latest_start(page), exact, "packed node {page}");
        }
        assert_eq!(tree.latest_start(tree.root_page()), 199.0 * 0.25);

        // Inserts split leaves, internal nodes and the root: every bound
        // stays above every start under its page (`validate` checks it).
        for i in 200..600 {
            tree.insert(timed(i), 0.0);
        }
        tree.validate().unwrap();
        assert_eq!(tree.latest_start(tree.root_page()), 599.0 * 0.25);
    }

    #[test]
    fn an_insert_descending_into_a_cycle_is_corrupt_before_any_write() {
        let tree = cyclic_tree();
        let root = tree.root_page();
        let before = tree.store().io();
        let (res, io, len) = within_5s(tree, |t| (t.try_insert(rec(40)), t.store().io(), t.len()));
        assert_eq!(res, Err(StorageError::Corrupt { page: root }));
        let io = io - before;
        assert_eq!((io.reads, io.writes, len), (2, 0, 40), "{io:?}");
    }

    #[test]
    fn validate_names_a_cycle_and_a_page_that_does_not_parse() {
        let tree = cyclic_tree();
        let root = tree.root_page();
        let res = within_5s(tree, |t| t.validate());
        assert_eq!(res, Err(StorageError::Corrupt { page: root }.to_string()));

        // A child's magic flipped: its header does not parse.
        let recs = (0..40).map(rec).collect();
        let tree = bulk_load(Pager::with_page_size(256), RTreeConfig::default(), recs);
        let child = tree.try_read_node(tree.root_page(), 2).unwrap().internal_entry(1).1;
        let mut bytes = tree.store().read_page(child).to_vec();
        bytes[0] ^= 0xFF;
        tree.store().write(child, &bytes);
        let res = within_5s(tree, |t| t.validate());
        assert_eq!(res, Err(StorageError::Corrupt { page: child }.to_string()));
    }
}
