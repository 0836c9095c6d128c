//! The rebuild write path, kept as the reference the page-editing one is
//! held to: every node on the insert path is decoded into an owned
//! [`Node`] of this file's own, changed, re-folded and re-encoded whole.
//! Nothing of the tree's write path is shared: a page is read through
//! [`NodeRef`]'s iterators and written entry by entry into a
//! [`NodeEdit::fresh`] image. [`run`] drives a
//! random build sequence — a bulk-loaded prefix, then inserts, the only
//! write the tree has — and, before every insert, mirrors the tree's
//! store, applies the insert both ways and requires the same report, the
//! same page count, the same pages byte for byte and the same node I/O.
//!
//! Shared by `prop_patch.rs` here and `crates/tprtree/tests/prop_patch.rs`
//! (through `#[path]`), so the TPR leg runs the same driver.

use proptest::prelude::*;
use rtree::bulk::bulk_load;
use rtree::node::{NodeEdit, NODE_HEADER_LEN};
use rtree::split::split;
use rtree::{InsertReport, Inserted, Key, NodeRef, RTree, RTreeConfig, Record, SplitPolicy};
use storage::{load_pager, save_pager, PageId, PageStore, Pager};

/// One entry of a node decoded whole: a child above the leaves, a
/// record at them.
#[derive(Clone, Copy, Debug)]
enum Entry<K, R> {
    Child(K, PageId),
    Record(R),
}

impl<K: Key, R: Record<Key = K>> Entry<K, R> {
    fn key(&self) -> K {
        match self {
            Entry::Child(k, _) => *k,
            Entry::Record(r) => r.key(),
        }
    }
}

/// A node decoded whole.
struct Node<K, R> {
    level: u32,
    stamp: u64,
    entries: Vec<Entry<K, R>>,
}

impl<K: Key, R: Record<Key = K>> Node<K, R> {
    /// The fold of the entries' keys, a child's key as its entry on the
    /// page stores it: rounded outward by the encoding, unless the key
    /// type's cover is an exact join (then the fold of the keys encodes
    /// as the fold of their encodings, and the keys themselves fold).
    fn bounding_key(&self) -> K {
        let stored = |e: &Entry<K, R>| match e {
            Entry::Child(k, _) if !K::COVER_IS_EXACT_JOIN => {
                let mut buf = Vec::new();
                k.encode(&mut buf);
                K::decode(&buf)
            }
            _ => e.key(),
        };
        self.entries
            .iter()
            .fold(K::empty(), |acc, e| acc.cover(&stored(e)))
    }
}

/// One motion, before it becomes a record of some type.
#[derive(Clone, Debug)]
pub struct Raw {
    pub t0: f64,
    pub dur: f64,
    pub a: [f64; 2],
    pub b: [f64; 2],
}

#[derive(Clone, Debug)]
pub struct Scenario {
    pub page_size: usize,
    pub policy: SplitPolicy,
    /// Bulk-loaded before the first insert.
    pub bulk: Vec<Raw>,
    pub inserts: Vec<Raw>,
}

fn raw() -> impl Strategy<Value = Raw> {
    (
        0.0f64..100.0,
        0.05f64..5.0,
        (-100.0f64..100.0, -100.0f64..100.0),
        (-100.0f64..100.0, -100.0f64..100.0),
    )
        .prop_map(|(t0, dur, a, b)| Raw {
            t0,
            dur,
            a: [a.0, a.1],
            b: [b.0, b.1],
        })
}

/// Bulk prefix, then inserts. 256-byte pages (fanout 7–8) split on most
/// inserts and reach height 3; 4 KiB pages stay on the no-split path the
/// serving core lives on.
pub fn scenario() -> impl Strategy<Value = Scenario> {
    (
        prop_oneof![Just(256usize), Just(4096usize)],
        prop_oneof![
            Just(SplitPolicy::Linear),
            Just(SplitPolicy::Quadratic),
            Just(SplitPolicy::RStar)
        ],
        proptest::collection::vec(raw(), 0..200),
        proptest::collection::vec(raw(), 1..120),
    )
        .prop_map(|(page_size, policy, bulk, inserts)| Scenario {
            page_size,
            policy,
            bulk,
            inserts,
        })
}

/// The tree's metadata plus a private copy of its store, so both write
/// paths start from the same bytes and draw the same page ids.
struct Mirror {
    store: Pager,
    root: PageId,
    height: u32,
    /// The tree's record count: an insert stamps what it writes one past.
    len: u64,
    config: RTreeConfig,
    reads: u64,
    writes: u64,
}

impl Mirror {
    fn of<R: Record>(tree: &RTree<R, Pager>) -> Mirror {
        let mut image = Vec::new();
        save_pager(tree.store(), &mut image).expect("snapshot to memory");
        let (root, height, len) = tree.metadata();
        Mirror {
            store: load_pager(image.as_slice()).expect("reload the snapshot"),
            root,
            height,
            len,
            config: *tree.config(),
            reads: 0,
            writes: 0,
        }
    }

    fn load<R: Record>(&mut self, page: PageId) -> Node<R::Key, R> {
        self.reads += 1;
        let node =
            NodeRef::<R::Key, R>::try_parse(self.store.read_page(page), page).expect("a node page");
        let entries = if node.is_leaf() {
            node.leaf_records().map(Entry::Record).collect()
        } else {
            node.internal_entries()
                .map(|(k, child)| Entry::Child(k, child))
                .collect()
        };
        Node {
            level: node.level(),
            stamp: node.stamp(),
            entries,
        }
    }

    fn write<R: Record>(&mut self, page: PageId, node: &Node<R::Key, R>) {
        self.writes += 1;
        let mut buf = Vec::new();
        let mut edit = NodeEdit::<R::Key, R>::fresh(&mut buf, node.level, self.store.page_size());
        edit.set_stamp(node.stamp);
        for e in &node.entries {
            match e {
                Entry::Child(k, child) => edit.push_entry(k, *child),
                Entry::Record(r) => edit.push_record(r),
            }
        }
        self.store.write(page, &buf);
    }

    /// Entries that fit a page after the node header.
    fn capacity<R: Record>(&self, node: &Node<R::Key, R>) -> usize {
        let stride = if node.level == 0 {
            R::ENCODED_LEN
        } else {
            R::Key::ENCODED_LEN + 4
        };
        (self.store.page_size() - NODE_HEADER_LEN) / stride
    }

    fn split_node<R: Record>(&self, node: &Node<R::Key, R>) -> (Node<R::Key, R>, Node<R::Key, R>) {
        let capacity = self.capacity(node);
        let min_fill = ((capacity as f64 * RTreeConfig::MIN_FILL).floor() as usize)
            .clamp(1, capacity.div_ceil(2));
        let keys: Vec<R::Key> = node.entries.iter().map(Entry::key).collect();
        let part = split(self.config.split_policy, &keys, min_fill);
        // The group holding the entry that caused the overflow (always
        // the last) becomes the new node (§4.1).
        let (a, b) = if part.a.contains(&(keys.len() - 1)) {
            (&part.b, &part.a)
        } else {
            (&part.a, &part.b)
        };
        let pick = |idx: &[usize]| Node {
            level: node.level,
            stamp: node.stamp,
            entries: idx.iter().map(|&i| node.entries[i]).collect(),
        };
        (pick(a), pick(b))
    }

    /// Guttman insertion over owned nodes: decode, change, fold,
    /// re-encode at every level.
    fn insert<R: Record>(&mut self, rec: R) -> InsertReport<R::Key, R> {
        let stamp = self.len + 1;
        let key = {
            let mut buf = Vec::new();
            rec.key().encode(&mut buf);
            R::Key::decode(&buf)
        };
        let mut path: Vec<(PageId, Node<R::Key, R>, usize)> = Vec::new();
        let mut cur = self.root;
        let (leaf_page, mut leaf) = loop {
            let node = self.load::<R>(cur);
            if node.level == 0 {
                break (cur, node);
            }
            let chosen = choose_subtree(&node.entries, &key);
            let Entry::Child(_, next) = node.entries[chosen] else {
                unreachable!()
            };
            path.push((cur, node, chosen));
            cur = next;
        };
        leaf.stamp = stamp;
        leaf.entries.push(Entry::Record(rec));
        let mut notify = None;
        let mut pending = None;
        let mut child_key;
        if leaf.entries.len() <= self.capacity(&leaf) {
            child_key = leaf.bounding_key();
            self.write(leaf_page, &leaf);
            notify = Some(Inserted::Record(rec));
        } else {
            let (old_node, new_node) = self.split_node(&leaf);
            child_key = old_node.bounding_key();
            let new_page = self.store.alloc();
            self.write(leaf_page, &old_node);
            self.write(new_page, &new_node);
            pending = Some((new_node.bounding_key(), new_page));
        }

        while let Some((page, mut node, chosen)) = path.pop() {
            node.stamp = stamp;
            let Entry::Child(key, _) = &mut node.entries[chosen] else {
                unreachable!()
            };
            *key = child_key;
            let arrived = pending.take();
            node.entries
                .extend(arrived.map(|(k, child)| Entry::Child(k, child)));
            if node.entries.len() > self.capacity(&node) {
                let (old_node, new_node) = self.split_node(&node);
                child_key = old_node.bounding_key();
                let new_page = self.store.alloc();
                self.write(page, &old_node);
                self.write(new_page, &new_node);
                pending = Some((new_node.bounding_key(), new_page));
            } else {
                child_key = node.bounding_key();
                self.write(page, &node);
                // The node with room ends the split chain; what it took
                // in is the top-most node the chain created.
                if let Some((key, created)) = arrived {
                    notify = Some(Inserted::Subtree {
                        page: created,
                        key,
                        level: node.level - 1,
                    });
                }
            }
        }

        if let Some(entry) = pending {
            let new_root = self.store.alloc();
            let root_node = Node::<R::Key, R> {
                level: self.height,
                stamp,
                entries: vec![
                    Entry::Child(child_key, self.root),
                    Entry::Child(entry.0, entry.1),
                ],
            };
            self.write(new_root, &root_node);
            self.root = new_root;
            self.height += 1;
            // A root split: the old root's new sibling.
            notify = Some(Inserted::Subtree {
                page: entry.1,
                key: entry.0,
                level: root_node.level - 1,
            });
        }
        InsertReport {
            notify: notify.expect("notify always set"),
        }
    }
}

/// Least enlargement, ties by smaller volume, then by position.
fn choose_subtree<K: Key, R: Record<Key = K>>(entries: &[Entry<K, R>], key: &K) -> usize {
    let mut best = (0, f64::INFINITY, f64::INFINITY);
    for (i, e) in entries.iter().enumerate() {
        let k = e.key();
        let (enl, vol) = (k.enlargement(key), k.volume());
        if enl < best.1 || (enl == best.1 && vol < best.2) {
            best = (i, enl, vol);
        }
    }
    best.0
}

/// Insert `rec` into `tree` and into a mirror of it by the rebuild path;
/// the first difference is the error.
fn insert_both_ways<R: Record>(tree: &mut RTree<R, Pager>, rec: R) -> Result<(), String> {
    let mut mirror = Mirror::of(tree);
    let before = tree.level_counters().snapshot();
    let height = u64::from(tree.height());

    let report = tree.try_insert(rec).map_err(|e| e.to_string())?;
    let expected = mirror.insert(rec);

    if report != expected {
        return Err(format!(
            "reports differ: {report:?} vs rebuilt {expected:?}"
        ));
    }
    let (root, tree_height, _) = tree.metadata();
    if (root, tree_height) != (mirror.root, mirror.height) {
        return Err(format!(
            "root/height {root}/{tree_height} vs rebuilt {}/{}",
            mirror.root, mirror.height
        ));
    }
    let delta = tree.level_counters().snapshot() - before;
    if (delta.total_reads(), delta.total_writes()) != (mirror.reads, mirror.writes) {
        return Err(format!(
            "node I/O {}r/{}w vs rebuilt {}r/{}w",
            delta.total_reads(),
            delta.total_writes(),
            mirror.reads,
            mirror.writes
        ));
    }
    if matches!(report.notify, Inserted::Record(_))
        && (delta.total_reads(), delta.total_writes()) != (height, height)
    {
        return Err(format!(
            "a no-split insert read {} and wrote {} nodes in a tree of height {height}",
            delta.total_reads(),
            delta.total_writes()
        ));
    }
    let store = tree.store();
    if store.page_count() != mirror.store.page_count() {
        return Err("page counts differ".into());
    }
    for page in (0..store.page_count()).map(PageId) {
        // Whole pages, stale tails included: a write of the wrong length
        // shows even where the used prefix agrees.
        if store.read_page(page)[..] != mirror.store.read_page(page)[..] {
            return Err(format!("page {page} differs from the rebuilt page"));
        }
    }
    Ok(())
}

/// Run `sc` over records built by `make(oid, raw)`: every insert goes
/// both ways, and (`validates`) every insert leaves a tree that validates.
pub fn run<R: Record>(
    sc: &Scenario,
    make: impl Fn(u32, &Raw) -> R,
    validates: bool,
) -> Result<(), String> {
    let config = RTreeConfig {
        split_policy: sc.policy,
        ..RTreeConfig::default()
    };
    let bulk = sc
        .bulk
        .iter()
        .enumerate()
        .map(|(i, r)| make(i as u32, r))
        .collect::<Vec<R>>();
    let first_oid = bulk.len();
    let mut tree = bulk_load(Pager::with_page_size(sc.page_size), config, bulk);
    for (step, r) in sc.inserts.iter().enumerate() {
        let rec = make((first_oid + step) as u32, r);
        insert_both_ways(&mut tree, rec).map_err(|e| format!("insert {step}: {e}"))?;
        if validates {
            tree.validate().map_err(|e| format!("insert {step}: {e}"))?;
        }
    }
    Ok(())
}
