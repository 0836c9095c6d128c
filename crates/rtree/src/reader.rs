//! Latch-free optimistic tree readers.
//!
//! [`TreeReader`] is a standalone read handle onto a tree: it shares the
//! tree's page store, [`TreeEpoch`](crate::epoch::TreeEpoch), and level
//! counters but holds no reference to the [`RTree`](crate::RTree) value
//! itself, so query sessions can descend while a writer (holding `&mut`
//! behind its own lock) mutates. Reads validate the epoch sequence after
//! every node visit and retry on conflict — the seqlock discipline
//! described in `epoch.rs`.
//!
//! Two consistency grades are offered through the [`TreeRead`] trait:
//!
//! * **Per-visit** ([`TreeReader::try_read_node`]): each delivered node
//!   is a self-consistent page read that no write section overlapped.
//!   This is what PDQ uses — its unit of work is one node expansion, and
//!   cross-visit staleness is already handled by the §4.1 notification
//!   protocol.
//! * **Snapshot** ([`TreeReadRetry::with_consistent`]): the whole closure
//!   runs against one tree version; any node read that observes a version
//!   change aborts the closure with [`StorageError::Conflict`] and the
//!   closure is retried from scratch against a fresh pin. NPDQ and kNN
//!   descents (one-shot whole-tree traversals) use this grade.
//!
//! [`RTree`] itself implements both traits trivially: holding `&RTree`
//! statically excludes writers, so no validation is needed and the
//! serial/locked paths execute byte-for-byte the same engine code.

use crate::epoch::TreeEpoch;
use crate::levels::LevelCounters;
use crate::node::NodeRef;
use crate::traits::Record;
use crate::tree::RTree;
use std::sync::Arc;
use storage::{PageId, PageStore, StorageError};

/// How many times one node visit re-reads after a version conflict
/// before surfacing [`StorageError::Conflict`] to the engine.
const VISIT_RETRIES: u32 = 8;

/// How many times a pinned snapshot closure is restarted on conflict
/// before the error propagates to the caller.
const SNAPSHOT_RETRIES: u32 = 32;

/// Read-only access to a tree, implemented by [`RTree`] (exclusive,
/// validation-free), [`TreeReader`] (optimistic per-visit validation) and
/// [`SnapshotReader`] (optimistic pinned-version validation). Engines
/// generic over this trait run identically on all three.
pub trait TreeRead<R: Record> {
    /// The root page of the tree version this view exposes.
    fn root_page(&self) -> PageId;

    /// Height of the tree version this view exposes (1 = leaf root).
    fn height(&self) -> u32;

    /// Number of records in the tree version this view exposes.
    fn len(&self) -> u64;

    /// True iff that version holds no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read one node; on the optimistic implementations a delivered node
    /// is guaranteed not to have been overlapped by a write section.
    fn try_read_node(&self, page: PageId) -> Result<NodeRef<R::Key, R>, StorageError>;

    /// Infallible wrapper over [`Self::try_read_node`] for callers with
    /// no recovery story (panics surface at the top of the stack where
    /// the serving layer's `catch_unwind` contains them).
    fn read_node(&self, page: PageId) -> NodeRef<R::Key, R> {
        self.try_read_node(page)
            .unwrap_or_else(|e| panic!("unrecoverable storage error: {e}"))
    }
}

/// The snapshot grade of [`TreeRead`]: run a closure against one
/// self-consistent tree version, retrying wholesale on conflicts.
pub trait TreeReadRetry<R: Record>: TreeRead<R> {
    /// Run `f` against a view on which *every* delivered read belongs to
    /// the same tree version. On [`RTree`] this is a plain call (shared
    /// access already excludes writers); on [`TreeReader`] the closure is
    /// re-run against a fresh pin whenever a read conflicts, up to an
    /// internal retry budget, after which the conflict propagates.
    fn with_consistent<T>(
        &self,
        f: impl FnMut(&dyn TreeRead<R>) -> Result<T, StorageError>,
    ) -> Result<T, StorageError>;
}

impl<R: Record, S: PageStore> TreeRead<R> for RTree<R, S> {
    fn root_page(&self) -> PageId {
        RTree::root_page(self)
    }
    fn height(&self) -> u32 {
        RTree::height(self)
    }
    fn len(&self) -> u64 {
        RTree::len(self)
    }
    fn try_read_node(&self, page: PageId) -> Result<NodeRef<R::Key, R>, StorageError> {
        RTree::try_read_node(self, page)
    }
    fn read_node(&self, page: PageId) -> NodeRef<R::Key, R> {
        RTree::read_node(self, page)
    }
}

impl<R: Record, S: PageStore> TreeReadRetry<R> for RTree<R, S> {
    fn with_consistent<T>(
        &self,
        mut f: impl FnMut(&dyn TreeRead<R>) -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        f(self)
    }
}

/// A lock-free read handle sharing a tree's store, epoch, and level
/// counters. Create with [`RTree::reader`]; clone freely — one per
/// session thread is the serving layer's pattern.
pub struct TreeReader<R: Record, S: PageStore> {
    store: S,
    epoch: Arc<TreeEpoch>,
    levels: Arc<LevelCounters>,
    _records: std::marker::PhantomData<fn() -> R>,
}

impl<R: Record, S: PageStore + Clone> Clone for TreeReader<R, S> {
    fn clone(&self) -> Self {
        TreeReader {
            store: self.store.clone(),
            epoch: Arc::clone(&self.epoch),
            levels: Arc::clone(&self.levels),
            _records: std::marker::PhantomData,
        }
    }
}

impl<R: Record, S: PageStore> TreeReader<R, S> {
    pub(crate) fn new(store: S, epoch: Arc<TreeEpoch>, levels: Arc<LevelCounters>) -> Self {
        TreeReader {
            store,
            epoch,
            levels,
            _records: std::marker::PhantomData,
        }
    }

    /// The shared epoch (version counter + retry/conflict stats).
    pub fn epoch(&self) -> &TreeEpoch {
        &self.epoch
    }

    /// Perform one raw page-to-node read, recording it in the shared
    /// level counters and trace ring. The caller decides validity.
    fn read_raw(&self, page: PageId) -> Result<NodeRef<R::Key, R>, StorageError> {
        // Fail-stop on a page that is not a node: a session reading an
        // un-checksummed store that hands back garbage is failed whole by
        // the serving layer's `catch_unwind` (`tests/chaos.rs::chaos_c`
        // pins that), not degraded page by page. The writer's descent
        // takes the typed path, `RTree::try_read_node`.
        let node = NodeRef::parse(self.store.try_read_page(page)?);
        self.levels.record_read(node.level());
        obs::trace(obs::TraceEvent::NodeVisit {
            page: page.0 as u64,
            level: node.level(),
        });
        Ok(node)
    }

    /// Pin the current (even) tree version, returning a snapshot view.
    /// Fails with [`StorageError::Conflict`] only if the writer never
    /// leaves its write section within the spin budget.
    pub fn pin(&self) -> Result<SnapshotReader<'_, R, S>, StorageError> {
        let Some(seq) = self.epoch.stable_seq() else {
            self.epoch.note_conflict();
            return Err(StorageError::Conflict {
                page: self.epoch.root(),
            });
        };
        // Root/height/len publish before the sequence goes even, so under
        // an unchanged even sequence this triple is the pinned version's.
        let root = self.epoch.root();
        let height = self.epoch.height();
        let len = self.epoch.len();
        if self.epoch.seq() != seq {
            self.epoch.note_conflict();
            return Err(StorageError::Conflict { page: root });
        }
        Ok(SnapshotReader {
            reader: self,
            seq,
            root,
            height,
            len,
        })
    }
}

impl<R: Record, S: PageStore> TreeRead<R> for TreeReader<R, S> {
    fn root_page(&self) -> PageId {
        self.epoch.root()
    }

    fn height(&self) -> u32 {
        self.epoch.height()
    }

    fn len(&self) -> u64 {
        self.epoch.len()
    }

    fn try_read_node(&self, page: PageId) -> Result<NodeRef<R::Key, R>, StorageError> {
        let mut attempts = 0;
        loop {
            let Some(s0) = self.epoch.stable_seq() else {
                self.epoch.note_conflict();
                return Err(StorageError::Conflict { page });
            };
            let node = self.read_raw(page)?;
            if self.epoch.seq() == s0 {
                return Ok(node);
            }
            // The visit overlapped a write section: the read was
            // performed (and counted) but must not be delivered.
            self.epoch.note_retry();
            attempts += 1;
            if attempts >= VISIT_RETRIES {
                self.epoch.note_conflict();
                return Err(StorageError::Conflict { page });
            }
        }
    }
}

impl<R: Record, S: PageStore> TreeReadRetry<R> for TreeReader<R, S> {
    fn with_consistent<T>(
        &self,
        mut f: impl FnMut(&dyn TreeRead<R>) -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        let mut attempts = 0;
        loop {
            let snap = self.pin()?;
            match f(&snap) {
                Err(StorageError::Conflict { .. }) if attempts + 1 < SNAPSHOT_RETRIES => {
                    attempts += 1;
                }
                r => return r,
            }
        }
    }
}

/// A view pinned to one tree version: every delivered read is validated
/// against the pinned sequence, so a closure that completes over this
/// view observed a single, fully consistent tree.
pub struct SnapshotReader<'a, R: Record, S: PageStore> {
    reader: &'a TreeReader<R, S>,
    seq: u64,
    root: PageId,
    height: u32,
    len: u64,
}

impl<R: Record, S: PageStore> TreeRead<R> for SnapshotReader<'_, R, S> {
    fn root_page(&self) -> PageId {
        self.root
    }

    fn height(&self) -> u32 {
        self.height
    }

    fn len(&self) -> u64 {
        self.len
    }

    fn try_read_node(&self, page: PageId) -> Result<NodeRef<R::Key, R>, StorageError> {
        let epoch = self.reader.epoch();
        // Cheap pre-check: once the version moved there is no point
        // paying for the page read — nothing it returns may be used.
        if epoch.seq() != self.seq {
            epoch.note_conflict();
            return Err(StorageError::Conflict { page });
        }
        let node = self.reader.read_raw(page)?;
        if epoch.seq() == self.seq {
            Ok(node)
        } else {
            epoch.note_retry();
            epoch.note_conflict();
            Err(StorageError::Conflict { page })
        }
    }
}
