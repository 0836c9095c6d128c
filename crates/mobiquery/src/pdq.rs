//! Predictive Dynamic Queries (§4.1) — the one engine, over every index
//! family that implements [`PdqRecord`]: NSI motion segments by default,
//! the TPR-tree's moving points in `tprtree`.
//!
//! The trajectory is known ahead of time, so the engine traverses the
//! R-tree *once* for the whole dynamic query: a priority queue holds
//! index items (nodes and objects) keyed by the **start of their
//! overlap-time interval** with the moving query window.
//! [`PdqEngine::get_next`] is the paper's `getNext(t_start, t_end)`:
//! it pops items in overlap order, expanding nodes lazily (each node
//! loaded at most once — this is the I/O optimality argument) and
//! returning each object exactly when it enters the view, together with
//! its full visibility time set so the client cache knows when to evict
//! it.
//!
//! Concurrent insertions are handled per the paper's update-management
//! protocol: [`PdqEngine::notify`] receives the [`rtree::InsertReport`]
//! (the record itself, or the top-most node a cascading split created —
//! the common ancestor of every new node) and enqueues it if it
//! intersects the trajectory. That node is one the query has never read,
//! so nothing is read twice; what a split *moved* into it the query may
//! already hold, and the two sets below — nodes expanded, objects
//! returned — drop such a duplicate when it pops.
//!
//! **Cost model.** A node is read once; expanding it costs, per entry
//! (§5's distance computations), the two ends of its overlap set, by
//! early exit: the queue needs only when an entry enters the view (its
//! priority) and when it last leaves (to drop it once past), so the
//! trajectory pieces *meeting the entry* — the pieces whose span and
//! swept box reach its lifetime and extent (see [`crate::trajectory`]) —
//! are solved from the front and from the back until each side finds a
//! non-empty one, and the pieces in between never are. The full set, an
//! object's visibility, is solved only on return, and only for a caller
//! of [`PdqEngine::try_get_next`]; [`PdqEngine::try_next_entry`] returns
//! the record and the time it enters the view instead. Entries that can
//! no longer be enqueued (lifetime over before `t_start`, or outside the
//! trajectory's span) are counted but not solved.

use crate::layout::PdqRecord;
use crate::stats::QueryStats;
use crate::trajectory::Trajectory;
use rtree::{Inserted, NsiSegmentRecord, RTree};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use storage::{PageId, PageStore, StorageError};
use stkit::{Interval, TimeSet};

/// One answer of a dynamic query: the record plus the set of times during
/// which it is visible ("the database will inform the application about
/// how long that object will stay in the view").
#[derive(Clone, Debug, PartialEq)]
pub struct PdqResult<const D: usize, R = NsiSegmentRecord<D>> {
    /// The indexed record (a motion segment unless `R` says otherwise).
    pub record: R,
    /// Exact times the object is inside the moving window.
    pub visibility: TimeSet,
}

#[derive(Clone, Debug)]
enum ItemKind<R> {
    Node { page: PageId, level: u32 },
    /// An answer waiting in the queue, its identity beside it so the
    /// queue orders and filters it with no `PdqRecord` bound.
    Object { id: (u32, u32), record: R },
}

#[derive(Clone, Debug)]
struct QueueItem<R> {
    /// Start of the overlap-time hull — when the entry enters the view,
    /// the queue priority.
    start: f64,
    /// End of the overlap-time hull.
    end: f64,
    kind: ItemKind<R>,
}

impl<R> QueueItem<R> {
    /// Deterministic tie-break key for items sharing a `start`: objects
    /// pop before nodes (an answer due now beats speculative expansion),
    /// then ascending identity. Without this, `BinaryHeap`'s arbitrary
    /// tie order makes result order depend on insertion history.
    fn tie_key(&self) -> (u8, u64) {
        match &self.kind {
            ItemKind::Object { id: (oid, seq), .. } => (0, (u64::from(*oid) << 32) | u64::from(*seq)),
            ItemKind::Node { page, .. } => (1, page.0 as u64),
        }
    }
}

impl<R> PartialEq for QueueItem<R> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<R> Eq for QueueItem<R> {}
impl<R> PartialOrd for QueueItem<R> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<R> Ord for QueueItem<R> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-start-first,
        // with a total tie-break so pop order is deterministic.
        other
            .start
            .total_cmp(&self.start)
            .then_with(|| other.tie_key().cmp(&self.tie_key()))
    }
}

/// The PDQ query processor for one dynamic query.
///
/// The engine holds only queue state; every method borrows the tree, so
/// callers remain free to insert into the tree between calls (forwarding
/// each [`rtree::InsertReport`] through [`PdqEngine::notify`]). `R` is
/// the record type of the index family queried, inferred from the tree
/// [`PdqEngine::start`] is given.
///
/// ```
/// use mobiquery::{PdqEngine, Trajectory};
/// use rtree::{NsiSegmentRecord, RTree, RTreeConfig};
/// use storage::Pager;
/// use stkit::{Interval, Rect};
///
/// // One stationary object at (5.5, 0.5).
/// let mut tree = RTree::new(Pager::new(), RTreeConfig::default());
/// tree.insert(
///     NsiSegmentRecord::new(7, 0, Interval::new(0.0, 100.0), [5.5, 0.5], [5.5, 0.5]),
///     0.0,
/// );
/// // A 1×1 window sliding right at speed 1 over t ∈ [0, 10].
/// let traj = Trajectory::linear(
///     Rect::from_corners([0.0, 0.0], [1.0, 1.0]),
///     [1.0, 0.0], Interval::new(0.0, 10.0), 2);
/// let mut pdq = PdqEngine::start(&tree, traj);
/// let hit = pdq.get_next(&tree, 0.0, 10.0).unwrap();
/// assert_eq!(hit.record.oid, 7);
/// // The window [t, t+1] covers x = 5.5 during t ∈ [4.5, 5.5].
/// assert_eq!(hit.visibility.hull(), Interval::new(4.5, 5.5));
/// assert!(pdq.get_next(&tree, 0.0, 10.0).is_none());
/// ```
#[derive(Debug)]
pub struct PdqEngine<const D: usize, R: PdqRecord<D> = NsiSegmentRecord<D>> {
    trajectory: Trajectory<D>,
    queue: BinaryHeap<QueueItem<R>>,
    /// §4.1 duplicate elimination: a node already expanded or an object
    /// already returned is dropped when it pops again, at whatever
    /// priority (the paper's consecutive-pop check needs a duplicate to
    /// share its original's priority; keys grow, so here it need not).
    expanded: HashSet<PageId>,
    returned: HashSet<(u32, u32)>,
    /// Latest `t_start` the application has asked for, so [`Self::notify`]
    /// can discard reports whose overlap lies entirely in the past instead
    /// of growing the queue without bound.
    last_t_start: f64,
    /// Deepest the queue has ever been — the engine's memory footprint
    /// proxy (the paper's queue-size concern in §4.1).
    queue_hwm: usize,
    stats: QueryStats,
}

impl<const D: usize, R: PdqRecord<D>> PdqEngine<D, R> {
    /// Start a dynamic query: seeds the queue with the root (if the root's
    /// box overlaps the trajectory at all).
    pub fn start<S: PageStore>(tree: &RTree<R, S>, trajectory: Trajectory<D>) -> Self {
        let mut engine = PdqEngine {
            trajectory,
            queue: BinaryHeap::new(),
            expanded: HashSet::new(),
            returned: HashSet::new(),
            last_t_start: f64::NEG_INFINITY,
            queue_hwm: 0,
            stats: QueryStats::default(),
        };
        // The root has no stored bounding box above it; enqueue it over
        // the whole trajectory span (it is examined precisely on first pop).
        let span = engine.trajectory.span();
        engine.push_item(QueueItem {
            start: span.lo,
            end: span.hi,
            kind: ItemKind::Node {
                page: tree.root_page(),
                level: tree.height() - 1,
            },
        });
        engine
    }

    /// All queue pushes funnel through here so the high-water mark stays
    /// exact.
    fn push_item(&mut self, item: QueueItem<R>) {
        self.queue.push(item);
        self.queue_hwm = self.queue_hwm.max(self.queue.len());
    }

    /// The trajectory this engine answers.
    pub fn trajectory(&self) -> &Trajectory<D> {
        &self.trajectory
    }

    /// Accumulated cost since the engine started.
    pub fn stats(&self) -> QueryStats {
        self.stats
    }

    /// Take and reset the accumulated cost (per-frame measurement).
    pub fn take_stats(&mut self) -> QueryStats {
        std::mem::take(&mut self.stats)
    }

    /// Items currently queued (diagnostic).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Deepest the queue has ever been since the engine started.
    pub fn queue_hwm(&self) -> usize {
        self.queue_hwm
    }

    /// The paper's `getNext(t_start, t_end)`: return the next object whose
    /// visibility overlaps `[t_start, t_end]`, or `None` if no such object
    /// exists yet (head of queue lies beyond `t_end`, or queue empty).
    ///
    /// Items whose overlap interval ended before `t_start` are discarded —
    /// the application never asked for them (it "skipped ahead").
    pub fn get_next<S: PageStore>(
        &mut self,
        tree: &RTree<R, S>,
        t_start: f64,
        t_end: f64,
    ) -> Option<PdqResult<D, R>> {
        self.try_get_next(tree, t_start, t_end)
            .unwrap_or_else(|e| panic!("unrecoverable storage error: {e}"))
    }

    /// Fallible form of [`Self::get_next`]: a device fault while
    /// expanding a node surfaces as `Err` carrying the failing page. The
    /// engine stays consistent — the un-expanded node is re-enqueued at
    /// its old priority, so the very next call retries the read. Results
    /// already returned are never repeated, and none are lost as long as
    /// the caller keeps the failed call's `t_start` until a call succeeds:
    /// a later one drops what ended before it, unexamined.
    ///
    /// This is [`Self::try_next_entry`] plus the one visibility solve of
    /// the record it returns.
    pub fn try_get_next<S: PageStore>(
        &mut self,
        tree: &RTree<R, S>,
        t_start: f64,
        t_end: f64,
    ) -> Result<Option<PdqResult<D, R>>, StorageError> {
        Ok(self.try_next_entry(tree, t_start, t_end)?.map(|(_, record)| {
            let visibility = record.overlap(&self.trajectory);
            PdqResult { record, visibility }
        }))
    }

    /// The pop loop behind every way of draining the query: the next
    /// object whose visibility overlaps `[t_start, t_end]`, as the time it
    /// enters the view — its queue priority, `visibility.start()` bit for
    /// bit — and the record, with no visibility set built. Faults, retries
    /// and skipping ahead behave as in [`Self::try_get_next`].
    pub fn try_next_entry<S: PageStore>(
        &mut self,
        tree: &RTree<R, S>,
        t_start: f64,
        t_end: f64,
    ) -> Result<Option<(f64, R)>, StorageError> {
        if t_start > self.last_t_start {
            self.last_t_start = t_start;
        }
        loop {
            let Some(head) = self.queue.peek() else {
                return Ok(None);
            };
            if head.start > t_end {
                // Head is in the future w.r.t. the requested window.
                return Ok(None);
            }
            let item = self.queue.pop().expect("peeked");

            if item.end < t_start {
                // Entirely in the past: dropped unexamined (line 7).
                continue;
            }
            match item.kind {
                ItemKind::Object { id, record } => {
                    if self.returned.insert(id) {
                        self.stats.results += 1;
                        return Ok(Some((item.start, record)));
                    }
                    self.stats.duplicates_skipped += 1;
                }
                ItemKind::Node { page, level } => {
                    if self.expanded.contains(&page) {
                        self.stats.duplicates_skipped += 1;
                    } else if let Err(e) = self.expand(tree, page, level, t_start) {
                        // Still unexpanded: back at its old priority.
                        self.push_item(QueueItem {
                            start: item.start,
                            end: item.end,
                            kind: ItemKind::Node { page, level },
                        });
                        return Err(e);
                    } else {
                        self.expanded.insert(page);
                    }
                }
            }
        }
    }

    /// Read a node (one disk access, zero-copy) and enqueue each child
    /// whose overlap-time hull is non-empty and not entirely before
    /// `t_start`. Entries are decoded lazily straight out of the page.
    fn expand<S: PageStore>(
        &mut self,
        tree: &RTree<R, S>,
        page: PageId,
        level: u32,
        t_start: f64,
    ) -> Result<(), StorageError> {
        let node = tree.try_read_node(page, level)?;
        self.stats.disk_accesses += 1;
        if level == 0 {
            self.stats.leaf_accesses += 1;
        }
        // An entry whose lifetime ended before `t_start`, or misses the
        // trajectory's span, has an overlap hull `enqueue` drops (the
        // hull lies inside both): it is counted, never solved.
        let span = self.trajectory.span();
        let out_of_play =
            |life: &Interval| life.hi < t_start || life.hi < span.lo || life.lo > span.hi;
        if node.is_leaf() {
            for rec in node.leaf_records() {
                self.stats.distance_computations += 1;
                if out_of_play(&rec.lifetime()) || self.returned.contains(&rec.identity()) {
                    continue;
                }
                let hull = rec.hull(&self.trajectory);
                self.enqueue(hull, t_start, || ItemKind::Object {
                    id: rec.identity(),
                    record: rec,
                });
            }
        } else {
            let child_level = level - 1;
            for (key, child) in node.internal_entries() {
                self.stats.distance_computations += 1;
                if out_of_play(&R::key_lifetime(&key)) {
                    continue;
                }
                let hull = R::key_hull(&key, &self.trajectory);
                self.enqueue(hull, t_start, || ItemKind::Node {
                    page: child,
                    level: child_level,
                });
            }
        }
        Ok(())
    }

    /// Enqueue what `make` builds at the overlap hull `hull`, unless the
    /// hull is empty or over.
    fn enqueue(&mut self, hull: Interval, t_start: f64, make: impl FnOnce() -> ItemKind<R>) {
        // Empty, or entirely before the earliest time the application
        // still cares about: never enqueued (algorithm line 12).
        if hull.is_empty() || hull.hi < t_start {
            return;
        }
        self.push_item(QueueItem {
            start: hull.lo,
            end: hull.hi,
            kind: make(),
        });
    }

    /// Drain every object whose visibility overlaps `[t_start, t_end]`.
    /// The typical per-frame call: all objects newly appearing by the
    /// frame's time.
    pub fn drain_window<S: PageStore>(
        &mut self,
        tree: &RTree<R, S>,
        t_start: f64,
        t_end: f64,
    ) -> Vec<PdqResult<D, R>> {
        let mut out = Vec::new();
        self.try_drain_window_into(tree, t_start, t_end, &mut out)
            .unwrap_or_else(|e| panic!("unrecoverable storage error: {e}"));
        out
    }

    /// Fallible form of [`Self::drain_window`], appending into a
    /// caller-owned buffer so a per-frame loop can reuse one
    /// allocation across frames: results due before the fault are
    /// appended to `out` and remain valid; the failing node stays queued
    /// for retry (see [`Self::try_get_next`]).
    pub fn try_drain_window_into<S: PageStore>(
        &mut self,
        tree: &RTree<R, S>,
        t_start: f64,
        t_end: f64,
        out: &mut Vec<PdqResult<D, R>>,
    ) -> Result<(), StorageError> {
        while let Some(r) = self.try_get_next(tree, t_start, t_end)? {
            out.push(r);
        }
        Ok(())
    }

    /// §4.1 update management: called with the report of every insertion
    /// that runs concurrently with this dynamic query. Costs one overlap
    /// hull and at most one enqueue, and reads nothing: what a report
    /// names is new to this query, so the tree is not consulted.
    pub fn notify(&mut self, report: &rtree::InsertReport<R::Key, R>) {
        // Reports whose overlap ended before the latest requested t_start
        // go through the same staleness filter as expansion: the
        // application will never ask for them, so enqueueing them would
        // only grow the queue without bound under a sustained insert load.
        let t_start = self.last_t_start;
        match &report.notify {
            Inserted::Record(rec) => {
                if self.returned.contains(&rec.identity()) {
                    return;
                }
                let hull = rec.hull(&self.trajectory);
                self.enqueue(hull, t_start, || ItemKind::Object {
                    id: rec.identity(),
                    record: *rec,
                });
            }
            Inserted::Subtree { page, key, level } => {
                let hull = R::key_hull(key, &self.trajectory);
                let (page, level) = (*page, *level);
                self.enqueue(hull, t_start, || ItemKind::Node { page, level });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use rtree::bulk::bulk_load;
    use rtree::{RTree, RTreeConfig};
    use storage::Pager;
    use stkit::Rect;

    type R = NsiSegmentRecord<2>;

    /// Stationary objects on a line at y = 0.5, one per integer x.
    fn line_tree(n: u32) -> RTree<R, Pager> {
        let recs: Vec<R> = (0..n)
            .map(|i| {
                let x = i as f64 + 0.5;
                R::new(i, 0, Interval::new(0.0, 100.0), [x, 0.5], [x, 0.5])
            })
            .collect();
        bulk_load(Pager::new(), RTreeConfig::default(), recs)
    }

    /// 1×1 window sliding right at speed 1 from x=0 over t ∈ [0, span].
    fn slide(span: f64) -> Trajectory<2> {
        Trajectory::linear(
            Rect::from_corners([0.0, 0.0], [1.0, 1.0]),
            [1.0, 0.0],
            Interval::new(0.0, span),
            2,
        )
    }

    #[test]
    fn each_node_loaded_at_most_once() {
        let tree = line_tree(2000);
        let mut pdq = PdqEngine::start(&tree, slide(100.0));
        // Drain frame by frame (high frame rate), as a renderer would.
        let mut total = QueryStats::default();
        let mut results = 0;
        let mut t = 0.0;
        while t < 100.0 {
            let batch = pdq.drain_window(&tree, t, t + 0.1);
            results += batch.len();
            total += pdq.take_stats();
            t += 0.1;
        }
        // The window sweeps x∈[0,101]: objects 0..=100 get covered... the
        // window reaches x=101 at t=100, so objects with x < 101 appear.
        assert_eq!(results, 101);
        // I/O optimality: disk accesses bounded by total node count, and
        // in particular FAR below frames × per-query cost.
        let inv = tree.validate().unwrap();
        assert!(
            total.disk_accesses <= inv.nodes,
            "visited {} nodes of {}",
            total.disk_accesses,
            inv.nodes
        );
        assert_eq!(total.duplicates_skipped, 0, "static tree has no dups");
    }

    #[test]
    fn empty_region_returns_none_cheaply() {
        let tree = line_tree(10);
        // Trajectory far away from all data.
        let tr = Trajectory::linear(
            Rect::from_corners([500.0, 500.0], [501.0, 501.0]),
            [1.0, 0.0],
            Interval::new(0.0, 10.0),
            2,
        );
        let mut pdq = PdqEngine::start(&tree, tr);
        assert!(pdq.get_next(&tree, 0.0, 10.0).is_none());
        // Only the root was examined.
        assert_eq!(pdq.stats().disk_accesses, 1);
    }

    #[test]
    fn simultaneous_entries_pop_in_id_order() {
        // Five objects stacked at the same position enter the view at the
        // same instant; pop order must be their id order regardless of
        // heap insertion history. Insert in descending id order to make
        // an insertion-order-dependent heap fail.
        let recs: Vec<R> = (0..5)
            .rev()
            .map(|i| R::new(i, 0, Interval::new(0.0, 100.0), [10.5, 0.5], [10.5, 0.5]))
            .collect();
        let tree = bulk_load(Pager::new(), RTreeConfig::default(), recs);
        let mut pdq = PdqEngine::start(&tree, slide(50.0));
        let oids: Vec<u32> = pdq
            .drain_window(&tree, 0.0, 50.0)
            .iter()
            .map(|r| r.record.oid)
            .collect();
        assert_eq!(oids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn tie_break_is_stable_across_runs() {
        // Many coincident entries: two independent engines over the same
        // tree must produce the identical sequence.
        let recs: Vec<R> = (0..40)
            .map(|i| {
                let x = (i % 8) as f64 + 0.5;
                R::new(i, 0, Interval::new(0.0, 100.0), [x, 0.5], [x, 0.5])
            })
            .collect();
        let tree = bulk_load(Pager::new(), RTreeConfig::default(), recs);
        let run = || {
            let mut pdq = PdqEngine::start(&tree, slide(20.0));
            pdq.drain_window(&tree, 0.0, 20.0)
                .iter()
                .map(|r| (r.record.oid, r.record.seq))
                .collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "pop order must be deterministic");
        assert_eq!(a.len(), 40);
    }

    #[test]
    fn stale_notifications_do_not_grow_queue() {
        let mut tree = line_tree(50);
        let mut pdq = PdqEngine::start(&tree, slide(50.0));
        // Advance the query frame by frame to t = 30.
        let mut t = 0.0;
        while t < 30.0 {
            let _ = pdq.drain_window(&tree, t, t + 1.0);
            t += 1.0;
        }
        let before = pdq.queue_len();
        // A sustained stream of inserts whose overlap with the trajectory
        // ended long before t = 30: every `Inserted::Record` report must
        // be filtered out in notify; only split (subtree) reports — whose
        // box legitimately covers moved live data — may enqueue anything.
        let mut subtree_reports = 0usize;
        for i in 0..200u32 {
            let x = 5.5 + (i % 10) as f64; // swept around t ∈ [5, 15]
            let rec = R::new(20_000 + i, 0, Interval::new(0.0, 20.0), [x, 0.5], [x, 0.5]);
            let report = tree.insert(rec, 30.0);
            if matches!(report.notify, Inserted::Subtree { .. }) {
                subtree_reports += 1;
            }
            pdq.notify(&report);
        }
        let after = pdq.queue_len();
        assert!(
            after <= before + subtree_reports,
            "queue grew from {before} to {after} with only {subtree_reports} splits: \
             stale records were enqueued"
        );
        // And none of them is ever returned.
        let rest = pdq.drain_window(&tree, 30.0, 50.0);
        assert!(rest.iter().all(|r| r.record.oid < 20_000));
    }

    #[test]
    fn queue_hwm_tracks_deepest_queue() {
        let tree = line_tree(200);
        let mut pdq = PdqEngine::start(&tree, slide(50.0));
        assert_eq!(pdq.queue_hwm(), 1, "seeded root only");
        let _ = pdq.drain_window(&tree, 0.0, 50.0);
        let hwm = pdq.queue_hwm();
        assert!(hwm > 1);
        assert!(
            hwm >= pdq.queue_len(),
            "hwm {hwm} below live depth {}",
            pdq.queue_len()
        );
    }

    #[test]
    fn engine_self_heals_across_transient_faults() {
        use storage::{FaultPlan, FaultyStore};
        // Small pages ⇒ many nodes ⇒ many fallible reads.
        let recs = || -> Vec<R> {
            (0..50)
                .map(|i| {
                    let x = i as f64 + 0.5;
                    R::new(i, 0, Interval::new(0.0, 100.0), [x, 0.5], [x, 0.5])
                })
                .collect()
        };
        // Oracle: a fault-free run over the same data and layout.
        let expected: Vec<u32> = {
            let tree = bulk_load(
                Pager::with_page_size(256),
                RTreeConfig::default(),
                recs(),
            );
            let mut pdq = PdqEngine::start(&tree, slide(50.0));
            pdq.drain_window(&tree, 0.0, 50.0)
                .iter()
                .map(|r| r.record.oid)
                .collect()
        };

        // Same tree over a 40% transient-fault store (no pool, so errors
        // reach the engine raw). Build with injection paused so the
        // structure matches the oracle's.
        let faulty = FaultyStore::new(
            Pager::with_page_size(256),
            FaultPlan::transient(3, 0.4),
        );
        faulty.set_enabled(false);
        let tree = bulk_load(faulty, RTreeConfig::default(), recs());
        tree.store().set_enabled(true);

        let mut pdq = PdqEngine::start(&tree, slide(50.0));
        let mut got = Vec::new();
        let mut errors = 0u32;
        loop {
            match pdq.try_get_next(&tree, 0.0, 50.0) {
                Ok(Some(r)) => got.push(r.record.oid),
                Ok(None) => break,
                Err(e) => {
                    assert!(e.is_transient());
                    errors += 1;
                    assert!(errors < 10_000, "engine never converged");
                }
            }
        }
        assert!(errors > 0, "a 40% fault rate must surface errors");
        assert_eq!(got, expected, "healing must not lose or repeat results");
        assert_eq!(pdq.stats().duplicates_skipped, 0, "retries are not dups");
    }

    /// 320 pieces of a 30-wide window bouncing through [0, 1000]².
    fn bouncing() -> Trajectory<2> {
        use crate::trajectory::KeySnapshot;
        let (mut c, mut v) = ([500.0, 300.0], [900.0, 700.0]);
        let window = |c: [f64; 2]| Rect::from_corners([c[0] - 15.0, c[1] - 15.0], [c[0] + 15.0, c[1] + 15.0]);
        let mut keys = vec![KeySnapshot { t: 0.0, window: window(c) }];
        for k in 1..=320 {
            let dt = 0.2;
            for d in 0..2 {
                c[d] += v[d] * dt;
                if !(15.0..=985.0).contains(&c[d]) {
                    c[d] = c[d].clamp(15.0, 985.0);
                    v[d] = -v[d];
                }
            }
            keys.push(KeySnapshot { t: k as f64 * dt, window: window(c) });
        }
        let traj = Trajectory::new(keys);
        assert_eq!(traj.segments().len(), 320);
        traj
    }

    /// A short-lived motion somewhere in the space, born at `born`.
    fn motion(rng: &mut ChaCha8Rng, oid: u32, born: f64) -> R {
        let a = [rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)];
        let b = [a[0] + rng.gen_range(-40.0..40.0), a[1] + rng.gen_range(-40.0..40.0)];
        R::new(oid, 0, Interval::new(born, born + rng.gen_range(0.5..4.0)), a, b)
    }

    /// Motions all over the space and [`bouncing`]'s span, on small
    /// pages, so the tree is deep and inserts split below the root.
    fn motion_tree(rng: &mut ChaCha8Rng) -> RTree<R, Pager> {
        let preload: Vec<R> = (0..6000)
            .map(|i| motion(rng, i, (i % 600) as f64 * 0.1))
            .collect();
        let tree = bulk_load(Pager::with_page_size(512), RTreeConfig::default(), preload);
        assert!(tree.height() >= 3);
        tree
    }

    /// The piece index against the loop it replaced, through the whole
    /// engine: two engines over one tree, one trajectory indexed and one
    /// scanning every piece, driven frame by frame with inserts (and so
    /// `Record` and `Subtree` notifications) in between.
    #[test]
    fn indexed_trajectory_streams_what_a_full_scan_streams() {
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let traj = bouncing();
        let span = traj.span();
        let mut tree = motion_tree(&mut rng);

        let mut indexed = PdqEngine::start(&tree, traj.clone());
        let mut scanned = PdqEngine::start(&tree, traj.scanning_every_piece());
        let (mut records, mut subtrees, mut delivered, mut next_oid) = (0, 0, 0usize, 100_000);
        let frame = 0.5;
        let mut t = span.lo;
        while t < span.hi {
            let got = indexed.drain_window(&tree, t, t + frame);
            let want = scanned.drain_window(&tree, t, t + frame);
            assert_eq!(got.len(), want.len(), "frame at t = {t}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.record, w.record, "frame at t = {t}");
                let bits = |r: &PdqResult<2>| -> Vec<(u64, u64)> {
                    let ivs = r.visibility.intervals();
                    ivs.iter().map(|iv| (iv.lo.to_bits(), iv.hi.to_bits())).collect()
                };
                assert_eq!(bits(g), bits(w), "visibility of {:?}", g.record.oid);
            }
            delivered += got.len();
            assert_eq!(indexed.stats(), scanned.stats(), "frame at t = {t}");
            assert_eq!(indexed.queue_len(), scanned.queue_len(), "frame at t = {t}");
            // Motions born now: some already over the hill, most ahead.
            for _ in 0..30 {
                let born = t + rng.gen_range(-3.0..6.0);
                let rec = motion(&mut rng, next_oid, born);
                next_oid += 1;
                let report = tree.insert(rec, t);
                match report.notify {
                    Inserted::Record(_) => records += 1,
                    Inserted::Subtree { .. } => subtrees += 1,
                }
                indexed.notify(&report);
                scanned.notify(&report);
            }
            t += frame;
        }
        assert!(delivered > 500, "only {delivered} answers: the run proves little");
        assert!(records > 100 && subtrees > 10, "{records} record / {subtrees} subtree reports");
        assert_eq!(indexed.queue_hwm(), scanned.queue_hwm());
    }

    /// The served lane's pop against the library's: two engines over one
    /// tree taking live inserts, one drained through `try_next_entry`, the
    /// other through `try_get_next`. Same records in the same order, each
    /// entry time the visibility's start bit for bit, same cost.
    #[test]
    fn an_entry_time_is_its_visibility_start() {
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        let traj = bouncing();
        let span = traj.span();
        let mut tree = motion_tree(&mut rng);

        let mut entries = PdqEngine::start(&tree, traj.clone());
        let mut full = PdqEngine::start(&tree, traj);
        let (mut delivered, mut split_sets, mut next_oid) = (0usize, 0usize, 100_000);
        let frame = 0.5;
        let mut t = span.lo;
        while t < span.hi {
            let got: Vec<(f64, R)> =
                std::iter::from_fn(|| entries.try_next_entry(&tree, t, t + frame).unwrap()).collect();
            let want = full.drain_window(&tree, t, t + frame);
            assert_eq!(got.len(), want.len(), "frame at t = {t}");
            for ((entered, rec), w) in got.iter().zip(&want) {
                assert_eq!(*rec, w.record, "frame at t = {t}");
                let start = w.visibility.start().expect("a delivered object is visible");
                assert_eq!(entered.to_bits(), start.to_bits(), "entry time of {}", rec.oid);
                split_sets += usize::from(w.visibility.len() > 1);
            }
            delivered += got.len();
            assert_eq!(entries.stats(), full.stats(), "frame at t = {t}");
            for _ in 0..30 {
                let born = t + rng.gen_range(-3.0..6.0);
                let report = tree.insert(motion(&mut rng, next_oid, born), t);
                next_oid += 1;
                entries.notify(&report);
                full.notify(&report);
            }
            t += frame;
        }
        assert!(delivered > 500, "only {delivered} answers: the run proves little");
        assert!(split_sets > 0, "no visibility of more than one interval");
        assert_eq!(entries.queue_hwm(), full.queue_hwm());
    }

    #[test]
    fn take_stats_resets() {
        let tree = line_tree(50);
        let mut pdq = PdqEngine::start(&tree, slide(50.0));
        let _ = pdq.drain_window(&tree, 0.0, 1.0);
        let s1 = pdq.take_stats();
        assert!(s1.disk_accesses > 0);
        let s2 = pdq.stats();
        assert_eq!(s2.disk_accesses, 0);
    }

    #[test]
    fn a_child_off_its_level_is_corrupt() {
        // 256 B pages: a deep tree. The root's first entry is pointed at
        // a leaf, keys untouched, so the leaf is queued as a level-1
        // node. Taken unchecked it streamed its records and was counted
        // as an upper-level read.
        let recs: Vec<R> = (0..200)
            .map(|i| {
                let x = f64::from(i) * 0.25 + 0.5;
                R::new(i, 0, Interval::new(0.0, 100.0), [x, 0.5], [x, 0.5])
            })
            .collect();
        let tree = bulk_load(Pager::with_page_size(256), RTreeConfig::default(), recs);
        let leaf = crate::knn::tests::a_leaf_under_the_root(&tree);
        let mut pdq = PdqEngine::start(&tree, slide(60.0));
        let mut out = Vec::new();
        let res = pdq.try_drain_window_into(&tree, 0.0, 60.0, &mut out);
        assert_eq!(res, Err(StorageError::Corrupt { page: leaf }));
        let stats = pdq.stats();
        assert_eq!(stats.leaf_accesses, 0, "no leaf was reached through a checked level");
    }
}
