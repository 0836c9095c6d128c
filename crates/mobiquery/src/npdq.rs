//! Non-Predictive Dynamic Queries (§4.2).
//!
//! The trajectory is unknown; the engine evaluates each snapshot query as
//! it arrives but remembers the previous one (`P`). A node `R` is
//! **discardable** for the current query `Q` iff `(Q ∩ R) ⊆ P` (Lemma 1):
//! everything of `R` that `Q` could retrieve was already retrieved by `P`.
//!
//! Plain NSI makes discardability useless (consecutive snapshots never
//! overlap temporally), so the engine runs over the **double-temporal-
//! axes** index (Fig. 5(b)): motion validity start/end are independent
//! axes, data lives above the 45° line, and a snapshot query is a
//! quadrant-shaped region — consecutive quadrants genuinely contain each
//! other's overlap.
//!
//! Update management uses node timestamps (§4.2): every insertion stamps
//! its path; when a visited node's timestamp is newer than the time the
//! previous query ran, the previous query's result can no longer be
//! trusted for that subtree and the engine falls back to the plain
//! overlap test there.

use crate::layout::MotionRecord;
use crate::snapshot::SnapshotQuery;
use crate::stats::QueryStats;
use rtree::{Key, RTree};
use storage::{PageId, PageStore, StorageError};

/// The NPDQ query processor: one instance per dynamic query session.
///
/// ```
/// use mobiquery::{NpdqEngine, SnapshotQuery};
/// use rtree::{DtaSegmentRecord, RTree, RTreeConfig};
/// use storage::Pager;
/// use stkit::{Interval, Rect};
///
/// let mut tree = RTree::new(Pager::new(), RTreeConfig::default());
/// tree.insert(
///     DtaSegmentRecord::new(1, 0, Interval::new(0.0, 100.0), [3.0, 3.0], [3.0, 3.0]),
///     0.0,
/// );
/// let mut npdq = NpdqEngine::new();
/// let window = Rect::from_corners([0.0, 0.0], [5.0, 5.0]);
/// // First snapshot returns the object…
/// let mut got = Vec::new();
/// npdq.execute(&tree, &SnapshotQuery::open_from(window, 1.0), 0.5, |r| got.push(r.oid));
/// assert_eq!(got, vec![1]);
/// // …the next (unchanged) snapshot returns nothing new.
/// got.clear();
/// npdq.execute(&tree, &SnapshotQuery::open_from(window, 1.1), 0.5, |r| got.push(r.oid));
/// assert!(got.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct NpdqEngine<const D: usize> {
    /// Previous snapshot query and the logical time at which it ran.
    prev: Option<(SnapshotQuery<D>, f64)>,
    /// Reusable traversal stack, so consecutive executions don't
    /// allocate query over query.
    stack: Vec<PageId>,
    /// SoA staging of one node page's internal-entry keys (scratch): the
    /// overlap and Lemma-1 tests evaluate branch-free across all lanes.
    batch: KeyBatch,
}

impl<const D: usize> Default for NpdqEngine<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const D: usize> NpdqEngine<D> {
    /// A fresh session: the first query runs as a plain snapshot query.
    pub fn new() -> Self {
        NpdqEngine {
            prev: None,
            stack: Vec::new(),
            batch: KeyBatch::default(),
        }
    }

    /// True iff a previous query is available for discarding.
    pub fn has_previous(&self) -> bool {
        self.prev.is_some()
    }

    /// Evaluate snapshot `q`, emitting only objects **not** returned by
    /// the previous snapshot. `now` is the logical clock used to compare
    /// against node modification timestamps (use the tree's insertion
    /// clock; any monotone scalar works).
    ///
    /// Generic over the index layout ([`MotionRecord`]): run it over the
    /// double-temporal-axes tree (the paper's choice, Fig. 5(b)) or the
    /// plain NSI tree with open-ended queries (Fig. 5(a)).
    pub fn execute<R: MotionRecord<D>, S: PageStore>(
        &mut self,
        tree: &RTree<R, S>,
        q: &SnapshotQuery<D>,
        now: f64,
        emit: impl FnMut(&R),
    ) -> QueryStats {
        self.try_execute(tree, q, now, emit)
            .unwrap_or_else(|e| panic!("unrecoverable storage error: {e}"))
    }

    /// Fallible form of [`Self::execute`]: a device fault mid-descent
    /// surfaces as `Err` carrying the failing page. Objects emitted
    /// before the fault are valid answers of `q`; the previous-query
    /// state is **not** advanced (partial coverage cannot serve as the
    /// discard baseline), so re-executing a later snapshot will re-derive
    /// the delta against the last *completed* query — possibly re-emitting
    /// some of this frame's partial results, never losing any.
    pub fn try_execute<R: MotionRecord<D>, S: PageStore>(
        &mut self,
        tree: &RTree<R, S>,
        q: &SnapshotQuery<D>,
        now: f64,
        mut emit: impl FnMut(&R),
    ) -> Result<QueryStats, StorageError> {
        let mut stats = QueryStats::default();
        let qkey = R::query_key(q);
        let pkey = self.prev.map(|(p, clock)| (p, R::query_key(&p), clock));

        // Depth-first traversal; the stack is engine-owned scratch, reused
        // across per-frame executions.
        let mut stack = std::mem::take(&mut self.stack);
        stack.clear();
        stack.push(tree.root_page());
        while let Some(page) = stack.pop() {
            // Zero-copy visit: header parsed once, entries decoded lazily.
            let node = match tree.try_read_node(page) {
                Ok(node) => node,
                Err(e) => {
                    // Abandon the traversal but return the scratch stack
                    // to the engine; `self.prev` stays at the last
                    // completed query.
                    stack.clear();
                    self.stack = stack;
                    return Err(e);
                }
            };
            stats.disk_accesses += 1;
            if node.level() == 0 {
                stats.leaf_accesses += 1;
            }
            // §4.2 timestamp check: if this node was modified after the
            // previous query ran, its children may contain unseen data —
            // the previous query cannot be used to discard them.
            let clean = match &pkey {
                Some((_, _, pclock)) => node.timestamp() <= *pclock,
                None => false,
            };
            if node.is_leaf() {
                for rec in node.leaf_records() {
                    stats.distance_computations += 1;
                    if !rec.key().overlaps(&qkey) || !q.matches_segment(rec.segment()) {
                        continue;
                    }
                    // Already returned by the previous query?
                    if clean
                        && pkey.as_ref().is_some_and(|(p, ..)| p.matches_segment(rec.segment()))
                    {
                        continue;
                    }
                    stats.results += 1;
                    emit(&rec);
                }
            } else {
                // Stage all entry keys, then evaluate the overlap and
                // Lemma-1 masks branch-free across every lane at once;
                // the masks equal the scalar `key.overlaps(&qkey)` /
                // `discardable(pk, &qkey, &key)` tests exactly.
                self.batch.clear();
                for (key, child) in node.internal_entries() {
                    stats.distance_computations += 1;
                    self.batch.push(&key, child);
                }
                let pdiscard = if clean { pkey.as_ref().map(|(_, pk, _)| pk) } else { None };
                self.batch.solve(&qkey, pdiscard);
                for j in 0..self.batch.len() {
                    if !self.batch.overlap[j] {
                        continue;
                    }
                    if pdiscard.is_some() && self.batch.discard[j] {
                        // Pruned without loading: the I/O the previous
                        // query paid for.
                        obs::trace(obs::TraceEvent::QueueOp {
                            op: obs::QueueOpKind::Discard,
                            depth: stack.len() as u32,
                        });
                        continue;
                    }
                    stack.push(self.batch.children[j]);
                }
            }
        }
        self.stack = stack;
        self.prev = Some((*q, now));
        Ok(stats)
    }
}

/// Lemma 1: `R` is discardable iff `(Q ∩ R) ⊆ P`, for any key layout.
pub fn discardable<K: Key>(p: &K, q: &K, r: &K) -> bool {
    p.contains(&q.intersect(r))
}

/// Struct-of-arrays staging for one node page's internal-entry keys.
///
/// Bounds are stored axis-major (`axes_lo[a][j]` is entry `j`'s lower
/// bound on axis `a`), so the per-axis inner loops below are pure
/// compare/select lanes over contiguous `f64`s — the same layout the
/// geometry kernels in `stkit::batch` use. The masks computed by
/// [`KeyBatch::solve`] equal the scalar tests entry for entry:
/// `overlap[j] == key_j.overlaps(q)` and (given a previous query `p`)
/// `discard[j] == discardable(p, q, &key_j)`.
#[derive(Clone, Debug, Default)]
struct KeyBatch {
    axes_lo: Vec<Vec<f64>>,
    axes_hi: Vec<Vec<f64>>,
    children: Vec<PageId>,
    overlap: Vec<bool>,
    discard: Vec<bool>,
    /// Per-lane: some axis of `q ∩ r` is empty (then `q ∩ r ⊆ p` holds
    /// vacuously, matching `StBox::contains`' empty-operand early-out).
    inter_empty: Vec<bool>,
    /// Per-lane: every axis of `q ∩ r` lies inside `p`'s extent.
    contained: Vec<bool>,
}

impl KeyBatch {
    fn clear(&mut self) {
        for v in &mut self.axes_lo {
            v.clear();
        }
        for v in &mut self.axes_hi {
            v.clear();
        }
        self.children.clear();
    }

    fn len(&self) -> usize {
        self.children.len()
    }

    fn push<K: Key>(&mut self, key: &K, child: PageId) {
        if self.axes_lo.len() < K::AXES {
            self.axes_lo.resize_with(K::AXES, Vec::new);
            self.axes_hi.resize_with(K::AXES, Vec::new);
        }
        for a in 0..K::AXES {
            self.axes_lo[a].push(key.axis_lo(a));
            self.axes_hi[a].push(key.axis_hi(a));
        }
        self.children.push(child);
    }

    /// Evaluate the overlap mask against `q` and, when `p` is given, the
    /// Lemma-1 discardability mask against `(p, q)`.
    fn solve<K: Key>(&mut self, q: &K, p: Option<&K>) {
        let n = self.len();
        self.overlap.clear();
        self.overlap.resize(n, !q.is_empty());
        self.inter_empty.clear();
        self.inter_empty.resize(n, false);
        self.contained.clear();
        self.contained.resize(n, p.is_some());
        for a in 0..K::AXES {
            let (q_lo, q_hi) = (q.axis_lo(a), q.axis_hi(a));
            let (p_lo, p_hi) = match p {
                Some(p) => (p.axis_lo(a), p.axis_hi(a)),
                None => (f64::INFINITY, f64::NEG_INFINITY),
            };
            // `contains_interval` requires the container axis non-empty.
            let p_ok = p_lo <= p_hi;
            let lo = &self.axes_lo[a];
            let hi = &self.axes_hi[a];
            for j in 0..n {
                let (r_lo, r_hi) = (lo[j], hi[j]);
                let i_lo = q_lo.max(r_lo);
                let i_hi = q_hi.min(r_hi);
                let axis_hit = i_lo <= i_hi;
                self.overlap[j] &= axis_hit && r_lo <= r_hi;
                self.inter_empty[j] |= !axis_hit;
                self.contained[j] &= p_ok && p_lo <= i_lo && i_hi <= p_hi;
            }
        }
        self.discard.clear();
        self.discard.reserve(n);
        for j in 0..n {
            self.discard.push(self.inter_empty[j] || self.contained[j]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree::bulk::bulk_load;
    use rtree::{DtaSegmentRecord, RTree, RTreeConfig};
    use storage::Pager;
    use stkit::{Interval, Rect, StBox};

    type R = DtaSegmentRecord<2>;

    /// Stationary grid: object (i, j) at (i+0.5, j+0.5), alive [0, 100].
    fn grid_tree(n: u32) -> RTree<R, Pager> {
        let recs: Vec<R> = (0..n * n)
            .map(|k| {
                let x = (k % n) as f64 + 0.5;
                let y = (k / n) as f64 + 0.5;
                R::new(k, 0, Interval::new(0.0, 100.0), [x, y], [x, y])
            })
            .collect();
        bulk_load(Pager::new(), RTreeConfig::default(), recs)
    }

    fn win(x: f64, y: f64, w: f64) -> Rect<2> {
        Rect::from_corners([x, y], [x + w, y + w])
    }

    #[test]
    fn discardable_lemma_basics() {
        let bx = |x0: f64, x1: f64| {
            StBox::<2, 2>::new(
                Rect::from_corners([x0, 0.0], [x1, 1.0]),
                Rect::new([Interval::new(0.0, 1.0), Interval::new(0.0, 1.0)]),
            )
        };
        let p = bx(0.0, 5.0);
        let q = bx(3.0, 8.0);
        // R inside Q∩P region ⇒ discardable.
        assert!(discardable(&p, &q, &bx(3.5, 4.5)));
        // R sticking beyond P ⇒ not discardable.
        assert!(!discardable(&p, &q, &bx(4.0, 7.0)));
        // R disjoint from Q ⇒ Q∩R empty ⊆ P ⇒ discardable (it wouldn't be
        // visited anyway because the overlap test fails first).
        assert!(discardable(&p, &q, &bx(20.0, 30.0)));
    }

    #[test]
    fn first_query_returns_everything() {
        let tree = grid_tree(20);
        let mut eng = NpdqEngine::new();
        let q = SnapshotQuery::at_instant(win(2.0, 2.0, 4.0), 1.0);
        let mut got = Vec::new();
        let stats = eng.execute(&tree, &q, 0.0, |r| got.push(r.oid));
        assert_eq!(got.len(), 16, "4×4 cells");
        assert_eq!(stats.results, 16);
        assert!(eng.has_previous());
    }

    #[test]
    fn second_query_returns_only_delta() {
        let tree = grid_tree(20);
        let mut eng = NpdqEngine::new();
        let q1 = SnapshotQuery::at_instant(win(2.0, 2.0, 4.0), 1.0);
        let q2 = SnapshotQuery::at_instant(win(3.0, 2.0, 4.0), 1.1); // shifted 1 in x
        let mut first = Vec::new();
        eng.execute(&tree, &q1, 0.0, |r| first.push(r.oid));
        let mut second = Vec::new();
        let s2 = eng.execute(&tree, &q2, 0.0, |r| second.push(r.oid));
        // New column x ∈ [6, 7): 4 objects.
        assert_eq!(second.len(), 4, "only the newly visible column");
        assert!(second.iter().all(|o| !first.contains(o)));
        assert!(s2.results == 4);
    }

    #[test]
    fn high_overlap_costs_less_io() {
        let tree = grid_tree(40);
        // Large window stepping slightly (99 % overlap) vs jumping fully.
        let mut eng_hi = NpdqEngine::new();
        let mut eng_lo = NpdqEngine::new();
        let q0 = SnapshotQuery::at_instant(win(5.0, 5.0, 20.0), 1.0);
        let hi_first = eng_hi.execute(&tree, &q0, 0.0, |_| {});
        let lo_first = eng_lo.execute(&tree, &q0, 0.0, |_| {});
        assert_eq!(hi_first.disk_accesses, lo_first.disk_accesses);
        let q_hi = SnapshotQuery::at_instant(win(5.2, 5.0, 20.0), 1.1);
        let q_lo = SnapshotQuery::at_instant(win(30.0, 30.0, 8.0), 1.1);
        let hi = eng_hi.execute(&tree, &q_hi, 0.0, |_| {});
        let lo = eng_lo.execute(&tree, &q_lo, 0.0, |_| {});
        assert!(
            hi.leaf_accesses < lo_first.leaf_accesses,
            "99% overlap must prune leaf I/O: {} vs first {}",
            hi.leaf_accesses,
            lo_first.leaf_accesses
        );
        assert!(lo.disk_accesses > 0);
    }

    #[test]
    fn no_overlap_same_as_naive() {
        let tree = grid_tree(40);
        let q1 = SnapshotQuery::at_instant(win(0.0, 0.0, 8.0), 1.0);
        let q2 = SnapshotQuery::at_instant(win(25.0, 25.0, 8.0), 1.1);
        // NPDQ with a useless previous query…
        let mut eng = NpdqEngine::new();
        eng.execute(&tree, &q1, 0.0, |_| {});
        let mut with_prev = Vec::new();
        let npdq_stats = eng.execute(&tree, &q2, 0.0, |r| with_prev.push(r.oid));
        // …vs a fresh evaluation of q2.
        let mut fresh_eng = NpdqEngine::new();
        let mut fresh = Vec::new();
        let fresh_stats = fresh_eng.execute(&tree, &q2, 0.0, |r| fresh.push(r.oid));
        with_prev.sort_unstable();
        fresh.sort_unstable();
        assert_eq!(with_prev, fresh, "no overlap ⇒ identical results");
        // "Neither does it cause harm": leaf I/O identical. (Internal
        // nodes whose region spans both windows may still be pruned or
        // kept identically.)
        assert_eq!(npdq_stats.disk_accesses, fresh_stats.disk_accesses);
    }

    #[test]
    fn union_over_session_equals_naive_per_frame() {
        // Sliding window: union of NPDQ deltas == union of naive results.
        let tree = grid_tree(30);
        let mut eng = NpdqEngine::new();
        let mut npdq_all = std::collections::HashSet::new();
        let mut naive_all = std::collections::HashSet::new();
        let naive = crate::naive::NaiveEngine::new();
        for k in 0..40 {
            let t = 1.0 + k as f64 * 0.1;
            let q = SnapshotQuery::at_instant(win(2.0 + k as f64 * 0.5, 10.0, 6.0), t);
            eng.execute(&tree, &q, 0.0, |r| {
                npdq_all.insert(r.oid);
            });
            naive.query_dta(&tree, &q, |r| {
                naive_all.insert(r.oid);
            });
        }
        assert_eq!(npdq_all, naive_all);
    }

    #[test]
    fn updates_invalidate_previous_query() {
        // Insert an object inside the overlap region after P ran: the
        // timestamp mechanism must prevent discarding it.
        let mut tree = grid_tree(20);
        let mut eng = NpdqEngine::new();
        let q1 = SnapshotQuery::at_instant(win(2.0, 2.0, 6.0), 1.0);
        eng.execute(&tree, &q1, /*now=*/ 0.0, |_| {});
        // New object in the middle of the already-covered region, with a
        // validity that starts after q1's instant so q1 never saw it.
        let rec = R::new(9999, 0, Interval::new(1.05, 100.0), [4.0, 4.0], [4.0, 4.0]);
        tree.insert(rec, /*timestamp=*/ 1.0);
        let q2 = SnapshotQuery::at_instant(win(2.0, 2.0, 6.0), 1.2);
        let mut got = Vec::new();
        eng.execute(&tree, &q2, 1.0, |r| got.push(r.oid));
        assert!(
            got.contains(&9999),
            "timestamped update must defeat discardability: {got:?}"
        );
    }

    #[test]
    fn without_updates_identical_region_returns_nothing() {
        let tree = grid_tree(20);
        let mut eng = NpdqEngine::new();
        let q1 = SnapshotQuery::at_instant(win(2.0, 2.0, 6.0), 1.0);
        let q2 = SnapshotQuery::at_instant(win(2.0, 2.0, 6.0), 1.1);
        eng.execute(&tree, &q1, 0.0, |_| {});
        let mut got = Vec::new();
        let stats = eng.execute(&tree, &q2, 0.0, |r| got.push(r.oid));
        assert!(got.is_empty(), "fully covered query returns nothing new");
        // And it touches almost nothing below the root.
        assert!(stats.leaf_accesses == 0, "leaf I/O should be fully pruned");
    }

    #[test]
    fn failed_execute_leaves_previous_query_untouched() {
        use storage::{FaultPlan, FaultyStore};
        // Small pages ⇒ deep tree ⇒ plenty of fallible reads.
        let recs: Vec<R> = (0..400)
            .map(|k| {
                let x = (k % 20) as f64 + 0.5;
                let y = (k / 20) as f64 + 0.5;
                R::new(k, 0, Interval::new(0.0, 100.0), [x, y], [x, y])
            })
            .collect();
        // NPDQ restarts its whole descent per attempt (unlike PDQ's
        // incremental queue), so the rate must leave a full fault-free
        // traversal likely; the seeded stream keeps the run deterministic.
        let faulty = FaultyStore::new(
            Pager::with_page_size(256),
            FaultPlan::transient(17, 0.15),
        );
        faulty.set_enabled(false);
        let tree = bulk_load(faulty, RTreeConfig::default(), recs);

        let mut eng = NpdqEngine::new();
        let q1 = SnapshotQuery::at_instant(win(2.0, 2.0, 6.0), 1.0);
        let mut baseline = std::collections::HashSet::new();
        eng.execute(&tree, &q1, 0.0, |r| {
            baseline.insert(r.oid);
        });
        assert!(eng.has_previous());

        tree.store().set_enabled(true);
        let q2 = SnapshotQuery::at_instant(win(3.0, 2.0, 6.0), 1.1);
        let mut emitted = std::collections::HashSet::new();
        let mut errors = 0u32;
        let stats = loop {
            match eng.try_execute(&tree, &q2, 0.0, |r| {
                emitted.insert(r.oid);
            }) {
                Ok(stats) => break stats,
                Err(e) => {
                    assert!(e.is_transient());
                    // Failure must not advance the discard baseline to the
                    // partially-covered q2 — else the retry would prune
                    // subtrees q2 never actually finished reading.
                    assert!(eng.has_previous());
                    errors += 1;
                    assert!(errors < 10_000, "engine never converged");
                }
            }
        };
        assert!(errors > 0, "a 15% fault rate must surface errors");
        assert!(stats.disk_accesses > 0);
        // Oracle: the delta a fault-free engine computes for q1 → q2.
        let expected: std::collections::HashSet<u32> = {
            let clean_recs: Vec<R> = (0..400)
                .map(|k| {
                    let x = (k % 20) as f64 + 0.5;
                    let y = (k / 20) as f64 + 0.5;
                    R::new(k, 0, Interval::new(0.0, 100.0), [x, y], [x, y])
                })
                .collect();
            let clean = bulk_load(
                Pager::with_page_size(256),
                RTreeConfig::default(),
                clean_recs,
            );
            let mut oracle = NpdqEngine::new();
            oracle.execute(&clean, &q1, 0.0, |_| {});
            let mut out = std::collections::HashSet::new();
            oracle.execute(&clean, &q2, 0.0, |r| {
                out.insert(r.oid);
            });
            out
        };
        // Retries may re-emit partial results of failed attempts, but the
        // union must cover the oracle delta exactly (no losses, and no
        // stray objects from outside q2 ∖ q1 ∪ partials of q2 ∩ q1).
        assert!(
            emitted.is_superset(&expected),
            "healing lost results: missing {:?}",
            expected.difference(&emitted).collect::<Vec<_>>()
        );
        for oid in &emitted {
            assert!(
                expected.contains(oid) || baseline.contains(oid),
                "object {oid} matches neither the delta nor the overlap"
            );
        }
    }
}
