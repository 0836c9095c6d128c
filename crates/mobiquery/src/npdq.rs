//! Non-Predictive Dynamic Queries (§4.2).
//!
//! The trajectory is unknown; the engine evaluates each snapshot query as
//! it arrives but remembers the previous one (`P`). A node `R` is
//! **discardable** for the current query `Q` when everything of `R` that
//! `Q` could retrieve was already retrieved by `P`, and a leaf record `P`
//! matched is not emitted again. Which test proves a subtree discardable
//! depends on the query's shape:
//!
//! * **Open queries** (`[t, ∞)`, Fig. 5(a)) use Lemma 1, `(Q ∩ R) ⊆ P`,
//!   in the index's key space. `Q`'s time lies inside `P`'s, so a record
//!   `Q` finds inside `Q ∩ R` was inside `P` when `Q` found it. Over the
//!   **double-temporal-axes** index (Fig. 5(b)) a snapshot is a
//!   quadrant-shaped region whose consecutive instances genuinely contain
//!   each other's overlap.
//! * **Bounded queries** (an instant, Definition 3's visualization case)
//!   that start after `P` ends use the **motion-bounded rule**. Lemma 1
//!   is unsound for them: a key bounds its records' whole motion, so a
//!   record can lie outside `P`'s window at `t_P` and inside `Q ∩ R` at
//!   `t_Q`. With `t_P` the end of `P`, `[t_Q, t_Q']` the time of `Q`
//!   (`t_P < t_Q`), and `v_R` a bound on every record's speed along any
//!   one axis under the child `R`, a child `R` is skipped when
//!   1. every record under `R` started by `t_P` ([`PageBound::start`]),
//!      and
//!   2. on every spatial axis, with `ρ = v_R · (t_Q' − t_P)` rounded up
//!      ([`PageBound::speed`]), the side `[max(R.lo, Q.lo − ρ),
//!      min(R.hi, Q.hi + ρ)]` lies inside `P.window`, by a rounding
//!      margin on every side.
//!
//!   A record under `R` that `Q` matches at some `t ∈ [t_Q, t_Q']` is
//!   alive at `t` and started by `t_P`, so it is alive at `t_P`. There
//!   its position lies in its bounding box, inside `R`; and between `t_P`
//!   and `t`, where it lay in `Q.window`, it moved at most
//!   `v_R · (t − t_P) ≤ ρ` along each axis. So at `t_P` it lies in the
//!   clipped side, inside `P.window`: `P` matched it. Both bounds are
//!   [`RTree::page_bound`]'s, a side array the tree keeps per page, so no
//!   key layout has to carry them and no child is read to judge it. With
//!   `v_R = +∞` — a record type that bounds no speed, a page the tree
//!   knows nothing of, or an open-ended `Q` — the clip is `R`'s own side
//!   and the rule is the latest-start rule it generalises: `R.space`
//!   inside `P.window`.
//!
//! The margin. `matches_segment` does not evaluate a position; it solves
//! each axis' line `a + b·t` against the window's edges
//! ([`stkit::LinearForm::solve_within`]), and rounding moves the roots.
//! Each root carries a few roundings of `a`, `b` and the edge `c`, as in
//! [`stkit::linear::REACH_SLACK`]'s analysis, so a record whose exact
//! position at `t_P` lies inside an edge by more than
//! `REACH_SLACK · (|a| + |b|·T + |c|)` — `T` the larger of `|t_P|`,
//! `|t_Q|` — is inside for the solve too, with a factor of 2⁸ to spare
//! (which also covers the rounding of the record's end point in its
//! bounding box). What bounds `|b|` and `|a|` without reading a record:
//! a record `Q` matches that started by `t_P` lives at least
//! `t_Q − t_P`, and its displacement fits in `R`, so on axis `i` its
//! speed is at most `v_i = min(v_R, width_i(R) / (t_Q − t_P))`; with
//! `M_i` the larger magnitude of `R`'s bounds on the axis,
//! `|a| = |x₀ − b·t₀| ≤ M_i + width_i(R) + v_i·T ≤ 3·M_i + v_i·T`. So the
//! clipped side `[lo, hi]` is inside when
//! `P.lo_i + REACH_SLACK · (|P.lo_i| + 3·M_i + 2·v_i·T) ≤ lo`, and
//! likewise at the top. A stationary record (`b = 0`) is solved exactly,
//! so an ulp would do for it; a fast, short-lived one needs the speed
//! term. The clip adds no term: where it takes `Q`'s side,
//! `R.lo ≤ Q.lo − ρ` and `Q.lo ≤ R.hi` (`R` meets `Q`), so `|Q.lo| ≤ M_i`
//! and `Q`'s own solve strays no further than `P`'s, inside the 2⁸ to
//! spare; `ρ` is rounded up, and its rounding is an ulp besides.
//!
//! Update management uses node stamps (§4.2): every insertion stamps the
//! nodes it writes with its ordinal, the tree's record count after it
//! ([`rtree::NodeRef::stamp`]), and the engine remembers the count the
//! previous query saw. It reads every stamp from the tree's side array
//! ([`PageBound::stamp`], which [`RTree::validate`] holds equal to the
//! header's), so it judges a child before reading it. A child stamped
//! above that count was written since the previous query ran, so the
//! previous query's result can no longer be trusted for that subtree: it
//! is not discarded, and a record in a leaf so stamped that may be new
//! ([`NpdqEngine::try_execute_with`]'s `maybe_new`) is tested afresh.
//! The child's *own* stamp suffices, its parent's need not be clean:
//! every insert stamps every page it writes — its leaf and each ancestor
//! up to the root, both halves of every split, and a new root — so a
//! page unstamped since the previous query heads a subtree holding
//! exactly the records it held then (an entry a split moves out leaves a
//! written page behind). The order is the tree's own, so no caller's
//! clock can make a fresh insert look old. On a tree opened by
//! [`RTree::reopen`] the side array knows no stamp, so every page reads
//! as written: nothing is discarded and every match is tested afresh.

use crate::layout::MotionRecord;
use crate::snapshot::SnapshotQuery;
use crate::stats::QueryStats;
use rtree::{Key, PageBound, RTree};
use stkit::linear::REACH_SLACK;
use stkit::{Interval, Rect};
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
/// npdq.execute(&tree, &SnapshotQuery::open_from(window, 1.0), |r| got.push(r.oid));
/// assert_eq!(got, vec![1]);
/// // …the next (unchanged) snapshot returns nothing new.
/// got.clear();
/// npdq.execute(&tree, &SnapshotQuery::open_from(window, 1.1), |r| got.push(r.oid));
/// assert!(got.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct NpdqEngine<const D: usize> {
    /// Previous snapshot query and the tree's record count when it ran:
    /// a node stamped above it was written since.
    prev: Option<(SnapshotQuery<D>, u64)>,
    /// Reusable traversal stack of `(page, expected level)`, so
    /// consecutive executions don't allocate query over query.
    stack: Vec<(PageId, u32)>,
}

/// The subtree test the previous query `P` lends the current one (module
/// doc), if any.
#[derive(Clone, Copy, Debug)]
enum Discard<K, const D: usize> {
    /// `Q` is open and its time lies inside `P`'s: Lemma 1 against `P`'s
    /// key.
    Lemma1(K),
    /// `Q` starts after `P` ended at `t_p`: the motion-bounded rule
    /// against `P`'s window and `Q`'s, for records that live at least
    /// `1 / inv_dt`, move for at most `reach` (rounded up) between `t_p`
    /// and `Q`'s end, and a query time of magnitude at most `t`.
    Moved {
        window: Rect<D>,
        query: Rect<D>,
        t_p: f64,
        inv_dt: f64,
        reach: f64,
        t: f64,
    },
}

impl<K: Key, const D: usize> Discard<K, D> {
    fn between<R: MotionRecord<D, Key = K>>(
        p: &SnapshotQuery<D>,
        q: &SnapshotQuery<D>,
    ) -> Option<Self> {
        let (t_p, t_q) = (p.time.hi, q.time.lo);
        if t_p < t_q {
            Some(Discard::Moved {
                window: p.window,
                query: q.window,
                t_p,
                inv_dt: 1.0 / (t_q - t_p),
                reach: (q.time.hi - t_p).next_up(),
                t: t_p.abs().max(t_q.abs()),
            })
        } else if q.time.hi == f64::INFINITY && p.time.contains_interval(&q.time) {
            Some(Discard::Lemma1(R::query_key(p)))
        } else {
            None
        }
    }

    /// Whether the child keyed `r`, unwritten since `P` ran, whose
    /// records' starts and speeds `bound` bounds, holds nothing `q`
    /// matches that `P` did not.
    #[inline]
    fn skips(&self, q: &K, r: &K, bound: PageBound) -> bool {
        match self {
            Discard::Lemma1(p) => discardable(p, q, r),
            Discard::Moved {
                window,
                query,
                t_p,
                inv_dt,
                reach,
                t,
            } => {
                let speed = f64::from(bound.speed);
                // NaN for a still page under an open-ended `Q` (0 · ∞):
                // `max` and `min` then keep `R`'s own side.
                let rho = (speed * reach).next_up();
                f64::from(bound.start) <= *t_p
                    && (0..D).all(|a| {
                        let (r_lo, r_hi, qa) = (r.axis_lo(a), r.axis_hi(a), &query.dims[a]);
                        let side = (r_lo.max(qa.lo - rho), r_hi.min(qa.hi + rho));
                        inside_by_margin(&window.dims[a], (r_lo, r_hi), side, speed, *inv_dt, *t)
                    })
            }
        }
    }
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
        }
    }

    /// True iff a previous query is available for discarding.
    pub fn has_previous(&self) -> bool {
        self.prev.is_some()
    }

    /// Evaluate snapshot `q`, emitting only objects **not** returned by
    /// the previous snapshot, over whatever `tree` holds now: records
    /// inserted since the previous snapshot are tested afresh.
    ///
    /// Generic over the index layout ([`MotionRecord`]): run it over the
    /// double-temporal-axes tree (the paper's choice, Fig. 5(b)) or the
    /// plain NSI tree.
    pub fn execute<R: MotionRecord<D>, S: PageStore>(
        &mut self,
        tree: &RTree<R, S>,
        q: &SnapshotQuery<D>,
        emit: impl FnMut(&R),
    ) -> QueryStats {
        let mut stats = QueryStats::default();
        self.try_execute_with(tree, q, &mut stats, |_| true, emit)
            .unwrap_or_else(|e| panic!("unrecoverable storage error: {e}"));
        stats
    }

    /// Fallible form of [`Self::execute`], for a caller that knows more
    /// about what was inserted since the previous query than the node
    /// stamps do (`|_| true` knows nothing more). A read error
    /// mid-descent ([`RTree::try_read_node`]) surfaces as `Err` carrying
    /// the failing page. Objects emitted before the fault are valid
    /// answers of `q`; the previous-query state is **not** advanced
    /// (partial coverage cannot serve as the discard baseline), so
    /// re-executing a later snapshot will re-derive the delta against the
    /// last *completed* query — possibly re-emitting some of this frame's
    /// partial results, never losing any. The cost is counted into
    /// `stats` as it accrues, so a failed query's reads are not lost with
    /// it.
    ///
    /// A record in a node written since the previous query is suppressed
    /// as seen when that query matched it and `maybe_new` says it is not
    /// new. A record in an unwritten node that the previous query matched
    /// is suppressed whatever `maybe_new` says.
    pub fn try_execute_with<R: MotionRecord<D>, S: PageStore>(
        &mut self,
        tree: &RTree<R, S>,
        q: &SnapshotQuery<D>,
        stats: &mut QueryStats,
        mut maybe_new: impl FnMut(&R) -> bool,
        mut emit: impl FnMut(&R),
    ) -> Result<(), StorageError> {
        let qkey = R::query_key(q);
        // The rule `P` lends, and the record count it saw: a page stamped
        // above it was written since.
        let discard = self
            .prev
            .and_then(|(p, seen)| Some((Discard::<R::Key, D>::between::<R>(&p, q)?, seen)));

        // Depth-first traversal; the stack is engine-owned scratch, reused
        // across per-frame executions.
        let mut stack = std::mem::take(&mut self.stack);
        stack.clear();
        stack.push((tree.root_page(), tree.height() - 1));
        while let Some((page, level)) = stack.pop() {
            // Zero-copy visit: header parsed once, entries decoded lazily.
            let node = match tree.try_read_node(page, level) {
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
            if level == 0 {
                stats.leaf_accesses += 1;
            }
            if node.is_leaf() {
                // §4.2 stamp check: if an insert wrote this leaf after the
                // previous query ran, a record in it may be new to it.
                let (prev, clean) = match &self.prev {
                    Some((p, seen)) => (Some(p), tree.page_bound(page).stamp <= *seen),
                    None => (None, false),
                };
                for rec in node.leaf_records() {
                    stats.distance_computations += 1;
                    if !rec.key().overlaps(&qkey) || !q.matches_segment(rec.segment()) {
                        continue;
                    }
                    // Already returned by the previous query?
                    if prev.is_some_and(|p| {
                        (clean || !maybe_new(&rec)) && p.matches_segment(rec.segment())
                    }) {
                        continue;
                    }
                    stats.results += 1;
                    emit(&rec);
                }
            } else {
                for (key, child) in node.internal_entries() {
                    stats.distance_computations += 1;
                    if !key.overlaps(&qkey) {
                        continue;
                    }
                    // Judged by the child's own stamp and bounds (module
                    // doc), whatever wrote its siblings.
                    if discard.as_ref().is_some_and(|(d, seen)| {
                        let bound = tree.page_bound(child);
                        bound.stamp <= *seen && d.skips(&qkey, &key, bound)
                    }) {
                        // Pruned without loading: the I/O the previous
                        // query paid for.
                        stats.subtrees_discarded += 1;
                        continue;
                    }
                    stack.push((child, level - 1));
                }
            }
        }
        self.stack = stack;
        self.prev = Some((*q, tree.len()));
        Ok(())
    }
}

/// Lemma 1: `R` is discardable iff `(Q ∩ R) ⊆ P`, for any key layout.
pub fn discardable<K: Key>(p: &K, q: &K, r: &K) -> bool {
    p.contains(&q.intersect(r))
}

/// The motion-bounded rule's spatial half on one axis (module doc): the
/// side `[lo, hi]` clipped from an entry spanning `[r_lo, r_hi]` lies
/// inside the window's side `p` by the rounding margin, for records no
/// faster than `speed` that live at least `1 / inv_dt`, and a query time
/// of magnitude at most `t`.
#[inline]
fn inside_by_margin(
    p: &Interval,
    (r_lo, r_hi): (f64, f64),
    (lo, hi): (f64, f64),
    speed: f64,
    inv_dt: f64,
    t: f64,
) -> bool {
    let speed = speed.min((r_hi - r_lo) * inv_dt);
    let line = 3.0 * r_lo.abs().max(r_hi.abs()) + 2.0 * speed * t;
    p.lo + REACH_SLACK * (p.lo.abs() + line) <= lo && hi + REACH_SLACK * (p.hi.abs() + line) <= p.hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use rtree::bulk::bulk_load;
    use rtree::{DtaSegmentRecord, NsiSegmentRecord, RTree, RTreeConfig, Record};
    use storage::Pager;
    use stkit::{Interval, Rect, StBox};

    type R = DtaSegmentRecord<2>;

    /// Stationary grid: object (i, j) at (i+0.5, j+0.5), alive [0, 100].
    fn grid_records(n: u32) -> Vec<R> {
        (0..n * n)
            .map(|k| {
                let x = (k % n) as f64 + 0.5;
                let y = (k / n) as f64 + 0.5;
                R::new(k, 0, Interval::new(0.0, 100.0), [x, y], [x, y])
            })
            .collect()
    }

    /// [`grid_records`] packed over every key axis.
    fn grid_tree(n: u32) -> RTree<R, Pager> {
        bulk_load(Pager::new(), RTreeConfig::default(), grid_records(n))
    }

    /// [`grid_records`] packed on space alone: leaves are compact
    /// rectangles, so an instant query's window can hold whole ones.
    fn spatial_grid_tree(n: u32) -> RTree<R, Pager> {
        let config = RTreeConfig {
            bulk_leading_axes: Some(2),
            ..RTreeConfig::default()
        };
        bulk_load(Pager::new(), config, grid_records(n))
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
    fn high_overlap_costs_less_io() {
        let tree = spatial_grid_tree(40);
        // Large window stepping slightly (99 % overlap) vs jumping fully.
        let mut eng_hi = NpdqEngine::new();
        let mut eng_lo = NpdqEngine::new();
        let q0 = SnapshotQuery::at_instant(win(5.0, 5.0, 20.0), 1.0);
        let hi_first = eng_hi.execute(&tree, &q0, |_| {});
        let lo_first = eng_lo.execute(&tree, &q0, |_| {});
        assert_eq!(hi_first.disk_accesses, lo_first.disk_accesses);
        let q_hi = SnapshotQuery::at_instant(win(5.2, 5.0, 20.0), 1.1);
        let q_lo = SnapshotQuery::at_instant(win(30.0, 30.0, 8.0), 1.1);
        let hi = eng_hi.execute(&tree, &q_hi, |_| {});
        let lo = eng_lo.execute(&tree, &q_lo, |_| {});
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
        eng.execute(&tree, &q1, |_| {});
        let mut with_prev = Vec::new();
        let npdq_stats = eng.execute(&tree, &q2, |r| with_prev.push(r.oid));
        // …vs a fresh evaluation of q2.
        let mut fresh_eng = NpdqEngine::new();
        let mut fresh = Vec::new();
        let fresh_stats = fresh_eng.execute(&tree, &q2, |r| fresh.push(r.oid));
        with_prev.sort_unstable();
        fresh.sort_unstable();
        assert_eq!(with_prev, fresh, "no overlap ⇒ identical results");
        // "Neither does it cause harm": leaf I/O identical. (Internal
        // nodes whose region spans both windows may still be pruned or
        // kept identically.)
        assert_eq!(npdq_stats.disk_accesses, fresh_stats.disk_accesses);
    }

    #[test]
    fn a_past_stamped_insert_under_the_previous_query_is_delivered() {
        // An object inserted after P ran, inside Q ∩ P, alive at both
        // instants: P's predicate matches it, but P never saw it. Its
        // motion and the `now` it is inserted with (ignored) both lie
        // before P's instant; a stamp taken from that clock read its leaf
        // as untouched since P, and Q suppressed the object for good.
        let mut tree = grid_tree(20);
        let mut eng = NpdqEngine::new();
        let q1 = SnapshotQuery::at_instant(win(2.0, 2.0, 6.0), 1.0);
        eng.execute(&tree, &q1, |_| {});
        let rec = R::new(9999, 0, Interval::new(0.0, 100.0), [4.0, 4.0], [4.0, 4.0]);
        assert!(q1.matches_segment(rec.segment()));
        tree.insert(rec, 0.0);
        let q2 = SnapshotQuery::at_instant(win(2.0, 2.0, 6.0), 1.2);
        let mut got = Vec::new();
        eng.execute(&tree, &q2, |r| got.push(r.oid));
        // The leaf it went into is re-read whole: §4.2 may repeat objects.
        assert!(got.contains(&9999), "the insert is new to q2: {got:?}");
    }

    #[test]
    fn without_updates_identical_region_returns_nothing() {
        let tree = spatial_grid_tree(20);
        let mut eng = NpdqEngine::new();
        let q1 = SnapshotQuery::at_instant(win(0.0, 0.0, 20.0), 1.0);
        let q2 = SnapshotQuery::at_instant(win(0.0, 0.0, 20.0), 1.1);
        eng.execute(&tree, &q1, |_| {});
        let mut got = Vec::new();
        let stats = eng.execute(&tree, &q2, |r| got.push(r.oid));
        assert!(got.is_empty(), "fully covered query returns nothing new");
        // And it touches almost nothing below the root.
        assert!(stats.leaf_accesses == 0, "leaf I/O should be fully pruned");
    }

    #[test]
    fn an_object_entering_an_unchanged_window_is_delivered() {
        // 3 000 stationary points and object 1, which crosses x ∈ [0, 10]
        // over [0, 10]: outside [6, 9] at t = 1, inside at t = 7. Every
        // leaf started by t = 1 and `(Q ∩ R).space` is the window itself,
        // so Lemma 1 discarded the mover's leaf and lost it.
        let mut recs: Vec<R> = (0..3000u32)
            .map(|k| {
                let (x, y) = (f64::from(k % 60) / 6.0 + 0.05, f64::from(k / 60) / 5.0 + 0.1);
                R::new(k + 2, 0, Interval::new(0.0, 100.0), [x, y], [x, y])
            })
            .collect();
        recs.push(R::new(1, 0, Interval::new(0.0, 10.0), [0.0, 5.0], [10.0, 5.0]));
        let tree = bulk_load(Pager::new(), RTreeConfig::default(), recs);
        let window = Rect::from_corners([6.0, 0.0], [9.0, 10.0]);
        let mut eng = NpdqEngine::new();
        let mut first = Vec::new();
        eng.execute(&tree, &SnapshotQuery::at_instant(window, 1.0), |r| first.push(r.oid));
        assert!(!first.contains(&1));
        let mut got = Vec::new();
        eng.execute(&tree, &SnapshotQuery::at_instant(window, 7.0), |r| got.push(r.oid));
        assert_eq!(got, vec![1], "the newly visible set at t = 7");
    }

    #[test]
    fn a_child_off_its_level_is_corrupt() {
        // The root's first entry points at a leaf, keys untouched: the
        // leaf is expected one level up.
        let tree = bulk_load(Pager::with_page_size(256), RTreeConfig::default(), grid_records(15));
        let leaf = crate::knn::tests::a_leaf_under_the_root(&tree);
        let q = SnapshotQuery::at_instant(win(0.0, 0.0, 15.0), 1.0);
        let res = NpdqEngine::new().try_execute_with(&tree, &q, &mut QueryStats::default(), |_| true, |_| {});
        assert_eq!(res, Err(StorageError::Corrupt { page: leaf }));
    }

    /// One draw of the skip property: a record, a box holding it with
    /// its latest start and a bound on its speed, and the previous and
    /// current query.
    #[derive(Clone, Copy, Debug)]
    struct SkipCase {
        rec: NsiSegmentRecord<2>,
        bx: StBox<2, 1>,
        latest: f64,
        speed: f32,
        p: SnapshotQuery<2>,
        q: SnapshotQuery<2>,
    }

    impl SkipCase {
        /// The engine's child test for `bx`, unwritten since `p`, as the
        /// engine runs it.
        fn skips(&self) -> bool {
            let rule = Discard::between::<NsiSegmentRecord<2>>(&self.p, &self.q)
                .expect("q follows p");
            let q = self.q.nsi_key();
            let bound = PageBound {
                start: self.latest as f32,
                speed: self.speed,
                stamp: 0,
            };
            self.bx.overlaps(&q) && rule.skips(&q, &self.bx, bound)
        }

        /// Skipping `bx` must lose nothing: whatever `q` matches in it,
        /// `p` matched. Returns whether the case tested that.
        fn check(&self) -> Result<bool, String> {
            if !self.skips() || !self.q.matches_segment(&self.rec.seg) {
                return Ok(false);
            }
            if self.p.matches_segment(&self.rec.seg) {
                Ok(true)
            } else {
                Err(format!("skipped a record p never matched: {self:?}"))
            }
        }
    }

    /// `x` moved `k` steps along the `f32` grid.
    fn f32_steps(x: f64, k: i32) -> f64 {
        let mut y = x as f32;
        for _ in 0..k.unsigned_abs() {
            y = if k > 0 { y.next_up() } else { y.next_down() };
        }
        f64::from(y)
    }

    /// A speed bound for `rec`'s box: mostly its own speed, which it runs
    /// at, sometimes a looser one or none.
    fn draw_speed(rng: &mut ChaCha8Rng, rec: &NsiSegmentRecord<2>) -> f32 {
        let own = rtree::stbox_key::f32_up(rec.speed_bound());
        match rng.gen_range(0..8) {
            0 => f32::INFINITY,
            1 => own * rng.gen_range(1.0..4.0) as f32,
            _ => own,
        }
    }

    fn draw_skip_case(rng: &mut ChaCha8Rng) -> SkipCase {
        let pick = |rng: &mut ChaCha8Rng, xs: &[f64]| xs[rng.gen_range(0..xs.len())];
        let q32 = |x: f64| f64::from(x as f32);
        // Space and time at small and large magnitudes.
        let mag = pick(rng, &[1.0, 1e3, 1e6, 3e7]);
        let tmag = pick(rng, &[1.0, 1e2, 1e4, 1e6]);
        let t0 = q32(rng.gen_range(-tmag..tmag));
        // Lifetimes from a blink to long, reaches from none to half the
        // magnitude: short, long reaches are the fast movers.
        let life = pick(rng, &[1e-4, 1e-2, 1.0, 1e2]) * rng.gen_range(0.5..2.0);
        let t1 = f32_steps(t0 + life, 1);
        let reach = mag * pick(rng, &[0.0, 1e-6, 1e-3, 0.5]);
        // Some motions start near the origin and travel far: there a
        // line's intercept dwarfs its start and the solve strays most.
        let near = pick(rng, &[1.0, 1e-6]);
        let c = [0, 1].map(|_| rng.gen_range(-mag..mag) * near);
        let from_c = rng.gen_bool(0.5);
        let mut end = |c: f64| c + rng.gen_range(-1.0..1.0) * reach;
        let b = [end(c[0]), end(c[1])];
        let a = if from_c { c } else { [end(c[0]), end(c[1])] };
        let rec = NsiSegmentRecord::new(0, 0, Interval::new(t0, t1), a, b);
        // The box: the record's page key, each side grown by some steps.
        let mut buf = Vec::new();
        rec.key().encode(&mut buf);
        let mut bx = StBox::<2, 1>::decode(&buf);
        for d in &mut bx.space.dims {
            let grow = |rng: &mut ChaCha8Rng| pick(rng, &[0.0, 0.0, 0.0, 1.0, 4.0, 1e3]) as i32;
            d.lo = f32_steps(d.lo, -grow(rng));
            d.hi = f32_steps(d.hi, grow(rng));
        }
        let latest = if rng.gen_bool(0.8) { t0 } else { f32_steps(t0, 3) };
        // `t_P` at the start, inside the life, or before it; `t_Q` later.
        let t_p = match rng.gen_range(0..4) {
            0 => t0,
            1 => q32(t0 - rng.gen_range(0.0..1.0) * life),
            _ => q32(t0 + rng.gen_range(0.0..1.0) * (t1 - t0)),
        };
        let t_q = q32(t_p + rng.gen_range(0.0..1.0) * (t1 - t_p).max(life)).max(f32_steps(t_p, 1));
        // `P`'s window: the box's sides moved out by 0 or a few steps, by
        // a slack-sized gap, or in.
        let mut window = bx.space;
        for d in &mut window.dims {
            let slack = REACH_SLACK * (mag + reach / life * tmag) * rng.gen_range(0.0..8.0);
            let side = |rng: &mut ChaCha8Rng, x: f64, out: i32| match rng.gen_range(0..5) {
                0 => x,
                1 => f32_steps(x, out),
                2 => f32_steps(x, out * rng.gen_range(2..64)),
                3 => f32_steps(x + f64::from(out) * slack, out),
                _ => f32_steps(x - f64::from(out) * rng.gen_range(0.0..1.0) * (d.hi - d.lo), -out),
            };
            (d.lo, d.hi) = (side(rng, d.lo, -1), side(rng, d.hi, 1));
        }
        let p = SnapshotQuery::at_instant(window, t_p);
        // `Q`'s window: `P`'s, the box, or one around the record at `t_Q`.
        let qwin = match rng.gen_range(0..3) {
            0 => window,
            1 => bx.space,
            _ => {
                let at = rec.seg.position_clamped(t_q);
                let r = reach.max(1e-3 * mag);
                Rect::from_corners([at[0] - r, at[1] - r], [at[0] + r, at[1] + r])
            }
        };
        let speed = draw_speed(rng, &rec);
        SkipCase { rec, bx, latest, speed, p, q: SnapshotQuery::at_instant(qwin, t_q) }
    }

    /// A box that overhangs `P`'s window on one side of axis 0, a `Q`
    /// window that moves towards that side but stays inside `P`'s, and a
    /// record that runs at its box's speed bound: from the overhang into
    /// `Q` (which `P` missed, so the box must not be skipped), or inside
    /// `P` all along (where skipping is sound, and tight when `Q` is).
    fn draw_overhang_case(rng: &mut ChaCha8Rng) -> SkipCase {
        let pick = |rng: &mut ChaCha8Rng, xs: &[f64]| xs[rng.gen_range(0..xs.len())];
        let q32 = |x: f64| f64::from(x as f32);
        let mag = pick(rng, &[1.0, 1e3, 1e6]);
        let tmag = pick(rng, &[1.0, 1e2, 1e4]);
        let t_p = q32(rng.gen_range(-tmag..tmag));
        let dt = pick(rng, &[1e-3, 1e-1, 1.0, 10.0]) * rng.gen_range(0.5..2.0);
        let t_q = q32(t_p + dt).max(f32_steps(t_p, 1));
        let dt = t_q - t_p;
        // `P`'s window, and `Q`'s: shrunk, then moved towards the
        // overhang side (`side` = -1: low, +1: high) within `P`'s.
        let w = mag * pick(rng, &[1e-3, 1e-2, 0.1]);
        let c = [0, 1].map(|_| q32(rng.gen_range(-mag..mag)));
        let window = Rect::from_corners([c[0] - w, c[1] - w], [c[0] + w, c[1] + w]);
        let side = if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
        let shrink = w * rng.gen_range(0.0..0.5);
        let shift = side * rng.gen_range(0.0..1.0) * shrink;
        let qwin = Rect::from_corners(
            [q32(c[0] - w + shrink + shift), q32(c[1] - w + shrink)],
            [q32(c[0] + w - shrink + shift), q32(c[1] + w - shrink)],
        );
        // The record on axis 0: at `t_Q` somewhere in `Q`; at `t_P` in the
        // overhang, a little or far past `P`'s edge, or inside `P`.
        let edge = if side < 0.0 { window.dims[0].lo } else { window.dims[0].hi };
        let x_q = rng.gen_range(qwin.dims[0].lo..=qwin.dims[0].hi);
        let x_p = match rng.gen_range(0..3) {
            0 => edge + side * w * pick(rng, &[1e-6, 1e-4, 1e-2, 0.5]),
            1 => f32_steps(edge, side as i32 * rng.gen_range(1..64)),
            _ => rng.gen_range(window.dims[0].lo..=window.dims[0].hi),
        };
        let y = rng.gen_range(qwin.dims[1].lo..=qwin.dims[1].hi);
        let v = (x_q - x_p) / dt;
        // Alive over `[t_P, t_Q]` and some way either side.
        let (before, after) = (rng.gen_range(0.0..1.0) * dt, rng.gen_range(0.0..1.0) * dt);
        let (t0, t1) = (q32(t_p - before).min(t_p), q32(t_q + after).max(t_q));
        let rec = NsiSegmentRecord::new(
            0,
            0,
            Interval::new(t0, t1),
            [x_p + v * (t0 - t_p), y],
            [x_p + v * (t1 - t_p), y],
        );
        // The box: the record's key, grown past `P`'s edge on the
        // overhang side when it does not reach there already.
        let mut buf = Vec::new();
        rec.key().encode(&mut buf);
        let mut bx = StBox::<2, 1>::decode(&buf);
        let d = &mut bx.space.dims[0];
        if side < 0.0 {
            d.lo = d.lo.min(f32_steps(edge - w * rng.gen_range(0.0..1.0), -1));
        } else {
            d.hi = d.hi.max(f32_steps(edge + w * rng.gen_range(0.0..1.0), 1));
        }
        let speed = draw_speed(rng, &rec);
        SkipCase {
            rec,
            bx,
            latest: t0,
            speed,
            p: SnapshotQuery::at_instant(window, t_p),
            q: SnapshotQuery::at_instant(qwin, t_q),
        }
    }

    #[test]
    fn a_skipped_subtree_holds_nothing_the_previous_query_missed() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5eed);
        let mut tested = 0u32;
        for _ in 0..100_000 {
            tested += u32::from(draw_skip_case(&mut rng).check().unwrap());
        }
        assert!(tested > 2_000, "only {tested} draws skipped a box q matches in");
        // Boxes that overhang `P`'s window, records at their speed bound.
        let (mut overhung, mut missed) = (0u32, 0u32);
        for _ in 0..100_000 {
            let case = draw_overhang_case(&mut rng);
            overhung += u32::from(case.check().unwrap());
            missed += u32::from(case.q.matches_segment(&case.rec.seg) && !case.p.matches_segment(&case.rec.seg));
        }
        assert!(overhung > 2_000, "only {overhung} overhanging boxes were skipped");
        assert!(missed > 2_000, "only {missed} records ran from the overhang into q");
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
        eng.execute(&tree, &q1, |r| {
            baseline.insert(r.oid);
        });
        assert!(eng.has_previous());

        tree.store().set_enabled(true);
        let q2 = SnapshotQuery::at_instant(win(3.0, 2.0, 6.0), 1.1);
        let mut emitted = std::collections::HashSet::new();
        let mut errors = 0u32;
        let stats = loop {
            let mut stats = QueryStats::default();
            match eng.try_execute_with(&tree, &q2, &mut stats, |_| true, |r| {
                emitted.insert(r.oid);
            }) {
                Ok(()) => break stats,
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
            oracle.execute(&clean, &q1, |_| {});
            let mut out = std::collections::HashSet::new();
            oracle.execute(&clean, &q2, |r| {
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
