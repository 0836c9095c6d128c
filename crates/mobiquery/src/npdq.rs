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
//!   that start after `P` ends use the **latest-start rule**. Lemma 1 is
//!   unsound for them: a key bounds its records' whole motion, so a
//!   record can lie outside `P`'s window at `t_P` and inside `Q ∩ R` at
//!   `t_Q`. With `t_P` the end of `P` and `t_Q > t_P` the start of `Q`, a
//!   child `R` is skipped when
//!   1. every record under `R` started by `t_P`
//!      ([`RTree::latest_start`], a bound the tree keeps per page, so no
//!      key layout has to carry it), and
//!   2. `R.space` — not `(Q ∩ R).space` — lies inside `P.window`, by a
//!      rounding margin on every side.
//!
//!   A record under `R` that `Q` matches is alive at `t_Q` and started by
//!   `t_P`, so it is alive at `t_P`, where its position lies in its
//!   bounding box, inside `R.space`, inside `P.window`: `P` matched it.
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
//! speed is at most `v_i = width_i(R) / (t_Q − t_P)`; with `M_i` the
//! larger magnitude of `R`'s bounds on the axis,
//! `|a| = |x₀ − b·t₀| ≤ M_i + width_i(R) + v_i·T ≤ 3·M_i + v_i·T`. So `R`
//! is inside when `P.lo_i + REACH_SLACK · (|P.lo_i| + 3·M_i + 2·v_i·T) ≤
//! R.lo_i`, and likewise at the top. A stationary record (`b = 0`) is
//! solved exactly, so an ulp would do for it; a fast, short-lived one
//! needs the speed term.
//!
//! Update management uses node stamps (§4.2): every insertion stamps the
//! nodes it writes with its ordinal, the tree's record count after it
//! ([`rtree::NodeRef::stamp`]), and the engine remembers the count the
//! previous query saw. A visited node stamped above that count was
//! written since the previous query ran, so the previous query's result
//! can no longer be trusted for that subtree: no child of it is
//! discarded, and a record in it that may be new
//! ([`NpdqEngine::try_execute_with`]'s `maybe_new`) is tested afresh. The
//! order is the tree's own, so no caller's clock can make a fresh insert
//! look old.

use crate::layout::MotionRecord;
use crate::snapshot::SnapshotQuery;
use crate::stats::QueryStats;
use rtree::{Key, RTree};
use stkit::linear::REACH_SLACK;
use stkit::Rect;
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
    /// `Q` starts after `P` ended at `t_p`: the latest-start rule
    /// against `P`'s window, for records that live at least
    /// `1 / inv_dt` and a query time of magnitude at most `t`.
    Started {
        window: Rect<D>,
        t_p: f64,
        inv_dt: f64,
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
            Some(Discard::Started {
                window: p.window,
                t_p,
                inv_dt: 1.0 / (t_q - t_p),
                t: t_p.abs().max(t_q.abs()),
            })
        } else if q.time.hi == f64::INFINITY && p.time.contains_interval(&q.time) {
            Some(Discard::Lemma1(R::query_key(p)))
        } else {
            None
        }
    }

    /// Whether the child keyed `r`, every record under which started by
    /// `latest()`, holds nothing `q` matches that `P` did not.
    fn skips(&self, q: &K, r: &K, latest: impl FnOnce() -> f64) -> bool {
        match self {
            Discard::Lemma1(p) => discardable(p, q, r),
            Discard::Started {
                window,
                t_p,
                inv_dt,
                t,
            } => {
                latest() <= *t_p
                    && window.dims.iter().enumerate().all(|(a, w)| {
                        inside_by_margin(w.lo, w.hi, r.axis_lo(a), r.axis_hi(a), *inv_dt, *t)
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
        let discard = self
            .prev
            .and_then(|(p, _)| Discard::<R::Key, D>::between::<R>(&p, q));

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
            // §4.2 stamp check: if an insert wrote this node after the
            // previous query ran, its children may contain unseen data —
            // the previous query cannot be used to discard them.
            let (prev, clean) = match &self.prev {
                Some((p, plen)) => (Some(p), node.stamp() <= *plen),
                None => (None, false),
            };
            if node.is_leaf() {
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
                let discard = discard.as_ref().filter(|_| clean);
                for (key, child) in node.internal_entries() {
                    stats.distance_computations += 1;
                    if !key.overlaps(&qkey) {
                        continue;
                    }
                    if discard.is_some_and(|d| d.skips(&qkey, &key, || tree.latest_start(child))) {
                        // Pruned without loading: the I/O the previous
                        // query paid for.
                        stats.subtrees_discarded += 1;
                        obs::trace(obs::TraceEvent::QueueOp {
                            op: obs::QueueOpKind::Discard,
                            depth: stack.len() as u32,
                        });
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

/// The latest-start rule's spatial half on one axis (module doc): an
/// entry spanning `[r_lo, r_hi]` lies inside the window's `[p_lo, p_hi]`
/// by the rounding margin, for records that live at least `1 / inv_dt`
/// and a query time of magnitude at most `t`.
#[inline]
fn inside_by_margin(p_lo: f64, p_hi: f64, r_lo: f64, r_hi: f64, inv_dt: f64, t: f64) -> bool {
    let speed = (r_hi - r_lo) * inv_dt;
    let line = 3.0 * r_lo.abs().max(r_hi.abs()) + 2.0 * speed * t;
    p_lo + REACH_SLACK * (p_lo.abs() + line) <= r_lo
        && r_hi + REACH_SLACK * (p_hi.abs() + line) <= p_hi
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
    /// its latest start, and the previous and current query.
    #[derive(Clone, Copy, Debug)]
    struct SkipCase {
        rec: NsiSegmentRecord<2>,
        bx: StBox<2, 1>,
        latest: f64,
        p: SnapshotQuery<2>,
        q: SnapshotQuery<2>,
    }

    impl SkipCase {
        /// The engine's child test for `bx`, as the engine runs it.
        fn skips(&self) -> bool {
            let rule = Discard::between::<NsiSegmentRecord<2>>(&self.p, &self.q)
                .expect("q follows p");
            let q = self.q.nsi_key();
            self.bx.overlaps(&q) && rule.skips(&q, &self.bx, || self.latest)
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
        SkipCase { rec, bx, latest, p, q: SnapshotQuery::at_instant(qwin, t_q) }
    }

    #[test]
    fn a_skipped_subtree_holds_nothing_the_previous_query_missed() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5eed);
        let mut tested = 0u32;
        for _ in 0..100_000 {
            tested += u32::from(draw_skip_case(&mut rng).check().unwrap());
        }
        assert!(tested > 2_000, "only {tested} draws skipped a box q matches in");
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
