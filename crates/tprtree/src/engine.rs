//! Dynamic queries over the TPR-tree — future work (iii) realized.
//!
//! The §4.1 best-first algorithm transfers unchanged, so it is not
//! written again: [`TprDynamicQuery`] is `mobiquery`'s [`PdqEngine`] run
//! over [`TprRecord`]s. What this module adds is the one piece of new
//! geometry — the overlap time of a linearly-moving query window with a
//! linearly-moving bounding rectangle ([`overlap_window_tpbox`]), still
//! a conjunction of linear inequalities — and the [`PdqRecord`] impl
//! that hands it to the engine.

use crate::record::TprRecord;
use crate::tpbox::TpBox;
use mobiquery::{PdqEngine, PdqRecord, PdqResult, Trajectory};
use stkit::{Interval, MovingWindow, Rect, TimeSet};

/// Overlap time of one trapezoid trajectory segment with a
/// time-parameterized box: `window.hi_i(t) ≥ box.lo_i(t)` and
/// `window.lo_i(t) ≤ box.hi_i(t)` for both axes, within both validities.
pub fn overlap_window_tpbox(w: &MovingWindow<2>, b: &TpBox) -> Interval {
    let mut t = w.span.intersect(&b.active);
    for i in 0..2 {
        if t.is_empty() {
            return Interval::EMPTY;
        }
        t = t.intersect(&w.hi[i].solve_ge_form(&b.axes[i].lo_form()));
        t = t.intersect(&w.lo[i].solve_le_form(&b.axes[i].hi_form()));
    }
    t
}

/// Overlap time set of a whole trajectory with a time-parameterized box:
/// the union over the pieces alive during `b.active`. Where a moving box
/// can be over its lifetime is not free to bound, so pieces are pruned by
/// time alone.
pub fn overlap_trajectory_tpbox(traj: &Trajectory<2>, b: &TpBox) -> TimeSet {
    traj.overlap_by(&b.active, &Rect::ALL, |s| overlap_window_tpbox(s, b))
}

/// A running dynamic query over a TPR-tree.
pub type TprDynamicQuery = PdqEngine<2, TprRecord>;

/// One answer: the moving point plus its visibility time set.
pub type TprResult = PdqResult<2, TprRecord>;

/// A moving point is its own (degenerate) bounding box, so the
/// record-side default — the overlap of `self.key()` — is exact.
impl PdqRecord<2> for TprRecord {
    #[inline]
    fn identity(&self) -> (u32, u32) {
        (self.oid, self.seq)
    }

    #[inline]
    fn key_lifetime(key: &TpBox) -> Interval {
        key.active
    }

    fn key_overlap(key: &TpBox, traj: &Trajectory<2>) -> TimeSet {
        overlap_trajectory_tpbox(traj, key)
    }

    #[inline]
    fn lifetime(&self) -> Interval {
        self.active
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree::{Inserted, RTree, RTreeConfig};
    use std::collections::HashSet;
    use storage::Pager;
    use stkit::Rect;

    /// n objects moving right at speed 1, object i starting at (i, 0.5).
    fn tree(n: u32) -> RTree<TprRecord, Pager> {
        let mut t = RTree::new(Pager::new(), RTreeConfig::default());
        for i in 0..n {
            t.insert(
                TprRecord::new(
                    i,
                    0,
                    Interval::new(0.0, 100.0),
                    [i as f64, 0.5],
                    [1.0, 0.0],
                ),
                0.0,
            );
        }
        t
    }

    #[test]
    fn co_moving_window_keeps_one_object() {
        // Window moving right at speed 1 starting around object 5.
        let tr = tree(10);
        let traj = Trajectory::linear(
            Rect::from_corners([4.6, 0.0], [5.4, 1.0]),
            [1.0, 0.0],
            Interval::new(0.0, 50.0),
            2,
        );
        let mut q = TprDynamicQuery::start(&tr, traj);
        let results = q.drain_window(&tr, 0.0, 50.0);
        assert_eq!(results.len(), 1, "only the co-moving object stays");
        assert_eq!(results[0].record.oid, 5);
        assert_eq!(results[0].visibility.hull(), Interval::new(0.0, 50.0));
    }

    #[test]
    fn io_bounded_and_no_duplicates() {
        let tr = tree(2000);
        let inv = tr.validate().unwrap();
        let traj = Trajectory::linear(
            Rect::from_corners([500.0, 0.0], [510.0, 1.0]),
            [0.0, 0.0],
            Interval::new(0.0, 20.0),
            2,
        );
        let mut q = TprDynamicQuery::start(&tr, traj);
        let mut seen = HashSet::new();
        let mut t = 0.0;
        while t < 20.0 {
            for r in q.drain_window(&tr, t, t + 0.5) {
                assert!(seen.insert((r.record.oid, r.record.seq)));
            }
            t += 0.5;
        }
        assert!(q.stats().disk_accesses <= inv.nodes);
        assert!(!seen.is_empty());
    }

    #[test]
    fn coincident_entries_pop_in_id_order() {
        // Five objects on one spot enter the view at the same instant;
        // they must pop in id order whatever order the heap took them in.
        let mut tr: RTree<TprRecord, Pager> = RTree::new(Pager::new(), RTreeConfig::default());
        for i in (0..5).rev() {
            tr.insert(TprRecord::new(i, 0, Interval::new(0.0, 100.0), [10.5, 0.5], [0.0, 0.0]), 0.0);
        }
        let traj = Trajectory::linear(
            Rect::from_corners([0.0, 0.0], [1.0, 1.0]),
            [1.0, 0.0],
            Interval::new(0.0, 50.0),
            2,
        );
        let mut q = TprDynamicQuery::start(&tr, traj);
        let oids: Vec<u32> = q.drain_window(&tr, 0.0, 50.0).iter().map(|r| r.record.oid).collect();
        assert_eq!(oids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn stale_reports_do_not_grow_the_queue() {
        let mut tr = tree(50);
        let traj = Trajectory::linear(
            Rect::from_corners([60.0, 0.0], [61.0, 1.0]),
            [0.0, 0.0],
            Interval::new(0.0, 50.0),
            2,
        );
        let mut q = TprDynamicQuery::start(&tr, traj);
        for k in 0..30 {
            let _ = q.drain_window(&tr, k as f64, k as f64 + 1.0);
        }
        let before = q.queue_len();
        // Motions parked inside the window whose validity ended at
        // t = 20, reported at t = 30: the application will never ask for
        // them. Only a split's subtree report, whose box also covers
        // moved live entries, may enqueue anything.
        let mut subtree_reports = 0;
        for i in 0..200u32 {
            let rec = TprRecord::new(20_000 + i, 0, Interval::new(0.0, 20.0), [60.5, 0.5], [0.0, 0.0]);
            let report = tr.insert(rec, 30.0);
            subtree_reports += usize::from(matches!(report.notify, Inserted::Subtree { .. }));
            q.notify(&report);
        }
        let after = q.queue_len();
        assert!(
            after <= before + subtree_reports,
            "queue grew from {before} to {after} with only {subtree_reports} splits"
        );
        let rest = q.drain_window(&tr, 30.0, 50.0);
        assert!(rest.iter().all(|r| r.record.oid < 20_000));
    }

    #[test]
    fn storage_faults_surface_as_errors_and_heal() {
        use storage::{FaultPlan, FaultyStore};
        // 256-byte pages: many nodes, so many fallible reads. Built with
        // injection paused; no pool, so faults reach the engine raw.
        let faulty = FaultyStore::new(Pager::with_page_size(256), FaultPlan::transient(3, 0.4));
        faulty.set_enabled(false);
        let mut tr = RTree::new(faulty, RTreeConfig::default());
        for i in 0..60 {
            tr.insert(TprRecord::new(i, 0, Interval::new(0.0, 100.0), [i as f64, 0.5], [1.0, 0.0]), 0.0);
        }
        let traj = Trajectory::linear(
            Rect::from_corners([70.0, 0.0], [71.0, 1.0]),
            [0.0, 0.0],
            Interval::new(0.0, 80.0),
            2,
        );
        let mut q = TprDynamicQuery::start(&tr, traj);
        tr.store().set_enabled(true);
        let mut got = Vec::new();
        let err = q.try_drain_window_into(&tr, 0.0, 80.0, &mut got).unwrap_err();
        assert!(err.is_transient());
        // The failed node went back on the queue: once the device heals,
        // the same engine delivers the rest, and nothing twice.
        tr.store().set_enabled(false);
        q.try_drain_window_into(&tr, 0.0, 80.0, &mut got).unwrap();
        let mut oids: Vec<u32> = got.iter().map(|r| r.record.oid).collect();
        oids.sort_unstable();
        assert_eq!(oids, (0..60).collect::<Vec<u32>>());
        assert_eq!(q.stats().duplicates_skipped, 0, "a retry is not a duplicate");
    }

}
