//! Dynamic queries over the TPR-tree — future work (iii) realized.
//!
//! The §4.1 best-first algorithm transfers unchanged, so it is not
//! written again: [`TprDynamicQuery`] is `mobiquery`'s [`PdqEngine`] run
//! over [`TprRecord`]s. What this module adds is the one piece of new
//! geometry — the overlap time of a linearly-moving query window with a
//! linearly-moving bounding rectangle ([`overlap_window_tpbox`]), still
//! a conjunction of linear inequalities — and the [`PdqRecord`] impl
//! that hands it to the engine.

use crate::batch::TpBoxBatch;
use crate::record::TprRecord;
use crate::tpbox::TpBox;
use mobiquery::{PdqEngine, PdqRecord, PdqResult, Trajectory};
use stkit::{Interval, MovingWindow, TimeSet};

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
/// every piece, one at a time — the scalar reference the batched page
/// solve is held bit-identical to.
pub fn overlap_trajectory_tpbox(traj: &Trajectory<2>, b: &TpBox) -> TimeSet {
    let mut out = TimeSet::empty();
    for s in traj.segments() {
        out.insert(overlap_window_tpbox(s, b));
    }
    out
}

/// A running dynamic query over a TPR-tree.
pub type TprDynamicQuery = PdqEngine<2, TprRecord>;

/// One answer: the moving point plus its visibility time set.
pub type TprResult = PdqResult<2, TprRecord>;

/// A moving point is its own (degenerate) bounding box, so the
/// record-side defaults — overlap and staging of `self.key()` — are
/// exact, and leaves and internal nodes share one batch.
impl PdqRecord<2> for TprRecord {
    type Page = TpBoxBatch;

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
    fn stage_key(key: &TpBox, page: &mut TpBoxBatch) {
        page.push(key);
    }

    #[inline]
    fn lifetime(&self) -> Interval {
        self.active
    }

    fn solve(
        page: &mut TpBoxBatch,
        _leaf: bool,
        traj: &Trajectory<2>,
        out: &mut Vec<TimeSet>,
    ) -> usize {
        let solved = traj.overlap_batch_into(page, out);
        page.clear();
        solved
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
    fn stationary_window_sees_passers_by() {
        // Window fixed at x ∈ [10, 11]: object i (at i + t) is inside
        // during t ∈ [10 − i, 11 − i].
        let tr = tree(10);
        let traj = Trajectory::linear(
            Rect::from_corners([10.0, 0.0], [11.0, 1.0]),
            [0.0, 0.0],
            Interval::new(0.0, 12.0),
            2,
        );
        let mut q = TprDynamicQuery::start(&tr, traj);
        let results = q.drain_window(&tr, 0.0, 12.0);
        assert_eq!(results.len(), 10);
        // Object 9 (starting at x=9) arrives first, then 8, 7, …
        let oids: Vec<u32> = results.iter().map(|r| r.record.oid).collect();
        assert_eq!(oids[0], 9);
        assert_eq!(
            results[0].visibility.hull(),
            Interval::new(1.0, 2.0),
            "object 9 inside during [1, 2]"
        );
        let mut sorted = oids.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(oids, sorted, "arrival in reverse id order");
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
    fn live_motion_update_found() {
        let mut tr = tree(5);
        let traj = Trajectory::linear(
            Rect::from_corners([50.0, 0.0], [52.0, 1.0]),
            [0.0, 0.0],
            Interval::new(0.0, 60.0),
            2,
        );
        let mut q = TprDynamicQuery::start(&tr, traj);
        let _ = q.drain_window(&tr, 0.0, 5.0);
        // A new object appears at t=5, heading for the window.
        let rec = TprRecord::new(99, 0, Interval::new(5.0, 100.0), [45.0, 0.5], [1.0, 0.0]);
        let report = tr.insert(rec, 5.0);
        q.notify(&report);
        let later = q.drain_window(&tr, 5.0, 60.0);
        assert!(later.iter().any(|r| r.record.oid == 99));
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

    #[test]
    fn split_reports_deliver_each_update_in_its_frame() {
        // 256-byte pages: the stream splits nodes at every level, so most
        // reports are `Inserted::Subtree`. The ground truth is computed
        // from the records alone: a frame delivers what is in the tree,
        // undelivered, and overlaps the trajectory from by the frame's
        // end until at or after its start.
        let motion = |i: u32, born: f64| {
            let ang = i as f64 * 2.399;
            let p = [50.0 + (i % 40) as f64 - 20.0, 50.0 + ((i / 40) % 12) as f64 - 6.0];
            TprRecord::new(i, 0, Interval::new(born, born + 30.0), p, [0.8 * ang.cos(), 0.8 * ang.sin()])
        };
        let traj = Trajectory::linear(
            Rect::from_corners([45.0, 45.0], [55.0, 55.0]),
            [0.5, 0.2],
            Interval::new(0.0, 20.0),
            4,
        );
        let mut tr: RTree<TprRecord, Pager> =
            RTree::new(Pager::with_page_size(256), RTreeConfig::default());
        let mut present = Vec::new();
        let admit = |present: &mut Vec<(u32, f64, f64)>, rec: &TprRecord| {
            let ts = overlap_trajectory_tpbox(&traj, &rec.tpbox());
            if let (Some(s), Some(e)) = (ts.start(), ts.end()) {
                present.push((rec.oid, s, e));
            }
        };
        let mut next = 0..;
        for i in next.by_ref().take(100) {
            tr.insert(motion(i, 0.0), 0.0);
            admit(&mut present, &motion(i, 0.0));
        }
        assert!(tr.height() >= 3);
        let mut q = TprDynamicQuery::start(&tr, traj.clone());
        let (mut delivered, mut subtrees) = (HashSet::new(), 0);
        for k in 0..40 {
            let (t0, t1) = (k as f64 * 0.5, (k + 1) as f64 * 0.5);
            for i in next.by_ref().take(6) {
                let report = tr.insert(motion(i, t0), t0);
                subtrees += usize::from(matches!(report.notify, Inserted::Subtree { .. }));
                q.notify(&report);
                admit(&mut present, &motion(i, t0));
            }
            let mut got: Vec<u32> =
                q.drain_window(&tr, t0, t1).iter().map(|r| r.record.oid).collect();
            got.sort_unstable();
            let mut want: Vec<u32> = present
                .iter()
                .filter(|(oid, s, e)| !delivered.contains(oid) && *s <= t1 && *e >= t0)
                .map(|&(oid, ..)| oid)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "frame {k}");
            delivered.extend(got);
        }
        assert!(subtrees > 20 && delivered.len() > 50, "{subtrees} splits, {} answers", delivered.len());
    }

    #[test]
    fn brute_force_agreement() {
        // Random-ish fan of headings; compare against direct evaluation.
        let mut tr: RTree<TprRecord, Pager> = RTree::new(Pager::new(), RTreeConfig::default());
        let mut recs = Vec::new();
        for i in 0..500u32 {
            let ang = i as f64 * 2.399;
            let p = [50.0 + (i % 40) as f64 - 20.0, 50.0 + (i / 40) as f64 - 6.0];
            let v = [0.8 * ang.cos(), 0.8 * ang.sin()];
            let r = TprRecord::new(i, 0, Interval::new(0.0, 30.0), p, v);
            recs.push(r);
            tr.insert(r, 0.0);
        }
        let traj = Trajectory::linear(
            Rect::from_corners([45.0, 45.0], [55.0, 55.0]),
            [0.5, 0.2],
            Interval::new(2.0, 20.0),
            4,
        );
        let expected: HashSet<u32> = recs
            .iter()
            .filter(|r| !overlap_trajectory_tpbox(&traj, &r.tpbox()).is_empty())
            .map(|r| r.oid)
            .collect();
        let mut q = TprDynamicQuery::start(&tr, traj);
        let got: HashSet<u32> = q
            .drain_window(&tr, 2.0, 20.0)
            .iter()
            .map(|r| r.record.oid)
            .collect();
        assert_eq!(got, expected);
    }
}
