//! Dynamic queries over the TPR-tree — future work (iii) realized.
//!
//! The §4.1 best-first algorithm transfers unchanged: a priority queue
//! ordered by overlap-start time, nodes expanded lazily, each object
//! returned once with its visibility time set. The only new geometry is
//! the overlap time of a linearly-moving query window with a linearly-
//! moving bounding rectangle ([`overlap_window_tpbox`]) — still a
//! conjunction of linear inequalities.

use crate::batch::TpBoxBatch;
use crate::record::TprRecord;
use crate::tpbox::TpBox;
use mobiquery::{QueryStats, Trajectory};
use rtree::{Inserted, RTree};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use storage::{PageId, PageStore};
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

/// Overlap time set of a whole trajectory with a time-parameterized box.
pub fn overlap_trajectory_tpbox(traj: &Trajectory<2>, b: &TpBox) -> TimeSet {
    let mut out = TimeSet::empty();
    for s in traj.segments() {
        out.insert(overlap_window_tpbox(s, b));
    }
    out
}

/// One answer: the moving point plus its visibility time set.
#[derive(Clone, Debug, PartialEq)]
pub struct TprResult {
    /// The record.
    pub record: TprRecord,
    /// Times the object is inside the moving window.
    pub visibility: TimeSet,
}

enum ItemKind {
    Node { page: PageId, level: u32 },
    Object(Box<TprResult>),
}

struct QueueItem {
    start: f64,
    end: f64,
    kind: ItemKind,
}

impl PartialEq for QueueItem {
    fn eq(&self, other: &Self) -> bool {
        self.start == other.start
    }
}
impl Eq for QueueItem {}
impl PartialOrd for QueueItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueItem {
    fn cmp(&self, other: &Self) -> Ordering {
        other.start.total_cmp(&self.start)
    }
}

/// A running dynamic query over a TPR-tree.
pub struct TprDynamicQuery {
    trajectory: Trajectory<2>,
    queue: BinaryHeap<QueueItem>,
    expanded: HashSet<PageId>,
    returned: HashSet<(u32, u32)>,
    stats: QueryStats,
    /// SoA staging for one node page's entries (scratch, reused).
    batch: TpBoxBatch,
    /// Per-entry overlap time sets from the last batch solve (scratch).
    ts_out: Vec<TimeSet>,
    /// Leaf records staged alongside `batch` (scratch).
    pending_recs: Vec<TprRecord>,
    /// Child pages staged alongside `batch` (scratch).
    pending_children: Vec<PageId>,
}

impl TprDynamicQuery {
    /// Start the query: seed with the root over the trajectory span.
    pub fn start<S: PageStore>(tree: &RTree<TprRecord, S>, trajectory: Trajectory<2>) -> Self {
        let span = trajectory.span();
        let mut q = TprDynamicQuery {
            trajectory,
            queue: BinaryHeap::new(),
            expanded: HashSet::new(),
            returned: HashSet::new(),
            stats: QueryStats::default(),
            batch: TpBoxBatch::new(),
            ts_out: Vec::new(),
            pending_recs: Vec::new(),
            pending_children: Vec::new(),
        };
        q.queue.push(QueueItem {
            start: span.lo,
            end: span.hi,
            kind: ItemKind::Node {
                page: tree.root_page(),
                level: tree.height() - 1,
            },
        });
        q
    }

    /// Accumulated cost.
    pub fn stats(&self) -> QueryStats {
        self.stats
    }

    /// Take and reset the accumulated cost.
    pub fn take_stats(&mut self) -> QueryStats {
        std::mem::take(&mut self.stats)
    }

    /// Solve the staged batch against every trajectory segment, building
    /// one overlap [`TimeSet`] per staged entry. Segment-order insertion
    /// keeps the result bit-identical to [`overlap_trajectory_tpbox`].
    fn solve_batch(&mut self) {
        self.ts_out.clear();
        self.ts_out.resize(self.batch.len(), TimeSet::empty());
        for s in self.trajectory.segments() {
            self.batch.solve(s);
            for j in 0..self.ts_out.len() {
                self.ts_out[j].insert(self.batch.result(j));
            }
        }
    }

    /// `getNext(t_start, t_end)` over the TPR-tree.
    pub fn get_next<S: PageStore>(
        &mut self,
        tree: &RTree<TprRecord, S>,
        t_start: f64,
        t_end: f64,
    ) -> Option<TprResult> {
        loop {
            let head = self.queue.peek()?;
            if head.start > t_end {
                return None;
            }
            let item = self.queue.pop().expect("peeked");
            if item.end < t_start {
                continue;
            }
            match item.kind {
                ItemKind::Object(r) => {
                    if self.returned.insert((r.record.oid, r.record.seq)) {
                        self.stats.results += 1;
                        return Some(*r);
                    }
                    self.stats.duplicates_skipped += 1;
                }
                ItemKind::Node { page, level } => {
                    if !self.expanded.insert(page) {
                        self.stats.duplicates_skipped += 1;
                        continue;
                    }
                    // Zero-copy visit: entries decode lazily off the page.
                    let node = tree.read_node(page);
                    self.stats.disk_accesses += 1;
                    if level == 0 {
                        self.stats.leaf_accesses += 1;
                    }
                    if node.is_leaf() {
                        // Stage the whole page, solve once per trajectory
                        // segment, then enqueue survivors.
                        self.batch.clear();
                        self.pending_recs.clear();
                        for rec in node.leaf_records() {
                            self.stats.distance_computations += 1;
                            if self.returned.contains(&(rec.oid, rec.seq)) {
                                continue;
                            }
                            self.batch.push(&rec.tpbox());
                            self.pending_recs.push(rec);
                        }
                        self.solve_batch();
                        for j in 0..self.pending_recs.len() {
                            let ts = std::mem::take(&mut self.ts_out[j]);
                            if let (Some(s), Some(e)) = (ts.start(), ts.end()) {
                                if e >= t_start {
                                    self.queue.push(QueueItem {
                                        start: s,
                                        end: e,
                                        kind: ItemKind::Object(Box::new(TprResult {
                                            record: self.pending_recs[j],
                                            visibility: ts,
                                        })),
                                    });
                                }
                            }
                        }
                    } else {
                        let child_level = node.level() - 1;
                        self.batch.clear();
                        self.pending_children.clear();
                        for (key, child) in node.internal_entries() {
                            self.stats.distance_computations += 1;
                            self.batch.push(&key);
                            self.pending_children.push(child);
                        }
                        self.solve_batch();
                        for j in 0..self.pending_children.len() {
                            let ts = std::mem::take(&mut self.ts_out[j]);
                            if let (Some(s), Some(e)) = (ts.start(), ts.end()) {
                                if e >= t_start {
                                    self.queue.push(QueueItem {
                                        start: s,
                                        end: e,
                                        kind: ItemKind::Node {
                                            page: self.pending_children[j],
                                            level: child_level,
                                        },
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Drain every object visible during `[t_start, t_end]`.
    pub fn drain_window<S: PageStore>(
        &mut self,
        tree: &RTree<TprRecord, S>,
        t_start: f64,
        t_end: f64,
    ) -> Vec<TprResult> {
        let mut out = Vec::new();
        while let Some(r) = self.get_next(tree, t_start, t_end) {
            out.push(r);
        }
        out
    }

    /// §4.1 update management: forward insertion reports from
    /// `tree.insert` (a motion update of an object).
    pub fn notify<S: PageStore>(
        &mut self,
        _tree: &RTree<TprRecord, S>,
        report: &rtree::InsertReport<TpBox, TprRecord>,
    ) {
        match &report.notify {
            Inserted::Record(rec) => {
                if self.returned.contains(&(rec.oid, rec.seq)) {
                    return;
                }
                let ts = overlap_trajectory_tpbox(&self.trajectory, &rec.tpbox());
                if let (Some(s), Some(e)) = (ts.start(), ts.end()) {
                    self.queue.push(QueueItem {
                        start: s,
                        end: e,
                        kind: ItemKind::Object(Box::new(TprResult {
                            record: *rec,
                            visibility: ts,
                        })),
                    });
                }
            }
            Inserted::Subtree { page, key, level } => {
                let ts = overlap_trajectory_tpbox(&self.trajectory, key);
                if let (Some(s), Some(e)) = (ts.start(), ts.end()) {
                    self.queue.push(QueueItem {
                        start: s,
                        end: e,
                        kind: ItemKind::Node {
                            page: *page,
                            level: *level,
                        },
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree::{RTree, RTreeConfig};
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
        q.notify(&tr, &report);
        let later = q.drain_window(&tr, 5.0, 60.0);
        assert!(later.iter().any(|r| r.record.oid == 99));
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
                q.notify(&tr, &report);
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
