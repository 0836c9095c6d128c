//! The lane state machine: one session's work on each region its
//! trajectory sweeps, each lane emitting only the matches its region owns
//! ([`RegionGrid::owner`]). No threads and no clocks live here: both
//! serve paths drive a [`LaneRun`] through the same three calls
//! ([`LaneRun::enter`] at the session's first frame, [`LaneRun::step`] per
//! frame, [`LaneRun::finish`] once), and [`Slate`] is how a region's
//! writer tells the lanes on it what a frame's inserts were.
//!
//! A PDQ lane is a [`PdqEngine`] notified of its region's insert reports.
//! An NPDQ lane is an [`NpdqEngine`] over its region's tree: each frame
//! runs `q_k = SnapshotQuery::at_instant(window(t_k), t_k)` and delivers
//! every match that `q_{k-1}` did not match, with the slate's inserted
//! ids as the one served override at the leaves — a record `q_{k-1}`
//! matched is suppressed iff its leaf is unwritten since `q_{k-1}` ran
//! or the slate does not list it as inserted this frame. So frame `k` is
//! exactly `S_k ∖ S_{k-1}` over the records resident at each frame — a
//! function of the query and the record set, the same under every grid,
//! layout, rebalance and recovery.
//!
//! The engine's instant-query rule (`npdq.rs`'s module doc has the proof
//! and its rounding margin) skips a subtree under a node unwritten since
//! `q_{k-1}` when every record under it started by `t_{k-1}` and its
//! space lies inside `window(t_{k-1})`: whatever `q_k` matches there,
//! `q_{k-1}` matched, so the subtree emits nothing and the stream cannot
//! move. It pays where a region is mostly parked history — records that
//! started long ago and sit still under a window that moves little.
//!
//! A frame that fails leaves no previous query in any lane, so the next
//! one re-delivers its whole snapshot: it may repeat objects, never lose
//! one.

use super::RegionTree;
use crate::layout::MotionRecord;
use crate::npdq::NpdqEngine;
use crate::pdq::PdqEngine;
use crate::region::RegionGrid;
use crate::service::{
    panic_message, FrameReport, NsiReport, SessionKind, SessionOutcome, SessionOutput, SessionSpec,
};
use crate::snapshot::SnapshotQuery;
use crate::stats::QueryStats;
use parking_lot::RwLock;
use rtree::NsiSegmentRecord;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use storage::{PageStore, StorageError};

/// One session's in-flight state: a PDQ or an NPDQ engine per swept
/// region, plus what a failed frame leaves the next one.
pub(super) struct LaneRun<'a, const D: usize> {
    index: usize,
    spec: &'a SessionSpec<D>,
    /// Contiguous region indices this session's trajectory sweeps.
    lanes: Range<usize>,
    /// PDQ: one engine per lane, in lane order. NPDQ: empty.
    engines: Vec<PdqEngine<D>>,
    /// NPDQ: one engine per lane, in lane order, each holding the last
    /// completed frame's query and its region's record count then.
    /// PDQ: empty.
    npdq: Vec<NpdqEngine<D>>,
    /// PDQ: `t_k` of the first failed frame since the last that completed.
    retry_from: Option<f64>,
    pub(super) out: SessionOutput,
    /// Node reads attributed per region (for the per-region identity):
    /// empty until [`Self::enter`], one slot per region after.
    pub(super) region_reads: Vec<u64>,
    /// PDQ: the frame's owned entries as `(entry time, oid, seq)`.
    merge_pdq: Vec<(f64, u32, u32)>,
    /// When the lanes first came up; `out.wall_ns` counts from here.
    started: Option<Instant>,
}

impl<'a, const D: usize> LaneRun<'a, D> {
    /// A session before its first frame: no lanes, no engines. One that
    /// is never scheduled finishes as the default output.
    pub(super) fn idle(index: usize, spec: &'a SessionSpec<D>) -> Self {
        LaneRun {
            index,
            spec,
            lanes: 0..0,
            engines: Vec::new(),
            npdq: Vec::new(),
            retry_from: None,
            out: SessionOutput::default(),
            region_reads: Vec::new(),
            merge_pdq: Vec::new(),
            started: None,
        }
    }

    /// Whether the session can still take frames (a failed one keeps its
    /// results so far and is never stepped again).
    pub(super) fn alive(&self) -> bool {
        !matches!(self.out.outcome, SessionOutcome::Failed(_))
    }

    /// Route this session under `grid` and start an engine per lane,
    /// once, at the session's first frame. Contained: a panic
    /// starting the engines fails this session and nobody else. Returns
    /// [`Self::alive`].
    ///
    /// `trees[r]` is region `r`'s tree behind the lock its writer takes.
    /// The region's frame clock alternates that writer with its
    /// readers, so a lane's read lock never waits; every method here
    /// holds it for one lane's work and never across a clock call.
    pub(super) fn enter<S: PageStore>(&mut self, grid: &RegionGrid, trees: &[RegionTree<D, S>]) -> bool {
        self.started = Some(Instant::now());
        let spec = self.spec;
        let build = || {
            let lanes = grid.route_rect(&spec.trajectory.swept_bounds());
            let (engines, npdq) = match spec.kind {
                SessionKind::Pdq => (
                    lanes
                        .clone()
                        .map(|r| PdqEngine::start(&*trees[r].read(), spec.trajectory.clone()))
                        .collect(),
                    Vec::new(),
                ),
                SessionKind::Npdq => (Vec::new(), lanes.clone().map(|_| NpdqEngine::new()).collect()),
            };
            (lanes, engines, npdq)
        };
        match catch_unwind(AssertUnwindSafe(build)) {
            Ok((lanes, engines, npdq)) => {
                self.lanes = lanes;
                self.engines = engines;
                self.npdq = npdq;
                self.region_reads = vec![0; trees.len()];
            }
            Err(p) => self.out.outcome = SessionOutcome::Failed(panic_message(p)),
        }
        self.alive()
    }

    /// [`Self::step_frame`], contained: a storage error degrades the
    /// session, a panic fails it with its results so far kept. Only the
    /// lane work is inside — the callers' clock calls stay outside, so
    /// a caught panic cannot corrupt the frame protocol. Returns
    /// [`Self::alive`].
    pub(super) fn step<S: PageStore>(
        &mut self,
        grid: &RegionGrid,
        trees: &[RegionTree<D, S>],
        slates: &[RwLock<Slate<D>>],
        k: usize,
        drain_hist: &Option<Arc<obs::Histogram>>,
    ) -> bool {
        match catch_unwind(AssertUnwindSafe(|| self.step_frame(grid, trees, slates, k))) {
            Ok(Ok(ns)) => {
                if let Some(h) = drain_hist {
                    h.record(ns);
                }
            }
            Ok(Err(e)) => self.out.outcome.record_error(e),
            Err(p) => self.out.outcome = SessionOutcome::Failed(panic_message(p)),
        }
        self.alive()
    }

    /// Process global frame `k` across every lane, in ascending region
    /// order, keeping the matches each lane owns (see
    /// [`RegionGrid::owner`]). A PDQ lane on region `r` absorbs
    /// `slates[r]`'s reports where they lie, if they are frame `k`'s (see
    /// [`Slate`]), then drains `[t_k, t_{k+1}]`; an NPDQ lane runs the
    /// snapshot at `t_k` and keeps what is new (module doc). Only the first
    /// lane error is returned, and the frame is still reported with
    /// whatever it delivered before the fault. After a failed PDQ frame a
    /// failed node stays queued and the next drain starts at the failed
    /// frame's `t_k`, so nothing due in it is dropped as past; a failed
    /// NPDQ lane contributes no results and every lane forgets its
    /// previous query — degraded sessions lose latency, not results.
    fn step_frame<S: PageStore>(
        &mut self,
        grid: &RegionGrid,
        trees: &[RegionTree<D, S>],
        slates: &[RwLock<Slate<D>>],
        k: usize,
    ) -> Result<u64, StorageError> {
        obs::trace(obs::TraceEvent::FrameStart {
            session: self.index as u32,
            frame: k as u32,
        });
        let before_results = self.out.results.len();
        let started = Instant::now();
        let mut frame_stats = QueryStats::default();
        let mut first_err: Option<StorageError> = None;
        match self.spec.kind {
            SessionKind::Pdq => {
                let t0 = self.retry_from.take().unwrap_or(self.spec.frame_times[k]);
                let t1 = self.spec.frame_times[k + 1];
                self.merge_pdq.clear();
                for (pdq, r) in self.engines.iter_mut().zip(self.lanes.clone()) {
                    let tree = &*trees[r].read();
                    for report in slates[r].read().of_frame(r, k).0 {
                        pdq.notify(report);
                    }
                    // Entries only: nothing here reads a visibility set.
                    let res = loop {
                        match pdq.try_next_entry(tree, t0, t1) {
                            Ok(Some((entered, rec))) => {
                                if grid.owner(&rec.seg.spatial_bbox(), &self.lanes) == r {
                                    self.merge_pdq.push((entered, rec.oid, rec.seq));
                                }
                            }
                            done => break done,
                        }
                    };
                    if let Err(e) = res {
                        first_err.get_or_insert(e);
                    }
                    let st = pdq.take_stats();
                    frame_stats += st;
                    self.region_reads[r] += st.disk_accesses;
                }
                // The queue's priority keys: lane streams tie differently.
                self.merge_pdq.sort_unstable_by(|a, b| {
                    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
                });
                self.out.results.extend(self.merge_pdq.iter().map(|&(_, oid, seq)| (oid, seq)));
                self.retry_from = first_err.is_some().then_some(t0);
            }
            SessionKind::Npdq => {
                let t = self.spec.frame_times[k];
                let q = SnapshotQuery::at_instant(self.spec.trajectory.window_at(t), t);
                for (npdq, r) in self.npdq.iter_mut().zip(self.lanes.clone()) {
                    let tree = &*trees[r].read();
                    let slate = slates[r].read();
                    let inserted = slate.of_frame(r, k).1;
                    let lanes = &self.lanes;
                    let out = &mut self.out.results;
                    let mark = out.len();
                    let mut st = QueryStats::default();
                    let res = npdq.try_execute_with(
                        tree,
                        &q,
                        &mut st,
                        |rec| inserted.binary_search(&rec.ids()).is_ok(),
                        |rec| {
                            if grid.owner(&rec.seg.spatial_bbox(), lanes) == r {
                                out.push(rec.ids());
                            }
                        },
                    );
                    if let Err(e) = res {
                        out.truncate(mark);
                        first_err.get_or_insert(e);
                    }
                    frame_stats += st;
                    self.region_reads[r] += st.disk_accesses;
                }
                self.out.results[before_results..].sort_unstable();
                if first_err.is_some() {
                    self.npdq.iter_mut().for_each(|e| *e = NpdqEngine::new());
                }
            }
        }
        let latency_ns = started.elapsed().as_nanos() as u64;
        let results = self.out.results.len() - before_results;
        frame_stats.results = results as u64;
        self.out.stats += frame_stats;
        self.out.frames.push(FrameReport {
            frame: k,
            results,
            latency_ns,
            stats: frame_stats,
        });
        obs::trace(obs::TraceEvent::FrameEnd {
            session: self.index as u32,
            frame: k as u32,
            results: results as u32,
            latency_ns,
        });
        match first_err {
            Some(e) => Err(e),
            None => Ok(latency_ns),
        }
    }

    /// The session stopped taking frames: its wall time ends here.
    pub(super) fn stamp(&mut self) {
        if let Some(s) = self.started {
            self.out.wall_ns = s.elapsed().as_nanos() as u64;
        }
    }

    /// The output, with the PDQ engines' queue high-water mark folded in.
    pub(super) fn finish(mut self) -> SessionOutput {
        self.out.queue_hwm = self.engines.iter().map(PdqEngine::queue_hwm).max().unwrap_or(0);
        self.out
    }
}

/// What a region's writer last applied: the frame, the `(oid, seq)` of
/// every record its routed slice held, sorted — which an NPDQ lane reads
/// as "inserted this frame" — and the [`rtree::InsertReport`]s those
/// inserts produced, §4.1's notification of running PDQs. There is one
/// per region per serve, written once a frame by the region's writer and
/// read where it lies by every lane on the region; nothing is copied per
/// session.
///
/// One slot is enough because the region's frame clock alternates the
/// writer with its readers: `wait_ready(k)` holds batch `k` back until
/// every live attached session has finished frame `k - 1`, and a session
/// reads frame `k` only once `applied` covers it. So while anyone reads
/// frame `k` the slate holds frame `k` or — the region's slice of batch
/// `k` was empty, or its writer has failed — an older one, which that
/// reader has already absorbed or joined after, and skips.
#[derive(Default)]
pub(super) struct Slate<const D: usize> {
    /// Frame of the last non-empty slice applied (`None`: none yet).
    pub(super) frame: Option<usize>,
    /// The slice's record ids, sorted.
    pub(super) ids: Vec<(u32, u32)>,
    pub(super) reports: Vec<NsiReport<D>>,
    /// Most reports ever published at once.
    pub(super) hwm: usize,
}

impl<const D: usize> Slate<D> {
    /// Writer side, after the tree's write lock dropped: frame `k`'s
    /// routed slice and its reports replace the previous frame's.
    pub(super) fn publish(
        &mut self,
        k: usize,
        routed: &[(NsiSegmentRecord<D>, f64)],
        reports: Vec<NsiReport<D>>,
    ) {
        self.reports = reports;
        self.ids.clear();
        self.ids.extend(routed.iter().map(|(rec, _)| rec.ids()));
        self.ids.sort_unstable();
        self.frame = Some(k);
        self.hwm = self.hwm.max(self.reports.len());
        obs::trace(obs::TraceEvent::InsertBroadcast {
            reports: self.reports.len() as u32,
        });
    }

    /// Reader side: what a session at frame `k` must take from region
    /// `r` — this slate's reports and inserted ids if they are frame
    /// `k`'s, else nothing. A slate ahead of its reader means the clock
    /// let the writer overrun it: a protocol violation, which fails the
    /// session that sees it.
    fn of_frame(&self, r: usize, k: usize) -> (&[NsiReport<D>], &[(u32, u32)]) {
        assert!(
            self.frame <= Some(k),
            "region {r}'s slate holds frame {:?} while a session reads frame {k}: \
             the writer overran an attached reader",
            self.frame,
        );
        if self.frame == Some(k) {
            (&self.reports, &self.ids)
        } else {
            (&[], &[])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::tests::*;
    use crate::router::PartitionedDqServer;
    use crate::service::{FrameDelta, FrameSink, SessionPlan, SinkVerdict};
    use rtree::{RTree, RTreeConfig};
    use stkit::Interval;
    use storage::{FaultPlan, FaultyStore, Pager};

    /// A sink that hands each frame it is given to `f`, where the frame's
    /// ack waits: a page it corrupts or heals reads so from the session's
    /// next frame on.
    struct OnFrame<F>(F);

    impl<F: Fn(usize) + Sync> FrameSink for OnFrame<F> {
        fn on_frame(&self, delta: &FrameDelta<'_>) -> SinkVerdict {
            (self.0)(delta.frame);
            SinkVerdict::Continue
        }
    }

    /// Small pages over stores whose corrupt pages read with the node
    /// magic flipped.
    fn faulty(grid: RegionGrid, recs: &[R]) -> PartitionedDqServer<2, FaultyStore<Pager>> {
        PartitionedDqServer::build(grid, recs, |_| {
            let store =
                FaultyStore::with_flipped_bytes(Pager::with_page_size(256), FaultPlan::quiet(0), vec![0]);
            RTree::new(store, RTreeConfig::default())
        })
    }

    #[test]
    fn a_failed_pdq_frame_still_delivers_what_was_due_in_it() {
        // The root reads corrupt for frame 0, [0, 4], and heals after it.
        // Objects 0..=3 leave the window before t_1 = 4: unless frame 1
        // drains from t_0, they are dropped unexamined as past.
        let server = faulty(RegionGrid::single(), &line_records(10));
        let root = server.with_region_tree(0, |t| {
            t.store().corrupt_page(t.root_page());
            t.root_page()
        });
        let heal = OnFrame(|_| server.with_region_tree(0, |t| t.store().heal_page(root)));
        let plans = [SessionPlan::new(slide_spec(SessionKind::Pdq, 2, 8.0))];
        let report = server.serve_plans_streamed(&plans, &[], &[Some(&heal)]);
        let out = &report.sessions[0];
        let errors = vec![StorageError::Corrupt { page: root }];
        assert_eq!(out.outcome, SessionOutcome::Degraded { errors });
        let every: Vec<_> = (0..=8).map(|oid| (oid, 0)).collect();
        assert_eq!(frame_sets(out), [vec![], every]);
    }

    #[test]
    fn a_straddler_whose_owner_lane_fails_arrives_once_a_frame_late() {
        // The straddler crosses the cut at x = 5 while it lives, [4.5, 5.5],
        // and the window [t, t + 1] holds it over [5, 5.5]: inside frame 2
        // of four over [0, 8]. Both regions store it; region 0, holding its
        // low end x = 4, owns it. Fillers alive over the same span give
        // region 0 leaves that no drain reads before frame 2, and the
        // straddler's leaf reads corrupt for frame 2 alone.
        let straddler = R::new(99, 0, Interval::new(4.5, 5.5), [4.0, 0.5], [6.0, 0.5]);
        let mut recs: Vec<_> = (0..12)
            .map(|j| {
                let x = 4.0 + 0.08 * f64::from(j);
                R::new(j, 0, Interval::new(4.5, 5.5), [x, 0.5], [x, 0.5])
            })
            .collect();
        recs.push(straddler);
        let server = faulty(RegionGrid::from_cuts(0, vec![5.0]), &recs);
        assert_eq!(server.region_record_counts(), vec![13, 1]);
        let leaf = server.with_region_tree(0, |t| {
            assert!(t.height() > 1, "the straddler's leaf must not be the root");
            let mut stack = vec![(t.root_page(), t.height() - 1)];
            loop {
                let (page, level) = stack.pop().expect("the straddler is in region 0");
                let node = t.try_read_node(page, level).unwrap();
                if !node.is_leaf() {
                    stack.extend(node.internal_entries().map(|(_, child)| (child, level - 1)));
                } else if node.leaf_records().any(|r| r.ids() == straddler.ids()) {
                    break page;
                }
            }
        });
        let fault = OnFrame(|k| {
            server.with_region_tree(0, |t| match k {
                1 => t.store().corrupt_page(leaf),
                2 => t.store().heal_page(leaf),
                _ => {}
            })
        });
        let plans = [SessionPlan::new(slide_spec(SessionKind::Pdq, 4, 8.0))];
        let report = server.serve_plans_streamed(&plans, &[], &[Some(&fault)]);
        let out = &report.sessions[0];
        let errors = vec![StorageError::Corrupt { page: leaf }];
        assert_eq!(out.outcome, SessionOutcome::Degraded { errors });
        let frames = frame_sets(out);
        assert!(!frames[2].contains(&straddler.ids()), "the sibling lane emitted it");
        assert!(frames[3].contains(&straddler.ids()), "the owner lane never caught up");
        assert_eq!(out.results.iter().filter(|&&id| id == straddler.ids()).count(), 1);
    }

    #[test]
    fn npdq_frames_are_the_newly_visible_set() {
        // The oracle chain's NPDQ end, over trees that were packed and
        // then served with live inserts, and — the second serve — over
        // what a `rebalance` packs out of those: frame `k` is exactly
        // what the snapshot at `t_k` holds that the one at `t_{k-1}` did
        // not, each over the records resident at its frame.
        let recs = line_records(40);
        let spec = slide_spec(SessionKind::Npdq, 80, 40.0);
        let inserts = ahead_inserts(80, 2, 40.0, 1000);
        let snapshot = |resident: &[R], t: f64| -> Vec<(u32, u32)> {
            let q = SnapshotQuery::at_instant(spec.trajectory.window_at(t), t);
            let mut set: Vec<_> =
                resident.iter().filter(|r| q.matches_segment(&r.seg)).map(R::ids).collect();
            set.sort_unstable();
            set
        };
        let mut resident = recs.clone();
        let snapshots: Vec<_> = (0..)
            .zip(&spec.frame_times)
            .map(|(k, &t)| {
                resident.extend(inserts.get(k).into_iter().flatten().map(|(r, _)| *r));
                snapshot(&resident, t)
            })
            .collect();
        assert!(snapshots.windows(2).any(|w| w[1].iter().any(|id| w[0].contains(id))));
        // The second serve starts with every insert resident.
        let settled: Vec<_> = spec.frame_times.iter().map(|&t| snapshot(&resident, t)).collect();
        for grid in [RegionGrid::single(), RegionGrid::from_cuts(0, vec![10.0, 25.0])] {
            let mut server = build(grid, &recs);
            let live = server.serve(std::slice::from_ref(&spec), &inserts);
            server.rebalance(2, |_| RTree::new(Pager::new(), RTreeConfig::default())).unwrap();
            let again = server.serve(std::slice::from_ref(&spec), &[]);
            for (out, snapshots) in [(live, &snapshots), (again, &settled)] {
                let frames = frame_sets(&out.sessions[0]);
                assert_eq!(frames.len(), snapshots.len());
                for (k, got) in frames.iter().enumerate() {
                    let fresh: Vec<_> = snapshots[k]
                        .iter()
                        .filter(|id| k == 0 || !snapshots[k - 1].contains(id))
                        .copied()
                        .collect();
                    assert_eq!(*got, fresh, "frame {k}");
                }
            }
        }
    }

    #[test]
    fn a_past_stamped_insert_is_delivered_when_it_becomes_visible() {
        // Record 900 sits in the windows at t_2 = 1.0 and t_3 = 1.5 but
        // arrives only in batch 3, paired with `now = 0.0` — older than
        // frame 2. Frame 2 could not see it, so frame 3 must deliver it; a
        // node stamp taken from that `now` reads its leaf as unchanged
        // since frame 2 and suppresses it as already seen.
        let late = R::new(900, 0, Interval::new(0.0, 100.0), [1.75, 0.5], [1.75, 0.5]);
        let spec = slide_spec(SessionKind::Npdq, 20, 10.0);
        let mut inserts = vec![Vec::new(); 4];
        inserts[3].push((late, 0.0));
        for grid in [RegionGrid::single(), RegionGrid::from_cuts(0, vec![1.0, 3.0])] {
            let out = build(grid.clone(), &line_records(40)).serve(std::slice::from_ref(&spec), &inserts);
            let plans = [SessionPlan::new(spec.clone())];
            let serial = build(grid, &line_records(40)).serve_serial_plans(&plans, &inserts);
            assert_eq!(out.sessions[0].results, serial.sessions[0].results);
            assert!(frame_sets(&out.sessions[0])[3].contains(&late.ids()), "record 900 lost");
        }
    }

    #[test]
    fn slate_is_absorbed_only_at_its_own_frame() {
        // The reader's half: the window reaches x = 5.5 in frame 2; an
        // object dropped there after frame 0 expanded the (single-leaf)
        // tree is delivered iff the engine is notified of it.
        let late = R::new(900, 0, Interval::new(0.0, 100.0), [5.5, 0.5], [5.5, 0.5]);
        let run = |stamp: Option<usize>| {
            let server = build(RegionGrid::single(), &line_records(10));
            let spec = slide_spec(SessionKind::Pdq, 4, 8.0);
            let mut lanes = LaneRun::idle(0, &spec);
            lanes.enter(&server.grid, &server.regions);
            let slates = [RwLock::new(Slate::default())];
            lanes.step_frame(&server.grid, &server.regions, &slates, 0).unwrap();
            let report = server.regions[0].write().try_insert(late).unwrap();
            *slates[0].write() = Slate {
                frame: stamp,
                ids: vec![late.ids()],
                reports: vec![report],
                hwm: 1,
            };
            for k in 1..4 {
                lanes.step_frame(&server.grid, &server.regions, &slates, k).unwrap();
            }
            lanes.finish().results
        };
        assert!(run(Some(1)).contains(&late.ids()), "frame 1's slate reaches frame 1");
        assert!(!run(Some(0)).contains(&late.ids()), "a stale slate notifies nothing");
        assert!(!run(None).contains(&late.ids()), "a blank slate notifies nothing");
        let ahead = catch_unwind(AssertUnwindSafe(|| run(Some(2)))).map_err(panic_message);
        assert!(
            matches!(&ahead, Err(m) if m.contains("the writer overran an attached reader")),
            "a slate ahead of its reader is a protocol violation: {ahead:?}"
        );
    }

    #[test]
    fn stale_slates_are_skipped_by_lagging_and_joining_sessions() {
        // Batches land at frames 0 and 5 only, so in between every slate
        // keeps frame 0 while a slow session walks frames 1-4 over it and
        // another joins at frame 3. Absorbing it again would re-enqueue
        // objects not yet delivered: it shows in the per-frame stats and
        // the queue's high-water mark first.
        let recs = line_records(30);
        let mut inserts = vec![Vec::new(); 8];
        for (k, base, x0, dx) in [(0u32, 4000u32, 2.25, 1.0), (5, 4100, 6.6, 0.5)] {
            inserts[k as usize] = (0..6)
                .map(|j| {
                    let x = x0 + dx * f64::from(j);
                    let t = f64::from(k);
                    (R::new(base + j, 0, Interval::new(t, 100.0), [x, 0.5], [x, 0.5]), t)
                })
                .collect();
        }
        let plans = vec![
            SessionPlan::new(slide_spec(SessionKind::Pdq, 8, 8.0)),
            SessionPlan::new(slide_spec(SessionKind::Pdq, 8, 8.0)).join_at(3),
        ];
        // Session 0 lags: its sink takes 2 ms a frame, before the ack.
        struct Lag;
        impl FrameSink for Lag {
            fn on_frame(&self, _: &FrameDelta<'_>) -> SinkVerdict {
                std::thread::sleep(std::time::Duration::from_millis(2));
                SinkVerdict::Continue
            }
        }
        let lag: [Option<&dyn FrameSink>; 1] = [Some(&Lag)];
        let per_frame = |o: &SessionOutput| -> Vec<_> {
            o.frames.iter().map(|f| (f.frame, f.results, f.stats)).collect()
        };
        // What "once" costs session 0 over one region: a bare engine told
        // of each batch as it lands, and of nothing in between.
        let twin = build(RegionGrid::single(), &recs);
        let mut tree = twin.regions[0].write();
        let spec = &plans[0].spec;
        let mut direct = PdqEngine::start(&*tree, spec.trajectory.clone());
        let once: Vec<_> = (0..8)
            .map(|k| {
                let reports: Vec<_> = inserts[k]
                    .iter()
                    .map(|(rec, _)| tree.try_insert(*rec).unwrap())
                    .collect();
                for report in &reports {
                    direct.notify(report);
                }
                let (t0, t1) = (spec.frame_times[k], spec.frame_times[k + 1]);
                let delivered = std::iter::from_fn(|| direct.try_next_entry(&*tree, t0, t1).unwrap()).count();
                (k, delivered, direct.take_stats())
            })
            .collect();
        for grid in [RegionGrid::single(), RegionGrid::from_cuts(0, vec![5.0, 20.0])] {
            let p = build(grid.clone(), &recs).serve_plans_streamed(&plans, &inserts, &lag);
            let s = build(grid.clone(), &recs).serve_serial_plans(&plans, &inserts);
            for (a, b) in p.sessions.iter().zip(&s.sessions) {
                assert_eq!(a.outcome, SessionOutcome::Ok);
                assert_eq!(a.results, b.results);
                assert_eq!(per_frame(a), per_frame(b));
                assert_eq!(a.queue_hwm, b.queue_hwm);
            }
            if grid.len() == 1 {
                assert_eq!(per_frame(&p.sessions[0]), once);
                assert_eq!(p.sessions[0].queue_hwm, direct.queue_hwm());
            }
            assert!(p.sessions[0].results.iter().any(|&(oid, _)| oid >= 4100));
            assert!(p.sessions[1].results.iter().any(|&(oid, _)| oid >= 4000));
        }
    }
}
