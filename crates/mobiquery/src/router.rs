//! The serving core: many trees, many writers, one answer.
//!
//! One tree serializes every insert behind one write lock — correct,
//! but the writer caps throughput long before millions of objects.
//! [`PartitionedDqServer`] splits space by a [`RegionGrid`] into regions
//! that each own their own NSI tree, their own writer thread, and their
//! own buffer pool, so per-frame insert batches apply in parallel (the
//! architecture of distributed continuous-range-query processors, arXiv
//! 2206.01905, folded into one process). The single-tree server is the
//! one-region grid ([`RegionGrid::single`]): one lane per session, one
//! writer, nothing to merge — same protocol, same code.
//!
//! The router half lives in each session: a session's moving window is
//! split across the regions its trajectory sweeps (its *lanes*), one
//! PDQ/NPDQ engine per lane, and per-frame lane results are merged back
//! into a single stream. Records whose trapezoid segments straddle a
//! region seam are replicated into every touching region (closed slabs —
//! see [`RegionGrid::route_rect`]), so the merge deduplicates by
//! `(oid, seq)`: PDQ keeps a cross-frame delivered set (entry events
//! stay exactly-once at seams), NPDQ dedups within the frame (snapshot
//! semantics re-report per frame by design). Within a frame, merged PDQ
//! results order by `(visibility start, oid, seq)` — the same keys the
//! PDQ queue itself tie-breaks on — which makes partitioned runs
//! bitwise deterministic: [`PartitionedDqServer::serve`] equals
//! [`PartitionedDqServer::serve_serial`] exactly, under every grid.
//!
//! ## The clock protocol, per region
//!
//! Frames are ordered by one [`crate::clock::FrameClock`] *per region* —
//! there is no global barrier anywhere on the serving path. Region `r`'s
//! writer applies its routed slice of batch `k` only after (a) the
//! `committed` watermark covers `k` (durable runs: the batch is in the
//! WAL first) and (b) every live session attached to `r` has acked past
//! `k` — then it applies under its tree's write lock, leaves the frame's
//! [`rtree::InsertReport`]s on `r`'s one slate (§4.1's notification of
//! running PDQs: published once, whatever the session count), and
//! advances `r`'s `applied` watermark. A session processes frame `k` by
//! waiting on `applied` of exactly the regions its query sweeps; its PDQ
//! lanes then absorb their regions' slates where they lie, skipping one
//! that still holds an older frame. So a slow (or deliberately sleeping)
//! session back-pressures only its own lanes: writers of untouched
//! regions never hear from it. Sessions *detach* from their lane clocks
//! when their schedule ends — or when they fail mid-run, so a dead
//! session releases the writers instead of holding them. Per region the
//! invariant
//! `committed >= applied` holds throughout, and a region's writer and its
//! readers strictly alternate: a lane reads its region's tree and slate
//! behind the locks that writer takes, and never waits on them; a slate
//! *ahead* of the frame being read would mean the clock failed, and fails
//! the session that sees it. Region tree level reads == Σ lane disk
//! accesses attributed to that region + that region's writer reads,
//! exactly (a durable server's first run adds
//! the base checkpoint's one scan; periodic checkpoints read no tree).
//!
//! ## Epoch-handoff recuts
//!
//! Because nothing global synchronizes frames, the grid can be *recut
//! while sessions are live* ([`RecutPlan`]): the run is split into
//! epochs, each with its own grid, trees, clocks, and slates. At an
//! epoch boundary the coordinator waits for the old epoch's clocks to
//! drain, collects and deduplicates every record, recuts the grid at
//! equal-load quantiles of the epoch's measured load, rebuilds region
//! trees, and publishes the next epoch; sessions re-route their lanes
//! and rebuild their engines against the new layout, carrying their
//! delivered-set and accumulated results across — delivery stays
//! exactly-once and result sequences are bit-identical to a run that
//! never recut. Between-serves [`PartitionedDqServer::rebalance`] (over
//! `&mut self`) remains for callers that want the same recut without a
//! live run.
//!
//! Hotspot rebalancing (after Kiwano, arXiv 1211.4414): every serve
//! accumulates per-region load (writer reads+writes plus session reads);
//! [`PartitionedDqServer::hotspot`] flags a region pulling more than a
//! factor above the mean.

use crate::clock::{FrameClock, SessionLiveness};
use crate::durability::DurableLog;
use crate::layout::MotionRecord;
use crate::npdq::NpdqEngine;
use crate::pdq::{PdqEngine, PdqResult};
use crate::region::RegionGrid;
use crate::service::{
    panic_message, record_wait, FrameDelta, FrameReport, FrameSink, NsiReport, ServeReport,
    SessionKind, SessionOutcome, SessionOutput, SessionPlan, SessionSpec, SinkVerdict,
};
use crate::snapshot::SnapshotQuery;
use crate::stats::QueryStats;
use parking_lot::{Condvar, Mutex, RwLock};
use rtree::bulk::{pack_into, AxisOrder};
use rtree::{NsiSegmentRecord, RTree};
use std::collections::HashSet;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use stkit::Interval;
use storage::{PageStore, RetryPolicy, StorageError};

/// One region's shared tree handle: epochs and the server itself hold
/// `Arc`s to the same locked tree, so a recut can hand trees off without
/// copying and old-epoch sessions drain at their own pace.
type RegionTree<const D: usize, S> = Arc<RwLock<RTree<NsiSegmentRecord<D>, S>>>;

/// A scheduled live recut: at the start of frame `at_frame` the grid is
/// recut into `target_regions` at equal-load quantiles of the load
/// measured so far, while sessions keep running.
#[derive(Clone, Copy, Debug)]
pub struct RecutPlan {
    /// Global frame at whose boundary the handoff happens (the new grid
    /// serves frames `at_frame..`). Must be strictly inside the run.
    pub at_frame: usize,
    /// Region count after the recut (>= 1).
    pub target_regions: usize,
}

impl RecutPlan {
    /// A recut at frame `at_frame` into `target_regions` regions.
    pub fn new(at_frame: usize, target_regions: usize) -> Self {
        RecutPlan {
            at_frame,
            target_regions,
        }
    }
}

/// Per-region tallies of one partitioned run.
#[derive(Clone, Debug, Default)]
pub struct RegionReport {
    /// The region's slab on the grid axis.
    pub span: Interval,
    /// Records this region's writer applied (a record straddling a seam
    /// counts once in every region that stores a replica).
    pub inserts_applied: usize,
    /// Node reads this region's writer performed in its write sections.
    pub writer_reads: u64,
    /// Node writes this region's writer performed in its write sections.
    pub writer_writes: u64,
    /// Session-side node reads attributed to this region's lanes.
    pub session_reads: u64,
    /// Whether this region's writer applied every batch clean.
    pub writer_outcome: SessionOutcome,
}

impl RegionReport {
    /// The load figure hotspot detection and recutting run on: every
    /// node touch the region cost the run, reader- or writer-side.
    pub fn load(&self) -> u64 {
        self.writer_reads + self.writer_writes + self.session_reads
    }
}

/// Outcome of one [`PartitionedDqServer::serve`] /
/// [`PartitionedDqServer::serve_serial`] run: the whole-server
/// [`ServeReport`] (writer tallies summed over regions *and* epochs;
/// session outputs merged across lanes) plus the per-region breakdown of
/// the **final** epoch (the whole run when nothing recut — region
/// indices are not comparable across grids).
///
/// Note `base.inserts_applied` counts *physical* per-region inserts, so
/// it exceeds the batch record count when segments straddle seams.
/// Under the clock protocol sessions never absorb frames outside their
/// own window, so `Σ frame.stats == session.stats` holds exactly.
#[derive(Clone, Debug, Default)]
pub struct PartitionedServeReport {
    /// The run viewed as a single server (sessions in spec order).
    pub base: ServeReport,
    /// Per-region tallies of the final epoch, in grid order.
    pub regions: Vec<RegionReport>,
}

impl std::ops::Deref for PartitionedServeReport {
    type Target = ServeReport;
    fn deref(&self) -> &ServeReport {
        &self.base
    }
}

/// One lane's engine: the session's algorithm instantiated against one
/// region's tree.
enum LaneEngine<const D: usize> {
    Pdq(Box<PdqEngine<D>>),
    Npdq(Box<NpdqEngine<D>>),
}

/// One session's in-flight state: an engine per swept region, plus the
/// merge/dedup state that folds lane streams back into one.
struct LaneRun<'a, const D: usize> {
    index: usize,
    spec: &'a SessionSpec<D>,
    /// Contiguous region indices this session's trajectory sweeps.
    lanes: Range<usize>,
    engines: Vec<LaneEngine<D>>,
    /// PDQ cross-frame dedup: seam replicas deliver in the same frame in
    /// every lane (frame assignment depends only on overlap start), but
    /// the set keeps exactly-once robust without leaning on that. It
    /// also carries exactly-once across an epoch handoff, where fresh
    /// engines re-see everything still visible.
    delivered: HashSet<(u32, u32)>,
    out: SessionOutput,
    /// Node reads attributed per region (for the per-region identity),
    /// flushed into the epoch's shared tally before the final ack.
    region_reads: Vec<u64>,
    scratch: Vec<PdqResult<D>>,
    merge_pdq: Vec<(f64, u32, u32)>,
    merge_npdq: Vec<(u32, u32)>,
}

impl<'a, const D: usize> LaneRun<'a, D> {
    /// `trees[r]` is region `r`'s tree behind the lock its writer takes.
    /// The region's [`FrameClock`] alternates that writer with its
    /// readers, so a lane's read lock never waits; every method here
    /// holds it for one lane's engine work and never across a clock call.
    fn start<S: PageStore>(
        index: usize,
        spec: &'a SessionSpec<D>,
        grid: &RegionGrid,
        trees: &[RegionTree<D, S>],
    ) -> Self {
        let lanes = grid.route_rect(&spec.trajectory.swept_bounds());
        let engines = Self::engines_for(spec, lanes.clone(), trees);
        LaneRun {
            index,
            spec,
            lanes,
            engines,
            delivered: HashSet::new(),
            out: SessionOutput::default(),
            region_reads: vec![0; trees.len()],
            scratch: Vec::new(),
            merge_pdq: Vec::new(),
            merge_npdq: Vec::new(),
        }
    }

    /// Re-route this session under a recut grid: fold the dying engines'
    /// high-water marks into the output, then build fresh engines per
    /// new lane. The delivered set and accumulated results survive, so
    /// objects the new engines re-discover (anything still visible) are
    /// suppressed — delivery stays exactly-once across the handoff.
    fn rebuild<S: PageStore>(&mut self, grid: &RegionGrid, trees: &[RegionTree<D, S>]) {
        self.fold_engine_marks();
        self.lanes = grid.route_rect(&self.spec.trajectory.swept_bounds());
        self.engines = Self::engines_for(self.spec, self.lanes.clone(), trees);
        self.region_reads = vec![0; trees.len()];
    }

    /// One engine per lane, each built against its region's tree.
    fn engines_for<S: PageStore>(
        spec: &SessionSpec<D>,
        lanes: Range<usize>,
        trees: &[RegionTree<D, S>],
    ) -> Vec<LaneEngine<D>> {
        lanes
            .map(|r| match spec.kind {
                SessionKind::Pdq => LaneEngine::Pdq(Box::new(PdqEngine::start(
                    &*trees[r].read(),
                    spec.trajectory.clone(),
                ))),
                SessionKind::Npdq => LaneEngine::Npdq(Box::new(NpdqEngine::new())),
            })
            .collect()
    }

    /// Fold the current engines' high-water marks into the output, before
    /// they are replaced or dropped.
    fn fold_engine_marks(&mut self) {
        for engine in &self.engines {
            match engine {
                LaneEngine::Pdq(pdq) => {
                    self.out.queue_hwm = self.out.queue_hwm.max(pdq.queue_hwm());
                }
                LaneEngine::Npdq(npdq) => {
                    self.out.discarded_subtrees += npdq.discarded_subtrees();
                }
            }
        }
    }

    /// Hand the per-region read attribution to `add` and zero it (the
    /// region count changes across epochs, so attribution is flushed
    /// into each epoch's own tally before the handoff).
    fn flush_loads(&mut self, mut add: impl FnMut(usize, u64)) {
        for (r, c) in self.region_reads.iter_mut().enumerate() {
            if *c > 0 {
                add(r, *c);
                *c = 0;
            }
        }
    }

    /// Process global frame `k` across every lane: a PDQ lane on region
    /// `r` absorbs `slates[r]`'s reports where they lie, if they are frame
    /// `k`'s (see [`Slate`]); then drain/execute in-schedule frames and
    /// merge. Only the first lane error is returned (lanes
    /// process in ascending region order, so the choice is
    /// deterministic). On `Err` the frame is still reported (with
    /// whatever results and stats it produced before the fault) and the
    /// engines stay valid: PDQ keeps the failed node queued for the next
    /// drain, NPDQ keeps its discard baseline at the last *completed*
    /// query, so a later frame re-derives anything the failed one missed
    /// — degraded sessions lose latency, not results.
    fn step_frame<S: PageStore>(
        &mut self,
        trees: &[RegionTree<D, S>],
        slates: &[RwLock<Slate<D>>],
        k: usize,
    ) -> Result<Option<u64>, StorageError> {
        let in_schedule = match self.spec.kind {
            SessionKind::Pdq => k + 1 < self.spec.frame_times.len(),
            SessionKind::Npdq => k < self.spec.frame_times.len(),
        };
        if in_schedule {
            obs::trace(obs::TraceEvent::FrameStart {
                session: self.index as u32,
                frame: k as u32,
            });
        }
        let before_results = self.out.results.len();
        let started = Instant::now();
        let mut frame_stats = QueryStats::default();
        let mut first_err: Option<StorageError> = None;
        self.merge_pdq.clear();
        self.merge_npdq.clear();
        for (li, r) in self.lanes.clone().enumerate() {
            let tree = &*trees[r].read();
            match &mut self.engines[li] {
                LaneEngine::Pdq(pdq) => {
                    for report in slates[r].read().reports_of(r, k) {
                        pdq.notify(tree, report);
                    }
                    if in_schedule {
                        let (t0, t1) = (self.spec.frame_times[k], self.spec.frame_times[k + 1]);
                        self.scratch.clear();
                        let res = pdq.try_drain_window_into(tree, t0, t1, &mut self.scratch);
                        for pr in &self.scratch {
                            self.merge_pdq.push((
                                pr.visibility.start().unwrap_or(f64::NEG_INFINITY),
                                pr.record.oid,
                                pr.record.seq,
                            ));
                        }
                        if let Err(e) = res {
                            first_err.get_or_insert(e);
                        }
                    }
                    let st = pdq.take_stats();
                    frame_stats += st;
                    self.region_reads[r] += st.disk_accesses;
                }
                LaneEngine::Npdq(npdq) => {
                    if in_schedule {
                        let t = self.spec.frame_times[k];
                        let q = SnapshotQuery::at_instant(self.spec.trajectory.window_at(t), t);
                        let mark = self.merge_npdq.len();
                        let merge = &mut self.merge_npdq;
                        match npdq.try_execute(tree, &q, t, |rec: &NsiSegmentRecord<D>| {
                            merge.push(rec.ids());
                        }) {
                            Ok(st) => {
                                frame_stats += st;
                                self.region_reads[r] += st.disk_accesses;
                            }
                            Err(e) => {
                                // A failed lane contributes nothing.
                                self.merge_npdq.truncate(mark);
                                first_err.get_or_insert(e);
                            }
                        }
                    }
                }
            }
        }
        // The seam merge. PDQ: order by the queue's own priority keys —
        // (visibility start, then object identity) — and deliver each
        // object once ever; a straddler drained by two lanes ties on the
        // full key, so which copy survives is immaterial. NPDQ: snapshot
        // per frame, ordered and deduplicated by identity within the
        // frame only.
        match self.spec.kind {
            SessionKind::Pdq => {
                self.merge_pdq.sort_unstable_by(|a, b| {
                    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
                });
                for &(_, oid, seq) in &self.merge_pdq {
                    if self.delivered.insert((oid, seq)) {
                        self.out.results.push((oid, seq));
                    }
                }
            }
            SessionKind::Npdq => {
                self.merge_npdq.sort_unstable();
                self.merge_npdq.dedup();
                self.out.results.extend(self.merge_npdq.iter().copied());
            }
        }
        let latency_ns = started.elapsed().as_nanos() as u64;
        self.out.stats += frame_stats;
        if !in_schedule {
            return match first_err {
                Some(e) => Err(e),
                None => Ok(None),
            };
        }
        let results = self.out.results.len() - before_results;
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
            None => Ok(Some(latency_ns)),
        }
    }

    fn finish(mut self) -> SessionOutput {
        self.fold_engine_marks();
        self.out
    }
}

/// What a region's writer last broadcast: the frame whose routed slice
/// it applied and the [`rtree::InsertReport`]s those inserts produced —
/// §4.1's notification of running PDQs. There is one per region per
/// epoch, written once a frame by the region's writer and read where it
/// lies by every PDQ lane on the region; nothing is copied per session.
///
/// One slot is enough because the region's [`FrameClock`] alternates the
/// writer with its readers: `wait_ready(k)` holds batch `k` back until
/// every live attached session has finished frame `k - 1`, and a session
/// reads frame `k` only once `applied` covers it. So while anyone reads
/// frame `k` the slate holds frame `k` or — the region's slice of batch
/// `k` was empty, or its writer has failed — an older one, which that
/// reader has already absorbed or joined after, and skips.
#[derive(Default)]
struct Slate<const D: usize> {
    /// Frame of the last non-empty slice applied (`None`: none yet).
    frame: Option<usize>,
    reports: Vec<NsiReport<D>>,
    /// Most reports ever published at once.
    hwm: usize,
}

impl<const D: usize> Slate<D> {
    /// Writer side, after the tree's write lock dropped: frame `k`'s
    /// reports replace the previous frame's, whose buffer goes back to the
    /// caller for the next batch.
    fn publish(&mut self, k: usize, reports: &mut Vec<NsiReport<D>>) {
        std::mem::swap(&mut self.reports, reports);
        self.frame = Some(k);
        self.hwm = self.hwm.max(self.reports.len());
        obs::trace(obs::TraceEvent::InsertBroadcast {
            reports: self.reports.len() as u32,
        });
    }

    /// Reader side: what a session at frame `k` must absorb from region
    /// `r` — this slate's reports if they are frame `k`'s, else nothing.
    /// A slate ahead of its reader means the clock let the writer overrun
    /// it: a protocol violation, which fails the session that sees it.
    fn reports_of(&self, r: usize, k: usize) -> &[NsiReport<D>] {
        assert!(
            self.frame <= Some(k),
            "region {r}'s slate holds frame {:?} while a session reads frame {k}: \
             the writer overran an attached reader",
            self.frame,
        );
        if self.frame == Some(k) {
            &self.reports
        } else {
            &[]
        }
    }
}

/// Per-region writer tallies while a run is in flight.
#[derive(Clone, Default)]
struct RegionTally {
    applied: usize,
    reads: u64,
    writes: u64,
    outcome: SessionOutcome,
}

impl RegionTally {
    /// A failed region writer (full device) stops applying — a full
    /// disk stays full. The log keeps committing and checkpointing
    /// regardless: a checkpoint holds what was committed, not what a
    /// tree absorbed, so the backlog replays onto a larger device.
    fn failed(&self) -> bool {
        matches!(self.outcome, SessionOutcome::Failed(_))
    }
}

/// Tallies of the durability participant (WAL commits + logical
/// checkpoints) over one partitioned run.
#[derive(Clone, Copy, Default)]
struct DurabilityTally {
    appends: u64,
    commit_ns: u64,
    checkpoints: u64,
}

/// Writer tallies folded over every epoch of a run (regions are not
/// comparable across recuts, so cross-epoch figures only exist summed).
#[derive(Default)]
struct RunTotals {
    applied: usize,
    reads: u64,
    writes: u64,
    outcome: SessionOutcome,
}

impl RunTotals {
    fn absorb(&mut self, tallies: &[RegionTally]) {
        for t in tallies {
            self.applied += t.applied;
            self.reads += t.reads;
            self.writes += t.writes;
            match &t.outcome {
                SessionOutcome::Ok => {}
                SessionOutcome::Degraded { errors } => {
                    for e in errors {
                        self.outcome.record_error(e.clone());
                    }
                }
                SessionOutcome::Failed(msg) => {
                    self.outcome = SessionOutcome::Failed(msg.clone());
                }
            }
        }
    }
}

/// One epoch of a partitioned run: a grid, its trees, and per region
/// one frame clock and one [`Slate`] — everything that must be replaced
/// wholesale at a live recut.
struct Epoch<const D: usize, S: PageStore> {
    /// First global frame this epoch serves.
    start: usize,
    /// One past the last global frame this epoch serves.
    end: usize,
    grid: RegionGrid,
    trees: Vec<RegionTree<D, S>>,
    /// `clocks[r]` orders region `r`'s frames against its sessions.
    clocks: Vec<FrameClock>,
    /// `slates[r]`: the insert reports of the last frame region `r`'s
    /// writer applied, for the PDQ lanes on `r` to absorb.
    slates: Vec<RwLock<Slate<D>>>,
    /// `lanes[i]`: the regions session `i`'s trajectory sweeps under
    /// this epoch's grid.
    lanes: Vec<Range<usize>>,
    /// Session-side node reads attributed per region, flushed in by
    /// each session before its final ack of the epoch (feeds recut
    /// loads and the final report).
    session_loads: Vec<AtomicU64>,
}

/// The ordered list of published epochs. Sessions wait here for epoch
/// `e` to exist; the coordinator publishes each next epoch only after
/// the previous one drained.
struct EpochGate<const D: usize, S: PageStore> {
    published: Mutex<Vec<Arc<Epoch<D, S>>>>,
    cv: Condvar,
}

impl<const D: usize, S: PageStore> EpochGate<D, S> {
    fn new() -> Self {
        EpochGate {
            published: Mutex::new(Vec::new()),
            cv: Condvar::new(),
        }
    }

    fn publish(&self, ep: Arc<Epoch<D, S>>) {
        self.published.lock().push(ep);
        self.cv.notify_all();
    }

    fn wait_for(&self, e: usize) -> Arc<Epoch<D, S>> {
        let mut g = self.published.lock();
        while g.len() <= e {
            self.cv.wait(&mut g);
        }
        Arc::clone(&g[e])
    }

    fn snapshot(&self) -> Vec<Arc<Epoch<D, S>>> {
        self.published.lock().clone()
    }
}

/// Build one epoch: route every plan's lanes under `grid`, clamp every
/// plan's window to `[start, end)`, and give each region a blank slate
/// and a clock that knows exactly which sessions are attached to it —
/// session `i` to region `r` over its clamped window, when its lanes
/// reach `r` and its window the epoch.
#[allow(clippy::too_many_arguments)]
fn make_epoch<const D: usize, S: PageStore>(
    plans: &[SessionPlan<D>],
    plan_windows: &[Option<(u64, u64)>],
    grid: RegionGrid,
    trees: Vec<RegionTree<D, S>>,
    live: &Arc<SessionLiveness>,
    start: usize,
    end: usize,
    durable: bool,
) -> Arc<Epoch<D, S>> {
    let n = grid.len();
    let lanes: Vec<Range<usize>> = plans
        .iter()
        .map(|p| grid.route_rect(&p.spec.trajectory.swept_bounds()))
        .collect();
    let clocks: Vec<FrameClock> = (0..n)
        .map(|r| {
            let windows = plan_windows
                .iter()
                .enumerate()
                .map(|(i, w)| {
                    w.and_then(|(f, l)| {
                        let f = f.max(start as u64);
                        let l = l.min(end.saturating_sub(1) as u64);
                        (lanes[i].contains(&r) && f <= l).then_some((f, l))
                    })
                })
                .collect();
            FrameClock::new(windows, Arc::clone(live), start as u64, durable)
        })
        .collect();
    let slates = (0..n).map(|_| RwLock::new(Slate::default())).collect();
    let session_loads: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    Arc::new(Epoch {
        start,
        end,
        grid,
        trees,
        clocks,
        slates,
        lanes,
        session_loads,
    })
}

/// Epoch boundaries of a run: `[0, recut frames..., steps]`. Recut
/// frames must be strictly increasing and strictly inside the run.
fn epoch_bounds(recuts: &[RecutPlan], steps: usize) -> Vec<usize> {
    let mut bounds = vec![0];
    for rp in recuts {
        assert!(
            rp.at_frame > *bounds.last().expect("non-empty") && rp.at_frame < steps,
            "recut frames must be strictly increasing and inside the run"
        );
        assert!(rp.target_regions >= 1, "recut needs at least one region");
        bounds.push(rp.at_frame);
    }
    bounds.push(steps);
    bounds
}

/// Refill `routed` with the slice of `batch` that routes to region `r`
/// under `grid`, in batch order. The caller keeps one buffer per writer,
/// so a frame's routing allocates nothing once the buffer has grown.
fn route_slice<const D: usize>(
    grid: &RegionGrid,
    r: usize,
    batch: &[(NsiSegmentRecord<D>, f64)],
    routed: &mut Vec<(NsiSegmentRecord<D>, f64)>,
) {
    routed.clear();
    routed.extend(
        batch
            .iter()
            .filter(|(rec, _)| grid.route_rect(&rec.seg.spatial_bbox()).contains(&r)),
    );
}

/// Every record resident across `trees`, in `(oid, seq)` order and
/// deduplicated by it so seam replicas collapse to one copy — what a
/// recut re-routes and the base checkpoint persists.
fn dedup_from<const D: usize, S: PageStore>(
    trees: &[RegionTree<D, S>],
) -> Vec<NsiSegmentRecord<D>> {
    let mut records = Vec::new();
    for lock in trees {
        lock.read().scan(|rec| records.push(*rec));
    }
    records.sort_unstable_by_key(NsiSegmentRecord::ids);
    records.dedup_by_key(|rec| rec.ids());
    records
}

/// The grid-axis extent spanned by `records` (degenerate sets get a
/// unit slab so `RegionGrid::recut` always has room to cut).
fn record_bounds<const D: usize>(axis: usize, records: &[NsiSegmentRecord<D>]) -> Interval {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for rec in records {
        let e = rec.seg.spatial_bbox().extent(axis);
        lo = lo.min(e.lo);
        hi = hi.max(e.hi);
    }
    if lo < hi {
        Interval::new(lo, hi)
    } else if lo.is_finite() {
        Interval::new(lo - 0.5, lo + 0.5)
    } else {
        Interval::new(0.0, 1.0)
    }
}

/// A rebuild tiles on time first, then space. A serving index is mostly
/// history, and a frame at `t` can match only what is alive at `t`: cut
/// on time first and those records get leaves of their own; cut on space
/// first (the §5 experiment order) and they are spread over every leaf.
/// `dqbench` `query`, seed 1, `node_reads_per_frame` /
/// `dist_comps_per_frame`, inserted tree 25.38 / 2199.6: space-first at
/// fill 0.70 reads 30.64 / 2421.1, at 0.85 26.85 / 2494.6; time-first at
/// the same fills 20.80 / 1838.2 and 18.27 / 1823.9.
const REBUILD_ORDER: AxisOrder = AxisOrder::LastFirst;

/// How full a rebuild packs each node: the low end of the plateau
/// `dqbench` measured for [`REBUILD_ORDER`] (exact counts, seed 1; seed 2
/// orders the same way).
///
/// | fill | `query` reads / comps | `ingest` reads | `wire` reads | `wire` PDQ reads | `wire` writer hold |
/// |---|---|---|---|---|---|
/// | inserted | 25.38 / 2199.6 | 7.833 | 4.448 | 0.197 | 12.5 µs |
/// | 0.65 | 34.27 / 2836.2 | | 4.441 | | |
/// | **0.70** | 20.80 / 1838.2 | 7.438 | 4.472 | 0.195 | 12.2 µs |
/// | 0.75 | 19.34 / 1833.7 | 7.571 | 4.346 | 0.201 | 14.1 µs |
/// | 0.80 | 18.68 / 1847.1 | 7.123 | 4.367 | 0.211 | 13.4 µs |
/// | 0.85 | 18.27 / 1823.9 | 6.914 | 4.397 | 0.396 | 16.9 µs |
/// | 0.90 | 18.66 / 1804.6 | 7.158 | 4.326 | 0.389 | 15.6 µs |
/// | 1.0 | 24.39 / 1901.1 | | | | |
///
/// (Reads and comps per session-frame; PDQ reads per frame and the
/// writer's lock hold per frame from the traced run, hold as the median
/// of 10.) From 0.70 to 0.90 a frame reads 18–28 % fewer nodes than over
/// the inserted tree. Below, the gain falls off a cliff — 0.65 reads
/// 35 % *more*, 0.5 reads 41.65. The loader cuts ⌈∛tiles⌉ time slabs:
/// over `query`'s ≈115 k records a region that is 11 slabs of 9.1 % from
/// 0.70 to 0.90, and the last one holds all of the parked objects' long
/// last segments — the ~20 k records (8.7 %) that are everything a frame
/// past the preload can match. At 0.65 it is 12 slabs of 8.3 %: the
/// boundary falls inside that population and mixes its tail into history
/// leaves, whose time extent then covers every frame. So the value is
/// not to be lowered, nor the preload's shape assumed elsewhere, without
/// rerunning `query`.
/// Above 0.80 the reads keep falling but the writer pays: leaves at the
/// time frontier, where every live insert lands, start nearly full,
/// split sooner, and each split re-enqueues a subtree in every PDQ — on
/// `wire` PDQ reads per frame double and the writer's hold grows by a
/// third. 0.70 is the one fill that raises neither on `wire` or
/// `ingest`, and it is the nearest to what inserts converge to on their
/// own (`rtree.leaf_fill` 0.62–0.65).
const REBUILD_FILL: f64 = 0.70;

/// Every rebuild of the region trees — server start, the base of a
/// recovery, [`PartitionedDqServer::rebalance`], a live recut: route
/// `records` under `grid`, seam straddlers into every region they touch,
/// then pack each region's tree bottom-up into the empty tree `make_tree`
/// returns for it (so its store, pool and configuration are the
/// caller's). The trees are a function of the record multiset and the
/// grid, not of the order records arrive in. Inserts are for what comes
/// after: live frames, and the WAL tail replayed over a recovered base.
fn build_regions<const D: usize, S: PageStore>(
    grid: &RegionGrid,
    records: &[NsiSegmentRecord<D>],
    make_tree: &mut dyn FnMut(usize) -> RTree<NsiSegmentRecord<D>, S>,
) -> Vec<RegionTree<D, S>> {
    let mut routed: Vec<Vec<u32>> = vec![Vec::new(); grid.len()];
    for (i, rec) in (0u32..).zip(records) {
        for r in grid.route_rect(&rec.seg.spatial_bbox()) {
            routed[r].push(i);
        }
    }
    routed
        .into_iter()
        .enumerate()
        .map(|(r, members)| {
            let mut tree = make_tree(r);
            assert!(tree.is_empty(), "make_tree must return empty trees");
            pack_into(&mut tree, records, members, REBUILD_ORDER, REBUILD_FILL);
            Arc::new(RwLock::new(tree))
        })
        .collect()
}

/// Install the record set resident in `trees` (seam replicas collapsed)
/// as `log`'s logical checkpoint: the one tree scan of a durable
/// server's life, capturing what was preloaded before the log saw a
/// commit. Every later checkpoint folds the log instead
/// ([`DurableLog::fold_checkpoint`]) and never comes back here.
fn checkpoint_from<const D: usize, S: PageStore>(trees: &[RegionTree<D, S>], log: &DurableLog) {
    log.checkpoint_logical(&dedup_from(trees));
}

/// Take `log`'s periodic checkpoint if its cadence says one is due;
/// returns how many were installed (0 or 1). A refused fold is counted
/// by the log and leaves the longer WAL in place.
fn fold_if_due<const D: usize>(log: &DurableLog) -> u64 {
    u64::from(log.due_for_checkpoint() && log.fold_checkpoint::<D>().is_ok())
}

/// A serving instance owning one NSI tree *per region*.
///
/// ```
/// use mobiquery::{PartitionedDqServer, RegionGrid, SessionKind, SessionSpec, Trajectory};
/// use rtree::{NsiSegmentRecord, RTree, RTreeConfig};
/// use storage::Pager;
/// use stkit::{Interval, Rect};
///
/// let preload = vec![NsiSegmentRecord::new(
///     7, 0, Interval::new(0.0, 100.0), [5.5, 0.5], [5.5, 0.5],
/// )];
/// let server = PartitionedDqServer::build(
///     RegionGrid::from_cuts(0, vec![4.0, 8.0]),
///     &preload,
///     |_region| RTree::new(Pager::new(), RTreeConfig::default()),
/// );
/// let spec = SessionSpec {
///     kind: SessionKind::Pdq,
///     trajectory: Trajectory::linear(
///         Rect::from_corners([0.0, 0.0], [1.0, 1.0]),
///         [1.0, 0.0], Interval::new(0.0, 10.0), 2),
///     frame_times: (0..=10).map(f64::from).collect(),
/// };
/// let report = server.serve(&[spec], &[]);
/// assert_eq!(report.sessions[0].results, vec![(7, 0)]);
/// ```
pub struct PartitionedDqServer<const D: usize, S: PageStore> {
    grid: RegionGrid,
    /// One tree per region; the locks are `Arc`-wrapped so live epochs
    /// share them with `&self`.
    regions: Vec<RegionTree<D, S>>,
    /// Accumulated per-region load across serves (feeds hotspot
    /// detection and recutting).
    loads: Mutex<Vec<u64>>,
    metrics: Option<Arc<obs::MetricsRegistry>>,
    writer_retry: RetryPolicy,
    /// When set, every frame's batch is group-committed to the WAL
    /// before any region applies it, and checkpoints (a record set, not
    /// per-region page images) are installed when due. Survives
    /// [`Self::rebalance`]: a record set is partition-independent.
    durability: Option<Arc<DurableLog>>,
}

impl<const D: usize, S: PageStore> PartitionedDqServer<D, S> {
    /// Build one tree per region (each from `make_tree`, which must
    /// return an *empty* tree — typically over its own pool slice):
    /// `preload` is routed into every region its segment's spatial bbox
    /// overlaps and each region's share is packed bottom-up
    /// ([`rtree::bulk`]), not inserted. The trees depend on which records
    /// `preload` holds, not on their order; packed nodes carry the
    /// never-modified timestamp, and every session served afterwards
    /// starts with no previous query.
    pub fn build(
        grid: RegionGrid,
        preload: &[NsiSegmentRecord<D>],
        mut make_tree: impl FnMut(usize) -> RTree<NsiSegmentRecord<D>, S>,
    ) -> Self {
        let regions = build_regions(&grid, preload, &mut make_tree);
        let loads = Mutex::new(vec![0; grid.len()]);
        PartitionedDqServer {
            grid,
            regions,
            loads,
            metrics: None,
            writer_retry: RetryPolicy::default(),
            durability: None,
        }
    }

    /// Record serving metrics into `registry` (builder-style).
    ///
    /// Metric names: `service.drain_ns` (per-session-frame drain latency
    /// histogram), `service.writer.lock_hold_ns` (write-lock hold-time
    /// histogram), `service.clock_wait_ns` (time any participant spent
    /// blocked on a frame-clock watermark), `service.frame_lag` (gauge:
    /// deepest applied-watermark lead over the slowest attached session),
    /// `service.mailbox_hwm` (gauge: most insert reports any region
    /// published for one frame; the name, which `dqbench` reads, predates
    /// the single slate per region), `service.frames` /
    /// `service.inserts` / `service.results` / `service.writer.reads` /
    /// `service.session.reads` (run counters), `service.pdq.queue_hwm` /
    /// `service.npdq.discarded`, and per-region labels
    /// `service.region{r}.{inserts,writer.reads,writer.writes,session.reads,load}`.
    pub fn with_metrics(mut self, registry: Arc<obs::MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// How each region's writer treats transient insert failures
    /// (builder-style). A failed [`rtree::RTree::try_insert`] descent
    /// leaves the tree unchanged, so the writer can retry the same
    /// record; backoff sleeps happen with the write lock *released*.
    /// Default: [`RetryPolicy::default`].
    pub fn with_writer_retry(mut self, policy: RetryPolicy) -> Self {
        self.writer_retry = policy;
        self
    }

    /// Make the write path durable (builder-style): each frame's whole
    /// batch is appended to `log`'s WAL as one group-committed record
    /// *before* any region writer touches a tree page (the per-region
    /// clocks' `committed` watermark publishes exactly that fact). The
    /// preloaded regions are scanned once into the base
    /// [`crate::LogicalCheckpoint`]; when a later one falls due the log
    /// folds its own tail into that base
    /// ([`DurableLog::fold_checkpoint`]) without reading a tree or
    /// holding back a writer. Recovery is a packed base plus an inserted
    /// tail: [`Self::build`] over the checkpoint's record set, then the
    /// WAL frames past its watermark re-applied as the live inserts they
    /// were — result-equivalent to the crashed server, under any grid,
    /// not page-identical to it.
    pub fn with_durability(mut self, log: Arc<DurableLog>) -> Self {
        self.durability = Some(log);
        self
    }

    /// The current partition function.
    pub fn grid(&self) -> &RegionGrid {
        &self.grid
    }

    /// Accumulated per-region loads (across every serve since the last
    /// rebalance).
    pub fn region_loads(&self) -> Vec<u64> {
        self.loads.lock().clone()
    }

    /// Records resident per region. Seam replicas count once per region,
    /// so the sum can exceed the distinct record count.
    pub fn region_record_counts(&self) -> Vec<u64> {
        self.regions.iter().map(|t| t.read().len()).collect()
    }

    /// Run a value out of region `r`'s tree under its read lock.
    pub fn with_region_tree<T>(
        &self,
        r: usize,
        f: impl FnOnce(&RTree<NsiSegmentRecord<D>, S>) -> T,
    ) -> T {
        f(&self.regions[r].read())
    }

    /// The region (if any) whose accumulated load exceeds `factor` times
    /// the mean — the rebalance trigger. A single-region grid has no
    /// hotspot (there is nothing to shed load to).
    pub fn hotspot(&self, factor: f64) -> Option<usize> {
        let loads = self.loads.lock();
        if loads.len() < 2 {
            return None;
        }
        let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
        let (r, &max) = loads
            .iter()
            .enumerate()
            .max_by_key(|&(_, &l)| l)
            .expect("non-empty");
        (max as f64 > factor * mean && mean > 0.0).then_some(r)
    }

    /// Recut the grid into `target_regions` at equal-load quantiles of
    /// the accumulated per-region loads and rebuild the region trees
    /// (between serves — callers hold `&mut self`, so no epoch is in
    /// flight). The same handoff [`RecutPlan`] performs mid-run, minus
    /// the live sessions: records are collected from every region,
    /// deduplicated by `(oid, seq)` (seam replicas collapse), then
    /// re-routed under the new cuts and packed as [`Self::build`] packs
    /// a preload — the same set under the same cuts gives the same
    /// pages; load tallies reset.
    pub fn rebalance(
        &mut self,
        target_regions: usize,
        mut make_tree: impl FnMut(usize) -> RTree<NsiSegmentRecord<D>, S>,
    ) {
        let records = dedup_from(&self.regions);
        let grid = {
            let loads = self.loads.lock();
            self.grid
                .recut(record_bounds(self.grid.axis(), &records), &loads, target_regions)
        };
        self.regions = build_regions(&grid, &records, &mut make_tree);
        self.grid = grid;
        *self.loads.lock() = vec![0; self.grid.len()];
    }

    /// Take the base checkpoint covering the preloaded regions, so
    /// recovery always has a record set to replay onto (idempotent:
    /// skipped once the log holds any checkpoint).
    fn ensure_initial_checkpoint(&self, log: &DurableLog) {
        if !log.has_checkpoint() {
            checkpoint_from(&self.regions, log);
        }
    }

    /// Checkpoint now, regardless of the cadence counter: fold every
    /// commit still in the WAL into the logical checkpoint and truncate
    /// (taking the base checkpoint first if the server never served).
    /// Costs the commits since the last checkpoint, not the index.
    /// Returns whether a checkpoint was installed — `false` on a
    /// non-durable server or a refused fold. The network front door
    /// calls this on graceful shutdown so recovery after a drain
    /// replays zero records.
    pub fn checkpoint_now(&self) -> bool {
        self.durability.as_deref().is_some_and(|log| {
            self.ensure_initial_checkpoint(log);
            log.fold_checkpoint::<D>().is_ok()
        })
    }

    /// Global frame steps for a run: enough for every plan's window and
    /// every insert batch.
    fn step_count(
        &self,
        plans: &[SessionPlan<D>],
        inserts: &[Vec<(NsiSegmentRecord<D>, f64)>],
    ) -> usize {
        plans
            .iter()
            .filter_map(|p| p.window().map(|(_, last)| last as usize + 1))
            .max()
            .unwrap_or(0)
            .max(inserts.len())
    }

    /// Apply one region's routed slice under that region's write lock.
    /// Transient failures back off with the lock *released* and resume
    /// from the failed record; records whose errors are unrecoverable
    /// (corrupt page) or whose retry budget is exhausted are skipped
    /// into the tally's outcome.
    fn apply_region_batch(
        &self,
        tree: &RwLock<RTree<NsiSegmentRecord<D>, S>>,
        batch: &[(NsiSegmentRecord<D>, f64)],
        reports: &mut Vec<NsiReport<D>>,
        w: &mut RegionTally,
        hold_hist: Option<&Arc<obs::Histogram>>,
    ) {
        let mut idx = 0;
        let mut attempt = 0u32;
        while idx < batch.len() {
            let backoff = {
                let mut tree = tree.write();
                let held = Instant::now();
                let before = tree.level_counters().snapshot();
                let mut backoff = None;
                while idx < batch.len() {
                    let (rec, now) = &batch[idx];
                    match tree.try_insert(*rec, *now) {
                        Ok(report) => {
                            reports.push(report);
                            w.applied += 1;
                            idx += 1;
                            attempt = 0;
                        }
                        Err(e)
                            if e.is_transient()
                                && attempt + 1 < self.writer_retry.max_attempts =>
                        {
                            attempt += 1;
                            backoff = Some(self.writer_retry.backoff(attempt));
                            break;
                        }
                        // A full device fails the region's writer for the
                        // rest of the run: skipping ahead would drop
                        // records silently, and retrying a full disk is
                        // futile.
                        Err(e @ StorageError::Full { .. }) => {
                            w.outcome = SessionOutcome::Failed(format!("writer stopped: {e}"));
                            idx = batch.len();
                        }
                        Err(e) => {
                            w.outcome.record_error(e);
                            idx += 1;
                            attempt = 0;
                        }
                    }
                }
                let delta = tree.level_counters().snapshot() - before;
                w.reads += delta.total_reads();
                w.writes += delta.total_writes();
                if let Some(h) = hold_hist {
                    h.record(held.elapsed().as_nanos() as u64);
                }
                backoff
            };
            if let Some(pause) = backoff {
                std::thread::sleep(pause);
            }
        }
    }

    /// Region `r`'s writer over one epoch: per frame, wait for the WAL
    /// commit (durable runs) and for every attached session's permit,
    /// apply the routed slice, publish its reports on `r`'s slate, and
    /// advance `r`'s `applied` watermark — every frame, batch or not, so
    /// sessions of an idle or failed region never stall.
    fn writer_loop(
        &self,
        ep: &Epoch<D, S>,
        r: usize,
        inserts: &[Vec<(NsiSegmentRecord<D>, f64)>],
        hold_hist: Option<&Arc<obs::Histogram>>,
        wait_hist: &Option<Arc<obs::Histogram>>,
        lag_gauge: Option<&Arc<obs::Gauge>>,
    ) -> RegionTally {
        let mut w = RegionTally::default();
        let mut reports: Vec<NsiReport<D>> = Vec::new();
        let mut routed = Vec::new();
        let clock = &ep.clocks[r];
        for k in ep.start..ep.end {
            let ku = k as u64;
            if let Some(batch) = inserts.get(k) {
                route_slice(&ep.grid, r, batch, &mut routed);
                if !routed.is_empty() && !w.failed() {
                    // WAL before any page write, then flow control:
                    // every live attached session has acked past `k`
                    // (finished frame `k - 1`, or — at its join frame —
                    // built its engines). Frames that route nothing
                    // here skip both waits, so the ack check must not
                    // be window-scoped (a later non-empty batch would
                    // slip past a still-reading session).
                    record_wait(wait_hist, clock.wait_committed(ku));
                    record_wait(wait_hist, clock.wait_ready(ku));
                    reports.clear();
                    self.apply_region_batch(&ep.trees[r], &routed, &mut reports, &mut w, hold_hist);
                    // `wait_ready` above is also why nobody still reads
                    // the slate's previous frame.
                    ep.slates[r].write().publish(k, &mut reports);
                    obs::trace(obs::TraceEvent::RegionRoute {
                        region: r as u32,
                        records: routed.len() as u32,
                    });
                }
            }
            let lag = clock.advance_applied(ku + 1);
            if let Some(g) = lag_gauge {
                g.record_max(lag as i64);
            }
            obs::trace(obs::TraceEvent::FrameAdvance {
                region: r as u32,
                frame: k as u32,
                watermark: obs::Watermark::Applied,
            });
        }
        w
    }

    /// The durability participant (one per durable run; durable runs
    /// are single-epoch): per frame, fold the log into the checkpoint
    /// when one is due, group-commit the batch, then advance every
    /// region's `committed` watermark. It never looks at a tree or a
    /// region's `applied` watermark: the writers run on behind it.
    fn durability_loop(
        &self,
        ep: &Epoch<D, S>,
        log: &DurableLog,
        steps: usize,
        inserts: &[Vec<(NsiSegmentRecord<D>, f64)>],
    ) -> DurabilityTally {
        let mut t = DurabilityTally::default();
        for k in 0..steps {
            let ku = k as u64;
            if let Some(batch) = inserts.get(k) {
                t.checkpoints += fold_if_due::<D>(log);
                let committed = Instant::now();
                log.commit_frame(ku, batch);
                t.appends += 1;
                t.commit_ns += committed.elapsed().as_nanos() as u64;
            }
            for (r, c) in ep.clocks.iter().enumerate() {
                c.advance_committed(ku + 1);
                obs::trace(obs::TraceEvent::FrameAdvance {
                    region: r as u32,
                    frame: k as u32,
                    watermark: obs::Watermark::Committed,
                });
            }
        }
        // A checkpoint that came due on the run's last commits.
        t.checkpoints += fold_if_due::<D>(log);
        t
    }

    /// One session's thread over the whole run: walk the epochs its
    /// window intersects, (re)build lane engines at each handoff, and
    /// inside an epoch run the clock protocol — wait `applied`, step
    /// (absorbing the lanes' slates), sink, ack. However the session's
    /// life ends, it detaches from its lane clocks in one place and keeps
    /// its results so far.
    #[allow(clippy::too_many_arguments)]
    fn session_loop(
        i: usize,
        plan: &SessionPlan<D>,
        epoch_count: usize,
        gate: &EpochGate<D, S>,
        sink: Option<&dyn FrameSink>,
        drain_hist: &Option<Arc<obs::Histogram>>,
        wait_hist: &Option<Arc<obs::Histogram>>,
    ) -> SessionOutput {
        let Some((gf, gl)) = plan.window() else {
            // Never scheduled: no engines, no clock attachment anywhere.
            return SessionOutput::default();
        };
        let mut run: Option<LaneRun<'_, D>> = None;
        let mut failure: Option<SessionOutcome> = None;
        let mut started: Option<Instant> = None;
        // The epoch whose lane clocks currently hold this session.
        let mut attached: Option<Arc<Epoch<D, S>>> = None;
        'life: for e in 0..epoch_count {
            let ep = gate.wait_for(e);
            let f = gf.max(ep.start as u64);
            let l = gl.min(ep.end.saturating_sub(1) as u64);
            if f > l {
                continue;
            }
            let ep = &**attached.insert(ep);
            let lanes = ep.lanes[i].clone();
            // Wait for the join/handoff boundary on every lane: trees
            // hold exactly state_{f-1} (the writers withhold batch `f`
            // until our un-acked permit clears), so the engines build
            // against precisely what the serial reference shows them.
            for r in lanes.clone() {
                record_wait(wait_hist, ep.clocks[r].wait_applied(f));
            }
            if started.is_none() {
                started = Some(Instant::now());
            }
            let prep = match &mut run {
                None => catch_unwind(AssertUnwindSafe(|| {
                    LaneRun::start(i, &plan.spec, &ep.grid, &ep.trees)
                }))
                .map(Some),
                Some(r0) => catch_unwind(AssertUnwindSafe(|| {
                    r0.rebuild(&ep.grid, &ep.trees);
                    None
                })),
            };
            match prep {
                Ok(Some(r0)) => run = Some(r0),
                Ok(None) => {}
                Err(p) => {
                    let msg = panic_message(p);
                    match &mut run {
                        Some(r0) => r0.out.outcome = SessionOutcome::Failed(msg),
                        None => failure = Some(SessionOutcome::Failed(msg)),
                    }
                    break 'life;
                }
            }
            for r in lanes.clone() {
                ep.clocks[r].ack(i, f + 1);
            }
            let r0 = run.as_mut().expect("engines exist past prep");
            for k in f..=l {
                for r in lanes.clone() {
                    record_wait(wait_hist, ep.clocks[r].wait_applied(k + 1));
                }
                let results_before = r0.out.results.len();
                let frames_before = r0.out.frames.len();
                // Contain panics to the engine work alone; the clock
                // calls stay outside so a caught panic can't corrupt
                // the frame protocol.
                let stepped = catch_unwind(AssertUnwindSafe(|| {
                    r0.step_frame(&ep.trees, &ep.slates, k as usize)
                }));
                match stepped {
                    Ok(Ok(Some(ns))) => {
                        if let Some(h) = drain_hist {
                            h.record(ns);
                        }
                    }
                    Ok(Ok(None)) => {}
                    Ok(Err(e)) => r0.out.outcome.record_error(e),
                    Err(p) => {
                        // Dead engine: keep the results so far.
                        r0.out.outcome = SessionOutcome::Failed(panic_message(p));
                        break 'life;
                    }
                }
                if r0.out.frames.len() > frames_before {
                    if let Some(sink) = sink {
                        let f = r0.out.frames.last().expect("frame just reported");
                        let delta = FrameDelta {
                            session: i,
                            frame: f.frame,
                            results: &r0.out.results[results_before..],
                            latency_ns: f.latency_ns,
                        };
                        if sink.on_frame(&delta) == SinkVerdict::Detach {
                            // Evicted by its consumer before the ack: the
                            // next batch's permit is never granted.
                            r0.out.outcome =
                                SessionOutcome::Failed("detached by frame sink".into());
                            break 'life;
                        }
                    }
                }
                if !plan.frame_delay.is_zero() {
                    std::thread::sleep(plan.frame_delay);
                }
                if k == l {
                    // Last frame of this epoch: flush before the final
                    // ack, so the coordinator's drain sees the loads.
                    r0.flush_loads(|r, c| {
                        ep.session_loads[r].fetch_add(c, Ordering::Relaxed);
                    });
                }
                for r in lanes.clone() {
                    ep.clocks[r].ack(i, k + 2);
                }
            }
            if l == gl {
                break;
            }
        }
        // End of life — schedule complete, engine dead or never built,
        // or evicted: flush the read attribution and detach from the
        // lane clocks, here and nowhere else, so no writer waits on this
        // slot again (an epoch handoff is not a detach; later epochs
        // never attach a dead session — liveness is shared).
        if let Some(ep) = &attached {
            if let Some(r0) = &mut run {
                r0.flush_loads(|r, c| {
                    ep.session_loads[r].fetch_add(c, Ordering::Relaxed);
                });
            }
            for r in ep.lanes[i].clone() {
                ep.clocks[r].detach(i);
            }
        }
        let mut out = match (run, failure) {
            (Some(r0), _) => r0.finish(),
            (None, Some(outcome)) => SessionOutput {
                outcome,
                ..SessionOutput::default()
            },
            (None, None) => SessionOutput::default(),
        };
        if let Some(s) = started {
            out.wall_ns = s.elapsed().as_nanos() as u64;
        }
        out
    }

    /// The concurrent serve: one writer thread per region per epoch, one
    /// thread per session for the whole run, plus (durable runs) one
    /// durability thread — all ordered by the per-region [`FrameClock`]s,
    /// no global barrier anywhere. The coordinator (this thread) performs
    /// the epoch handoffs: join an epoch's writers, drain its clocks,
    /// recut, publish the next epoch through the [`EpochGate`].
    ///
    /// Returns the report plus — when a recut happened — the final grid
    /// and trees for the caller to adopt.
    #[allow(clippy::type_complexity)]
    fn serve_clocked(
        &self,
        plans: &[SessionPlan<D>],
        inserts: &[Vec<(NsiSegmentRecord<D>, f64)>],
        recuts: &[RecutPlan],
        mut make_tree: Option<&mut dyn FnMut(usize) -> RTree<NsiSegmentRecord<D>, S>>,
        sinks: &[Option<&dyn FrameSink>],
    ) -> (
        PartitionedServeReport,
        Option<(RegionGrid, Vec<RegionTree<D, S>>)>,
    )
    where
        S: Sync + Send,
    {
        let steps = self.step_count(plans, inserts);
        let bounds = epoch_bounds(recuts, steps);
        let epoch_count = bounds.len() - 1;
        let durable = self.durability.as_deref();
        assert!(
            epoch_count == 1 || durable.is_none(),
            "live recuts require a non-durable server"
        );
        if let Some(log) = durable {
            self.ensure_initial_checkpoint(log);
        }
        let plan_windows: Vec<Option<(u64, u64)>> = plans.iter().map(|p| p.window()).collect();
        let live = SessionLiveness::new(plans.len());
        let gate = EpochGate::new();
        let ep0 = make_epoch(
            plans,
            &plan_windows,
            self.grid.clone(),
            self.regions.iter().map(Arc::clone).collect(),
            &live,
            0,
            bounds[1],
            durable.is_some(),
        );
        gate.publish(Arc::clone(&ep0));

        let drain_hist = self
            .metrics
            .as_ref()
            .map(|m| m.histogram("service.drain_ns"));
        let hold_hist = self
            .metrics
            .as_ref()
            .map(|m| m.histogram("service.writer.lock_hold_ns"));
        let wait_hist = self
            .metrics
            .as_ref()
            .map(|m| m.histogram("service.clock_wait_ns"));
        let lag_gauge = self.metrics.as_ref().map(|m| m.gauge("service.frame_lag"));

        let mut epoch_tallies: Vec<Vec<RegionTally>> = Vec::new();
        let mut dur = DurabilityTally::default();
        let outputs: Vec<SessionOutput> = std::thread::scope(|scope| {
            let gate_ref = &gate;
            let session_handles: Vec<_> = plans
                .iter()
                .enumerate()
                .map(|(i, plan)| {
                    let drain = drain_hist.clone();
                    let wait = wait_hist.clone();
                    let sink = sinks.get(i).copied().flatten();
                    scope.spawn(move || {
                        Self::session_loop(i, plan, epoch_count, gate_ref, sink, &drain, &wait)
                    })
                })
                .collect();

            let mut dur_handle = None;
            for e in 0..epoch_count {
                let ep = gate.wait_for(e);
                if e == 0 {
                    if let Some(log) = durable {
                        let ep = Arc::clone(&ep);
                        dur_handle = Some(
                            scope.spawn(move || self.durability_loop(&ep, log, steps, inserts)),
                        );
                    }
                }
                let writer_handles: Vec<_> = (0..ep.grid.len())
                    .map(|r| {
                        let ep = Arc::clone(&ep);
                        let hold = hold_hist.clone();
                        let wait = wait_hist.clone();
                        let lag = lag_gauge.clone();
                        scope.spawn(move || {
                            self.writer_loop(&ep, r, inserts, hold.as_ref(), &wait, lag.as_ref())
                        })
                    })
                    .collect();
                let tallies: Vec<RegionTally> = writer_handles
                    .into_iter()
                    .map(|h| h.join().expect("region writer panicked"))
                    .collect();
                if e + 1 < epoch_count {
                    // Epoch handoff: every live session has fully left
                    // this epoch (final acks past `end`), so loads and
                    // tree contents are settled.
                    for c in &ep.clocks {
                        c.wait_drained();
                    }
                    let loads: Vec<u64> = (0..ep.grid.len())
                        .map(|r| {
                            ep.session_loads[r].load(Ordering::Relaxed)
                                + tallies[r].reads
                                + tallies[r].writes
                        })
                        .collect();
                    let records = dedup_from(&ep.trees);
                    let new_grid = ep.grid.recut(
                        record_bounds(ep.grid.axis(), &records),
                        &loads,
                        recuts[e].target_regions,
                    );
                    let make = make_tree.as_deref_mut().expect("recuts require make_tree");
                    let new_trees = build_regions(&new_grid, &records, make);
                    gate.publish(make_epoch(
                        plans,
                        &plan_windows,
                        new_grid,
                        new_trees,
                        &live,
                        bounds[e + 1],
                        bounds[e + 2],
                        false,
                    ));
                }
                epoch_tallies.push(tallies);
            }
            if let Some(h) = dur_handle {
                dur = h.join().expect("durability thread panicked");
            }
            session_handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(out) => out,
                    Err(p) => SessionOutput {
                        outcome: SessionOutcome::Failed(panic_message(p)),
                        ..SessionOutput::default()
                    },
                })
                .collect()
        });

        let published = gate.snapshot();
        if let Some(reg) = &self.metrics {
            let deepest = published
                .iter()
                .flat_map(|ep| ep.slates.iter().map(|s| s.read().hwm))
                .max()
                .unwrap_or(0);
            reg.gauge("service.mailbox_hwm").record_max(deepest as i64);
        }
        let mut totals = RunTotals::default();
        for tallies in &epoch_tallies {
            totals.absorb(tallies);
        }
        let final_tallies = epoch_tallies.pop().expect("at least one epoch");
        let final_ep = published.last().expect("at least one epoch");
        let final_loads: Vec<u64> = final_ep
            .session_loads
            .iter()
            .map(|l| l.load(Ordering::Relaxed))
            .collect();
        let report = self.finish_report(
            steps,
            outputs,
            &final_ep.grid,
            final_tallies,
            &final_loads,
            totals,
            dur,
        );
        let final_state =
            (epoch_count > 1).then(|| (final_ep.grid.clone(), final_ep.trees.clone()));
        (report, final_state)
    }

    /// Single-threaded reference for the clocked serve: the same epoch
    /// schedule, frame interleaving (WAL commit → regions ascending →
    /// sessions ascending) and handoff rebuilds, with no threads and no
    /// clocks. [`Self::serve_plans`] must match this bit-for-bit.
    #[allow(clippy::type_complexity)]
    fn serve_serial_clocked(
        &self,
        plans: &[SessionPlan<D>],
        inserts: &[Vec<(NsiSegmentRecord<D>, f64)>],
        recuts: &[RecutPlan],
        mut make_tree: Option<&mut dyn FnMut(usize) -> RTree<NsiSegmentRecord<D>, S>>,
    ) -> (
        PartitionedServeReport,
        Option<(RegionGrid, Vec<RegionTree<D, S>>)>,
    ) {
        let steps = self.step_count(plans, inserts);
        let bounds = epoch_bounds(recuts, steps);
        let epoch_count = bounds.len() - 1;
        let durable = self.durability.as_deref();
        assert!(
            epoch_count == 1 || durable.is_none(),
            "live recuts require a non-durable server"
        );
        if let Some(log) = durable {
            self.ensure_initial_checkpoint(log);
        }
        let plan_windows: Vec<Option<(u64, u64)>> = plans.iter().map(|p| p.window()).collect();
        let drain_hist = self
            .metrics
            .as_ref()
            .map(|m| m.histogram("service.drain_ns"));
        let hold_hist = self
            .metrics
            .as_ref()
            .map(|m| m.histogram("service.writer.lock_hold_ns"));

        let mut grid = self.grid.clone();
        let mut trees: Vec<RegionTree<D, S>> = self.regions.iter().map(Arc::clone).collect();
        let mut runs: Vec<Option<Result<LaneRun<'_, D>, SessionOutcome>>> =
            plans.iter().map(|_| None).collect();
        let mut started: Vec<Option<Instant>> = vec![None; plans.len()];
        let mut dur = DurabilityTally::default();
        let mut totals = RunTotals::default();
        let mut final_tallies: Vec<RegionTally> = Vec::new();
        let mut final_loads: Vec<u64> = vec![0; grid.len()];
        let mut final_grid = grid.clone();

        for e in 0..epoch_count {
            let (start, end) = (bounds[e], bounds[e + 1]);
            let mut tallies: Vec<RegionTally> = vec![RegionTally::default(); grid.len()];
            let mut session_loads: Vec<u64> = vec![0; grid.len()];
            let slates: Vec<_> = (0..grid.len()).map(|_| RwLock::new(Slate::default())).collect();
            let wins: Vec<Option<(u64, u64)>> = plan_windows
                .iter()
                .map(|w| {
                    w.and_then(|(f, l)| {
                        let f = f.max(start as u64);
                        let l = l.min(end.saturating_sub(1) as u64);
                        (f <= l).then_some((f, l))
                    })
                })
                .collect();
            if e > 0 {
                // Handoff rebuild for sessions carried over from the
                // previous epoch, in the same session order the
                // concurrent path attaches them.
                for (i, run) in runs.iter_mut().enumerate() {
                    if wins[i].is_none() {
                        continue;
                    }
                    if let Some(Ok(r0)) = run {
                        if matches!(r0.out.outcome, SessionOutcome::Failed(_)) {
                            continue;
                        }
                        if let Err(p) = catch_unwind(AssertUnwindSafe(|| {
                            r0.rebuild(&grid, &trees);
                        })) {
                            r0.out.outcome = SessionOutcome::Failed(panic_message(p));
                        }
                    }
                }
            }
            let mut routed = Vec::new();
            let mut reports = Vec::new();
            for k in start..end {
                let ku = k as u64;
                for (i, plan) in plans.iter().enumerate() {
                    if runs[i].is_none() && wins[i].is_some_and(|(f, _)| f == ku) {
                        started[i] = Some(Instant::now());
                        runs[i] = Some(
                            catch_unwind(AssertUnwindSafe(|| {
                                LaneRun::start(i, &plan.spec, &grid, &trees)
                            }))
                            .map_err(|p| SessionOutcome::Failed(panic_message(p))),
                        );
                    }
                }
                if let Some(batch) = inserts.get(k) {
                    if let Some(log) = durable {
                        dur.checkpoints += fold_if_due::<D>(log);
                        let committed = Instant::now();
                        log.commit_frame(ku, batch);
                        dur.appends += 1;
                        dur.commit_ns += committed.elapsed().as_nanos() as u64;
                    }
                    for r in 0..grid.len() {
                        route_slice(&grid, r, batch, &mut routed);
                        if !routed.is_empty() && !tallies[r].failed() {
                            reports.clear();
                            self.apply_region_batch(
                                &trees[r],
                                &routed,
                                &mut reports,
                                &mut tallies[r],
                                hold_hist.as_ref(),
                            );
                            slates[r].write().publish(k, &mut reports);
                            obs::trace(obs::TraceEvent::RegionRoute {
                                region: r as u32,
                                records: routed.len() as u32,
                            });
                        }
                    }
                }
                for (i, run) in runs.iter_mut().enumerate() {
                    let Some(Ok(r0)) = run else { continue };
                    if matches!(r0.out.outcome, SessionOutcome::Failed(_)) {
                        continue;
                    }
                    let Some((f, l)) = wins[i] else { continue };
                    if ku < f || ku > l {
                        continue;
                    }
                    match catch_unwind(AssertUnwindSafe(|| r0.step_frame(&trees, &slates, k))) {
                        Ok(Ok(Some(ns))) => {
                            if let Some(h) = &drain_hist {
                                h.record(ns);
                            }
                        }
                        Ok(Ok(None)) => {}
                        Ok(Err(err)) => r0.out.outcome.record_error(err),
                        Err(p) => r0.out.outcome = SessionOutcome::Failed(panic_message(p)),
                    }
                }
            }
            for r0 in runs.iter_mut().flatten().flatten() {
                r0.flush_loads(|r, c| session_loads[r] += c);
            }
            totals.absorb(&tallies);
            if e + 1 < epoch_count {
                let loads: Vec<u64> = (0..grid.len())
                    .map(|r| session_loads[r] + tallies[r].reads + tallies[r].writes)
                    .collect();
                let records = dedup_from(&trees);
                let new_grid = grid.recut(
                    record_bounds(grid.axis(), &records),
                    &loads,
                    recuts[e].target_regions,
                );
                let make = make_tree.as_deref_mut().expect("recuts require make_tree");
                trees = build_regions(&new_grid, &records, make);
                grid = new_grid;
            } else {
                if let Some(log) = durable {
                    dur.checkpoints += fold_if_due::<D>(log);
                }
                final_tallies = tallies;
                final_loads = session_loads;
                final_grid = grid.clone();
            }
        }

        let outputs: Vec<SessionOutput> = runs
            .into_iter()
            .zip(&started)
            .map(|(run, started)| {
                let mut out = match run {
                    Some(Ok(r0)) => r0.finish(),
                    Some(Err(outcome)) => SessionOutput {
                        outcome,
                        ..SessionOutput::default()
                    },
                    None => SessionOutput::default(),
                };
                if let Some(s) = started {
                    out.wall_ns = s.elapsed().as_nanos() as u64;
                }
                out
            })
            .collect();
        let report = self.finish_report(
            steps,
            outputs,
            &final_grid,
            final_tallies,
            &final_loads,
            totals,
            dur,
        );
        let final_state = (epoch_count > 1).then_some((final_grid, trees));
        (report, final_state)
    }

    /// Assemble the report from the final epoch's per-region tallies and
    /// loads plus the run-wide totals, and publish metrics.
    #[allow(clippy::too_many_arguments)]
    fn finish_report(
        &self,
        steps: usize,
        outputs: Vec<SessionOutput>,
        grid: &RegionGrid,
        final_tallies: Vec<RegionTally>,
        final_loads: &[u64],
        totals: RunTotals,
        dur: DurabilityTally,
    ) -> PartitionedServeReport {
        let regions: Vec<RegionReport> = final_tallies
            .into_iter()
            .enumerate()
            .map(|(r, w)| RegionReport {
                span: grid.span_of(r),
                inserts_applied: w.applied,
                writer_reads: w.reads,
                writer_writes: w.writes,
                session_reads: final_loads[r],
                writer_outcome: w.outcome,
            })
            .collect();
        let report = PartitionedServeReport {
            base: ServeReport {
                sessions: outputs,
                frames: steps,
                inserts_applied: totals.applied,
                writer_reads: totals.reads,
                writer_writes: totals.writes,
                writer_outcome: totals.outcome,
                wal_appends: dur.appends,
                wal_commit_ns: dur.commit_ns,
                checkpoints: dur.checkpoints,
            },
            regions,
        };
        self.publish_run(&report);
        report
    }

    /// Serve with the plain per-spec schedule (every session joins at
    /// frame 0); see [`Self::serve_plans`].
    pub fn serve(
        &self,
        specs: &[SessionSpec<D>],
        inserts: &[Vec<(NsiSegmentRecord<D>, f64)>],
    ) -> PartitionedServeReport
    where
        S: Sync + Send,
    {
        let plans: Vec<SessionPlan<D>> = specs.iter().cloned().map(SessionPlan::new).collect();
        self.serve_plans(&plans, inserts)
    }

    /// Single-threaded reference for [`Self::serve`].
    pub fn serve_serial(
        &self,
        specs: &[SessionSpec<D>],
        inserts: &[Vec<(NsiSegmentRecord<D>, f64)>],
    ) -> PartitionedServeReport {
        let plans: Vec<SessionPlan<D>> = specs.iter().cloned().map(SessionPlan::new).collect();
        self.serve_serial_plans(&plans, inserts)
    }

    /// Run the clocked serve over explicit [`SessionPlan`]s (staggered
    /// joins, per-frame delays) with the current grid, one epoch, no
    /// recuts.
    pub fn serve_plans(
        &self,
        plans: &[SessionPlan<D>],
        inserts: &[Vec<(NsiSegmentRecord<D>, f64)>],
    ) -> PartitionedServeReport
    where
        S: Sync + Send,
    {
        let (report, _) = self.serve_clocked(plans, inserts, &[], None, &[]);
        self.accumulate_loads(&report);
        report
    }

    /// [`Self::serve_plans`] with a per-session [`FrameSink`] hook: each
    /// session's new frame results are offered to its sink as soon as the
    /// frame is processed, before the session acks the next frame. A sink
    /// returning [`SinkVerdict::Detach`] removes the session from every
    /// region clock without stalling the run — this is the attach point
    /// for the network front door's bounded outboxes.
    pub fn serve_plans_streamed(
        &self,
        plans: &[SessionPlan<D>],
        inserts: &[Vec<(NsiSegmentRecord<D>, f64)>],
        sinks: &[Option<&dyn FrameSink>],
    ) -> PartitionedServeReport
    where
        S: Sync + Send,
    {
        let (report, _) = self.serve_clocked(plans, inserts, &[], None, sinks);
        self.accumulate_loads(&report);
        report
    }

    /// Single-threaded reference for [`Self::serve_plans`].
    pub fn serve_serial_plans(
        &self,
        plans: &[SessionPlan<D>],
        inserts: &[Vec<(NsiSegmentRecord<D>, f64)>],
    ) -> PartitionedServeReport {
        let (report, _) = self.serve_serial_clocked(plans, inserts, &[], None);
        self.accumulate_loads(&report);
        report
    }

    /// Serve with live rebalances: at each [`RecutPlan`] frame boundary
    /// the epoch coordinator drains the old clocks, recuts the grid at
    /// load quantiles, rebuilds the region trees via `make_tree`, and
    /// hands live sessions over to the new epoch (their engines rebuild
    /// against the new partition; the delivered-set dedup guarantees no
    /// object is ever re-emitted). The server adopts the final grid and
    /// trees. Requires a non-durable server.
    pub fn serve_plans_with_recuts(
        &mut self,
        plans: &[SessionPlan<D>],
        inserts: &[Vec<(NsiSegmentRecord<D>, f64)>],
        recuts: &[RecutPlan],
        mut make_tree: impl FnMut(usize) -> RTree<NsiSegmentRecord<D>, S>,
    ) -> PartitionedServeReport
    where
        S: Sync + Send,
    {
        let (report, final_state) =
            self.serve_clocked(plans, inserts, recuts, Some(&mut make_tree), &[]);
        self.adopt(&report, final_state);
        report
    }

    /// Single-threaded reference for [`Self::serve_plans_with_recuts`].
    pub fn serve_serial_plans_with_recuts(
        &mut self,
        plans: &[SessionPlan<D>],
        inserts: &[Vec<(NsiSegmentRecord<D>, f64)>],
        recuts: &[RecutPlan],
        mut make_tree: impl FnMut(usize) -> RTree<NsiSegmentRecord<D>, S>,
    ) -> PartitionedServeReport {
        let (report, final_state) =
            self.serve_serial_clocked(plans, inserts, recuts, Some(&mut make_tree));
        self.adopt(&report, final_state);
        report
    }

    /// Fold a run's per-region session+writer loads into the sticky
    /// per-region tallies that drive [`Self::hotspot`].
    fn accumulate_loads(&self, report: &PartitionedServeReport) {
        let mut loads = self.loads.lock();
        for (r, rr) in report.regions.iter().enumerate() {
            loads[r] += rr.load();
        }
    }

    /// Install the final epoch's grid and trees after a run with recuts
    /// (or just fold loads when no recut fired).
    #[allow(clippy::type_complexity)]
    fn adopt(
        &mut self,
        report: &PartitionedServeReport,
        final_state: Option<(RegionGrid, Vec<RegionTree<D, S>>)>,
    ) {
        match final_state {
            Some((grid, trees)) => {
                self.grid = grid;
                self.regions = trees;
                *self.loads.lock() = report.regions.iter().map(RegionReport::load).collect();
            }
            None => self.accumulate_loads(report),
        }
    }

    /// Mirror a run's report into the metrics registry (no-op when no
    /// registry was attached).
    fn publish_run(&self, report: &PartitionedServeReport) {
        let Some(reg) = &self.metrics else { return };
        reg.counter("service.frames").add(report.base.frames as u64);
        reg.counter("service.inserts")
            .add(report.base.inserts_applied as u64);
        reg.counter("service.results")
            .add(report.base.total_results() as u64);
        reg.counter("service.writer.reads").add(report.base.writer_reads);
        reg.counter("service.writer.writes").add(report.base.writer_writes);
        reg.counter("service.session.reads")
            .add(report.base.total_stats().disk_accesses);
        if report.base.checkpoints > 0 {
            reg.counter("service.checkpoints").add(report.base.checkpoints);
        }
        for (r, rr) in report.regions.iter().enumerate() {
            reg.counter(&format!("service.region{r}.inserts"))
                .add(rr.inserts_applied as u64);
            reg.counter(&format!("service.region{r}.writer.reads"))
                .add(rr.writer_reads);
            reg.counter(&format!("service.region{r}.writer.writes"))
                .add(rr.writer_writes);
            reg.counter(&format!("service.region{r}.session.reads"))
                .add(rr.session_reads);
            reg.gauge(&format!("service.region{r}.load"))
                .set(rr.load() as i64);
        }
        for s in &report.base.sessions {
            reg.gauge("service.pdq.queue_hwm")
                .record_max(s.queue_hwm as i64);
            if s.discarded_subtrees > 0 {
                reg.counter("service.npdq.discarded").add(s.discarded_subtrees);
            }
            match &s.outcome {
                SessionOutcome::Ok => {}
                SessionOutcome::Degraded { errors } => {
                    reg.counter("service.sessions.degraded").add(1);
                    reg.counter("service.sessions.errors").add(errors.len() as u64);
                }
                SessionOutcome::Failed(_) => {
                    reg.counter("service.sessions.failed").add(1);
                }
            }
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use rtree::RTreeConfig;
    use stkit::Rect;
    use storage::Pager;

    type R = NsiSegmentRecord<2>;

    fn line_records(n: u32) -> Vec<R> {
        (0..n)
            .map(|i| {
                let x = i as f64 + 0.5;
                R::new(i, 0, Interval::new(0.0, 100.0), [x, 0.5], [x, 0.5])
            })
            .collect()
    }

    fn slide_spec(kind: SessionKind, frames: usize, span: f64) -> SessionSpec<2> {
        SessionSpec {
            kind,
            trajectory: crate::Trajectory::linear(
                Rect::from_corners([0.0, 0.0], [1.0, 1.0]),
                [1.0, 0.0],
                Interval::new(0.0, span),
                2,
            ),
            frame_times: (0..=frames)
                .map(|k| span * k as f64 / frames as f64)
                .collect(),
        }
    }

    fn build(grid: RegionGrid, preload: &[R]) -> PartitionedDqServer<2, Pager> {
        PartitionedDqServer::build(grid, preload, |_| {
            RTree::new(Pager::new(), RTreeConfig::default())
        })
    }

    /// The grids every grid-independent behaviour is pinned on: the
    /// single-tree case, one cut, three cuts.
    fn grids() -> [RegionGrid; 3] {
        [
            RegionGrid::single(),
            RegionGrid::from_cuts(0, vec![20.0]),
            RegionGrid::from_cuts(0, vec![10.0, 20.0, 30.0]),
        ]
    }

    /// `frames` batches of `per_frame` fresh objects dropped ahead of a
    /// window sliding over `span`, oids from `base`.
    fn ahead_inserts(frames: u32, per_frame: u32, span: f64, base: u32) -> Vec<Vec<(R, f64)>> {
        (0..frames)
            .map(|k| {
                let t = span * f64::from(k) / f64::from(frames);
                (0..per_frame)
                    .map(|j| {
                        let x = (t + 4.0 + f64::from(j)) % (span - 1.0);
                        let oid = base + per_frame * k + j;
                        (R::new(oid, 0, Interval::new(t, 100.0), [x, 0.5], [x, 0.5]), t)
                    })
                    .collect()
            })
            .collect()
    }

    /// Per-frame delivered sets: in-frame order is a tie-break artifact
    /// (queue pop order vs the merge's `(start, oid, seq)`).
    fn frame_sets(s: &SessionOutput) -> Vec<Vec<(u32, u32)>> {
        let mut off = 0;
        s.frames
            .iter()
            .map(|f| {
                let mut set = s.results[off..off + f.results].to_vec();
                off += f.results;
                set.sort_unstable();
                set
            })
            .collect()
    }

    #[test]
    fn single_pdq_session_matches_direct_engine() {
        // The oracle chain's root: a bare engine over a bare tree — no
        // serving code — delivers the same objects in the same frames as
        // one region, which delivers the same stream as N regions.
        let recs = line_records(30);
        let spec = slide_spec(SessionKind::Pdq, 10, 30.0);
        let mut tree = RTree::new(Pager::new(), RTreeConfig::default());
        for r in &recs {
            tree.insert(*r, r.seg.t.lo);
        }
        let mut direct = PdqEngine::start(&tree, spec.trajectory.clone());
        let expect: Vec<Vec<(u32, u32)>> = spec
            .frame_times
            .windows(2)
            .map(|w| {
                let mut set: Vec<_> = direct
                    .drain_window(&tree, w[0], w[1])
                    .iter()
                    .map(|r| (r.record.oid, r.record.seq))
                    .collect();
                set.sort_unstable();
                set
            })
            .collect();
        let one = build(RegionGrid::single(), &recs).serve(std::slice::from_ref(&spec), &[]);
        assert_eq!(frame_sets(&one.sessions[0]), expect);
        assert!(one.sessions[0].stats.disk_accesses > 0);
        for grid in grids() {
            let n = build(grid, &recs).serve(std::slice::from_ref(&spec), &[]);
            assert_eq!(n.sessions[0].results, one.sessions[0].results);
        }
    }

    #[test]
    fn npdq_frames_are_bracketed_by_naive_snapshots() {
        // The oracle chain's NPDQ end, over trees that were packed and
        // then served: with live inserts, and with one mid-run recut that
        // packs again. A frame may repeat a still-visible object (which
        // ones is the tree's shape), so the brute-force bracket is: it
        // reports nothing outside the snapshot at `t_k`, and everything
        // in it that the snapshot at `t_{k-1}` did not hold.
        let recs = line_records(40);
        let spec = slide_spec(SessionKind::Npdq, 80, 40.0);
        let inserts = ahead_inserts(80, 2, 40.0, 1000);
        let plans = vec![SessionPlan::new(spec.clone())];
        let mut resident = recs.clone();
        let snapshots: Vec<Vec<(u32, u32)>> = spec
            .frame_times
            .iter()
            .enumerate()
            .map(|(k, &t)| {
                resident.extend(inserts.get(k).into_iter().flatten().map(|(r, _)| *r));
                let q = SnapshotQuery::at_instant(spec.trajectory.window_at(t), t);
                let mut set: Vec<_> = resident
                    .iter()
                    .filter(|r| q.matches_segment(&r.seg))
                    .map(R::ids)
                    .collect();
                set.sort_unstable();
                set
            })
            .collect();
        assert!(snapshots.windows(2).any(|w| w[1].iter().any(|id| w[0].contains(id))));
        for grid in [RegionGrid::single(), RegionGrid::from_cuts(0, vec![10.0, 25.0])] {
            for recuts in [vec![], vec![RecutPlan::new(40, 2)]] {
                let mut server = build(grid.clone(), &recs);
                let out = server.serve_plans_with_recuts(&plans, &inserts, &recuts, |_| {
                    RTree::new(Pager::new(), RTreeConfig::default())
                });
                let frames = frame_sets(&out.sessions[0]);
                assert_eq!(frames.len(), snapshots.len());
                for (k, got) in frames.iter().enumerate() {
                    let now = &snapshots[k];
                    assert!(
                        got.iter().all(|id| now.contains(id)),
                        "frame {k} reported outside its snapshot: {got:?} vs {now:?}"
                    );
                    let fresh = now
                        .iter()
                        .filter(|id| k == 0 || !snapshots[k - 1].contains(id));
                    for id in fresh {
                        assert!(got.contains(id), "frame {k} missed newly visible {id:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn rebuild_is_a_function_of_the_record_set() {
        // Same records, whatever order they arrive in and whichever
        // rebuild packs them — `build`, or a `rebalance` that lands on the
        // same grid: byte-identical pages per region.
        let recs: Vec<R> = (0..600u32)
            .map(|i| {
                let x = f64::from(i * 37 % 101) + 0.5;
                let t = f64::from(i % 23);
                R::new(i, 0, Interval::new(t, t + 4.0), [x, 0.5], [x + 0.25, 0.75])
            })
            .collect();
        let small = |_: usize| RTree::new(Pager::with_page_size(256), RTreeConfig::default());
        let images = |server: &PartitionedDqServer<2, Pager>| -> Vec<_> {
            (0..server.grid().len())
                .map(|r| {
                    server.with_region_tree(r, |tree| {
                        let mut pages = Vec::new();
                        storage::save_pager(tree.store(), &mut pages).unwrap();
                        (tree.metadata(), pages)
                    })
                })
                .collect()
        };
        let grid = RegionGrid::uniform(0, record_bounds(0, &recs), 3);
        let built = PartitionedDqServer::build(grid.clone(), &recs, small);
        assert!(built.with_region_tree(1, |tree| tree.height()) >= 3);

        let mut shuffled = recs.clone();
        shuffled.reverse();
        shuffled.rotate_left(217);
        let mut again = PartitionedDqServer::build(grid.clone(), &shuffled, small);
        assert!(images(&again) == images(&built), "arrival order reached the pages");

        // Never served, so no load: the recut is the uniform grid over the
        // records' extent — the grid both servers were built under.
        again.rebalance(3, small);
        assert_eq!(again.grid().cuts(), grid.cuts());
        assert!(images(&again) == images(&built), "a rebalance packed the same set differently");
    }

    #[test]
    fn partitioned_parallel_equals_partitioned_serial() {
        let recs = line_records(40);
        let specs = vec![
            slide_spec(SessionKind::Pdq, 20, 40.0),
            slide_spec(SessionKind::Npdq, 20, 40.0),
            slide_spec(SessionKind::Pdq, 10, 40.0),
            slide_spec(SessionKind::Npdq, 10, 40.0),
        ];
        let inserts = ahead_inserts(20, 2, 40.0, 1000);
        for grid in grids() {
            let p = build(grid.clone(), &recs).serve(&specs, &inserts);
            let s = build(grid, &recs).serve_serial(&specs, &inserts);
            for (a, b) in p.sessions.iter().zip(&s.sessions) {
                assert_eq!(a.results, b.results);
            }
            assert!(p.total_results() > 0);
            assert_eq!(p.base.inserts_applied, s.base.inserts_applied);
            assert_eq!(p.base.writer_reads, s.base.writer_reads);
            assert_eq!(p.base.writer_writes, s.base.writer_writes);
        }
    }

    #[test]
    fn empty_run_is_empty() {
        let server = build(RegionGrid::single(), &line_records(5));
        assert_eq!(server.region_record_counts(), vec![5]);
        let report = server.serve(&[], &[]);
        assert_eq!(report.frames, 0);
        assert_eq!(report.sessions.len(), 0);
    }

    #[test]
    fn writer_only_serve_applies_every_batch() {
        // No sessions at all: the clocks have no attached windows, so the
        // writers never wait and must still apply every frame's batch.
        let inserts: Vec<Vec<(R, f64)>> = (0..7)
            .map(|k| {
                let x = 5.0 * f64::from(k) + 1.0;
                vec![(R::new(500 + k, 0, Interval::new(0.0, 100.0), [x, 3.5], [x, 3.5]), f64::from(k))]
            })
            .collect();
        for grid in grids() {
            let server = build(grid, &line_records(5));
            let report = server.serve(&[], &inserts);
            assert_eq!(report.frames, 7);
            assert_eq!(report.inserts_applied, 7);
            assert_eq!(report.sessions.len(), 0);
            assert!(report.writer_reads > 0, "insert descents read nodes");
            assert!(report.writer_writes > 0, "inserts write nodes");
            assert_eq!(server.region_record_counts().iter().sum::<u64>(), 12);
        }
    }

    #[test]
    fn short_schedule_session_stops_while_writer_continues() {
        // A session whose frame schedule (3 steps) is much shorter than
        // the insert schedule (10 batches): the run spans 10 frames, the
        // session reports only its own 3, detaches, and the writers
        // finish the remaining batches without waiting on it.
        let recs = line_records(30);
        let spec = slide_spec(SessionKind::Pdq, 3, 3.0);
        let inserts: Vec<Vec<(R, f64)>> = (0..10)
            .map(|k| {
                let x = 1.5 + f64::from(k);
                vec![(R::new(700 + k, 0, Interval::new(0.0, 100.0), [x, 0.5], [x, 0.5]), f64::from(k))]
            })
            .collect();
        for grid in grids() {
            let report = build(grid.clone(), &recs).serve(std::slice::from_ref(&spec), &inserts);
            assert_eq!(report.frames, 10);
            assert_eq!(report.inserts_applied, 10);
            assert_eq!(report.sessions[0].frames.len(), 3, "only scheduled frames report");
            let serial = build(grid, &recs).serve_serial(std::slice::from_ref(&spec), &inserts);
            assert_eq!(report.sessions[0].results, serial.sessions[0].results);
        }
    }

    #[test]
    fn broadcast_after_lock_drop_keeps_parallel_equal_to_serial() {
        // Heavier regression for the broadcast protocol: many PDQ sessions,
        // multi-record batches every frame (every batch forces an
        // InsertBroadcast after the write guard drops).
        let recs = line_records(30);
        let specs: Vec<SessionSpec<2>> = (0..6)
            .map(|i| slide_spec(SessionKind::Pdq, 15 + i, 30.0))
            .collect();
        let inserts = ahead_inserts(21, 3, 30.0, 2000);
        for grid in grids() {
            let parallel = build(grid.clone(), &recs).serve(&specs, &inserts);
            let serial = build(grid, &recs).serve_serial(&specs, &inserts);
            assert!(parallel.inserts_applied >= 63);
            for (p, s) in parallel.sessions.iter().zip(&serial.sessions) {
                assert_eq!(p.results, s.results);
            }
            assert_eq!(parallel.writer_reads, serial.writer_reads);
            assert_eq!(parallel.writer_writes, serial.writer_writes);
        }
    }

    #[test]
    fn writer_reports_broadcast_fanout() {
        // The writer's half of the broadcast, driven alone on this thread
        // (so its trace ring is readable) with every permit pre-granted:
        // one InsertBroadcast per non-empty batch, published once the
        // batch's node work is over and before `applied` moves, and the
        // slate left holding the last non-empty frame — exactly the
        // reports those inserts produce, whoever is attached.
        let server = build(RegionGrid::single(), &line_records(10));
        let plans: Vec<SessionPlan<2>> = [SessionKind::Pdq, SessionKind::Npdq, SessionKind::Pdq]
            .into_iter()
            .map(|kind| SessionPlan::new(slide_spec(kind, 4, 8.0)))
            .collect();
        let windows: Vec<_> = plans.iter().map(SessionPlan::window).collect();
        let mut inserts = ahead_inserts(4, 3, 8.0, 3000);
        inserts[1].clear();
        inserts.push(Vec::new());
        let live = SessionLiveness::new(plans.len());
        let trees = server.regions.to_vec();
        let ep = make_epoch(&plans, &windows, RegionGrid::single(), trees, &live, 0, 5, false);
        for i in 0..plans.len() {
            ep.clocks[0].ack(i, u64::MAX);
        }
        obs::take_thread_trace();
        let tally = server.writer_loop(&ep, 0, &inserts, None, &None, None);
        assert_eq!(tally.applied, 9);
        let mut broadcasts = Vec::new();
        let mut since_visit = Vec::new();
        for ev in obs::take_thread_trace() {
            match ev {
                obs::TraceEvent::NodeVisit { .. } => since_visit.clear(),
                obs::TraceEvent::InsertBroadcast { reports } => {
                    broadcasts.push(reports);
                    since_visit.push(None);
                }
                obs::TraceEvent::FrameAdvance { frame, .. } => since_visit.push(Some(frame)),
                _ => {}
            }
        }
        assert_eq!(broadcasts, vec![3; 3]);
        assert_eq!(since_visit, vec![None, Some(3), Some(4)], "published after the inserts, before the advance");

        let twin = build(RegionGrid::single(), &line_records(10));
        let mut expect = Vec::new();
        for batch in &inserts {
            if !batch.is_empty() {
                expect.clear();
            }
            for (rec, now) in batch {
                expect.push(twin.regions[0].write().try_insert(*rec, *now).unwrap());
            }
        }
        let slate = ep.slates[0].read();
        assert_eq!(slate.frame, Some(3));
        assert_eq!(slate.reports, expect);
        assert_eq!(slate.hwm, 3);
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
            let mut lanes = LaneRun::start(0, &spec, &server.grid, &server.regions);
            let slates = [RwLock::new(Slate::default())];
            lanes.step_frame(&server.regions, &slates, 0).unwrap();
            let report = server.regions[0].write().try_insert(late, 2.0).unwrap();
            *slates[0].write() = Slate {
                frame: stamp,
                reports: vec![report],
                hwm: 1,
            };
            for k in 1..4 {
                lanes.step_frame(&server.regions, &slates, k).unwrap();
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
            SessionPlan::new(slide_spec(SessionKind::Pdq, 8, 8.0))
                .with_frame_delay(std::time::Duration::from_millis(2)),
            SessionPlan::new(slide_spec(SessionKind::Pdq, 8, 8.0)).join_at(3),
        ];
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
                    .map(|(rec, now)| tree.try_insert(*rec, *now).unwrap())
                    .collect();
                for report in &reports {
                    direct.notify(&*tree, report);
                }
                let (t0, t1) = (spec.frame_times[k], spec.frame_times[k + 1]);
                (k, direct.drain_window(&*tree, t0, t1).len(), direct.take_stats())
            })
            .collect();
        for grid in [RegionGrid::single(), RegionGrid::from_cuts(0, vec![5.0, 20.0])] {
            let p = build(grid.clone(), &recs).serve_plans(&plans, &inserts);
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

    #[test]
    fn seam_straddler_is_replicated_but_delivered_once() {
        // One object moving ACROSS the cut at x = 5: its segment bbox
        // touches both regions, so both trees store it — yet the PDQ
        // merge must deliver exactly one entry event.
        let straddler = R::new(9, 0, Interval::new(0.0, 10.0), [4.0, 0.5], [6.0, 0.5]);
        let server = build(RegionGrid::from_cuts(0, vec![5.0]), &[straddler]);
        assert_eq!(server.region_record_counts(), vec![1, 1], "replicated");
        let spec = slide_spec(SessionKind::Pdq, 10, 10.0);
        let report = server.serve(&[spec], &[]);
        assert_eq!(report.sessions[0].results, vec![(9, 0)], "exactly once");
    }

    #[test]
    fn insert_replication_counts_per_region() {
        // A live insert straddling the seam applies in both regions:
        // inserts_applied counts physical inserts.
        let server = build(RegionGrid::from_cuts(0, vec![5.0]), &[]);
        let batch = vec![
            (R::new(1, 0, Interval::new(0.0, 10.0), [4.5, 0.5], [5.5, 0.5]), 0.0),
            (R::new(2, 0, Interval::new(0.0, 10.0), [1.0, 0.5], [2.0, 0.5]), 0.0),
        ];
        let report = server.serve(&[], &[batch]);
        assert_eq!(report.base.inserts_applied, 3, "straddler counts twice");
        assert_eq!(report.regions[0].inserts_applied, 2);
        assert_eq!(report.regions[1].inserts_applied, 1);
    }

    #[test]
    fn per_region_reads_reconcile_with_level_counters() {
        let recs = line_records(40);
        let specs = vec![
            slide_spec(SessionKind::Pdq, 10, 40.0),
            slide_spec(SessionKind::Npdq, 10, 40.0),
        ];
        let inserts: Vec<Vec<(R, f64)>> = (0..10)
            .map(|k| {
                vec![(
                    R::new(500 + k, 0, Interval::new(0.0, 100.0), [k as f64 + 0.25, 0.5], [k as f64 + 0.25, 0.5]),
                    k as f64,
                )]
            })
            .collect();
        let server = build(RegionGrid::from_cuts(0, vec![13.0, 27.0]), &recs);
        // Baseline after preload: build()'s inserts also read nodes.
        let preload: Vec<_> = (0..3)
            .map(|r| server.with_region_tree(r, |t| t.level_counters().snapshot()))
            .collect();
        let report = server.serve(&specs, &inserts);
        for r in 0..3 {
            let delta = server.with_region_tree(r, |t| t.level_counters().snapshot()) - preload[r];
            assert_eq!(
                delta.total_reads(),
                report.regions[r].session_reads + report.regions[r].writer_reads,
                "region {r} read identity"
            );
            assert_eq!(delta.total_writes(), report.regions[r].writer_writes);
        }
    }

    /// Per-frame batches that all land strictly inside region 0 of a
    /// cut-at-25 grid: writer reads+writes pile load onto that region.
    fn region0_inserts(frames: usize) -> Vec<Vec<(R, f64)>> {
        (0..frames)
            .map(|k| {
                let t = k as f64;
                vec![(
                    R::new(
                        200 + k as u32,
                        0,
                        Interval::new(t, 100.0),
                        [t + 0.25, 0.5],
                        [t + 0.25, 0.5],
                    ),
                    t,
                )]
            })
            .collect()
    }

    #[test]
    fn loads_accumulate_and_hotspot_flags_skew() {
        let recs = line_records(30);
        let server = build(RegionGrid::from_cuts(0, vec![25.0]), &recs);
        assert_eq!(server.hotspot(2.0), None, "no load yet");
        // Query sweeps [0, 25] and every insert lands left of the cut:
        // region 0 does nearly all the work.
        let spec = slide_spec(SessionKind::Pdq, 10, 24.0);
        server.serve(&[spec], &region0_inserts(10));
        let loads = server.region_loads();
        assert!(loads[0] > 0);
        assert!(loads[0] > 2 * loads[1].max(1), "loads {loads:?}");
        assert_eq!(server.hotspot(1.5), Some(0));
    }

    #[test]
    fn rebalance_recuts_and_preserves_results() {
        let recs = line_records(30);
        let spec = slide_spec(SessionKind::Pdq, 10, 24.0);
        let mut server = build(RegionGrid::from_cuts(0, vec![25.0]), &recs);
        server.serve(std::slice::from_ref(&spec), &region0_inserts(10));
        server.rebalance(2, |_| RTree::new(Pager::new(), RTreeConfig::default()));
        assert_eq!(server.grid().len(), 2);
        let cut = server.grid().cuts()[0];
        assert!(cut < 25.0, "cut moved into the hot slab, got {cut}");
        assert_eq!(server.region_loads(), vec![0, 0], "loads reset");
        // Oracle: a fresh server under the OLD grid with every record —
        // including the ones inserted live above — preloaded. Delivery
        // frames and the (start, oid, seq) merge order are both
        // layout-independent, so result sequences must match exactly.
        let mut all = recs.clone();
        for batch in region0_inserts(10) {
            for (r, _) in batch {
                all.push(r);
            }
        }
        let oracle =
            build(RegionGrid::from_cuts(0, vec![25.0]), &all).serve(std::slice::from_ref(&spec), &[]);
        let after = server.serve(std::slice::from_ref(&spec), &[]);
        assert_eq!(after.sessions[0].results, oracle.sessions[0].results);
    }

    #[test]
    fn zombie_session_does_not_stall_partitioned_serve() {
        // An empty-schedule session among healthy ones plus per-frame
        // inserts: the never-scheduled session has no window, so it
        // never attaches to any region's clock — nobody waits on it.
        let recs = line_records(10);
        let mut dead = slide_spec(SessionKind::Pdq, 10, 10.0);
        dead.frame_times = vec![0.0]; // zero steps
        let specs = vec![slide_spec(SessionKind::Pdq, 10, 10.0), dead];
        let inserts: Vec<Vec<(R, f64)>> = (0..10)
            .map(|k| {
                vec![(
                    R::new(100 + k, 0, Interval::new(0.0, 100.0), [k as f64 + 0.1, 0.5], [k as f64 + 0.1, 0.5]),
                    k as f64,
                )]
            })
            .collect();
        let server = build(RegionGrid::from_cuts(0, vec![5.0]), &recs);
        let report = server.serve(&specs, &inserts);
        assert_eq!(report.base.frames, 10);
        assert!(report.sessions[0].results.len() >= 10);
        assert!(report.sessions[1].results.is_empty());
    }

    #[test]
    fn recut_mid_serve_preserves_results_and_matches_serial() {
        // A live rebalance at frame 5 of a 10-frame serve: the epoch
        // handoff must not change what the session sees (delivered-set
        // dedup absorbs the engine rebuild), must match the serial
        // reference bit-for-bit, and must leave the server on the new
        // grid.
        let recs = line_records(30);
        let spec = slide_spec(SessionKind::Pdq, 10, 24.0);
        let inserts = region0_inserts(10);
        let plans = vec![SessionPlan::new(spec.clone())];
        let recuts = [RecutPlan::new(5, 2)];
        let mut server = build(RegionGrid::from_cuts(0, vec![25.0]), &recs);
        let p = server.serve_plans_with_recuts(&plans, &inserts, &recuts, |_| {
            RTree::new(Pager::new(), RTreeConfig::default())
        });
        let oracle = build(RegionGrid::from_cuts(0, vec![25.0]), &recs).serve_plans(&plans, &inserts);
        assert_eq!(p.sessions[0].results, oracle.sessions[0].results);
        assert_eq!(p.sessions[0].outcome, SessionOutcome::Ok);

        let mut serial_server = build(RegionGrid::from_cuts(0, vec![25.0]), &recs);
        let s = serial_server.serve_serial_plans_with_recuts(&plans, &inserts, &recuts, |_| {
            RTree::new(Pager::new(), RTreeConfig::default())
        });
        assert_eq!(p.sessions[0].results, s.sessions[0].results);
        assert_eq!(p.sessions[0].stats, s.sessions[0].stats);

        // Both servers adopted the recut 2-region grid.
        assert_eq!(server.grid().len(), 2);
        assert_eq!(serial_server.grid().len(), 2);
        assert!(server.grid().cuts()[0] < 25.0);
    }

    #[test]
    fn frame_reports_reconcile_and_timeline_is_ordered() {
        let specs: Vec<SessionSpec<2>> = vec![
            slide_spec(SessionKind::Pdq, 8, 20.0),
            slide_spec(SessionKind::Npdq, 5, 20.0),
        ];
        for grid in grids() {
            let registry = Arc::new(obs::MetricsRegistry::new());
            let server = build(grid, &line_records(20)).with_metrics(Arc::clone(&registry));
            let report = server.serve(&specs, &[]);

            for s in &report.sessions {
                let mut sum = QueryStats::default();
                let mut results = 0;
                for f in &s.frames {
                    sum += f.stats;
                    results += f.results;
                }
                assert_eq!(sum, s.stats, "frame stats must sum to session stats");
                assert_eq!(results, s.results.len());
            }
            assert_eq!(report.sessions[0].frames.len(), 8);
            assert_eq!(report.sessions[1].frames.len(), 6); // NPDQ: one step per frame time
            assert!(report.sessions[0].queue_hwm > 0);
            assert!(report.sessions[0].wall_ns > 0, "session wall time recorded");

            let timeline = report.timeline();
            assert_eq!(timeline.len(), 14);
            let keys: Vec<(usize, usize)> = timeline.iter().map(|&(i, f)| (f.frame, i)).collect();
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            assert_eq!(keys, sorted, "timeline ordered by (frame, session)");

            // The registry saw one drain sample per in-schedule frame and
            // the run totals.
            match registry.get("service.drain_ns") {
                Some(obs::MetricValue::Histogram { count, .. }) => assert_eq!(count, 14),
                other => panic!("missing drain histogram: {other:?}"),
            }
            assert_eq!(registry.counter_value("service.frames"), 8);
            assert_eq!(
                registry.counter_value("service.session.reads"),
                report.total_stats().disk_accesses
            );
        }
    }

    /// A sink that counts the deltas it is offered and detaches once it
    /// has seen `detach_after` of them.
    struct CountingSink {
        seen: Mutex<usize>,
        detach_after: usize,
    }

    impl FrameSink for CountingSink {
        fn on_frame(&self, _: &FrameDelta<'_>) -> SinkVerdict {
            let mut seen = self.seen.lock();
            *seen += 1;
            if *seen >= self.detach_after {
                SinkVerdict::Detach
            } else {
                SinkVerdict::Continue
            }
        }
    }

    #[test]
    fn sink_detach_frees_the_writer_and_fails_only_that_session() {
        let recs = line_records(30);
        let plans: Vec<SessionPlan<2>> = (0..2)
            .map(|_| SessionPlan::new(slide_spec(SessionKind::Pdq, 10, 30.0)))
            .collect();
        let inserts = ahead_inserts(10, 1, 30.0, 7000);
        for grid in grids() {
            let slow = CountingSink {
                seen: Mutex::new(0),
                detach_after: 3,
            };
            let refs: Vec<Option<&dyn FrameSink>> = vec![Some(&slow as &dyn FrameSink), None];
            let report = build(grid.clone(), &recs).serve_plans_streamed(&plans, &inserts, &refs);
            assert_eq!(report.frames, 10, "detach must not stall the run");
            assert_eq!(*slow.seen.lock(), 3);
            assert!(
                matches!(&report.sessions[0].outcome, SessionOutcome::Failed(m) if m.contains("detached")),
                "evicted session fails: {:?}",
                report.sessions[0].outcome
            );
            let serial = build(grid, &recs).serve_serial_plans(&plans, &inserts);
            assert_eq!(report.inserts_applied, serial.inserts_applied, "every batch still applied");
            assert_eq!(report.sessions[1].results, serial.sessions[1].results, "healthy session unaffected");
        }
    }

    #[test]
    fn mailbox_hwm_gauge_stays_within_one_batch() {
        let specs: Vec<SessionSpec<2>> = (0..4)
            .map(|_| slide_spec(SessionKind::Pdq, 15, 30.0))
            .collect();
        let inserts = ahead_inserts(15, 3, 30.0, 8000);
        for grid in grids() {
            let registry = Arc::new(obs::MetricsRegistry::new());
            let server = build(grid, &line_records(30)).with_metrics(Arc::clone(&registry));
            server.serve(&specs, &inserts);
            let hwm = registry.gauge_value("service.mailbox_hwm");
            assert!(hwm > 0, "PDQ broadcasts must be published");
            assert!(hwm <= 3, "broadcast hwm {hwm} exceeds the one-batch bound 3");
        }
    }
}
