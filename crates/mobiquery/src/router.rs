//! The serving core: many trees, many writers, one answer.
//!
//! One tree serializes every insert behind one write lock — correct,
//! but the writer caps throughput long before millions of objects.
//! [`PartitionedDqServer`] splits space by a [`RegionGrid`] into regions
//! that each own their own NSI tree, their own writer, and their own
//! buffer pool, so per-frame insert batches apply in parallel (the
//! architecture of distributed continuous-range-query processors, arXiv
//! 2206.01905, folded into one process). The single-tree server is the
//! one-region grid ([`RegionGrid::single`]): one lane per session, one
//! writer, nothing to merge — same protocol, same code.
//!
//! The router half lives in each session: a session's moving window is
//! split across the regions its trajectory sweeps (its *lanes*) — a PDQ
//! engine per lane, or for NPDQ an `NpdqEngine` per lane, given the ids
//! its region's writer inserted as `maybe_new` — and per-frame
//! lane results are folded into a single stream. Records whose
//! trapezoid segments straddle a region seam are replicated into every
//! touching region (closed slabs — see [`RegionGrid::route_rect`]), and
//! only the lane whose region is the record's [`RegionGrid::owner`]
//! emits a match, so each is emitted once with no delivered set and no
//! dedup. Within a frame, PDQ results order by
//! `(entry time, oid, seq)` — the same keys the PDQ queue itself
//! tie-breaks on — and NPDQ results by `(oid, seq)`, so a session's
//! stream is the same under every grid and partitioned runs are bitwise
//! deterministic: [`PartitionedDqServer::serve`] equals
//! [`PartitionedDqServer::serve_serial_plans`] exactly.
//!
//! ## The clock protocol, per region
//!
//! Frames are ordered by one frame clock (`ClockState`, `crate::clock`)
//! *per region* — there is no global barrier anywhere on the serving
//! path. Region `r`'s
//! writer starts frame `k` by committing the log through `k` (durable
//! runs: the run has one commit cursor, and whichever writer reaches `k`
//! first commits it), so a batch is in the WAL before any page of it is
//! written. It applies its routed slice of batch `k` only once every
//! live session attached to `r` has acked past `k` — under its tree's
//! write lock — then leaves the frame's
//! [`rtree::InsertReport`]s on `r`'s one slate (§4.1's notification of
//! running PDQs: published once, whatever the session count), and
//! advances `r`'s `applied` watermark. A session processes frame `k` by
//! waiting on `applied` of exactly the regions its query sweeps; its PDQ
//! lanes then absorb their regions' slates where they lie, skipping one
//! that still holds an older frame. So a slow (or deliberately sleeping)
//! session back-pressures only its own lanes: writers of untouched
//! regions never hear from it. Sessions *detach* from their lane clocks
//! when their schedule ends — or when they fail mid-run, so a dead
//! session releases the writers instead of holding them. The clocks
//! guarantee what `router/participants.rs`'s tests check over every
//! interleaving of its programs, on one region and on two: a session
//! reading frame `k` sees exactly the batches `<= k` applied, and nobody
//! waits for ever. So a lane reads its
//! region's tree and slate behind the locks that writer takes, and
//! never waits on them; a slate *ahead* of the frame being read would
//! mean the clock failed, and fails the session that sees it. (A region
//! whose slice is empty, or whose writer failed, advances `applied`
//! without waiting, so it may run ahead of a reader over a tree that
//! does not change.) Region tree level
//! reads == Σ lane disk accesses attributed to that region + that
//! region's writer reads, exactly (a durable server's first run adds
//! the base checkpoint's one scan; periodic checkpoints read no tree).
//!
//! ## Where things live
//!
//! Here: the server, its builders, the `serve*` entry points, the
//! metrics mirror. `router/lanes.rs`: a session's per-region engines and
//! the seam owner rule. `router/rebuild.rs`: record set → region trees.
//! `router/participants.rs`: the writer and session programs, the commit
//! cursor, and the drivers that run them — one worker per CPU over a
//! ready queue, the serial oracle, and (in its tests) the checker of
//! every interleaving.
//!
//! A serve has one grid. Hotspot rebalancing (after Kiwano, arXiv
//! 1211.4414) happens between serves: every serve accumulates per-region
//! load (writer reads+writes plus session reads),
//! [`PartitionedDqServer::hotspot`] flags a region pulling more than a
//! factor above the mean, and [`PartitionedDqServer::rebalance`] recuts
//! the grid at equal-load quantiles and packs the records again.

mod lanes;
mod participants;
mod rebuild;

use crate::durability::DurableLog;
use crate::region::RegionGrid;
use crate::service::{FrameSink, ServeReport, SessionOutcome, SessionPlan, SessionSpec};
use parking_lot::{Mutex, RwLock};
use rebuild::{build_regions, dedup_from, record_bounds};
use rtree::{NsiSegmentRecord, RTree};
use std::sync::Arc;
use stkit::Interval;
use storage::{PageStore, StorageError};

/// One region's tree, behind the lock its writer takes.
type RegionTree<const D: usize, S> = RwLock<RTree<NsiSegmentRecord<D>, S>>;

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
/// [`PartitionedDqServer::serve_serial_plans`] run: the whole-server
/// [`ServeReport`] (writer tallies summed over regions; session outputs
/// merged across lanes) plus the per-region breakdown.
///
/// Note `base.inserts_applied` counts *physical* per-region inserts, so
/// it exceeds the batch record count when segments straddle seams.
/// Under the clock protocol sessions never absorb frames outside their
/// own window, so `Σ frame.stats == session.stats` holds exactly.
#[derive(Clone, Debug, Default)]
pub struct PartitionedServeReport {
    /// The run viewed as a single server (sessions in spec order).
    pub base: ServeReport,
    /// Per-region tallies, in grid order.
    pub regions: Vec<RegionReport>,
}

impl std::ops::Deref for PartitionedServeReport {
    type Target = ServeReport;
    fn deref(&self) -> &ServeReport {
        &self.base
    }
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
    /// One tree per region.
    regions: Vec<RegionTree<D, S>>,
    /// Accumulated per-region load across serves (feeds hotspot
    /// detection and recutting).
    loads: Mutex<Vec<u64>>,
    metrics: Option<Arc<obs::MetricsRegistry>>,
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
    /// `preload` holds, not on their order.
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
            durability: None,
        }
    }

    /// Record serving metrics into `registry` (builder-style).
    ///
    /// Metric names: `service.drain_ns` (per-session-frame drain latency
    /// histogram), `service.writer.lock_hold_ns` (write-lock hold-time
    /// histogram), `service.clock_wait_ns` (time a participant spent
    /// parked on a frame-clock watermark, from park to re-queue; the
    /// workers driver only) and its split by waiter,
    /// `service.clock_wait_ns.writer` (`AwaitReady`) and
    /// `service.clock_wait_ns.session` (`AwaitApplied`), which sum to
    /// it sample for sample, `service.frame_lag` (gauge:
    /// deepest applied-watermark lead over the slowest attached session),
    /// `service.mailbox_hwm` (gauge: most insert reports any region
    /// published for one frame; the name, which `dqbench` reads, predates
    /// the single slate per region), `service.frames` /
    /// `service.inserts` / `service.results` / `service.writer.reads` /
    /// `service.session.reads` / `service.npdq.discarded` (subtrees NPDQ
    /// lanes skipped unread) (run counters), `service.pdq.queue_hwm`
    /// (gauge), and per-region labels
    /// `service.region{r}.{inserts,writer.reads,writer.writes,session.reads,load}`.
    pub fn with_metrics(mut self, registry: Arc<obs::MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Make the write path durable (builder-style): each frame's whole
    /// batch is appended to `log`'s WAL as one group-committed record
    /// *before* any region writer touches a tree page — every writer
    /// commits the log through a frame before it routes its slice. The
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
    /// (between serves — callers hold `&mut self`, so nobody is reading
    /// or writing them): records are collected from every region,
    /// deduplicated by `(oid, seq)` (seam replicas collapse), then
    /// re-routed under the new cuts and packed as [`Self::build`] packs
    /// a preload — the same set under the same cuts gives the same
    /// pages; load tallies reset. A page the collecting scan cannot trust
    /// is the error, and the server is left as it was.
    pub fn rebalance(
        &mut self,
        target_regions: usize,
        mut make_tree: impl FnMut(usize) -> RTree<NsiSegmentRecord<D>, S>,
    ) -> Result<(), StorageError> {
        let records = dedup_from(&self.regions)?;
        let bounds = record_bounds(self.grid.axis(), &records);
        let loads = self.loads.get_mut();
        self.grid = self.grid.recut(bounds, loads, target_regions);
        self.regions = build_regions(&self.grid, &records, &mut make_tree);
        *loads = vec![0; self.grid.len()];
        Ok(())
    }

    /// Take the base checkpoint covering the preloaded regions, so
    /// recovery always has a record set to replay onto (idempotent:
    /// skipped once the log holds any checkpoint). This is the one tree
    /// scan of a durable server's life; every later checkpoint folds the
    /// log instead ([`DurableLog::fold_checkpoint`]). A scan that meets a
    /// page it cannot trust installs nothing and counts a checkpoint
    /// failure: the serve goes on without durability, and recovery finds
    /// no checkpoint. The failure is sticky: once a frame is committed
    /// the log refuses a base read off the trees, so a later clean scan
    /// cannot truncate a batch committed but never applied.
    fn ensure_initial_checkpoint(&self, log: &DurableLog) {
        if !log.has_checkpoint() {
            match dedup_from(&self.regions) {
                Ok(records) => {
                    log.checkpoint_logical(&records);
                }
                Err(_) => log.checkpoint_failed(),
            }
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

    /// A handle on histogram `name`, when a registry is attached.
    fn histogram(&self, name: &str) -> Option<Arc<obs::Histogram>> {
        self.metrics.as_ref().map(|m| m.histogram(name))
    }

    /// Serve with the plain per-spec schedule (every session joins at
    /// frame 0) and no sinks; see [`Self::serve_plans_streamed`].
    pub fn serve(
        &self,
        specs: &[SessionSpec<D>],
        inserts: &[Vec<(NsiSegmentRecord<D>, f64)>],
    ) -> PartitionedServeReport
    where
        S: Sync + Send,
    {
        let plans: Vec<SessionPlan<D>> = specs.iter().cloned().map(SessionPlan::new).collect();
        self.serve_plans_streamed(&plans, inserts, &[])
    }

    /// Run the clocked serve over explicit [`SessionPlan`]s (staggered
    /// joins) with a per-session [`FrameSink`] hook: each
    /// session's new frame results are offered to its sink as soon as the
    /// frame is processed, before the session acks the next frame. A sink
    /// returning [`SinkVerdict::Detach`] removes the session from every
    /// region clock without stalling the run — this is the attach point
    /// for the network front door's per-session sockets. The serve runs on
    /// one worker per CPU this process may use, the calling thread the
    /// first.
    pub fn serve_plans_streamed(
        &self,
        plans: &[SessionPlan<D>],
        inserts: &[Vec<(NsiSegmentRecord<D>, f64)>],
        sinks: &[Option<&dyn FrameSink>],
    ) -> PartitionedServeReport
    where
        S: Sync + Send,
    {
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        self.finish_run(self.serve_tasks(plans, inserts, sinks, cpus))
    }

    /// Single-threaded reference for [`Self::serve_plans_streamed`].
    pub fn serve_serial_plans(
        &self,
        plans: &[SessionPlan<D>],
        inserts: &[Vec<(NsiSegmentRecord<D>, f64)>],
    ) -> PartitionedServeReport {
        self.finish_run(self.serve_serial_clocked(plans, inserts, &[]))
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
        let sessions = report.base.total_stats();
        reg.counter("service.session.reads").add(sessions.disk_accesses);
        reg.counter("service.npdq.discarded").add(sessions.subtrees_discarded);
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
    use crate::service::{SessionKind, SessionOutput};
    use crate::QueryStats;
    use rtree::RTreeConfig;
    use stkit::Rect;
    use storage::Pager;

    pub(super) type R = NsiSegmentRecord<2>;

    pub(super) fn line_records(n: u32) -> Vec<R> {
        (0..n)
            .map(|i| {
                let x = i as f64 + 0.5;
                R::new(i, 0, Interval::new(0.0, 100.0), [x, 0.5], [x, 0.5])
            })
            .collect()
    }

    pub(super) fn slide_spec(kind: SessionKind, frames: usize, span: f64) -> SessionSpec<2> {
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

    pub(super) fn build(grid: RegionGrid, preload: &[R]) -> PartitionedDqServer<2, Pager> {
        PartitionedDqServer::build(grid, preload, |_| {
            RTree::new(Pager::new(), RTreeConfig::default())
        })
    }

    /// The grids every grid-independent behaviour is pinned on: the
    /// single-tree case, one cut, three cuts.
    pub(super) fn grids() -> [RegionGrid; 3] {
        [
            RegionGrid::single(),
            RegionGrid::from_cuts(0, vec![20.0]),
            RegionGrid::from_cuts(0, vec![10.0, 20.0, 30.0]),
        ]
    }

    /// `frames` batches of `per_frame` fresh objects dropped ahead of a
    /// window sliding over `span`, oids from `base`.
    pub(super) fn ahead_inserts(frames: u32, per_frame: u32, span: f64, base: u32) -> Vec<Vec<(R, f64)>> {
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
    pub(super) fn frame_sets(s: &SessionOutput) -> Vec<Vec<(u32, u32)>> {
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
    fn empty_run_is_empty() {
        let server = build(RegionGrid::single(), &line_records(5));
        assert_eq!(server.region_record_counts(), vec![5]);
        let report = server.serve(&[], &[]);
        assert_eq!(report.frames, 0);
        assert_eq!(report.sessions.len(), 0);
    }

    #[test]
    fn seam_straddler_is_replicated_but_delivered_once() {
        // One object moving ACROSS the cut at x = 5: its segment bbox
        // touches both regions, so both trees store it — yet each kind
        // must deliver exactly one entry event, and count it once.
        let straddler = R::new(9, 0, Interval::new(0.0, 10.0), [4.0, 0.5], [6.0, 0.5]);
        let server = build(RegionGrid::from_cuts(0, vec![5.0]), &[straddler]);
        assert_eq!(server.region_record_counts(), vec![1, 1], "replicated");
        let specs = [SessionKind::Pdq, SessionKind::Npdq].map(|kind| slide_spec(kind, 10, 10.0));
        let report = server.serve(&specs, &[]);
        for (s, spec) in report.sessions.iter().zip(&specs) {
            assert_eq!(s.results, vec![(9, 0)], "{:?}: exactly once", spec.kind);
            assert_eq!(s.stats.results, s.results.len() as u64, "{:?}: counted once", spec.kind);
        }
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
        server.rebalance(2, |_| RTree::new(Pager::new(), RTreeConfig::default())).unwrap();
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
    fn a_rebalance_over_a_cyclic_region_is_corrupt_and_changes_nothing() {
        // Region 0's root on 256 B pages with every child id pointed back
        // at itself: the collecting scan would descend for ever.
        let small = |_| RTree::new(Pager::with_page_size(256), RTreeConfig::default());
        let mut server = PartitionedDqServer::build(RegionGrid::from_cuts(0, vec![25.0]), &line_records(60), small);
        let root = server.with_region_tree(0, |t| {
            let root = t.root_page();
            crate::knn::tests::repoint_root(t, |_, _| root);
            root
        });
        assert_eq!(server.rebalance(3, small), Err(StorageError::Corrupt { page: root }));
        assert_eq!(server.grid().cuts(), &[25.0][..]);
    }

    #[test]
    fn a_base_scan_that_failed_before_a_commit_is_never_retaken() {
        use crate::{DurableLog, RecoverError};
        use storage::{FaultPlan, FaultyStore};
        // Every read is transient while injection is on: the first serve's
        // base scan fails, the writer gives up on every record, and the
        // log still commits all three frames.
        let log = Arc::new(DurableLog::new(0));
        let server = PartitionedDqServer::build(RegionGrid::single(), &line_records(20), |_| {
            let store = FaultyStore::new(Pager::with_page_size(256), FaultPlan::transient(0, 1.0));
            store.set_enabled(false);
            RTree::new(store, RTreeConfig::default())
        })
        .with_durability(Arc::clone(&log));
        server.with_region_tree(0, |t| t.store().set_enabled(true));
        let report = server.serve(&[], &ahead_inserts(3, 2, 12.0, 100));
        assert!(matches!(report.regions[0].writer_outcome, SessionOutcome::Degraded { .. }));
        assert_eq!(report.regions[0].inserts_applied, 0);
        // Now the scan reads clean, but a base read off the trees would
        // truncate three committed batches no tree holds.
        server.with_region_tree(0, |t| t.store().set_enabled(false));
        assert!(!server.checkpoint_now());
        let stats = log.stats();
        assert_eq!((stats.checkpoints, stats.wal.appends), (0, 3));
        assert!(stats.checkpoint_failures >= 3, "{stats:?}");
        let image = log.durable_image();
        assert!(matches!(image.recover_records::<2>(), Err(RecoverError::NoCheckpoint)));
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
            // Every real clock wait is one sample pooled and one under its
            // waiter's role.
            let hist = |name: &str| match registry.get(name) {
                Some(obs::MetricValue::Histogram { count, sum, .. }) => [count, sum],
                other => panic!("missing {name}: {other:?}"),
            };
            let (w, s) = (hist("service.clock_wait_ns.writer"), hist("service.clock_wait_ns.session"));
            assert_eq!(hist("service.clock_wait_ns"), [w[0] + s[0], w[1] + s[1]]);
            assert_eq!(registry.counter_value("service.frames"), 8);
            assert_eq!(
                registry.counter_value("service.session.reads"),
                report.total_stats().disk_accesses
            );
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
