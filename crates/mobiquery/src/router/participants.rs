//! The participants of a serve and the two drivers that schedule them.
//!
//! Concurrent ([`PartitionedDqServer::serve_clocked`]): one
//! `std::thread::scope` holding a writer thread per region and a thread
//! per scheduled session, ordered by the per-region [`FrameClock`]s
//! alone; the scope's join is the only barrier. Serial
//! ([`PartitionedDqServer::serve_serial_clocked`]): the oracle — the same
//! frame interleaving (regions ascending → sessions ascending) in one
//! straight-line loop, with no thread and no clock. Both run a region's
//! frame through one [`PartitionedDqServer::writer_frame`], which on a
//! durable serve commits the log through the frame before it writes a
//! page, and carry a [`Run`] from [`PartitionedDqServer::begin_run`] to
//! [`PartitionedDqServer::finish_run`].

use super::lanes::{LaneRun, Slate};
use super::rebuild::route_slice;
use super::{PartitionedDqServer, PartitionedServeReport, RegionReport};
use crate::clock::{FrameClock, SessionLiveness};
use crate::durability::DurableLog;
use crate::service::{
    panic_message, record_wait, FrameDelta, FrameSink, SessionOutcome, SessionPlan, SinkVerdict,
};
use parking_lot::{Mutex, RwLock};
use rtree::NsiSegmentRecord;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use storage::{PageStore, RetryPolicy, StorageError};

/// How a region's writer treats a transient insert failure: the failed
/// [`rtree::RTree::try_insert`] descent left the tree unchanged, so the
/// same record is retried, after a backoff slept with the write lock
/// *released*.
const WRITER_RETRY: RetryPolicy = RetryPolicy::DEFAULT;

/// A failed region writer (full device, or a panic) stops applying — a
/// full disk stays full, and a panic may have left its tree half-written.
/// It still commits: a checkpoint holds what was committed, not what a
/// tree absorbed, so the backlog replays onto a larger device.
fn writer_failed(w: &RegionReport) -> bool {
    matches!(w.writer_outcome, SessionOutcome::Failed(_))
}

/// The run's one commit cursor: the next frame whose batch the log has
/// not yet committed, and the tallies of the commits and folds so far.
#[derive(Clone, Copy, Default)]
struct DurabilityTally {
    next: usize,
    appends: u64,
    commit_ns: u64,
    checkpoints: u64,
}

impl DurabilityTally {
    /// Commit the log through frame `k`: for every frame from the cursor
    /// on that has a batch, fold the log into the checkpoint when one is
    /// due, then group-commit the batch.
    fn commit_through<const D: usize>(
        &mut self,
        log: &DurableLog,
        k: usize,
        inserts: &[Vec<(NsiSegmentRecord<D>, f64)>],
    ) {
        while self.next <= k {
            if let Some(batch) = inserts.get(self.next) {
                self.checkpoints += fold_if_due::<D>(log);
                let committed = Instant::now();
                log.commit_frame(self.next as u64, batch);
                self.appends += 1;
                self.commit_ns += committed.elapsed().as_nanos() as u64;
            }
            self.next += 1;
        }
    }
}

/// Take `log`'s periodic checkpoint if its cadence says one is due;
/// returns how many were installed (0 or 1). A refused fold is counted
/// by the log and leaves the longer WAL in place.
fn fold_if_due<const D: usize>(log: &DurableLog) -> u64 {
    u64::from(log.due_for_checkpoint() && log.fold_checkpoint::<D>().is_ok())
}

/// What either driver carries through a run: every session's state and
/// the participants' tallies.
pub(super) struct Run<'a, const D: usize> {
    /// Frames in the run: the longest schedule or the insert schedule,
    /// whichever ends later.
    steps: usize,
    sessions: Vec<LaneRun<'a, D>>,
    /// `writers[r]`: what region `r`'s writer applied and what it cost.
    writers: Vec<RegionReport>,
    dur: DurabilityTally,
    /// Threads the serve's scope spawned (none on the serial path).
    spawned: usize,
}

/// What the participants of one serve meet through — per region one
/// [`Slate`] and, on the concurrent path, one frame clock — the run's
/// commit cursor, and the instruments they record into.
struct Shared<'i, const D: usize> {
    steps: usize,
    inserts: &'i [Vec<(NsiSegmentRecord<D>, f64)>],
    /// The run's one commit cursor: whichever writer reaches frame `k`
    /// first commits the log through `k` (durable serves only).
    commits: Mutex<DurabilityTally>,
    /// `clocks[r]` orders region `r`'s frames against its sessions
    /// (none on the serial path).
    clocks: Vec<FrameClock>,
    /// `slates[r]`: the last frame region `r`'s writer applied — its
    /// record ids and insert reports — for the lanes on `r` to read.
    slates: Vec<RwLock<Slate<D>>>,
    drain_hist: Option<Arc<obs::Histogram>>,
    hold_hist: Option<Arc<obs::Histogram>>,
    wait_hist: Option<Arc<obs::Histogram>>,
    lag_gauge: Option<Arc<obs::Gauge>>,
}

impl<const D: usize, S: PageStore> PartitionedDqServer<D, S> {
    /// Region `r`'s write of frame `k`: apply its routed slice `batch`
    /// under the region's write lock, publish the slice and its insert
    /// reports on the region's slate, and trace the route. Transient
    /// failures back off with the lock *released* and resume from the
    /// failed record; records whose
    /// errors are unrecoverable (corrupt page) or whose retry budget is
    /// exhausted are skipped into the tally's outcome.
    ///
    /// The caller has made sure nobody reads the slate's previous frame
    /// any more, so its reports buffer is taken for this frame's.
    ///
    /// Contained: a panicking insert (an engine bug, or page bytes
    /// behind a header that parses that no read checks) fails the
    /// region's writer like a full device does, and no slate is
    /// published: the slice's reports may describe a half-written tree.
    /// The caller's clock calls stay outside, so the writer still
    /// advances its frames and no session waits on it.
    fn apply_region_batch(
        &self,
        sh: &Shared<D>,
        k: usize,
        r: usize,
        batch: &[(NsiSegmentRecord<D>, f64)],
        w: &mut RegionReport,
    ) {
        let (tree, slate) = (&self.regions[r], &sh.slates[r]);
        let mut reports = std::mem::take(&mut slate.write().reports);
        reports.clear();
        let mut idx = 0;
        let mut attempt = 0u32;
        let mut panicked = false;
        while idx < batch.len() {
            let backoff = {
                let mut tree = tree.write();
                let held = Instant::now();
                let before = tree.level_counters().snapshot();
                let mut backoff = None;
                while idx < batch.len() {
                    let (rec, _) = batch[idx];
                    match catch_unwind(AssertUnwindSafe(|| tree.try_insert(rec))) {
                        Ok(Ok(report)) => {
                            reports.push(report);
                            w.inserts_applied += 1;
                            idx += 1;
                            attempt = 0;
                        }
                        Ok(Err(e))
                            if e.is_transient() && attempt + 1 < WRITER_RETRY.max_attempts =>
                        {
                            attempt += 1;
                            backoff = Some(WRITER_RETRY.backoff(attempt));
                            break;
                        }
                        // A full device fails the region's writer for the
                        // rest of the run: skipping ahead would drop
                        // records silently, and retrying a full disk is
                        // futile.
                        Ok(Err(e @ StorageError::Full { .. })) => {
                            w.writer_outcome =
                                SessionOutcome::Failed(format!("writer stopped: {e}"));
                            idx = batch.len();
                        }
                        Ok(Err(e)) => {
                            w.writer_outcome.record_error(e);
                            idx += 1;
                            attempt = 0;
                        }
                        Err(p) => {
                            let e = panic_message(p);
                            w.writer_outcome =
                                SessionOutcome::Failed(format!("writer stopped: {e}"));
                            idx = batch.len();
                            panicked = true;
                        }
                    }
                }
                let delta = tree.level_counters().snapshot() - before;
                w.writer_reads += delta.total_reads();
                w.writer_writes += delta.total_writes();
                if let Some(h) = &sh.hold_hist {
                    h.record(held.elapsed().as_nanos() as u64);
                }
                backoff
            };
            if let Some(pause) = backoff {
                std::thread::sleep(pause);
            }
        }
        if !panicked {
            slate.write().publish(k, batch, reports);
        }
        obs::trace(obs::TraceEvent::RegionRoute {
            region: r as u32,
            records: batch.len() as u32,
        });
    }

    /// What the serial driver's participants share: blank slates, a
    /// commit cursor at frame 0, and the drain and lock-hold
    /// instruments; no clocks.
    fn shared<'i>(&self, inserts: &'i [Vec<(NsiSegmentRecord<D>, f64)>], steps: usize) -> Shared<'i, D> {
        Shared {
            steps,
            inserts,
            commits: Mutex::default(),
            clocks: Vec::new(),
            slates: (0..self.grid.len()).map(|_| RwLock::default()).collect(),
            drain_hist: self.histogram("service.drain_ns"),
            hold_hist: self.histogram("service.writer.lock_hold_ns"),
            wait_hist: None,
            lag_gauge: None,
        }
    }

    /// What one concurrent serve of `plans` shares: [`Self::shared`],
    /// per region a clock, and the wait and lag instruments. Each
    /// region's clock knows exactly which sessions are attached to it:
    /// session `i` to region `r` over its plan's window, when its lanes
    /// reach `r`.
    fn clocked<'i>(
        &self,
        plans: &[SessionPlan<D>],
        inserts: &'i [Vec<(NsiSegmentRecord<D>, f64)>],
        steps: usize,
    ) -> Shared<'i, D> {
        let attach: Vec<_> = plans
            .iter()
            .map(|p| (p.window(), self.grid.route_rect(&p.spec.trajectory.swept_bounds())))
            .collect();
        let clocks = (0..self.grid.len())
            .map(|r| {
                let windows = attach
                    .iter()
                    .map(|(w, lanes)| w.filter(|_| lanes.contains(&r)))
                    .collect();
                FrameClock::new(windows, SessionLiveness::new(plans.len()), 0, false)
            })
            .collect();
        Shared {
            clocks,
            wait_hist: self.histogram("service.clock_wait_ns"),
            lag_gauge: self.metrics.as_ref().map(|m| m.gauge("service.frame_lag")),
            ..self.shared(inserts, steps)
        }
    }

    /// Region `r`'s frame `k`, the same in both drivers. On a durable
    /// serve it first commits the log through `k` under the run's one
    /// cursor — whichever writer gets there first commits, one whose
    /// slice is empty or which has failed included — so no page of batch
    /// `k` is written before the batch is in the WAL, and no commit runs
    /// under a tree or clock lock. Then, if its slice of the batch is
    /// non-empty and the writer alive, it applies the slice once nobody
    /// reads the slate's previous frame: on the concurrent path once
    /// every session attached to `clock` has acked `k`; on the serial
    /// one sessions step after every region.
    fn writer_frame(
        &self,
        sh: &Shared<D>,
        k: usize,
        r: usize,
        w: &mut RegionReport,
        routed: &mut Vec<(NsiSegmentRecord<D>, f64)>,
        clock: Option<&FrameClock>,
    ) {
        if let Some(log) = self.durability.as_deref() {
            sh.commits.lock().commit_through(log, k, sh.inserts);
        }
        let Some(batch) = sh.inserts.get(k) else { return };
        route_slice(&self.grid, r, batch, routed);
        if routed.is_empty() || writer_failed(w) {
            return;
        }
        if let Some(clock) = clock {
            record_wait(&sh.wait_hist, clock.wait_ready(k as u64));
        }
        self.apply_region_batch(sh, k, r, routed, w);
    }

    /// Region `r`'s writer thread: every frame's [`Self::writer_frame`]
    /// under `r`'s clock, then `r`'s `applied` watermark advanced past
    /// it — every frame, batch or not, so sessions of an idle or failed
    /// region never stall.
    fn writer_loop(&self, sh: &Shared<D>, r: usize) -> RegionReport {
        let mut w = RegionReport::default();
        let mut routed = Vec::new();
        let clock = &sh.clocks[r];
        for k in 0..sh.steps {
            self.writer_frame(sh, k, r, &mut w, &mut routed, Some(clock));
            let lag = clock.advance_applied(k as u64 + 1);
            if let Some(g) = &sh.lag_gauge {
                g.record_max(lag as i64);
            }
            obs::trace(obs::TraceEvent::FrameAdvance {
                region: r as u32,
                frame: k as u32,
            });
        }
        w
    }

    /// Session `i`'s thread, its whole life: wait for its join frame,
    /// build the lane engines, then run the clock protocol per frame —
    /// wait `applied`, step (absorbing the lanes' slates), sink, ack.
    /// However it ends — schedule complete, engines dead or never built,
    /// evicted by its sink or failed by a panicking one — it detaches
    /// from its lane clocks, here and nowhere else, so no writer waits on
    /// it again.
    fn session_loop(
        &self,
        sh: &Shared<D>,
        i: usize,
        plan: &SessionPlan<D>,
        run: &mut LaneRun<'_, D>,
        sink: Option<&dyn FrameSink>,
    ) {
        let (f, l) = plan.window().expect("spawned for its window");
        let lanes = self.grid.route_rect(&plan.spec.trajectory.swept_bounds());
        // The join boundary on every lane: trees hold exactly state_{f-1}
        // (the writers withhold batch `f` until our un-acked permit
        // clears), so the engines build against precisely what the serial
        // reference shows them.
        for r in lanes.clone() {
            record_wait(&sh.wait_hist, sh.clocks[r].wait_applied(f));
        }
        if run.enter(&self.grid, &self.regions) {
            for r in lanes.clone() {
                sh.clocks[r].ack(i, f + 1);
            }
            for k in f..=l {
                for r in lanes.clone() {
                    record_wait(&sh.wait_hist, sh.clocks[r].wait_applied(k + 1));
                }
                let (results_before, frames_before) = (run.out.results.len(), run.out.frames.len());
                if !run.step(&self.grid, &self.regions, &sh.slates, k as usize, &sh.drain_hist) {
                    break;
                }
                if run.out.frames.len() > frames_before {
                    if let Some(sink) = sink {
                        let f = run.out.frames.last().expect("frame just reported");
                        let delta = FrameDelta {
                            session: i,
                            frame: f.frame,
                            results: &run.out.results[results_before..],
                            latency_ns: f.latency_ns,
                        };
                        // Evicted by its consumer before the ack, or the
                        // consumer panicked: the next batch's permit is
                        // never granted, and the detach below still runs.
                        let cut = match catch_unwind(AssertUnwindSafe(|| sink.on_frame(&delta))) {
                            Ok(SinkVerdict::Continue) => None,
                            Ok(SinkVerdict::Detach) => Some("detached by frame sink".to_string()),
                            Err(p) => Some(format!("frame sink panicked: {}", panic_message(p))),
                        };
                        if let Some(why) = cut {
                            run.out.outcome = SessionOutcome::Failed(why);
                            break;
                        }
                    }
                }
                for r in lanes.clone() {
                    sh.clocks[r].ack(i, k + 2);
                }
            }
        }
        for r in lanes {
            sh.clocks[r].detach(i);
        }
        run.stamp();
    }

    /// What both drivers do first: size the run, take the base
    /// checkpoint of a durable server, and give every plan an idle
    /// [`LaneRun`].
    fn begin_run<'a>(
        &self,
        plans: &'a [SessionPlan<D>],
        inserts: &[Vec<(NsiSegmentRecord<D>, f64)>],
    ) -> Run<'a, D> {
        let steps = plans
            .iter()
            .filter_map(|p| p.window().map(|(_, last)| last as usize + 1))
            .max()
            .unwrap_or(0)
            .max(inserts.len());
        if let Some(log) = self.durability.as_deref() {
            self.ensure_initial_checkpoint(log);
        }
        Run {
            steps,
            sessions: (0..).zip(plans).map(|(i, p)| LaneRun::idle(i, &p.spec)).collect(),
            writers: vec![RegionReport::default(); self.grid.len()],
            dur: DurabilityTally::default(),
            spawned: 0,
        }
    }

    /// The concurrent serve, one scope: a writer thread per region and
    /// a thread for every session with a frame to run (each handed its
    /// own [`LaneRun`]), all ordered by the per-region clocks, no global
    /// barrier inside.
    pub(super) fn serve_clocked<'a>(
        &self,
        plans: &'a [SessionPlan<D>],
        inserts: &[Vec<(NsiSegmentRecord<D>, f64)>],
        sinks: &[Option<&dyn FrameSink>],
    ) -> Run<'a, D>
    where
        S: Sync + Send,
    {
        let mut run = self.begin_run(plans, inserts);
        let sh = &self.clocked(plans, inserts, run.steps);
        std::thread::scope(|scope| {
            let sessions: Vec<_> = (0..)
                .zip(&mut run.sessions)
                .filter(|(i, _)| plans[*i].window().is_some())
                .map(|(i, s)| {
                    let sink = sinks.get(i).copied().flatten();
                    scope.spawn(move || self.session_loop(sh, i, &plans[i], s, sink))
                })
                .collect();
            let writers: Vec<_> = (0..self.grid.len())
                .map(|r| scope.spawn(move || self.writer_loop(sh, r)))
                .collect();
            run.spawned = sessions.len() + writers.len();
            run.writers = writers
                .into_iter()
                .map(|h| h.join().expect("region writer panicked"))
                .collect();
            for h in sessions {
                h.join().expect("session thread panicked outside its containment");
            }
        });
        if let Some(reg) = &self.metrics {
            let deepest = sh.slates.iter().map(|s| s.read().hwm).max().unwrap_or(0);
            reg.gauge("service.mailbox_hwm").record_max(deepest as i64);
        }
        run.dur = *sh.commits.lock();
        run
    }

    /// Single-threaded reference for the clocked serve: the same frame
    /// interleaving (regions ascending → sessions ascending) with no
    /// threads and no clocks. [`Self::serve_plans_streamed`] must match
    /// this bit-for-bit.
    pub(super) fn serve_serial_clocked<'a>(
        &self,
        plans: &'a [SessionPlan<D>],
        inserts: &[Vec<(NsiSegmentRecord<D>, f64)>],
    ) -> Run<'a, D> {
        let mut run = self.begin_run(plans, inserts);
        let sh = self.shared(inserts, run.steps);
        let mut routed = Vec::new();
        for k in 0..run.steps {
            let ku = k as u64;
            // A joiner builds its engines against the pre-batch trees,
            // as the concurrent path's boundary wait arranges.
            for (s, p) in run.sessions.iter_mut().zip(plans) {
                if p.window().is_some_and(|(f, _)| f == ku) {
                    s.enter(&self.grid, &self.regions);
                }
            }
            for (r, w) in run.writers.iter_mut().enumerate() {
                self.writer_frame(&sh, k, r, w, &mut routed, None);
            }
            for (s, p) in run.sessions.iter_mut().zip(plans) {
                if s.alive() && p.window().is_some_and(|(f, l)| f <= ku && ku <= l) {
                    s.step(&self.grid, &self.regions, &sh.slates, k, &sh.drain_hist);
                }
            }
        }
        for s in &mut run.sessions {
            s.stamp();
        }
        run.dur = sh.commits.into_inner();
        run
    }

    /// What both drivers do last: take a checkpoint that came due on the
    /// run's last commits, complete each writer's tally with its
    /// region's span and session-side reads and fold it into the run's
    /// totals, close every session out, fold the per-region loads into
    /// the sticky tallies that drive [`Self::hotspot`], publish metrics.
    pub(super) fn finish_run(&self, mut run: Run<'_, D>) -> PartitionedServeReport {
        if let Some(log) = self.durability.as_deref() {
            run.dur.checkpoints += fold_if_due::<D>(log);
        }
        let mut report = PartitionedServeReport {
            regions: run.writers,
            ..Default::default()
        };
        let base = &mut report.base;
        base.frames = run.steps;
        let mut loads = self.loads.lock();
        for (r, w) in report.regions.iter_mut().enumerate() {
            w.span = self.grid.span_of(r);
            w.session_reads = run.sessions.iter().filter_map(|s| s.region_reads.get(r)).sum();
            loads[r] += w.load();
            base.inserts_applied += w.inserts_applied;
            base.writer_reads += w.writer_reads;
            base.writer_writes += w.writer_writes;
            match &w.writer_outcome {
                SessionOutcome::Ok => {}
                SessionOutcome::Degraded { errors } => {
                    errors.iter().for_each(|e| base.writer_outcome.record_error(e.clone()));
                }
                failed => base.writer_outcome = failed.clone(),
            }
        }
        drop(loads);
        base.sessions = run.sessions.into_iter().map(LaneRun::finish).collect();
        base.wal_appends = run.dur.appends;
        base.wal_commit_ns = run.dur.commit_ns;
        base.checkpoints = run.dur.checkpoints;
        self.publish_run(&report);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::MotionRecord;
    use crate::router::tests::*;
    use crate::region::RegionGrid;
    use crate::service::SessionKind;
    use stkit::Interval;

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
        let mut inserts = ahead_inserts(4, 3, 8.0, 3000);
        inserts[1].clear();
        inserts.push(Vec::new());
        let sh = server.clocked(&plans, &inserts, 5);
        for i in 0..plans.len() {
            sh.clocks[0].ack(i, u64::MAX);
        }
        obs::take_thread_trace();
        let tally = server.writer_loop(&sh, 0);
        assert_eq!(tally.inserts_applied, 9);
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
            for (rec, _) in batch {
                expect.push(twin.regions[0].write().try_insert(*rec).unwrap());
            }
        }
        let slate = sh.slates[0].read();
        assert_eq!(slate.frame, Some(3));
        let mut ids: Vec<_> = inserts[3].iter().map(|(rec, _)| rec.ids()).collect();
        ids.sort_unstable();
        assert_eq!(slate.ids, ids);
        assert_eq!(slate.reports, expect);
        assert_eq!(slate.hwm, 3);
    }

    #[test]
    fn a_serve_spawns_its_writers_and_its_sessions_and_nothing_else() {
        // The thread shape: one scope of s + r threads, durable or not,
        // where s counts the plans with a frame to run — the fifth
        // plan's schedule is empty, so it gets no thread, no clock
        // attachment and the default output.
        let recs = line_records(30);
        let mut plans: Vec<SessionPlan<2>> = (0..3)
            .map(|_| SessionPlan::new(slide_spec(SessionKind::Pdq, 10, 30.0)))
            .collect();
        plans.push(SessionPlan::new(slide_spec(SessionKind::Npdq, 3, 9.0)));
        let mut never = slide_spec(SessionKind::Pdq, 10, 30.0);
        never.frame_times.truncate(1);
        plans.push(SessionPlan::new(never));
        let inserts = ahead_inserts(10, 1, 30.0, 7000);
        for grid in grids() {
            let r = grid.len();
            let server = build(grid.clone(), &recs);
            let run = server.serve_clocked(&plans, &inserts, &[]);
            assert_eq!(run.spawned, 4 + r);
            let report = server.finish_run(run);
            assert_eq!(report.sessions[4].outcome, SessionOutcome::Ok);
            assert!(report.sessions[4].frames.is_empty());
            let durable = build(grid, &recs).with_durability(Arc::new(DurableLog::new(3)));
            assert_eq!(durable.serve_clocked(&plans, &inserts, &[]).spawned, 4 + r);
        }
    }
}
