//! The participants of a serve as programs, and the drivers that run
//! them.
//!
//! A region's writer and a session are each a step machine,
//! [`WriterProgram`] and [`SessionProgram`], whose pending [`Op`] is a
//! step of one region's clock (`ClockState`) or a local op whose outcome
//! the driver reports back: an empty slice, a failed apply, a bailed
//! build or step, a sink that detaches. A program never blocks and
//! touches no tree, and it is the only statement of its participant's
//! order. Three drivers run the same programs:
//!
//! * threads ([`PartitionedDqServer::serve_clocked`]): a scoped thread
//!   per region writer and per scheduled session, each parking on its
//!   region's [`FrameClock`] while a wait is not enabled;
//! * serial ([`PartitionedDqServer::serve_serial_clocked`]), the oracle:
//!   one thread, plain `ClockState`s, a fixed schedule;
//! * the checker in this file's tests: every interleaving of small
//!   scopes, local ops stubbed by counters.
//!
//! The first two share [`make_ops`] and the local ops, and carry a
//! [`Run`] from [`PartitionedDqServer::begin_run`] to
//! [`PartitionedDqServer::finish_run`].

use super::lanes::{LaneRun, Slate};
use super::rebuild::route_slice;
use super::{PartitionedDqServer, PartitionedServeReport, RegionReport};
use crate::clock::{ClockState, FrameClock, SessionLiveness, Step};
use crate::durability::DurableLog;
use crate::service::{panic_message, FrameDelta, FrameSink, SessionOutcome, SessionPlan, SinkVerdict};
use parking_lot::{Mutex, RwLock};
use rtree::NsiSegmentRecord;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use storage::{PageStore, RetryPolicy, StorageError};

/// What a participant does next. A program's pending op is also where
/// it is: [`Program::done`] maps it, and a local op's outcome, to the
/// op after it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    /// A step of region `.0`'s clock.
    Clock(usize, Step),
    /// Writer: commit the log through frame `k` (durable serves only).
    Commit(u64),
    /// Writer: route batch `k` to its region; reports a non-empty slice.
    Route(u64),
    /// Writer: apply its slice of batch `k`; reports the writer alive.
    Apply(u64),
    /// Session: build the lane engines; reports the session alive.
    Build,
    /// Session: step frame `k` on every lane; reports it alive.
    Step(u64),
    /// Session: hand frame `k` to the sink; reports it continuing.
    Sink(u64),
    Done,
}

/// A participant's program, which every driver runs.
pub(crate) trait Program {
    /// The op the participant makes next.
    fn next(&self) -> Op;
    /// That op is made; `ok` is a local op's outcome.
    fn done(&mut self, ok: bool);
}

/// Region `r`'s writer, per frame `k`: commit the log through `k`
/// (every writer, whatever its slice, so no page of batch `k` is
/// written before the batch is in the WAL); if `k` has a batch and the
/// writer is alive, route its slice, and if that is non-empty, await
/// ready (every live attached session has acked `k`, so nobody still
/// reads the slate's previous frame) and apply it; then advance
/// `applied` past `k` — every frame, batch or not, so sessions of an
/// idle or failed region never stall. A failed apply (full device, or a
/// panic) stops the writer applying, not committing: a checkpoint holds
/// what was committed, not what a tree absorbed.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WriterProgram {
    r: usize,
    /// Frames in the run, and how many of them have a batch.
    steps: u64,
    batches: u64,
    failed: bool,
    next: Op,
}

impl WriterProgram {
    pub(crate) fn new(r: usize, steps: usize, batches: usize) -> WriterProgram {
        let next = if steps == 0 { Op::Done } else { Op::Commit(0) };
        WriterProgram { r, steps: steps as u64, batches: batches as u64, failed: false, next }
    }
}

impl Program for WriterProgram {
    fn next(&self) -> Op {
        self.next
    }

    fn done(&mut self, ok: bool) {
        let advance = |k: u64| Op::Clock(self.r, Step::Advance(k + 1));
        self.next = match self.next {
            Op::Commit(k) if k < self.batches && !self.failed => Op::Route(k),
            Op::Route(k) if ok => Op::Clock(self.r, Step::AwaitReady(k)),
            Op::Clock(_, Step::AwaitReady(k)) => Op::Apply(k),
            Op::Apply(k) => {
                self.failed = !ok;
                advance(k)
            }
            Op::Commit(k) | Op::Route(k) => advance(k),
            Op::Clock(_, Step::Advance(n)) if n < self.steps => Op::Commit(n),
            _ => Op::Done,
        };
    }
}

/// Session `i` over its window `first..=last` and its lanes: await
/// `applied` of `first` on every lane (the trees hold exactly the
/// batches before the join, as the writers withhold batch `first` until
/// the session's frontier clears), build the lane engines, ack
/// `first + 1` on every lane; then per frame `k`, await `applied` of
/// `k + 1` on every lane, step, sink, ack `k + 2` on every lane. However
/// it ends — window complete, engines dead or never built, evicted by
/// its sink or failed by a panicking one — it detaches from every lane,
/// so no writer waits on it again.
#[derive(Clone, Debug)]
pub(crate) struct SessionProgram {
    i: usize,
    lanes: Range<usize>,
    first: u64,
    last: u64,
    next: Op,
}

impl SessionProgram {
    pub(crate) fn new(i: usize, (first, last): (u64, u64), lanes: Range<usize>) -> SessionProgram {
        assert!(!lanes.is_empty(), "a session reads at least one region");
        let next = Op::Clock(lanes.start, Step::AwaitApplied(first));
        SessionProgram { i, lanes, first, last, next }
    }
}

impl Program for SessionProgram {
    fn next(&self) -> Op {
        self.next
    }

    fn done(&mut self, ok: bool) {
        let (i, start, end) = (self.i, self.lanes.start, self.lanes.end);
        self.next = match self.next {
            Op::Clock(r, step) if r + 1 < end => Op::Clock(r + 1, step),
            Op::Clock(_, Step::AwaitApplied(n)) if n == self.first => Op::Build,
            Op::Clock(_, Step::AwaitApplied(n)) => Op::Step(n - 1),
            Op::Build | Op::Step(_) | Op::Sink(_) if !ok => Op::Clock(start, Step::Detach(i)),
            Op::Build => Op::Clock(start, Step::Ack(i, self.first + 1)),
            Op::Step(k) => Op::Sink(k),
            Op::Sink(k) => Op::Clock(start, Step::Ack(i, k + 2)),
            // The last lane's ack of the window's last frame ends it.
            Op::Clock(_, Step::Ack(_, upto)) if upto > self.last + 1 => Op::Clock(start, Step::Detach(i)),
            Op::Clock(_, Step::Ack(_, upto)) => Op::Clock(start, Step::AwaitApplied(upto)),
            _ => Op::Done,
        };
    }
}

/// Hand the frame session `i` just stepped to `sink`, contained: a
/// sink that detaches, or panics, fails the session. Returns whether it
/// continues.
fn offer<const D: usize>(i: usize, run: &mut LaneRun<'_, D>, sink: &dyn FrameSink) -> bool {
    let f = run.out.frames.last().expect("a stepped frame is reported");
    let delta = FrameDelta {
        session: i,
        frame: f.frame,
        results: &run.out.results[run.out.results.len() - f.results..],
        latency_ns: f.latency_ns,
    };
    let cut = match catch_unwind(AssertUnwindSafe(|| sink.on_frame(&delta))) {
        Ok(SinkVerdict::Continue) => return true,
        Ok(SinkVerdict::Detach) => "detached by frame sink".to_string(),
        Err(p) => format!("frame sink panicked: {}", panic_message(p)),
    };
    run.out.outcome = SessionOutcome::Failed(cut);
    false
}

/// Make `program`'s ops until it ends or `clock` declines a step, the
/// loop of both serving drivers: `clock` makes a clock step (the threads
/// driver parks until it is enabled; the serial one declines a wait its
/// clock does not enable), `local` a local op. Returns whether it moved.
fn make_ops(
    program: &mut impl Program,
    mut clock: impl FnMut(usize, Step) -> bool,
    mut local: impl FnMut(Op) -> bool,
) -> bool {
    let mut moved = false;
    loop {
        let ok = match program.next() {
            Op::Done => return moved,
            Op::Clock(r, step) if !clock(r, step) => return moved,
            Op::Clock(..) => true,
            op => local(op),
        };
        program.done(ok);
        moved = true;
    }
}

/// How a region's writer treats a transient insert failure: the failed
/// [`rtree::RTree::try_insert`] descent left the tree unchanged, so the
/// same record is retried, after a backoff slept with the write lock
/// *released*.
const WRITER_RETRY: RetryPolicy = RetryPolicy::DEFAULT;

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
    /// Every real clock wait, pooled, and the same split by waiter: the
    /// writers' `wait_ready` and the sessions' `wait_applied`.
    wait_hist: Option<Arc<obs::Histogram>>,
    writer_wait_hist: Option<Arc<obs::Histogram>>,
    session_wait_hist: Option<Arc<obs::Histogram>>,
    lag_gauge: Option<Arc<obs::Gauge>>,
}

impl<const D: usize> Shared<'_, D> {
    /// The threads driver's clock step: a wait parks on region `r`'s
    /// clock until it is enabled, and a real one is recorded pooled and
    /// under its waiter; an advance publishes the region's frame lag and
    /// traces the frame.
    fn clock_step(&self, r: usize, step: Step) -> bool {
        let clock = &self.clocks[r];
        // Only real waits are samples; the fast path is the common case.
        let waited = |role: &Option<Arc<obs::Histogram>>, ns: u64| {
            for h in [&self.wait_hist, role].into_iter().flatten().filter(|_| ns > 0) {
                h.record(ns);
            }
        };
        match step {
            Step::AwaitReady(k) => waited(&self.writer_wait_hist, clock.wait_ready(k)),
            Step::AwaitApplied(n) => waited(&self.session_wait_hist, clock.wait_applied(n)),
            Step::Advance(n) => {
                let lag = clock.advance_applied(n);
                if let Some(g) = &self.lag_gauge {
                    g.record_max(lag as i64);
                }
                obs::trace(obs::TraceEvent::FrameAdvance {
                    region: r as u32,
                    frame: (n - 1) as u32,
                });
            }
            Step::Ack(i, upto) => clock.ack(i, upto),
            Step::Detach(i) => clock.detach(i),
        }
        true
    }
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
            writer_wait_hist: None,
            session_wait_hist: None,
            lag_gauge: None,
        }
    }

    /// The regions `plan`'s query sweeps: its session's lanes.
    fn lanes(&self, plan: &SessionPlan<D>) -> Range<usize> {
        self.grid.route_rect(&plan.spec.trajectory.swept_bounds())
    }

    /// Region `r`'s clock windows: session `i` is attached over its
    /// plan's window when its lanes reach `r`.
    fn windows(&self, plans: &[SessionPlan<D>], r: usize) -> Vec<Option<(u64, u64)>> {
        plans.iter().map(|p| p.window().filter(|_| self.lanes(p).contains(&r))).collect()
    }

    /// What one concurrent serve of `plans` shares: [`Self::shared`],
    /// per region a clock, and the wait and lag instruments.
    fn clocked<'i>(
        &self,
        plans: &[SessionPlan<D>],
        inserts: &'i [Vec<(NsiSegmentRecord<D>, f64)>],
        steps: usize,
    ) -> Shared<'i, D> {
        let clocks = (0..self.grid.len())
            .map(|r| {
                let liveness = SessionLiveness::new(plans.len());
                FrameClock::new(self.windows(plans, r), liveness, 0, false)
            })
            .collect();
        Shared {
            clocks,
            wait_hist: self.histogram("service.clock_wait_ns"),
            writer_wait_hist: self.histogram("service.clock_wait_ns.writer"),
            session_wait_hist: self.histogram("service.clock_wait_ns.session"),
            lag_gauge: self.metrics.as_ref().map(|m| m.gauge("service.frame_lag")),
            ..self.shared(inserts, steps)
        }
    }

    /// Region `r`'s writer's local op, the same under every driver;
    /// returns its outcome.
    fn writer_op(
        &self,
        sh: &Shared<D>,
        r: usize,
        op: Op,
        w: &mut RegionReport,
        routed: &mut Vec<(NsiSegmentRecord<D>, f64)>,
    ) -> bool {
        match op {
            Op::Commit(k) => {
                if let Some(log) = self.durability.as_deref() {
                    sh.commits.lock().commit_through(log, k as usize, sh.inserts);
                }
                true
            }
            Op::Route(k) => {
                route_slice(&self.grid, r, &sh.inserts[k as usize], routed);
                !routed.is_empty()
            }
            Op::Apply(k) => {
                self.apply_region_batch(sh, k as usize, r, routed, w);
                // A failed writer (full device, or a panic) stops applying: a full
                // disk stays full, and a panic may have left its tree half-written.
                !matches!(w.writer_outcome, SessionOutcome::Failed(_))
            }
            _ => unreachable!("{op:?} is no writer's local op"),
        }
    }

    /// Session `i`'s local op, the same under every driver; returns its
    /// outcome.
    fn session_op(
        &self,
        sh: &Shared<D>,
        i: usize,
        op: Op,
        run: &mut LaneRun<'_, D>,
        sink: Option<&dyn FrameSink>,
    ) -> bool {
        match op {
            Op::Build => run.enter(&self.grid, &self.regions),
            Op::Step(k) => run.step(&self.grid, &self.regions, &sh.slates, k as usize, &sh.drain_hist),
            Op::Sink(_) => sink.is_none_or(|sink| offer(i, run, sink)),
            _ => unreachable!("{op:?} is no session's local op"),
        }
    }

    /// Region `r`'s writer thread.
    fn writer_loop(&self, sh: &Shared<D>, r: usize) -> RegionReport {
        let (mut w, mut routed) = (RegionReport::default(), Vec::new());
        let mut program = WriterProgram::new(r, sh.steps, sh.inserts.len());
        let local = |op| self.writer_op(sh, r, op, &mut w, &mut routed);
        make_ops(&mut program, |r, step| sh.clock_step(r, step), local);
        w
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

    /// The threads driver's serve, one scope: a writer thread per region
    /// and a thread for every session with a frame to run (each handed
    /// its own [`LaneRun`]), all ordered by the per-region clocks, no
    /// global barrier inside. A session's wall time ends with its thread.
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
                .zip(plans.iter().zip(&mut run.sessions))
                .filter_map(|(i, (plan, lanes))| {
                    let mut program = SessionProgram::new(i, plan.window()?, self.lanes(plan));
                    let sink = sinks.get(i).copied().flatten();
                    Some(scope.spawn(move || {
                        let local = |op| self.session_op(sh, i, op, lanes, sink);
                        make_ops(&mut program, |r, step| sh.clock_step(r, step), local);
                        lanes.stamp();
                    }))
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

    /// The serial driver, the oracle [`Self::serve_plans_streamed`] must
    /// match bit for bit: the same programs on one thread, over plain
    /// `ClockState`s, in a fixed schedule — every writer, regions
    /// ascending, then every session, ascending, each making ops until
    /// its next is a wait its clock does not enable, round after round.
    /// The checker shows some op is always enabled until every program
    /// is done, so a round in which nobody moves ends the run.
    pub(super) fn serve_serial_clocked<'a>(
        &self,
        plans: &'a [SessionPlan<D>],
        inserts: &[Vec<(NsiSegmentRecord<D>, f64)>],
    ) -> Run<'a, D> {
        let mut run = self.begin_run(plans, inserts);
        let sh = self.shared(inserts, run.steps);
        let regions = self.grid.len();
        let mut clocks: Vec<_> = (0..regions).map(|r| ClockState::new(&self.windows(plans, r), 0)).collect();
        let writer = |r| (WriterProgram::new(r, run.steps, inserts.len()), Vec::new());
        let mut writers: Vec<_> = (0..regions).map(writer).collect();
        let mut sessions: Vec<_> = (0..)
            .zip(plans)
            .filter_map(|(i, plan)| Some(SessionProgram::new(i, plan.window()?, self.lanes(plan))))
            .collect();
        let mut moved = true;
        while moved {
            moved = false;
            let mut clock = |r: usize, step| {
                let enabled = clocks[r].enabled(step);
                if enabled {
                    clocks[r].apply(step);
                }
                enabled
            };
            for (r, ((program, routed), w)) in writers.iter_mut().zip(&mut run.writers).enumerate() {
                moved |= make_ops(program, &mut clock, |op| self.writer_op(&sh, r, op, w, routed));
            }
            for program in &mut sessions {
                let (i, lanes) = (program.i, &mut run.sessions[program.i]);
                moved |= make_ops(program, &mut clock, |op| self.session_op(&sh, i, op, lanes, None));
            }
        }
        let unfinished = writers.iter().map(|(p, _)| p.next()).chain(sessions.iter().map(Program::next));
        assert!(unfinished.into_iter().all(|op| op == Op::Done), "the serial schedule stalled");
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
    use crate::clock::Wake;
    use crate::service::SessionKind;
    use std::collections::HashSet;
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

    // ---- The programs over every interleaving ----
    //
    // The checker runs `WriterProgram` and `SessionProgram` themselves
    // over plain `ClockState`s, local ops stubbed by counters: a batch is
    // a bit, a tree the bits of the batches written to it, the log the
    // commit cursor. Free choices are made as a program reaches them: an
    // empty slice (at `Route`), a failed apply, a bail (at a build, step
    // or sink), a session's last frame (at its last ack of a frame, the
    // one op that reads the window's end). Nothing depends on a choice
    // before it is made, so this covers every such set. A depth-first
    // search with state hashing visits every reachable state and checks:
    //   (i)   a step of frame `k` (a build at `f`) sees, on each lane,
    //         exactly the tree its writer leaves after frame `k` (before
    //         `f`): the serial schedule's;
    //   (ii)  until every program is done, some op is enabled;
    //   (iii) a clock step that enables a parked wait wakes its condvar;
    //   (iv)  a writer applies batch `k` only once the log holds it, and
    //         at the end the log holds every batch.
    // Three reductions keep it small. No step lowers `applied` or the
    // slowest frontier (checked on every step), so a wait that can
    // return stays so and is taken at once. An op no other program
    // observes (a `Route`, a `Sink`, a `Commit` with one writer) is made
    // with the op before it. And a key leaves out what no later op
    // reads: a detached session's frame, which past slices were empty.

    /// A pending op as a number: its kind, frame and region.
    fn place(op: Op) -> u128 {
        let (kind, k, r) = match op {
            Op::Clock(r, Step::AwaitReady(k)) => (1, k, r),
            Op::Clock(r, Step::Advance(n)) => (2, n, r),
            Op::Clock(r, Step::AwaitApplied(n)) => (3, n, r),
            Op::Clock(r, Step::Ack(_, upto)) => (4, upto, r),
            Op::Clock(r, Step::Detach(_)) => (5, 0, r),
            Op::Commit(k) => (6, k, 0),
            Op::Route(k) => (7, k, 0),
            Op::Apply(k) => (8, k, 0),
            Op::Build => (9, 0, 0),
            Op::Step(k) => (10, k, 0),
            Op::Sink(k) => (11, k, 0),
            Op::Done => (0, 0, 0),
        };
        (kind as u128) << 4 | u128::from(k) << 1 | r as u128
    }

    /// A scope's state: programs `0..writers.len()` are the region
    /// writers, the rest the sessions that join.
    #[derive(Clone)]
    struct Model {
        clocks: Vec<ClockState>,
        writers: Vec<WriterProgram>,
        sessions: Vec<SessionProgram>,
        /// Per region: its writer's non-empty slices so far, and the
        /// batches written to its tree, a failed one included (bit `k`).
        slices: [u8; 2],
        trees: [u8; 2],
        /// The log holds every batch below this.
        logged: u64,
    }

    impl Model {
        fn op(&self, p: usize) -> Op {
            self.writers.get(p).map_or_else(|| self.sessions[p - self.writers.len()].next(), Program::next)
        }

        fn done(&mut self, p: usize, ok: bool) {
            match p.checked_sub(self.writers.len()) {
                None => self.writers[p].done(ok),
                Some(i) => self.sessions[i].done(ok),
            }
        }

        /// (i): region `r`'s writer is past frame `n - 1` (only its
        /// `Advance` moves `applied`), and its tree holds exactly its
        /// non-empty slices `< n`.
        fn sees_frames_before(&self, r: usize, n: u64) -> bool {
            self.clocks[r].applied >= n && self.trees[r] == self.slices[r] & ((1 << n) - 1)
        }

        /// Program `p`'s local op `op` with outcome `ok`, or the rule it
        /// breaks.
        fn local(&mut self, p: usize, op: Op, ok: bool) -> Result<(), String> {
            match op {
                Op::Commit(k) => self.logged = self.logged.max(k + 1),
                Op::Route(k) if ok => self.slices[p] |= 1 << k,
                Op::Apply(k) if self.logged <= k => return Err(format!("(iv) batch {k} is applied before the log holds it")),
                Op::Apply(k) => self.trees[p] |= 1 << k,
                Op::Build | Op::Step(_) => {
                    let s = &self.sessions[p - self.writers.len()];
                    let n = if let Op::Step(k) = op { k + 1 } else { s.first };
                    if let Some(r) = s.lanes.clone().find(|&r| !self.sees_frames_before(r, n)) {
                        return Err(format!("(i) {op:?} reads region {r}'s tree {:04b}", self.trees[r]));
                    }
                }
                _ => {}
            }
            Ok(())
        }

        /// `self` as a number, sessions in sorted order: two with the
        /// same window start and lanes are interchangeable, and the rest
        /// keep theirs in their key.
        fn key(&self) -> u128 {
            let mut key = u128::from(self.logged);
            for (r, (w, c)) in self.writers.iter().zip(&self.clocks).enumerate() {
                // Below its frame a writer's slices and tree are read only
                // by (i)'s comparison: which bits differ is all that counts.
                let (slices, tree, k) = (self.slices[r], self.trees[r], c.applied);
                let (past, ahead) = ((slices ^ tree) & ((1 << k) - 1), (slices >> k) << 4 | tree >> k);
                key = key << 32 | place(w.next) << 20 | u128::from(w.failed) << 19 | u128::from(past) << 11;
                key |= u128::from(ahead) << 3 | u128::from(k);
            }
            let mut sessions: Vec<u128> = (self.sessions.iter())
                .map(|s| {
                    let mut key = place(s.next) << 12 | u128::from(s.first) << 6 | (s.lanes.start * 4 + s.lanes.end) as u128;
                    for c in &self.clocks {
                        // A detached session's frontier no longer counts.
                        key = key << 4 | if c.live[s.i] { u128::from(c.acks[s.i]) + 1 } else { 0 };
                    }
                    key
                })
                .collect();
            sessions.sort_unstable();
            sessions.iter().fold(key, |key, s| key << (20 + 4 * self.clocks.len()) | s)
        }
    }

    /// A move of the search: which program, which op, which outcome.
    type Move = (usize, Op, &'static str);

    /// Every state reachable in one scope: the frames, and per session
    /// its join frame (`None`: never) and lanes.
    struct Search {
        frames: u64,
        regions: usize,
        sessions: Vec<(Option<u64>, Range<usize>)>,
        seen: HashSet<u128>,
        path: Vec<Move>,
    }

    impl Search {
        /// Visit every state reachable from the scope's start; returns how
        /// many, or panics with the broken rule and the moves that reach it.
        fn explore(frames: u64, regions: usize, sessions: Vec<(Option<u64>, Range<usize>)>) -> usize {
            let window = |j: Option<u64>| j.map(|f| (f, frames - 1));
            let start = Model {
                clocks: (0..regions)
                    .map(|r| {
                        let windows: Vec<_> = sessions.iter().map(|(j, l)| window(*j).filter(|_| l.contains(&r))).collect();
                        ClockState::new(&windows, 0)
                    })
                    .collect(),
                writers: (0..regions).map(|r| WriterProgram::new(r, frames as usize, frames as usize)).collect(),
                sessions: (0..)
                    .zip(&sessions)
                    .filter_map(|(i, (j, lanes))| Some(SessionProgram::new(i, window(*j)?, lanes.clone())))
                    .collect(),
                slices: [0; 2],
                trees: [0; 2],
                logged: 0,
            };
            let mut search = Search { frames, regions, sessions, seen: HashSet::new(), path: Vec::new() };
            search.visit(start);
            search.seen.len()
        }

        fn fail(&self, broken: String) -> ! {
            let name = |p: usize| p.checked_sub(self.regions).map_or(format!("writer {p}"), |i| format!("session {i}"));
            let trace: Vec<_> = self.path.iter().map(|&(p, op, what)| format!("{}: {op:?}{what}", name(p))).collect();
            let (frames, regions, sessions) = (self.frames, self.regions, &self.sessions);
            let trace = trace.join("\n  ");
            panic!("{frames} frames, {regions} regions, sessions (join, lanes) {sessions:?}: {broken}, after\n  {trace}");
        }

        /// Take every wait that can return, then make each enabled op of
        /// each program, every outcome, in a copy of its own.
        fn visit(&mut self, mut m: Model) {
            let depth = self.path.len();
            let programs = m.writers.len() + m.sessions.len();
            // A wait changes nothing, so one pass takes them all.
            for p in 0..programs {
                while let op @ Op::Clock(r, s @ (Step::AwaitReady(_) | Step::AwaitApplied(_))) = m.op(p) {
                    if !m.clocks[r].enabled(s) {
                        break;
                    }
                    m.done(p, true);
                    self.path.push((p, op, ""));
                }
            }
            if self.seen.insert(m.key()) {
                let ops: Vec<Op> = (0..programs).map(|p| m.op(p)).collect();
                let mut enabled = false;
                for (p, &op) in ops.iter().enumerate() {
                    match op {
                        Op::Done => continue,
                        Op::Clock(r, step) if m.clocks[r].enabled(step) => self.clock_step(&m, &ops, p, r, step),
                        Op::Clock(..) => continue,
                        op => self.local(m.clone(), p, op),
                    }
                    enabled = true;
                }
                let done = ops.iter().all(|&op| op == Op::Done);
                if !enabled && !done {
                    self.fail("(ii) deadlock: every program left is parked".to_string());
                }
                if done && m.logged < self.frames {
                    self.fail(format!("(iv) the run ends with batch {} not in the log", m.logged));
                }
            }
            self.path.truncate(depth);
        }

        /// Program `p` makes the clock step `step` on region `r`.
        fn clock_step(&mut self, m: &Model, ops: &[Op], p: usize, r: usize, step: Step) {
            let op = Op::Clock(r, step);
            let mut to = m.clone();
            let wake = to.clocks[r].apply(step);
            let (before, after) = (&m.clocks[r], &to.clocks[r]);
            if after.applied < before.applied || after.slowest() < before.slowest() {
                self.fail(format!("program {p}'s {op:?} lowers a watermark or the slowest frontier"));
            }
            for (q, &parked) in ops.iter().enumerate() {
                let Op::Clock(rq, parked @ (Step::AwaitReady(_) | Step::AwaitApplied(_))) = parked else { continue };
                let cv = if matches!(parked, Step::AwaitReady(_)) { Wake::Writer } else { Wake::Readers };
                if rq == r && wake != Wake::Both && wake != cv && after.enabled(parked) && !before.enabled(parked) {
                    self.fail(format!("(iii) program {p}'s {op:?} enables program {q}'s {parked:?} but wakes {wake:?}"));
                }
            }
            // A session's last ack of frame `k` may end its window there.
            if let (Step::Ack(_, upto), Some(s)) = (step, p.checked_sub(m.writers.len()).map(|i| &m.sessions[i])) {
                if r + 1 == s.lanes.end && s.first + 1 < upto && upto <= s.last + 1 {
                    let mut last = to.clone();
                    last.sessions[p - m.writers.len()].last = upto - 2;
                    last.done(p, true);
                    self.then(last, p, (p, op, ", its last frame"));
                }
            }
            to.done(p, true);
            self.then(to, p, (p, op, ""));
        }

        /// Program `p` makes the local op `op` in `m`, every outcome.
        fn local(&mut self, m: Model, p: usize, op: Op) {
            let outcomes: &[_] = match op {
                Op::Commit(_) => &[(true, "")],
                Op::Route(_) => &[(true, ""), (false, ", slice empty")],
                Op::Apply(_) => &[(true, ""), (false, " fails")],
                _ => &[(true, ""), (false, " bails")],
            };
            for &(ok, what) in outcomes {
                let mut to = m.clone();
                if let Err(broken) = to.local(p, op, ok) {
                    self.path.push((p, op, what));
                    self.fail(broken);
                }
                to.done(p, ok);
                self.then(to, p, (p, op, what));
            }
        }

        /// Record `mv`, make the op after it if no other program observes
        /// it, and visit what that leaves.
        fn then(&mut self, m: Model, p: usize, mv: Move) {
            self.path.push(mv);
            match m.op(p) {
                op @ (Op::Route(_) | Op::Sink(_)) => self.local(m, p, op),
                op @ Op::Commit(_) if self.regions == 1 => self.local(m, p, op),
                _ => self.visit(m),
            }
            self.path.pop();
        }
    }

    /// Explore every multiset of 1 to `most` sessions drawn from `kinds`
    /// (sessions of one kind are interchangeable) that `keep` accepts;
    /// prints the scopes, the states, the most in one scope and the time.
    fn explore_all(
        what: &str,
        (frames, regions, most): (u64, usize, usize),
        kinds: &[(Option<u64>, Range<usize>)],
        keep: fn(&[usize]) -> bool,
    ) {
        let (started, mut tally) = (Instant::now(), [0; 3]);
        for n in 1..=most {
            let mut pick = vec![0; n];
            loop {
                if keep(&pick) {
                    let states = Search::explore(frames, regions, pick.iter().map(|&j| kinds[j].clone()).collect());
                    tally = [tally[0] + 1, tally[1] + states, tally[2].max(states)];
                }
                let Some(j) = (0..n).rev().find(|&j| pick[j] + 1 < kinds.len()) else { break };
                let v = pick[j] + 1;
                pick[j..].iter_mut().for_each(|p| *p = v);
            }
        }
        let [scopes, states, largest] = tally;
        println!("{what}: {scopes} scopes, {states} states, at most {largest} in one, {:?}", started.elapsed());
    }

    #[test]
    fn every_interleaving_keeps_the_protocol() {
        // A never-joining session is an absent one: three sessions that
        // all join cover the rest.
        let one: Vec<_> = std::iter::once(None).chain((0..4).map(Some)).map(|j| (j, 0..1)).collect();
        let what = "one region: 1-3 sessions over 4 frames, never-joining included, any windows, slices, failures, bails";
        explore_all(what, (4, 1, 3), &one, |pick| pick.len() < 3 || pick[0] > 0);
        // Two writers on one commit cursor; one session reads both lanes.
        let two: Vec<_> = (0..3).flat_map(|f| [0..2, 0..1, 1..2].map(|l| (Some(f), l))).collect();
        let what = "two regions: 1-2 sessions over 3 frames, one on both lanes, any windows, slices, failures, bails";
        explore_all(what, (3, 2, 2), &two, |pick| pick.iter().any(|&j| j % 3 == 0));
    }
}
