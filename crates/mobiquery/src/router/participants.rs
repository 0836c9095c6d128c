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
//! * workers ([`PartitionedDqServer::serve_tasks`]): one worker per CPU,
//!   the calling thread the first, each popping programs off one FIFO
//!   ready queue and making their ops. A clock step takes the
//!   scheduler's one lock over every region's `ClockState`: a wait the
//!   clock does not enable parks the program on that region, and a
//!   mutation re-queues the parked programs its `Wake` names and
//!   enables. A sink that blocks lends its worker's turn to a spare
//!   ([`FrameDelta::block_in_place`]);
//! * serial ([`PartitionedDqServer::serve_serial_clocked`]), the oracle:
//!   one thread, a fixed schedule;
//! * the checker in this file's tests: every interleaving of small
//!   scopes, local ops stubbed by counters.
//!
//! The first two share [`make_ops`], the [`Task`]s that hold what the
//! local ops write and the local ops themselves, and carry a [`Run`]
//! from [`PartitionedDqServer::begin_run`] to
//! [`PartitionedDqServer::finish_run`].

use super::lanes::{LaneRun, Slate};
use super::rebuild::route_slice;
use super::{PartitionedDqServer, PartitionedServeReport, RegionReport};
use crate::clock::{ClockState, Step, Wake};
use crate::durability::DurableLog;
use crate::service::{panic_message, FrameDelta, FrameSink, Lend, SessionOutcome, SessionPlan, SinkVerdict};
use parking_lot::{Condvar, Mutex, RwLock};
use rtree::NsiSegmentRecord;
use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::Scope;
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
/// sink that detaches, or panics, fails the session. `turn` is what the
/// delta's [`FrameDelta::block_in_place`] lends. Returns whether it
/// continues.
fn offer<const D: usize>(i: usize, run: &mut LaneRun<'_, D>, sink: &dyn FrameSink, turn: Option<&dyn Lend>) -> bool {
    let f = run.out.frames.last().expect("a stepped frame is reported");
    let delta = FrameDelta {
        session: i,
        frame: f.frame,
        results: &run.out.results[run.out.results.len() - f.results..],
        latency_ns: f.latency_ns,
        turn,
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
/// loop of both serving drivers: `clock` makes a clock step if its
/// region's clock enables it (the workers driver then parks the program
/// on that region), `local` a local op. Returns whether it moved.
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

/// A participant as both serving drivers hold it: its program, and what
/// its local ops write — a writer's tally and routed slice, a session's
/// lanes.
enum Task<'r, 'a, const D: usize> {
    Writer(WriterProgram, &'r mut RegionReport, Vec<(NsiSegmentRecord<D>, f64)>),
    Session(SessionProgram, &'r mut LaneRun<'a, D>),
}

impl<const D: usize> Task<'_, '_, D> {
    fn next(&self) -> Op {
        match self {
            Task::Writer(program, ..) => program.next(),
            Task::Session(program, _) => program.next(),
        }
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
/// [`Slate`] — the run's commit cursor, and the instruments they record
/// into.
struct Shared<'i, const D: usize> {
    inserts: &'i [Vec<(NsiSegmentRecord<D>, f64)>],
    /// The run's one commit cursor: whichever writer reaches frame `k`
    /// first commits the log through `k` (durable serves only).
    commits: Mutex<DurabilityTally>,
    /// `slates[r]`: the last frame region `r`'s writer applied — its
    /// record ids and insert reports — for the lanes on `r` to read.
    slates: Vec<RwLock<Slate<D>>>,
    drain_hist: Option<Arc<obs::Histogram>>,
    hold_hist: Option<Arc<obs::Histogram>>,
    /// Every park on a clock, from park to re-queue, pooled, and the
    /// same split by waiter: the writers' `AwaitReady` and the sessions'
    /// `AwaitApplied`.
    wait_hist: Option<Arc<obs::Histogram>>,
    writer_wait_hist: Option<Arc<obs::Histogram>>,
    session_wait_hist: Option<Arc<obs::Histogram>>,
    lag_gauge: Option<Arc<obs::Gauge>>,
}

impl<const D: usize> Shared<'_, D> {
    /// Both drivers' clock step: make `step` on `clock`, region `r`'s,
    /// if the clock enables it, and say whom it wakes; an advance
    /// publishes the region's frame lag and traces the frame.
    fn step_clock(&self, clock: &mut ClockState, r: usize, step: Step) -> Option<Wake> {
        if !clock.enabled(step) {
            return None;
        }
        let wake = clock.apply(step);
        if let Step::Advance(n) = step {
            if let Some(g) = &self.lag_gauge {
                g.record_max(clock.lag() as i64);
            }
            obs::trace(obs::TraceEvent::FrameAdvance {
                region: r as u32,
                frame: (n - 1) as u32,
            });
        }
        Some(wake)
    }
}

/// Why a workers serve stopped short.
enum Halt {
    /// A worker panicked outside every containment; the payload.
    Panic(Box<dyn Any + Send>),
    /// No program was ready and none held, with this many parked: a lost
    /// wake, or a deadlock of the protocol.
    Stall(usize),
}

/// The workers driver's one lock: every region's clock, the ready
/// queue, the programs parked on each region, and the pool's tallies.
struct Sched<'r, 'a, const D: usize> {
    clocks: Vec<ClockState>,
    ready: VecDeque<Task<'r, 'a, D>>,
    /// `parked[r]`: the programs whose next op is a wait region `r`'s
    /// clock did not enable, each with when it parked.
    parked: Vec<Vec<(Task<'r, 'a, D>, Instant)>>,
    /// Programs not done, and how many of them a worker holds.
    left: usize,
    held: usize,
    /// Workers holding a turn, and workers waiting for a turn or a task.
    busy: usize,
    idle: usize,
    /// Spare workers started for sinks that block.
    spares: usize,
    halt: Option<Halt>,
}

/// The workers driver: `workers` turns on the CPUs, and the scheduler
/// every worker takes its programs from.
struct Pool<'p, 'a, const D: usize, S: PageStore> {
    server: &'p PartitionedDqServer<D, S>,
    sh: &'p Shared<'p, D>,
    sinks: &'p [Option<&'p dyn FrameSink>],
    workers: usize,
    sched: Mutex<Sched<'p, 'a, D>>,
    /// Idle workers wait here for a turn and a task, or the end.
    wake: Condvar,
}

impl<'p, 'a, const D: usize, S: PageStore + Sync + Send> Pool<'p, 'a, D, S> {
    /// One worker: take a turn and the ready queue's first program, make
    /// its ops until it ends or parks, and again, until every program is
    /// done or the serve halts. A worker over the pool's turns (one a
    /// blocking sink lent out came back) waits idle: the spare is
    /// retired.
    fn work<'s>(&'s self, scope: &'s Scope<'s, '_>) {
        let lender = Lender { pool: self, scope };
        let mut s = self.sched.lock();
        loop {
            let mut task = loop {
                if s.halt.is_some() || s.left == 0 {
                    return;
                }
                if s.busy < self.workers {
                    if let Some(task) = s.ready.pop_front() {
                        break task;
                    }
                    if s.held == 0 {
                        let parked = s.parked.iter().map(Vec::len).sum();
                        s.halt = Some(Halt::Stall(parked));
                        self.wake.notify_all();
                        return;
                    }
                }
                s.idle += 1;
                self.wake.wait(&mut s);
                s.idle -= 1;
            };
            s.busy += 1;
            s.held += 1;
            drop(s);
            // A declined step hands its still-held lock back with the
            // region, so the program parks before any step can enable it.
            let mut declined = None;
            let clock = |r: usize, step: Step| {
                let mut s = self.sched.lock();
                let Some(wake) = self.sh.step_clock(&mut s.clocks[r], r, step) else {
                    declined = Some((s, r));
                    return false;
                };
                self.requeue(&mut s, r, wake);
                true
            };
            let ran = catch_unwind(AssertUnwindSafe(|| {
                self.server.run_task(self.sh, &mut task, self.sinks, Some(&lender), clock)
            }));
            let park_on;
            (s, park_on) = match declined {
                Some((s, r)) => (s, Some(r)),
                None => (self.sched.lock(), None),
            };
            s.busy -= 1;
            s.held -= 1;
            if let Err(payload) = ran {
                s.halt = Some(Halt::Panic(payload));
                self.wake.notify_all();
                return;
            }
            match park_on {
                Some(r) => s.parked[r].push((task, Instant::now())),
                None => {
                    s.left -= 1;
                    if s.left == 0 {
                        self.wake.notify_all();
                    }
                }
            }
        }
    }

    /// Start a worker in `scope`: the one place a serve starts a thread.
    fn start_worker<'s>(&'s self, scope: &'s Scope<'s, '_>) {
        scope.spawn(move || self.work(scope));
    }

    /// Move the programs parked on region `r` that `wake` names and the
    /// region's clock now enables to the ready queue, recording how long
    /// each was parked, and call an idle worker for each while a turn is
    /// free.
    fn requeue(&self, s: &mut Sched<'p, 'a, D>, r: usize, wake: Wake) {
        if wake == Wake::None {
            return;
        }
        let mut j = 0;
        while j < s.parked[r].len() {
            let Op::Clock(_, step) = s.parked[r][j].0.next() else { unreachable!("a parked program waits on a clock") };
            let (named, role) = match step {
                Step::AwaitReady(_) => (wake != Wake::Readers, &self.sh.writer_wait_hist),
                _ => (wake != Wake::Writer, &self.sh.session_wait_hist),
            };
            if !named || !s.clocks[r].enabled(step) {
                j += 1;
                continue;
            }
            let (task, since) = s.parked[r].remove(j);
            let waited = since.elapsed().as_nanos() as u64;
            for h in [&self.sh.wait_hist, role].into_iter().flatten() {
                h.record(waited);
            }
            s.ready.push_back(task);
            if s.idle > 0 && s.busy < self.workers {
                self.wake.notify_one();
            }
        }
    }
}

/// A worker's turn as its sinks lend it: the pool, and the scope a spare
/// worker starts in when no idle one can take the turn.
struct Lender<'s, 'e, 'p, 'a, const D: usize, S: PageStore> {
    pool: &'s Pool<'p, 'a, D, S>,
    scope: &'s Scope<'s, 'e>,
}

impl<const D: usize, S: PageStore + Sync + Send> Lend for Lender<'_, '_, '_, '_, D, S> {
    fn lend(&self) {
        let mut s = self.pool.sched.lock();
        s.busy -= 1;
        if s.idle > 0 {
            self.pool.wake.notify_one();
            return;
        }
        s.spares += 1;
        drop(s);
        self.pool.start_worker(self.scope);
    }

    fn reclaim(&self) {
        self.pool.sched.lock().busy += 1;
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

    /// What one serve's participants share: blank slates, a commit
    /// cursor at frame 0, and the instruments.
    fn shared<'i>(&self, inserts: &'i [Vec<(NsiSegmentRecord<D>, f64)>]) -> Shared<'i, D> {
        Shared {
            inserts,
            commits: Mutex::default(),
            slates: (0..self.grid.len()).map(|_| RwLock::default()).collect(),
            drain_hist: self.histogram("service.drain_ns"),
            hold_hist: self.histogram("service.writer.lock_hold_ns"),
            wait_hist: self.histogram("service.clock_wait_ns"),
            writer_wait_hist: self.histogram("service.clock_wait_ns.writer"),
            session_wait_hist: self.histogram("service.clock_wait_ns.session"),
            lag_gauge: self.metrics.as_ref().map(|m| m.gauge("service.frame_lag")),
        }
    }

    /// The regions `plan`'s query sweeps: its session's lanes.
    fn lanes(&self, plan: &SessionPlan<D>) -> Range<usize> {
        self.grid.route_rect(&plan.spec.trajectory.swept_bounds())
    }

    /// Every region's clock at the start of a serve of `plans`: session
    /// `i` is attached to region `r` over its plan's window when its
    /// lanes reach `r`.
    fn clocks(&self, plans: &[SessionPlan<D>]) -> Vec<ClockState> {
        let windows = |r| -> Vec<_> { plans.iter().map(|p| p.window().filter(|_| self.lanes(p).contains(&r))).collect() };
        (0..self.grid.len()).map(|r| ClockState::new(&windows(r), 0)).collect()
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
        turn: Option<&dyn Lend>,
    ) -> bool {
        match op {
            Op::Build => run.enter(&self.grid, &self.regions),
            Op::Step(k) => run.step(&self.grid, &self.regions, &sh.slates, k as usize, &sh.drain_hist),
            Op::Sink(_) => sink.is_none_or(|sink| offer(i, run, sink, turn)),
            _ => unreachable!("{op:?} is no session's local op"),
        }
    }

    /// Every participant of a serve of `plans` as a task over `run`: the
    /// region writers, ascending, then each session with a frame to run
    /// (a plan whose schedule is empty keeps its idle output).
    fn tasks<'r, 'a>(&self, plans: &'a [SessionPlan<D>], run: &'r mut Run<'a, D>, batches: usize) -> Vec<Task<'r, 'a, D>> {
        let steps = run.steps;
        let writers = (0..).zip(&mut run.writers).map(|(r, w)| Task::Writer(WriterProgram::new(r, steps, batches), w, Vec::new()));
        let sessions = (0..).zip(plans.iter().zip(&mut run.sessions)).filter_map(|(i, (plan, lanes))| {
            Some(Task::Session(SessionProgram::new(i, plan.window()?, self.lanes(plan)), lanes))
        });
        writers.chain(sessions).collect()
    }

    /// Make `task`'s ops until it ends or `clock` declines a step; a
    /// session that ends here stamps its wall time. Returns whether it
    /// moved.
    fn run_task(
        &self,
        sh: &Shared<D>,
        task: &mut Task<'_, '_, D>,
        sinks: &[Option<&dyn FrameSink>],
        turn: Option<&dyn Lend>,
        clock: impl FnMut(usize, Step) -> bool,
    ) -> bool {
        match task {
            Task::Writer(program, w, routed) => {
                let r = program.r;
                make_ops(program, clock, |op| self.writer_op(sh, r, op, w, routed))
            }
            Task::Session(program, lanes) => {
                let (i, sink) = (program.i, sinks.get(program.i).copied().flatten());
                let moved = make_ops(program, clock, |op| self.session_op(sh, i, op, lanes, sink, turn));
                if moved && program.next() == Op::Done {
                    lanes.stamp();
                }
                moved
            }
        }
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

    /// The workers driver's serve: every participant a task on one
    /// ready queue, run by `workers` workers (at most one per task) —
    /// the calling thread and `workers - 1` threads of one scope, plus a
    /// spare for each sink that blocks while no worker is idle. Nothing
    /// global orders the tasks: each parks on, and is woken by, the
    /// clocks of its own regions only.
    pub(super) fn serve_tasks<'a>(
        &self,
        plans: &'a [SessionPlan<D>],
        inserts: &[Vec<(NsiSegmentRecord<D>, f64)>],
        sinks: &[Option<&dyn FrameSink>],
        workers: usize,
    ) -> Run<'a, D>
    where
        S: Sync + Send,
    {
        let mut run = self.begin_run(plans, inserts);
        let sh = &self.shared(inserts);
        let tasks = self.tasks(plans, &mut run, inserts.len());
        let workers = workers.clamp(1, tasks.len());
        let pool = Pool {
            server: self,
            sh,
            sinks,
            workers,
            sched: Mutex::new(Sched {
                clocks: self.clocks(plans),
                left: tasks.len(),
                ready: tasks.into(),
                parked: (0..self.grid.len()).map(|_| Vec::new()).collect(),
                held: 0,
                busy: 0,
                idle: 0,
                spares: 0,
                halt: None,
            }),
            wake: Condvar::new(),
        };
        std::thread::scope(|scope| {
            for _ in 1..workers {
                pool.start_worker(scope);
            }
            pool.work(scope);
        });
        let Sched { spares, halt, .. } = pool.sched.into_inner();
        match halt {
            Some(Halt::Panic(payload)) => resume_unwind(payload),
            Some(Halt::Stall(parked)) => panic!("lost wake or deadlock: {parked} programs parked, none ready"),
            None => {}
        }
        run.spawned = workers - 1 + spares;
        if let Some(reg) = &self.metrics {
            let deepest = sh.slates.iter().map(|s| s.read().hwm).max().unwrap_or(0);
            reg.gauge("service.mailbox_hwm").record_max(deepest as i64);
        }
        run.dur = *sh.commits.lock();
        run
    }

    /// The serial driver, the oracle [`Self::serve_plans_streamed`] must
    /// match bit for bit: the same tasks on one thread, in a fixed
    /// schedule — every writer, regions ascending, then every session,
    /// ascending, each making ops until its next is a wait its clock
    /// does not enable, round after round. The checker shows some op is
    /// always enabled until every program is done, so a round in which
    /// nobody moves ends the run. A sink's blocking hook just blocks.
    pub(super) fn serve_serial_clocked<'a>(
        &self,
        plans: &'a [SessionPlan<D>],
        inserts: &[Vec<(NsiSegmentRecord<D>, f64)>],
        sinks: &[Option<&dyn FrameSink>],
    ) -> Run<'a, D> {
        let mut run = self.begin_run(plans, inserts);
        let sh = self.shared(inserts);
        let mut clocks = self.clocks(plans);
        let mut tasks = self.tasks(plans, &mut run, inserts.len());
        let mut moved = true;
        while moved {
            moved = false;
            for task in &mut tasks {
                let clock = |r: usize, step| sh.step_clock(&mut clocks[r], r, step).is_some();
                moved |= self.run_task(&sh, task, sinks, None, clock);
            }
        }
        assert!(tasks.iter().all(|t| t.next() == Op::Done), "the serial schedule stalled");
        drop(tasks);
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
    use crate::service::{FrameReport, SessionKind, SessionOutput};
    use rtree::{RTree, RTreeConfig};
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::{Condvar as StdCondvar, Mutex as StdMutex};
    use stkit::Interval;
    use storage::{IoSnapshot, PageId, PageRef, Pager};

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
        // The writer's half of the broadcast: its program driven alone by
        // `make_ops` on this thread (so its trace ring is readable), over a
        // clock with every permit pre-granted: one InsertBroadcast per
        // non-empty batch, published once the batch's node work is over
        // and before `applied` moves, and the slate left holding the last
        // non-empty frame — exactly the reports those inserts produce,
        // whoever is attached.
        let server = build(RegionGrid::single(), &line_records(10));
        let plans: Vec<SessionPlan<2>> = [SessionKind::Pdq, SessionKind::Npdq, SessionKind::Pdq]
            .into_iter()
            .map(|kind| SessionPlan::new(slide_spec(kind, 4, 8.0)))
            .collect();
        let mut inserts = ahead_inserts(4, 3, 8.0, 3000);
        inserts[1].clear();
        inserts.push(Vec::new());
        let sh = server.shared(&inserts);
        let mut clock = server.clocks(&plans).remove(0);
        for i in 0..plans.len() {
            clock.apply(Step::Ack(i, u64::MAX));
        }
        obs::take_thread_trace();
        let (mut tally, mut routed) = (RegionReport::default(), Vec::new());
        let mut program = WriterProgram::new(0, inserts.len(), inserts.len());
        let step = |r, step| sh.step_clock(&mut clock, r, step).is_some();
        make_ops(&mut program, step, |op| server.writer_op(&sh, 0, op, &mut tally, &mut routed));
        assert_eq!(program.next(), Op::Done);
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
    fn a_serve_spawns_its_workers_and_nothing_else() {
        // The thread shape: whatever the session and region counts,
        // durable or not, a serve on w workers spawns w - 1 threads, w
        // capped at its participants (the writers and the plans with a
        // frame to run). The last plan's schedule is empty, so it is no
        // participant and keeps the default output.
        let recs = line_records(30);
        let inserts = ahead_inserts(10, 1, 30.0, 7000);
        let mut never = slide_spec(SessionKind::Pdq, 10, 30.0);
        never.frame_times.truncate(1);
        for sessions in 1..=8 {
            let mut plans: Vec<SessionPlan<2>> = (0..sessions)
                .map(|i| {
                    let kind = if i % 2 == 0 { SessionKind::Pdq } else { SessionKind::Npdq };
                    SessionPlan::new(slide_spec(kind, 10, 30.0))
                })
                .collect();
            plans.push(SessionPlan::new(never.clone()));
            for regions in 1..=4 {
                let cuts: Vec<f64> = (1..regions).map(|c| 30.0 * c as f64 / regions as f64).collect();
                let grid = RegionGrid::from_cuts(0, cuts);
                for workers in 1..=4 {
                    let expect = workers.min(sessions + regions) - 1;
                    let server = build(grid.clone(), &recs);
                    let run = server.serve_tasks(&plans, &inserts, &[], workers);
                    assert_eq!(run.spawned, expect, "{sessions} sessions, {regions} regions, {workers} workers");
                    let report = server.finish_run(run);
                    assert_eq!(report.base.sessions[sessions], SessionOutput::default());
                    let durable = build(grid.clone(), &recs).with_durability(Arc::new(DurableLog::new(3)));
                    assert_eq!(durable.serve_tasks(&plans, &inserts, &[], workers).spawned, expect);
                }
            }
        }
    }

    /// A page store that panics on every read of one page, once armed.
    struct Panicky {
        inner: Pager,
        victim: AtomicU32,
    }

    impl PageStore for Panicky {
        fn page_size(&self) -> usize {
            self.inner.page_size()
        }
        fn try_read_page(&self, id: PageId) -> Result<PageRef, StorageError> {
            assert!(id.0 != self.victim.load(Ordering::Relaxed), "injected panic reading {id}");
            self.inner.try_read_page(id)
        }
        fn write(&self, id: PageId, data: &[u8]) {
            self.inner.write(id, data)
        }
        fn try_alloc(&self) -> Result<PageId, StorageError> {
            self.inner.try_alloc()
        }
        fn io(&self) -> IoSnapshot {
            self.inner.io()
        }
    }

    /// Session 0's sink: detaches it at frame 5.
    struct DetachAt5;

    impl FrameSink for DetachAt5 {
        fn on_frame(&self, d: &FrameDelta<'_>) -> SinkVerdict {
            if d.frame == 5 { SinkVerdict::Detach } else { SinkVerdict::Continue }
        }
    }

    /// A sink that, at session `waiter`'s frame 1, blocks through the
    /// hook until session `other` has delivered its frame 1: the furthest
    /// it can get while the waiter holds back their shared regions.
    struct Await {
        waiter: usize,
        other: usize,
        seen: StdMutex<Option<usize>>,
        moved: StdCondvar,
        /// What session `other` had delivered when the waiter blocked and
        /// when it woke.
        at_wake: StdMutex<Option<(Option<usize>, Option<usize>)>>,
    }

    impl FrameSink for Await {
        fn on_frame(&self, d: &FrameDelta<'_>) -> SinkVerdict {
            if d.session == self.other {
                *self.seen.lock().unwrap() = Some(d.frame);
                self.moved.notify_all();
            } else if d.session == self.waiter && d.frame == 1 {
                let before = *self.seen.lock().unwrap();
                let after = d.block_in_place(|| {
                    let seen = self.seen.lock().unwrap();
                    let bound = std::time::Duration::from_secs(20);
                    *self.moved.wait_timeout_while(seen, bound, |s| *s != Some(1)).unwrap().0
                });
                *self.at_wake.lock().unwrap() = Some((before, after));
            }
            SinkVerdict::Continue
        }
    }

    /// The page of the leaf that holds `ids`.
    fn leaf_of<S: PageStore>(tree: &RTree<R, S>, ids: (u32, u32)) -> PageId {
        let mut stack = vec![(tree.root_page(), tree.height() - 1)];
        while let Some((page, level)) = stack.pop() {
            let node = tree.try_read_node(page, level).unwrap();
            if !node.is_leaf() {
                stack.extend(node.internal_entries().map(|(_, child)| (child, level - 1)));
            } else if node.leaf_records().any(|r| r.ids() == ids) {
                return page;
            }
        }
        panic!("{ids:?} is in no leaf");
    }

    /// What of a session's output both drivers must agree on bit for
    /// bit: everything but its wall times.
    fn settled(o: &SessionOutput) -> SessionOutput {
        let frames = o.frames.iter().map(|f| FrameReport { latency_ns: 0, ..f.clone() }).collect();
        SessionOutput { frames, wall_ns: 0, ..o.clone() }
    }

    #[test]
    fn workers_equal_the_serial_schedule_at_one_two_and_three_workers() {
        // Two grids; a mid-run joiner; a session whose lane panics on a
        // page read mid-run; a sink that detaches its session; and, at one
        // worker, a sink that blocks through the hook until another
        // session moves — which only a spare worker can let happen.
        let recs = line_records(40);
        // Inserts land at x < 24, where sessions 0-3 sweep.
        let inserts: Vec<Vec<(R, f64)>> = (0..12u32)
            .map(|k| {
                let t = 22.0 * f64::from(k) / 12.0;
                (0..2)
                    .map(|j| {
                        let x = (t + 4.0 + f64::from(j)) % 24.0;
                        (R::new(9000 + 2 * k + j, 0, Interval::new(t, 100.0), [x, 0.5], [x, 0.5]), t)
                    })
                    .collect()
            })
            .collect();
        let mut plans: Vec<SessionPlan<2>> = [SessionKind::Pdq, SessionKind::Npdq, SessionKind::Pdq, SessionKind::Npdq]
            .into_iter()
            .map(|kind| SessionPlan::new(slide_spec(kind, 12, 22.0)))
            .collect();
        plans[1].join_frame = 4;
        // Session 4 sweeps x in [30, 41] alone, and mid-run reaches the
        // leaf that holds record 39, whose every read panics.
        let mut far = slide_spec(SessionKind::Pdq, 12, 40.0);
        far.trajectory = crate::Trajectory::linear(
            stkit::Rect::from_corners([30.0, 0.0], [31.0, 1.0]),
            [0.25, 0.0],
            Interval::new(0.0, 40.0),
            2,
        );
        plans.push(SessionPlan::new(far));
        let server = |grid: &RegionGrid| {
            let server = PartitionedDqServer::build(grid.clone(), &recs, |_| {
                let store = Panicky { inner: Pager::with_page_size(256), victim: AtomicU32::new(u32::MAX) };
                RTree::new(store, RTreeConfig::default())
            });
            let region = server.grid().route_rect(&recs[39].seg.spatial_bbox()).start;
            server.with_region_tree(region, |t| t.store().victim.store(leaf_of(t, recs[39].ids()).0, Ordering::Relaxed));
            server
        };
        let detach = DetachAt5;
        let sinks: [Option<&dyn FrameSink>; 1] = [Some(&detach)];
        for grid in [RegionGrid::single(), RegionGrid::from_cuts(0, vec![12.0, 25.0])] {
            let serial = server(&grid).serve_serial_clocked(&plans, &inserts, &sinks);
            let serial = server(&grid).finish_run(serial);
            assert!(serial.base.writer_outcome.is_ok());
            assert!(matches!(&serial.base.sessions[0].outcome, SessionOutcome::Failed(m) if m.contains("detached")));
            assert!(matches!(&serial.base.sessions[4].outcome, SessionOutcome::Failed(m) if m.contains("injected panic")));
            assert!(serial.base.sessions[4].frames.len() > 2, "the lane fails mid-run");
            let expect: Vec<_> = serial.base.sessions.iter().map(settled).collect();
            for workers in 1..=3 {
                let s = server(&grid);
                let run = s.serve_tasks(&plans, &inserts, &sinks, workers);
                assert_eq!(run.spawned, workers - 1, "no sink blocked");
                let got: Vec<_> = s.finish_run(run).base.sessions.iter().map(settled).collect();
                assert_eq!(got, expect, "{workers} workers, {} regions", grid.len());
            }
            // One worker: session 2 waits in its frame 1's sink for session
            // 3's frame 1, which only a spare can run; no output changes.
            let wait = Await {
                waiter: 2,
                other: 3,
                seen: StdMutex::new(None),
                moved: StdCondvar::new(),
                at_wake: StdMutex::new(None),
            };
            let sinks: [Option<&dyn FrameSink>; 4] = [Some(&detach), None, Some(&wait), Some(&wait)];
            let s = server(&grid);
            let run = s.serve_tasks(&plans, &inserts, &sinks, 1);
            assert_eq!(run.spawned, 1, "the blocked sink's turn went to one spare");
            let got: Vec<_> = s.finish_run(run).base.sessions.iter().map(settled).collect();
            assert_eq!(*wait.at_wake.lock().unwrap(), Some((Some(0), Some(1))), "session 3 moved only while session 2 waited");
            assert_eq!(got, expect, "one worker and a blocking sink, {} regions", grid.len());
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
