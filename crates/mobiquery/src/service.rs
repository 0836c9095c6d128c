//! The serving vocabulary: what a client asks for and what a run reports.
//!
//! The paper's system picture (§2, Fig. 1) is a *server* evaluating many
//! clients' dynamic queries against a shared index while updates keep
//! arriving. The server itself is [`crate::PartitionedDqServer`] (one
//! region is the single-tree case); this module holds the types both
//! sides of it speak: a client's query and lifecycle ([`SessionSpec`],
//! [`SessionPlan`], [`SessionKind`]), what a run hands back
//! ([`ServeReport`], [`SessionOutput`], [`FrameReport`],
//! [`SessionOutcome`]), the per-frame streaming hook a network front
//! door attaches ([`FrameSink`], [`FrameDelta`], [`SinkVerdict`]), and
//! [`NsiReport`], what a region's writer leaves for the PDQ lanes on its
//! region after each frame's inserts (the §4.1 update-management
//! protocol).

use crate::stats::QueryStats;
use crate::trajectory::Trajectory;
use rtree::{InsertReport, NsiSegmentRecord, Record};
use storage::StorageError;

/// The insert report a region's writer publishes for PDQ sessions.
pub type NsiReport<const D: usize> =
    InsertReport<<NsiSegmentRecord<D> as Record>::Key, NsiSegmentRecord<D>>;

/// Which §4 algorithm a session runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionKind {
    /// Predictive: trajectory known ahead, one tree traversal (§4.1).
    Pdq,
    /// Non-predictive: a snapshot query at each frame time, delivering
    /// what is newly visible — every object the query at `t_k` matches
    /// that the query at `t_{k-1}` did not, each over the records
    /// resident at its frame. Served by §4.2's [`crate::NpdqEngine`],
    /// one per region the session's lanes cover, told the ids the
    /// region's writer inserted as `maybe_new`.
    Npdq,
}

/// One client's dynamic query: the trajectory it follows and the frame
/// times at which it asks for results.
#[derive(Clone, Debug)]
pub struct SessionSpec<const D: usize> {
    /// Algorithm to serve this session with.
    pub kind: SessionKind,
    /// The moving window.
    pub trajectory: Trajectory<D>,
    /// Monotone frame schedule. A PDQ session drains the window between
    /// consecutive times; an NPDQ session evaluates a snapshot at each.
    pub frame_times: Vec<f64>,
}

impl<const D: usize> SessionSpec<D> {
    /// Frame steps this session needs.
    pub(crate) fn steps(&self) -> usize {
        match self.kind {
            SessionKind::Pdq => self.frame_times.len().saturating_sub(1),
            SessionKind::Npdq => self.frame_times.len(),
        }
    }
}

/// One session's lifecycle over a run: the query itself plus *when* it
/// runs — independent frame clocks let sessions join mid-run, so that
/// knob lives here rather than on [`SessionSpec`].
#[derive(Clone, Debug)]
pub struct SessionPlan<const D: usize> {
    /// The query and frame schedule.
    pub spec: SessionSpec<D>,
    /// First global frame this session processes. A joiner sees the tree
    /// exactly as of its join frame (all earlier batches applied, its
    /// join frame's batch not yet) and consumes frames `join_frame..`
    /// of its schedule — `frame_times` stay globally indexed.
    pub join_frame: usize,
}

impl<const D: usize> From<SessionSpec<D>> for SessionPlan<D> {
    fn from(spec: SessionSpec<D>) -> Self {
        SessionPlan::new(spec)
    }
}

impl<const D: usize> SessionPlan<D> {
    /// A plan that joins at frame 0.
    pub fn new(spec: SessionSpec<D>) -> Self {
        SessionPlan { spec, join_frame: 0 }
    }

    /// Join mid-run at global frame `frame` (builder-style).
    pub fn join_at(mut self, frame: usize) -> Self {
        self.join_frame = frame;
        self
    }

    /// The inclusive global-frame window this plan consumes, or `None`
    /// when it never runs (empty schedule, or joined after its schedule
    /// already ended).
    pub(crate) fn window(&self) -> Option<(u64, u64)> {
        let steps = self.spec.steps();
        (self.join_frame < steps).then(|| (self.join_frame as u64, steps as u64 - 1))
    }
}

/// One frame of one session, as observed while serving: what arrived and
/// what it cost. The per-run stream of these is the serving path's
/// flight recorder — `Σ frames.stats == session.stats` by construction.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FrameReport {
    /// Global frame step index.
    pub frame: usize,
    /// Objects delivered this frame.
    pub results: usize,
    /// Wall-clock time this session spent processing the frame.
    pub latency_ns: u64,
    /// Query cost incurred this frame alone.
    pub stats: QueryStats,
}

/// How one session (or the writer) fared over a run.
///
/// A serving process must not let one flaky device read — or one corrupt
/// page — take down every client. The outcome records, per participant,
/// whether the run was clean, merely degraded (storage errors surfaced
/// but the engine's self-healing kept it serving), or failed outright
/// (the session's engine panicked and was contained).
#[derive(Clone, Debug, Default, PartialEq)]
pub enum SessionOutcome {
    /// Every frame completed without a storage error.
    #[default]
    Ok,
    /// Storage errors surfaced but the session kept serving; `errors`
    /// holds them in occurrence order.
    Degraded {
        /// Every storage error this participant observed.
        errors: Vec<StorageError>,
    },
    /// The session died mid-run; the payload is the panic message. Its
    /// results up to the failure are retained, it detaches from its
    /// frame clocks (no writer ever waits on it again), and the rest of
    /// the run proceeds normally.
    Failed(String),
}

impl SessionOutcome {
    /// True iff the run was entirely clean.
    pub fn is_ok(&self) -> bool {
        matches!(self, SessionOutcome::Ok)
    }

    /// Errors observed (empty for `Ok` and `Failed`).
    pub fn errors(&self) -> &[StorageError] {
        match self {
            SessionOutcome::Degraded { errors } => errors,
            _ => &[],
        }
    }

    pub(crate) fn record_error(&mut self, e: StorageError) {
        match self {
            SessionOutcome::Ok => *self = SessionOutcome::Degraded { errors: vec![e] },
            SessionOutcome::Degraded { errors } => errors.push(e),
            SessionOutcome::Failed(_) => {}
        }
    }
}

/// Extract a printable message from a caught panic payload.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What one session produced over the whole run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SessionOutput {
    /// `(oid, seq)` of every delivered object, in delivery order —
    /// deterministic for both engines, so runs are comparable exactly.
    pub results: Vec<(u32, u32)>,
    /// Accumulated query cost.
    pub stats: QueryStats,
    /// Per-frame reports, one per frame this session's schedule covered
    /// (sessions with short schedules stop reporting when they finish).
    pub frames: Vec<FrameReport>,
    /// PDQ only: deepest the priority queue ever got (0 for NPDQ).
    pub queue_hwm: usize,
    /// Wall-clock nanoseconds from this session's engine start to its
    /// last frame — under independent clocks, sessions finish at their
    /// own pace (0 when the session never ran).
    pub wall_ns: u64,
    /// Whether the session finished clean, degraded, or failed.
    pub outcome: SessionOutcome,
}

/// A run viewed as a single server: every session's output plus the
/// writer and durability tallies summed over regions.
#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    /// Per-session outputs, in spec order.
    pub sessions: Vec<SessionOutput>,
    /// Global frame steps executed.
    pub frames: usize,
    /// Records the writer inserted.
    pub inserts_applied: usize,
    /// Node reads the writer performed inside its write sections. Exact:
    /// the clock's flow control keeps every attached session out of the
    /// tree while the writer holds the lock (a session reading frame `k`
    /// withholds the permit for batch `k + 1`), so the tree's
    /// level-counter delta over the write section is attributable to the
    /// writer alone.
    pub writer_reads: u64,
    /// Node writes the writer performed inside its write sections.
    pub writer_writes: u64,
    /// Whether the writer applied every batch clean. Degraded means some
    /// records were dropped after their storage errors exhausted the
    /// retry budget (or were unrecoverable, e.g. a corrupt page on the
    /// descent path). Failed means the device filled up
    /// ([`StorageError::Full`]): the writer stopped applying — a full
    /// disk stays full — though with durability enabled every batch is
    /// still WAL-committed and recoverable onto a larger device.
    pub writer_outcome: SessionOutcome,
    /// Frame batches group-committed to the WAL (0 without durability).
    pub wal_appends: u64,
    /// Wall-clock nanoseconds the writer spent in WAL group commits.
    pub wal_commit_ns: u64,
    /// Checkpoints the writer installed during the run (not counting the
    /// initial checkpoint taken before the first frame).
    pub checkpoints: u64,
}

impl ServeReport {
    /// Aggregate cost over all sessions.
    pub fn total_stats(&self) -> QueryStats {
        let mut total = QueryStats::default();
        for s in &self.sessions {
            total += s.stats;
        }
        total
    }

    /// Total objects delivered across sessions.
    pub fn total_results(&self) -> usize {
        self.sessions.iter().map(|s| s.results.len()).sum()
    }

    /// The run's frame timeline: every session's [`FrameReport`]s merged
    /// and ordered by `(frame, session)` — what happened, frame by frame,
    /// across the whole server. Each entry is `(session index, report)`.
    pub fn timeline(&self) -> Vec<(usize, &FrameReport)> {
        let mut out: Vec<(usize, &FrameReport)> = self
            .sessions
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.frames.iter().map(move |f| (i, f)))
            .collect();
        out.sort_by_key(|&(i, f)| (f.frame, i));
        out
    }

    /// Total node reads the run performed (sessions plus writer) — the
    /// quantity that must reconcile with the tree's level counters and
    /// the buffer pool's hit+miss total.
    pub fn total_reads(&self) -> u64 {
        self.total_stats().disk_accesses + self.writer_reads
    }
}

/// One frame's freshly delivered results for one session, handed to a
/// [`FrameSink`] the moment the session finishes the frame — before the
/// session acks the frame to its clocks, so a sink that says
/// [`SinkVerdict::Detach`] stops the session without it ever granting
/// the next batch's permit.
///
/// `results` is the suffix of the session's result stream this frame
/// appended (deterministic, so streamed deltas concatenate to exactly
/// the [`SessionOutput::results`] a non-streamed run reports). Frames a
/// degraded step produced are delivered too: results emitted before a
/// storage fault are valid and final.
#[derive(Clone, Copy, Debug)]
pub struct FrameDelta<'a> {
    /// Session index within the run (spec/plan order).
    pub session: usize,
    /// Global frame step index.
    pub frame: usize,
    /// `(oid, seq)` of the objects this frame delivered, in order.
    pub results: &'a [(u32, u32)],
    /// Wall-clock time the session spent processing the frame.
    pub latency_ns: u64,
    /// The serving worker's turn, which [`Self::block_in_place`] lends
    /// out (none on the serial driver).
    pub(crate) turn: Option<&'a dyn Lend>,
}

impl FrameDelta<'_> {
    /// Run `f`, which may block (a full outbox, a peer's progress),
    /// without holding back the rest of the serve: while `f` runs, the
    /// session's worker hands its turn on a CPU to a spare worker, and
    /// takes it back when `f` returns. A sink that may wait calls its
    /// wait through this; one that waits outside it occupies a worker,
    /// and with one worker stalls the whole serve for as long. On the
    /// serial driver this just runs `f`.
    pub fn block_in_place<T>(&self, f: impl FnOnce() -> T) -> T {
        /// Takes the turn back however `f` ends.
        struct Reclaim<'a>(&'a dyn Lend);
        impl Drop for Reclaim<'_> {
            fn drop(&mut self) {
                self.0.reclaim();
            }
        }
        let Some(turn) = self.turn else { return f() };
        turn.lend();
        let _back = Reclaim(turn);
        f()
    }
}

/// A serving worker's turn on a CPU, as a blocking sink sees it.
pub(crate) trait Lend: Sync {
    /// Hand the caller's turn to another worker while it blocks.
    fn lend(&self);
    /// Take a turn again once the block is over.
    fn reclaim(&self);
}

impl std::fmt::Debug for dyn Lend + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Lend")
    }
}

/// What a [`FrameSink`] wants done with its session after a delta.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SinkVerdict {
    /// Keep serving the session.
    Continue,
    /// Stop the session now: it records
    /// [`SessionOutcome::Failed`]`("detached by frame sink")`, keeps its
    /// results so far, and detaches from its frame clocks exactly like a
    /// mid-run failure — no writer ever waits on it again.
    Detach,
}

/// Per-frame consumer of one session's results, called from whichever
/// worker runs that session (hence `Sync`): the hook a network front
/// door uses to stream deltas to a remote client, and to evict the
/// session (slow reader, dead socket) without touching the serving core.
/// A sink that panics fails its own session and nobody else's: the
/// session records [`SessionOutcome::Failed`]`("frame sink panicked: …")`
/// and leaves the run exactly as on [`SinkVerdict::Detach`].
pub trait FrameSink: Sync {
    /// Consume one frame's delta; the verdict decides whether the
    /// session keeps running.
    fn on_frame(&self, delta: &FrameDelta<'_>) -> SinkVerdict;
}

