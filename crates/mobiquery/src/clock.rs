//! Per-region frame clocks: the watermark protocol that orders a
//! region's writer against the sessions reading it.
//!
//! There is no global rendezvous on the serving path. Each region has a
//! [`FrameClock`]: one monotonic watermark plus per-session consumption
//! cursors, so a slow session holds back only the regions its query
//! touches, and a failed session simply detaches.
//!
//! * `applied` — frames the region's writer is done with. A session
//!   reads frame `k` only once `applied >= k + 1`, and only on the
//!   clocks of the regions its query touches.
//! * `acks[i]` — session `i` permits this region's writer to apply
//!   batches `< acks[i]`: it has finished reading frame `acks[i] - 2`,
//!   or, at its join frame, building its engines against the pre-batch
//!   tree. A not-yet-joined session's frontier already sits at its join
//!   frame, so it never gates earlier batches.
//!
//! Durability is not the clock's business: a durable serve's writer
//! commits the log through frame `k` before it even routes its slice
//! of batch `k` (`router/participants.rs`), so commit-before-apply is
//! statement order, not a rule here.
//!
//! The rules are one value, `ClockState`: `enabled` says when a wait
//! may return, `apply` what a mutation changes and which condvars it
//! must wake. [`FrameClock`] is a mutex and two condvars around it, and
//! every wait is one loop, `while !state.enabled(step) { cv.wait }`.
//! There is no multi-version store, so a reader can never see a
//! previous tree; what the serve relies on instead, per region, is
//! checked by the tests below over every interleaving of small scopes:
//! (i) a session reading frame `k` (building at its join frame `f`)
//! sees exactly the batches `<= k` (`< f`) applied, as the serial
//! oracle does, so the one-slot slate holds frame `k` or an older one;
//! (ii) until every participant is done, some step is enabled; (iii) a
//! mutation wakes every condvar whose waiter it enables.
//!
//! `applied` is not ordered against the acks: a writer whose slice of a
//! batch is empty, or which has failed, advances `applied` without
//! waiting, so it can run frames ahead of a reader — harmless, as the
//! tree does not change.
//!
//! Wake-ups are targeted. The writer waits on its own condvar
//! (`wait_ready`), the sessions on the other (`wait_applied`).
//! `advance_applied` wakes the sessions, and an `ack` the writer only
//! when it raises the slowest live attached frontier — no other ack can
//! complete `wait_ready`. `detach` changes who counts, so it wakes both.

use parking_lot::{Condvar, Mutex, MutexGuard};
use std::sync::Arc;
use std::time::Instant;

/// Kept only as [`FrameClock::new`]'s argument: whether a session is
/// still attached is each clock's own state, ended by
/// [`FrameClock::detach`].
#[derive(Debug)]
pub struct SessionLiveness(());

impl SessionLiveness {
    /// A token for `n` sessions; it carries nothing.
    pub fn new(_n: usize) -> Arc<SessionLiveness> {
        Arc::new(SessionLiveness(()))
    }
}

/// A step of a clock's participants: a wait (`Await*`) or a mutation.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Writer: *every* live attached session has acked batch `k`. A
    /// session before its join frame passes vacuously (its frontier
    /// starts there), a finished one detaches. Not window-scoped: a
    /// writer skips this wait for frames that route nothing to its
    /// region, so "consult sessions whose window holds `k`" would let its
    /// next non-empty batch, past a slow session's window, land while
    /// that session still reads its last frame.
    AwaitReady(u64),
    /// Session: frames `0..n` are applied.
    AwaitApplied(u64),
    /// Writer: frames `0..n` are applied.
    Advance(u64),
    /// Session `i` permits batches `< upto`.
    Ack(usize, u64),
    /// Session `i` is done with the region.
    Detach(usize),
}

/// The condvars a mutation must notify.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Wake {
    None,
    Writer,
    Readers,
    Both,
}

/// One region's clock rules as a value.
#[derive(Clone, Debug)]
struct ClockState {
    applied: u64,
    acks: Vec<u64>,
    /// `live[i]`: session `i` has a window on this region and has not
    /// detached.
    live: Vec<bool>,
}

impl ClockState {
    /// Whether `step` may happen now: a wait's condition; a mutation
    /// always may.
    fn enabled(&self, step: Step) -> bool {
        match step {
            Step::AwaitReady(k) => self.slowest() > k,
            Step::AwaitApplied(n) => self.applied >= n,
            Step::Advance(_) | Step::Ack(..) | Step::Detach(_) => true,
        }
    }

    /// Make `step` (a wait changes nothing) and say whom it wakes.
    fn apply(&mut self, step: Step) -> Wake {
        match step {
            Step::Advance(n) => {
                debug_assert!(n >= self.applied, "applied is monotone");
                self.applied = n;
                Wake::Readers
            }
            Step::Ack(i, upto) => {
                let slowest = self.slowest();
                self.acks[i] = self.acks[i].max(upto);
                if self.slowest() > slowest { Wake::Writer } else { Wake::None }
            }
            Step::Detach(i) => {
                self.live[i] = false;
                Wake::Both
            }
            Step::AwaitReady(_) | Step::AwaitApplied(_) => Wake::None,
        }
    }

    /// The slowest live attached session's ack frontier (`u64::MAX` when
    /// none is attached): only its rise can enable `AwaitReady`.
    fn slowest(&self) -> u64 {
        self.acks.iter().zip(&self.live).filter(|(_, &live)| live).map(|(&a, _)| a).min().unwrap_or(u64::MAX)
    }
}

/// One region's frame clock. See the module docs for the protocol.
pub struct FrameClock {
    state: Mutex<ClockState>,
    /// The region's writer waits here, on the acks.
    writer_cv: Condvar,
    /// The sessions reading the region wait here, on `applied`.
    reader_cv: Condvar,
}

impl FrameClock {
    /// A clock whose `applied` watermark starts at global frame
    /// `start`: the tree already contains every batch `< start` (a serve
    /// starts its clocks at 0). `windows[i] = Some((first, last))` is
    /// the inclusive global-frame range session `i` consumes on this
    /// region (`None`: never). Each attached session's ack frontier
    /// starts at its window start: the writer is blocked from the
    /// session's first frame until the session has built its engines
    /// against the pre-batch tree. `_live` and `_durable` are read by
    /// nothing; the signature keeps them for `benchmarks/dqbench`.
    pub fn new(windows: Vec<Option<(u64, u64)>>, _live: Arc<SessionLiveness>, start: u64, _durable: bool) -> FrameClock {
        FrameClock {
            state: Mutex::new(ClockState {
                applied: start,
                acks: windows.iter().map(|w| w.map_or(u64::MAX, |(first, _)| first.max(start))).collect(),
                live: windows.iter().map(Option::is_some).collect(),
            }),
            writer_cv: Condvar::new(),
            reader_cv: Condvar::new(),
        }
    }

    /// Region writer: frames `0..n` are now done. Returns the region's
    /// *frame lag* — how many frames the tree is ahead of its slowest
    /// live attached consumer (0 when none is attached), the quantity
    /// the `frame_lag` gauge publishes.
    pub fn advance_applied(&self, n: u64) -> u64 {
        let state = self.apply(Step::Advance(n));
        n.saturating_sub(state.slowest().saturating_sub(1))
    }

    /// Session: block until `applied >= n` — `wait_applied(k + 1)` to
    /// read frame `k`, `wait_applied(j)` to see the pre-join tree state.
    /// Returns nanoseconds spent waiting.
    pub fn wait_applied(&self, n: u64) -> u64 {
        self.wait_until(&self.reader_cv, Step::AwaitApplied(n))
    }

    /// Session `i`: permit this region's writer to apply batches `< upto`.
    /// Called with `first + 1` once the session's engines exist, then
    /// `k + 2` after each consumed frame `k`.
    pub fn ack(&self, i: usize, upto: u64) {
        self.apply(Step::Ack(i, upto));
    }

    /// Session `i` is done with this region — it failed, or its schedule
    /// ended: the writer stops waiting on it, immediately. Idempotent.
    pub fn detach(&self, i: usize) {
        self.apply(Step::Detach(i));
    }

    /// Region writer: block until every live attached session has acked
    /// batch `k` (`Step::AwaitReady` has the rule). Returns
    /// nanoseconds spent waiting.
    pub fn wait_ready(&self, k: u64) -> u64 {
        self.wait_until(&self.writer_cv, Step::AwaitReady(k))
    }

    /// Make the mutation `step`, notify whom it wakes, and hand the
    /// still-held state back.
    fn apply(&self, step: Step) -> MutexGuard<'_, ClockState> {
        let mut state = self.state.lock();
        let wake = state.apply(step);
        if matches!(wake, Wake::Writer | Wake::Both) {
            self.writer_cv.notify_all();
        }
        if matches!(wake, Wake::Readers | Wake::Both) {
            self.reader_cv.notify_all();
        }
        state
    }

    /// The one wait: park on `cv` until `step` is enabled. Returns
    /// nanoseconds spent waiting; the fast path reads no clock.
    fn wait_until(&self, cv: &Condvar, step: Step) -> u64 {
        let mut state = self.state.lock();
        if state.enabled(step) {
            return 0;
        }
        let started = Instant::now();
        while !state.enabled(step) {
            cv.wait(&mut state);
        }
        started.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::mpsc::{channel, RecvTimeoutError};
    use std::time::Duration;

    fn clock(windows: Vec<Option<(u64, u64)>>) -> FrameClock {
        let n = windows.len();
        FrameClock::new(windows, SessionLiveness::new(n), 0, false)
    }

    fn applied(clock: &FrameClock) -> u64 {
        clock.state.lock().applied
    }

    /// Run `body` on a thread of its own and fail the calling test if it
    /// has not finished within ten seconds: a lost wake parks a thread
    /// for ever, and this names the test instead of hanging the suite.
    fn bounded(body: impl FnOnce() + Send + 'static) {
        const BOUND: Duration = Duration::from_secs(10);
        let (done, finished) = channel();
        let worker = std::thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        match finished.recv_timeout(BOUND) {
            Ok(()) => worker.join().expect("body finished"),
            Err(RecvTimeoutError::Disconnected) => std::panic::resume_unwind(worker.join().unwrap_err()),
            Err(RecvTimeoutError::Timeout) => panic!("no progress within {BOUND:?}: a lost wake?"),
        }
    }

    #[test]
    fn writer_blocks_until_session_acks_then_session_blocks_on_applied() {
        bounded(|| {
            let clock = clock(vec![Some((0, 4))]);
            std::thread::scope(|scope| {
                let writer = scope.spawn(|| {
                    for k in 0..5u64 {
                        clock.wait_ready(k);
                        clock.advance_applied(k + 1);
                    }
                });
                // Engine creation handshake, then the frame loop.
                clock.ack(0, 1);
                for k in 0..5u64 {
                    clock.wait_applied(k + 1);
                    let applied = applied(&clock);
                    // Every batch is non-empty here, so the writer is at
                    // most one frame ahead.
                    assert!(applied > k && applied <= k + 2, "applied {applied} at frame {k}");
                    clock.ack(0, k + 2);
                }
                writer.join().unwrap();
            });
            assert_eq!(applied(&clock), 5);
        });
    }

    #[test]
    fn detached_session_releases_the_writer() {
        bounded(|| {
            let clock = clock(vec![Some((0, 9)), Some((0, 9))]);
            clock.ack(0, 1);
            // Session 1 never acks — it "fails" instead.
            std::thread::scope(|scope| {
                let writer = scope.spawn(|| clock.wait_ready(0));
                std::thread::sleep(Duration::from_millis(20));
                clock.detach(1);
                writer.join().unwrap();
            });
            assert!(clock.wait_ready(0) == 0, "detach is permanent");
        });
    }

    #[test]
    fn join_frontier_scopes_the_writer_wait() {
        bounded(|| {
            // Session joins at frame 3: its ack frontier starts there, so
            // batches 0..3 need no permit.
            let clock = clock(vec![Some((3, 6))]);
            assert_eq!(clock.wait_ready(0), 0);
            assert_eq!(clock.wait_ready(2), 0);
            std::thread::scope(|scope| {
                let writer = scope.spawn(|| {
                    for k in 0..3 {
                        clock.wait_ready(k);
                        clock.advance_applied(k + 1);
                    }
                    clock.wait_ready(3); // blocked on the joiner's handshake
                    clock.advance_applied(4);
                });
                // The joiner sees exactly the pre-join state: applied == 3.
                clock.wait_applied(3);
                assert_eq!(applied(&clock), 3);
                clock.ack(0, 4);
                writer.join().unwrap();
            });
        });
    }

    #[test]
    fn frame_lag_tracks_slowest_live_consumer() {
        bounded(|| {
            let clock = clock(vec![Some((0, 9)), Some((0, 9))]);
            clock.ack(0, 1);
            clock.ack(1, 1);
            assert_eq!(clock.advance_applied(1), 1, "one frame ahead of both");
            clock.ack(0, 3); // session 0 consumed frame 1
            assert_eq!(clock.advance_applied(2), 2, "session 1 is 2 behind");
            clock.detach(1);
            assert_eq!(clock.advance_applied(3), 1, "dead sessions don't lag");
        });
    }

    // ---- The rule table over every interleaving ----
    //
    // A model of one region's participants as `router/participants.rs`
    // runs them, each a program over `ClockState` steps and local ones:
    //
    // * writer: per frame `k`, if its slice is non-empty and it has not
    //   failed, await ready and apply — or fail there, the batch
    //   half-written, and stop applying; then advance `k + 1`. Its
    //   commit of the log through `k`, first in its frame, reads and
    //   writes no clock state, so the model leaves it out;
    // * a session joining at `f`: await applied `f`, build, ack `f + 1`;
    //   per frame `k`, await applied `k + 1`, read, ack `k + 2`; then
    //   detach. Instead of a build or a read it may bail (engines dead,
    //   evicted, its sink panicked) and go to the detach; bailing before
    //   an ack reaches the same states, as the read between is local.
    //
    // The model makes the scope's free choices as it runs: which slices
    // are empty (the writer, on reaching the frame) and each session's
    // last frame (after each ack). Nothing depends on a choice before it
    // is made, so this covers every set of empty slices and every
    // window. A depth-first search with state hashing visits every
    // reachable state and checks, in each:
    //   (i)   a read of frame `k` (a build at `f`) sees exactly the tree
    //         the writer leaves after frame `k` (before `f`);
    //   (ii)  until everyone is done, some step is enabled;
    //   (iii) a step that enables a parked participant's wait returns a
    //         `Wake` that reaches its condvar.
    //
    // One reduction keeps it small: no step lowers `applied` or the
    // slowest frontier (checked on every step), so a wait that can
    // return stays so and is taken at once.

    /// A multiplicative hash for the search's `u64` keys: the std
    /// default is many times slower in a debug build.
    #[derive(Default)]
    struct KeyHasher(u64);

    impl std::hash::Hasher for KeyHasher {
        fn write(&mut self, _: &[u8]) {
            unreachable!("keys are u64")
        }
        fn write_u64(&mut self, v: u64) {
            self.0 = v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        fn finish(&self) -> u64 {
            self.0 ^ self.0 >> 32
        }
    }

    type Seen = HashSet<u64, std::hash::BuildHasherDefault<KeyHasher>>;

    /// A session's place after bailing or its last ack, and when done.
    const LEAVE: u8 = 15;
    const DONE: u8 = 16;

    /// A participant's next operation: a clock step or a local one.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Clock(Step),
        /// Writer: pick whether frame `k`'s slice is empty.
        Slice(u64),
        Apply(u64),
        Build(u64),
        Read(u64),
        Done,
    }

    #[derive(Clone, Copy, Debug)]
    enum Who {
        Writer,
        Session(usize),
    }

    /// A step of the search: who moved, doing what, which way.
    type Label = (Who, Op, Choice);

    /// Which way a step went, where a participant had a choice.
    #[derive(Clone, Copy, Debug)]
    enum Choice {
        Step,
        EmptySlice,
        Fail,
        Bail,
        Last,
    }

    #[derive(Clone)]
    struct World {
        clock: ClockState,
        /// Per session: `0..3` join (await, build, ack), `3 * (k + 1) +
        /// 0..3` frame `k` (await, read, ack), then `LEAVE`, `DONE`.
        sessions: [u8; 3],
        /// Writer: its frame, and its place in it (0 slice, 1 await
        /// ready, 2 apply, 3 advance).
        writer: (u64, u8),
        /// The frame whose apply failed the writer.
        failed: Option<u64>,
        /// The writer's non-empty slices so far (bit `k`).
        slices: u8,
        /// Batches written to the tree (bit `k`), a failed one included.
        tree: u8,
    }

    /// One scope: the frames and up to three sessions' join frames
    /// (`None`: never joins).
    struct Scope {
        frames: u64,
        joins: Vec<Option<u64>>,
        who: Vec<Who>,
    }

    impl Scope {
        fn new(frames: u64, joins: Vec<Option<u64>>) -> Scope {
            let who = std::iter::once(Who::Writer).chain((0..joins.len()).map(Who::Session)).collect();
            Scope { frames, joins, who }
        }

        fn start(&self) -> World {
            let windows = self.joins.iter().map(|j| j.map(|f| (f, self.frames - 1))).collect();
            let mut sessions = [DONE; 3];
            for (pc, j) in sessions.iter_mut().zip(&self.joins) {
                *pc = if j.is_some() { 0 } else { DONE };
            }
            let clock = clock(windows).state.into_inner();
            World { clock, sessions, writer: (0, 0), failed: None, slices: 0, tree: 0 }
        }

        fn op(&self, w: &World, who: Who) -> Op {
            match who {
                Who::Writer => match w.writer {
                    (k, _) if k == self.frames => Op::Done,
                    (k, 0) if w.failed.is_none() => Op::Slice(k),
                    (k, 1) => Op::Clock(Step::AwaitReady(k)),
                    (k, 2) => Op::Apply(k),
                    (k, _) => Op::Clock(Step::Advance(k + 1)),
                },
                Who::Session(i) => {
                    let (f, pc) = (self.joins[i].unwrap_or(0), w.sessions[i]);
                    let k = u64::from(pc / 3).saturating_sub(1);
                    match pc {
                        0 => Op::Clock(Step::AwaitApplied(f)),
                        1 => Op::Build(f),
                        2 => Op::Clock(Step::Ack(i, f + 1)),
                        LEAVE => Op::Clock(Step::Detach(i)),
                        DONE => Op::Done,
                        _ if pc % 3 == 0 => Op::Clock(Step::AwaitApplied(k + 1)),
                        _ if pc % 3 == 1 => Op::Read(k),
                        _ => Op::Clock(Step::Ack(i, k + 2)),
                    }
                }
            }
        }

        /// (i): the writer is past frame `n - 1`, and the tree holds
        /// exactly its non-empty batches `< n`, up to the one it failed on.
        fn sees_frames_before(&self, w: &World, n: u64) -> bool {
            let upto = w.failed.map_or(n, |f| n.min(f + 1));
            w.writer.0 >= n && w.tree == w.slices & ((1u8 << upto) - 1)
        }

        /// Move `who` past `op` in `to`, its plain continuation.
        fn advance(&self, to: &mut World, who: Who, op: Op) {
            match (who, op) {
                (Who::Writer, Op::Clock(Step::Advance(_))) => to.writer = (to.writer.0 + 1, 0),
                (Who::Writer, Op::Slice(k)) => (to.slices, to.writer.1) = (to.slices | 1 << k, 1),
                (Who::Writer, _) => to.writer.1 += 1,
                (Who::Session(i), _) => {
                    let pc = to.sessions[i];
                    to.sessions[i] = match (pc, op) {
                        (2, _) => 3 * (self.joins[i].unwrap_or(0) as u8 + 1),
                        (LEAVE, _) => DONE,
                        // The ack of the scope's last frame ends the schedule.
                        (_, Op::Clock(Step::Ack(_, upto))) if upto == self.frames + 1 => LEAVE,
                        _ => pc + 1,
                    };
                }
            }
        }

        /// Take every wait that can return (see the reduction above).
        /// Returns the waits taken.
        fn settle(&self, w: &mut World) -> Vec<Label> {
            let mut taken = Vec::new();
            let mut moved = true;
            while moved {
                moved = false;
                for &who in &self.who {
                    let op = self.op(w, who);
                    if let Op::Clock(s @ (Step::AwaitReady(_) | Step::AwaitApplied(_))) = op {
                        if w.clock.enabled(s) {
                            self.advance(w, who, op);
                            taken.push((who, op, Choice::Step));
                            moved = true;
                        }
                    }
                }
            }
            taken
        }

        /// Every successor of `w` with the step that reaches it, or the
        /// rule the state breaks.
        fn successors(&self, w: &World) -> Result<Vec<(Label, World)>, String> {
            let mut next = Vec::new();
            for &who in &self.who {
                let op = self.op(w, who);
                match op {
                    Op::Done => continue,
                    Op::Clock(s) if !w.clock.enabled(s) => continue,
                    _ => {}
                }
                let mut to = w.clone();
                let mut alt = |choice: Choice, to: World| next.push(((who, op, choice), to));
                match op {
                    Op::Done => {}
                    Op::Clock(s) => {
                        let wake = to.clock.apply(s);
                        let (before, after) = (&w.clock, &to.clock);
                        let lowered = match s {
                            Step::Ack(..) | Step::Detach(_) => after.slowest() < before.slowest(),
                            _ => after.applied < before.applied,
                        };
                        if lowered {
                            return Err(format!("{who:?} {s:?} lowers a watermark or the slowest frontier"));
                        }
                        for &other in &self.who {
                            let Op::Clock(parked) = self.op(w, other) else { continue };
                            let cv = if matches!(other, Who::Session(_)) { Wake::Readers } else { Wake::Writer };
                            let reached = wake == Wake::Both || wake == cv;
                            if !reached && after.enabled(parked) && !before.enabled(parked) {
                                return Err(format!("(iii) {who:?} {s:?} enables {other:?} {parked:?} but wakes {wake:?}"));
                            }
                        }
                    }
                    Op::Slice(_) => {
                        let mut empty = w.clone();
                        empty.writer.1 = 3;
                        alt(Choice::EmptySlice, empty);
                    }
                    Op::Apply(k) => {
                        to.tree |= 1 << k;
                        let mut failed = to.clone();
                        (failed.failed, failed.writer.1) = (Some(k), 3);
                        alt(Choice::Fail, failed);
                    }
                    Op::Build(f) if !self.sees_frames_before(w, f) => {
                        return Err(format!("(i) {who:?} builds at {f} over tree {:04b}", w.tree));
                    }
                    Op::Read(k) if !self.sees_frames_before(w, k + 1) => {
                        return Err(format!("(i) {who:?} reads frame {k} over tree {:04b}", w.tree));
                    }
                    Op::Build(_) | Op::Read(_) => {
                        let Who::Session(i) = who else { unreachable!("only sessions read") };
                        let mut bail = w.clone();
                        bail.sessions[i] = LEAVE;
                        alt(Choice::Bail, bail);
                    }
                }
                // After the ack of a frame, the session may make it its last.
                if let (Who::Session(i), Op::Clock(Step::Ack(_, upto))) = (who, op) {
                    if w.sessions[i] > 2 && upto <= self.frames {
                        let mut last = to.clone();
                        last.sessions[i] = LEAVE;
                        alt(Choice::Last, last);
                    }
                }
                self.advance(&mut to, who, op);
                // The writer picks the next frame's slice as it advances.
                if let Op::Clock(Step::Advance(_)) = op {
                    if let slice @ Op::Slice(_) = self.op(&to, who) {
                        let mut empty = to.clone();
                        empty.writer.1 = 3;
                        alt(Choice::EmptySlice, empty);
                        self.advance(&mut to, who, slice);
                    }
                }
                alt(Choice::Step, to);
            }
            let done = self.who.iter().all(|&who| matches!(self.op(w, who), Op::Done));
            if next.is_empty() && !done {
                return Err("(ii) deadlock: every participant left is parked".to_string());
            }
            Ok(next)
        }

        /// `w` as a number, sessions of one join frame in sorted order:
        /// they are interchangeable, so one order stands for all.
        fn key(&self, w: &World) -> u64 {
            let small = |v: u64| v.min(15);
            let mut sessions = [(None, 0); 3];
            for (i, s) in sessions.iter_mut().enumerate().take(self.joins.len()) {
                // A detached session's frontier no longer counts.
                let ack = if w.clock.live[i] { small(w.clock.acks[i]) << 6 | 1 << 5 } else { 0 };
                *s = (self.joins[i], ack | u64::from(w.sessions[i]));
            }
            sessions.sort_unstable();
            let mut key = w.clock.applied;
            key = key << 3 | w.writer.0;
            key = key << 2 | u64::from(w.writer.1);
            key = key << 3 | w.failed.map_or(7, |f| f);
            key = key << 4 | u64::from(w.slices);
            key = key << 4 | u64::from(w.tree);
            sessions.iter().fold(key, |key, (_, s)| key << 10 | s)
        }

        /// Visit every state reachable from the start; returns how many,
        /// or panics with the broken rule and the steps that reach it.
        fn explore(&self) -> usize {
            let mut seen = Seen::default();
            self.visit(self.start(), &mut seen, &mut Vec::new());
            seen.len()
        }

        fn visit(&self, mut w: World, seen: &mut Seen, path: &mut Vec<Label>) {
            let depth = path.len();
            path.extend(self.settle(&mut w));
            if seen.insert(self.key(&w)) {
                match self.successors(&w) {
                    Err(broken) => {
                        let trace: Vec<_> = path
                            .iter()
                            .map(|(who, op, choice)| match choice {
                                Choice::Step => format!("{who:?}: {op:?}"),
                                Choice::EmptySlice => {
                                    let (Op::Slice(k) | Op::Clock(Step::Advance(k))) = op else { unreachable!() };
                                    format!("{who:?}: {op:?}, slice {k} empty")
                                }
                                Choice::Fail => format!("{who:?}: {op:?} fails"),
                                Choice::Bail => format!("{who:?}: bails at {op:?}"),
                                Choice::Last => format!("{who:?}: {op:?}, its last frame"),
                            })
                            .collect();
                        panic!("{} frames, joins {:?}: {broken}, after\n  {}", self.frames, self.joins, trace.join("\n  "));
                    }
                    Ok(next) => {
                        for (step, to) in next {
                            path.push(step);
                            self.visit(to, seen, path);
                            path.pop();
                        }
                    }
                }
            }
            path.truncate(depth);
        }
    }

    #[test]
    fn every_interleaving_keeps_the_clock_rules() {
        let started = Instant::now();
        let (mut scopes, mut states, mut largest) = (0, 0, 0);
        for sessions in 1..=3 {
            let frames = 4;
            // A never-joining session is an absent one: three sessions
            // that all join cover the rest.
            let never = (sessions < 3).then_some(None);
            let joins: Vec<_> = never.into_iter().chain((0..frames).map(Some)).collect();
            // Sessions are interchangeable: one multiset of join frames each.
            let mut pick = vec![0; sessions];
            loop {
                let n = Scope::new(frames, pick.iter().map(|&j| joins[j]).collect()).explore();
                (scopes, states, largest) = (scopes + 1, states + n, largest.max(n));
                let Some(j) = (0..sessions).rev().find(|&j| pick[j] + 1 < joins.len()) else { break };
                let v = pick[j] + 1;
                pick[j..].iter_mut().for_each(|p| *p = v);
            }
        }
        println!(
            "clock model: 1-3 sessions over 4 frames (never-joining included), any windows, any empty slices: \
             {scopes} scopes, {states} states, at most {largest} in one, {:?}",
            started.elapsed()
        );
    }
}
