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
//! program order, not a rule here.
//!
//! The rules are one value, `ClockState`: `enabled` says when a wait
//! may return, `apply` what a mutation changes and whom it must wake.
//! Both serving drivers step plain `ClockState`s: the workers driver
//! (`router/participants.rs`) under its scheduler's one lock, parking a
//! program whose wait is not enabled and re-queueing the parked programs
//! a mutation's `Wake` names, and the serial oracle in a fixed order.
//! No serve uses [`FrameClock`], a mutex and two condvars around a
//! `ClockState` whose every wait is one loop, `while
//! !state.enabled(step) { cv.wait }`: it is kept only because
//! `benchmarks/dqbench` times its hand-off. There is no multi-version
//! store, so a reader can never see a previous tree; what the serve
//! relies on instead is checked by `router/participants.rs`'s tests,
//! which run the writer and session programs themselves over every
//! interleaving of small scopes, one region and two: (i) a session
//! reading frame `k` (building at its join frame `f`) sees exactly the
//! batches `<= k` (`< f`) applied, as the serial oracle does, so the
//! one-slot slate holds frame `k` or an older one; (ii) until every
//! participant is done, some step is enabled; (iii) a mutation wakes
//! every waiter it enables.
//!
//! `applied` is not ordered against the acks: a writer whose slice of a
//! batch is empty, or which has failed, advances `applied` without
//! waiting, so it can run frames ahead of a reader — harmless, as the
//! tree does not change.
//!
//! Wake-ups are targeted. The writer waits for the acks (`AwaitReady`),
//! the sessions for `applied` (`AwaitApplied`). An advance wakes the
//! sessions, and an ack the writer only when it raises the slowest live
//! attached frontier — no other ack can enable `AwaitReady`. A detach
//! changes who counts, so it wakes both.

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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Step {
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
pub(crate) enum Wake {
    None,
    Writer,
    Readers,
    Both,
}

/// One region's clock rules as a value.
#[derive(Clone, Debug)]
pub(crate) struct ClockState {
    pub(crate) applied: u64,
    pub(crate) acks: Vec<u64>,
    /// `live[i]`: session `i` has a window on this region and has not
    /// detached.
    pub(crate) live: Vec<bool>,
}

impl ClockState {
    /// The state [`FrameClock::new`] starts from: `applied` at `start`,
    /// and each attached session's ack frontier at its window's start.
    pub(crate) fn new(windows: &[Option<(u64, u64)>], start: u64) -> ClockState {
        ClockState {
            applied: start,
            acks: windows.iter().map(|w| w.map_or(u64::MAX, |(first, _)| first.max(start))).collect(),
            live: windows.iter().map(Option::is_some).collect(),
        }
    }

    /// Whether `step` may happen now: a wait's condition; a mutation
    /// always may.
    pub(crate) fn enabled(&self, step: Step) -> bool {
        match step {
            Step::AwaitReady(k) => self.slowest() > k,
            Step::AwaitApplied(n) => self.applied >= n,
            Step::Advance(_) | Step::Ack(..) | Step::Detach(_) => true,
        }
    }

    /// Make `step` (a wait changes nothing) and say whom it wakes.
    pub(crate) fn apply(&mut self, step: Step) -> Wake {
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

    /// The region's *frame lag*: how many frames `applied` is ahead of
    /// the slowest live attached consumer (0 when none is attached), the
    /// quantity the `frame_lag` gauge publishes.
    pub(crate) fn lag(&self) -> u64 {
        self.applied.saturating_sub(self.slowest().saturating_sub(1))
    }

    /// The slowest live attached session's ack frontier (`u64::MAX` when
    /// none is attached): only its rise can enable `AwaitReady`.
    pub(crate) fn slowest(&self) -> u64 {
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
            state: Mutex::new(ClockState::new(&windows, start)),
            writer_cv: Condvar::new(),
            reader_cv: Condvar::new(),
        }
    }

    /// Region writer: frames `0..n` are now done. Returns the region's
    /// frame lag (`ClockState::lag`).
    pub fn advance_applied(&self, n: u64) -> u64 {
        self.apply(Step::Advance(n)).lag()
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
    use std::sync::mpsc::{channel, RecvTimeoutError};
    use std::time::Duration;

    fn clock(windows: Vec<Option<(u64, u64)>>) -> FrameClock {
        let n = windows.len();
        FrameClock::new(windows, SessionLiveness::new(n), 0, false)
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
    fn frame_lag_tracks_slowest_live_consumer() {
        let clock = clock(vec![Some((0, 9)), Some((0, 9))]);
        clock.ack(0, 1);
        clock.ack(1, 1);
        assert_eq!(clock.advance_applied(1), 1, "one frame ahead of both");
        clock.ack(0, 3); // session 0 consumed frame 1
        assert_eq!(clock.advance_applied(2), 2, "session 1 is 2 behind");
        clock.detach(1);
        assert_eq!(clock.advance_applied(3), 1, "dead sessions don't lag");
    }
}
