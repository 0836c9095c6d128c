//! Per-region frame clocks: the watermark protocol that orders a
//! region's writer against the sessions reading it.
//!
//! There is no global rendezvous on the serving path. Each region has a
//! [`FrameClock`]: three monotonic watermarks plus per-session
//! consumption cursors, so a slow session holds back only the regions
//! its query touches, and a failed session simply detaches.
//!
//! * `committed` — frames whose insert batch is WAL-durable. Advanced by
//!   the durability participant; a region's writer waits on it before
//!   applying, so *commit happens-before apply* (chaos_g–j's contract).
//! * `applied` — frames whose batch is visible in this region's tree.
//!   Advanced by the region's writer; a session reads frame `k` only
//!   after `applied` covers `k`, and only on the clocks of the regions
//!   its query touches.
//! * `acks[i]` — how far session `i` permits this region's writer to
//!   run. The writer applies batch `k` only once every *live, attached*
//!   session has acknowledged it, i.e. finished reading frame `k - 1`
//!   (or, at its join frame, finished building its engines against the
//!   pre-batch tree; a not-yet-joined session's frontier already sits
//!   at its join frame, so it never gates earlier batches).
//!
//! The ack cursors are the load-bearing subtlety: there is no
//! multi-version store, so a reader can never observe a *previous* tree
//! version once the writer mutates. Flow control closes that gap —
//! within one region, the writer and the attached readers alternate
//! (writer at most one frame ahead), so a lane's read lock on its
//! region's tree never waits on the writer, and the concurrent serve
//! stays *bitwise* equal to the serial reference. Isolation comes from the *per-region* scope: a stalled
//! session back-pressures only the regions its lanes touch, every other
//! region's writer and sessions run to the end without it
//! (`tests/clock.rs`, `a_stalled_session_holds_back_only_its_regions`),
//! and a failed session [`FrameClock::detach`]es, so nobody waits on it
//! again.
//!
//! Wake-ups are targeted: who waits on what decides who is woken. The
//! writer waits on its own condvar (`wait_committed`, `wait_ready`), the
//! sessions on the other (`wait_applied`). `advance_applied` wakes the
//! sessions, `advance_committed` the writer, and an `ack` wakes the
//! writer only when it raises the slowest live attached session's
//! frontier — no other ack can complete `wait_ready`. `detach` changes
//! who counts, so it wakes both.
//!
//! Invariant, per region, whenever durability is attached:
//! `committed >= applied >= min(acks) - 1`. Watermarks count *completed
//! frames* (`applied == n` means batches `0..n` are visible), so frame
//! `k` is readable once `applied >= k + 1`.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Liveness flags shared by every clock of one serve: `false` means the
/// session has detached (failed or finished) and no writer may wait on
/// it again — on *any* region.
#[derive(Debug)]
pub struct SessionLiveness {
    flags: Vec<AtomicBool>,
}

impl SessionLiveness {
    /// All `n` sessions start live.
    pub fn new(n: usize) -> Arc<SessionLiveness> {
        Arc::new(SessionLiveness {
            flags: (0..n).map(|_| AtomicBool::new(true)).collect(),
        })
    }

    /// Whether session `i` is still attached to its clocks.
    pub fn is_live(&self, i: usize) -> bool {
        self.flags[i].load(Ordering::Acquire)
    }

    fn mark_dead(&self, i: usize) {
        self.flags[i].store(false, Ordering::Release);
    }
}

/// The clock's mutable half, guarded by one mutex per region. All waits
/// are condvar loops on this state; the hot paths (watermark already
/// past, ack already granted) return without sleeping.
#[derive(Debug)]
struct ClockInner {
    /// Frames whose batch is WAL-durable (`u64::MAX` when the serve has
    /// no durability participant, so writers never wait on it).
    committed: u64,
    /// Frames whose batch is visible in this region's tree.
    applied: u64,
    /// Per-session permit frontier: session `i` allows batches `< acks[i]`.
    acks: Vec<u64>,
}

/// One region's frame clock. See the module docs for the protocol.
pub struct FrameClock {
    /// Static attach table: `windows[i] = Some((first, last))` is the
    /// inclusive global-frame range session `i` consumes on this region
    /// (`None`: the session never touches this region). Computed up
    /// front from the specs, so writer waits are deterministic.
    windows: Vec<Option<(u64, u64)>>,
    live: Arc<SessionLiveness>,
    inner: Mutex<ClockInner>,
    /// The region's writer waits here: on `committed` and on the acks.
    writer_cv: Condvar,
    /// The sessions reading the region wait here, on `applied`.
    reader_cv: Condvar,
}

impl FrameClock {
    /// A clock whose watermarks start at global frame `start`: the tree
    /// already contains every batch `< start` (a serve starts its clocks
    /// at 0). `durable` arms the `committed` watermark; without it
    /// writers never wait on commit. Each attached session's ack frontier starts at its window
    /// start: the writer is blocked from the session's first frame until
    /// the session has built its engines against the pre-batch tree.
    pub fn new(windows: Vec<Option<(u64, u64)>>, live: Arc<SessionLiveness>, start: u64, durable: bool) -> FrameClock {
        assert_eq!(windows.len(), live.flags.len(), "one window per session");
        let acks = windows
            .iter()
            .map(|w| w.map_or(u64::MAX, |(first, _)| first.max(start)))
            .collect();
        FrameClock {
            windows,
            live,
            inner: Mutex::new(ClockInner {
                committed: if durable { start } else { u64::MAX },
                applied: start,
                acks,
            }),
            writer_cv: Condvar::new(),
            reader_cv: Condvar::new(),
        }
    }

    /// `(committed, applied)` right now — for invariant checks and the
    /// `frame_lag` gauge. `committed` is `u64::MAX` without durability.
    pub fn watermarks(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.committed, inner.applied)
    }

    /// Durability participant: frames `0..n` are now WAL-durable.
    pub fn advance_committed(&self, n: u64) {
        let mut inner = self.inner.lock();
        debug_assert!(inner.committed == u64::MAX || n >= inner.committed, "committed is monotone");
        if inner.committed != u64::MAX && n > inner.committed {
            inner.committed = n;
            self.writer_cv.notify_all();
        }
    }

    /// Region writer: block until batch `k` is WAL-durable (no-op on a
    /// clock without durability). Returns nanoseconds spent waiting.
    pub fn wait_committed(&self, k: u64) -> u64 {
        let mut inner = self.inner.lock();
        if inner.committed > k {
            return 0;
        }
        let started = Instant::now();
        while inner.committed <= k {
            self.writer_cv.wait(&mut inner);
        }
        started.elapsed().as_nanos() as u64
    }

    /// Region writer: frames `0..n` are now visible in this region's
    /// tree. Returns the region's *frame lag* — how many frames the tree
    /// is ahead of its slowest live attached consumer (0 when none is
    /// attached), the quantity the `frame_lag` gauge publishes.
    pub fn advance_applied(&self, n: u64) -> u64 {
        let mut inner = self.inner.lock();
        debug_assert!(n >= inner.applied, "applied is monotone");
        inner.applied = n;
        let lag = self
            .attached()
            .map(|(i, _)| n.saturating_sub(inner.acks[i].saturating_sub(1)))
            .max()
            .unwrap_or(0);
        self.reader_cv.notify_all();
        lag
    }

    /// Session: block until frame `k` is readable (`applied >= k + 1`
    /// when `k` is a frame index — callers pass the watermark value
    /// directly, i.e. `wait_applied(k + 1)` to read frame `k`, or
    /// `wait_applied(j)` to see the pre-join tree state). Returns
    /// nanoseconds spent waiting.
    pub fn wait_applied(&self, n: u64) -> u64 {
        let mut inner = self.inner.lock();
        if inner.applied >= n {
            return 0;
        }
        let started = Instant::now();
        while inner.applied < n {
            self.reader_cv.wait(&mut inner);
        }
        started.elapsed().as_nanos() as u64
    }

    /// Session `i`: permit this region's writer to apply batches `< upto`.
    /// Called with `first + 1` once the session's engines exist, then
    /// `k + 2` after each consumed frame `k`. Wakes the writer only if
    /// this raises the slowest live attached frontier, the one
    /// `wait_ready` waits on.
    pub fn ack(&self, i: usize, upto: u64) {
        let mut inner = self.inner.lock();
        if upto > inner.acks[i] {
            let slowest = self.slowest(&inner);
            inner.acks[i] = upto;
            if self.slowest(&inner) > slowest {
                self.writer_cv.notify_all();
            }
        }
    }

    /// Session `i` is done with this region — it failed, or its schedule
    /// ended: writers stop waiting on it everywhere, immediately.
    /// Idempotent.
    pub fn detach(&self, i: usize) {
        self.live.mark_dead(i);
        // Take the lock so a writer mid-predicate-check cannot miss the
        // flag flip, then wake everyone.
        let _inner = self.inner.lock();
        self.writer_cv.notify_all();
        self.reader_cv.notify_all();
    }

    /// Region writer: block until *every* live attached session has
    /// acknowledged batch `k` — no window scoping. A session before its
    /// join frame passes vacuously (its ack frontier starts at its
    /// window's first frame), and a completed session's final
    /// `ack(last + 2)` covers every batch through `last + 1`, with
    /// `detach` following immediately for anything beyond. The predicate
    /// deliberately ignores the windows: writers skip this wait entirely
    /// for frames that route nothing to their region, so a window-scoped
    /// rule ("consult sessions whose window contains `k`") would let a
    /// writer whose next non-empty batch lies past a slow session's
    /// window apply it while that session is still reading its last
    /// frame. Returns nanoseconds spent waiting.
    pub fn wait_ready(&self, k: u64) -> u64 {
        let mut inner = self.inner.lock();
        let ready = |inner: &ClockInner| {
            self.attached().all(|(i, _)| inner.acks[i] > k)
        };
        if ready(&inner) {
            return 0;
        }
        let started = Instant::now();
        while !ready(&inner) {
            self.writer_cv.wait(&mut inner);
        }
        started.elapsed().as_nanos() as u64
    }

    /// The slowest live attached session's ack frontier (`u64::MAX` when
    /// none is attached): only its rise can make `wait_ready` true.
    fn slowest(&self, inner: &ClockInner) -> u64 {
        self.attached().map(|(i, _)| inner.acks[i]).min().unwrap_or(u64::MAX)
    }

    /// Live attached sessions and their windows.
    fn attached(&self) -> impl Iterator<Item = (usize, (u64, u64))> + '_ {
        self.windows
            .iter()
            .enumerate()
            .filter_map(|(i, w)| w.filter(|_| self.live.is_live(i)).map(|w| (i, w)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn clock(windows: Vec<Option<(u64, u64)>>, durable: bool) -> (FrameClock, Arc<SessionLiveness>) {
        let live = SessionLiveness::new(windows.len());
        (FrameClock::new(windows, Arc::clone(&live), 0, durable), live)
    }

    #[test]
    fn writer_blocks_until_session_acks_then_session_blocks_on_applied() {
        let (clock, _) = clock(vec![Some((0, 4))], false);
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
                let (_, applied) = clock.watermarks();
                // Flow control: the writer is at most one frame ahead.
                assert!(applied > k && applied <= k + 2, "applied {applied} at frame {k}");
                clock.ack(0, k + 2);
            }
            writer.join().unwrap();
        });
        assert_eq!(clock.watermarks().1, 5);
    }

    #[test]
    fn detached_session_releases_the_writer() {
        let (clock, _) = clock(vec![Some((0, 9)), Some((0, 9))], false);
        clock.ack(0, 1);
        // Session 1 never acks — it "fails" instead.
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| clock.wait_ready(0));
            std::thread::sleep(Duration::from_millis(20));
            clock.detach(1);
            writer.join().unwrap();
        });
        assert!(clock.wait_ready(0) == 0, "detach is permanent");
    }

    #[test]
    fn join_frontier_scopes_the_writer_wait() {
        // Session joins at frame 3: its ack frontier starts there, so
        // batches 0..3 need no permit.
        let (clock, _) = clock(vec![Some((3, 6))], false);
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
            assert_eq!(clock.watermarks().1, 3);
            clock.ack(0, 4);
            writer.join().unwrap();
        });
    }

    #[test]
    fn committed_gates_the_writer_only_when_durable() {
        let (free, _) = clock(vec![], false);
        assert_eq!(free.wait_committed(100), 0, "no durability: never waits");
        let (durable, _) = clock(vec![], true);
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| durable.wait_committed(0));
            std::thread::sleep(Duration::from_millis(10));
            durable.advance_committed(1);
            writer.join().unwrap();
        });
        assert_eq!(durable.watermarks().0, 1);
    }

    #[test]
    fn frame_lag_tracks_slowest_live_consumer() {
        let (clock, _) = clock(vec![Some((0, 9)), Some((0, 9))], false);
        clock.ack(0, 1);
        clock.ack(1, 1);
        assert_eq!(clock.advance_applied(1), 1, "one frame ahead of both");
        clock.ack(0, 3); // session 0 consumed frame 1
        assert_eq!(clock.advance_applied(2), 2, "session 1 is 2 behind");
        clock.detach(1);
        assert_eq!(clock.advance_applied(3), 1, "dead sessions don't lag");
    }
}
