//! Bounded per-session outbox: a compile-compat remnant.
//!
//! No serving path uses it: a served wire session's sink writes each
//! delta to the socket itself and reads the client's credit there (see
//! [`server`](crate::server)). It is kept only because `dqbench`'s
//! `layers.rs` times `push`/`pop` against it; what follows describes
//! the queue as it still behaves.
//!
//! A producer pushes each frame's encoded delta here; a consumer pops
//! frames and writes them to a socket. The queue is **bounded**: when the
//! consumer stops draining it (no credit, stalled socket), `push`
//! blocks up to the given deadline and then fails.
//!
//! The client's **credit** lives here too, under the same mutex: a
//! reader [`grant`](Outbox::grant)s what the client sends, and `pop` *waits* while the head delta is credit-gated. One
//! blocking `pop` is therefore woken by exactly the events that can
//! make a frame writable — a push, a grant, or the outbox closing —
//! and nothing on the path polls. Terminal notices (`Done`,
//! `Evicted`) bypass both the bound and the credit gate — they must
//! always reach the wire if the socket still works.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::protocol::EvictReason;

/// Why a [`Outbox::push`] failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// The queue stayed full past the deadline: the reader is slow.
    Timeout,
    /// The outbox was already finished or evicted.
    Closed,
}

/// What [`Outbox::pop`] produced.
#[derive(Debug, PartialEq, Eq)]
pub enum Pop {
    /// One wire frame to write to the socket.
    Frame(Vec<u8>),
    /// Nothing became writable within the timeout (queue empty, or
    /// the head delta still held for credit).
    Idle,
    /// The queue is drained and no more frames will ever arrive.
    Exhausted,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Open,
    Finished,
    Evicted(EvictReason),
}

struct QueuedFrame {
    bytes: Vec<u8>,
    /// True for `Delta` frames, which only leave while credit remains.
    needs_credit: bool,
}

struct Inner {
    queue: VecDeque<QueuedFrame>,
    /// Deltas the client has paid for and not yet received.
    credit: u64,
    hwm: usize,
    state: State,
}

/// Bounded handoff queue; see the module docs.
pub struct Outbox {
    inner: Mutex<Inner>,
    /// Signaled when a frame is queued, credit is granted, or the
    /// state leaves `Open`.
    added: Condvar,
    /// Signaled when a frame is popped (space freed).
    removed: Condvar,
    cap: usize,
}

impl Outbox {
    /// An open outbox holding at most `cap` queued frames (minimum 1),
    /// with no credit granted yet.
    pub fn new(cap: usize) -> Outbox {
        Outbox {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                credit: 0,
                hwm: 0,
                state: State::Open,
            }),
            added: Condvar::new(),
            removed: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Queue one delta frame, blocking while the queue is full, up to
    /// `deadline`. Called by the serving core's sink.
    pub fn push(&self, bytes: Vec<u8>, deadline: Duration) -> Result<(), PushError> {
        let start = Instant::now();
        let mut g = self.inner.lock();
        loop {
            if g.state != State::Open {
                return Err(PushError::Closed);
            }
            if g.queue.len() < self.cap {
                g.queue.push_back(QueuedFrame {
                    bytes,
                    needs_credit: true,
                });
                g.hwm = g.hwm.max(g.queue.len());
                self.added.notify_all();
                return Ok(());
            }
            let remaining = deadline.saturating_sub(start.elapsed());
            if remaining.is_zero() {
                return Err(PushError::Timeout);
            }
            self.removed.wait_for(&mut g, remaining);
        }
    }

    /// Add `n` delta credits and wake a `pop` waiting on them.
    pub fn grant(&self, n: u64) {
        let mut g = self.inner.lock();
        g.credit = g.credit.saturating_add(n);
        self.added.notify_all();
    }

    /// Pop the next frame that may be written, waiting up to `timeout`
    /// for one to become writable. A delta leaves only against credit:
    /// one granted unit is spent per delta, or — with `credit` true —
    /// the caller vouches for it and the granted balance is left alone
    /// (callers that keep their own account). Terminal notices always
    /// pass. `Idle` means the timeout ran out first.
    pub fn pop(&self, credit: bool, timeout: Duration) -> Pop {
        let start = Instant::now();
        let mut g = self.inner.lock();
        loop {
            if let Some(head) = g.queue.front() {
                let gated = head.needs_credit && !credit;
                if !gated || g.credit > 0 {
                    if gated {
                        g.credit -= 1;
                    }
                    let f = g.queue.pop_front().expect("head just observed");
                    self.removed.notify_all();
                    return Pop::Frame(f.bytes);
                }
                // Held for credit: a grant or an eviction releases it.
            } else if g.state != State::Open {
                return Pop::Exhausted;
            }
            let remaining = timeout.saturating_sub(start.elapsed());
            if remaining.is_zero() {
                return Pop::Idle;
            }
            self.added.wait_for(&mut g, remaining);
        }
    }

    /// Close the outbox normally: queue the terminal `done` notice
    /// (bypasses the bound) and refuse further pushes. No-op if the
    /// outbox is already closed.
    pub fn finish(&self, done: Vec<u8>) {
        let mut g = self.inner.lock();
        if g.state != State::Open {
            return;
        }
        g.queue.push_back(QueuedFrame {
            bytes: done,
            needs_credit: false,
        });
        g.state = State::Finished;
        self.added.notify_all();
        self.removed.notify_all();
    }

    /// Evict the session: drop everything still queued (the reader is
    /// not consuming it), queue the `notice`, and refuse further
    /// pushes. First eviction wins; later calls are no-ops. Returns
    /// true iff this call performed the transition.
    pub fn evict(&self, reason: EvictReason, notice: Vec<u8>) -> bool {
        let mut g = self.inner.lock();
        if g.state != State::Open {
            return false;
        }
        g.queue.clear();
        g.queue.push_back(QueuedFrame {
            bytes: notice,
            needs_credit: false,
        });
        g.state = State::Evicted(reason);
        self.added.notify_all();
        self.removed.notify_all();
        true
    }

    /// The deepest the queue has ever been.
    pub fn hwm(&self) -> usize {
        self.inner.lock().hwm
    }

    /// The eviction reason, if this outbox was evicted.
    pub fn evict_reason(&self) -> Option<EvictReason> {
        match self.inner.lock().state {
            State::Evicted(r) => Some(r),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    const MS: Duration = Duration::from_millis(1);
    /// `pop` timeout of the wake-up tests: a lost wake-up surfaces as
    /// `Idle` after this long instead of passing slowly.
    const LOST_WAKEUP: Duration = Duration::from_secs(30);

    /// Give a just-spawned thread time to block. The assertions hold
    /// whichever side gets there first; the pause only makes the
    /// blocked-then-woken order the likely one.
    fn let_it_block() {
        std::thread::sleep(Duration::from_millis(10)); // sleep-ok: test scheduling hint
    }

    /// A thread blocked in `pop(false, LOST_WAKEUP)`, `n` times over.
    fn popper(ob: &Arc<Outbox>, n: usize) -> std::thread::JoinHandle<Vec<Pop>> {
        let ob = Arc::clone(ob);
        let t = std::thread::spawn(move || (0..n).map(|_| ob.pop(false, LOST_WAKEUP)).collect());
        let_it_block();
        t
    }

    #[test]
    fn push_pop_roundtrip_and_hwm() {
        let ob = Outbox::new(2);
        ob.push(vec![1], MS).unwrap();
        ob.push(vec![2], MS).unwrap();
        assert_eq!(ob.hwm(), 2);
        assert_eq!(ob.pop(true, MS), Pop::Frame(vec![1]));
        assert_eq!(ob.pop(true, MS), Pop::Frame(vec![2]));
        assert_eq!(ob.pop(true, MS), Pop::Idle);
    }

    #[test]
    fn full_queue_times_out_as_slow_reader() {
        let ob = Outbox::new(1);
        ob.push(vec![1], MS).unwrap();
        let start = Instant::now();
        assert_eq!(ob.push(vec![2], Duration::from_millis(20)), Err(PushError::Timeout));
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn credit_gates_deltas_but_not_terminals() {
        let ob = Outbox::new(4);
        ob.push(vec![1], MS).unwrap();
        assert_eq!(ob.pop(false, MS), Pop::Idle, "delta held without credit");
        ob.finish(vec![9]);
        // The delta is still first in line, still credit-gated...
        assert_eq!(ob.pop(false, MS), Pop::Idle);
        // ...until credit arrives, then the terminal drains after it.
        assert_eq!(ob.pop(true, MS), Pop::Frame(vec![1]));
        assert_eq!(ob.pop(false, MS), Pop::Frame(vec![9]));
        assert_eq!(ob.pop(false, MS), Pop::Exhausted);
    }

    #[test]
    fn evict_drops_queue_and_closes() {
        let ob = Outbox::new(4);
        ob.push(vec![1], MS).unwrap();
        ob.push(vec![2], MS).unwrap();
        ob.evict(EvictReason::SlowReader, vec![0xEE]);
        assert_eq!(ob.push(vec![3], MS), Err(PushError::Closed));
        assert_eq!(ob.evict_reason(), Some(EvictReason::SlowReader));
        // Only the notice survives, credit-exempt.
        assert_eq!(ob.pop(false, MS), Pop::Frame(vec![0xEE]));
        assert_eq!(ob.pop(false, MS), Pop::Exhausted);
        // Second eviction is a no-op.
        ob.evict(EvictReason::Protocol, vec![0xFF]);
        assert_eq!(ob.evict_reason(), Some(EvictReason::SlowReader));
    }

    #[test]
    fn blocked_push_wakes_when_pump_drains() {
        let ob = Arc::new(Outbox::new(1));
        ob.push(vec![1], MS).unwrap();
        let ob2 = Arc::clone(&ob);
        let t = std::thread::spawn(move || ob2.push(vec![2], Duration::from_secs(5)));
        let_it_block();
        assert_eq!(ob.pop(true, MS), Pop::Frame(vec![1]));
        t.join().unwrap().unwrap();
        assert_eq!(ob.pop(true, MS), Pop::Frame(vec![2]));
    }

    #[test]
    fn grant_releases_a_credit_gated_pop() {
        let ob = Arc::new(Outbox::new(4));
        ob.push(vec![1], MS).unwrap();
        let t = popper(&ob, 1);
        ob.grant(1);
        assert_eq!(t.join().unwrap(), [Pop::Frame(vec![1])]);
        // The unit was spent: the next delta is held again.
        ob.push(vec![2], MS).unwrap();
        assert_eq!(ob.pop(false, Duration::ZERO), Pop::Idle);
    }

    #[test]
    fn empty_pop_wakes_on_push() {
        let ob = Arc::new(Outbox::new(4));
        ob.grant(1);
        let t = popper(&ob, 1);
        ob.push(vec![7], MS).unwrap();
        assert_eq!(t.join().unwrap(), [Pop::Frame(vec![7])]);
    }

    #[test]
    fn empty_pop_wakes_on_finish() {
        let ob = Arc::new(Outbox::new(4));
        let t = popper(&ob, 2);
        ob.finish(vec![9]);
        assert_eq!(t.join().unwrap(), [Pop::Frame(vec![9]), Pop::Exhausted]);
    }

    #[test]
    fn gated_pop_wakes_on_evict_with_the_notice_only() {
        let ob = Arc::new(Outbox::new(4));
        ob.push(vec![1], MS).unwrap();
        ob.push(vec![2], MS).unwrap();
        let t = popper(&ob, 2); // no credit: both deltas are held
        assert!(ob.evict(EvictReason::SlowReader, vec![0xEE]));
        assert_eq!(t.join().unwrap(), [Pop::Frame(vec![0xEE]), Pop::Exhausted]);
    }

    #[test]
    fn n_grants_release_exactly_n_deltas_across_interleaved_pushes() {
        let ob = Arc::new(Outbox::new(8));
        let t = popper(&ob, 4);
        ob.push(vec![1], MS).unwrap();
        ob.grant(1);
        ob.push(vec![2], MS).unwrap();
        ob.push(vec![3], MS).unwrap();
        ob.grant(2);
        ob.grant(1);
        ob.push(vec![4], MS).unwrap();
        ob.push(vec![5], MS).unwrap();
        let popped = t.join().unwrap();
        let expect: Vec<Pop> = (1..=4).map(|b| Pop::Frame(vec![b])).collect();
        assert_eq!(popped, expect);
        assert_eq!(ob.pop(false, Duration::ZERO), Pop::Idle, "4 spent");
        assert_eq!(ob.pop(true, Duration::ZERO), Pop::Frame(vec![5]));
    }
}
