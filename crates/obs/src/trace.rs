//! Bounded per-thread trace rings of structured events.
//!
//! Every hot-path layer emits [`TraceEvent`]s through [`trace`]: the
//! event lands in a fixed-capacity ring owned by the calling thread, so
//! there is no cross-thread contention and no allocation after the ring
//! exists. When the ring is full the oldest events are overwritten (and
//! counted as dropped) — tracing cost is O(1) and bounded regardless of
//! run length, which is why it is always on, release builds included.

use std::cell::RefCell;

/// What happened to a priority queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueOpKind {
    /// An item was enqueued.
    Push,
    /// An item was popped for processing.
    Pop,
    /// An item was discarded (stale or duplicate).
    Discard,
}

/// One structured trace event. All payloads are plain scalars so events
/// are `Copy` and a ring slot is a few words.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// A serving session began processing frame `frame`.
    FrameStart {
        /// Session index within the run.
        session: u32,
        /// Global frame number.
        frame: u32,
    },
    /// A serving session finished frame `frame`.
    FrameEnd {
        /// Session index within the run.
        session: u32,
        /// Global frame number.
        frame: u32,
        /// Objects delivered this frame.
        results: u32,
        /// Wall-clock frame processing time.
        latency_ns: u64,
    },
    /// An index node was read (one simulated disk access).
    NodeVisit {
        /// Backing page id.
        page: u64,
        /// Node level (0 = leaf).
        level: u32,
    },
    /// A priority-queue operation (PDQ).
    QueueOp {
        /// Push / pop / discard.
        op: QueueOpKind,
        /// Queue length after the operation.
        depth: u32,
    },
    /// A buffer-pool frame was evicted.
    CacheEvict {
        /// Evicted page id.
        page: u64,
        /// Whether the victim needed write-back.
        dirty: bool,
    },
    /// A region writer published a frame's insert reports on its region's
    /// slate, where every PDQ lane on the region reads them in place
    /// (nothing is sent per session).
    InsertBroadcast {
        /// Reports the region's routed slice produced.
        reports: u32,
    },
    /// A partitioned server routed a frame's insert batch to one region
    /// (records straddling a seam are counted once per receiving region).
    RegionRoute {
        /// Region index within the grid.
        region: u32,
        /// Records routed to this region this frame.
        records: u32,
    },
    /// The durable writer group-committed one frame's batch to the WAL
    /// (before any tree page was written).
    WalCommit {
        /// Sequence number of the committed record.
        seq: u64,
        /// Bytes appended (header + payload).
        bytes: u32,
    },
    /// The durable writer installed a checkpoint and truncated the WAL.
    Checkpoint {
        /// Last WAL sequence number the checkpoint covers.
        seq: u64,
        /// Records this checkpoint wrote: the whole set for the initial
        /// one, the folded delta for every later one.
        persisted: u32,
    },
    /// Recovery replayed the WAL on top of the last checkpoint.
    WalReplayed {
        /// Complete records applied.
        records: u32,
        /// Whether the log image ended at a record boundary (false after
        /// a torn or corrupted tail was clipped).
        clean_tail: bool,
    },
    /// A region's writer is done with frame `frame`: its frame clock's
    /// `applied` watermark moved past it.
    FrameAdvance {
        /// Region index within the serving grid.
        region: u32,
        /// Global frame whose watermark advanced.
        frame: u32,
    },
    /// The network front door admitted a connection as a session.
    ConnAccepted {
        /// Session id assigned by the server.
        session: u32,
    },
    /// A network session was evicted from the serving run: its frame
    /// deltas stop, it detaches from its frame clocks, and its socket is
    /// closed after the typed `Evicted` notice.
    SessionEvicted {
        /// Session id assigned by the server.
        session: u32,
        /// Why the session was evicted.
        reason: EvictReason,
    },
}

/// Why the network front door evicted a session
/// ([`TraceEvent::SessionEvicted`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictReason {
    /// The session's bounded outbox stayed full past the write deadline:
    /// the client stopped reading (or stopped granting credit).
    SlowReader,
    /// The socket disconnected (EOF, reset, or a half-open peer) while
    /// the session was still being served.
    Disconnected,
    /// The client sent bytes that failed protocol decoding.
    Protocol,
}

/// A bounded ring of [`TraceEvent`]s, oldest-overwritten-first.
#[derive(Clone, Debug)]
pub struct TraceRing {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Next slot to write (wraps).
    next: usize,
    /// Events overwritten because the ring was full.
    dropped: u64,
}

impl TraceRing {
    /// Ring holding up to `capacity` events (minimum 1).
    pub fn with_capacity(capacity: usize) -> TraceRing {
        let capacity = capacity.max(1);
        TraceRing {
            buf: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            dropped: 0,
        }
    }

    /// Append an event, overwriting the oldest when full.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
            self.dropped += 1;
        }
        self.next = (self.next + 1) % self.capacity;
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True iff no events are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum events held.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events overwritten so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        if self.buf.len() < self.capacity {
            self.buf.clone()
        } else {
            let mut out = Vec::with_capacity(self.capacity);
            out.extend_from_slice(&self.buf[self.next..]);
            out.extend_from_slice(&self.buf[..self.next]);
            out
        }
    }

    /// Drop all events (keeps the drop counter).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.next = 0;
    }
}

const THREAD_RING_CAPACITY: usize = 1024;

thread_local! {
    static THREAD_RING: RefCell<TraceRing> =
        RefCell::new(TraceRing::with_capacity(THREAD_RING_CAPACITY));
}

/// Record `ev` in the calling thread's ring.
#[inline]
pub fn trace(ev: TraceEvent) {
    THREAD_RING.with(|r| r.borrow_mut().push(ev));
}

/// Take (and clear) the calling thread's retained events, oldest first.
pub fn take_thread_trace() -> Vec<TraceEvent> {
    THREAD_RING.with(|r| {
        let mut ring = r.borrow_mut();
        let out = ring.events();
        ring.clear();
        out
    })
}

/// Events the calling thread's ring has overwritten so far.
pub fn thread_trace_dropped() -> u64 {
    THREAD_RING.with(|r| r.borrow().dropped())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_newest_events_in_order() {
        let mut ring = TraceRing::with_capacity(4);
        for i in 0..6u64 {
            ring.push(TraceEvent::NodeVisit { page: i, level: 0 });
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 2);
        let pages: Vec<u64> = ring
            .events()
            .iter()
            .map(|e| match e {
                TraceEvent::NodeVisit { page, .. } => *page,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(pages, vec![2, 3, 4, 5], "oldest overwritten first");
    }

    #[test]
    fn partial_ring_returns_all() {
        let mut ring = TraceRing::with_capacity(8);
        ring.push(TraceEvent::CacheEvict {
            page: 9,
            dirty: true,
        });
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.dropped(), 0);
        assert_eq!(
            ring.events(),
            vec![TraceEvent::CacheEvict {
                page: 9,
                dirty: true
            }]
        );
        ring.clear();
        assert!(ring.is_empty());
    }

    #[test]
    fn thread_ring_collects_and_clears() {
        std::thread::spawn(|| {
            trace(TraceEvent::FrameStart {
                session: 1,
                frame: 2,
            });
            trace(TraceEvent::QueueOp {
                op: QueueOpKind::Push,
                depth: 3,
            });
            let evs = take_thread_trace();
            assert_eq!(evs.len(), 2);
            assert!(take_thread_trace().is_empty());
            assert_eq!(thread_trace_dropped(), 0);
        })
        .join()
        .unwrap();
    }
}
