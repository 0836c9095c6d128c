//! The network front door: TCP listener, session connections, and the
//! serving coordinator.
//!
//! Two threads and a pool cooperate:
//!
//! * **Listener** — blocks in `accept`, runs admission inline
//!   (rejects get a typed `Rejected` frame and close immediately), and
//!   hands admitted sockets to the worker pool.
//! * **Pool workers** — a worker holds a session only for its handshake
//!   and for its terminal notice. The handshake job gives the socket to
//!   the session's `Conn`, reads the `Hello`, then, under one lock,
//!   writes `Admitted` and registers the session with the coordinator:
//!   no delta can reach the wire before `Admitted`, and sequential
//!   admits land in registration order. Once the session is served, or
//!   as soon as it is evicted, a second job writes `Done` or
//!   `Evicted{reason}`, half-closes, and drains until the peer's FIN for
//!   at most one `write_deadline`. A `Hello` that does not decode gets
//!   `Evicted{Protocol}` by the same close.
//! * **Coordinator** — owns the [`PartitionedDqServer`], gathers
//!   registered sessions into batches, and runs
//!   [`serve_plans_streamed`](PartitionedDqServer::serve_plans_streamed)
//!   with one [`NetSink`] per session. The serve runs every session as
//!   a task on one worker per CPU, and a sink *is* its session's
//!   connection: the worker that finishes a frame encodes the delta,
//!   spends one unit of the client's credit and writes the delta to the
//!   non-blocking socket itself. It reads the client's `Credit` only
//!   when the balance is spent, and a wait — for credit, or for a full
//!   socket buffer to drain — runs through
//!   [`FrameDelta::block_in_place`], which lends the worker to a spare,
//!   so a stalled reader holds back only its own regions. A wait that
//!   outlives the write deadline evicts the session (`SlowReader`) and
//!   detaches it from its frame clocks. While it is served, a wire
//!   session costs no thread of its own. Before `Done`, one
//!   non-blocking `read` looks for garbage the client sent while its
//!   credit never ran out; garbage makes the notice `Evicted{Protocol}`.
//!
//! No hand-off waits on a timer — credit and deltas move by socket
//! readiness alone — and the timeouts that remain (`write_deadline`,
//! `handshake_timeout`, `gather_window`) are deadlines on a misbehaving
//! peer, never pacing. Every wait on an admitted connection runs
//! through one deadline loop, `Conn::wait`.
//!
//! An eviction is counted, not logged: handing out an `Evicted` notice
//! bumps `net.sessions.evicted` and [`ServerSummary::evicted`], and the
//! reason ([`EvictReason`]) reaches the client as the `Evicted` notice.
//! Admissions count in `net.conns.accepted`.
//!
//! Graceful shutdown: the flag stops admission (a throwaway loopback
//! connection wakes the listener to see it), the listener exits and
//! drops its registration sender, in-flight handshakes drop theirs
//! after registering, so the coordinator's channel drains to
//! disconnection — it serves every already-admitted session to
//! completion (applying all committed frames) and takes a final
//! checkpoint before exiting, which is why recovery after a drain
//! replays zero WAL records.

use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mobiquery::router::PartitionedDqServer;
use mobiquery::{FrameDelta, FrameSink, NsiRecord, SessionOutcome, SessionPlan, SinkVerdict};
use obs::MetricsRegistry;
use parking_lot::Mutex;
use storage::PageStore;

use crate::admission::{Admission, AdmitGuard};
use crate::pool::{Job, WorkerPool};
use crate::protocol::{
    encode, encode_delta, DoneOutcome, EvictReason, FrameReader, HelloSpec, Msg, RejectReason,
    DEFAULT_MAX_FRAME_BYTES,
};

/// Pause after a failed `accept` (e.g. `EMFILE`), so a listener whose
/// every call fails at once cannot spin.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(2);

/// One run's insert schedule (outer: frames, inner: records per frame).
pub type RunInserts = Vec<Vec<(NsiRecord<2>, f64)>>;

/// Tunables for [`NetServer::start`].
#[derive(Clone)]
pub struct ServerConfig {
    /// Pool workers, which run handshakes and terminal notices. A
    /// served session holds none, so this does not cap sessions.
    pub workers: usize,
    /// Admission: max live sessions.
    pub max_sessions: usize,
    /// Admission: max live sessions per client IP.
    pub max_per_ip: usize,
    /// How long a served session may go without the credit for its
    /// next delta, or without its socket taking a delta, before it is
    /// evicted as a slow reader; also bounds the `Admitted` write, the
    /// terminal notice's write and the linger after the half-close.
    pub write_deadline: Duration,
    /// After the first session of a batch registers, how long the
    /// coordinator waits for more before serving.
    pub gather_window: Duration,
    /// Serve as soon as this many sessions are gathered.
    pub min_gather: usize,
    /// Budget for reading the `Hello` after accept.
    pub handshake_timeout: Duration,
    /// Metrics registry for `net.*` counters (optional).
    pub metrics: Option<Arc<MetricsRegistry>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 8,
            max_sessions: 8,
            max_per_ip: 8,
            write_deadline: Duration::from_millis(200),
            gather_window: Duration::from_millis(10),
            min_gather: 1,
            handshake_timeout: Duration::from_secs(2),
            metrics: None,
        }
    }
}

/// What the front door did over its lifetime, returned by
/// [`NetHandle::shutdown`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerSummary {
    /// Serving runs the coordinator executed.
    pub runs: usize,
    /// Sessions served (admitted and registered).
    pub sessions: usize,
    /// Sessions evicted (slow reader, disconnect, protocol).
    pub evicted: usize,
    /// Whether the final-drain checkpoint was taken (durable servers).
    pub checkpointed: bool,
}

/// A session registered with the coordinator, awaiting its batch.
type PendingSession = (SessionPlan<2>, NetSink);

/// State shared by the listener, the pool's jobs, and the coordinator.
struct Shared {
    config: ServerConfig,
    shutdown: AtomicBool,
    evicted: AtomicUsize,
    /// The next session id, held across writing `Admitted` and
    /// registering, so both happen in one order.
    admit_order: Mutex<u32>,
}

impl Shared {
    fn counter(&self, name: &str) {
        if let Some(m) = &self.config.metrics {
            m.counter(name).add(1);
        }
    }
}

/// One admitted session's connection, from its handshake to its
/// terminal notice. Every wait on it goes through [`Conn::wait`];
/// outside a wait the socket is non-blocking once the handshake has
/// read from it.
struct Conn {
    stream: TcpStream,
    /// The handshake's decoder, so bytes that arrived behind the
    /// `Hello` count.
    reader: FrameReader,
    /// Deltas the client has paid for and not yet been sent.
    credit: u64,
    /// The client said `Bye`: EOF is an orderly half-close.
    saw_bye: bool,
    /// A delta was cut off mid-frame, so no notice can follow it.
    torn: bool,
    _slot: AdmitGuard,
}

impl Conn {
    /// Read the `Hello` within `budget`. `Err(Protocol)` if the peer
    /// sent something else or cut a frame off at EOF; any other `Err`
    /// is a peer that never spoke.
    fn hello(&mut self, budget: Duration) -> Result<HelloSpec, EvictReason> {
        let mut buf = [0u8; 4096];
        self.wait(Instant::now() + budget, false, |conn| {
            match io_some(conn.stream.read(&mut buf))? {
                None => return Ok(None),
                Some(0) if conn.reader.has_partial() => return Err(EvictReason::Protocol),
                Some(0) => return Err(EvictReason::Disconnected),
                Some(n) => conn.reader.extend(&buf[..n]),
            }
            match conn.reader.next_msg() {
                Ok(None) => Ok(None),
                Ok(Some(Msg::Hello(h))) => Ok(Some(h)),
                Ok(Some(_)) | Err(_) => Err(EvictReason::Protocol),
            }
        })
    }

    /// Send one encoded delta: spend a unit of credit, reading the
    /// client's `Credit` only when there is none, and write it. Every
    /// wait (for credit, or for the socket to take the rest of the
    /// delta) runs through `in_place` and lasts at most `deadline`.
    /// `Err` is the reason to evict the session.
    fn deliver(
        &mut self,
        bytes: &[u8],
        deadline: Duration,
        in_place: impl Fn(&mut dyn FnMut() -> Result<(), EvictReason>) -> Result<(), EvictReason>,
    ) -> Result<(), EvictReason> {
        if self.credit == 0 {
            self.decode()?;
            while self.credit == 0 && self.read_some()? {}
            if self.credit == 0 {
                let until = Instant::now() + deadline;
                in_place(&mut || {
                    self.wait(until, false, |conn| {
                        conn.read_some()?;
                        Ok((conn.credit > 0).then_some(()))
                    })
                })?;
            }
        }
        self.credit -= 1;
        let mut rest = bytes;
        if !self.write_some(&mut rest)? {
            let until = Instant::now() + deadline;
            self.torn = true;
            in_place(&mut || self.write_all(rest, until))?;
            self.torn = false;
        }
        Ok(())
    }

    /// One `write` of what is left of `rest`. True once it is all out.
    fn write_some(&mut self, rest: &mut &[u8]) -> Result<bool, EvictReason> {
        let n = io_some(self.stream.write(rest))?.unwrap_or(0);
        *rest = &rest[n..];
        Ok(rest.is_empty())
    }

    /// Wait until the socket took all of `bytes`, or `until` passes.
    fn write_all(&mut self, mut bytes: &[u8], until: Instant) -> Result<(), EvictReason> {
        self.wait(until, true, |conn| {
            Ok(conn.write_some(&mut bytes)?.then_some(()))
        })
    }

    /// Take every whole message the decoder holds: `Credit` adds to the
    /// balance, `Bye` marks an orderly close, anything else is garbage.
    fn decode(&mut self) -> Result<(), EvictReason> {
        loop {
            match self.reader.next_msg() {
                Ok(Some(Msg::Credit { n })) => {
                    self.credit = self.credit.saturating_add(u64::from(n))
                }
                Ok(Some(Msg::Bye)) => self.saw_bye = true,
                Ok(None) => return Ok(()),
                Ok(Some(_)) | Err(_) => return Err(EvictReason::Protocol),
            }
        }
    }

    /// One `read`, decoded. False if it brought nothing. It is called
    /// for credit, so EOF ends the session: after `Bye` no credit can
    /// come, and without it the client is gone.
    fn read_some(&mut self) -> Result<bool, EvictReason> {
        let mut buf = [0u8; 4096];
        match io_some(self.stream.read(&mut buf))? {
            None => Ok(false),
            Some(0) if self.saw_bye => Err(EvictReason::SlowReader),
            Some(0) => Err(EvictReason::Disconnected),
            Some(n) => {
                self.reader.extend(&buf[..n]);
                self.decode()?;
                Ok(true)
            }
        }
    }

    /// Every wait on the connection: with the socket blocking, call
    /// `step` — one `read`, or one `write` if `writing` — until it
    /// returns a value or an error, each call bounded by what is left
    /// of `until`; past it, `SlowReader`. The only code that switches
    /// the socket's mode or sets its timeouts; it leaves the socket
    /// non-blocking.
    fn wait<T>(
        &mut self,
        until: Instant,
        writing: bool,
        mut step: impl FnMut(&mut Conn) -> Result<Option<T>, EvictReason>,
    ) -> Result<T, EvictReason> {
        if self.stream.set_nonblocking(false).is_err() {
            return Err(EvictReason::Disconnected);
        }
        let out = loop {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break Err(EvictReason::SlowReader);
            }
            let _ = if writing {
                self.stream.set_write_timeout(Some(left))
            } else {
                self.stream.set_read_timeout(Some(left))
            };
            if let Some(done) = step(self).transpose() {
                break done;
            }
        };
        match self.stream.set_nonblocking(true) {
            Ok(()) => out,
            Err(_) => Err(EvictReason::Disconnected),
        }
    }

    /// The terminal notice on a pool worker: write `notice` (unless a
    /// torn delta makes it unframeable), half-close, and read until the
    /// peer's FIN, each for at most `deadline`. Closing outright would
    /// turn credit still in flight, or unread, into an RST, which
    /// destroys the frames still sitting in the peer's receive buffer.
    fn close(mut self, notice: &Msg, deadline: Duration) {
        let until = Instant::now() + deadline;
        if self.torn || self.write_all(&encode(notice), until).is_err() {
            return;
        }
        let _ = self.stream.shutdown(Shutdown::Write);
        let mut buf = [0u8; 4096];
        let _ = self.wait(Instant::now() + deadline, false, |conn| {
            Ok((io_some(conn.stream.read(&mut buf))? == Some(0)).then_some(()))
        });
    }
}

/// A socket call's byte count, or `None` if it moved nothing: the
/// socket was not ready, or a blocking call's timeout passed. Any other
/// error is the peer gone.
fn io_some(r: std::io::Result<usize>) -> Result<Option<usize>, EvictReason> {
    match r {
        Ok(n) => Ok(Some(n)),
        Err(e)
            if matches!(
                e.kind(),
                ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
            ) =>
        {
            Ok(None)
        }
        Err(_) => Err(EvictReason::Disconnected),
    }
}

/// The serving core's per-frame sink for one network session: the
/// session's connection itself, written by whichever worker runs the
/// session (one at a time, so the lock is never contended).
struct NetSink {
    shared: Arc<Shared>,
    jobs: mpsc::Sender<Job>,
    /// Taken by the eviction, or after the serve by `Done`.
    conn: Mutex<Option<Conn>>,
}

impl NetSink {
    /// Hand `conn` to a pool worker to write `notice` and close. An
    /// `Evicted` notice counts the eviction.
    fn retire(&self, conn: Conn, notice: Msg) {
        if let Msg::Evicted { .. } = notice {
            self.shared.evicted.fetch_add(1, Ordering::Relaxed);
            self.shared.counter("net.sessions.evicted");
        }
        let deadline = self.shared.config.write_deadline;
        // The pool outlives the coordinator, so the send cannot fail.
        let _ = self
            .jobs
            .send(Box::new(move || conn.close(&notice, deadline)));
    }
}

impl FrameSink for NetSink {
    fn on_frame(&self, delta: &FrameDelta<'_>) -> SinkVerdict {
        let bytes = encode_delta(delta.frame as u32, delta.latency_ns, delta.results);
        let deadline = self.shared.config.write_deadline;
        let mut slot = self.conn.lock();
        let Some(conn) = slot.as_mut() else {
            return SinkVerdict::Detach;
        };
        match conn.deliver(&bytes, deadline, |wait| delta.block_in_place(wait)) {
            Ok(()) => {
                if let Some(m) = &self.shared.config.metrics {
                    m.counter("net.frames.sent").add(1);
                    m.counter("net.bytes.sent").add(bytes.len() as u64);
                }
                SinkVerdict::Continue
            }
            Err(reason) => {
                if let Some(conn) = slot.take() {
                    self.retire(conn, Msg::Evicted { reason });
                }
                SinkVerdict::Detach
            }
        }
    }
}

/// A running front door. [`shutdown`](Self::shutdown) performs the
/// graceful drain and returns the summary; merely dropping the handle
/// runs the same drain but discards the summary.
pub struct NetHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    listener: Option<JoinHandle<()>>,
    coordinator: Option<JoinHandle<(usize, usize, bool)>>,
    pool: Option<WorkerPool>,
}

impl NetHandle {
    /// The bound address (use port 0 in `start` to pick a free port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop admission, drain every admitted session, take the final
    /// checkpoint, and return the lifetime summary.
    pub fn shutdown(mut self) -> ServerSummary {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> ServerSummary {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.listener.take() {
            // Wake the listener out of `accept` to see the flag. If
            // the connect fails, `accept` is failing or backlogged too
            // and re-checks the flag on its own.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake.ip() {
                    IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect(wake);
            let _ = h.join();
        }
        // The coordinator exits once every handshake has registered or
        // failed and every batch is served; its terminal notices are
        // pool jobs — join it before the pool.
        let (runs, sessions, checkpointed) = self
            .coordinator
            .take()
            .map(|h| h.join().expect("coordinator panicked"))
            .unwrap_or_default();
        if let Some(pool) = self.pool.take() {
            pool.join();
        }
        ServerSummary {
            runs,
            sessions,
            evicted: self.shared.evicted.load(Ordering::Relaxed),
            checkpointed,
        }
    }
}

impl Drop for NetHandle {
    /// A dropped handle still drains: without this, the worker pool's
    /// drop would join workers whose job channel the live listener
    /// keeps open — a deadlock whenever a caller (e.g. a failing test)
    /// unwinds past the handle.
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The network front door itself; see the module docs.
pub struct NetServer;

impl NetServer {
    /// Bind `addr` and start serving `core` over it. `run_inserts` is
    /// a queue of per-run insert schedules: the coordinator's `r`-th
    /// serving run applies the `r`-th schedule (empty once exhausted).
    pub fn start<S>(
        core: PartitionedDqServer<2, S>,
        run_inserts: Vec<RunInserts>,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<NetHandle>
    where
        S: PageStore + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;

        let shared = Arc::new(Shared {
            config: config.clone(),
            shutdown: AtomicBool::new(false),
            evicted: AtomicUsize::new(0),
            admit_order: Mutex::new(0),
        });
        let admission = Arc::new(Admission::new(config.max_sessions, config.max_per_ip));
        let pool = WorkerPool::new(config.workers, "net-pump");
        let (reg_tx, reg_rx) = mpsc::channel::<PendingSession>();

        let listener_thread = {
            let shared = Arc::clone(&shared);
            let admission = Arc::clone(&admission);
            let jobs = pool.job_sender();
            std::thread::Builder::new()
                .name("net-accept".into())
                .spawn(move || {
                    listener_loop(listener, shared, admission, jobs, reg_tx);
                })
                .expect("spawn listener")
        };

        let coordinator_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("net-coord".into())
                .spawn(move || coordinator_loop(core, run_inserts, shared, reg_rx))
                .expect("spawn coordinator")
        };

        Ok(NetHandle {
            addr: bound,
            shared,
            listener: Some(listener_thread),
            coordinator: Some(coordinator_thread),
            pool: Some(pool),
        })
    }
}

fn listener_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    admission: Arc<Admission>,
    jobs: mpsc::Sender<Job>,
    reg_tx: mpsc::Sender<PendingSession>,
) {
    loop {
        let accepted = listener.accept();
        // Checked after every return and before admission: the
        // connection that woke us for shutdown is dropped right here.
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, peer)) => match admission.admit(peer.ip()) {
                Ok(slot) => {
                    let (shared, reg_tx) = (Arc::clone(&shared), reg_tx.clone());
                    let notices = jobs.clone();
                    let job: Job =
                        Box::new(move || handshake(stream, slot, shared, notices, reg_tx));
                    if jobs.send(job).is_err() {
                        return;
                    }
                }
                Err(reason) => {
                    shared.counter(match reason {
                        RejectReason::Busy => "net.conns.rejected.busy",
                        RejectReason::Overloaded => "net.conns.rejected.overloaded",
                    });
                    let mut stream = stream;
                    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
                    let _ = stream.write_all(&encode(&Msg::Rejected { reason }));
                }
            },
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF), // sleep-ok: error back-off
        }
    }
    // reg_tx drops here: once in-flight sessions have registered, the
    // coordinator's channel disconnects and it can drain out.
}

/// An admitted connection's handshake on a pool worker: read the
/// `Hello`, then confirm and register the session. The connection,
/// admission slot included, then belongs to the coordinator as the
/// session's sink; `jobs` runs its terminal notice.
fn handshake(
    stream: TcpStream,
    slot: AdmitGuard,
    shared: Arc<Shared>,
    jobs: mpsc::Sender<Job>,
    reg_tx: mpsc::Sender<PendingSession>,
) {
    let _ = stream.set_nodelay(true);
    let mut conn = Conn {
        stream,
        reader: FrameReader::new(DEFAULT_MAX_FRAME_BYTES),
        credit: 0,
        saw_bye: false,
        torn: false,
        _slot: slot,
    };
    let hello = match conn.hello(shared.config.handshake_timeout) {
        Ok(h) => h,
        Err(EvictReason::Protocol) => {
            // Typed containment: tell the peer why, then close.
            shared.counter("net.conns.rejected.protocol");
            let notice = Msg::Evicted {
                reason: EvictReason::Protocol,
            };
            return conn.close(&notice, shared.config.write_deadline);
        }
        Err(_) => return, // silent: the peer just never spoke
    };
    conn.credit = u64::from(hello.credit);

    // `Admitted` goes out before the registration that lets deltas
    // follow it, and under one lock with it, so a client that saw
    // `Admitted` is registered before the next one is confirmed.
    let mut next_id = shared.admit_order.lock();
    let admitted = encode(&Msg::Admitted { session: *next_id });
    if conn
        .write_all(&admitted, Instant::now() + shared.config.write_deadline)
        .is_err()
    {
        return;
    }
    *next_id += 1;
    shared.counter("net.conns.accepted");
    let (shared, conn) = (Arc::clone(&shared), Mutex::new(Some(conn)));
    // Fails only if the coordinator is already gone (a shutdown race).
    let _ = reg_tx.send((hello.to_plan(), NetSink { shared, jobs, conn }));
}

fn coordinator_loop<S>(
    core: PartitionedDqServer<2, S>,
    run_inserts: Vec<RunInserts>,
    shared: Arc<Shared>,
    reg_rx: mpsc::Receiver<PendingSession>,
) -> (usize, usize, bool)
where
    S: PageStore + Send + Sync,
{
    let mut inserts_queue: std::collections::VecDeque<RunInserts> = run_inserts.into();
    let mut runs = 0usize;
    let mut sessions = 0usize;
    let mut disconnected = false;

    while !disconnected {
        // Gather a batch: block for the first registration, then give
        // stragglers `gather_window` (or until `min_gather`) to pile on.
        let Ok(first) = reg_rx.recv() else {
            break;
        };
        let mut batch = vec![first];
        let gathered_by = Instant::now() + shared.config.gather_window;
        while batch.len() < shared.config.min_gather {
            match reg_rx.recv_timeout(gathered_by.saturating_duration_since(Instant::now())) {
                Ok(p) => batch.push(p),
                Err(mpsc::RecvTimeoutError::Timeout) => break,
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        runs += 1;
        sessions += batch.len();

        let inserts = inserts_queue.pop_front().unwrap_or_default();
        let (plans, sinks): (Vec<SessionPlan<2>>, Vec<NetSink>) = batch.into_iter().unzip();
        let dyn_sinks: Vec<Option<&dyn FrameSink>> =
            sinks.iter().map(|s| Some(s as &dyn FrameSink)).collect();
        let report = core.serve_plans_streamed(&plans, &inserts, &dyn_sinks);

        for (sink, out) in sinks.iter().zip(&report.base.sessions) {
            // An evicted session's connection is already retired.
            let Some(mut conn) = sink.conn.lock().take() else {
                continue;
            };
            // A client whose credit never ran out was never read: look
            // once for garbage it sent meanwhile.
            let notice = match conn.decode().and_then(|()| conn.read_some()) {
                Err(EvictReason::Protocol) => Msg::Evicted {
                    reason: EvictReason::Protocol,
                },
                _ => Msg::Done {
                    outcome: match out.outcome {
                        SessionOutcome::Ok => DoneOutcome::Ok,
                        SessionOutcome::Degraded { .. } => DoneOutcome::Degraded,
                        SessionOutcome::Failed(_) => DoneOutcome::Failed,
                    },
                    frames: out.frames.len() as u32,
                    results: out.results.len() as u64,
                },
            };
            sink.retire(conn, notice);
        }
    }

    // Shutdown drain: every committed frame was applied inside the
    // last run; seal the state so recovery replays nothing.
    let checkpointed = core.checkpoint_now();
    (runs, sessions, checkpointed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A delta larger than both socket buffers, to a peer that never
    /// reads: the non-blocking write takes what fits, finishing it
    /// waits in place, and the write deadline ends the wait with a
    /// `SlowReader` eviction instead of a hang.
    #[test]
    fn a_write_the_peer_never_drains_is_evicted_within_the_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, from) = listener.accept().expect("accept");
        stream.set_nonblocking(true).expect("non-blocking");
        let admission = Arc::new(Admission::new(1, 1));
        let mut conn = Conn {
            stream,
            reader: FrameReader::new(DEFAULT_MAX_FRAME_BYTES),
            credit: 1,
            saw_bye: false,
            torn: false,
            _slot: admission.admit(from.ip()).expect("a slot"),
        };
        let delta = vec![0u8; 32 << 20];
        let deadline = Duration::from_millis(100);
        let waits = std::cell::Cell::new(0);
        let started = Instant::now();
        let sent = conn.deliver(&delta, deadline, |wait| {
            waits.set(waits.get() + 1);
            wait()
        });
        let took = started.elapsed();
        assert_eq!(sent, Err(EvictReason::SlowReader));
        assert_eq!(waits.get(), 1, "only the write waited, and in place");
        assert!(
            took >= deadline,
            "evicted after {took:?}, before the deadline"
        );
        assert!(
            took < deadline + Duration::from_secs(2),
            "evicted only after {took:?}"
        );
        assert!(conn.torn, "a cut delta leaves no room for a notice");
        drop(peer);
    }
}
