//! The network front door: TCP listener, session connections, and the
//! serving coordinator.
//!
//! Two threads and a pool cooperate:
//!
//! * **Listener** — blocks in `accept`, runs admission inline
//!   (rejects get a typed `Rejected` frame and close immediately), and
//!   hands admitted sockets to the worker pool.
//! * **Pool workers** — a worker holds a session only for its handshake
//!   and for its terminal notice. The handshake job decodes the
//!   `Hello`, then, under one lock, writes `Admitted` and registers the
//!   session with the coordinator: no delta can reach the wire before
//!   `Admitted`, and sequential admits land in registration order. Once
//!   the session is served, or as soon as it is evicted, a second job
//!   writes `Done` or `Evicted{reason}`, half-closes, and drains until
//!   the peer's FIN for at most one `write_deadline`.
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
//!   session costs no thread of its own.
//!
//! No hand-off waits on a timer — credit and deltas move by socket
//! readiness alone — and the timeouts that remain (`write_deadline`,
//! `handshake_timeout`, `gather_window`) are deadlines on a misbehaving
//! peer, never pacing.
//!
//! An eviction is counted, not logged: the sink that evicts bumps
//! `net.sessions.evicted` and [`ServerSummary::evicted`], and the
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
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
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
    encode, encode_delta, DoneOutcome, EvictReason, FrameReader, HelloSpec, Msg, ProtocolError,
    RejectReason, DEFAULT_MAX_FRAME_BYTES,
};

/// Pause after a failed `accept` (e.g. `EMFILE`), so a listener whose
/// every call fails at once cannot spin.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(2);

/// One run's insert schedule (outer: frames, inner: records per frame).
pub type RunInserts = Vec<Vec<(NsiRecord<2>, f64)>>;

/// Tunables for [`NetServer::start`].
#[derive(Clone)]
pub struct ServerConfig {
    /// Pool workers, which run handshakes and terminal notices (a
    /// served session holds none). Also the ceiling on concurrent
    /// sessions: the admission cap is clamped to it.
    pub workers: usize,
    /// Admission: max live sessions (clamped to `workers`).
    pub max_sessions: usize,
    /// Admission: max live sessions per client IP.
    pub max_per_ip: usize,
    /// How long a served session may go without the credit for its
    /// next delta, or without its socket taking a delta, before it is
    /// evicted as a slow reader; also bounds the terminal notice's
    /// write and the linger after the half-close.
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
struct PendingSession {
    plan: SessionPlan<2>,
    conn: Conn,
}

/// State shared by the listener, the pool's jobs, and the coordinator.
struct Shared {
    config: ServerConfig,
    shutdown: AtomicBool,
    next_id: AtomicU32,
    evicted: AtomicUsize,
    /// Held across writing `Admitted` and registering, so both happen
    /// in one order.
    admit_order: Mutex<()>,
}

impl Shared {
    fn counter(&self, name: &str) {
        if let Some(m) = &self.config.metrics {
            m.counter(name).add(1);
        }
    }
}

/// One admitted session's connection, from its handshake to its
/// terminal notice. While the session is served the socket is
/// non-blocking: a wait happens only in [`Conn::deliver`]'s `in_place`.
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
                in_place(&mut || self.await_credit(until))?;
            }
        }
        self.credit -= 1;
        let sent = match self.stream.write(bytes) {
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => 0,
            Err(_) => return Err(EvictReason::Disconnected),
        };
        if sent < bytes.len() {
            let until = Instant::now() + deadline;
            in_place(&mut || self.finish_write(&bytes[sent..], until))?;
        }
        Ok(())
    }

    /// Take every whole message the decoder holds: `Credit` adds to the
    /// balance, `Bye` marks an orderly close, anything else is garbage.
    fn decode(&mut self) -> Result<(), EvictReason> {
        loop {
            match self.reader.next_msg() {
                Ok(Some(Msg::Credit { n })) => self.credit = self.credit.saturating_add(u64::from(n)),
                Ok(Some(Msg::Bye)) => self.saw_bye = true,
                Ok(None) => return Ok(()),
                Ok(Some(_)) | Err(_) => return Err(EvictReason::Protocol),
            }
        }
    }

    /// One `read`, decoded. False if it brought nothing: no bytes
    /// ready, or none within a blocking read's timeout. It is called
    /// only for credit, so EOF ends the session: after `Bye` no credit
    /// can come, and without it, or on a reset, the client is gone.
    fn read_some(&mut self) -> Result<bool, EvictReason> {
        let mut buf = [0u8; 4096];
        match self.stream.read(&mut buf) {
            Ok(0) if self.saw_bye => Err(EvictReason::SlowReader),
            Ok(0) => Err(EvictReason::Disconnected),
            Ok(n) => {
                self.reader.extend(&buf[..n]);
                self.decode()?;
                Ok(true)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                Ok(false)
            }
            Err(_) => Err(EvictReason::Disconnected),
        }
    }

    /// Block in `read` until credit arrives or `until` passes.
    fn await_credit(&mut self, until: Instant) -> Result<(), EvictReason> {
        self.blocking(|conn| loop {
            if conn.credit > 0 {
                return Ok(());
            }
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(EvictReason::SlowReader);
            }
            let _ = conn.stream.set_read_timeout(Some(left));
            conn.read_some()?;
        })
    }

    /// Block in `write` until the socket took `rest` or `until` passes.
    fn finish_write(&mut self, mut rest: &[u8], until: Instant) -> Result<(), EvictReason> {
        self.torn = true;
        self.blocking(|conn| {
            while !rest.is_empty() {
                let left = until.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(EvictReason::SlowReader);
                }
                let _ = conn.stream.set_write_timeout(Some(left));
                match conn.stream.write(rest) {
                    Ok(0) => return Err(EvictReason::Disconnected),
                    Ok(n) => rest = &rest[n..],
                    Err(e)
                        if matches!(
                            e.kind(),
                            ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                        ) => {}
                    Err(_) => return Err(EvictReason::Disconnected),
                }
            }
            conn.torn = false;
            Ok(())
        })
    }

    /// Run `f` with the socket blocking, then make it non-blocking again.
    fn blocking<T>(&mut self, f: impl FnOnce(&mut Conn) -> Result<T, EvictReason>) -> Result<T, EvictReason> {
        if self.stream.set_nonblocking(false).is_err() {
            return Err(EvictReason::Disconnected);
        }
        let out = f(self);
        if self.stream.set_nonblocking(true).is_err() {
            return Err(EvictReason::Disconnected);
        }
        out
    }

    /// The terminal notice on a pool worker: write `notice` (unless a
    /// torn delta makes it unframeable), half-close, and read until the
    /// peer's FIN for at most `deadline`. Closing outright would turn
    /// credit still in flight, or unread, into an RST, which destroys
    /// the frames still sitting in the peer's receive buffer.
    fn close(mut self, notice: &Msg, deadline: Duration) {
        let stream = &mut self.stream;
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_write_timeout(Some(deadline));
        if self.torn || stream.write_all(&encode(notice)).is_err() {
            return;
        }
        let _ = stream.shutdown(Shutdown::Write);
        let until = Instant::now() + deadline;
        let mut buf = [0u8; 4096];
        loop {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            let _ = stream.set_read_timeout(Some(left));
            match stream.read(&mut buf) {
                Ok(0) => return,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }
}

/// Hand `conn` to a pool worker to write `notice` and close.
fn retire(jobs: &mpsc::Sender<Job>, conn: Conn, notice: Msg, deadline: Duration) {
    // The pool outlives the coordinator, so the send cannot fail.
    let _ = jobs.send(Box::new(move || conn.close(&notice, deadline)));
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
                self.shared.evicted.fetch_add(1, Ordering::Relaxed);
                self.shared.counter("net.sessions.evicted");
                if let Some(conn) = slot.take() {
                    retire(&self.jobs, conn, Msg::Evicted { reason }, deadline);
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
            next_id: AtomicU32::new(0),
            evicted: AtomicUsize::new(0),
            admit_order: Mutex::new(()),
        });
        let admission = Arc::new(Admission::new(
            config.max_sessions.min(config.workers),
            config.max_per_ip,
        ));
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
            let jobs = pool.job_sender();
            std::thread::Builder::new()
                .name("net-coord".into())
                .spawn(move || coordinator_loop(core, run_inserts, shared, jobs, reg_rx))
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
                    let shared = Arc::clone(&shared);
                    let reg_tx = reg_tx.clone();
                    let job: Job = Box::new(move || session_pump(stream, slot, shared, reg_tx));
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

/// Read one complete `Hello` into `reader` within the handshake
/// budget; each `read` may block for exactly what is left of it.
fn read_hello(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    budget: Duration,
) -> Result<HelloSpec, Option<ProtocolError>> {
    let deadline = Instant::now() + budget;
    let mut buf = [0u8; 4096];
    loop {
        match reader.next_msg() {
            Ok(Some(Msg::Hello(h))) => return Ok(h),
            Ok(Some(_)) => {
                return Err(Some(ProtocolError::Malformed(
                    "first message must be Hello".into(),
                )))
            }
            Ok(None) => {}
            Err(e) => return Err(Some(e)),
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(None); // silent: the peer just never spoke
        }
        let _ = stream.set_read_timeout(Some(left));
        match stream.read(&mut buf) {
            Ok(0) => {
                // EOF mid-handshake: truncated stream if partial bytes
                // were seen, otherwise a probe that closed politely.
                return Err(reader.has_partial().then_some(ProtocolError::Truncated));
            }
            Ok(n) => reader.extend(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(_) => return Err(None),
        }
    }
}

/// An admitted connection's handshake on a pool worker: decode the
/// `Hello`, then confirm and register the session. The connection,
/// admission slot included, then belongs to the coordinator.
fn session_pump(
    mut stream: TcpStream,
    slot: AdmitGuard,
    shared: Arc<Shared>,
    reg_tx: mpsc::Sender<PendingSession>,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(shared.config.write_deadline));

    let mut reader = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
    let hello = match read_hello(&mut stream, &mut reader, shared.config.handshake_timeout) {
        Ok(h) => h,
        Err(proto_err) => {
            if proto_err.is_some() {
                // Typed containment: tell the peer why, then close.
                let _ = stream.write_all(&encode(&Msg::Evicted {
                    reason: EvictReason::Protocol,
                }));
                shared.counter("net.conns.rejected.protocol");
            }
            return;
        }
    };

    // `Admitted` goes out before the registration that lets deltas
    // follow it, and under one lock with it, so a client that saw
    // `Admitted` is registered before the next one is confirmed.
    let _order = shared.admit_order.lock();
    let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
    if stream.write_all(&encode(&Msg::Admitted { session: id })).is_err()
        || stream.set_nonblocking(true).is_err()
    {
        return;
    }
    shared.counter("net.conns.accepted");
    let conn = Conn {
        stream,
        reader,
        credit: u64::from(hello.credit),
        saw_bye: false,
        torn: false,
        _slot: slot,
    };
    // Fails only if the coordinator is already gone (a shutdown race).
    let _ = reg_tx.send(PendingSession {
        plan: hello.to_plan(),
        conn,
    });
}

/// Map a served session's outcome onto the wire enum.
fn wire_outcome(outcome: &SessionOutcome) -> DoneOutcome {
    match outcome {
        SessionOutcome::Ok => DoneOutcome::Ok,
        SessionOutcome::Degraded { .. } => DoneOutcome::Degraded,
        SessionOutcome::Failed(_) => DoneOutcome::Failed,
    }
}

fn coordinator_loop<S>(
    core: PartitionedDqServer<2, S>,
    run_inserts: Vec<RunInserts>,
    shared: Arc<Shared>,
    jobs: mpsc::Sender<Job>,
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
        let mut batch: Vec<PendingSession> = Vec::new();
        match reg_rx.recv() {
            Ok(p) => batch.push(p),
            Err(mpsc::RecvError) => break,
        }
        let window_start = Instant::now();
        while batch.len() < shared.config.min_gather {
            let left = shared
                .config
                .gather_window
                .saturating_sub(window_start.elapsed());
            if left.is_zero() {
                break;
            }
            match reg_rx.recv_timeout(left) {
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
        serve_batch(&core, &mut inserts_queue, &shared, &jobs, batch);
    }

    // Shutdown drain: every committed frame was applied inside the
    // last run; seal the state so recovery replays nothing.
    let checkpointed = core.checkpoint_now();
    (runs, sessions, checkpointed)
}

fn serve_batch<S>(
    core: &PartitionedDqServer<2, S>,
    inserts_queue: &mut std::collections::VecDeque<RunInserts>,
    shared: &Arc<Shared>,
    jobs: &mpsc::Sender<Job>,
    batch: Vec<PendingSession>,
) where
    S: PageStore + Send + Sync,
{
    let inserts = inserts_queue.pop_front().unwrap_or_default();
    let (plans, sinks_owned): (Vec<SessionPlan<2>>, Vec<NetSink>) = batch
        .into_iter()
        .map(|p| {
            let sink = NetSink {
                shared: Arc::clone(shared),
                jobs: jobs.clone(),
                conn: Mutex::new(Some(p.conn)),
            };
            (p.plan, sink)
        })
        .unzip();
    let sinks: Vec<Option<&dyn FrameSink>> =
        sinks_owned.iter().map(|s| Some(s as &dyn FrameSink)).collect();

    let report = core.serve_plans_streamed(&plans, &inserts, &sinks);

    for (sink, out) in sinks_owned.into_iter().zip(&report.base.sessions) {
        // An evicted session's connection is already retired.
        if let Some(conn) = sink.conn.into_inner() {
            let done = Msg::Done {
                outcome: wire_outcome(&out.outcome),
                frames: out.frames.len() as u32,
                results: out.results.len() as u64,
            };
            retire(jobs, conn, done, shared.config.write_deadline);
        }
    }
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
        assert!(took >= deadline, "evicted after {took:?}, before the deadline");
        assert!(took < deadline + Duration::from_secs(2), "evicted only after {took:?}");
        assert!(conn.torn, "a cut delta leaves no room for a notice");
        drop(peer);
    }
}
