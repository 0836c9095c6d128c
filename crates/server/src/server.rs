//! The network front door: TCP listener, session halves, and the
//! serving coordinator.
//!
//! Three kinds of thread cooperate:
//!
//! * **Listener** — blocks in `accept`, runs admission inline
//!   (rejects get a typed `Rejected` frame and close immediately), and
//!   hands admitted sockets to the worker pool.
//! * **Session halves** — one pool worker per admitted session for
//!   its lifetime: decode the `Hello`, register the session with the
//!   coordinator, then become the **writer half**, a blocking
//!   [`Outbox::pop`] → `write_all` loop that ends in a half-close. A
//!   scoped **reader half** blocks in `read` on a clone of the socket:
//!   `Credit` becomes [`Outbox::grant`], and every socket failure mode
//!   (EOF, reset, garbage bytes, half-open peer) evicts the session's
//!   own outbox, which the coordinator's sink observes as `Detach`.
//!   No hand-off waits on a timer — a frame goes from the serving core
//!   to the socket by wake-ups alone — and the timeouts that remain
//!   (`write_deadline`, `handshake_timeout`, `gather_window`) are
//!   deadlines on a misbehaving peer, never pacing.
//! * **Coordinator** — owns the [`PartitionedDqServer`], gathers
//!   registered sessions into batches, and runs
//!   [`serve_plans_streamed`](PartitionedDqServer::serve_plans_streamed)
//!   with one [`NetSink`] per session. The serve runs every session as
//!   a task on one worker per CPU, not a thread per session; a sink
//!   whose outbox is full waits through
//!   [`FrameDelta::block_in_place`], which lends its worker to a spare,
//!   so a stalled reader holds back only its own regions. A push that
//!   outlives the write deadline evicts the session (`SlowReader`) and
//!   detaches it from its frame clocks — the serving core never blocks
//!   on a socket longer than the deadline. The socket halves above are
//!   still threads of their own.
//!
//! Graceful shutdown: the flag stops admission (a throwaway loopback
//! connection wakes the listener to see it), the listener exits and
//! drops its registration sender, in-flight sessions drop theirs after
//! registering, so the coordinator's channel drains to disconnection —
//! it serves every already-admitted session to completion (applying
//! all committed frames) and takes a final checkpoint before exiting,
//! which is why recovery after a drain replays zero WAL records.

use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mobiquery::router::PartitionedDqServer;
use mobiquery::{FrameDelta, FrameSink, NsiRecord, SessionOutcome, SessionPlan, SinkVerdict};
use obs::{EvictReason, MetricsRegistry, TraceEvent};
use storage::PageStore;

use crate::admission::Admission;
use crate::outbox::{Outbox, Pop, PushError};
use crate::pool::{Job, WorkerPool};
use crate::protocol::{
    encode, encode_delta, DoneOutcome, FrameReader, HelloSpec, Msg, ProtocolError, RejectReason,
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
    /// Pool workers; the hard ceiling on concurrent sessions (each
    /// live session occupies one worker).
    pub workers: usize,
    /// Admission: max live sessions (clamped to `workers`).
    pub max_sessions: usize,
    /// Admission: max live sessions per client IP.
    pub max_per_ip: usize,
    /// Bounded outbox depth, in frames.
    pub outbox_frames: usize,
    /// How long a sink push may wait on a full outbox before the
    /// session is evicted as a slow reader.
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
            outbox_frames: 4,
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
    id: u32,
    plan: SessionPlan<2>,
    outbox: Arc<Outbox>,
}

/// State shared by listener, session halves, and coordinator.
struct Shared {
    config: ServerConfig,
    shutdown: AtomicBool,
    next_id: AtomicU32,
    evicted: AtomicUsize,
}

impl Shared {
    fn counter(&self, name: &str) {
        if let Some(m) = &self.config.metrics {
            m.counter(name).add(1);
        }
    }

    /// Evict `outbox` with a wire notice; first caller wins, and only
    /// the winner counts/traces.
    fn evict(&self, session: u32, outbox: &Outbox, reason: EvictReason) {
        if outbox.evict(reason, encode(&Msg::Evicted { reason })) {
            self.evicted.fetch_add(1, Ordering::Relaxed);
            self.counter("net.sessions.evicted");
            obs::trace(TraceEvent::SessionEvicted { session, reason });
        }
    }
}

/// The serving core's per-frame sink for one network session.
struct NetSink {
    shared: Arc<Shared>,
    session: u32,
    outbox: Arc<Outbox>,
}

impl FrameSink for NetSink {
    fn on_frame(&self, delta: &FrameDelta<'_>) -> SinkVerdict {
        let bytes = encode_delta(delta.frame as u32, delta.latency_ns, delta.results);
        let len = bytes.len() as u64;
        let push = || self.outbox.push(bytes, self.shared.config.write_deadline);
        // Only this sink pushes, so an outbox with room keeps it: only a
        // full one makes the push wait, and that wait lends the worker.
        let pushed = if self.outbox.is_full() { delta.block_in_place(push) } else { push() };
        match pushed {
            Ok(()) => {
                if let Some(m) = &self.shared.config.metrics {
                    m.counter("net.frames.sent").add(1);
                    m.counter("net.bytes.sent").add(len);
                }
                SinkVerdict::Continue
            }
            Err(PushError::Timeout) => {
                self.shared
                    .evict(self.session, &self.outbox, EvictReason::SlowReader);
                SinkVerdict::Detach
            }
            // The session's own halves already evicted (disconnect /
            // protocol): just detach from the clocks.
            Err(PushError::Closed) => SinkVerdict::Detach,
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
        // Pool joins once every session exits; sessions exit once the
        // coordinator finishes (or evicts) them — join it first.
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
                Ok(guard) => {
                    let shared = Arc::clone(&shared);
                    let reg_tx = reg_tx.clone();
                    let job: Job = Box::new(move || {
                        let _slot = guard;
                        session_pump(stream, shared, reg_tx);
                    });
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

/// One admitted connection's whole lifetime on a pool worker:
/// handshake, registration, then both halves.
fn session_pump(mut stream: TcpStream, shared: Arc<Shared>, reg_tx: mpsc::Sender<PendingSession>) {
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
    // The reader half's handle on the socket, taken before any session
    // state exists; from here on reads block without a timeout.
    let Ok(read_stream) = stream.try_clone() else {
        return;
    };
    let _ = stream.set_read_timeout(None);

    let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
    let outbox = Arc::new(Outbox::new(shared.config.outbox_frames));
    outbox.grant(u64::from(hello.credit));
    // Register BEFORE confirming: a client that saw `Admitted` is
    // guaranteed to be in some batch, and sequential admits land in
    // registration order.
    if reg_tx
        .send(PendingSession {
            id,
            plan: hello.to_plan(),
            outbox: Arc::clone(&outbox),
        })
        .is_err()
    {
        return; // coordinator already gone (shutdown race)
    }
    drop(reg_tx); // the coordinator must see disconnection on drain
    if stream.write_all(&encode(&Msg::Admitted { session: id })).is_err() {
        shared.evict(id, &outbox, EvictReason::Disconnected);
        return;
    }
    shared.counter("net.conns.accepted");
    obs::trace(TraceEvent::ConnAccepted { session: id });

    std::thread::scope(|scope| {
        // Dropped when the reader half returns: how the writer half
        // bounds its linger without polling.
        let (reader_alive, reader_gone) = mpsc::channel::<()>();
        let (outbox, shared) = (&*outbox, &*shared);
        let spawned = std::thread::Builder::new()
            .name(format!("net-read-{id}"))
            .spawn_scoped(scope, move || {
                let _alive = reader_alive;
                read_half(read_stream, reader, id, outbox, shared);
            });
        if spawned.is_err() {
            shared.evict(id, outbox, EvictReason::Disconnected);
            return;
        }
        if write_half(&mut stream, id, outbox, shared) {
            // Half-close after the terminal frame and let the reader
            // half drain until the peer's FIN, for at most one write
            // deadline. Closing outright would turn a late `Credit` /
            // `Bye` into an RST, which destroys the terminal frame
            // still sitting in the peer's receive buffer.
            let _ = stream.shutdown(Shutdown::Write);
            let _ = reader_gone.recv_timeout(shared.config.write_deadline);
        }
        // Unblocks a reader half still in `read`, so the scope can join.
        let _ = stream.shutdown(Shutdown::Both);
    });
}

/// The writer half: blocks in `pop` until a push, a grant or the
/// outbox closing makes a frame writable, and writes it. False if the
/// socket failed before the outbox was exhausted (session evicted).
fn write_half(stream: &mut TcpStream, id: u32, outbox: &Outbox, shared: &Shared) -> bool {
    loop {
        match outbox.pop(false, Duration::MAX) {
            Pop::Frame(bytes) => {
                if stream.write_all(&bytes).is_err() {
                    shared.evict(id, outbox, EvictReason::Disconnected);
                    return false;
                }
            }
            Pop::Exhausted => return true,
            Pop::Idle => {} // not with an unbounded timeout
        }
    }
}

/// The reader half: blocks in `read` for the session's whole life.
/// `Credit` is granted to the outbox; EOF without `Bye`, a reset or
/// garbage evicts it (a no-op once the session has finished). After
/// garbage, as after the writer's half-close, it reads and discards
/// until the peer's FIN or the writer half shuts the socket down.
fn read_half(
    mut stream: TcpStream,
    mut reader: FrameReader,
    id: u32,
    outbox: &Outbox,
    shared: &Shared,
) {
    let mut buf = [0u8; 4096];
    let mut saw_bye = false;
    let mut discard = false;
    loop {
        // Decode first: bytes that arrived behind the `Hello` count.
        while !discard {
            match reader.next_msg() {
                Ok(Some(Msg::Credit { n })) => outbox.grant(u64::from(n)),
                Ok(Some(Msg::Bye)) => saw_bye = true,
                Ok(None) => break,
                Ok(Some(_)) | Err(_) => {
                    shared.evict(id, outbox, EvictReason::Protocol);
                    discard = true;
                }
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                // EOF after `Bye` is an orderly half-close: the writer
                // half keeps delivering results.
                if !saw_bye {
                    shared.evict(id, outbox, EvictReason::Disconnected);
                }
                return;
            }
            Ok(_) if discard => {}
            Ok(n) => reader.extend(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                shared.evict(id, outbox, EvictReason::Disconnected);
                return;
            }
        }
    }
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

        serve_batch(&core, &mut inserts_queue, &shared, &batch);
        runs += 1;
        sessions += batch.len();
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
    batch: &[PendingSession],
) where
    S: PageStore + Send + Sync,
{
    let inserts = inserts_queue.pop_front().unwrap_or_default();
    let plans: Vec<SessionPlan<2>> = batch.iter().map(|p| p.plan.clone()).collect();
    let sinks_owned: Vec<NetSink> = batch
        .iter()
        .map(|p| NetSink {
            shared: Arc::clone(shared),
            session: p.id,
            outbox: Arc::clone(&p.outbox),
        })
        .collect();
    let sinks: Vec<Option<&dyn FrameSink>> =
        sinks_owned.iter().map(|s| Some(s as &dyn FrameSink)).collect();

    let report = core.serve_plans_streamed(&plans, &inserts, &sinks);

    for (i, p) in batch.iter().enumerate() {
        let out = &report.base.sessions[i];
        p.outbox.finish(encode(&Msg::Done {
            outcome: wire_outcome(&out.outcome),
            frames: out.frames.len() as u32,
            results: out.results.len() as u64,
        }));
        if let Some(m) = &shared.config.metrics {
            m.gauge("net.outbox.hwm").record_max(p.outbox.hwm() as i64);
        }
    }
}
