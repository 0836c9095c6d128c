//! One serving episode: build a core from generated inputs, serve it on
//! the workload's surface with the benchmark's own consumers, and check
//! everything that came out against the serial oracle and the counter
//! identities.
//!
//! Closed loop throughout: an in-process session's next frame is
//! released by its own ack inside `serve_plans_streamed`; a wire client
//! holds a credit window and grants one credit back per delta.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mobiquery::{
    DurableLog, FrameDelta, FrameSink, PartitionedDqServer, PartitionedServeReport, QueryStats,
    RegionGrid, SessionOutcome, SessionPlan, SinkVerdict,
};
use obs::MetricsRegistry;
use rtree::{RTree, RTreeConfig};
use server::{DoneOutcome, Msg, NetClient, NetServer, ServerConfig, ServerSummary};
use stkit::Interval;
use storage::{PageStore, Pager, ShardedBufferPool};

use crate::gen::{plan_steps, Batch, Inputs, Rec, SPACE};
use crate::probe::{now_s, process_cpu_s, thread_read_ns, PoolProbe};
use crate::workloads::{Surface, Workload, CHECKPOINT_EVERY, POOL_SHARDS, REGIONS, WIRE_CREDIT};

/// The untraced page-store stack: one sharded pool per region over an
/// in-memory pager.
pub type PlainPool = ShardedBufferPool<Pager>;

pub fn plain_pool(w: &Workload) -> PlainPool {
    ShardedBufferPool::new(Pager::new(), w.pool_pages, POOL_SHARDS)
}

/// A built serving core plus outside handles on its region pools.
pub struct Core<S: PageStore> {
    pub server: PartitionedDqServer<2, Arc<S>>,
    pub pools: Vec<Arc<S>>,
}

/// Build the two-region core over `preload`, one `make_pool()` per region.
pub fn build_core<S: PageStore>(preload: &[Rec], make_pool: impl Fn() -> S) -> Core<S> {
    let grid = RegionGrid::uniform(0, Interval::new(0.0, SPACE), REGIONS);
    let mut pools = Vec::with_capacity(REGIONS);
    let server = PartitionedDqServer::build(grid, preload, |_| {
        let pool = Arc::new(make_pool());
        pools.push(Arc::clone(&pool));
        RTree::new(pool, RTreeConfig::default())
    });
    Core { server, pools }
}

/// One session's delivered stream, cut into frames.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Stream {
    /// Results delivered per frame, in frame order.
    pub counts: Vec<usize>,
    /// Every delivered `(oid, seq)`, in delivery order.
    pub results: Vec<(u32, u32)>,
    /// The session ended `Ok` (not degraded, failed or evicted).
    pub clean: bool,
}

/// Session-frames of `got` that count as failed against `want`: frames
/// not delivered, delivered with different results, or belonging to a
/// session that did not end clean.
pub fn failed_frames(want: &[Stream], got: &[Stream]) -> usize {
    assert_eq!(want.len(), got.len(), "one stream per planned session");
    want.iter()
        .zip(got)
        .map(|(want, got)| {
            if !got.clean {
                return want.counts.len();
            }
            let (mut w_at, mut g_at, mut failed) = (0, 0, 0);
            for (k, &w_n) in want.counts.iter().enumerate() {
                let delivered = got.counts.get(k).is_some_and(|&g_n| {
                    let same =
                        got.results.get(g_at..g_at + g_n) == Some(&want.results[w_at..w_at + w_n]);
                    g_at += g_n;
                    same
                });
                w_at += w_n;
                failed += usize::from(!delivered);
            }
            // Frames nobody planned are failures too.
            failed + got.counts.len().saturating_sub(want.counts.len())
        })
        .sum()
}

fn streams_of(report: &PartitionedServeReport) -> Vec<Stream> {
    report
        .base
        .sessions
        .iter()
        .map(|s| Stream {
            counts: s.frames.iter().map(|f| f.results).collect(),
            results: s.results.clone(),
            clean: s.outcome.is_ok(),
        })
        .collect()
}

/// What `serve_serial_plans` says the run must produce.
pub struct Oracle {
    pub streams: Vec<Stream>,
    /// Per session, in plan order.
    pub session_stats: Vec<QueryStats>,
    pub stats: QueryStats,
    pub writer_reads: u64,
    pub inserts_applied: usize,
    /// Wall time of the serial serve: the single-thread ladder rung.
    pub serial_s: f64,
}

impl Oracle {
    pub fn compute(w: &Workload, inputs: &Inputs) -> Oracle {
        let core = build_core(&inputs.preload, || plain_pool(w));
        let started = Instant::now();
        let report = core
            .server
            .serve_serial_plans(&inputs.plans, &inputs.batches);
        let serial_s = started.elapsed().as_secs_f64();
        assert!(
            report.base.writer_outcome.is_ok()
                && report.base.sessions.iter().all(|s| s.outcome.is_ok()),
            "the serial oracle itself did not run clean"
        );
        Oracle {
            streams: streams_of(&report),
            session_stats: report.base.sessions.iter().map(|s| s.stats).collect(),
            stats: report.base.total_stats(),
            writer_reads: report.base.writer_reads,
            inserts_applied: report.base.inserts_applied,
            serial_s,
        }
    }
}

/// One delivered frame as its consumer saw it.
#[derive(Clone, Copy, Debug, Default)]
pub struct FrameMark {
    /// Arrival at the consumer, ns since the episode's start.
    pub at_ns: u64,
    /// The `latency_ns` the delta carried.
    pub step_ns: u64,
    /// Traced runs only: the consumer's own time for this frame, and the
    /// serving thread's pool / device read time since its previous frame.
    pub sink_ns: u64,
    pub pool_ns: u64,
    pub device_ns: u64,
}

/// The benchmark's in-process frame sink: stamps every delta, and in a
/// traced run also measures itself and the same-thread read time.
pub struct FrameRecorder {
    started: Instant,
    traced: bool,
    marks: Mutex<(Vec<FrameMark>, (u64, u64))>,
}

impl FrameRecorder {
    fn new(started: Instant, traced: bool, frames: usize) -> Self {
        FrameRecorder {
            started,
            traced,
            marks: Mutex::new((Vec::with_capacity(frames), (0, 0))),
        }
    }
}

impl FrameSink for FrameRecorder {
    fn on_frame(&self, delta: &FrameDelta<'_>) -> SinkVerdict {
        let at_ns = self.started.elapsed().as_nanos() as u64;
        let mut guard = self
            .marks
            .lock()
            .expect("a recorder is used by one session thread");
        let (marks, seen) = &mut *guard;
        let mut mark = FrameMark {
            at_ns,
            step_ns: delta.latency_ns,
            ..FrameMark::default()
        };
        if self.traced {
            // The first frame's diff also covers engine start-up reads.
            let now = thread_read_ns();
            mark.pool_ns = now.0 - seen.0;
            mark.device_ns = now.1 - seen.1;
            *seen = now;
            mark.sink_ns = self.started.elapsed().as_nanos() as u64 - at_ns;
        }
        marks.push(mark);
        SinkVerdict::Continue
    }
}

/// Pool and device counters of every region, summed.
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolCounters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub device_reads: u64,
}

impl PoolCounters {
    pub fn read<P: PoolProbe>(pools: &[Arc<P>]) -> PoolCounters {
        let mut total = PoolCounters::default();
        for pool in pools {
            let (cache, io) = (pool.cache_stats(), pool.device_io());
            total.hits += cache.hits;
            total.misses += cache.misses;
            total.evictions += cache.evictions;
            total.device_reads += io.reads;
        }
        total
    }

    pub fn since(self, before: PoolCounters) -> PoolCounters {
        PoolCounters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            device_reads: self.device_reads - before.device_reads,
        }
    }
}

/// The `durable` workload's crash-and-recover tail.
#[derive(Clone, Copy, Debug, Default)]
pub struct DurableFigures {
    /// `recover_records` + rebuild + replay of the crashed image.
    pub recover_ms: f64,
    pub wal_bytes_per_insert: f64,
    pub replayed_records: u64,
    /// One `checkpoint_now()` on the served core's final state.
    pub checkpoint_ms: f64,
}

/// Everything one episode measured and checked.
#[derive(Default)]
pub struct Episode {
    /// Index build plus server start, up to the first serve call / Hello.
    pub setup_s: f64,
    /// Serve call / first Hello to the last delta.
    pub timed_s: f64,
    /// Process CPU over the timed region.
    pub cpu_s: f64,
    /// When the timed region began, on [`now_s`]'s clock.
    pub timed_at_s: f64,
    pub attempted: usize,
    pub failed: usize,
    /// Per session, in plan order.
    pub marks: Vec<Vec<FrameMark>>,
    pub stats: QueryStats,
    pub pool: PoolCounters,
    pub writer_reads: u64,
    pub inserts_applied: usize,
    pub wal_appends: u64,
    pub wal_commit_ns: u64,
    pub checkpoints: u64,
    pub region_records: Vec<u64>,
    pub region_loads: Vec<u64>,
    pub durable: Option<DurableFigures>,
    pub wire: Option<ServerSummary>,
    /// Wire only, per client: connect + Hello to `Admitted`.
    pub admit_ns: Vec<u64>,
    /// Everything that went wrong, for the log.
    pub problems: Vec<String>,
    /// A counter identity or a whole-run outcome did not hold.
    pub violated: bool,
}

impl Episode {
    pub fn delivered(&self) -> usize {
        self.marks.iter().map(Vec::len).sum()
    }

    /// Consumer-observed time between consecutive deltas of a session.
    pub fn gaps_ns(&self) -> Vec<u64> {
        self.marks
            .iter()
            .flat_map(|m| m.windows(2).map(|w| w[1].at_ns - w[0].at_ns))
            .collect()
    }

    /// Something wrong that [`failed_frames`] already counts frame by frame.
    fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    /// Something wrong with no frame to pin it on: the whole episode's
    /// output is suspect, and all of it counts as failed.
    fn violation(&mut self, what: String) {
        self.violated = true;
        self.problems.push(what);
    }
}

/// How to run one episode; rungs override the workload's own surface
/// and durability.
pub struct EpisodeSpec<'a> {
    pub workload: &'a Workload,
    pub surface: Surface,
    pub durable: bool,
    /// A durable episode ends in crash and recovery.
    pub recover: bool,
    pub traced: bool,
    /// Attached to the core (and the front door) when present.
    pub registry: Option<Arc<MetricsRegistry>>,
}

impl<'a> EpisodeSpec<'a> {
    pub fn of(workload: &'a Workload) -> Self {
        EpisodeSpec {
            workload,
            surface: workload.surface,
            durable: workload.durable,
            recover: true,
            traced: false,
            registry: None,
        }
    }
}

/// Build, serve, check. `make_pool` chooses the page-store stack.
pub fn run_episode<S>(
    spec: &EpisodeSpec<'_>,
    inputs: &Inputs,
    oracle: &Oracle,
    make_pool: impl Fn() -> S,
) -> Episode
where
    S: PageStore + PoolProbe + 'static,
{
    let setup = Instant::now();
    let Core { server, pools } = build_core(&inputs.preload, make_pool);
    let log = spec
        .durable
        .then(|| Arc::new(DurableLog::new(CHECKPOINT_EVERY)));
    let mut server = server;
    if let Some(log) = &log {
        server = server.with_durability(Arc::clone(log));
    }
    if let Some(registry) = &spec.registry {
        server = server.with_metrics(Arc::clone(registry));
        if let Some(log) = &log {
            log.attach_metrics(registry);
        }
    }

    let mut ep = Episode {
        attempted: inputs.session_frames(),
        ..Episode::default()
    };
    let pool_before = PoolCounters::read(&pools);
    let streams = match spec.surface {
        Surface::InProcess => {
            let streams = serve_in_process(spec, &server, inputs, oracle, setup, &mut ep);
            if let Some(log) = log.as_ref().filter(|_| spec.recover) {
                crash_and_recover(spec.workload, &server, log, &mut ep);
            }
            streams
        }
        Surface::Wire => serve_over_wire(spec, server, inputs, oracle, setup, &mut ep),
    };
    ep.pool = PoolCounters::read(&pools).since(pool_before);

    ep.failed = failed_frames(&oracle.streams, &streams);
    if ep.failed > 0 {
        ep.problem(format!(
            "{} session-frames differ from the serial oracle",
            ep.failed
        ));
    }
    // Counter identities: every node read is one pool access, every pool
    // miss one device read. Checkpoint scans read through the pool
    // without being a session's or the writer's node read, so a durable
    // run may only exceed.
    let node_reads = ep.stats.disk_accesses + ep.writer_reads;
    let pool_reads = ep.pool.hits + ep.pool.misses;
    if (spec.durable && pool_reads < node_reads) || (!spec.durable && pool_reads != node_reads) {
        ep.violation(format!(
            "node reads {node_reads} vs pool hits+misses {pool_reads}"
        ));
    }
    if ep.pool.misses != ep.pool.device_reads {
        ep.violation(format!(
            "pool misses {} vs device reads {}",
            ep.pool.misses, ep.pool.device_reads
        ));
    }
    if ep.stats != oracle.stats || ep.writer_reads != oracle.writer_reads {
        ep.violation("query or writer cost counters differ from the serial oracle".into());
    }
    if ep.violated {
        ep.failed = ep.attempted;
    }
    ep
}

fn serve_in_process<S: PageStore + Send + Sync>(
    spec: &EpisodeSpec<'_>,
    server: &PartitionedDqServer<2, Arc<S>>,
    inputs: &Inputs,
    oracle: &Oracle,
    setup: Instant,
    ep: &mut Episode,
) -> Vec<Stream> {
    let retries_before: u64 = (0..REGIONS)
        .map(|r| server.with_region_tree(r, |t| t.epoch_stats().read_retries))
        .sum();
    ep.setup_s = setup.elapsed().as_secs_f64();

    ep.timed_at_s = now_s();
    let cpu_before = process_cpu_s();
    let started = Instant::now();
    let recorders: Vec<FrameRecorder> = inputs
        .plans
        .iter()
        .map(|p| FrameRecorder::new(started, spec.traced, plan_steps(p)))
        .collect();
    let sinks: Vec<Option<&dyn FrameSink>> = recorders
        .iter()
        .map(|r| Some(r as &dyn FrameSink))
        .collect();
    let report = server.serve_plans_streamed(&inputs.plans, &inputs.batches, &sinks);
    ep.cpu_s = process_cpu_s() - cpu_before;
    ep.marks = recorders
        .into_iter()
        .map(|r| r.marks.into_inner().expect("serve has returned").0)
        .collect();
    ep.timed_s = last_delta_s(&ep.marks);

    ep.stats = report.base.total_stats();
    ep.writer_reads = report.base.writer_reads;
    ep.inserts_applied = report.base.inserts_applied;
    ep.wal_appends = report.base.wal_appends;
    ep.wal_commit_ns = report.base.wal_commit_ns;
    ep.checkpoints = report.base.checkpoints;
    ep.region_records = server.region_record_counts();
    ep.region_loads = server.region_loads();

    if !report.base.writer_outcome.is_ok() {
        ep.violation(format!("writer outcome {:?}", report.base.writer_outcome));
    }
    for (i, s) in report.base.sessions.iter().enumerate() {
        if !matches!(s.outcome, SessionOutcome::Ok) {
            ep.problem(format!("session {i} outcome {:?}", s.outcome));
        }
    }
    if ep.inserts_applied != oracle.inserts_applied {
        ep.violation(format!(
            "applied {} inserts, the oracle {}",
            ep.inserts_applied, oracle.inserts_applied
        ));
    }
    let retries: u64 = (0..REGIONS)
        .map(|r| server.with_region_tree(r, |t| t.epoch_stats().read_retries))
        .sum();
    if retries != retries_before {
        ep.violation(format!(
            "{} optimistic read retries",
            retries - retries_before
        ));
    }

    streams_of(&report)
}

/// Simulated crash: take the durable image as it stands (no final
/// checkpoint), recover it into a fresh core, and require the recovered
/// per-region record counts to equal the served core's.
fn crash_and_recover<S: PageStore>(
    w: &Workload,
    served: &PartitionedDqServer<2, Arc<S>>,
    log: &DurableLog,
    ep: &mut Episode,
) {
    let image = log.durable_image();
    let started = Instant::now();
    let (base, frames, recovery) = match image.recover_records::<2>() {
        Ok(recovered) => recovered,
        Err(e) => return ep.violation(format!("recovery failed: {e:?}")),
    };
    let recovered = build_core(&base, || plain_pool(w));
    let replay: Vec<Batch> = frames.into_iter().map(|(_, batch)| batch).collect();
    recovered.server.serve_serial_plans(&[], &replay);
    let recover_ms = started.elapsed().as_secs_f64() * 1e3;

    if !recovery.tail.is_clean() {
        ep.violation(format!(
            "undamaged WAL recovered with tail {:?}",
            recovery.tail
        ));
    }
    let (want, got) = (
        served.region_record_counts(),
        recovered.server.region_record_counts(),
    );
    if want != got {
        ep.violation(format!(
            "recovered region record counts {got:?}, served {want:?}"
        ));
    }
    let stats = log.stats();
    if stats.wal.appends != ep.wal_appends || stats.checkpoint_failures != 0 {
        ep.violation(format!(
            "WAL saw {} appends for {} committed frames, {} checkpoint failures",
            stats.wal.appends, ep.wal_appends, stats.checkpoint_failures
        ));
    }
    // Taken after the crash image, so it cannot shorten the replay.
    let started = Instant::now();
    served.checkpoint_now();
    let checkpoint_ms = started.elapsed().as_secs_f64() * 1e3;
    ep.durable = Some(DurableFigures {
        checkpoint_ms,
        recover_ms,
        wal_bytes_per_insert: stats.wal.appended_bytes as f64 / ep.inserts_applied.max(1) as f64,
        replayed_records: recovery.replayed_records,
    });
}

/// Loopback TCP: start the front door on the core, drive one
/// [`NetClient`] thread per plan, shut down.
fn serve_over_wire<S: PageStore + Send + Sync + 'static>(
    spec: &EpisodeSpec<'_>,
    server: PartitionedDqServer<2, Arc<S>>,
    inputs: &Inputs,
    oracle: &Oracle,
    setup: Instant,
    ep: &mut Episode,
) -> Vec<Stream> {
    let sessions = inputs.plans.len();
    let config = ServerConfig {
        workers: sessions,
        max_sessions: sessions,
        max_per_ip: sessions,
        // Every client lands in one serving run, whatever the scheduler does.
        min_gather: sessions,
        gather_window: Duration::from_secs(30),
        // A client descheduled on a busy host must not read as a slow reader.
        write_deadline: Duration::from_secs(2),
        metrics: spec.registry.clone(),
        ..ServerConfig::default()
    };
    let handle = NetServer::start(server, vec![inputs.batches.clone()], "127.0.0.1:0", config)
        .expect("bind a loopback port");
    let addr = handle.addr();
    ep.setup_s = setup.elapsed().as_secs_f64();

    ep.timed_at_s = now_s();
    let cpu_before = process_cpu_s();
    let started = Instant::now();
    let clients: Vec<(Vec<FrameMark>, Stream, u64)> = std::thread::scope(|scope| {
        let threads: Vec<_> = inputs
            .plans
            .iter()
            .map(|plan| scope.spawn(move || drive_client(addr, plan, started)))
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread"))
            .collect()
    });
    ep.cpu_s = process_cpu_s() - cpu_before;
    let summary = handle.shutdown();

    let mut streams = Vec::with_capacity(sessions);
    for (marks, stream, admit_ns) in clients {
        ep.marks.push(marks);
        ep.admit_ns.push(admit_ns);
        streams.push(stream);
    }
    ep.timed_s = last_delta_s(&ep.marks);
    if summary.evicted != 0 || summary.sessions != sessions || summary.runs != 1 {
        ep.violation(format!("front door summary {summary:?}"));
    }
    ep.wire = Some(summary);
    // The front door consumes the core and returns no serve report. A
    // wire run that delivers the oracle's streams has the oracle's cost
    // counters; the pool identity in `run_episode` holds it to that.
    ep.stats = oracle.stats;
    ep.writer_reads = oracle.writer_reads;
    ep.inserts_applied = oracle.inserts_applied;
    streams
}

/// One well-behaved client: Hello with the credit window, then one
/// `grant(1)` per delta until the server says `Done`.
fn drive_client(
    addr: std::net::SocketAddr,
    plan: &SessionPlan<2>,
    started: Instant,
) -> (Vec<FrameMark>, Stream, u64) {
    let mut marks = Vec::with_capacity(plan_steps(plan));
    let mut stream = Stream::default();
    let connecting = Instant::now();
    let mut client = match NetClient::connect(addr) {
        Ok(c) => c,
        Err(_) => return (marks, stream, 0),
    };
    if !matches!(client.hello(plan, WIRE_CREDIT), Ok(Ok(_))) {
        return (marks, stream, 0);
    }
    let admit_ns = connecting.elapsed().as_nanos() as u64;
    loop {
        match client.next_msg() {
            Ok(Msg::Delta {
                latency_ns,
                results,
                ..
            }) => {
                marks.push(FrameMark {
                    at_ns: started.elapsed().as_nanos() as u64,
                    step_ns: latency_ns,
                    ..FrameMark::default()
                });
                stream.counts.push(results.len());
                stream.results.extend(results);
                // A failed grant means the server already half-closed
                // after its terminal frame, which is still on its way.
                let _ = client.grant(1);
            }
            Ok(Msg::Done { outcome, .. }) => {
                stream.clean = outcome == DoneOutcome::Ok;
                return (marks, stream, admit_ns);
            }
            Ok(_) | Err(_) => return (marks, stream, admit_ns),
        }
    }
}

/// Seconds from the episode's start to the last delta of any session.
fn last_delta_s(marks: &[Vec<FrameMark>]) -> f64 {
    marks
        .iter()
        .filter_map(|m| m.last())
        .map(|m| m.at_ns)
        .max()
        .unwrap_or(0) as f64
        / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Shape};

    /// A workload small enough for a unit test, on either surface.
    fn tiny(surface: Surface, durable: bool) -> Workload {
        Workload {
            name: "tiny",
            why: "unit test",
            surface,
            durable,
            pool_pages: 64,
            episode_s: 0.1,
            shape: Shape {
                objects: 300,
                t0: 3.0,
                dt: 0.05,
                frames: 40,
                report_frac: 0.5,
                window: 20.0,
                overlap: 0.8,
                sessions: if surface == Surface::Wire { 2 } else { 4 },
            },
        }
    }

    fn episode(w: &Workload, inputs: &Inputs, oracle: &Oracle) -> Episode {
        run_episode(&EpisodeSpec::of(w), inputs, oracle, || plain_pool(w))
    }

    #[test]
    fn stream_check_counts_missing_wrong_and_unclean_frames() {
        let want = vec![Stream {
            counts: vec![2, 0, 1],
            results: vec![(1, 0), (2, 0), (3, 0)],
            clean: true,
        }];
        assert_eq!(failed_frames(&want, &want), 0);
        let mut wrong = want.clone();
        wrong[0].results[2] = (9, 9);
        assert_eq!(
            failed_frames(&want, &wrong),
            1,
            "only the last frame differs"
        );
        let mut short = want.clone();
        short[0].counts.pop();
        short[0].results.pop();
        assert_eq!(
            failed_frames(&want, &short),
            1,
            "an undelivered frame fails"
        );
        let mut shifted = want.clone();
        shifted[0].counts = vec![1, 1, 1];
        assert_eq!(
            failed_frames(&want, &shifted),
            2,
            "frames 0 and 1 are cut differently"
        );
        let mut unclean = want.clone();
        unclean[0].clean = false;
        assert_eq!(
            failed_frames(&want, &unclean),
            3,
            "a degraded session fails every frame"
        );
    }

    #[test]
    fn in_process_episode_matches_its_oracle_and_a_perturbed_oracle_fails_the_run() {
        let w = tiny(Surface::InProcess, false);
        let inputs = generate(&w.shape, 1);
        let mut oracle = Oracle::compute(&w, &inputs);
        let ep = episode(&w, &inputs, &oracle);
        assert_eq!((ep.failed, &ep.problems), (0, &Vec::new()));
        assert_eq!(ep.delivered(), ep.attempted);
        assert!(ep.stats.disk_accesses > 0 && ep.inserts_applied > 0);
        assert_eq!(
            crate::exit_code(ep.failed, ep.problems.len()),
            std::process::ExitCode::SUCCESS
        );

        // One wrong object id in the oracle's second session: the run
        // must count failures and exit non-zero.
        let victim = oracle.streams[1]
            .results
            .first_mut()
            .expect("the session delivers something");
        victim.0 ^= 1;
        let ep = episode(&w, &inputs, &oracle);
        assert!(
            ep.failed > 0 && ep.failed < ep.attempted,
            "only the perturbed frames fail"
        );
        assert!(!ep.problems.is_empty());
        assert_eq!(
            crate::exit_code(ep.failed, ep.problems.len()),
            std::process::ExitCode::FAILURE
        );
    }

    #[test]
    fn durable_episode_recovers_the_served_record_counts() {
        let w = tiny(Surface::InProcess, true);
        let inputs = generate(&w.shape, 2);
        let oracle = Oracle::compute(&w, &inputs);
        let ep = episode(&w, &inputs, &oracle);
        assert_eq!((ep.failed, &ep.problems), (0, &Vec::new()));
        let durable = ep.durable.expect("durability figures");
        assert_eq!(ep.wal_appends as usize, inputs.batches.len());
        assert!(durable.recover_ms > 0.0 && durable.wal_bytes_per_insert > 0.0);
        // 41 commits at one checkpoint per 64: everything after the
        // initial checkpoint is replayed.
        assert_eq!(durable.replayed_records as usize, inputs.live_inserts());
    }

    #[test]
    fn wire_episode_delivers_the_oracle_streams_over_loopback() {
        let w = tiny(Surface::Wire, false);
        let inputs = generate(&w.shape, 3);
        let oracle = Oracle::compute(&w, &inputs);
        let ep = episode(&w, &inputs, &oracle);
        assert_eq!((ep.failed, &ep.problems), (0, &Vec::new()));
        assert_eq!(ep.delivered(), ep.attempted);
        assert_eq!(ep.wire.expect("front door summary").evicted, 0);
        assert_eq!(ep.admit_ns.len(), 2);
    }
}
