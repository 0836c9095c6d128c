//! The serving core's one oracle. [`check_served`] runs one [`Case`] —
//! records, grid, stores, durability, a corrupt page, a crash, the
//! surface, and every session's plan and consumer — concurrently and
//! serially, and holds both to each other, to the fault-free and the
//! one-region serve, and to a ground truth computed from the record list
//! without running any engine. `service.rs` draws cases from a seed; the
//! other suites pin the hand-picked ones.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dq_repro::mobiquery::{
    DurableImage, DurableLog, FrameDelta, FrameSink, MotionRecord, PartitionedDqServer, PartitionedServeReport,
    QueryStats, RecoverError, RegionGrid, SessionKind, SessionOutcome, SessionOutput, SessionPlan, SessionSpec, SinkVerdict,
    SnapshotQuery,
};
use dq_repro::rtree::node::NODE_HEADER_LEN;
use dq_repro::rtree::{Key, NodeRef, RTree, RTreeConfig, Record};
use dq_repro::server::{ClientBehavior, ClientOutcome, NetClient, NetServer, ServerConfig};
use dq_repro::storage::wal::{scan, WAL_RECORD_OVERHEAD};
use dq_repro::storage::{
    ChecksumStore, FaultPlan, FaultyStore, PageId, PageStore, Pager, RetryPolicy, ShardedBufferPool, StorageError,
};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use super::truth::{self, Ids};
use super::{Batch, R};

/// One served case.
#[derive(Debug)]
pub struct Case {
    pub preload: Vec<R>,
    /// Batch `k` lands before frame `k`, stamped with a `now` up to `t_k`.
    pub inserts: Vec<Batch>,
    pub cuts: Vec<f64>,
    /// `(seed, p)`: region `r` sits on the chaos stack, transients at
    /// rate `p` from seed `seed + r` under a retrying pool. `None`: bare
    /// 256-byte pagers.
    pub faults: Option<(u64, f64)>,
    /// The WAL's checkpoint cadence, when the serve is durable.
    pub durable: Option<u64>,
    /// A page rewritten before the serve, on every server of the case
    /// but the fault-free and the one-region serial ones. On a durable
    /// case the first serve's base checkpoint scans the trees and meets
    /// it.
    pub corrupt: Option<Corrupt>,
    /// For a durable case: the rest of the run, served again on the
    /// server recovered from a captured image of the log.
    pub crash: Option<Crash>,
    pub surface: Surface,
    pub plans: Vec<SessionPlan<2>>,
    /// One per plan.
    pub sinks: Vec<Sink>,
}

impl Case {
    /// `specs` served from their first frame over `preload` and
    /// `inserts`: one region, bare pagers, not durable, no corruption,
    /// in process, no sinks.
    pub fn new(preload: Vec<R>, inserts: Vec<Batch>, specs: Vec<SessionSpec<2>>) -> Self {
        Case {
            preload,
            inserts,
            cuts: Vec::new(),
            faults: None,
            durable: None,
            corrupt: None,
            crash: None,
            surface: Surface::InProcess,
            sinks: vec![Sink::None; specs.len()],
            plans: specs.into_iter().map(SessionPlan::new).collect(),
        }
    }
}

/// What consumes one session's frames.
#[derive(Clone, Debug)]
pub enum Sink {
    /// No sink at all.
    None,
    /// Records each delta, then sleeps `lag[frame]` µs before the ack.
    Lag(Vec<u64>),
    /// Records each delta and detaches at this global frame.
    Detach(usize),
    /// Records each delta and panics at this global frame.
    Panic(usize),
}

impl Sink {
    /// The global frame at which this sink cuts its session.
    fn cut(&self) -> Option<usize> {
        match *self {
            Sink::Detach(j) | Sink::Panic(j) => Some(j),
            Sink::None | Sink::Lag(_) => None,
        }
    }
}

/// Where the concurrent serve's frames go.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Surface {
    /// To the sinks, in process.
    InProcess,
    /// Also through a `NetServer` on loopback, one `NetClient` per plan,
    /// whose deltas must be the in-process stream. A client is not a
    /// sink: every sink must be [`Sink::None`].
    Wire,
}

/// One page of region `region` (modulo the grid), reached from the root
/// by `depth` steps, each into the entry nearest `toward` — stopping at a
/// leaf, or at level 1 for a mutation of a child id — and its entry
/// nearest `toward`.
#[derive(Clone, Debug)]
pub struct Corrupt {
    pub region: usize,
    pub toward: [f64; 2],
    pub depth: usize,
    pub mutation: Mutation,
}

/// How a [`Corrupt`] page is rewritten. The named detectable ones must
/// surface as `Corrupt { page }` on the page they name; the others only
/// as some `Corrupt`, or not at all.
#[derive(Clone, Copy, Debug)]
pub enum Mutation {
    /// Every byte past the header drawn from this seed.
    Random(u64),
    /// The magic's first byte flipped; names the page.
    Magic,
    /// Under a checksum layer, every read of the page damaged beneath it
    /// (`FaultyStore::corrupt_page`), which the layer detects; on a bare
    /// pager, [`Mutation::Magic`]. Names the page.
    Checksum,
    /// The level one higher: a leaf above level 0 does not parse, and an
    /// internal node sits off the level its parent implies. Names the page.
    Level,
    /// The entry's child id far past the device's last page; names that id.
    OffDevice,
    /// The entry's child id names the root, an ancestor (or the root
    /// itself); names the root.
    Ancestor,
    /// The entry's first float, a key's or a record's, set to this value.
    Float(f32),
}

impl Corrupt {
    /// Rewrite the page on `server`, through its stores' own write path;
    /// the page a named detectable mutation names.
    fn apply<S: Probe>(&self, server: &PartitionedDqServer<2, S>) -> Option<PageId> {
        server.with_region_tree(self.region % server.grid().len(), |t| {
            let child = matches!(self.mutation, Mutation::OffDevice | Mutation::Ancestor);
            let (root, mut page) = (t.root_page(), t.root_page());
            let (mut node, mut depth) = (t.read_node(page), self.depth);
            while depth > 0 && node.level() > u32::from(child) {
                (page, depth) = (node.internal_entry(nearest(&node, &self.toward)).1, depth - 1);
                node = t.read_node(page);
            }
            if child && node.is_leaf() {
                return None;
            }
            let i = nearest(&node, &self.toward);
            let key = <R as Record>::Key::ENCODED_LEN;
            let entry = NODE_HEADER_LEN + i * if node.is_leaf() { R::ENCODED_LEN } else { key + 4 };
            let mut bytes = t.store().try_read_page(page).expect("a clean page").to_vec();
            let off = PageId(if child { node.internal_entry(i).1 .0 ^ 0xFF00_0000 } else { 0 });
            // Where the patch goes, what it writes, and the page it names.
            let (at, patch, named) = match self.mutation {
                Mutation::Random(seed) => {
                    let mut noise = vec![0; bytes.len() - NODE_HEADER_LEN];
                    ChaCha8Rng::seed_from_u64(seed).fill_bytes(&mut noise);
                    (NODE_HEADER_LEN, noise, None)
                }
                Mutation::Checksum if t.store().corrupt_beneath(page) => return Some(page),
                Mutation::Magic | Mutation::Checksum => (0, vec![bytes[0] ^ 0xFF], Some(page)),
                // The header's level field.
                Mutation::Level => (16, (node.level() + 1).to_le_bytes().to_vec(), Some(page)),
                Mutation::OffDevice => (entry + key, off.0.to_le_bytes().to_vec(), Some(off)),
                Mutation::Ancestor => (entry + key, root.0.to_le_bytes().to_vec(), Some(root)),
                Mutation::Float(v) => (entry, v.to_le_bytes().to_vec(), None),
            };
            bytes[at..at + patch.len()].copy_from_slice(&patch);
            t.store().write(page, &bytes);
            named
        })
    }
}

/// The first of `node`'s entries nearest `at` in space, the smallest
/// by margin among those as near.
fn nearest(node: &NodeRef<<R as Record>::Key, R>, at: &[f64; 2]) -> usize {
    let spaces: Vec<_> = match node.is_leaf() {
        true => node.leaf_records().map(|r| r.key().space).collect(),
        false => node.internal_entries().map(|(k, _)| k.space).collect(),
    };
    let rank = |i: usize| (spaces[i].min_dist_sq(at), spaces[i].margin());
    (0..spaces.len()).min_by(|&a, &b| rank(a).partial_cmp(&rank(b)).expect("clean keys")).unwrap_or(0)
}

/// A durable case's crash: it captures the log's image `at` some point,
/// `tail` damages the image, and recovery rebuilds under `cuts`.
#[derive(Clone, Debug)]
pub struct Crash {
    pub at: At,
    pub tail: Tail,
    pub cuts: Vec<f64>,
}

/// When a [`Crash`] captures the log's image.
#[derive(Clone, Debug)]
pub enum At {
    /// At the first sink call at or past this global frame — after the
    /// serve, if no sink call is that late.
    Frame(usize),
    /// After the serve, once this batch is committed as the next frame,
    /// `inserts.len()`, and applied to no region: the crash between a
    /// frame's group commit and its first page write.
    Unapplied(Batch),
}

/// What becomes of the captured log's tail. Offsets count back from the
/// image's end, clamped into its records.
#[derive(Clone, Copy, Debug)]
pub enum Tail {
    Clean,
    /// Truncated by this many bytes.
    Cut(usize),
    /// This many bytes from the end, one bit flipped.
    Flip(usize),
}

/// Per frame: the global frame index and its ids.
type Frames = Vec<(usize, Vec<(u32, u32)>)>;

/// A crash's captured image: the frames committed and acked before the
/// capture, which recovery must hold, and — for a capture after the
/// serve — how many frames its WAL holds past the checkpoint.
struct Image {
    acked: usize,
    image: DurableImage,
    unfolded: Option<u64>,
}

/// Where a crash's sink call keeps the image it captured.
struct Capture {
    frame: usize,
    log: Arc<DurableLog>,
    image: Mutex<Option<Image>>,
}

/// A [`Sink`] at work, keeping every `(frame, delta)` it was offered.
struct Recorder {
    sink: Sink,
    got: Mutex<Frames>,
    capture: Option<Arc<Capture>>,
}

impl FrameSink for Recorder {
    fn on_frame(&self, d: &FrameDelta<'_>) -> SinkVerdict {
        if let Some(c) = self.capture.as_ref().filter(|c| d.frame >= c.frame) {
            // Frame `d.frame` is applied, so committed, and so is every
            // frame before it.
            let image = || Image { acked: d.frame + 1, image: c.log.durable_image(), unfolded: None };
            c.image.lock().unwrap().get_or_insert_with(image);
        }
        self.got.lock().unwrap().push((d.frame, d.results.to_vec()));
        match self.sink {
            Sink::Lag(ref lag) => std::thread::sleep(Duration::from_micros(lag[d.frame])),
            Sink::Detach(j) if j == d.frame => return SinkVerdict::Detach,
            Sink::Panic(j) if j == d.frame => panic!("sink panics at frame {j}"),
            _ => {}
        }
        SinkVerdict::Continue
    }
}

/// Transients under a checksum layer, behind a pool that retries them.
type Chaos = ShardedBufferPool<ChecksumStore<FaultyStore<Pager>>>;

/// A region store's own counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub hits: u64,
    pub misses: u64,
    pub device_reads: u64,
    pub transients: u64,
    pub retries: u64,
    pub exhausted: u64,
    pub corrupt: u64,
}

impl Tally {
    /// `f` applied field by field.
    fn zip(self, o: Tally, f: impl Fn(u64, u64) -> u64) -> Tally {
        Tally {
            hits: f(self.hits, o.hits),
            misses: f(self.misses, o.misses),
            device_reads: f(self.device_reads, o.device_reads),
            transients: f(self.transients, o.transients),
            retries: f(self.retries, o.retries),
            exhausted: f(self.exhausted, o.exhausted),
            corrupt: f(self.corrupt, o.corrupt),
        }
    }
}

/// What a case's concurrent serve did: its report, and its region
/// stores' counters over the serve, summed — so a pinned case can show
/// that its pool or its fault schedule was at work.
#[derive(Debug)]
pub struct Served {
    pub report: PartitionedServeReport,
    pub store: Tally,
}

trait Probe: PageStore + Send + Sync + 'static {
    fn tally(&self) -> Tally;
    /// Damage every read of `page` beneath the store's checksum layer;
    /// false if it has none.
    fn corrupt_beneath(&self, page: PageId) -> bool;
}

/// A bare pager: every node read is a miss and a device read.
impl Probe for Pager {
    fn tally(&self) -> Tally {
        let reads = self.io().reads;
        Tally { misses: reads, device_reads: reads, ..Tally::default() }
    }

    fn corrupt_beneath(&self, _: PageId) -> bool {
        false
    }
}

impl Probe for Chaos {
    fn tally(&self) -> Tally {
        let (cache, faults) = (self.cache_stats(), self.fault_stats());
        Tally {
            hits: cache.hits,
            misses: cache.misses,
            device_reads: self.io().reads,
            transients: self.inner().inner().injected().transients,
            retries: faults.retries,
            exhausted: faults.exhausted,
            corrupt: self.inner().corrupt_detected(),
        }
    }

    fn corrupt_beneath(&self, page: PageId) -> bool {
        // Flushed and emptied first, so no read of the page hits the pool.
        self.clear();
        self.inner().inner().corrupt_page(page);
        true
    }
}

fn bare(_: usize) -> RTree<R, Pager> {
    RTree::new(Pager::with_page_size(256), RTreeConfig::default())
}

/// How many transients `FaultPlan::transient(seed, p)` injects before
/// its store's `reads`-th successful device read: the store draws once
/// per attempt from one seeded stream, whichever thread reads, and a
/// retry that never runs out ends each read on a success.
fn transients_drawn(seed: u64, p: f64, reads: u64) -> u64 {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (mut ok, mut failed) = (0, 0);
    while ok < reads {
        match rng.gen_bool(p) {
            true => failed += 1,
            false => ok += 1,
        }
    }
    failed
}

/// How long a concurrent serve may take before the case fails as a hang.
pub const BOUND: Duration = Duration::from_secs(20);

/// `f` on a thread of its own, failing as a hang if it has not returned
/// within [`BOUND`]: the one place a test waits with a bound. The thread
/// is not joined, so a hung `f` cannot hang the test; a panicking one
/// drops the sender.
fn bounded<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> Result<T, String> {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(f());
    });
    finished.recv_timeout(BOUND).map_err(|e| match e {
        RecvTimeoutError::Timeout => format!("{what} is still running after {BOUND:?}"),
        RecvTimeoutError::Disconnected => format!("{what} panicked"),
    })
}

/// Per session, the recorder that is its sink, if it has one.
type Recorders = Vec<Option<Arc<Recorder>>>;

impl Case {
    /// The case's server under `cuts`, region trees from `make`, its log
    /// if the case is durable, and — if `corrupt` — its page corrupted,
    /// with the page a named detectable mutation names.
    fn server<S: Probe>(
        &self,
        cuts: &[f64],
        corrupt: bool,
        make: impl FnMut(usize) -> RTree<R, S>,
    ) -> (PartitionedDqServer<2, S>, Option<Arc<DurableLog>>, Option<PageId>) {
        let mut server = PartitionedDqServer::build(RegionGrid::from_cuts(0, cuts.to_vec()), &self.preload, make);
        let log = self.durable.map(|every| Arc::new(DurableLog::new(every)));
        if let Some(log) = &log {
            server = server.with_durability(Arc::clone(log));
        }
        let named = self.corrupt.as_ref().filter(|_| corrupt).and_then(|c| c.apply(&server));
        (server, log, named)
    }

    /// The concurrent serve over region stores from `make`, under
    /// [`BOUND`], then what the stores count, and a crash's image. Under
    /// faults every transient the plan drew was retried, no budget ran
    /// out, and no checksum failed but on the corrupt region. On a
    /// non-durable serve (a durable one's first run scans its
    /// trees into the base checkpoint) each region's level reads are its
    /// sessions' plus its writer's, each one a pool hit or a miss, each
    /// miss one device read. The corrupt region keeps only the first
    /// identity, unpaired with the plan's draws: a read of an id off the
    /// device draws too, and reads no device, and its store counts the
    /// reads of a page whose header does not parse, which its tree
    /// cannot. A durable serve over a corrupt page installs no
    /// checkpoint and counts a failed one, `checkpoint_now` after it
    /// installs none either, and its log's image recovers to
    /// `NoCheckpoint`.
    fn serve<S: Probe>(
        &self,
        make: impl FnMut(usize) -> RTree<R, S>,
    ) -> Result<(Served, Recorders, Option<Image>), String> {
        let (server, log, named) = self.server(&self.cuts, true, make);
        let corrupt_log = log.clone().filter(|_| named.is_some());
        let counters = |server: &PartitionedDqServer<2, S>| -> Vec<_> {
            (0..server.grid().len())
                .map(|r| server.with_region_tree(r, |t| (t.level_counters().snapshot(), t.store().tally())))
                .collect()
        };
        let before = counters(&server);
        let capture = (self.crash.as_ref().zip(log)).map(|(c, log)| {
            let frame = match c.at {
                At::Frame(j) => j,
                At::Unapplied(_) => usize::MAX,
            };
            Arc::new(Capture { frame, log, image: Mutex::default() })
        });
        let recorders: Recorders = (self.sinks.iter())
            .map(|sink| match (sink, &capture) {
                (Sink::None, None) => None,
                _ => Some(Arc::new(Recorder { sink: sink.clone(), got: Mutex::default(), capture: capture.clone() })),
            })
            .collect();
        let (plans, inserts, sinks) = (self.plans.clone(), self.inserts.clone(), recorders.clone());
        let (report, server) = bounded("the concurrent serve", move || {
            let sinks: Vec<Option<&dyn FrameSink>> =
                sinks.iter().map(|s| s.as_deref().map(|s| s as &dyn FrameSink)).collect();
            (server.serve_plans_streamed(&plans, &inserts, &sinks), server)
        })?;
        if let Some(log) = corrupt_log {
            // The base checkpoint's scan met the page: durability failed,
            // the serve did not.
            let stats = log.stats();
            let recovered = log.durable_image().recover_records::<2>().map(drop);
            let none = matches!(recovered, Err(RecoverError::NoCheckpoint));
            if stats.checkpoints != 0 || stats.checkpoint_failures == 0 || server.checkpoint_now() || !none {
                return Err(format!("durable under {:?}: {stats:?}, recovery {recovered:?}", self.corrupt));
            }
        }
        let corrupt = self.corrupt.as_ref().map(|c| c.region % server.grid().len());
        let mut store = Tally::default();
        for (r, ((levels0, t0), (levels, t))) in before.into_iter().zip(counters(&server)).enumerate() {
            if let Some((seed, p)) = self.faults {
                let drawn = match corrupt == Some(r) {
                    true => t.transients,
                    false => transients_drawn(seed + r as u64, p, t.device_reads),
                };
                let stray_checksum = t.corrupt > 0 && corrupt != Some(r);
                if (t.transients, t.retries, t.exhausted) != (drawn, drawn, 0) || stray_checksum {
                    return Err(format!("region {r}: {drawn} transients drawn, {t:?}"));
                }
            }
            let (reads, w, d) = ((levels - levels0).total_reads(), &report.regions[r], t.zip(t0, |a, b| a - b));
            store = store.zip(d, |a, b| a + b);
            let pool_agrees = corrupt == Some(r) || (d.hits + d.misses == reads && d.misses == d.device_reads);
            if self.durable.is_none() && (reads != w.session_reads + w.writer_reads || !pool_agrees) {
                return Err(format!(
                    "region {r}: {reads} level reads, session {} + writer {}, pool {} hits + \
                     {} misses, {} device reads",
                    w.session_reads, w.writer_reads, d.hits, d.misses, d.device_reads
                ));
            }
        }
        let image = capture.zip(self.crash.as_ref()).map(|(c, crash)| {
            let late = || {
                let mut commits = report.wal_appends;
                if let At::Unapplied(batch) = &crash.at {
                    c.log.commit_frame(self.inserts.len() as u64, batch);
                    commits += 1;
                }
                // The serve's log folds all its commits but the last
                // `wal_appends % every` (none at cadence 0); an
                // unapplied commit comes after the last fold.
                let every = self.durable.expect("a durable case");
                let folded = if every == 0 { 0 } else { report.wal_appends - report.wal_appends % every };
                Image { acked: commits as usize, image: c.log.durable_image(), unfolded: Some(commits - folded) }
            };
            c.image.lock().unwrap().take().unwrap_or_else(late)
        });
        Ok((Served { report, store }, recorders, image))
    }

    /// The same concurrent serve through a `NetServer` on loopback, one
    /// client per plan, admitted in plan order: each client reads its
    /// session's `(frame, ids)` stream, byte for byte, and the server
    /// ran one gather of every plan and evicted no one.
    fn wire<S: Probe>(
        &self,
        make: impl FnMut(usize) -> RTree<R, S>,
        concurrent: &PartitionedServeReport,
    ) -> Result<(), String> {
        if self.sinks.iter().any(|s| !matches!(s, Sink::None)) {
            return Err("a wire case has sinks".into());
        }
        let (server, ..) = self.server(&self.cuts, true, make);
        let (plans, inserts) = (self.plans.clone(), self.inserts.clone());
        let (runs, summary) = bounded("the wire serve", move || {
            let config = ServerConfig {
                min_gather: plans.len(),
                gather_window: BOUND,
                write_deadline: BOUND,
                ..ServerConfig::default()
            };
            let handle = NetServer::start(server, vec![inserts], "127.0.0.1:0", config).expect("a loopback port");
            let clients: Vec<NetClient> = (plans.iter())
                .map(|p| {
                    let mut c = NetClient::connect(handle.addr()).expect("connect");
                    c.hello(p, 4).expect("hello").expect("admitted");
                    c
                })
                .collect();
            let threads: Vec<_> = (clients.into_iter())
                .map(|c| std::thread::spawn(move || c.run(ClientBehavior::WellBehaved)))
                .collect();
            let runs: Vec<_> = threads.into_iter().map(|t| t.join().expect("a client")).collect();
            (runs, handle.shutdown())
        })?;
        for (i, (run, c)) in runs.iter().zip(&concurrent.sessions).enumerate() {
            let done = matches!(run.outcome, ClientOutcome::Done { frames, results, .. }
                if (frames as usize, results as usize) == (c.frames.len(), c.results.len()));
            if !done || !streams(c, run.deltas.iter().map(|(f, _, d)| (*f as usize, &d[..]))) {
                return Err(format!("session {i} over the wire: {run:?}, in process {c:?}"));
            }
        }
        if (summary.runs, summary.sessions, summary.evicted) != (1, self.plans.len(), 0) {
            return Err(format!("the wire serve: {summary:?}"));
        }
        Ok(())
    }

    /// The oracle over region stores from `make`; see [`check_served`].
    fn check<S: Probe>(&self, make: impl Fn(usize) -> RTree<R, S> + Copy) -> Result<Served, String> {
        let (served, recorders, image) = self.serve(make)?;
        let concurrent = &served.report;
        if self.surface == Surface::Wire {
            self.wire(make, concurrent)?;
        }
        let (server, _, named) = self.server(&self.cuts, true, bare);
        let serial = server.serve_serial_plans(&self.plans, &self.inserts);
        let clean = self.server(&self.cuts, false, bare).0.serve_serial_plans(&self.plans, &self.inserts);
        let single = self.server(&[], false, bare).0.serve_serial_plans(&self.plans, &self.inserts);
        let writers = |run: &PartitionedServeReport| -> Vec<_> {
            (run.regions.iter())
                .map(|w| (w.inserts_applied, w.writer_reads, w.writer_writes, w.writer_outcome.clone()))
                .collect()
        };
        let tallies = |run: &PartitionedServeReport| (run.frames, run.wal_appends, run.checkpoints, writers(run));
        if tallies(concurrent) != tallies(&serial) {
            let (c, s) = (tallies(concurrent), tallies(&serial));
            return Err(format!("writers: concurrent {c:?}, serial {s:?}"));
        }
        let grid = RegionGrid::from_cuts(0, self.cuts.clone());
        let corrupt = self.corrupt.as_ref().map(|c| c.region % grid.len());
        for (r, (w, want)) in writers(&serial).into_iter().zip(writers(&clean)).enumerate() {
            if corrupt != Some(r) && w != want {
                return Err(format!("region {r}'s writer: {w:?}, fault-free {want:?}"));
            }
        }
        for (path, run) in [("concurrent", concurrent), ("serial", &serial)] {
            let regions: u64 = run.regions.iter().map(|w| w.session_reads).sum();
            let sessions: u64 = run.sessions.iter().map(|s| s.stats.disk_accesses).sum();
            if regions != sessions {
                return Err(format!("{path}: regions count {regions} session reads, sessions {sessions}"));
            }
        }
        // Nothing panics, and every error is the corruption's.
        let stray = |e: &StorageError| match (corrupt, named) {
            (_, Some(page)) => *e != StorageError::Corrupt { page },
            (Some(_), None) => !matches!(e, StorageError::Corrupt { .. }),
            (None, _) => true,
        };
        let outcomes = (concurrent.sessions.iter().zip(&self.sinks))
            .map(|(s, sink)| (&s.outcome, sink.cut().is_some()))
            .chain(concurrent.regions.iter().map(|w| (&w.writer_outcome, false)));
        for (outcome, cut) in outcomes {
            if (matches!(outcome, SessionOutcome::Failed(_)) && !cut) || outcome.errors().iter().any(stray) {
                return Err(format!("a participant ended {outcome:?} under {:?}", self.corrupt));
            }
        }
        let frames = |s: &SessionOutput| -> Vec<_> { s.frames.iter().map(|f| (f.frame, f.results, f.stats)).collect() };
        let all = |o: &SessionOutput| (o.results.clone(), frames(o), o.stats, o.queue_hwm, o.outcome.clone());
        for (i, plan) in self.plans.iter().enumerate() {
            let (c, s, free, one) = (&concurrent.sessions[i], &serial.sessions[i], &clean.sessions[i], &single.sessions[i]);
            let what = format!("session {i} ({:?} joining at {})", plan.spec.kind, plan.join_frame);
            let counted = |o: &SessionOutput| (frame_sets(o), o.results.clone());
            if counted(free) != counted(one) {
                let (free, one) = (counted(free), counted(one));
                return Err(format!("{what}: serial {free:?}, one region {one:?}"));
            }
            let want = owed(self, plan);
            if frame_sets(free) != want {
                return Err(format!("{what}: delivered {:?}, ground truth {want:?}", frame_sets(free)));
            }
            if let Some(r) = corrupt {
                let misses = !grid.route_rect(&plan.spec.trajectory.swept_bounds()).contains(&r);
                let sound = named.is_none() || s.results.iter().all(|id| free.results.contains(id));
                if (misses && all(s) != all(free)) || !sound {
                    return Err(format!("{what} under {:?}: {s:?}, fault-free {free:?}", self.corrupt));
                }
            }
            for (path, o) in [("concurrent", c), ("serial", s)] {
                let mut sum = QueryStats::default();
                o.frames.iter().for_each(|f| sum += f.stats);
                let results: usize = o.frames.iter().map(|f| f.results).sum();
                if (sum, results) != (o.stats, o.results.len()) {
                    return Err(format!("{what}, {path}: frames sum to {sum:?} over {results} results, session {o:?}"));
                }
            }
            let cut = self.sinks[i].cut().and_then(|j| s.frames.iter().position(|f| f.frame == j));
            let agree = match cut {
                None => all(c) == all(s),
                Some(n) => {
                    let m: usize = s.frames[..=n].iter().map(|f| f.results).sum();
                    let prefix = (s.results[..m].to_vec(), frames(s)[..=n].to_vec());
                    (c.results.clone(), frames(c)) == prefix && matches!(c.outcome, SessionOutcome::Failed(_))
                }
            };
            if !agree {
                return Err(format!("{what}, sink {:?}: concurrent {c:?}, serial {s:?}", self.sinks[i]));
            }
            if let Some(rec) = &recorders[i] {
                let got = rec.got.lock().unwrap();
                if !streams(c, got.iter().map(|(f, d)| (*f, &d[..]))) {
                    return Err(format!("{what}: the sink saw {got:?}, the session reported {c:?}"));
                }
            }
        }
        if let Some((crash, image)) = self.crash.as_ref().zip(image) {
            self.recover(crash, image)?;
        }
        Ok(served)
    }

    /// A crash's image, damaged by its tail, recovered. The run's
    /// inserts are the case's, then an unapplied batch. Undamaged, the
    /// image holds the preload and a committed prefix `inserts[..n]` as
    /// a multiset, duplicates included, `n` at least the frames acked
    /// before the capture; it reports a clean tail, and its WAL holds no
    /// more frames than the cadence — exactly the unfolded ones, when
    /// captured after the serve. Damaged, it recovers what the image cut
    /// at the last record boundary at or before the damage does — the
    /// last complete commit — and reports a clean tail only when cut at
    /// a boundary. The rest of the run, every plan joining at `n` at the
    /// earliest, is then a case of its own on the recovered server: its
    /// base records packed under the crash's grid, its replayed frames
    /// served first.
    fn recover(&self, crash: &Crash, captured: Image) -> Result<(), String> {
        let mut run = self.inserts.clone();
        if let At::Unapplied(batch) = &crash.at {
            run.push(batch.clone());
        }
        let recovered = |image: &DurableImage| {
            let (base, frames, report) = image.recover_records::<2>().map_err(|e| format!("recovery: {e}"))?;
            let n = prefix(&self.preload, &run, &base, &frames)?;
            Ok::<_, String>((base, frames, report, n))
        };
        let Image { acked, image, unfolded } = captured;
        let (_, _, report, n) = recovered(&image)?;
        let every = self.durable.expect("a durable case");
        let replayed = report.replayed_frames;
        let cadence = unfolded.map_or(every == 0 || replayed <= every, |u| replayed == u);
        if !report.tail.is_clean() || n < acked.min(run.len()) || !cadence {
            return Err(format!(
                "{n} frames recovered, {replayed} replayed, {:?}; {acked} acked before the capture, \
                 {unfolded:?} unfolded, cadence {every}",
                report.tail
            ));
        }
        // The WAL's 8-byte header, then every record's end.
        let mut ends = vec![8];
        let _ = scan(&image.wal, |_, payload| ends.push(ends[ends.len() - 1] + WAL_RECORD_OVERHEAD + payload.len()));
        let (len, records) = (image.wal.len(), image.wal.len() - 8);
        let mut damaged = image.clone();
        let (at, flipped) = match crash.tail {
            Tail::Clean => (len, false),
            Tail::Cut(b) => (len - b.min(records), false),
            Tail::Flip(b) => (len - b.max(1).min(records), records > 0),
        };
        match flipped {
            true => damaged.wal[at] ^= 0x40,
            false => damaged.wal.truncate(at),
        }
        let landing = ends.iter().copied().filter(|&e| e <= at).max().expect("the header");
        let mut last = image;
        last.wal.truncate(landing);
        let (base, frames, report, n) = recovered(&damaged)?;
        let (want_base, want_frames, ..) = recovered(&last)?;
        let clean = report.tail.is_clean();
        if (&base, &frames) != (&want_base, &want_frames) || clean != (!flipped && at == landing) {
            return Err(format!("{:?} at byte {at}: {n} frames recovered, clean {clean}", crash.tail));
        }
        let mut inserts = run;
        inserts[..n].iter_mut().for_each(Vec::clear);
        for (k, batch) in frames {
            if let Some(slot) = inserts.get_mut(k as usize) {
                *slot = batch;
            }
        }
        let plans: Vec<_> = self.plans.iter().map(|p| p.clone().join_at(p.join_frame.max(n))).collect();
        let rest = Case {
            preload: base,
            inserts,
            cuts: crash.cuts.clone(),
            faults: self.faults,
            sinks: vec![Sink::None; plans.len()],
            plans,
            ..Case::new(Vec::new(), Vec::new(), Vec::new())
        };
        check_served(&rest).map(drop).map_err(|e| format!("served after recovering {n} frames: {e}"))
    }
}

/// The `n` for which `base` and the replayed `frames` are exactly
/// `preload` and `inserts[..n]`, as multisets.
fn prefix(preload: &[R], inserts: &[Batch], base: &[R], frames: &[(u64, Batch)]) -> Result<usize, String> {
    let got: Vec<&R> = base.iter().chain(frames.iter().flat_map(|(_, b)| b.iter().map(|(r, _)| r))).collect();
    let held = |n: usize| preload.len() + inserts[..n].iter().map(Vec::len).sum::<usize>();
    let n = (0..=inserts.len()).rev().find(|&n| held(n) == got.len());
    let want = |n: usize| preload.iter().chain(inserts[..n].iter().flatten().map(|(r, _)| r));
    match n {
        Some(n) if multiset(got.iter().copied()) == multiset(want(n)) => Ok(n),
        _ => Err(format!("recovered {} records, no committed prefix", got.len())),
    }
}

/// Records as sorted encoded bytes, so duplicates count.
pub fn multiset<'a>(recs: impl Iterator<Item = &'a R>) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = recs
        .map(|r| {
            let mut buf = Vec::new();
            r.encode(&mut buf);
            buf
        })
        .collect();
    out.sort_unstable();
    out
}

/// What `plan`'s session must deliver, as `(global frame, sorted ids)`:
/// the record-list [`truth`] from its join frame on, PDQ frame `k` over
/// `[t_k, t_{k+1}]`, NPDQ frame `k` exactly `S_k ∖ S_{k-1}` at the
/// instant `t_k`.
fn owed(case: &Case, plan: &SessionPlan<2>) -> Frames {
    let (traj, times, join) = (&plan.spec.trajectory, &plan.spec.frame_times, plan.join_frame);
    let batches: Vec<Vec<R>> = case.inserts.iter().map(|b| b.iter().map(|(r, _)| *r).collect()).collect();
    let sorted = |mut ids: Vec<Ids>| {
        ids.sort_unstable();
        ids
    };
    match plan.spec.kind {
        SessionKind::Pdq => {
            let windows: Vec<_> = times.windows(2).map(|w| (w[0], w[1])).collect();
            let visibility = |r: &R| traj.overlap_segment(&r.seg);
            (truth::pdq(&case.preload, &batches, &windows, join, R::ids, visibility).into_iter())
                .map(|(k, due)| (k, sorted(due.into_iter().map(|(id, _)| id).collect())))
                .collect()
        }
        SessionKind::Npdq => {
            let queries: Vec<_> = times.iter().map(|&t| SnapshotQuery::at_instant(traj.window_at(t), t)).collect();
            (truth::npdq(&case.preload, &batches, &queries, join).into_iter())
                .map(|s| (s.frame, sorted(s.fresh.into_iter().collect())))
                .collect()
        }
    }
}

/// The oracle, over one case. The concurrent serve returns within
/// [`BOUND`], its stores reconcile ([`Case::serve`]), and over the wire
/// it streams the same deltas ([`Case::wire`]). Its writer and
/// durability tallies are those of the serial serve, whose stores carry
/// the same corruption. No participant fails but by its sink's cut, and
/// every error is the corruption's: some `Corrupt`, or the named page's.
/// A session no sink cut matches the serial one on everything but the
/// wall clock; one its sink cut at frame `j` holds the serial stream's
/// frames through `j` and has failed. Every sink's deltas are its
/// session's frames. Σ frame stats is the session's stats on both
/// paths, and the regions' session reads are the sessions' own disk
/// accesses. The fault-free serial streams are the one-region serve's,
/// order included, and frame for frame the record-list truth. Under
/// corruption, a session whose lanes miss the corrupt region and every
/// other region's writer are the fault-free serve's, and under a named
/// mutation every session delivers a subset of its fault-free results.
/// A crash then recovers and serves the rest ([`Case::recover`]).
pub fn check_served(case: &Case) -> Result<Served, String> {
    if case.crash.is_some() && case.durable.is_none() {
        return Err("a crash on a case that is not durable".into());
    }
    match case.faults {
        Some((seed, p)) => case.check(move |r| {
            let faulty = FaultyStore::new(Pager::with_page_size(256), FaultPlan::transient(seed + r as u64, p));
            let retry = RetryPolicy { max_attempts: 8, base_backoff: Duration::from_micros(1) };
            let pool = ShardedBufferPool::new(ChecksumStore::new(faulty), 8, 2).with_retry(retry);
            RTree::new(pool, RTreeConfig::default())
        }),
        None => case.check(bare),
    }
}

/// Whether `deltas`, `(frame, ids)` in arrival order, are `o`'s frames
/// and results, byte for byte.
fn streams<'a>(o: &SessionOutput, deltas: impl Iterator<Item = (usize, &'a [(u32, u32)])>) -> bool {
    let (mut frames, mut ids) = (Vec::new(), Vec::new());
    for (frame, d) in deltas {
        frames.push((frame, d.len()));
        ids.extend_from_slice(d);
    }
    frames == o.frames.iter().map(|f| (f.frame, f.results)).collect::<Vec<_>>() && ids == o.results
}

/// Per frame: the global frame index and its delivered ids, sorted.
fn frame_sets(s: &SessionOutput) -> Frames {
    let mut off = 0;
    s.frames
        .iter()
        .map(|f| {
            let mut set = s.results[off..off + f.results].to_vec();
            off += f.results;
            set.sort_unstable();
            (f.frame, set)
        })
        .collect()
}
