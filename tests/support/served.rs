//! The serving core's one oracle. [`check_served`] runs one [`Case`] —
//! records, grid, stores, durability, and every session's plan and
//! consumer — concurrently and serially, and holds both to each other,
//! to the one-region serve, and to a ground truth computed from the
//! record list without running any engine. `service.rs` draws cases
//! from a seed; the other suites pin the hand-picked ones.

use std::collections::HashSet;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dq_repro::mobiquery::{
    DurableLog, FrameDelta, FrameSink, MotionRecord, PartitionedDqServer, PartitionedServeReport, QueryStats,
    RegionGrid, SessionKind, SessionOutcome, SessionOutput, SessionPlan, SessionSpec, SinkVerdict,
    SnapshotQuery,
};
use dq_repro::rtree::{RTree, RTreeConfig};
use dq_repro::storage::{
    ChecksumStore, FaultPlan, FaultyStore, PageStore, Pager, RetryPolicy, ShardedBufferPool,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use super::R;

/// One served case.
#[derive(Debug)]
pub struct Case {
    pub preload: Vec<R>,
    /// Batch `k` lands before frame `k`, stamped with a `now` up to `t_k`.
    pub inserts: Vec<Vec<(R, f64)>>,
    pub cuts: Vec<f64>,
    /// `(seed, p)`: region `r` sits on the chaos stack, transients at
    /// rate `p` from seed `seed + r` under a retrying pool. `None`: bare
    /// 256-byte pagers.
    pub faults: Option<(u64, f64)>,
    /// The WAL's checkpoint cadence, when the serve is durable.
    pub durable: Option<u64>,
    pub plans: Vec<SessionPlan<2>>,
    /// One per plan.
    pub sinks: Vec<Sink>,
}

impl Case {
    /// `specs` served from their first frame over `preload` and
    /// `inserts`: one region, bare pagers, not durable, no sinks.
    pub fn new(preload: Vec<R>, inserts: Vec<Vec<(R, f64)>>, specs: Vec<SessionSpec<2>>) -> Self {
        Case {
            preload,
            inserts,
            cuts: Vec::new(),
            faults: None,
            durable: None,
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

/// Per frame: the global frame index and its ids.
type Frames = Vec<(usize, Vec<(u32, u32)>)>;

/// A [`Sink`] at work, keeping every `(frame, delta)` it was offered.
struct Recorder {
    sink: Sink,
    got: Mutex<Frames>,
}

impl FrameSink for Recorder {
    fn on_frame(&self, d: &FrameDelta<'_>) -> SinkVerdict {
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
}

/// A bare pager: every node read is a miss and a device read.
impl Probe for Pager {
    fn tally(&self) -> Tally {
        let reads = self.io().reads;
        Tally { misses: reads, device_reads: reads, ..Tally::default() }
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

/// Per session, the recorder that is its sink, if it has one.
type Recorders = Vec<Option<Arc<Recorder>>>;

impl Case {
    /// The case's server under `cuts`, region trees from `make`, durable
    /// if the case is.
    fn server<S: PageStore>(
        &self,
        cuts: &[f64],
        make: impl FnMut(usize) -> RTree<R, S>,
    ) -> PartitionedDqServer<2, S> {
        let grid = RegionGrid::from_cuts(0, cuts.to_vec());
        let server = PartitionedDqServer::build(grid, &self.preload, make);
        match self.durable {
            Some(every) => server.with_durability(Arc::new(DurableLog::new(every))),
            None => server,
        }
    }

    /// The concurrent serve over region stores from `make`, on its own
    /// thread under a bounded wait, then what the stores count. Under
    /// faults every transient the plan drew was retried and no budget ran
    /// out. On a non-durable serve (a durable one's first run scans its
    /// trees into the base checkpoint) each region's level reads are its
    /// sessions' plus its writer's, each one a pool hit or a miss, each
    /// miss one device read.
    fn serve<S: Probe>(
        &self,
        make: impl FnMut(usize) -> RTree<R, S>,
    ) -> Result<(Served, Recorders), String> {
        let server = self.server(&self.cuts, make);
        let counters = |server: &PartitionedDqServer<2, S>| -> Vec<_> {
            (0..server.grid().len())
                .map(|r| server.with_region_tree(r, |t| (t.level_counters().snapshot(), t.store().tally())))
                .collect()
        };
        let before = counters(&server);
        let recorders: Recorders = (self.sinks.iter())
            .map(|sink| match sink {
                Sink::None => None,
                sink => Some(Arc::new(Recorder { sink: sink.clone(), got: Mutex::default() })),
            })
            .collect();
        let (plans, inserts, sinks) = (self.plans.clone(), self.inserts.clone(), recorders.clone());
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            let sinks: Vec<Option<&dyn FrameSink>> =
                sinks.iter().map(|s| s.as_deref().map(|s| s as &dyn FrameSink)).collect();
            let report = server.serve_plans_streamed(&plans, &inserts, &sinks);
            let _ = done.send((report, server));
        });
        let (report, server) = finished.recv_timeout(BOUND).map_err(|e| match e {
            RecvTimeoutError::Timeout => format!("the concurrent serve is still running after {BOUND:?}"),
            RecvTimeoutError::Disconnected => "the concurrent serve panicked".to_string(),
        })?;
        let mut store = Tally::default();
        for (r, ((levels0, t0), (levels, t))) in before.into_iter().zip(counters(&server)).enumerate() {
            if let Some((seed, p)) = self.faults {
                let drawn = transients_drawn(seed + r as u64, p, t.device_reads);
                if (t.transients, t.retries, t.exhausted, t.corrupt) != (drawn, drawn, 0, 0) {
                    return Err(format!("region {r}: {drawn} transients drawn, {t:?}"));
                }
            }
            let (reads, w, d) = ((levels - levels0).total_reads(), &report.regions[r], t.zip(t0, |a, b| a - b));
            store = store.zip(d, |a, b| a + b);
            if self.durable.is_none()
                && (reads != w.session_reads + w.writer_reads || d.hits + d.misses != reads || d.misses != d.device_reads)
            {
                return Err(format!(
                    "region {r}: {reads} level reads, session {} + writer {}, pool {} hits + \
                     {} misses, {} device reads",
                    w.session_reads, w.writer_reads, d.hits, d.misses, d.device_reads
                ));
            }
        }
        Ok((Served { report, store }, recorders))
    }
}

/// What `plan`'s session must deliver, as `(global frame, sorted ids)`,
/// from the record list alone, over the records resident at each frame
/// from its join frame on: PDQ frame `k` is every record not yet
/// delivered whose overlap with the trajectory meets `[t_k, t_{k+1}]`;
/// NPDQ frame `k` is `S_k ∖ S_{k-1}`, with `S_k` what the snapshot at
/// `t_k` matches — all of `S_k` at the join frame.
fn truth(case: &Case, plan: &SessionPlan<2>) -> Frames {
    let (traj, times, join) = (&plan.spec.trajectory, &plan.spec.frame_times, plan.join_frame);
    let mut resident = case.preload.clone();
    let (mut delivered, mut seen) = (HashSet::<(u32, u32)>::new(), HashSet::new());
    let mut frames = Vec::new();
    for (k, &t) in times.iter().enumerate() {
        resident.extend(case.inserts.get(k).into_iter().flatten().map(|(r, _)| *r));
        let mut want: Vec<_> = match plan.spec.kind {
            SessionKind::Pdq => {
                let Some(&t1) = times.get(k + 1) else { break };
                (resident.iter())
                    .filter(|r| !delivered.contains(&r.ids()))
                    .filter(|r| {
                        let ts = traj.overlap_segment(&r.seg);
                        ts.start().is_some_and(|s| s <= t1) && ts.end().is_some_and(|e| e >= t)
                    })
                    .map(R::ids)
                    .collect()
            }
            SessionKind::Npdq => {
                let q = SnapshotQuery::at_instant(traj.window_at(t), t);
                let visible: HashSet<_> =
                    resident.iter().filter(|r| q.matches_segment(&r.seg)).map(R::ids).collect();
                let fresh = visible.iter().filter(|&id| k == join || !seen.contains(id)).copied().collect();
                seen = visible;
                fresh
            }
        };
        if k >= join {
            want.sort_unstable();
            delivered.extend(&want);
            frames.push((k, want));
        }
    }
    frames
}

/// The oracle, over one case. The concurrent serve returns within
/// [`BOUND`], and its stores reconcile (see [`Case::serve`]). Its writer
/// and durability tallies are the serial serve's. A session no sink cut
/// matches the serial one on everything but the wall clock; one its sink
/// cut at frame `j` — a detach or a panic — holds the serial stream's
/// frames through `j` and has failed. Every sink's deltas are its
/// session's frames, concatenated. Σ frame stats is the session's stats
/// on both paths, and the regions' session reads are the sessions' own
/// disk accesses. The serial streams are the one-region serve's, order
/// included, and frame for frame the record-list [`truth`].
pub fn check_served(case: &Case) -> Result<Served, String> {
    let (served, recorders) = match case.faults {
        Some((seed, p)) => case.serve(|r| {
            let faulty = FaultyStore::new(Pager::with_page_size(256), FaultPlan::transient(seed + r as u64, p));
            let retry = RetryPolicy { max_attempts: 8, base_backoff: Duration::from_micros(1) };
            let pool = ShardedBufferPool::new(ChecksumStore::new(faulty), 8, 2).with_retry(retry);
            RTree::new(pool, RTreeConfig::default())
        })?,
        None => case.serve(bare)?,
    };
    let concurrent = &served.report;
    let serial = case.server(&case.cuts, bare).serve_serial_plans(&case.plans, &case.inserts);
    let single = case.server(&[], bare).serve_serial_plans(&case.plans, &case.inserts);
    let tallies = |run: &PartitionedServeReport| {
        let regions: Vec<_> = (run.regions.iter())
            .map(|w| (w.inserts_applied, w.writer_reads, w.writer_writes, w.writer_outcome.clone()))
            .collect();
        (run.frames, run.wal_appends, run.checkpoints, regions)
    };
    if tallies(concurrent) != tallies(&serial) {
        let (c, s) = (tallies(concurrent), tallies(&serial));
        return Err(format!("writers: concurrent {c:?}, serial {s:?}"));
    }
    for (path, run) in [("concurrent", concurrent), ("serial", &serial)] {
        let regions: u64 = run.regions.iter().map(|w| w.session_reads).sum();
        let sessions: u64 = run.sessions.iter().map(|s| s.stats.disk_accesses).sum();
        if regions != sessions {
            return Err(format!("{path}: regions count {regions} session reads, sessions {sessions}"));
        }
    }
    let frames = |s: &SessionOutput| -> Vec<_> { s.frames.iter().map(|f| (f.frame, f.results, f.stats)).collect() };
    for (i, plan) in case.plans.iter().enumerate() {
        let (c, s, one) = (&concurrent.sessions[i], &serial.sessions[i], &single.sessions[i]);
        let what = format!("session {i} ({:?} joining at {})", plan.spec.kind, plan.join_frame);
        let counted = |o: &SessionOutput| (frame_sets(o), o.results.clone());
        if counted(s) != counted(one) {
            let (s, one) = (counted(s), counted(one));
            return Err(format!("{what}: serial {s:?}, one region {one:?}"));
        }
        let want = truth(case, plan);
        if frame_sets(s) != want {
            return Err(format!("{what}: delivered {:?}, ground truth {want:?}", frame_sets(s)));
        }
        for (path, o) in [("concurrent", c), ("serial", s)] {
            let mut sum = QueryStats::default();
            o.frames.iter().for_each(|f| sum += f.stats);
            let results: usize = o.frames.iter().map(|f| f.results).sum();
            if (sum, results) != (o.stats, o.results.len()) {
                return Err(format!("{what}, {path}: frames sum to {sum:?} over {results} results, session {o:?}"));
            }
        }
        let cut = case.sinks[i].cut().and_then(|j| s.frames.iter().position(|f| f.frame == j));
        let agree = match cut {
            None => {
                let all = |o: &SessionOutput| (o.results.clone(), frames(o), o.stats, o.queue_hwm, o.outcome.clone());
                all(c) == all(s)
            }
            Some(n) => {
                let m: usize = s.frames[..=n].iter().map(|f| f.results).sum();
                let prefix = (s.results[..m].to_vec(), frames(s)[..=n].to_vec());
                (c.results.clone(), frames(c)) == prefix && matches!(c.outcome, SessionOutcome::Failed(_))
            }
        };
        if !agree {
            return Err(format!("{what}, sink {:?}: concurrent {c:?}, serial {s:?}", case.sinks[i]));
        }
        if let Some(rec) = &recorders[i] {
            let got = rec.got.lock().unwrap();
            let offered: Vec<_> = got.iter().map(|(f, _)| *f).collect();
            let streamed: Vec<_> = got.iter().flat_map(|(_, d)| d.iter().copied()).collect();
            if offered != c.frames.iter().map(|f| f.frame).collect::<Vec<_>>() || streamed != c.results {
                return Err(format!("{what}: the sink saw {got:?}, the session reported {c:?}"));
            }
        }
    }
    Ok(served)
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
