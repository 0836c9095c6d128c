//! The library engines' oracle. [`check_engine`] runs one
//! [`EngineCase`] — an engine family, a page size, how the preload is
//! built, the batches inserted between frames, a trajectory and the
//! frame windows — frame by frame over a tree whose store logs every
//! page read, and holds each frame to the record-list [`truth`]. `engines.rs`
//! draws cases from a seed and pins the hand-picked ones.

use std::collections::HashSet;
use std::sync::Mutex;

use dq_repro::mobiquery::{
    KeySnapshot, MotionRecord, NpdqEngine, PdqEngine, PdqRecord, PdqResult, QueryStats, SnapshotQuery, Trajectory,
};
use dq_repro::rtree::bulk::bulk_load;
use dq_repro::rtree::{DtaSegmentRecord, RTree, RTreeConfig};
use dq_repro::stkit::TimeSet;
use dq_repro::storage::{IoSnapshot, PageId, PageRef, PageStore, Pager, StorageError};
use dq_repro::tprtree::engine::overlap_trajectory_tpbox;
use dq_repro::tprtree::TprRecord;

use super::truth::{self, Ids};
use super::R;

/// Which engine a case runs, over which records.
#[derive(Clone, Copy, Debug)]
pub enum Family {
    /// `PdqEngine` over motion segments (NSI).
    Pdq,
    /// SPDQ: `PdqEngine` over `Trajectory::inflate(δ)`.
    Spdq(f64),
    /// `TprDynamicQuery` over `TprRecord`s, each the segment's motion.
    Tpr,
    /// `NpdqEngine` over a DTA or an NSI tree, with open (Fig. 5(a)) or
    /// instant snapshots.
    Npdq { dta: bool, open: bool },
}

/// How the preload becomes a tree.
#[derive(Clone, Copy, Debug)]
pub enum Build {
    /// One insert per record, in order.
    Inserted,
    /// Packed over every key axis.
    Packed,
    /// Packed over space alone (the paper's DTA clustering).
    PackedBySpace,
}

/// One library case.
#[derive(Clone, Debug)]
pub struct EngineCase {
    pub family: Family,
    pub page_size: usize,
    pub build: Build,
    pub preload: Vec<R>,
    /// Batch `k` is inserted before frame `k`, and a PDQ is told of each
    /// insert.
    pub inserts: Vec<Vec<R>>,
    pub trajectory: Trajectory<2>,
    /// Frame `k` asks for `[t_start, t_end]`; an NPDQ frame asks at
    /// `t_start`. Ascending; a window may be empty or skip ahead.
    pub windows: Vec<(f64, f64)>,
}

impl EngineCase {
    /// `family` over `preload` on 4 KiB pages, inserted one by one, no
    /// batches, one frame per consecutive pair of `times`.
    pub fn new(family: Family, preload: Vec<R>, trajectory: Trajectory<2>, times: &[f64]) -> Self {
        EngineCase {
            family,
            page_size: 4096,
            build: Build::Inserted,
            preload,
            inserts: Vec::new(),
            trajectory,
            windows: times.windows(2).map(|w| (w[0], w[1])).collect(),
        }
    }
}

/// What a case's run delivered and cost.
#[derive(Debug, Default)]
pub struct EngineRun {
    /// Per frame, what it delivered, in delivery order, each with its
    /// visibility (empty for NPDQ).
    pub frames: Vec<Vec<(Ids, TimeSet)>>,
    /// Σ frame stats.
    pub stats: QueryStats,
    /// NPDQ: what a naive engine would deliver, `Σ |S_k|`.
    pub naive: usize,
    /// The tree's pages after the run: its nodes, as ids are dense.
    pub pages: u32,
    /// The tree's height after the run.
    pub height: u32,
}

impl EngineRun {
    /// Objects delivered over the run.
    pub fn delivered(&self) -> usize {
        self.frames.iter().map(Vec::len).sum()
    }
}

/// A pager that logs the id of every page read through it.
struct ReadLog {
    inner: Pager,
    reads: Mutex<Vec<PageId>>,
}

impl ReadLog {
    /// The pages read since the last call.
    fn take(&self) -> Vec<PageId> {
        std::mem::take(&mut self.reads.lock().unwrap())
    }
}

impl PageStore for ReadLog {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn try_read_page(&self, id: PageId) -> Result<PageRef, StorageError> {
        self.reads.lock().unwrap().push(id);
        self.inner.try_read_page(id)
    }
    fn write(&self, id: PageId, data: &[u8]) {
        self.inner.write(id, data)
    }
    fn try_alloc(&self) -> Result<PageId, StorageError> {
        self.inner.try_alloc()
    }
    fn io(&self) -> IoSnapshot {
        self.inner.io()
    }
}

/// The case's preload as a tree of `T`s over a fresh [`ReadLog`].
fn tree<T: dq_repro::rtree::Record>(case: &EngineCase, preload: Vec<T>) -> RTree<T, ReadLog> {
    let store = ReadLog { inner: Pager::with_page_size(case.page_size), reads: Mutex::default() };
    let by_space = RTreeConfig { bulk_leading_axes: Some(2), ..RTreeConfig::default() };
    match case.build {
        Build::Inserted => {
            let mut tree = RTree::new(store, RTreeConfig::default());
            preload.into_iter().for_each(|r| _ = tree.insert(r, 0.0));
            tree
        }
        Build::Packed => bulk_load(store, RTreeConfig::default(), preload),
        Build::PackedBySpace => bulk_load(store, by_space, preload),
    }
}

/// The TPR motion of a segment: from its start point at its velocity.
fn tpr(r: &R) -> TprRecord {
    let (a, b, life) = (r.seg.x0, r.seg.end_position(), r.seg.t);
    let dt = life.length();
    let v = [0, 1].map(|i| if dt > 0.0 { (b[i] - a[i]) / dt } else { 0.0 });
    TprRecord::new(r.oid, r.seq, life, a, v)
}

fn dta(r: &R) -> DtaSegmentRecord<2> {
    DtaSegmentRecord::new(r.oid, r.seq, r.seg.t, r.seg.x0, r.seg.end_position())
}

/// The oracle, over one case.
///
/// PDQ, SPDQ and TPR: frame `k` is the truth exactly, each answer with
/// its visibility, delivered in entry order; no object arrives twice and
/// no page is read twice; a frame's stats count the pages it read and
/// the objects it delivered, and nothing is counted between frames.
/// Without inserts, and with windows that cut the span without a gap,
/// one frame over the whole span reads the same pages in the same order
/// and delivers the same answers (§4.1: "independent of frame rate").
/// SPDQ's truth inflates each key window by `Rect::inflate`, not through
/// `Trajectory::inflate`, and its answers hold every plain PDQ answer;
/// at δ = 0 they are plain PDQ's, in the same order at the same cost.
///
/// NPDQ: frame `k` holds `S_k ∖ S_{k-1}` and lies inside `S_k` — exactly
/// `S_k ∖ S_{k-1}` when no batch landed since the previous frame — with
/// no object twice in a frame, and its stats count its pages and
/// deliveries.
///
/// Every family but TPR: the tree validates after the run (ROADMAP
/// item 13 has TPR's open rounding finding).
pub fn check_engine(case: &EngineCase) -> Result<EngineRun, String> {
    let traj = &case.trajectory;
    match case.family {
        Family::Pdq => pdq(case, traj, |r: &R| *r, |r: &R| traj.overlap_segment(&r.seg), true),
        Family::Spdq(delta) => {
            let keys = traj.keys().iter().map(|k| KeySnapshot { t: k.t, window: k.window.inflate(delta) });
            let fat = Trajectory::new(keys.collect());
            let run = pdq(case, &traj.inflate(delta), |r: &R| *r, |r: &R| fat.overlap_segment(&r.seg), true)?;
            let plain = pdq(case, traj, |r: &R| *r, |r: &R| traj.overlap_segment(&r.seg), true)?;
            let union = |run: &EngineRun| -> HashSet<Ids> { run.frames.iter().flatten().map(|(id, _)| *id).collect() };
            if delta == 0.0 && (run.frames != plain.frames || run.stats != plain.stats) {
                return Err(format!("SPDQ at δ = 0: {:?} for {:?}, plain PDQ: {:?} for {:?}", run.frames, run.stats, plain.frames, plain.stats));
            }
            let (fat, plain) = (union(&run), union(&plain));
            match plain.difference(&fat).next() {
                Some(id) => Err(format!("SPDQ never delivered {id:?}, which plain PDQ did")),
                None => Ok(run),
            }
        }
        // Not validated: `TpBox::contains` rejects a parent whose stored
        // `f32` edge lies a fraction of an ulp inside its child's cover.
        Family::Tpr => pdq(case, traj, tpr, |r: &TprRecord| overlap_trajectory_tpbox(traj, &r.tpbox()), false),
        Family::Npdq { dta: true, open } => npdq(case, open, dta),
        Family::Npdq { dta: false, open } => npdq(case, open, |r: &R| *r),
    }
}

/// A PDQ over `traj` on the case's records as `T`s; see [`check_engine`].
fn pdq<T: PdqRecord<2>>(
    case: &EngineCase,
    traj: &Trajectory<2>,
    make: impl Fn(&R) -> T,
    visibility: impl Fn(&T) -> TimeSet,
    validate: bool,
) -> Result<EngineRun, String> {
    let preload: Vec<T> = case.preload.iter().map(&make).collect();
    let batches: Vec<Vec<T>> = case.inserts.iter().map(|b| b.iter().map(&make).collect()).collect();
    let owed = truth::pdq(&preload, &batches, &case.windows, 0, T::identity, visibility);
    let mut tree = tree(case, preload);
    let mut engine = PdqEngine::start(&tree, traj.clone());
    let (mut run, mut pages) = (EngineRun::default(), Vec::new());
    for ((k, &(t0, t1)), (_, want)) in case.windows.iter().enumerate().zip(owed) {
        for rec in batches.get(k).into_iter().flatten() {
            engine.notify(&tree.insert(*rec, 0.0));
        }
        if engine.stats() != QueryStats::default() {
            return Err(format!("frame {k}: {:?} counted between frames", engine.stats()));
        }
        tree.store().take();
        let mut got = Vec::new();
        engine.try_drain_window_into(&tree, t0, t1, &mut got).map_err(|e| format!("frame {k}: {e}"))?;
        let (read, stats) = (tree.store().take(), engine.take_stats());
        let got: Vec<(Ids, TimeSet)> = got.into_iter().map(|PdqResult { record, visibility }| (record.identity(), visibility)).collect();
        let mut entry = got.clone();
        entry.sort_by(|a, b| a.1.start().unwrap().total_cmp(&b.1.start().unwrap()).then(a.0.cmp(&b.0)));
        if entry != want {
            return Err(format!("frame {k} [{t0}, {t1}]: delivered {:?}, truth {:?}", ids(&got), ids(&want)));
        }
        if got.windows(2).any(|w| w[0].1.start() > w[1].1.start().map(|s| s + 1e-12)) {
            return Err(format!("frame {k}: {:?} out of entry order", ids(&got)));
        }
        if (stats.disk_accesses, stats.results) != (read.len() as u64, got.len() as u64) {
            return Err(format!("frame {k}: {stats:?} over {} pages read, {} delivered", read.len(), got.len()));
        }
        run.stats += stats;
        run.frames.push(got);
        pages.extend(read);
    }
    let mut distinct = pages.clone();
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.len() != pages.len() {
        return Err(format!("{} pages read, {} distinct", pages.len(), distinct.len()));
    }
    let gapless = case.windows.windows(2).all(|w| w[0].1 == w[1].0);
    if let (true, true, Some(first), Some(last)) =
        (case.inserts.iter().all(Vec::is_empty), gapless, case.windows.first(), case.windows.last())
    {
        let mut one = PdqEngine::start(&tree, traj.clone());
        let mut all = Vec::new();
        one.try_drain_window_into(&tree, first.0, last.1, &mut all).map_err(|e| format!("one frame: {e}"))?;
        let sorted = |mut v: Vec<(Ids, TimeSet)>| {
            v.sort_by_key(|(id, _)| *id);
            v
        };
        let all = sorted(all.into_iter().map(|r| (r.record.identity(), r.visibility)).collect());
        let (one_pages, many) = (tree.store().take(), sorted(run.frames.concat()));
        if one_pages != pages || all != many {
            return Err(format!(
                "one frame read {one_pages:?} for {:?}; {} frames read {pages:?} for {:?}",
                ids(&all),
                case.windows.len(),
                ids(&many)
            ));
        }
    }
    finish(run, &tree, validate)
}

/// An NPDQ on the case's records as `T`s; see [`check_engine`].
fn npdq<T: MotionRecord<2>>(case: &EngineCase, open: bool, make: impl Fn(&R) -> T) -> Result<EngineRun, String> {
    let shape = if open { SnapshotQuery::open_from } else { SnapshotQuery::at_instant };
    let queries: Vec<_> = case.windows.iter().map(|&(t, _)| shape(case.trajectory.window_at(t), t)).collect();
    let owed = truth::npdq(&case.preload, &case.inserts, &queries, 0);
    let mut tree = tree(case, case.preload.iter().map(&make).collect());
    let (mut engine, mut run) = (NpdqEngine::new(), EngineRun::default());
    for ((k, q), want) in queries.iter().enumerate().zip(owed) {
        let batch = case.inserts.get(k).map_or(&[][..], Vec::as_slice);
        batch.iter().for_each(|r| _ = tree.insert(make(r), 0.0));
        tree.store().take();
        let mut got = Vec::new();
        let stats = engine.execute(&tree, q, |r| got.push(r.ids()));
        let read = tree.store().take();
        let set: HashSet<Ids> = got.iter().copied().collect();
        let lost: Vec<_> = want.fresh.difference(&set).collect();
        let stray: Vec<_> = set.difference(&want.visible).collect();
        let repeated = k > 0 && batch.is_empty() && set != want.fresh;
        if !lost.is_empty() || !stray.is_empty() || repeated || set.len() != got.len() {
            return Err(format!("frame {k} at {:?}: lost {lost:?}, stray {stray:?}, delivered {got:?}", q.time));
        }
        if (stats.disk_accesses, stats.results) != (read.len() as u64, got.len() as u64) {
            return Err(format!("frame {k}: {stats:?} over {} pages read, {} delivered", read.len(), got.len()));
        }
        run.naive += want.visible.len();
        run.stats += stats;
        run.frames.push(got.into_iter().map(|id| (id, TimeSet::empty())).collect());
    }
    finish(run, &tree, true)
}

/// `run` with the tree's size, once the tree validates (if asked to).
fn finish<T: dq_repro::rtree::Record>(
    mut run: EngineRun,
    tree: &RTree<T, ReadLog>,
    validate: bool,
) -> Result<EngineRun, String> {
    if validate {
        tree.validate().map_err(|e| format!("after the run: {e}"))?;
    }
    (run.pages, run.height) = (tree.store().inner.page_count(), tree.height());
    Ok(run)
}

fn ids(frame: &[(Ids, TimeSet)]) -> Vec<Ids> {
    frame.iter().map(|(id, _)| *id).collect()
}
