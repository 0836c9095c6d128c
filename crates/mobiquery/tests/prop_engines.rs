//! Property-based tests for the query engines: PDQ and NPDQ are checked
//! against brute force over randomly generated data and trajectories,
//! and PDQ against §4.1's own claim that it "visits every node at most
//! once, independent of frame rate".

use parking_lot::Mutex;
use proptest::prelude::*;
use rtree::bulk::bulk_load;
use rtree::{DtaSegmentRecord, NsiSegmentRecord, RTree, RTreeConfig};
use std::collections::BTreeSet;
use stkit::{Interval, Rect, TimeSet};
use storage::{IoSnapshot, PageId, PageRef, PageStore, Pager, StorageError};

use mobiquery::{
    KeySnapshot, NaiveEngine, NpdqEngine, PdqEngine, PdqResult, SnapshotQuery, Trajectory,
};

#[derive(Clone, Debug)]
struct RawSeg {
    t0: f64,
    dur: f64,
    a: [f64; 2],
    b: [f64; 2],
}

fn raw_seg() -> impl Strategy<Value = RawSeg> {
    (
        0.0f64..20.0,
        0.2f64..4.0,
        (0.0f64..100.0, 0.0f64..100.0),
        (0.0f64..100.0, 0.0f64..100.0),
    )
        .prop_map(|(t0, dur, a, b)| RawSeg {
            t0,
            dur,
            a: [a.0, a.1],
            b: [b.0, b.1],
        })
}

fn segments(n: usize) -> impl Strategy<Value = Vec<RawSeg>> {
    proptest::collection::vec(raw_seg(), 10..n)
}

/// A random 2–4-key trajectory within the space and a matching span.
fn trajectory() -> impl Strategy<Value = Trajectory<2>> {
    (
        1.0f64..15.0,             // start time
        1.0f64..6.0,              // duration
        2.0f64..15.0,             // window side
        proptest::collection::vec((5.0f64..85.0, 5.0f64..85.0), 2..5),
    )
        .prop_map(|(t0, dur, side, centers)| {
            let n = centers.len();
            let keys = centers
                .iter()
                .enumerate()
                .map(|(i, &(cx, cy))| KeySnapshot {
                    t: t0 + dur * i as f64 / (n - 1) as f64,
                    window: Rect::from_corners([cx, cy], [cx + side, cy + side]),
                })
                .collect();
            Trajectory::new(keys)
        })
}

fn nsi_records(raws: &[RawSeg]) -> Vec<NsiSegmentRecord<2>> {
    raws.iter()
        .enumerate()
        .map(|(i, r)| {
            NsiSegmentRecord::new(i as u32, 0, Interval::new(r.t0, r.t0 + r.dur), r.a, r.b)
        })
        .collect()
}

fn nsi_tree(raws: &[RawSeg]) -> (Vec<NsiSegmentRecord<2>>, RTree<NsiSegmentRecord<2>, Pager>) {
    let recs = nsi_records(raws);
    let tree = bulk_load(Pager::new(), RTreeConfig::default(), recs.clone());
    (recs, tree)
}

/// A pager that logs the id of every page read through it.
struct ReadLog {
    inner: Pager,
    reads: Mutex<Vec<PageId>>,
}

impl PageStore for ReadLog {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn try_read_page(&self, id: PageId) -> Result<PageRef, StorageError> {
        self.reads.lock().push(id);
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

/// Drain one fresh PDQ frame by frame over `times` (ascending, first and
/// last the trajectory's span): the pages it read, in order, its disk
/// accesses, and its answers sorted by identity.
fn drain_frames(
    tree: &RTree<NsiSegmentRecord<2>, ReadLog>,
    traj: &Trajectory<2>,
    times: &[f64],
) -> (Vec<PageId>, u64, Vec<PdqResult<2>>) {
    tree.store().reads.lock().clear();
    let mut pdq = PdqEngine::start(tree, traj.clone());
    let mut out = Vec::new();
    for w in times.windows(2) {
        pdq.drain_window_into(tree, w[0], w[1], &mut out);
    }
    out.sort_by_key(|r| (r.record.oid, r.record.seq));
    let reads = std::mem::take(&mut *tree.store().reads.lock());
    (reads, pdq.stats().disk_accesses, out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn pdq_equals_brute_force(raws in segments(250), traj in trajectory()) {
        let (recs, tree) = nsi_tree(&raws);
        let span = traj.span();
        // Brute force: records with non-empty overlap-time.
        let expected: BTreeSet<u32> = recs
            .iter()
            .filter(|r| !traj.overlap_segment(&r.seg).is_empty())
            .map(|r| r.oid)
            .collect();
        let mut pdq = PdqEngine::start(&tree, traj.clone());
        let results = pdq.drain_window(&tree, span.lo, span.hi);
        let got: BTreeSet<u32> = results.iter().map(|r| r.record.oid).collect();
        prop_assert_eq!(got.len(), results.len(), "no duplicates");
        prop_assert_eq!(&got, &expected);
        // Visibility sets must equal the trajectory's exact overlap.
        for r in &results {
            let expect_vis: TimeSet = traj.overlap_segment(&r.record.seg);
            prop_assert_eq!(&r.visibility, &expect_vis);
        }
    }

    #[test]
    fn pdq_results_arrive_sorted_by_entry_time(raws in segments(250), traj in trajectory()) {
        let (_, tree) = nsi_tree(&raws);
        let span = traj.span();
        let mut pdq = PdqEngine::start(&tree, traj);
        let results = pdq.drain_window(&tree, span.lo, span.hi);
        for w in results.windows(2) {
            prop_assert!(
                w[0].visibility.start().unwrap() <= w[1].visibility.start().unwrap() + 1e-12,
                "entry order violated"
            );
        }
    }

    /// One frame over the whole span against a random refinement of it:
    /// cuts anywhere, and cuts exactly on the times answers enter and
    /// leave the view. Same pages read in the same order, none twice, and
    /// the same answers with the same visibility.
    #[test]
    fn pdq_reads_and_answers_do_not_depend_on_the_frame_schedule(
        raws in segments(400),
        traj in trajectory(),
        page_size in prop_oneof![Just(512usize), Just(4096usize)],
        cuts in proptest::collection::vec(0.0f64..1.0, 0..40),
        on_events in proptest::collection::vec(any::<usize>(), 0..16),
    ) {
        let store = ReadLog { inner: Pager::with_page_size(page_size), reads: Mutex::new(Vec::new()) };
        let tree = bulk_load(store, RTreeConfig::default(), nsi_records(&raws));
        let span = traj.span();
        let (one_reads, one_io, one) = drain_frames(&tree, &traj, &[span.lo, span.hi]);

        let events: Vec<f64> = one
            .iter()
            .flat_map(|r| r.visibility.intervals().iter().flat_map(|i| [i.lo, i.hi]))
            .collect();
        let mut times: Vec<f64> = cuts.iter().map(|u| span.lo + u * span.length()).collect();
        if !events.is_empty() {
            times.extend(on_events.iter().map(|&k| events[k % events.len()]));
        }
        times.retain(|t| span.lo < *t && *t < span.hi);
        times.extend([span.lo, span.hi]);
        times.sort_by(f64::total_cmp);
        times.dedup();
        let (many_reads, many_io, many) = drain_frames(&tree, &traj, &times);

        for (what, reads) in [("one frame", &one_reads), ("refined", &many_reads)] {
            let mut distinct = reads.clone();
            distinct.sort_unstable();
            distinct.dedup();
            prop_assert_eq!(distinct.len(), reads.len(), "{}: a node was read twice", what);
        }
        prop_assert_eq!(many_io, one_io, "disk accesses over {} frames", times.len() - 1);
        prop_assert_eq!(&many_reads, &one_reads, "nodes read, in order");
        prop_assert_eq!(&many, &one, "answers over {} frames", times.len() - 1);
    }

    #[test]
    fn npdq_open_session_equals_naive(raws in segments(250), traj in trajectory()) {
        let recs: Vec<DtaSegmentRecord<2>> = raws
            .iter()
            .enumerate()
            .map(|(i, r)| {
                DtaSegmentRecord::new(i as u32, 0, Interval::new(r.t0, r.t0 + r.dur), r.a, r.b)
            })
            .collect();
        let cfg = RTreeConfig { bulk_leading_axes: Some(2), ..RTreeConfig::default() };
        let tree = bulk_load(Pager::new(), cfg, recs);
        let span = traj.span();
        let naive = NaiveEngine::new();
        let mut eng = NpdqEngine::new();
        let mut union_npdq = BTreeSet::new();
        let mut union_naive = BTreeSet::new();
        let frames = 12;
        for k in 0..frames {
            let t = span.lo + span.length() * k as f64 / (frames - 1) as f64;
            let q = SnapshotQuery::open_from(traj.window_at(t), t);
            eng.execute(&tree, &q, |r| { union_npdq.insert(r.oid); });
            naive.query_dta(&tree, &q, |r| { union_naive.insert(r.oid); });
        }
        prop_assert_eq!(union_npdq, union_naive);
    }

    #[test]
    fn npdq_instant_session_equals_naive(raws in segments(250), traj in trajectory()) {
        // Same property under instant query semantics.
        let recs: Vec<DtaSegmentRecord<2>> = raws
            .iter()
            .enumerate()
            .map(|(i, r)| {
                DtaSegmentRecord::new(i as u32, 0, Interval::new(r.t0, r.t0 + r.dur), r.a, r.b)
            })
            .collect();
        let tree = bulk_load(Pager::new(), RTreeConfig::default(), recs);
        let span = traj.span();
        let naive = NaiveEngine::new();
        let mut eng = NpdqEngine::new();
        let mut union_npdq = BTreeSet::new();
        let mut union_naive = BTreeSet::new();
        let frames = 12;
        for k in 0..frames {
            let t = span.lo + span.length() * k as f64 / (frames - 1) as f64;
            let q = SnapshotQuery::at_instant(traj.window_at(t), t);
            eng.execute(&tree, &q, |r| { union_npdq.insert((r.oid, r.seq)); });
            naive.query_dta(&tree, &q, |r| { union_naive.insert((r.oid, r.seq)); });
        }
        prop_assert_eq!(union_npdq, union_naive);
    }

    #[test]
    fn spdq_is_superset_of_pdq(raws in segments(200), traj in trajectory(), delta in 0.0f64..5.0) {
        // SPDQ (§4) is PDQ over the δ-inflated trajectory.
        let (_, tree) = nsi_tree(&raws);
        let span = traj.span();
        let mut pdq = PdqEngine::start(&tree, traj.clone());
        let plain = pdq.drain_window(&tree, span.lo, span.hi);
        let oids = |rs: &[mobiquery::PdqResult<2>]| {
            rs.iter().map(|r| r.record.oid).collect::<BTreeSet<u32>>()
        };
        let mut spdq = PdqEngine::start(&tree, traj.inflate(delta));
        let fat = spdq.drain_window(&tree, span.lo, span.hi);
        prop_assert!(oids(&fat).is_superset(&oids(&plain)));
        // δ = 0 is plain PDQ: same results, same order, same cost.
        let mut zero = PdqEngine::start(&tree, traj.inflate(0.0));
        prop_assert_eq!(&zero.drain_window(&tree, span.lo, span.hi), &plain);
        prop_assert_eq!(zero.stats(), pdq.stats());
    }

    #[test]
    fn knn_matches_brute_force(raws in segments(250), px in 0.0f64..100.0, py in 0.0f64..100.0, t in 1.0f64..20.0, k in 1usize..8) {
        let (recs, tree) = nsi_tree(&raws);
        let mut stats = mobiquery::QueryStats::default();
        let got = mobiquery::knn_at(&tree, [px, py], t, k, &mut stats);
        // Brute force.
        let mut alive: Vec<(f64, u32)> = recs
            .iter()
            .filter(|r| r.seg.t.contains(t))
            .map(|r| (r.seg.dist_sq_at(t, &[px, py]), r.oid))
            .collect();
        alive.sort_by(|a, b| a.0.total_cmp(&b.0));
        prop_assert_eq!(got.len(), k.min(alive.len()));
        for (i, res) in got.iter().enumerate() {
            prop_assert!((res.dist_sq - alive[i].0).abs() < 1e-9,
                "rank {i}: {} vs {}", res.dist_sq, alive[i].0);
        }
    }
}
